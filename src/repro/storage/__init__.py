"""Persistent storage layer: relation stores and incrementally-maintained
join indexes.

The lifecycle is *register → maintain → heal*: the compiled delta pipelines
register the join atoms they probe at view-registration time
(:meth:`repro.ivm.database.Database.register_index_requirements`), every
update folds its delta into the affected indexes in ``O(|Δ|)``
(:meth:`RelationStore.apply_delta`), and a deleting write rebuilds the indexes
an unhashable key had poisoned (:meth:`RelationStore.heal`).  See
``docs/api.md`` ("Storage layer") for the full contract, including when the
pipeline falls back to per-evaluation builds.
"""

from repro.bag.builder import BagBuilder
from repro.storage.index import HashIndex, IndexKeyError, index_key_of
from repro.storage.results import ResultStore
from repro.storage.store import (
    DictionaryStore,
    IndexProvider,
    RelationStore,
    StorageManager,
    forced_no_index,
    persistent_indexes_enabled,
)

__all__ = [
    "BagBuilder",
    "DictionaryStore",
    "HashIndex",
    "IndexKeyError",
    "IndexProvider",
    "RelationStore",
    "ResultStore",
    "StorageManager",
    "forced_no_index",
    "index_key_of",
    "persistent_indexes_enabled",
    "resolve_shard_count",
]


def resolve_shard_count(shards=None) -> int:
    """Benchmark residue (``benchmarks/suite/report.py`` records it): always 1."""
    return 1
