"""Persistent storage layer: relation stores and incrementally-maintained
join indexes.

The lifecycle is *register → maintain → vacuum*: the compiled delta pipelines
register the join atoms they probe at view-registration time
(:meth:`repro.ivm.database.Database.register_index_requirements`), every
update folds its delta into the affected indexes in ``O(|Δ|)``
(:meth:`RelationStore.apply_delta`), and :meth:`repro.engine.Engine.vacuum`
keeps the derived state tight.  See ``docs/api.md`` ("Storage layer") for the
full contract, including when the pipeline falls back to per-evaluation
builds.
"""

from repro.bag.builder import BagBuilder
from repro.storage.index import HashIndex, IndexKeyError, index_key_of
from repro.storage.results import ResultStore
from repro.storage.shards import (
    DEFAULT_SHARD_COUNT,
    REPRO_SHARDS,
    ShardIndexFamily,
    ShardedBag,
    forced_shards,
    resolve_shard_count,
)
from repro.storage.store import (
    REPRO_NO_INDEX,
    DictionaryStore,
    IndexProvider,
    RelationStore,
    StorageManager,
    forced_no_index,
    persistent_indexes_enabled,
)

__all__ = [
    "DEFAULT_SHARD_COUNT",
    "REPRO_NO_INDEX",
    "REPRO_SHARDS",
    "BagBuilder",
    "DictionaryStore",
    "HashIndex",
    "IndexKeyError",
    "IndexProvider",
    "RelationStore",
    "ResultStore",
    "ShardIndexFamily",
    "ShardedBag",
    "StorageManager",
    "forced_no_index",
    "forced_shards",
    "index_key_of",
    "persistent_indexes_enabled",
    "resolve_shard_count",
]
