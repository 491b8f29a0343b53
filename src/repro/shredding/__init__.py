"""Shredding: labels, dictionaries and the NRC+ → IncNRC+_l transformation."""

from repro.shredding.consistency import check_consistency, collect_labels, is_consistent
from repro.shredding.context import (
    BagContext,
    Context,
    EMPTY_CONTEXT,
    EmptyContext,
    TupleContext,
    UNIT_CONTEXT,
    UnitContext,
    empty_context_for_type,
    iter_context_dicts,
    map_context_dicts,
    merge_contexts,
)
from repro.dictionaries import (
    CombinedDict,
    DictValue,
    EMPTY_DICT,
    IntensionalDict,
    MaterializedDict,
)
from repro.labels import Label, LabelFactory
from repro.shredding.nesting import Nester
from repro.shredding.shred_database import (
    ShreddedInput,
    build_shredded_environment,
    flat_relation_name,
    input_context_for,
    input_dict_name,
    shred_relation,
)
from repro.shredding.shred_query import ShreddedQuery, shred_query
from repro.shredding.shred_values import ValueShredder, shred_bag, unshred_bag, unshred_value

__all__ = [
    "check_consistency",
    "collect_labels",
    "is_consistent",
    "BagContext",
    "Context",
    "EMPTY_CONTEXT",
    "EmptyContext",
    "TupleContext",
    "UNIT_CONTEXT",
    "UnitContext",
    "empty_context_for_type",
    "iter_context_dicts",
    "map_context_dicts",
    "merge_contexts",
    "CombinedDict",
    "DictValue",
    "EMPTY_DICT",
    "IntensionalDict",
    "MaterializedDict",
    "Label",
    "LabelFactory",
    "Nester",
    "ShreddedInput",
    "build_shredded_environment",
    "flat_relation_name",
    "input_context_for",
    "input_dict_name",
    "shred_relation",
    "ShreddedQuery",
    "shred_query",
    "ValueShredder",
    "shred_bag",
    "unshred_bag",
    "unshred_value",
]
