"""Generalized bags with integer multiplicities and nested-value utilities."""

from repro.bag.bag import Bag, EMPTY_BAG
from repro.bag.builder import BagBuilder
from repro.bag.values import (
    intern_key,
    is_base_value,
    is_nested_value,
    iter_inner_bags,
    key_interner_stats,
    nested_cardinalities,
    render_value,
    value_depth,
    value_size,
)

__all__ = [
    "Bag",
    "BagBuilder",
    "EMPTY_BAG",
    "intern_key",
    "is_base_value",
    "is_nested_value",
    "iter_inner_bags",
    "key_interner_stats",
    "nested_cardinalities",
    "render_value",
    "value_depth",
    "value_size",
]
