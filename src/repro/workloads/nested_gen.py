"""Random nested data generators.

These feed the shredding (E5) and Example 4 self-join (E3) cells of
``tests/test_paper_claims.py`` and the property tests: bags of bags with
controllable top-level cardinality, inner-bag cardinality, value skew and
nesting depth.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional

from repro.bag.bag import Bag
from repro.errors import WorkloadError
from repro.ivm.updates import Update, UpdateStream
from repro.nrc.types import BASE, BagType, ProductType, Type, bag_of, tuple_of

__all__ = [
    "nested_bag_type",
    "generate_nested_bag",
    "generate_bag_of_bags",
    "bag_of_bags_engine",
    "nested_update_stream",
]


def nested_bag_type(depth: int) -> BagType:
    """The type ``Bag(⟨Base, Bag(⟨Base, …⟩)⟩)`` with the given nesting depth.

    ``depth == 1`` is a flat bag of pairs; every extra level adds one inner
    bag component.
    """
    if depth < 1:
        raise WorkloadError("nesting depth must be at least 1")
    element: Type = tuple_of(BASE, BASE)
    for _ in range(depth - 1):
        element = tuple_of(BASE, bag_of(element))
    return bag_of(element)


def generate_nested_bag(
    depth: int,
    top_cardinality: int,
    inner_cardinality: int,
    seed: int = 5,
    value_pool: int = 1000,
) -> Bag:
    """Generate a random value of :func:`nested_bag_type`'s type."""
    rng = random.Random(seed)

    def _value(level: int) -> Any:
        if level == 1:
            return (f"k{rng.randrange(value_pool)}", f"v{rng.randrange(value_pool)}")
        inner = Bag(_value(level - 1) for _ in range(inner_cardinality))
        return (f"k{rng.randrange(value_pool)}", inner)

    return Bag(_value(depth) for _ in range(top_cardinality))


def generate_bag_of_bags(
    top_cardinality: int,
    inner_cardinality: int,
    seed: int = 9,
    value_pool: int = 10_000,
) -> Bag:
    """A value of type ``Bag(Bag(Base))`` — the input shape of Example 4."""
    rng = random.Random(seed)
    return Bag(
        Bag(f"x{rng.randrange(value_pool)}" for _ in range(inner_cardinality))
        for _ in range(top_cardinality)
    )


def bag_of_bags_engine(
    top_cardinality: int,
    inner_cardinality: int,
    seed: int = 9,
    relation: str = "R",
):
    """An :class:`~repro.engine.Engine` preloaded with a ``Bag(Bag(Base))`` relation."""
    from repro.engine import Engine

    engine = Engine()
    engine.dataset(
        relation,
        bag_of(bag_of(BASE)),
        generate_bag_of_bags(top_cardinality, inner_cardinality, seed=seed),
    )
    return engine


def nested_update_stream(
    relation: str,
    num_updates: int,
    batch_size: int,
    inner_cardinality: int,
    seed: int = 31,
    value_pool: int = 10_000,
) -> UpdateStream:
    """Updates inserting fresh inner bags into a ``Bag(Bag(Base))`` relation."""
    rng = random.Random(seed)
    stream = UpdateStream()
    for _ in range(num_updates):
        bags: List[Bag] = []
        for _ in range(batch_size):
            bags.append(
                Bag(f"u{rng.randrange(value_pool)}" for _ in range(inner_cardinality))
            )
        stream.append(Update(relations={relation: Bag(bags)}))
    return stream
