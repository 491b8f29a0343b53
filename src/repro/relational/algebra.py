"""Flat positive relational algebra on bags (RA+), Appendix A.1.

The paper recalls classical delta processing on the flat relational algebra
before generalizing it to nested data.  This package implements that flat
baseline from scratch — selection, projection, Cartesian product, natural /
theta joins and bag union over named-column relations — together with its
delta rules (:mod:`repro.relational.delta`), so the flat-vs-nested
claim (E4 in ``tests/test_paper_claims.py``) has a faithful comparator.

Relations here are bags of *named tuples*: each element is a ``tuple`` whose
positions are described by a :class:`RelSchema` of column names.  All
operators are expression trees evaluated against a mapping of base-relation
names to bags, mirroring the NRC+ evaluator's design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.bag.bag import Bag, EMPTY_BAG
from repro.errors import EvaluationError, TypeCheckError

__all__ = [
    "RelSchema",
    "RAExpr",
    "BaseRel",
    "DeltaRel",
    "Select",
    "Project",
    "CrossProduct",
    "ThetaJoin",
    "UnionAll",
    "NegateRel",
    "Rename",
]


@dataclass(frozen=True)
class RelSchema:
    """Ordered column names of a flat relation."""

    columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise TypeCheckError(f"duplicate column names in schema {self.columns!r}")

    def index_of(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError as error:
            raise TypeCheckError(f"unknown column {column!r} in schema {self.columns!r}") from error

    def project(self, columns: Sequence[str]) -> "RelSchema":
        return RelSchema(tuple(columns))

    def concat(self, other: "RelSchema", disambiguate: bool = True) -> "RelSchema":
        columns = list(self.columns)
        for column in other.columns:
            name = column
            if disambiguate and name in columns:
                name = f"{column}_r"
                suffix = 2
                while name in columns:
                    name = f"{column}_r{suffix}"
                    suffix += 1
            columns.append(name)
        return RelSchema(tuple(columns))

    def __len__(self) -> int:
        return len(self.columns)


class RAExpr:
    """Abstract base class of relational-algebra expressions."""

    def schema(self) -> RelSchema:
        raise NotImplementedError

    def evaluate(self, database: Mapping[str, Bag], deltas: Optional[Mapping[Tuple[str, int], Bag]] = None) -> Bag:
        raise NotImplementedError

    def children(self) -> Tuple["RAExpr", ...]:
        return ()

    # Sugar ----------------------------------------------------------------
    def select(self, predicate: Callable[[Mapping[str, Any]], bool], description: str = "p") -> "Select":
        return Select(self, predicate, description)

    def project(self, columns: Sequence[str]) -> "Project":
        return Project(self, tuple(columns))

    def cross(self, other: "RAExpr") -> "CrossProduct":
        return CrossProduct(self, other)

    def join(self, other: "RAExpr", on: Sequence[Tuple[str, str]]) -> "ThetaJoin":
        return ThetaJoin(self, other, tuple(on))

    def union(self, other: "RAExpr") -> "UnionAll":
        return UnionAll(self, other)


@dataclass(frozen=True)
class BaseRel(RAExpr):
    """A named base relation."""

    name: str
    rel_schema: RelSchema

    def schema(self) -> RelSchema:
        return self.rel_schema

    def evaluate(self, database, deltas=None) -> Bag:
        if self.name not in database:
            raise EvaluationError(f"unknown relation {self.name!r}")
        return database[self.name]


@dataclass(frozen=True)
class DeltaRel(RAExpr):
    """The update symbol ``ΔR`` of the flat delta rules."""

    name: str
    rel_schema: RelSchema
    order: int = 1

    def schema(self) -> RelSchema:
        return self.rel_schema

    def evaluate(self, database, deltas=None) -> Bag:
        if not deltas:
            return EMPTY_BAG
        return deltas.get((self.name, self.order), EMPTY_BAG)


@dataclass(frozen=True)
class Select(RAExpr):
    """``σ_p(e)`` — keep tuples satisfying the predicate.

    The predicate receives a dict mapping column names to values so it stays
    independent of column positions; ``description`` is used for display.
    """

    source: RAExpr
    predicate: Callable[[Mapping[str, Any]], bool]
    description: str = "p"

    def schema(self) -> RelSchema:
        return self.source.schema()

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.source,)

    def evaluate(self, database, deltas=None) -> Bag:
        schema = self.schema()
        columns = schema.columns

        def keep(row: Tuple) -> bool:
            return self.predicate(dict(zip(columns, row)))

        return self.source.evaluate(database, deltas).filter(keep)


@dataclass(frozen=True)
class Project(RAExpr):
    """``Π_cols(e)`` — bag projection (duplicates preserved as multiplicities)."""

    source: RAExpr
    columns: Tuple[str, ...]

    def schema(self) -> RelSchema:
        return RelSchema(self.columns)

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.source,)

    def evaluate(self, database, deltas=None) -> Bag:
        source_schema = self.source.schema()
        indices = [source_schema.index_of(column) for column in self.columns]
        return self.source.evaluate(database, deltas).map(
            lambda row: tuple(row[index] for index in indices)
        )


@dataclass(frozen=True)
class CrossProduct(RAExpr):
    """``e1 × e2`` — concatenated tuples, multiplied multiplicities."""

    left: RAExpr
    right: RAExpr

    def schema(self) -> RelSchema:
        return self.left.schema().concat(self.right.schema())

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.left, self.right)

    def evaluate(self, database, deltas=None) -> Bag:
        left = self.left.evaluate(database, deltas)
        right = self.right.evaluate(database, deltas)
        pairs: Dict[Tuple, int] = {}
        for left_row, left_mult in left.items():
            for right_row, right_mult in right.items():
                row = tuple(left_row) + tuple(right_row)
                pairs[row] = pairs.get(row, 0) + left_mult * right_mult
        return Bag.from_pairs(pairs.items())


@dataclass(frozen=True)
class ThetaJoin(RAExpr):
    """Equi-join ``e1 ⋈ e2`` on pairs of column names (hash join)."""

    left: RAExpr
    right: RAExpr
    on: Tuple[Tuple[str, str], ...]

    def schema(self) -> RelSchema:
        return self.left.schema().concat(self.right.schema())

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.left, self.right)

    def evaluate(self, database, deltas=None) -> Bag:
        left_schema = self.left.schema()
        right_schema = self.right.schema()
        left_indices = [left_schema.index_of(left_col) for left_col, _ in self.on]
        right_indices = [right_schema.index_of(right_col) for _, right_col in self.on]

        right_bag = self.right.evaluate(database, deltas)
        buckets: Dict[Tuple, list] = {}
        for row, mult in right_bag.items():
            key = tuple(row[index] for index in right_indices)
            buckets.setdefault(key, []).append((row, mult))

        results: Dict[Tuple, int] = {}
        for row, mult in self.left.evaluate(database, deltas).items():
            key = tuple(row[index] for index in left_indices)
            for right_row, right_mult in buckets.get(key, ()):
                joined = tuple(row) + tuple(right_row)
                results[joined] = results.get(joined, 0) + mult * right_mult
        return Bag.from_pairs(results.items())


@dataclass(frozen=True)
class UnionAll(RAExpr):
    """Bag union ``e1 ⊎ e2`` (schemas must match in arity)."""

    left: RAExpr
    right: RAExpr

    def schema(self) -> RelSchema:
        left_schema = self.left.schema()
        right_schema = self.right.schema()
        if len(left_schema) != len(right_schema):
            raise TypeCheckError("union of relations with different arities")
        return left_schema

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.left, self.right)

    def evaluate(self, database, deltas=None) -> Bag:
        return self.left.evaluate(database, deltas).union(self.right.evaluate(database, deltas))


@dataclass(frozen=True)
class NegateRel(RAExpr):
    """``⊖(e)`` — negate multiplicities (used to express deletions)."""

    source: RAExpr

    def schema(self) -> RelSchema:
        return self.source.schema()

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.source,)

    def evaluate(self, database, deltas=None) -> Bag:
        return self.source.evaluate(database, deltas).negate()


@dataclass(frozen=True)
class Rename(RAExpr):
    """``ρ`` — rename columns (content unchanged)."""

    source: RAExpr
    mapping: Tuple[Tuple[str, str], ...]

    def schema(self) -> RelSchema:
        renames = dict(self.mapping)
        return RelSchema(
            tuple(renames.get(column, column) for column in self.source.schema().columns)
        )

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.source,)

    def evaluate(self, database, deltas=None) -> Bag:
        return self.source.evaluate(database, deltas)
