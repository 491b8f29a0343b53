"""Generalized bags with integer multiplicities.

The paper's data model (Section 3) is built on bags where every element has a
(possibly negative) integer multiplicity.  Bag addition ``⊎`` sums
multiplicities, ``⊖`` negates them and the empty bag is the neutral element,
so bags form a commutative group.  That group structure is exactly what makes
delta processing possible: for any two query results ``Q_old`` and ``Q_new``
there is always an update ``ΔQ`` with ``Q_new = Q_old ⊎ ΔQ``.

:class:`Bag` is immutable and hashable so bags can be nested inside tuples and
inside other bags (the nested data model).  All operations return new bags.
Elements with multiplicity zero are never stored.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterable, Iterator, Mapping, Tuple

__all__ = ["Bag", "EMPTY_BAG"]

#: Bag hashes are sums of pair hashes modulo the modulus CPython reduces
#: numeric hashes by, so every hash fits a ``Py_hash_t`` and is never -1.
_MODULUS = sys.hash_info.modulus


def _full_hash(data: Dict[Any, int]) -> int:
    """The structural hash of a multiplicity dict, from scratch: the sum of
    ``hash((element, multiplicity))`` over its pairs, modulo :data:`_MODULUS`.

    A sum is order-free, as equality requires, and it moves pair by pair:
    :meth:`Bag.union` and :meth:`Bag.difference` take it off their base
    operand's cached hash in ``O(|other|)``.  ``O(|bag|)`` — the one place
    a whole bag is hashed.
    """
    return sum(map(hash, data.items())) % _MODULUS


class Bag:
    """An immutable bag (multiset) with integer multiplicities.

    Elements may be any hashable Python value, including other :class:`Bag`
    instances and tuples containing bags — this is what allows nested
    relations to be represented directly.

    Construction accepts either an iterable of elements (each occurrence
    counts once), an iterable of ``(element, multiplicity)`` pairs via
    :meth:`from_pairs`, or a mapping from elements to multiplicities via
    :meth:`from_mapping`.
    """

    __slots__ = ("_data", "_hash")

    def __init__(self, elements: Iterable[Any] = ()) -> None:
        # Counting occurrences only ever increments, so no zero multiplicity
        # can arise: the dict is built once and used as-is.
        data: Dict[Any, int] = {}
        for element in elements:
            data[element] = data.get(element, 0) + 1
        self._data: Dict[Any, int] = data
        self._hash: int | None = None

    # ------------------------------------------------------------------ #
    # Alternative constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[Any, int]]) -> "Bag":
        """Build a bag from ``(element, multiplicity)`` pairs.

        Multiplicities for repeated elements are summed; zero-multiplicity
        entries are dropped.
        """
        data: Dict[Any, int] = {}
        for element, multiplicity in pairs:
            if not isinstance(multiplicity, int):
                raise TypeError(
                    f"multiplicity must be an int, got {type(multiplicity).__name__}"
                )
            updated = data.get(element, 0) + multiplicity
            if updated == 0:
                data.pop(element, None)
            else:
                data[element] = updated
        return cls._from_clean_dict(data)

    @classmethod
    def from_mapping(cls, mapping: Mapping[Any, int]) -> "Bag":
        """Build a bag from a mapping of elements to multiplicities."""
        return cls.from_pairs(mapping.items())

    @classmethod
    def singleton(cls, element: Any, multiplicity: int = 1) -> "Bag":
        """Return the bag ``{element}`` (with the given multiplicity)."""
        if multiplicity == 0:
            return EMPTY_BAG
        return cls._from_clean_dict({element: multiplicity})

    @classmethod
    def empty(cls) -> "Bag":
        """Return the empty bag ``∅``."""
        return EMPTY_BAG

    @classmethod
    def _from_clean_dict(cls, data: Dict[Any, int]) -> "Bag":
        """Internal: wrap an already-normalized dict without copying checks."""
        bag = cls.__new__(cls)
        bag._data = data
        bag._hash = None
        return bag

    # ------------------------------------------------------------------ #
    # Group structure (⊎, ⊖, ∅) and scaling
    # ------------------------------------------------------------------ #
    def union(self, other: "Bag") -> "Bag":
        """Bag addition ``self ⊎ other``: multiplicities are summed.

        The larger operand's dict is cloned (``dict.copy``: one block copy
        while the table has few holes, a few ns per entry) and the smaller
        one folded into the clone, so the hashing and storing is
        ``O(min(|self|, |other|))`` — the cost the paper's Section 2.2
        charges ``⊎`` with.  If the larger operand's hash is cached, the
        result's is derived from it over the same pairs, so a rewritten
        entry never has to be hashed in full again.
        """
        if not isinstance(other, Bag):
            raise TypeError(f"cannot union Bag with {type(other).__name__}")
        if not other._data:
            return self
        if not self._data:
            return other
        if len(self._data) >= len(other._data):
            return self._folded(other._data, 1)
        return other._folded(self._data, 1)

    def _folded(self, pairs: Dict[Any, int], sign: int) -> "Bag":
        """``self ⊎ sign·pairs`` over a clone of ``self``'s dict, in one
        accumulation pass over ``pairs``; cancellations are dropped in place
        and a cached hash is carried pair by pair."""
        data = self._data.copy()
        total = self._hash
        for element, multiplicity in pairs.items():
            previous = data.get(element, 0)
            updated = previous + sign * multiplicity
            if total is not None:
                if previous:
                    total -= hash((element, previous))
                if updated:
                    total += hash((element, updated))
            if updated == 0:
                del data[element]
            else:
                data[element] = updated
        if not data:
            return EMPTY_BAG
        bag = Bag._from_clean_dict(data)
        if total is not None:
            bag._hash = total % _MODULUS
        return bag

    def negate(self) -> "Bag":
        """Return ``⊖(self)``: every multiplicity negated."""
        if not self._data:
            return EMPTY_BAG
        return Bag._from_clean_dict({e: -m for e, m in self._data.items()})

    def difference(self, other: "Bag") -> "Bag":
        """Return ``self ⊎ ⊖(other)`` (group difference, *not* monus).

        Computed in one subtraction pass over ``other`` into a clone of
        ``self`` — the negated intermediate bag of the definitional
        ``self ⊎ ⊖(other)`` is never materialized — with ``self``'s cached
        hash, if any, carried over as in :meth:`union`.
        """
        if not isinstance(other, Bag):
            raise TypeError(f"cannot subtract {type(other).__name__} from Bag")
        if not other._data:
            return self
        if not self._data:
            return other.negate()
        return self._folded(other._data, -1)

    def scale(self, factor: int) -> "Bag":
        """Multiply every multiplicity by ``factor``."""
        if not isinstance(factor, int):
            raise TypeError("scale factor must be an int")
        if factor == 0 or not self._data:
            return EMPTY_BAG
        if factor == 1:
            return self
        return Bag._from_clean_dict({e: m * factor for e, m in self._data.items()})

    def __add__(self, other: "Bag") -> "Bag":
        return self.union(other)

    def __neg__(self) -> "Bag":
        return self.negate()

    def __sub__(self, other: "Bag") -> "Bag":
        return self.difference(other)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def multiplicity(self, element: Any) -> int:
        """Return the multiplicity of ``element`` (0 if absent)."""
        return self._data.get(element, 0)

    def __contains__(self, element: Any) -> bool:
        return element in self._data

    def elements(self) -> Iterator[Any]:
        """Iterate over distinct elements (ignoring multiplicities)."""
        return iter(self._data)

    def items(self) -> Iterator[Tuple[Any, int]]:
        """Iterate over ``(element, multiplicity)`` pairs."""
        return iter(self._data.items())

    def expand(self) -> Iterator[Any]:
        """Iterate over elements repeated by their (positive) multiplicity.

        Elements with negative multiplicity are skipped; use :meth:`items`
        when negative counts matter.
        """
        for element, multiplicity in self._data.items():
            for _ in range(max(multiplicity, 0)):
                yield element

    def distinct_size(self) -> int:
        """Number of distinct elements."""
        return len(self._data)

    def total_multiplicity(self) -> int:
        """Sum of all multiplicities (may be negative)."""
        return sum(self._data.values())

    def cardinality(self) -> int:
        """Sum of absolute multiplicities — the ``|X|`` used by ``size``.

        This counts repetitions, matching the paper's convention that
        cardinality estimates include duplicate tuples.
        """
        return sum(abs(m) for m in self._data.values())

    def is_empty(self) -> bool:
        """True iff the bag has no elements with non-zero multiplicity."""
        return not self._data

    def has_negative(self) -> bool:
        """True iff some element has a negative multiplicity."""
        return any(m < 0 for m in self._data.values())

    def max_multiplicity(self) -> int:
        """Largest absolute multiplicity (0 for the empty bag)."""
        if not self._data:
            return 0
        return max(abs(m) for m in self._data.values())

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def as_dict(self) -> Dict[Any, int]:
        """Return a copy of the underlying element → multiplicity mapping."""
        return dict(self._data)

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #
    def map(self, func) -> "Bag":
        """Apply ``func`` to every element, keeping multiplicities.

        If ``func`` maps two elements to the same value their multiplicities
        are summed.
        """
        data: Dict[Any, int] = {}
        for element, multiplicity in self._data.items():
            image = func(element)
            data[image] = data.get(image, 0) + multiplicity
        return Bag._from_clean_dict({e: m for e, m in data.items() if m != 0})

    def filter(self, predicate) -> "Bag":
        """Keep only elements for which ``predicate`` returns true."""
        return Bag._from_clean_dict(
            {e: m for e, m in self._data.items() if predicate(e)}
        )

    def flat_map(self, func) -> "Bag":
        """Monadic bind: ``func`` returns a Bag per element; results are summed.

        The multiplicity of the source element scales the returned bag, which
        is exactly the semantics of ``for x in e1 union e2`` in Figure 3.
        """
        result: Dict[Any, int] = {}
        for element, multiplicity in self._data.items():
            inner = func(element)
            if not isinstance(inner, Bag):
                raise TypeError("flat_map function must return a Bag")
            for inner_element, inner_multiplicity in inner._data.items():
                combined = multiplicity * inner_multiplicity
                if combined == 0:
                    continue
                updated = result.get(inner_element, 0) + combined
                if updated == 0:
                    result.pop(inner_element, None)
                else:
                    result[inner_element] = updated
        return Bag._from_clean_dict(result)

    def product(self, other: "Bag") -> "Bag":
        """Cartesian product: pairs with multiplied multiplicities."""
        if not isinstance(other, Bag):
            raise TypeError(f"cannot take product of Bag with {type(other).__name__}")
        data: Dict[Any, int] = {}
        for left, left_mult in self._data.items():
            for right, right_mult in other._data.items():
                data[(left, right)] = left_mult * right_mult
        return Bag._from_clean_dict({e: m for e, m in data.items() if m != 0})

    def flatten(self) -> "Bag":
        """Union of all inner bags (elements must themselves be bags)."""
        result = EMPTY_BAG
        for element, multiplicity in self._data.items():
            if not isinstance(element, Bag):
                raise TypeError("flatten requires a bag of bags")
            result = result.union(element.scale(multiplicity))
        return result

    def group_by(self, key_func) -> Dict[Any, "Bag"]:
        """Partition the bag into sub-bags keyed by ``key_func``."""
        groups: Dict[Any, Dict[Any, int]] = {}
        for element, multiplicity in self._data.items():
            key = key_func(element)
            groups.setdefault(key, {})[element] = multiplicity
        return {key: Bag._from_clean_dict(data) for key, data in groups.items()}

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[Any, int]:
        """Pickle only the multiplicity dict.

        The cached structural hash is deliberately dropped: ``hash(str)`` is
        seeded per interpreter, so a hash captured in one process would be a
        lie in another.  ``__setstate__`` restores the lazy-recompute state,
        which is what makes bag snapshots *sendable* — a round-trip through
        ``pickle`` preserves equality, and re-hashing in the receiving
        process is consistent with every other hash computed there.
        """
        return self._data

    def __setstate__(self, state: Dict[Any, int]) -> None:
        self._data = state
        self._hash = None

    # ------------------------------------------------------------------ #
    # Equality / hashing / display
    # ------------------------------------------------------------------ #
    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = _full_hash(self._data)
        return self._hash

    def __repr__(self) -> str:
        if not self._data:
            return "Bag{}"
        parts = []
        for element, multiplicity in sorted(
            self._data.items(), key=lambda item: repr(item[0])
        ):
            if multiplicity == 1:
                parts.append(repr(element))
            else:
                parts.append(f"{element!r}^{multiplicity}")
        return "Bag{" + ", ".join(parts) + "}"


#: The canonical empty bag, shared to avoid needless allocations.
EMPTY_BAG = Bag()
