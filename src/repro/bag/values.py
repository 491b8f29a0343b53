"""Nested value helpers: validation, depth, sizes and canonical rendering.

A *nested value* in this library is one of:

* a base value — ``str``, ``int``, ``float`` or ``bool`` (the paper's
  ``Base`` type),
* the unit value — the empty Python tuple ``()`` (the paper's ``⟨⟩``),
* a tuple of nested values (product types), or
* a :class:`~repro.bag.bag.Bag` whose elements are nested values
  (``Bag(C)`` types).

These functions are structural utilities shared by the evaluator, the cost
model (``size``), the shredding machinery and the workload generators.
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple

from repro.bag.bag import Bag

__all__ = [
    "BASE_TYPES",
    "intern_key",
    "is_base_value",
    "is_hashable_key",
    "is_nested_value",
    "key_interner_stats",
    "value_depth",
    "value_size",
    "nested_cardinalities",
    "iter_inner_bags",
    "render_value",
]

#: The Python types of base (atomic) values — the paper's ``Base``.
BASE_TYPES = (str, int, float, bool)


def is_base_value(value: Any) -> bool:
    """True iff ``value`` is a base (atomic) value."""
    return isinstance(value, BASE_TYPES)


def is_hashable_key(value: Any) -> bool:
    """True iff ``==`` on ``value`` coincides with dictionary-key matching.

    That holds exactly for *self-equal base values*: ``NaN`` is not
    self-equal (dict identity lookup would wrongly match it) and compound
    values may not be compared by the predicate fragment at all.  This is
    the single soundness rule shared by the compiled pipeline's
    per-evaluation hash-join builds (:mod:`repro.nrc.compile`) and the
    storage layer's persistent indexes (:mod:`repro.storage.index`) — the
    two must never disagree about which keys hashing can match faithfully.
    """
    return isinstance(value, BASE_TYPES) and value == value


def is_nested_value(value: Any) -> bool:
    """True iff ``value`` is a well-formed nested value.

    Implemented with an explicit work stack so workload values nested deeper
    than Python's recursion limit are still checkable.
    """
    stack = [value]
    while stack:
        current = stack.pop()
        if isinstance(current, BASE_TYPES):
            continue
        if isinstance(current, tuple):
            stack.extend(current)
            continue
        if isinstance(current, Bag):
            stack.extend(current.elements())
            continue
        return False
    return True


def value_depth(value: Any) -> int:
    """Maximum bag-nesting depth of a value.

    Base values and tuples of base values have depth 0; a flat bag has
    depth 1; a bag of bags has depth 2, and so on.  Tuples take the maximum
    over their components.  Iterative (explicit stack), so pathologically
    deep values cannot overflow the interpreter stack.
    """
    best = 0
    stack = [(value, 0)]
    while stack:
        current, depth = stack.pop()
        if isinstance(current, BASE_TYPES):
            if depth > best:
                best = depth
            continue
        if isinstance(current, tuple):
            if not current:
                if depth > best:
                    best = depth
                continue
            for component in current:
                stack.append((component, depth))
            continue
        if isinstance(current, Bag):
            depth += 1
            if depth > best:
                best = depth
            for element in current.elements():
                stack.append((element, depth))
            continue
        raise TypeError(f"not a nested value: {current!r}")
    return best


def value_size(value: Any) -> int:
    """Total number of atomic constituents, counting bag multiplicities.

    This is the "physical size" of a value used by workload reporting and by
    the incrementality discussion in Appendix A.2 (``size(ΔR) ≪ size(R)``);
    the cost-domain ``size`` of Section 4.2 lives in :mod:`repro.cost.size`.
    Iterative (explicit stack), so pathologically deep values cannot
    overflow the interpreter stack.
    """
    total = 0
    stack = [(value, 1)]
    while stack:
        current, weight = stack.pop()
        if isinstance(current, BASE_TYPES):
            total += weight
            continue
        if isinstance(current, tuple):
            if not current:
                total += weight
                continue
            for component in current:
                stack.append((component, weight))
            continue
        if isinstance(current, Bag):
            total += weight
            for element, multiplicity in current.items():
                stack.append((element, weight * abs(multiplicity)))
            continue
        raise TypeError(f"not a nested value: {current!r}")
    return total


# --------------------------------------------------------------------------- #
# Compound-key interning (the hash-join / index hot path)
# --------------------------------------------------------------------------- #
class _KeyInterner:
    """A small bounded interning table for compound join/index keys.

    The compiled hash-joins and the storage layer's persistent indexes build
    one key tuple per indexed element and one per probe.  Under a stream of
    small updates the same logical keys recur over and over; interning them
    returns one canonical tuple per distinct key, so

    * every bucket dict holds (and compares against) canonical objects —
      CPython's dict lookup then succeeds on the identity fast path without
      re-running deep structural ``==``, and
    * the values reachable from a canonical key (e.g. a cached-hash
      :class:`~repro.labels.Label` inside a flat shredded tuple) keep their
      structural hashes warm across updates instead of being recomputed for
      every freshly-built tuple.

    The table is deliberately tiny and self-limiting: when it fills up it is
    simply cleared (an epoch reset), which bounds memory without an LRU's
    per-hit bookkeeping.  Interning is semantically invisible — it may only
    ever return an equal tuple.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_table")

    def __init__(self, capacity: int = 8192) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._table: dict = {}

    def intern(self, key: Tuple[Any, ...]) -> Tuple[Any, ...]:
        table = self._table
        cached = table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        if len(table) >= self.capacity:
            table.clear()
            self.evictions += 1
        table[key] = key
        return key

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "entries": len(self._table),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        self._table.clear()


#: The process-wide interner shared by ``repro.storage.index`` and the
#: compiled pipeline's per-evaluation hash-join builds.
_KEY_INTERNER = _KeyInterner()


def intern_key(key: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Canonicalize a compound join/index key tuple (see :class:`_KeyInterner`)."""
    return _KEY_INTERNER.intern(key)


def key_interner_stats() -> dict:
    """Hit/miss/eviction counters of the shared key interner."""
    return _KEY_INTERNER.stats()


def nested_cardinalities(value: Any) -> Tuple[int, ...]:
    """Per-nesting-level maximum cardinalities of a value.

    For the nested bag ``{{a},{b},{c,d}}`` this returns ``(3, 2)``: the top
    bag has 3 elements and inner bags have at most 2 — the same shape as the
    cost value ``3{2}`` of the introduction.
    """
    if is_base_value(value) or (isinstance(value, tuple) and not value):
        return ()
    if isinstance(value, tuple):
        levels: Tuple[int, ...] = ()
        for component in value:
            levels = _merge_levels(levels, nested_cardinalities(component))
        return levels
    if isinstance(value, Bag):
        inner: Tuple[int, ...] = ()
        for element in value.elements():
            inner = _merge_levels(inner, nested_cardinalities(element))
        return (value.cardinality(),) + inner
    raise TypeError(f"not a nested value: {value!r}")


def _merge_levels(left: Tuple[int, ...], right: Tuple[int, ...]) -> Tuple[int, ...]:
    """Pointwise maximum of two per-level cardinality tuples."""
    length = max(len(left), len(right))
    merged = []
    for index in range(length):
        left_value = left[index] if index < len(left) else 0
        right_value = right[index] if index < len(right) else 0
        merged.append(max(left_value, right_value))
    return tuple(merged)


def iter_inner_bags(value: Any) -> Iterator[Bag]:
    """Yield every bag occurring strictly inside ``value`` (depth-first).

    The top-level value itself is not yielded when it is a bag; this mirrors
    the set of bags that the shredding transformation replaces with labels.
    """
    if is_base_value(value):
        return
    if isinstance(value, tuple):
        for component in value:
            if isinstance(component, Bag):
                yield component
                for element in component.elements():
                    yield from iter_inner_bags(element)
            else:
                yield from iter_inner_bags(component)
        return
    if isinstance(value, Bag):
        for element in value.elements():
            yield from iter_inner_bags(element)
        return
    raise TypeError(f"not a nested value: {value!r}")


def render_value(value: Any) -> str:
    """Render a nested value as the paper's brace/angle notation.

    Bags render as ``{a, b^2}`` (multiplicities shown when ≠ 1) and tuples as
    ``⟨x, y⟩``; the output is deterministic (elements sorted by rendering).
    """
    if is_base_value(value):
        return str(value)
    if isinstance(value, tuple):
        return "⟨" + ", ".join(render_value(component) for component in value) + "⟩"
    if isinstance(value, Bag):
        parts = []
        rendered = sorted(
            ((render_value(element), multiplicity) for element, multiplicity in value.items()),
            key=lambda item: item[0],
        )
        for text, multiplicity in rendered:
            if multiplicity == 1:
                parts.append(text)
            else:
                parts.append(f"{text}^{multiplicity}")
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"not a nested value: {value!r}")
