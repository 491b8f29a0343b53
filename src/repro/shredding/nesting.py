"""The nesting function ``u`` (Figure 9), compiled from a type and kept incremental.

Theorem 8 recovers a nested result from its shredded form: ``u`` replaces
every label of a flat value by the nesting of the bag its dictionary
defines.  A :class:`Nester` is that function for one element type:

* **compiled once from the type** into closures.  ``u`` is the identity on
  bag-free types, so those compile to nothing: a flat tuple of base values
  is returned as it came, a product rebuilds only its bag-carrying
  components, and an inner ``Bag(C)`` with bag-free ``C`` *is* the
  dictionary's own bag object (shared by reference, its cached hash
  reused) — the **sharing rule**.  Only inner bags whose elements carry
  bags themselves are rebuilt, once per label (``memo``).
* **maintained, not rebuilt.**  Besides the one from-scratch
  :meth:`nest_bag`, the nester keeps ``flat element → nested value``, the
  per-position memo ``label → nested bag`` and, recorded as values are
  nested, the *referrers* of every label (the flat elements, or parent
  labels, whose nesting used it).  Its owner reports what changed —
  :meth:`note_flat_delta` for ``Δh^F``, :meth:`note_dirty` for labels whose
  definitions were rewritten — and :meth:`settle` answers with the bag delta
  ``Σ m_new·u_new(e) − m_old·u_old(e)`` over
  ``support(Δh^F) ∪ referrers(dirty labels)``: ``O(|Δh^F| + Σ|referrers|)``,
  independent of the size of the view and of the untouched inner bags.

The two consumers are :class:`repro.ivm.nested.NestedIVMView` (settles at
``result()``) and :class:`repro.ivm.database.Database` (settles a nested
input relation when a deep update reaches it);
:func:`repro.shredding.shred_values.unshred_bag` is the one-shot form.

Dictionary positions are addressed by the paths of
:func:`repro.shredding.context.iter_context_dicts` (integers select tuple
components, ``"e"`` descends into a bag's elements), parents before
children.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.bag.bag import Bag, EMPTY_BAG
from repro.dictionaries import DictValue
from repro.errors import ShreddingError
from repro.instrument import OpCounter
from repro.labels import Label
from repro.nrc.types import BagType, BaseType, LabelType, ProductType, Type, UnitType
from repro.shredding.context import Context, iter_context_dicts

__all__ = ["COUNTERS", "Nester", "context_lookups"]

#: The work counters a nester reports (``Nester.counter`` / ``stats()``).
COUNTERS = ("full_builds", "flat_renested", "labels_renested", "memo_hits", "nest_elements")

Path = Tuple[Any, ...]
#: ``label → the flat bag its dictionary defines`` (``None``: undefined = ∅).
Lookup = Callable[[Label], Optional[Bag]]
#: ``(flat value, referrer to record) → nested value``; ``None`` is identity.
_Nest = Optional[Callable[[Any, Any], Any]]


def context_lookups(context: Context) -> Dict[Path, Lookup]:
    """The per-position lookups of a value context (symbolic slots omitted)."""
    return {
        path: dictionary.lookup
        for path, dictionary in iter_context_dicts(context)
        if isinstance(dictionary, DictValue)
    }


class _Position:
    """One dictionary position — a ``Bag(C)`` inside the element type."""

    __slots__ = ("path", "parent", "memo", "referrers", "dirty")

    def __init__(self, path: Path, parent: Optional["_Position"]) -> None:
        self.path = path
        #: The position whose inner bags contain this one's labels; ``None``
        #: when the labels sit in the flat elements themselves.
        self.parent = parent
        #: label → nested bag; ``None`` under the sharing rule (the nested
        #: bag is the dictionary's own object, nothing to remember).
        self.memo: Optional[Dict[Label, Bag]] = None
        #: label → the flat elements (root positions) or parent labels whose
        #: nesting used it.  May over-approximate; never misses a user.
        self.referrers: Dict[Label, Set[Any]] = {}
        #: Labels whose definitions changed since the last settle.
        self.dirty: Set[Label] = set()


class Nester:
    """``u`` for one element type, bound to live dictionaries.

    ``lookups`` maps a dictionary position's path to its lookup; a position
    without one raises :class:`~repro.errors.ShreddingError` if a label ever
    reaches it.  ``track=False`` compiles the one-shot form, which keeps no
    ``flat element → nested value`` map and records no referrers.
    """

    def __init__(
        self, element_type: Type, lookups: Mapping[Path, Lookup], track: bool = True
    ) -> None:
        #: Cumulative work (:data:`COUNTERS`).  ``nest_elements`` — values
        #: passed through a compiled closure — is the unit of nesting work;
        #: shared inner bags cost none.
        self.counter = OpCounter()
        self._track = track
        self._positions: List[_Position] = []
        self._nest = self._compile(element_type, (), None, lookups)
        self._by_path = {position.path: position for position in self._positions}
        self._roots = [position for position in self._positions if position.parent is None]
        self._elements: Dict[Any, Any] = {}
        #: Whether :meth:`nest_bag` has run: deltas are relative to its bag.
        self.built = False
        #: Accumulated ``Δh^F`` since the last settle (net, zeros dropped).
        self._pending: Dict[Any, int] = {}
        #: Flat elements owed a re-nesting by labels evicted since the last
        #: settle.
        self._affected: Set[Any] = set()

    @property
    def identity(self) -> bool:
        """True when the element type is bag-free: ``u`` changes nothing."""
        return self._nest is None

    # ------------------------------------------------------------------ #
    # Compilation: one closure per type node that has work to do
    # ------------------------------------------------------------------ #
    def _compile(
        self,
        type_: Type,
        path: Path,
        parent: Optional[_Position],
        lookups: Mapping[Path, Lookup],
    ) -> _Nest:
        if isinstance(type_, (BaseType, LabelType)):
            return None
        if isinstance(type_, UnitType):
            return lambda flat, owner: ()
        if isinstance(type_, ProductType):
            parts = [
                (index, nest)
                for index, component in enumerate(type_.components)
                if (nest := self._compile(component, path + (index,), parent, lookups))
                is not None
            ]
            if not parts:
                return None
            arity, rendered = type_.arity, type_.render()

            def nest_product(flat: Any, owner: Any) -> Any:
                if not isinstance(flat, tuple) or len(flat) != arity:
                    raise ShreddingError(f"flat value {flat!r} does not match type {rendered}")
                values = list(flat)
                for index, nest in parts:
                    values[index] = nest(flat[index], owner)
                return tuple(values)

            return nest_product
        if isinstance(type_, BagType):
            return self._compile_bag(type_, path, parent, lookups)
        raise ShreddingError(f"cannot unshred values of type {type_.render()}")

    def _compile_bag(
        self,
        type_: BagType,
        path: Path,
        parent: Optional[_Position],
        lookups: Mapping[Path, Lookup],
    ) -> _Nest:
        position = _Position(path, parent)
        self._positions.append(position)  # before its children: pre-order
        nest_element = self._compile(type_.element, path + ("e",), position, lookups)
        rendered = type_.render()
        lookup = lookups.get(path)
        if lookup is None:

            def lookup(label: Label) -> Optional[Bag]:
                raise ShreddingError(
                    f"unshredding requires an evaluated dictionary at context path "
                    f"{path!r} (type {rendered})"
                )

        track, referrers = self._track, position.referrers

        def refer(flat: Any, owner: Any) -> None:
            if not isinstance(flat, Label):
                raise ShreddingError(f"flat value {flat!r} should be a label for type {rendered}")
            if track:
                users = referrers.get(flat)
                if users is None:
                    referrers[flat] = {owner}
                else:
                    users.add(owner)

        if nest_element is None:

            def nest_shared(flat: Any, owner: Any) -> Bag:
                refer(flat, owner)
                contents = lookup(flat)
                return EMPTY_BAG if contents is None else contents

            return nest_shared

        memo = position.memo = {}
        counter = self.counter

        def nest_memoized(flat: Any, owner: Any) -> Bag:
            refer(flat, owner)
            nested = memo.get(flat)
            if nested is not None:
                counter.increment("memo_hits")
                return nested
            counter.increment("labels_renested")
            contents = lookup(flat)
            data: Dict[Any, int] = {}
            if contents is not None:
                for element, multiplicity in contents.items():
                    _add(data, nest_element(element, flat), multiplicity)
                counter.increment("nest_elements", len(contents))
            nested = memo[flat] = Bag._from_clean_dict(data) if data else EMPTY_BAG
            return nested

        return nest_memoized

    # ------------------------------------------------------------------ #
    # From scratch
    # ------------------------------------------------------------------ #
    def nest_value(self, flat: Any) -> Any:
        """``u`` of one flat value.  Meant for the one-shot form: a tracking
        nester would record ``flat`` as a referrer of its labels without
        taking it into the element map."""
        nest = self._nest
        return flat if nest is None else nest(flat, flat)

    def nest_bag(self, flat_bag: Bag) -> Bag:
        """``u`` of a whole flat bag — the from-scratch build.

        A tracking nester remembers every element it nests here, so it is
        called once, on the bag the later deltas are relative to.
        """
        self.built = True
        nest = self._nest
        if nest is None:
            return flat_bag
        self.counter.increment("full_builds")
        elements = self._elements if self._track else None
        data: Dict[Any, int] = {}
        for element, multiplicity in flat_bag.items():
            value = nest(element, element)
            if elements is not None:
                elements[element] = value
            _add(data, value, multiplicity)
        self.counter.increment("nest_elements", len(flat_bag))
        return Bag._from_clean_dict(data) if data else EMPTY_BAG

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def note_flat_delta(self, delta: Bag) -> None:
        """Record a change ``Δh^F`` of the flat bag (already applied to it)."""
        if self._nest is None:
            return
        pending = self._pending
        for element, multiplicity in delta.items():
            _add(pending, element, multiplicity)

    def note_dirty(self, path: Path, labels: Iterable[Label]) -> None:
        """Record that the definitions of ``labels`` at ``path`` changed."""
        position = self._by_path.get(path)
        if position is not None:
            position.dirty.update(labels)

    def evict(self, path: Path, labels: Iterable[Label]) -> None:
        """Forget labels whose definitions were retired: no element reaches
        them any more.  Their users are re-nested at the next settle, exactly
        as for a rewritten label — a flat tuple deleted and re-inserted
        before that settle cancels out of the pending delta, and must not
        keep the nesting of the label's old definition."""
        position = self._by_path.get(path)
        if position is not None:
            for label in labels:
                self._release(position, label, self._affected)

    def _release(self, position: _Position, label: Label, affected: Set[Any]) -> None:
        """Drop one label's memo and referrers, handing the dirt to its users:
        flat elements into ``affected``, memoised parent labels into the
        parent's dirty set."""
        if position.memo is not None:
            position.memo.pop(label, None)
        # Popped, not read: the re-nesting at settle records the users that
        # still exist, so stale ones do not accumulate.
        users = position.referrers.pop(label, None)
        if not users:
            return
        parent = position.parent
        if parent is None:
            affected.update(users)
        else:
            # Only a memoised parent bag embeds this label's nesting.
            parent.dirty.update(user for user in users if user in parent.memo)

    def settle(self, multiplicity: Callable[[Any], int]) -> Bag:
        """The nested delta owed since the last settle (or the build).

        ``multiplicity`` answers for the flat bag *as it is now*.  Dirty
        labels lose their memo and hand the dirt to their referrers, inner
        positions first; the elements reached that way, plus the support of
        the recorded flat deltas, are the only ones re-nested.
        """
        affected, self._affected = self._affected, set()
        for position in reversed(self._positions):
            dirty, position.dirty = position.dirty, set()
            for label in dirty:
                self._release(position, label, affected)
        pending, self._pending = self._pending, {}
        if not affected and not pending:
            return EMPTY_BAG

        nest, elements = self._nest, self._elements
        data: Dict[Any, int] = {}
        renested = 0
        for element in affected.union(pending):
            new = multiplicity(element)
            old = new - pending.get(element, 0)
            value = None
            if old:
                value = elements[element]
                _add(data, value, -old)
            if new:
                if value is None or element in affected:
                    value = elements[element] = nest(element, element)
                    renested += 1
                _add(data, value, new)
            elif old:
                del elements[element]
                self._forget(element)
        self.counter.increment("flat_renested", renested)
        self.counter.increment("nest_elements", renested)
        return Bag._from_clean_dict(data) if data else EMPTY_BAG

    def _forget(self, element: Any) -> None:
        """Drop a vanished flat element from the referrers of its labels."""
        for position in self._roots:
            label = element
            for index in position.path:
                label = label[index]
            users = position.referrers.get(label)
            if users is not None:
                users.discard(element)
                if not users:
                    del position.referrers[label]

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Cumulative work counters plus ``memo_labels``, a level: the labels
        the nester holds state for, bounded by the dictionaries' live labels."""
        stats = {name: self.counter.get(name) for name in COUNTERS}
        stats["memo_labels"] = sum(len(position.referrers) for position in self._positions)
        return stats


def _add(data: Dict[Any, int], element: Any, multiplicity: int) -> None:
    """``data[element] += multiplicity``, dropping the entry at zero.

    Nested values hash through their inner bags, so the common case — an
    element not seen yet — is kept to one hashing (``setdefault``).
    """
    size = len(data)
    present = data.setdefault(element, multiplicity)
    if len(data) == size:
        if present + multiplicity:
            data[element] = present + multiplicity
        else:
            del data[element]
