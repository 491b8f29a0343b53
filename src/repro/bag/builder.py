"""Transient bag builders: O(|Δ|) mutation under immutable-bag semantics.

:class:`~repro.bag.bag.Bag` is immutable, which is what makes snapshots,
nesting and hashing safe — but it also means that the *update path* of the
maintenance engines used to rebuild a full multiplicity dict on every
``result ⊎ Δresult`` and every store refresh, so a one-tuple update to a
million-tuple relation still paid ``O(|DB|)``.  A :class:`BagBuilder` is the
transient (in the Clojure sense) that closes that gap:

* it owns one mutable ``element → multiplicity`` dict and folds deltas into
  it **in place** (:meth:`apply_pairs` / :meth:`apply_bag` / :meth:`add`),
  dropping cancelled entries as it goes — ``O(|Δ|)`` per application; a
  compiled query folds its output pairs into the same dict directly
  (:meth:`writable`, used by ``CompiledQuery.evaluate(into=...)``), so a
  view's delta is hashed and stored once, with no intermediate bag;
* :meth:`freeze` hands out an immutable :class:`Bag` **without copying**
  (the bag adopts the builder's dict via ``Bag._from_clean_dict``), so
  taking a snapshot is ``O(1)``;
* the first mutation *after* a freeze is copy-on-write: if the frozen
  snapshot is still referenced anywhere else, the builder copies the dict
  once so the snapshot stays immutable; if the snapshot has already been
  dropped (the overwhelmingly common case — per-update evaluation
  environments die before the store mutates), the builder detects it via
  the reference count and keeps mutating in place, preserving ``O(|Δ|)``.

On interpreters without ``sys.getrefcount`` the builder conservatively
copies after every freeze — still correct, just without the in-place
optimization.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from repro.bag.bag import Bag, EMPTY_BAG

__all__ = ["BagBuilder"]

#: ``sys.getrefcount`` where available (CPython); ``None`` elsewhere, in
#: which case copy-on-write always copies (correct, conservatively slower).
_getrefcount = getattr(sys, "getrefcount", None)


class BagBuilder:
    """A mutable bag accumulator with O(1) freezing and copy-on-write.

    The builder is the single mutation primitive of the update path: relation
    stores, view-result accumulators and the shredded flat mirror all own one
    and fold deltas into it.  ``freeze()`` returns the canonical immutable
    snapshot; the snapshot and the builder share the dict until the next
    mutation, which copies only if the snapshot is still alive elsewhere.

    ``freezes`` counts how many distinct snapshots were actually
    materialized (surfaced by ``storage_report()``) — a builder that is never
    read between updates freezes nothing and mutates in place forever.
    """

    __slots__ = ("_data", "_frozen", "freezes")

    def __init__(self, pairs: Optional[Iterable[Tuple[Any, int]]] = None) -> None:
        self._data: Dict[Any, int] = {}
        self._frozen: Optional[Bag] = None
        self.freezes = 0
        if pairs is not None:
            self.apply_pairs(pairs)

    @classmethod
    def from_bag(cls, bag: Bag) -> "BagBuilder":
        """Adopt ``bag`` as the initial contents without copying.

        The builder starts in the frozen-shared state: the first mutation
        copies the dict iff ``bag`` is still referenced by the caller (it
        usually is at first, and usually is not by the next update).
        """
        builder = cls()
        builder.adopt_bag(bag)
        return builder

    # ------------------------------------------------------------------ #
    # Copy-on-write plumbing
    # ------------------------------------------------------------------ #
    def writable(self) -> Dict[Any, int]:
        """The mutable dict, un-sharing from a live frozen snapshot first.

        Every mutation goes through here, and so may a producer that folds
        ``(element, multiplicity)`` pairs straight into the builder (a
        compiled query's ``evaluate(into=...)``): it adds each multiplicity
        to the entry in place and pops an entry that reaches zero, so the
        dict never holds a zero.  The dict is the builder's live state —
        use it for one fold, do not keep it."""
        frozen = self._frozen
        if frozen is not None:
            self._frozen = None
            # After clearing the attribute the only references left *here*
            # are the local and getrefcount's argument (2).  Anything above
            # that means the snapshot escaped — give it its own copy.  The
            # dict itself is checked too: an iterator or view obtained from
            # the snapshot (``bag.elements()``, ``bag.items()``) keeps the
            # *dict* alive without keeping the Bag alive, and mutating under
            # it would raise mid-iteration (its references: our ``_data``
            # attribute, the snapshot's, and getrefcount's argument = 3).
            if (
                _getrefcount is None
                or _getrefcount(frozen) > 2
                or _getrefcount(self._data) > 3
            ):
                self._data = dict(self._data)
        return self._data

    # ------------------------------------------------------------------ #
    # Mutation (all O(|Δ|))
    # ------------------------------------------------------------------ #
    def add(self, element: Any, multiplicity: int = 1) -> None:
        """Fold one ``(element, multiplicity)`` entry in."""
        if not isinstance(multiplicity, int):
            raise TypeError(
                f"multiplicity must be an int, got {type(multiplicity).__name__}"
            )
        if multiplicity == 0:
            return
        data = self.writable()
        updated = data.get(element, 0) + multiplicity
        if updated == 0:
            data.pop(element, None)
        else:
            data[element] = updated

    def apply_pairs(self, pairs: Iterable[Tuple[Any, int]]) -> None:
        """Fold ``(element, multiplicity)`` pairs in — one pass, no copies."""
        data = self.writable()
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

    def apply_bag(self, delta: Bag, scale: int = 1) -> None:
        """Fold a delta bag in (``self ⊎ scale·delta``) — walks only ``delta``."""
        if not isinstance(delta, Bag):
            raise TypeError(f"expected a Bag delta, got {type(delta).__name__}")
        if not isinstance(scale, int):
            raise TypeError("scale factor must be an int")
        if scale == 0 or not delta._data:
            return
        data = self.writable()
        if scale == 1:
            for element, multiplicity in delta._data.items():
                updated = data.get(element, 0) + multiplicity
                if updated == 0:
                    data.pop(element, None)
                else:
                    data[element] = updated
        else:
            for element, multiplicity in delta._data.items():
                updated = data.get(element, 0) + multiplicity * scale
                if updated == 0:
                    data.pop(element, None)
                else:
                    data[element] = updated

    def clear(self) -> None:
        """Reset to the empty bag."""
        self._data = {}
        self._frozen = None

    def adopt_bag(self, bag: Bag) -> None:
        """Become ``bag``'s contents in O(1), frozen-shared with it.

        The builder takes ``bag``'s dict and ``bag`` as its live snapshot,
        so the first mutation copies iff ``bag`` is still referenced.
        The cumulative ``freezes`` counter survives.
        """
        if not isinstance(bag, Bag):
            raise TypeError(f"expected a Bag, got {type(bag).__name__}")
        self._data = bag._data
        self._frozen = bag

    def compact(self) -> None:
        """Rewrite the dict without the holes that deletions left in it.

        A dict keeps a deleted entry's slot until its next resize and
        iteration steps over every one, so a bag that churns in place pages
        slower than a freshly built one.  ``O(n)`` (one dict copy), for the
        caller to amortise against the churn; a retained snapshot keeps the
        old dict.
        """
        self._data = dict(self._data)
        self._frozen = None

    # ------------------------------------------------------------------ #
    # Pickling (checkpoints)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, Any]:
        return {"data": self._data, "freezes": self.freezes}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._data = state["data"]
        self._frozen = None
        self.freezes = state["freezes"]

    # ------------------------------------------------------------------ #
    # Freezing
    # ------------------------------------------------------------------ #
    def freeze(self) -> Bag:
        """The canonical immutable snapshot of the current contents.

        O(1): the returned bag adopts the builder's dict.  Repeated calls
        without intervening mutation return the *same* object, so identity
        checks over snapshots (e.g. the storage layer's index provider)
        remain meaningful.
        """
        frozen = self._frozen
        if frozen is None:
            data = self._data
            frozen = EMPTY_BAG if not data else Bag._from_clean_dict(data)
            self._frozen = frozen
            self.freezes += 1
        return frozen

    @property
    def frozen(self) -> Optional[Bag]:
        """The live snapshot, or ``None`` if the builder mutated since."""
        return self._frozen

    # ------------------------------------------------------------------ #
    # Read-only queries (never freeze)
    # ------------------------------------------------------------------ #
    def multiplicity(self, element: Any) -> int:
        return self._data.get(element, 0)

    def __contains__(self, element: Any) -> bool:
        return element in self._data

    def __len__(self) -> int:
        return len(self._data)

    def is_empty(self) -> bool:
        return not self._data

    def elements(self) -> Iterator[Any]:
        """Distinct elements, negative multiplicities included — the same
        contract as :meth:`Bag.elements` (``Bag.expand`` is the
        positive-repetition iterator; the builder has no counterpart)."""
        return iter(self._data)

    def items(self) -> Iterator[Tuple[Any, int]]:
        """``(element, multiplicity)`` pairs, matching :meth:`Bag.items`."""
        return iter(self._data.items())

    def distinct_size(self) -> int:
        return len(self._data)

    def cardinality(self) -> int:
        """Sum of absolute multiplicities (matches :meth:`Bag.cardinality`)."""
        return sum(abs(m) for m in self._data.values())

    def __repr__(self) -> str:
        state = "frozen-shared" if self._frozen is not None else "transient"
        return f"BagBuilder({len(self._data)} distinct, {state}, freezes={self.freezes})"
