"""Label-dictionary values: the ``L ↦ Bag(B)`` maps of Section 5.2.

A dictionary associates labels with bag values.  Two flavours exist:

* :class:`MaterializedDict` — a finite mapping with an explicit support set.
  This is the representation the IVM engine materializes (after domain
  maintenance) and the representation of shredded *input* contexts.
* :class:`IntensionalDict` — the paper's ``[(ι, Π) ↦ e]``: an a-priori
  infinite-domain dictionary defined by a static index and a lookup closure.
  Looking up ``⟨ι', ε⟩`` evaluates the closure on ``ε`` when ``ι' == ι`` and
  returns the empty bag otherwise.

Two combination operators are provided, mirroring the paper exactly:

* **label union ``∪``** (:meth:`DictValue.label_union`) — supports merge;
  if a label is defined on both sides the definitions must agree, otherwise a
  :class:`~repro.errors.DictionaryConflictError` is raised.  Label union can
  never modify a definition.
* **bag addition ``⊎``** (:meth:`DictValue.add`) — pointwise union of the
  entry bags.  This is the only way to *change* a label's definition and is
  how deep updates are applied (Appendix C.2 contrasts the two).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.bag.bag import Bag, EMPTY_BAG
from repro.errors import DictionaryConflictError
from repro.labels import Label

__all__ = [
    "DictValue",
    "MaterializedDict",
    "IntensionalDict",
    "CombinedDict",
    "EMPTY_DICT",
]


class DictValue:
    """Abstract base class of dictionary values."""

    def lookup(self, label: Label) -> Bag:
        """Return the bag associated with ``label`` (empty if undefined)."""
        raise NotImplementedError

    def defines(self, label: Label) -> bool:
        """True iff ``label`` belongs to this dictionary's support."""
        raise NotImplementedError

    def support(self) -> Optional[FrozenSet[Label]]:
        """The (finite) support set, or ``None`` for intensional dictionaries."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Combination operators
    # ------------------------------------------------------------------ #
    def label_union(self, other: "DictValue") -> "DictValue":
        """Label union ``self ∪ other`` (definitions must agree on overlaps)."""
        if isinstance(self, MaterializedDict) and isinstance(other, MaterializedDict):
            return _materialized_label_union(self, other)
        return CombinedDict((self, other), mode="union")

    def add(self, other: "DictValue") -> "DictValue":
        """Pointwise bag addition ``self ⊎ other``."""
        if isinstance(self, MaterializedDict) and isinstance(other, MaterializedDict):
            return _materialized_add(self, other)
        return CombinedDict((self, other), mode="add")

    def materialize(self, labels: Iterable[Label]) -> "MaterializedDict":
        """Materialize the definitions of the given labels into a finite dict."""
        entries: Dict[Label, Bag] = {}
        for label in labels:
            entries[label] = self.lookup(label)
        return MaterializedDict(entries)


class MaterializedDict(DictValue):
    """A finite dictionary with explicit support.

    The support distinguishes an absent definition from a definition mapping
    its label to the empty bag (``supp([]) = ∅`` versus
    ``supp([l ↦ ∅]) = {l}``), exactly as required by Section 5.2.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Dict[Label, Bag]] = None) -> None:
        self._entries: Dict[Label, Bag] = dict(entries or {})

    @classmethod
    def _adopt(cls, entries: Dict[Label, Bag]) -> "MaterializedDict":
        """Internal: wrap ``entries`` without copying.

        The caller transfers ownership — it must copy-on-write before any
        further mutation of ``entries`` (see
        :class:`repro.storage.store.DictionaryStore`), exactly like
        ``Bag._from_clean_dict``.
        """
        dictionary = cls.__new__(cls)
        dictionary._entries = entries
        return dictionary

    # Queries ------------------------------------------------------------
    def lookup(self, label: Label) -> Bag:
        return self._entries.get(label, EMPTY_BAG)

    def defines(self, label: Label) -> bool:
        return label in self._entries

    def support(self) -> FrozenSet[Label]:
        return frozenset(self._entries)

    def items(self) -> Iterable[Tuple[Label, Bag]]:
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaterializedDict):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{label.render()} ↦ {bag!r}" for label, bag in sorted(
                self._entries.items(), key=lambda item: item[0].render()
            )
        )
        return "[" + parts + "]"

    # Functional updates -------------------------------------------------
    def with_entry(self, label: Label, bag: Bag) -> "MaterializedDict":
        """Return a copy with ``label`` (re)defined to ``bag``."""
        entries = dict(self._entries)
        entries[label] = bag
        return MaterializedDict(entries)

    def without_entry(self, label: Label) -> "MaterializedDict":
        """Return a copy with ``label`` removed from the support."""
        entries = dict(self._entries)
        entries.pop(label, None)
        return MaterializedDict(entries)


class IntensionalDict(DictValue):
    """The paper's ``[(ι, Π) ↦ e]`` with a lookup closure.

    ``body_lookup`` receives the tuple of label values (the ``ε`` packed in
    the label) and must return the bag that the defining expression evaluates
    to under that assignment.  The closure is constructed by the NRC
    evaluator so that this module stays independent of the AST.
    """

    __slots__ = ("iota", "_body_lookup")

    def __init__(self, iota: str, body_lookup: Callable[[Tuple], Bag]) -> None:
        self.iota = iota
        self._body_lookup = body_lookup

    def lookup(self, label: Label) -> Bag:
        if label.iota != self.iota:
            return EMPTY_BAG
        return self._body_lookup(label.values)

    def defines(self, label: Label) -> bool:
        return label.iota == self.iota

    def support(self) -> None:
        return None

    def __repr__(self) -> str:
        return f"[({self.iota}, Π) ↦ …]"


class CombinedDict(DictValue):
    """Lazy combination of dictionaries (label union or pointwise addition).

    Used whenever at least one operand is intensional, so that supports cannot
    be enumerated eagerly.  Conflict detection for label union happens at
    lookup time, exactly when the paper's semantics would flag the ``error``.
    """

    __slots__ = ("parts", "mode")

    def __init__(self, parts: Tuple[DictValue, ...], mode: str) -> None:
        if mode not in ("union", "add"):
            raise ValueError("mode must be 'union' or 'add'")
        self.parts = parts
        self.mode = mode

    def lookup(self, label: Label) -> Bag:
        if self.mode == "add":
            result = EMPTY_BAG
            for part in self.parts:
                result = result.union(part.lookup(label))
            return result
        defined = [part.lookup(label) for part in self.parts if part.defines(label)]
        if not defined:
            return EMPTY_BAG
        first = defined[0]
        for other in defined[1:]:
            if other != first:
                raise DictionaryConflictError(
                    f"label union: conflicting definitions for {label.render()}"
                )
        return first

    def defines(self, label: Label) -> bool:
        return any(part.defines(label) for part in self.parts)

    def support(self) -> Optional[FrozenSet[Label]]:
        supports = [part.support() for part in self.parts]
        if any(support is None for support in supports):
            return None
        result: FrozenSet[Label] = frozenset()
        for support in supports:
            result |= support  # type: ignore[operator]
        return result

    def __repr__(self) -> str:
        operator = " ∪ " if self.mode == "union" else " ⊎ "
        return "(" + operator.join(repr(part) for part in self.parts) + ")"


def _materialized_label_union(
    left: MaterializedDict, right: MaterializedDict
) -> MaterializedDict:
    """Eager label union of two finite dictionaries with conflict detection."""
    entries: Dict[Label, Bag] = dict(left.items())
    for label, bag in right.items():
        if label in entries:
            if entries[label] != bag:
                raise DictionaryConflictError(
                    f"label union: conflicting definitions for {label.render()}"
                )
        else:
            entries[label] = bag
    return MaterializedDict(entries)


def _materialized_add(left: MaterializedDict, right: MaterializedDict) -> MaterializedDict:
    """Eager pointwise bag addition of two finite dictionaries."""
    entries: Dict[Label, Bag] = left._entries.copy()
    for label, bag in right.items():
        existing = entries.get(label)
        entries[label] = bag if existing is None else existing.union(bag)
    return MaterializedDict._adopt(entries)


#: The empty dictionary ``[]`` (empty support).
EMPTY_DICT = MaterializedDict({})
