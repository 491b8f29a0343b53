"""Shredding and nesting of *values* (Figure 9: ``s^F``, ``s^Γ`` and ``u``).

Shredding a nested bag ``R : Bag(A)`` produces

* a flat bag ``R^F : Bag(A^F)`` in which every inner bag is replaced by a
  label, and
* a value context ``R^Γ : A^Γ`` whose dictionaries map each label to the flat
  representation of the bag it stands for.

Unshredding (:func:`unshred_bag`) is the nesting function ``u``; Lemma 6
states it is a left inverse of shredding, which the test-suite checks both on
hand-written values and property-based random nested data.  ``u`` itself
lives in :mod:`repro.shredding.nesting`; the functions here are its one-shot
form.

Labels are memoized per dictionary position and distinct inner-bag value, so
equal inner bags at one position share a label (the ``D_C`` mapping of the
paper assigns one label per bag value) and every dictionary defines all the
labels its position uses.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.bag.bag import Bag, EMPTY_BAG
from repro.errors import ShreddingError
from repro.nrc.types import BagType, BaseType, LabelType, ProductType, Type, UnitType
from repro.shredding.context import (
    BagContext,
    Context,
    EMPTY_CONTEXT,
    TupleContext,
    UNIT_CONTEXT,
    merge_contexts,
)
from repro.dictionaries import DictValue, MaterializedDict
from repro.labels import Label, LabelFactory
from repro.shredding.nesting import Nester, context_lookups

__all__ = ["ValueShredder", "shred_bag", "unshred_bag", "unshred_value"]

Path = Tuple[Any, ...]
#: A dictionary position: ``(hint, path)`` — the relation and where in its
#: element type the bag sits.
Position = Tuple[str, Path]


class ValueShredder:
    """Stateful shredder for input values.

    A single shredder instance should be used per database so that labels stay
    unique across relations and across successive updates (the consistency
    requirements of Definition 2).  Inner bags are memoized by value within a
    dictionary position — ``(hint, path)``, the relation and the path of
    :func:`~repro.shredding.context.iter_context_dicts`: the same bag value
    there always receives the same label, and once a label's definition has
    been emitted it is not emitted again (so shredding an update never
    re-defines existing labels).  Positions do not share labels: a dictionary
    defines every label its position uses, and a deep update to one
    dictionary reaches nothing outside it.  A label whose definition a deep
    update changes is retired from the memo (:meth:`retire`).
    """

    def __init__(self, factory: Optional[LabelFactory] = None) -> None:
        self._factory = factory or LabelFactory()
        # (position, flat contents) → label.
        self._labels_by_contents: Optional[Dict[Tuple[Position, Bag], Label]] = {}
        self._emitted: set = set()

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # A checkpoint written before the memo was keyed by position and flat
        # contents carries ``_labels_by_value`` (nested value → label), which
        # no lookup here would hit; it is dropped and the owner re-keys the
        # memo from its dictionaries (:meth:`rekey`).
        if state.pop("_labels_by_value", None) is not None:
            state["_labels_by_contents"] = None
        self.__dict__.update(state)

    @property
    def needs_rekey(self) -> bool:
        """True for a shredder restored from a pre-position checkpoint."""
        return self._labels_by_contents is None

    def rekey(self, definitions: Iterable[Tuple[Position, Label, Bag]]) -> None:
        """Rebuild the memo from stored ``(position, label, flat contents)``
        definitions; of two labels defining equal contents the first wins."""
        memo: Dict[Tuple[Position, Bag], Label] = {}
        for position, label, contents in definitions:
            memo.setdefault((position, contents), label)
        self._labels_by_contents = memo

    # ------------------------------------------------------------------ #
    def shred_bag(
        self, bag: Bag, element_type: Type, hint: str = "", path: Path = ()
    ) -> Tuple[Bag, Context]:
        """Shred a top-level bag: flat bag of shredded elements + merged context.

        ``path`` locates ``element_type`` inside the relation's element type
        (``()`` for the relation itself).
        """
        flat_pairs = []
        context: Context = EMPTY_CONTEXT
        for element, multiplicity in bag.items():
            flat_element, element_context = self.shred_value(element, element_type, hint, path)
            flat_pairs.append((flat_element, multiplicity))
            context = merge_contexts(context, element_context, self._union_dicts)
        if isinstance(context, type(EMPTY_CONTEXT)):
            from repro.shredding.context import empty_context_for_type

            context = empty_context_for_type(element_type, symbolic=False)
        return Bag.from_pairs(flat_pairs), context

    def shred_value(
        self, value: Any, type_: Type, hint: str = "", path: Path = ()
    ) -> Tuple[Any, Context]:
        """Shred a single value of the given type."""
        if isinstance(type_, (BaseType, LabelType)):
            return value, UNIT_CONTEXT
        if isinstance(type_, UnitType):
            return (), UNIT_CONTEXT
        if isinstance(type_, ProductType):
            if not isinstance(value, tuple) or len(value) != type_.arity:
                raise ShreddingError(f"value {value!r} does not match type {type_.render()}")
            flats = []
            contexts = []
            for index, (component, component_type) in enumerate(zip(value, type_.components)):
                flat, context = self.shred_value(component, component_type, hint, path + (index,))
                flats.append(flat)
                contexts.append(context)
            return tuple(flats), TupleContext(tuple(contexts))
        if isinstance(type_, BagType):
            if not isinstance(value, Bag):
                raise ShreddingError(f"value {value!r} is not a bag (type {type_.render()})")
            return self._shred_inner_bag(value, type_, hint, path)
        raise ShreddingError(f"cannot shred values of type {type_.render()}")

    # ------------------------------------------------------------------ #
    def _shred_inner_bag(
        self, value: Bag, type_: BagType, hint: str, path: Path
    ) -> Tuple[Label, Context]:
        contents, element_context = self.shred_bag(value, type_.element, hint, path + ("e",))
        # Memoized by the *flat* contents: equal inner bags shred to equal
        # contents (their own inner bags share labels by induction), and the
        # key stays truthful under deep updates — see :meth:`retire`.
        key = ((hint, path), contents)
        label = self._labels_by_contents.get(key)
        if label is None:
            label = self._factory.fresh(hint)
            self._labels_by_contents[key] = label
        if label not in self._emitted:
            dictionary = MaterializedDict({label: contents})
            self._emitted.add(label)
        else:
            # The definition already exists in a previous shredding pass (for
            # example when shredding an update that deletes an existing tuple);
            # do not re-emit it — label union would otherwise see a duplicate.
            dictionary = MaterializedDict({})
        return label, BagContext(dictionary, element_context)

    def retire(self, position: Position, label: Label, contents: Bag) -> None:
        """Stop handing out ``label`` for ``contents``, its definition so far.

        Called when a deep update is about to change the definition: a later
        tuple carrying the *old* inner bag must not be given a label that now
        stands for a different one.
        """
        if self._labels_by_contents.get((position, contents)) is label:
            del self._labels_by_contents[(position, contents)]

    @staticmethod
    def _union_dicts(left: Any, right: Any) -> DictValue:
        if not isinstance(left, DictValue) or not isinstance(right, DictValue):
            raise ShreddingError("value contexts must contain dictionary values")
        return left.label_union(right)


def shred_bag(
    bag: Bag, element_type: Type, factory: Optional[LabelFactory] = None
) -> Tuple[Bag, Context]:
    """One-shot convenience wrapper around :class:`ValueShredder`."""
    return ValueShredder(factory).shred_bag(bag, element_type)


# --------------------------------------------------------------------------- #
# Nesting (the function ``u`` of Figure 9), one-shot
# --------------------------------------------------------------------------- #
def unshred_value(flat: Any, type_: Type, context: Context) -> Any:
    """Rebuild the nested value represented by ``flat`` under ``context``."""
    return Nester(type_, context_lookups(context), track=False).nest_value(flat)


def unshred_bag(flat_bag: Bag, element_type: Type, context: Union[Context, Nester]) -> Bag:
    """Rebuild a nested bag from its flat representation and value context.

    A caller that goes on maintaining the result passes its own
    :class:`~repro.shredding.nesting.Nester` in place of the context; the
    build then leaves behind the memo its later deltas need.
    """
    if not isinstance(context, Nester):
        if flat_bag.is_empty():
            return EMPTY_BAG
        context = Nester(element_type, context_lookups(context), track=False)
    return context.nest_bag(flat_bag)
