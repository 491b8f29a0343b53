"""Nested IVM through shredding — the paper's solution for full NRC+.

A query that adds nesting (an ``sng(e)`` whose body touches the database)
cannot be maintained by delta rules alone: its delta would need *deep
updates*.  Section 5 solves this by shredding the query into a flat part
``h^F`` and a context ``h^Γ`` of label dictionaries, both of which are
efficiently incrementalizable (Theorem 5).  This module is the runtime for
that strategy, mirroring the maintenance plan worked out for the ``related``
query in Section 2.2:

* the flat view is maintained with the delta of ``h^F``;
* every dictionary of ``h^Γ`` is materialized *for the labels that actually
  occur* (domain maintenance) and refreshed per update by

  - adding ``δ(h^Γ)(ℓ)`` to every live definition, and
  - initializing definitions for labels newly introduced by ``δ(h^F)`` as
    ``h^Γ(ℓ) ⊎ δ(h^Γ)(ℓ)``, both over the pre-update state;

* each intensional dictionary ``[(ι, Π) ↦ e]`` is refreshed as **one flat
  query**, not one lookup per label (Cheney, Lindley and Wadler build
  shredded dictionaries the same way): the view keeps the value tuples
  ``ε`` of the position's live labels as an *active-label relation* with
  persistent indexes, and ``⊎_{ε ∈ Active} {(ε, x) | x ∈ δ(e)(ε)}`` is
  compiled once.  Its delta-first plan walks ``ΔR`` and probes the
  relation's index on the guard's equality atoms — a disjunctive guard such
  as ``related``'s genre-or-director one probes once per disjunct — so the
  labels the probes find *are* the delta's footprint.  The output is
  grouped by ``ε`` and folded in with one ``⊎`` per touched label; new
  labels run the same query over ``e`` with the relation bound to them;

* the nested result ``u(h^F, h^Γ)`` (Theorem 8 guarantees it equals direct
  re-evaluation) is *maintained* as well: the first ``result()`` nests the
  whole flat view once, every later one folds in only the delta the
  :class:`~repro.shredding.nesting.Nester` owes for the flat tuples and
  labels the updates in between touched.

Deep updates to inner bags of the *input* arrive as dictionary deltas and
flow through the same delta machinery — no recomputation of unrelated inner
bags ever happens.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bag.bag import Bag, EMPTY_BAG
from repro.delta.rules import delta
from repro.dictionaries import MaterializedDict
from repro.errors import ShreddingError
from repro.instrument import OpCounter, maybe_count
from repro.ivm.database import Database, ShreddedDelta
from repro.ivm.updates import Update
from repro.ivm.views import View
from repro.labels import Label
from repro.nrc import ast
from repro.nrc import predicates as preds
from repro.nrc.analysis import referenced_deltas, referenced_sources
from repro.nrc.ast import Expr
from repro.nrc.compile import CompiledQuery, run_bag, try_compile
from repro.nrc.evaluator import Environment
from repro.nrc.traverse import _rebuild_with_children, iter_subexpressions
from repro.nrc.types import UNIT, BagType, ProductType
from repro.shredding.context import iter_context_dicts
from repro.shredding.nesting import Nester
from repro.shredding.shred_query import ShreddedQuery, shred_query
from repro.shredding.shred_values import unshred_bag
from repro.storage import RelationStore, ResultStore, StorageManager

__all__ = ["NestedIVMView"]


@dataclass
class _Part:
    """One intensional term ``[(ι, Π) ↦ body]`` of a position's dictionary.

    Both of its queries are flat ``(ε, element)`` pair queries over the
    active-label relation ``relation``, whose elements are the value tuples
    ``ε`` of the position's live labels with this ``iota``: ``delta_query``
    pairs every live label with ``δ(body)(ε)``, ``init_query`` every label of
    the bag bound to ``relation`` with ``body(ε)``.  ``store`` holds the
    relation and the persistent indexes ``delta_query``'s joins probe.
    """

    iota: str
    arity: int
    relation: str
    #: The pair queries' loop variable over ``relation`` (their pairs' key).
    tag: str
    store: RelationStore
    init_query: Expr
    delta_query: Optional[Expr]
    init_compiled: Optional[CompiledQuery] = None
    delta_compiled: Optional[CompiledQuery] = None
    #: ε → the live label ⟨ι, ε⟩: the pair queries' output names its labels
    #: by value tuple, and the entries are keyed by these very objects.
    labels: Dict[Tuple[Any, ...], Label] = field(default_factory=dict)

    def defines(self, label: Label) -> bool:
        return label.iota == self.iota and len(label.values) == self.arity

    def grouped(self, pairs: Bag) -> List[Tuple[Label, Bag]]:
        """``(ε, x)`` pairs as one bag per live label ``⟨ι, ε⟩``.

        Grouped by the value tuple, so no label is built or hashed per pair.
        """
        groups: Dict[Tuple[Any, ...], Dict[Any, int]] = {}
        for (values, element), multiplicity in pairs.items():
            group = groups.get(values)
            if group is None:
                groups[values] = {element: multiplicity}
            else:
                group[element] = multiplicity
        labels = self.labels
        return [(labels[values], Bag._from_clean_dict(group)) for values, group in groups.items()]


@dataclass
class _DictState:
    """Maintenance state of one dictionary position of the output context.

    ``entries`` is the mutable label → bag map owned by this state: per
    update only the touched labels are rewritten in place (no full-map
    rebuild on the update path).  The view's nester reads it live;
    :meth:`NestedIVMView.dictionary` hands out copies for introspection.

    ``active`` is the incrementally maintained **active-label index**: for
    every label that must be defined at this position, the number of
    places referencing it.  Root positions count the distinct flat-view
    elements carrying the label, nested positions the distinct
    ``(parent label, element)`` pairs of their parent's entries — per entry,
    so a label one entry holds with multiplicity -1 and another with +1 is
    referenced twice, not cancelled out.  Both are refreshed from the
    update's presence transitions — O(|Δ|) per update — and a label whose
    count drops to 0 leaves ``entries`` at this position's next turn, so
    ``entries`` holds exactly the live labels after every update.

    The dictionary expression is a label union of intensional terms
    (``parts``, by ``ι``) and stored input dictionaries (``inputs``, by
    name); a label is defined by the part of its ``ι`` or by the input
    dictionaries that hold it.
    """

    path: Tuple[Any, ...]
    expression: Expr
    parts: Dict[str, _Part] = field(default_factory=dict)
    inputs: Tuple[str, ...] = ()
    entries: Dict[Label, Bag] = field(default_factory=dict)
    #: label → number of places referencing it (> 0).
    active: Dict[Label, int] = field(default_factory=dict)
    #: Labels whose count crossed 0 → 1 since this position's last refresh
    #: (in order, possibly repeated): the only candidates for initialization.
    activated: List[Label] = field(default_factory=list)
    #: Labels whose count dropped to 0 since this position's last refresh:
    #: the only candidates for retirement.
    deactivated: List[Label] = field(default_factory=list)
    #: Projection from a referencing element to this position's label.
    tuple_path: Tuple[Any, ...] = ()
    #: The parent dictionary state for nested positions (``None`` at roots).
    parent: Optional["_DictState"] = None
    #: States whose labels are drawn from this state's entries.
    children: List["_DictState"] = field(default_factory=list)


class _Indexes:
    """The index provider of the pair queries: the view's active-label
    stores by name, the database's flat stores otherwise."""

    __slots__ = ("_active", "_names", "_flat")

    def __init__(self, active: StorageManager, flat) -> None:
        self._active = active.provider()
        self._names = frozenset(active.names())
        self._flat = flat

    def _provider(self, name: str):
        return self._active if name in self._names else self._flat

    def probe(self, name, paths, source_bag):
        return self._provider(name).probe(name, paths, source_bag)

    def note_rebuild(self, name, paths) -> None:
        self._provider(name).note_rebuild(name, paths)


class NestedIVMView(View):
    """Materialized view over a full NRC+ query, maintained in shredded form."""

    def __init__(
        self,
        query: Expr,
        database: Database,
        register: bool = True,
    ) -> None:
        super().__init__()
        self._query = query
        self._database = database
        self._shredded: ShreddedQuery = shred_query(query)
        if self._shredded.output_type is None:
            raise ShreddingError("cannot maintain a query with unknown output type")

        self._dict_states: List[_DictState] = []
        sources: Set[str] = set(referenced_sources(self._shredded.flat))
        for path, expression in iter_context_dicts(self._shredded.context):
            sources |= set(referenced_sources(expression))
        self._targets = tuple(sorted(sources))

        self._flat_delta = delta(self._shredded.flat, self._targets)
        self._compiled_flat = try_compile(self._shredded.flat)
        self._compiled_flat_delta = try_compile(self._flat_delta)
        #: The active-label relations of every intensional part, and their
        #: persistent indexes.
        self._active_storage = StorageManager(kind="active")
        self._delta_sources = set(referenced_deltas(self._flat_delta))
        for path, expression in iter_context_dicts(self._shredded.context):
            state = _DictState(path=path, expression=expression)
            self._delta_sources |= referenced_deltas(delta(expression, self._targets))
            self._add_terms(state, expression, sources)
            self._dict_states.append(state)
        parts = [part for state in self._dict_states for part in state.parts.values()]
        self._execution_mode = (
            "compiled"
            if self._compiled_flat_delta is not None
            and all(
                part.init_compiled is not None
                and (part.delta_query is None or part.delta_compiled is not None)
                for part in parts
            )
            else "interpreted"
        )
        # The shredded pipelines join over the *flat* relations, whose join
        # atoms register against the flat storage manager; the pair queries'
        # joins over active-label relations against the view's own stores.
        requirements = self._collect_index_requirements(
            self._compiled_flat,
            self._compiled_flat_delta,
            *(part.init_compiled for part in parts),
            *(part.delta_compiled for part in parts),
        )
        active_names = set(self._active_storage.names())
        for requirement in requirements:
            if requirement.relation in active_names:
                self._active_storage.ensure_index(requirement.relation, requirement.paths)
        self._index_requirements = tuple(
            requirement for requirement in requirements if requirement.relation not in active_names
        )
        self._registered_indexes = database.register_index_requirements(self._index_requirements)

        # Wire up the dictionary-position tree (parent-before-child order is
        # guaranteed by iter_context_dicts) for the active-label index.
        states_by_path = {state.path: state for state in self._dict_states}
        for state in self._dict_states:
            path = state.path
            if "e" in path:
                split = max(index for index, token in enumerate(path) if token == "e")
                parent = states_by_path.get(path[:split])
                if parent is None:
                    raise ShreddingError(f"no parent dictionary at path {path[:split]!r}")
                state.parent = parent
                state.tuple_path = path[split + 1 :]
                parent.children.append(state)
            else:
                state.tuple_path = path

        #: Read-path accounting: the labels refreshes changed or initialised.
        self._dict_probes = 0
        counter = OpCounter()
        started = self._now()
        self._materialise(counter)
        self.stats.record_init(self._now() - started, counter)
        if register:
            database.register_view(self)

    def _add_terms(self, state: _DictState, expression: Expr, sources: Set[str]) -> None:
        """Split a context dictionary into its intensional parts and inputs."""
        if isinstance(expression, ast.DictUnion):
            for term in expression.terms:
                self._add_terms(state, term, sources)
        elif isinstance(expression, ast.DictVar):
            if expression.name not in state.inputs:
                state.inputs += (expression.name,)
        elif isinstance(expression, ast.DictSingleton):
            known = state.parts.get(expression.iota)
            if known is not None:
                if _pairs_source(expression, known.relation, known.tag) != known.init_query:
                    raise ShreddingError(
                        f"two definitions of dictionary {expression.iota!r} at {state.path!r}"
                    )
                return
            relation = f"active {expression.iota} at {state.path!r}"
            while relation in sources:
                relation += "'"
            difference = delta(expression, self._targets)
            if not isinstance(difference, ast.DictSingleton):
                difference = None  # the body reads nothing an update changes
            tag = _tag(expression, difference)
            init_query = _pairs_source(expression, relation, tag)
            delta_query = None if difference is None else _pairs_source(difference, relation, tag)
            state.parts[expression.iota] = _Part(
                iota=expression.iota,
                arity=len(expression.params),
                relation=relation,
                tag=tag,
                store=self._active_storage.ensure(relation),
                init_query=init_query,
                delta_query=delta_query,
                init_compiled=try_compile(init_query, tag),
                delta_compiled=None if delta_query is None else try_compile(delta_query, tag),
            )
        elif not isinstance(expression, ast.DictEmpty):
            raise ShreddingError(
                f"cannot maintain a {type(expression).__name__} context dictionary"
            )

    def _materialise(self, counter: OpCounter) -> None:
        environment = self._database.shredded_environment()
        # The flat view lives in a result store: per-update deltas fold in
        # place and flat_result() freezes the snapshot lazily.
        self._flat_view = ResultStore(
            "nested-flat",
            run_bag(self._compiled_flat, self._shredded.flat, environment, counter),
        )
        #: The nested result lives in a second result store, built through
        #: the nester by the first result() and fed bag deltas afterwards.
        self._result: Optional[ResultStore] = None
        #: Result entries rewritten since the store was last compacted.
        self._churn = 0
        #: The current frozen result, dropped by a maintenance pass that
        #: touches the view, so an unchanged view answers with one object.
        self._result_cache: Optional[Bag] = None
        self._indexes = _Indexes(self._active_storage, environment.indexes)
        for state in self._dict_states:
            # One full scan seeds the active-label index and the active-label
            # relations; updates maintain them from presence transitions.
            state.active = self._scan_active(state)
            state.activated, state.deactivated = [], []
            for part in state.parts.values():
                part.labels = {
                    label.values: label for label in state.active if part.defines(label)
                }
                part.store.replace(Bag(part.labels))
            state.entries = self._initial_entries(state, list(state.active), environment, counter)
        # Compiled here (cheap: one walk of the output type), run at the
        # first result(); it reads the entries maps live, never a copy.
        self._nester = Nester(
            self._shredded.output_type.element,
            {state.path: state.entries.get for state in self._dict_states},
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shredded(self) -> ShreddedQuery:
        return self._shredded

    @property
    def flat_delta(self) -> Expr:
        return self._flat_delta

    def flat_result(self) -> Bag:
        """The materialized flat view ``h^F`` (labels in place of inner bags)."""
        return self._flat_view.freeze()

    def dictionary(self, path: Tuple[Any, ...]) -> MaterializedDict:
        """The materialized dictionary at a context path (a snapshot copy)."""
        for state in self._dict_states:
            if state.path == path:
                return MaterializedDict(state.entries)
        raise KeyError(f"no dictionary at context path {path!r}")

    def dictionary_paths(self) -> Tuple[Tuple[Any, ...], ...]:
        return tuple(state.path for state in self._dict_states)

    # ------------------------------------------------------------------ #
    # Result reconstruction (the nesting function u)
    # ------------------------------------------------------------------ #
    def result(self) -> Bag:
        """The nested result, brought up to date with the shredded state.

        An unchanged view returns the identical frozen object on repeated
        reads (no nesting, no COW refcount movement) — what makes snapshot
        capture O(1) per quiescent view.  The first read nests the whole
        flat view, ``O(|view|)``; a read after updates costs
        ``O(|Δh^F| + referrers(rewritten labels))``.
        """
        cached = self._result_cache
        if cached is not None:
            return cached
        nester = self._nester
        if self._result is None:
            if nester.identity:
                self._result = self._flat_view
            else:
                element_type = self._shredded.output_type.element  # type: ignore[union-attr]
                self._result = ResultStore(
                    "nested",
                    unshred_bag(self._flat_view.freeze(), element_type, nester),
                )
        else:
            delta = nester.settle(self._flat_view.multiplicity)
            self._result.apply_bag(delta)
            # Rewritten entries leave holes that paged reads step over; once
            # they add up to 1/32 of the result, one dict copy (a few ns per
            # entry, against µs per rewritten one) removes them.
            self._churn += len(delta)
            if 32 * self._churn >= self._result.distinct_size():
                self._result.compact()
                self._churn = 0
        result = self._result_cache = self._result.freeze()
        return result

    def result_store(self):
        return self._flat_view

    def read_stats(self):
        stats = super().read_stats()
        stats["probes"] = {"dict_probes": self._dict_probes}
        stats["nesting"] = self._nester.stats()
        return stats

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def on_update(self, update: Update, shredded_delta: ShreddedDelta, context) -> None:
        counter = OpCounter()
        started = self._now()
        if not self.reads_any(context.delta_symbols):
            # No shredded Δ symbol of this update occurs in the flat delta or
            # any dictionary delta: flat view, dictionaries and the cached
            # reconstruction all stand.
            self.stats.record_update(self._now() - started, counter)
            return
        self._result_cache = None
        # Once a result has been built the nester is told what moved — Δh^F
        # and the labels whose definitions are rewritten or initialized —
        # and the next result() settles exactly that.
        nester = self._nester if self._result is not None else None

        delta_env = context.shredded_delta_environment()
        # The pair queries read the active-label relations beside the
        # shredded ones; each position binds its own at its turn.
        pairs_env = Environment(
            delta_env.relations, delta_env.dictionaries, delta_env.deltas, indexes=self._indexes
        )

        # 1. Maintain the flat view with δ(h^F) — folded into the transient
        #    in place, O(|Δh^F|) — and fold the presence transitions into
        #    the root active-label indexes (no flat-view scan).
        flat_change = run_bag(self._compiled_flat_delta, self._flat_delta, delta_env, counter)
        transitions = self._presence_transitions(self._flat_view, flat_change)
        self._flat_view.apply_bag(flat_change)
        if nester is not None:
            nester.note_flat_delta(flat_change)
        if transitions:
            for state in self._dict_states:
                if state.parent is None:
                    self._apply_transitions(state, transitions)

        # 2. Maintain every dictionary: retire the labels no place references
        #    any more, add δ(h^Γ)(ℓ) to every live label's definition and
        #    initialize definitions for newly active labels.  Only the
        #    touched labels are rewritten — the entries map is mutated in
        #    place, never rebuilt wholesale.  The elements that enter or
        #    leave an entry move the children's active-label counts (parents
        #    precede children in self._dict_states), again O(|change|).
        for state in self._dict_states:
            entries = state.entries
            # (element, ±1) per element entering / leaving one of the entries.
            moves: Optional[List[Tuple[Any, int]]] = [] if state.children else None
            # Every transition feeding this position was folded in before its
            # turn (the flat view's above, its parent's in the parent's), so a
            # label still inactive here is dead for this update (one revived
            # by another carrier keeps its entry).  Retiring it costs
            # O(|entry|): the entry, its active-label element, the nester's
            # state for it, and its elements' places in the children's counts.
            deactivated, state.deactivated = state.deactivated, []
            retired: List[Label] = []
            for label in deactivated:
                if label in state.active:
                    continue
                entry = entries.pop(label, None)
                if entry is None:
                    continue
                retired.append(label)
                if moves is not None:
                    moves += [(element, -1) for element in entry.elements()]
            if nester is not None and retired:
                nester.evict(state.path, retired)
            # Only labels whose count crossed 0 → 1 can lack a definition.
            activated, state.activated = state.activated, []
            new_labels = [
                label
                for label in dict.fromkeys(activated)
                if label in state.active and label not in entries
            ]
            for part in state.parts.values():
                moved = []
                for label in retired:
                    if part.defines(label):
                        del part.labels[label.values]
                        moved.append((label.values, -1))
                for label in new_labels:
                    if part.defines(label):
                        part.labels[label.values] = label
                        moved.append((label.values, 1))
                part.store.apply_delta(Bag.from_pairs(moved))

            # δ(h^Γ) of every live label — new ones included — from one pair
            # query per part: it walks Δ and probes the active-label
            # relation's indexes, so the labels it finds are the footprint.
            rewritten: List[Label] = []
            pending: Dict[Label, Bag] = {}
            for label, change in self._changes(state, shredded_delta, pairs_env, counter):
                entry = entries.get(label)
                if entry is None:
                    # A new label: initialized below.
                    known = pending.get(label)
                    pending[label] = change if known is None else known.union(change)
                    continue
                if moves is not None:
                    moves += self._presence_transitions(entry, change)
                entries[label] = entry.union(change)
                rewritten.append(label)

            # New labels: h^Γ(ℓ) over the pre-update state, where the
            # persistent indexes answer, plus the δ(h^Γ)(ℓ) found above.
            if new_labels:
                initial = self._initial_entries(
                    state, new_labels, context.shredded_environment(), counter
                )
                for label in new_labels:
                    definition = initial[label]
                    change = pending.get(label)
                    if change is not None:
                        definition = definition.union(change)
                    entries[label] = definition
                    rewritten.append(label)
                    if moves is not None:
                        moves += self._presence_transitions(EMPTY_BAG, definition)

            # One ⊎ per rewritten label, counted in bulk.
            maybe_count(counter, "dict_refreshes", len(rewritten) - len(new_labels))
            maybe_count(counter, "dict_initializations", len(new_labels))
            self._dict_probes += len(rewritten)
            if nester is not None and rewritten:
                nester.note_dirty(state.path, rewritten)
            if moves:
                for child in state.children:
                    self._apply_transitions(child, moves)

        self.stats.record_update(self._now() - started, counter)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _changes(
        self,
        state: _DictState,
        shredded_delta: ShreddedDelta,
        env: Environment,
        counter: OpCounter,
    ) -> List[Tuple[Label, Bag]]:
        """``(ℓ, δ(h^Γ)(ℓ))`` for the live labels the update changes.

        A label may appear once per input dictionary defining it; the caller
        adds the changes up.
        """
        changes: List[Tuple[Label, Bag]] = []
        for part in state.parts.values():
            if part.delta_query is None:
                continue
            env.relations[part.relation] = part.store.bag
            changes += part.grouped(run_bag(part.delta_compiled, part.delta_query, env, counter))
        for name in state.inputs:
            dictionary = shredded_delta.dictionaries.get(name)
            if dictionary is not None:
                changes += [
                    (label, change)
                    for label, change in dictionary.items()
                    if change and label in state.active
                ]
        return changes

    def _initial_entries(
        self,
        state: _DictState,
        labels: Sequence[Label],
        environment: Environment,
        counter: OpCounter,
    ) -> Dict[Label, Bag]:
        """``h^Γ(ℓ)`` over ``environment`` for each of ``labels``."""
        entries = dict.fromkeys(labels, EMPTY_BAG)
        env = Environment(
            environment.relations, environment.dictionaries, indexes=environment.indexes
        )
        for part in state.parts.values():
            values = Bag(label.values for label in labels if part.defines(label))
            if not values:
                continue
            env.relations[part.relation] = values
            entries.update(part.grouped(run_bag(part.init_compiled, part.init_query, env, counter)))
        for name in state.inputs:
            dictionary = environment.dictionaries.get(name)
            if dictionary is None:
                continue
            for label in labels:
                if dictionary.defines(label):
                    entries[label] = entries[label].union(dictionary.lookup(label))
        return entries

    def _scan_active(self, state: _DictState) -> Dict[Label, int]:
        """Full scan: label → number of places referencing it.

        Root positions (no ``"e"`` in the path) draw their labels from the
        flat view; nested positions from each of their parent's entries
        (already up to date — states are kept in parent-before-child order).
        Seeds the index at construction; updates maintain it from there.
        """
        if state.parent is None:
            elements = self._flat_view.elements()  # iterates without freezing
        else:
            elements = (
                element
                for entry in state.parent.entries.values()
                for element in entry.elements()
            )
        counts: Dict[Label, int] = {}
        for element in elements:
            value = self._project(element, state.tuple_path)
            if isinstance(value, Label):
                counts[value] = counts.get(value, 0) + 1
        return counts

    @staticmethod
    def _presence_transitions(carrier, change: Bag) -> List[Tuple[Any, int]]:
        """Elements of ``change`` that appear in / disappear from ``carrier``.

        ``carrier`` is anything answering ``multiplicity`` without freezing
        — one dictionary entry (a bag) or the flat view's
        :class:`~repro.storage.ResultStore`.

        Computed *before* the change is folded in: ``(element, +1)`` when a
        multiplicity crosses zero upward (the element joins the carrier's
        support), ``(element, -1)`` when it cancels out.  Sign changes that
        stay non-zero are not transitions — the element keeps supporting its
        label either way, matching the support semantics of ``elements()``.
        """
        transitions: List[Tuple[Any, int]] = []
        for element, multiplicity in change.items():
            old = carrier.multiplicity(element)
            if old == 0:
                if multiplicity != 0:
                    transitions.append((element, 1))
            elif old + multiplicity == 0:
                transitions.append((element, -1))
        return transitions

    def _apply_transitions(
        self, state: _DictState, transitions: List[Tuple[Any, int]]
    ) -> None:
        """Fold carrier presence transitions into a state's active-label counts,
        noting the labels that became active and those that became inactive."""
        active = state.active
        for element, sign in transitions:
            value = self._project(element, state.tuple_path)
            if not isinstance(value, Label):
                continue
            count = active.get(value, 0) + sign
            if count <= 0:
                active.pop(value, None)
                state.deactivated.append(value)
            else:
                active[value] = count
                if count == 1 and sign > 0:
                    state.activated.append(value)

    @staticmethod
    def _project(value: Any, path: Tuple[Any, ...]) -> Any:
        current = value
        for token in path:
            if not isinstance(token, int):
                raise ShreddingError(f"unexpected path token {token!r}")
            if not isinstance(current, tuple) or token >= len(current):
                return None
            current = current[token]
        return current


# --------------------------------------------------------------------------- #
# Pair queries: a dictionary term as one flat label-keyed query
# --------------------------------------------------------------------------- #
def _pairs_source(singleton: ast.DictSingleton, relation: str, var: str) -> Expr:
    """``⊎_{ε ∈ relation} {(ε, x) | x ∈ body(ε)}`` for ``[(ι, Π) ↦ body]``.

    The parameters ``Π`` become projections of one loop variable over the
    active-label relation, whose elements are value tuples ``ε``; the loop
    is pushed through top-level unions, so each term of a delta body is
    its own loop — one the plan's delta-first order can turn into a
    walk of ``Δ`` probing the relation's index.
    """
    positions = {param: index for index, param in enumerate(singleton.params)}
    types = singleton.param_types
    schema = BagType(ProductType(types) if types else UNIT)
    source = ast.Relation(relation, schema)

    def over(expr: Expr) -> Expr:
        if isinstance(expr, ast.Union):
            return ast.Union(tuple(over(term) for term in expr.terms))
        if isinstance(expr, ast.Negate):
            return ast.Negate(over(expr.body))
        if isinstance(expr, ast.Empty):
            return expr
        return ast.For(var, source, _paired(expr, var))

    return over(_substitute(singleton.body, positions, var))


def _tag(*singletons: Optional[ast.DictSingleton]) -> str:
    """The pair queries' loop variable over the active-label relation — the
    key their pairs are filed under — named apart from the bodies."""
    var = "ε"
    taken = set().union(*(_names(s.body) for s in singletons if s is not None))
    while var in taken:
        var += "'"
    return var


def _paired(expr: Expr, var: str) -> Expr:
    """``expr`` with every element ``x`` it yields replaced by ``(var, x)``."""
    if isinstance(expr, ast.For):
        return ast.For(expr.var, expr.source, _paired(expr.body, var))
    if isinstance(expr, ast.Union):
        return ast.Union(tuple(_paired(term, var) for term in expr.terms))
    if isinstance(expr, ast.Negate):
        return ast.Negate(_paired(expr.body, var))
    if isinstance(expr, ast.Let):
        return ast.Let(expr.name, expr.bound, _paired(expr.body, var))
    if isinstance(expr, ast.Empty):
        return expr
    return ast.Product((ast.SngVar(var), expr))


def _substitute(expr: Expr, positions: Dict[str, int], var: str) -> Expr:
    """Replace each free element variable ``p`` of ``positions`` by ``var.i``.

    ``var`` must not occur in ``expr``.  A label constructor packs variables,
    not projections, so it rebinds the ones it packs locally instead.
    """
    if not positions:
        return expr

    def path(name: str, rest: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        return (positions[name],) + tuple(rest) if name in positions else None

    if isinstance(expr, (ast.SngVar, ast.SngProj)):
        rest = path(expr.var, getattr(expr, "path", ()))
        return expr if rest is None else ast.SngProj(var, rest)
    if isinstance(expr, ast.Pred):
        return ast.Pred(_substitute_predicate(expr.predicate, positions, var))
    if isinstance(expr, ast.DictLookup):
        dictionary = _substitute(expr.dictionary, positions, var)
        rest = path(expr.var, expr.path)
        if rest is None:
            return ast.DictLookup(dictionary, expr.var, expr.path)
        return ast.DictLookup(dictionary, var, rest)
    if isinstance(expr, ast.InLabel):
        wrapped: Expr = expr
        for param in reversed(expr.params):
            if param in positions:
                wrapped = ast.For(param, ast.SngProj(var, (positions[param],)), wrapped)
        return wrapped
    if isinstance(expr, ast.For):
        inner = {name: index for name, index in positions.items() if name != expr.var}
        return ast.For(
            expr.var, _substitute(expr.source, positions, var), _substitute(expr.body, inner, var)
        )
    if isinstance(expr, ast.DictSingleton):
        inner = {name: index for name, index in positions.items() if name not in expr.params}
        return dataclasses.replace(expr, body=_substitute(expr.body, inner, var))
    return _rebuild_with_children(
        expr, tuple(_substitute(child, positions, var) for child in expr.children())
    )


def _substitute_predicate(predicate, positions: Dict[str, int], var: str):
    if isinstance(predicate, preds.Comparison):
        return preds.Comparison(
            predicate.op,
            _substitute_operand(predicate.left, positions, var),
            _substitute_operand(predicate.right, positions, var),
        )
    if isinstance(predicate, (preds.And, preds.Or)):
        return type(predicate)(
            tuple(_substitute_predicate(term, positions, var) for term in predicate.terms)
        )
    if isinstance(predicate, preds.Not):
        return preds.Not(_substitute_predicate(predicate.term, positions, var))
    return predicate


def _substitute_operand(operand, positions: Dict[str, int], var: str):
    if isinstance(operand, preds.VarPath) and operand.var in positions:
        return preds.VarPath(var, (positions[operand.var],) + tuple(operand.path))
    return operand


def _names(expr: Expr) -> Set[str]:
    """Every element-variable name ``expr`` binds or reads."""
    names: Set[str] = set()
    for node in iter_subexpressions(expr):
        if isinstance(node, ast.Pred):
            names |= node.predicate.free_vars()
        for attribute in ("var", "params"):
            value = getattr(node, attribute, None)
            if isinstance(value, str):
                names.add(value)
            elif isinstance(value, tuple):
                names.update(value)
    return names
