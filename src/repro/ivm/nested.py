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

  - adding ``δ(h^Γ)(ℓ)`` to every existing definition, and
  - initializing definitions for labels newly introduced by ``δ(h^F)``
    against the post-update state;

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

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.bag.bag import Bag, EMPTY_BAG
from repro.dictionaries import DictValue, MaterializedDict
from repro.errors import ShreddingError
from repro.instrument import OpCounter, maybe_count
from repro.ivm.database import Database, ShreddedDelta
from repro.ivm.footprint import FootprintPlan, analyze, footprint_enabled
from repro.ivm.updates import Update
from repro.ivm.views import View
from repro.labels import Label
from repro.nrc.analysis import referenced_deltas, referenced_sources
from repro.nrc.ast import Expr
from repro.nrc.compile import CompiledQuery, run_bag, try_compile
from repro.nrc.evaluator import Environment, evaluate
from repro.delta.rules import delta
from repro.shredding.context import iter_context_dicts
from repro.shredding.nesting import Nester
from repro.shredding.shred_query import ShreddedQuery, shred_query
from repro.shredding.shred_values import unshred_bag
from repro.storage import ResultStore

__all__ = ["NestedIVMView"]


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
    """

    path: Tuple[Any, ...]
    expression: Expr
    delta_expression: Expr
    entries: Dict[Label, Bag] = field(default_factory=dict)
    compiled: Optional[CompiledQuery] = None
    compiled_delta: Optional[CompiledQuery] = None
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
    #: Static key-footprint plan of ``delta_expression`` (``None`` when the
    #: analysis could not bound the touched labels — full sweep for safety).
    footprint_plan: Optional[FootprintPlan] = None
    #: (iota, param_paths) → projected key → labels of ``entries`` with that
    #: key.  Maintained wherever entries are inserted/removed, so refresh
    #: probes are bounded by the delta's key footprint instead of |entries|.
    footprint_index: Dict[Any, Dict[Any, Set[Label]]] = field(default_factory=dict)


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
        for path, expression in iter_context_dicts(self._shredded.context):
            delta_expression = delta(expression, self._targets)
            self._dict_states.append(
                _DictState(
                    path=path,
                    expression=expression,
                    delta_expression=delta_expression,
                    compiled=try_compile(expression),
                    compiled_delta=try_compile(delta_expression),
                    # Derived once, statically: which labels an intensional
                    # delta can touch, keyed by the delta's projections.
                    footprint_plan=analyze(delta_expression),
                )
            )
        self._delta_sources = referenced_deltas(self._flat_delta).union(
            *(referenced_deltas(state.delta_expression) for state in self._dict_states)
        )
        self._execution_mode = (
            "compiled"
            if self._compiled_flat_delta is not None
            and all(
                state.compiled is not None and state.compiled_delta is not None
                for state in self._dict_states
            )
            else "interpreted"
        )
        # The shredded pipelines join over the *flat* relations; their join
        # atoms register against the flat storage manager.
        self._register_indexes(
            database,
            self._compiled_flat,
            self._compiled_flat_delta,
            *(state.compiled for state in self._dict_states),
            *(state.compiled_delta for state in self._dict_states),
        )

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

        #: Read-path accounting: how refresh probes were bounded.
        self._probe_stats: Dict[str, int] = {
            "dict_probes": 0,
            "footprint_probes": 0,
            "footprint_keys": 0,
            "skipped_labels": 0,
            "footprint_sweeps": 0,
            "support_sweeps": 0,
            "full_sweeps": 0,
        }
        counter = OpCounter()
        started = self._now()
        self._materialise(counter)
        self.stats.record_init(self._now() - started, counter)
        if register:
            database.register_view(self)

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
        for state in self._dict_states:
            # One full scan seeds the active-label index; updates maintain
            # it from presence transitions thereafter.
            state.active = self._scan_active(state)
            state.activated, state.deactivated = [], []
            dictionary = self._dictionary_value(
                state.compiled, state.expression, environment, counter
            )
            state.entries = {label: dictionary.lookup(label) for label in state.active}
            state.footprint_index = {}
            for label in state.entries:
                self._footprint_add(state, label)
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
        stats["probes"] = dict(self._probe_stats)
        stats["nesting"] = self._nester.stats()
        stats["footprint"] = {
            "enabled": footprint_enabled(),
            "dictionaries": len(self._dict_states),
            "planned": sum(
                1 for state in self._dict_states if state.footprint_plan is not None
            ),
        }
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
        # The post-update environment costs O(|DB|) to assemble (it unions
        # the deltas into the flat mirror); it is built lazily below, only
        # when some dictionary actually discovers newly active labels.
        post_env: Optional[Environment] = None

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
        #    any more, refresh existing definitions with δ(h^Γ)(ℓ) and
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
            # O(|entry|): the entry, its footprint, the nester's state for it,
            # and its elements' places in the children's counts.
            deactivated, state.deactivated = state.deactivated, []
            retired: List[Label] = []
            for label in deactivated:
                if label in state.active:
                    continue
                entry = entries.pop(label, None)
                if entry is None:
                    continue
                retired.append(label)
                self._footprint_discard(state, label)
                if moves is not None:
                    moves += [(element, -1) for element in entry.elements()]
            if nester is not None and retired:
                nester.evict(state.path, retired)

            delta_dictionary = self._dictionary_value(
                state.compiled_delta, state.delta_expression, delta_env, counter
            )
            rewritten: List[Label] = []
            # When the delta dictionary has finite support (e.g. deep updates
            # arriving as explicit label deltas) only the touched labels need
            # refreshing.  Intensional deltas (dictionary bodies over ΔR)
            # report no support; the static key-footprint plan bounds the
            # probes by the delta's label footprint instead — only when no
            # plan exists (or inside forced_no_footprint) does the
            # refresh fall back to probing every existing label, the O(n·d)
            # term of §2.2.
            probes = self._probe_stats
            delta_support = delta_dictionary.support()
            if delta_support is None:
                footprint = self._footprint_labels(state, shredded_delta)
                if footprint is None:
                    refresh_labels = list(entries)
                    probes["full_sweeps"] += 1
                else:
                    refresh_labels = footprint
                    probes["footprint_sweeps"] += 1
                    probes["footprint_probes"] += len(footprint)
                    probes["skipped_labels"] += len(entries) - len(footprint)
            else:
                refresh_labels = [label for label in delta_support if label in entries]
                probes["support_sweeps"] += 1
            probes["dict_probes"] += len(refresh_labels)
            for label in refresh_labels:
                change = delta_dictionary.lookup(label)
                maybe_count(counter, "dict_refreshes")
                if not change.is_empty():
                    entry = entries[label]
                    if moves is not None:
                        moves += self._presence_transitions(entry, change)
                    entries[label] = entry.union(change)
                    rewritten.append(label)

            # Only labels whose count crossed 0 → 1 can lack a definition.
            activated, state.activated = state.activated, []
            new_labels = [
                label
                for label in dict.fromkeys(activated)
                if label in state.active and label not in entries
            ]
            if new_labels:
                if post_env is None:
                    post_env = context.post_shredded_environment()
                full_dictionary = self._dictionary_value(
                    state.compiled, state.expression, post_env, counter
                )
                for label in new_labels:
                    maybe_count(counter, "dict_initializations")
                    definition = full_dictionary.lookup(label)
                    entries[label] = definition
                    rewritten.append(label)
                    self._footprint_add(state, label)
                    if moves is not None:
                        moves += self._presence_transitions(EMPTY_BAG, definition)

            if nester is not None and rewritten:
                nester.note_dirty(state.path, rewritten)
            if moves:
                for child in state.children:
                    self._apply_transitions(child, moves)

        self.stats.record_update(self._now() - started, counter)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _dictionary_value(
        compiled: Optional[CompiledQuery],
        expression: Expr,
        environment: Environment,
        counter: OpCounter,
    ) -> DictValue:
        """Evaluate a context expression through its compiled pipeline if any."""
        if compiled is not None:
            value = compiled.evaluate(environment, counter)
        else:
            value = evaluate(expression, environment, counter)
        if not isinstance(value, DictValue):
            raise ShreddingError("context expressions must evaluate to dictionaries")
        return value

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

    # ------------------------------------------------------------------ #
    # Key-footprint index (see repro.ivm.footprint)
    # ------------------------------------------------------------------ #
    def _footprint_add(self, state: _DictState, label: Label) -> None:
        """Index one entries-label under every key combination of the plan."""
        plan = state.footprint_plan
        if plan is None:
            return
        for singleton in plan.singletons:
            if label.iota != singleton.iota or len(label.values) != singleton.arity:
                continue
            for constraint in singleton.constraints:
                key = tuple(
                    self._project(label.values[position], path)
                    for position, path in constraint.param_paths
                )
                combo = (singleton.iota, constraint.param_paths)
                bucket = state.footprint_index.setdefault(combo, {})
                bucket.setdefault(key, set()).add(label)

    def _footprint_discard(self, state: _DictState, label: Label) -> None:
        plan = state.footprint_plan
        if plan is None:
            return
        for singleton in plan.singletons:
            if label.iota != singleton.iota or len(label.values) != singleton.arity:
                continue
            for constraint in singleton.constraints:
                combo = (singleton.iota, constraint.param_paths)
                bucket = state.footprint_index.get(combo)
                if bucket is None:
                    continue
                key = tuple(
                    self._project(label.values[position], path)
                    for position, path in constraint.param_paths
                )
                labels = bucket.get(key)
                if labels is not None:
                    labels.discard(label)
                    if not labels:
                        del bucket[key]

    def _footprint_labels(
        self, state: _DictState, shredded_delta: ShreddedDelta
    ) -> Optional[List[Label]]:
        """The labels this update's delta can possibly touch, or ``None``.

        O(|Δ| + |footprint|): project every delta element at the plan's
        delta paths and collect the matching labels from the footprint
        index.  ``None`` (no plan, the escape hatch, or a dictionary delta
        whose support cannot be enumerated) means the caller must probe
        every entry.
        """
        plan = state.footprint_plan
        if plan is None or not footprint_enabled():
            return None
        matched: Set[Label] = set()
        probes = self._probe_stats
        for singleton in plan.singletons:
            for constraint in singleton.constraints:
                delta_bag = shredded_delta.bags.get(constraint.delta_name)
                if delta_bag is None or delta_bag.is_empty():
                    continue
                bucket = state.footprint_index.get(
                    (singleton.iota, constraint.param_paths)
                )
                if not bucket:
                    continue
                seen_keys: Set[Any] = set()
                for element in delta_bag.elements():
                    key = tuple(
                        self._project(element, path) for path in constraint.delta_paths
                    )
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                    probes["footprint_keys"] += 1
                    labels = bucket.get(key)
                    if labels:
                        matched.update(labels)
        for name in plan.dict_deltas:
            dictionary = shredded_delta.dictionaries.get(name)
            if dictionary is None:
                continue
            support = dictionary.support()
            if support is None:
                return None
            matched.update(label for label in support if label in state.entries)
        return list(matched)

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
