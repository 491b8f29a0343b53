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

* the nested result is reconstructed on demand by the nesting function ``u``
  (Theorem 8 guarantees it equals direct re-evaluation).

Deep updates to inner bags of the *input* arrive as dictionary deltas and
flow through the same delta machinery — no recomputation of unrelated inner
bags ever happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.bag.bag import Bag, EMPTY_BAG
from repro.bag.builder import BagBuilder
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
from repro.shredding.context import (
    BagContext,
    Context,
    TupleContext,
    UNIT_CONTEXT,
    UnitContext,
    EmptyContext,
    iter_context_dicts,
)
from repro.shredding.shred_query import ShreddedQuery, shred_query
from repro.shredding.shred_values import unshred_bag

__all__ = ["NestedIVMView"]


@dataclass
class _DictState:
    """Maintenance state of one dictionary position of the output context.

    ``entries`` is the mutable label → bag map owned by this state: per
    update only the touched labels are rewritten in place (no full-map
    rebuild on the update path).  Readers get snapshot
    :class:`~repro.dictionaries.MaterializedDict` copies on demand through
    :meth:`NestedIVMView.dictionary`.

    ``active`` is the incrementally maintained **active-label index**: for
    every label that must be defined at this position, the number of
    distinct carrier elements referencing it.  Root positions count
    references from the flat view, nested positions from their parent's
    ``carrier`` (a transient mirroring the union of the parent's entries,
    kept only while some child needs it).  Both are refreshed from the
    update's presence transitions — O(|Δ|) per update — replacing the
    per-update carrier scan that used to cost O(|flat view|);
    :meth:`NestedIVMView.vacuum` still reconciles by re-scanning.
    """

    path: Tuple[Any, ...]
    expression: Expr
    delta_expression: Expr
    entries: Dict[Label, Bag] = field(default_factory=dict)
    #: Cached read snapshot of ``entries`` (an independent copy), rebuilt
    #: lazily by :meth:`NestedIVMView.dictionary` and invalidated whenever
    #: maintenance touches the entries map.
    snapshot: Optional[MaterializedDict] = None
    compiled: Optional[CompiledQuery] = None
    compiled_delta: Optional[CompiledQuery] = None
    #: label → number of distinct carrier elements referencing it (> 0).
    active: Dict[Label, int] = field(default_factory=dict)
    #: Projection from a carrier element to this position's label.
    tuple_path: Tuple[Any, ...] = ()
    #: The parent dictionary state for nested positions (``None`` at roots).
    parent: Optional["_DictState"] = None
    #: States whose labels are drawn from this state's entries.
    children: List["_DictState"] = field(default_factory=list)
    #: Union of all entry bags, maintained only when ``children`` is non-empty.
    carrier: Optional[BagBuilder] = None
    #: Static key-footprint plan of ``delta_expression`` (``None`` when the
    #: analysis could not bound the touched labels — full sweep for safety).
    footprint_plan: Optional[FootprintPlan] = None
    #: (iota, param_paths) → projected key → labels of ``entries`` with that
    #: key.  Maintained wherever entries are inserted/removed, so refresh
    #: probes are bounded by the delta's key footprint instead of |entries|.
    footprint_index: Dict[Any, Dict[Any, Set[Label]]] = field(default_factory=dict)


class NestedIVMView(View):
    """Materialized view over a full NRC+ query, maintained in shredded form."""

    accepts_refresh_context = True

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

        counter = OpCounter()
        started = self._now()
        environment = database.shredded_environment()
        # The flat view lives in a sharded result store: per-update deltas
        # fold into the touched shards and flat_result() freezes the
        # snapshot lazily (a retained reader COWs only dirty shards).
        self._flat_view = database.create_result_store(
            "nested-flat",
            run_bag(self._compiled_flat, self._shredded.flat, environment, counter),
        )
        #: Cached unshredded result, invalidated per maintenance pass, so an
        #: unchanged view answers repeated result() reads with one object.
        self._result_cache: Optional[Bag] = None
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
        for state in self._dict_states:
            # One full scan at construction seeds the active-label index;
            # updates maintain it from presence transitions thereafter.
            state.active = self._scan_active(state)
            dictionary = self._dictionary_value(
                state.compiled, state.expression, environment, counter
            )
            state.entries = {label: dictionary.lookup(label) for label in state.active}
            for label in state.entries:
                self._footprint_add(state, label)
            if state.children:
                carrier = BagBuilder()
                for bag in state.entries.values():
                    carrier.apply_bag(bag)
                state.carrier = carrier
        self.stats.record_init(self._now() - started, counter)
        if register:
            database.register_view(self)

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
        """The materialized dictionary at a context path (a snapshot copy).

        The copy is cached until the next maintenance pass touches the
        entries, so repeated reads (``result()`` walks every dictionary
        position) pay the copy once per update, not once per read.
        """
        for state in self._dict_states:
            if state.path == path:
                if state.snapshot is None:
                    state.snapshot = MaterializedDict(state.entries)
                return state.snapshot
        raise KeyError(f"no dictionary at context path {path!r}")

    def dictionary_paths(self) -> Tuple[Tuple[Any, ...], ...]:
        return tuple(state.path for state in self._dict_states)

    # ------------------------------------------------------------------ #
    # Result reconstruction (the nesting function u)
    # ------------------------------------------------------------------ #
    def result(self) -> Bag:
        """Reconstruct the nested result from the shredded materializations.

        The reconstruction is cached until the next maintenance pass: an
        unchanged view returns the identical frozen object on repeated reads
        (no re-unshredding, no COW refcount movement) — what makes snapshot
        capture O(1) per quiescent view.
        """
        cached = self._result_cache
        if cached is not None:
            return cached
        value_context = self._value_context(self._shredded.context, ())
        element_type = self._shredded.output_type.element  # type: ignore[union-attr]
        result = unshred_bag(self._flat_view.freeze(), element_type, value_context)
        self._result_cache = result
        return result

    def result_store(self):
        return self._flat_view

    def read_stats(self):
        stats = super().read_stats()
        stats["probes"] = dict(self._probe_stats)
        stats["footprint"] = {
            "enabled": footprint_enabled(),
            "dictionaries": len(self._dict_states),
            "planned": sum(
                1 for state in self._dict_states if state.footprint_plan is not None
            ),
        }
        return stats

    def _value_context(self, context: Context, path: Tuple[Any, ...]) -> Context:
        if isinstance(context, (UnitContext, EmptyContext)):
            return context
        if isinstance(context, TupleContext):
            return TupleContext(
                tuple(
                    self._value_context(component, path + (index,))
                    for index, component in enumerate(context.components)
                )
            )
        if isinstance(context, BagContext):
            materialized = self.dictionary(path)
            return BagContext(materialized, self._value_context(context.element, path + ("e",)))
        raise ShreddingError(f"unexpected context node {context!r}")

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def affected_by(self, context) -> bool:
        # The maintenance queries run in the shredded world: match against
        # the shredded Δ symbols (flat bags and dictionary deltas).
        return self.reads_any(context.delta_symbols)

    def on_update(self, update: Update, shredded_delta: ShreddedDelta, context=None) -> None:
        counter = OpCounter()
        started = self._now()
        delta_symbols = (
            context.delta_symbols
            if context is not None
            else shredded_delta.as_delta_symbols(order=1)
        )
        if not self.reads_any(delta_symbols):
            # No shredded Δ symbol of this update occurs in the flat delta or
            # any dictionary delta: flat view, dictionaries and the cached
            # reconstruction all stand.
            self.stats.record_update(self._now() - started, counter)
            return
        self._result_cache = None

        if context is not None:
            delta_env = context.shredded_delta_environment()
        else:
            delta_env = self._database.shredded_environment(delta_symbols)
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
        if transitions:
            for state in self._dict_states:
                if state.parent is None:
                    self._apply_transitions(state, transitions)

        # 2. Maintain every dictionary: refresh existing definitions with
        #    δ(h^Γ)(ℓ) and initialize definitions for newly active labels.
        #    Only the touched labels are rewritten — the entries map is
        #    mutated in place, never rebuilt wholesale.  Entry changes
        #    propagate into the carrier transient and from there into the
        #    children's active-label indexes (parents precede children in
        #    self._dict_states), again O(|change|).
        for state in self._dict_states:
            delta_dictionary = self._dictionary_value(
                state.compiled_delta, state.delta_expression, delta_env, counter
            )
            entries = state.entries
            state.snapshot = None
            entry_changes: Optional[List[Bag]] = [] if state.children else None
            # When the delta dictionary has finite support (e.g. deep updates
            # arriving as explicit label deltas) only the touched labels need
            # refreshing.  Intensional deltas (dictionary bodies over ΔR)
            # report no support; the static key-footprint plan bounds the
            # probes by the delta's label footprint instead — only when no
            # plan exists (or the REPRO_NO_FOOTPRINT hatch is set) does the
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
                    entries[label] = entries[label].union(change)
                    if entry_changes is not None:
                        entry_changes.append(change)

            new_labels = [label for label in state.active if label not in entries]
            if new_labels:
                if post_env is None:
                    if context is not None:
                        post_env = context.post_shredded_environment()
                    else:
                        post_env = self._post_update_environment(
                            self._database.shredded_environment(), shredded_delta
                        )
                full_dictionary = self._dictionary_value(
                    state.compiled, state.expression, post_env, counter
                )
                for label in new_labels:
                    maybe_count(counter, "dict_initializations")
                    definition = full_dictionary.lookup(label)
                    entries[label] = definition
                    self._footprint_add(state, label)
                    if entry_changes is not None and not definition.is_empty():
                        entry_changes.append(definition)

            if entry_changes:
                self._propagate_entry_changes(state, entry_changes)

        self.stats.record_update(self._now() - started, counter)

    def vacuum(self) -> int:
        """Drop dictionary entries whose labels are no longer reachable.

        Returns the number of entries removed.  Stale entries are harmless
        for correctness (unshredding never looks them up) but keeping the
        dictionaries tight mirrors the space bounds of the paper.  Vacuum is
        also the reconciliation pass of the active-label index: counts and
        carriers are recomputed from scratch here (parents before children,
        so a child's scan sees its parent already vacuumed).
        """
        removed = 0
        self._result_cache = None
        for state in self._dict_states:
            state.active = self._scan_active(state)
            stale = [label for label in state.entries if label not in state.active]
            for label in stale:
                del state.entries[label]
                self._footprint_discard(state, label)
            if stale:
                state.snapshot = None
            removed += len(stale)
            if state.children:
                carrier = BagBuilder()
                for bag in state.entries.values():
                    carrier.apply_bag(bag)
                state.carrier = carrier
        return removed

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

    def _post_update_environment(
        self, pre_env: Environment, shredded_delta: ShreddedDelta
    ) -> Environment:
        post = pre_env.copy()
        for name, bag in shredded_delta.bags.items():
            post.relations[name] = post.relations.get(name, EMPTY_BAG).union(bag)
        for name, dictionary in shredded_delta.dictionaries.items():
            existing = post.dictionaries.get(name, MaterializedDict({}))
            post.dictionaries[name] = existing.add(dictionary)
        return post

    def _active_labels(self, state: _DictState) -> List[Label]:
        """Labels that must be defined at this dictionary position.

        Served from the incrementally maintained active-label index in
        O(|active|); :meth:`_scan_active` is the O(|carrier|) scan that
        seeds it (construction) and reconciles it (:meth:`vacuum`).
        """
        return list(state.active)

    def _scan_active(self, state: _DictState) -> Dict[Label, int]:
        """Full carrier scan: label → distinct supporting carrier elements.

        Root positions (no ``"e"`` in the path) draw their labels from the
        flat view; nested positions draw them from their parent's carrier
        (the union of the parent's entries, already up to date — states are
        kept in parent-before-child order).
        """
        if state.parent is None:
            elements = self._flat_view.elements()  # iterates without freezing
        elif state.parent.carrier is not None:
            elements = state.parent.carrier.elements()
        else:
            elements = iter(())
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
        — a :class:`BagBuilder` (dictionary carriers) or the flat view's
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
        """Fold carrier presence transitions into a state's active-label counts."""
        active = state.active
        for element, sign in transitions:
            value = self._project(element, state.tuple_path)
            if not isinstance(value, Label):
                continue
            count = active.get(value, 0) + sign
            if count <= 0:
                active.pop(value, None)
            else:
                active[value] = count

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

    def _propagate_entry_changes(self, state: _DictState, changes: List[Bag]) -> None:
        """Fold entry changes into the carrier and the children's label counts.

        Each change bag is a delta to the union-of-entries carrier; the
        per-bag transition pass keeps cross-label cancellation exact (an
        element leaving one label's entry while entering another's nets out
        before any child count moves).
        """
        carrier = state.carrier
        if carrier is None:
            carrier = state.carrier = BagBuilder()
        for change in changes:
            transitions = self._presence_transitions(carrier, change)
            carrier.apply_bag(change)
            if transitions:
                for child in state.children:
                    self._apply_transitions(child, transitions)

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
