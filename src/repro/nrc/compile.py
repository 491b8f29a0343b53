"""Compilation of NRC+ / IncNRC+_l expressions into fused, push-based pipelines.

The recursive interpreter (:mod:`repro.nrc.evaluator`) pays prices on every
update the cost model does not charge for: each ``for`` binder copies a
whole :class:`~repro.nrc.evaluator.Environment`, each ``for``-over-``for``
join is a nested loop with a predicate check per pair — time proportional to
the *product* of the operands instead of the matching pairs assumed by the
paper's ``tcost`` bound (Section 4) — and every operator hands its parent a
freshly built bag.  This module lowers an expression once, at
view-registration time, into a tree of closures and generated loops that

* compiles every bag-typed node to a **producer** ``emit(ctx, frame, mult,
  sink)`` adding ``mult × ⟦e⟧`` into the caller's accumulator: loops call
  their body's ``emit`` with the scaled multiplicity, so an evaluation
  builds no intermediate bag.  Bags materialise only at *pipeline breakers*
  — the query root (unless :meth:`CompiledQuery.evaluate` is given a target
  store, whose dict the root then emits into), ``let`` bounds and bodies,
  hoisted loop-invariant nodes, loop and ``flatten`` sources, general ``×``
  factors, ``sng(e)`` and dictionary bodies (see :class:`_Node`),
* **generates the per-element work** (:mod:`repro.nrc.kernels`): variable
  reads with their projections, predicates and output elements (tuples,
  ``sng(x)``, ``sng(π(x))``, labels) are kernel expressions, and every walk
  site — a ``for`` loop over its ``where`` chain, a hash-join's bucket walk
  and its nested-loop twin — is one generated function that binds each
  element, tests the inlined predicate and folds the inlined output element
  into ``sink``.  Closures remain for the work done once per evaluation or
  per probe: sources, pipeline breakers, ``⊎`` / ``⊖`` / ``let``,
  dictionaries and index binding; a loop body that is not an element keeps
  its ``emit`` call,
* replaces per-binder environment copies with **slot-indexed frames** (one
  flat Python list per evaluation; every binder writes a pre-assigned slot),
* turns the canonical join shape ``for x in e₁ union (for y in e₂ union
  (where p …))`` into a **hash-join** whenever ``p`` contains an equality
  between a projection of the inner variable and a projection of an outer
  variable (or a constant): the build side is indexed once per evaluation,
  an enclosing loop resolves that index once for its whole walk (and skips
  the walk when the build side is empty), and each outer tuple probes it, so
  selective joins cost time proportional to the matching pairs; sites over
  the same source and key paths share one build per evaluation,
* walks **deltas first**: ``for x in S union for y in ΔT union …`` is
  compiled as ``for y in ΔT union for x in S union …`` when both sources are
  closed and ``x ≠ y`` (:func:`_delta_first`), so the join probes ``S``'s
  index once per update element instead of walking ``S`` — a delta costs
  ``O(|Δ| + matches)``, not ``O(|S| + matches)``, and
* **hoists loop-invariant sub-expressions**: any computation that reads no
  binder slot is evaluated at most once per evaluation (memoized in a
  per-call cache), no matter how many loop iterations reference it.

The strict interpreter remains the semantic reference; compiled and
interpreted evaluation must agree on every input (the differential tests in
``tests/test_compile.py`` enforce this, and the oracle that ends every
benchmark run re-checks it on real workloads).  Setting the environment
variable :data:`REPRO_NO_COMPILE` (to any non-empty value) disables compilation
globally — :func:`try_compile` then returns ``None`` and every view falls
back to the interpreter, which evaluates the delta as derived, in its
literal binder order.

One bounded caveat applies to *ill-typed* input only: a hash-join does not
evaluate guard conjuncts for pairs its index already excludes, so an error
the interpreter would raise on such a pair (e.g. an ordered comparison over
non-base values, which the type system forbids) is not reproduced.  And
the compiled pipeline walks sources and pairs in its own order (deltas
first, and a materialised ``⊎`` holds its terms' elements in term order
where the interpreter's ``Bag.union`` may not), so which of several errors
fires first — hence which
:class:`~repro.errors.EvaluationError` subclass is raised — is unspecified.
Either side may raise where the other does not: an erroring source the
interpreter never reaches (the other binder's source being empty) may still
raise, and an erroring base source the interpreter walks first (an unbound
relation, say) is never evaluated when the update source the compiled plan
walks first is empty, so the plan returns ``∅`` where the interpreter raises.
Equality conjuncts themselves never diverge — keys that hashing cannot
match faithfully (non-base values, ``NaN``, erroring operands) degrade to a
nested-loop twin that follows interpreter conjunct order exactly.
Well-typed queries (:mod:`repro.nrc.typecheck`) are unaffected.

Operation counters are threaded through, and ``tests/test_paper_claims.py``
pins them: compiled evaluation reports the operations it *actually* performs
(hash probes instead of skipped pairs, no merges of bags it never built),
added in bulk — once per loop, not once per element.  A generated walk
counts its elements and the passes of each of its filters, and adds
``units × count`` once, after the walk; a ``where`` chain outside any loop
is a walk of its own, run once per call of its ``emit``.  Counts are
specified for evaluations that complete: a walk that raises adds nothing,
so a counter handed to an evaluation that raises holds a partial count
(the engine discards the counter of a failed update).
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.bag.bag import Bag, EMPTY_BAG
from repro.bag.builder import BagBuilder
from repro.bag.values import intern_key, is_hashable_key
from repro.dictionaries import DictValue, EMPTY_DICT, IntensionalDict
from repro.errors import CompileError, EvaluationError, UnboundVariableError
from repro.instrument import OpCounter, maybe_count
from repro.labels import Label
from repro.nrc import ast, kernels
from repro.nrc import predicates as preds
from repro.nrc.analysis import free_elem_vars, referenced_deltas
from repro.nrc.ast import Expr
from repro.nrc.evaluator import Environment, evaluate_bag as _interpret_bag
from repro.nrc.kernels import MISSING as _MISSING, KernelModule, project as _project_value
from repro.nrc.traverse import map_expr

__all__ = [
    "REPRO_NO_COMPILE",
    "CompiledQuery",
    "IndexRequirement",
    "compile_expr",
    "compilation_enabled",
    "forced_interpretation",
    "run_bag",
    "try_compile",
]

#: Environment variable that disables compilation when set to a non-empty value.
REPRO_NO_COMPILE = "REPRO_NO_COMPILE"


def compilation_enabled() -> bool:
    """True unless the ``REPRO_NO_COMPILE`` escape hatch is set."""
    return not os.environ.get(REPRO_NO_COMPILE)


@contextmanager
def forced_interpretation(interpreted: bool = True) -> Iterator[None]:
    """Temporarily force the execution mode (benchmark/smoke/test helper).

    ``interpreted=True`` sets ``REPRO_NO_COMPILE`` for the duration of the
    block, ``interpreted=False`` clears it; the previous value is restored
    on exit either way.  Only affects views *constructed* inside the block —
    views compile (or don't) at registration time.
    """
    saved = os.environ.get(REPRO_NO_COMPILE)
    try:
        if interpreted:
            os.environ[REPRO_NO_COMPILE] = "1"
        else:
            os.environ.pop(REPRO_NO_COMPILE, None)
        yield
    finally:
        if saved is None:
            os.environ.pop(REPRO_NO_COMPILE, None)
        else:
            os.environ[REPRO_NO_COMPILE] = saved


def compile_expr(expr: Expr) -> "CompiledQuery":
    """Compile ``expr`` into a reusable :class:`CompiledQuery`.

    Raises :class:`~repro.errors.CompileError` when the expression contains a
    node the compiler has no rule for.
    """
    return CompiledQuery(expr)


def try_compile(expr: Expr) -> Optional["CompiledQuery"]:
    """Compile ``expr``, or return ``None`` when disabled or unsupported.

    This is the entry point the view classes use at registration time: a
    ``None`` result means "run interpreted", never an error.
    """
    if not compilation_enabled():
        return None
    try:
        return compile_expr(expr)
    except CompileError:
        return None


def run_bag(
    compiled: Optional["CompiledQuery"],
    expr: Expr,
    env: Environment,
    counter: Optional[OpCounter] = None,
    into: Optional[BagBuilder] = None,
) -> Optional[Bag]:
    """Evaluate ``expr`` through ``compiled`` when available, else interpret.

    The shared dispatch the view classes use on every (re-)evaluation:
    ``compiled`` is the result of :func:`try_compile` for ``expr``, possibly
    ``None``.  With ``into`` the result is folded into that builder and
    ``None`` returned — inside the compiled walk
    (:meth:`CompiledQuery.evaluate`), or by ``apply_bag`` of the
    interpreter's bag.
    """
    if into is not None:
        if compiled is not None:
            compiled.evaluate(env, counter, into=into)
        else:
            into.apply_bag(_interpret_bag(expr, env, counter))
        return None
    if compiled is not None:
        return compiled.evaluate_bag(env, counter)
    return _interpret_bag(expr, env, counter)



# --------------------------------------------------------------------------- #
# Runtime pieces
# --------------------------------------------------------------------------- #
class _Ctx:
    """Per-evaluation context: database bindings, op counter, hoist cache.

    Let-bound and externally-provided bag variables live in frame slots, not
    here — the context carries only the bindings resolved by name at runtime.
    ``indexes`` is the environment's persistent-index provider (or ``None``);
    hash-join sites over base relations probe it before building their own.
    """

    __slots__ = ("relations", "dictionaries", "deltas", "counter", "cache", "indexes")

    def __init__(
        self,
        relations,
        dictionaries,
        deltas,
        counter: Optional[OpCounter],
        indexes=None,
    ) -> None:
        self.relations = relations
        self.dictionaries = dictionaries
        self.deltas = deltas
        self.counter = counter
        self.cache: Dict[int, Any] = {}
        self.indexes = indexes


def _as_bag(value: Any) -> Bag:
    if not isinstance(value, Bag):
        raise EvaluationError(f"expected a bag, got {value!r}")
    return value


def _as_dict(value: Any) -> DictValue:
    if not isinstance(value, DictValue):
        raise EvaluationError(f"expected a dictionary, got {value!r}")
    return value


def _merge(sink: Dict[Any, int], pairs, mult: int) -> None:
    """Add ``mult ×`` materialised ``(element, multiplicity)`` pairs into ``sink``.

    The single definition of how a finished bag joins a pipeline's
    accumulator: multiplicities add, and an entry that cancels to zero leaves.
    """
    for element, multiplicity in pairs:
        updated = sink.get(element, 0) + mult * multiplicity
        if updated:
            sink[element] = updated
        else:
            sink.pop(element, None)


# Op-counter amounts a node incurs on *every* invocation, as ``(name, amount)``
# pairs.  Nodes never add these themselves: they flow up to the nearest loop
# (or the root), which multiplies by its iteration count and adds once.
_Units = Tuple[Tuple[str, int], ...]
_EMITTED: _Units = (("elements_emitted", 1),)
_CHECKED: _Units = (("predicate_checks", 1),)
_ITERATED: _Units = (("for_iterations", 1),)
_LOOKED_UP: _Units = (("dict_lookups", 1),)
_PROBED: _Units = (("hash_probes", 1),)


def _units(*parts: _Units) -> _Units:
    """Sum per-invocation counter amounts by name."""
    totals: Dict[str, int] = {}
    for part in parts:
        for name, amount in part:
            totals[name] = totals.get(name, 0) + amount
    return tuple(totals.items())


def _charge(counter: Optional[OpCounter], units: _Units, times: int = 1) -> None:
    """Add ``times ×`` per-invocation ``units`` to ``counter``, in bulk."""
    if counter is not None and times:
        for name, amount in units:
            counter.increment(name, amount * times)


_Fn = Callable[[_Ctx, List[Any]], Any]
_Emit = Callable[[_Ctx, List[Any], int, Dict[Any, int]], None]
# A guard conjunct: its kernel expression, deps, and hash-join atom (build
# path, probe expression) if it is one; a guard: binder slot and conjuncts.
_Conjunct = Tuple[Any, frozenset, Optional[Tuple[Tuple[int, ...], Any]]]
_Guard = Tuple[int, List[_Conjunct]]


class _Node:
    """A compiled node: one primary form, every other form derived from it.

    A compile rule supplies exactly one of

    ``emit(ctx, frame, mult, sink)``
        the producer form of a bag-typed node: add ``mult × ⟦e⟧`` into the
        caller's accumulator ``sink`` (element → multiplicity), removing
        entries that cancel to zero.  ``mult`` is never zero.
    ``element``
        a scalar singleton (``sng(x)``, a tuple of them, a label): the
        :mod:`~repro.nrc.kernels` expression of the one element it denotes,
        with multiplicity 1.  A walk site inlines it into its loop; anywhere
        else :meth:`emitter` generates a one-element ``emit`` from it.
    ``bind(ctx, frame)``
        a hash-join site: resolve its loop-invariant index and return
        ``(emit, units)`` — the ``emit`` to use while that index stands and
        what each of its invocations incurs — or ``None`` when the build
        side is empty, so the site emits nothing whatever the frame holds.
        An enclosing loop binds once per run instead of once per element.
    ``value(ctx, frame)``
        the value itself: dictionaries, and bags that already exist
        (relations, update symbols, variables, lookups, memoised results).

    :meth:`emitter` and :meth:`valuer` derive the form a consumer needs, so
    a bag is materialised exactly where a consumer asks for one.  ``deps`` are
    the *binder* slots the node reads (slots filled once per evaluation are
    not tracked — depending only on them still makes a node loop-invariant);
    ``units`` are the counter amounts one invocation always incurs, which
    the consumer charges in bulk.
    """

    __slots__ = ("deps", "units", "emit", "element", "bind", "value")

    def __init__(self, deps, units=(), *, emit=None, element=None, bind=None, value=None) -> None:
        self.deps: frozenset = deps
        self.units: _Units = units
        self.emit: Optional[_Emit] = emit
        self.element: Any = element
        self.bind: Optional[Callable[[_Ctx, List[Any]], Optional[Tuple[_Emit, _Units]]]] = bind
        self.value: Optional[_Fn] = value

    def emitter(self) -> _Emit:
        if self.emit is not None:
            return self.emit
        if self.element is not None:
            # Generated once, then kept as the node's emit.
            module = KernelModule("element")
            module.walk("emit", slot=None, element=self.element)
            self.emit = module.build()["emit"]
            return self.emit
        if self.bind is not None:
            bind = self.bind

            def emit_bound(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
                bound = bind(ctx, frame)
                if bound is not None:
                    run, run_units = bound
                    run(ctx, frame, mult, sink)
                    _charge(ctx.counter, run_units)

            return emit_bound
        value = self.value

        def emit_value(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            bag = _as_bag(value(ctx, frame))
            if bag:
                maybe_count(ctx.counter, "union_merges", len(bag))
                _merge(sink, bag.items(), mult)

        return emit_value

    def valuer(self) -> _Fn:
        if self.value is not None:
            return self.value
        emit = self.emitter()

        def materialise(ctx: _Ctx, frame: List[Any]) -> Bag:
            sink: Dict[Any, int] = {}
            emit(ctx, frame, 1, sink)
            return Bag._from_clean_dict(sink) if sink else EMPTY_BAG

        return materialise


#: Node types worth memoizing when loop-invariant (they do real work).
_HOISTABLE = (
    ast.For,
    ast.Product,
    ast.Union,
    ast.Flatten,
    ast.Negate,
    ast.Let,
    ast.Sng,
    ast.DictUnion,
    ast.DictAdd,
)


class _UnhashableKey(Exception):
    """Internal: a join-key value that must not be matched via hashing."""


#: Cache sentinel: the build side contained an unhashable key, use the loop.
_NO_INDEX = object()

#: Cache sentinel: this join site is served by a persistent storage index.
#: The live index object is deliberately *not* cached — it mutates in place
#: as the store applies deltas, so every bind re-verifies through the
#: provider's bag-identity check.  Evaluation contexts can outlive the store
#: state they were first validated against (an intensional dictionary
#: escaping its evaluation); a stale context then degrades to a
#: per-evaluation build over its own environment snapshot, exactly matching
#: the interpreter's closed-over-environment semantics.
_PERSISTENT = object()


class IndexRequirement:
    """A join atom a compiled query probes: relation name plus key paths.

    Emitted for every hash-join site whose build side is a bare base-relation
    reference.  The view classes hand these to
    :meth:`repro.ivm.database.Database.register_index_requirements` so the
    storage layer can keep a persistent index current from deltas instead of
    rebuilding it on every evaluation.
    """

    __slots__ = ("relation", "paths")

    def __init__(self, relation: str, paths: Tuple[Tuple[int, ...], ...]) -> None:
        self.relation = relation
        self.paths = paths

    def key(self) -> Tuple[str, Tuple[Tuple[int, ...], ...]]:
        return (self.relation, self.paths)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, IndexRequirement):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def render(self) -> str:
        paths = ", ".join("." + ".".join(map(str, path)) for path in self.paths)
        return f"{self.relation}[{paths}]"

    def __reduce__(self):
        # Slots + no dict: reconstruct from the two defining fields.
        return (IndexRequirement, (self.relation, self.paths))

    def __repr__(self) -> str:
        return f"IndexRequirement({self.render()})"


# --------------------------------------------------------------------------- #
# Delta-first binder order
# --------------------------------------------------------------------------- #
def _delta_first(expr: Expr) -> Expr:
    """Reorder adjacent binders so update-symbol sources are walked first.

    ``for x in S union for y in T union B`` becomes ``for y in T union for x
    in S union B`` when ``T`` mentions an update symbol and ``S`` does not,
    both sources are closed and ``x ≠ y``: then the two sums commute, and the
    swapped inner ``for x in S where x.p = y.q`` is a hash-join over ``S``
    probed once per ``Δ`` element instead of a walk over all of ``S`` —
    ``O(|T| + matches)`` where the literal order pays ``O(|S| + matches)``.
    Without an equality atom both orders walk ``|S|·|T|`` pairs, so the
    swap is never asymptotically worse.  Applied bottom-up, so a ``Δ``
    binder moves past a whole chain of base-relation binders.  Only the
    compiled pipeline is reordered; the interpreter runs the literal order.
    """
    return map_expr(expr, _hoist_delta_binder)


def _hoist_delta_binder(node: Expr) -> Expr:
    if not (isinstance(node, ast.For) and isinstance(node.body, ast.For)):
        return node
    outer, inner = node, node.body
    if (
        outer.var == inner.var
        or not referenced_deltas(inner.source)
        or referenced_deltas(outer.source)
        or free_elem_vars(outer.source)
        or free_elem_vars(inner.source)
    ):
        return node
    # The moved-in binder may now sit above another Δ binder: keep sinking it.
    return ast.For(
        inner.var, inner.source, _hoist_delta_binder(ast.For(outer.var, outer.source, inner.body))
    )


class _Compiler:
    """Single-pass compiler from AST nodes to :class:`_Node` producers."""

    def __init__(self) -> None:
        self.index_requirements: List[IndexRequirement] = []
        self._slot_count = 0
        self._elem_scope: Dict[str, int] = {}
        self._bag_scope: Dict[str, int] = {}
        # Free variables of the whole expression get parameter slots, filled
        # from the Environment once per evaluation.
        self._elem_params: Dict[str, int] = {}
        self._bag_params: Dict[str, int] = {}
        self._binder_depth = 0
        self._cache_keys = 0
        self._build_keys: Dict[Tuple[Expr, Tuple[Tuple[int, ...], ...]], int] = {}

    # ------------------------------------------------------------------ #
    # Slot management
    # ------------------------------------------------------------------ #
    def _new_slot(self) -> int:
        slot = self._slot_count
        self._slot_count += 1
        return slot

    def _elem_param_slot(self, name: str) -> int:
        if name not in self._elem_params:
            self._elem_params[name] = self._new_slot()
        return self._elem_params[name]

    def _bag_param_slot(self, name: str) -> int:
        if name not in self._bag_params:
            self._bag_params[name] = self._new_slot()
        return self._bag_params[name]

    def _elem_slot(self, name: str) -> Tuple[int, bool]:
        """Slot for an element variable: ``(slot, is_binder_slot)``."""
        if name in self._elem_scope:
            return self._elem_scope[name], True
        return self._elem_param_slot(name), False

    @contextmanager
    def _bound(self, scope: Dict[str, int], name: str, loop: bool = True) -> Iterator[int]:
        """Bind ``name`` to a fresh binder slot for the block (yields the slot).

        ``loop`` binders — everything but ``let`` — run their body many
        times, so loop-invariant nodes under them are worth hoisting.
        """
        saved = scope.get(name)
        slot = scope[name] = self._new_slot()
        self._binder_depth += loop
        try:
            yield slot
        finally:
            self._binder_depth -= loop
            if saved is None:
                del scope[name]
            else:
                scope[name] = saved

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def compile(self, expr: Expr) -> _Node:
        method = getattr(self, f"_compile_{type(expr).__name__}", None)
        if method is None:
            raise CompileError(f"no compile rule for node {type(expr).__name__}")
        node = method(expr)
        if (
            self._binder_depth > 0
            and not node.deps
            and isinstance(expr, _HOISTABLE)
        ):
            node = self._memoized(node)
        return node

    def _memoized(self, node: _Node) -> _Node:
        """Hoist a loop-invariant computation: at most one evaluation per call."""
        key = self._cache_keys
        self._cache_keys += 1
        compute, units = node.valuer(), node.units

        def cached(ctx: _Ctx, frame: List[Any]) -> Any:
            cache = ctx.cache
            if key in cache:
                return cache[key]
            value = cache[key] = compute(ctx, frame)
            _charge(ctx.counter, units)
            return value

        return _Node(frozenset(), value=cached)

    def _read(
        self,
        name: str,
        path: Tuple[int, ...] = (),
        context: str = "",
        unbound: type = UnboundVariableError,
    ) -> Tuple[kernels.Read, frozenset]:
        """Read of an element variable (projected along ``path``) and its deps."""
        slot, is_binder = self._elem_slot(name)
        deps = frozenset((slot,)) if is_binder else frozenset()
        return kernels.Read(slot, name, path, context, unbound), deps

    # ------------------------------------------------------------------ #
    # Sources and variables
    # ------------------------------------------------------------------ #
    @staticmethod
    def _named(bindings: str, name: str, kind: str) -> _Node:
        """A database source resolved by name from the context at runtime."""

        def value(ctx: _Ctx, frame: List[Any]) -> Any:
            try:
                return getattr(ctx, bindings)[name]
            except KeyError:
                raise UnboundVariableError(f"unknown {kind} {name!r}") from None

        return _Node(frozenset(), value=value)

    @staticmethod
    def _update_symbol(expr, expected: type, empty: Any, kind: str) -> _Node:
        """``Δ^order name``: the bound update, the empty value when unbound."""
        key = (expr.name, expr.order)

        def value(ctx: _Ctx, frame: List[Any]) -> Any:
            bound = ctx.deltas.get(key, empty)
            if not isinstance(bound, expected):
                raise EvaluationError(
                    f"update symbol Δ^{key[1]}{key[0]} is bound to a non-{kind} value"
                )
            return bound

        return _Node(frozenset(), value=value)

    def _compile_Relation(self, expr: ast.Relation) -> _Node:
        return self._named("relations", expr.name, "relation")

    def _compile_DictVar(self, expr: ast.DictVar) -> _Node:
        return self._named("dictionaries", expr.name, "dictionary")

    def _compile_DeltaRelation(self, expr: ast.DeltaRelation) -> _Node:
        return self._update_symbol(expr, Bag, EMPTY_BAG, "bag")

    def _compile_DeltaDictVar(self, expr: ast.DeltaDictVar) -> _Node:
        return self._update_symbol(expr, DictValue, EMPTY_DICT, "dictionary")

    def _compile_BagVar(self, expr: ast.BagVar) -> _Node:
        name = expr.name
        is_binder = name in self._bag_scope
        slot = self._bag_scope[name] if is_binder else self._bag_param_slot(name)

        def value(ctx: _Ctx, frame: List[Any]) -> Any:
            bound = frame[slot]
            if bound is _MISSING:
                raise UnboundVariableError(f"unbound bag variable {name!r}")
            return bound

        return _Node(frozenset((slot,)) if is_binder else frozenset(), value=value)

    # ------------------------------------------------------------------ #
    # Singletons and constants
    # ------------------------------------------------------------------ #
    def _compile_SngVar(self, expr: ast.SngVar) -> _Node:
        read, deps = self._read(expr.var)
        return _Node(deps, _EMITTED, element=read)

    def _compile_SngProj(self, expr: ast.SngProj) -> _Node:
        read, deps = self._read(expr.var, expr.path, f"sng(π({expr.var}))")
        return _Node(deps, _EMITTED, element=read)

    def _compile_SngUnit(self, expr: ast.SngUnit) -> _Node:
        return _Node(frozenset(), _EMITTED, element=kernels.Const(()))

    def _compile_Sng(self, expr: ast.Sng) -> _Node:
        body = self.compile(expr.body)
        body_value = body.valuer()

        def element(ctx: _Ctx, frame: List[Any]) -> Bag:
            return _as_bag(body_value(ctx, frame))

        # The body is a pipeline breaker: kernels call it per element.
        return _Node(body.deps, _units(body.units, _EMITTED), element=kernels.Call(element))

    def _compile_Empty(self, expr: ast.Empty) -> _Node:
        return _Node(frozenset(), value=lambda ctx, frame: EMPTY_BAG)

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    def _compile_operand(self, operand: preds.Operand) -> Tuple[Any, frozenset]:
        if isinstance(operand, preds.Const):
            return kernels.Const(operand.value), frozenset()
        if isinstance(operand, preds.VarPath):
            return self._read(operand.var, operand.path, "predicate", EvaluationError)
        raise CompileError(f"no compile rule for operand {type(operand).__name__}")

    def _compile_predicate(self, predicate: preds.Predicate) -> Tuple[Any, frozenset]:
        """Lower a predicate to a :mod:`~repro.nrc.kernels` expression and its deps."""
        if isinstance(predicate, preds.Comparison):
            left, left_deps = self._compile_operand(predicate.left)
            right, right_deps = self._compile_operand(predicate.right)
            return kernels.Compare(predicate.op, left, right), left_deps | right_deps
        if isinstance(predicate, (preds.And, preds.Or)):
            parts = [self._compile_predicate(term) for term in predicate.terms]
            deps = frozenset().union(*(part_deps for _, part_deps in parts))
            junction = kernels.AllOf if isinstance(predicate, preds.And) else kernels.AnyOf
            return junction(tuple(part for part, _ in parts)), deps
        if isinstance(predicate, preds.Not):
            term, deps = self._compile_predicate(predicate.term)
            return kernels.Negation(term), deps
        if isinstance(predicate, preds.TruePredicate):
            return kernels.Const(True), frozenset()
        raise CompileError(f"no compile rule for predicate {type(predicate).__name__}")

    def _compile_Pred(self, expr: ast.Pred) -> _Node:
        test, deps = self._compile_predicate(expr.predicate)
        module = KernelModule("predicate")
        module.walk("emit", slot=None, filters=[test], element=kernels.Const(()))
        return _Node(deps, _CHECKED, emit=module.build()["emit"])

    # ------------------------------------------------------------------ #
    # For: nested loops, guard analysis and hash-joins
    # ------------------------------------------------------------------ #
    @staticmethod
    def _flatten_conjuncts(predicate: preds.Predicate) -> List[preds.Predicate]:
        if isinstance(predicate, preds.And):
            conjuncts: List[preds.Predicate] = []
            for term in predicate.terms:
                conjuncts.extend(_Compiler._flatten_conjuncts(term))
            return conjuncts
        return [predicate]

    def _compile_For(self, expr: ast.For) -> _Node:
        if isinstance(expr.source, ast.Pred):
            return self._compile_guard(expr)
        source = self.compile(expr.source)
        # A loop-invariant source can be indexed once per evaluation, so its
        # guard conjuncts are hash-join candidates.
        join_var = None if source.deps else expr.var
        with self._bound(self._elem_scope, expr.var) as slot:
            guards, body = self._compile_chain(expr.body, join_var)
        if any(atom is not None for _, conjuncts in guards for _, _, atom in conjuncts):
            return self._compile_hash_join(expr, source, slot, guards, body)
        return self._compile_loop(expr, source, slot, guards, body)

    def _compile_chain(self, expr: Expr, join_var: Optional[str]) -> Tuple[List[_Guard], _Node]:
        """The chain of ``where`` guards (``for _w in p(x̄) union …``) at ``expr``, and its body.

        Each guard is ``(slot, conjuncts)``; a conjunct is ``(predicate,
        deps, atom)``, where ``atom`` is its hash-join equality over loop
        variable ``join_var`` (``None`` when it is not one, or when there is
        no candidate loop).  Guard i's predicate is the *source* of its
        binder, so it is compiled with only the loop variable and guards
        1..i-1 in scope: a guard binder never shadows names inside its own
        predicate, mirroring interpreter scoping — so an enclosing variable a
        later guard rebinds still probes as outer.
        """
        guards: List[_Guard] = []
        local_names = {join_var}
        with ExitStack() as scopes:
            while isinstance(expr, ast.For) and isinstance(expr.source, ast.Pred):
                conjuncts = []
                for conjunct in self._flatten_conjuncts(expr.source.predicate):
                    test, deps = self._compile_predicate(conjunct)
                    atom = None
                    if join_var is not None:
                        atom = self._equality_atom(conjunct, join_var, local_names)
                    conjuncts.append((test, deps, atom))
                slot = scopes.enter_context(self._bound(self._elem_scope, expr.var))
                guards.append((slot, conjuncts))
                local_names.add(expr.var)
                if expr.var == join_var:
                    # The guard rebinds the loop variable's name: later
                    # conjuncts mentioning it no longer see the loop element.
                    join_var = None
                expr = expr.body
            body = self.compile(expr)
        return guards, body

    def _equality_atom(
        self, conjunct: preds.Predicate, loop_var: str, local_names: Set[str]
    ) -> Optional[Tuple[Tuple[int, ...], Any]]:
        """Classify one guard conjunct as a hashable equality, if possible.

        A conjunct qualifies when it is ``==`` between a projection of the
        loop variable and something computable *outside* the loop: a
        projection of an enclosing variable, or a constant.  The result
        pairs the build-side path into the loop variable with the expression
        computing the matching key part from the outer frame.
        """
        if not isinstance(conjunct, preds.Comparison) or conjunct.op != "==":
            return None

        def is_loop_side(operand: preds.Operand) -> bool:
            return isinstance(operand, preds.VarPath) and operand.var == loop_var

        def is_outer_side(operand: preds.Operand) -> bool:
            if isinstance(operand, preds.Const):
                return True
            return isinstance(operand, preds.VarPath) and operand.var not in local_names

        if is_loop_side(conjunct.left) and is_outer_side(conjunct.right):
            loop_operand, outer_operand = conjunct.left, conjunct.right
        elif is_loop_side(conjunct.right) and is_outer_side(conjunct.left):
            loop_operand, outer_operand = conjunct.right, conjunct.left
        else:
            return None
        return loop_operand.path, self._compile_operand(outer_operand)[0]  # type: ignore[union-attr]

    @staticmethod
    def _guard_test(conjuncts: Sequence[_Conjunct]) -> kernels.AllOf:
        return kernels.AllOf(tuple(test for test, _, _ in conjuncts))

    def _split_chain(
        self, guards: Sequence[_Guard], body: _Node, lowest: int
    ) -> Tuple[Sequence[_Guard], _Node, frozenset]:
        """Split a guard chain into the guards a kernel inlines and the node below them.

        Guard i, with everything under it, is a loop-invariant sub-expression
        when it reads no binder slot: it is then memoised once per
        evaluation like any other (``compile`` does this for guard 0 of a
        chain that is not under a loop, so ``lowest`` is 1 there).  Returns
        the guards above the outermost memoised one, the node they filter
        (the body, or that memo) and the deps of the whole chain.
        """
        tail, end, deps = body, len(guards), body.deps
        for index in range(len(guards) - 1, -1, -1):
            slot, conjuncts = guards[index]
            deps = (deps - {slot}).union(*(test_deps for _, test_deps, _ in conjuncts))
            if index >= lowest and not deps:
                tail = self._memoized(self._where_node(guards[index:end], tail, deps))
                end = index
        return guards[:end], tail, deps

    @staticmethod
    def _pass_units(guards: Sequence[_Guard], tail: _Node) -> List[_Units]:
        """What a pass of each guard incurs: its binder's iteration, then the next test or tail."""
        return [
            _units(_ITERATED, _CHECKED if index + 1 < len(guards) else tail.units)
            for index in range(len(guards))
        ]

    def _where_node(self, guards: Sequence[_Guard], tail: _Node, deps: frozenset) -> _Node:
        """A chain of guards outside any loop kernel: one generated ``emit``."""
        module = KernelModule("where")
        module.walk(
            "emit",
            slot=None,
            guard_slots=[slot for slot, _ in guards],
            filters=[self._guard_test(conjuncts) for _, conjuncts in guards],
            element=tail.element,
            run=None if tail.element is not None else tail.emitter(),
            pass_units=self._pass_units(guards, tail),
        )
        return _Node(deps, _CHECKED, emit=module.build()["emit"])

    def _compile_guard(self, expr: ast.For) -> _Node:
        """``for _ in p(x̄) union body`` — a filter: test, then forward the body."""
        guards, body = self._compile_chain(expr, None)
        peeled, tail, deps = self._split_chain(guards, body, lowest=1)
        return self._where_node(peeled, tail, deps)

    def _compile_loop(
        self, expr: ast.For, source: _Node, slot: int, guards: Sequence[_Guard], body: _Node
    ) -> _Node:
        """``for x in e where p₁ … where pₖ union body``: one generated walk over ``e``."""
        peeled, tail, deps = self._split_chain(guards, body, lowest=0)
        source_value = source.valuer()
        # A hash-join body right under the loop resolves its index once for
        # the whole walk; over an empty build side there is nothing to walk.
        bind = tail.bind if not peeled else None
        run = None if tail.element is not None or bind is not None else tail.emitter()
        module = KernelModule(f"for {expr.var}")
        module.walk(
            "walk",
            slot=slot,
            guard_slots=[guard_slot for guard_slot, _ in peeled],
            filters=[self._guard_test(conjuncts) for _, conjuncts in peeled],
            element=tail.element,
            item_units=_units(_ITERATED, _CHECKED if peeled else tail.units),
            pass_units=self._pass_units(peeled, tail),
        )
        walk = module.build()["walk"]

        def emit(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            bag = _as_bag(source_value(ctx, frame))
            iterations = len(bag)
            if not iterations:
                return
            if bind is None:
                walk(ctx, frame, mult, sink, bag.items(), iterations, run)
                return
            bound = bind(ctx, frame)
            if bound is not None:
                probe, probe_units = bound
                walk(ctx, frame, mult, sink, bag.items(), iterations, probe)
                _charge(ctx.counter, probe_units, iterations)

        return _Node(source.deps | (deps - {slot}), source.units, emit=emit)

    def _compile_hash_join(
        self,
        expr: ast.For,
        source: _Node,
        slot: int,
        guards: Sequence[_Guard],
        body: _Node,
    ) -> _Node:
        """``for x in S union (where k(x)=k' …)`` as build-once/probe-per-tuple.

        Hashing is sound only for keys on which ``==`` coincides with
        dictionary-key matching: base values that are equal to themselves.
        Non-base keys (the interpreter rejects comparing them, but possibly
        only after an earlier conjunct short-circuits), ``NaN`` (not
        self-equal, so dict identity lookup would wrongly match it) and key
        computations that raise all degrade to ``emit_loop`` — a nested-loop
        twin that evaluates every guard conjunct in original order, exactly
        as the interpreter does.
        """
        conjuncts = [conjunct for _, guard_conjuncts in guards for conjunct in guard_conjuncts]
        atoms = [atom for _, _, atom in conjuncts if atom is not None]
        residual = [conjunct for conjunct in conjuncts if conjunct[2] is None]
        build_paths = tuple(path for path, _ in atoms)
        guard_slots = [guard_slot for guard_slot, _ in guards]
        if source.units:
            # No loop above charges them: the memo does, on first evaluation.
            source = self._memoized(source)
        source_value = source.valuer()
        # Sites over the same source and key paths share one build per
        # evaluation (both M-side terms of a swapped self-join delta): a
        # hash-join's source reads no binder slot (`_compile_For` checks
        # `not source.deps`), so equal sources denote one bag per evaluation.
        index_key = self._build_keys.setdefault((expr.source, build_paths), self._cache_keys)
        if index_key == self._cache_keys:
            self._cache_keys += 1
        build_context = f"hash-join build over {expr.var!r}"
        # A build side that is a bare base-relation reference can be served
        # by a *persistent* index maintained incrementally by the storage
        # layer; record the requirement so views can register it.
        relation_name = (
            expr.source.name if isinstance(expr.source, ast.Relation) else None
        )
        if relation_name is not None:
            requirement = IndexRequirement(relation_name, build_paths)
            if requirement not in self.index_requirements:  # first-seen order
                self.index_requirements.append(requirement)
        # The single hashing-soundness rule, shared with the storage layer's
        # persistent indexes so both always agree on which keys qualify.
        hashable = is_hashable_key

        # Two walks over the same body: a bucket, testing the residual
        # conjuncts, and the whole source, testing every conjunct.
        module = KernelModule(f"for {expr.var} (hash join)")
        run = None if body.element is not None else body.emitter()
        module.walk(
            "walk_bucket",
            slot=slot,
            guard_slots=guard_slots,
            filters=[self._guard_test(residual)] if residual else [],
            element=body.element,
            item_units=_units(_ITERATED, _CHECKED) if residual else _units(_ITERATED, body.units),
            pass_units=[body.units] if residual else [],
        )
        module.walk(
            "walk_loop",
            slot=slot,
            guard_slots=guard_slots,
            filters=[self._guard_test(conjuncts)],
            element=body.element,
            item_units=_units(_ITERATED, _CHECKED),
            pass_units=[body.units],
        )
        module.function("probe_key", kernels.TupleOf(tuple(probe for _, probe in atoms)))
        generated = module.build()
        walk_bucket, walk_loop = generated["walk_bucket"], generated["walk_loop"]
        probe_key = generated["probe_key"]

        def emit_loop(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            bag = _as_bag(source_value(ctx, frame))
            walk_loop(ctx, frame, mult, sink, bag.items(), len(bag), run)

        def emit_probe(get, ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            # Probe keys the index cannot answer faithfully (non-base, NaN,
            # or erroring operands whose error the interpreter may
            # short-circuit away) fall back to the loop for this probe.
            try:
                key = probe_key(ctx, frame)
            except EvaluationError:
                return emit_loop(ctx, frame, mult, sink)
            for part in key:
                if not hashable(part):
                    return emit_loop(ctx, frame, mult, sink)
            # Probe keys are deliberately *not* interned: equality-based
            # bucket lookup works regardless, and a scan of mostly-absent
            # probe keys must not evict the hot build-side keys from the
            # bounded interner.
            bucket = get(key)
            if bucket:
                walk_bucket(ctx, frame, mult, sink, bucket, len(bucket), run)

        def build(ctx: _Ctx, frame: List[Any]):
            """Per-evaluation build over the context's own relation snapshot."""
            bag = _as_bag(source_value(ctx, frame))
            maybe_count(ctx.counter, "hash_build_entries", len(bag))
            built: Any = {}
            try:
                for pair in bag.items():
                    key = []
                    for path in build_paths:
                        part = _project_value(pair[0], path, build_context)
                        if not hashable(part):
                            raise _UnhashableKey()
                        key.append(part)
                    # Interned: recurring keys canonicalize to one tuple, so
                    # bucket lookups take the identity fast path (shared with
                    # the storage layer's persistent indexes).
                    built.setdefault(intern_key(tuple(key)), []).append(pair)
            except (_UnhashableKey, EvaluationError):
                # A key that fails to project poisons the build like an
                # unhashable one: the loop twin raises only where the
                # interpreter's conjunct order reaches it.
                built = _NO_INDEX
            ctx.cache[index_key] = built
            return built

        def bind(ctx: _Ctx, frame: List[Any]) -> Optional[Tuple[_Emit, _Units]]:
            index = cached = ctx.cache.get(index_key)
            if cached is None or cached is _PERSISTENT:
                index = None
                provider = ctx.indexes
                if provider is not None and relation_name is not None:
                    # Persistent path: use the storage layer's index while it
                    # provably describes the very bag this query reads (bag
                    # identity — exact, since bags are immutable) and is not
                    # poisoned by unhashable keys; re-verified on every bind
                    # (see the sentinel's note).  Its buckets have the same
                    # (element, multiplicity) shape as a fresh build.
                    index = provider.probe(
                        relation_name, build_paths, _as_bag(source_value(ctx, frame))
                    )
                    if cached is None and index is not None:
                        maybe_count(ctx.counter, "index_hits")
                        ctx.cache[index_key] = _PERSISTENT
                    elif cached is None:
                        provider.note_rebuild(relation_name, build_paths)
                        maybe_count(ctx.counter, "index_rebuilds")
                if index is None:
                    index = build(ctx, frame)
            if index is _NO_INDEX:
                return emit_loop, ()
            if not index:
                # Empty build side: the interpreter never evaluates the
                # guard, so no operand error may fire here either.
                return None
            return partial(emit_probe, index.get), _PROBED

        # Every guard conjunct (atoms included) contributes deps; probe-side
        # slots are never local, so subtracting the local slots keeps them.
        deps = body.deps.union(*(test_deps for _, test_deps, _ in conjuncts))
        return _Node(frozenset(deps - {slot, *guard_slots}), bind=bind)

    # ------------------------------------------------------------------ #
    # Structural constructs
    # ------------------------------------------------------------------ #
    def _compile_Let(self, expr: ast.Let) -> _Node:
        bound = self.compile(expr.bound)
        with self._bound(self._bag_scope, expr.name, loop=False) as slot:
            body = self.compile(expr.body)
        bound_value, body_value = bound.valuer(), body.valuer()

        def value(ctx: _Ctx, frame: List[Any]) -> Any:
            frame[slot] = bound_value(ctx, frame)
            return body_value(ctx, frame)

        deps = bound.deps | frozenset(body.deps - {slot})
        return _Node(deps, _units(bound.units, body.units), value=value)

    def _compile_Flatten(self, expr: ast.Flatten) -> _Node:
        body = self.compile(expr.body)
        body_value = body.valuer()

        def emit(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            merges = 0
            for element, multiplicity in _as_bag(body_value(ctx, frame)).items():
                if not isinstance(element, Bag):
                    raise EvaluationError(
                        "flatten applied to a bag whose elements are not bags"
                    )
                merges += len(element)
                _merge(sink, element.items(), mult * multiplicity)
            maybe_count(ctx.counter, "union_merges", merges)

        return _Node(body.deps, body.units, emit=emit)

    def _compile_Product(self, expr: ast.Product) -> _Node:
        factors = [self.compile(factor) for factor in expr.factors]
        deps = frozenset().union(*(factor.deps for factor in factors))
        units = _units(*(factor.units for factor in factors))
        if all(factor.element is not None for factor in factors):
            # A tuple constructor: every factor is a scalar singleton, so the
            # product is the one tuple of their elements.
            element = kernels.TupleOf(tuple(factor.element for factor in factors))
            return _Node(deps, _units(units, (("product_pairs", len(factors)),)), element=element)
        factor_values = tuple(factor.valuer() for factor in factors)

        def emit(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            bags = [_as_bag(factor(ctx, frame)) for factor in factor_values]
            pairs = 0
            tuples: Dict[Any, int] = {(): mult}
            for bag in bags:
                pairs += len(tuples) * len(bag)
                tuples = {
                    prefix + (element,): prefix_mult * multiplicity
                    for prefix, prefix_mult in tuples.items()
                    for element, multiplicity in bag.items()
                }
            maybe_count(ctx.counter, "product_pairs", pairs)
            _merge(sink, tuples.items(), 1)

        return _Node(deps, units, emit=emit)

    def _compile_Union(self, expr: ast.Union) -> _Node:
        terms = [self.compile(term) for term in expr.terms]
        term_emits = tuple(term.emitter() for term in terms)

        def emit(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            for term in term_emits:
                term(ctx, frame, mult, sink)

        deps = frozenset().union(*(term.deps for term in terms))
        return _Node(deps, _units(*(term.units for term in terms)), emit=emit)

    def _compile_Negate(self, expr: ast.Negate) -> _Node:
        body = self.compile(expr.body)
        body_emit = body.emitter()

        def emit(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            body_emit(ctx, frame, -mult, sink)

        return _Node(body.deps, body.units, emit=emit)

    # ------------------------------------------------------------------ #
    # Labels and dictionaries
    # ------------------------------------------------------------------ #
    def _compile_InLabel(self, expr: ast.InLabel) -> _Node:
        reads = [self._read(param) for param in expr.params]
        deps = frozenset().union(*(read_deps for _, read_deps in reads))
        element = kernels.LabelOf(expr.iota, tuple(read for read, _ in reads))
        return _Node(deps, _EMITTED, element=element)

    def _compile_DictSingleton(self, expr: ast.DictSingleton) -> _Node:
        self._binder_depth += 1  # the body runs once per lookup, even with no parameter
        try:
            with ExitStack() as scopes:
                param_slots = tuple(
                    scopes.enter_context(self._bound(self._elem_scope, param))
                    for param in expr.params
                )
                body = self.compile(expr.body)
        finally:
            self._binder_depth -= 1
        iota = expr.iota
        arity = len(expr.params)
        body_value = body.valuer()
        lookup_units = _units(_LOOKED_UP, body.units)

        def value(ctx: _Ctx, frame: List[Any]) -> DictValue:
            # The dictionary is a closure over everything except its own
            # parameters (Section 5.2): snapshot the frame so later binder
            # writes in enclosing loops do not leak into lookups.
            snapshot = list(frame)

            def _lookup(values: Tuple[Any, ...]) -> Bag:
                if len(values) != arity:
                    raise EvaluationError(
                        f"label arity mismatch for dictionary {iota!r}: "
                        f"expected {arity} values, got {len(values)}"
                    )
                local = list(snapshot)
                for param_slot, param_value in zip(param_slots, values):
                    local[param_slot] = param_value
                _charge(ctx.counter, lookup_units)
                return _as_bag(body_value(ctx, local))

            return IntensionalDict(iota, _lookup)

        return _Node(frozenset(body.deps - set(param_slots)), value=value)

    def _compile_DictEmpty(self, expr: ast.DictEmpty) -> _Node:
        return _Node(frozenset(), value=lambda ctx, frame: EMPTY_DICT)

    def _compile_dict_terms(self, terms: Sequence[Expr], combine: str) -> _Node:
        """``DictUnion``/``DictAdd``: fold the terms with the ``combine`` method."""
        nodes = [self.compile(term) for term in terms]
        term_values = tuple(node.valuer() for node in nodes)

        def value(ctx: _Ctx, frame: List[Any]) -> DictValue:
            result: DictValue = EMPTY_DICT
            for term in term_values:
                result = getattr(result, combine)(_as_dict(term(ctx, frame)))
            return result

        deps = frozenset().union(*(node.deps for node in nodes))
        return _Node(deps, _units(*(node.units for node in nodes)), value=value)

    def _compile_DictUnion(self, expr: ast.DictUnion) -> _Node:
        return self._compile_dict_terms(expr.terms, "label_union")

    def _compile_DictAdd(self, expr: ast.DictAdd) -> _Node:
        return self._compile_dict_terms(expr.terms, "add")

    def _compile_DictLookup(self, expr: ast.DictLookup) -> _Node:
        dictionary = self.compile(expr.dictionary)
        dictionary_value = dictionary.valuer()
        read, read_deps = self._read(expr.var, expr.path, "dictionary lookup")
        read_label, label_slot = kernels.checked_read(read), read.slot

        def value(ctx: _Ctx, frame: List[Any]) -> Bag:
            found = _as_dict(dictionary_value(ctx, frame))
            label = read_label(frame[label_slot])
            if not isinstance(label, Label):
                raise EvaluationError(f"dictionary lookup key is not a label: {label!r}")
            return found.lookup(label)

        return _Node(
            dictionary.deps | read_deps, _units(dictionary.units, _LOOKED_UP), value=value
        )


class CompiledQuery:
    """A compiled NRC+ expression: evaluate it many times, over any bindings.

    The compiled form closes over nothing database-specific — relations,
    dictionaries, update symbols and externally-bound variables are resolved
    from the :class:`~repro.nrc.evaluator.Environment` passed to each
    :meth:`evaluate` call, so one compiled object serves every update of a
    maintained view.
    """

    def __init__(self, expr: Expr) -> None:
        self.expr = expr
        compiler = _Compiler()
        root = compiler.compile(_delta_first(expr))
        # The root is a pipeline breaker: a bag-typed query materialises its
        # accumulator here, once, without re-hashing it — or, given a target
        # store, emits into that store's dict instead.  A value-typed root
        # (a relation, an update symbol, a variable) already is its bag.
        self._value, self._units = root.valuer(), root.units
        self._emit = root.emitter() if root.value is None else None
        self._slot_count = compiler._slot_count
        self._elem_params = tuple(compiler._elem_params.items())
        self._bag_params = tuple(compiler._bag_params.items())
        # The join atoms this query probes over base relations (deduplicated,
        # first-seen order), registrable as persistent storage indexes.
        self.index_requirements: Tuple[IndexRequirement, ...] = tuple(
            compiler.index_requirements
        )

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        env: Optional[Environment] = None,
        counter: Optional[OpCounter] = None,
        into: Optional[BagBuilder] = None,
    ):
        """Evaluate against ``env`` (mirrors :func:`repro.nrc.evaluator.evaluate`).

        With ``into`` (a :class:`~repro.bag.builder.BagBuilder`, e.g. a
        view's :class:`~repro.storage.ResultStore`) the bag result is folded
        into it, ``into ⊎ ⟦e⟧``, and ``None`` is returned: the root emits
        its pairs straight into ``into.writable()`` — copy-on-write first,
        then one hash-and-store per output pair, no intermediate bag.  A
        value-typed root folds its existing bag with ``apply_bag``.  A walk
        that raises leaves ``into`` partly folded; the caller restores it.

        A ``TypeError`` raised by the generated code (an ordered comparison
        between incomparable base values, say) leaves as an
        :class:`~repro.errors.EvaluationError`.
        """
        env = env or Environment()
        frame: List[Any] = [_MISSING] * self._slot_count
        for name, slot in self._elem_params:
            if name in env.elem_vars:
                frame[slot] = env.elem_vars[name]
        for name, slot in self._bag_params:
            if name in env.bag_vars:
                frame[slot] = env.bag_vars[name]
        ctx = _Ctx(
            env.relations,
            env.dictionaries,
            env.deltas,
            counter,
            getattr(env, "indexes", None),
        )
        value = None
        try:
            if into is None:
                value = self._value(ctx, frame)
            elif self._emit is not None:
                self._emit(ctx, frame, 1, into.writable())
            else:
                into.apply_bag(_as_bag(self._value(ctx, frame)))
        except TypeError as error:
            if not kernels.raised_in_kernel(error):
                raise
            raise EvaluationError(str(error)) from error
        _charge(counter, self._units)
        return value

    def evaluate_bag(
        self, env: Optional[Environment] = None, counter: Optional[OpCounter] = None
    ) -> Bag:
        """Evaluate and require a bag result (mirrors :func:`evaluate_bag`)."""
        value = self.evaluate(env, counter)
        if not isinstance(value, Bag):
            raise EvaluationError(f"expected a bag result, got {value!r}")
        return value

    def __eq__(self, other: Any) -> bool:
        if other is self:
            return True
        if not isinstance(other, CompiledQuery):
            return NotImplemented
        # The expression determines the whole compilation deterministically,
        # so expr equality is pipeline equality.
        return self.expr == other.expr

    def __hash__(self) -> int:
        return hash(self.expr)

    def __repr__(self) -> str:
        return f"CompiledQuery({type(self.expr).__name__}, slots={self._slot_count})"
