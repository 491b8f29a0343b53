"""Compilation of NRC+ / IncNRC+_l expressions into fused, push-based pipelines.

The recursive interpreter (:mod:`repro.nrc.evaluator`) pays prices on every
update the cost model does not charge for: each ``for`` binder copies a
whole :class:`~repro.nrc.evaluator.Environment`, each ``for``-over-``for``
join is a nested loop with a predicate check per pair — time proportional to
the *product* of the operands instead of the matching pairs assumed by the
paper's ``tcost`` bound (Section 4) — and every operator hands its parent a
freshly built bag.  This module lowers an expression once, at
view-registration time, into a tree of closures that

* compiles every bag-typed node to a **producer** ``emit(ctx, frame, mult,
  sink)`` adding ``mult × ⟦e⟧`` into the caller's accumulator: loops call
  their body's ``emit`` with the scaled multiplicity, so an evaluation
  builds no intermediate bag.  Bags materialise only at *pipeline breakers*
  — the query root, ``let`` bounds and bodies, hoisted loop-invariant
  nodes, loop and ``flatten`` sources, general ``×`` factors, ``sng(e)`` and
  dictionary bodies (see :class:`_Node`),
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
``tests/test_compile.py`` enforce this, and the CI smoke benchmark re-checks
it on real workloads).  Setting the environment variable
:data:`REPRO_NO_COMPILE` (to any non-empty value) disables compilation
globally — :func:`try_compile` then returns ``None`` and every view falls
back to the interpreter, which evaluates the delta as derived, in its
literal binder order.

One bounded caveat applies to *ill-typed* input only: a hash-join does not
evaluate guard conjuncts for pairs its index already excludes, so an error
the interpreter would raise on such a pair (e.g. an ordered comparison over
non-base values, which the type system forbids) is not reproduced.  And
the compiled pipeline walks sources and pairs in its own order (deltas
first), so which of several errors fires first — hence which
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

Operation counters are threaded through so the cost-model experiments keep
working: compiled evaluation reports the operations it *actually* performs
(hash probes instead of skipped pairs, no merges of bags it never built),
added in bulk — once per loop, not once per element.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.bag.bag import Bag, EMPTY_BAG
from repro.bag.values import BASE_TYPES, intern_key, is_hashable_key
from repro.dictionaries import DictValue, EMPTY_DICT, IntensionalDict
from repro.errors import CompileError, EvaluationError, UnboundVariableError
from repro.instrument import OpCounter, maybe_count
from repro.labels import Label
from repro.nrc import ast
from repro.nrc import predicates as preds
from repro.nrc.analysis import free_elem_vars, referenced_deltas
from repro.nrc.ast import Expr
from repro.nrc.evaluator import Environment, evaluate_bag as _interpret_bag
from repro.nrc.traverse import map_expr

__all__ = [
    "REPRO_NO_COMPILE",
    "CompiledQuery",
    "IndexRequirement",
    "compile_expr",
    "compilation_enabled",
    "forced_interpretation",
    "rebuild_compiled",
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
) -> Bag:
    """Evaluate ``expr`` through ``compiled`` when available, else interpret.

    The shared dispatch the view classes use on every (re-)evaluation:
    ``compiled`` is the result of :func:`try_compile` for ``expr``, possibly
    ``None``.
    """
    if compiled is not None:
        return compiled.evaluate_bag(env, counter)
    return _interpret_bag(expr, env, counter)



# --------------------------------------------------------------------------- #
# Runtime pieces
# --------------------------------------------------------------------------- #
class _Missing:
    """Sentinel for an unbound frame slot."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()


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


def _project_value(value: Any, path: Tuple[int, ...], context: str) -> Any:
    for index in path:
        if not isinstance(value, tuple) or index >= len(value):
            raise EvaluationError(f"{context}: projection .{index} fails on {value!r}")
        value = value[index]
    return value


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


class _Node:
    """A compiled node: one primary form, every other form derived from it.

    A compile rule supplies exactly one of

    ``emit(ctx, frame, mult, sink)``
        the producer form of a bag-typed node: add ``mult × ⟦e⟧`` into the
        caller's accumulator ``sink`` (element → multiplicity), removing
        entries that cancel to zero.  ``mult`` is never zero.
    ``element(ctx, frame)``
        a scalar singleton (``sng(x)``, a tuple of them, a label): the one
        element it denotes, with multiplicity 1.
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
        self.element: Optional[_Fn] = element
        self.bind: Optional[Callable[[_Ctx, List[Any]], Optional[Tuple[_Emit, _Units]]]] = bind
        self.value: Optional[_Fn] = value

    def emitter(self) -> _Emit:
        if self.emit is not None:
            return self.emit
        if self.element is not None:
            element = self.element

            def emit_element(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
                out = element(ctx, frame)
                updated = sink.get(out, 0) + mult
                if updated:
                    sink[out] = updated
                else:
                    sink.pop(out, None)

            return emit_element
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


def _reader(slot: int, name: str, path: Tuple[int, ...], context: str, unbound: type) -> _Fn:
    """Closure reading variable ``name`` from its frame slot, then projecting."""

    def read(ctx: _Ctx, frame: List[Any]) -> Any:
        value = frame[slot]
        if value is _MISSING:
            raise unbound(f"unbound element variable {name!r}")
        for index in path:
            if not isinstance(value, tuple) or index >= len(value):
                raise EvaluationError(f"{context}: projection .{index} fails on {value!r}")
            value = value[index]
        return value

    return read


def _all_of(fns: Sequence[_Fn]) -> _Fn:
    """Conjunction of compiled predicates, short-circuiting in order."""
    if len(fns) == 1:
        return fns[0]

    def test(ctx: _Ctx, frame: List[Any]) -> bool:
        for fn in fns:
            if not fn(ctx, frame):
                return False
        return True

    return test


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
        # Slots + no dict: reconstruct from the two defining fields, which
        # also keeps requirements inside pickled pipeline descriptions
        # value-equal across processes.
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
    ) -> Tuple[_Fn, frozenset]:
        """Reader of an element variable (projected along ``path``) and its deps."""
        slot, is_binder = self._elem_slot(name)
        deps = frozenset((slot,)) if is_binder else frozenset()
        return _reader(slot, name, path, context, unbound), deps

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
        return _Node(frozenset(), _EMITTED, element=lambda ctx, frame: ())

    def _compile_Sng(self, expr: ast.Sng) -> _Node:
        body = self.compile(expr.body)
        body_value = body.valuer()

        def element(ctx: _Ctx, frame: List[Any]) -> Bag:
            return _as_bag(body_value(ctx, frame))

        return _Node(body.deps, _units(body.units, _EMITTED), element=element)

    def _compile_Empty(self, expr: ast.Empty) -> _Node:
        return _Node(frozenset(), value=lambda ctx, frame: EMPTY_BAG)

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    def _compile_operand(self, operand: preds.Operand) -> Tuple[_Fn, frozenset]:
        if isinstance(operand, preds.Const):
            constant = operand.value
            return (lambda ctx, frame: constant), frozenset()
        if isinstance(operand, preds.VarPath):
            return self._read(operand.var, operand.path, "predicate", EvaluationError)
        raise CompileError(f"no compile rule for operand {type(operand).__name__}")

    def _compile_predicate(self, predicate: preds.Predicate) -> Tuple[_Fn, frozenset]:
        """Compile a predicate to a ``fn(ctx, frame) -> bool`` closure."""
        if isinstance(predicate, preds.Comparison):
            left_fn, left_deps = self._compile_operand(predicate.left)
            right_fn, right_deps = self._compile_operand(predicate.right)
            comparator = preds._COMPARATORS[predicate.op]
            op = predicate.op

            def fn_cmp(ctx: _Ctx, frame: List[Any]) -> bool:
                left = left_fn(ctx, frame)
                right = right_fn(ctx, frame)
                if not (isinstance(left, BASE_TYPES) and isinstance(right, BASE_TYPES)):
                    raise EvaluationError(
                        "predicates may only compare base values "
                        f"(got {left!r} {op} {right!r}); comparisons over bags "
                        "would allow simulating negation (Appendix A.2)"
                    )
                return comparator(left, right)

            return fn_cmp, left_deps | right_deps
        if isinstance(predicate, (preds.And, preds.Or)):
            parts = [self._compile_predicate(term) for term in predicate.terms]
            fns = [fn for fn, _ in parts]
            deps = frozenset().union(*(part_deps for _, part_deps in parts))
            if isinstance(predicate, preds.And):
                return _all_of(fns), deps

            def fn_or(ctx: _Ctx, frame: List[Any]) -> bool:
                for fn in fns:
                    if fn(ctx, frame):
                        return True
                return False

            return fn_or, deps
        if isinstance(predicate, preds.Not):
            inner_fn, deps = self._compile_predicate(predicate.term)
            return (lambda ctx, frame: not inner_fn(ctx, frame)), deps
        if isinstance(predicate, preds.TruePredicate):
            return (lambda ctx, frame: True), frozenset()
        raise CompileError(f"no compile rule for predicate {type(predicate).__name__}")

    def _compile_Pred(self, expr: ast.Pred) -> _Node:
        test, deps = self._compile_predicate(expr.predicate)

        def emit(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            if test(ctx, frame):
                _merge(sink, (((), 1),), mult)

        return _Node(deps, _CHECKED, emit=emit)

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

        # Peel the chain of `where` guards (`for _w in p(x̄) union …`) sitting
        # directly under this binder; the guard predicates are the join
        # condition candidates.
        guard_specs: List[Tuple[preds.Predicate, str]] = []
        body = expr.body
        while isinstance(body, ast.For) and isinstance(body.source, ast.Pred):
            guard_specs.append((body.source.predicate, body.var))
            body = body.body

        with self._bound(self._elem_scope, expr.var) as slot, ExitStack() as guards:
            atoms: List[Tuple[Tuple[int, ...], _Fn]] = []  # (build path, probe)
            residual: List[Tuple[_Fn, frozenset]] = []
            conjuncts: List[Tuple[_Fn, frozenset]] = []
            guard_slots: List[int] = []
            if guard_specs and not source.deps:
                # Hash-join candidate: the build side is loop-invariant, so
                # an index over it can be built once per evaluation.  Guard
                # i's predicate is the *source* of its binder, so it is
                # compiled with only the loop variable and guards 1..i-1 in
                # scope: a guard binder never shadows names inside its own
                # predicate, mirroring interpreter scoping — so an enclosing
                # variable a later guard rebinds still probes as outer.
                local_names = {expr.var}
                loop_var_shadowed = False
                for predicate, guard_name in guard_specs:
                    for conjunct in self._flatten_conjuncts(predicate):
                        compiled_conjunct = self._compile_predicate(conjunct)
                        conjuncts.append(compiled_conjunct)
                        # Once a guard binder has rebound the loop variable's
                        # name, later conjuncts mentioning it no longer see
                        # the loop element — they can't be hash atoms.
                        atom = (
                            self._equality_atom(conjunct, expr.var, local_names)
                            if not loop_var_shadowed
                            else None
                        )
                        if atom is not None:
                            atoms.append(atom)
                        else:
                            residual.append(compiled_conjunct)
                    guard_slots.append(
                        guards.enter_context(self._bound(self._elem_scope, guard_name))
                    )
                    local_names.add(guard_name)
                    if guard_name == expr.var:
                        loop_var_shadowed = True
            if atoms:
                return self._compile_hash_join(
                    expr, source, slot, tuple(guard_slots), atoms, residual, conjuncts, body
                )
            # No hashable equality found: fall back to the nested loop,
            # recompiling the original body so the guard binders are
            # introduced by their own For nodes with correct scoping.
            guards.close()
            return self._compile_loop(expr, source, slot)

    def _equality_atom(
        self, conjunct: preds.Predicate, loop_var: str, local_names: Set[str]
    ) -> Optional[Tuple[Tuple[int, ...], _Fn]]:
        """Classify one guard conjunct as a hashable equality, if possible.

        A conjunct qualifies when it is ``==`` between a projection of the
        loop variable and something computable *outside* the loop: a
        projection of an enclosing variable, or a constant.  The result
        pairs the build-side path into the loop variable with a closure
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

    def _compile_guard(self, expr: ast.For) -> _Node:
        """``for _ in p(x̄) union body`` — a filter: test, then forward the body."""
        # The predicate is the binder's *source*: compiled before the binder
        # is in scope, so the guard variable never shadows names inside it.
        test, test_deps = self._compile_predicate(expr.source.predicate)  # type: ignore[attr-defined]
        with self._bound(self._elem_scope, expr.var) as slot:
            body = self.compile(expr.body)
        body_emit = body.emitter()
        pass_units = _units(_ITERATED, body.units)

        def emit(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            if test(ctx, frame):
                frame[slot] = ()
                body_emit(ctx, frame, mult, sink)
                _charge(ctx.counter, pass_units)

        return _Node(test_deps | (body.deps - {slot}), _CHECKED, emit=emit)

    def _compile_loop(self, expr: ast.For, source: _Node, slot: int) -> _Node:
        body = self.compile(expr.body)
        source_value = source.valuer()
        body_emit, body_bind = body.emitter(), body.bind
        iteration_units = _units(_ITERATED, body.units)

        def emit(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            bag = _as_bag(source_value(ctx, frame))
            iterations = len(bag)
            if not iterations:
                return
            # A hash-join body resolves its index once for the whole walk;
            # over an empty build side there is nothing to walk for.
            run, run_units = body_emit, ()
            if body_bind is not None:
                bound = body_bind(ctx, frame)
                if bound is None:
                    return
                run, run_units = bound
            for element, multiplicity in bag.items():
                frame[slot] = element
                run(ctx, frame, mult * multiplicity, sink)
            _charge(ctx.counter, iteration_units, iterations)
            _charge(ctx.counter, run_units, iterations)

        return _Node(source.deps | (body.deps - {slot}), source.units, emit=emit)

    def _compile_hash_join(
        self,
        expr: ast.For,
        source: _Node,
        slot: int,
        guard_slots: Tuple[int, ...],
        atoms: Sequence[Tuple[Tuple[int, ...], _Fn]],
        residual: Sequence[Tuple[_Fn, frozenset]],
        conjuncts: Sequence[Tuple[_Fn, frozenset]],
        body_expr: Expr,
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
        build_paths = tuple(path for path, _ in atoms)
        probe_fns = tuple(probe for _, probe in atoms)
        body = self.compile(body_expr)
        body_emit, body_units = body.emitter(), body.units
        if source.units:
            # No loop above charges them: the memo does, on first evaluation.
            source = self._memoized(source)
        source_value = source.valuer()
        all_conjuncts = _all_of([fn for fn, _ in conjuncts])
        residual_test = _all_of([fn for fn, _ in residual]) if residual else None
        checked_units = _units(_ITERATED, _CHECKED)
        bucket_units = checked_units if residual else _ITERATED
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

        def walk(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int], pairs, test) -> None:
            """Bind each pair, forward the body for those passing ``test``."""
            for guard_slot in guard_slots:
                frame[guard_slot] = ()
            passes = 0
            for element, multiplicity in pairs:
                frame[slot] = element
                if test is None or test(ctx, frame):
                    passes += 1
                    body_emit(ctx, frame, mult * multiplicity, sink)
            _charge(ctx.counter, body_units, passes)

        def emit_loop(ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            bag = _as_bag(source_value(ctx, frame))
            walk(ctx, frame, mult, sink, bag.items(), all_conjuncts)
            _charge(ctx.counter, checked_units, len(bag))

        def emit_probe(get, ctx: _Ctx, frame: List[Any], mult: int, sink: Dict[Any, int]) -> None:
            try:
                key = []
                for probe in probe_fns:
                    part = probe(ctx, frame)
                    if not hashable(part):
                        raise _UnhashableKey()
                    key.append(part)
            except (_UnhashableKey, EvaluationError):
                # Probe keys the index cannot answer faithfully (non-base,
                # NaN, or erroring operands whose error the interpreter may
                # short-circuit away) fall back to the loop for this probe.
                return emit_loop(ctx, frame, mult, sink)
            # Probe keys are deliberately *not* interned: equality-based
            # bucket lookup works regardless, and a scan of mostly-absent
            # probe keys must not evict the hot build-side keys from the
            # bounded interner.
            bucket = get(tuple(key))
            if bucket:
                walk(ctx, frame, mult, sink, bucket, residual_test)
                _charge(ctx.counter, bucket_units, len(bucket))

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
        deps = body.deps.union(*(part_deps for _, part_deps in conjuncts))
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
            parts = tuple(factor.element for factor in factors)

            def element(ctx: _Ctx, frame: List[Any]) -> Tuple[Any, ...]:
                return tuple([part(ctx, frame) for part in parts])

            return _Node(deps, _units(units, (("product_pairs", len(parts)),)), element=element)
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
        readers = [self._read(param) for param in expr.params]
        reader_fns = tuple(fn for fn, _ in readers)
        iota = expr.iota

        def element(ctx: _Ctx, frame: List[Any]) -> Label:
            return Label(iota, tuple([read(ctx, frame) for read in reader_fns]))

        deps = frozenset().union(*(reader_deps for _, reader_deps in readers))
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

        def value(ctx: _Ctx, frame: List[Any]) -> Bag:
            found = _as_dict(dictionary_value(ctx, frame))
            label = read(ctx, frame)
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
        # accumulator here, once, without re-hashing it.
        self._value, self._units = root.valuer(), root.units
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
        self, env: Optional[Environment] = None, counter: Optional[OpCounter] = None
    ):
        """Evaluate against ``env`` (mirrors :func:`repro.nrc.evaluator.evaluate`)."""
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
        value = self._value(ctx, frame)
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

    # ------------------------------------------------------------------ #
    # Rebuildable-by-description (sendable execution state)
    # ------------------------------------------------------------------ #
    def describe_pipeline(self) -> Dict[str, Any]:
        """The pipeline as data: expression, slot layout, index requirements.

        This is what actually travels between processes — the compiled
        closures close over each other and cannot be pickled, but every AST
        node is a frozen dataclass with structural equality, so the
        expression itself is the complete, canonical build recipe.  The slot
        layout and index-requirement keys ride along as a cross-version
        consistency check: :func:`rebuild_compiled` recompiles on the
        receiving side and verifies the layout matches before serving.
        """
        return {
            "expr": self.expr,
            "slot_count": self._slot_count,
            "elem_params": self._elem_params,
            "bag_params": self._bag_params,
            "index_requirements": tuple(
                requirement.key() for requirement in self.index_requirements
            ),
        }

    def _layout(self) -> Tuple[Any, ...]:
        return (
            self._slot_count,
            self._elem_params,
            self._bag_params,
            tuple(requirement.key() for requirement in self.index_requirements),
        )

    def __reduce__(self):
        description = self.describe_pipeline()
        return (rebuild_compiled, (description,))

    def __eq__(self, other: Any) -> bool:
        if other is self:
            return True
        if not isinstance(other, CompiledQuery):
            return NotImplemented
        # The expression determines the whole compilation deterministically,
        # so expr equality is pipeline equality (and survives pickling).
        return self.expr == other.expr

    def __hash__(self) -> int:
        return hash(self.expr)

    def __repr__(self) -> str:
        return f"CompiledQuery({type(self.expr).__name__}, slots={self._slot_count})"


#: Per-process rebuild cache: a worker that receives the same pipeline
#: description many times (one per shard-apply unit) compiles it once.
#: Keyed by the expression, which is frozen, hashable and value-equal.
_REBUILD_CACHE: Dict[Expr, CompiledQuery] = {}
_REBUILD_CACHE_LIMIT = 256


def rebuild_compiled(description: Dict[str, Any]) -> CompiledQuery:
    """Recompile a pipeline from its :meth:`CompiledQuery.describe_pipeline`.

    The unpickle target for compiled pipelines: rebuilds from the expression
    (cached per process) and cross-checks the described slot layout and index
    requirements against the fresh build, so a description produced by a
    different library version can never silently bind slots differently.
    """
    expr = description["expr"]
    compiled = _REBUILD_CACHE.get(expr)
    if compiled is None:
        if len(_REBUILD_CACHE) >= _REBUILD_CACHE_LIMIT:
            _REBUILD_CACHE.pop(next(iter(_REBUILD_CACHE)))
        compiled = CompiledQuery(expr)
        _REBUILD_CACHE[expr] = compiled
    described = (
        description["slot_count"],
        tuple(description["elem_params"]),
        tuple(description["bag_params"]),
        tuple(description["index_requirements"]),
    )
    if compiled._layout() != described:
        raise CompileError(
            "compiled-pipeline description does not match this build: "
            f"described layout {described!r} != rebuilt {compiled._layout()!r}"
        )
    return compiled
