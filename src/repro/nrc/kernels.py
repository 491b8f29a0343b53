"""Generated element kernels: the per-element half of a compiled pipeline.

:mod:`repro.nrc.compile` lowers an expression to a tree of closures.  The
closures that run once per evaluation or once per hash probe stay closures;
the work done once per *element* does not.  A variable read with its
projection path, a predicate (comparisons, ``∧``, ``∨``, ``¬``, ``true``) and
an output element (a tuple constructor, ``sng(x)``, ``sng(π(x))``, a label)
are described by the small expression IR below, and every *walk site* — a
``for`` loop over its ``where`` chain, a hash-join bucket walk — is written
out as one Python function whose loop binds the element, tests the inlined
predicate, builds the inlined output element and folds it into ``sink`` in
place, then adds its counters once.  Each compile rule that needs such a
function asks a :class:`KernelModule` for it; the module renders the source
and compiles it once, at registration, under a ``<nrc kernel: …>`` code
filename so a traceback names the site.

The generated code keeps three rules:

* **Bound names, never rendered values.**  Constants, label indices,
  variable names (for error messages), counter names and helper functions
  enter a kernel's namespace under generated names; the source holds only
  those names, frame slot numbers, projection indices and counter amounts —
  integers the compiler computed.
* **Errors are unchanged.**  A projection's fast path tests ``type(v) is
  tuple and len(v) > i`` inline; anything else (a ``namedtuple``, a missing
  binding, a short tuple) falls back to :func:`project`'s checks, so the
  exception class and message are the ones the closures raised.  A
  comparison's fast path tests that both operand types are exact base types;
  anything else takes the checked comparison.  A variable bound outside the
  walk is loaded into a local once, before it (a frame read, which cannot
  raise); every read raises only where the interpreter would read it,
  operands left to right.
* **Nesting is bounded.**  A sub-expression nested deeper than
  :data:`_MAX_DEPTH` becomes a generated helper function, so predicates of
  any depth stay below CPython's parser nesting limit.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.bag.values import BASE_TYPES
from repro.errors import EvaluationError
from repro.labels import Label
from repro.nrc.predicates import _COMPARATORS

__all__ = [
    "MISSING",
    "AllOf",
    "AnyOf",
    "Call",
    "Compare",
    "Const",
    "KernelModule",
    "LabelOf",
    "Negation",
    "Read",
    "TupleOf",
    "checked_read",
    "project",
]


class _Missing:
    """Sentinel for an unbound frame slot."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


MISSING = _Missing()


def project(value: Any, path: Tuple[int, ...], context: str) -> Any:
    """Project ``value`` along ``path``; the checked path every kernel falls back to."""
    for index in path:
        if not isinstance(value, tuple) or index >= len(value):
            raise EvaluationError(f"{context}: projection .{index} fails on {value!r}")
        value = value[index]
    return value


# --------------------------------------------------------------------------- #
# Expression IR
# --------------------------------------------------------------------------- #
class Read(NamedTuple):
    """Element variable ``name`` (frame ``slot``) projected along ``path``.

    A missing binding raises ``unbound``; a failing projection raises
    :class:`~repro.errors.EvaluationError` prefixed with ``context``.
    """

    slot: int
    name: str
    path: Tuple[int, ...]
    context: str
    unbound: type


class Const(NamedTuple):
    """A constant value (bound into the kernel's namespace)."""

    value: Any


class Compare(NamedTuple):
    """``left op right`` over base values; operands are ``Read`` or ``Const``."""

    op: str
    left: Any
    right: Any


class AllOf(NamedTuple):
    """Short-circuiting conjunction, in order."""

    terms: Tuple[Any, ...]


class AnyOf(NamedTuple):
    """Short-circuiting disjunction, in order."""

    terms: Tuple[Any, ...]


class Negation(NamedTuple):
    """``¬ term``."""

    term: Any


class TupleOf(NamedTuple):
    """The tuple of its parts' values."""

    parts: Tuple[Any, ...]


class LabelOf(NamedTuple):
    """The label ``⟨iota, (parts…)⟩``."""

    iota: str
    parts: Tuple[Any, ...]


class Call(NamedTuple):
    """``fn(ctx, frame)``: a closure the kernel calls per element (``sng(e)``).

    It reads its variables from the frame, so a kernel that inlines one
    writes its loop element into the frame first.
    """

    fn: Callable[[Any, List[Any]], Any]


_Units = Tuple[Tuple[str, int], ...]

#: Sub-expressions nested deeper than this become helper functions: the
#: rendered text then stays far below the parser's 200-level bracket limit.
_MAX_DEPTH = 16

#: Exact types the inline comparison fast path accepts; subclasses of base
#: types take the checked comparison, which accepts them too.
_BASE_EXACT = frozenset(BASE_TYPES)


def _checked_comparison(op: str) -> Callable[[Any, Any], bool]:
    comparator = _COMPARATORS[op]

    def compare(left: Any, right: Any) -> bool:
        if not (isinstance(left, BASE_TYPES) and isinstance(right, BASE_TYPES)):
            raise EvaluationError(
                "predicates may only compare base values "
                f"(got {left!r} {op} {right!r}); comparisons over bags "
                "would allow simulating negation (Appendix A.2)"
            )
        try:
            return comparator(left, right)
        except TypeError as error:
            raise EvaluationError(f"cannot compare {left!r} {op} {right!r}") from error

    return compare


_CHECKED_COMPARISONS = {op: _checked_comparison(op) for op in _COMPARATORS}


#: The file name every generated module compiles under, up to its site.
_FILENAME = "<nrc kernel: "


def raised_in_kernel(error: BaseException) -> bool:
    """True when the innermost frame ``error`` passed through is generated code.

    Lets the evaluation boundary turn a ``TypeError`` from an inlined
    comparison or output element into an evaluation error without a check
    per element, and leave every other ``TypeError`` alone.
    """
    trace = error.__traceback__
    if trace is None:
        return False
    while trace.tb_next is not None:
        trace = trace.tb_next
    return trace.tb_frame.f_code.co_filename.startswith(_FILENAME)


def checked_read(read: Read) -> Callable[[Any], Any]:
    """``read`` applied to a frame slot's value, with every check."""
    name, path, context, unbound = read.name, read.path, read.context, read.unbound

    def checked(value: Any) -> Any:
        if value is MISSING:
            raise unbound(f"unbound element variable {name!r}")
        return project(value, path, context)

    return checked


def _walk_ir(roots: Sequence[Any]):
    """Every IR node reachable from ``roots`` (iteratively: predicates nest deep)."""
    stack = [root for root in roots if root is not None]
    while stack:
        node = stack.pop()
        yield node
        kind = type(node)
        if kind is Compare:
            stack += (node.left, node.right)
        elif kind in (AllOf, AnyOf):
            stack += node.terms
        elif kind is Negation:
            stack.append(node.term)
        elif kind in (TupleOf, LabelOf):
            stack += node.parts


class _Scope:
    """How one generated function reads the frame slots it needs.

    ``locals`` maps a slot to the local holding its value: ``e`` for the
    loop element, ``g…`` for a guard binder (always ``()``, so ``bound``:
    never missing), ``o…`` for a slot bound outside the walk.
    """

    __slots__ = ("locals", "bound", "params")

    def __init__(self, locals_: Dict[int, str], bound: Sequence[str]) -> None:
        self.locals = locals_
        self.bound = frozenset(bound)
        self.params = ", ".join(["ctx", "frame", *sorted(set(locals_.values()))])


def _fast_projection(local: str, path: Tuple[int, ...]) -> Tuple[str, str]:
    """``(access, test)``: ``access`` is safe to evaluate exactly when ``test`` holds."""
    tests, access = [], local
    for index in path:
        tests.append(f"type({access}) is tuple and len({access}) > {index:d}")
        access = f"{access}[{index:d}]"
    return access, " and ".join(tests)


# --------------------------------------------------------------------------- #
# Source generation
# --------------------------------------------------------------------------- #
class KernelModule:
    """The generated functions of one walk site, compiled together.

    Add functions with :meth:`walk` and :meth:`function`, then call
    :meth:`build` once; it returns the module namespace, from which the
    caller takes its functions by name.
    """

    def __init__(self, site: str) -> None:
        self.site = site
        self._lines: List[str] = []
        self._namespace: Dict[str, Any] = {"_MISSING": MISSING, "_BASE": _BASE_EXACT}
        self._bound: Dict[int, str] = {}
        self._names = count()
        self._pending: List[Tuple[str, Any, _Scope]] = []
        self._checked: Dict[int, str] = {}  # id(Read) -> its checked reader's name

    # ------------------------------------------------------------------ #
    def bind(self, value: Any) -> str:
        """The namespace name holding ``value`` (one name per object)."""
        name = self._bound.get(id(value))
        if name is None:
            name = self._bound[id(value)] = f"_k{next(self._names)}"
            self._namespace[name] = value
        return name

    def _fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self._names)}"

    def build(self) -> Dict[str, Any]:
        """Compile the module once; returns its namespace."""
        source = "\n".join(self._lines) + "\n"
        exec(compile(source, f"{_FILENAME}{self.site}>", "exec"), self._namespace)
        return self._namespace

    # ------------------------------------------------------------------ #
    # Functions
    # ------------------------------------------------------------------ #
    def function(self, name: str, expr: Any) -> None:
        """``name(ctx, frame)`` returning ``expr``'s value."""
        scope, prelude = self._scope([expr], loop_slot=None, guard_slots=())
        body = self._expr(expr, scope, 0)
        self._lines += [f"def {name}(ctx, frame):", *prelude, f"    return {body}", ""]
        self._flush()

    def walk(
        self,
        name: str,
        *,
        slot: Optional[int],
        guard_slots: Sequence[int] = (),
        filters: Sequence[Any] = (),
        element: Any = None,
        run: Optional[Callable] = None,
        item_units: _Units = (),
        pass_units: Sequence[_Units] = (),
    ) -> None:
        """A walk: bind, test ``filters`` in order, emit, count.

        With a loop ``slot`` the function is ``name(ctx, frame, mult, sink,
        pairs, n, run)``: it walks the ``n`` ``(element, multiplicity)``
        ``pairs`` binding ``slot``, and calls ``run`` for a body that is not
        an ``element``.  Without one it is an ``emit(ctx, frame, mult,
        sink)`` that runs the filters once and calls the bound ``run``.
        Each guard slot is bound to ``()`` once, before the walk.  A pass of
        filter ``i`` incurs ``pass_units[i]``, each pair ``item_units``; the
        totals are added once, after the walk.
        """
        looped = slot is not None
        scope, prelude = self._scope([*filters, element], slot, guard_slots)
        weight = "mult * m" if looped else "mult"
        calls = any(type(node) is Call for node in _walk_ir([*filters, element]))
        if looped:
            lines = [f"def {name}(ctx, frame, mult, sink, pairs, n, run):"]
        else:
            lines = [f"def {name}(ctx, frame, mult, sink):"]
            if element is None:
                run_name = self.bind(run)
        lines += prelude
        if element is not None:
            lines.append("    get = sink.get")
        counted = [index for index, units in enumerate(pass_units) if units]
        lines += [f"    p{index:d} = 0" for index in counted]
        indent = "    "
        if looped:
            lines.append("    for e, m in pairs:")
            indent = "        "
            if calls or element is None:
                lines.append(f"{indent}frame[{slot:d}] = e")
        elif filters:
            lines.append("    while True:")
            indent = "        "
        skip = "continue" if looped else "break"
        for index, predicate in enumerate(filters):
            lines += [f"{indent}if not {self._expr(predicate, scope, 0)}:", f"{indent}    {skip}"]
            if index in counted:
                lines.append(f"{indent}p{index:d} += 1")
        if element is not None:
            lines += [
                f"{indent}out = {self._expr(element, scope, 0)}",
                f"{indent}w = get(out, 0) + {weight}",
                f"{indent}if w:",
                f"{indent}    sink[out] = w",
                f"{indent}else:",
                f"{indent}    sink.pop(out, None)",
            ]
        elif looped:
            lines.append(f"{indent}run(ctx, frame, {weight}, sink)")
        else:
            lines.append(f"{indent}{run_name}(ctx, frame, mult, sink)")
        if filters and not looped:
            lines.append(f"{indent}break")
        groups = [("n", item_units)] if looped else []
        groups += [(f"p{index:d}", pass_units[index]) for index in counted]
        lines += self._charges(groups)
        self._lines += [*lines, ""]
        self._flush()

    def _scope(
        self, roots: Sequence[Any], loop_slot: Optional[int], guard_slots: Sequence[int]
    ) -> Tuple[_Scope, List[str]]:
        """How ``roots`` read their slots, and the lines run before the walk.

        Slots bound outside the walk cannot change during it (every binder
        owns a fresh slot), so each is loaded into an ``o…`` local once,
        before it; a frame read cannot raise, so a missing binding raises
        where it is read, as in the interpreter.  Guard slots are bound.
        """
        locals_: Dict[int, str] = {}
        bound: List[str] = []
        if loop_slot is not None:
            locals_[loop_slot] = "e"
            bound.append("e")
        read_slots = {node.slot for node in _walk_ir(roots) if type(node) is Read}
        prelude = []
        for slot in sorted(read_slots - {loop_slot, *guard_slots}):
            locals_[slot] = f"o{slot:d}"
            prelude.append(f"    o{slot:d} = frame[{slot:d}]")
        for guard in guard_slots:
            if guard in read_slots:
                locals_[guard] = f"g{guard:d}"
                bound.append(locals_[guard])
                prelude.append(f"    frame[{guard:d}] = g{guard:d} = ()")
            else:
                prelude.append(f"    frame[{guard:d}] = ()")
        return _Scope(locals_, bound), prelude

    def _charges(self, groups: Sequence[Tuple[str, _Units]]) -> List[str]:
        """Lines adding ``Σ count × amount`` per counter name, skipping zeros."""
        terms: Dict[str, List[str]] = {}
        for variable, units in groups:
            for counter_name, amount in units:
                term = variable if amount == 1 else f"{variable} * {amount:d}"
                terms.setdefault(counter_name, []).append(term)
        if not terms:
            return []
        lines = ["    counter = ctx.counter", "    if counter is not None:"]
        for counter_name, parts in terms.items():
            lines += [
                f"        t = {' + '.join(parts)}",
                "        if t:",
                f"            counter.increment({self.bind(counter_name)}, t)",
            ]
        return lines

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def _expr(self, node: Any, scope: _Scope, depth: int) -> str:
        kind = type(node)
        if kind is Read:
            return self._read(node, scope)
        if kind is Const:
            return self.bind(node.value)
        if depth >= _MAX_DEPTH:
            return self._helper(node, scope)
        depth += 1
        if kind is Compare:
            return self._compare(node, scope, depth)
        if kind is AllOf or kind is AnyOf:
            if not node.terms:
                return "True" if kind is AllOf else "False"
            joiner = " and " if kind is AllOf else " or "
            return "(" + joiner.join(self._expr(term, scope, depth) for term in node.terms) + ")"
        if kind is Negation:
            return f"(not {self._expr(node.term, scope, depth)})"
        if kind is TupleOf:
            return self._tuple(node.parts, scope, depth)
        if kind is LabelOf:
            parts = self._tuple(node.parts, scope, depth)
            return f"{self.bind(Label)}({self.bind(node.iota)}, {parts})"
        if kind is Call:
            return f"{self.bind(node.fn)}(ctx, frame)"
        raise TypeError(f"no kernel rule for {kind.__name__}")

    def _tuple(self, parts: Sequence[Any], scope: _Scope, depth: int) -> str:
        rendered = [self._expr(part, scope, depth) for part in parts]
        if len(rendered) == 1:
            return f"({rendered[0]},)"
        return "(" + ", ".join(rendered) + ")"

    def _read(self, node: Read, scope: _Scope) -> str:
        local = scope.locals[node.slot]
        if not node.path and local in scope.bound:
            return local
        checked = self._checked.get(id(node))
        if checked is None:
            checked = self._checked[id(node)] = self.bind(checked_read(node))
        if not node.path:
            return f"({local} if {local} is not _MISSING else {checked}({local}))"
        if any(index < 0 for index in node.path):
            return f"{checked}({local})"
        access, test = _fast_projection(local, node.path)
        return f"({access} if {test} else {checked}({local}))"

    def _compare(self, node: Compare, scope: _Scope, depth: int) -> str:
        """``left op right``, reading ``left`` then ``right`` before judging either type.

        Each operand contributes a value, a base-type test (none for a base
        constant) and the value the checked comparison gets when a test
        fails.  The tests short-circuit left to right; an operand whose test
        may not have run by then is read again, so a failing read raises in
        operand order.
        """
        # The lookup admits only the six operators, so `node.op` is safe text.
        checked = self.bind(_CHECKED_COMPARISONS[node.op])
        op = node.op
        values, tests, fallbacks = [], [], []
        for operand in (node.left, node.right):
            if type(operand) is Const and type(operand.value) in _BASE_EXACT:
                values.append(self.bind(operand.value))
                fallbacks.append(values[-1])
            else:
                rendered = self._expr(operand, scope, depth)
                temp = self._fresh("_t")
                values.append(temp)
                fallbacks.append(rendered if tests else temp)
                tests.append(f"(type({temp} := {rendered}) in _BASE)")
        left, right = values
        if not tests:
            return f"({left} {op} {right})"
        fallback = f"{checked}({fallbacks[0]}, {fallbacks[1]})"
        return f"({left} {op} {right} if {' and '.join(tests)} else {fallback})"

    def _helper(self, node: Any, scope: _Scope) -> str:
        """Call a helper returning ``node``'s value; :meth:`_flush` writes it."""
        name = self._fresh("_h")
        self._pending.append((name, node, scope))
        return f"{name}({scope.params})"

    def _flush(self) -> None:
        """Write pending helpers one at a time, so rendering depth stays bounded."""
        while self._pending:
            name, node, scope = self._pending.pop()
            body = self._expr(node, scope, 0)
            self._lines += [f"def {name}({scope.params}):", f"    return {body}", ""]
