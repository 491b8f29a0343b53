"""Predicate sub-language of NRC+.

The calculus restricts predicates ``p(x)`` to boolean combinations of
comparisons over *base-typed* values (Section 3): comparisons over bags could
simulate negation and would break efficient incrementalization
(Appendix A.2).  Predicates therefore form a small separate expression
language over projections of Π-variables (the element variables bound by
``for``) and constants.  A predicate evaluates to a boolean; the enclosing
:class:`~repro.nrc.ast.Pred` node turns that into ``Bag(1)`` — the singleton
unit bag for ``true`` and the empty bag for ``false``.

Because predicates never mention database relations, their delta is always
the empty bag (Figure 4) and their cost is the constant ``1_{Bag(1)}``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Mapping, Tuple

from repro.bag.values import is_base_value
from repro.errors import EvaluationError

__all__ = [
    "Operand",
    "VarPath",
    "Const",
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "var_path",
    "const",
]


# --------------------------------------------------------------------------- #
# Operands
# --------------------------------------------------------------------------- #
class Operand:
    """Abstract base class of predicate operands (base-typed only)."""

    def free_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def evaluate(self, elem_env: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class VarPath(Operand):
    """A projection path into an element variable, e.g. ``m.2`` → ``VarPath("m", (2,))``.

    Path indices are 0-based; an empty path denotes the variable itself
    (which must then be base-typed).
    """

    var: str
    path: Tuple[int, ...] = ()

    def free_vars(self) -> FrozenSet[str]:
        return frozenset({self.var})

    def evaluate(self, elem_env: Mapping[str, Any]) -> Any:
        if self.var not in elem_env:
            raise EvaluationError(f"unbound element variable {self.var!r} in predicate")
        value = elem_env[self.var]
        for index in self.path:
            if not isinstance(value, tuple) or index >= len(value):
                raise EvaluationError(
                    f"projection .{index} does not apply to value {value!r}"
                )
            value = value[index]
        return value

    def render(self) -> str:
        if not self.path:
            return self.var
        return self.var + "." + ".".join(str(i) for i in self.path)


@dataclass(frozen=True)
class Const(Operand):
    """A constant base value appearing in a predicate."""

    value: Any

    def __post_init__(self) -> None:
        if not is_base_value(self.value):
            raise TypeError(f"predicate constants must be base values, got {self.value!r}")

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, elem_env: Mapping[str, Any]) -> Any:
        return self.value

    def render(self) -> str:
        return repr(self.value)


def var_path(var: str, *path: int) -> VarPath:
    """Convenience constructor: ``var_path("m", 1)`` is ``m.1``."""
    return VarPath(var, tuple(path))


def const(value: Any) -> Const:
    """Convenience constructor for predicate constants."""
    return Const(value)


# --------------------------------------------------------------------------- #
# Predicates
# --------------------------------------------------------------------------- #
class Predicate:
    """Abstract base class of boolean predicates over base values."""

    def free_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def evaluate(self, elem_env: Mapping[str, Any]) -> bool:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    # Operator sugar -----------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Comparison(Predicate):
    """A comparison between two base-typed operands."""

    op: str
    left: Operand
    right: Operand

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def free_vars(self) -> FrozenSet[str]:
        return self.left.free_vars() | self.right.free_vars()

    def evaluate(self, elem_env: Mapping[str, Any]) -> bool:
        left = self.left.evaluate(elem_env)
        right = self.right.evaluate(elem_env)
        if not is_base_value(left) or not is_base_value(right):
            raise EvaluationError(
                "predicates may only compare base values "
                f"(got {left!r} {self.op} {right!r}); comparisons over bags "
                "would allow simulating negation (Appendix A.2)"
            )
        return _COMPARATORS[self.op](left, right)

    def render(self) -> str:
        return f"{self.left.render()} {self.op} {self.right.render()}"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates."""

    terms: Tuple[Predicate, ...]

    def free_vars(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for term in self.terms:
            result |= term.free_vars()
        return result

    def evaluate(self, elem_env: Mapping[str, Any]) -> bool:
        return all(term.evaluate(elem_env) for term in self.terms)

    def render(self) -> str:
        return "(" + " ∧ ".join(term.render() for term in self.terms) + ")"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates."""

    terms: Tuple[Predicate, ...]

    def free_vars(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for term in self.terms:
            result |= term.free_vars()
        return result

    def evaluate(self, elem_env: Mapping[str, Any]) -> bool:
        return any(term.evaluate(elem_env) for term in self.terms)

    def render(self) -> str:
        return "(" + " ∨ ".join(term.render() for term in self.terms) + ")"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate (legal: still a boolean over base values)."""

    term: Predicate

    def free_vars(self) -> FrozenSet[str]:
        return self.term.free_vars()

    def evaluate(self, elem_env: Mapping[str, Any]) -> bool:
        return not self.term.evaluate(elem_env)

    def render(self) -> str:
        return f"¬({self.term.render()})"


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The always-true predicate (useful as a neutral ``where`` clause)."""

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, elem_env: Mapping[str, Any]) -> bool:
        return True

    def render(self) -> str:
        return "true"


def eq(left: Operand, right: Operand) -> Comparison:
    """``left == right``."""
    return Comparison("==", left, right)


def ne(left: Operand, right: Operand) -> Comparison:
    """``left != right``."""
    return Comparison("!=", left, right)


def lt(left: Operand, right: Operand) -> Comparison:
    """``left < right``."""
    return Comparison("<", left, right)


def le(left: Operand, right: Operand) -> Comparison:
    """``left <= right``."""
    return Comparison("<=", left, right)


def gt(left: Operand, right: Operand) -> Comparison:
    """``left > right``."""
    return Comparison(">", left, right)


def ge(left: Operand, right: Operand) -> Comparison:
    """``left >= right``."""
    return Comparison(">=", left, right)


__all__ += ["eq", "ne", "lt", "le", "gt", "ge"]
