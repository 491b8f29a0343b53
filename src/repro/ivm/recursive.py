"""Recursive IVM: higher-order deltas with materialized partial evaluations.

Section 4.1 observes that the delta query itself can be sped up the same way
as the original query: partially evaluate it with respect to the database
(materializing the database-dependent parts) and maintain those
materializations with the next-order delta.  Because every derivation lowers
the degree by one (Theorem 2), the tower is finite, and after it is set up no
refresh ever needs to re-scan the base relations — only the update and the
materialized parts are touched.

Compiling delta towers to imperative trigger programs is explicitly out of
scope in the paper (Example 4); this engine instead performs the partial
evaluation at the granularity of *maximal database-dependent,
update-independent sub-expressions*:

* every such sub-expression of ``δ(h)`` (for example ``flatten(R)`` in
  Example 4) is materialized once and replaced by a reference,
* the residual delta then only touches the update and the materializations,
* each materialization is itself maintained by its own (cheap) delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bag.bag import Bag
from repro.bag.builder import BagBuilder
from repro.delta.rules import delta, depends_on
from repro.instrument import OpCounter
from repro.ivm.database import Database, ShreddedDelta
from repro.ivm.updates import Update
from repro.ivm.views import View
from repro.nrc import ast
from repro.nrc.analysis import free_elem_vars, referenced_deltas, referenced_relations
from repro.nrc.ast import Expr
from repro.nrc.compile import CompiledQuery, run_bag, try_compile
from repro.nrc.rewrite import simplify
from repro.storage import ResultStore

__all__ = ["RecursiveIVMView", "partially_evaluate"]


@dataclass
class _Materialization:
    """A materialized database-dependent sub-expression and its delta.

    The materialized value lives in a transient builder: its per-update
    delta folds in place, and the immutable snapshot the residual delta
    reads is frozen (O(1)) when the evaluation environment is assembled.
    """

    name: str
    expression: Expr
    delta_expression: Expr
    value: BagBuilder
    compiled: Optional[CompiledQuery] = None
    compiled_delta: Optional[CompiledQuery] = None


def partially_evaluate(
    expr: Expr, targets: Sequence[str]
) -> Tuple[Expr, List[Tuple[str, Expr]]]:
    """Replace maximal database-dependent, update-independent sub-expressions.

    Returns the residual expression (with :class:`~repro.nrc.ast.BagVar`
    references in place of the materialized parts) and the list of
    ``(name, sub-expression)`` pairs to materialize.  A sub-expression
    qualifies when it references an updated relation, references no update
    symbol, has no free element variables (so it denotes a closed bag) and is
    not itself a bare relation reference (materializing those would just copy
    the base relation).
    """
    target_set = frozenset(targets)
    replacements: Dict[Expr, str] = {}
    ordered: List[Tuple[str, Expr]] = []

    def _qualifies(node: Expr) -> bool:
        if isinstance(node, (ast.Relation, ast.BagVar, ast.Empty, ast.DeltaRelation)):
            return False
        if isinstance(
            node,
            (
                ast.DictSingleton,
                ast.DictEmpty,
                ast.DictUnion,
                ast.DictAdd,
                ast.DictVar,
                ast.DeltaDictVar,
            ),
        ):
            return False
        if not depends_on(node, target_set):
            return False
        if referenced_deltas(node):
            return False
        if free_elem_vars(node):
            return False
        return True

    def _rewrite(node: Expr) -> Expr:
        if _qualifies(node):
            if node not in replacements:
                name = f"__mat{len(replacements)}"
                replacements[node] = name
                ordered.append((name, node))
            return ast.BagVar(replacements[node])
        new_children = tuple(_rewrite(child) for child in node.children())
        from repro.nrc.traverse import _rebuild_with_children

        return _rebuild_with_children(node, new_children)

    residual = _rewrite(expr)
    return residual, ordered


class RecursiveIVMView(View):
    """Materialized view maintained through a tower of higher-order deltas."""

    def __init__(
        self,
        query: Expr,
        database: Database,
        targets: Optional[Sequence[str]] = None,
        register: bool = True,
    ) -> None:
        super().__init__()
        self._query = query
        self._database = database
        self._targets = tuple(sorted(targets)) if targets is not None else tuple(
            sorted(referenced_relations(query))
        )

        first_order = delta(query, self._targets)
        residual, to_materialize = partially_evaluate(first_order, self._targets)
        self._residual_delta = simplify(residual)
        self._compiled_residual = try_compile(self._residual_delta)
        self._compiled_query = try_compile(query)
        self._register_indexes(database, self._compiled_query, self._compiled_residual)

        self._materializations: Dict[str, _Materialization] = {}
        for name, expression in to_materialize:
            delta_expression = delta(expression, self._targets)
            self._materializations[name] = _Materialization(
                name=name,
                expression=expression,
                delta_expression=delta_expression,
                value=BagBuilder(),
                compiled=try_compile(expression),
                compiled_delta=try_compile(delta_expression),
            )
        counter = OpCounter()
        started = self._now()
        self._materialise(counter)
        self.stats.record_init(self._now() - started, counter)
        self._delta_sources = referenced_deltas(self._residual_delta).union(
            *(referenced_deltas(m.delta_expression) for m in self._materializations.values())
        )
        # The materialization-maintenance deltas read base relations too;
        # fold their join atoms into the registered set.
        self._register_indexes(
            database,
            self._compiled_query,
            self._compiled_residual,
            *(m.compiled_delta for m in self._materializations.values()),
        )
        self._execution_mode = (
            "compiled"
            if self._compiled_residual is not None
            and all(m.compiled_delta is not None for m in self._materializations.values())
            else "interpreted"
        )
        if register:
            database.register_view(self)

    def _materialise(self, counter: OpCounter) -> None:
        environment = self._database.environment()
        # The view materialization goes to a result store; the
        # partial-evaluation materializations stay in plain builders —
        # they are view-internal state no reader ever retains across an
        # update.
        self._result = ResultStore(
            "recursive", run_bag(self._compiled_query, self._query, environment, counter)
        )
        for materialization in self._materializations.values():
            materialization.value.adopt_bag(
                run_bag(
                    materialization.compiled,
                    materialization.expression,
                    environment,
                    counter,
                )
            )

    # ------------------------------------------------------------------ #
    @property
    def residual_delta(self) -> Expr:
        """The first-order delta with database-dependent parts materialized."""
        return self._residual_delta

    def materialized_names(self) -> Tuple[str, ...]:
        return tuple(self._materializations)

    def result(self) -> Bag:
        return self._result.freeze()

    def result_store(self):
        return self._result

    def on_update(self, update: Update, shredded_delta: ShreddedDelta, context) -> None:
        counter = OpCounter()
        started = self._now()
        # Neither the residual nor any materialization delta mentions a symbol
        # the update binds: nothing to evaluate, nothing to maintain.
        if self.reads_any(context.relation_deltas):
            # Refresh the view using the residual delta: it reads only the
            # update and the materialized sub-expressions, never the base
            # relations.
            # Bare relation references may survive in the residual (for
            # example non-updated relations); they are read from the
            # pre-update database, which is the state delta queries expect.
            # The shared context environment is copied before binding the
            # view-local materialization snapshots.
            environment = context.delta_environment().copy()
            environment.bag_vars.update(
                {m.name: m.value.freeze() for m in self._materializations.values()}
            )
            run_bag(
                self._compiled_residual,
                self._residual_delta,
                environment,
                counter,
                into=self._result,
            )
            # Drop the residual environment before maintenance: it holds the
            # frozen materialization snapshots, and releasing it lets the
            # builders below mutate in place instead of copy-on-write.
            del environment

            # Maintain the materialized sub-expressions with their own deltas
            # (the higher-order step); these deltas are evaluated against the
            # pre-update database state and fold straight into the builders.
            maintenance_env = context.delta_environment()
            for materialization in self._materializations.values():
                run_bag(
                    materialization.compiled_delta,
                    materialization.delta_expression,
                    maintenance_env,
                    counter,
                    into=materialization.value,
                )
        self.stats.record_update(self._now() - started, counter)
