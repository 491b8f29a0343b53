"""NRC+ — positive nested relational calculus on bags, with labels.

This package contains the calculus itself: types, abstract syntax, typing
rules, evaluation, static analyses, algebraic simplification and pretty
printing.  The incrementalization machinery lives in :mod:`repro.delta`,
:mod:`repro.cost` and :mod:`repro.shredding`.
"""

from repro.nrc import ast, builders, predicates, types
from repro.nrc.analysis import (
    free_bag_vars,
    free_elem_vars,
    is_incremental_fragment,
    is_input_independent,
    referenced_relations,
    referenced_sources,
)
from repro.nrc.compile import CompiledQuery, compile_expr, compilation_enabled, try_compile
from repro.nrc.evaluator import Environment, evaluate, evaluate_bag
from repro.nrc.pretty import render
from repro.nrc.rewrite import simplify
from repro.nrc.typecheck import infer_type

__all__ = [
    "ast",
    "builders",
    "predicates",
    "types",
    "free_bag_vars",
    "free_elem_vars",
    "is_incremental_fragment",
    "is_input_independent",
    "referenced_relations",
    "referenced_sources",
    "CompiledQuery",
    "compile_expr",
    "compilation_enabled",
    "try_compile",
    "Environment",
    "evaluate",
    "evaluate_bag",
    "render",
    "simplify",
    "infer_type",
]
