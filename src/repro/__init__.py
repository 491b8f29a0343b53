"""repro — Incremental View Maintenance for Collection Programming (NRC+ on bags).

A from-scratch reproduction of Koch, Lupei and Tannen, *Incremental View
Maintenance for Collection Programming* (PODS 2016): the positive nested
relational calculus on bags, its delta rules, cost model, shredding
transformation and the IVM engines built on top of them: one flat runtime
(classic IVM is recursive IVM with nothing materialized) and the
nested/shredded one.  Appendix A.1's flat RA+ is NRC+'s flat fragment and
needs no engine of its own.

The public API is the :mod:`repro.engine` facade::

    from repro import Engine, Record, STRING, field_types, nest

    engine = Engine()
    movies = engine.dataset("M", Record("Movie", field_types(name=STRING, gen=STRING, dir=STRING)))
    ...
    view = engine.view("related", query, strategy="auto")
    engine.insert("M", [("Jarhead", "Drama", "Mendes")])
    print(engine.explain(view).render())

The lower layers (``repro.nrc``, ``repro.delta``, ``repro.shredding``,
``repro.cost``, ``repro.ivm``) remain importable as the implementation.
"""

from repro.bag import Bag, EMPTY_BAG
from repro.engine import (
    Engine,
    MaintenancePlan,
    Session,
    ViewHandle,
)
from repro.ivm.updates import Update, UpdateStream, deletions, insertions
from repro.surface import (
    Dataset,
    NUMBER,
    Query,
    Record,
    STRING,
    field_types,
    lit,
    nest,
)

__version__ = "1.1.0"

__all__ = [
    "Bag",
    "EMPTY_BAG",
    "Engine",
    "Session",
    "ViewHandle",
    "MaintenancePlan",
    "Update",
    "UpdateStream",
    "insertions",
    "deletions",
    "Dataset",
    "Query",
    "Record",
    "STRING",
    "NUMBER",
    "field_types",
    "lit",
    "nest",
    "__version__",
]
