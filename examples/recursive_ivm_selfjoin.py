"""Recursive IVM on Example 4: ``flatten(R) × flatten(R)``.

The first-order delta of this query still depends on the database (it
mentions ``flatten(R)``), so recursive IVM materializes that part once and
maintains it with the second-order delta.  The planner detects exactly this
— partial evaluation of the delta materializes a sub-expression, so the
residual delta never re-scans ``R`` — and picks the recursive backend on
its own.  The script prints the tower of iterated deltas, the planner's
reasoning, and the per-update work of all three strategies.

Run with::

    python examples/recursive_ivm_selfjoin.py [n]
"""

import sys

from repro.delta import degree, delta
from repro.nrc import ast
from repro.nrc.pretty import render
from repro.nrc.types import BASE, bag_of
from repro.workloads import bag_of_bags_engine, nested_update_stream


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 80
    schema = bag_of(bag_of(BASE))
    relation = ast.Relation("R", schema)
    query = ast.Product((ast.Flatten(relation), ast.Flatten(relation)))

    # The tower of higher-order deltas (Theorem 2: height = degree = 2).
    levels = [query]
    while degree(levels[-1], ["R"]):
        levels.append(delta(levels[-1], ["R"], order=len(levels)))
    print("query degree:", len(levels) - 1)
    for order, level in enumerate(levels):
        print(f"  δ^{order}(h) =", render(level))

    engine = bag_of_bags_engine(size, inner_cardinality=4)
    naive = engine.view("naive", query, strategy="naive")
    classic = engine.view("classic", query, strategy="classic")
    auto = engine.view("selfjoin", query, strategy="auto")
    print("\n" + engine.explain(auto).render())
    assert auto.strategy == "recursive"
    print("\nmaterialized by recursive IVM:", auto.view.materialized_names())
    print("residual delta:", render(auto.view.residual_delta))

    engine.apply_stream(nested_update_stream("R", 3, 1, inner_cardinality=4))
    assert classic.result() == naive.result() == auto.result()

    print(
        "\nmean operations/update — naive: %.0f, classic IVM: %.0f, recursive IVM: %.0f"
        % (
            naive.stats.mean_update_operations,
            classic.stats.mean_update_operations,
            auto.stats.mean_update_operations,
        )
    )


if __name__ == "__main__":
    main()
