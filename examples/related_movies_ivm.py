"""The paper's motivating example end to end (Sections 1, 2 and 5).

The nested ``related`` view associates to every movie the bag of movies that
share its genre or director.  Its delta needs *deep updates*, so the planner
maintains it in shredded form: a flat view plus a label dictionary, both
incrementally maintained, with the nested result reconstructed on demand.

Run with::

    python examples/related_movies_ivm.py [n]

where ``n`` (default 300) is the number of synthetic movies to start from.
"""

import sys

from repro import Update
from repro.bag import render_value
from repro.nrc.pretty import render
from repro.shredding import shred_query
from repro.workloads import (
    PAPER_MOVIES,
    PAPER_UPDATE,
    generate_movies,
    movie_update_stream,
    movies_engine,
    related_query,
)


def paper_instance_walkthrough() -> None:
    """Reproduce the tables of Example 1 and Section 2.2."""
    query = related_query()
    print("related ≡", render(query))

    shredded = shred_query(query)
    print("related^F ≡", render(shredded.flat))
    print("related^Γ ≡", render(shredded.context.components[1].dictionary))

    engine = movies_engine(PAPER_MOVIES)
    view = engine.view("related", query, strategy="auto")
    print("\nplanner chose:", view.strategy)
    print("related[M] =", render_value(view.result()))

    engine.apply(Update(relations={"M": PAPER_UPDATE}))
    print("related[M ⊎ ΔM] =", render_value(view.result()))


def scaled_comparison(size: int) -> None:
    """Compare per-update work of auto-planned IVM against re-evaluation."""
    query = related_query()
    engine = movies_engine(generate_movies(size))
    naive = engine.view("naive", query, strategy="naive")
    auto = engine.view("related", query, strategy="auto")
    print("\n" + engine.explain(auto).render())

    engine.apply_stream(
        movie_update_stream(3, 4, existing=engine.relation("M"), deletion_ratio=0.25)
    )
    assert auto.result() == naive.result()

    naive_ops = naive.stats.mean_update_operations
    auto_ops = auto.stats.mean_update_operations
    print(
        f"\nn = {size}: naive re-evaluation ≈ {naive_ops:.0f} operations/update, "
        f"auto ({auto.strategy}) IVM ≈ {auto_ops:.0f} operations/update "
        f"(speedup ×{naive_ops / auto_ops:.1f})"
    )


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    paper_instance_walkthrough()
    scaled_comparison(size)


if __name__ == "__main__":
    main()
