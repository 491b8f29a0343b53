"""Quickstart: the `repro.engine` facade end to end.

Run with::

    python examples/quickstart.py

One Engine owns the database.  Views are declared with
``engine.view(name, query, strategy="auto")``: the query's fragment picks
the maintenance strategy per view (Theorem 4: delta processing for IncNRC+,
shredding for the rest), and ``engine.explain`` shows the rule behind each
choice and the derived delta or shredded query.  The example builds the paper's filter query
(Examples 2 and 3) through the comprehension DSL and the nested ``related``
query (Example 1), and maintains both under the same update stream.
"""

from repro import Engine, Record, STRING, field_types, nest

MOVIE = Record("Movie", field_types(name=STRING, gen=STRING, dir=STRING))


def main() -> None:
    # 1. One engine per session; datasets are registered with named-record
    #    schemas and give back surface-DSL handles for query building.
    engine = Engine()
    movies = engine.dataset(
        "M",
        MOVIE,
        rows=[
            ("Drive", "Drama", "Refn"),
            ("Skyfall", "Action", "Mendes"),
            ("Rush", "Action", "Howard"),
        ],
    )

    # 2. Declare queries in the comprehension DSL (Section 1 style).
    x = movies.row("x")
    dramas = movies.iterate(x).where(x.field("gen") == "Drama").select(x.field("name"))

    m, m2 = movies.row("m"), movies.row("m2")
    rel_b = (
        movies.iterate(m2)
        .where(
            (m.field("name") != m2.field("name"))
            & ((m.field("gen") == m2.field("gen")) | (m.field("dir") == m2.field("dir")))
        )
        .select(m2.field("name"))
    )
    related = movies.iterate(m).select(m.field("name"), nest(rel_b))

    # 3. The planner picks a different backend per view: first-order delta
    #    processing for the flat filter, shredded IVM for the nested query.
    dramas_view = engine.view("dramas", dramas, strategy="auto")
    related_view = engine.view("related", related, strategy="auto")
    print(engine.explain("dramas").render())
    print()
    print(engine.explain("related").render())

    # 4. Apply updates once; every view refreshes incrementally.
    engine.insert("M", [("Jarhead", "Drama", "Mendes")])
    engine.insert("M", [("Heat", "Crime", "Mann")])
    print("\ndramas  :", dramas_view.result())
    print("related :", related_view.result())

    # 5. Maintenance accounting comes with every view.
    print("\ndramas stats :", dramas_view.stats)
    print("related stats:", related_view.stats)


if __name__ == "__main__":
    main()
