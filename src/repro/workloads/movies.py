"""The movies workload: the paper's running example, at any scale.

Provides

* a generator for the ``M(name, gen, dir)`` relation and for showtime data
  (``Sh(movie, loc, time)``, used by the flat example of Appendix A.1),
* the ``related`` query of Example 1 (both as a raw NRC+ AST and through the
  comprehension DSL),
* the flat ``DOz`` query of Example 8, and
* update-stream generators (insertions, deletions, mixes) with controllable
  batch size ``d``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.bag.bag import Bag
from repro.errors import WorkloadError
from repro.ivm.updates import Update, UpdateStream
from repro.nrc import ast
from repro.nrc import builders as build
from repro.nrc import predicates as preds
from repro.nrc.ast import Expr
from repro.nrc.types import BASE, BagType, tuple_of
from repro.relational import BaseRel, Project, RelSchema, ThetaJoin, Select
from repro.surface import Dataset, Record, STRING, field_types, nest

__all__ = [
    "MOVIE_TYPE",
    "MOVIE_SCHEMA",
    "MOVIE_RECORD",
    "SHOWTIME_SCHEMA",
    "PAPER_MOVIES",
    "PAPER_UPDATE",
    "FEATURED_SCHEMA",
    "featured_join_query",
    "featured_update_stream",
    "generate_movies",
    "generate_showtimes",
    "movie_update_stream",
    "movies_engine",
    "related_query",
    "related_query_dsl",
    "relb_subquery",
    "genre_selfjoin_query",
    "doz_query",
]

#: Element type of the movies relation: ⟨name, gen, dir⟩.
MOVIE_TYPE = tuple_of(BASE, BASE, BASE)
MOVIE_SCHEMA = BagType(MOVIE_TYPE)
#: Featured-genre tags ⟨gen, slot⟩: a small probe-side relation for the
#: asymmetric join of :func:`featured_join_query`.
FEATURED_SCHEMA = BagType(tuple_of(BASE, BASE))
MOVIE_RECORD = Record("Movie", field_types(name=STRING, gen=STRING, dir=STRING))
SHOWTIME_SCHEMA = RelSchema(("movie", "loc", "time"))

#: The three-movie instance of Example 1 and its single-tuple update.
PAPER_MOVIES = Bag(
    [
        ("Drive", "Drama", "Refn"),
        ("Skyfall", "Action", "Mendes"),
        ("Rush", "Action", "Howard"),
    ]
)
PAPER_UPDATE = Bag([("Jarhead", "Drama", "Mendes")])

_GENRES = ("Drama", "Action", "Comedy", "Crime", "SciFi", "Romance", "Horror", "Animation")
_DIRECTORS = tuple(f"Director{i}" for i in range(40))


def generate_movies(
    count: int,
    num_genres: int = 8,
    num_directors: int = 40,
    seed: int = 7,
) -> Bag:
    """Generate ``count`` distinct movies with skew-free genre/director draws."""
    if count < 0:
        raise WorkloadError("movie count must be non-negative")
    rng = random.Random(seed)
    genres = [_GENRES[i % len(_GENRES)] + ("" if i < len(_GENRES) else str(i)) for i in range(num_genres)]
    directors = [
        _DIRECTORS[i % len(_DIRECTORS)] + ("" if i < len(_DIRECTORS) else f"_{i}")
        for i in range(num_directors)
    ]
    movies = []
    for index in range(count):
        movies.append(
            (f"Movie{index:06d}", rng.choice(genres), rng.choice(directors))
        )
    return Bag(movies)


def generate_showtimes(movies: Bag, shows_per_movie: int = 2, num_locations: int = 12, seed: int = 11) -> Bag:
    """Generate a flat showtimes relation referencing the given movies."""
    rng = random.Random(seed)
    rows: List[Tuple[str, str, str]] = []
    for movie in movies.elements():
        name = movie[0]
        for show in range(shows_per_movie):
            location = f"Loc{rng.randrange(num_locations)}"
            time = f"{10 + rng.randrange(12)}:00"
            rows.append((name, location, time))
    return Bag(rows)


def movie_update_stream(
    num_updates: int,
    batch_size: int,
    existing: Optional[Bag] = None,
    deletion_ratio: float = 0.0,
    seed: int = 23,
    relation: str = "M",
    num_genres: int = 8,
    num_directors: int = 40,
) -> UpdateStream:
    """Generate a stream of updates of ``batch_size`` tuples each.

    A ``deletion_ratio`` fraction of each batch deletes tuples drawn from
    ``existing`` (when provided); the rest inserts fresh movies.
    """
    if batch_size < 1:
        raise WorkloadError("batch size must be at least 1")
    rng = random.Random(seed)
    existing_rows = list(existing.elements()) if existing is not None else []
    stream = UpdateStream()
    next_id = 10_000_000
    for _ in range(num_updates):
        pairs: List[Tuple[Tuple[str, str, str], int]] = []
        for position in range(batch_size):
            delete = existing_rows and rng.random() < deletion_ratio
            if delete:
                victim = existing_rows.pop(rng.randrange(len(existing_rows)))
                pairs.append((victim, -1))
            else:
                row = (
                    f"New{next_id}",
                    _GENRES[rng.randrange(num_genres) % len(_GENRES)],
                    _DIRECTORS[rng.randrange(num_directors) % len(_DIRECTORS)],
                )
                next_id += 1
                pairs.append((row, 1))
        stream.append(Update(relations={relation: Bag.from_pairs(pairs)}))
    return stream


def movies_engine(
    movies: Optional[Bag] = None,
    count: int = 300,
    seed: int = 7,
    relation: str = "M",
):
    """An :class:`~repro.engine.Engine` preloaded with the movies relation.

    Pass an explicit ``movies`` bag (e.g. :data:`PAPER_MOVIES`) or let the
    generator produce ``count`` synthetic movies.
    """
    from repro.engine import Engine

    engine = Engine()
    bag = movies if movies is not None else generate_movies(count, seed=seed)
    engine.dataset(relation, MOVIE_SCHEMA, bag)
    return engine


# --------------------------------------------------------------------------- #
# Queries
# --------------------------------------------------------------------------- #
def _is_related(outer: str, inner: str) -> preds.Predicate:
    """Example 1's ``isRelated``: different movies sharing genre or director."""
    return preds.And(
        (
            preds.ne(preds.var_path(outer, 0), preds.var_path(inner, 0)),
            preds.Or(
                (
                    preds.eq(preds.var_path(outer, 1), preds.var_path(inner, 1)),
                    preds.eq(preds.var_path(outer, 2), preds.var_path(inner, 2)),
                )
            ),
        )
    )


def relb_subquery(relation: str = "M", outer_var: str = "m", inner_var: str = "m2") -> Expr:
    """``relB(m)``: names of the movies related to ``m`` (Example 1)."""
    source = ast.Relation(relation, MOVIE_SCHEMA)
    return build.for_in(
        inner_var,
        source,
        build.proj(inner_var, 0),
        condition=_is_related(outer_var, inner_var),
    )


def related_query(relation: str = "M") -> Expr:
    """The nested ``related`` query of the motivating example (raw NRC+)."""
    source = ast.Relation(relation, MOVIE_SCHEMA)
    body = build.tuple_bag(build.proj("m", 0), build.sng(relb_subquery(relation, "m", "m2")))
    return build.for_in("m", source, body)


def related_query_dsl(relation: str = "M") -> Expr:
    """The same query written through the comprehension DSL (Section 1 style)."""
    movies = Dataset(relation, MOVIE_RECORD)
    m = movies.row("m")
    m2 = movies.row("m2")
    rel_b = (
        movies.iterate(m2)
        .where(
            (m.field("name") != m2.field("name"))
            & ((m.field("gen") == m2.field("gen")) | (m.field("dir") == m2.field("dir")))
        )
        .select(m2.field("name"))
    )
    return movies.iterate(m).select(m.field("name"), nest(rel_b)).to_expr()


def genre_selfjoin_query(relation: str = "M") -> Expr:
    """A flat, selective self-join: pairs of distinct movies sharing a genre.

    ``for m in M union for m2 in M union (where m.gen = m2.gen ∧ m.name ≠
    m2.name: sng(⟨m.name, m2.name⟩))`` — the canonical equality-join shape
    whose delta the compiled pipeline turns into a hash-join (build once per
    update, probe per delta tuple), used by the compilation micro-benchmark
    and the CI smoke check.
    """
    source = ast.Relation(relation, MOVIE_SCHEMA)
    condition = preds.And(
        (
            preds.eq(preds.var_path("m", 1), preds.var_path("m2", 1)),
            preds.ne(preds.var_path("m", 0), preds.var_path("m2", 0)),
        )
    )
    inner = build.for_in(
        "m2",
        source,
        build.tuple_bag(build.proj("m", 0), build.proj("m2", 0)),
        condition=condition,
    )
    return build.for_in("m", source, inner)


def featured_join_query(featured: str = "F", movies: str = "M") -> Expr:
    """Join a small featured-picks relation against the movie catalog.

    ``for f in F union for m in M union (where m.name = f.0: sng(⟨f.1,
    m.gen⟩))`` — a selective, asymmetric equality join (movie names are
    unique) whose build side (the catalog ``M``) is large and *never updated*
    while the probe side ``F`` (⟨name, slot⟩ picks) receives a stream of
    small updates.  With ``targets=("F",)`` the delta query's only term
    probes ``M``; rebuilding its hash index per update costs ``O(|M|)``,
    probing the storage layer's persistent index costs ``O(|Δ|)`` — the
    workload of the repeated-small-update index micro-benchmark.
    """
    featured_rel = ast.Relation(featured, FEATURED_SCHEMA)
    movie_rel = ast.Relation(movies, MOVIE_SCHEMA)
    condition = preds.eq(preds.var_path("m", 0), preds.var_path("f", 0))
    inner = build.for_in(
        "m",
        movie_rel,
        build.tuple_bag(build.proj("f", 1), build.proj("m", 1)),
        condition=condition,
    )
    return build.for_in("f", featured_rel, inner)


def featured_update_stream(
    num_updates: int,
    batch_size: int = 1,
    catalog_size: int = 300,
    deletion_ratio: float = 0.0,
    seed: int = 17,
    relation: str = "F",
) -> UpdateStream:
    """Repeated small updates to the featured-picks relation.

    Each batch inserts ⟨name, slot⟩ picks naming movies from a
    :func:`generate_movies` catalog of ``catalog_size`` entries (so every
    pick joins) and, with probability ``deletion_ratio``, deletes a
    previously inserted pick instead (negative multiplicities).
    """
    if batch_size < 1:
        raise WorkloadError("batch size must be at least 1")
    rng = random.Random(seed)
    inserted: List[Tuple[str, str]] = []
    stream = UpdateStream()
    tag = 0
    for _ in range(num_updates):
        pairs: List[Tuple[Tuple[str, str], int]] = []
        for _ in range(batch_size):
            if inserted and rng.random() < deletion_ratio:
                victim = inserted.pop(rng.randrange(len(inserted)))
                pairs.append((victim, -1))
            else:
                row = (f"Movie{rng.randrange(catalog_size):06d}", f"slot{tag}")
                tag += 1
                inserted.append(row)
                pairs.append((row, 1))
        stream.append(Update(relations={relation: Bag.from_pairs(pairs)}))
    return stream


def doz_query(movies_rel: str = "Mflat", showtimes_rel: str = "Sh"):
    """Example 8's flat query: dramas playing in Oz (relational algebra).

    The join is expressed as a selection over a Cartesian product, matching
    the step-counting model of Appendix A.1 in which re-evaluating a join is
    quadratic while its delta is linear in the update.  A hash-join variant
    is available through :class:`repro.relational.ThetaJoin`.
    """
    from repro.relational import CrossProduct

    movies = BaseRel(movies_rel, RelSchema(("movie", "genre")))
    showtimes = BaseRel(showtimes_rel, SHOWTIME_SCHEMA)
    dramas = Select(movies, lambda row: row["genre"] == "Drama", "genre = Drama")
    in_oz = Select(showtimes, lambda row: row["loc"] == "Oz", "loc = Oz")
    joined = Select(
        CrossProduct(in_oz, dramas),
        lambda row: row["movie"] == row["movie_r"],
        "Sh.movie = M.movie",
    )
    return Project(joined, ("movie",))
