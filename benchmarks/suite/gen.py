"""Seeded input generation: the seed picks *which* rows, never *how much* work.

The driver compares runs made on different seeds, so an input whose shape
depends on the seed shows up as run-to-run spread: ``repro.workloads``
draws each movie's genre and director independently, which gives the one
director the ``related`` view is restricted to 25 ± 5 movies out of 5 000 —
a ±20 % swing in that view's size and in every publish that unshreds it.
The generators here deal values out in equal shares instead and let the
seed shuffle who gets which: every genre, director, (genre, director) pair
and city has the same number of rows on every seed.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple

from repro.bag.bag import Bag
from repro.ivm.updates import Update

GENRES = ("Drama", "Action", "Comedy", "Crime", "SciFi", "Romance", "Horror", "Animation")


def director_names(count: int) -> List[str]:
    return [f"Director{index}" for index in range(count)]


def _dealt(rng: random.Random, count: int, genres: Sequence[str], directors: Sequence[str]):
    """``count`` (genre, director) pairs, every pair equally often (±1), in
    seeded order."""
    pairs = [(genre, director) for director in directors for genre in genres]
    dealt = [pairs[index % len(pairs)] for index in range(count)]
    rng.shuffle(dealt)
    return dealt


def balanced_movies(count: int, seed: int, directors: int = 40) -> Bag:
    """``count`` movies ⟨name, gen, dir⟩ with equal shares per genre, per
    director and per (genre, director) pair."""
    rng = random.Random(seed)
    dealt = _dealt(rng, count, GENRES, director_names(directors))
    return Bag(
        (f"Movie{index:06d}", genre, director) for index, (genre, director) in enumerate(dealt)
    )


def balanced_users(count: int, cities: int, seed: int) -> Bag:
    """``count`` users ⟨user, city⟩, ``count / cities`` in every city."""
    rng = random.Random(seed)
    homes = [f"City{index % cities}" for index in range(count)]
    rng.shuffle(homes)
    return Bag((f"user{index:05d}", city) for index, city in enumerate(homes))


def churn_stream(
    seed: int,
    movies: Bag,
    batch_rows: int,
    deletion_ratio: float,
    prefix: str,
    relation: str = "M",
) -> Iterator[Update]:
    """An endless stream of mixed insert/delete batches over a movie relation.

    ``repro.workloads.movie_update_stream`` deletes only rows of the seeded
    instance, so a long stream runs out of victims and turns insert-only;
    here each deletion picks a *live* row (seeded, or inserted earlier by
    this stream).  Every batch has the same number of deletions —
    ``round(batch_rows × deletion_ratio)``, at seeded positions — and the
    inserted rows' (genre, director) pairs are dealt in equal shares like
    the instance's, so no seed's stream leans on one genre or director.
    Inserted names carry ``prefix``, which keeps concurrent writers' rows
    distinct.  It is a generator, so a writer faster than expected cannot
    run off its end.
    """
    rng = random.Random(seed)
    live = sorted(movies.elements())
    genres = sorted({row[1] for row in live})
    directors = sorted({row[2] for row in live})
    deletions = round(batch_rows * deletion_ratio)
    fresh = 0
    dealt: List[Tuple[str, str]] = []
    while True:
        pairs = []
        doomed = set(rng.sample(range(batch_rows), deletions))
        for position in range(batch_rows):
            if position in doomed and live:
                pairs.append((live.pop(rng.randrange(len(live))), -1))
            else:
                if not dealt:
                    dealt = _dealt(rng, len(genres) * len(directors), genres, directors)
                genre, director = dealt.pop()
                pairs.append(((f"{prefix}{fresh:07d}", genre, director), 1))
                fresh += 1
        # Rows inserted by this batch become deletable from the next one on.
        live.extend(row for row, multiplicity in pairs if multiplicity > 0)
        yield Update(relations={relation: Bag.from_pairs(pairs)})
