"""A second nested workload: a social-feed view over users and posts.

The introduction motivates IVM for collection frameworks processing nested
application data; this workload models one such application beyond the movies
example.  Given ``Users(user, city)`` and ``Posts(author, text)``, the
``feed`` view computes, for every user, the bag of posts written by people in
the same city (excluding their own) — a nested query with the same
deep-update challenge as ``related``.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.bag.bag import Bag
from repro.errors import WorkloadError
from repro.ivm.updates import Update, UpdateStream
from repro.nrc import ast
from repro.nrc import builders as build
from repro.nrc import predicates as preds
from repro.nrc.ast import Expr
from repro.nrc.types import BASE, BagType, tuple_of

__all__ = [
    "USER_TYPE",
    "USER_SCHEMA",
    "POST_TYPE",
    "POST_SCHEMA",
    "generate_users",
    "generate_posts",
    "post_update_stream",
    "social_engine",
    "feed_query",
]

#: ⟨user, city⟩
USER_TYPE = tuple_of(BASE, BASE)
USER_SCHEMA = BagType(USER_TYPE)
#: ⟨author, city, text⟩ — the author's city is denormalized into the post so
#: the feed query stays within a two-relation join.
POST_TYPE = tuple_of(BASE, BASE, BASE)
POST_SCHEMA = BagType(POST_TYPE)


def generate_users(count: int, num_cities: int = 10, seed: int = 3) -> Bag:
    """Generate ``count`` users spread over ``num_cities`` cities."""
    if count < 0:
        raise WorkloadError("user count must be non-negative")
    rng = random.Random(seed)
    return Bag((f"user{i:05d}", f"City{rng.randrange(num_cities)}") for i in range(count))


def generate_posts(users: Bag, posts_per_user: int = 3, seed: int = 13) -> Bag:
    """Generate posts authored by the given users (city denormalized)."""
    rng = random.Random(seed)
    rows: List[Tuple[str, str, str]] = []
    for user, city in users.elements():
        for index in range(posts_per_user):
            rows.append((user, city, f"post-{user}-{index}-{rng.randrange(10_000)}"))
    return Bag(rows)


def post_update_stream(
    users: Bag, num_updates: int, batch_size: int, seed: int = 17, relation: str = "Posts"
) -> UpdateStream:
    """Updates inserting fresh posts by randomly chosen existing users."""
    rng = random.Random(seed)
    user_rows = list(users.elements())
    if not user_rows:
        raise WorkloadError("cannot generate posts without users")
    stream = UpdateStream()
    counter = 0
    for _ in range(num_updates):
        rows = []
        for _ in range(batch_size):
            user, city = user_rows[rng.randrange(len(user_rows))]
            rows.append((user, city, f"newpost-{counter}"))
            counter += 1
        stream.append(Update(relations={relation: Bag(rows)}))
    return stream


def social_engine(
    num_users: int = 40,
    num_cities: int = 10,
    posts_per_user: int = 3,
    seed: int = 3,
):
    """An :class:`~repro.engine.Engine` preloaded with Users and Posts."""
    from repro.engine import Engine

    users = generate_users(num_users, num_cities=num_cities, seed=seed)
    posts = generate_posts(users, posts_per_user=posts_per_user)
    engine = Engine()
    engine.dataset("Users", USER_SCHEMA, users)
    engine.dataset("Posts", POST_SCHEMA, posts)
    return engine


def feed_query(users_rel: str = "Users", posts_rel: str = "Posts") -> Expr:
    """For every user: the posts of other users in the same city (nested)."""
    users = ast.Relation(users_rel, USER_SCHEMA)
    posts = ast.Relation(posts_rel, POST_SCHEMA)
    same_city_other_author = preds.And(
        (
            preds.eq(preds.var_path("u", 1), preds.var_path("p", 1)),
            preds.ne(preds.var_path("u", 0), preds.var_path("p", 0)),
        )
    )
    inner = build.for_in("p", posts, build.proj("p", 2), condition=same_city_other_author)
    return build.for_in("u", users, build.tuple_bag(build.proj("u", 0), build.sng(inner)))
