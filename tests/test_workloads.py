"""Tests for workload generators (movies, social feed, random nested data)."""

import pytest

from repro.bag import Bag
from repro.errors import WorkloadError
from repro.nrc.evaluator import Environment, evaluate_bag
from repro.nrc.typecheck import infer_type
from repro.nrc.types import BASE, BagType
from repro.workloads import (
    MOVIE_SCHEMA,
    PAPER_MOVIES,
    doz_query,
    feed_query,
    generate_bag_of_bags,
    generate_movies,
    generate_nested_bag,
    generate_posts,
    generate_showtimes,
    generate_users,
    movie_update_stream,
    nested_bag_type,
    nested_update_stream,
    post_update_stream,
    related_query,
)


class TestMovieWorkload:
    def test_generate_movies_counts_and_determinism(self):
        movies = generate_movies(100, seed=1)
        assert movies.cardinality() == 100
        assert movies == generate_movies(100, seed=1)
        assert movies != generate_movies(100, seed=2)

    def test_generated_movies_match_the_schema(self):
        movies = generate_movies(10)
        for row in movies.elements():
            assert len(row) == 3
            assert all(isinstance(field, str) for field in row)

    def test_negative_count_rejected(self):
        with pytest.raises(WorkloadError):
            generate_movies(-1)

    def test_generate_showtimes_references_movies(self):
        movies = generate_movies(5)
        shows = generate_showtimes(movies, shows_per_movie=2)
        assert shows.cardinality() == 10
        names = {row[0] for row in movies.elements()}
        assert all(row[0] in names for row in shows.elements())

    def test_update_stream_sizes(self):
        stream = movie_update_stream(4, 3)
        assert len(stream) == 4
        assert all(update.total_size() == 3 for update in stream)

    def test_update_stream_with_deletions(self):
        existing = generate_movies(50)
        stream = movie_update_stream(3, 4, existing=existing, deletion_ratio=1.0)
        merged = stream.merged()
        assert merged.relations["M"].has_negative()

    def test_invalid_batch_size(self):
        with pytest.raises(WorkloadError):
            movie_update_stream(1, 0)

    def test_paper_instance_and_query(self):
        result = evaluate_bag(related_query(), Environment(relations={"M": PAPER_MOVIES}))
        rows = dict(result.elements())
        assert rows["Drive"] == Bag()
        assert rows["Skyfall"] == Bag(["Rush"])

    def test_doz_query_yields_movie_names(self):
        assert infer_type(doz_query()) == BagType(BASE)


class TestNestedWorkload:
    def test_nested_bag_type_depths(self):
        assert isinstance(nested_bag_type(1), BagType)
        assert nested_bag_type(3).render().count("Bag") == 3
        with pytest.raises(WorkloadError):
            nested_bag_type(0)

    def test_generate_nested_bag_shape(self):
        value = generate_nested_bag(2, top_cardinality=5, inner_cardinality=3)
        assert value.cardinality() == 5
        for element in value.elements():
            assert element[1].cardinality() == 3

    def test_generate_bag_of_bags(self):
        value = generate_bag_of_bags(4, 2)
        assert value.cardinality() <= 4  # equal inner bags may merge
        for inner in value.elements():
            assert isinstance(inner, Bag)

    def test_nested_update_stream(self):
        stream = nested_update_stream("R", 3, 2, 4)
        assert len(stream) == 3
        for update in stream:
            assert set(update.relations) == {"R"}


class TestSocialWorkload:
    def test_generate_users_and_posts(self):
        users = generate_users(20, num_cities=4)
        posts = generate_posts(users, posts_per_user=2)
        assert users.cardinality() == 20
        assert posts.cardinality() == 40

    def test_post_update_stream_requires_users(self):
        with pytest.raises(WorkloadError):
            post_update_stream(Bag(), 1, 1)

    def test_feed_query_results_are_city_local(self):
        users = Bag([("u1", "A"), ("u2", "A"), ("u3", "B")])
        posts = Bag([("u1", "A", "p1"), ("u2", "A", "p2"), ("u3", "B", "p3")])
        result = evaluate_bag(
            feed_query(), Environment(relations={"Users": users, "Posts": posts})
        )
        feeds = dict(result.elements())
        assert feeds["u1"] == Bag(["p2"])
        assert feeds["u3"] == Bag()
