"""Tests for nested IVM through shredding (the engine behind Section 2.2/5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bag import Bag, EMPTY_BAG
from repro.ivm import Database, NaiveView, NestedIVMView, Update, deletions, insertions
from repro.nrc import ast, builders as build, predicates as preds
from repro.nrc.compile import IndexRequirement
from repro.nrc.evaluator import evaluate_bag
from repro.nrc.types import BASE, BagType, ProductType, bag_of, tuple_of
from repro.shredding import BagContext, TupleContext, UNIT_CONTEXT, unshred_bag
from repro.shredding.shred_database import flat_relation_name, input_dict_name
from repro.shredding.shred_values import ValueShredder
from repro.storage import forced_shards
from repro.workloads import (
    MOVIE_SCHEMA,
    PAPER_UPDATE,
    feed_query,
    generate_movies,
    generate_posts,
    generate_users,
    movie_update_stream,
    post_update_stream,
    related_query,
    POST_SCHEMA,
    USER_SCHEMA,
)

NESTED_SCHEMA = bag_of(bag_of(BASE))


class TestRelatedMaintenance:
    """The motivating example, maintained in shredded form."""

    def test_initial_materialization_matches_direct_evaluation(self, movie_db, related):
        view = NestedIVMView(related, movie_db)
        assert view.result() == evaluate_bag(related, movie_db.environment())

    def test_paper_update_produces_the_paper_result(self, movie_db, related):
        view = NestedIVMView(related, movie_db)
        movie_db.apply_update(Update(relations={"M": PAPER_UPDATE}))
        result = view.result()
        rows = {name: inner for name, inner in result.elements()}
        assert rows["Drive"] == Bag(["Jarhead"])
        assert rows["Skyfall"] == Bag(["Rush", "Jarhead"])
        assert rows["Jarhead"] == Bag(["Drive", "Skyfall"])
        assert rows["Rush"] == Bag(["Skyfall"])

    def test_matches_naive_over_mixed_stream(self, related):
        database = Database()
        database.register("M", MOVIE_SCHEMA, generate_movies(30))
        naive = NaiveView(related, database)
        nested = NestedIVMView(related, database)
        stream = movie_update_stream(
            5, 3, existing=database.relation("M"), deletion_ratio=0.4, seed=5
        )
        for update in stream:
            database.apply_update(update)
            assert nested.result() == naive.result()

    def test_flat_view_and_dictionary_shapes(self, movie_db, related):
        view = NestedIVMView(related, movie_db)
        assert view.flat_result().cardinality() == 3
        assert view.dictionary_paths() == ((1,),)
        dictionary = view.dictionary((1,))
        assert len(dictionary.support()) == 3

    def test_unknown_dictionary_path_rejected(self, movie_db, related):
        view = NestedIVMView(related, movie_db)
        with pytest.raises(KeyError):
            view.dictionary((9,))

    def test_does_less_work_than_naive_on_larger_instances(self, related):
        database = Database()
        database.register("M", MOVIE_SCHEMA, generate_movies(200))
        naive = NaiveView(related, database)
        nested = NestedIVMView(related, database)
        for update in movie_update_stream(2, 2):
            database.apply_update(update)
        assert (
            nested.stats.mean_update_operations
            < naive.stats.mean_update_operations / 3
        )

    def test_vacuum_drops_stale_labels(self, movie_db, related):
        view = NestedIVMView(movie_db and related, movie_db)
        movie_db.apply_update(deletions("M", [("Drive", "Drama", "Refn")]))
        assert view.result() == evaluate_bag(related, movie_db.environment())
        removed = view.vacuum()
        assert removed >= 1
        assert view.result() == evaluate_bag(related, movie_db.environment())


class TestOtherQueries:
    def test_identity_over_nested_input(self):
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a", "b"]), Bag(["c"])]))
        query = build.for_in("x", ast.Relation("R", NESTED_SCHEMA), ast.SngVar("x"))
        view = NestedIVMView(query, database)
        database.apply_update(Update(relations={"R": Bag([Bag(["d", "e"])])}))
        assert view.result() == database.relation("R")

    def test_social_feed_maintenance(self):
        users = generate_users(15, num_cities=3)
        posts = generate_posts(users, posts_per_user=2)
        database = Database()
        database.register("Users", USER_SCHEMA, users)
        database.register("Posts", POST_SCHEMA, posts)
        query = feed_query()
        naive = NaiveView(query, database)
        nested = NestedIVMView(query, database)
        for update in post_update_stream(users, 3, 2):
            database.apply_update(update)
        assert nested.result() == naive.result()

    def test_flat_query_through_the_nested_engine(self, movie_db):
        query = build.filter_query(
            ast.Relation("M", MOVIE_SCHEMA),
            preds.eq(preds.var_path("x", 1), preds.const("Drama")),
            "x",
        )
        view = NestedIVMView(query, movie_db)
        movie_db.apply_update(insertions("M", [("Melancholia", "Drama", "vonTrier")]))
        assert view.result() == evaluate_bag(query, movie_db.environment())

    def test_updates_to_one_of_two_relations(self):
        database = Database()
        database.register("Users", USER_SCHEMA, generate_users(8, num_cities=2))
        database.register("Posts", POST_SCHEMA, generate_posts(generate_users(8, num_cities=2)))
        query = feed_query()
        naive = NaiveView(query, database)
        nested = NestedIVMView(query, database)
        database.apply_update(insertions("Users", [("newuser", "City0")]))
        assert nested.result() == naive.result()


class TestDeepUpdates:
    def test_deep_update_to_input_inner_bag(self):
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a", "b"]), Bag(["c"])]))
        query = build.for_in("x", ast.Relation("R", NESTED_SCHEMA), ast.SngVar("x"))
        view = NestedIVMView(query, database)

        dict_name = input_dict_name("R", ())
        label = sorted(
            database.shredded_environment().dictionaries[dict_name].support(),
            key=lambda l: l.render(),
        )[0]
        database.apply_update(Update(deep={dict_name: {label: Bag(["z"])}}))
        assert view.result() == database.relation("R")

    def test_deep_deletion_from_inner_bag(self):
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a", "b"])]))
        query = build.for_in("x", ast.Relation("R", NESTED_SCHEMA), ast.SngVar("x"))
        view = NestedIVMView(query, database)
        dict_name = input_dict_name("R", ())
        label = next(iter(database.shredded_environment().dictionaries[dict_name].support()))
        database.apply_update(
            Update(deep={dict_name: {label: Bag.from_pairs([("a", -1)])}})
        )
        assert view.result() == Bag([Bag(["b"])])

    def test_deep_update_work_is_independent_of_database_size(self):
        sizes = (40, 160)
        ops = []
        for size in sizes:
            database = Database()
            database.register(
                "R", NESTED_SCHEMA, Bag([Bag([f"x{i}"]) for i in range(size)])
            )
            query = build.for_in("x", ast.Relation("R", NESTED_SCHEMA), ast.SngVar("x"))
            view = NestedIVMView(query, database)
            dict_name = input_dict_name("R", ())
            label = next(iter(database.shredded_environment().dictionaries[dict_name].support()))
            database.apply_update(Update(deep={dict_name: {label: Bag(["extra"])}}))
            ops.append(view.stats.mean_update_operations)
        assert ops[0] == ops[1]

    def test_mixed_shallow_and_deep_update(self):
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a"]), Bag(["b"])]))
        query = build.for_in("x", ast.Relation("R", NESTED_SCHEMA), ast.SngVar("x"))
        view = NestedIVMView(query, database)
        dict_name = input_dict_name("R", ())
        label = sorted(
            database.shredded_environment().dictionaries[dict_name].support(),
            key=lambda l: l.render(),
        )[0]
        database.apply_update(
            Update(relations={"R": Bag([Bag(["c"])])}, deep={dict_name: {label: Bag(["z"])}})
        )
        assert view.result() == database.relation("R")


# --------------------------------------------------------------------------- #
# The maintained nesting: result() ≡ u from scratch ≡ the interpreter
# --------------------------------------------------------------------------- #
DEPTH2_SCHEMA = bag_of(bag_of(bag_of(BASE)))
ATOMS = ("a", "b", "c")
INNER_BAGS = (Bag(["a"]), Bag(["b"]), Bag(["a", "b"]), Bag(["c", "c"]), EMPTY_BAG)
MOVIE_ROWS = [
    (name, genre, director)
    for name in ("A", "B", "C", "D")
    for genre in ("Drama", "Action")
    for director in ("Refn", "Mendes")
]

history_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ("insert", "delete", "deep_inner", "deep_outer", "vacuum", "readd", "movies")
        ),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from((-2, -1, 1, 2)),
    ),
    max_size=20,
)


def _value_context(view, type_, path=()):
    """The view's materialized dictionaries as a value context (copies)."""
    if isinstance(type_, ProductType):
        return TupleContext(
            tuple(
                _value_context(view, component, path + (index,))
                for index, component in enumerate(type_.components)
            )
        )
    if isinstance(type_, BagType):
        return BagContext(
            view.dictionary(path), _value_context(view, type_.element, path + ("e",))
        )
    return UNIT_CONTEXT


def _sorted_labels(database, name, path):
    dictionary = database.shredded_environment().dictionaries[input_dict_name(name, path)]
    return sorted(dictionary.support(), key=lambda label: label.render())


class _History:
    """A database with a depth-2 nested relation and a flat one, the two
    nested views over them, and the checks every step must pass."""

    def __init__(self):
        self.database = Database()
        self.database.register(
            "R",
            DEPTH2_SCHEMA,
            Bag([Bag([Bag(["a"]), Bag(["b"])]), Bag([Bag(["a", "b"])])]),
        )
        self.database.register("M", MOVIE_SCHEMA, Bag(MOVIE_ROWS[:3]))
        self.queries = {
            "identity": build.for_in("x", ast.Relation("R", DEPTH2_SCHEMA), ast.SngVar("x")),
            "related": related_query(),
        }
        self.views = {
            name: NestedIVMView(query, self.database) for name, query in self.queries.items()
        }
        self.check()

    def check(self):
        database = self.database
        for name, view in self.views.items():
            element_type = view.shredded.output_type.element
            result = view.result()
            assert result == unshred_bag(
                view.flat_result(), element_type, _value_context(view, element_type)
            ), name
            assert result == evaluate_bag(self.queries[name], database.environment()), name
            assert view.result() is result, name
        # The nested instance of R is u(its shredded mirror).
        mirror = database.shredded_environment()
        context = BagContext(
            mirror.dictionaries[input_dict_name("R", ())],
            BagContext(mirror.dictionaries[input_dict_name("R", ("e",))], UNIT_CONTEXT),
        )
        assert database.relation("R") == unshred_bag(
            mirror.relations[flat_relation_name("R")], DEPTH2_SCHEMA.element, context
        )

    def step(self, kind, first, second, count):
        database = self.database
        if kind == "insert":
            outer = Bag(
                [INNER_BAGS[first % len(INNER_BAGS)], INNER_BAGS[second % len(INNER_BAGS)]][
                    : 1 + first % 2
                ]
            )
            database.apply_update(Update(relations={"R": Bag.from_pairs([(outer, count)])}))
        elif kind == "delete":
            rows = sorted(database.relation("R").items(), key=repr)
            if rows:
                element, multiplicity = rows[first % len(rows)]
                database.apply_update(
                    Update(relations={"R": Bag.from_pairs([(element, -multiplicity)])})
                )
        elif kind == "deep_inner":
            labels = _sorted_labels(database, "R", ("e",))
            delta = Bag.from_pairs([(ATOMS[second % len(ATOMS)], count)])
            database.apply_update(
                Update(deep={input_dict_name("R", ("e",)): {labels[first % len(labels)]: delta}})
            )
        elif kind == "deep_outer":
            outer = _sorted_labels(database, "R", ())
            inner = _sorted_labels(database, "R", ("e",))
            delta = Bag.from_pairs([(inner[second % len(inner)], count)])
            database.apply_update(
                Update(deep={input_dict_name("R", ()): {outer[first % len(outer)]: delta}})
            )
        elif kind == "vacuum":
            before = {name: view.result() for name, view in self.views.items()}
            for view in self.views.values():
                view.vacuum()
            for name, view in self.views.items():
                assert view.result() is before[name]  # vacuum changes no result
        elif kind == "readd":
            rows = sorted(database.relation("R").items(), key=repr)
            if rows:
                element, multiplicity = rows[first % len(rows)]
                database.apply_update(
                    Update(relations={"R": Bag.from_pairs([(element, -multiplicity)])})
                )
                self.check()
                if second % 2:
                    self.views["identity"].vacuum()
                database.apply_update(
                    Update(relations={"R": Bag.from_pairs([(element, multiplicity)])})
                )
        elif kind == "movies":
            rows = [MOVIE_ROWS[first % len(MOVIE_ROWS)], MOVIE_ROWS[second % len(MOVIE_ROWS)]]
            database.apply_update(
                Update(relations={"M": Bag.from_pairs([(rows[0], count), (rows[1], 1)])})
            )
        self.check()


class TestMaintainedNesting:
    @pytest.mark.parametrize("shards", [1, None])
    def test_random_histories_match_scratch_nesting_and_interpreter(self, shards):
        @settings(max_examples=100, deadline=None)
        @given(history_steps)
        def run(steps):
            with forced_shards(shards):
                history = _History()
                for step in steps:
                    history.step(*step)

        run()

    def test_two_flat_tuples_nesting_to_the_same_value(self):
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a"]), Bag(["b"])]))
        query = build.for_in("x", ast.Relation("R", NESTED_SCHEMA), ast.SngVar("x"))
        view = NestedIVMView(query, database)
        assert view.result() == Bag([Bag(["a"]), Bag(["b"])])
        dict_name = input_dict_name("R", ())
        first, second = _sorted_labels(database, "R", ())
        # Converge both labels on {q}: two flat tuples, one nested value.
        for label, atom in ((first, "a"), (second, "b")):
            database.apply_update(
                Update(deep={dict_name: {label: Bag.from_pairs([(atom, -1), ("q", 1)])}})
            )
        assert view.flat_result().distinct_size() == 2
        assert view.result() == Bag.from_pairs([(Bag(["q"]), 2)]) == database.relation("R")
        # Deleting the value once cancels against either tuple, exactly.
        database.apply_update(deletions("R", [Bag(["q"])]))
        assert view.result() == Bag([Bag(["q"])]) == database.relation("R")
        database.apply_update(deletions("R", [Bag(["q"])]))
        assert view.result() == EMPTY_BAG == database.relation("R")

    def test_stale_label_is_not_reused_after_a_deep_update(self):
        """A tuple carrying the *old* inner bag of a deep-updated label must
        not be shredded to that label (which now stands for another bag)."""
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a"])]))
        query = build.for_in("x", ast.Relation("R", NESTED_SCHEMA), ast.SngVar("x"))
        view = NestedIVMView(query, database)
        dict_name = input_dict_name("R", ())
        (label,) = _sorted_labels(database, "R", ())
        database.apply_update(Update(deep={dict_name: {label: Bag(["z"])}}))
        database.apply_update(insertions("R", [Bag(["a"])]))
        expected = Bag([Bag(["a", "z"]), Bag(["a"])])
        assert database.relation("R") == expected
        assert view.result() == expected

    def test_unchanged_view_keeps_its_result_object(self, movie_db, related):
        database = movie_db
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a"])]))
        view = NestedIVMView(related, database)
        first = view.result()
        assert view.result() is first
        # An update that cannot reach the view leaves the object in place.
        database.apply_update(insertions("R", [Bag(["b"])]))
        assert view.result() is first
        database.apply_update(Update(relations={"M": PAPER_UPDATE}))
        second = view.result()
        assert second is not first and view.result() is second
        # A delta that cancels out changes nothing either.
        database.apply_update(Update(relations={"M": PAPER_UPDATE}))
        database.apply_update(Update(relations={"M": PAPER_UPDATE.negate()}))
        assert view.result() == second

    def test_flat_output_is_served_from_the_flat_view(self, movie_db):
        query = build.filter_query(
            ast.Relation("M", MOVIE_SCHEMA),
            preds.eq(preds.var_path("x", 1), preds.const("Drama")),
            "x",
        )
        view = NestedIVMView(query, movie_db)
        assert view.result() is view.flat_result()
        movie_db.apply_update(insertions("M", [("Melancholia", "Drama", "vonTrier")]))
        assert view.result() is view.flat_result()
        assert view.read_stats()["nesting"]["nest_elements"] == 0


# --------------------------------------------------------------------------- #
# Equal inner bags at different dictionary positions and in different relations
# --------------------------------------------------------------------------- #
TWIN_SCHEMA = bag_of(tuple_of(BASE, bag_of(BASE), bag_of(BASE)))
SINGLE_SCHEMA = bag_of(tuple_of(BASE, bag_of(BASE)))
TWIN_BAGS = (Bag([5]), Bag([6]), Bag([5, 6]), EMPTY_BAG)
TWIN_POSITIONS = (("S", (1,)), ("S", (2,)), ("T", (1,)))

twin_steps = st.lists(
    st.tuples(
        st.sampled_from(("S", "S", "T", "deep")),
        st.integers(0, 5),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from((-1, 1, 2)),
    ),
    max_size=16,
)


class _TwinHistory:
    """Two relations whose inner bags collide by value — within a tuple,
    across tuples and across relations — checked against a model that owns
    the values.

    The model learns *which* label a tuple was given from the flat mirror,
    but what a label stands for is only what the test put there: the bag it
    inserted, plus the deep deltas it sent to that dictionary.  A label that
    stands in for a different bag, or that its own dictionary does not
    define, shows as a relation that differs from the model.
    """

    def __init__(self):
        self.database = Database()
        self.database.register("S", TWIN_SCHEMA, EMPTY_BAG)
        self.database.register("T", SINGLE_SCHEMA, EMPTY_BAG)
        self.schemas = {"S": TWIN_SCHEMA, "T": SINGLE_SCHEMA}
        self.query = build.for_in("x", ast.Relation("S", TWIN_SCHEMA), ast.SngVar("x"))
        self.view = NestedIVMView(self.query, self.database)
        self.live = {"S": {}, "T": {}}  # key → the tuple now stored under it
        self.defined = {position: {} for position in TWIN_POSITIONS}
        # One deep update first, so S's nester maintains it from here on.
        self.put("S", ("seed", Bag([1]), Bag([2])), 1)
        self.deep(0, 0, Bag([7]))

    def flat(self, name):
        return self.database.shredded_environment().relations[flat_relation_name(name)]

    def put(self, name, row, count):
        before = self.flat(name)
        self.database.apply_update(Update(relations={name: Bag.from_pairs([(row, count)])}))
        ((flat_row, flat_count),) = self.flat(name).difference(before).items()
        assert flat_count == count and flat_row[0] == row[0]
        for index in range(1, len(row)):
            known = self.defined[(name, (index,))].setdefault(flat_row[index], row[index])
            assert known == row[index], "a label was handed out for a different bag"

    def deep(self, which, pick, delta):
        name, path = TWIN_POSITIONS[which % len(TWIN_POSITIONS)]
        labels = sorted(self.defined[(name, path)], key=lambda label: label.render())
        if labels:
            label = labels[pick % len(labels)]
            self.database.apply_update(
                Update(deep={input_dict_name(name, path): {label: delta}})
            )
            self.defined[(name, path)][label] = self.defined[(name, path)][label].union(delta)

    def step(self, kind, key, first, second, count):
        if kind == "deep":
            self.deep(key, first, Bag.from_pairs([(5 + second % 3, count)]))
        else:
            stored = self.live[kind].pop(key, None)
            if stored is not None:  # a key holds one tuple at a time
                self.put(kind, stored[0], -stored[1])
            else:
                bags = [TWIN_BAGS[first % 4], TWIN_BAGS[second % 4]]
                row = (f"k{key}", *bags[: len(self.schemas[kind].element.components) - 1])
                self.put(kind, row, count)
                self.live[kind][key] = (row, count)
        self.check()

    def check(self):
        for name in ("S", "T"):
            expected = Bag.from_pairs(
                (
                    (flat_row[0],)
                    + tuple(
                        self.defined[(name, (index,))][flat_row[index]]
                        for index in range(1, len(flat_row))
                    ),
                    count,
                )
                for flat_row, count in self.flat(name).items()
            )
            assert self.database.relation(name) == expected, name
        assert self.view.result() == self.database.relation("S")
        assert self.view.result() == evaluate_bag(self.query, self.database.environment())


class TestPositionsDoNotShareLabels:
    @pytest.mark.parametrize("shards", [1, None])
    def test_random_histories_with_colliding_inner_bags(self, shards):
        @settings(max_examples=100, deadline=None)
        @given(twin_steps)
        def run(steps):
            with forced_shards(shards):
                history = _TwinHistory()
                for step in steps:
                    history.step(*step)

        run()

    def test_equal_bags_in_two_components_and_two_relations(self):
        history = _TwinHistory()
        database = history.database
        database.apply_update(insertions("S", [("d", Bag([5]), Bag([5]))]))
        database.apply_update(insertions("T", [("u", Bag([5]))]))
        assert database.relation("S") == Bag(
            [("seed", Bag([1, 7]), Bag([2])), ("d", Bag([5]), Bag([5]))]
        )
        assert database.relation("T") == Bag([("u", Bag([5]))])
        assert history.view.result() == database.relation("S")
        # Every dictionary defines the labels of its own position ...
        mirror = database.shredded_environment()
        ((_, first, second),) = [row for row in history.flat("S").elements() if row[0] == "d"]
        assert first != second
        assert mirror.dictionaries[input_dict_name("S", (1,))].lookup(first) == Bag([5])
        assert mirror.dictionaries[input_dict_name("S", (2,))].lookup(second) == Bag([5])
        # ... so a deep update through one reaches nothing outside it.
        database.apply_update(Update(deep={input_dict_name("S", (2,)): {second: Bag([9])}}))
        database.apply_update(
            Update(
                deep={
                    input_dict_name("T", (1,)): {
                        label: Bag([8])
                        for label in mirror.dictionaries[input_dict_name("T", (1,))].support()
                    }
                }
            )
        )
        assert database.relation("S") == Bag(
            [("seed", Bag([1, 7]), Bag([2])), ("d", Bag([5]), Bag([5, 9]))]
        )
        assert database.relation("T") == Bag([("u", Bag([5, 8]))])
        assert history.view.result() == database.relation("S")

    def test_a_pre_position_checkpoint_memo_is_rekeyed_on_adoption(self):
        """A shredder pickled with the old ``nested value → label`` memo is
        re-keyed from the adopted dictionaries: stored inner bags (depth 2
        too) keep their labels, so a deletion cancels in the flat mirror."""
        import pickle

        row = Bag([Bag(["a"]), Bag(["b"])])
        source = Database()
        source.register("R", DEPTH2_SCHEMA, Bag([row]))
        state = source.export_durable_state()
        old = dict(state["shredder"].__dict__)
        del old["_labels_by_contents"]
        old["_labels_by_value"] = {row: None}  # contents never read, only its presence
        shredder = ValueShredder.__new__(ValueShredder)
        shredder.__dict__.update(old)
        restored_shredder = pickle.loads(pickle.dumps(shredder))
        assert restored_shredder.needs_rekey

        restored = Database()
        relation = state["relations"]["R"]
        restored.adopt_relation(
            "R",
            DEPTH2_SCHEMA,
            relation["nested_bag"],
            relation["flat_bag"],
            nested_shards=relation["nested_shards"],
            flat_shards=relation["flat_shards"],
        )
        for name, entries in state["dictionaries"].items():
            restored.adopt_dictionary(name, entries)
        restored.adopt_shredder(restored_shredder)
        assert not restored_shredder.needs_rekey
        restored.apply_update(deletions("R", [row]))
        assert restored.relation("R") == EMPTY_BAG
        assert restored.shredded_environment().relations[flat_relation_name("R")] == EMPTY_BAG
        # A round trip of today's format needs no re-keying.
        assert not pickle.loads(pickle.dumps(state["shredder"])).needs_rekey


class TestNestingCost:
    """Counts, not times: a read costs what the update touched."""

    GROUPS = 200

    def _grouped(self):
        schema = bag_of(tuple_of(BASE, bag_of(BASE)))
        database = Database()
        database.register(
            "P",
            schema,
            Bag([(f"k{i}", Bag([f"x{i}", f"y{i}"])) for i in range(self.GROUPS)]),
        )
        (index,) = database.register_index_requirements([IndexRequirement("P", ((0,),))])
        query = build.for_in("p", ast.Relation("P", schema), ast.SngVar("p"))
        return database, NestedIVMView(query, database), index

    def test_read_after_a_deep_update_nests_one_element(self):
        database, view, _ = self._grouped()
        view.result()
        nesting = view.read_stats()["nesting"]
        assert nesting["full_builds"] == 1
        assert nesting["nest_elements"] == self.GROUPS
        dict_name = input_dict_name("P", (1,))
        label = _sorted_labels(database, "P", (1,))[17]
        database.apply_update(Update(deep={dict_name: {label: Bag(["extra"])}}))
        assert view.result() == database.relation("P")
        nesting = view.read_stats()["nesting"]
        assert nesting["full_builds"] == 1
        assert nesting["flat_renested"] == 1
        assert nesting["nest_elements"] == self.GROUPS + 1
        assert nesting["memo_labels"] == self.GROUPS

    def test_deep_update_renests_by_delta_and_keeps_indexes(self):
        database, view, index = self._grouped()
        dict_name = input_dict_name("P", (1,))
        labels = _sorted_labels(database, "P", (1,))

        def rebuilds():
            (described,) = database.describe_indexes([index])
            return described["rebuilds"]

        def relation_nesting():
            (entry,) = [
                entry
                for entry in database.storage_report()["read_path"]
                if entry.get("relation") == "P"
            ]
            return entry["nesting"]

        before = rebuilds()
        # The first deep update builds the relation's nester (one full nest).
        database.apply_update(Update(deep={dict_name: {labels[3]: Bag(["first"])}}))
        built = relation_nesting()
        assert built["full_builds"] == 1 and built["nest_elements"] == self.GROUPS
        # From then on a deep update to 1 of 200 groups nests 1 element.
        database.apply_update(Update(deep={dict_name: {labels[5]: Bag(["second"])}}))
        settled = relation_nesting()
        assert settled["nest_elements"] - built["nest_elements"] == 1
        assert settled["full_builds"] == 1
        # ... plain inserts and deletes too, through the same nester.
        database.apply_update(insertions("P", [("new", Bag(["n"]))]))
        database.apply_update(deletions("P", [("k9", Bag(["x9", "y9"]))]))
        assert relation_nesting()["nest_elements"] - settled["nest_elements"] == 1
        assert rebuilds() == before
        assert view.result() == database.relation("P")
        assert sum("second" in inner for _, inner in database.relation("P").elements()) == 1

    def test_update_never_scans_the_active_label_index(self, movie_db, related):
        """on_update is O(|Δ|): the labels to initialize are the ones whose
        count just crossed 0 → 1, not a scan of every active label."""

        class NoScan(dict):
            def __iter__(self):
                raise AssertionError("on_update iterated the active-label index")

        view = NestedIVMView(related, movie_db)
        for state in view._dict_states:
            state.active = NoScan(state.active)
        movie_db.apply_update(Update(relations={"M": PAPER_UPDATE}))
        movie_db.apply_update(deletions("M", [("Drive", "Drama", "Refn")]))
        movie_db.apply_update(insertions("M", [("Drive", "Drama", "Refn")]))
        assert view.result() == evaluate_bag(related, movie_db.environment())

    def test_unread_dirt_stays_bounded(self):
        """A view that was read once and then only written to keeps one
        dirty mark per rewritten label, and still settles correctly."""
        database, view, _ = self._grouped()
        view.result()
        dict_name = input_dict_name("P", (1,))
        labels = _sorted_labels(database, "P", (1,))[:3]
        for step in range(40):
            database.apply_update(
                Update(deep={dict_name: {labels[step % 3]: Bag([f"s{step}"])}})
            )
        (position,) = view._nester._positions
        assert len(position.dirty) == len(labels)  # not 40
        assert view.result() == database.relation("P")
        assert view.read_stats()["nesting"]["flat_renested"] == 3

    def test_memo_is_evicted_with_the_entries(self, movie_db, related):
        view = NestedIVMView(related, movie_db)
        view.result()
        assert view.read_stats()["nesting"]["memo_labels"] == 3
        movie_db.apply_update(deletions("M", [("Drive", "Drama", "Refn")]))
        view.result()
        view.vacuum()
        assert view.read_stats()["nesting"]["memo_labels"] == 2
        assert view.result() == evaluate_bag(related, movie_db.environment())
