"""Tests for the database, update objects and the shredded mirror."""

import pytest

from repro.bag import Bag, EMPTY_BAG
from repro.errors import WorkloadError
from repro.ivm import Database, Update, UpdateStream, deletions, insertions
from repro.ivm.views import View
from repro.labels import Label
from repro.nrc.types import BASE, bag_of, tuple_of
from repro.shredding.shred_database import flat_relation_name, input_dict_name
from repro.workloads import MOVIE_SCHEMA, PAPER_MOVIES

NESTED_SCHEMA = bag_of(bag_of(BASE))


class TestUpdateObjects:
    def test_insertions_and_deletions_helpers(self):
        insert = insertions("M", [("a", "g", "d")])
        assert insert.relations["M"].multiplicity(("a", "g", "d")) == 1
        delete = deletions("M", [("a", "g", "d")])
        assert delete.relations["M"].multiplicity(("a", "g", "d")) == -1

    def test_is_empty_and_total_size(self):
        assert Update().is_empty()
        assert not insertions("M", [("a", "g", "d")]).is_empty()
        update = Update(relations={"M": Bag([("a", "g", "d")])}, deep={"D": {Label("l"): Bag(["x"])}})
        assert update.total_size() == 2
        assert update.touched_relations() == ("M",)

    def test_deep_dict_deltas(self):
        update = Update(deep={"D": {Label("l"): Bag(["x"])}})
        deltas = update.deep_dict_deltas()
        assert deltas["D"].lookup(Label("l")) == Bag(["x"])

    def test_update_stream_merge(self):
        stream = UpdateStream(
            [insertions("M", [("a", "g", "d")]), insertions("M", [("b", "g", "d")])]
        )
        assert len(stream) == 2
        assert stream.total_size() == 2
        merged = stream.merged()
        assert merged.relations["M"].cardinality() == 2

    def test_update_stream_indexing(self):
        first = insertions("M", [("a", "g", "d")])
        stream = UpdateStream([first])
        assert stream[0] is first
        stream.append(insertions("M", [("b", "g", "d")]))
        assert len(list(stream)) == 2

    def test_deep_delta_of_empty_bags_is_empty(self):
        # Regression: pointwise emptiness — a deep delta that adds only
        # empty bags changes nothing and must report empty.
        update = Update(deep={"R__D1": {Label("l"): EMPTY_BAG}})
        assert update.is_empty()
        mixed = Update(deep={"R__D1": {Label("l"): EMPTY_BAG, Label("m"): Bag(["x"])}})
        assert not mixed.is_empty()

    def test_merged_drops_cancelled_relations(self):
        stream = UpdateStream(
            [insertions("M", [("a", "g", "d")]), deletions("M", [("a", "g", "d")])]
        )
        merged = stream.merged()
        assert "M" not in merged.relations
        assert merged.is_empty()

    def test_merged_drops_cancelled_deep_labels(self):
        label, other = Label("l"), Label("m")
        stream = UpdateStream(
            [
                Update(deep={"R__D": {label: Bag(["x"]), other: Bag(["y"])}}),
                Update(deep={"R__D": {label: Bag(["x"]).negate()}}),
            ]
        )
        merged = stream.merged()
        assert label not in merged.deep["R__D"]
        assert merged.deep["R__D"][other] == Bag(["y"])
        # A fully cancelled dictionary disappears altogether.
        cancelling = UpdateStream(
            [
                Update(deep={"R__D": {label: Bag(["x"])}}),
                Update(deep={"R__D": {label: Bag(["x"]).negate()}}),
            ]
        )
        assert cancelling.merged().deep == {}


class TestDatabase:
    def test_register_and_read(self, movie_db, paper_movies):
        assert movie_db.relation("M") == paper_movies
        assert movie_db.relation_names() == ("M",)
        assert movie_db.schema("M") == MOVIE_SCHEMA

    def test_double_registration_rejected(self, movie_db):
        with pytest.raises(WorkloadError):
            movie_db.register("M", MOVIE_SCHEMA)

    def test_update_to_unknown_relation_rejected(self, movie_db):
        with pytest.raises(WorkloadError):
            movie_db.apply_update(insertions("Unknown", [("a",)]))

    def test_empty_update_to_unknown_relation_still_rejected(self, movie_db):
        # The no-op short-circuit must not mask a typo'd relation name.
        with pytest.raises(WorkloadError):
            movie_db.apply_update(Update(relations={"Mtypo": EMPTY_BAG}))

    def test_apply_update_mutates_nested_relation(self, movie_db, paper_update):
        movie_db.apply_update(Update(relations={"M": paper_update}))
        assert movie_db.relation("M").multiplicity(("Jarhead", "Drama", "Mendes")) == 1

    def test_apply_deletion(self, movie_db):
        movie_db.apply_update(deletions("M", [("Drive", "Drama", "Refn")]))
        assert ("Drive", "Drama", "Refn") not in movie_db.relation("M")

    def test_shredded_mirror_for_flat_relation(self, movie_db, paper_movies):
        env = movie_db.shredded_environment()
        assert env.relations[flat_relation_name("M")] == paper_movies

    def test_shredded_mirror_for_nested_relation(self):
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a", "b"]), Bag(["c"])]))
        env = database.shredded_environment()
        flat = env.relations[flat_relation_name("R")]
        assert flat.cardinality() == 2
        assert all(isinstance(element, Label) for element in flat.elements())
        dictionary = env.dictionaries[input_dict_name("R", ())]
        assert len(dictionary.support()) == 2

    def test_shred_update_creates_delta_symbols(self, movie_db, paper_update):
        delta = movie_db.shred_update(Update(relations={"M": paper_update}))
        assert delta.bags[flat_relation_name("M")] == paper_update
        assert delta.source_names() == (flat_relation_name("M"),)
        assert (flat_relation_name("M"), 1) in delta.as_delta_symbols()

    def test_shred_update_of_nested_insert_defines_new_labels(self):
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a"])]))
        delta = database.shred_update(Update(relations={"R": Bag([Bag(["new"])])}))
        assert input_dict_name("R", ()) in delta.dictionaries
        assert len(delta.dictionaries[input_dict_name("R", ())]) == 1

    def test_shredded_mirror_is_updated_incrementally(self):
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a"])]))
        database.apply_update(Update(relations={"R": Bag([Bag(["b", "c"])])}))
        env = database.shredded_environment()
        assert env.relations[flat_relation_name("R")].cardinality() == 2
        assert len(env.dictionaries[input_dict_name("R", ())].support()) == 2

    def test_views_are_notified_before_mutation(self, movie_db, paper_movies, paper_update):
        observed = {}

        class Probe(View):
            def on_update(self, update, shredded_delta, context):
                observed["relation_at_notification"] = movie_db.relation("M")
                observed["context_relation"] = context.delta_environment().relations["M"]

        movie_db.register_view(Probe())
        movie_db.apply_update(Update(relations={"M": paper_update}))
        assert observed["relation_at_notification"] == paper_movies
        assert observed["context_relation"] == paper_movies

    def test_deep_update_refreshes_nested_relation(self):
        database = Database()
        database.register("R", NESTED_SCHEMA, Bag([Bag(["a"]), Bag(["b"])]))
        dict_name = input_dict_name("R", ())
        label = sorted(
            database.shredded_environment().dictionaries[dict_name].support(),
            key=lambda l: l.render(),
        )[0]
        database.apply_update(Update(deep={dict_name: {label: Bag(["z"])}}))
        updated = database.relation("R")
        assert any("z" in inner.elements() for inner in updated.elements() if isinstance(inner, Bag))

    def test_noop_update_short_circuits_view_notification(self, movie_db):
        calls = []

        class Probe(View):
            def on_update(self, update, shredded_delta, context):
                calls.append(update)

        movie_db.register_view(Probe())
        movie_db.apply_update(Update())
        movie_db.apply_update(Update(relations={"M": EMPTY_BAG}))
        movie_db.apply_update(Update(deep={"whatever__D": {Label("l"): EMPTY_BAG}}))
        assert calls == []
        movie_db.apply_update(insertions("M", [("a", "g", "d")]))
        assert len(calls) == 1

    def test_register_view_requires_a_view(self, movie_db):
        class Duck:
            def on_update(self, update, shredded_delta, context):
                pass

        with pytest.raises(TypeError, match="subclass View"):
            movie_db.register_view(Duck())

    def test_deep_update_of_relation_named_with_dunder_d(self):
        # Regression: the relation name itself contains the "__D" separator;
        # parsing the dictionary name would mis-derive the owner ("user")
        # and silently skip the nested refresh.
        database = Database()
        database.register("user__Data", NESTED_SCHEMA, Bag([Bag(["a"]), Bag(["b"])]))
        dict_name = input_dict_name("user__Data", ())
        label = sorted(
            database.shredded_environment().dictionaries[dict_name].support(),
            key=lambda l: l.render(),
        )[0]
        database.apply_update(Update(deep={dict_name: {label: Bag(["z"])}}))
        updated = database.relation("user__Data")
        assert any(
            "z" in inner.elements() for inner in updated.elements() if isinstance(inner, Bag)
        )

    def test_shredded_source_names(self, movie_db):
        assert movie_db.shredded_source_names("M") == (flat_relation_name("M"),)
        database = Database()
        database.register("R", NESTED_SCHEMA, EMPTY_BAG)
        assert database.shredded_source_names("R") == (
            flat_relation_name("R"),
            input_dict_name("R", ()),
        )


class TestFlatDeltaValidation:
    def test_malformed_flat_delta_is_rejected(self):
        """The shredder bypass for flat relations must keep the shredder's
        shape validation: a wrong-arity tuple fails at apply time, not as a
        confusing downstream projection error."""
        from repro.errors import ShreddingError

        database = Database()
        database.register("M", MOVIE_SCHEMA, Bag(PAPER_MOVIES))
        with pytest.raises(ShreddingError):
            database.apply_update(Update(relations={"M": Bag([("bad",)])}))
        with pytest.raises(ShreddingError):
            database.apply_update(Update(relations={"M": Bag(["not-a-tuple"])}))
        # Well-formed deltas still pass through without the shredder.
        database.apply_update(Update(relations={"M": Bag([("a", "g", "d")])}))
        assert database.relation("M").multiplicity(("a", "g", "d")) == 1
