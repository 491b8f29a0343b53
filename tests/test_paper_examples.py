"""End-to-end reproduction of the paper's worked examples.

Each test corresponds to a numbered example or a concrete claim of the paper
and checks our implementation against the values printed in the paper itself.
"""

from repro.bag import Bag, EMPTY_BAG
from repro.cost import ATOM_COST, BagCost, CostContext, TupleCost, cost_of, size_of, tcost
from repro.delta import delta
from repro.ivm import Database, NaiveView, NestedIVMView, Update
from repro.nrc import ast, builders as build, predicates as preds
from repro.nrc.evaluator import Environment, evaluate_bag
from repro.nrc.pretty import render
from repro.nrc.types import BASE, bag_of, tuple_of
from repro.shredding import shred_query
from repro.workloads import MOVIE_SCHEMA, PAPER_MOVIES, PAPER_UPDATE, doz_query, related_query

M = ast.Relation("M", MOVIE_SCHEMA)


class TestExample1RelatedQuery:
    """Example 1: the related-movies view and its update."""

    def test_initial_instance(self):
        result = evaluate_bag(related_query(), Environment(relations={"M": PAPER_MOVIES}))
        assert dict(result.elements()) == {
            "Drive": EMPTY_BAG,
            "Skyfall": Bag(["Rush"]),
            "Rush": Bag(["Skyfall"]),
        }

    def test_updated_instance(self):
        updated = PAPER_MOVIES.union(PAPER_UPDATE)
        result = evaluate_bag(related_query(), Environment(relations={"M": updated}))
        assert dict(result.elements()) == {
            "Drive": Bag(["Jarhead"]),
            "Skyfall": Bag(["Rush", "Jarhead"]),
            "Rush": Bag(["Skyfall"]),
            "Jarhead": Bag(["Drive", "Skyfall"]),
        }


class TestSection21Shredding:
    """Section 2.1/2.2: relatedF, relatedΓ and their deltas."""

    def test_related_flat_and_context_tables(self):
        shredded = shred_query(related_query())
        from repro.shredding import build_shredded_environment

        env = build_shredded_environment({"M": PAPER_MOVIES}, {"M": MOVIE_SCHEMA})
        flat = shredded.evaluate_flat(env)
        # relatedF has one tuple per movie, with a label in the second column.
        assert flat.cardinality() == 3
        names = {row[0] for row in flat.elements()}
        assert names == {"Drive", "Skyfall", "Rush"}
        # relatedΓ maps each label to the bag of related movie names.
        context = shredded.evaluate_context(env)
        dictionary = context.components[1].dictionary
        by_name = {row[0]: dictionary.lookup(row[1]) for row in flat.elements()}
        assert by_name == {
            "Drive": EMPTY_BAG,
            "Skyfall": Bag(["Rush"]),
            "Rush": Bag(["Skyfall"]),
        }

    def test_delta_of_related_flat_reads_only_the_update(self):
        shredded = shred_query(related_query())
        flat_delta = delta(shredded.flat, ["M__F"])
        assert "ΔM__F" in render(flat_delta)
        assert "for m in ΔM__F" in render(flat_delta)

    def test_ivm_cost_grows_slower_than_recomputation(self):
        """The §2.2 cost analysis: O(nd + d²) vs Ω((n+d)²)."""
        from repro.workloads import generate_movies

        ops = {}
        for n in (50, 200):
            database = Database()
            database.register("M", MOVIE_SCHEMA, generate_movies(n))
            naive = NaiveView(related_query(), database)
            nested = NestedIVMView(related_query(), database)
            database.apply_update(Update(relations={"M": PAPER_UPDATE}))
            ops[n] = (naive.stats.mean_update_operations, nested.stats.mean_update_operations)
        naive_growth = ops[200][0] / ops[50][0]
        ivm_growth = ops[200][1] / ops[50][1]
        assert naive_growth > 8   # roughly quadratic in n
        assert ivm_growth < 6     # roughly linear in n


class TestExample2And3Filter:
    def test_filter_definition_and_delta(self):
        query = build.filter_query(M, preds.eq(preds.var_path("x", 1), preds.const("Drama")), "x")
        result = evaluate_bag(query, Environment(relations={"M": PAPER_MOVIES}))
        assert result == Bag([("Drive", "Drama", "Refn")])
        delta_query = delta(query, ["M"])
        assert render(delta_query) == "for x in ΔM where x.1 == 'Drama' union sng(x)"


class TestExample4HigherOrderDeltas:
    def test_first_and_second_order_deltas(self, selfjoin_query):
        first = delta(selfjoin_query, ["R"])
        second = delta(first, ["R"], order=2)
        assert "flatten(ΔR)" in render(first) and "flatten(R)" in render(first)
        assert "flatten(R)" not in render(second)
        assert "Δ'R" in render(second)


class TestExample5And6Costs:
    def test_example_5_size(self):
        value = Bag(
            [("Comedy", Bag(["Carnage"])), ("Animation", Bag(["Up", "Shrek", "Cars"]))]
        )
        assert size_of(value).render() == "2{⟨1, 3{1}⟩}"

    def test_example_6_cost_of_related(self):
        context = CostContext.from_instances(relations={"M": PAPER_MOVIES})
        cost = cost_of(related_query(), context)
        assert cost == BagCost(3, TupleCost((ATOM_COST, BagCost(3, ATOM_COST))))
        assert tcost(cost) == 3 * (1 + 3)


class TestExample7Dictionaries:
    def test_relb_dictionary(self):
        """Dictionary [(ι, Movie) ↦ relB(m)] maps ⟨ι, m⟩ to m's related movies."""
        shredded = shred_query(related_query())
        from repro.shredding import build_shredded_environment
        from repro.nrc.evaluator import evaluate
        from repro.labels import Label

        env = build_shredded_environment({"M": PAPER_MOVIES}, {"M": MOVIE_SCHEMA})
        dictionary = evaluate(shredded.context.components[1].dictionary, env)
        label = Label("ι0", (("Skyfall", "Action", "Mendes"),))
        assert dictionary.lookup(label) == Bag(["Rush"])


class TestExample8FlatDOz:
    def test_doz_and_its_delta(self):
        movies = Bag([("Drive", "Drama"), ("Skyfall", "Action")])
        shows = Bag([("Drive", "Oz", "20:00"), ("Skyfall", "Oz", "21:00")])
        relations = {"Mflat": movies, "Sh": shows}
        query = doz_query()
        assert evaluate_bag(query, Environment(relations=relations)) == Bag(["Drive"])

        delta_sh = Bag([("Melancholia", "Oz", "22:00")])
        delta_m = Bag([("Melancholia", "Drama")])
        post = {"Mflat": movies.union(delta_m), "Sh": shows.union(delta_sh)}
        updates = Environment(
            relations=relations, deltas={("Sh", 1): delta_sh, ("Mflat", 1): delta_m}
        )
        incremental = evaluate_bag(query, Environment(relations=relations)).union(
            evaluate_bag(delta(query), updates)
        )
        assert incremental == evaluate_bag(query, Environment(relations=post))
        assert incremental.multiplicity("Melancholia") == 1


class TestExample9NStr:
    def test_string_encoding_of_the_example_value(self):
        from repro.circuits import nested_to_symbols, symbols_to_position_relation

        value = Bag([("a", Bag(["b", "c"])), ("d", Bag(["e", "f"]))])
        symbols = nested_to_symbols(value)
        assert len(symbols) == 21  # the paper's table has positions 1..21
        relation = symbols_to_position_relation(symbols)
        assert relation.cardinality() == 21
