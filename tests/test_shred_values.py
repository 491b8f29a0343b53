"""Tests for value shredding and nesting (Figure 9, Lemma 6)."""

import pytest

from repro.bag import Bag, EMPTY_BAG
from repro.errors import ShreddingError
from repro.labels import Label, LabelFactory
from repro.nrc.types import BASE, UNIT, bag_of, tuple_of
from repro.shredding import (
    BagContext,
    TupleContext,
    UNIT_CONTEXT,
    ValueShredder,
    check_consistency,
    collect_labels,
    is_consistent,
    shred_bag,
    unshred_bag,
    unshred_value,
)
from repro.shredding.nesting import Nester, context_lookups
from repro.workloads import generate_nested_bag, nested_bag_type

NESTED_PAIR = tuple_of(BASE, bag_of(BASE))


class TestValueShredding:
    def test_flat_bags_are_unchanged(self):
        bag = Bag([("a", "b"), ("c", "d")])
        flat, context = shred_bag(bag, tuple_of(BASE, BASE))
        assert flat == bag
        assert not list(collect_labels(flat))

    def test_inner_bags_become_labels(self):
        value = Bag([("a", Bag(["x", "y"])), ("b", Bag(["z"]))])
        flat, context = shred_bag(value, NESTED_PAIR)
        labels = collect_labels(flat)
        assert len(labels) == 2
        assert isinstance(context, TupleContext)
        dictionary = context.components[1].dictionary
        assert dictionary.support() == labels

    def test_equal_inner_bags_share_a_label(self):
        shared = Bag(["x"])
        value = Bag([("a", shared), ("b", shared)])
        flat, context = shred_bag(value, NESTED_PAIR)
        labels = collect_labels(flat)
        assert len(labels) == 1

    def test_positions_do_not_share_labels(self):
        """Equal inner bags at two positions get a label each, and every
        dictionary defines the labels its own position uses."""
        shared = Bag(["x"])
        element_type = tuple_of(BASE, bag_of(BASE), bag_of(BASE))
        flat, context = shred_bag(Bag([("a", shared, shared)]), element_type)
        ((_, first, second),) = flat.elements()
        assert first != second
        assert context.project(1).dictionary.lookup(first) == shared
        assert context.project(2).dictionary.lookup(second) == shared
        assert unshred_bag(flat, element_type, context) == Bag([("a", shared, shared)])

    def test_multiplicities_are_preserved(self):
        value = Bag.from_pairs([(("a", Bag(["x"])), 3)])
        flat, _ = shred_bag(value, NESTED_PAIR)
        assert flat.cardinality() == 3

    def test_negative_multiplicities_are_preserved(self):
        value = Bag.from_pairs([(("a", Bag(["x"])), -2)])
        flat, _ = shred_bag(value, NESTED_PAIR)
        assert list(flat.items())[0][1] == -2

    def test_empty_bag_produces_shaped_context(self):
        flat, context = shred_bag(EMPTY_BAG, NESTED_PAIR)
        assert flat == EMPTY_BAG
        assert isinstance(context, TupleContext)
        assert isinstance(context.components[1], BagContext)

    def test_type_mismatch_is_rejected(self):
        with pytest.raises(ShreddingError):
            shred_bag(Bag(["just a string"]), NESTED_PAIR)

    def test_fresh_labels_across_updates(self):
        shredder = ValueShredder(LabelFactory("t"))
        first_flat, _ = shredder.shred_bag(Bag([("a", Bag(["x"]))]), NESTED_PAIR)
        second_flat, _ = shredder.shred_bag(Bag([("b", Bag(["y"]))]), NESTED_PAIR)
        assert collect_labels(first_flat).isdisjoint(collect_labels(second_flat))

    def test_reshredding_existing_bag_does_not_redefine(self):
        shredder = ValueShredder()
        inner = Bag(["x"])
        shredder.shred_bag(Bag([("a", inner)]), NESTED_PAIR)
        _, context = shredder.shred_bag(Bag([("b", inner)]), NESTED_PAIR)
        # The label is reused but its definition is not emitted again.
        assert len(context.components[1].dictionary) == 0


class TestLemma6RoundTrip:
    """u ∘ (s^F, s^Γ) = id on nested values."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_roundtrip_random_values(self, depth):
        bag_type = nested_bag_type(depth)
        value = generate_nested_bag(depth, top_cardinality=15, inner_cardinality=3, seed=depth)
        flat, context = shred_bag(value, bag_type.element)
        assert unshred_bag(flat, bag_type.element, context) == value

    def test_roundtrip_paper_style_value(self):
        value = Bag([("a", Bag(["x1", "x2"])), ("b", Bag(["x3"]))])
        flat, context = shred_bag(value, NESTED_PAIR)
        assert unshred_bag(flat, NESTED_PAIR, context) == value

    def test_roundtrip_with_empty_inner_bag(self):
        value = Bag([("a", EMPTY_BAG), ("b", Bag(["x"]))])
        flat, context = shred_bag(value, NESTED_PAIR)
        assert unshred_bag(flat, NESTED_PAIR, context) == value

    def test_roundtrip_triple_nesting(self):
        triple = bag_of(bag_of(bag_of(BASE)))
        value = Bag([Bag([Bag(["a"]), Bag(["b", "c"])]), Bag([Bag(["d"])])])
        flat, context = shred_bag(value, triple.element)
        assert unshred_bag(flat, triple.element, context) == value

    def test_unshred_requires_value_context(self):
        value = Bag([("a", Bag(["x"]))])
        flat, context = shred_bag(value, NESTED_PAIR)
        with pytest.raises(ShreddingError):
            unshred_value("not-a-label", bag_of(BASE), context.components[1])


class TestCompiledNesting:
    """``u`` compiled from the type: identity wherever the type is bag-free."""

    def test_bag_free_types_compile_to_the_identity(self):
        for type_ in (BASE, tuple_of(BASE, BASE), tuple_of(BASE, tuple_of(BASE, BASE))):
            assert Nester(type_, {}).identity
        flat = Bag([("a", ("b", "c"))])
        assert unshred_bag(flat, tuple_of(BASE, tuple_of(BASE, BASE)), UNIT_CONTEXT) is flat
        element = ("a", "b")
        assert unshred_value(element, tuple_of(BASE, BASE), UNIT_CONTEXT) is element

    def test_bag_free_inner_bags_are_the_dictionarys_own_objects(self):
        value = Bag([("a", Bag(["x", "y"])), ("b", Bag(["z"]))])
        flat, context = shred_bag(value, NESTED_PAIR)
        dictionary = context.components[1].dictionary
        nested = unshred_bag(flat, NESTED_PAIR, context)
        assert nested == value
        by_key = {key: inner for key, inner in nested.elements()}
        for key, label in flat.elements():
            assert by_key[key] is dictionary.lookup(label)

    def test_mixed_product_rebuilds_only_bag_components(self):
        mixed = tuple_of(tuple_of(BASE, BASE), bag_of(BASE), BASE)
        value = Bag([(("k", "v"), Bag(["x"]), "tail")])
        flat, context = shred_bag(value, mixed)
        (flat_element,) = flat.elements()
        (nested,) = unshred_bag(flat, mixed, context).elements()
        assert nested == (("k", "v"), Bag(["x"]), "tail")
        assert nested[0] is flat_element[0]  # bag-free component: untouched

    def test_unit_positions_nest_to_the_unit_value(self):
        with_unit = tuple_of(BASE, UNIT, bag_of(UNIT))
        value = Bag([("a", (), Bag([(), ()]))])
        flat, context = shred_bag(value, with_unit)
        assert unshred_bag(flat, with_unit, context) == value
        assert not Nester(UNIT, {}).identity
        assert unshred_value("anything", UNIT, UNIT_CONTEXT) == ()

    def test_inner_bags_of_bags_are_nested_once_per_label(self):
        element_type = bag_of(bag_of(bag_of(BASE)))
        shared = Bag([Bag(["a"]), Bag(["b", "c"])])
        value = Bag([Bag([shared]), Bag([shared, Bag([Bag(["d"])])])])
        flat, context = shred_bag(value, element_type)
        nester = Nester(element_type, context_lookups(context), track=False)
        assert nester.nest_bag(flat) == value
        stats = nester.stats()
        assert stats["memo_hits"] == 1  # ``shared`` is reached twice, nested once
        assert stats["labels_renested"] == 4  # 2 outer + shared + the ``d`` bag

    def test_non_label_at_a_bag_position_is_rejected(self):
        _, context = shred_bag(Bag([("a", Bag(["x"]))]), NESTED_PAIR)
        with pytest.raises(ShreddingError, match="should be a label"):
            unshred_bag(Bag([("a", "not-a-label")]), NESTED_PAIR, context)

    def test_arity_mismatch_is_rejected(self):
        _, context = shred_bag(Bag([("a", Bag(["x"]))]), NESTED_PAIR)
        with pytest.raises(ShreddingError, match="does not match type"):
            unshred_bag(Bag([("a", Label("l"), "extra")]), NESTED_PAIR, context)
        with pytest.raises(ShreddingError, match="does not match type"):
            unshred_value("not-a-tuple", NESTED_PAIR, context)

    def test_symbolic_context_is_rejected_when_a_label_reaches_it(self):
        flat, _ = shred_bag(Bag([("a", Bag(["x"]))]), NESTED_PAIR)
        with pytest.raises(ShreddingError, match="evaluated dictionary"):
            unshred_bag(flat, NESTED_PAIR, UNIT_CONTEXT)
        # ... and only then: nothing reaches the inner position of an empty bag.
        assert unshred_bag(EMPTY_BAG, NESTED_PAIR, UNIT_CONTEXT) == EMPTY_BAG


class TestConsistency:
    def test_shredding_produces_consistent_values(self):
        """Lemma 11."""
        value = Bag([("a", Bag(["x", "y"])), ("b", Bag(["z"]))])
        flat, context = shred_bag(value, NESTED_PAIR)
        check_consistency(flat, NESTED_PAIR, context)
        assert is_consistent(flat, NESTED_PAIR, context)

    def test_missing_definition_is_detected(self):
        value = Bag([("a", Bag(["x"]))])
        flat, context = shred_bag(value, NESTED_PAIR)
        broken = TupleContext(
            (context.components[0], BagContext(context.components[1].dictionary.without_entry(
                next(iter(collect_labels(flat)))
            ), context.components[1].element))
        )
        assert not is_consistent(flat, NESTED_PAIR, broken)

    def test_non_label_flat_value_is_detected(self):
        value = Bag([("a", Bag(["x"]))])
        _, context = shred_bag(value, NESTED_PAIR)
        assert not is_consistent(Bag([("a", "not-a-label")]), NESTED_PAIR, context)

    def test_update_consistency_check(self):
        from repro.shredding.consistency import check_update_consistency
        from repro.errors import ConsistencyError

        base = frozenset({Label("l1")})
        fresh_ok = frozenset({Label("l2")})
        check_update_consistency(base, fresh_ok, frozenset())
        with pytest.raises(ConsistencyError):
            check_update_consistency(base, frozenset({Label("l1")}), frozenset())
        # Redefinitions of existing labels are allowed when declared as such.
        check_update_consistency(base, frozenset({Label("l1")}), frozenset({Label("l1")}))
