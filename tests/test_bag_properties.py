"""Property-based tests: bags form a commutative group and a monad.

The commutative-group structure of ``(Bag, ⊎, ⊖, ∅)`` is exactly what makes
delta queries exist (Section 3), so these invariants are checked on random
bags with positive and negative multiplicities.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bag import Bag, EMPTY_BAG
from repro.bag import bag as bag_module

elements = st.one_of(st.integers(-5, 5), st.text(alphabet="abc", max_size=2))
multiplicities = st.integers(min_value=-4, max_value=4)
bags = st.dictionaries(elements, multiplicities, max_size=6).map(Bag.from_mapping)


@given(bags, bags)
def test_union_is_commutative(left, right):
    assert left.union(right) == right.union(left)


@given(bags, bags, bags)
def test_union_is_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


@given(bags)
def test_empty_is_neutral(bag):
    assert bag.union(EMPTY_BAG) == bag
    assert EMPTY_BAG.union(bag) == bag


@given(bags)
def test_negation_is_an_inverse(bag):
    assert bag.union(bag.negate()) == EMPTY_BAG


@given(bags)
def test_double_negation_is_identity(bag):
    assert bag.negate().negate() == bag


@given(bags, bags)
def test_any_two_bags_differ_by_a_delta(old, new):
    """Semantics of the group: ΔQ = Qnew ⊖ Qold always reconciles the two."""
    delta = new.difference(old)
    assert old.union(delta) == new


@given(bags, st.integers(min_value=-3, max_value=3))
def test_scaling_distributes_over_union(bag, factor):
    assert bag.union(bag).scale(factor) == bag.scale(factor).union(bag.scale(factor))


@given(bags)
def test_cardinality_is_non_negative(bag):
    assert bag.cardinality() >= 0
    assert bag.cardinality() >= abs(bag.total_multiplicity())


@given(bags, bags)
def test_flat_map_distributes_over_union(left, right):
    """for x in (e1 ⊎ e2) union f(x)  ==  (for x in e1 …) ⊎ (for x in e2 …)."""
    func = lambda x: Bag([("wrapped", x)])
    assert left.union(right).flat_map(func) == left.flat_map(func).union(right.flat_map(func))


@given(bags, bags)
def test_product_cardinality_multiplies(left, right):
    product = left.product(right)
    # Cancellation may only reduce the count, never increase it.
    assert product.cardinality() <= left.cardinality() * right.cardinality()


@given(bags)
def test_hash_equal_bags_have_equal_hash(bag):
    rebuilt = Bag.from_mapping(bag.as_dict())
    assert bag == rebuilt
    assert hash(bag) == hash(rebuilt)


# --------------------------------------------------------------------------- #
# Incremental hashes: ⊎ and ⊖ carry the base operand's cached hash
# --------------------------------------------------------------------------- #
# Elements include inner bags (the nested data model) and tuples of them.
nested_elements = st.one_of(
    elements,
    bags.map(lambda inner: ("inner", inner)),
    bags,
)
nested_bags = st.dictionaries(nested_elements, multiplicities, max_size=8).map(
    Bag.from_mapping
)


def _hashed(bag, cached):
    """``bag`` with its hash cached (``cached``) or not (a fresh equal bag)."""
    if cached:
        hash(bag)
        return bag
    return Bag.from_mapping(bag.as_dict())


def _rebuilt(*pairs):
    """The same bag built from scratch: its hash is computed in full."""
    return Bag.from_pairs(pair for items in pairs for pair in items)


@given(nested_bags, nested_bags, st.booleans(), st.booleans())
def test_union_hash_matches_a_bag_built_from_pairs(a, b, a_cached, b_cached):
    a, b = _hashed(a, a_cached), _hashed(b, b_cached)
    want = _rebuilt(a.items(), b.items())
    for result in (a.union(b), b.union(a)):
        assert result == want
        assert hash(result) == hash(want)


@given(nested_bags, nested_bags, st.booleans(), st.booleans())
def test_difference_hash_matches_a_bag_built_from_pairs(a, b, a_cached, b_cached):
    a, b = _hashed(a, a_cached), _hashed(b, b_cached)
    for left, right in ((a, b), (b, a)):
        result = left.difference(right)
        want = _rebuilt(left.items(), right.negate().items())
        assert result == want
        assert hash(result) == hash(want)


@given(nested_bags, st.booleans())
def test_results_that_cancel_to_empty_hash_as_empty(bag, cached):
    bag = _hashed(bag, cached)
    for result in (bag.union(bag.negate()), bag.difference(bag)):
        assert result == EMPTY_BAG
        assert hash(result) == hash(Bag.from_pairs([]))


@given(nested_bags, st.lists(nested_bags, max_size=6), st.booleans())
def test_a_chain_of_unions_keeps_the_hash_exact(base, deltas, cached):
    current = _hashed(base, cached)
    for delta in deltas:
        current = current.union(delta)
    want = _rebuilt(base.items(), *(delta.items() for delta in deltas))
    assert current == want
    assert hash(current) == hash(want)


def test_a_derived_hash_needs_no_full_hash(monkeypatch):
    """``⊎`` / ``⊖`` with a hashed larger operand hash only the smaller one's
    pairs: the result's hash is ready, and none is computed from scratch."""
    big = Bag.from_pairs(((f"row{index}", ("inner", Bag([index]))), 1) for index in range(500))
    hash(big)
    small = Bag.from_pairs([(("row1", ("inner", Bag([1]))), -1), (("new", 1), 2)])
    calls = []
    full_hash = bag_module._full_hash
    monkeypatch.setattr(
        bag_module, "_full_hash", lambda data: calls.append(len(data)) or full_hash(data)
    )
    results = [big.union(small), small.union(big), big.difference(small)]
    assert [hash(result) for result in results] == [
        full_hash(result._data) for result in results
    ]
    assert calls == []
