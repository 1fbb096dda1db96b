"""Preorder closure, quotient structure, isolation, intervals."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jder.preorders import ClosureError, Preorder
from oracles import preorders_up_to_isomorphism


def chain(n):
    labels = [chr(ord("a") + i) for i in range(n)]
    return Preorder.from_pairs(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


class TestClosure:
    def test_auto_close_chain(self):
        p = chain(3)
        assert p.leq("a", "c")
        assert not p.leq("c", "a")
        assert p.leq("b", "b")

    def test_reject_missing_transitive_pair(self):
        with pytest.raises(ClosureError) as info:
            Preorder.from_pairs(
                "abc",
                [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
                auto_close=False,
            )
        assert info.value.witness == ("a", "c")

    def test_reject_missing_reflexive_pair(self):
        with pytest.raises(ClosureError) as info:
            Preorder.from_pairs("ab", [("a", "a"), ("a", "b")], auto_close=False)
        assert info.value.witness == ("b", "b")

    def test_closed_input_accepted_without_auto_close(self):
        pairs = [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c")]
        p = Preorder.from_pairs("abc", pairs, auto_close=False)
        assert p.leq("a", "c")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            Preorder.from_pairs("ab", [("a", "z")])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Preorder.from_pairs("aa", [])


class TestQuotient:
    def test_two_cycle_collapses(self):
        p = Preorder.from_pairs("ab", [("a", "b"), ("b", "a")])
        q = p.quotient()
        assert q.size == 1
        assert q.members(0) == ("a", "b")
        assert q.leq(0, 0)

    def test_classes_ordered_by_least_element(self):
        # d ~ a and c ~ b; class 0 must contain a, class 1 must contain b.
        p = Preorder.from_pairs(
            "abcd", [("a", "d"), ("d", "a"), ("b", "c"), ("c", "b"), ("a", "b")]
        )
        q = p.quotient()
        assert q.members(0) == ("a", "d")
        assert q.members(1) == ("b", "c")
        assert q.leq(0, 1) and not q.leq(1, 0)
        assert q.class_of("c") == 1

    def test_interval(self):
        q = chain(4).quotient()
        assert q.interval(0, 3) == (0, 1, 2, 3)
        assert q.interval(1, 2) == (1, 2)
        assert q.interval(2, 1) == ()

    def test_v_shape(self):
        p = Preorder.from_pairs("abc", [("a", "c"), ("b", "c")])
        q = p.quotient()
        assert q.size == 3
        assert q.isolated_classes() == ()
        assert q.comparable_partner(0) == 2
        assert q.comparable_partner(2) == 0


class TestIsolation:
    def test_antichain_everything_isolated(self):
        p = Preorder.from_pairs("ab", [])
        assert p.isolated_elements() == ("a", "b")
        assert p.quotient().isolated_classes() == (0, 1)

    def test_two_cycle_not_isolated_elementwise(self):
        # The class {a, b} is isolated in the quotient, but neither element
        # is isolated in the preorder itself.
        p = Preorder.from_pairs("ab", [("a", "b"), ("b", "a")])
        assert p.isolated_elements() == ()
        assert p.quotient().isolated_classes() == (0,)

    def test_mixed(self):
        p = Preorder.from_pairs("abc", [("a", "b")])
        assert p.isolated_elements() == ("c",)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_definition(self, n):
        for p in preorders_up_to_isomorphism(n):
            a = p.as_array()
            alone = tuple(x for i, x in enumerate(p.labels)
                          if not any(a[i, j] or a[j, i] for j in range(n) if j != i))
            assert p.isolated_elements() == alone


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=8,
            ),
            st.permutations(range(n)),
        )
    )
)
def test_quotient_is_permutation_equivariant(data):
    n, idx_pairs, perm = data
    labels = [chr(ord("a") + i) for i in range(n)]
    pairs = [(labels[i], labels[j]) for i, j in idx_pairs]
    p = Preorder.from_pairs(labels, pairs)
    relabel = {labels[i]: labels[perm[i]] for i in range(n)}
    p2 = Preorder.from_pairs(labels, [(relabel[x], relabel[y]) for x, y in pairs])
    # Same comparabilities after renaming.
    for x, y in itertools.product(labels, repeat=2):
        assert p.leq(x, y) == p2.leq(relabel[x], relabel[y])
    q, q2 = p.quotient(), p2.quotient()
    assert q.size == q2.size
    assert {frozenset(relabel[l] for l in q.members(c)) for c in range(q.size)} == \
        {frozenset(q2.members(c)) for c in range(q2.size)}
    assert sorted(p2.isolated_elements()) == sorted(relabel[x] for x in p.isolated_elements())


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=8,
            ),
        )
    )
)
def test_closure_round_trip(data):
    n, idx_pairs = data
    labels = [chr(ord("a") + i) for i in range(n)]
    p = Preorder.from_pairs(labels, [(labels[i], labels[j]) for i, j in idx_pairs])
    closed_pairs = [(labels[i], labels[j]) for i, j in p.comparable_pairs()]
    again = Preorder.from_pairs(labels, closed_pairs, auto_close=False)
    assert again == p


@pytest.mark.parametrize("call", [
    lambda p: p.index("z"),
    lambda p: p.leq("a", "z"),
], ids=["index", "leq"])
def test_unknown_label_is_refused(call):
    with pytest.raises(KeyError, match="^\"unknown point 'z'\"$"):
        call(Preorder.from_pairs("ab", [("a", "b")]))
