"""Structure-ring constructors, validation, and corner transports."""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jder.rings import (
    AssociativityError,
    Bimodule,
    CornerNotFreeError,
    RingConstructionError,
    StructureRing,
    UnitLawError,
    are_orthogonal,
    build_ring,
    corner_of,
    direct_product,
    dual_numbers,
    is_idempotent,
    matrix_bimodule,
    matrix_ring,
    regular_bimodule,
    triangular_ring,
    zmod,
)

from oracles import r3


def grid_of(mr, x):
    """The entries of a matrix-ring element as a grid of base-ring elements."""
    return [[mr.entry(x, i, j) for j in range(mr.size)] for i in range(mr.size)]


def grid_product(base, a, b):
    """Matrix product of two grids of base-ring elements, entry by entry."""
    return [[sum((a[i][z] * b[z][j] for z in range(len(b))), base.zero())
             for j in range(len(b[0]))] for i in range(len(a))]


def _tables(m: int, k: int):
    """Rank-k tables over Z/m: sparse random ones, mostly not associative and some
    with entries outside [0, m), and diagonal ones c[i, i, i] = a_i, which are."""
    sparse = st.lists(st.one_of(st.just(0), st.integers(-m, 2 * m - 1)),
                      min_size=k ** 3, max_size=k ** 3).map(
        lambda entries: np.array(entries, dtype=np.int64).reshape(k, k, k))

    def diagonal(values):
        c = np.zeros((k, k, k), dtype=np.int64)
        c[range(k), range(k), range(k)] = values
        return c

    return st.one_of(sparse, st.lists(st.integers(0, m - 1), min_size=k, max_size=k).map(diagonal))


class TestConstruction:
    def test_zmod_is_unital(self):
        r = zmod(6)
        assert r.rank == 1 and r.unit == (1,)
        assert (r.one() * r.one()).coeffs == (1,)
        assert r.cardinality == 6

    def test_non_unital_ring_accepted(self):
        r = build_ring(4, [[[2]]])
        assert not r.is_unital
        b = r.basis_element(0)
        assert (b * b).coeffs == (2,)
        with pytest.raises(RingConstructionError):
            r.one()

    def test_dual_numbers(self):
        r = dual_numbers(2)
        one, x = r.basis()
        assert (x * x).is_zero()
        assert one * x == x and x * one == x
        assert r.one() == one

    @pytest.mark.parametrize("m", [2**31 - 1, 2**31])
    def test_product_exact_at_largest_moduli(self, m):
        # Z/m presented with unit -1: b0 * b0 = -b0, so (-1)(-1) = -1 in
        # coefficients, which needs the product reduced between factors.
        r = build_ring(m, [[[m - 1]]], unit=(m - 1,))
        x = r.element((m - 1,))
        assert (x * x).coeffs == (m - 1,)
        assert r.one() * x == x

    def test_associativity_rejected_with_witness(self):
        c = np.zeros((2, 2, 2), dtype=np.int64)
        c[0, 0] = (0, 1)
        c[0, 1] = (1, 0)
        with pytest.raises(AssociativityError) as info:
            build_ring(2, c)
        i, j, l = info.value.triple
        # Recompute both association orders for the reported triple directly.
        left = np.einsum("s,t->st", c[i, j], np.ones(1, dtype=np.int64))
        lhs = sum(c[i, j][s] * c[s, l] for s in range(2)) % 2
        rhs = sum(c[j, l][s] * c[i, s] for s in range(2)) % 2
        assert (lhs != rhs).any()

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(st.integers(2, 12), st.integers(1, 3)).flatmap(
        lambda mk: st.tuples(st.just(mk[0]), _tables(*mk))))
    def test_associativity_check_names_the_first_failing_triple(self, case):
        m, c = case
        k = len(c)
        t = c.tolist()
        failing = [(i, j, l) for i, j, l in itertools.product(range(k), repeat=3)
                   if any(sum(t[i][j][s] * t[s][l][u] - t[j][l][s] * t[i][s][u]
                              for s in range(k)) % m for u in range(k))]
        if not failing:
            assert build_ring(m, c).constants.tolist() == (c % m).tolist()
            return
        with pytest.raises(AssociativityError) as info:
            build_ring(m, c)
        assert info.value.triple == failing[0]

    def test_unit_law_rejected(self):
        with pytest.raises(UnitLawError):
            build_ring(4, [[[1]]], unit=(2,))

    def test_bad_shapes(self):
        with pytest.raises(RingConstructionError):
            build_ring(2, np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(RingConstructionError):
            build_ring(2, np.zeros((1, 2, 2), dtype=np.int64))

    def test_value_equality_across_presentations(self):
        a, b = zmod(3), zmod(3)
        assert a is not b
        assert a.one() == b.one()
        assert a.same_presentation(b)


class TestElements:
    def test_arithmetic(self):
        r = zmod(5)
        two, three = r.element((2,)), r.element((3,))
        assert (two + three).coeffs == (0,)
        assert (two - three).coeffs == (4,)
        assert (two * three).coeffs == (1,)
        assert (3 * two).coeffs == (1,)
        assert (-two).coeffs == (3,)

    def test_cross_ring_rejected(self):
        with pytest.raises(ValueError):
            zmod(2).one() + zmod(3).one()

    def test_idempotents(self):
        r = zmod(6)
        assert is_idempotent(r.element((3,)))
        assert is_idempotent(r.element((4,)))
        assert is_idempotent(r.zero())
        assert not is_idempotent(r.element((2,)))
        assert are_orthogonal(r.element((3,)), r.element((4,)))
        with pytest.raises(ValueError):
            are_orthogonal(r.element((2,)), r.one())


class TestMatrixRing:
    def test_matrix_units(self):
        mr = matrix_ring(zmod(2), 2)
        assert mr.rank == 4
        e01 = mr.matrix_unit(0, 1)
        e10 = mr.matrix_unit(1, 0)
        assert e01 * e10 == mr.matrix_unit(0, 0)
        assert (e10 * e10).is_zero()
        assert mr.one() == mr.matrix_unit(0, 0) + mr.matrix_unit(1, 1)

    def test_pair_ring_layout(self):
        base = dual_numbers(3)
        mr = matrix_ring(base, 2)
        assert mr.pairs == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert mr.labels[2:4] == ("e[0,1]*1", "e[0,1]*x")
        assert [mr.index(1, 0, t) for t in (0, 1)] == [4, 5]
        assert mr.block((0, 1), (1,)) == [2, 3, 6, 7]
        with pytest.raises(KeyError):
            mr.index(0, 2)
        with pytest.raises(KeyError):
            mr.matrix_unit(2, 0)
        with pytest.raises(IndexError):
            mr.index(0, 0, 2)
        assert mr.entry(mr.one(), 0, 2) == base.zero()
        with pytest.raises(ValueError):
            mr.from_entries({(0, 0): zmod(3).one()})

    def test_pair_ring_over_the_zero_ring(self):
        # Every pair of M_2(0) is listed, but b_0 lies outside the rank-0 base.
        base = StructureRing(4, np.zeros((0, 0, 0), dtype=np.int64), unit=[])
        mr = matrix_ring(base, 2)
        assert mr.rank == 0 and mr.matrix_unit(1, 0) == mr.one() == mr.zero()
        assert mr.entry(mr.one(), 0, 1) == base.zero()
        with pytest.raises(IndexError, match="base-ring index 0 out of range"):
            mr.index(0, 1)
        with pytest.raises(KeyError, match=r"the pair \(0, 2\) is not listed"):
            mr.from_entries({(0, 2): base.one()})

    def test_entries_round_trip(self):
        base = dual_numbers(3)
        mr = matrix_ring(base, 2)
        grid = [[base.element((1, 2)), base.element((0, 1))],
                [base.zero(), base.one()]]
        e = mr.from_entries({(i, j): grid[i][j] for i in range(2) for j in range(2)})
        for i in range(2):
            for j in range(2):
                assert mr.entry(e, i, j) == grid[i][j]

    def test_product_matches_matrix_multiplication(self):
        base = zmod(4)
        mr = matrix_ring(base, 2)
        am = np.array([[1, 2], [3, 0]])
        bm = np.array([[2, 1], [1, 3]])
        a, b = (mr.from_entries({(i, j): base.element((int(x[i, j]),))
                                 for i in range(2) for j in range(2)}) for x in (am, bm))
        prod = a * b
        cm = (am @ bm) % 4
        for i in range(2):
            for j in range(2):
                assert mr.entry(prod, i, j).coeffs == (int(cm[i, j]),)
        # M_3(R3) against sums of base-ring products of the entries.
        base, rng = r3(), random.Random(5)
        mr = matrix_ring(base, 3)
        for _ in range(5):
            a, b = (mr.element([rng.randrange(4) for _ in range(mr.rank)]) for _ in range(2))
            ga, gb = (grid_of(mr, x) for x in (a, b))
            assert grid_of(mr, a * b) == grid_product(base, ga, gb)


class TestProductRing:
    def test_componentwise(self):
        pr = direct_product(zmod(2), zmod(2))
        assert pr.unit == (1, 1)
        e, f = pr.element((1, 0)), pr.element((0, 1))
        assert is_idempotent(e) and is_idempotent(f)
        assert are_orthogonal(e, f)
        assert e + f == pr.one()

    def test_pair_split(self):
        pr = direct_product(zmod(4), zmod(4))
        x = pr.pair(zmod(4).one(), zmod(4).element((3,)))
        l, r = pr.split(x)
        assert l.coeffs == (1,) and r.coeffs == (3,)
        assert (x * x).coeffs == (1, 1)

    def test_modulus_mismatch(self):
        with pytest.raises(RingConstructionError):
            direct_product(zmod(2), zmod(3))


class TestBimodule:
    # The actions are read through the triangular-ring product:
    # (a, 0, 0)(0, x, 0) = (0, a x, 0) and (0, x, 0)(0, 0, b) = (0, x b, 0).

    def test_regular_bimodule(self):
        z4 = zmod(4)
        bim = regular_bimodule(z4)
        assert bim.rank == 1
        tri = triangular_ring(z4, bim, z4)
        zero, three = z4.zero(), z4.element((3,))
        module = tri.triple(zero, (2,), zero)
        assert tri.parts(tri.triple(three, (0,), zero) * module)[1] == (2,)
        assert tri.parts(module * tri.triple(zero, (0,), three))[1] == (2,)

    def test_matrix_bimodule_actions(self):
        bim = matrix_bimodule(zmod(2), 1, 2)
        left, right = bim.left, bim.right
        assert bim.rank == 2
        # 1x1 identity acts as identity; right multiplication permutes columns.
        tri = triangular_ring(left, bim, right)
        m01 = tri.triple(left.zero(), (0, 1), right.zero())
        e10 = tri.triple(left.zero(), (0, 0), right.matrix_unit(1, 0))
        assert tri.parts(m01 * e10)[1] == (1, 0)
        assert tri.parts(tri.triple(left.one(), (0, 0), right.zero()) * m01)[1] == (0, 1)

    @pytest.mark.parametrize("n, p", [(1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("base", [zmod(4), dual_numbers(2), r3()], ids=["Z4", "dual2", "R3"])
    def test_matrix_bimodule_matches_entrywise_products(self, base, n, p):
        bim = matrix_bimodule(base, n, p)

        def module_grid(vec):
            vec = vec.reshape(n, p, base.rank)
            return [[base.element(vec[i, j]) for j in range(p)] for i in range(n)]

        basis = np.eye(bim.rank, dtype=np.int64)
        for u, a in enumerate(bim.left.basis()):
            for j in range(bim.rank):
                assert module_grid(bim.left_action[u, j]) == grid_product(
                    base, grid_of(bim.left, a), module_grid(basis[j]))
        for v, b in enumerate(bim.right.basis()):
            for j in range(bim.rank):
                assert module_grid(bim.right_action[j, v]) == grid_product(
                    base, module_grid(basis[j]), grid_of(bim.right, b))

    def test_shape_rejected(self):
        with pytest.raises(RingConstructionError):
            Bimodule(zmod(2), zmod(2), 1, np.zeros((2, 1, 1), dtype=np.int64),
                     np.zeros((1, 1, 1), dtype=np.int64))

    def test_unit_action_enforced(self):
        # Unit must act as the identity on the module.
        with pytest.raises(RingConstructionError):
            Bimodule(zmod(2), zmod(2), 1, np.zeros((1, 1, 1), dtype=np.int64), [[[1]]])

    # Each law on its own.  Z/4 acting on one side as 2 is not associative:
    # (b0 b0) m = 2m but b0 (b0 m) = 4m = 0.
    def test_left_action_law_enforced(self):
        with pytest.raises(RingConstructionError, match="left action is not associative"):
            Bimodule(zmod(4), zmod(4), 1, [[[2]]], [[[1]]])

    def test_right_action_law_enforced(self):
        with pytest.raises(RingConstructionError, match="right action is not associative"):
            Bimodule(zmod(4), zmod(4), 1, [[[1]]], [[[2]]])

    def test_commuting_law_enforced(self):
        # Over the rank-1 zero ring, a m1 = m0 and m0 b = m1 on a rank-2 module:
        # both actions square to zero, so each is associative, but
        # (a m1) b = m1 while a (m1 b) = 0.
        zero_ring = build_ring(2, [[[0]]])
        left, right = np.zeros((1, 2, 2), dtype=np.int64), np.zeros((2, 1, 2), dtype=np.int64)
        left[0, 1] = (1, 0)
        right[0, 0] = (0, 1)
        with pytest.raises(RingConstructionError, match="actions do not commute"):
            Bimodule(zero_ring, zero_ring, 2, left, right)


class TestTriangularRing:
    def test_product_law(self):
        z3 = zmod(3)
        tri = triangular_ring(z3, regular_bimodule(z3), z3)
        assert tri.rank == 3
        x = tri.triple(z3.element((1,)), (2,), z3.element((0,)))
        y = tri.triple(z3.element((2,)), (1,), z3.element((2,)))
        a, mv, b = tri.parts(x * y)
        # (1,2,0)(2,1,2) = (1*2, 1*1 + 2*2, 0*2) = (2, 2, 0)
        assert a.coeffs == (2,) and mv == (2,) and b.coeffs == (0,)

    def test_unit(self):
        z2 = zmod(2)
        tri = triangular_ring(z2, regular_bimodule(z2), z2)
        one = tri.one()
        for b in tri.basis():
            assert one * b == b and b * one == b

    def test_requires_units(self):
        nonunital = build_ring(2, [[[0]]])
        with pytest.raises(RingConstructionError):
            triangular_ring(
                nonunital,
                Bimodule(nonunital, nonunital, 1, np.zeros((1, 1, 1), dtype=np.int64),
                         np.zeros((1, 1, 1), dtype=np.int64)),
                nonunital,
            )


class TestCorner:
    def test_full_corner_is_the_ring(self):
        r = matrix_ring(zmod(2), 2)
        corner = corner_of(r, r.one())
        assert corner.ring.rank == r.rank
        assert np.array_equal(corner.ring.constants, r.constants)
        x = r.element((1, 0, 1, 1))
        assert corner.embed(corner.project(x)) == x

    def test_matrix_unit_corner(self):
        r = matrix_ring(zmod(2), 2)
        e = r.matrix_unit(0, 0)
        corner = corner_of(r, e)
        assert corner.ring.rank == 1
        assert corner.ring.cardinality == 2
        assert corner.ring.is_unital
        assert corner.embed(corner.ring.one()) == e
        # e * e12 * e lies in the corner only after compression.
        with pytest.raises(ValueError):
            corner.project(r.matrix_unit(0, 1))
        assert corner.compress(r.matrix_unit(0, 1)).is_zero()

    def test_zero_corner(self):
        r = zmod(4)
        corner = corner_of(r, r.zero())
        assert corner.ring.rank == 0
        assert corner.ring.cardinality == 1
        assert corner.ring.one().coeffs == ()

    def test_non_idempotent_rejected(self):
        r = zmod(4)
        with pytest.raises(ValueError):
            corner_of(r, r.element((2,)))

    def test_non_free_corner_rejected(self):
        # In Z/6 the idempotent 3 cuts out {0, 3}, a Z/2 summand that cannot
        # live on any (Z/6)^s.
        r = zmod(6)
        with pytest.raises(CornerNotFreeError):
            corner_of(r, r.element((3,)))

    def test_corner_multiplication_transports(self):
        r = matrix_ring(zmod(4), 2)
        e = r.matrix_unit(0, 0) + r.matrix_unit(1, 1)
        corner = corner_of(r, e)
        x = corner.compress(r.element(tuple(range(4))))
        y = corner.compress(r.element(tuple(reversed(range(4)))))
        assert corner.embed(x * y) == corner.embed(x) * corner.embed(y)


def _corner():
    r = matrix_ring(zmod(2), 2)
    return corner_of(r, r.matrix_unit(0, 0))


def _t2():
    z = zmod(2)
    return triangular_ring(z, regular_bimodule(z), z)


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_ring(2, np.zeros((2, 2, 2), dtype=np.int64), labels=["a"]), RingConstructionError,
     "one label per basis element is required"),
    (lambda: build_ring(2, np.zeros((2, 2, 2), dtype=np.int64), unit=(1,)), RingConstructionError,
     "unit vector length must equal the rank"),
    (lambda: zmod(2).element((1, 0)), ValueError, "expected 1 coefficients, got shape (2,)"),
    (lambda: zmod(2).one() + 1, TypeError, "cannot combine RingElement with int"),
    (lambda: matrix_ring(zmod(2), 0), RingConstructionError, "matrix size must be at least 1"),
    (lambda: direct_product(zmod(2), dual_numbers(2)).pair(dual_numbers(2).one(), zmod(2).one()),
     ValueError, "components belong to the wrong factors"),
    (lambda: Bimodule(zmod(2), zmod(4), 1, [[[1]]], [[[1]]]), RingConstructionError,
     "bimodule sides must share the modulus"),
    (lambda: Bimodule(zmod(2), zmod(2), 1, [[[1, 0]]], [[[1]]]), RingConstructionError,
     "left action must have shape (k_A, k_M, k_M) = (1, 1, 1), got (1, 1, 2)"),
    (lambda: _t2().triple(dual_numbers(2).one(), [0], zmod(2).one()), ValueError,
     "first component must belong to the left corner ring"),
    (lambda: _t2().triple(zmod(2).one(), [0], dual_numbers(2).one()), ValueError,
     "third component must belong to the right corner ring"),
    (lambda: _t2().triple(zmod(2).one(), [0, 0], zmod(2).one()), ValueError,
     "middle component has wrong length"),
    (lambda: triangular_ring(zmod(2), regular_bimodule(zmod(2)), dual_numbers(2)),
     RingConstructionError, "bimodule sides do not match the given corner rings"),
    (lambda: _corner().embed(zmod(4).one()), ValueError,
     "element does not belong to the corner ring"),
    (lambda: _corner().project(zmod(2).one()), ValueError,
     "element does not belong to the parent ring"),
    (lambda: corner_of(matrix_ring(zmod(2), 2), zmod(2).one()), ValueError,
     "idempotent does not belong to the ring"),
], ids=["labels", "unit-length", "element-shape", "non-element", "matrix-size", "pair-factors",
        "bimodule-modulus", "left-action-shape", "triple-first", "triple-third", "triple-middle",
        "triangular-sides", "corner-embed", "corner-project", "corner-idempotent"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
