"""Incidence-ring assembly: convolution, blocks, idempotents, families."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from jder.incidence import _validate_family, fi_ring, verify_family_conditions
from jder.preorders import Preorder
from jder.rings import (
    corner_of,
    direct_product,
    dual_numbers,
    matrix_ring,
    regular_bimodule,
    triangular_ring,
    zmod,
)

from oracles import preorders_up_to_isomorphism, r3


def chain(n):
    labels = [chr(ord("a") + i) for i in range(n)]
    return Preorder.from_pairs(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


TWO_CYCLE = Preorder.from_pairs("ab", [("a", "b"), ("b", "a")])
ANTICHAIN2 = Preorder.from_pairs("ab", [])
V_SHAPE = Preorder.from_pairs("abc", [("a", "c"), ("b", "c")])
SMALL_PREORDERS = [p for n in (1, 2, 3) for p in preorders_up_to_isomorphism(n)]


class TestAssembly:
    def test_ranks(self):
        assert fi_ring(chain(2), zmod(2)).rank == 3
        assert fi_ring(chain(3), zmod(2)).rank == 6
        assert fi_ring(TWO_CYCLE, zmod(2)).rank == 4
        assert fi_ring(V_SHAPE, zmod(2)).rank == 5
        assert fi_ring(chain(2), dual_numbers(2)).rank == 6

    def test_unit_is_sum_of_class_idempotents(self):
        fi = fi_ring(V_SHAPE, zmod(4))
        total = fi.zero()
        for e in fi.class_idempotents():
            total = total + e
        assert total == fi.one()

    def test_class_idempotents_orthogonal(self):
        from jder.rings import are_orthogonal, is_idempotent

        fi = fi_ring(chain(3), dual_numbers(2))
        es = fi.class_idempotents()
        for e in es:
            assert is_idempotent(e)
        for i, e in enumerate(es):
            for f in es[i + 1:]:
                assert are_orthogonal(e, f)

    def test_requires_unital_coefficients(self):
        from jder.rings import build_ring

        with pytest.raises(ValueError):
            fi_ring(chain(2), build_ring(2, [[[0]]]))

    def test_incomparable_entry_is_zero(self):
        fi = fi_ring(ANTICHAIN2, zmod(2))
        index = fi.preorder.index
        x = fi.from_entries({(index("a"), index("a")): zmod(2).one()})
        assert fi.entry(x, index("a"), index("b")).is_zero()
        with pytest.raises(KeyError):
            fi.index(0, 1)


class TestConvolution:
    def test_chain_composition(self):
        fi = fi_ring(chain(3), zmod(2))
        index = fi.preorder.index
        one = zmod(2).one()
        u = fi.from_entries({(index("a"), index("b")): one})
        v = fi.from_entries({(index("b"), index("c")): one})
        w = fi.convolve(u, v)
        assert w == fi.from_entries({(index("a"), index("c")): one})
        assert u * v == w
        assert (v * u).is_zero()

    def test_convolve_matches_ring_product(self):
        rng = random.Random(7)
        for p, r in [
            (chain(3), zmod(4)),
            (TWO_CYCLE, zmod(3)),
            (V_SHAPE, zmod(2)),
            (chain(2), dual_numbers(2)),
        ]:
            fi = fi_ring(p, r)
            for _ in range(25):
                a = fi.element([rng.randrange(r.modulus) for _ in range(fi.rank)])
                b = fi.element([rng.randrange(r.modulus) for _ in range(fi.rank)])
                assert fi.convolve(a, b) == a * b

    def test_preorder_enumeration_counts(self):
        assert [len(preorders_up_to_isomorphism(n)) for n in (1, 2, 3)] == [1, 3, 9]

    @pytest.mark.parametrize("coefficients", [zmod(4), dual_numbers(2), r3()],
                             ids=["Z4", "dual2", "R3"])
    @pytest.mark.parametrize("preorder", SMALL_PREORDERS,
                             ids=[" ".join(f"{i}{j}" for i, j in p.comparable_pairs())
                                  for p in SMALL_PREORDERS])
    def test_basis_products_match_convolution(self, preorder, coefficients):
        fi = fi_ring(preorder, coefficients)
        basis = fi.basis()
        for a in basis:
            for b in basis:
                assert a * b == fi.convolve(a, b)
        # The PairRing accessors: coefficient n * k_R + t is b_t at the n-th pair.
        rng = random.Random(11)
        x = {pq: coefficients.element([rng.randrange(coefficients.modulus)
                                        for _ in range(coefficients.rank)]) for pq in fi.pairs}
        elem = fi.from_entries(x)
        assert elem.coeffs == sum((x[pq].coeffs for pq in fi.pairs), ())
        assert {pq: fi.entry(elem, *pq) for pq in fi.pairs} == x
        for p, q in itertools.product(range(preorder.size), repeat=2):
            if (p, q) not in x:
                assert fi.entry(elem, p, q) == coefficients.zero()
                with pytest.raises(KeyError):
                    fi.index(p, q)
        classes, blocks = fi.quotient.classes, []
        for cx, cy in itertools.product(range(fi.quotient.size), repeat=2):
            if fi.quotient.leq(cx, cy):
                assert fi.block(classes[cx], classes[cy]) == fi.block_indices(cx, cy)
                blocks += fi.block_indices(cx, cy)
        assert blocks == list(range(fi.rank))  # the basis is sorted by class


class TestKnownIsomorphisms:
    def test_two_cycle_is_matrix_ring(self):
        # One class of two mutually comparable points: all four pairs exist
        # and multiply exactly like 2x2 matrix units.
        fi = fi_ring(TWO_CYCLE, zmod(3))
        mr = matrix_ring(zmod(3), 2)
        assert np.array_equal(fi.constants, mr.constants)
        assert fi.unit == mr.unit

    def test_antichain_is_direct_product(self):
        for r in (zmod(2), dual_numbers(2)):
            fi = fi_ring(ANTICHAIN2, r)
            pr = direct_product(r, r)
            assert np.array_equal(fi.constants, pr.constants)
            assert fi.unit == pr.unit

    def test_chain_is_triangular_ring(self):
        z3 = zmod(3)
        fi = fi_ring(chain(2), z3)
        tri = triangular_ring(z3, regular_bimodule(z3), z3)
        assert np.array_equal(fi.constants, tri.constants)
        assert fi.unit == tri.unit

    def test_skip_corner_is_triangular_ring(self):
        # (e_a + e_c) FI(a<b<c) (e_a + e_c) keeps pairs within {a, c} only.
        z2 = zmod(2)
        fi = fi_ring(chain(3), z2)
        e = fi.class_idempotent(0) + fi.class_idempotent(2)
        corner = corner_of(fi, e)
        tri = triangular_ring(z2, regular_bimodule(z2), z2)
        assert np.array_equal(corner.ring.constants, tri.constants)
        assert corner.ring.unit == tri.unit


class TestBlocks:
    @staticmethod
    def _two_class_preorder():
        # Two mutual-comparability classes {a, b} < {c, d}.
        return Preorder.from_pairs(
            "abcd",
            [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"), ("a", "c")],
        )

    def test_block_round_trip(self):
        fi = fi_ring(self._two_class_preorder(), zmod(5))
        r = zmod(5)
        grid = [[r.element((1,)), r.element((2,))], [r.element((3,)), r.element((4,))]]
        x = fi.block_element(0, 1, grid)
        assert fi.extract_block(x, 0, 1) == grid
        zero_block = fi.extract_block(x, 1, 0)
        assert all(cell.is_zero() for row in zero_block for cell in row)

    def test_block_multiplication_law(self):
        rng = random.Random(3)
        fi = fi_ring(self._two_class_preorder(), zmod(4))
        q = fi.quotient
        for _ in range(10):
            a = fi.element([rng.randrange(4) for _ in range(fi.rank)])
            b = fi.element([rng.randrange(4) for _ in range(fi.rank)])
            ab = a * b
            for ci in range(q.size):
                for cj in range(q.size):
                    if not q.leq(ci, cj):
                        continue
                    rows = len(q.classes[ci])
                    cols = len(q.classes[cj])
                    acc = [[fi.base.zero() for _ in range(cols)] for _ in range(rows)]
                    for cz in q.interval(ci, cj):
                        left = fi.extract_block(a, ci, cz)
                        right = fi.extract_block(b, cz, cj)
                        for i in range(rows):
                            for j in range(cols):
                                for z in range(len(q.classes[cz])):
                                    acc[i][j] = acc[i][j] + left[i][z] * right[z][j]
                    assert fi.extract_block(ab, ci, cj) == acc

    def test_class_matrix_ring_shape(self):
        fi = fi_ring(self._two_class_preorder(), dual_numbers(2))
        mr = fi.class_matrix_ring(0)
        assert mr.size == 2 and mr.base.rank == 2
        assert fi.class_matrix_ring(0) is mr  # cached


class TestFamilyConditions:
    def test_class_idempotents_pass(self):
        for p, r in [(chain(3), zmod(4)), (V_SHAPE, zmod(2)), (TWO_CYCLE, zmod(3))]:
            fi = fi_ring(p, r)
            report = verify_family_conditions(fi, fi.class_idempotents())
            assert report.ok
            assert report.checked == len(fi.class_idempotents()) ** 2 * fi.rank ** 2

    def test_unit_family_passes(self):
        r = matrix_ring(zmod(2), 2)
        report = verify_family_conditions(r, [r.one()])
        assert report.ok

    def test_partial_family_fails_with_witness(self):
        # In M_2(Z/2) the single idempotent e11 cannot re-sum e11*e12*e21*e11.
        r = matrix_ring(zmod(2), 2)
        report = verify_family_conditions(r, [r.matrix_unit(0, 0)])
        assert not report.ok
        ei, fi_, i, j = report.failures[0]
        e = r.matrix_unit(0, 0)
        lhs = e * r.basis_element(i) * r.basis_element(j) * e
        rhs = e * r.basis_element(i) * e * r.basis_element(j) * e
        assert lhs != rhs

    def test_matches_element_loop(self):
        # The element-by-element definition, (ei, fi, i, j) in loop order,
        # on covering, partial and empty families, with and without failures.
        def by_loop(ring, family):
            failures, basis = [], ring.basis()
            for ei, e in enumerate(family):
                for fi_, f in enumerate(family):
                    for i, r in enumerate(basis):
                        for j, s in enumerate(basis):
                            acc = ring.zero()
                            for g in family:
                                acc = acc + e * r * g * s * f
                            if e * r * s * f != acc:
                                failures.append((ei, fi_, i, j))
            return tuple(failures)

        fi = fi_ring(chain(3), zmod(4))
        cases = [(fi, fi.class_idempotents()[:n]) for n in (0, 1, 2, 3)]
        for mr in (matrix_ring(dual_numbers(2), 2), matrix_ring(zmod(6), 3)):
            units = [mr.matrix_unit(i, i) for i in range(mr.size)]
            cases += [(mr, units[:1]), (mr, units[1:]), (mr, units), (mr, [mr.one()])]
        failing = 0
        for ring, family in cases:
            report = verify_family_conditions(ring, family)
            assert report.failures == by_loop(ring, family)
            assert report.checked == len(family) ** 2 * ring.rank ** 2
            assert report.ok == (not report.failures)
            failing += bool(report.failures)
        assert failing >= 3

    def test_peak_memory_on_sixteen_classes(self):
        # Antichain on 16 points over Z/2: a sum over g on its own axis peaked at 144.6 MiB.
        fi = fi_ring(Preorder.from_pairs([f"p{i}" for i in range(16)], []), zmod(2))
        family = fi.class_idempotents()
        tracemalloc.start()
        try:
            report = verify_family_conditions(fi, family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.checked == 16 ** 4
        assert peak < 40 << 20

    def test_non_orthogonal_family_rejected(self):
        r = matrix_ring(zmod(2), 2)
        with pytest.raises(ValueError):
            verify_family_conditions(r, [r.one(), r.matrix_unit(0, 0)])
        with pytest.raises(ValueError):
            verify_family_conditions(r, [r.matrix_unit(0, 1)])


@pytest.mark.parametrize("family, message", [
    (lambda fi: [], "the idempotent family is empty"),
    (lambda fi: [fi.class_idempotent(0), zmod(2).one()], "family members must belong to the ring"),
], ids=["empty", "foreign-member"])
def test_family_input_checks(family, message):
    fi = fi_ring(Preorder.from_pairs("ab", [("a", "b")]), zmod(2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        _validate_family(fi, family(fi))
    if family(fi):  # the public check admits an empty family
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_family_conditions(fi, family(fi))
