"""Solver vs direct axiom checks and exhaustive map enumeration."""

import functools
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jder import solver, zmodlin
from jder.cli import _search_batches, main
from jder.incidence import fi_ring
from jder.preorders import Preorder
from jder.rings import (PairRing, build_ring, dual_numbers, matrix_ring, regular_bimodule,
                        triangular_ring, zmod)
from jder.solver import (
    DERIVATION,
    JORDAN,
    AdditiveMap,
    SizeBudgetError,
    _constraint_matrices,
    _constraint_rows,
    check_map,
    compare_all,
    compare_spaces,
    inner_derivation,
    solve_derivations,
    solve_jordan_derivations,
)
from jder.zmodlin import SelfCheckError, SubgroupBasis, ZmMatrix, howell_form, kernel

from oracles import (brute_force_maps, check_map_scalar, is_derivation_map, is_jordan_map,
                     preorders_up_to_isomorphism, r3, r9)


def search_rings(moduli):
    return [build_ring(m, table) for m, tables in _search_batches(moduli) for table in tables]


def t2(m):
    z = zmod(m)
    return triangular_ring(z, regular_bimodule(z), z)


JORDAN_FAMILIES = ("square", "square-pol", "triple", "triple-pol")


def kernel_without(ring, kind, family):
    """Kernel of the raw ``kind`` rows of ``ring`` with one family's rows sliced out.

    _constraint_rows orders its row blocks by family, with k rows per block:
    k^2 product blocks; or k square, k(k-1)/2 square-pol, k^2 triple and
    k^2(k-1)/2 triple-pol blocks, the last two over even m only.
    """
    k, m = ring.rank, ring.modulus
    rows = _constraint_rows(ring.constants[None], m, kind)[0]
    if kind == DERIVATION:
        blocks = {"product": k * k}
    else:
        blocks = dict(zip(JORDAN_FAMILIES, (k, k * (k - 1) // 2, k * k, k * k * (k - 1) // 2)))
    stops = k * np.cumsum(list(blocks.values()))
    assert stops[-1] == len(rows)
    n = list(blocks).index(family)
    start = stops[n - 1] if n else 0
    return kernel(ZmMatrix.from_array(m, np.delete(rows, np.s_[start:stops[n]], axis=0)))


def square_family_kernel(ring):
    """Kernel of the square and square-pol rows of ``ring``: its first k * k(k + 1) / 2 raw
    Jordan rows at every modulus."""
    k, m = ring.rank, ring.modulus
    rows = _constraint_rows(ring.constants[None], m, JORDAN)[0][:k * k * (k + 1) // 2]
    return kernel(ZmMatrix.from_array(m, rows))


@functools.cache
def r9_outside_jder(unital=True):
    """R9 (or its rank-8 form), and the generators outside JDer of its Jordan kernel
    without the triple-pol rows."""
    ring = r9(unital)
    jder = solve_jordan_derivations(ring)
    without = kernel_without(ring, JORDAN, "triple-pol")
    assert (jder.cardinality(), without.cardinality()) == (4096, 8192)
    return ring, [AdditiveMap.from_flat(ring, g) for g in without.as_array()
                  if not jder.basis.contains(g)]


def random_basis_change(ring, seed):
    """Constants and unit of ``ring`` in the seeded basis b'_i = sum_a P[a, i] b_a.

    P is a product of transvections and unit scalings, so it is invertible
    mod m and its inverse Q is the reversed product of their inverses.  All
    arithmetic is on Python ints.
    """
    rng, m, k = random.Random(seed), ring.modulus, ring.rank
    P = np.eye(k, dtype=np.int64).astype(object)
    Q = P.copy()
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2)
        t = rng.randrange(m)
        P[:, j] += t * P[:, i]
        Q[i] -= t * Q[j]
    for i in range(k):
        u = rng.randrange(1, m)
        while math.gcd(u, m) != 1:
            u = rng.randrange(1, m)
        P[:, i] *= u
        Q[i] *= pow(u, -1, m)
    P, Q = P % m, Q % m
    assert not ((Q.dot(P) - np.eye(k, dtype=np.int64)) % m).any()
    c = ring.constants.astype(object)
    products = np.einsum("bj,abt->ajt", P, np.einsum("ai,abt->ibt", P, c))
    constants = np.einsum("sa,ija->ijs", Q, products) % m
    unit = Q.dot(np.array(ring.unit, dtype=object)) % m
    return constants.astype(np.int64), unit.tolist()


class TestAdditiveMap:
    def test_flat_round_trip_is_column_major(self):
        r = dual_numbers(2)
        d = AdditiveMap.from_array(r, [[0, 1], [1, 0]])
        assert d.to_flat() == (0, 1, 1, 0)
        d2 = AdditiveMap.from_array(r, [[0, 1], [0, 0]])
        # column-major: first k entries form column 0
        assert d2.to_flat() == (0, 0, 1, 0)
        assert AdditiveMap.from_flat(r, d2.to_flat()) == d2

    def test_images_and_apply(self):
        r = dual_numbers(2)
        one, x = r.basis()
        d = AdditiveMap.from_images(r, [r.zero(), one + x])
        assert d(x) == one + x
        assert d(one + x) == one + x
        assert (d + d).is_zero()

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            AdditiveMap(zmod(2), ((0, 0),))


class TestCheckMap:
    def test_zero_map_passes_both_kinds(self):
        for r in (zmod(4), matrix_ring(zmod(2), 2)):
            z = AdditiveMap.zero(r)
            assert check_map(r, z, DERIVATION).ok
            assert check_map(r, z, JORDAN).ok

    def test_unit_image_violation_located(self):
        r = zmod(4)
        d = AdditiveMap.from_array(r, [[2]])
        res = check_map(r, d, DERIVATION)
        assert (res.ok, res.identity, res.indices) == (False, "product", (0, 0))
        res = check_map(r, d, JORDAN)
        assert (res.ok, res.identity, res.indices) == (False, "square", (0,))
        assert not bool(res)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            check_map(zmod(2), AdditiveMap.zero(zmod(2)), "lie")

    def test_matches_scalar_reference(self):
        rng = random.Random(5)
        rings = search_rings((2, 3)) + [
            matrix_ring(zmod(4), 2),
            matrix_ring(dual_numbers(3), 2),
            build_ring(3, np.zeros((0, 0, 0), dtype=np.int64)),
        ]
        seen = set()

        def compare(ring, d):
            for kind in (DERIVATION, JORDAN):
                result = check_map(ring, d, kind)
                assert result == check_map_scalar(ring, d, kind), (ring.constants, d, kind)
                seen.add(result.identity)

        for ring in rings:
            k, m = ring.rank, ring.modulus
            maps = solve_derivations(ring).generators()
            maps += solve_jordan_derivations(ring).generators()
            for a, b in np.ndindex(k, k):
                sparse = np.zeros((k, k), dtype=np.int64)
                sparse[a, b] = rng.randrange(1, m)
                maps.append(AdditiveMap.from_array(ring, sparse))
            for _ in range(2):
                dense = [[rng.randrange(m) for _ in range(k)] for _ in range(k)]
                maps.append(AdditiveMap.from_array(ring, dense))
            # Maps that pass square and square-pol, so the triple rows are reached.
            maps += [AdditiveMap.from_flat(ring, g) for g in square_family_kernel(ring).generators]
            for d in maps:
                compare(ring, d)
        # R9's maps that pass every Jordan family but triple-pol.
        ring, outside = r9_outside_jder()
        for d in outside:
            compare(ring, d)
        assert seen == {"", "product", "square", "square-pol", "triple", "triple-pol"}


def constraint_matrix_cases():
    """Rings of one modulus and rank, and whether to restrict to their shared Peirce support:
    single rings, stacks of 2 and 3 rings (one of them zero), and Peirce stacks."""
    nonunital = build_ring(4, [[[0, 0], [0, 0]], [[0, 0], [0, 2]]])
    dual = build_ring(4, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    product = build_ring(4, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    zero = build_ring(4, np.zeros((2, 2, 2), dtype=np.int64))
    unit3 = build_ring(4, [[[3]]], unit=(3,))
    chain3 = Preorder.from_pairs("abc", [("a", "b"), ("b", "c")])
    return [([matrix_ring(zmod(4), 2)], False), ([t2(2)], False), ([nonunital], False),
            ([nonunital, dual], False), ([product, zero, nonunital], False),
            ([matrix_ring(zmod(4), 2)], True),
            ([fi_ring(chain3, zmod(4)), fi_ring(chain3, unit3)], True),
            ([matrix_ring(zmod(4), 2), matrix_ring(unit3, 2), matrix_ring(zmod(4), 2)], True)]


class TestConstraintMatrix:
    @pytest.mark.parametrize("kind", [DERIVATION, JORDAN])
    def test_rows_are_the_distinct_nonzero_raw_rows(self, kind):
        for rings, peirce in constraint_matrix_cases():
            c, m = np.stack([ring.constants for ring in rings]), rings[0].modulus
            support = rings[0].peirce_support() if peirce else None
            if peirce:
                assert all(np.array_equal(ring.peirce_support(), support) for ring in rings)
            raw = _constraint_rows(c, m, kind, support)
            stack = _constraint_matrices(c, m, kind, support)
            assert stack.shape[::2] == raw.shape[::2] and stack.shape[1] <= raw.shape[1]
            # No returned row is zero in every ring.
            assert stack.any(axis=(0, 2)).all()
            for got, want in zip(stack, raw, strict=True):
                rows = [tuple(row) for row in got.tolist() if any(row)]
                distinct = {tuple(row) for row in want.tolist() if any(row)}
                assert len(rows) == len(distinct) and set(rows) == distinct


class TestSizeLimit:
    @pytest.mark.parametrize("kind", [DERIVATION, JORDAN])
    def test_refusal_counts_the_raw_stack(self, monkeypatch, kind):
        monkeypatch.setattr(solver, "_SOLVE_LIMIT", 0)
        for ring in (zmod(3), t2(2), matrix_ring(zmod(4), 2), r3()):
            c = np.stack([ring.constants] * 2)
            with pytest.raises(SizeBudgetError) as exc:
                solver._check_size(2, ring.rank, ring.modulus, kind)
            assert exc.value.entries == _constraint_rows(c, ring.modulus, kind).size

    def test_limit_is_the_jordan_stack_of_rank_32(self):
        solver._check_size(1, 32, 4, JORDAN)
        with pytest.raises(SizeBudgetError, match="needs 685462338 raw constraint entries, "
                                                  "over the solver limit 570949632"):
            solver._check_size(1, 33, 4, JORDAN)

    @pytest.mark.parametrize("m", [3, 2**31 - 1])
    def test_odd_jordan_stack_at_the_rank_limit_is_admitted(self, monkeypatch, m):
        # Rank 48, the ring limit: 48 * 49 / 2 * 48^3 = 130,056,192 entries of the
        # square families alone.
        solver._check_size(1, 48, m, JORDAN)
        monkeypatch.setattr(solver, "_SOLVE_LIMIT", 130_056_191)
        with pytest.raises(SizeBudgetError, match="needs 130056192 raw"):
            solver._check_size(1, 48, m, JORDAN)

    def test_refused_before_any_solve(self, monkeypatch):
        # Rank 3: 3^5 = 243 Der entries and 3 * 4^2 / 2 * 3^3 = 648 Jordan entries.
        def refuse(*args):
            raise AssertionError("constraint rows were assembled before the size check")

        monkeypatch.setattr(solver, "_constraint_matrices", refuse)
        monkeypatch.setattr(solver, "_SOLVE_LIMIT", 647)
        ring = r3()
        for solve in (compare_spaces, solve_jordan_derivations, lambda r: compare_all([r])):
            with pytest.raises(SizeBudgetError, match="needs 648 raw"):
                solve(ring)
        monkeypatch.setattr(solver, "_SOLVE_LIMIT", 242)
        with pytest.raises(SizeBudgetError, match="needs 243 raw"):
            solve_derivations(ring)


class TestPeirceSizeLimit:
    """The restricted stack is priced at what it allocates: rows x support columns."""

    @pytest.mark.parametrize("kind", [DERIVATION, JORDAN])
    def test_price_is_the_allocated_restricted_stack(self, monkeypatch, kind):
        monkeypatch.setattr(solver, "_SOLVE_LIMIT", 0)
        for ring in (matrix_ring(zmod(4), 2), matrix_ring(zmod(3), 2),
                     fi_ring(Preorder.from_pairs("abc", [("a", "b"), ("b", "c")]), dual_numbers(2))):
            c, m, support = ring.constants[None], ring.modulus, ring.peirce_support()
            allocated = _constraint_rows(c, m, kind, support)
            assert allocated.shape[2] == len(support) < ring.rank ** 2
            with pytest.raises(SizeBudgetError) as exc:
                solver._solve_all(c, m, kind, support)
            assert exc.value.entries == allocated.size

    def test_rank48_matrix_ring_is_refused_before_assembly(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("constraint rows were assembled before the size check")

        monkeypatch.setattr(solver, "_constraint_matrices", refuse)
        ring = matrix_ring(r3(), 4)
        assert (ring.rank, len(ring.peirce_support())) == (48, 252)
        with pytest.raises(SizeBudgetError, match="needs 697019904 raw constraint entries, "
                                                  "over the solver limit 570949632"):
            compare_all([ring])


class TestInnerDerivation:
    def test_matrix_units(self):
        r = matrix_ring(zmod(2), 2)
        d = inner_derivation(r, r.matrix_unit(0, 1))
        # [e12, e21] = e11 + e22
        assert d(r.matrix_unit(1, 0)) == r.one()
        assert check_map(r, d, DERIVATION).ok

    def test_central_element_gives_zero(self):
        r = matrix_ring(zmod(3), 2)
        assert inner_derivation(r, r.one()).is_zero()

    def test_additive_in_the_element(self):
        r = t2(4)
        rng = random.Random(1)
        for _ in range(5):
            a = r.element([rng.randrange(4) for _ in range(r.rank)])
            b = r.element([rng.randrange(4) for _ in range(r.rank)])
            assert inner_derivation(r, a) + inner_derivation(r, b) == inner_derivation(r, a + b)


class TestSolveSpaces:
    def test_zmod_p_has_only_zero(self):
        for p in (2, 3, 5):
            space = solve_derivations(zmod(p))
            assert space.cardinality() == 1
            assert solve_jordan_derivations(zmod(p)).cardinality() == 1

    def test_dual_numbers_derivations(self):
        # d(1) = 0 while d(x) is unconstrained: 4 maps over Z/2.
        space = solve_derivations(dual_numbers(2))
        assert space.cardinality() == 4
        r = dual_numbers(2)
        assert space.contains(AdditiveMap.from_array(r, [[0, 1], [0, 1]]))
        assert not space.contains(AdditiveMap.from_array(r, [[0, 0], [1, 0]]))

    def test_matrix_ring_z2_count(self):
        assert solve_derivations(matrix_ring(zmod(2), 2)).cardinality() == 8

    def test_triangular_z2_count(self):
        assert solve_derivations(t2(2)).cardinality() == 4

    def test_inner_derivations_are_contained(self):
        rng = random.Random(5)
        for r in (matrix_ring(zmod(4), 2), t2(3)):
            der = solve_derivations(r)
            jder = solve_jordan_derivations(r)
            for _ in range(5):
                a = r.element([rng.randrange(r.modulus) for _ in range(r.rank)])
                d = inner_derivation(r, a)
                assert der.contains(d) and jder.contains(d)

    def test_derivations_inside_jordan_space(self):
        for r in (zmod(6), dual_numbers(3), matrix_ring(zmod(2), 2), t2(2)):
            der = solve_derivations(r)
            jder = solve_jordan_derivations(r)
            for g in der.generators():
                assert jder.contains(g)

    def test_zero_multiplication_ring_is_unconstrained(self):
        r = build_ring(2, [[[0]]])
        assert solve_derivations(r).cardinality() == 2
        assert solve_jordan_derivations(r).cardinality() == 2


BRUTE_RINGS = [
    zmod(2),
    zmod(4),
    zmod(6),
    dual_numbers(2),
    dual_numbers(3),
    t2(2),
    matrix_ring(zmod(2), 2),
    # Non-unital rank-2 tables: b1*b1 = 2*b1 over Z/4, where Der != JDer,
    # and the noncommutative b0*b0 = b0, b0*b1 = b1 over Z/3.
    build_ring(4, [[[0, 0], [0, 0]], [[0, 0], [0, 2]]]),
    build_ring(3, [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]),
]


def associative(c: np.ndarray, m: int) -> bool:
    return not ((np.einsum("ijs,slt->ijlt", c, c) - np.einsum("jls,ist->ijlt", c, c)) % m).any()


class TestBruteForceProperty:
    """Both solvers against oracles.brute_force_maps on random associative tables.

    Both ranks run over m in [2, 12].  The oracle checks one element r at a
    time against all m^k elements s at once, on the surviving maps; with
    rank 2 up to m = 12, five seeded runs of 20 examples took 0.2 to 2.2 s
    (up to 17 s with the oracle that checked one pair (r, s) at a time),
    and three runs up to m = 16 took 2.0 to 24 s.  The zero table, where every map survives,
    is covered by the zero-multiplication tests of TestSolveSpaces and
    TestCompare.
    """

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_solvers_match_enumeration(self, data):
        k = data.draw(st.integers(1, 2), label="rank")
        m = data.draw(st.integers(2, 12), label="modulus")
        # Sparse tables: a dense random table is rarely associative.
        support = data.draw(st.sets(st.integers(0, k ** 3 - 1), min_size=1), label="support")
        c = np.zeros(k ** 3, dtype=np.int64)
        c[sorted(support)] = data.draw(st.lists(st.integers(1, m - 1), min_size=len(support),
                                                max_size=len(support)), label="entries")
        c = c.reshape(k, k, k)
        assume(associative(c, m))
        ring = build_ring(m, c)
        for kind, solve in ((DERIVATION, solve_derivations), (JORDAN, solve_jordan_derivations)):
            maps = brute_force_maps(c, m, kind)
            flats = np.array([d.flatten(order="F") for d in maps])
            space = solve(ring)
            assert space.basis.generators == howell_form(ZmMatrix.from_array(m, flats)).generators
            assert space.cardinality() == len(maps)


def ring_id(ring):
    return f"k{ring.rank}m{ring.modulus}" + ("" if ring.is_unital else "-nonunital")


class TestExhaustiveAgreement:
    @pytest.mark.parametrize("ring", BRUTE_RINGS, ids=ring_id)
    @pytest.mark.parametrize("kind", [DERIVATION, JORDAN])
    def test_solver_matches_enumeration(self, ring, kind):
        maps = brute_force_maps(ring.constants, ring.modulus, kind)
        flats = [mat.flatten(order="F") for mat in maps]
        enumerated = howell_form(ZmMatrix.from_array(ring.modulus, np.array(flats)))
        solver = solve_derivations(ring) if kind == DERIVATION else solve_jordan_derivations(ring)
        assert solver.basis.generators == enumerated.generators
        assert solver.cardinality() == len(maps)


def spy(monkeypatch, name) -> list:
    """Record the arguments of every call to solver.<name>."""
    real, calls = getattr(solver, name), []

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, name, recording)
    return calls


def assert_batch_matches_one_ring_at_a_time(batch) -> list:
    """compare_all(batch) against compare_spaces, which solves Der's own rows for every ring."""
    cmps = compare_all(batch)
    for ring, cmp in zip(batch, cmps, strict=True):
        one = compare_spaces(ring)
        assert (cmp.verdict, cmp.witness) == (one.verdict, one.witness)
        for got, want in ((cmp.derivations, one.derivations), (cmp.jordan, one.jordan)):
            assert got.ring is ring and got.kind == want.kind
            # Equal modulus, shape and bytes of the Howell rows.
            assert got.basis == want.basis
            assert got.cardinality() == want.cardinality()
    return cmps


class TestCompare:
    def test_zero_ring_batch_matches_compare_spaces(self):
        # Rank 0: Der = JDer = {0}, so the stacked solve has no generator at all.
        zero = build_ring(4, np.zeros((0, 0, 0), dtype=np.int64), unit=())
        (cmp,) = assert_batch_matches_one_ring_at_a_time([zero])
        assert cmp.equal and cmp.jordan.cardinality() == 1

    def test_equal_instances(self):
        for r in (matrix_ring(zmod(3), 2), dual_numbers(2), zmod(4), t2(2)):
            cmp = compare_spaces(r)
            assert cmp.equal and cmp.witness is None
            assert cmp.verdict == "Equal"
            assert cmp.derivations.kind == DERIVATION and cmp.jordan.kind == JORDAN

    def test_zero_multiplication_ring_equal(self):
        cmp = compare_spaces(build_ring(2, [[[0]]]))
        assert cmp.equal
        assert cmp.jordan.cardinality() == 2

    @pytest.mark.parametrize("m", [2**31 - 1, 2**31])
    def test_matrix_ring_exact_at_largest_moduli(self, m):
        # M_2 over Z/m presented with unit -1.  Der = JDer = the inner
        # derivations, m^4 / m of them; the self-check must accept every
        # generator, which an overflowing check once refused at 2^31 - 1.
        cmp = compare_spaces(matrix_ring(build_ring(m, [[[m - 1]]], unit=(m - 1,)), 2))
        assert cmp.equal
        assert cmp.derivations.cardinality() == cmp.jordan.cardinality() == m ** 3

    @pytest.mark.parametrize("m", [2**31 - 1, 2**31])
    @pytest.mark.parametrize("seed", range(5))
    def test_dense_presentation_exact_at_largest_moduli(self, m, seed):
        # M_2(Z/m) in a random basis: dense constants, so every product sums
        # k = 4 terms of size up to (m - 1)^2, past int64.  Same answer as
        # the standard presentation.
        constants, unit = random_basis_change(matrix_ring(zmod(m), 2), seed)
        cmp = compare_spaces(build_ring(m, constants, unit=unit))
        assert cmp.equal
        assert cmp.derivations.cardinality() == cmp.jordan.cardinality() == m ** 3

    @pytest.mark.parametrize("m", [2**31 - 1, 2**31])
    def test_batch_exact_at_largest_moduli(self, m):
        # The same sums as the batch of one: M_2 over Z/m with unit -1 and
        # with unit 1, solved together.
        rings = [matrix_ring(build_ring(m, [[[m - 1]]], unit=(m - 1,)), 2),
                 matrix_ring(zmod(m), 2)]
        for cmp in compare_all(rings):
            assert cmp.equal
            assert cmp.derivations.cardinality() == cmp.jordan.cardinality() == m ** 3

    def test_batch_matches_one_ring_at_a_time(self):
        # Rank-2 search rings over Z/4 in a shuffled order, including the
        # b1 * b1 = 2 * b1 counterexample, and the rank-1 rings: the
        # JDer-first shortcut of compare_all against the Der rows.
        rng = random.Random(2)
        rings = search_rings((4,))
        rank2 = [ring for ring in rings if ring.rank == 2]
        rng.shuffle(rank2)
        counterexample = [[[0, 0], [0, 0]], [[0, 0], [0, 2]]]
        assert any(ring.constants.tolist() == counterexample for ring in rank2)
        verdicts = set()
        for batch in (rank2, [ring for ring in rings if ring.rank == 1]):
            for ring, cmp in zip(batch, assert_batch_matches_one_ring_at_a_time(batch)):
                if ring.constants.tolist() == counterexample:
                    assert cmp.verdict == "ProperInclusion"
                verdicts.add(cmp.verdict)
        assert verdicts == {"Equal", "ProperInclusion"}

    def test_every_generator_of_every_ring_is_checked(self, monkeypatch):
        # d = 2 * id on Z/4 breaks the square rule at (0,); put it in the one
        # row slot of the middle ring's JDer kernel in a batch.
        real_kernels = solver.kernels

        def kernels(modulus, stack):
            slots = real_kernels(modulus, stack)
            slots[1] = [[2]]
            return slots

        monkeypatch.setattr(solver, "kernels", kernels)
        with pytest.raises(SelfCheckError, match=r"violates square at \(0,\)"):
            compare_all([zmod(4)] * 3)

    def inject_der_basis(self, monkeypatch, rows):
        """Batch [zero, counterexample, zero] over Z/4; the JDer solve is the first kernels
        call, and the Der solve of the one failing ring (the second) returns rows, each in
        the slot of its pivot column."""
        real_kernels, calls = solver.kernels, []

        def kernels(modulus, stack):
            calls.append(stack)
            if len(calls) != 2:
                return real_kernels(modulus, stack)
            slots = np.zeros((1, 4, 4), dtype=np.int64)
            for row in rows:
                slots[0, np.flatnonzero(row)[0]] = row
            return slots

        monkeypatch.setattr(solver, "kernels", kernels)
        zero = build_ring(4, np.zeros((2, 2, 2), dtype=np.int64))
        return [zero, build_ring(4, [[[0, 0], [0, 0]], [[0, 0], [0, 2]]]), zero]

    def test_der_generators_of_a_proper_inclusion_are_checked(self, monkeypatch):
        # Der is solved only for the middle ring, where b1 * b1 = 2 * b1;
        # d(b1) = b0 (flat (0, 1, 0, 0)) is a Jordan derivation but breaks
        # the product rule at (0, 1).  Hide it behind a passing generator.
        batch = self.inject_der_basis(monkeypatch, [(1, 0, 0, 0), (0, 1, 0, 0)])
        with pytest.raises(SelfCheckError, match=r"violates product at \(0, 1\)"):
            compare_all(batch)

    def test_der_solve_must_reject_the_first_failing_generator(self, monkeypatch):
        # An empty Der basis passes the self-check, but then the membership
        # test finds JDer's first generator (flat (1, 0, 0, 0)), a derivation,
        # outside it.
        batch = self.inject_der_basis(monkeypatch, [])
        with pytest.raises(SelfCheckError, match="first non-derivation generator"):
            compare_all(batch)

    def test_der_is_solved_only_for_proper_inclusions(self, monkeypatch):
        # The 616 rank-2 search rings over Z/4: one stacked JDer kernel each,
        # plus one stacked Der kernel for each of the 90 rings with Der != JDer.
        rank2 = [ring for ring in search_rings((4,)) if ring.rank == 2]
        matrices, calls = spy(monkeypatch, "kernels"), spy(monkeypatch, "kernel")
        verdicts = [cmp.verdict for cmp in compare_all(rank2)]
        assert (len(rank2), verdicts.count("ProperInclusion")) == (616, 90)
        assert [len(stack) for _, stack in matrices] == [616, 90]
        assert len(calls) == 0

    @pytest.mark.parametrize("batch", [
        [zmod(2), zmod(3)],
        [zmod(4), dual_numbers(4)],
    ], ids=["moduli", "ranks"])
    def test_mixed_batch_rejected(self, batch):
        with pytest.raises(ValueError, match="one modulus and rank"):
            compare_all(batch)

    def test_empty_batch(self):
        assert compare_all([]) == []

    @pytest.mark.parametrize("wrap", [iter, tuple, lambda rings: (r for r in rings)],
                             ids=["iterator", "tuple", "generator"])
    def test_any_iterable_of_rings(self, wrap):
        # The middle ring has Der != JDer, so both stacked solves run.
        pool = search_pools()[4, 2]
        batch = [pool[0], pool[z4_proper_inclusions()[0]], pool[1]]
        cmps, want = compare_all(wrap(batch)), assert_batch_matches_one_ring_at_a_time(batch)
        assert [(c.verdict, c.witness, c.derivations.basis, c.jordan.basis) for c in cmps] == \
            [(c.verdict, c.witness, c.derivations.basis, c.jordan.basis) for c in want]
        assert [c.jordan.ring for c in cmps] == batch
        assert compare_all(wrap([])) == []

    def test_unitization_of_proper_inclusion_keeps_it(self):
        # R3 adjoins a unit to b0 * b0 = b0 * b1 = 0, b1 * b1 = 2 * b1 over Z/4.
        # Only the square rows decide here: without any one other family the
        # Jordan kernel still has 256 maps.  Both counts agree with
        # oracles.brute_force_maps (4^9 maps, too slow to run every time).
        cmp = compare_spaces(r3())
        assert (cmp.derivations.cardinality(), cmp.jordan.cardinality()) == (64, 256)
        assert not cmp.equal


@functools.cache
def search_pools():
    """Search rings over Z/2 to Z/5 keyed by (modulus, rank), in search order."""
    pools = {}
    for ring in search_rings((2, 3, 4, 5)):
        pools.setdefault((ring.modulus, ring.rank), []).append(ring)
    return pools


@functools.cache
def z4_proper_inclusions():
    """Indices into the Z/4 rank-2 pool where two separate solves give Der != JDer."""
    return [n for n, ring in enumerate(search_pools()[4, 2]) if not compare_spaces(ring).equal]


class TestBatchProperty:
    """Shuffled sub-batches of search rings: compare_all equals compare_spaces."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_search_sub_batches(self, data):
        pools = search_pools()
        pool = pools[data.draw(st.sampled_from(sorted(pools)), label="modulus, rank")]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8,
                                   unique=True), label="picks")
        assert_batch_matches_one_ring_at_a_time([pool[n] for n in picks])

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_z4_sub_batches_with_a_proper_inclusion(self, data):
        pool, proper = search_pools()[4, 2], z4_proper_inclusions()
        assert len(proper) == 90
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=8, unique=True),
                          label="picks")
        witness = data.draw(st.sampled_from(proper), label="proper inclusion")
        if witness not in picks:
            picks.insert(data.draw(st.integers(0, len(picks)), label="position"), witness)
        assert_batch_matches_one_ring_at_a_time([pool[n] for n in picks])


@functools.cache
def search_table_pools():
    """Search tables over Z/2 to Z/6 keyed by (modulus, rank), in search order."""
    pools = {}
    for m, tables in _search_batches((2, 3, 4, 5, 6)):
        pools.setdefault((m, tables.shape[1]), []).append(tables)
    return {key: np.concatenate(stacks) for key, stacks in pools.items()}


def assert_stack_matches_compare_spaces(m, tables):
    """solver._compare_stack(tables, m) against compare_spaces ring by ring: the same
    rings with Der != JDer, in order, with the same witness maps.  Returns them."""
    _, proper, witnesses, _ = solver._compare_stack(tables, m)
    want = [(n, cmp.witness.matrix.tolist()) for n, cmp in
            enumerate(compare_spaces(build_ring(m, table)) for table in tables) if not cmp.equal]
    assert witnesses.dtype == np.int64 and witnesses.shape[1:] == (tables.shape[1],) * 2
    assert [(n, w.tolist()) for n, w in zip(proper.tolist(), witnesses, strict=True)] == want
    return proper


class TestStackedCompareProperty:
    """The batch core on shuffled sub-batches of search tables, one modulus and rank each."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_search_sub_batches(self, data):
        pools = search_table_pools()
        m, k = data.draw(st.sampled_from(sorted(pools)), label="modulus, rank")
        pool = pools[m, k]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=8, unique=True),
                          label="picks")
        if (m, k) == (4, 2) and data.draw(st.booleans(), label="with a proper inclusion"):
            proper = data.draw(st.sampled_from(z4_proper_inclusions()), label="proper inclusion")
            if proper not in picks:
                picks.insert(data.draw(st.integers(0, len(picks)), label="position"), proper)
        assert_stack_matches_compare_spaces(m, pool[picks].reshape(-1, k, k, k))

    def test_empty_batch(self, monkeypatch):
        kernels = spy(monkeypatch, "kernels")
        for k in (1, 2):
            assert len(assert_stack_matches_compare_spaces(4, np.zeros((0, k, k, k), dtype=np.int64))) == 0
        assert [len(stack) for _, stack in kernels] == [0, 0]

    def test_all_equal_batch(self, monkeypatch):
        # Z/6 has no rank <= 2 proper inclusion, so only JDer is solved.
        pool = search_table_pools()[6, 2]
        tables = pool[random.Random(6).sample(range(len(pool)), 12)]
        kernels = spy(monkeypatch, "kernels")
        assert len(assert_stack_matches_compare_spaces(6, tables)) == 0
        assert [len(stack) for _, stack in kernels] == [12]


class TestStackedSelfCheck:
    """A wrong generator of a stacked kernel is reported by name, not returned."""

    @staticmethod
    def corrupt_second_matrix(monkeypatch):
        # kernels eliminates [M^T | I] once and keeps the slots past M, which
        # are kernel rows.  Raising the last entry of matrix 1's last slot by 1
        # keeps that row's left block zero but breaks M x = 0 (every batch
        # below has the zero kernel in matrix 1).
        real = zmodlin._howell_stack

        def corrupted(stack, m, first):
            out = real(stack, m, first)
            out[1, -1, -1] = (out[1, -1, -1] + 1) % m
            return out

        monkeypatch.setattr(zmodlin, "_howell_stack", corrupted)

    def test_compare_all_raises(self, monkeypatch):
        self.corrupt_second_matrix(monkeypatch)
        with pytest.raises(SelfCheckError, match="kernel generator failed re-multiplication check"):
            compare_all([zmod(4)] * 3)

    def test_cli_search_exits_3(self, monkeypatch, tmp_path, capsys):
        # The first batch of moduli = 2 holds the two rank-1 tables, b0 b0 = 0 and b0 b0 = b0.
        self.corrupt_second_matrix(monkeypatch)
        path = tmp_path / "search.ini"
        path.write_text("[instance]\nformat_version = 1\n[ring]\nkind = zmod\nmodulus = 2\n"
                        "[task]\ncommand = search\nmoduli = 2\n", encoding="utf-8")
        assert main(["search", "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: kernel generator failed re-multiplication check" in captured.err


def solve_with_corrupted_kernels(batch, kind, edits):
    """_solve_all on the constants of batch with, for each (n, row, delta) of ``edits``,
    delta added to generator ``row`` of ring n's kernel slots (put in slot 0 when there is
    none).  Returns the SelfCheckError text, or None, and the first failure that
    check_map_scalar finds among the generators in batch order."""
    real, stacks = solver.kernels, []

    def kernels(modulus, stack):
        slots = real(modulus, stack)
        for n, row, delta in edits:
            gens = np.flatnonzero(slots[n].any(axis=1))
            slot = gens[row % len(gens)] if len(gens) else 0
            slots[n, slot] = (slots[n, slot] + delta) % modulus
        stacks.append(slots)
        return slots

    with mock.patch.object(solver, "kernels", kernels):
        try:
            solver._solve_all(np.stack([ring.constants for ring in batch]), batch[0].modulus, kind)
            raised = None
        except SelfCheckError as exc:
            raised = str(exc)
    (slots,) = stacks
    failures = (check_map_scalar(ring, AdditiveMap.from_flat(ring, g), kind)
                for ring, gens in zip(batch, slots, strict=True) for g in gens if g.any())
    first = next((result for result in failures if not result.ok), None)
    return raised, first


class TestStackedGeneratorCheck:
    """One pass self-checks a batch and names its first failing generator, as check_map_scalar."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_first_failure_matches_the_scalar_oracle(self, data):
        if data.draw(st.booleans(), label="search pool"):
            pools = search_pools()
            pool = pools[data.draw(st.sampled_from(sorted(pools)), label="modulus, rank")]
            batch = [pool[n] for n in data.draw(
                st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=6), label="picks")]
        else:
            k = data.draw(st.integers(1, 2), label="rank")
            m = data.draw(st.integers(2, 30), label="modulus")
            batch = []
            for _ in range(data.draw(st.integers(2, 6), label="batch size")):
                # Sparse tables until one is associative (about a third are, at rank 2).
                while True:
                    support = data.draw(st.sets(st.integers(0, k ** 3 - 1), max_size=3))
                    c = np.zeros(k ** 3, dtype=np.int64)
                    c[sorted(support)] = data.draw(st.lists(
                        st.integers(1, m - 1), min_size=len(support), max_size=len(support)))
                    if associative(c.reshape(k, k, k), m):
                        break
                batch.append(build_ring(m, c.reshape(k, k, k)))
        ring, k = data.draw(st.integers(0, len(batch) - 1), label="ring"), batch[0].rank
        delta = np.array(data.draw(st.lists(st.integers(0, batch[0].modulus - 1), min_size=k * k,
                                            max_size=k * k).filter(any), label="delta"))
        kind = data.draw(st.sampled_from([DERIVATION, JORDAN]), label="kind")
        raised, first = solve_with_corrupted_kernels(
            batch, kind, [(ring, data.draw(st.integers(0, 8), label="row"), delta)])
        assert raised == (None if first is None
                          else f"solver generator violates {first.identity} at {first.indices}")

    def test_r9_generator_failing_only_triple_pol(self):
        # d satisfies the square, square-pol and triple rows of R9 but not JDer;
        # it replaces the last generator of the second copy, behind passing ones.
        # The identity map, which breaks the square rule at the unit, replaces the
        # first generator of the third copy: ring order comes before identity order.
        ring, outside = r9_outside_jder()
        d = outside[0]
        basis = solve_jordan_derivations(ring).basis.as_array()
        flat = np.array(d.to_flat())
        identity = np.eye(ring.rank, dtype=np.int64).ravel()
        raised, first = solve_with_corrupted_kernels([ring] * 4, JORDAN, [
            (1, len(basis) - 1, flat - basis[-1]), (2, 0, identity - basis[0])])
        assert first == check_map_scalar(ring, d, JORDAN)
        assert first.identity == "triple-pol"
        assert raised == f"solver generator violates triple-pol at {first.indices}"
        unit_fails = check_map_scalar(ring, AdditiveMap.from_flat(ring, identity), JORDAN)
        assert unit_fails.identity == "square"


def edit_kernels(monkeypatch, edit):
    """Apply edit(kind, stack, slots) to every solver.kernels result, with ``kind`` that of
    the ``_solve_all`` call that takes the kernels."""
    real_solve, real_kernels, kinds = solver._solve_all, solver.kernels, []

    def solve_all(c, m, kind, support=None):
        kinds.append(kind)
        return real_solve(c, m, kind, support)

    def kernels(modulus, stack):
        slots = real_kernels(modulus, stack)
        edit(kinds[-1], stack, slots)
        return slots

    monkeypatch.setattr(solver, "_solve_all", solve_all)
    monkeypatch.setattr(solver, "kernels", kernels)


class TestStackedDerSelfCheck:
    """A wrong generator of a stacked Der solve (two or more rings with Der != JDer) is reported."""

    @staticmethod
    def inject(monkeypatch):
        """Put e_j in row slot j of ring 1's kernel in every Der kernels call, for the first
        column j that ring 1's Der rows use; such a map breaks some row, so it is not a
        derivation."""
        added = []

        def edit(kind, stack, slots):
            if kind == DERIVATION:
                j = np.flatnonzero(stack[1].any(axis=0))[0]
                slots[1, j] = np.eye(stack.shape[2], dtype=np.int64)[j]
                added.append(slots[1, j].copy())

        edit_kernels(monkeypatch, edit)
        return added

    def test_compare_all_raises(self, monkeypatch):
        zero = build_ring(4, np.zeros((2, 2, 2), dtype=np.int64))
        counterexample = build_ring(4, [[[0, 0], [0, 0]], [[0, 0], [0, 2]]])
        added = self.inject(monkeypatch)
        with pytest.raises(SelfCheckError) as info:
            compare_all([zero, counterexample, zero, counterexample])
        (flat,) = added
        result = check_map_scalar(counterexample, AdditiveMap.from_flat(counterexample, flat),
                                  DERIVATION)
        assert result.identity == "product"
        assert str(info.value) == f"solver generator violates product at {result.indices}"

    def test_cli_search_exits_3(self, monkeypatch, tmp_path, capsys):
        # The Z/4 rank-2 batch has 90 rings with Der != JDer, solved as one Der batch.
        added = self.inject(monkeypatch)
        path = tmp_path / "search.ini"
        path.write_text("[instance]\nformat_version = 1\n[ring]\nkind = zmod\nmodulus = 4\n"
                        "[task]\ncommand = search\nmoduli = 4\n", encoding="utf-8")
        assert main(["search", "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert len(added) == 1 and captured.out == ""
        assert re.search(r"error: solver generator violates product at \(\d, \d\)", captured.err)


class TestSearchSelfChecks:
    """CLI ``search`` over Z/4 with one step patched to return bad data exits 3 with the
    self-check's message.  The kernel re-multiplication check is forced through search by
    TestStackedSelfCheck.test_cli_search_exits_3."""

    # b1 * b1 = 2 * b1: the first proper inclusion of the Z/4 search, in the
    # one batch of rank-2 tables, so ring 0 of its Der solve.
    COUNTEREXAMPLE = [[[0, 0], [0, 0]], [[0, 0], [0, 2]]]

    @staticmethod
    def search_error(monkeypatch, tmp_path, capsys, edit) -> str:
        """The stderr of search at moduli = 4 with edit(kind, stack, slots) applied to every
        solver.kernels result (``edit_kernels``)."""
        edit_kernels(monkeypatch, edit)
        path = tmp_path / "search.ini"
        path.write_text("[instance]\nformat_version = 1\n[ring]\nkind = zmod\nmodulus = 2\n"
                        "[task]\ncommand = search\nmoduli = 4\n", encoding="utf-8")
        assert main(["search", "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_non_jordan_generator_between_passing_ones(self, monkeypatch, tmp_path, capsys):
        # The rank-1 tables b0 b0 = t b0, t = 0..3, come first: JDer has the passing
        # generators (1,) at t = 0 and (2,) at t = 2, and none at t = 1 (Z/4) or t = 3.
        # d = 2 * id breaks the square rule of Z/4 at (0,).
        def edit(kind, stack, slots):
            if slots.shape[1] == 1:
                assert slots[:, 0, 0].tolist() == [1, 0, 2, 0]
                slots[1] = [[2]]

        err = self.search_error(monkeypatch, tmp_path, capsys, edit)
        assert "error: solver generator violates square at (0,)" in err

    def test_der_basis_containing_the_witness(self, monkeypatch, tmp_path, capsys):
        ring = build_ring(4, self.COUNTEREXAMPLE)
        witness = np.array(compare_spaces(ring).witness.to_flat())

        def edit(kind, stack, slots):
            if kind == DERIVATION:
                slots[0, np.flatnonzero(witness)[0]] = witness

        err = self.search_error(monkeypatch, tmp_path, capsys, edit)
        result = check_map(ring, AdditiveMap.from_flat(ring, witness), DERIVATION)
        assert f"error: solver generator violates product at {result.indices}" in err

    def test_der_basis_missing_an_earlier_jordan_generator(self, monkeypatch, tmp_path, capsys):
        # JDer's first generator of the counterexample is a derivation and comes
        # before the witness; an empty Der basis passes the Der self-check but misses it.
        ring = build_ring(4, self.COUNTEREXAMPLE)
        cmp = compare_spaces(ring)
        first = cmp.jordan.generators()[0]
        assert check_map(ring, first, DERIVATION).ok and first != cmp.witness

        def edit(kind, stack, slots):
            if kind == DERIVATION:
                slots[0] = 0

        err = self.search_error(monkeypatch, tmp_path, capsys, edit)
        assert "error: Der solve disagrees with the first non-derivation generator" in err


class TestBatchedDerPass:
    """compare_all's stacked product residual against check_map, generator by generator."""

    @staticmethod
    def record_residuals(monkeypatch):
        real, calls = solver._product_residuals, []

        def recording(c, D, m):
            P = real(c, D, m)
            calls.append((D, P))
            return P

        monkeypatch.setattr(solver, "_product_residuals", recording)
        return calls

    def test_every_search_generator_agrees_with_check_map(self, monkeypatch):
        calls = self.record_residuals(monkeypatch)
        for pool in search_pools().values():
            calls.clear()
            cmps = compare_all(pool)
            (D, P), *later = calls
            gens = [(cmp.jordan.ring, g) for cmp in cmps for g in cmp.jordan.generators()]
            # The first call is the JDer self-check, one stacked pass over every generator.
            assert D.tolist() == [g.matrix.tolist() for _, g in gens]
            assert (P.any(axis=(1, 2, 3)).tolist()
                    == [not check_map(ring, g, DERIVATION).ok for ring, g in gens])
            # Every later call checks Der generators of the rings with Der != JDer, so
            # none covers the JDer generators again.
            ders = [g.matrix.tolist() for cmp in cmps if not cmp.equal
                    for g in cmp.derivations.generators()]
            assert [d for D, _ in later for d in D.tolist()] == ders
            for cmp in cmps:
                ring = cmp.jordan.ring
                first = next((g for g in cmp.jordan.generators()
                              if not check_map(ring, g, DERIVATION).ok), None)
                assert cmp.witness == first

    def test_one_residual_pass_per_stacked_batch(self, monkeypatch):
        # The 616 rank-2 search rings over Z/4, 90 of them with Der != JDer: one
        # stacked pass for the JDer batch and one for the Der batch, no check_map.
        residuals, checks = spy(monkeypatch, "_product_residuals"), spy(monkeypatch, "check_map")
        cmps = compare_all(search_pools()[4, 2])
        assert sum(not cmp.equal for cmp in cmps) == 90
        assert [len(D) for _, D, _ in residuals] == [
            sum(len(cmp.jordan.basis.as_array()) for cmp in cmps),
            sum(len(cmp.derivations.basis.as_array()) for cmp in cmps if not cmp.equal)]
        assert checks == []

    def test_batch_without_generators(self, monkeypatch):
        # JDer(Z/3) = 0: the stacked residual is empty and no Der kernel is solved.
        calls = self.record_residuals(monkeypatch)
        kernels = spy(monkeypatch, "kernels")
        cmps = compare_all([zmod(3)] * 3)
        assert ([(cmp.equal, cmp.witness, cmp.jordan.cardinality()) for cmp in cmps]
                == [(True, None, 1)] * 3)
        assert sum(len(stack) for _, stack in kernels) == 3
        assert [(D.shape, P.shape) for D, P in calls] == [((0, 1, 1), (0, 1, 1, 1))]


def random_element(rng, ring):
    return ring.element([rng.randrange(ring.modulus) for _ in range(ring.rank)])


class TestPolarizationCompleteness:
    """Kernel membership implies the quantified axioms on arbitrary elements."""

    @pytest.mark.parametrize(
        "ring",
        [
            matrix_ring(zmod(2), 2),
            zmod(4),
            dual_numbers(2),
            t2(4),
            fi_ring(Preorder.from_pairs("abc", [("a", "b"), ("b", "c")]), zmod(4)),
        ],
        ids=lambda r: f"k{r.rank}m{r.modulus}",
    )
    def test_axioms_hold_on_random_elements(self, ring):
        rng = random.Random(99)
        gens = solve_jordan_derivations(ring).generators()
        for d in gens:
            for _ in range(40):
                r = random_element(rng, ring)
                s = random_element(rng, ring)
                t = random_element(rng, ring)
                dr, ds, dt = d(r), d(s), d(t)
                assert d(r * r) == dr * r + r * dr
                assert d(r * s * r) == dr * s * r + r * ds * r + r * s * dr
                lhs = d(r * s * t + t * s * r)
                rhs = dr * s * t + r * ds * t + r * s * dt + dt * s * r + t * ds * r + t * s * dr
                assert lhs == rhs

    def test_oracle_membership_matches_solver_on_random_maps(self):
        ring = dual_numbers(2)
        der = solve_derivations(ring)
        jder = solve_jordan_derivations(ring)
        elements = [ring.element(v) for v in np.ndindex(2, 2)]
        vecs = [np.array(e.coeffs) for e in elements]
        rng = random.Random(3)
        for _ in range(30):
            mat = np.array([[rng.randrange(2) for _ in range(2)] for _ in range(2)])
            d = AdditiveMap.from_array(ring, mat)
            assert der.contains(d) == is_derivation_map(ring.constants, 2, mat, vecs)
            assert jder.contains(d) == is_jordan_map(ring.constants, 2, mat, vecs)


class TestTriplePolDecides:
    """On R9 (tests/oracles.py) and its rank-8 form the triple-pol rows cut the Jordan kernel down."""

    def test_r9_needs_the_triple_pol_rows(self):
        for unital in (True, False):
            ring, outside = r9_outside_jder(unital)
            assert solve_derivations(ring).cardinality() == 1024, unital
            assert outside, unital
            for d in outside:
                result = check_map_scalar(ring, d, JORDAN)
                assert not result.ok and result.identity == "triple-pol"
                assert check_map(ring, d, JORDAN) == result


class TestEveryFamilyDecides:
    """Slicing any one family out of the raw rows strictly enlarges the kernel on some ring."""

    @pytest.mark.parametrize("kind, family, ring, sizes", [
        (DERIVATION, "product", zmod(4), (1, 4)),
        (JORDAN, "square", zmod(4), (1, 2)),
        # b1 * b0 = 2 * b1 over Z/4, other products zero.
        (JORDAN, "square-pol", build_ring(4, [[[0, 0], [0, 0]], [[0, 2], [0, 0]]]), (32, 64)),
        # b0 * b0 = b0 over Z/2, other products zero.
        (JORDAN, "triple", build_ring(2, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]), (2, 4)),
        (JORDAN, "triple-pol", r9(), (4096, 8192)),
        (JORDAN, "triple-pol", r9(unital=False), (4096, 8192)),
    ], ids=("product",) + JORDAN_FAMILIES + ("triple-pol-rank8",))
    def test_dropping_the_family_enlarges_the_kernel(self, kind, family, ring, sizes):
        solve = solve_derivations if kind == DERIVATION else solve_jordan_derivations
        assert (solve(ring).cardinality(), kernel_without(ring, kind, family).cardinality()) == sizes


class TestOddModulusSquareFamilies:
    """Over odd m the square families decide JDer (solver module docstring): every generator
    of their kernel passes the scalar oracle's four Jordan identities, and the solver
    returns that kernel."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_square_family_kernel_is_jder(self, data):
        if data.draw(st.booleans(), label="incidence ring"):
            preorder = data.draw(st.sampled_from(
                [p for n in (1, 2, 3) for p in preorders_up_to_isomorphism(n)]), label="preorder")
            ring = fi_ring(preorder, zmod(data.draw(st.sampled_from([3, 9]), label="modulus")))
        else:
            k = data.draw(st.integers(1, 3), label="rank")
            m = data.draw(st.one_of(st.integers(1, 14).map(lambda h: 2 * h + 1),
                                    st.just(2**31 - 1)), label="modulus")
            # A unit adjoined to a rank k - 1 table gives nonzero triple products.
            unital = k > 1 and data.draw(st.booleans(), label="unital")
            n = k - unital
            while True:
                support = data.draw(st.sets(st.integers(0, n ** 3 - 1), max_size=4), label="support")
                c = np.zeros(n ** 3, dtype=np.int64)
                c[sorted(support)] = data.draw(st.lists(
                    st.integers(1, m - 1), min_size=len(support), max_size=len(support)), label="entries")
                if associative(c.reshape(n, n, n), m):
                    break
            table = np.zeros((k, k, k), dtype=np.int64)
            table[unital:, unital:, unital:] = c.reshape(n, n, n)
            if unital:
                table[0, range(k), range(k)] = table[range(k), 0, range(k)] = 1
            ring = build_ring(m, table, unit=(1,) + (0,) * n if unital else None)
        square = square_family_kernel(ring)
        for g in square.generators:
            assert check_map_scalar(ring, AdditiveMap.from_flat(ring, g), JORDAN).ok
        assert solve_jordan_derivations(ring).basis == square


class TestParityGate:
    """Over even m the square families alone are too weak: on these rings their kernel is
    strictly larger than JDer, and each generator outside JDer breaks a triple identity."""

    @pytest.mark.parametrize("ring, sizes", [
        # b0 * b0 = b0, other products zero, over Z/2 and Z/4.
        (build_ring(2, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]), (2, 4)),
        (build_ring(4, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]), (4, 8)),
        # b1 * b1 = 3 * b1 over Z/6.
        (build_ring(6, [[[0, 0], [0, 0]], [[0, 0], [0, 3]]]), (162, 324)),
        (r9(), (4096, 262144)),
    ], ids=["idempotent-m2", "idempotent-m4", "m6", "r9"])
    def test_square_family_kernel_is_larger_than_jder(self, ring, sizes):
        jder, square = solve_jordan_derivations(ring), square_family_kernel(ring)
        assert (jder.cardinality(), square.cardinality()) == sizes
        outside = [g for g in square.generators if not jder.basis.contains(g)]
        assert outside
        for g in outside:
            result = check_map_scalar(ring, AdditiveMap.from_flat(ring, g), JORDAN)
            assert result.identity in ("triple", "triple-pol")


@pytest.mark.parametrize("call, message", [
    (lambda: AdditiveMap.from_images(zmod(2), [zmod(4).one()]),
     "image elements must belong to the ring"),
    (lambda: AdditiveMap.zero(zmod(2))(zmod(4).one()), "element belongs to a different ring"),
    (lambda: AdditiveMap.zero(zmod(2)) + AdditiveMap.zero(zmod(4)),
     "additive maps live on different rings"),
    (lambda: check_map(zmod(2), AdditiveMap.zero(zmod(4)), DERIVATION),
     "map belongs to a different ring"),
    (lambda: solve_derivations(zmod(2)).contains(AdditiveMap.zero(zmod(4))),
     "map belongs to a different ring"),
    (lambda: inner_derivation(zmod(2), zmod(4).one()), "element belongs to a different ring"),
    (lambda: AdditiveMap.from_flat(dual_numbers(4), [1, 2, 3]),
     "additive map on a rank-2 ring needs a 2x2 matrix"),
    (lambda: AdditiveMap.from_array(dual_numbers(4), [[1, 2, 3]]),
     "additive map on a rank-2 ring needs a 2x2 matrix"),
    (lambda: AdditiveMap.from_images(dual_numbers(4), [dual_numbers(4).one()] * 3),
     "additive map on a rank-2 ring needs a 2x2 matrix"),
], ids=["from-images", "apply", "add", "check-map", "contains", "inner-derivation",
        "from-flat-size", "from-array-size", "from-images-count"])
def test_foreign_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def peirce_support_by_definition(ring):
    """The columns a + k*b with the pair at a equal to the pair at b or its transpose, one
    pair of basis indices at a time."""
    k, pair = ring.rank, lambda i: ring.pairs[i // ring.base.rank]
    return sorted(a + k * b for a in range(k) for b in range(k)
                  if pair(a) in (pair(b), pair(b)[::-1]))


def two_cycle_plus_point():
    return Preorder.from_pairs("abc", [("a", "b"), ("b", "a")])


PEIRCE_RINGS = {
    "M2(Z/4)": lambda: matrix_ring(zmod(4), 2),
    "M2(R3)": lambda: matrix_ring(r3(), 2),
    "M2(Z/6)": lambda: matrix_ring(zmod(6), 2),
    "FI(a<=b + c, R3)": lambda: fi_ring(Preorder.from_pairs("abc", [("a", "b")]), r3()),
    "FI(chain3, Z/4)": lambda: fi_ring(Preorder.from_pairs("abc", [("a", "b"), ("b", "c")]),
                                       zmod(4)),
    "FI(2-cycle + c, dual(2))": lambda: fi_ring(two_cycle_plus_point(), dual_numbers(2)),
    "FI(a + b<=c, dual(4))": lambda: fi_ring(Preorder.from_pairs("abc", [("b", "c")]),
                                             dual_numbers(4)),
    "FI(empty, Z/4)": lambda: fi_ring(Preorder.from_pairs("", []), zmod(4)),
}


def assert_peirce_path_matches_full_path(ring):
    """Both kinds of ``_solve_all`` on the Peirce support against the full rows, slots,
    owners, generators and residuals byte for byte, and compare_all against compare_spaces."""
    c, m, support = ring.constants[None], ring.modulus, ring.peirce_support()
    assert support is not None
    for kind in (DERIVATION, JORDAN):
        for got, want in zip(solver._solve_all(c, m, kind, support), solver._solve_all(c, m, kind),
                             strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    assert_batch_matches_one_ring_at_a_time([ring])


class TestPeirceSupport:
    @pytest.mark.parametrize("name", PEIRCE_RINGS)
    def test_support_is_each_pair_and_its_transpose(self, name):
        ring = PEIRCE_RINGS[name]()
        assert ring.peirce_support().tolist() == peirce_support_by_definition(ring)

    def test_support_needs_a_pair_ring_over_a_unital_base(self):
        assert matrix_ring(build_ring(2, [[[0]]]), 2).peirce_support() is None
        assert r3().peirce_support() is None
        assert t2(4).peirce_support() is None
        assert compare_all([matrix_ring(build_ring(2, [[[0]]]), 2)])[0].equal

    @pytest.mark.parametrize("name", PEIRCE_RINGS)
    def test_peirce_path_matches_the_full_path(self, name):
        assert_peirce_path_matches_full_path(PEIRCE_RINGS[name]())

    @pytest.mark.parametrize("kind", [DERIVATION, JORDAN])
    @pytest.mark.parametrize("m", [4, 5])
    def test_restricted_rows_are_the_full_rows_at_the_support(self, kind, m):
        # Any ascending support, not only a Peirce one: a random subset of the columns of
        # stacked search tables, so one b may have any number of columns, or none.
        rng = random.Random(m)
        tables = search_table_pools()[m, 2][:64]
        full = _constraint_rows(tables, m, kind)
        for _ in range(8):
            support = np.array(sorted(rng.sample(range(4), rng.randrange(5))), dtype=np.intp)
            got = _constraint_rows(tables, m, kind, support)
            assert np.array_equal(got, full[:, :, support])

    def test_compare_all_restricts_only_to_a_support_every_ring_has(self, monkeypatch):
        stacks = spy(monkeypatch, "_compare_stack")
        chain3 = Preorder.from_pairs("abc", [("a", "b"), ("b", "c")])
        same = [fi_ring(chain3, zmod(4)), fi_ring(chain3, build_ring(4, [[[3]]], unit=(3,)))]
        two_layouts = [fi_ring(Preorder.from_pairs("ab", [("a", "b"), ("b", "a")]), zmod(4)),
                       fi_ring(Preorder.from_pairs("abc", [("a", "b")]), zmod(4))]
        plain = [matrix_ring(zmod(4), 2), build_ring(4, matrix_ring(zmod(4), 2).constants)]
        for batch in (same, two_layouts, plain):
            assert_batch_matches_one_ring_at_a_time(batch)
        assert stacks[0][2].tolist() == peirce_support_by_definition(same[0])
        assert stacks[1][2] is None and stacks[2][2] is None

    def test_cli_identities_solves_on_the_support(self, monkeypatch, tmp_path):
        calls = spy(monkeypatch, "_solve_all")
        monkeypatch.setattr("jder.cli._solve_all", solver._solve_all)
        path = tmp_path / "inst.ini"
        path.write_text("[instance]\nformat_version = 1\n[preorder]\nlabels = a b c\n"
                        "pairs = b<=c\n[ring]\nkind = zmod\nmodulus = 4\n", encoding="utf-8")
        for command in ("identities", "dprime-check"):
            assert main([command, "--input", str(path), "--out", str(tmp_path / "out.json")]) == 0
        assert [args[3].tolist() for args in calls] == [[0, 5, 10, 15]] * 2


@st.composite
def peirce_rings(draw):
    """M_2 or FI(P, R) on a preorder of at most 4 points, over Z/4, dual_numbers(2), R3 or
    Z/6, of rank at most 12."""
    base = draw(st.sampled_from([zmod(4), dual_numbers(2), r3(), zmod(6)]), label="base")
    if draw(st.booleans(), label="M_2"):
        return matrix_ring(base, 2)
    n = draw(st.integers(1, 4), label="points")
    labels = "abcd"[:n]
    off_diagonal = [(x, y) for x in labels for y in labels if x != y]
    relation = draw(st.lists(st.sampled_from(off_diagonal), unique=True) if off_diagonal
                    else st.just([]), label="pairs")
    preorder = Preorder.from_pairs(labels, relation)
    assume(len(preorder.comparable_pairs()) * base.rank <= 12)
    return fi_ring(preorder, base)


class TestPeircePathProperty:
    @settings(max_examples=80, deadline=None)
    @given(peirce_rings())
    def test_peirce_path_matches_the_full_path(self, ring):
        assert_peirce_path_matches_full_path(ring)


def closed_form_cases():
    """(name, FI(P, Z/m), |Der| in closed form) for chains of 2 to 6 points and the crown."""
    crown = Preorder.from_pairs("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    for m in (2, 3, 4, 6):
        for n in range(2, 7):
            labels = "abcdef"[:n]
            chain = Preorder.from_pairs(labels, list(zip(labels, labels[1:])))
            yield f"chain{n}/Z{m}", fi_ring(chain, zmod(m)), m ** (n * (n + 1) // 2 - 1)
        yield f"crown/Z{m}", fi_ring(crown, zmod(m)), m ** 8


def test_der_order_matches_the_closed_form():
    """|Der(FI(P, Z/m))| = |JDer| against a closed form, on both solver paths.

    Over a commutative ring R, the derivations of an incidence algebra are
    the inner ones, the maps from H^1 of the order complex of P and those
    induced from Der(R) (K. Baclawski, "Automorphisms and derivations of
    incidence algebras", Proc. AMS 36 (1972)).  Der(Z/m) = 0, and for a
    connected P the inner derivations form FI(P, Z/m) modulo its center
    Z/m, so |Der| = m^(#comparable pairs - 1) |H^1(order complex; Z/m)|.
    The order complex of a chain of n points is a simplex, with H^1 = 0:
    |Der| = m^(n(n+1)/2 - 1).  That of the crown {a, b} < {c, d} is a
    4-cycle, with H^1 = Z/m: |Der| = m^8.  ``compare_all`` takes the Peirce
    path; ``compare_spaces``, run at rank <= 10, the full rows.
    """
    for name, ring, order in closed_form_cases():
        assert ring.peirce_support() is not None
        cmps = compare_all([ring]) + ([compare_spaces(ring)] if ring.rank <= 10 else [])
        for cmp in cmps:
            assert cmp.equal, name
            assert cmp.derivations.cardinality() == cmp.jordan.cardinality() == order, name
