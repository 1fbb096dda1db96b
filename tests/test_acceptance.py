"""Acceptance gate: twelve exact end-to-end criteria, one verdict line each.

Every criterion prints ``criterion NN: PASS/FAIL - detail`` (visible under
``pytest -s``) and then asserts, so a red run always names the criterion
that broke.  All arithmetic is exact; there are no tolerances anywhere.
"""

import itertools
import random
import time
from functools import lru_cache

import numpy as np

from jder.analysis import (
    ALL_JORDAN_ARE_DERIVATIONS,
    bimodule_faithful,
    construct_dprime,
    cross_check,
    extend_isolated,
    identity_suite,
    restrict_to_class,
    theorem_verdict,
)
from jder.incidence import fi_ring
from jder.preorders import Preorder
from jder.rings import (
    Bimodule,
    direct_product,
    dual_numbers,
    matrix_bimodule,
    matrix_ring,
    zmod,
)
from jder.solver import (
    DERIVATION,
    JORDAN,
    AdditiveMap,
    check_map,
    compare_spaces,
    inner_derivation,
    solve_derivations,
    solve_jordan_derivations,
)
from jder.zmodlin import ZmMatrix, howell_form, kernel

from oracles import (all_vectors, brute_force_maps, kernel_set, preorders_up_to_isomorphism, r3,
                     r9, span_set)


def verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def chain(n: int) -> Preorder:
    labels = "abcdef"[:n]
    return Preorder.from_pairs(labels, list(zip(labels, labels[1:])))


TWO_CYCLE = Preorder.from_pairs("ab", [("a", "b"), ("b", "a")])
V_SHAPE = Preorder.from_pairs("abc", [("a", "c"), ("b", "c")])
ANTICHAIN2 = Preorder.from_pairs("ab", [])
POINT = Preorder.from_pairs("a", [])

EQUAL_BRANCH = [
    (name, p, r)
    for name, p in [
        ("chain2", chain(2)),
        ("chain3", chain(3)),
        ("two-cycle", TWO_CYCLE),
        ("v-shape", V_SHAPE),
    ]
    for r in (zmod(2), zmod(4))
]
CONDITIONAL_BRANCH = [
    (name, p, r)
    for name, p in [("antichain2", ANTICHAIN2), ("point", POINT)]
    for r in (zmod(2), zmod(3), zmod(4), dual_numbers(2))
]


@lru_cache(maxsize=1)
def incidence_instances():
    """All incidence instances of criteria 3-4 with their Jordan generators."""
    out = []
    for name, p, r in EQUAL_BRANCH + CONDITIONAL_BRANCH:
        fi = fi_ring(p, r)
        gens = solve_jordan_derivations(fi).generators()
        out.append((f"{name}/Z{r.modulus}r{r.rank}", fi, gens))
    return out


def test_criterion_01_matrix_rings_have_no_proper_jordan_derivations():
    cases = 0
    ok = True
    for m in (2, 3, 4, 5, 6):
        for n in (2, 3):
            started = time.perf_counter()
            comparison = compare_spaces(matrix_ring(zmod(m), n))
            elapsed = time.perf_counter() - started
            cases += 1
            ok = ok and comparison.equal and comparison.witness is None
            ok = ok and elapsed < 10.0
    verdict(1, ok and cases == 10, f"compare_spaces Equal on {cases} rings M_n(Z/m), "
                                   "m in 2..6, n in 2..3, each under 10 s")


def test_criterion_02_exhaustive_oracle_matches_solver_bit_for_bit():
    started = time.perf_counter()
    ring = matrix_ring(zmod(2), 2)
    results = {}
    for kind, solve in ((DERIVATION, solve_derivations), (JORDAN, solve_jordan_derivations)):
        maps = brute_force_maps(ring.constants, 2, kind)
        flats = [mat.flatten(order="F") for mat in maps]
        enumerated = howell_form(ZmMatrix.from_array(2, np.array(flats)))
        space = solve(ring)
        results[kind] = (
            space.basis.generators == enumerated.generators
            and space.cardinality() == len(maps)
        )
    der_maps = brute_force_maps(ring.constants, 2, DERIVATION)
    der_set = {tuple(mat.flatten(order="F").tolist()) for mat in der_maps}
    inner_set = {
        tuple(inner_derivation(ring, ring.element(v)).to_flat())
        for v in all_vectors(2, 4)
    }
    space = solve_derivations(ring)
    ok = (
        results[DERIVATION]
        and results[JORDAN]
        and len(der_maps) == 8
        and len(space.basis.generators) == 3
        and inner_set == der_set
        and time.perf_counter() - started < 60.0
    )
    verdict(2, ok, "all 2^16 additive maps on M_2(Z/2) classified; Der and JDer "
                   "bases bit-identical to the solver, |Der| = 8 = #inner, "
                   "3 generators")


def test_criterion_03_incidence_rings_without_isolated_elements():
    ok = True
    cases = 0
    for name, p, r in EQUAL_BRANCH:
        started = time.perf_counter()
        comparison = compare_spaces(fi_ring(p, r))
        outcome = theorem_verdict(p, r).outcome
        elapsed = time.perf_counter() - started
        cases += 1
        ok = ok and comparison.equal and outcome == ALL_JORDAN_ARE_DERIVATIONS
        ok = ok and elapsed < 60.0
    verdict(3, ok and cases == 8, f"{cases} instances FI(P, R) with no isolated "
                                  "elements: spaces Equal and verdict "
                                  "AllJordanAreDerivations")


def test_criterion_04_isolated_instances_reduce_to_the_coefficient_ring():
    ok = True
    cases = 0
    for name, p, r in CONDITIONAL_BRANCH:
        report = cross_check(p, r)
        cases += 1
        ok = ok and report.consistent
        ok = ok and (report.fi_comparison.equal == report.ring_comparison.equal)
    verdict(4, ok and cases == 8, f"{cases} isolated instances: Equal on FI(P, R) "
                                  "iff Equal on R, cross_check consistent")


def test_criterion_05_dprime_reconstruction_fixes_every_jordan_generator():
    ok = True
    generators = 0
    for name, fi, gens in incidence_instances():
        family = fi.class_idempotents()
        for d in gens:
            generators += 1
            ok = ok and construct_dprime(fi, family, d) == d
    verdict(5, ok and generators > 0, f"construct_dprime(d) = d entrywise for all "
                                      f"{generators} Jordan generators of the "
                                      "criterion 3-4 instances")


def test_criterion_06_identity_suite_passes_in_basis_mode():
    ok = True
    generators = 0
    for name, fi, gens in incidence_instances():
        family = fi.class_idempotents()
        for d in gens:
            generators += 1
            report = identity_suite(fi, family, d, mode="basis")
            ok = ok and report.ok
            ok = ok and report.outcome("idempotent-image-pairing").passed
            ok = ok and report.outcome("triple-composition").passed
    verdict(6, ok and generators > 0, f"all identities pass in basis mode for "
                                      f"{generators} generators, including the "
                                      "idempotent pairing and triple composition "
                                      "laws")


def _batch_mul(ring, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ni,nj,ijt->nt", a, b, ring.constants) % ring.modulus


def _random_tuples(ring, count: int, seed: int) -> tuple:
    rng = random.Random(seed)
    draw = lambda: np.array(
        [[rng.randrange(ring.modulus) for _ in range(ring.rank)] for _ in range(count)],
        dtype=np.int64,
    )
    return draw(), draw(), draw()


def test_criterion_07_quantified_axioms_hold_on_random_elements():
    failures = 0
    checked = 0
    for index, (name, ring, gens) in enumerate(incidence_instances()):
        m = ring.modulus
        r, s, t = _random_tuples(ring, 1000, seed=1000 + index)
        rr = _batch_mul(ring, r, r)
        rs = _batch_mul(ring, r, s)
        sr = _batch_mul(ring, s, r)
        ts = _batch_mul(ring, t, s)
        st = _batch_mul(ring, s, t)
        rsr = _batch_mul(ring, rs, r)
        rst = _batch_mul(ring, rs, t)
        tsr = _batch_mul(ring, ts, r)
        for d in gens:
            mat = d.as_array().T  # row convention: image of row v is v @ mat
            dr, ds, dt = (r @ mat) % m, (s @ mat) % m, (t @ mat) % m
            q1 = (rr @ mat - _batch_mul(ring, dr, r) - _batch_mul(ring, r, dr)) % m
            q2 = (
                rsr @ mat
                - _batch_mul(ring, dr, sr)
                - _batch_mul(ring, _batch_mul(ring, r, ds), r)
                - _batch_mul(ring, rs, dr)
            ) % m
            herstein = (
                (rst + tsr) @ mat
                - _batch_mul(ring, dr, st)
                - _batch_mul(ring, _batch_mul(ring, r, ds), t)
                - _batch_mul(ring, rs, dt)
                - _batch_mul(ring, dt, sr)
                - _batch_mul(ring, _batch_mul(ring, t, ds), r)
                - _batch_mul(ring, ts, dr)
            ) % m
            checked += 3000
            failures += int(np.count_nonzero(q1) > 0)
            failures += int(np.count_nonzero(q2) > 0)
            failures += int(np.count_nonzero(herstein) > 0)
    verdict(7, failures == 0 and checked > 0,
            f"square, sandwich, and Herstein axioms hold on 1000 seeded random "
            f"tuples per instance ({checked} evaluations, {failures} failures)")


def test_criterion_08_matrix_bimodules_are_faithful():
    ok = True
    cases = 0
    for r in (zmod(2), zmod(4)):
        for n, p in itertools.product((1, 2, 3), repeat=2):
            report = bimodule_faithful(matrix_bimodule(r, n, p))
            cases += 1
            ok = ok and report.left and report.right
    left = direct_product(zmod(2), zmod(2))
    engineered = bimodule_faithful(
        Bimodule(
            left=left,
            right=zmod(2),
            rank=1,
            left_action=np.array([[[1]], [[0]]]),
            right_action=np.array([[[1]]]),
        )
    )
    ok = ok and not engineered.left and engineered.right
    ok = ok and engineered.left_annihilator is not None
    verdict(8, ok and cases == 18, f"{cases} matrix bimodules faithful on both "
                                   "sides; one-factor action correctly reported "
                                   "left-unfaithful")


def test_criterion_09_isolated_extension_round_trip_and_status_transfer():
    ok = True
    maps_checked = 0
    for r in (zmod(2), dual_numbers(2)):
        fi = fi_ring(ANTICHAIN2, r)
        k = r.rank
        for flat in itertools.product(range(r.modulus), repeat=k * k):
            d_x = AdditiveMap.from_array(r, np.array(flat).reshape(k, k))
            maps_checked += 1
            for ci in range(fi.quotient.size):
                extended = extend_isolated(fi, ci, d_x)
                ok = ok and restrict_to_class(fi, extended, ci).entries == d_x.entries
                for kind in (DERIVATION, JORDAN):
                    ok = ok and (
                        check_map(fi, extended, kind).ok
                        == check_map(r, d_x, kind).ok
                    )
    verdict(9, ok and maps_checked == 18,
            f"restrict_to_class after extend_isolated is the identity and "
            f"derivation/Jordan status transfers both ways for {maps_checked} "
            "maps on antichain instances")


def test_criterion_10_exact_linear_algebra_agrees_with_enumeration():
    ok = True
    checks = 0
    for m in (2, 3, 4, 5, 6):
        for dim in (1, 2, 3, 4):
            rng = random.Random(100 * m + dim)
            vectors = [np.array(v, dtype=np.int64) for v in all_vectors(m, dim)]
            for rows in (1, 3):
                matrix = [[rng.randrange(m) for _ in range(dim)] for _ in range(rows)]
                basis = kernel(ZmMatrix.from_array(m, np.array(matrix)))
                members = {
                    tuple(v.tolist())
                    for v in vectors
                    if basis.contains(v)
                }
                expected = kernel_set(m, matrix)
                checks += 1
                ok = ok and members == expected
                ok = ok and basis.cardinality() == len(expected)
            generators = [
                tuple(rng.randrange(m) for _ in range(dim)) for _ in range(2)
            ]
            span = howell_form(ZmMatrix.from_array(m, np.array(generators)))
            expected = span_set(m, generators)
            checks += 1
            ok = ok and span.cardinality() == len(expected)
            for v in vectors:
                key = tuple(v.tolist())
                inside = span.contains(v)
                ok = ok and inside == (key in expected)
                if inside:
                    coords = span.coordinates(v)
                    recon = np.zeros(dim, dtype=np.int64)
                    for c, g in zip(coords, span.generators):
                        recon = (recon + c * np.array(g, dtype=np.int64)) % m
                    ok = ok and tuple(recon.tolist()) == key
    verdict(10, ok and checks == 60,
            f"kernel and subgroup operations agree with exhaustive enumeration "
            f"in {checks} checks over m in 2..6, dimensions up to 4")


def criterion_holds(p: Preorder, r, bites: bool) -> bool:
    """The paper's criterion on FI(P, R), as criteria 11 and 12 check it; ``bites`` when
    Der(R) != JDer(R)."""
    report = cross_check(p, r)
    fi, s = fi_ring(p, r), len(p.isolated_elements())
    fi_cmp, r_cmp = report.fi_comparison, report.ring_comparison
    ok = report.consistent
    if bites:  # proper on FI exactly when P has an isolated point
        ok = ok and (fi_cmp.verdict == "ProperInclusion") == bool(s)
    # |JDer(FI)| / |Der(FI)| = (|JDer(R)| / |Der(R)|)^s, cross-multiplied
    ok = ok and (fi_cmp.jordan.cardinality() * r_cmp.derivations.cardinality() ** s
                 == fi_cmp.derivations.cardinality() * r_cmp.jordan.cardinality() ** s)
    # JDer(FI) is spanned by Der(FI) and JDer(R) extended along each isolated point.
    q = fi.quotient
    extended = [extend_isolated(fi, ci, g).to_flat() for ci in q.isolated_classes()
                if len(q.classes[ci]) == 1 for g in r_cmp.jordan.generators()]
    rows = np.concatenate([fi_cmp.derivations.basis.as_array().reshape(-1, fi.rank ** 2),
                           np.array(extended, dtype=np.int64).reshape(-1, fi.rank ** 2)])
    spanned = howell_form(ZmMatrix.from_array(fi.modulus, rows))
    return ok and spanned.generators == fi_cmp.jordan.basis.generators


def test_criterion_11_criterion_holds_both_ways_where_it_bites():
    rings = {"Z/4": zmod(4), "Z/2[e]": dual_numbers(2), "R3": r3(), "R9": r9()}
    cases = [(p, name) for n in (1, 2, 3) for p in preorders_up_to_isomorphism(n)
             for name in rings if len(p.comparable_pairs()) * rings[name].rank <= 21]
    small = len(cases)
    # M_3(R3) is FI(P, R3) for the 3-cycle, whose closure is one class of three points.
    cases += [(Preorder.from_pairs("abc", [("a", "b"), ("b", "c"), ("c", "a")]), "R3"),
              (Preorder.from_pairs("ab", [("a", "b")]), "R9")]
    ok = True
    for p, name in cases:
        # Der(R) != JDer(R) over R3 and R9.
        ok = criterion_holds(p, rings[name], name in ("R3", "R9")) and ok
    verdict(11, ok and small == 40 and len(cases) == 42,
            f"{small} FI(P, R), P every preorder on <= 3 points up to isomorphism, R in "
            "Z/4, Z/2[e], R3, R9, rank <= 21, with M_3(R3) and FI(a <= b, R9) at rank 27: "
            "cross_check consistent, ProperInclusion over R3 and R9 iff P has an isolated "
            "element, |JDer/Der| = |JDer(R)/Der(R)|^s, JDer = Der + isolated extensions")


def test_criterion_12_criterion_on_every_preorder_on_four_points():
    # The R3 cases of rank 27 to 39 (about 22 s, 1.7 GB) stay out of tier 1; M_4(R3), rank 48,
    # is over the solver limit.
    four = preorders_up_to_isomorphism(4)
    cases = ([(p, zmod(4), False) for p in four] + [(p, dual_numbers(2), False) for p in four]
             + [(p, r3(), True) for p in four if len(p.comparable_pairs()) * 3 <= 24])
    ok = True
    for p, r, bites in cases:
        ok = criterion_holds(p, r, bites) and ok
    verdict(12, ok and len(four) == 33 and len(cases) == 83,
            f"{len(cases)} FI(P, R), P every preorder on 4 points up to isomorphism over Z/4 "
            "and Z/2[e], and over R3 at rank <= 24: cross_check consistent, ProperInclusion "
            "over R3 iff P has an isolated element, |JDer/Der| = |JDer(R)/Der(R)|^s, "
            "JDer = Der + isolated extensions")
