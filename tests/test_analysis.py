"""Corner restrictions, d' reconstruction, extensions, verdicts, identity suite."""

import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jder import analysis, cli, solver, zmodlin
from jder.analysis import (
    ALL_JORDAN_ARE_DERIVATIONS,
    CONDITIONAL_ON_COEFFICIENT_RING,
    bimodule_faithful,
    construct_dprime,
    cross_check,
    extend_isolated,
    identity_suite,
    identity_suites,
    restrict_corner,
    restrict_to_class,
    theorem_verdict,
)
from jder.incidence import fi_ring
from jder.preorders import Preorder
from jder.rings import (
    Bimodule,
    build_ring,
    corner_of,
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
    CheckResult,
    SizeBudgetError,
    check_map,
    inner_derivation,
    solve_derivations,
    solve_jordan_derivations,
)
from oracles import construct_dprime_scalar, identity_suite_scalar, r3, r9


def chain(n):
    labels = [chr(ord("a") + i) for i in range(n)]
    return Preorder.from_pairs(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


ANTICHAIN2 = Preorder.from_pairs("ab", [])
TWO_CYCLE = Preorder.from_pairs("ab", [("a", "b"), ("b", "a")])
V_SHAPE = Preorder.from_pairs("abc", [("a", "c"), ("b", "c")])
POINT_PLUS_CHAIN = Preorder.from_pairs("abc", [("b", "c")])
CHERRY_PLUS_POINT = Preorder.from_pairs("abcd", [("a", "b"), ("a", "c")])


def random_element(rng, ring):
    return ring.element([rng.randrange(ring.modulus) for _ in range(ring.rank)])


def sparse_map(rng, ring, density):
    """A random additive map with about density * k^2 nonzero entries."""
    return AdditiveMap.from_array(ring, [
        [rng.randrange(1, ring.modulus) if rng.random() < density else 0
         for _ in range(ring.rank)]
        for _ in range(ring.rank)
    ])


def _matrix_case(m):
    r = matrix_ring(zmod(m), 2)
    return r, [r.matrix_unit(0, 0), r.matrix_unit(1, 1)]


def _dual_case():
    r = dual_numbers(2)
    return r, [r.one()]


def _incidence_case(preorder, coefficients):
    fi = fi_ring(preorder, coefficients)
    return fi, fi.class_idempotents()


# Z/4[e] with e^2 = 0, presented by structure constants.
Z4_DUAL = build_ring(4, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], unit=(1, 0))

# (ring, family) on which the whole-array identity suite is held to the scalar reference.
ORACLE_CASES = {
    "M2(Z3)": lambda: _matrix_case(3),
    "M2(Z4)": lambda: _matrix_case(4),
    "dual_numbers(2)": _dual_case,
    "FI(chain3,Z2)": lambda: _incidence_case(chain(3), zmod(2)),
    "FI(a+b<=c,Z4[e])": lambda: _incidence_case(POINT_PLUS_CHAIN, Z4_DUAL),
    "FI(a<=b,a<=c,d,Z4)": lambda: _incidence_case(CHERRY_PLUS_POINT, zmod(4)),
}


class TestRestrictCorner:
    def test_unit_corner_is_identity_restriction(self):
        r = matrix_ring(zmod(2), 2)
        d = inner_derivation(r, r.matrix_unit(0, 1))
        assert restrict_corner(d, r.one()) == d

    def test_inner_by_off_diagonal_vanishes_on_corner(self):
        r = matrix_ring(zmod(2), 2)
        d = inner_derivation(r, r.matrix_unit(0, 1))
        d_e = restrict_corner(d, r.matrix_unit(0, 0))
        assert d_e.ring.rank == 1
        assert d_e.is_zero()

    def test_nested_restriction_matches_direct(self):
        fi = fi_ring(chain(3), zmod(2))
        index = fi.preorder.index
        d = inner_derivation(fi, fi.from_entries({(index("a"), index("b")): zmod(2).one()}))
        f = fi.class_idempotent(0) + fi.class_idempotent(1)
        e = fi.class_idempotent(0)
        outer = corner_of(fi, f)
        nested = restrict_corner(restrict_corner(d, f), outer.compress(e))
        assert nested == restrict_corner(d, e)

    def test_jordan_status_descends(self):
        r = matrix_ring(zmod(4), 2)
        e = r.matrix_unit(0, 0)
        for d in solve_jordan_derivations(r).generators():
            d_e = restrict_corner(d, e)
            assert check_map(d_e.ring, d_e, JORDAN).ok

    def test_non_idempotent_rejected(self):
        r = matrix_ring(zmod(2), 2)
        d = AdditiveMap.zero(r)
        with pytest.raises(ValueError):
            restrict_corner(d, r.matrix_unit(0, 1))


class TestRestrictToClass:
    def test_inner_by_strict_interval_element_vanishes(self):
        fi = fi_ring(chain(2), zmod(2))
        index = fi.preorder.index
        d = inner_derivation(fi, fi.from_entries({(index("a"), index("b")): zmod(2).one()}))
        assert restrict_to_class(fi, d, 0).is_zero()
        assert restrict_to_class(fi, d, 1).is_zero()

    def test_matches_corner_route(self):
        p = Preorder.from_pairs(
            "abcd", [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"), ("a", "c")]
        )
        fi = fi_ring(p, zmod(2))
        rng = random.Random(11)
        d = inner_derivation(fi, random_element(rng, fi))
        for ci in range(fi.quotient.size):
            direct = restrict_to_class(fi, d, ci)
            corner = restrict_corner(d, fi.class_idempotent(ci))
            assert direct.ring.same_presentation(corner.ring)
            assert direct.entries == corner.entries

    def test_jordan_status_descends_per_class(self):
        fi = fi_ring(V_SHAPE, zmod(4))
        for d in solve_jordan_derivations(fi).generators():
            for ci in range(fi.quotient.size):
                d_x = restrict_to_class(fi, d, ci)
                assert check_map(d_x.ring, d_x, JORDAN).ok

    def test_derivation_iff_all_class_restrictions_are(self):
        for p, m in [(chain(2), 4), (V_SHAPE, 2), (TWO_CYCLE, 3)]:
            fi = fi_ring(p, zmod(m))
            for d in solve_jordan_derivations(fi).generators():
                whole = check_map(fi, d, DERIVATION).ok
                per_class = all(
                    check_map(
                        fi.class_matrix_ring(ci),
                        restrict_to_class(fi, d, ci),
                        DERIVATION,
                    ).ok
                    for ci in range(fi.quotient.size)
                )
                assert whole == per_class

    def test_unknown_class_rejected(self):
        fi = fi_ring(chain(2), zmod(2))
        with pytest.raises(ValueError):
            restrict_to_class(fi, AdditiveMap.zero(fi), 2)


class TestConstructDprime:
    def test_zero_map(self):
        r = matrix_ring(zmod(3), 2)
        family = [r.matrix_unit(0, 0), r.matrix_unit(1, 1)]
        assert construct_dprime(r, family, AdditiveMap.zero(r)).is_zero()

    def test_inner_derivations_reconstruct(self):
        r = matrix_ring(zmod(3), 2)
        family = [r.matrix_unit(0, 0), r.matrix_unit(1, 1)]
        rng = random.Random(2)
        for _ in range(10):
            d = inner_derivation(r, random_element(rng, r))
            assert construct_dprime(r, family, d) == d

    def test_jordan_generators_reconstruct_on_incidence_rings(self):
        for p, m in [(chain(2), 4), (V_SHAPE, 2)]:
            fi = fi_ring(p, zmod(m))
            family = fi.class_idempotents()
            for d in solve_jordan_derivations(fi).generators():
                dprime = construct_dprime(fi, family, d)
                assert dprime == d
                assert construct_dprime(fi, family, dprime) == dprime

    def test_arbitrary_maps_match_scalar_reference(self):
        rng = random.Random(4)
        for ring, family in (_incidence_case(chain(3), zmod(4)), _matrix_case(6)):
            for _ in range(5):
                d = sparse_map(rng, ring, density=0.3)
                assert construct_dprime(ring, family, d) == construct_dprime_scalar(ring, family, d)

    def test_incomplete_family_rejected(self):
        r = matrix_ring(zmod(3), 2)
        with pytest.raises(ValueError):
            construct_dprime(r, [r.matrix_unit(0, 0)], AdditiveMap.zero(r))

    def test_non_orthogonal_family_rejected(self):
        r = matrix_ring(zmod(3), 2)
        with pytest.raises(ValueError):
            construct_dprime(r, [r.one(), r.one()], AdditiveMap.zero(r))


class TestExtendIsolated:
    def test_round_trip_and_off_block_zero(self):
        fi = fi_ring(POINT_PLUS_CHAIN, zmod(2))
        d_x = AdditiveMap.from_array(zmod(2), [[1]])
        ext = extend_isolated(fi, 0, d_x)
        back = restrict_to_class(fi, ext, 0)
        assert back.entries == d_x.entries
        u = fi.index(fi.preorder.index("b"), fi.preorder.index("c"))
        assert ext(fi.basis_element(u)).is_zero()

    def test_status_transfers_both_ways(self):
        r = dual_numbers(2)
        fi = fi_ring(ANTICHAIN2, r)
        for flat in np.ndindex(2, 2, 2, 2):
            d_x = AdditiveMap.from_array(r, np.array(flat).reshape(2, 2))
            ext = extend_isolated(fi, 0, d_x)
            for kind in (DERIVATION, JORDAN):
                assert check_map(fi, ext, kind).ok == check_map(r, d_x, kind).ok

    def test_rejections(self):
        fi = fi_ring(chain(2), zmod(2))
        d_x = AdditiveMap.zero(zmod(2))
        with pytest.raises(ValueError):
            extend_isolated(fi, 0, d_x)  # not isolated
        fi2 = fi_ring(TWO_CYCLE, zmod(2))
        with pytest.raises(ValueError):
            extend_isolated(fi2, 0, AdditiveMap.zero(fi2.class_matrix_ring(0)))
        fi3 = fi_ring(ANTICHAIN2, zmod(2))
        with pytest.raises(ValueError):
            extend_isolated(fi3, 0, AdditiveMap.zero(zmod(4)))


class TestBimoduleFaithful:
    def test_matrix_bimodules_are_faithful(self):
        for n, p in [(1, 1), (2, 1), (2, 3)]:
            report = bimodule_faithful(matrix_bimodule(zmod(2), n, p))
            assert report.left and report.right
            assert report.left_annihilator is None

    def test_action_through_one_factor_is_not_left_faithful(self):
        left = direct_product(zmod(2), zmod(2))
        bim = Bimodule(
            left=left,
            right=zmod(2),
            rank=1,
            left_action=np.array([[[1]], [[0]]]),
            right_action=np.array([[[1]]]),
        )
        report = bimodule_faithful(bim)
        assert not report.left and report.right
        assert report.left_annihilator == left.element((0, 1))

    def test_zero_module_annihilated_on_both_sides(self):
        bim = Bimodule(
            left=zmod(2),
            right=zmod(2),
            rank=0,
            left_action=np.zeros((1, 0, 0), dtype=np.int64),
            right_action=np.zeros((0, 1, 0), dtype=np.int64),
        )
        report = bimodule_faithful(bim)
        assert not report.left and not report.right


class TestTheoremVerdict:
    def test_chain_has_unconditional_outcome(self):
        verdict = theorem_verdict(chain(2), zmod(2))
        assert verdict.outcome == ALL_JORDAN_ARE_DERIVATIONS
        assert verdict.isolated_elements == ()
        kinds = [fact.kind for fact in verdict.facts]
        assert kinds == ["faithful-partner", "faithful-partner"]
        assert verdict.facts[0].partner == 1 and verdict.facts[1].partner == 0
        assert verdict.facts[0].faithful == (True, True)

    def test_two_cycle_resolved_by_matrix_theorem(self):
        verdict = theorem_verdict(TWO_CYCLE, zmod(3))
        assert verdict.outcome == ALL_JORDAN_ARE_DERIVATIONS
        assert [fact.kind for fact in verdict.facts] == ["matrix-theorem"]

    def test_antichain_is_conditional(self):
        verdict = theorem_verdict(ANTICHAIN2, zmod(4))
        assert verdict.outcome == CONDITIONAL_ON_COEFFICIENT_RING
        assert verdict.isolated_elements == ("a", "b")
        assert all(fact.kind == "conditional" for fact in verdict.facts)

    def test_mixed_preorder(self):
        verdict = theorem_verdict(POINT_PLUS_CHAIN, dual_numbers(2))
        assert verdict.outcome == CONDITIONAL_ON_COEFFICIENT_RING
        assert verdict.isolated_elements == ("a",)
        assert [fact.kind for fact in verdict.facts] == [
            "conditional", "faithful-partner", "faithful-partner",
        ]

    def test_non_unital_coefficients_rejected(self):
        with pytest.raises(ValueError):
            theorem_verdict(chain(2), build_ring(2, [[[0]]]))


class TestCrossCheck:
    def test_unconditional_instances(self):
        for p in (chain(3), TWO_CYCLE, V_SHAPE):
            report = cross_check(p, zmod(2))
            assert report.consistent
            assert report.verdict.outcome == ALL_JORDAN_ARE_DERIVATIONS
            assert report.fi_comparison.equal

    def test_conditional_instances(self):
        for r in (zmod(4), dual_numbers(2)):
            report = cross_check(ANTICHAIN2, r)
            assert report.consistent
            assert report.verdict.outcome == CONDITIONAL_ON_COEFFICIENT_RING
            assert report.fi_comparison.equal == report.ring_comparison.equal

    def test_solver_limit_refusal_names_required_entries(self, monkeypatch):
        monkeypatch.setattr(analysis, "fi_ring", None)  # refused before FI(P, R) is built
        monkeypatch.setattr(solver, "_SOLVE_LIMIT", 10 ** 6)
        # FI(chain3, R) over dual numbers has rank 12: 12 * 13^2 / 2 blocks of 12^3.
        with pytest.raises(SizeBudgetError) as exc:
            cross_check(chain(3), dual_numbers(2))
        assert (exc.value.entries, exc.value.limit) == (1014 * 1728, 10 ** 6)


class TestIdentitySuite:
    def test_inner_derivation_on_matrix_ring(self):
        r = matrix_ring(zmod(3), 2)
        d = inner_derivation(r, r.matrix_unit(0, 1))
        family = [r.matrix_unit(0, 0), r.matrix_unit(1, 1)]
        report = identity_suite(r, family, d, mode="basis")
        assert report.ok
        remark = report.outcome("derivation-remark")
        assert remark.applicable and remark.passed
        assert report.outcome("incidence-block").applicable is False

    def test_jordan_generators_on_incidence_ring(self):
        fi = fi_ring(chain(3), zmod(2))
        for d in solve_jordan_derivations(fi).generators():
            report = identity_suite(
                fi, fi.class_idempotents(), d, mode="basis"
            )
            assert report.ok
            assert report.outcome("incidence-block").applicable

    def test_randomized_mode_is_deterministic(self):
        r = matrix_ring(zmod(4), 2)
        d = inner_derivation(r, r.matrix_unit(1, 0))
        family = [r.matrix_unit(0, 0), r.matrix_unit(1, 1)]
        a = identity_suite(r, family, d, mode="randomized", seed=7, trials=25)
        b = identity_suite(r, family, d, mode="randomized", seed=7, trials=25)
        assert a == b and a.ok

    @pytest.mark.parametrize("trials", [0, -1])
    def test_randomized_mode_needs_a_trial(self, trials):
        r = zmod(4)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            identity_suite(r, [r.one()], AdditiveMap.zero(r), mode="randomized", trials=trials)

    def test_non_jordan_map_rejected(self):
        r = zmod(4)
        with pytest.raises(ValueError):
            identity_suite(r, [r.one()], AdditiveMap.from_array(r, [[2]]))

    def test_single_idempotent_family_vacuous_pairs(self):
        r = dual_numbers(2)
        d = solve_jordan_derivations(r).generators()[0]
        report = identity_suite(r, [r.one()], d, mode="basis")
        assert report.ok
        assert report.outcome("orthogonal-sandwich").checks == 0
        assert report.outcome("idempotent-image-pairing").checks == 1

    @pytest.mark.parametrize("mode", ["basis", "randomized"])
    def test_rank0_ring_passes_every_identity(self, mode):
        # Chunk sizes are bytes over k^2 and samples over k^arity, both zero here.
        r = build_ring(4, np.zeros((0, 0, 0), dtype=np.int64), unit=())
        kwargs = dict(mode=mode, seed=0, trials=3)
        report = identity_suite(r, [r.one()], AdditiveMap.zero(r), **kwargs)
        assert report.ok and all(o.passed for o in report.outcomes)
        assert report == identity_suite_scalar(r, [r.one()], AdditiveMap.zero(r), **kwargs)
        assert identity_suites(r, [r.one()], [AdditiveMap.zero(r)] * 2, **kwargs) == (report, report)

    def test_bad_family_rejected(self):
        r = matrix_ring(zmod(2), 2)
        with pytest.raises(ValueError):
            identity_suite(r, [r.one(), r.matrix_unit(0, 0)], AdditiveMap.zero(r))


class TestIdentitySuiteOracle:
    """The whole-array suite against the scalar reference in tests/oracles.py."""

    @pytest.mark.parametrize("mode", ["basis", "randomized"])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_jordan_derivations_match_scalar_reference(self, case, mode):
        ring, family = ORACLE_CASES[case]()
        gens = [g.as_array() for g in solve_jordan_derivations(ring).generators()]
        rng = random.Random(case)
        for _ in range(2):
            # A random element of JDer(R): a combination of all generators.
            d = AdditiveMap.from_array(ring, sum(rng.randrange(ring.modulus) * g for g in gens))
            kwargs = dict(mode=mode, seed=7, trials=15)
            report = identity_suite(ring, family, d, **kwargs)
            assert report == identity_suite_scalar(ring, family, d, **kwargs)
            assert report.ok

    def test_forced_failures_match_scalar_reference(self, monkeypatch):
        # Let non-Jordan maps past the precondition (and the derivation gate)
        # of both routes, so that identities fail and report witnesses.
        open_gate(monkeypatch, keep_derivation_flags=False)
        failures = {"basis": 0, "randomized": 0}
        rewound = 0
        for case in sorted(ORACLE_CASES):
            ring, family = ORACLE_CASES[case]()
            rng = random.Random(case)
            for seed in range(4):
                d = sparse_map(rng, ring, 0.1)
                for mode in ("basis", "randomized"):
                    kwargs = dict(mode=mode, seed=seed, trials=9)
                    report = identity_suite(ring, family, d, **kwargs)
                    assert report == identity_suite_scalar(ring, family, d, **kwargs), (case, seed)
                    failed = [o for o in report.outcomes if not o.passed]
                    failures[mode] += len(failed)
                    if mode == "randomized" and len(failed) > 1 and failed[0].checks > 1:
                        rewound += 1
        assert failures["basis"] > 0 and failures["randomized"] > 0
        # A randomized failure in mid-batch followed by a later failing
        # identity: the later witness holds samples drawn after the rewind.
        assert rewound > 0

    def test_forced_failures_match_scalar_reference_one_tuple_per_chunk(self, monkeypatch):
        # One family tuple per chunk: witnesses found in later chunks, and the
        # randomized stream rewound inside them, must match the scalar route.
        open_gate(monkeypatch, keep_derivation_flags=False)
        monkeypatch.setattr(analysis, "_TUPLE_CHUNK_BYTES", 1)
        arity = {"orthogonal-sandwich": 1, "same-idempotent-sandwich": 1,
                 "orthogonal-corner-vanishing": 1, "idempotent-image-pairing": 0,
                 "triple-composition": 2, "derivation-remark": 1}
        late = {"basis": 0, "randomized": 0}
        rewound = 0
        for case in sorted(ORACLE_CASES):
            ring, family = ORACLE_CASES[case]()
            rng = random.Random(case)
            for seed in range(3):
                d = sparse_map(rng, ring, 0.1)
                for mode in ("basis", "randomized"):
                    kwargs = dict(mode=mode, seed=seed, trials=9)
                    report = identity_suite(ring, family, d, **kwargs)
                    assert report == identity_suite_scalar(ring, family, d, **kwargs), (case, seed)
                    failed = [o for o in report.outcomes if not o.passed]
                    for n, o in enumerate(failed):
                        if o.name not in arity:
                            continue
                        per_tuple = ring.rank ** arity[o.name] if mode == "basis" else 9
                        if o.checks > (per_tuple if arity[o.name] else 1):
                            late[mode] += 1  # failed past the first family tuple
                            if mode == "randomized" and arity[o.name] and n + 1 < len(failed):
                                rewound += 1
        assert late["basis"] > 0 and late["randomized"] > 0
        # A later identity drew its samples after a rewind inside a later chunk.
        assert rewound > 0


def open_gate(monkeypatch, keep_derivation_flags):
    """Let every map past the Jordan precondition of both routes: the suite's
    ``_first_violation`` pass and the scalar reference's ``solver.check_map``.

    With ``keep_derivation_flags`` each map is flagged a derivation or not as it
    is; without, every map counts as a derivation, as when both gates passed every map.
    """
    real = analysis._first_violation

    def first_violation(c, D, m, kind):
        P = real(c, D, m, kind)[0] if keep_derivation_flags else np.zeros(c.shape, dtype=np.int64)
        return P, None

    def check(ring, d, kind):
        if keep_derivation_flags and kind == DERIVATION:
            return check_map(ring, d, kind)
        return CheckResult(True)

    monkeypatch.setattr(analysis, "_first_violation", first_violation)
    monkeypatch.setattr(solver, "check_map", check)


def _mixed_maps(ring, rng):
    """Derivations, Jordan derivations that are not derivations and arbitrary maps
    of ring, interleaved."""
    der = [g.as_array() for g in solve_derivations(ring).generators()]
    jordan = [g.as_array() for g in solve_jordan_derivations(ring).generators()
              if not check_map(ring, g, DERIVATION).ok]

    def derivation():
        return sum(rng.randrange(ring.modulus) * g for g in der)

    maps = []
    for n in range(3):
        maps.append(derivation())
        maps.append(jordan[n % len(jordan)] + derivation())
        maps.append(sparse_map(rng, ring, 0.3).as_array())
    maps.append(sparse_map(rng, ring, 0.3).as_array())
    return [AdditiveMap.from_array(ring, d % ring.modulus) for d in maps]


# (ring, family) with Jordan derivations that are not derivations.
MIXED_CASES = {
    "R3": lambda: (r3(), [r3().one()]),
    "R9": lambda: (r9(), [r9().one()]),
    "FI(a+b,R3)": lambda: _incidence_case(ANTICHAIN2, r3()),
}


class TestIdentitySuiteStack:
    """The stacked suite against the scalar reference, map by map."""

    @pytest.mark.parametrize("mode", ["basis", "randomized"])
    @pytest.mark.parametrize("case", sorted(MIXED_CASES))
    def test_mixed_stacks_match_the_scalar_reference(self, monkeypatch, case, mode):
        ring, family = MIXED_CASES[case]()
        maps = _mixed_maps(ring, random.Random(case))
        open_gate(monkeypatch, keep_derivation_flags=True)
        kwargs = dict(mode=mode, seed=3, trials=9)
        expected = tuple(identity_suite_scalar(ring, family, d, **kwargs) for d in maps)
        # The default bound, one map, family tuple and sample per chunk, and a
        # bound that splits the trials of groups of several maps.
        for bound in (analysis._TUPLE_CHUNK_BYTES, 1, 4096):
            monkeypatch.setattr(analysis, "_TUPLE_CHUNK_BYTES", bound)
            reports = identity_suites(ring, family, maps, **kwargs)
            assert reports == expected, bound
        remarks = [r.outcome("derivation-remark").applicable for r in reports if r.ok]
        # Passing derivations and passing non-derivations, whose streams part at
        # the derivation remark, and maps failing twice, whose second witness
        # is drawn from their own stream after the first failure.
        assert True in remarks and False in remarks
        assert any(sum(not o.passed for o in r.outcomes) > 1 for r in reports)

    @pytest.mark.parametrize("case", sorted(MIXED_CASES))
    def test_cli_run_matches_the_gated_suite(self, case):
        # The CLI takes the derivation flags from the solver's residuals instead
        # of the suite's gate; each ring has generators on both sides of it.
        ring, family = MIXED_CASES[case]()
        preorder = ANTICHAIN2 if case.startswith("FI") else None
        base = ring.base if preorder else ring
        generators = solve_jordan_derivations(ring).generators()
        flags = {check_map(ring, d, DERIVATION).ok for d in generators}
        assert flags == {True, False}
        for mode in ("basis", "randomized"):
            reports = identity_suites(ring, family, generators, mode=mode, seed=2, trials=9)
            task = {"seed": 2, "trials": 9, "mode": mode}
            result = cli.run("identities", cli.Instance(preorder, base, task))["result"]
            assert [g["ok"] for g in result["generators"]] == [r.ok for r in reports]
            assert [[(o["name"], o["applicable"], o["passed"], o["checks"]) for o in g["identities"]]
                    for g in result["generators"]] == [
                [(o.name, o.applicable, o.passed, o.checks) for o in r.outcomes] for r in reports]

    def test_empty_stack(self):
        ring, family = _matrix_case(2)
        assert identity_suites(ring, family, [], mode="randomized") == ()

    def test_a_map_of_another_ring_is_rejected(self):
        ring, family = _matrix_case(2)
        other = zmod(2)
        with pytest.raises(ValueError, match="different ring"):
            identity_suites(ring, family, [AdditiveMap.zero(ring), AdditiveMap.zero(other)])

    def test_ring_membership_is_checked_for_the_whole_stack_first(self):
        # A map of another ring is reported even after a map that is not a Jordan
        # derivation; the per-map gate reported the first invalid map instead.
        r = zmod(4)
        maps = [AdditiveMap.from_array(r, [[2]]), AdditiveMap.zero(zmod(2))]
        with pytest.raises(ValueError, match="^map belongs to a different ring$"):
            identity_suites(r, [r.one()], maps)
        message = r"^map is not a Jordan derivation \(violates square at \(0,\)\)$"
        with pytest.raises(ValueError, match=message):
            identity_suites(r, [r.one()], maps[:1])

    @pytest.mark.parametrize("case", sorted(MIXED_CASES))
    def test_the_first_non_jordan_map_is_reported(self, case):
        ring, family = MIXED_CASES[case]()
        maps = _mixed_maps(ring, random.Random(case))
        verdicts = [check_map(ring, d, JORDAN) for d in maps]
        first = next(v for v in verdicts if not v.ok)
        with pytest.raises(ValueError) as err:
            identity_suites(ring, family, maps)
        assert str(err.value) == (f"map is not a Jordan derivation (violates {first.identity} "
                                  f"at {first.indices})")


EINSUM_MOD = zmodlin.einsum_mod
BENCH_INSTANCE = Path(__file__).resolve().parents[1] / "bench/instances/identities-isolated.ini"


def count_einsum_calls(monkeypatch, call):
    """How many einsum_mod calls ``call()`` makes, through every jder module."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return EINSUM_MOD(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("jder") and hasattr(module, "einsum_mod"):
            monkeypatch.setattr(module, "einsum_mod", counted)
    call()
    return calls


class TestIdentitySuiteCost:
    """Structural guards: contraction counts, not timings."""

    def test_einsum_calls_do_not_grow_with_the_family(self, monkeypatch):
        ring = matrix_ring(zmod(2), 4)
        units = [ring.matrix_unit(i, i) for i in range(4)]
        d = inner_derivation(ring, ring.matrix_unit(0, 1))
        counts = [count_einsum_calls(monkeypatch, lambda: identity_suite(ring, family, d))
                  for family in ([units[0] + units[1], units[2] + units[3]], units)]
        assert counts[0] == counts[1]

    def test_einsum_calls_on_the_benchmark_instance(self, monkeypatch):
        fi = fi_ring(POINT_PLUS_CHAIN, Z4_DUAL)
        d = solve_jordan_derivations(fi).generators()[0]
        calls = count_einsum_calls(
            monkeypatch, lambda: identity_suite(fi, fi.class_idempotents(), d))
        assert calls <= 200

    def test_einsum_calls_of_the_cli_run_on_the_benchmark_instance(self, monkeypatch, tmp_path):
        args = ["identities", "--input", str(BENCH_INSTANCE), "--out", str(tmp_path / "out.json")]
        calls = count_einsum_calls(monkeypatch, lambda: cli.main(args))
        # 562 with one suite call per generator, and 123 while the solver's self-check
        # and the suite's derivation gate each computed every generator's residual.
        assert calls == 78

    def test_einsum_calls_do_not_grow_with_the_stack(self, monkeypatch):
        # One residual pass gates the whole stack: 3 contractions for P (every
        # generator here is a derivation, so no T) and 65 for the suite.  The
        # per-map check_map gate added 3 for each map.
        fi = fi_ring(POINT_PLUS_CHAIN, Z4_DUAL)
        family, gens = fi.class_idempotents(), solve_jordan_derivations(fi).generators()
        counts = [count_einsum_calls(monkeypatch, lambda: identity_suites(fi, family, maps))
                  for maps in (gens[:1], gens, 3 * gens)]
        assert counts == [68, 68, 68]

    def test_basis_mode_chunks_maps_by_the_largest_identity(self, monkeypatch):
        # FI(chain5, Z/4): rank 15, 14 Jordan generators.  Sized by k^3 samples of
        # k x k entries per map, not herstein's k^2 samples, they took 3 chunks.
        fi = fi_ring(chain(5), zmod(4))
        gens = solve_jordan_derivations(fi).generators()
        chunks = []
        real = analysis._suite_stack
        monkeypatch.setattr(analysis, "_suite_stack",
                            lambda *args: chunks.append(len(args[2])) or real(*args))
        identity_suites(fi, fi.class_idempotents(), gens)
        assert chunks == [14]

    def test_randomized_peak_memory_does_not_grow_with_trials(self, monkeypatch):
        monkeypatch.setattr(analysis, "_TUPLE_CHUNK_BYTES", 1 << 16)
        ring, family = _matrix_case(2)
        d = inner_derivation(ring, ring.matrix_unit(0, 1))
        peaks = []
        for trials in (500, 4000):
            tracemalloc.start()
            try:
                identity_suite(ring, family, d, mode="randomized", trials=trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Unsplit, the herstein samples alone grow by 3,500 x 3 x 4 coefficients.
        assert peaks[1] < 1.2 * peaks[0]


_M2 = matrix_ring(zmod(2), 2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: restrict_corner(AdditiveMap.zero(_M2), zmod(2).one()), ValueError,
     "idempotent does not belong to the map's ring"),
    (lambda: restrict_to_class(fi_ring(POINT_PLUS_CHAIN, zmod(2)), AdditiveMap.zero(zmod(2)), 0),
     ValueError, "map does not live on the incidence ring"),
    (lambda: construct_dprime(_M2, [_M2.one()], AdditiveMap.zero(zmod(2))), ValueError,
     "map belongs to a different ring"),
    (lambda: extend_isolated(fi_ring(POINT_PLUS_CHAIN, zmod(2)), 5, AdditiveMap.zero(zmod(2))),
     ValueError, "no class with index 5"),
    (lambda: identity_suite(_M2, [_M2.one()], AdditiveMap.zero(_M2)).outcome("nope"), KeyError,
     "'nope'"),
    (lambda: identity_suite(_M2, [_M2.one()], AdditiveMap.zero(_M2), mode="psychic"), ValueError,
     "unknown mode 'psychic'"),
], ids=["restrict-corner", "restrict-to-class", "construct-dprime", "extend-isolated", "outcome",
        "mode"])
def test_input_checks(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
