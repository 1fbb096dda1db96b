"""Structural analysis of Jordan derivations.

Everything here sits on top of the solver: corner restrictions d_e and
d_x, the blockwise reconstruction d', the extension of a map along an
isolated point, exact bimodule faithfulness, the structural verdict for
incidence rings, and an executable suite of the orthogonal-idempotent
identities that drive the whole reduction.
"""

import random
from dataclasses import dataclass

import numpy as np

from .incidence import IncidenceRing, _validate_family, fi_ring
from .preorders import Preorder
from .rings import Bimodule, RingElement, StructureRing, corner_of, matrix_bimodule
from .solver import (
    DERIVATION,
    JORDAN,
    AdditiveMap,
    SpaceComparison,
    check_map,
    compare_spaces,
)
from .zmodlin import ZmMatrix, einsum_mod, kernel

__all__ = [
    "ALL_JORDAN_ARE_DERIVATIONS",
    "CONDITIONAL_ON_COEFFICIENT_RING",
    "UNKNOWN",
    "ClassFact",
    "CrossCheckReport",
    "FaithfulnessReport",
    "IdentityOutcome",
    "IdentitySuiteReport",
    "SizeBudgetError",
    "StructuralVerdict",
    "bimodule_faithful",
    "construct_dprime",
    "cross_check",
    "extend_isolated",
    "identity_suite",
    "restrict_corner",
    "restrict_to_class",
    "theorem_verdict",
]

ALL_JORDAN_ARE_DERIVATIONS = "AllJordanAreDerivations"
CONDITIONAL_ON_COEFFICIENT_RING = "ConditionalOnCoefficientRing"
UNKNOWN = "Unknown"


class SizeBudgetError(ValueError):
    """An instance needs more unknowns than the caller allowed."""

    def __init__(self, required_rank: int, budget: int):
        self.required_rank = required_rank
        self.budget = budget
        super().__init__(
            f"instance needs rank {required_rank}, exceeding the budget of {budget}"
        )


# -- corner restrictions -------------------------------------------------------

def restrict_corner(d: AdditiveMap, e: RingElement) -> AdditiveMap:
    """d_e(r) = e d(r) e as a map of the corner ring eRe."""
    ring = d.ring
    if not e.ring.same_presentation(ring):
        raise ValueError("idempotent does not belong to the map's ring")
    corner = corner_of(ring, e)
    images = [corner.project(e * d(corner.embed(g)) * e) for g in corner.ring.basis()]
    return AdditiveMap.from_images(corner.ring, images)


def restrict_to_class(fi: IncidenceRing, d: AdditiveMap, ci: int) -> AdditiveMap:
    """d_x on the class matrix ring, read directly off the (x, x) block.

    This is restrict_corner along e_x transported through the isomorphism
    e_x FI e_x = M_{|x|}(R), but computed independently as the (x, x) block
    of the map's matrix rather than through the corner presentation.
    """
    if not d.ring.same_presentation(fi.ring):
        raise ValueError("map does not live on the incidence ring")
    if not 0 <= ci < fi.quotient.size:
        raise ValueError(f"no class with index {ci}")
    block = fi.block_indices(ci, ci)
    return AdditiveMap.from_array(fi.class_matrix_ring(ci), d.as_array()[np.ix_(block, block)])


# -- d' reconstruction ---------------------------------------------------------

def construct_dprime(ring: StructureRing, family, d: AdditiveMap) -> AdditiveMap:
    """The blockwise reconstruction e d'(r) f = e d(erf) f - e d(e) r f - e r d(f) f.

    The family must be complete (sum to the unit); then the displayed
    blocks determine d'(r) uniquely as their sum over all (e, f).
    """
    if not d.ring.same_presentation(ring):
        raise ValueError("map belongs to a different ring")
    family = _validate_family(ring, family)
    total = ring.zero()
    for e in family:
        total = total + e
    if not ring.is_unital or total != ring.one():
        raise ValueError("the idempotent family must sum to the unit")
    D, m = d.as_array(), ring.modulus
    idempotents = np.array([e.as_array() for e in family])
    e, f = idempotents[:, None, None], idempotents[None, :, None]
    b = np.eye(ring.rank, dtype=np.int64)
    mul = ring.mul
    spec = "...j,ij->...i"  # d applied to coefficient arrays of shape (..., k)
    blocks = (mul(e, einsum_mod(spec, mul(e, b, f), D, m), f)
              - mul(e, einsum_mod(spec, e, D, m), b, f)
              - mul(e, b, einsum_mod(spec, f, D, m), f))
    return AdditiveMap.from_array(ring, blocks.sum(axis=(0, 1)).T % m)


# -- isolated-point extension --------------------------------------------------

def extend_isolated(fi: IncidenceRing, ci: int, d_x: AdditiveMap) -> AdditiveMap:
    """Extend a map of R along an isolated singleton class, zero elsewhere.

    The (x, x) entry of the image is d_x of the (x, x) entry of the
    argument and every other coefficient maps to zero.  Since x is
    comparable to nothing else, FI splits as e_x FI e_x times its
    complement, so the extension is a (Jordan) derivation exactly when
    d_x is one.
    """
    q = fi.quotient
    if not 0 <= ci < q.size:
        raise ValueError(f"no class with index {ci}")
    if ci not in q.isolated_classes():
        raise ValueError(f"class {q.class_label(ci)} is not isolated")
    if len(q.classes[ci]) != 1:
        raise ValueError(f"class {q.class_label(ci)} is not a singleton")
    if not d_x.ring.same_presentation(fi.coefficients):
        raise ValueError("the map must act on the coefficient ring")
    block = fi.block_indices(ci, ci)
    mat = np.zeros((fi.rank, fi.rank), dtype=np.int64)
    mat[np.ix_(block, block)] = d_x.as_array()
    return AdditiveMap.from_array(fi.ring, mat)


# -- bimodule faithfulness -----------------------------------------------------

@dataclass(frozen=True)
class FaithfulnessReport:
    """Annihilator test for both sides of a bimodule."""

    left: bool
    right: bool
    left_annihilator: RingElement | None
    right_annihilator: RingElement | None


def _annihilator(side_ring: StructureRing, action: np.ndarray) -> RingElement | None:
    """First nonzero ring element killing the whole module, if any.

    ``action`` has shape (ring rank, module rank, module rank): entry
    [i, j, t] is the t-th coefficient of basis_i acting on module basis_j.
    """
    k = side_ring.rank
    rows = action.transpose(1, 2, 0).reshape(-1, k)
    if rows.shape[0] == 0:
        # Rank-0 module: no constraint, everything annihilates.
        rows = np.zeros((1, k), dtype=np.int64)
    gens = kernel(ZmMatrix.from_array(side_ring.modulus, rows)).as_array()
    return side_ring.element(gens[0]) if len(gens) else None


def bimodule_faithful(bim: Bimodule) -> FaithfulnessReport:
    """Exact annihilator computation on both sides of a bimodule."""
    left_witness = _annihilator(bim.left, bim.left_action)
    right_witness = _annihilator(bim.right, bim.right_action.transpose(1, 0, 2))
    return FaithfulnessReport(
        left=left_witness is None,
        right=right_witness is None,
        left_annihilator=left_witness,
        right_annihilator=right_witness,
    )


# -- structural verdict --------------------------------------------------------

@dataclass(frozen=True)
class ClassFact:
    """How one quotient class is discharged in the structural criterion."""

    class_index: int
    members: tuple
    kind: str  # "matrix-theorem" | "faithful-partner" | "conditional"
    partner: int | None = None
    faithful: tuple | None = None


@dataclass(frozen=True)
class StructuralVerdict:
    outcome: str
    isolated_elements: tuple
    facts: tuple


def theorem_verdict(preorder: Preorder, coefficients: StructureRing) -> StructuralVerdict:
    """Structural criterion for FI(P, R).

    Every Jordan derivation of FI(P, R) is a derivation when P has no
    isolated element.  Otherwise the question is equivalent to the same
    question for R itself.  Per class the justification records which
    case applied: an isolated class of size > 1 falls to the matrix-ring
    theorem; a non-isolated class is discharged through a comparable
    partner whose morphism bimodule is checked faithful on both sides;
    an isolated singleton is the conditional case.
    """
    if not coefficients.is_unital:
        raise ValueError("the coefficient ring must be unital")
    quotient = preorder.quotient()
    isolated = tuple(preorder.isolated_elements())
    facts = []
    hypotheses_hold = True
    for ci in range(quotient.size):
        members = quotient.members(ci)
        if ci in quotient.isolated_classes():
            kind = "matrix-theorem" if len(members) > 1 else "conditional"
            facts.append(ClassFact(ci, members, kind))
            continue
        cj = quotient.comparable_partner(ci)
        if quotient.leq(ci, cj):
            bim = matrix_bimodule(coefficients, len(members), len(quotient.classes[cj]))
        else:
            bim = matrix_bimodule(coefficients, len(quotient.classes[cj]), len(members))
        report = bimodule_faithful(bim)
        if not (report.left and report.right):
            hypotheses_hold = False
        facts.append(
            ClassFact(ci, members, "faithful-partner", partner=cj,
                      faithful=(report.left, report.right))
        )
    if not hypotheses_hold:
        outcome = UNKNOWN
    elif isolated:
        outcome = CONDITIONAL_ON_COEFFICIENT_RING
    else:
        outcome = ALL_JORDAN_ARE_DERIVATIONS
    return StructuralVerdict(outcome, isolated, tuple(facts))


@dataclass(frozen=True)
class CrossCheckReport:
    """Both solver runs next to the structural verdict."""

    verdict: StructuralVerdict
    fi_comparison: SpaceComparison
    ring_comparison: SpaceComparison
    fi_rank: int
    consistent: bool


def cross_check(preorder: Preorder, coefficients: StructureRing,
                budget: int = 32) -> CrossCheckReport:
    """Solve both FI(P, R) and R and test them against the verdict.

    The verdict claims nothing about R when P has no isolated elements,
    so consistency there means Equal on FI; in the conditional case it
    means the two Equal answers coincide.
    """
    fi = fi_ring(preorder, coefficients)
    if fi.rank > budget:
        raise SizeBudgetError(fi.rank, budget)
    verdict = theorem_verdict(preorder, coefficients)
    fi_cmp = compare_spaces(fi.ring)
    ring_cmp = compare_spaces(coefficients)
    if verdict.outcome == ALL_JORDAN_ARE_DERIVATIONS:
        consistent = fi_cmp.equal
    elif verdict.outcome == CONDITIONAL_ON_COEFFICIENT_RING:
        consistent = fi_cmp.equal == ring_cmp.equal
    else:
        consistent = True
    return CrossCheckReport(verdict, fi_cmp, ring_cmp, fi.rank, consistent)


# -- identity suite ------------------------------------------------------------

@dataclass(frozen=True)
class IdentityOutcome:
    name: str
    applicable: bool
    passed: bool
    checks: int
    witness: tuple | None = None


@dataclass(frozen=True)
class IdentitySuiteReport:
    ok: bool
    outcomes: tuple

    def outcome(self, name: str) -> IdentityOutcome:
        for entry in self.outcomes:
            if entry.name == name:
                return entry
        raise KeyError(name)


def identity_suite(ring: StructureRing, family, d: AdditiveMap,
                   mode: str = "basis", seed: int = 0, trials: int = 200,
                   fi: IncidenceRing | None = None) -> IdentitySuiteReport:
    """Evaluate the orthogonal-idempotent identities satisfied by Jordan derivations.

    mode "basis" quantifies free ring variables over all basis tuples;
    mode "randomized" draws ``trials`` seeded coefficient tuples instead.
    The map must be a Jordan derivation (the identities presuppose it);
    one identity holds for derivations only and is skipped otherwise, and
    the blockwise identity needs the incidence presentation ``fi``.

    Each identity is one whole-array expression per family tuple, over all
    sample tuples at once; the witness is the first failing (family tuple,
    sample tuple) in row-major order.
    """
    if mode not in ("basis", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    if not d.ring.same_presentation(ring):
        raise ValueError("map belongs to a different ring")
    verdict = check_map(ring, d, JORDAN)
    if not verdict.ok:
        raise ValueError(
            f"map is not a Jordan derivation (violates {verdict.identity} "
            f"at {verdict.indices})"
        )
    family = _validate_family(ring, family)
    if fi is not None and not fi.ring.same_presentation(ring):
        raise ValueError("incidence presentation does not match the ring")

    k, m, D = ring.rank, ring.modulus, d.as_array()
    rng = random.Random(seed) if mode == "randomized" else None
    eye = np.eye(k, dtype=np.int64)
    outcomes = []
    mul = ring.mul

    def dm(x):
        return einsum_mod("...j,ij->...i", x, D, m)

    def differ(lhs, rhs):
        return ((lhs - rhs) % m).any(axis=-1)

    def draw(arity):
        """One batch of sample tuples, as arrays that broadcast to the check shape.

        Basis mode puts the basis on one axis per variable; randomized mode
        draws ``trials`` tuples coefficient by coefficient, in tuple order.
        """
        if rng is None:
            return tuple(eye.reshape((1,) * a + (k,) + (1,) * (arity - a - 1) + (k,))
                         for a in range(arity))
        draws = [rng.randrange(m) for _ in range(trials * arity * k)]
        draws = np.array(draws, dtype=np.int64).reshape(trials, arity, k)
        return tuple(draws[:, a] for a in range(arity))

    def run(name, applicable, tuples, arity, mismatch, witness=None):
        """Check one identity, one sample batch per family tuple.

        ``mismatch(*family arrays, *sample arrays)`` is a mask whose row-major
        order is the order of the checks, sample index first when randomized.
        """
        if not applicable:
            outcomes.append(IdentityOutcome(name, False, True, 0))
            return
        checks = 0
        for tup in tuples:
            state = rng.getstate() if rng is not None else None
            xs = draw(arity)
            bad = mismatch(*(e.as_array() for e in tup), *xs)
            if bad.any():
                first = int(bad.argmax())
                index = np.unravel_index(first, bad.shape)
                if rng is not None and arity:
                    # Leave the stream where drawing tuple by tuple stops:
                    # right after the failing sample.
                    rng.setstate(state)
                    for _ in range((index[0] + 1) * arity * k):
                        rng.randrange(m)
                if witness is None:
                    found = tuple(e.coeffs for e in tup) + tuple(
                        tuple(np.broadcast_to(x, bad.shape + (k,))[index].tolist())
                        for x in xs)
                else:
                    found = witness(xs, index)
                outcomes.append(IdentityOutcome(name, True, False, checks + first + 1, found))
                return
            checks += bad.size
        outcomes.append(IdentityOutcome(name, True, True, checks))

    pairs = [(e, f) for e in family for f in family if e != f]

    def polarized_product(r, s):
        dr, ds = dm(r), dm(s)
        return differ(dm((mul(r, s) + mul(s, r)) % m),
                      mul(dr, s) + mul(r, ds) + mul(ds, r) + mul(s, dr))

    run("polarized-product", True, [()], 2, polarized_product)

    def herstein(r, s, t):
        dr, ds, dt = dm(r), dm(s), dm(t)
        return differ(dm((mul(r, s, t) + mul(t, s, r)) % m),
                      mul(dr, s, t) + mul(r, ds, t) + mul(r, s, dt)
                      + mul(dt, s, r) + mul(t, ds, r) + mul(t, s, dr))

    run("herstein", True, [()], 3, herstein)

    def orthogonal_sandwich(e, f, r):
        return differ(mul(e, dm(r), f),
                      mul(e, dm(mul(e, r, f)), f) - mul(e, dm(e), r, f)
                      - mul(e, r, dm(f), f) + mul(e, dm(mul(f, r, e)), f))

    run("orthogonal-sandwich", True, pairs, 1, orthogonal_sandwich)

    def same_idempotent_sandwich(e, r):
        return differ(mul(e, dm(r), e),
                      mul(e, dm(mul(e, r, e)), e) - mul(e, dm(e), r, e) - mul(e, r, dm(e), e))

    run("same-idempotent-sandwich", True, [(e,) for e in family], 1, same_idempotent_sandwich)

    run("orthogonal-corner-vanishing", True, pairs, 1,
        lambda e, f, r: differ(mul(e, dm(mul(f, r, f)), e), 0))

    run("idempotent-image-pairing", True, [(e, f) for e in family for f in family], 0,
        lambda e, f: differ(mul(e, dm(e), f) + mul(e, dm(f), f), 0))

    def triple_composition(e, g, f, r, s):
        erg, gsf = mul(e, r, g), mul(g, s, f)
        return differ(mul(e, dm(mul(erg, gsf)), f),
                      mul(e, dm(erg), gsf) + mul(erg, dm(gsf), f))

    triples = [(e, g, f) for e in family for g in family for f in family
               if not e == g == f]
    run("triple-composition", True, triples, 2, triple_composition)

    run("derivation-remark", check_map(ring, d, DERIVATION).ok, pairs, 1,
        lambda e, f, r: differ(mul(e, dm(mul(f, r, e)), f), 0))

    blocks = []  # (x, y, basis indices of Mor(x, y)) for comparable classes x <= y
    if fi is not None:
        quotient = fi.quotient
        blocks = [(x, y, fi.block_indices(x, y))
                  for x in range(quotient.size) for y in range(quotient.size)
                  if quotient.leq(x, y)]

    def incidence_block(alpha):
        d_alpha = dm(alpha)
        d_ex = [dm(e.as_array()) for e in fi.class_idempotents()]
        bad = np.zeros(alpha.shape[:-1] + (len(blocks),), dtype=bool)
        for n, (x, y, cols) in enumerate(blocks):
            alpha_xy = np.zeros_like(alpha)
            alpha_xy[..., cols] = alpha[..., cols]
            rhs = dm(alpha_xy) - mul(d_ex[x], alpha) - mul(alpha, d_ex[y])
            bad[..., n] = differ(d_alpha[..., cols], rhs[..., cols])
        return bad

    run("incidence-block", fi is not None, [()], 1, incidence_block,
        lambda xs, index: (tuple(xs[0][index[0]].tolist()),) + blocks[index[1]][:2])

    ok = all(entry.passed for entry in outcomes)
    return IdentitySuiteReport(ok, tuple(outcomes))
