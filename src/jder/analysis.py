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
from .rings import (Bimodule, RingElement, StructureRing, _peirce_support, corner_of,
                    matrix_bimodule)
from .solver import (
    JORDAN,
    AdditiveMap,
    SpaceComparison,
    _check_size,
    _first_violation,
    compare_all,
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
    "StructuralVerdict",
    "bimodule_faithful",
    "construct_dprime",
    "cross_check",
    "extend_isolated",
    "identity_suite",
    "identity_suites",
    "restrict_corner",
    "restrict_to_class",
    "theorem_verdict",
]

ALL_JORDAN_ARE_DERIVATIONS = "AllJordanAreDerivations"
CONDITIONAL_ON_COEFFICIENT_RING = "ConditionalOnCoefficientRing"
UNKNOWN = "Unknown"


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
    if not d.ring.same_presentation(fi):
        raise ValueError("map does not live on the incidence ring")
    if not 0 <= ci < fi.quotient.size:
        raise ValueError(f"no class with index {ci}")
    block = fi.block_indices(ci, ci)
    return AdditiveMap.from_array(fi.class_matrix_ring(ci), d.as_array()[np.ix_(block, block)])


# -- d' reconstruction ---------------------------------------------------------

def construct_dprime(ring: StructureRing, family, d: AdditiveMap) -> AdditiveMap:
    """The blockwise reconstruction e d'(r) f = e d(erf) f - e d(e) r f - e r d(f) f.

    The family must be complete (sum to the unit); then the displayed
    blocks determine d'(r) uniquely as their sum over all (e, f).  This is
    ``_dprimes`` on a stack of one map.
    """
    if not d.ring.same_presentation(ring):
        raise ValueError("map belongs to a different ring")
    return AdditiveMap(ring, _dprimes(ring, family, d.as_array()[None])[0])


def _dprimes(ring: StructureRing, family, D: np.ndarray) -> np.ndarray:
    """The (g, k, k) matrices of d' = sum_p S_p d S_p - L_A - R_B for the maps d = D[g]: S_p
    is r -> e r f for the pairs p = (e, f), L_A and R_B multiply by A = sum_e e d(e) on the
    left and B = sum_f d(f) f on the right.  As the family sums to 1, this is the sum of the
    blocks: the e d(e) r f sum to A r and the e r d(f) f to r B."""
    if not len(D):  # nothing to rebuild, as on a rank-0 ring, whose JDer has no generator
        return D
    family = _validate_family(ring, family)
    k, m, c = ring.rank, ring.modulus, ring.constants
    E = np.array([e.as_array() for e in family], dtype=np.int64)
    if not ring.is_unital or (E.sum(axis=0) % m != ring.one().as_array()).any():
        raise ValueError("the idempotent family must sum to the unit")
    # Row layout, y -> y @ op: T[p] is S_p, and D[g].T is d.
    T = ring.mul(E[:, None, None], np.eye(k, dtype=np.int64), E[None, :, None]).reshape(-1, k, k)
    dE = einsum_mod("ej,gij->gei", E, D, m)  # [g, e]: d(e)
    A, B = ring.mul(E, dE).sum(axis=1) % m, ring.mul(dE, E).sum(axis=1) % m
    out = -einsum_mod("xgi,xijt->gjt", np.stack([A, B]), np.stack([c, c.transpose(1, 0, 2)]), m)
    step = max(1, _TUPLE_CHUNK_BYTES // (8 * T.size))  # maps per chunk of (n^2, k, k) sandwiches
    for start in range(0, len(D), step):
        inner = einsum_mod("pij,glj->gpil", T, D[start:start + step], m)  # [g, p]: S_p then d
        out[start:start + step] += einsum_mod("gpil,plt->git", inner, T, m)
    return out.transpose(0, 2, 1) % m


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
    if not d_x.ring.same_presentation(fi.base):
        raise ValueError("the map must act on the coefficient ring")
    block = fi.block_indices(ci, ci)
    mat = np.zeros((fi.rank, fi.rank), dtype=np.int64)
    mat[np.ix_(block, block)] = d_x.as_array()
    return AdditiveMap.from_array(fi, mat)


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
    k, r = side_ring.rank, action.shape[1]
    rows = action.transpose(1, 2, 0).reshape(r * r, k)
    rows = rows[rows.any(axis=1)]
    if rows.shape[0] == 0:
        # A zero action, or a rank-0 module: no constraint, everything annihilates.
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
    an isolated singleton is the conditional case.  The outcome is never
    UNKNOWN for unital R: an a that kills every E_{j1} (E_{1j} on the right)
    is zero, so ``matrix_bimodule`` is faithful on both sides.  The check,
    the paper's argument, is kept.
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


def cross_check(preorder: Preorder, coefficients: StructureRing) -> CrossCheckReport:
    """Solve both FI(P, R) and R and test them against the verdict.

    The verdict claims nothing about R when P has no isolated elements,
    so consistency there means Equal on FI; in the conditional case it
    means the two Equal answers coincide.  The FI solve's size, on its Peirce
    support, is checked before FI(P, R) is built.  Each comparison is
    ``compare_all``'s, which solves Der only for a ring whose JDer has a
    generator that is not a derivation.
    """
    pairs = preorder.comparable_pairs()
    support = _peirce_support(pairs, coefficients)
    _check_size(1, len(pairs) * coefficients.rank, coefficients.modulus, JORDAN,
                None if support is None else len(support))
    fi = fi_ring(preorder, coefficients)
    verdict = theorem_verdict(preorder, coefficients)
    fi_cmp = compare_all([fi])[0]
    ring_cmp = compare_all([coefficients])[0]
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


# Bytes of (maps) x (family tuples) x (samples) x k x k int64 in one chunk of an identity,
# and of the maps' n x n family operators (or one family tuple's k^3 basis samples, or the
# d' sandwiches of ``_dprimes``) in one chunk of maps.  Every chunk holds at least one map,
# one family tuple and one sample.
_TUPLE_CHUNK_BYTES = 1 << 25


def identity_suite(ring: StructureRing, family, d: AdditiveMap,
                   mode: str = "basis", seed: int = 0, trials: int = 200) -> IdentitySuiteReport:
    """Evaluate the orthogonal-idempotent identities satisfied by Jordan derivations.

    mode "basis" quantifies free ring variables over all basis tuples;
    mode "randomized" draws ``trials`` seeded coefficient tuples instead.
    The map must be a Jordan derivation (the identities presuppose it);
    one identity holds for derivations only and is skipped otherwise, and
    the blockwise identity applies only when ``ring`` is an IncidenceRing.

    Each identity is a few contractions over a chunk of its family tuples
    at once, on a leading tuple axis, with k x k multiplication operators
    built once per call.  The witness is the first failing (family tuple,
    sample tuple) in row-major order.  This is ``identity_suites`` on a
    stack of one map.
    """
    return identity_suites(ring, family, [d], mode, seed, trials)[0]


def identity_suites(ring: StructureRing, family, maps,
                    mode: str = "basis", seed: int = 0, trials: int = 200) -> tuple:
    """``identity_suite`` for every map of a stack: one report per map, in order.

    The operators that do not depend on the map are built once per chunk of
    maps, and each identity's map-dependent contractions carry a leading map
    axis.  In randomized mode every map's sample stream starts at
    ``Random(seed)``; maps whose streams are in the same state share each
    chunk's draw.  A map leaves its group when an identity fails for it (its
    stream rewinds to just after the failing sample) or does not apply to it
    (it draws nothing), so each report is the one the map gets alone.
    Once every map is known to belong to ``ring``, one ``_first_violation`` pass
    over the stack rejects the first that is not a Jordan derivation and flags
    the derivations (P[g] = 0), which satisfy every Jordan identity.
    """
    maps = list(maps)
    for d in maps:
        if not d.ring.same_presentation(ring):
            raise ValueError("map belongs to a different ring")
    D = np.array([d.as_array() for d in maps], dtype=np.int64).reshape(len(maps), ring.rank, ring.rank)
    derivation, first = _first_violation(np.broadcast_to(ring.constants, (len(D),) + ring.constants.shape),
                                         D, ring.modulus, JORDAN)
    if first is not None:
        raise ValueError(f"map is not a Jordan derivation (violates {first[1]} at {first[2]})")
    return _identity_suites(ring, family, D, derivation, mode, seed, trials)


def _identity_suites(ring: StructureRing, family, D: np.ndarray, derivation: np.ndarray,
                     mode: str, seed: int, trials: int) -> tuple:
    """``identity_suites`` of the Jordan derivations with (k, k) matrices D[g] and
    derivation flags derivation[g], without the ``_first_violation`` gate."""
    if mode not in ("basis", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "randomized" and trials < 1:
        raise ValueError(f"trials must be at least 1 in randomized mode, got {trials}")
    if not len(D):  # nothing to check, as on a rank-0 ring, whose JDer has no generator
        return ()
    family = _validate_family(ring, family)
    # Maps per chunk: their n x n family operators, and in basis mode each identity's
    # k^(arity - 1) samples of one family tuple (k^2 for herstein), of k x k entries
    # fit the bound.
    k, n = ring.rank, len(family)
    per_map = max(n * n, k * k) if mode == "basis" else n * n
    step = max(1, _TUPLE_CHUNK_BYTES // (8 * max(1, k * k * per_map)))
    seed = seed if mode == "randomized" else None
    return tuple(report for start in range(0, len(D), step) for report in _suite_stack(
        ring, family, D[start:start + step], derivation[start:start + step], seed, trials))


def _suite_draws(ring: StructureRing, family) -> int:
    """Coefficients that one map's randomized stream draws per trial when every identity of
    ``_suite_stack`` applies and passes: k per variable of each family tuple.  That is 2 + 3
    (polarized-product, herstein), 1 per member (same-idempotent-sandwich), 1 per ordered pair
    of unequal members in each of three identities, 2 per triple of members not all equal
    (triple-composition) and 1 for incidence-block."""
    E = np.array([e.as_array() for e in family], dtype=np.int64).reshape(len(family), ring.rank)
    same = (E[:, None] == E).all(axis=-1)  # same[e, f]: family[e] == family[f]
    n, pairs = len(family), int((~same).sum())
    triples = n ** 3 - int((same.sum(axis=0) ** 2).sum())
    return ring.rank * (5 + n + 3 * pairs + 2 * triples + isinstance(ring, IncidenceRing))


def _stream(state) -> random.Random:
    """A new random stream in the given state."""
    rng = random.Random()
    rng.setstate(state)
    return rng


def _suite_stack(ring: StructureRing, family: list, D: np.ndarray, derivation: np.ndarray,
                 seed: int | None, trials: int) -> list:
    """The identity suite of each map D[g] with derivation flag derivation[g], as reports.

    ``seed`` is None in basis mode.  A mismatch of a chunk has the map axis
    in front: ``bad[a]`` is that of the map sel[a] alone.
    """
    G, k, m, c = len(D), ring.rank, ring.modulus, ring.constants
    ct = np.ascontiguousarray(c.transpose(1, 0, 2))
    basis, every = seed is None, np.arange(G)
    outcomes = [[] for _ in range(G)]
    # (sample stream, maps drawing from it); one group of every map in basis mode.
    groups = [(None if basis else random.Random(seed), every)]
    mul = ring.mul

    # Operators act on coefficient rows, y -> y @ op, with any stack axes in front.
    def dm(x, sel):  # [a, ...]: d(x) for the map sel[a]
        return einsum_mod("...j,aij->a...i", x, D[sel], m)

    def d_op(sel, ndim):  # [a]: y -> d(y) for the map sel[a], against ndim-dim operator stacks
        return D[sel].transpose(0, 2, 1).reshape((len(sel),) + (1,) * (ndim - 2) + (k, k))

    def left_op(x):  # y -> x y
        return einsum_mod("...i,ijt->...jt", x, c, m)

    def right_op(x):  # y -> y x, with ct[j, i] = c[i, j] contiguous for a faster contraction
        return einsum_mod("...j,jit->...it", x, ct, m)

    def then(a, b):  # y -> b(a(y))
        return einsum_mod("...ij,...jt->...it", a, b, m)

    def app(x, op):  # op[..., n, :, :] at the samples x[n, ..., :] of family tuple n
        op = op.reshape(op.shape[:-2] + (1,) * (x.ndim - 2) + op.shape[-2:])
        return einsum_mod("...i,...it->...t", x, op, m)

    def chunks(tuples, arity, maps):
        """(family tuples, trials) of each chunk: whole family tuples while one fits
        the bound, else the trials of one family tuple in slices."""
        samples = max(1, _TUPLE_CHUNK_BYTES // (8 * maps * max(1, k * k)))
        if not basis and arity and samples < trials:
            for t in range(len(tuples)):
                for start in range(0, trials, samples):
                    yield tuples[t:t + 1], min(samples, trials - start)
            return
        step = max(1, samples // max(1, k ** arity if basis else trials))
        for start in range(0, len(tuples), step):
            yield tuples[start:start + step], trials

    def draw(rng, count, arity, n_trials):
        """Samples for ``count`` family tuples: the basis on one axis per variable, or
        ``n_trials`` seeded tuples per family tuple, drawn coefficient by coefficient."""
        if rng is None:
            return tuple(np.eye(k, dtype=np.int64).reshape(
                (1,) * (a + 1) + (k,) + (1,) * (arity - a - 1) + (k,)) for a in range(arity))
        draws = [rng.randrange(m) for _ in range(count * n_trials * arity * k)]
        draws = np.array(draws, dtype=np.int64).reshape(count, n_trials, arity, k)
        return tuple(draws[:, :, a] for a in range(arity))

    def run(name, applicable, tuples, arity, mismatch, witness=None):
        """Check one identity on chunks of family index tuples for every map it applies
        to; ``mismatch(sel, *indices, *samples)`` masks a chunk for the maps sel[a] on
        the leading axis, then in check order, tuples first and then samples."""
        applicable = np.broadcast_to(applicable, (G,))
        tuples = np.array(tuples, dtype=np.intp)
        for g in np.flatnonzero(~applicable):
            outcomes[g].append(IdentityOutcome(name, False, True, 0))
        regrouped = []
        for rng, sel in groups:
            idle, sel = sel[~applicable[sel]], sel[applicable[sel]]
            if len(idle):  # draws nothing here, so keeps the group's current state
                regrouped.append((_stream(rng.getstate()) if rng and len(sel) else rng, idle))
            if not len(sel):
                continue
            checks = 0
            for chunk, n_trials in chunks(tuples, arity, len(sel)):
                state = rng.getstate() if rng is not None else None
                xs = draw(rng, len(chunk), arity, n_trials)
                bad = mismatch(sel, *chunk.T, *xs)
                hit = bad.reshape(len(sel), -1).any(axis=1)
                for a in np.flatnonzero(hit):
                    first = int(bad[a].argmax())
                    index = np.unravel_index(first, bad.shape[1:])
                    if rng is not None:
                        # The map's own stream stops where drawing tuple by tuple
                        # does: right after the failing sample.
                        own = _stream(state)
                        if arity:
                            for _ in range((index[0] * n_trials + index[1] + 1) * arity * k):
                                own.randrange(m)
                        regrouped.append((own, sel[a:a + 1]))
                    found = witness(xs, index) if witness else tuple(
                        family[i].coeffs for i in chunk[index[0]]) + tuple(
                        tuple(np.broadcast_to(x, bad.shape[1:] + (k,))[index].tolist())
                        for x in xs)
                    outcomes[sel[a]].append(
                        IdentityOutcome(name, True, False, checks + first + 1, found))
                checks += bad[0].size
                sel = sel[~hit]
                if not len(sel):
                    break
            for g in sel:
                outcomes[g].append(IdentityOutcome(name, True, True, checks))
            if len(sel):
                regrouped.append((rng, sel))
        groups[:] = [(None, every)] if basis else regrouped

    def product_rule(sel, x, around, rule):  # where d(around(x)) - around(d(x)) - rule(x) != 0
        d = d_op(sel, around.ndim)
        delta = (then(around, d) - then(d, around) - rule) % m
        if basis:  # x is the basis on the axis before delta's (1, k, k): rows are samples
            return delta.squeeze(-3).any(-1)
        return einsum_mod("...i,...it->...t", x, delta, m).any(-1)

    def polarized_product(sel, r, s):  # s -> r s + s r, and the rule's terms without d(s)
        dr = dm(r, sel)
        return product_rule(sel, s, (left_op(r) + right_op(r)) % m,
                            (left_op(dr) + right_op(dr)) % m)

    run("polarized-product", True, [()], 2, polarized_product)

    def herstein(sel, r, s, t):  # t -> r s t + t s r, and the rule's terms without d(t)
        dr, ds = dm(r, sel), dm(s, sel)
        around = (left_op(mul(r, s)) + right_op(mul(s, r))) % m
        return product_rule(sel, t, around, (left_op((mul(dr, s) + mul(r, ds)) % m)
                                             + right_op((mul(ds, r) + mul(s, dr)) % m)) % m)

    run("herstein", True, [()], 3, herstein)

    # Operators of the family, indexed by positions e, g, f in it, after the map
    # axis where they depend on the map.
    n, diagonal = len(family), np.arange(len(family))
    E = np.array([e.as_array() for e in family], dtype=np.int64)
    dE = dm(E, every)
    left, right = left_op(E), right_op(E)
    sandwich = then(left[:, None], right[None])  # [e, f]: r -> e r f
    d_sandwich = then(d_op(every, 4), sandwich)  # [map, e, f]: r -> e d(r) f
    ed = einsum_mod("afi,eit->aeft", dE, left, m)  # [map, e, f]: e d(f)
    # [map, e, f]: r -> e d(e r f) f and e d(f r e) f
    inner, swapped = then(np.stack([sandwich, sandwich.transpose(1, 0, 2, 3)])[:, None],
                          d_sandwich)
    # [map, e, f]: r -> e d(r) f - e d'(r) f, with e d'(r) f = e d(e r f) f - e d(e) r f - e r d(f) f
    stacked = (G, n, k, k)
    undone = (d_sandwich - inner + einsum_mod(
        "xaeij,xafjt->aefit",
        np.stack([left_op(ed[:, diagonal, diagonal]), np.broadcast_to(left, stacked)]),
        np.stack([np.broadcast_to(right, stacked),
                  right_op(einsum_mod("afi,fit->aft", dE, right, m))]), m)) % m
    pairs = [(e, f) for e in range(n) for f in range(n) if family[e] != family[f]]

    run("orthogonal-sandwich", True, pairs, 1, lambda sel, e, f, r: app(
        r, (undone[sel[:, None], e, f] - swapped[sel[:, None], e, f]) % m).any(-1))

    run("same-idempotent-sandwich", True, [(e,) for e in range(n)], 1,
        lambda sel, e, r: app(r, undone[sel[:, None], e, e]).any(-1))

    corner = then(sandwich[diagonal, diagonal][None, None],
                  d_sandwich[:, diagonal, diagonal][:, :, None])
    run("orthogonal-corner-vanishing", True, pairs, 1,  # [map, e, f]: r -> e d(f r f) e
        lambda sel, e, f, r: app(r, corner[sel[:, None], e, f]).any(-1))

    pairing = einsum_mod("aefi,fit->aeft", (ed[:, diagonal, diagonal][:, :, None] + ed) % m,
                         right, m)
    run("idempotent-image-pairing", True, [(e, f) for e in range(n) for f in range(n)], 0,
        lambda sel, e, f: pairing[sel[:, None], e, f].any(-1))  # [map, e, f]: e d(e) f + e d(f) f

    # [map, e, g]: r -> e d(e r g); [map, g, f]: s -> d(g s f) f.
    d_ends = (then(sandwich, then(d_op(every, 3), left)[:, :, None]),
              then(sandwich, then(d_op(every, 3), right)[:, None]))
    # Every term vanishes where e b_r g = 0 or g b_s f = 0, so basis mode only
    # evaluates the basis rows of each (e, g) support, padded with the zero row k.
    support, one_hot = sandwich.any(-1), np.eye(k + 1, k, dtype=np.int64)
    rows = np.sort(np.where(support, np.arange(k), k), axis=-1)[..., :max(1, support.sum(-1).max())]

    def triple_composition(sel, e, g, f, r, s):
        if basis:
            r, s = one_hot[rows[e, g]][:, :, None], one_hot[rows[g, f]][:, None]
        erg, gsf = app(r, sandwich[e, g]), app(s, sandwich[g, f])
        # e d(erg gsf) f - e d(erg) gsf - erg d(gsf) f; the last two terms apply the
        # map-free operators y -> y gsf and y -> erg y to e d(erg) and d(gsf) f.
        bad = ((app(mul(erg, gsf), d_sandwich[sel[:, None], e, f])
                - einsum_mod("...i,...it->...t", app(r, d_ends[0][sel[:, None], e, g]),
                             right_op(gsf), m)
                - einsum_mod("...i,...it->...t", app(s, d_ends[1][sel[:, None], g, f]),
                             left_op(erg), m)) % m).any(-1)
        if basis:
            full = np.zeros((len(sel), len(e), k + 1, k + 1), dtype=bool)
            full[:, np.arange(len(e))[:, None, None], rows[e, g][:, :, None],
                 rows[g, f][:, None]] = bad
            bad = full[..., :k, :k]
        return bad

    triples = [(e, g, f) for e in range(n) for g in range(n) for f in range(n)
               if not family[e] == family[g] == family[f]]
    run("triple-composition", True, triples, 2, triple_composition)

    run("derivation-remark", derivation, pairs, 1,
        lambda sel, e, f, r: app(r, swapped[sel[:, None], e, f]).any(-1))

    incidence = isinstance(ring, IncidenceRing)
    if incidence:
        # (x, y, basis indices of Mor(x, y)) for comparable classes x <= y
        blocks = [(x, y, ring.block_indices(x, y)) for x, y in
                  np.ndindex(ring.quotient.size, ring.quotient.size) if ring.quotient.leq(x, y)]
        # [map, block (x, y)]: alpha -> d(alpha) - d(alpha_xy) + d(e_x) alpha + alpha d(e_y),
        # read on the coefficients of Mor(x, y).
        d_ex = dm(np.array([e.as_array() for e in ring.class_idempotents()], dtype=np.int64), every)
        inside = np.array([np.isin(np.arange(k), cols) for _, _, cols in blocks], dtype=np.int64)
        x, y = np.array([block[:2] for block in blocks]).T
        delta = ((1 - inside)[:, :, None] * d_op(every, 3) + left_op(d_ex)[:, x]
                 + right_op(d_ex)[:, y]) % m * inside[:, None]

    run("incidence-block", incidence, [()], 1,
        lambda sel, alpha: einsum_mod("...i,abit->a...bt", alpha, delta[sel], m).any(-1),
        lambda xs, index: (tuple(xs[0][index[:2]].tolist()),) + blocks[index[2]][:2])

    return [IdentitySuiteReport(all(entry.passed for entry in entries), tuple(entries))
            for entries in outcomes]
