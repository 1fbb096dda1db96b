"""Independent brute-force oracles used by the test suite.

Everything here works by exhaustive or randomized enumeration straight from
the defining data (rows of a matrix, structure constants of a ring) and never
calls the library's elimination or solver code, so agreement between the two
routes is meaningful.  The identity-suite reference at the end is the scalar
route the whole-array suite replaced: it evaluates every identity one
RingElement product at a time and shares only the suite's input gates.
"""

from __future__ import annotations

import itertools
import random

import numpy as np


def all_vectors(m: int, n: int):
    """All of (Z/m)^n as tuples."""
    return itertools.product(range(m), repeat=n)


def span_set(m: int, rows) -> set[tuple[int, ...]]:
    """The subgroup generated by the rows, by additive closure."""
    rows = [tuple(int(x) % m for x in r) for r in rows]
    if not rows:
        return {()}
    n = len(rows[0])
    span = {tuple([0] * n)}
    for r in rows:
        span = {
            tuple((x + c * e) % m for x, e in zip(v, r))
            for v in span
            for c in range(m)
        }
    return span

def kernel_set(m: int, matrix) -> set[tuple[int, ...]]:
    """All v with matrix @ v = 0 (mod m), by exhaustive scan."""
    a = np.array(matrix, dtype=np.int64).reshape(len(matrix), -1)
    ncols = a.shape[1]
    out = set()
    for v in all_vectors(m, ncols):
        if not ((a @ np.array(v, dtype=np.int64)) % m).any():
            out.add(v)
    return out


# ---------------------------------------------------------------------------
# Inputs shared by several test modules.
# ---------------------------------------------------------------------------

def r3():
    """R3: a unit adjoined to b1 * b1 = 2 * b1 (other products zero) over Z/4.

    Rank 3 with |Der| = 64 < |JDer| = 256, so it is a unital coefficient
    ring on which Der = JDer fails.
    """
    from jder.rings import build_ring

    c = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        c[0, i, i] = c[i, 0, i] = 1
    c[2, 2] = (0, 0, 2)
    return build_ring(4, c, unit=(1, 0, 0))


def r9(unital: bool = True):
    """R9 = F_2<x, y> / (x^2, y^2, all words of length >= 5) over Z/2.

    Basis 1, x, y, xy, yx, xyx, yxy, xyxy, yxyx: the words alternating in x
    and y of length <= 4, multiplied by concatenation (zero when the result
    repeats a letter or is too long).  Unital of rank 9 with |Der| = 1024 <
    |JDer| = 4096, and the Jordan rows without their triple-pol block cut
    out 8192 maps, so the triple-pol rows decide something here.  With
    ``unital=False`` the empty word is left out: the non-unital rank-8 form,
    with the same three cardinalities.
    """
    from jder.rings import build_ring

    words = ["", "x", "y", "xy", "yx", "xyx", "yxy", "xyxy", "yxyx"][0 if unital else 1:]
    k = len(words)
    c = np.zeros((k, k, k), dtype=np.int64)
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if u + v in words:
                c[i, j, words.index(u + v)] = 1
    return build_ring(2, c, unit=(1,) + (0,) * 8 if unital else None)


def preorders_up_to_isomorphism(n: int) -> list:
    """One preorder per isomorphism class on n points (OEIS A001930: 1, 3, 9 for n = 1, 2, 3).

    Every relation on n points that contains the diagonal is tested for
    transitivity pair by pair; the representative of a class is its first
    relation whose relabelling-minimal pair list has not been seen.
    """
    from jder.preorders import Preorder

    labels = "abcdefgh"[:n]
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen, out = set(), []
    for bits in itertools.product((False, True), repeat=len(off_diagonal)):
        rel = {(i, i) for i in range(n)} | {pq for pq, bit in zip(off_diagonal, bits) if bit}
        if any((i, l) not in rel for i, j in rel for k, l in rel if j == k):
            continue
        key = min(tuple(sorted((perm[i], perm[j]) for i, j in rel))
                  for perm in itertools.permutations(range(n)))
        if key not in seen:
            seen.add(key)
            out.append(Preorder.from_pairs(
                labels, [(labels[i], labels[j]) for i, j in sorted(rel)], auto_close=False))
    return out


# ---------------------------------------------------------------------------
# Ring-level helpers: evaluate products and the derivation / Jordan axioms
# directly from structure constants.
# ---------------------------------------------------------------------------

def mul(c: np.ndarray, m: int, x, y) -> np.ndarray:
    """Product of coefficient vectors under structure constants c[i][j][t]."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    return np.einsum("i,j,ijt->t", x % m, y % m, c) % m


def is_derivation_map(c: np.ndarray, m: int, d: np.ndarray, elements) -> bool:
    """d(rs) = d(r)s + rd(s) for all element pairs from the given sample."""
    for r in elements:
        for s in elements:
            lhs = (d @ mul(c, m, r, s)) % m
            rhs = (mul(c, m, d @ np.asarray(r) % m, s) + mul(c, m, r, d @ np.asarray(s) % m)) % m
            if (lhs != rhs).any():
                return False
    return True


def is_jordan_map(c: np.ndarray, m: int, d: np.ndarray, elements) -> bool:
    """d(r^2) = d(r)r + rd(r) and d(rsr) = d(r)sr + rd(s)r + rsd(r) on a sample."""
    for r in elements:
        ra = np.asarray(r, dtype=np.int64)
        dr = (d @ ra) % m
        r2 = mul(c, m, r, r)
        if (((d @ r2) % m) != ((mul(c, m, dr, r) + mul(c, m, r, dr)) % m)).any():
            return False
    for r in elements:
        ra = np.asarray(r, dtype=np.int64)
        dr = (d @ ra) % m
        for s in elements:
            sa = np.asarray(s, dtype=np.int64)
            ds = (d @ sa) % m
            rs = mul(c, m, r, s)
            sr = mul(c, m, s, r)
            rsr = mul(c, m, rs, r)
            lhs = (d @ rsr) % m
            rhs = (mul(c, m, dr, sr) + mul(c, m, r, mul(c, m, ds, r)) + mul(c, m, rs, dr)) % m
            if (lhs != rhs).any():
                return False
    return True


def brute_force_maps(c: np.ndarray, m: int, kind: str) -> list[np.ndarray]:
    """Every k x k matrix over Z/m that satisfies the axioms on all elements.

    Exhaustive on both the map space (m^(k^2) candidates) and the element
    space (m^k elements), evaluated with numpy batching and progressive
    masking: for one element r at a time, each rule is checked against
    every element s at once, on the surviving maps in chunks.  Only
    feasible at desk scale; callers guard sizes.
    """
    k = c.shape[0]
    n_maps = m ** (k * k)
    if n_maps > 1 << 20:
        raise ValueError(f"map space too large to enumerate: {n_maps}")
    digits = np.array(list(itertools.product(range(m), repeat=k * k)), dtype=np.int64)
    maps = digits.reshape(n_maps, k, k)
    elements = np.array(list(all_vectors(m, k)), dtype=np.int64)
    products = np.einsum("ri,sj,ijt->rst", elements, elements, c) % m
    chunk = max(1, (1 << 18) // (len(elements) * k))
    alive = np.ones(n_maps, dtype=bool)

    def lmul(x):  # [..., j, t]: coefficient t of x b_j, so x y = y @ lmul(x)
        return (x @ c.reshape(k, k * k)).reshape(x.shape[:-1] + (k, k)) % m

    def rmul(y):  # [..., i, t]: coefficient t of b_i y, so x y = x @ rmul(y)
        return (y @ c.transpose(1, 0, 2).reshape(k, k * k)).reshape(y.shape[:-1] + (k, k)) % m

    def derivation_fails(sub, ri):  # d(rs) != d(r)s + rd(s) for some s
        r, dt = elements[ri], sub.transpose(0, 2, 1)  # x @ dt is d(x)
        ds = elements @ dt % m
        return ((products[ri] @ dt - elements @ lmul(sub @ r % m) - ds @ lmul(r)) % m).any(axis=(1, 2))

    def jordan_fails(sub, ri):  # d(r^2) != d(r)r + rd(r), or d(rsr) != d(r)sr + rd(s)r + rsd(r) for some s
        r, dt = elements[ri], sub.transpose(0, 2, 1)
        dr, ds = sub @ r % m, elements @ dt % m
        rs, sr = products[ri], products[:, ri]
        square = (sub @ products[ri, ri] - dr @ rmul(r) - dr @ lmul(r)) % m
        triple = ((rs @ rmul(r) % m) @ dt - sr @ lmul(dr) - (ds @ rmul(r) % m) @ lmul(r)
                  - rs @ rmul(dr)) % m
        return square.any(axis=1) | triple.any(axis=(1, 2))

    if kind not in ("derivation", "jordan"):
        raise ValueError(f"unknown kind {kind!r}")
    fails = derivation_fails if kind == "derivation" else jordan_fails
    # The basis elements b_i (at index m^(k-1-i)) go first, as they prune
    # the most maps; every element r is still checked.
    basis = [m ** (k - 1 - i) for i in range(k)]
    for ri in basis + [ri for ri in range(len(elements)) if ri not in basis]:
        idx = np.nonzero(alive)[0]
        for start in range(0, idx.size, chunk):
            part = idx[start:start + chunk]
            alive[part[fails(maps[part], ri)]] = False
    return [maps[i] for i in np.nonzero(alive)[0]]


# ---------------------------------------------------------------------------
# Element-at-a-time references for the whole-array library routines.
# ---------------------------------------------------------------------------

def check_map_scalar(ring, d, kind):
    """``jder.solver.check_map`` one basis tuple at a time.

    Same contract and result, including the identity name and indices of
    the first violation in the same order.  Its unreduced nested products
    reach 8 k^2 (m - 1)^3; past the int64 range it computes with Python ints.
    """
    from jder.solver import DERIVATION, CheckResult, _validate_kind

    _validate_kind(kind)
    if not d.ring.same_presentation(ring):
        raise ValueError("map belongs to a different ring")
    k = ring.rank
    m = ring.modulus
    c = ring.constants
    D = d.as_array()
    if 8 * k * k * (m - 1) ** 3 >= 2 ** 63:
        c, D = c.astype(object), D.astype(object)
    # L[i] @ y = b_i y and R[j] @ x = x b_j; lmat(x) @ y = x y = rmat(y) @ x.
    L = np.transpose(c, (0, 2, 1))
    R = np.transpose(c, (1, 2, 0))

    def lmat(x):
        return np.einsum("i,ist->ts", x, c) % m

    def rmat(y):
        return np.einsum("j,sjt->ts", y, c) % m

    if kind == DERIVATION:
        for i in range(k):
            for j in range(k):
                lhs = D @ c[i, j]
                rhs = R[j] @ D[:, i] + L[i] @ D[:, j]
                if ((lhs - rhs) % m).any():
                    return CheckResult(False, "product", (i, j))
        return CheckResult(True)

    for i in range(k):
        lhs = D @ c[i, i]
        rhs = R[i] @ D[:, i] + L[i] @ D[:, i]
        if ((lhs - rhs) % m).any():
            return CheckResult(False, "square", (i,))
    for i in range(k):
        for j in range(i + 1, k):
            lhs = D @ (c[i, j] + c[j, i])
            rhs = R[j] @ D[:, i] + L[i] @ D[:, j] + R[i] @ D[:, j] + L[j] @ D[:, i]
            if ((lhs - rhs) % m).any():
                return CheckResult(False, "square-pol", (i, j))
    for i in range(k):
        for j in range(k):
            lhs = D @ (R[i] @ c[i, j])
            rhs = rmat(c[j, i]) @ D[:, i] + L[i] @ R[i] @ D[:, j] + lmat(c[i, j]) @ D[:, i]
            if ((lhs - rhs) % m).any():
                return CheckResult(False, "triple", (i, j))
    for i in range(k):
        for l in range(i + 1, k):
            for j in range(k):
                lhs = D @ (R[l] @ c[i, j] + R[i] @ c[l, j])
                rhs = (
                    rmat(c[j, l]) @ D[:, i]
                    + L[i] @ R[l] @ D[:, j]
                    + lmat(c[i, j]) @ D[:, l]
                    + rmat(c[j, i]) @ D[:, l]
                    + L[l] @ R[i] @ D[:, j]
                    + lmat(c[l, j]) @ D[:, i]
                )
                if ((lhs - rhs) % m).any():
                    return CheckResult(False, "triple-pol", (i, l, j))
    return CheckResult(True)


def construct_dprime_scalar(ring, family, d):
    """``jder.analysis.construct_dprime`` one RingElement product at a time.

    Inputs are taken as valid: a complete family of orthogonal idempotents.
    """
    from jder.solver import AdditiveMap

    images_of_family = [d(e) for e in family]
    cols = []
    for j in range(ring.rank):
        b = ring.basis_element(j)
        acc = ring.zero()
        for e, de in zip(family, images_of_family):
            eb = e * b
            for f, df in zip(family, images_of_family):
                acc = acc + e * d(eb * f) * f - e * de * b * f - eb * df * f
        cols.append(acc.coeffs)
    return AdditiveMap.from_array(ring, np.array(cols, dtype=np.int64).T)


def identity_suite_scalar(ring, family, d, mode="basis", seed=0, trials=200):
    """Evaluate the identity suite one RingElement at a time.

    Same contract and report as ``jder.analysis.identity_suite``, including
    witnesses and the randomized sample stream.  The Jordan precondition and
    the derivation gate are ``jder.solver.check_map``, looked up at call time,
    so a test can bypass them as it bypasses the suite's ``_first_violation``.
    """
    from jder import analysis, solver
    from jder.incidence import IncidenceRing, _validate_family
    from jder.solver import DERIVATION, JORDAN

    if mode not in ("basis", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    if not d.ring.same_presentation(ring):
        raise ValueError("map belongs to a different ring")
    verdict = solver.check_map(ring, d, JORDAN)
    if not verdict.ok:
        raise ValueError(
            f"map is not a Jordan derivation (violates {verdict.identity} "
            f"at {verdict.indices})"
        )
    family = _validate_family(ring, family)

    if mode == "basis":
        def samples(arity):
            pool = ring.basis()
            if arity == 1:
                return ((r,) for r in pool)
            if arity == 2:
                return ((r, s) for r in pool for s in pool)
            return ((r, s, t) for r in pool for s in pool for t in pool)
    else:
        rng = random.Random(seed)

        def samples(arity):
            for _ in range(trials):
                yield tuple(
                    ring.element([rng.randrange(ring.modulus) for _ in range(ring.rank)])
                    for _ in range(arity)
                )

    outcomes = []

    def run(name, applicable, cases):
        if not applicable:
            outcomes.append(analysis.IdentityOutcome(name, False, True, 0))
            return
        checks = 0
        for lhs, rhs, witness in cases():
            checks += 1
            if lhs != rhs:
                outcomes.append(analysis.IdentityOutcome(name, True, False, checks, witness))
                return
        outcomes.append(analysis.IdentityOutcome(name, True, True, checks))

    d_of = {e: d(e) for e in family}
    pairs = [(e, f) for e in family for f in family if e != f]

    def polarized_product():
        for (r, s) in samples(2):
            dr, ds = d(r), d(s)
            yield (d(r * s + s * r), dr * s + r * ds + ds * r + s * dr,
                   (r.coeffs, s.coeffs))

    run("polarized-product", True, polarized_product)

    def herstein():
        for (r, s, t) in samples(3):
            dr, ds, dt = d(r), d(s), d(t)
            lhs = d(r * s * t + t * s * r)
            rhs = (dr * s * t + r * ds * t + r * s * dt
                   + dt * s * r + t * ds * r + t * s * dr)
            yield lhs, rhs, (r.coeffs, s.coeffs, t.coeffs)

    run("herstein", True, herstein)

    def orthogonal_sandwich():
        for e, f in pairs:
            de, df = d_of[e], d_of[f]
            for (r,) in samples(1):
                lhs = e * d(r) * f
                rhs = (e * d(e * r * f) * f - e * de * r * f
                       - e * r * df * f + e * d(f * r * e) * f)
                yield lhs, rhs, (e.coeffs, f.coeffs, r.coeffs)

    run("orthogonal-sandwich", True, orthogonal_sandwich)

    def same_idempotent_sandwich():
        for e in family:
            de = d_of[e]
            for (r,) in samples(1):
                lhs = e * d(r) * e
                rhs = e * d(e * r * e) * e - e * de * r * e - e * r * de * e
                yield lhs, rhs, (e.coeffs, r.coeffs)

    run("same-idempotent-sandwich", True, same_idempotent_sandwich)

    def orthogonal_corner_vanishing():
        zero = ring.zero()
        for e, f in pairs:
            for (r,) in samples(1):
                yield e * d(f * r * f) * e, zero, (e.coeffs, f.coeffs, r.coeffs)

    run("orthogonal-corner-vanishing", True, orthogonal_corner_vanishing)

    def idempotent_image_pairing():
        zero = ring.zero()
        for e in family:
            for f in family:
                yield (e * d_of[e] * f + e * d_of[f] * f, zero,
                       (e.coeffs, f.coeffs))

    run("idempotent-image-pairing", True, idempotent_image_pairing)

    def triple_composition():
        for e in family:
            for g in family:
                for f in family:
                    if e == g == f:
                        continue
                    for (r, s) in samples(2):
                        erg = e * r * g
                        gsf = g * s * f
                        lhs = e * d(erg * gsf) * f
                        rhs = e * d(erg) * gsf + erg * d(gsf) * f
                        yield lhs, rhs, (e.coeffs, g.coeffs, f.coeffs,
                                         r.coeffs, s.coeffs)

    run("triple-composition", True, triple_composition)

    def derivation_remark():
        zero = ring.zero()
        for e, f in pairs:
            for (r,) in samples(1):
                yield e * d(f * r * e) * f, zero, (e.coeffs, f.coeffs, r.coeffs)

    run("derivation-remark", solver.check_map(ring, d, DERIVATION).ok, derivation_remark)

    def incidence_block():
        quotient = ring.quotient
        exs = ring.class_idempotents()
        d_of_ex = [d(e) for e in exs]
        for (alpha,) in samples(1):
            d_alpha = d(alpha)
            for x in range(quotient.size):
                for y in range(quotient.size):
                    if not quotient.leq(x, y):
                        continue
                    axy = ring.block_element(x, y, ring.extract_block(alpha, x, y))
                    lhs = d_alpha
                    rhs = d(axy) - d_of_ex[x] * alpha - alpha * d_of_ex[y]
                    yield (ring.extract_block(lhs, x, y), ring.extract_block(rhs, x, y),
                           (alpha.coeffs, x, y))

    run("incidence-block", isinstance(ring, IncidenceRing), incidence_block)

    ok = all(entry.passed for entry in outcomes)
    return analysis.IdentitySuiteReport(ok, tuple(outcomes))


# ---------------------------------------------------------------------------
# Reference for the ``search`` enumeration.
# ---------------------------------------------------------------------------

# Associativity of a rank-2 table f (f[4i + 2j + t] = coefficient t of
# b_i b_j) at (i, j, l, t): sum_s c[i,j,s] c[s,l,t] = sum_s c[j,l,s] c[i,s,t].
_ASSOC_TERMS = tuple(
    (4 * i + 2 * j, 2 * l + t, 4 * i + 2 * j + 1, 4 + 2 * l + t,
     4 * j + 2 * l, 4 * i + t, 4 * j + 2 * l + 1, 4 * i + 2 + t)
    for i, j, l, t in itertools.product(range(2), repeat=4)
)


def search_tables_reference(m: int):
    """(modulus, rank, flat constants) of every rank <= 2 table ``search`` visits.

    The m rank-1 tables, then every associative rank-2 table in the order
    of ``itertools.product``, filtered one table and one index tuple at a
    time.
    """
    for v in range(m):
        yield (m, 1, (v,))
    for f in itertools.product(range(m), repeat=8):
        if all((f[a] * f[b] + f[c] * f[d] - f[e] * f[g] - f[h] * f[i]) % m == 0
               for a, b, c, d, e, g, h, i in _ASSOC_TERMS):
            yield (m, 2, f)


def search_chunk_reference(m: int, start: int, chunk: int):
    """The associative rank-2 tables among table numbers [start, start + chunk),
    as ``search`` once found them: decode every number of the chunk into its 8
    base-m digits, then filter the whole chunk with ``cli._associative``."""
    from jder.cli import _associative

    digits = np.indices((m,) * 4, dtype=np.int16).reshape(4, -1)
    high, low = divmod(np.arange(start, min(start + chunk, m ** 8)), m ** 4)
    c = np.concatenate((digits[:, high], digits[:, low])).reshape(2, 2, 2, -1)
    return np.moveaxis(_associative(c, m), -1, 0).astype(np.int64)

