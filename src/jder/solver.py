"""Derivation and Jordan-derivation spaces of a structure-constant ring.

An additive endomorphism of the additive group (Z/m)^k is the same thing
as a k x k matrix over Z/m, so the set of derivations (or Jordan
derivations) of a rank-k ring is the kernel of an integer matrix acting
on the k^2 matrix entries.  This module assembles those constraint rows
and solves them exactly with the Howell machinery from ``zmodlin``.

Constraint sufficiency.  A derivation identity d(rs) = d(r)s + rd(s) is
biadditive in (r, s), so imposing it on basis pairs imposes it
everywhere.  The Jordan axioms are quadratic:

  Q1(r)    = d(r^2) - d(r)r - rd(r)
  Q2(r; s) = d(rsr) - d(r)sr - rd(s)r - rsd(r)

For additive d, Q1(r + r') = Q1(r) + Q1(r') + Q1pol(r, r') where Q1pol
is the biadditive polarization, and Q1(cr) = c^2 Q1(r).  Expanding a
general element over the basis therefore reduces Q1 = 0 to Q1 on basis
elements plus Q1pol on distinct basis pairs; the coefficient pattern
works over any Z/m, in particular when 2 is not invertible and the
polarization alone would be too weak.  The same argument applied to the
outer variable of Q2 (which is linear in s) yields Q2 on basis pairs
plus its outer polarization Q2pol on triples with distinct outer
indices.  ``check_map`` re-evaluates all of these identities directly on
ring elements, independently of the assembled rows.

Row assembly.  Every identity is linear in d, so a row's entry for the
unknown D[a, b] (column a + k*b) is the identity's residual at the map
d = E_ab, which sends x to x_b e_a.  At E_ab the term d(x_1...x_n) is the
b-th coefficient of the product times e_a, and the term
x_1...d(x_p)...x_n is the product with b_b replaced by e_a if x_p = b_b,
else 0.  Both read off the structure constants (n = 2) or the basis
triple-product tensor b_i b_j b_l (n = 3), so each kind's rows for a
whole batch of rings are built in a few whole-array steps.
"""

from dataclasses import dataclass

import numpy as np

from .rings import RingElement, StructureRing
from .zmodlin import (SelfCheckError, SubgroupBasis, ZmMatrix, einsum_mod, kernel, kernels,
                      subgroup_equal)

__all__ = [
    "DERIVATION",
    "JORDAN",
    "AdditiveMap",
    "CheckResult",
    "DerivationSpace",
    "SizeBudgetError",
    "SpaceComparison",
    "check_map",
    "compare_all",
    "compare_spaces",
    "inner_derivation",
    "solve_derivations",
    "solve_jordan_derivations",
]

DERIVATION = "derivation"
JORDAN = "jordan"
_KINDS = (DERIVATION, JORDAN)
# Most int64 entries of one raw constraint stack: the Jordan stack of one rank-32
# ring (4.25 GiB), the largest solve cross-check took under its former rank budget 32.
_SOLVE_LIMIT = 570_949_632


class SizeBudgetError(ValueError):
    """A solve would assemble a raw constraint stack over the solver limit."""

    def __init__(self, entries: int, limit: int):
        self.entries, self.limit = entries, limit
        super().__init__(f"the solve needs {entries} raw constraint entries, "
                         f"over the solver limit {limit}")


@dataclass(frozen=True, eq=False)
class AdditiveMap:
    """Additive endomorphism of a ring, column j = coefficients of d(b_j).

    ``matrix`` is held as one read-only (k, k) int64 array reduced mod m;
    ``entries`` gives it as a tuple of row tuples.
    """

    ring: StructureRing
    matrix: np.ndarray

    def __post_init__(self):
        k = self.ring.rank
        a = np.asarray(self.matrix, dtype=np.int64) % self.ring.modulus
        if a.shape != (k, k):
            raise ValueError(f"additive map on a rank-{k} ring needs a {k}x{k} matrix")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @classmethod
    def from_array(cls, ring: StructureRing, arr) -> "AdditiveMap":
        return cls(ring, np.reshape(arr, (ring.rank, ring.rank)))

    @classmethod
    def from_flat(cls, ring: StructureRing, flat) -> "AdditiveMap":
        """Decode a length-k^2 vector laid out column by column."""
        return cls(ring, np.reshape(flat, (ring.rank, ring.rank), order="F"))

    @classmethod
    def from_images(cls, ring: StructureRing, images) -> "AdditiveMap":
        cols = []
        for elem in images:
            if not elem.ring.same_presentation(ring):
                raise ValueError("image elements must belong to the ring")
            cols.append(elem.as_array())
        return cls.from_array(ring, np.array(cols, dtype=np.int64).T)

    @classmethod
    def zero(cls, ring: StructureRing) -> "AdditiveMap":
        return cls(ring, np.zeros((ring.rank, ring.rank), dtype=np.int64))

    @property
    def entries(self) -> tuple:
        return tuple(map(tuple, self.matrix.tolist()))

    def as_array(self) -> np.ndarray:
        return self.matrix

    def to_flat(self) -> tuple:
        return tuple(self.matrix.flatten(order="F").tolist())

    def __call__(self, elem: RingElement) -> RingElement:
        if not elem.ring.same_presentation(self.ring):
            raise ValueError("element belongs to a different ring")
        return self.ring.element(
            einsum_mod("ij,j->i", self.matrix, elem.as_array(), self.ring.modulus))

    def is_zero(self) -> bool:
        return not self.matrix.any()

    def __add__(self, other: "AdditiveMap") -> "AdditiveMap":
        self._same_ring(other)
        return AdditiveMap(self.ring, self.matrix + other.matrix)

    def __sub__(self, other: "AdditiveMap") -> "AdditiveMap":
        self._same_ring(other)
        return AdditiveMap(self.ring, self.matrix - other.matrix)

    def __neg__(self) -> "AdditiveMap":
        return AdditiveMap(self.ring, -self.matrix)

    def _same_ring(self, other: "AdditiveMap") -> None:
        if not isinstance(other, AdditiveMap) or not other.ring.same_presentation(self.ring):
            raise ValueError("additive maps live on different rings")

    def __eq__(self, other):
        if not isinstance(other, AdditiveMap):
            return NotImplemented
        return (self.ring.same_presentation(other.ring)
                and self.matrix.tobytes() == other.matrix.tobytes())

    def __hash__(self):
        return hash((self.ring.signature, self.matrix.tobytes()))

    def __repr__(self):
        return f"AdditiveMap(rank={self.ring.rank}, mod={self.ring.modulus}, {self.entries})"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a direct axiom check; indices locate the first violation."""

    ok: bool
    identity: str = ""
    indices: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def _validate_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")


def _product_residuals(c: np.ndarray, D: np.ndarray, m: int) -> np.ndarray:
    """P[n, i, j] = d(b_i b_j) - d(b_i) b_j - b_i d(b_j) for ring c[n] and map D[n]."""
    return (einsum_mod("nijt,nat->nija", c, D, m) - einsum_mod("nsi,nsjt->nijt", D, c, m)
            - einsum_mod("nsj,nist->nijt", D, c, m)) % m


def check_map(ring: StructureRing, d: AdditiveMap, kind: str) -> CheckResult:
    """Evaluate the basis-level constraints of ``kind`` directly on elements.

    This deliberately avoids the assembled constraint matrix: the residual
    P[i, j] = d(b_i b_j) - d(b_i) b_j - b_i d(b_j) is recomputed from the
    structure constants and D, an independent oracle for the solver's
    kernels.  P = 0 means d is a derivation, so every identity holds.
    Otherwise the residual T[i, j, l] of (b_i b_j) b_l is P(b_i b_j, b_l) +
    P(b_i, b_j) b_l by bilinearity alone (no associativity).  Returns the
    first violated identity by name with the offending basis indices.
    """
    _validate_kind(kind)
    if not d.ring.same_presentation(ring):
        raise ValueError("map belongs to a different ring")
    k, m, c = ring.rank, ring.modulus, ring.constants
    P = _product_residuals(c[None], d.as_array()[None], m)[0]
    if not P.any():
        return CheckResult(True)
    if kind == DERIVATION:
        checks = [("product", P.any(-1))]
    else:
        T = (einsum_mod("ijs,slt->ijlt", c, P, m) + einsum_mod("ijs,slt->ijlt", P, c, m)) % m
        ar = np.arange(k)
        upper = ar[:, None] < ar
        checks = [
            ("square", P[ar, ar].any(-1)),
            ("square-pol", ((P + P.transpose(1, 0, 2)) % m).any(-1) & upper),
            ("triple", T[ar[:, None], ar, ar[:, None]].any(-1)),
            # T[i, j, l] + T[l, j, i], indexed (i, l, j).
            ("triple-pol", ((T + T.transpose(2, 1, 0, 3)) % m).any(-1).transpose(0, 2, 1)
             & upper[:, :, None]),
        ]
    for name, bad in checks:
        if bad.any():
            return CheckResult(False, name, tuple(int(x) for x in np.argwhere(bad)[0]))
    return CheckResult(True)


# -- constraint assembly -------------------------------------------------------

def _rule_rows(out: np.ndarray, prod: np.ndarray, tuples) -> None:
    """Add product-rule residuals at d = E_ab into ``out``, indexed [n, q, r, b, a].

    ``prod`` stacks one basis product tensor of arity s per ring:
    prod[n, x_1, ..., x_s] is the coefficient vector of b_{x_1} ... b_{x_s}
    in ring n.  Each entry of ``tuples`` holds s index arrays of length
    N = out.shape[1]; block q gains coefficient r of
    d(x_1...x_s) - sum_p x_1...d(x_p)...x_s at the q-th tuple.
    """
    q, diag = np.arange(out.shape[1]), np.arange(out.shape[2])
    a, rings = diag[:, None], (slice(None),)
    for idx in tuples:
        out[:, :, diag, :, diag] += prod[rings + idx]
        for p, x in enumerate(idx):
            # prod with factor p replaced by e_a, as (n, a, N, r) -> (N, n, r, a).
            out[:, q, :, x, :] -= prod[rings + idx[:p] + (a,) + idx[p + 1:]].transpose(2, 0, 3, 1)


def _constraint_rows(c: np.ndarray, m: int, kind: str) -> np.ndarray:
    """Raw constraint rows at d = E_ab (module docstring), D[a, b] at column a + k*b.

    ``c`` stacks the structure constants of rings over Z/m, and the result
    is indexed [ring, row, column].  Row order is fixed: product by (i, j);
    square by i; square-pol by (i, j) with i < j; triple by (i, j);
    triple-pol by (i, l, j) with i < l.
    """
    k = c.shape[1]
    i, j = np.divmod(np.arange(k * k), k)
    if kind == DERIVATION:
        families = [(c, [(i, j)])]
    else:
        ar = np.arange(k)
        # b_i b_j b_l, with the sums and reductions of StructureRing.mul.
        triple = einsum_mod("nijs,nslt->nijlt", c, c, m)
        iu, lu = np.triu_indices(k, 1)
        pi, pl, pj = np.repeat(iu, k), np.repeat(lu, k), np.tile(ar, len(iu))
        families = [
            (c, [(ar, ar)]),
            (c, [(iu, lu), (lu, iu)]),
            (triple, [(i, j, i)]),
            (triple, [(pi, pj, pl), (pl, pj, pi)]),
        ]
    blocks = sum(len(t[0][0]) for _, t in families)
    out = np.zeros((len(c), blocks, k, k, k), dtype=np.int64)
    start = 0
    for prod, tuples in families:
        stop = start + len(tuples[0][0])
        _rule_rows(out[:, start:stop], prod, tuples)
        start = stop
    out %= m
    return out.reshape(len(c), blocks * k, k * k)


def _check_size(n: int, k: int, kind: str) -> None:
    """Refuse, before allocating, the raw stack of ``kind`` for n rings of rank k:
    n * blocks * k^3 entries, with k^2 blocks for Der and k(k + 1)^2 / 2 for Jordan."""
    entries = n * (k * k if kind == DERIVATION else k * (k + 1) ** 2 // 2) * k ** 3
    if entries > _SOLVE_LIMIT:
        raise SizeBudgetError(entries, _SOLVE_LIMIT)


def _constraint_matrices(c: np.ndarray, m: int, kind: str) -> np.ndarray:
    """Per ring, the raw rows sorted as byte strings, with every repeat zeroed in place."""
    rows = _constraint_rows(c, m, kind)
    if rows.size:
        # Sort each ring's C-contiguous rows in place as byte strings; keep each run's first.
        rows.view(np.dtype((np.void, rows.itemsize * rows.shape[2]))).sort(axis=1)
    rows[:, 1:][(rows[:, 1:] == rows[:, :-1]).all(axis=2)] = 0
    return rows


@dataclass(frozen=True, eq=False)
class DerivationSpace:
    """Subgroup of additive endomorphisms cut out by one constraint kind."""

    ring: StructureRing
    kind: str
    basis: SubgroupBasis

    def generators(self) -> list:
        return [AdditiveMap.from_flat(self.ring, g) for g in self.basis.as_array()]

    def cardinality(self) -> int:
        return self.basis.cardinality()

    def contains(self, d: AdditiveMap) -> bool:
        if not d.ring.same_presentation(self.ring):
            raise ValueError("map belongs to a different ring")
        return self.basis.contains(d.matrix.ravel(order="F"))

    def __repr__(self):
        return f"DerivationSpace(kind={self.kind!r}, cardinality={self.cardinality()})"


def _solve_all(rings, kind: str):
    """Yield the space of ``kind`` per ring of one modulus and rank, self-checked."""
    if len({(ring.modulus, ring.rank) for ring in rings}) > 1:
        raise ValueError("a batch needs rings of one modulus and rank")
    if not rings:
        return
    _check_size(len(rings), rings[0].rank, kind)
    m = rings[0].modulus
    rows = _constraint_matrices(np.stack([ring.constants for ring in rings]), m, kind)
    if len(rings) > 1:
        bases = kernels(m, rows)
    else:
        bases = [kernel(ZmMatrix.from_array(m, rows[0][rows[0].any(axis=1)]))]
    for ring, basis in zip(rings, bases):
        space = DerivationSpace(ring, kind, basis)
        for g in space.generators():
            result = check_map(ring, g, kind)
            if not result.ok:
                raise SelfCheckError(
                    f"solver generator violates {result.identity} at {result.indices}"
                )
        yield space


def solve_derivations(ring: StructureRing) -> DerivationSpace:
    """All additive d with d(rs) = d(r)s + rd(s), as a canonical subgroup."""
    return next(_solve_all([ring], DERIVATION))


def solve_jordan_derivations(ring: StructureRing) -> DerivationSpace:
    """All additive d with d(r^2) = d(r)r + rd(r) and d(rsr) = d(r)sr + rd(s)r + rsd(r)."""
    return next(_solve_all([ring], JORDAN))


def inner_derivation(ring: StructureRing, a: RingElement) -> AdditiveMap:
    """The map r -> ar - ra."""
    if not a.ring.same_presentation(ring):
        raise ValueError("element belongs to a different ring")
    x, eye = a.as_array(), np.eye(ring.rank, dtype=np.int64)
    return AdditiveMap.from_array(ring, (ring.mul(x, eye) - ring.mul(eye, x)).T % ring.modulus)


@dataclass(frozen=True)
class SpaceComparison:
    """Result of comparing Der(R) with JDer(R) as subgroups."""

    equal: bool
    witness: AdditiveMap | None
    derivations: DerivationSpace
    jordan: DerivationSpace

    @property
    def verdict(self) -> str:
        return "Equal" if self.equal else "ProperInclusion"


def _compare(der: DerivationSpace, jder: DerivationSpace) -> SpaceComparison:
    if subgroup_equal(der.basis, jder.basis):
        return SpaceComparison(True, None, der, jder)
    for g in jder.generators():
        if not der.contains(g):
            return SpaceComparison(False, g, der, jder)
    raise SelfCheckError("unequal spaces must be witnessed by a generator")


def compare_spaces(ring: StructureRing) -> SpaceComparison:
    """Decide Der(R) = JDer(R); on proper inclusion return a Jordan witness.

    Der is always a subgroup of JDer, so inequality means some canonical
    generator of JDer falls outside Der (if every generator were inside,
    the whole span would be).  The Jordan solve's size is checked before Der is solved.
    """
    _check_size(1, ring.rank, JORDAN)
    return _compare(solve_derivations(ring), solve_jordan_derivations(ring))


def compare_all(rings) -> list:
    """``compare_spaces`` of each ring; ValueError unless all share one modulus and rank.

    JDer is solved for the whole batch first.  The product residual P of
    every JDer generator of every ring is then computed in one stacked step.
    A ring whose generators all have P = 0 has Der = JDer with the same
    canonical basis, so Der is solved, in one more batch, only for the rings
    with a generator of nonzero P; the first one must be ``_compare``'s witness.
    A batch of more than one ring gets all its kernels from one stacked
    ``zmodlin.kernels`` call, whatever its rank, so batches of large rings
    take the stacked path too; a batch of one ring takes ``kernel``.
    """
    jders, failing = list(_solve_all(rings, JORDAN)), {}
    if jders:
        k, m = rings[0].rank, rings[0].modulus
        flats = [jder.basis.as_array() for jder in jders]
        owner = np.repeat(np.arange(len(flats)), [len(f) for f in flats])
        stack = np.concatenate(flats)
        c = np.stack([ring.constants for ring in rings])[owner]
        # Row g of the stack is D laid out column by column (AdditiveMap.from_flat).
        bad = np.flatnonzero(_product_residuals(c, stack.reshape(-1, k, k).transpose(0, 2, 1), m)
                             .any(axis=(1, 2, 3)))
        rings_bad, first = np.unique(owner[bad], return_index=True)
        for n, g in zip(rings_bad.tolist(), bad[first].tolist()):
            failing[n] = AdditiveMap.from_flat(jders[n].ring, stack[g])
    ders = _solve_all([jders[n].ring for n in failing], DERIVATION)
    out = []
    for n, jder in enumerate(jders):
        if n in failing:
            cmp = _compare(next(ders), jder)
            if cmp.witness != failing[n]:
                raise SelfCheckError("Der solve disagrees with the first non-derivation generator")
        else:
            cmp = SpaceComparison(True, None, DerivationSpace(jder.ring, DERIVATION, jder.basis), jder)
        out.append(cmp)
    return out
