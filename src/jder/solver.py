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
"""

from dataclasses import dataclass

import numpy as np

from .rings import RingElement, StructureRing
from .zmodlin import SubgroupBasis, ZmMatrix, ZmVector, kernel, subgroup_equal

__all__ = [
    "DERIVATION",
    "JORDAN",
    "AdditiveMap",
    "CheckResult",
    "DerivationSpace",
    "SpaceComparison",
    "check_map",
    "compare_spaces",
    "inner_derivation",
    "solve_derivations",
    "solve_jordan_derivations",
]

DERIVATION = "derivation"
JORDAN = "jordan"
_KINDS = (DERIVATION, JORDAN)


@dataclass(frozen=True, eq=False)
class AdditiveMap:
    """Additive endomorphism of a ring, column j = coefficients of d(b_j)."""

    ring: StructureRing
    entries: tuple

    def __post_init__(self):
        k = self.ring.rank
        m = self.ring.modulus
        rows = tuple(tuple(int(x) % m for x in row) for row in self.entries)
        if len(rows) != k or any(len(row) != k for row in rows):
            raise ValueError(f"additive map on a rank-{k} ring needs a {k}x{k} matrix")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_array(cls, ring: StructureRing, arr) -> "AdditiveMap":
        a = np.asarray(arr, dtype=np.int64).reshape(ring.rank, ring.rank)
        return cls(ring, tuple(map(tuple, a.tolist())))

    @classmethod
    def from_flat(cls, ring: StructureRing, flat) -> "AdditiveMap":
        """Decode a length-k^2 vector laid out column by column."""
        if isinstance(flat, ZmVector):
            flat = flat.entries
        k = ring.rank
        a = np.asarray(flat, dtype=np.int64).reshape(k, k, order="F")
        return cls.from_array(ring, a)

    @classmethod
    def from_images(cls, ring: StructureRing, images) -> "AdditiveMap":
        cols = []
        for elem in images:
            if not elem.ring.same_presentation(ring):
                raise ValueError("image elements must belong to the ring")
            cols.append(elem.coeffs)
        return cls.from_array(ring, np.array(cols, dtype=np.int64).T)

    @classmethod
    def zero(cls, ring: StructureRing) -> "AdditiveMap":
        return cls.from_array(ring, np.zeros((ring.rank, ring.rank), dtype=np.int64))

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64).reshape(self.ring.rank, self.ring.rank)

    def to_flat(self) -> tuple:
        return tuple(self.as_array().flatten(order="F").tolist())

    def image(self, j: int) -> RingElement:
        """d(b_j)."""
        return self.ring.element([row[j] for row in self.entries])

    def __call__(self, elem: RingElement) -> RingElement:
        if not elem.ring.same_presentation(self.ring):
            raise ValueError("element belongs to a different ring")
        out = self.as_array() @ np.array(elem.coeffs, dtype=np.int64)
        return self.ring.element(out % self.ring.modulus)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def __add__(self, other: "AdditiveMap") -> "AdditiveMap":
        self._same_ring(other)
        return AdditiveMap.from_array(self.ring, self.as_array() + other.as_array())

    def __sub__(self, other: "AdditiveMap") -> "AdditiveMap":
        self._same_ring(other)
        return AdditiveMap.from_array(self.ring, self.as_array() - other.as_array())

    def __neg__(self) -> "AdditiveMap":
        return AdditiveMap.from_array(self.ring, -self.as_array())

    def _same_ring(self, other: "AdditiveMap") -> None:
        if not isinstance(other, AdditiveMap) or not other.ring.same_presentation(self.ring):
            raise ValueError("additive maps live on different rings")

    def __eq__(self, other):
        if not isinstance(other, AdditiveMap):
            return NotImplemented
        return self.ring.same_presentation(other.ring) and self.entries == other.entries

    def __hash__(self):
        return hash((self.ring.signature, self.entries))

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


def check_map(ring: StructureRing, d: AdditiveMap, kind: str) -> CheckResult:
    """Evaluate the basis-level constraints of ``kind`` directly on elements.

    This deliberately avoids the assembled constraint matrix: each identity
    is recomputed from ring multiplication, giving an independent oracle for
    the solver's kernels.  Returns the first violated identity by name with
    the offending basis indices.
    """
    _validate_kind(kind)
    if not d.ring.same_presentation(ring):
        raise ValueError("map belongs to a different ring")
    k = ring.rank
    m = ring.modulus
    c = ring.constants
    D = d.as_array()
    L = ring.left_matrices
    R = ring.right_matrices

    def lmat(v):
        return ring.left_mul_matrix(v)

    def rmat(v):
        return ring.right_mul_matrix(v)

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


# -- constraint assembly -------------------------------------------------------

def _blocks_for_kind(ring: StructureRing, kind: str):
    """Yield (k, k^2) row blocks; unknowns are vec(D) in column-major order.

    A term M @ D @ v contributes the block kron(v^T, M).  Row order is
    fixed: product by (i, j); square by i; square-pol by (i, j) with
    i < j; triple by (i, j); triple-pol by (i, l, j) with i < l.
    """
    k = ring.rank
    c = ring.constants
    L = ring.left_matrices
    R = ring.right_matrices
    eye = np.eye(k, dtype=np.int64)

    def term(v, mat):
        return np.kron(np.asarray(v, dtype=np.int64)[None, :], mat)

    if kind == DERIVATION:
        for i in range(k):
            for j in range(k):
                yield term(c[i, j], eye) - term(eye[i], R[j]) - term(eye[j], L[i])
        return

    lmat = ring.left_mul_matrix
    rmat = ring.right_mul_matrix
    for i in range(k):
        yield term(c[i, i], eye) - term(eye[i], R[i]) - term(eye[i], L[i])
    for i in range(k):
        for j in range(i + 1, k):
            yield (
                term(c[i, j] + c[j, i], eye)
                - term(eye[i], R[j])
                - term(eye[j], L[i])
                - term(eye[j], R[i])
                - term(eye[i], L[j])
            )
    for i in range(k):
        for j in range(k):
            yield (
                term(R[i] @ c[i, j], eye)
                - term(eye[i], rmat(c[j, i]))
                - term(eye[j], L[i] @ R[i])
                - term(eye[i], lmat(c[i, j]))
            )
    for i in range(k):
        for l in range(i + 1, k):
            for j in range(k):
                yield (
                    term(R[l] @ c[i, j] + R[i] @ c[l, j], eye)
                    - term(eye[i], rmat(c[j, l]))
                    - term(eye[j], L[i] @ R[l])
                    - term(eye[l], lmat(c[i, j]))
                    - term(eye[l], rmat(c[j, i]))
                    - term(eye[j], L[l] @ R[i])
                    - term(eye[i], lmat(c[l, j]))
                )


def _constraint_matrix(ring: StructureRing, kind: str) -> ZmMatrix:
    m = ring.modulus
    k2 = ring.rank * ring.rank
    blocks = [b % m for b in _blocks_for_kind(ring, kind)]
    if blocks:
        rows = np.unique(np.vstack(blocks), axis=0)
        rows = rows[np.any(rows, axis=1)]
    else:
        rows = np.zeros((0, k2), dtype=np.int64)
    if rows.shape[0] == 0:
        # No constraints: keep one zero row so the kernel is everything.
        rows = np.zeros((1, k2), dtype=np.int64)
    return ZmMatrix.from_array(m, rows)


@dataclass(frozen=True, eq=False)
class DerivationSpace:
    """Subgroup of additive endomorphisms cut out by one constraint kind."""

    ring: StructureRing
    kind: str
    basis: SubgroupBasis

    def generators(self) -> list:
        return [AdditiveMap.from_flat(self.ring, g) for g in self.basis.generators]

    def cardinality(self) -> int:
        return self.basis.cardinality()

    def contains(self, d: AdditiveMap) -> bool:
        if not d.ring.same_presentation(self.ring):
            raise ValueError("map belongs to a different ring")
        return self.basis.contains(ZmVector(self.ring.modulus, d.to_flat()))

    def __repr__(self):
        return f"DerivationSpace(kind={self.kind!r}, cardinality={self.cardinality()})"


def _solve(ring: StructureRing, kind: str) -> DerivationSpace:
    space = DerivationSpace(ring, kind, kernel(_constraint_matrix(ring, kind)))
    for g in space.generators():
        result = check_map(ring, g, kind)
        assert result.ok, f"solver generator violates {result.identity} at {result.indices}"
    return space


def solve_derivations(ring: StructureRing) -> DerivationSpace:
    """All additive d with d(rs) = d(r)s + rd(s), as a canonical subgroup."""
    return _solve(ring, DERIVATION)


def solve_jordan_derivations(ring: StructureRing) -> DerivationSpace:
    """All additive d with d(r^2) = d(r)r + rd(r) and d(rsr) = d(r)sr + rd(s)r + rsd(r)."""
    return _solve(ring, JORDAN)


def inner_derivation(ring: StructureRing, a: RingElement) -> AdditiveMap:
    """The map r -> ar - ra."""
    if not a.ring.same_presentation(ring):
        raise ValueError("element belongs to a different ring")
    mat = ring.left_mul_matrix(a.coeffs) - ring.right_mul_matrix(a.coeffs)
    return AdditiveMap.from_array(ring, mat % ring.modulus)


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


def compare_spaces(ring: StructureRing) -> SpaceComparison:
    """Decide Der(R) = JDer(R); on proper inclusion return a Jordan witness.

    Der is always a subgroup of JDer, so inequality means some canonical
    generator of JDer falls outside Der (if every generator were inside,
    the whole span would be).
    """
    der = solve_derivations(ring)
    jder = solve_jordan_derivations(ring)
    if subgroup_equal(der.basis, jder.basis):
        return SpaceComparison(True, None, der, jder)
    for g in jder.generators():
        if not der.contains(g):
            return SpaceComparison(False, g, der, jder)
    raise AssertionError("unequal spaces must be witnessed by a generator")
