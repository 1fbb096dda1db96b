"""Finite rings presented by structure constants over Z/m.

A ring here is the additive group (Z/m)^k with a bilinear multiplication
given by constants c[i][j] in (Z/m)^k (the coefficient vector of b_i * b_j).
Associativity is verified on all k^3 basis triples at construction time, so
an instance that exists is a ring.  Units are optional and verified when
given.

Constructors cover the shapes the derivation machinery needs: Z/m itself,
dual numbers, full matrix rings M_n(R), direct products, triangular rings
built from a bimodule, and corner rings eRe cut out by an idempotent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .zmodlin import ZmMatrix, _int64_array, _integer, _reduce, _validate_modulus, einsum_mod, howell_form

__all__ = [
    "RingConstructionError",
    "AssociativityError",
    "UnitLawError",
    "CornerNotFreeError",
    "StructureRing",
    "RingElement",
    "PairRing",
    "MatrixRing",
    "ProductRing",
    "TriangularRing",
    "Bimodule",
    "Corner",
    "build_ring",
    "zmod",
    "dual_numbers",
    "matrix_ring",
    "direct_product",
    "triangular_ring",
    "regular_bimodule",
    "matrix_bimodule",
    "corner_of",
    "is_idempotent",
    "are_orthogonal",
]


class RingConstructionError(ValueError):
    """The presented data does not define the requested structure."""


class AssociativityError(RingConstructionError):
    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        super().__init__(
            f"multiplication is not associative: (b{triple[0]}*b{triple[1]})*b{triple[2]} "
            f"!= b{triple[0]}*(b{triple[1]}*b{triple[2]})"
        )


class UnitLawError(RingConstructionError):
    def __init__(self, index: int, side: str):
        self.index = index
        self.side = side
        super().__init__(f"claimed unit fails {side} unit law on basis element {index}")


class CornerNotFreeError(RingConstructionError):
    """The corner subgroup eRe is not free over Z/m and cannot be presented."""


# Largest rank of a pair ring or a parsed ring, checked before allocating: validating
# associativity holds rank^4 int64 tensors; at rank 48 it took 2 s and 277 MB
# (modulus 2^31, 2 vCPU).
_RANK_LIMIT = 48


def _check_rank(rank: int) -> None:
    if rank > _RANK_LIMIT:
        raise RingConstructionError(
            f"the ring would have rank {rank}, over the rank limit {_RANK_LIMIT}")


def _check_associative(modulus: int, c: np.ndarray) -> None:
    """Raise AssociativityError for the first basis triple (b_i b_j) b_l != b_i (b_j b_l)
    of a reduced (k, k, k) table of structure constants."""
    bad = np.argwhere((einsum_mod("ijs,slt->ijlt", c, c, modulus)
                       != einsum_mod("jls,ist->ijlt", c, c, modulus)).any(axis=3))
    if bad.size:
        raise AssociativityError(tuple(int(x) for x in bad[0]))


class StructureRing:
    """Finite ring on (Z/m)^k with explicit structure constants."""

    def __init__(self, modulus, constants, unit=None, labels=None):
        _validate_modulus(modulus)
        c = _int64_array(constants)
        if c.ndim != 3 or not (c.shape[0] == c.shape[1] == c.shape[2]):
            raise RingConstructionError(
                f"structure constants must have shape (k, k, k), got {c.shape}"
            )
        self.modulus = m = int(modulus)
        self.rank = int(c.shape[0])
        self.constants = c = c % m
        c.setflags(write=False)
        if labels is None:
            labels = tuple(f"b{i}" for i in range(self.rank))
        labels = tuple(str(s) for s in labels)
        if len(labels) != self.rank:
            raise RingConstructionError("one label per basis element is required")
        self.labels = labels
        self.unit = None if unit is None else tuple(
            _integer(u) % self.modulus for u in unit
        )
        if self.unit is not None and len(self.unit) != self.rank:
            raise RingConstructionError("unit vector length must equal the rank")
        _check_associative(m, c)
        if self.unit is not None:
            u = np.array(self.unit, dtype=np.int64)
            for side, spec in (("left", "i,ijt->jt"), ("right", "j,ijt->it")):
                bad = (einsum_mod(spec, u, c, m) != np.eye(self.rank, dtype=np.int64)).any(axis=1)
                if bad.any():
                    raise UnitLawError(int(bad.argmax()), side)

    # -- identity of presentations ------------------------------------------

    @property
    def signature(self) -> tuple:
        sig = getattr(self, "_signature", None)
        if sig is None:
            sig = (self.modulus, self.rank, self.constants.tobytes(), self.unit)
            self._signature = sig
        return sig

    def same_presentation(self, other: "StructureRing") -> bool:
        return self is other or self.signature == other.signature

    # -- elements -------------------------------------------------------------

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    @property
    def cardinality(self) -> int:
        return self.modulus ** self.rank

    def element(self, coeffs) -> "RingElement":
        a = _int64_array(coeffs) % self.modulus
        if a.shape != (self.rank,):
            raise ValueError(f"expected {self.rank} coefficients, got shape {a.shape}")
        return RingElement(self, a)

    def basis_element(self, i: int) -> "RingElement":
        a = np.zeros(self.rank, dtype=np.int64)
        a[i] = 1
        return RingElement(self, a)

    def basis(self) -> list["RingElement"]:
        return [self.basis_element(i) for i in range(self.rank)]

    def zero(self) -> "RingElement":
        return RingElement(self, np.zeros(self.rank, dtype=np.int64))

    def one(self) -> "RingElement":
        if self.unit is None:
            raise RingConstructionError("ring has no unit")
        return self.element(self.unit)

    def peirce_support(self) -> np.ndarray | None:
        """The columns of the unknowns a solve may restrict to after normalizing by a
        complete family of orthogonal idempotents (``solver`` module docstring), or None
        to solve on every column: a ring without a pair layout knows no such family.
        ``PairRing`` overrides it."""
        return None

    def mul(self, *factors) -> np.ndarray:
        """Product of reduced coefficient arrays of shape (..., k), folded left.

        The factors broadcast against each other.  Each step contracts x with
        the structure constants and then with y, both through ``einsum_mod``.
        """
        m, c = self.modulus, self.constants
        x = np.asarray(factors[0], dtype=np.int64)
        for y in factors[1:]:
            x = einsum_mod("...j,...jt->...t", np.asarray(y, dtype=np.int64),
                           einsum_mod("...i,ijt->...jt", x, c, m), m)
        return x

    def __repr__(self) -> str:
        unital = "unital " if self.is_unital else ""
        return f"<{unital}ring of rank {self.rank} over Z/{self.modulus}>"


class RingElement:
    """An element of a StructureRing, held as one read-only reduced (k,) int64 array.

    ``coeffs`` gives the same coefficients as a tuple.  Build elements with
    ``StructureRing.element``; the constructor takes an already reduced array.
    """

    __slots__ = ("ring", "_array")

    def __init__(self, ring: StructureRing, array: np.ndarray):
        array.setflags(write=False)
        self.ring = ring
        self._array = array

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self._array.tolist())

    def as_array(self) -> np.ndarray:
        return self._array

    def _coerce(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            raise TypeError(f"cannot combine RingElement with {type(other).__name__}")
        if not self.ring.same_presentation(other.ring):
            raise ValueError("elements belong to different rings")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return RingElement(self.ring, (self._array + other._array) % self.ring.modulus)

    def __sub__(self, other):
        other = self._coerce(other)
        return RingElement(self.ring, (self._array - other._array) % self.ring.modulus)

    def __neg__(self):
        return RingElement(self.ring, -self._array % self.ring.modulus)

    def __mul__(self, other):
        m = self.ring.modulus
        if isinstance(other, int):
            return RingElement(self.ring, other % m * self._array % m)
        other = self._coerce(other)
        return RingElement(self.ring, self.ring.mul(self._array, other._array))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return (self.ring.same_presentation(other.ring)
                and self._array.tobytes() == other._array.tobytes())

    def __hash__(self):
        return hash((self.ring.signature, self._array.tobytes()))

    def is_zero(self) -> bool:
        return not self._array.any()

    def __repr__(self) -> str:
        terms = []
        for coeff, label in zip(self.coeffs, self.ring.labels):
            if coeff == 0:
                continue
            terms.append(label if coeff == 1 else f"{coeff}*{label}")
        return " + ".join(terms) if terms else "0"


def is_idempotent(e: RingElement) -> bool:
    """Whether e*e = e (zero counts as idempotent)."""
    return e * e == e


def are_orthogonal(e: RingElement, f: RingElement) -> bool:
    """Whether ef = fe = 0; both elements must be idempotent."""
    if not (is_idempotent(e) and is_idempotent(f)):
        raise ValueError("orthogonality is defined for idempotents")
    return (e * f).is_zero() and (f * e).is_zero()


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def build_ring(modulus, constants, unit=None, labels=None) -> StructureRing:
    """Validate and build the ring presented by the structure constants."""
    return StructureRing(modulus, constants, unit=unit, labels=labels)


def zmod(m: int) -> StructureRing:
    """Z/m as a rank-1 structure ring."""
    return StructureRing(m, [[[1]]], unit=(1,), labels=("1",))


def dual_numbers(m: int) -> StructureRing:
    """Z/m[x]/(x^2): rank 2, basis {1, x} with x^2 = 0."""
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    return StructureRing(m, c, unit=(1, 0), labels=("1", "x"))


def _pair_constants(pairs, base: StructureRing) -> tuple[np.ndarray, np.ndarray | None]:
    """Structure constants and unit of the ring spanned by index pairs over base.

    ``pairs`` must be closed under composition: (p, q) and (q, r) listed
    means (p, r) is listed.  Basis element n * k_R + t is b_t at pairs[n],
    and (p, q; b_t)(q, r; b_s) = (p, r; b_t b_s), so the constants are the
    Kronecker product of the 0/1 composition pattern with base's.  The unit
    is base's unit on every (p, p), or None when base has no unit.
    """
    _check_rank(len(pairs) * base.rank)
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    n = len(pairs)
    position = np.zeros((pairs.max(initial=-1) + 1,) * 2, dtype=np.intp)
    position[pairs[:, 0], pairs[:, 1]] = np.arange(n)
    first, second = np.nonzero(pairs[:, 1, None] == pairs[None, :, 0])
    pattern = np.zeros((n, n, n), dtype=np.int64)
    pattern[first, second, position[pairs[first, 0], pairs[second, 1]]] = 1
    unit = None if base.unit is None else np.kron(pairs[:, 0] == pairs[:, 1], base.unit)
    return np.kron(pattern, base.constants), unit


def _peirce_support(pairs, base: StructureRing) -> np.ndarray | None:
    """The columns a + k*b of the unknowns D[a, b] of the pair ring on ``pairs`` over base
    whose pair at a is the pair at b or its transpose, in ascending order; None when base
    has no unit.  Only the count depends on the order of ``pairs``."""
    if base.unit is None:
        return None
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    p, q = np.repeat(pairs, base.rank, axis=0).T
    # same[b, a]: the pair at a is the pair at b or its transpose.
    same = ((p[:, None] == p) & (q[:, None] == q)) | ((p[:, None] == q) & (q[:, None] == p))
    return np.flatnonzero(same)


class PairRing(StructureRing):
    """The ring spanned by index pairs over a base ring R (see ``_pair_constants``).

    Basis element n * k_R + t is b_t at pairs[n], labelled names[n] with a
    ``*label_t`` suffix when R has rank above 1.  This class is the one
    place that knows that layout.
    """

    def __init__(self, pairs, base: StructureRing, names):
        self.base = base
        self.pairs = tuple(map(tuple, pairs))
        self._position = {pq: n for n, pq in enumerate(self.pairs)}
        c, unit = _pair_constants(self.pairs, base)
        suffixes = [""] if base.rank == 1 else [f"*{lab}" for lab in base.labels]
        labels = [f"{name}{suffix}" for name in names for suffix in suffixes]
        super().__init__(base.modulus, c, unit=unit, labels=labels)

    def peirce_support(self) -> np.ndarray | None:
        """``_peirce_support`` of the pairs over base: the e_p = (p, p; 1_R) are a complete
        family of orthogonal idempotents."""
        return _peirce_support(self.pairs, self.base)

    def index(self, p: int, q: int, t: int = 0) -> int:
        """The basis index of b_t at the pair (p, q); KeyError if (p, q) is not listed."""
        if (p, q) not in self._position:
            raise KeyError(f"the pair ({p}, {q}) is not listed")
        if not 0 <= t < self.base.rank:
            raise IndexError(f"base-ring index {t} out of range")
        return self._position[(p, q)] * self.base.rank + t

    def entry(self, elem: RingElement, p: int, q: int) -> RingElement:
        """The base-ring coefficient of an element at (p, q), zero if the pair is not listed."""
        if (p, q) not in self._position:
            return self.base.zero()
        n = self.index(p, q)
        return self.base.element(elem.as_array()[n:n + self.base.rank])

    def from_entries(self, entries: dict) -> RingElement:
        """Build an element from {(p, q): base-ring element}."""
        coeffs = np.zeros(self.rank, dtype=np.int64)
        for (p, q), value in entries.items():
            if not value.ring.same_presentation(self.base):
                raise ValueError("entries must belong to the base ring")
            n = self.index(p, q)
            coeffs[n:n + self.base.rank] = value.as_array()
        return self.element(coeffs)

    def block(self, rows, cols) -> list[int]:
        """Basis indices of the pairs rows x cols, in (p, q, t) order."""
        return [self.index(p, q, t) for p in rows for q in cols for t in range(self.base.rank)]


class MatrixRing(PairRing):
    """M_n(R): the pair ring on all (i, j), with basis order lexicographic in (i, j, t)."""

    def __init__(self, base: StructureRing, size: int):
        if size < 1:
            raise RingConstructionError("matrix size must be at least 1")
        _check_rank(size * size * base.rank)
        self.size = size
        pairs = list(itertools.product(range(size), repeat=2))
        super().__init__(pairs, base, [f"e[{i},{j}]" for i, j in pairs])

    def matrix_unit(self, i: int, j: int, scalar: RingElement | None = None) -> RingElement:
        """The matrix with the given R-scalar (default 1_R) in entry (i, j)."""
        return self.from_entries({(i, j): self.base.one() if scalar is None else scalar})


def matrix_ring(base: StructureRing, size: int) -> MatrixRing:
    return MatrixRing(base, size)


class ProductRing(StructureRing):
    """Direct product A x B with componentwise operations."""

    def __init__(self, left: StructureRing, right: StructureRing):
        if left.modulus != right.modulus:
            raise RingConstructionError("product factors must share the modulus")
        self.left = left
        self.right = right
        ka, kb = left.rank, right.rank
        k = ka + kb
        c = np.zeros((k, k, k), dtype=np.int64)
        c[:ka, :ka, :ka] = left.constants
        c[ka:, ka:, ka:] = right.constants
        unit = None
        if left.unit is not None and right.unit is not None:
            unit = left.unit + right.unit
        labels = [f"{lab}.L" for lab in left.labels] + [f"{lab}.R" for lab in right.labels]
        super().__init__(left.modulus, c, unit=unit, labels=labels)

    def pair(self, x: RingElement, y: RingElement) -> RingElement:
        if not (x.ring.same_presentation(self.left) and y.ring.same_presentation(self.right)):
            raise ValueError("components belong to the wrong factors")
        return self.element(np.concatenate((x.as_array(), y.as_array())))

    def split(self, e: RingElement) -> tuple[RingElement, RingElement]:
        ka = self.left.rank
        return self.left.element(e.as_array()[:ka]), self.right.element(e.as_array()[ka:])


def direct_product(left: StructureRing, right: StructureRing) -> ProductRing:
    return ProductRing(left, right)


@dataclass
class Bimodule:
    """An (A, B)-bimodule on (Z/m)^rank given by action constants.

    left_action[i][j] is the coefficient vector of a_i . m_j and
    right_action[j][i] that of m_j . b_i.  Both module axioms and the
    compatibility (a m) b = a (m b) are verified on basis triples; if a side
    is unital its unit must act as the identity.
    """

    left: StructureRing
    right: StructureRing
    rank: int
    left_action: np.ndarray
    right_action: np.ndarray

    def __post_init__(self):
        if self.left.modulus != self.right.modulus:
            raise RingConstructionError("bimodule sides must share the modulus")
        m = self.left.modulus
        la = _int64_array(self.left_action) % m
        ra = _int64_array(self.right_action) % m
        if la.shape != (self.left.rank, self.rank, self.rank):
            raise RingConstructionError(
                f"left action must have shape (k_A, k_M, k_M) = "
                f"({self.left.rank}, {self.rank}, {self.rank}), got {la.shape}"
            )
        if ra.shape != (self.rank, self.right.rank, self.rank):
            raise RingConstructionError(
                f"right action must have shape (k_M, k_B, k_M) = "
                f"({self.rank}, {self.right.rank}, {self.rank}), got {ra.shape}"
            )
        self.left_action = la
        self.right_action = ra
        self._validate()

    def _validate(self):
        m = self.left.modulus
        la, ra = self.left_action, self.right_action
        ca, cb = self.left.constants, self.right.constants
        laws = (("left action is not associative",  # (a a') m = a (a' m)
                 ("xys,sjt->xyjt", ca, la), ("yju,xut->xyjt", la, la)),
                ("right action is not associative",  # m (b b') = (m b) b'
                 ("xys,jst->jxyt", cb, ra), ("jxu,uyt->jxyt", ra, ra)),
                ("actions do not commute",  # (a m) b = a (m b)
                 ("iju,uyt->ijyt", la, ra), ("jyu,iut->ijyt", ra, la)))
        for failure, lhs, rhs in laws:
            bad = np.argwhere((einsum_mod(*lhs, m) != einsum_mod(*rhs, m)).any(axis=3))
            if bad.size:
                raise RingConstructionError(
                    f"{failure} on basis triple {tuple(int(v) for v in bad[0])}"
                )
        if not self.rank:
            return
        ident = np.eye(self.rank, dtype=np.int64)
        for side, ring, spec, action in (("left", self.left, "i,ijt->jt", la),
                                         ("right", self.right, "i,jit->jt", ra)):
            if ring.unit is not None:
                u = np.array(ring.unit, dtype=np.int64)
                if (einsum_mod(spec, u, action, m) != ident).any():
                    raise RingConstructionError(f"{side} unit does not act as identity")

    @property
    def modulus(self) -> int:
        return self.left.modulus


def regular_bimodule(ring: StructureRing) -> Bimodule:
    """The ring itself as an (R, R)-bimodule via its own multiplication."""
    return Bimodule(ring, ring, ring.rank, ring.constants, ring.constants)


def matrix_bimodule(base: StructureRing, n: int, p: int) -> Bimodule:
    """n x p matrices over R as an (M_n(R), M_p(R))-bimodule."""
    left = matrix_ring(base, n)
    right = matrix_ring(base, p)
    # The pair ring on two classes A = {0..n-1} <= B = {n..n+p-1}, blocks AA, AB, BB.
    a, b = range(n), range(n, n + p)
    pairs = [*itertools.product(a, a), *itertools.product(a, b), *itertools.product(b, b)]
    c, _ = _pair_constants(pairs, base)
    rank = n * p * base.rank
    end = left.rank + rank
    A, M, B = slice(0, left.rank), slice(left.rank, end), slice(end, None)
    return Bimodule(left, right, rank, c[A, M, M], c[M, B, M])


class TriangularRing(StructureRing):
    """Tri(A, M, B): pairs over the diagonal with (a, m, b)(a', m', b') =
    (aa', am' + mb', bb')."""

    def __init__(self, bimodule: Bimodule):
        a_ring, b_ring = bimodule.left, bimodule.right
        if a_ring.unit is None or b_ring.unit is None:
            raise RingConstructionError("triangular ring requires unital corner rings")
        self.bimodule = bimodule
        self.corner_left = a_ring
        self.corner_right = b_ring
        ka, km, kb = a_ring.rank, bimodule.rank, b_ring.rank
        k = ka + km + kb
        c = np.zeros((k, k, k), dtype=np.int64)
        c[:ka, :ka, :ka] = a_ring.constants
        c[ka + km:, ka + km:, ka + km:] = b_ring.constants
        c[:ka, ka:ka + km, ka:ka + km] = bimodule.left_action
        c[ka:ka + km, ka + km:, ka:ka + km] = bimodule.right_action
        unit = tuple(a_ring.unit) + (0,) * km + tuple(b_ring.unit)
        labels = (
            [f"{lab}.A" for lab in a_ring.labels]
            + [f"m{j}" for j in range(km)]
            + [f"{lab}.B" for lab in b_ring.labels]
        )
        super().__init__(a_ring.modulus, c, unit=unit, labels=labels)

    def triple(self, a: RingElement, m_vec, b: RingElement) -> RingElement:
        if not a.ring.same_presentation(self.corner_left):
            raise ValueError("first component must belong to the left corner ring")
        if not b.ring.same_presentation(self.corner_right):
            raise ValueError("third component must belong to the right corner ring")
        m_vec = np.asarray(m_vec, dtype=np.int64)
        if m_vec.shape != (self.bimodule.rank,):
            raise ValueError("middle component has wrong length")
        return self.element(np.concatenate((a.as_array(), m_vec, b.as_array())))

    def parts(self, e: RingElement) -> tuple[RingElement, tuple[int, ...], RingElement]:
        ka, km = self.corner_left.rank, self.bimodule.rank
        return (
            self.corner_left.element(e.as_array()[:ka]),
            e.coeffs[ka:ka + km],
            self.corner_right.element(e.as_array()[ka + km:]),
        )


def triangular_ring(a: StructureRing, bimodule: Bimodule, b: StructureRing) -> TriangularRing:
    if not (bimodule.left.same_presentation(a) and bimodule.right.same_presentation(b)):
        raise RingConstructionError("bimodule sides do not match the given corner rings")
    return TriangularRing(bimodule)


@dataclass
class Corner:
    """The corner ring eRe of an idempotent e, with transport maps.

    embed is an injective ring homomorphism onto the subset eRe of the
    parent; project inverts it on eRe and rejects anything outside.
    """

    ring: StructureRing
    parent: StructureRing
    idempotent: RingElement
    embed_matrix: np.ndarray = field(repr=False)
    project_matrix: np.ndarray = field(repr=False)

    def embed(self, x: RingElement) -> RingElement:
        if not x.ring.same_presentation(self.ring):
            raise ValueError("element does not belong to the corner ring")
        m = self.parent.modulus
        return self.parent.element(einsum_mod("ij,j->i", self.embed_matrix, x.as_array(), m))

    def project(self, x: RingElement) -> RingElement:
        if not x.ring.same_presentation(self.parent):
            raise ValueError("element does not belong to the parent ring")
        m = self.parent.modulus
        coords = einsum_mod("ij,j->i", self.project_matrix, x.as_array(), m)
        if (einsum_mod("ij,j->i", self.embed_matrix, coords, m) != x.as_array()).any():
            raise ValueError("element lies outside the corner subring eRe")
        return self.ring.element(coords)

    def compress(self, x: RingElement) -> RingElement:
        """project(e x e) for an arbitrary parent element."""
        e = self.idempotent
        return self.project(e * x * e)


def corner_of(parent: StructureRing, e: RingElement) -> Corner:
    """Present eRe as its own structure ring, with embed/project transports."""
    if not e.ring.same_presentation(parent):
        raise ValueError("idempotent does not belong to the ring")
    if not is_idempotent(e):
        raise ValueError("corner rings require an idempotent element")
    m = parent.modulus
    e_vec = e.as_array()
    images = parent.mul(e_vec, np.eye(parent.rank, dtype=np.int64), e_vec)
    basis = howell_form(ZmMatrix.from_array(m, images))
    pivots = basis.pivots()
    if any(d != 1 for _, d in pivots):
        raise CornerNotFreeError(
            "corner subgroup is not free over Z/m: pivots "
            f"{[d for _, d in pivots]} (only unit pivots can be presented)"
        )
    gens = basis.as_array()
    s = len(gens)
    embed = gens.T
    # Coordinate extraction is linear when all pivots are 1: the greedy reduction of
    # each basis vector records, per generator, the linear functional it applies.
    k, cols = parent.rank, [j for j, _ in pivots]
    project = _reduce(m, np.broadcast_to(basis.slots, (k, k, k)), np.eye(k, dtype=np.int64))[0][:, cols].T
    if s and (einsum_mod("ij,jk->ik", project, embed, m) != np.eye(s, dtype=np.int64)).any():
        raise AssertionError("corner projection failed to invert the embedding")
    prods = parent.mul(gens[:, None], gens[None, :])
    constants = einsum_mod("...j,ij->...i", prods, project, m)
    if (einsum_mod("...j,jt->...t", constants, gens, m) != prods).any():
        raise CornerNotFreeError("corner subgroup is not closed under products")
    e_coords = einsum_mod("ij,j->i", project, e_vec, m)
    if (einsum_mod("ij,j->i", embed, e_coords, m) != e_vec).any():
        raise AssertionError("idempotent escaped its own corner")
    labels = [f"g{j}" for j in range(s)]
    ring = StructureRing(m, constants, unit=e_coords, labels=labels)
    return Corner(ring, parent, e, embed, project)
