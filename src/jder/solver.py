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

Over odd m the square rows decide JDer alone.  In an associative ring,
with x o y = xy + yx, x o (x o y) - x^2 o y = 2xyx (Herstein, "Jordan
derivations of prime rings", Proc. AMS 8, 1957).  A map that passes the
square and square-pol rows satisfies Q1 on every element, so, by
polarization, d(x o y) = d(x) o y + x o d(y) for all x, y.  Applying d to
both sides of Herstein's identity then gives 2 Q2(x; y) = 0, and 2 Q2pol =
0 by polarizing x.  When m is odd, 2 is a unit mod m, so Q2 = Q2pol = 0:
the kernel of the square families is JDer, and the Jordan rows stop after
square-pol.  When m is even, Q2 is only known to be 2-torsion and all four
families are built.  The self-check still evaluates all four identities
on every generator at every modulus, so a wrong argument here would
raise ``SelfCheckError`` rather than return a wrong space.

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
                      slots_contain, subgroup_equal)

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
# ring over even m (4.25 GiB), the largest solve cross-check took under its former
# rank budget 32.
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
        return cls._reshaped(ring, arr, "C")

    @classmethod
    def from_flat(cls, ring: StructureRing, flat) -> "AdditiveMap":
        """Decode a length-k^2 vector laid out column by column."""
        return cls._reshaped(ring, flat, "F")

    @classmethod
    def _reshaped(cls, ring: StructureRing, entries, order: str) -> "AdditiveMap":
        # Any other number of entries than k^2 is left for __post_init__ to refuse.
        a, k = np.asarray(entries), ring.rank
        return cls(ring, a.reshape((k, k), order=order) if a.size == k * k else a)

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


def _first_violation(c: np.ndarray, D: np.ndarray, m: int, kind: str):
    """Stacked residuals of the maps D[g] on the rings c[g], and the first violation.

    This deliberately avoids the assembled constraint matrix: the residual
    P[g, i, j] = d(b_i b_j) - d(b_i) b_j - b_i d(b_j) is recomputed from the
    structure constants and D, an independent oracle for the solver's
    kernels.  P[g] = 0 means D[g] is a derivation, so every identity holds.
    Otherwise the residual T[i, j, l] of (b_i b_j) b_l is P(b_i b_j, b_l) +
    P(b_i, b_j) b_l by bilinearity alone (no associativity); T is computed
    only for the maps with P[g] != 0.  Returns P and, for the first map
    that violates an identity of ``kind``, (g, identity, indices) with the
    first offending basis indices in that identity's order, or None.
    """
    P = _product_residuals(c, D, m)
    nonzero = np.flatnonzero(P.any(axis=(1, 2, 3)))
    if not len(nonzero):
        return P, None
    Pn = P[nonzero]
    if kind == DERIVATION:
        checks = [("product", Pn.any(-1))]
    else:
        cn = c[nonzero]
        T = (einsum_mod("nijs,nslt->nijlt", cn, Pn, m)
             + einsum_mod("nijs,nslt->nijlt", Pn, cn, m)) % m
        ar = np.arange(c.shape[1])
        upper = ar[:, None] < ar
        checks = [
            ("square", Pn[:, ar, ar].any(-1)),
            ("square-pol", ((Pn + Pn.transpose(0, 2, 1, 3)) % m).any(-1) & upper),
            ("triple", T[:, ar[:, None], ar, ar[:, None]].any(-1)),
            # T[i, j, l] + T[l, j, i], indexed (i, l, j).
            ("triple-pol", ((T + T.transpose(0, 3, 2, 1, 4)) % m).any(-1).transpose(0, 1, 3, 2)
             & upper[:, :, None]),
        ]
    # hit[identity, n]: whether map nonzero[n] violates that identity somewhere.
    hit = np.array([bad.reshape(len(nonzero), -1).any(axis=1) for _, bad in checks])
    failing = np.flatnonzero(hit.any(axis=0))
    if not len(failing):
        return P, None
    n = int(failing[0])
    name, bad = checks[int(np.flatnonzero(hit[:, n])[0])]
    return P, (int(nonzero[n]), name, tuple(int(x) for x in np.argwhere(bad[n])[0]))


def check_map(ring: StructureRing, d: AdditiveMap, kind: str) -> CheckResult:
    """Evaluate the basis-level constraints of ``kind`` directly on elements.

    The identities are checked from the structure constants and the map
    matrix alone (``_first_violation`` on a stack of one).  Returns the
    first violated identity by name with the offending basis indices.
    """
    _validate_kind(kind)
    if not d.ring.same_presentation(ring):
        raise ValueError("map belongs to a different ring")
    _, first = _first_violation(ring.constants[None], d.as_array()[None], ring.modulus, kind)
    return CheckResult(True) if first is None else CheckResult(False, *first[1:])


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
    square by i; square-pol by (i, j) with i < j; then, over even m only
    (module docstring), triple by (i, j) and triple-pol by (i, l, j) with i < l.
    """
    k = c.shape[1]
    i, j = np.divmod(np.arange(k * k), k)
    if kind == DERIVATION:
        families = [(c, [(i, j)])]
    else:
        ar = np.arange(k)
        iu, lu = np.triu_indices(k, 1)
        families = [(c, [(ar, ar)]), (c, [(iu, lu), (lu, iu)])]
        if m % 2 == 0:
            # b_i b_j b_l, with the sums and reductions of StructureRing.mul.
            triple = einsum_mod("nijs,nslt->nijlt", c, c, m)
            pi, pl, pj = np.repeat(iu, k), np.repeat(lu, k), np.tile(ar, len(iu))
            families += [(triple, [(i, j, i)]), (triple, [(pi, pj, pl), (pl, pj, pi)])]
    blocks = sum(len(t[0][0]) for _, t in families)
    out = np.zeros((len(c), blocks, k, k, k), dtype=np.int64)
    start = 0
    for prod, tuples in families:
        stop = start + len(tuples[0][0])
        _rule_rows(out[:, start:stop], prod, tuples)
        start = stop
    out %= m
    return out.reshape(len(c), blocks * k, k * k)


def _check_size(n: int, k: int, m: int, kind: str) -> None:
    """Refuse, before allocating, the raw stack of ``kind`` for n rings of rank k over Z/m:
    n * blocks * k^3 entries, with k^2 blocks for Der, and for Jordan k(k + 1) / 2
    over odd m and k(k + 1)^2 / 2 over even m."""
    if kind == DERIVATION:
        blocks = k * k
    else:
        blocks = k * (k + 1) // 2 if m % 2 else k * (k + 1) ** 2 // 2
    entries = n * blocks * k ** 3
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


def _solve_all(c: np.ndarray, m: int, kind: str):
    """The spaces of ``kind`` of the rings of a reduced stack c of structure constants
    over Z/m, self-checked.

    Returns the kernels as (n, k^2, k^2) Howell row slots, as one
    ``zmodlin.kernels`` call gives them (``SubgroupBasis`` of ring i's
    slots is its space's basis), the ring and flat vector of every
    generator, ring by ring and slot by slot, and the product residual P of
    every generator.  All generators are self-checked by one
    ``_first_violation`` pass, which reports the first violation in ring,
    generator and identity order.  No ring object is needed or made.
    """
    n, k = c.shape[:2]
    _check_size(n, k, m, kind)
    slots = kernels(m, _constraint_matrices(c, m, kind))
    owner, slot = np.nonzero(slots.any(axis=2))
    flat = slots[owner, slot]
    # Row g of D is generator g laid out column by column (AdditiveMap.from_flat).
    D = flat.reshape(len(flat), k, k).transpose(0, 2, 1)
    P, first = _first_violation(c[owner], D, m, kind)
    if first is not None:
        raise SelfCheckError(f"solver generator violates {first[1]} at {first[2]}")
    return slots, owner, flat, P


def _solve_one(ring: StructureRing, kind: str) -> DerivationSpace:
    """The space of ``kind`` of one ring: ``kernel``'s worklist, then ``check_map`` once
    per generator, which the benchmark harness (bench/test_harness.py) pins as one
    check_map call per kernel generator."""
    _check_size(1, ring.rank, ring.modulus, kind)
    rows = _constraint_matrices(ring.constants[None], ring.modulus, kind)[0]
    space = DerivationSpace(ring, kind, kernel(ZmMatrix.from_array(ring.modulus, rows[rows.any(axis=1)])))
    for g in space.generators():
        result = check_map(ring, g, kind)
        if not result.ok:
            raise SelfCheckError(f"solver generator violates {result.identity} at {result.indices}")
    return space


def solve_derivations(ring: StructureRing) -> DerivationSpace:
    """All additive d with d(rs) = d(r)s + rd(s), as a canonical subgroup."""
    return _solve_one(ring, DERIVATION)


def solve_jordan_derivations(ring: StructureRing) -> DerivationSpace:
    """All additive d with d(r^2) = d(r)r + rd(r) and d(rsr) = d(r)sr + rd(s)r + rsd(r)."""
    return _solve_one(ring, JORDAN)


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
    gens, slots = jder.basis.as_array(), der.basis.slots
    inside = slots_contain(der.basis.modulus, np.broadcast_to(slots, (len(gens),) + slots.shape), gens)
    if inside.all():
        raise SelfCheckError("unequal spaces must be witnessed by a generator")
    return SpaceComparison(False, AdditiveMap.from_flat(jder.ring, gens[inside.argmin()]), der, jder)


def compare_spaces(ring: StructureRing) -> SpaceComparison:
    """Decide Der(R) = JDer(R); on proper inclusion return a Jordan witness.

    Der is always a subgroup of JDer, so inequality means some canonical
    generator of JDer falls outside Der (if every generator were inside,
    the whole span would be).  The Jordan solve's size is checked before Der is solved.
    """
    _check_size(1, ring.rank, ring.modulus, JORDAN)
    return _compare(solve_derivations(ring), solve_jordan_derivations(ring))


def _compare_stack(c: np.ndarray, m: int):
    """Decide Der = JDer for every ring of a reduced stack c of structure constants over Z/m.

    JDer is solved for the whole stack first (``_solve_all``).  A generator
    is a derivation exactly when its product residual P is zero, and Der is
    a subgroup of JDer, so a ring whose JDer generators all have P = 0 has
    Der = JDer with the same canonical basis.  Der is solved, in one more
    stacked call, only for the other rings, and one stacked Howell
    membership test checks that each Der contains every JDer generator
    before the first one with P != 0, the witness, and not the witness.
    Returns the JDer slots, the indices of the rings with Der != JDer, the
    flat vectors of their witnesses and their Der slots.
    """
    jder, owner, flat, P = _solve_all(c, m, JORDAN)
    bad = np.flatnonzero(P.any(axis=(1, 2, 3)))
    # owner is sorted, so the first bad generator of each ring starts a run of owner[bad].
    first = bad[np.flatnonzero(np.diff(owner[bad], prepend=-1))]
    proper = owner[first]
    der = _solve_all(c[proper], m, DERIVATION)[0] if len(proper) else jder[:0]
    # Every generator of a ring in ``proper`` up to its witness, and that ring's Der slots.
    witness_of, der_of = np.full(len(c), -1), np.zeros(len(c), dtype=np.intp)
    witness_of[proper], der_of[proper] = first, np.arange(len(proper))
    tested = np.flatnonzero(np.arange(len(owner)) <= witness_of[owner])
    inside = slots_contain(m, der[der_of[owner[tested]]], flat[tested])
    if (inside != (tested < witness_of[owner[tested]])).any():
        raise SelfCheckError("Der solve disagrees with the first non-derivation generator")
    return jder, proper, flat[first], der


def compare_all(rings) -> list:
    """``compare_spaces`` of each ring; ValueError unless all share one modulus and rank.

    The decision is ``_compare_stack``'s, on the stacked structure
    constants: one kernel solve for JDer and one for the rings with
    Der != JDer, each stacked unless it has one ring.  This adds the
    spaces, witnesses and comparisons as objects.  ``rings`` may be any iterable.
    """
    rings = list(rings)
    if len({(ring.modulus, ring.rank) for ring in rings}) > 1:
        raise ValueError("a batch needs rings of one modulus and rank")
    if not rings:
        return []
    m = rings[0].modulus
    jder, proper, witnesses, der = _compare_stack(np.stack([ring.constants for ring in rings]), m)
    found = dict(zip(proper.tolist(), zip(witnesses, der)))
    out = []
    for n, ring in enumerate(rings):
        jspace = DerivationSpace(ring, JORDAN, SubgroupBasis(ZmMatrix.from_array(m, jder[n])))
        if n in found:
            witness, slots = found[n]
            dspace = DerivationSpace(ring, DERIVATION, SubgroupBasis(ZmMatrix.from_array(m, slots)))
            out.append(SpaceComparison(False, AdditiveMap.from_flat(ring, witness), dspace, jspace))
        else:
            out.append(SpaceComparison(True, None, DerivationSpace(ring, DERIVATION, jspace.basis), jspace))
    return out
