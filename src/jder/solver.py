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

Pair rings over a unital base solve on their Peirce support.  In a pair
ring (``rings.PairRing``: M_n(R), FI(P, R)) the e_p = (p, p; 1_R) are
orthogonal idempotents summing to 1, and A is the direct sum of the
blocks e_p A e_q.  Only the square identity, its polarization
d(x o y) = d(x) o y + x o d(y) and the triple identity are used below,
and derivations satisfy all three, so everything holds for Der as well.
  Normalization.  For d in JDer and an idempotent e, d(e) = d(e)e +
ed(e), so ed(e)e = 0, and a = d(e)e - ed(e) has ad_a(e) = ae - ea =
d(e).  If d(f) = 0 for an idempotent f orthogonal to e, polarizing at
e o f = 0 gives d(e)f + fd(e) = 0, hence ed(e)f = fd(e)e = 0 and af =
fa = 0: subtracting ad_a keeps d(f) = 0.  Going through the e_p one by
one, d = ad_a + d0 with d0(e_p) = 0 for every p.
  Support.  For b in block (p, q) with p != q, e_p o b = b gives d0(b) =
e_p d0(b) + d0(b) e_p, so d0(b) lies in the blocks with exactly one
index p; likewise for q, so d0(b) lies in blocks (p, q) and (q, p).  For
b in block (p, p), d0(b) = d0(e_p b e_p) = e_p d0(b) e_p by the triple
identity.
So JDer = ad(A) + JDer_S, where JDer_S is the kernel of the rows
restricted to the unknowns D[a, b] whose pair at a is the pair at b or
its transpose (``peirce_support``); the kernel needs no d(e_p) = 0 rows,
since it lies between the maps of JDer with every d(e_p) = 0 and JDer.
The transposed blocks (q, p) are kept although a derivation never uses
them (d0(b) = e_p d0(b) e_q): dropping them would assume the theorem
under test.  Nothing here assumes it; the self-check runs on every
generator either way, so a wrong support could only drop maps, which
the full path, kept as ``compare_spaces``, ``solve_derivations`` and
``solve_jordan_derivations``, would show.

Row assembly.  Every identity is linear in d, so a row's entry for the
unknown D[a, b] (column a + k*b) is the identity's residual at the map
d = E_ab, which sends x to x_b e_a.  At E_ab the term d(x_1...x_n) is the
b-th coefficient of the product times e_a, and the term
x_1...d(x_p)...x_n is the product with b_b replaced by e_a if x_p = b_b,
else 0.  Both read off the structure constants (n = 2) or the basis
triple-product tensor b_i b_j b_l (n = 3), so each kind's rows for a
whole batch of rings are built in a few whole-array steps.

Hand-offs.  ``_constraint_matrices`` passes on each ring's distinct nonzero
rows, ``_solve_all`` each generator's ring, (k, k) map and derivation flag,
``_compare_stack`` witness maps; residuals and slot vectors stay inside.
"""

from dataclasses import dataclass

import numpy as np

from .rings import RingElement, StructureRing
from .zmodlin import (SelfCheckError, SubgroupBasis, ZmMatrix, _howell_forms, _int64_array, einsum_mod,
                      kernel, kernels, slots_contain, subgroup_equal)

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
# Most int64 entries of the rows that _constraint_matrices moves at once.
_MOVE_ENTRIES = 1 << 20


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
        a = _int64_array(self.matrix) % self.ring.modulus
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
    only for the maps with P[g] != 0.  Returns the flags P[g] == 0 and, for the
    first map that violates an identity of ``kind``, (g, identity, indices)
    with the first offending basis indices in that identity's order, or None.
    """
    P = _product_residuals(c, D, m)
    derivation = ~P.any(axis=(1, 2, 3))
    nonzero = np.flatnonzero(~derivation)
    if not len(nonzero):
        return derivation, None
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
        return derivation, None
    n = int(failing[0])
    name, bad = checks[int(np.flatnonzero(hit[:, n])[0])]
    return derivation, (int(nonzero[n]), name, tuple(int(x) for x in np.argwhere(bad[n])[0]))


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

def _rule_rows(out: np.ndarray, prod: np.ndarray, tuples, columns) -> None:
    """Add product-rule residuals at d = E_ab into ``out``, indexed [n, q, r, column].

    ``prod`` stacks one basis product tensor of arity s per ring:
    prod[n, x_1, ..., x_s] is the coefficient vector of b_{x_1} ... b_{x_s}
    in ring n.  Each entry of ``tuples`` holds s index arrays of length
    N = out.shape[1]; block q gains coefficient r of
    d(x_1...x_s) - sum_p x_1...d(x_p)...x_s at the q-th tuple.  ``columns``
    is ``_support_columns``': column s of ``out`` is the unknown D[a[s], b[s]].
    """
    a, b, groups = columns
    rings, every = (slice(None),), np.arange(out.shape[1])[:, None]
    for idx in tuples:
        wide = tuple(x[:, None] for x in idx)
        # d(x_1...x_s) at E_ab: coefficient b of the product, in row r = a.
        out[:, :, a, np.arange(len(a))] += prod[rings + wide + (b,)]
        for p, x in enumerate(idx):
            for member, slot, a_at in groups:
                # The tuples q whose x_p = b has w columns, at (q, column of (a, b)):
                # prod with factor p replaced by e_a, as (n, q, w, r) -> (q, w, n, r).
                if member is None:
                    q, at, xq = every, wide, x
                else:
                    q = np.flatnonzero(member[x])[:, None]
                    at, xq = tuple(i[q] for i in idx), x[q[:, 0]]
                out[:, q, :, slot[xq]] -= prod[
                    rings + at[:p] + (a_at[xq],) + at[p + 1:]].transpose(1, 2, 0, 3)


def _support_columns(k: int, support):
    """``_rule_rows``' columns for the unknowns at the ascending columns a + k*b of
    ``support`` (all k^2 when None): a and b of each column, then, for each number w of
    columns that one b has, the b's with w columns (a (k,) mask, None for every b) and
    (k, w) tables of their columns and of the a's there."""
    cols = np.arange(k * k) if support is None else np.asarray(support)
    b, a = np.divmod(cols, k) if k else (cols, cols)
    counts = np.bincount(b, minlength=k)
    # The columns of one b are one run, since support is ascending.
    start, groups = np.cumsum(counts) - counts, []
    for w in sorted(set(counts[counts > 0].tolist())):
        member = counts == w
        slot = np.where(member[:, None], start[:, None] + np.arange(w), 0)
        groups.append((None if member.all() else member, slot, a[slot]))
    return a, b, groups


def _constraint_rows(c: np.ndarray, m: int, kind: str, support=None) -> np.ndarray:
    """Raw constraint rows at d = E_ab (module docstring), D[a, b] at column a + k*b.

    ``c`` stacks the structure constants of rings over Z/m, and the result
    is indexed [ring, row, column].  Row order is fixed: product by (i, j);
    square by i; square-pol by (i, j) with i < j; then, over even m only
    (module docstring), triple by (i, j) and triple-pol by (i, l, j) with i < l.
    With an ascending ``support`` of columns a + k*b, only those columns are
    evaluated, in that order: the full rows restricted to them.
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
    columns = _support_columns(k, support)
    blocks, width = sum(len(t[0][0]) for _, t in families), len(columns[0])
    out = np.zeros((len(c), blocks, k, width), dtype=np.int64)
    start = 0
    for prod, tuples in families:
        stop = start + len(tuples[0][0])
        _rule_rows(out[:, start:stop], prod, tuples, columns)
        start = stop
    out %= m
    return out.reshape(len(c), blocks * k, width)


def _check_size(n: int, k: int, m: int, kind: str, columns: int | None = None) -> None:
    """Refuse, before allocating, the raw stack of ``kind`` for n rings of rank k over Z/m:
    n * blocks * k * columns entries, with k^2 columns unless a support gives fewer, k^2
    blocks for Der, and for Jordan k(k + 1) / 2 over odd m and k(k + 1)^2 / 2 over even m."""
    if kind == DERIVATION:
        blocks = k * k
    else:
        blocks = k * (k + 1) // 2 if m % 2 else k * (k + 1) ** 2 // 2
    entries = n * blocks * k * (k * k if columns is None else columns)
    if entries > _SOLVE_LIMIT:
        raise SizeBudgetError(entries, _SOLVE_LIMIT)


def _constraint_matrices(c: np.ndarray, m: int, kind: str, support=None) -> np.ndarray:
    """Per ring, zero rows, then its distinct nonzero raw rows once each in byte order: an
    (n, r', columns) view of the raw stack's head, r' the most that any ring has, so no
    row is zero in every ring."""
    rows = _constraint_rows(c, m, kind, support)
    # Most rows are zero in every ring (at rank 21, 11,184 of 106,722 are not).  Move the
    # others to the front in order, a run at a time, and sort only those: row live[i]
    # goes to i <= live[i], so no run reads a row that an earlier one wrote.
    live = np.flatnonzero(rows.any(axis=(0, 2)))
    step, head = max(1, _MOVE_ENTRIES // max(len(rows) * rows.shape[2], 1)), len(live)
    for start in range(0, head, step):
        run = live[start:start + step]
        rows[:, start:start + len(run)] = rows[:, run]
    rows = rows[:, :head]
    if rows.size:
        # Sort each ring's rows as byte strings, zero repeats, and sort the zeros to the front.
        strings = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[2])))
        strings.sort(axis=1)
        rows[:, 1:][(rows[:, 1:] == rows[:, :-1]).all(axis=2)] = 0
        strings.sort(axis=1)
    return rows[:, head - rows.any(axis=2).sum(axis=1).max(initial=0):]


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


def _solve_all(c: np.ndarray, m: int, kind: str, support=None):
    """The spaces of ``kind`` of the rings of a reduced stack c of structure constants
    over Z/m, self-checked.

    Returns the spaces as (n, k^2, k^2) Howell row slots (``SubgroupBasis``
    of ring i's slots is its space's basis), then, for every generator, ring
    by ring and slot by slot: its ring, its (k, k) map matrix (entry a + k*b
    of its slot row is D[a, b]) and whether it is a derivation (its product
    residual P is zero).  Without a ``support`` the slots are one
    ``zmodlin.kernels`` call on the full rows.  With the ascending
    ``peirce_support`` columns that every ring of the stack shares, the
    kernels are taken of the rows restricted to those columns, and the
    slots are the Howell form of those kernels, embedded, together with the
    inner derivations ad(b_i) (module docstring).  All generators are
    self-checked by one ``_first_violation`` pass, which reports the first
    violation in ring, generator and identity order.  No ring object is
    needed or made.
    """
    n, k = c.shape[:2]
    _check_size(n, k, m, kind, None if support is None else len(support))
    slots = kernels(m, _constraint_matrices(c, m, kind, support))
    if support is not None:
        union = np.zeros((n, k + len(support), k * k), dtype=np.int64)
        # ad(b_i) sends b_b to b_i b_b - b_b b_i: entry [n, i, b, a] at column a + k*b.
        union[:, :k] = ((c - c.transpose(0, 2, 1, 3)) % m).reshape(n, k, k * k)
        union[:, k:, support] = slots
        slots = _howell_forms(union, m)
    owner, slot = np.nonzero(slots.any(axis=2))
    D = slots[owner, slot].reshape(len(owner), k, k).transpose(0, 2, 1)
    derivation, first = _first_violation(c[owner], D, m, kind)
    if first is not None:
        raise SelfCheckError(f"solver generator violates {first[1]} at {first[2]}")
    return slots, owner, D, derivation


def _solve_one(ring: StructureRing, kind: str) -> DerivationSpace:
    """The space of ``kind`` of one ring: ``kernel``'s worklist, then ``check_map`` once
    per generator, which the benchmark harness (bench/test_harness.py) pins as one
    check_map call per kernel generator."""
    _check_size(1, ring.rank, ring.modulus, kind)
    rows = _constraint_matrices(ring.constants[None], ring.modulus, kind)[0]
    space = DerivationSpace(ring, kind, kernel(ZmMatrix.from_array(ring.modulus, rows)))
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


def _compare_stack(c: np.ndarray, m: int, support=None):
    """Decide Der = JDer for every ring of a reduced stack c of structure constants over Z/m.

    JDer is solved for the whole stack first (``_solve_all``), which flags
    the generators that are derivations.  Der is a subgroup of JDer, so a
    ring whose JDer generators are all derivations has Der = JDer with the
    same canonical basis.  Der is solved, in one more stacked call, only for
    the other rings, and one stacked Howell membership test checks that each
    Der contains every JDer generator before the first non-derivation, the
    witness, and not the witness.  Both solves take ``support``, which all
    the rings share (``_solve_all``).  Returns the JDer slots, the indices
    of the rings with Der != JDer, the (k, k) map matrices of their
    witnesses and their Der slots.
    """
    jder, owner, D, derivation = _solve_all(c, m, JORDAN, support)
    bad = np.flatnonzero(~derivation)
    # owner is sorted, so the first bad generator of each ring starts a run of owner[bad].
    first = bad[np.flatnonzero(np.diff(owner[bad], prepend=-1))]
    proper = owner[first]
    der = _solve_all(c[proper], m, DERIVATION, support)[0] if len(proper) else jder[:0]
    # Every generator of a ring in ``proper`` up to its witness, and that ring's Der slots.
    witness_of, der_of = np.full(len(c), -1), np.zeros(len(c), dtype=np.intp)
    witness_of[proper], der_of[proper] = first, np.arange(len(proper))
    tested = np.flatnonzero(np.arange(len(owner)) <= witness_of[owner])
    # Generator g is the g-th nonzero slot row, in the order of owner.
    inside = slots_contain(m, der[der_of[owner[tested]]], jder[jder.any(axis=2)][tested])
    if (inside != (tested < witness_of[owner[tested]])).any():
        raise SelfCheckError("Der solve disagrees with the first non-derivation generator")
    return jder, proper, D[first], der


def compare_all(rings) -> list:
    """``compare_spaces`` of each ring; ValueError unless all share one modulus and rank.

    The decision is ``_compare_stack``'s, on the stacked structure
    constants: one kernel solve for JDer and one for the rings with
    Der != JDer, each stacked unless it has one ring.  When every ring has
    the same ``peirce_support`` (pair rings of one pair layout over unital
    bases), the solves are restricted to it.  This adds the spaces,
    witnesses and comparisons as objects.  ``rings`` may be any iterable.
    """
    rings = list(rings)
    if len({(ring.modulus, ring.rank) for ring in rings}) > 1:
        raise ValueError("a batch needs rings of one modulus and rank")
    if not rings:
        return []
    m, support = rings[0].modulus, rings[0].peirce_support()
    if support is not None and not all(
            np.array_equal(ring.peirce_support(), support) for ring in rings[1:]):
        support = None
    jder, proper, witnesses, der = _compare_stack(
        np.stack([ring.constants for ring in rings]), m, support)
    found = dict(zip(proper.tolist(), zip(witnesses, der)))
    out = []
    for n, ring in enumerate(rings):
        jspace = DerivationSpace(ring, JORDAN, SubgroupBasis(ZmMatrix.from_array(m, jder[n])))
        if n in found:
            witness, slots = found[n]
            dspace = DerivationSpace(ring, DERIVATION, SubgroupBasis(ZmMatrix.from_array(m, slots)))
            out.append(SpaceComparison(False, AdditiveMap(ring, witness), dspace, jspace))
        else:
            out.append(SpaceComparison(True, None, DerivationSpace(ring, DERIVATION, jspace.basis), jspace))
    return out
