"""Exact linear algebra over Z/m: Howell forms, kernels, subgroup arithmetic.

Subgroups of (Z/m)^N are represented by generating sets in Howell normal
form, which is canonical for the row span: two generating sets describe the
same subgroup if and only if their Howell forms are identical.  Over prime m
this is the familiar reduced row echelon form; over composite m the form
additionally contains "annihilator" rows that make membership testing and
span comparison exact (a row with pivot d also contributes (m/d) times
itself, whose leading entry vanishes mod m).  A Howell form has at most one
row per pivot column, so it is held as (N, N) row slots: row j is the Howell
row with pivot column j, or zeros.

All arithmetic is exact on 64-bit integers.  Moduli up to 2^31 are accepted.
Every contraction over Z/m in this package goes through :func:`einsum_mod`.
Its operands must be int64 arrays reduced to [0, m), and every summed index
must appear in both operands; it then keeps each sum exact in int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_MODULUS",
    "DimensionMismatch",
    "SelfCheckError",
    "ZmMatrix",
    "SubgroupBasis",
    "einsum_mod",
    "howell_form",
    "kernel",
    "kernels",
    "slots_contain",
    "subgroup_equal",
]

MAX_MODULUS = 1 << 31


class DimensionMismatch(ValueError):
    """Operands disagree on modulus or ambient dimension."""


class SelfCheckError(AssertionError):
    """A computed result failed the independent re-check run on it."""


def _validate_modulus(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or not 2 <= m <= MAX_MODULUS:
        raise ValueError(f"modulus must be an integer in [2, 2^31], got {m!r}")


def einsum_mod(spec: str, a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """``np.einsum(spec, a, b) % m``, exact for every modulus up to 2^31.

    a and b are int64 arrays reduced to [0, m), and every summed index
    appears in both, so a sum has at most min(a.size, b.size) terms, each
    at most (m - 1)^2.  Sums that fit in int64 are contracted directly; larger
    ones split both operands into 16-bit halves, whose four partial sums stay
    below 2^63 for summed lengths below 2^31, and are recombined mod m.
    """
    if (a.size if a.size < b.size else b.size) * (m - 1) ** 2 < 1 << 63:
        out = np.einsum(spec, a, b)
        out %= m
        return out
    a_hi, a_lo, b_hi, b_lo = a >> 16, a & 0xFFFF, b >> 16, b & 0xFFFF
    out = np.einsum(spec, a_hi, b_hi) % m
    for part in (np.einsum(spec, a_hi, b_lo) + np.einsum(spec, a_lo, b_hi),
                 np.einsum(spec, a_lo, b_lo)):
        out = ((out << 16) % m + part % m) % m
    return out


class ZmMatrix:
    """Rectangular residue matrix over Z/m, held as one read-only int64 array.

    Entries are reduced to [0, m).  ``rows`` gives the same matrix as a tuple
    of int tuples; equality and hashing are those of the modulus, the shape
    and the entries.
    """

    def __init__(self, modulus: int, rows) -> None:
        _validate_modulus(modulus)
        reduced = [[int(e) % modulus for e in row] for row in rows]
        if len({len(row) for row in reduced}) > 1:
            raise ValueError("matrix rows must all have the same length")
        shape = (len(reduced), len(reduced[0]) if reduced else 0)
        self._set(modulus, np.array(reduced, dtype=np.int64).reshape(shape))

    def _set(self, modulus: int, array: np.ndarray) -> None:
        array.setflags(write=False)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_array", array)

    def __setattr__(self, name, value):
        raise AttributeError("ZmMatrix is immutable")

    @classmethod
    def from_array(cls, modulus: int, arr) -> "ZmMatrix":
        _validate_modulus(modulus)
        a = np.asarray(arr, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        out = cls.__new__(cls)
        out._set(modulus, a % modulus)
        return out

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._array.tolist()))

    @property
    def nrows(self) -> int:
        return self._array.shape[0]

    @property
    def ncols(self) -> int:
        return self._array.shape[1]

    def as_array(self) -> np.ndarray:
        """The entries as a read-only (nrows, ncols) int64 array."""
        return self._array

    def __eq__(self, other):
        if not isinstance(other, ZmMatrix):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        return self.modulus, self._array.shape, self._array.tobytes()

    def __repr__(self):
        return f"ZmMatrix(modulus={self.modulus}, rows={self.rows})"


@dataclass(frozen=True)
class SubgroupBasis:
    """Canonical (Howell-form) generating set of a subgroup of (Z/m)^dim, as row slots.

    ``matrix`` is a (dim, dim) ZmMatrix whose row j is the Howell row with
    pivot column j, or zeros, as one matrix of a :func:`kernels` result;
    the generators are its nonzero rows in pivot order.  Instances are
    produced by :func:`howell_form` and :func:`kernel`; equality of two
    bases is equality of the subgroups they span.
    """

    matrix: ZmMatrix

    def __post_init__(self):
        a, m = self.matrix.as_array(), self.modulus
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"basis slots must be a square matrix, got shape {a.shape}")
        pivots, nonzero = a.diagonal(), a != 0
        bad = np.flatnonzero(nonzero.any(axis=1) & ((pivots == 0) | np.tril(nonzero, -1).any(axis=1)
                                                    | (m % np.maximum(pivots, 1) != 0)))
        if bad.size:
            raise ValueError(f"basis slot {bad[0]} must lead at column {bad[0]} with a divisor of {m}")

    @property
    def modulus(self) -> int:
        return self.matrix.modulus

    @property
    def dim(self) -> int:
        return self.matrix.ncols

    @property
    def slots(self) -> np.ndarray:
        """The read-only (dim, dim) int64 array of row slots."""
        return self.matrix.as_array()

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.as_array().tolist()))

    def as_array(self) -> np.ndarray:
        """The generators as the rows of a read-only int64 array."""
        a = self.slots
        gens = a[a.diagonal() != 0]
        gens.setflags(write=False)
        return gens

    def contains(self, v) -> bool:
        """Exact membership of the vector v (reduced mod m) in the subgroup."""
        return self.coordinates(v) is not None

    def coordinates(self, v) -> tuple[int, ...] | None:
        """Coefficients expressing v over the generators, or None if v is outside."""
        cur = np.asarray(v, dtype=np.int64)
        if cur.shape != (self.dim,):
            raise DimensionMismatch(
                f"dimension mismatch: basis ambient {self.dim}, vector shape {cur.shape}"
            )
        q, rest = _reduce(self.modulus, self.slots[None], cur[None])
        if rest.any():
            return None
        return tuple(q[0, self.slots.diagonal() != 0].tolist())

    def cardinality(self) -> int:
        """Number of elements in the subgroup: the product of m/pivot over generators."""
        return math.prod(self.modulus // d for _, d in self.pivots())

    def pivots(self) -> tuple[tuple[int, int], ...]:
        """(column, value) of each generator's leading entry."""
        pivots = self.slots.diagonal()
        cols = np.flatnonzero(pivots)
        return tuple(zip(cols.tolist(), pivots[cols].tolist()))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with s*a + t*b = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _unit_for(a: int, m: int) -> int:
    """A unit u mod m with u*a = gcd(a, m) (mod m); requires a != 0 mod m.

    With g = gcd(a, m) and n = m/g, the inverse of a/g mod n lifts to a unit
    of Z/m after adding a suitable multiple of n; a valid multiple exists
    below g (one congruence class per prime dividing m but not n is excluded).
    """
    a %= m
    g = math.gcd(a, m)
    n = m // g
    if n == 1:
        raise ValueError("zero entry has no normalizing unit")
    u = pow((a // g) % n, -1, n)
    for _ in range(g + 1):
        if math.gcd(u, m) == 1:
            return u % m
        u += n
    raise AssertionError("unit normalization failed")  # unreachable


def _howell_rows(arr: np.ndarray, m: int) -> dict[int, np.ndarray]:
    """Echelon rows with the Howell property spanning the rows of arr, reduced mod m, by pivot column.

    Worklist elimination: rows are merged into an echelon basis with xgcd
    combinations (unimodular over Z, hence span-preserving mod m); whenever a
    pivot value g is created, the annihilator multiple (m/g)*row re-enters the
    worklist so that the span of trailing columns is fully represented.
    Pivots shrink along the divisor lattice of m, so the loop terminates.
    Entries above the pivots are left as they fall (``_reduce_above_pivots``).
    """
    basis: dict[int, np.ndarray] = {}
    # The Howell form is canonical, so row order and repeats do not matter.
    pending: list[np.ndarray] = [row for row in arr if row.any()]

    def push_annihilator(row: np.ndarray, pivot: int) -> None:
        if pivot != 1:
            ann = (row * (m // pivot)) % m
            if ann.any():
                pending.append(ann)

    while pending:
        v = pending.pop()
        while v is not None:
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                break
            j = int(nz[0])
            if j not in basis:
                u = _unit_for(int(v[j]), m)
                v = (v * u) % m
                basis[j] = v
                push_annihilator(v, int(v[j]))
                break
            h = basis[j]
            a, b = int(h[j]), int(v[j])
            if b % a == 0:
                v = (v - (b // a) * h) % m
            else:
                g, s, t = _xgcd(a, b)
                new_h = ((s % m) * h + (t % m) * v) % m
                v = ((a // g) * v - (b // g) * h) % m
                basis[j] = new_h
                push_annihilator(new_h, g)
    return basis


def _howell_stack(stack: np.ndarray, m: int) -> np.ndarray:
    """Echelon forms with the Howell property of an (n, r, C) int64 stack reduced to [0, m).

    Row j of each (C, C) result holds the row with pivot column j, or zeros;
    entries above the pivots are left as they fall, as in ``_howell_rows``.
    Column by column, in lockstep (Storjohann and Mulders): Euclid across
    rows, by subtracting multiples of each matrix's row with the smallest
    nonzero entry, leaves one nonzero entry per matrix; that row is
    normalized by a unit, moves to its slot, and leaves its annihilator
    (m/g)*row behind.  Rows zero in every matrix are dropped once, up front.
    Every product is of two residues, so it is exact.
    """
    n, _, cols = stack.shape
    out = np.zeros((n, cols, cols), dtype=np.int64)
    work = stack[:, stack.any(axis=(0, 2))]  # a copy: the caller's stack is kept
    for j in range(cols if work.shape[1] else 0):
        col = work[:, :, j]
        while True:
            nonzero = col != 0
            many = np.flatnonzero(np.count_nonzero(nonzero, axis=1) > 1)
            if not many.size:
                break
            p = np.where(nonzero[many], col[many], m).argmin(axis=1)
            q = col[many] // col[many, p][:, None]
            q[np.arange(len(many)), p] = 0
            mi, ri = np.nonzero(q)
            rows, pivots = (many[mi], ri), work[many[mi], p[mi]]
            work[rows] = (work[rows] - q[mi, ri, None] * pivots) % m
        mi = np.flatnonzero(col.any(axis=1))
        ri = col[mi].argmax(axis=1)
        entries = col[mi, ri].tolist()
        # One _unit_for per distinct entry; np.unique would import numpy.ma.
        units = {a: _unit_for(a, m) for a in set(entries)}
        row = work[mi, ri] * np.array([units[a] for a in entries], dtype=np.int64)[:, None] % m
        out[mi, j] = row
        work[mi, ri] = row * (m // row[:, j])[:, None] % m
    return out


def _reduce_above_pivots(slots: np.ndarray, m: int) -> np.ndarray:
    """Reduce the entries above each pivot of an (n, C, C) slot stack into [0, pivot), in place.

    Slot j holds the row with pivot column j, or zeros.  Pivot columns go
    left to right, and a row reduced at column j keeps its entries left of
    j, so echelon slots with the Howell property become the Howell form.
    """
    pivots = slots.diagonal(axis1=1, axis2=2)
    for j in np.flatnonzero(pivots.any(axis=0)):
        q = slots[:, :j, j] // np.maximum(pivots[:, j], 1)[:, None]
        mi, ri = np.nonzero(q)
        slots[mi, ri] = (slots[mi, ri] - q[mi, ri, None] * slots[mi, j]) % m
    return slots


def _basis(m: int, slots: np.ndarray) -> SubgroupBasis:
    """The basis held in reduced (dim, dim) Howell row slots, as built: a copy costs peak RSS."""
    matrix = ZmMatrix.__new__(ZmMatrix)
    matrix._set(m, slots)
    return SubgroupBasis(matrix)


def howell_form(matrix: ZmMatrix) -> SubgroupBasis:
    """Canonical basis of the row span of ``matrix`` over Z/m."""
    m, dim = matrix.modulus, matrix.ncols
    slots = np.zeros((1, dim, dim), dtype=np.int64)
    for j, row in _howell_rows(matrix.as_array(), m).items():
        slots[0, j] = row
    return _basis(m, _reduce_above_pivots(slots, m)[0])


def kernel(matrix: ZmMatrix) -> SubgroupBasis:
    """Canonical basis of {v : matrix @ v = 0 (mod m)}: ``kernels`` on a stack of one."""
    return _basis(matrix.modulus, kernels(matrix.modulus, matrix.as_array()[None])[0])


def kernels(modulus: int, stack) -> np.ndarray:
    """The kernel of each matrix of an (n, r, N) stack reduced to [0, modulus), as row slots.

    Returns an (n, N, N) int64 array: row j of matrix i is the Howell row of
    the i-th kernel with pivot column j, or zeros, so ``SubgroupBasis`` of
    matrix i is that kernel's canonical basis.  The row span of [M^T | I]
    consists of all pairs (x M^T | x).  In an echelon form of it with the
    Howell property, the rows whose left block vanishes are the rows with
    pivots past that block, so they generate exactly the kernel of M, and
    one ``_reduce_above_pivots`` pass makes their right blocks its Howell form.
    A stack of one takes ``_howell_rows``' worklist on [M^T | I] of its
    nonzero rows.  Larger stacks are eliminated in lockstep by
    ``_howell_stack``: first to echelon forms H, whose kernels are theirs,
    then [H^T | I], so the second pass has 2N columns whatever r is.  Per
    call it costs a few numpy steps per column and Euclid round, so it pays
    on many small matrices; on one large sparse matrix the worklist is
    faster.  One stacked multiplication re-checks every generator.
    """
    _validate_modulus(modulus)
    m, stack = modulus, np.asarray(stack, dtype=np.int64)
    n, _, ncols = stack.shape
    eye = np.eye(ncols, dtype=np.int64)
    if n == 1:
        live = stack[0].any(axis=1)
        # Copies of kernel's rows, or slots allocated after the worklist, cost peak RSS.
        stack = stack if live.all() else stack[:, live]
        r = stack.shape[1]
        gens = np.zeros((1, ncols, ncols), dtype=np.int64)
        for j, row in _howell_rows(np.concatenate([stack[0].T, eye], axis=1), m).items():
            if j >= r:
                gens[0, j - r] = row[r:]
    else:
        howell = _howell_stack(stack, m).transpose(0, 2, 1)
        gens = _howell_stack(np.concatenate([howell, np.broadcast_to(eye, (n, ncols, ncols))],
                                            axis=2), m)[:, ncols:, ncols:]
    _reduce_above_pivots(gens, m)
    if einsum_mod("nij,nkj->nik", stack, gens[:, gens.any(axis=(0, 2))], m).any():
        raise SelfCheckError("kernel generator failed re-multiplication check")
    return gens


def _reduce(m: int, slots: np.ndarray, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Greedy reduction of each vectors[i] by the Howell row slots slots[i]: (q, residual).

    At each pivot column the slot row clears the multiple of its pivot that
    the residual entry holds.  By the Howell property vectors[i] lies in the
    span exactly when its residual is zero, and then q[i, j] is its
    coefficient on slot j wherever slot j is filled.
    """
    cur = np.asarray(vectors, dtype=np.int64) % m
    q = np.zeros_like(cur)
    pivots = slots.diagonal(axis1=1, axis2=2)
    for j in np.flatnonzero(pivots.any(axis=0)):
        q[:, j] = cur[:, j] // np.maximum(pivots[:, j], 1)
        cur = (cur - q[:, j, None] * slots[:, j]) % m
    return q, cur


def slots_contain(modulus: int, slots: np.ndarray, vectors) -> np.ndarray:
    """Whether vectors[i] lies in the span of the Howell row slots slots[i], for each i.

    ``slots`` is an (n, N, N) array as :func:`kernels` returns, ``vectors``
    an (n, N) integer array; the test is the greedy reduction of
    ``SubgroupBasis.contains``.
    """
    return ~_reduce(modulus, slots, vectors)[1].any(axis=1)


def subgroup_equal(a: SubgroupBasis, b: SubgroupBasis) -> bool:
    """Whether two canonical bases span the same subgroup."""
    if a.modulus != b.modulus or a.dim != b.dim:
        raise DimensionMismatch(
            "subgroups live in different ambient groups: "
            f"(Z/{a.modulus})^{a.dim} vs (Z/{b.modulus})^{b.dim}"
        )
    return a.matrix == b.matrix

