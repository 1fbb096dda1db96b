"""Exact linear algebra over Z/m: Howell forms, kernels, subgroup arithmetic.

Subgroups of (Z/m)^N are represented by generating sets in Howell normal
form, which is canonical for the row span: two generating sets describe the
same subgroup if and only if their Howell forms are identical.  Over prime m
this is the familiar reduced row echelon form; over composite m the form
additionally contains "annihilator" rows that make membership testing and
span comparison exact (a row with pivot d also contributes (m/d) times
itself, whose leading entry vanishes mod m).

All arithmetic is exact on 64-bit integers.  Moduli up to 2^31 are accepted.
Every contraction over Z/m in this package goes through :func:`einsum_mod`.
Its operands must be int64 arrays reduced to [0, m), and every summed index
must appear in both operands; it then keeps each sum exact in int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    """Canonical (Howell-form) generating set of a subgroup of (Z/m)^dim.

    The generators are the rows of ``matrix``.  Instances are produced by
    :func:`howell_form`, :func:`kernel` and :func:`kernels`; equality of two
    bases is equality of the subgroups they span.
    """

    matrix: ZmMatrix

    @cached_property
    def _pivots(self) -> tuple[tuple[int, int], ...]:
        # Found on first use: a kernel whose pivots nobody reads costs no scan.
        a = self.matrix.as_array()
        zero = ~a.any(axis=1)
        if zero.any():
            raise ValueError(f"basis row {int(zero.argmax())} is zero and has no pivot")
        cols = (a != 0).argmax(axis=1) if a.size else np.zeros(0, dtype=np.intp)
        values = a[np.arange(len(cols)), cols]
        bad = self.modulus % values != 0
        if bad.any():
            row = int(bad.argmax())
            raise ValueError(f"basis row {row} has pivot {values[row]}, "
                             f"which does not divide {self.modulus}")
        return tuple(zip(cols.tolist(), values.tolist()))

    @property
    def modulus(self) -> int:
        return self.matrix.modulus

    @property
    def dim(self) -> int:
        return self.matrix.ncols

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return self.matrix.rows

    def as_array(self) -> np.ndarray:
        """The generators as the rows of a read-only int64 array."""
        return self.matrix.as_array()

    def contains(self, v) -> bool:
        """Exact membership of the vector v (reduced mod m) in the subgroup."""
        return self.coordinates(v) is not None

    def coordinates(self, v) -> tuple[int, ...] | None:
        """Coefficients expressing v over the generators, or None if v is outside.

        Greedy reduction against the Howell form: at each pivot column the
        residual entry must be divisible by the pivot; by the Howell property
        this greedy pass is complete.
        """
        m = self.modulus
        cur = np.asarray(v, dtype=np.int64) % m
        if cur.shape != (self.dim,):
            raise DimensionMismatch(
                f"dimension mismatch: basis ambient {self.dim}, vector shape {cur.shape}"
            )
        coeffs = []
        for row, (j, d) in zip(self.as_array(), self._pivots):
            r = int(cur[j])
            if r % d != 0:
                return None
            q = r // d
            coeffs.append(q)
            if q:
                cur = (cur - q * row) % m
        if cur.any():
            return None
        return tuple(coeffs)

    def cardinality(self) -> int:
        """Number of elements in the subgroup: the product of m/pivot over rows."""
        card = 1
        for _, d in self._pivots:
            card *= self.modulus // d
        return card

    def pivots(self) -> tuple[tuple[int, int], ...]:
        """(column, value) of each generator's leading entry."""
        return self._pivots


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


def _howell_rows(arr: np.ndarray, m: int) -> list[np.ndarray]:
    """Howell-form rows (ascending pivot columns) spanning the same row space.

    Worklist elimination: rows are merged into an echelon basis with xgcd
    combinations (unimodular over Z, hence span-preserving mod m); whenever a
    pivot value g is created, the annihilator multiple (m/g)*row re-enters the
    worklist so that the span of trailing columns is fully represented.
    Pivots shrink along the divisor lattice of m, so the loop terminates.
    """
    basis: dict[int, np.ndarray] = {}
    # The Howell form is canonical, so row order and repeats do not matter.
    pending: list[np.ndarray] = [row for row in arr % m if row.any()]

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

    # Reduce entries above each pivot into [0, pivot).
    cols = sorted(basis)
    for j in cols:
        d = int(basis[j][j])
        for i in cols:
            if i < j:
                q = int(basis[i][j]) // d
                if q:
                    basis[i] = (basis[i] - q * basis[j]) % m
    return [basis[j] for j in cols]


def _howell_stack(stack: np.ndarray, m: int) -> np.ndarray:
    """Howell forms of an (n, r, C) int64 stack reduced to [0, m), in lockstep.

    Row j of each (C, C) result holds the Howell row with pivot column j, or
    zeros.  Column by column (Storjohann and Mulders): Euclid across rows,
    by subtracting multiples of each matrix's row with the smallest nonzero
    entry, leaves one nonzero entry per matrix; that row is normalized by a
    unit, moves to its slot, and leaves its annihilator (m/g)*row behind, as
    in ``_howell_rows``.  Rows zero in every matrix are dropped once, up
    front; dropping later ones would copy the stack per column, which on one
    large matrix costs more than it saves.  Every product is of two residues,
    so it is exact.
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
    # Reduce entries above each pivot into [0, pivot); an empty slot has q = 0.
    for j in range(1, cols):
        q = out[:, :j, j] // np.maximum(out[:, j, j], 1)[:, None]
        mi, ri = np.nonzero(q)
        out[mi, ri] = (out[mi, ri] - q[mi, ri, None] * out[mi, j]) % m
    return out


def howell_form(matrix: ZmMatrix) -> SubgroupBasis:
    """Canonical basis of the row span of ``matrix`` over Z/m."""
    m = matrix.modulus
    rows = np.array(_howell_rows(matrix.as_array(), m), dtype=np.int64)
    return SubgroupBasis(ZmMatrix.from_array(m, rows.reshape(len(rows), matrix.ncols)))


def kernel(matrix: ZmMatrix) -> SubgroupBasis:
    """Canonical basis of {v : matrix @ v = 0 (mod m)}.

    The row span of [M^T | I] consists of all pairs (x M^T | x).  In its
    Howell form the rows whose left block vanishes are the rows with pivots
    past that block, so by the Howell property they generate exactly the
    kernel of M, and their right blocks are already its Howell form.  All
    generators are re-checked by one multiplication before returning.
    """
    m = matrix.modulus
    a = matrix.as_array()
    nrows, ncols = a.shape
    aug = np.concatenate([a.T, np.eye(ncols, dtype=np.int64)], axis=1)
    gens = [row[nrows:] for row in _howell_rows(aug, m) if not row[:nrows].any()]
    gens = np.array(gens, dtype=np.int64).reshape(len(gens), ncols)
    if einsum_mod("ij,kj->ik", a, gens, m).any():
        raise SelfCheckError("kernel generator failed re-multiplication check")
    return SubgroupBasis(ZmMatrix.from_array(m, gens))


def kernels(modulus: int, stack) -> list[SubgroupBasis]:
    """``kernel`` of each matrix of an (n, r, N) integer stack over Z/modulus.

    All matrices are eliminated in lockstep by ``_howell_stack``: first to
    their Howell forms H, whose kernels are theirs, then [H^T | I] as in
    ``kernel``, so the second pass has 2N columns whatever r is.  Per call it
    costs a few numpy steps per column and Euclid round, so it pays on many
    small matrices; on one large sparse matrix ``kernel``'s worklist is
    faster.  All generators are re-checked by one stacked multiplication.
    """
    _validate_modulus(modulus)
    m, stack = modulus, np.asarray(stack, dtype=np.int64) % modulus
    n, _, ncols = stack.shape
    eye = np.broadcast_to(np.eye(ncols, dtype=np.int64), (n, ncols, ncols))
    howell = _howell_stack(stack, m).transpose(0, 2, 1)
    gens = _howell_stack(np.concatenate([howell, eye], axis=2), m)[:, ncols:, ncols:]
    if einsum_mod("nij,nkj->nik", stack, gens, m).any():
        raise SelfCheckError("kernel generator failed re-multiplication check")
    return [SubgroupBasis(ZmMatrix.from_array(m, g[g.any(axis=1)])) for g in gens]


def subgroup_equal(a: SubgroupBasis, b: SubgroupBasis) -> bool:
    """Whether two canonical bases span the same subgroup."""
    if a.modulus != b.modulus or a.dim != b.dim:
        raise DimensionMismatch(
            "subgroups live in different ambient groups: "
            f"(Z/{a.modulus})^{a.dim} vs (Z/{b.modulus})^{b.dim}"
        )
    return a.matrix == b.matrix

