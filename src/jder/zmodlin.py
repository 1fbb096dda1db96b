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
Every contraction over Z/m in this package goes through :func:`einsum_mod`,
as one batched int64 ``np.matmul``: each operand's ``...`` is right-aligned,
a is laid out as (batch, rows, summed) and b as (batch, summed, columns),
where rows and columns end the output and an operand without a batch label
broadcasts it, so the product is the output in the spec's order.  Its
operands must be int64 arrays reduced to [0, m), each label may appear once
per operand, and every summed label must appear in both operands with one
length; the bound that keeps each sum exact in int64, with a 16-bit split
above it, is that of a sum of at most min(a.size, b.size) terms.
"""

from __future__ import annotations

import functools
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


def _integer(e) -> int:
    """A Python or numpy integer as an int; ValueError naming anything else (2.5, 2.0, "2")."""
    if isinstance(e, (int, np.integer)):
        return int(e)
    raise ValueError(f"entries must be integers, got {e!r}")


def _int64_array(values) -> np.ndarray:
    """``values`` as an int64 array; ValueError naming its first entry that is not an integer."""
    a = np.asarray(values)
    if a.dtype.kind not in "iub":
        for e in a.ravel().tolist():
            _integer(e)
    return a.astype(np.int64, copy=False)


# Stand-in labels for the axes of ``...``, right-aligned: the last axis takes the
# last one.  einsum labels are ASCII letters, so none can clash.
_DOTS = "".join(map(chr, range(0x100, 0x140)))


@functools.lru_cache(maxsize=1024)
def _contraction_plan(spec: str, ndim_a: int, ndim_b: int) -> tuple:
    """How :func:`einsum_mod` lays ``spec`` out as one batched matmul of operands
    with ``ndim_a`` and ``ndim_b`` axes: (axes of a, new axes of a, axes of b,
    new axes of b, #batch, #rows, #summed).

    ``...`` is right-aligned in each operand, as numpy broadcasts it.  Summed
    labels are in both operands only.  The output ends in its columns, the
    longest run of labels of b alone that also lies in b in that order, after
    its rows, the longest such run of a; its other labels are batch labels,
    where an operand without the label gets a new axis of length 1.  So the
    product (batch, rows, columns) is the output in the spec's order, and an
    operand is copied only to flatten summed labels that do not lie together,
    in one order, in both.  A spec outside this contract raises ValueError
    naming it.
    """
    inputs, arrow, output = spec.partition("->")
    term_a, comma, term_b = inputs.partition(",")
    dots_a = ndim_a - len(term_a.replace("...", ""))
    dots_b = ndim_b - len(term_b.replace("...", ""))
    la = term_a.replace("...", _DOTS[len(_DOTS) - dots_a:] if dots_a > 0 else "")
    lb = term_b.replace("...", _DOTS[len(_DOTS) - dots_b:] if dots_b > 0 else "")
    lo = output.replace("...", _DOTS[len(_DOTS) - max(dots_a, dots_b, 0):])
    if (not arrow or not comma or "," in term_b or "." in la + lb + lo
            or len(la) != ndim_a or len(lb) != ndim_b):
        raise ValueError(f"einsum_mod spec {spec!r} does not fit operands of {ndim_a} and {ndim_b} axes")
    sa, sb, so = set(la), set(lb), set(lo)
    if (len(sa) < len(la) or len(sb) < len(lb) or len(so) < len(lo) or sa - so != sb - so
            or not so <= sa | sb):
        raise ValueError("einsum_mod needs each label once per operand and every summed "
                         f"label in both operands, got {spec!r}")

    def run(head: str, own: str, other: set) -> str:  # own's labels alone that end head, in own's order
        start = len(head)
        while start and head[start - 1] in own and head[start - 1] not in other:
            start -= 1
        while head[start:] not in own:
            start += 1
        return head[start:]

    cols = run(lo, lb, sa)
    rows = run(lo[:len(lo) - len(cols)], la, sb)
    batch, summed = lo[:len(lo) - len(cols) - len(rows)], [l for l in la if l not in so]
    return (tuple(la.index(l) for l in [*batch, *rows, *summed] if l in sa),
            tuple(slice(None) if l in sa else None for l in batch),
            tuple(lb.index(l) for l in [*batch, *summed, *cols] if l in sb),
            tuple(slice(None) if l in sb else None for l in batch),
            len(batch), len(rows), len(summed))


def einsum_mod(spec: str, a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """The contraction ``spec`` of a and b, as numpy's einsum reads it, mod m, as one
    batched matmul, exact for every modulus up to 2^31.

    a and b are int64 arrays reduced to [0, m), each label appears at most
    once per operand, and every summed label appears in both with one
    length, so a sum has at most min(a.size, b.size) terms, each at most
    (m - 1)^2; summed lengths that differ raise ValueError.  a is laid out as
    (batch..., rows, summed) and b as (batch..., summed, columns), batch axes
    of length 1 broadcasting, and one ``np.matmul`` contracts them into the
    output (``_contraction_plan``).  Sums that fit in int64 are contracted
    directly and reduced in place, by a mask when m is a power of two;
    larger ones split both operands into 16-bit halves, whose four partial
    sums stay below 2^63 for summed lengths below 2^31, and are recombined
    mod m.
    """
    axes_a, new_a, axes_b, new_b, nb, nr, ns = _contraction_plan(spec, a.ndim, b.ndim)
    small = (a.size if a.size < b.size else b.size) * (m - 1) ** 2 < 1 << 63
    a, b = a.transpose(axes_a)[new_a], b.transpose(axes_b)[new_b]
    rows, cols = a.shape[nb:nb + nr], b.shape[nb + ns:]
    if a.shape[nb + nr:] != b.shape[nb:nb + ns]:
        # numpy's einsum would broadcast a summed axis of length 1; the bound above would not hold.
        raise ValueError(f"einsum_mod spec {spec!r} sums axes of lengths {a.shape[nb + nr:]} "
                         f"and {b.shape[nb:nb + ns]}")
    summed = math.prod(a.shape[nb + nr:])
    a = a.reshape(a.shape[:nb] + (math.prod(rows), summed))
    b = b.reshape(b.shape[:nb] + (summed, math.prod(cols)))
    # The result is filled through a (batch, rows, columns) view, so it owns its data, as
    # numpy's einsum output does: numpy reuses such a temporary in place in a caller's expression.
    batch = tuple(x if y == 1 else y for x, y in zip(a.shape[:nb], b.shape[:nb]))
    result = np.empty(batch + rows + cols, dtype=np.int64)
    out = result.reshape(batch + (a.shape[-2], b.shape[-1]))
    if small:
        np.matmul(a, b, out=out)
        # The sums are nonnegative, so for m a power of two the mask is the residue;
        # an int64 remainder costs about five times as much.
        if m & (m - 1):
            out %= m
        else:
            out &= m - 1
    else:
        a_hi, a_lo, b_hi, b_lo = a >> 16, a & 0xFFFF, b >> 16, b & 0xFFFF
        out[...] = np.matmul(a_hi, b_hi) % m
        for part in (np.matmul(a_hi, b_lo) + np.matmul(a_lo, b_hi), np.matmul(a_lo, b_lo)):
            out[...] = ((out << 16) % m + part % m) % m
    return result


class ZmMatrix:
    """Rectangular residue matrix over Z/m, held as one read-only int64 array.

    Entries are reduced to [0, m).  ``rows`` gives the same matrix as a tuple
    of int tuples; equality and hashing are those of the modulus, the shape
    and the entries.
    """

    def __init__(self, modulus: int, rows) -> None:
        _validate_modulus(modulus)
        reduced = [[_integer(e) % modulus for e in row] for row in rows]
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
        a = _int64_array(arr)
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
        cur = _int64_array(v)
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

    Worklist elimination.  A row that leads at a free column joins the basis,
    normalized by a unit, and queues its annihilator (m/g)*row.  A row v that
    leads at column j of a basis row h is merged by ``_howell_stack``'s Euclid
    steps, v -= (v[j] // h[j]) * h, swapping h and v while v[j] != 0; the steps
    are unimodular over Z, so they keep the span mod m, and v goes on down the
    list.  A merge queues no annihilator: if it turns h (pivot g) and v into h'
    (pivot g' = gcd(g, v[j])) and v' (zero at j), then (m/g')*h' = (m/g)*h + c*v'
    for an integer c, and both terms, zero through column j, are already in the
    worklist.  Pivots shrink along the divisor lattice of m, so the loop
    terminates.  Entries above the pivots are left as they fall
    (``_reduce_above_pivots``).
    """
    basis: dict[int, np.ndarray] = {}
    # The Howell form is canonical, so row order and repeats do not matter.
    pending: list[np.ndarray] = [row for row in arr if row.any()]
    while pending:
        v = pending.pop()
        while (nz := np.flatnonzero(v)).size:
            j = int(nz[0])
            h = basis.get(j)
            if h is None:
                basis[j] = v = v * _unit_for(int(v[j]), m) % m
                if v[j] != 1:
                    pending.append(v * (m // int(v[j])) % m)
                break
            # The Euclid steps on h[j] and v[j], as ints: numpy scalars cost more.
            a, b = int(h[j]), int(v[j])
            while True:
                v, b = (v - b // a * h) % m, b % a
                if not b:
                    break
                h, v, a, b = v, h, b, a
            basis[j] = h
    return basis


def _howell_stack(stack: np.ndarray, m: int, first: int) -> np.ndarray:
    """Echelon forms with the Howell property of an (n, r, C) int64 stack reduced to [0, m),
    as the row slots of ``_howell_forms`` before ``_reduce_above_pivots``; the stack is
    overwritten.

    Column by column, in lockstep (Storjohann and Mulders): Euclid across
    rows, by subtracting multiples of each matrix's row with the smallest
    nonzero entry, leaves one nonzero entry per matrix; that row is
    normalized by a unit, moves to its slot, and leaves its annihilator
    (m/g)*row behind.  Rows zero in every matrix are dropped once, up front.
    Every row is zero left of column j by then, so each step touches
    columns j.. only.  Every product is of two residues, so it is exact.
    """
    n, _, cols = stack.shape
    out = np.zeros((n, cols - first, cols - first), dtype=np.int64)
    live = stack.any(axis=(0, 2))
    # Callers pass a temporary, so it is eliminated in place: a copy costs peak RSS.
    work = stack if live.all() else stack[:, live]
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
            rows, pivots = (many[mi], ri, slice(j, None)), work[many[mi], p[mi], j:]
            work[rows] = (work[rows] - q[mi, ri, None] * pivots) % m
        mi = np.flatnonzero(col.any(axis=1))
        ri = col[mi].argmax(axis=1)
        entries = col[mi, ri]
        # One _unit_for per distinct entry, all nonzero; np.unique would import numpy.ma.
        distinct = np.sort(entries)
        distinct = distinct[distinct != np.concatenate(([0], distinct[:-1]))]
        units = np.array([_unit_for(a, m) for a in distinct.tolist()], dtype=np.int64)
        row = work[mi, ri, j:] * units[np.searchsorted(distinct, entries)][:, None] % m
        if j >= first:
            out[mi, j - first, j - first:] = row
        work[mi, ri, j:] = row * (m // row[:, 0])[:, None] % m
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


def _howell_forms(stack: np.ndarray, m: int, first: int = 0) -> np.ndarray:
    """The Howell forms of the row spans of an (n, r, C) stack reduced to [0, m), from
    column ``first`` on, as (n, C - first, C - first) row slots.

    Slot j - first of matrix i holds columns first.. of its Howell row with
    pivot column j, or zeros.  By the Howell property these slots span
    exactly the vectors of the row span that vanish on the first ``first``
    columns.  This is the one place that picks the elimination: a stack of
    exactly one takes ``_howell_rows``' worklist, 5 to 10 times faster on one
    matrix; any other stack, empty ones too, ``_howell_stack``'s lockstep,
    whose cost is a few numpy steps per column and Euclid round however many
    matrices it holds, and which overwrites the stack.  Both stop at an
    echelon form with the Howell property; ``_reduce_above_pivots`` makes it
    canonical.
    """
    n, _, cols = stack.shape
    if n != 1:
        return _reduce_above_pivots(_howell_stack(stack, m, first), m)
    # Only the slots from ``first`` on: all C of them would cost (r + N)^2 for a kernel.
    slots = np.zeros((1, cols - first, cols - first), dtype=np.int64)
    for j, row in _howell_rows(stack[0], m).items():
        if j >= first:
            slots[0, j - first] = row[first:]
    return _reduce_above_pivots(slots, m)


def howell_form(matrix: ZmMatrix) -> SubgroupBasis:
    """Canonical basis of the row span of ``matrix`` over Z/m."""
    return _basis(matrix.modulus, _howell_forms(matrix.as_array()[None], matrix.modulus)[0])


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
    pivots past that block, so its Howell form from column r on
    (``_howell_forms``) is exactly the kernel of M in Howell form.  One
    stacked multiplication re-checks every generator.
    """
    _validate_modulus(modulus)
    m, stack = modulus, _int64_array(stack)
    n, r, ncols = stack.shape
    # Held row by row across the matrices: the lockstep eliminates that layout faster.
    pair = np.zeros((ncols, n, r + ncols), dtype=np.int64).transpose(1, 0, 2)
    pair[:, :, :r] = stack.transpose(0, 2, 1)
    pair[:, np.arange(ncols), r + np.arange(ncols)] = 1
    gens = _howell_forms(pair, m, r)
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
    cur = _int64_array(vectors) % m
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

