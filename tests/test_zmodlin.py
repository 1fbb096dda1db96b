"""Howell forms, kernels and subgroup arithmetic against enumeration oracles."""

import ast
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jder import zmodlin
from jder.zmodlin import (
    DimensionMismatch,
    SelfCheckError,
    SubgroupBasis,
    ZmMatrix,
    howell_form,
    kernel,
    kernels,
    slots_contain,
    subgroup_equal,
)
from oracles import all_vectors, kernel_set, span_set


def basis_rows(b: SubgroupBasis) -> list[list[int]]:
    return [list(g) for g in b.generators]


class TestKnownForms:
    def test_duplicate_rows_collapse(self):
        b = howell_form(ZmMatrix(2, ((1, 1), (1, 1))))
        assert basis_rows(b) == [[1, 1]]

    def test_non_unit_pivot_survives(self):
        b = howell_form(ZmMatrix(4, ((2,),)))
        assert basis_rows(b) == [[2]]
        assert b.cardinality() == 2

    def test_pivot_normalized_to_unit(self):
        b = howell_form(ZmMatrix(5, ((2, 4),)))
        assert basis_rows(b) == [[1, 2]]

    def test_annihilator_row_completion(self):
        # span{(2,1)} mod 4 also contains 2*(2,1) = (0,2); the canonical
        # form must expose the trailing generator.
        b = howell_form(ZmMatrix(4, ((2, 1),)))
        assert basis_rows(b) == [[2, 1], [0, 2]]
        assert b.cardinality() == 4

    def test_zero_matrix(self):
        b = howell_form(ZmMatrix(6, ((0, 0, 0),)))
        assert basis_rows(b) == []
        assert b.cardinality() == 1

    def test_kernel_of_identity_is_trivial(self):
        for m in (2, 4, 6):
            b = kernel(ZmMatrix(m, ((1, 0), (0, 1))))
            assert basis_rows(b) == []

    def test_kernel_parity(self):
        b = kernel(ZmMatrix(2, ((1, 1),)))
        assert basis_rows(b) == [[1, 1]]

    def test_kernel_of_doubling_mod_4(self):
        b = kernel(ZmMatrix(4, ((2,),)))
        assert basis_rows(b) == [[2]]

    def test_membership(self):
        b = howell_form(ZmMatrix(4, ((2, 1),)))
        assert b.contains((2, 3))
        assert not b.contains((2, 0))

    def test_mismatch_rejected(self):
        b = howell_form(ZmMatrix(4, ((2, 1),)))
        with pytest.raises(DimensionMismatch):
            b.contains((1, 1, 0))
        with pytest.raises(DimensionMismatch):
            subgroup_equal(b, howell_form(ZmMatrix(4, ((1, 0, 0),))))


def eager_pivots(b: SubgroupBasis) -> tuple:
    """(column, value) of each row's first nonzero entry; (0, 0) for a zero row."""
    return tuple(next(((j, x) for j, x in enumerate(row) if x), (0, 0)) for row in b.generators)


class TestSlots:
    # The bases of TestKnownForms.
    @pytest.mark.parametrize("basis", [
        lambda: howell_form(ZmMatrix(2, ((1, 1), (1, 1)))),
        lambda: howell_form(ZmMatrix(4, ((2,),))),
        lambda: howell_form(ZmMatrix(5, ((2, 4),))),
        lambda: howell_form(ZmMatrix(4, ((2, 1),))),
        lambda: howell_form(ZmMatrix(6, ((0, 0, 0),))),
        lambda: kernel(ZmMatrix(4, ((1, 0), (0, 1)))),
        lambda: kernel(ZmMatrix(2, ((1, 1),))),
        lambda: kernel(ZmMatrix(4, ((2,),))),
    ])
    @pytest.mark.parametrize("use", ["pivots", "cardinality", "generators", "coordinates"])
    def test_views_of_the_slots_match_the_eager_values(self, basis, use):
        b = basis()
        assert b.slots.shape == (b.dim, b.dim)
        eager = eager_pivots(b)
        if use == "pivots":
            assert b.pivots() == eager
        elif use == "cardinality":
            assert b.cardinality() == np.prod([b.modulus // d for _, d in eager], dtype=object)
        elif use == "generators":
            # Slot j holds the generator with pivot column j; the other slots are zero.
            assert [j for j, _ in eager] == np.flatnonzero(b.slots.any(axis=1)).tolist()
            assert b.generators == tuple(b.matrix.rows[j] for j, _ in eager)
            assert b.as_array().tolist() == [list(g) for g in b.generators]
        else:
            assert b.coordinates((0,) * b.dim) == (0,) * len(eager)
            for i, g in enumerate(b.generators):
                assert b.coordinates(g) == tuple(int(i == n) for n in range(len(eager)))

    @pytest.mark.parametrize("rows, message", [
        (((0,), (2,)), "basis slots must be a square matrix, got shape (2, 1)"),
        (((0, 1), (0, 0)), "basis slot 0 must lead at column 0 with a divisor of 4"),
        (((1, 0), (1, 1)), "basis slot 1 must lead at column 1 with a divisor of 4"),
        # The span of (3) is all of Z/4.
        (((3,),), "basis slot 0 must lead at column 0 with a divisor of 4"),
        (((2, 1), (0, 3)), "basis slot 1 must lead at column 1 with a divisor of 4"),
    ])
    def test_slots_are_checked_when_built(self, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SubgroupBasis(ZmMatrix(4, rows))

    def test_equality_hash_and_immutability(self):
        a, b = howell_form(ZmMatrix(4, ((2, 1),))), howell_form(ZmMatrix(4, ((2, 1),)))
        assert a == b and hash(a) == hash(b)
        with pytest.raises(ValueError):
            a.slots[0, 0] = 0
        with pytest.raises(ValueError):
            a.as_array()[0, 0] = 0
        with pytest.raises(AttributeError):
            b.matrix = a.matrix


class TestValidation:
    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            ZmMatrix(0, ((1,),))

    def test_ragged_rows(self):
        with pytest.raises(ValueError):
            ZmMatrix(3, ((1, 2), (1,)))

    def test_entries_reduced(self):
        assert ZmMatrix(4, ((5, -2),)).rows == ((1, 2),)

    def test_array_and_tuple_construction_agree(self):
        for rows in (((5, -2), (0, 7)), ((), ()), ()):
            a = ZmMatrix(4, rows)
            b = ZmMatrix.from_array(4, np.array(rows, dtype=np.int64).reshape(a.nrows, a.ncols))
            assert a == b and hash(a) == hash(b) and a.rows == b.rows
            assert (b.nrows, b.ncols) == (len(rows), len(rows[0]) if rows else 0)
        assert ZmMatrix(4, ((1, 2),)) != ZmMatrix(5, ((1, 2),))
        assert ZmMatrix(4, ((), ())) != ZmMatrix(4, ())

    def test_entries_are_read_only(self):
        source = np.array([[1, 6]], dtype=np.int64)
        mat = ZmMatrix.from_array(4, source)
        source[0, 0] = 3
        assert mat.rows == ((1, 2),)
        with pytest.raises(ValueError):
            mat.as_array()[0, 0] = 0
        with pytest.raises(AttributeError):
            mat.modulus = 5

    def test_kernel_self_check_failure_is_named(self, monkeypatch):
        # A Howell step that returns a non-kernel row must not go unnoticed:
        # (0 | 1, 0) has a zero left block, but M (1, 0)^T = 1.
        monkeypatch.setattr(
            zmodlin, "_howell_rows", lambda arr, m: {1: np.array([0, 1, 0], dtype=np.int64)}
        )
        with pytest.raises(SelfCheckError, match="re-multiplication"):
            kernel(ZmMatrix(5, ((1, 0),)))


small_matrix = st.integers(2, 6).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        ),
    )
)


# Moduli up to 12 with at most 1,728 vectors in the ambient group.
kernel_matrix = st.integers(2, 12).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.integers(1, 3 if m > 6 else 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        ),
    )
)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(small_matrix)
    def test_span_matches_enumeration(self, mm):
        m, rows = mm
        b = howell_form(ZmMatrix(m, tuple(tuple(r) for r in rows)))
        expected = span_set(m, rows)
        assert b.cardinality() == len(expected)
        got = span_set(m, basis_rows(b)) if b.generators else {tuple([0] * b.dim)}
        assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(small_matrix)
    def test_membership_matches_enumeration(self, mm):
        m, rows = mm
        b = howell_form(ZmMatrix(m, tuple(tuple(r) for r in rows)))
        expected = span_set(m, rows)
        n = len(rows[0])
        if m ** n <= 1296:
            for v in all_vectors(m, n):
                assert b.contains(v) == (v in expected)

    @settings(max_examples=150, deadline=None)
    @given(small_matrix, st.randoms(use_true_random=False))
    def test_canonical_under_presentation_changes(self, mm, rng):
        m, rows = mm
        b1 = howell_form(ZmMatrix(m, tuple(tuple(r) for r in rows)))
        # Scramble the presentation without changing the span: permute rows,
        # add a multiple of one row to another, scale a row by a unit,
        # duplicate a row.
        scrambled = [list(r) for r in rows]
        for _ in range(6):
            op = rng.randrange(4)
            i = rng.randrange(len(scrambled))
            j = rng.randrange(len(scrambled))
            if op == 0:
                scrambled[i], scrambled[j] = scrambled[j], scrambled[i]
            elif op == 1 and i != j:
                c = rng.randrange(m)
                scrambled[i] = [(a + c * b) % m for a, b in zip(scrambled[i], scrambled[j])]
            elif op == 2:
                units = [u for u in range(1, m) if np.gcd(u, m) == 1]
                u = rng.choice(units)
                scrambled[i] = [(u * a) % m for a in scrambled[i]]
            else:
                scrambled.append(list(scrambled[i]))
        b2 = howell_form(ZmMatrix(m, tuple(tuple(r) for r in scrambled)))
        assert subgroup_equal(b1, b2)
        assert b1 == b2

    @settings(max_examples=150, deadline=None)
    @given(small_matrix)
    def test_howell_is_idempotent(self, mm):
        m, rows = mm
        b = howell_form(ZmMatrix(m, tuple(tuple(r) for r in rows)))
        again = howell_form(ZmMatrix(m, b.generators or ((0,) * len(rows[0]),)))
        assert b == again

    @settings(max_examples=150, deadline=None)
    @given(small_matrix)
    def test_howell_shape_invariants(self, mm):
        m, rows = mm
        b = howell_form(ZmMatrix(m, tuple(tuple(r) for r in rows)))
        pivots = b.pivots()
        cols = [j for j, _ in pivots]
        assert cols == sorted(cols) and len(set(cols)) == len(cols)
        for idx, (j, d) in enumerate(pivots):
            assert m % d == 0
            for above in b.generators[:idx]:
                assert above[j] < d
            for below in b.generators[idx + 1:]:
                assert below[j] == 0

    @settings(max_examples=120, deadline=None)
    @given(small_matrix)
    def test_kernel_matches_enumeration(self, mm):
        m, rows = mm
        n = len(rows[0])
        if m ** n > 1296:
            return
        b = kernel(ZmMatrix(m, tuple(tuple(r) for r in rows)))
        expected = kernel_set(m, rows)
        got = span_set(m, basis_rows(b)) if b.generators else {tuple([0] * n)}
        assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(kernel_matrix)
    def test_kernel_generators_are_already_howell(self, mm):
        # kernel() takes one Howell pass over [M^T | I]; the right blocks of
        # its zero-left-block rows must already be the Howell form of ker M.
        m, rows = mm
        n = len(rows[0])
        b = kernel(ZmMatrix(m, tuple(tuple(r) for r in rows)))
        if b.generators:
            assert howell_form(ZmMatrix(m, b.generators)) == b
        got = span_set(m, basis_rows(b)) if b.generators else {tuple([0] * n)}
        assert got == kernel_set(m, rows)

    @settings(max_examples=100, deadline=None)
    @given(small_matrix)
    def test_coordinates_reconstruct(self, mm):
        m, rows = mm
        b = howell_form(ZmMatrix(m, tuple(tuple(r) for r in rows)))
        for v in list(span_set(m, rows))[:20]:
            coords = b.coordinates(v)
            assert coords is not None
            acc = np.zeros(len(v), dtype=np.int64)
            for c, g in zip(coords, b.generators):
                acc = (acc + c * np.array(g)) % m
            assert tuple(int(x) for x in acc) == v


@st.composite
def mixed_matrices(draw):
    """(m, rows, U rows): a matrix over Z/m and a random unimodular mix U of its rows.

    U = P L T: a permutation, a unit lower triangular matrix and an upper
    triangular one with unit diagonal, so U is invertible mod m.
    """
    m = draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12, 2**31 - 1, 2**31]), label="m")
    r, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.sampled_from([0, 1, m // 2, m - 1]) | st.integers(0, m - 1)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=r, max_size=r))
    units = st.integers(1, m - 1).filter(lambda u: math.gcd(u, m) == 1)
    low = [[int(i == j) if j >= i else draw(entry) for j in range(r)] for i in range(r)]
    up = [[draw(units) if i == j else draw(entry) if j > i else 0 for j in range(r)]
          for i in range(r)]
    order = draw(st.permutations(range(r)))
    mix = np.array(low, dtype=object)[order].dot(np.array(up, dtype=object))
    return m, rows, (mix.dot(np.array(rows, dtype=object)) % m).tolist()


class TestCanonicalPass:
    """The pass that reduces entries above pivots, through the public functions only."""

    @settings(max_examples=200, deadline=None)
    @given(mixed_matrices())
    def test_row_mixes_give_identical_slots(self, case):
        m, rows, mixed = case
        b = howell_form(ZmMatrix(m, rows))
        assert b.slots.tobytes() == howell_form(ZmMatrix(m, mixed)).slots.tobytes()
        # Every entry above a pivot lies in [0, pivot), in the kernel's slots too.
        for slots in (b.slots, kernel(ZmMatrix(m, rows)).slots):
            for j, d in enumerate(slots.diagonal().tolist()):
                if d:
                    assert ((0 <= slots[:j, j]) & (slots[:j, j] < d)).all()
        cols = len(rows[0])
        if m ** cols <= 1296:
            assert (span_set(m, basis_rows(b)) if b.generators else {(0,) * cols}) \
                == span_set(m, rows)


@st.composite
def stacks(draw):
    """(m, an (n, r, N) stack) with repeated rows and rows zero in one or every matrix."""
    m = draw(st.integers(2, 40) | st.sampled_from([2**31 - 1, 2**31]), label="m")
    n, r, cols = draw(st.integers(1, 5)), draw(st.integers(0, 8)), draw(st.integers(1, 6))
    entry = st.sampled_from([0, 1, m // 2, m - 1]) | st.integers(0, m - 1)
    stack = draw(arrays(np.int64, (n, r, cols), elements=entry), label="entries")
    if r:
        row, mat = st.integers(0, r - 1), st.integers(0, n - 1)
        for a, b in draw(st.lists(st.tuples(row, row), max_size=3), label="repeats"):
            stack[:, b] = stack[:, a]
        for i, a in draw(st.lists(st.tuples(mat, row), max_size=3), label="zero in one"):
            stack[i, a] = 0
        for a in draw(st.lists(row, max_size=2), label="zero in every"):
            stack[:, a] = 0
    return m, stack


class TestStackedElimination:
    """The lockstep and the worklist elimination, and kernels against kernel, matrix by matrix."""

    @settings(max_examples=200, deadline=None)
    @given(stacks(), st.data())
    def test_matches_the_worklist(self, case, data):
        m, stack = case
        before = stack.copy()
        n, _, cols = stack.shape
        first = data.draw(st.integers(0, cols), label="first")
        # Both eliminations stop at an echelon form with the Howell property;
        # the shared pass makes it canonical.
        forms = zmodlin._reduce_above_pivots(zmodlin._howell_stack(stack.copy(), m, first), m)
        gens = kernels(m, stack)
        assert np.array_equal(stack, before)
        assert forms.shape == (n, cols - first, cols - first) and gens.shape == (n, cols, cols)
        for matrix, form, kernel_slots in zip(stack, forms, gens):
            # _echelon on a stack of one takes the worklist.
            one = zmodlin._howell_forms(matrix[None], m, first)
            assert np.array_equal(form, one[0])
            # Slot j holds the Howell row with pivot column first + j, or zeros.
            assert not np.tril(form, -1).any()
            assert np.array_equal(np.flatnonzero(form.diagonal()), np.flatnonzero(form.any(axis=1)))
            # They span the rows of the span that vanish on the first ``first`` columns.
            if m ** cols <= 1296:
                span = span_set(m, matrix.tolist() or [[0] * cols])
                assert span_set(m, form.tolist() or [[]]) == {v[first:] for v in span
                                                              if not any(v[:first])}
            # So does each kernel's.
            slots = np.flatnonzero(kernel_slots.any(axis=1))
            assert (kernel_slots[slots] != 0).argmax(axis=1).tolist() == slots.tolist()
            assert np.array_equal(kernel_slots, kernel(ZmMatrix.from_array(m, matrix)).slots)

    @settings(max_examples=200, deadline=None)
    @given(stacks(), st.data())
    def test_membership_matches_enumeration(self, case, data):
        # Per matrix, a combination of its kernel's slots (inside), and that
        # combination moved by a drawn vector (inside or not).  A vector is
        # inside exactly when adding it leaves the Howell form unchanged, and,
        # where (Z/m)^N has at most 1,296 vectors, when it is in the enumerated span.
        m, stack = case
        gens = kernels(m, stack)
        n, _, cols = stack.shape
        entries = st.lists(st.integers(0, m - 1), min_size=cols, max_size=cols)
        coeffs = np.array(data.draw(st.lists(entries, min_size=n, max_size=n), label="coeffs"),
                          dtype=object)
        inside = np.einsum("ni,nij->nj", coeffs, gens.astype(object)) % m
        moved = (inside + np.array(data.draw(st.lists(entries, min_size=n, max_size=n),
                                             label="moves"), dtype=object)) % m
        assert slots_contain(m, gens, inside.astype(np.int64)).all()
        got = slots_contain(m, gens, moved.astype(np.int64)).tolist()
        assert got == [howell_form(ZmMatrix.from_array(m, np.vstack([g, v]))).matrix
                       == ZmMatrix.from_array(m, g) for g, v in zip(gens, moved.astype(np.int64))]
        if m ** cols <= 1296:
            assert got == [tuple(v) in span_set(m, g) for g, v in zip(gens.tolist(), moved.tolist())]


def _source_specs() -> list:
    """Every einsum spec written as a string constant in a jder module."""
    spec = re.compile(r"^[a-z.]*(,[a-z.]*)+->[a-z.]*$")
    found = set()
    for path in sorted(pathlib.Path(zmodlin.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if spec.match(node.value):
                    found.add(node.value)
    return sorted(found)


SOURCE_SPECS = _source_specs()
PAIRED_ELLIPSES = [spec for spec in SOURCE_SPECS if spec.split("->")[0].count("...") == 2]
LARGE_MODULI = (2**31 - 19, 2**31 - 1, 2**31)


@st.composite
def contractions(draw):
    """(spec, a, b, m) with shapes fitting a source spec and entries in [0, m)."""
    # Half the draws pair two ellipses, whose alignment is easy to get wrong.
    spec = draw(st.sampled_from(SOURCE_SPECS) | st.sampled_from(PAIRED_ELLIPSES))
    m = draw(st.one_of(st.integers(2, 12), st.sampled_from(LARGE_MODULI)))
    dims = {label: draw(st.integers(0, 4)) for label in set(spec) - set(",->.")}
    batch = draw(st.lists(st.integers(0, 3), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    largest = draw(st.booleans())
    operands = []
    for term in spec.split("->")[0].split(","):
        head, dots, tail = term.partition("...")
        # Each operand's ... is its own suffix of the batch axes, right-aligned as
        # numpy broadcasts it; each of its axes has the full length or broadcasts as 1.
        own = batch[len(batch) - draw(st.integers(0, len(batch))):] if dots else []
        shape = ([dims[label] for label in head] + [n if draw(st.booleans()) else 1 for n in own]
                 + [dims[label] for label in tail])
        if largest:
            operands.append(np.full(shape, m - 1, dtype=np.int64))
        else:
            operands.append(rng.integers(0, m, size=shape, dtype=np.int64))
    return spec, operands[0], operands[1], m


class TestEinsumMod:
    def test_specs_are_found(self):
        assert {"...i,ijt->...jt", "nijs,nslt->nijlt", "nij,nkj->nik", "...ij,...jt->...it"} <= set(SOURCE_SPECS)

    @settings(max_examples=300, deadline=None)
    @given(contractions())
    def test_matches_python_integers(self, case):
        spec, a, b, m = case
        got = np.asarray(zmodlin.einsum_mod(spec, a, b, m))
        want = np.asarray(np.einsum(spec, a.astype(object), b.astype(object)) % m)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert (got == want).all()
        # A result that owns its data is reused in place by numpy as a temporary.
        assert got.flags.owndata

    @pytest.mark.parametrize("spec", PAIRED_ELLIPSES)
    def test_right_aligns_each_ellipsis(self, spec):
        # The shorter ... meets the last axes of the longer one, as numpy broadcasts:
        # identity-suite calls pair ellipses of different lengths.
        rng, m = np.random.default_rng(7), 5
        a_term, b_term = spec.split("->")[0].split(",")
        dims = dict.fromkeys(set(spec) - set(",->."), 2)
        # The last pair has an axis of length 0, which only the right alignment can broadcast.
        for a_dots, b_dots in (((3, 1), (4, 1, 3)), ((2, 4, 1, 3), (1, 3)), ((), (2, 3)), ((0, 1), (4, 1, 3))):
            a = rng.integers(0, m, a_dots + tuple(dims[c] for c in a_term[3:]), dtype=np.int64)
            b = rng.integers(0, m, b_dots + tuple(dims[c] for c in b_term[3:]), dtype=np.int64)
            want = np.einsum(spec, a.astype(object), b.astype(object)) % m
            assert np.array_equal(zmodlin.einsum_mod(spec, a, b, m), want.astype(np.int64))

    @pytest.mark.parametrize("spec, a_shape, b_shape",
                             [(spec, (2, 2), (2, 2)) for spec in ["ii,ij->j", "ij,jk->i", "ik,jk->i", "ij,jk->ii",
                                                                  "ij,jk->il", "ijk,jk->i", "ij->ij", "ij,jk"]]
                             + [("ij,ij->", (1, 4), (4, 1)), ("ij,jk->ik", (2, 1), (3, 2))])
    def test_refuses_a_spec_outside_the_contract(self, spec, a_shape, b_shape):
        # A label repeated in one operand, a summed label missing from one operand,
        # an output label in neither, operands the spec does not fit, or summed axes
        # of different lengths, which np.einsum would broadcast.
        a, b = np.zeros(a_shape, dtype=np.int64), np.zeros(b_shape, dtype=np.int64)
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            zmodlin.einsum_mod(spec, a, b, 5)

    @pytest.mark.parametrize("m", LARGE_MODULI)
    def test_long_sum_of_largest_terms(self, m):
        a = np.full(200_000, m - 1, dtype=np.int64)
        assert int(zmodlin.einsum_mod("i,i->", a, a, m)) == 200_000 * (m - 1) ** 2 % m


@pytest.mark.parametrize("arr", [np.zeros(3, dtype=np.int64), np.zeros((2, 2, 2), dtype=np.int64)],
                         ids=["1-d", "3-d"])
def test_from_array_refuses_other_than_two_dimensions(arr):
    with pytest.raises(ValueError, match="^expected a 2-d array$"):
        ZmMatrix.from_array(4, arr)
