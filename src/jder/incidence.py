"""Incidence rings of finite preordered sets over structure-constant rings.

For a preorder P and coefficient ring R the incidence ring lives on the
comparable pairs of P: an element assigns an R-coefficient to every pair
(p, q) with p <= q, and multiplication is convolution,

    (ab)[p, q] = sum over p <= z <= q of a[p, z] * b[z, q].

Equivalently it is the pocategory picture: one matrix block Mor(x, y) per
comparable pair of quotient classes x <= y, with Mor(x, x) a full matrix
ring over R.  The flattened basis used here is (p, q, t) for comparable
element pairs and t running over R's basis, ordered by (class of p,
class of q, p, q, t) so corner extraction cuts out contiguous blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .preorders import Preorder, QuotientPoset
from .rings import MatrixRing, PairRing, RingElement, StructureRing, matrix_ring

__all__ = ["IncidenceRing", "fi_ring", "FamilyConditionsReport", "verify_family_conditions"]


class IncidenceRing(PairRing):
    """FI(P, R): the incidence ring of a finite preorder over a finite ring.

    The PairRing on the comparable pairs (p, q) sorted by (class of p,
    class of q, p, q), labelled ``[p,q]``; the accessors here take class
    indices.
    """

    def __init__(self, preorder: Preorder, base: StructureRing):
        if not base.is_unital:
            raise ValueError("incidence rings need a unital coefficient ring")
        self.preorder = preorder
        self.quotient: QuotientPoset = preorder.quotient()
        cls = {
            i: self.quotient.class_of(lbl) for i, lbl in enumerate(preorder.labels)
        }
        pairs = sorted(
            preorder.comparable_pairs(),
            key=lambda pq: (cls[pq[0]], cls[pq[1]], pq[0], pq[1]),
        )
        labels = preorder.labels
        super().__init__(pairs, base, [f"[{labels[p]},{labels[q]}]" for p, q in pairs])
        self._class_rings: dict[int, MatrixRing] = {}

    def block_indices(self, ci: int, cj: int) -> list[int]:
        """Basis indices of the block Mor(x, y) of classes x <= y, in (p, q, t) order.

        This is the basis order of the class matrix ring when ci == cj.
        """
        classes = self.quotient.classes
        return self.block(classes[ci], classes[cj])

    # -- convolution ----------------------------------------------------------

    def convolve(self, a: RingElement, b: RingElement) -> RingElement:
        """Convolution product computed directly from the sum formula.

        This is an independent evaluation route: it never touches the
        assembled structure constants, only R's multiplication, and must
        agree with ``a * b``.
        """
        leq = self.preorder.as_array()
        return self.from_entries({
            (p, q): sum((self.entry(a, p, z) * self.entry(b, z, q)
                         for z in range(self.preorder.size) if leq[p, z] and leq[z, q]),
                        self.base.zero())
            for p, q in self.pairs})

    # -- classes and corners ---------------------------------------------------

    def class_idempotent(self, ci: int) -> RingElement:
        """e_x: the identity concentrated on the diagonal of one class."""
        one = self.base.one()
        return self.from_entries({(i, i): one for i in self.quotient.classes[ci]})

    def class_idempotents(self) -> list[RingElement]:
        return [self.class_idempotent(ci) for ci in range(self.quotient.size)]

    def class_matrix_ring(self, ci: int) -> MatrixRing:
        """Mor(x, x) presented as a matrix ring over R (cached)."""
        if ci not in self._class_rings:
            self._class_rings[ci] = matrix_ring(self.base, len(self.quotient.classes[ci]))
        return self._class_rings[ci]

    def extract_block(self, elem: RingElement, ci: int, cj: int) -> list[list[RingElement]]:
        """The Mor(x, y) block of an element as a grid of R-entries.

        Incomparable class pairs yield the zero block of the right shape.
        """
        classes = self.quotient.classes
        return [[self.entry(elem, p, q) for q in classes[cj]] for p in classes[ci]]

    def block_element(self, ci: int, cj: int, grid) -> RingElement:
        """Embed a grid of R-entries as an element supported on one block."""
        classes = self.quotient.classes
        return self.from_entries({
            (p, q): cell for p, row in zip(classes[ci], grid) for q, cell in zip(classes[cj], row)
            if not cell.is_zero()})


def fi_ring(preorder: Preorder, coefficients: StructureRing) -> IncidenceRing:
    """Assemble the incidence ring FI(P, R)."""
    return IncidenceRing(preorder, coefficients)


def _validate_family(ring: StructureRing, family, allow_empty: bool = False) -> list:
    """The family as a list, once it is checked to be pairwise orthogonal idempotents of ring.

    All products e f come from one ring product, checked in element-by-element order."""
    family = list(family)
    if not family and not allow_empty:
        raise ValueError("the idempotent family is empty")
    own = next((n for n, e in enumerate(family) if not e.ring.same_presentation(ring)), len(family))
    E = np.array([e.as_array() for e in family[:own]], dtype=np.int64).reshape(own, ring.rank)
    products = ring.mul(E[:, None], E[None])  # [a, b]: e_a e_b
    for e, square, x in zip(family, products[np.arange(own), np.arange(own)], E):
        if (square != x).any():
            raise ValueError(f"family member {e!r} is not idempotent")
    if own < len(family):
        raise ValueError("family members must belong to the ring")
    for a, b in zip(*np.triu_indices(own, 1)):
        if products[a, b].any() or products[b, a].any():
            raise ValueError(f"family members {family[a]!r} and {family[b]!r} are not orthogonal")
    return family


@dataclass(frozen=True)
class FamilyConditionsReport:
    """Outcome of the summability check for a family of orthogonal idempotents."""

    ok: bool
    checked: int
    failures: tuple[tuple[int, int, int, int], ...]
    # Each failure is (e_index, f_index, r_basis_index, s_basis_index).


def verify_family_conditions(
    ring: StructureRing, family: list[RingElement]
) -> FamilyConditionsReport:
    """Check e r s f = sum over g in E of e r g s f for all basis r, s.

    The family must consist of pairwise orthogonal idempotents.  Both sides
    are bilinear in (r, s), so checking ring basis elements decides the
    condition for the whole ring.  On a finite ring the defining finiteness
    conditions of the family framework are automatic; what can genuinely
    fail is the displayed summation identity, e.g. when the family does not
    cover enough of the ring.
    """
    family = _validate_family(ring, family, allow_empty=True)
    k = ring.rank
    E = np.array([e.as_array() for e in family], dtype=np.int64).reshape(len(family), k)
    eye, total = np.eye(k, dtype=np.int64), E.sum(axis=0) % ring.modulus
    # Axes (e, f, i, j) with r = b_i and s = b_j; by bilinearity the sum over g
    # of e r g s f is e r (sum of g) s f.  One e at a time keeps products at (f, i, j, k).
    sf = ring.mul(eye, E[:, None, None])
    bad = np.array([(ring.mul(er, sf) != ring.mul(er, total, sf)).any(axis=-1)
                    for er in ring.mul(E[:, None], eye)[:, :, None]], dtype=bool)
    bad = bad.reshape(len(E), len(E), k, k)
    failures = tuple(map(tuple, np.argwhere(bad).tolist()))
    return FamilyConditionsReport(not failures, bad.size, failures)
