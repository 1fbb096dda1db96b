"""Finite preordered sets and their poset quotients.

A preorder on labelled points is stored as a boolean reachability matrix.
Input pair lists are either closed reflexively/transitively on request
(iterated boolean matrix squaring) or rejected with a witness pair.  The
quotient identifies x ~ y whenever x <= y <= x; its classes are ordered by
their least original element, which fixes every downstream basis order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ClosureError", "Preorder", "QuotientPoset"]


class ClosureError(ValueError):
    """Input relation is not reflexive/transitive; carries a witness pair."""

    def __init__(self, witness: tuple[str, str], reason: str):
        self.witness = witness
        super().__init__(f"relation is not {reason}: missing pair {witness!r}")


def _close(matrix: np.ndarray) -> np.ndarray:
    out = matrix | np.eye(matrix.shape[0], dtype=bool)
    while True:
        nxt = out | ((out.astype(np.int64) @ out.astype(np.int64)) > 0)
        if (nxt == out).all():
            return out
        out = nxt


@dataclass(frozen=True)
class Preorder:
    """A reflexive, transitive relation on a tuple of labelled points."""

    labels: tuple[str, ...]
    matrix: tuple[tuple[bool, ...], ...]

    @classmethod
    def from_pairs(cls, labels, pairs, auto_close: bool = True) -> "Preorder":
        labels = tuple(str(s) for s in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        index = {s: i for i, s in enumerate(labels)}
        n = len(labels)
        rel = np.zeros((n, n), dtype=bool)
        for x, y in pairs:
            if x not in index or y not in index:
                raise ValueError(f"pair ({x!r}, {y!r}) mentions an unknown label")
            rel[index[x], index[y]] = True
        closed = _close(rel)
        if not auto_close:
            refl = rel | np.eye(n, dtype=bool)
            for i in range(n):
                if not rel[i, i]:
                    raise ClosureError((labels[i], labels[i]), "reflexive")
            missing = np.argwhere(closed & ~refl)
            if missing.size:
                i, j = missing[0]
                raise ClosureError((labels[int(i)], labels[int(j)]), "transitive")
        return cls(labels, tuple(tuple(bool(b) for b in row) for row in closed))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown point {label!r}") from None

    def leq(self, x: str, y: str) -> bool:
        return self.matrix[self.index(x)][self.index(y)]

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=bool).reshape(self.size, self.size)

    def comparable_pairs(self) -> list[tuple[int, int]]:
        """All index pairs (i, j) with x_i <= x_j, in index order."""
        return [
            (i, j)
            for i in range(self.size)
            for j in range(self.size)
            if self.matrix[i][j]
        ]

    def isolated_elements(self) -> tuple[str, ...]:
        """Points comparable to nothing but themselves: the isolated singleton classes."""
        q = self.quotient()
        return tuple(q.members(ci)[0] for ci in q.isolated_classes() if len(q.classes[ci]) == 1)

    def quotient(self) -> "QuotientPoset":
        """Collapse mutual comparability into a partial order on classes."""
        a = self.as_array()
        assigned: dict[int, int] = {}
        classes: list[tuple[int, ...]] = []
        for i in range(self.size):
            if i in assigned:
                continue
            members = tuple(
                j for j in range(self.size) if a[i, j] and a[j, i]
            )
            ci = len(classes)
            classes.append(members)
            for j in members:
                assigned[j] = ci
        order = np.zeros((len(classes), len(classes)), dtype=bool)
        for ci, ms in enumerate(classes):
            for cj, ns in enumerate(classes):
                order[ci, cj] = bool(a[ms[0], ns[0]])
        antisym = order & order.T & ~np.eye(len(classes), dtype=bool)
        if antisym.any():
            raise AssertionError("quotient order failed antisymmetry")
        return QuotientPoset(self, tuple(classes), tuple(tuple(bool(b) for b in row) for row in order))


@dataclass(frozen=True)
class QuotientPoset:
    """Partial order on the mutual-comparability classes of a preorder.

    Classes are numbered by their least original element index; class i
    contains the original point indices ``classes[i]`` in ascending order.
    """

    preorder: Preorder
    classes: tuple[tuple[int, ...], ...]
    order: tuple[tuple[bool, ...], ...]

    @property
    def size(self) -> int:
        return len(self.classes)

    def class_of(self, label: str) -> int:
        i = self.preorder.index(label)
        for ci, members in enumerate(self.classes):
            if i in members:
                return ci
        raise AssertionError("element escaped the class partition")

    def members(self, ci: int) -> tuple[str, ...]:
        return tuple(self.preorder.labels[i] for i in self.classes[ci])

    def class_label(self, ci: int) -> str:
        return "{" + ",".join(self.members(ci)) + "}"

    def leq(self, ci: int, cj: int) -> bool:
        return self.order[ci][cj]

    def interval(self, ci: int, cj: int) -> tuple[int, ...]:
        """Classes z with ci <= z <= cj (empty when ci is not below cj)."""
        return tuple(
            z for z in range(self.size) if self.order[ci][z] and self.order[z][cj]
        )

    def isolated_classes(self) -> tuple[int, ...]:
        """Classes comparable to no other class."""
        out = []
        for ci in range(self.size):
            alone = all(
                not (self.order[ci][cj] or self.order[cj][ci])
                for cj in range(self.size)
                if cj != ci
            )
            if alone:
                out.append(ci)
        return tuple(out)

    def comparable_partner(self, ci: int) -> int | None:
        """Deterministic partner choice: first class above, else first below."""
        for cj in range(self.size):
            if cj != ci and self.order[ci][cj]:
                return cj
        for cj in range(self.size):
            if cj != ci and self.order[cj][ci]:
                return cj
        return None
