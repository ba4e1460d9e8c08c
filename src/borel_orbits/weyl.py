"""Weyl group elements as integer matrices on simple-root coordinates.

Elements are never enumerated group-wide; everything needed here
(lengths, Bruhat comparisons, longest elements of Levi subgroups,
involutions attached to strongly orthogonal sets) is computed from the
matrix action on the root table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Tuple

from .intlin import matrix_rank
from .root_system import RootSystem, non_orthogonal_pair


@dataclass(frozen=True)
class WeylElement:
    """Action on simple-root coordinates; column j is the image of alpha_j."""

    matrix: Tuple[Tuple[int, ...], ...]

    def act(self, coeffs) -> tuple:
        return tuple(sum(row[j] * coeffs[j] for j in range(len(coeffs)) if coeffs[j])
                     for row in self.matrix)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        a, b = self.matrix, other.matrix
        n = len(a)
        return WeylElement(tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)))

    def is_identity(self) -> bool:
        n = len(self.matrix)
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))


@dataclass(frozen=True)
class Involution:
    """A Weyl involution together with the strongly orthogonal set defining it."""

    element: WeylElement
    orth_set: frozenset

    def to_json(self, rs: RootSystem) -> dict:
        return {
            "orth_set": sorted(rs.root_label(i) for i in self.orth_set),
            "length": length(rs, self.element),
            "abs_length": absolute_length(rs, self.element),
        }


def identity(rs: RootSystem) -> WeylElement:
    n = rs.rank
    return WeylElement(tuple(tuple(1 if i == j else 0 for j in range(n))
                             for i in range(n)))


def reflect(rs: RootSystem, gamma: int, mu: int) -> tuple:
    """Coefficient vector of the reflection of root mu in root gamma."""
    g = rs.positive_roots[gamma]
    m = rs.positive_roots[mu]
    coef = 2 * rs.inner(mu, gamma) / rs.inner(gamma, gamma)
    if coef.denominator != 1:
        raise AssertionError("reflection pairing must be integral")
    c = int(coef)
    return tuple(a - c * b for a, b in zip(m, g))


def reflection(rs: RootSystem, gamma: int) -> WeylElement:
    """The reflection in a positive root, as a matrix."""
    # column j is the reflected alpha_j; zip(*cols) turns columns into rows
    cols = [reflect(rs, gamma, k) for k in rs.simple_indices]
    return WeylElement(tuple(zip(*cols)))


def sigma_of_orth_set(rs: RootSystem, orth_set: Iterable[int]) -> Involution:
    """Product of the commuting reflections over a strongly orthogonal set."""
    s = frozenset(orth_set)
    bad = non_orthogonal_pair(rs, s)
    if bad is not None:
        raise ValueError(
            f"{rs.root_label(bad[0])} and {rs.root_label(bad[1])} "
            "are not strongly orthogonal")
    w = identity(rs)
    for i in sorted(s):
        w = w * reflection(rs, i)
    sq = w * w
    if not sq.is_identity():
        raise AssertionError("product of commuting reflections must be an involution")
    return Involution(element=w, orth_set=s)


def length(rs: RootSystem, w: WeylElement) -> int:
    """Number of positive roots sent to negative roots."""
    m = w.matrix
    n = rs.rank
    count = 0
    for r in rs.positive_roots:
        for i in range(n):
            v = 0
            row = m[i]
            for j in range(n):
                if r[j]:
                    v += row[j] * r[j]
            if v:
                if v < 0:
                    count += 1
                break
    return count


def absolute_length(rs: RootSystem, w: WeylElement) -> int:
    """Rank of (identity - w) on the coordinate space."""
    n = rs.rank
    m = [[(1 if i == j else 0) - w.matrix[i][j] for j in range(n)] for i in range(n)]
    return matrix_rank(m)


@cache
def _pairing_columns(rs: RootSystem):
    # nonzero <alpha_j, alpha_i^vee> pairs, per i; used for right multiplication
    cols = []
    for i in range(rs.rank):
        cols.append(tuple((j, rs.cartan[i][j]) for j in range(rs.rank)
                          if rs.cartan[i][j]))
    return cols


def _right_multiply_simple(m, i, pairs):
    # m -> m * s_i in place; column ops only touch Dynkin neighbours of i
    coli = [row[i] for row in m]
    for j, c in pairs[i]:
        for r, cr in enumerate(coli):
            if cr:
                m[r][j] -= c * cr


def _column_sign(m, j) -> int:
    for row in m:
        if row[j] > 0:
            return 1
        if row[j] < 0:
            return -1
    raise AssertionError("zero column in a Weyl matrix")


@cache
def _descent_chain(rs: RootSystem, w: WeylElement) -> tuple:
    """Simple-root positions descending w to the identity, left to right."""
    pairs = _pairing_columns(rs)
    wm = [list(row) for row in w.matrix]
    n = rs.rank
    chain = []
    for _ in range(length(rs, w)):
        i = next(j for j in range(n) if _column_sign(wm, j) < 0)
        _right_multiply_simple(wm, i, pairs)
        chain.append(i)
    if any(wm[i][j] != (1 if i == j else 0) for i in range(n) for j in range(n)):
        raise AssertionError("descent chain did not reach the identity")
    return tuple(chain)


def bruhat_leq(rs: RootSystem, u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by the lifting property (Bjorner-Brenti, GTM 231, Prop. 2.2.7).

    Along w's descent chain, u drops each simple reflection that is also
    a right descent of u; u <= w iff u reaches the identity.  This decides
    every pair, so there is no length pre-check and no memo of pairs.
    """
    pairs = _pairing_columns(rs)
    um = [list(row) for row in u.matrix]
    n = rs.rank
    for i in _descent_chain(rs, w):
        if _column_sign(um, i) < 0:
            _right_multiply_simple(um, i, pairs)
    return all(um[i][j] == (1 if i == j else 0)
               for i in range(n) for j in range(n))


def longest_element(rs: RootSystem, simple_nodes: Iterable[int]) -> WeylElement:
    """Longest element of the parabolic W_L generated by the given simple roots.

    Nodes are 0-based simple-root positions.  Greedy ascent: keep applying
    a generator that sends its own simple root to a positive root.
    """
    nodes = sorted(set(simple_nodes))
    for i in nodes:
        if not 0 <= i < rs.rank:
            raise ValueError(f"simple-root position {i} out of range")
    gens = {i: reflection(rs, rs.simple_indices[i]) for i in nodes}
    w = identity(rs)
    while True:
        for i in nodes:
            # column i of w is the image of alpha_i
            if _column_sign(w.matrix, i) > 0:
                w = w * gens[i]
                break
        else:
            return w
