"""Weyl group elements as permutations of the roots.

This is the table-driven method of Casselman, "Machine calculations in
Weyl groups", Invent. Math. 116 (1994).  A root is a signed index: with
N positive roots, k < N stands for ``rs.positive_roots[k]`` and N + k for
its negative.  One table per root system, built on first use, gives the
reflection in every root as a permutation of the 2N signed indices.  An
element is carried as the signed indices of its images of the simple
roots, so the involutions attached to strongly orthogonal sets, lengths,
descent chains and Bruhat comparisons are table lookups.  The integer
matrix on simple-root coordinates is derived only when asked for.

The involution sigma_S of a strongly orthogonal set also has a packed
form that needs no element: t_S, a sum of one integer per root of S
(_packed_table), gives l(sigma_S) by a popcount and is equal for two sets
iff their sigma_S are.  Orbit records and conjecture reports read it.

Elements are never enumerated group-wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from operator import itemgetter
from typing import Iterable, NamedTuple, Tuple

from .intlin import smith_normal_form
from .root_system import RootSystem, _check_orth_set


def _negate(k: int, npos: int) -> int:
    return k + npos if k < npos else k - npos


def _permute(row: tuple, images: tuple) -> tuple:
    """row[k] for each k in images: the images under the reflection of the row."""
    # itemgetter of a single index returns the item, not a 1-tuple
    return itemgetter(*images)(row) if len(images) > 1 else (row[images[0]],)


@dataclass(frozen=True)
class WeylElement:
    """w as the signed root indices of w(alpha_1), ..., w(alpha_n)."""

    rs: RootSystem
    images: Tuple[int, ...]

    @property
    def matrix(self) -> Tuple[Tuple[int, ...], ...]:
        """Action on simple-root coordinates; column j is the image of alpha_j."""
        coeffs = _reflection_table(self.rs).coeffs
        return tuple(zip(*(coeffs[k] for k in self.images)))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        npos = self.rs.num_positive
        perm = _positive_images(self.rs, self.images)
        return WeylElement(self.rs, tuple(
            perm[k] if k < npos else _negate(perm[k - npos], npos)
            for k in other.images))

    def is_identity(self) -> bool:
        return self.images == self.rs.simple_indices


@dataclass(frozen=True)
class Involution:
    """A Weyl involution together with the strongly orthogonal set defining it."""

    element: WeylElement
    orth_set: frozenset

    def to_json(self, rs: RootSystem) -> dict:
        return {
            "orth_set": rs.sorted_labels(self.orth_set),
            "length": length(rs, self.element),
            # sigma_S is -1 on the span of its |S| orthogonal roots, +1 beyond
            "abs_length": len(self.orth_set),
        }


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, rs.simple_indices)


def reflect(rs: RootSystem, gamma: int, mu: int) -> tuple:
    """Coefficient vector of s_gamma(mu) = mu - <mu, gamma^vee> gamma, by root index.

    The pairing is an integer sum over the coroot table of the root system.
    """
    m = rs.positive_roots[mu]
    c = rs.coroot_pairing(m, gamma)
    return tuple(a - c * b for a, b in zip(m, rs.positive_roots[gamma]))


class _Table(NamedTuple):
    # rows[k][m]: signed index of s_k(root m), for all 2N signed k (s_{-g} = s_g)
    rows: tuple
    # (beta, i, prev) per non-simple positive beta, in height order:
    # beta = s_i(prev) with prev positive and lower, i a simple-root position
    steps: tuple
    # coeffs[k]: simple-root coordinates of the root with signed index k
    coeffs: tuple


@cache
def _reflection_table(rs: RootSystem) -> _Table:
    npos = rs.num_positive
    coeffs = rs.positive_roots + tuple(tuple(-c for c in r) for r in rs.positive_roots)
    signed = {v: k for k, v in enumerate(coeffs)}
    rows = [None] * npos
    for a in rs.simple_indices:
        row = [signed[reflect(rs, a, m)] for m in range(npos)]
        rows[a] = tuple(row + [_negate(k, npos) for k in row])
    steps = []
    # roots are indexed by height, so prev's row is known before beta's
    for beta in range(npos):
        if rows[beta] is not None:
            continue
        i, prev = next((i, rows[a][beta]) for i, a in enumerate(rs.simple_indices)
                       if rows[a][beta] < npos
                       and rs.heights[rows[a][beta]] < rs.heights[beta])
        si, sp = rows[rs.simple_indices[i]], rows[prev]
        # s_beta = s_i s_prev s_i
        rows[beta] = tuple(si[sp[si[m]]] for m in range(2 * npos))
        steps.append((beta, i, prev))
    return _Table(tuple(rows + rows), tuple(steps), coeffs)


class _Packed(NamedTuple):
    # one field of `width` bits per positive root beta_b, bit b * width up
    base: int
    # the top bit of every field
    high: int
    # values[g]: <beta_b, gamma_g^vee> ht(gamma_g) in field b, for every b
    values: tuple


@cache
def _packed_table(rs: RootSystem) -> _Packed:
    """The fields that give sigma_S's length and identity from integer sums.

    The reflections in a strongly orthogonal S commute, so sigma_S(beta) =
    beta - sum_{gamma in S} <beta, gamma^vee> gamma, which is negative iff
    x = sum_{gamma in S} <beta, gamma^vee> ht(gamma) exceeds ht(beta).  Field
    b of t_S = base + sum_{gamma in S} values[gamma] (_sigma_key) holds
    2^(width-1) - 1 + x - ht(beta_b), which lies in [0, 2^width) because
    sigma_S(beta_b) is a root, of height at most ht(theta) either way.
    Its top bit is set iff sigma_S(beta_b) < 0, so l(sigma_S) is the number
    of bits of t_S & high (_key_length).  The field is 2^(width-1) - 1 -
    ht(sigma_S beta_b), and ht(sigma_S beta_b) = <beta_b, sigma_S rho^vee>
    with rho^vee regular, so t_S determines sigma_S.  values[gamma] is
    ht(gamma) sum_i coroot_i(gamma) Q_i, with Q_i packing
    <beta_b, alpha_i^vee> over b: n products per gamma, and no pairing of
    two roots is computed.
    """
    n = rs.rank
    width = (rs.heights[-1] + 1).bit_length() + 1
    half = 1 << width - 1
    q = [0] * n
    base = high = 0
    for b, beta in enumerate(rs.positive_roots):
        shift = b * width
        base += half - rs.heights[b] - 1 << shift
        high |= half << shift
        for i in range(n):
            c = rs.cartan_pairing(beta, i)
            if c:
                q[i] += c << shift
    values = tuple(h * sum(c * qi for c, qi in zip(coroot, q) if c)
                   for h, coroot in zip(rs.heights, rs.coroots))
    return _Packed(base, high, values)


def _sigma_key(rs: RootSystem, orth_set: Iterable[int]) -> int:
    """t_S of a strongly orthogonal set: equal for two sets iff their sigma_S are."""
    table = _packed_table(rs)
    return sum(map(table.values.__getitem__, orth_set), table.base)


def _key_length(rs: RootSystem, key: int) -> int:
    """l(sigma_S) from t_S: the positive roots that sigma_S makes negative."""
    return (key & _packed_table(rs).high).bit_count()


def _positive_images(rs: RootSystem, images) -> list:
    """Signed indices of w(beta) for every positive root beta, by index."""
    table = _reflection_table(rs)
    rows = table.rows
    out = [0] * rs.num_positive
    for j, k in zip(rs.simple_indices, images):
        out[j] = k
    # w(s_i(prev)) = s_{w(alpha_i)}(w(prev))
    for beta, i, prev in table.steps:
        out[beta] = rows[images[i]][out[prev]]
    return out


def reflection(rs: RootSystem, gamma: int) -> WeylElement:
    """The reflection in a positive root."""
    return WeylElement(rs, _permute(_reflection_table(rs).rows[gamma], rs.simple_indices))


def sigma_of_orth_set(rs: RootSystem, orth_set: Iterable[int]) -> Involution:
    """Product of the commuting reflections over a strongly orthogonal set."""
    s = frozenset(orth_set)
    _check_orth_set(rs, s)
    return Involution(element=_sigma_element(rs, s), orth_set=s)


def _sigma_element(rs: RootSystem, orth_set: Iterable[int]) -> WeylElement:
    """sigma_S of a set the caller has already checked to be strongly orthogonal."""
    rows = _reflection_table(rs).rows
    # s_{g1} ... s_{gk} in index order acts on a root from the right
    factors = [rows[g] for g in sorted(orth_set, reverse=True)]

    def apply(k):
        for row in factors:
            k = row[k]
        return k

    images = tuple(apply(k) for k in rs.simple_indices)
    if tuple(apply(k) for k in images) != rs.simple_indices:
        raise AssertionError("product of commuting reflections must be an involution")
    return WeylElement(rs, images)


def length(rs: RootSystem, w: WeylElement) -> int:
    """Number of positive roots sent to negative roots."""
    npos = rs.num_positive
    return sum(k >= npos for k in _positive_images(rs, w.images))


def absolute_length(rs: RootSystem, w: WeylElement) -> int:
    """Rank of (identity - w) on the coordinate space: its nonzero Smith diagonal.

    It is |S| for every sigma_S (Carter 1972), which orbit records emit
    instead; the rank serves suite item 9 (D4) and the tests.
    """
    n = rs.rank
    wm = w.matrix
    _, d, _ = smith_normal_form(
        [[(1 if i == j else 0) - wm[i][j] for j in range(n)] for i in range(n)])
    return sum(1 for i in range(n) if d[i][i])


# one entry: bruhat_leq's only caller in the package,
# anr._bruhat_lower_sets, lifts every candidate of one w in a row; it
# builds elements and lifts only in types D to G, as types A, B and C have
# an exact test read off the labels
@lru_cache(maxsize=1)
def _descent_chain(rs: RootSystem, w: WeylElement) -> tuple:
    """Simple-root positions descending w to the identity, left to right."""
    rows = _reflection_table(rs).rows
    npos = rs.num_positive
    images = w.images
    chain = []
    for _ in range(length(rs, w)):
        i = next(j for j, k in enumerate(images) if k >= npos)
        # w s_i (alpha_j) = s_{w(alpha_i)}(w(alpha_j))
        images = _permute(rows[images[i]], images)
        chain.append(i)
    if images != rs.simple_indices:
        raise AssertionError("descent chain did not reach the identity")
    return tuple(chain)


def bruhat_leq(rs: RootSystem, u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by the lifting property (Bjorner-Brenti, GTM 231, Prop. 2.2.7).

    Along w's descent chain, u drops each simple reflection that is also
    a right descent of u; u <= w iff u reaches the identity.  This decides
    every pair, so there is no length pre-check and no memo of pairs.
    """
    rows = _reflection_table(rs).rows
    npos = rs.num_positive
    images = u.images
    for i in _descent_chain(rs, w):
        k = images[i]
        if k >= npos:
            images = _permute(rows[k], images)
    return images == rs.simple_indices


def longest_element(rs: RootSystem, simple_nodes: Iterable[int]) -> WeylElement:
    """Longest element of the parabolic W_L generated by the given simple roots.

    Nodes are 0-based simple-root positions.  Greedy ascent: keep applying
    a generator that sends its own simple root to a positive root.
    """
    nodes = sorted(set(simple_nodes))
    for i in nodes:
        if not 0 <= i < rs.rank:
            raise ValueError(f"simple-root position {i} out of range")
    rows = _reflection_table(rs).rows
    images = rs.simple_indices
    while True:
        for i in nodes:
            if images[i] < rs.num_positive:
                images = _permute(rows[images[i]], images)
                break
        else:
            return WeylElement(rs, images)
