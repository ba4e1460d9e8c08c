"""Integral Chevalley-basis structure constants and exp-of-ad actions.

Signs follow the extraspecial-pair convention (Carter, *Simple Groups
of Lie Type*, section 4.2): for every non-simple positive root, the
generating pair whose first member is smallest in the fixed root order
gets a positive constant, and every other constant is forced by
antisymmetry and the Jacobi identity.  All values are exact integers of
absolute value p+1 for the relevant root string.  A
:class:`StructureTable` computes all it holds once, in its constructor.

The exp(ad) action on an ideal and the coadjoint action on its dual are
one routine that follows root strings up or down by delta; the sides
differ only where a string leaves the ideal: ad fails, coad truncates.
By Chevalley's integrality theorem (ad e_a)^k / k! preserves the integer
span of the basis (Humphreys, GTM 9, section 25), so each chain carries
the integers N * ... / k!.  The routine works on vectors of reduced
integer pairs (num, den), den > 0, and reduces each touched target's sum
by one gcd; ``ad_exp_action`` and ``coad_exp_action`` wrap it in
``Fraction``s for callers outside the normal-form layer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, gcd
from typing import Dict, Iterable, Mapping, Tuple

from .root_system import RootSystem, _mask_of


class StructureTable:
    """N_{a,b} for all root pairs of one system, one sign convention.

    Built once and never changed: ``_pos`` holds N_{a,b} for the positive
    pairs a < b by increasing sum, and :meth:`chain` reads chains built for
    every root in both directions, so each signed constant is one lookup.
    The first pair (a1, b1) of each sum is extraspecial, N = base_sign *
    (p + 1), where p - q = <b, a^vee> along the a-string b - pa, ..., b + qa
    (Humphreys, GTM 9, section 9.4); the others follow from the Jacobi
    identity on e_a, e_b, e_{-a1} in integers, with squared-length ratios
    as integer pairs and an exact ``divmod`` asserting integrality.
    """

    def __init__(self, rs: RootSystem, base_sign: int = 1):
        if base_sign not in (1, -1):
            raise ValueError("base_sign must be +1 or -1")
        self.rs = rs
        self.base_sign = base_sign
        # each pair reads only pairs with a smaller sum, built before it
        self._pos: Dict[Tuple[int, int], int] = {}
        for g, diffs in enumerate(rs.diff_index):
            pairs = [(i, j) for i, j in enumerate(diffs) if j > i]
            if not pairs:
                continue
            (a1, b1), *rest = pairs
            self._pos[(a1, b1)] = base_sign * (self.p_value(a1, b1) + 1)
            for a, b in rest:
                n = self._from_jacobi(a, b, g, a1)
                if abs(n) != self.p_value(a, b) + 1:
                    raise AssertionError("structure constant magnitude mismatch")
                self._pos[(a, b)] = n
        self._up_chains = self._build_chains(up=True)
        self._down_chains = self._build_chains(up=False)

    # -- p-values and the positive table -------------------------------

    def p_value(self, i: int, j: int) -> int:
        """Largest k with root_j - k*root_i still a root (of either sign)."""
        if i == j:
            return 0
        rs = self.rs
        q = 0
        cur = rs.sum_index[j][i]
        while cur >= 0:
            q += 1
            cur = rs.sum_index[cur][i]
        return rs.coroot_pairing(rs.positive_roots[j], i) + q

    def _from_jacobi(self, a: int, b: int, g: int, a1: int) -> int:
        """Constant of a non-extraspecial pair from already-built values."""
        # N_{a,b} N_{g,-a1} = N_{a,-a1} N_{a-a1,b} - N_{b,-a1} N_{b-a1,a};
        # a1 < a < b, so a1 - a and a1 - b are never positive roots
        rs = self.rs
        total = 0
        c = rs.diff_index[a][a1]
        if c >= 0:
            total += self._mixed(a, a1) * self._pos_lookup(c, b)
        c = rs.diff_index[b][a1]
        if c >= 0:
            total -= self._mixed(b, a1) * self._pos_lookup(c, a)
        val, rem = divmod(total, self._mixed(g, a1))
        if val == 0 or rem:
            raise AssertionError("Jacobi propagation produced a non-integer constant")
        return val

    def _pos_lookup(self, i: int, j: int) -> int:
        return self._pos[(i, j)] if i < j else -self._pos[(j, i)]

    def _mixed(self, a: int, b: int) -> int:
        """N_{beta_a, -beta_b} for a != b; 0 when beta_a - beta_b is no root."""
        # on a zero-sum triple x + y + z = 0, N_{x,y} / |z|^2 is cyclic
        rs = self.rs
        c = rs.diff_index[a][b]
        if c >= 0:  # beta_a - beta_b = beta_c: N_{a,-b} = N_{-b,-c} |c|^2 / |a|^2
            n, top = -self._pos_lookup(b, c), a
        else:
            c = rs.diff_index[b][a]
            if c < 0:
                return 0
            n, top = self._pos_lookup(c, a), b  # N_{c,a} |c|^2 / |b|^2
        cn, cd = rs.root_norms[c].as_integer_ratio()
        tn, td = rs.root_norms[top].as_integer_ratio()
        val, rem = divmod(n * cn * td, cd * tn)
        if rem:
            raise AssertionError("non-integer mixed structure constant")
        return val

    # -- public access --------------------------------------------------

    def structure_constant(self, sa: int, ia: int, sb: int, ib: int) -> int:
        """N for signed roots sa*root_ia, sb*root_ib; 0 when the sum is no root."""
        if ia == ib and sa != sb:
            raise ValueError("opposite roots bracket into the Cartan, not a root vector")
        if sa == sb:
            n = self._pos_lookup(ia, ib) if self.rs.sum_index[ia][ib] >= 0 else 0
            return n if sa > 0 else -n
        return self._mixed(ia, ib) if sa > 0 else -self._mixed(ib, ia)

    # -- exp(ad) chains --------------------------------------------------

    def chain(self, delta: int, up: bool) -> tuple:
        """Per source root: ((target, coefficient_of_t^k, k), ...) going up by
        delta (the ad action) or down by delta through positive roots (coad).

        The coefficient is the integer N_1 * ... * N_k / k! of the k-th
        bracket along the delta-string."""
        return (self._up_chains if up else self._down_chains)[delta]

    def _build_chains(self, up: bool) -> tuple:
        rs = self.rs
        step = rs.sum_index if up else rs.diff_index
        sign = 1 if up else -1
        out = []
        for delta in range(rs.num_positive):
            chains = []
            for cur in range(rs.num_positive):
                entries = []
                prod = 1
                while step[cur][delta] >= 0:
                    prod *= self.structure_constant(1, delta, sign, cur)
                    cur = step[cur][delta]
                    k = len(entries) + 1
                    coeff, rem = divmod(prod, factorial(k))
                    if rem:
                        raise AssertionError("exp(ad) chain coefficient is not an integer")
                    entries.append((cur, coeff, k))
                chains.append(tuple(entries))
            out.append(tuple(chains))
        return tuple(out)

    def to_json(self) -> list:
        rs = self.rs
        out = []
        for (i, j), n in sorted(self._pos.items()):
            out.append({"a": rs.root_label(i), "b": rs.root_label(j), "n": n})
        return out


def build_structure_table(rs: RootSystem, base_sign: int = 1) -> StructureTable:
    """Build (or fetch the cached) structure table for one sign convention."""
    return _structure_table(rs, base_sign)


@cache
def _structure_table(rs: RootSystem, base_sign: int) -> StructureTable:
    # one key per (system, sign), however the caller spelled the arguments
    return StructureTable(rs, base_sign)


_ONE = Fraction(1)


def _pair(c) -> Tuple[int, int]:
    """A rational scalar as its reduced integer pair (num, den), den > 0."""
    t = type(c)
    if t is Fraction or t is int:
        return c.as_integer_ratio()
    return (c if isinstance(c, (int, Fraction)) else Fraction(c)).as_integer_ratio()


def _fractions(vec: Mapping[int, Tuple[int, int]]) -> dict:
    """A vector of reduced integer pairs as ``Fraction``s, one shared ``Fraction(1)``."""
    return {k: _ONE if n == d else Fraction(n, d) for k, (n, d) in vec.items()}


def _exp_action(table: StructureTable, delta: int, t: Tuple[int, int],
                vec: Mapping[int, Tuple[int, int]], mask: int, ideal: frozenset, up: bool):
    """exp(ad) (up) or coad (down) of t e_delta on a vector of reduced pairs.

    ``mask`` is the support of vec and t = (tn, td) is reduced too; returns
    the new vector and its support.  vec itself is never changed.
    """
    tn, td = t
    if not tn:
        return vec, mask
    chains = table.chain(delta, up)
    # a root string has at most four roots, so k <= 3
    tpow = (1, tn, tn * tn, tn ** 3)
    dpow = (1, td, td * td, td ** 3)
    # per target, its coefficient plus the terms c * fac * t^k as one integer pair
    sums: Dict[int, Tuple[int, int]] = {}
    for src, (cn, cd) in vec.items():
        if src not in ideal:
            raise ValueError(("vector" if up else "covector")
                             + " support must lie inside the ideal")
        for tgt, fac, k in chains[src]:
            if tgt not in ideal:
                if up:
                    raise AssertionError("ideal is not upward closed under the action")
                continue
            term_d = cd * dpow[k]
            n, d = sums.get(tgt) or vec.get(tgt, (0, 1))
            sums[tgt] = (n * term_d + cn * fac * tpow[k] * d, d * term_d)
    out = dict(vec)
    for tgt, (n, d) in sums.items():
        if n:
            g = gcd(n, d)
            out[tgt] = (n // g, d // g)
            mask |= 1 << tgt
        elif tgt in out:
            del out[tgt]
            mask ^= 1 << tgt
    return out, mask


def _exp_fractions(table: StructureTable, delta: int, t: Fraction,
                   v: Mapping[int, Fraction], ideal: Iterable[int], up: bool) -> dict:
    # frozenset() would copy a validated ideal, which is a frozenset subclass
    a = ideal if isinstance(ideal, frozenset) else frozenset(ideal)
    vec = {k: _pair(c) for k, c in v.items() if c}
    return _fractions(_exp_action(table, delta, _pair(t), vec, _mask_of(vec), a, up)[0])


def ad_exp_action(table: StructureTable, delta: int, t: Fraction,
                  v: Mapping[int, Fraction], ideal: Iterable[int]) -> dict:
    """Coefficients of exp(t ad e_delta) applied to a vector of the ideal."""
    return _exp_fractions(table, delta, t, v, ideal, up=True)


def coad_exp_action(table: StructureTable, delta: int, t: Fraction,
                    xi: Mapping[int, Fraction], ideal: Iterable[int]) -> dict:
    """Coadjoint action on the dual of the ideal, modelled as a quotient.

    Weights that leave the ideal are truncated away; the surviving
    chains only ever step down through positive roots.
    """
    return _exp_fractions(table, delta, t, xi, ideal, up=False)


# -- full bracket on the Chevalley basis (used by tests and demos) ------

def bracket(table: StructureTable, x: Mapping, y: Mapping) -> dict:
    """Lie bracket of elements written on the basis h_i, e_(sign, root).

    Keys are ("h", i) or ("e", sign, root_index); values are rationals.
    """
    rs = table.rs
    out: dict = {}

    def add(key, val):
        if val:
            out[key] = out.get(key, Fraction(0)) + val

    for kx, cx in x.items():
        if not cx:
            continue
        for ky, cy in y.items():
            if not cy:
                continue
            c = cx * cy
            if kx[0] == "h" and ky[0] == "h":
                continue
            if kx[0] == "h" and ky[0] == "e":
                _, s, g = ky
                add(ky, c * s * rs.cartan_pairing(rs.positive_roots[g], kx[1]))
            elif kx[0] == "e" and ky[0] == "h":
                _, s, g = kx
                add(kx, -c * s * rs.cartan_pairing(rs.positive_roots[g], ky[1]))
            else:
                _, s1, g1 = kx
                _, s2, g2 = ky
                if g1 == g2 and s1 != s2:
                    for i, cc in enumerate(rs.coroots[g1]):
                        add(("h", i), c * s1 * cc)
                    continue
                # s1 b1 + s2 b2 is s1 (b1 + b2), s1 (b1 - b2) or s2 (b2 - b1)
                if s1 == s2:
                    idx, sgn = rs.sum_index[g1][g2], s1
                elif rs.diff_index[g1][g2] >= 0:
                    idx, sgn = rs.diff_index[g1][g2], s1
                else:
                    idx, sgn = rs.diff_index[g2][g1], s2
                if idx < 0:
                    continue
                n = table.structure_constant(s1, g1, s2, g2)
                add(("e", sgn, idx), c * n)
    return {k: v for k, v in out.items() if v}
