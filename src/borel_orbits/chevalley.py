"""Integral Chevalley-basis structure constants and exp-of-ad actions.

Signs follow the extraspecial-pair convention: for every non-simple
positive root, the generating pair whose first member is smallest in
the fixed root order gets a positive constant, and every other constant
is forced by antisymmetry and the Jacobi identity.  All values are
exact integers of absolute value p+1 for the relevant root string.

The exp(ad) action on an ideal and the coadjoint action on its dual are
one routine that follows root strings up or down by delta; the sides
differ only where a string leaves the ideal: ad fails, coad truncates.
It sums the chain terms c * N * t^k / k! per target as integer
(numerator, denominator) pairs and builds one ``Fraction`` per touched
coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Dict, Iterable, Mapping, Tuple

from .root_system import RootSystem


class StructureTable:
    """N_{a,b} for all root pairs of one system, one sign convention."""

    def __init__(self, rs: RootSystem, base_sign: int = 1):
        if base_sign not in (1, -1):
            raise ValueError("base_sign must be +1 or -1")
        self.rs = rs
        self.base_sign = base_sign
        self._pos: Dict[Tuple[int, int], int] = {}
        self._signed_cache: Dict[Tuple[int, int, int, int], int] = {}
        self._chains: Dict[Tuple[int, bool], tuple] = {}
        self._build()

    # -- p-values and the positive table -------------------------------

    def p_value(self, i: int, j: int) -> int:
        """Largest k with root_j - k*root_i still a root (of either sign)."""
        rs = self.rs
        a = rs.positive_roots[i]
        cur = list(rs.positive_roots[j])
        p = 0
        while True:
            cur = [x - y for x, y in zip(cur, a)]
            t = tuple(cur)
            if t in rs.root_index or tuple(-x for x in t) in rs.root_index:
                p += 1
            else:
                return p

    def _build(self):
        rs = self.rs
        npos = rs.num_positive
        pairs_for_sum = [[] for _ in range(npos)]
        for i in range(npos):
            for j in range(i + 1, npos):
                g = rs.sum_index[i][j]
                if g >= 0:
                    pairs_for_sum[g].append((i, j))
        for g in range(npos):
            pairs = sorted(pairs_for_sum[g])
            if not pairs:
                continue
            a1, b1 = pairs[0]
            self._pos[(a1, b1)] = self.base_sign * (self.p_value(a1, b1) + 1)
            for a, b in pairs[1:]:
                n = self._from_jacobi(a, b, g, a1, b1)
                if abs(n) != self.p_value(a, b) + 1:
                    raise AssertionError("structure constant magnitude mismatch")
                self._pos[(a, b)] = n

    def _from_jacobi(self, a: int, b: int, g: int, a1: int, b1: int) -> int:
        """Constant of a non-extraspecial pair from already-built values."""
        rs = self.rs
        t1 = Fraction(0)
        if rs.diff_index[b][a1] >= 0:
            c = rs.diff_index[b][a1]
            n_b_ma1 = -self._pos_lookup(a1, c) * Fraction(rs.root_norms[c], rs.root_norms[b])
            t1 = n_b_ma1 * self._pos_lookup(c, a)
        t2 = Fraction(0)
        if rs.diff_index[a][a1] >= 0:
            c = rs.diff_index[a][a1]
            n_ma1_a = self._pos_lookup(a1, c) * Fraction(rs.root_norms[c], rs.root_norms[a])
            t2 = n_ma1_a * self._pos_lookup(c, b)
        n_g_ma1 = -self._pos_lookup(a1, b1) * Fraction(rs.root_norms[b1], rs.root_norms[g])
        val = -(t1 + t2) / n_g_ma1
        if val == 0 or val.denominator != 1:
            raise AssertionError("Jacobi propagation produced a non-integer constant")
        return int(val)

    def _pos_lookup(self, i: int, j: int) -> int:
        if i < j:
            return self._pos[(i, j)]
        return -self._pos[(j, i)]

    # -- public access --------------------------------------------------

    def structure_constant(self, sa: int, ia: int, sb: int, ib: int) -> int:
        """N for signed roots sa*root_ia, sb*root_ib; 0 when the sum is no root."""
        rs = self.rs
        if ia == ib and sa != sb:
            raise ValueError("opposite roots bracket into the Cartan, not a root vector")
        key = (sa, ia, sb, ib)
        hit = self._signed_cache.get(key)
        if hit is not None:
            return hit
        if sa > 0 and sb > 0:
            val = self._pos_lookup(ia, ib) if rs.sum_index[ia][ib] >= 0 else 0
        elif sa < 0 and sb < 0:
            val = -self.structure_constant(1, ia, 1, ib)
        elif sa < 0:
            val = -self.structure_constant(sb, ib, sa, ia)
        else:
            # sa = +1, sb = -1; use the cyclic rule on a zero-sum triple
            if rs.diff_index[ia][ib] >= 0:
                c = rs.diff_index[ia][ib]
                val = -self._pos_lookup(ib, c) * Fraction(rs.root_norms[c], rs.root_norms[ia])
            elif rs.diff_index[ib][ia] >= 0:
                c = rs.diff_index[ib][ia]
                val = self._pos_lookup(c, ia) * Fraction(rs.root_norms[c], rs.root_norms[ib])
            else:
                val = 0
            if val != int(val):
                raise AssertionError("non-integer mixed structure constant")
            val = int(val)
        self._signed_cache[key] = val
        return val

    # -- exp(ad) chains --------------------------------------------------

    def chain(self, delta: int, up: bool) -> tuple:
        """Per source root: ((target, coefficient_of_t^k, k), ...) going up by
        delta (the ad action) or down by delta through positive roots (coad)."""
        hit = self._chains.get((delta, up))
        if hit is not None:
            return hit
        rs = self.rs
        step = rs.sum_index if up else rs.diff_index
        sign = 1 if up else -1
        chains = []
        for src in range(rs.num_positive):
            entries = []
            cur = src
            prod = 1
            k = 0
            while True:
                nxt = step[cur][delta]
                if nxt < 0:
                    break
                prod *= self.structure_constant(1, delta, sign, cur)
                k += 1
                entries.append((nxt, Fraction(prod, factorial(k)), k))
                cur = nxt
            chains.append(tuple(entries))
        chains = tuple(chains)
        self._chains[(delta, up)] = chains
        return chains

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


def _exp_action(table: StructureTable, delta: int, t: Fraction,
                v: Mapping[int, Fraction], ideal: Iterable[int], up: bool) -> dict:
    # frozenset() would copy a validated ideal, which is a frozenset subclass
    a = ideal if isinstance(ideal, frozenset) else frozenset(ideal)
    out = {k: c if isinstance(c, Fraction) else Fraction(c) for k, c in v.items() if c}
    if t == 0:
        return out
    chains = table.chain(delta, up)
    tn, td = t.as_integer_ratio()
    # per target, its coefficient plus the terms c * fac * t^k as one integer pair
    sums: Dict[int, Tuple[int, int]] = {}
    for src, c in out.items():
        if src not in a:
            raise ValueError(("vector" if up else "covector")
                             + " support must lie inside the ideal")
        cn, cd = c.as_integer_ratio()
        for tgt, fac, k in chains[src]:
            if tgt not in a:
                if up:
                    raise AssertionError("ideal is not upward closed under the action")
                continue
            fn, fd = fac.as_integer_ratio()
            term_d = cd * fd * td ** k
            n, d = sums.get(tgt) or out.get(tgt, 0).as_integer_ratio()
            sums[tgt] = (n * term_d + cn * fn * tn ** k * d, d * term_d)
    for tgt, (n, d) in sums.items():
        if n:
            out[tgt] = Fraction(n, d)
        else:
            out.pop(tgt, None)
    return out


def ad_exp_action(table: StructureTable, delta: int, t: Fraction,
                  v: Mapping[int, Fraction], ideal: Iterable[int]) -> dict:
    """Coefficients of exp(t ad e_delta) applied to a vector of the ideal."""
    return _exp_action(table, delta, t, v, ideal, up=True)


def coad_exp_action(table: StructureTable, delta: int, t: Fraction,
                    xi: Mapping[int, Fraction], ideal: Iterable[int]) -> dict:
    """Coadjoint action on the dual of the ideal, modelled as a quotient.

    Weights that leave the ideal are truncated away; the surviving
    chains only ever step down through positive roots.
    """
    return _exp_action(table, delta, t, xi, ideal, up=False)


# -- full bracket on the Chevalley basis (used by tests and demos) ------

def coroot_coeffs(rs: RootSystem, gamma: int) -> tuple:
    """gamma^vee in the basis of simple coroots: the integer row ``rs.coroots[gamma]``."""
    return rs.coroots[gamma]


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
                    for i, cc in enumerate(coroot_coeffs(rs, g1)):
                        add(("h", i), c * s1 * cc)
                    continue
                vec = tuple(s1 * a + s2 * b for a, b in
                            zip(rs.positive_roots[g1], rs.positive_roots[g2]))
                idx = rs.root_index.get(vec)
                if idx is not None:
                    sgn = 1
                else:
                    idx = rs.root_index.get(tuple(-v for v in vec))
                    sgn = -1
                if idx is None:
                    continue
                n = table.structure_constant(s1, g1, s2, g2)
                add(("e", sgn, idx), c * n)
    return {k: v for k, v in out.items() if v}
