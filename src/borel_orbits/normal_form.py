"""Reduction of (co)vectors of an abelian ideal to canonical representatives.

One routine, parameterised by side, reduces vectors of the ideal and
covectors of its dual.  It peels minimal (resp. maximal) support layers
into S, kills the coefficients on M_S (resp. M*_S) with exp(ad) (resp.
the coadjoint action) of root-group elements whose parameter solves an
exact linear equation, and finishes with a torus scaling.  Every step is
recorded in a transcript whose replay reproduces the reached vector
exactly.

Over the rationals the final scaling to all-ones coefficients is not
always possible (it may require extracting roots); the transcript
reports whether it was.  Inputs lying in the rational orbit of a
canonical representative always normalise fully.

The arithmetic is exact and fraction-free.  A (co)vector becomes a dict
of reduced integer pairs (num, den) once, when it enters, and travels
with its support mask through every exp(ad) step, torus step and kill;
``Fraction``s are built only for what the caller sees: the transcript's
steps, torus and result, and the vectors ``replay`` and
``apply_b_element`` return (also for int torus parameters), and every
coefficient or torus coordinate equal to 1 is one shared ``Fraction(1)``.

Torus characters are evaluated on sparse exponent rows, (index,
exponent) pairs: one per positive root of a system (``_root_rows``) and
the Smith transforms of the torus solve.  lambda^(-c) = p/q is
lambda^c = q/p, so the dual side swaps its targets (or its torus
coordinates) and both sides share one Smith normal form per (system,
label), memoised in ``_torus_smith``.  The solve's consistency check
proves the scaled vector is all ones, so a reduction does not apply the
torus again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd
from typing import Iterable, Mapping, Optional, Tuple

from . import orbits
from .chevalley import (_ONE, StructureTable, _exp_action, _fractions, _pair,
                        build_structure_table)
from .ideals import check_abelian_ideal
from .intlin import nth_root_fraction, smith_normal_form
from .root_system import (RootSystem, _bits, _max_layer, _min_layer, _set_of, _union,
                          non_orthogonal_pair)


@dataclass(frozen=True)
class ReductionTranscript:
    """Audit trail of one reduction: root-group steps plus a torus step."""

    side: str                               # "primal" or "dual"
    steps: Tuple[Tuple[int, Fraction], ...]  # (positive-root index, parameter)
    torus: Tuple[Fraction, ...]              # per-simple-coordinate scalings
    normalized: bool                         # True iff result has all coefficients 1
    result: dict                             # vector reached, root index -> coefficient

    def to_json(self, rs: RootSystem) -> dict:
        return {
            "side": self.side,
            "steps": [[rs.root_label(d), str(t)] for d, t in self.steps],
            "torus": [str(x) for x in self.torus],
            "normalized": self.normalized,
            "result": {rs.root_label(i): str(c) for i, c in sorted(self.result.items())},
        }


def _char(pairs, row, num: int = 1, den: int = 1) -> Tuple[int, int]:
    """num/den times the product of pairs[i] ** e over the sparse row of (i, e), as a pair."""
    for i, e in row:
        p, q = pairs[i]
        if e > 0:
            num *= p ** e
            den *= q ** e
        else:
            num *= q ** -e
            den *= p ** -e
    return num, den


def _sparse(coeffs) -> tuple:
    """The nonzero entries of a coefficient row as (index, coefficient) pairs."""
    return tuple((i, c) for i, c in enumerate(coeffs) if c)


@cache
def _root_rows(rs: RootSystem) -> tuple:
    """Every positive root's simple-root coefficients as a sparse row."""
    return tuple(map(_sparse, rs.positive_roots))


def char_value(lam: Tuple[Fraction, ...], coeffs, sign: int = 1) -> Fraction:
    """Value of the torus character with the given simple coordinates."""
    pairs = [l.as_integer_ratio() for l in lam]
    return Fraction(*_char(pairs, _sparse(sign * c for _, c in zip(pairs, coeffs))))


def _inputs(rs: RootSystem, ideal: Iterable[int], v: Mapping[int, Fraction],
            table: Optional[StructureTable], side: str):
    """The validated ideal, the structure table, and v's nonzero entries as pairs with their mask."""
    if side not in ("primal", "dual"):
        raise ValueError("side must be 'primal' or 'dual'")
    a = check_abelian_ideal(rs, ideal)
    if table is None:
        table = build_structure_table(rs)
    elif table.rs is not rs:
        raise ValueError(f"the structure table is for {table.rs.type}, not for {rs.type}")
    vec, mask = {}, 0
    for k, c in v.items():
        c = _pair(c)
        if not c[0]:
            continue
        if k not in a:
            raise ValueError(f"support root {rs.root_label(k)} lies outside the ideal")
        vec[k] = c
        mask |= 1 << k
    return a, table, vec, mask


# bounded because callers may reduce any number of labels; the seed-1
# benchmark corpus uses 733 entries, suite item 11 180
@lru_cache(maxsize=1 << 12)
def _torus_smith(rs: RootSystem, roots: tuple) -> tuple:
    """Smith form (u, diagonal, v) of the exponent rows of the roots, u and v as
    sparse rows; v keeps only its first len(roots) columns, as y_j = 1 beyond them."""
    u, d, v = smith_normal_form([rs.positive_roots[g] for g in roots])
    k = len(roots)
    diag = tuple(d[j][j] if j < rs.rank else 0 for j in range(k))
    return tuple(map(_sparse, u)), diag, tuple(_sparse(row[:k]) for row in v)


def _solve_scalings(rs: RootSystem, roots, targets, sign: int = 1):
    """Rational lambda with prod lambda_i^(sign*coeff) = p/q per root, target (p, q); or None."""
    if not roots:
        return (_ONE,) * rs.rank
    if sign < 0:
        # lambda^(-c) = p/q is lambda^c = q/p.  Smith(-c) has the diagonal and
        # v of Smith(c) and negates u's rows with d_j != 0 (a row with d_j = 0
        # only tests targets^u[j] = 1), so both give the same lambda
        targets = [(q, p) for p, q in targets]
    # u c v = diag(d) turns lambda^c = targets into y_j^d_j = targets^u[j],
    # and then lambda_i = y^v[i]
    u, diag, v = _torus_smith(rs, tuple(roots))
    y = [(1, 1)] * len(diag)
    for j, (row, dj) in enumerate(zip(u, diag)):
        num, den = _char(targets, row)
        # for d_j = 1 the root is s_j itself
        if dj > 1:
            root = nth_root_fraction(Fraction(num, den), dj)
            if root is None:
                return None
            num, den = root.as_integer_ratio()
        if dj:
            y[j] = num, den
        elif num != den:
            return None
    lam = [_char(y, row) for row in v]
    rows = _root_rows(rs)
    for g, (p, q) in zip(roots, targets):
        num, den = _char(lam, rows[g])
        if num * q != den * p:
            raise AssertionError("torus solver produced an inconsistent solution")
    return tuple(_ONE if p == q else Fraction(p, q) for p, q in lam)


def _apply_torus(rs: RootSystem, lam, vec: dict, primal: bool) -> dict:
    """The torus element with simple coordinates lam, as pairs, on a vector of pairs."""
    if not primal:  # the character lambda^(-c) at lam is lambda^c at 1/lam
        lam = [(q, p) for p, q in lam]
    rows = _root_rows(rs)
    out = {}
    for k, (n, d) in vec.items():
        n, d = _char(lam, rows[k], n, d)
        g = gcd(n, d) if d > 0 else -gcd(n, d)
        out[k] = n // g, d // g
    return out


def _reduce(rs: RootSystem, ideal: Iterable[int], v: Mapping[int, Fraction],
            table: Optional[StructureTable], side: str):
    a, table, vec, mask = _inputs(rs, ideal, v, table, side)
    # the side fixes the peeling (min or max), the shift and the hull a kill
    # must shrink (up or down), the action (ad or coad) and the sign of the
    # torus character
    primal = side == "primal"
    if primal:
        layer_of, shifts, hulls = _min_layer, rs.up_shift_masks, rs.up_masks
    else:
        layer_of, shifts, hulls = _max_layer, rs.down_shift_masks, rs.down_masks
    what = "" if primal else "dual "
    orth, diffs, ideal_mask = rs.orth_masks, rs.diff_index, a.mask
    steps = []
    acc: list = []  # S in the order its layers were peeled
    s = shifted = 0
    while True:
        layer = layer_of(rs, mask & ~s)
        if not layer:
            break
        new = _bits(layer)
        acc.extend(new)
        s |= layer
        # pairs of earlier layers were checked when they joined: check the new
        # layer against all of S, and name the first bad pair as before
        if any(s & ~(orth[i] | 1 << i) for i in new):
            bad = non_orthogonal_pair(rs, acc)
            raise AssertionError(
                f"accumulated set is not strongly orthogonal: "
                f"{rs.root_label(bad[0])}, {rs.root_label(bad[1])}")
        # the support stays inside the ideal, so both shifts may be bounded by it
        shifted = (shifted | _union(shifts, layer)) & ideal_mask
        targets = shifted & mask
        hull = _union(hulls, targets) & ideal_mask
        while targets:
            first = layer_of(rs, targets)
            nu = (first & -first).bit_length() - 1
            # nu = gamma + delta (primal) or gamma - delta (dual), gamma in S
            for gamma in acc:
                delta = diffs[nu][gamma] if primal else diffs[gamma][nu]
                if delta >= 0:
                    break
            else:
                raise AssertionError(f"{what}kill target is not a shift of S")
            # walking away from nu along delta (down on the primal side, up
            # on the dual), only the first root may carry support, otherwise
            # the kill is not linear
            if any(k > 1 and tgt in vec for tgt, _, k in table.chain(delta, not primal)[nu]):
                raise AssertionError(f"{what}kill step would be nonlinear; minimality violated")
            # the first link of gamma's delta-string is nu, with coefficient N
            link = table.chain(delta, primal)[gamma]
            if not link or link[0][0] != nu:
                raise AssertionError(f"{what}kill target is not on the delta-string of S")
            n = link[0][1]
            (vn, vd), (gn, gd) = vec[nu], vec[gamma]
            t = Fraction(-vn * gd, n * gn * vd)  # -v_nu / (n v_gamma)
            before = [vec[g] for g in acc]
            vec, mask = _exp_action(table, delta, t.as_integer_ratio(), vec, mask, a, primal)
            steps.append((delta, t))
            if nu in vec:
                raise AssertionError(f"{what}kill step failed to remove its target")
            if [vec.get(g) for g in acc] != before:
                raise AssertionError(f"{what}kill step changed a coefficient on S")
            targets = shifted & mask
            old_hull, hull = hull, _union(hulls, targets) & ideal_mask
            if hull & ~old_hull or hull == old_hull:
                raise AssertionError(f"{what}kill phase is not making progress")
    if mask != s:
        raise AssertionError(f"{what}reduction finished with support different from S")
    order = _bits(s)
    # lambda^c = 1 / vec[g] on the primal side, lambda^(-c) = 1 / vec[g] on
    # the dual, both as lambda^c = target
    lam = _solve_scalings(rs, order, [vec[g][::-1] if primal else vec[g] for g in order])
    normalized = lam is not None
    if normalized:
        # the solve has checked lambda^(sign c_g) vec[g] = 1 for every g in S
        result = {g: _ONE for g in vec}
    else:
        lam = (_ONE,) * rs.rank
        result = _fractions(vec)
    return _set_of(s), ReductionTranscript(side, tuple(steps), lam, normalized, result)


def reduce_in_ideal(rs: RootSystem, ideal: Iterable[int], v: Mapping[int, Fraction],
                    table: Optional[StructureTable] = None):
    """Reduce a vector of the ideal to its orbit label S and a transcript."""
    return _reduce(rs, ideal, v, table, "primal")


def reduce_in_dual(rs: RootSystem, ideal: Iterable[int], xi: Mapping[int, Fraction],
                   table: Optional[StructureTable] = None):
    """Dual-side reduction, peeling maximal support layers downwards."""
    return _reduce(rs, ideal, xi, table, "dual")


def _trajectory(rs: RootSystem, ideal: Iterable[int], ops, v: Mapping[int, Fraction],
                side: str, table: Optional[StructureTable]) -> list:
    """The pair vector before and after each ("unipotent", delta, t) or ("torus", lam) op."""
    a, table, vec, mask = _inputs(rs, ideal, v, table, side)
    up = side == "primal"
    out = [vec]
    for op in ops:
        if op[0] == "torus":
            vec = _apply_torus(rs, [_pair(l) for l in op[1]], vec, up)
        else:
            vec, mask = _exp_action(table, op[1], _pair(op[2]), vec, mask, a, up)
        out.append(vec)
    return out


def replay(rs: RootSystem, ideal: Iterable[int], transcript: ReductionTranscript,
           v: Mapping[int, Fraction], table: Optional[StructureTable] = None) -> dict:
    """Apply the recorded steps to a vector; must reproduce transcript.result."""
    ops = [("unipotent", d, t) for d, t in transcript.steps] + [("torus", transcript.torus)]
    return _fractions(_trajectory(rs, ideal, ops, v, transcript.side, table)[-1])


def replay_supports(rs: RootSystem, ideal: Iterable[int], transcript: ReductionTranscript,
                    v: Mapping[int, Fraction],
                    table: Optional[StructureTable] = None) -> list:
    """Supports of every intermediate vector along a transcript replay."""
    ops = [("unipotent", d, t) for d, t in transcript.steps]
    return [frozenset(vec) for vec in _trajectory(rs, ideal, ops, v, transcript.side, table)]


def orbit_of_vector(rs: RootSystem, ideal: Iterable[int], v: Mapping[int, Fraction],
                    side: str = "primal") -> orbits.OrbitRecord:
    """Reduce a (co)vector and return the orbit record of its label."""
    s, _ = _reduce(rs, ideal, v, None, side)
    return orbits.orbit_record(rs, ideal, s)


# -- randomised inputs for the property checks ---------------------------

def random_rational(rng: random.Random, max_num: int = 10 ** 6, max_den: int = 1000) -> Fraction:
    """Nonzero rational with numerator up to max_num, random sign."""
    return Fraction(rng.choice((1, -1)) * rng.randint(1, max_num), rng.randint(1, max_den))


def random_vector(rs: RootSystem, support: Iterable[int], rng: random.Random,
                  max_num: int = 10 ** 6) -> dict:
    return {g: random_rational(rng, max_num) for g in sorted(support)}


def random_b_element(rs: RootSystem, rng: random.Random, max_steps: int = 10) -> list:
    """A word of at most max_steps root-group and torus steps."""
    ops = []
    for _ in range(rng.randint(1, max_steps)):
        if rng.random() < 0.3:
            lam = tuple(random_rational(rng, 12, 5) for _ in range(rs.rank))
            ops.append(("torus", lam))
        else:
            ops.append(("unipotent", rng.randrange(rs.num_positive),
                        random_rational(rng, 20, 7)))
    return ops


def apply_b_element(rs: RootSystem, ideal: Iterable[int], ops, v: Mapping[int, Fraction],
                    side: str = "primal", table: Optional[StructureTable] = None) -> dict:
    return _fractions(_trajectory(rs, ideal, ops, v, side, table)[-1])
