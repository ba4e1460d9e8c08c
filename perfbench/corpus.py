"""Seeded input corpus for the normal-form workload.

The corpus is built through the package's public API only, so that it
stays the same input set across refactors of the reducer.  Roots are
stored as simple-root coefficient lists, not as indices, and scalars as
"num/den" strings, so the file does not depend on internal numbering.

Three kinds of entry, each with the label the reducer must return:

* ``moved``: e_S moved by a random Borel word, on both sides, for every
  nonzero abelian ideal of rank <= 4; the label is the planted S and the
  reduction must normalise back to e_S.
* ``generic``: a generic full-support vector (label C^l) and covector
  (label C^u) on every nonzero abelian ideal of rank 5 and 6.
* ``residual``: a generic covector on J_S; the label is the Pyasetskii
  dual of S.
"""

from __future__ import annotations

import random
from fractions import Fraction

import borel_orbits as bo

# Every simple type of rank <= 6, in a fixed order.
TYPES = ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3",
         "A4", "B4", "C4", "D4", "F4", "A5", "B5", "C5", "D5",
         "A6", "B6", "C6", "D6", "E6")
MOVED_MAX_RANK = 4
MOVED_PER_SIDE = 20
RESIDUAL_PER_IDEAL = 2


def rank_of(typ: str) -> int:
    return int(typ[1:])


def _rational(rng: random.Random, max_num: int, max_den: int) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, max_num), rng.randint(1, max_den))


def _generic(rng: random.Random, support) -> dict:
    return {g: _rational(rng, 10 ** 6, 1000) for g in sorted(support)}


def _torus(rs, lam, vec: dict, sign: int) -> dict:
    out = {}
    for g, c in vec.items():
        for l, k in zip(lam, rs.positive_roots[g]):
            if k:
                c *= l ** (sign * k)
        out[g] = c
    return out


def _move(rs, table, ideal, vec: dict, side: str, rng: random.Random) -> dict:
    """Apply a random word of 1-10 torus and root-group steps."""
    sign = 1 if side == "primal" else -1
    action = bo.ad_exp_action if side == "primal" else bo.coad_exp_action
    for _ in range(rng.randint(1, 10)):
        if rng.random() < 0.3:
            lam = tuple(_rational(rng, 12, 5) for _ in range(rs.rank))
            vec = _torus(rs, lam, vec, sign)
        else:
            vec = action(table, rng.randrange(rs.num_positive), _rational(rng, 20, 7),
                         vec, ideal)
    return vec


def _entry(rs, kind, side, ideal, vec, label) -> list:
    def coeffs(g):
        return list(rs.positive_roots[g])

    return [str(rs.type), kind, side, sorted(coeffs(g) for g in ideal),
            [[coeffs(g), str(c)] for g, c in sorted(vec.items())],
            sorted(coeffs(g) for g in label)]


def build(seed: int) -> list:
    """Corpus entries [type, kind, side, ideal, vector, expected label]."""
    rng = random.Random(seed)
    out = []
    for typ in TYPES:
        rs = bo.build_root_system(typ)
        table = bo.build_structure_table(rs)
        for ideal in bo.enumerate_abelian_ideals(rs):
            if not ideal:
                continue
            labels = bo.strongly_orth_subsets(rs, ideal)
            if rank_of(typ) <= MOVED_MAX_RANK:
                for side in ("primal", "dual"):
                    for _ in range(MOVED_PER_SIDE):
                        s = labels[rng.randrange(len(labels))]
                        base = {g: Fraction(1) for g in s}
                        moved = _move(rs, table, ideal, base, side, rng)
                        out.append(_entry(rs, "moved", side, ideal, moved, s))
            else:
                out.append(_entry(rs, "generic", "primal", ideal, _generic(rng, ideal),
                                  bo.lower_canonical(rs, ideal)))
                out.append(_entry(rs, "generic", "dual", ideal, _generic(rng, ideal),
                                  bo.upper_canonical(rs, ideal)))
            for _ in range(RESIDUAL_PER_IDEAL):
                s = labels[rng.randrange(len(labels))]
                j = bo.residual_set(rs, ideal, s)
                if j:
                    out.append(_entry(rs, "residual", "dual", ideal, _generic(rng, j),
                                      bo.pyasetskii_dual(rs, ideal, s)))
    return out
