"""Pinned reduction transcripts on a seeded low-rank corpus.

Every nonzero abelian ideal of every simple type of rank <= 3 is reduced
on both sides: e_S moved by a random Borel word, a generic vector and a
generic covector, and generic covectors on J_S.  Each transcript (label,
root-group steps, torus, normalisation flag, result) is written with
roots as simple-root coefficient tuples, so the digest does not depend
on internal numbering, and the sha256 of the whole corpus is compared
with a recorded constant.  Any change to what either reducer returns on
these inputs changes the digest.
"""

import hashlib
import json
import random
from fractions import Fraction

from borel_orbits import build_root_system, enumerate_abelian_ideals
from borel_orbits.normal_form import (
    apply_b_element,
    random_b_element,
    random_vector,
    reduce_in_dual,
    reduce_in_ideal,
    replay,
)
from borel_orbits.orbits import residual_set, strongly_orth_subsets

TYPES = ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3")
SEED = 20240
MOVED_PER_SIDE = 5
RESIDUAL_PER_IDEAL = 2
DIGEST = "65ab30a59604625b3b028950a0323633c355a99c1b1e7752e6ef8a28714a4b98"


def _record(rs, kind, side, label, tr) -> list:
    roots = rs.positive_roots
    return [str(rs.type), kind, side,
            sorted(roots[g] for g in label),
            [[roots[d], str(t)] for d, t in tr.steps],
            [str(x) for x in tr.torus],
            tr.normalized,
            sorted((roots[g], str(c)) for g, c in tr.result.items())]


def _transcripts() -> list:
    rng = random.Random(SEED)
    reducers = {"primal": reduce_in_ideal, "dual": reduce_in_dual}
    out = []

    def reduce(rs, a, kind, side, v):
        label, tr = reducers[side](rs, a, v)
        assert replay(rs, a, tr, v) == tr.result
        out.append(_record(rs, kind, side, label, tr))

    for typ in TYPES:
        rs = build_root_system(typ)
        for a in enumerate_abelian_ideals(rs):
            if not a:
                continue
            labels = strongly_orth_subsets(rs, a)
            for side in ("primal", "dual"):
                for _ in range(MOVED_PER_SIDE):
                    s = labels[rng.randrange(len(labels))]
                    ops = random_b_element(rs, rng)
                    moved = apply_b_element(rs, a, ops, {g: Fraction(1) for g in s}, side)
                    reduce(rs, a, "moved", side, moved)
                reduce(rs, a, "generic", side, random_vector(rs, a, rng))
            for _ in range(RESIDUAL_PER_IDEAL):
                j = residual_set(rs, a, labels[rng.randrange(len(labels))])
                if j:
                    reduce(rs, a, "residual", "dual", random_vector(rs, j, rng))
    return out


def test_transcripts_are_pinned():
    records = _transcripts()
    blob = json.dumps(records, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == DIGEST, len(records)
