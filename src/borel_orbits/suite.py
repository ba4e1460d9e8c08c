"""Built-in verification suite: reproduces every reference value at desk scale.

Each item checks one cluster of published values or structural claims
with exact arithmetic and prints a single PASS/FAIL line through the
runner.  Randomised items draw from a seeded generator so reruns are
byte-identical.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import anr, normal_form, orbits, weyl
from .ideals import (
    enumerate_abelian_ideals,
    ideal_from_shape,
    maximal_abelian_ideals,
)
from .root_system import (_RANK_RULES, RootSystem, _labels, _parse_roots, build_root_system,
                          min_elements)

DEFAULT_SEED = 20344


def all_types(max_rank: int, min_rank: int = 1) -> List[str]:
    """Every simple type with rank in the given range, by rank, then family."""
    return [f"{f}{n}" for n in range(min_rank, max_rank + 1) for f in "ABCDEFG"
            if _RANK_RULES[f](n)]


def abelian_count_via_antichains(rs: RootSystem) -> int:
    """Independent abelian-ideal counter: antichain generators, then closure.

    Enumerates every antichain of the root poset, closes it upward and
    keeps the abelian ones; dedupes by the resulting root set.  Shares
    no code with the direct root-by-root enumerator.
    """
    npos = rs.num_positive
    comparable = [0] * npos
    for i in range(npos):
        for j in range(npos):
            if i != j and ((rs.up_masks[i] >> j) & 1 or (rs.up_masks[j] >> i) & 1):
                comparable[i] |= 1 << j
    found = set()

    def consider(mask: int):
        probe = mask
        while probe:
            low = probe & -probe
            i = low.bit_length() - 1
            if rs.sum_masks[i] & mask:
                return
            probe ^= low
        found.add(mask)

    # antichain members chosen in increasing index, pairwise incomparable
    def walk(pos: int, chosen_mask: int, ideal_mask: int):
        consider(ideal_mask)
        for i in range(pos, npos):
            if comparable[i] & chosen_mask:
                continue
            walk(i + 1, chosen_mask | (1 << i), ideal_mask | rs.up_masks[i])

    walk(0, 0, 0)
    return len(found)


def _ideals_up_to_rank(max_rank: int):
    """(root system, ideal) for every nonzero abelian ideal of every type up to the rank."""
    for t in all_types(max_rank):
        rs = build_root_system(t)
        for a in enumerate_abelian_ideals(rs):
            if a:
                yield rs, a


# -- items ----------------------------------------------------------------

def item_01_shape331_count(seed: int):
    rs = build_root_system("A5")
    ideal = ideal_from_shape(rs, [3, 3, 1])
    count = len(orbits.strongly_orth_subsets(rs, ideal))
    return count == 20, f"A5 shape (3,3,1) has {count} orbits (expected 20)"


def item_02_g2_maximal(seed: int):
    rs = build_root_system("G2")
    mx = maximal_abelian_ideals(rs)
    ideal = mx[-1]
    pairs = [(i, j) for i in ideal for j in ideal
             if i < j and (rs.orth_masks[i] >> j) & 1]
    subsets = orbits.strongly_orth_subsets(rs, ideal)
    ok = len(mx) == 1 and len(ideal) == 3 and not pairs and len(subsets) == 4
    return ok, (f"G2 maximal ideal: size {len(ideal)}, {len(pairs)} orthogonal pairs, "
                f"{len(subsets)} orbits")


def item_03_canonical_sets(seed: int):
    rs = build_root_system("A5")
    ideal = ideal_from_shape(rs, [3, 3, 1])
    cl = orbits.lower_canonical(rs, ideal)
    cu = orbits.upper_canonical(rs, ideal)
    ok = (cl == _parse_roots(rs, "e2-e4,e3-e6,e1-e5")
          and cu == _parse_roots(rs, "e1-e6,e2-e5"))
    return ok, f"C^l = {{{_labels(rs, cl)}}}, C^u = {{{_labels(rs, cu)}}}"


def item_04_pyasetskii(seed: int):
    checked = 0
    for rs, ideal in _ideals_up_to_rank(5):
        cu = orbits.upper_canonical(rs, ideal)
        cl = orbits.lower_canonical(rs, ideal)
        if orbits.pyasetskii_dual(rs, ideal, frozenset()) != cu:
            return False, f"dual of the empty set is not C^u in {rs.type}"
        if orbits.pyasetskii_dual(rs, ideal, cl) != frozenset():
            return False, f"dual of C^l is not empty in {rs.type}"
        checked += 1
    rs = build_root_system("A5")
    ideal = ideal_from_shape(rs, [3, 3, 1])
    dual = orbits.pyasetskii_dual(rs, ideal, _parse_roots(rs, "e1-e4,e2-e6"))
    if dual != _parse_roots(rs, "e2-e5,e3-e6"):
        return False, f"duality example failed: got {{{_labels(rs, dual)}}}"
    return True, (f"extreme duals correct on {checked} ideals at rank <= 5; "
                  "example dual(e1-e4,e2-e6) = e2-e5,e3-e6")


def item_05_anr_tables(seed: int):
    # the tables come from the counter, not from label_counts or
    # anr_statistic, which read the closed forms under test wherever they apply
    problems = []

    def counts(rs, node0):
        return orbits._count_labels(rs, anr.anr_ideal(rs, node0))

    def check(t, node0, expected_counts, expected_total):
        c = counts(build_root_system(t), node0)
        if list(c) != list(expected_counts) or sum(c) != expected_total:
            problems.append(f"{t} node {node0 + 1}: {c} total {sum(c)}")

    for n in range(2, 7):
        check(f"B{n}", 0, (1, 2 * n - 1, n - 1), 3 * n - 1)
    for n in range(3, 8):
        check(f"D{n}", 0, (1, 2 * n - 2, n - 1), 3 * n - 2)
    d_totals = [sum(orbits.d_count(n, k) for k in range(n + 1)) for n in range(1, 8)]
    if d_totals != [1, 2, 4, 10, 26, 76, 232]:
        problems.append(f"d-series totals {d_totals}")
    for n in range(3, 8):
        rs = build_root_system(f"D{n}")
        for node in (n - 2, n - 1):
            c = counts(rs, node)
            expected = [orbits.d_count(n, k) for k in range(n // 2 + 1)]
            if list(c) != expected or sum(c) != d_totals[n - 1]:
                problems.append(f"D{n} node {node + 1}: {c}")
    c_totals = [sum(orbits.c_count(n, k) for k in range(n + 1)) for n in range(1, 7)]
    if c_totals != [2, 5, 14, 43, 142, 499]:
        problems.append(f"c-series totals {c_totals}")
    for n in range(2, 7):
        c = counts(build_root_system(f"C{n}"), n - 1)
        expected = [orbits.c_count(n, k) for k in range(n + 1)]
        if list(c) != expected or sum(c) != c_totals[n - 1]:
            problems.append(f"C{n}: {c}")
    for node in (0, 5):
        check("E6", node, (1, 16, 40), 57)
    check("E7", 6, (1, 27, 135, 45), 208)
    for n in range(2, 8):
        rs = build_root_system(f"A{n}")
        for node in range(n):
            m, k = node + 1, n - node
            c = counts(rs, node)
            expected = [orbits.rectangle_count(m, k, j) for j in range(min(m, k) + 1)]
            if list(c) != expected:
                problems.append(f"A{n} node {node + 1}: {c}")
    ok = not problems
    return ok, ("all ANR tables match closed forms (B2-6, C2-6, D3-7, A2-7, E6, E7)"
                if ok else "; ".join(problems[:4]))


def item_06_c_symmetry(seed: int):
    for n in range(1, 13):
        for k in range(n + 1):
            if orbits.c_count(n, k) != orbits.c_count(n, n - k):
                return False, f"c({n},{k}) != c({n},{n - k})"
    for n in range(2, 6):
        rs = build_root_system(f"C{n}")
        ideal = anr.anr_ideal(rs, n - 1)
        for s in orbits.strongly_orth_subsets(rs, ideal):
            image = anr.symmetry_bijection(rs, s)
            if len(image) != n - len(s) or anr.symmetry_bijection(rs, image) != s:
                return False, f"bijection failed in C{n} at {{{_labels(rs, s)}}}"
    return True, "c(n,k) = c(n,n-k) for n <= 12, realised by the index bijection for n <= 5"


def item_07_krull(seed: int):
    rs = build_root_system("A5")
    ideal = ideal_from_shape(rs, [3, 3, 1])
    p, m = orbits.krull_dims(rs, ideal)
    if (p, m) != (3, 2):
        return False, f"A5 shape (3,3,1) gave (p, m) = ({p}, {m})"
    checked = 0
    for rsys, a in _ideals_up_to_rank(5):
        p, m = orbits.krull_dims(rsys, a)
        dim = len(a)
        codim1 = codim1_star = 0
        for s in orbits.strongly_orth_subsets(rsys, a):
            da, ds = orbits.orbit_dims(rsys, a, s)
            if da == dim - 1:
                codim1 += 1
            if ds == dim - 1:
                codim1_star += 1
        if codim1 != p or codim1_star != m:
            return False, (f"{rsys.type}: codim-1 counts ({codim1}, {codim1_star}) "
                           f"vs (p, m) = ({p}, {m})")
        checked += 1
    return True, (f"(p, m) = (3, 2) for the running example; codimension-1 counts "
                  f"match on {checked} ideals at rank <= 5")


def item_08_index(seed: int):
    for n in range(2, 9):
        rs = build_root_system(f"A{n - 1}")
        if orbits.borel_index(rs) != (n - 1) // 2:
            return False, f"index of the Borel in A{n - 1} is {orbits.borel_index(rs)}"
    for n in range(2, 7):
        rs = build_root_system(f"C{n}")
        if orbits.borel_index(rs) != 0:
            return False, f"index of the Borel in C{n} is nonzero"
    equalities = []
    for rs, a in _ideals_up_to_rank(6):
        fam, n = rs.type.family, rs.rank
        est = orbits.dim_estimate_report(rs, a)
        if est.equality and not est.cascade_inside:
            return False, f"{rs.type}: equality without the cascade inside the ideal"
        # B2 and D3 coincide with C2 and A3, so their extremes count too
        expected_eq = (
            (fam == "A" and len(a) == ((n + 1) ** 2) // 4)
            or (fam == "C" and len(a) == (n * n + n) // 2)
            or (fam == "B" and n == 2 and len(a) == 3)
            or (fam == "D" and n == 3 and len(a) == 4))
        if est.equality != expected_eq:
            return False, (f"{rs.type} ideal of size {len(a)}: equality="
                           f"{est.equality}, expected {expected_eq}")
        if est.equality:
            equalities.append((rs.type, len(a)))
    return True, (f"index formulas hold (A up to rank 7, C up to 6); equality cases "
                  f"at rank <= 6 are exactly {len(equalities)} A/C extremes")


def item_09_d4_counterexample(seed: int):
    rs = build_root_system("D4")
    a = next(x for x in maximal_abelian_ideals(rs) if len(x) == 5)
    s = min_elements(rs, a)
    dim_a, dim_star = orbits.orbit_dims(rs, a, s)
    sig = weyl.sigma_of_orth_set(rs, s)
    ell = weyl.length(rs, sig.element)
    rk = weyl.absolute_length(rs, sig.element)
    cu = orbits.upper_canonical(rs, a)
    sig_cu = weyl.sigma_of_orth_set(rs, cu)
    ell_theta = weyl.length(rs, sig_cu.element)
    not_leq = not weyl.bruhat_leq(rs, sig.element, sig_cu.element)
    ok = (dim_a == 5 and dim_star == 3 and ell == 11 and rk == 3
          and cu == frozenset({rs.theta_index}) and ell_theta == 9 and not_leq
          and 2 * dim_star != ell + rk)
    return ok, (f"dim O_S={dim_a}, dim O*_S={dim_star}, l(sigma_S)={ell}, "
                f"rk(1-sigma_S)={rk}, l(sigma_theta)={ell_theta}, "
                f"sigma_S <= sigma_theta: {not not_leq}")


def item_10_conjecture_evidence(seed: int):
    rows = 0
    covers = 0
    for rs in map(build_root_system, all_types(6)):
        for node in anr.anr_nodes(rs):
            rep = anr.conjecture_check(rs, node)
            if not rep.ok():
                return False, (f"{rs.type} node {node + 1}: "
                               f"{len(rep.formula_violations)} formula, "
                               f"{len(rep.parity_violations)} parity, "
                               f"{len(rep.monotonicity_violations)} monotonicity, "
                               f"{len(rep.cover_gap_violations)} cover-gap violations")
            rows += len(rep.rows)
            covers += len(rep.covers)
    return True, (f"zero violations over every nilradical at rank <= 6 "
                  f"({rows} orbits, {covers} cover pairs checked)")


def item_11_normal_form(seed: int):
    rng = random.Random(seed)
    trials = 0
    # (i) + (ii): replay to the canonical vector and orbit invariance
    for rs, a in _ideals_up_to_rank(4):
        subsets = orbits.strongly_orth_subsets(rs, a)
        for _ in range(1000):
            s = subsets[rng.randrange(len(subsets))]
            base = {g: Fraction(1) for g in s}
            ops = normal_form.random_b_element(rs, rng)
            moved = normal_form.apply_b_element(rs, a, ops, base)
            got, transcript = normal_form.reduce_in_ideal(rs, a, moved)
            if got != s:
                return False, f"{rs.type}: orbit label changed under B"
            if not transcript.normalized:
                return False, f"{rs.type}: rational orbit of e_S failed to normalise"
            if normal_form.replay(rs, a, transcript, moved) != base:
                return False, f"{rs.type}: transcript replay missed e_S"
            trials += 1
    # (iii) generic full support reduces to the canonical sets
    for rs, a in _ideals_up_to_rank(4):
        v = normal_form.random_vector(rs, a, rng)
        s, tr = normal_form.reduce_in_ideal(rs, a, v)
        if s != orbits.lower_canonical(rs, a):
            return False, f"{rs.type}: generic vector missed the lower canonical set"
        if normal_form.replay(rs, a, tr, v) != tr.result:
            return False, f"{rs.type}: primal replay mismatch"
        xi = normal_form.random_vector(rs, a, rng)
        s, tr = normal_form.reduce_in_dual(rs, a, xi)
        if s != orbits.upper_canonical(rs, a):
            return False, f"{rs.type}: generic covector missed the upper canonical set"
        if normal_form.replay(rs, a, tr, xi) != tr.result:
            return False, f"{rs.type}: dual replay mismatch"
    # (iv) generic covectors on J_S reduce to the combinatorial dual
    pool = list(_ideals_up_to_rank(4))
    for _ in range(100):
        rs, a = pool[rng.randrange(len(pool))]
        subsets = orbits.strongly_orth_subsets(rs, a)
        s = subsets[rng.randrange(len(subsets))]
        j = orbits.residual_set(rs, a, s)
        if not j:
            continue
        xi = normal_form.random_vector(rs, j, rng)
        got, tr = normal_form.reduce_in_dual(rs, a, xi)
        if got != orbits.pyasetskii_dual(rs, a, s):
            return False, f"{rs.type}: J_S reduction disagrees with the duality map"
        supports = normal_form.replay_supports(rs, a, tr, xi)
        if not all(sup <= j for sup in supports):
            return False, f"{rs.type}: dual reduction left the residual subspace"
    return True, (f"replay, orbit invariance ({trials} trials), dense reductions and "
                  "duality reductions all exact at rank <= 4")


def item_12_structural(seed: int):
    # pairwise disjointness of up/down shift directions at rank <= 5
    for rs, a in _ideals_up_to_rank(5):
        items = sorted(a)
        for x in range(len(items)):
            for y in range(x + 1, len(items)):
                g1, g2 = items[x], items[y]
                if not (rs.orth_masks[g1] >> g2) & 1:
                    continue
                for d in range(rs.num_positive):
                    if d in rs.sum_rows[g1] and d in rs.sum_rows[g2]:
                        return False, f"{rs.type}: up-shift sets intersect"
                    if rs.diff_rows[g1].get(d) in a and rs.diff_rows[g2].get(d) in a:
                        return False, f"{rs.type}: down-shift sets intersect"
    # the cascade restricts to the upper canonical set of every ideal
    for rs, a in _ideals_up_to_rank(5):
        if orbits.upper_canonical(rs, a) != orbits.kostant_cascade(rs) & a:
            return False, f"{rs.type}: C^u is not the cascade restricted to the ideal"
    # 2^rank abelian ideals, against the independent antichain enumerator
    for t in all_types(7):
        rs = build_root_system(t)
        direct = len(enumerate_abelian_ideals(rs))
        indirect = abelian_count_via_antichains(rs)
        if direct != 2 ** rs.rank or indirect != direct:
            return False, (f"{t}: {direct} direct vs {indirect} antichain-generated "
                           f"(expected {2 ** rs.rank})")
    # number of maximal abelian ideals = number of long simple roots
    for t in all_types(6):
        rs = build_root_system(t)
        long_simples = sum(1 for i in rs.simple_indices if rs.long[i])
        if len(maximal_abelian_ideals(rs)) != long_simples:
            return False, f"{t}: maximal-ideal count vs long simple roots"
    return True, ("shift disjointness and cascade restriction at rank <= 5, "
                  "2^rank ideal counts at rank <= 7, maximal counts at rank <= 6")


ITEMS: List[Tuple[str, str, Callable]] = [
    ("1", "shape331-orbit-count", item_01_shape331_count),
    ("2", "g2-maximal-ideal", item_02_g2_maximal),
    ("3", "canonical-sets", item_03_canonical_sets),
    ("4", "pyasetskii-duality", item_04_pyasetskii),
    ("5", "counting-anr-tables", item_05_anr_tables),
    ("6", "counting-c-symmetry", item_06_c_symmetry),
    ("7", "krull-dimensions", item_07_krull),
    ("8", "borel-index-dim-estimate", item_08_index),
    ("9", "d4-counterexample", item_09_d4_counterexample),
    ("10", "conjecture-evidence", item_10_conjecture_evidence),
    ("11", "normal-form-properties", item_11_normal_form),
    ("12", "structural-properties", item_12_structural),
]


def run(only: Optional[str] = None, seed: int = DEFAULT_SEED, write=print) -> bool:
    """Run the suite (optionally filtered), one PASS/FAIL line per item."""
    all_ok = True
    matched = False
    for num, name, fn in ITEMS:
        if only and only != num and only not in name:
            continue
        matched = True
        ok, detail = fn(seed)
        all_ok = all_ok and ok
        write(f"{'PASS' if ok else 'FAIL'} {num:>2} {name}: {detail}")
    if not matched:
        write(f"no suite item matches {only!r}")
        return False
    return all_ok
