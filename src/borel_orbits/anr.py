"""Abelian nilradicals: closed-form orbit counts and the order-conjecture checker.

The counting formulas cover the classical series (rectangles for type A,
explicit tables for B and D, a pfaffian-style count d_{n,k} for the
spinor nilradicals, c_{n,k} for the symplectic one) and the two
exceptional cases.  The checker gathers evidence for the conjectured
description of dual-orbit closures through Weyl involutions; it reports
violations, it never proves anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Dict, Iterable, List, Optional, Tuple

from . import weyl
from .ideals import AbelianIdeal, abelian_nilradicals, check_abelian_ideal, maximal_abelian_ideals
from .orbits import label_counts, shift_down, strongly_orth_subsets
from .root_system import RootSystem


def d_count(n: int, k: int) -> int:
    """Orbits with k-element labels in the spinor nilradical of D_n."""
    if n < 0 or k < 0:
        raise ValueError("d_count needs nonnegative arguments")
    if 2 * k > n:
        return 0
    return comb(n, 2 * k) * factorial(2 * k) // (factorial(k) * 2 ** k)


def c_count(n: int, k: int) -> int:
    """Orbits with k-element labels in the symplectic nilradical of C_n."""
    if n < 0 or k < 0:
        raise ValueError("c_count needs nonnegative arguments")
    if k > n:
        return 0
    return sum(comb(n - 2 * t, k - t) * d_count(n, t)
               for t in range(0, min(k, n - k) + 1))


def rectangle_count(m: int, n: int, k: int) -> int:
    """Orbits with k-element labels in an m-by-n rectangular type-A ideal."""
    if m < 1 or n < 1:
        raise ValueError("rectangle sides must be positive")
    if k < 0 or k > min(m, n):
        return 0
    return factorial(k) * comb(m, k) * comb(n, k)


def anr_nodes(rs: RootSystem) -> List[int]:
    """0-based simple-root positions carrying an abelian nilradical."""
    return [node for node, _ in abelian_nilradicals(rs)]


def anr_ideal(rs: RootSystem, node: int) -> AbelianIdeal:
    for n, ideal in abelian_nilradicals(rs):
        if n == node:
            return ideal
    raise ValueError(
        f"alpha_{node + 1} is not an abelian-nilradical node of {rs.type}; "
        f"valid nodes: {[n + 1 for n in anr_nodes(rs)]}")


@dataclass(frozen=True)
class CountTable:
    """Orbit counts of one abelian nilradical, by label size."""

    type: str
    node: int            # 0-based simple-root position
    counts: Tuple[int, ...]
    total: int

    def to_json(self) -> dict:
        return {"type": self.type, "node": self.node + 1,
                "counts": list(self.counts), "total": self.total}


def anr_statistic(rs: RootSystem, node: int) -> CountTable:
    """Counts of orbit labels by size, from the counter of orbits.label_counts.

    No label is built, so the count reaches ranks where listing the
    labels would not fit in memory.
    """
    ideal = anr_ideal(rs, node)
    counts = label_counts(rs, ideal)
    table = CountTable(str(rs.type), node, counts, sum(counts))
    if table.counts[0] != 1:
        raise AssertionError("there must be exactly one empty label")
    if len(counts) > 1 and table.counts[1] != len(ideal):
        raise AssertionError("size-1 labels must match the ideal dimension")
    return table


def symmetry_bijection(rs: RootSystem, s: Iterable[int]) -> frozenset:
    """The k to n-k matching on labels of the symplectic nilradical of C_n.

    Short roots are kept; long roots are replaced by the long roots at
    exactly the epsilon indices the label does not touch.
    """
    if rs.type.family != "C":
        raise ValueError("the symmetry bijection lives in type C")
    n = rs.rank
    ideal = anr_ideal(rs, n - 1)
    ss = frozenset(s)
    if not ss <= ideal:
        raise ValueError("label must lie inside the symplectic nilradical")
    used = set()
    shorts = []
    for g in ss:
        eps = rs.eps_string(g)
        if eps.startswith("2e"):
            used.add(int(eps[2:]))
        else:
            i, j = eps.split("+")
            used.update((int(i[1:]), int(j[1:])))
            shorts.append(g)
    out = set(shorts)
    for i in range(1, n + 1):
        if i not in used:
            out.add(rs.parse_root(f"2e{i}"))
    return frozenset(out)


def w0l_action(rs: RootSystem, node: int, s: Iterable[int]) -> frozenset:
    """Image of a label under the longest Levi element w_{0,L}, L = P_node's Levi."""
    ideal = anr_ideal(rs, node)
    ss = frozenset(s)
    if not ss <= ideal:
        raise ValueError("label must lie inside the nilradical")
    images = weyl._positive_images(rs, _w0l(rs, node).images)
    out = frozenset(images[g] for g in ss)
    if not out <= ideal:
        raise AssertionError("w_{0,L} must preserve the nilradical root set")
    return out


@cache
def _w0l(rs: RootSystem, node: int) -> weyl.WeylElement:
    return weyl.longest_element(rs, [i for i in range(rs.rank) if i != node])


@dataclass(frozen=True)
class OrbitRow:
    """Evidence row for one orbit label."""

    orth_set: Tuple[int, ...]
    sigma_length: int
    sigma_abs_length: int
    dim_actual: int              # dual-side orbit dimension
    formula_value: Fraction      # (length + #S) / 2
    parity_ok: bool
    match: bool


@dataclass
class ConjectureReport:
    """Evidence (never proof) about dual-orbit order and dimensions."""

    type: str
    ideal: Tuple[int, ...]
    node: Optional[int]
    rows: List[OrbitRow] = field(default_factory=list)
    formula_violations: List[tuple] = field(default_factory=list)
    parity_violations: List[tuple] = field(default_factory=list)
    monotonicity_violations: List[tuple] = field(default_factory=list)
    subset_violations: List[tuple] = field(default_factory=list)
    covers: List[tuple] = field(default_factory=list)
    cover_gap_violations: List[tuple] = field(default_factory=list)
    sigma_collisions: List[tuple] = field(default_factory=list)
    rank_graded: bool = True     # informational: covers step the rank formula by 1

    def ok(self) -> bool:
        return not (self.formula_violations or self.parity_violations
                    or self.monotonicity_violations or self.subset_violations
                    or self.cover_gap_violations)

    def to_json(self, rs: RootSystem) -> dict:
        names = rs.sorted_labels
        return {
            "type": self.type,
            "node": None if self.node is None else self.node + 1,
            "ideal": names(self.ideal),
            "status": "evidence",
            "ok": self.ok(),
            "rows": [{
                "orth_set": names(r.orth_set),
                "length": r.sigma_length,
                "abs_length": r.sigma_abs_length,
                "dim_dual": r.dim_actual,
                "formula": str(r.formula_value),
                "parity_ok": r.parity_ok,
                "match": r.match,
            } for r in self.rows],
            "formula_violations": [names(s) for s in self.formula_violations],
            "parity_violations": [names(s) for s in self.parity_violations],
            "monotonicity_violations": [[names(a), names(b)]
                                        for a, b in self.monotonicity_violations],
            "subset_violations": [[names(a), names(b)]
                                  for a, b in self.subset_violations],
            "covers": [[names(a), names(b)] for a, b in self.covers],
            "cover_gap_violations": [[names(a), names(b), g]
                                     for a, b, g in self.cover_gap_violations],
            "sigma_collisions": [[names(a), names(b)] for a, b in self.sigma_collisions],
            "rank_graded": self.rank_graded,
        }


def _build_report(rs: RootSystem, ideal: frozenset, node: Optional[int]) -> ConjectureReport:
    subsets = strongly_orth_subsets(rs, ideal)
    report = ConjectureReport(type=str(rs.type), ideal=tuple(sorted(ideal)), node=node)

    sigmas: Dict[frozenset, weyl.WeylElement] = {}
    dims: Dict[frozenset, int] = {}
    lengths: Dict[frozenset, int] = {}
    for s in subsets:
        inv = weyl.sigma_of_orth_set(rs, s)
        sigmas[s] = inv.element
        lengths[s] = weyl.length(rs, inv.element)
        dims[s] = len(s) + len(shift_down(rs, ideal, s))
        total = lengths[s] + len(s)
        parity_ok = total % 2 == 0
        formula = Fraction(total, 2)
        match = parity_ok and dims[s] == formula
        report.rows.append(OrbitRow(
            orth_set=tuple(sorted(s)), sigma_length=lengths[s],
            sigma_abs_length=len(s), dim_actual=dims[s],
            formula_value=formula, parity_ok=parity_ok, match=match))
        if not parity_ok:
            report.parity_violations.append(tuple(sorted(s)))
        if not match:
            report.formula_violations.append(tuple(sorted(s)))

    # order the distinct involutions under Bruhat
    by_element: Dict[weyl.WeylElement, list] = {}
    for s in subsets:
        by_element.setdefault(sigmas[s], []).append(s)
    reps = []
    for labels in by_element.values():
        labels.sort(key=sorted)
        reps.append(labels[0])
        for other in labels[1:]:
            report.sigma_collisions.append(
                (tuple(sorted(labels[0])), tuple(sorted(other))))
    reps.sort(key=lambda s: (lengths[s], sorted(s)))
    m = len(reps)
    leq = [[False] * m for _ in range(m)]
    for i in range(m):
        leq[i][i] = True
    for i in range(m):
        for j in range(m):
            if i != j and lengths[reps[i]] < lengths[reps[j]]:
                leq[i][j] = weyl.bruhat_leq(rs, sigmas[reps[i]], sigmas[reps[j]])

    # dimension monotonicity along strict Bruhat relations
    rep_index = {sigmas[s]: k for k, s in enumerate(reps)}
    rep_of = [rep_index[sigmas[s]] for s in subsets]
    dim_of = [dims[s] for s in subsets]
    for x, s1 in enumerate(subsets):
        i = rep_of[x]
        row = leq[i]
        for y, s2 in enumerate(subsets):
            j = rep_of[y]
            if i != j and row[j] and dim_of[x] >= dim_of[y]:
                report.monotonicity_violations.append(
                    (tuple(sorted(s1)), tuple(sorted(s2))))

    # covers in the induced subposet, and their dimension gaps
    above = [0] * m
    below = [0] * m
    for i in range(m):
        for j in range(m):
            if i != j and leq[i][j]:
                above[i] |= 1 << j
                below[j] |= 1 << i
    for i in range(m):
        for j in range(m):
            if i == j or not leq[i][j]:
                continue
            if above[i] & below[j]:
                continue
            si, sj = reps[i], reps[j]
            report.covers.append((tuple(sorted(si)), tuple(sorted(sj))))
            gap = dims[sj] - dims[si]
            if gap != 1:
                report.cover_gap_violations.append(
                    (tuple(sorted(si)), tuple(sorted(sj)), gap))
            rank_gap = (Fraction(lengths[sj] + len(sj), 2)
                        - Fraction(lengths[si] + len(si), 2))
            if rank_gap != 1:
                report.rank_graded = False

    # removing one root must go down in Bruhat order
    for s in subsets:
        for g in s:
            smaller = s - {g}
            if not weyl.bruhat_leq(rs, sigmas[smaller], sigmas[s]):
                report.subset_violations.append(
                    (tuple(sorted(smaller)), tuple(sorted(s))))
    return report


def conjecture_check(rs: RootSystem, node: int) -> ConjectureReport:
    """Evidence report for one abelian nilradical (0-based node)."""
    ideal = anr_ideal(rs, node)
    return _build_report(rs, ideal, node)


def maximal_ideal_report(rs: RootSystem, ideal: Iterable[int]) -> ConjectureReport:
    """The same evidence computed for a maximal abelian non-nilradical ideal.

    Violations are expected here; the input must not be an abelian
    nilradical (use conjecture_check for those).
    """
    try:
        a = check_abelian_ideal(rs, ideal)
    except ValueError:
        raise ValueError("input is not an abelian ideal") from None
    if a not in maximal_abelian_ideals(rs):
        raise ValueError("input is not a maximal abelian ideal")
    if any(a == nr for _, nr in abelian_nilradicals(rs)):
        raise ValueError("input is an abelian nilradical; use conjecture_check")
    return _build_report(rs, a, None)
