"""Abelian nilradicals: orbit count tables and the order-conjecture checker.

Every count comes from orbits.label_counts, which decides between the
closed forms (re-exported here) and the memoised counter.  The checker
reads its labels and dimensions from orbits' one walk and row generator
and gathers evidence for the conjectured description of dual-orbit
closures through Weyl involutions; it reports violations, it never
proves anything.

The checker orders the distinct involutions sigma_S under Bruhat as
integer bitsets, one lower-set mask per involution, visited by
increasing length.  Each involution gets an integer order vector, and u
can lie below w only if u's vector is at most w's in every coordinate.
In types A, B and C the vector decides the order exactly (the tableau
criterion on the fundamental-weight drops in type A, the signed
permutation counts of Bjorner-Brenti in types B and C), so no pair is
lifted.  In types D, E, F and G the weight drops are only necessary: a
pair that passes them is lifted through weyl.bruhat_leq, unless
transitivity already implies it.  Dimension monotonicity, the covers
and the subset check then read the lower sets.  The checker refuses an
ideal with more than MAX_REPORT_LABELS labels, from their count, before
building any.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from operator import add
from typing import Dict, Iterable, List, Optional, Tuple

from . import weyl
from .ideals import AbelianIdeal, _is_maximal, anr_nodes, check_abelian_ideal, nilradical_mask
# the closed forms are re-exported for callers that import them from here
from .orbits import (_label_masks, _table_rows, c_count, closed_form_counts, d_count,
                     label_counts, rectangle_count)
from .root_system import RootSystem, _bits, _check_orth_set, _set_of


@cache
def anr_ideal(rs: RootSystem, node: int) -> AbelianIdeal:
    """The abelian nilradical at a 0-based node, built once per (system, node)."""
    nodes = anr_nodes(rs)
    if node not in nodes:
        raise ValueError(
            f"alpha_{node + 1} is not an abelian-nilradical node of {rs.type}; "
            f"valid nodes: {[n + 1 for n in nodes]}")
    return check_abelian_ideal(rs, _set_of(nilradical_mask(rs, node)))


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
    """Counts of orbit labels by size, from orbits.label_counts.

    No label is built.  A nilradical with a closed form (A_n, C_n node
    n, the D_n spinor nodes) is counted at any rank; the others go
    through the counter, which refuses an ideal once its memo passes
    orbits.MAX_COUNT_STATES.
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
    _check_orth_set(rs, ss)
    # the nilradical's short roots e_i + e_j have two epsilon coordinates, its long 2e_i one
    used = set()
    out = set()
    for g in ss:
        support = [k for k, v in enumerate(rs.eps_vectors[g]) if v]
        used.update(support)
        if len(support) == 2:
            out.add(g)
    out.update(rs.parse_root(f"2e{k + 1}") for k in range(n) if k not in used)
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
        # each label's names are sorted once (the C6 report's 2,026 covers
        # name its 499 labels 4,052 times); every entry gets its own copy
        sorted_names: Dict[Tuple[int, ...], List[str]] = {}

        def names(s: Tuple[int, ...]) -> List[str]:
            got = sorted_names.get(s)
            if got is None:
                got = sorted_names[s] = rs.sorted_labels(s)
            return got[:]

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


# A report keeps one lower-set mask of m bits per distinct involution.
# The largest it admits, as --json reports on a 2-vCPU Xeon: C9's 29,186
# labels (exact test) in 8-11 s at 198 MB peak, with the JSON in batches;
# the 6 x 6 rectangle of A11, 13,327 labels, in 3-4 s at 89 MB; D10's
# 9,496 (lifted) in 16-25 s at 61 MB.  C10's 123,109 labels (about 1 GB
# of masks) and D11's 35,696 (lifted) are refused from the count before
# any label is built.
MAX_REPORT_LABELS = 1 << 15


@cache
def _coweight_table(rs: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """Per positive root gamma, <w_i, gamma^vee> gamma_j for every (i, j), row-major.

    Summed over a strongly orthogonal set S this is w_i - sigma_S(w_i) in
    simple-root coordinates: the reflections in S commute and each moves
    the fundamental weight w_i by <w_i, gamma^vee> gamma.
    """
    # <w_i, gamma^vee> is the alpha_i^vee coordinate of the coroot
    return tuple(tuple(p * c for p in coroot for c in coeffs)
                 for coroot, coeffs in zip(rs.coroots, rs.positive_roots))


def _weight_drop(rs: RootSystem, label: Iterable[int]) -> Tuple[int, ...]:
    """w_i - sigma_S(w_i) for every fundamental weight, as n^2 integers."""
    table = _coweight_table(rs)
    return tuple(map(sum, zip(*(table[g] for g in label)))) or (0,) * rs.rank ** 2


@cache
def _signed_coords(rs: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """Per signed root index of type B or C, its epsilon support as signed coordinates.

    Coordinate k (0-based) is relabelled n - k, so that alpha_n = e_n or
    2e_n becomes the sign change of coordinate 1, Bjorner-Brenti's s_0,
    and alpha_i the transposition s_{n-i}.
    """
    n = rs.rank
    positive = tuple(tuple(n - k if v > 0 else k - n for k, v in enumerate(vec) if v)
                     for vec in rs.eps_vectors)
    return positive + tuple(tuple(-x for x in c) for c in positive)


@cache
def _at_least(n: int) -> Dict[int, Tuple[int, ...]]:
    """Per value v in [+-n], the indicator of v >= j over j = -n+1, ..., -1, 1, ..., n."""
    js = [j for j in range(1 - n, n + 1) if j]
    return {v: tuple(int(v >= j) for j in js) for v in range(-n, n + 1) if v}


def _signed_permutation_vector(rs: RootSystem, w: weyl.WeylElement) -> Tuple[int, ...]:
    """w[i, j] = #{a <= i : p(a) >= j} for rows i < 0 of w's signed permutation p.

    p is w on the relabelled coordinates (see _signed_coords): w(e_1) is
    w(alpha_n) up to a factor 2, and w(e_m) = w(alpha_{n+1-m}) + w(e_{m-1})
    is whichever of w(alpha_{n+1-m})'s two coordinates w(e_{m-1}) does not
    cancel.  u <= w in B_n iff u[i, j] <= w[i, j] in every cell
    (Bjorner-Brenti, GTM 231, Thm. 8.1.8); by p(-a) = -p(a) the rows
    i < 0 suffice, and column j = -n counts every a, so is left out.
    """
    coords = _signed_coords(rs)
    images = w.images
    n = rs.rank
    p = [coords[images[n - 1]][0]]
    for m in range(2, n + 1):
        x, y = coords[images[n - m]]
        p.append(y if x == -p[-1] else x)
    at_least = _at_least(n)
    # row -m counts the values p(a) = -p(-a) over a = -n, ..., -m
    row = (0,) * (2 * n - 1)
    rows = []
    for v in reversed(p):
        row = tuple(map(add, row, at_least[-v]))
        rows.append(row)
    return sum(rows, ())


def _bruhat_lower_sets(rs: RootSystem, labels: List[Tuple[int, ...]],
                       elements: List[weyl.WeylElement], lengths: List[int]) -> List[int]:
    """The Bruhat order on distinct sigma_S, sorted by length, as lower-set masks.

    Bit u of entry w is set iff elements[u] <= elements[w].  Each family
    has one order vector, a tuple of integers with u <= w only if u's
    vector is at most w's in every coordinate.  Per coordinate, a table
    maps a value to the mask of elements whose entry is at most it, so w's
    candidates are one AND per coordinate.

    - Types B and C: the signed-permutation counts of
      _signed_permutation_vector, 2n^2 - n integers.  The test is exact,
      so the candidates are the lower set.
    - Other types: the weight drop, n^2 integers: u <= w needs
      u(lambda) - w(lambda) in the positive root cone for dominant lambda
      (Bjorner-Brenti, GTM 231, Sec. 2.2), tested on the fundamental
      weights.  In type A this is the tableau criterion (ibid., Thm.
      2.1.5) and exact.  In types D to G it is only necessary: the
      candidates are lifted through weyl.bruhat_leq from the longest
      down; a hit ORs in the candidate's finished lower set, and what is
      set is never lifted.
    """
    family = rs.type.family
    if family in "BC":
        vectors = [_signed_permutation_vector(rs, w) for w in elements]
    else:
        vectors = [_weight_drop(rs, s) for s in labels]
    exact = family in "ABC"
    tables = []
    for column in zip(*vectors):
        # entries are small nonnegative integers (up to 60, in E8), so a
        # byte each, the last element first, and bytes() refuses any other;
        # translating bytes <= v to "1" and the others to "0" spells the
        # at-most-v mask in binary
        code = bytes(column[::-1])
        tables.append({v: int(code.translate(b"1" * (v + 1) + b"0" * (255 - v)), 2)
                       for v in set(column)})
    lower: List[int] = []
    shorter = 0
    for w, elem in enumerate(elements):
        if w and lengths[w] != lengths[w - 1]:
            shorter = (1 << w) - 1
        candidates = shorter
        for at_most, v in zip(tables, vectors[w]):
            candidates &= at_most[v]
        below = 1 << w
        if exact:
            lower.append(below | candidates)
            continue
        while candidates:
            u = candidates.bit_length() - 1
            candidates ^= 1 << u
            if weyl.bruhat_leq(rs, elements[u], elem):
                below |= lower[u]
                candidates &= ~below
        lower.append(below)
    return lower


def _build_report(rs: RootSystem, ideal: AbelianIdeal, node: Optional[int]) -> ConjectureReport:
    counts = label_counts(rs, ideal)
    if sum(counts) > MAX_REPORT_LABELS:
        raise ValueError(
            f"the ideal has {sum(counts)} orbit labels, more than the {MAX_REPORT_LABELS} "
            "that a conjecture report can order")
    # label x as masks[x] and labels[x]; enumerated, so strongly orthogonal
    masks = _label_masks(rs, ideal, counts)
    labels = [_bits(m) for m in masks]
    report = ConjectureReport(type=str(rs.type), ideal=tuple(sorted(ideal)), node=node)
    sigmas = [weyl._sigma_element(rs, s) for s in labels]
    lengths = [weyl.length(rs, w) for w in sigmas]
    dims = [ss.bit_count() + m_down.bit_count()
            for ss, _, m_down, _, _ in _table_rows(rs, ideal, masks)]
    for s, ell, dim in zip(labels, lengths, dims):
        total = ell + len(s)
        parity_ok = total % 2 == 0
        formula = Fraction(total, 2)
        match = parity_ok and dim == formula
        report.rows.append(OrbitRow(
            orth_set=s, sigma_length=ell, sigma_abs_length=len(s), dim_actual=dim,
            formula_value=formula, parity_ok=parity_ok, match=match))
        if not parity_ok:
            report.parity_violations.append(s)
        if not match:
            report.formula_violations.append(s)

    # order the distinct involutions under Bruhat, one rep label each
    by_element: Dict[weyl.WeylElement, List[int]] = {}
    for x, w in enumerate(sigmas):
        by_element.setdefault(w, []).append(x)
    reps = []
    for xs in by_element.values():
        xs.sort(key=labels.__getitem__)
        reps.append(xs[0])
        report.sigma_collisions.extend((labels[xs[0]], labels[x]) for x in xs[1:])
    reps.sort(key=lambda x: (lengths[x], labels[x]))
    lower = _bruhat_lower_sets(rs, [labels[x] for x in reps], [sigmas[x] for x in reps],
                               [lengths[x] for x in reps])

    # dimension monotonicity along strict Bruhat relations: for label y of
    # rep j, only the reps below j holding a label of dimension >= dim y
    # can violate it, and a mask of those per dimension finds them
    rep_index = {sigmas[x]: k for k, x in enumerate(reps)}
    rep_of = [rep_index[w] for w in sigmas]
    labels_of: List[List[int]] = [[] for _ in reps]
    for x, i in enumerate(rep_of):
        labels_of[i].append(x)
    at_least = [0] * (max(dims) + 2)
    for i, xs in enumerate(labels_of):
        at_least[max(dims[x] for x in xs)] |= 1 << i
    for d in reversed(range(len(at_least) - 1)):
        at_least[d] |= at_least[d + 1]
    pairs = []
    for y, j in enumerate(rep_of):
        for i in _bits(lower[j] & at_least[dims[y]] & ~(1 << j)):
            pairs.extend((x, y) for x in labels_of[i] if dims[x] >= dims[y])
    # in the order of the lower label, then the upper one
    pairs.sort()
    report.monotonicity_violations = [(labels[x], labels[y]) for x, y in pairs]

    # covers in the induced subposet, and their dimension gaps: walking a
    # strict lower set from the longest rep down, each rep left is a cover,
    # and its lower set leaves with it
    covers = []
    for j, below in enumerate(lower):
        strict = below ^ (1 << j)
        while strict:
            i = strict.bit_length() - 1
            covers.append((i, j))
            strict &= ~lower[i]
    covers.sort()
    for i, j in covers:
        x, y = reps[i], reps[j]
        report.covers.append((labels[x], labels[y]))
        gap = dims[y] - dims[x]
        if gap != 1:
            report.cover_gap_violations.append((labels[x], labels[y], gap))
        if (lengths[y] + len(labels[y])) - (lengths[x] + len(labels[x])) != 2:
            report.rank_graded = False

    # removing one root must go down in Bruhat order
    index = {m: x for x, m in enumerate(masks)}
    for y, m in enumerate(masks):
        for g in labels[y]:
            x = index[m ^ 1 << g]
            if not lower[rep_of[y]] >> rep_of[x] & 1:
                report.subset_violations.append((labels[x], labels[y]))
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
    if not _is_maximal(rs, a.mask):
        raise ValueError("input is not a maximal abelian ideal")
    if any(a.mask == nilradical_mask(rs, node) for node in anr_nodes(rs)):
        raise ValueError("input is an abelian nilradical; use conjecture_check")
    return _build_report(rs, a, None)
