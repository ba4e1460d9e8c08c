"""Strongly orthogonal subsets and the B-orbit combinatorics they label.

For an abelian ideal with root set A, the strongly orthogonal subsets
S of A label both the orbits in the ideal and in its dual.  The key
derived sets are

    M_S  = (S + positives) meet positives   (upward shift),
    M*_S = (S - positives) meet A           (downward shift inside A),
    J_S  = A minus (S and M_S),

with orbit dimensions #S + #M_S and #S + #M*_S.  The shifts are ORs of
per-root bitmasks.  The lower and upper canonical sets, Kostant's
cascade and the combinatorial Pyasetskii dual are all one layer peeling
(_peel): root_system._min_layer and _max_layer keep the minimal and the
maximal roots in one step per root kept, since roots are numbered by
height: the lowest (highest) root left is minimal (maximal), and the
roots above (below) it are dropped unvisited.

One row generator, _table_rows, gives S, M_S, M*_S, J_S and the dual as
masks for every label of an ideal, and every per-label fact is read from
it: the orbit tables, the records of ``orbits --json`` (_records_json)
and orbit_record, pyasetskii_map, the conjecture report, and the
single-label functions through _label.  A record reads l(sigma_S) off
weyl's packed table and builds no Weyl element.  No two labels share
J_S, but many share what is left of J_S after its first layer, so the
generator peels each J_S's first layer itself and memoises the rest of
the dual peel on that remainder, in a dict local to the call (on C8
node 8, 2,888 distinct tails for 7,193 labels).  M_S and M*_S are
ORs over the bits of S; reading them off the row of S minus its top root,
seen earlier, was no faster.  The rows stay masks: every dual is itself
a label, so the CLI builds one label string per mask and reads it for
both columns.

The labels are counted by size without being built (label_counts): the
nilradicals with a closed form (type A, C_n node n, the D_n spinor
nodes), recognised by root mask, at any rank; every other ideal by the
memoised counter _count_labels, which holds at most MAX_COUNT_STATES
masks.  Enumerating them (strongly_orth_subsets) is for callers that need
the labels themselves, and refuses an ideal with more than MAX_LABELS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, factorial
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import weyl
from .ideals import (AbelianIdeal, check_abelian_ideal, is_abelian, is_validated,
                     nilradical_mask)
from .root_system import (RootSystem, _bits, _check_orth_set, _mask_of, _max_layer, _min_layer,
                          _set_of, _union, non_orthogonal_pair)


# Enumeration keeps every label as a frozenset: 538,078 of them (C11) peak
# at about 460 MB, so an ideal with more labels than this is refused.
MAX_LABELS = 1 << 20

# The counter's memo holds one tuple per distinct allowed-root mask, about
# 290 B each, so this caps it near 300 MB.  The k x k square in A_{2k-1}
# needs about 2^k k^2 / 4 states: k = 14 (about 800,000) is counted, and
# k = 15 is refused here.  The nilradicals with a closed form, such as that
# square, never reach the counter; other type-A shapes of that size do (the
# 15 x 15 square less one cell in A29 is refused after about 4 s at 280 MB
# on a 2-vCPU Xeon).
MAX_COUNT_STATES = 1 << 20


def label_counts(rs: RootSystem, ideal: Iterable[int]) -> Tuple[int, ...]:
    """Number of strongly orthogonal subsets of an abelian ideal, by size.

    Entry k counts the k-element subsets; entry 0 is the empty set and
    the last entry is nonzero.  None of the subsets is built.  A
    nilradical with a closed form (closed_form_counts) is counted at any
    rank; for any other ideal, with bit b the lowest bit of an allowed-root
    mask m, f(m) = f(m - b) + x f((m - b) & orth(b)) is memoised on m for
    this call only, and a ValueError is raised once it holds more than
    MAX_COUNT_STATES masks.  The roots are numbered in the order of their
    coefficient tuples, which keeps the number of distinct masks small
    (139,264 for the 12x12 rectangle in A23, against 4.2M in root-index
    order).
    """
    a = check_abelian_ideal(rs, ideal)
    return closed_form_counts(rs, a) or _count_labels(rs, a)


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


def closed_form_counts(rs: RootSystem, ideal: Iterable[int]) -> Optional[Tuple[int, ...]]:
    """Counts of orbit labels by size from a closed form, or None if none applies.

    The abelian ideal's mask is compared with the nilradicals that have
    one: every node of A_n (the rectangles, Melnikov's rook placements),
    node n of C_n (c_{n,k}) and the spinor nodes n-1, n of D_n
    (d_{n,k}).  The nilradical at node p is every root at or above
    alpha_p, one row of ``up_masks``.  The counts are those of
    label_counts: entry k for the k-element labels, the last one nonzero.
    """
    mask = check_abelian_ideal(rs, ideal).mask
    family, n = rs.type.family, rs.rank
    nodes = {"A": range(n), "C": (n - 1,), "D": (n - 2, n - 1)}.get(family, ())
    for node in nodes:
        if mask == nilradical_mask(rs, node):
            break
    else:
        return None
    if family == "A":
        m, k = node + 1, n - node
        return tuple(rectangle_count(m, k, j) for j in range(min(m, k) + 1))
    if family == "C":
        return tuple(c_count(n, k) for k in range(n + 1))
    return tuple(d_count(n, k) for k in range(n // 2 + 1))


def _count_labels(rs: RootSystem, a: frozenset) -> Tuple[int, ...]:
    # the memoised counter of label_counts, on an ideal already validated
    roots = sorted(a, key=rs.positive_roots.__getitem__)
    orth = [sum(1 << b for b, h in enumerate(roots) if rs.orth_masks[g] >> h & 1)
            for g in roots]
    memo = {0: (1,)}

    def count(m: int) -> Tuple[int, ...]:
        # the skip branches f(m - b) run as a loop, so the recursion only
        # nests through taken roots, at most rank deep
        chain = []
        while m not in memo:
            chain.append(m)
            m &= m - 1
        f = memo[m]
        for m in reversed(chain):
            low = m & -m
            g = count((m ^ low) & orth[low.bit_length() - 1])
            out = list(f) + [0] * (len(g) + 1 - len(f))
            for k, c in enumerate(g, 1):
                out[k] += c
            f = memo[m] = tuple(out)
            if len(memo) > MAX_COUNT_STATES:
                raise ValueError(
                    f"counting the orbit labels needs more than {MAX_COUNT_STATES} "
                    "memo states; the ideal is too large to count")
        return f

    return count((1 << len(roots)) - 1)


def strongly_orth_subsets(rs: RootSystem, ideal: Iterable[int]) -> List[frozenset]:
    """All strongly orthogonal subsets of an abelian ideal, incl. the empty set.

    Ordered by (size, root indices).  Raises ValueError, before building
    any subset, when there would be more than MAX_LABELS of them.
    """
    return [_set_of(m) for m in _label_masks(rs, check_abelian_ideal(rs, ideal))]


def _label_masks(rs: RootSystem, a: AbelianIdeal,
                 counts: Optional[Tuple[int, ...]] = None) -> List[int]:
    # strongly_orth_subsets of a validated ideal, as masks; counts, if
    # given, are its label_counts, so that a caller that checked them
    # does not count twice
    if counts is None:
        counts = label_counts(rs, a)
    total = sum(counts)
    if total > MAX_LABELS:
        raise ValueError(
            f"the ideal has {total} orbit labels, more than the {MAX_LABELS} "
            "that can be listed; count them instead")
    masks = rs.orth_masks
    # depth first over sorted roots emits each size in lexicographic order
    by_size: List[List[int]] = [[] for _ in counts]

    def rec(chosen: int, size: int, allowed: int):
        by_size[size].append(chosen)
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            # what is left of allowed lies after the root of low
            rec(chosen | low, size + 1, allowed & masks[low.bit_length() - 1])

    rec(0, 0, a.mask)
    return [m for bucket in by_size for m in bucket]


def shift_up(rs: RootSystem, s: Iterable[int]) -> frozenset:
    """M_S: roots of the form gamma + delta with gamma in S, delta positive."""
    return _set_of(_union(rs.up_shift_masks, _mask_of(s)))


def shift_down(rs: RootSystem, ideal: Iterable[int], s: Iterable[int]) -> frozenset:
    """M*_S: roots gamma - delta landing inside the ideal (not just in Delta+)."""
    return _set_of(_union(rs.down_shift_masks, _mask_of(s)) & _mask_of(ideal))


def _label(rs: RootSystem, ideal: Iterable[int], s: Iterable[int]) -> Tuple[int, ...]:
    """S's _table_rows row, once S is checked to be an orbit label of the ideal."""
    a = check_abelian_ideal(rs, ideal)
    mask = _mask_of(s)
    if mask & ~a.mask:
        raise ValueError("orbit label must lie inside the ideal")
    _check_orth_set(rs, _bits(mask))
    return next(_table_rows(rs, a, (mask,)))


def _table_rows(rs: RootSystem, a: AbelianIdeal,
                labels: Iterable[int]) -> Iterator[Tuple[int, int, int, int, int]]:
    """S, M_S, M*_S, J_S and the dual as masks, for each label mask of the validated ideal a."""
    # the bit loops of _union and _max_layer are written out, not called:
    # this is an orbit table's hottest loop, and calling them makes it about
    # 15% slower on C8 node 8 and C9 node 9 (interleaved in-process timings)
    up_shifts, down_shifts, downs = rs.up_shift_masks, rs.down_shift_masks, rs.down_masks
    tails = {0: 0}
    for ss in labels:
        m_up = m_down = 0
        rest = ss
        while rest:
            i = rest.bit_length() - 1
            m_up |= up_shifts[i]
            m_down |= down_shifts[i]
            rest ^= 1 << i
        j = a.mask & ~(ss | m_up)
        # J_S is new for every label, so its max layer is peeled here; what
        # that layer and its down shift leave of J_S is often not.  J_S lies
        # inside the abelian ideal, so its max-layer peel is the dual label
        layer = shift = 0
        rest = j
        while rest:
            i = rest.bit_length() - 1
            layer |= 1 << i
            shift |= down_shifts[i]
            rest &= ~downs[i]
        yield ss, m_up, m_down & a.mask, j, layer | _peel(rs, j & ~(layer | shift), False, tails)


def orbit_dims(rs: RootSystem, ideal: Iterable[int], s: Iterable[int]) -> Tuple[int, int]:
    """(dimension in the ideal, dimension in its dual) of the orbit of S."""
    ss, m_up, m_down, _, _ = _label(rs, ideal, s)
    return ss.bit_count() + m_up.bit_count(), ss.bit_count() + m_down.bit_count()


def _peel(rs: RootSystem, carrier: int, up: bool, memo: Optional[Dict[int, int]] = None) -> int:
    # keep the min (up) or max layer, drop it and its shift, repeat;
    # remaining stays inside the carrier, so the down shift needs no bound.
    # memo maps each mask met on the way to its peel, for one direction;
    # a caller that peels many carriers passes the same dict each time
    layer_of, shifts = (_min_layer, rs.up_shift_masks) if up else (_max_layer, rs.down_shift_masks)
    if memo is None:
        memo = {0: 0}
    chain = []
    remaining = carrier
    while remaining not in memo:
        layer = layer_of(rs, remaining)
        chain.append((remaining, layer))
        remaining &= ~(layer | _union(shifts, layer))
    result = memo[remaining]
    for state, layer in reversed(chain):
        result |= layer
        memo[state] = result
    return result


def lower_canonical(rs: RootSystem, ideal: Iterable[int]) -> frozenset:
    """Iterated min-layer peeling; labels the dense orbit in the ideal."""
    return _set_of(_peel(rs, check_abelian_ideal(rs, ideal).mask, up=True))


def upper_canonical(rs: RootSystem, carrier: Iterable[int]) -> frozenset:
    """Iterated max-layer peeling inside a sum-free carrier.

    The carrier must be contained in some abelian ideal's root set, i.e.
    no two of its members may sum to a root; that is what guarantees the
    result is strongly orthogonal.  For the peeling applied to all of
    Delta+ use :func:`kostant_cascade`.  An abelian ideal validated for
    rs is not checked again.
    """
    c = _mask_of(carrier)
    if not is_validated(rs, carrier) and not is_abelian(rs, _bits(c)):
        raise ValueError(
            "carrier has two roots whose sum is a root; "
            "it lies in no abelian ideal and the peeled set may fail strong orthogonality")
    return _set_of(_peel(rs, c, up=False))


@cache
def kostant_cascade(rs: RootSystem) -> frozenset:
    """Max-layer peeling of all positive roots; strongly orthogonal."""
    result = _bits(_peel(rs, (1 << rs.num_positive) - 1, up=False))
    if non_orthogonal_pair(rs, result) is not None:
        raise AssertionError("cascade produced a non strongly orthogonal set")
    return frozenset(result)


def pyasetskii_dual(rs: RootSystem, ideal: Iterable[int], s: Iterable[int]) -> frozenset:
    """The dual-orbit label: upper-canonical set of J_S."""
    return _set_of(_label(rs, ideal, s)[4])


def residual_set(rs: RootSystem, ideal: Iterable[int], s: Iterable[int]) -> frozenset:
    """J_S = ideal minus (S and M_S)."""
    return _set_of(_label(rs, ideal, s)[3])


def pyasetskii_map(rs: RootSystem, ideal: Iterable[int]) -> Dict[frozenset, frozenset]:
    """The full duality table S -> S_dual over all of the ideal's subsets."""
    a = check_abelian_ideal(rs, ideal)
    return {_set_of(ss): _set_of(dual)
            for ss, _, _, _, dual in _table_rows(rs, a, _label_masks(rs, a))}


def pyasetskii_report(rs: RootSystem, ideal: Iterable[int]) -> dict:
    """Observed properties of the duality map on one ideal.

    The map is only defined in the primal-to-dual direction; whether it
    squares to the identity is reported, never assumed.
    """
    table = pyasetskii_map(rs, ideal)
    values = list(table.values())
    bijective = len(set(values)) == len(values)
    double_identity = all(table[table[s]] == s for s in table) if bijective else False
    return {
        "orbits": len(table),
        "bijective": bijective,
        "double_is_identity": double_identity,
    }


def krull_dims(rs: RootSystem, ideal: Iterable[int]) -> Tuple[int, int]:
    """Krull dimensions of the unipotent invariant algebras: (#C^l, #C^u).

    These also count the codimension-1 orbits in the ideal and its dual.
    """
    a = check_abelian_ideal(rs, ideal)
    return _peel(rs, a.mask, up=True).bit_count(), _peel(rs, a.mask, up=False).bit_count()


def borel_index(rs: RootSystem) -> int:
    """Index of the Borel subalgebra: rank minus cascade size."""
    return rs.rank - len(kostant_cascade(rs))


@dataclass(frozen=True)
class DimEstimate:
    lhs: int
    rhs: int
    equality: bool
    cascade_inside: bool


def dim_estimate_report(rs: RootSystem, ideal: Iterable[int]) -> DimEstimate:
    """Both sides of 2 dim a <= dim u + #cascade, plus the equality witness."""
    a = check_abelian_ideal(rs, ideal)
    cascade = kostant_cascade(rs)
    lhs = 2 * len(a)
    rhs = rs.num_positive + len(cascade)
    return DimEstimate(lhs=lhs, rhs=rhs, equality=lhs == rhs,
                       cascade_inside=cascade <= a)


@dataclass(frozen=True)
class OrbitRecord:
    """Numerical data of one orbit label S inside a fixed abelian ideal."""

    orth_set: Tuple[int, ...]
    dim_in_a: int
    dim_in_a_star: int
    m_up: Tuple[int, ...]
    m_down: Tuple[int, ...]
    j_set: Tuple[int, ...]
    dual: Tuple[int, ...]
    sigma_length: int
    sigma_abs_length: int

    def to_json(self, rs: RootSystem) -> dict:
        row = self.orth_set, self.m_up, self.m_down, self.j_set, self.dual
        return next(_records_json(rs, [tuple(map(_mask_of, row))]))


def orbit_record(rs: RootSystem, ideal: Iterable[int], s: Iterable[int]) -> OrbitRecord:
    ss, m_up, m_down, j, dual = _label(rs, ideal, s)
    label = _bits(ss)
    return OrbitRecord(
        orth_set=label,
        dim_in_a=len(label) + m_up.bit_count(),
        dim_in_a_star=len(label) + m_down.bit_count(),
        m_up=_bits(m_up),
        m_down=_bits(m_down),
        j_set=_bits(j),
        dual=_bits(dual),
        sigma_length=weyl._key_length(rs, weyl._sigma_key(rs, label)),
        sigma_abs_length=len(label),
    )


def _records_json(rs: RootSystem, rows: Iterable[Tuple[int, ...]]) -> Iterator[dict]:
    """The JSON orbit record of each _table_rows row, read off its masks.

    OrbitRecord.to_json reads its one record here too, so the keys are
    spelled once.  Each root set's sorted labels are built once per mask
    for the call, and every entry gets its own copy: every dual is itself
    a label, and on C9 node 9 the 29,186 labels have 16,886 distinct M_S.
    J_S is new for every label, so it skips the memo.
    """
    labels = rs.labels
    memo: Dict[int, List[str]] = {}

    def names(mask: int) -> List[str]:
        # the bit loop of _bits is written out, as in _table_rows
        out = []
        while mask:
            i = mask.bit_length() - 1
            out.append(labels[i])
            mask ^= 1 << i
        out.sort()
        return out

    def shared(mask: int) -> List[str]:
        got = memo.get(mask)
        if got is None:
            got = memo[mask] = names(mask)
        return got[:]

    for ss, m_up, m_down, j, dual in rows:
        k = ss.bit_count()
        yield {
            "orth_set": shared(ss),
            "dim_in_a": k + m_up.bit_count(),
            "dim_in_a_star": k + m_down.bit_count(),
            "m_up": shared(m_up),
            "m_down": shared(m_down),
            "j_set": names(j),
            "dual": shared(dual),
            "sigma_length": weyl._key_length(rs, weyl._sigma_key(rs, _bits(ss))),
            "sigma_abs_length": k,
        }
