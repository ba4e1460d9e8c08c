"""Combinatorial ad-nilpotent and abelian ideals of the positive roots.

An ideal is an upward-closed subset of the positive roots; it is
abelian when no two of its members sum to a root.  Abelian ideals are
:class:`AbelianIdeal` frozensets of root indices, validated once against
their root system, and canonically ordered by (size, sorted indices)
wherever lists of them are produced.  A simple type of rank n has 2^n
abelian ideals (Peterson; Kostant, IMRN 1998), so listing them is refused
above MAX_IDEALS, before any is built.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Tuple

from .root_system import RootSystem, _bits, _mask_of, _set_of, _union

# On a 2-vCPU Xeon, A18's 2^18 masks take about 3.5 s, and `ideals A18`
# prints them from sorted root tuples in about 12 s at 160 MB peak; A30
# would exhaust memory.  From rank 19 on, listing is refused.
MAX_IDEALS = 1 << 18


def is_ideal(rs: RootSystem, roots: Iterable[int]) -> bool:
    """Upward closure under adding positive roots."""
    mask = _ideal_mask(roots)
    return not _union(rs.up_shift_masks, mask) & ~mask


def is_abelian(rs: RootSystem, roots: Iterable[int]) -> bool:
    mask = _ideal_mask(roots)
    return not _union(rs.sum_masks, mask) & mask


def _ideal_mask(roots: Iterable[int]) -> int:
    # an AbelianIdeal made by hand or unpickled may carry no mask
    if isinstance(roots, AbelianIdeal) and hasattr(roots, "mask"):
        return roots.mask
    return _mask_of(roots)


def ideal_generated(rs: RootSystem, generators: Iterable[int]) -> frozenset:
    """Smallest ideal containing the generators: all roots above them."""
    return _set_of(_union(rs.up_masks, _mask_of(generators)))


class AbelianIdeal(frozenset):
    """Root indices known to form an abelian ideal of ``rs``.

    check_abelian_ideal builds one from any root set after testing it;
    the listings build one from each mask that _abelian_masks generated
    as an abelian ideal, without testing it again.  Either way it carries
    its bitmask as ``mask``; set operations return plain frozensets.
    """

    __slots__ = ("rs", "mask")


def is_validated(rs: RootSystem, roots: Iterable[int]) -> bool:
    """True iff the roots are an AbelianIdeal built for rs."""
    # one without rs (unpickled, or built by hand) is validated again
    return isinstance(roots, AbelianIdeal) and getattr(roots, "rs", None) is rs


def check_abelian_ideal(rs: RootSystem, roots: Iterable[int]) -> AbelianIdeal:
    """The roots as an AbelianIdeal of rs, validated unless they already are one.

    A plain frozenset is validated once per (system, set): callers that
    pass the same raw ideal again, as a reduction and its replay do, get
    the AbelianIdeal built the first time.  A set that fails is not kept.
    """
    if is_validated(rs, roots):
        return roots
    if type(roots) is frozenset:
        return _validated(rs, roots)
    return _validate(rs, roots)


# bounded because callers may pass any number of sets; the normal-form
# benchmark corpus, every nonzero abelian ideal of rank <= 6, uses 555 entries
@lru_cache(maxsize=1 << 10)
def _validated(rs: RootSystem, roots: frozenset) -> AbelianIdeal:
    return _validate(rs, roots)


def _validate(rs: RootSystem, roots: Iterable[int]) -> AbelianIdeal:
    s = AbelianIdeal(roots)
    # the mask and the unions of is_ideal and is_abelian in one pass
    mask = ups = sums = 0
    up_rows, sum_rows = rs.up_shift_masks, rs.sum_masks
    for i in s:
        mask |= 1 << i
        ups |= up_rows[i]
        sums |= sum_rows[i]
    if ups & ~mask:
        raise ValueError("root set is not upward closed")
    if sums & mask:
        raise ValueError("ideal is not abelian")
    s.mask, s.rs = mask, rs
    return s


def enumerate_abelian_ideals(rs: RootSystem) -> List[AbelianIdeal]:
    """All abelian ideals, ordered by (size, root-index sequence)."""
    return _sorted_ideals(rs, _abelian_masks(rs))


def maximal_abelian_ideals(rs: RootSystem) -> List[AbelianIdeal]:
    """Abelian ideals not properly contained in another abelian ideal.

    Maximality is tested on each mask alone, before any ideal is built
    (:func:`_is_maximal`): if a lies properly inside an abelian ideal b,
    any maximal root of b minus a could join a and has no sum partner in a.
    """
    return _sorted_ideals(rs, [m for m in _abelian_masks(rs) if _is_maximal(rs, m)])


def _sorted_ideals(rs: RootSystem, masks: Iterable[int]) -> List[AbelianIdeal]:
    """AbelianIdeals of masks already known to be abelian ideals of rs, not checked again."""
    out = []
    for roots in _sorted_roots(masks):
        s = AbelianIdeal(roots)
        s.mask, s.rs = _mask_of(roots), rs
        out.append(s)
    return out


def _sorted_roots(masks: Iterable[int]) -> List[Tuple[int, ...]]:
    """The ascending root indices of each mask, ordered by (size, indices)."""
    return sorted(map(_bits, masks), key=lambda roots: (len(roots), roots))


def _abelian_masks(rs: RootSystem) -> List[int]:
    """The mask of every abelian ideal, each once.

    Roots are decided in decreasing height: every set found so far stays,
    and is also extended by the next root when all its upper covers are
    already in (upward closure) and no chosen root sums with it to a root
    (abelian).  Raises ValueError when there are more than MAX_IDEALS.
    """
    count = 1 << rs.rank
    if count > MAX_IDEALS:
        raise ValueError(f"{rs.type} has {count} abelian ideals, more than the "
                         f"{MAX_IDEALS} that can be listed")
    order = sorted(range(rs.num_positive), key=lambda i: (-rs.heights[i], rs.positive_roots[i]))
    # i plus a root is higher, so decided before i; the chosen roots stay upward closed
    found = [0]
    for i in order:
        covers, sums = rs.up_shift_masks[i], rs.sum_masks[i]
        found += [cur | 1 << i for cur in found if not covers & ~cur and not sums & cur]
    return found


def _is_maximal(rs: RootSystem, a: int) -> bool:
    # the maximal roots of the complement c are those that could join the
    # abelian ideal a as an ideal; one without a sum partner in a would keep
    # it abelian.  c is closed downwards, so its maximal roots are those with
    # no up-shift in c; for a empty that is theta, which joins it
    c = (1 << rs.num_positive) - 1 & ~a
    return not c & ~_union(rs.down_shift_masks, c) & ~_union(rs.sum_masks, a)


def anr_nodes(rs: RootSystem) -> List[int]:
    """0-based simple-root positions carrying an abelian nilradical (coefficient 1 in theta)."""
    return [node for node, c in enumerate(rs.theta) if c == 1]


def nilradical_mask(rs: RootSystem, node: int) -> int:
    """The mask of the roots at or above alpha_node in dominance order.

    At a node of ``anr_nodes`` those are the roots whose coefficient at the
    node is 1, the nilradical of the corresponding maximal parabolic.
    """
    return rs.up_masks[rs.simple_indices[node]]


def abelian_nilradicals(rs: RootSystem) -> List[Tuple[int, AbelianIdeal]]:
    """(node, ideal) for each simple root with coefficient 1 in theta.

    Nodes are 0-based positions; the ideal is the nilradical of the
    corresponding maximal parabolic (:func:`nilradical_mask`).
    """
    return [(node, check_abelian_ideal(rs, _set_of(nilradical_mask(rs, node))))
            for node in anr_nodes(rs)]


def ideal_from_shape(rs: RootSystem, rows: Iterable[int]) -> frozenset:
    """Type-A ideal from right-justified Young-diagram row lengths.

    Row i of length r covers the roots e_i - e_j with j in the last r
    columns of the staircase for sl_{rank+1}.
    """
    if rs.type.family != "A":
        raise ValueError("Young-diagram shapes only make sense in type A")
    rows = [int(r) for r in rows]
    n = rs.rank + 1
    if any(r < 1 for r in rows):
        raise ValueError("row lengths must be positive")
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise ValueError("row lengths must be weakly decreasing")
    if len(rows) > n - 1 or any(rows[i] > n - 1 - i for i in range(len(rows))):
        raise ValueError(f"shape {rows} does not fit inside the staircase for {rs.type}")
    picked = set()
    for i, r in enumerate(rows, start=1):
        for j in range(n - r + 1, n + 1):
            picked.add(rs.parse_root(f"e{i}-e{j}"))
    ideal = frozenset(picked)
    if not is_ideal(rs, ideal):
        raise AssertionError("shape did not produce an upward-closed set")
    return ideal
