"""Finite simple root systems over exact rationals.

A root system is built once from its Bourbaki Cartan matrix, read off
the Dynkin diagram, and is immutable afterwards.  Positive roots are
stored as integer coefficient vectors over the simple-root basis and
indexed in a fixed deterministic order (height, then lexicographic
coefficients); the rest of the package refers to positive roots by these
indices.  Inside the package a root
subset is an int bitmask (bit i for root i) handled only through this
module's helpers; public functions take index iterables and return frozensets.

Simple-root numbering follows the Bourbaki convention for every family.
The bilinear form is normalised so that long roots have squared length
2, which keeps every Cartan pairing an exact integer.  Root norms, inner
products and the coroot table all follow from those integer pairings.
Epsilon coordinates serve only as the classical labels (e1-e4, 2e3): types
A-D keep one integer table of them, and E, F and G roots are labelled by
their coefficient tuples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Iterable, List, Optional, Sequence, Tuple

_RANK_RULES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,  # D3 is permitted; it is isomorphic to A3
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

# The root-pair tables hold N^2 entries for N positive roots, so a type with
# more roots is refused before the root walk.  At the cap, A80's 3,240 roots,
# `roots A80` takes about 18 s at 356 MB peak RSS (Python 3.11, 2-vCPU Xeon),
# near the orbit counter's memo cap; A200 would need about 14 GB.
MAX_POSITIVE_ROOTS = 3240


@dataclass(frozen=True)
class SimpleType:
    """A simple Lie type such as A5, D4 or E7."""

    family: str
    rank: int

    def __post_init__(self):
        fam = str(self.family).upper()
        object.__setattr__(self, "family", fam)
        if fam not in _RANK_RULES:
            raise ValueError(f"unknown family {self.family!r}")
        if not isinstance(self.rank, int) or not _RANK_RULES[fam](self.rank):
            raise ValueError(f"invalid rank {self.rank} for family {fam}")

    @classmethod
    def parse(cls, text) -> "SimpleType":
        if isinstance(text, SimpleType):
            return text
        m = re.fullmatch(r"\s*([A-Ga-g])\s*(\d+)\s*", str(text))
        if not m:
            raise ValueError(f"cannot parse simple type from {text!r}")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self):
        return f"{self.family}{self.rank}"


def _unit(i: int, dim: int) -> list:
    v = [0] * dim
    v[i] = 1
    return v


def _cartan_matrix(typ: SimpleType) -> List[List[int]]:
    """Bourbaki's Cartan matrix a_ij = <alpha_j, alpha_i^vee> (Plates I-IX).

    The Dynkin diagram is a chain of single bonds (in type E alpha_2 hangs
    off it), plus the branch of D and E; the one multiple bond puts -2 or
    -3 in the short root's row.
    """
    fam, n = typ.family, typ.rank
    chain = [0, *range(2, n)] if fam == "E" else list(range(n - (fam == "D")))
    bonds = list(zip(chain, chain[1:]))
    if fam in "DE":
        bonds.append((n - 3, n - 1) if fam == "D" else (1, 3))
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in bonds:
        a[i][j] = a[j][i] = -1
    multiple = {"B": (n - 1, n - 2, -2), "C": (n - 2, n - 1, -2),
                "F": (2, 1, -2), "G": (0, 1, -3)}
    if fam in multiple:
        short, long_, value = multiple[fam]
        a[short][long_] = value
    return a


# a classical root's epsilon label, by its nonzero coordinates in order
_EPS_FORMS = {(1, -1): "e{}-e{}", (1, 1): "e{}+e{}", (1,): "e{}", (2,): "2e{}"}


def _eps_vectors(typ: SimpleType, roots) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """The integer epsilon coordinates of each root in types A-D, else None.

    alpha_i = e_i - e_{i+1} for i < n, and alpha_n is e_n - e_{n+1} (A),
    e_n (B), 2e_n (C) or e_{n-1} + e_n (D) (Plates I-IV).
    """
    fam, n = typ.family, typ.rank
    if fam not in "ABCD":
        return None
    last = {"A": ((n - 1, 1), (n, -1)), "B": ((n - 1, 1),), "C": ((n - 1, 2),),
            "D": ((n - 2, 1), (n - 1, 1))}[fam]
    simples = [((i, 1), (i + 1, -1)) for i in range(n - 1)] + [last]
    out = []
    for r in roots:
        vec = [0] * (n + (fam == "A"))
        for c, simple in zip(r, simples):
            for k, v in simple:
                vec[k] += c * v
        out.append(tuple(vec))
    return tuple(out)


class RootSystem:
    """All positive roots of one simple type plus derived lookup tables.

    Instances are created through :func:`build_root_system`, cached per
    type and safe to share.  Every attribute is set at construction and
    none is added or changed later.

    ``cartan`` is the one input (:func:`_cartan_matrix`).  The simple-root
    norms follow from a_ij / a_ji across the bonds, scaled so that long
    roots have squared length 2, and ``form[i][j]`` = a_ij |alpha_i|^2 / 2
    is the Gram matrix of the simple roots.  In types A-D
    ``eps_vectors[k]`` holds the integer epsilon coordinates of beta_k,
    which give the labels that :meth:`eps_string` prints and
    :meth:`parse_root` reads; it is None in types E, F and G.  ``labels[k]``
    is the label every output prints for beta_k: its epsilon string in
    types A-D, else its coefficient tuple as ``[c1,...,cn]``.

    ``coroots[k]`` holds the coordinates of beta_k^vee in the simple
    coroots, found in integers with the roots by one reflection walk
    (:meth:`_generate`).  Every pairing in the package is the integer sum
    <mu, beta_k^vee> = sum_i coroots[k][i] <mu, alpha_i^vee>
    (:meth:`coroot_pairing`), checked once to be 2 at mu = beta_k;
    ``root_norms`` and :meth:`inner` follow from the coroots.

    The root-pair tables are built in one pass over the pairs i <= j: a
    root beta_k = beta_i + beta_j fills ``sum_index`` (-1 for no root),
    ``diff_index`` at (k, i) and (k, j), the sum-partner bitmasks
    ``sum_masks`` and the shift bitmasks ``up_shift_masks`` (the roots
    beta_i + beta_j) and ``down_shift_masks`` (the roots beta_k - beta_j).
    ``orth_masks`` (strongly orthogonal roots) follow from these, and the
    two dominance tables ``up_masks`` (the roots above) and ``down_masks``
    (the roots below) from closures over the two shift tables.

    Tables derived elsewhere (structure constants, the Weyl reflection
    table, Weyl descent chains, the cascade) are cached by the functions
    that own them; Weyl lengths are recomputed on each call, not cached.
    """

    def __init__(self, typ: SimpleType):
        self.type = typ
        n = typ.rank
        self.rank = n
        expected = _POSITIVE_COUNTS[typ.family](n)
        if expected > MAX_POSITIVE_ROOTS:
            raise ValueError(f"{typ} has {expected} positive roots, more than the "
                             f"{MAX_POSITIVE_ROOTS} that can be built")

        self.cartan = tuple(map(tuple, _cartan_matrix(typ)))
        # |alpha_i|^2 / |alpha_{i-1}|^2 = a_{i-1,i} / a_{i,i-1} across a bond,
        # 1 between unbonded nodes; long roots get squared length 2
        simple_norms = [Fraction(1)]
        for i in range(1, n):
            a, b = self.cartan[i - 1][i], self.cartan[i][i - 1]
            simple_norms.append(simple_norms[-1] * Fraction(a or 1, b or 1))
        top = max(simple_norms)
        # (alpha_i, alpha_j) = a_ij |alpha_i|^2 / 2
        form = [[a_ij * norm / top for a_ij in row]
                for row, norm in zip(self.cartan, simple_norms)]
        self.form = tuple(map(tuple, form))

        self.positive_roots, self.coroots = self._generate()
        self.num_positive = len(self.positive_roots)
        if self.num_positive != expected:
            raise AssertionError(
                f"{typ}: generated {self.num_positive} positive roots, expected {expected}")
        self.root_index = {r: i for i, r in enumerate(self.positive_roots)}
        self.heights = tuple(sum(r) for r in self.positive_roots)
        self.theta_index = self.num_positive - 1
        theta = self.positive_roots[self.theta_index]
        for r in self.positive_roots:
            if any(t - c < 0 for t, c in zip(theta, r)):
                raise AssertionError("highest root is not dominance-maximal")
        self.theta = theta

        for k, r in enumerate(self.positive_roots):
            if self.coroot_pairing(r, k) != 2:
                raise AssertionError("<beta, beta^vee> must be 2")
        # beta^vee = sum_i c_i (|alpha_i|^2 / |beta|^2) alpha_i^vee, so any
        # coordinate with c_i != 0 gives |beta|^2 = c_i |alpha_i|^2 / coroot_i
        norms = [next(c * form[i][i] / coroot[i] for i, c in enumerate(r) if c)
                 for r, coroot in zip(self.positive_roots, self.coroots)]
        self.root_norms = tuple(norms)
        maxnorm = max(norms)
        if maxnorm != 2:
            raise AssertionError("long roots are not normalised to squared length 2")
        self.long = tuple(v == 2 for v in norms)

        npos = self.num_positive
        self.simple_indices = tuple(
            self.root_index[tuple(_unit(i, n))] for i in range(n))
        sum_idx = [[-1] * npos for _ in range(npos)]
        diff_idx = [[-1] * npos for _ in range(npos)]
        sums = [0] * npos
        up_shift = [0] * npos
        down_shift = [0] * npos
        for i, ri in enumerate(self.positive_roots):
            for j in range(i, npos):
                k = self.root_index.get(tuple(map(add, ri, self.positive_roots[j])))
                if k is None:
                    continue
                sum_idx[i][j] = sum_idx[j][i] = k
                diff_idx[k][j] = i
                diff_idx[k][i] = j
                sums[i] |= 1 << j
                sums[j] |= 1 << i
                up_shift[i] |= 1 << k
                up_shift[j] |= 1 << k
                down_shift[k] |= 1 << i | 1 << j
        self.sum_index = tuple(tuple(row) for row in sum_idx)
        self.diff_index = tuple(tuple(row) for row in diff_idx)
        self.sum_masks = tuple(sums)
        self.up_shift_masks = tuple(up_shift)
        self.down_shift_masks = tuple(down_shift)

        # beta_j - beta_i and beta_i - beta_j are roots for j in i's shifts
        full = (1 << npos) - 1
        self.orth_masks = tuple(
            full & ~(1 << i | sums[i] | up_shift[i] | down_shift[i])
            for i in range(npos))

        # dominance: up_masks[i] has bit j set iff root_j >= root_i, and
        # down_masks[i] iff root_j <= root_i; every dominance step factors
        # through root additions, which raise the index, so the up closure
        # runs from the top root down and the down closure from the bottom up
        up = [0] * npos
        for i in reversed(range(npos)):
            up[i] = 1 << i | _union(up, up_shift[i])
        self.up_masks = tuple(up)
        down = [0] * npos
        for i in range(npos):
            down[i] = 1 << i | _union(down, down_shift[i])
        self.down_masks = tuple(down)

        self.eps_vectors = _eps_vectors(typ, self.positive_roots)
        self.labels = self._build_labels()
        self._label_index = {e: i for i, e in enumerate(self.labels)}

    # -- basic queries -------------------------------------------------

    def inner(self, i: int, j: int) -> Fraction:
        """Bilinear form value of two positive roots, by index."""
        # (beta_i, beta_j) = <beta_i, beta_j^vee> |beta_j|^2 / 2
        return self.coroot_pairing(self.positive_roots[i], j) * self.root_norms[j] / 2

    def cartan_pairing(self, mu: Sequence[int], i: int) -> int:
        """<mu, alpha_i^vee> for a coefficient vector mu."""
        return sum(c * self.cartan[i][j] for j, c in enumerate(mu) if c)

    def coroot_pairing(self, mu: Sequence[int], k: int) -> int:
        """<mu, beta_k^vee> for a coefficient vector mu."""
        return sum(c * self.cartan_pairing(mu, i) for i, c in enumerate(self.coroots[k]) if c)

    def index_of(self, coeffs: Sequence[int]) -> int:
        idx = self.root_index.get(tuple(coeffs))
        if idx is None:
            raise ValueError(f"{tuple(coeffs)} is not a positive root of {self.type}")
        return idx

    # -- generation ----------------------------------------------------

    def _generate(self):
        """The positive roots, sorted by (height, coefficients), and their coroots.

        Simple reflections walk up from the simple roots: s_i(beta) = beta - c alpha_i
        for c = <beta, alpha_i^vee> < 0, with coroot beta^vee - <alpha_i, beta^vee> alpha_i^vee.
        Every other positive root has some c > 0, so it is reached from a lower root.
        """
        n, cartan = self.rank, self.cartan
        simples = [tuple(_unit(i, n)) for i in range(n)]
        coroot_of = dict(zip(simples, simples))
        layer = simples
        while layer:
            nxt = []
            for beta in layer:
                coroot = coroot_of[beta]
                for i in range(n):
                    c = self.cartan_pairing(beta, i)
                    if c < 0:
                        up = beta[:i] + (beta[i] - c,) + beta[i + 1:]
                        if up not in coroot_of:
                            # <alpha_i, beta^vee> = sum_k coroot_k <alpha_i, alpha_k^vee>
                            d = sum(x * cartan[k][i] for k, x in enumerate(coroot) if x)
                            coroot_of[up] = coroot[:i] + (coroot[i] - d,) + coroot[i + 1:]
                            nxt.append(up)
            layer = nxt
        roots = tuple(sorted(coroot_of, key=lambda r: (sum(r), r)))
        return roots, tuple(map(coroot_of.__getitem__, roots))

    # -- labels ----------------------------------------------------------

    def _build_labels(self):
        """Each root's label: its epsilon string in types A-D, else [c1,...,cn]."""
        if self.eps_vectors is None:
            return tuple("[" + ",".join(map(str, r)) + "]" for r in self.positive_roots)
        out = []
        for r, vec in zip(self.positive_roots, self.eps_vectors):
            support = [(k + 1, v) for k, v in enumerate(vec) if v]
            form = _EPS_FORMS.get(tuple(v for _, v in support))
            if form is None:
                raise AssertionError(f"unrecognised classical root {r}")
            out.append(form.format(*(k for k, _ in support)))
        return tuple(out)

    def eps_string(self, i: int) -> Optional[str]:
        """Epsilon-notation of a positive root, or None outside A-D."""
        return None if self.eps_vectors is None else self.labels[i]

    def root_label(self, i: int) -> str:
        return self.labels[i]

    def parse_root(self, text: str) -> int:
        """Index of a positive root given as an eps string or [c1,...,cn]."""
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError(f"unbalanced coefficient tuple {text!r}")
            parts = [p.strip() for p in text[1:-1].split(",")]
            coeffs = tuple(int(p) for p in parts)
            if len(coeffs) != self.rank:
                raise ValueError(
                    f"expected {self.rank} coefficients, got {len(coeffs)}")
            return self.index_of(coeffs)
        if self.eps_vectors is None:
            raise ValueError(
                f"epsilon notation is only available for classical types, not {self.type}")
        idx = self._label_index.get(text)
        if idx is None:
            raise ValueError(f"{text!r} is not a positive root of {self.type}")
        return idx

    def sorted_labels(self, roots: Iterable[int]) -> List[str]:
        """The labels of the given roots, sorted as strings."""
        return sorted(map(self.labels.__getitem__, roots))

    def root_json(self, i: int) -> dict:
        return {"coeffs": list(self.positive_roots[i]), "eps": self.eps_string(i)}

    def __repr__(self):
        return f"RootSystem({self.type}, {self.num_positive} positive roots)"


@lru_cache(maxsize=None)
def _build_cached(family: str, rank: int) -> RootSystem:
    return RootSystem(SimpleType(family, rank))


def _build_parsed(typ) -> RootSystem:
    t = SimpleType.parse(typ)
    return _build_cached(t.family, t.rank)


# memoised on the argument as given, so a caller that names its type
# thousands of times parses each spelling once
_build_named = lru_cache(maxsize=256)(_build_parsed)


def build_root_system(typ) -> RootSystem:
    """Build (or fetch the cached) root system of a simple type."""
    # only strings and SimpleTypes go through the memo: anything else, an
    # unhashable list say, reaches the parse and its ValueError
    if isinstance(typ, (str, SimpleType)):
        return _build_named(typ)
    return _build_parsed(typ)


def _split_roots(text: str) -> List[str]:
    """The comma-separated entries of text, stripped, keeping each [c1,...,cn] whole."""
    tokens = [""]
    depth = 0
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            tokens.append("")
        else:
            tokens[-1] += ch
    return [t.strip() for t in tokens if t.strip()]


def _parse_roots(rs, text: str):
    return frozenset(map(rs.parse_root, _split_roots(text)))


def _mask_of(roots: Iterable[int]) -> int:
    """The bitmask of a set of root indices."""
    mask = 0
    for i in roots:
        mask |= 1 << i
    return mask


def _bits(mask: int) -> Tuple[int, ...]:
    """The root indices of the set bits of a mask, in ascending order."""
    # the bit loops here run from the top bit: bit_length and one shift cost
    # less than the low-bit trick mask & -mask, which builds two new ints
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    out.reverse()
    return tuple(out)


def _set_of(mask: int) -> frozenset:
    """The root indices of the set bits of a mask."""
    return frozenset(_bits(mask))


def _union(rows, roots: int) -> int:
    """The OR of the per-root masks in rows over the roots of a mask."""
    out = 0
    while roots:
        i = roots.bit_length() - 1
        out |= rows[i]
        roots ^= 1 << i
    return out


def is_root(rs: RootSystem, coeffs: Sequence[int]) -> bool:
    """True iff the coefficient vector is a root (of either sign)."""
    v = tuple(coeffs)
    if len(v) != rs.rank:
        raise ValueError(f"expected {rs.rank} coefficients, got {len(v)}")
    return v in rs.root_index or tuple(-x for x in v) in rs.root_index


def strongly_orthogonal(rs: RootSystem, i: int, j: int) -> bool:
    """True iff neither the sum nor the difference of the two roots is a root."""
    if i == j:
        raise ValueError("strong orthogonality is only defined for distinct roots")
    res = bool(rs.orth_masks[i] & (1 << j))
    if res and rs.inner(i, j) != 0:
        raise AssertionError("strongly orthogonal roots must be orthogonal")
    return res


def non_orthogonal_pair(rs: RootSystem, roots: Iterable[int]) -> Optional[Tuple[int, int]]:
    """First pair of the roots, in index order, that is not strongly orthogonal; else None."""
    mask = _mask_of(roots)
    for i in _bits(mask):
        # by symmetry the first root with a bad partner has only later ones
        bad = mask & ~(rs.orth_masks[i] | 1 << i)
        if bad:
            return i, _bits(bad)[0]
    return None


def _check_orth_set(rs: RootSystem, roots: Iterable[int]) -> None:
    """Raise ValueError naming the first pair of the roots that is not strongly orthogonal."""
    bad = non_orthogonal_pair(rs, roots)
    if bad is not None:
        raise ValueError(
            f"{rs.root_label(bad[0])} and {rs.root_label(bad[1])} "
            "are not strongly orthogonal")


def dominance_leq(rs: RootSystem, i: int, j: int) -> bool:
    """mu <= nu in the dominance order: nu - mu has nonnegative coefficients."""
    return bool(rs.up_masks[i] & (1 << j))


def _max_layer(rs: RootSystem, mask: int) -> int:
    """The roots of the mask with no other root of the mask above them.

    Roots are numbered by height, so the highest root left is maximal, and
    the roots below it (``down_masks``) are dropped unvisited: one step per
    root of the layer, not per root of the mask.
    """
    downs = rs.down_masks
    out = 0
    while mask:
        i = mask.bit_length() - 1
        out |= 1 << i
        mask &= ~downs[i]
    return out


def _min_layer(rs: RootSystem, mask: int) -> int:
    """The roots of the mask with no other root of the mask below them.

    As _max_layer, from the lowest root up, dropping the roots above it.
    """
    ups = rs.up_masks
    out = 0
    while mask:
        low = mask & -mask
        out |= low
        mask &= ~ups[low.bit_length() - 1]
    return out


def min_elements(rs: RootSystem, roots: Iterable[int]) -> frozenset:
    """The roots with no other of the roots below them in dominance order."""
    return _set_of(_min_layer(rs, _mask_of(roots)))


def max_elements(rs: RootSystem, roots: Iterable[int]) -> frozenset:
    """The roots with no other of the roots above them in dominance order."""
    return _set_of(_max_layer(rs, _mask_of(roots)))


# Bourbaki node index for each Vinberg-Onishchik node index, E types only.
# Every other family has identical numbering in the two conventions.
_VINBERG_TO_BOURBAKI = {
    ("E", 6): {1: 1, 2: 3, 3: 4, 4: 5, 5: 6, 6: 2},
    ("E", 7): {1: 7, 2: 6, 3: 5, 4: 4, 5: 3, 6: 1, 7: 2},
    ("E", 8): {1: 8, 2: 7, 3: 6, 4: 5, 5: 4, 6: 3, 7: 1, 8: 2},
}
_BOURBAKI_TO_VINBERG = {key: {b: v for v, b in table.items()}
                        for key, table in _VINBERG_TO_BOURBAKI.items()}


def _renumber(rs: RootSystem, node: int, convention: str, tables) -> int:
    if convention not in ("bourbaki", "vinberg"):
        raise ValueError(f"unknown numbering convention {convention!r}")
    if not 1 <= node <= rs.rank:
        raise ValueError(f"node {node} out of range for {rs.type}")
    table = tables.get((rs.type.family, rs.rank)) if convention == "vinberg" else None
    return table[node] if table else node


def node_to_bourbaki(rs: RootSystem, node: int, convention: str = "bourbaki") -> int:
    """Translate a 1-based simple-root number into Bourbaki numbering."""
    return _renumber(rs, node, convention, _VINBERG_TO_BOURBAKI)


def node_from_bourbaki(rs: RootSystem, node: int, convention: str = "bourbaki") -> int:
    """Translate a 1-based Bourbaki simple-root number into the given numbering."""
    return _renumber(rs, node, convention, _BOURBAKI_TO_VINBERG)
