import itertools
import random

import pytest

from borel_orbits import build_root_system, min_elements, orbits, weyl
from borel_orbits.ideals import (
    _abelian_masks,
    abelian_nilradicals,
    check_abelian_ideal,
    enumerate_abelian_ideals,
    maximal_abelian_ideals,
    nilradical_mask,
)
from borel_orbits.intlin import smith_normal_form
from borel_orbits.orbits import strongly_orth_subsets, upper_canonical
from borel_orbits.root_system import _bits, _set_of
from borel_orbits.suite import all_types
from borel_orbits.weyl import (
    WeylElement,
    absolute_length,
    bruhat_leq,
    identity,
    length,
    longest_element,
    reflect,
    reflection,
    sigma_of_orth_set,
)


def test_reflect_basics():
    rs = build_root_system("A2")
    a1, a2 = rs.simple_indices
    assert reflect(rs, a1, a1) == (-1, 0)
    assert reflect(rs, a1, a2) == (1, 1)
    # sigma_theta fixes roots orthogonal to theta
    rs4 = build_root_system("D4")
    for mu in range(rs4.num_positive):
        if rs4.inner(mu, rs4.theta_index) == 0:
            assert reflect(rs4, rs4.theta_index, mu) == rs4.positive_roots[mu]


def test_reflection_matrices_are_involutions():
    for typ in ("A3", "B3", "G2", "F4"):
        rs = build_root_system(typ)
        for i in range(rs.num_positive):
            w = reflection(rs, i)
            assert w.matrix == _ref_reflection(rs, i)
            assert (w * w).is_identity()
            assert length(rs, w) % 2 == 1


def test_sigma_of_orth_set_empty_and_order_independence():
    rs = build_root_system("D4")
    assert sigma_of_orth_set(rs, []).element.is_identity()
    a = next(x for x in maximal_abelian_ideals(rs) if len(x) == 5)
    s = sorted(min_elements(rs, a))
    for perm in itertools.permutations(s):
        w = identity(rs)
        for g in perm:
            w = w * reflection(rs, g)
        assert w == sigma_of_orth_set(rs, s).element


def test_sigma_order_independence_exhaustive_small_rank():
    for typ in ("A3", "B3", "C3", "G2", "A4", "B4", "C4", "D4", "F4"):
        rs = build_root_system(typ)
        for ideal in enumerate_abelian_ideals(rs):
            for s in strongly_orth_subsets(rs, ideal):
                expected = sigma_of_orth_set(rs, s).element
                for perm in itertools.permutations(sorted(s)):
                    w = identity(rs)
                    for g in perm:
                        w = w * reflection(rs, g)
                    assert w == expected


def test_sigma_rejects_non_orthogonal():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        sigma_of_orth_set(rs, rs.simple_indices)


def test_d4_example_lengths():
    rs = build_root_system("D4")
    a = next(x for x in maximal_abelian_ideals(rs) if len(x) == 5)
    s = min_elements(rs, a)
    sig = sigma_of_orth_set(rs, s)
    assert length(rs, sig.element) == 11
    assert absolute_length(rs, sig.element) == 3
    sig_theta = sigma_of_orth_set(rs, [rs.theta_index])
    assert length(rs, sig_theta.element) == 9
    assert not bruhat_leq(rs, sig.element, sig_theta.element)
    assert sig.to_json(rs) == {
        "orth_set": ["e1+e4", "e1-e4", "e2+e3"], "length": 11, "abs_length": 3}


def test_length_identity_and_longest():
    rs = build_root_system("A2")
    assert length(rs, identity(rs)) == 0
    w0 = longest_element(rs, range(2))
    assert length(rs, w0) == 3
    assert longest_element(rs, []).is_identity()


def test_absolute_length_equals_set_size():
    for typ in ("A3", "B3", "C3", "G2"):
        rs = build_root_system(typ)
        for ideal in enumerate_abelian_ideals(rs):
            for s in strongly_orth_subsets(rs, ideal):
                sig = sigma_of_orth_set(rs, s)
                assert absolute_length(rs, sig.element) == len(s)


# -- rank reference: fraction-free Bareiss elimination, sharing no code
# with the Smith form that absolute_length reads its rank from

def _bareiss_rank(rows):
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank


def _smith_rank(rows):
    _, d, _ = smith_normal_form(rows)
    return sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])


def test_smith_rank_matches_bareiss_reference():
    for rows, rank in [([[1, 2], [2, 4]], 1), ([[1, 0], [0, 1]], 2),
                       ([[0, 0], [0, 0]], 0), ([[2, 3, 5], [4, 6, 10], [1, 1, 1]], 2)]:
        assert _bareiss_rank(rows) == _smith_rank(rows) == rank
    rng = random.Random(5)
    singular = 0
    for _ in range(400):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        # a row that combines two others keeps some square matrices singular
        if nrows > 2 and rng.random() < 0.5:
            rows[0] = [a - 2 * b for a, b in zip(rows[1], rows[2])]
        rank = _bareiss_rank(rows)
        singular += rank < min(nrows, ncols)
        assert _smith_rank(rows) == rank
    assert singular > 50


def test_absolute_length_matches_bareiss_rank():
    sigmas = 0
    for typ in all_types(5):
        rs = build_root_system(typ)
        n = rs.rank
        for _, ideal in abelian_nilradicals(rs):
            for s in strongly_orth_subsets(rs, ideal):
                w = sigma_of_orth_set(rs, s).element
                wm = w.matrix
                rows = [[int(i == j) - wm[i][j] for j in range(n)] for i in range(n)]
                assert absolute_length(rs, w) == _bareiss_rank(rows)
                sigmas += 1
    assert sigmas == 499


# -- matrix reference: the Weyl layer as integer matrices on simple-root
# coordinates, built from reflect() alone and sharing no code with the
# permutation tables it checks

def _ref_reflection(rs, gamma):
    # column j is the reflected alpha_j
    return tuple(zip(*(reflect(rs, gamma, k) for k in rs.simple_indices)))


def _ref_identity(rs):
    n = rs.rank
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _ref_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _ref_act(m, coeffs):
    """Image of a coefficient vector under the matrix."""
    return tuple(sum(a * c for a, c in zip(row, coeffs)) for row in m)


def _ref_length(rs, m):
    """Number of positive roots whose image under the matrix is negative."""
    return sum(min(_ref_act(m, r)) < 0 for r in rs.positive_roots)


def _element(rs, m):
    """The WeylElement whose simple-root images are the columns of m."""
    npos = rs.num_positive
    images = []
    for col in zip(*m):
        k = rs.root_index.get(col)
        images.append(k if k is not None else npos + rs.root_index[tuple(-c for c in col)])
    return WeylElement(rs, tuple(images))


def _ref_sigma(rs, orth_set):
    m = _ref_identity(rs)
    for g in sorted(orth_set):
        m = _ref_mul(m, _ref_reflection(rs, g))
    return m


def _column_sign(m, j):
    return next((1 if row[j] > 0 else -1) for row in m if row[j])


def _ref_right_multiply_simple(rs, m, i):
    # m -> m * s_i in place: column j loses <alpha_j, alpha_i^vee> times column i
    coli = [row[i] for row in m]
    for j in range(rs.rank):
        c = rs.cartan[i][j]
        if c:
            for r, cr in enumerate(coli):
                m[r][j] -= c * cr


def _ref_descent_chain(rs, w):
    wm = [list(row) for row in w]
    chain = []
    for _ in range(_ref_length(rs, w)):
        i = next(j for j in range(rs.rank) if _column_sign(wm, j) < 0)
        _ref_right_multiply_simple(rs, wm, i)
        chain.append(i)
    assert tuple(map(tuple, wm)) == _ref_identity(rs)
    return chain


def _ref_bruhat_leq(rs, u, chain_w):
    """The lifting loop on matrix columns, along w's descent chain."""
    um = [list(row) for row in u]
    for i in chain_w:
        if _column_sign(um, i) < 0:
            _ref_right_multiply_simple(rs, um, i)
    return tuple(map(tuple, um)) == _ref_identity(rs)


def _group_elements_with_words(rs):
    """BFS over words in the simple reflections: matrix -> one reduced word."""
    gens = [_ref_reflection(rs, i) for i in rs.simple_indices]
    seen = {_ref_identity(rs): ()}
    frontier = [_ref_identity(rs)]
    while frontier:
        nxt = []
        for w in frontier:
            for k, g in enumerate(gens):
                cand = _ref_mul(w, g)
                if cand not in seen:
                    seen[cand] = seen[w] + (k,)
                    nxt.append(cand)
        frontier = nxt
    return seen


def _lower_intervals(rs, words):
    """w -> products of the reduced subwords of a fixed reduced word of w.

    A subword of r letters is reduced when its product has length r.  The
    set grows letter by letter: each product x may take the next letter s
    exactly when l(xs) = l(x) + 1.
    """
    gens = [_ref_reflection(rs, i) for i in rs.simple_indices]
    lengths = {w: _ref_length(rs, w) for w in words}
    intervals = {}
    for w, word in words.items():
        below = {_ref_identity(rs)}
        for k in word:
            longer = set()
            for x in below:
                y = _ref_mul(x, gens[k])
                if lengths[y] == lengths[x] + 1:
                    longer.add(y)
            below |= longer
        intervals[w] = below
    return intervals


@pytest.mark.parametrize("typ", ["A3", "B2", "G2", "A4", "B3", "C3", "D4"])
def test_bruhat_matches_subword_oracle(typ):
    rs = build_root_system(typ)
    words = _group_elements_with_words(rs)
    intervals = _lower_intervals(rs, words)
    matrices = sorted(words, key=lambda m: (_ref_length(rs, m), m))
    elements = {m: _element(rs, m) for m in matrices}
    gens = [(reflection(rs, i), _ref_reflection(rs, i)) for i in rs.simple_indices]
    for m, w in elements.items():
        assert w.matrix == m and length(rs, w) == _ref_length(rs, m)
        for g, ref_g in gens:
            assert w * g == elements[_ref_mul(m, ref_g)]
    for u in matrices:
        for w in matrices:
            assert bruhat_leq(rs, elements[u], elements[w]) == (u in intervals[w]), \
                (typ, words[u], words[w])


def _nilradical_involutions(typ):
    rs = build_root_system(typ)
    labels = set()
    for _, ideal in abelian_nilradicals(rs):
        labels.update(strongly_orth_subsets(rs, ideal))
    if typ == "D4":
        five = next(x for x in maximal_abelian_ideals(rs) if len(x) == 5)
        labels.update(strongly_orth_subsets(rs, five))
    return rs, sorted(labels, key=lambda s: (len(s), sorted(s)))


def check_against_matrix_reference(typ):
    """sigma_S, its length and Bruhat order on all pairs, against the matrices.

    The labels are those of every abelian nilradical of the type, plus,
    in D4, those of the maximal abelian ideal of the counterexample.
    Returns the number of Bruhat pairs compared.  The suite runs rank <= 5;
    rank 6 (about 285k pairs, most of them in C6) takes under a minute
    when called directly.
    """
    rs, labels = _nilradical_involutions(typ)
    sigmas = {}
    for s in labels:
        ref = _ref_sigma(rs, s)
        w = sigma_of_orth_set(rs, s).element
        assert w.matrix == ref, (typ, sorted(s))
        assert length(rs, w) == _ref_length(rs, ref), (typ, sorted(s))
        sigmas[ref] = w
    chains = {m: _ref_descent_chain(rs, m) for m in sigmas}
    for u, wu in sigmas.items():
        for w, ww in sigmas.items():
            assert bruhat_leq(rs, wu, ww) == _ref_bruhat_leq(rs, u, chains[w]), typ
    return len(sigmas) ** 2


@pytest.mark.parametrize("typ", [f"{f}{n}" for f in "ABCD" for n in range(1, 6)
                                 if (f, n) not in {("B", 1), ("C", 1), ("D", 1), ("D", 2)}])
def test_nilradical_involutions_match_matrix_reference(typ):
    assert check_against_matrix_reference(typ) >= 1


def test_bruhat_reflexive_and_bounded():
    rs = build_root_system("A2")
    s1 = reflection(rs, rs.simple_indices[0])
    s2 = reflection(rs, rs.simple_indices[1])
    w0 = longest_element(rs, range(2))
    assert bruhat_leq(rs, identity(rs), w0)
    assert bruhat_leq(rs, s1, s1)
    assert bruhat_leq(rs, s1, s1 * s2 * s1)
    assert not bruhat_leq(rs, s1 * s2, s2 * s1)


def test_subset_monotonicity_small_rank():
    for typ in ("A3", "B3", "C3", "G2", "D4"):
        rs = build_root_system(typ)
        for ideal in enumerate_abelian_ideals(rs):
            for s in strongly_orth_subsets(rs, ideal):
                sig = sigma_of_orth_set(rs, s).element
                for g in s:
                    smaller = sigma_of_orth_set(rs, s - {g}).element
                    assert bruhat_leq(rs, smaller, sig)


def test_longest_element_inverts_levi_and_sends_theta_to_node():
    for typ, node in [("B3", 0), ("C3", 2), ("A4", 1), ("E6", 0)]:
        rs = build_root_system(typ)
        nodes = [i for i in range(rs.rank) if i != node]
        w = longest_element(rs, nodes)
        levi_pos = [i for i, r in enumerate(rs.positive_roots) if r[node] == 0]
        assert length(rs, w) == len(levi_pos)
        image = _ref_act(w.matrix, rs.theta)
        alpha = [0] * rs.rank
        alpha[node] = 1
        assert image == tuple(alpha)


def _packed_case_labels(rs):
    """Every label of every abelian ideal of rank <= 5; of the last node's
    nilradical above that; of the maximal abelian ideals in E8."""
    if rs.rank <= 5:
        masks = _abelian_masks(rs)
    elif rs.type.family == "E" and rs.rank == 8:
        masks = [a.mask for a in maximal_abelian_ideals(rs)]
    else:
        masks = [nilradical_mask(rs, rs.rank - 1)]
    return sorted({m for mask in masks
                   for m in orbits._label_masks(rs, check_abelian_ideal(rs, _set_of(mask)))})


@pytest.mark.parametrize("typ", all_types(5) + ["C8", "D8", "E7", "E8"])
def test_packed_length_and_key_match_the_weyl_element(typ):
    # E8 has no abelian nilradical, and its heights, up to 29, set the field width
    rs = build_root_system(typ)
    element_of_key = {}
    for m in _packed_case_labels(rs):
        s = _bits(m)
        key = weyl._sigma_key(rs, s)
        w = weyl._sigma_element(rs, s)
        assert weyl._key_length(rs, key) == length(rs, w), (typ, s)
        # t_S determines sigma_S ...
        assert element_of_key.setdefault(key, w) == w, (typ, s)
    # ... and sigma_S determines t_S
    assert len(set(element_of_key.values())) == len(element_of_key)
