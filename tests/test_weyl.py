import itertools

import pytest

from borel_orbits import build_root_system, min_elements
from borel_orbits.ideals import enumerate_abelian_ideals, maximal_abelian_ideals
from borel_orbits.orbits import strongly_orth_subsets, upper_canonical
from borel_orbits.weyl import (
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


def _group_elements_with_words(rs):
    """BFS over words in the simple reflections: element -> one reduced word."""
    gens = [reflection(rs, i) for i in rs.simple_indices]
    seen = {identity(rs): ()}
    frontier = [identity(rs)]
    while frontier:
        nxt = []
        for w in frontier:
            for k, g in enumerate(gens):
                cand = w * g
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
    gens = [reflection(rs, i) for i in rs.simple_indices]
    lengths = {w: length(rs, w) for w in words}
    intervals = {}
    for w, word in words.items():
        below = {identity(rs)}
        for k in word:
            below |= {x * gens[k] for x in below if lengths[x * gens[k]] == lengths[x] + 1}
        intervals[w] = below
    return intervals


@pytest.mark.parametrize("typ", ["A3", "B2", "G2", "A4", "B3", "C3", "D4"])
def test_bruhat_matches_subword_oracle(typ):
    rs = build_root_system(typ)
    words = _group_elements_with_words(rs)
    intervals = _lower_intervals(rs, words)
    elements = sorted(words, key=lambda w: (length(rs, w), w.matrix))
    for u in elements:
        for w in elements:
            assert bruhat_leq(rs, u, w) == (u in intervals[w]), \
                (typ, words[u], words[w])


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
        image = w.act(rs.theta)
        alpha = [0] * rs.rank
        alpha[node] = 1
        assert image == tuple(alpha)
