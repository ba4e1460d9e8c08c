from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from borel_orbits import (
    SimpleType,
    build_root_system,
    dominance_leq,
    is_root,
    max_elements,
    min_elements,
    strongly_orthogonal,
)
from borel_orbits import root_system
from borel_orbits.ideals import enumerate_abelian_ideals, ideal_from_shape
from borel_orbits.root_system import non_orthogonal_pair
from borel_orbits.suite import all_types
from borel_orbits.weyl import reflect


def labels(rs, roots):
    return sorted(rs.root_label(i) for i in roots)


def test_simple_type_validation():
    assert str(SimpleType.parse("d4")) == "D4"
    assert SimpleType("D", 3).rank == 3  # D3 is allowed, isomorphic to A3
    for bad in ("D2", "E5", "F3", "G3", "H4", "A0"):
        with pytest.raises(ValueError):
            SimpleType.parse(bad)


def test_build_root_system_parses_each_spelling_once(monkeypatch):
    rs = build_root_system("C8")
    parsed = []
    parse = SimpleType.parse.__func__

    def counted(cls, text):
        parsed.append(text)
        return parse(cls, text)

    monkeypatch.setattr(SimpleType, "parse", classmethod(counted))
    root_system._build_named.cache_clear()
    spellings = ("C8", "c8", " C 8 ", SimpleType("C", 8))
    for typ in spellings * 3:
        assert build_root_system(typ) is rs
    assert parsed == list(spellings)
    # a bad spelling is not cached: it is parsed and refused on every call,
    # an unhashable one included
    bads = ("D2", "H4", "C", "", "C 8 x", ["C", 8])
    for bad in bads * 2:
        with pytest.raises(ValueError, match="cannot parse|unknown family|invalid rank"):
            build_root_system(bad)
    assert parsed[len(spellings):] == list(bads * 2)


def test_types_above_the_root_cap_are_refused_before_the_root_walk(monkeypatch):
    # A80 has exactly MAX_POSITIVE_ROOTS roots; the walk is stubbed, so no
    # large system is built either way
    def walk(self):
        raise LookupError("the root walk ran")

    monkeypatch.setattr(root_system.RootSystem, "_generate", walk)
    for typ in ("A80", "B56", "C56", "D57", "A40", "C30", "D30"):
        with pytest.raises(LookupError):
            root_system.RootSystem(SimpleType.parse(typ))
    for typ, count in [("A81", 3321), ("B57", 3249), ("C57", 3249), ("D58", 3306),
                       ("A200", 20100)]:
        with pytest.raises(ValueError) as err:
            root_system.RootSystem(SimpleType.parse(typ))
        assert str(err.value) == (f"{typ} has {count} positive roots, more than "
                                  "the 3240 that can be built")


@pytest.mark.parametrize("typ,count", [
    ("A1", 1), ("A2", 3), ("A5", 15), ("B2", 4), ("B6", 36), ("C3", 9),
    ("D3", 6), ("D4", 12), ("E6", 36), ("E7", 63), ("E8", 120),
    ("F4", 24), ("G2", 6),
])
def test_positive_root_counts(typ, count):
    # E8 cross-check: dim g = 248 = 8 + 2 * 120
    assert build_root_system(typ).num_positive == count


def test_a2_roots():
    rs = build_root_system("A2")
    assert labels(rs, range(3)) == ["e1-e2", "e1-e3", "e2-e3"]
    assert rs.theta == (1, 1)


def test_g2_roots():
    rs = build_root_system("G2")
    # alpha_1 short; the maximal abelian ideal consists of these three roots
    for v in [(2, 1), (3, 1), (3, 2)]:
        assert is_root(rs, v)
    assert not is_root(rs, (2, 2))
    assert rs.theta == (3, 2)
    long_roots = [rs.positive_roots[i] for i in range(6) if rs.long[i]]
    assert sorted(long_roots) == [(0, 1), (3, 1), (3, 2)]


def test_is_root_validation():
    rs = build_root_system("A2")
    assert is_root(rs, (1, 1))
    assert not is_root(rs, (2, 0))  # reduced system: 2*alpha is never a root
    assert is_root(rs, (-1, -1))
    with pytest.raises(ValueError):
        is_root(rs, (1, 0, 0))


def test_theta_is_dominance_maximal():
    for typ in ("A4", "B3", "C4", "D5", "F4", "G2", "E6"):
        rs = build_root_system(typ)
        assert all(dominance_leq(rs, i, rs.theta_index)
                   for i in range(rs.num_positive))


def test_root_table_closed_under_simple_reflections():
    for typ in ("A3", "B3", "C3", "D4", "G2", "F4"):
        rs = build_root_system(typ)
        for i in rs.simple_indices:
            for mu in range(rs.num_positive):
                assert is_root(rs, reflect(rs, i, mu))


def _form_images(rs):
    """F beta for every positive root beta, F the Gram matrix ``rs.form``.

    (u, v) = sum_kl u_k v_l form[k][l] = u . F v is the reference quadratic
    form, independent of the Cartan pairings and the coroot table.
    """
    return [[sum(c * rs.form[k][l] for l, c in enumerate(r) if c) for k in range(rs.rank)]
            for r in rs.positive_roots]


@pytest.mark.parametrize("typ", all_types(8))
def test_norms_inner_coroots_and_reflections_match_the_quadratic_form(typ):
    rs = build_root_system(typ)
    roots = rs.positive_roots
    images = _form_images(rs)
    for j, g in enumerate(roots):
        norm = sum(a * f for a, f in zip(g, images[j]) if a)
        assert rs.root_norms[j] == norm and rs.long[j] == (norm == 2)
        # gamma^vee = 2 gamma / (gamma, gamma) and alpha_i^vee = 2 alpha_i / (alpha_i, alpha_i)
        assert rs.coroots[j] == tuple(c * rs.form[i][i] / norm for i, c in enumerate(g))
        for i, m in enumerate(roots):
            value = sum(a * f for a, f in zip(m, images[j]) if a)
            assert rs.inner(i, j) == value, (i, j)
            coef = 2 * value / norm
            assert reflect(rs, j, i) == tuple(a - coef * b for a, b in zip(m, g)), (i, j)


def _roots_by_string_probes(rs):
    """The positive roots, sorted by (height, coefficients), by probing alpha_i-strings.

    beta + alpha_i is a root iff p - <beta, alpha_i^vee> >= 1, where p
    counts the steps of the alpha_i-string below beta.
    """
    n = rs.rank
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    known = set(simples)
    layer = simples
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                p = 0
                cur = list(beta)
                cur[i] -= 1
                while tuple(cur) in known:
                    p += 1
                    cur[i] -= 1
                if p - rs.cartan_pairing(beta, i) >= 1:
                    cand = list(beta)
                    cand[i] += 1
                    cand = tuple(cand)
                    if cand not in known:
                        known.add(cand)
                        nxt.append(cand)
        layer = nxt
    return tuple(sorted(known, key=lambda r: (sum(r), r)))


@pytest.mark.parametrize("typ", all_types(8) + ["A40", "D30"])
def test_reflection_walk_matches_string_probes_and_fraction_formulas(typ):
    rs = build_root_system(typ)
    assert rs.positive_roots == _roots_by_string_probes(rs)
    form = rs.form
    for k, r in enumerate(rs.positive_roots):
        # |beta|^2 = sum_i c_i <beta, alpha_i^vee> |alpha_i|^2 / 2 and
        # beta^vee = sum_i c_i (|alpha_i|^2 / |beta|^2) alpha_i^vee
        norm = sum(c * rs.cartan_pairing(r, i) * form[i][i] / 2 for i, c in enumerate(r) if c)
        assert rs.root_norms[k] == norm and rs.long[k] == (norm == 2), r
        assert rs.coroots[k] == tuple(c * form[i][i] / norm for i, c in enumerate(r)), r


def test_strong_orthogonality_c2_brute_force():
    rs = build_root_system("C2")
    # oracle: directly inspect sums and differences of the 4 positive roots
    def oracle(i, j):
        ri, rj = rs.positive_roots[i], rs.positive_roots[j]
        s = tuple(a + b for a, b in zip(ri, rj))
        d = tuple(a - b for a, b in zip(ri, rj))
        return not is_root(rs, s) and not is_root(rs, d)

    for i in range(4):
        for j in range(4):
            if i != j:
                assert strongly_orthogonal(rs, i, j) == oracle(i, j)
    two_e1 = rs.parse_root("2e1")
    two_e2 = rs.parse_root("2e2")
    plus = rs.parse_root("e1+e2")
    minus = rs.parse_root("e1-e2")
    assert strongly_orthogonal(rs, two_e1, two_e2)
    assert not strongly_orthogonal(rs, plus, minus)  # difference is 2e2


def test_strong_orthogonality_rejects_equal_roots():
    rs = build_root_system("A3")
    with pytest.raises(ValueError):
        strongly_orthogonal(rs, 0, 0)


def test_strongly_orthogonal_disjoint_supports_a3():
    rs = build_root_system("A3")
    assert strongly_orthogonal(rs, rs.parse_root("e1-e2"), rs.parse_root("e3-e4"))


def test_simply_laced_orthogonal_iff_strongly_orthogonal():
    for typ in ("A4", "D4", "E6"):
        rs = build_root_system(typ)
        for i in range(rs.num_positive):
            for j in range(i + 1, rs.num_positive):
                assert strongly_orthogonal(rs, i, j) == (rs.inner(i, j) == 0)


_TABLE_TYPES = [f"{f}{n}" for f in "ABCD" for n in range(1, 9)
                if not (f in "BC" and n < 2) and not (f == "D" and n < 3)]
_TABLE_TYPES += ["E6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize("typ", _TABLE_TYPES)
def test_root_pair_tables_match_coefficient_definitions(typ):
    # every table rebuilt pairwise from coefficient tuples, sharing no code
    # with the one-pass build
    rs = build_root_system(typ)
    roots = rs.positive_roots

    def index(v):
        return rs.root_index.get(tuple(v), -1)

    def bits(js):
        return sum(1 << j for j in set(js))

    sums = [[index(a + b for a, b in zip(ri, rj)) for rj in roots] for ri in roots]
    diffs = [[index(a - b for a, b in zip(ri, rj)) for rj in roots] for ri in roots]
    assert rs.sum_index == tuple(map(tuple, sums))
    assert rs.diff_index == tuple(map(tuple, diffs))
    assert rs.sum_masks == tuple(bits(j for j, k in enumerate(row) if k >= 0) for row in sums)
    assert rs.up_shift_masks == tuple(bits(k for k in row if k >= 0) for row in sums)
    assert rs.down_shift_masks == tuple(bits(k for k in row if k >= 0) for row in diffs)
    assert rs.up_masks == tuple(
        bits(j for j, rj in enumerate(roots) if all(b >= a for a, b in zip(ri, rj)))
        for ri in roots)
    # down_masks is up_masks transposed
    assert rs.down_masks == tuple(bits(j for j, up in enumerate(rs.up_masks) if up >> i & 1)
                                  for i in range(len(roots)))
    # the layer helpers need the numbering to extend the dominance order:
    # no root above root i has a smaller index
    assert all(up >> i << i == up for i, up in enumerate(rs.up_masks))
    assert rs.orth_masks == tuple(
        bits(j for j, rj in enumerate(roots) if j != i
             and not is_root(rs, [a + b for a, b in zip(ri, rj)])
             and not is_root(rs, [a - b for a, b in zip(ri, rj)]))
        for i, ri in enumerate(roots))


def test_dominance_and_min_max():
    rs = build_root_system("A5")
    # hooks in the running example presuppose e2-e4 <= e1-e4
    assert dominance_leq(rs, rs.parse_root("e2-e4"), rs.parse_root("e1-e4"))
    assert not dominance_leq(rs, rs.parse_root("e1-e2"), rs.parse_root("e2-e3"))
    ideal = ideal_from_shape(rs, [3, 3, 1])
    assert min_elements(rs, ideal) == {rs.parse_root("e2-e4"), rs.parse_root("e3-e6")}
    assert max_elements(rs, ideal) == {rs.theta_index}
    single = frozenset([rs.parse_root("e2-e5")])
    assert min_elements(rs, single) == single == max_elements(rs, single)


_SMALL_TYPES = [f"{f}{n}" for f in "ABCD" for n in range(1, 7)
                if not (f in "BC" and n < 2) and not (f == "D" and n < 3)]
_SMALL_TYPES += ["E6", "F4", "G2"]


@st.composite
def _type_and_roots(draw):
    rs = build_root_system(draw(st.sampled_from(_SMALL_TYPES)))
    roots = draw(st.sets(st.integers(0, rs.num_positive - 1)))
    return rs, roots


@settings(max_examples=300, deadline=None)
@given(_type_and_roots())
def test_min_max_match_pairwise_definition(case):
    rs, roots = case
    assert min_elements(rs, roots) == frozenset(
        i for i in roots if not any(j != i and dominance_leq(rs, j, i) for j in roots))
    assert max_elements(rs, roots) == frozenset(
        i for i in roots if not any(j != i and dominance_leq(rs, i, j) for j in roots))


@settings(max_examples=300, deadline=None)
@given(_type_and_roots())
def test_non_orthogonal_pair_matches_pairwise_loop(case):
    rs, roots = case
    items = sorted(roots)
    expected = next(((i, j) for x, i in enumerate(items) for j in items[x + 1:]
                     if not strongly_orthogonal(rs, i, j)), None)
    assert non_orthogonal_pair(rs, roots) == expected


@pytest.mark.parametrize("typ", _TABLE_TYPES)
def test_strongly_orthogonal_pairs_are_orthogonal(typ):
    # non_orthogonal_pair reads orth_masks directly, without the inner-product
    # assertion of strongly_orthogonal, so the invariant is checked here
    rs = build_root_system(typ)
    for i in range(rs.num_positive):
        for j in range(rs.num_positive):
            if rs.orth_masks[i] >> j & 1:
                assert rs.inner(i, j) == 0, (typ, i, j)


def test_min_max_of_abelian_subsets_are_strongly_orthogonal():
    # checked exhaustively at small rank; the acceptance suite goes further
    for typ in ("A3", "B3", "C3", "G2", "D4"):
        rs = build_root_system(typ)
        for ideal in enumerate_abelian_ideals(rs):
            for part in (min_elements(rs, ideal), max_elements(rs, ideal)):
                items = sorted(part)
                for x in range(len(items)):
                    for y in range(x + 1, len(items)):
                        assert strongly_orthogonal(rs, items[x], items[y])


def test_min_max_strongly_orthogonal_for_every_subset_rank5():
    # min(M) and max(M) of an arbitrary M inside an abelian ideal are
    # antichains, and every antichain is min (and max) of itself, so the
    # exhaustive claim over all M reduces to: incomparable pairs inside an
    # abelian ideal are strongly orthogonal
    for typ in ("A5", "B5", "C5", "D5", "A4", "B4", "C4", "D4", "F4", "G2"):
        rs = build_root_system(typ)
        for ideal in enumerate_abelian_ideals(rs):
            items = sorted(ideal)
            for x in range(len(items)):
                for y in range(x + 1, len(items)):
                    i, j = items[x], items[y]
                    if not dominance_leq(rs, i, j) and not dominance_leq(rs, j, i):
                        assert strongly_orthogonal(rs, i, j), (typ, i, j)


def test_root_string_length_bounds():
    # strings have at most 4 roots, at most 2 in the simply-laced types
    for typ, bound in [("A4", 2), ("D5", 2), ("E6", 2),
                       ("B3", 3), ("C3", 3), ("F4", 3), ("G2", 4)]:
        rs = build_root_system(typ)
        for i, alpha in enumerate(rs.positive_roots):
            for j, beta in enumerate(rs.positive_roots):
                if i == j:
                    continue
                count = 1
                for direction in (1, -1):
                    cur = list(beta)
                    while True:
                        cur = [c + direction * a for c, a in zip(cur, alpha)]
                        if not is_root(rs, cur) or all(x == 0 for x in cur):
                            break
                        count += 1
                assert count <= bound, (typ, alpha, beta)


_CLASSICAL = [t for t in all_types(8) if t[0] in "ABCD"]


@pytest.mark.parametrize("typ", _CLASSICAL + ["A40", "D30"])
def test_integer_eps_vectors_have_the_form_as_gram_matrix(typ):
    # (u, v) = dot(u, v) on epsilon space, halved in type C where 2e_n is long
    rs = build_root_system(typ)
    simples = [rs.eps_vectors[i] for i in rs.simple_indices]
    scale = Fraction(1, 2) if rs.type.family == "C" else 1
    assert tuple(tuple(scale * sum(map(mul, u, v)) for v in simples) for u in simples) == rs.form
    for r, vec in zip(rs.positive_roots, rs.eps_vectors):
        assert all(type(x) is int for x in vec)
        assert vec == tuple(sum(c * s[k] for c, s in zip(r, simples)) for k in range(len(vec)))


def test_eps_strings_and_parse_round_trip():
    for typ in _CLASSICAL + ["A40"]:
        rs = build_root_system(typ)
        for i in range(rs.num_positive):
            assert rs.parse_root(rs.eps_string(i)) == i
            assert rs.parse_root("[" + ",".join(map(str, rs.positive_roots[i])) + "]") == i
    rs = build_root_system("E6")
    assert rs.eps_string(0) is None
    with pytest.raises(ValueError):
        rs.parse_root("e1-e2")
    assert rs.parse_root("[1,0,0,0,0,0]") == rs.simple_indices[0]


def test_root_json_shape():
    rs = build_root_system("B2")
    data = rs.root_json(rs.parse_root("e1+e2"))
    assert data == {"coeffs": [1, 2], "eps": "e1+e2"}


def test_root_ordering_deterministic():
    rs = build_root_system("D4")
    order = [(rs.heights[i], rs.positive_roots[i]) for i in range(rs.num_positive)]
    assert order == sorted(order)


def test_vinberg_numbering_remap():
    from borel_orbits.root_system import node_from_bourbaki, node_to_bourbaki
    e7 = build_root_system("E7")
    assert node_to_bourbaki(e7, 1, "vinberg") == 7
    assert node_from_bourbaki(e7, 7, "vinberg") == 1
    e6 = build_root_system("E6")
    assert {node_to_bourbaki(e6, 1, "vinberg"), node_to_bourbaki(e6, 5, "vinberg")} == {1, 6}
    a4 = build_root_system("A4")
    assert node_to_bourbaki(a4, 3, "vinberg") == 3
    assert node_from_bourbaki(a4, 3, "vinberg") == 3
    for typ in ("E6", "E7", "E8", "D5"):
        rs = build_root_system(typ)
        for node in range(1, rs.rank + 1):
            for convention in ("bourbaki", "vinberg"):
                there = node_to_bourbaki(rs, node, convention)
                assert node_from_bourbaki(rs, there, convention) == node
    # both directions refuse an unknown convention and an out-of-range node
    for node, convention in ((7, "foo"), (9, "bourbaki"), (0, "vinberg"), (8, "vinberg")):
        for fn in (node_to_bourbaki, node_from_bourbaki):
            with pytest.raises(ValueError):
                fn(e7, node, convention)
