from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from borel_orbits import build_root_system, is_root, min_elements, orbits, root_system
from borel_orbits.ideals import (
    abelian_nilradicals,
    enumerate_abelian_ideals,
    ideal_from_shape,
    ideal_generated,
    maximal_abelian_ideals,
)
from borel_orbits.orbits import (
    borel_index,
    dim_estimate_report,
    kostant_cascade,
    krull_dims,
    label_counts,
    lower_canonical,
    orbit_dims,
    orbit_record,
    pyasetskii_dual,
    pyasetskii_map,
    pyasetskii_report,
    residual_set,
    shift_down,
    shift_up,
    strongly_orth_subsets,
    upper_canonical,
)
from borel_orbits.suite import all_types


def eps(rs, text):
    return frozenset(rs.parse_root(t) for t in text.split(",") if t)


def labels(rs, roots):
    return sorted(rs.root_label(i) for i in roots)


@pytest.fixture(scope="module")
def a5():
    return build_root_system("A5")


@pytest.fixture(scope="module")
def shape331(a5):
    return ideal_from_shape(a5, [3, 3, 1])


def test_subset_counts(a5, shape331):
    subsets = strongly_orth_subsets(a5, shape331)
    assert len(subsets) == 20
    assert sum(1 for s in subsets if not s) == 1
    assert sum(1 for s in subsets if len(s) == 1) == len(shape331)
    # deterministic order: by size then indices
    keyed = [(len(s), sorted(s)) for s in subsets]
    assert keyed == sorted(keyed)


def test_g2_subsets():
    rs = build_root_system("G2")
    ideal = maximal_abelian_ideals(rs)[0]
    assert [len(s) for s in strongly_orth_subsets(rs, ideal)] == [0, 1, 1, 1]


def size_histogram(subsets):
    sizes = Counter(len(s) for s in subsets)
    return tuple(sizes[k] for k in range(max(sizes) + 1))


def test_label_counts_match_enumeration_up_to_rank_4():
    # the counter itself, and label_counts, which reads a closed form first
    checked = 0
    for typ in all_types(4):
        rs = build_root_system(typ)
        for a in enumerate_abelian_ideals(rs):
            if a:
                subsets = strongly_orth_subsets(rs, a)
                assert orbits._count_labels(rs, a) == label_counts(rs, a) == \
                    size_histogram(subsets), (typ, sorted(a))
                assert subsets == sorted(subsets, key=lambda s: (len(s), sorted(s)))
                checked += 1
    assert checked == 116  # 2^rank - 1 nonzero abelian ideals per type


@st.composite
def _abelian_ideal(draw):
    # every abelian ideal is generated by some roots of a maximal one
    rs = build_root_system(draw(st.sampled_from(all_types(6))))
    top = draw(st.sampled_from(maximal_abelian_ideals(rs)))
    gens = draw(st.sets(st.sampled_from(sorted(top)), min_size=1))
    return rs, ideal_generated(rs, gens)


@settings(max_examples=150, deadline=None)
@given(_abelian_ideal())
def test_label_counts_match_enumeration_on_random_ideals(case):
    rs, ideal = case
    subsets = strongly_orth_subsets(rs, ideal)
    assert orbits._count_labels(rs, ideal) == label_counts(rs, ideal) == size_histogram(subsets)
    assert subsets == sorted(subsets, key=lambda s: (len(s), sorted(s)))


def test_label_counts_of_the_empty_ideal():
    rs = build_root_system("B3")
    assert label_counts(rs, frozenset()) == (1,)
    assert strongly_orth_subsets(rs, frozenset()) == [frozenset()]


def test_enumeration_refuses_more_than_max_labels(a5, shape331, monkeypatch):
    monkeypatch.setattr(orbits, "MAX_LABELS", 20)
    assert len(strongly_orth_subsets(a5, shape331)) == 20
    monkeypatch.setattr(orbits, "MAX_LABELS", 19)
    with pytest.raises(ValueError, match="has 20 orbit labels, more than the 19"):
        strongly_orth_subsets(a5, shape331)
    with pytest.raises(ValueError, match="not abelian"):
        label_counts(a5, frozenset(range(a5.num_positive)))


def test_counting_refuses_more_than_max_count_states(a5, shape331, monkeypatch):
    # the shape (3,3,1) counter fills 14 memo states, the empty mask included
    monkeypatch.setattr(orbits, "MAX_COUNT_STATES", 14)
    assert sum(label_counts(a5, shape331)) == 20
    monkeypatch.setattr(orbits, "MAX_COUNT_STATES", 13)
    for f in (label_counts, strongly_orth_subsets):
        with pytest.raises(ValueError, match="needs more than 13 memo states"):
            f(a5, shape331)


def test_shift_up_examples(a5, shape331):
    assert shift_up(a5, frozenset()) == frozenset()
    assert shift_up(a5, {a5.theta_index}) == frozenset()
    s = eps(a5, "e1-e4,e2-e6")
    assert shift_up(a5, s) == eps(a5, "e1-e5,e1-e6")


def test_shift_down_examples(a5, shape331):
    assert shift_down(a5, shape331, frozenset()) == frozenset()
    # (theta - positives) inside the ideal, computed by hand on the 7 roots
    assert shift_down(a5, shape331, {a5.theta_index}) == \
        eps(a5, "e1-e4,e1-e5,e2-e6,e3-e6")
    d4 = build_root_system("D4")
    a = next(x for x in maximal_abelian_ideals(d4) if len(x) == 5)
    s = min_elements(d4, a)
    assert shift_down(d4, a, s) == frozenset()
    assert orbit_dims(d4, a, s) == (5, 3)


def test_warning_shift_down_is_within_ideal_not_positives(a5, shape331):
    # (S - positives) meets Delta+ in more roots than the ideal keeps
    s = {a5.theta_index}
    inside = shift_down(a5, shape331, s)
    in_positives = a5.diff_rows[a5.theta_index].values()
    assert inside < frozenset(in_positives)


def test_orbit_dims_dense(a5, shape331):
    assert orbit_dims(a5, shape331, frozenset()) == (0, 0)
    cl = lower_canonical(a5, shape331)
    assert orbit_dims(a5, shape331, cl)[0] == len(shape331)
    cu = upper_canonical(a5, shape331)
    assert orbit_dims(a5, shape331, cu)[1] == len(shape331)


def test_canonical_sets_running_example(a5, shape331):
    assert lower_canonical(a5, shape331) == eps(a5, "e2-e4,e3-e6,e1-e5")
    assert upper_canonical(a5, shape331) == eps(a5, "e1-e6,e2-e5")


def test_lower_canonical_g2_and_theta():
    g2 = build_root_system("G2")
    ideal = maximal_abelian_ideals(g2)[0]
    # min is the single root [2,1]; its hooks cover the other two
    assert lower_canonical(g2, ideal) == frozenset([g2.index_of((2, 1))])
    rs = build_root_system("B3")
    assert lower_canonical(rs, frozenset([rs.theta_index])) == \
        frozenset([rs.theta_index])


def test_upper_canonical_rejects_sum_closed_carriers():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        upper_canonical(rs, frozenset(rs.simple_indices))


def test_upper_canonical_on_residual_set(a5, shape331):
    s = eps(a5, "e1-e4,e2-e6")
    j = residual_set(a5, shape331, s)
    assert j == eps(a5, "e2-e4,e2-e5,e3-e6")
    assert upper_canonical(a5, j) == eps(a5, "e2-e5,e3-e6")


@pytest.mark.parametrize("typ,expected", [
    ("A1", ["e1-e2"]),
    ("A5", ["e1-e6", "e2-e5", "e3-e4"]),
    ("C4", ["2e1", "2e2", "2e3", "2e4"]),
    ("B2", ["e1+e2", "e1-e2"]),
])
def test_kostant_cascade(typ, expected):
    rs = build_root_system(typ)
    assert labels(rs, kostant_cascade(rs)) == expected


def test_cascade_restriction_to_ideals():
    for typ in ("A4", "B3", "C3", "D4", "G2", "F4"):
        rs = build_root_system(typ)
        cascade = kostant_cascade(rs)
        for a in enumerate_abelian_ideals(rs):
            if a:
                assert upper_canonical(rs, a) == cascade & a


def test_pyasetskii_extremes(a5, shape331):
    assert pyasetskii_dual(a5, shape331, frozenset()) == \
        upper_canonical(a5, shape331)
    assert pyasetskii_dual(a5, shape331, lower_canonical(a5, shape331)) == frozenset()


def test_pyasetskii_running_example(a5, shape331):
    s = eps(a5, "e1-e4,e2-e6")
    assert pyasetskii_dual(a5, shape331, s) == eps(a5, "e2-e5,e3-e6")


def test_pyasetskii_bijective_small_rank():
    for typ in ("A3", "B3", "C3", "G2", "D4"):
        rs = build_root_system(typ)
        for a in enumerate_abelian_ideals(rs):
            if not a:
                continue
            report = pyasetskii_report(rs, a)
            assert report["bijective"], (typ, sorted(a))


def test_dual_orbit_dimension_lower_bound(a5, shape331):
    # the dual orbit is dense in the annihilator of the tangent space
    for typ in ("A3", "B3", "C3", "G2"):
        rs = build_root_system(typ)
        for a in enumerate_abelian_ideals(rs):
            for s in strongly_orth_subsets(rs, a):
                dual = pyasetskii_dual(rs, a, s)
                da, _ = orbit_dims(rs, a, s)
                _, ds = orbit_dims(rs, a, dual)
                assert ds >= len(a) - da


def test_krull_dims_and_codim1(a5, shape331):
    assert krull_dims(a5, shape331) == (3, 2)
    c2 = build_root_system("C2")
    anr = dict(abelian_nilradicals(c2))[1]
    assert krull_dims(c2, anr) == (2, 2)


def test_borel_index():
    for n in range(2, 9):
        assert borel_index(build_root_system(f"A{n - 1}")) == (n - 1) // 2
    for n in range(2, 7):
        assert borel_index(build_root_system(f"C{n}")) == 0
    assert borel_index(build_root_system("A1")) == 0


def test_dim_estimate():
    a3 = build_root_system("A3")
    # the 2x2 rectangle has the maximal dimension [16/4] = 4
    best = next(a for a in maximal_abelian_ideals(a3) if len(a) == 4)
    est = dim_estimate_report(a3, best)
    assert est.equality and est.cascade_inside
    c3 = build_root_system("C3")
    est = dim_estimate_report(c3, maximal_abelian_ideals(c3)[0])
    assert est.lhs == est.rhs == 12
    g2 = build_root_system("G2")
    est = dim_estimate_report(g2, maximal_abelian_ideals(g2)[0])
    assert (est.lhs, est.rhs, est.equality) == (6, 8, False)


def test_anr_canonical_sets_long_and_equal():
    for typ, node in [("B3", 0), ("C3", 2), ("D4", 0), ("E6", 0)]:
        rs = build_root_system(typ)
        ideal = dict(abelian_nilradicals(rs))[node]
        cl = lower_canonical(rs, ideal)
        cu = upper_canonical(rs, ideal)
        assert len(cl) == len(cu)
        assert all(rs.long[i] for i in cl | cu)


def test_orbit_record_fields(a5, shape331):
    s = eps(a5, "e1-e4,e2-e6")
    rec = orbit_record(a5, shape331, s)
    assert rec.dim_in_a == len(s) + len(rec.m_up)
    assert rec.dim_in_a_star == len(s) + len(rec.m_down)
    assert set(rec.j_set) == set(shape331) - set(rec.orth_set) - set(rec.m_up)
    assert rec.sigma_abs_length == 2
    data = rec.to_json(a5)
    assert data["dual"] == ["e2-e5", "e3-e6"]


def test_orbit_record_checks_its_label_once(a5, shape331, monkeypatch):
    # sigma_S is built from the label that _label has already checked
    calls = []
    real = root_system.non_orthogonal_pair
    monkeypatch.setattr(root_system, "non_orthogonal_pair",
                        lambda rs, roots: calls.append(1) or real(rs, roots))
    orbit_record(a5, shape331, eps(a5, "e1-e4,e2-e6"))
    assert len(calls) == 1
    orbits.weyl.sigma_of_orth_set(a5, eps(a5, "e1-e4,e2-e6"))
    assert len(calls) == 2


def test_pyasetskii_map_full_table(a5, shape331):
    table = pyasetskii_map(a5, shape331)
    assert len(table) == 20
    assert table[frozenset()] == upper_canonical(a5, shape331)


@pytest.mark.parametrize("f", [residual_set, pyasetskii_dual, orbit_dims, orbit_record])
def test_label_functions_refuse_what_is_no_orbit_label(a5, shape331, f):
    # e1-e4 and e1-e5 lie in the ideal but differ by the root e4-e5
    with pytest.raises(ValueError, match="e1-e4 and e1-e5 are not strongly orthogonal"):
        f(a5, shape331, eps(a5, "e1-e4,e1-e5"))
    with pytest.raises(ValueError, match="orbit label must lie inside the ideal"):
        f(a5, shape331, eps(a5, "e1-e2"))


# -- a frozenset reference for the orbit layer, from coefficient tuples ----

def _ref_index(rs, v):
    v = tuple(v)
    return rs.root_index[v] if is_root(rs, v) and v in rs.root_index else None


def _ref_leq(rs, i, j):
    return all(b >= a for a, b in zip(rs.positive_roots[i], rs.positive_roots[j]))


@cache
def _ref_tables(rs):
    # per root, from coefficient tuples only: its shifts by +delta and -delta
    # that are positive roots, and the other roots above and below it
    roots = range(rs.num_positive)
    shifts = {sign: [frozenset(k for d in rs.positive_roots
                               if (k := _ref_index(rs, [a + sign * b for a, b in
                                                        zip(rs.positive_roots[g], d)]))
                               is not None)
                     for g in roots]
              for sign in (1, -1)}
    above = [frozenset(j for j in roots if j != i and _ref_leq(rs, i, j)) for i in roots]
    below = [frozenset(j for j in roots if j != i and _ref_leq(rs, j, i)) for i in roots]
    return shifts, above, below


def _ref_shift(rs, s, sign):
    # gamma + delta (sign 1) or gamma - delta (sign -1) that is a positive root
    return frozenset().union(*(_ref_tables(rs)[0][sign][g] for g in s))


def _ref_peel(rs, carrier, up):
    _, above, below = _ref_tables(rs)
    others = below if up else above
    remaining, result = set(carrier), set()
    while remaining:
        layer = {i for i in remaining if not others[i] & remaining}
        result |= layer
        remaining -= layer | _ref_shift(rs, layer, 1 if up else -1)
    return frozenset(result)


@pytest.mark.parametrize("typ", all_types(4) + ["E6", "E7"])
def test_orbit_layer_matches_frozenset_reference(typ):
    # every abelian ideal at rank <= 4; the E6 node-1 and E7 node-7 nilradicals
    rs = build_root_system(typ)
    if rs.rank <= 4:
        for a in enumerate_abelian_ideals(rs):
            _check_against_reference(rs, a)
    else:
        node = {"E6": 0, "E7": 6}[typ]
        _check_against_reference(rs, dict(abelian_nilradicals(rs))[node])


def _check_against_reference(rs, a):
    ref_lower, ref_upper = _ref_peel(rs, a, up=True), _ref_peel(rs, a, up=False)
    assert lower_canonical(rs, a) == ref_lower
    assert upper_canonical(rs, a) == upper_canonical(rs, frozenset(a)) == ref_upper
    assert krull_dims(rs, a) == (len(ref_lower), len(ref_upper))
    for s in strongly_orth_subsets(rs, a):
        m_up = _ref_shift(rs, s, 1)
        m_down = _ref_shift(rs, s, -1) & a
        j = a - s - m_up
        dual = _ref_peel(rs, j, up=False)
        dims = (len(s) + len(m_up), len(s) + len(m_down))
        rec = orbit_record(rs, a, s)
        assert rec.orth_set == tuple(sorted(s))
        assert (rec.m_up, rec.m_down) == (tuple(sorted(m_up)), tuple(sorted(m_down)))
        assert (rec.j_set, rec.dual) == (tuple(sorted(j)), tuple(sorted(dual)))
        assert (rec.dim_in_a, rec.dim_in_a_star) == orbit_dims(rs, a, s) == dims
        assert residual_set(rs, a, s) == j and pyasetskii_dual(rs, a, s) == dual


@pytest.mark.parametrize("typ", all_types(8))
def test_kostant_cascade_matches_frozenset_reference(typ):
    rs = build_root_system(typ)
    assert kostant_cascade(rs) == _ref_peel(rs, range(rs.num_positive), up=False)


@pytest.mark.parametrize("typ,node", [(t, None) for t in all_types(5)]
                         + [("C8", 7), ("D8", 7), ("E7", 6)])
def test_table_rows_match_reference(typ, node):
    # every abelian ideal at rank <= 5, else the nilradical of the node
    rs = build_root_system(typ)
    ideals = (enumerate_abelian_ideals(rs) if node is None
              else [dict(abelian_nilradicals(rs))[node]])
    for a in ideals:
        labels = orbits._label_masks(rs, a)
        rows = list(orbits._table_rows(rs, a, labels))
        assert [row[0] for row in rows] == labels
        for row in rows:
            ss, m_up, m_down, j, dual = row
            s = frozenset(root_system._bits(ss))
            up = _ref_shift(rs, s, 1)
            assert frozenset(root_system._bits(m_up)) == shift_up(rs, s) == up
            assert frozenset(root_system._bits(m_down)) == shift_down(rs, a, s)
            assert frozenset(root_system._bits(j)) == a - s - up
            assert frozenset(root_system._bits(dual)) == _ref_peel(rs, a - s - up, up=False)
            # a single label's row, from a plain frozenset ideal, is the same row
            assert orbits._label(rs, frozenset(a), s) == row
        assert pyasetskii_map(rs, a) == {s: pyasetskii_dual(rs, a, s)
                                         for s in strongly_orth_subsets(rs, a)}
