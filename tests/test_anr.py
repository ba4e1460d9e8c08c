from fractions import Fraction

import pytest

import borel_orbits
from borel_orbits import anr, build_root_system, min_elements, orbits, weyl
from borel_orbits.anr import (
    anr_ideal,
    anr_nodes,
    anr_statistic,
    c_count,
    closed_form_counts,
    conjecture_check,
    d_count,
    maximal_ideal_report,
    rectangle_count,
    symmetry_bijection,
    w0l_action,
)
from borel_orbits.cli import main
from borel_orbits.ideals import (
    abelian_nilradicals,
    ideal_from_shape,
    maximal_abelian_ideals,
    nilradical_mask,
)
from borel_orbits.orbits import (
    label_counts,
    lower_canonical,
    orbit_dims,
    strongly_orth_subsets,
    upper_canonical,
)
from borel_orbits.suite import all_types


def counter(rs, node):
    # the memoised counter, the oracle of every closed form: label_counts
    # and anr_statistic read the closed forms wherever they apply
    return orbits._count_labels(rs, anr_ideal(rs, node))


def closed_form(rs, node):
    # the counts closed_form_counts finds for a nilradical, checked against the
    # counter; label_counts answers with them
    counts = closed_form_counts(rs, anr_ideal(rs, node))
    assert counts == counter(rs, node) == label_counts(rs, anr_ideal(rs, node)), (rs.type, node)
    return counts


def test_d_count_values():
    assert [sum(d_count(n, k) for k in range(n + 1)) for n in range(1, 8)] == \
        [1, 2, 4, 10, 26, 76, 232]
    assert d_count(4, 2) == 3
    assert all(d_count(n, 0) == 1 for n in range(8))
    with pytest.raises(ValueError):
        d_count(-1, 0)


def test_d_count_against_enumeration():
    rs = build_root_system("D4")
    labels = strongly_orth_subsets(rs, anr_ideal(rs, 3))
    sizes = [sum(len(s) == k for s in labels) for k in range(3)]
    assert sizes == [d_count(4, k) for k in range(3)] == [1, 6, 3]
    assert anr_statistic(rs, 3).counts == tuple(sizes)


def test_c_count_values():
    assert [sum(c_count(n, k) for k in range(n + 1)) for n in range(1, 7)] == \
        [2, 5, 14, 43, 142, 499]
    assert c_count(2, 1) == 3
    assert all(c_count(n, 0) == 1 for n in range(8))
    for n in range(1, 13):
        for k in range(n + 1):
            assert c_count(n, k) == c_count(n, n - k)


def test_rectangle_count_values():
    assert rectangle_count(1, 1, 1) == 1
    assert rectangle_count(2, 3, 2) == 6
    assert sum(rectangle_count(3, 3, k) for k in range(4)) == 34
    assert rectangle_count(2, 3, 3) == 0
    with pytest.raises(ValueError):
        rectangle_count(0, 1, 0)


def test_rectangle_against_enumeration():
    # node 2 of A5 is the 2x4 rectangle
    rs = build_root_system("A5")
    labels = strongly_orth_subsets(rs, anr_ideal(rs, 1))
    sizes = [sum(len(s) == k for s in labels) for k in range(3)]
    assert sizes == [rectangle_count(2, 4, k) for k in range(3)]
    assert anr_statistic(rs, 1).counts == tuple(sizes)


# the counter reaches ranks whose labels are too many to list
# (C12 has 2,430,355, above orbits.MAX_LABELS)

def test_c_count_closed_form_to_rank_12():
    for n in range(2, 13):
        counts = closed_form(build_root_system(f"C{n}"), n - 1)
        assert counts == tuple(c_count(n, k) for k in range(n + 1)), n


def test_b_and_d_closed_forms_to_rank_12():
    for n in range(2, 13):
        assert anr_statistic(build_root_system(f"B{n}"), 0).counts == (1, 2 * n - 1, n - 1)
    for n in range(3, 13):
        rs = build_root_system(f"D{n}")
        assert anr_statistic(rs, 0).counts == (1, 2 * n - 2, n - 1)
        for node in (n - 2, n - 1):
            counts = closed_form(rs, node)
            assert counts == tuple(d_count(n, k) for k in range(n // 2 + 1)), (n, node)


def test_rectangle_closed_form_to_rank_12():
    for n in range(1, 13):
        rs = build_root_system(f"A{n}")
        for node in range(n):
            m, k = node + 1, n - node
            counts = closed_form(rs, node)
            assert counts == tuple(rectangle_count(m, k, j) for j in range(min(m, k) + 1)), \
                (n, node)


def test_twelve_by_twelve_square():
    # OEIS A002720: sum_k k! C(12,k)^2
    counts = closed_form(build_root_system("A23"), 11)
    assert counts == tuple(rectangle_count(12, 12, k) for k in range(13))
    assert sum(counts) == 53_334_454_417


def test_closed_forms_cover_only_a_c_and_d_spinor_nilradicals():
    cases = [(f"B{n}", 0) for n in range(2, 8)] + [(f"D{n}", 0) for n in range(3, 8)]
    cases += [("E6", 0), ("E6", 5), ("E7", 6)]
    for typ, node in cases:
        rs = build_root_system(typ)
        assert closed_form_counts(rs, anr_ideal(rs, node)) is None, (typ, node)
        assert anr_statistic(rs, node).counts == counter(rs, node)
    rs = build_root_system("A5")
    assert closed_form_counts(rs, ideal_from_shape(rs, [3, 3, 1])) is None
    # the mask decides, not how the ideal was given: shape 3,3,3 is node 3
    assert closed_form_counts(rs, ideal_from_shape(rs, [3, 3, 3])) == (1, 9, 18, 6)
    with pytest.raises(ValueError):
        closed_form_counts(rs, frozenset(range(rs.num_positive)))


def test_closed_forms_count_rank_30_and_40_without_the_counter(monkeypatch):
    def refuse(*args):
        raise AssertionError("the counter ran")

    monkeypatch.setattr(orbits, "_count_labels", refuse)
    for typ, node, total in [("A40", 19, 8_281_153_039_765_859_726_341),
                             ("C30", 29, 75_200_136_212_985_945_619),
                             ("D30", 29, 606_917_269_909_048_576)]:
        table = anr_statistic(build_root_system(typ), node)
        assert table.total == total, typ
        assert table.counts[0] == 1 and table.counts[-1] > 0


def test_counting_enumerates_no_label(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("orbit labels were enumerated")

    for module in (orbits, anr):
        monkeypatch.setattr(module, "_label_masks", refuse)
    rs = build_root_system("C5")
    assert anr_statistic(rs, 4).counts == tuple(c_count(5, k) for k in range(6))
    assert main(["count-anr", "C5"]) == 0
    assert capsys.readouterr().out == "C5 alpha_5: 1 15 55 55 15 1 | 142\n"
    assert main(["orbits", "C5", "--anr", "5", "--count"]) == 0
    assert capsys.readouterr().out == "142\n"


@pytest.mark.parametrize("typ,node,counts,total", [
    ("B2", 0, (1, 3, 1), 5),
    ("B5", 0, (1, 9, 4), 14),
    ("D6", 0, (1, 10, 5), 16),
    ("E6", 0, (1, 16, 40), 57),
    ("E6", 5, (1, 16, 40), 57),
    ("E7", 6, (1, 27, 135, 45), 208),
    ("C4", 3, (1, 10, 21, 10, 1), 43),
])
def test_anr_tables(typ, node, counts, total):
    rs = build_root_system(typ)
    table = anr_statistic(rs, node)
    assert table.counts == counts
    assert table.total == total
    assert table.to_json()["node"] == node + 1


def test_anr_statistic_rejects_bad_node():
    rs = build_root_system("B3")
    with pytest.raises(ValueError):
        anr_statistic(rs, 2)
    with pytest.raises(ValueError):
        anr_ideal(build_root_system("G2"), 0)


def test_nilradical_is_built_once_per_node(monkeypatch):
    rs = build_root_system("C6")
    calls = []

    def counted(rs_, node):
        calls.append((rs_.type, node))
        return nilradical_mask(rs_, node)

    monkeypatch.setattr(anr, "nilradical_mask", counted)
    anr_ideal.cache_clear()
    labels = strongly_orth_subsets(rs, anr_ideal(rs, 5))
    for s in labels:
        symmetry_bijection(rs, s)
        w0l_action(rs, 5, s)
    assert len(labels) == 499 and len(calls) == 1
    assert anr_ideal(rs, 5) is anr_ideal(rs, 5)
    # a node without an abelian nilradical is refused on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="alpha_1 is not an abelian-nilradical node"):
            anr_ideal(rs, 0)


# every type of rank <= 8, and two types far above the listing limits
@pytest.mark.parametrize("typ", all_types(8) + ["A40", "D30"])
def test_nilradical_rows_match_coefficient_one_roots(typ):
    # nilradical_mask reads one row of up_masks; the nilradical of a node is
    # defined as the roots whose coefficient at the node is 1
    rs = build_root_system(typ)
    nodes = [node for node in range(rs.rank) if rs.theta[node] == 1]
    assert anr_nodes(rs) == nodes
    listed = abelian_nilradicals(rs)
    assert [node for node, _ in listed] == nodes
    anr_ideal.cache_clear()
    for node, ideal in listed:
        defined = frozenset(i for i, r in enumerate(rs.positive_roots) if r[node] == 1)
        assert nilradical_mask(rs, node) == ideal.mask == sum(1 << i for i in defined)
        built = anr_ideal(rs, node)
        assert built == ideal == defined and built.mask == ideal.mask and built.rs is rs
    for node in set(range(-1, rs.rank + 1)) - set(nodes):
        with pytest.raises(ValueError, match=f"alpha_{node + 1} is not an abelian-nilradical "
                                             f"node of {rs.type}; valid nodes: "):
            anr_ideal(rs, node)


def test_symmetry_bijection_c2():
    rs = build_root_system("C2")
    empty = frozenset()
    image = symmetry_bijection(rs, empty)
    assert image == frozenset({rs.parse_root("2e1"), rs.parse_root("2e2")})
    short = frozenset({rs.parse_root("e1+e2")})
    assert symmetry_bijection(rs, short) == short
    for s in strongly_orth_subsets(rs, anr_ideal(rs, 1)):
        assert symmetry_bijection(rs, symmetry_bijection(rs, s)) == s


def _symmetry_bijection_from_labels(rs, s):
    """symmetry_bijection read off the epsilon labels: 2ei is long, ei+ej short."""
    used = set()
    out = set()
    for g in s:
        eps = rs.eps_string(g)
        if eps.startswith("2e"):
            used.add(int(eps[2:]))
        else:
            i, j = eps.split("+")
            used.update((int(i[1:]), int(j[1:])))
            out.add(g)
    out.update(rs.parse_root(f"2e{i}") for i in range(1, rs.rank + 1) if i not in used)
    return frozenset(out)


@pytest.mark.parametrize("n", range(2, 9))
def test_symmetry_bijection_matches_the_label_strings(n):
    rs = build_root_system(f"C{n}")
    for s in strongly_orth_subsets(rs, anr_ideal(rs, n - 1)):
        assert symmetry_bijection(rs, s) == _symmetry_bijection_from_labels(rs, s), s


def test_symmetry_bijection_refuses_what_is_no_orbit_label():
    # e1+e2 - 2e1 = e2-e1 is a root, so this pair would map to the two roots
    # {2e3, e1+e2} where n - k = 1 is due; the label functions refuse it too
    rs = build_root_system("C3")
    s = frozenset(rs.parse_root(x) for x in ("2e1", "e1+e2"))
    msg = "e1\\+e2 and 2e1 are not strongly orthogonal"
    with pytest.raises(ValueError, match=msg):
        symmetry_bijection(rs, s)
    with pytest.raises(ValueError, match=msg):
        orbit_dims(rs, anr_ideal(rs, 2), s)


def test_symmetry_bijection_sizes_n5():
    rs = build_root_system("C5")
    ideal = anr_ideal(rs, 4)
    for s in strongly_orth_subsets(rs, ideal):
        assert len(symmetry_bijection(rs, s)) == 5 - len(s)


def test_only_c_series_is_symmetric():
    # palindromic count sequences occur only for the symplectic nilradical
    # (B2 realises C2, so it joins); the k = 0 term is what breaks the
    # near-misses such as the D6 spinor counts (1, 15, 45, 15)
    symmetric = set()
    for n in range(1, 7):
        for fam in "ABCD":
            if (fam == "A" and n < 1) or (fam in "BC" and n < 2) or (fam == "D" and n < 3):
                continue
            rs = build_root_system(f"{fam}{n}")
            for node in anr_nodes(rs):
                counts = list(anr_statistic(rs, node).counts)
                if counts == counts[::-1]:
                    symmetric.add((f"{fam}{n}", node))
    rs = build_root_system("E6")
    for node in anr_nodes(rs):
        counts = list(anr_statistic(rs, node).counts)
        assert counts != counts[::-1]
    # A1 and B2 coincide with C1 and C2, so their nilradicals qualify too
    assert symmetric == {("A1", 0), ("B2", 0)} | \
        {(f"C{n}", n - 1) for n in range(2, 7)}


def test_w0l_action_basics():
    rs = build_root_system("D4")
    node = 0
    ideal = anr_ideal(rs, node)
    alpha = frozenset([rs.simple_indices[node]])
    assert w0l_action(rs, node, frozenset([rs.theta_index])) == alpha
    assert w0l_action(rs, node, frozenset()) == frozenset()
    assert w0l_action(rs, node, upper_canonical(rs, ideal)) == \
        lower_canonical(rs, ideal)


def test_w0l_action_involution_and_dims():
    for typ, node in [("A4", 1), ("B3", 0), ("C3", 2), ("D4", 2), ("E6", 0)]:
        rs = build_root_system(typ)
        ideal = anr_ideal(rs, node)
        for s in strongly_orth_subsets(rs, ideal):
            image = w0l_action(rs, node, s)
            assert len(image) == len(s)
            assert w0l_action(rs, node, image) == s
            # the poset isomorphism swaps primal and dual dimensions
            da, _ = orbit_dims(rs, ideal, s)
            _, ds = orbit_dims(rs, ideal, image)
            assert da == ds


def test_conjecture_check_small_cases_clean():
    for typ, node in [("C2", 1), ("A3", 0), ("A3", 1), ("B3", 0), ("D4", 0),
                      ("D4", 2), ("C3", 2)]:
        rs = build_root_system(typ)
        rep = conjecture_check(rs, node)
        assert rep.ok(), (typ, node)
        assert len(rep.rows) == anr_statistic(rs, node).total
        data = rep.to_json(rs)
        assert data["status"] == "evidence"
        assert data["ok"]


def test_conjecture_dense_orbit_row():
    for typ, node in [("B4", 0), ("C4", 3), ("D5", 4), ("E6", 0)]:
        rs = build_root_system(typ)
        ideal = anr_ideal(rs, node)
        rep = conjecture_check(rs, node)
        cu = tuple(sorted(upper_canonical(rs, ideal)))
        row = next(r for r in rep.rows if r.orth_set == cu)
        assert row.dim_actual == len(ideal)
        assert row.match


def test_conjecture_check_rejects_non_anr_node():
    rs = build_root_system("B3")
    with pytest.raises(ValueError):
        conjecture_check(rs, 1)


def test_maximal_ideal_report_d4():
    rs = build_root_system("D4")
    a = next(x for x in maximal_abelian_ideals(rs) if len(x) == 5)
    rep = maximal_ideal_report(rs, a)
    assert not rep.ok()
    s = tuple(sorted(min_elements(rs, a)))
    row = next(r for r in rep.rows if r.orth_set == s)
    assert row.sigma_length == 11
    assert row.sigma_abs_length == 3
    assert row.dim_actual == 3
    assert row.formula_value == 7
    assert not row.match
    assert s in rep.formula_violations


def test_maximal_ideal_report_rejects_anr():
    rs = build_root_system("D4")
    anr6 = dict(abelian_nilradicals(rs))[0]
    with pytest.raises(ValueError):
        maximal_ideal_report(rs, anr6)
    with pytest.raises(ValueError):
        maximal_ideal_report(rs, frozenset([rs.theta_index]))


def test_maximal_ideal_report_tests_only_its_ideal(monkeypatch):
    # maximality is decided on the one ideal given; no ideal is listed, and
    # the errors come in the same order as before
    def refuse(rs):
        raise AssertionError("the report listed abelian ideals")

    monkeypatch.setattr(borel_orbits.ideals, "enumerate_abelian_ideals", refuse)
    monkeypatch.setattr(borel_orbits.ideals, "maximal_abelian_ideals", refuse)
    rs = build_root_system("D4")
    eps = rs.parse_root
    five = borel_orbits.ideal_generated(rs, [eps("e1-e4"), eps("e1+e4"), eps("e2+e3")])
    assert maximal_ideal_report(rs, five).formula_violations
    for bad, message in [
        (frozenset([eps("e1-e2")]), "input is not an abelian ideal"),
        (frozenset(range(rs.num_positive)), "input is not an abelian ideal"),
        (frozenset([rs.theta_index]), "input is not a maximal abelian ideal"),
        (five - {eps("e1-e4")}, "input is not a maximal abelian ideal"),
        (dict(abelian_nilradicals(rs))[0], "input is an abelian nilradical; use conjecture_check"),
    ]:
        with pytest.raises(ValueError) as exc:
            maximal_ideal_report(rs, bad)
        assert str(exc.value) == message


@pytest.mark.parametrize("argv", [
    ["conjecture-check", "E7", "--node", "7"],
    ["conjecture-check", "D4", "--ideal", "e1-e4,e1+e4,e2+e3"],
])
def test_report_counts_its_labels_once(monkeypatch, capsys, argv):
    # neither ideal has a closed form, so its count runs the counter; the
    # report's cap check and its label walk share that one count
    calls = []
    count = orbits._count_labels
    monkeypatch.setattr(orbits, "_count_labels",
                        lambda *args: calls.append(args) or count(*args))
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


# -- the Bruhat closure of the report against pairwise lifting ---------------

def _closure_cases():
    """Every nilradical and maximal abelian ideal up to rank 5, C6, D7 and two of E6.

    node is the nilradical's node, None the largest maximal abelian ideal
    that is not a nilradical, or "max<k>" entry k of maximal_abelian_ideals
    for the other non-nilradical ones.
    """
    cases = []
    for typ in all_types(5) + ["C6", "D7"]:
        rs = build_root_system(typ)
        cases.extend((typ, node) for node in anr_nodes(rs))
        nilradicals = [a for _, a in abelian_nilradicals(rs)]
        maximal = maximal_abelian_ideals(rs)
        others = [k for k, a in enumerate(maximal) if a not in nilradicals]
        if others:
            largest = max(others, key=lambda k: len(maximal[k]))
            cases.extend((typ, None if k == largest else f"max{k}") for k in others)
    return cases + [("E6", 0), ("E6", 5)]


def _case_ideal(rs, node):
    if node is None:
        return _non_nilradical(rs)
    if isinstance(node, str):
        return maximal_abelian_ideals(rs)[int(node[3:])]
    return anr_ideal(rs, node)


def _non_nilradical(rs):
    nilradicals = [a for _, a in abelian_nilradicals(rs)]
    return max((a for a in maximal_abelian_ideals(rs) if a not in nilradicals), key=len)


def _pairwise_parts(rs, ideal):
    """Monotonicity, cover and subset lists by lifting every pair of involutions."""
    subsets = strongly_orth_subsets(rs, ideal)
    sigma = {s: weyl.sigma_of_orth_set(rs, s).element for s in subsets}
    ell = {s: weyl.length(rs, sigma[s]) for s in subsets}
    dim = {s: orbit_dims(rs, ideal, s)[1] for s in subsets}
    reps = sorted({sigma[s]: min(sorted(t) for t in subsets if sigma[t] == sigma[s])
                   for s in subsets}.values(), key=lambda t: (ell[frozenset(t)], t))
    reps = [frozenset(t) for t in reps]
    m = len(reps)
    # w outermost, so that weyl's one-entry descent-chain cache hits
    leq = [list(row) for row in zip(*([weyl.bruhat_leq(rs, sigma[u], sigma[w]) for u in reps]
                                      for w in reps))]
    index = {sigma[s]: k for k, s in enumerate(reps)}
    mono = [(tuple(sorted(a)), tuple(sorted(b))) for a in subsets for b in subsets
            if index[sigma[a]] != index[sigma[b]] and leq[index[sigma[a]]][index[sigma[b]]]
            and dim[a] >= dim[b]]
    # i < j is a cover iff i and j are all that lies above i and below j
    above = [sum(1 << k for k in range(m) if leq[i][k]) for i in range(m)]
    below = [sum(1 << k for k in range(m) if leq[k][j]) for j in range(m)]
    covers = [(tuple(sorted(reps[i])), tuple(sorted(reps[j])))
              for i in range(m) for j in range(m) if i != j and leq[i][j]
              and above[i] & below[j] == 1 << i | 1 << j]
    subset = [(tuple(sorted(s - {g})), tuple(sorted(s))) for s in subsets for g in s
              if not leq[index[sigma[s - {g}]]][index[sigma[s]]]]
    return reps, sigma, ell, leq, mono, covers, subset


@pytest.mark.parametrize("typ,node", _closure_cases())
def test_bruhat_closure_matches_pairwise_lifting(typ, node):
    rs = build_root_system(typ)
    ideal = _case_ideal(rs, node)
    reps, sigma, ell, leq, mono, covers, subset = _pairwise_parts(rs, ideal)
    elements = [sigma[s] for s in reps]
    lower = anr._bruhat_lower_sets(rs, reps, elements, [ell[s] for s in reps])
    assert [[lower[w] >> u & 1 == 1 for w in range(len(reps))]
            for u in range(len(reps))] == leq
    # the weight filter never drops a pair that lifting accepts; in type A
    # it decides the order, and so does the signed-permutation vector in B and C
    drops = [anr._weight_drop(rs, s) for s in reps]
    vectors = None
    if rs.type.family == "A":
        vectors = drops
    elif rs.type.family in "BC":
        vectors = [anr._signed_permutation_vector(rs, w) for w in elements]
    for u, row in enumerate(leq):
        for w, related in enumerate(row):
            if related:
                assert all(a <= b for a, b in zip(drops[u], drops[w])), (u, w)
            if vectors is not None:
                assert all(a <= b for a, b in zip(vectors[u], vectors[w])) == related, (u, w)
    rep = (conjecture_check(rs, node) if isinstance(node, int)
           else maximal_ideal_report(rs, ideal))
    assert rep.monotonicity_violations == mono
    assert rep.covers == covers
    assert rep.subset_violations == subset


def test_weight_drop_is_the_fundamental_weight_drop():
    # <w_i - sigma(w_i), alpha_j^vee> = delta_ij - <w_i, sigma(alpha_j)^vee>,
    # read off the involution's matrix on simple-root coordinates
    for typ, node in [("B4", 0), ("C4", 3), ("D5", 4), ("E6", 0), ("F4", None), ("G2", None)]:
        rs = build_root_system(typ)
        ideal = anr_ideal(rs, node) if node is not None else _non_nilradical(rs)
        n = rs.rank
        norms = [rs.root_norms[k] for k in rs.simple_indices]
        for s in strongly_orth_subsets(rs, ideal):
            drop = anr._weight_drop(rs, s)
            matrix = weyl.sigma_of_orth_set(rs, s).element.matrix
            for i in range(n):
                for j in range(n):
                    assert rs.cartan_pairing(drop[i * n:(i + 1) * n], j) == \
                        (i == j) - matrix[i][j] * norms[i] / norms[j], (typ, s, i, j)


def test_report_lifts_few_pairs(monkeypatch):
    # pairwise lifting made 120,768 bruhat_leq calls on the C6 nilradical;
    # types A, B and C are decided by their order vectors, D to G still lift
    calls = []
    lift = weyl.bruhat_leq
    monkeypatch.setattr(weyl, "bruhat_leq", lambda *args: calls.append(1) or lift(*args))
    rep = conjecture_check(build_root_system("C6"), 5)
    assert rep.ok() and len(rep.rows) == 499
    assert len(calls) == 0
    rep = conjecture_check(build_root_system("A7"), 3)   # the 4 x 4 rectangle
    assert rep.ok() and len(rep.rows) == 209
    assert len(calls) == 0
    b5 = build_root_system("B5")
    maximal_ideal_report(b5, _non_nilradical(b5))
    assert len(calls) == 0
    rep = conjecture_check(build_root_system("D6"), 5)
    assert rep.ok() and len(calls) >= 1


def _group(rs):
    """Every element of W: the identity closed under right simple reflections."""
    gens = [weyl.reflection(rs, a) for a in rs.simple_indices]
    seen = {weyl.identity(rs)}
    frontier = list(seen)
    while frontier:
        frontier = [x for x in {w * g for w in frontier for g in gens} if x not in seen]
        seen.update(frontier)
    return seen


# the simple roots in epsilon coordinates (Bourbaki, Plates II and III)
_EPS_SIMPLES = {
    "B4": [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1)],
    "C4": [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 2)],
}


@pytest.mark.parametrize("typ", sorted(_EPS_SIMPLES))
def test_signed_permutation_vector_from_the_matrix(typ):
    # e_k is alpha_k + ... + alpha_{n-1} plus alpha_n, halved in type C; w's
    # matrix sends it to +-e_c, so p(n+1-k) = +-(n+1-c) on the relabelled
    # coordinates, and the counts follow from their definition
    rs = build_root_system(typ)
    n = rs.rank
    simples = _EPS_SIMPLES[typ]
    last = Fraction(1, 2) if rs.type.family == "C" else 1
    e = [[0] * k + [1] * (n - 1 - k) + [last] for k in range(n)]
    group = _group(rs)
    assert len(group) == 2 ** n * 24
    for w in group:
        m = w.matrix
        p = {}
        for k in range(n):
            coeffs = [sum(m[i][j] * e[k][j] for j in range(n)) for i in range(n)]
            image = [sum(c * a[col] for c, a in zip(coeffs, simples)) for col in range(n)]
            (c, v), = [(c, v) for c, v in enumerate(image) if v]
            p[n - k] = int(v) * (n - c)
            p[k - n] = -p[n - k]
        expected = tuple(sum(1 for a in p if a <= i and p[a] >= j)
                         for i in range(-n, 0) for j in range(1 - n, n + 1) if j)
        assert anr._signed_permutation_vector(rs, w) == expected, (typ, w.images)


@pytest.mark.parametrize("typ", ["B2", "C2", "B3", "C3"])
def test_signed_permutation_vector_decides_bruhat_on_the_group(typ):
    rs = build_root_system(typ)
    group = list(_group(rs))
    vectors = [anr._signed_permutation_vector(rs, w) for w in group]
    for w, vw in zip(group, vectors):
        for u, vu in zip(group, vectors):
            assert all(a <= b for a, b in zip(vu, vw)) == weyl.bruhat_leq(rs, u, w)
