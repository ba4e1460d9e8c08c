import itertools
import random
import re
from fractions import Fraction
from math import factorial

import pytest

from borel_orbits import build_root_system
from borel_orbits.chevalley import (
    StructureTable,
    ad_exp_action,
    bracket,
    build_structure_table,
    coad_exp_action,
)
from borel_orbits.ideals import abelian_nilradicals, enumerate_abelian_ideals


def test_a2_constants():
    rs = build_root_system("A2")
    table = build_structure_table(rs)
    a1, a2 = rs.simple_indices
    assert abs(table.structure_constant(1, a1, 1, a2)) == 1  # p = 0 since a2 - a1 is no root
    assert table.structure_constant(1, a1, 1, rs.theta_index) == 0


def test_g2_string_magnitudes():
    rs = build_root_system("G2")
    table = build_structure_table(rs)
    a = rs.index_of((1, 0))
    ab = rs.index_of((1, 1))
    a2b = rs.index_of((2, 1))
    assert abs(table.structure_constant(1, a, 1, ab)) == 2   # (a+b) - a = b, -2a no root: p = 1
    assert abs(table.structure_constant(1, a, 1, a2b)) == 3  # string of length 3 below 2a+b


def test_magnitude_profile():
    for typ, mags in [("A3", {1}), ("D4", {1}), ("B3", {1, 2}),
                      ("C3", {1, 2}), ("F4", {1, 2}), ("G2", {1, 2, 3})]:
        rs = build_root_system(typ)
        table = build_structure_table(rs)
        assert {abs(n) for n in table._pos.values()} == mags


def test_magnitudes_are_p_plus_one():
    for typ in ("B3", "G2", "F4"):
        rs = build_root_system(typ)
        table = build_structure_table(rs)
        for (i, j), n in table._pos.items():
            assert abs(n) == table.p_value(i, j) + 1


_TABLE_TYPES = [f"{f}{n}" for f in "ABCD" for n in range(1, 9)
                if not (f in "BC" and n < 2) and not (f == "D" and n < 3)]
_TABLE_TYPES += ["E6", "E7", "E8", "F4", "G2"]


def _reference_p_value(rs, i, j):
    # walk root_j - k * root_i through coefficient tuples, either sign
    a = rs.positive_roots[i]
    cur = list(rs.positive_roots[j])
    p = 0
    while True:
        cur = [x - y for x, y in zip(cur, a)]
        t = tuple(cur)
        if t in rs.root_index or tuple(-x for x in t) in rs.root_index:
            p += 1
        else:
            return p


def _reference_pos(table, i, j):
    return table._pos[(i, j)] if i < j else -table._pos[(j, i)]


def _reference_constant(table, sa, ia, sb, ib):
    # the recursive rule over the same positive table, in Fractions
    rs = table.rs
    if sa > 0 and sb > 0:
        return _reference_pos(table, ia, ib) if rs.sum_index[ia][ib] >= 0 else 0
    if sa < 0 and sb < 0:
        return -_reference_constant(table, 1, ia, 1, ib)
    if sa < 0:
        return -_reference_constant(table, sb, ib, sa, ia)
    # sa = +1, sb = -1: the cyclic rule on a zero-sum triple
    if rs.diff_index[ia][ib] >= 0:
        c = rs.diff_index[ia][ib]
        val = -_reference_pos(table, ib, c) * Fraction(rs.root_norms[c], rs.root_norms[ia])
    elif rs.diff_index[ib][ia] >= 0:
        c = rs.diff_index[ib][ia]
        val = _reference_pos(table, c, ia) * Fraction(rs.root_norms[c], rs.root_norms[ib])
    else:
        return 0
    assert val.denominator == 1
    return int(val)


@pytest.mark.parametrize("typ", _TABLE_TYPES)
def test_string_formula_p_value_matches_tuple_walk(typ):
    rs = build_root_system(typ)
    table = build_structure_table(rs)
    for i in range(rs.num_positive):
        for j in range(rs.num_positive):
            assert table.p_value(i, j) == _reference_p_value(rs, i, j), (i, j)


@pytest.mark.parametrize("typ", _TABLE_TYPES)
def test_signed_constants_match_recursive_reference(typ):
    rs = build_root_system(typ)
    for base_sign in (1, -1):
        table = build_structure_table(rs, base_sign)
        for sa, sb in itertools.product((1, -1), repeat=2):
            for ia in range(rs.num_positive):
                for ib in range(rs.num_positive):
                    if ia == ib and sa != sb:
                        continue
                    assert table.structure_constant(sa, ia, sb, ib) == \
                        _reference_constant(table, sa, ia, sb, ib), (base_sign, sa, ia, sb, ib)


def _reference_target(rs, s1, g1, s2, g2):
    # s1 * root_g1 + s2 * root_g2 through coefficient tuples, either sign
    vec = tuple(s1 * a + s2 * b for a, b in zip(rs.positive_roots[g1], rs.positive_roots[g2]))
    if vec in rs.root_index:
        return 1, rs.root_index[vec]
    neg = tuple(-v for v in vec)
    if neg in rs.root_index:
        return -1, rs.root_index[neg]
    return None


@pytest.mark.parametrize("typ", _TABLE_TYPES)
def test_bracket_targets_match_tuple_lookup(typ):
    rs = build_root_system(typ)
    table = build_structure_table(rs)
    signed = [(s, g) for s in (1, -1) for g in range(rs.num_positive)]
    for (s1, g1), (s2, g2) in itertools.product(signed, repeat=2):
        if g1 == g2 and s1 != s2:
            continue
        target = _reference_target(rs, s1, g1, s2, g2)
        expected = {} if target is None else \
            {("e", *target): table.structure_constant(s1, g1, s2, g2)}
        assert bracket(table, {("e", s1, g1): 1}, {("e", s2, g2): 1}) == expected


def test_antisymmetry_of_signed_constants():
    rs = build_root_system("B3")
    table = build_structure_table(rs)
    for sa, sb in itertools.product((1, -1), repeat=2):
        for ia in range(rs.num_positive):
            for ib in range(rs.num_positive):
                if ia == ib:
                    continue
                vec = tuple(sa * x + sb * y for x, y in
                            zip(rs.positive_roots[ia], rs.positive_roots[ib]))
                if vec in rs.root_index or tuple(-v for v in vec) in rs.root_index:
                    assert table.structure_constant(sa, ia, sb, ib) == \
                        -table.structure_constant(sb, ib, sa, ia)


def _basis(rs):
    out = [{("h", i): Fraction(1)} for i in range(rs.rank)]
    out += [{("e", s, g): Fraction(1)} for s in (1, -1) for g in range(rs.num_positive)]
    return out


def _add_into(total, d):
    for k, v in d.items():
        total[k] = total.get(k, 0) + v


@pytest.mark.parametrize("typ", [
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "B5", "B6",
    "C3", "C4", "C5", "C6",
    "D4", "D5", "D6",
    "E6", "F4", "G2",
])
def test_jacobi_identity_exhaustive(typ):
    rs = build_root_system(typ)
    table = build_structure_table(rs)
    basis = _basis(rs)
    for x, y, z in itertools.combinations(basis, 3):
        total = {}
        _add_into(total, bracket(table, bracket(table, x, y), z))
        _add_into(total, bracket(table, bracket(table, y, z), x))
        _add_into(total, bracket(table, bracket(table, z, x), y))
        assert all(v == 0 for v in total.values()), (typ, x, y, z)


@pytest.mark.parametrize("typ", _TABLE_TYPES)
def test_chain_coefficients_are_integers(typ):
    # Chevalley: (ad e_delta)^k / k! is integral on the basis; walk each
    # delta-string through coefficient tuples and multiply the constants
    rs = build_root_system(typ)
    table = build_structure_table(rs)
    for up, sign in ((True, 1), (False, -1)):
        for delta in range(rs.num_positive):
            step = rs.positive_roots[delta]
            for src, chain in enumerate(table.chain(delta, up)):
                cur, prod, k = src, 1, 0
                while True:
                    nxt = rs.root_index.get(tuple(
                        a + sign * b for a, b in zip(rs.positive_roots[cur], step)))
                    if nxt is None:
                        break
                    prod *= table.structure_constant(1, delta, sign, cur)
                    cur, k = nxt, k + 1
                    tgt, coeff, kk = chain[k - 1]
                    assert (tgt, kk) == (cur, k)
                    assert type(coeff) is int and coeff == Fraction(prod, factorial(k))
                assert len(chain) == k


def test_non_integral_chain_coefficient_is_refused():
    # with every constant 1, the k = 2 terms of B2's long strings are 1/2
    class UnitConstants(StructureTable):
        def structure_constant(self, sa, ia, sb, ib):
            return 1

    with pytest.raises(AssertionError,
                       match=re.escape("exp(ad) chain coefficient is not an integer")):
        UnitConstants(build_root_system("B2"))


def test_coroot_coefficients_are_integers():
    for typ in ("B3", "C3", "G2", "F4"):
        rs = build_root_system(typ)
        for g in range(rs.num_positive):
            coeffs = rs.coroots[g]
            assert all(isinstance(c, int) for c in coeffs)


def test_ad_exp_trivial_cases():
    rs = build_root_system("A2")
    table = build_structure_table(rs)
    ideal = frozenset([rs.theta_index, rs.simple_indices[0]])
    v = {rs.simple_indices[0]: Fraction(2, 3)}
    assert ad_exp_action(table, rs.simple_indices[1], Fraction(0), v, ideal) == v
    # gamma + delta not a root: vector unchanged
    assert ad_exp_action(table, rs.simple_indices[0], Fraction(5), v, ideal) == v


def test_ad_exp_single_bracket_a2():
    rs = build_root_system("A2")
    table = build_structure_table(rs)
    a1, a2 = rs.simple_indices
    ideal = frozenset([rs.theta_index, a1])
    v = {a1: Fraction(1)}
    out = ad_exp_action(table, a2, Fraction(1), v, ideal)
    n = table.structure_constant(1, a2, 1, a1)
    assert out == {a1: Fraction(1), rs.theta_index: Fraction(n)}


def test_one_parameter_subgroup_law():
    rng = random.Random(7)
    for typ in ("B3", "G2", "C3"):
        rs = build_root_system(typ)
        table = build_structure_table(rs)
        ideal = max(enumerate_abelian_ideals(rs), key=len)
        v = {g: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for g in ideal}
        for _ in range(10):
            d = rng.randrange(rs.num_positive)
            t1 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            t2 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            once = ad_exp_action(table, d, t1 + t2, v, ideal)
            twice = ad_exp_action(table, d, t2,
                                  ad_exp_action(table, d, t1, v, ideal), ideal)
            assert once == twice


def test_coad_trivial_and_truncation():
    rs = build_root_system("B3")
    table = build_structure_table(rs)
    ideal = frozenset([rs.theta_index])
    xi = {rs.theta_index: Fraction(3)}
    out = coad_exp_action(table, rs.simple_indices[0], Fraction(2), xi, ideal)
    assert out == xi  # every theta - delta lies outside this one-root ideal


def test_coad_string_bounds():
    # chains inside an abelian ideal: at most 1 step in ADE, 2 in BCF
    for typ, bound in [("A4", 1), ("D4", 1), ("E6", 1),
                       ("B4", 2), ("C4", 2), ("F4", 2)]:
        rs = build_root_system(typ)
        table = build_structure_table(rs)
        for ideal in enumerate_abelian_ideals(rs):
            for d in range(rs.num_positive):
                chains = table.chain(d, up=False)
                for src in ideal:
                    steps = [k for tgt, _, k in chains[src] if tgt in ideal]
                    assert all(k <= bound for k in steps), (typ, src, d)


def test_pairing_invariance():
    # <u.xi, u.v> with the length-normalised pairing is preserved
    rng = random.Random(11)
    for typ in ("B3", "C3", "G2", "A3"):
        rs = build_root_system(typ)
        table = build_structure_table(rs)
        ideal = max(enumerate_abelian_ideals(rs), key=len)

        def pair(xi, v):
            total = Fraction(0)
            for g, c in xi.items():
                if g in v:
                    total += c * v[g] * 2 / rs.root_norms[g]
            return total

        for _ in range(20):
            v = {g: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for g in ideal}
            xi = {g: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for g in ideal}
            d = rng.randrange(rs.num_positive)
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            uv = ad_exp_action(table, d, t, v, ideal)
            uxi = coad_exp_action(table, d, t, xi, ideal)
            assert pair(uxi, uv) == pair(xi, v)


def test_structure_table_json_and_sign_flip():
    rs = build_root_system("B2")
    plus = build_structure_table(rs, 1)
    minus = build_structure_table(rs, -1)
    for entry_p, entry_m in zip(plus.to_json(), minus.to_json()):
        assert entry_p["a"] == entry_m["a"]
        assert entry_p["n"] == -entry_m["n"]


def test_ad_fails_where_coad_truncates():
    # {e1-e3, e2-e4} is not upward closed: e1-e3 + (e3-e4) = e1-e4 is missing,
    # and e2-e4 - (e3-e4) = e2-e3 falls below the set
    rs = build_root_system("A3")
    table = build_structure_table(rs)
    roots = frozenset(rs.parse_root(x) for x in ("e1-e3", "e2-e4"))
    v = {g: Fraction(1) for g in roots}
    delta = rs.parse_root("e3-e4")
    with pytest.raises(AssertionError, match="not upward closed"):
        ad_exp_action(table, delta, Fraction(2), v, roots)
    assert coad_exp_action(table, delta, Fraction(2), v, roots) == v
    below = rs.parse_root("e2-e3")
    wider = coad_exp_action(table, delta, Fraction(2), v, roots | {below})
    assert wider[below] != 0  # the term the narrower set truncates
