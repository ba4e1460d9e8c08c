"""The integer-pair torus characters, torus solve, exp(ad) sums and whole
B-trajectories against the Fraction loops they replaced, kept here as
reference code."""

from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from borel_orbits import build_root_system
from borel_orbits.chevalley import (_exp_action, _pair, ad_exp_action,
                                    build_structure_table, coad_exp_action)
from borel_orbits.ideals import check_abelian_ideal, enumerate_abelian_ideals
from borel_orbits.intlin import nth_root_fraction, smith_normal_form
from borel_orbits.normal_form import (_solve_scalings, apply_b_element, char_value,
                                      reduce_in_dual, reduce_in_ideal, replay, replay_supports)
from borel_orbits.root_system import _mask_of

# G2 for chains with k = 3, F4, and A-D up to rank 4
TYPES = ("G2", "F4", "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
         "D3", "D4")


# -- reference code: every intermediate is a Fraction -----------------------

def _ref_char_value(lam, coeffs, sign=1):
    val = Fraction(1)
    for l, c in zip(lam, coeffs):
        if c:
            val *= Fraction(l) ** (sign * c)
    return val


def _ref_exp_action(table, delta, t, v, ideal, up):
    a = frozenset(ideal)
    out = {k: Fraction(c) for k, c in v.items() if c}
    if t == 0:
        return out
    chains = table.chain(delta, up)
    for src, c in list(v.items()):
        if not c:
            continue
        if src not in a:
            raise ValueError(("vector" if up else "covector")
                             + " support must lie inside the ideal")
        for tgt, fac, k in chains[src]:
            if tgt not in a:
                if up:
                    raise AssertionError("ideal is not upward closed under the action")
                continue
            out[tgt] = out.get(tgt, Fraction(0)) + c * fac * t ** k
    return {k: c for k, c in out.items() if c != 0}


def _ref_solve_scalings(rs, roots, targets, sign=1):
    n = rs.rank
    if not roots:
        return tuple(Fraction(1) for _ in range(n))
    c = [[sign * x for x in rs.positive_roots[g]] for g in roots]
    u, d, v = smith_normal_form(c)
    k = len(roots)
    s = []
    for j in range(k):
        val = Fraction(1)
        for r in range(k):
            if u[j][r]:
                val *= Fraction(targets[r]) ** u[j][r]
        s.append(val)
    y = [Fraction(1)] * n
    for j in range(k):
        dj = d[j][j] if j < n else 0
        if dj == 0:
            if s[j] != 1:
                return None
        else:
            root = nth_root_fraction(s[j], dj)
            if root is None:
                return None
            y[j] = root
    lam = []
    for i in range(n):
        val = Fraction(1)
        for j in range(n):
            if v[i][j] and y[j] != 1:
                val *= y[j] ** v[i][j]
        lam.append(val)
    lam = tuple(lam)
    for g, tgt in zip(roots, targets):
        if _ref_char_value(lam, rs.positive_roots[g], sign) != tgt:
            raise AssertionError("torus solver produced an inconsistent solution")
    return lam


def _ref_apply_torus(rs, lam, v, sign):
    return {k: c * _ref_char_value(lam, rs.positive_roots[k], sign) for k, c in v.items()}


def _ref_trajectory(rs, ideal, ops, v, side):
    """The vector before and after each op, every coefficient a Fraction."""
    a = check_abelian_ideal(rs, ideal)
    vec = {k: Fraction(c) for k, c in v.items() if c}
    assert all(k in a for k in vec)
    table = build_structure_table(rs)
    sign, up = (1, True) if side == "primal" else (-1, False)
    out = [vec]
    for op in ops:
        if op[0] == "torus":
            vec = _ref_apply_torus(rs, op[1], vec, sign)
        else:
            vec = _ref_exp_action(table, op[1], op[2], vec, a, up)
        out.append(vec)
    return out


# -- strategies ---------------------------------------------------------------

@cache
def _ideals(typ):
    return enumerate_abelian_ideals(build_root_system(typ))


_COEFF = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12))
_NONZERO = _COEFF.filter(bool)
_T = st.one_of(st.fractions(-6, Fraction(-1, 7), max_denominator=7),
               st.fractions(-6, 6, max_denominator=7).filter(bool),
               st.integers(-6, 6).filter(bool), st.sampled_from((0, Fraction(0))))


@st.composite
def _action_case(draw):
    typ = draw(st.sampled_from(TYPES))
    rs = build_root_system(typ)
    up = draw(st.booleans())
    roots = range(rs.num_positive)
    kind = draw(st.sampled_from(("abelian", "nilradical", "subset")))
    if kind == "abelian":
        ideal = draw(st.sampled_from(_ideals(typ)))
    elif kind == "nilradical":  # upward closed, and holds the long chains
        ideal = frozenset(roots)
    else:  # usually not upward closed
        ideal = frozenset(draw(st.sets(st.sampled_from(roots))))
    inside = ideal and draw(st.integers(0, 3))
    v = draw(st.dictionaries(st.sampled_from(sorted(ideal) if inside else roots),
                             _COEFF, max_size=6))
    # mostly a delta with a chain from the support, so the terms are not all empty
    chains = build_structure_table(rs).chain
    moving = [d for d in roots if any(chains(d, up)[g] for g in v)]
    delta = draw(st.sampled_from(moving if moving and draw(st.integers(0, 3)) else roots))
    return rs, ideal, v, delta, draw(_T), up


@st.composite
def _solve_case(draw):
    rs = build_root_system(draw(st.sampled_from(TYPES)))
    roots = sorted(draw(st.sets(st.sampled_from(range(rs.num_positive)),
                                max_size=rs.rank + 1)))
    sign = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):  # solvable by construction
        lam = draw(st.lists(_NONZERO, min_size=rs.rank, max_size=rs.rank))
        targets = [_ref_char_value(lam, rs.positive_roots[g], sign) for g in roots]
    else:
        targets = draw(st.lists(_NONZERO, min_size=len(roots), max_size=len(roots)))
    return rs, roots, targets, sign


# int torus parameters give negative exponents on the dual side
_LAM = st.one_of(st.integers(-5, 5).filter(bool),
                 st.fractions(-5, 5, max_denominator=6).filter(bool))


@st.composite
def _word_case(draw):
    typ = draw(st.sampled_from(TYPES))
    rs = build_root_system(typ)
    ideal = draw(st.sampled_from([a for a in _ideals(typ) if a]))
    side = draw(st.sampled_from(("primal", "dual")))
    v = draw(st.dictionaries(st.sampled_from(sorted(ideal)), _COEFF, min_size=1, max_size=6))
    torus = st.tuples(st.just("torus"), st.lists(_LAM, min_size=rs.rank,
                                                 max_size=rs.rank).map(tuple))
    unipotent = st.tuples(st.just("unipotent"),
                          st.integers(0, rs.num_positive - 1), _T)
    ops = draw(st.lists(st.one_of(torus, unipotent), max_size=8))
    return rs, frozenset(ideal), v, ops, side


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


# -- differential tests -------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_NONZERO, st.integers(-3, 3)), max_size=8),
       st.sampled_from((1, -1)))
def test_char_value_matches_fraction_reference(pairs, sign):
    lam = tuple(l for l, _ in pairs)
    coeffs = tuple(c for _, c in pairs)
    got = char_value(lam, coeffs, sign)
    assert type(got) is Fraction
    assert got == _ref_char_value(lam, coeffs, sign)


@settings(max_examples=400, deadline=None)
@given(_action_case())
def test_exp_action_matches_fraction_reference(case):
    rs, ideal, v, delta, t, up = case
    table = build_structure_table(rs)
    action = ad_exp_action if up else coad_exp_action
    got = _outcome(action, table, delta, t, v, ideal)
    want = _outcome(_ref_exp_action, table, delta, t, v, ideal, up)
    assert got == want
    if isinstance(want, dict):
        assert list(got) == list(want)
        assert all(type(c) is Fraction for c in got.values())


@settings(max_examples=300, deadline=None)
@given(_action_case())
def test_pair_action_returns_reduced_pairs_and_their_mask(case):
    rs, ideal, v, delta, t, up = case
    vec = {k: _pair(c) for k, c in v.items() if c}
    before = dict(vec)
    try:
        out, mask = _exp_action(build_structure_table(rs), delta, _pair(t), vec,
                                _mask_of(vec), frozenset(ideal), up)
    except (ValueError, AssertionError):
        return
    assert vec == before
    assert mask == _mask_of(out)
    assert all(n and d > 0 and gcd(n, d) == 1 for n, d in out.values())


@settings(max_examples=300, deadline=None)
@given(_word_case())
def test_trajectories_match_fraction_reference(case):
    rs, ideal, v, ops, side = case
    ref = _ref_trajectory(rs, ideal, ops, v, side)
    got = apply_b_element(rs, ideal, ops, v, side)
    assert got == ref[-1] and list(got) == list(ref[-1])
    assert all(type(c) is Fraction for c in got.values())
    # reduce the moved vector, then replay its transcript both ways
    w = ref[-1]
    if not w:
        return
    reduce = reduce_in_ideal if side == "primal" else reduce_in_dual
    _, tr = reduce(rs, ideal, w)
    steps = [("unipotent", d, t) for d, t in tr.steps]
    want = _ref_trajectory(rs, ideal, steps + [("torus", tr.torus)], w, side)
    back = replay(rs, ideal, tr, w)
    assert back == want[-1] == tr.result and list(back) == list(want[-1])
    assert all(type(c) is Fraction for c in back.values())
    assert replay_supports(rs, ideal, tr, w) == [frozenset(x) for x in want[:-1]]


@settings(max_examples=300, deadline=None)
@given(_solve_case())
def test_torus_solve_matches_fraction_reference(case):
    rs, roots, targets, sign = case
    got = _solve_scalings(rs, roots, [Fraction(x).as_integer_ratio() for x in targets], sign)
    assert got == _ref_solve_scalings(rs, roots, targets, sign)
    if got is not None:
        assert all(type(x) is Fraction for x in got)


def test_exp_action_g2_three_step_chains_match_reference():
    rs = build_root_system("G2")
    table = build_structure_table(rs)
    nilradical = frozenset(range(rs.num_positive))
    v = {g: Fraction(g + 1, 2) for g in nilradical}
    long_chains = 0
    for up in (True, False):
        action = ad_exp_action if up else coad_exp_action
        for delta in nilradical:
            long_chains += sum(k == 3 for chain in table.chain(delta, up) for _, _, k in chain)
            for t in (3, Fraction(-2, 5)):
                got = action(table, delta, t, v, nilradical)
                want = _ref_exp_action(table, delta, t, v, nilradical, up)
                assert got == want and list(got) == list(want)
    assert long_chains == 2  # beta + 3 alpha from beta, and back down


def test_exp_action_errors_match_reference():
    # {e1-e3, e2-e4} is not upward closed under e3-e4; e1-e2 lies outside it
    rs = build_root_system("A3")
    table = build_structure_table(rs)
    roots = frozenset(rs.parse_root(x) for x in ("e1-e3", "e2-e4"))
    delta = rs.parse_root("e3-e4")
    v = {g: 1 for g in roots}
    outside = {rs.parse_root("e1-e2"): Fraction(-2, 3), **v}
    # the sources are read in order: a chain leaving the set from an earlier
    # root fails before the root outside the set is reached
    outside_last = {**v, rs.parse_root("e1-e2"): Fraction(-2, 3)}
    for up, vec, err in ((True, v, AssertionError), (True, outside, ValueError),
                         (False, outside, ValueError), (True, outside_last, AssertionError)):
        action = ad_exp_action if up else coad_exp_action
        with pytest.raises(err) as got:
            action(table, delta, Fraction(-3, 2), vec, roots)
        with pytest.raises(err) as want:
            _ref_exp_action(table, delta, Fraction(-3, 2), vec, roots, up)
        assert str(got.value) == str(want.value)


def test_torus_solve_without_rational_solution_matches_reference():
    # 2e1 and 2e2 scaled by 1 and 2 need a square root of 2
    rs = build_root_system("C2")
    roots = [rs.parse_root("2e1"), rs.parse_root("2e2")]
    for sign in (1, -1):
        assert _solve_scalings(rs, roots, [(1, 1), (2, 1)], sign) is None
        assert _ref_solve_scalings(rs, roots, [1, 2], sign) is None
