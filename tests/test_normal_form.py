import dataclasses
import math
import random
from fractions import Fraction

import pytest

from borel_orbits import build_root_system
from borel_orbits.chevalley import build_structure_table
from borel_orbits.ideals import (
    abelian_nilradicals,
    enumerate_abelian_ideals,
    ideal_from_shape,
)
from borel_orbits.intlin import (
    integer_nth_root,
    nth_root_fraction,
    smith_normal_form,
)
from borel_orbits.normal_form import (
    apply_b_element,
    char_value,
    orbit_of_vector,
    random_b_element,
    random_vector,
    reduce_in_dual,
    reduce_in_ideal,
    replay,
    replay_supports,
)
from borel_orbits.orbits import (
    lower_canonical,
    pyasetskii_dual,
    residual_set,
    upper_canonical,
)


def eps(rs, text):
    return frozenset(rs.parse_root(t) for t in text.split(",") if t)


# -- exact linear algebra helpers ------------------------------------------

def test_kill_check_chains_are_the_delta_strings():
    # the kill check reads table.chain(delta, not primal)[nu]: down from nu
    # through diff_rows on the primal side, up through sum_rows on the dual
    for typ in ("B4", "C4", "D5", "F4", "G2"):
        rs = build_root_system(typ)
        table = build_structure_table(rs)
        for delta in range(rs.num_positive):
            for up, step in ((False, rs.diff_rows), (True, rs.sum_rows)):
                chains = table.chain(delta, up)
                for nu in range(rs.num_positive):
                    walk = []
                    cur = step[nu].get(delta)
                    while cur is not None:
                        walk.append((cur, len(walk) + 1))
                        cur = step[cur].get(delta)
                    assert [(tgt, k) for tgt, _, k in chains[nu]] == walk


def test_smith_normal_form_properties():
    rng = random.Random(3)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(a)
        prod = [[sum(u[i][k] * a[k][j] for k in range(rows)) for j in range(cols)]
                for i in range(rows)]
        prod = [[sum(prod[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
                for i in range(rows)]
        assert prod == d
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        assert abs(_det(u)) == 1 and abs(_det(v)) == 1


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_nth_roots():
    assert integer_nth_root(27, 3) == 3
    assert integer_nth_root(28, 3) is None
    assert integer_nth_root(1, 7) == 1
    assert nth_root_fraction(Fraction(8, 27), 3) == Fraction(2, 3)
    assert nth_root_fraction(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert nth_root_fraction(Fraction(-4), 2) is None
    assert nth_root_fraction(Fraction(2), 2) is None


# -- reductions -------------------------------------------------------------

def test_single_term_reduces_to_singleton():
    rs = build_root_system("B3")
    for ideal in enumerate_abelian_ideals(rs):
        for g in ideal:
            s, tr = reduce_in_ideal(rs, ideal, {g: Fraction(5, 3)})
            assert s == frozenset([g])
            assert tr.steps == ()
            assert tr.result == {g: Fraction(1)}


def test_zero_vector():
    rs = build_root_system("A2")
    ideal = frozenset([rs.theta_index])
    s, tr = reduce_in_ideal(rs, ideal, {})
    assert s == frozenset() and tr.result == {}
    rec = orbit_of_vector(rs, ideal, {})
    assert rec.dim_in_a == 0


def test_two_term_kill_with_explicit_delta():
    # e_{e1-e4} + e_{e2-e4} reduces to {e2-e4} with one step along e1-e2
    rs = build_root_system("A5")
    ideal = ideal_from_shape(rs, [3, 3, 1])
    v = {rs.parse_root("e1-e4"): Fraction(1), rs.parse_root("e2-e4"): Fraction(1)}
    s, tr = reduce_in_ideal(rs, ideal, v)
    assert s == eps(rs, "e2-e4")
    assert len(tr.steps) == 1
    assert tr.steps[0][0] == rs.parse_root("e1-e2")
    assert replay(rs, ideal, tr, v) == tr.result == {rs.parse_root("e2-e4"): Fraction(1)}


def test_generic_full_support_reaches_dense_orbits():
    rng = random.Random(42)
    for typ in ("A3", "B3", "C3", "D4", "G2", "F4"):
        rs = build_root_system(typ)
        for ideal in enumerate_abelian_ideals(rs):
            if not ideal:
                continue
            v = random_vector(rs, ideal, rng)
            s, tr = reduce_in_ideal(rs, ideal, v)
            assert s == lower_canonical(rs, ideal), typ
            assert replay(rs, ideal, tr, v) == tr.result
            xi = random_vector(rs, ideal, rng)
            s, tr = reduce_in_dual(rs, ideal, xi)
            assert s == upper_canonical(rs, ideal), typ
            assert replay(rs, ideal, tr, xi) == tr.result


def test_dual_reduction_of_xi_theta():
    rs = build_root_system("B3")
    ideal = max(enumerate_abelian_ideals(rs), key=len)
    s, tr = reduce_in_dual(rs, ideal, {rs.theta_index: Fraction(-7, 2)})
    assert s == frozenset([rs.theta_index])
    assert tr.result == {rs.theta_index: Fraction(1)}


def test_orbit_invariance_under_b():
    rng = random.Random(20344)
    for typ in ("A3", "C2", "B3", "G2"):
        rs = build_root_system(typ)
        ideal = max(enumerate_abelian_ideals(rs), key=len)
        from borel_orbits.orbits import strongly_orth_subsets
        subsets = strongly_orth_subsets(rs, ideal)
        for _ in range(50):
            s = subsets[rng.randrange(len(subsets))]
            base = {g: Fraction(1) for g in s}
            ops = random_b_element(rs, rng)
            moved = apply_b_element(rs, ideal, ops, base)
            got, tr = reduce_in_ideal(rs, ideal, moved)
            assert got == s
            assert tr.normalized
            assert replay(rs, ideal, tr, moved) == base


def test_dual_orbit_invariance_under_b():
    rng = random.Random(99)
    rs = build_root_system("B3")
    ideal = max(enumerate_abelian_ideals(rs), key=len)
    from borel_orbits.orbits import strongly_orth_subsets
    for s in strongly_orth_subsets(rs, ideal):
        base = {g: Fraction(1) for g in s}
        ops = random_b_element(rs, rng)
        moved = apply_b_element(rs, ideal, ops, base, side="dual")
        got, tr = reduce_in_dual(rs, ideal, moved)
        assert got == s
        assert tr.normalized
        assert replay(rs, ideal, tr, moved) == base


def test_residual_support_reduction_and_containment():
    # generic covectors on J_S land on the combinatorial dual and never
    # leave J_S along the way (including in G2)
    rng = random.Random(5)
    for typ in ("A4", "B3", "C3", "D4", "G2", "F4"):
        rs = build_root_system(typ)
        ideal = max(enumerate_abelian_ideals(rs), key=len)
        from borel_orbits.orbits import strongly_orth_subsets
        for s in strongly_orth_subsets(rs, ideal):
            j = residual_set(rs, ideal, s)
            if not j:
                continue
            xi = random_vector(rs, j, rng)
            got, tr = reduce_in_dual(rs, ideal, xi)
            assert got == pyasetskii_dual(rs, ideal, s), typ
            assert all(sup <= j for sup in replay_supports(rs, ideal, tr, xi))


def test_sign_convention_independence():
    rng = random.Random(8)
    rs = build_root_system("C3")
    ideal = max(enumerate_abelian_ideals(rs), key=len)
    plus = build_structure_table(rs, 1)
    minus = build_structure_table(rs, -1)
    for _ in range(20):
        v = random_vector(rs, ideal, rng)
        s_plus, _ = reduce_in_ideal(rs, ideal, v, table=plus)
        s_minus, _ = reduce_in_ideal(rs, ideal, v, table=minus)
        assert s_plus == s_minus


def test_normalisation_obstruction_is_reported():
    # scaling e_{2e1} + 2 e_{2e2} to all-ones needs a square root of 2,
    # which does not exist over the rationals
    rs = build_root_system("C2")
    ideal = dict(abelian_nilradicals(rs))[1]
    v = {rs.parse_root("2e1"): Fraction(1), rs.parse_root("2e2"): Fraction(2)}
    s, tr = reduce_in_ideal(rs, ideal, v)
    assert s == eps(rs, "2e1,2e2")
    assert not tr.normalized
    assert replay(rs, ideal, tr, v) == tr.result == v


@pytest.mark.parametrize("reduce", [reduce_in_ideal, reduce_in_dual])
def test_failed_torus_solve_keeps_unscaled_result(reduce):
    # the same square-root obstruction on both sides: the reduction keeps
    # the vector it reached, with no torus applied
    rs = build_root_system("C2")
    ideal = dict(abelian_nilradicals(rs))[1]
    v = {rs.parse_root("2e1"): Fraction(1), rs.parse_root("2e2"): Fraction(2)}
    s, tr = reduce(rs, ideal, v)
    assert s == eps(rs, "2e1,2e2")
    assert not tr.normalized and tr.steps == ()
    assert tr.torus == (1, 1) and all(type(x) is Fraction for x in tr.torus)
    assert tr.result == v and all(type(c) is Fraction for c in tr.result.values())
    assert replay(rs, ideal, tr, v) == v


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_torus_parameters_give_exact_fractions(side):
    # int parameters with a negative exponent used to give floats
    sign = 1 if side == "primal" else -1
    assert char_value((2, 3), (1, 1), -1) == Fraction(1, 6)
    assert type(char_value((2, 3), (1, 1), -1)) is Fraction
    for typ in ("A2", "B3"):
        rs = build_root_system(typ)
        if typ == "A2":
            ideal = frozenset([rs.simple_indices[0], rs.theta_index])
        else:
            ideal = max(enumerate_abelian_ideals(rs), key=len)
        v = {g: 1 for g in ideal}
        for lam in ((2, 3, 5), (Fraction(2), Fraction(-3, 7), 5), (Fraction(-4, 3), 1, 2)):
            lam = lam[:rs.rank]
            out = apply_b_element(rs, ideal, [("torus", lam)], v, side=side)
            assert set(out) == ideal
            for g, c in out.items():
                assert type(c) is Fraction
                assert c == math.prod(Fraction(l) ** (sign * e)
                                      for l, e in zip(lam, rs.positive_roots[g]))


def test_support_outside_ideal_rejected():
    rs = build_root_system("A2")
    ideal = frozenset([rs.theta_index])
    with pytest.raises(ValueError):
        reduce_in_ideal(rs, ideal, {rs.simple_indices[0]: Fraction(1)})


def test_seeded_generators_are_reproducible():
    rs = build_root_system("B3")
    ideal = max(enumerate_abelian_ideals(rs), key=len)
    a = random_vector(rs, ideal, random.Random(42))
    b = random_vector(rs, ideal, random.Random(42))
    assert a == b
    assert random_b_element(rs, random.Random(42)) == \
        random_b_element(rs, random.Random(42))


def test_orbit_of_vector_dense_records():
    rng = random.Random(13)
    rs = build_root_system("B3")
    ideal = max(enumerate_abelian_ideals(rs), key=len)
    rec = orbit_of_vector(rs, ideal, random_vector(rs, ideal, rng))
    assert rec.dim_in_a == len(ideal)
    rec = orbit_of_vector(rs, ideal, random_vector(rs, ideal, rng), side="dual")
    assert rec.dim_in_a_star == len(ideal)


def test_side_must_be_primal_or_dual():
    # any side but "primal" used to apply the coadjoint action silently
    rs = build_root_system("C3")
    ideal = max(enumerate_abelian_ideals(rs), key=len)
    ops = [("unipotent", rs.simple_indices[0], Fraction(3))]
    v = {rs.theta_index: Fraction(1)}
    assert len(apply_b_element(rs, ideal, ops, v)) == 1
    assert len(apply_b_element(rs, ideal, ops, v, side="dual")) == 3
    message = "side must be 'primal' or 'dual'"
    with pytest.raises(ValueError, match=message):
        apply_b_element(rs, ideal, ops, v, side="xyz")
    with pytest.raises(ValueError, match=message):
        orbit_of_vector(rs, ideal, v, side="xyz")
    _, tr = reduce_in_ideal(rs, ideal, v)
    bad = dataclasses.replace(tr, side="xyz")
    with pytest.raises(ValueError, match=message):
        replay(rs, ideal, bad, v)
    with pytest.raises(ValueError, match=message):
        replay_supports(rs, ideal, bad, v)


def test_structure_table_of_another_system_is_refused():
    # a B3 table on C3 ideals used to divide by zero or give transcripts
    # that do not replay
    c3 = build_root_system("C3")
    foreign = build_structure_table(build_root_system("B3"))
    message = "the structure table is for B3, not for C3"
    rng = random.Random(1)
    for ideal in enumerate_abelian_ideals(c3):
        if not ideal:
            continue
        v = random_vector(c3, ideal, rng)
        _, tr = reduce_in_ideal(c3, ideal, v)
        for call in (lambda: reduce_in_ideal(c3, ideal, v, foreign),
                     lambda: reduce_in_dual(c3, ideal, v, foreign),
                     lambda: replay(c3, ideal, tr, v, foreign),
                     lambda: replay_supports(c3, ideal, tr, v, foreign),
                     lambda: apply_b_element(c3, ideal, [], v, table=foreign)):
            with pytest.raises(ValueError, match=message):
                call()
