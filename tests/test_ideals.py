from fractions import Fraction

import pytest

from borel_orbits import RootSystem, SimpleType, build_root_system, min_elements
from borel_orbits import ideals as ideals_module, orbits as orbits_module
from borel_orbits.anr import anr_ideal
from borel_orbits.ideals import (
    abelian_nilradicals,
    check_abelian_ideal,
    enumerate_abelian_ideals,
    ideal_from_shape,
    ideal_generated,
    is_abelian,
    is_ideal,
    maximal_abelian_ideals,
)
from borel_orbits.normal_form import reduce_in_dual, reduce_in_ideal, replay
from borel_orbits.orbits import (
    krull_dims,
    lower_canonical,
    orbit_record,
    pyasetskii_dual,
    residual_set,
    strongly_orth_subsets,
    upper_canonical,
)
from borel_orbits.suite import all_types


def labels(rs, roots):
    return sorted(rs.root_label(i) for i in roots)


def test_ideal_generated_extremes():
    rs = build_root_system("B3")
    assert ideal_generated(rs, []) == frozenset()
    assert ideal_generated(rs, [rs.theta_index]) == frozenset([rs.theta_index])


def test_ideal_generated_shape_331():
    rs = build_root_system("A5")
    gens = [rs.parse_root("e2-e4"), rs.parse_root("e3-e6")]
    ideal = ideal_generated(rs, gens)
    assert ideal == ideal_from_shape(rs, [3, 3, 1])
    assert len(ideal) == 7
    assert labels(rs, ideal) == [
        "e1-e4", "e1-e5", "e1-e6", "e2-e4", "e2-e5", "e2-e6", "e3-e6"]
    # min([M]) = min(M)
    assert min_elements(rs, ideal) == frozenset(gens)


def test_ideal_determined_by_minimal_elements():
    for typ in ("A3", "B3", "C3", "G2"):
        rs = build_root_system(typ)
        for ideal in enumerate_abelian_ideals(rs):
            assert ideal_generated(rs, min_elements(rs, ideal)) == ideal
            assert is_ideal(rs, ideal)


def test_generated_sub_ideal_of_abelian_is_abelian():
    rs = build_root_system("B4")
    for ideal in enumerate_abelian_ideals(rs):
        for g in ideal:
            assert is_abelian(rs, ideal_generated(rs, [g]))


def test_is_abelian_a2():
    rs = build_root_system("A2")
    theta = rs.theta_index
    a1, a2 = rs.simple_indices
    assert not is_abelian(rs, {theta, a1, a2})
    assert is_abelian(rs, {theta, a1})


def test_is_abelian_g2_maximal():
    rs = build_root_system("G2")
    ideal = frozenset(rs.index_of(v) for v in [(2, 1), (3, 1), (3, 2)])
    assert is_ideal(rs, ideal)
    assert is_abelian(rs, ideal)


def test_enumerate_a2_by_hand():
    rs = build_root_system("A2")
    got = [labels(rs, a) for a in enumerate_abelian_ideals(rs)]
    assert got == [[], ["e1-e3"], ["e1-e3", "e2-e3"], ["e1-e2", "e1-e3"]]


@pytest.mark.parametrize("typ", ["A1", "A4", "B4", "C4", "D4", "G2", "F4", "E6"])
def test_peterson_count(typ):
    rs = build_root_system(typ)
    assert len(enumerate_abelian_ideals(rs)) == 2 ** rs.rank


def test_maximal_abelian_d4():
    rs = build_root_system("D4")
    sizes = sorted(len(a) for a in maximal_abelian_ideals(rs))
    assert sizes == [5, 6, 6, 6]
    five = next(a for a in maximal_abelian_ideals(rs) if len(a) == 5)
    assert labels(rs, five) == ["e1+e2", "e1+e3", "e1+e4", "e1-e4", "e2+e3"]


@pytest.mark.parametrize("typ", all_types(8))
def test_maximal_abelian_ideals_match_pairwise_definition(typ):
    rs = build_root_system(typ)
    ideals = enumerate_abelian_ideals(rs)
    assert maximal_abelian_ideals(rs) == [a for a in ideals if not any(a < b for b in ideals)]


def test_maximal_abelian_cn_unique():
    for n in (2, 3, 4, 5):
        rs = build_root_system(f"C{n}")
        mx = maximal_abelian_ideals(rs)
        assert len(mx) == 1
        assert len(mx[0]) == n * (n + 1) // 2


def test_maximal_abelian_sln_rectangles():
    rs = build_root_system("A4")
    mx = maximal_abelian_ideals(rs)
    assert sorted(len(a) for a in mx) == sorted(k * (5 - k) for k in range(1, 5))
    assert all(any(a == ideal for _, ideal in abelian_nilradicals(rs)) for a in mx)


def test_anr_bn_dn_g2():
    rs = build_root_system("B4")
    anrs = abelian_nilradicals(rs)
    assert [n for n, _ in anrs] == [0]
    assert len(anrs[0][1]) == 7  # 2n - 1
    rs = build_root_system("D5")
    assert [n for n, _ in abelian_nilradicals(rs)] == [0, 3, 4]
    assert abelian_nilradicals(build_root_system("G2")) == []
    assert abelian_nilradicals(build_root_system("F4")) == []
    assert abelian_nilradicals(build_root_system("E8")) == []


def test_every_anr_is_maximal_abelian():
    for typ in ("A4", "B4", "C4", "D5", "E6"):
        rs = build_root_system(typ)
        mx = maximal_abelian_ideals(rs)
        for _, ideal in abelian_nilradicals(rs):
            assert ideal in mx


def test_maximal_count_equals_long_simple_roots():
    for typ in ("A4", "B4", "C4", "D5", "F4", "G2", "E6"):
        rs = build_root_system(typ)
        long_simples = sum(1 for i in rs.simple_indices if rs.long[i])
        assert len(maximal_abelian_ideals(rs)) == long_simples


def test_shape_validation():
    rs = build_root_system("A5")
    with pytest.raises(ValueError):
        ideal_from_shape(rs, [1, 3])  # not weakly decreasing
    with pytest.raises(ValueError):
        ideal_from_shape(rs, [6])  # does not fit the staircase
    with pytest.raises(ValueError):
        ideal_from_shape(build_root_system("B3"), [2, 1])
    assert len(ideal_from_shape(rs, [3, 3, 1])) == 7


def test_enumeration_order_deterministic():
    rs = build_root_system("B3")
    ideals = enumerate_abelian_ideals(rs)
    keyed = [(len(a), sorted(a)) for a in ideals]
    assert keyed == sorted(keyed)


def _count_validations(monkeypatch):
    """Record every is_ideal/is_abelian call made through the package, and
    every check_abelian_ideal that tests its roots (it does so in one pass,
    without calling either)."""
    calls = []
    real_validated = ideals_module.is_validated

    def checked(rs, roots):
        validated = real_validated(rs, roots)
        if not validated:
            calls.append("check_abelian_ideal")
        return validated

    monkeypatch.setattr(ideals_module, "is_validated", checked)
    for name in ("is_ideal", "is_abelian"):
        real = getattr(ideals_module, name)

        def counted(rs, roots, _real=real, _name=name):
            calls.append(_name)
            return _real(rs, roots)

        monkeypatch.setattr(ideals_module, name, counted)
        if hasattr(orbits_module, name):
            monkeypatch.setattr(orbits_module, name, counted)
    return calls


def test_validated_ideal_is_not_checked_again(monkeypatch):
    rs = build_root_system("C4")
    a = anr_ideal(rs, 3)
    calls = _count_validations(monkeypatch)
    subsets = strongly_orth_subsets(rs, a)
    for s in subsets:
        orbit_record(rs, a, s)
    s = subsets[len(subsets) // 2]
    pyasetskii_dual(rs, a, s)
    residual_set(rs, a, s)
    lower_canonical(rs, a)
    krull_dims(rs, a)
    v = {g: Fraction(g + 2) for g in a}
    for reduce in (reduce_in_ideal, reduce_in_dual):
        _, transcript = reduce(rs, a, v)
        replay(rs, a, transcript, v)
    assert calls == []
    # every constructor hands out ideals that are already validated
    for ideal in (enumerate_abelian_ideals(rs) + maximal_abelian_ideals(rs)
                  + [x for _, x in abelian_nilradicals(rs)]):
        calls.clear()
        assert check_abelian_ideal(rs, ideal) is ideal and calls == []


def test_upper_canonical_skips_check_of_validated_ideal(monkeypatch):
    rs = build_root_system("C4")
    a = anr_ideal(rs, 3)
    expected = upper_canonical(rs, frozenset(a))
    calls = _count_validations(monkeypatch)
    assert upper_canonical(rs, a) == expected and calls == []
    # a raw carrier is still checked, and a bad one is refused as before
    assert upper_canonical(rs, frozenset(a)) == expected and calls == ["is_abelian"]
    with pytest.raises(ValueError, match="carrier has two roots whose sum is a root"):
        upper_canonical(rs, range(rs.num_positive))


@pytest.mark.parametrize("bad, message", [
    ("simple", "root set is not upward closed"),
    ("all", "ideal is not abelian"),
])
def test_raw_input_is_still_checked(bad, message):
    rs = build_root_system("C4")
    roots = [rs.simple_indices[0]] if bad == "simple" else range(rs.num_positive)
    with pytest.raises(ValueError, match=message):
        strongly_orth_subsets(rs, roots)
    with pytest.raises(ValueError, match=message):
        orbit_record(rs, roots, ())
    with pytest.raises(ValueError, match=message):
        reduce_in_ideal(rs, roots, {})


@pytest.mark.parametrize("typ", ["A3", "B3", "G2"])
def test_one_pass_validation_matches_is_ideal_and_is_abelian(typ):
    # every root subset: upward closure is reported before abelianness
    rs = build_root_system(typ)
    for bits in range(1 << rs.num_positive):
        roots = [i for i in range(rs.num_positive) if bits >> i & 1]
        if not is_ideal(rs, roots):
            want = "root set is not upward closed"
        elif not is_abelian(rs, roots):
            want = "ideal is not abelian"
        else:
            a = check_abelian_ideal(rs, roots)
            assert a == set(roots) and a.mask == bits and a.rs is rs
            continue
        with pytest.raises(ValueError, match=want):
            check_abelian_ideal(rs, roots)


def test_ideal_of_another_root_system_is_checked_again(monkeypatch):
    rs = build_root_system("C4")
    a = anr_ideal(rs, 3)
    other = RootSystem(SimpleType("C", 4))
    calls = _count_validations(monkeypatch)
    b = check_abelian_ideal(other, a)
    assert calls and b == a and b.rs is other
    calls.clear()
    assert check_abelian_ideal(rs, a) is a and calls == []
