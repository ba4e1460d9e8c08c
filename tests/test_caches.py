"""Derived tables are cached by the functions that own them, never on the RootSystem."""

import copy
import itertools
import random
import sys
from fractions import Fraction

import pytest

from borel_orbits import RootSystem, SimpleType, build_root_system, ideals, normal_form, weyl
from borel_orbits.anr import anr_ideal, anr_statistic, conjecture_check, w0l_action
from borel_orbits.cli import main
from borel_orbits.chevalley import bracket, build_structure_table
from borel_orbits.ideals import check_abelian_ideal, enumerate_abelian_ideals
from borel_orbits.normal_form import reduce_in_dual, reduce_in_ideal
from borel_orbits.orbits import (
    kostant_cascade,
    label_counts,
    lower_canonical,
    orbit_record,
    strongly_orth_subsets,
)
from borel_orbits.root_system import strongly_orthogonal
from borel_orbits.weyl import bruhat_leq, identity, reflect, sigma_of_orth_set


def test_root_system_gains_no_attributes():
    rs = RootSystem(SimpleType("C", 3))
    before = copy.deepcopy(vars(rs))
    # norms, inner products and reflections read tables fixed at construction
    for i in range(rs.num_positive):
        for j in range(rs.num_positive):
            rs.inner(i, j)
            reflect(rs, i, j)
            if i != j:
                strongly_orthogonal(rs, i, j)
    node = rs.rank - 1
    ideal = anr_ideal(rs, node)
    cascade = kostant_cascade(rs)
    label = lower_canonical(rs, ideal)
    w0l_action(rs, node, label)
    conjecture_check(rs, node)
    assert bruhat_leq(rs, identity(rs), sigma_of_orth_set(rs, cascade).element)
    v = {g: Fraction(g + 2) for g in ideal}
    reduce_in_ideal(rs, ideal, v)
    reduce_in_dual(rs, ideal, v)
    assert vars(rs) == before
    # one cached table per sign convention, however the arguments are spelled
    table = build_structure_table(rs)
    assert table is build_structure_table(rs, 1) is build_structure_table(rs, base_sign=1)
    assert build_structure_table(rs, -1) is not table


def test_structure_table_is_fixed_at_construction():
    rs = build_root_system("B3")
    table = build_structure_table(rs)
    before = dict(vars(table))
    values = copy.deepcopy({k: v for k, v in before.items() if k != "rs"})
    # every signed constant, every chain, brackets and both reductions
    npos = rs.num_positive
    for sa, sb in itertools.product((1, -1), repeat=2):
        for i in range(npos):
            for j in range(npos):
                if i != j or sa == sb:
                    table.structure_constant(sa, i, sb, j)
    for delta in range(npos):
        table.chain(delta, up=True)
        table.chain(delta, up=False)
    basis = [{("e", s, g): Fraction(1)} for s in (1, -1) for g in range(npos)]
    for x, y in itertools.combinations(basis, 2):
        bracket(table, x, y)
    ideal = max(enumerate_abelian_ideals(rs), key=len)
    v = {g: Fraction(g + 2) for g in ideal}
    reduce_in_ideal(rs, ideal, v, table)
    reduce_in_dual(rs, ideal, v, table)
    after = vars(table)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert {k: v for k, v in after.items() if k != "rs"} == values


def test_orbit_table_keeps_no_weyl_memo_per_element():
    # a memo per sigma_S costs about 11 MB of peak memory on orbits C8 --anr 8
    memos = {name: f for name, f in vars(weyl).items() if hasattr(f, "cache_info")}
    rs = RootSystem(SimpleType("C", 5))
    ideal = anr_ideal(rs, 4)
    before = {name: f.cache_info() for name, f in memos.items()}
    labels = strongly_orth_subsets(rs, ideal)
    for s in labels:
        orbit_record(rs, ideal, s)
    after = {name: f.cache_info() for name, f in memos.items()}
    assert len(labels) == 142
    assert after["_descent_chain"].currsize == before["_descent_chain"].currsize
    # the reflection table is built once for the new root system
    table = after["_reflection_table"]
    assert table.currsize == before["_reflection_table"].currsize + 1
    assert table.misses == before["_reflection_table"].misses + 1
    assert all(after[name].currsize <= before[name].currsize + 1 for name in memos)


def test_descent_chain_memo_holds_one_element():
    # the report lifts every candidate of one w in a row, so one entry is
    # as good as a memo of all 231 non-identity sigma_S of the D7 spinor
    # nilradical (types A, B and C lift nothing)
    rs = RootSystem(SimpleType("D", 7))
    before = weyl._descent_chain.cache_info()
    report = conjecture_check(rs, 6)
    after = weyl._descent_chain.cache_info()
    assert report.ok() and len(report.rows) == 232
    assert after.misses > before.misses
    assert after.currsize <= 1


def test_counting_keeps_no_process_wide_memo(capsys):
    memos = {(mod, name): f for mod, module in sys.modules.items()
             if mod.startswith("borel_orbits")
             for name, f in vars(module).items() if hasattr(f, "cache_info")}
    rs = build_root_system("C6")
    ideal = anr_ideal(rs, 5)
    keys = set(vars(rs))
    before = {key: f.cache_info().currsize for key, f in memos.items()}
    assert sum(label_counts(rs, ideal)) == 499
    assert anr_statistic(rs, 5).total == 499
    assert main(["count-anr", "C6"]) == 0
    assert main(["orbits", "C6", "--anr", "6", "--count"]) == 0
    capsys.readouterr()
    assert {key: f.cache_info().currsize for key, f in memos.items()} == before
    assert set(vars(rs)) == keys


def test_torus_smith_memo_holds_one_tuple_entry_per_label_and_side():
    # both sides share one entry per (system, label): the dual solve swaps its
    # targets and reads the primal Smith form
    memo = normal_form._torus_smith
    rng = random.Random(4)
    keys = set()
    reductions = 0
    before = memo.cache_info()
    for typ in ("B3", "G2", "A4"):
        rs = build_root_system(typ)
        ideal = max(enumerate_abelian_ideals(rs), key=len)
        for reduce in (reduce_in_ideal, reduce_in_dual):
            for _ in range(40):
                reductions += 1
                support = rng.sample(sorted(ideal), rng.randint(1, len(ideal)))
                s, _ = reduce(rs, ideal, normal_form.random_vector(rs, support, rng))
                keys.add((rs, tuple(sorted(s))))
    after = memo.cache_info()
    # one Smith form per (system, label), never one per reduction
    assert len(keys) < reductions
    assert after.misses - before.misses <= len(keys)
    assert after.currsize - before.currsize <= len(keys)
    for key in keys:
        u, diag, v = memo(*key)
        assert type(diag) is tuple and all(type(x) is int for x in diag)
        # u and v as sparse rows of (index, exponent) pairs
        for m in (u, v):
            assert type(m) is tuple and all(type(row) is tuple for row in m)
            assert all(type(e) is tuple and len(e) == 2 and e[1] for row in m for e in row)
    assert memo.cache_info().misses == after.misses
    # a primal and a dual reduction to one label cost one miss, on a system
    # no other reduction has used
    rs = RootSystem(SimpleType("C", 3))
    ideal = anr_ideal(rs, 2)
    label = lower_canonical(rs, ideal)
    v = {g: Fraction(g + 2) for g in label}
    before = memo.cache_info()
    assert reduce_in_ideal(rs, ideal, v)[0] == reduce_in_dual(rs, ideal, v)[0] == label
    after = memo.cache_info()
    assert after.misses - before.misses == 1 and after.hits - before.hits == 1


def test_validation_memo_holds_one_entry_per_plain_frozenset():
    memo = ideals._validated
    rs = RootSystem(SimpleType("B", 3))  # no other test validates on it
    ideal = max(enumerate_abelian_ideals(rs), key=len)
    before = memo.cache_info()
    a = check_abelian_ideal(rs, frozenset(ideal))
    assert check_abelian_ideal(rs, frozenset(sorted(ideal))) is a
    after = memo.cache_info()
    assert a == ideal and a.mask == ideal.mask and a.rs is rs
    assert after.misses - before.misses == 1 and after.hits - before.hits == 1
    assert after.currsize - before.currsize <= 1
    # a set that fails raises the same message on every call and is not kept
    for roots, message in (([rs.simple_indices[0]], "root set is not upward closed"),
                           (range(rs.num_positive), "ideal is not abelian")):
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                check_abelian_ideal(rs, frozenset(roots))
            assert str(err.value) == message
    assert memo.cache_info().currsize == after.currsize
    # an AbelianIdeal, for this system or another, bypasses the memo
    info = memo.cache_info()
    assert check_abelian_ideal(rs, a) is a
    other = check_abelian_ideal(build_root_system("B3"), a)
    assert other == a and other is not a
    assert memo.cache_info() == info
