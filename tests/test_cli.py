import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from borel_orbits import anr, build_root_system, cli, ideals, normal_form, orbits, suite, weyl
from borel_orbits.chevalley import build_structure_table
from borel_orbits.cli import _resolve_ideal, build_parser, main
from borel_orbits.ideals import AbelianIdeal, check_abelian_ideal
from borel_orbits.root_system import _bits

REPO = Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "schemas"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- a minimal validator for the shipped schemas ----------------------------

def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


def validate(instance, schema, path="$"):
    if "$ref" in schema:
        validate(instance, load_schema(schema["$ref"]), path)
        return
    types = schema.get("type")
    if types is not None:
        if isinstance(types, str):
            types = [types]
        ok = False
        for t in types:
            if t == "object" and isinstance(instance, dict):
                ok = True
            elif t == "array" and isinstance(instance, list):
                ok = True
            elif t == "integer" and isinstance(instance, int) and not isinstance(instance, bool):
                ok = True
            elif t == "string" and isinstance(instance, str):
                ok = True
            elif t == "boolean" and isinstance(instance, bool):
                ok = True
            elif t == "null" and instance is None:
                ok = True
        assert ok, f"{path}: {instance!r} is not of type {types}"
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            assert key in instance, f"{path}: missing required key {key}"
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                validate(instance[key], sub, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for k, item in enumerate(instance):
            validate(item, schema["items"], f"{path}[{k}]")


# -- documented example invocations ------------------------------------------

def test_orbit_count_example(capsys):
    code, out, _ = run_cli(capsys, "orbits", "A5", "--shape", "3,3,1", "--count")
    assert code == 0 and out.strip() == "20"


def test_count_anr_example(capsys):
    code, out, _ = run_cli(capsys, "count-anr", "E7")
    assert code == 0 and out.strip() == "E7 alpha_7: 1 27 135 45 | 208"


def test_dual_example(capsys):
    code, out, _ = run_cli(capsys, "dual", "A5", "--shape", "3,3,1",
                           "--set", "e1-e4,e2-e6")
    assert code == 0 and out.strip() == "e2-e5,e3-e6"


def test_roots_json_schema(capsys):
    code, out, _ = run_cli(capsys, "roots", "B3", "--json")
    assert code == 0
    validate(json.loads(out), load_schema("roots_table.schema.json"))


def test_orbits_json_schema(capsys):
    code, out, _ = run_cli(capsys, "orbits", "A5", "--shape", "3,3,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 20
    for record in data:
        validate(record, load_schema("orbit_record.schema.json"))


def test_cascade_json_schema(capsys):
    code, out, _ = run_cli(capsys, "cascade", "C4", "--json")
    assert code == 0
    data = json.loads(out)
    validate(data, load_schema("cascade.schema.json"))
    assert data["cascade"] == ["2e1", "2e2", "2e3", "2e4"]
    assert data["borel_index"] == 0


def test_count_anr_json_schema(capsys):
    code, out, _ = run_cli(capsys, "count-anr", "D5", "--json")
    assert code == 0
    for table in json.loads(out):
        validate(table, load_schema("count_table.schema.json"))


def test_conjecture_json_schema(capsys):
    code, out, _ = run_cli(capsys, "conjecture-check", "D4", "--node", "1", "--json")
    assert code == 0
    data = json.loads(out)
    validate(data, load_schema("conjecture_report.schema.json"))
    assert data["ok"] is True


def test_conjecture_maximal_ideal_reports_violations(capsys):
    code, out, _ = run_cli(capsys, "conjecture-check", "D4",
                           "--ideal", "e1-e4,e1+e4,e2+e3", "--json")
    assert code == 0
    data = json.loads(out)
    validate(data, load_schema("conjecture_report.schema.json"))
    assert data["ok"] is False
    assert ["e1+e4", "e1-e4", "e2+e3"] in data["formula_violations"]


@pytest.mark.parametrize("name,argv", [
    ("count_anr_E7.csv", ("count-anr", "E7", "--csv")),
    ("count_anr_E6.csv", ("count-anr", "E6", "--csv")),
    ("count_anr_B4.csv", ("count-anr", "B4", "--csv")),
    ("count_anr_C4.csv", ("count-anr", "C4", "--csv")),
    ("orbits_A5_shape331.csv", ("orbits", "A5", "--shape", "3,3,1", "--csv")),
])
def test_golden_csv(capsys, name, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_byte_identical_reruns(capsys):
    first = run_cli(capsys, "orbits", "A5", "--shape", "3,3,1", "--json")
    second = run_cli(capsys, "orbits", "A5", "--shape", "3,3,1", "--json")
    assert first == second


def test_normal_form_cli(capsys):
    code, out, _ = run_cli(capsys, "normal-form", "A5", "--shape", "3,3,1",
                           "--vector", "e1-e4:1,e2-e4:1", "--transcript")
    assert code == 0
    assert "S = {e2-e4}" in out
    code, out, _ = run_cli(capsys, "normal-form", "A5", "--shape", "3,3,1",
                           "--vector", "e1-e6:-3/2", "--dual", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["orth_set"] == ["e1-e6"] and data["normalized"]


def test_hasse_dot_output(capsys):
    code, out, _ = run_cli(capsys, "hasse", "C2", "--node", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "->" in out and "dim" in out


def test_structure_table_cli(capsys):
    code, out, _ = run_cli(capsys, "structure-table", "G2", "--json")
    assert code == 0
    entries = json.loads(out)
    assert {abs(e["n"]) for e in entries} == {1, 2, 3}


def test_ideals_cli(capsys):
    code, out, _ = run_cli(capsys, "ideals", "D4", "--maximal")
    assert code == 0
    assert len(out.strip().splitlines()) == 4
    code, out, _ = run_cli(capsys, "ideals", "A5", "--shape", "3,3,1")
    assert code == 0 and "dim 7" in out


def test_ideals_listing_builds_no_abelian_ideal(capsys, monkeypatch):
    built = []

    def counting_new(cls, *args):
        built.append(cls)
        return frozenset.__new__(cls, *args)

    monkeypatch.setattr(AbelianIdeal, "__new__", counting_new)
    code, out, err = run_cli(capsys, "ideals", "A8")
    assert code == 0 and err == "" and not built
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "13268160d196b3c439e12dc8ea5fcf9dd70b9f2984d23ef04393f847e1fcdde3"
    assert len(ideals.enumerate_abelian_ideals(build_root_system("A8"))) == len(built) == 256


@pytest.mark.parametrize("pieces", [1, 3])
def test_json_batches_write_the_bytes_of_one_dump(capsys, monkeypatch, pieces):
    rs = build_root_system("C4")
    ideal = anr.anr_ideal(rs, 3)
    records = [orbits.orbit_record(rs, ideal, s).to_json(rs)
               for s in orbits.strongly_orth_subsets(rs, ideal)]
    monkeypatch.setattr(cli, "_BATCH", pieces)
    for data in (anr.conjecture_check(rs, 3).to_json(rs), records, [], {}):
        assert cli._print_json(data) == 0
        assert capsys.readouterr().out == json.dumps(data, indent=2, sort_keys=True) + "\n"


# any value the writer takes: str keys; str, int, bool and None leaves,
# strings with control and non-ASCII characters among them
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.text(), st.text(st.characters(max_codepoint=0x1f)))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
        st.lists(st.text(max_size=4), max_size=5),
        st.dictionaries(st.text(max_size=6), children, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    expected = json.dumps(value, indent=2, sort_keys=True)
    assert "".join(cli._json_pieces(value)) == expected
    assert cli._json_text(value, "") == expected
    if isinstance(value, (list, tuple)):
        # an iterator is written as the list of its items
        assert "".join(cli._json_pieces(iter(value))) == expected


@pytest.mark.parametrize("pieces", [1, 3])
def test_json_writer_on_tuple_labels(capsys, monkeypatch, pieces):
    # E-type labels are coefficient tuples, "[0,0,0,0,0,0,1,0]", with
    # brackets and commas inside the strings; json.JSONEncoder is not used
    rs = build_root_system("E6")
    data = [build_structure_table(rs).to_json(), anr.conjecture_check(rs, 0).to_json(rs),
            ["[0,0,0,0,0,0,1,0]", "[1,2,3,4,3,2,1,0]"], ("[0,1]", 2, ["[1,1]"]),
            {"[0,1]": {"[1,0]": []}}]
    expected = [json.dumps(d, indent=2, sort_keys=True) + "\n" for d in data]

    def refuse(*args, **kwargs):
        raise AssertionError("json.JSONEncoder wrote stdout")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    monkeypatch.setattr(cli, "_BATCH", pieces)
    for d, text in zip(data, expected):
        assert cli._print_json(d) == 0
        assert capsys.readouterr().out == text


@pytest.mark.parametrize("value,name", [
    (1.5, "float"), ({1, 2}, "set"), (frozenset(), "frozenset"), (Fraction(1, 2), "Fraction"),
])
def test_json_writer_refuses_other_types(value, name):
    message = f"^Object of type {name} is not JSON serializable$"
    for data in (value, [value], ["x", value], (1, value), {"a": value},
                 {"a": [{"b": value}]}, [[["x", value]]]):
        with pytest.raises(TypeError, match=message):
            "".join(cli._json_pieces(data))


@pytest.mark.parametrize("key", [1, None, True, ("a",), 1.5])
def test_json_writer_refuses_keys_that_are_no_str(key):
    for data in ({key: 1}, [{key: 1}], {"a": {"b": {key: 1}}}):
        with pytest.raises(TypeError):
            "".join(cli._json_pieces(data))


def test_numbering_flag(capsys):
    code, out, _ = run_cli(capsys, "count-anr", "E7", "--numbering", "vinberg")
    assert code == 0 and out.strip() == "E7 alpha_1: 1 27 135 45 | 208"
    code, out, _ = run_cli(capsys, "count-anr", "E6", "--numbering", "vinberg")
    assert code == 0
    assert [line.split(":")[0] for line in out.strip().splitlines()] == \
        ["E6 alpha_1", "E6 alpha_5"]


def test_numbering_reaches_every_node_output(capsys):
    code, out, _ = run_cli(capsys, "count-anr", "E7", "--numbering", "vinberg", "--json")
    assert code == 0 and [t["node"] for t in json.loads(out)] == [1]
    code, out, _ = run_cli(capsys, "count-anr", "E7", "--json")
    assert code == 0 and [t["node"] for t in json.loads(out)] == [7]
    # E6: Bourbaki alpha_6 is Vinberg-Onishchik alpha_5
    code, out, _ = run_cli(capsys, "conjecture-check", "E6", "--node", "5",
                           "--numbering", "vinberg")
    assert code == 0 and out.startswith("E6 node alpha_5:")
    code, out, _ = run_cli(capsys, "conjecture-check", "E6", "--node", "5",
                           "--numbering", "vinberg", "--json")
    assert code == 0 and json.loads(out)["node"] == 5
    code, _, err = run_cli(capsys, "count-anr", "E7", "--node", "2", "--numbering", "vinberg")
    assert code == 1
    assert "alpha_2 is not an abelian-nilradical node of E7; valid nodes: [1]" in err
    code, _, err = run_cli(capsys, "count-anr", "E7", "--node", "2")
    assert code == 1
    assert "alpha_2 is not an abelian-nilradical node of E7; valid nodes: [7]" in err


@pytest.mark.parametrize("argv", [
    ["orbits", "C4", "--anr", "4"],
    ["orbits", "A5", "--shape", "3,3,1"],
    ["orbits", "A5", "--ideal", "e2-e4,e3-e6"],
    ["orbits", "D4", "--max-abelian", "1"],
])
def test_resolved_ideal_is_validated_once(argv):
    args = build_parser().parse_args(argv)
    rs = build_root_system(args.type)
    ideal = _resolve_ideal(rs, args)
    assert check_abelian_ideal(rs, ideal) is ideal


def test_numbering_env_default(capsys, monkeypatch):
    monkeypatch.setenv("BOREL_ORBITS_NUMBERING", "vinberg")
    code, out, _ = run_cli(capsys, "count-anr", "E7")
    assert code == 0 and "alpha_1" in out


def test_domain_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "orbits", "A5", "--shape", "3,3,1",
                           "--ideal", "e1-e6")
    assert code == 1 and "exactly one" in err
    code, _, err = run_cli(capsys, "count-anr", "G2")
    assert code == 1 and "no abelian nilradicals" in err
    code, _, err = run_cli(capsys, "orbits", "A5", "--shape", "3,2,3", "--count")
    assert code == 1
    code, _, err = run_cli(capsys, "conjecture-check", "B3", "--node", "2")
    assert code == 1 and "not an abelian-nilradical node" in err


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_dual_refuses_a_label_that_is_not_strongly_orthogonal(capsys, extra):
    # e1-e3 and e1-e4 differ by the root e3-e4; both output modes refuse them
    code, out, err = run_cli(capsys, "dual", "A3", "--anr", "2",
                             "--set", "e1-e3,e1-e4", *extra)
    assert code == 1 and out == ""
    assert err == "error: e1-e3 and e1-e4 are not strongly orthogonal\n"


@pytest.mark.parametrize("typ,argv,vector", [
    ("G2", ("--max-abelian", "0"), "[3,2]:1"),
    ("G2", ("--max-abelian", "0"), "[2,1]:2, [3,1]:-1/2,[3,2]:5"),
    ("E6", ("--anr", "1"), "[1,0,0,0,0,0]:2,[1,2,2,3,2,1]:-1/3,[1,1,1,1,1,1]:3"),
    ("E6", ("--anr", "6"), "[0,0,0,0,0,1]:1,[0,0,0,1,1,1]:7,[1,1,1,1,1,1]:-2"),
])
@pytest.mark.parametrize("side", [(), ("--dual",)])
def test_normal_form_reads_coefficient_tuples(capsys, typ, argv, vector, side):
    # each tuple is one root, its commas inside the brackets; the label is
    # the library's reduction of the same vector
    rs = build_root_system(typ)
    ideal = _resolve_ideal(rs, build_parser("normal-form").parse_args(
        ["normal-form", typ, *argv, "--vector", vector]))
    vec = {rs.parse_root(root): Fraction(value)
           for root, value in re.findall(r"(\[[^]]*\]):([^,]+)", vector)}
    assert len(vec) == vector.count(":")
    reduce = normal_form.reduce_in_dual if side else normal_form.reduce_in_ideal
    s, transcript = reduce(rs, ideal, vec)
    code, out, err = run_cli(capsys, "normal-form", typ, *argv, "--vector", vector, *side)
    assert (code, err) == (0, "")
    assert out == f"S = {{{cli._labels(rs, s)}}}  (normalized: {transcript.normalized})\n"


def test_normal_form_tuple_and_epsilon_roots_agree(capsys):
    outs = [run_cli(capsys, "normal-form", "A3", "--anr", "2", "--vector", v, "--transcript")
            for v in ("[1,1,0]:1", "e1-e3:1", "[1,1,0]:1,[0,1,1]:-2", "e1-e3:1,e2-e4:-2")]
    assert outs[0] == outs[1] and outs[2] == outs[3]
    assert outs[0][0] == 0 and outs[0][1].startswith("S = {e1-e3}")


def test_normal_form_zero_denominator_exits_1(capsys):
    code, out, err = run_cli(capsys, "normal-form", "A2", "--anr", "1",
                             "--vector", "e1-e2:1/0")
    assert code == 1 and out == ""
    assert err == "error: vector entry 'e1-e2:1/0' has a zero denominator\n"


# sha256 of stdout for paths no other test runs, recorded before the dominance
# tables moved onto RootSystem and maximality became a local test
CLI_OUTPUT_DIGESTS = [
    (("ideals", "B3"), "48633b43db43be68fd72b89592fb8eb1704138b7d9294953055f859c3dc1849c"),
    (("ideals", "B3", "--json"),
     "e0473dc43505e3e3712f1ecfa830b1ef2d5327490853c1db99cf552c3038f076"),
    (("ideals", "E7", "--anr"), "aa18fc6fdd10a59b771cfbad06e5d247172fdc7996bdbb679aef4a7ad41da745"),
    (("cascade", "E8"), "9690085b7235c5601da8c885cd78a9b0f794782981457be1ac657dbb76440ea8"),
    (("structure-table", "G2"), "190bed28107dd3619c93effd4802c7abae02c88555526798f73cbf3d12e38177"),
    (("normal-form", "A5", "--shape", "3,3,1", "--vector", "e1-e4:2,e1-e5:3,e2-e4:-1/2,e3-e6:5",
      "--json", "--transcript"),
     "1d5b88851b3af092457defbd7930c672ff23c79be76fca620df7e6ad9d314c41"),
    (("normal-form", "A5", "--shape", "3,3,1", "--vector", "e1-e4:2,e1-e5:3,e2-e4:-1/2,e3-e6:5",
      "--json", "--transcript", "--dual"),
     "a3cb204f4adfedd61900c8e1b32bc3f6a6fe1615d4e90779a7e206b7419c6af4"),
    # the human report prints one mismatch line per formula violation
    (("conjecture-check", "D4", "--ideal", "e1-e4,e1+e4,e2+e3"),
     "d42bd184b6f7c4102d04c25bada04794c7034dbdedfa097dc0bc829a4915f513"),
    # a coefficient tuple among the generators
    (("orbits", "A3", "--ideal", "[0,1,1],e1-e4", "--count"),
     "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2"),
]


@pytest.mark.parametrize("argv,digest", CLI_OUTPUT_DIGESTS)
def test_cli_outputs_are_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,message", [
    (("orbits", "D4", "--max-abelian", "9"),
     "D4 has 4 maximal abelian ideals, index 9 is out of range"),
    (("orbits", "A3", "--ideal", "e1-e2,e2-e3"), "the generated ideal is not abelian"),
    (("orbits", "A5", "--shape", "5,4"), "the shape [5, 4] ideal is not abelian"),
    (("conjecture-check", "D4"), "specify exactly one of --node (nilradical) or --ideal"),
    (("conjecture-check", "D4", "--node", "1", "--ideal", "e1-e4,e1+e4,e2+e3"),
     "specify exactly one of --node (nilradical) or --ideal"),
    (("dual", "A3", "--anr", "2", "--set", "e1-e2"), "--set must lie inside the chosen ideal"),
    (("normal-form", "A3", "--anr", "2", "--vector", "e1-e3"),
     "vector entry 'e1-e3' is not of the form root:value"),
    (("orbits", "A3", "--ideal", "[1,1", "--count"), "unbalanced coefficient tuple '[1,1'"),
    (("orbits", "A3", "--ideal", "[1,1]", "--count"), "expected 3 coefficients, got 2"),
    (("orbits", "A3", "--ideal", "e9-e1", "--count"), "'e9-e1' is not a positive root of A3"),
    # a root given twice, in either spelling, is refused, not overwritten
    (("normal-form", "A3", "--anr", "2", "--vector", "e1-e3:1,e1-e3:0"),
     "vector entry 'e1-e3:0' repeats the root e1-e3"),
    (("normal-form", "A3", "--anr", "2", "--vector", "e1-e3:1, [1,1,0]:0"),
     "vector entry '[1,1,0]:0' repeats the root e1-e3"),
    (("normal-form", "G2", "--max-abelian", "0", "--vector", "[3,2]:1,[3,2]:2"),
     "vector entry '[3,2]:2' repeats the root [3,2]"),
    # refused from the root count, before the root walk
    (("roots", "A200"), "A200 has 20100 positive roots, more than the 3240 that can be built"),
])
def test_domain_error_messages_are_pinned(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_unknown_numbering_in_environment_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("BOREL_ORBITS_NUMBERING", "foo")
    code, out, err = run_cli(capsys, "count-anr", "E7")
    assert code == 1 and out == ""
    assert err == "error: unknown numbering convention 'foo'\n"


def test_listing_too_many_labels_exits_1(capsys):
    # 54,229,907 labels would exhaust memory; counting them is cheap
    code, out, err = run_cli(capsys, "orbits", "C14", "--anr", "14")
    assert code == 1 and out == ""
    assert err == ("error: the ideal has 54229907 orbit labels, more than the "
                   "1048576 that can be listed; count them instead\n")
    code, out, _ = run_cli(capsys, "orbits", "C14", "--anr", "14", "--count")
    assert code == 0 and out == "54229907\n"


@pytest.mark.parametrize("argv, typ, count", [
    (("ideals", "A30"), "A30", 1 << 30),
    (("ideals", "A19", "--maximal"), "A19", 1 << 19),
    (("orbits", "A30", "--max-abelian", "0", "--count"), "A30", 1 << 30),
])
def test_listing_too_many_abelian_ideals_exits_1(capsys, argv, typ, count):
    # a rank-n type has 2^n abelian ideals; none is listed above 2^18
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (f"error: {typ} has {count} abelian ideals, more than the "
                   "262144 that can be listed\n")


def test_abelian_ideal_cap_is_checked_before_listing(capsys, monkeypatch):
    monkeypatch.setattr(ideals, "MAX_IDEALS", 15)
    code, out, err = run_cli(capsys, "ideals", "A4", "--maximal")
    assert code == 1 and out == ""
    assert err == "error: A4 has 16 abelian ideals, more than the 15 that can be listed\n"
    monkeypatch.setattr(ideals, "MAX_IDEALS", 16)
    code, out, _ = run_cli(capsys, "ideals", "A4")
    assert code == 0 and len(out.splitlines()) == 16


def test_counting_too_many_states_exits_1(capsys, monkeypatch):
    # the E7 nilradical's counter needs 140 memo states
    monkeypatch.setattr(orbits, "MAX_COUNT_STATES", 139)
    for argv in (("count-anr", "E7"), ("orbits", "E7", "--anr", "7", "--count"),
                 ("orbits", "E7", "--anr", "7")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == ("error: counting the orbit labels needs more than 139 memo "
                       "states; the ideal is too large to count\n")
    monkeypatch.setattr(orbits, "MAX_COUNT_STATES", 140)
    code, out, _ = run_cli(capsys, "orbits", "E7", "--anr", "7", "--count")
    assert code == 0 and out == "208\n"


@pytest.mark.parametrize("typ, node, shape", [
    ("A5", 3, "3,3,3"),
    ("A9", 4, "6,6,6,6"),
    ("A23", 12, ",".join(["12"] * 12)),
])
def test_shape_of_a_nilradical_counts_as_its_node(capsys, typ, node, shape):
    # the closed form is found from the ideal's mask, however it was given
    counts = [run_cli(capsys, "orbits", typ, *spec, "--count")
              for spec in (("--anr", str(node)), ("--shape", shape))]
    assert counts[0] == counts[1]
    assert counts[0][0] == 0 and counts[0][2] == ""
    rs = build_root_system(typ)
    ideal = ideals.ideal_from_shape(rs, [int(r) for r in shape.split(",")])
    assert anr.closed_form_counts(rs, ideal) is not None
    assert counts[0][1] == f"{sum(orbits.label_counts(rs, ideal))}\n"


def test_counting_a_nilradical_at_rank_40_skips_the_counter(capsys, monkeypatch):
    monkeypatch.setattr(orbits, "MAX_COUNT_STATES", 0)
    code, out, err = run_cli(capsys, "orbits", "A40", "--anr", "20", "--count")
    assert (code, out, err) == (0, "8281153039765859726341\n", "")
    # an ideal with no closed form still goes through the capped counter
    code, out, err = run_cli(capsys, "orbits", "A40", "--shape", "20,20", "--count")
    assert code == 1 and out == ""
    assert err == ("error: counting the orbit labels needs more than 0 memo "
                   "states; the ideal is too large to count\n")


def test_report_too_many_labels_exits_1(capsys, monkeypatch):
    # the E7 nilradical has 208 orbit labels
    monkeypatch.setattr(anr, "MAX_REPORT_LABELS", 207)
    for argv in (("conjecture-check", "E7", "--node", "7"), ("hasse", "E7", "--node", "7")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == ("error: the ideal has 208 orbit labels, more than the 207 "
                       "that a conjecture report can order\n")
    monkeypatch.setattr(anr, "MAX_REPORT_LABELS", 208)
    for argv in (("conjecture-check", "E7", "--node", "7"), ("hasse", "E7", "--node", "7")):
        assert run_cli(capsys, *argv)[0] == 0


def test_report_refuses_c10_before_building(capsys):
    # 123,109 labels: about 7.6e9 pairs, refused from the count alone
    code, out, err = run_cli(capsys, "conjecture-check", "C10", "--node", "10")
    assert code == 1 and out == ""
    assert err == ("error: the ideal has 123109 orbit labels, more than the 32768 "
                   "that a conjecture report can order\n")


@pytest.mark.parametrize("argv,digest", [
    (("C6", "--node", "6"),
     "b5bcac6f3af7d142cca64658ade1be8ef7de1f2826a4b193b62cdfe1ce7030e1"),
    (("E7", "--node", "7"),
     "68e78049504326931a44683896ad8ddc366ad30d11a3751547fc8291b7ef67c4"),
    (("D4", "--ideal", "e1-e4,e1+e4,e2+e3"),
     "099f3530ca7a71ae9f9c3fed9ab57321a0107147fd4974994f7de091fff2c32e"),
], ids=["C6", "E7", "D4-ideal"])
def test_conjecture_report_bytes_are_pinned(capsys, argv, digest):
    # the reports as pairwise Bruhat lifting printed them
    code, out, err = run_cli(capsys, "conjecture-check", *argv, "--json")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("C8", "--anr", "8", "--csv"),
     "c79f37737f9478f288c8343d9c464d71d6b18e2949947b497890bb6e3d879727"),
    (("E7", "--anr", "7", "--dims", "--dual"),
     "5527097a9b9fbfa7dbce8a78fdf342a31a0d4f2bdf34fa648ea2b0fb513efaa1"),
], ids=["C8-csv", "E7-text"])
def test_orbit_table_bytes_are_pinned(capsys, argv, digest):
    # the tables as full orbit records printed them
    code, out, err = run_cli(capsys, "orbits", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _table_from_records(rs, ideal):
    """The --csv and --dims --dual lines rendered from full orbit records."""
    def show(roots):
        return ",".join(rs.sorted_labels(roots))

    records = [orbits.orbit_record(rs, ideal, s)
               for s in orbits.strongly_orth_subsets(rs, ideal)]
    csv = ["orth_set,size,dim_in_a,dim_in_a_star,dual"] + [
        f'"{show(r.orth_set)}",{len(r.orth_set)},{r.dim_in_a},{r.dim_in_a_star},'
        f'"{show(r.dual)}"' for r in records]
    text = [f"{rs.type}, ideal of dim {len(ideal)}: {len(records)} orbits"] + [
        f"  {{{show(r.orth_set)}}}  dim {r.dim_in_a}, dual dim {r.dim_in_a_star}"
        f"  dual {{{show(r.dual)}}}" for r in records]
    return csv, text


def _nilradicals():
    # every abelian nilradical of rank <= 6 (E6 at nodes 1 and 6), and E7 node 7
    for typ in suite.all_types(6):
        rs = build_root_system(typ)
        for node in anr.anr_nodes(rs):
            yield typ, node + 1
    yield "E7", 7


@pytest.mark.parametrize("typ,node", list(_nilradicals()))
def test_orbit_table_lines_match_orbit_records(capsys, typ, node):
    rs = build_root_system(typ)
    csv, text = _table_from_records(rs, anr.anr_ideal(rs, node - 1))
    code, out, err = run_cli(capsys, "orbits", typ, "--anr", str(node), "--csv")
    assert code == 0 and err == "" and out.splitlines() == csv
    code, out, err = run_cli(capsys, "orbits", typ, "--anr", str(node), "--dims", "--dual")
    assert code == 0 and err == "" and out.splitlines() == text


def test_orbit_table_makes_no_weyl_call(capsys, monkeypatch):
    rs = build_root_system("C5")
    ideal = anr.anr_ideal(rs, 4)
    csv, text = _table_from_records(rs, ideal)
    # records in types A to D, and reports in types A, B and C, read sigma_S's
    # length off the packed table and order it by vectors read off S
    runs = [("orbits", typ, "--anr", node, "--json")
            for typ, node in [("A5", "3"), ("B5", "1"), ("C5", "5"), ("D5", "5")]] + [
        ("conjecture-check", "C5", "--node", "5", "--json"),
        ("conjecture-check", "B5", "--node", "1", "--json"),
        ("conjecture-check", "A5", "--node", "3", "--json")]
    expected = {argv: run_cli(capsys, *argv) for argv in runs}
    dense = orbits.lower_canonical(rs, ideal)
    dense_length = weyl.length(rs, weyl._sigma_element(rs, dense))

    def refuse(*args):
        raise AssertionError("the orbit table called into the Weyl group")

    for name in ("sigma_of_orth_set", "_sigma_element", "length", "_reflection_table"):
        monkeypatch.setattr(weyl, name, refuse)
    code, out, err = run_cli(capsys, "orbits", "C5", "--anr", "5", "--csv")
    assert code == 0 and err == "" and out.splitlines() == csv
    code, out, err = run_cli(capsys, "orbits", "C5", "--anr", "5", "--dims", "--dual")
    assert code == 0 and err == "" and out.splitlines() == text
    for argv, before in expected.items():
        assert before[0] == 0 and run_cli(capsys, *argv) == before, argv
    assert orbits.orbit_record(rs, ideal, ()).sigma_length == 0
    assert orbits.orbit_record(rs, ideal, dense).sigma_length == dense_length


@pytest.mark.parametrize("typ,node", [("A7", 4), ("B5", 1), ("C6", 6), ("D6", 6), ("D6", 1),
                                      ("E6", 1), ("E7", 7)])
def test_orbit_records_match_orbit_record(capsys, typ, node):
    # orbits --json reads each root set's labels through a memo keyed by mask;
    # orbit_record builds one record on its own
    rs = build_root_system(typ)
    ideal = anr.anr_ideal(rs, node - 1)
    records = [orbits.orbit_record(rs, ideal, s).to_json(rs)
               for s in orbits.strongly_orth_subsets(rs, ideal)]
    code, out, err = run_cli(capsys, "orbits", typ, "--anr", str(node), "--json")
    assert code == 0 and err == ""
    assert json.loads(out) == records
    built = list(orbits._records_json(rs, orbits._table_rows(
        rs, ideal, orbits._label_masks(rs, ideal))))
    assert built == records
    # every entry holds its own lists
    lists = [v for r in built for v in r.values() if isinstance(v, list)]
    assert len({id(v) for v in lists}) == len(lists)


# sha256 of `roots T` and `structure-table T --json` for every type of rank
# <= 8, recorded before norms, inner products and coroots came from the
# integer coroot table; the roots text shows which roots are long
ROOT_TABLE_DIGESTS = {
    "A1": ("7dd500776c6695a4b7a8547951e7b2189b8d9a6d239e23aa966f4e4886f92c99",
           "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    "A2": ("1974b2579a21d881587fb153eba1821d0ee2c0a1623b8dd0b61373ae15cca15b",
           "cad65b8e93623d859580fd2d38620532c693341fd8798ac346cf85578bf72637"),
    "A3": ("606d55112fa3a37c7782953607975f207813de78408bddf2c7d468f1a801166c",
           "e4835bfb575d19d25ec70663b6a3a84c503ce5251f3a794f5398df23cf859f93"),
    "A4": ("bbe56af56cff78e8a1d64b9e14b3375fa576c8b9bc21cec8de7123211fcc55a8",
           "a36f54089bdf11040fa13db2c16858a7f4c5b34db616354acc190c160b034a64"),
    "A5": ("df5d54d6285becc4eea95f531f976756f44a8f1aeeeac4ae42ba143b752fbffe",
           "12d29b90321714b05dd37fb8780425b771c01fc0eaf6ef9a9660ba7edd88e9a6"),
    "A6": ("3d6ff65b8519d49330007834d88a1efe43b41d3c2200ab4cf2df4dc030f57d09",
           "37fd7d65f0be5712c2666d564bef7f6d4bb24691c3a28a1a88eef2f9cc16128f"),
    "A7": ("01d747d7c67c9584b38776c852c3e74a8a406ff76bd5805919ef6bbc8012167c",
           "bf6464fd6c6afcedbd67ceffc502db3ecd214e8de59591303bea3daf1ab2bbcd"),
    "A8": ("29b30f048dd407d8123bc874917de9316a394ae1593a16b50dff48064cca300d",
           "62e90d69bdacfb29b259cbaf30d4cd6ae55787a74a34cb0212ab750923f1e073"),
    "B2": ("422041f94fdb5a94a5cddcb19efd3a6c34202c9c962f0136c3f75b14ed7dc209",
           "8e370ec9e7892ac8e802b972a12dc159dfc3201f7c06a9c006b01fadb2492f67"),
    "B3": ("647c39b43f7f6c0e0d1cee3a39639dd9521a2c8096cfd7110770c960fae695eb",
           "2cc6fe026fe503c2c0ea4516ec16b88e4895cc66374951a269154278f84de109"),
    "B4": ("2d023dd474d9917e5e8f99fb6b0faec5c9dcd3363e5276aa1f387cf1eb9d6f56",
           "66554f2882dbd40c2ad64188c5365c52250510c55893caa3a5798f0a873bf70f"),
    "B5": ("8e05b34033fbe8e471dfe38a0ed5292440ea45073db35649cf273df2a444ece7",
           "463e5c88f1803953514fdfe9ca910f8a335681996310ef9928408b5b72812215"),
    "B6": ("1e64eb98d8ce29d9da4850bb15e0f3cc298490069462b59ba827f781e93fa4e9",
           "ec2dc8db19a58c7991627973dbaadc8b564ddf3a3aafeb588aa3b3a2789b97cc"),
    "B7": ("de69e0c4e9bedd457cd19a49425a177c825ef47629339e43759eeef01a7d8666",
           "2ac5ce637aaca5996064f7bf05decb6d6ea9bb517e61395d12c9a5de4f71bc65"),
    "B8": ("e0b5da3a6406b588a933a805a96aa2e080aa894e385de965195e11e2d4470d3f",
           "d9c25722ff9eb9843921162e876271d54ded9dc45925ce27f0a63f1db46ac411"),
    "C2": ("d6107aa15957b4ca4ad57bc12a84466b1579e95047a8b6944f9b2fd388c48e05",
           "cbf05e9fa778a678b0af73124e11fc43e810f258fc04d7565e94f211a18d77a2"),
    "C3": ("3583df46680d3f1833ccaa9455d7aadded458de8490246520224691597edcf87",
           "9c7caf4d59aad4960511a138dd1da010a631605ee90a93a65ce9511c79ab1f4e"),
    "C4": ("46e38a9ece606b3e91871693d7c15c5463f129e008c5d4e2daff173d5883b08d",
           "f7f26076ef3376e935de777729db7bf390e44a99a3bdeaad564e98f3a200cbd0"),
    "C5": ("6ced9b1447ec5d520d79a8553f6c8460b39cb88bb58bdcf08c76fa812ba26cf9",
           "7cd821be42c43b85abdf167e525e69fd508e2f1f28d822fb99f404415be64af4"),
    "C6": ("811edda9a8af8006c2cfa953a56e27e5aaae215f5ba213519329922b3431ccdd",
           "7f034435f07ac2cc2d2d3d4018a549e9d14daf6c0299723a93e4919621044671"),
    "C7": ("d60246573781a47b071c1999ab4c7f6cd26643cbedf8f77113bb9df7799c042c",
           "02b12a81e1d1c13abffe5628a1103a5886e4a92d27fd8ae1434116ed90e27a8b"),
    "C8": ("a114e597823a6843269780f37437cf19e951d91a9972b11c912c2af3476e64a2",
           "51f60c53e12c7e170c469596f7d02583f00f66cf4d73e0264c84a8cdf433836f"),
    "D3": ("9aa2c0a86f68af3f9291d2f71b935899272d2c5eac80910d3a2d0c7b464e2d33",
           "802653392e88030253358818b36028c3860349b102507be14afe4be5c802f609"),
    "D4": ("24f9c564baf290557d60d24c224c7584fedff15c01509c665cdb1f88eb050804",
           "0deb0165655d7cb9f99f888c6e6676bd1cb9710386bb2d0efcb485adcf49e2f4"),
    "D5": ("4461c4223ec4739cb9a16a29f9411d1335d8316da52d81df71dcfd08faf7003d",
           "8c477a4b4f8d7afe620a53e78b282eb23f0e066bd0d04fe7bc4ce84606a0ca57"),
    "D6": ("193b4469e2f5e06ed777a61ba01c47065df736a612608cca9e936104a49202ad",
           "b9dbe5201f92718ba56f636466a75e8c1e852250e79b164aa2f1952b6cb29926"),
    "D7": ("eac3daf11a3ec786d357cd4959d2a298ac204c11726cb12541437410b64fd938",
           "18f367652f3e49e95c1aa12d4c8822706d61ff1cdc54ac520025b8cd1c2b56d8"),
    "D8": ("52a93b5d04d28334d6d23b62220f74f28a36c32cd3eb9e57c368fc3db0af59c2",
           "ae8535966594a3ebfbc59a6457596a9fd030fae491cf5e44f9c61cb9097d8e83"),
    "E6": ("6c5c69cc8021345f57a6d25a4cb0e3cd75eed7abff4b1e35ff310c039f402987",
           "5f949e1a7aa99c5138b89c15be582d908fe594d4c375c6a0462168fdcf0074b1"),
    "E7": ("598fa98fdb9683780df52ddd375a3fba20c7a8e39ef01c3f8b6b00982b062727",
           "cefe40d22f9067e7a70932de7507557f5c9c8c730d5a0340766550eff31c4eca"),
    "E8": ("0d264e7be29c166598a436bca2b029b653a8e50ea9b38a755a17c151a0c56494",
           "0245ddd4a78f990b09bdacd02fd33f19374854905566770cb2de438b262ce6fe"),
    "F4": ("fb1920a7899c3a158a4dae9f0281ff31534ffd6e5175c27bd3f4a87b1b73f11e",
           "f2967c79f39afa0a2a6f6f4c4ed2c583f805ef093526fa3021bcf7afdb19c05b"),
    "G2": ("851e521758ff372faa388a92d0e5a8e9a834f7f74bc03989c5b9793b8fbd193e",
           "71f06c0ea77f39317a2ce0bf3859e1626ffbfca15312da0935ee1467a79b0848"),
}


@pytest.mark.parametrize("typ", sorted(ROOT_TABLE_DIGESTS))
def test_root_and_structure_tables_are_pinned(capsys, typ):
    for command, digest in zip((("roots", typ), ("structure-table", typ, "--json")),
                               ROOT_TABLE_DIGESTS[typ]):
        code, out, err = run_cli(capsys, *command)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


# sha256 of `roots T --json` (cartan, theta, every root's coefficients and
# epsilon label), recorded from the earlier construction of each root system
# from epsilon coordinates: an oracle independent of the Cartan matrix
ROOTS_JSON_DIGESTS = {
    "A1": "d49d7af3fb23907068ed99282be8ca6c731826907ff487c93605b3d8aa190c9c",
    "A2": "e64c4783e4230516b3cce3fb3c576ed8e776cc60cc68b8f44c761d5149993537",
    "B2": "ba6bed4e84b5df637c865f151d5aa5a577f598c7cf50000fd9e0cce6f378441f",
    "C2": "2defba8d15f81255091815e97e9faf8e408571f13ac79899c06b7186b9d5988c",
    "G2": "0e15105c3eb26b64f7caa6a772e97f2c2b1cd27819d00eefb7edde019e98d24c",
    "A3": "6edfecef9537256ceb06b8fb65ec36b108717aa17dde003c16114c3bcbdb09cc",
    "B3": "87dbd0c91db5a555b460a1476f21a164dda97c02107d8de34d27f2a8fead3729",
    "C3": "394a4fa47ac608489b262d3ae611e57f92a7cf0ac6fb926d86fb47c717cc6315",
    "D3": "d3a6828ada8c8c49f8ab6472c94a3e20ac108cf6517658ceb5e217e4b5284e7c",
    "A4": "917284aef10fe0e14f2368c092fd99615b90ba968b922ae1556aff048c75f697",
    "B4": "c74a63164a7429927135e5e7ca284cdcc0deee88677125a61a7f5ef9109c4526",
    "C4": "593f204f9dccb9355da02b792a4a7b5d5dd641472f7e4d8f34df9866c46f9ba4",
    "D4": "c92d0775cb11fafa8b4143d024c481bdf2994e24a8f1743b58b4b5331c208664",
    "F4": "55977ad5dfaf0e24cb1cccd91a57332e9e89b91e4b9dda8667e2b5373c60e418",
    "A5": "c91e4ecda6c0b28fb8b083d3055f95a471d705b75871c998462c1ea321a691c9",
    "B5": "932b4b2928a72dd9d44d50aaade7952770d3ed612e8146eabcf7650095612424",
    "C5": "5c788a4db9e2dd33828825b49d8c8d1e03db0a659574124058645c18bcb982fc",
    "D5": "8e41d2421f957a8d4be1f15a07ea020c7b4077110a5eb54c08288435c3019aa4",
    "A6": "78ac0f24796866757dd63d4b571742471223f9574c687d876b7e32c8b3dc91c3",
    "B6": "fee244c0f3263be9fd61de7b34eb21d356cf502b0b937398d4601f9ebfaf31e5",
    "C6": "f5628e1efd7f03a5c89b204e2ca70863f605684be66504bdeb6b2f52650289b9",
    "D6": "f79f988fe8ac5f849f022026f8bfd687e8cc68e9d8b9486ece9974084c3e3ffe",
    "E6": "35dc0202ad7d50a8ed2c996560239c361ceb46060dd75375e0152c8178d52531",
    "A7": "ca4886a03b6ceb0fc2ee4b3804b6d09a679105550267a578c83571bfa1ee7f25",
    "B7": "f84df511aa23388d90aad971049835ed15b4bc1d96dbec5577ce60756f1cc81c",
    "C7": "2424a5f312832a7e1908b07dd5c2a0803639b33374db40bd2623d05369afafad",
    "D7": "1ffb951074b5843bf20c4daa3ecf7ad9f3dae1f75a91b244255fc2bd52cb7488",
    "E7": "fe52020002ff525ea19b9d26d2fdb664508b872e593d419b7936586cc0a1e27e",
    "A8": "efeb4d08423284c461452f8316fe5982bbec0c07dc65e7c5f3e97259b50cd8d3",
    "B8": "324d397e494d7e191a94332cb8287af1e483a85f3a7ce4a161c6050893ba2f89",
    "C8": "86336dc14fc8b7db8b7f128e0c496d7b1f621f2d6c6c527641544233cca47071",
    "D8": "17cbc36abd47cebafe55d5f771d93544c9b3b2118910ee13dd76d5d9492e82c2",
    "E8": "8fff4a247045cd9e0dc392818696fc4d1725a06a176dc661a33b750c4b706a7f",
    "A40": "5c078745aa672578297d6372021df529ee775280e93aa4c8ddbb5e3f41fcf1af",
    "D30": "4d5004f9a39427a8ee4020be3c297e0c47c67acd5155d7d508995b7fb3d1c0f1",
}


@pytest.mark.parametrize("typ", sorted(ROOTS_JSON_DIGESTS))
def test_roots_json_is_pinned(capsys, typ):
    code, out, err = run_cli(capsys, "roots", typ, "--json")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == ROOTS_JSON_DIGESTS[typ]


def test_usage_errors_exit_2(capsys):
    for argv in (
        ("no-such-command",),
        # conflicting flags: each group picks one listing or one output format
        ("ideals", "A3", "--shape", "2,1", "--maximal"),
        ("ideals", "A3", "--abelian", "--anr"),
        ("orbits", "A3", "--anr", "2", "--count", "--json"),
        ("orbits", "A3", "--anr", "2", "--json", "--csv"),
        ("orbits", "A3", "--anr", "2", "--count", "--csv"),
        # --dims and --dual shape only the text table
        ("orbits", "A3", "--anr", "2", "--count", "--dims", "--dual"),
        ("orbits", "A3", "--anr", "2", "--count", "--dims"),
        ("orbits", "A3", "--anr", "2", "--json", "--dims"),
        ("orbits", "A3", "--anr", "2", "--json", "--dual"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and "usage:" in out.err, argv


# help and argparse errors of the parser that built every subcommand's
# arguments on each call, recorded on the Python version named in the file
CLI_USAGE = json.loads((GOLDEN / "cli_usage.json").read_text())


def run_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return {"argv": list(argv), "code": exc.value.code, "out": out.out, "err": out.err}


def test_usage_and_help_match_the_full_parser(capsys, monkeypatch):
    # -h/--help for the program and every subcommand, unknown and missing
    # commands, missing arguments and conflicting flags
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [case["argv"] for case in CLI_USAGE["cases"]]
    assert {argv[0] for argv in argvs if argv[1:] == ["--help"]} == \
        {name for name, _, _ in cli._SUBCOMMANDS}
    lazy = [run_usage(capsys, argv) for argv in argvs]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert lazy == [run_usage(capsys, argv) for argv in argvs]
    if "%d.%d" % sys.version_info[:2] == CLI_USAGE["python"]:
        assert lazy == CLI_USAGE["cases"]


def test_only_the_chosen_subcommand_gets_arguments(capsys, monkeypatch):
    called = []

    def spy(name, options):
        def add(p):
            called.append(name)
            options(p)
        return add

    monkeypatch.setattr(cli, "_SUBCOMMANDS", tuple(
        (name, help_text, spy(name, options)) for name, help_text, options in cli._SUBCOMMANDS))
    assert run_cli(capsys, "count-anr", "E7", "--node", "7")[0] == 0
    assert called == ["count-anr"]
    called.clear()
    run_usage(capsys, ["--help"])
    assert called == [name for name, _, _ in cli._SUBCOMMANDS]


def test_suite_is_imported_only_for_paper_suite():
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import sys; from borel_orbits.cli import main; "
            "assert main(['count-anr', 'E7']) == 0; "
            "assert 'borel_orbits.suite' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"E7 alpha_7: 1 27 135 45 | 208\n"


@pytest.mark.parametrize("fmt", [["--csv"], ["--json"], ["--dims", "--dual"], []],
                         ids=["--csv", "--json", "--dims --dual", "plain"])
def test_closed_pipe_exits_quietly(fmt):
    # a reader that stops after one line, as `| head -1` does; the output
    # is far larger than a pipe's buffer, so the writer meets the closed pipe
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "borel_orbits", "orbits", "C8", "--anr", "8", *fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path))
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first in (b"orth_set,size,dim_in_a,dim_in_a_star,dual\n", b"[\n",
                     b"C8, ideal of dim 36: 7193 orbits\n")
    assert err == b""


def test_each_orbit_format_walks_the_labels_once(capsys, monkeypatch):
    # C8 node 8 has a closed form, so no format runs the counter; each listing
    # enumerates its labels once, and every table, the JSON records included,
    # reads one pass of the row generator, never the single-label path
    def refuse(*args):
        raise AssertionError("the counter or the single-label path ran")

    calls = []

    def counted(name):
        f = getattr(orbits, name)
        return lambda *args: calls.append(name) or f(*args)

    monkeypatch.setattr(orbits, "_count_labels", refuse)
    monkeypatch.setattr(orbits, "_label", refuse)
    for name in ("_label_masks", "_table_rows"):
        monkeypatch.setattr(orbits, name, counted(name))
    for fmt, walks in [((), ["_label_masks"]), (("--count",), [])] + [
            (f, ["_label_masks", "_table_rows"])
            for f in (("--csv",), ("--dims",), ("--dual",), ("--json",))]:
        calls.clear()
        code, out, err = run_cli(capsys, "orbits", "C8", "--anr", "8", *fmt)
        assert (code, err) == (0, ""), fmt
        assert calls == walks, fmt
        if not fmt:
            assert out.count("\n") == 7194  # the header and the 7,193 labels


@pytest.mark.parametrize("batch", [2, 3])
def test_orbit_listings_across_batches(capsys, monkeypatch, batch):
    # every orbit listing, written a few lines per batch, against one line
    # per row built from the row generator and the label strings
    rs = build_root_system("A5")
    ideal = check_abelian_ideal(rs, ideals.ideal_from_shape(rs, [3, 3, 1]))
    labels = orbits._label_masks(rs, ideal)
    rows = list(orbits._table_rows(rs, ideal, labels))

    def names(mask):
        return cli._labels(rs, _bits(mask))

    def dims(ss, m_up, m_down):
        k = ss.bit_count()
        return k, k + m_up.bit_count(), k + m_down.bit_count()

    head = f"A5, ideal of dim 7: {len(labels)} orbits\n"
    expected = {
        (): head + "".join(f"  {{{names(ss)}}}\n" for ss in labels),
        ("--csv",): "orth_set,size,dim_in_a,dim_in_a_star,dual\n" + "".join(
            f'"{names(ss)}",{k},{a},{b},"{names(d)}"\n'
            for ss, up, down, _, d in rows for k, a, b in [dims(ss, up, down)]),
        ("--dims", "--dual"): head + "".join(
            f"  {{{names(ss)}}}  dim {a}, dual dim {b}  dual {{{names(d)}}}\n"
            for ss, up, down, _, d in rows for _, a, b in [dims(ss, up, down)]),
        ("--json",): json.dumps([orbits.orbit_record(rs, ideal, s).to_json(rs)
                                 for s in orbits.strongly_orth_subsets(rs, ideal)],
                                indent=2, sort_keys=True) + "\n",
    }
    writes = []
    monkeypatch.setattr(cli, "_BATCH", batch)
    monkeypatch.setattr(sys.stdout, "write", lambda text, write=sys.stdout.write:
                        writes.append(text) or write(text))
    for fmt, text in expected.items():
        writes.clear()
        code, out, err = run_cli(capsys, "orbits", "A5", "--shape", "3,3,1", *fmt)
        assert (code, out, err) == (0, text, "")
        if "--json" not in fmt:
            # the header and one line per label, batch lines to a write
            n = len(labels) + 1
            assert [w.count("\n") for w in writes] == \
                [batch] * (n // batch) + [n % batch] * (n % batch > 0)


def test_paper_suite_filter(capsys):
    code, out, _ = run_cli(capsys, "paper-suite", "--only", "d4-counterexample")
    assert code == 0
    assert out.strip().startswith("PASS")
    code, out, _ = run_cli(capsys, "paper-suite", "--only", "no-such-item")
    assert code == 1


def test_paper_suite_seeded_rerun_identical(capsys):
    first = run_cli(capsys, "paper-suite", "--only", "9", "--seed", "42")
    second = run_cli(capsys, "paper-suite", "--only", "9", "--seed", "42")
    assert first == second
