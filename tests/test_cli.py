import hashlib
import json
import os
from pathlib import Path

import pytest

from borel_orbits import anr, build_root_system, orbits
from borel_orbits.cli import _resolve_ideal, build_parser, main
from borel_orbits.ideals import check_abelian_ideal

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


def test_normal_form_zero_denominator_exits_1(capsys):
    code, out, err = run_cli(capsys, "normal-form", "A2", "--anr", "1",
                             "--vector", "e1-e2:1/0")
    assert code == 1 and out == ""
    assert err == "error: vector entry 'e1-e2:1/0' has a zero denominator\n"


def test_listing_too_many_labels_exits_1(capsys):
    # 54,229,907 labels would exhaust memory; counting them is cheap
    code, out, err = run_cli(capsys, "orbits", "C14", "--anr", "14")
    assert code == 1 and out == ""
    assert err == ("error: the ideal has 54229907 orbit labels, more than the "
                   "1048576 that can be listed; count them instead\n")
    code, out, _ = run_cli(capsys, "orbits", "C14", "--anr", "14", "--count")
    assert code == 0 and out == "54229907\n"


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
    assert err == ("error: the ideal has 123109 orbit labels, more than the 8192 "
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


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


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
