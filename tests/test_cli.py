import json

import pytest

from germkit import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_catalog_semigroup(capsys):
    code, out, _ = run(capsys, "validate", "catalog:z2")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["size"] == 2
    # catalog names are case-insensitive
    assert run(capsys, "validate", "catalog:Z2")[0] == 0


def test_validate_bad_table_exit_1(capsys, tmp_path):
    doc = {"schema": "semigroup", "version": 1, "elements": ["x", "y"], "table": [[0, 0], [1, 1]]}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 1
    assert not json.loads(out)["ok"]


def test_validate_unreadable_file_is_input_error(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2
    rep = json.loads(out)
    assert rep["kind"] == "input" and "cannot read" in rep["error"]


def test_ragged_table_is_input_error(capsys, tmp_path):
    doc = {"schema": "semigroup", "version": 1, "elements": ["x", "y"], "table": [[0, 1], [1]]}
    f = tmp_path / "ragged.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 2
    assert "row 1" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("table", [[0, 1], [1, 1.0]], "row 1, column 1 is 1.0"),
        ("table", [[0, "1"], [1, 0]], 'row 0, column 1 is "1"'),
        ("table", [[0, 1], [None, 0]], "row 1, column 0 is null"),
        ("table", [[0, True], [1, 0]], "row 0, column 1 is true"),
        ("table", 7, "table is not a list"),
        ("elements", ["x", ["y"]], "element 1 is an array"),
        ("elements", 2, "elements is not a list"),
    ],
)
def test_malformed_semigroup_document_is_input_error(capsys, tmp_path, field, value, where):
    doc = {"schema": "semigroup", "version": 1, "elements": ["x", "y"], "table": [[0, 1], [1, 0]]}
    doc[field] = value
    f = tmp_path / "malformed.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 2
    rep = json.loads(out)
    assert rep["kind"] == "input" and where in rep["error"]


def test_unknown_schema_tag(capsys, tmp_path):
    f = tmp_path / "odd.json"
    f.write_text(json.dumps({"schema": "mystery", "version": 1}))
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 2


def test_json_syntax_error_carries_position(capsys, tmp_path):
    f = tmp_path / "syntax.json"
    f.write_text('{"schema": "semigroup",\n  "version": ]')
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 2
    assert "line 2" in json.loads(out)["error"]


def test_unknown_field_strict_vs_lenient(capsys, tmp_path):
    doc = {
        "schema": "semigroup",
        "version": 1,
        "elements": ["1"],
        "table": [[0]],
        "note": "hi",
    }
    f = tmp_path / "extra.json"
    f.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "validate", str(f))
    assert code == 2
    code, _, err = run(capsys, "--lenient", "validate", str(f))
    assert code == 0
    assert "warning" in err


def test_verify_steinberg_crossed_report(capsys):
    code, out, _ = run(capsys, "verify", "steinberg-crossed", "catalog:munn-chain2", "--ring", "Q")
    assert code == 0
    rep = json.loads(out)
    assert rep["dims"] == {"L": 3, "N": 1, "quotient": 2, "steinberg": 2}


def test_verify_steinberg_crossed_z5(capsys):
    code, out, _ = run(capsys, "verify", "steinberg-crossed", "catalog:z2-swap", "--ring", "Zp:5")
    assert code == 0


def test_verify_steinberg_crossed_over_z(capsys):
    code, out, _ = run(capsys, "verify", "steinberg-crossed", "catalog:munn-chain2", "--ring", "Z")
    assert code == 0
    assert json.loads(out)["dims"] == {"L": 3, "N": 1, "quotient": 2, "steinberg": 2}


def test_graph_analyze_loop(capsys):
    code, out, _ = run(capsys, "graph", "analyze", "catalog:loop")
    assert code == 0
    rep = json.loads(out)
    assert rep["condition_L"] is False and rep["top_principal"] is False


def test_germs_subcommand(capsys):
    code, out, _ = run(capsys, "germs", "catalog:munn-chain2")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "groupoid"
    assert len(rep["arrows"]) == 2


def test_maxgroup_and_exel(capsys):
    code, out, _ = run(capsys, "maxgroup", "catalog:sz2")
    assert code == 0
    assert len(json.loads(out)["group_elements"]) == 2
    code, out, _ = run(capsys, "exel", "catalog:z2")
    assert code == 0
    assert json.loads(out)["size"] == 3


def test_analyze_semigroup(capsys):
    code, out, _ = run(capsys, "analyze", "catalog:se-edge")
    assert code == 0
    rep = json.loads(out)
    assert rep["e_unitary"] is False and rep["zero"] == "0"


def test_coe_extract_then_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "coe", "extract", "catalog:munn-chain2", "catalog:self-chain2")
    assert code == 0
    doc = json.loads(out)
    for k in ("command", "ok"):
        doc.pop(k)
    f = tmp_path / "coe.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "coe", "verify", "catalog:munn-chain2", "catalog:self-chain2", str(f))
    assert code == 0


def test_coe_verify_corrupted_fails(capsys, tmp_path):
    code, out, _ = run(capsys, "coe", "extract", "catalog:munn-chain2", "catalog:self-chain2")
    doc = json.loads(out)
    for k in ("command", "ok"):
        doc.pop(k)
    s, row = next(iter(sorted(doc["a"].items())))
    x = next(iter(sorted(row)))
    others = [t for t in doc["b"] if t != row[x]]
    doc["a"][s][x] = others[0]
    f = tmp_path / "bad-coe.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "coe", "verify", "catalog:munn-chain2", "catalog:self-chain2", str(f))
    assert code == 1


def test_coe_extract_non_isomorphic_exits_1(capsys):
    code, out, _ = run(capsys, "coe", "extract", "catalog:munn-chain2", "catalog:munn-chain3")
    assert code == 1
    assert "not isomorphic" in json.loads(out)["error"]


def test_graph_coe_search_then_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "graph", "coe-search", "catalog:edge", "catalog:edge")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"]
    for k in ("command", "ok", "found", "phi"):
        doc.pop(k)
    f = tmp_path / "gcoe.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "graph", "coe-verify", "catalog:edge", "catalog:edge", str(f))
    assert code == 0


def test_graph_coe_search_no_match(capsys):
    code, out, _ = run(capsys, "graph", "coe-search", "catalog:edge", "catalog:fan")
    assert code == 0
    assert json.loads(out)["found"] is False


def test_graph_leavitt_equality(capsys, tmp_path):
    doc = {
        "schema": "leavitt-expr",
        "version": 1,
        "graph": "catalog:loop",
        "expr": "(* e e*)",
    }
    f = tmp_path / "expr.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "graph", "leavitt", str(f), "--equals", "v")
    assert code == 0
    assert json.loads(out)["equals"] is True
    code, out, _ = run(capsys, "graph", "leavitt", str(f), "--equals", "(* e e)")
    assert code == 1


def test_catalog_run_reports_honest_failure(capsys):
    code, out, _ = run(capsys, "catalog", "run", "--seed", "0")
    rep = json.loads(out)
    assert code == 1 and rep["ok"] is False
    by_criterion = {r["criterion"]: r for r in rep["criteria"]}
    # every criterion except the defective cardinality claim in 3 passes
    for n in (1, 2, 4, 5, 6, 7, 8, 9, 10):
        assert by_criterion[n]["ok"], n
    assert not by_criterion[3]["ok"]
    assert by_criterion[3]["construction_matches_oracle"] is True
    assert by_criterion[3]["stated_cardinalities_hold"] is False


def test_catalog_run_deterministic(capsys):
    _, out1, _ = run(capsys, "catalog", "run", "--seed", "7")
    _, out2, _ = run(capsys, "catalog", "run", "--seed", "7")
    assert out1 == out2


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    rep = json.loads(out)
    assert "munn-chain2" in rep["actions"]
    assert len(rep["actions"]) >= 8


def test_usage_error_exit_2(capsys):
    assert cli.main(["nonsense"]) == 2
