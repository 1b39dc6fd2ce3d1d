import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from germkit import catalog, cli


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


@pytest.mark.parametrize("schema", ["coe", "graph-coe", "leavitt-expr", "groupoid"])
def test_validate_other_schema_is_input_error(capsys, tmp_path, schema):
    # validate checks semigroups, actions and graphs; another well-formed
    # document is refused as input, naming its schema
    doc = {"schema": schema, "version": 1, **{field: None for field in cli.SCHEMAS[schema]}}
    f = tmp_path / "other.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(f))
    assert code == 2
    rep = json.loads(out)
    assert rep["kind"] == "input" and repr(schema) in rep["error"]
    assert err.startswith("input error: ")


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


def test_verify_steinberg_crossed_catalog_output_unchanged(capsys):
    # one sha256 over the exit code and stdout of every catalog action over
    # Q, Z, Z/5 and Z/6, recorded while L's associativity was still sampled:
    # checking it by the partial-action laws changes no report
    digest = hashlib.sha256()
    for name in catalog.ACTION_NAMES:
        for ring in ("Q", "Z", "Zp:5", "Zp:6"):
            code, out, _ = run(capsys, "verify", "steinberg-crossed", f"catalog:{name}", "--ring", ring)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "6e063dd085ded635403f941c971bc645ab56e1c12eeb4fab1b1fbd36b1ce2932"


def test_germs_and_catalog_run_output_unchanged(capsys):
    # one sha256 over the exit code and stdout of `germs` on every catalog
    # action and of `catalog run --seed 0`, recorded while groupoid
    # associativity was still checked on every composable triple
    digest = hashlib.sha256()
    for argv in [("germs", f"catalog:{name}") for name in catalog.ACTION_NAMES] + [
            ("catalog", "run", "--seed", "0")]:
        code, out, _ = run(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    assert len(catalog.ACTION_NAMES) == 17
    assert digest.hexdigest() == "33b0f5c00f67ca85d140a3dd397ba3578ff7adba9b8c64eaf31487266742ab4d"


def test_canonical_action_and_groupoid_output_unchanged(capsys):
    # one sha256 over the exit code and stdout of `catalog run --seed 0`,
    # `validate` and `germs` on every catalog action, `verify
    # steinberg-crossed` over Q and Z/5 on every catalog action and `graph
    # analyze` on every catalog graph, recorded while the canonical actions
    # and groupoids were still validated after they were built
    argvs = [("catalog", "run", "--seed", "0")]
    for name in catalog.ACTION_NAMES:
        argvs += [("validate", f"catalog:{name}"), ("germs", f"catalog:{name}")]
    for name in catalog.ACTION_NAMES:
        for ring in ("Q", "Zp:5"):
            argvs.append(("verify", "steinberg-crossed", f"catalog:{name}", "--ring", ring))
    argvs += [("graph", "analyze", f"catalog:{name}") for name in catalog.GRAPH_NAMES]
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    assert (len(catalog.ACTION_NAMES), len(catalog.GRAPH_NAMES)) == (17, 5)
    assert digest.hexdigest() == "686f878fd6c66932299d795e9a46eb89725780e67fd31163ddac220ea0891b35"


def test_constructed_semigroup_output_unchanged(capsys, tmp_path):
    # one sha256 over the exit code and stdout of `exel` on Z_1..Z_7 and of
    # `validate` and `analyze` on the catalog's I_2 and S(Z_2), recorded
    # while the constructors still validated their own tables
    digest = hashlib.sha256()
    argvs = []
    for n in range(1, 8):
        f = tmp_path / f"z{n}.json"
        f.write_text(json.dumps({"schema": "semigroup", "version": 1,
                                 "elements": [f"a{i}" for i in range(n)],
                                 "table": [[(i + j) % n for j in range(n)] for i in range(n)]}))
        argvs.append(("exel", str(f)))
    for name in ("i2", "sz2"):
        argvs += [("validate", f"catalog:{name}"), ("analyze", f"catalog:{name}")]
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "4946d1308816f8165e0c1d0e7a9ce7b3411bd907f18c9e2342c36c1cd55294b3"


def test_exel_output_unchanged_past_z7(capsys, tmp_path):
    # one sha256 over the exit code and stdout of `exel` on Z_8 and Z_9,
    # recorded while exel_semigroup still tabulated S(G) at build time
    digest = hashlib.sha256()
    for n in (8, 9):
        f = tmp_path / f"z{n}.json"
        f.write_text(json.dumps({"schema": "semigroup", "version": 1,
                                 "elements": [f"a{i}" for i in range(n)],
                                 "table": [[(i + j) % n for j in range(n)] for i in range(n)]}))
        code, out, _ = run(capsys, "exel", str(f))
        assert code == 0, n
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "1fc5b166454319162f7ca1cda0b1bcabed5367f8fed64161a908e2dc7493b071"


def test_table_and_graph_output_unchanged(capsys, tmp_path):
    # one sha256 over the exit code and stdout of `validate`, `analyze` and
    # `maxgroup` on table documents (Z_1..Z_7, the chains of 1..5 elements
    # and I_3) and of `graph analyze` and `graph coe-search` on the catalog
    # graphs, recorded while a monoid's identity was always the first of the
    # generators a validated table kept
    from germkit import invsemi

    tables = {f"z{n}": ([f"a{i}" for i in range(n)],
                        [[(i + j) % n for j in range(n)] for i in range(n)]) for n in range(1, 8)}
    tables.update({f"chain{n}": ([f"e{i}" for i in range(n)],
                                 [[max(i, j) for j in range(n)] for i in range(n)]) for n in range(1, 6)})
    i3 = invsemi.symmetric_inverse_semigroup(3)[0]
    tables["i3"] = (list(i3.elements), [list(row) for row in i3.table])
    argvs = []
    for name, (elements, table) in tables.items():
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps({"schema": "semigroup", "version": 1, "elements": elements, "table": table}))
        argvs += [(cmd, str(f)) for cmd in ("validate", "analyze", "maxgroup")]
    for e in catalog.GRAPH_NAMES:
        argvs.append(("graph", "analyze", f"catalog:{e}"))
        argvs += [("graph", "coe-search", f"catalog:{e}", f"catalog:{f}") for f in catalog.GRAPH_NAMES]
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "0bf5c1ad13d1d7dfe9aac4cf9169b949bf68a16d2909feecd80aaf6b0804c9ea"


def _seeded_dag_doc(seed):
    # vertices v0..v(n-1); edges only run from a lower to a higher index, so
    # the graph is acyclic; parallel edges are allowed
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    edges = []
    for k in range(rng.randint(0, 7) if n > 1 else 0):
        s = rng.randrange(n - 1)
        edges.append({"name": f"e{k}", "src": f"v{s}", "dst": f"v{rng.randrange(s + 1, n)}"})
    return {"schema": "graph", "version": 1, "vertices": [f"v{i}" for i in range(n)], "edges": edges}


def test_graph_semigroup_and_action_output_unchanged(capsys, tmp_path):
    # one sha256 over the exit code and stdout of `validate`, `analyze` and
    # `maxgroup` on S_E of the edge graph, of `germs`, `validate` and
    # `verify steinberg-crossed --ring Zp:5` on its two actions and the two
    # canonical boundary actions, of `graph analyze` on seeded DAGs and of
    # `graph leavitt` on the catalog graphs, recorded while S_E was still
    # built from all of its products and validated
    argvs = [(cmd, "catalog:se-edge") for cmd in ("validate", "analyze", "maxgroup")]
    for name in ("munn-se-edge", "self-se-edge", "edge-boundary", "fan-boundary"):
        argvs += [("germs", f"catalog:{name}"), ("validate", f"catalog:{name}"),
                  ("verify", "steinberg-crossed", f"catalog:{name}", "--ring", "Zp:5")]
    for seed in range(12):
        f = tmp_path / f"dag{seed}.json"
        f.write_text(json.dumps(_seeded_dag_doc(seed)))
        argvs.append(("graph", "analyze", str(f)))
    exprs = {"loop": ["(* e e*)", "(* e* e)", "(+ (* 2 e e*) (* e e e* e*))"],
             "loop-exit": ["(* e* f)", "(+ (* e e*) (* f f*))", "(* f* e e* f)"],
             "edge": ["(* e e*)", "(* e* e)", "(* e* v e)"],
             "fan": ["(+ (* e1 e1*) (* e2 e2*))", "(* e1* e2)", "(* e2 e2* e2)"],
             "cycle2-exit": ["(* a b a* b*)", "(* b* a* a b)", "(+ (* a a*) (* b c c* b*))"]}
    for name, texts in exprs.items():
        for k, text in enumerate(texts):
            f = tmp_path / f"{name}{k}.json"
            f.write_text(json.dumps({"schema": "leavitt-expr", "version": 1,
                                     "graph": f"catalog:{name}", "expr": text}))
            argvs += [("graph", "leavitt", str(f)), ("graph", "leavitt", str(f), "--depth", "3")]
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "9e474666e9ae43b38770f7ef878d7633610826ca062a4c2b58137bee49a03b5b"


def test_rational_values_output_unchanged(capsys, tmp_path):
    # one sha256 over the exit code and stdout of `graph leavitt` on
    # loop-exit with rational, integral and vanishing coefficients over Q, Z
    # and Z/5, and of `verify steinberg-crossed --ring Q` on the Munn actions
    # of seeded subsemigroups of I_4, recorded while every Q value was a
    # Fraction
    import oracles
    from germkit import invsemi

    exprs = ["(* 1/2 v)", "(+ (* 2/3 e) (* 1/3 e))", "(* 2 1/2 v)", "(* -3/4 e e*)",
             "(* 0 v)", "(+ (* 1/2 v) (* -1/2 v))", "(* 6/4 e* e)"]
    argvs = []
    for k, text in enumerate(exprs):
        f = tmp_path / f"q{k}.json"
        f.write_text(json.dumps({"schema": "leavitt-expr", "version": 1,
                                 "graph": "catalog:loop-exit", "expr": text}))
        for ring in ("Q", "Z", "Zp:5"):
            argvs += [("graph", "leavitt", str(f), "--ring", ring),
                      ("graph", "leavitt", str(f), "--ring", ring, "--depth", "2"),
                      ("graph", "leavitt", str(f), "--ring", ring, "--equals", "(* 1/2 v)")]
    for seed in (0, 4, 5, 9, 12, 19):
        theta = invsemi.munn_representation(oracles.seeded_subsemigroup(random.Random(seed)))
        f = tmp_path / f"munn{seed}.json"
        f.write_text(json.dumps(_action_json(theta, range(len(theta.semigroup)),
                                             range(len(theta.carrier)), "")))
        argvs.append(("verify", "steinberg-crossed", str(f), "--ring", "Q"))
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "5d2d8a38853916124f348f3555b4d6a1ba7ec630f8becdfbef11286b55dc34aa"


def test_verify_steinberg_crossed_has_no_seed(capsys):
    code, _, _ = run(capsys, "verify", "steinberg-crossed", "catalog:munn-chain2", "--seed", "1")
    assert code == 2


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


@pytest.mark.parametrize(
    "path, value, stdout",
    [
        (("phi", "y"), "x",
         '{"command": "coe verify", "error": "phi is not a carrier bijection", '
         '"kind": "mathematical", "ok": false, "witness": null}'),
        (("a", "g", "x"), None,
         '{"command": "coe verify", "error": "a is undefined at (g, x)", '
         '"kind": "mathematical", "ok": false, "witness": null}'),
        (("b", "[g]", "y"), None,
         '{"command": "coe verify", "error": "b is undefined at ([g], y)", '
         '"kind": "mathematical", "ok": false, "witness": null}'),
        (("a", "1", "z"), "[g]",
         '{"command": "coe verify", "error": "a(1, z) does not act at phi(x)", '
         '"kind": "mathematical", "ok": false, "witness": ["a", 0, 2]}'),
        (("b", "[1]", "z"), "g",
         '{"command": "coe verify", "error": "b([1], z) does not act at phi^-1(y)", '
         '"kind": "mathematical", "ok": false, "witness": ["b", 0, 2]}'),
        (("a", "g", "x"), "[1]",
         '{"command": "coe verify", "error": "phi(theta_s(x)) != gamma_a(s,x)(phi(x)) at (g, x)", '
         '"kind": "mathematical", "ok": false, "witness": ["a", 1, 0]}'),
        (("b", "[g]", "x"), "1",
         '{"command": "coe verify", "error": "phi^-1(gamma_t(y)) != theta_b(t,y)(phi^-1(y)) at ([g], x)", '
         '"kind": "mathematical", "ok": false, "witness": ["b", 1, 0]}'),
    ],
    ids=["phi-not-bijective", "a-undefined", "b-undefined", "a-not-acting", "b-not-acting", "a-image", "b-image"],
)
def test_coe_verify_failure_stdout_is_pinned(capsys, tmp_path, path, value, stdout):
    # one edit of the extracted z2-swap -> z2-swap-exel document per failure
    # branch; a value of None deletes the entry
    actions = ("catalog:z2-swap", "catalog:z2-swap-exel")
    doc = json.loads(run(capsys, "coe", "extract", *actions)[1])
    for k in ("command", "ok"):
        doc.pop(k)
    if value is None:
        _get(doc, path[:-1]).pop(path[-1])
    else:
        _set(doc, path, value)
    f = tmp_path / "bad-coe.json"
    f.write_text(json.dumps(doc))
    assert run(capsys, "coe", "verify", *actions, str(f))[:2] == (1, stdout + "\n")


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


def test_graph_coe_verify_depth_below_1_is_usage_error(capsys, tmp_path):
    # depth 0 used to drop every atom and print "ok": true with 0 atoms
    # checked; depth -1 used to fail as "mathematical"
    doc = json.loads(run(capsys, "graph", "coe-search", "catalog:fan", "catalog:fan")[1])
    for k in ("command", "ok", "found", "phi"):
        doc.pop(k)
    f = tmp_path / "gcoe.json"
    f.write_text(json.dumps(doc))
    argv = ["graph", "coe-verify", "catalog:fan", "catalog:fan", str(f), "--depth"]
    for value in ("0", "-1"):
        code, out, err = run(capsys, *argv, value)
        assert (code, out) == (2, ""), value
        assert f"must be an integer >= 1, not {value!r}" in err
    code, out, _ = run(capsys, *argv, "1")
    assert (code, json.loads(out)["atoms_checked"]) == (0, 4)


def test_action_domain_listing_a_point_twice_is_rejected(capsys, tmp_path):
    doc = _z2_swap_doc()
    doc["domains"]["g"] = ["x", "y", "y"]
    f = tmp_path / "action.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(f))
    assert (code, json.loads(out)) == (1, {
        "command": "validate", "ok": False, "error": "X_g lists point y twice",
        "witness": [1, 1], "kind": "mathematical"})


def test_action_carrier_naming_a_point_twice_is_rejected(capsys, tmp_path):
    doc = _z2_swap_doc()
    doc["carrier"] = ["x", "x"]
    doc["domains"] = {"1": ["x"], "g": ["x"]}
    doc["maps"] = {"1": {"x": "x"}, "g": {"x": "x"}}
    f = tmp_path / "action.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(f))
    assert (code, json.loads(out)) == (1, {
        "command": "validate", "ok": False, "error": "carrier lists point x twice",
        "witness": 1, "kind": "mathematical"})


@pytest.mark.parametrize("vertices, edges, error", [
    (["v", "v"], [{"name": "e", "src": "v", "dst": "v"}], "duplicate vertex name 'v'"),
    (["v", "w"], [{"name": "e", "src": "v", "dst": "w"}, {"name": "e", "src": "w", "dst": "v"}],
     "duplicate edge name 'e'"),
], ids=["vertex", "edge"])
def test_graph_naming_a_vertex_or_edge_twice_is_rejected(capsys, tmp_path, vertices, edges, error):
    f = tmp_path / "graph.json"
    f.write_text(json.dumps({"schema": "graph", "version": 1, "vertices": vertices, "edges": edges}))
    for argv in (("validate", str(f)), ("graph", "analyze", str(f))):
        code, out, _ = run(capsys, *argv)
        assert (code, json.loads(out)) == (1, {
            "command": " ".join(argv[:-1]), "ok": False, "error": error,
            "witness": None, "kind": "mathematical"}), argv


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


def test_graph_leavitt_negative_depth_is_usage_error(capsys, tmp_path):
    # --depth -3 used to be read as 0 and reported "depth": 0
    f = tmp_path / "expr.json"
    f.write_text(json.dumps({"schema": "leavitt-expr", "version": 1, "graph": "catalog:loop-exit", "expr": "v"}))
    for value in ("-1", "-3"):
        code, out, err = run(capsys, "graph", "leavitt", str(f), "--depth", value)
        assert (code, out) == (2, ""), value
        assert f"must be an integer >= 0, not {value!r}" in err
    # 0 keeps the expression's own depth; a deeper one rewrites the atoms
    for value, depth, atoms in (("0", 0, {"Z(v,v)": "1"}), ("1", 1, {"Z(e,e)": "1", "Z(f,f)": "1"})):
        code, out, _ = run(capsys, "graph", "leavitt", str(f), "--depth", value)
        rep = json.loads(out)
        assert (code, rep["depth"], rep["atoms"]) == (0, depth, atoms)


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


@pytest.mark.parametrize("argv", [
    ["exel", "catalog:z2", "--max-elements"],
    ["coe", "extract", "catalog:munn-chain2", "catalog:self-chain2", "--timeout-nodes"],
])
def test_limit_flags_take_only_positive_integers(capsys, argv):
    # a limit below 1 can only be reached, never met: a usage error, not a
    # report of a limit
    for value in ("0", "-1", "x", "1.5"):
        code, out, err = run(capsys, *argv, value)
        assert (code, out) == (2, ""), value
        assert f"must be an integer >= 1, not {value!r}" in err
    assert run(capsys, *argv, "1")[0] == 1


# --- structurally malformed documents: input errors that name the field ------------

def _z2_swap_doc():
    return {
        "schema": "action", "version": 1, "semigroup": "z2", "carrier": ["x", "y"],
        "domains": {"1": ["x", "y"], "g": ["x", "y"]},
        "maps": {"1": {"x": "x", "y": "y"}, "g": {"x": "y", "y": "x"}},
    }


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


def _input_error(capsys, tmp_path, argv, doc, where):
    f = tmp_path / "malformed.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, *[str(f) if a is None else a for a in argv])
    assert code == 2
    rep = json.loads(out)
    assert rep["kind"] == "input" and where in rep["error"], rep


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("domains",), [["x", "y"], ["x", "y"]], "domains is not an object"),
        (("maps",), 1, "maps is not an object"),
        (("maps", "g"), [["x", "y"]], "maps['g'] is not an object"),
        (("maps", "g", "x"), ["y"], "maps['g']['x'] is an array or object"),
        (("carrier",), ["x", ["y"]], "carrier entry 1 is an array or object"),
        (("domains", "g"), ["x", ["y"]], "domains['g'] entry 1 is an array or object"),
        (("domains", "g"), "xy", "domains['g'] is not a list"),
        (("semigroup",), 2, "semigroup is not an object"),
        (("semigroup",), {"elements": ["1"]}, "semigroup is missing fields ['table']"),
    ],
)
def test_malformed_action_document_is_input_error(capsys, tmp_path, path, value, where):
    doc = _z2_swap_doc()
    _set(doc, path, value)
    _input_error(capsys, tmp_path, ["validate", None], doc, where)


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("phi",), [["x", "y"]], "phi is not an object"),
        (("phi", "x"), ["y"], "phi['x'] is an array or object"),
        (("a",), [], "a is not an object"),
        (("b", "g"), [["x", "1"]], "b['g'] is not an object"),
        (("a", "g", "x"), {"t": "g"}, "a['g']['x'] is an array or object"),
    ],
)
def test_malformed_coe_document_is_input_error(capsys, tmp_path, path, value, where):
    doc = {
        "schema": "coe", "version": 1, "phi": {"x": "x", "y": "y"},
        "a": {"1": {"x": "1", "y": "1"}, "g": {"x": "g", "y": "g"}},
        "b": {"1": {"x": "1", "y": "1"}, "g": {"x": "g", "y": "g"}},
    }
    _set(doc, path, value)
    argv = ["coe", "verify", "catalog:z2-swap", "catalog:z2-swap", None]
    _input_error(capsys, tmp_path, argv, doc, where)


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("edges", 0), {"name": "e", "src": "v"}, "edge 0 is missing fields ['dst']"),
        (("edges", 0), "e", "edge 0 is not an object"),
        (("edges", 0, "src"), ["v"], "edge 0 src is an array or object"),
        (("edges",), {"e": ["v", "w"]}, "edges is not a list"),
        (("vertices",), ["v", {"w": 1}], "vertices entry 1 is an array or object"),
    ],
)
def test_malformed_graph_document_is_input_error(capsys, tmp_path, path, value, where):
    doc = {"schema": "graph", "version": 1, "vertices": ["v", "w"],
           "edges": [{"name": "e", "src": "v", "dst": "w"}]}
    _set(doc, path, value)
    _input_error(capsys, tmp_path, ["graph", "analyze", None], doc, where)


def test_well_formed_documents_still_pass(capsys, tmp_path):
    cases = [
        (["validate", None], _z2_swap_doc()),
        (["graph", "analyze", None], {"schema": "graph", "version": 1, "vertices": ["v", "w"],
                                      "edges": [{"name": "e", "src": "v", "dst": "w"}]}),
    ]
    for argv, doc in cases:
        f = tmp_path / "ok.json"
        f.write_text(json.dumps(doc))
        assert run(capsys, *[str(f) if a is None else a for a in argv])[0] == 0


# --- coe extract at the former search frontier -------------------------------------

def _action_json(theta, perm, cperm, prefix):
    """theta as an action document, element k of the copy being element
    perm[k] of theta and point k being point cperm[k], every name prefixed."""
    S = theta.semigroup
    new = {old: k for k, old in enumerate(perm)}
    names = [f"{prefix}{S.elements[s]}" for s in perm]
    points = [f"{prefix}{theta.carrier[x]}" for x in cperm]
    cnew = {old: k for k, old in enumerate(cperm)}
    return {
        "schema": "action", "version": 1,
        "semigroup": {"elements": names,
                      "table": [[new[S.mul(s, t)] for t in perm] for s in perm]},
        "carrier": points,
        "domains": {names[k]: [points[cnew[x]] for x in theta.domains[s]] for k, s in enumerate(perm)},
        "maps": {names[k]: {points[cnew[x]]: points[cnew[y]] for x, y in theta.maps[s].items()}
                 for k, s in enumerate(perm)},
    }


def _coe_round_trip_against_relabeled_copy(capsys, tmp_path, theta):
    import random

    S = theta.semigroup
    rng = random.Random(4)
    perm, cperm = list(range(len(S))), list(range(len(theta.carrier)))
    rng.shuffle(perm)
    rng.shuffle(cperm)
    pa, pb, pc = (tmp_path / n for n in ("a.json", "b.json", "coe.json"))
    pa.write_text(json.dumps(_action_json(theta, range(len(S)), range(len(theta.carrier)), "")))
    pb.write_text(json.dumps(_action_json(theta, perm, cperm, "r")))
    code, out, _ = run(capsys, "coe", "extract", str(pa), str(pb), "--timeout-nodes", "20000")
    assert code == 0
    doc = json.loads(out)
    for k in ("command", "ok"):
        doc.pop(k)
    pc.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "coe", "verify", str(pa), str(pb), str(pc))
    assert code == 0 and json.loads(out)["ok"]


def test_coe_extract_munn_i4_against_relabeled_copy(capsys, tmp_path):
    from germkit import invsemi

    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    _coe_round_trip_against_relabeled_copy(capsys, tmp_path, invsemi.munn_representation(S4))


def test_coe_extract_self_i4_against_relabeled_copy(capsys, tmp_path):
    # |L| = 13617 pairs: verified without building a germ groupoid
    from germkit import invsemi

    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    _coe_round_trip_against_relabeled_copy(capsys, tmp_path, invsemi.canonical_self_action(S4))


def _edge_coe_doc():
    """The identity orbit equivalence of catalog:edge, as coe-search writes it."""
    def rules(state, end):
        return [{"consume": "w", "emit": "w", "next": end, "state": state},
                {"consume": ["e"], "emit": ["e"], "next": end, "state": state}]

    return {"schema": "graph-coe", "version": 1, "depth": 2,
            "initial": "f", "rules": rules("f", "fend"),
            "initial_inverse": "b", "rules_inverse": rules("b", "bend"),
            "k": {"e": 0}, "l": {"e": 1}, "kprime": {"e": 0}, "lprime": {"e": 1}}


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("rules", 1), {"consume": ["e"], "emit": ["e"], "next": "fend"},
         "rules entry 1 is missing fields ['state']"),
        (("rules_inverse", 1, "consume"), ["e", "zz"], "rules_inverse entry 1 consume names unknown edge 'zz'"),
        (("rules", 1, "emit"), [], "rules entry 1 emit is an empty list of edges"),
        (("depth",), "x", "depth is not an integer"),
        (("depth",), True, "depth is not an integer"),
        (("k",), None, "k is not an object"),
        (("k",), "x", "k is not an object"),
        (("k", "e"), "x", "k['e'] is not an integer"),
        (("lprime", "e"), None, "lprime['e'] is not an integer"),
        (("depth",), 0, "depth is 0, not an integer >= 1"),
        (("depth",), -1, "depth is -1, not an integer >= 1"),
    ],
)
def test_malformed_graph_coe_document_is_input_error(capsys, tmp_path, path, value, where):
    doc = _edge_coe_doc()
    _set(doc, path, value)
    argv = ["graph", "coe-verify", "catalog:edge", "catalog:edge", None]
    _input_error(capsys, tmp_path, argv, doc, where)


def test_graph_coe_rule_whose_edges_do_not_concatenate_is_input_error(capsys, tmp_path):
    # catalog:edge's one edge e runs v -> w, so e e is no path
    doc = _edge_coe_doc()
    _set(doc, ("rules", 1, "consume"), ["e", "e"])
    argv = ["graph", "coe-verify", "catalog:edge", "catalog:edge", None]
    _input_error(capsys, tmp_path, argv, doc, "rules entry 1 consume: edges do not concatenate")


def test_action_document_names_catalog_semigroup(capsys, tmp_path):
    doc = _z2_swap_doc()
    doc["semigroup"] = "catalog:z2"
    f = tmp_path / "action.json"
    f.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(f))[0] == 0
    doc["semigroup"] = "catalog:nosuch"
    _input_error(capsys, tmp_path, ["validate", None], doc, "unknown catalog semigroup 'nosuch'")


def test_leavitt_document_with_unknown_catalog_graph_is_input_error(capsys, tmp_path):
    doc = {"schema": "leavitt-expr", "version": 1, "graph": "catalog:nosuch", "expr": "v"}
    _input_error(capsys, tmp_path, ["graph", "leavitt", None], doc, "unknown catalog graph 'nosuch'")


def test_leavitt_expr_that_is_not_a_string_is_input_error(capsys, tmp_path):
    doc = {"schema": "leavitt-expr", "version": 1, "graph": "catalog:loop", "expr": 5}
    _input_error(capsys, tmp_path, ["graph", "leavitt", None], doc, "expr is not a string")


@pytest.mark.parametrize("expr, error", [
    ("(+ v", "unexpected end of expression"),
    ("(", "unexpected end of expression"),
    ("(+)", "empty sum"),
])
def test_malformed_leavitt_expr_is_reported_like_unbalanced_parentheses(capsys, tmp_path, expr, error):
    f = tmp_path / "expr.json"
    f.write_text(json.dumps({"schema": "leavitt-expr", "version": 1, "graph": "catalog:loop", "expr": expr}))
    code, out, _ = run(capsys, "graph", "leavitt", str(f))
    assert (code, json.loads(out)) == (
        1, {"command": "graph leavitt", "ok": False, "error": error, "witness": None, "kind": "mathematical"})


def test_unknown_catalog_name_is_reported_without_extra_quotes(capsys):
    code, out, err = run(capsys, "germs", "catalog:nosuch")
    assert code == 2
    assert json.loads(out) == {"ok": False, "error": "unknown catalog action 'nosuch'", "kind": "input"}
    assert err == "input error: unknown catalog action 'nosuch'\n"


@pytest.mark.parametrize("name", ["munn-nosuch", "self-nosuch", "MUNN-NoSuch"])
def test_unknown_derived_catalog_action_is_reported_under_its_own_name(capsys, name):
    code, out, err = run(capsys, "germs", f"catalog:{name}")
    message = f"unknown catalog action {name.lower()!r}"
    assert (code, json.loads(out)) == (2, {"ok": False, "error": message, "kind": "input"})
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize("spec", ["Zp:x", "Zp:0", "Zp:1"])
def test_ring_modulus_that_is_not_an_integer_at_least_2_is_input_error(capsys, tmp_path, spec):
    expected = {"ok": False, "kind": "input",
                "error": f"ring spec {spec!r}: the modulus must be an integer >= 2"}
    code, out, _ = run(capsys, "verify", "steinberg-crossed", "catalog:z2-swap", "--ring", spec)
    assert (code, json.loads(out)) == (2, expected)
    f = tmp_path / "expr.json"
    f.write_text(json.dumps({"schema": "leavitt-expr", "version": 1, "graph": "catalog:loop", "expr": "v"}))
    code, out, _ = run(capsys, "graph", "leavitt", str(f), "--ring", spec)
    assert (code, json.loads(out)) == (2, expected)


def test_unknown_ring_spec_is_input_error(capsys, tmp_path):
    expected = {"ok": False, "kind": "input", "error": "unknown ring spec 'R' (expected Q, Z, or Zp:<p>)"}
    code, out, _ = run(capsys, "verify", "steinberg-crossed", "catalog:z2-swap", "--ring", "R")
    assert (code, json.loads(out)) == (2, expected)
    f = tmp_path / "expr.json"
    f.write_text(json.dumps({"schema": "leavitt-expr", "version": 1, "graph": "catalog:loop", "expr": "v"}))
    code, out, _ = run(capsys, "graph", "leavitt", str(f), "--ring", "R")
    assert (code, json.loads(out)) == (2, expected)


# --- one parser per process ------------------------------------------------------

def test_parser_is_reused_without_leaking_state(capsys, tmp_path):
    # each call of an interleaved sequence gives the stdout and exit code of
    # the same command's first call: no flag or default carries over
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"schema": "semigroup", "version": 1, "elements": ["1"],
                                 "table": [[0]], "note": "hi"}))
    action = tmp_path / "action.json"
    action.write_text(json.dumps(_z2_swap_doc()))
    calls = [
        ["validate", str(extra)],
        ["--lenient", "validate", str(extra)],
        ["validate", str(action)],
        ["validate", "--kind", "semigroup", str(action)],
        ["analyze", "catalog:se-edge"],
        ["germs", "catalog:munn-chain2"],
        ["verify", "steinberg-crossed", "catalog:munn-chain2", "--ring", "Zp:5"],
        ["verify", "steinberg-crossed", "catalog:munn-chain2"],
        ["coe", "extract", "catalog:munn-chain2", "catalog:self-chain2"],
        ["coe", "extract", "catalog:munn-chain2", "catalog:self-chain2", "--timeout-nodes", "1"],
        ["validate", "--kind", "bogus", "catalog:z2"],
    ]
    cli.make_parser.cache_clear()
    first = {}
    for argv in calls + calls[::-1] + calls:
        code, out, _ = run(capsys, *argv)
        assert first.setdefault(tuple(argv), (code, out)) == (code, out), argv
    assert cli.make_parser() is cli.make_parser()
    codes = [first[tuple(argv)][0] for argv in calls]
    # strict then lenient; auto then forced semigroup; a usage error
    assert codes == [2, 0, 0, 2, 0, 0, 0, 0, 0, 1, 2]


# --- one-shot processes ------------------------------------------------------------

Z2_TABLE = {"elements": ["1", "g"], "table": [[0, 1], [1, 0]]}


def _write_docs(tmp_path):
    """Write the documents the commands below name: a semigroup, a corrupted
    semigroup and an action that carries its own semigroup table."""
    docs = {
        "semigroup.json": {"schema": "semigroup", "version": 1, **Z2_TABLE},
        "bad.json": {"schema": "semigroup", "version": 1, "elements": ["x", "y"], "table": [[0, 0], [1, 1]]},
        "action.json": {**_z2_swap_doc(), "semigroup": Z2_TABLE},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))


def _one_shot_env(tmp_path):
    """The environment of a fresh germkit process, with _write_docs done."""
    _write_docs(tmp_path)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=str(src))


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["validate", "catalog:z2"], 0, id="argv0"),
        pytest.param(["nonsense"], 2, id="argv1"),
        pytest.param(["validate", "{dir}/bad.json"], 1, id="invalid-semigroup"),
        pytest.param(["verify", "steinberg-crossed", "{dir}/action.json", "--ring", "R"], 2, id="ring-error"),
        pytest.param(["coe", "extract", "catalog:munn-chain2", "catalog:self-chain2", "--timeout-nodes", "1"], 1,
                     id="timeout-catalog"),
        pytest.param(["coe", "extract", "{dir}/action.json", "{dir}/action.json", "--timeout-nodes", "1"], 1,
                     id="timeout-documents"),
        pytest.param(["exel", "catalog:z2", "--max-elements", "2"], 1, id="limit"),
        pytest.param(["graph", "coe-search", "catalog:loop", "catalog:edge"], 1, id="unsupported"),
        pytest.param(["validate", "{dir}/missing.json"], 2, id="missing-file"),
        pytest.param(["verify", "--help"], 0, id="help"),
    ],
)
def test_one_shot_run_matches_in_process(capsys, monkeypatch, tmp_path, argv, code):
    # usage lines wrap at the terminal width; pin it for both runs
    monkeypatch.setenv("COLUMNS", "80")
    env = _one_shot_env(tmp_path)
    argv = [a.format(dir=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "germkit.cli", *argv], env=env, capture_output=True)
    result = run(capsys, *argv)
    assert result[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (result[0], result[1].encode(), result[2].encode())


def test_package_runs_as_a_module(capsys, tmp_path):
    env = _one_shot_env(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "germkit", "catalog", "list"], env=env, capture_output=True)
    code, out, err = run(capsys, "catalog", "list")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), err.encode())
    assert code == 0


@pytest.mark.parametrize("argv", [["validate", "{dir}/semigroup.json"], ["analyze", "{dir}/semigroup.json"]])
def test_value_error_that_germkit_does_not_define_propagates(monkeypatch, tmp_path, argv):
    # not a verdict: it leaves main as raised, past main's GermkitError
    # clause
    from germkit import invsemi

    def broken(elements, table):
        raise ValueError("not a germkit error")

    _write_docs(tmp_path)
    monkeypatch.setattr(invsemi, "validate_inverse_semigroup", broken)
    with pytest.raises(ValueError, match="not a germkit error") as err:
        cli.main([a.format(dir=tmp_path) for a in argv])
    assert type(err.value) is ValueError


def test_every_germkit_error_derives_from_one_base():
    import germkit
    from germkit import GermkitError

    errors = {
        cls
        for name in germkit.__all__
        for cls in vars(getattr(germkit, name)).values()
        if isinstance(cls, type) and issubclass(cls, ValueError)
    }
    # ParseError marks malformed input, which is no claim refuted
    assert {cls for cls in errors if not issubclass(cls, GermkitError)} == {cli.ParseError}
    witness = (0, 1)
    assert GermkitError("m", witness).witness is witness
    assert GermkitError("m").witness is None


def test_main_reports_any_germkit_error_as_mathematical(monkeypatch, capsys, tmp_path):
    # a subclass no module defines: main keys on the base, not on a list of names
    from germkit import GermkitError, invsemi

    class Refuted(GermkitError):
        pass

    def refuted(elements, table):
        raise Refuted("refuted", ["x", 1])

    _write_docs(tmp_path)
    monkeypatch.setattr(invsemi, "validate_inverse_semigroup", refuted)
    code, out, err = run(capsys, "analyze", str(tmp_path / "semigroup.json"))
    assert code == 1
    assert json.loads(out) == {
        "command": "analyze", "ok": False, "error": "refuted", "witness": ["x", 1], "kind": "mathematical"}
    assert err == "mathematical failure: refuted\n"


def _bad_coe(capsys, monkeypatch, tmp_path):
    """A coe document for z2-swap -> z2-swap-exel whose phi is no bijection."""
    doc = json.loads(run(capsys, "coe", "extract", "catalog:z2-swap", "catalog:z2-swap-exel")[1])
    for k in ("command", "ok"):
        doc.pop(k)
    doc["phi"]["y"] = "x"
    (tmp_path / "bad-coe.json").write_text(json.dumps(doc))


def _long_path_doc(capsys, monkeypatch, tmp_path):
    """A graph document: a path through 200 vertices."""
    doc = {"schema": "graph", "version": 1, "vertices": [f"v{i}" for i in range(200)],
           "edges": [{"name": f"e{i}", "src": f"v{i}", "dst": f"v{i + 1}"} for i in range(199)]}
    (tmp_path / "path.json").write_text(json.dumps(doc))


def _refute_tables(capsys, monkeypatch, tmp_path):
    from germkit import GermkitError, invsemi

    def refuted(elements, table):
        raise GermkitError("refuted", ["x", 1])

    monkeypatch.setattr(invsemi, "validate_inverse_semigroup", refuted)


@pytest.mark.parametrize(
    "argv, command, kind, setup",
    [
        pytest.param(["validate", "{dir}/bad.json"], "validate", "mathematical", None, id="validate-corrupted"),
        pytest.param(["coe", "verify", "catalog:z2-swap", "catalog:z2-swap-exel", "{dir}/bad-coe.json"],
                     "coe verify", "mathematical", _bad_coe, id="coe-verify-bad"),
        pytest.param(["analyze", "{dir}/semigroup.json"], "analyze", "mathematical", _refute_tables,
                     id="analyze-refuted"),
        pytest.param(["exel", "catalog:chain2"], "exel", "mathematical", None, id="exel-non-group"),
        pytest.param(["exel", "catalog:z2", "--max-elements", "2"], "exel", "limit", None, id="exel-max-elements"),
        pytest.param(["coe", "extract", "catalog:munn-chain2", "catalog:self-chain2", "--timeout-nodes", "1"],
                     "coe extract", "limit", None, id="coe-extract-timeout"),
        pytest.param(["graph", "analyze", "{dir}/path.json"], "graph analyze", "limit", _long_path_doc,
                     id="graph-analyze-path"),
        pytest.param(["graph", "coe-search", "catalog:loop", "catalog:edge"], "graph coe-search", "unsupported",
                     None, id="coe-search-cyclic"),
    ],
)
def test_every_failure_has_one_report_shape(capsys, monkeypatch, tmp_path, argv, command, kind, setup):
    _write_docs(tmp_path)
    if setup is not None:
        setup(capsys, monkeypatch, tmp_path)
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    rep = json.loads(out)
    assert code == 1
    assert set(rep) == {"command", "error", "kind", "ok", "witness"}
    assert (rep["command"], rep["ok"], rep["kind"]) == (command, False, kind)
    assert err == f"{kind} failure: {rep['error']}\n"


def test_every_germkit_error_has_a_known_kind():
    import germkit
    from germkit import GermkitError, ResourceLimit

    for name in germkit.__all__:
        getattr(germkit, name)
    seen, todo = set(), [GermkitError]
    while todo:
        cls = todo.pop()
        seen.add(cls)
        todo.extend(cls.__subclasses__())
    assert all(cls.kind in ("mathematical", "limit", "unsupported") for cls in seen), seen
    assert issubclass(germkit.germs.Timeout, ResourceLimit)
    assert {cls for cls in seen if cls.kind == "unsupported"} == {
        germkit.graph.NotAcyclic, germkit.rings.NotAField, germkit.rings.DecomposableRing}


LOADED = """\
import json, sys
from germkit import cli
if sys.argv[1:]:
    cli.main(sys.argv[1:])
print(json.dumps(sorted(m.removeprefix("germkit.") for m in sys.modules if m.startswith("germkit."))))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param([], {"cli"}, id="import"),
        pytest.param(["validate", "{dir}/semigroup.json"], {"cli", "invsemi"}, id="validate-document"),
        pytest.param(["verify", "steinberg-crossed", "{dir}/action.json", "--ring", "Zp:5"],
                     {"cli", "algebra", "germs", "invsemi", "paction", "rings"}, id="verify"),
        pytest.param(["coe", "extract", "{dir}/action.json", "{dir}/action.json"],
                     {"cli", "germs", "invsemi", "orbit", "paction", "rings"}, id="coe-extract"),
        pytest.param(["validate", "catalog:z2"], {"cli", "catalog", "germs", "invsemi", "paction", "rings"},
                     id="validate-catalog"),
    ],
)
def test_one_shot_run_loads_only_what_its_command_runs(tmp_path, argv, loaded):
    # in a fresh process: this one has imported every module already
    env = _one_shot_env(tmp_path)
    argv = [a.format(dir=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env, capture_output=True, text=True, check=True)
    assert set(json.loads(proc.stdout.splitlines()[-1])) == loaded


def test_package_resolves_every_submodule_on_first_use(tmp_path):
    env = _one_shot_env(tmp_path)
    src = pathlib.Path(env["PYTHONPATH"]) / "germkit"
    # __main__ is the `python -m germkit` entry point, not a submodule
    modules = sorted(p.stem for p in src.glob("*.py") if p.stem not in ("__init__", "__main__"))
    probe = "import germkit, sys; print([getattr(germkit, m).__name__ for m in sys.argv[1:]])"
    proc = subprocess.run([sys.executable, "-c", probe, *modules], env=env, capture_output=True, text=True)
    assert proc.stdout.strip() == str([f"germkit.{m}" for m in modules]), proc.stderr
