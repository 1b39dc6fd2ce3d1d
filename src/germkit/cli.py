"""Command line interface: JSON in, JSON report out.

Exit codes: 0 on pass, 1 on failure, 2 on input or usage errors.  Each
cmd_* function returns (report, summary, exit code) and prints nothing;
`main` adds the "command" field, derived from the parsed arguments, and is
the one writer of stdout.  A command that ends on a `germkit.GermkitError`
exits 1 with the report {"command", "ok": false, "error", "witness",
"kind"}, kind being the error class's: "mathematical" for a refutation,
"limit" for a resource limit, "unsupported" for a request germkit does not
serve.  Malformed input raises ParseError instead and exits 2.  Reports are
emitted as JSON on stdout with sorted keys, so identical inputs give
byte-identical output; a one-line human summary goes to stderr.
"""

import argparse
import functools
import json
import sys

from . import GermkitError


class ParseError(ValueError):
    def __init__(self, msg, line=None, col=None):
        super().__init__(msg)
        self.line = line
        self.col = col


SCHEMAS = {
    "semigroup": {"elements", "table"},
    "action": {"semigroup", "carrier", "domains", "maps"},
    "graph": {"vertices", "edges"},
    "coe": {"phi", "a", "b"},
    "graph-coe": {
        "depth", "initial", "rules", "initial_inverse", "rules_inverse",
        "k", "l", "kprime", "lprime",
    },
    "leavitt-expr": {"graph", "expr"},
    "groupoid": {"arrows", "units", "source", "range", "inverse", "compose"},
}


def parse_input(text, lenient=False):
    """Strict JSON parse into a (schema, payload) pair."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", err.lineno, err.colno)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    schema = doc.get("schema")
    if schema not in SCHEMAS:
        raise ParseError(f"unknown schema tag {schema!r}")
    if doc.get("version") != 1:
        raise ParseError(f"unsupported schema version {doc.get('version')!r}")
    extra = set(doc) - SCHEMAS[schema] - {"schema", "version"}
    if extra:
        if lenient:
            print(f"warning: ignoring unknown fields {sorted(extra)}", file=sys.stderr)
        else:
            raise ParseError(f"unknown fields {sorted(extra)} (use --lenient to ignore)")
    missing = SCHEMAS[schema] - set(doc)
    if missing:
        raise ParseError(f"missing fields {sorted(missing)}")
    return schema, doc


def _object(value, field, keys=()):
    """value, which the document's field must hold as an object with keys."""
    if not isinstance(value, dict):
        raise ParseError(f"{field} is not an object")
    missing = set(keys) - set(value)
    if missing:
        raise ParseError(f"{field} is missing fields {sorted(missing)}")
    return value


def _name(value, field):
    """value, which the document's field must hold as a name."""
    if isinstance(value, (list, dict)):
        raise ParseError(f"{field} is an array or object, not a name")
    return value


def _int(value, field):
    """value, which the document's field must hold as an integer."""
    if type(value) is not int:  # JSON true/false load as bool, a subclass of int
        raise ParseError(f"{field} is not an integer")
    return value


def _names(value, field):
    """value, which the document's field must hold as a list of names."""
    if not isinstance(value, list):
        raise ParseError(f"{field} is not a list")
    for i, name in enumerate(value):
        _name(name, f"{field} entry {i}")
    return value


def build_semigroup(doc):
    from . import invsemi

    elements = doc["elements"]
    table = doc["table"]
    if not isinstance(elements, list):
        raise ParseError("elements is not a list")
    for i, name in enumerate(elements):
        _name(name, f"element {i}")
    if not isinstance(table, list):
        raise ParseError("table is not a list")
    if any(not isinstance(row, list) or len(row) != len(elements) for row in table):
        bad = next(i for i, row in enumerate(table) if not isinstance(row, list) or len(row) != len(elements))
        raise ParseError(f"table row {bad} is not a list of length {len(elements)}")
    for i, row in enumerate(table):
        for j, entry in enumerate(row):
            if type(entry) is not int:  # JSON true/false load as bool, a subclass of int
                raise ParseError(f"table row {i}, column {j} is {json.dumps(entry)}, not an integer")
    return invsemi.validate_inverse_semigroup(elements, table)


def build_action(doc):
    from . import paction

    sg = doc["semigroup"]
    if isinstance(sg, str):
        S = _catalog("semigroup", sg)
    else:
        S = build_semigroup(_object(sg, "semigroup", SCHEMAS["semigroup"]))
    carrier = tuple(_names(doc["carrier"], "carrier"))
    pidx = {p: i for i, p in enumerate(carrier)}
    dom_of = _object(doc["domains"], "domains")
    map_of = _object(doc["maps"], "maps")
    domains = []
    maps = []
    for name in S.elements:
        dom = dom_of.get(name)
        mp = map_of.get(name)
        if dom is None or mp is None:
            raise ParseError(f"domains/maps missing for element {name!r}")
        try:
            domains.append(tuple(pidx[p] for p in _names(dom, f"domains[{name!r}]")))
            maps.append({pidx[x]: pidx[_name(y, f"maps[{name!r}][{x!r}]")]
                         for x, y in _object(mp, f"maps[{name!r}]").items()})
        except KeyError as err:
            raise ParseError(f"unknown carrier point {err.args[0]!r}")
    return paction.validate_partial_action(S, carrier, tuple(domains), tuple(maps))


def build_graph(doc):
    from . import graph

    if not isinstance(doc["edges"], list):
        raise ParseError("edges is not a list")
    edges = []
    for i, e in enumerate(doc["edges"]):
        e = _object(e, f"edge {i}", ("name", "src", "dst"))
        edges.append(tuple(_name(e[k], f"edge {i} {k}") for k in ("name", "src", "dst")))
    return graph.make_graph(_names(doc["vertices"], "vertices"), edges)


def build_action_coe(doc, theta, gamma):
    from . import orbit

    px = {p: i for i, p in enumerate(theta.carrier)}
    py = {p: i for i, p in enumerate(gamma.carrier)}
    sx = {n: i for i, n in enumerate(theta.semigroup.elements)}
    sy = {n: i for i, n in enumerate(gamma.semigroup.elements)}

    def cocycle(field, s_of, p_of, t_of):
        return {
            (s_of[s], p_of[x]): t_of[_name(t, f"{field}[{s!r}][{x!r}]")]
            for s, row in _object(doc[field], field).items()
            for x, t in _object(row, f"{field}[{s!r}]").items()
        }

    try:
        phi = {px[x]: py[_name(y, f"phi[{x!r}]")] for x, y in _object(doc["phi"], "phi").items()}
        a = cocycle("a", sx, px, sy)
        b = cocycle("b", sy, py, sx)
    except KeyError as err:
        raise ParseError(f"unknown name {err.args[0]!r} in orbit equivalence data")
    return orbit.OrbitEquivalence(phi, a, b)


def _parse_tpath(g, spec, field):
    """A path is a vertex name (length 0) or a nonempty list of edge names."""
    from . import graph

    if not isinstance(spec, list):
        if _name(spec, field) not in g.vertices:
            raise ParseError(f"{field} names unknown vertex {spec!r}")
        return graph.Path(g.vertices.index(spec), ())
    if not spec:
        raise ParseError(f"{field} is an empty list of edges")
    unknown = [e for e in _names(spec, field) if e not in g.edge_names]
    if unknown:
        raise ParseError(f"{field} names unknown edge {unknown[0]!r}")
    edges = tuple(g.edge_names.index(e) for e in spec)
    try:
        return graph.make_path(g, g.esrc[edges[0]], edges)
    except graph.GraphError as err:
        raise ParseError(f"{field}: {err}")


def build_graph_coe(doc, E, F):
    from . import graph

    def rules_of(field, g_in, g_out):
        if not isinstance(doc[field], list):
            raise ParseError(f"{field} is not a list")
        out = []
        for i, r in enumerate(doc[field]):
            where = f"{field} entry {i}"
            r = _object(r, where, ("state", "consume", "emit", "next"))
            out.append(
                graph.TransducerRule(
                    _name(r["state"], f"{where} state"),
                    _parse_tpath(g_in, r["consume"], f"{where} consume"),
                    _parse_tpath(g_out, r["emit"], f"{where} emit"),
                    _name(r["next"], f"{where} next"),
                )
            )
        return tuple(out)

    T = graph.PrefixTransducer(E, F, doc["initial"], rules_of("rules", E, F))
    Tinv = graph.PrefixTransducer(F, E, doc["initial_inverse"], rules_of("rules_inverse", F, E))
    cocycles = (
        {key: _int(n, f"{field}[{key!r}]") for key, n in _object(doc[field], field).items()}
        for field in ("k", "l", "kprime", "lprime")
    )
    depth = _int(doc["depth"], "depth")
    if depth < 1:
        raise ParseError(f"depth is {depth}, not an integer >= 1")
    return T, Tinv, *cocycles, depth


def _catalog(kind, name):
    """The catalog instance of this kind named by 'catalog:<name>' or by a
    bare name; an unknown name or a kind the catalog does not serve is an
    input error."""
    from . import catalog

    build = {"semigroup": catalog.semigroup, "action": catalog.action, "graph": catalog.graphs}.get(kind)
    if build is None:
        raise ParseError(f"catalog does not serve {kind!r} inputs")
    try:
        return build(name.removeprefix("catalog:"))
    except KeyError as err:
        raise ParseError(err.args[0])


def _ring(spec):
    """The ring a --ring flag names; a spec that names no ring (an unknown
    kind, or a Zp:<n> whose n is not an integer >= 2) is an input error."""
    from . import rings

    try:
        return rings.parse_ring_spec(spec)
    except rings.RingError as err:
        raise ParseError(str(err))


def _load(arg, expect, lenient=False):
    """Resolve 'catalog:<name>' or a file path into a built object."""
    if arg.startswith("catalog:"):
        return _catalog(expect, arg)
    return _build(expect, _load_doc(arg, expect, lenient))


def _build(kind, doc):
    if kind == "semigroup":
        return build_semigroup(doc)
    if kind == "action":
        return build_action(doc)
    if kind == "graph":
        return build_graph(doc)
    return doc


def _load_doc(arg, expect, lenient=False):
    """Read and parse a JSON file; unless expect is None, its schema must be expect."""
    try:
        with open(arg) as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError(f"cannot read {arg!r}: {err}")
    schema, doc = parse_input(text, lenient)
    if expect is not None and schema != expect:
        raise ParseError(f"expected a {expect!r} document, got {schema!r}")
    return doc


def groupoid_json(G):
    return {
        "schema": "groupoid",
        "version": 1,
        "arrows": list(G.arrows),
        "units": list(G.units),
        "source": list(G.source),
        "range": list(G.target),
        "inverse": list(G.inverse),
        "compose": sorted([a, b, c] for a, row in enumerate(G.compose) for b, c in row.items()),
    }


def emit(report, summary, code):
    print(json.dumps(report, sort_keys=True, default=str))
    print(summary, file=sys.stderr)
    return code


# --- subcommands -----------------------------------------------------------------

def cmd_validate(args):
    kind = args.kind
    doc = None
    if kind == "auto":
        if args.input.startswith("catalog:"):
            from . import catalog

            name = args.input[8:].lower()
            for k, reg in (
                ("semigroup", catalog.SEMIGROUP_NAMES),
                ("action", catalog.ACTION_NAMES),
                ("graph", catalog.GRAPH_NAMES),
            ):
                if name in reg:
                    kind = k
                    break
            else:
                raise ParseError(f"unknown catalog name {name!r}")
        else:
            doc = _load_doc(args.input, None, args.lenient)
            kind = doc["schema"]
            if kind not in ("semigroup", "action", "graph"):
                raise ParseError(f"validate checks semigroup, action and graph documents, not {kind!r}")
    obj = _load(args.input, kind, args.lenient) if doc is None else _build(kind, doc)
    detail = {"ok": True, "kind": kind}
    if kind == "semigroup":
        detail.update(
            size=len(obj),
            idempotents=[obj.elements[e] for e in obj.idempotents],
            zero=None if obj.zero is None else obj.elements[obj.zero],
        )
    elif kind == "action":
        detail.update(semigroup_size=len(obj.semigroup), carrier=list(obj.carrier), is_global=obj.is_global)
    else:
        detail.update(vertices=len(obj.vertices), edges=len(obj.edge_names))
    return detail, "valid", 0


def cmd_analyze(args):
    from . import invsemi

    S = _load(args.input, "semigroup", args.lenient)
    eu, wit = invsemi.is_e_unitary(S)
    gi = invsemi.max_group_image(S)
    _, family = invsemi.is_weak_semilattice(S)
    report = {
        "ok": True,
        "size": len(S),
        "idempotents": [S.elements[e] for e in S.idempotents],
        "zero": None if S.zero is None else S.elements[S.zero],
        "e_unitary": eu,
        "e_unitary_witness": None if wit is None else [S.elements[wit[0]], S.elements[wit[1]]],
        "max_group_image_size": len(gi.group),
        "weak_semilattice": True,
        "max_cover_family_size": max(len(v) for v in family.values()) if family else 0,
    }
    return report, f"|S|={len(S)} E-unitary={eu} |G(S)|={len(gi.group)}", 0


def cmd_germs(args):
    from . import germs

    theta = _load(args.input, "action", args.lenient)
    gg = germs.groupoid_of_germs(theta)
    return groupoid_json(gg.groupoid), f"{len(gg.groupoid.arrows)} arrows, {len(gg.groupoid.units)} units", 0


def cmd_maxgroup(args):
    from . import invsemi

    S = _load(args.input, "semigroup", args.lenient)
    gi = invsemi.max_group_image(S)
    report = {
        "ok": True,
        "group_elements": list(gi.group.elements),
        "table": [list(r) for r in gi.group.table],
        "class_of": {S.elements[i]: gi.class_of[i] for i in range(len(S))},
    }
    return report, f"|G(S)| = {len(gi.group)}", 0


def cmd_exel(args):
    from . import invsemi

    G = _load(args.input, "semigroup", args.lenient)
    ex = invsemi.exel_semigroup(G, max_elements=args.max_elements)
    report = {
        "ok": True,
        "size": len(ex.semigroup),
        "elements": list(ex.semigroup.elements),
        "table": [list(r) for r in ex.semigroup.table],
        "of_group": {G.elements[g]: ex.of_group[g] for g in range(len(G))},
    }
    return report, f"|S(G)| = {len(ex.semigroup)}", 0


def cmd_verify_steinberg(args):
    from . import algebra

    theta = _load(args.input, "action", args.lenient)
    rep = algebra.verify_steinberg_crossed(theta, _ring(args.ring))
    dims = rep["dims"]
    return {"ok": True, **rep}, f"pass: dims L={dims['L']} N={dims['N']} quotient={dims['quotient']}", 0


def cmd_coe_verify(args):
    from . import orbit

    theta = _load(args.action_a, "action", args.lenient)
    gamma = _load(args.action_b, "action", args.lenient)
    doc = _load_doc(args.coe, "coe", args.lenient)
    rep = orbit.verify_orbit_equivalence(theta, gamma, build_action_coe(doc, theta, gamma))
    return {"ok": True, **rep}, "orbit equivalence verified", 0


def cmd_coe_extract(args):
    from . import germs, orbit

    theta = _load(args.action_a, "action", args.lenient)
    gamma = _load(args.action_b, "action", args.lenient)
    ga = germs.groupoid_of_germs(theta)
    gb = germs.groupoid_of_germs(gamma)
    iso = germs.groupoid_iso_search(ga.groupoid, gb.groupoid, timeout_nodes=args.timeout_nodes)
    if iso is None:
        return {"ok": False, "error": "groupoids of germs are not isomorphic"}, "no isomorphism", 1
    oe = orbit.coe_from_groupoid_iso(iso, ga, gb)
    report = {
        "ok": True,
        "schema": "coe",
        "version": 1,
        "phi": {theta.carrier[x]: gamma.carrier[y] for x, y in oe.phi.items()},
        "a": _cocycle_json(oe.a, theta, gamma),
        "b": _cocycle_json(oe.b, gamma, theta),
    }
    return report, "orbit equivalence extracted", 0


def _cocycle_json(table, src, dst):
    out = {}
    for (s, x), t in table.items():
        out.setdefault(src.semigroup.elements[s], {})[src.carrier[x]] = dst.semigroup.elements[t]
    return out


def cmd_graph_analyze(args):
    from . import graph

    g = _load(args.input, "graph", args.lenient)
    rep = graph.graph_analyze(g)
    rep["ok"] = True
    return rep, f"conditionL={rep['condition_L']} topPrincipal={rep['top_principal']}", 0


def cmd_graph_leavitt(args):
    from . import graph

    doc = _load_doc(args.input, "leavitt-expr", args.lenient)
    gdoc = doc["graph"]
    if isinstance(gdoc, str) and gdoc.startswith("catalog:"):
        g = _catalog("graph", gdoc)
    else:
        g = build_graph(_object(gdoc, "graph", SCHEMAS["graph"]))
    ring = _ring(args.ring)
    if not isinstance(doc["expr"], str):
        raise ParseError("expr is not a string")
    el = graph.parse_leavitt_expr(g, ring, doc["expr"])
    depth = args.depth if args.depth is not None else el.depth
    el = el.at_depth(max(depth, el.depth))
    atoms = {
        f"Z({graph.fmt_path(g, cb.mu)},{graph.fmt_path(g, cb.nu)})": ring.fmt(c)
        for cb, c in el.atoms.items()
    }
    report = {"ok": True, "depth": el.depth, "atoms": atoms}
    if args.equals is not None:
        other = graph.parse_leavitt_expr(g, ring, args.equals)
        equal = graph.leavitt_equal(el, other)
        report["equals"] = equal
        if not equal:
            return report, "elements differ", 1
    return report, f"{len(atoms)} atoms at depth {el.depth}", 0


def cmd_graph_coe_verify(args):
    from . import graph

    E = _load(args.graph_e, "graph", args.lenient)
    F = _load(args.graph_f, "graph", args.lenient)
    doc = _load_doc(args.coe, "graph-coe", args.lenient)
    T, Tinv, k, l, kp, lp, depth = build_graph_coe(doc, E, F)
    if args.depth is not None:
        depth = args.depth
    rep = graph.verify_graph_coe(E, F, T, Tinv, k, l, kp, lp, depth)
    rep = {"ok": True,
           "atoms_checked": rep["atoms_checked"],
           "exact": sorted(map(list, rep["exact"])),
           "undetermined": sorted(map(list, rep["undetermined"]))}
    return rep, f"verified on {rep['atoms_checked']} atoms", 0


def cmd_graph_coe_search(args):
    from . import graph

    E = _load(args.graph_e, "graph", args.lenient)
    F = _load(args.graph_f, "graph", args.lenient)
    data = graph.graph_coe_search(E, F)
    if data is None:
        return {"ok": True, "found": False}, "no orbit equivalence", 0
    T = data["transducer"]
    Tinv = data["transducer_inverse"]

    def rules_json(T):
        out = []
        for r in T.rules:
            out.append({
                "state": r.state,
                "consume": _tpath_json(T.graph_in, r.consume),
                "emit": _tpath_json(T.graph_out, r.emit),
                "next": r.next_state,
            })
        return out

    report = {
        "ok": True,
        "found": True,
        "schema": "graph-coe",
        "version": 1,
        "depth": data["depth"],
        "initial": T.initial,
        "rules": rules_json(T),
        "initial_inverse": Tinv.initial,
        "rules_inverse": rules_json(Tinv),
        "k": data["k"],
        "l": data["l"],
        "kprime": data["kprime"],
        "lprime": data["lprime"],
        "phi": data["phi"],
    }
    return report, "orbit equivalence found", 0


def _tpath_json(g, p):
    if not p.edges:
        return g.vertices[p.start]
    return [g.edge_names[e] for e in p.edges]


def cmd_catalog_run(args):
    from . import acceptance

    reports = acceptance.run_all()
    ok = all(r["ok"] for r in reports)
    # wall-clock fields are dropped so reports are byte-identical across runs
    reports = [{k: v for k, v in r.items() if k != "elapsed_s"} for r in reports]
    report = {"ok": ok, "criteria": reports, "seed": args.seed}
    lines = ", ".join(f"{r['criterion']}:{'pass' if r['ok'] else 'FAIL'}" for r in reports)
    return report, lines, 0 if ok else 1


def cmd_catalog_list(args):
    from . import catalog

    report = {
        "ok": True,
        "semigroups": list(catalog.SEMIGROUP_NAMES),
        "actions": list(catalog.ACTION_NAMES),
        "graphs": list(catalog.GRAPH_NAMES),
        "groupoids": list(catalog.GROUPOID_NAMES),
    }
    return report, "catalog listed", 0


def _limit(text, low=1):
    """The argparse type of a limit or depth flag: an integer >= low."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, not {text!r}")
    return value


@functools.cache
def make_parser():
    """The argument parser, built once per process and shared by every main
    call: parse_args returns a fresh Namespace with fresh defaults each time,
    and no argument has a mutable default or an append action.  Callers
    must not add arguments or defaults to it."""
    ap = argparse.ArgumentParser(prog="germkit")
    ap.add_argument("--lenient", action="store_true", help="warn on unknown fields instead of rejecting")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate")
    p.add_argument("input")
    p.add_argument("--kind", choices=["auto", "semigroup", "action", "graph"], default="auto")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze")
    p.add_argument("input")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("germs")
    p.add_argument("input")
    p.set_defaults(fn=cmd_germs)

    p = sub.add_parser("maxgroup")
    p.add_argument("input")
    p.set_defaults(fn=cmd_maxgroup)

    p = sub.add_parser("exel")
    p.add_argument("input")
    p.add_argument("--max-elements", type=_limit, default=4096)
    p.set_defaults(fn=cmd_exel)

    p = sub.add_parser("verify")
    vs = p.add_subparsers(dest="what", required=True)
    q = vs.add_parser("steinberg-crossed")
    q.add_argument("input")
    q.add_argument("--ring", default="Q")
    q.set_defaults(fn=cmd_verify_steinberg)

    p = sub.add_parser("coe")
    cs = p.add_subparsers(dest="what", required=True)
    q = cs.add_parser("verify")
    q.add_argument("action_a")
    q.add_argument("action_b")
    q.add_argument("coe")
    q.set_defaults(fn=cmd_coe_verify)
    q = cs.add_parser("extract")
    q.add_argument("action_a")
    q.add_argument("action_b")
    q.add_argument("--timeout-nodes", type=_limit, default=500000)
    q.set_defaults(fn=cmd_coe_extract)

    p = sub.add_parser("graph")
    gs = p.add_subparsers(dest="what", required=True)
    q = gs.add_parser("analyze")
    q.add_argument("input")
    q.set_defaults(fn=cmd_graph_analyze)
    q = gs.add_parser("leavitt")
    q.add_argument("input")
    q.add_argument("--equals")
    q.add_argument("--ring", default="Q")
    q.add_argument("--depth", type=functools.partial(_limit, low=0))  # 0: expr's own depth
    q.set_defaults(fn=cmd_graph_leavitt)
    q = gs.add_parser("coe-verify")
    q.add_argument("graph_e")
    q.add_argument("graph_f")
    q.add_argument("coe")
    q.add_argument("--depth", type=_limit)
    q.set_defaults(fn=cmd_graph_coe_verify)
    q = gs.add_parser("coe-search")
    q.add_argument("graph_e")
    q.add_argument("graph_f")
    q.set_defaults(fn=cmd_graph_coe_search)

    p = sub.add_parser("catalog")
    ks = p.add_subparsers(dest="what", required=True)
    q = ks.add_parser("run")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_catalog_run)
    q = ks.add_parser("list")
    q.set_defaults(fn=cmd_catalog_list)

    return ap


def main(argv=None):
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    command = f"{args.cmd} {args.what}" if hasattr(args, "what") else args.cmd
    try:
        report, summary, code = args.fn(args)
    except ParseError as err:
        where = f" (line {err.line}, col {err.col})" if err.line else ""
        return emit({"ok": False, "error": f"{err}{where}", "kind": "input"}, f"input error: {err}{where}", 2)
    except GermkitError as err:
        report = {"ok": False, "error": str(err), "witness": err.witness, "kind": err.kind}
        summary, code = f"{err.kind} failure: {err}", 1
    return emit({"command": command, **report}, summary, code)

if __name__ == "__main__":
    sys.exit(main())
