import random
from collections import Counter

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germkit import ResourceLimit, catalog, germs, graph as gr, invsemi, paction, rings


Q = rings.RING_Q
LOOP = catalog.graphs("loop")
EDGE = catalog.graphs("edge")
FAN = catalog.graphs("fan")
LOOP_EXIT = catalog.graphs("loop-exit")
CYCLE2 = catalog.graphs("cycle2-exit")


def _p(g, spec):
    """Path from a vertex name or a dotted edge-name string."""
    if spec in g.vertices:
        return gr.Path(g.vertices.index(spec), ())
    edges = tuple(g.edge_names.index(e) for e in spec.split("."))
    return gr.make_path(g, g.esrc[edges[0]], edges)


# --- semigroup product -------------------------------------------------------------

def test_graph_semigroup_product_cases():
    v, w, e = _p(EDGE, "v"), _p(EDGE, "w"), _p(EDGE, "e")
    # (mu,nu)(nu,eta) = (mu,eta)
    assert gr.graph_semigroup_mul(EDGE, (e, w), (w, e)) == (e, e)
    # gamma absorbed on the other side
    assert gr.graph_semigroup_mul(EDGE, (w, e), (e, w)) == (w, w)
    # incomparable: distinct edges
    e1, e2 = _p(FAN, "e1"), _p(FAN, "e2")
    w1, w2 = _p(FAN, "w1"), _p(FAN, "w2")
    assert gr.graph_semigroup_mul(FAN, (w1, e1), (e2, w2)) == gr.ZERO
    # (mu,nu)* (mu,nu) = (nu,nu)
    assert gr.graph_semigroup_mul(EDGE, (w, e), (e, w)) == (w, w)


def test_graph_semigroup_table_edge():
    S, payload = gr.graph_semigroup(EDGE)
    assert len(S) == 6
    assert S.zero == 0
    flag, _ = invsemi.is_e_unitary(S)
    assert not flag


def test_graph_semigroup_is_meet_semilattice():
    # every pair of elements has a greatest common lower bound (possibly 0)
    for g in (EDGE, FAN):
        S, _ = gr.graph_semigroup(g)
        for s in range(len(S)):
            for t in range(len(S)):
                clb = invsemi.common_lower_bounds(S, s, t)
                maxima = [
                    u for u in clb
                    if not any(v != u and invsemi.natural_leq(S, u, v) for v in clb)
                ]
                assert len(maxima) == 1
                meet = invsemi.compatible_meet(S, s, t)
                if meet is not None:
                    assert meet == maxima[0]
                else:
                    assert maxima[0] == S.zero


def _refuse(*args):
    raise AssertionError("graph_semigroup tabulated or checked its own table")


def _construction_letters(g):
    """0, the (v, v), the (e, r(e)) and the (r(e), e): S_E's generators."""
    vertices = [gr.Path(v, ()) for v in range(len(g.vertices))]
    edges = [(gr.Path(g.esrc[e], (e,)), gr.Path(g.edst[e], ())) for e in range(len(g.edge_names))]
    return [gr.ZERO] + [(v, v) for v in vertices] + edges + [(r, e) for e, r in edges]


def _assert_matches_validated_table(g, max_elements=2000):
    # built with `tabulate`, the closure, Light's test and the validator made
    # to raise, S_E agrees field by field and row by row with all of its
    # products validated; its gens are the construction letters
    with pytest.MonkeyPatch.context() as m:
        for name in ("tabulate", "table_closure", "_light_test", "validate_inverse_semigroup"):
            m.setattr(invsemi, name, _refuse)
        S, payload = gr.graph_semigroup(g, max_elements)
    T, expect = oracles.graph_semigroup_validated(g, max_elements)
    assert payload == expect
    assert S.elements == T.elements
    assert S.table == T.table
    assert S.inverse == T.inverse
    assert S.idempotents == T.idempotents
    assert S.zero == T.zero
    assert S.below == T.below
    assert S.gens == tuple(payload.index(el) for el in _construction_letters(g))


@pytest.mark.parametrize("name", catalog.GRAPH_NAMES)
def test_graph_semigroup_agrees_with_validated_table_on_catalog(name):
    g = catalog.graphs(name)
    if gr.has_cycle(g):
        for build in (gr.graph_semigroup, oracles.graph_semigroup_validated):
            with pytest.raises(gr.NotAcyclic):
                build(g)
    else:
        _assert_matches_validated_table(g)


@st.composite
def _dags(draw):
    """An acyclic graph on 1-6 vertices with 0-8 edges, each running from a
    lower to a higher vertex; parallel edges allowed."""
    nv = draw(st.integers(1, 6))
    edges = []
    for k in range(draw(st.integers(0, 8 if nv > 1 else 0))):
        a = draw(st.integers(0, nv - 2))
        edges.append((f"e{k}", f"v{a}", f"v{draw(st.integers(a + 1, nv - 1))}"))
    return gr.make_graph([f"v{i}" for i in range(nv)], edges)


@settings(max_examples=150, deadline=None, database=None)
@given(_dags(), st.sampled_from([None, 0, -1]))
@example(gr.make_graph(["v"], []), None)
@example(gr.make_graph(["v"], []), -1)
@example(gr.make_graph(["v", "w"], []), 0)
def test_graph_semigroup_agrees_with_validated_table_on_dags(g, margin):
    # margin None builds under the default limit; 0 and -1 put max_elements
    # at |S_E| and one below it, where both builds raise the same limit
    size = 1 + sum(c * c for c in Counter(gr.path_end(g, p) for p in gr.all_finite_paths(g)).values())
    limit = 2000 if margin is None else size + margin
    if size <= limit:
        _assert_matches_validated_table(g, limit)
        return
    for build in (gr.graph_semigroup, oracles.graph_semigroup_validated):
        with pytest.raises(ResourceLimit, match=rf"^\|S_E\| = {size} exceeds {limit}$"):
            build(g, limit)


# --- cylinders ----------------------------------------------------------------------

def test_cylinder_empty():
    v = _p(LOOP, "v")
    assert not gr.cylinder_empty(LOOP, gr.Cylinder(v))
    assert gr.cylinder_empty(LOOP, gr.Cylinder(v, frozenset({0})))
    w = _p(EDGE, "w")
    assert not gr.cylinder_empty(EDGE, gr.Cylinder(w))  # sink singleton


def test_cylinder_atoms_single_loop():
    atoms = gr.cylinder_atoms(LOOP, gr.Cylinder(_p(LOOP, "v")), 2)
    assert [gr.fmt_path(LOOP, a.mu) for a in atoms] == ["e.e"]


def test_cylinder_atoms_edge_graph():
    atoms = gr.cylinder_atoms(EDGE, gr.Cylinder(_p(EDGE, "v")), 1)
    assert [gr.fmt_path(EDGE, a.mu) for a in atoms] == ["e"]
    atoms = gr.cylinder_atoms(EDGE, gr.Cylinder(_p(EDGE, "w")), 1)
    assert [gr.fmt_path(EDGE, a.mu) for a in atoms] == ["w"]


def test_cylinder_atoms_depth_too_small():
    with pytest.raises(gr.DepthTooSmall):
        gr.cylinder_atoms(LOOP, gr.Cylinder(_p(LOOP, "e.e")), 1)


def test_cylinder_atoms_of_empty_cylinder():
    # all outgoing edges forbidden at a regular vertex: no atoms
    c = gr.Cylinder(_p(LOOP, "v"), frozenset({0}))
    assert gr.cylinder_empty(LOOP, c)
    assert gr.cylinder_atoms(LOOP, c, 2) == []


def test_atoms_partition_boundary_pointwise():
    # oracle: on acyclic graphs the depth-D atoms biject with their point sets
    for g in (EDGE, FAN):
        boundary = gr.boundary_enumerate(g)
        depth = 1 + max(len(p.edges) for p in boundary)
        atoms = gr.boundary_atoms(g, depth)
        covered = []
        for a in atoms:
            pts = [p for p in boundary if gr.path_is_prefix(a.mu, p)]
            assert len(pts) == 1  # sink-rooted atoms are singletons
            covered.extend(pts)
        assert sorted(covered) == sorted(boundary)


def test_bisection_atoms_match_pointwise_germ_triples():
    # oracle: the atoms of Z(mu,nu,F) biject with the triples (mu x, k, nu x)
    # enumerated from the finite boundary space
    for g in (EDGE, FAN):
        boundary = gr.boundary_enumerate(g)
        depth = 1 + max(len(p.edges) for p in boundary)
        paths = gr.all_finite_paths(g)
        for mu in paths:
            for nu in paths:
                if gr.path_end(g, mu) != gr.path_end(g, nu):
                    continue
                for forbidden in [frozenset()] + [
                    frozenset({e}) for e in g.out_edges(gr.path_end(g, mu))
                ]:
                    cb = gr.CylinderBisection(mu, nu, forbidden)
                    atoms = gr.bisection_atoms(g, cb, depth)
                    pointwise = {
                        (gr.path_cat(g, mu, x), gr.path_cat(g, nu, x))
                        for x in boundary
                        if gr.path_is_prefix(gr.Path(gr.path_end(g, mu), ()), x)
                        and not (x.edges and x.edges[0] in forbidden)
                    }
                    assert {(a.mu, a.nu) for a in atoms} == pointwise


# --- condition (L), boundary, actions ------------------------------------------------

def test_condition_l():
    flag, witness = gr.is_condition_L(LOOP)
    assert not flag and gr.fmt_path(LOOP, witness) == "e"
    assert gr.is_condition_L(LOOP_EXIT)[0]
    assert gr.is_condition_L(EDGE)[0]
    assert gr.is_condition_L(CYCLE2)[0]


def _random_graph(rng):
    """A seeded graph on up to 6 vertices, loops and parallel edges allowed."""
    nv = rng.randint(1, 6)
    edges = [(f"e{i}", f"v{rng.randrange(nv)}", f"v{rng.randrange(nv)}") for i in range(rng.randint(0, 9))]
    return gr.make_graph([f"v{i}" for i in range(nv)], edges)


def test_condition_l_matches_simple_cycle_oracle():
    # flag and witness loop against the scan of every simple cycle
    rng = random.Random(21)
    graphs = [catalog.graphs(name) for name in catalog.GRAPH_NAMES] + [_random_graph(rng) for _ in range(500)]
    failing = 0
    for g in graphs:
        flag, witness = gr.is_condition_L(g)
        assert (flag, witness) == oracles.condition_L_by_cycles(g), g
        failing += not flag
    assert 50 < failing < len(graphs) - 50


def test_witness_loop_vertices_each_have_one_out_edge():
    # why graph_analyze reports witness_isolated_cylinder as true unchecked
    rng = random.Random(22)
    failing = 0
    for _ in range(2000):
        g = _random_graph(rng)
        flag, witness = gr.is_condition_L(g)
        if not flag:
            failing += 1
            assert all(len(g.out_edges(g.esrc[e])) == 1 for e in witness.edges), g
            assert gr.graph_analyze(g)["witness_isolated_cylinder"] is True
    assert failing > 100


def test_boundary_enumerate():
    assert [gr.fmt_path(EDGE, p) for p in gr.boundary_enumerate(EDGE)] == ["w", "e"]
    assert gr.boundary_enumerate(LOOP) is None
    single = gr.make_graph(["v"], [])
    assert [gr.fmt_path(single, p) for p in gr.boundary_enumerate(single)] == ["v"]


def test_canonical_action_moves_points():
    act, payload, boundary = gr.canonical_graph_action(EDGE)
    e, w = _p(EDGE, "e"), _p(EDGE, "w")
    s = payload.index((e, w))
    wpos = boundary.index(w)
    epos = boundary.index(e)
    assert act.maps[s] == {wpos: epos}
    # idempotents act as identities
    for i, el in enumerate(payload):
        if el != gr.ZERO and el[0] == el[1]:
            assert all(x == y for x, y in act.maps[i].items())


def test_canonical_action_principality_matches_condition_l():
    for name in ("edge", "fan"):
        g = catalog.graphs(name)
        act, _, _ = gr.canonical_graph_action(g)
        assert paction.dynamics_report(act).top_principal == gr.is_condition_L(g)[0]


def test_canonical_action_cyclic_is_symbolic():
    act = gr.canonical_graph_action(LOOP_EXIT)
    assert isinstance(act, gr.CylinderAction)
    v, e, f = _p(LOOP_EXIT, "v"), _p(LOOP_EXIT, "e"), _p(LOOP_EXIT, "f")
    ee = _p(LOOP_EXIT, "e.e")
    el = (ee, e)  # theta: Z(e) -> Z(ee), e x -> ee x
    # cylinder inside the domain maps by prefix replacement
    img = act.apply(el, gr.Cylinder(_p(LOOP_EXIT, "e.f")))
    assert img.mu == _p(LOOP_EXIT, "e.e.f")
    # idempotents act as the identity on their cylinder
    assert act.apply((e, e), gr.Cylinder(ee)).mu == ee
    # disjoint cylinder is not moved
    assert act.apply(el, gr.Cylinder(f)) is None
    # cylinder strictly containing the domain restricts to it first
    assert act.apply(el, gr.Cylinder(v)).mu == ee
    assert act.apply(el, gr.Cylinder(v, frozenset({1}))).mu == ee  # f forbidden, e fine
    assert act.apply(el, gr.Cylinder(v, frozenset({0}))) is None  # e forbidden kills Z(e)


def test_boundary_groupoid_edge_is_pair_groupoid():
    gpd, germg, iso, rep = gr.boundary_groupoid(EDGE)
    assert len(gpd.arrows) == 4
    assert rep["isomorphic"]
    pair = catalog.pair_groupoid(2)
    assert germs.groupoid_iso_search(gpd, pair) is not None


def test_boundary_groupoid_isolated_sink():
    single = gr.make_graph(["v"], [])
    gpd, _, _, rep = gr.boundary_groupoid(single)
    assert len(gpd.arrows) == 1 and len(gpd.units) == 1


def test_boundary_groupoid_fan():
    gpd, _, _, rep = gr.boundary_groupoid(FAN)
    assert rep["isomorphic"]
    assert len(gpd.arrows) == 8  # two orbits of two points


def _random_dag(rng):
    """A seeded acyclic graph: every edge runs from a lower to a higher
    vertex, parallel edges allowed."""
    nv = rng.randint(1, 5)
    edges = []
    for i in range(rng.randint(0, 6)):
        if nv > 1:
            a = rng.randrange(nv - 1)
            edges.append((f"e{i}", f"v{a}", f"v{rng.randint(a + 1, nv - 1)}"))
    return gr.make_graph([f"v{i}" for i in range(nv)], edges)


def _acyclic_graphs():
    rng = random.Random(20)
    named = [catalog.graphs(name) for name in catalog.GRAPH_NAMES]
    return [g for g in named if not gr.has_cycle(g)] + [_random_dag(rng) for _ in range(60)]


def test_boundary_groupoid_matches_shift_search():
    # same-sink pairs with lag |x| - |y|, against the search over every (m, n)
    for g in _acyclic_graphs():
        gpd, _, _, rep = gr.boundary_groupoid(g)
        boundary = gr.boundary_enumerate(g)
        expect = tuple(
            f"({gr.fmt_path(g, boundary[x])},{k},{gr.fmt_path(g, boundary[y])})"
            for x, k, y in oracles.boundary_triples_by_shift_search(g)
        )
        assert gpd.arrows == expect
        assert rep["isomorphic"]


def test_shift_on_cylinder():
    c = gr.Cylinder(_p(LOOP, "e.e"))
    assert gr.shift_on_cylinder(LOOP, c).mu == _p(LOOP, "e")
    c = gr.Cylinder(_p(EDGE, "e"))
    assert gr.shift_on_cylinder(EDGE, c).mu == _p(EDGE, "w")
    with pytest.raises(gr.LengthZero):
        gr.shift_on_cylinder(EDGE, gr.Cylinder(_p(EDGE, "w")))


def test_shift_matches_pointwise_shift():
    # oracle: the points of the shifted cylinder are the shifts of the points
    for g in (EDGE, FAN):
        boundary = gr.boundary_enumerate(g)
        for p in boundary:
            if not p.edges:
                continue
            c = gr.Cylinder(p)
            shifted = gr.shift_on_cylinder(g, c)
            pts = {q for q in boundary if gr.path_is_prefix(shifted.mu, q)}
            assert pts == {gr.path_suffix(g, q, 1) for q in boundary if gr.path_is_prefix(p, q)}


# --- Leavitt arithmetic ---------------------------------------------------------------

def test_laurent_relations_single_loop():
    e = gr.lv_edge(LOOP, Q, "e")
    es = gr.lv_edge_star(LOOP, Q, "e")
    v = gr.lv_vertex(LOOP, Q, "v")
    lhs = gr.leavitt_multiply(e, es)
    rhs = gr.leavitt_multiply(es, e)
    assert gr.leavitt_equal(lhs, v)
    assert gr.leavitt_equal(rhs, v)
    assert lhs.depth <= 4 and rhs.depth <= 4


def test_leavitt_relations_edge_graph():
    v, w = gr.lv_vertex(EDGE, Q, "v"), gr.lv_vertex(EDGE, Q, "w")
    e, es = gr.lv_edge(EDGE, Q, "e"), gr.lv_edge_star(EDGE, Q, "e")
    assert gr.leavitt_equal(gr.leavitt_multiply(v, e), e)
    assert gr.leavitt_equal(gr.leavitt_multiply(e, w), e)
    assert gr.leavitt_equal(gr.leavitt_multiply(w, es), es)
    assert gr.leavitt_equal(gr.leavitt_multiply(es, v), es)
    assert gr.leavitt_equal(gr.leavitt_multiply(es, e), w)
    assert gr.leavitt_equal(v, gr.leavitt_multiply(e, es))


def test_leavitt_relation_iii_two_edge_vertex():
    e1s = gr.lv_edge_star(FAN, Q, "e1")
    e2 = gr.lv_edge(FAN, Q, "e2")
    e1 = gr.lv_edge(FAN, Q, "e1")
    w1 = gr.lv_vertex(FAN, Q, "w1")
    assert gr.leavitt_multiply(e1s, e2).is_zero()
    assert gr.leavitt_equal(gr.leavitt_multiply(e1s, e1), w1)


def test_leavitt_relation_iv_regular_vertex():
    u = gr.lv_vertex(FAN, Q, "u")
    total = gr.lv_zero(FAN, Q)
    for e in ("e1", "e2"):
        total = total + gr.leavitt_multiply(gr.lv_edge(FAN, Q, e), gr.lv_edge_star(FAN, Q, e))
    assert gr.leavitt_equal(u, total)


def test_leavitt_dimension_matches_groupoid():
    # atom count at saturating depth equals the arrow count of the boundary
    # groupoid; for the one-edge graph this is 4
    boundary = gr.boundary_enumerate(EDGE)
    atoms = set()
    for x in boundary:
        for y in boundary:
            if gr.path_end(EDGE, x) == gr.path_end(EDGE, y):
                atoms.add(gr.CylinderBisection(x, y))
    assert len(atoms) == 4
    gpd, _, _, _ = gr.boundary_groupoid(EDGE)
    assert len(atoms) == len(gpd.arrows)


def test_leavitt_associativity_random_atoms():
    rng = random.Random(5)
    gens = [
        gr.lv_edge(LOOP_EXIT, Q, "e"),
        gr.lv_edge(LOOP_EXIT, Q, "f"),
        gr.lv_edge_star(LOOP_EXIT, Q, "e"),
        gr.lv_edge_star(LOOP_EXIT, Q, "f"),
        gr.lv_vertex(LOOP_EXIT, Q, "v"),
        gr.lv_vertex(LOOP_EXIT, Q, "w"),
    ]
    for _ in range(40):
        x, y, z = (rng.choice(gens) for _ in range(3))
        lhs = gr.leavitt_multiply(gr.leavitt_multiply(x, y), z)
        rhs = gr.leavitt_multiply(x, gr.leavitt_multiply(y, z))
        assert gr.leavitt_equal(lhs, rhs)


def test_leavitt_diagonal_closed_and_commutative():
    rng = random.Random(6)
    diag_paths = ["v", "e", "e.e", "f", "e.f"]
    atoms = [gr.leavitt_diagonal_atom(LOOP_EXIT, Q, _p(LOOP_EXIT, s)) for s in diag_paths]
    for _ in range(25):
        a, b = rng.choice(atoms), rng.choice(atoms)
        ab = gr.leavitt_multiply(a, b)
        ba = gr.leavitt_multiply(b, a)
        assert gr.leavitt_equal(ab, ba)
        for cb in ab.atoms:
            assert cb.mu == cb.nu  # stays diagonal


def test_leavitt_expr_parser():
    el = gr.parse_leavitt_expr(LOOP, Q, "(+ (* e e*) (* -1 v))")
    assert el.is_zero()
    el2 = gr.parse_leavitt_expr(EDGE, Q, "(* 2 e)")
    assert gr.leavitt_equal(el2, gr.lv_edge(EDGE, Q, "e").scale(2))
    with pytest.raises(gr.GraphError):
        gr.parse_leavitt_expr(EDGE, Q, "(* unknown v)")



def test_leavitt_expr_nested_deeper_than_the_recursion_limit():
    depth = 1200
    el = gr.parse_leavitt_expr(EDGE, Q, "(+ " * depth + "v" + ")" * depth)
    assert gr.leavitt_equal(el, gr.lv_vertex(EDGE, Q, "v"))
    # syntax is checked before symbols: the missing ")" wins over "nosuch"
    with pytest.raises(gr.GraphError, match="unexpected end"):
        gr.parse_leavitt_expr(EDGE, Q, "(+ " * depth + "nosuch" + ")" * (depth - 1))


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.sampled_from(["(", ")", "+", "*", "v", "w", "e", "e*", "2"]), max_size=12))
@example(["(", "+", "v"])
@example(["("])
@example(["(", "+", ")"])
def test_leavitt_expr_parses_or_raises_graph_error(tokens):
    # every malformed expression is refused with a GraphError, never an
    # error of the parser's own indexing
    try:
        el = gr.parse_leavitt_expr(EDGE, Q, " ".join(tokens))
    except gr.GraphError:
        return
    assert isinstance(el, gr.LeavittElement)

# --- transducers ------------------------------------------------------------------------

def _renaming_transducer(g_in, g_out, edge_map, sink_map):
    rules = []
    for e_in, e_out in edge_map.items():
        ei = g_in.edge_names.index(e_in)
        eo = g_out.edge_names.index(e_out)
        rules.append(
            gr.TransducerRule(
                "q",
                gr.Path(g_in.esrc[ei], (ei,)),
                gr.Path(g_out.esrc[eo], (eo,)),
                "q",
            )
        )
    for v_in, v_out in sink_map.items():
        rules.append(
            gr.TransducerRule(
                "q",
                gr.Path(g_in.vertices.index(v_in), ()),
                gr.Path(g_out.vertices.index(v_out), ()),
                "q",
            )
        )
    return gr.PrefixTransducer(g_in, g_out, "q", tuple(rules))


def test_identity_transducer_fixes_cylinders():
    T = oracles.identity_transducer(EDGE)
    image = gr.transducer_apply(T, gr.Cylinder(_p(EDGE, "v")), 1)
    assert [gr.fmt_path(EDGE, c.mu) for c in image] == ["e"]
    ok, _ = gr.transducer_invertible_upto(T, T, 3)
    assert ok


def test_renaming_transducer_invertible():
    renamed = gr.make_graph(["a", "b"], [("x", "a", "b")])
    T = _renaming_transducer(EDGE, renamed, {"e": "x"}, {"w": "b"})
    Tinv = _renaming_transducer(renamed, EDGE, {"x": "e"}, {"b": "w"})
    for depth in (1, 2, 3):
        ok, _ = gr.transducer_invertible_upto(T, Tinv, depth)
        assert ok


def test_information_dropping_transducer_fails():
    T = _renaming_transducer(FAN, EDGE, {"e1": "e", "e2": "e"}, {"w1": "w", "w2": "w"})
    Tinv = _renaming_transducer(EDGE, FAN, {"e": "e1"}, {"w": "w1"})
    ok, witness = gr.transducer_invertible_upto(T, Tinv, 1)
    assert not ok
    assert witness is not None


def test_rules_not_exhaustive_detected():
    rules = (gr.TransducerRule("q", _p(EDGE, "e"), _p(EDGE, "e"), "q"),)
    T = gr.PrefixTransducer(EDGE, EDGE, "q", rules)  # missing the sink rule at w
    with pytest.raises(gr.RulesNotExhaustive):
        gr.validate_transducer(T)


def test_non_boundary_emission_detected():
    rules = (
        gr.TransducerRule("q", _p(EDGE, "e"), _p(EDGE, "e"), "q"),
        gr.TransducerRule("q", _p(EDGE, "w"), _p(EDGE, "v"), "q"),  # v is not a sink
    )
    T = gr.PrefixTransducer(EDGE, EDGE, "q", rules)
    ri = gr.validate_transducer(T)
    with pytest.raises(gr.NonBoundaryEmission):
        gr.run_transducer(T, ri, _p(EDGE, "w"))


# --- graph orbit equivalence ---------------------------------------------------------------

def _identity_coe_data(g, depth):
    T = oracles.identity_transducer(g)
    atoms = gr.boundary_atoms(g, depth, min_len=1)
    k = {gr.fmt_path(g, a.mu): 0 for a in atoms}
    l = {gr.fmt_path(g, a.mu): 1 for a in atoms}
    return T, T, k, l, dict(k), dict(l), depth


def test_verify_graph_coe_identity_acyclic():
    T, Tinv, k, l, kp, lp, depth = _identity_coe_data(EDGE, 2)
    rep = gr.verify_graph_coe(EDGE, EDGE, T, Tinv, k, l, kp, lp, depth)
    assert not rep["undetermined"]


def test_verify_graph_coe_validates_each_transducer_once(monkeypatch):
    T, Tinv, k, l, kp, lp, depth = _identity_coe_data(LOOP, 3)
    calls = []
    validate = gr.validate_transducer

    def counting(T):
        calls.append(T)
        return validate(T)

    monkeypatch.setattr(gr, "validate_transducer", counting)
    gr.verify_graph_coe(LOOP, LOOP, T, Tinv, k, l, kp, lp, depth)
    assert calls == [T, Tinv]


def test_verify_graph_coe_identity_cyclic():
    T, Tinv, k, l, kp, lp, depth = _identity_coe_data(LOOP, 3)
    rep = gr.verify_graph_coe(LOOP, LOOP, T, Tinv, k, l, kp, lp, depth)
    assert rep["atoms_checked"] > 0
    assert not rep["undetermined"]


@pytest.mark.parametrize("depth", [0, -1])
def test_verify_graph_coe_refuses_depth_below_1(depth):
    # at depth 0 no atom of the length >= 1 boundary is left to check
    T, Tinv, k, l, kp, lp, _ = _identity_coe_data(EDGE, 2)
    with pytest.raises(gr.DepthTooSmall) as err:
        gr.verify_graph_coe(EDGE, EDGE, T, Tinv, k, l, kp, lp, depth)
    assert (str(err.value), err.value.witness) == (f"depth {depth} < 1", depth)


def test_verify_graph_coe_perturbed_cocycle_fails():
    T, Tinv, k, l, kp, lp, depth = _identity_coe_data(EDGE, 2)
    l[next(iter(l))] = 0
    with pytest.raises((gr.AtomFails, gr.DepthInsufficient)):
        gr.verify_graph_coe(EDGE, EDGE, T, Tinv, k, l, kp, lp, depth)


def test_verify_graph_coe_renamed_cyclic_graphs():
    # loop-with-exit against a renamed copy: the cylinder-level check is
    # exact on every atom because the runs align one edge at a time
    other = gr.make_graph(["a", "b"], [("x", "a", "a"), ("y", "a", "b")])
    T = _renaming_transducer(LOOP_EXIT, other, {"e": "x", "f": "y"}, {"w": "b"})
    Tinv = _renaming_transducer(other, LOOP_EXIT, {"x": "e", "y": "f"}, {"b": "w"})
    depth = 3
    k = {gr.fmt_path(LOOP_EXIT, a.mu): 0 for a in gr.boundary_atoms(LOOP_EXIT, depth, min_len=1)}
    l = {key: 1 for key in k}
    kp = {gr.fmt_path(other, a.mu): 0 for a in gr.boundary_atoms(other, depth, min_len=1)}
    lp = {key: 1 for key in kp}
    rep = gr.verify_graph_coe(LOOP_EXIT, other, T, Tinv, k, l, kp, lp, depth)
    assert not rep["undetermined"]
    assert rep["atoms_checked"] == len(k) + len(kp)


def test_verify_graph_coe_wrong_transducer_fails_on_atom():
    # swapping the two loop edges of a 2-loop graph against the identity
    # cocycles trips the atom check rather than the invertibility gate
    two_loop = gr.make_graph(["v"], [("e", "v", "v"), ("f", "v", "v")])
    ident = oracles.identity_transducer(two_loop)
    swap = _renaming_transducer(two_loop, two_loop, {"e": "f", "f": "e"}, {})
    depth = 2
    k = {gr.fmt_path(two_loop, a.mu): 0 for a in gr.boundary_atoms(two_loop, depth, min_len=1)}
    l = {key: 1 for key in k}
    # identity transducer with identity cocycles passes
    rep = gr.verify_graph_coe(two_loop, two_loop, ident, ident, k, l, dict(k), dict(l), depth)
    assert rep["atoms_checked"] > 0
    # the edge swap is still a homeomorphism commuting with the shift, so it
    # passes too; corrupting one cocycle value must fail
    rep = gr.verify_graph_coe(two_loop, two_loop, swap, swap, k, l, dict(k), dict(l), depth)
    assert not rep["undetermined"]
    bad_l = dict(l)
    bad_l[next(iter(bad_l))] = 2
    with pytest.raises((gr.AtomFails, gr.DepthInsufficient)):
        gr.verify_graph_coe(two_loop, two_loop, ident, ident, k, bad_l, dict(k), dict(l), depth)


def test_graph_coe_search_identical_graphs():
    data = gr.graph_coe_search(EDGE, EDGE)
    assert data is not None
    assert data["phi"] == {"w": "w", "e": "e"}


def test_graph_coe_search_distinguishes_sizes():
    single = gr.make_graph(["v"], [])
    assert gr.graph_coe_search(EDGE, single) is None


def test_graph_coe_search_agrees_with_groupoid_iso():
    cases = [(EDGE, FAN), (EDGE, EDGE), (FAN, FAN)]
    for A, B in cases:
        found = gr.graph_coe_search(A, B) is not None
        ga, _, _, _ = gr.boundary_groupoid(A)
        gb, _, _, _ = gr.boundary_groupoid(B)
        assert found == (germs.groupoid_iso_search(ga, gb) is not None)


def test_graph_coe_search_renamed_graph():
    renamed = gr.make_graph(["a", "b"], [("x", "a", "b")])
    data = gr.graph_coe_search(EDGE, renamed)
    assert data is not None
    assert data["phi"] == {"w": "b", "e": "x"}


def test_graph_coe_search_cyclic_raises():
    with pytest.raises(gr.NotAcyclic):
        gr.graph_coe_search(LOOP, LOOP)


def _long_path(n, cycle=False):
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    if cycle:
        edges.append(("back", f"v{n - 1}", "v0"))
    return gr.make_graph([f"v{i}" for i in range(n)], edges)


def test_has_cycle_on_long_path_and_cycle():
    # the depth-first search keeps its own stack: 1500 vertices deep
    assert not gr.has_cycle(_long_path(1500))
    assert gr.has_cycle(_long_path(1500, cycle=True))


def test_graph_analyze_on_long_path_reaches_a_limit():
    # out-edges are read off a table built once, so the paths are counted to
    # the limit instead of scanning every edge per path
    with pytest.raises(ResourceLimit, match="^too many paths$"):
        gr.graph_analyze(_long_path(1500))


def test_graph_semigroup_too_large_counts_before_building():
    # |S_E| = 1 + sum over v of (paths ending at v)^2 = 1 + 1^2 + ... + 100^2
    with pytest.raises(ResourceLimit) as exc:
        gr.graph_semigroup(_long_path(100))
    assert str(exc.value) == "|S_E| = 338351 exceeds 2000"
    S, payload = gr.graph_semigroup(_long_path(3))
    assert len(S) == len(payload) == 1 + 1 + 4 + 9


def test_graph_analyze_reports():
    rep = gr.graph_analyze(LOOP)
    assert not rep["condition_L"] and not rep["top_principal"]
    assert rep["witness_loop"] == "e" and rep["witness_isolated_cylinder"]
    rep = gr.graph_analyze(LOOP_EXIT)
    assert rep["condition_L"] and rep["top_principal"]
    rep = gr.graph_analyze(EDGE)
    assert rep["acyclic"] and rep["boundary_size"] == 2
    rep = gr.graph_analyze(CYCLE2)
    assert not rep["acyclic"] and rep["condition_L"] and rep["top_principal"]


@pytest.mark.parametrize("name", ["dag16", "cycle2-exit"])
def test_analyze_and_boundary_groupoid_enumerate_paths_once(monkeypatch, name):
    g = oracles.seeded_dag(random.Random(6), 16, 20) if name == "dag16" else catalog.graphs(name)
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gr, "all_finite_paths", counted(gr.all_finite_paths))
    monkeypatch.setattr(gr, "has_cycle", counted(gr.has_cycle))
    rep = gr.graph_analyze(g)
    assert calls == {"all_finite_paths": 1, "has_cycle": 1}
    assert rep["acyclic"] == (name == "dag16")
    calls.clear()
    if name == "dag16":
        gpd, _, _, rep = gr.boundary_groupoid(g)
        assert rep["isomorphic"] and rep["boundary_arrows"] == len(gpd.arrows)
    else:
        with pytest.raises(gr.NotAcyclic, match="^boundary groupoid is infinite$"):
            gr.boundary_groupoid(g)
    assert calls == {"all_finite_paths": 1, "has_cycle": 1}


def test_canonical_action_boundary_matches_enumeration():
    # the boundary read off the payload is boundary_enumerate's, in its order
    for g in _acyclic_graphs() + [oracles.seeded_dag(random.Random(6), 16, 20)]:
        _, _, boundary = gr.canonical_graph_action(g)
        assert boundary == gr.boundary_enumerate(g)


def test_boundary_action_is_the_hand_built_one():
    # the tight action of S_E, renamed to paths, against the action built
    # by prefix replacement with one product per pair, key order included
    rng = random.Random(32)
    graphs = [g for g in map(catalog.graphs, catalog.GRAPH_NAMES) if not gr.has_cycle(g)]
    graphs += [oracles.seeded_dag(rng, rng.randint(2, 8), rng.randint(1, 10)) for _ in range(30)]
    graphs.append(oracles.seeded_dag(random.Random(6), 16, 20))
    for g in graphs:
        act, payload, boundary = gr.canonical_graph_action(g)
        old, old_payload, old_boundary = oracles.boundary_action_by_prefixes(g)
        assert (payload, boundary) == (old_payload, old_boundary)
        assert act.carrier == old.carrier and act.domains == old.domains
        assert [list(m.items()) for m in act.maps] == [list(m.items()) for m in old.maps]
    assert len(act.semigroup) == 1798
