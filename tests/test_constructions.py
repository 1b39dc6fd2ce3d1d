"""The canonical actions and groupoids are built by proof, not validated.

Each constructor runs with `paction.validate_partial_action` and
`germs.validate_groupoid` patched to raise, and its result must equal what
the validator returns on the same fields: actions by `PartialAction.__eq__`
(and `is_global`), groupoids on every field, `gens` included.  The inputs
are built first, unpatched: the catalog semigroups, I_3, I_4, Z_5 and
S(Z_5), partial actions restricted from self actions, the catalog graphs
and seeded DAGs, and seeded inverse subsemigroups of I_4.
"""

import random

import oracles
import pytest

from germkit import catalog, germs, graph as gr, invsemi, paction


def _refuse(*args, **kwargs):
    raise AssertionError("a constructor by proof called a validator")


def _groupoid_fields(G):
    return G.arrows, G.units, G.source, G.target, G.inverse, G.compose, G.gens


def _build_all(semigroups, partial_actions, graphs):
    """(actions, global_actions, groupoids, factorings) built by every
    constructor by proof from the given inputs; global_actions are the
    homomorphisms S -> I(X)."""
    actions, global_actions, groupoids, factorings = [], [], [], []

    def from_action(theta):
        groupoids.append(germs.groupoid_of_germs(theta).groupoid)
        factorings.append((theta, paction.action_factors_through_group(theta)))
        if invsemi.is_e_unitary(theta.semigroup)[0]:
            actions.append(paction.induced_group_action(theta)[0])
        if invsemi.is_group(theta.semigroup):
            global_actions.append(paction.induced_exel_action(theta)[0])

    for S in semigroups:
        canonical = [invsemi.munn_representation(S), invsemi.canonical_self_action(S),
                     paction.one_point_trivial_action(S)]
        global_actions.extend(canonical)
        groupoids.append(invsemi.restricted_product_groupoid(S))
        for theta in canonical:
            from_action(theta)
    for theta in partial_actions:
        from_action(theta)
    groupoids += [catalog.pair_groupoid(n) for n in (1, 2, 3)]
    for g in graphs:
        built = gr.canonical_graph_action(g)
        if isinstance(built, gr.CylinderAction):
            continue
        global_actions.append(built[0])
        gpd, germ, _, _ = gr.boundary_groupoid(g)
        groupoids += [gpd, germ.groupoid]
    return actions, global_actions, groupoids, factorings


def _check_built_by_proof(monkeypatch, semigroups, partial_actions, graphs):
    with monkeypatch.context() as m:
        m.setattr(paction, "validate_partial_action", _refuse)
        m.setattr(germs, "validate_groupoid", _refuse)
        actions, global_actions, groupoids, factorings = _build_all(semigroups, partial_actions, graphs)
    assert all(theta.is_global for theta in global_actions)
    actions += global_actions
    for theta in actions:
        valid = paction.validate_partial_action(theta.semigroup, theta.carrier, theta.domains, theta.maps)
        assert theta == valid and theta.is_global == valid.is_global
    for G in groupoids:
        valid = germs.validate_groupoid(G.arrows, G.units, G.source, G.target, G.inverse, G.compose)
        assert _groupoid_fields(G) == _groupoid_fields(valid)
    for theta, reading in factorings:
        assert reading == oracles.factors_through_group_validated(theta)
    return actions, groupoids


def _restrictions(theta, rng, count):
    """count seeded restrictions of theta to nonempty subsets of its carrier."""
    npts = len(theta.carrier)
    return [oracles.restrict_action(theta, rng.sample(range(npts), rng.randint(1, npts)))
            for _ in range(count)]


def test_canonical_objects_are_built_without_validation(monkeypatch):
    Z5 = invsemi.validate_inverse_semigroup(
        [f"a{i}" for i in range(5)], [[(i + j) % 5 for j in range(5)] for i in range(5)])
    semigroups = [catalog.semigroup(name) for name in catalog.SEMIGROUP_NAMES] + [
        invsemi.symmetric_inverse_semigroup(3)[0], invsemi.symmetric_inverse_semigroup(4)[0],
        Z5, invsemi.exel_semigroup(Z5).semigroup]
    rng = random.Random(29)
    partial_actions = [catalog.action("z2-swap")]
    for S in (catalog.semigroup("z3"), Z5, semigroups[7]):  # Z_3, Z_5, I_3
        partial_actions += _restrictions(invsemi.canonical_self_action(S), rng, 3)
    graphs = [catalog.graphs(name) for name in catalog.GRAPH_NAMES]
    graphs.append(oracles.seeded_dag(random.Random(6), 16, 20))
    graphs += [oracles.seeded_dag(rng, 5, 6) for _ in range(4)]
    actions, groupoids = _check_built_by_proof(monkeypatch, semigroups, partial_actions, graphs)
    # every kind of constructor was reached, the truly partial inputs too
    assert any(not theta.is_global for theta in partial_actions)
    assert len(actions) > 3 * len(semigroups) and len(groupoids) > 4 * len(semigroups)


def _random_partial_bijection(rng, n):
    dom = rng.sample(range(n), rng.randint(0, n))
    return invsemi.PartialBijection(tuple(sorted(zip(dom, rng.sample(range(n), len(dom))))))


def _generated_subsemigroup(rng, n=4):
    """The inverse subsemigroup of I_n generated by 1-3 seeded partial
    bijections and their inverses, tabulated and then validated."""
    letters = []
    for _ in range(rng.randint(1, 3)):
        f = _random_partial_bijection(rng, n)
        letters += [f, invsemi.PartialBijection(tuple(sorted((y, x) for x, y in f.mapping)))]
    items = list(dict.fromkeys(letters))
    for f in items:  # items grows while it is scanned
        for a in letters:
            fa = invsemi.compose_partial(f, a)
            if fa not in items:
                items.append(fa)
    names = ["".join(f"{x}>{y}" for x, y in f.mapping) or "0" for f in items]
    table = invsemi.tabulate(items, invsemi.compose_partial, list(dict.fromkeys(letters)))
    return invsemi.validate_inverse_semigroup(names, table)


@pytest.mark.parametrize("seed", range(24))
def test_generated_subsemigroups_of_i4_build_by_proof(monkeypatch, seed):
    rng = random.Random(seed)
    S = _generated_subsemigroup(rng)
    partial_actions = _restrictions(invsemi.canonical_self_action(S), rng, 2)
    _check_built_by_proof(monkeypatch, [S], partial_actions, [])


def _is_global(theta):
    """The formula `PartialAction.is_global` reads on demand."""
    S, domains = theta.semigroup, theta.domains
    return all(domains[S.inv(s)] == domains[S.mul(S.inv(s), s)] for s in range(len(S)))


def _no_table(*args):
    raise AssertionError("a table was filled where none is read")


def test_no_table_is_filled_where_none_is_read(monkeypatch):
    # S_E, its canonical action and the graph report, and the one-point
    # actions of I_5 and S(Z_7), are all built with `tabulate` made to raise
    rng = random.Random(31)
    graphs = [catalog.graphs(name) for name in catalog.GRAPH_NAMES]
    graphs = [g for g in graphs if not gr.has_cycle(g)]
    graphs += [oracles.seeded_dag(rng, rng.randint(2, 6), rng.randint(0, 8)) for _ in range(30)]
    dag16 = oracles.seeded_dag(random.Random(6), 16, 20)
    graphs.append(dag16)
    z7 = invsemi.validate_inverse_semigroup([str(i) for i in range(7)],
                                            [[(i + j) % 7 for j in range(7)] for i in range(7)])
    with monkeypatch.context() as m:
        m.setattr(invsemi, "tabulate", _no_table)
        semigroups = [gr.graph_semigroup(g)[0] for g in graphs]
        reports = [gr.graph_analyze(g) for g in graphs]
        actions = [gr.canonical_graph_action(g)[0] for g in graphs]
        actions += [paction.one_point_trivial_action(S) for S in (
            invsemi.symmetric_inverse_semigroup(5, max_elements=1546)[0],
            invsemi.exel_semigroup(z7).semigroup)]
    assert len(semigroups[-1]) == 1798
    assert all(rep["acyclic"] and rep["top_principal"] for rep in reports)
    assert gr.boundary_groupoid(dag16)[3]["isomorphic"]
    assert [theta.is_global for theta in actions] == [_is_global(theta) for theta in actions]
    assert all(theta.is_global for theta in actions)
