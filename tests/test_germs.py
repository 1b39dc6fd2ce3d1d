import dataclasses
import random
import tracemalloc
from collections import Counter
from itertools import combinations, product

import oracles
import pytest

from germkit import catalog, germs, graph, invsemi, paction


def test_germ_relation_trivial_for_group_actions():
    theta = catalog.action("z2-swap")
    gg = germs.groupoid_of_germs(theta)
    # arrows = pairs (g, x) with x in X_{g^-1}: 3 + 2
    assert len(gg.groupoid.arrows) == 5
    assert len(gg.groupoid.units) == 3


def test_one_point_action_gives_maximal_group_image():
    for name in ("z2", "z3", "i2", "se-edge", "sz2"):
        S = catalog.semigroup(name)
        gg = germs.groupoid_of_germs(paction.one_point_trivial_action(S))
        gi = invsemi.max_group_image(S)
        assert len(gg.groupoid.arrows) == len(gi.group)
        assert len(gg.groupoid.units) == 1


def test_munn_chain2_two_unit_arrows():
    gg = germs.groupoid_of_germs(catalog.action("munn-chain2"))
    assert len(gg.groupoid.arrows) == 2
    assert set(gg.groupoid.units) == {0, 1}


def test_germ_output_validates():
    # construction guarantees validity; validate_groupoid runs inside
    for name in catalog.ACTION_NAMES:
        gg = germs.groupoid_of_germs(catalog.action(name))
        assert len(gg.groupoid.arrows) >= len(gg.groupoid.units)


def test_validate_groupoid_pair():
    G = catalog.pair_groupoid(2)
    assert len(G.arrows) == 4
    assert len(G.units) == 2


def test_validate_groupoid_rejects_bad_associativity():
    G = catalog.pair_groupoid(2)
    bad = [dict(row) for row in G.compose]
    # deliberately corrupt one composite to a differently-typed arrow
    a, (b, c) = 0, min(bad[0].items())
    other = next(
        x
        for x in range(len(G.arrows))
        if x != c and (G.source[x] != G.source[c] or G.target[x] != G.target[c])
    )
    bad[a][b] = other
    with pytest.raises(germs.GroupoidError):
        germs.validate_groupoid(G.arrows, G.units, G.source, G.target, G.inverse, bad)


def test_germ_quotient_is_congruence():
    # product of classes does not depend on representatives
    rng = random.Random(0)
    for name in ("munn-i2", "self-se-edge", "munn-sz2"):
        theta = catalog.action(name)
        gg = germs.groupoid_of_germs(theta)
        S = theta.semigroup
        members = {}
        for (s, x), cls in gg.pair_class.items():
            members.setdefault(cls, []).append((s, x))
        pairs = [
            (a, b)
            for a in range(len(gg.groupoid.arrows))
            for b in range(len(gg.groupoid.arrows))
            if b in gg.groupoid.compose[a]
        ]
        for a, b in rng.sample(pairs, min(len(pairs), 40)):
            expect = gg.groupoid.compose[a][b]
            for s, x in members[a]:
                for t, y in members[b]:
                    if x == theta.theta(t, y):
                        assert gg.pair_class[(S.mul(s, t), y)] == expect


def test_germ_relation_agrees_with_lower_bound_formulation():
    # oracle: (s,x) ~ (t,x) iff some u <= s,t has x in X_{u*}; the
    # construction uses the idempotent formulation (some e with x in X_e and
    # se = te) and the two must coincide pairwise
    for name in ("munn-i2", "self-se-edge", "munn-sz2", "z2-swap", "fan-boundary"):
        theta = catalog.action(name)
        S = theta.semigroup
        gg = germs.groupoid_of_germs(theta)
        by_point = {}
        for s, x in theta.pairs():
            by_point.setdefault(x, []).append(s)
        for x, acting in by_point.items():
            for s in acting:
                for t in acting:
                    via_lower_bound = any(
                        invsemi.natural_leq(S, u, s)
                        and invsemi.natural_leq(S, u, t)
                        and x in theta.dom(u)
                        for u in range(len(S))
                    )
                    assert via_lower_bound == (gg.germ(s, x) == gg.germ(t, x))


def test_germ_inverse_well_defined_on_classes():
    for name in ("munn-i2", "munn-sz2"):
        theta = catalog.action(name)
        gg = germs.groupoid_of_germs(theta)
        S = theta.semigroup
        for (s, x), cls in gg.pair_class.items():
            y = theta.theta(s, x)
            assert gg.pair_class[(S.inv(s), y)] == gg.groupoid.inverse[cls]


def test_free_actions_have_injective_source_range_pairs():
    # the finite-discrete shadow of Hausdorffness: a free action never has two
    # distinct germs over the same (source, range) pair
    for name in catalog.ACTION_NAMES:
        theta = catalog.action(name)
        if not paction.dynamics_report(theta).free:
            continue
        G = germs.groupoid_of_germs(theta).groupoid
        seen = {}
        for a in range(len(G.arrows)):
            key = (G.source[a], G.target[a])
            assert key not in seen, (name, key)
            seen[key] = a


def test_isotropy_pair_groupoid_trivial():
    rep = germs.isotropy_report(catalog.pair_groupoid(2))
    assert rep.effective and rep.top_principal
    assert len(rep.trivial_points) == 2


def test_isotropy_one_unit_group_not_effective():
    rep = germs.isotropy_report(catalog.groupoid("z2-one-unit"))
    assert not rep.effective
    assert rep.trivial_points == ()


def test_trivial_points_equal_lambda():
    for name in catalog.ACTION_NAMES:
        theta = catalog.action(name)
        gg = germs.groupoid_of_germs(theta)
        rep = germs.isotropy_report(gg.groupoid)
        pts = sorted(gg.point_of_unit[u] for u in rep.trivial_points)
        assert tuple(pts) == paction.dynamics_report(theta).lambda_points


def test_ample_semigroup_of_singleton():
    G = catalog.pair_groupoid(1)
    amp = germs.ample_semigroup(G)
    assert len(amp.semigroup) == 2  # empty set and the unit
    assert set(amp.semigroup.idempotents) == {0, 1}


def test_ample_semigroup_pair_groupoid_is_i2():
    G = catalog.pair_groupoid(2)
    amp = germs.ample_semigroup(G)
    assert len(amp.semigroup) == 7
    # idempotent bisections are exactly the subsets of the unit space
    units = set(G.units)
    for i in amp.semigroup.idempotents:
        assert amp.bisections[i] <= units
    # tau maps bisections bijectively onto I({1,2})
    I2, maps = invsemi.symmetric_inverse_semigroup(2)
    upos = {u: i for i, u in enumerate(G.units)}
    tau = {}
    for b in amp.bisections:
        pb = tuple(sorted((upos[G.source[a]], upos[G.target[a]]) for a in b))
        tau[b] = next(i for i, f in enumerate(maps) if f.mapping == pb)
    assert len(set(tau.values())) == 7
    for A in amp.bisections:
        for B in amp.bisections:
            AB = germs.bisection_product(G, A, B)
            assert tau[AB] == I2.mul(tau[A], tau[B])


def test_bisection_product_matches_all_pairs_oracle():
    # every ordered pair of bisections of each catalog groupoid, then drawn
    # arrow sets that need not be bisections, and the set of all arrows
    rng = random.Random(11)
    non_bisections = 0
    for name in catalog.GROUPOID_NAMES:
        G = catalog.groupoid(name)
        bis = germs.ample_semigroup(G).bisections
        for A, B in product(bis, repeat=2):
            assert germs.bisection_product(G, A, B) == oracles.bisection_product_by_pairs(G, A, B), name
        arrows = frozenset(range(len(G)))
        drawn = [frozenset(a for a in arrows if rng.random() < 0.6) for _ in range(30)] + [arrows]
        for A, B in product(drawn, repeat=2):
            assert germs.bisection_product(G, A, B) == oracles.bisection_product_by_pairs(G, A, B), name
        non_bisections += sum(not germs.is_bisection(G, A) for A in drawn)
    assert non_bisections


def test_ample_semigroup_generated():
    G = catalog.pair_groupoid(2)
    non_unit = [a for a in range(4) if a not in G.units]
    amp = germs.ample_semigroup(G, generators=[frozenset([non_unit[0]])])
    # the single off-diagonal arrow generates matrix-unit style bisections
    assert frozenset() in amp.bisections
    assert all(germs.is_bisection(G, b) for b in amp.bisections)


def _least_pair_with_equal_ends(G):
    """The least arrow a that shares its ends with another, and the least
    such other b > a; None when no two arrows share their ends."""
    ends = list(zip(G.source, G.target))
    shared = Counter(ends)
    a = next((a for a, e in enumerate(ends) if shared[e] > 1), None)
    return None if a is None else (a, ends.index(ends[a], a + 1))


def test_full_pseudogroup_matches_effectiveness():
    # the verdict read off the arrows' ends agrees with the one read off every
    # bisection, on the germ groupoids of every catalog action (Munn I_2's
    # among them) too, and tau is equal on the witness pair
    for name in _catalog_groupoid_names():
        G = catalog.groupoid(name)
        rep = germs.full_pseudogroup(G)
        assert rep.theorem_holds, name
        assert rep.injective == oracles.taus_injective_by_enumeration(G), name
        assert rep.witness == _least_pair_with_equal_ends(G), name
        if rep.witness is not None:
            a, b = rep.witness
            assert (G.source[a], G.target[a]) == (G.source[b], G.target[b]), name


def test_full_pseudogroup_one_unit_z2_not_injective():
    rep = germs.full_pseudogroup(catalog.groupoid("z2-one-unit"))
    assert not rep.injective and not rep.effective
    assert rep.witness == (0, 1)


@pytest.mark.parametrize("n, kind", [(3, "munn"), (4, "munn"), (5, "munn"), (3, "self"), (4, "self")])
def test_full_pseudogroup_past_the_enumeration(n, kind):
    # the Munn germ groupoids are not effective and the self ones are; listing
    # their bisections hits its limit, the arrows' ends decide at once
    S, _ = invsemi.symmetric_inverse_semigroup(n, max_elements=1546)
    theta = invsemi.munn_representation(S) if kind == "munn" else invsemi.canonical_self_action(S)
    G = germs.groupoid_of_germs(theta).groupoid
    rep = germs.full_pseudogroup(G)
    assert rep.theorem_holds and rep.effective == (kind == "self")
    assert rep.witness == _least_pair_with_equal_ends(G)
    with pytest.raises(germs.ResourceLimit):
        oracles.taus_injective_by_enumeration(G)


@pytest.mark.parametrize("name", ["rp-nosuch", "germ-nosuch"])
def test_unknown_derived_catalog_groupoid_is_reported_under_its_own_name(name):
    with pytest.raises(KeyError) as err:
        catalog.groupoid(name)
    assert err.value.args == (f"unknown catalog groupoid {name!r}",)


def _ample_cases():
    """(name, groupoid, generators or None): every catalog groupoid, with
    every bisection and with every third one as generators, the basic
    bisections of the Munn actions of I_2 and I_3, and one arrow of the
    pair groupoid."""
    cases = []
    for name in catalog.GROUPOID_NAMES:
        G = catalog.groupoid(name)
        cases += [(name, G, None), (f"{name}/gen", G, germs.all_bisections(G)[1::3])]
    for n in (2, 3):
        gg = germs.groupoid_of_germs(invsemi.munn_representation(invsemi.symmetric_inverse_semigroup(n)[0]))
        theta = gg.action
        cases.append((f"munn-i{n}/basic", gg.groupoid,
                      [germs.basic_bisection(gg, s, theta.dom(s)) for s in range(len(theta.semigroup))]))
    pair = catalog.groupoid("pair")
    cases.append(("pair/arrow", pair, [frozenset([next(a for a in range(len(pair)) if a not in pair.units)])]))
    return cases


def _refuse(*args):
    raise AssertionError("a table was filled or a validator ran at build time")


def _assert_same_ample_semigroup(amp, want, name):
    """Every field of amp equals want's, the table included, but gens, which
    need only generate: right products reach every bisection from them."""
    assert (amp.bisections, amp.index) == (want.bisections, want.index), name
    S, T = amp.semigroup, want.semigroup
    assert (S.elements, S.inverse, S.d, S.idempotents, S.zero, S.below) == (
        T.elements, T.inverse, T.d, T.idempotents, T.zero, T.below), name
    letters = [amp.bisections[a] for a in S.gens]
    assert oracles.bisections_reached(amp.groupoid, letters) == set(amp.bisections), name
    assert S.table == T.table, name


def test_ample_semigroup_matches_validated_build():
    for name, G, gens in _ample_cases():
        amp = germs.ample_semigroup(G, generators=gens)
        _assert_same_ample_semigroup(amp, oracles.ample_semigroup_validated(G, generators=gens), name)
        _assert_same_ample_semigroup(amp, oracles.ample_semigroup_by_all_letters(G, generators=gens), name)


def test_ample_semigroup_builds_no_table(monkeypatch):
    # each reached bisection is multiplied by each greedy letter once, the
    # zero check adds at most two products a letter, and no table is filled
    # or read: the letters are a subset of the generators and inverses
    gg = germs.groupoid_of_germs(invsemi.munn_representation(invsemi.symmetric_inverse_semigroup(3)[0]))
    theta = gg.action
    gens = [germs.basic_bisection(gg, s, theta.dom(s)) for s in range(len(theta.semigroup))]
    calls = []
    multiplication = germs.right_multiplication

    def counted(G, B):
        times_b = multiplication(G, B)

        def product(A):
            calls.append((A, B))
            return times_b(A)
        return product

    monkeypatch.setattr(germs, "right_multiplication", counted)
    for name in ("validate_inverse_semigroup", "tabulate", "table_closure"):
        monkeypatch.setattr(invsemi, name, _refuse)
    amp = germs.ample_semigroup(gg.groupoid, generators=gens)
    letters = [amp.bisections[a] for a in amp.semigroup.gens]
    assert set(letters) <= set(gens) | {germs.bisection_inverse(gg.groupoid, g) for g in gens}
    k = len(amp.bisections) * len(letters)
    walk, zero_check = calls[:k], calls[k:]
    assert len(set(walk)) == k and set(walk) == set(product(amp.bisections, letters))
    m = amp.bisections[amp.semigroup.zero]
    assert len(zero_check) <= 2 * len(letters) and all(m in pair for pair in zero_check)
    # 4 letters of the 34 the old walk multiplied by
    assert len(letters) == 4 and len(amp.bisections) == 34


def test_ample_semigroup_rejects_a_generator_that_is_not_a_bisection():
    # two arrows with one source once gave a 4-element table that is not
    # inverse ({(1|1)} had inverses {(1|1)} and {(1|1),(1|2)})
    G = catalog.groupoid("pair")
    assert G.source[0] == G.source[2]
    with pytest.raises(germs.GroupoidError) as err:
        germs.ample_semigroup(G, generators=[frozenset({0, 2})])
    assert err.value.witness == 0
    # the least offending index is the witness, for arrows outside G too
    good = frozenset({0})
    for bad in ([frozenset({len(G.arrows)})], [frozenset({-1})], [frozenset({"0"})], [frozenset({0, 2})]):
        with pytest.raises(germs.GroupoidError) as err:
            germs.ample_semigroup(G, generators=[good, good] + bad + [frozenset({0, 2})])
        assert err.value.witness == 2


def test_canonical_bisection_action_is_the_validated_one(monkeypatch):
    # tau is built by proof, with no validator run and no table filled; the
    # validator, run on the same maps after the build, returns the same
    # action or raises the same Degenerate
    def outcome(build, amp):
        try:
            return build(amp)
        except paction.ActionError as err:
            return type(err), str(err), err.witness

    degenerate = []
    for name, G, gens in _ample_cases():
        amp = germs.ample_semigroup(G, generators=gens)
        with monkeypatch.context() as m:
            m.setattr(paction, "validate_partial_action", _refuse)
            m.setattr(invsemi, "tabulate", _refuse)
            tau = outcome(germs.canonical_bisection_action, amp)
        want = outcome(oracles.canonical_bisection_action_validated, amp)
        assert tau == want, name
        if isinstance(tau, paction.PartialAction):
            assert tau.maps == want.maps and tau.is_global, name
        else:
            degenerate.append(name)
    assert degenerate == ["rp-chain2/gen"]


def _random_bisection(rng, G):
    """A seeded bisection of G: a random set of arrows, each kept when its
    source and target are still free."""
    sources, targets, out = set(), set(), []
    for a in rng.sample(range(len(G.arrows)), rng.randint(1, len(G.arrows))):
        if G.source[a] not in sources and G.target[a] not in targets:
            sources.add(G.source[a])
            targets.add(G.target[a])
            out.append(a)
    return frozenset(out)


def _seeded_basic_bisection(rng, germ):
    """[s, U] for a seeded s and a seeded subset U of its domain."""
    theta = germ.action
    s = rng.randrange(len(theta.semigroup))
    dom = theta.dom(s)
    return germs.basic_bisection(germ, s, rng.sample(dom, rng.randint(0, len(dom))))


def _check_seeded_ample_semigroups(monkeypatch, S, rng):
    """The ample semigroups of 1-3 seeded basic and of 1-3 seeded random
    bisections of S's Munn and self germ groupoids, built with `tabulate`
    refused, against the walk over every letter; past 2000 bisections both
    raise."""
    for theta in (invsemi.munn_representation(S), invsemi.canonical_self_action(S)):
        germ = germs.groupoid_of_germs(theta)
        G = germ.groupoid
        for draw in (lambda: _seeded_basic_bisection(rng, germ), lambda: _random_bisection(rng, G)):
            gens = [draw() for _ in range(rng.randint(1, 3))]
            name = f"{len(S)}/{len(G.arrows)}/{gens}"
            try:
                want = oracles.ample_semigroup_by_all_letters(G, max_size=2000, generators=gens)
            except germs.ResourceLimit:
                with pytest.raises(germs.ResourceLimit):
                    germs.ample_semigroup(G, max_size=2000, generators=gens)
                continue
            with monkeypatch.context() as m:
                m.setattr(invsemi, "tabulate", _refuse)
                amp = germs.ample_semigroup(G, max_size=2000, generators=gens)
            _assert_same_ample_semigroup(amp, want, name)


@pytest.mark.parametrize("seed", range(24))
def test_ample_semigroups_of_seeded_subsemigroups_of_i4(monkeypatch, seed):
    rng = random.Random(seed)
    _check_seeded_ample_semigroups(monkeypatch, oracles.seeded_subsemigroup(rng), rng)


@pytest.mark.parametrize("seed", range(4))
def test_ample_semigroups_over_s_z5(monkeypatch, seed):
    z5 = invsemi.validate_inverse_semigroup([str(i) for i in range(5)],
                                            [[(i + j) % 5 for j in range(5)] for i in range(5)])
    _check_seeded_ample_semigroups(monkeypatch, invsemi.exel_semigroup(z5).semigroup, random.Random(seed))


def test_canonical_bisection_action_recovers_groupoid():
    # the germ groupoid of the ample semigroup acting on units is the groupoid
    for name in ("pair", "z2-one-unit", "rp-chain2"):
        G = catalog.groupoid(name)
        amp = germs.ample_semigroup(G)
        act = germs.canonical_bisection_action(amp)
        gg = germs.groupoid_of_germs(act)
        iso = germs.groupoid_iso_search(gg.groupoid, G)
        assert iso is not None and germs.verify_groupoid_iso(iso)


def test_basic_bisection_product_formula():
    theta = catalog.action("munn-i2")
    gg = germs.groupoid_of_germs(theta)
    G = gg.groupoid
    S = theta.semigroup
    rng = random.Random(1)
    for _ in range(60):
        s = rng.randrange(len(S))
        t = rng.randrange(len(S))
        U = [x for x in theta.dom(s) if rng.random() < 0.7]
        V = [x for x in theta.dom(t) if rng.random() < 0.7]
        A = germs.basic_bisection(gg, s, U)
        B = germs.basic_bisection(gg, t, V)
        # germ-set product equals the basic bisection [st, W] with
        # W = V n theta_t^{-1}(U n X_t)
        W = [
            y
            for y in V
            if theta.theta(t, y) in set(U) & set(theta.dom(s))
        ]
        assert germs.bisection_product(G, A, B) == germs.basic_bisection(gg, S.mul(s, t), W)


def test_basic_bisection_intersection_formula():
    theta = catalog.action("munn-i2")
    gg = germs.groupoid_of_germs(theta)
    S = theta.semigroup
    rng = random.Random(2)
    for _ in range(60):
        s = rng.randrange(len(S))
        t = rng.randrange(len(S))
        U = [x for x in theta.dom(s) if rng.random() < 0.8]
        V = [x for x in theta.dom(t) if rng.random() < 0.8]
        lhs = germs.basic_bisection(gg, s, U) & germs.basic_bisection(gg, t, V)
        rhs = frozenset()
        for z in range(len(S)):
            if invsemi.natural_leq(S, z, s) and invsemi.natural_leq(S, z, t):
                W = set(U) & set(V) & set(theta.dom(z))
                rhs |= germs.basic_bisection(gg, z, W)
        assert lhs == rhs


def test_universal_property_identity():
    theta = catalog.action("munn-chain2")
    gg = germs.groupoid_of_germs(theta)
    sigma = {
        s: germs.basic_bisection(gg, s, theta.dom(s))
        for s in range(len(theta.semigroup))
    }
    phi_map = {x: gg.unit_of_point[x] for x in range(len(theta.carrier))}
    psi = germs.induced_groupoid_hom(gg, gg.groupoid, sigma, phi_map)
    assert psi == {a: a for a in range(len(gg.groupoid.arrows))}


def test_universal_property_quotient_to_group_image():
    theta = catalog.action("self-sz2")
    gg = germs.groupoid_of_germs(theta)
    S = theta.semigroup
    gi = invsemi.max_group_image(S)
    n = len(gi.group)
    e = gi.group.idempotents[0]
    H = germs.validate_groupoid(
        arrows=gi.group.elements,
        units=(e,),
        source=tuple([e] * n),
        target=tuple([e] * n),
        inverse=gi.group.inverse,
        compose=[{b: gi.group.mul(a, b) for b in range(n)} for a in range(n)],
    )
    sigma = {s: frozenset([gi.class_of[s]]) for s in range(len(S))}
    phi_map = {x: e for x in range(len(theta.carrier))}
    psi = germs.induced_groupoid_hom(gg, H, sigma, phi_map)
    for (s, x), cls in gg.pair_class.items():
        assert psi[cls] == gi.class_of[s]


def test_universal_property_violated_condition():
    theta = catalog.action("munn-chain2")
    gg = germs.groupoid_of_germs(theta)
    sigma = {
        s: germs.basic_bisection(gg, s, theta.dom(s))
        for s in range(len(theta.semigroup))
    }
    phi_map = {x: gg.unit_of_point[0] for x in range(len(theta.carrier))}  # constant
    with pytest.raises(germs.ConditionFails):
        germs.induced_groupoid_hom(gg, gg.groupoid, sigma, phi_map)


def test_iso_search_finds_identity_first():
    G = catalog.pair_groupoid(2)
    iso = germs.groupoid_iso_search(G, G)
    assert iso.arrow_map == tuple(range(4))


def test_iso_search_munn_vs_restricted_product():
    for name in catalog.SEMIGROUP_NAMES:
        S = catalog.semigroup(name)
        g = germs.groupoid_of_germs(invsemi.munn_representation(S)).groupoid
        rp = invsemi.restricted_product_groupoid(S)
        iso = germs.groupoid_iso_search(g, rp)
        assert iso is not None and germs.verify_groupoid_iso(iso), name


def test_iso_search_distinguishes_isotropy():
    # pair groupoid vs two disjoint copies of the one-unit Z2 group: both have
    # four arrows and two units, but the isotropy profiles differ
    z2z2 = germs.validate_groupoid(
        arrows=("u", "g", "v", "h"),
        units=(0, 2),
        source=(0, 0, 2, 2),
        target=(0, 0, 2, 2),
        inverse=(0, 1, 2, 3),
        compose=({0: 0, 1: 1}, {0: 1, 1: 0}, {2: 2, 3: 3}, {2: 3, 3: 2}),
    )
    assert germs.groupoid_iso_search(catalog.pair_groupoid(2), z2z2) is None


def test_iso_search_timeout():
    G = catalog.groupoid("rp-i2")
    with pytest.raises(germs.Timeout):
        germs.groupoid_iso_search(G, G, timeout_nodes=2)


# --- validate_groupoid: one mutation per check, message and witness ------------------

def _z3():
    """Z/3 as a one-unit groupoid: arrows e, g, h = g^2."""
    return dict(
        arrows=("e", "g", "h"),
        units=(0,),
        source=(0, 0, 0),
        target=(0, 0, 0),
        inverse=(0, 2, 1),
        compose=[{b: (a + b) % 3 for b in range(3)} for a in range(3)],
    )


def _pair2(**changes):
    G = catalog.pair_groupoid(2)
    fields = dict(arrows=G.arrows, units=G.units, source=G.source, target=G.target,
                  inverse=G.inverse, compose=[dict(row) for row in G.compose])
    fields.update(changes)
    return fields


def _raises(fields):
    with pytest.raises(germs.GroupoidError) as err:
        germs.validate_groupoid(**fields)
    return str(err.value), err.value.witness


def test_validate_groupoid_witness_missing_composable_pair():
    # pair groupoid on 2 units: arrows (1|1), (1|2), (2|1), (2|2) are 0..3
    f = _pair2()
    del f["compose"][1][2]
    assert _raises(f) == ("compose defined on wrong pair ((1|2), (2|1))", (1, 2))


def test_validate_groupoid_witness_extra_pair():
    f = _pair2()
    f["compose"][0][2] = 2
    assert _raises(f) == ("compose defined on wrong pair ((1|1), (2|1))", (0, 2))


def test_validate_groupoid_wrong_pair_witness_is_least_mismatch():
    f = _pair2()
    del f["compose"][2][0]
    f["compose"][1][0] = 1
    assert _raises(f) == ("compose defined on wrong pair ((1|2), (1|1))", (1, 0))
    f = _pair2()
    del f["compose"][1][2]
    f["compose"][3][0] = 2
    assert _raises(f) == ("compose defined on wrong pair ((1|2), (2|1))", (1, 2))


def test_validate_groupoid_witness_badly_typed_composite():
    f = _pair2()
    f["compose"][1][2] = 1
    assert _raises(f) == ("composite (1|2)*(2|1) badly typed", (1, 2))


def test_validate_groupoid_witness_unit_not_identity():
    f = _z3()
    f["compose"][1][0] = 0
    assert _raises(f) == ("units do not act as identities at g", 1)


def test_validate_groupoid_witness_inverse_not_involution():
    f = _z3()
    f["inverse"] = (1, 2, 1)
    assert _raises(f) == ("inverse is not an involution at e", 0)


def test_validate_groupoid_witness_inverse_not_inverse():
    f = _z3()
    f["inverse"] = (0, 1, 2)
    assert _raises(f) == ("a^-1 a != s(a) at g", 1)


def test_validate_groupoid_witness_non_associative_triple():
    f = _z3()
    f["compose"][1][1] = 0
    comp = f["compose"]
    first = next(
        (a, b, c) for a in range(3) for b in range(3) for c in range(3)
        if comp[comp[a][b]][c] != comp[a][comp[b][c]]
    )
    assert first == (1, 1, 2)
    assert _raises(f) == ("composition is not associative", (1, 1, 2))


def test_validate_groupoid_accepts_unmutated_fixtures():
    assert len(germs.validate_groupoid(**_z3())) == 3
    assert len(germs.validate_groupoid(**_pair2())) == 4


@pytest.mark.parametrize("key", [(-1, 2), (2, -1), (4, 0), (0, 4)])
def test_validate_groupoid_rejects_out_of_range_compose_key(key):
    # a negative index would otherwise be read as a real arrow; rows cannot
    # hold a row index out of range, so (-1, 2) and (4, 0) become a rows
    # tuple one row short and one row long
    a, b = key
    f = _pair2()
    if 0 <= a < 4:
        f["compose"][a][b] = 0
        assert _raises(f) == ("compose key out of range", key)
    else:
        f["compose"] = f["compose"][:3] if a < 0 else f["compose"] + [{b: 0}]
        rows = len(f["compose"])
        assert _raises(f) == (f"compose has {rows} rows, not one per arrow", rows)


def test_validate_groupoid_rejects_inverse_of_wrong_type():
    # (1|2) as its own inverse: (1|2)(1|2) is not composable, so the check
    # reports the inverse instead of failing on the missing compose entry
    f = _pair2(inverse=(0, 1, 2, 3))
    assert _raises(f) == ("a^-1 a != s(a) at (1|2)", 1)


# --- germ classes by key against the paper's relation ------------------------------

def _classes_by_relation(theta):
    """pair_class, reps and unit_of_point from the germ relation alone: a
    union-find over every pair of elements acting at the same point, classes
    numbered by their least pair."""
    S = theta.semigroup
    pairs = sorted(theta.pairs())
    idx = {p: i for i, p in enumerate(pairs)}
    by_point = {}
    for s, x in pairs:
        by_point.setdefault(x, []).append(s)
    root = invsemi.union_find(len(pairs), (
        (idx[(s, x)], idx[(t, x)])
        for x, acting in by_point.items()
        for s in acting
        for t in acting
        if s < t and oracles.germ_equivalent(theta, s, t, x)
    ))
    roots = sorted(set(root))
    number = {r: k for k, r in enumerate(roots)}
    pair_class = {p: number[root[i]] for p, i in idx.items()}
    units = tuple(
        pair_class[(next(e for e in S.idempotents if x in theta.maps[e]), x)]
        for x in range(len(theta.carrier))
    )
    return pair_class, tuple(pairs[r] for r in roots), units


def _key_oracle_cases():
    S3, _ = invsemi.symmetric_inverse_semigroup(3)
    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    cases = [pytest.param(lambda name=name: catalog.action(name), id=name)
             for name in catalog.ACTION_NAMES]
    cases.append(pytest.param(lambda: invsemi.munn_representation(S3), id="munn-I3"))
    cases.append(pytest.param(lambda: invsemi.canonical_self_action(S3), id="self-I3"))
    cases.append(pytest.param(lambda: invsemi.munn_representation(S4), id="munn-I4"))
    return cases


@pytest.mark.parametrize("make", _key_oracle_cases())
def test_germ_key_matches_relation_oracle(make):
    theta = make()
    gg = germs.groupoid_of_germs(theta)
    pair_class, reps, units = _classes_by_relation(theta)
    assert gg.pair_class == pair_class
    assert list(gg.pair_class) == sorted(theta.pairs())
    assert gg.reps == reps
    assert gg.unit_of_point == units


@pytest.fixture(scope="module")
def self_action_i4():
    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    return germs.groupoid_of_germs(invsemi.canonical_self_action(S4)).groupoid


def test_germ_groupoid_of_self_action_i4(self_action_i4):
    G = self_action_i4
    assert len(G.arrows) == 3809
    assert len(G.units) == 209
    assert sum(map(len, G.compose)) == 79745


def test_compose_table_is_composable_pairs_in_order():
    for name in catalog.GROUPOID_NAMES:
        G = catalog.groupoid(name)
        n = len(G.arrows)
        brute = [(a, b) for a in range(n) for b in range(n) if G.source[a] == G.target[b]]
        table = germs.compose_table(G.source, G.target, lambda a, b: (b, a))
        assert [(a, b) for a, row in enumerate(table) for b in row] == brute, name
        assert all(table[a][b] == (b, a) for a, b in brute)
        assert [(a, b) for a, row in enumerate(G.compose) for b in row] == brute, name


# --- isomorphism by orbit structure: shuffled copies and the bijection oracle ---------

def _shuffled(G, seed):
    """G with its arrow indices permuted by a seeded shuffle, re-validated."""
    rng = random.Random(seed)
    new = list(range(len(G.arrows)))  # arrow a of G is arrow new[a] of the copy
    while len(new) > 1 and new == sorted(new):
        rng.shuffle(new)
    old = sorted(range(len(new)), key=new.__getitem__)
    compose = [None] * len(new)
    for a, row in enumerate(G.compose):
        compose[new[a]] = {new[b]: new[c] for b, c in row.items()}
    return germs.validate_groupoid(
        [G.arrows[a] for a in old],
        [new[u] for u in G.units],
        [new[G.source[a]] for a in old],
        [new[G.target[a]] for a in old],
        [new[G.inverse[a]] for a in old],
        compose,
    )


def _catalog_groupoid_names():
    return list(catalog.GROUPOID_NAMES) + [f"germ-{a}" for a in catalog.ACTION_NAMES]


@pytest.mark.parametrize("name", _catalog_groupoid_names() + ["munn-I4", "self-I4"])
def test_iso_search_on_shuffled_copy(name, request):
    if name == "munn-I4":
        S4, _ = invsemi.symmetric_inverse_semigroup(4)
        G = germs.groupoid_of_germs(invsemi.munn_representation(S4)).groupoid
    elif name == "self-I4":
        G = request.getfixturevalue("self_action_i4")
    else:
        G = catalog.groupoid(name)
    H = _shuffled(G, seed=8)
    for X in (G, H):
        assert germs.groupoid_iso_search(X, X).arrow_map == tuple(range(len(X.arrows)))
    for X, Y in ((G, H), (H, G)):
        iso = germs.groupoid_iso_search(X, Y)
        assert iso is not None and germs.verify_groupoid_iso(iso)


def _orbit_groupoid(orbits):
    """The disjoint union, over (m, K) in orbits, of the pair groupoid on m
    units times the group with Cayley table K (identity 0).  Arrow (o, i, j, g)
    goes from unit (o, j, j, 0) to unit (o, i, i, 0)."""
    arrows = [(o, i, j, g) for o, (m, K) in enumerate(orbits)
              for i in range(m) for j in range(m) for g in range(len(K))]
    idx = {a: k for k, a in enumerate(arrows)}
    source = [idx[(o, j, j, 0)] for o, i, j, g in arrows]
    target = [idx[(o, i, i, 0)] for o, i, j, g in arrows]
    inverse = [idx[(o, j, i, orbits[o][1][g].index(0))] for o, i, j, g in arrows]

    def mul(a, b):
        (o, i, _, g), (_, _, k, h) = arrows[a], arrows[b]
        return idx[(o, i, k, orbits[o][1][g][h])]

    return germs.validate_groupoid(
        [f"{o}:{i}<-{j}:{g}" for o, i, j, g in arrows], sorted(set(source)),
        source, target, inverse, germs.compose_table(source, target, mul))


Z1 = [[0]]
Z2 = [[0, 1], [1, 0]]
Z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
Z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
V4 = [[i ^ j for j in range(4)] for i in range(4)]


def _small_groupoids():
    named = [(name, catalog.groupoid(name)) for name in _catalog_groupoid_names()]
    named += [
        ("Z4", _orbit_groupoid([(1, Z4)])),
        ("V4", _orbit_groupoid([(1, V4)])),
        ("Z2+Z3", _orbit_groupoid([(1, Z2), (1, Z3)])),
        ("Z3+Z2", _orbit_groupoid([(1, Z3), (1, Z2)])),
        ("pair+Z3", _orbit_groupoid([(2, Z1), (1, Z3)])),
        ("Z2+pair+Z1", _orbit_groupoid([(1, Z2), (2, Z1), (1, Z1)])),
    ]
    return [(name, G) for name, G in named if len(G.arrows) <= 7]


def test_iso_search_matches_bijection_oracle():
    small = _small_groupoids()
    assert len(small) == 29
    for (m, G), (n, H) in product(small, repeat=2):
        found = germs.groupoid_iso_search(G, H)
        assert (found is not None) == oracles.groupoids_isomorphic(G, H), (m, n)


def test_iso_search_tells_swapped_isotropy_groups_apart():
    # Z4 and Z2 x Z2 swapped between an orbit of one unit and one of two: the
    # same counts per unit, but 20 arrows each, too many for the oracle (the
    # one-unit pair Z4, V4 is among the oracle's cases)
    G = _orbit_groupoid([(1, Z4), (2, V4)])
    H = _orbit_groupoid([(1, V4), (2, Z4)])
    assert germs.groupoid_iso_search(G, H) is None
    assert germs.groupoid_iso_search(H, G) is None
    for X, Y in ((G, _orbit_groupoid([(2, V4), (1, Z4)])), (H, _shuffled(H, seed=8))):
        iso = germs.groupoid_iso_search(X, Y)
        assert iso is not None and germs.verify_groupoid_iso(iso)


# --- associativity by Light's test: generation, corrupted composites, the oracle ------

def _generated(G, gens):
    """Every arrow that is a product of arrows in gens."""
    reached = set(gens)
    while True:
        new = {G.compose[x][y] for x in reached for y in reached if G.composable(x, y)}
        if new <= reached:
            return reached
        reached |= new


def _cyclic_partial_action(n, carrier, maps):
    """Z/n = <g> acting on carrier by the partial bijections maps[k] for g^k
    (theta_1 the identity, every other g^k empty unless given)."""
    Zn = invsemi.validate_inverse_semigroup(
        ["1"] + [f"g{k}" for k in range(1, n)],
        [[(i + j) % n for j in range(n)] for i in range(n)])
    graphs = [dict(maps.get(k, {})) for k in range(n)]
    graphs[0] = {x: x for x in range(len(carrier))}
    return paction.validate_partial_action(
        Zn, carrier, [sorted(f.values()) for f in graphs], graphs)


def test_germs_of_gens_need_not_generate_the_germ_groupoid():
    # Z/3 on {0, 1}, theta_g = {0 -> 1}, theta_g2 = {1 -> 0}: [g2, 1] is no
    # product of germs of S.gens = (g,), but the derived arrows generate
    theta = _cyclic_partial_action(3, ("0", "1"), {1: {0: 1}, 2: {1: 0}})
    gg = germs.groupoid_of_germs(theta)
    G, S = gg.groupoid, theta.semigroup
    assert S.gens == (1,)
    of_gens = {gg.germ(s, x) for s in S.gens for x in theta.dom(s)}
    assert gg.germ(2, 1) not in _generated(G, of_gens)
    assert _generated(G, G.gens) == set(range(len(G.arrows)))


@pytest.mark.parametrize("name", _catalog_groupoid_names())
def test_derived_generators_reach_every_arrow(name):
    G = catalog.groupoid(name)
    assert _generated(G, G.gens) == set(range(len(G.arrows)))


def test_germ_groupoid_checks_arrows_off_the_germs_of_gens(monkeypatch):
    # Z/6 on {0, 1, 2}: g moves 0 to 1, g2 and g4 fix 2, so the isotropy at 2
    # is {[1,2], [g2,2], [g4,2]} and no germ of S.gens = (g,) reaches it;
    # a corrupted [g2,2][g2,2] must still be found.  groupoid_of_germs builds
    # by proof, so the corrupted rows go to validate_groupoid as data
    theta = _cyclic_partial_action(6, ("0", "1", "2"),
                                   {1: {0: 1}, 5: {1: 0}, 2: {2: 2}, 4: {2: 2}})
    built = []
    compose_table = germs.compose_table

    def corrupted(source, target, mul):
        # [g2,2][g2,2] = [g4,2] becomes [g2,2]: the first square that is no unit
        table = compose_table(source, target, mul)
        h = next(a for a, row in enumerate(table) if row.get(a, source[a]) != source[a])
        table[h][h] = h
        built.append((source, target, table))
        return table

    monkeypatch.setattr(germs, "compose_table", corrupted)
    G = germs.groupoid_of_germs(theta).groupoid
    assert G.compose is built[0][2]
    with pytest.raises(germs.GroupoidError) as err:
        germs.validate_groupoid(G.arrows, G.units, G.source, G.target, G.inverse, G.compose)
    witness = oracles.groupoid_associativity_failure(*built[0])
    assert witness is not None
    assert (str(err.value), err.value.witness) == ("composition is not associative", witness)


@pytest.fixture(scope="module")
def munn_action_i4():
    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    return germs.groupoid_of_germs(invsemi.munn_representation(S4)).groupoid


def _corrupted(G, seed):
    """G's fields with one composite ab replaced by another arrow from s(ab)
    to t(ab), at a seeded pair of non-units with b != a^-1, so that every
    check but associativity still passes."""
    rng = random.Random(seed)
    units = set(G.units)
    hom = {}
    for c in range(len(G.arrows)):
        hom.setdefault((G.source[c], G.target[c]), []).append(c)
    pairs = [(a, b) for a, row in enumerate(G.compose) for b, c in row.items()
             if a not in units and b not in units and b != G.inverse[a]
             and len(hom[(G.source[c], G.target[c])]) > 1]
    a, b = rng.choice(pairs)
    ab = G.compose[a][b]
    compose = [dict(row) for row in G.compose]
    compose[a][b] = rng.choice([c for c in hom[(G.source[ab], G.target[ab])] if c != ab])
    return dict(arrows=G.arrows, units=G.units, source=G.source, target=G.target,
                inverse=G.inverse, compose=compose)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["munn-I4", "rp-I4", "germ-munn-z3"])
def test_validate_groupoid_rejects_a_corrupted_composite(name, seed, request):
    if name == "munn-I4":
        G = request.getfixturevalue("munn_action_i4")
    elif name == "rp-I4":
        G = invsemi.restricted_product_groupoid(invsemi.symmetric_inverse_semigroup(4)[0])
    else:
        G = catalog.groupoid(name)
    f = _corrupted(G, seed)
    witness = oracles.groupoid_associativity_failure(f["source"], f["target"], f["compose"])
    assert witness is not None
    assert _raises(f) == ("composition is not associative", witness)


def test_principal_groupoids_admit_no_corrupted_composite(self_action_i4):
    # one arrow per (source, target), so a composite typed like the true one
    # is the true one: self actions are free (st = t forces tt* <= s), and
    # the boundary groupoids are equivalence relations
    for G in [self_action_i4] + [catalog.groupoid(name) for name in ("pair", "boundary-edge")]:
        ends = list(zip(G.source, G.target))
        assert len(set(ends)) == len(ends)


def test_germ_groupoid_of_munn_action_i5():
    S5, _ = invsemi.symmetric_inverse_semigroup(5, max_elements=2000)
    G = germs.groupoid_of_germs(invsemi.munn_representation(S5)).groupoid
    assert len(G.arrows) == 1546
    assert len(G.units) == 32
    assert sum(map(len, G.compose)) == 126526


# --- composition rows against the pair scan; isotropy; round trips; memory ----------

def _principal_product(G):
    """ab read off the ends alone: the one arrow from s(b) to t(a)."""
    between = {(G.source[c], G.target[c]): c for c in range(len(G.arrows))}
    assert len(between) == len(G.arrows)
    return lambda a, b: between[(G.source[b], G.target[a])]


def _germ_product(gg):
    """[s, x][t, y] = [st, y], on the classes' representatives."""
    S = gg.action.semigroup

    def mul(a, b):
        (s, _), (t, y) = gg.reps[a], gg.reps[b]
        return gg.germ(S.mul(s, t), y)

    return gg.groupoid, mul


def _with_product(name, request):
    """A groupoid germkit builds, and its product from what it was built of."""
    if name in ("pair", "boundary-edge", "self-I4"):
        G = request.getfixturevalue("self_action_i4") if name == "self-I4" else catalog.groupoid(name)
        return G, _principal_product(G)
    if name == "munn-I4":
        S4, _ = invsemi.symmetric_inverse_semigroup(4)
        return _germ_product(germs.groupoid_of_germs(invsemi.munn_representation(S4)))
    if name.startswith("rp-"):
        S = invsemi.symmetric_inverse_semigroup(4)[0] if name == "rp-I4" else catalog.semigroup(name[3:])
        return invsemi.restricted_product_groupoid(S), S.mul
    action = "z2-trivial-pt" if name == "z2-one-unit" else name.removeprefix("germ-")
    return _germ_product(germs.groupoid_of_germs(catalog.action(action)))


@pytest.mark.parametrize("name", _catalog_groupoid_names() + ["munn-I4", "self-I4", "rp-I4"])
def test_compose_rows_match_pair_scan_oracle(name, request):
    G, mul = _with_product(name, request)
    pairs = oracles.compose_by_pairs(G.source, G.target, mul)
    assert len(G.compose) == len(G.arrows)
    assert [(a, b) for a, row in enumerate(G.compose) for b in row] == list(pairs)
    assert {(a, b): c for a, row in enumerate(G.compose) for b, c in row.items()} == pairs


@pytest.mark.parametrize("name", _catalog_groupoid_names() + ["self-I4"])
def test_isotropy_report_matches_per_unit_scan(name, request):
    G = request.getfixturevalue("self_action_i4") if name == "self-I4" else catalog.groupoid(name)
    iso = germs.isotropy_report(G).iso_groups
    assert list(iso) == list(G.units)
    assert iso == {u: oracles.isotropy_by_scan(G, u) for u in G.units}


def _every_built_groupoid():
    yield from (catalog.groupoid(name) for name in _catalog_groupoid_names())
    yield from (invsemi.restricted_product_groupoid(catalog.semigroup(name))
                for name in catalog.SEMIGROUP_NAMES)
    for name in catalog.GRAPH_NAMES:
        g = catalog.graphs(name)
        if not graph.has_cycle(g):
            G, germ, _, _ = graph.boundary_groupoid(g)
            yield from (G, germ.groupoid)


def test_validate_groupoid_round_trips_its_own_fields():
    # validate_groupoid(G.arrows, ..., G.compose) is how a caller re-checks
    # a groupoid it holds; it must accept the stored fields and give back G
    built = list(_every_built_groupoid())
    assert len(built) > 30
    for G in built:
        again = germs.validate_groupoid(G.arrows, G.units, G.source, G.target, G.inverse, G.compose)
        assert again == G


def test_germ_groupoid_of_self_action_i4_stays_small():
    # rows hold each composite once: no pair-keyed table, no copy of it
    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    theta = invsemi.canonical_self_action(S4)
    tracemalloc.start()
    try:
        germs.groupoid_of_germs(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


# --- one closure over generators, and homomorphisms checked over them ---------------

def _named_groupoid(name, request):
    if name == "munn-I4":
        return request.getfixturevalue("munn_action_i4")
    if name == "self-I4":
        return request.getfixturevalue("self_action_i4")
    if name == "rp-I4":
        return invsemi.restricted_product_groupoid(invsemi.symmetric_inverse_semigroup(4)[0])
    return catalog.groupoid(name)


@pytest.mark.parametrize("name", _catalog_groupoid_names() + ["munn-I4", "self-I4", "rp-I4"])
def test_groupoid_gens_match_the_walk_they_replaced(name, request):
    G = _named_groupoid(name, request)
    assert G.gens == tuple(oracles.partial_generating_set(G.compose, G.source, G.target))
    order = sorted(range(len(G.arrows)), key=lambda a: -len(G.compose[a]))
    gens, steps = invsemi.closure(G.compose, order, G.source, G.target)
    assert tuple(gens) == G.gens
    assert oracles.closure_walk_failure(G.compose, gens, steps) is None


def _parallel_swaps(G, amap):
    """amap with the images of two non-unit arrows a < b with the same
    source and target exchanged, and those of their inverses with them when
    these are two other arrows; up to two pairs per source and target.  Each
    is a bijection that keeps source, target and inverse, so only a
    composite can tell it from an isomorphism."""
    units = set(G.units)
    parallel = {}
    for a in range(len(G.arrows)):
        if a not in units:
            parallel.setdefault((G.source[a], G.target[a]), []).append(a)
    for arrows in parallel.values():
        for a, b in list(combinations(arrows, 2))[:2]:
            ia, ib = G.inverse[a], G.inverse[b]
            if {ia, ib} == {a, b}:
                swap = {a: b, b: a}
            elif not {ia, ib} & {a, b}:
                swap = {a: b, b: a, ia: ib, ib: ia}
            else:
                continue
            yield tuple(amap[swap.get(c, c)] for c in range(len(amap)))


@pytest.mark.parametrize("name", _catalog_groupoid_names() + ["munn-I4", "self-I4"])
def test_iso_check_over_generators_agrees_with_every_pair(name, request):
    G = _named_groupoid(name, request)
    H = _shuffled(G, seed=8)
    iso = germs.groupoid_iso_search(G, H)
    assert oracles.groupoid_iso_by_pairs(iso)
    rejected = 0
    for amap in _parallel_swaps(G, iso.arrow_map):
        swapped = germs.GroupoidIso(G, H, amap)
        verdict = germs.verify_groupoid_iso(swapped)
        assert verdict == oracles.groupoid_iso_by_pairs(swapped)
        rejected += not verdict
    # the self action of I_4 is free, so its groupoid is principal and has
    # no parallel arrows; of the catalog groupoids only germ-munn-z3 has a
    # parallel pair, whose swap (g and g^2) is the inversion automorphism of
    # Z_3; the Munn groupoid of I_4 has swaps that are not
    assert (rejected > 0) == (name == "munn-I4"), rejected


def test_induced_hom_reports_its_least_non_homomorphic_pair():
    # psi is the identity of the Munn groupoid of I_2 into copies H of it
    # with corrupted composites (which validate_groupoid would refuse)
    theta = catalog.action("munn-i2")
    gg = germs.groupoid_of_germs(theta)
    G = gg.groupoid
    sigma = {s: germs.basic_bisection(gg, s, theta.dom(s)) for s in range(len(theta.semigroup))}
    phi_map = {x: gg.unit_of_point[x] for x in range(len(theta.carrier))}

    def outcome(*corruptions):
        compose = [dict(row) for row in G.compose]
        for a, b, c in corruptions:
            compose[a][b] = c
        try:
            germs.induced_groupoid_hom(gg, dataclasses.replace(G, compose=tuple(compose)), sigma, phi_map)
        except germs.NotPartialHom:
            return "sigma"
        except germs.GroupoidError as err:
            assert str(err) == "induced map is not a homomorphism"
            return err.witness
        return None

    caught, missed = [], []
    for a, row in enumerate(G.compose):
        for b, ab in row.items():
            for c in range(len(G.arrows)):
                if c != ab:
                    got = outcome((a, b, c))
                    if got is None:  # H is no groupoid, so only off G.gens
                        assert b not in G.gens
                        missed.append((a, b, c))
                    elif got != "sigma":
                        assert got == (a, b)
                        caught.append((a, b, c))
    # a pair off the generators before a caught one: once the check over
    # G.gens fails, the scan of every pair reports the least
    combined = [(q, p) for q in missed for p in caught if q[:2] < p[:2]]
    assert combined
    for q, p in combined:
        assert outcome(q, p) == q[:2]
