import random

import pytest

import oracles
from germkit import catalog, germs, invsemi, orbit, paction


def test_identity_orbit_equivalence_passes():
    theta = catalog.action("z2-swap")
    oe = orbit.identity_orbit_equivalence(theta)
    rep = orbit.verify_orbit_equivalence(theta, theta, oe)
    assert rep["top_principal"]
    assert rep["germ_identities_checked"]


def test_corrupted_cocycle_fails():
    theta = catalog.action("z2-swap")
    oe = orbit.identity_orbit_equivalence(theta)
    oe.a[(1, 0)] = 0  # claim the swap acts like the identity at x
    with pytest.raises(orbit.IdentityFails) as exc:
        orbit.verify_orbit_equivalence(theta, theta, oe)
    assert exc.value.witness[0] == "a"


def test_coe_extraction_between_different_presentations():
    # two different actions with the same groupoid of germs
    ta = catalog.action("munn-chain2")
    tb = catalog.action("self-chain2")
    ga = germs.groupoid_of_germs(ta)
    gb = germs.groupoid_of_germs(tb)
    iso = germs.groupoid_iso_search(ga.groupoid, gb.groupoid)
    assert iso is not None
    oe = orbit.coe_from_groupoid_iso(iso, ga, gb)
    rep = orbit.verify_orbit_equivalence(ta, tb, oe)
    assert rep["germ_identities_checked"]


def test_coe_extraction_verifies_nothing_and_passes_verification(monkeypatch):
    # an extracted orbit equivalence is one by proof: extraction runs no
    # verify_orbit_equivalence, and the result passes it on every pair
    def refuse(*args):
        raise AssertionError("coe_from_groupoid_iso ran verify_orbit_equivalence")

    with monkeypatch.context() as m:
        m.setattr(orbit, "verify_orbit_equivalence", refuse)
        extracted = list(_principal_pairs())
    assert len(extracted) >= 10
    for theta, gamma, oe in extracted:
        rep = orbit.verify_orbit_equivalence(theta, gamma, oe)
        assert rep["germ_identities_checked"]


def test_coe_round_trip_reproduces_isomorphism():
    ta = catalog.action("z2-swap")
    tb = catalog.action("z2-swap-exel")
    ga = germs.groupoid_of_germs(ta)
    gb = germs.groupoid_of_germs(tb)
    iso = germs.groupoid_iso_search(ga.groupoid, gb.groupoid)
    oe = orbit.coe_from_groupoid_iso(iso, ga, gb)
    iso2 = orbit.iso_from_coe(ga, gb, oe)
    assert germs.verify_groupoid_iso(iso2)
    # the germ maps agree up to representatives: same arrow images
    assert iso2.arrow_map == iso.arrow_map


def test_iso_from_coe_requires_principality():
    theta = catalog.action("z2-trivial-pt")
    gg = germs.groupoid_of_germs(theta)
    oe = orbit.identity_orbit_equivalence(theta)
    with pytest.raises(orbit.NotTopPrincipal):
        orbit.iso_from_coe(gg, gg, oe)


def test_germ_identity_violation_detected_when_forced():
    # on a non-principal action the pointwise identities do not pin germs:
    # sending the group element to the identity passes pointwise, and no
    # germ identity is claimed, but the inversion identity (c) fails
    theta = catalog.action("z2-trivial-pt")
    oe = orbit.identity_orbit_equivalence(theta)
    oe.a[(1, 0)] = 0
    oe.b[(1, 0)] = 0
    rep = orbit.verify_orbit_equivalence(theta, theta, oe)
    assert rep == {"identities": "ok", "top_principal": False, "germ_identities_checked": False}
    assert oracles.germ_identity_failure(theta, theta, oe) == (
        "b(a(s,x), phi(x)) has a different germ than s", ("c", 1, 0))


def test_all_principal_catalog_pairs_round_trip():
    principal = [
        (name, catalog.action(name))
        for name in catalog.ACTION_NAMES
        if paction.dynamics_report(catalog.action(name)).top_principal
    ]
    assert len(principal) >= 6
    for name, theta in principal:
        gg = germs.groupoid_of_germs(theta)
        iso = germs.groupoid_iso_search(gg.groupoid, gg.groupoid)
        oe = orbit.coe_from_groupoid_iso(iso, gg, gg)
        iso2 = orbit.iso_from_coe(gg, gg, oe)
        assert germs.verify_groupoid_iso(iso2), name


# --- the germ identities by proof: the oracle's loops on mutated cocycles -------

def _principal_pairs():
    """(theta, gamma, coe) for every pair of topologically principal catalog
    actions, and the Munn and self actions of I_3, joined by an isomorphism
    of their germ groupoids; each action is also paired with itself."""
    S3, _ = invsemi.symmetric_inverse_semigroup(3)
    actions = [catalog.action(name) for name in catalog.ACTION_NAMES]
    actions += [invsemi.munn_representation(S3), invsemi.canonical_self_action(S3)]
    principal = [germs.groupoid_of_germs(t) for t in actions if paction.dynamics_report(t).top_principal]
    for i, ga in enumerate(principal):
        for gb in principal[i:]:
            iso = germs.groupoid_iso_search(ga.groupoid, gb.groupoid)
            if iso is not None:
                yield ga.action, gb.action, orbit.coe_from_groupoid_iso(iso, ga, gb)


def _mutated(oe, theta, gamma, rng):
    """oe with one to three values of a or b replaced.  Half the new values
    act at the point with the old value's image, so that many mutations
    pass the pointwise identities; the others are any element."""
    a, b = dict(oe.a), dict(oe.b)
    phi_inv = {y: x for x, y in oe.phi.items()}
    for _ in range(rng.randint(1, 3)):
        table, old, dst, at = (a, oe.a, gamma, oe.phi) if rng.random() < 0.5 else (b, oe.b, theta, phi_inv)
        key = rng.choice(sorted(table))
        p = at[key[1]]
        if rng.random() < 0.5:
            y = dst.theta(old[key], p)
            candidates = [t for t, graph in enumerate(dst.maps) if graph.get(p) == y]
        else:
            candidates = range(len(dst.semigroup))
        table[key] = rng.choice(candidates)
    return orbit.OrbitEquivalence(oe.phi, a, b)


def _verdict(theta, gamma, oe):
    try:
        return orbit.verify_orbit_equivalence(theta, gamma, oe)
    except orbit.CoeError as err:
        return type(err), str(err), err.witness


def _parent_verdict(theta, gamma, oe):
    """The verdict of the check that also ran the germ loops when both
    actions are topologically principal.  Its pointwise identities are the
    ones verify_orbit_equivalence still checks."""
    rep = _verdict(theta, gamma, oe)
    if isinstance(rep, dict) and rep["top_principal"]:
        failure = oracles.germ_identity_failure(theta, gamma, oe)
        if failure is not None:
            return ("GermIdentityFails", *failure)
    return rep


def test_germ_identities_follow_from_the_pointwise_ones():
    rng = random.Random(18)
    passed = failed = 0
    for theta, gamma, oe in _principal_pairs():
        for _ in range(40):
            bad = _mutated(oe, theta, gamma, rng)
            got = _verdict(theta, gamma, bad)
            assert got == _parent_verdict(theta, gamma, bad)
            if isinstance(got, dict):
                assert got["germ_identities_checked"]
                passed += 1
            else:
                failed += 1
    # the sweep reaches both verdicts, many times each
    assert passed >= 100 and failed >= 100


# --- the self action of I_4: no germ groupoid behind the verdict -------------------

def test_verify_builds_no_germ_groupoid(monkeypatch):
    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    theta = invsemi.canonical_self_action(S4)
    assert len(theta.pairs()) == 13617

    def refuse(theta):
        raise AssertionError("verify_orbit_equivalence built a germ groupoid")

    monkeypatch.setattr(germs, "groupoid_of_germs", refuse)
    rep = orbit.verify_orbit_equivalence(theta, theta, orbit.identity_orbit_equivalence(theta))
    assert rep == {"identities": "ok", "top_principal": True, "germ_identities_checked": True}

