import functools
import random

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germkit import catalog, germs, invsemi, paction, rings


Z2 = catalog.semigroup("z2")


def _sparse(vec):
    return {x: v for x, v in enumerate(vec) if v}


def test_munn_actions_validate_global():
    for name in catalog.SEMIGROUP_NAMES:
        m = invsemi.munn_representation(catalog.semigroup(name))
        assert m.is_global


def test_partial_swap_validates_non_global():
    theta = catalog.action("z2-swap")
    assert not theta.is_global
    assert theta.theta(1, 0) == 1


def test_composition_not_restriction_detected():
    # theta_g o theta_g has domain {x,y} but theta_1 only acts on {x}
    with pytest.raises((paction.CompositionNotRestriction, paction.Degenerate)) as exc:
        paction.validate_partial_action(
            Z2, ("x", "y"), ((0,), (0, 1)), ({0: 0}, {0: 1, 1: 0})
        )
    assert isinstance(exc.value, paction.CompositionNotRestriction)


def test_not_bijective_detected():
    with pytest.raises(paction.NotBijective):
        paction.validate_partial_action(
            Z2, ("x", "y"), ((0, 1), (0, 1)), ({0: 0, 1: 1}, {0: 0, 1: 0})
        )


def test_inverse_mismatch_detected():
    C2 = catalog.semigroup("chain2")
    # swap on X_e with theta_e != theta_e^{-1} restricted: inverse of theta_e
    # must be itself since e* = e
    with pytest.raises(paction.ActionError):
        paction.validate_partial_action(
            C2, ("x", "y"), ((0, 1), (0, 1)), ({0: 0, 1: 1}, {0: 1, 1: 0})
        )


def test_domain_listing_a_point_twice_is_rejected():
    # X_g = (x, y, y) used to pass, so pairs() listed (g, y) twice and the
    # dual action no longer recovered the action
    with pytest.raises(paction.ActionError) as exc:
        paction.validate_partial_action(
            Z2, ("x", "y"), ((0, 1), (0, 1, 1)), ({0: 0, 1: 1}, {0: 1, 1: 0})
        )
    assert (str(exc.value), exc.value.witness) == ("X_g lists point y twice", (1, 1))


def test_carrier_naming_a_point_twice_is_rejected():
    # the witness is the index of the second occurrence, reported before
    # any domain is read
    with pytest.raises(paction.ActionError) as exc:
        paction.validate_partial_action(
            Z2, ("x", "y", "x"), ((0, 1, 2), (0, 1, 2)), ({0: 0, 1: 1, 2: 2}, {0: 1, 1: 0, 2: 2})
        )
    assert type(exc.value) is paction.ActionError
    assert (str(exc.value), exc.value.witness) == ("carrier lists point x twice", 2)


def test_degenerate_detected():
    with pytest.raises(paction.Degenerate) as exc:
        paction.validate_partial_action(
            Z2, ("x", "y"), ((0,), (0,)), ({0: 0}, {0: 0})
        )
    assert exc.value.witness == 1


def _cyclic(n):
    """Z_n as a validated table."""
    tbl = [[(i + j) % n for j in range(n)] for i in range(n)]
    return invsemi.validate_inverse_semigroup([str(i) for i in range(n)], tbl)


def test_generator_inclusions_do_not_make_an_action():
    # every theta_a theta_t <= theta_(a+t) holds for the generator a = 1 (the
    # identity is scanned last, so 1 alone generates), yet theta_2 theta_2 =
    # id on {a} is not a restriction of theta_4 = {}: inclusion over the
    # generators is not enough, the equality over them is what proves the laws
    Z5 = _cyclic(5)
    assert Z5.gens == (1,)
    ida = {0: 0}
    maps = ({0: 0, 1: 1, 2: 2}, {}, ida, ida, {})
    domains = tuple(tuple(sorted(m.values())) for m in maps)
    for a in Z5.gens:
        for t in range(5):
            composed = {x: maps[a][y] for x, y in maps[t].items() if y in maps[a]}
            assert composed.items() <= maps[(a + t) % 5].items()
    with pytest.raises(paction.CompositionNotRestriction) as exc:
        paction.validate_partial_action(Z5, ("a", "b", "c"), domains, maps)
    assert str(exc.value) == "theta_2 o theta_2 is not a restriction of theta_4"
    assert exc.value.witness == (2, 2, 0)


def test_order_not_preserved_detected():
    # e1 <= 1 in chain2; every theta_s theta_t <= theta_st holds, but
    # theta_e1 = id is not a restriction of theta_1 = {}
    C2 = catalog.semigroup("chain2")
    maps = ({}, {0: 0})
    assert oracles.first_law_failure(C2, maps)[0] is paction.OrderNotPreserved
    with pytest.raises(paction.OrderNotPreserved) as exc:
        paction.validate_partial_action(C2, ("x",), ((), (0,)), maps)
    assert str(exc.value) == "e1 <= 1 but theta_e1 is not a restriction"
    assert exc.value.witness == (1, 0, 0)


def _validated(S, npts, maps):
    """(exception type, message, witness), or (domains, maps, is_global)."""
    carrier = tuple(f"p{x}" for x in range(npts))
    domains = tuple(tuple(sorted(f.values())) for f in maps)
    try:
        theta = paction.validate_partial_action(S, carrier, domains, maps)
    except paction.ActionError as err:
        return type(err), str(err), err.witness
    return theta.domains, theta.maps, theta.is_global


def _agrees_with_all_pairs_scan(S, npts, maps):
    expected = oracles.first_law_failure(S, maps)
    if expected is None:
        domains = tuple(tuple(sorted(f.values())) for f in maps)
        covered = set().union(*(domains[e] for e in S.idempotents))
        bare = [x for x in range(npts) if x not in covered]
        if bare:
            expected = (paction.Degenerate,
                        f"carrier point p{bare[0]} lies in no idempotent domain", bare[0])
        else:
            is_global = all(set(maps[s]) == set(maps[S.mul(S.inv(s), s)]) for s in range(len(S)))
            expected = (domains, maps, is_global)
    return _validated(S, npts, maps) == expected


# (semigroup, points, candidates): exhaustive except i2 on 2 points, whose
# 5^5 * 7 = 21875 candidates are sampled
_SWEEP = [
    *((name, 2, count) for name, count in (
        ("z2", 25), ("z3", 35), ("chain2", 25), ("chain3", 125), ("sz2", 125),
        ("se-edge", 4375))),
    ("z2", 3, 196), ("z3", 3, 476), ("chain2", 3, 196),
    ("Z4", 3, 6664), ("Z5", 3, 16184), ("Z6", 2, 1225),
]


@pytest.mark.parametrize("name,npts,count", _SWEEP, ids=[f"{n}-{k}pt" for n, k, _ in _SWEEP])
def test_validation_agrees_with_all_pairs_scan(name, npts, count):
    S = _cyclic(int(name[1:])) if name[0] == "Z" else catalog.semigroup(name)
    cands = list(oracles.inverse_closed_candidates(S, npts))
    assert len(cands) == count
    failures = [maps for maps in cands if not _agrees_with_all_pairs_scan(S, npts, maps)]
    assert failures == []


def test_validation_agrees_with_all_pairs_scan_on_i2_sample():
    S = catalog.semigroup("i2")
    cands = list(oracles.inverse_closed_candidates(S, 2))
    assert len(cands) == 21875
    sample = random.Random(11).sample(cands, 2000)
    assert all(_agrees_with_all_pairs_scan(S, 2, maps) for maps in sample)


def test_sweep_reaches_every_outcome():
    # the sweep above meets homomorphisms, true partial actions, both law
    # failures and degenerate carriers, so each path of the check is compared
    seen = set()
    for name in ("z2", "chain2"):
        S = catalog.semigroup(name)
        for maps in oracles.inverse_closed_candidates(S, 2):
            first, _, last = _validated(S, 2, maps)
            if isinstance(first, type):
                seen.add(first.__name__)
            else:
                seen.add("global" if last else "partial")
    assert seen == {"global", "partial", "CompositionNotRestriction", "OrderNotPreserved",
                    "Degenerate"}


def test_dynamics_self_action_of_e_unitary_free():
    rep = paction.dynamics_report(catalog.action("self-sz2"))
    assert rep.free and rep.effective and rep.top_principal


def test_dynamics_trivial_point_action_not_free():
    rep = paction.dynamics_report(catalog.action("z2-trivial-pt"))
    assert not rep.free
    assert rep.lambda_points == ()
    assert rep.consistent


def test_dynamics_munn_chain2_free():
    rep = paction.dynamics_report(catalog.action("munn-chain2"))
    assert rep.free


def test_dynamics_munn_i2_not_free():
    # the swap fixes the full identity non-trivially
    rep = paction.dynamics_report(catalog.action("munn-i2"))
    assert not rep.free
    assert rep.consistent


def test_dynamics_formulations_agree_everywhere():
    for name in catalog.ACTION_NAMES:
        rep = paction.dynamics_report(catalog.action(name))
        assert rep.consistent, name
        assert rep.lambda_points == oracles.lambda_by_all_pairs(catalog.action(name))


def _lambda_cases():
    S3, _ = invsemi.symmetric_inverse_semigroup(3)
    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    cases = [pytest.param(lambda name=name: catalog.action(name), id=name)
             for name in catalog.ACTION_NAMES]
    cases.append(pytest.param(lambda: invsemi.munn_representation(S3), id="munn-I3"))
    cases.append(pytest.param(lambda: invsemi.canonical_self_action(S3), id="self-I3"))
    cases.append(pytest.param(lambda: invsemi.munn_representation(S4), id="munn-I4"))
    return cases


@pytest.mark.parametrize("make", _lambda_cases())
def test_lambda_by_pairs_matches_every_pair_oracle(make):
    theta = make()
    assert paction.dynamics_report(theta).lambda_points == oracles.lambda_by_all_pairs(theta)


@functools.cache
def _restriction_bases():
    S3, _ = invsemi.symmetric_inverse_semigroup(3)
    return [catalog.action(name) for name in catalog.ACTION_NAMES] + [
        invsemi.munn_representation(S3), invsemi.canonical_self_action(S3)]


@st.composite
def _restricted_actions(draw):
    """A catalog action, or the Munn or self action of I_3, restricted to a
    drawn non-empty subset of its carrier: usually a true partial action."""
    theta = draw(st.sampled_from(_restriction_bases()))
    keep = draw(st.sets(st.integers(0, len(theta.carrier) - 1), min_size=1))
    return oracles.restrict_action(theta, keep)


@settings(max_examples=150, deadline=None, database=None)
@given(_restricted_actions())
def test_lambda_by_definition_matches_pairwise_form_on_restrictions(theta):
    rep = paction.dynamics_report(theta)
    assert rep.lambda_points == oracles.lambda_by_all_pairs(theta)
    assert rep.consistent


# --- dual actions and recovery ---------------------------------------------------

def test_dual_dimensions_match_domains():
    theta = catalog.action("z2-swap")
    alg = paction.dual_action(theta, rings.RING_Q)
    for s in range(len(theta.semigroup)):
        assert len(alg.ideal_gens[s]) == len(theta.domains[s])


def test_dual_trivial_singleton():
    theta = paction.one_point_trivial_action(catalog.semigroup("chain2"))
    alg = paction.dual_action(theta, rings.RING_Q)
    assert alg.ideal_gens[0] == (_sparse((rings.RING_Q.one,)),)
    assert alg.alpha_images[0] == (_sparse((rings.RING_Q.one,)),)


def test_dual_swap_is_permutation():
    theta = catalog.action("z2-swap")
    alg = paction.dual_action(theta, rings.RING_Q)
    # alpha_g sends 1_x to 1_{theta_g(x)}
    dom = sorted(theta.domains[1])
    for k, y in enumerate(dom):
        img = alg.alpha_images[1][k]
        assert [i for i, v in img.items() if v != 0] == [theta.theta(1, y)]


@pytest.mark.parametrize("ringspec", ["Q", "Zp:5", "Z"])
def test_recover_round_trip_all_catalog(ringspec):
    ring = rings.parse_ring_spec(ringspec)
    for name in catalog.ACTION_NAMES:
        theta = catalog.action(name)
        rec = paction.recover_action_from_dual(paction.dual_action(theta, ring))
        assert rec == theta, name


def test_dual_of_recovered_action_is_identity():
    # the reverse round trip: dualizing the recovered action reproduces the
    # algebraic data exactly (indicator generators and images)
    for name in ("z2-swap", "munn-i2", "edge-boundary"):
        theta = catalog.action(name)
        alg = paction.dual_action(theta, rings.RING_Q)
        again = paction.dual_action(paction.recover_action_from_dual(alg), rings.RING_Q)
        assert again.ideal_gens == alg.ideal_gens
        assert again.alpha_images == alg.alpha_images


def test_lattice_bijection_on_four_points():
    ring = rings.RING_Q
    for mask in range(16):
        subset = [i for i in range(4) if mask >> i & 1]
        ideal = paction.indicator_ideal(ring, subset)
        assert list(paction.ideal_support(ring, ideal)) == subset
        again = paction.indicator_ideal(ring, paction.ideal_support(ring, ideal))
        assert paction.spans_equal(ring, ideal, again)


def test_recover_rejects_decomposable_ring():
    alg = paction.dual_action(catalog.action("z2-swap"), rings.ring_zmod(6))
    with pytest.raises(rings.DecomposableRing):
        paction.recover_action_from_dual(alg)


def _recovery_outcome(recover, alg):
    """("ok", theta) or (exception class, message, witness) of one recovery."""
    try:
        return "ok", recover(alg)
    except (paction.AlgebraError, paction.ActionError, rings.RingError) as err:
        return type(err), str(err), getattr(err, "witness", None)


def _replace(items, k, value):
    return items[:k] + (value,) + items[k + 1:]


def _corrupted_duals(alg):
    """The dual with one ideal generator or one alpha-image changed, for the
    first s whose D_{s*} has a generator; then, for the first generator list
    repeated at indices i < k, the copy at k changed, and a list that is not
    an ideal put at both i and k.  Each change keeps the data well typed, so
    recovery has to find what is wrong with it."""
    ring, n = alg.ring, len(alg.carrier)
    s = next((s for s in range(len(alg.semigroup)) if alg.alpha_images[s]), None)
    if s is None:
        return
    s_star = alg.semigroup.inv(s)
    gens, images = alg.ideal_gens[s_star], alg.alpha_images[s]
    (x, v), = images[0].items()
    two = ring.normalize(2)

    def with_images(new):
        return paction.AlgebraicPartialAction(
            alg.semigroup, ring, alg.carrier, alg.ideal_gens, _replace(alg.alpha_images, s, new))

    def with_gens(new):
        return paction.AlgebraicPartialAction(
            alg.semigroup, ring, alg.carrier, _replace(alg.ideal_gens, s_star, new), alg.alpha_images)

    yield "image-times-2", with_images(_replace(images, 0, {x: ring.mul(two, v)}))
    if n > 1:
        yield "image-two-points", with_images(_replace(images, 0, {x: v, (x + 1) % n: ring.one}))
    yield "image-dropped", with_images(images[:-1])
    if len(images) > 1:
        yield "images-swapped", with_images((images[1], images[0]) + images[2:])
    # a second copy of the first generator: with no image, and with an image
    # other than the first copy's, alpha_s is not a map on D_{s*}
    yield "generator-repeated-without-image", with_gens(gens + gens[:1])
    if n > 1:
        yield "generator-repeated-other-image", paction.AlgebraicPartialAction(
            alg.semigroup, ring, alg.carrier, _replace(alg.ideal_gens, s_star, gens + gens[:1]),
            _replace(alg.alpha_images, s, images + ({(x + 1) % n: ring.one},)))
    yield "generator-times-2", with_gens(_replace(gens, 0, {y: ring.mul(two, b) for y, b in gens[0].items()}))
    if len(gens) > 1:
        merged = dict(gens[0])
        for y, b in gens[1].items():
            merged[y] = ring.add(merged.get(y, ring.zero), b)
        yield "generators-merged", with_gens((merged,) + gens[2:])
    ideal_gens = alg.ideal_gens
    repeat = next(((i, k) for k, gens in enumerate(ideal_gens) for i in range(k)
                   if gens and ideal_gens[i] == gens), None)
    if repeat is None:
        return
    i, k = repeat

    def with_ideals(new):
        return paction.AlgebraicPartialAction(alg.semigroup, ring, alg.carrier, new, alg.alpha_images)

    later = ideal_gens[k]
    yield "later-copy-times-2", with_ideals(
        _replace(ideal_gens, k, _replace(later, 0, {y: ring.mul(two, b) for y, b in later[0].items()})))
    if n > 1:
        diagonal = ({0: ring.one, 1: ring.one},)
        yield "non-ideal-twice", with_ideals(_replace(_replace(ideal_gens, i, diagonal), k, diagonal))


def _recovery_cases():
    S3, _ = invsemi.symmetric_inverse_semigroup(3)
    actions = [(name, catalog.action(name)) for name in catalog.ACTION_NAMES]
    actions += [("munn-I3", invsemi.munn_representation(S3)), ("self-I3", invsemi.canonical_self_action(S3))]
    for spec in ("Q", "Zp:5", "Z"):
        ring = rings.parse_ring_spec(spec)
        for name, theta in actions:
            alg = paction.dual_action(theta, ring)
            yield f"{name}/{spec}", alg
            for label, bad in _corrupted_duals(alg):
                yield f"{name}/{spec}/{label}", bad


def test_recovery_agrees_with_two_solve_oracle():
    # the same theta, or the same exception class, message and witness, as
    # solving every entry, every 1_U and every point again with dense
    # coefficients; the corrupted duals reach each exception class
    reached = set()
    for label, alg in _recovery_cases():
        got = _recovery_outcome(paction.recover_action_from_dual, alg)
        assert got == _recovery_outcome(oracles.recover_by_two_solves, alg), label
        reached.add(got[0])
    assert {"ok", paction.NotAnIdeal, paction.NoLocalUnits, paction.RecoveryFailed} <= reached


@pytest.mark.parametrize("spec", ["Q", "Zp:5", "Z"])
def test_recovery_rejects_an_alpha_that_is_not_a_map(spec):
    # z2-swap: D_{g*} = D_g lists 1_x a second time, with image 1_x where
    # the first copy has image 1_y; point indicators alone recover z2-swap
    ring = rings.parse_ring_spec(spec)
    alg = paction.dual_action(catalog.action("z2-swap"), ring)
    g = alg.semigroup.index("g")
    gens, images = alg.ideal_gens[g], alg.alpha_images[g]
    assert (gens[0], images[0]) == ({0: ring.one}, {1: ring.one})
    bad = paction.AlgebraicPartialAction(
        alg.semigroup, ring, alg.carrier, _replace(alg.ideal_gens, g, gens + gens[:1]),
        _replace(alg.alpha_images, g, images + ({0: ring.one},)))
    expect = (paction.RecoveryFailed,
              "alpha_g is not the dual of theta_g on generator 2 of D_g", (g, 2))
    assert _recovery_outcome(paction.recover_action_from_dual, bad) == expect
    assert _recovery_outcome(oracles.recover_by_two_solves, bad) == expect
    short = paction.AlgebraicPartialAction(
        alg.semigroup, ring, alg.carrier, _replace(alg.ideal_gens, g, gens + gens[:1]), alg.alpha_images)
    expect = (paction.RecoveryFailed, "alpha_g has 2 images for the 3 generators of D_g", (g, 2))
    assert _recovery_outcome(paction.recover_action_from_dual, short) == expect
    assert _recovery_outcome(oracles.recover_by_two_solves, short) == expect


@pytest.mark.parametrize("spec", ["Q", "Zp:5", "Z"])
def test_recovery_compares_alpha_on_generators_that_are_not_indicators(spec):
    # Z/2 swapping x and y, with D_1 = D_g spanned by 1_x + 1_y and 1_y: 1_x
    # is read off both generators, so alpha_g(1_x + 1_y) is compared with
    # the dual of theta_g; it passes, and once the generator is listed
    # again with image 2 1_y it fails there
    ring = rings.parse_ring_spec(spec)
    one = ring.one
    basis = ({0: one, 1: one}, {1: one})
    swapped = ({0: one, 1: one}, {0: one})
    alg = paction.AlgebraicPartialAction(Z2, ring, ("x", "y"), (basis, basis), (basis, swapped))
    theta = paction.validate_partial_action(Z2, ("x", "y"), ((0, 1), (0, 1)), ({0: 0, 1: 1}, {0: 1, 1: 0}))
    assert _recovery_outcome(paction.recover_action_from_dual, alg) == ("ok", theta)
    assert _recovery_outcome(oracles.recover_by_two_solves, alg) == ("ok", theta)
    twice = basis + basis[:1]
    bad = paction.AlgebraicPartialAction(
        Z2, ring, ("x", "y"), (twice, twice), (twice, swapped + ({1: ring.normalize(2)},)))
    expect = (paction.RecoveryFailed,
              "alpha_g is not the dual of theta_g on generator 2 of D_g", (1, 2))
    assert _recovery_outcome(paction.recover_action_from_dual, bad) == expect
    assert _recovery_outcome(oracles.recover_by_two_solves, bad) == expect


def test_recovery_reads_an_unnormalised_image_entry_as_one():
    # an image entry 6 over Z/5 is 1: every catalog action comes back as it was
    ring = rings.ring_zmod(5)
    for name in catalog.ACTION_NAMES:
        theta = catalog.action(name)
        alg = paction.dual_action(theta, ring)
        s = next(s for s in range(len(alg.semigroup)) if alg.alpha_images[s])
        images = alg.alpha_images[s]
        (x, v), = images[0].items()
        six = paction.AlgebraicPartialAction(
            alg.semigroup, ring, alg.carrier, alg.ideal_gens,
            _replace(alg.alpha_images, s, _replace(images, 0, {x: v + 5})))
        assert _recovery_outcome(paction.recover_action_from_dual, six) == ("ok", theta), name
        assert _recovery_outcome(oracles.recover_by_two_solves, six) == ("ok", theta), name


def test_non_ideal_at_two_indices_is_reported_at_the_first():
    theta = catalog.action("munn-i2")
    alg = dict(_corrupted_duals(paction.dual_action(theta, rings.RING_Q)))["non-ideal-twice"]
    i = next(s for s, gens in enumerate(alg.ideal_gens) if gens == ({0: 1, 1: 1},))
    with pytest.raises(paction.NotAnIdeal) as err:
        paction.recover_action_from_dual(alg)
    assert err.value.witness == i


@pytest.mark.parametrize("make", [invsemi.munn_representation, invsemi.canonical_self_action])
def test_recovery_solves_once_per_distinct_ideal(make, monkeypatch):
    # I_4 has 16 idempotents, so both duals have 16 distinct ideals among
    # their 209 generator lists, and dual_action builds each once
    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    theta = make(S4)
    alg = paction.dual_action(theta, rings.RING_Q)
    assert len({id(gens) for gens in alg.ideal_gens}) == 16
    built = []
    span_solver = rings.span_solver
    monkeypatch.setattr(rings, "span_solver", lambda ring, gens: built.append(gens) or span_solver(ring, gens))
    assert paction.recover_action_from_dual(alg) == theta
    assert len(built) == 16


@pytest.mark.parametrize("ringspec", ["Q", "Zp:5"])
def test_dual_holds_one_indicator_per_point(ringspec):
    # every ideal generator and every image is the one dict of its point,
    # and recovery still returns the action
    ring = rings.parse_ring_spec(ringspec)
    S3, _ = invsemi.symmetric_inverse_semigroup(3)
    named = [(name, catalog.action(name)) for name in catalog.ACTION_NAMES]
    for name, theta in named + [("munn-i3", invsemi.munn_representation(S3)),
                                ("self-i3", invsemi.canonical_self_action(S3))]:
        alg = paction.dual_action(theta, ring)
        of_point = {}
        for vec in (v for vecs in alg.ideal_gens + alg.alpha_images for v in vecs):
            (x,) = vec
            assert of_point.setdefault(x, vec) is vec, name
        assert len(of_point) == len(theta.carrier), name
        assert paction.recover_action_from_dual(alg) == theta, name


@pytest.mark.parametrize("ring, zero", [(rings.RING_Q, 0), (rings.ring_zmod(5), 5)])
def test_explicit_zero_entries_do_not_fake_a_missing_local_unit(ring, zero):
    # Z/2 on {x, y} with D_g = R 1_x, its generator spelled with an explicit
    # zero at y and without one: both give X_g = {x}
    unit = ({0: ring.one}, {1: ring.one})
    recovered = []
    for spelled in ({0: ring.one, 1: zero}, {0: ring.one}):
        alg = paction.AlgebraicPartialAction(
            Z2, ring, ("x", "y"), (unit, (spelled,)), (unit, ({0: ring.one},)))
        got = _recovery_outcome(paction.recover_action_from_dual, alg)
        assert got == _recovery_outcome(oracles.recover_by_two_solves, alg)
        recovered.append(got)
    assert recovered[0] == recovered[1]
    assert recovered[0][1].domains == ((0, 1), (0,))


@settings(max_examples=120, deadline=None, database=None)
@given(_restricted_actions(), st.sampled_from(("Q", "Zp:5", "Z")), st.data())
def test_recovery_agrees_with_two_solve_oracle_on_restrictions(theta, spec, data):
    # the dual of a restricted action, or one of its corrupted copies: the
    # same theta, or the same exception class, message and witness
    alg = paction.dual_action(theta, rings.parse_ring_spec(spec))
    bad = dict(_corrupted_duals(alg))
    label = data.draw(st.sampled_from(["dual"] + sorted(bad)))
    alg = bad.get(label, alg)
    got = _recovery_outcome(paction.recover_action_from_dual, alg)
    assert got == _recovery_outcome(oracles.recover_by_two_solves, alg)
    if label == "dual":
        assert got == ("ok", theta)


def _two_points(ring, image):
    """Z/2 acting on {x, y} with D_1 = D_g = R^2, alpha_1 the identity and
    alpha_g sending 1_x to image and 1_y to 1_x."""
    unit = ({0: ring.one}, {1: ring.one})
    return paction.AlgebraicPartialAction(
        Z2, ring, ("x", "y"), (unit, unit), (unit, (image, {0: ring.one})))


MALFORMED_DUALS = {
    # the diagonal line in R^2: its generator is not coordinate-decomposable
    "non-ideal-span": (paction.AlgebraicPartialAction(
        Z2, rings.RING_Q, ("x", "y"),
        ((_sparse((1, 1)),), (_sparse((1, 1)),)),
        ((_sparse((1, 1)),), (_sparse((1, 1)),))), paction.NotAnIdeal),
    "no-local-units-over-Z": (paction.AlgebraicPartialAction(
        Z2, rings.RING_Z, ("x",),
        ((_sparse((2,)),), (_sparse((2,)),)),
        ((_sparse((2,)),), (_sparse((2,)),))), paction.NoLocalUnits),
    "image-2x-over-Q": (_two_points(rings.RING_Q, {1: 2}), paction.RecoveryFailed),
    "image-2x-over-Z": (_two_points(rings.RING_Z, {1: 2}), paction.RecoveryFailed),
    "image-x-plus-y": (_two_points(rings.ring_zmod(5), {0: 1, 1: 1}), paction.RecoveryFailed),
}


@pytest.mark.parametrize("name", MALFORMED_DUALS)
def test_malformed_dual_is_rejected_as_by_the_oracle(name):
    alg, exc = MALFORMED_DUALS[name]
    got = _recovery_outcome(paction.recover_action_from_dual, alg)
    assert got[0] is exc
    assert got == _recovery_outcome(oracles.recover_by_two_solves, alg)


@pytest.mark.parametrize("ringspec", ["Q", "Zp:5"])
def test_recover_self_action_of_i4(ringspec):
    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    theta = invsemi.canonical_self_action(S4)
    assert paction.recover_action_from_dual(paction.dual_action(theta, rings.parse_ring_spec(ringspec))) == theta


def _unshared(alg):
    """alg with every generator tuple and every vector its own object."""
    return paction.AlgebraicPartialAction(
        alg.semigroup, alg.ring, alg.carrier,
        tuple(tuple(dict(g) for g in gens) for gens in alg.ideal_gens),
        tuple(tuple(dict(f) for f in images) for images in alg.alpha_images))


def test_recovery_of_shared_and_unshared_duals_agrees():
    # recovery reads a shared generator tuple or image once; a dual whose
    # equal lists and vectors are distinct objects is read by content and
    # gives the same action, or the same exception, message and witness,
    # for the duals and every corruption of them
    reached = set()
    for label, alg in _recovery_cases():
        copy = _unshared(alg)
        vectors = [v for vecs in copy.ideal_gens + copy.alpha_images for v in vecs]
        assert len({id(v) for v in vectors}) == len(vectors), label
        assert len({id(gens) for gens in copy.ideal_gens}) == len(copy.ideal_gens), label
        got = _recovery_outcome(paction.recover_action_from_dual, alg)
        assert got == _recovery_outcome(paction.recover_action_from_dual, copy), label
        reached.add(got[0])
    assert {"ok", paction.NotAnIdeal, paction.NoLocalUnits, paction.RecoveryFailed} <= reached


@pytest.mark.parametrize("seed", range(24))
def test_recovery_over_q_returns_the_munn_action_of_generated_subsemigroups(seed):
    theta = invsemi.munn_representation(oracles.seeded_subsemigroup(random.Random(seed)))
    for ring in (rings.RING_Q, oracles.FractionQ()):
        alg = paction.dual_action(theta, ring)
        assert paction.recover_action_from_dual(alg) == theta
        assert paction.recover_action_from_dual(_unshared(alg)) == theta


def test_recovery_over_q_solves_in_ints(monkeypatch):
    # on the dual of the Munn action of I_4, every entry of the dual and
    # every coefficient the span solvers return over Q is an int
    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    theta = invsemi.munn_representation(S4)
    alg = paction.dual_action(theta, rings.RING_Q)
    entries = [v for vecs in alg.ideal_gens + alg.alpha_images for f in vecs for v in f.values()]
    assert {type(v) for v in entries} == {int}
    coefficients = []
    span_solver = rings.span_solver

    def recording(ring, gens):
        solve = span_solver(ring, gens)

        def solve_and_record(target):
            coeffs = solve(target)
            coefficients.extend(coeffs.values() if coeffs else ())
            return coeffs
        return solve_and_record

    monkeypatch.setattr(rings, "span_solver", recording)
    assert paction.recover_action_from_dual(alg) == theta
    assert coefficients and {type(c) for c in coefficients} == {int}


# --- induced actions --------------------------------------------------------------

def test_induced_group_action_requires_e_unitary():
    with pytest.raises(paction.NotEUnitary):
        paction.induced_group_action(catalog.action("munn-i2"))


def test_induced_group_action_semilattice_collapses():
    theta = catalog.action("munn-chain2")
    induced, gi = paction.induced_group_action(theta)
    assert len(gi.group) == 1
    assert set(induced.domains[0]) == set(range(len(theta.carrier)))
    assert induced.maps[0] == {x: x for x in range(len(theta.carrier))}


def test_induced_group_action_germ_groupoids_agree():
    theta = catalog.action("self-sz2")
    induced, _ = paction.induced_group_action(theta)
    g1 = germs.groupoid_of_germs(theta).groupoid
    g2 = germs.groupoid_of_germs(induced).groupoid
    iso = germs.groupoid_iso_search(g1, g2)
    assert iso is not None and germs.verify_groupoid_iso(iso)


def test_induced_group_action_explicit_germ_map():
    # the map germ(s, x) -> germ([s], x) is itself a groupoid isomorphism
    for name in ("self-sz2", "munn-chain3", "munn-sz2"):
        theta = catalog.action(name)
        induced, gi = paction.induced_group_action(theta)
        ga = germs.groupoid_of_germs(theta)
        gb = germs.groupoid_of_germs(induced)
        amap = [None] * len(ga.groupoid.arrows)
        for (s, x), cls in ga.pair_class.items():
            img = gb.germ(gi.class_of[s], x)
            assert amap[cls] in (None, img)  # well-defined on germ classes
            amap[cls] = img
        iso = germs.GroupoidIso(ga.groupoid, gb.groupoid, tuple(amap))
        assert germs.verify_groupoid_iso(iso)


def test_induced_group_action_lambda_agrees():
    for name in ("self-sz2", "munn-chain2", "munn-sz2", "self-z2"):
        theta = catalog.action(name)
        induced, _ = paction.induced_group_action(theta)
        assert (
            paction.dynamics_report(theta).lambda_points
            == paction.dynamics_report(induced).lambda_points
        )


def test_induced_exel_action_is_global_extension():
    theta = catalog.action("z2-swap")
    ind, ex = paction.induced_exel_action(theta)
    assert ind.is_global
    # theta-bar restricted to the group symbols is theta
    for g in range(len(Z2)):
        assert ind.maps[ex.of_group[g]] == theta.maps[g]


def test_induced_exel_eps_acts_as_identity_on_domain():
    theta = catalog.action("z2-swap")
    ind, ex = paction.induced_exel_action(theta)
    S = ind.semigroup
    eps = S.mul(ex.of_group[1], ex.of_group[Z2.inv(1)])
    assert ind.maps[eps] == {x: x for x in theta.domains[1]}


def test_induced_exel_global_input_full_domains():
    theta = catalog.action("self-z2")
    ind, ex = paction.induced_exel_action(theta)
    for i in range(len(ind.semigroup)):
        assert set(ind.domains[i]) == set(range(len(theta.carrier)))


def _truncated_lattice_with_z2(n):
    """Finite truncation of the lattice-with-involution semigroup: elements
    0..n-1 meet by minimum, inf is a unit for {inf, z} with zz = inf, and both
    inf and z act as identities on the lattice part."""
    names = [str(k) for k in range(n)] + ["inf", "z"]
    inf, z = n, n + 1

    def mul(a, b):
        if a < n and b < n:
            return min(a, b)
        if a < n:
            return a
        if b < n:
            return b
        return z if (a, b) in ((inf, z), (z, inf)) else inf

    tbl = [[mul(a, b) for b in range(n + 2)] for a in range(n + 2)]
    return invsemi.validate_inverse_semigroup(names, tbl)


def test_truncated_lattice_munn_dynamics():
    # the finite shadow of the compactified-lattice example: z fixes inf
    # non-trivially, every lattice point is only trivially fixed
    S = _truncated_lattice_with_z2(4)
    assert not invsemi.is_e_unitary(S)[0]
    m = invsemi.munn_representation(S)
    rep = paction.dynamics_report(m)
    inf_pos = list(S.idempotents).index(S.index("inf"))
    assert inf_pos not in rep.lambda_points
    assert set(rep.lambda_points) == set(range(len(S.idempotents))) - {inf_pos}
    assert not rep.free


def test_truncated_lattice_munn_matches_restricted_product():
    from germkit import germs

    S = _truncated_lattice_with_z2(3)
    g = germs.groupoid_of_germs(invsemi.munn_representation(S)).groupoid
    rp = invsemi.restricted_product_groupoid(S)
    iso = germs.groupoid_iso_search(g, rp)
    assert iso is not None and germs.verify_groupoid_iso(iso)


def test_factoring_through_group_detects_e_unitarity():
    for name in catalog.SEMIGROUP_NAMES:
        S = catalog.semigroup(name)
        sa = invsemi.canonical_self_action(S)
        assert paction.action_factors_through_group(sa)[0] == invsemi.is_e_unitary(S)[0]
