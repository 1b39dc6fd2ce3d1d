import dataclasses
import random
from itertools import product

import oracles
import pytest

from germkit import algebra, catalog, germs, invsemi, paction, rings
from germkit.algebra import SteinbergElement, convolve


Q = rings.RING_Q
PAIR = catalog.pair_groupoid(2)
Z2G = catalog.groupoid("z2-one-unit")


def test_group_ring_convolution():
    g = next(a for a in range(2) if a not in Z2G.units)
    one = Z2G.units[0]
    f = SteinbergElement.indicator(Z2G, Q, [g])
    assert convolve(f, f) == SteinbergElement.indicator(Z2G, Q, [one])


def test_matrix_units_convolution():
    a12 = PAIR.arrows.index("(1|2)")
    a21 = PAIR.arrows.index("(2|1)")
    a11 = PAIR.arrows.index("(1|1)")
    lhs = convolve(
        SteinbergElement.indicator(PAIR, Q, [a12]),
        SteinbergElement.indicator(PAIR, Q, [a21]),
    )
    assert lhs == SteinbergElement.indicator(PAIR, Q, [a11])


def test_units_indicator_is_identity():
    rng = random.Random(0)
    one = oracles.units_indicator(PAIR, Q)
    for _ in range(20):
        f = SteinbergElement(PAIR, Q, {a: rng.randint(-3, 3) for a in range(4)})
        assert convolve(f, one) == f
        assert convolve(one, f) == f


def test_convolution_associative_and_bilinear():
    rng = random.Random(1)
    G = germs.groupoid_of_germs(catalog.action("z2-swap")).groupoid
    for _ in range(30):
        f, g, h = (
            SteinbergElement(G, Q, {a: rng.randint(-2, 2) for a in range(len(G.arrows))})
            for _ in range(3)
        )
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
        assert convolve(f + g, h) == convolve(f, h) + convolve(g, h)


def test_groupoid_mismatch_rejected():
    f = SteinbergElement.indicator(PAIR, Q, [0])
    g = SteinbergElement.indicator(Z2G, Q, [0])
    with pytest.raises(algebra.GroupoidMismatch):
        convolve(f, g)


def test_diagonal_subalgebra():
    diag = algebra.diagonal_subalgebra(PAIR, Q)
    assert len(diag) == 2
    assert len(algebra.diagonal_subalgebra(Z2G, Q)) == 1
    for u in diag:
        for v in diag:
            prod = convolve(u, v)
            assert set(prod.coeffs) <= set(PAIR.units)
            assert prod == convolve(v, u)


def test_empty_bisection_indicator_is_zero():
    assert SteinbergElement.indicator(PAIR, Q, frozenset()).is_zero()


def test_boolean_rep_identity():
    amp = germs.ample_semigroup(PAIR)
    extend = algebra.boolean_rep_hom(
        PAIR, Q, lambda U: SteinbergElement.indicator(PAIR, Q, U), ample=amp
    )
    rng = random.Random(2)
    for _ in range(10):
        f = SteinbergElement(PAIR, Q, {a: rng.randint(-3, 3) for a in range(4)})
        assert extend(f) == f


def test_boolean_rep_tau_not_injective_on_non_effective():
    # representing bisections by the domains of their partial maps is Boolean
    # on the one-unit Z2 groupoid but collapses 1_{unit} and 1_{g}
    unitG = catalog.pair_groupoid(1)

    def pi(U):
        return SteinbergElement.indicator(unitG, Q, [0] if U else [])

    amp = germs.ample_semigroup(Z2G)
    extend = algebra.boolean_rep_hom(Z2G, Q, pi, ample=amp)
    one = SteinbergElement.indicator(Z2G, Q, [Z2G.units[0]])
    g = SteinbergElement.indicator(Z2G, Q, [a for a in range(2) if a not in Z2G.units])
    assert extend(one - g).is_zero()  # not injective, matching non-effectiveness


class Mat2:
    """2x2 matrices over a ring, for the classical pair-groupoid picture."""

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(ring.normalize(v) for v in r) for r in rows)

    def __add__(self, other):
        R = self.ring
        return Mat2(R, [[R.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        R = self.ring
        return Mat2(
            R,
            [
                [
                    R.add(R.mul(self.rows[i][0], other.rows[0][j]), R.mul(self.rows[i][1], other.rows[1][j]))
                    for j in range(2)
                ]
                for i in range(2)
            ],
        )

    def scale(self, c):
        R = self.ring
        return Mat2(R, [[R.mul(c, v) for v in r] for r in self.rows])

    def __eq__(self, other):
        return self.rows == other.rows


def test_boolean_rep_matrix_units():
    def pi(U):
        rows = [[0, 0], [0, 0]]
        for a in U:
            i, j = (int(c) - 1 for c in PAIR.arrows[a][1:-1].split("|"))
            rows[i][j] = 1
        return Mat2(Q, rows)

    extend = algebra.boolean_rep_hom(PAIR, Q, pi)
    f = SteinbergElement(PAIR, Q, {a: a + 1 for a in range(4)})
    g = SteinbergElement(PAIR, Q, {a: 2 - a for a in range(4)})
    assert extend(convolve(f, g)) == extend(f) * extend(g)


def test_boolean_rep_extension_is_multiplicative_on_every_pair():
    # what the conditions prove, checked on every pair of bisection
    # indicators of the pair groupoid and of the one-unit Z2 groupoid
    for G in (PAIR, Z2G):
        bis = germs.ample_semigroup(G).bisections
        extend = algebra.boolean_rep_hom(G, Q, lambda U, G=G: SteinbergElement.indicator(G, Q, U))
        for U, V in product(bis, repeat=2):
            fu, fv = SteinbergElement.indicator(G, Q, U), SteinbergElement.indicator(G, Q, V)
            assert extend(convolve(fu, fv)) == extend(fu) * extend(fv)


def test_boolean_rep_violation_detected():
    def bad(U):
        if U == frozenset([PAIR.units[0]]):
            return SteinbergElement(PAIR, Q, {})
        return SteinbergElement.indicator(PAIR, Q, U)

    with pytest.raises(algebra.NotBooleanRep):
        algebra.boolean_rep_hom(PAIR, Q, bad)


# --- crossed products ---------------------------------------------------------------

def _cp(action_name, ring=Q):
    theta = catalog.action(action_name)
    return algebra.crossed_product_build(paction.dual_action(theta, ring)), theta


def test_crossed_product_dims_trivial_group():
    triv = invsemi.validate_inverse_semigroup(["1"], [[0]])
    theta = paction.validate_partial_action(
        triv, ("x", "y", "z"), ((0, 1, 2),), ({0: 0, 1: 1, 2: 2},)
    )
    cp = algebra.crossed_product_build(paction.dual_action(theta, Q))
    assert (len(cp.basis), len(cp.n_pivots), cp.quotient_dim) == (3, 0, 3)


def test_crossed_product_dims_munn_chain2():
    cp, _ = _cp("munn-chain2")
    assert (len(cp.basis), len(cp.n_pivots), cp.quotient_dim) == (3, 1, 2)


def test_crossed_product_dims_z2_swap_two_points():
    z2 = catalog.semigroup("z2")
    theta = paction.validate_partial_action(
        z2, ("x", "y"), ((0, 1), (0, 1)), ({0: 0, 1: 1}, {0: 1, 1: 0})
    )
    cp = algebra.crossed_product_build(paction.dual_action(theta, Q))
    assert (len(cp.basis), len(cp.n_pivots), cp.quotient_dim) == (4, 0, 4)


def test_crossed_product_over_non_fields():
    # L/N is free over any commutative ring: the classes do not depend on it,
    # and coefficients that a zero divisor kills drop out of the support
    Z6 = rings.ring_zmod(6)
    for name in catalog.ACTION_NAMES:
        theta = catalog.action(name)
        cp_q = algebra.crossed_product_build(paction.dual_action(theta, Q))
        for ring in (rings.RING_Z, Z6):
            cp = algebra.crossed_product_build(paction.dual_action(theta, ring))
            assert (cp.n_pivots, cp.quotient_basis) == (cp_q.n_pivots, cp_q.quotient_basis), name
    cp, _ = _cp("munn-chain2", Z6)
    x = oracles.cp_basis_element(cp, 0).scale(2)
    assert not x.is_zero() and x.scale(3).is_zero()
    assert (x + x + x).is_zero() and oracles.cp_equal(x - x, oracles.cp_zero(cp))


def _indicator_algebra(S, npts, maps):
    """The indicator-form algebraic action of a maps tuple, whether or not it
    is a partial action: D_s spanned by 1_x, x in X_s, and alpha_s(1_y) =
    1_{theta_s(y)}."""
    return paction.AlgebraicPartialAction(
        S, Q, tuple(f"p{x}" for x in range(npts)),
        tuple(paction.indicator_ideal(Q, f.values()) for f in maps),
        tuple(tuple(paction.indicator(Q, [f[y]]) for y in sorted(f)) for f in maps),
    )


def test_build_is_exact_on_l_associativity():
    # L is associative iff the composition law holds, and the build raises iff
    # the maps are no partial action, with validation's message and witness
    seen = set()
    for name in ("z2", "chain2", "chain3", "sz2"):
        S = catalog.semigroup(name)
        for maps in oracles.inverse_closed_candidates(S, 2):
            alg = _indicator_algebra(S, 2, maps)
            law = oracles.first_law_failure(S, maps)
            composition_fails = law is not None and law[0] is paction.CompositionNotRestriction
            assert (oracles.l_associativity_failure(oracles.unvalidated_l(S, maps)) is not None) \
                == composition_fails, (name, maps)
            try:
                # the build reads each graph in point order, so the witness is
                # the least failing point in that order
                graphs = [dict(sorted(f.items())) for f in maps]
                paction.validate_partial_action(S, alg.carrier, [f.values() for f in maps], graphs)
                expected = None
            except paction.ActionError as err:
                expected = (type(err).__name__, str(err), err.witness)
            try:
                cp = algebra.crossed_product_build(alg)
            except algebra.CrossedProductError as err:
                assert expected == (type(err.__cause__).__name__, str(err), err.witness), (name, maps)
                seen.add(expected[0])
            else:
                assert expected is None, (name, maps)
                assert oracles.l_associativity_failure(cp) is None, (name, maps)
                seen.add("built")
    assert seen == {"built", "CompositionNotRestriction", "OrderNotPreserved", "Degenerate"}


def test_build_rejects_swapped_alpha_images():
    # alpha_s sends two point indicators to each other's images, so theta_s
    # is no longer the inverse of theta_{s*}; L and N still have the Munn
    # action's sizes, so only the laws see it
    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    alg = paction.dual_action(invsemi.munn_representation(S4), Q)
    s = next(s for s in range(len(S4)) if S4.inv(s) != s)
    images = list(alg.alpha_images)
    images[s] = (images[s][1], images[s][0], *images[s][2:])
    bad = dataclasses.replace(alg, alpha_images=tuple(images))
    with pytest.raises(algebra.CrossedProductError) as exc:
        algebra.crossed_product_build(bad)
    assert str(exc.value) == "theta_[2>1] is not the inverse of theta_[1>2]"
    assert exc.value.witness == s


def _n_generators(cp, theta, ring):
    S = theta.semigroup
    gens = []
    for r in range(len(S)):
        for s in range(len(S)):
            if r != s and invsemi.natural_leq(S, r, s):
                for x in theta.domains[r]:
                    vec = [ring.zero] * len(cp.basis)
                    vec[cp.basis_index[(r, x)]] = ring.one
                    vec[cp.basis_index[(s, x)]] = ring.neg(ring.one)
                    gens.append(vec)
    return gens


def test_quotient_matches_rref_oracle():
    # the class representatives are exactly the non-pivots of a leftmost-pivot
    # row reduction of N's generators, and summing onto them is its residue;
    # I_3 runs over Z/5, where the dense reduction is an order faster than over Q
    S3, _ = invsemi.symmetric_inverse_semigroup(3)
    cases = [(catalog.action(name), Q) for name in catalog.ACTION_NAMES]
    cases.append((invsemi.munn_representation(S3), rings.ring_zmod(5)))
    for theta, ring in cases:
        cp = algebra.crossed_product_build(paction.dual_action(theta, ring))
        gens = _n_generators(cp, theta, ring)
        red, piv = oracles.rref(ring, gens) if gens else ([], [])
        assert cp.n_pivots == tuple(piv)
        assert cp.quotient_dim == len(cp.basis) - len(piv)
        for i in range(len(cp.basis)):
            e = [ring.zero] * len(cp.basis)
            e[i] = ring.one
            assert oracles.cp_basis_element(cp, i).vec == tuple(oracles.reduce_vector(ring, e, red, piv))


def test_local_unit_acts_as_identity():
    cp, theta = _cp("munn-chain2")
    S = theta.semigroup
    for e in S.idempotents:
        unit = oracles.cp_zero(cp)
        for x in theta.domains[e]:
            unit = unit + oracles.cp_delta(cp, e, x)
        for x in theta.domains[e]:
            delta = oracles.cp_delta(cp, e, x)
            assert oracles.cp_equal(oracles.cp_multiply(unit, delta), delta)


def test_classes_collapse_along_order():
    cp, theta = _cp("munn-chain2")
    S = theta.semigroup
    for r in range(len(S)):
        for s in range(len(S)):
            if r != s and invsemi.natural_leq(S, r, s):
                for x in theta.domains[r]:
                    assert oracles.cp_equal(oracles.cp_delta(cp, r, x), oracles.cp_delta(cp, s, x))


def test_cp_associativity_random_triples():
    rng = random.Random(3)
    for name in ("munn-i2", "self-se-edge", "z2-swap-exel"):
        cp, _ = _cp(name)
        n = len(cp.basis)
        for _ in range(100):
            x = oracles.cp_basis_element(cp, rng.randrange(n)).scale(Q.normalize(rng.randint(1, 3)))
            y = oracles.cp_basis_element(cp, rng.randrange(n))
            z = oracles.cp_basis_element(cp, rng.randrange(n))
            lhs = oracles.cp_multiply(oracles.cp_multiply(x, y), z)
            rhs = oracles.cp_multiply(x, oracles.cp_multiply(y, z))
            assert oracles.cp_equal(lhs, rhs)


def test_cp_equal_cross_checked_by_reversed_elimination():
    # an independent reduction with the reversed basis order must agree about
    # membership of x - y in span(N)
    rng = random.Random(4)
    cp, theta = _cp("munn-i2")
    S = theta.semigroup
    n = len(cp.basis)
    gens = []
    for r in range(len(S)):
        for s in range(len(S)):
            if r != s and invsemi.natural_leq(S, r, s):
                for x in theta.domains[r]:
                    vec = [Q.zero] * n
                    vec[cp.basis_index[(r, x)]] = Q.one
                    vec[cp.basis_index[(s, x)]] = Q.normalize(-1)
                    gens.append(list(reversed(vec)))
    red, piv = oracles.rref(Q, gens)

    def reduced_rev(vec):
        return tuple(oracles.reduce_vector(Q, list(reversed(vec)), red, piv))

    for _ in range(200):
        a = oracles.cp_basis_element(cp, rng.randrange(n))
        b = oracles.cp_basis_element(cp, rng.randrange(n))
        diff = [Q.sub(p, q) for p, q in zip(a.vec, b.vec)]
        in_span = all(v == Q.zero for v in reduced_rev(diff))
        assert in_span == oracles.cp_equal(a, b)


def test_vanishing_combinations_map_to_zero():
    # germ coincidences [s,x] = [t,x] force the matching crossed product
    # classes to coincide, mirroring the induction lemma
    for name in ("munn-i2", "self-sz2", "munn-se-edge"):
        theta = catalog.action(name)
        gg = germs.groupoid_of_germs(theta)
        cp = algebra.crossed_product_build(paction.dual_action(theta, Q))
        S = theta.semigroup
        for x in range(len(theta.carrier)):
            acting = theta.acting_elements(x)
            for s in acting:
                for t in acting:
                    if s < t and gg.germ(s, x) == gg.germ(t, x):
                        lhs = oracles.cp_delta(cp, s, theta.theta(s, x))
                        rhs = oracles.cp_delta(cp, t, theta.theta(t, x))
                        assert oracles.cp_equal(lhs, rhs)


def test_verify_steinberg_crossed_munn_chain2_dims():
    rep = algebra.verify_steinberg_crossed(catalog.action("munn-chain2"), Q)
    assert rep["dims"] == {"steinberg": 2, "L": 3, "N": 1, "quotient": 2}


@pytest.mark.parametrize("ringspec", ["Q", "Zp:5"])
def test_verify_steinberg_crossed_all_catalog(ringspec):
    ring = rings.parse_ring_spec(ringspec)
    for name in catalog.ACTION_NAMES:
        rep = algebra.verify_steinberg_crossed(catalog.action(name), ring)
        assert rep["checks"] == "all passed", name


def test_ample_action_realizes_steinberg_as_crossed_product():
    # the canonical bisection action of the pair groupoid: its groupoid of
    # germs is the pair groupoid again, so the verified isomorphism realizes
    # A_R(G) as a crossed product over the ample semigroup
    theta = catalog.action("pair-bisections")
    gg = germs.groupoid_of_germs(theta)
    iso = germs.groupoid_iso_search(gg.groupoid, PAIR)
    assert iso is not None
    rep = algebra.verify_steinberg_crossed(theta, Q)
    assert rep["dims"]["quotient"] == 4


@pytest.mark.parametrize("ringspec", ["Z", "Zp:6"])
def test_verify_steinberg_crossed_over_non_fields(ringspec):
    ring = rings.parse_ring_spec(ringspec)
    for name in catalog.ACTION_NAMES:
        rep = algebra.verify_steinberg_crossed(catalog.action(name), ring)
        assert rep["checks"] == "all passed", name
        assert rep["dims"] == algebra.verify_steinberg_crossed(catalog.action(name), Q)["dims"], name


def test_verify_steinberg_crossed_self_action_i3():
    # L's associativity is decided by the partial-action laws, not by its
    # |L|^3 = 107M basis triples
    S3, _ = invsemi.symmetric_inverse_semigroup(3)
    rep = algebra.verify_steinberg_crossed(invsemi.canonical_self_action(S3), rings.ring_zmod(5))
    assert rep["dims"] == {"L": 475, "N": 303, "quotient": 172, "steinberg": 172}


@pytest.mark.parametrize("kind, ringspec, dims", [
    ("munn", "Q", {"L": 1473, "N": 1264, "quotient": 209, "steinberg": 209}),
    ("self", "Zp:5", {"L": 13617, "N": 9808, "quotient": 3809, "steinberg": 3809}),
    ("self", "Q", {"L": 13617, "N": 9808, "quotient": 3809, "steinberg": 3809}),
])
def test_verify_steinberg_crossed_i4(kind, ringspec, dims):
    S4, _ = invsemi.symmetric_inverse_semigroup(4)
    theta = invsemi.munn_representation(S4) if kind == "munn" else invsemi.canonical_self_action(S4)
    rep = algebra.verify_steinberg_crossed(theta, rings.parse_ring_spec(ringspec))
    assert rep["dims"] == dims


@pytest.mark.parametrize("ringspec", ["Q", "Zp:5"])
def test_multiplicativity_agrees_with_all_pairs_reference(ringspec):
    ring = rings.parse_ring_spec(ringspec)
    S3, _ = invsemi.symmetric_inverse_semigroup(3)
    actions = [catalog.action(name) for name in catalog.ACTION_NAMES]
    actions += [invsemi.munn_representation(S3), invsemi.canonical_self_action(S3)]
    for theta in actions:
        assert oracles.phi_not_multiplicative(theta, ring) is None
        assert algebra.verify_steinberg_crossed(theta, ring)["checks"] == "all passed"


def _drop_unit(G):
    return dataclasses.replace(G, units=G.units[1:])


def _add_non_unit(G):
    extra = next(a for a in range(len(G.arrows)) if a not in G.units)
    return dataclasses.replace(G, units=G.units + (extra,))


def _reroute_compose(G):
    compose = [dict(row) for row in G.compose]
    a = next(a for a in range(len(compose)) if a not in G.units)
    b = next(iter(compose[a]))
    compose[a][b] = (compose[a][b] + 1) % len(G.arrows)
    return dataclasses.replace(G, compose=tuple(compose))


def _repoint_source(G):
    a = next(a for a in range(len(G.arrows)) if a not in G.units)
    source = list(G.source)
    source[a] = next(u for u in G.units if u != G.source[a])
    return dataclasses.replace(G, source=tuple(source))


@pytest.mark.parametrize("corrupt, message, name", [
    (_drop_unit, "Phi does not map the diagonal into D_R\\(G\\)", "munn-z3"),
    (_add_non_unit, "crossed product diagonal has dimension", "munn-z3"),
    (_reroute_compose, "Phi not multiplicative", "munn-z3"),
    (_repoint_source, "Phi not multiplicative", "munn-i2"),
])
def test_verify_steinberg_crossed_detects_corrupted_groupoid(monkeypatch, corrupt, message, name):
    real = germs.groupoid_of_germs

    def corrupted(theta):
        gg = real(theta)
        return dataclasses.replace(gg, groupoid=corrupt(gg.groupoid))

    monkeypatch.setattr(algebra.germs, "groupoid_of_germs", corrupted)
    with pytest.raises(algebra.VerificationFailed, match=message):
        algebra.verify_steinberg_crossed(catalog.action(name), Q)


def _reclass(gg, key):
    pair_class = dict(gg.pair_class)
    pair_class[key] = (pair_class[key] + 1) % len(gg.groupoid.arrows)
    return dataclasses.replace(gg, pair_class=pair_class)


def _reclass_below(gg):
    # a representative (r, x) with r < s for some s, where N's generators live
    S = gg.action.semigroup
    key = next((r, x) for r, x in gg.reps
               if any(r != s and invsemi.natural_leq(S, r, s) for s in range(len(S))))
    return _reclass(gg, key)


def _reclass_non_representative(gg):
    return _reclass(gg, next(k for k, a in gg.pair_class.items() if gg.reps[a] != k))


@pytest.mark.parametrize("corrupt, message", [
    (_reclass_below, "Phi not multiplicative: .* is badly typed"),
    (_reclass_non_representative, "Phi not multiplicative on basis pair"),
])
def test_verify_steinberg_crossed_detects_corrupted_germ_classes(monkeypatch, corrupt, message):
    # Phi killing N and Psi being constant on germ classes have no check of
    # their own: the checks that remain must still refuse a wrong germ class
    real = germs.groupoid_of_germs
    monkeypatch.setattr(algebra.germs, "groupoid_of_germs", lambda theta: corrupt(real(theta)))
    with pytest.raises(algebra.VerificationFailed, match=message):
        algebra.verify_steinberg_crossed(catalog.action("munn-i2"), Q)


def test_verify_steinberg_crossed_detects_shared_unit(monkeypatch):
    # the groupoid is intact and every basis pair multiplies correctly, but
    # checking only the pairs at a common point covers the others only when
    # no two points share a unit, so the verifier must refuse this premise
    real = germs.groupoid_of_germs

    def shared(theta):
        gg = real(theta)
        units = gg.unit_of_point
        return dataclasses.replace(gg, unit_of_point=(units[0], units[0]) + units[2:])

    monkeypatch.setattr(algebra.germs, "groupoid_of_germs", shared)
    theta = catalog.action("munn-i2")
    assert oracles.phi_not_multiplicative(theta, Q) is None
    with pytest.raises(algebra.VerificationFailed, match="Phi not multiplicative: .* share a unit"):
        algebra.verify_steinberg_crossed(theta, Q)


@pytest.mark.parametrize("n", range(2, 6))
def test_tight_action_of_i_n_is_m_n(n):
    # I_n acts tightly on its n rank-one idempotents; its germ groupoid is
    # the pair groupoid on n points, and the main theorem gives M_n(R)
    S, _ = invsemi.symmetric_inverse_semigroup(n, max_elements=1546)
    theta = invsemi.tight_action(S)
    assert len(theta.carrier) == n
    gg = germs.groupoid_of_germs(theta)
    assert germs.groupoid_iso_search(gg.groupoid, catalog.pair_groupoid(n)) is not None
    rep = algebra.verify_steinberg_crossed(theta, rings.ring_zmod(5))
    assert rep["checks"] == "all passed"
    assert (rep["dims"]["L"], rep["dims"]["quotient"]) == ({2: 8, 3: 63, 4: 544, 5: 5225}[n], n * n)
