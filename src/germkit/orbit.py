"""Continuous orbit equivalence of partial actions on finite carriers.

An orbit equivalence is a carrier bijection phi together with total cocycle
tables a : S*X -> T and b : T*Y -> S intertwining the two actions.  On
discrete carriers continuity is vacuous, and the germ-level identities that
stand in for the limit arguments need no check of their own: when both
actions are topologically principal they follow from the pointwise
identities (the proof is in `verify_orbit_equivalence`).
"""

from dataclasses import dataclass

from . import GermkitError, germs, paction


class CoeError(GermkitError):
    pass


class IdentityFails(CoeError):
    pass


class NoCoveringElement(CoeError):
    pass


class NotTopPrincipal(CoeError):
    pass


@dataclass
class OrbitEquivalence:
    phi: dict  # carrier(X) point -> carrier(Y) point, bijective
    a: dict    # (s, x) for x in dom theta_s  ->  t in T
    b: dict    # (t, y) for y in dom gamma_t  ->  s in S


def identity_orbit_equivalence(theta):
    n = len(theta.carrier)
    phi = {x: x for x in range(n)}
    a = {(s, x): s for s, x in theta.pairs()}
    return OrbitEquivalence(phi, a, dict(a))


def verify_orbit_equivalence(theta, gamma, oe):
    """Check the two defining identities pointwise; raises with a witness
    on the first failure.  When both actions are topologically principal,
    the germ identities (a) well-definedness, (b) cocycle and (c) inversion
    hold as well, by proof rather than by a check:
    - `dynamics_report(theta).top_principal` says that every (s, x) with
      theta_s(x) = x has an idempotent e <= s with x in X_e.  Then e_x <= e
      (e_x, the least idempotent acting at x, keys the germs), so s e_x =
      s e e_x = e e_x = e_x: [s, x] is the unit at x, and every isotropy
      group of the germ groupoid is trivial.
    - So two germs with the same source and the same target are equal: for
      [s, x] and [t, x] with theta_s(x) = theta_t(x), [t, x]^-1 [s, x] =
      [t*s, x] fixes x, so it is the unit and [s, x] = [t, x].
    - Given the pointwise identities and the validated law theta_s theta_t
      <= theta_st, each side of each identity is a germ at the same point
      with the same target:
      (a) [s1, x] = [s2, x] gives theta_s1(x) = theta_s2(x), and then
          [a(s1, x), phi(x)] and [a(s2, x), phi(x)] both end at
          phi(theta_s1(x));
      (b) with y = theta_s2(x), a(s1 s2, x) and a(s1, y) a(s2, x) both act
          at phi(x) and send it to phi(theta_s1(y));
      (c) b(a(s, x), phi(x)) acts at x and sends it to theta_s(x), as s
          does.
    So `germ_identities_checked` equals `top_principal`: the identities are
    claimed exactly when the proof applies, and no germ groupoid is built.
    """
    X = range(len(theta.carrier))
    Y = range(len(gamma.carrier))
    phi = oe.phi
    if sorted(phi) != list(X) or sorted(phi.values()) != list(Y):
        raise CoeError("phi is not a carrier bijection")
    phi_inv = {y: x for x, y in phi.items()}

    for s, x in theta.pairs():
        t = oe.a.get((s, x))
        if t is None:
            raise CoeError(f"a is undefined at ({theta.semigroup.name(s)}, {theta.carrier[x]})")
        if phi[x] not in gamma.maps[t]:
            raise IdentityFails(
                f"a({theta.semigroup.name(s)}, {theta.carrier[x]}) does not act at phi(x)",
                ("a", s, x),
            )
        if gamma.theta(t, phi[x]) != phi[theta.theta(s, x)]:
            raise IdentityFails(
                f"phi(theta_s(x)) != gamma_a(s,x)(phi(x)) at ({theta.semigroup.name(s)}, {theta.carrier[x]})",
                ("a", s, x),
            )
    for t, y in gamma.pairs():
        s = oe.b.get((t, y))
        if s is None:
            raise CoeError(f"b is undefined at ({gamma.semigroup.name(t)}, {gamma.carrier[y]})")
        if phi_inv[y] not in theta.maps[s]:
            raise IdentityFails(
                f"b({gamma.semigroup.name(t)}, {gamma.carrier[y]}) does not act at phi^-1(y)",
                ("b", t, y),
            )
        if theta.theta(s, phi_inv[y]) != phi_inv[gamma.theta(t, y)]:
            raise IdentityFails(
                f"phi^-1(gamma_t(y)) != theta_b(t,y)(phi^-1(y)) at ({gamma.semigroup.name(t)}, {gamma.carrier[y]})",
                ("b", t, y),
            )

    principal = (
        paction.dynamics_report(theta).top_principal
        and paction.dynamics_report(gamma).top_principal
    )
    return {
        "identities": "ok",
        "top_principal": principal,
        "germ_identities_checked": principal,
    }


def coe_from_groupoid_iso(iso, germ_x, germ_y):
    """Extract (phi, a, b) from an isomorphism of groupoids of germs.

    phi is the restriction to units; a(s,x) is the semigroup element of the
    representative of the image germ, which covers it by construction.

    iso must be an isomorphism, as `germs.groupoid_iso_search` returns only
    verified ones.  Then the result is an orbit equivalence by proof, and
    `verify_orbit_equivalence` is not run on it: iso maps units onto units,
    so phi is a carrier bijection, and it preserves sources and targets.
    The image [t, y] of [s, x] starts at iso(unit at x), the unit at phi(x),
    so y = phi(x) and t acts there; it ends at iso(unit at theta_s(x)), the
    unit at phi(theta_s(x)), so gamma_t(phi(x)) = phi(theta_s(x)): the
    pointwise identity at (s, x).  The identities for b follow in the same
    way through `iso.inverted()`.  The `NoCoveringElement` checks below
    remain as cheap guards of that precondition.
    """
    theta = germ_x.action
    gamma = germ_y.action
    if iso.source is not germ_x.groupoid or iso.target is not germ_y.groupoid:
        raise CoeError("isomorphism does not connect the given germ groupoids")
    phi = {}
    for x in range(len(theta.carrier)):
        u = iso.arrow_map[germ_x.unit_of_point[x]]
        if u not in germ_y.point_of_unit:
            raise NoCoveringElement("image of a unit is not a unit", x)
        phi[x] = germ_y.point_of_unit[u]
    a = {}
    for s, x in theta.pairs():
        image = iso.arrow_map[germ_x.germ(s, x)]
        t, y = germ_y.reps[image]
        if y != phi[x]:
            raise NoCoveringElement(
                f"image germ of ({theta.semigroup.name(s)}, {theta.carrier[x]}) is not based at phi(x)",
                (s, x),
            )
        a[(s, x)] = t
    inv = iso.inverted()
    phi_inv = {y: x for x, y in phi.items()}
    b = {}
    for t, y in gamma.pairs():
        image = inv.arrow_map[germ_y.germ(t, y)]
        s, x = germ_x.reps[image]
        if x != phi_inv[y]:
            raise NoCoveringElement("inverse image germ is not based at phi^-1(y)", (t, y))
        b[(t, y)] = s
    return OrbitEquivalence(phi, a, b)


def iso_from_coe(germ_x, germ_y, oe):
    """Phi[s, x] = [a(s, x), phi(x)], read off the representatives of the
    germs of theta; it is well defined by identity (a), which holds once
    `verify_orbit_equivalence` passes on topologically principal actions.
    Returns the verified groupoid isomorphism."""
    rep = verify_orbit_equivalence(germ_x.action, germ_y.action, oe)
    if not rep["top_principal"]:
        raise NotTopPrincipal("both actions must be topologically principal")
    amap = tuple(germ_y.germ(oe.a[(s, x)], oe.phi[x]) for s, x in germ_x.reps)
    iso = germs.GroupoidIso(germ_x.groupoid, germ_y.groupoid, amap)
    if not germs.verify_groupoid_iso(iso):
        raise CoeError("induced germ map is not an isomorphism")
    return iso
