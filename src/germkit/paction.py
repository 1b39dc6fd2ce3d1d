"""Partial actions of inverse semigroups on finite discrete carriers.

A partial action assigns to each semigroup element s a subset X_s of the
carrier and a bijection theta_s : X_{s*} -> X_s, subject to the partial
homomorphism laws.  Carriers are finite and discrete, so every topological
notion (interior, closure, density) is evaluated literally.
"""

from dataclasses import dataclass

from . import invsemi, rings
from .invsemi import members, natural_leq


class ActionError(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotBijective(ActionError):
    pass


class InverseMismatch(ActionError):
    pass


class CompositionNotRestriction(ActionError):
    pass


class OrderNotPreserved(ActionError):
    pass


class Degenerate(ActionError):
    pass


class NotEUnitary(ActionError):
    pass


class IncompatibleJoin(ActionError):
    pass


@dataclass
class PartialAction:
    semigroup: invsemi.InverseSemigroup
    carrier: tuple
    domains: tuple  # s -> sorted tuple of carrier indices (X_s)
    maps: tuple     # s -> dict mapping X_{s*} points to X_s points
    is_global: bool

    def theta(self, s, x):
        return self.maps[s][x]

    def dom(self, s):
        """Domain of theta_s, i.e. X_{s*}."""
        return self.domains[self.semigroup.inv(s)]

    def pairs(self):
        """All (s, x) with x in the domain of theta_s."""
        return [(s, x) for s in range(len(self.semigroup)) for x in self.dom(s)]

    def acting_elements(self, x):
        return [s for s in range(len(self.semigroup)) if x in self.maps[s]]


def validate_partial_action(semigroup, carrier, domains, maps):
    """Check bijectivity, the partial homomorphism laws and non-degeneracy;
    returns the action with its global flag."""
    S = semigroup
    n = len(S)
    carrier = tuple(carrier)
    npts = len(carrier)
    if len(domains) != n or len(maps) != n:
        raise ActionError("domains and maps must be indexed by all of S")
    domains = tuple(tuple(sorted(d)) for d in domains)
    for d in domains:
        for x in d:
            if not 0 <= x < npts:
                raise ActionError("domain point out of range", x)
    graphs = []
    for s in range(n):
        theta = dict(maps[s])
        expect_dom = set(domains[S.inv(s)])
        expect_ran = set(domains[s])
        if set(theta) != expect_dom or set(theta.values()) != expect_ran:
            raise NotBijective(f"theta_{S.name(s)} is not X_(s*) -> X_s", s)
        if len(set(theta.values())) != len(theta):
            raise NotBijective(f"theta_{S.name(s)} is not injective", s)
        graphs.append(theta)
    for s in range(n):
        inv = {y: x for x, y in graphs[s].items()}
        if graphs[S.inv(s)] != inv:
            raise InverseMismatch(f"theta_{S.name(S.inv(s))} is not the inverse of theta_{S.name(s)}", s)
    for s in range(n):
        for t in range(n):
            st = S.mul(s, t)
            for x, y in graphs[t].items():
                if y in graphs[s]:
                    if x not in graphs[st] or graphs[st][x] != graphs[s][y]:
                        raise CompositionNotRestriction(
                            f"theta_{S.name(s)} o theta_{S.name(t)} is not a restriction of theta_{S.name(st)}",
                            (s, t, x),
                        )
    for s in range(n):
        for t in range(n):
            if s != t and natural_leq(S, s, t):
                for x, y in graphs[s].items():
                    if x not in graphs[t] or graphs[t][x] != y:
                        raise OrderNotPreserved(
                            f"{S.name(s)} <= {S.name(t)} but theta_{S.name(s)} is not a restriction",
                            (s, t, x),
                        )
    covered = set()
    for e in S.idempotents:
        covered.update(domains[e])
    for x in range(npts):
        if x not in covered:
            raise Degenerate(f"carrier point {carrier[x]} lies in no idempotent domain", x)
    is_global = all(
        set(domains[S.inv(s)]) == set(domains[S.mul(S.inv(s), s)]) for s in range(n)
    )
    return PartialAction(S, carrier, domains, tuple(graphs), is_global)


# --- dynamics ------------------------------------------------------------------

@dataclass
class DynamicsReport:
    lambda_points: tuple
    free: bool
    effective: bool
    top_principal: bool
    lambda_by_pairs: tuple
    consistent: bool


def trivially_fixed(theta, s, x):
    S = theta.semigroup
    return any(
        natural_leq(S, e, s) and x in theta.maps[e]
        for e in S.idempotents
    )


def dynamics_report(theta):
    """Lambda, freeness, effectiveness and topological principality, each
    computed from its own definition; they agree on discrete carriers."""
    S = theta.semigroup
    X = range(len(theta.carrier))
    lam = []
    for x in X:
        ok = all(
            trivially_fixed(theta, s, x)
            for s in theta.acting_elements(x)
            if theta.theta(s, x) == x
        )
        if ok:
            lam.append(x)
    lam = tuple(lam)
    free = len(lam) == len(theta.carrier)
    # effectiveness: interior of Fix(theta_s) equals the union of X_e, e <= s;
    # on a discrete carrier the interior is the set itself
    effective = True
    for s in range(len(S)):
        fix = {x for x in theta.dom(s) if theta.theta(s, x) == x}
        triv = set()
        for e in S.idempotents:
            if natural_leq(S, e, s):
                triv.update(theta.domains[e])
        if fix != triv:
            effective = False
            break
    # topological principality: Lambda dense, i.e. Lambda = X when discrete
    top_principal = set(lam) == set(X)
    # cross-check via the pairwise reformulation
    lam2 = []
    for x in X:
        ok = True
        acting = theta.acting_elements(x)
        for s in acting:
            for t in acting:
                if theta.theta(s, x) == theta.theta(t, x):
                    if not any(
                        x in theta.maps[u] for u in members(S.below[s] & S.below[t])
                    ):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            lam2.append(x)
    lam2 = tuple(lam2)
    consistent = lam == lam2 and free == effective == top_principal
    return DynamicsReport(lam, free, effective, top_principal, lam2, consistent)


# --- dual algebraic action and its inversion -------------------------------------

class AlgebraError(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotAnIdeal(AlgebraError):
    pass


class NoLocalUnits(AlgebraError):
    pass


class RecoveryFailed(AlgebraError):
    pass


@dataclass
class AlgebraicPartialAction:
    """Partial action on the function algebra R^X by ideals and isomorphisms.

    ideal_gens[s] generates D_s as an R-module; alpha_images[s][k] is the
    image under alpha_s of the k-th generator of D_{s*}.
    """

    semigroup: invsemi.InverseSemigroup
    ring: rings.Ring
    carrier: tuple
    ideal_gens: tuple
    alpha_images: tuple


def indicator(ring, dim, points):
    v = [ring.zero] * dim
    for x in points:
        v[x] = ring.one
    return tuple(v)


def indicator_ideal(ring, dim, subset):
    """I(U): the ideal of functions supported in U, via its point indicators."""
    return tuple(indicator(ring, dim, [x]) for x in sorted(subset))


def ideal_support(ring, gens):
    """U(I): the union of the supports of the ideal's elements."""
    supp = set()
    for g in gens:
        supp.update(x for x, v in enumerate(g) if v != ring.zero)
    return tuple(sorted(supp))


def spans_equal(ring, gens_a, gens_b):
    return all(rings.solve_in_span(ring, gens_b, g) is not None for g in gens_a) and all(
        rings.solve_in_span(ring, gens_a, g) is not None for g in gens_b
    )


def dual_action(theta, ring):
    """D_s = functions supported in X_s; alpha_s(f) = f o theta_{s*}, extended
    by zero.  On point indicators: alpha_s(1_y) = 1_{theta_s(y)}."""
    S = theta.semigroup
    dim = len(theta.carrier)
    ideal_gens = []
    for s in range(len(S)):
        ideal_gens.append(indicator_ideal(ring, dim, theta.domains[s]))
    alpha_images = []
    for s in range(len(S)):
        dom_pts = sorted(theta.domains[S.inv(s)])
        alpha_images.append(
            tuple(indicator(ring, dim, [theta.theta(s, y)]) for y in dom_pts)
        )
    return AlgebraicPartialAction(S, ring, theta.carrier, tuple(ideal_gens), tuple(alpha_images))


def recover_action_from_dual(alg):
    """Invert dual_action: X_s = U(D_s) and theta_s read off from the action
    of alpha_s on point indicators.  Needs an indecomposable coefficient ring."""
    ring = alg.ring
    if not ring.is_indecomposable():
        raise rings.DecomposableRing(f"{ring!r} has nontrivial idempotents")
    S = alg.semigroup
    dim = len(alg.carrier)
    supports = []
    for s in range(len(S)):
        gens = [list(g) for g in alg.ideal_gens[s]]
        supp = ideal_support(ring, gens)
        for g in gens:
            for x in range(dim):
                if g[x] != ring.zero:
                    proj = [ring.zero] * dim
                    proj[x] = g[x]
                    if rings.solve_in_span(ring, gens, proj) is None:
                        raise NotAnIdeal(
                            f"D_{S.name(s)} is not closed under multiplication by functions", s
                        )
        if supp and rings.solve_in_span(ring, gens, indicator(ring, dim, supp)) is None:
            raise NoLocalUnits(f"D_{S.name(s)} has no local units", s)
        supports.append(supp)
    domains = tuple(supports)
    maps = []
    for s in range(len(S)):
        s_star = S.inv(s)
        gens_dom = [list(g) for g in alg.ideal_gens[s_star]]
        theta = {}
        for y in supports[s_star]:
            coeffs = rings.solve_in_span(ring, gens_dom, indicator(ring, dim, [y]))
            if coeffs is None:
                raise RecoveryFailed(f"1_{{{alg.carrier[y]}}} not in D_{S.name(s_star)}", (s, y))
            img = [ring.zero] * dim
            for c, vec in zip(coeffs, alg.alpha_images[s]):
                if c != ring.zero:
                    img = [ring.add(a, ring.mul(c, b)) for a, b in zip(img, vec)]
            pts = [x for x in range(dim) if img[x] != ring.zero]
            if len(pts) != 1 or img[pts[0]] != ring.one:
                raise RecoveryFailed(
                    f"alpha_{S.name(s)} does not map a point indicator to a point indicator",
                    (s, y),
                )
            theta[y] = pts[0]
        maps.append(theta)
    return validate_partial_action(S, alg.carrier, domains, tuple(maps))


# --- induced actions --------------------------------------------------------------

def _join_by_class(theta, class_of, m):
    """Union of the graphs theta_s over each congruence class; raises on any
    disagreement between overlapping partial bijections."""
    S = theta.semigroup
    joined = [dict() for _ in range(m)]
    owners = [dict() for _ in range(m)]
    for s in range(len(S)):
        c = class_of[s]
        for x, y in theta.maps[s].items():
            if x in joined[c] and joined[c][x] != y:
                raise IncompatibleJoin(
                    f"theta_{S.name(s)} and theta_{S.name(owners[c][x])} disagree at {theta.carrier[x]}",
                    (s, owners[c][x], x),
                )
            joined[c][x] = y
            owners[c][x] = s
    domains = tuple(tuple(sorted(set(g.values()))) for g in joined)
    return domains, tuple(joined)


def induced_group_action(theta):
    """For E-unitary S: the induced partial action of the maximal group image,
    with theta~_gamma the join of {theta_s : [s] = gamma}."""
    flag, witness = invsemi.is_e_unitary(theta.semigroup)
    if not flag:
        raise NotEUnitary(f"witness pair {witness}", witness)
    gi = invsemi.max_group_image(theta.semigroup)
    domains, maps = _join_by_class(theta, gi.class_of, len(gi.group))
    action = validate_partial_action(gi.group, theta.carrier, domains, maps)
    return action, gi


def action_factors_through_group(theta):
    """Whether theta factors through G(S): the class-wise joins must be
    consistent partial bijections forming a valid partial action."""
    gi = invsemi.max_group_image(theta.semigroup)
    try:
        domains, maps = _join_by_class(theta, gi.class_of, len(gi.group))
        validate_partial_action(gi.group, theta.carrier, domains, maps)
    except ActionError as err:
        return False, err.witness
    return True, None


def induced_exel_action(theta):
    """Extend a partial group action to a global action of the universal
    inverse semigroup: eps_R [g] acts as theta_g restricted to the points
    whose image lies in every X_r, r in R."""
    G = theta.semigroup
    if not invsemi.is_group(G):
        raise ActionError("induced_exel_action needs a partial group action")
    ex = invsemi.exel_semigroup(G)
    domains = []
    maps = []
    for R, g in ex.forms:
        theta_g = theta.maps[g]
        allowed = set(range(len(theta.carrier)))
        for r in R:
            allowed &= set(theta.domains[r])
        graph = {x: y for x, y in theta_g.items() if y in allowed}
        maps.append(graph)
        domains.append(tuple(sorted(graph.values())))
    action = validate_partial_action(ex.semigroup, theta.carrier, tuple(domains), tuple(maps))
    if not action.is_global:
        raise ActionError("induced universal action failed to be global")
    return action, ex


def one_point_trivial_action(S):
    """The trivial action of S on a single point; its groupoid of germs is the
    maximal group image."""
    n = len(S)
    return validate_partial_action(S, ("pt",), tuple(((0,),) * n), tuple(({0: 0},) * n))
