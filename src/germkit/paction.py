"""Partial actions of inverse semigroups on finite discrete carriers.

A partial action assigns to each semigroup element s a subset X_s of the
carrier and a bijection theta_s : X_{s*} -> X_s, subject to the partial
homomorphism laws.  Carriers are finite and discrete, so every topological
notion (interior, closure, density) is evaluated literally.

`validate_partial_action` checks an action that comes in as data or is
read off an algebra.  The actions made here from a given action, on the
maximal group image, on S(G) and on one point, are partial actions by
proof and are built as `PartialAction` directly, which derives
`is_global` from the domains the first time it is read.
"""

from dataclasses import dataclass
from functools import cached_property
from . import GermkitError, invsemi, rings
from .invsemi import members, natural_leq


class ActionError(GermkitError):
    pass


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

    @cached_property
    def is_global(self):
        """X_{s*} = X_{s*s} for every s.  Read on demand: it multiplies, which
        fills a model semigroup's table."""
        S, domains = self.semigroup, self.domains
        return all(domains[S.inv(s)] == domains[S.mul(S.inv(s), s)] for s in range(len(S)))

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
    returns the action.

    The laws are theta_s theta_t <= theta_st (a restriction) for all s, t,
    and theta_s <= theta_t whenever s <= t.  Once theta_{s*} = theta_s^-1
    is checked, the equality theta_a theta_t = theta_at is tested for every
    a in the generating set A = S.gens and every t: O(|A| |L|), L the pairs
    (s, x) with x in the domain of theta_s.  If it holds, theta is a
    homomorphism and both laws follow:
    - by induction on word length, theta_aw = theta_a theta_w, so
      theta_aw theta_t = theta_a theta_wt = theta_awt;
    - for s <= t, s = t s*s, so theta_s = theta_t theta_{s*s}, and
      theta_{s*s} = theta_s^-1 theta_s is the identity on the domain of
      theta_s: theta_s is a restriction of theta_t.
    Inclusion over A alone would not do: the product of two elements that
    pass it need not.  When the equality fails (a true partial action, or
    no action at all), `_check_laws` scans both laws in full for their
    least witness.  On a semilattice |A| is about |S|, so there the check
    stays O(|S| |L|).
    """
    S = semigroup
    n = len(S)
    carrier = tuple(carrier)
    npts = len(carrier)
    if len(set(carrier)) < npts:
        x = next(x for x, name in enumerate(carrier) if name in carrier[:x])
        raise ActionError(f"carrier lists point {carrier[x]} twice", x)
    if len(domains) != n or len(maps) != n:
        raise ActionError("domains and maps must be indexed by all of S")
    domains = tuple(tuple(sorted(d)) for d in domains)
    for d in domains:
        for x in d:
            if not 0 <= x < npts:
                raise ActionError("domain point out of range", x)
    for s, d in enumerate(domains):
        if len(set(d)) < len(d):  # d is sorted, so a repeat is adjacent
            x = next(x for x, y in zip(d, d[1:]) if x == y)
            raise ActionError(f"X_{S.name(s)} lists point {carrier[x]} twice", (s, x))
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
    if not _homomorphic_over_gens(S, graphs):
        _check_laws(S, graphs)
    covered = set()
    for e in S.idempotents:
        covered.update(domains[e])
    for x in range(npts):
        if x not in covered:
            raise Degenerate(f"carrier point {carrier[x]} lies in no idempotent domain", x)
    return PartialAction(S, carrier, domains, tuple(graphs))


def _homomorphic_over_gens(S, graphs):
    """theta_a theta_t == theta_at for every a in S.gens and every t."""
    for a in S.gens:
        theta_a = graphs[a]
        row_a = S.table[a]
        for t, theta_t in enumerate(graphs):
            if {x: theta_a[y] for x, y in theta_t.items() if y in theta_a} != graphs[row_a[t]]:
                return False
    return True


def _check_laws(S, graphs):
    """Raise on the least (s, t, x), s then t in index order and x in the
    order of theta_t's graph, where theta_s theta_t is not a restriction of
    theta_st; then on the least (s, t, x) where s <= t but theta_s is not a
    restriction of theta_t."""
    n = len(S)
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


# --- dynamics ------------------------------------------------------------------

@dataclass
class DynamicsReport:
    lambda_points: tuple
    free: bool
    effective: bool
    top_principal: bool
    consistent: bool


def dynamics_report(theta):
    """Lambda, freeness, effectiveness and topological principality, each
    computed from its own definition; `consistent` says that the three
    properties agree, as they must on a discrete carrier.  One pass over
    the graphs theta_s fills acts, and a second decides Lambda and
    effectiveness together.

    acts[x] is the bitmask of the elements acting at x and E that of the
    idempotents, so "some idempotent e <= s has x in X_e" is the single AND
    below[s] & E & acts[x].  x is in Lambda iff that holds for every s with
    theta_s(x) = x.  theta is effective iff for every s the interior of
    Fix(theta_s), which on a discrete carrier is Fix(theta_s) itself, is the
    union of the X_e over e in members(below[s] & E).

    The pairwise reformulation (tests/oracles.py::lambda_by_all_pairs) is a
    lemma: x is in Lambda iff any s, t acting at x with theta_s(x) =
    theta_t(x) have some u <= s, t acting at x.
    - (if) When s fixes x, take t = s*s: then u <= s*s is an idempotent,
      u <= s, and u acts at x.
    - (only if) theta_{t*s} contains theta_{t*} theta_s, which fixes x, so
      some idempotent e <= t*s acts at x, and e = t*se.  Set u = te: u <= t,
      and te = tt*se = s(s*tt*s)e <= s, by fs = s(s*fs) for an idempotent f.
      u acts at x, since theta_e(x) = x and theta_t theta_e is contained in
      theta_te.
    """
    S = theta.semigroup
    npts = len(theta.carrier)
    E = sum(1 << e for e in S.idempotents)
    acts = [0] * npts
    for s, graph in enumerate(theta.maps):
        for x in graph:
            acts[x] |= 1 << s
    in_lambda = [True] * npts
    effective = True
    for s, graph in enumerate(theta.maps):
        below_e = S.below[s] & E
        fix = set()
        for x, y in graph.items():
            if x == y:
                fix.add(x)
                if not below_e & acts[x]:
                    in_lambda[x] = False
        if effective:
            triv = set()
            for e in members(below_e):
                triv.update(theta.maps[e])
            effective = fix == triv
    lam = tuple(x for x in range(npts) if in_lambda[x])
    free = len(lam) == npts
    # topological principality: Lambda dense, i.e. Lambda = X when discrete
    top_principal = set(lam) == set(range(npts))
    consistent = free == effective == top_principal
    return DynamicsReport(lam, free, effective, top_principal, consistent)


# --- dual algebraic action and its inversion -------------------------------------

class AlgebraError(GermkitError):
    pass


class NotAnIdeal(AlgebraError):
    pass


class NoLocalUnits(AlgebraError):
    pass


class RecoveryFailed(AlgebraError):
    pass


@dataclass
class AlgebraicPartialAction:
    """Partial action on the function algebra R^X by ideals and isomorphisms.

    Functions are sparse {point: nonzero coefficient} dicts.  ideal_gens[s]
    generates D_s as an R-module; alpha_images[s][k] is the image under
    alpha_s of the k-th generator of D_{s*}.
    """

    semigroup: invsemi.InverseSemigroup
    ring: rings.Ring
    carrier: tuple
    ideal_gens: tuple
    alpha_images: tuple


def indicator(ring, points):
    return {x: ring.one for x in points}


def indicator_ideal(ring, subset):
    """I(U): the ideal of functions supported in U, via its point indicators."""
    return tuple(indicator(ring, [x]) for x in sorted(subset))


def ideal_support(ring, gens):
    """U(I): the union of the supports of the ideal's elements, that is the
    points where some generator's entry is nonzero in the ring (an explicit
    zero, such as 5 over Z/5, supports nothing)."""
    return tuple(sorted({x for g in gens for x, v in g.items() if ring.normalize(v)}))


def spans_equal(ring, gens_a, gens_b):
    in_a = rings.span_solver(ring, gens_a)
    in_b = rings.span_solver(ring, gens_b)
    return all(in_b(g) is not None for g in gens_a) and all(in_a(g) is not None for g in gens_b)


def dual_action(theta, ring):
    """D_s = functions supported in X_s; alpha_s(f) = f o theta_{s*}, extended
    by zero.  On point indicators: alpha_s(1_y) = 1_{theta_s(y)}.

    Each carrier point gets one indicator dict and each distinct domain one
    tuple of them, shared by every ideal and image that holds them; no
    reader mutates them (`recover_action_from_dual` and
    `algebra._indicator_maps` only read).  On a global action, such as the
    Munn and self actions, X_s = X_{ss*}: at most |E(S)| distinct domains."""
    S = theta.semigroup
    points = [indicator(ring, [x]) for x in range(len(theta.carrier))]
    ideals = {d: tuple(points[x] for x in sorted(d)) for d in set(theta.domains)}
    ideal_gens = tuple(ideals[d] for d in theta.domains)
    alpha_images = tuple(
        tuple(points[theta.theta(s, y)] for y in sorted(theta.domains[S.inv(s)]))
        for s in range(len(S))
    )
    return AlgebraicPartialAction(S, ring, theta.carrier, ideal_gens, alpha_images)


def recover_action_from_dual(alg):
    """Invert dual_action: X_s = U(D_s) and theta_s read off from the action
    of alpha_s on point indicators.  Needs an indecomposable coefficient ring.

    The cost is per distinct ideal, not per element; the dual of a global
    action has D_s = D_{ss*}, so at most |E(S)| distinct generator lists.
    Lists are keyed by content, the entries of each generator, and equal
    lists span the same module and give the same coefficients, so one span
    solver and one solve of each point indicator serve every s with that
    list.  The key is exact: ring values (ints and Fractions) that compare
    equal normalise alike, and lists that differ only in spelling are
    merely solved twice.  A failing list raises at its first s, in index
    order, so every NotAnIdeal and NoLocalUnits witness is the least one.

    The ideal check solves v * 1_x only when 1_x is not in D_s, since a
    multiple of a member is a member, and the local-unit check solves 1_U
    only when some 1_x is not in D_s, since 1_U is the sum of the 1_x.  So
    the checks fail exactly where solving every entry and 1_U would, with
    the same messages.

    theta_s(y) is read from alpha_s(1_y) = sum_j c_j alpha_s(g_j), for the
    coefficients c of 1_y.  When they are the single entry {j: 1}, as on a
    dual built by dual_action, that sum is alpha_s(g_j) itself, the j-th
    image with its values normalised (so 6 over Z/5 reads as 1).

    Read off point indicators alone, alpha_s need not be a map on D_{s*}:
    a generator listed twice may carry two images.  So each image list must
    be as long as its ideal's generator list, and alpha_s(g_k) = sum_y
    g_k(y) 1_{theta_s(y)}, with values normalised, for every generator g_k
    of D_{s*}.  It holds at each g_k with 1_y = c g_k for some y: then g_k
    = c^-1 1_y, and reading theta_s(y) found c alpha_s(g_k) = 1_{theta_s(y)}.
    So only the other generators are compared.  A failure raises
    RecoveryFailed at (s, k).
    """
    ring = alg.ring
    if not ring.is_indecomposable():
        raise rings.DecomposableRing(f"{ring!r} has nontrivial idempotents")
    S = alg.semigroup
    one = ring.one
    solved = {}
    supports = []
    point_coeffs = []
    unread = []  # s -> the k with g_k not read as some 1_y

    def nonzero(f):
        return {x: v for x, b in f.items() if (v := ring.normalize(b))}

    for s, gens in enumerate(alg.ideal_gens):
        key = tuple(frozenset(g.items()) for g in gens)
        if key not in solved:
            solve = rings.span_solver(ring, gens)
            supp = ideal_support(ring, gens)
            coeffs = {x: solve({x: one}) for x in supp}
            for g in gens:
                for x, v in g.items():
                    if coeffs.get(x) is None and solve({x: v}) is None:
                        raise NotAnIdeal(
                            f"D_{S.name(s)} is not closed under multiplication by functions", s
                        )
            if None in coeffs.values() and solve(indicator(ring, supp)) is None:
                raise NoLocalUnits(f"D_{S.name(s)} has no local units", s)
            read = {j for c in coeffs.values() if c and len(c) == 1 for j in c}
            solved[key] = supp, coeffs, [k for k in range(len(gens)) if k not in read]
        supp, coeffs, rest = solved[key]
        supports.append(supp)
        point_coeffs.append(coeffs)
        unread.append(rest)
    maps = []
    for s in range(len(S)):
        s_star = S.inv(s)
        gens, images = alg.ideal_gens[s_star], alg.alpha_images[s]
        if len(images) != len(gens):
            raise RecoveryFailed(
                f"alpha_{S.name(s)} has {len(images)} images for the {len(gens)} "
                f"generators of D_{S.name(s_star)}", (s, min(len(images), len(gens))))
        theta = {}
        for y in supports[s_star]:
            coeffs = point_coeffs[s_star][y]
            if coeffs is None:
                raise RecoveryFailed(f"1_{{{alg.carrier[y]}}} not in D_{S.name(s_star)}", (s, y))
            if len(coeffs) == 1 and coeffs[j := next(iter(coeffs))] == one:
                img = {x: ring.normalize(b) for x, b in images[j].items()}
            else:
                img = {}
                for j, c in coeffs.items():
                    for x, b in images[j].items():
                        img[x] = ring.add(img.get(x, ring.zero), ring.mul(c, b))
            pts = [x for x, v in img.items() if v]
            if len(pts) != 1 or img[pts[0]] != one:
                raise RecoveryFailed(
                    f"alpha_{S.name(s)} does not map a point indicator to a point indicator",
                    (s, y),
                )
            theta[y] = pts[0]
        for k in unread[s_star]:
            if nonzero(images[k]) != {theta[y]: v for y, v in nonzero(gens[k]).items()}:
                raise RecoveryFailed(
                    f"alpha_{S.name(s)} is not the dual of theta_{S.name(s)} on generator {k} "
                    f"of D_{S.name(s_star)}", (s, k))
        maps.append(theta)
    return validate_partial_action(S, alg.carrier, tuple(supports), tuple(maps))


# --- induced actions --------------------------------------------------------------

def _join_by_class(theta, class_of, m):
    """Union of the graphs theta_s over each congruence class; raises on any
    disagreement between overlapping partial bijections.

    When no class disagrees and class_of is the minimum group congruence,
    the joins theta~_gamma are a partial action of G(S), so nothing is
    validated after them:
    - theta~_gamma is injective, because the join of gamma^-1 is
      consistent: theta~_{gamma^-1} joins the theta_{s*} = theta_s^-1, so
      it is a map and inverts theta~_gamma, theta~_{gamma^-1} =
      theta~_gamma^-1;
    - theta~_gamma theta~_delta is contained in theta~_{gamma delta}: a
      point moved by theta_s theta_t, [s] = gamma and [t] = delta, is moved
      alike by theta_st, as theta_s theta_t <= theta_st, and [st] = gamma
      delta;
    - G(S) is a group, so its order is equality and preserves itself;
    - it is non-degenerate through the identity class, which holds every
      idempotent of S, so theta~_1 is defined on every X_e and hence on X.
    """
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
    domains = tuple(tuple(sorted(g.values())) for g in joined)
    return domains, tuple(joined)


def induced_group_action(theta):
    """For E-unitary S: the induced partial action of the maximal group image,
    with theta~_gamma the join of {theta_s : [s] = gamma}, a partial action
    by `_join_by_class`."""
    flag, witness = invsemi.is_e_unitary(theta.semigroup)
    if not flag:
        raise NotEUnitary(f"witness pair {witness}", witness)
    gi = invsemi.max_group_image(theta.semigroup)
    domains, maps = _join_by_class(theta, gi.class_of, len(gi.group))
    return PartialAction(gi.group, theta.carrier, domains, maps), gi


def action_factors_through_group(theta):
    """Whether theta factors through G(S): whether the class-wise joins are
    consistent partial bijections.  Consistent joins form a partial action
    of G(S) (`_join_by_class`), so the witness is the least disagreement."""
    gi = invsemi.max_group_image(theta.semigroup)
    try:
        _join_by_class(theta, gi.class_of, len(gi.group))
    except IncompatibleJoin as err:
        return False, err.witness
    return True, None


def induced_exel_action(theta):
    """Extend a partial group action to a global action of the universal
    inverse semigroup: eps_R [g] acts as theta_g restricted to the points
    whose image lies in every X_r, r in R.

    This is Exel's correspondence (Exel, Proc. AMS 126, 1998): a partial
    action of G is a homomorphism S(G) -> I(X), [g] -> theta_g, and eps_r =
    [r][r^-1] goes to the identity of X_r, so eps_R [g] goes to theta_g
    followed by the identity of the intersection of the X_r.  A homomorphism
    into I(X) is a global action, so nothing is validated.  It is
    non-degenerate: theta_1 = id_X, as theta is non-degenerate and 1 is the
    only idempotent of G, and eps_{} [1] acts as theta_1.
    """
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
    return PartialAction(ex.semigroup, theta.carrier, tuple(domains), tuple(maps)), ex


def one_point_trivial_action(S):
    """The trivial action of S on a single point; its groupoid of germs is the
    maximal group image.  Every s acting as the identity of the point is a
    homomorphism S -> I(X), so a global action, and non-degenerate, as
    every idempotent acts as id_X; nothing is validated."""
    n = len(S)
    return PartialAction(S, ("pt",), ((0,),) * n, tuple({0: 0} for _ in range(n)))
