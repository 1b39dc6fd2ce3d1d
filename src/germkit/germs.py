"""Finite groupoids, the groupoid of germs of a partial action, bisections,
and an exhaustive isomorphism search.

Arrows are indexed; source/target of an arrow are indices of unit arrows.  On
finite discrete groupoids every subset is compact-open, so the open and ample
bisection semigroups coincide and only the latter is exposed.
"""

from dataclasses import dataclass
from itertools import permutations

from . import invsemi
from .invsemi import natural_leq, union_find


class GroupoidError(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class Timeout(GroupoidError):
    def __init__(self, nodes):
        super().__init__(f"isomorphism search exhausted {nodes} nodes", nodes)
        self.nodes = nodes


class TooLarge(GroupoidError):
    pass


class ConditionFails(GroupoidError):
    pass


class NotPartialHom(GroupoidError):
    pass


@dataclass(frozen=True)
class FiniteGroupoid:
    arrows: tuple
    units: tuple    # indices of the unit arrows
    source: tuple   # arrow -> unit arrow index
    target: tuple   # arrow -> unit arrow index (the range map)
    inverse: tuple
    compose: dict   # (a, b) -> ab, defined exactly when source[a] == target[b]

    def __len__(self):
        return len(self.arrows)

    def is_unit(self, a):
        return a in self._unit_set()

    def _unit_set(self):
        return set(self.units)

    def composable(self, a, b):
        return self.source[a] == self.target[b]

    def mul(self, a, b):
        return self.compose[(a, b)]

    def isotropy(self, u):
        return tuple(a for a in range(len(self.arrows))
                     if self.source[a] == u and self.target[a] == u)


def validate_groupoid(arrows, units, source, target, inverse, compose):
    """Exhaustively check the groupoid axioms; one error per violation,
    with a witness."""
    arrows = tuple(arrows)
    n = len(arrows)
    units = tuple(units)
    source = tuple(source)
    target = tuple(target)
    inverse = tuple(inverse)
    compose = dict(compose)
    unit_set = set(units)
    if len(set(arrows)) != n:
        raise GroupoidError("duplicate arrow names")
    for seq in (source, target, inverse):
        if len(seq) != n or any(not 0 <= a < n for a in seq):
            raise GroupoidError("source/target/inverse out of range")
    for a in range(n):
        if source[a] not in unit_set or target[a] not in unit_set:
            raise GroupoidError(f"source/target of {arrows[a]} is not a unit", a)
    for u in units:
        if source[u] != u or target[u] != u:
            raise GroupoidError(f"unit {arrows[u]} is not its own source and target", u)
    for a in range(n):
        for b in range(n):
            if (source[a] == target[b]) != ((a, b) in compose):
                raise GroupoidError(
                    f"compose defined on wrong pair ({arrows[a]}, {arrows[b]})", (a, b)
                )
    for (a, b), c in compose.items():
        if not 0 <= c < n:
            raise GroupoidError("compose value out of range", (a, b))
        if source[c] != source[b] or target[c] != target[a]:
            raise GroupoidError(f"composite {arrows[a]}*{arrows[b]} badly typed", (a, b))
    for a in range(n):
        if compose[(a, source[a])] != a or compose[(target[a], a)] != a:
            raise GroupoidError(f"units do not act as identities at {arrows[a]}", a)
        if inverse[inverse[a]] != a:
            raise GroupoidError(f"inverse is not an involution at {arrows[a]}", a)
        if compose[(inverse[a], a)] != source[a] or compose[(a, inverse[a])] != target[a]:
            raise GroupoidError(f"a^-1 a != s(a) at {arrows[a]}", a)
    for a in range(n):
        for b in range(n):
            if source[a] != target[b]:
                continue
            ab = compose[(a, b)]
            for c in range(n):
                if source[b] == target[c]:
                    if compose[(ab, c)] != compose[(a, compose[(b, c)])]:
                        raise GroupoidError("composition is not associative", (a, b, c))
    return FiniteGroupoid(arrows, units, source, target, inverse, compose)


# --- groupoid of germs ------------------------------------------------------------

@dataclass
class GermGroupoid:
    groupoid: FiniteGroupoid
    action: object
    pair_class: dict      # (s, x) -> arrow index
    reps: tuple           # arrow index -> minimal (s, x) in the class
    unit_of_point: tuple  # carrier point -> unit arrow index
    point_of_unit: dict   # unit arrow index -> carrier point

    def germ(self, s, x):
        return self.pair_class[(s, x)]


def germ_equivalent(theta, s, t, x):
    """(s,x) ~ (t,x): some idempotent e has x in X_e and se = te."""
    S = theta.semigroup
    return any(
        x in theta.maps[e] and S.mul(s, e) == S.mul(t, e)
        for e in S.idempotents
    )


def groupoid_of_germs(theta):
    """Quotient of {(s,x) : x in X_{s*}} by the germ relation.

    Classes are computed by union-find seeded with every pair s,t acting at
    each point; representatives are lexicographically minimal, which fixes
    the arrow order.
    """
    S = theta.semigroup
    pairs = sorted(theta.pairs())
    pidx = {p: i for i, p in enumerate(pairs)}
    by_point = {}
    for s, x in pairs:
        by_point.setdefault(x, []).append(s)
    root = union_find(len(pairs), (
        (pidx[(s, x)], pidx[(t, x)])
        for x, acting in by_point.items()
        for i, s in enumerate(acting)
        for t in acting[i + 1:]
        if germ_equivalent(theta, s, t, x)
    ))
    roots = sorted(set(root))
    class_index = {r: k for k, r in enumerate(roots)}
    pair_class = {p: class_index[root[i]] for p, i in pidx.items()}
    reps = tuple(pairs[r] for r in roots)

    unit_of_point = []
    for x in range(len(theta.carrier)):
        e = next(e for e in S.idempotents if x in theta.maps[e])
        unit_of_point.append(pair_class[(e, x)])
    unit_of_point = tuple(unit_of_point)

    n = len(reps)
    source = []
    target = []
    inverse = []
    for s, x in reps:
        y = theta.theta(s, x)
        source.append(unit_of_point[x])
        target.append(unit_of_point[y])
        inverse.append(pair_class[(S.inv(s), y)])
    compose = {}
    for a, (s, x) in enumerate(reps):
        for b, (t, y) in enumerate(reps):
            if source[a] == target[b]:
                compose[(a, b)] = pair_class[(S.mul(s, t), y)]
    units = tuple(sorted(set(unit_of_point)))
    names = tuple(f"[{S.name(s)},{theta.carrier[x]}]" for s, x in reps)
    gpd = validate_groupoid(names, units, source, target, inverse, compose)
    point_of_unit = {unit_of_point[x]: x for x in range(len(theta.carrier))}
    return GermGroupoid(gpd, theta, pair_class, reps, unit_of_point, point_of_unit)


# --- isotropy ---------------------------------------------------------------------

@dataclass
class IsotropyReport:
    iso_groups: dict
    trivial_points: tuple
    effective: bool
    top_principal: bool


def isotropy_report(G):
    """Per-unit isotropy groups.  On finite discrete groupoids, effectiveness
    (interior of Iso(G) equals the unit space) and topological principality
    (trivial-isotropy units dense) both reduce to all isotropy being trivial."""
    iso = {u: G.isotropy(u) for u in G.units}
    trivial = tuple(u for u in G.units if iso[u] == (u,))
    all_trivial = len(trivial) == len(G.units)
    return IsotropyReport(iso, trivial, all_trivial, all_trivial)


# --- bisections and the ample semigroup ---------------------------------------------

def is_bisection(G, arrow_set):
    srcs = [G.source[a] for a in arrow_set]
    tgts = [G.target[a] for a in arrow_set]
    return len(set(srcs)) == len(srcs) and len(set(tgts)) == len(tgts)


def bisection_product(G, A, B):
    return frozenset(G.compose[(a, b)] for a in A for b in B if G.composable(a, b))


def bisection_inverse(G, A):
    return frozenset(G.inverse[a] for a in A)


def all_bisections(G, max_count=20000):
    """Every subset of arrows on which source and target are injective."""
    by_source = {}
    for a in range(len(G.arrows)):
        by_source.setdefault(G.source[a], []).append(a)
    sources = sorted(by_source)
    out = []

    def rec(i, chosen, used_targets):
        if len(out) > max_count:
            raise TooLarge(f"more than {max_count} bisections")
        if i == len(sources):
            out.append(frozenset(chosen))
            return
        rec(i + 1, chosen, used_targets)
        for a in by_source[sources[i]]:
            t = G.target[a]
            if t not in used_targets:
                chosen.append(a)
                used_targets.add(t)
                rec(i + 1, chosen, used_targets)
                chosen.pop()
                used_targets.discard(t)

    rec(0, [], set())
    out.sort(key=lambda b: (len(b), sorted(b)))
    return out


@dataclass
class AmpleSemigroup:
    groupoid: FiniteGroupoid
    bisections: tuple
    semigroup: invsemi.InverseSemigroup
    index: dict


def ample_semigroup(G, max_size=20000, generators=None):
    """The inverse semigroup of compact-open bisections under the set product.

    With generators given, only the sub-semigroup they generate (closed under
    product and inverse) is built.
    """
    if generators is None:
        bis = all_bisections(G, max_size)
    else:
        seen = {frozenset(g) for g in generators}
        queue = list(seen)
        while queue:
            cur = queue.pop()
            for nxt in [bisection_inverse(G, cur)] + [
                bisection_product(G, cur, other) for other in list(seen)
            ] + [bisection_product(G, other, cur) for other in list(seen)]:
                if nxt not in seen:
                    if len(seen) >= max_size:
                        raise TooLarge(f"generated more than {max_size} bisections")
                    seen.add(nxt)
                    queue.append(nxt)
        bis = sorted(seen, key=lambda b: (len(b), sorted(b)))
    index = {b: i for i, b in enumerate(bis)}

    def fmt(b):
        if not b:
            return "{}"
        return "{" + ",".join(G.arrows[a] for a in sorted(b)) + "}"

    names = tuple(fmt(b) for b in bis)
    tbl = []
    for A in bis:
        row = []
        for B in bis:
            p = bisection_product(G, A, B)
            if p not in index:
                raise GroupoidError("bisections are not closed under product", (A, B))
            row.append(index[p])
        tbl.append(row)
    S = invsemi.validate_inverse_semigroup(names, tbl)
    return AmpleSemigroup(G, tuple(bis), S, index)


def canonical_bisection_action(amp):
    """The ample semigroup acting on unit points: tau_U = target o (source|_U)^-1."""
    from . import paction

    G = amp.groupoid
    upos = {u: i for i, u in enumerate(G.units)}
    carrier = tuple(G.arrows[u] for u in G.units)
    domains = []
    maps = []
    for b in amp.bisections:
        domains.append(tuple(sorted(upos[G.target[a]] for a in b)))
        maps.append({upos[G.source[a]]: upos[G.target[a]] for a in b})
    return paction.validate_partial_action(amp.semigroup, carrier, tuple(domains), tuple(maps))


@dataclass
class FullPseudogroupReport:
    taus: tuple
    injective: bool
    effective: bool
    theorem_holds: bool


def full_pseudogroup(amp):
    """tau_U as partial bijections of the unit space; tau is injective on
    bisections exactly when the groupoid is effective."""
    G = amp.groupoid
    upos = {u: i for i, u in enumerate(G.units)}
    taus = tuple(
        tuple(sorted((upos[G.source[a]], upos[G.target[a]]) for a in b))
        for b in amp.bisections
    )
    injective = len(set(taus)) == len(taus)
    effective = isotropy_report(G).effective
    return FullPseudogroupReport(taus, injective, effective, injective == effective)


def basic_bisection(germ, s, points):
    """[s, U] inside the groupoid of germs: the germs of s at the points of U."""
    theta = germ.action
    dom = set(theta.dom(s))
    return frozenset(germ.pair_class[(s, x)] for x in points if x in dom)


# --- universal property --------------------------------------------------------------

def induced_groupoid_hom(germ, H, sigma, phi_map):
    """The homomorphism S (x) X -> H induced by a partial homomorphism sigma
    into the bisections of H and a compatible unit map phi.

    Psi[s,x] is the unique arrow of sigma(s) whose source is phi(x); existence
    and well-definedness are verified, not assumed.
    """
    theta = germ.action
    S = theta.semigroup
    sigma = {s: frozenset(b) for s, b in sigma.items()}
    for s in range(len(S)):
        if s not in sigma or not is_bisection(H, sigma[s]):
            raise NotPartialHom(f"sigma({S.name(s)}) is not a bisection", s)
    for s in range(len(S)):
        if sigma[S.inv(s)] != bisection_inverse(H, sigma[s]):
            raise NotPartialHom(f"sigma does not respect inverses at {S.name(s)}", s)
        for t in range(len(S)):
            if not bisection_product(H, sigma[s], sigma[t]) <= sigma[S.mul(s, t)]:
                raise NotPartialHom(
                    f"sigma({S.name(s)})sigma({S.name(t)}) not inside sigma({S.name(S.mul(s,t))})",
                    (s, t),
                )
            if s != t and natural_leq(S, s, t) and not sigma[s] <= sigma[t]:
                raise NotPartialHom(f"sigma not order preserving on ({S.name(s)},{S.name(t)})", (s, t))
    src_of = {}
    for s, b in sigma.items():
        src_of[s] = {H.source[a]: a for a in b}
    for s in range(len(S)):
        targets = {H.target[a] for a in sigma[s]}
        for x in theta.domains[s]:
            if phi_map[x] not in targets:
                raise ConditionFails(f"phi(X_{S.name(s)}) not inside r(sigma({S.name(s)}))", ("i", s, x))
    for s in range(len(S)):
        for x in theta.dom(s):
            a = src_of[s].get(phi_map[x])
            if a is None or H.target[a] != phi_map[theta.theta(s, x)]:
                raise ConditionFails(
                    f"tau_sigma({S.name(s)}) and phi disagree at point {theta.carrier[x]}",
                    ("ii", s, x),
                )
    psi = {}
    for arrow, (s, x) in enumerate(germ.reps):
        psi[arrow] = src_of[s][phi_map[x]]
    # well-defined on germ classes
    for (s, x), arrow in germ.pair_class.items():
        if src_of[s][phi_map[x]] != psi[arrow]:
            raise GroupoidError("induced map is not constant on germ classes", (s, x))
    G = germ.groupoid
    for (a, b), c in G.compose.items():
        if not H.composable(psi[a], psi[b]) or H.compose[(psi[a], psi[b])] != psi[c]:
            raise GroupoidError("induced map is not a homomorphism", (a, b))
    return psi


# --- isomorphism search ----------------------------------------------------------------

@dataclass
class GroupoidIso:
    source: FiniteGroupoid
    target: FiniteGroupoid
    arrow_map: tuple

    def inverted(self):
        inv = [None] * len(self.arrow_map)
        for a, b in enumerate(self.arrow_map):
            inv[b] = a
        return GroupoidIso(self.target, self.source, tuple(inv))


def verify_groupoid_iso(iso):
    G, H, amap = iso.source, iso.target, iso.arrow_map
    if sorted(amap) != list(range(len(H.arrows))) or len(amap) != len(G.arrows):
        return False
    for a in range(len(G.arrows)):
        if H.source[amap[a]] != amap[G.source[a]] or H.target[amap[a]] != amap[G.target[a]]:
            return False
        if amap[G.inverse[a]] != H.inverse[amap[a]]:
            return False
    for (a, b), c in G.compose.items():
        if H.compose[(amap[a], amap[b])] != amap[c]:
            return False
    return True


def _unit_profile(G, u):
    blocks_out = sorted(
        sum(1 for a in range(len(G.arrows)) if G.source[a] == u and G.target[a] == v)
        for v in G.units
    )
    blocks_in = sorted(
        sum(1 for a in range(len(G.arrows)) if G.target[a] == u and G.source[a] == v)
        for v in G.units
    )
    return (len(G.isotropy(u)), blocks_out, blocks_in)


def groupoid_iso_search(G, H, timeout_nodes=500000):
    """Backtracking isomorphism search: a unit bijection pruned by isotropy
    and degree profiles, then block-wise arrow bijections.  Deterministic:
    first candidates in index order, so G vs itself yields the identity."""
    if len(G.arrows) != len(H.arrows) or len(G.units) != len(H.units):
        return None
    gu, hu = list(G.units), list(H.units)
    gprof = {u: _unit_profile(G, u) for u in gu}
    hprof = {u: _unit_profile(H, u) for u in hu}
    if sorted(gprof.values()) != sorted(hprof.values()):
        return None

    def block(Gp, u, v, unit_set):
        return [a for a in range(len(Gp.arrows))
                if Gp.source[a] == v and Gp.target[a] == u and a not in unit_set]

    g_units_set, h_units_set = set(gu), set(hu)
    nodes = [0]

    def tick():
        nodes[0] += 1
        if nodes[0] > timeout_nodes:
            raise Timeout(nodes[0])

    def assign_units(i, umap, used):
        tick()
        if i == len(gu):
            return assign_arrows(umap)
        u = gu[i]
        for v in hu:
            if v in used or gprof[u] != hprof[v]:
                continue
            ok = True
            for j in range(i):
                w = gu[j]
                if len(block(G, u, w, g_units_set)) != len(block(H, v, umap[w], h_units_set)):
                    ok = False
                    break
                if len(block(G, w, u, g_units_set)) != len(block(H, umap[w], v, h_units_set)):
                    ok = False
                    break
            if len(block(G, u, u, g_units_set)) != len(block(H, v, v, h_units_set)):
                ok = False
            if not ok:
                continue
            umap[u] = v
            used.add(v)
            found = assign_units(i + 1, umap, used)
            if found is not None:
                return found
            del umap[u]
            used.discard(v)
        return None

    def assign_arrows(umap):
        amap = {u: umap[u] for u in gu}
        block_list = []
        for u in gu:
            for v in gu:
                gb = block(G, u, v, g_units_set)
                hb = block(H, umap[u], umap[v], h_units_set)
                if len(gb) != len(hb):
                    return None
                if gb:
                    block_list.append((sorted(gb), sorted(hb)))

        def fill(k):
            tick()
            if k == len(block_list):
                full = tuple(amap[a] for a in range(len(G.arrows)))
                iso = GroupoidIso(G, H, full)
                return iso if verify_groupoid_iso(iso) else None
            gb, hb = block_list[k]
            for perm in permutations(hb):
                tick()
                for a, b in zip(gb, perm):
                    amap[a] = b
                if _partial_consistent(amap, gb):
                    found = fill(k + 1)
                    if found is not None:
                        return found
                for a in gb:
                    del amap[a]
            return None

        def _partial_consistent(amap, recent):
            for a in recent:
                for b in list(amap):
                    for x, y in ((a, b), (b, a)):
                        if G.composable(x, y):
                            c = G.compose[(x, y)]
                            if c in amap and H.compose[(amap[x], amap[y])] != amap[c]:
                                return False
            return True

        return fill(0)

    return assign_units(0, {}, set())
