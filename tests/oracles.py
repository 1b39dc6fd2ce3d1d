"""Plain reference implementations that the tests compare germkit against.

Nothing in `src/` calls these: they are the slow, obviously-correct forms of
checks that germkit now makes another way, the crossed-product element
arithmetic that only tests use, and small constructions (inverse partial
bijections, the identity transducer, the unit of a Steinberg algebra) that
tests build their cases from.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from types import SimpleNamespace

from germkit import ResourceLimit, algebra, germs, graph, invsemi, paction
from germkit.invsemi import natural_leq
from germkit.rings import DecomposableRing, NotAField, Ring, RingError


# --- partial-action laws: every pair (s, t) -----------------------------------

def first_law_failure(S, graphs):
    """(exception class, message, witness) of the first failure of the
    partial-action laws, or None when both hold; tries all |S|^2 pairs.

    First the least (s, t, x), s then t in index order and x in the order of
    graphs[t], where theta_s theta_t is not a restriction of theta_st; then
    the least (s, t, x) with s <= t, x in the order of graphs[s], where
    theta_s is not a restriction of theta_t.
    """
    n = len(S)
    for s in range(n):
        for t in range(n):
            st = S.mul(s, t)
            for x, y in graphs[t].items():
                if y in graphs[s]:
                    if x not in graphs[st] or graphs[st][x] != graphs[s][y]:
                        return (
                            paction.CompositionNotRestriction,
                            f"theta_{S.name(s)} o theta_{S.name(t)} is not a restriction of theta_{S.name(st)}",
                            (s, t, x),
                        )
    for s in range(n):
        for t in range(n):
            if s != t and natural_leq(S, s, t):
                for x, y in graphs[s].items():
                    if x not in graphs[t] or graphs[t][x] != y:
                        return (
                            paction.OrderNotPreserved,
                            f"{S.name(s)} <= {S.name(t)} but theta_{S.name(s)} is not a restriction",
                            (s, t, x),
                        )
    return None


def inverse_closed_candidates(S, npts):
    """Every maps tuple on npts points with theta_{s*} = theta_s^-1: an
    involution for each s = s*, a partial bijection for one of each pair
    {s, s*}, its inverse for the other."""
    pbs = [f.as_dict() for f in invsemi.symmetric_inverse_semigroup(npts)[1]]
    involutions = [f for f in pbs if all(f.get(y) == x for x, y in f.items())]
    free = [s for s in range(len(S)) if S.inv(s) >= s]
    for combo in product(*(involutions if S.inv(s) == s else pbs for s in free)):
        maps = [None] * len(S)
        for s, f in zip(free, combo):
            maps[s] = f
            maps[S.inv(s)] = {y: x for x, y in f.items()}
        yield tuple(maps)


# --- germs: the paper's relation ----------------------------------------------

def germ_equivalent(theta, s, t, x):
    """(s,x) ~ (t,x): some idempotent e has x in X_e and se = te."""
    S = theta.semigroup
    return any(
        x in theta.maps[e] and S.mul(s, e) == S.mul(t, e)
        for e in S.idempotents
    )


# --- dynamics: Lambda by every pair acting at a point --------------------------

def lambda_by_all_pairs(theta):
    """Lambda from its pairwise reformulation: x is in it iff any s, t acting
    at x with theta_s(x) = theta_t(x) have some u <= s, t acting at x; tries
    every pair of elements acting at each point."""
    S = theta.semigroup
    lam = []
    for x in range(len(theta.carrier)):
        acting = theta.acting_elements(x)
        if all(
            any(x in theta.maps[u] for u in invsemi.members(S.below[s] & S.below[t]))
            for s in acting for t in acting
            if theta.theta(s, x) == theta.theta(t, x)
        ):
            lam.append(x)
    return tuple(lam)


def restrict_action(theta, keep):
    """The restriction of theta to the carrier points `keep`: theta_s keeps
    the points of `keep` it sends into `keep`, and the carrier is
    re-indexed in the order of `keep`.  Any restriction of a partial action
    is one (each theta_s restricts to Y x Y, and a point of Y fixed by
    theta_e stays in Y), usually a true partial action."""
    keep = sorted(keep)
    new = {x: i for i, x in enumerate(keep)}
    maps = [{new[x]: new[y] for x, y in graph.items() if x in new and y in new}
            for graph in theta.maps]
    return paction.validate_partial_action(
        theta.semigroup, [theta.carrier[x] for x in keep], [sorted(g.values()) for g in maps], maps)


def factors_through_group_validated(theta):
    """paction.action_factors_through_group as it was: the class-wise joins
    are validated as a partial action of G(S), and any ActionError's
    witness is returned."""
    gi = invsemi.max_group_image(theta.semigroup)
    try:
        domains, maps = paction._join_by_class(theta, gi.class_of, len(gi.group))
        paction.validate_partial_action(gi.group, theta.carrier, domains, maps)
    except paction.ActionError as err:
        return False, err.witness
    return True, None


# --- the Munn representation from products -----------------------------------

def munn_by_products(S):
    """invsemi.munn_representation as it was: theta_s(e) = s e s* by two
    products for each e <= s*s, with s*s and ss* multiplied out."""
    E = S.idempotents
    pos = {e: i for i, e in enumerate(E)}
    carrier = tuple(S.elements[e] for e in E)
    down = {f: tuple(invsemi.members(S.below[f])) for f in E}
    dom = {f: tuple(sorted(pos[e] for e in down[f])) for f in E}
    domains = []
    maps = []
    for s in range(len(S)):
        s_star = S.inv(s)
        domains.append(dom[S.mul(s, s_star)])
        maps.append({pos[e]: pos[S.prod(s, e, s_star)] for e in down[S.mul(s_star, s)]})
    return paction.PartialAction(S, carrier, tuple(domains), tuple(maps))


def seeded_subsemigroup(rng, n=4):
    """The inverse subsemigroup of I_n generated by 1-3 seeded partial
    bijections and their inverses, tabulated and then validated."""
    letters = []
    for _ in range(rng.randint(1, 3)):
        dom = rng.sample(range(n), rng.randint(0, n))
        f = invsemi.PartialBijection(tuple(sorted(zip(dom, rng.sample(range(n), len(dom))))))
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


# --- graphs: S_E from all of its products, validated ---------------------------

def seeded_dag(rng, nv, ne):
    """A DAG on nv vertices with ne edges, each from a lower to a higher
    vertex, parallel edges allowed; random.Random(6) with 16 and 20 gives
    |S_E| = 1798."""
    edges = []
    for i in range(ne):
        a = rng.randrange(nv - 1)
        edges.append((f"e{i}", f"v{a}", f"v{rng.randint(a + 1, nv - 1)}"))
    return graph.make_graph([f"v{i}" for i in range(nv)], edges)


def graph_semigroup_validated(g, max_elements=2000):
    """graph.graph_semigroup as it was: every product of two path pairs by
    `graph.graph_semigroup_mul`, and the n x n table validated."""
    paths = graph.all_finite_paths(g)
    ends = Counter(graph.path_end(g, p) for p in paths)
    size = 1 + sum(c * c for c in ends.values())
    if size > max_elements:
        raise ResourceLimit(f"|S_E| = {size} exceeds {max_elements}")
    elems = [graph.ZERO] + [(mu, nu) for mu in paths for nu in paths
                            if graph.path_end(g, mu) == graph.path_end(g, nu)]

    def fmt(el):
        return "0" if el == graph.ZERO else f"({graph.fmt_path(g, el[0])},{graph.fmt_path(g, el[1])})"

    def key(el):
        if el == graph.ZERO:
            return (-1, "", "")
        return (len(el[0].edges) + len(el[1].edges), graph.fmt_path(g, el[0]), graph.fmt_path(g, el[1]))

    elems.sort(key=key)
    index = {el: i for i, el in enumerate(elems)}
    tbl = [[index[graph.graph_semigroup_mul(g, a, b)] for b in elems] for a in elems]
    return invsemi.validate_inverse_semigroup(tuple(fmt(el) for el in elems), tbl), tuple(elems)


def boundary_action_by_prefixes(g):
    """graph.canonical_graph_action on an acyclic graph as it was built by
    hand: an index from each path nu to the boundary paths nu x, and
    theta_(mu,nu)(q) as the first path of (mu,nu)(q,q) by
    `graph.graph_semigroup_mul`, one product per pair of L."""
    S, payload = graph.graph_semigroup(g)
    boundary = [el[0] for el in payload
                if el != graph.ZERO and el[0] == el[1] and g.is_sink(graph.path_end(g, el[0]))]
    pidx = {p: i for i, p in enumerate(boundary)}
    extending = {}  # nu -> the indices of the boundary paths nu x
    for i, q in enumerate(boundary):
        for k in range(len(q.edges) + 1):
            extending.setdefault(graph.Path(q.start, q.edges[:k]), []).append(i)
    domains = []
    maps = []
    for el in payload:
        ext = () if el == graph.ZERO else extending.get(el[1], ())
        graph_map = {i: pidx[graph.graph_semigroup_mul(g, el, (boundary[i], boundary[i]))[0]]
                     for i in ext}
        maps.append(graph_map)
        domains.append(tuple(sorted(graph_map.values())))
    carrier = tuple(graph.fmt_path(g, p) for p in boundary)
    return paction.PartialAction(S, carrier, tuple(domains), tuple(maps)), payload, boundary


# --- graphs: the boundary groupoid by a search over shifts --------------------

def boundary_triples_by_shift_search(g):
    """The triples (x, m - n, y) of the boundary groupoid of an acyclic graph,
    x-major over `graph.boundary_enumerate`, with the least (m, n) such that
    sigma^m x = sigma^n y found by trying every pair of shifts."""
    boundary = graph.boundary_enumerate(g)
    triples = []
    for i, x in enumerate(boundary):
        for j, y in enumerate(boundary):
            match = None
            for m in range(len(x.edges) + 1):
                for n in range(len(y.edges) + 1):
                    if graph.path_suffix(g, x, m) == graph.path_suffix(g, y, n):
                        match = m - n
                        break
                if match is not None:
                    break
            if match is not None:
                triples.append((i, match, j))
    return triples


# --- graphs: Condition (L) over every simple cycle -----------------------------

def simple_cycles(g):
    """All simple cycles as paths, anchored at their minimal vertex."""
    out = []
    nv = len(g.vertices)
    for v0 in range(nv):
        stack = [(v0, ())]
        while stack:
            v, edges = stack.pop()
            for e in g.out_edges(v):
                w = g.edst[e]
                if w == v0:
                    out.append(graph.Path(v0, edges + (e,)))
                elif w > v0:
                    seen = {v0} | {g.edst[x] for x in edges}
                    if w not in seen:
                        stack.append((w, edges + (e,)))
    out.sort(key=lambda p: (len(p.edges), graph.fmt_path(g, p)))
    return out


def condition_L_by_cycles(g):
    """(flag, witness loop) of `graph.is_condition_L`, from the first simple
    cycle in `simple_cycles` order none of whose vertices has a second edge."""
    for cyc in simple_cycles(g):
        vertices_on = [cyc.start]
        for e in cyc.edges[:-1]:
            vertices_on.append(g.edst[e])
        has_exit = any(
            g.esrc[f] == vertices_on[i] and f != cyc.edges[i]
            for i in range(len(cyc.edges))
            for f in g.out_edges(vertices_on[i])
        )
        if not has_exit:
            return False, cyc
    return True, None


# --- orbit equivalence: the germ identities on every pair acting at a point ----

def germ_identity_failure(theta, gamma, oe):
    """(message, witness) of the first failure of the germ identities of an
    orbit equivalence whose pointwise identities hold, or None: (a) equal
    germs of theta map to equal germs of gamma, (b) the cocycle identity
    and (c) b(a(s, x), phi(x)) has the germ of s, each tried on every pair
    of elements acting at a point, with both germ groupoids built."""
    gx = germs.groupoid_of_germs(theta)
    gy = germs.groupoid_of_germs(gamma)
    S, T, phi = theta.semigroup, gamma.semigroup, oe.phi
    X = range(len(theta.carrier))
    for x in X:
        acting = theta.acting_elements(x)
        for s1 in acting:
            for s2 in acting:
                if gx.germ(s1, x) == gx.germ(s2, x):
                    if gy.germ(oe.a[(s1, x)], phi[x]) != gy.germ(oe.a[(s2, x)], phi[x]):
                        return "equal germs map to different germs", ("a", s1, s2, x)
    for x in X:
        for s2 in theta.acting_elements(x):
            mid = theta.theta(s2, x)
            for s1 in theta.acting_elements(mid):
                lhs = gy.germ(oe.a[(S.mul(s1, s2), x)], phi[x])
                rhs = gy.germ(T.mul(oe.a[(s1, mid)], oe.a[(s2, x)]), phi[x])
                if lhs != rhs:
                    return "cocycle identity fails", ("b", s1, s2, x)
    for s, x in theta.pairs():
        back = oe.b[(oe.a[(s, x)], phi[x])]
        if gx.germ(back, x) != gx.germ(s, x):
            return "b(a(s,x), phi(x)) has a different germ than s", ("c", s, x)
    return None


# --- associativity: every triple, in index order ------------------------------

def first_non_associative(elements, table):
    """(message, witness) of the least triple (i, j, k) in index order with
    (ij)k != i(jk), or None when the table is associative."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            ij = table[i][j]
            for k in range(n):
                if table[ij][k] != table[i][table[j][k]]:
                    msg = (
                        f"({elements[i]}*{elements[j]})*{elements[k]} != "
                        f"{elements[i]}*({elements[j]}*{elements[k]})"
                    )
                    return msg, (i, j, k)
    return None


def groupoid_associativity_failure(source, target, compose):
    """The least composable triple (a, b, c) in index order with
    (ab)c != a(bc), or None; walks every composable triple.  compose must be
    rows, compose[a] = {b: ab}, defined on exactly the composable pairs."""
    n = len(source)
    by_target = {}
    for b in range(n):
        by_target.setdefault(target[b], []).append(b)
    for a in range(n):
        for b in by_target[source[a]]:
            ab = compose[a][b]
            for c in by_target[source[b]]:
                if compose[ab][c] != compose[a][compose[b][c]]:
                    return a, b, c
    return None


def compose_by_pairs(source, target, mul):
    """{(a, b): mul(a, b)} over the composable pairs, source[a] == target[b],
    found by trying all n^2 pairs in index order."""
    n = len(source)
    return {(a, b): mul(a, b) for a in range(n) for b in range(n) if source[a] == target[b]}


def isotropy_by_scan(G, u):
    """The isotropy group at the unit u, in index order; scans every arrow."""
    return tuple(a for a in range(len(G.arrows)) if G.source[a] == u and G.target[a] == u)


def bisection_product_by_pairs(G, A, B):
    """germs.bisection_product as it was: every pair (a, b) of A x B is
    tried, and the composable ones are composed."""
    return frozenset(G.compose[a][b] for a in A for b in B if G.composable(a, b))


# --- bisections: every one listed ---------------------------------------------------

def taus_injective_by_enumeration(G):
    """Whether tau, U -> {(s(a), t(a)) : a in U}, is injective on the
    bisections of G, deciding it over `germs.all_bisections` (which raises
    ResourceLimit past 20000 bisections)."""
    upos = {u: i for i, u in enumerate(G.units)}
    taus = [tuple(sorted((upos[G.source[a]], upos[G.target[a]]) for a in b))
            for b in germs.all_bisections(G)]
    return len(set(taus)) == len(taus)


def ample_semigroup_validated(G, max_size=20000, generators=None):
    """germs.ample_semigroup as it was: the generated bisections are closed
    under inverses and products in both orders against every one seen, then
    all |bis|^2 products are tabulated again and the table is validated."""
    if generators is None:
        bis = germs.all_bisections(G, max_size)
    else:
        seen = {frozenset(g) for g in generators}
        queue = list(seen)
        while queue:
            cur = queue.pop()
            for nxt in [germs.bisection_inverse(G, cur)] + [
                germs.bisection_product(G, cur, other) for other in list(seen)
            ] + [germs.bisection_product(G, other, cur) for other in list(seen)]:
                if nxt not in seen:
                    if len(seen) >= max_size:
                        raise germs.ResourceLimit(f"generated more than {max_size} bisections")
                    seen.add(nxt)
                    queue.append(nxt)
        bis = sorted(seen, key=lambda b: (len(b), sorted(b)))
    index = {b: i for i, b in enumerate(bis)}
    names = ["{" + ",".join(G.arrows[a] for a in sorted(b)) + "}" for b in bis]
    tbl = [[index[germs.bisection_product(G, A, B)] for B in bis] for A in bis]
    return germs.AmpleSemigroup(G, tuple(bis), invsemi.validate_inverse_semigroup(names, tbl), index)


def ample_semigroup_by_all_letters(G, max_size=20000, generators=None):
    """germs.ample_semigroup as it was: every reached bisection is multiplied
    by every generator and every inverse, `invsemi.tabulate` fills the table
    from those products, and the generators are `invsemi.table_closure`'s."""
    gens = [frozenset(g) for g in (germs.all_bisections(G, max_size) if generators is None else generators)]
    letters = list(dict.fromkeys(gens + [germs.bisection_inverse(G, g) for g in gens]))
    found = list(letters)
    pos = {U: k for k, U in enumerate(found)}
    right = []  # right[k][j] = pos[found[k] letters[j]]
    for U in found:  # found grows while it is scanned
        row = []
        for g in letters:
            UV = germs.bisection_product(G, U, g)
            if UV not in pos:
                if len(found) >= max_size:
                    raise ResourceLimit(f"generated more than {max_size} bisections")
                pos[UV] = len(found)
                found.append(UV)
            row.append(pos[UV])
        right.append(row)
    bis = sorted(found, key=lambda b: (len(b), sorted(b)))
    letter = {g: j for j, g in enumerate(letters)}

    def mul(U, g):  # tabulate reads the products made above
        return found[right[pos[U]][letter[g]]]
    index = {b: i for i, b in enumerate(bis)}
    tbl = invsemi.tabulate(bis, mul, letters)
    S = invsemi._inverse_semigroup(
        tuple("{" + ",".join(G.arrows[a] for a in sorted(b)) + "}" for b in bis), tbl,
        tuple(index[germs.bisection_inverse(G, b)] for b in bis),
        tuple(invsemi.table_closure(tbl)[0]))
    return germs.AmpleSemigroup(G, tuple(bis), S, index)


def bisections_reached(G, letters):
    """The bisections reached from letters by right products with them,
    each product formed by trying every pair of arrows: the semigroup the
    letters generate."""
    seen = set(letters)
    queue = list(seen)
    for U in queue:  # queue grows while it is scanned
        for a in letters:
            Ua = bisection_product_by_pairs(G, U, a)
            if Ua not in seen:
                seen.add(Ua)
                queue.append(Ua)
    return seen


def canonical_bisection_action_validated(amp):
    """germs.canonical_bisection_action as it was: tau_U read off U, then
    checked by `paction.validate_partial_action`."""
    G = amp.groupoid
    upos = {u: i for i, u in enumerate(G.units)}
    carrier = tuple(G.arrows[u] for u in G.units)
    domains = tuple(tuple(sorted(upos[G.target[a]] for a in b)) for b in amp.bisections)
    maps = tuple({upos[G.source[a]]: upos[G.target[a]] for a in b} for b in amp.bisections)
    return paction.validate_partial_action(amp.semigroup, carrier, domains, maps)


def generalized_inverses(elements, table):
    """The generalized inverse of every element, found by trying every j for
    every i; or (message, witness) of the least i without exactly one."""
    n = len(table)
    inverse = []
    for i in range(n):
        cands = [j for j in range(n) if table[table[i][j]][i] == i and table[table[j][i]][j] == j]
        if not cands:
            return f"{elements[i]} has no generalized inverse", i
        if len(cands) > 1:
            return (f"{elements[i]} has inverses {elements[cands[0]]} and {elements[cands[1]]}",
                    (i, cands[0], cands[1]))
        inverse.append(cands[0])
    return tuple(inverse)


# --- Steinberg/crossed-product multiplicativity: every basis pair ------------

def phi_not_multiplicative(theta, ring):
    """The least basis pair (i, j) of L, in index order, on which
    Phi: 1_x delta_s -> 1_[s, theta_{s*}(x)] is not multiplicative, or None;
    tries all |L|^2 pairs, the zero products included."""
    gg = germs.groupoid_of_germs(theta)
    G = gg.groupoid
    S = theta.semigroup
    cp = algebra.crossed_product_build(paction.dual_action(theta, ring))
    arrow_of = [gg.germ(s, theta.maps[S.inv(s)][x]) for s, x in cp.basis]
    for i in range(len(cp.basis)):
        for j in range(len(cp.basis)):
            k = cp.mono_mul(i, j)
            a, b = arrow_of[i], arrow_of[j]
            ab = G.compose[a].get(b)
            if (arrow_of[k] if k is not None else None) != ab:
                return i, j
    return None


# --- crossed products: L's associativity on every triple ----------------------

def unvalidated_l(S, maps):
    """L's basis (s, x), x in X_s, and the theta graphs of a maps tuple that
    need not be a partial action, in the fields l_associativity_failure reads."""
    basis = tuple((s, x) for s in range(len(S)) for x in sorted(maps[s].values()))
    return SimpleNamespace(
        action=SimpleNamespace(semigroup=S), basis=basis,
        basis_index={sx: i for i, sx in enumerate(basis)}, theta_maps=tuple(maps),
    )


def l_associativity_failure(cp):
    """The least basis triple (i, j, k) of L, in index order, with
    (ij)k != i(jk), or None; tries all |L|^3 triples.  A nonzero product
    1_x delta_st whose (st, x) is not in L's basis counts as a failure."""
    S = cp.action.semigroup
    outside = object()

    def mul(i, j):
        """The product's basis index, None when it is zero."""
        if outside in (i, j):
            return outside
        if None in (i, j):
            return None
        (s, x), (t, y) = cp.basis[i], cp.basis[j]
        if cp.theta_maps[S.inv(s)].get(x) != y:
            return None
        return cp.basis_index.get((S.mul(s, t), x), outside)

    n = len(cp.basis)
    for i, j, k in product(range(n), repeat=3):
        left, right = mul(mul(i, j), k), mul(i, mul(j, k))
        if outside in (left, right) or left != right:
            return i, j, k
    return None


# --- crossed-product elements: sparse canonical forms modulo N -----------------

def cp_reduce(cp, terms):
    """Canonical form of the sum of c * basis[i] over the (i, c) in terms:
    each coefficient summed onto its class representative, zeros dropped."""
    ring = cp.ring
    out = {}
    for i, c in terms:
        r = cp.rep[i]
        out[r] = ring.add(out.get(r, ring.zero), c)
    return {r: c for r, c in out.items() if c != ring.zero}


class CrossedProductElement:
    """Sparse canonical form {class representative: nonzero coefficient}."""

    __slots__ = ("cp", "coeffs")

    def __init__(self, cp, coeffs):
        self.cp = cp
        self.coeffs = coeffs

    @property
    def vec(self):
        """Dense coordinates over the basis of L, zero off the representatives."""
        v = [self.cp.ring.zero] * len(self.cp.basis)
        for i, c in self.coeffs.items():
            v[i] = c
        return tuple(v)

    def _check(self, other):
        if not isinstance(other, CrossedProductElement) or self.cp is not other.cp:
            raise algebra.CrossedProductError("elements from different structures")

    def __add__(self, other):
        self._check(other)
        return CrossedProductElement(
            self.cp, cp_reduce(self.cp, [*self.coeffs.items(), *other.coeffs.items()])
        )

    def __sub__(self, other):
        self._check(other)
        return self + other.scale(self.cp.ring.neg(self.cp.ring.one))

    def scale(self, c):
        ring = self.cp.ring
        return CrossedProductElement(
            self.cp, cp_reduce(self.cp, ((i, ring.mul(c, a)) for i, a in self.coeffs.items()))
        )

    def __mul__(self, other):
        return cp_multiply(self, other)

    def __eq__(self, other):
        return isinstance(other, CrossedProductElement) and self.cp is other.cp and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs


def cp_basis_element(cp, i):
    return CrossedProductElement(cp, {cp.rep[i]: cp.ring.one})


def cp_delta(cp, s, x):
    """The class of 1_x delta_s."""
    return cp_basis_element(cp, cp.basis_index[(s, x)])


def cp_zero(cp):
    return CrossedProductElement(cp, {})


def cp_multiply(x, y):
    """Multiply in L monomial-by-monomial over the two supports, then reduce modulo N."""
    x._check(y)
    cp = x.cp
    ring = cp.ring
    terms = []
    for i, ci in x.coeffs.items():
        for j, cj in y.coeffs.items():
            k = cp.mono_mul(i, j)
            if k is not None:
                terms.append((k, ring.mul(ci, cj)))
    return CrossedProductElement(cp, cp_reduce(cp, terms))


def cp_equal(x, y):
    x._check(y)
    return x.coeffs == y.coeffs


# --- groupoid isomorphism: every arrow bijection ------------------------------

def groupoids_isomorphic(G, H, max_arrows=7):
    """Whether some bijection of the arrows of G onto those of H preserves
    source, target, inverse and composition; tries every bijection."""
    n = len(G.arrows)
    if n > max_arrows:
        raise ValueError(f"{n} arrows is too many to try every bijection")
    if len(H.arrows) != n:
        return False
    for amap in permutations(range(n)):
        if all(
            (H.source[b], H.target[b], H.inverse[b])
            == (amap[G.source[a]], amap[G.target[a]], amap[G.inverse[a]])
            for a, b in enumerate(amap)
        ) and all(H.compose[amap[a]][amap[b]] == amap[c]
                  for a, row in enumerate(G.compose) for b, c in row.items()):
            return True
    return False


def groupoid_iso_by_pairs(iso):
    """`germs.verify_groupoid_iso` with products checked over every
    composable pair instead of over the generators of the source."""
    G, H, amap = iso.source, iso.target, iso.arrow_map
    if sorted(amap) != list(range(len(H.arrows))) or len(amap) != len(G.arrows):
        return False
    for a in range(len(G.arrows)):
        if H.source[amap[a]] != amap[G.source[a]] or H.target[amap[a]] != amap[G.target[a]]:
            return False
        if amap[G.inverse[a]] != H.inverse[amap[a]]:
            return False
    for a, row in enumerate(G.compose):
        row_h = H.compose[amap[a]]
        for b, c in row.items():
            if row_h[amap[b]] != amap[c]:
                return False
    return True


# --- generating sets: the three walks that invsemi.closure replaced ------------

def generating_set(tbl):
    """Indices that generate the magma tbl by left-normed products.

    Elements are scanned by descending |sS| (distinct entries in row s), ties
    by index, with a left identity last.  One joins the set when the closure of the set so far under
    right multiplication by it does not yet reach that element, so the
    closure ends as everything; O(n^2) for the scan, O(n * |A|) for the
    closure.
    """
    reached = [False] * len(tbl)
    closure = []
    gens = []
    identity_row = tuple(range(len(tbl)))
    order = sorted(range(len(tbl)), key=lambda s: (tuple(tbl[s]) == identity_row, -len(set(tbl[s])), s))
    for s in order:
        if reached[s]:
            continue
        gens.append(s)
        reached[s] = True
        fresh = [s]
        for c in closure:
            p = tbl[c][s]
            if not reached[p]:
                reached[p] = True
                fresh.append(p)
        for c in fresh:  # fresh grows while it is scanned
            row = tbl[c]
            for a in gens:
                p = row[a]
                if not reached[p]:
                    reached[p] = True
                    fresh.append(p)
        closure += fresh
    return gens


def closure_walk_failure(rows, gens, steps):
    """The first step (c, a, p) of the walk that is wrong, or None: every
    element not in gens must be reached by exactly one step, with p = ca,
    a in gens and c in gens or reached by an earlier step; a missing element
    is reported as (None, None, p)."""
    gens = set(gens)
    reached = set(gens)
    for c, a, p in steps:
        if c not in reached or a not in gens or rows[c][a] != p or p in reached:
            return c, a, p
        reached.add(p)
    missing = sorted(set(range(len(rows))) - reached)
    return (None, None, missing[0]) if missing else None

def right_steps(tbl, gens):
    """(x, a, y) with y = x a, the first step reaching each y not in gens,
    breadth-first from gens; raises SemigroupError if gens do not generate."""
    reached = [False] * len(tbl)
    for a in gens:
        reached[a] = True
    steps = []
    frontier = list(gens)
    for x in frontier:  # frontier grows while it is scanned
        if len(frontier) == len(tbl):
            break
        row = tbl[x]
        for a in gens:
            y = row[a]
            if not reached[y]:
                reached[y] = True
                steps.append((x, a, y))
                frontier.append(y)
    if len(frontier) < len(tbl):
        raise invsemi.SemigroupError("gens do not generate the table", reached.index(False))
    return steps


def partial_generating_set(compose, source, target):
    """Arrows that generate the groupoid with rows compose by left-normed
    products, as `generating_set` finds them for a table.

    Arrows are scanned by descending row length, ties by index.  One joins
    the set when the closure of the set so far under right products does
    not yet reach it, so every arrow is a left-normed product of the set.
    Each composite is read at most twice, from the row of its left factor
    and, for a generator s, from its column, the arrows with source t(s);
    so the cost is the size of compose, whatever |A| is.
    """
    n = len(compose)
    by_source = germs._arrows_by(source)
    reached = [False] * n
    is_gen = [False] * n
    gens = []
    for s in sorted(range(n), key=lambda s: -len(compose[s])):  # stable: ties by index
        if reached[s]:
            continue
        gens.append(s)
        is_gen[s] = reached[s] = True
        fresh = [s]
        for c in by_source[target[s]]:  # c s for every c reached so far
            if reached[c]:
                p = compose[c][s]
                if not reached[p]:
                    reached[p] = True
                    fresh.append(p)
        for c in fresh:  # fresh grows while it is scanned
            for a, p in compose[c].items():
                if is_gen[a] and not reached[p]:
                    reached[p] = True
                    fresh.append(p)
    return gens

# --- Q with every value a Fraction -----------------------------------------------

class FractionQ(Ring):
    """rings.RING_Q as it was before integral values became ints: every
    value, 0 and 1 included, is a Fraction.  It equals RING_Q as a Ring, so
    anything that takes a ring runs on it unchanged."""

    __slots__ = ()
    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self):
        super().__init__("Q")

    def normalize(self, v):
        return v if isinstance(v, Fraction) else Fraction(v)

    def inv(self, a):
        a = self.normalize(a)
        if a == self.zero:
            raise RingError("division by zero")
        return Fraction(1) / a

    def parse(self, text):
        return Fraction(str(text))

    def fmt(self, v):
        f = Fraction(v)
        return str(f.numerator) if f.denominator == 1 else str(f)


# --- dense row reduction over a field ------------------------------------------

def rref(ring, rows):
    """Reduced row echelon form with leftmost-pivot order.

    Returns (reduced nonzero rows, pivot column list).  Deterministic: rows
    are processed in the given order, pivots chosen leftmost-first.
    """
    if not ring.is_field():
        raise NotAField(f"row reduction needs a field, got {ring!r}")
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    out = []
    rix = 0
    for col in range(ncols):
        piv = None
        for i in range(rix, len(work)):
            if work[i][col] != ring.zero:
                piv = i
                break
        if piv is None:
            continue
        work[rix], work[piv] = work[piv], work[rix]
        inv = ring.inv(work[rix][col])
        work[rix] = [ring.mul(inv, a) for a in work[rix]]
        for i in range(len(work)):
            if i != rix and work[i][col] != ring.zero:
                c = work[i][col]
                work[i] = [ring.sub(a, ring.mul(c, b)) for a, b in zip(work[i], work[rix])]
        pivots.append(col)
        out.append(work[rix])
        rix += 1
        if rix == len(work):
            break
    return out, pivots


def reduce_vector(ring, vec, rows, pivots):
    """Canonical residue of vec modulo the row space given by rref output."""
    v = list(vec)
    for row, col in zip(rows, pivots):
        c = v[col]
        if c != ring.zero:
            v = [ring.sub(a, ring.mul(c, b)) for a, b in zip(v, row)]
    return v


# --- span solving with dense coefficients ---------------------------------------

def dense_span_solver(ring, gens):
    """rings.span_solver as it was before its coefficients went sparse: the
    same elimination, a quotient a * inv(b) at every reduction step over a
    field, and a dense coefficient list of length len(gens)."""
    if ring.kind == "Zmod" and not ring.is_field():
        raise NotAField(f"span solving is not supported over {ring!r}")

    def quotient(a, b):
        return a // b if ring.kind == "Z" else ring.mul(a, ring.inv(b))

    def sparse(vec):
        out = {}
        for c, a in vec.items():
            if not isinstance(c, int) or c < 0:
                raise RingError(f"column {c!r} is not a nonnegative integer")
            if a := ring.normalize(a):
                out[c] = a
        return out

    def subtract(u, q, v):
        for c, b in v.items():
            a = ring.sub(u.get(c, 0), ring.mul(q, b))
            if a:
                u[c] = a
            else:
                u.pop(c, None)

    rows = [sparse(g) for g in gens]
    n = 1 + max((c for row in rows for c in row), default=-1)
    pivots = {}
    for j, row in enumerate(rows):
        row[n + j] = ring.one
        while (col := min(row)) < n:
            piv = pivots.setdefault(col, row)
            if piv is row:
                break
            subtract(row, quotient(row[col], piv[col]), piv)
            if col in row:
                pivots[col], row = row, piv

    def solve(target):
        t = sparse(target)
        if t and max(t) >= n:
            return None
        while t and (col := min(t)) < n:
            piv = pivots.get(col)
            if piv is None:
                return None
            subtract(t, quotient(t[col], piv[col]), piv)
            if col in t:
                return None
        return [ring.neg(t[n + j]) if n + j in t else ring.zero for j in range(len(rows))]

    return solve


# --- dual recovery: every entry and every point solved again --------------------

def recover_by_two_solves(alg):
    """paction.recover_action_from_dual as a plain loop: a solver for every
    D_s, U(D_s) as the points where some generator's entry is nonzero in
    the ring, v * 1_x solved for every entry of every generator and 1_U for
    every D_s, then each 1_y solved again for theta, with dense
    coefficients, and alpha_s compared with the dual of theta_s at every
    generator of D_{s*}."""
    ring = alg.ring
    if not ring.is_indecomposable():
        raise DecomposableRing(f"{ring!r} has nontrivial idempotents")
    S = alg.semigroup
    supports = []
    solvers = []
    for s in range(len(S)):
        gens = alg.ideal_gens[s]
        solve = dense_span_solver(ring, gens)
        supp = tuple(sorted({x for g in gens for x, v in g.items() if ring.normalize(v) != ring.zero}))
        for g in gens:
            for x, v in g.items():
                if solve({x: v}) is None:
                    raise paction.NotAnIdeal(
                        f"D_{S.name(s)} is not closed under multiplication by functions", s
                    )
        if supp and solve(paction.indicator(ring, supp)) is None:
            raise paction.NoLocalUnits(f"D_{S.name(s)} has no local units", s)
        supports.append(supp)
        solvers.append(solve)
    maps = []
    for s in range(len(S)):
        s_star = S.inv(s)
        gens, images = alg.ideal_gens[s_star], alg.alpha_images[s]
        if len(images) != len(gens):
            raise paction.RecoveryFailed(
                f"alpha_{S.name(s)} has {len(images)} images for the {len(gens)} "
                f"generators of D_{S.name(s_star)}", (s, min(len(images), len(gens))))
        theta = {}
        for y in supports[s_star]:
            coeffs = solvers[s_star]({y: ring.one})
            if coeffs is None:
                raise paction.RecoveryFailed(
                    f"1_{{{alg.carrier[y]}}} not in D_{S.name(s_star)}", (s, y))
            img = {}
            for c, vec in zip(coeffs, alg.alpha_images[s]):
                if c != ring.zero:
                    for x, b in vec.items():
                        img[x] = ring.add(img.get(x, ring.zero), ring.mul(c, b))
            pts = [x for x, v in img.items() if v != ring.zero]
            if len(pts) != 1 or img[pts[0]] != ring.one:
                raise paction.RecoveryFailed(
                    f"alpha_{S.name(s)} does not map a point indicator to a point indicator",
                    (s, y),
                )
            theta[y] = pts[0]
        for k in range(len(gens)):
            want = {}
            for y, v in gens[k].items():
                if ring.normalize(v) != ring.zero:
                    want[theta[y]] = ring.normalize(v)
            got = {x: ring.normalize(b) for x, b in images[k].items() if ring.normalize(b) != ring.zero}
            if got != want:
                raise paction.RecoveryFailed(
                    f"alpha_{S.name(s)} is not the dual of theta_{S.name(s)} on generator {k} "
                    f"of D_{S.name(s_star)}", (s, k))
        maps.append(theta)
    return paction.validate_partial_action(S, alg.carrier, tuple(supports), tuple(maps))


# --- the Exel word closure with both expansion rules -----------------------------

def exel_words_closure_with_expansions(G, max_len):
    """acceptance.exel_words_closure as it was when `related` also yielded
    the two expansions [a][m] -> [a][a^-1][am] and [m][b] -> [mb][b^-1][b],
    the relations [s^-1][s][t] = [s^-1][st] and [s][t][t^-1] = [st][t^-1]
    read from right to left."""
    one = G.idempotents[0]
    n = len(G)
    words = []
    layer = [()]
    for _ in range(max_len):
        layer = [w + (g,) for w in layer for g in range(n)]
        words.extend(layer)
    index = {w: i for i, w in enumerate(words)}

    def related(w):
        for p in range(len(w)):
            if w[p] == one and len(w) >= 2:
                yield w[:p] + w[p + 1:]
            if p + 2 < len(w) and w[p] == G.inv(w[p + 1]):
                yield w[: p + 1] + (G.mul(w[p + 1], w[p + 2]),) + w[p + 3:]
            if p + 1 < len(w):
                a, m = w[p], w[p + 1]
                yield w[: p + 1] + (G.inv(a), G.mul(a, m)) + w[p + 2:]
            if p + 2 < len(w) and w[p + 2] == G.inv(w[p + 1]):
                yield w[:p] + (G.mul(w[p], w[p + 1]), w[p + 2]) + w[p + 3:]
            if p + 1 < len(w):
                m, b = w[p], w[p + 1]
                yield w[:p] + (G.mul(m, b), G.inv(b), b) + w[p + 2:]

    root = invsemi.union_find(len(words), (
        (index[w], index[w2]) for w in words for w2 in related(w) if w2 and len(w2) <= max_len
    ))
    class_of = {w: root[i] for i, w in enumerate(words)}
    classes = sorted(set(class_of.values()))
    return classes, class_of


# --- equivalence classes: a graph search from every point -----------------------

def connected_components(n, pairs):
    """The least member of the class of each i in range(n) under the
    equivalence generated by pairs, by a depth-first search of the
    undirected graph the pairs span, started once per class."""
    adj = [set() for _ in range(n)]
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)
    least = [None] * n
    for i in range(n):
        if least[i] is None:
            least[i] = i
            stack = [i]
            while stack:
                for b in adj[stack.pop()]:
                    if least[b] is None:
                        least[b] = i
                        stack.append(b)
    return tuple(least)


# --- maximal group image: every pair tested for a common lower bound -------------

def min_group_congruence_by_pairs(S):
    """Least member of each class of s ~ t iff s and t have a common lower
    bound, by union-find over all n^2/2 pairs."""
    n = len(S)
    below = S.below
    return invsemi.union_find(
        n, ((s, t) for s in range(n) for t in range(s + 1, n) if below[s] & below[t]))


def congruence_failure_by_pairs(S, class_of):
    """The all-pairs congruence scan: the first (s, t), s outer, whose product
    is not in the class read off the least members of the classes of s and t."""
    n = len(S)
    reps = {}
    for s in range(n):
        reps.setdefault(class_of[s], s)
    tbl = {(a, b): class_of[S.mul(ra, rb)] for a, ra in reps.items() for b, rb in reps.items()}
    for s in range(n):
        for t in range(n):
            if class_of[S.mul(s, t)] != tbl[class_of[s], class_of[t]]:
                return s, t
    return None


# --- small constructions the tests build cases from ------------------------------

def invert_partial(f):
    """The inverse of the partial bijection f."""
    return invsemi.PartialBijection(tuple(sorted((y, x) for x, y in f.mapping)))


def units_indicator(G, ring):
    """1 of the Steinberg algebra of G: the indicator of the unit space."""
    return algebra.SteinbergElement.indicator(G, ring, G.units)


def identity_transducer(g):
    """The transducer that copies every boundary path of g edge by edge."""
    Path, Rule = graph.Path, graph.TransducerRule
    rules = []
    for e in range(len(g.edge_names)):
        rules.append(Rule("q", Path(g.esrc[e], (e,)), Path(g.esrc[e], (e,)), "q"))
    for v in g.sinks():
        rules.append(Rule("q", Path(v, ()), Path(v, ()), "q"))
    return graph.PrefixTransducer(g, g, "q", tuple(rules))
