"""Directed-graph dynamics: graph inverse semigroups, boundary path spaces,
symbolic cylinder calculus, boundary path groupoids, Leavitt path algebra
arithmetic in depth-normalized atomic form, and graph orbit equivalence
checked through prefix transducers.

Only finite graphs are supported, so every singular vertex is a sink.  For
acyclic graphs the boundary path space is a finite set and everything is
checked pointwise; for cyclic graphs the calculus stays at the level of
cylinder sets truncated at a chosen depth.

S_E is an inverse semigroup by proof, a model like I_n whose table is
tabulated from its generators on first read and not validated
(`graph_semigroup`).  Its product of path pairs,
`graph_semigroup_mul`, is the one prefix rule of the module: the canonical
action on boundary paths and on cylinders and the product of Leavitt atoms
all read it.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from . import GermkitError, ResourceLimit, germs, invsemi, paction


class GraphError(GermkitError):
    pass


class NotAcyclic(GraphError):
    kind = "unsupported"


class LengthZero(GraphError):
    pass


class DepthTooSmall(GraphError):
    pass


class GraphMismatch(GraphError):
    pass


class RulesNotExhaustive(GraphError):
    pass


class NonBoundaryEmission(GraphError):
    pass


class AtomFails(GraphError):
    pass


class DepthInsufficient(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    vertices: tuple
    edge_names: tuple
    esrc: tuple
    edst: tuple
    outs: tuple = field(init=False, compare=False, repr=False)  # vertex -> its out-edges

    def __post_init__(self):
        outs = [[] for _ in self.vertices]
        for e, v in enumerate(self.esrc):
            outs[v].append(e)
        object.__setattr__(self, "outs", tuple(map(tuple, outs)))

    def out_edges(self, v):
        return self.outs[v]

    def is_sink(self, v):
        return not self.out_edges(v)

    def sinks(self):
        return tuple(v for v in range(len(self.vertices)) if self.is_sink(v))


def make_graph(vertices, edges):
    """edges: iterable of (name, src, dst) with vertex names."""
    vertices = tuple(vertices)
    vidx = {}
    for name in vertices:
        if name in vidx:
            raise GraphError(f"duplicate vertex name {name!r}")
        vidx[name] = len(vidx)
    names, srcs, dsts = [], [], []
    for name, s, d in edges:
        if name in names:
            raise GraphError(f"duplicate edge name {name!r}")
        if s not in vidx or d not in vidx:
            raise GraphError(f"edge {name!r} references unknown vertex")
        names.append(name)
        srcs.append(vidx[s])
        dsts.append(vidx[d])
    return Graph(vertices, tuple(names), tuple(srcs), tuple(dsts))


# --- paths -------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Path:
    start: int
    edges: tuple


def make_path(g, start, edges=()):
    v = start
    for e in edges:
        if g.esrc[e] != v:
            raise GraphError("edges do not concatenate")
        v = g.edst[e]
    return Path(start, tuple(edges))


def path_end(g, p):
    return g.edst[p.edges[-1]] if p.edges else p.start


def path_cat(g, p, q):
    if q.start != path_end(g, p):
        raise GraphError("paths do not concatenate")
    return Path(p.start, p.edges + q.edges)


def path_is_prefix(p, q):
    return p.start == q.start and q.edges[: len(p.edges)] == p.edges


def path_strip_prefix(g, p, q):
    """The gamma with q = p . gamma."""
    if not path_is_prefix(p, q):
        raise GraphError("not a prefix")
    return Path(path_end(g, p), q.edges[len(p.edges):])


def path_suffix(g, p, m):
    """sigma^m of a finite path."""
    if m > len(p.edges):
        raise GraphError("shift beyond path length")
    v = p.start
    for e in p.edges[:m]:
        v = g.edst[e]
    return Path(v, p.edges[m:])


def fmt_path(g, p):
    if not p.edges:
        return g.vertices[p.start]
    return ".".join(g.edge_names[e] for e in p.edges)


def all_finite_paths(g, max_count=100000):
    """Every finite path of an acyclic graph, length-0 paths included."""
    if has_cycle(g):
        raise NotAcyclic("path set is infinite")
    out = [Path(v, ()) for v in range(len(g.vertices))]
    frontier = list(out)
    while frontier:
        nxt = []
        for p in frontier:
            for e in g.out_edges(path_end(g, p)):
                nxt.append(Path(p.start, p.edges + (e,)))
        out.extend(nxt)
        frontier = nxt
        if len(out) > max_count:
            raise ResourceLimit("too many paths")
    out.sort(key=lambda p: (len(p.edges), fmt_path(g, p)))
    return out


def has_cycle(g):
    """Whether g has a directed cycle: a depth-first search, kept on an
    explicit stack, meets a vertex that is still on the stack."""
    nv = len(g.vertices)
    succ = [[g.edst[e] for e in outs] for outs in g.outs]
    color = [0] * nv  # 0 unseen, 1 on the stack, 2 done
    for root in range(nv):
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if color[w] == 1:
                    return True
                if color[w] == 0:
                    color[w] = 1
                    stack.append((w, iter(succ[w])))
                    break
            else:
                color[v] = 2
                stack.pop()
    return False


def is_condition_L(g):
    """(flag, witness loop): every loop has an exit.

    A loop without an exit leaves each of its vertices by that vertex's only
    edge, so such loops are disjoint, and following single out-edges from
    every vertex finds them all in O(|V| + |E|).  The witness is the least
    of them by (length, fmt_path), anchored at its least vertex."""
    only = {v: outs[0] for v, outs in enumerate(g.outs) if len(outs) == 1}
    done = set()
    loops = []
    for v in only:
        walk = {}  # vertex -> its position on this walk
        while v in only and v not in done and v not in walk:
            walk[v] = len(walk)
            v = g.edst[only[v]]
        if v in walk:  # the walk closed a loop at v
            cyc = list(walk)[walk[v]:]
            i = cyc.index(min(cyc))
            cyc = cyc[i:] + cyc[:i]
            loops.append(Path(cyc[0], tuple(only[u] for u in cyc)))
        done.update(walk)
    if not loops:
        return True, None
    return False, min(loops, key=lambda p: (len(p.edges), fmt_path(g, p)))


def boundary_enumerate(g):
    """The finite boundary path space of an acyclic graph (paths ending at
    sinks, length-0 ones included), or None when a cycle makes it infinite."""
    try:
        paths = all_finite_paths(g)
    except NotAcyclic:
        return None
    return [p for p in paths if g.is_sink(path_end(g, p))]


# --- graph inverse semigroup ---------------------------------------------------------

ZERO = "0"


def graph_semigroup_mul(g, a, b):
    """Three-case product of path pairs; 0 is absorbing."""
    if a == ZERO or b == ZERO:
        return ZERO
    mu, nu = a
    ze, eta = b
    if path_is_prefix(ze, nu):
        gamma = path_strip_prefix(g, ze, nu)
        return (mu, path_cat(g, eta, gamma))
    if path_is_prefix(nu, ze):
        gamma = path_strip_prefix(g, nu, ze)
        return (path_cat(g, mu, gamma), eta)
    return ZERO


def graph_semigroup(g, max_elements=2000):
    """S_E materialized as an inverse semigroup (acyclic graphs only).

    Returns (InverseSemigroup, payload tuple) where payloads are the ZERO
    marker or (mu, nu) path pairs with common range.  |S_E| = 1 + the sum
    over vertices v of (paths ending at v)^2 is counted, and checked against
    max_elements, before any pair is built.

    S_E is an inverse semigroup by proof (Ash and Hall, Inverse semigroups
    on graphs, Semigroup Forum 11, 1975), so nothing here is checked.
    (mu, nu) acts on the finite paths by nu x -> mu x, and 0 by the empty
    map; `graph_semigroup_mul` is the composition of these partial
    bijections, and (mu, nu) is recovered from its map (nu is the shortest
    path in its domain, mu its image).  So the product is associative,
    (nu, mu) is the inverse of (mu, nu), and the idempotents are 0 and the
    (mu, mu).  0 is absorbing, so it is the zero.  s <= t iff s = t e for
    an idempotent e, and (mu, nu)(gamma, gamma) is (mu x, nu x) when gamma
    = nu x, (mu, nu) when nu = gamma x, and 0 otherwise: below[(mu, nu)]
    holds (mu, nu), 0 and the (mu x, nu x) with x non-empty, that is the
    below rows of the (mu e, nu e) for the edges e leaving r(mu), which
    come later in the payload.  0, the (v, v), the (e, r(e)) and the
    (r(e), e) generate: with k + l > 0, (e_1...e_k, f_1...f_l) =
    (e_1, r(e_1))...(e_k, r(e_k)) (r(f_l), f_l)...(r(f_1), f_1).  They are
    kept as gens, and `invsemi.tabulate` fills the table from them the
    first time S.table is read.
    """
    paths = all_finite_paths(g)
    ends = Counter(path_end(g, p) for p in paths)
    size = 1 + sum(c * c for c in ends.values())
    if size > max_elements:
        raise ResourceLimit(f"|S_E| = {size} exceeds {max_elements}")
    pairs = sorted(((mu, nu) for mu in paths for nu in paths if path_end(g, mu) == path_end(g, nu)),
                   key=lambda el: (len(el[0].edges) + len(el[1].edges), fmt_path(g, el[0]), fmt_path(g, el[1])))
    elems = [ZERO] + pairs  # the zero is index 0
    index = {el: i for i, el in enumerate(elems)}
    below = [1] * len(elems)
    for i in reversed(range(1, len(elems))):
        mu, nu = elems[i]
        below[i] = reduce(or_, (below[index[(Path(mu.start, mu.edges + (e,)), Path(nu.start, nu.edges + (e,)))]]
                                for e in g.out_edges(path_end(g, mu))), 1 << i | 1)
    vertices = [Path(v, ()) for v in range(len(g.vertices))]
    edges = [(Path(g.esrc[e], (e,)), Path(g.edst[e], ())) for e in range(len(g.edge_names))]
    letters = [ZERO] + [(v, v) for v in vertices] + edges + [(r, e) for e, r in edges]
    S = invsemi.InverseSemigroup(
        ("0",) + tuple(f"({fmt_path(g, mu)},{fmt_path(g, nu)})" for mu, nu in pairs),
        lambda: invsemi.tabulate(elems, lambda a, b: graph_semigroup_mul(g, a, b), letters),
        (0,) + tuple(index[(nu, mu)] for mu, nu in pairs),
        (0,) + tuple(i for i, (mu, nu) in enumerate(pairs, 1) if mu == nu), 0,
        below=tuple(below), gens=tuple(index[el] for el in letters))
    return S, tuple(elems)


# --- cylinders ------------------------------------------------------------------------

@dataclass(frozen=True)
class Cylinder:
    mu: Path
    forbidden: frozenset = frozenset()


@dataclass(frozen=True)
class CylinderBisection:
    """Z(mu, nu, F): the germs (mu x, |mu|-|nu|, nu x) over continuations x
    avoiding first edges in F."""

    mu: Path
    nu: Path
    forbidden: frozenset = frozenset()


def check_cylinder(g, c):
    r = path_end(g, c.mu)
    if not set(c.forbidden) <= set(g.out_edges(r)):
        raise GraphError("forbidden edges must start at the range of mu")


def cylinder_empty(g, c):
    """Z(mu, F) is empty iff r(mu) is regular and every outgoing edge is
    forbidden."""
    check_cylinder(g, c)
    r = path_end(g, c.mu)
    outs = g.out_edges(r)
    return bool(outs) and set(outs) <= set(c.forbidden)


def bisection_atoms(g, cb, depth):
    """Disjoint decomposition into sink-rooted singletons and full-depth
    basics with no forbidden set."""
    if depth < len(cb.mu.edges):
        raise DepthTooSmall(f"depth {depth} < |mu| = {len(cb.mu.edges)}")
    out = []
    stack = [cb]
    while stack:
        cur = stack.pop()
        r = path_end(g, cur.mu)
        outs = g.out_edges(r)
        if not outs:
            out.append(CylinderBisection(cur.mu, cur.nu, frozenset()))
            continue
        if len(cur.mu.edges) >= depth and not cur.forbidden:
            out.append(cur)
            continue
        for e in outs:
            if e not in cur.forbidden:
                step = Path(r, (e,))
                stack.append(
                    CylinderBisection(
                        path_cat(g, cur.mu, step), path_cat(g, cur.nu, step), frozenset()
                    )
                )
    out.sort(key=lambda a: (len(a.mu.edges), fmt_path(g, a.mu), fmt_path(g, a.nu)))
    return out


def cylinder_atoms(g, c, depth):
    """One-sided atoms of Z(mu, F) at the given depth."""
    cb = CylinderBisection(c.mu, c.mu, c.forbidden)
    return [Cylinder(a.mu, a.forbidden) for a in bisection_atoms(g, cb, depth)]


def boundary_atoms(g, depth, min_len=0):
    """Depth-normalized atoms of the whole boundary space (or of the
    length >= min_len part)."""
    out = []
    for v in range(len(g.vertices)):
        out.extend(cylinder_atoms(g, Cylinder(Path(v, ())), depth))
    return [a for a in out if len(a.mu.edges) >= min_len]


def shift_on_cylinder(g, c):
    """sigma(Z(mu, F)) = Z(mu without its first edge, F)."""
    if not c.mu.edges:
        raise LengthZero("cannot shift a length-0 cylinder")
    e = c.mu.edges[0]
    return Cylinder(Path(g.edst[e], c.mu.edges[1:]), c.forbidden)


# --- canonical action and boundary groupoid ---------------------------------------------

@dataclass(frozen=True)
class CylinderAction:
    """The canonical action at cylinder granularity, for graphs whose boundary
    space is infinite: theta_(mu,nu) sends Z(nu g, F) to Z(mu g, F)."""

    graph: Graph

    def domain(self, el):
        if el == ZERO:
            return None
        return Cylinder(el[1])

    def codomain(self, el):
        if el == ZERO:
            return None
        return Cylinder(el[0])

    def apply(self, el, cylinder):
        """Image of the part of the cylinder lying in Z(nu); None if disjoint.

        That part is Z(nu') for (mu', nu') = el (alpha, alpha), alpha the
        cylinder's path, less the forbidden edges, and its image is Z(mu')."""
        if el == ZERO:
            return None
        check_cylinder(self.graph, cylinder)
        prod = graph_semigroup_mul(self.graph, el, (cylinder.mu, cylinder.mu))
        if prod == ZERO:
            return None
        mu, nu = prod
        k = len(cylinder.mu.edges)
        if len(nu.edges) == k:  # nu' = alpha: the forbidden edges carry over
            return Cylinder(mu, cylinder.forbidden)
        # alpha is a proper prefix of nu': empty when nu' turns into a forbidden edge
        return None if nu.edges[k] in cylinder.forbidden else Cylinder(mu, frozenset())


def canonical_graph_action(g):
    """The canonical action of the graph inverse semigroup.

    For acyclic graphs: the concrete global action of S_E on the finite
    boundary path space, theta_(mu,nu) : Z(nu) -> Z(mu), nu x -> mu x,
    returned as (action, payload, boundary).  For cyclic graphs the boundary
    space is infinite and a symbolic CylinderAction is returned instead.

    The paths are enumerated once, by `graph_semigroup`.  The boundary is
    the q with (q, q) in the payload and q ending at a sink, in payload
    order, which sorts the (q, q) by (|q|, fmt_path(q)) as
    `boundary_enumerate` does.  A boundary path q cannot be extended, so
    (mu,nu)(q,q) is (mu x, q) when q = nu x and 0 otherwise:
    theta_(mu,nu)(q) is its first path, formed only for the q that extend
    nu, one product per pair of L.

    The action is not validated: (mu, nu) acts on the finite paths by
    nu x -> mu x, and `graph_semigroup_mul` composes these maps
    (`graph_semigroup`).  Prefix replacement keeps the end of a path, so
    the boundary is invariant and the restrictions compose alike: theta is
    a homomorphism S_E -> I(boundary), hence a global action.  It is
    non-degenerate: q is in Z(v), the domain of (v, v), for v the start of q.
    """
    try:
        S, payload = graph_semigroup(g)
    except NotAcyclic:
        return CylinderAction(g)
    boundary = [el[0] for el in payload
                if el != ZERO and el[0] == el[1] and g.is_sink(path_end(g, el[0]))]
    pidx = {p: i for i, p in enumerate(boundary)}
    extending = {}  # nu -> the indices of the boundary paths nu x
    for i, q in enumerate(boundary):
        for k in range(len(q.edges) + 1):
            extending.setdefault(Path(q.start, q.edges[:k]), []).append(i)
    domains = []
    maps = []
    for el in payload:
        ext = () if el == ZERO else extending.get(el[1], ())
        graph_map = {i: pidx[graph_semigroup_mul(g, el, (boundary[i], boundary[i]))[0]] for i in ext}
        maps.append(graph_map)
        domains.append(tuple(sorted(graph_map.values())))
    carrier = tuple(fmt_path(g, p) for p in boundary)
    return paction.PartialAction(S, carrier, tuple(domains), tuple(maps)), payload, boundary


def boundary_groupoid(g):
    """G_E from shift-equivalent triples (x, m-n, y), plus the comparison with
    the groupoid of germs of the canonical action.

    Returns (groupoid, germ groupoid, iso, report); the report certifies that
    psi((mu,nu), x) = (theta(x), |mu|-|nu|, x) descends to an isomorphism.

    In an acyclic graph every boundary path is finite and ends at a sink, so
    sigma^m x = sigma^n y for some m, n iff x and y end at the same sink:
    equal suffixes end where x and y end, and sigma^|x| x = sigma^|y| y is
    that sink.  Equal suffixes also have equal lengths, |x| - m = |y| - n,
    so m - n = |x| - |y| for every match, and the triples are read off
    without a search over (m, n).

    The triples form a groupoid by proof, so they are not validated: they
    are the pair groupoid of each fibre of x -> end(x), k being fixed by x
    and y.  (x, k, y)(y, l, z) = (x, k + l, z) is a triple, as k + l =
    |x| - |z|, and typed; composition is associative as addition is; the
    units are the (x, 0, x) and (y, -k, x) inverts (x, k, y).  The
    acyclicity and the boundary come from `canonical_graph_action`.
    """
    result = canonical_graph_action(g)
    if isinstance(result, CylinderAction):
        raise NotAcyclic("boundary groupoid is infinite")
    action, payload, boundary = result
    ends = [path_end(g, p) for p in boundary]
    triples = [
        (i, len(x.edges) - len(y.edges), j)
        for i, x in enumerate(boundary)
        for j, y in enumerate(boundary)
        if ends[i] == ends[j]
    ]
    tindex = {t: i for i, t in enumerate(triples)}
    names = tuple(
        f"({fmt_path(g, boundary[x])},{k},{fmt_path(g, boundary[y])})" for x, k, y in triples
    )
    units = tuple(tindex[(x, 0, x)] for x in range(len(boundary)))
    source = tuple(tindex[(y, 0, y)] for _, _, y in triples)
    target = tuple(tindex[(x, 0, x)] for x, _, _ in triples)
    inverse = tuple(tindex[(y, -k, x)] for x, k, y in triples)

    def cat(i, j):
        (x, k, _), (_, l, z) = triples[i], triples[j]
        return tindex[(x, k + l, z)]

    gpd = germs.FiniteGroupoid(names, units, source, target, inverse,
                               germs.compose_table(source, target, cat))
    germ = germs.groupoid_of_germs(action)

    def psi(s, xp):
        mu, nu = payload[s]
        return (action.theta(s, xp), len(mu.edges) - len(nu.edges), xp)

    arrow_map = [None] * len(germ.groupoid.arrows)
    for (s, xp), cls in germ.pair_class.items():
        t = tindex[psi(s, xp)]
        if arrow_map[cls] is None:
            arrow_map[cls] = t
        elif arrow_map[cls] != t:
            raise GraphError("psi is not constant on germ classes", (s, xp))
    if sorted(arrow_map) != list(range(len(triples))):
        raise GraphError("psi is not a bijection onto the boundary groupoid")
    iso = germs.GroupoidIso(germ.groupoid, gpd, tuple(arrow_map))
    if not germs.verify_groupoid_iso(iso):
        raise GraphError("psi is not a groupoid isomorphism")
    report = {
        "germ_arrows": len(germ.groupoid.arrows),
        "boundary_arrows": len(triples),
        "isomorphic": True,
    }
    return gpd, germ, iso, report


# --- Leavitt path algebra ----------------------------------------------------------------

class LeavittElement:
    """Sparse combination of depth-normalized atomic cylinder bisections.

    Atoms are pairwise disjoint: each is a sink-rooted singleton or a basic
    Z(mu, nu) whose range path has the element's full depth.
    """

    __slots__ = ("graph", "ring", "atoms", "depth")

    def __init__(self, graph, ring, atoms, depth):
        self.graph = graph
        self.ring = ring
        self.depth = depth
        self.atoms = {}
        for cb, c in dict(atoms).items():
            c = ring.normalize(c)
            if c != ring.zero:
                self.atoms[cb] = c

    def _check(self, other):
        if self.graph is not other.graph or self.ring != other.ring:
            raise GraphMismatch("operands live on different graphs")

    def at_depth(self, depth):
        if depth < self.depth:
            raise DepthTooSmall(f"cannot shrink depth {self.depth} to {depth}")
        out = {}
        ring = self.ring
        for cb, c in self.atoms.items():
            for atom in bisection_atoms(self.graph, cb, depth):
                out[atom] = ring.add(out.get(atom, ring.zero), c)
        return LeavittElement(self.graph, ring, out, depth)

    def __add__(self, other):
        self._check(other)
        d = max(self.depth, other.depth)
        a, b = self.at_depth(d), other.at_depth(d)
        out = dict(a.atoms)
        ring = self.ring
        for cb, c in b.atoms.items():
            out[cb] = ring.add(out.get(cb, ring.zero), c)
        return LeavittElement(self.graph, ring, out, d)

    def scale(self, c):
        ring = self.ring
        return LeavittElement(
            self.graph, ring, {cb: ring.mul(c, v) for cb, v in self.atoms.items()}, self.depth
        )

    def __sub__(self, other):
        return self + other.scale(self.ring.neg(self.ring.one))

    def __mul__(self, other):
        return leavitt_multiply(self, other)

    def __eq__(self, other):
        return leavitt_equal(self, other)

    def __hash__(self):
        raise TypeError("unhashable; compare with leavitt_equal")

    def is_zero(self):
        return not self.atoms

    def __repr__(self):
        g = self.graph
        terms = " + ".join(
            f"{self.ring.fmt(c)}*Z({fmt_path(g, cb.mu)},{fmt_path(g, cb.nu)})"
            for cb, c in sorted(
                self.atoms.items(), key=lambda kv: (fmt_path(g, kv[0].mu), fmt_path(g, kv[0].nu))
            )
        )
        return terms or "0"


def lv_zero(g, ring):
    return LeavittElement(g, ring, {}, 0)


def lv_vertex(g, ring, v):
    p = Path(g.vertices.index(v) if isinstance(v, str) else v, ())
    return LeavittElement(g, ring, {CylinderBisection(p, p): ring.one}, 0)


def lv_edge(g, ring, e):
    e = g.edge_names.index(e) if isinstance(e, str) else e
    mu = Path(g.esrc[e], (e,))
    nu = Path(g.edst[e], ())
    return LeavittElement(g, ring, {CylinderBisection(mu, nu): ring.one}, 1)


def lv_edge_star(g, ring, e):
    e = g.edge_names.index(e) if isinstance(e, str) else e
    mu = Path(g.edst[e], ())
    nu = Path(g.esrc[e], (e,))
    return LeavittElement(g, ring, {CylinderBisection(mu, nu): ring.one}, 0)


def leavitt_multiply(x, y):
    """Expand both operands to a common depth, multiply atom pairs
    Z(mu, nu) Z(mu', nu') = Z((mu, nu)(mu', nu')) in S_E, and renormalize
    to atomic form."""
    x._check(y)
    g, ring = x.graph, x.ring
    lens = [0]
    for el in (x, y):
        for cb in el.atoms:
            lens += [len(cb.mu.edges), len(cb.nu.edges)]
    d = max(1 + max(lens), x.depth, y.depth)
    a, b = x.at_depth(d), y.at_depth(d)
    products = []
    for cb1, c1 in a.atoms.items():
        for cb2, c2 in b.atoms.items():
            p = graph_semigroup_mul(g, (cb1.mu, cb1.nu), (cb2.mu, cb2.nu))
            if p != ZERO:
                products.append((CylinderBisection(*p), ring.mul(c1, c2)))
    if not products:
        return lv_zero(g, ring)
    dres = max(d, max(len(p.mu.edges) for p, _ in products))
    out = {}
    for p, c in products:
        for atom in bisection_atoms(g, p, dres):
            out[atom] = ring.add(out.get(atom, ring.zero), c)
    return LeavittElement(g, ring, out, dres)


def leavitt_equal(x, y):
    x._check(y)
    d = max(x.depth, y.depth)
    return x.at_depth(d).atoms == y.at_depth(d).atoms


def leavitt_diagonal_atom(g, ring, mu, forbidden=frozenset()):
    return LeavittElement(
        g, ring, {a: ring.one for a in bisection_atoms(g, CylinderBisection(mu, mu, forbidden), len(mu.edges))},
        len(mu.edges),
    )


# --- Leavitt expressions (CLI surface) ----------------------------------------------------

def parse_leavitt_expr(g, ring, text):
    """S-expressions over vertex names, edge names, starred edge names,
    integer scalars, + and *.

    The whole text is parsed, into postfix order, before any symbol is
    resolved, so a syntax error is reported before an unknown symbol; both
    passes keep their own stack, so nesting depth is not bounded by Python's
    recursion limit."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def token(pos):
        if pos >= len(tokens):
            raise GraphError("unexpected end of expression")
        return tokens[pos]

    program = []     # symbols, and (op, argument count) after its arguments
    open_forms = []  # [op, arguments so far] of each unclosed "(op ..."
    pos = 0
    while True:
        tok = token(pos)
        if tok == "(":
            op = token(pos + 1)
            if op not in ("+", "*"):
                raise GraphError(f"unknown operator {op!r}")
            open_forms.append([op, 0])
            pos += 2
            continue
        if tok == ")":
            if not open_forms:
                raise GraphError("unbalanced parentheses")
            program.append(tuple(open_forms.pop()))
        else:
            program.append(tok)
        pos += 1
        if not open_forms:
            break
        open_forms[-1][1] += 1
    if pos != len(tokens):
        raise GraphError("trailing tokens in expression")

    def symbol(tok):
        try:
            return ring.parse(tok)
        except (ValueError, ArithmeticError):
            pass
        if tok.endswith("*") and tok[:-1] in g.edge_names:
            return lv_edge_star(g, ring, tok[:-1])
        if tok in g.edge_names:
            return lv_edge(g, ring, tok)
        if tok in g.vertices:
            return lv_vertex(g, ring, tok)
        raise GraphError(f"unknown symbol {tok!r}")

    def combine(op, vals):
        scalars = [v for v in vals if not isinstance(v, LeavittElement)]
        elems = [v for v in vals if isinstance(v, LeavittElement)]
        if op == "+":
            if scalars:
                raise GraphError("cannot add a bare scalar to an element")
            if not elems:
                raise GraphError("empty sum")
            out = elems[0]
            for v in elems[1:]:
                out = out + v
            return out
        coeff = ring.one
        for c in scalars:
            coeff = ring.mul(coeff, c)
        if not elems:
            return coeff
        out = elems[0]
        for v in elems[1:]:
            out = leavitt_multiply(out, v)
        return out.scale(coeff)

    stack = []
    for step in program:
        if isinstance(step, str):
            stack.append(symbol(step))
        else:
            op, nargs = step
            args = stack[len(stack) - nargs:]
            del stack[len(stack) - nargs:]
            stack.append(combine(op, args))
    (val,) = stack
    if not isinstance(val, LeavittElement):
        raise GraphError("expression evaluates to a bare scalar")
    return val


# --- prefix transducers --------------------------------------------------------------------

@dataclass(frozen=True)
class TransducerRule:
    state: str
    consume: Path
    emit: Path
    next_state: str


@dataclass(frozen=True)
class PrefixTransducer:
    """Deterministic prefix-rewriting machine from boundary paths of one graph
    to boundary paths of another.

    At each (state, vertex) the applicable consume-prefixes must be
    prefix-free and exhaustive over boundary continuations; a length-0
    consume is only allowed at a sink and terminates the input.
    """

    graph_in: Graph
    graph_out: Graph
    initial: str
    rules: tuple


def validate_transducer(T):
    gi, go = T.graph_in, T.graph_out
    by_state_vertex = {}
    for r in T.rules:
        make_path(gi, r.consume.start, r.consume.edges)
        make_path(go, r.emit.start, r.emit.edges)
        if not r.consume.edges and not gi.is_sink(r.consume.start):
            raise GraphError("length-0 consume is only allowed at a sink", r)
        if r.consume.edges and not r.emit.edges:
            raise NonBoundaryEmission("non-terminal rules must emit at least one edge", r)
        by_state_vertex.setdefault((r.state, r.consume.start), []).append(r)
    for key, rs in by_state_vertex.items():
        for i, r1 in enumerate(rs):
            for r2 in rs[i + 1:]:
                if path_is_prefix(r1.consume, r2.consume) or path_is_prefix(r2.consume, r1.consume):
                    raise GraphError(f"rules at {key} are not prefix-free", (r1, r2))
    # exhaustiveness over reachable (state, vertex) pairs
    max_len = max((len(r.consume.edges) for r in T.rules), default=0) or 1
    seen = set()
    frontier = [(T.initial, v) for v in range(len(gi.vertices))]
    while frontier:
        state, v = frontier.pop()
        if (state, v) in seen:
            continue
        seen.add((state, v))
        rs = by_state_vertex.get((state, v), [])
        if gi.is_sink(v):
            if not any(not r.consume.edges for r in rs):
                raise RulesNotExhaustive(f"no terminal rule at ({state}, {gi.vertices[v]})",
                                         (state, Path(v, ())))
        stack = [Path(v, ())]
        while stack:
            p = stack.pop()
            covering = [r for r in rs if r.consume.edges and path_is_prefix(r.consume, p)]
            if covering:
                end = path_end(gi, covering[0].consume)
                if not gi.is_sink(end):  # rules ending at a sink finish the input
                    frontier.append((covering[0].next_state, end))
                continue
            end = path_end(gi, p)
            outs = gi.out_edges(end)
            if not outs:
                if p.edges:  # sink-rooted continuation with no covering rule
                    raise RulesNotExhaustive(
                        f"({state}, {gi.vertices[v]}) does not cover {fmt_path(gi, p)}",
                        (state, p),
                    )
                continue
            if len(p.edges) >= max_len:
                raise RulesNotExhaustive(
                    f"({state}, {gi.vertices[v]}) does not cover {fmt_path(gi, p)}",
                    (state, p),
                )
            for e in outs:
                stack.append(Path(p.start, p.edges + (e,)))
    return by_state_vertex


class _Run:
    """Partial run of a transducer along a fixed input path."""

    __slots__ = ("T", "rules", "path", "state", "pos", "emitted", "done")

    def __init__(self, T, rules, path):
        self.T = T
        self.rules = rules
        self.path = path
        self.state = T.initial
        self.pos = 0
        self.emitted = []
        self.done = False

    def current_vertex(self):
        g = self.T.graph_in
        v = self.path.start
        for e in self.path.edges[: self.pos]:
            v = g.edst[e]
        return v

    def step(self):
        """Apply one rule if enough input is visible; returns True on progress.
        A rule whose consume path ends at a sink finishes the input, as does a
        length-0 rule at a bare sink vertex."""
        if self.done:
            return False
        gi = self.T.graph_in
        v = self.current_vertex()
        remaining = self.path.edges[self.pos:]
        rs = self.rules.get((self.state, v), [])
        if not remaining:
            if gi.is_sink(v):
                term = [r for r in rs if not r.consume.edges]
                if term:
                    self.emitted.append(term[0].emit)
                    self.state = term[0].next_state
                    self.done = True
                    return True
            return False
        for r in rs:
            k = len(r.consume.edges)
            if k and remaining[:k] == r.consume.edges:
                self.pos += k
                self.emitted.append(r.emit)
                self.state = r.next_state
                if gi.is_sink(path_end(gi, r.consume)):
                    self.done = True
                return True
        return False

    def finish(self):
        """Step until no rule applies; returns the run."""
        while self.step():
            pass
        return self

    def output_path(self):
        go = self.T.graph_out
        pieces = [p for p in self.emitted]
        if not pieces:
            return None
        out = pieces[0]
        for p in pieces[1:]:
            if p.start != path_end(go, out):
                raise NonBoundaryEmission("emitted pieces do not concatenate")
            out = Path(out.start, out.edges + p.edges)
        return out


def run_transducer(T, rules_index, path):
    """Run along a path to its end: the whole input must be consumed and
    the output must be a boundary path of the target graph."""
    run = _Run(T, rules_index, path).finish()
    if not run.done:
        raise RulesNotExhaustive(
            f"input {fmt_path(T.graph_in, path)} not fully consumed", path
        )
    out = run.output_path()
    if out is None or not T.graph_out.is_sink(path_end(T.graph_out, out)):
        raise NonBoundaryEmission(
            f"image of {fmt_path(T.graph_in, path)} is not a boundary path", path
        )
    return out


def transducer_apply(T, cylinder, depth):
    """Image of a cylinder, truncated at the given depth: a sorted list of
    cylinders over the emitted prefixes.  Exact on sink-rooted atoms; atoms on
    which the machine has not yet emitted anything at this depth are omitted."""
    rules_index = validate_transducer(T)
    out = []
    for atom in cylinder_atoms(T.graph_in, cylinder, depth):
        emitted = _Run(T, rules_index, atom.mu).finish().output_path()
        if emitted is not None:
            out.append(Cylinder(emitted, frozenset()))
    uniq = sorted(set(out), key=lambda c: (len(c.mu.edges), fmt_path(T.graph_out, c.mu)))
    return uniq


def transducer_invertible_upto(T, Tinv, depth):
    """Check T and Tinv compose to the identity on all depth-D atoms, in both
    directions; returns (flag, witness atom or None)."""
    return _invertible_upto(T, Tinv, validate_transducer(T), validate_transducer(Tinv), depth)


def _invertible_upto(T, Tinv, ri, rj, depth):
    """`transducer_invertible_upto` given the rule indices of T and Tinv."""
    for A, B, ra, rb in ((T, Tinv, ri, rj), (Tinv, T, rj, ri)):
        for atom in boundary_atoms(A.graph_in, depth):
            mu = atom.mu
            if A.graph_in.is_sink(path_end(A.graph_in, mu)):
                y = run_transducer(A, ra, mu)
                back = run_transducer(B, rb, y)
                if back != mu:
                    return False, atom
            else:
                y = _Run(A, ra, mu).finish().output_path()
                if y is None:
                    continue
                back = _Run(B, rb, y).finish().output_path()
                if back is not None:
                    if not (path_is_prefix(back, mu) or path_is_prefix(mu, back)):
                        return False, atom
    return True, None


# --- graph orbit equivalence -----------------------------------------------------------------

def _has_branching_continuations(g, v):
    """Whether at least two distinct boundary paths start at v: the forward
    walk along forced edges reaches a vertex with out-degree >= 2."""
    seen = set()
    while v not in seen:
        seen.add(v)
        outs = g.out_edges(v)
        if len(outs) >= 2:
            return True
        if not outs:
            return False
        v = g.edst[outs[0]]
    return False


def _residuals_equal(T, rules_index, mu, dropA, dropB, depth):
    """Compare sigma^dropA(phi(sigma(x))) with sigma^dropB(phi(x)) for every
    boundary point x extending mu, by aligning two runs of T along mu.

    Returns "pass", "fail", or "undetermined" (horizon reached first).  At the
    horizon, equal states at equal offsets with emitted tails of different
    lengths still fail when the input vertex admits two distinct boundary
    continuations, since the images of distinct points cannot both equal the
    one periodic word compatible with the length gap.
    """
    gi = T.graph_in
    runA = _Run(T, rules_index, path_suffix(gi, mu, 1))   # phi(sigma x)
    runB = _Run(T, rules_index, mu)                        # phi(x)

    def visible(run, drop):
        out = run.output_path()
        edges = out.edges if out is not None else ()
        return edges[drop:] if drop <= len(edges) else None

    for _ in range(4 * (len(mu.edges) + 2) * (len(T.rules) + 2)):
        va = visible(runA, dropA)
        vb = visible(runB, dropB)
        if va is not None and vb is not None:
            m = min(len(va), len(vb))
            if va[:m] != vb[:m]:
                return "fail"
        a_off = runA.pos + 1  # runA consumes mu shifted by one edge
        b_off = runB.pos
        if runA.done and runB.done:
            if va is None or vb is None:
                return "fail"
            return "pass" if va == vb else "fail"
        if a_off == b_off and runA.state == runB.state and va == vb and va is not None:
            return "pass"
        target = runA if (a_off < b_off or (a_off == b_off and not runA.done)) else runB
        if not target.step():
            other = runB if target is runA else runA
            if not other.step():
                if (
                    a_off == b_off
                    and runA.state == runB.state
                    and va is not None
                    and vb is not None
                    and len(va) != len(vb)
                    and _has_branching_continuations(gi, runB.current_vertex())
                ):
                    return "fail"
                return "undetermined"
    return "undetermined"


def verify_graph_coe(E, F, T, Tinv, k, l, kprime, lprime, depth):
    """Check the two shift-intertwining identities atom by atom.

    k, l are maps from depth-normalized atoms of the length >= 1 part of the
    boundary of E (keyed by formatted range path) to naturals, constant per
    atom; likewise kprime, lprime on F.  Exact for sink-rooted atoms; for
    cylinder atoms the comparison is exact whenever the runs align within the
    depth, and is otherwise reported as undetermined.  At a depth below 1 no
    atom would be checked, so it raises DepthTooSmall.
    """
    if depth < 1:
        raise DepthTooSmall(f"depth {depth} < 1", depth)
    ri = validate_transducer(T)
    rj = validate_transducer(Tinv)
    ok, witness = _invertible_upto(T, Tinv, ri, rj, depth)
    if not ok:
        raise GraphError(f"transducers are not mutually inverse at depth {depth}", witness)
    report = {"exact": [], "undetermined": []}
    for (A, rx, kk, ll, side) in ((T, ri, k, l, "E"), (Tinv, rj, kprime, lprime, "F")):
        gi = A.graph_in
        for atom in boundary_atoms(gi, depth, min_len=1):
            key = fmt_path(gi, atom.mu)
            if key not in kk or key not in ll:
                raise GraphError(f"k/l not defined on atom {key}", atom)
            K, L = kk[key], ll[key]
            if gi.is_sink(path_end(gi, atom.mu)):
                x = atom.mu
                fx = run_transducer(A, rx, x)
                fsx = run_transducer(A, rx, path_suffix(gi, x, 1))
                go = A.graph_out
                if K > len(fsx.edges) or L > len(fx.edges):
                    raise DepthInsufficient(f"cocycle exceeds image length on {key}", atom)
                if path_suffix(go, fsx, K) != path_suffix(go, fx, L):
                    raise AtomFails(f"identity fails on atom {key} (side {side})", (side, atom))
                report["exact"].append((side, key))
            else:
                res = _residuals_equal(A, rx, atom.mu, K, L, depth)
                if res == "fail":
                    raise AtomFails(f"identity fails on atom {key} (side {side})", (side, atom))
                report["exact" if res == "pass" else "undetermined"].append((side, key))
    report["atoms_checked"] = len(report["exact"]) + len(report["undetermined"])
    return report


def graph_coe_search(E, F, max_boundary=2000):
    """Acyclic-only search for an orbit equivalence.

    Boundary points fall into orbits by terminal sink; an equivalence exists
    iff the orbit-size multisets agree, in which case a deterministic
    orbit-by-orbit bijection with full-shift cocycles is produced and
    verified.  Returns the coe data dict, or None.
    """
    bE = boundary_enumerate(E)
    bF = boundary_enumerate(F)
    if bE is None or bF is None:
        raise NotAcyclic("orbit equivalence search needs finite boundary spaces")
    if len(bE) > max_boundary or len(bF) > max_boundary:
        raise ResourceLimit("boundary spaces too large to search")

    def orbits(g, pts):
        by_sink = {}
        for p in pts:
            by_sink.setdefault(path_end(g, p), []).append(p)
        return by_sink

    oE, oF = orbits(E, bE), orbits(F, bF)
    sizes_e = sorted(len(v) for v in oE.values())
    sizes_f = sorted(len(v) for v in oF.values())
    if sizes_e != sizes_f:
        return None
    # deterministic matching: sinks ordered by (orbit size, name)
    key_e = sorted(oE, key=lambda v: (len(oE[v]), E.vertices[v]))
    key_f = sorted(oF, key=lambda v: (len(oF[v]), F.vertices[v]))
    phi = {}
    for ve, vf in zip(key_e, key_f):
        pe = sorted(oE[ve], key=lambda p: (len(p.edges), fmt_path(E, p)))
        pf = sorted(oF[vf], key=lambda p: (len(p.edges), fmt_path(F, p)))
        for a, b in zip(pe, pf):
            phi[a] = b
    phi_inv = {b: a for a, b in phi.items()}

    def complete_transducer(g_in, g_out, mapping, name):
        rules = []
        for x, y in mapping.items():
            rules.append(TransducerRule(name, x, y, f"{name}end"))
        return PrefixTransducer(g_in, g_out, name, tuple(rules))

    T = complete_transducer(E, F, phi, "f")
    Tinv = complete_transducer(F, E, phi_inv, "b")
    depth = 1 + max(
        [len(p.edges) for p in bE] + [len(p.edges) for p in bF] + [0]
    )
    k = {fmt_path(E, x): len(phi[path_suffix(E, x, 1)].edges) for x in bE if x.edges}
    l = {fmt_path(E, x): len(phi[x].edges) for x in bE if x.edges}
    kprime = {fmt_path(F, y): len(phi_inv[path_suffix(F, y, 1)].edges) for y in bF if y.edges}
    lprime = {fmt_path(F, y): len(phi_inv[y].edges) for y in bF if y.edges}
    verify_graph_coe(E, F, T, Tinv, k, l, kprime, lprime, depth)
    return {
        "phi": {fmt_path(E, x): fmt_path(F, y) for x, y in phi.items()},
        "transducer": T,
        "transducer_inverse": Tinv,
        "k": k,
        "l": l,
        "kprime": kprime,
        "lprime": lprime,
        "depth": depth,
    }


# --- analysis report ---------------------------------------------------------------------

def graph_analyze(g):
    """Condition (L), acyclicity, boundary data and topological principality.

    For acyclic graphs principality is computed from the canonical action and
    cross-checked against Condition (L); for cyclic graphs Condition (L)
    decides it, and a failing loop is reported with its isolated cylinder.
    Acyclicity is read off `canonical_graph_action`."""
    cond_l, witness = is_condition_L(g)
    result = canonical_graph_action(g)
    acyclic = not isinstance(result, CylinderAction)
    report = {
        "vertices": len(g.vertices),
        "edges": len(g.edge_names),
        "acyclic": acyclic,
        "sinks": [g.vertices[v] for v in g.sinks()],
        "condition_L": cond_l,
        "witness_loop": fmt_path(g, witness) if witness else None,
    }
    if acyclic:
        action, _, boundary = result
        dyn = paction.dynamics_report(action)
        if dyn.top_principal != cond_l:
            raise GraphError("principality disagrees with Condition (L)")
        report["boundary_size"] = len(boundary)
        report["top_principal"] = dyn.top_principal
    else:
        report["boundary_size"] = None
        report["top_principal"] = cond_l
        if not cond_l:
            # the witness has no exit, so each of its vertices has exactly
            # one out-edge (`is_condition_L`): its cylinder is isolated
            report["witness_isolated_cylinder"] = True
    return report
