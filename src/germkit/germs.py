"""Finite groupoids, the groupoid of germs of a partial action, bisections,
and isomorphism of finite groupoids by their orbit structure.

Arrows are indexed; source/target of an arrow are indices of unit arrows.
Composition is held as rows, compose[a] = {b: ab} over exactly the b with
t(b) = s(a), the layout of a semigroup's S.table[a][b] cut down to the
composable pairs.  A groupoid given as data is checked by
`validate_groupoid` one row at a time, and associativity is Light's test
over the generating set G.gens that `invsemi.closure` reads off the rows,
with the triple scan kept for the least witness of a failure;
homomorphisms are checked over G.gens too.  The groupoid of germs of a
partial action is a groupoid by proof and is built without that check.  A
germ class is keyed by (s e_x, x); the tests check that key against the
paper's relation, (s, x) ~ (t, x) iff se = te for some idempotent e with x
in X_e (`germ_equivalent` in tests/oracles.py).  On finite discrete
groupoids every subset is compact-open, so the open and ample bisection
semigroups coincide and only the latter is exposed.  It is a model, like
I_n: its bisections are reached over a greedy generating set, every field
is read off the bisections, and `invsemi.tabulate` fills its table only
when it is read.
"""

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import count
from operator import itemgetter

from . import GermkitError, ResourceLimit, invsemi
from .invsemi import natural_leq


class GroupoidError(GermkitError):
    pass


class Timeout(ResourceLimit):
    def __init__(self, nodes):
        super().__init__(f"isomorphism search exhausted {nodes} nodes", nodes)
        self.nodes = nodes


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
    compose: tuple  # rows: compose[a] = {b: ab}, over exactly the b with source[a] == target[b]

    @cached_property
    def gens(self):
        """The `invsemi.closure` of the rows scanned by descending row
        length, ties by index: every arrow is a left-normed product of
        these.  Read on first use, never at construction, so a copy made
        with corrupted rows is built without reading them."""
        order = sorted(range(len(self.arrows)), key=lambda a: -len(self.compose[a]))
        return tuple(invsemi.closure(self.compose, order, self.source, self.target)[0])

    def __len__(self):
        return len(self.arrows)

    def composable(self, a, b):
        return self.source[a] == self.target[b]

    def mul(self, a, b):
        return self.compose[a][b]


def _arrows_by(end):
    """Arrow indices grouped by their unit end[a], each list increasing."""
    by_unit = {}
    for a, u in enumerate(end):
        by_unit.setdefault(u, []).append(a)
    return by_unit


def compose_table(source, target, mul):
    """The rows of a composition: row a is {b: mul(a, b)} over exactly the b
    with target[b] == source[a], in increasing b; one step per composable pair."""
    by_target = _arrows_by(target)
    return tuple({b: mul(a, b) for b in by_target.get(u, ())} for a, u in enumerate(source))


def partial_light_test(compose, source, target, gens):
    """Light's test on the rows compose: (xa)y = x(ay) for each a in gens,
    every x with xa defined (s(x) = t(a)) and every y with ay defined (y in
    row a).

    Read an undefined product as a zero 0 with 0z = z0 = 0.  When gens
    generates, this decides associativity of that magma with zero, provided
    an undefined xa or ay leaves (xa)y and x(ay) both undefined, and defined
    ones leave both defined: the other triples then read 0 = 0, and the a
    that pass all x, y are closed under products (Clifford-Preston I, 1.2).
    Both hold once every composite is typed (see `validate_groupoid`).
    O(sum over a of |column a| |row a|).
    """
    by_source = _arrows_by(source)
    for a in gens:
        row_a = compose[a]
        # of one key, itemgetter returns an entry, not a tuple, on both sides
        xa_y = itemgetter(*row_a)             # row of xa -> ((xa)y for y)
        x_ay = itemgetter(*row_a.values())    # row of x -> (x(ay) for y)
        for x in by_source[target[a]]:
            row_x = compose[x]
            if xa_y(compose[row_x[a]]) != x_ay(row_x):
                return False
    return True


def validate_groupoid(arrows, units, source, target, inverse, compose):
    """Check the groupoid axioms exactly; the first violation raises, with
    a witness.  compose is given as rows, compose[a] = {b: ab}, and each row
    is checked in one pass: its keys are the b with t(b) = s(a) (else the
    least wrong pair of that row is the witness), and each composite ab is
    an arrow with s(ab) = s(b) and t(ab) = t(a).  So every check but
    associativity costs O(|compose|).

    Associativity is Light's test (`partial_light_test`), (xa)y = x(ay) for
    a in A, s(x) = t(a) and t(y) = s(a), over A = G.gens of the groupoid
    built from the checked fields.  So that every arrow is a left-normed
    product of A is established, not assumed: spanning arrows or isotropy generators
    presuppose the associativity under test.  The test is exact:
    - by the earlier checks, compose is defined exactly on the composable
      pairs and every composite is typed, s(ab) = s(b) and t(ab) = t(a);
    - so with an undefined product read as 0, (xa)y != 0 iff s(x) = t(a)
      and t(y) = s(a) iff x(ay) != 0, and the untested triples read 0 = 0;
    - the a that pass for all x, y are closed under products, and A
      generates, so they are all of G;
    - units pass by the unit laws checked before, (xu)y = xy = x(uy), so
      only the other arrows of A are tested.
    Only when the test fails are the composable triples scanned, for the
    least (a, b, c) with (ab)c != a(bc).
    """
    arrows = tuple(arrows)
    n = len(arrows)
    units = tuple(units)
    source = tuple(source)
    target = tuple(target)
    inverse = tuple(inverse)
    compose = tuple(compose)
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
    if len(compose) != n:
        raise GroupoidError(f"compose has {len(compose)} rows, not one per arrow", len(compose))
    by_target = _arrows_by(target)
    into = {u: frozenset(bs) for u, bs in by_target.items()}
    for a, row in enumerate(compose):
        if row.keys() != into[source[a]]:
            for b in row:
                if not 0 <= b < n:
                    raise GroupoidError("compose key out of range", (a, b))
            b = min(row.keys() ^ into[source[a]])
            raise GroupoidError(f"compose defined on wrong pair ({arrows[a]}, {arrows[b]})", (a, b))
        t = target[a]
        for b, c in row.items():
            if not 0 <= c < n:
                raise GroupoidError("compose value out of range", (a, b))
            if source[c] != source[b] or target[c] != t:
                raise GroupoidError(f"composite {arrows[a]}*{arrows[b]} badly typed", (a, b))
    for a in range(n):
        if compose[a][source[a]] != a or compose[target[a]][a] != a:
            raise GroupoidError(f"units do not act as identities at {arrows[a]}", a)
        if inverse[inverse[a]] != a:
            raise GroupoidError(f"inverse is not an involution at {arrows[a]}", a)
        if compose[inverse[a]].get(a) != source[a] or compose[a].get(inverse[a]) != target[a]:
            raise GroupoidError(f"a^-1 a != s(a) at {arrows[a]}", a)
    G = FiniteGroupoid(arrows, units, source, target, inverse, compose)
    if not partial_light_test(compose, source, target, [a for a in G.gens if a not in unit_set]):
        # only reached when composition is not associative: its least triple
        for a in range(n):
            row_a = compose[a]
            for b in by_target[source[a]]:
                row_ab, row_b = compose[row_a[b]], compose[b]
                for c in by_target[source[b]]:
                    if row_ab[c] != row_a[row_b[c]]:
                        raise GroupoidError("composition is not associative", (a, b, c))
    return G


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


def groupoid_of_germs(theta):
    """Quotient of {(s,x) : x in X_{s*}} by the germ relation.

    The idempotents whose domain contains x have a least element e_x (their
    product: X_e and X_f meet inside X_ef), so (s,x) ~ (t,x) iff s e_x =
    t e_x and a class is keyed by (s e_x, x).  Classes are numbered in order
    of first appearance among the sorted pairs, so representatives are
    lexicographically minimal, which fixes the arrow order.

    theta is a partial action, so the quotient is a groupoid by proof and
    is not validated.  Write [s, x] for the class of (s, x) and z for
    theta_s(x).
    - Classes multiply by representatives: t e_y = e_x t e_y when x =
      theta_t(y), since t* e_x t is an idempotent whose domain holds y, so
      e_y <= t* e_x t and t e_y = t t* e_x t e_y = e_x t e_y.  Hence
      st e_y = s e_x t e_y depends on s only through s e_x.
    - x -> [e_x, x] is injective (the key holds x), so [s, x] and [t, y]
      compose exactly when x = theta_t(y), and `compose_table` takes
      exactly those pairs.  [s, theta_t(y)][t, y] = [st, y] is a defined
      pair by the composition law: theta_s theta_t is defined at y and
      contained in theta_st.  It is typed, with source the unit of y and
      target that of theta_st(y) = theta_s(theta_t(y)).
    - Associativity comes from S: both ways round give [rst, y].
    - [s e_x, x] = [s, x] and [e_z s, x] = [s, x] are the unit laws.
    - The inverse of [s, x] is [s*, z]: [s*, z][s, x] = [s*s, x] = [e_x, x],
      as e_x <= s*s, and [s, x][s*, z] = [e_z, z] likewise; it is a class
      map, s* e_z = (s e_x)* by the first point applied to s*.
    """
    S = theta.semigroup
    e_x = [reduce(S.mul, (e for e in S.idempotents if x in theta.maps[e]))
           for x in range(len(theta.carrier))]
    class_of_key = {}
    pair_class = {}
    reps = []
    for s, x in sorted(theta.pairs()):
        k = class_of_key.setdefault((S.mul(s, e_x[x]), x), len(reps))
        if k == len(reps):
            reps.append((s, x))
        pair_class[(s, x)] = k
    reps = tuple(reps)
    unit_of_point = tuple(class_of_key[(e, x)] for x, e in enumerate(e_x))

    source = []
    target = []
    inverse = []
    for s, x in reps:
        y = theta.theta(s, x)
        source.append(unit_of_point[x])
        target.append(unit_of_point[y])
        inverse.append(pair_class[(S.inv(s), y)])

    table = S.table

    def mul(a, b):
        (s, _), (t, y) = reps[a], reps[b]
        return pair_class[(table[s][t], y)]

    compose = compose_table(source, target, mul)
    units = tuple(sorted(set(unit_of_point)))
    names = tuple(f"[{S.name(s)},{theta.carrier[x]}]" for s, x in reps)
    gpd = FiniteGroupoid(names, units, tuple(source), tuple(target), tuple(inverse), compose)
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
    by_source = _arrows_by(G.source)
    iso = {u: tuple(a for a in by_source[u] if G.target[a] == u) for u in G.units}
    trivial = tuple(u for u in G.units if iso[u] == (u,))
    all_trivial = len(trivial) == len(G.units)
    return IsotropyReport(iso, trivial, all_trivial, all_trivial)


# --- bisections and the ample semigroup ---------------------------------------------

def is_bisection(G, arrow_set):
    srcs = [G.source[a] for a in arrow_set]
    tgts = [G.target[a] for a in arrow_set]
    return len(set(srcs)) == len(srcs) and len(set(tgts)) == len(tgts)


def right_multiplication(G, B):
    """A -> AB = {ab : a in A, b in B, s(a) = t(b)}.  B is grouped by target
    once, here, so each a meets only the b it composes with: a product costs
    O(|A|) on bisections, and is exact on any arrow sets."""
    by_target = {}
    for b in B:
        by_target.setdefault(G.target[b], []).append(b)
    compose, source = G.compose, G.source
    return lambda A: frozenset(compose[a][b] for a in A for b in by_target.get(source[a], ()))


def bisection_product(G, A, B):
    """AB, in O(|A| + |B|) on bisections (`right_multiplication`)."""
    return right_multiplication(G, B)(A)


def bisection_inverse(G, A):
    return frozenset(G.inverse[a] for a in A)


def all_bisections(G, max_count=20000):
    """Every subset of arrows on which source and target are injective."""
    by_source = _arrows_by(G.source)
    sources = sorted(by_source)
    out = []

    def rec(i, chosen, used_targets):
        if len(out) > max_count:
            raise ResourceLimit(f"more than {max_count} bisections")
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

    With generators given, only the inverse sub-semigroup they generate is
    built; without, every bisection is a generator.  Each given generator
    is checked in O(sum |g|): its arrows must lie in G and form a
    bisection, and the least offending index is the GroupoidError's
    witness.  The semigroup is a model, like I_n: nothing is validated and
    no table is filled at build time.

    The walk.  The generators and their inverses, deduplicated, are scanned
    by descending |U|, ties by first appearance; a candidate joins the
    letters A only when the walk has not reached it yet.  Each bisection U
    reached so far gives U c for a new letter c, and each newly reached U
    gives U a for every letter a, so each reached bisection is multiplied
    by each letter once: |bis| |A| products, each O(|U|), as each letter is
    grouped by target once, when it joins A (`right_multiplication`).
    The reached set is the closure of A under right products, so it is the
    semigroup A generates; every candidate is in it, so A generates the
    semigroup of the generators and their inverses, which is closed under
    inverse ((UV)^-1 = V^-1 U^-1).  A is kept as gens, and `invsemi.tabulate`
    fills the table from it the first time S.table is read.

    It is an inverse semigroup by proof, with U^-1 the inverse of U and the
    sets of units the idempotents.
    - The set product is associative, as G's composition is: (ab)c and
      a(bc) are defined together, when s(a) = t(b) and s(b) = t(c), and
      are equal.
    - U U^-1 U = U: uv^-1w is defined for u, v, w in U only when s(u) =
      s(v) and t(v) = t(w), that is u = v = w.
    - UU = U makes tau_U (`canonical_bisection_action`) an idempotent
      partial bijection, the identity on its domain, so each a in U has
      s(a) = t(a); then aa is the arrow of U = UU with the source of a:
      aa = a, a unit.  Sets of units commute, their product being their
      intersection, so the semigroup is inverse (Howie, Thm 5.1.1).
    The fields are read off the bisections.
    - d[U] = U^-1 U = {a^-1 a : a in U}, the units at the sources of U.
    - <= is inclusion: U e, for e a set of units, is {a in U : s(a) in e},
      a subset of U; and V subset of U is U d[V].  So below[U] is the row of
      U at E(S), as `invsemi._inverse_semigroup` reads it off a table, here
      off the payloads: for an idempotent e it holds the e f = e n f, f in
      E(S); for any other U, U e = U (e n d[U]) and e n d[U] is in
      below[d[U]], so it holds the restrictions of U to the e in below[d[U]],
      distinct as their sources are.  That is |E|^2 intersections and one
      restriction for each pair V <= U, no subset test.
    - A zero absorbs every idempotent, so it can only be their product, the
      intersection m.  It is the zero when ma = am = m for every letter a:
      then m absorbs every product of letters.  That is at most 2|A| more
      products.
    """
    if generators is None:
        gens = all_bisections(G, max_size)
    else:
        gens = [frozenset(g) for g in generators]
        arrows = range(len(G.arrows))
        for k, g in enumerate(gens):
            if not (all(a in arrows for a in g) and is_bisection(G, g)):
                raise GroupoidError(f"generator {k} is not a bisection of the groupoid", k)
    candidates = sorted(dict.fromkeys(gens + [bisection_inverse(G, g) for g in gens]), key=lambda U: -len(U))
    letters, times, reached = [], [], {}  # times[i] is U -> U letters[i]; reached is an ordered set
    for c in candidates:
        if c in reached:
            continue
        letters.append(c)
        times.append(times_c := right_multiplication(G, c))
        walk = [c] + [times_c(U) for U in reached]
        for U in walk:  # walk grows while it is scanned
            if U in reached:
                continue
            if len(reached) >= max_size:
                raise ResourceLimit(f"generated more than {max_size} bisections")
            reached[U] = None
            walk.extend(times_a(U) for times_a in times)
    bis = sorted(reached, key=lambda b: (len(b), sorted(b)))
    index = {b: i for i, b in enumerate(bis)}
    source = G.source
    d = tuple(index[frozenset(map(source.__getitem__, b))] for b in bis)
    idem = [i for i, e in enumerate(d) if e == i]
    below = [0] * len(bis)
    for e in idem:
        below[e] = sum(1 << index[f] for f in {bis[e] & bis[f] for f in idem})
    for i, U in enumerate(bis):
        if d[i] != i:
            by_source = {source[a]: a for a in U}
            below[i] = sum(1 << index[frozenset(map(by_source.__getitem__, bis[e]))]
                           for e in invsemi.members(below[d[i]]))
    zero = None
    if idem:
        m = frozenset.intersection(*(bis[e] for e in idem))
        times_m = right_multiplication(G, m)
        if all(times_a(m) == m == times_m(a) for a, times_a in zip(letters, times)):
            zero = index[m]
    S = invsemi.InverseSemigroup(
        tuple("{" + ",".join(G.arrows[a] for a in sorted(b)) + "}" for b in bis),
        lambda: invsemi.tabulate(bis, lambda U, V: bisection_product(G, U, V), letters),
        tuple(index[bisection_inverse(G, b)] for b in bis), d, zero,
        below=tuple(below), gens=tuple(index[a] for a in letters))
    return AmpleSemigroup(G, tuple(bis), S, index)


def canonical_bisection_action(amp):
    """The ample semigroup acting on unit points: tau_U = target o (source|_U)^-1.

    tau_U sends s(a) to t(a) for a in U, a bijection from the sources of U
    onto X_U, its targets, as U is a bisection.  tau is a homomorphism into
    I(X), so it is a global action and is not validated: ab in UV runs from
    s(b) to t(a) exactly when tau_V sends s(b) to t(b) = s(a) and tau_U sends
    s(a) to t(a), so tau_UV = tau_U tau_V; and a^-1 runs from t(a) to s(a),
    so tau_(U^-1) = tau_U^-1.  Both partial-action laws follow
    (`paction.validate_partial_action`), and no product is formed, so no
    table is filled.  It is non-degenerate iff every unit lies in an
    idempotent bisection, true by proof without generators ({u} is one)
    and checked here in O(sum |e|): the least uncovered unit is the
    Degenerate witness, as the validator gives it.
    """
    from . import paction

    G = amp.groupoid
    upos = {u: i for i, u in enumerate(G.units)}
    carrier = tuple(G.arrows[u] for u in G.units)
    domains = []
    maps = []
    for b in amp.bisections:
        domains.append(tuple(sorted(upos[G.target[a]] for a in b)))
        maps.append({upos[G.source[a]]: upos[G.target[a]] for a in b})
    covered = set().union(*(amp.bisections[e] for e in amp.semigroup.idempotents))
    for x, u in enumerate(G.units):
        if u not in covered:
            raise paction.Degenerate(f"carrier point {carrier[x]} lies in no idempotent domain", x)
    return paction.PartialAction(amp.semigroup, carrier, tuple(domains), tuple(maps))


@dataclass
class FullPseudogroupReport:
    injective: bool
    witness: object  # the least pair of arrows a < b with equal ends, or None
    effective: bool
    theorem_holds: bool


def full_pseudogroup(G):
    """Whether tau, U -> tau_U = {(s(a), t(a)) : a in U}, is injective on
    bisections, and whether G is effective; the theorem says they agree.

    Decided in O(|arrows|): tau is injective iff a -> (s(a), t(a)) is.
    Arrows a != b with equal ends give tau({a}) = tau({b}), and the least
    such pair is the witness; otherwise U is read back from tau(U).  They
    exist iff b^-1 a is an isotropy arrow other than the unit s(a), that is
    iff G is not effective (`isotropy_report`).
    """
    by_ends = {}
    for a, ends in enumerate(zip(G.source, G.target)):
        by_ends.setdefault(ends, []).append(a)
    witness = min((tuple(arrows[:2]) for arrows in by_ends.values() if len(arrows) > 1), default=None)
    effective = isotropy_report(G).effective
    return FullPseudogroupReport(witness is None, witness, effective, (witness is None) == effective)


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
    if not _hom_over_gens(G, H, psi):
        # only reached when psi is no homomorphism: its least pair
        for a, row in enumerate(G.compose):
            row_h = H.compose[psi[a]]
            for b, c in row.items():
                if row_h.get(psi[b]) != psi[c]:
                    raise GroupoidError("induced map is not a homomorphism", (a, b))
    return psi


def _hom_over_gens(G, H, f):
    """Whether f(ag) = f(a)f(g), defined in H, for every g in G.gens and
    every a with ag defined: O(|G.gens| columns), not O(|compose|).

    This decides f(ab) = f(a)f(b) for every composable pair once G and H
    are validated (associative, composites typed).  Every arrow b is a
    generator or b = wg, g in G.gens and w reached before b by
    `invsemi.closure`.  By induction on that order, ab = (aw)g with both
    products defined, so f(ab) = f(aw)f(g) = (f(a)f(w))f(g) =
    f(a)(f(w)f(g)) = f(a)f(wg): the check at (aw, g), induction at (a, w),
    H's associativity (the left side is defined, so is the right) and the
    check at (w, g).
    """
    by_source = _arrows_by(G.source)
    for g in G.gens:
        fg = f[g]
        for a in by_source[G.target[g]]:
            if H.compose[f[a]].get(fg) != f[G.compose[a][g]]:
                return False
    return True


# --- isomorphism by orbit structure -------------------------------------------------

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
    """Whether iso.arrow_map is a bijection of the arrows that preserves
    source, target, inverse and, checked over G.gens, products."""
    G, H, amap = iso.source, iso.target, iso.arrow_map
    if sorted(amap) != list(range(len(H.arrows))) or len(amap) != len(G.arrows):
        return False
    for a in range(len(G.arrows)):
        if H.source[amap[a]] != amap[G.source[a]] or H.target[amap[a]] != amap[G.target[a]]:
            return False
        if amap[G.inverse[a]] != H.inverse[amap[a]]:
            return False
    return _hom_over_gens(G, H, amap)


def _orbits(G):
    """(span, iso) per orbit of G, in order of its least unit u0: span maps
    each unit v of the orbit to t_v, the least arrow u0 -> v, in the order of
    those arrows, and iso lists the isotropy group at u0 in index order."""
    by_source = _arrows_by(G.source)
    orbits, seen = [], set()
    for u0 in sorted(G.units):
        if u0 not in seen:
            span = {}
            for a in by_source[u0]:
                span.setdefault(G.target[a], a)
            seen.update(span)
            orbits.append((span, [a for a in by_source[u0] if G.target[a] == u0]))
    return orbits


def _group(G, iso):
    """The Cayley table of the isotropy group iso over its positions, and element orders."""
    pos = {a: i for i, a in enumerate(iso)}
    tbl = [[pos[G.compose[a][b]] for b in iso] for a in iso]
    return tbl, [len(_close(tbl, tbl, {x: x}, [x])) for x in range(len(iso))]  # |<x>| = ord x


def _close(K, L, f, gens):
    """f extended breadth-first by f(x a) = f(x) f(a) for a in gens, as
    `invsemi.tabulate` walks the right Cayley graph; None when that clashes
    or is not injective.  What passes is a homomorphism on <gens>."""
    queue = list(f)
    for x in queue:  # queue grows while it is scanned
        for a in gens:
            y, fy = K[x][a], L[f[x]][f[a]]
            if y not in f:
                f[y] = fy
                queue.append(y)
            elif f[y] != fy:
                return None
    return f if len(set(f.values())) == len(f) else None


def _group_iso(K, L, tick):
    """An isomorphism {position: position} between the groups K and L of
    `_group`, or None.  Generator g_k of K's `invsemi.closure`, scanned in
    index order, is not in <g_1..g_{k-1}>, so it goes to each element of its
    order outside the image of that subgroup in index order, which sends K
    against itself to the identity."""
    (tk, ok), (tl, ol) = K, L
    if sorted(ok) != sorted(ol):
        return None
    one_unit = (0,) * len(tk)
    gens, _ = invsemi.closure(tk, range(len(tk)), one_unit, one_unit)

    def extend(f, k):
        if f is None or k == len(gens):
            return f
        for c in range(len(tl)):
            if ol[c] == ok[gens[k]] and c not in f.values():
                tick()
                found = extend(_close(tk, tl, {**f, gens[k]: c}, gens[:k + 1]), k + 1)
                if found is not None:
                    return found
        return None

    return extend({}, 0)


def groupoid_iso_search(G, H, timeout_nodes=500000):
    """An isomorphism G -> H read off the orbit structure, or None.

    An orbit with m units and isotropy group K at its least unit is the pair
    groupoid on m points times K (Brown, Topology and Groupoids, ch. 6).  Each
    orbit of G goes to the first unmatched orbit of H with m units and isotropy
    isomorphic to K by some f (greedy is exact: isomorphism is an equivalence);
    with sigma pairing units in spanning-arrow order, a: u -> w goes to
    t'_{sigma w} f(t_w^-1 a t_u) t'_{sigma u}^-1.  `Timeout` is raised past
    timeout_nodes orbit pairings plus generator images tried."""
    if len(G.arrows) != len(H.arrows) or len(G.units) != len(H.units):
        return None
    nodes = count(1)

    def tick():
        if next(nodes) > timeout_nodes:
            raise Timeout(timeout_nodes + 1)

    frame = {}  # unit u of G -> (t_u, t'_{sigma u}, f on isotropy arrows)
    pending = _orbits(H)
    for span, iso in _orbits(G):
        for j, (span2, iso2) in enumerate(pending):
            if len(span2) == len(span) and len(iso2) == len(iso):
                tick()
                f = _group_iso(_group(G, iso), _group(H, iso2), tick)
                if f is not None:
                    break
        else:
            return None
        del pending[j]
        phi = {a: iso2[f[i]] for i, a in enumerate(iso)}
        for (u, t), t2 in zip(span.items(), span2.values()):
            frame[u] = (t, t2, phi)
    amap = []
    for a in range(len(G.arrows)):
        tu, tu2, phi = frame[G.source[a]]
        tw, tw2, _ = frame[G.target[a]]
        k = G.compose[G.inverse[tw]][G.compose[a][tu]]
        amap.append(H.compose[tw2][H.compose[phi[k]][H.inverse[tu2]]])
    iso = GroupoidIso(G, H, tuple(amap))
    if not verify_groupoid_iso(iso):
        raise GroupoidError("the arrow map built from the orbits is not an isomorphism")
    return iso
