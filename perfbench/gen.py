"""Seeded input generators and known-answer oracles, in plain Python.

Nothing here imports germkit: the benchmark builds every table, action,
graph and document itself, and every expected verdict is computed here from
closed forms or from first principles, never by asking germkit.

Conventions: a semigroup is a `Table` (names, Cayley table, inverses,
idempotents); a partial action is an `Action` whose `domains[s]` is the
sorted tuple X_s and whose `maps[s]` sends X_{s*} onto X_s.  Partial
bijections of {0..n-1} are tuples with -1 for "undefined", and the product
a*b applies b first.
"""

import json
from dataclasses import dataclass
from math import comb, factorial


# --- semigroups ----------------------------------------------------------------


@dataclass
class Table:
    names: list
    table: list
    inv: list
    idem: list

    def __len__(self):
        return len(self.names)

    def mul(self, a, b):
        return self.table[a][b]

    def leq(self, s, t):
        """Natural partial order: s = t s* s."""
        tab = self.table
        return tab[tab[t][self.inv[s]]][s] == s


def _inverses(table):
    n = len(table)
    inv = []
    for i in range(n):
        cands = [j for j in range(n)
                 if table[table[i][j]][i] == i and table[table[j][i]][j] == j]
        if len(cands) != 1:
            raise ValueError(f"generated element {i} has {len(cands)} inverses")
        inv.append(cands[0])
    return inv


def table_from(elements, mul, name, key):
    """Index `elements` in `key` order and tabulate `mul`."""
    elements = sorted(elements, key=key)
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    inv = _inverses(table)
    idem = [i for i in range(len(elements)) if table[i][i] == i]
    return Table([name(e) for e in elements], table, inv, idem)


def pb_mul(a, b):
    return tuple(-1 if y < 0 else a[y] for y in b)


def pb_inv(a):
    out = [-1] * len(a)
    for x, y in enumerate(a):
        if y >= 0:
            out[y] = x
    return tuple(out)


def pb_name(a):
    return "[" + " ".join(f"{x + 1}>{y + 1}" for x, y in enumerate(a) if y >= 0) + "]"


def pb_key(a):
    return (sum(1 for y in a if y >= 0), a)


def all_partial_bijections(n):
    out = [()]
    for x in range(n):
        out = [f + (y,) for f in out for y in range(-1, n) if y < 0 or y not in f]
    return out


def symmetric_size(n):
    """|I_n| = sum_k C(n,k)^2 k!"""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def symmetric(n):
    return table_from(all_partial_bijections(n), pb_mul, pb_name, pb_key)


def exel_size(n):
    """|S(Z_n)| = (n+1) 2^(n-2)"""
    return (n + 1) * 2 ** (n - 2)


def exel(n):
    """S(Z_n) in standard forms (R, g): R a set of group elements other than
    0 and g; (R,g)(Q,h) = ((R u (g+Q) u {g}) minus {0, g+h}, g+h)."""
    forms = []
    for g in range(n):
        pool = [r for r in range(1, n) if r != g]
        subsets = [frozenset()]
        for r in pool:
            subsets += [s | {r} for s in subsets]
        forms += [(R, g) for R in subsets]

    def mul(a, b):
        (R, g), (Q, h) = a, b
        gh = (g + h) % n
        return (frozenset((R | {(g + q) % n for q in Q} | {g}) - {0, gh}), gh)

    def name(f):
        return "".join(f"e({r})" for r in sorted(f[0])) + f"[{f[1]}]"

    return table_from(forms, mul, name, lambda f: (len(f[0]), sorted(f[0]), f[1]))


def random_partial_bijection(rng, n):
    dom = [x for x in range(n) if rng.random() < 0.75]
    img = rng.sample(range(n), len(dom))
    out = [-1] * n
    for x, y in zip(dom, img):
        out[x] = y
    return tuple(out)


def closure(gens, limit):
    """Close under product and inverse; None once more than `limit` elements."""
    seen = set(gens) | {pb_inv(g) for g in gens}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for b in list(seen):
                for c in (pb_mul(a, b), pb_mul(b, a)):
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
                        if len(seen) > limit:
                            return None
        frontier = new
    return seen


def random_subsemigroup(rng, n, k, limit, shapes=None):
    """The inverse subsemigroup of I_n closed from k random partial
    bijections; None when it has more than `limit` elements, or when its
    (|S|, |E|) is not in `shapes` (checked before the table is built)."""
    gens = [random_partial_bijection(rng, n) for _ in range(k)]
    elements = closure(gens, limit)
    if elements is None:
        return None
    if shapes is not None:
        idem = sum(1 for a in elements if all(y < 0 or y == x for x, y in enumerate(a)))
        if (len(elements), idem) not in shapes:
            return None
    return table_from(elements, pb_mul, pb_name, pb_key)


def fill_slots(rng, slots, draw, pool):
    """One distinct random input per slot, each of the slot's signature.

    The slot list fixes the ladder's shape, and so its cost, for every seed;
    the seed decides which concrete inputs fill it.  Exactly `pool` draws
    are made (more only while a slot is still empty), so set-up time does
    not depend on the seed either.  `draw(rng, wanted)` returns (signature,
    key, item) candidates and may skip signatures not in `wanted`."""
    need = {}
    for s in slots:
        need[s] = need.get(s, 0) + 1
    got = {s: [] for s in need}
    seen = set()
    draws = 0
    while draws < pool or any(len(got[s]) < need[s] for s in need):
        draws += 1
        if draws > 100 * pool:
            raise RuntimeError(f"ladder slots still empty after {draws} draws")
        wanted = {s for s in need if len(got[s]) < need[s]}
        for sig, key, item in draw(rng, wanted):
            if sig in wanted and len(got[sig]) < need[sig] and key not in seen:
                seen.add(key)
                got[sig].append(item)
    return [got[s].pop(0) for s in slots]


def subsemigroup_draw(n_choices, limit):
    """A `fill_slots` draw for slots keyed by (|S|, |E|): a random
    subsemigroup of I_n, n from n_choices, keyed by its element names.
    The closure limit stays fixed so that every draw costs alike."""
    def draw(rng, wanted):
        n = rng.choice(n_choices)
        T = random_subsemigroup(rng, n, rng.randint(1, 3), limit, wanted)
        return [] if T is None else [((len(T), len(T.idem)), tuple(T.names), T)]
    return draw


def min_idempotent(T):
    z = T.idem[0]
    for e in T.idem:
        z = T.mul(z, e)
    return z


def group_image_size(T):
    """s ~ t in the minimum group congruence iff sz = tz, z the least idempotent."""
    z = min_idempotent(T)
    return len({T.mul(s, z) for s in range(len(T))})


def is_e_unitary(T):
    """E-unitary iff the group-congruence class of the idempotents holds only
    idempotents, i.e. every s with sz = z is idempotent."""
    z = min_idempotent(T)
    idem = set(T.idem)
    return all(s in idem for s in range(len(T)) if T.mul(s, z) == z)


def associativity_witness(T, i, j):
    """A non-associative triple through the entry (i, j), or None."""
    tab = T.table
    n = len(tab)
    for c in range(n):
        if tab[tab[i][j]][c] != tab[i][tab[j][c]]:
            return (i, j, c)
        if tab[tab[c][i]][j] != tab[c][tab[i][j]]:
            return (c, i, j)
    for a in range(n):
        for b in range(n):
            if tab[a][b] == i and tab[i][j] != tab[a][tab[b][j]]:
                return (a, b, j)
            if tab[a][b] == j and tab[tab[i][a]][b] != tab[i][j]:
                return (i, a, b)
    return None


def corrupt_table(T, rng):
    """A copy of T with one entry changed, kept only once an independent
    check finds a non-associative triple or an element whose generalized
    inverse is no longer unique."""
    n = len(T)
    while True:
        i, j = rng.randrange(n), rng.randrange(n)
        v = rng.randrange(n)
        if v == T.table[i][j]:
            continue
        table = [list(row) for row in T.table]
        table[i][j] = v
        bad = Table(T.names, table, T.inv, T.idem)
        witness = associativity_witness(bad, i, j)
        if witness is None:
            try:
                _inverses(table)
            except ValueError:
                witness = ("inverse", i, j)
        if witness is not None:
            return table, witness


# --- partial actions --------------------------------------------------------------


@dataclass
class Action:
    semigroup: Table
    carrier: list
    domains: list
    maps: list

    def l_dim(self):
        return sum(len(d) for d in self.domains)


def munn(T):
    """Munn representation on E(S): X_s = {e <= ss*}, theta_s(e) = ses*."""
    E = T.idem
    pos = {e: k for k, e in enumerate(E)}
    domains, maps = [], []
    for s in range(len(T)):
        ss_, s_s = T.mul(s, T.inv[s]), T.mul(T.inv[s], s)
        domains.append(tuple(pos[e] for e in E if T.mul(e, ss_) == e))
        maps.append({pos[e]: pos[T.mul(T.mul(s, e), T.inv[s])]
                     for e in E if T.mul(e, s_s) == e})
    return Action(T, [T.names[e] for e in E], domains, maps)


def self_action(T):
    """Left translation: D_s = {t : tt* <= ss*}, alpha_s(t) = st."""
    n = len(T)
    rng_of = [T.mul(t, T.inv[t]) for t in range(n)]
    domains, maps = [], []
    for s in range(n):
        ss_, s_s = T.mul(s, T.inv[s]), T.mul(T.inv[s], s)
        domains.append(tuple(t for t in range(n) if T.mul(rng_of[t], ss_) == rng_of[t]))
        maps.append({t: T.mul(s, t) for t in range(n) if T.mul(rng_of[t], s_s) == rng_of[t]})
    return Action(T, list(T.names), domains, maps)


def _least_idempotent_at(A):
    """e_x, the product of every idempotent whose domain holds x."""
    T = A.semigroup
    out = {}
    for e in T.idem:
        for x in A.domains[e]:
            out[x] = e if x not in out else T.mul(out[x], e)
    return out


def germ_arrows(A):
    """Germ classes: (s,x) ~ (t,x) iff s e_x = t e_x."""
    T = A.semigroup
    ex = _least_idempotent_at(A)
    return len({(T.mul(s, ex[x]), x) for s in range(len(T)) for x in A.maps[s]})


def self_action_arrows(T):
    """Germs of the self action: sum over idempotents e of #{s : s*s = e}^2."""
    count = {}
    for s in range(len(T)):
        e = T.mul(T.inv[s], s)
        count[e] = count.get(e, 0) + 1
    return sum(c * c for c in count.values())


def n_generators(A):
    """Rows spanning N: 1_x delta_r - 1_x delta_s for r < s, x in X_r."""
    T = A.semigroup
    return sum(len(A.domains[r]) for r in range(len(T)) for s in range(len(T))
               if r != s and T.leq(r, s))


def lambda_points(A):
    """Points where every germ fixing the point is a unit germ."""
    T = A.semigroup
    ex = _least_idempotent_at(A)
    return tuple(x for x in range(len(A.carrier))
                 if all(T.mul(s, ex[x]) == ex[x]
                        for s in range(len(T)) if A.maps[s].get(x) == x))


def corrupt_map(A, rng):
    """Change one value of one map; independently check that theta_s is no
    longer a bijection onto X_s inverse to theta_{s*}."""
    T = A.semigroup
    candidates = [s for s in range(len(T)) if A.maps[s]]
    if len(A.carrier) < 2:
        return None  # a one-point carrier admits no other map value
    while True:
        s = rng.choice(candidates)
        x = rng.choice(sorted(A.maps[s]))
        y = rng.randrange(len(A.carrier))
        if y == A.maps[s][x]:
            continue
        maps = [dict(m) for m in A.maps]
        maps[s][x] = y
        theta = maps[s]
        back = maps[T.inv[s]]
        broken = (set(theta.values()) != set(A.domains[s])
                  or len(set(theta.values())) != len(theta)
                  or any(back.get(v) != u for u, v in theta.items()))
        if broken:
            return Action(T, A.carrier, A.domains, maps), (s, x)


def relabel(A, rng, prefix):
    """An isomorphic copy with element and carrier order permuted and every
    name replaced, so an isomorphism search cannot succeed on the identity."""
    T = A.semigroup
    n, m = len(T), len(A.carrier)
    perm = list(range(n))
    rng.shuffle(perm)          # new index k holds old element perm[k]
    cperm = list(range(m))
    while m > 1 and cperm == list(range(m)):
        rng.shuffle(cperm)
    new_of = {old: k for k, old in enumerate(perm)}
    cnew_of = {old: k for k, old in enumerate(cperm)}
    table = [[new_of[T.table[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]
    inv = [new_of[T.inv[perm[a]]] for a in range(n)]
    idem = sorted(new_of[e] for e in T.idem)
    T2 = Table([f"{prefix}s{k}" for k in range(n)], table, inv, idem)
    domains = [tuple(sorted(cnew_of[x] for x in A.domains[perm[k]])) for k in range(n)]
    maps = [{cnew_of[x]: cnew_of[y] for x, y in A.maps[perm[k]].items()} for k in range(n)]
    return Action(T2, [f"{prefix}p{k}" for k in range(m)], domains, maps)


# --- graphs --------------------------------------------------------------------------


@dataclass
class Graph:
    vertices: list
    edges: list  # (name, src index, dst index)

    def out_edges(self, v):
        return [e for e in self.edges if e[1] == v]


def random_dag(rng, nv, ne):
    """Edges only run from lower to higher vertex index, so the graph is acyclic."""
    pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
    chosen = sorted(rng.sample(pairs, min(ne, len(pairs))))
    return Graph([f"v{k}" for k in range(nv)], [(f"ve{k}", a, b) for k, (a, b) in enumerate(chosen)])


def relabel_graph(g, rng, prefix):
    perm = list(range(len(g.vertices)))
    rng.shuffle(perm)
    new_of = {old: k for k, old in enumerate(perm)}
    edges = list(g.edges)
    rng.shuffle(edges)
    return Graph([f"{prefix}{k}" for k in range(len(perm))],
                 [(f"{prefix}e{k}", new_of[a], new_of[b]) for k, (_, a, b) in enumerate(edges)])


def paths_ending_at(g):
    """n_v: the number of finite paths (length 0 included) that end at v."""
    memo = {}

    def count(v):
        if v not in memo:
            memo[v] = 1 + sum(count(a) for _, a, b in g.edges if b == v)
        return memo[v]

    return [count(v) for v in range(len(g.vertices))]


def boundary_orbits(g):
    """Boundary points per sink: the paths that end at each sink."""
    count = paths_ending_at(g)
    return sorted(count[v] for v in range(len(g.vertices)) if not g.out_edges(v))


def boundary_arrows(g):
    """Arrows of the boundary groupoid: sum over sinks of n_v^2."""
    return sum(c * c for c in boundary_orbits(g))


def leavitt_checks(g):
    """(expression, equals, expected) triples from the Cuntz-Krieger
    relations: e*e = r(e), and v = sum of ee* over the edges leaving v,
    which fails for a single term when v emits two or more edges.  Two
    instances of the first relation, then one of each of the others."""
    first = [(f"(* {n}* {n})", g.vertices[b], True) for n, _, b in g.edges]
    second, false = [], []
    for v, vname in enumerate(g.vertices):
        outs = g.out_edges(v)
        if outs:
            terms = " ".join(f"(* {n} {n}*)" for n, _, _ in outs)
            second.append((f"(+ {terms})", vname, True))
        if len(outs) >= 2:
            n = outs[0][0]
            false.append((f"(* {n} {n}*)", vname, False))
    return first[:2] + second[:1] + false[:1]


# --- JSON documents -----------------------------------------------------------------


def semigroup_doc(T, table=None):
    return {"schema": "semigroup", "version": 1, "elements": list(T.names),
            "table": [list(r) for r in (table or T.table)]}


def action_doc(A):
    T = A.semigroup
    return {
        "schema": "action", "version": 1,
        "semigroup": {"elements": list(T.names), "table": [list(r) for r in T.table]},
        "carrier": list(A.carrier),
        "domains": {T.names[s]: [A.carrier[x] for x in A.domains[s]] for s in range(len(T))},
        "maps": {T.names[s]: {A.carrier[x]: A.carrier[y] for x, y in sorted(A.maps[s].items())}
                 for s in range(len(T))},
    }


def graph_doc(g):
    return {"schema": "graph", "version": 1, "vertices": list(g.vertices),
            "edges": [{"name": n, "src": g.vertices[a], "dst": g.vertices[b]}
                      for n, a, b in g.edges]}


def leavitt_doc(graph_ref, expr):
    return {"schema": "leavitt-expr", "version": 1, "graph": graph_ref, "expr": expr}


def dumps(doc):
    return json.dumps(doc, sort_keys=True)
