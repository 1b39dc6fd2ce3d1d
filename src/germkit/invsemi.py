"""Finite inverse semigroups as index-based Cayley tables.

Elements are identified by their index into a declared name list; every
structural fact (inverses, idempotents, natural order) is computed from the
table and re-checked at construction time.  The natural partial order is a
bit matrix computed once there: below[t] is an int whose bit s is set iff
s <= t, and every order query reads it.
"""

from dataclasses import dataclass, field
from itertools import combinations


class SemigroupError(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotAssociative(SemigroupError):
    pass


class NoInverse(SemigroupError):
    pass


class NonUniqueInverse(SemigroupError):
    pass


class TooLarge(SemigroupError):
    pass


@dataclass(frozen=True)
class InverseSemigroup:
    elements: tuple
    table: tuple
    inverse: tuple
    idempotents: tuple
    zero: object = None
    below: tuple = field(kw_only=True, compare=False, repr=False)

    def __len__(self):
        return len(self.elements)

    def mul(self, i, j):
        return self.table[i][j]

    def prod(self, *idxs):
        acc = idxs[0]
        for j in idxs[1:]:
            acc = self.table[acc][j]
        return acc

    def inv(self, i):
        return self.inverse[i]

    def is_idempotent(self, i):
        return self.table[i][i] == i

    def index(self, name):
        return self.elements.index(name)

    def name(self, i):
        return self.elements[i]


def validate_inverse_semigroup(elements, table):
    """Check a Cayley table and return the inverse semigroup it defines.

    Rejects non-associative tables and tables where some element lacks a
    unique generalized inverse, with the first witness in index order.
    """
    n = len(elements)
    elements = tuple(elements)
    if len(set(elements)) != n:
        raise SemigroupError("duplicate element names")
    if len(table) != n or any(len(row) != n for row in table):
        raise SemigroupError("table must be n x n")
    tbl = tuple(tuple(row) for row in table)
    for i in range(n):
        for j in range(n):
            if not (0 <= tbl[i][j] < n):
                raise SemigroupError("table entry out of range", (i, j))
    for i in range(n):
        for j in range(n):
            ij = tbl[i][j]
            row_i = tbl[i]
            for k in range(n):
                if tbl[ij][k] != row_i[tbl[j][k]]:
                    raise NotAssociative(
                        f"({elements[i]}*{elements[j]})*{elements[k]} != "
                        f"{elements[i]}*({elements[j]}*{elements[k]})",
                        (i, j, k),
                    )
    inverse = []
    for i in range(n):
        cands = [
            j
            for j in range(n)
            if tbl[tbl[i][j]][i] == i and tbl[tbl[j][i]][j] == j
        ]
        if not cands:
            raise NoInverse(f"{elements[i]} has no generalized inverse", i)
        if len(cands) > 1:
            raise NonUniqueInverse(
                f"{elements[i]} has inverses {elements[cands[0]]} and {elements[cands[1]]}",
                (i, cands[0], cands[1]),
            )
        inverse.append(cands[0])
    idem = tuple(i for i in range(n) if tbl[i][i] == i)
    for e, f in combinations(idem, 2):
        if tbl[e][f] != tbl[f][e]:  # cannot happen once inverses are unique
            raise SemigroupError("idempotents do not commute", (e, f))
    zero = None
    for z in range(n):
        if all(tbl[z][i] == z and tbl[i][z] == z for i in range(n)):
            zero = z
            break
    # s <= t in the natural partial order iff s = t s* s
    below = [0] * n
    for s in range(n):
        s_s = tbl[inverse[s]][s]
        for t in range(n):
            if tbl[t][s_s] == s:
                below[t] |= 1 << s
    return InverseSemigroup(elements, tbl, tuple(inverse), idem, zero, below=tuple(below))


def natural_leq(S, s, t):
    """s <= t in the natural partial order: s = t s* s."""
    return bool(S.below[t] >> s & 1)


def members(mask):
    """The set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def common_lower_bounds(S, s, t):
    return list(members(S.below[s] & S.below[t]))


def is_compatible(S, s, t):
    """s*t and st* both idempotent."""
    return S.is_idempotent(S.mul(S.inv(s), t)) and S.is_idempotent(S.mul(s, S.inv(t)))


def compatible_meet(S, s, t):
    """The meet s^t = st*t = ts*s when s,t are compatible; None otherwise."""
    if not is_compatible(S, s, t):
        return None
    m1 = S.prod(s, S.inv(t), t)
    m2 = S.prod(t, S.inv(s), s)
    if m1 != m2:
        return None
    return m1


def is_e_unitary(S):
    """(flag, witness): every element above an idempotent is idempotent.

    On failure the witness is the first pair (e, s) with e idempotent,
    e <= s and s not idempotent.
    """
    for e in S.idempotents:
        for s in range(len(S)):
            if not S.is_idempotent(s) and natural_leq(S, e, s):
                return False, (e, s)
    return True, None


def e_unitary_via_compatibility(S):
    """Equivalent test: every pair with a common lower bound is compatible."""
    for s in range(len(S)):
        for t in range(s, len(S)):
            if S.below[s] & S.below[t] and not is_compatible(S, s, t):
                return False, (s, t)
    return True, None


def is_weak_semilattice(S):
    """Always true on finite S; returns the covering family per pair.

    The family maps each pair (s, t) with s <= t in index order to the
    antichain of maximal common lower bounds (empty when there are none).
    """
    below = S.below
    # pairs with the same common lower bounds share one antichain tuple,
    # which keeps the family small (I_4: 21945 pairs)
    antichains = {}
    family = {}
    for s in range(len(S)):
        for t in range(s, len(S)):
            clb = below[s] & below[t]
            if clb not in antichains:
                covered = 0
                for v in members(clb):
                    covered |= below[v] ^ (1 << v)
                antichains[clb] = tuple(members(clb & ~covered))
            family[(s, t)] = antichains[clb]
    return True, family


@dataclass(frozen=True)
class GroupImage:
    group: InverseSemigroup
    class_of: tuple


def max_group_image(S):
    """Quotient by s ~ t iff s,t have a common lower bound (the minimum group
    congruence), computed by union-find with transitive closure."""
    n = len(S)
    below = S.below
    root = union_find(n, ((s, t) for s in range(n) for t in range(s + 1, n) if below[s] & below[t]))
    reps = sorted(set(root))
    rep_index = {r: k for k, r in enumerate(reps)}
    class_of = tuple(rep_index[r] for r in root)
    m = len(reps)
    tbl = [[None] * m for _ in range(m)]
    for a, ra in enumerate(reps):
        for b, rb in enumerate(reps):
            tbl[a][b] = class_of[S.mul(ra, rb)]
    # the congruence property makes the table member-independent; check it
    for s in range(n):
        for t in range(n):
            if class_of[S.mul(s, t)] != tbl[class_of[s]][class_of[t]]:
                raise SemigroupError("group congruence failed", (s, t))
    names = tuple(f"[{S.elements[r]}]" for r in reps)
    G = validate_inverse_semigroup(names, tbl)
    if len(G.idempotents) != 1:
        raise SemigroupError("maximal group image is not a group")
    return GroupImage(G, class_of)


def union_find(n, pairs):
    """Classes of the equivalence on range(n) generated by pairs.

    Returns a tuple mapping each i to the least member of its class; the
    result does not depend on the order of the pairs.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            # the smaller root wins, so each root stays the least of its class
            if rj < ri:
                ri, rj = rj, ri
            parent[rj] = ri
    return tuple(find(i) for i in range(n))


def is_group(S):
    return len(S.idempotents) == 1


# --- Exel's universal inverse semigroup of a group ----------------------------

@dataclass(frozen=True)
class ExelSemigroup:
    """S(G) in standard forms (eps, g): eps a set of group elements distinct
    from each other, from 1 and from g.  Index-aligned with .semigroup."""

    semigroup: InverseSemigroup
    forms: tuple
    group: InverseSemigroup
    of_group: tuple


def exel_semigroup(G, max_elements=4096):
    """The universal inverse semigroup of a finite group G.

    Elements are standard forms eps_{r1}...eps_{rn}[g] with r1..rn, g
    pairwise distinct and ri != 1; the product rule is
    (eps_R [g])(eps_Q [h]) = eps_{(R u gQ u {g}) \\ {1, gh}} [gh].
    """
    if not is_group(G):
        raise SemigroupError("exel_semigroup needs a group")
    one = G.idempotents[0]
    n = len(G)
    others = [g for g in range(n) if g != one]
    count = sum(2 ** (n - 1 - (0 if g == one else 1)) for g in range(n))
    if count > max_elements:
        raise TooLarge(f"|S(G)| = {count} exceeds {max_elements}")

    forms = []
    for g in range(n):
        pool = [r for r in others if r != g]
        subsets = [frozenset()]
        for r in pool:
            subsets += [s | {r} for s in subsets]
        for R in subsets:
            forms.append((R, g))
    forms.sort(key=lambda fg: (len(fg[0]), sorted(fg[0]), fg[1]))
    index = {fg: i for i, fg in enumerate(forms)}

    def mul(a, b):
        R, g = a
        Q, h = b
        gh = G.mul(g, h)
        R2 = (R | {G.mul(g, q) for q in Q} | {g}) - {one, gh}
        return (frozenset(R2), gh)

    def fmt(fg):
        R, g = fg
        eps = "".join(f"e({G.elements[r]})" for r in sorted(R))
        return f"{eps}[{G.elements[g]}]"

    names = tuple(fmt(fg) for fg in forms)
    tbl = [[index[mul(a, b)] for b in forms] for a in forms]
    S = validate_inverse_semigroup(names, tbl)
    of_group = tuple(index[(frozenset(), g)] for g in range(n))
    return ExelSemigroup(S, tuple(forms), G, of_group)


# --- symmetric inverse semigroup ----------------------------------------------

@dataclass(frozen=True)
class PartialBijection:
    mapping: tuple  # sorted tuple of (x, f(x)) pairs on 0..n-1

    def domain(self):
        return tuple(x for x, _ in self.mapping)

    def codomain(self):
        return tuple(sorted(y for _, y in self.mapping))

    def as_dict(self):
        return dict(self.mapping)


def compose_partial(f, g):
    """f after g: dom = g^{-1}(ran g n dom f)."""
    fd = f.as_dict()
    pairs = tuple(sorted((x, fd[y]) for x, y in g.mapping if y in fd))
    return PartialBijection(pairs)


def invert_partial(f):
    return PartialBijection(tuple(sorted((y, x) for x, y in f.mapping)))


def symmetric_inverse_semigroup(n, max_elements=600):
    """I({1..n}): all partial bijections of an n-point set.

    Returns (InverseSemigroup, tuple of PartialBijection payloads).
    """
    points = list(range(n))
    maps = []
    subsets = [()]
    for p in points:
        subsets += [s + (p,) for s in subsets]

    def injections(dom, ran_pool):
        if not dom:
            yield ()
            return
        x, rest = dom[0], dom[1:]
        for i, y in enumerate(ran_pool):
            for tail in injections(rest, ran_pool[:i] + ran_pool[i + 1:]):
                yield ((x, y),) + tail

    for dom in subsets:
        for pairs in injections(dom, tuple(points)):
            maps.append(PartialBijection(tuple(sorted(pairs))))
    if len(maps) > max_elements:
        raise TooLarge(f"|I(X)| = {len(maps)} exceeds {max_elements}")
    maps.sort(key=lambda f: (len(f.mapping), f.mapping))

    def fmt(f):
        if not f.mapping:
            return "[]"
        return "[" + " ".join(f"{x+1}>{y+1}" for x, y in f.mapping) + "]"

    names = tuple(fmt(f) for f in maps)
    index = {f: i for i, f in enumerate(maps)}
    tbl = [[index[compose_partial(a, b)] for b in maps] for a in maps]
    S = validate_inverse_semigroup(names, tbl)
    return S, tuple(maps)


# --- canonical constructions returning partial actions / groupoids -------------

def munn_representation(S):
    """The Munn representation on E(S): X_s = {e <= ss*}, theta_s(e) = ses*."""
    from . import paction

    E = S.idempotents
    pos = {e: i for i, e in enumerate(E)}
    carrier = tuple(S.elements[e] for e in E)
    domains = []
    maps = []
    for s in range(len(S)):
        ss = S.mul(s, S.inv(s))
        dom_s = tuple(pos[e] for e in E if natural_leq(S, e, ss))
        domains.append(dom_s)
    for s in range(len(S)):
        s_s = S.mul(S.inv(s), s)
        theta = {}
        for e in E:
            if natural_leq(S, e, s_s):
                theta[pos[e]] = pos[S.prod(s, e, S.inv(s))]
        maps.append(theta)
    return paction.validate_partial_action(S, carrier, tuple(domains), tuple(maps))


def canonical_self_action(S):
    """Left translation on S itself: D_s = {t : tt* <= ss*}, alpha_s(t) = st.

    This is the action used for the Vagner-Preston theorem; it is a global
    action and is free exactly when S is E-unitary.
    """
    from . import paction

    n = len(S)
    domains = []
    for s in range(n):
        ss = S.mul(s, S.inv(s))
        domains.append(tuple(t for t in range(n) if natural_leq(S, S.mul(t, S.inv(t)), ss)))
    maps = []
    for s in range(n):
        s_s = S.mul(S.inv(s), s)
        theta = {}
        for t in range(n):
            if natural_leq(S, S.mul(t, S.inv(t)), s_s):
                theta[t] = S.mul(s, t)
        maps.append(theta)
    return paction.validate_partial_action(S, S.elements, tuple(domains), tuple(maps))


def restricted_product_groupoid(S):
    """(S, .): arrows are the elements, s.t defined iff s*s = tt*."""
    from . import germs

    n = len(S)
    source = tuple(S.mul(S.inv(s), s) for s in range(n))
    target = tuple(S.mul(s, S.inv(s)) for s in range(n))
    compose = {}
    for s in range(n):
        for t in range(n):
            if source[s] == target[t]:
                compose[(s, t)] = S.mul(s, t)
    return germs.validate_groupoid(
        arrows=S.elements,
        units=S.idempotents,
        source=source,
        target=target,
        inverse=S.inverse,
        compose=compose,
    )
