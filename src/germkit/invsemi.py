"""Finite inverse semigroups as index-based Cayley tables.

Elements are identified by their index into a declared name list.  A table
a user supplies is checked at construction time, and its inverses are
computed from it.  Every semigroup carries d, with d[s] = s*s (so ss* is
d[s*]): a validated table reads it off the table, a model off its payloads.
The idempotents are derived from d as the s with d[s] = s, and every reader
of s*s or ss* reads d rather than multiplying.  The zero and the natural
partial order are read off every table in one place (`_inverse_semigroup`);
the order is a bit matrix: below[t] is an int whose bit s is set iff s <= t,
and every order query reads it.  A generating set is kept as gens: the one
a table was checked with, or a model's construction generators.

Associativity of a table is decided by Light's test over a generating set A
read off the table: O(n^2 |A|); only a table that fails it is scanned for
its least non-associative triple.  The models I_n, S(G), S_E
(`graph.graph_semigroup`) and the ample semigroup of a groupoid
(`germs.ample_semigroup`) are associative inverse semigroups by proof (see
their constructors): their inverses, d, zero and order come from the
model, and their tables, filled by `tabulate` the first time S.table,
S.mul or S.prod needs them, are not checked.  Models and validated tables
are the one class `InverseSemigroup`.
"""

from dataclasses import InitVar, dataclass, field
from functools import reduce
from itertools import combinations, permutations
from math import comb, factorial
from operator import itemgetter, or_

from . import GermkitError, ResourceLimit


class SemigroupError(GermkitError):
    pass


class NotAssociative(SemigroupError):
    pass


class NoInverse(SemigroupError):
    pass


class NonUniqueInverse(SemigroupError):
    pass


@dataclass(frozen=True, eq=False)
class InverseSemigroup:
    """A finite inverse semigroup on range(n); S.table is its Cayley table.

    cayley is the table, or for a model (I_n, S(G), S_E, the ample
    semigroup) a function that tabulates it, called the first time
    S.table, S.mul or S.prod needs it.  d[s] is s*s, so ss* is d[s*]; the
    idempotents are the s with d[s] = s (an idempotent is its own inverse,
    and s*s = s makes s idempotent), in index order, derived here.
    Equality and hashing read the table.  S.mul and S.prod load the plain
    instance attribute _table, which nothing on the class shadows, so the
    interpreter's fast attribute loads apply; until the table is filled
    that load raises AttributeError, which costs nothing when it does not.
    """

    elements: tuple
    cayley: InitVar[object]
    inverse: tuple
    d: tuple = field(repr=False)
    zero: object = None
    below: tuple = field(kw_only=True, repr=False)
    gens: tuple = field(kw_only=True, repr=False)
    idempotents: tuple = field(init=False)

    def __post_init__(self, cayley):
        object.__setattr__(self, "_tabulate" if callable(cayley) else "_table", cayley)
        object.__setattr__(self, "idempotents", tuple(s for s, e in enumerate(self.d) if e == s))
        object.__setattr__(self, "_idempotent_set", frozenset(self.idempotents))

    @property
    def table(self):
        try:
            return self._table
        except AttributeError:
            object.__setattr__(self, "_table", self._tabulate())
            return self._table

    def _key(self):
        return self.elements, self.table, self.inverse, self.zero

    def __eq__(self, other):
        if not isinstance(other, InverseSemigroup):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __len__(self):
        return len(self.elements)

    def mul(self, i, j):
        try:
            return self._table[i][j]
        except AttributeError:
            return self.table[i][j]

    def prod(self, *idxs):
        try:
            tbl = self._table
        except AttributeError:
            tbl = self.table
        acc = idxs[0]
        for j in idxs[1:]:
            acc = tbl[acc][j]
        return acc

    def inv(self, i):
        return self.inverse[i]

    def is_idempotent(self, i):
        return i in self._idempotent_set

    def index(self, name):
        return self.elements.index(name)

    def name(self, i):
        return self.elements[i]


def validate_inverse_semigroup(elements, table):
    """Check a Cayley table and return the inverse semigroup it defines.

    Rejects non-associative tables and tables where some element lacks a
    unique generalized inverse, with the first witness in index order.
    Associativity is Light's test, (xa)y = x(ay) for all x, y and each a in
    a generating set A, so it costs O(n^2 |A|).  A and the walk reaching
    every element from it are the `table_closure`.  The least triple
    (i, j, k) with (ij)k != i(jk) is searched for only once the test has
    failed.  Inverses are read along the walk in O(n |A|)
    (`_inverses_along`); only a table that is not inverse is scanned for the
    least element without a unique inverse.  A is kept as `S.gens`.
    """
    n = len(elements)
    elements = tuple(elements)
    if len(set(elements)) != n:
        raise SemigroupError("duplicate element names")
    if len(table) != n or any(len(row) != n for row in table):
        raise SemigroupError("table must be n x n")
    tbl = tuple(tuple(row) for row in table)
    valid = frozenset(range(n))
    for i, row in enumerate(tbl):
        if not valid.issuperset(row):
            j = next(j for j, x in enumerate(row) if x not in valid)
            raise SemigroupError("table entry out of range", (i, j))
    gens, steps = table_closure(tbl)
    if not _light_test(tbl, gens):
        # only reached on a non-associative table: find its least witness
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
    idem = tuple(i for i in range(n) if tbl[i][i] == i)
    inverse = _inverses_along(tbl, gens, steps, idem)
    if inverse is None:
        # only reached when the table is not an inverse semigroup
        inverse = []
        for i, col_i in enumerate(zip(*tbl)):
            cands = _inverse_candidates(tbl, i, col_i)
            if not cands:
                raise NoInverse(f"{elements[i]} has no generalized inverse", i)
            if len(cands) > 1:
                raise NonUniqueInverse(
                    f"{elements[i]} has inverses {elements[cands[0]]} and {elements[cands[1]]}",
                    (i, cands[0], cands[1]),
                )
            inverse.append(cands[0])
        # unique inverses make tbl inverse, so idempotents commute (Howie, Thm 5.1.1)
    return _inverse_semigroup(elements, tbl, tuple(inverse), tuple(gens))


def _inverse_semigroup(elements, tbl, inverse, gens):
    """The InverseSemigroup of an inverse semigroup's table, inverses and
    generators; d[s] = s*s, the zero and the order are read off tbl.

    A zero absorbs every idempotent, so it can only be their product m.
    s <= t iff s = t s* s, iff s = t e for an idempotent e (then s* s =
    e t* t, and t e t* t = t e): below[t] is the set of row t at E(S).
    """
    n = len(tbl)
    d = tuple(tbl[inverse[s]][s] for s in range(n))
    idem = [s for s in range(n) if d[s] == s]
    m = reduce(lambda e, f: tbl[e][f], idem) if idem else None
    zero = m if idem and tbl[m].count(m) == n and all(row[m] == m for row in tbl) else None
    pick = _pick(idem)
    below = tuple(sum(1 << s for s in set(pick(row))) for row in tbl)
    return InverseSemigroup(elements, tbl, inverse, d, zero, below=below, gens=gens)


def _inverse_candidates(tbl, i, col_i):
    """The j with iji = i and jij = j, in index order; col_i is column i.
    Column i read at the positions of row i gives iji for every j."""
    iji = _pick(tbl[i])(col_i)
    return [j for j in _positions(iji, i) if tbl[col_i[j]][j] == j]


def _inverses_along(tbl, gens, steps, idem):
    """The inverse of every element, or None when tbl is not inverse.

    a* is searched for each generator a, then (x a)* = a* x* along steps.
    When every x then has x x* x = x and x* x x* = x*, and the idempotents
    commute, tbl is regular with commuting idempotents, hence an inverse
    semigroup (Howie, Fundamentals of Semigroup Theory, Thm 5.1.1): its
    inverses are unique, and these are they.  O(n |A| + |E|^2).
    """
    inv = [None] * len(tbl)
    for a in gens:
        cands = _inverse_candidates(tbl, a, tuple(map(itemgetter(a), tbl)))
        if not cands:
            return None
        inv[a] = cands[0]
    for x, a, y in steps:
        inv[y] = tbl[inv[a]][inv[x]]
    for x, y in enumerate(inv):  # y = x*
        if tbl[tbl[x][y]][x] != x or tbl[tbl[y][x]][y] != y:
            return None
    if any(tbl[e][f] != tbl[f][e] for e, f in combinations(idem, 2)):
        return None
    return inv


def _pick(idxs):
    """seq -> tuple(seq[i] for i in idxs), looked up in C."""
    if len(idxs) == 1:  # itemgetter of one index returns an entry, not a tuple
        i, = idxs
        return lambda seq: (seq[i],)
    return itemgetter(*idxs) if idxs else lambda seq: ()


def _positions(seq, x):
    """Indices of x in seq, each found by a C scan."""
    i = -1
    try:
        while True:
            i = seq.index(x, i + 1)
            yield i
    except ValueError:
        return


def closure(rows, order, source, target):
    """(gens, steps): a generating set of the rows by left-normed products,
    and the walk that reaches every other element from it.

    rows[c][a] is the product ca, defined iff source[c] == target[a]; a
    Cayley table is the case of one unit, source = target = (0,) * n, and
    the rows of a groupoid's composition are the case of many.  Elements are
    scanned in order; one joins gens when the closure of gens so far under
    right products does not reach it, so the closure ends as everything.
    Every other element p gets one step (c, a, p) with p = ca, a in gens and
    c reached before p.  Row c is read only at the gens a with target[a] ==
    source[c], and a new generator s only multiplies the reached c with
    source[c] == target[s], so each product is read at most twice.
    """
    reached = [False] * len(rows)
    gens, steps = [], []
    gens_into = {}     # unit u -> the gens a with target[a] == u
    reached_from = {}  # unit u -> the reached c with source[c] == u
    for s in order:
        if reached[s]:
            continue
        gens.append(s)
        gens_into.setdefault(target[s], []).append(s)
        reached[s] = True
        fresh = [s]
        for c in reached_from.get(target[s], ()):
            p = rows[c][s]
            if not reached[p]:
                reached[p] = True
                steps.append((c, s, p))
                fresh.append(p)
        for c in fresh:  # fresh grows while it is scanned
            row = rows[c]
            for a in gens_into.get(source[c], ()):
                p = row[a]
                if not reached[p]:
                    reached[p] = True
                    steps.append((c, a, p))
                    fresh.append(p)
        for c in fresh:
            reached_from.setdefault(source[c], []).append(c)
    return gens, steps


def table_closure(tbl):
    """The `closure` of a Cayley table scanned by descending |sS| (distinct
    entries in row s), ties by index, with a left identity (row s equal to
    0, 1, ..., n-1) last: it joins the generators only when the others do
    not reach it."""
    n = len(tbl)
    identity_row = tuple(range(n))
    order = sorted(range(n), key=lambda s: (tuple(tbl[s]) == identity_row, -len(set(tbl[s])), s))
    one_unit = (0,) * n
    return closure(tbl, order, one_unit, one_unit)


def _light_test(tbl, gens):
    """Light's associativity test: (xa)y = x(ay) for all x, y and a in gens.

    Exact on any magma when gens generates it: the a that pass form a
    submagma (Clifford-Preston, Algebraic Theory of Semigroups I, 1.2).
    """
    if len(tbl) < 2:
        # associative; and itemgetter of one index returns an entry, not a tuple
        return True
    for a in gens:
        x_of_ay = itemgetter(*tbl[a])  # row x -> (x(ay) for every y)
        for row_x in tbl:
            if tbl[row_x[a]] != x_of_ay(row_x):
                return False
    return True


def tabulate(items, mul, gens):
    """Cayley table of the semigroup items, read off the generators gens.

    One breadth-first pass over the right Cayley graph makes len(items) *
    len(gens) calls to mul and gives each other element y a parent with
    y = parent(y) a_y.  The row of a generator a follows the same tree,
    a y = (a parent(y)) a_y; the row of any other x = parent(x) a_x is
    row(parent(x)) read at the positions row(a_x), since (p a) y = p (a y).
    The result, not checked, is mul's Cayley table when mul is associative,
    as for I_n and S(G).  Raises SemigroupError when gens do not generate.
    """
    index = {x: i for i, x in enumerate(items)}
    n = len(index)
    roots = list(dict.fromkeys(index[g] for g in gens))
    letters = [items[a] for a in roots]
    right = [None] * n
    parent = [None] * n
    order = list(roots)
    seen = set(roots)
    for x in order:  # order grows while it is scanned: breadth-first
        right[x] = [index[mul(items[x], g)] for g in letters]
        for k, y in enumerate(right[x]):
            if y not in seen:
                seen.add(y)
                parent[y] = (x, k)
                order.append(y)
    if len(order) < n:
        missing = next(y for y in range(n) if y not in seen)
        raise SemigroupError(
            f"generators reach {len(order)} of {n} elements; they do not generate", missing
        )
    rows = [None] * n
    for a in roots:
        row = [None] * n
        for j, b in enumerate(roots):
            row[b] = right[a][j]
        for y in order[len(roots):]:
            p, j = parent[y]
            row[y] = right[row[p]][j]
        rows[a] = tuple(row)
    by_letter = [_pick(rows[a]) for a in roots]  # row p -> row of p a_k
    for x in order[len(roots):]:
        p, k = parent[x]
        rows[x] = by_letter[k](rows[p])
    return tuple(rows)


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
    congruence), computed by union-find over the pairs u <= s: u ~ s, and
    since ~ is transitive, the pairs generate it."""
    n = len(S)
    root = union_find(n, ((u, s) for s in range(n) for u in members(S.below[s])))
    reps = sorted(set(root))
    rep_index = {r: k for k, r in enumerate(reps)}
    class_of = tuple(rep_index[r] for r in root)
    # the congruence property makes the table member-independent; check it
    witness = congruence_failure(S, class_of)
    if witness is not None:
        raise SemigroupError("group congruence failed", witness)
    tbl = [[class_of[S.mul(ra, rb)] for rb in reps] for ra in reps]
    names = tuple(f"[{S.elements[r]}]" for r in reps)
    G = validate_inverse_semigroup(names, tbl)
    if len(G.idempotents) != 1:
        raise SemigroupError("maximal group image is not a group")
    return GroupImage(G, class_of)


def congruence_failure(S, class_of):
    """The first pair (s, t), s outer and t inner, with st not in the class
    of r(s)r(t), where class_of labels a partition of S and r(s) is the least
    member of s's class; None when the partition is a congruence.

    Decided over A = S.gens in O(|A| n): write s ~ t for "same class" and
    check sa ~ r(s)a and as ~ ar(s) for every s and every a in A.  If that
    holds, s ~ t gives r(s) = r(t), so sa ~ r(s)a = r(t)a ~ ta and likewise
    as ~ at: ~ is compatible with every generator on either side.  Every u
    in S is a product a1...ak of generators (a closure or `tabulate` made
    sure of that), so by induction on k and associativity s ~ t gives
    su ~ tu and us ~ ut, hence st ~ r(s)t ~ r(s)r(t) for every pair.
    Conversely the pair condition gives sa ~ r(s)r(a) ~ r(s)a, as
    r(r(s)) = r(s), and as ~ ar(s) the same way.  So the check over A fails
    exactly when some pair fails, and only then are all n^2 pairs scanned,
    for the first witness.
    """
    n = len(S)
    least = {}
    for s in range(n):
        least.setdefault(class_of[s], s)
    r = [least[c] for c in class_of]
    tbl = S.table
    if all(class_of[tbl[s][a]] == class_of[tbl[r[s]][a]]
           and class_of[tbl[a][s]] == class_of[tbl[a][r[s]]]
           for a in S.gens for s in range(n)):
        return None
    for s in range(n):
        row_s, row_r = tbl[s], tbl[r[s]]
        for t in range(n):
            if class_of[row_s[t]] != class_of[row_r[r[t]]]:
                return s, t
    return None


def union_find(n, pairs):
    """Classes of the equivalence on range(n) generated by pairs.

    Returns a tuple mapping each i to the least member of its class; the
    result does not depend on the order of the pairs.

    Finds halve paths inline.  The smaller root wins every union, so each
    root stays the least of its class and parent[i] <= i throughout (halving
    only lowers a parent).  Hence one forward pass resolves every root: when
    i is reached, parent[i] <= i is either i itself or a member already
    pointing at its root.
    """
    parent = list(range(n))
    for i, j in pairs:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    for i in range(n):
        parent[i] = parent[parent[i]]
    return tuple(parent)


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

    S(G) is an inverse semigroup by proof, so nothing here is checked.
    (R, g) -> (R u {1, g}, g) is a bijection onto the Birget-Rhodes pairs
    (A, g) with 1, g in A, whose product (A, g)(B, h) = (A u gB, gh) is
    plainly associative; `mul` is that product read back (both give
    R u gQ u {1, g, gh} with gh).  (A, g)(g^-1 A, g^-1)(A, g) = (A, g); the
    idempotents are the (A, 1), and they commute.  So S(G) is inverse
    (Howie, Fundamentals of Semigroup Theory, Thm 5.1.1), (R, g)* =
    (g^-1 R, g^-1), and by the product rule d[(R, g)] = (g^-1 R, g^-1)(R,
    g) = ((g^-1 R u {g^-1}) \\ {1}, 1): that is (R, 1) when g = 1, and
    (g^-1 R u {g^-1}, 1) otherwise, as g is not in R.  (A, g) <= (B, h)
    iff g = h and B is a subset of A: below[(R, g)] holds the (R', g) with
    R' a superset of R, that is (R, g) and the below rows of the (R u {r},
    g), which come later in the forms.  A zero would be an idempotent (A,
    1), but (A, 1)[g] = (A u {g}, g) is not (A, 1) for g != 1, so S(G) has
    a zero only when G is trivial.  The table is filled by `tabulate` from
    the [g], kept as gens, the first time S.table is read.
    """
    if not is_group(G):
        raise SemigroupError("exel_semigroup needs a group")
    one = G.idempotents[0]
    n = len(G)
    others = [g for g in range(n) if g != one]
    count = sum(2 ** (n - 1 - (0 if g == one else 1)) for g in range(n))
    if count > max_elements:
        raise ResourceLimit(f"|S(G)| = {count} exceeds {max_elements}")

    forms = sorted(((frozenset(R), g) for g in range(n) for k in range(n)
                    for R in combinations([r for r in others if r != g], k)),
                   key=lambda fg: (len(fg[0]), sorted(fg[0]), fg[1]))
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
    of_group = tuple(index[(frozenset(), g)] for g in range(n))
    inverse_forms = [(frozenset(map(G.table[G.inv(g)].__getitem__, R)), G.inv(g)) for R, g in forms]
    inverse = tuple(map(index.__getitem__, inverse_forms))
    d = tuple([index[(R | {g} if g != one else R, one)] for R, g in inverse_forms])
    below = [0] * len(forms)
    for i in reversed(range(len(forms))):
        R, g = forms[i]
        below[i] = reduce(or_, (below[index[(R | {r}, g)]] for r in others if r != g and r not in R), 1 << i)
    zero = of_group[one] if n == 1 else None
    letters = [forms[a] for a in of_group]
    S = InverseSemigroup(names, lambda: tabulate(forms, mul, letters), inverse, d, zero,
                         below=tuple(below), gens=of_group)
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


def symmetric_inverse_semigroup(n, max_elements=600):
    """I({1..n}): all partial bijections of an n-point set.

    Returns (InverseSemigroup, tuple of PartialBijection payloads).

    I_n is an inverse semigroup by proof, so nothing here is checked.
    Partial bijections compose as functions, so the product is associative;
    f f^-1 f = f; an injective f with f f = f is a partial identity, and
    id_A id_B = id_(A n B), so idempotents commute.  So I_n is inverse
    (Howie, Thm 5.1.1), f* = f^-1, d[f] = f^-1 f is the identity on the
    domain of f, and f <= g iff f = g f^-1 f, the
    restriction of g to the domain of f: below[g] holds g's restrictions to
    the subsets of its domain, that is g and the below rows of the
    restrictions one point smaller, which come earlier in the maps.  The
    empty map is the zero.  The table is filled by `tabulate` from three
    generators, kept as gens, the first time S.table is read.
    """
    count = sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
    if count > max_elements:
        raise ResourceLimit(f"|I(X)| = {count} exceeds {max_elements}")
    points = range(n)
    maps = sorted((PartialBijection(tuple(zip(dom, ran))) for k in range(n + 1)
                   for dom in combinations(points, k) for ran in permutations(points, k)),
                  key=lambda f: (len(f.mapping), f.mapping))

    def fmt(f):
        return "[" + " ".join(f"{x+1}>{y+1}" for x, y in f.mapping) + "]"

    # the n-cycle and a transposition generate the symmetric group, and one
    # rank n-1 idempotent adds every proper partial bijection
    gens = [PartialBijection(tuple((x, (x + 1) % n) for x in points))]
    if n >= 1:
        gens.append(PartialBijection(tuple((x, x) for x in points[1:])))
    if n >= 2:
        gens.append(PartialBijection(((0, 1), (1, 0)) + tuple((x, x) for x in points[2:])))
    names = tuple(fmt(f) for f in maps)
    index = {f.mapping: i for i, f in enumerate(maps)}
    inverse = tuple(index[tuple(sorted((y, x) for x, y in f.mapping))] for f in maps)
    d = tuple(index[tuple([(x, x) for x, _ in f.mapping])] for f in maps)
    below = []
    for i, f in enumerate(maps):
        m = f.mapping
        below.append(reduce(or_, (below[index[m[:j] + m[j + 1:]]] for j in range(len(m))), 1 << i))
    S = InverseSemigroup(names, lambda: tabulate(maps, compose_partial, gens), inverse, d, index[()],
                         below=tuple(below), gens=tuple(dict.fromkeys(index[g.mapping] for g in gens)))
    return S, tuple(maps)


# --- canonical constructions returning partial actions / groupoids -------------

def munn_representation(S):
    """The Munn representation on E(S): X_s = {e <= ss*}, theta_s(e) = ses*.

    It is read off the natural order, with no product.  For u <= s, u =
    s u*u, so u -> u*u = d[u] maps S.below[s] onto the idempotents below
    s*s, with inverse e -> se (se <= s, and (se)*(se) = e s*s = e), and
    s(u*u)s* = (s u*u)(s u*u)* = uu* = d[u*]: theta_s sends d[u] to d[u*]
    for each u <= s (`_conjugation_action`).  Each X_f, f idempotent, is
    the row S.below[f] (all of it idempotent), one tuple shared by every s
    with ss* = f.

    theta is a homomorphism S -> I(E), so it is a global action and is not
    validated: theta_s theta_t is defined at e iff e <= t*t and tet* <=
    s*s, iff e <= t*s*st, the domain of theta_st (if e <= t*s*st, then tet*
    <= tt*s*s and e <= t*t; if e <= t*t and tet* <= s*s, then e =
    t*(tet*)t <= t*s*st), and there s(tet*)s* = (st)e(st)*.  It is
    non-degenerate: e is in X_e.
    """
    return _conjugation_action(S, S.idempotents)


def atoms(S):
    """The minimal idempotents other than the zero, in index order: the
    idempotents e != 0 with S.below[e] within {e, 0}.  Without a zero that
    is the least idempotent alone, the product of them all."""
    zero = 0 if S.zero is None else 1 << S.zero
    return [e for e in S.idempotents if e != S.zero and not S.below[e] & ~(1 << e | zero)]


def tight_action(S):
    """Exel's tight action of S: the Munn action restricted to the atoms.

    The tight filters of a finite semilattice E(S) are the ultrafilters
    up-set(a), a an atom (a minimal idempotent other than 0), and the tight
    spectrum is that finite discrete set, on which s acts by a -> sas* for a
    <= s*s (Exel, Inverse semigroups and combinatorial C*-algebras, Bull.
    Braz. Math. Soc. 39, 2008).

    It is a partial action by proof, so it is not validated.  Conjugation
    by s is an order isomorphism from the idempotents below s*s onto those
    below ss*, with inverse f -> s*fs, so it maps atoms to atoms: sas* !=
    0, else a = s*(sas*)s = 0, and an idempotent f < sas* has s*fs < a, so
    s*fs = 0 and f = s(s*fs)s* = 0.  The atoms are thus invariant under the
    Munn action (`munn_representation`), and its restriction to them is
    again a homomorphism S -> I(atoms), a global action.  It is
    non-degenerate: every atom a lies in X_a.
    """
    return _conjugation_action(S, atoms(S))


def _conjugation_action(S, points):
    """theta_s(e) = ses* on the idempotents points, in index order, for a
    set of points invariant under conjugation: X_s holds the points below
    ss*, and theta_s sends d[u] to d[u*] for each u <= s with d[u] a point
    (the proof is `munn_representation`'s).  Keys are sorted by point."""
    from . import paction

    pos = {e: k for k, e in enumerate(points)}
    point = [pos.get(e) for e in S.d]  # u -> the point u*u, None off the points
    arrow = [(point[u], point[t]) for u, t in enumerate(S.inverse)]  # u*u -> uu*
    moving = sum(1 << u for u, k in enumerate(point) if k is not None)
    mask = sum(1 << e for e in points)
    dom = {f: tuple(pos[e] for e in members(S.below[f] & mask)) for f in S.idempotents}
    domains = tuple(dom[S.d[t]] for t in S.inverse)  # X_s = X_{ss*}, ss* = d[s*]
    maps = tuple(dict(sorted(map(arrow.__getitem__, members(b & moving)))) for b in S.below)
    return paction.PartialAction(S, tuple(S.elements[e] for e in points), domains, maps)


def canonical_self_action(S):
    """Left translation on S itself: D_s = {t : tt* <= ss*}, alpha_s(t) = st.

    This is the action used for the Vagner-Preston theorem; it is a global
    action, and free, since st = t forces tt* <= s.  The t are grouped by
    tt* once, and each D_f, f idempotent, gathers the groups of the row
    S.below[f].

    It is a homomorphism S -> I(S), so it is not validated.  alpha_s maps
    D_{s*s} onto D_{ss*}, with inverse alpha_{s*}: s*st = t when tt* <=
    s*s, and u = s(s*u) for uu* <= ss*.  alpha_s alpha_t is defined at u iff
    uu* <= t*t and tuu*t* <= s*s, iff uu* <= t*s*st, the domain of
    alpha_st (the Munn argument with e = uu*), and s(tu) = (st)u.  It is
    non-degenerate: t is in D_{tt*}.
    """
    from . import paction

    n = len(S)
    d = S.d
    by_range = {f: [] for f in S.idempotents}
    for t in range(n):
        by_range[d[S.inv(t)]].append(t)
    down = {f: tuple(sorted(t for e in members(S.below[f]) for t in by_range[e]))
            for f in S.idempotents}
    domains = []
    maps = []
    for s in range(n):
        row_s = S.table[s]
        domains.append(down[d[S.inv(s)]])
        maps.append({t: row_s[t] for t in down[d[s]]})
    return paction.PartialAction(S, S.elements, tuple(domains), tuple(maps))


def restricted_product_groupoid(S):
    """(S, .): arrows are the elements, s.t defined iff s*s = tt*.

    A groupoid by proof, so not validated: when s*s = tt*, (st)*(st) =
    t*tt*t = t*t and (st)(st)* = stt*s* = ss*ss* = ss*, so st is typed;
    the units are the idempotents, e*e = e, with s(s*s) = s = (ss*)s; s*
    inverts s; and the product is S's, so it is associative.  The ends are
    read from S.d; only the composition multiplies.
    """
    from . import germs

    target = tuple(S.d[t] for t in S.inverse)  # ss* = d[s*]
    return germs.FiniteGroupoid(S.elements, S.idempotents, S.d, target, S.inverse,
                                germs.compose_table(S.d, target, S.mul))
