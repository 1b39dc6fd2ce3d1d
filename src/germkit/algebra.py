"""Steinberg algebras of finite groupoids and crossed products of algebraic
partial actions, with machine verification that the two sides of the
Steinberg/crossed-product isomorphism agree on every basis element.

On a finite discrete groupoid the Steinberg algebra is all functions
arrow -> R under convolution.  A crossed product L/N is the free R-module,
over Q, Z or Z/n, on the classes of the relation that N's generators impose
on the basis of L.
"""

import random
from dataclasses import dataclass

from . import germs, paction, rings
from .invsemi import members, natural_leq, union_find


class SteinbergError(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class GroupoidMismatch(SteinbergError):
    pass


class NotBooleanRep(SteinbergError):
    pass


class VerificationFailed(SteinbergError):
    pass


class SteinbergElement:
    """Sparse function arrow -> nonzero ring element under convolution."""

    __slots__ = ("groupoid", "ring", "coeffs")

    def __init__(self, groupoid, ring, coeffs=()):
        self.groupoid = groupoid
        self.ring = ring
        self.coeffs = {}
        for a, c in dict(coeffs).items():
            c = ring.normalize(c)
            if c != ring.zero:
                self.coeffs[a] = c

    @classmethod
    def indicator(cls, groupoid, ring, arrow_set):
        return cls(groupoid, ring, {a: ring.one for a in arrow_set})

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = self.ring.add(out.get(a, self.ring.zero), c)
        return SteinbergElement(self.groupoid, self.ring, out)

    def __sub__(self, other):
        self._check(other)
        return self + other.scale(self.ring.neg(self.ring.one))

    def scale(self, c):
        return SteinbergElement(
            self.groupoid, self.ring, {a: self.ring.mul(c, v) for a, v in self.coeffs.items()}
        )

    def __mul__(self, other):
        return convolve(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, SteinbergElement)
            and self.groupoid is other.groupoid
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.groupoid is not other.groupoid or self.ring != other.ring:
            raise GroupoidMismatch("operands live on different groupoids")

    def __repr__(self):
        names = self.groupoid.arrows
        terms = " + ".join(
            f"{self.ring.fmt(c)}*1_{names[a]}" for a, c in sorted(self.coeffs.items())
        )
        return terms or "0"


def convolve(f, g):
    """(f*g)(a) = sum over xy = a of f(x)g(y), over composable support pairs."""
    f._check(g)
    G = f.groupoid
    ring = f.ring
    out = {}
    for x, fx in f.coeffs.items():
        for y, gy in g.coeffs.items():
            if G.composable(x, y):
                a = G.compose[(x, y)]
                out[a] = ring.add(out.get(a, ring.zero), ring.mul(fx, gy))
    return SteinbergElement(G, ring, out)


def units_indicator(G, ring):
    return SteinbergElement.indicator(G, ring, G.units)


def diagonal_subalgebra(G, ring):
    """Basis of D_R(G): one indicator per unit arrow."""
    return tuple(SteinbergElement.indicator(G, ring, [u]) for u in G.units)


def indicator_representation_check(G, ring, ample=None, sample=None, rng=None):
    """Verify 1_U * 1_V = 1_{UV} and additivity over disjoint unions on all
    (or sampled) bisection pairs; returns a report whose violation list is
    expected to be empty."""
    amp = ample or germs.ample_semigroup(G)
    bis = list(amp.bisections)
    pairs = [(i, j) for i in range(len(bis)) for j in range(len(bis))]
    if sample is not None and len(pairs) > sample:
        pairs = rng.sample(pairs, sample)
    violations = []
    for i, j in pairs:
        left = convolve(
            SteinbergElement.indicator(G, ring, bis[i]),
            SteinbergElement.indicator(G, ring, bis[j]),
        )
        right = SteinbergElement.indicator(G, ring, germs.bisection_product(G, bis[i], bis[j]))
        if left != right:
            violations.append(("mult", i, j))
        u, v = bis[i], bis[j]
        if not (u & v) and (u | v) in amp.index:
            lhs = SteinbergElement.indicator(G, ring, u) + SteinbergElement.indicator(G, ring, v)
            if lhs != SteinbergElement.indicator(G, ring, u | v):
                violations.append(("add", i, j))
    return {"pairs_checked": len(pairs), "violations": violations}


def boolean_rep_hom(G, ring, pi, ample=None):
    """Universal extension of a Boolean representation of the bisections.

    pi maps each bisection (a frozenset of arrows) to a target algebra
    element supporting +, *, == and .scale(ring element).  Conditions
    (i) pi(AB) = pi(A)pi(B) and (ii) pi(A) = pi(A - B) + pi(B) for B inside A
    are checked on all pairs; the returned extension sends f to the pi-image
    of its singleton decomposition and is checked against pi on every
    bisection.
    """
    amp = ample or germs.ample_semigroup(G)
    values = {b: pi(b) for b in amp.bisections}
    for A in amp.bisections:
        for B in amp.bisections:
            AB = germs.bisection_product(G, A, B)
            if not values[A] * values[B] == values[AB]:
                raise NotBooleanRep("pi(A)pi(B) != pi(AB)", (A, B))
            if B <= A and not values[A] == values[A - B] + values[B]:
                raise NotBooleanRep("pi(A) != pi(A-B) + pi(B)", (A, B))

    def extend(f):
        out = values[frozenset()].scale(ring.zero)
        for a, c in sorted(f.coeffs.items()):
            out = out + values[frozenset([a])].scale(c)
        return out

    for U in amp.bisections:
        if not extend(SteinbergElement.indicator(G, ring, U)) == values[U]:
            raise NotBooleanRep("extension disagrees with pi on a bisection", U)
    # homomorphism spot-check on indicator products
    sample = amp.bisections[:12]
    for U in sample:
        for V in sample:
            fu = SteinbergElement.indicator(G, ring, U)
            fv = SteinbergElement.indicator(G, ring, V)
            if not extend(convolve(fu, fv)) == extend(fu) * extend(fv):
                raise NotBooleanRep("extension is not multiplicative", (U, V))
    return extend


# --- crossed products ------------------------------------------------------------

class CrossedProductError(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


@dataclass
class CrossedProduct:
    """L / N for an algebraic partial action with point-indicator ideals.

    L has basis (s, x) for x in the support of D_s, standing for 1_x delta_s;
    N is spanned by 1_x delta_r - 1_x delta_s for r <= s with x in X_r, so L/N
    is free over Q, Z or Z/n on the classes of (r, x) ~ (s, x).  rep maps each
    basis index to the largest index of its class in the fixed basis order
    (s-index major, point-index minor); the other indices are the pivots a
    leftmost-pivot row reduction of N's generators would find.
    """

    action: object
    ring: rings.Ring
    basis: tuple
    basis_index: dict
    theta_maps: tuple
    rep: tuple
    n_pivots: tuple
    quotient_dim: int
    quotient_basis: tuple

    def reduce(self, terms):
        """Canonical form of the sum of c * basis[i] over the (i, c) in terms:
        each coefficient summed onto its class representative, zeros dropped."""
        ring = self.ring
        out = {}
        for i, c in terms:
            r = self.rep[i]
            out[r] = ring.add(out.get(r, ring.zero), c)
        return {r: c for r, c in out.items() if c != ring.zero}

    def delta(self, s, x):
        """The class of 1_x delta_s."""
        return self.basis_element(self.basis_index[(s, x)])

    def basis_element(self, i):
        return CrossedProductElement(self, {self.rep[i]: self.ring.one})

    def zero(self):
        return CrossedProductElement(self, {})

    def mono_mul(self, a, b):
        """(1_x delta_s)(1_y delta_t) = 1_x delta_st when theta_{s*}(x) = y, else None."""
        (s, x), (t, y) = self.basis[a], self.basis[b]
        S = self.action.semigroup
        if self.theta_maps[S.inv(s)].get(x) != y:
            return None
        return self.basis_index[(S.mul(s, t), x)]


def crossed_product_build(alg, check_associativity=200, rng=None):
    """Build L, the classes of N's generators and the quotient for an
    algebraic partial action whose ideals are spanned by point indicators
    (dual actions always are).  Associativity of L is verified on basis triples."""
    ring = alg.ring
    S = alg.semigroup
    theta = _indicator_maps(alg)
    supports = [sorted(paction.ideal_support(ring, alg.ideal_gens[s])) for s in range(len(S))]
    basis = tuple((s, x) for s in range(len(S)) for x in supports[s])
    index = {sx: i for i, sx in enumerate(basis)}
    root = union_find(len(basis), (
        (index[(r, x)], index[(s, x)])
        for s in range(len(S))
        for r in members(S.below[s])
        if r != s
        for x in supports[r]
    ))
    # later indices overwrite earlier ones: each class maps to its largest member
    largest = {r: i for i, r in enumerate(root)}
    rep = tuple(largest[r] for r in root)
    qbasis = tuple(i for i in range(len(basis)) if rep[i] == i)
    pivots = tuple(i for i in range(len(basis)) if rep[i] != i)
    cp = CrossedProduct(alg, ring, basis, index, theta, rep, pivots, len(qbasis), qbasis)
    _check_l_associativity(cp, check_associativity, rng)
    return cp


def _indicator_maps(alg):
    """theta graphs read off an indicator-basis algebraic action."""
    ring = alg.ring
    S = alg.semigroup
    maps = []
    for s in range(len(S)):
        dom = sorted(paction.ideal_support(ring, alg.ideal_gens[S.inv(s)]))
        graph = {}
        for k, y in enumerate(dom):
            img = alg.alpha_images[s][k]
            pts = [x for x, v in enumerate(img) if v != ring.zero]
            if len(pts) != 1 or img[pts[0]] != ring.one:
                raise CrossedProductError(
                    "ideals are not in point-indicator form; recover the action first", s
                )
            graph[y] = pts[0]
        maps.append(graph)
    return tuple(maps)


def _check_l_associativity(cp, budget, rng):
    """(ab)c = a(bc) on all basis triples, or on budget of them drawn by index."""
    n = len(cp.basis)
    triples = range(n ** 3)
    if budget is not None and len(triples) > budget:
        if rng is None:
            rng = random.Random(0)
        triples = rng.sample(triples, budget)
    for t in triples:
        a, rest = divmod(t, n * n)
        b, c = divmod(rest, n)
        ab = cp.mono_mul(a, b)
        bc = cp.mono_mul(b, c)
        left = cp.mono_mul(ab, c) if ab is not None else None
        right = cp.mono_mul(a, bc) if bc is not None else None
        if left != right:
            raise CrossedProductError("L is not associative", (a, b, c))


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
            raise CrossedProductError("elements from different structures")

    def __add__(self, other):
        self._check(other)
        return CrossedProductElement(
            self.cp, self.cp.reduce([*self.coeffs.items(), *other.coeffs.items()])
        )

    def __sub__(self, other):
        self._check(other)
        return self + other.scale(self.cp.ring.neg(self.cp.ring.one))

    def scale(self, c):
        ring = self.cp.ring
        return CrossedProductElement(
            self.cp, self.cp.reduce((i, ring.mul(c, a)) for i, a in self.coeffs.items())
        )

    def __mul__(self, other):
        return cp_multiply(self, other)

    def __eq__(self, other):
        return isinstance(other, CrossedProductElement) and self.cp is other.cp and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs


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
    return CrossedProductElement(cp, cp.reduce(terms))


def cp_equal(x, y):
    x._check(y)
    return x.coeffs == y.coeffs


# --- the Steinberg / crossed product comparison ----------------------------------------

def verify_steinberg_crossed(theta, ring, rng=None):
    """Build A_R of the groupoid of germs and the crossed product of the dual
    action, then verify the mutually inverse maps between them.

    Checks: the forward map kills every N-generator; the backward map is
    constant on germ classes; multiplicativity on all basis pairs; both
    composites are the identity on bases; diagonals correspond; the quotient
    dimension equals the arrow count.  Any failure raises VerificationFailed
    with a witness.
    """
    gg = germs.groupoid_of_germs(theta)
    G = gg.groupoid
    S = theta.semigroup
    alg = paction.dual_action(theta, ring)
    cp = crossed_product_build(alg, rng=rng)

    if cp.quotient_dim != len(G.arrows):
        raise VerificationFailed(
            f"quotient dimension {cp.quotient_dim} != arrow count {len(G.arrows)}"
        )

    def phi_arrow_of(s, x):
        """The arrow supporting Phi(1_x delta_s): the germ of s at theta_{s*}(x)."""
        return gg.germ(s, theta.maps[S.inv(s)][x])

    arrow_of = [phi_arrow_of(s, x) for s, x in cp.basis]
    singleton = [SteinbergElement.indicator(G, ring, [a]) for a in range(len(G.arrows))]

    def phi(elem):
        out = {}
        for i, c in elem.coeffs.items():
            a = arrow_of[i]
            out[a] = ring.add(out.get(a, ring.zero), c)
        return SteinbergElement(G, ring, out)

    def psi_arrow(a):
        s, y = gg.reps[a]
        return cp.delta(s, theta.theta(s, y))

    # Phi kills every N generator, hence is well-defined on the quotient
    for r in range(len(S)):
        for s in range(len(S)):
            if r != s and natural_leq(S, r, s):
                for x in theta.domains[r]:
                    if phi_arrow_of(r, x) != phi_arrow_of(s, x):
                        raise VerificationFailed(
                            f"Phi does not kill 1_x(delta_{S.name(r)} - delta_{S.name(s)}) at x={theta.carrier[x]}"
                        )
    # Psi is constant on germ classes, hence well-defined on arrows
    for (s, x), arrow in gg.pair_class.items():
        if not cp_equal(cp.delta(s, theta.theta(s, x)), psi_arrow(arrow)):
            raise VerificationFailed(
                f"Psi depends on the germ representative at ({S.name(s)}, {theta.carrier[x]})"
            )
    # multiplicativity of Phi on all monomial pairs of L (with N killed, this
    # gives multiplicativity on the quotient)
    zero = SteinbergElement(G, ring)
    for i in range(len(cp.basis)):
        for j in range(len(cp.basis)):
            k = cp.mono_mul(i, j)
            lhs = singleton[arrow_of[k]] if k is not None else zero
            if lhs != convolve(singleton[arrow_of[i]], singleton[arrow_of[j]]):
                raise VerificationFailed(
                    f"Phi not multiplicative on basis pair {cp.basis[i]}, {cp.basis[j]}"
                )
    # mutual inverses on bases
    for a in range(len(G.arrows)):
        if phi(psi_arrow(a)) != singleton[a]:
            raise VerificationFailed(f"Phi(Psi(.)) != id at arrow {G.arrows[a]}")
    for i in range(len(cp.basis)):
        if not cp_equal(psi_arrow(arrow_of[i]), cp.basis_element(i)):
            raise VerificationFailed(f"Psi(Phi(.)) != id at basis element {cp.basis[i]}")
    # diagonal <-> diagonal: the classes of the 1_x delta_e are a basis of the
    # crossed product diagonal, so an element is diagonal iff its support
    # lies among them
    unit_set = set(G.units)
    diag = set()
    for e in S.idempotents:
        for x in theta.domains[e]:
            if phi_arrow_of(e, x) not in unit_set:
                raise VerificationFailed("Phi does not map the diagonal into D_R(G)")
            diag.update(cp.delta(e, x).coeffs)
    if len(diag) != len(G.units):
        raise VerificationFailed(
            f"crossed product diagonal has dimension {len(diag)}, expected {len(G.units)}"
        )
    for u in G.units:
        if not diag.issuperset(psi_arrow(u).coeffs):
            raise VerificationFailed(f"Psi(1_{G.arrows[u]}) is not diagonal")
    return {
        "dims": {
            "steinberg": len(G.arrows),
            "L": len(cp.basis),
            "N": len(cp.n_pivots),
            "quotient": cp.quotient_dim,
        },
        "checks": "all passed",
    }
