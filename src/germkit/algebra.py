"""Steinberg algebras of finite groupoids and crossed products of algebraic
partial actions, with machine verification that the two sides of the
Steinberg/crossed-product isomorphism agree on every basis element.

On a finite discrete groupoid the Steinberg algebra is all functions
arrow -> R under convolution.  A crossed product L/N is the free R-module,
over Q, Z or Z/n, on the classes of the relation that N's generators impose
on the basis of L.
"""

from dataclasses import dataclass

from . import GermkitError, germs, paction, rings
from .invsemi import members, union_find


class SteinbergError(GermkitError):
    pass


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
        row = G.compose[x]
        for y, gy in g.coeffs.items():
            if y in row:
                a = row[y]
                out[a] = ring.add(out.get(a, ring.zero), ring.mul(fx, gy))
    return SteinbergElement(G, ring, out)


def diagonal_subalgebra(G, ring):
    """Basis of D_R(G): one indicator per unit arrow."""
    return tuple(SteinbergElement.indicator(G, ring, [u]) for u in G.units)


def boolean_rep_hom(G, ring, pi, ample=None):
    """Universal extension of a Boolean representation of the bisections.

    pi maps each bisection (a frozenset of arrows) to a target algebra
    element supporting +, *, == and .scale(ring element), bilinear over
    ring.  Conditions (i) pi(AB) = pi(A)pi(B) and (ii) pi(A) = pi(A - B) +
    pi(B) for B inside A are checked on all pairs; the returned extension
    sends f to the sum of f(a) pi({a}).  It extends pi and is a
    homomorphism, with no check of its own: (ii) at A = B = empty gives
    pi(empty) = 0, and then, taking out one arrow at a time, pi(U) = sum of
    pi({a}) over a in U; (i) on singletons gives pi({a})pi({b}) =
    pi({a}{b}), which is pi({ab}) when ab is defined and 0 otherwise, so by
    bilinearity extend(f)extend(g) = extend(f * g).
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

    return extend


# --- crossed products ------------------------------------------------------------

class CrossedProductError(GermkitError):
    pass


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

    def mono_mul(self, a, b):
        """(1_x delta_s)(1_y delta_t) = 1_x delta_st when theta_{s*}(x) = y, else None."""
        (s, x), (t, y) = self.basis[a], self.basis[b]
        S = self.action.semigroup
        if self.theta_maps[S.inv(s)].get(x) != y:
            return None
        return self.basis_index[(S.mul(s, t), x)]


def crossed_product_build(alg):
    """Build L, the classes of N's generators and the quotient for an
    algebraic partial action whose ideals are spanned by point indicators
    (dual actions always are).

    theta is read off alg and must pass `paction.validate_partial_action`;
    any ActionError is raised again as CrossedProductError with its witness.
    That is exactly L's associativity plus N's generators lying in L.  Take
    i = 1_x delta_s, j = 1_y delta_t, k = 1_z delta_u with ij != 0, that is
    theta_{s*}(x) = y.  Then (ij)k != 0 iff theta_{(st)*}(x) = z, and
    i(jk) != 0 iff theta_{t*}(y) = z; when both are nonzero they are
    1_x delta_stu, as S is associative.  So L is associative iff
    theta_{t*} theta_{s*} is a restriction of theta_{(st)*} for all s, t,
    the composition law: for the converse take k = 1_{z'} delta_{(st)*}
    with z' = theta_{(st)*}(x).  N's generators 1_x delta_r - 1_x delta_s,
    r <= s, need X_r inside X_s, which the order law gives.
    """
    ring = alg.ring
    S = alg.semigroup
    supports = [paction.ideal_support(ring, alg.ideal_gens[s]) for s in range(len(S))]
    try:
        action = paction.validate_partial_action(S, alg.carrier, supports, _indicator_maps(alg))
    except paction.ActionError as err:
        raise CrossedProductError(str(err), err.witness) from err
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
    return CrossedProduct(alg, ring, basis, index, action.maps, rep, pivots, len(qbasis), qbasis)


def _indicator_maps(alg):
    """theta graphs read off an indicator-form algebraic action: alpha_s
    sends the k-th generator 1_y of D_{s*} to its k-th image 1_x."""
    S = alg.semigroup

    def point(vec, s):
        if len(vec) == 1:
            ((x, v),) = vec.items()
            if v == alg.ring.one:
                return x
        raise CrossedProductError(
            "ideals are not in point-indicator form; recover the action first", s
        )

    maps = []
    for s in range(len(S)):
        maps.append({
            point(g, s): point(img, s)
            for g, img in zip(alg.ideal_gens[S.inv(s)], alg.alpha_images[s])
        })
    return tuple(maps)


# --- the Steinberg / crossed product comparison ----------------------------------------

def verify_steinberg_crossed(theta, ring):
    """Build the groupoid of germs and the crossed product of the dual action,
    then verify the mutually inverse maps Phi and Psi between their algebras.
    The build has already decided L's associativity exactly, by the
    partial-action laws of the action the dual algebra carries.

    Both send basis elements to basis elements with coefficient one, so they
    are index maps: Phi sends i = 1_x delta_s to arrow_of[i] = [s, theta_{s*}(x)],
    Psi sends a = [s, y] to psi_of[a], the class of 1_{theta_s(y)} delta_s.
    (1_x delta_s)(1_y delta_t) is nonzero iff theta_{s*}(x) = y, and arrows
    compose iff their units agree; so once each arrow_of[i] runs from the unit
    of theta_{s*}(x) to that of x and no two points share a unit, Phi is
    multiplicative iff it is on the pairs at a common point.  The diagonals
    and the quotient dimension are checked too; any failure raises
    VerificationFailed with a witness.

    Both maps are well-defined by the checks Phi(Psi(a)) = a for every arrow
    a and Psi(Phi(i)) = rep[i] for every basis index i, with no check of
    their own:
    - Phi kills N: `crossed_product_build` unites (r, x) with (s, x) for each
      r <= s, so their indices i and j have rep[i] = rep[j].  Then
      psi_of[arrow_of[i]] = psi_of[arrow_of[j]], and psi_of is injective as
      Phi(Psi(a)) = a, so arrow_of[i] = arrow_of[j].
    - Psi is constant on germ classes: for (s, x) in the class a, the basis
      index i of (s, theta_s(x)) has arrow_of[i] = [s, x] = a, so Psi's
      value there, rep[i], is psi_of[a] by the check Psi(Phi(i)) = rep[i].
    """
    gg = germs.groupoid_of_germs(theta)
    G = gg.groupoid
    S = theta.semigroup
    alg = paction.dual_action(theta, ring)
    cp = crossed_product_build(alg)
    index, rep = cp.basis_index, cp.rep

    if cp.quotient_dim != len(G.arrows):
        raise VerificationFailed(
            f"quotient dimension {cp.quotient_dim} != arrow count {len(G.arrows)}"
        )
    arrow_of = [gg.germ(s, theta.maps[S.inv(s)][x]) for s, x in cp.basis]
    psi_of = [rep[index[(s, theta.theta(s, y))]] for s, y in gg.reps]

    # multiplicativity of Phi on L (with N killed, this gives it on the quotient)
    unit = gg.unit_of_point
    first = {}
    for x, u in enumerate(unit):
        if first.setdefault(u, x) != x:
            raise VerificationFailed(
                f"Phi not multiplicative: {theta.carrier[first[u]]} and {theta.carrier[x]} share a unit"
            )
    by_point = {}
    for i, (s, x) in enumerate(cp.basis):
        by_point.setdefault(x, []).append(i)
    for i, (s, x) in enumerate(cp.basis):
        y = theta.maps[S.inv(s)][x]
        a = arrow_of[i]
        if (G.source[a], G.target[a]) != (unit[y], unit[x]):
            raise VerificationFailed(f"Phi not multiplicative: {G.arrows[a]} is badly typed at {cp.basis[i]}")
        row = G.compose[a]
        for j in by_point[y]:
            if arrow_of[cp.mono_mul(i, j)] != row.get(arrow_of[j]):
                raise VerificationFailed(
                    f"Phi not multiplicative on basis pair {cp.basis[i]}, {cp.basis[j]}"
                )
    # mutual inverses on bases
    for a in range(len(G.arrows)):
        if arrow_of[psi_of[a]] != a:
            raise VerificationFailed(f"Phi(Psi(.)) != id at arrow {G.arrows[a]}")
    for i in range(len(cp.basis)):
        if psi_of[arrow_of[i]] != rep[i]:
            raise VerificationFailed(f"Psi(Phi(.)) != id at basis element {cp.basis[i]}")
    # diagonal <-> diagonal: the classes of the 1_x delta_e are a basis of the
    # crossed product diagonal, so an element is diagonal iff its support
    # lies among them
    unit_set = set(G.units)
    diag = set()
    for e in S.idempotents:
        for x in theta.domains[e]:
            if arrow_of[index[(e, x)]] not in unit_set:
                raise VerificationFailed("Phi does not map the diagonal into D_R(G)")
            diag.add(rep[index[(e, x)]])
    if len(diag) != len(G.units):
        raise VerificationFailed(
            f"crossed product diagonal has dimension {len(diag)}, expected {len(G.units)}"
        )
    for u in G.units:
        if psi_of[u] not in diag:
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
