"""Exact coefficient rings (Q, Z, Z/n) and the linear algebra used on top of them.

Ring values are plain Python objects: int for Z and Z/n (normalized to
0..n-1), and for Q an int when the value is integral and a Fraction only when
its denominator is not 1.  An int and a Fraction of equal value compare and
hash alike, so the two spellings of an integral rational are one dict key.
All arithmetic is exact; there are no tolerances anywhere in this package.

Vectors are sparse {column: nonzero entry} dicts.  Span membership has one
elimination: `span_solver` reduces them as rows by division with remainder,
the same loop over Q, Z/p and Z, once per generator set.  Its solutions are
sparse too, {generator index: nonzero coefficient}, and over a field each
pivot's leading entry is inverted once, when the elimination ends.
"""

from fractions import Fraction

from . import GermkitError


class RingError(GermkitError):
    pass


class NotAField(RingError):
    kind = "unsupported"


class DecomposableRing(RingError):
    kind = "unsupported"


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Ring:
    """One of Q, Z, or Z/n for n >= 2.  Z/n with composite n is constructible
    so that operations which require indecomposability can reject it.

    Over Q a value is an int when integral, otherwise a Fraction; zero and
    one are 0 and 1 in every ring.  This class is the only code that tells
    the two apart: every value that enters arithmetic passes `normalize`."""

    __slots__ = ("kind", "modulus")
    zero = 0
    one = 1

    def __init__(self, kind, modulus=None):
        if kind not in ("Q", "Z", "Zmod"):
            raise RingError(f"unknown ring kind {kind!r}")
        if kind == "Zmod" and (modulus is None or modulus < 2):
            raise RingError("modulus must be an integer >= 2")
        if kind != "Zmod":
            modulus = None
        self.kind = kind
        self.modulus = modulus

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        if self.kind == "Zmod":
            return f"Ring(Z/{self.modulus})"
        return f"Ring({self.kind})"

    def is_field(self):
        if self.kind == "Q":
            return True
        if self.kind == "Zmod":
            return is_prime(self.modulus)
        return False

    def is_indecomposable(self):
        """No idempotents besides 0 and 1.  For Z/n this means n is a prime
        power; Q and Z are always indecomposable."""
        if self.kind != "Zmod":
            return True
        n = self.modulus
        for p in range(2, n + 1):
            if p * p > n:
                return True  # n itself is prime
            if n % p == 0:
                while n % p == 0:
                    n //= p
                return n == 1

    def normalize(self, v):
        if self.kind == "Q":
            if type(v) is int:
                return v
            if type(v) is not Fraction:
                v = Fraction(v)
            return v.numerator if v.denominator == 1 else v
        if self.kind == "Z":
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    raise RingError(f"{v} is not an integer")
                v = v.numerator
            return int(v)
        return int(v) % self.modulus

    def add(self, a, b):
        return self.normalize(a + b)

    def sub(self, a, b):
        return self.normalize(a - b)

    def neg(self, a):
        return self.normalize(-a)

    def mul(self, a, b):
        return self.normalize(a * b)

    def inv(self, a):
        a = self.normalize(a)
        if a == self.zero:
            raise RingError("division by zero")
        if self.kind == "Q":
            return a if a == 1 or a == -1 else self.normalize(Fraction(1) / a)
        if self.kind == "Zmod":
            if _gcd(a, self.modulus) != 1:
                raise RingError(f"{a} is not a unit mod {self.modulus}")
            return pow(a, -1, self.modulus)
        if a in (1, -1):
            return a
        raise RingError(f"{a} is not a unit in Z")

    def parse(self, text):
        """Parse a ring element from its JSON string/int form."""
        if self.kind == "Q":
            return self.normalize(Fraction(str(text)))
        return self.normalize(int(text))

    def fmt(self, v):
        if self.kind == "Q":
            f = Fraction(v)
            return str(f.numerator) if f.denominator == 1 else str(f)
        return str(v)


RING_Q = Ring("Q")
RING_Z = Ring("Z")


def ring_zmod(n):
    return Ring("Zmod", n)


class BadModulus(RingError):
    """A 'Zp:<n>' ring spec whose n is not an integer >= 2."""


def parse_ring_spec(spec):
    """CLI ring flag: 'Q', 'Z', or 'Zp:<n>' with n an integer >= 2."""
    if spec == "Q":
        return RING_Q
    if spec == "Z":
        return RING_Z
    if spec.startswith("Zp:"):
        try:
            modulus = int(spec[3:])
        except ValueError:
            modulus = 0
        if modulus < 2:
            raise BadModulus(f"ring spec {spec!r}: the modulus must be an integer >= 2")
        return ring_zmod(modulus)
    raise RingError(f"unknown ring spec {spec!r} (expected Q, Z, or Zp:<p>)")


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# --- spans ---------------------------------------------------------------------

def span_solver(ring, gens):
    """Eliminate gens once and return a function from a target vector to
    coefficients expressing it in the R-module span of gens, or None when it
    is not in the span.  Over Z/n with composite n this raises NotAField.

    Vectors are sparse {column: entry}, columns nonnegative ints; a column a
    vector lacks is a zero entry, and a target column that no generator has
    is not in the span.  Key n + j, n past every generator column, holds a
    row's coefficient of generator j, so each row carries its combination.
    A row is reduced at its leftmost column by the quotient a * inv(b) over
    a field and a // b over Z; over Z a nonzero remainder takes the pivot's
    place and the old pivot is reduced in turn, which is Euclid's algorithm
    on that column.

    The coefficients come back sparse, {j: c} with c nonzero and j in
    range(len(gens)): a target's cost follows the pivots it meets, not the
    number of generators.  Over a field the pivots are final once the
    elimination ends, so each leading entry is inverted then, once, and a
    target's reduction steps multiply by the cached inverse.
    """
    if ring.kind == "Zmod" and not ring.is_field():
        raise NotAField(f"span solving is not supported over {ring!r}")
    field = ring.kind != "Z"

    def quotient(a, b):
        return ring.mul(a, ring.inv(b)) if field else a // b

    def sparse(vec):
        out = {}
        for c, a in vec.items():
            if not isinstance(c, int) or c < 0:
                raise RingError(f"column {c!r} is not a nonnegative integer")
            if a := ring.normalize(a):
                out[c] = a
        return out

    def subtract(u, q, v):
        """u -= q * v in place, dropping the entries that vanish."""
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
    inverse = {col: ring.inv(piv[col]) for col, piv in pivots.items()} if field else {}

    def solve(target):
        t = sparse(target)
        if t and max(t) >= n:
            return None
        while t and (col := min(t)) < n:
            piv = pivots.get(col)
            if piv is None:
                return None
            subtract(t, ring.mul(t[col], inverse[col]) if field else t[col] // piv[col], piv)
            if col in t:
                return None
        return {c - n: ring.neg(a) for c, a in t.items()}

    return solve
