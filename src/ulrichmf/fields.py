"""Exact coefficient fields: prime fields F_p (p an odd prime) and the rationals.

Scalars are plain Python values: ints in [0, p) for a prime field; over the
rationals an int when the value is integral and a Fraction with denominator
greater than 1 otherwise (:func:`rational` is the one normalization).  A
Field object supplies the arithmetic; every computation carries exactly one
Field and mixing fields is an error.
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_PRIME = 10009  # smallest 5-digit prime congruent to 1 mod 4
# Miller-Rabin on the primes up to 41 is proven deterministic below
# psi_13 = 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 2017);
# psi_13 itself is a composite that passes every one of those bases
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


class FieldError(ValueError):
    pass


class NotASquare(FieldError):
    """Raised when a square root is requested for a non-residue."""


class Field:
    """Common interface for exact fields."""

    name: str
    # canonical scalars, constant per field
    zero: object
    one: object

    def of(self, value):
        """Coerce an int (or Fraction, over Q) into a canonical scalar."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def sqrt(self, a):
        """A square root of a, deterministic representative.  Raises NotASquare."""
        raise NotImplementedError

    def elements(self, limit=None):
        """Iterate field elements (all of F_p; small integers and ratios over Q)."""
        raise NotImplementedError


class PrimeField(Field):
    """F_p for an odd prime p.  Scalars are ints reduced into [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise FieldError(
                f"field characteristic {p} is too large: primality is proven "
                f"only for p < {PRIME_BOUND}"
            )
        if p < 3 or p % 2 == 0 or not _is_prime(p):
            raise FieldError(f"field characteristic must be an odd prime, got {p}")
        self.p = p
        self.name = str(p)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return other is self or (isinstance(other, PrimeField) and other.p == self.p)

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def of(self, value):
        if isinstance(value, Fraction):
            return self.div(value.numerator % self.p, value.denominator % self.p)
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def legendre(self, a) -> int:
        """Legendre symbol (a/p): 1, -1 or 0."""
        a %= self.p
        if a == 0:
            return 0
        ls = pow(a, (self.p - 1) // 2, self.p)
        return -1 if ls == self.p - 1 else 1

    def sqrt(self, a):
        """Tonelli-Shanks square root, returning the representative in [0, (p-1)/2]."""
        p = self.p
        a %= p
        if a == 0:
            return 0
        if self.legendre(a) != 1:
            raise NotASquare(f"{a} is not a square mod {p}; choose a different prime or input")
        if p % 4 == 3:
            r = pow(a, (p + 1) // 4, p)
            return min(r, p - r)
        # decompose p - 1 = q * 2^s with q odd
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while self.legendre(z) != -1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return min(r, p - r)

    def elements(self, limit=None):
        n = self.p if limit is None else min(limit, self.p)
        return iter(range(n))


def rational(n, d=1):
    """The canonical Q scalar of n / d: an int when it is integral, else a
    Fraction, whose denominator is then greater than 1.

    n and d are ints with d != 0, or d = 1 and n an int or a Fraction.  An
    integral quotient is found by one divmod, without the gcd of a Fraction.
    """
    if d != 1:
        q, r = divmod(n, d)
        return Fraction(n, d) if r else q
    if type(n) is not int and n.denominator == 1:
        return n.numerator
    return n


class RationalField(Field):
    """The rationals.  A scalar is an int when it is integral and a Fraction
    otherwise, so the integer arithmetic most of a construction does builds
    no Fraction; each result goes through :func:`rational`.  An int n and
    Fraction(n) compare and hash equal, and print the same."""

    name = "Q"
    zero = 0
    one = 1

    def __repr__(self):
        return "RationalField()"

    def __eq__(self, other):
        return other is self or isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def of(self, value):
        if type(value) is int:
            return value
        # int(): the numerator of Fraction(np.int64(3)) is still a numpy int
        value = Fraction(value)
        return rational(int(value.numerator), int(value.denominator))

    def add(self, a, b):
        return rational(a + b)

    def sub(self, a, b):
        return rational(a - b)

    def mul(self, a, b):
        return rational(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return rational(a.denominator, a.numerator)

    def is_zero(self, a) -> bool:
        return a == 0

    def sqrt(self, a):
        a = Fraction(a)
        if a < 0:
            raise NotASquare(f"{a} is negative, not a rational square")
        rn = _isqrt_exact(a.numerator)
        rd = _isqrt_exact(a.denominator)
        if rn is None or rd is None:
            raise NotASquare(f"{a} is not a rational square")
        return rational(rn, rd)

    def elements(self, limit=None):
        # small integers, canonical as they are
        return iter(range(100 if limit is None else limit))


QQ = RationalField()


def field_from_name(name) -> Field:
    """Parse a field descriptor: 'Q'/'QQ' or an odd prime."""
    if isinstance(name, Field):
        return name
    text = str(name).strip()
    if text.upper() in ("Q", "QQ"):
        return QQ
    return PrimeField(int(text))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    # deterministic for n < PRIME_BOUND
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _isqrt_exact(n: int):
    import math

    r = math.isqrt(n)
    return r if r * r == n else None
