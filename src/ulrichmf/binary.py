"""Homogeneous binary forms in (s, t): roots, squarefree tests, interpolation.

A binary form is a homogeneous Poly in the fixed variables ("s", "t").
Roots are reported as scalars lam with linear factor (s - lam*t); the factor
t itself is the root at infinity and is tracked separately.  Over F_p the
roots are found by Cantor-Zassenhaus (:func:`_roots_mod_p`); over Q the
candidates are roots mod one prime, Newton-lifted far enough to read off the
rational roots (:func:`_rational_candidates`), and both are kept only if the
form vanishes there.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from . import linalg
from .fields import QQ, Field, PrimeField, RationalField, _is_prime, rational
from .poly import Poly, PolyError

ST = ("s", "t")


def binary_form(field: Field, coeffs) -> Poly:
    """Form with descending s-coefficients: coeffs[i] multiplies s^(d-i) t^i."""
    d = len(coeffs) - 1
    return Poly.from_pairs(field, ST, (((d - i, i), c) for i, c in enumerate(coeffs)))


def linear_form(field: Field, a, b) -> Poly:
    """a*s + b*t."""
    return binary_form(field, [a, b])


def root_factor(field: Field, lam) -> Poly:
    """The linear factor s - lam*t."""
    return binary_form(field, [1, field.neg(field.of(lam))])


def check_binary(f: Poly, degree: int | None = None) -> int:
    """Validate a nonzero homogeneous (s, t)-form; returns its degree."""
    if f.vars != ST:
        raise PolyError(f"expected a form in {ST}, got variables {f.vars}")
    if f.is_zero():
        raise PolyError("zero binary form")
    d = f.homogeneous_degree()
    if degree is not None and d != degree:
        raise PolyError(f"expected degree {degree}, got {d}")
    return d


def coeff_list(f: Poly) -> list:
    """Ascending s-coefficients of a binary form: entry i multiplies s^i."""
    d = check_binary(f)
    return [f.coefficient((i, d - i)) for i in range(d + 1)]


def t_valuation(f: Poly) -> int:
    check_binary(f)
    return min(e[1] for e in f.terms)


def normalize(f: Poly) -> Poly:
    """Scale so the lexicographically first nonzero coefficient (s^d, s^{d-1}t, ...) is 1."""
    d = check_binary(f)
    for i in range(d, -1, -1):
        c = f.coefficient((i, d - i))
        if not f.field.is_zero(c):
            return f.scale(f.field.inv(c))
    raise PolyError("zero binary form")


def roots(f: Poly):
    """All linear-factor roots of a binary form.

    Returns (root_list, infinity_multiplicity, splits) where root_list holds
    (lam, multiplicity) pairs for factors (s - lam*t), infinity_multiplicity
    is the multiplicity of the factor t, and splits reports whether the found
    factors account for f up to a nonzero scalar.  The work is on f(s, 1),
    whose multiplicities come from dividing by s - lam.
    """
    field = f.field
    g, k = _dehomogenized(f)
    degree = len(g) - 1
    found = []
    for lam in _root_candidates(field, g):
        lam = field.of(lam)
        factor = [field.neg(lam), field.one]
        mult = 0
        while True:
            quo, rem = _poly_divmod(field, g, factor)
            if rem:
                break
            g, mult = quo, mult + 1
        if mult:
            found.append((lam, mult))
    found.sort(key=lambda item: root_sort_key(item[0]))
    splits = sum(m for _, m in found) == degree
    return found, k, splits


def _dehomogenized(f: Poly):
    """(ascending coefficients of f(s, 1), k) for a nonzero binary form f = t^k g
    with t not dividing g: k counts the vanishing top coefficients."""
    coeffs = coeff_list(f)
    k = 0
    while f.field.is_zero(coeffs[-1]):
        coeffs.pop()
        k += 1
    return coeffs, k


def root_sort_key(lam):
    """Sort key of a scalar: its integer in F_p, (numerator, denominator) over Q."""
    if isinstance(lam, Fraction):
        return (lam.numerator, lam.denominator)
    return (int(lam), 1)


def _root_candidates(field: Field, coeffs: list):
    if isinstance(field, PrimeField):
        return _roots_mod_p(field, coeffs)
    if isinstance(field, RationalField):
        return _rational_candidates(coeffs)
    raise PolyError("root search supports F_p and Q only")


def _roots_mod_p(field: PrimeField, coeffs: list) -> list:
    """Distinct roots in F_p of an ascending coefficient list, unsorted.

    h = gcd(g, x^p - x) is the product of the distinct linear factors of g;
    x^p mod g comes from repeated squaring, so the cost is polynomial in
    log p.  h is then split by Cantor-Zassenhaus, with the random shifts
    drawn from a fixed-seed generator owned by this call.
    """
    g = _trim(field, list(coeffs))
    if len(g) < 2:
        return []
    xp = _pow_mod(field, [field.zero, field.one], field.p, g) + [field.zero] * 2
    xp[1] = field.sub(xp[1], field.one)
    h = _gcd_univ(field, g, xp)
    found: list = []
    _split_linear(field, h, random.Random(0), found)
    return found


def _split_linear(field: PrimeField, h: list, rng: random.Random, out: list) -> None:
    """Append the roots of h, monic and a product of distinct linear factors.

    A shift a separates the roots r with (r + a)^((p-1)/2) = 1, the factors
    of gcd(h, (x + a)^((p-1)/2) - 1), from the rest.
    """
    while len(h) > 2:
        a = rng.randrange(field.p)
        w = _pow_mod(field, [a, field.one], (field.p - 1) // 2, h)
        w[0] = field.sub(w[0], field.one)
        part = _gcd_univ(field, h, w)
        if 1 < len(part) < len(h):
            _split_linear(field, part, rng, out)
            h = _poly_divmod(field, h, part)[0]
    if len(h) == 2:
        out.append(field.neg(h[0]))


def _pow_mod(field: Field, base: list, e: int, m: list) -> list:
    """base^e mod m for ascending coefficient lists, m of degree >= 1."""
    result = [field.one]
    base = _poly_mod(field, base, m)
    while e:
        if e & 1:
            result = _mul_mod(field, result, base, m)
        e >>= 1
        if e:
            base = _mul_mod(field, base, base, m)
    return result


def _mul_mod(field: Field, a: list, b: list, m: list) -> list:
    """a*b mod m for ascending coefficient lists."""
    out = [field.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _poly_mod(field, out, m)


def _rational_candidates(coeffs: list):
    """Rational root candidates of an ascending coefficient list g, 0 included.

    A rational root n/d in lowest terms is a root of h, the squarefree part
    of g with denominators cleared and the factor s taken out, so d | a and
    n | h(0) for its leading coefficient a.  The roots of h mod a prime q
    dividing neither a nor the discriminant of h (h stays squarefree mod q)
    are Newton-lifted to roots x mod a power m of q past 2 |a h(0)|; then
    the integer a n/d is a x mod m, taken between -m/2 and m/2.  Roots mod q
    of no rational root give non-roots, which :func:`roots` drops.
    """
    yield QQ.zero
    h = _poly_divmod(QQ, coeffs, _gcd_univ(QQ, coeffs, _derivative(QQ, coeffs)))[0]
    scale = lcm(*(c.denominator for c in h))
    ints = [int(c * scale) for c in h]
    while ints and ints[0] == 0:
        ints.pop(0)
    if len(ints) < 2:
        return
    a, bound = ints[-1], 2 * abs(ints[-1] * ints[0])
    q = 2**31 - 1
    while True:
        if _is_prime(q) and a % q:
            field = PrimeField(q)
            residues = [field.of(c) for c in ints]
            if len(_gcd_univ(field, residues, _derivative(field, residues))) == 1:
                break
        q -= 2
    deriv = [i * c for i, c in enumerate(ints)][1:]
    for x in _roots_mod_p(field, residues):
        m = q
        while m <= bound:
            m *= m
            x = (x - _horner(ints, x) * pow(_horner(deriv, x), -1, m)) % m
        n = a * x % m
        yield rational(n - m if n > m // 2 else n, a)


def _derivative(field: Field, coeffs: list) -> list:
    """The derivative of an ascending coefficient list."""
    return [field.mul(field.of(i), coeffs[i]) for i in range(1, len(coeffs))]


def _horner(coeffs: list, x):
    """The value at x of an ascending coefficient list."""
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def squarefree_distinct(f: Poly) -> bool:
    """True iff f has no repeated linear factor over the algebraic closure.

    The factor t (root at infinity) participates: t^2 | f fails the test.
    """
    field = f.field
    g, k = _dehomogenized(f)
    return k < 2 and len(_gcd_univ(field, g, _derivative(field, g))) == 1


def _trim(field: Field, c: list) -> list:
    while c and field.is_zero(c[-1]):
        c.pop()
    return c


def _poly_divmod(field: Field, a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by b for ascending coefficient lists, b trimmed and nonzero."""
    r = _trim(field, list(a))
    quo = [field.zero] * max(len(r) - len(b) + 1, 0)
    inv = field.inv(b[-1])
    while len(r) >= len(b):
        shift = len(r) - len(b)
        q = field.mul(r[-1], inv)
        quo[shift] = q
        for i, c in enumerate(b):
            r[shift + i] = field.sub(r[shift + i], field.mul(q, c))
        _trim(field, r)
    return quo, r


def _poly_mod(field: Field, a: list, b: list) -> list:
    """Remainder of a mod b for ascending coefficient lists, b trimmed and nonzero."""
    return _poly_divmod(field, a, b)[1]


def _gcd_univ(field: Field, a: list, b: list) -> list:
    """Monic gcd of univariate coefficient lists (ascending), len-1 list if coprime."""
    a, b = _trim(field, list(a)), _trim(field, list(b))
    while b:
        a, b = b, _poly_mod(field, a, b)
    if not a:
        return []
    inv = field.inv(a[-1])
    return [field.mul(c, inv) for c in a]


def interpolate_univariate(field: Field, points, values) -> list:
    """Ascending coefficients c, length len(points), with sum_k c_k x^k = value
    at each point: the solution of the Vandermonde system."""
    if len(values) != len(points):
        raise PolyError("points/values length mismatch")
    rows = []
    for x in points:
        row = [field.one]
        for _ in range(len(points) - 1):
            row.append(field.mul(row[-1], x))
        rows.append(row)
    return linalg.solve(field, rows, list(values), len(points))


def homogenize(field: Field, coeffs: list, degree: int) -> Poly:
    """Ascending univariate coefficients -> binary form of the given degree."""
    if len(coeffs) > degree + 1:
        raise PolyError("too many coefficients for the stated degree")
    pairs = [((i, degree - i), c) for i, c in enumerate(coeffs)]
    return Poly.from_pairs(field, ST, pairs)
