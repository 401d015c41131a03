import math
import random
from fractions import Fraction

import pytest

from ulrichmf import binary
from ulrichmf.fields import QQ, PrimeField
from ulrichmf.poly import Poly, PolyError


def test_roots_difference_of_squares():
    f = binary.binary_form(QQ, [1, 0, -1])  # s^2 - t^2
    found, inf_mult, splits = binary.roots(f)
    assert splits and inf_mult == 0
    assert found == [(Fraction(-1), 1), (Fraction(1), 1)]


def test_roots_with_infinity():
    # (s + t)^2 * t: root -1 with multiplicity 2 plus a root at infinity
    f = binary.binary_form(QQ, [1, 2, 1]) * Poly.variable(QQ, binary.ST, "t")
    found, inf_mult, splits = binary.roots(f)
    assert found == [(Fraction(-1), 2)]
    assert inf_mult == 1
    assert splits


def test_roots_nonsplit_reported():
    f = binary.binary_form(QQ, [1, 0, 1])  # s^2 + t^2, irreducible over Q
    found, inf_mult, splits = binary.roots(f)
    assert found == [] and inf_mult == 0 and not splits


def test_roots_prime_field():
    f13 = PrimeField(13)
    # (s - 3t)(s - 5t)^2
    f = binary.root_factor(f13, 3) * binary.root_factor(f13, 5) ** 2
    found, inf_mult, splits = binary.roots(f)
    assert splits and inf_mult == 0
    assert found == [(3, 1), (5, 2)]


def test_roots_product_reconstructs_input():
    f13 = PrimeField(13)
    f = binary.binary_form(f13, [2, 1, 7, 5])
    found, inf_mult, splits = binary.roots(f)
    if splits:
        rebuilt = Poly.const(f13, binary.ST, 1)
        for lam, mult in found:
            rebuilt = rebuilt * binary.root_factor(f13, lam) ** mult
        rebuilt = rebuilt * Poly.variable(f13, binary.ST, "t") ** inf_mult
        assert binary.normalize(rebuilt) == binary.normalize(f)


def test_zero_form_rejected():
    with pytest.raises(PolyError):
        binary.roots(Poly.zero(QQ, binary.ST))


def test_squarefree():
    assert binary.squarefree_distinct(binary.binary_form(QQ, [1, 0, -1]))
    square = binary.root_factor(QQ, 1) ** 2
    assert not binary.squarefree_distinct(square)
    # double root at infinity
    t = Poly.variable(QQ, binary.ST, "t")
    assert not binary.squarefree_distinct(t * t * binary.root_factor(QQ, 2))
    assert binary.squarefree_distinct(t * binary.root_factor(QQ, 2))
    # irreducible but squarefree over the closure
    assert binary.squarefree_distinct(binary.binary_form(QQ, [1, 0, 1]))


def test_normalize():
    f = binary.binary_form(QQ, [0, 3, 6])
    g = binary.normalize(f)
    assert g == binary.binary_form(QQ, [0, 1, 2])


def test_interpolation_round_trip():
    rng = random.Random(3)
    for field in (PrimeField(13), PrimeField(10009), QQ):
        for deg in range(9):
            f = binary.binary_form(field, [rng.randrange(-20, 20) for _ in range(deg + 1)])
            pts = [field.of(k) for k in rng.sample(range(-6, 7), deg + 1)]
            vals = [f.evaluate({"s": lam, "t": 1}) for lam in pts]
            coeffs = binary.interpolate_univariate(field, pts, vals)
            assert len(coeffs) == deg + 1
            assert binary.homogenize(field, coeffs, deg) == f


# -- the F_p root finder against a brute-force scan ---------------------------


def scan_roots(field, f):
    """Reference: try every lam in F_p on the dense dehomogenized form."""
    p = field.p
    d = f.homogeneous_degree()
    inf = min(e[1] for e in f.terms)
    coeffs = [f.coefficient((i, d - i)) for i in range(d - inf + 1)]  # ascending in s
    found = []
    for lam in range(p):
        mult = 0
        while len(coeffs) > 1:
            quo = [0] * (len(coeffs) - 1)  # synthetic division by (s - lam)
            acc = 0
            for i in range(len(coeffs) - 1, 0, -1):
                acc = (acc * lam + coeffs[i]) % p
                quo[i - 1] = acc
            if (acc * lam + coeffs[0]) % p:
                break
            coeffs, mult = quo, mult + 1
        if mult:
            found.append((lam, mult))
    return found, inf, len(coeffs) == 1


def planted_form(field, scale, roots_with_mult, inf_mult=0, cofactor=None):
    f = Poly.const(field, binary.ST, scale) * Poly.variable(field, binary.ST, "t") ** inf_mult
    for lam, mult in roots_with_mult:
        f = f * binary.root_factor(field, lam) ** mult
    return f if cofactor is None else f * cofactor


@pytest.mark.parametrize("p", [3, 5])
def test_roots_every_product_of_distinct_factors(p):
    # every nonempty set of points of P^1(F_p); the full set has degree p + 1,
    # and the sets containing all of F_p make gcd(g, s^p - s) = g itself
    field = PrimeField(p)
    points = list(range(p)) + [None]
    for mask in range(1, 2 ** (p + 1)):
        chosen = [pt for k, pt in enumerate(points) if mask >> k & 1]
        finite = [lam for lam in chosen if lam is not None]
        f = planted_form(field, 2, [(lam, 1) for lam in finite], inf_mult=len(chosen) - len(finite))
        got = binary.roots(f)
        assert got == scan_roots(field, f)
        assert got == ([(lam, 1) for lam in finite], int(None in chosen), True)


def test_roots_random_forms_match_scan():
    field = PrimeField(10009)
    rng = random.Random(11)
    kinds = set()
    for trial in range(24):
        planted = [(rng.randrange(field.p), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        cofactor = binary.binary_form(field, [rng.randrange(1, field.p) for _ in range(rng.randint(1, 6))])
        f = planted_form(field, rng.randrange(1, field.p), planted, rng.randint(0, 2), cofactor)
        got = binary.roots(f)
        assert got == scan_roots(field, f), trial
        for lam, _ in planted:
            assert lam in [r for r, _ in got[0]]
        kinds.add(got[2])
    assert kinds == {True, False}


def test_roots_only_at_infinity():
    for field in (PrimeField(3), PrimeField(10009), PrimeField(2**61 - 1)):
        for d in (1, 2, 5):
            f = Poly.from_pairs(field, binary.ST, [((0, d), 7)])
            assert binary.roots(f) == ([], d, True)


def test_roots_past_int64_bound():
    field = PrimeField(2**61 - 1)
    rng = random.Random(5)
    planted = {rng.randrange(field.p): m for m in (1, 2, 3)}
    planted[0] = 2
    f = planted_form(field, 3, planted.items(), inf_mult=1)
    assert binary.roots(f) == (sorted(planted.items()), 1, True)
    # times an irreducible quadratic s^2 - n t^2, n a non-residue
    n = next(k for k in range(2, 100) if field.legendre(k) == -1)
    quad = binary.binary_form(field, [1, 0, field.neg(n)])
    assert binary.roots(f * quad) == (sorted(planted.items()), 1, False)


def test_roots_skip_irreducible_quadratic():
    # negative control: the quadratic has no root in F_p, so only the linear
    # factors are found and the form does not split
    field = PrimeField(10009)
    n = next(k for k in range(2, 100) if field.legendre(k) == -1)
    quad = binary.binary_form(field, [1, 0, field.neg(n)])
    f = planted_form(field, 1, [(3, 1), (77, 2), (10008, 1)], cofactor=quad)
    got = binary.roots(f)
    assert got == ([(3, 1), (77, 2), (10008, 1)], 0, False)
    assert got == scan_roots(field, f)


# -- rational roots lifted from one prime against trial division ----------------


def trial_division_candidates(coeffs):
    """Reference: every n/d with n dividing the constant term and d the leading
    coefficient of the ascending list g(s, 1) with its denominators cleared, 0
    included."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]
    yield Fraction(0)
    if not ints:
        return
    for r in divisors(ints[0]):
        for q in divisors(ints[-1]):
            yield Fraction(r, q)
            yield Fraction(-r, q)


def divisors(n):
    n = abs(n)
    return sorted({d for i in range(1, math.isqrt(n) + 1) if n % i == 0 for d in (i, n // i)})


def test_rational_roots_match_trial_division(monkeypatch):
    rng = random.Random(7)
    fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(30)]
    kinds = set()
    for trial in range(30):
        planted = {rng.choice(fractions): rng.randint(1, 3) for _ in range(rng.randint(1, 4))}
        if trial % 3 == 0:
            planted[Fraction(0)] = rng.randint(1, 2)  # a root at 0
        # s^2 + k t^2 has no rational root
        quad = binary.binary_form(QQ, [1, 0, rng.randint(1, 9)]) if trial % 2 else None
        f = planted_form(QQ, Fraction(rng.randint(1, 20), rng.randint(1, 20)), planted.items(),
                         rng.randint(0, 2), quad)
        got = binary.roots(f)
        assert got[0] == sorted(planted.items(), key=lambda item: binary.root_sort_key(item[0])), trial
        assert got[2] == (quad is None)
        kinds.add(got[2])
        with monkeypatch.context() as m:
            m.setattr(binary, "_rational_candidates", trial_division_candidates)
            assert binary.roots(f) == got, trial
    assert kinds == {True, False}


def test_rational_roots_of_large_coefficients():
    # a product of linear factors with 40-bit numerators and denominators,
    # whose coefficients trial division could not factor
    rng = random.Random(9)
    planted = {Fraction(rng.randint(-2**40, 2**40), rng.randint(1, 2**40)): m for m in (1, 2, 1)}
    f = planted_form(QQ, 3, planted.items(), cofactor=binary.binary_form(QQ, [1, 0, 2]))
    want = sorted(planted.items(), key=lambda item: binary.root_sort_key(item[0]))
    assert binary.roots(f) == (want, 0, False)
