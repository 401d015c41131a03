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
    f13 = PrimeField(13)
    f = binary.binary_form(f13, [3, 1, 4, 1])
    pts = [f13.of(k) for k in range(4)]
    vals = [binary.evaluate(f, lam, 1) for lam in pts]
    coeffs = binary.interpolate_univariate(f13, pts, vals)
    assert binary.homogenize(f13, coeffs, 3) == f
