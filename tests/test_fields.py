from fractions import Fraction

import numpy as np
import pytest

from ulrichmf.fields import (
    QQ,
    DEFAULT_PRIME,
    FieldError,
    NotASquare,
    PrimeField,
    field_from_name,
)

from tests.scalars import assert_field_scalar


def test_default_prime_is_1_mod_4():
    assert DEFAULT_PRIME % 4 == 1
    assert PrimeField(DEFAULT_PRIME).p == DEFAULT_PRIME


def test_prime_field_rejects_bad_characteristic():
    for bad in (0, 1, 2, 4, 9, 10000):
        with pytest.raises(FieldError):
            PrimeField(bad)


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.neg(2) == 5
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_sqrt_examples():
    f = PrimeField(7)
    assert f.sqrt(2) == 3  # 3^2 = 9 = 2 mod 7
    assert f.sqrt(0) == 0
    with pytest.raises(NotASquare):
        f.sqrt(3)


def test_sqrt_brute_force_agreement():
    # every quadratic residue gets a root r with r^2 = a, and the canonical rep
    for p in (7, 13, 10009):
        f = PrimeField(p)
        squares = {x * x % p for x in range(1, min(p, 300))}
        for a in sorted(squares)[:50]:
            r = f.sqrt(a)
            assert r * r % p == a
            assert 0 <= r <= (p - 1) // 2


def test_sqrt_tonelli_branch():
    # p = 13 = 1 mod 4 exercises the full Tonelli-Shanks loop
    f = PrimeField(13)
    assert f.sqrt(12) in (5, 8)  # sqrt(-1) mod 13
    assert f.sqrt(12) == 5  # canonical representative
    with pytest.raises(NotASquare):
        f.sqrt(2)


def test_rational_field():
    from fractions import Fraction

    assert QQ.of(3) == Fraction(3)
    assert QQ.div(QQ.of(1), QQ.of(3)) == Fraction(1, 3)
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    with pytest.raises(NotASquare):
        QQ.sqrt(Fraction(2))
    with pytest.raises(NotASquare):
        QQ.sqrt(Fraction(-4))


def test_field_from_name():
    assert field_from_name("Q") == QQ
    assert field_from_name("10009") == PrimeField(10009)
    assert field_from_name(PrimeField(7)) == PrimeField(7)


def test_prime_field_rejects_strong_pseudoprimes():
    psi12 = 318665857834031151167461
    psi13 = 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441
    assert psi13 % 1287836182261 == 0
    with pytest.raises(FieldError, match="odd prime"):
        PrimeField(psi12)
    with pytest.raises(FieldError, match=f"p < {psi13}"):
        PrimeField(psi13)
    with pytest.raises(FieldError, match=f"p < {psi13}"):
        PrimeField(psi13 + 2)


def test_prime_field_accepts_kernel_test_primes():
    from test_modp import PRIMES

    assert max(PRIMES) == 2**64 + 13
    for p in PRIMES:
        assert PrimeField(p).p == p


@pytest.mark.parametrize("field", [QQ, PrimeField(10009)], ids=str)
def test_field_scalar_check_rejects_every_other_form(field):
    assert_field_scalar(field, 3)
    for bad in (Fraction(3, 1), np.int64(3), 3.0, Fraction(0)):
        with pytest.raises(AssertionError):
            assert_field_scalar(field, bad)
    if field is QQ:
        assert_field_scalar(field, Fraction(1, 2))
    else:
        with pytest.raises(AssertionError):
            assert_field_scalar(field, Fraction(1, 2))
