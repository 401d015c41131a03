"""The one exact scalar product, ``linalg.matmul``, against a triple loop.

Every product is taken on float64 BLAS, on as many limbs of each entry as
keep the partial sums exact.  Over F_p the unreduced product is int64 while
2 k (p - 1)^2 < 2^63 for the inner dimension k, and Python ints past that;
the reduced result has the field's stored scalar type, ``scalar_dtype``.
Both bounds, the dtype's and the number of limbs', are tested on both sides
with the largest residues, where an overflow or a rounded float would show.
Over Q the operands are scaled to integers.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichmf import linalg
from ulrichmf.fields import QQ, PrimeField

from tests.scalars import assert_field_scalar


def triple_loop(field, a, b):
    """The reference product: sum_k a[i][k] b[k][j] with the field's scalars."""
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0]) if b else 0):
            acc = field.zero
            for x, col in zip(row, b):
                acc = field.add(acc, field.mul(x, col[j]))
            out[-1].append(acc)
    return out


def largest_inner(p, limit):
    """The largest inner dimension k with k (p - 1)^2 < limit."""
    return (limit - 1) // (p - 1) ** 2


# (p, inner, dtype): the int64 bound 2 k (p - 1)^2 < 2^63 on its last and first
# side, dtype the type of the unreduced product
DTYPE_BOUNDARIES = [
    (67108859, largest_inner(67108859, 2**62), np.int64),
    (67108859, largest_inner(67108859, 2**62) + 1, object),
    (2147483647, 1, np.int64),
    (2147483647, 2, object),
    (3037000493, 0, np.int64),
    (3037000493, 1, object),
]

# (p, inner): the float64 limbs have 26 bits at p = 67108859, so one limb holds
# inner 1 and two are needed from inner 2; at p = 2^61 - 1 three limbs of 21
# bits hold inner dimensions up to 682 and four are needed from 683
LIMB_BOUNDARIES = [(67108859, 1), (67108859, 2), (2**61 - 1, 682), (2**61 - 1, 683)]


def test_int64_bound_at_the_default_prime():
    # at p = 10009 products stay int64 up to inner dimension 46,043,161,657
    assert largest_inner(10009, 2**62) == 46043161657
    field = PrimeField(10009)
    assert linalg.matmul(field, [[10008] * 3], [[10008]] * 3).dtype == np.int64


@pytest.mark.parametrize("p, inner, dtype", DTYPE_BOUNDARIES)
def test_dtype_boundaries(p, inner, dtype, monkeypatch):
    field = PrimeField(p)
    top = p - 1
    # one row and one column of p - 1: the largest entry sum the bound allows for
    a = [[top] * inner, [top - 1] * inner]
    b = [[top, top - 1] for _ in range(inner)]
    unreduced = []
    real = linalg._int_matmul
    monkeypatch.setattr(linalg, "_int_matmul",
                        lambda a, b, top, dtype: unreduced.append(dtype) or real(a, b, top, dtype))
    got = linalg.matmul(field, a, b)
    assert unreduced == [dtype]
    assert got.dtype == linalg.scalar_dtype(field) and got.shape == (2, 2 if inner else 0)
    if inner:
        # inner (p - 1)^2 = inner mod p, and so on
        assert got.tolist() == [[inner % p, 2 * inner % p], [2 * inner % p, 4 * inner % p]]


@pytest.mark.parametrize("p, inner", [(p, k) for p, k, _ in DTYPE_BOUNDARIES if k < 64]
                         + LIMB_BOUNDARIES)
def test_boundaries_match_triple_loop(p, inner):
    field = PrimeField(p)
    rng = random.Random(p + inner)
    a = [[rng.choice([0, 1, p - 2, p - 1, rng.randrange(p)]) for _ in range(inner)]
         for _ in range(5)]
    b = [[rng.choice([0, p - 1, rng.randrange(p)]) for _ in range(4)] for _ in range(inner)]
    got = linalg.matmul(field, a, b)
    assert got.dtype == linalg.scalar_dtype(field)
    assert got.tolist() == triple_loop(field, a, b)


@pytest.mark.parametrize("field", [PrimeField(10009), PrimeField(2**31 - 1),
                                   PrimeField(2**61 - 1), QQ], ids=str)
def test_arrays_and_lists_give_one_product(field):
    rng = random.Random(7)
    draw = (lambda: Fraction(rng.randrange(-30, 30), rng.randrange(1, 9))) if field is QQ \
        else (lambda: field.of(rng.randrange(field.p)))
    a = [[draw() for _ in range(6)] for _ in range(3)]
    b = [[draw() for _ in range(2)] for _ in range(6)]
    want = triple_loop(field, a, b)
    dtype = linalg.scalar_dtype(field)
    assert linalg.matmul(field, a, b).tolist() == want
    assert linalg.matmul(field, np.array(a, dtype=dtype), np.array(b, dtype=dtype)).tolist() == want
    (left, da), (right, db) = (linalg.integral(field, np.array(x, dtype=dtype)) for x in (a, b))
    prod = linalg.integer_matmul(field, left, right)
    assert [[Fraction(x, da * db) for x in row] for row in prod.tolist()] == [
        [Fraction(x) if field is QQ else x for x in row] for row in want]


def test_rationals_are_scaled_to_integers():
    a = [[Fraction(1, 2), Fraction(-2, 3)], [Fraction(0), Fraction(5)]]
    b = [[Fraction(3, 4)], [Fraction(1, 6)]]
    (left, da), (right, db) = (linalg.integral(QQ, np.array(x, dtype=object)) for x in (a, b))
    assert (da, db) == (6, 12) and left.tolist() == [[3, -4], [0, 30]]
    # the integer product is 72 times a @ b
    assert linalg.integer_matmul(QQ, left, right).tolist() == [[19], [60]]
    got = linalg.matmul(QQ, a, b)
    assert got.tolist() == [[Fraction(19, 72)], [Fraction(5, 6)]]
    for x in got.flat:
        assert_field_scalar(QQ, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.integers(0, 4), st.integers(0, 200),
       st.randoms(use_true_random=False))
def test_integer_limbs_match_python_ints(rows, inner, cols, bits, rng):
    # every split into float64 limbs gives the exact integer product, signs included
    draw = lambda: rng.randrange(-(2**bits), 2**bits + 1)
    a = [[draw() for _ in range(inner)] for _ in range(rows)]
    b = [[draw() for _ in range(cols)] for _ in range(inner)]
    top = max([abs(x) for row in a + b for x in row], default=0)
    got = linalg._int_matmul(np.array(a, dtype=object).reshape(rows, inner),
                             np.array(b, dtype=object).reshape(inner, cols), top, object)
    want = [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(cols)] for row in a]
    assert got.shape == (rows, cols) and got.tolist() == want


def test_empty_products():
    for field in (PrimeField(10009), PrimeField(2**61 - 1), QQ):
        assert linalg.matmul(field, [[1, 2]], [[3], [4]]).shape == (1, 1)
        assert linalg.matmul(field, [[], []], []).shape == (2, 0)
        assert linalg.matmul(field, [], [[1, 2]]).shape == (0, 2)
