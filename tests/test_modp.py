"""Linear algebra over F_p against a pure-Python reference, on both element types.

``modp`` holds the two echelon loops, ``linalg`` reads rank, kernel, solve and
determinant off them; both are tested here through ``linalg`` over
``PrimeField(p)``, and the forward form through ``modp.echelon`` directly.
The loops run on int64 while (p - 1)^2 < 2^63 and on object arrays of Python
ints past that bound; the primes below sit on either side of it.

``modp.rref`` is also checked against ``rref_reference``, the masked
outer-product Gauss-Jordan loop its broadcast step replaced: same array, same
element type, same pivots, input untouched.  ``linalg`` takes a matrix as a
list of rows or as a 2-d array, and the two give the same answers over
F_10009, F_(2^61 - 1) and Q.
"""

import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from ulrichmf import linalg, modp
from ulrichmf.fields import QQ, PrimeField


def random_matrix(rng, rows, cols, p):
    return np.array(
        [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    )


def perm_det(a, p):
    """Permutation-expansion determinant oracle, exact mod p."""
    n = a.shape[0]
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term = term * int(a[i, perm[i]]) % p
        total = (total + term) % p
    return total % p


def test_rref_known():
    a = np.array([[2, 4, 6], [1, 2, 4]], dtype=np.int64)
    r, piv = modp.rref(a, 7)
    assert list(piv) == [0, 2]
    assert r.tolist() == [[1, 2, 0], [0, 0, 1]]


def test_nullspace_property():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.choice([7, 13, 10009])
        a = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7), p)
        field, ncols = PrimeField(p), a.shape[1]
        ns = linalg.nullspace(field, a.tolist(), ncols)
        assert len(ns) == ncols - linalg.rank(field, a.tolist(), ncols)
        for v in ns:
            assert np.all(a @ np.array(v, dtype=np.int64) % p == 0)


def test_solve():
    rng = random.Random(99)
    p = 10009
    for _ in range(20):
        n = rng.randrange(1, 7)
        a = random_matrix(rng, n, n, p)
        x = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
        b = a @ x % p
        got = linalg.solve(PrimeField(p), a.tolist(), b.tolist())
        assert got is not None
        assert np.all(a @ np.array(got, dtype=np.int64) % p == b)


def test_solve_inconsistent():
    assert linalg.solve(PrimeField(7), [[1, 1], [1, 1]], [0, 1]) is None


def test_det_against_permanent_oracle():
    rng = random.Random(5)
    for n in range(1, 5):
        for _ in range(8):
            p = rng.choice([7, 13, 101])
            a = random_matrix(rng, n, n, p)
            assert linalg.det(PrimeField(p), a.tolist()) == perm_det(a, p)


# -- differential tests against a pure-Python reference -------------------------

PRIMES = [3, 10009, 3037000493, 3037000507, 2**61 - 1, 18446744073709551629]


def ref_rref(rows, ncols, p):
    """Reduced row echelon form mod p on lists of Python ints."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def ref_nullspace(rows, ncols, p):
    r, piv = ref_rref(rows, ncols, p)
    basis = []
    for c in (c for c in range(ncols) if c not in piv):
        v = [0] * ncols
        v[c] = 1
        for i, pc in enumerate(piv):
            v[pc] = -r[i][c] % p
        basis.append(v)
    return basis


def ref_matvec(rows, v, p):
    return [sum(x * y for x, y in zip(row, v)) % p for row in rows]


def input_dtype(p):
    """The arrays a caller holds: int64 where residues fit, else Python ints."""
    return np.int64 if p < 2**63 else object


def as_input(rows, ncols, p):
    return np.array(rows, dtype=input_dtype(p)).reshape(len(rows), ncols)


def as_lists(a):
    return [[int(x) for x in row] for row in a]


def cases(p, seed):
    """(rows, ncols) pairs: empty, zero-row, zero-column and zero matrices,
    entries at or near p - 1, rank-deficient products, then random ones."""
    rng = random.Random(seed)

    def rand(nrows, ncols):
        return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]

    def low_rank(nrows, ncols, k):
        left, right = rand(nrows, k), rand(k, ncols)
        return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)]
                for row in left]

    out = [([], 0), ([], 4), ([[], [], []], 0), ([[0] * 3] * 2, 3),
           ([[p - 1] * 4 for _ in range(3)], 4),
           ([[p - 1 - rng.randrange(3) for _ in range(5)] for _ in range(5)], 5)]
    for nrows, ncols, k in ((4, 4, 2), (5, 3, 1), (3, 6, 2), (6, 6, 5)):
        out.append((low_rank(nrows, ncols, k), ncols))
    for _ in range(6):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        out.append((rand(nrows, ncols), ncols))
    return out


def test_element_type_boundary():
    assert (3037000493 - 1) ** 2 < 2**63 <= (3037000507 - 1) ** 2
    assert modp._dtype(3037000493) is np.int64
    assert modp._dtype(3037000507) is object


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_reference(p):
    field = PrimeField(p)
    for rows, ncols in cases(p, 1):
        r, piv = linalg.rref(field, rows, ncols)
        want_r, want_piv = ref_rref(rows, ncols, p)
        assert (r, piv) == (want_r, want_piv)
        assert as_lists(modp.rref(as_input(rows, ncols, p), p)[0]) == want_r
        assert linalg.rank(field, rows, ncols) == len(want_piv)


@pytest.mark.parametrize("p", PRIMES)
def test_nullspace_matches_reference(p):
    for rows, ncols in cases(p, 2):
        basis = linalg.nullspace(PrimeField(p), rows, ncols)
        assert basis == ref_nullspace(rows, ncols, p)
        for v in basis:
            assert ref_matvec(rows, v, p) == [0] * len(rows)


@pytest.mark.parametrize("p", PRIMES)
def test_solve_matches_reference(p):
    rng = random.Random(3)
    for rows, ncols in cases(p, 3):
        if not rows:
            continue
        for b in (ref_matvec(rows, [rng.randrange(p) for _ in range(ncols)], p),
                  [rng.randrange(p) for _ in rows]):
            x = linalg.solve(PrimeField(p), rows, b, ncols)
            aug = [row + [v] for row, v in zip(rows, b)]
            r, piv = ref_rref(aug, ncols + 1, p)
            if ncols in piv:
                assert x is None
                continue
            want = [0] * ncols
            for i, c in enumerate(piv):
                want[c] = r[i][ncols]
            assert x == want
            assert ref_matvec(rows, want, p) == b


@pytest.mark.parametrize("p", PRIMES)
def test_det_matches_permutation_oracle(p):
    for rows, ncols in cases(p, 4):
        if len(rows) != ncols:
            continue
        assert linalg.det(PrimeField(p), rows) == perm_det(as_input(rows, ncols, p), p)


def test_linalg_det_past_int64_bound():
    # int64 elimination returned 2305843009213693928 here
    p = 2**61 - 1
    rows = [[p - 1, p - 2], [p - 3, p - 5]]
    assert linalg.det(PrimeField(p), rows) == 2305843009213693950
    x = linalg.solve(PrimeField(p), rows, [1, 2])
    assert ref_matvec(rows, x, p) == [1, 2]


def deficient_cases(p, seed):
    """Square and non-square products of rank k below full, plus square
    matrices whose pivots need row swaps or skip a column."""
    rng = random.Random(seed)

    def product(nrows, ncols, k):
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
        return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)]
                for row in left]

    out = []
    for nrows, ncols, k in ((4, 4, 2), (5, 5, 4), (3, 3, 0), (6, 4, 3), (4, 6, 3),
                            (7, 7, 6), (2, 5, 1), (5, 2, 1), (8, 8, 8)):
        out.append(product(nrows, ncols, k))
    # zero leading column; a zero first entry under a nonzero one (a swap);
    # a pivot-free middle column
    n = 5
    upper = [[0] + [rng.randrange(1, p) if j >= i else 0 for j in range(1, n)] for i in range(n)]
    out.append(upper)
    swapped = [row[:] for row in product(n, n, n)]
    swapped[0][0] = 0
    out.append(swapped)
    mid = product(n, n, n)
    for row in mid:
        row[2] = 2 * row[1] % p
    out.append(mid)
    out.append([[p - 1] * n for _ in range(n)])
    return out


def assert_row_echelon(m, pivots):
    """Each pivot is nonzero with zeros to its left and below it; rows past
    the last pivot are zero."""
    for i, c in enumerate(pivots):
        assert m[i][c] != 0
        assert all(x == 0 for x in m[i][:c])
        assert all(row[c] == 0 for row in m[i + 1:])
    assert all(x == 0 for row in m[len(pivots):] for x in row)


@pytest.mark.parametrize("p", PRIMES)
def test_rank_matches_rref_pivots_on_deficient(p):
    for rows in deficient_cases(p, 5):
        ncols = len(rows[0])
        a = as_input(rows, ncols, p)
        before = a.copy()
        want = len(ref_rref(rows, ncols, p)[1])
        m, piv, _ = modp.echelon(a, p)
        assert np.array_equal(a, before)  # echelon leaves its input alone
        assert_row_echelon(as_lists(m), piv)
        assert len(piv) == want
        assert linalg.rank(PrimeField(p), rows, ncols) == want


@pytest.mark.parametrize("p", PRIMES)
def test_det_matches_permutation_oracle_on_deficient(p):
    for rows in deficient_cases(p, 6):
        if len(rows) != len(rows[0]) or len(rows) > 7:
            continue
        field = PrimeField(p)
        got = linalg.det(field, rows)
        assert got == perm_det(as_input(rows, len(rows), p), p)
        assert (got == 0) == (linalg.rank(field, rows) < len(rows))


# -- the Gauss-Jordan step against the loop it replaced ---------------------------

def rref_reference(a, p):
    """The Gauss-Jordan loop ``modp.rref`` ran before its one broadcast step:
    the pivot row normalized in full, then subtracted, as an outer product,
    from the rows with a nonzero entry in the pivot column only."""
    m = np.asarray(a, dtype=modp._dtype(p)) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = m[r] * inv % p
        col = m[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            m[mask] = (m[mask] - np.outer(col[mask], m[r])) % p
        pivots.append(c)
        r += 1
    return m, np.array(pivots, dtype=np.int64)


GJ_PRIMES = [3, 13, 10009, 2**31 - 1, 2**61 - 1]


def shaped_cases(p, seed):
    """Arrays of the element type of p: tall, wide and square, 0 x k and
    k x 0, with zero rows, zero columns, entries p - 1 and products of rank
    below full."""
    rng = np.random.default_rng(seed)
    dtype = modp._dtype(p)

    def rand(nrows, ncols, top=p):
        return np.array([[int(x) % top for x in row]
                         for row in rng.integers(0, 2**62, (nrows, ncols)).tolist()],
                        dtype=dtype).reshape(nrows, ncols)

    def low_rank(nrows, ncols, k):
        return (rand(nrows, k).astype(object) @ rand(k, ncols).astype(object) % p).astype(dtype)

    out = [rand(0, 4), rand(4, 0), rand(0, 0), np.zeros((3, 5), dtype=dtype),
           np.full((4, 4), p - 1, dtype=dtype)]
    for nrows, ncols in ((28, 12), (32, 16), (12, 1), (3, 9), (1, 6), (7, 7), (16, 16)):
        out.append(rand(nrows, ncols))
        out.append(rand(nrows, ncols, top=2))  # mostly zeros and ones
    for nrows, ncols, k in ((20, 8, 3), (6, 10, 4), (9, 9, 8), (12, 5, 0)):
        out.append(low_rank(nrows, ncols, k))
    with_zero_rows = rand(10, 6)
    with_zero_rows[[0, 4, 9]] = 0
    with_zero_rows[:, 2] = 0
    out.append(with_zero_rows)
    return out


@pytest.mark.parametrize("p", GJ_PRIMES)
def test_rref_matches_the_replaced_loop(p):
    for a in shaped_cases(p, p % 1000):
        before = a.copy()
        m, piv = modp.rref(a, p)
        want, want_piv = rref_reference(a, p)
        assert np.array_equal(a, before) and a.dtype == before.dtype
        assert m.dtype == want.dtype == modp._dtype(p)
        assert m.shape == a.shape
        assert m.tolist() == want.tolist()
        assert piv.dtype == want_piv.dtype and piv.tolist() == want_piv.tolist()
        assert m.tolist() == ref_rref(a.tolist(), a.shape[1], p)[0]


# -- linalg on lists of rows and on 2-d arrays ---------------------------------

def list_and_array_cases(field, seed):
    """(rows as lists, ncols) on F_p or Q: random, rank-deficient and
    square matrices, with zero rows."""
    rng = random.Random(seed)
    if isinstance(field, PrimeField):
        def scalar():
            return rng.choice([0, 0, 1, field.p - 1, rng.randrange(field.p)])
    else:
        def scalar():
            return Fraction(rng.choice([0, 0, 1, -1, rng.randrange(-50, 50)]), rng.randrange(1, 9))

    out = []
    for nrows, ncols in ((1, 1), (3, 3), (5, 5), (6, 3), (3, 6), (2, 0), (4, 4)):
        rows = [[scalar() for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 2:
            rows[-1] = [field.add(x, y) for x, y in zip(rows[0], rows[1])]
            rows[1] = [field.zero] * ncols
        out.append((rows, ncols))
    return out


LIST_ARRAY_FIELDS = [PrimeField(10009), PrimeField(2**61 - 1), QQ]


@pytest.mark.parametrize("field", LIST_ARRAY_FIELDS, ids=str)
def test_linalg_agrees_on_lists_and_arrays(field):
    rng = random.Random(8)
    dtype = linalg.scalar_dtype(field)
    for rows, ncols in list_and_array_cases(field, 4):
        arrays = [np.array(rows, dtype=dtype).reshape(len(rows), ncols)]
        if dtype is object and isinstance(field, PrimeField):
            # residues below 2^63 held in int64 by the caller
            arrays.append(np.array(rows, dtype=np.int64).reshape(len(rows), ncols))
        for a in arrays:
            before = a.copy()
            assert linalg.rref(field, a, ncols) == linalg.rref(field, rows, ncols)
            assert linalg.rref(field, a) == linalg.rref(field, rows, ncols)
            assert linalg.nullspace(field, a, ncols) == linalg.nullspace(field, rows, ncols)
            assert linalg.rank(field, a, ncols) == linalg.rank(field, rows, ncols)
            assert linalg.rank(field, a) == linalg.rank(field, rows, ncols)
            x = [rng.choice([field.zero, field.one]) for _ in range(ncols)]
            consistent = [functools.reduce(field.add, map(field.mul, row, x), field.zero)
                          for row in rows]
            for rhs in (consistent, [field.one] * len(rows)):
                got = linalg.solve(field, a, np.array(rhs, dtype=dtype), ncols)
                assert got == linalg.solve(field, rows, rhs, ncols)
            if len(rows) == ncols:
                assert linalg.det(field, a) == linalg.det(field, rows)
            assert np.array_equal(a, before)
        assert linalg.solve(field, rows, consistent, ncols) is not None


@pytest.mark.parametrize("field", LIST_ARRAY_FIELDS, ids=str)
def test_inconsistent_system_is_none_on_lists_and_arrays(field):
    dtype = linalg.scalar_dtype(field)
    one, zero = field.one, field.zero
    rows, rhs = [[one, one], [one, one], [zero, zero]], [zero, one, zero]
    assert linalg.solve(field, rows, rhs) is None
    assert linalg.solve(field, np.array(rows, dtype=dtype), np.array(rhs, dtype=dtype)) is None
    # the nullspace of the empty-row matrix is the identity, on both inputs
    empty = np.zeros((0, 3), dtype=dtype)
    identity = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert linalg.nullspace(field, empty, 3) == linalg.nullspace(field, [], 3) == identity
