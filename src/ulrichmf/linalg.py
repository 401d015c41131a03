"""Field-generic exact dense linear algebra.

Matrices at this level are lists of rows of field scalars or 2-d arrays of
them.  Each field has one elimination, and kernel and solutions are read off
its reduced form, rank and determinant off its forward form.  Over a prime
field these are the numpy loops of :mod:`ulrichmf.modp`, ``rref`` and
``echelon``, on arrays of the element type that module picks for p; an array
of that type is handed to them as it is, without a copy.

Over Q each row is scaled by the lcm of its denominators (:func:`_cleared`,
where an array becomes lists once) and the integer rows are eliminated once,
fraction-free, on lists (Bareiss; its Gauss-Jordan form for the reduced
form, see :func:`_bareiss`).  Every division there is exact, by Sylvester's
identity: after k pivots each entry is, up to sign, a minor of the cleared
matrix (below the pivots the (k+1) x (k+1) minor that borders the k x k
pivot minor by the entry's row and column, above them the pivot minor with
the entry's column in place of the row's pivot column), and the identity
writes each such minor as the update of the step divided by the pivot minor
before it.  So the elimination needs no entry bound, no fallback and no
proof afterwards.
Rank over Q is full when it is full mod :data:`RANK_PRIME`; otherwise it is
read off the forward pass.

:func:`matmul` is the one exact product of scalar matrices, and
:func:`scalar_dtype` the element type of stored scalar arrays.
"""

from __future__ import annotations

import math

import numpy as np

from . import modp
from .fields import Field, PrimeField, rational


def _to_array(rows, ncols, p):
    return np.asarray(rows, dtype=modp._dtype(p)).reshape(len(rows), ncols)


def scalar_dtype(field: Field):
    """The numpy element type of an array of field scalars: the one :mod:`modp`
    picks for p (int64 or Python ints), and over Q objects, each an int or a
    Fraction (see :func:`ulrichmf.fields.rational`)."""
    return modp._dtype(field.p) if isinstance(field, PrimeField) else object


def matmul(field: Field, a, b):
    """The exact product of two scalar matrices, lists of rows or 2-d arrays.

    Both operands are made integral by :func:`integral` and multiplied by
    :func:`integer_matmul`.  Over F_p the result is an array of residues of
    :func:`scalar_dtype`, the type every stored scalar array has.  Over Q it
    is an object array of canonical scalars: the integer product itself
    when both operands are integral, else each entry of it divided by the two
    common denominators.  A product with no inner dimension has no columns.
    """
    inner, ncols = len(b), len(b[0]) if len(b) else 0
    dtype = scalar_dtype(field)
    left, da = integral(field, np.asarray(a, dtype=dtype).reshape(len(a), inner))
    right, db = integral(field, np.asarray(b, dtype=dtype).reshape(inner, ncols))
    prod = integer_matmul(field, left, right)
    d = da * db
    if d == 1:
        return prod
    return np.frompyfunc(lambda x: rational(x, d) if x else 0, 1, 1)(prod)


def integral(field: Field, x):
    """(X, d) with x = X / d for an array x of field scalars.

    Over F_p, X holds the residues of x in [0, p), x itself if it holds
    nothing else, and d = 1.  Over Q, d is the least common denominator of
    the entries and X an object array of Python ints: x itself when its
    entries are all ints, the integral scalars, so d = 1.
    """
    if isinstance(field, PrimeField):
        # an array of residues, as every stored tensor is, is used as it is
        if x.size == 0 or (x.min() >= 0 and x.max() < field.p):
            return x, 1
        return reduced(field, x), 1
    if set(map(type, x.flat)) <= {int}:
        return x, 1
    d = math.lcm(*{v.denominator for v in x.flat})
    return np.frompyfunc(lambda v: v.numerator * (d // v.denominator) if v else 0, 1, 1)(x), d


def integer_matmul(field: Field, a, b):
    """The product of two 2-d arrays of integers, as :func:`integral` gives them.

    Over F_p the operands are residues and every entry of the product, a sum
    of a.shape[1] products of residues, is reduced once at the end (the
    delayed reduction of FFLAS-FFPACK and FLINT's nmod_mat).  The unreduced
    product is int64 while 2 * a.shape[1] * (p - 1)^2 < 2^63 and Python ints
    past that; the residues come back as :func:`scalar_dtype`.  Over Q the
    exact product is an object array of Python ints.
    """
    if not isinstance(field, PrimeField):
        top = max(np.abs(a).max(initial=0), np.abs(b).max(initial=0))
        return _int_matmul(a, b, int(top), object)
    p = field.p
    dtype = np.int64 if 2 * a.shape[1] * (p - 1) ** 2 < 2**63 else object
    prod = _int_matmul(a, b, p - 1, dtype)
    return np.remainder(prod, p, out=prod).astype(scalar_dtype(field), copy=False)


def _int_matmul(a, b, top: int, dtype):
    """The exact product of two integer matrices whose entries are at most top
    in absolute value, from float64 BLAS products of limbs, as an array of
    ``dtype``: int64 only where every entry of the product fits.

    Each entry is split into ``count`` signed limbs of ``bits`` bits, with
    count * inner * 2^(2 bits) < 2^53: every limb product, and every sum of
    the at most ``count`` limb products of one weight, is an integer that
    float64 holds exactly.  One limb is the plain float64 product.
    """
    inner, width = a.shape[1], max(top, 1).bit_length()
    count = 1
    while count * inner * 4 ** -(-width // count) >= 2**53:
        count += 1
    bits = -(-width // count)
    if top < 2**63:  # limbs of int64 entries are cut without Python ints
        a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)

    def limbs(x):
        if count == 1:
            return [x.astype(np.float64)]
        sign, magnitude = np.sign(x).astype(np.float64), np.abs(x)
        mask = (1 << bits) - 1
        return [sign * ((magnitude >> (bits * k)) & mask).astype(np.float64)
                for k in range(count)]

    la, lb = limbs(a), limbs(b)
    out = None
    for w in range(2 * count - 1):
        part = sum(la[k] @ lb[w - k] for k in range(max(0, w - count + 1), min(w, count - 1) + 1))
        part = part.astype(np.int64).astype(dtype, copy=False)
        if out is None:
            out = part
        else:
            out += part << (bits * w)
    return out


def reduced(field: Field, x):
    """x mod p over F_p; x itself over Q."""
    return x % field.p if isinstance(field, PrimeField) else x


def rref(field: Field, rows, ncols=None):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m, pivots, d = _reduced(field, rows, _width(rows, ncols))
    return _scalars(field, m, d), pivots


def _width(rows, ncols):
    """ncols if given, else the length of the rows of ``rows``."""
    if ncols is not None:
        return ncols
    if isinstance(rows, np.ndarray):
        return rows.shape[1]
    return len(rows[0]) if rows else 0


def _reduced(field: Field, rows, ncols):
    """(R, pivots, d): the reduced row echelon form of ``rows`` is R / d, for
    R a 2-d array of integers, and its pivot columns are a list.  Over F_p, R
    holds residues and d = 1; over Q, R is the fraction-free form of
    :func:`_bareiss`, and d its last pivot."""
    if isinstance(field, PrimeField):
        m, piv = modp.rref(_to_array(rows, ncols, field.p), field.p)
        return m, piv.tolist(), 1
    m, pivots, _ = _bareiss(_cleared(rows)[0], ncols, reduce=True)
    # each row is d times its row of the reduced form, d the last pivot
    return m, pivots, m[len(pivots) - 1, pivots[-1]] if pivots else 1


def _scalars(field: Field, x, d):
    """The 2-d integer array x / d as lists of rows of field scalars: residues
    over F_p, where d = 1; over Q, the canonical scalars of
    :func:`ulrichmf.fields.rational`."""
    if isinstance(field, PrimeField):
        return (x % field.p).tolist()
    if d == 1:
        return x.tolist()
    return [[rational(v, d) if v else 0 for v in row] for row in x.tolist()]


# the prime of rank's proof of full rank over Q, the largest below 2^31, on
# which modp runs int64
RANK_PRIME = 2147483647


def _cleared(rows):
    """(A, s): each row scaled by the lcm of its denominators, as lists of
    Python ints, and s the product of those lcms.  An array of Fractions is
    turned into lists once, here; a row of ints is taken as it is.

    Scaling a row by a nonzero integer keeps the rank and the reduced form,
    and multiplies the determinant by it.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    cleared, scale = [], 1
    for row in rows:
        if any(type(x) is not int for x in row):
            dens = [x.denominator for x in row]
            d = math.lcm(*dens)
            scale *= d
            row = [x.numerator * (d // e) for x, e in zip(row, dens)]
        cleared.append(row)
    return cleared, scale


def _bareiss(rows, ncols, reduce):
    """Fraction-free elimination of integer ``rows``; returns (m, pivots, swaps).

    m is an object array of Python ints.  At the pivot piv of row r and
    column c, with prev the pivot before it (1 at the first), each row i
    below r, and with ``reduce`` also each row above it, becomes
    (piv row_i - a_ic row_r) // prev.  Without ``reduce`` m is a row echelon
    form whose last pivot is, up to the sign of the swaps, the minor of
    ``rows`` on the pivot rows and columns; with it, every pivot ends equal
    to the last one, d, and row i is d times row i of the reduced form.

    A row is rewritten, as a list, only where a_ic != 0.  Each step it skips
    would multiply it by piv / prev, and these factors telescope to prev / s,
    s the pivot of its last rewrite (1 if never); so it becomes
    (piv row_i - a_ic row_r) // s, the same integers.  Row r is first
    brought to prev, and with ``reduce`` every row to d at the end.
    """
    m, held = list(rows), [1] * len(rows)  # held[i]: the s of row i
    pivots, swaps, prev = [], 0, 1
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        if i != r:
            m[r], m[i], held[r], held[i] = m[i], m[r], held[i], held[r]
            swaps += 1
        if held[r] != prev:
            m[r] = [x * prev // held[r] for x in m[r]]
        held[r] = piv = m[r][c]
        tail = m[r][c:]
        for i in range(0 if reduce else r + 1, len(m)):
            row, s = m[i], held[i]
            f = row[c]
            if f and i != r:
                # rows below r are 0 left of c
                head = [0] * c if i > r else [piv * x // s for x in row[:c]]
                m[i] = head + [(piv * x - f * y) // s for x, y in zip(row[c:], tail)]
                held[i] = piv
        pivots.append(c)
        prev = piv
    if reduce:
        m = [row if s == prev else [x * prev // s for x in row] for row, s in zip(m, held)]
    return np.array(m, dtype=object).reshape(len(m), ncols), pivots, swaps


def rank(field: Field, rows, ncols=None) -> int:
    """The rank of a scalar matrix.

    Over Q the cleared integer rows (see :func:`_cleared`) are first
    eliminated mod RANK_PRIME: an integer matrix has rank mod p at most its
    rank over Q, so full rank mod p proves full rank over Q.  Any other
    answer is recomputed by the forward pass of :func:`_bareiss`.
    """
    ncols = _width(rows, ncols)
    if not len(rows) or ncols == 0:
        return 0
    if isinstance(field, PrimeField):
        return len(modp.echelon(_to_array(rows, ncols, field.p), field.p)[1])
    cleared, _ = _cleared(rows)
    p = RANK_PRIME
    full = min(len(rows), ncols)
    if len(modp.echelon(_to_array([[x % p for x in row] for row in cleared], ncols, p), p)[1]) == full:
        return full
    return len(_bareiss(cleared, ncols, reduce=False)[1])


def nullspace(field: Field, rows, ncols):
    """Canonical basis of the right kernel, as a list of vectors.

    Basis vector k is 1 at the k-th free column of the reduced form R / d and
    holds -R[i, free column] / d at pivot column i; it is 0 everywhere else.
    """
    r, piv, d = _reduced(field, rows, ncols)
    pivot_set = set(piv)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=r.dtype)
    basis[np.arange(len(free)), free] = d
    basis[:, piv] = -r[: len(piv), free].T
    return _scalars(field, basis, d)


def solve(field: Field, rows, rhs, ncols=None):
    """One solution x of A x = b (b a vector), or None if inconsistent."""
    ncols = _width(rows, ncols)
    if not len(rows):
        return [field.zero] * ncols
    dtype = scalar_dtype(field)
    aug = np.empty((len(rows), ncols + 1), dtype=dtype)
    aug[:, :ncols] = np.asarray(rows, dtype=dtype).reshape(len(rows), ncols)
    aug[:, ncols] = np.asarray(rhs, dtype=dtype)
    r, piv, d = _reduced(field, aug, ncols + 1)
    if ncols in piv:
        return None
    x = np.zeros((1, ncols), dtype=r.dtype)
    x[0, piv] = r[: len(piv), ncols]
    return _scalars(field, x, d)[0]


def det(field: Field, rows) -> object:
    """Determinant of a square scalar matrix.

    Over F_p it is the product of the pivots of ``modp.echelon``, up to the
    sign of its swaps; over Q the last pivot of the forward pass of
    :func:`_bareiss`, up to that sign, divided by the scales of
    :func:`_cleared`.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("det expects a square matrix")
    if isinstance(field, PrimeField):
        m, _, swaps = modp.echelon(_to_array(rows, n, field.p), field.p)
        result = field.neg(field.one) if swaps % 2 else field.one
        for x in m.diagonal().tolist():
            result = field.mul(result, x)
        return result
    cleared, scale = _cleared(rows)
    m, _, swaps = _bareiss(cleared, n, reduce=False)
    # the last row is 0 if the rank is below n
    last = m[n - 1, n - 1] if n else 1
    return rational(-last if swaps % 2 else last, scale)
