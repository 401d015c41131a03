"""Field-generic exact dense linear algebra.

Matrices at this level are lists of lists of field scalars.  Two echelon
forms are the only field-specific code: the reduced form of :func:`rref` and
the forward-only form of :func:`_echelon`.  Over a prime field both come from
the numpy loops of :mod:`ulrichmf.modp`, on arrays of the element type that
module picks for p.  Rank and determinant are read off the forward form,
kernel and solutions off the reduced form, once for both fields.

Over Q the reduced form goes through the primes of :data:`PRIMES`: each
row's denominators are cleared, the integer rows are reduced mod each prime
in turn, the residues are combined by CRT and rationally reconstructed, and
the result is returned only once one exact integer product proves it (see
:func:`_rref_multimodular`).  Otherwise it is eliminated on Fractions.  Rank
over Q is full when it is full mod the first prime; otherwise it, like det
over Q, is read off the forward form on Fractions.

:func:`matmul` is the one exact product of scalar matrices, and
:func:`scalar_dtype` the element type of stored scalar arrays.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import modp
from .fields import QQ, Field, PrimeField


def _to_array(rows, ncols, p):
    return np.array(rows, dtype=modp._dtype(p)).reshape(len(rows), ncols)


def scalar_dtype(field: Field):
    """The numpy element type of an array of field scalars: the one :mod:`modp`
    picks for p (int64 or Python ints), and Fractions over Q."""
    return modp._dtype(field.p) if isinstance(field, PrimeField) else object


def matmul(field: Field, a, b):
    """The exact product of two scalar matrices, lists of rows or 2-d arrays.

    Both operands are made integral by :func:`integral` and multiplied by
    :func:`integer_matmul`.  Over F_p the result is an array of residues:
    int64 while 2 * len(b) * (p - 1)^2 < 2^63, Python ints past that.  Over
    Q it is an object array of Fractions, the integer product divided once
    by the two common denominators.  A product with no inner dimension has
    no columns.
    """
    inner, ncols = len(b), len(b[0]) if len(b) else 0
    dtype = scalar_dtype(field)
    left, da = integral(field, np.asarray(a, dtype=dtype).reshape(len(a), inner))
    right, db = integral(field, np.asarray(b, dtype=dtype).reshape(inner, ncols))
    prod = integer_matmul(field, left, right)
    if isinstance(field, PrimeField):
        return prod
    d, zero = da * db, field.zero
    return np.frompyfunc(lambda x: Fraction(x, d) if x else zero, 1, 1)(prod)


def integral(field: Field, x):
    """(X, d) with x = X / d for an array x of field scalars.

    Over F_p, X holds the residues of x in [0, p), x itself if it holds
    nothing else, and d = 1.  Over Q, d is the least common denominator of
    the entries and X an object array of Python ints.
    """
    if isinstance(field, PrimeField):
        # an array of residues, as every stored tensor is, is used as it is
        if x.size == 0 or (x.min() >= 0 and x.max() < field.p):
            return x, 1
        return reduced(field, x), 1
    d = math.lcm(*{v.denominator for v in x.flat})
    return np.frompyfunc(lambda v: v.numerator * (d // v.denominator) if v else 0, 1, 1)(x), d


def integer_matmul(field: Field, a, b):
    """The product of two 2-d arrays of integers, as :func:`integral` gives them.

    Over F_p the operands are residues and every entry of the product, a sum
    of a.shape[1] products of residues, is reduced once at the end (the
    delayed reduction of FFLAS-FFPACK and FLINT's nmod_mat); the result is
    int64 while 2 * a.shape[1] * (p - 1)^2 < 2^63 and an object array of
    Python ints past that.  Over Q the exact product is an object array of
    Python ints.
    """
    if not isinstance(field, PrimeField):
        top = max(np.abs(a).max(initial=0), np.abs(b).max(initial=0))
        return _int_matmul(a, b, int(top), object)
    p = field.p
    dtype = np.int64 if 2 * a.shape[1] * (p - 1) ** 2 < 2**63 else object
    prod = _int_matmul(a, b, p - 1, dtype)
    return np.remainder(prod, p, out=prod)


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


def _forward_fraction(rows, ncols):
    """Forward elimination over Q, on a copy of ``rows`` as Fractions.

    Each pivot keeps its value and the rows below it are cleared, from the
    pivot column on.  Returns (echelon rows, pivot columns, row swaps).
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    pivots = []
    swaps = 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        top = m[r][c:]
        inv = 1 / top[0]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i][c:] = [x - f * y for x, y in zip(m[i][c:], top)]
        pivots.append(c)
        r += 1
    return m, pivots, swaps


def _rref_fraction(rows, ncols):
    """Reduced row echelon form over Q: the forward pass, then back substitution."""
    m, pivots, _ = _forward_fraction(rows, ncols)
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        inv = 1 / m[k][c]
        top = [x * inv for x in m[k][c:]]
        m[k][c:] = top
        for i in range(k):
            if m[i][c] != 0:
                f = m[i][c]
                m[i][c:] = [x - f * y for x, y in zip(m[i][c:], top)]
    return m, pivots


def rref(field: Field, rows, ncols=None):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if isinstance(field, PrimeField):
        m, piv = modp.rref(_to_array(rows, ncols, field.p), field.p)
        return m.tolist(), piv.tolist()
    return _rref_multimodular(rows, ncols) or _rref_fraction(rows, ncols)


# the primes of the elimination over Q, the largest below 2^31, on which modp
# runs int64
PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)

# the reconstruction bound of all of PRIMES together: an entry of A past it
# makes the reduced form, whose entries are ratios of minors of A, too large
# for the primes in most cases, so such a matrix goes to Fractions directly
ENTRY_BOUND = math.isqrt(math.prod(PRIMES) // 2)


def _cleared(rows):
    """Each row scaled by the lcm of its denominators, as lists of Python ints.

    Scaling a row by a nonzero integer keeps the rank and the reduced form.
    """
    cleared = []
    for row in rows:
        dens = [x.denominator for x in row]
        d = math.lcm(*dens)
        if d == 1:
            cleared.append([x.numerator for x in row])
        else:
            cleared.append([x.numerator * (d // e) for x, e in zip(row, dens)])
    return cleared


def _rref_multimodular(rows, ncols):
    """The reduced form over Q through the primes of PRIMES, or None.

    The cleared integer matrix A is reduced mod one prime after another; the
    residues of the entries off the pivot columns are combined by CRT and,
    after each prime, rationally reconstructed into R.  R is returned once
    D A = A[:, P] (D R) holds exactly, for its pivot columns P and common
    denominator D; in the pivot columns the identity holds by construction,
    so one integer product over the other columns decides it.  That proves R
    is the reduced form of A: the rank of A mod p is at most its rank over
    Q, so rank(A) >= |P|, and the product puts every row of A in the span of
    the |P| rows of R.

    Pivots can only be lost or move right mod p, so a prime whose pivots
    are more, or as many and lexicographically smaller, shows that the
    primes before it were unlucky: their residues are dropped and the CRT
    starts over from it.  A prime with worse pivots is skipped.

    None, for the Fraction fallback, if an entry of A is past ENTRY_BOUND or
    no prime proves its R.
    """
    if not rows or ncols == 0:
        return None
    cleared = _cleared(rows)
    if max(max(map(abs, row)) for row in cleared) > ENTRY_BOUND:
        return None
    a = np.array(cleared, dtype=object).reshape(len(rows), ncols)
    pivots = None
    for p in PRIMES:
        m, piv = modp.rref(a % p, p)
        piv = piv.tolist()
        if pivots is None or (-len(piv), piv) < (-len(pivots), pivots):
            pivots = piv
            pivot_set = set(pivots)
            free = [c for c in range(ncols) if c not in pivot_set]
            residues = m[:len(pivots), free].astype(object)
            modulus = p
        elif piv != pivots:
            continue
        else:
            lift = (m[:len(pivots), free] - residues % p) * pow(modulus, -1, p) % p
            residues = residues + modulus * lift
            modulus *= p
        found = _reconstruct(residues.ravel().tolist(), modulus)
        if found is None:
            continue
        nums, dens, d = found
        scaled = np.array([n * (d // e) for n, e in zip(nums, dens)], dtype=object)
        prod = integer_matmul(QQ, a[:, pivots], scaled.reshape(len(pivots), len(free)))
        if np.array_equal(prod, a[:, free] * d):
            return _reduced_rows(len(rows), ncols, pivots, free, nums, dens), pivots
    return None


def _reconstruct(residues, modulus):
    """Rational reconstruction of residues mod ``modulus``, in order.

    Returns (numerators, denominators, d): each residue u as n / e with
    n = e u mod modulus, every e dividing d.  Each u is first multiplied by
    the denominator d found so far, since the entries of one reduced form
    share most of their denominators: if u d, taken mod modulus between
    -modulus/2 and modulus/2, is at most sqrt(modulus / 2) in absolute value,
    it is n and e = d; otherwise extended Euclid finds a / b = u d with |a|
    and b at most that bound, and d grows by b.  None at the first residue
    that has neither.
    """
    bound = math.isqrt(modulus // 2)
    half = modulus // 2
    d = 1
    nums, dens = [], []
    for u in residues:
        n = u * d % modulus
        if n > half:
            n -= modulus
        if -bound <= n <= bound:
            nums.append(n)
            dens.append(d)
            continue
        r0, r1, t0, t1 = modulus, n % modulus, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) > bound:
            return None
        if t1 < 0:
            r1, t1 = -r1, -t1
        d *= t1
        nums.append(r1)
        dens.append(d)
    return nums, dens, d


def _reduced_rows(nrows, ncols, pivots, free, nums, dens):
    """The reduced form as rows of Fractions: 1 at each pivot, the
    reconstructed entries n / e row by row in the free columns, 0 elsewhere."""
    zero, one = Fraction(0), Fraction(1)
    out = [[zero] * ncols for _ in range(nrows)]
    entries = iter(zip(nums, dens))
    for i, c in enumerate(pivots):
        row = out[i]
        row[c] = one
        for f in free:
            n, e = next(entries)
            if n:
                row[f] = Fraction(n, e)
    return out


def _echelon(field: Field, rows, ncols):
    """Forward-only row echelon form; returns (rows, pivot columns, row swaps).

    Below each pivot the column is cleared; the rows are not normalized, so
    the form of a square matrix is upper triangular with its determinant, up
    to the sign of the swaps, on the diagonal.
    """
    if isinstance(field, PrimeField):
        m, pivots, swaps = modp.echelon(_to_array(rows, ncols, field.p), field.p)
        return m.tolist(), pivots, swaps
    return _forward_fraction(rows, ncols)


def rank(field: Field, rows, ncols=None) -> int:
    """The rank of a scalar matrix.

    Over Q the cleared integer rows (see :func:`_cleared`) are first
    eliminated mod the first of PRIMES: an integer matrix has rank mod p at
    most its rank over Q, so full rank mod p proves full rank over Q.  Any
    other answer is recomputed on Fractions by the forward pass.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows or ncols == 0:
        return 0
    if not isinstance(field, PrimeField):
        p = PRIMES[0]
        cleared = [[x % p for x in row] for row in _cleared(rows)]
        full = min(len(rows), ncols)
        if len(modp.echelon(_to_array(cleared, ncols, p), p)[1]) == full:
            return full
    return len(_echelon(field, rows, ncols)[1])


def nullspace(field: Field, rows, ncols):
    """Canonical basis of the right kernel, as a list of vectors."""
    r, piv = rref(field, rows, ncols) if rows else ([], [])
    pivot_set = set(piv)
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        v = [field.zero] * ncols
        v[c] = field.one
        for i, pc in enumerate(piv):
            v[pc] = field.neg(r[i][c])
        basis.append(v)
    return basis


def solve(field: Field, rows, rhs, ncols=None):
    """One solution x of A x = b (b a vector), or None if inconsistent."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        return [field.zero] * ncols
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    r, piv = rref(field, aug, ncols + 1)
    if ncols in piv:
        return None
    x = [field.zero] * ncols
    for i, c in enumerate(piv):
        x[c] = r[i][ncols]
    return x


def det(field: Field, rows) -> object:
    """Determinant of a square scalar matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("det expects a square matrix")
    m, _, swaps = _echelon(field, rows, n)
    result = field.neg(field.one) if swaps % 2 else field.one
    for c in range(n):
        result = field.mul(result, m[c][c])
    return result
