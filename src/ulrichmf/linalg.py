"""Field-generic exact dense linear algebra.

Matrices at this level are lists of lists of field scalars.  Two echelon
forms are the only field-specific code: the reduced form of :func:`rref` and
the forward-only form of :func:`_echelon`.  Over a prime field both come from
the numpy loops of :mod:`ulrichmf.modp`, on arrays of the element type that
module picks for p; over Q both are eliminated directly on Fractions.  Rank
and determinant are read off the forward form, kernel and solutions off the
reduced form, once for both fields.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import modp
from .fields import Field, PrimeField


def _to_array(rows, ncols, p):
    return np.array(rows, dtype=modp._dtype(p)).reshape(len(rows), ncols)


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
    return _rref_fraction(rows, ncols)


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
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows or ncols == 0:
        return 0
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
