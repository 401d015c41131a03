"""Field-generic exact dense linear algebra.

Matrices at this level are lists of lists of field scalars.  Prime-field
input is routed through the numpy kernel in :mod:`ulrichmf.modp`, on arrays
of the element type that module picks for p; rational input is eliminated
directly on Fractions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import modp
from .fields import Field, PrimeField


def _to_array(rows, ncols, p):
    return np.array(rows, dtype=modp._dtype(p)).reshape(len(rows), ncols)


def _forward_fraction(m, ncols):
    """Forward elimination over Q, in place on a list of Fraction rows.

    Leaves ``m`` in row echelon form: each pivot keeps its value and the rows
    below it are cleared, from the pivot column on.  Returns (pivot columns,
    number of row swaps).
    """
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
    return pivots, swaps


def _rref_fraction(rows, ncols):
    """Reduced row echelon form over Q: the forward pass, then back substitution."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, _ = _forward_fraction(m, ncols)
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
        return [[int(x) for x in row] for row in m], [int(c) for c in piv]
    return _rref_fraction(rows, ncols)


def rank(field: Field, rows, ncols=None) -> int:
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows or ncols == 0:
        return 0
    if isinstance(field, PrimeField):
        return modp.rank(_to_array(rows, ncols, field.p), field.p)
    m = [[Fraction(x) for x in row] for row in rows]
    return len(_forward_fraction(m, ncols)[0])


def nullspace(field: Field, rows, ncols):
    """Canonical basis of the right kernel, as a list of vectors."""
    if ncols == 0:
        return []
    if not rows:
        eye = []
        for c in range(ncols):
            v = [field.zero] * ncols
            v[c] = field.one
            eye.append(v)
        return eye
    if isinstance(field, PrimeField):
        basis = modp.nullspace(_to_array(rows, ncols, field.p), field.p)
        return [[int(x) for x in row] for row in basis]
    r, piv = _rref_fraction(rows, ncols)
    free = [c for c in range(ncols) if c not in piv]
    basis = []
    for c in free:
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for i, pc in enumerate(piv):
            v[pc] = -r[i][c]
        basis.append(v)
    return basis


def solve(field: Field, rows, rhs, ncols=None):
    """One solution x of A x = b (b a vector), or None if inconsistent."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        return [field.zero] * ncols
    if isinstance(field, PrimeField):
        b = np.array(rhs, dtype=modp._dtype(field.p))
        x = modp.solve(_to_array(rows, ncols, field.p), b, field.p)
        return None if x is None else [int(v) for v in x]
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    r, piv = _rref_fraction(aug, ncols + 1)
    if ncols in piv:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(piv):
        x[c] = r[i][ncols]
    return x


def det(field: Field, rows) -> object:
    """Determinant of a square scalar matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("det expects a square matrix")
    if n == 0:
        return field.one
    if isinstance(field, PrimeField):
        return int(modp.det(_to_array(rows, n, field.p), field.p))
    m = [[Fraction(x) for x in row] for row in rows]
    _, swaps = _forward_fraction(m, n)  # upper triangular, as in modp.det
    result = Fraction(-1 if swaps % 2 else 1)
    for c in range(n):
        result *= m[c][c]
    return result

