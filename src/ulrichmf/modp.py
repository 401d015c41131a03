"""Dense linear algebra mod p on numpy arrays.

Every graded computation (syzygy kernels, Hom spaces, Macaulay-matrix ranks,
determinant interpolation) reduces to row echelon forms of scalar matrices
over F_p, computed here by Python loops over pivots with vectorized row
updates: the Gauss-Jordan loop behind :func:`rref`, :func:`nullspace` and
:func:`solve`, and one forward-only loop shared by :func:`rank` and
:func:`det`.

The element type is chosen from p by :func:`_dtype` and nowhere else.  The
kernel only ever multiplies two residues in [0, p) and subtracts the product
from a residue, so it is exact on int64 while (p - 1)^2 < 2^63, that is for
every prime up to 3037000493.  Past that bound the same code runs on object
arrays of Python ints.
"""

from __future__ import annotations

import numpy as np


def _dtype(p: int):
    """int64 when (p - 1)^2 fits, else object (Python ints)."""
    return np.int64 if (p - 1) ** 2 < 2**63 else object


def _rref_numpy(a: np.ndarray, p: int):
    """Reduced row echelon form mod p; returns (rref, pivot column array)."""
    m = a.copy() % p
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


def rref(a: np.ndarray, p: int):
    """Canonical reduced row echelon form of ``a`` mod p.

    Returns (rref matrix, pivot columns).  ``a`` is not modified.
    """
    a = np.asarray(a, dtype=_dtype(p))
    if a.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    if a.size == 0:
        return a.copy(), np.empty(0, dtype=np.int64)
    return _rref_numpy(a, p)


def _forward(m: np.ndarray, p: int):
    """Forward elimination mod p, in place, on residues in [0, p).

    Leaves ``m`` in row echelon form: each pivot keeps its value and the rows
    below it are cleared, from the pivot column on.  Nothing above a pivot is
    touched.  Returns (pivot columns, number of row swaps).
    """
    rows, cols = m.shape
    pivots = []
    swaps = 0
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
            swaps += 1
        below = m[r + 1 :, c:]
        hit = np.nonzero(below[:, 0])[0]
        if hit.size:
            factors = below[hit, 0] * pow(int(m[r, c]), p - 2, p) % p
            below[hit] = (below[hit] - np.outer(factors, m[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots, swaps


def rank(a: np.ndarray, p: int) -> int:
    """Rank of ``a`` mod p, by forward elimination only.  ``a`` is not modified."""
    m = np.asarray(a, dtype=_dtype(p)) % p
    if m.ndim != 2:
        raise ValueError("rank expects a 2-d array")
    return len(_forward(m, p)[0])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel mod p, rows = basis vectors (canonical order)."""
    dtype = _dtype(p)
    a = np.asarray(a, dtype=dtype)
    rows, cols = a.shape
    if rows == 0:
        return np.eye(cols, dtype=dtype)
    r, piv = rref(a, p)
    piv = list(piv)
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((len(free), cols), dtype=dtype)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(piv):
            basis[k, pc] = (-int(r[i, c])) % p
    return basis


def solve(a: np.ndarray, b: np.ndarray, p: int):
    """One solution of a @ x = b mod p (b a vector or matrix), or None."""
    dtype = _dtype(p)
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype) % p
    vector = b.ndim == 1
    if vector:
        b = b[:, None]
    aug = np.hstack([a % p, b])
    r, piv = rref(aug, p)
    ncols = a.shape[1]
    if any(c >= ncols for c in piv):
        return None
    x = np.zeros((ncols, b.shape[1]), dtype=dtype)
    for i, c in enumerate(piv):
        x[c] = r[i, ncols:]
    return x[:, 0] if vector else x


def det(a: np.ndarray, p: int) -> int:
    """Determinant mod p by forward elimination."""
    m = np.asarray(a, dtype=_dtype(p)) % p
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("det expects a square matrix")
    # the row echelon form is upper triangular, with a zero on the diagonal
    # exactly when a is singular
    _, swaps = _forward(m, p)
    result = -1 if swaps % 2 else 1
    for c in range(n):
        result = result * int(m[c, c]) % p
    return result
