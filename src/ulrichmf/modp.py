"""The two row echelon loops mod p on numpy arrays.

Every graded computation (syzygy kernels, Hom spaces, Macaulay-matrix ranks,
determinant interpolation) reduces to row echelon forms of scalar matrices
over F_p, computed here by Python loops over pivots with vectorized row
updates: the Gauss-Jordan loop of :func:`rref` and the forward-only loop of
:func:`echelon`.  Rank, kernel, solve and determinant are read off these two
forms once for every field, in :mod:`ulrichmf.linalg`.

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


def rref(a: np.ndarray, p: int):
    """Canonical reduced row echelon form of ``a`` mod p, by Gauss-Jordan.

    Returns (rref matrix, pivot column array).  ``a`` is not modified.
    """
    m = np.asarray(a, dtype=_dtype(p)) % p
    if m.ndim != 2:
        raise ValueError("rref expects a 2-d array")
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


def echelon(a: np.ndarray, p: int):
    """Row echelon form of ``a`` mod p by forward elimination only.

    Each pivot keeps its value and the rows below it are cleared, from the
    pivot column on; nothing above a pivot is touched.  Returns (echelon
    matrix, pivot columns, number of row swaps).  ``a`` is not modified.
    """
    m = np.asarray(a, dtype=_dtype(p)) % p
    if m.ndim != 2:
        raise ValueError("echelon expects a 2-d array")
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
    return m, pivots, swaps
