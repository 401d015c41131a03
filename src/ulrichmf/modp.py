"""The two row echelon loops mod p on numpy arrays.

Every graded computation (syzygy kernels, Hom spaces, Macaulay-matrix ranks,
determinant interpolation) reduces to row echelon forms of scalar matrices
over F_p, computed here by Python loops over pivots with vectorized row
updates: the Gauss-Jordan loop of :func:`rref`, one broadcast update of
every row per pivot, and the forward-only loop of :func:`echelon`, which
updates only the rows below a pivot that have a nonzero entry under it (on
large sparse matrices that mask saves more than it costs), and updates them
in place, as :func:`rref` does, when every row below has one.  Both take a 2-d
array, or anything ``np.asarray`` makes one of.  Rank, kernel, solve and
determinant are read off these two forms once for every field, in
:mod:`ulrichmf.linalg`.

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

    The rows from the pivot row down are 0 left of the pivot column c, so a
    step changes columns c and up only: it normalizes the pivot row there
    and clears column c in every row at once, by one broadcast product (a
    row whose entry in column c is 0 is left as it is).  Returns (rref
    matrix, pivot column array).  ``a`` is not modified.
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
        nz = m[r:, c].nonzero()[0]
        if not len(nz):
            continue
        block = m[:, c:]
        i = r + int(nz[0])
        if i != r:
            block[[r, i]] = block[[i, r]]
        row = block[r] * pow(int(block[r, 0]), -1, p) % p
        # block - col * row >= -(p - 1)^2: exact wherever _dtype picked int64
        block -= block[:, :1] * row
        block %= p
        block[r] = row
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
            inv = pow(int(m[r, c]), p - 2, p)
            if hit.size == len(below):
                # every row below is hit: one broadcast update in place, as in rref
                below -= below[:, :1] * (m[r, c:] * inv % p)
                below %= p
            else:
                factors = below[hit, 0] * inv % p
                below[hit] = (below[hit] - np.outer(factors, m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, pivots, swaps
