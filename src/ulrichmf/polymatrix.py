"""Matrices of polynomials and graded free modules.

Grading convention, fixed repo-wide: a homogeneous map between graded free
modules (+)k[s,t](-a_j) -> (+)k[s,t](-b_i) carries col_degrees = (a_j) and
row_degrees = (b_i); entry (i, j) must be zero or homogeneous of degree
a_j - b_i.

No elimination runs over k[vars]: each rank or determinant the package
needs is a scalar question for :mod:`ulrichmf.linalg`.

A matrix of linear forms in variables x_0 .. x_{V-1} can also be stored as
its coefficient tensor T of shape (V, rows, cols), T[k] the scalar matrix of
x_k, with scalars of the type ``linalg.scalar_dtype`` picks.  A linear change
of variables and the product identities of such matrices are then scalar
products (:func:`substitute_tensors`, :func:`tensor_mismatch`), and its JSON is
written from T and read back into T (:func:`tensor_json`, :func:`tensor_from_json`).
A quadric's JSON is not read here: it goes to and from its Gram matrix in
:mod:`ulrichmf.pencil`.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .fields import Field
from .poly import Poly, _json_term, _mul_into, _nonzero, terms_from_json


class MatrixError(ValueError):
    pass


class GradedFreeModule:
    """A free k[s,t]-module described by its generator degrees (+)k[s,t](-a_j)."""

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        self.degrees = tuple(int(d) for d in degrees)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def hilbert(self, n: int) -> int:
        """dim_k of the degree-n piece: sum_j max(0, n - a_j + 1)."""
        return sum(max(0, n - a + 1) for a in self.degrees)

    def __eq__(self, other):
        return isinstance(other, GradedFreeModule) and self.degrees == other.degrees

    def __repr__(self):
        return f"GradedFreeModule{self.degrees}"


class PolyMatrix:
    __slots__ = ("field", "vars", "nrows", "ncols", "entries", "row_degrees", "col_degrees")

    def __init__(self, field: Field, variables, entries, row_degrees=None, col_degrees=None,
                 ncols=0):
        """``ncols`` counts the columns only when there are no rows."""
        self.field = field
        self.vars = tuple(variables)
        rows = [tuple(row) for row in entries]
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else ncols
        for row in rows:
            if len(row) != self.ncols:
                raise MatrixError("ragged rows")
            for p in row:
                if not isinstance(p, Poly) or p.vars != self.vars or p.field != field:
                    raise MatrixError("entries must be Polys in the matrix ring")
        self.entries = tuple(rows)
        self.row_degrees = None if row_degrees is None else tuple(int(d) for d in row_degrees)
        self.col_degrees = None if col_degrees is None else tuple(int(d) for d in col_degrees)
        if self.row_degrees is not None and len(self.row_degrees) != self.nrows:
            raise MatrixError("row degree label count mismatch")
        if self.col_degrees is not None and len(self.col_degrees) != self.ncols:
            raise MatrixError("col degree label count mismatch")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def _make(field, variables: tuple, rows, row_degrees=None, col_degrees=None, ncols=0):
        """Trusted constructor for internal results: rows of equal length whose
        entries are Polys in the ring (field, variables), and degree labels that
        are None or tuples of ints of the matching length."""
        m = PolyMatrix.__new__(PolyMatrix)
        m.field, m.vars, m.entries = field, variables, tuple(map(tuple, rows))
        m.nrows = len(m.entries)
        m.ncols = len(m.entries[0]) if m.entries else ncols
        m.row_degrees, m.col_degrees = row_degrees, col_degrees
        return m

    @staticmethod
    def zero(field, variables, nrows, ncols, row_degrees=None, col_degrees=None):
        z = Poly.zero(field, variables)
        return PolyMatrix(
            field, variables, [[z] * ncols for _ in range(nrows)], row_degrees, col_degrees, ncols
        )

    @staticmethod
    def identity(field, variables, n, scalar=None):
        diag = Poly.const(field, variables, 1 if scalar is None else scalar)
        return PolyMatrix.scalar_matrix(field, variables, diag, n)

    @staticmethod
    def scalar_matrix(field, variables, f: Poly, n: int):
        """f times the n x n identity; f is checked once, not per entry."""
        variables = tuple(variables)
        if not isinstance(f, Poly) or f.vars != variables or f.field != field:
            raise MatrixError("entries must be Polys in the matrix ring")
        z = Poly.zero(field, variables)
        rows = [[f if i == j else z for j in range(n)] for i in range(n)]
        return PolyMatrix._make(field, variables, rows)

    # -- basic structure -----------------------------------------------------

    def entry(self, i, j) -> Poly:
        return self.entries[i][j]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.nrows))

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def relabel(self, row_degrees=None, col_degrees=None) -> "PolyMatrix":
        return PolyMatrix(
            self.field, self.vars, self.entries, row_degrees, col_degrees, self.ncols
        )

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.vars == other.vars
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def first_mismatch(self, other: "PolyMatrix"):
        """The first (i, j), row by row, where the entries differ, or None; an
        entry that only one of the two matrices has differs."""
        at = lambda m, i, j: m.entries[i][j] if i < m.nrows and j < m.ncols else None
        for i in range(max(self.nrows, other.nrows)):
            for j in range(max(self.ncols, other.ncols)):
                if at(self, i, j) != at(other, i, j):
                    return (i, j)
        return None

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols} over {self.vars})"

    def __str__(self):
        cells = [[str(p) for p in row] for row in self.entries]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "PolyMatrix"):
        if self.field != other.field or self.vars != other.vars:
            raise MatrixError("mixed matrix rings")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise MatrixError("shape mismatch in add")
        rows = [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)
        ]
        return PolyMatrix._make(self.field, self.vars, rows, self.row_degrees, self.col_degrees)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale_scalar(self.field.of(-1))

    def scale_scalar(self, scalar) -> "PolyMatrix":
        rows = [[p.scale(scalar) for p in row] for row in self.entries]
        return PolyMatrix._make(self.field, self.vars, rows, self.row_degrees, self.col_degrees)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self.mul(other)

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        """Exact product, skipping zero entries (matrices here are often sparse).

        Each output entry is summed in one term dict and pruned of zeros once.
        """
        self._check(other)
        if self.ncols != other.nrows:
            raise MatrixError(
                f"dimension mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        f = self.field
        bterms_by_row = [
            [(j, p.terms) for j, p in enumerate(row) if p.terms] for row in other.entries
        ]
        zero = Poly._make(f, self.vars, {})
        out = []
        for arow in self.entries:
            sums: dict = {}  # column -> term dict, for the entries some product reaches
            for a, brow in zip(arow, bterms_by_row):
                if a.terms:
                    for j, b in brow:
                        _mul_into(f, a.terms, b, sums.setdefault(j, {}))
            row = [zero] * other.ncols
            for j, t in sums.items():
                row[j] = Poly._make(f, self.vars, _nonzero(f, t))
            out.append(row)
        if (
            self.col_degrees is not None
            and other.row_degrees is not None
            and self.col_degrees == other.row_degrees
        ):
            row_deg, col_deg = self.row_degrees, other.col_degrees
        else:
            row_deg = col_deg = None
        return PolyMatrix._make(f, self.vars, out, row_deg, col_deg, other.ncols)

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product (self tensor other)."""
        self._check(other)
        rows = []
        for i in range(self.nrows):
            for k in range(other.nrows):
                row = []
                for j in range(self.ncols):
                    a = self.entries[i][j]
                    for l in range(other.ncols):
                        row.append(a * other.entries[k][l])
                rows.append(row)
        return PolyMatrix._make(self.field, self.vars, rows)

    # -- grading ---------------------------------------------------------------

    def first_inhomogeneous(self):
        """The first (i, j), row by row, whose entry is neither zero nor
        homogeneous of degree col_degrees[j] - row_degrees[i], or None."""
        if self.row_degrees is None or self.col_degrees is None:
            raise MatrixError("matrix carries no degree labels")
        for i, (row, r) in enumerate(zip(self.entries, self.row_degrees)):
            for j, (p, c) in enumerate(zip(row, self.col_degrees)):
                if any(sum(e) != c - r for e in p.terms):
                    return (i, j)
        return None

    # -- JSON ---------------------------------------------------------------------

    def to_json(self) -> dict:
        data = {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [p.to_json() for row in self.entries for p in row],
        }
        if self.row_degrees is not None:
            data["row_degrees"] = list(self.row_degrees)
        if self.col_degrees is not None:
            data["col_degrees"] = list(self.col_degrees)
        return data


# -- linear matrices as coefficient tensors ------------------------------------------


def tensor_matrix(field, variables, t) -> PolyMatrix:
    """The matrix sum_k T[k] x_k of a coefficient tensor T of field scalars."""
    variables = tuple(variables)
    v, nrows, ncols = t.shape
    units = [tuple(int(i == k) for i in range(v)) for k in range(v)]
    terms = [{} for _ in range(nrows * ncols)]
    nonzero = t != 0
    for (k, i, j), c in zip(np.argwhere(nonzero).tolist(), t[nonzero].tolist()):
        terms[i * ncols + j][units[k]] = c
    return PolyMatrix._make(field, variables, [
        [Poly._make(field, variables, terms[i * ncols + j]) for j in range(ncols)]
        for i in range(nrows)
    ], ncols=ncols)


def tensor_json(t) -> dict:
    """``tensor_matrix(field, variables, t).to_json()``, written straight from
    the coefficient tensor: the entries row by row, the terms of each in the
    sorted exponent order of ``Poly.to_json``, which puts the last variable
    first.  Each term is [exponents, numerator, denominator] (``_json_term``
    for a scalar that is not an int), and the terms of one variable share
    one exponent list."""
    v, nrows, ncols = t.shape
    units = [[int(i == k) for i in range(v)] for k in reversed(range(v))]
    # by_entry[i * ncols + j, k] is the coefficient of units[k] in entry (i, j)
    by_entry = t[::-1].reshape(v, nrows * ncols).T
    at, ks = np.nonzero(by_entry)
    entries = [[] for _ in range(nrows * ncols)]
    for e, k, c in zip(at.tolist(), ks.tolist(), by_entry[at, ks].tolist()):
        entries[e].append([units[k], c, 1] if type(c) is int else _json_term(units[k], c))
    return {"rows": nrows, "cols": ncols, "entries": entries}


class NotLinearError(MatrixError):
    pass


def tensor_from_json(field, variables, data):
    """The coefficient tensor of a matrix JSON of linear forms, the inverse of :func:`tensor_json`;
    once every entry is read, NotLinearError names the first non-linear entry, row by row."""
    if not isinstance(data, dict):
        raise MatrixError(f"matrix JSON must be an object, not {type(data).__name__}")
    nrows, ncols, entries = data.get("rows"), data.get("cols"), data.get("entries")
    if not (type(nrows) is int and type(ncols) is int and min(nrows, ncols) >= 0
            and isinstance(entries, list)):
        raise MatrixError("matrix JSON needs 'rows' and 'cols' counts and an 'entries' list")
    for key in ("row_degrees", "col_degrees"):
        labels = data.get(key)
        if not (labels is None or isinstance(labels, list) and all(type(d) is int for d in labels)):
            raise MatrixError(f"matrix JSON {key!r} must be a list of integers")
    flat = [terms_from_json(field, variables, entry) for entry in entries]
    if len(flat) != nrows * ncols:  # before a tensor of rows x cols is allocated
        raise MatrixError("entry count mismatch in matrix JSON")
    for key, count in (("row_degrees", nrows), ("col_degrees", ncols)):
        if data.get(key) is not None and len(data[key]) != count:
            raise MatrixError(f"{key[:3]} degree label count mismatch")
    t = np.full((len(variables), nrows, ncols), field.zero, dtype=linalg.scalar_dtype(field))
    for (i, j), terms in zip(np.ndindex(nrows, ncols), flat):
        for exp, c in terms.items():
            if sum(exp) != 1:
                raise NotLinearError(f"entry ({i},{j}) is not linear")
            t[exp.index(1), i, j] = c
    return t


def substitute_tensors(field, m, tensors):
    """The tensors after the change of variables x = M z, one product each:
    T'[k] = sum_j M[j][k] T[j].  Row j of M holds the coefficients of the
    image of variable j."""
    mt = [list(col) for col in zip(*m)]
    return [linalg.matmul(field, mt, t.reshape(len(t), -1)).reshape(len(mt), *t.shape[1:])
            for t in tensors]


# the most entries of one block of products in tensor_mismatch: the check of a
# candidate up to g = 5 is one block, and larger ones are split so that a block
# of int64 products stays at 8 MB
BLOCK_ENTRIES = 2**20


def tensor_mismatch(field, a, b, s=None):
    """The first (i, j), row by row, where A @ B differs from q * id for the
    quadratic form q = x^T S x of a symmetric scalar matrix S (from 0 when S
    is None), or None; an entry only one of the two has differs.

    A = sum_k A_k x_k and B = sum_l B_l x_l are linear, so entry (i, j) of
    A @ B is the quadratic form with coefficient (A_k B_l + A_l B_k)[i][j] on
    x_k x_l for k < l and (A_k B_k)[i][j] on x_k^2.  q has 2 S[k][l]
    on x_k x_l and S[k][k] on x_k^2.  p is odd, so A @ B = q * id exactly
    when A_k B_l + A_l B_k = 2 S[k][l] * id for all k <= l.  One product of A
    stacked by rows with B stacked by columns gives every A_k B_l; it is
    taken in blocks of variables k in K, l in L of at most BLOCK_ENTRIES
    products, each block with its mirror, l in L and k in K.
    """
    v, r, inner = a.shape
    _, b_rows, c = b.shape
    if inner != b_rows:
        raise MatrixError(f"dimension mismatch: {r}x{inner} @ {b_rows}x{c}")
    # over Q the products are taken on integers, d (A_k B_l), and q * id is scaled by d
    (a, da), (b, db) = linalg.integral(field, a), linalg.integral(field, b)
    square = min(r, c)
    # q * id is r x r: the columns past min(r, c) are in one matrix only
    bad = np.zeros((r, c if s is None else max(r, c)), dtype=bool)
    if s is not None:
        scale = field.of(2 * da * db)
        two_s = np.array([[field.mul(w, scale) for w in row] for row in s], dtype=object)
        bad[:, square:] = True

    def products(ks, ls):
        """(A_k B_l)[i][j] at [k, i, l, j] for k in ks, l in ls."""
        left, right = a[ks], b[ls]
        prod = linalg.integer_matmul(field, left.reshape(len(left) * r, inner),
                                     right.transpose(1, 0, 2).reshape(inner, len(right) * c))
        return prod.reshape(len(left), r, len(right), c)

    size = max(1, math.isqrt(BLOCK_ENTRIES // max(1, r * c)))
    groups = [slice(k, min(k + size, v)) for k in range(0, v, size)]
    for at, ks in enumerate(groups):
        for ls in groups[at:]:
            forward = products(ks, ls)
            # sym[k, i, l, j] = (A_k B_l + A_l B_k)[i][j] for k in ks, l in ls
            sym = forward + (forward if ks == ls else products(ls, ks)).transpose(2, 1, 0, 3)
            del forward
            if s is None:
                bad |= (linalg.reduced(field, sym) != 0).any(axis=(0, 2))
                continue
            sym = sym[:, :, :, :square]
            diag = np.arange(square)
            sym[:, diag, :, diag] -= two_s[ks, ls].astype(sym.dtype)
            bad[:, :square] |= (linalg.reduced(field, sym) != 0).any(axis=(0, 2))
    hits = np.argwhere(bad)
    return None if len(hits) == 0 else tuple(int(x) for x in hits[0])
