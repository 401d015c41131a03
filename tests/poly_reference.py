"""Reference eliminations over k[vars] and the reference matrix reader, kept
as test oracles.

The package answers every rank and determinant with scalar linear algebra.
This module keeps the polynomial-matrix routines that did it before: one
fraction-free Bareiss elimination (Bareiss, Math. Comp. 22, 1968) whose
divisions are exact multivariate divisions, the rank and determinant read
off it, and the pencil s*B1 + t*B2 as a matrix of linear forms.

The package reads a matrix JSON of linear forms straight into its
coefficient tensor (``polymatrix.tensor_from_json``).  The route it replaced
is kept here: one Poly per entry, a PolyMatrix of them
(:func:`matrix_from_json`), then the tensor (:func:`linear_tensor`).

The package also reads and writes a quadric's JSON straight from and into
its Gram matrix (``pencil.quadric_json``, ``pencil.quadric_terms``).  The
route that went through a multivariate Poly is kept here too: the Poly of a
Gram matrix (:func:`quadric`), 2 S read off a Poly (:func:`doubled_form`) and
halved (:func:`bilinear_matrix`), and the pencil of two Polys
(:func:`pencil_from_quadrics`).

The package renders a matrix's JSON as text in one pass over its coefficient
tensor (``polymatrix.tensor_json``), and ``cli.canonical_json`` places that
text where it stands.  The writer it replaced is kept here: one list per
term in a dict (:func:`tensor_json_reference`), and ``json.dumps`` of the
whole payload (:func:`canonical_json_reference`).
"""

import json

import numpy as np

from ulrichmf import binary, linalg
from ulrichmf.pencil import PencilError, QuadricPencil
from ulrichmf.poly import Poly, PolyError, _json_term
from ulrichmf.polymatrix import MatrixError, PolyMatrix


def divexact(a: Poly, b: Poly) -> Poly:
    """The exact quotient a / b; raises PolyError if b does not divide a."""
    if a.vars != b.vars or a.field != b.field:
        raise PolyError("mixed rings")
    if b.is_zero():
        raise PolyError("division by zero polynomial")
    f = a.field
    lead = max(b.terms)
    lead_c = b.terms[lead]
    rem = dict(a.terms)
    quo = {}
    while rem:
        exp = max(rem)
        diff = tuple(x - y for x, y in zip(exp, lead))
        if any(d < 0 for d in diff):
            raise PolyError("polynomials do not divide exactly")
        c = f.div(rem[exp], lead_c)
        quo[diff] = c
        for dexp, dc in b.terms.items():
            tgt = tuple(x + y for x, y in zip(diff, dexp))
            s = f.sub(rem.get(tgt, f.zero), f.mul(c, dc))
            if f.is_zero(s):
                rem.pop(tgt, None)
            else:
                rem[tgt] = s
    return Poly(f, a.vars, quo)


def constant_value(p: Poly):
    """The scalar of a constant polynomial; raises PolyError if it is not constant."""
    if any(any(exp) for exp in p.terms):
        raise PolyError("polynomial is not constant")
    return p.coefficient((0,) * len(p.vars))


def bareiss(m: PolyMatrix):
    """Fraction-free elimination with full pivoting; every division is exact.

    Returns (rank r, sign of the row and column swaps, last pivot).  The last
    pivot is the r x r minor on the pivot rows and columns, 1 when r = 0.
    """
    work = [list(row) for row in m.entries]
    nrows, ncols = m.nrows, m.ncols
    zero = Poly.zero(m.field, m.vars)
    prev = Poly.const(m.field, m.vars, 1)
    sign = 1
    for r in range(min(nrows, ncols)):
        pivot = next(
            ((i, j) for i in range(r, nrows) for j in range(r, ncols) if work[i][j].terms),
            None,
        )
        if pivot is None:
            return r, sign, prev
        pi, pj = pivot
        if pi != r:
            work[pi], work[r] = work[r], work[pi]
            sign = -sign
        if pj != r:
            for row in work[r:]:
                row[pj], row[r] = row[r], row[pj]
            sign = -sign
        top = work[r]
        for row in work[r + 1:]:
            for j in range(r + 1, ncols):
                row[j] = divexact(top[r] * row[j] - row[r] * top[j], prev)
            row[r] = zero
        prev = top[r]
    return min(nrows, ncols), sign, prev


def determinant(m: PolyMatrix) -> Poly:
    """det m: 0 below full rank, else the last pivot with the sign of the swaps."""
    if m.nrows != m.ncols:
        raise MatrixError("determinant of a non-square matrix")
    rank, sign, pivot = bareiss(m)
    if rank < m.nrows:
        return Poly.zero(m.field, m.vars)
    return pivot.scale(m.field.of(sign))


def rank(m: PolyMatrix) -> int:
    """The rank of m over the fraction field of k[vars]."""
    return bareiss(m)[0]


def matrix_poly(p) -> PolyMatrix:
    """s*B1 + t*B2 of a QuadricPencil as a graded matrix of linear binary forms."""
    rows = [[binary.linear_form(p.field, a, b) for a, b in zip(row1, row2)]
            for row1, row2 in zip(p.b1, p.b2)]
    return PolyMatrix(p.field, binary.ST, rows, row_degrees=[0] * p.dim,
                      col_degrees=[1] * p.dim)


def pencil_determinant(p) -> Poly:
    """det(s*B1 + t*B2) of a QuadricPencil by elimination over k[s, t]."""
    return determinant(matrix_poly(p))


def matrix_from_json(field, variables, data) -> PolyMatrix:
    """The PolyMatrix of a matrix JSON, each entry read by ``Poly.from_json``."""
    if not isinstance(data, dict):
        raise MatrixError(f"matrix JSON must be an object, not {type(data).__name__}")
    nrows, ncols, entries = data.get("rows"), data.get("cols"), data.get("entries")
    if not (type(nrows) is int and type(ncols) is int and min(nrows, ncols) >= 0
            and isinstance(entries, list)):
        raise MatrixError("matrix JSON needs 'rows' and 'cols' counts and an 'entries' list")
    for key in ("row_degrees", "col_degrees"):
        labels = data.get(key)
        if not (labels is None
                or isinstance(labels, list) and all(type(d) is int for d in labels)):
            raise MatrixError(f"matrix JSON {key!r} must be a list of integers")
    flat = [Poly.from_json(field, variables, t) for t in entries]
    if len(flat) != nrows * ncols:
        raise MatrixError("entry count mismatch in matrix JSON")
    rows = [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)]
    return PolyMatrix(
        field, variables, rows, data.get("row_degrees"), data.get("col_degrees"), ncols
    )


def linear_tensor(matrix: PolyMatrix, name="matrix"):
    """The coefficient tensor of a matrix of linear forms.

    Raises MatrixError naming the first entry, row by row, with a term of
    degree other than 1.
    """
    field = matrix.field
    t = np.full((len(matrix.vars), matrix.nrows, matrix.ncols), field.zero,
                dtype=linalg.scalar_dtype(field))
    for i, row in enumerate(matrix.entries):
        for j, entry in enumerate(row):
            for exp, c in entry.terms.items():
                if sum(exp) != 1:
                    raise MatrixError(f"{name} entry ({i},{j}) is not linear")
                t[exp.index(1), i, j] = c
    return t


def quadric(p: QuadricPencil, which: int) -> Poly:
    """q_which = x^T B x of a pencil as a Poly in its variables: B[i][i] on
    x_i^2 and 2 B[i][j] on x_i x_j."""
    b = p.b1 if which == 1 else p.b2
    field = p.field
    pairs = []
    for i in range(p.dim):
        for j in range(i, p.dim):
            c = b[i][j] if i == j else field.mul(b[i][j], field.of(2))
            exp = [0] * p.dim
            exp[i] += 1
            exp[j] += 1
            pairs.append((tuple(exp), c))
    return Poly.from_pairs(field, p.variables, pairs)


def doubled_form(q: Poly):
    """(W, other): W[k][l] is the coefficient of 2 q on x_k x_l as a symmetric
    form, so W = 2 S with q = x^T S x on q's quadratic terms; other says
    whether q has a term of another degree."""
    field = q.field
    w = [[field.zero] * len(q.vars) for _ in q.vars]
    other = False
    for exp, c in q.terms.items():
        support = [k for k, e in enumerate(exp) if e]
        if sum(exp) != 2:
            other = True
        elif len(support) == 1:
            w[support[0]][support[0]] = field.add(c, c)
        else:
            k, l = support
            w[k][l] = w[l][k] = c
    return w, other


def bilinear_matrix(q: Poly):
    """Symmetric scalar matrix B with x^T B x = q, for homogeneous quadratic q."""
    w, other = doubled_form(q)
    if q.is_zero() or other:
        raise PencilError("bilinear_matrix needs a nonzero homogeneous quadratic")
    field = q.field
    half = field.inv(field.of(2))
    return [[field.mul(c, half) for c in row] for row in w]


def pencil_from_quadrics(q1: Poly, q2: Poly) -> QuadricPencil:
    """The pencil of two nonzero quadrics of one ring, in its variables."""
    if q1.vars != q2.vars or q1.field != q2.field:
        raise PencilError("quadrics must live in one ring")
    return QuadricPencil(q1.field, bilinear_matrix(q1), bilinear_matrix(q2), q1.vars)


def tensor_json_reference(t) -> dict:
    """The matrix JSON of a coefficient tensor as a dict: the entries row by
    row, the terms of each in the sorted exponent order of ``Poly.to_json``,
    last variable first, each [exponents, numerator, denominator]."""
    v, nrows, ncols = t.shape
    units = [[int(i == k) for i in range(v)] for k in reversed(range(v))]
    # by_entry[i * ncols + j, k] is the coefficient of units[k] in entry (i, j)
    by_entry = t[::-1].reshape(v, nrows * ncols).T
    at, ks = np.nonzero(by_entry)
    entries = [[] for _ in range(nrows * ncols)]
    for e, k, c in zip(at.tolist(), ks.tolist(), by_entry[at, ks].tolist()):
        entries[e].append([units[k], c, 1] if type(c) is int else _json_term(units[k], c))
    return {"rows": nrows, "cols": ncols, "entries": entries}


def canonical_json_reference(obj) -> str:
    """Sorted keys, no spaces, a final newline, by one ``json.dumps``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"
