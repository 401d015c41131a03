"""Degree-by-degree exact linear algebra for graded modules over k[s,t].

Monomial i of degree d is s^i t^(d-i), so every position in a graded piece
is index arithmetic: s^r t^(m-r) times monomial i is monomial i + r.  The
central routine is :func:`graded_kernel`: minimal generators of the
kernel of a homogeneous map of graded free k[s,t]-modules, computed by
sweeping graded pieces and adjoining complement bases (graded Nakayama).
In two variables that kernel is free (Hilbert's syzygy theorem), so the
generators found so far are part of a basis: the dimension their multiples
span in each degree is a count, not an elimination.  The sweep stops at
the generator that reaches an upper bound on the kernel's rank, read off the
map's value at (s, t) = (1, 0), or else at a cap on the generator degrees
that the degree labels prove: the image of the map embeds in rho = rank(m)
of the target's summands, so the generator degrees sum to at most the sum of
the column degrees minus the rho smallest row degrees.
Everything reduces to scalar rank/nullspace computations over the base
field, routed through :mod:`ulrichmf.linalg`.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .fields import Field
from .poly import Poly
from .polymatrix import PolyMatrix


class GradedError(ValueError):
    pass


def monomials(degree: int) -> list[tuple[int, int]]:
    """The exponents of the monomials of k[s,t] of this degree d: (i, d - i) for s^i t^(d-i)."""
    return [(i, degree - i) for i in range(degree + 1)]


def dim_poly_ring(degree: int) -> int:
    return max(degree + 1, 0)


def degree_basis(gen_degrees, d: int):
    """Basis of the degree-d piece of (+)_j k[s,t](-a_j): pairs (j, exponent),
    exponents in :func:`monomials` order."""
    return [(j, (i, d - a - i)) for j, a in enumerate(gen_degrees) for i in range(d - a + 1)]


def coords_to_vector(field: Field, coords, basis, ncomponents: int, variables):
    """The module element with these coordinates in ``basis``: one Poly per component."""
    variables = tuple(variables)
    terms = [{} for _ in range(ncomponents)]
    for (j, exp), c in zip(basis, coords):
        if not field.is_zero(c):
            terms[j][exp] = c
    return [Poly._make(field, variables, t) for t in terms]


def _require_two_variables(caller: str, variables) -> None:
    if len(variables) != 2:
        raise GradedError(f"{caller} needs two variables, got {tuple(variables)}")


def multiples_coords(field: Field, gens, target_degrees, d: int):
    """Coordinate rows of every degree-d multiple x^m * g of the generators.

    ``gens`` holds (degree, vector) pairs, each vector a list of Polys over
    k[s,t] with entry j homogeneous of degree e_g - a_j (or zero); a ring in
    another number of variables raises GradedError.  Rows come
    generator by generator, monomials in :func:`monomials` order, in the basis
    ``degree_basis(target_degrees, d)``, as lists of the field's scalars.  No
    Poly is built or multiplied: multiple r of a term s^i t^k of entry j is
    coordinate i + r of that entry, and one numpy assignment per generator
    writes all of its multiples.
    """
    first = next((p for _, vec in gens for p in vec), None)
    if first is not None:
        _require_two_variables("multiples_coords", first.vars)
    return _multiples_array(field, gens, target_degrees, d).tolist()


def _multiples_array(field: Field, gens, target_degrees, d: int):
    """The rows of :func:`multiples_coords` as one array of
    ``linalg.scalar_dtype(field)``."""
    dtype = linalg.scalar_dtype(field)
    offsets, width = [], 0
    for a in target_degrees:
        offsets.append(width)
        width += dim_poly_ring(d - a)
    counts = [dim_poly_ring(d - e) for e, _ in gens]
    out = np.full((sum(counts), width), field.zero, dtype=dtype)
    # multiple r of term s^i t^k of entry j: row top + r, column offsets[j] + i + r,
    # so a term's multiples step by width + 1 through the flat array
    starts, coeffs, spans, top = [], [], [], 0
    for (e_g, vec), count in zip(gens, counts):
        if not count:
            continue
        lo = len(starts)
        for j, p in enumerate(vec):
            if p.terms:
                n = len(starts)
                if j < len(offsets):
                    base, deg = top * width + offsets[j], e_g - target_degrees[j]
                    starts += [base + i for i, k in p.terms if i + k == deg]
                if len(starts) - n != len(p.terms):
                    raise GradedError(f"entry {j} has a term of the wrong degree")
                coeffs += p.terms.values()
        if len(starts) > lo:
            spans.append((lo, len(starts), count))
        top += count
    if spans:
        cells = np.array(starts)[:, None] + np.arange(0, max(counts) * (width + 1), width + 1)
        values = np.array(coeffs, dtype=dtype)[:, None]
        flat = out.reshape(-1)
        for lo, hi, count in spans:
            flat[cells[lo:hi, :count]] = values[lo:hi]
    return out


def degree_map_matrix(m: PolyMatrix, d: int):
    """Scalar matrix of the degree-d piece of a homogeneous map over k[s,t].

    Returns (rows, src_basis, tgt_basis); rows is a 2-d array of
    ``linalg.scalar_dtype(m.field)``, its rows indexed by tgt_basis and its
    columns by src_basis.  Column (j, x^e) holds the coordinates of x^e times
    column j of m, so the matrix is the transpose of the multiples of m's
    columns.
    """
    _require_two_variables("degree_map_matrix", m.vars)
    src = degree_basis(m.col_degrees, d)
    tgt = degree_basis(m.row_degrees, d)
    gens = [(c, m.column(j)) for j, c in enumerate(m.col_degrees)]
    rows = _multiples_array(m.field, gens, m.row_degrees, d).T
    return rows, src, tgt


class IncrementalEchelon:
    """Row echelon accumulator over an exact field; tests independence."""

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.rows: list = []
        self.pivots: list[int] = []

    def reduce(self, vec):
        f = self.field
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if not f.is_zero(c):
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        """Insert if independent of current rows; returns True when added."""
        f = self.field
        v = self.reduce(vec)
        piv = next((i for i, c in enumerate(v) if not f.is_zero(c)), None)
        if piv is None:
            return False
        inv = f.inv(v[piv])
        v = [f.mul(c, inv) for c in v]
        self.rows.append(v)
        self.pivots.append(piv)
        return True


def graded_kernel(m: PolyMatrix) -> PolyMatrix:
    """Minimal generators of ker(m) for a homogeneous map of graded free modules.

    The result's columns are homogeneous vectors in the source module; its
    row labels repeat the source generator degrees and its column labels are
    the kernel generator degrees.  Raises GradedError when the input is not
    homogeneous or not in two variables.

    The kernel K is free over k[s, t] (Hilbert's syzygy theorem in two
    variables), of rank kappa = ncols - rho with rho = rank(m), and a minimal
    homogeneous generating set of it is a basis, of degrees e_1 .. e_kappa.
    The sweep stops at its last generator, or at a degree cap, by three facts.

    - The generators found below degree d are part of a basis, so their
      multiples span sum_e (d - e + 1) dimensions of K_d, and degree d adds
      dim K_d minus that many generators.
    - The value of m at (s, t) = (1, 0), entry (i, j) the coefficient of
      s^(c_j - r_i), has rank rho_0 <= rho, so ``ncols - rho_0`` bounds kappa
      from above.  The sweep stops when the generators reach that bound.
    - Every e_k is at most the cap.  Take rho rows R on which m has a nonzero
      rho x rho minor: projecting the image I = F / K onto them is injective,
      since I is torsion-free of rank rho, and its cokernel has rank 0, so a
      constant Hilbert polynomial of at least 0.  With the Hilbert polynomials
      of free modules that gives sum e_k <= sum c_j - sum_R r_i, at most
      sum c_j minus the sum of the rho smallest row degrees.  Each e_k is at
      least c_min, the smallest column degree, so each is at most that bound
      minus (kappa - 1) c_min.  rho is unknown between rho_0 and
      min(nrows, ncols - 1) (K = 0 when rho = ncols), and the cap is the
      largest of these bounds over that range.
    """
    if m.row_degrees is None or m.col_degrees is None:
        raise GradedError("graded_kernel needs degree labels")
    if m.first_inhomogeneous() is not None:
        raise GradedError("matrix is not homogeneous for its degree labels")
    _require_two_variables("graded_kernel", m.vars)
    field = m.field
    top = [
        [p.terms.get((c - r, 0), field.zero) for p, c in zip(row, m.col_degrees)]
        for row, r in zip(m.entries, m.row_degrees)
    ]
    # the pivots of rref: over Q, rank would first eliminate mod a prime, and
    # the group law over Q stays off modp
    rho_top = len(linalg.rref(field, top, m.ncols)[1])
    bound = m.ncols - rho_top
    c_min = min(m.col_degrees, default=0)
    low_rows = sorted(m.row_degrees)
    cap = max((sum(m.col_degrees) - sum(low_rows[:rho]) - (m.ncols - rho - 1) * c_min
               for rho in range(rho_top, min(m.nrows, m.ncols - 1) + 1)), default=c_min)
    gens: list[tuple[int, list[Poly]]] = []
    for d in range(c_min, cap + 1):
        if len(gens) == bound:
            break
        rows, src, _ = degree_map_matrix(m, d)
        if not src:
            continue
        ker_basis = linalg.nullspace(field, rows, len(src))
        new = len(ker_basis) - sum(d - e + 1 for e, _ in gens)
        if new == 0:
            continue
        if gens:
            # few vectors per degree, each kernel vector tested against the
            # span built so far: one add per vector beats a rank of the stack
            span = IncrementalEchelon(field, len(src))
            for row in multiples_coords(field, gens, m.col_degrees, d):
                span.add(row)
            picked = [vec for vec in ker_basis if span.add(vec)]
        else:
            picked = ker_basis
        gens.extend((d, coords_to_vector(field, vec, src, m.ncols, m.vars)) for vec in picked)
        if len(gens) > bound:
            raise GradedError("found more kernel generators than the rank predicts")
        if len(picked) != new:
            raise GradedError(f"degree {d} adds {len(picked)} kernel generators, "
                              f"the Hilbert count {new}")
    cols = [vec for _, vec in gens]
    entries = [[col[j] for col in cols] for j in range(m.ncols)]
    result = PolyMatrix(
        field,
        m.vars,
        entries,
        row_degrees=m.col_degrees,
        col_degrees=[e for e, _ in gens],
    )
    check = m @ result
    if not check.is_zero():
        raise GradedError("internal error: kernel generators fail m @ g = 0")
    return result


def express_in_module(field: Field, gen_vectors, gen_degrees, module_degrees, target_vec,
                      target_degree: int, variables):
    """Write a homogeneous element as a combination of module generators.

    Solves target = sum_g h_g * gen_g with h_g homogeneous of degree
    target_degree - e_g.  Returns the list of Poly coefficients h_g, or None
    when the element is not in the span.  The module is over k[variables],
    in two variables.
    """
    _require_two_variables("express_in_module", variables)
    gens = list(zip(gen_degrees, gen_vectors))
    columns = _multiples_array(field, gens, module_degrees, target_degree)
    # the target's coordinates: its degree-0 multiple
    (rhs,) = _multiples_array(field, [(target_degree, target_vec)], module_degrees, target_degree)
    if not len(columns):
        return None if any(not field.is_zero(c) for c in rhs.tolist()) else [
            Poly.zero(field, variables) for _ in gen_vectors
        ]
    solution = linalg.solve(field, columns.T, rhs, len(columns))
    if solution is None:
        return None
    # the unknowns are the multiples x^m * g, in the order multiples_coords made them
    unknowns = degree_basis(gen_degrees, target_degree)
    return coords_to_vector(field, solution, unknowns, len(gen_vectors), variables)


def graded_quotient_dims(field: Field, variables, generators, degrees, rank: int = 1):
    """Graded dimensions of S^rank / <generators> over S = k[variables], in two
    variables.

    ``generators`` holds homogeneous Polys (ideal case, rank 1) or lists of
    Polys of length ``rank`` (column vectors of a module presentation).  The
    dimension in each degree is rank * dim S_d minus the rank of the Macaulay
    matrix of monomial multiples of the generators.
    """
    _require_two_variables("graded_quotient_dims", variables)
    gens = []
    for g in generators:
        vec = [g] if isinstance(g, Poly) else list(g)
        if len(vec) != rank:
            raise GradedError("generator vector length does not match rank")
        degs = {p.homogeneous_degree() for p in vec if not p.is_zero()}
        if not degs:
            continue  # zero generators contribute nothing
        if len(degs) != 1:
            raise GradedError("generators must be homogeneous")
        gens.append((degs.pop(), vec))
    out = []
    for d in degrees:
        width = rank * dim_poly_ring(d)
        rows = _multiples_array(field, gens, [0] * rank, d)
        out.append(width - linalg.rank(field, rows, width))
    return out
