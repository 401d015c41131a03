"""Degree-by-degree exact linear algebra for graded modules.

The central routine is :func:`graded_kernel`: minimal generators of the
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

import functools
import itertools
from math import comb

import numpy as np

from . import linalg
from .fields import Field
from .poly import Poly
from .polymatrix import PolyMatrix


class GradedError(ValueError):
    pass


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, in a fixed sorted order."""
    return list(_sorted_monomials(nvars, degree))


@functools.cache
def _sorted_monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The monomials of one (nvars, degree), built and sorted once: the graded
    sweeps ask for the same few pairs thousands of times."""
    if degree < 0:
        return ()
    if nvars == 0:
        return ((),) if degree == 0 else ()
    out = []
    for bars in itertools.combinations(range(degree + nvars - 1), nvars - 1):
        prev = -1
        exp = []
        for b in bars:
            exp.append(b - prev - 1)
            prev = b
        exp.append(degree + nvars - 2 - prev)
        out.append(tuple(exp))
    return tuple(sorted(out))


@functools.cache
def _monomial_index(nvars: int, degree: int) -> dict:
    """Position of each exponent tuple in ``monomials(nvars, degree)``."""
    return {exp: i for i, exp in enumerate(_sorted_monomials(nvars, degree))}


@functools.cache
def _shift_table(nvars: int, degree: int, shift: int) -> np.ndarray:
    """Entry (i, r) is the position of u_i + x_r in ``monomials(nvars, degree
    + shift)``, for u_i the i-th monomial of the given degree and x_r the r-th
    of degree ``shift``.  In two variables it is i + r."""
    index = _monomial_index(nvars, degree + shift)
    shifts = _sorted_monomials(nvars, shift)
    table = [[index[tuple(a + b for a, b in zip(u, x))] for x in shifts]
             for u in _sorted_monomials(nvars, degree)]
    table = np.array(table, dtype=np.intp).reshape(len(table), len(shifts))
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def dim_poly_ring(nvars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return comb(degree + nvars - 1, nvars - 1)


def degree_basis(gen_degrees, d: int, nvars: int = 2):
    """Basis of the degree-d piece of (+)_j k[vars](-a_j): pairs (j, exponent)."""
    basis = []
    for j, a in enumerate(gen_degrees):
        for exp in monomials(nvars, d - a):
            basis.append((j, exp))
    return basis


def coords_to_vector(field: Field, coords, basis, ncomponents: int, variables):
    """The module element with these coordinates in ``basis``: one Poly per component."""
    variables = tuple(variables)
    terms = [{} for _ in range(ncomponents)]
    for (j, exp), c in zip(basis, coords):
        if not field.is_zero(c):
            terms[j][exp] = c
    return [Poly._make(field, variables, t) for t in terms]


def multiples_coords(field: Field, gens, target_degrees, d: int, nvars: int = 2):
    """Coordinate rows of every degree-d multiple x^m * g of the generators.

    ``gens`` holds (degree, vector) pairs, each vector a list of Polys with
    entry j homogeneous of degree e_g - a_j (or zero).  Rows come generator
    by generator, monomials in :func:`monomials` order, in the basis
    ``degree_basis(target_degrees, d, nvars)``, as lists of the field's
    scalars.  No Poly is built or multiplied: each generator's terms are read
    once as (position, coefficient) pairs, and one numpy assignment writes
    all of its multiples, the positions of the shifted exponents coming from
    :func:`_shift_table`.
    """
    return _multiples_array(field, gens, target_degrees, d, nvars).tolist()


@functools.cache
def _multiple_positions(nvars: int, target_degrees: tuple, d: int, e_g: int):
    """Where the multiples of a degree-e_g generator put each of its terms.

    Returns (table, entries).  ``entries[j]`` is (index, base): a term u of
    entry j is row ``base + index[u]`` of ``table``, and that row holds the
    flat positions of x_r * u in the block of the generator's multiples,
    one row per x_r, in the degree-d basis of the targets."""
    shift = d - e_g
    count = dim_poly_ring(nvars, shift)
    width = sum(dim_poly_ring(nvars, d - a) for a in target_degrees)
    strides = np.arange(count) * width
    parts, entries, base, offset = [], [], 0, 0
    for a in target_degrees:
        index = _monomial_index(nvars, e_g - a)
        entries.append((index, base))
        if index:
            parts.append(_shift_table(nvars, e_g - a, shift) + (strides + offset))
            base += len(index)
        offset += dim_poly_ring(nvars, d - a)
    table = np.concatenate(parts) if parts else np.zeros((0, count), dtype=np.intp)
    table.flags.writeable = False
    return table, entries


def _multiples_array(field: Field, gens, target_degrees, d: int, nvars: int):
    """The rows of :func:`multiples_coords` as one array of
    ``linalg.scalar_dtype(field)``."""
    dtype = linalg.scalar_dtype(field)
    targets = tuple(target_degrees)
    width = sum(dim_poly_ring(nvars, d - a) for a in targets)
    counts = [dim_poly_ring(nvars, d - e) for e, _ in gens]
    out = np.full((sum(counts), width), field.zero, dtype=dtype)
    top = 0
    for (e_g, vec), count in zip(gens, counts):
        if not count:
            continue
        table, entries = _multiple_positions(nvars, targets, d, e_g)
        rows, coeffs = [], []
        for j, p in enumerate(vec):
            if p.terms:
                try:
                    index, base = entries[j]
                    rows += [base + index[exp] for exp in p.terms]
                except (IndexError, KeyError):
                    raise GradedError(f"entry {j} has a term of the wrong degree") from None
                coeffs += p.terms.values()
        if coeffs:
            out[top:top + count].reshape(-1)[table[rows]] = np.array(coeffs, dtype=dtype)[:, None]
        top += count
    return out


def degree_map_matrix(m: PolyMatrix, d: int):
    """Scalar matrix of the degree-d piece of a homogeneous map.

    Returns (rows, src_basis, tgt_basis); rows is a 2-d array of
    ``linalg.scalar_dtype(m.field)``, its rows indexed by tgt_basis and its
    columns by src_basis.  Column (j, x^e) holds the coordinates of x^e times
    column j of m, so the matrix is the transpose of the multiples of m's
    columns.
    """
    nvars = len(m.vars)
    src = degree_basis(m.col_degrees, d, nvars)
    tgt = degree_basis(m.row_degrees, d, nvars)
    gens = [(c, m.column(j)) for j, c in enumerate(m.col_degrees)]
    rows = _multiples_array(m.field, gens, m.row_degrees, d, nvars).T
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
    if len(m.vars) != 2:
        raise GradedError(f"graded_kernel needs two variables, got {m.vars}")
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
            for row in multiples_coords(field, gens, m.col_degrees, d, 2):
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


def express_in_module(
    field: Field,
    gen_vectors,
    gen_degrees,
    module_degrees,
    target_vec,
    target_degree: int,
    variables,
    nvars: int = 2,
):
    """Write a homogeneous element as a combination of module generators.

    Solves target = sum_g h_g * gen_g with h_g homogeneous of degree
    target_degree - e_g.  Returns the list of Poly coefficients h_g, or None
    when the element is not in the span.
    """
    gens = list(zip(gen_degrees, gen_vectors))
    columns = _multiples_array(field, gens, module_degrees, target_degree, nvars)
    # the target's coordinates: its degree-0 multiple
    (rhs,) = _multiples_array(field, [(target_degree, target_vec)], module_degrees,
                              target_degree, nvars)
    if not len(columns):
        return None if any(not field.is_zero(c) for c in rhs.tolist()) else [
            Poly.zero(field, variables) for _ in gen_vectors
        ]
    solution = linalg.solve(field, columns.T, rhs, len(columns))
    if solution is None:
        return None
    # the unknowns are the multiples x^m * g, in the order multiples_coords made them
    unknowns = degree_basis(gen_degrees, target_degree, nvars)
    return coords_to_vector(field, solution, unknowns, len(gen_vectors), variables)


def graded_quotient_dims(field: Field, variables, generators, degrees, rank: int = 1):
    """Graded dimensions of S^rank / <generators> over S = k[variables].

    ``generators`` holds homogeneous Polys (ideal case, rank 1) or lists of
    Polys of length ``rank`` (column vectors of a module presentation).  The
    dimension in each degree is rank * dim S_d minus the rank of the Macaulay
    matrix of monomial multiples of the generators.
    """
    variables = tuple(variables)
    nvars = len(variables)
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
        width = rank * dim_poly_ring(nvars, d)
        rows = _multiples_array(field, gens, [0] * rank, d, nvars)
        out.append(width - linalg.rank(field, rows, width))
    return out
