"""Pencils of quadrics s*q1 + t*q2: discriminants and simultaneous diagonalization.

The diagonalization produces the hyperelliptic data consumed by the matrix
factorization and Clifford modules: an ordered list of pairwise
non-proportional linear forms f_1, ..., f_r with f = prod f_i equal to the
pencil discriminant up to a scalar, together with the change of basis that
diagonalizes both quadrics at once.  If M^T (s B1 + t B2) M = diag(f_1, ...,
f_r) with det M != 0, then det(s B1 + t B2) = det(M)^-2 prod f_i: a diagonal
pencil's discriminant is the product of its diagonal forms, and a
diagonalization from claimed roots fills its pencil's discriminant without
interpolating it.

A quadric is its Gram matrix S, q = x^T S x, from JSON to JSON: this module
holds the one codec of a quadric's term list.  ``quadric_json`` writes the
terms straight from S, and ``quadric_terms`` with ``gram_matrix`` reads them
straight back into S, judging the terms before S is allocated.

Subsets of branch indices are 1-based throughout the package, matching the
usual f_I notation.
"""

from __future__ import annotations

import numpy as np

from . import binary, linalg
from .fields import QQ, Field, PrimeField
from .poly import Poly, _json_term, terms_from_json


class PencilError(ValueError):
    pass


def quadric_json(field: Field, s) -> list:
    """The JSON term list of q = x^T S x for a symmetric V x V scalar matrix S:
    S[i][i] on x_i^2 and 2 S[i][j] on x_i x_j, zeros skipped, each term a
    ``poly._json_term``, in the sorted exponent order of ``Poly.to_json``:
    i descending, then j descending from V - 1 to i."""
    v, out = len(s), []
    for i in range(v - 1, -1, -1):
        for j in range(v - 1, i - 1, -1):
            c = s[i][i] if i == j else field.add(s[i][j], s[i][j])
            if not field.is_zero(c):
                exp = [0] * v
                exp[i] += 1
                exp[j] += 1
                out.append(_json_term(exp, c))
    return out


def quadric_terms(field: Field, variables, data):
    """The terms {exponents: nonzero scalar} of a quadric's JSON term list,
    decoded by ``poly.terms_from_json``, or None if a term has a degree other
    than 2.  No V x V matrix is built, so a reader judges q before
    ``gram_matrix`` allocates its S."""
    terms = terms_from_json(field, variables, data)
    return terms if all(sum(exp) == 2 for exp in terms) else None


def gram_matrix(field: Field, dim: int, terms) -> list:
    """S with x^T S x = q for the ``quadric_terms`` of q in dim variables: the
    coefficient of x_k^2 at S[k][k], half that of x_k x_l at S[k][l] and S[l][k]."""
    half = field.inv(field.of(2))
    s = [[field.zero] * dim for _ in range(dim)]
    for exp, c in terms.items():
        k, l = (k for k, e in enumerate(exp) for _ in range(e))
        if k == l:
            s[k][k] = c
        else:
            s[k][l] = s[l][k] = field.mul(c, half)
    return s


def congruent(field: Field, b, m):
    """M^T B M as lists of the field's scalars, for a V x V scalar matrix B and a
    V x W scalar matrix M: the Gram matrix of x^T B x in the coordinates x = M z."""
    mt = [list(col) for col in zip(*m)]
    return linalg.matmul(field, mt, linalg.matmul(field, b, m)).tolist()


class QuadricPencil:
    """A pair of symmetric scalar matrices (B1, B2) for the pencil s*q1 + t*q2."""

    def __init__(self, field: Field, b1, b2, variables=None):
        self.field = field
        r = len(b1)
        for m in (b1, b2):
            if len(m) != r or any(len(row) != r for row in m):
                raise PencilError("pencil matrices must be square of equal size")
            for i in range(r):
                for j in range(r):
                    if m[i][j] != m[j][i]:
                        raise PencilError("pencil matrices must be symmetric")
        self.b1 = [list(row) for row in b1]
        self.b2 = [list(row) for row in b2]
        self.dim = r
        self.variables = tuple(variables) if variables else tuple(f"x{i}" for i in range(r))
        self._disc = None
        self._roots = None

    def at(self, x):
        """The scalar matrix x*B1 + B2, the pencil at s = x, t = 1."""
        field = self.field
        return [
            [field.add(field.mul(x, a), b) for a, b in zip(row1, row2)]
            for row1, row2 in zip(self.b1, self.b2)
        ]

    def _is_diagonal(self) -> bool:
        field = self.field
        return all(field.is_zero(b[i][j]) for b in (self.b1, self.b2)
                   for i in range(self.dim) for j in range(self.dim) if i != j)

    def discriminant(self) -> Poly:
        """det(s*B1 + t*B2), normalized so its first nonzero coefficient is 1.

        A diagonal pencil's is the product of its diagonal forms B1[i][i]*s +
        B2[i][i]*t.  Any other pencil's is det(x*B1 + B2) at x = 0 .. dim,
        interpolated and homogenized to degree dim.  F_p with p < dim + 1 has
        too few points; det(x*B1 + B2) is an integer polynomial in the
        entries, so there it is interpolated over Q on the integer residues
        and its coefficients are reduced mod p.

        The Hessian convention of the literature differs from this bilinear
        determinant by the fixed scalar 2^dim; the normalization makes the
        root set the actual contract.
        """
        if self._disc is None:
            field, dim = self.field, self.dim
            if self._is_diagonal():
                det = _product_form(field, [(self.b1[i][i], self.b2[i][i]) for i in range(dim)])
            elif isinstance(field, PrimeField) and field.p < dim + 1:
                lift = QuadricPencil(QQ, *([[QQ.of(c) for c in row] for row in b]
                                           for b in (self.b1, self.b2)))
                coeffs = [field.of(c) for c in lift._det_coefficients()]
                det = binary.homogenize(field, coeffs, dim)
            else:
                det = binary.homogenize(field, self._det_coefficients(), dim)
            if det.is_zero():
                raise PencilError("degenerate pencil: identically singular")
            self._disc = binary.normalize(det)
        return self._disc

    def _det_coefficients(self) -> list:
        """Ascending coefficients of det(x*B1 + B2): its values at x = 0 .. dim,
        interpolated."""
        field = self.field
        points = [field.of(x) for x in field.elements(self.dim + 1)]
        values = [linalg.det(field, self.at(x)) for x in points]
        return binary.interpolate_univariate(field, points, values)

    def roots(self):
        """binary.roots of the discriminant, split once per pencil."""
        if self._roots is None:
            self._roots = binary.roots(self.discriminant())
        return self._roots

    def confirm_roots(self, roots) -> bool:
        """Fill the roots() cache from known distinct roots if the normalized
        discriminant is exactly prod (s - lam_i t); else roots() still splits it."""
        field = self.field
        roots = sorted((field.of(lam) for lam in roots), key=binary.root_sort_key)
        if len(set(roots)) != len(roots):
            return False
        if self.discriminant() != _product_form(field, [(field.one, field.neg(lam))
                                                        for lam in roots]):
            return False
        self._roots = ([(lam, 1) for lam in roots], 0, True)
        return True

    def congruence(self, m, variables=None) -> "QuadricPencil":
        """The congruent pencil (M^T B1 M, M^T B2 M) for a dim x W scalar matrix
        M, square or not: the pencil in the W coordinates z of x = M z, named by
        variables (x0, x1, ... by default).  Two products: (B1; B2) M, then
        M^T (B1 M | B2 M)."""
        field, dim = self.field, self.dim
        bm = linalg.matmul(field, self.b1 + self.b2, m)
        width = bm.shape[1]
        mt = [list(col) for col in zip(*m)]
        both = linalg.matmul(field, mt, np.hstack([bm[:dim], bm[dim:]])).tolist()
        return QuadricPencil(field, [row[:width] for row in both],
                             [row[width:] for row in both], variables)


def _product_form(field: Field, pairs) -> Poly:
    """prod (a*s + b*t) over the (a, b) pairs of field scalars, by convolving
    coefficient lists; coeffs[i] multiplies s^(d-i) t^i."""
    coeffs = [field.one]
    for a, b in pairs:
        coeffs = [field.add(field.mul(a, x), field.mul(b, y))
                  for x, y in zip(coeffs + [field.zero], [field.zero] + coeffs)]
    d = len(coeffs) - 1
    return Poly._make(field, binary.ST, {(d - i, i): c for i, c in enumerate(coeffs)
                                         if not field.is_zero(c)})


def smoothness_check(pencil: QuadricPencil):
    """True iff the pencil discriminant is squarefree with no root at infinity.

    Returns (flag, diagnosis string).
    """
    disc = pencil.discriminant()
    issues = []
    if binary.t_valuation(disc) > 0:
        issues.append("root at infinity")
    found, inf_mult, splits = pencil.roots()
    repeated = [lam for lam, mult in found if mult > 1]
    if inf_mult > 1:
        issues.append("double root at infinity")
    if repeated:
        if len(repeated) == len(found) and all(m == 2 for _, m in found) and splits:
            issues.append("all roots double")
        else:
            issues.append(f"repeated roots [{', '.join(map(str, repeated))}]")
    if not binary.squarefree_distinct(disc):
        if not issues:
            issues.append("repeated roots outside the base field")
    elif not issues:
        return True, "smooth: discriminant squarefree of full degree"
    return False, "; ".join(issues)


class Diagonalization:
    """Result of simultaneous diagonalization of a pencil."""

    def __init__(self, field, factors, basis, pencil=None):
        self.field = field
        self.factors = list(factors)
        self.basis = basis
        self.pencil = pencil
        for f in self.factors:
            binary.check_binary(f, 1)
        n = len(self.factors)
        for i in range(n):
            for j in range(i + 1, n):
                if _proportional(field, self.factors[i], self.factors[j]):
                    raise PencilError("diagonal factors must be pairwise non-proportional")


def _proportional(field, f, g) -> bool:
    a1, b1 = f.coefficient((1, 0)), f.coefficient((0, 1))
    a2, b2 = g.coefficient((1, 0)), g.coefficient((0, 1))
    return field.is_zero(field.sub(field.mul(a1, b2), field.mul(a2, b1)))


class HyperellipticData(Diagonalization):
    """Diagonalized pencil of even size 2g+2: the hyperelliptic curve y^2 = f."""

    def __init__(self, field, factors, basis=None, pencil=None):
        super().__init__(field, factors, basis, pencil)
        if not self.factors:
            raise PencilError("hyperelliptic data needs at least 2 branch points (genus >= 0)")
        if len(self.factors) % 2:
            raise PencilError("hyperelliptic data needs an even number of factors")
        self.genus = len(self.factors) // 2 - 1
        self._subset_cache: dict = {}

    @staticmethod
    def from_factors(field, factors) -> "HyperellipticData":
        return HyperellipticData(field, factors)

    @property
    def nbranch(self) -> int:
        return len(self.factors)

    @property
    def f(self) -> Poly:
        return self.subset_product(range(1, self.nbranch + 1))

    def factor(self, i: int) -> Poly:
        """f_i for a 1-based branch index."""
        return self.factors[i - 1]

    def subset_product(self, indices) -> Poly:
        """f_I = prod_{i in I} f_i for 1-based indices, cached per subset: the
        linear factors' coefficients convolved by ``_product_form`` (f_emptyset = 1)."""
        key = frozenset(indices)
        if any(i < 1 or i > self.nbranch for i in key):
            raise PencilError(f"subset {sorted(key)} out of range 1..{self.nbranch}")
        if key not in self._subset_cache:
            self._subset_cache[key] = _product_form(self.field, [
                (f.coefficient((1, 0)), f.coefficient((0, 1)))
                for f in (self.factors[i - 1] for i in sorted(key))
            ])
        return self._subset_cache[key]

    def complement(self, indices) -> frozenset:
        return frozenset(range(1, self.nbranch + 1)) - frozenset(indices)


def simultaneous_diagonalize(pencil: QuadricPencil, roots=None, basis=None) -> Diagonalization:
    """Diagonalize both quadrics at once.

    Requires the discriminant to be squarefree and fully split over the base
    field with no root at infinity.  (Absence of a root at infinity already
    forces B1 to be invertible: det B1 is the coefficient of s^r.)  No square
    roots are taken, so the diagonal entries need not be monic.

    The basis M is claimed, or else column i is the kernel of lam_i B1 + B2
    for the i-th root lam_i; a claimed M is certified like a found one.

    With claimed roots, exactly dim distinct scalars in ``binary.root_sort_key``
    order, the discriminant is not split.  Each factor must read
    a_i (s - lam_i t) with a_i != 0; M^T B1 M = diag(a_i) then gives
    det(M)^2 det B1 = prod a_i != 0, so det(s B1 + t B2) = det(M)^-2 prod f_i,
    which fills the pencil's discriminant and roots.
    """
    field = pencil.field
    if roots is None:
        found, inf_mult, splits = pencil.roots()
        if inf_mult:
            raise PencilError("discriminant has a root at infinity; renormalize the pencil")
        if not splits:
            advice = "; change the prime" if isinstance(field, PrimeField) else ""
            raise PencilError(f"discriminant does not split over the base field{advice}")
        if any(mult > 1 for _, mult in found):
            raise PencilError("discriminant is not squarefree")
        found = [lam for lam, _ in found]
    else:
        found = sorted({field.of(lam) for lam in roots}, key=binary.root_sort_key)
        if len(found) != len(roots) or len(found) != pencil.dim:
            raise PencilError(f"need {pencil.dim} distinct claimed roots, got "
                              f"{len(found)} distinct of {len(roots)}")
    if basis is None:
        basis_cols = []
        for lam_root in found:
            # -lam is the eigenvalue of B1^-1 B2 attached to the factor (s - lam*t);
            # B1 is invertible, so its eigenvectors are the kernel of lam*B1 + B2
            ns = linalg.nullspace(field, pencil.at(lam_root), pencil.dim)
            if len(ns) != 1:
                raise PencilError(f"lam*B1 + B2 has a {len(ns)}-dimensional kernel at lam = "
                                  f"{lam_root}, not 1")
            basis_cols.append(ns[0])
        basis = [[basis_cols[j][i] for j in range(pencil.dim)] for i in range(pencil.dim)]
    elif len(basis) != pencil.dim or any(len(row) != pencil.dim for row in basis):
        raise PencilError(f"a claimed basis must be {pencil.dim} x {pencil.dim}")
    # f_i = v_i^T (s B1 + t B2) v_i, the diagonal of the congruent pencil
    conj = pencil.congruence(basis)
    pairs = [(conj.b1[i][i], conj.b2[i][i]) for i in range(conj.dim)]
    factors = [binary.linear_form(field, a, b) for a, b in pairs]
    if any(f_i.is_zero() for f_i in factors):
        raise PencilError("isotropic eigenvector encountered; pencil is degenerate")
    result = (
        HyperellipticData(field, factors, basis, pencil)
        if pencil.dim % 2 == 0
        else Diagonalization(field, factors, basis, pencil)
    )
    _check_diagonalization(pencil, result, conj)
    product = binary.normalize(_product_form(field, pairs))
    if roots is None:
        if product != pencil.discriminant():
            raise PencilError("product of diagonal factors does not match the discriminant")
        return result
    for i, (lam, (a, b)) in enumerate(zip(found, pairs)):
        if field.is_zero(a) or b != field.neg(field.mul(lam, a)):
            raise PencilError(f"claimed root {lam} is not the root of factor {i + 1}")
    pencil._disc = product
    pencil._roots = ([(lam, 1) for lam in found], 0, True)
    return result


def hyperbolic_restriction_basis(field: Field, a, b, roots) -> list:
    """The eigenbasis, for ``simultaneous_diagonalize``, of the pencil
    sum_i (s - a_i t) x_i y_i (i = 0..n) restricted by y_n = b . z, in the
    coordinates z = (x_0..x_n, y_0..y_(n-1)), at its claimed roots: nothing
    is checked here, the diagonalization certifies it.

    With beta = b[:n+1] and gamma = b[n+1:], the kernel of lam B1 + B2 is
    e_(x_n) at lam = a_n; gamma_j e_(x_j) - beta_j e_(y_j) at lam = a_j, j < n;
    and otherwise x_i = -gamma_i / c_i, y_i = -beta_i / c_i (i < n) and
    x_n = 1 / c_n for c_i = lam - a_i, since (lam B1 + B2) R v must lie in
    ker R^T = span(-b, 1), and the ambient form at lam swaps x_i and y_i and
    scales by 2 / c_i in each plane.  Each column is scaled to 1 at its last
    nonzero entry, as ``linalg.nullspace`` gives a 1-dimensional kernel.
    """
    a, n = [field.of(v) for v in a], len(a) - 1
    beta, gamma = b[: n + 1], b[n + 1 :]
    cols = []
    for lam in sorted((field.of(v) for v in roots), key=binary.root_sort_key):
        v = [field.zero] * (2 * n + 1)
        if lam == a[n]:
            v[n] = field.one
        elif lam in a:
            j = a.index(lam)
            v[j], v[n + 1 + j] = gamma[j], field.neg(beta[j])
        else:
            for i in range(n):
                c = field.sub(lam, a[i])
                v[i] = field.neg(field.div(gamma[i], c))
                v[n + 1 + i] = field.neg(field.div(beta[i], c))
            v[n] = field.inv(field.sub(lam, a[n]))
        last = field.inv(next(x for x in reversed(v) if not field.is_zero(x)))
        cols.append([field.mul(x, last) for x in v])
    return [list(row) for row in zip(*cols)]


def _check_diagonalization(pencil: QuadricPencil, diag: Diagonalization, conj: QuadricPencil):
    """Exact check of diag against conj, the congruent pencil of its basis M:
    both Gram matrices of M^T (s B1 + t B2) M against diag(f_1, ..., f_r).
    The first mismatch, row by row, is named."""
    field = pencil.field
    zero = (field.zero, field.zero)
    want = {i: (f.coefficient((1, 0)), f.coefficient((0, 1))) for i, f in enumerate(diag.factors)}
    where = next(
        ((i, j) for i in range(conj.dim) for j in range(conj.dim)
         if (conj.b1[i][j], conj.b2[i][j]) != (want.get(i) if i == j else zero)),
        None,
    )
    if where is not None:
        raise PencilError(f"diagonalization verification failed at entry {where}")
