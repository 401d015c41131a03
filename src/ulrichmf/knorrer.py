"""Knorrer matrix factorizations and explicit Ulrich modules.

The pipeline: the recursive rank-2^n factorization of sum x_i y_i, the mixed
product identity, isotropic substitution along a skew matrix, the resulting
linear presentation A = (A1 | A2) with its exact annihilator certificates,
hyperplane restriction hitting a prescribed set of discriminant roots, and
the Artinian Hilbert-function certificate of the Ulrich property.

The matrices of an Ulrich candidate are linear, each stored as its
coefficient tensor T of shape (V, rows, cols), T[k] the scalar matrix of
the k-th variable.  A change of variables x = M z is one scalar product,
T'[k] = sum_j M[j][k] T[j].  Entry (i, j) of A B has coefficient
(A_k B_l + A_l B_k)[i][j] on x_k x_l (k < l) and (A_k B_k)[i][j] on x_k^2,
so, p being odd, A B' = 0 iff A_k B'_l + A_l B'_k = 0 for all k <= l, and
A C = q id iff A_k C_l + A_l C_k = 2 S[k][l] id for q = x^T S x: all the
A_k B_l come from A stacked by rows times B stacked by columns, in blocks
of variables that bound its memory.  Each variable's matrix in the Knorrer
pair is a signed partial permutation, and the pair is built as one in index
arrays, unchecked: ``build_candidate`` scatters it into tensors under the
ambient certificate, and ``suite knorrer`` checks phi @ psi = q id by
composing the permutations.  The mixed identity is checked on the pair's
tensors.  A candidate holds q1 and q2 once, as the Gram matrices of its
pencil: the certificates compare A C_l with 2 S_l id, and a change of
variables is the congruence M^T S M of ``QuadricPencil.congruence``.  Each
pipeline changes the variables of its ambient presentation once, unchecked,
and verifies the candidate it emits.  Both diagonalize the restricted pencil
by the closed-form basis of ``hyperbolic_restriction_basis``, certified by
the congruence, which fills its discriminant; the even pipeline reads the
emitted pencil off that diagonalization.  q1 and q2 go to JSON and back as Gram
matrices (``pencil.quadric_json``, ``pencil.quadric_terms``), the Jacobian
check reads q_l(x) off the gradient 2 S_l x, and only a failing Hilbert
transcript builds them as polynomials, binary ones in two variables.  The
matrices go to JSON and back as tensors (``tensor_json``,
``tensor_from_json``).

Root convention, frozen: ``ulrich_for_roots_*`` produce pencils whose
discriminant roots are exactly the requested targets.  The ambient diagonal
construction needs square roots d_i with d_i^2 = a_i for the targets fed to
the x_i y_i blocks.  ``solve_b_for_roots`` works with factors (s + a), so the
pipeline hands it negated values.
"""

from __future__ import annotations

import random

import numpy as np

from . import binary, graded, linalg
from .fields import Field, NotASquare, PrimeField, field_from_name
from .pencil import (QuadricPencil, congruent, gram_matrix, hyperbolic_restriction_basis,
                     quadric_json, quadric_terms, simultaneous_diagonalize, smoothness_check)
from .poly import Poly, PolyError
from .polymatrix import (NotLinearError, substitute_tensors, tensor_from_json, tensor_json,
                         tensor_matrix, tensor_mismatch)


class UlrichError(ValueError):
    pass


def xy_variables(n: int):
    return tuple([f"x{i}" for i in range(n + 1)] + [f"y{i}" for i in range(n + 1)])


def knorrer_pair(field: Field, n: int):
    """The recursive 2^n factorization (phi_n, psi_n) of q = sum x_i y_i.

    Returns (phi, psi, S), unchecked: callers check what they need, through
    ``knorrer_identity_failure`` or a certificate whose product contains
    phi @ psi.  S is the Gram matrix of q = x^T S x, 1/2 at (x_k, y_k) and
    (y_k, x_k).  Each variable's matrix is a signed partial permutation, so
    phi and psi are pairs (cols, signs) of (2n+2) x 2^n integer arrays: row i
    of phi holds signs[k, i] x_k in column cols[k, i], and no x_k term where
    cols[k, i] is -1; the variables are ordered as ``xy_variables(n)``.  Step k
    builds phi_k = [[x_k id, phi], [psi, -y_k id]] and
    psi_k = [[y_k id, phi], [psi, -x_k id]] on the arrays.
    """
    if n < 0:
        raise UlrichError("n must be nonnegative")
    v = 2 * n + 2

    def unit(k):
        cols, signs = np.full((v, 1), -1), np.zeros((v, 1), dtype=np.int64)
        cols[k, 0], signs[k, 0] = 0, 1
        return cols, signs

    def stacked(phi, psi, top, bottom):
        """[[top id, phi], [psi, -bottom id]] for the variables top and bottom."""
        size = phi[0].shape[1]
        cols = np.hstack([np.where(phi[0] < 0, -1, phi[0] + size), psi[0]])
        signs = np.hstack([phi[1], psi[1]])
        cols[top, :size], signs[top, :size] = np.arange(size), 1
        cols[bottom, size:], signs[bottom, size:] = np.arange(size, 2 * size), -1
        return cols, signs

    phi, psi = unit(0), unit(n + 1)
    for k in range(1, n + 1):
        phi, psi = stacked(phi, psi, k, n + 1 + k), stacked(phi, psi, n + 1 + k, k)
    half = field.inv(field.of(2))
    s = [[half if abs(i - j) == n + 1 else field.zero for j in range(v)] for i in range(v)]
    return phi, psi, s


def pair_tensor(field: Field, matrix):
    """The coefficient tensor (V, 2^n, 2^n) of a pair matrix (cols, signs),
    with the dtype and zero of ``linalg.scalar_dtype``."""
    cols, signs = matrix
    v, size = cols.shape
    t = np.full((v, size, size), field.zero, dtype=linalg.scalar_dtype(field))
    k, i = np.nonzero(cols >= 0)
    units = np.array([field.of(-1), field.zero, field.of(1)], dtype=object)
    t[k, i, cols[k, i]] = units[signs[k, i] + 1]
    return t


def knorrer_identity_failure(field: Field, phi, psi):
    """None if phi @ psi = psi @ phi = q * id for q = sum x_i y_i and a pair of
    2^n x 2^n matrices (cols, signs), else the first failing entry of
    phi @ psi, row by row.

    One product suffices: for a square phi over the domain k[vars] and
    q != 0, phi @ psi = q * id gives det phi != 0, hence psi = q * phi^-1
    over the fraction field and psi @ phi = q * id.  The product is composed
    term by term: x_k in column m of row i of phi meets each x_l of row m of
    psi, in column j, and adds the product of their signs to the coefficient
    of x_k x_l in entry (i, j); q * id subtracts 1 from that of each x_a y_a
    in each (j, j).  An entry fails where one of its integer sums is nonzero
    in the field: a sum of 3 is 0 over F_3, as in the polynomial product.
    """
    (phi_cols, phi_signs), (psi_cols, psi_signs) = phi, psi
    v, size = phi_cols.shape
    k, i = np.nonzero(phi_cols >= 0)
    m = phi_cols[k, i]
    l, t = np.nonzero(psi_cols[:, m] >= 0)
    k, i, m = k[t], i[t], m[t]
    half, diagonal = v // 2, np.arange(size) * (size + 1)
    # one key per (i, j, x_a x_b), a <= b, in row-by-row order of (i, j)
    keys = np.concatenate([
        (i * size + psi_cols[l, m]) * v * v + np.minimum(k, l) * v + np.maximum(k, l),
        (diagonal[:, None] * v * v + np.arange(half) * (v + 1) + half).ravel()])
    signs = np.concatenate([phi_signs[k, i] * psi_signs[l, m], np.full(size * half, -1)])
    keys, at = np.unique(keys, return_inverse=True)
    bad = keys[linalg.reduced(field, np.bincount(at, signs).astype(np.int64)) != 0]
    if len(bad) == 0:
        return None
    i, j = divmod(int(bad[0]) // (v * v), size)
    return f"phi @ psi != q*id at entry ({i}, {j})"


def mixed_identity_failure(field: Field, n: int):
    """None if A(x,y) B(v,w) + A(v,w) B(x,y) = (sum x_i w_i + y_i v_i) * id for the
    Knorrer pair (A, B) = (phi_n, psi_n), else the first failing entry.

    With z = (x|y), u = (v|w) and A = sum_k A_k z_k, the left side is the
    polarization sum_{k,l} (A_k B_l + A_l B_k) z_k u_l, and the right side is
    that of q = z^T S z, sum_{k,l} 2 S[k][l] z_k u_l.  Entry (i, j) fails
    exactly where some A_k B_l + A_l B_k differs from 2 S[k][l] id, which is
    what :func:`tensor_mismatch` checks of A @ B against q id.
    """
    phi, psi, s = knorrer_pair(field, n)
    where = tensor_mismatch(field, pair_tensor(field, phi), pair_tensor(field, psi), s)
    return None if where is None else f"A(x,y)B(v,w) + A(v,w)B(x,y) != qt*id at entry {where}"


def check_skew(field: Field, lam) -> int:
    size = len(lam)
    for i in range(size):
        if not field.is_zero(lam[i][i]):
            raise UlrichError("skew matrix must have zero diagonal")
        for j in range(size):
            if not field.is_zero(field.add(lam[i][j], lam[j][i])):
                raise UlrichError("matrix is not skew-symmetric")
    return size


def g_lambda(field: Field, lam) -> list:
    """G = [[0, I], [I, 0]] Lambda, with the isotropy identity verified.

    With P the permutation matrix that swaps x and y, (y|x)^T = P (x|y)^T, so
    (x|y) G (y|x)^T = (y|x) Lambda (y|x)^T is the quadratic form of G P.  p
    is odd, so it is identically zero exactly when G P + (G P)^T = 0, which is
    checked entry by entry before returning.
    """
    size = check_skew(field, lam)
    if size % 2:
        raise UlrichError("skew matrix must have even size 2(n+1)")
    half = size // 2
    g = [list(lam[half + i]) if i < half else list(lam[i - half]) for i in range(size)]
    # row i of G P is row i of G with its x and y halves swapped
    gp = [row[half:] + row[:half] for row in g]
    if any(not field.is_zero(field.add(gp[i][j], gp[j][i]))
           for i in range(size) for j in range(i, size)):
        raise UlrichError("isotropy certificate failed: (x|y)G(y|x) != 0")
    return g


def diagonal_lambda(field: Field, dvals) -> list:
    """Lambda = [[0, D], [-D, 0]] for a diagonal D; G is then diag(-D, D)."""
    m = len(dvals)
    lam = [[field.zero] * (2 * m) for _ in range(2 * m)]
    for i, d in enumerate(dvals):
        d = field.of(d)
        lam[i][m + i] = d
        lam[m + i][i] = field.neg(d)
    return lam


class LinearPresentation:
    """A linear presentation, its second map and its certificate matrices, as
    given: nothing is checked.

    Each matrix is a coefficient tensor T of shape (len(variables), rows,
    cols): T[k] is the scalar matrix of variables[k], so the matrix is
    sum_k T[k] x_k; its scalars are int64 or Python ints over F_p, and over
    Q ints where integral and Fractions elsewhere.  pencil: the
    ``QuadricPencil`` of (q1, q2) in these variables, the one copy of the
    quadrics.  presentation: r x 2r matrix A; second_map B' with A @ B' = 0;
    cert1, cert2 with A @ cert_l = q_l * id.  The ambient presentation of a
    pipeline is one of these: only the candidate it emits is verified.
    """

    def __init__(
        self,
        field: Field,
        variables,
        n: int,
        pencil: QuadricPencil,
        presentation,
        second_map,
        cert1,
        cert2,
        dvals=None,
        provenance="",
    ):
        self.field = field
        self.variables = tuple(variables)
        self.n = n
        self.pencil = pencil
        self.presentation = presentation
        self.second_map = second_map
        self.cert1 = cert1
        self.cert2 = cert2
        self.dvals = list(dvals) if dvals is not None else None
        self.provenance = provenance

    @property
    def generators(self) -> int:
        return self.presentation.shape[1]

    @property
    def tensors(self) -> tuple:
        """A, B', C1 and C2, in the constructor's order."""
        return self.presentation, self.second_map, self.cert1, self.cert2

    def verify_certificates(self):
        """A @ B' = 0 and A @ C_l = q_l id, recomputed exactly."""
        _, r, cols = self.presentation.shape
        if not (r > 0 and r.bit_length() == self.n + 1 and r == 1 << self.n):
            return False, f"presentation has {r} rows, expected 2^n for n = {self.n}"
        if cols != 2 * r:
            return False, f"presentation is {r}x{cols}, expected r x 2r"
        where = tensor_mismatch(self.field, self.presentation, self.second_map)
        if where is not None:
            return False, f"A @ B' != 0 at entry {where}"
        grams = ((self.pencil.b1, self.cert1, "q1"), (self.pencil.b2, self.cert2, "q2"))
        for s, cert, name in grams:
            where = tensor_mismatch(self.field, self.presentation, cert, s)
            if where is not None:
                return False, f"A @ C != {name} * id at entry {where}"
        return True, "ok"

    def _substituted(self, m, new_variables, provenance, pencil=None) -> "UlrichCandidate":
        """The candidate in the coordinates z of x = M z, verified as it is built.

        Row j of the scalar matrix M holds the coefficients of variables[j] in
        new_variables: x_j -> sum_k M[j][k] z_k.  Each matrix is one product
        (``substitute_tensors``).  The pencil is the congruence M^T S M, or,
        when given, a pencil the caller has already proved equal to it.  The
        source is not verified; the ``UlrichCandidate`` constructor checks
        A @ B' = 0 and A @ C_l = q_l id on the result, so a fault in the
        source shows there.
        """
        target = tuple(new_variables)
        tensors = substitute_tensors(self.field, m, self.tensors)
        if pencil is None:
            pencil = self.pencil.congruence(m, target)
        return UlrichCandidate(self.field, target, self.n, pencil, *tensors,
                               dvals=self.dvals, provenance=provenance)


class UlrichCandidate(LinearPresentation):
    """A ``LinearPresentation`` whose three identities A @ B' = 0 and
    A @ C_l = q_l id are verified on construction: what ``build_candidate``
    and the pipelines emit, and what ``from_json`` reads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.verification: dict = {}
        self._require_certificates()

    def _require_certificates(self) -> None:
        ok, detail = self.verify_certificates()
        if not ok:
            raise UlrichError(f"candidate certificates failed: {detail}")
        self.verification["certificates"] = "pass"

    def to_json(self) -> dict:
        data = {
            "field": self.field.name,
            "variables": list(self.variables),
            "n": self.n,
            "q1": quadric_json(self.field, self.pencil.b1),
            "q2": quadric_json(self.field, self.pencil.b2),
            **{key: tensor_json(t) for key, t in zip(MATRIX_KEYS, self.tensors)},
            "verification": {k: v for k, v in sorted(self.verification.items())},
            "provenance": self.provenance,
        }
        if self.dvals is not None:
            data["d_values"] = [int(d) for d in self.dvals]
        return data

    @staticmethod
    def from_json(data: dict) -> "UlrichCandidate":
        # a plain ValueError: malformed input is not a failed verification
        if not isinstance(data, dict):
            raise ValueError(f"candidate must be a JSON object, not {type(data).__name__}")
        for key in ("field", "variables", "n", "q1", "q2", *MATRIX_KEYS):
            if key not in data:
                raise ValueError(f"candidate has no {key!r} key")
        field = field_from_name(data["field"])
        variables = data["variables"]
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise ValueError(
                "candidate key 'variables' must be a list of variable names, "
                f"not {type(variables).__name__}"
            )
        n, dvals = data["n"], data.get("d_values")
        if type(n) is not int:
            raise ValueError(f"candidate key 'n' must be an integer, not {type(n).__name__}")
        if dvals is not None and not (
            isinstance(dvals, list) and len(dvals) == n + 1 and all(type(d) is int for d in dvals)
        ):
            raise ValueError(f"candidate key 'd_values' must be null or a list of n + 1 = "
                             f"{n + 1} integers")

        def load(key, read):
            try:
                value = read(field, variables, data[key])
            except PolyError as exc:
                raise PolyError(f"candidate key {key!r}: {exc}") from None
            except NotLinearError as exc:  # raised once every key is read
                return UlrichError(f"candidate certificates failed: {key} {exc}")
            if value is None:  # a quadric with a term of another degree, likewise
                return UlrichError(f"candidate certificates failed: {key} is not a quadratic form")
            return value

        loaded = [load(key, quadric_terms) for key in ("q1", "q2")]
        loaded += [load(key, tensor_from_json) for key in MATRIX_KEYS]
        for failure in (x for x in loaded if isinstance(x, UlrichError)):
            raise failure
        q1, q2, *tensors = loaded
        pencil = QuadricPencil(field, gram_matrix(field, len(variables), q1),
                               gram_matrix(field, len(variables), q2), variables)
        return UlrichCandidate(field, variables, n, pencil, *tensors, dvals=dvals,
                               provenance=data.get("provenance", ""))


# the JSON keys of the presentation, B', C1 and C2, in the constructor's order
MATRIX_KEYS = ("presentation", "second_map", "cert_q1", "cert_q2")


def build_candidate(field: Field, n: int, lam) -> UlrichCandidate:
    """A = (A1 | A2) from the Knorrer pair and its isotropic substitute,
    verified: the ambient presentation of :func:`_ambient_presentation`."""
    a = _ambient_presentation(field, n, lam)
    return UlrichCandidate(field, a.variables, n, a.pencil, *a.tensors, dvals=a.dvals,
                           provenance=a.provenance)


def _ambient_presentation(field: Field, n: int, lam) -> LinearPresentation:
    """A = (A1 | A2) from the Knorrer pair and its isotropic substitute, unchecked.

    Requires n >= 2 (the module rank 2^(n-2) must be a positive integer) and
    a skew lam whose quadric q2 is neither zero nor proportional to q1.
    """
    if n < 2:
        raise UlrichError("n must be at least 2: the module rank 2^(n-2) is not integral")
    # lam is checked before the 2^n x 2^n pair is built
    g = g_lambda(field, lam)
    if len(lam) != 2 * (n + 1):
        raise UlrichError(f"skew matrix must have size {2 * (n + 1)}")
    # a verified A @ C1 = q1 id covers phi @ psi = q1 id: C1 = (psi; 0), so the
    # top block of A @ C1 is phi @ psi
    phi, psi, s1 = knorrer_pair(field, n)
    names = xy_variables(n)
    # (x|y) -> (x|y) G: variable k maps to column k of G, and q2 has the Gram
    # matrix M^T S1 M of q1's S1
    m = list(zip(*g))
    pencil = QuadricPencil(field, s1, congruent(field, s1, m), names)
    flat1, flat2 = ([c for row in b for c in row] for b in (pencil.b1, pencil.b2))
    if all(field.is_zero(c) for c in flat2):
        raise UlrichError("degenerate substitution: q2 = 0")
    # q1 != 0, so a nonzero q2 is proportional to q1 exactly when S1 and S2 span a line
    if linalg.rank(field, [flat1, flat2], len(flat1)) < 2:
        raise UlrichError("degenerate substitution: q2 proportional to q1")
    phi, psi = pair_tensor(field, phi), pair_tensor(field, psi)
    a2, b2 = substitute_tensors(field, m, (phi, psi))
    zero = np.full_like(phi, field.zero)
    # A = (phi | A2), B' = (B2; psi), C1 = (psi; 0), C2 = (0; B2)
    return LinearPresentation(
        field, names, n, pencil,
        np.concatenate([phi, a2], axis=2), np.concatenate([b2, psi], axis=1),
        np.concatenate([psi, zero], axis=1), np.concatenate([zero, b2], axis=1),
        dvals=_diagonal_of(field, lam), provenance=f"build_candidate(n={n})",
    )


def _diagonal_of(field, lam):
    """Recover D when lam = [[0, D], [-D, 0]] with diagonal D, else None."""
    half = len(lam) // 2
    dvals = [lam[i][half + i] for i in range(half)]
    return dvals if diagonal_lambda(field, dvals) == lam else None


def jacobian_check(candidate: UlrichCandidate, seed: int = 0, samples: int = 5):
    """Isolated-singularity evidence for a diagonal-Lambda candidate.

    Verifies that the squares d_i^2 are pairwise distinct, then samples
    points of V(q1, q2) away from the coordinate points and checks that the
    2x2 minors of the Jacobian do not vanish simultaneously.  The Jacobian
    at x is (2 S_1 x, 2 S_2 x), and x^T (2 S_l x) = 2 q_l(x); p is odd, so x
    lies on V(q1, q2) exactly when both products with x vanish.
    """
    if candidate.dvals is None:
        raise UlrichError("jacobian_check needs a diagonal-Lambda candidate")
    field = candidate.field
    squares = [field.mul(d, d) for d in candidate.dvals]
    for i in range(len(squares)):
        for j in range(i + 1, len(squares)):
            if squares[i] == squares[j]:
                return False, f"d_{i}^2 = d_{j}^2: coordinate singularities collide"
    rng = random.Random(seed)
    m = len(candidate.dvals)
    pencil = candidate.pencil
    doubled = [[field.add(c, c) for c in row] for b in (pencil.b1, pencil.b2) for row in b]
    found = 0
    attempts = 0
    while found < samples and attempts < 40 * samples:
        attempts += 1
        xs = [field.of(rng.randrange(1, _field_size(field))) for _ in range(m)]
        rows = [list(xs), [field.mul(a, x) for a, x in zip(squares, xs)]]
        ns = linalg.nullspace(field, rows, m)
        if not ns:
            continue
        coeffs = [field.of(rng.randrange(_field_size(field))) for _ in ns]
        ys = [field.zero] * m
        for c, vec in zip(coeffs, ns):
            ys = [field.add(y, field.mul(c, v)) for y, v in zip(ys, vec)]
        column = [[v] for v in xs + ys]
        nonzero = sum(1 for (v,) in column if not field.is_zero(v))
        if nonzero <= 1:
            continue  # coordinate point: singular by design
        jac = linalg.matmul(field, doubled, column).reshape(2, -1).tolist()
        if any(not field.is_zero(v) for v in linalg.matmul(field, jac, column).flat):
            continue  # off V(q1, q2)
        if linalg.rank(field, jac) < 2:
            return False, "all 2x2 Jacobian minors vanish at a sampled smooth point"
        found += 1
    if found < samples:
        return False, f"could only sample {found} of {samples} points"
    return True, f"d_i^2 pairwise distinct; {found} sampled points pass the minor test"


def _field_size(field) -> int:
    return field.p if hasattr(field, "p") else 2**20


def solve_b_for_roots(field, a_vals, c_vals):
    """Restriction row b making the chart polynomial h equal prod (X + c_k).

    a_vals has length n+1, c_vals length n; all 2n+1 values must be distinct
    and nonzero.  The u with sum_i u_i prod_{j != i} (X + a_j) = h are read
    off at X = -a_i: u_i = prod_k (c_k - a_i) / prod_{j != i} (a_j - a_i).
    u splits into the b row: b_i = u_i and b_{n+1+i} = 1 for i < n,
    b_n = -u_n.
    """
    n = len(a_vals) - 1
    if len(c_vals) != n:
        raise UlrichError("expected n+1 chart values and n complementary values")
    a_vals = [field.of(v) for v in a_vals]
    c_vals = [field.of(v) for v in c_vals]
    pool = a_vals + c_vals
    if len(set(pool)) != len(pool):
        raise UlrichError("target values must be pairwise distinct")
    if any(field.is_zero(v) for v in pool):
        raise UlrichError("target values must be nonzero")

    def product(values, a):
        out = field.one
        for v in values:
            out = field.mul(out, field.sub(v, a))
        return out

    u = [field.div(product(c_vals, a), product(a_vals[:i] + a_vals[i + 1:], a))
         for i, a in enumerate(a_vals)]
    return u[:n] + [field.neg(u[n])] + [field.one] * n


def restriction_matrix(field, b):
    """B: identity of size 2n+1 stacked over the row b."""
    m = len(b)
    rows = [[field.one if i == j else field.zero for j in range(m)] for i in range(m)]
    rows.append(list(b))
    return rows


def ulrich_for_roots(field, targets, seed: int = 0) -> UlrichCandidate:
    """Ulrich candidate whose pencil has exactly the given discriminant roots.

    2n+1 targets run the odd-ambient pipeline with the first n+1 as chart
    roots (they must be squares); an even number runs the even-ambient one.
    """
    targets = [field.of(v) for v in targets]
    if len(targets) % 2 == 1:
        n = (len(targets) - 1) // 2
        return ulrich_for_roots_odd_ambient(field, targets[: n + 1], targets[n + 1 :], seed=seed)
    return ulrich_for_roots_even_ambient(field, targets, seed=seed)


def ulrich_for_roots_odd_ambient(field, a_targets, c_targets, seed: int = 0) -> UlrichCandidate:
    """Ulrich candidate on a 2n-dimensional projective space with chosen roots.

    a_targets (length n+1) must be squares in the field (they become d_i^2);
    c_targets (length n).  The output candidate lives in 2n+1 variables and
    its pencil discriminant has exactly the 2n+1 targets as roots, verified
    along with the complex certificates, smoothness, and the Artinian
    Hilbert-function certificate.
    """
    ambient, r, diag = _odd_restriction(field, a_targets, c_targets)
    candidate = ambient._substituted(r, diag.pencil.variables,
                                     f"ulrich_for_roots_odd_ambient(n={ambient.n})", diag.pencil)
    _verify_restricted(candidate, [*a_targets, *c_targets], seed)
    return candidate


def _odd_restriction(field, a_targets, c_targets):
    """The ambient presentation of the odd-ambient pipeline, unchecked, its
    restriction matrix R, and the diagonalization of its pencil in the 2n+1
    coordinates z of x = R z from the targets, its discriminant roots, by the
    closed-form basis of ``hyperbolic_restriction_basis``: certified, so the
    restricted pencil's discriminant and roots are filled.  Only the
    candidate a pipeline emits from the presentation is verified."""
    n = len(a_targets) - 1
    if n < 2:
        raise UlrichError("need n >= 2 (at least 3 chart roots)")
    if len(c_targets) != n:
        raise UlrichError(f"expected {n} complementary targets, got {len(c_targets)}")
    a_targets = [field.of(v) for v in a_targets]
    c_targets = [field.of(v) for v in c_targets]
    try:
        dvals = [field.sqrt(a) for a in a_targets]
    except NotASquare as exc:
        advice = " or change the prime" if isinstance(field, PrimeField) else ""
        raise NotASquare(
            f"{exc}; the first n+1 targets must be squares: reorder targets{advice}"
        ) from exc
    lam = diagonal_lambda(field, dvals)
    ambient = _ambient_presentation(field, n, lam)
    # chart machinery runs on negated values: ell_i = s + (-a_i) t has root a_i
    neg_a = [field.neg(v) for v in a_targets]
    neg_c = [field.neg(v) for v in c_targets]
    r = restriction_matrix(field, solve_b_for_roots(field, neg_a, neg_c))
    restricted = ambient.pencil.congruence(r, tuple(f"z{k}" for k in range(2 * n + 1)))
    targets = a_targets + c_targets
    basis = hyperbolic_restriction_basis(field, a_targets, r[-1], targets)
    return ambient, r, simultaneous_diagonalize(restricted, targets, basis)


def _verify_restricted(candidate: UlrichCandidate, targets, seed) -> None:
    field = candidate.field
    p = candidate.pencil
    p.confirm_roots(targets)
    found, inf_mult, splits = p.roots()
    root_multiset = sorted(
        (lam for lam, mult in found for _ in range(mult)), key=binary.root_sort_key
    )
    want = sorted((field.of(t) for t in targets), key=binary.root_sort_key)
    if inf_mult or not splits or root_multiset != want:
        raise UlrichError(
            f"discriminant roots [{', '.join(map(str, root_multiset))}] differ from targets "
            f"[{', '.join(map(str, want))}]"
        )
    smooth, note = smoothness_check(p)
    if not smooth:
        raise UlrichError(f"restricted pencil is not smooth: {note}")
    ok, transcript = artinian_hilbert_check(candidate, trials=3, seed=seed)
    if not ok:
        raise UlrichError(f"Artinian Hilbert certificate failed: {transcript}")
    candidate.verification.update(
        {
            "discriminant_roots": [str(v) for v in root_multiset],
            "smooth": note,
            "hilbert": transcript,
            "seed": seed,
        }
    )


def fresh_root_for(field, targets, needed_squares: int, is_square=None):
    """Smallest positive field element outside targets, square if required.

    Each of 1, 2, ... below the field size (below 2^20 over Q) is tried
    once: over F_p those are the nonzero residues.  is_square(v) says
    whether the field element v is a square, by default ``_is_square``.
    """
    is_square = is_square or (lambda v: _is_square(field, v))
    taken = {field.of(t) for t in targets}
    square_count = sum(1 for t in taken if is_square(t))
    need_square = square_count < needed_squares
    for k in range(1, _field_size(field)):
        cand = field.of(k)
        if cand not in taken and (not need_square or is_square(cand)):
            return cand
    raise UlrichError("could not find a fresh root in the field")


def _is_square(field, v):
    try:
        field.sqrt(v)
        return True
    except NotASquare:
        return False


def ulrich_for_roots_even_ambient(field, targets, seed: int = 0) -> UlrichCandidate:
    """Rank 2^(g-1) Ulrich candidate on the (2g+2)-variable pencil with given roots.

    Takes the odd-ambient pipeline's ambient presentation one dimension up,
    with a fresh extra root, and its restriction matrix R; diagonalizes the
    restricted pencil by a basis M and sets the coordinate of the fresh root
    to zero.  The ambient matrices are substituted once, by R M less that
    column, so no odd-ambient candidate is built.  The emitted pencil is
    read off the diagonalization, which has checked M^T S_R M = diag(f_i)
    exactly: it is (R M')^T S (R M') = M'^T S_R M', the f_i less the fresh
    root's.  Its discriminant roots are exactly the 2g+2 targets, and every
    certificate is verified on the emitted candidate.
    """
    targets = [field.of(t) for t in targets]
    if len(targets) % 2:
        raise UlrichError("even-ambient pipeline needs an even number of targets")
    g = len(targets) // 2 - 1
    if g < 1:
        raise UlrichError("need at least 4 targets (genus >= 1)")
    n = g + 1
    square = {}  # each value of the pool is classified once

    def is_square(v):
        if v not in square:
            square[v] = _is_square(field, v)
        return square[v]

    fresh = fresh_root_for(field, targets, needed_squares=n + 1, is_square=is_square)
    pool = targets + [fresh]
    squares = [t for t in pool if is_square(t)]
    non_squares = [t for t in pool if not is_square(t)]
    if len(squares) < n + 1:
        advice = "the prime or the targets" if isinstance(field, PrimeField) else "the targets"
        raise UlrichError(
            f"need {n + 1} square targets for the chart roots, found {len(squares)}: "
            f"change {advice}"
        )
    a_targets = squares[: n + 1]
    c_targets = squares[n + 1 :] + non_squares
    # the restriction's pencil is diagonalized from its claimed roots, and the
    # emitted pencil is diagonal, so neither discriminant is interpolated
    ambient, r, diag = _odd_restriction(field, a_targets, c_targets)
    # factor i is a_i s + b_i t = a_i (s - lam_i t), a_i != 0, for a claimed root
    # lam_i; the fresh root's coordinate is the one set to zero
    pairs = [(f.coefficient((1, 0)), f.coefficient((0, 1))) for f in diag.factors]
    at = [field.neg(field.div(b, a)) for a, b in pairs].index(fresh)
    del pairs[at]
    # x = R M w with M the diagonalizing basis less the fresh root's column
    m = [row[:at] + row[at + 1 :] for row in diag.basis]
    new_names = tuple(f"w{k}" for k in range(len(m[0])))
    grams = ([[ab[side] if i == j else field.zero for j in range(len(pairs))]
              for i, ab in enumerate(pairs)] for side in (0, 1))
    candidate = ambient._substituted(linalg.matmul(field, r, m).tolist(), new_names,
                                     f"ulrich_for_roots_even_ambient(g={g})",
                                     QuadricPencil(field, *grams, new_names))
    candidate.verification["fresh_root"] = str(fresh)
    _verify_restricted(candidate, targets, seed)
    return candidate


def artinian_hilbert_check(candidate: UlrichCandidate, trials: int = 3, seed: int = 0):
    """Hilbert-function certificate: specialize to two variables and check (r,0,0,0).

    Each trial substitutes all but two variables by random linear forms in
    the survivors (the quadrics by the congruence of the candidate's pencil
    with the V x 2 matrix of the substitution), demands the Artinian ring
    k[u,v]/(Q1,Q2) to have graded dimensions 1,2,1,0 (retrying with fresh
    randomness otherwise), and then computes the cokernel dimensions of the
    specialized presentation with ``_cokernel_dims``.  Every trial is drawn
    first, in that order; then one product substitutes the presentation for
    all of them, and the trials are read in order, so a transcript names the
    first failing trial as a trial-by-trial check would.

    The ring check is a resultant.  With no generator below degree 2,
    degrees 0 and 1 are 1 and 2.  Degree 3 is 0 exactly when u Q1, v Q1,
    u Q2, v Q2 span the 4-dimensional S_3, which makes Q1 and Q2 independent,
    so degree 2 is 3 - 2 = 1.  Those four span S_3 exactly when their 4 x 4
    coordinate matrix, the Sylvester matrix of Q1 and Q2, is invertible, that
    is when the resultant of Q1 and Q2 is nonzero (``_resultant``).  A zero
    quadric makes it 0.
    """
    field = candidate.field
    r = candidate.generators
    drawn, stuck = _specializations(candidate, trials, random.Random(seed))
    if drawn:
        # trial t substitutes by columns 2t and 2t + 1 of this V x 2T matrix
        wide = [[c for m, _ in drawn for c in m[j]] for j in range(len(candidate.variables))]
        (a_uv,) = substitute_tensors(field, wide, (candidate.presentation,))
    lines = []
    expected = [r, 0, 0, 0]
    for trial, (_, specialized) in enumerate(drawn):
        dims = _cokernel_dims(candidate, a_uv[2 * trial : 2 * trial + 2], specialized)
        lines.append(f"trial {trial}: coker dims {dims}")
        if dims != expected:
            return False, "; ".join(lines + [f"expected {expected}"])
    if stuck is not None:
        return False, f"trial {stuck}: no Artinian specialization found"
    return True, "; ".join(lines + [f"pass: ({r},0,0,0) on {trials} trials"])


def _specializations(candidate: UlrichCandidate, trials: int, rng):
    """(drawn, stuck): drawn lists (M, pencil) for the trials in order, M the
    V x 2 matrix of x = M (u, v) and pencil the congruent pencil in (u, v),
    whose ring k[u,v]/(Q1,Q2) is Artinian; stuck is the first trial that
    found none in 25 draws, where the drawing stops, or None.  For each draw
    and each variable but the last two, rng gives the u coefficient, then
    the v one."""
    size = _field_size(candidate.field)
    drawn = []
    for trial in range(trials):
        for _ in range(25):
            m = [[rng.randrange(size), rng.randrange(size)] for _ in candidate.variables[:-2]]
            m += [[1, 0], [0, 1]]
            specialized = candidate.pencil.congruence(m, ("u", "v"))
            if not candidate.field.is_zero(_resultant(candidate.field, specialized)):
                drawn.append((m, specialized))
                break
        else:
            return drawn, trial
    return drawn, None


def _resultant(field, pencil: QuadricPencil):
    """The resultant of the binary quadrics Q_l = a_l u^2 + 2 b_l uv + c_l v^2
    of a pencil in two variables, from the Gram matrices [[a_l, b_l],
    [b_l, c_l]]: (a1 c2 - a2 c1)^2 - 4 (a1 b2 - a2 b1)(b1 c2 - b2 c1), the
    determinant of the Sylvester matrix of Q1 and Q2, exactly."""
    (a1, b1), (_, c1) = pencil.b1
    (a2, b2), (_, c2) = pencil.b2
    mul, sub = field.mul, field.sub
    ac = sub(mul(a1, c2), mul(a2, c1))
    ab = sub(mul(a1, b2), mul(a2, b1))
    bc = sub(mul(b1, c2), mul(b2, c1))
    return sub(mul(ac, ac), mul(field.of(4), mul(ab, bc)))


def _cokernel_dims(candidate: UlrichCandidate, a_uv, specialized: QuadricPencil) -> list:
    """Degrees 0..3 of M = S^r / (columns of A, q1 S^r, q2 S^r) over S = k[u,v],
    for a_uv the tensor of the presentation specialized by x = M (u, v) and
    specialized the pencil of q1 and q2 so specialized.

    M is generated in degree 0, so M_{d+1} = S_1 M_d, and only the 2r linear
    columns of A reach degree 1: there M has dimension 2r minus the rank of
    the 2r x 2r slice of the substituted tensor.  So (r, 0) in degrees 0 and 1
    proves (r, 0, 0, 0); any other answer is recomputed in all four degrees
    for the transcript, and only then are q1 and q2 built as binary forms,
    read off the 2 x 2 Gram matrices [[a, b], [b, c]] as a u^2 + 2b uv + c v^2
    (u, v named s, t).
    """
    field, r = candidate.field, candidate.generators
    # row j holds column j of A, coordinates (i, v) and (i, u): graded.degree_basis
    # order, in which monomial k of degree 1 is u^k v^(1-k)
    degree1 = a_uv[::-1].transpose(2, 1, 0).reshape(2 * r, 2 * r)
    if linalg.rank(field, degree1, 2 * r) == 2 * r:
        return [r, 0, 0, 0]
    quadrics = [binary.binary_form(field, [s[0][0], field.add(s[0][1], s[0][1]), s[1][1]])
                for s in (specialized.b1, specialized.b2)]
    a, zero = tensor_matrix(field, binary.ST, a_uv), Poly.zero(field, binary.ST)
    gens = [list(a.column(j)) for j in range(2 * r)]
    gens += [[q if k == i else zero for k in range(r)] for q in quadrics for i in range(r)]
    return graded.graded_quotient_dims(field, binary.ST, gens, range(4), rank=r)
