"""Knorrer matrix factorizations and explicit Ulrich modules.

The pipeline: the recursive rank-2^n factorization of sum x_i y_i, the mixed
product identity, isotropic substitution along a skew matrix, the resulting
linear presentation A = (A1 | A2) with its exact annihilator certificates,
hyperplane restriction hitting a prescribed set of discriminant roots, and
the Artinian Hilbert-function certificate of the Ulrich property.

Root convention, frozen: ``ulrich_for_roots_*`` produce pencils whose
discriminant roots are exactly the requested targets.  The ambient diagonal
construction needs square roots d_i with d_i^2 = a_i for the targets fed to
the x_i y_i blocks.  ``solve_b_for_roots`` works with factors (s + a), so the
pipeline hands it negated values; ``restricted_hessian``, with the same
convention, is a derivation check that only the tests run.
"""

from __future__ import annotations

import random

from . import binary, graded, linalg
from .fields import Field, NotASquare
from .pencil import QuadricPencil, simultaneous_diagonalize, smoothness_check
from .poly import Poly, PolyError
from .polymatrix import PolyMatrix


class UlrichError(ValueError):
    pass


def xy_variables(n: int):
    return tuple([f"x{i}" for i in range(n + 1)] + [f"y{i}" for i in range(n + 1)])


def knorrer_pair(field: Field, n: int, verify: bool = True):
    """The recursive 2^n factorization (phi_n, psi_n) of q = sum x_i y_i.

    Returns (phi, psi, q).  The defining identity phi @ psi = psi @ phi = q*id
    is checked exactly unless verify is disabled.
    """
    if n < 0:
        raise UlrichError("n must be nonnegative")
    names = xy_variables(n)
    xs = [Poly.variable(field, names, f"x{i}") for i in range(n + 1)]
    ys = [Poly.variable(field, names, f"y{i}") for i in range(n + 1)]
    phi = PolyMatrix(field, names, [[xs[0]]])
    psi = PolyMatrix(field, names, [[ys[0]]])
    for k in range(1, n + 1):
        size = phi.nrows
        xk = PolyMatrix.scalar_matrix(field, names, xs[k], size)
        yk = PolyMatrix.scalar_matrix(field, names, ys[k], size)
        neg_yk = yk.scale_scalar(field.of(-1))
        neg_xk = xk.scale_scalar(field.of(-1))
        phi_next = xk.hstack(phi).vstack(psi.hstack(neg_yk))
        psi_next = yk.hstack(phi).vstack(psi.hstack(neg_xk))
        phi, psi = phi_next, psi_next
    q = Poly.zero(field, names)
    for x, y in zip(xs, ys):
        q = q + x * y
    if verify:
        qid = PolyMatrix.scalar_matrix(field, names, q, 2**n)
        if phi @ psi != qid or psi @ phi != qid:
            raise UlrichError("internal error: Knorrer identity failed")
    return phi, psi, q


def mixed_identity_check(field: Field, n: int) -> bool:
    """A(x,y) B(v,w) + A(v,w) B(x,y) = (sum x_i w_i + y_i v_i) * id, exactly."""
    phi, psi, _ = knorrer_pair(field, n, verify=False)
    names = tuple(
        [f"x{i}" for i in range(n + 1)]
        + [f"y{i}" for i in range(n + 1)]
        + [f"v{i}" for i in range(n + 1)]
        + [f"w{i}" for i in range(n + 1)]
    )
    # (x|y) -> (x|y) and (x|y) -> (v|w) in the ring of all four blocks
    xy = xy_variables(n)
    eye = [[int(i == k) for k in range(len(names))] for i in range(len(names))]
    lift = _linear_images(field, eye[: len(xy)], xy, names)
    to_vw = _linear_images(field, eye[len(xy) :], xy, names)
    a_xy = phi.substitute(lift, names)
    b_xy = psi.substitute(lift, names)
    a_vw = phi.substitute(to_vw, names)
    b_vw = psi.substitute(to_vw, names)
    qt = Poly.zero(field, names)
    for i in range(n + 1):
        qt = (
            qt
            + Poly.variable(field, names, f"x{i}") * Poly.variable(field, names, f"w{i}")
            + Poly.variable(field, names, f"y{i}") * Poly.variable(field, names, f"v{i}")
        )
    lhs = (a_xy @ b_vw) + (a_vw @ b_xy)
    return lhs == PolyMatrix.scalar_matrix(field, names, qt, 2**n)


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

    The identity (x|y) G (y|x)^T = (y|x) Lambda (y|x)^T = 0 is expanded as an
    exact polynomial identity before returning.
    """
    size = check_skew(field, lam)
    if size % 2:
        raise UlrichError("skew matrix must have even size 2(n+1)")
    half = size // 2
    g = [list(lam[half + i]) if i < half else list(lam[i - half]) for i in range(size)]
    names = xy_variables(half - 1)
    # ell_k, the k-th entry of (x|y) G, has row k of G^T as coefficients
    ells = _linear_images(field, list(zip(*g)), names, names)
    yx = names[half:] + names[:half]
    acc = Poly.zero(field, names)
    for ell, v in zip(ells.values(), yx):
        acc = acc + ell * Poly.variable(field, names, v)
    if not acc.is_zero():
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


def _linear_images(field, m, variables, new_variables) -> dict:
    """Images of the variables under the linear change of variables x = M z.

    Row j of the scalar matrix M holds the coefficients of the image of
    variables[j] in new_variables: x_j -> sum_k M[j][k] z_k.
    """
    width = len(new_variables)
    units = [tuple(int(i == k) for i in range(width)) for k in range(width)]
    return {
        v: Poly.from_pairs(field, new_variables, zip(units, row, strict=True))
        for v, row in zip(variables, m, strict=True)
    }


class UlrichCandidate:
    """A linear presentation with exact annihilator certificates.

    presentation: r x 2r linear matrix A; second_map B' with A @ B' = 0;
    cert1, cert2 with A @ cert_l = q_l * id.  All three identities are
    verified on construction.
    """

    def __init__(
        self,
        field: Field,
        variables,
        n: int,
        q1: Poly,
        q2: Poly,
        presentation: PolyMatrix,
        second_map: PolyMatrix,
        cert1: PolyMatrix,
        cert2: PolyMatrix,
        dvals=None,
        provenance="",
    ):
        self.field = field
        self.variables = tuple(variables)
        self.n = n
        self.q1 = q1
        self.q2 = q2
        self.presentation = presentation
        self.second_map = second_map
        self.cert1 = cert1
        self.cert2 = cert2
        self.dvals = list(dvals) if dvals is not None else None
        self.provenance = provenance
        self.verification: dict = {}
        ok, detail = self.verify_certificates()
        if not ok:
            raise UlrichError(f"candidate certificates failed: {detail}")

    @property
    def generators(self) -> int:
        return self.presentation.nrows

    def verify_certificates(self):
        """A @ B' = 0 and A @ C_l = q_l id, recomputed exactly."""
        a = self.presentation
        r = a.nrows
        if not (r > 0 and r.bit_length() == self.n + 1 and r == 1 << self.n):
            return False, f"presentation has {r} rows, expected 2^n for n = {self.n}"
        if a.ncols != 2 * r:
            return False, f"presentation is {a.nrows}x{a.ncols}, expected r x 2r"
        prod = a @ self.second_map
        zero = PolyMatrix.zero(self.field, self.variables, prod.nrows, prod.ncols)
        where = prod.first_mismatch(zero)
        if where is not None:
            return False, f"A @ B' != 0 at entry {where}"
        for q, cert, name in ((self.q1, self.cert1, "q1"), (self.q2, self.cert2, "q2")):
            want = PolyMatrix.scalar_matrix(self.field, self.variables, q, r)
            where = (a @ cert).first_mismatch(want)
            if where is not None:
                return False, f"A @ C != {name} * id at entry {where}"
        for i in range(a.nrows):
            for j in range(a.ncols):
                p = a.entry(i, j)
                if not p.is_zero() and (not p.is_homogeneous() or p.homogeneous_degree() != 1):
                    return False, f"presentation entry ({i},{j}) is not linear"
        self.verification["certificates"] = "pass"
        return True, "ok"

    def pencil(self) -> QuadricPencil:
        return QuadricPencil.from_quadrics(self.q1, self.q2)

    def substitute(self, images: dict, new_variables, provenance="") -> "UlrichCandidate":
        """Apply a linear change of variables to every matrix and quadric."""
        target = tuple(new_variables)
        return UlrichCandidate(
            self.field,
            target,
            self.n,
            self.q1.substitute(images, target),
            self.q2.substitute(images, target),
            self.presentation.substitute(images, target),
            self.second_map.substitute(images, target),
            self.cert1.substitute(images, target),
            self.cert2.substitute(images, target),
            dvals=self.dvals,
            provenance=provenance or self.provenance,
        )

    def to_json(self) -> dict:
        data = {
            "field": self.field.name,
            "variables": list(self.variables),
            "n": self.n,
            "q1": self.q1.to_json(),
            "q2": self.q2.to_json(),
            "presentation": self.presentation.to_json(),
            "second_map": self.second_map.to_json(),
            "cert_q1": self.cert1.to_json(),
            "cert_q2": self.cert2.to_json(),
            "verification": {k: v for k, v in sorted(self.verification.items())},
            "provenance": self.provenance,
        }
        if self.dvals is not None:
            data["d_values"] = [int(d) for d in self.dvals]
        return data

    @staticmethod
    def from_json(data: dict) -> "UlrichCandidate":
        from .fields import field_from_name

        # a plain ValueError: malformed input is not a failed verification
        if not isinstance(data, dict):
            raise ValueError(f"candidate must be a JSON object, not {type(data).__name__}")
        for key in ("field", "variables", "n", "q1", "q2", "presentation", "second_map",
                    "cert_q1", "cert_q2"):
            if key not in data:
                raise ValueError(f"candidate has no {key!r} key")
        field = field_from_name(data["field"])
        variables = data["variables"]
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise ValueError(
                "candidate key 'variables' must be a list of variable names, "
                f"not {type(variables).__name__}"
            )
        variables = tuple(variables)
        n, dvals = data["n"], data.get("d_values")
        if type(n) is not int:
            raise ValueError(f"candidate key 'n' must be an integer, not {type(n).__name__}")
        if dvals is not None and not (
            isinstance(dvals, list) and len(dvals) == n + 1 and all(type(d) is int for d in dvals)
        ):
            raise ValueError(f"candidate key 'd_values' must be null or a list of n + 1 = "
                             f"{n + 1} integers")

        def load(key, kind):
            try:
                return kind.from_json(field, variables, data[key])
            except PolyError as exc:
                raise PolyError(f"candidate key {key!r}: {exc}") from None

        return UlrichCandidate(
            field,
            variables,
            n,
            load("q1", Poly),
            load("q2", Poly),
            load("presentation", PolyMatrix),
            load("second_map", PolyMatrix),
            load("cert_q1", PolyMatrix),
            load("cert_q2", PolyMatrix),
            dvals=dvals,
            provenance=data.get("provenance", ""),
        )


def build_candidate(field: Field, n: int, lam) -> UlrichCandidate:
    """A = (A1 | A2) from the Knorrer pair and its isotropic substitute.

    Requires n >= 2 (the module rank 2^(n-2) must be a positive integer) and
    a skew lam whose quadric q2 is neither zero nor proportional to q1.
    """
    if n < 2:
        raise UlrichError("n must be at least 2: the module rank 2^(n-2) is not integral")
    phi, psi, q1 = knorrer_pair(field, n)
    names = xy_variables(n)
    g = g_lambda(field, lam)
    if len(lam) != 2 * (n + 1):
        raise UlrichError(f"skew matrix must have size {2 * (n + 1)}")
    # (x|y) -> (x|y) G: variable k maps to column k of G
    images = _linear_images(field, list(zip(*g)), names, names)
    a2 = phi.substitute(images, names)
    b2 = psi.substitute(images, names)
    q2 = q1.substitute(images, names)
    if q2.is_zero():
        raise UlrichError("degenerate substitution: q2 = 0")
    if _proportional_quadrics(field, q1, q2):
        raise UlrichError("degenerate substitution: q2 proportional to q1")
    size = 2**n
    zero = PolyMatrix.zero(field, names, size, size)
    presentation = phi.hstack(a2)
    second = b2.vstack(psi)
    cert1 = psi.vstack(zero)
    cert2 = zero.vstack(b2)
    dvals = _diagonal_of(field, lam)
    return UlrichCandidate(
        field,
        names,
        n,
        q1,
        q2,
        presentation,
        second,
        cert1,
        cert2,
        dvals=dvals,
        provenance=f"build_candidate(n={n})",
    )


def _diagonal_of(field, lam):
    """Recover D when lam = [[0, D], [-D, 0]] with diagonal D, else None."""
    size = len(lam)
    half = size // 2
    dvals = []
    for i in range(half):
        for j in range(half):
            expected_zero = (
                lam[i][j],
                lam[half + i][half + j],
            )
            if any(not field.is_zero(v) for v in expected_zero):
                return None
            if i != j and (
                not field.is_zero(lam[i][half + j]) or not field.is_zero(lam[half + i][j])
            ):
                return None
        dvals.append(lam[i][half + i])
    return dvals


def _proportional_quadrics(field, q1, q2) -> bool:
    """q2 = c q1 for some scalar c, for nonzero q1 and q2."""
    exp, c1 = next(iter(q1.terms.items()))
    return q2 == q1.scale(field.div(q2.coefficient(exp), c1))


def jacobian_check(candidate: UlrichCandidate, seed: int = 0, samples: int = 5):
    """Isolated-singularity evidence for a diagonal-Lambda candidate.

    Verifies that the squares d_i^2 are pairwise distinct, then samples
    points of V(q1, q2) away from the coordinate points and checks that the
    2x2 minors of the Jacobian do not vanish simultaneously.
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
    names = candidate.variables
    m = len(candidate.dvals)
    # the gradient of q = x^T B x is 2 B x, with B from pencil.bilinear_matrix
    pencil = candidate.pencil()
    gradients = [
        _linear_images(field, [[field.add(c, c) for c in row] for row in b], names, names)
        for b in (pencil.b1, pencil.b2)
    ]
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
        point = dict(zip(names, list(xs) + list(ys)))
        nonzero = sum(1 for v in point.values() if not field.is_zero(v))
        if nonzero <= 1:
            continue  # coordinate point: singular by design
        if not field.is_zero(candidate.q1.evaluate(point)) or not field.is_zero(
            candidate.q2.evaluate(point)
        ):
            continue
        row1 = [p.evaluate(point) for p in gradients[0].values()]
        row2 = [p.evaluate(point) for p in gradients[1].values()]
        minor_found = False
        for i in range(len(row1)):
            for j in range(i + 1, len(row1)):
                det = field.sub(
                    field.mul(row1[i], row2[j]), field.mul(row1[j], row2[i])
                )
                if not field.is_zero(det):
                    minor_found = True
                    break
            if minor_found:
                break
        if not minor_found:
            return False, f"all 2x2 Jacobian minors vanish at a sampled smooth point"
        found += 1
    if found < samples:
        return False, f"could only sample {found} of {samples} points"
    return True, f"d_i^2 pairwise distinct; {found} sampled points pass the minor test"


def _field_size(field) -> int:
    return field.p if hasattr(field, "p") else 2**20


def elementary_symmetric(field, values, k: int):
    """e_k of the values, by the standard in-place recursion."""
    if k < 0 or k > len(values):
        return field.zero
    e = [field.one] + [field.zero] * len(values)
    count = 0
    for v in values:
        count += 1
        for i in range(count, 0, -1):
            e[i] = field.add(e[i], field.mul(v, e[i - 1]))
    return e[k]


def symmetric_matrix_e(field, a_vals):
    """E with row i listing the coefficients of prod_{j != i}(X + a_j), X^n .. X^0."""
    n = len(a_vals) - 1
    rows = []
    for i in range(n + 1):
        others = [field.of(v) for k, v in enumerate(a_vals) if k != i]
        rows.append([elementary_symmetric(field, others, k) for k in range(n + 1)])
    return rows


def vandermonde_product(field, a_vals):
    acc = field.one
    for i in range(len(a_vals)):
        for j in range(i + 1, len(a_vals)):
            acc = field.mul(acc, field.sub(field.of(a_vals[i]), field.of(a_vals[j])))
    return acc


def solve_b_for_roots(field, a_vals, c_vals):
    """Restriction row b making the chart polynomial h equal prod (X + c_i).

    a_vals has length n+1, c_vals length n; all 2n+1 values must be distinct
    and nonzero.  Solves u E = coefficients(h) and splits u into the b row:
    b_i = u_i and b_{n+1+i} = 1 for i < n, b_n = -u_n.
    """
    n = len(a_vals) - 1
    if len(c_vals) != n:
        raise UlrichError("expected n+1 chart values and n complementary values")
    pool = [field.of(v) for v in list(a_vals) + list(c_vals)]
    if len(set(pool)) != len(pool):
        raise UlrichError("target values must be pairwise distinct")
    if any(field.is_zero(v) for v in pool):
        raise UlrichError("target values must be nonzero")
    e_matrix = symmetric_matrix_e(field, a_vals)
    det_e = linalg.det(field, e_matrix)
    if det_e != vandermonde_product(field, a_vals):
        raise UlrichError("internal error: det E != Vandermonde product")
    if field.is_zero(det_e):
        raise UlrichError("internal error: E singular despite distinct values")
    cs = [field.of(v) for v in c_vals]
    target = [elementary_symmetric(field, cs, k) for k in range(n + 1)]
    e_t = [list(row) for row in zip(*e_matrix)]
    u = linalg.solve(field, e_t, target, n + 1)
    if u is None:
        raise UlrichError("internal error: E-solve failed")
    b = [field.zero] * (2 * n + 1)
    for i in range(n):
        b[i] = u[i]
        b[n + 1 + i] = field.one
    b[n] = field.neg(u[n])
    return b


def restriction_matrix(field, b):
    """B: identity of size 2n+1 stacked over the row b."""
    m = len(b)
    rows = [[field.one if i == j else field.zero for j in range(m)] for i in range(m)]
    rows.append(list(b))
    return rows


def restricted_hessian(field, a_vals, b):
    """B^T H B for H = [[0, D'], [D', 0]], D' = diag(s + a_i t), and its factorization.

    Returns (matrix, det, h) with det = (-1)^(n+1) 2 h prod(s + a_i t)
    verified by exact division; a division failure is an implementation
    fault and raises.  (The sign exponent is n+1, pinned by expanding the
    n = 1 case by hand: the determinant there is +2 h l_0 l_1.)  The
    closed symmetric-function form of h is asserted as well.
    """
    n = len(a_vals) - 1
    if len(b) != 2 * n + 1:
        raise UlrichError("b must have length 2n+1")
    ells = [binary.linear_form(field, 1, field.of(a)) for a in a_vals]
    zero = Poly.zero(field, binary.ST)
    size = 2 * (n + 1)
    h_entries = [[zero] * size for _ in range(size)]
    for i in range(n + 1):
        h_entries[i][n + 1 + i] = ells[i]
        h_entries[n + 1 + i][i] = ells[i]
    h_mat = PolyMatrix(field, binary.ST, h_entries)
    b_rows = restriction_matrix(field, b)
    b_mat = PolyMatrix.from_scalars(field, binary.ST, b_rows)
    restricted = b_mat.transpose() @ h_mat @ b_mat
    restricted = restricted.relabel(
        row_degrees=[0] * (2 * n + 1), col_degrees=[1] * (2 * n + 1)
    )
    det = restricted.determinant()
    ell_prod = Poly.const(field, binary.ST, 1)
    for ell in ells:
        ell_prod = ell_prod * ell
    scale = field.mul(field.of((-1) ** (n + 1)), field.of(2))
    if det.is_zero():
        h = Poly.zero(field, binary.ST)
    else:
        h = det.divexact(ell_prod.scale(scale))
    h_formula = Poly.zero(field, binary.ST)
    for i in range(n):
        partial = Poly.const(field, binary.ST, field.mul(b[i], b[i + n + 1]))
        for j in range(n + 1):
            if j != i:
                partial = partial * ells[j]
        h_formula = h_formula + partial
    partial = Poly.const(field, binary.ST, field.neg(b[n]))
    for j in range(n):
        partial = partial * ells[j]
    h_formula = h_formula + partial
    if h != h_formula:
        raise UlrichError("internal error: extracted h disagrees with the closed formula")
    return restricted, det, h


def restriction_images(field, b, z_names=None):
    """Variable images for (x|y) = B z with z the 2n+1 restricted coordinates."""
    n = (len(b) - 1) // 2
    if z_names is None:
        z_names = tuple(f"z{k}" for k in range(2 * n + 1))
    images = _linear_images(field, restriction_matrix(field, b), xy_variables(n), z_names)
    return images, z_names


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
        raise NotASquare(
            f"{exc}; the first n+1 targets must be squares: reorder targets or "
            "change the prime"
        ) from exc
    lam = diagonal_lambda(field, dvals)
    ambient = build_candidate(field, n, lam)
    # chart machinery runs on negated values: ell_i = s + (-a_i) t has root a_i
    neg_a = [field.neg(v) for v in a_targets]
    neg_c = [field.neg(v) for v in c_targets]
    b = solve_b_for_roots(field, neg_a, neg_c)
    images, z_names = restriction_images(field, b)
    candidate = ambient.substitute(
        images, z_names, provenance=f"ulrich_for_roots_odd_ambient(n={n})"
    )
    targets = list(a_targets) + list(c_targets)
    _verify_restricted(candidate, targets, seed)
    return candidate


def _verify_restricted(candidate: UlrichCandidate, targets, seed) -> None:
    field = candidate.field
    p = candidate.pencil()
    disc = p.discriminant()
    found, inf_mult, splits = binary.roots(disc)
    root_multiset = sorted(
        (lam for lam, mult in found for _ in range(mult)), key=binary.root_sort_key
    )
    want = sorted((field.of(t) for t in targets), key=binary.root_sort_key)
    if inf_mult or not splits or root_multiset != want:
        raise UlrichError(
            f"discriminant roots {root_multiset} differ from targets {want}"
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


def fresh_root_for(field, targets, needed_squares: int):
    """Smallest positive field element outside targets, square if required."""
    taken = {field.of(t) for t in targets}
    square_count = sum(1 for t in taken if _is_square(field, t))
    need_square = square_count < needed_squares
    k = 1
    while True:
        cand = field.of(k)
        if cand not in taken and not field.is_zero(cand):
            if not need_square or _is_square(field, cand):
                return cand
        k += 1
        if k > 10**6:
            raise UlrichError("could not find a fresh root in the field")


def _is_square(field, v):
    try:
        field.sqrt(v)
        return True
    except NotASquare:
        return False


def ulrich_for_roots_even_ambient(field, targets, seed: int = 0) -> UlrichCandidate:
    """Rank 2^(g-1) Ulrich candidate on the (2g+2)-variable pencil with given roots.

    Runs the odd-ambient pipeline one dimension up with a fresh extra root,
    diagonalizes the restricted pencil, and sets the coordinate of the fresh
    root to zero.  The resulting pencil has exactly the 2g+2 targets as
    discriminant roots; all certificates are re-verified on the restriction.
    """
    targets = [field.of(t) for t in targets]
    if len(targets) % 2:
        raise UlrichError("even-ambient pipeline needs an even number of targets")
    g = len(targets) // 2 - 1
    if g < 1:
        raise UlrichError("need at least 4 targets (genus >= 1)")
    n = g + 1
    fresh = fresh_root_for(field, targets, needed_squares=n + 1)
    pool = targets + [fresh]
    squares = [t for t in pool if _is_square(field, t)]
    non_squares = [t for t in pool if not _is_square(field, t)]
    if len(squares) < n + 1:
        raise UlrichError(
            f"need {n + 1} square targets for the chart roots, found {len(squares)}: "
            "change the prime or the targets"
        )
    a_targets = squares[: n + 1]
    c_targets = squares[n + 1 :] + non_squares
    odd_candidate = ulrich_for_roots_odd_ambient(field, a_targets, c_targets, seed)
    diag = simultaneous_diagonalize(odd_candidate.pencil())
    # locate the diagonal coordinate carrying the fresh root
    roots = [_factor_root(field, factor) for factor in diag.factors]
    if fresh not in roots:
        raise UlrichError("fresh root not found among diagonal factors")
    idx_fresh = roots.index(fresh)
    # x = M w with M the diagonalizing basis less the fresh root's column
    m = [row[:idx_fresh] + row[idx_fresh + 1 :] for row in diag.basis]
    new_names = tuple(f"w{k}" for k in range(len(m[0])))
    images = _linear_images(field, m, odd_candidate.variables, new_names)
    candidate = odd_candidate.substitute(
        images, new_names, provenance=f"ulrich_for_roots_even_ambient(g={g})"
    )
    candidate.verification["fresh_root"] = str(fresh)
    _verify_restricted(candidate, targets, seed)
    return candidate


def _factor_root(field, factor: Poly):
    alpha = factor.coefficient((1, 0))
    beta = factor.coefficient((0, 1))
    if field.is_zero(alpha):
        raise UlrichError("factor has its root at infinity")
    return field.neg(field.div(beta, alpha))


def artinian_hilbert_check(candidate: UlrichCandidate, trials: int = 3, seed: int = 0):
    """Hilbert-function certificate: specialize to two variables and check (r,0,0,0).

    Each trial substitutes all but two variables by random linear forms in
    the survivors, demands the Artinian ring k[u,v]/(Q1,Q2) to have graded
    dimensions 1,2,1,0 (retrying with fresh randomness otherwise), and then
    computes the cokernel dimensions of the specialized presentation.
    """
    field = candidate.field
    rng = random.Random(seed)
    r = candidate.generators
    uv = ("u", "v")
    lines = []
    size = _field_size(field)
    for trial in range(trials):
        ring_ok = False
        for attempt in range(25):
            # random u, v coefficients for all but the last two variables
            m = [[rng.randrange(size), rng.randrange(size)] for _ in candidate.variables[:-2]]
            images = _linear_images(field, m + [[1, 0], [0, 1]], candidate.variables, uv)
            q1 = candidate.q1.substitute(images, uv)
            q2 = candidate.q2.substitute(images, uv)
            if q1.is_zero() or q2.is_zero():
                continue
            ring_dims = graded.graded_quotient_dims(field, uv, [q1, q2], range(4))
            if ring_dims == [1, 2, 1, 0]:
                ring_ok = True
                break
        if not ring_ok:
            return False, f"trial {trial}: no Artinian specialization found"
        a_sub = candidate.presentation.substitute(images, uv)
        gens = [list(a_sub.column(j)) for j in range(a_sub.ncols)]
        for q in (q1, q2):
            for i in range(r):
                vec = [Poly.zero(field, uv)] * r
                vec[i] = q
                gens.append(vec)
        dims = graded.graded_quotient_dims(field, uv, gens, range(4), rank=r)
        expected = [r, 0, 0, 0]
        lines.append(f"trial {trial}: coker dims {dims}")
        if dims != expected:
            return False, "; ".join(lines + [f"expected {expected}"])
    return True, "; ".join(lines + [f"pass: ({r},0,0,0) on {trials} trials"])
