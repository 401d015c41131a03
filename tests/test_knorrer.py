import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from ulrichmf import binary, knorrer, linalg, polymatrix
from ulrichmf.fields import NotASquare, QQ, PrimeField
from ulrichmf.pencil import QuadricPencil, simultaneous_diagonalize
from ulrichmf.poly import Poly
from ulrichmf.polymatrix import MatrixError, PolyMatrix, substitute_tensors

from tests.poly_reference import (bilinear_matrix, determinant, divexact, doubled_form,
                                  linear_tensor, pencil_from_quadrics, quadric)
from tests.scalars import assert_field_scalar
from tests.test_polymatrix import substitute_reference

F = PrimeField(10009)


def quadrics(cand):
    """A candidate's q1 and q2 as Polys, written from its pencil by the reference."""
    return quadric(cand.pencil, 1), quadric(cand.pencil, 2)


def linear_images(field, m, variables, new_variables) -> dict:
    """The reference images of the variables under x = M z, as polynomials.

    Row j of the scalar matrix M holds the coefficients of the image of
    variables[j] in new_variables: x_j -> sum_k M[j][k] z_k.
    """
    width = len(new_variables)
    units = [tuple(int(i == k) for i in range(width)) for k in range(width)]
    return {
        v: Poly.from_pairs(field, new_variables, zip(units, row, strict=True))
        for v, row in zip(variables, m, strict=True)
    }


def knorrer_pair_reference(field, n):
    """The replaced builder: (phi, psi, q) as PolyMatrix rows of Polys, step k
    putting phi_k = [[x_k id, phi], [psi, -y_k id]] and
    psi_k = [[y_k id, phi], [psi, -x_k id]] together row by row."""
    names = knorrer.xy_variables(n)
    xs = [Poly.variable(field, names, f"x{i}") for i in range(n + 1)]
    ys = [Poly.variable(field, names, f"y{i}") for i in range(n + 1)]
    zero = Poly.zero(field, names)

    def diagonal(f, i, size):
        return (zero,) * i + (f,) + (zero,) * (size - 1 - i)

    phi, psi = [(xs[0],)], [(ys[0],)]
    for k in range(1, n + 1):
        size, neg_x, neg_y = len(phi), -xs[k], -ys[k]
        phi, psi = (
            [diagonal(xs[k], i, size) + phi[i] for i in range(size)]
            + [psi[i] + diagonal(neg_y, i, size) for i in range(size)],
            [diagonal(ys[k], i, size) + phi[i] for i in range(size)]
            + [psi[i] + diagonal(neg_x, i, size) for i in range(size)],
        )
    q = zero
    for x, y in zip(xs, ys):
        q = q + x * y
    return PolyMatrix(field, names, phi), PolyMatrix(field, names, psi), q


def gram_quadric(field, names, s):
    """The quadric x^T S x of a Gram matrix S, term by term."""
    xs = [Poly.variable(field, names, v) for v in names]
    q = Poly.zero(field, names)
    for i, row in enumerate(s):
        for j, c in enumerate(row):
            q = q + (xs[i] * xs[j]).scale(c)
    return q


def pair_polymatrix(field, matrix):
    """The PolyMatrix of a pair matrix (cols, signs): row i holds signs[k, i] x_k
    in column cols[k, i], term by term."""
    cols, signs = matrix
    v, size = cols.shape
    names = knorrer.xy_variables(v // 2 - 1)
    rows = [[Poly.zero(field, names)] * size for _ in range(size)]
    for k, i in zip(*np.nonzero(cols >= 0)):
        term = Poly.variable(field, names, names[k]).scale(field.of(int(signs[k, i])))
        rows[i][cols[k, i]] = rows[i][cols[k, i]] + term
    return PolyMatrix(field, names, rows)


def polymatrix_pair(field, n):
    """knorrer_pair with phi and psi as PolyMatrix and q as a Poly."""
    phi, psi, s = knorrer.knorrer_pair(field, n)
    q = gram_quadric(field, knorrer.xy_variables(n), s)
    return pair_polymatrix(field, phi), pair_polymatrix(field, psi), q


def knorrer_identity_reference(n, phi, psi, q):
    """The replaced route: the PolyMatrix product phi @ psi against q * id of
    size 2^n, with the first failing entry, row by row."""
    if phi.nrows != phi.ncols or q.is_zero():
        return f"phi is {phi.nrows}x{phi.ncols} with q = {q}: need a square phi and q != 0"
    where = (phi @ psi).first_mismatch(PolyMatrix.scalar_matrix(q.field, q.vars, q, 2**n))
    return None if where is None else f"phi @ psi != q*id at entry {where}"


def test_knorrer_base_case():
    phi, psi, q = polymatrix_pair(QQ, 0)
    names = knorrer.xy_variables(0)
    assert phi.entry(0, 0) == Poly.variable(QQ, names, "x0")
    assert psi.entry(0, 0) == Poly.variable(QQ, names, "y0")
    assert q == Poly.variable(QQ, names, "x0") * Poly.variable(QQ, names, "y0")


def test_knorrer_n1_matrices():
    phi, psi, q = polymatrix_pair(QQ, 1)
    names = knorrer.xy_variables(1)
    x0, x1, y0, y1 = (Poly.variable(QQ, names, v) for v in ("x0", "x1", "y0", "y1"))
    assert phi.entries == ((x1, x0), (y0, -y1))
    assert psi.entries == ((y1, x0), (y0, -x1))
    qid = PolyMatrix.scalar_matrix(QQ, names, q, 2)
    assert phi @ psi == qid


def stacked_knorrer_pair(field, n):
    """The reference: the recursion phi_k = [[x_k id, phi], [psi, -y_k id]],
    psi_k = [[y_k id, phi], [psi, -x_k id]] by whole-matrix stacking."""
    names = knorrer.xy_variables(n)
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
        phi, psi = (vstack(hstack(xk, phi), hstack(psi, neg_yk)),
                    vstack(hstack(yk, phi), hstack(psi, neg_xk)))
    return phi, psi


def hstack(a, b):
    assert a.nrows == b.nrows
    return PolyMatrix(a.field, a.vars, [r1 + r2 for r1, r2 in zip(a.entries, b.entries)])


def vstack(a, b):
    assert a.ncols == b.ncols
    return PolyMatrix(a.field, a.vars, a.entries + b.entries)


@pytest.mark.parametrize("field", [F, PrimeField(2**61 - 1), QQ], ids=str)
def test_row_built_pair_matches_stacked_reference(field):
    for n in range(8):
        phi, psi, q = polymatrix_pair(field, n)
        assert (phi, psi) == stacked_knorrer_pair(field, n), n
        assert (phi, psi, q) == knorrer_pair_reference(field, n), n
        assert (phi.nrows, phi.ncols, psi.nrows, psi.ncols) == (2**n,) * 4
        names = knorrer.xy_variables(n)
        assert q == sum((Poly.variable(field, names, f"x{i}") * Poly.variable(field, names, f"y{i}")
                         for i in range(n + 1)), Poly.zero(field, names))
        # the Gram matrix is the pencil's: the one bilinear_matrix reads off q,
        # in the field's scalars
        s = knorrer.knorrer_pair(field, n)[2]
        assert s == bilinear_matrix(q)
        for c in (c for row in s for c in row):
            assert_field_scalar(field, c)


FIELDS = [PrimeField(3), F, PrimeField(2**61 - 1), QQ]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_pair_tensors_match_the_reference_pair(field):
    for n in range(8):
        pair = knorrer.knorrer_pair(field, n)
        for got, want in zip(pair[:2], knorrer_pair_reference(field, n)):
            got, want = knorrer.pair_tensor(field, got), linear_tensor(want)
            assert got.dtype == want.dtype and got.shape == want.shape, n
            assert (got == want).all(), n
            assert [type(c) for c in got.flat] == [type(c) for c in want.flat], n


def test_knorrer_products_small_n():
    for n in range(0, 5):
        phi, psi, q = polymatrix_pair(F, n)
        qid = PolyMatrix.scalar_matrix(F, knorrer.xy_variables(n), q, 2**n)
        assert phi @ psi == qid
        assert psi @ phi == qid


def with_term(matrix, k, i, col, sign):
    """A copy of a pair matrix whose row i holds sign x_k in column col; col -1
    drops the x_k term of row i."""
    cols, signs = (a.copy() for a in matrix)
    cols[k, i], signs[k, i] = col, sign if col >= 0 else 0
    return cols, signs


def test_knorrer_identity_failure_names_entry():
    phi, psi, s = knorrer.knorrer_pair(F, 2)
    q = gram_quadric(F, knorrer.xy_variables(2), s)
    assert knorrer.knorrer_identity_failure(F, phi, psi) is None
    # entry (1, 2) of psi is y0: flipped, column 2 of the product moves by
    # -2 y0 * (column 1 of phi), first nonzero in row 1
    y0 = knorrer.xy_variables(2).index("y0")
    assert psi[0][y0, 1] == 2 and psi[1][y0, 1] == 1
    broken = with_term(psi, y0, 1, 2, -1)
    assert knorrer.knorrer_identity_failure(F, phi, broken) == "phi @ psi != q*id at entry (1, 2)"
    assert knorrer_identity_reference(2, pair_polymatrix(F, phi), pair_polymatrix(F, broken),
                                      q) == "phi @ psi != q*id at entry (1, 2)"
    # the reference reads its size off n: a 4 x 4 product is not q times the 2 x 2 identity
    phi, psi = pair_polymatrix(F, phi), pair_polymatrix(F, psi)
    assert knorrer_identity_reference(1, phi, psi, q) == "phi @ psi != q*id at entry (0, 2)"


def two_sided_identity_failure(n, phi, psi, q):
    """The reference: both phi @ psi and psi @ phi against q * id."""
    qid = PolyMatrix.scalar_matrix(q.field, q.vars, q, 2**n)
    for name, prod in (("phi @ psi", phi @ psi), ("psi @ phi", psi @ phi)):
        where = prod.first_mismatch(qid)
        if where is not None:
            return f"{name} != q*id at entry {where}"
    return None


@pytest.mark.parametrize("field", [F, QQ], ids=["F10009", "Q"])
def test_one_sided_identity_agrees_with_two_sided(field):
    for n in range(5):
        phi, psi, s = knorrer.knorrer_pair(field, n)
        assert knorrer.knorrer_identity_failure(field, phi, psi) is None
        q = gram_quadric(field, knorrer.xy_variables(n), s)
        assert two_sided_identity_failure(n, pair_polymatrix(field, phi),
                                          pair_polymatrix(field, psi), q) is None


@pytest.mark.parametrize("i, j", [(0, 0), (1, 2), (3, 3)])
def test_one_changed_entry_of_phi_is_caught_by_phi_psi(i, j):
    phi, psi, s = knorrer.knorrer_pair(F, 2)
    q = gram_quadric(F, knorrer.xy_variables(2), s)
    # the first variable with no term in row i of phi gains one in column j
    k = min(np.nonzero(phi[0][:, i] < 0)[0])
    broken = with_term(phi, k, i, j, 1)
    # row i of phi @ psi moves by x_k * (row j of psi), whose first nonzero entry is
    # where the failure is named
    ref_psi = pair_polymatrix(F, psi)
    col = min(c for c in range(ref_psi.ncols) if not ref_psi.entry(j, c).is_zero())
    assert knorrer.knorrer_identity_failure(F, broken, psi) == (
        f"phi @ psi != q*id at entry ({i}, {col})"
    )
    assert two_sided_identity_failure(2, pair_polymatrix(F, broken), ref_psi, q) == (
        f"phi @ psi != q*id at entry ({i}, {col})"
    )


def test_identity_needs_a_square_phi_and_nonzero_q():
    phi, psi, q = polymatrix_pair(F, 1)
    # a 2 x 3 phi with psi 3 x 2 can give phi @ psi = q * id while psi @ phi is 3 x 3;
    # pair matrices are square, so only the reference is given this shape
    wide = PolyMatrix(F, phi.vars, [list(row) + [Poly.zero(F, phi.vars)] for row in phi.entries])
    tall = PolyMatrix(F, psi.vars, [list(row) for row in psi.entries]
                      + [[Poly.zero(F, psi.vars)] * 2])
    assert wide @ tall == PolyMatrix.scalar_matrix(F, phi.vars, q, 2)
    assert knorrer_identity_reference(1, wide, tall, q).startswith("phi is 2x3")
    # with q = 0 a singular phi can have phi @ psi = 0 and psi @ phi != 0
    assert knorrer_identity_reference(1, phi, psi, Poly.zero(F, phi.vars)).endswith(
        "need a square phi and q != 0"
    )
    # the composed check compares with q = sum x_i y_i != 0, on square pair matrices
    pair_phi, pair_psi, _ = knorrer.knorrer_pair(F, 1)
    assert pair_phi[0].shape == pair_psi[0].shape == (4, 2)


def perturbed_pairs(field, seed, count, max_n):
    """(n, phi, psi, S) with one change within the form to phi or psi: a
    flipped sign, a moved column, a dropped entry, or an entry added in an
    empty slot."""
    rng = random.Random(seed)
    for rep in range(count):
        n = rep % (max_n + 1)
        phi, psi, s = knorrer.knorrer_pair(field, n)
        pair = [phi, psi]
        which, size = rng.randrange(2), 2**n
        cols, signs = pair[which]
        kind = rep // (max_n + 1) % 4
        filled = np.argwhere(cols >= 0)
        if kind == 3:
            empty = np.argwhere(cols < 0)
            k, i = empty[rng.randrange(len(empty))]
            change = (i, rng.randrange(size), rng.choice([1, -1]))
        else:
            k, i = filled[rng.randrange(len(filled))]
            change = [(i, cols[k, i], -signs[k, i]),
                      (i, rng.randrange(size), signs[k, i]),
                      (i, -1, 0)][kind]
        pair[which] = with_term(pair[which], k, *change)
        yield n, *pair, s


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_composed_identity_matches_dense_and_polymatrix_routes(field):
    failures = 0
    for n, phi, psi, s in perturbed_pairs(field, field.name, 48, 5):
        got = knorrer.knorrer_identity_failure(field, phi, psi)
        dense = polymatrix.tensor_mismatch(field, knorrer.pair_tensor(field, phi),
                                           knorrer.pair_tensor(field, psi), s)
        ref = knorrer_identity_reference(n, pair_polymatrix(field, phi), pair_polymatrix(field, psi),
                                         gram_quadric(field, knorrer.xy_variables(n), s))
        assert got == ref
        assert got == (None if dense is None else f"phi @ psi != q*id at entry {dense}")
        failures += got is not None
    # a moved column may land where it was
    assert failures >= 40


@pytest.mark.parametrize("field, where", [(PrimeField(3), (1, 1)), (F, (0, 0)), (QQ, (0, 0))],
                         ids=str)
def test_composed_identity_reduces_its_sums_in_the_field(field, where):
    # 2 x 2 matrices in x0, y0: row 0 of phi is -x0 in column 0 and -y0 in
    # column 1, psi maps row 0 to y0 and row 1 to x0 in column 0, so entry
    # (0, 0) of phi @ psi is -2 x0 y0, which is q = x0 y0 over F_3 only; row 1
    # of phi is empty, so (1, 1) fails everywhere
    phi = np.array([[0, -1], [1, -1]]), np.array([[-1, 0], [-1, 0]])
    psi = np.array([[-1, 0], [0, -1]]), np.array([[0, 1], [1, 0]])
    q = Poly.variable(field, ("x0", "y0"), "x0") * Poly.variable(field, ("x0", "y0"), "y0")
    want = f"phi @ psi != q*id at entry {where}"
    assert knorrer.knorrer_identity_failure(field, phi, psi) == want
    assert knorrer_identity_reference(1, pair_polymatrix(field, phi),
                                      pair_polymatrix(field, psi), q) == want


def test_mixed_identity():
    assert knorrer.mixed_identity_failure(QQ, 0) is None
    assert knorrer.mixed_identity_failure(F, 2) is None


def mixed_identity_reference(field, n, phi, psi):
    """The replaced route: A(x,y) B(v,w) + A(v,w) B(x,y) by substitution into
    the ring of all four variable blocks, against (sum x_i w_i + y_i v_i) * id."""
    xy = knorrer.xy_variables(n)
    vw = tuple(f"{c}{i}" for c in "vw" for i in range(n + 1))
    names = xy + vw
    eye = [[int(i == k) for k in range(len(names))] for i in range(len(names))]
    lift = linear_images(field, eye[: len(xy)], xy, names)
    to_vw = linear_images(field, eye[len(xy):], xy, names)
    a_xy, b_xy = (substitute_reference(m, lift, names) for m in (phi, psi))
    a_vw, b_vw = (substitute_reference(m, to_vw, names) for m in (phi, psi))
    var = lambda name: Poly.variable(field, names, name)
    qt = Poly.zero(field, names)
    for i in range(n + 1):
        qt = qt + var(f"x{i}") * var(f"w{i}") + var(f"y{i}") * var(f"v{i}")
    lhs = (a_xy @ b_vw) + (a_vw @ b_xy)
    where = lhs.first_mismatch(PolyMatrix.scalar_matrix(field, names, qt, 2**n))
    return None if where is None else f"A(x,y)B(v,w) + A(v,w)B(x,y) != qt*id at entry {where}"


@pytest.mark.parametrize("field", [F, PrimeField(3), QQ], ids=str)
def test_mixed_identity_matches_the_substitution_route(field, monkeypatch):
    # one change within the form to phi or psi: both routes name the same
    # first failing entry
    failures = 0
    # drawn before knorrer_pair is patched
    for n, phi, psi, s in list(perturbed_pairs(field, field.name, 40, 4)):
        monkeypatch.setattr(knorrer, "knorrer_pair", lambda field, n: (phi, psi, s))
        got = knorrer.mixed_identity_failure(field, n)
        assert got == mixed_identity_reference(field, n, pair_polymatrix(field, phi),
                                               pair_polymatrix(field, psi))
        failures += got is not None
    monkeypatch.undo()
    assert knorrer.mixed_identity_failure(field, 3) is None
    assert failures >= 30


def test_g_lambda_diagonal():
    lam = knorrer.diagonal_lambda(F, [F.of(d) for d in (1, 2, 3)])
    g = knorrer.g_lambda(F, lam)
    # G = diag(-D, D)
    for i, d in enumerate((1, 2, 3)):
        assert g[i][i] == F.neg(F.of(d))
        assert g[3 + i][3 + i] == F.of(d)
    offdiag = [g[i][j] for i in range(6) for j in range(6) if i != j]
    assert all(F.is_zero(v) for v in offdiag)


def test_g_lambda_zero_matrix():
    lam = [[F.zero] * 6 for _ in range(6)]
    g = knorrer.g_lambda(F, lam)
    assert all(all(F.is_zero(v) for v in row) for row in g)


def test_g_lambda_random_skew():
    rng = random.Random(11)
    for _ in range(5):
        size = 6
        lam = [[F.zero] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                val = F.of(rng.randrange(F.p))
                lam[i][j] = val
                lam[j][i] = F.neg(val)
        knorrer.g_lambda(F, lam)  # isotropy certificate raises on failure


def test_g_lambda_rejects_non_skew():
    bad = [[F.one] * 4 for _ in range(4)]
    with pytest.raises(knorrer.UlrichError):
        knorrer.g_lambda(F, bad)


def test_build_candidate_diagonal():
    lam = knorrer.diagonal_lambda(F, [F.of(d) for d in (1, 2, 3)])
    cand = knorrer.build_candidate(F, 2, lam)
    assert cand.presentation.shape == (6, 4, 8)
    assert cand.generators == 4
    assert cand.dvals == [F.of(1), F.of(2), F.of(3)]
    # q2 = -(x0 y0 + 4 x1 y1 + 9 x2 y2)
    names = cand.variables
    expect = Poly.zero(F, names)
    for i, a in enumerate((1, 4, 9)):
        expect = expect + Poly.variable(F, names, f"x{i}") * Poly.variable(
            F, names, f"y{i}"
        ).scale(F.neg(F.of(a)))
    assert quadric(cand.pencil, 2) == expect


def test_build_candidate_rejects_small_n():
    lam = knorrer.diagonal_lambda(F, [F.of(d) for d in (1, 2)])
    with pytest.raises(knorrer.UlrichError):
        knorrer.build_candidate(F, 1, lam)


@pytest.mark.parametrize("n, dvals", [(10, [1]), (3, [1, 2, 3])])
def test_build_candidate_checks_lambda_before_the_pair(monkeypatch, n, dvals):
    def pair_not_expected(field, n):
        raise AssertionError("knorrer_pair built before lambda was checked")

    monkeypatch.setattr(knorrer, "knorrer_pair", pair_not_expected)
    lam = knorrer.diagonal_lambda(F, [F.of(d) for d in dvals])
    with pytest.raises(knorrer.UlrichError, match=f"skew matrix must have size {2 * (n + 1)}"):
        knorrer.build_candidate(F, n, lam)
    lam[0][0] = F.one
    with pytest.raises(knorrer.UlrichError, match="zero diagonal"):
        knorrer.build_candidate(F, n, lam)


def test_build_candidate_rejects_degenerate():
    lam = [[F.zero] * 6 for _ in range(6)]
    with pytest.raises(knorrer.UlrichError):
        knorrer.build_candidate(F, 2, lam)
    # q2 proportional to q1: D = identity gives q2 = -q1
    lam = knorrer.diagonal_lambda(F, [F.one] * 3)
    with pytest.raises(knorrer.UlrichError):
        knorrer.build_candidate(F, 2, lam)


def test_jacobian_check():
    lam = knorrer.diagonal_lambda(F, [F.of(d) for d in (1, 2, 3)])
    cand = knorrer.build_candidate(F, 2, lam)
    ok, note = knorrer.jacobian_check(cand, seed=5)
    assert ok, note

    lam_bad = knorrer.diagonal_lambda(F, [F.of(1), F.neg(F.one), F.of(2)])
    cand_bad = knorrer.build_candidate(F, 2, lam_bad)
    ok, note = knorrer.jacobian_check(cand_bad, seed=5)
    assert not ok
    assert "collide" in note


@pytest.mark.parametrize("field", [F, QQ], ids=str)
def test_jacobian_check_fails_on_proportional_quadrics(field):
    lam = knorrer.diagonal_lambda(field, [field.of(d) for d in (1, 2, 3)])
    cand = knorrer.build_candidate(field, 2, lam)
    # q2 = 3 q1: the gradients are then parallel everywhere
    b1 = cand.pencil.b1
    cand.pencil = QuadricPencil(field, b1, [[field.mul(3, c) for c in row] for row in b1],
                                cand.variables)
    assert quadric(cand.pencil, 2) == quadric(cand.pencil, 1).scale(3)
    assert knorrer.jacobian_check(cand, seed=5) == (
        False, "all 2x2 Jacobian minors vanish at a sampled smooth point")


@pytest.mark.parametrize("field", [F, QQ], ids=str)
def test_jacobian_check_samples_only_points_of_both_quadrics(field):
    # negative control of the point test: the sampler draws points of V(q1, q2)
    # for the diagonal q2, and x0 y0 in q2's Gram matrix moves q2 off every one
    lam = knorrer.diagonal_lambda(field, [field.of(d) for d in (1, 2, 3)])
    cand = knorrer.build_candidate(field, 2, lam)
    assert knorrer.jacobian_check(cand, seed=5)[0]
    b2 = [list(row) for row in cand.pencil.b2]
    b2[0][1] = b2[1][0] = field.add(b2[0][1], field.one)
    cand.pencil = QuadricPencil(field, cand.pencil.b1, b2, cand.variables)
    assert knorrer.jacobian_check(cand, seed=5) == (False, "could only sample 0 of 5 points")


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


def solve_b_reference(field, a_vals, c_vals):
    """The replaced route to the restriction row: solve u E = coefficients of
    prod (X + c_k), with det E checked against the Vandermonde product."""
    n = len(a_vals) - 1
    e_matrix = symmetric_matrix_e(field, a_vals)
    assert linalg.det(field, e_matrix) == vandermonde_product(field, a_vals) != 0
    target = [elementary_symmetric(field, [field.of(v) for v in c_vals], k)
              for k in range(n + 1)]
    u = linalg.solve(field, [list(row) for row in zip(*e_matrix)], target, n + 1)
    return list(u[:n]) + [field.neg(u[n])] + [field.one] * n


@pytest.mark.parametrize("field", [F, PrimeField(7), PrimeField(2**61 - 1), QQ], ids=str)
def test_closed_form_restriction_row_matches_the_e_solve(field):
    rng = random.Random(field.name)
    size = 14 if field == PrimeField(7) else 10**6
    checked = 0
    while checked < 60:
        n = rng.randrange(1, 6)
        values = rng.sample(range(1, size), 2 * n + 1)
        residues = {v % field.p for v in values} - {0} if field != QQ else values
        if len(residues) < 2 * n + 1:
            continue
        if field is QQ and rng.random() < 0.5:
            values = [Fraction(v, rng.randrange(1, 30)) for v in values]
            if len(set(values)) < 2 * n + 1:
                continue
        a_vals, c_vals = values[: n + 1], values[n + 1:]
        got = knorrer.solve_b_for_roots(field, a_vals, c_vals)
        assert got == solve_b_reference(field, [field.of(v) for v in a_vals], c_vals)
        checked += 1


def test_elementary_symmetric():
    vals = [QQ.of(v) for v in (1, 2, 3)]
    assert elementary_symmetric(QQ, vals, 0) == 1
    assert elementary_symmetric(QQ, vals, 1) == 6
    assert elementary_symmetric(QQ, vals, 2) == 11
    assert elementary_symmetric(QQ, vals, 3) == 6


def test_solve_b_example():
    b = knorrer.solve_b_for_roots(QQ, [QQ.of(1), QQ.of(2)], [QQ.of(3)])
    assert b == [QQ.of(2), QQ.of(1), QQ.of(1)]
    e = symmetric_matrix_e(QQ, [QQ.of(1), QQ.of(2)])
    assert e == [[1, 2], [1, 1]]


def test_det_e_is_vandermonde():
    from ulrichmf import linalg

    rng = random.Random(23)
    for field in (QQ, F):
        for n in range(1, 6):
            vals = rng.sample(range(1, 60), n + 1)
            a = [field.of(v) for v in vals]
            e = symmetric_matrix_e(field, a)
            assert linalg.det(field, e) == vandermonde_product(field, a)


def test_solve_b_rejects_duplicates():
    with pytest.raises(knorrer.UlrichError):
        knorrer.solve_b_for_roots(QQ, [QQ.of(1), QQ.of(1)], [QQ.of(3)])
    with pytest.raises(knorrer.UlrichError):
        knorrer.solve_b_for_roots(QQ, [QQ.of(0), QQ.of(1)], [QQ.of(3)])


def constants(field, rows):
    """The scalar matrix rows as a matrix of constant binary forms."""
    return PolyMatrix(field, binary.ST, [[Poly.const(field, binary.ST, c) for c in row]
                                         for row in rows])


def restricted_hessian(field, a_vals, b):
    """B^T H B for H = [[0, D'], [D', 0]], D' = diag(s + a_i t), and its factorization.

    Returns (matrix, det, h) with det = (-1)^(n+1) 2 h prod(s + a_i t)
    verified by exact division; a division failure raises.  (The sign
    exponent is n+1, pinned by expanding the n = 1 case by hand: the
    determinant there is +2 h l_0 l_1.)  The closed symmetric-function form
    of h is asserted as well.  The root convention is that of
    ``knorrer.solve_b_for_roots``: factors (s + a).
    """
    n = len(a_vals) - 1
    assert len(b) == 2 * n + 1, "b must have length 2n+1"
    ells = [binary.linear_form(field, 1, field.of(a)) for a in a_vals]
    zero = Poly.zero(field, binary.ST)
    size = 2 * (n + 1)
    h_entries = [[zero] * size for _ in range(size)]
    for i in range(n + 1):
        h_entries[i][n + 1 + i] = ells[i]
        h_entries[n + 1 + i][i] = ells[i]
    h_mat = PolyMatrix(field, binary.ST, h_entries)
    b_rows = knorrer.restriction_matrix(field, b)
    restricted = constants(field, list(zip(*b_rows))) @ h_mat @ constants(field, b_rows)
    restricted = restricted.relabel(
        row_degrees=[0] * (2 * n + 1), col_degrees=[1] * (2 * n + 1)
    )
    det = determinant(restricted)
    ell_prod = Poly.const(field, binary.ST, 1)
    for ell in ells:
        ell_prod = ell_prod * ell
    scale = field.mul(field.of((-1) ** (n + 1)), field.of(2))
    if det.is_zero():
        h = Poly.zero(field, binary.ST)
    else:
        h = divexact(det, ell_prod.scale(scale))
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
    assert h == h_formula, "extracted h disagrees with the closed formula"
    return restricted, det, h


def test_restricted_hessian_example():
    b = [QQ.of(2), QQ.of(1), QQ.of(1)]
    matrix, det, h = restricted_hessian(QQ, [QQ.of(1), QQ.of(2)], b)
    assert matrix.nrows == 3
    # det is proportional to (s+t)(s+2t)(s+3t)
    found, inf_mult, splits = binary.roots(det)
    assert splits and inf_mult == 0
    assert [(lam, m) for lam, m in found] == [(QQ.of(-3), 1), (QQ.of(-2), 1), (QQ.of(-1), 1)]
    assert h == binary.linear_form(QQ, 1, 3)
    from tests.test_polymatrix import cofactor_det

    assert det == cofactor_det(matrix)


def test_restricted_hessian_zero_row():
    b = [QQ.zero] * 3
    _, det, h = restricted_hessian(QQ, [QQ.of(1), QQ.of(2)], b)
    assert det.is_zero() and h.is_zero()


def test_restricted_hessian_h_formula_random():
    rng = random.Random(7)
    for _ in range(5):
        a = [F.of(v) for v in rng.sample(range(1, 100), 3)]
        b = [F.of(rng.randrange(F.p)) for _ in range(5)]
        # the closed-formula comparison runs inside; reaching here is the pass
        restricted_hessian(F, a, b)


def test_odd_ambient_pipeline_known_roots():
    field = PrimeField(10007)
    cand = knorrer.ulrich_for_roots_odd_ambient(
        field, [1, 4, 9], [2, 3], seed=7
    )
    assert cand.presentation.shape == (5, 4, 8)
    roots = sorted(int(v) for v in (cand.verification["discriminant_roots"]))
    assert roots == [1, 2, 3, 4, 9]
    assert "pass" in cand.verification["hilbert"]


def test_ulrich_for_roots_dispatches_on_parity():
    odd = knorrer.ulrich_for_roots(F, [1, 4, 9, 2, 3], seed=7)
    assert odd.to_json() == knorrer.ulrich_for_roots_odd_ambient(
        F, [1, 4, 9], [2, 3], seed=7
    ).to_json()
    even = knorrer.ulrich_for_roots(F, [1, 4, 2, 3], seed=11)
    assert even.to_json() == knorrer.ulrich_for_roots_even_ambient(
        F, [1, 4, 2, 3], seed=11
    ).to_json()
    with pytest.raises(knorrer.UlrichError, match="at least 4 targets"):
        knorrer.ulrich_for_roots(F, [1, 4], seed=0)


def test_odd_ambient_rejects_non_squares():
    # 5 is not a square mod 10007 (10007 = 2 mod 5)
    field = PrimeField(10007)
    assert field.legendre(5) == -1
    with pytest.raises(NotASquare):
        knorrer.ulrich_for_roots_odd_ambient(field, [5, 4, 9], [2, 3], seed=1)


def test_even_ambient_pipeline_genus1():
    cand = knorrer.ulrich_for_roots_even_ambient(F, [1, 4, 2, 3], seed=11)
    assert len(cand.variables) == 4
    assert cand.presentation.shape == (4, 4, 8)
    roots = sorted(int(v) for v in cand.verification["discriminant_roots"])
    assert roots == [1, 2, 3, 4]


def restricted_candidate(field=F):
    lam = knorrer.diagonal_lambda(field, [field.of(d) for d in (1, 2, 3)])
    cand = knorrer.build_candidate(field, 2, lam)
    b = knorrer.solve_b_for_roots(
        field, [field.neg(field.of(a)) for a in (1, 4, 9)], [field.neg(field.of(c)) for c in (2, 3)]
    )
    return cand._substituted(knorrer.restriction_matrix(field, b), tuple(f"z{k}" for k in range(5)),
                             cand.provenance)


def as_polymatrix(field, variables, t):
    """The reference PolyMatrix sum_k T[k] x_k of a coefficient tensor."""
    v, nrows, ncols = t.shape
    units = [tuple(int(i == k) for i in range(v)) for k in range(v)]
    return PolyMatrix(field, variables, [
        [Poly.from_pairs(field, variables, [(units[k], t[k, i, j]) for k in range(v)])
         for j in range(ncols)]
        for i in range(nrows)
    ], ncols=ncols)


def plus_one(field, t, at):
    """A copy of the tensor with 1 added to one coefficient: the entry at (i, j) gains x_k."""
    out = t.copy()
    out[at] = field.add(out[at], field.one)
    return out


def test_negative_controls():
    restricted = restricted_candidate()
    ok, _ = knorrer.artinian_hilbert_check(restricted, trials=2, seed=3)
    assert ok
    good = restricted.presentation
    # changing one entry (+ z0 at (0, 0)) breaks the exact annihilator certificates
    restricted.presentation = plus_one(F, good, (0, 0, 0))
    ok, detail = restricted.verify_certificates()
    assert not ok
    # destroying a relation (zeroed column) leaves a cokernel the Hilbert
    # check sees: nonzero dimension in degree 1
    restricted.presentation = good.copy()
    restricted.presentation[:, :, 0] = F.zero
    ok, note = knorrer.artinian_hilbert_check(restricted, trials=2, seed=3)
    assert not ok
    assert "coker dims [4, 1" in note


@pytest.mark.parametrize("attr, k, j, message", [
    ("second_map", 1, 3, "A @ B' != 0"),
    ("cert1", 5, 2, "A @ C != q1 * id"),
    ("cert2", 6, 1, "A @ C != q2 * id"),
])
def test_certificates_name_the_perturbed_entry(attr, k, j, message):
    cand = restricted_candidate()
    assert cand.verify_certificates() == (True, "ok")
    a = cand.presentation
    # adding z0 at (k, j) changes column j of A @ M in every row i with A[i][k] != 0
    setattr(cand, attr, plus_one(F, getattr(cand, attr), (0, k, j)))
    i = min(i for i in range(a.shape[1]) if a[:, i, k].any())
    assert cand.verify_certificates() == (False, f"{message} at entry ({i}, {j})")


@pytest.mark.parametrize("field", [F, PrimeField(2**61 - 1), QQ], ids=str)
@pytest.mark.parametrize("attr", ["presentation", "second_map", "cert1", "cert2", "q1", "q2"])
def test_one_changed_coefficient_fails_the_certificates(field, attr):
    # one coefficient of each matrix and quadric, against the PolyMatrix products
    cand = restricted_candidate(field)
    rng = random.Random(attr)
    if attr in ("q1", "q2"):
        # q + z0 z1: S[0][1] and S[1][0] gain 1/2
        pen = cand.pencil
        grams = {"q1": [list(row) for row in pen.b1], "q2": [list(row) for row in pen.b2]}
        b = grams[attr]
        b[0][1] = b[1][0] = field.add(b[0][1], field.inv(field.of(2)))
        z0, z1 = (Poly.variable(field, cand.variables, v) for v in ("z0", "z1"))
        which = int(attr[1])
        want = quadric(cand.pencil, which) + z0 * z1
        cand.pencil = QuadricPencil(field, grams["q1"], grams["q2"], cand.variables)
        assert quadric(cand.pencil, which) == want
    else:
        t = getattr(cand, attr)
        setattr(cand, attr, plus_one(field, t, tuple(rng.randrange(n) for n in t.shape)))
    ok, detail = cand.verify_certificates()
    assert not ok
    names = cand.variables
    a, b2 = (as_polymatrix(field, names, t) for t in (cand.presentation, cand.second_map))
    where = (a @ b2).first_mismatch(PolyMatrix.zero(field, names, 4, 4))
    if where is not None:
        assert detail == f"A @ B' != 0 at entry {where}"
        return
    for q, cert, name in zip(quadrics(cand), (cand.cert1, cand.cert2), ("q1", "q2")):
        want = PolyMatrix.scalar_matrix(field, names, q, 4)
        where = (a @ as_polymatrix(field, names, cert)).first_mismatch(want)
        if where is not None:
            assert detail == f"A @ C != {name} * id at entry {where}"
            return
    raise AssertionError("the PolyMatrix products pass")


def random_tensor(field, rng, shape, zero_share=0.6):
    t = np.full(shape, field.zero, dtype=linalg.scalar_dtype(field))
    for at in np.ndindex(*shape):
        t[at] = random_scalar(field, rng, zero_share)
    return t


@pytest.mark.parametrize("field", [F, PrimeField(2**61 - 1), QQ], ids=str)
def test_tensor_substitution_matches_polymatrix(field):
    rng = random.Random(53)
    names, new = tuple(f"x{k}" for k in range(5)), ("u", "v", "w")
    for shape in ((5, 3, 4), (5, 1, 6), (5, 4, 0)):
        tensors = [random_tensor(field, rng, shape) for _ in range(2)]
        m = [[random_scalar(field, rng, 0.3) for _ in new] for _ in names]
        images = linear_images(field, m, names, new)
        got = polymatrix.substitute_tensors(field, m, tensors)
        for t, image in zip(tensors, got):
            assert image.shape == (3,) + shape[1:]
            assert as_polymatrix(field, new, image) == (
                substitute_reference(as_polymatrix(field, names, t), images, new))


@pytest.mark.parametrize("field", [F, PrimeField(2**61 - 1), QQ], ids=str)
def test_tensor_matrix_inverts_linear_tensor(field):
    rng = random.Random(47)
    names = tuple(f"x{k}" for k in range(4))
    for shape in ((4, 3, 5), (4, 2, 0), (4, 0, 3)):
        t = random_tensor(field, rng, shape)
        m = polymatrix.tensor_matrix(field, names, t)
        assert m == as_polymatrix(field, names, t) and (m.nrows, m.ncols) == shape[1:]
        assert np.array_equal(linear_tensor(m), t)


# every budget of products per block: one block, one variable a block, and
# blocks of three variables, which leave a smaller last block
@pytest.mark.parametrize("block_entries", [polymatrix.BLOCK_ENTRIES, 1, 100])
@pytest.mark.parametrize("field", [F, PrimeField(2**61 - 1), QQ], ids=str)
def test_tensor_certificates_match_polymatrix(field, block_entries, monkeypatch):
    # the symmetric identity against the PolyMatrix product and first_mismatch,
    # on random linear matrices and on true identities with one coefficient changed
    monkeypatch.setattr(polymatrix, "BLOCK_ENTRIES", block_entries)
    rng = random.Random(59)
    names = tuple(f"x{k}" for k in range(4))
    cases = []
    for r, inner, c in ((3, 5, 3), (2, 4, 3), (4, 2, 2), (3, 3, 1)):
        q = random_quadric(field, names, rng)
        cases.append((random_tensor(field, rng, (4, r, inner)),
                      random_tensor(field, rng, (4, inner, c), zero_share=0.9), q))
    cand = restricted_candidate(field)
    names5 = cand.variables
    for _ in range(12):
        which = rng.choice(["second_map", "cert1", "cert2"])
        t = getattr(cand, which)
        q = dict(zip(["second_map", "cert1", "cert2"], [None, *quadrics(cand)]))[which]
        at = tuple(rng.randrange(n) for n in t.shape)
        cases.append((cand.presentation, plus_one(field, t, at), q))
    cases.append((cand.presentation, cand.cert1, quadric(cand.pencil, 1)))
    cases.append((cand.presentation, cand.second_map, None))
    for a, b, q in cases:
        variables = names if a.shape[0] == 4 else names5
        prod = as_polymatrix(field, variables, a) @ as_polymatrix(field, variables, b)
        if q is None:
            want = PolyMatrix.zero(field, variables, prod.nrows, prod.ncols)
        else:
            want = PolyMatrix.scalar_matrix(field, variables, q, a.shape[1])
        s = None if q is None else bilinear_matrix(q)
        assert polymatrix.tensor_mismatch(field, a, b, s) == prod.first_mismatch(want)


@pytest.mark.parametrize("key", ["q1", "q2"])
@pytest.mark.parametrize("term", ["linear", "constant"])
def test_reader_refuses_a_quadric_with_a_term_of_another_degree(key, term):
    # such a q * id can never equal A @ C; the reader says so as it says a
    # matrix entry is not linear, once every key is read
    data = json.loads(json.dumps(restricted_candidate().to_json()))
    width = len(data["variables"])
    data[key].append([[1] + [0] * (width - 1) if term == "linear" else [0] * width, 5, 1])
    with pytest.raises(knorrer.UlrichError, match=rf"^candidate certificates failed: "
                                                  rf"{key} is not a quadratic form$"):
        knorrer.UlrichCandidate.from_json(data)
    # a malformed matrix read after it is reported first
    data["cert_q2"]["entries"].pop()
    with pytest.raises(MatrixError, match="^entry count mismatch in matrix JSON$"):
        knorrer.UlrichCandidate.from_json(data)


def test_build_candidate_rechecks_phi_psi_through_c1(monkeypatch):
    # knorrer_pair checks nothing: the ambient A @ C1 = q1 id check, whose
    # top block is phi @ psi, catches a corrupted psi; -psi keeps A @ B' = 0
    real = knorrer.knorrer_pair

    def negated_psi(field, n):
        phi, (cols, signs), q = real(field, n)
        return phi, (cols, -signs), q

    monkeypatch.setattr(knorrer, "knorrer_pair", negated_psi)
    lam = knorrer.diagonal_lambda(F, [F.of(d) for d in (1, 2, 3)])
    with pytest.raises(knorrer.UlrichError, match=r"^candidate certificates failed: "
                                                  r"A @ C != q1 \* id at entry \(0, 0\)$"):
        knorrer.build_candidate(F, 2, lam)


@pytest.mark.parametrize("field", [F, QQ], ids=["F10009", "Q"])
def test_linear_tensor_rejects_other_degrees(field):
    names = ("x", "y")
    x, y = (Poly.variable(field, names, v) for v in names)
    one = Poly.const(field, names, 1)
    m = PolyMatrix(field, names, [[x, y + x], [x.scale(field.of(3)), Poly.zero(field, names)]])
    t = linear_tensor(m)
    assert as_polymatrix(field, names, t) == m
    for bad, at in ((x * y, "(0,1)"), (one, "(0,1)"), (x + one, "(0,1)")):
        rows = [[x, bad], [x, x]]
        with pytest.raises(MatrixError, match=rf"^B entry {re.escape(at)} is not linear$"):
            linear_tensor(PolyMatrix(field, names, rows), "B")


def spy_cokernel_dims(monkeypatch):
    """Record (specialization M, answer) of every _cokernel_dims call of one
    artinian_hilbert_check: the M are the drawn trials, in order, and each
    trial's slice of the one substitution must be its own."""
    seen, drawn = [], []
    real_draw, real_dims = knorrer._specializations, knorrer._cokernel_dims

    def draw(candidate, trials, rng):
        out = real_draw(candidate, trials, rng)
        drawn.extend(m for m, _ in out[0])
        return out

    def spy(candidate, a_uv, specialized):
        m = drawn[len(seen)]
        (own,) = substitute_tensors(candidate.field, m, (candidate.presentation,))
        assert a_uv.dtype == own.dtype and np.array_equal(a_uv, own)
        assert specialized.b1 == candidate.pencil.congruence(m).b1
        assert specialized.b2 == candidate.pencil.congruence(m).b2
        dims = real_dims(candidate, a_uv, specialized)
        seen.append((m, dims))
        return dims

    monkeypatch.setattr(knorrer, "_specializations", draw)
    monkeypatch.setattr(knorrer, "_cokernel_dims", spy)
    return seen


def four_degree_reference(cand, m):
    """graded_quotient_dims in degrees 0-3 on the PolyMatrix specialization x = M (u, v)."""
    from ulrichmf import graded

    uv, field, r = ("u", "v"), cand.field, cand.generators
    images = linear_images(field, m, cand.variables, uv)
    a = as_polymatrix(field, cand.variables, cand.presentation)
    a = substitute_reference(a, images, uv)
    gens = [list(a.column(j)) for j in range(a.ncols)]
    for q in quadrics(cand):
        for i in range(r):
            vec = [Poly.zero(field, uv)] * r
            vec[i] = q.substitute(images, uv)
            gens.append(vec)
    return graded.graded_quotient_dims(field, uv, gens, range(4), rank=r)


def test_hilbert_from_degree_one_agrees_with_four_degrees(monkeypatch):
    seen = spy_cokernel_dims(monkeypatch)
    cand = restricted_candidate()
    ok, note = knorrer.artinian_hilbert_check(cand, trials=3, seed=3)
    assert ok and note.count("coker dims [4, 0, 0, 0]") == 3
    # each trial reads degrees 0 and 1 off the 2r x 2r slice of the tensor; the
    # reference computes all four degrees on the same specialization
    assert len(seen) == 3
    for m, dims in seen:
        assert dims == four_degree_reference(cand, m) == [4, 0, 0, 0]


def test_hilbert_failure_lists_all_four_degrees(monkeypatch):
    cand = restricted_candidate()
    cand.presentation = cand.presentation.copy()
    # column 1 repeats column 0: the degree-1 rank drops
    cand.presentation[:, :, 1] = cand.presentation[:, :, 0]
    seen = spy_cokernel_dims(monkeypatch)
    ok, note = knorrer.artinian_hilbert_check(cand, trials=3, seed=3)
    assert not ok
    ((m, dims),) = seen
    assert len(dims) == 4 and dims == four_degree_reference(cand, m)
    assert dims[0] == 4 and dims[1] > 0
    assert note == f"trial 0: coker dims {dims}; expected [4, 0, 0, 0]"


def test_emitted_candidate_catches_a_corrupted_ambient(monkeypatch):
    real = knorrer._odd_restriction

    def corrupted(*args):
        ambient, r, diag = real(*args)
        ambient.cert1 = plus_one(ambient.field, ambient.cert1, (0, 5, 2))  # + x0 at (5, 2)
        return ambient, r, diag

    monkeypatch.setattr(knorrer, "_odd_restriction", corrupted)
    with pytest.raises(knorrer.UlrichError, match=r"^candidate certificates failed: "
                                                  r"A @ C != q1 \* id at entry"):
        knorrer.ulrich_for_roots_even_ambient(F, [1, 4, 2, 3], seed=11)
    with pytest.raises(knorrer.UlrichError, match=r"^candidate certificates failed: "
                                                  r"A @ C != q1 \* id at entry"):
        knorrer.ulrich_for_roots_odd_ambient(F, [1, 4, 9], [2, 3], seed=7)


@pytest.mark.parametrize("targets", [(1, 4, 9, 2, 3), (1, 4, 9, 16, 2, 3)], ids=["odd", "even"])
def test_only_the_emitted_candidate_is_certified(targets, monkeypatch):
    # the ambient presentation is substituted unchecked: the three certificate
    # products are the emitted candidate's A @ B', A @ C1 and A @ C2
    calls = []
    real = knorrer.tensor_mismatch

    def spy(field, a, b, s=None):
        calls.append((a.shape, b.shape, s is None))
        return real(field, a, b, s)

    monkeypatch.setattr(knorrer, "tensor_mismatch", spy)
    cand = knorrer.ulrich_for_roots(F, targets, seed=1)
    v, r = len(cand.variables), cand.generators
    shapes = ((v, r, 2 * r), (v, 2 * r, r))
    assert calls == [(*shapes, True), (*shapes, False), (*shapes, False)]


def test_even_pipeline_reads_its_pencil_off_the_diagonalization(monkeypatch):
    # congruences: the ambient pencil by R, the restricted one by its
    # diagonalizing basis M, and one V x 2 specialization per Hilbert draw;
    # none by R M', whose pencil is the diagonal less the fresh root's entry
    shapes = []
    real = QuadricPencil.congruence

    def spy(self, m, variables=None):
        shapes.append((len(m), len(m[0])))
        return real(self, m, variables)

    monkeypatch.setattr(QuadricPencil, "congruence", spy)
    cand = knorrer.ulrich_for_roots_even_ambient(F, [1, 4, 9, 16, 2, 3], seed=1)
    w = len(cand.variables)
    assert shapes[:2] == [(w + 2, w + 1), (w + 1, w + 1)]
    assert len(shapes) >= 5 and set(shapes[2:]) == {(w, 2)}
    assert cand.pencil._is_diagonal()
    b1, b2 = cand.pencil.b1, cand.pencil.b2
    roots = [F.neg(F.div(b2[i][i], b1[i][i])) for i in range(w)]
    assert sorted(roots) == sorted(F.of(t) for t in (1, 4, 9, 16, 2, 3))


def test_even_pipeline_classifies_each_pool_value_once(monkeypatch):
    seen = []
    real = knorrer._is_square
    monkeypatch.setattr(knorrer, "_is_square", lambda field, v: seen.append(v) or real(field, v))
    cand = knorrer.ulrich_for_roots_even_ambient(F, [1, 4, 9, 16, 2, 3], seed=1)
    fresh = F.of(int(cand.verification["fresh_root"]))
    assert sorted(seen) == sorted(F.of(t) for t in (1, 4, 9, 16, 2, 3, fresh))


Q_FRACTIONS = (Fraction(1, 4), Fraction(9, 4), Fraction(4, 9), 2, Fraction(2, 3), 5, 7,
               Fraction(1, 3))
SQUARES, OTHERS = (1, 4, 9, 16, 25, 36), (2, 3, 5, 6, 7, 8)
# genus g = 1..4 on both pipelines: 2g + 2 targets, or 2n + 1 with n = g + 1
CLOSED_FORM_CASES = [(PrimeField(7), (1, 2, 4, 3)), (PrimeField(7), (1, 2, 4, 3, 5))] + [
    (field, SQUARES[: g + 1 + odd] + OTHERS[: g + 1])
    for field in (F, PrimeField(2**61 - 1), QQ) for g in range(1, 5) for odd in (0, 1)
] + [(QQ, Q_FRACTIONS[:5]), (QQ, Q_FRACTIONS[:3] + Q_FRACTIONS[5:8])]


@pytest.mark.parametrize("field, targets", CLOSED_FORM_CASES,
                         ids=[f"{field.name}-{','.join(map(str, t))}" for field, t in CLOSED_FORM_CASES])
def test_closed_form_basis_is_the_nullspace_basis(field, targets, monkeypatch):
    # both pipelines diagonalize the restricted pencil by the closed-form basis:
    # it is, entry for entry and scalar type for scalar type, the per-root
    # nullspace basis of the same pencil
    seen = []

    def spy(p, roots=None, basis=None):
        split = simultaneous_diagonalize(QuadricPencil(p.field, p.b1, p.b2), roots).basis
        assert basis == split
        assert [type(c) for row in basis for c in row] == [type(c) for row in split for c in row]
        seen.append(len(basis))
        return simultaneous_diagonalize(p, roots, basis)

    monkeypatch.setattr(knorrer, "simultaneous_diagonalize", spy)
    knorrer.ulrich_for_roots(field, targets, seed=3)
    assert seen == [len(targets) + (len(targets) + 1) % 2]


def count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("field", [F, QQ], ids=str)
@pytest.mark.parametrize("targets", [(1, 4, 9, 2, 3), (1, 4, 9, 16, 2, 3)], ids=["odd", "even"])
def test_pipelines_take_no_nullspace_and_no_determinant(field, targets, monkeypatch):
    # the restricted pencil's basis is in closed form, and its discriminant is
    # filled by the diagonalization: nothing is eliminated per root or interpolated
    calls = count_calls(monkeypatch, linalg, ("nullspace", "det"))
    knorrer.ulrich_for_roots(field, targets, seed=3)
    assert calls == {"nullspace": 0, "det": 0}


def test_nullspace_spy_sees_the_per_root_path(monkeypatch):
    # negative control: without the closed form, the 2n + 1 = 7 roots of the
    # even pipeline's restriction take one nullspace each
    calls = count_calls(monkeypatch, linalg, ("nullspace", "det"))
    monkeypatch.setattr(knorrer, "hyperbolic_restriction_basis", lambda *args: None)
    knorrer.ulrich_for_roots(F, (1, 4, 9, 16, 2, 3), seed=3)
    assert calls == {"nullspace": 7, "det": 0}


@pytest.mark.parametrize("field", [F, PrimeField(2**31 - 1), PrimeField(2**61 - 1), QQ], ids=str)
def test_one_substitution_matches_the_odd_restriction_then_the_diagonal_basis(field):
    # the even-ambient pipeline substitutes its ambient candidate once, by R M;
    # the two-step route restricts by R to the odd pipeline's candidate, which
    # passes every check, and then substitutes by M
    targets = [field.of(v) for v in (1, 4, 9, 16, 2, 3)]
    fresh = knorrer.fresh_root_for(field, targets, needed_squares=4)
    pool = targets + [fresh]
    squares = [t for t in pool if knorrer._is_square(field, t)]
    a_targets = squares[:4]
    c_targets = squares[4:] + [t for t in pool if not knorrer._is_square(field, t)]
    ambient, r, _ = knorrer._odd_restriction(field, a_targets, c_targets)
    odd = ambient._substituted(r, tuple(f"z{k}" for k in range(7)),
                               "ulrich_for_roots_odd_ambient(n=3)")
    knorrer._verify_restricted(odd, a_targets + c_targets, seed=0)
    assert "pass" in odd.verification["hilbert"]
    checked = knorrer.ulrich_for_roots_odd_ambient(field, a_targets, c_targets, seed=0)
    assert checked.to_json() == odd.to_json()
    diag = simultaneous_diagonalize(odd.pencil, a_targets + c_targets)
    at = [field.neg(field.div(f.coefficient((0, 1)), f.coefficient((1, 0))))
          for f in diag.factors].index(fresh)
    m = [row[:at] + row[at + 1:] for row in diag.basis]
    two_steps = odd._substituted(m, tuple(f"w{k}" for k in range(6)),
                                 "ulrich_for_roots_even_ambient(g=2)")
    two_steps.verification["fresh_root"] = str(fresh)
    knorrer._verify_restricted(two_steps, targets, seed=5)
    once = knorrer.ulrich_for_roots_even_ambient(field, targets, seed=5)
    assert once.to_json() == two_steps.to_json()
    for attr in ("presentation", "second_map", "cert1", "cert2"):
        got, want = getattr(once, attr), getattr(two_steps, attr)
        assert got.dtype == want.dtype and np.array_equal(got, want), attr
        assert [type(c) for c in got.flat] == [type(c) for c in want.flat], attr
    for got, want in ((once.pencil.b1, two_steps.pencil.b1), (once.pencil.b2, two_steps.pencil.b2)):
        assert got == want
        assert [type(c) for row in got for c in row] == [type(c) for row in want for c in row]


@pytest.mark.parametrize("field, message", [
    (F, "discriminant roots [1, 2, 3, 4, 9] differ from targets [1, 2, 4, 5, 9]"),
    # over Q the roots print as the field prints them, not as Fraction reprs
    (QQ, "discriminant roots [1, 2, 3, 4, 9] differ from targets [1, 2, 4, 5, 9]"),
], ids=["F10009", "Q"])
def test_wrong_targets_fall_back_to_the_split(field, message, monkeypatch):
    cand = knorrer.ulrich_for_roots_odd_ambient(field, [1, 4, 9], [2, 3], seed=7)
    # a pencil of the same Gram matrices, with nothing split or confirmed yet
    cand.pencil = QuadricPencil(field, cand.pencil.b1, cand.pencil.b2, cand.variables)
    splits = []
    real = binary.roots
    monkeypatch.setattr(binary, "roots", lambda f: splits.append(f) or real(f))
    # the message is the one the split path gave before the product check existed
    with pytest.raises(knorrer.UlrichError) as err:
        knorrer._verify_restricted(cand, [1, 4, 9, 2, 5], seed=7)
    assert str(err.value) == message
    assert len(splits) == 1


def test_candidate_json_round_trip():
    lam = knorrer.diagonal_lambda(F, [F.of(d) for d in (1, 2, 3)])
    cand = knorrer.build_candidate(F, 2, lam)
    data = cand.to_json()
    back = knorrer.UlrichCandidate.from_json(data)
    for attr in ("presentation", "second_map", "cert1", "cert2"):
        assert np.array_equal(getattr(back, attr), getattr(cand, attr)), attr
    assert quadrics(back) == quadrics(cand)
    assert back.to_json() == data
    assert back.dvals == cand.dvals


def test_candidate_at_the_int64_prime_keeps_its_scalar_type():
    # at p = 2^31 - 1 the substitution's products are taken on Python ints;
    # they are stored as int64, the type the JSON reader gives them too
    field = PrimeField(2**31 - 1)
    cand = knorrer.ulrich_for_roots(field, (1, 4, 9, 2, 3))
    back = knorrer.UlrichCandidate.from_json(cand.to_json())
    for attr in ("presentation", "second_map", "cert1", "cert2"):
        got, want = getattr(cand, attr), getattr(back, attr)
        assert got.dtype == want.dtype == linalg.scalar_dtype(field), attr
        assert np.array_equal(got, want), attr


def test_odd_ambient_pipeline_over_rationals():
    cand = knorrer.ulrich_for_roots_odd_ambient(QQ, [1, 4, 9], [2, 3], seed=2)
    roots = sorted(int(QQ.of(v)) for v in cand.verification["discriminant_roots"])
    assert roots == [1, 2, 3, 4, 9]
    assert "pass" in cand.verification["hilbert"]


def test_even_ambient_negative_targets_genus2():
    # -1..-6 are all squares mod 10009 (p = 1 mod 4 and 1..6 are squares)
    targets = [F.neg(F.of(k)) for k in range(1, 7)]
    cand = knorrer.ulrich_for_roots_even_ambient(F, targets, seed=99)
    assert cand.presentation.shape == (6, 8, 16)
    assert cand.generators // 4 == 2  # rank 2^{g-1} at genus 2
    got = sorted(int(v) for v in cand.verification["discriminant_roots"])
    assert got == sorted(int(t) for t in targets)


# -- references: the hand-written image builders that linear_images replaced --


def ref_substitution_images(field, g, names):
    """Images of the variables under (x|y) -> (x|y) G, in the same ring."""
    zvars = [Poly.variable(field, names, v) for v in names]
    images = {}
    for k, v in enumerate(names):
        acc = Poly.zero(field, names)
        for j in range(len(names)):
            acc = acc + zvars[j].scale(g[j][k])
        images[v] = acc
    return images


def ref_restriction_images(field, b, z_names=None):
    n = (len(b) - 1) // 2
    if z_names is None:
        z_names = tuple(f"z{k}" for k in range(2 * n + 1))
    zs = [Poly.variable(field, z_names, v) for v in z_names]
    images = {}
    for i in range(n + 1):
        images[f"x{i}"] = zs[i]
    for i in range(n):
        images[f"y{i}"] = zs[n + 1 + i]
    last = Poly.zero(field, z_names)
    for coeff, z in zip(b, zs):
        last = last + z.scale(coeff)
    images[f"y{n}"] = last
    return images, z_names


def ref_gradients(q):
    out = []
    field = q.field
    for idx, name in enumerate(q.vars):
        terms = {}
        for exp, c in q.terms.items():
            if exp[idx]:
                new = list(exp)
                new[idx] -= 1
                key = tuple(new)
                add = field.mul(c, field.of(exp[idx]))
                terms[key] = field.add(terms.get(key, field.zero), add)
        out.append(Poly(field, q.vars, terms))
    return out


def ref_proportional_quadrics(field, q1, q2):
    ref = None
    keys = set(q1.terms) | set(q2.terms)
    for exp in keys:
        c1 = q1.terms.get(exp, field.zero)
        c2 = q2.terms.get(exp, field.zero)
        if field.is_zero(c1) != field.is_zero(c2):
            return False
        if field.is_zero(c1):
            continue
        ratio = field.div(c2, c1)
        if ref is None:
            ref = ratio
        elif ref != ratio:
            return False
    return True


def random_scalar(field, rng, zero_share=0.3):
    if rng.random() < zero_share:
        return field.zero
    return field.of(rng.randrange(-50, 50) if field is QQ else rng.randrange(F.p))


def random_quadric(field, names, rng):
    """A nonzero homogeneous quadric with some zero coefficients."""
    while True:
        pairs = []
        for i in range(len(names)):
            for j in range(i, len(names)):
                exp = [0] * len(names)
                exp[i] += 1
                exp[j] += 1
                pairs.append((tuple(exp), random_scalar(field, rng)))
        q = Poly.from_pairs(field, names, pairs)
        if not q.is_zero():
            return q


@pytest.mark.parametrize("field", [F, QQ], ids=["F10009", "Q"])
def test_linear_images_match_substitution_reference(field):
    rng = random.Random(31)
    for n in range(0, 4):
        names = knorrer.xy_variables(n)
        size = len(names)
        for _ in range(4):
            g = [[random_scalar(field, rng) for _ in range(size)] for _ in range(size)]
            assert linear_images(field, list(zip(*g)), names, names) == (
                ref_substitution_images(field, g, names)
            )
    # the G of a random skew Lambda, as build_candidate uses it
    lam = [[field.zero] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            lam[i][j] = random_scalar(field, rng, zero_share=0)
            lam[j][i] = field.neg(lam[i][j])
    g = knorrer.g_lambda(field, lam)
    names = knorrer.xy_variables(2)
    images = ref_substitution_images(field, g, names)
    assert linear_images(field, list(zip(*g)), names, names) == images
    cand = knorrer.build_candidate(field, 2, lam)
    phi, _, q1 = polymatrix_pair(field, 2)
    assert quadric(cand.pencil, 2) == q1.substitute(images, names)
    assert as_polymatrix(field, names, cand.presentation) == (
        hstack(phi, substitute_reference(phi, images, names)))


def test_linear_images_need_the_transpose():
    # negative control: for a non-symmetric G, rows of G give other images
    names = knorrer.xy_variables(1)
    g = [[F.of(i * 4 + j + 1) for j in range(4)] for i in range(4)]
    want = ref_substitution_images(F, g, names)
    assert linear_images(F, list(zip(*g)), names, names) == want
    assert linear_images(F, g, names, names) != want


def test_linear_images_reject_wrong_shape():
    names = knorrer.xy_variables(0)
    with pytest.raises(ValueError):
        linear_images(F, [[1, 0]], names, names)
    with pytest.raises(ValueError):
        linear_images(F, [[1, 0, 0], [0, 1, 0]], names, names)


@pytest.mark.parametrize("field", [F, QQ], ids=["F10009", "Q"])
def test_restriction_images_match_reference(field):
    rng = random.Random(37)
    for n in range(1, 5):
        for z_names in (None, tuple(f"w{k}" for k in range(2 * n + 1))):
            b = [random_scalar(field, rng) for _ in range(2 * n + 1)]
            images, z_names = ref_restriction_images(field, b, z_names)
            got = linear_images(
                field, knorrer.restriction_matrix(field, b), knorrer.xy_variables(n), z_names
            )
            assert got == images


@pytest.mark.parametrize("field", [F, QQ], ids=["F10009", "Q"])
def test_gradient_is_twice_bilinear_matrix(field):
    # jacobian_check's gradients are the rows of the doubled form
    rng = random.Random(41)
    for nvars in range(1, 7):
        names = tuple(f"x{i}" for i in range(nvars))
        for _ in range(4):
            q = random_quadric(field, names, rng)
            twice, other = doubled_form(q)
            assert not other
            assert twice == [[field.add(c, c) for c in row] for row in bilinear_matrix(q)]
            # jacobian_check reads the gradient at x as the product 2 S x
            x = {v: random_scalar(field, rng, zero_share=0) for v in names}
            got = linalg.matmul(field, twice, [[x[v]] for v in names])[:, 0].tolist()
            assert got == [grad.evaluate(x) for grad in ref_gradients(q)]


@pytest.mark.parametrize("field", [F, QQ], ids=["F10009", "Q"])
def test_proportional_quadrics_match_reference(field):
    rng = random.Random(43)
    names = knorrer.xy_variables(2)
    for _ in range(40):
        q1 = random_quadric(field, names, rng)
        c = random_scalar(field, rng, zero_share=0)
        if field.is_zero(c):
            continue
        others = [
            q1.scale(c),  # proportional
            q1.scale(c) + random_quadric(field, names, rng),  # usually not
            random_quadric(field, names, rng),  # usually another support
        ]
        for q2 in others:
            if q2.is_zero():
                continue
            assert (q2.ratio(q1) is not None) == ref_proportional_quadrics(field, q1, q2)
    # one coefficient off breaks proportionality
    q1 = random_quadric(field, names, rng)
    exp = next(iter(q1.terms))
    q2 = q1.scale(3) + Poly(field, names, {exp: field.one})
    assert q2.ratio(q1) is None
    assert q1.scale(3).ratio(q1) == field.of(3)


@pytest.mark.parametrize("field", [F, QQ], ids=["F10009", "Q"])
def test_hilbert_specializations_keep_draw_order(field, monkeypatch):
    # replay the old loop: per variable, the u coefficient, then the v one;
    # every draw meets the ring check once, as its specialized pencil
    cand = knorrer.ulrich_for_roots_odd_ambient(field, [1, 4, 9], [2, 3], seed=3)
    seen = []
    real = knorrer._resultant

    def spy(f, pencil):
        seen.append([quadric(pencil, 1), quadric(pencil, 2)])
        return real(f, pencil)

    monkeypatch.setattr(knorrer, "_resultant", spy)
    ok, _ = knorrer.artinian_hilbert_check(cand, trials=3, seed=17)
    assert ok and len(seen) >= 3
    rng = random.Random(17)
    uv = ("u", "v")
    u, v = (Poly.variable(field, uv, w) for w in uv)
    size = knorrer._field_size(field)
    for gens in seen:
        images = {}
        for name in cand.variables[:-2]:
            images[name] = u.scale(field.of(rng.randrange(size))) + v.scale(
                field.of(rng.randrange(size))
            )
        images[cand.variables[-2]] = u
        images[cand.variables[-1]] = v
        assert gens == [q.substitute(images, uv) for q in quadrics(cand)]


FIELDS = [F, PrimeField(2**61 - 1), QQ]


def wide_scalar(field, rng, zero_share):
    """Zero, or a scalar spread over the field: any residue mod p, and over Q a
    signed fraction whose denominator need not be 1."""
    if rng.random() < zero_share:
        return field.zero
    if field is QQ:
        return Fraction(rng.randrange(-99, 100), rng.randrange(1, 10))
    return field.of(rng.randrange(field.p))


def wide_quadric(field, names, rng):
    """A nonzero quadric with wide_scalar coefficients, some of them zero."""
    while True:
        pairs = []
        for i in range(len(names)):
            for j in range(i, len(names)):
                exp = [0] * len(names)
                exp[i] += 1
                exp[j] += 1
                pairs.append((tuple(exp), wide_scalar(field, rng, 0.3)))
        q = Poly.from_pairs(field, names, pairs)
        if not q.is_zero():
            return q


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tensor_json_matches_the_polymatrix_writer(field):
    # int64 at p = 10009, Python ints at 2^61 - 1, Fractions over Q; entries
    # with no term, one variable, no entries, and one coefficient changed
    rng = random.Random(61)
    for shape in ((4, 3, 5), (1, 2, 3), (5, 0, 2), (3, 2, 2)):
        names = tuple(f"x{k}" for k in range(shape[0]))
        for zero_share in (0.0, 0.6, 1.0):
            t = np.full(shape, field.zero, dtype=linalg.scalar_dtype(field))
            for at in np.ndindex(*shape):
                t[at] = wide_scalar(field, rng, zero_share)
            assert t.dtype == (np.int64 if field is F else object)
            got = polymatrix.tensor_json(t)
            assert json.dumps(got) == json.dumps(polymatrix.tensor_matrix(field, names, t).to_json())
            if t.size:
                changed = plus_one(field, t, tuple(rng.randrange(n) for n in shape))
                want = polymatrix.tensor_matrix(field, names, changed).to_json()
                assert json.dumps(polymatrix.tensor_json(changed)) == json.dumps(want)
                assert want != got


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_candidate_json_is_the_polymatrix_json(field):
    cand = restricted_candidate(field)
    data = cand.to_json()
    tensors = (cand.presentation, cand.second_map, cand.cert1, cand.cert2)
    for key, t in zip(knorrer.MATRIX_KEYS, tensors):
        want = polymatrix.tensor_matrix(field, cand.variables, t).to_json()
        assert json.dumps(data[key]) == json.dumps(want)
    assert [data["q1"], data["q2"]] == [q.to_json() for q in quadrics(cand)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_congruence_quadrics_match_substitution(field):
    # M is V x W, square or not, down to the W = 2 of the Hilbert check
    rng = random.Random(67)
    names = tuple(f"x{k}" for k in range(5))
    for width in (2, 3, 5, 7):
        new = tuple(f"z{k}" for k in range(width))
        for _ in range(3):
            q1, q2 = wide_quadric(field, names, rng), wide_quadric(field, names, rng)
            m = [[wide_scalar(field, rng, 0.3) for _ in new] for _ in names]
            images = linear_images(field, m, names, new)
            conj = pencil_from_quadrics(q1, q2).congruence(m, new)
            assert conj.variables == new and conj.dim == width
            assert quadric(conj, 1) == q1.substitute(images, new)
            assert quadric(conj, 2) == q2.substitute(images, new)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_candidates_keep_the_pencil_of_their_quadrics(field):
    lam = knorrer.diagonal_lambda(field, [field.of(d) for d in (1, 2, 3)])
    for cand in (knorrer.build_candidate(field, 2, lam), restricted_candidate(field),
                 knorrer.ulrich_for_roots(field, [1, 4, 9, 16, 2, 3], seed=1)):
        kept = cand.pencil
        fresh = pencil_from_quadrics(*quadrics(cand))
        assert (kept.b1, kept.b2, kept.variables) == (fresh.b1, fresh.b2, cand.variables)
        for x in (x for b in (kept.b1, kept.b2) for row in b for x in row):
            assert_field_scalar(field, x)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_substituted_quadrics_match_the_polynomial_substitution(field):
    lam = knorrer.diagonal_lambda(field, [field.of(d) for d in (1, 2, 3)])
    cand = knorrer.build_candidate(field, 2, lam)
    b = knorrer.solve_b_for_roots(
        field, [field.neg(field.of(a)) for a in (1, 4, 9)], [field.neg(field.of(c)) for c in (2, 3)]
    )
    m = knorrer.restriction_matrix(field, b)
    names = tuple(f"z{k}" for k in range(5))
    out = cand._substituted(m, names, cand.provenance)
    images = linear_images(field, m, cand.variables, names)
    assert quadrics(out) == tuple(q.substitute(images, names) for q in quadrics(cand))
    assert out.verify_certificates() == (True, "ok")
    # the source keeps its own pencil
    q1 = quadrics(cand)[0]
    assert q1 != quadrics(out)[0] and q1.vars == cand.variables


@pytest.mark.parametrize("targets", [(1, 4, 9, 2, 3), (1, 4, 9, 16, 2, 3)], ids=["odd", "even"])
def test_each_pipeline_substitutes_the_four_matrices_once(targets, monkeypatch):
    calls = []
    real = knorrer.substitute_tensors

    def spy(field, m, tensors):
        calls.append(len(tensors))
        return real(field, m, tensors)

    monkeypatch.setattr(knorrer, "substitute_tensors", spy)
    knorrer.ulrich_for_roots(F, targets, seed=1)
    # build_candidate substitutes the pair (phi, psi), and each Hilbert trial
    # the presentation alone
    assert calls.count(4) == 1
    assert calls[0] == 2 and set(calls) == {1, 2, 4}


def test_hilbert_check_of_a_zero_quadric_finds_no_ring():
    # a verified candidate may have q2 = 0 (C2 = 0): its pencil has a zero Gram matrix
    cand = restricted_candidate()
    zero = [[F.zero] * len(cand.variables) for _ in cand.variables]
    cand.pencil = QuadricPencil(F, cand.pencil.b1, zero, cand.variables)
    cand.cert2 = np.zeros_like(cand.cert2)
    assert quadric(cand.pencil, 2).is_zero()
    assert cand.verify_certificates() == (True, "ok")
    assert knorrer.artinian_hilbert_check(cand, trials=3, seed=3) == (
        False, "trial 0: no Artinian specialization found")
    # the same candidate read from JSON, where q2 is an empty term list
    data = json.loads(json.dumps(cand.to_json()))
    assert data["q2"] == []
    back = knorrer.UlrichCandidate.from_json(data)
    assert back.pencil.b2 == zero
    assert knorrer.artinian_hilbert_check(back, trials=3, seed=3) == (
        False, "trial 0: no Artinian specialization found")
    # with C2 left nonzero the certificate against 0 * id fails
    data["cert_q2"] = restricted_candidate().to_json()["cert_q2"]
    with pytest.raises(knorrer.UlrichError, match=r"^candidate certificates failed: "
                                                  r"A @ C != q2 \* id at entry"):
        knorrer.UlrichCandidate.from_json(data)


def gram(field, q):
    """The Gram matrix S of a quadric q = x^T S x, zero for q = 0."""
    half = field.inv(field.of(2))
    return [[field.mul(c, half) for c in row] for row in doubled_form(q)[0]]


@pytest.mark.parametrize("field", [PrimeField(3), F, PrimeField(2**61 - 1), QQ], ids=str)
def test_resultant_ring_check_agrees_with_degree_three(field):
    # Res(Q1, Q2) != 0 exactly when degree 3 of k[u,v]/(Q1, Q2) is 0; negative
    # controls: Q2 = 0, Q2 = c Q1 and a common linear factor
    from ulrichmf import graded

    rng = random.Random(field.name)
    uv = ("u", "v")
    verdicts = {True: 0, False: 0}
    for trial in range(400):
        q1 = binary_quadric(field, rng)
        kind = trial % 5
        if kind == 0:
            q2 = Poly.zero(field, uv)
        elif kind == 1:
            q2 = q1.scale(wide_scalar(field, rng, 0.2))
        elif kind == 2:
            line = Poly.from_pairs(field, uv, [((1, 0), wide_scalar(field, rng, 0.2)),
                                               ((0, 1), wide_scalar(field, rng, 0.2))])
            q1 = line * Poly.from_pairs(field, uv, [((1, 0), wide_scalar(field, rng, 0.2)),
                                                    ((0, 1), wide_scalar(field, rng, 0.2))])
            q2 = line * Poly.from_pairs(field, uv, [((1, 0), wide_scalar(field, rng, 0.2)),
                                                    ((0, 1), wide_scalar(field, rng, 0.2))])
        else:
            q2 = binary_quadric(field, rng)
        pencil = QuadricPencil(field, gram(field, q1), gram(field, q2), uv)
        assert (quadric(pencil, 1), quadric(pencil, 2)) == (q1, q2)
        resultant = knorrer._resultant(field, pencil)
        assert_field_scalar(field, resultant)
        three = graded.graded_quotient_dims(field, uv, [q1, q2], [3]) == [0]
        assert (not field.is_zero(resultant)) == three, (q1, q2)
        if kind in (0, 1, 2):
            assert field.is_zero(resultant), (kind, q1, q2)
        verdicts[three] += 1
    assert min(verdicts.values()) >= 40, verdicts


def binary_quadric(field, rng):
    """A random quadric in (u, v): zero, a multiple of a fixed one, or any."""
    uv = ("u", "v")
    return Poly.from_pairs(field, uv, [((2 - k, k), wide_scalar(field, rng, 0.3)) for k in range(3)])


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5), PrimeField(7), F,
                                   PrimeField(2**61 - 1), QQ], ids=str)
def test_ring_check_in_degree_three_agrees_with_four_degrees(field):
    # k[u,v]/(q1, q2) has dimensions 1, 2, 1, 0 exactly when its degree 3 is 0
    from ulrichmf import graded

    rng = random.Random(field.name)
    uv = ("u", "v")
    verdicts = {True: 0, False: 0}
    for trial in range(240):
        q1 = binary_quadric(field, rng)
        kind = trial % 4
        if kind == 0:
            q2 = Poly.zero(field, uv)
        elif kind == 1:
            q2 = q1.scale(wide_scalar(field, rng, 0.2))
        else:
            q2 = binary_quadric(field, rng)
        four = graded.graded_quotient_dims(field, uv, [q1, q2], range(4)) == [1, 2, 1, 0]
        three = graded.graded_quotient_dims(field, uv, [q1, q2], [3]) == [0]
        assert three == four, (q1, q2)
        verdicts[four] += 1
    assert min(verdicts.values()) >= 40, verdicts


def isotropy_reference(field, g):
    """(x|y) G (y|x)^T expanded as a polynomial, term by term."""
    half = len(g) // 2
    names = knorrer.xy_variables(half - 1)
    z = [Poly.variable(field, names, v) for v in names]
    yx = z[half:] + z[:half]
    acc = Poly.zero(field, names)
    for i, row in enumerate(g):
        for j, c in enumerate(row):
            acc = acc + (z[i] * yx[j]).scale(c)
    return acc


@pytest.mark.parametrize("field", [F, QQ], ids=["F10009", "Q"])
def test_isotropy_check_matches_the_polynomial_identity(field, monkeypatch):
    # with the skew check bypassed, G P + (G P)^T = 0 must hold exactly when
    # the polynomial (x|y) G (y|x)^T is zero
    monkeypatch.setattr(knorrer, "check_skew", lambda field, lam: len(lam))
    rng = random.Random(71)
    verdicts = set()
    for trial in range(30):
        lam = [[field.zero] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                lam[i][j] = random_scalar(field, rng)
                lam[j][i] = field.neg(lam[i][j])
        if trial % 3:  # one diagonal or off-diagonal entry off
            i, j = rng.randrange(6), rng.randrange(6)
            lam[i][j] = field.add(lam[i][j], field.one)
        g = [list(lam[3 + i]) if i < 3 else list(lam[i - 3]) for i in range(6)]
        isotropic = isotropy_reference(field, g).is_zero()
        verdicts.add(isotropic)
        if isotropic:
            assert knorrer.g_lambda(field, lam) == g
        else:
            with pytest.raises(knorrer.UlrichError,
                               match=re.escape("isotropy certificate failed: (x|y)G(y|x) != 0")):
                knorrer.g_lambda(field, lam)
    assert verdicts == {True, False}


class CountingField(PrimeField):
    """F_p that records every value it is asked to coerce."""

    def __init__(self, p):
        super().__init__(p)
        self.coerced = []

    def of(self, value):
        self.coerced.append(value)
        return super().of(value)


@pytest.mark.parametrize("targets, squares", [([1, 2, 3, 4, 5, 6], 0), ([1, 2, 4], 4)])
def test_fresh_root_tries_each_nonzero_residue_once(targets, squares):
    # F_7 with every residue taken, and with every square taken when one more
    # square is needed: the search gives up after 1, ..., 6
    field = CountingField(7)
    with pytest.raises(knorrer.UlrichError, match="could not find a fresh root in the field"):
        knorrer.fresh_root_for(field, targets, needed_squares=squares)
    assert field.coerced == targets + list(range(1, 7))
