from fractions import Fraction

import pytest

from ulrichmf import binary, pencil
from ulrichmf.fields import QQ, PrimeField
from ulrichmf.poly import Poly

ST = binary.ST


def polarization_oracle(q):
    """Entrywise b_{i,j} = (q(x_i + x_j) - q(x_i) - q(x_j)) / 2, by direct evaluation."""
    field = q.field
    r = len(q.vars)
    half = field.inv(field.of(2))

    def unit(i):
        return {v: (field.one if k == i else field.zero) for k, v in enumerate(q.vars)}

    def unit_sum(i, j):
        vals = unit(i)
        vals[q.vars[j]] = field.add(vals[q.vars[j]], field.one)
        return vals

    out = []
    for i in range(r):
        row = []
        for j in range(r):
            val = field.sub(
                field.sub(q.evaluate(unit_sum(i, j)), q.evaluate(unit(i))),
                q.evaluate(unit(j)),
            )
            row.append(field.mul(val, half))
        out.append(row)
    return out


def diagonal_pencil_matrices(field, n, dvals):
    """B1, B2 for q1 = sum x_i y_i and q2 = -sum d_i^2 x_i y_i in 2n+2 variables."""
    names = [f"x{i}" for i in range(n + 1)] + [f"y{i}" for i in range(n + 1)]
    pairs1, pairs2 = [], []
    for i in range(n + 1):
        exp = [0] * (2 * n + 2)
        exp[i] = 1
        exp[n + 1 + i] = 1
        d2 = field.mul(field.of(dvals[i]), field.of(dvals[i]))
        pairs1.append((tuple(exp), field.one))
        pairs2.append((tuple(exp), field.neg(d2)))
    q1 = Poly.from_pairs(field, names, pairs1)
    q2 = Poly.from_pairs(field, names, pairs2)
    return pencil.QuadricPencil.from_quadrics(q1, q2)


def test_bilinear_polarization_example():
    q = Poly.from_pairs(QQ, ("x0", "y0"), [((1, 1), 1)])
    b = pencil.bilinear_matrix(q)
    assert b == [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]
    assert b == polarization_oracle(q)


def test_bilinear_single_square():
    q = Poly.from_pairs(QQ, ("x",), [((2,), 1)])
    assert pencil.bilinear_matrix(q) == [[Fraction(1)]]


def test_bilinear_matches_polarization_formula():
    field = PrimeField(13)
    names = ("x0", "x1", "y0", "y1")
    q = Poly.from_pairs(field, names, [((1, 0, 1, 0), 1), ((0, 1, 0, 1), 1)])
    assert pencil.bilinear_matrix(q) == polarization_oracle(q)


def test_bilinear_rejects_non_quadratic():
    with pytest.raises(pencil.PencilError):
        pencil.bilinear_matrix(Poly.variable(QQ, ("x",), "x"))


def test_discriminant_two_squares():
    q1 = Poly.from_pairs(QQ, ("x", "y"), [((2, 0), 1), ((0, 2), 1)])
    q2 = Poly.from_pairs(QQ, ("x", "y"), [((2, 0), 1), ((0, 2), -1)])
    p = pencil.QuadricPencil.from_quadrics(q1, q2)
    disc = p.discriminant()
    expect = binary.normalize(
        binary.linear_form(QQ, 1, 1) * binary.linear_form(QQ, 1, -1)
    )
    assert disc == expect


def cofactor_det_scalarized(p):
    """Independent full-expansion discriminant oracle via the cofactor rule."""
    from tests.test_polymatrix import cofactor_det

    return cofactor_det(p.matrix_poly())


def test_discriminant_diagonal_family_oracle():
    p = diagonal_pencil_matrices(QQ, 2, [1, 2, 3])
    disc = p.discriminant()
    oracle = binary.normalize(cofactor_det_scalarized(p))
    assert disc == oracle
    found, inf_mult, splits = binary.roots(disc)
    assert splits and inf_mult == 0
    assert found == [(Fraction(1), 2), (Fraction(4), 2), (Fraction(9), 2)]


def test_discriminant_invariance_under_congruence():
    field = PrimeField(10009)
    p = diagonal_pencil_matrices(field, 1, [1, 2])
    import random

    rng = random.Random(4)
    r = p.dim
    while True:
        s = [[rng.randrange(field.p) for _ in range(r)] for _ in range(r)]
        from ulrichmf import linalg

        if linalg.inverse(field, s) is not None:
            break
    st_ = [list(row) for row in zip(*s)]
    b1 = pencil._mat_mul(field, st_, pencil._mat_mul(field, p.b1, s))
    b2 = pencil._mat_mul(field, st_, pencil._mat_mul(field, p.b2, s))
    q = pencil.QuadricPencil(field, b1, b2)
    assert q.discriminant() == p.discriminant()


def test_degenerate_pencil_rejected():
    field = QQ
    zero = [[field.zero, field.zero], [field.zero, field.zero]]
    p = pencil.QuadricPencil(field, zero, zero)
    with pytest.raises(pencil.PencilError):
        p.discriminant()


def test_diagonalize_already_diagonal():
    field = QQ
    b1 = [[field.of(1), field.of(0)], [field.of(0), field.of(1)]]
    b2 = [[field.of(1), field.of(0)], [field.of(0), field.of(-1)]]
    p = pencil.QuadricPencil(field, b1, b2)
    diag = pencil.simultaneous_diagonalize(p)
    assert diag.factors[0] == binary.linear_form(QQ, 1, 1)
    assert diag.factors[1] == binary.linear_form(QQ, 1, -1)
    assert diag.basis == [[1, 0], [0, 1]]
    assert isinstance(diag, pencil.HyperellipticData)
    assert diag.genus == 0


def test_diagonalize_f13_example():
    field = PrimeField(13)
    # q1 = 2xy, q2 = x^2 - y^2: split pencil over F_13
    q1 = Poly.from_pairs(field, ("x", "y"), [((1, 1), 2)])
    q2 = Poly.from_pairs(field, ("x", "y"), [((2, 0), 1), ((0, 2), -1)])
    p = pencil.QuadricPencil.from_quadrics(q1, q2)
    diag = pencil.simultaneous_diagonalize(p)
    assert len(diag.factors) == 2
    assert not pencil._proportional(field, diag.factors[0], diag.factors[1])
    # conjugation identity already verified inside; factors rebuild the discriminant
    assert binary.normalize(diag.product()) == p.discriminant()


def test_verify_diagonalization_rejects_perturbed_basis():
    field = PrimeField(13)
    q1 = Poly.from_pairs(field, ("x", "y"), [((1, 1), 2)])
    q2 = Poly.from_pairs(field, ("x", "y"), [((2, 0), 1), ((0, 2), -1)])
    p = pencil.QuadricPencil.from_quadrics(q1, q2)
    diag = pencil.simultaneous_diagonalize(p)
    good = [row[:] for row in diag.basis]
    for i in range(2):
        for j in range(2):
            diag.basis = [row[:] for row in good]
            diag.basis[i][j] = field.add(diag.basis[i][j], field.one)
            with pytest.raises(pencil.PencilError, match="diagonalization verification failed"):
                pencil._verify_diagonalization(p, diag)
    diag.basis = good
    pencil._verify_diagonalization(p, diag)


def test_diagonalize_rejects_square_discriminant():
    field = QQ
    b1 = [[field.of(1), field.of(0)], [field.of(0), field.of(1)]]
    p = pencil.QuadricPencil(field, b1, b1)
    with pytest.raises(pencil.PencilError) as err:
        pencil.simultaneous_diagonalize(p)
    assert "squarefree" in str(err.value) or "root at infinity" in str(err.value)


def test_diagonalize_rejects_root_at_infinity():
    # B1 singular is the same thing as a discriminant root at infinity
    field = PrimeField(10009)
    b1 = [[field.of(0), field.of(0)], [field.of(0), field.of(1)]]
    b2 = [[field.of(1), field.of(0)], [field.of(0), field.of(2)]]
    p = pencil.QuadricPencil(field, b1, b2)
    with pytest.raises(pencil.PencilError) as err:
        pencil.simultaneous_diagonalize(p)
    assert "infinity" in str(err.value)


def test_smoothness_check():
    field = QQ
    # diag(s+t, s-t, s+2t, s-2t): smooth genus-1 case
    b1 = [[field.of(1 if i == j else 0) for j in range(4)] for i in range(4)]
    b2 = [
        [field.of(c if i == j else 0) for j in range(4)]
        for i, c in enumerate([1, -1, 2, -2])
    ]
    ok, note = pencil.smoothness_check(pencil.QuadricPencil(field, b1, b2))
    assert ok, note

    bad = diagonal_pencil_matrices(QQ, 2, [1, 2, 3])
    ok, note = pencil.smoothness_check(bad)
    assert not ok
    assert "all roots double" in note

    # t | disc: B1 singular
    b1s = [[field.of(0), field.of(0)], [field.of(0), field.of(1)]]
    b2s = [[field.of(1), field.of(0)], [field.of(0), field.of(1)]]
    ok, note = pencil.smoothness_check(pencil.QuadricPencil(field, b1s, b2s))
    assert not ok
    assert "infinity" in note


def test_hyperelliptic_subset_products():
    field = PrimeField(10009)
    h = pencil.HyperellipticData.from_factors(
        field, [binary.root_factor(field, c) for c in (1, 2, 3, 4)]
    )
    assert h.genus == 1
    f12 = h.subset_product({1, 2})
    assert f12 == binary.root_factor(field, 1) * binary.root_factor(field, 2)
    assert h.complement({1, 2}) == frozenset({3, 4})
    assert h.f == h.subset_product({1, 2, 3, 4})
    with pytest.raises(pencil.PencilError):
        h.subset_product({0})


def test_quadric_round_trip():
    field = PrimeField(13)
    p = diagonal_pencil_matrices(field, 1, [1, 2])
    q1 = p.quadric(1)
    assert pencil.bilinear_matrix(q1) == p.b1
    q2 = p.quadric(2)
    assert pencil.bilinear_matrix(q2) == p.b2
