import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichmf import binary
from ulrichmf.fields import QQ, PrimeField
from ulrichmf.poly import Poly, PolyError
from ulrichmf.polymatrix import GradedFreeModule, MatrixError, PolyMatrix

from tests.poly_reference import determinant, matrix_from_json, rank

ST = binary.ST


def cofactor_det(m: PolyMatrix) -> Poly:
    """Cofactor-expansion determinant oracle (first row), exact."""
    n = m.nrows
    if n == 1:
        return m.entry(0, 0)
    acc = Poly.zero(m.field, m.vars)
    for j in range(n):
        a = m.entry(0, j)
        if a.is_zero():
            continue
        minor_rows = [
            [m.entry(i, k) for k in range(n) if k != j] for i in range(1, n)
        ]
        minor = PolyMatrix(m.field, m.vars, minor_rows)
        term = a * cofactor_det(minor)
        acc = acc + term.scale(m.field.of((-1) ** j))
    return acc


def random_binary_matrix(rng, field, n, max_deg=2):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            d = rng.randrange(max_deg + 1)
            coeffs = [rng.randrange(5) for _ in range(d + 1)]
            row.append(binary.binary_form(field, coeffs) if any(coeffs) else Poly.zero(field, ST))
        rows.append(row)
    return PolyMatrix(field, ST, rows)


def test_graded_free_module():
    m = GradedFreeModule([0, 2])
    assert m.rank == 2
    assert [m.hilbert(n) for n in range(4)] == [1, 2, 4, 6]


def test_mf_square_is_f_times_identity():
    f = binary.binary_form(QQ, [1, 0, 0, 0, -1])  # s^4 - t^4
    one = Poly.const(QQ, ST, 1)
    zero = Poly.zero(QQ, ST)
    phi = PolyMatrix(QQ, ST, [[zero, f], [one, zero]])
    prod = phi @ phi
    assert prod == PolyMatrix.scalar_matrix(QQ, ST, f, 2)


def test_identity_product():
    rng = random.Random(1)
    a = random_binary_matrix(rng, PrimeField(13), 3)
    assert a @ PolyMatrix.identity(PrimeField(13), ST, 3) == a


def test_scalar_matrix_matches_checked_constructor():
    f = binary.binary_form(PrimeField(13), [1, 2, 3])
    z = Poly.zero(PrimeField(13), ST)
    for n in range(4):
        want = PolyMatrix(PrimeField(13), ST, [[f if i == j else z for j in range(n)]
                                              for i in range(n)])
        got = PolyMatrix.scalar_matrix(PrimeField(13), list(ST), f, n)
        assert got == want and got.vars == ST and (got.nrows, got.ncols) == (n, n)
        assert got.row_degrees is None and got.col_degrees is None
    assert PolyMatrix.identity(QQ, ST, 2, scalar=3) == PolyMatrix.scalar_matrix(
        QQ, ST, Poly.const(QQ, ST, 3), 2)


@pytest.mark.parametrize("bad", [
    5,                                                    # not a Poly
    Poly.const(PrimeField(13), ("u", "v"), 1),            # another ring
    Poly.const(PrimeField(13), ("t", "s"), 1),            # the same names, reordered
    Poly.const(PrimeField(17), ST, 1),                    # another field
    Poly.const(QQ, ST, 1),
])
def test_scalar_matrix_rejects_bad_entry(bad):
    with pytest.raises(MatrixError, match="matrix ring"):
        PolyMatrix.scalar_matrix(PrimeField(13), ST, bad, 3)
    with pytest.raises(MatrixError, match="matrix ring"):
        PolyMatrix.scalar_matrix(PrimeField(13), ST, bad, 0)


def test_dimension_mismatch():
    a = PolyMatrix.zero(QQ, ST, 2, 3)
    b = PolyMatrix.zero(QQ, ST, 2, 2)
    with pytest.raises(MatrixError):
        a @ b


def test_det_2x2_symmetric():
    s = Poly.variable(QQ, ST, "s")
    t = Poly.variable(QQ, ST, "t")
    m = PolyMatrix(QQ, ST, [[s, t], [t, s]])
    assert determinant(m) == s * s - t * t


def test_det_antidiagonal():
    f13 = PrimeField(13)
    s = Poly.variable(f13, ST, "s")
    t = Poly.variable(f13, ST, "t")
    ell = s + t.scale(5)
    zero = Poly.zero(f13, ST)
    m = PolyMatrix(f13, ST, [[zero, ell], [ell, zero]])
    assert determinant(m) == (ell * ell).scale(f13.of(-1))


def test_det_against_cofactor_oracle():
    rng = random.Random(77)
    for field in (QQ, PrimeField(10009)):
        for n in range(1, 5):
            for _ in range(6):
                m = random_binary_matrix(rng, field, n)
                assert determinant(m) == cofactor_det(m)


def largest_nonzero_minor(m: PolyMatrix) -> int:
    """Rank oracle: the size of the largest minor whose cofactor_det is nonzero."""
    for k in range(min(m.nrows, m.ncols), 0, -1):
        for rows in combinations(range(m.nrows), k):
            for cols in combinations(range(m.ncols), k):
                minor = [[m.entry(i, j) for j in cols] for i in rows]
                if not cofactor_det(PolyMatrix(m.field, m.vars, minor)).is_zero():
                    return k
    return 0


def test_rank_matches_largest_nonzero_minor():
    rng = random.Random(13)
    for field in (PrimeField(13), PrimeField(10009), QQ):
        for _ in range(40):
            nrows, ncols = rng.randrange(5), rng.randrange(5)
            rows = [list(r) for r in random_binary_matrix(rng, field, max(nrows, ncols)).entries]
            rows = [r[:ncols] for r in rows[:nrows]]
            if nrows > 1 and rng.random() < 0.4:
                rows[rng.randrange(nrows)] = list(rows[0])  # a duplicate row
            if ncols and rng.random() < 0.4:
                j = rng.randrange(ncols)  # a zero column
                rows = [r[:j] + [Poly.zero(field, ST)] + r[j + 1 :] for r in rows]
            m = PolyMatrix(field, ST, rows, ncols=ncols)
            assert (m.nrows, m.ncols) == (nrows, ncols)
            assert rank(m) == largest_nonzero_minor(m)


def test_det_small_field_falls_back():
    # F_3 has too few points to interpolate a degree-4 determinant; the
    # reference takes this one, a graded matrix of linear forms, by elimination
    f3 = PrimeField(3)
    rows = [[binary.binary_form(f3, [1, k + j]) for j in range(4)] for k in range(4)]
    m = PolyMatrix(f3, ST, rows, row_degrees=[0] * 4, col_degrees=[1] * 4)
    assert determinant(m) == cofactor_det(m)


def test_det_non_homogeneous_uses_bareiss():
    s = Poly.variable(QQ, ST, "s")
    one = Poly.const(QQ, ST, 1)
    m = PolyMatrix(QQ, ST, [[s, one], [one, s]])
    assert determinant(m) == s * s - one


def test_multivariate_bareiss():
    f101 = PrimeField(101)
    xyz = ("x", "y", "z")
    x, y, z = (Poly.variable(f101, xyz, v) for v in xyz)
    m = PolyMatrix(f101, xyz, [[x, y, z], [y, z, x], [z, x, y]])
    expect = (x * y * z).scale(3) - (x**3 + y**3 + z**3)
    got = determinant(m)
    assert got == expect
    assert got == cofactor_det(m)


def test_non_square_rejected():
    with pytest.raises(MatrixError):
        determinant(PolyMatrix.zero(QQ, ST, 2, 3))


def test_homogeneity_check():
    f = binary.binary_form(QQ, [1, 0, 0, 0, -1])
    one = Poly.const(QQ, ST, 1)
    zero = Poly.zero(QQ, ST)
    phi = PolyMatrix(
        QQ, ST, [[zero, f], [one, zero]], row_degrees=[-2, 0], col_degrees=[0, 2]
    )
    assert phi.first_inhomogeneous() is None
    # row by row: (0, 1) holds f of degree 4 where 0 is wanted, before (1, 0)
    bad = phi.relabel(row_degrees=[0, 0], col_degrees=[0, 0])
    assert bad.first_inhomogeneous() == (0, 1)
    assert phi.relabel(row_degrees=[-2, 1], col_degrees=[0, 2]).first_inhomogeneous() == (1, 0)
    inhomogeneous = PolyMatrix(QQ, ST, [[zero, f + one]], row_degrees=[0], col_degrees=[0, 4])
    assert inhomogeneous.first_inhomogeneous() == (0, 1)
    with pytest.raises(MatrixError, match="no degree labels"):
        PolyMatrix(QQ, ST, [[one]]).first_inhomogeneous()


def test_kron_shapes_and_values():
    f13 = PrimeField(13)
    s = Poly.variable(f13, ST, "s")
    t = Poly.variable(f13, ST, "t")
    a = PolyMatrix(f13, ST, [[s]])
    b = PolyMatrix(f13, ST, [[t, s], [s, t]])
    k = a.kron(b)
    assert (k.nrows, k.ncols) == (2, 2)
    assert k.entry(0, 0) == s * t
    k2 = b.kron(a)
    assert k2.entry(1, 1) == t * s


def test_json_round_trip():
    rng = random.Random(11)
    m = random_binary_matrix(rng, PrimeField(10009), 3)
    m = m.relabel(row_degrees=[0, 1, 2], col_degrees=[1, 2, 3])
    back = matrix_from_json(PrimeField(10009), ST, m.to_json())
    assert back == m
    assert back.row_degrees == m.row_degrees
    assert back.col_degrees == m.col_degrees


def test_matrix_without_rows_keeps_its_columns():
    shape = lambda m: (m.nrows, m.ncols)
    a = matrix_from_json(QQ, ST, {"rows": 0, "cols": 3, "entries": []})
    assert shape(a) == (0, 3) and shape(PolyMatrix.zero(QQ, ST, 0, 4)) == (0, 4)
    assert shape(a.relabel([], [0, 1, 2])) == (0, 3)
    assert shape(a @ PolyMatrix.zero(QQ, ST, 3, 2)) == (0, 2)
    assert shape(matrix_from_json(QQ, ST, a.to_json())) == (0, 3)
    assert a != PolyMatrix.zero(QQ, ST, 0, 2)


def test_substitute():
    f13 = PrimeField(13)
    xy = ("x", "y")
    x, y = (Poly.variable(f13, xy, v) for v in xy)
    m = PolyMatrix(f13, xy, [[x + y, x]])
    s = Poly.variable(f13, ST, "s")
    t = Poly.variable(f13, ST, "t")
    sub = substitute_reference(m, {"x": s, "y": t})
    assert sub.entry(0, 0) == s + t
    assert sub.entry(0, 1) == s


# -- differential tests against the replaced product --------------------------

FIELDS = (PrimeField(10009), QQ, PrimeField(2**61 - 1))


def mul_reference(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The product that summing in place replaced: out[i][j] + a*b per contribution."""
    zero = Poly.zero(a.field, a.vars)
    out = [[zero for _ in range(b.ncols)] for _ in range(a.nrows)]
    for i in range(a.nrows):
        for k in range(a.ncols):
            if a.entry(i, k).is_zero():
                continue
            for j in range(b.ncols):
                if not b.entry(k, j).is_zero():
                    out[i][j] = out[i][j] + a.entry(i, k) * b.entry(k, j)
    if a.col_degrees is not None and a.col_degrees == b.row_degrees:
        return PolyMatrix(a.field, a.vars, out, a.row_degrees, b.col_degrees, b.ncols)
    return PolyMatrix(a.field, a.vars, out, ncols=b.ncols)


def substitute_reference(m: PolyMatrix, images, target_vars=None) -> PolyMatrix:
    """Poly.substitute on every entry: the matrix substitution of the tests."""
    rows = [[p.substitute(images, target_vars) for p in row] for row in m.entries]
    sample_vars = rows[0][0].vars if rows and rows[0] else (target_vars or m.vars)
    return PolyMatrix(m.field, sample_vars, rows)


def assert_clean(m: PolyMatrix):
    assert type(m.vars) is tuple and len(m.entries) == m.nrows
    for row in m.entries:
        assert len(row) == m.ncols
        for p in row:
            assert p.vars == m.vars and p.field == m.field
            for exp, c in p.terms.items():
                assert type(exp) is tuple and len(exp) == len(m.vars)
                assert all(type(e) is int for e in exp) and not m.field.is_zero(c)


def scalars(field):
    small = st.sampled_from([1, 2, -1, -2]).map(field.of)
    if field is QQ:
        return small | st.fractions(min_value=-30, max_value=30, max_denominator=9)
    return small | st.integers(0, field.p - 1)


def polys(field, variables, max_deg=2, max_terms=3):
    exps = st.tuples(*[st.integers(0, max_deg)] * len(variables))
    pairs = st.lists(st.tuples(exps, scalars(field)), max_size=max_terms)
    return pairs.map(lambda ps: Poly.from_pairs(field, variables, ps))


def matrices(data, field, variables, nrows, ncols):
    rows = [[data.draw(polys(field, variables)) for _ in range(ncols)] for _ in range(nrows)]
    return PolyMatrix(field, variables, rows, ncols=ncols)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mul_matches_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    # zero sizes included
    n, k, m = (data.draw(st.integers(0, 3)) for _ in range(3))
    a = matrices(data, field, ST, n, k)
    b = matrices(data, field, ST, k, m)
    if data.draw(st.booleans()):
        a = a.relabel(range(a.nrows), [1] * a.ncols)
        b = b.relabel([1] * b.nrows, range(b.ncols))
    got = a @ b
    want = mul_reference(a, b)
    assert got == want
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    assert (got.row_degrees, got.col_degrees) == (want.row_degrees, want.col_degrees)
    assert_clean(got)


def test_mul_cancels_to_zero():
    for field in FIELDS:
        s = Poly.variable(field, ST, "s")
        t = Poly.variable(field, ST, "t")
        # s*t + t*(-s): both contributions land on one entry and cancel
        got = PolyMatrix(field, ST, [[s, t]]) @ PolyMatrix(field, ST, [[t], [-s]])
        assert got.entry(0, 0) == Poly.zero(field, ST) and got.entry(0, 0).terms == {}


def test_first_mismatch():
    s = Poly.variable(QQ, ST, "s")
    zero = Poly.zero(QQ, ST)
    a = PolyMatrix(QQ, ST, [[s, zero], [zero, s]])
    assert a.first_mismatch(a) is None
    b = PolyMatrix(QQ, ST, [[s, zero], [s, s]])
    assert a.first_mismatch(b) == (1, 0)
    # an entry only one side has is a mismatch
    wider = PolyMatrix(QQ, ST, [[s, zero, zero], [zero, s, zero]])
    assert a.first_mismatch(wider) == (0, 2)
    taller = PolyMatrix(QQ, ST, [[s, zero], [zero, s], [s, zero], [zero, s]])
    assert taller.first_mismatch(a) == (2, 0)


@pytest.mark.parametrize("data", [
    5, [1, 2], {"rows": 1, "cols": 1}, {"rows": "1", "cols": 1, "entries": [[]]},
    {"rows": 1, "cols": 1, "entries": [5]}, {"rows": 1, "cols": 1, "entries": [[[[1, 0], 1]]]},
    {"rows": 1, "cols": 1, "entries": [[]], "row_degrees": 5},
])
def test_from_json_rejects_wrong_shape(data):
    with pytest.raises((MatrixError, PolyError), match="must be|needs"):
        matrix_from_json(QQ, ST, data)
