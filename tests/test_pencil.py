import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from ulrichmf import binary, pencil
from ulrichmf.fields import QQ, PrimeField
from ulrichmf.poly import Poly, PolyError

from tests.poly_reference import (bilinear_matrix, matrix_poly, pencil_determinant,
                                  pencil_from_quadrics, quadric)
from tests.scalars import assert_field_scalar


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
    return pencil_from_quadrics(q1, q2)


def test_bilinear_polarization_example():
    q = Poly.from_pairs(QQ, ("x0", "y0"), [((1, 1), 1)])
    b = bilinear_matrix(q)
    assert b == [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]
    assert b == polarization_oracle(q)


def test_bilinear_single_square():
    q = Poly.from_pairs(QQ, ("x",), [((2,), 1)])
    assert bilinear_matrix(q) == [[Fraction(1)]]


def test_bilinear_matches_polarization_formula():
    field = PrimeField(13)
    names = ("x0", "x1", "y0", "y1")
    q = Poly.from_pairs(field, names, [((1, 0, 1, 0), 1), ((0, 1, 0, 1), 1)])
    assert bilinear_matrix(q) == polarization_oracle(q)


def test_bilinear_rejects_non_quadratic():
    x = Poly.variable(QQ, ("x",), "x")
    for q in (x, x * x + x, x * x * x, Poly.zero(QQ, ("x",))):
        with pytest.raises(pencil.PencilError,
                           match="^bilinear_matrix needs a nonzero homogeneous quadratic$"):
            bilinear_matrix(q)


def test_discriminant_two_squares():
    q1 = Poly.from_pairs(QQ, ("x", "y"), [((2, 0), 1), ((0, 2), 1)])
    q2 = Poly.from_pairs(QQ, ("x", "y"), [((2, 0), 1), ((0, 2), -1)])
    p = pencil_from_quadrics(q1, q2)
    disc = p.discriminant()
    expect = binary.normalize(
        binary.linear_form(QQ, 1, 1) * binary.linear_form(QQ, 1, -1)
    )
    assert disc == expect


def _dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def _mat_mul(field, a, b):
    """Scalar matrix product by row-column dot products: the congruence oracle."""
    bt = list(zip(*b))
    return [[_dot(field, row, col) for col in bt] for row in a]


def random_scalar(field, rng):
    if isinstance(field, PrimeField):
        return field.of(rng.randrange(field.p))
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))


def random_symmetric(field, rng, r):
    b = [[field.zero] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            b[i][j] = b[j][i] = random_scalar(field, rng)
    return b


def random_invertible(field, rng, r):
    from ulrichmf import linalg

    while True:
        m = [[random_scalar(field, rng) for _ in range(r)] for _ in range(r)]
        if not field.is_zero(linalg.det(field, m)):
            return m


@pytest.mark.parametrize("field", [PrimeField(10009), PrimeField(2**61 - 1), QQ],
                         ids=["p10009", "p2^61-1", "Q"])
@pytest.mark.parametrize("seed", range(3))
def test_congruence_matches_scalar_products(field, seed):
    import random

    rng = random.Random(seed)
    r = 2 + seed
    sym = [random_symmetric(field, rng, r) for _ in range(2)]
    p = pencil.QuadricPencil(field, *sym)
    m = random_invertible(field, rng, r)
    mt = [list(row) for row in zip(*m)]
    c1, c2 = (_mat_mul(field, mt, _mat_mul(field, b, m)) for b in sym)
    conj = p.congruence(m)
    assert (conj.b1, conj.b2) == (c1, c2)
    # the field's own scalars, not numpy ones: str prints them as the field does
    for x in (x for b in (conj.b1, conj.b2) for row in b for x in row):
        assert_field_scalar(field, x)


def _kill_last(field, b):
    """b with its last row and column zero: x_{r-1} in the kernel."""
    r = len(b)
    return [[field.zero if r - 1 in (i, j) else b[i][j] for j in range(r)] for i in range(r)]


def test_discriminant_matches_bareiss_on_matrix_poly():
    # the scalar path (det(x B1 + B2) at dim + 1 points, interpolated) against
    # fraction-free elimination of the graded matrix s B1 + t B2; F_5 puts
    # dim 4 on the interpolation side with p = dim + 1 and dims 5, 6 on the
    # lift to Q
    import random

    rng = random.Random(21)
    for field in (PrimeField(10009), PrimeField(2**61 - 1), QQ, PrimeField(5)):
        for r in range(1, 7):
            b1, b2 = random_symmetric(field, rng, r), random_symmetric(field, rng, r)
            for kind, pair in (("generic", (b1, b2)), ("singular B1", (_kill_last(field, b1), b2)),
                               ("identically singular",
                                (_kill_last(field, b1), _kill_last(field, b2)))):
                p = pencil.QuadricPencil(field, *pair)
                bareiss = pencil_determinant(p)
                if kind == "identically singular":
                    assert bareiss.is_zero()
                    with pytest.raises(pencil.PencilError, match="identically singular"):
                        p.discriminant()
                    continue
                assert not bareiss.is_zero(), (field, r, kind)
                assert p.discriminant() == binary.normalize(bareiss), (field, r, kind)
                if kind == "singular B1":
                    assert binary.t_valuation(p.discriminant()) > 0


@pytest.mark.parametrize("p_small", [3, 5, 7])
def test_small_prime_discriminant_matches_bareiss(p_small, monkeypatch):
    # p < dim + 1: det(x B1 + B2) is interpolated over Q on the integer
    # residues and reduced mod p, against elimination over F_p[s, t]
    import random

    field = PrimeField(p_small)
    rng = random.Random(p_small + 100)
    lifted = []
    real = pencil.QuadricPencil._det_coefficients
    monkeypatch.setattr(pencil.QuadricPencil, "_det_coefficients",
                        lambda self: lifted.append(self.field) or real(self))
    nonzero = 0
    for r in range(p_small, 11):
        for _ in range(2):
            b1, b2 = random_symmetric(field, rng, r), random_symmetric(field, rng, r)
            for kind, pair in (("generic", (b1, b2)), ("singular B1", (_kill_last(field, b1), b2)),
                               ("identically singular",
                                (_kill_last(field, b1), _kill_last(field, b2)))):
                p = pencil.QuadricPencil(field, *pair)
                bareiss = pencil_determinant(p)
                if bareiss.is_zero():
                    with pytest.raises(pencil.PencilError, match="identically singular"):
                        p.discriminant()
                    continue
                assert kind != "identically singular"
                assert p.discriminant() == binary.normalize(bareiss), (r, kind)
                if kind == "singular B1":
                    assert binary.t_valuation(p.discriminant()) > 0
                nonzero += 1
    assert nonzero >= 3 * (11 - p_small) and set(lifted) == {QQ}


def test_rational_discriminant_reduces_to_the_prime_one():
    # an integer pencil: its discriminant over Q, reduced mod p, is the one
    # over F_p whenever the coefficient normalize divides by is a unit mod p
    import random

    rng = random.Random(8)
    field = PrimeField(10009)
    checked = 0
    for r in range(1, 7):
        for _ in range(3):
            ints = [[[0] * r for _ in range(r)] for _ in range(2)]
            for b in ints:
                for i in range(r):
                    for j in range(i, r):
                        b[i][j] = b[j][i] = rng.randrange(-20, 21)
            rational = pencil.QuadricPencil(QQ, *([[QQ.of(c) for c in row] for row in b]
                                                   for b in ints))
            prime = pencil.QuadricPencil(field, *([[field.of(c) for c in row] for row in b]
                                                   for b in ints))
            raw = pencil_determinant(rational)
            lead = next(raw.coefficient((i, r - i)) for i in range(r, -1, -1)
                        if raw.coefficient((i, r - i)))
            if lead.numerator % field.p == 0:
                continue
            # from_pairs coerces each Fraction into F_p
            reduced = Poly.from_pairs(field, binary.ST, rational.discriminant().terms.items())
            assert prime.discriminant() == reduced
            checked += 1
    assert checked >= 15


def cofactor_det_scalarized(p):
    """Independent full-expansion discriminant oracle via the cofactor rule."""
    from tests.test_polymatrix import cofactor_det

    return cofactor_det(matrix_poly(p))


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

        if linalg.det(field, s) != 0:
            break
    st_ = [list(row) for row in zip(*s)]
    b1 = _mat_mul(field, st_, _mat_mul(field, p.b1, s))
    b2 = _mat_mul(field, st_, _mat_mul(field, p.b2, s))
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
    p = pencil_from_quadrics(q1, q2)
    diag = pencil.simultaneous_diagonalize(p)
    assert len(diag.factors) == 2
    assert not proportional_reference(field, diag.factors[0], diag.factors[1])
    # conjugation identity already verified inside; factors rebuild the discriminant
    assert binary.normalize(diag.factors[0] * diag.factors[1]) == p.discriminant()


def proportional_reference(field, f, g) -> bool:
    """The pairwise test that the distinct-points check of ``Diagonalization``
    replaced: a1 b2 - a2 b1 = 0 for f = a1 s + b1 t and g = a2 s + b2 t."""
    a1, b1 = f.coefficient((1, 0)), f.coefficient((0, 1))
    a2, b2 = g.coefficient((1, 0)), g.coefficient((0, 1))
    return field.is_zero(field.sub(field.mul(a1, b2), field.mul(a2, b1)))


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5), PrimeField(10009),
                                   PrimeField(2**61 - 1), QQ], ids=str)
def test_factors_are_refused_iff_two_are_proportional(field):
    # small coefficients, so that over F_3 and F_5 many lists repeat a point
    # of P^1; a = 0 is the point at infinity
    rng = random.Random(101)
    verdicts = set()
    for _ in range(300):
        forms, size = [], rng.randrange(1, 7)
        while len(forms) < size:
            a, b = field.of(rng.choice([0, 0, *range(-5, 6)])), field.of(rng.randrange(-5, 6))
            if not (field.is_zero(a) and field.is_zero(b)):
                forms.append(binary.linear_form(field, a, b))
        refused = any(proportional_reference(field, f, g)
                      for f, g in itertools.combinations(forms, 2))
        verdicts.add(refused)
        if refused:
            with pytest.raises(pencil.PencilError,
                               match="^diagonal factors must be pairwise non-proportional$"):
                pencil.Diagonalization(field, forms, None)
        else:
            assert pencil.Diagonalization(field, forms, None).factors == forms
    assert verdicts == {False, True}


@pytest.mark.parametrize("field", [PrimeField(10009), QQ], ids=str)
def test_a_zero_or_nonlinear_factor_is_refused_before_any_pair(field):
    # s + t appears twice, yet the malformed factor is named
    form = binary.linear_form(field, field.one, field.one)
    bad = {"zero binary form": Poly(field, binary.ST, {}),
           "expected degree 1, got 2": form * form}
    for message, factor in bad.items():
        for factors in ([factor], [form, form, factor], [factor, form, form]):
            with pytest.raises(PolyError, match=f"^{message}$"):
                pencil.Diagonalization(field, factors, None)


def verify_diagonalization(p, diag):
    """The exact check M^T (s B1 + t B2) M = diag(f_1, ..., f_r) of diag's basis M."""
    pencil._check_diagonalization(p, diag, p.congruence(diag.basis))


def gram_mismatch(field, p, diag):
    """The first (a, b), row by row, where the scalar products M^T B1 M and
    M^T B2 M differ from the coefficients of diag(f_1, ..., f_r), or None."""
    m = diag.basis
    mt = [list(row) for row in zip(*m)]
    c1, c2 = (_mat_mul(field, mt, _mat_mul(field, b, m)) for b in (p.b1, p.b2))
    want = [(f.coefficient((1, 0)), f.coefficient((0, 1))) for f in diag.factors]
    return next(((a, b) for a in range(p.dim) for b in range(p.dim)
                 if (c1[a][b], c2[a][b]) != (want[a] if a == b else (0, 0))), None)


def test_verify_diagonalization_rejects_perturbed_basis():
    field = PrimeField(13)
    q1 = Poly.from_pairs(field, ("x", "y"), [((1, 1), 2)])
    q2 = Poly.from_pairs(field, ("x", "y"), [((2, 0), 1), ((0, 2), -1)])
    p = pencil_from_quadrics(q1, q2)
    diag = pencil.simultaneous_diagonalize(p)
    good = [row[:] for row in diag.basis]
    assert gram_mismatch(field, p, diag) is None
    for i in range(2):
        for j in range(2):
            diag.basis = [row[:] for row in good]
            diag.basis[i][j] = field.add(diag.basis[i][j], field.one)
            # perturbing basis vector j moves only row j and column j of M^T B M
            where = gram_mismatch(field, p, diag)
            assert where is not None and j in where
            message = f"diagonalization verification failed at entry {where}"
            with pytest.raises(pencil.PencilError, match=re.escape(message) + "$"):
                verify_diagonalization(p, diag)
    diag.basis = good
    verify_diagonalization(p, diag)


def test_diagonalize_checks_the_congruence_it_read(monkeypatch):
    # one congruence per diagonalization: the factors are read off its diagonal
    # and the same product is checked, so a wrong off-diagonal entry still fails
    field = PrimeField(13)
    q1 = Poly.from_pairs(field, ("x", "y"), [((1, 1), 2)])
    q2 = Poly.from_pairs(field, ("x", "y"), [((2, 0), 1), ((0, 2), -1)])
    p = pencil_from_quadrics(q1, q2)
    real = pencil.QuadricPencil.congruence
    calls = []

    def counted(self, m):
        calls.append(m)
        return real(self, m)

    monkeypatch.setattr(pencil.QuadricPencil, "congruence", counted)
    diag = pencil.simultaneous_diagonalize(p)
    assert len(calls) == 1 and calls[0] == diag.basis

    def off_diagonal_one(self, m):
        conj = real(self, m)
        b1 = [list(row) for row in conj.b1]
        b1[0][1] = b1[1][0] = field.add(b1[0][1], field.one)
        return pencil.QuadricPencil(field, b1, conj.b2)

    monkeypatch.setattr(pencil.QuadricPencil, "congruence", off_diagonal_one)
    p._roots = None
    with pytest.raises(pencil.PencilError,
                       match=re.escape("diagonalization verification failed at entry (0, 1)")):
        pencil.simultaneous_diagonalize(p)


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
    assert pencil.smoothness_check(pencil.QuadricPencil(field, b1, b2)) == (True, pencil.SMOOTH)

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


@pytest.mark.parametrize("field", [PrimeField(10009), PrimeField(2**61 - 1), QQ], ids=str)
def test_subset_product_matches_the_poly_product_chain(field):
    """Every f_I at g <= 3 against the chain of Poly products it replaced, term
    order included; the factors mix monic roots, a scaled factor and t."""
    for genus in (0, 1, 2, 3):
        factors = [binary.root_factor(field, field.of(r)) for r in range(1, 2 * genus + 2)]
        factors.append(binary.linear_form(field, field.of(0), field.of(3)))
        if genus:
            factors[0] = factors[0].scale(field.of(-2))
        h = pencil.HyperellipticData.from_factors(field, factors)
        branches = range(1, h.nbranch + 1)
        for size in range(h.nbranch + 1):
            for subset in itertools.combinations(branches, size):
                want = Poly.const(field, binary.ST, 1)
                for i in subset:
                    want = want * h.factor(i)
                got = h.subset_product(subset)
                assert list(got.terms.items()) == list(want.terms.items())
                for c in got.terms.values():
                    assert_field_scalar(field, c)
        assert h.subset_product(()) == Poly.const(field, binary.ST, 1)
        assert h.f is h.subset_product(branches)


def test_quadric_round_trip():
    field = PrimeField(13)
    p = diagonal_pencil_matrices(field, 1, [1, 2])
    for which, b in ((1, p.b1), (2, p.b2)):
        assert bilinear_matrix(quadric(p, which)) == b
        data = pencil.quadric_json(field, b)
        assert data == quadric(p, which).to_json()
        assert pencil.gram_matrix(field, p.dim, pencil.quadric_terms(field, p.variables, data)) == b


CODEC_FIELDS = [PrimeField(3), PrimeField(10009), PrimeField(2**61 - 1), QQ]


def random_gram(field, rng, dim, zero_share):
    """A random symmetric dim x dim scalar matrix, about zero_share of it zero:
    residues spread over F_p, and signed fractions over Q."""
    s = [[field.zero] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if rng.random() >= zero_share:
                c = (Fraction(rng.randrange(-99, 100), rng.randrange(1, 10)) if field is QQ
                     else rng.randrange(field.p))
                s[i][j] = s[j][i] = field.of(c)
    return s


@pytest.mark.parametrize("field", CODEC_FIELDS, ids=str)
def test_quadric_codec_matches_the_poly_route(field):
    # the writer against Poly.to_json of the quadric's Poly, byte for byte, and
    # the reader against the Poly reader with 2 S halved; S = 0 included
    rng = random.Random(f"quadric codec {field.name}")
    for trial in range(200):
        dim = rng.randrange(1, 9)
        s = random_gram(field, rng, dim, (0.0, 0.5, 0.9, 1.0)[trial % 4])
        names = tuple(f"x{i}" for i in range(dim))
        poly = quadric(pencil.QuadricPencil(field, s, s, names), 1)
        data = pencil.quadric_json(field, s)
        assert json.dumps(data) == json.dumps(poly.to_json())
        terms = pencil.quadric_terms(field, names, json.loads(json.dumps(data)))
        read = pencil.gram_matrix(field, dim, terms)
        assert read == s
        for c in (c for row in read for c in row):
            assert_field_scalar(field, c)
        if poly.is_zero():
            assert data == [] and terms == {}
        else:
            assert bilinear_matrix(Poly.from_json(field, names, data)) == read


@pytest.mark.parametrize("field", CODEC_FIELDS, ids=str)
def test_quadric_reader_judges_the_terms(field):
    # a term of another degree gives None, a malformed term the Poly reader's
    # error, and terms that cancel are dropped before their width is judged
    names = ("x0", "x1")
    for data in ([[[1, 0], 1, 1]], [[[2, 1], 1, 1]], [[[0, 0], 1, 1]],
                 [[[2, 0], 1, 1], [[0, 1], 1, 1]]):
        assert pencil.quadric_terms(field, names, data) is None
    for data, message in (([[[2, 0, 0], 1, 1]], "does not match variables"),
                          ([[[3, -1], 1, 1]], "has a negative exponent"),
                          (5, "must be a list of terms")):
        with pytest.raises(PolyError, match=message):
            pencil.quadric_terms(field, names, data)
    cancel = [[[1, 1, 0], 1, 1], [[1, 1, 0], -1, 1]]
    assert pencil.quadric_terms(field, names, cancel) == {}
    terms = pencil.quadric_terms(field, names, [[[1, 1], 3, 1], [[1, 1], 1, 1]] + cancel)
    assert pencil.gram_matrix(field, 2, terms) == [[0, 2], [2, 0]]


# -- discriminants read off diagonalizations ---------------------------------


def interpolated_discriminant(p):
    """The reference: det(x B1 + B2) at x = 0 .. dim, interpolated and
    homogenized, as a non-diagonal pencil over a large enough field takes it;
    the zero form for an identically singular pencil."""
    from ulrichmf import linalg

    field = p.field
    points = [field.of(x) for x in range(p.dim + 1)]
    values = [linalg.det(field, p.at(x)) for x in points]
    det = binary.homogenize(field, binary.interpolate_univariate(field, points, values), p.dim)
    return det if det.is_zero() else binary.normalize(det)


def random_diagonal(field, rng, r, zero_form=False):
    """A diagonal pencil of size r, the diagonal form of index 0 zero if asked."""
    b1, b2 = ([[field.zero] * r for _ in range(r)] for _ in range(2))
    for i in range(r):
        if not (zero_form and i == 0):
            b1[i][i], b2[i][i] = random_scalar(field, rng), random_scalar(field, rng)
    return pencil.QuadricPencil(field, b1, b2)


def no_interpolation(monkeypatch):
    monkeypatch.setattr(binary, "interpolate_univariate",
                        lambda *args: pytest.fail("a discriminant was interpolated"))
    monkeypatch.setattr(binary, "roots", lambda f: pytest.fail("a discriminant was split"))


FIELDS = [PrimeField(10009), PrimeField(2**61 - 1), QQ]
FIELD_IDS = ["p10009", "p2^61-1", "Q"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_diagonal_discriminant_matches_interpolation(field, monkeypatch):
    import random

    rng = random.Random(71)
    for r in range(1, 8):
        for zero_form in (False, True):
            for _ in range(3):
                p = random_diagonal(field, rng, r, zero_form)
                want = interpolated_discriminant(p)
                with monkeypatch.context() as patch:
                    no_interpolation(patch)
                    if zero_form:
                        assert want.is_zero()
                        with pytest.raises(pencil.PencilError, match="identically singular"):
                            p.discriminant()
                    else:
                        assert p.discriminant() == want, (r, p.b1, p.b2)


@pytest.mark.parametrize("p_small", [3, 5])
def test_diagonal_discriminant_below_the_point_count_matches_bareiss(p_small):
    # p < dim + 1: too few points to interpolate, and a diagonal pencil needs none
    import random

    field = PrimeField(p_small)
    rng = random.Random(p_small)
    for r in range(p_small, p_small + 4):
        for zero_form in (False, True):
            for _ in range(4):
                p = random_diagonal(field, rng, r, zero_form)
                bareiss = pencil_determinant(p)
                if bareiss.is_zero():
                    with pytest.raises(pencil.PencilError, match="identically singular"):
                        p.discriminant()
                else:
                    assert p.discriminant() == binary.normalize(bareiss)
                assert bareiss.is_zero() or not zero_form


def diagonalizable(field, rng, lams):
    """M^T diag(a_i) M and M^T diag(-lam_i a_i) M for random a_i != 0 and a
    random invertible M: a pencil with discriminant prod (s - lam_i t) whose
    Gram matrices are, for r > 1, not diagonal."""
    r = len(lams)
    a = [random_scalar(field, rng) for _ in lams]
    while any(field.is_zero(x) for x in a):
        a = [random_scalar(field, rng) for _ in lams]
    d1 = [[a[i] if i == j else field.zero for j in range(r)] for i in range(r)]
    d2 = [[field.neg(field.mul(field.of(lams[i]), a[i])) if i == j else field.zero
           for j in range(r)] for i in range(r)]
    return pencil.QuadricPencil(field, d1, d2).congruence(random_invertible(field, rng, r))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_claimed_roots_fill_the_interpolated_discriminant(field, monkeypatch):
    import random

    rng = random.Random(73)
    for r in range(1, 8):
        lams = rng.sample(range(-40, 40), r)
        claimed = diagonalizable(field, rng, lams)
        fresh = pencil.QuadricPencil(field, claimed.b1, claimed.b2)
        assert r == 1 or not fresh._is_diagonal()
        shuffled = rng.sample(lams, r)
        with monkeypatch.context() as patch:
            no_interpolation(patch)
            diag = pencil.simultaneous_diagonalize(claimed, shuffled)
        # the same diagonalization, discriminant and roots as the split path
        split = pencil.simultaneous_diagonalize(fresh)
        assert (diag.factors, diag.basis) == (split.factors, split.basis)
        assert claimed.discriminant() == fresh.discriminant() == interpolated_discriminant(fresh)
        assert claimed.roots() == fresh.roots() == binary.roots(fresh.discriminant())


def singular_b1_pencil(field):
    """B1 = diag(0, 1), B2 = diag(1, -2): discriminant t (s - 2t), a root at infinity."""
    return pencil.QuadricPencil(field, [[field.zero, field.zero], [field.zero, field.one]],
                                [[field.one, field.zero], [field.zero, field.of(-2)]])


def perturbed(p):
    """p with one Gram entry of B2, (0, 1) and so (1, 0), moved by one."""
    field = p.field
    b2 = [list(row) for row in p.b2]
    b2[0][1] = b2[1][0] = field.add(b2[0][1], field.one)
    return pencil.QuadricPencil(field, p.b1, b2)


@pytest.mark.parametrize("case", ["non-root", "repeated", "too few", "infinity", "perturbed"])
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_claimed_roots_negative_controls(field, case):
    import random

    lams = [5, 1, 7, 3]
    p = diagonalizable(field, random.Random(79), lams)
    claimed, message = {
        "non-root": ([5, 1, 7, 4], "0-dimensional kernel at lam = 4,"),
        "repeated": ([5, 1, 7, 7], "need 4 distinct claimed roots, got 3 distinct of 4"),
        "too few": ([5, 1, 7], "need 4 distinct claimed roots, got 3 distinct of 3"),
        # 2 is the one finite root; no claim of two finite roots can hold
        "infinity": ([2, 9], "0-dimensional kernel at lam = 9,"),
        "perturbed": (lams, "0-dimensional kernel at lam = "),
    }[case]
    if case == "infinity":
        p = singular_b1_pencil(field)
    elif case == "perturbed":
        p = perturbed(p)
    with pytest.raises(pencil.PencilError, match=re.escape(message)):
        pencil.simultaneous_diagonalize(p, claimed)
    assert p._disc is None and p._roots is None


def split_basis(p):
    """The basis the nullspace path finds for p, from a fresh pencil of its
    Gram matrices, so p's discriminant and roots stay unfilled."""
    return pencil.simultaneous_diagonalize(pencil.QuadricPencil(p.field, p.b1, p.b2)).basis


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_claimed_roots_need_a_nonsingular_basis(field):
    # M^T B1 M = diag(a_i) with every a_i != 0 proves det M != 0, so a singular
    # claimed basis, column 3 the sum of columns 1 and 2, is refused by the
    # congruence, and no discriminant is filled
    import random

    p = diagonalizable(field, random.Random(83), [5, 1, 7, 3])
    basis = [row[:2] + [field.add(row[0], row[1])] + row[3:] for row in split_basis(p)]
    with pytest.raises(pencil.PencilError, match=re.escape("verification failed at entry (0, 2)")):
        pencil.simultaneous_diagonalize(p, [5, 1, 7, 3], basis)
    assert p._disc is None and p._roots is None


@pytest.mark.parametrize("case", ["changed entry", "repeated column", "zero column",
                                  "swapped columns", "not square"])
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_claimed_basis_negative_controls(field, case):
    # a claimed basis is trusted for nothing: each fault is refused with its
    # message, and no discriminant is filled
    import random

    lams = [5, 1, 7, 3]
    p = diagonalizable(field, random.Random(97), lams)
    basis = split_basis(p)
    assert pencil.simultaneous_diagonalize(pencil.QuadricPencil(field, p.b1, p.b2), lams,
                                           basis).basis == basis
    message = {
        "changed entry": "diagonalization verification failed at entry (0, 1)",
        # the factors are compared before the entries
        "repeated column": "diagonal factors must be pairwise non-proportional",
        "zero column": "isotropic eigenvector encountered",
        "swapped columns": "claimed root 1 is not the root of factor 1",
        "not square": "a claimed basis must be 4 x 4",
    }[case]
    if case == "changed entry":
        basis[0][0] = field.add(basis[0][0], field.one)
    elif case == "repeated column":
        basis = [row[:3] + row[2:3] for row in basis]
    elif case == "zero column":
        basis = [[field.zero] + row[1:] for row in basis]
    elif case == "swapped columns":
        basis = [row[1:2] + row[:1] + row[2:] for row in basis]
    else:
        basis = [row[:3] for row in basis]
    with pytest.raises(pencil.PencilError, match=re.escape(message)):
        pencil.simultaneous_diagonalize(p, lams, basis)
    assert p._disc is None and p._roots is None


def test_claimed_roots_check_each_factor(monkeypatch):
    # a congruence whose diagonal entry of B2 is off by one is still diagonal,
    # and its factors are read off it: the factor of root 1 no longer vanishes there
    import random

    field = PrimeField(10009)
    p = diagonalizable(field, random.Random(89), [5, 1, 7, 3])
    real = pencil.QuadricPencil.congruence

    def off_by_one(self, m):
        conj = real(self, m)
        b2 = [list(row) for row in conj.b2]
        b2[0][0] = field.add(b2[0][0], field.one)
        return pencil.QuadricPencil(field, conj.b1, b2)

    monkeypatch.setattr(pencil.QuadricPencil, "congruence", off_by_one)
    message = "claimed root 1 is not the root of factor 1"
    with pytest.raises(pencil.PencilError, match=re.escape(message)):
        pencil.simultaneous_diagonalize(p, [5, 1, 7, 3])
    assert p._disc is None and p._roots is None
