import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichmf.fields import QQ, PrimeField
from ulrichmf.poly import Poly, PolyError

from tests.poly_reference import constant_value, divexact

ST = ("s", "t")


def st_gens(field):
    return Poly.variable(field, ST, "s"), Poly.variable(field, ST, "t")


def brute_convolution(field, a, b):
    """Independent multiplication oracle: raw coefficient convolution."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = field.add(out.get(e, field.zero), field.mul(c1, c2))
    return Poly(field, a.vars, out)


def random_poly(rng, field, variables, max_deg=3, terms=4):
    pairs = []
    for _ in range(terms):
        exp = tuple(rng.randrange(max_deg + 1) for _ in variables)
        pairs.append((exp, rng.randrange(1, 50)))
    return Poly.from_pairs(field, variables, pairs)


def test_difference_of_squares():
    s, t = st_gens(QQ)
    assert (s + t) * (s - t) == s * s - t * t


def test_multiplication_by_zero():
    f7 = PrimeField(7)
    s, t = st_gens(f7)
    f = (s + t) ** 3
    assert (f * Poly.zero(f7, ST)).is_zero()


def test_f7_product_against_convolution_oracle():
    f7 = PrimeField(7)
    s, t = st_gens(f7)
    got = (s + t.scale(2)) * (s + t.scale(3))
    oracle = brute_convolution(f7, s + t.scale(2), s + t.scale(3))
    assert got == oracle
    # expanded by hand: s^2 + 5st + 6t^2 over F_7
    assert got.coefficient((2, 0)) == 1
    assert got.coefficient((1, 1)) == 5
    assert got.coefficient((0, 2)) == 6


def test_ring_axioms_random_instances():
    rng = random.Random(42)
    for field in (QQ, PrimeField(13)):
        for _ in range(30):
            a = random_poly(rng, field, ST)
            b = random_poly(rng, field, ST)
            c = random_poly(rng, field, ST)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


def test_mixed_fields_and_vars_rejected():
    a = Poly.const(QQ, ST, 1)
    b = Poly.const(PrimeField(7), ST, 1)
    with pytest.raises(PolyError):
        a + b
    c = Poly.const(QQ, ("x",), 1)
    with pytest.raises(PolyError):
        a * c


def test_homogeneity():
    s, t = st_gens(QQ)
    f = s * s + s * t
    assert f.is_homogeneous() and f.homogeneous_degree() == 2
    assert not (f + s).is_homogeneous()
    assert Poly.zero(QQ, ST).is_homogeneous()


def test_divexact():
    s, t = st_gens(QQ)
    f = (s + t) ** 2 * (s - t)
    assert divexact(f, s + t) == (s + t) * (s - t)
    with pytest.raises(PolyError):
        divexact(s + t, s * s)
    rng = random.Random(3)
    for _ in range(20):
        a = random_poly(rng, PrimeField(101), ("x", "y", "z"), 2, 3)
        b = random_poly(rng, PrimeField(101), ("x", "y", "z"), 2, 3)
        if a.is_zero() or b.is_zero():
            continue
        assert divexact(a * b, b) == a


def test_substitute():
    f13 = PrimeField(13)
    xy = ("x", "y")
    x, y = (Poly.variable(f13, xy, v) for v in xy)
    f = x * x + y
    s, t = st_gens(f13)
    g = f.substitute({"x": s + t, "y": s * t})
    assert g == (s + t) * (s + t) + s * t


def total_degree(f):
    """Max total degree; the zero polynomial reports -1."""
    return max((sum(e) for e in f.terms), default=-1)


def test_graded_part_and_degrees():
    s, t = st_gens(QQ)
    f = s * s + t
    assert total_degree(f) == 2
    assert total_degree(Poly.zero(QQ, ST)) == -1
    # on a homogeneous polynomial the total degree is the homogeneous degree
    assert not f.is_homogeneous()
    assert (s * s + s * t).homogeneous_degree() == total_degree(s * s + s * t) == 2
    with pytest.raises(PolyError):
        f.homogeneous_degree()


def test_json_round_trip():
    rng = random.Random(8)
    for field in (QQ, PrimeField(10009)):
        for _ in range(10):
            f = random_poly(rng, field, ("x", "y"))
            assert Poly.from_json(field, ("x", "y"), f.to_json()) == f


def evaluate_by_repeated_multiply(f, values):
    """Reference: one field multiply per unit of exponent."""
    field = f.field
    point = [field.of(values[v]) for v in f.vars]
    acc = field.zero
    for exp, coeff in f.terms.items():
        term = coeff
        for val, e in zip(point, exp):
            for _ in range(e):
                term = field.mul(term, val)
        acc = field.add(acc, term)
    return acc


def test_evaluate_matches_repeated_multiply():
    rng = random.Random(21)
    names = ("x", "y", "z")
    for field in (QQ, PrimeField(10009), PrimeField(2**61 - 1)):
        for _ in range(30):
            f = random_poly(rng, field, names, max_deg=7, terms=rng.randint(0, 6))
            point = {v: rng.randrange(-40, 40) for v in names}
            if field is QQ:
                point["y"] = Fraction(rng.randrange(-9, 9), rng.randrange(1, 9))
            assert f.evaluate(point) == evaluate_by_repeated_multiply(f, point)
    assert Poly.zero(QQ, ST).evaluate({"s": 2, "t": 3}) == 0


def substitute_by_repeated_multiply(f, images, target_vars):
    """Reference: the image of every term rebuilt by repeated multiplication."""
    field = f.field
    acc = Poly.zero(field, target_vars)
    for exp, coeff in f.terms.items():
        term = Poly.const(field, target_vars, coeff)
        for v, e in zip(f.vars, exp):
            for _ in range(e):
                term = term * images[v]
        acc = acc + term
    return acc


def test_pow_and_substitute_match_repeated_multiply(monkeypatch):
    rng = random.Random(5)
    xyz = ("x", "y", "z")
    for field in (QQ, PrimeField(10009)):
        s, t = st_gens(field)
        for _ in range(20):
            f = random_poly(rng, field, xyz, max_deg=5, terms=rng.randint(0, 6))
            images = {v: random_poly(rng, field, ST, max_deg=2, terms=3) for v in xyz}
            want = substitute_by_repeated_multiply(f, images, ST)
            assert f.substitute(images) == want
            base = images["x"]
            n = rng.randrange(0, 9)
            power = Poly.const(field, ST, 1)
            for _ in range(n):
                power = power * base
            assert base**n == power
        # unmapped variables keep their name
        u = Poly.variable(field, ("s", "t"), "s")
        assert (u**3).substitute({"t": s + t}) == s * s * s
    # a power costs one product per set bit plus one squaring per further bit
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    s, _ = st_gens(QQ)
    for n, products in ((0, 0), (1, 1), (2, 2), (3, 3), (8, 4), (13, 6)):
        calls.clear()
        s**n
        assert len(calls) == products, n


# -- differential tests against the replaced substitution ----------------------

FIELDS = (PrimeField(10009), QQ, PrimeField(2**61 - 1))


def substitute_reference(f, images, target_vars=None):
    """The substitution loop that the shared helper replaced: a power list per
    call, then one Poly.const per term, multiplied and added as Polys."""
    field = f.field
    if target_vars is None:
        sample = next((p for p in images.values()), None)
        target_vars = sample.vars if sample is not None else f.vars
    target_vars = tuple(target_vars)
    imgs = []
    for v in f.vars:
        if v in images:
            img = images[v]
            if img.vars != target_vars or img.field != field:
                raise PolyError("substitution images must share one target ring")
            imgs.append(img)
        else:
            imgs.append(Poly.variable(field, target_vars, v))
    powers = []
    for i, img in enumerate(imgs):
        row = [None, img]
        for _ in range(max((exp[i] for exp in f.terms), default=0) - 1):
            row.append(row[-1] * img)
        powers.append(row)
    acc = Poly.zero(field, target_vars)
    for exp, coeff in f.terms.items():
        term = Poly.const(field, target_vars, coeff)
        for row, e in zip(powers, exp):
            if e:
                term = term * row[e]
        acc = acc + term
    return acc


def assert_clean(p):
    """What the trusted constructor relies on: a variable tuple, exponents of
    its width made of ints, and no zero coefficient."""
    assert type(p.vars) is tuple
    for exp, c in p.terms.items():
        assert type(exp) is tuple and len(exp) == len(p.vars)
        assert all(type(e) is int for e in exp)
        assert not p.field.is_zero(c)


def scalars(field):
    # small values and their negatives make cancellations common
    small = st.sampled_from([1, 2, -1, -2]).map(field.of)
    if field is QQ:
        return small | st.fractions(min_value=-30, max_value=30, max_denominator=9)
    return small | st.integers(0, field.p - 1)


def polys(field, variables, max_deg=3, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_deg)] * len(variables))
    pairs = st.lists(st.tuples(exps, scalars(field)), max_size=max_terms)
    return pairs.map(lambda ps: Poly.from_pairs(field, variables, ps))


XYS = ("x", "y", "s")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_substitute_matches_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    f = data.draw(polys(field, XYS))
    # non-linear images; s is sometimes left unmapped and keeps its name
    images = {v: data.draw(polys(field, ST, max_deg=2, max_terms=3)) for v in ("x", "y")}
    if data.draw(st.booleans()):
        images["s"] = data.draw(polys(field, ST, max_deg=2, max_terms=3))
    # with no target ring given, the images' ring is the target
    target = data.draw(st.sampled_from([None, ST]))
    got = f.substitute(images, target)
    assert got == substitute_reference(f, images, target)
    assert got.vars == ST
    assert_clean(got)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_arithmetic_results_are_clean(data):
    field = data.draw(st.sampled_from(FIELDS))
    a, b = data.draw(polys(field, ST)), data.draw(polys(field, ST))
    c = data.draw(scalars(field))
    results = [a + b, a - b, a - a, -a, a * b, a.scale(c), a.scale(0), a ** 3, a ** 0]
    for r in results:
        assert_clean(r)
        # the validating constructor keeps every term of a trusted result
        assert Poly(field, r.vars, r.terms).terms == r.terms


def test_substitute_cancels_to_zero():
    for field in FIELDS:
        x, y = (Poly.variable(field, ("x", "y"), v) for v in ("x", "y"))
        s, t = st_gens(field)
        got = (x * x - y * y).substitute({"x": s + t, "y": s + t})
        assert got == Poly.zero(field, ST) and got.terms == {}


@pytest.mark.parametrize("data", [5, [1, 2], [[[1, 0], 1]], [[[1, 0], 1, 0]], [[1, 1, 1]]])
def test_from_json_rejects_wrong_shape(data):
    with pytest.raises(PolyError, match="must be"):
        Poly.from_json(QQ, ST, data)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    field = data.draw(st.sampled_from(FIELDS))
    a, b, c = (data.draw(polys(field, ST)) for _ in range(3))
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    if not b.is_zero():
        assert divexact(a * b, b) == a


def reference_ratio(a, b):
    """The scalar a / b by exact division, None unless the quotient is constant."""
    try:
        return constant_value(divexact(a, b))
    except PolyError:
        return None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ratio_matches_exact_division(data):
    field = data.draw(st.sampled_from(FIELDS))
    a, b = data.draw(polys(field, ST)), data.draw(polys(field, ST))
    c = field.of(data.draw(scalars(field)))
    if b.is_zero():
        with pytest.raises(PolyError, match="zero polynomial"):
            a.ratio(b)
        return
    for top in (a, a * b, b.scale(c), b + a.scale(c)):
        assert top.ratio(b) == reference_ratio(top, b), (top, b)
    assert b.scale(c).ratio(b) == c
    if any(any(exp) for exp in a.terms):
        assert (a * b).ratio(b) is None
