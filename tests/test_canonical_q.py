"""Over Q every scalar is canonical: an int when it is integral, else a
Fraction whose denominator is greater than 1.  Each producer of Q scalars is
checked here, and so are the objects of whole constructions."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ulrichmf import binary, clifford, cli, knorrer, linalg, mf
from ulrichmf.fields import QQ, rational
from ulrichmf.poly import Poly

from tests.scalars import assert_field_scalar

VALUES = [0, 1, -1, 2, 6, -9, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(5, 6),
          Fraction(-1, 3)]


def test_rational_is_the_canonical_quotient():
    for n in range(-12, 13):
        for d in (-6, -4, -3, -2, -1, 1, 2, 3, 4, 6):
            got = rational(n, d)
            assert_field_scalar(QQ, got)
            assert got == Fraction(n, d)
    for x in (Fraction(4, 2), Fraction(-7, 1), Fraction(0), Fraction(5, 3), 8):
        assert_field_scalar(QQ, rational(x))
        assert rational(x) == x


def test_field_methods_return_canonical_scalars():
    for a in VALUES:
        results = [QQ.of(a), QQ.neg(a)]
        if a:
            results.append(QQ.inv(a))
        for b in VALUES:
            results += [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b)]
            if b:
                results.append(QQ.div(a, b))
                assert QQ.div(a, b) == Fraction(a) / b
            assert (QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b)) == (a + b, a - b, a * b)
        for x in results:
            assert_field_scalar(QQ, x)
    # integral results of Fraction operands are ints
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.mul(Fraction(2, 3), Fraction(3, 2))) is int
    assert type(QQ.inv(Fraction(1, 5))) is int
    for value in (Fraction(6, 3), np.int64(3), True, "4/2", 2.5, -7):
        assert_field_scalar(QQ, QQ.of(value))
        assert QQ.of(value) == Fraction(value)
    for square, root in ((Fraction(9, 4), Fraction(3, 2)), (4, 2), (Fraction(16, 1), 4), (0, 0)):
        assert QQ.sqrt(square) == root
        assert_field_scalar(QQ, QQ.sqrt(square))
    assert list(QQ.elements(5)) == [0, 1, 2, 3, 4]
    for x in QQ.elements():
        assert_field_scalar(QQ, x)
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.zero) is type(QQ.one) is int


def random_matrix(rng, nrows, ncols, fractions):
    def entry():
        if rng.random() < 0.3:
            return 0
        if fractions and rng.random() < 0.5:
            return rational(rng.randint(-9, 9), rng.randint(1, 4))
        return rng.randint(-9, 9)

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def assert_canonical(rows):
    for row in rows:
        for x in row:
            assert_field_scalar(QQ, x)


@pytest.mark.parametrize("fractions", [False, True])
def test_linalg_returns_canonical_scalars(fractions):
    rng = random.Random(11)
    kinds = dict.fromkeys(("int", "Fraction"), 0)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, nrows, ncols, fractions)
        for rows in (a, np.array(a, dtype=object)):
            r, _ = linalg.rref(QQ, rows)
            basis = linalg.nullspace(QQ, rows, ncols)
            x = linalg.solve(QQ, rows, [rng.randint(-5, 5) for _ in range(nrows)])
            square = [row[:nrows] for row in a] if ncols >= nrows else None
            prod = linalg.matmul(QQ, rows, random_matrix(rng, ncols, 3, fractions))
            dets = [linalg.det(QQ, square)] if square else []
            for out in (r, basis, [x] if x is not None else [], [dets], prod.tolist()):
                assert_canonical(out)
                for row in out:
                    for v in row:
                        kinds[type(v).__name__] += 1
    # the pivots of every reduced form are the int 1, and elimination divides
    assert kinds["int"] and kinds["Fraction"]


def test_matmul_of_integral_operands_is_the_integer_product():
    a = np.array([[1, -2], [0, 3]], dtype=object)
    b = np.array([[4], [5]], dtype=object)
    left, d = linalg.integral(QQ, a)
    assert left is a and d == 1
    got = linalg.matmul(QQ, a, b)
    assert got.tolist() == [[-6], [15]]
    assert_canonical(got.tolist())


def test_binary_roots_are_canonical():
    # (s - 2t)(s + 3t)(2s - t)(3s - 6t) has roots 2 (twice), -3 and 1/2
    form = binary.root_factor(QQ, 2) * binary.root_factor(QQ, -3)
    form = form * binary.linear_form(QQ, 2, -1) * binary.linear_form(QQ, 3, -6)
    found, infinity, splits = binary.roots(form)
    assert found == [(-3, 1), (Fraction(1, 2), 1), (2, 2)] and infinity == 0 and splits
    for lam, _ in found:
        assert_field_scalar(QQ, lam)
    g, _ = binary._dehomogenized(form)
    candidates = list(binary._rational_candidates(g))
    assert candidates and {-3, Fraction(1, 2), 2} <= set(candidates)
    for lam in candidates:
        assert_field_scalar(QQ, lam)


def test_poly_from_json_is_canonical():
    p = Poly.from_json(QQ, binary.ST, [[[1, 0], 6, 3], [[0, 1], 1, 2], [[1, 1], 5, 1],
                                       [[2, 0], -4, -2], [[0, 2], 3, 9]])
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 2), (1, 1): 5, (2, 0): 2,
                       (0, 2): Fraction(1, 3)}
    for c in p.terms.values():
        assert_field_scalar(QQ, c)


def reachable_scalars(obj):
    """Every int and Fraction reachable from obj through the package's
    objects, containers and object arrays."""
    stack, seen, found = [obj], set(), []
    while stack:
        x = stack.pop()
        if type(x) in (int, Fraction):
            found.append(x)
            continue
        if isinstance(x, (float, str, bytes, type(None), np.generic)) or id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            if x.dtype == object:
                stack.extend(x.flat)
        elif isinstance(x, dict):
            stack.extend(x)
            stack.extend(x.values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        elif type(x).__module__.startswith("ulrichmf"):
            stack.extend(getattr(x, k) for k in getattr(type(x), "__slots__", ()) if hasattr(x, k))
            stack.extend(getattr(x, "__dict__", {}).values())
    return found


def integral_fractions(obj):
    return [x for x in reachable_scalars(obj) if type(x) is Fraction and x.denominator == 1]


ROOTS = {"integer": [1, 2, 3, 4, 5, 6, 7, 8],
         "fractional": [Fraction(1, 2), 2, Fraction(-3, 4), 4, 5, Fraction(6, 7)]}


def constructions(roots):
    """The objects of an mf tensor and a clifford bgg run over Q, as the
    command line builds them, on the curve with these branch roots."""
    h = cli.curve_from_roots(QQ, roots)
    tensor = mf.tensor_mf(mf.line_bundle_mf(h, [1, 2]), mf.line_bundle_mf(h, [2, 3]))
    window = clifford.regular_module_window(h, 0, 3)
    return {"mf tensor": tensor, "clifford bgg": (window, clifford.bgg_complex(window, 0, 2))}


@pytest.mark.parametrize("roots", sorted(ROOTS))
def test_constructions_hold_canonical_scalars(roots):
    for name, obj in constructions(ROOTS[roots]).items():
        found = reachable_scalars(obj)
        assert len(found) > 100, name
        assert not integral_fractions(obj), name
        assert any(type(x) is Fraction for x in found) == (roots == "fractional"), name


def test_ulrich_for_roots_holds_canonical_scalars():
    cand = knorrer.ulrich_for_roots(QQ, [1, 4, 9, 2, 3], seed=0)
    obj = (cand, cand.pencil, cand.to_json())
    found = reachable_scalars(obj)
    assert not integral_fractions(obj)
    assert any(type(x) is Fraction for x in found) and any(type(x) is int for x in found)


def test_the_scan_finds_an_integral_fraction():
    # negative control: one Fraction(3, 1) planted in a polynomial is found
    tensor = constructions(ROOTS["integer"])["mf tensor"]
    planted = Poly._make(QQ, binary.ST, {(1, 0): Fraction(3, 1)})
    assert integral_fractions((tensor, [planted])) == [Fraction(3)]
