import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichmf import binary, clifford, mf
from ulrichmf.fields import QQ, NotASquare, PrimeField
from ulrichmf.pencil import HyperellipticData
from ulrichmf.poly import Poly
from ulrichmf.polymatrix import PolyMatrix

from tests.poly_reference import constant_value

ST = binary.ST
F = PrimeField(10009)
F13 = PrimeField(13)


def clifford_dimension(h, k):
    """dim_k C_k by direct basis-word enumeration: pairs (|I|, monomial in s,t)."""
    sizes = range(k % 2, min(k, h.nbranch) + 1, 2)
    return sum(comb(h.nbranch, size) * ((k - size) // 2 + 1) for size in sizes)


def curve(genus, field=F, roots=None):
    roots = roots or list(range(1, 2 * genus + 3))
    return HyperellipticData.from_factors(
        field, [binary.root_factor(field, c) for c in roots]
    )


H1 = curve(1)
H2 = curve(2)


def brute_sign(subset_i, subset_j):
    """Sign oracle: move each generator of J left past the larger elements of I."""
    word = sorted(subset_i) + sorted(subset_j)
    # bubble sort counting transpositions of distinct generators; equal pairs
    # annihilate into f_i and do not move past each other in the count below
    sign = 1
    arr = list(word)
    # insertion sort counting swaps of strictly larger left neighbors
    for k in range(1, len(arr)):
        j = k
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    return sign


def test_epsilon_examples():
    assert clifford.epsilon_sign({1}, {1}) == 1
    assert clifford.epsilon_sign({2}, {1}) == -1
    assert clifford.epsilon_sign({1, 2}, {2, 3}) == 1


def test_basis_product_examples():
    sign, factor, subset = clifford.basis_product(H1, {1}, {1})
    assert (sign, subset) == (1, frozenset())
    assert factor == H1.factor(1)

    sign, factor, subset = clifford.basis_product(H1, {2}, {1})
    assert sign == -1 and subset == frozenset({1, 2})
    assert factor == Poly.const(F, ST, 1)

    sign, factor, subset = clifford.basis_product(H1, {1, 2}, {2, 3})
    assert sign == 1 and subset == frozenset({1, 3})
    assert factor == H1.factor(2)


def test_basis_product_sign_against_sorting_oracle():
    rng = random.Random(3)
    universe = list(range(1, H2.nbranch + 1))
    for _ in range(60):
        size_i = rng.randrange(0, 4)
        size_j = rng.randrange(0, 4)
        key_i = frozenset(rng.sample(universe, size_i))
        key_j = frozenset(rng.sample(universe, size_j))
        if key_i & key_j:
            continue  # the oracle only orders disjoint words
        sign, _, _ = clifford.basis_product(H2, key_i, key_j)
        assert sign == brute_sign(key_i, key_j)


def test_square_of_sum_cross_terms_cancel():
    e1 = clifford.CliffordElement.generator(H1, 1)
    e2 = clifford.CliffordElement.generator(H1, 2)
    sq = (e1 + e2) * (e1 + e2)
    expected = clifford.CliffordElement.basis(
        H1, frozenset(), H1.factor(1) + H1.factor(2)
    )
    assert sq == expected


def test_unit_and_scaling():
    a = clifford.CliffordElement.basis(H1, {1, 3}, binary.linear_form(F, 2, 5))
    one = clifford.CliffordElement.one(H1)
    assert one * a == a
    assert a * one == a
    assert a.parity() == "even"
    assert (a + clifford.CliffordElement.generator(H1, 2)).parity() == "mixed"


def random_element(rng, h, max_terms=3):
    terms = {}
    universe = list(range(1, h.nbranch + 1))
    for _ in range(max_terms):
        size = rng.randrange(0, h.nbranch + 1)
        subset = frozenset(rng.sample(universe, size))
        coeff = binary.linear_form(h.field, rng.randrange(h.field.p), rng.randrange(h.field.p))
        if not coeff.is_zero():
            terms[subset] = terms.get(subset, Poly.zero(h.field, ST)) + coeff
    return clifford.CliffordElement(h, terms)


def test_associativity_random():
    rng = random.Random(99)
    for h in (H1, H2):
        for _ in range(25):
            a, b, c = (random_element(rng, h) for _ in range(3))
            assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_associativity(data):
    h = data.draw(st.sampled_from([H1, H2, curve(1, QQ), curve(2, QQ)]))
    subsets = st.frozensets(st.integers(1, h.nbranch))
    coeffs = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda ab: binary.linear_form(h.field, *ab))
    elements = st.dictionaries(subsets, coeffs, max_size=3).map(
        lambda terms: clifford.CliffordElement(h, terms))
    a, b, c = (data.draw(elements) for _ in range(3))
    assert (a * b) * c == a * (b * c)


def test_grading_additivity():
    rng = random.Random(5)
    for _ in range(20):
        size_a = rng.randrange(0, 4)
        size_b = rng.randrange(0, 4)
        a = clifford.CliffordElement.basis(H2, frozenset(random.Random(size_a).sample(range(1, 7), size_a)))
        b = clifford.CliffordElement.basis(H2, frozenset(random.Random(size_b + 17).sample(range(1, 7), size_b)))
        prod = a * b
        if not prod.is_zero():
            assert prod.degree() == a.degree() + b.degree()


def test_central_element_odd_genus():
    y = clifford.central_element_y(H1)
    top = frozenset(range(1, 5))
    # g odd: y is plus or minus the top word
    assert set(y.terms) == {top}
    assert y * y == clifford.CliffordElement.basis(H1, frozenset(), H1.f)


def test_central_element_even_genus_needs_sqrt_minus_one():
    y = clifford.central_element_y(curve(2, F13, [1, 2, 3, 4, 5, 6]))
    coeff = y.coefficient(frozenset(range(1, 7)))
    # sqrt(-1) = 5 mod 13; the canonical root is used
    assert constant_value(coeff) in (5, 8)
    h_bad = curve(2, PrimeField(10007), [1, 2, 3, 4, 5, 6])
    with pytest.raises(NotASquare):
        clifford.central_element_y(h_bad)


def test_y_central_even_anticommutes_odd():
    for h in (H1, H2):
        y = clifford.central_element_y(h)
        universe = range(1, h.nbranch + 1)
        from itertools import combinations

        for size in range(h.nbranch + 1):
            for combo in combinations(universe, size):
                w = clifford.CliffordElement.basis(h, combo)
                if size % 2 == 0:
                    assert y * w == w * y
                else:
                    assert (y * w + w * y).is_zero()


def test_even_decomposition_empty_set():
    report = clifford.even_decomposition_check(H1, set())
    assert report["pass"], report


def test_even_decomposition_pair():
    report = clifford.even_decomposition_check(H1, {1, 2})
    assert report["pass"], report
    c1, c2 = report["c"], report["c_prime"]
    assert F.mul(c1, c2) == F.one


def test_even_decomposition_all_even_subsets_small_genus():
    for h in (H1, H2):
        for rep in mf.canonical_classes(h, parity=0):
            report = clifford.even_decomposition_check(h, rep)
            assert report["pass"], report


def test_even_decomposition_fails_on_an_entry_off_f_i(monkeypatch):
    # negative control: y with coefficient s c instead of the scalar c keeps
    # y-multiplication antidiagonal, but its entries are s c f_I and s c f_I^c
    h = curve(1)
    real = clifford.central_element_y(h)
    top = frozenset(range(1, h.nbranch + 1))
    s = Poly.variable(F, ST, "s")
    monkeypatch.setattr(clifford, "central_element_y", lambda h: clifford.CliffordElement.basis(
        h, top, real.coefficient(top) * s))
    report = clifford.even_decomposition_check(h, {1, 2})
    assert report == {"I": [1, 2], "pass": False, "detail":
                      "y-multiplication entries are not scalar multiples of (f_I, f_I^c)"}


def test_even_decomposition_rejects_odd():
    with pytest.raises(clifford.CliffordError):
        clifford.even_decomposition_check(H1, {1})


def test_epsilon_commutation_identity():
    rng = random.Random(8)
    universe = list(range(1, 7))
    for _ in range(40):
        key_i = frozenset(rng.sample(universe, rng.randrange(0, 5)))
        key_j = frozenset(rng.sample(universe, rng.randrange(0, 5)))
        lhs = clifford.epsilon_sign(key_i, key_j) * clifford.epsilon_sign(key_j, key_i)
        rhs = (-1) ** (len(key_i) * len(key_j) - len(key_i & key_j))
        assert lhs == rhs


def test_regular_module_dimensions():
    window = clifford.regular_module_window(H1, 0, 5)
    dims = [window.dim(k) for k in range(6)]
    assert dims == [clifford_dimension(H1, k) for k in range(6)]
    assert dims == [1, 4, 8, 12, 16, 20]


def test_regular_module_satisfies_relations():
    for h in (H1, H2):
        window = clifford.regular_module_window(h, 0, 4)
        window.verify_relations()


def diagonal_quadrics(h):
    """q1 = sum a_i x_i^2 and q2 = sum b_i x_i^2 with f_i = a_i s + b_i t."""
    r = h.nbranch
    names = tuple(f"x{i}" for i in range(1, r + 1))
    pairs1, pairs2 = [], []
    for i in range(1, r + 1):
        exp = tuple(2 if j == i else 0 for j in range(1, r + 1))
        f_i = h.factor(i)
        pairs1.append((exp, f_i.coefficient((1, 0))))
        pairs2.append((exp, f_i.coefficient((0, 1))))
    return Poly.from_pairs(h.field, names, pairs1), Poly.from_pairs(h.field, names, pairs2)


def differentials(window, k_lo, k_hi):
    """The independent reference: D_k = sum_i x_i E_{i,k} as PolyMatrix over
    k[x_1..x_r], for k_lo <= k <= k_hi, built entry by entry from e_action."""
    field = window.h.field
    names = tuple(f"x{i}" for i in range(1, window.h.nbranch + 1))
    xs = [Poly.variable(field, names, v) for v in names]
    matrices = {}
    for k in range(k_lo, k_hi + 1):
        nrows, ncols = window.dim(k + 1), window.dim(k)
        entries = [[Poly.zero(field, names) for _ in range(ncols)] for _ in range(nrows)]
        for i, x in enumerate(xs, start=1):
            mat = window.e_action[(i, k)]
            for a in range(nrows):
                for b in range(ncols):
                    if not field.is_zero(mat[a][b]):
                        entries[a][b] = entries[a][b] + x.scale(mat[a][b])
        matrices[k] = PolyMatrix(field, names, entries)
    return matrices


def d2_failures(window, k_lo, k_hi):
    """Degrees k_lo <= k < k_hi where D_{k+1} D_k != q1 T1 + q2 T2, by the
    PolyMatrix product of the reference differentials."""
    q1, q2 = diagonal_quadrics(window.h)
    matrices = differentials(window, k_lo, k_hi)
    failures = []
    for k in range(k_lo, k_hi):
        t1, t2 = window.t_action[(1, k)], window.t_action[(2, k)]
        rhs = PolyMatrix(window.h.field, q1.vars, [
            [q1.scale(t1[a][b]) + q2.scale(t2[a][b]) for b in range(window.dim(k))]
            for a in range(window.dim(k + 2))
        ])
        if matrices[k + 1] @ matrices[k] != rhs:
            failures.append(k)
    return failures


def test_bgg_complex_regular_module():
    window = clifford.regular_module_window(H1, 0, 5)
    result = clifford.bgg_complex(window, 0, 3)
    assert all(result["certificates"].values())
    matrices = differentials(window, 0, 3)
    assert [matrices[k].ncols for k in range(4)] == [1, 4, 8, 12]
    d0 = matrices[0]
    # first differential is the column of the x variables, up to sign
    entries = {d0.entry(i, 0) for i in range(4)}
    names = d0.vars
    for i, v in enumerate(names):
        x = Poly.variable(F, names, v)
        assert x in entries or -x in entries


@pytest.mark.parametrize("field", [F, PrimeField(2**61 - 1), QQ], ids=str)
@pytest.mark.parametrize("genus, k_hi", [(1, 3), (2, 3), (3, 2)])
def test_reference_d2_holds_on_regular_windows(field, genus, k_hi):
    window = clifford.regular_module_window(curve(genus, field), 0, k_hi + 1)
    assert d2_failures(window, 0, k_hi) == []


@pytest.mark.parametrize("field", [F, QQ], ids=str)
def test_perturbed_action_fails_reference_at_reported_degree(field):
    # d^2 at degree k is the relations at degree k coefficient by coefficient,
    # so the PolyMatrix reference and bgg_complex name the same lowest degree
    h = curve(1, field)
    rng = random.Random(5)
    for i in range(1, h.nbranch + 1):
        for k in range(0, 4):
            window = clifford.regular_module_window(h, 0, 4)
            mat = [row[:] for row in window.e_action[(i, k)]]
            a, b = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
            mat[a][b] = field.add(mat[a][b], field.one)
            window.e_action[(i, k)] = mat
            failures = d2_failures(window, 0, 3)
            assert failures, (i, k, a, b)
            with pytest.raises(clifford.CliffordError, match=f"at degree {failures[0]}$"):
                clifford.bgg_complex(window, 0, 3)


def test_bgg_broken_sign_rejected():
    window = clifford.regular_module_window(H1, 0, 4)
    mat = [row[:] for row in window.e_action[(1, 1)]]
    mat[0][0] = F.add(mat[0][0], F.one)
    window.e_action[(1, 1)] = mat
    with pytest.raises(clifford.CliffordError):
        clifford.bgg_complex(window, 0, 2)


def test_bgg_missing_action_rejected():
    window = clifford.regular_module_window(H1, 0, 3)
    del window.e_action[(2, 1)]
    with pytest.raises(clifford.CliffordError, match="degree 1$"):
        clifford.bgg_complex(window, 0, 2)


def test_bgg_unchecked_degree_rejected():
    # the t action on N_1 is there but N_3 is not: degree 1 cannot be checked
    window = clifford.regular_module_window(H1, 0, 3)
    del window.bases[3]
    with pytest.raises(clifford.CliffordError, match="not checked at degree 1$"):
        clifford.bgg_complex(window, 0, 2)


def test_bgg_complex_genus3_window():
    h = curve(3)
    window = clifford.regular_module_window(h, 0, 6)
    result = clifford.bgg_complex(window, 0, 3)
    assert result["certificates"] == {0: True, 1: True, 2: True}
    assert result["dims"] == {k: clifford_dimension(h, k) for k in range(7)}
    assert [differentials(window, 0, 3)[k].ncols for k in range(4)] == [1, 8, 30, 72]


def test_relations_reject_broken_square():
    window = clifford.regular_module_window(H1, 0, 4)
    ts = [row[:] for row in window.t_action[(1, 1)]]
    ts[0][0] = F.add(ts[0][0], F.one)
    window.t_action[(1, 1)] = ts
    # T1 enters only the squares e_i^2 = a_i T1 + b_i T2, degree 0 does not
    # see it, and a_1 = 1 for f_1 = s - t: the first failing rule is e_1^2
    with pytest.raises(clifford.CliffordError, match=r"\(e_1, e_1\) at degree 1$"):
        window.verify_relations()


def test_relations_reject_broken_anticommutator_at_top_degree():
    window = clifford.regular_module_window(H1, 0, 4)
    # degrees 0..2 are checked; the e_4 action on N_3 enters only degree 2,
    # as the left factor of every e_i e_4
    mat = [row[:] for row in window.e_action[(4, 3)]]
    col = window.bases[3].index(((1, 2, 3), (0, 0)))
    mat[0][col] = F.add(mat[0][col], F.one)
    window.e_action[(4, 3)] = mat
    # e_{1,2,3} is n e_i for n = e_{{1,2,3} - i} when i <= 3 and never for
    # i = 4, so e_4^2 holds and e_1 e_4 + e_4 e_1 is the first rule to fail
    with pytest.raises(clifford.CliffordError, match=r"\(e_1, e_4\) at degree 2$"):
        window.verify_relations()


def test_relations_hold_where_two_products_overflow_int64():
    # at p = 3037000493, (p - 1)^2 fits int64 and 2 (p - 1)^2 does not, so the
    # products come back as int64: the relations still hold with large
    # residues b_i = -lambda_i, and a broken T2 entry is still caught
    field = PrimeField(3037000493)
    h = curve(1, field, roots=[1, field.p - 2, 10**9, 3 * 10**9])
    window = clifford.regular_module_window(h, 0, 4)
    assert window.verify_relations() == {0, 1, 2}
    ts = [row[:] for row in window.t_action[(2, 1)]]
    ts[0][0] = field.add(ts[0][0], field.one)
    window.t_action[(2, 1)] = ts
    with pytest.raises(clifford.CliffordError, match=r"\(e_1, e_1\) at degree 1$"):
        window.verify_relations()


def naive_product(field, a, b):
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        out_row = []
        for j in range(ncols):
            acc = field.zero
            for x, b_row in zip(row, b):
                acc = field.add(acc, field.mul(x, b_row[j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def random_scalar(field, rng):
    if field == QQ:
        return Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
    return rng.randrange(field.p)


def random_matrix(field, rng, nrows, ncols):
    return [[random_scalar(field, rng) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("field", [F, PrimeField(2**31 - 1), PrimeField(2**61 - 1), QQ], ids=str)
@pytest.mark.parametrize("shape", [(4, 7, 5), (1, 1, 1), (9, 2, 3), (0, 3, 4), (3, 0, 2), (3, 4, 0)])
def test_mat_mul_scalar_matches_triple_loop(field, shape):
    m, k, n = shape
    rng = random.Random(100 * m + 10 * k + n)
    for _ in range(3):
        a = random_matrix(field, rng, m, k)
        b = random_matrix(field, rng, k, n)
        got = clifford._mat_mul_scalar(field, a, b)
        assert got.shape == (m, n if k else 0)
        assert got.tolist() == naive_product(field, a, b)


def test_mat_mul_scalar_int64_boundary():
    field = PrimeField(2**31 - 1)
    p = field.p
    top = [[p - 1] * 4 for _ in range(4)]
    # 4 (p - 1)^2 overflows int64, so naive int64 arithmetic is wrong here
    naive = (np.array(top, dtype=np.int64) @ np.array(top, dtype=np.int64)) % p
    assert naive[0, 0] != 4
    # the product is taken on Python ints, and its residues come back as
    # int64, the stored scalar type at this prime
    got = clifford._mat_mul_scalar(field, top, top)
    assert got.dtype == np.int64
    assert got.tolist() == [[4] * 4] * 4  # (p - 1)^2 = 1 mod p
    # one term: 2 (p - 1)^2 < 2^63 still holds, and int64 is exact
    one = clifford._mat_mul_scalar(field, [[p - 1]], [[p - 1]])
    assert one.dtype == np.int64 and one.tolist() == [[1]]
    small = clifford._mat_mul_scalar(F, top, top)
    assert small.dtype == np.int64
    assert small.tolist() == naive_product(F, top, top)


@pytest.mark.parametrize("k0, k1", [(0, 2), (1, 3)])
def test_bgg_window_to_k1_plus_one(k0, k1):
    # the CLI builds degrees k0 .. k1 + 1 only: the same output as a wider window
    small_window = clifford.regular_module_window(H1, k0, k1 + 1)
    wide_window = clifford.regular_module_window(H1, k0, k1 + 3)
    small = clifford.bgg_complex(small_window, k0, k1)
    wide = clifford.bgg_complex(wide_window, k0, k1)
    assert small["certificates"] == wide["certificates"]
    assert all(small["certificates"].values()) and len(small["certificates"]) == k1 - k0
    assert differentials(small_window, k0, k1) == differentials(wide_window, k0, k1)
    # a one-entry break of any e_i action at degree k1 - 1 is still caught, at
    # the lowest checked degree whose relations read it
    for i in range(1, H1.nbranch + 1):
        window = clifford.regular_module_window(H1, k0, k1 + 1)
        mat = [row[:] for row in window.e_action[(i, k1 - 1)]]
        mat[0][0] = F.add(mat[0][0], F.one)
        window.e_action[(i, k1 - 1)] = mat
        with pytest.raises(clifford.CliffordError, match=f"at degree {max(k0, k1 - 2)}$"):
            clifford.bgg_complex(window, k0, k1)
