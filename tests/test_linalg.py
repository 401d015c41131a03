"""Elimination over Q: the forward pass and the reduced form built on it.

``linalg`` eliminates rational matrices on lists of Fractions.  ``rank`` and
``det`` read the forward pass alone; ``_rref_fraction`` adds back
substitution.  Both are checked against the Gauss-Jordan loop that
``_rref_fraction`` used before, and ``det`` against permutation expansion.
On integer matrices the answers over Q and over F_p are checked against each
other.  ``rank`` over Q, which first tries one prime, is checked against the
forward pass, with negative controls whose rank drops mod that prime.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichmf import linalg
from ulrichmf.fields import QQ, PrimeField


def gauss_jordan_reference(rows, ncols):
    """Reduced row echelon form: each pivot row is normalized and then cleared
    from every other row, above and below."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def perm_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


# small values make dependent rows and zero pivots common
ENTRIES = st.sampled_from([0, 0, 1, -1, 2]).map(Fraction) | st.fractions(
    min_value=-20, max_value=20, max_denominator=7)


@st.composite
def rational_matrices(draw, square=False, entries=ENTRIES):
    """A matrix of up to 6 x 6, with some rows replaced by combinations of
    earlier ones."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(0, 6))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(2, nrows):
        if draw(st.booleans()):
            a, b = draw(ENTRIES), draw(ENTRIES)
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rref_and_rank_match_gauss_jordan(case):
    rows, ncols = case
    copy = [row[:] for row in rows]
    want, want_piv = gauss_jordan_reference(rows, ncols)
    got, piv = linalg._rref_fraction(rows, ncols)
    assert (got, piv) == (want, want_piv)
    assert linalg.rank(QQ, rows, ncols) == len(piv)
    assert rows == copy


@settings(max_examples=100, deadline=None)
@given(rational_matrices(square=True))
def test_det_matches_permutation_expansion(case):
    rows, n = case
    got = linalg.det(QQ, rows)
    assert got == perm_det(rows)
    assert (got == 0) == (linalg.rank(QQ, rows, n) < n)


def test_det_row_swaps():
    # every pivot needs a swap: the anti-diagonal of size n has sign (-1)^(n(n-1)/2)
    for n in range(1, 6):
        rows = [[Fraction(3 if i + j == n - 1 else 0) for j in range(n)] for i in range(n)]
        assert linalg.det(QQ, rows) == (-1) ** (n * (n - 1) // 2) * 3**n


@st.composite
def integer_matrices(draw):
    """An integer matrix of up to 5 x 5 with small entries, so that its rank
    often drops mod a small prime."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        ncols = nrows
    entries = st.integers(-6, 6)
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(integer_matrices(), st.sampled_from([3, 5, 7, 10009, 2**61 - 1]))
def test_prime_field_agrees_with_rationals(case, p):
    rows, ncols = case
    field = PrimeField(p)
    residues = [[x % p for x in row] for row in rows]
    rank_q = linalg.rank(QQ, rows, ncols)
    rank_p = linalg.rank(field, residues, ncols)
    assert rank_p <= rank_q
    if len(rows) == ncols:
        assert linalg.det(field, residues) == linalg.det(QQ, rows) % p
    kernel_p = linalg.nullspace(field, residues, ncols)
    assert len(kernel_p) == ncols - rank_p
    for v in linalg.nullspace(QQ, rows, ncols):
        # clearing denominators keeps v in the kernel over Q; reduce it mod p
        scale = math.lcm(*(x.denominator for x in v))
        w = [int(x * scale) % p for x in v]
        assert all(sum(a * b for a, b in zip(row, w)) % p == 0 for row in rows)
        assert linalg.rank(field, kernel_p + [w], ncols) == len(kernel_p)


# -- rank over Q through one prime ----------------------------------------------

P = linalg.RANK_PRIME
# multiples of the prime and denominators equal to it make the rank drop mod p
PRIME_ENTRIES = ENTRIES | st.sampled_from([Fraction(P), Fraction(1, P), Fraction(2 * P, 3)])


@settings(max_examples=200, deadline=None)
@given(rational_matrices(entries=PRIME_ENTRIES))
def test_rank_over_q_matches_forward_elimination(case):
    rows, ncols = case
    copy = [row[:] for row in rows]
    want = len(linalg._forward_fraction(rows, ncols)[1])
    assert linalg.rank(QQ, rows, ncols) == want
    assert rows == copy


def exact_rank_calls(monkeypatch):
    calls = []
    real = linalg._forward_fraction
    monkeypatch.setattr(linalg, "_forward_fraction",
                        lambda rows, ncols: calls.append(1) or real(rows, ncols))
    return calls


def rank_mod_p(rows):
    """The rank of the rows' cleared integer form mod the prime."""
    cleared = [[x * math.lcm(*(y.denominator for y in row)) for x in row] for row in rows]
    return linalg.rank(PrimeField(P), [[int(x) % P for x in row] for row in cleared])


def test_full_rank_mod_the_prime_skips_exact_elimination(monkeypatch):
    calls = exact_rank_calls(monkeypatch)
    rows = [[Fraction(1, 2), Fraction(3), Fraction(-5, 7)], [Fraction(2), Fraction(0), Fraction(1, 9)]]
    assert linalg.rank(QQ, rows) == 2 and calls == []


def test_multiples_of_the_prime_fall_back_to_exact_rank(monkeypatch):
    calls = exact_rank_calls(monkeypatch)
    # full rank over Q; the cleared rows [5p, 6p] and [p, 7p] vanish mod p
    rows = [[Fraction(P, 3), Fraction(2 * P, 5)], [Fraction(P), Fraction(7 * P)]]
    assert rank_mod_p(rows) == 0
    assert linalg.rank(QQ, rows) == 2 and calls == [1]


def test_denominator_equal_to_the_prime_falls_back_to_exact_rank(monkeypatch):
    calls = exact_rank_calls(monkeypatch)
    # determinant 1/p; the cleared rows [1, p] and [1, 2p] agree mod p
    rows = [[Fraction(1, P), Fraction(1)], [Fraction(1, P), Fraction(2)]]
    assert rank_mod_p(rows) == 1
    assert linalg.rank(QQ, rows) == 2 and calls == [1]


def test_rank_deficient_matrix_is_never_read_off_the_prime(monkeypatch):
    calls = exact_rank_calls(monkeypatch)
    a, b = [Fraction(1, 3), Fraction(2), Fraction(-1)], [Fraction(5), Fraction(1, 4), Fraction(0)]
    rows = [a, b, [x - 2 * y for x, y in zip(a, b)]]
    assert rank_mod_p(rows) == 2
    assert linalg.rank(QQ, rows) == 2 and calls == [1]
