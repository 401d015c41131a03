"""Elimination over Q: one fraction-free elimination of the cleared integer rows.

``rref``, ``nullspace`` and ``solve`` over Q read the reduced form of
``linalg._bareiss``, ``rank`` and ``det`` its forward form.  They are checked
against the Gauss-Jordan loop on Fractions, against the Fraction forward pass
and back substitution that linalg used before (kept here as references), and
``det`` against permutation expansion, on small entries, on entries that are
multiples of the prime of ``rank`` or have it as a denominator, and on
entries of 40 and 200 bits, where the integers of the elimination grow.
Explicit matrices that once needed several primes, or too many, stay among
the cases.  On integer matrices the answers over Q and over F_p are checked
against each other.  ``rank`` over Q, which first tries one prime and
otherwise takes the forward pass, is checked against that pass, with
controls whose rank drops mod the prime.  ``_bareiss``, which rewrites
only the rows a pivot hits, is checked entry for entry against the
elimination it replaced, one numpy object-array update of every row per
pivot (``bareiss_reference``), on sparse integer matrices.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichmf import linalg, modp
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


def forward_fraction(rows, ncols):
    """Forward elimination over Q, on a copy of ``rows`` as Fractions.

    Each pivot keeps its value and the rows below it are cleared, from the
    pivot column on.  Returns (echelon rows, pivot columns, row swaps).
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    pivots = []
    swaps = 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        top = m[r][c:]
        inv = 1 / top[0]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i][c:] = [x - f * y for x, y in zip(m[i][c:], top)]
        pivots.append(c)
        r += 1
    return m, pivots, swaps


def rref_fraction(rows, ncols):
    """Reduced row echelon form over Q: the forward pass, then back substitution."""
    m, pivots, _ = forward_fraction(rows, ncols)
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        inv = 1 / m[k][c]
        top = [x * inv for x in m[k][c:]]
        m[k][c:] = top
        for i in range(k):
            if m[i][c] != 0:
                f = m[i][c]
                m[i][c:] = [x - f * y for x, y in zip(m[i][c:], top)]
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
# numerators and denominators of 40 and 20 bits, and of 200 bits, make the
# integers of the elimination grow
MID_ENTRIES = st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**20))
BIG_ENTRIES = st.builds(Fraction, st.integers(-2**200, 2**200), st.integers(1, 2**200))


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
    assert linalg.rref(QQ, rows, ncols) == rref_fraction(rows, ncols) == (want, want_piv)
    assert linalg.rank(QQ, rows, ncols) == len(want_piv)
    assert rows == copy


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([ENTRIES, MID_ENTRIES, BIG_ENTRIES]).flatmap(
    lambda entries: rational_matrices(square=True, entries=entries)))
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
    copy = [row[:] for row in rows]
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
    # rows of ints are eliminated without a copy of their own; none is changed
    assert rows == copy


# -- the lazy fraction-free elimination ------------------------------------------

def bareiss_reference(rows, ncols, reduce):
    """Fraction-free elimination on a numpy object array, every row updated at
    every pivot: (piv row_i - m[i, c] row_r) // prev for each row i below the
    pivot row r, and with ``reduce`` also above it.  Returns (m, pivots, swaps)."""
    m = np.array(rows, dtype=object).reshape(len(rows), ncols)
    pivots, swaps, prev = [], 0, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
            swaps += 1
        piv = m[r, c]
        # rows below r and row r are 0 left of c
        below = m[r + 1 :, c:]
        below[...] = (piv * below - np.outer(below[:, 0], m[r, c:])) // prev
        if reduce:
            above = m[:r]
            above[...] = (piv * above - np.outer(above[:, c], m[r])) // prev
        pivots.append(c)
        prev = piv
    return m, pivots, swaps


@st.composite
def sparse_integer_matrices(draw):
    """Tall (up to three times as many rows as columns), wide and square
    integer matrices, empty ones among them, with 50-80% zeros, entries of a
    few bits or of 40 or 200, some rows combinations of earlier ones, and a
    zero row or column now and then."""
    ncols = draw(st.integers(0, 8))
    shape = draw(st.sampled_from(["tall", "wide", "square"]))
    if shape == "tall":
        nrows = draw(st.integers(ncols, max(3 * ncols, 3)))
    else:
        nrows = draw(st.integers(0, ncols)) if shape == "wide" else ncols
    bits = draw(st.sampled_from([3, 40, 200]))
    entries = st.integers(-2**bits, 2**bits)
    nonzero = draw(st.integers(2, 5))  # tenths of the entries
    rows = [[draw(entries) if draw(st.integers(0, 9)) < nonzero else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    for i in range(2, nrows):
        if draw(st.integers(0, 3)) == 0:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if ncols and draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[c] = 0
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(sparse_integer_matrices())
def test_bareiss_matches_the_object_array_reference(case):
    rows, ncols = case
    copy = [row[:] for row in rows]
    for reduce in (False, True):
        m, pivots, swaps = linalg._bareiss(rows, ncols, reduce)
        want, want_pivots, want_swaps = bareiss_reference(rows, ncols, reduce)
        assert m.dtype == object and m.shape == want.shape
        assert m.tolist() == want.tolist()
        assert (pivots, swaps) == (want_pivots, want_swaps)
        assert rows == copy
        # _cleared hands on a row of ints as it is, so a tuple can arrive
        assert linalg._bareiss([tuple(row) for row in rows], ncols, reduce)[0].tolist() == m.tolist()


# -- rank over Q through one prime ----------------------------------------------

P = linalg.RANK_PRIME
# multiples of the prime and denominators equal to it make the rank drop mod p
PRIME_ENTRIES = ENTRIES | st.sampled_from([Fraction(P), Fraction(1, P), Fraction(2 * P, 3)])


@settings(max_examples=200, deadline=None)
@given(rational_matrices(entries=PRIME_ENTRIES))
def test_rank_over_q_matches_forward_elimination(case):
    rows, ncols = case
    copy = [row[:] for row in rows]
    want = len(forward_fraction(rows, ncols)[1])
    assert linalg.rank(QQ, rows, ncols) == want
    assert rows == copy


def exact_rank_calls(monkeypatch):
    calls = []
    real = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss",
                        lambda rows, ncols, reduce: calls.append(reduce) or real(rows, ncols, reduce))
    return calls


def modp_calls(monkeypatch):
    """Record the name of every modp.rref and modp.echelon call."""
    calls = []
    for name in ("rref", "echelon"):
        real = getattr(modp, name)
        monkeypatch.setattr(modp, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    return calls


def test_only_rank_over_q_calls_modp(monkeypatch):
    calls = modp_calls(monkeypatch)
    a, b = [Fraction(1, 3), Fraction(2), Fraction(-1)], [Fraction(5), Fraction(1, 4), Fraction(0)]
    for rows in ([a, b, [Fraction(1), Fraction(1), Fraction(7, 2)]],  # full rank
                 [a, b, [x - 2 * y for x, y in zip(a, b)]]):  # rank 2
        linalg.rref(QQ, rows)
        linalg.nullspace(QQ, rows, 3)
        linalg.solve(QQ, rows, [Fraction(1), Fraction(0), Fraction(2)])
        linalg.det(QQ, rows)
        assert calls == []
        # one elimination mod the prime, whatever it finds
        linalg.rank(QQ, rows)
        assert calls == ["echelon"]
        calls.clear()


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
    assert linalg.rank(QQ, rows) == 2 and calls == [False]


def test_denominator_equal_to_the_prime_falls_back_to_exact_rank(monkeypatch):
    calls = exact_rank_calls(monkeypatch)
    # determinant 1/p; the cleared rows [1, p] and [1, 2p] agree mod p
    rows = [[Fraction(1, P), Fraction(1)], [Fraction(1, P), Fraction(2)]]
    assert rank_mod_p(rows) == 1
    assert linalg.rank(QQ, rows) == 2 and calls == [False]


def test_rank_deficient_matrix_is_never_read_off_the_prime(monkeypatch):
    calls = exact_rank_calls(monkeypatch)
    a, b = [Fraction(1, 3), Fraction(2), Fraction(-1)], [Fraction(5), Fraction(1, 4), Fraction(0)]
    rows = [a, b, [x - 2 * y for x, y in zip(a, b)]]
    assert rank_mod_p(rows) == 2
    assert linalg.rank(QQ, rows) == 2 and calls == [False]


# -- rref, nullspace and solve over Q --------------------------------------------

def canonical_solution(rows, rhs, ncols):
    """The solution of rows x = rhs with every free variable 0, read off the
    Gauss-Jordan reference of the augmented matrix, or None."""
    m, piv = gauss_jordan_reference([row + [b] for row, b in zip(rows, rhs)], ncols + 1)
    if ncols in piv:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(piv):
        x[c] = m[i][ncols]
    return x


def check_against_the_references(rows, ncols, rhs):
    copy = [row[:] for row in rows]
    want, want_piv = gauss_jordan_reference(rows, ncols)
    assert linalg.rref(QQ, rows, ncols) == rref_fraction(rows, ncols) == (want, want_piv)
    assert rows == copy
    # the kernel basis is fixed by being 1 at its own free column, 0 at the others
    free = [c for c in range(ncols) if c not in want_piv]
    kernel = linalg.nullspace(QQ, rows, ncols)
    assert len(kernel) == len(free)
    for c, v in zip(free, kernel):
        assert [v[f] for f in free] == [int(f == c) for f in free]
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)
    x = linalg.solve(QQ, rows, rhs, ncols)
    assert x == canonical_solution(rows, rhs, ncols)
    if x is not None:
        assert [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows] == rhs


@settings(max_examples=200, deadline=None)
@given(rational_matrices(entries=PRIME_ENTRIES | MID_ENTRIES | BIG_ENTRIES), st.data())
def test_rref_nullspace_and_solve_over_q_match_the_references(case, data):
    rows, ncols = case
    entries = PRIME_ENTRIES | MID_ENTRIES | BIG_ENTRIES
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    if rows and data.draw(st.booleans()):
        # a consistent right-hand side: a combination of the columns
        coeffs = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
        rhs = [sum((x * y for x, y in zip(row, coeffs)), Fraction(0)) for row in rows]
    check_against_the_references(rows, ncols, rhs)


Q2 = linalg.RANK_PRIME - 18  # the prime below RANK_PRIME

# matrices that the reduced form through primes needed several primes for, or
# too many: a free column past the reconstruction bound of one or two primes,
# minors of about 115 bits, entries of up to 346 bits
EXPLICIT = {
    "past_one_prime": [[3, 0, 2**40 + 1], [0, 7, -2**41]],
    "minors_of_115_bits": [[3**37, 5**25, 1], [7**20, 11**16, 2]],
    "entries_of_346_bits": [[3**150, 5**140, 1], [7**120, Fraction(11**100, 13), 2]],
    "mixed_denominators": [[Fraction(1, 2), 3, Fraction(-5, 7), 1], [2, 0, Fraction(1, 9), 4]],
}


def check_explicit_matrix(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0])
    # a consistent right-hand side, the sum of the columns, and an inconsistent
    # or arbitrary one
    check_against_the_references(rows, ncols, [sum(row) for row in rows])
    check_against_the_references(rows, ncols, [Fraction(1, i + 2) for i in range(len(rows))])
    assert linalg.rank(QQ, rows, ncols) == len(forward_fraction(rows, ncols)[1])


@pytest.mark.parametrize("name", EXPLICIT)
def test_rref_nullspace_and_solve_over_q_on_explicit_matrices(name):
    check_explicit_matrix(EXPLICIT[name])


def check_pivots_lost_mod(q, rows, monkeypatch):
    """The pivots of rows mod q are [1, 2]; over Q the first column has one, and
    the reduced form over Q is found without any elimination mod a prime."""
    fractions = [[Fraction(x) for x in row] for row in rows]
    residues = [[x.numerator * pow(x.denominator, -1, q) % q for x in row] for row in fractions]
    assert linalg.rref(PrimeField(q), residues)[1] == [1, 2]
    calls = modp_calls(monkeypatch)
    assert linalg.rref(QQ, fractions)[1] == [0, 1]
    assert calls == []
    check_explicit_matrix(rows)


def test_pivots_lost_mod_the_first_prime_restart_from_the_second(monkeypatch):
    # the first column vanishes mod the prime of rank
    check_pivots_lost_mod(P, [[P, 1, 5], [2 * P, 3, Fraction(-1, 2)]], monkeypatch)


def test_a_later_prime_with_lost_pivots_is_skipped(monkeypatch):
    # the free column holds (2^40 + 1)/q, past the reconstruction bound of one
    # prime, and the first column vanishes mod q
    check_pivots_lost_mod(Q2, [[Q2, 0, 2**40 + 1], [0, 1, 0]], monkeypatch)
