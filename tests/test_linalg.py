"""Elimination over Q: the forward pass, the reduced form, and the reduced
form through primes.

``rank`` and ``det`` over Q read the Fraction forward pass
``_forward_fraction``; ``_rref_fraction`` adds back substitution.  Both are
checked against the Gauss-Jordan loop that ``_rref_fraction`` used before,
and ``det`` against permutation expansion.  On integer matrices the answers
over Q and over F_p are checked against each other.

``rref`` over Q goes through primes and keeps ``_rref_fraction`` as its
fallback: ``rref``, ``nullspace`` and ``solve`` are checked against both
references on entries that are multiples of the first prime, have it as a
denominator or run to 200 bits.  Negative controls show that the exact check
rejects a wrong reconstruction, that a reduced form too large for every
prime falls back to Fractions, that entries past ``ENTRY_BOUND`` go there
without trying a prime, and that a prime that loses pivots is replaced by a
later one or skipped.  ``rank`` over Q, which first tries one prime and
otherwise takes the forward pass, is checked against that pass, with
controls whose rank drops mod the prime.
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

P = linalg.PRIMES[0]
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


def spy(monkeypatch, name):
    """Record the results of linalg.<name> in a list as it runs."""
    results = []
    real = getattr(linalg, name)

    def recorded(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(linalg, name, recorded)
    return results


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


# -- the reduced form over Q through primes -------------------------------------

# numerators and denominators of about 200 bits outrun every prime of the tuple;
# those of 40 bits and 20 bits often need more than one prime
BIG_ENTRIES = st.builds(Fraction, st.integers(-2**200, 2**200), st.integers(1, 2**200))
MID_ENTRIES = st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**20))


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


@settings(max_examples=200, deadline=None)
@given(rational_matrices(entries=PRIME_ENTRIES | MID_ENTRIES | BIG_ENTRIES), st.data())
def test_rref_nullspace_and_solve_over_q_match_the_references(case, data):
    rows, ncols = case
    copy = [row[:] for row in rows]
    want, want_piv = gauss_jordan_reference(rows, ncols)
    assert linalg.rref(QQ, rows, ncols) == linalg._rref_fraction(rows, ncols) == (want, want_piv)
    assert rows == copy
    # the kernel basis is fixed by being 1 at its own free column, 0 at the others
    free = [c for c in range(ncols) if c not in want_piv]
    kernel = linalg.nullspace(QQ, rows, ncols)
    assert len(kernel) == len(free)
    for c, v in zip(free, kernel):
        assert [v[f] for f in free] == [int(f == c) for f in free]
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)
    entries = PRIME_ENTRIES | MID_ENTRIES | BIG_ENTRIES
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    if rows and data.draw(st.booleans()):
        # a consistent right-hand side: a combination of the columns
        coeffs = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
        rhs = [sum((x * y for x, y in zip(row, coeffs)), Fraction(0)) for row in rows]
    x = linalg.solve(QQ, rows, rhs, ncols)
    assert x == canonical_solution(rows, rhs, ncols)
    if x is not None:
        assert [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows] == rhs


def test_entries_past_the_first_prime_are_proven_without_fractions(monkeypatch):
    fallbacks = spy(monkeypatch, "_rref_fraction")
    attempts = spy(monkeypatch, "_reconstruct")
    # the free column holds (2^40 + 1)/3 and -2^41/7: past the reconstruction
    # bound of the first prime and of the first two, inside that of three;
    # what the first one or two reconstruct, if anything, fails the product
    rows = [[Fraction(3), Fraction(0), Fraction(2**40 + 1)], [Fraction(0), Fraction(7), Fraction(-2**41)]]
    got = linalg.rref(QQ, rows)
    assert got == gauss_jordan_reference(rows, 3)
    assert len(attempts) == 3 and attempts[-1] is not None and fallbacks == []


def test_exact_check_rejects_a_wrong_reconstruction(monkeypatch):
    rows = [[Fraction(1, 2), Fraction(3), Fraction(-5, 7), Fraction(1)],
            [Fraction(2), Fraction(0), Fraction(1, 9), Fraction(4)]]
    assert linalg._rref_multimodular(rows, 4) == gauss_jordan_reference(rows, 4)
    real = linalg._reconstruct

    def one_entry_off(residues, modulus):
        nums, dens, d = real(residues, modulus)
        return [nums[0] + dens[0]] + nums[1:], dens, d

    monkeypatch.setattr(linalg, "_reconstruct", one_entry_off)
    # every prime reconstructs, and every reconstruction fails the product
    assert linalg._rref_multimodular(rows, 4) is None
    fallbacks = spy(monkeypatch, "_rref_fraction")
    assert linalg.rref(QQ, rows) == linalg._rref_fraction(rows, 4) == gauss_jordan_reference(rows, 4)
    assert len(fallbacks) == 2


def test_reduced_form_too_large_for_every_prime_falls_back(monkeypatch):
    fallbacks = spy(monkeypatch, "_rref_fraction")
    attempts = spy(monkeypatch, "_reconstruct")
    # entries of under 60 bits, inside ENTRY_BOUND, whose 2 x 2 minors run to
    # about 115 bits: the free column needs twice the bits of the four primes
    rows = [[Fraction(3**37), Fraction(5**25), Fraction(1)],
            [Fraction(7**20), Fraction(11**16), Fraction(2)]]
    assert linalg.rref(QQ, rows) == gauss_jordan_reference(rows, 3)
    # every prime is tried, and nothing it reconstructs passes the product
    assert len(attempts) == len(linalg.PRIMES) and len(fallbacks) == 1


def test_entries_past_the_bound_go_to_fractions_directly(monkeypatch):
    fallbacks = spy(monkeypatch, "_rref_fraction")
    attempts = spy(monkeypatch, "_reconstruct")
    rows = [[Fraction(3**150), Fraction(5**140), Fraction(1)],
            [Fraction(7**120), Fraction(11**100, 13), Fraction(2)]]
    assert 3**150 > linalg.ENTRY_BOUND
    assert linalg.rref(QQ, rows) == gauss_jordan_reference(rows, 3)
    assert attempts == [] and len(fallbacks) == 1


def test_pivots_lost_mod_the_first_prime_restart_from_the_second(monkeypatch):
    fallbacks = spy(monkeypatch, "_rref_fraction")
    attempts = spy(monkeypatch, "_reconstruct")
    # the first column vanishes mod p, so its pivot is missing there alone
    rows = [[Fraction(P), Fraction(1), Fraction(5)], [Fraction(2 * P), Fraction(3), Fraction(-1, 2)]]
    assert linalg.rref(PrimeField(P), [[int(x) % P for x in row] for row in rows])[1] == [1, 2]
    assert linalg.rref(QQ, rows) == gauss_jordan_reference(rows, 3)
    # the first prime's form fails the product; the second has more pivots,
    # so the CRT starts over from it, and the fourth prime proves the form
    assert len(attempts) == 4 and attempts[-1] is not None and fallbacks == []


def test_a_later_prime_with_lost_pivots_is_skipped(monkeypatch):
    fallbacks = spy(monkeypatch, "_rref_fraction")
    attempts = spy(monkeypatch, "_reconstruct")
    # the free column holds (2^40 + 1)/q for q the second prime, which needs
    # three primes to reconstruct; mod q the first column vanishes
    q = linalg.PRIMES[1]
    rows = [[Fraction(q), Fraction(0), Fraction(2**40 + 1)], [Fraction(0), Fraction(1), Fraction(0)]]
    assert linalg.rref(PrimeField(q), [[int(x) % q for x in row] for row in rows])[1] == [1, 2]
    assert linalg.rref(QQ, rows) == gauss_jordan_reference(rows, 3)
    # the first, third and fourth primes reconstruct; the second is skipped
    assert len(attempts) == 3 and attempts[-1] is not None and fallbacks == []
