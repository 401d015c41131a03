"""An outside check of every emitted Ulrich candidate: its discriminant, its
annihilators and its Hilbert certificate.

Nothing here comes from ulrichmf: the candidates are read from the emitted
JSON (golden files, or fresh output of ``python -m ulrichmf``), and every
matrix, product and determinant is built here.  Over F_p the arithmetic is
on residues mod p.  Over Q every test that a value is zero is exact, on
Fractions; a test that a value is nonzero runs mod a prime that divides no
denominator, since a rational whose residue is nonzero is nonzero.

For the targets lam_1, ..., lam_r of a candidate in r variables, the
discriminant det(s B1 + t B2) is checked to
- vanish at each (lam_i, 1): det(lam_i B1 + B2) = 0;
- have full degree r: det B1 != 0;
- vanish at no sampled non-target lam.

For the presentation A (r x 2r), B' and the certificates C_1, C_2 (2r x r),
all linear in the V variables, A B' = 0 and A C_l = q_l id are checked at
every e_i and every e_i + e_j.  Each entry of those products is a quadratic
form, and a quadratic form that vanishes at these V(V + 1)/2 points is zero:
its value at e_i is the coefficient of x_i^2, and its value at e_i + e_j
adds that of x_i x_j.

The Hilbert certificate is checked at a specialization of every variable to
a random linear form in u, v.  The four cubics u q1, v q1, u q2, v q2 must be
independent, which is the same as k[u, v]/(q1, q2) having graded dimensions
1, 2, 1, 0.  The 2r x 2r matrix of degree-1 coordinates of the columns of A
must have nonzero determinant.  Then the cokernel of A, as a module over
k[u, v]/(q1, q2), has dimensions r, 0, 0, 0.
"""

import functools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
# the prime of the check over Q
Q_PRIME = 2**61 - 1
SAMPLES = 20


def det_exact(rows):
    """The determinant over Q of a square matrix, by elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def det_mod(rows, p):
    """The determinant mod p of a square matrix of residues, by elimination."""
    a = [[x % p for x in row] for row in rows]
    n, det = len(a), 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col] % p
        inv = pow(a[col][col], -1, p)
        for r in range(col + 1, n):
            factor = a[r][col] * inv % p
            if factor:
                a[r] = [(x - factor * y) % p for x, y in zip(a[r], a[col])]
    return det % p


def residue(value, p):
    """A rational (int, Fraction or 'a/b' string) mod p."""
    value = Fraction(value)
    if value.denominator % p == 0:
        raise ValueError(f"{value} has no value mod {p}")
    return value.numerator * pow(value.denominator, -1, p) % p


def scalar(value, p):
    """A rational mod p, or as a Fraction when p is None (the field Q)."""
    return Fraction(value) if p is None else residue(value, p)


def zero_test_prime(candidate):
    """The prime of the zero tests: p over F_p, None (exact) over Q."""
    return None if candidate["field"] == "Q" else int(candidate["field"])


def nonzero_test_prime(candidate):
    """The prime of the nonvanishing tests: p over F_p, Q_PRIME over Q."""
    return Q_PRIME if candidate["field"] == "Q" else int(candidate["field"])


def gram(terms, nvars, p):
    """B with x^T B x = q, for q's JSON terms [exponents, numerator,
    denominator]: residues mod p, or Fractions when p is None."""
    half = Fraction(1, 2) if p is None else pow(2, -1, p)
    b = [[0] * nvars for _ in range(nvars)]
    for exps, num, den in terms:
        c = scalar(Fraction(num, den), p)
        support = [k for k, e in enumerate(exps) if e]
        assert sum(exps) == 2, f"not a quadratic term: {exps}"
        if len(support) == 1:
            (i,) = support
            b[i][i] = b[i][i] + c
        else:
            i, j = support
            b[i][j] = b[j][i] = b[i][j] + c * half
    return b if p is None else [[x % p for x in row] for row in b]


def discriminant_failure(candidate, targets, seed=0):
    """None if the candidate's discriminant has exactly the targets as roots
    (in the three checks of this module), else the first failing check.

    Over Q the vanishing at each target is tested on Fractions, and the
    other two tests mod Q_PRIME."""
    exact, p = zero_test_prime(candidate), nonzero_test_prime(candidate)
    nvars = len(candidate["variables"])
    if len(set(map(Fraction, targets))) != len(targets) or len(targets) != nvars:
        return f"{len(targets)} targets, {len(set(map(Fraction, targets)))} distinct, for {nvars} variables"

    def pencil_at(b1, b2, lam):
        return [[lam * x + y for x, y in zip(r1, r2)] for r1, r2 in zip(b1, b2)]

    b1, b2 = (gram(candidate[key], nvars, exact) for key in ("q1", "q2"))
    for t in targets:
        lam = scalar(t, exact)
        at = pencil_at(b1, b2, lam)
        if det_exact(at) if exact is None else det_mod(at, exact):
            return f"det(lam B1 + B2) != 0 at the target {t}"
    b1, b2 = (gram(candidate[key], nvars, p) for key in ("q1", "q2"))
    lams = [residue(t, p) for t in targets]
    if len(set(lams)) != len(lams):
        return f"{len(targets)} targets, {len(set(lams))} distinct mod {p}"
    if not det_mod(b1, p):
        return "det B1 = 0: the discriminant has a root at infinity"
    rng = random.Random(seed)
    for _ in range(SAMPLES):
        lam = rng.randrange(p)
        if lam not in lams and not det_mod(pencil_at(b1, b2, lam), p):
            return f"det(lam B1 + B2) = 0 at the non-target {lam}"
    return None


# -- annihilators and the Hilbert certificate ---------------------------------------

def linear_matrix(data, nvars, p):
    """(rows, cols, by_variable) for a matrix of linear forms in its JSON form:
    by_variable[k] maps (i, j) to the coefficient of variable k in entry (i, j)."""
    rows, cols, entries = data["rows"], data["cols"], data["entries"]
    assert len(entries) == rows * cols, "entries do not fill the matrix"
    by_variable = [{} for _ in range(nvars)]
    for e, terms in enumerate(entries):
        for exps, num, den in terms:
            assert len(exps) == nvars and sorted(exps) == [0] * (nvars - 1) + [1], (
                f"entry {divmod(e, cols)} has the non-linear term {exps}")
            by_variable[exps.index(1)][divmod(e, cols)] = scalar(Fraction(num, den), p)
    return rows, cols, by_variable


def quadric(terms, nvars, p):
    """q as a map from exponent tuples to coefficients."""
    out = {}
    for exps, num, den in terms:
        assert len(exps) == nvars and sum(exps) == 2, f"not a quadratic term: {exps}"
        out[tuple(exps)] = scalar(Fraction(num, den), p)
    return out


def evaluate_rows(by_variable, point):
    """The scalar matrix sum_k point[k] M_k, as a dict of sparse rows."""
    out = {}
    for k, weight in point.items():
        for (i, j), c in by_variable[k].items():
            row = out.setdefault(i, {})
            row[j] = row.get(j, 0) + weight * c
    return out


def product_rows(left, right):
    """The product of two matrices of sparse rows."""
    out = {}
    for i, row in left.items():
        acc = out.setdefault(i, {})
        for k, a in row.items():
            for j, b in right.get(k, {}).items():
                acc[j] = acc.get(j, 0) + a * b
    return out


def evaluate_quadric(q, point):
    total = 0
    for exps, c in q.items():
        for k, e in enumerate(exps):
            c *= point.get(k, 0) ** e
        total += c
    return total


def evaluation_points(nvars):
    """Every e_i, then every e_i + e_j, as {variable: weight}."""
    yield from ({i: 1} for i in range(nvars))
    yield from ({i: 1, j: 1} for i in range(nvars) for j in range(i + 1, nvars))


def annihilator_failure(candidate):
    """None if A B' = 0 and A C_l = q_l id hold exactly, else the first failure,
    named by its product, point and entry."""
    p = zero_test_prime(candidate)
    nvars = len(candidate["variables"])
    r, cols, a = linear_matrix(candidate["presentation"], nvars, p)
    if cols != 2 * r:
        return f"presentation is {r} x {cols}, not r x 2r"
    checks = [("A B'", candidate["second_map"], {})]
    checks += [(f"A C{l} - q{l} id", candidate[f"cert_q{l}"], quadric(candidate[f"q{l}"], nvars, p))
               for l in (1, 2)]
    for name, data, q in checks:
        rows, width, right = linear_matrix(data, nvars, p)
        if (rows, width) != (2 * r, r):
            return f"{name}: the right factor is {rows} x {width}, not {2 * r} x {r}"
        for point in evaluation_points(nvars):
            prod = product_rows(evaluate_rows(a, point), evaluate_rows(right, point))
            q_value = evaluate_quadric(q, point)
            for i in range(r):
                row = prod.get(i, {})
                for j in range(r):
                    value = row.get(j, 0) - (q_value if i == j else 0)
                    if (value if p is None else value % p) != 0:
                        return f"{name} != 0 at {sorted(point)}, entry ({i}, {j})"
    return None


def specialized_quadric(q, us, vs, p):
    """The coefficients of u^2, uv and v^2 in q at x_k = us[k] u + vs[k] v, mod p."""
    out = [0, 0, 0]
    for exps, c in q.items():
        i, j = [k for k, e in enumerate(exps) for _ in range(e)]
        out[0] += c * us[i] * us[j]
        out[1] += c * (us[i] * vs[j] + us[j] * vs[i])
        out[2] += c * vs[i] * vs[j]
    return [x % p for x in out]


def hilbert_failure(candidate, seed=0, attempts=5):
    """None if the specialization x_k = us[k] u + vs[k] v, at the first of
    ``attempts`` random draws where k[u, v]/(q1, q2) has dimensions 1, 2, 1,
    0, leaves a nonsingular degree-1 matrix of A; else why not."""
    p = nonzero_test_prime(candidate)
    nvars = len(candidate["variables"])
    r, cols, a = linear_matrix(candidate["presentation"], nvars, p)
    if cols != 2 * r:
        return f"presentation is {r} x {cols}, not r x 2r"
    quadrics = [quadric(candidate[key], nvars, p) for key in ("q1", "q2")]
    rng = random.Random(seed)
    for _ in range(attempts):
        us = [rng.randrange(p) for _ in range(nvars)]
        vs = [rng.randrange(p) for _ in range(nvars)]
        # u q1, v q1, u q2, v q2 in the basis u^3, u^2 v, u v^2, v^3
        cubics = []
        for x, y, z in (specialized_quadric(q, us, vs, p) for q in quadrics):
            cubics += [[x, y, z, 0], [0, x, y, z]]
        if det_mod(cubics, p):
            break
    else:
        return f"no draw of {attempts} gives k[u, v]/(q1, q2) dimensions 1, 2, 1, 0"
    # row j: column j of A in degree 1, coordinates (i, u) and then (i, v)
    degree1 = [[0] * (2 * r) for _ in range(cols)]
    for k in range(nvars):
        for (i, j), c in a[k].items():
            degree1[j][i] += c * us[k]
            degree1[j][r + i] += c * vs[k]
    if not det_mod(degree1, p):
        return "the 2r x 2r degree-1 matrix of A is singular"
    return None


def load(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


# the targets each golden was made from
GOLDENS = {
    "ulrich_for_roots_even.json": "1,4,9,16,2,3",
    "ulrich_for_roots_g4.json": "1,4,9,16,25,2,3,5,6,7",
    "ulrich_for_roots_p31.json": "1,4,9,16,2,3",
    "ulrich_for_roots_p61.json": "1,4,9,16,2,3",
    "ulrich_for_roots_q.json": "1,4,9,2,3",
}


def test_every_for_roots_golden_is_listed():
    assert sorted(GOLDENS) == sorted(
        name for name in os.listdir(GOLDEN)
        if name.startswith("ulrich_for_roots_") and name.endswith(".json")
    )


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_discriminant(name):
    candidate = load(name)
    targets = GOLDENS[name].split(",")
    assert discriminant_failure(candidate, targets) is None
    assert sorted(map(Fraction, candidate["verification"]["discriminant_roots"])) == sorted(
        map(Fraction, targets))


# every emitted candidate kept as a golden: these and the for-roots goldens
CANDIDATES = ["ulrich_construct_n3.json", *sorted(GOLDENS)]


@pytest.mark.parametrize("name", CANDIDATES)
def test_golden_annihilators(name):
    assert annihilator_failure(load(name)) is None


@pytest.mark.parametrize("name", CANDIDATES)
def test_golden_hilbert_certificate(name):
    assert hilbert_failure(load(name)) is None


def emitted(field, roots):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ulrichmf", "--field", field, "--format", "json",
         "ulrich", "for-roots", "--roots", roots],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


FIELDS = ["10009", "2147483647", "2305843009213693951", "Q"]
# an even (emitted in the diagonal coordinates) and an odd target list
ROOTS = ["1,4,9,16,2,3", "1,4,9,16,2,3,5"]


@pytest.fixture(scope="module")
def fresh():
    """The output of each fresh command, run once for the whole module."""
    return functools.cache(emitted)


@pytest.mark.parametrize("roots", ROOTS, ids=["even", "odd"])
@pytest.mark.parametrize("field", FIELDS)
def test_fresh_discriminant(fresh, field, roots):
    candidate = fresh(field, roots)
    assert candidate["field"] == field
    assert discriminant_failure(candidate, roots.split(","), seed=1) is None


@pytest.mark.parametrize("roots", ROOTS, ids=["even", "odd"])
@pytest.mark.parametrize("field", FIELDS)
def test_fresh_annihilators_and_hilbert_certificate(fresh, field, roots):
    candidate = fresh(field, roots)
    assert annihilator_failure(candidate) is None
    assert hilbert_failure(candidate, seed=1) is None


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_one_changed_q2_coefficient_fails(name):
    # negative control: one coefficient of q2 moved by one
    candidate = load(name)
    exps, num, den = candidate["q2"][0]
    candidate["q2"][0] = [exps, num + den, den]
    failure = discriminant_failure(candidate, GOLDENS[name].split(","))
    assert failure is not None and failure.startswith("det(lam B1 + B2) != 0 at the target")


def test_a_multiple_of_the_prime_is_no_root_over_q():
    # negative control of the exact zero test: det(lam B1 + B2) = lam + c is
    # Q_PRIME at the target 3, which vanishes mod Q_PRIME but not over Q
    candidate = {"field": "Q", "variables": ["x"], "q1": [[[2], 1, 1]],
                 "q2": [[[2], Q_PRIME - 3, 1]]}
    assert discriminant_failure(candidate, ["3"]) == "det(lam B1 + B2) != 0 at the target 3"
    candidate["q2"] = [[[2], -3, 1]]
    assert discriminant_failure(candidate, ["3"]) is None


# a candidate per field: F_10009, F_(2^61 - 1) and Q
NEGATIVE = ["ulrich_construct_n3.json", "ulrich_for_roots_p61.json", "ulrich_for_roots_q.json"]


def changed_entry(candidate, key, step=1):
    """The candidate with the first coefficient of its key moved by ``step``."""
    data = candidate[key] if key in ("q1", "q2") else next(e for e in candidate[key]["entries"] if e)
    exps, num, den = data[0]
    data[0] = [exps, num + step * den, den]
    return candidate


# the product each change shows in; a changed A shows in the first of them
FAILING_PRODUCT = {"presentation": "A B'", "second_map": "A B'", "cert_q1": "A C1 - q1 id",
                   "q1": "A C1 - q1 id", "cert_q2": "A C2 - q2 id", "q2": "A C2 - q2 id"}


@pytest.mark.parametrize("key", FAILING_PRODUCT)
@pytest.mark.parametrize("name", NEGATIVE)
def test_one_changed_entry_fails_the_annihilators(name, key):
    failure = annihilator_failure(changed_entry(load(name), key))
    assert failure is not None and failure.startswith(FAILING_PRODUCT[key] + " != 0 at"), failure


def test_an_entry_moved_by_the_prime_fails_the_annihilators_over_q():
    # the exact zero test over Q: a change by Q_PRIME vanishes mod Q_PRIME
    candidate = changed_entry(load("ulrich_for_roots_q.json"), "second_map", step=Q_PRIME)
    assert annihilator_failure(candidate).startswith("A B' != 0")


@pytest.mark.parametrize("name", NEGATIVE)
def test_two_equal_columns_fail_the_hilbert_certificate(name):
    candidate = load(name)
    matrix = candidate["presentation"]
    cols, entries = matrix["cols"], matrix["entries"]
    for i in range(matrix["rows"]):
        entries[i * cols + 1] = entries[i * cols]
    assert hilbert_failure(candidate) == "the 2r x 2r degree-1 matrix of A is singular"


def test_det_exact_matches_det_mod():
    rng = random.Random(4)
    p = 10009
    for n in range(1, 6):
        a = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(n)]
             for _ in range(n)]
        for rows in (a, a[:-1] + a[:1]):  # the second repeats a row when n > 1
            want = det_mod([[residue(x, p) for x in row] for row in rows], p)
            assert residue(det_exact(rows), p) == want
    assert det_exact([[1, 2], [2, 4]]) == 0 and det_exact([[0, 1], [1, 0]]) == -1


def test_det_mod_matches_the_cofactor_expansion():
    # the elimination of this module against the Leibniz formula
    from itertools import permutations

    rng = random.Random(3)
    p = 10009
    for n in range(1, 5):
        for _ in range(5):
            a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
            total = 0
            for perm in permutations(range(n)):
                sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                term = sign
                for i, j in enumerate(perm):
                    term *= a[i][j]
                total += term
            assert det_mod(a, p) == total % p
