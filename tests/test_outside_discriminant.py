"""An outside check of the discriminant of every emitted Ulrich candidate.

Nothing here comes from ulrichmf: the candidates are read from the emitted
JSON (golden files, or fresh output of ``python -m ulrichmf``), each Gram
matrix is built from q1 and q2 here, and every determinant is a Gaussian
elimination mod p written here.  For the targets lam_1, ..., lam_r of a
candidate in r variables, the discriminant det(s B1 + t B2) is checked to
- vanish at each (lam_i, 1): det(lam_i B1 + B2) = 0;
- have full degree r: det B1 != 0;
- vanish at no sampled non-target lam.
Over Q the check runs mod a prime that divides no denominator: a rational
that vanishes vanishes mod p, and one that does not vanish mod p is nonzero.
"""

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


def gram(terms, nvars, p):
    """B mod p with x^T B x = q, for q's JSON terms [exponents, numerator, denominator]."""
    half = pow(2, -1, p)
    b = [[0] * nvars for _ in range(nvars)]
    for exps, num, den in terms:
        c = residue(Fraction(num, den), p)
        support = [k for k, e in enumerate(exps) if e]
        assert sum(exps) == 2, f"not a quadratic term: {exps}"
        if len(support) == 1:
            (i,) = support
            b[i][i] = (b[i][i] + c) % p
        else:
            i, j = support
            b[i][j] = b[j][i] = (b[i][j] + c * half) % p
    return b


def discriminant_failure(candidate, targets, seed=0):
    """None if the candidate's discriminant has exactly the targets as roots
    (in the three checks of this module), else the first failing check."""
    field = candidate["field"]
    if field == "Q":
        p = Q_PRIME
    else:
        p = int(field)
    nvars = len(candidate["variables"])
    b1, b2 = (gram(candidate[key], nvars, p) for key in ("q1", "q2"))
    lams = [residue(t, p) for t in targets]
    if len(set(lams)) != len(lams) or len(lams) != nvars:
        return f"{len(targets)} targets, {len(set(lams))} distinct mod {p}, for {nvars} variables"

    def at(lam):
        return det_mod([[lam * x + y for x, y in zip(r1, r2)] for r1, r2 in zip(b1, b2)], p)

    for t, lam in zip(targets, lams):
        if at(lam):
            return f"det(lam B1 + B2) != 0 at the target {t}"
    if not det_mod(b1, p):
        return "det B1 = 0: the discriminant has a root at infinity"
    rng = random.Random(seed)
    for _ in range(SAMPLES):
        lam = rng.randrange(p)
        if lam not in lams and not at(lam):
            return f"det(lam B1 + B2) = 0 at the non-target {lam}"
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


@pytest.mark.parametrize("roots", ROOTS, ids=["even", "odd"])
@pytest.mark.parametrize("field", FIELDS)
def test_fresh_discriminant(field, roots):
    candidate = emitted(field, roots)
    assert candidate["field"] == field
    assert discriminant_failure(candidate, roots.split(","), seed=1) is None


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_one_changed_q2_coefficient_fails(name):
    # negative control: one coefficient of q2 moved by one
    candidate = load(name)
    exps, num, den = candidate["q2"][0]
    candidate["q2"][0] = [exps, num + den, den]
    failure = discriminant_failure(candidate, GOLDENS[name].split(","))
    assert failure is not None and failure.startswith("det(lam B1 + B2) != 0 at the target")


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
