"""Acceptance suite: one check per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Every tolerance here is exact: all arithmetic is over F_p or Q.

The raynaud-negativity check (criterion 11) asserts that no torsion line
bundle on a genus <= 2 curve has vanishing h^0 and h^1.  Honest computation
contradicts this for genus 1 even classes and genus 2 odd classes (their
Euler characteristic vanishes and they have no sections), so that check
fails and is expected to fail; see the assertion message for the witnesses.
"""

import random
import time
from itertools import combinations
from math import comb

from ulrichmf import betti, binary, clifford, knorrer, mf
from ulrichmf.fields import DEFAULT_PRIME, PrimeField
from ulrichmf.pencil import HyperellipticData
from ulrichmf.poly import Poly
from ulrichmf.polymatrix import PolyMatrix

from tests.test_knorrer import pair_polymatrix

F = PrimeField(DEFAULT_PRIME)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {name}: {status}" + (f" - {detail}" if detail else ""))
    return ok


def curve(genus, field=F):
    return HyperellipticData.from_factors(
        field, [binary.root_factor(field, c) for c in range(1, 2 * genus + 3)]
    )


def clifford_dimension(h, k):
    """dim_k C_k by direct basis-word enumeration: pairs (|I|, monomial in s,t)."""
    sizes = range(k % 2, min(k, h.nbranch) + 1, 2)
    return sum(comb(h.nbranch, size) * ((k - size) // 2 + 1) for size in sizes)


def test_criterion_01_knorrer_identity():
    start = time.perf_counter()
    for n in range(0, 9):
        phi, psi, _ = knorrer.knorrer_pair(F, n)
        phi, psi = pair_polymatrix(F, phi), pair_polymatrix(F, psi)
        names = knorrer.xy_variables(n)
        q = Poly.zero(F, names)
        for i in range(n + 1):
            q = q + Poly.variable(F, names, f"x{i}") * Poly.variable(F, names, f"y{i}")
        qid = PolyMatrix.scalar_matrix(F, names, q, 2**n)
        assert phi @ psi == qid, f"phi psi != q id at n={n}"
        assert psi @ phi == qid, f"psi phi != q id at n={n}"
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    assert report("01 knorrer-identity n=0..8", ok, f"{elapsed:.2f}s"), elapsed


def test_criterion_02_mixed_identity():
    for n in range(0, 7):
        failure = knorrer.mixed_identity_failure(F, n)
        assert failure is None, f"mixed identity fails at n={n}: {failure}"
    assert report("02 mixed-identity n=0..6", True)


def test_criterion_03_group_law():
    h1 = curve(1)
    for key_i in mf.canonical_classes(h1):
        for key_j in mf.canonical_classes(h1):
            rep = mf.verify_group_law(h1, key_i, key_j)
            assert rep["pass"], rep
    for genus, seed in ((2, 1002), (3, 1003)):
        h = curve(genus)
        classes = mf.canonical_classes(h)
        rng = random.Random(seed)
        for _ in range(50):
            key_i = rng.choice(classes)
            key_j = rng.choice(classes)
            rep = mf.verify_group_law(h, key_i, key_j)
            assert rep["pass"], rep
    assert report("03 group-law g=1 exhaustive, g=2,3 sampled 50", True)


def test_criterion_04_two_torsion_count():
    h = curve(1)
    evens = mf.canonical_classes(h, parity=0)
    odds = mf.canonical_classes(h, parity=1)
    assert len(evens) == 4, evens  # 2^{2g} classes at g = 1
    assert len(odds) == 4, odds
    for family in (evens, odds):
        bundles = {rep: mf.line_bundle_mf(h, rep) for rep in family}
        for a, b in combinations(family, 2):
            dim, _ = mf.hom_space(bundles[a], bundles[b], 0)
            assert dim == 0, (sorted(a), sorted(b), dim)
        for rep in family:
            dim, _ = mf.hom_space(bundles[rep], bundles[rep], 0)
            assert dim == 1, sorted(rep)
    assert report("04 two-torsion count g=1 (4 even + 4 odd, pairwise hom 0)", True)


def test_criterion_05_clifford_checks():
    rng = random.Random(505)
    for genus in (1, 2, 3):
        h = curve(genus)
        universe = list(range(1, h.nbranch + 1))

        def random_element():
            terms = {}
            for _ in range(3):
                size = rng.randrange(0, h.nbranch + 1)
                subset = frozenset(rng.sample(universe, size))
                coeff = binary.linear_form(F, rng.randrange(F.p), rng.randrange(F.p))
                if not coeff.is_zero():
                    from ulrichmf.poly import Poly

                    prev = terms.get(subset, Poly.zero(F, binary.ST))
                    terms[subset] = prev + coeff
            return clifford.CliffordElement(h, terms)

        for _ in range(200):
            a, b, c = random_element(), random_element(), random_element()
            assert (a * b) * c == a * (b * c)
    for genus in (1, 2):
        h = curve(genus)
        y = clifford.central_element_y(h)
        f_elem = clifford.CliffordElement.basis(h, frozenset(), h.f)
        assert y * y == f_elem
        for size in range(h.nbranch + 1):
            for combo in combinations(range(1, h.nbranch + 1), size):
                w = clifford.CliffordElement.basis(h, combo)
                if size % 2 == 0:
                    assert y * w == w * y, combo
                else:
                    assert (y * w + w * y).is_zero(), combo
        for rep in mf.canonical_classes(h, parity=0):
            assert clifford.even_decomposition_check(h, rep)["pass"], sorted(rep)
    assert report(
        "05 clifford (associativity 200x3, y^2=f, centrality, decomposition)", True
    )


def test_criterion_06_bgg_certificate():
    for genus in (1, 2):
        h = curve(genus)
        window = clifford.regular_module_window(h, 0, 7)
        result = clifford.bgg_complex(window, 0, 4)
        for k in range(0, 4):
            assert result["certificates"][k], (genus, k)
        dims = [window.dim(k) for k in range(0, 6)]
        expect = [clifford_dimension(h, k) for k in range(0, 6)]
        assert dims == expect, (dims, expect)
        # closed form: sum over j of (j+1) C(2g+2, k-2j), the T-monomial count
        closed = [
            sum(
                (j + 1) * comb(2 * genus + 2, k - 2 * j)
                for j in range(k // 2 + 1)
                if k - 2 * j >= 0
            )
            for k in range(0, 6)
        ]
        assert dims == closed, (dims, closed)
    assert report("06 bgg d^2 certificate g<=2, window 0..4; ranks = dim C_i", True)


def test_criterion_07_betti_table_g3():
    table = betti.tate_shape(3)
    assert table.lower == [1, 5, 12, 20, 28, 36]
    assert table.upper == [28, 20, 12, 5, 1]
    assert table.overlap == 3
    golden = "... 28 20 12  5  1\n           1  5 12 20 28 36 ..."
    assert table.render() == golden
    from tests.test_betti import ext_dimension_enumerated

    for g in range(1, 9):
        for i in range(0, 2 * g + 4):
            assert betti.betti_number(g, i) == ext_dimension_enumerated(g, i)
    assert report("07 betti table g=3 byte-exact; formulas vs enumeration g<=8", True)


def test_criterion_08_fu_numerics_and_parity():
    for g in range(1, 9):
        _, rank, degree = betti.fu_module(g)
        assert rank == 2**g
        assert degree == g * 2 ** (g - 1)
    for g in range(1, 7):
        for r in range(1, 5):
            _, _, admissible = betti.chi_and_parity(g, r, 0)
            assert admissible == ((r * g) % 2 == 0)
            has_zero = any(
                betti.chi_and_parity(g, r, d)[0] == 0 for d in range(-200, 201)
            )
            assert has_zero == admissible, (g, r)
    assert report("08 F_U rank/degree g<=8; parity obstruction table", True)


def test_criterion_09_ulrich_end_to_end():
    elapsed = {}
    for n, seed in ((2, 901), (3, 902)):
        rng = random.Random(seed)
        start = time.perf_counter()
        targets = []
        seen = set()
        while len(targets) < n + 1:  # square targets for the chart slots
            r = rng.randrange(2, F.p)
            v = F.mul(r, r)
            if v not in seen and v != 0:
                seen.add(v)
                targets.append(v)
        while len(targets) < 2 * n + 1:
            v = rng.randrange(1, F.p)
            if v not in seen:
                seen.add(v)
                targets.append(v)
        cand = knorrer.ulrich_for_roots_odd_ambient(
            F, targets[: n + 1], targets[n + 1 :], seed=seed
        )
        ok, detail = cand.verify_certificates()
        assert ok, detail
        got = sorted(int(v) for v in cand.verification["discriminant_roots"])
        assert got == sorted(targets), (got, targets)
        r = cand.generators
        assert r == 2**n
        for hseed in (101, 202, 303):
            ok, transcript = knorrer.artinian_hilbert_check(cand, trials=3, seed=hseed)
            assert ok, transcript
            assert f"({r},0,0,0)" in transcript
        elapsed[n] = time.perf_counter() - start
    assert elapsed[3] < 60.0, elapsed
    assert report(
        "09 ulrich end-to-end n=2,3 (certificates, roots, hilbert on 3 seeds)",
        True,
        f"n=3 in {elapsed[3]:.2f}s",
    )


def test_criterion_10_even_ambient_g2():
    targets = [1, 2, 3, 4, 5, 6]
    cand = knorrer.ulrich_for_roots_even_ambient(F, targets, seed=1010)
    assert len(cand.variables) == 6
    # the presentation is stored as its coefficient tensor (variables, rows, cols)
    assert cand.presentation.shape == (6, 8, 16)
    # degree of the module is 2^n = 8 on a degree-4 variety: rank 2 = 2^{g-1}
    assert cand.generators // 4 == 2
    got = sorted(int(v) for v in cand.verification["discriminant_roots"])
    assert got == targets
    # negative control: one corrupted entry (+ w0 at (0, 0)) breaks the exact certificates
    good = cand.presentation
    cand.presentation = good.copy()
    cand.presentation[0, 0, 0] = F.add(int(good[0, 0, 0]), 1)
    ok, detail = cand.verify_certificates()
    assert not ok, "corrupted entry must break a certificate"
    # negative control: a destroyed relation leaves degree-1 cokernel the
    # Hilbert check reports
    cand.presentation = good.copy()
    cand.presentation[:, :, 0] = F.zero
    ok, note = knorrer.artinian_hilbert_check(cand, trials=2, seed=7)
    assert not ok and "coker dims [8, 1" in note, note
    cand.presentation = good
    assert report(
        "10 even-ambient g=2: 8x16 rank-2 presentation; negative controls", True
    )


def test_criterion_11_raynaud_negativity():
    offenders = []
    for genus in (1, 2):
        h = curve(genus)
        for rep in mf.canonical_classes(h):
            if mf.raynaud_check(mf.line_bundle_mf(h, rep)):
                offenders.append((genus, sorted(rep)))
    ok = not offenders
    report("11 raynaud negativity for all L_I, g<=2", ok, f"offenders: {offenders}")
    assert ok, (
        "raynaud_check is true for these torsion line bundles (their chi "
        f"vanishes and they have no sections): {offenders}; the blanket "
        "negativity claim holds only for genus >= 3, where chi(L_I) never "
        "vanishes"
    )
