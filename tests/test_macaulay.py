"""The one Macaulay-matrix builder, `graded.multiples_coords`, against the
per-entry and equation-dictionary builders it replaced, kept here as
independent references.  The builder writes numpy arrays of the field's
scalar type (int64 at p = 10009, Python ints at p = 2^61 - 1, Fractions over
Q); `multiples_coords` hands back lists and `degree_map_matrix` the
transposed array, so the rows are compared value, type and shape.  The
modp eliminations of one `mf grouplaw --g 3` are pinned by their shapes."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ulrichmf import binary, cli, graded, linalg, mf, modp
from ulrichmf.fields import QQ, PrimeField
from ulrichmf.pencil import HyperellipticData
from ulrichmf.poly import Poly
from ulrichmf.polymatrix import PolyMatrix

from tests.scalars import assert_field_scalar

ST = binary.ST
FIELDS = [PrimeField(10009), PrimeField(2**61 - 1), QQ]


def vector_coords(field, vec, basis):
    """The reference: coordinates of a homogeneous degree-d module element,
    entry j of degree d - a_j, in the degree-d basis, read term by term."""
    index = {key: i for i, key in enumerate(basis)}
    coords = [field.zero] * len(basis)
    for j, p in enumerate(vec):
        for exp, c in p.terms.items():
            coords[index[(j, exp)]] = c
    return coords


def ref_degree_map_matrix(m, d):
    """Reference: entry (t, s) is the coefficient of m's entry at e_t - e_s."""
    src = graded.degree_basis(m.col_degrees, d)
    tgt = graded.degree_basis(m.row_degrees, d)
    rows = []
    for i_t, exp_t in tgt:
        row = []
        for j_s, exp_s in src:
            diff = tuple(a - b for a, b in zip(exp_t, exp_s))
            if any(x < 0 for x in diff):
                row.append(m.field.zero)
            else:
                row.append(m.entry(i_t, j_s).coefficient(diff))
        rows.append(row)
    return rows, src, tgt


def ref_hom_space(m1, m2, twist=0):
    """Reference: one equation per (i, j, monomial) of T phi1 - phi2 T."""
    field = m1.field
    a = m1.module.degrees
    b = m2.module.degrees
    n1, n2 = len(a), len(b)
    slots = []
    slot_index = {}
    for i in range(n2):
        for j in range(n1):
            for mono in graded.monomials(a[j] - b[i] + twist):
                slot_index[(i, j, mono)] = len(slots)
                slots.append((i, j, mono))
    if not slots:
        return 0, []
    equations = {}

    def accumulate(i, j, factor, ti, tj, sign):
        for mono in graded.monomials(a[tj] - b[ti] + twist):
            col = slot_index[(ti, tj, mono)]
            for exp, c in factor.terms.items():
                key = (i, j, tuple(x + y for x, y in zip(exp, mono)))
                row = equations.setdefault(key, {})
                val = field.add(row.get(col, field.zero), c if sign > 0 else field.neg(c))
                if field.is_zero(val):
                    row.pop(col, None)
                else:
                    row[col] = val

    for i in range(n2):
        for j in range(n1):
            for k in range(n1):
                if not m1.phi.entry(k, j).is_zero():
                    accumulate(i, j, m1.phi.entry(k, j), i, k, +1)
            for k in range(n2):
                if not m2.phi.entry(i, k).is_zero():
                    accumulate(i, j, m2.phi.entry(i, k), k, j, -1)
    rows = [[equations[key].get(c, field.zero) for c in range(len(slots))]
            for key in sorted(equations)]
    basis = linalg.nullspace(field, rows, len(slots)) if rows else [
        [field.one if i == k else field.zero for i in range(len(slots))]
        for k in range(len(slots))
    ]
    witnesses = []
    for vec in basis:
        entries = [[Poly.zero(field, ST) for _ in range(n1)] for _ in range(n2)]
        for (i, j, mono), c in zip(slots, vec):
            if not field.is_zero(c):
                entries[i][j] = entries[i][j] + Poly(field, ST, {mono: c})
        witnesses.append(PolyMatrix(field, ST, entries))
    return len(witnesses), witnesses


def random_scalar(rng, field):
    if field is QQ:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return rng.randrange(field.p)


def random_form(rng, field, degree):
    """A binary form of the given degree, zero a third of the time."""
    if degree < 0 or rng.random() < 0.3:
        return Poly.zero(field, ST)
    pairs = [(exp, random_scalar(rng, field))
             for exp in graded.monomials(degree) if rng.random() < 0.7]
    return Poly.from_pairs(field, ST, pairs)


def random_graded_matrix(rng, field):
    row_deg = [rng.randrange(-2, 2) for _ in range(rng.randrange(1, 4))]
    col_deg = [rng.randrange(-1, 3) for _ in range(rng.randrange(0, 4))]
    rows = [[random_form(rng, field, c - r) for c in col_deg] for r in row_deg]
    return PolyMatrix(field, ST, rows, row_degrees=row_deg, col_degrees=col_deg)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_degree_map_matrix_matches_per_entry_reference(field):
    rng = random.Random(11)
    seen_empty_src = seen_empty_tgt = 0
    for _ in range(40):
        m = random_graded_matrix(rng, field)
        for d in range(-3, 5):
            got = graded.degree_map_matrix(m, d)
            want = ref_degree_map_matrix(m, d)
            assert_scalar_array(field, got[0], len(want[2]), len(want[1]))
            assert (got[0].tolist(), got[1], got[2]) == want
            assert_field_lists(field, got[0].tolist())
            seen_empty_src += not got[1]
            seen_empty_tgt += not got[2]
    assert seen_empty_src and seen_empty_tgt


def test_degree_map_matrix_empty_bases():
    field = PrimeField(10009)
    s = Poly.variable(field, ST, "s")
    m = PolyMatrix(field, ST, [[s]], row_degrees=[0], col_degrees=[1])
    t_and_s = [(0, (0, 1)), (0, (1, 0))]
    no_cols = PolyMatrix(field, ST, [[]], row_degrees=[0], col_degrees=[])
    for (matrix, d), want in [
        ((m, 0), ([[]], [], [(0, (0, 0))])),
        ((m, -1), ([], [], [])),
        ((m, 1), ([[0], [1]], [(0, (0, 0))], t_and_s)),
        ((no_cols, 1), ([[], []], [], t_and_s)),
    ]:
        rows, src, tgt = graded.degree_map_matrix(matrix, d)
        assert_scalar_array(field, rows, len(tgt), len(src))
        assert (rows.tolist(), src, tgt) == want


def assert_scalar_array(field, rows, nrows, ncols):
    """A 2-d array of the field's stored scalar type, one row per target
    coordinate and one column per source coordinate."""
    assert isinstance(rows, np.ndarray)
    assert rows.shape == (nrows, ncols)
    assert rows.dtype == linalg.scalar_dtype(field)


def assert_field_lists(field, rows):
    """Rows are lists of the field's own scalars, not numpy arrays or numpy ints."""
    assert type(rows) is list and all(type(row) is list for row in rows)
    for row in rows:
        for c in row:
            assert_field_scalar(field, c)


def test_multiples_coords_matches_multiply_then_read():
    rng = random.Random(3)
    seen = dict.fromkeys(("empty basis", "no multiples", "zero generator", "rows"), 0)
    for field in FIELDS:
        for _ in range(20):
            targets = [rng.randrange(-1, 2) for _ in range(rng.randrange(0, 4))]
            gens = []
            for _ in range(rng.randrange(0, 4)):
                e = rng.randrange(-1, 3)
                vec = [random_form(rng, field, e - a) for a in targets]
                if rng.random() < 0.2:
                    vec = [Poly.zero(field, ST) for _ in targets]
                gens.append((e, vec))
            for d in range(-2, 5):
                basis = graded.degree_basis(targets, d)
                want = []
                for e, vec in gens:
                    for mono in graded.monomials(d - e):
                        x = Poly(field, ST, {mono: field.one})
                        want.append(vector_coords(field, [p * x for p in vec], basis))
                        seen["zero generator"] += all(p.is_zero() for p in vec)
                got = graded.multiples_coords(field, gens, targets, d)
                assert got == want
                assert_field_lists(field, got)
                seen["empty basis"] += not basis
                seen["no multiples"] += bool(gens) and not want
                seen["rows"] += len(want)
    assert all(seen.values()), seen


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_multiples_coords_names_the_entry_of_a_wrong_degree_term(field):
    rng = random.Random(5)
    raised = 0
    for _ in range(30):
        targets = [rng.randrange(-1, 2) for _ in range(rng.randrange(1, 4))]
        e = rng.randrange(0, 3)
        vec = [random_form(rng, field, e - a) for a in targets]
        j = rng.randrange(len(targets))
        wrong = graded.monomials(max(e - targets[j], 0) + 1)[0]
        bad = list(vec)
        bad[j] = vec[j] + Poly(field, ST, {wrong: field.one})
        for d in range(-1, 5):
            assert_field_lists(field, graded.multiples_coords(field, [(e, vec)], targets, d))
            if d < e:
                # no multiples in degree d: the generator is not read
                assert graded.multiples_coords(field, [(e, bad)], targets, d) == []
                continue
            with pytest.raises(graded.GradedError,
                               match=f"^entry {j} has a term of the wrong degree$"):
                graded.multiples_coords(field, [(e, vec), (e, bad)], targets, d)
            # an entry past the targets has no degree to be right in
            extra = vec + [Poly.const(field, ST, 1)]
            with pytest.raises(graded.GradedError,
                               match=f"^entry {len(targets)} has a term of the wrong degree$"):
                graded.multiples_coords(field, [(e, extra)], targets, d)
            raised += 1
    assert raised


def test_multiples_coords_rejects_wrong_degree_term():
    field = PrimeField(10009)
    s = Poly.variable(field, ST, "s")
    t = Poly.variable(field, ST, "t")
    # entry 1 should have degree 1 - 0 = 1; s*t lands in degree 3 at d = 2
    gens = [(1, [s, s * t])]
    assert graded.multiples_coords(field, [(1, [s, t])], [0, 0], 2)
    with pytest.raises(graded.GradedError, match="entry 1 has a term of the wrong degree"):
        graded.multiples_coords(field, gens, [0, 0], 2)
    inhomogeneous = PolyMatrix(field, ST, [[s + s * t]], row_degrees=[0], col_degrees=[1])
    with pytest.raises(graded.GradedError):
        graded.degree_map_matrix(inhomogeneous, 1)


def random_curve(rng, field, genus):
    roots = rng.sample(range(1, 60), 2 * genus + 2)
    return HyperellipticData.from_factors(
        field, [binary.root_factor(field, field.of(r)) for r in roots]
    )


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_hom_space_matches_equation_reference(field):
    rng = random.Random(17)
    nonzero = 0
    for genus in (1, 2):
        h = random_curve(rng, field, genus)
        classes = mf.canonical_classes(h)
        bundles = [mf.line_bundle_mf(h, k) for k in rng.sample(classes, 4)]
        bundles.append(mf.tensor_mf(bundles[0], bundles[1]))
        bundles.append(bundles[2].twist_h(rng.choice((-1, 1))))
        for _ in range(12):
            m1, m2 = rng.choice(bundles), rng.choice(bundles)
            twist = rng.randrange(-2, 3)
            dim, basis = mf.hom_space(m1, m2, twist)
            want_dim, want_basis = ref_hom_space(m1, m2, twist)
            assert dim == want_dim
            assert [t.to_json() for t in basis] == [t.to_json() for t in want_basis]
            nonzero += dim > 0
    assert nonzero


# the modp eliminations of `mf grouplaw --g 3` (default roots, I and J), as
# (function, rows, columns), in order, recorded before the Gauss-Jordan step
# of modp.rref became one broadcast update: that change makes each
# elimination cheaper and must not change which ones run
GROUPLAW_G3_ELIMINATIONS = [
    ("rref", 4, 4), ("rref", 7, 1), ("rref", 10, 2), ("rref", 13, 3), ("rref", 16, 4),
    ("rref", 20, 7), ("rref", 24, 10), ("rref", 28, 13), ("rref", 32, 16), ("rref", 36, 20),
    ("rref", 20, 7), ("rref", 36, 15), ("rref", 20, 7),
]


def test_grouplaw_g3_runs_the_recorded_eliminations(monkeypatch, capsys):
    calls = []
    for name in ("rref", "echelon"):
        def record(a, p, name=name, real=getattr(modp, name)):
            calls.append((name, *np.shape(a)))
            assert p == 10009
            return real(a, p)
        monkeypatch.setattr(modp, name, record)
    assert cli.main(["mf", "grouplaw", "--g", "3"]) == 0
    assert "pass: True" in capsys.readouterr().out
    assert calls == GROUPLAW_G3_ELIMINATIONS
