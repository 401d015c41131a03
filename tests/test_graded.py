import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrichmf import binary, graded, linalg, mf
from ulrichmf.fields import QQ, PrimeField
from ulrichmf.pencil import HyperellipticData
from ulrichmf.poly import Poly
from ulrichmf.polymatrix import PolyMatrix

from tests.poly_reference import rank

ST = binary.ST


def test_monomials():
    assert graded.monomials(2) == [(0, 2), (1, 1), (2, 0)]
    assert graded.monomials(-1) == []
    assert graded.monomials(0) == [(0, 0)]
    for d in range(-2, 6):
        # the exponent pairs of degree d in sorted order: monomial i is s^i t^(d-i)
        pairs = sorted(e for e in itertools.product(range(max(d + 1, 0)), repeat=2) if sum(e) == d)
        assert graded.monomials(d) == pairs
        assert graded.dim_poly_ring(d) == len(pairs)


def vector_coords(field, vec, gen_degrees, d, basis=None):
    """The reference: coordinates of a homogeneous degree-d module element,
    entry j of degree d - a_j, in the degree-d basis, read term by term."""
    if basis is None:
        basis = graded.degree_basis(gen_degrees, d)
    index = {key: i for i, key in enumerate(basis)}
    coords = [field.zero] * len(basis)
    for j, p in enumerate(vec):
        for exp, c in p.terms.items():
            if (j, exp) not in index:
                raise graded.GradedError(f"entry {j} has a term of the wrong degree")
            coords[index[(j, exp)]] = c
    return coords


def test_degree_basis_and_coords():
    f = PrimeField(13)
    degs = (0, 1)
    basis = graded.degree_basis(degs, 1)
    assert basis == [(0, (0, 1)), (0, (1, 0)), (1, (0, 0))]
    s = Poly.variable(f, ST, "s")
    one = Poly.const(f, ST, 1)
    coords = vector_coords(f, [s, one], degs, 1)
    assert coords == [0, 1, 1]
    # express_in_module reads a target as its degree-0 multiple
    assert graded.multiples_coords(f, [(1, [s, one])], degs, 1) == [coords]
    back = graded.coords_to_vector(f, coords, basis, 2, ST)
    assert back == [s, one]


def koszul_matrix(field):
    s = Poly.variable(field, ST, "s")
    t = Poly.variable(field, ST, "t")
    return PolyMatrix(
        field, ST, [[s, -t]], row_degrees=[0], col_degrees=[1, 1]
    )


def test_graded_kernel_koszul():
    for field in (QQ, PrimeField(10009)):
        m = koszul_matrix(field)
        ker = graded.graded_kernel(m)
        assert ker.ncols == 1
        assert ker.col_degrees == (2,)
        t = Poly.variable(field, ST, "t")
        s = Poly.variable(field, ST, "s")
        # the Koszul syzygy (t, s), up to a scalar
        col = ker.column(0)
        assert (m @ ker).is_zero()
        ratio = [col[0], col[1]]
        assert ratio[0] * s == ratio[1] * t


def test_graded_kernel_invertible_is_empty():
    field = PrimeField(13)
    s = Poly.variable(field, ST, "s")
    m = PolyMatrix(field, ST, [[s]], row_degrees=[0], col_degrees=[1])
    ker = graded.graded_kernel(m)
    assert ker.ncols == 0


def test_graded_kernel_requires_labels():
    field = QQ
    s = Poly.variable(field, ST, "s")
    with pytest.raises(graded.GradedError):
        graded.graded_kernel(PolyMatrix(field, ST, [[s]]))


def test_graded_kernel_rejects_inhomogeneous():
    field = QQ
    s = Poly.variable(field, ST, "s")
    one = Poly.const(field, ST, 1)
    m = PolyMatrix(field, ST, [[s + one]], row_degrees=[0], col_degrees=[1])
    with pytest.raises(graded.GradedError):
        graded.graded_kernel(m)


def random_homogeneous_matrix(rng, field, nrows, ncols):
    row_deg = [0] * nrows
    col_deg = [rng.randrange(1, 3) for _ in range(ncols)]
    rows = []
    for i in range(nrows):
        row = []
        for j in range(ncols):
            d = col_deg[j]
            coeffs = [rng.randrange(field.p) for _ in range(d + 1)]
            p = binary.binary_form(field, coeffs) if any(coeffs) else Poly.zero(field, ST)
            row.append(p)
        rows.append(row)
    return PolyMatrix(field, ST, rows, row_degrees=row_deg, col_degrees=col_deg)


def module_span_rank(field, gen_vectors, gen_degrees, target_degrees, d):
    """The reference: rank of the degree-d span of module elements inside
    (+)k[s,t](-a_j), one IncrementalEchelon row per monomial multiple."""
    basis = graded.degree_basis(target_degrees, d)
    ech = graded.IncrementalEchelon(field, len(basis))
    variables = gen_vectors[0][0].vars if gen_vectors else None
    for e_g, vec in zip(gen_degrees, gen_vectors):
        for mono in graded.monomials(d - e_g):
            mono_poly = Poly(field, variables, {mono: field.one})
            shifted = [p * mono_poly for p in vec]
            ech.add(vector_coords(field, shifted, target_degrees, d, basis))
    return len(ech.rows)


def test_graded_kernel_properties_random():
    rng = random.Random(2024)
    field = PrimeField(10009)
    for _ in range(15):
        m = random_homogeneous_matrix(rng, field, rng.randrange(1, 4), rng.randrange(1, 5))
        ker = graded.graded_kernel(m)
        assert (m @ ker).is_zero()
        # full column rank over the fraction field
        if ker.ncols:
            assert rank(ker) == ker.ncols
        # kernel Hilbert function agrees with the span of the generators
        gen_vecs = [list(ker.column(k)) for k in range(ker.ncols)]
        gen_degs = list(ker.col_degrees)
        for d in range(min(m.col_degrees), sum(m.col_degrees) + 2):
            rows, src, _ = graded.degree_map_matrix(m, d)
            from ulrichmf import linalg

            expected = len(src) - linalg.rank(field, rows, len(src))
            got = module_span_rank(
                field, gen_vecs, gen_degs, m.col_degrees, d
            ) if gen_vecs else 0
            assert got == expected


# -- graded_kernel against the sweep it replaced ---------------------------------


def graded_kernel_reference(m, degree_cap=60):
    """The replaced sweep: kappa from the exact rank over k[s,t], the span of
    the generators' multiples rebuilt at every degree, and two confirmation
    degrees after the last generator, which must come by the degree cap."""
    field = m.field
    kappa = m.ncols - rank(m)
    if kappa == 0:
        return PolyMatrix(field, m.vars, [[] for _ in range(m.ncols)],
                          row_degrees=m.col_degrees, col_degrees=())
    gens = []
    confirmed = 0
    for d in range(min(m.col_degrees), degree_cap + 3):
        rows, src, _ = graded.degree_map_matrix(m, d)
        if not src:
            continue
        ker_basis = linalg.nullspace(field, rows, len(src))
        span = graded.IncrementalEchelon(field, len(src))
        for row in graded.multiples_coords(field, gens, m.col_degrees, d):
            span.add(row)
        if len(gens) < kappa:
            for vec in ker_basis:
                if span.add(vec):
                    gens.append((d, graded.coords_to_vector(field, vec, src, m.ncols, m.vars)))
            confirmed = 0
            if len(gens) > kappa:
                raise graded.GradedError("found more kernel generators than the rank predicts")
        else:
            if len(span.rows) != len(ker_basis):
                raise graded.GradedError("kernel generation gap after expected rank reached")
            confirmed += 1
            if confirmed == 2:
                break
    else:
        raise graded.GradedError(
            f"kernel did not stabilize below degree cap {degree_cap} "
            "(inconsistent degree labels?)"
        )
    cols = [vec for _, vec in gens]
    entries = [[cols[k][j] for k in range(kappa)] for j in range(m.ncols)]
    return PolyMatrix(field, m.vars, entries, row_degrees=m.col_degrees,
                      col_degrees=[e for e, _ in gens])


def kernel_outcome(ker):
    """(generator degrees, generator columns)."""
    return ker.col_degrees, [ker.column(k) for k in range(ker.ncols)]


def random_binary_matrix(rng, field):
    """A homogeneous matrix over k[s,t] with sparse small coefficients; one in
    three repeats a scaled first row, so that the rank drops."""
    ncols = rng.randrange(1, 5)
    col_deg = [rng.randrange(1, 3) for _ in range(ncols)]
    row_deg = [rng.randrange(-1, 1) for _ in range(rng.randrange(1, 4))]

    def form(degree):
        coeffs = [field.of(rng.choice([0, 0, 1, -1, 2, rng.randrange(-9, 10)]))
                  for _ in range(degree + 1)]
        return binary.binary_form(field, coeffs)

    rows = [[form(c - r) for c in col_deg] for r in row_deg]
    if rng.randrange(3) == 0:
        scale = field.of(rng.choice([1, -1, 3]))
        rows.append([p.scale(scale) for p in rows[0]])
        row_deg.append(row_deg[0])
    return PolyMatrix(field, ST, rows, row_degrees=row_deg, col_degrees=col_deg)


def top_bound(m):
    """ncols minus the rank of m's value at (s, t) = (1, 0): the bound on kappa
    that ends the sweep unless the cap comes first."""
    field = m.field
    top = [[p.evaluate({"s": 1, "t": 0}) for p in row] for row in m.entries]
    return m.ncols - linalg.rank(field, top, m.ncols)


def checked_kernel(m):
    """graded_kernel(m), checked against the reference and the exact kappa."""
    ker = graded.graded_kernel(m)
    assert kernel_outcome(ker) == kernel_outcome(graded_kernel_reference(m)), m
    assert ker.ncols == m.ncols - rank(m)
    return ker


@pytest.mark.parametrize("field", [PrimeField(10009), PrimeField(3), QQ], ids=["p10009", "p3", "q"])
def test_graded_kernel_matches_the_replaced_sweep(field):
    rng = random.Random(field.name)
    generated = capped = 0
    for _ in range(160):
        m = random_binary_matrix(rng, field)
        ker = checked_kernel(m)
        generated += bool(ker.ncols)
        # values at (1, 0) of lower rank than m: the cap, not the bound, ends the sweep
        capped += ker.ncols < top_bound(m)
    assert generated >= 60 and capped >= 20


# 3 x 4 over F_3 and 4 x 4 of rank 3 over F_10009 and Q, row degrees -1, each
# with one kernel generator, of degree sum(c_j) + 3: entry (i, j) is a binary
# form, its coefficients listed from s^(c_j + 1) down to t^(c_j + 1)
OLD_CAP_CASES = {
    "p3": (PrimeField(3), (1, 1, 1, 1), [
        [[0, 0, 0], [0, 1, 0], [0, -1, -1], [-1, 0, 0]],
        [[-1, 0, -1], [1, -1, 1], [-1, 0, -1], [-1, 0, 0]],
        [[1, -1, 1], [0, 1, -1], [1, -1, 1], [1, 1, -1]],
    ]),
    "p10009": (PrimeField(10009), (1, 2, 2, 1), [
        [[1, 0, 2], [0, 0, 0, -1], [0, 2, -1, -1], [-1, 1, 0]],
        [[-2, -1, 3], [0, -1, -8, 1], [1, 0, 2, 1], [0, 2, 2]],
        [[0, -1, 1], [1, 1, 0, -7], [-5, -1, -3, 0], [0, 0, 0]],
        [[1, 0, 2], [0, 0, 0, -1], [0, 2, -1, -1], [-1, 1, 0]],
    ]),
    "q": (QQ, (2, 2, 2, 2), [
        [[1, -8, 7, 1], [1, 2, 0, 1], [-1, 0, 1, 0], [-5, 2, 8, -4]],
        [[0, -1, 0, 0], [-1, 0, 0, 1], [1, 0, 9, 9], [2, 0, 1, -3]],
        [[0, 2, 0, 0], [0, 2, 1, -1], [-1, 0, -1, 1], [0, -3, 1, -3]],
        [[-1, 8, -7, -1], [-1, -2, 0, -1], [1, 0, -1, 0], [5, -2, -8, 4]],
    ]),
}


@pytest.mark.parametrize("case", OLD_CAP_CASES)
def test_graded_kernel_finds_the_generator_past_the_old_cap(case):
    # the old default cap sum(c_j) + 2 stopped one degree short of the generator;
    # rho = 3 rows of degree -1 put the cap sum(c_j) + 3 right on it
    field, col_deg, coeffs = OLD_CAP_CASES[case]
    rows = [[binary.binary_form(field, [field.of(c) for c in form]) for form in row]
            for row in coeffs]
    m = PolyMatrix(field, ST, rows, row_degrees=[-1] * len(rows), col_degrees=col_deg)
    assert rank(m) == 3 and top_bound(m) == 1
    ker = checked_kernel(m)
    assert ker.col_degrees == (sum(col_deg) + 3,)


def tensor_differences(h, pairs, monkeypatch):
    """The matrix that tensor_mf hands graded_kernel, per pair."""
    seen = []
    real = graded.graded_kernel
    monkeypatch.setattr(graded, "graded_kernel", lambda m: seen.append(m) or real(m))
    for idx_i, idx_j in pairs:
        mf.tensor_mf(mf.line_bundle_mf(h, idx_i), mf.line_bundle_mf(h, idx_j))
    monkeypatch.undo()
    return seen


def curve(genus, field):
    roots = range(1, 2 * genus + 3)
    return HyperellipticData.from_factors(field, [binary.root_factor(field, c) for c in roots])


TENSOR_PAIRS = {
    1: [({1, 2}, {2, 3}), ({1, 2}, {1, 2}), ({1}, {2}), ({1}, {1}), ({1, 2}, {3}), (set(), {1})],
    2: [({1, 2}, {2, 3}), ({1, 2}, {3, 4}), ({1}, {2, 3, 4}), ({1, 3, 5}, {3, 4, 5}),
        ({1, 2}, {2, 3, 5}), ({1, 2, 3}, {4, 5})],
}


@pytest.mark.parametrize("genus, field", [(1, PrimeField(10009)), (2, PrimeField(10009)), (2, QQ)],
                         ids=["g1", "g2", "g2q"])
def test_graded_kernel_matches_the_replaced_sweep_on_tensors(genus, field, monkeypatch):
    seen = tensor_differences(curve(genus, field), TENSOR_PAIRS[genus], monkeypatch)
    assert len(seen) == len(TENSOR_PAIRS[genus])
    for m in seen:
        ker = checked_kernel(m)
        # f(1, 0) = 1, so the value at (1, 0) has the rank of m: the bound is kappa
        assert ker.ncols == top_bound(m)


@pytest.mark.parametrize("field", [PrimeField(10009), QQ], ids=["p10009", "q"])
def test_graded_kernel_sweeps_to_its_cap(field, monkeypatch):
    # [[t, t], [s t, s t]] vanishes at (1, 0), so the bound there is 2, while
    # kappa = 1: the generator comes at degree 1 and the sweep runs on to the
    # cap 3, which rho = 1 and row degree -1 give, with no exact rank
    s, t = (Poly.variable(field, ST, v) for v in ST)
    m = PolyMatrix(field, ST, [[t, t], [s * t, s * t]], row_degrees=[0, -1], col_degrees=[1, 1])
    degrees = []
    real = graded.degree_map_matrix
    monkeypatch.setattr(graded, "degree_map_matrix", lambda m, d: degrees.append(d) or real(m, d))
    ker = graded.graded_kernel(m)
    monkeypatch.undo()
    assert degrees == [1, 2, 3]
    assert ker.col_degrees == (1,)
    assert list(ker.column(0)) == [Poly.const(field, ST, -1), Poly.const(field, ST, 1)]
    assert kernel_outcome(graded_kernel_reference(m)) == kernel_outcome(ker)


def test_graded_kernel_needs_two_variables():
    field = PrimeField(10009)
    stu = ("s", "t", "u")
    s, t, u = (Poly.variable(field, stu, v) for v in stu)
    m = PolyMatrix(field, stu, [[s, t, u]], row_degrees=[0], col_degrees=[1, 1, 1])
    with pytest.raises(graded.GradedError, match="two variables"):
        graded.graded_kernel(m)


def test_degree_map_matrix_needs_two_variables():
    field = PrimeField(10009)
    uvw = ("u", "v", "w")
    u, v, w = (Poly.variable(field, uvw, x) for x in uvw)
    m = PolyMatrix(field, uvw, [[u, v, w]], row_degrees=[0], col_degrees=[1, 1, 1])
    with pytest.raises(graded.GradedError, match="two variables"):
        graded.degree_map_matrix(m, 1)


def test_quotient_dims_needs_two_variables():
    field = QQ
    uvw = ("u", "v", "w")
    u, v, w = (Poly.variable(field, uvw, x) for x in uvw)
    with pytest.raises(graded.GradedError, match="two variables"):
        graded.graded_quotient_dims(field, uvw, [u * u, v * v, w * w], range(4))


def test_multiples_coords_needs_two_variables():
    field = PrimeField(10009)
    uvw = ("u", "v", "w")
    u, v, w = (Poly.variable(field, uvw, x) for x in uvw)
    with pytest.raises(graded.GradedError, match=r"^multiples_coords needs two variables, "
                                                 r"got \('u', 'v', 'w'\)$"):
        graded.multiples_coords(field, [(1, [u, v + w])], [0, 0], 2)


def test_express_in_module_needs_two_variables():
    field = QQ
    uvw = ("u", "v", "w")
    u, v, w = (Poly.variable(field, uvw, x) for x in uvw)
    with pytest.raises(graded.GradedError, match=r"^express_in_module needs two variables, "
                                                 r"got \('u', 'v', 'w'\)$"):
        graded.express_in_module(field, [[u, v]], [1], [0, 0], [u * w, v * w], 2, uvw)


def test_poly_matrix_rank():
    field = PrimeField(13)
    s = Poly.variable(field, ST, "s")
    t = Poly.variable(field, ST, "t")
    z = Poly.zero(field, ST)
    assert rank(PolyMatrix(field, ST, [[s, t], [t, s]])) == 2
    # rank-1: second row is s/t times the first (proportional columns)
    m = PolyMatrix(field, ST, [[s * s, s * t], [s * t, t * t]])
    assert rank(m) == 1
    assert rank(PolyMatrix(field, ST, [[z, z], [z, z]])) == 0


def test_express_in_module():
    field = PrimeField(10009)
    s = Poly.variable(field, ST, "s")
    t = Poly.variable(field, ST, "t")
    one = Poly.const(field, ST, 1)
    zero = Poly.zero(field, ST)
    # module degrees (0, 0); generators (1, 0) deg 0 and (t, s) deg 1
    gens = [[one, zero], [t, s]]
    target = [s * t + t * t, s * s]
    combo = graded.express_in_module(
        field, gens, [0, 1], (0, 0), target, 2, ST
    )
    assert combo is not None
    rebuilt = [
        combo[0] * gens[0][0] + combo[1] * gens[1][0],
        combo[0] * gens[0][1] + combo[1] * gens[1][1],
    ]
    assert rebuilt == target
    # something outside the span
    assert graded.express_in_module(field, [[t, zero]], [1], (0, 0), [zero, s], 1, ST) is None
    # no multiple reaches the degree: only zero is in the span
    assert graded.express_in_module(field, [[t, zero]], [1], (0, 0), [zero, zero], 0, ST) == [zero]
    assert graded.express_in_module(field, [[t, zero]], [1], (0, 0), [one, zero], 0, ST) is None
    # a target entry of the wrong degree is rejected, as before
    with pytest.raises(graded.GradedError, match="^entry 1 has a term of the wrong degree$"):
        graded.express_in_module(field, gens, [0, 1], (0, 0), [s * t, s], 2, ST)


def test_quotient_dims_two_squares():
    field = QQ
    uv = ("u", "v")
    u, v = (Poly.variable(field, uv, w) for w in uv)
    dims = graded.graded_quotient_dims(field, uv, [u * u, v * v], range(4))
    assert dims == [1, 2, 1, 0]


def test_quotient_dims_single_square():
    field = QQ
    uv = ("u", "v")
    u = Poly.variable(field, uv, "u")
    dims = graded.graded_quotient_dims(field, uv, [u * u], range(4))
    assert dims == [1, 2, 2, 2]


def test_quotient_dims_generic_quadrics():
    rng = random.Random(7)
    field = PrimeField(10009)
    uv = ("u", "v")

    def rand_quadric():
        pairs = [((2, 0), rng.randrange(field.p)), ((1, 1), rng.randrange(field.p)), ((0, 2), rng.randrange(field.p))]
        return Poly.from_pairs(field, uv, pairs)

    for _ in range(5):
        q1, q2 = rand_quadric(), rand_quadric()
        dims = graded.graded_quotient_dims(field, uv, [q1, q2], range(4))
        # generic complete intersection of two quadrics in two variables
        assert dims == [1, 2, 1, 0]


def test_quotient_dims_module_presentation():
    field = PrimeField(13)
    uv = ("u", "v")
    u, v = (Poly.variable(field, uv, w) for w in uv)
    zero = Poly.zero(field, uv)
    # presentation of k (+) k[u,v]: columns (u, 0), (v, 0) kill the first factor in degree >= 1
    cols = [[u, zero], [v, zero]]
    dims = graded.graded_quotient_dims(field, uv, cols, range(3), rank=2)
    assert dims == [1 + 1, 0 + 2, 0 + 3]


# -- graded_quotient_dims against the row-at-a-time echelon ---------------------


def quotient_dims_reference(field, variables, generators, degrees, rank=1):
    """The replaced loop: one IncrementalEchelon.add per Macaulay row."""
    gens = []
    for g in generators:
        vec = [g] if isinstance(g, Poly) else list(g)
        nonzero = [p for p in vec if not p.is_zero()]
        if nonzero:
            gens.append((nonzero[0].homogeneous_degree(), vec))
    out = []
    for d in degrees:
        width = rank * graded.dim_poly_ring(d)
        ech = graded.IncrementalEchelon(field, width)
        for row in graded.multiples_coords(field, gens, [0] * rank, d):
            ech.add(row)
        out.append(width - len(ech.rows))
    return out


QUOTIENT_FIELDS = [PrimeField(10009), PrimeField(2**61 - 1), QQ]


def quotient_scalars(field):
    # mostly zero or small, so that dependent rows and cancellations are common
    small = st.sampled_from([0, 0, 1, -1, 2]).map(field.of)
    if field is QQ:
        return small | st.fractions(min_value=-9, max_value=9, max_denominator=5)
    return small | st.integers(0, field.p - 1).map(field.of)


@st.composite
def presentations(draw):
    """(field, variables, generators, rank): homogeneous generators, some zero,
    some duplicated or scaled, as bare Polys (the ideal case) or vectors."""
    field = draw(st.sampled_from(QUOTIENT_FIELDS))
    variables = ("u", "v")
    ideal = draw(st.booleans())
    rank = 1 if ideal else draw(st.integers(1, 3))
    coeff = quotient_scalars(field)

    def form(e):
        pairs = [(m, draw(coeff)) for m in graded.monomials(e)]
        return Poly.from_pairs(field, variables, pairs)

    gens = []
    for _ in range(draw(st.integers(0, 7))):
        e = draw(st.integers(0, 3))
        gens.append(form(e) if ideal else [form(e) for _ in range(rank)])
    for _ in range(draw(st.integers(0, 2))):
        if gens:  # a copy, or a scalar multiple, of an earlier generator
            g = gens[draw(st.integers(0, len(gens) - 1))]
            c = draw(coeff)
            gens.append(g.scale(c) if ideal else [p.scale(c) for p in g])
    if draw(st.booleans()):
        zero = Poly.zero(field, variables)
        gens.insert(draw(st.integers(0, len(gens))), zero if ideal else [zero] * rank)
    return field, variables, gens, rank


@settings(max_examples=150, deadline=None)
@given(presentations())
def test_quotient_dims_match_echelon_reference(case):
    field, variables, gens, rank = case
    degrees = range(5)
    got = graded.graded_quotient_dims(field, variables, gens, degrees, rank=rank)
    assert got == quotient_dims_reference(field, variables, gens, degrees, rank)


def test_quotient_dims_reference_on_both_shapes():
    # many low-degree generators: more Macaulay rows than columns; one
    # generator: fewer rows than columns
    uv = ("u", "v")
    for field in QUOTIENT_FIELDS:
        u, v = (Poly.variable(field, uv, w) for w in uv)
        half = field.of(Fraction(1, 2)) if field is QQ else field.inv(2)
        many = [u, v, u + v, u.scale(half), v, u * u + v * v]
        one = [[u * v, v * v]]
        for gens, rank, d, taller in ((many, 1, 3, True), (one, 2, 3, False)):
            basis = graded.degree_basis([0] * rank, d)
            gen_list = [(g.homogeneous_degree(), [g]) if isinstance(g, Poly)
                        else (g[0].homogeneous_degree(), g) for g in gens]
            rows = graded.multiples_coords(field, gen_list, [0] * rank, d)
            assert (len(rows) > len(basis)) == taller
            want = quotient_dims_reference(field, uv, gens, range(5), rank)
            assert graded.graded_quotient_dims(field, uv, gens, range(5), rank=rank) == want


def test_quotient_dims_over_q_agree_with_f_p_on_integer_quadrics(monkeypatch):
    # integer quadrics in (u, v), read over Q and over F_10009; the pairs with
    # a shared linear factor make the Macaulay matrices over Q rank-deficient
    # from degree 3 on, so rank takes its elimination past the prime there
    rng = random.Random(17)
    fp = PrimeField(10009)
    uv = ("u", "v")
    monomials = [(2, 0), (1, 1), (0, 2)]

    def linear():
        return [rng.randint(-9, 9) or 1, rng.randint(-9, 9)]

    def times(l, m):
        return [l[0] * m[0], l[0] * m[1] + l[1] * m[0], l[1] * m[1]]

    pairs = [([rng.randint(-20, 20) for _ in monomials], [rng.randint(-20, 20) for _ in monomials])
             for _ in range(4)]
    shared = []
    for _ in range(3):
        factor = linear()
        shared.append((times(factor, [1, 2]), times(factor, [3, -1])))
    pairs += shared
    pairs.append(([1, 0, 0], [0, 0, 1]))  # u^2 and v^2

    deficient = []
    real = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss",
                        lambda rows, ncols, reduce: deficient.append(ncols) or real(rows, ncols, reduce))
    for coeffs1, coeffs2 in pairs:
        dims = []
        for field in (QQ, fp):
            q1, q2 = (Poly.from_pairs(field, uv, [(e, field.of(c)) for e, c in zip(monomials, coeffs)])
                      for coeffs in (coeffs1, coeffs2))
            dims.append(graded.graded_quotient_dims(field, uv, [q1, q2], range(6)))
        assert dims[0] == dims[1], (coeffs1, coeffs2)
        if (coeffs1, coeffs2) in shared:
            # S / l (m1, m2) = S / l S_1 is 1 in every degree from 2 on
            assert dims[0] == [1, 2, 1, 1, 1, 1]
    assert deficient
