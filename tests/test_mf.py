import itertools
import math
import random

import pytest

from ulrichmf import binary, graded, linalg, mf
from ulrichmf.fields import QQ, PrimeField
from ulrichmf.pencil import HyperellipticData
from ulrichmf.poly import Poly
from ulrichmf.polymatrix import PolyMatrix

from tests.poly_reference import rank

ST = binary.ST
F = PrimeField(10009)


def curve(genus, field=F):
    roots = list(range(1, 2 * genus + 3))
    return HyperellipticData.from_factors(
        field, [binary.root_factor(field, c) for c in roots]
    )


H1 = curve(1)
H2 = curve(2)


def test_line_bundle_empty_is_structure_sheaf():
    m = mf.line_bundle_mf(H1, set())
    one = Poly.const(F, ST, 1)
    assert m.phi.entry(0, 1) == H1.f
    assert m.phi.entry(1, 0) == one
    assert m.module.degrees == (0, 2)
    rank, degree, chi = m.rank_degree()
    assert (rank, degree) == (1, 0)
    assert chi == 1 - 1


def test_line_bundle_singleton():
    m = mf.line_bundle_mf(H1, {1})
    assert m.phi.entry(1, 0) == H1.factor(1)
    assert m.phi.entry(0, 1) == H1.subset_product({2, 3, 4})
    assert m.module.degrees == (0, 1)
    assert m.rank_degree()[:2] == (1, 1)


def test_line_bundle_complement_isomorphic():
    for subset in ({1}, {1, 2}, {1, 3}):
        a = mf.line_bundle_mf(H1, subset)
        b = mf.line_bundle_mf(H1, H1.complement(subset))
        assert mf.is_isomorphic_line_bundle(a, b)


def test_verify_mf_rejects_wrong_pair():
    f = H1.f
    zero = Poly.zero(F, ST)
    two = Poly.const(F, ST, 2)
    # phi @ phi = diag(2 f, 2 f)
    phi = PolyMatrix(F, ST, [[zero, f], [two, zero]])
    ok, detail = mf.verify_mf_data(H1, (0, 2), phi)
    assert (ok, detail) == (False, "phi @ phi != f*id at entry (0, 0)")


def square_mf_failure(h, n, phi):
    """The reference: the PolyMatrix product phi @ phi against f * id."""
    where = (phi @ phi).first_mismatch(PolyMatrix.scalar_matrix(h.field, ST, h.f, n))
    return None if where is None else f"phi @ phi != f*id at entry {where}"


@pytest.mark.parametrize("h", [H1, H2], ids=["g1", "g2"])
def test_mf_check_names_the_entry_of_phi_phi(h):
    rng = random.Random(h.genus)
    for rep in mf.canonical_classes(h):
        m = mf.line_bundle_mf(h, rep)
        degrees = m.module.degrees
        assert mf.verify_mf_data(h, degrees, m.phi) == (True, "ok")
        assert square_mf_failure(h, len(degrees), m.phi) is None
        # one entry of phi scaled by 2: the check names the entry the reference does
        i, j = rng.choice([(i, j) for i in range(2) for j in range(2)
                           if not m.phi.entry(i, j).is_zero()])
        rows = [list(row) for row in m.phi.entries]
        rows[i][j] = rows[i][j].scale(2)
        broken = PolyMatrix(h.field, ST, rows)
        ok, detail = mf.verify_mf_data(h, degrees, broken)
        assert not ok and detail == square_mf_failure(h, len(degrees), broken)


def test_verify_mf_rejects_wrong_variables():
    xy = ("x0", "y0")
    x = Poly.variable(F, xy, "x0")
    y = Poly.variable(F, xy, "y0")
    phi = PolyMatrix(F, xy, [[x]])
    ok, detail = mf.verify_mf_data(H1, (0,), phi)
    assert not ok
    assert "variables" in detail
    with pytest.raises(mf.MFError):
        mf.MatrixFactorization(H1, (0,), phi)


def canonical_subset(h, indices):
    """The lex-smaller of I and its complement: one name per line bundle."""
    key = mf.subset_key(h, indices)
    comp = frozenset(range(1, h.nbranch + 1)) - key
    return min(key, comp, key=lambda k: sorted(k) + [len(k)])


def canonical_classes_reference(h, parity=None):
    """The names of canonical_subset in the order of the subsets I by size,
    lexicographic within a size, read off all 2^(2g+2) of them."""
    seen = set()
    out = []
    universe = range(1, h.nbranch + 1)
    for size in range(h.nbranch + 1):
        if parity is not None and size % 2 != parity:
            continue
        for combo in itertools.combinations(universe, size):
            rep = canonical_subset(h, combo)
            if rep not in seen:
                seen.add(rep)
                out.append(rep)
    return out


@pytest.mark.parametrize("genus", range(6))
def test_canonical_classes_match_the_enumeration(genus):
    # suite grouplaw draws its pairs from this sequence, so the order matters
    # too, read both by iterating and by unranking each index
    h = curve(genus)
    for parity in (None, 0, 1):
        classes = mf.canonical_classes(h, parity)
        want = canonical_classes_reference(h, parity)
        assert len(classes) == len(want)
        assert list(classes) == [classes[k] for k in range(len(classes))] == want
        assert [classes[k] for k in range(-len(want), 0)] == want
        for k in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                classes[k]
    assert len(mf.canonical_classes(h)) == 2 ** (2 * genus + 1)


def test_canonical_subsets():
    assert canonical_subset(H1, {3, 4}) == frozenset({1, 2})
    assert canonical_subset(H1, set()) == frozenset()
    evens = mf.canonical_classes(H1, parity=0)
    odds = mf.canonical_classes(H1, parity=1)
    assert len(evens) == 4  # 2^{2g} two-torsion classes for g = 1
    assert len(odds) == 4
    assert frozenset() in evens


def test_predicted_kernel_columns_for_tensor():
    # the 4x4 difference matrix for L_I (x) L_J kills the closed-form columns
    h = H1
    key_i, key_j = frozenset({1, 2}), frozenset({2, 3})
    li = mf.line_bundle_mf(h, key_i)
    lj = mf.line_bundle_mf(h, key_j)
    id2 = PolyMatrix.identity(F, ST, 2)
    diff = li.phi.kron(id2) - id2.kron(lj.phi)
    ic = h.complement(key_i)
    jc = h.complement(key_j)
    # column entries follow the lex Kronecker basis (1,1),(1,2),(2,1),(2,2)
    cols = [
        [
            Poly.zero(F, ST),
            h.subset_product(key_j - key_i),
            h.subset_product(key_i - key_j),
            Poly.zero(F, ST),
        ],
        [
            h.subset_product(jc - key_i),
            Poly.zero(F, ST),
            Poly.zero(F, ST),
            h.subset_product(key_i - jc),
        ],
    ]
    for col in cols:
        image = [
            sum((diff.entry(i, j) * col[j] for j in range(4)), Poly.zero(F, ST))
            for i in range(4)
        ]
        assert all(p.is_zero() for p in image)


def test_tensor_with_unit():
    unit = mf.line_bundle_mf(H1, set())
    m = mf.line_bundle_mf(H1, {1, 2})
    prod = mf.tensor_mf(unit, m)
    assert mf.is_isomorphic_line_bundle(prod, m)


def test_tensor_even_even():
    prod = mf.tensor_mf(mf.line_bundle_mf(H1, {1, 2}), mf.line_bundle_mf(H1, {2, 3}))
    assert mf.is_isomorphic_line_bundle(prod, mf.line_bundle_mf(H1, {1, 3}))


def test_tensor_odd_odd_gets_h_twist():
    prod = mf.tensor_mf(mf.line_bundle_mf(H1, {1}), mf.line_bundle_mf(H1, {2}))
    plain = mf.line_bundle_mf(H1, {1, 2})
    twisted = plain.twist_h(1)
    assert prod.rank_degree() == twisted.rank_degree()
    assert mf.is_isomorphic_line_bundle(prod, twisted)
    # negative controls: the untwisted L_{1,2} differs in degree, and L_{1,3}(H)
    # has the degree of the product, so only Hom^0 = 0 tells them apart
    plain_rd, twisted_rd = plain.rank_degree(), twisted.rank_degree()
    assert (plain_rd, twisted_rd) == ((1, 0, 0), (1, 2, 2))
    assert not mf.is_isomorphic_line_bundle(prod, plain)
    other = mf.line_bundle_mf(H1, {1, 3}).twist_h(1)
    assert other.rank_degree() == twisted_rd
    assert mf.hom_space(prod, other, 0)[0] == 0
    assert not mf.is_isomorphic_line_bundle(prod, other)


def test_rank_degree_parities():
    for subset in ({1, 2}, {1, 3}, {2, 4}):
        assert mf.line_bundle_mf(H2, subset).rank_degree()[1] == 0
    for subset in ({1}, {1, 2, 3}):
        assert mf.line_bundle_mf(H2, subset).rank_degree()[1] == 1


def test_cohomology_structure_sheaf_genus2():
    table = mf.cohomology_table(mf.line_bundle_mf(H2, set()), 0, 2)
    assert table.h0[0] == 1 and table.h1[0] == 2
    # twist by H = 2p: h0 = dim k[s,t]_1 = 2, h1 = 2 - (2 + 1 - 2) = 1
    assert table.h0[2] == 2 and table.h1[2] == 1


def test_cohomology_riemann_roch_consistency():
    rng = random.Random(12)
    for h in (H1, H2):
        classes = mf.canonical_classes(h)
        for subset in rng.sample(classes, min(5, len(classes))):
            m = mf.line_bundle_mf(h, subset)
            table = mf.cohomology_table(m, -3, 4)
            rank, degree, _ = m.rank_degree()
            for n, a, b in zip(table.twists, table.h0, table.h1):
                assert a - b == degree + n * rank + rank * (1 - h.genus)


def test_cohomology_table_rejects_negative_h1():
    # chi(0) = 5 + 0 + 1 * (1 - 1) = 5 > h0 = 0, so h1 would be -5
    with pytest.raises(mf.MFError, match="negative cohomology dimension"):
        mf.CohomologyTable([0], [0], 1, 5, 1)


def test_twist_by_p():
    op = mf.twist_by_p(mf.line_bundle_mf(H1, set()))
    rank, degree, _ = op.rank_degree()
    assert (rank, degree) == (1, 1)
    assert op.module.hilbert(0) == 1  # h^0(O(p)) = 1


def test_twist_by_p_iterated_is_H_power():
    # 2g+2 twists by p have the degree of (g+1) H-twists
    g = 1
    m = mf.line_bundle_mf(H1, set())
    cur = m
    for _ in range(2 * g + 2):
        cur = mf.twist_by_p(cur)
    want = m.twist_h(g + 1)
    assert cur.rank_degree() == want.rank_degree()
    assert mf.is_isomorphic_line_bundle(cur, want)


def test_square_of_odd_is_H_twist_of_unit():
    l1 = mf.line_bundle_mf(H1, {1})
    sq = mf.tensor_mf(l1, l1)
    expected = mf.line_bundle_mf(H1, set()).twist_h(1)
    assert mf.is_isomorphic_line_bundle(sq, expected)


def test_hom_space_endomorphisms_of_unit():
    unit = mf.line_bundle_mf(H1, set())
    dim, basis = mf.hom_space(unit, unit, 0)
    assert dim == 1
    t = basis[0]
    assert rank(t) == 2


def test_hom_space_distinct_two_torsion_vanishes():
    dim, _ = mf.hom_space(
        mf.line_bundle_mf(H1, {1, 2}), mf.line_bundle_mf(H1, {1, 3}), 0
    )
    assert dim == 0


def test_hom_space_complement():
    dim, _ = mf.hom_space(
        mf.line_bundle_mf(H1, {1}), mf.line_bundle_mf(H1, {2, 3, 4}), 0
    )
    assert dim == 1


def test_isomorphism_requires_rank_one():
    l12 = mf.line_bundle_mf(H1, {1, 2})
    prod = mf.tensor_mf(l12, mf.line_bundle_mf(H1, {1, 2}))
    assert mf.is_isomorphic_line_bundle(prod, mf.line_bundle_mf(H1, set()))


def test_raynaud_check_honest_values():
    # O_E always has sections
    assert not mf.raynaud_check(mf.line_bundle_mf(H1, set()))
    assert not mf.raynaud_check(mf.line_bundle_mf(H2, set()))
    # genus 2, even subsets: chi = -1 never vanishes
    for subset in ({1, 2}, {1, 3}, {1, 2, 3, 4}):
        assert not mf.raynaud_check(mf.line_bundle_mf(H2, subset))
    # genus 1 nontrivial two-torsion genuinely has h^0 = h^1 = 0
    assert mf.raynaud_check(mf.line_bundle_mf(H1, {1, 2}))
    # genus 2 odd subsets of size 3: degree 1 = g - 1, chi = 0, no sections
    assert mf.raynaud_check(mf.line_bundle_mf(H2, {1, 2, 3}))


def test_group_law_i_equals_j():
    report = mf.verify_group_law(H1, {1, 2}, {1, 2})
    assert report["pass"] and report["delta"] == []
    report = mf.verify_group_law(H1, {1}, {1})
    assert report["pass"] and report["h_twist"]


def test_group_law_with_empty():
    for other in ({1, 2}, {3}):
        assert mf.verify_group_law(H1, set(), other)["pass"]


def test_group_law_exhaustive_genus1():
    classes = mf.canonical_classes(H1)
    for key_i in classes:
        for key_j in classes:
            report = mf.verify_group_law(H1, key_i, key_j)
            assert report["pass"], report


def test_group_law_over_rationals():
    h = HyperellipticData.from_factors(
        QQ, [binary.root_factor(QQ, c) for c in (1, 2, 3, 4)]
    )
    assert mf.verify_group_law(h, {1, 2}, {2, 3})["pass"]


# roots whose pairwise differences are below 10009, so the discriminant of the
# curve is a unit mod 10009 and the curve has good reduction there
SMALL_ROOTS = (2, 3, 5, 7, 11, 13)


@pytest.mark.parametrize("idx_i, idx_j", [
    ({1, 3, 5}, {3, 4, 5}),  # odd-odd: the H-twist
    ({1}, {2, 3, 4}),
    ({1, 2}, {2, 3, 5}),  # mixed
    ({1, 2}, {3, 4}),  # even-even
])
def test_group_law_over_q_agrees_with_f_p(idx_i, idx_j):
    """mf grouplaw at g = 2 over Q and over F_10009: the same kernel
    generator degrees of L_I (x) L_J and the same Hom dimensions to and from
    the predicted L_{I delta J}."""
    disc = math.prod(a - b for a, b in itertools.combinations(SMALL_ROOTS, 2))
    assert disc % F.p != 0

    def shape(field):
        h = HyperellipticData.from_factors(field, [binary.root_factor(field, c) for c in SMALL_ROOTS])
        law = mf.verify_group_law(h, idx_i, idx_j)
        prod = mf.tensor_mf(mf.line_bundle_mf(h, idx_i), mf.line_bundle_mf(h, idx_j))
        expected = mf.line_bundle_mf(h, law["delta"])
        if law["h_twist"]:
            expected = expected.twist_h(1)
        homs = [mf.hom_space(a, b, t)[0] for a, b in ((prod, expected), (expected, prod)) for t in (0, 1)]
        return law, tuple(prod.module.degrees), homs

    law_q, degrees_q, homs_q = shape(QQ)
    assert law_q["pass"] and homs_q[0] == homs_q[2] == 1
    assert shape(F) == (law_q, degrees_q, homs_q)


def test_tensor_commutative_up_to_isomorphism():
    rng = random.Random(31)
    classes = mf.canonical_classes(H1)
    for _ in range(5):
        a, b = rng.sample(classes, 2)
        ab = mf.tensor_mf(mf.line_bundle_mf(H1, a), mf.line_bundle_mf(H1, b))
        ba = mf.tensor_mf(mf.line_bundle_mf(H1, b), mf.line_bundle_mf(H1, a))
        assert ab.rank_degree() == ba.rank_degree()
        assert mf.is_isomorphic_line_bundle(ab, ba)


def test_rank_degree_multiplicativity():
    rng = random.Random(17)
    classes = mf.canonical_classes(H1)
    for _ in range(6):
        a, b = rng.sample(classes, 2)
        ma, mb = mf.line_bundle_mf(H1, a), mf.line_bundle_mf(H1, b)
        prod = mf.tensor_mf(ma, mb)
        ra, da, _ = ma.rank_degree()
        rb, db, _ = mb.rank_degree()
        rp, dp, _ = prod.rank_degree()
        assert rp == ra * rb
        assert dp == da * rb + ra * db


def test_tensor_associative_up_to_isomorphism():
    rng = random.Random(47)
    for h in (H1, H2):
        classes = mf.canonical_classes(h)
        triples = 3 if h.genus == 1 else 1
        for _ in range(triples):
            a, b, c = (rng.choice(classes) for _ in range(3))
            ma, mb, mc = (mf.line_bundle_mf(h, k) for k in (a, b, c))
            left = mf.tensor_mf(mf.tensor_mf(ma, mb), mc)
            right = mf.tensor_mf(ma, mf.tensor_mf(mb, mc))
            assert left.rank_degree() == right.rank_degree()
            assert mf.is_isomorphic_line_bundle(left, right)


def test_group_law_small_prime():
    h13 = curve(1, PrimeField(13))
    for pair in (({1, 2}, {2, 3}), ({1}, {2}), ({1, 2, 3}, {4})):
        assert mf.verify_group_law(h13, *pair)["pass"]


def test_group_law_fails_on_wrong_product(monkeypatch):
    # negative control: the product L_{1,2} (x) L_{2,3} replaced by L_{1,4}
    monkeypatch.setattr(mf, "tensor_mf", lambda li, lj: mf.line_bundle_mf(H2, {1, 4}))
    report = mf.verify_group_law(H2, {1, 2}, {2, 3})
    assert report["delta"] == [1, 3] and report["pass"] is False
    assert report["failure"] == "Hom^0(L{1,4}, L{1,3}) = 0"


def test_group_law_names_its_first_failing_check(monkeypatch):
    assert "failure" not in mf.verify_group_law(H2, {1, 2}, {2, 3})
    # a product of the wrong degree fails before any Hom is taken
    monkeypatch.setattr(mf, "tensor_mf", lambda li, lj: mf.line_bundle_mf(H2, {1, 3}).twist_h(1))
    monkeypatch.setattr(mf, "hom_space", None)
    report = mf.verify_group_law(H2, {1, 2}, {2, 3})
    assert report["failure"] == "rank/degree of (L{1,3}(1H), L{1,3}): (1, 2) != (1, 0)"
    # a Hom^0 whose one witness is singular: zero, or nonzero of rank 1
    monkeypatch.setattr(mf, "tensor_mf", lambda li, lj: mf.line_bundle_mf(H2, {1, 3}))
    f, g = H2.factor(1), H2.factor(2) * H2.factor(3)
    zero = PolyMatrix(F, ST, [[Poly.zero(F, ST)] * 2] * 2)
    for witness in (zero, PolyMatrix(F, ST, [[f, f], [g, g]])):
        monkeypatch.setattr(mf, "hom_space", lambda m1, m2, twist: (1, [witness]))
        report = mf.verify_group_law(H2, {1, 2}, {2, 3})
        assert report["pass"] is False
        assert report["failure"] == "no witness in Hom^0(L{1,3}, L{1,3}) has full rank"
    # and a nonsingular one passes
    nonsingular = PolyMatrix(F, ST, [[f, g], [g, f]])
    monkeypatch.setattr(mf, "hom_space", lambda m1, m2, twist: (1, [nonsingular]))
    assert mf.verify_group_law(H2, {1, 2}, {2, 3})["pass"] is True


def tensor_work(h, idx_i, idx_j, monkeypatch):
    """(the degree of each nullspace graded_kernel takes, the kernel generator
    degrees) of one tensor_mf."""
    degrees, nullspaces = [], []
    real_map, real_nullspace = graded.degree_map_matrix, linalg.nullspace
    monkeypatch.setattr(graded, "degree_map_matrix", lambda m, d: degrees.append(d) or real_map(m, d))
    monkeypatch.setattr(linalg, "nullspace", lambda *a: nullspaces.append(degrees[-1]) or real_nullspace(*a))
    prod = mf.tensor_mf(mf.line_bundle_mf(h, idx_i), mf.line_bundle_mf(h, idx_j))
    monkeypatch.undo()
    return nullspaces, prod.module.degrees


def test_tensor_kernel_sweep_stops_at_its_last_generator(monkeypatch):
    # the bound read at (s, t) = (1, 0) is exact here, so the sweep takes no
    # nullspace past its last generator's degree
    work = tensor_work(H2, {1, 2}, {2, 3}, monkeypatch)
    assert work == ([-1, 0, 1, 2], (1, 2))
    assert tensor_work(H2, {1, 2}, {2, 3}, monkeypatch) == work


def test_graded_kernel_rejects_perturbed_generator(monkeypatch):
    # negative control: the first kernel generator found gains 1 in one
    # coefficient, so it leaves the kernel and the sweep must notice
    real = graded.coords_to_vector
    calls = []

    def perturbed(field, coords, basis, ncomponents, variables):
        if not calls:
            k = next(i for i, c in enumerate(coords) if not field.is_zero(c))
            coords = list(coords)
            coords[k] = field.add(coords[k], field.one)
        calls.append(coords)
        return real(field, coords, basis, ncomponents, variables)

    monkeypatch.setattr(graded, "coords_to_vector", perturbed)
    with pytest.raises(graded.GradedError, match="more kernel generators"):
        mf.tensor_mf(mf.line_bundle_mf(H2, {1, 2}), mf.line_bundle_mf(H2, {2, 3}))
    assert calls


@pytest.mark.parametrize("h", [H1, H2], ids=["g1", "g2"])
def test_line_bundle_is_certified_by_its_one_product(h):
    # a cached f_I or f_{I^c} scaled by 2 fails the one product f_I f_{I^c} = f
    # with the full check's message (f itself is cached as the product over
    # all indices, which stays intact)
    rng = random.Random(5)
    for rep in mf.canonical_classes(h):
        m = mf.line_bundle_mf(h, rep)
        broken = curve(h.genus)
        key = rng.choice([k for k in (frozenset(rep), h.complement(rep)) if len(k) < h.nbranch])
        broken._subset_cache[key] = broken.subset_product(key).scale(2)
        f_i, f_ic = broken.subset_product(rep), broken.subset_product(h.complement(rep))
        zero = Poly.zero(F, ST)
        phi = PolyMatrix(F, ST, [[zero, f_ic], [f_i, zero]])
        ok, detail = mf.verify_mf_data(broken, m.module.degrees, phi)
        assert not ok
        with pytest.raises(mf.MFError) as err:
            mf.line_bundle_mf(broken, rep)
        assert str(err.value) == f"invalid matrix factorization: {detail}"
