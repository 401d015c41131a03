"""Vector bundles on the hyperelliptic curve y^2 = f as matrix factorizations.

A matrix factorization here is one graded matrix phi over k[s,t] with
phi @ phi = f * id, f of degree 2g+2: the action of y on the pushforward
to P^1, the pair (phi, phi).  The module records the generator degrees of
the pushforward; phi is homogeneous of degree g+1 as a map module ->
module(g+1).

Subsets of branch indices are 1-based frozensets.  The distinguished
ramification point p is the root of the first diagonal factor f_1, so odd
twists are realized by tensoring with the index-{1} line bundle.
"""

from __future__ import annotations

import copy
from itertools import combinations

from . import graded, linalg
from .binary import ST, check_binary
from .fields import Field
from .pencil import HyperellipticData
from .poly import Poly
from .polymatrix import GradedFreeModule, PolyMatrix


class MFError(ValueError):
    pass


def verify_mf_data(h: HyperellipticData, degrees, phi: PolyMatrix):
    """Check the matrix factorization conditions; returns (ok, detail)."""
    f = h.f
    g = h.genus
    n = len(degrees)
    try:
        check_binary(f, 2 * (g + 1))
    except Exception as exc:  # malformed curve data
        return False, f"bad curve polynomial: {exc}"
    if phi.vars != ST:
        return False, f"phi lives in variables {phi.vars}, expected {ST}"
    if (phi.nrows, phi.ncols) != (n, n):
        return False, f"phi is {phi.nrows}x{phi.ncols}, expected {n}x{n}"
    # phi maps the module to module(g + 1)
    where = phi.relabel([a - (g + 1) for a in degrees], degrees).first_inhomogeneous()
    if where is not None:
        i, j = where
        want = degrees[j] - degrees[i] + (g + 1)
        return False, f"phi[{i}][{j}] is not homogeneous of degree {want}"
    where = (phi @ phi).first_mismatch(PolyMatrix.scalar_matrix(h.field, ST, f, n))
    if where is not None:
        return False, f"phi @ phi != f*id at entry {where}"
    return True, "ok"


class MatrixFactorization:
    """A verified matrix factorization of f over k[s,t]."""

    def __init__(self, h: HyperellipticData, degrees, phi: PolyMatrix, label=""):
        self.h = h
        self.module = GradedFreeModule(degrees)
        self.phi = phi
        self.label = label
        ok, detail = verify_mf_data(h, self.module.degrees, self.phi)
        if not ok:
            raise MFError(f"invalid matrix factorization: {detail}")

    @staticmethod
    def _make(h: HyperellipticData, degrees, phi: PolyMatrix, label=""):
        """Trusted constructor for factorizations whose identity the caller has
        already checked: phi square of the module's rank, in (s, t), and
        homogeneous of the degrees the module asks for."""
        m = MatrixFactorization.__new__(MatrixFactorization)
        m.h, m.module, m.label, m.phi = h, GradedFreeModule(degrees), label, phi
        return m

    @property
    def field(self) -> Field:
        return self.h.field

    @property
    def genus(self) -> int:
        return self.h.genus

    def rank_degree(self):
        """(rank, degree, chi) of the bundle on the curve."""
        n = self.module.rank
        if n % 2:
            raise MFError("odd number of generators: not a pushforward from the curve")
        rank = n // 2
        deg_push = -sum(self.module.degrees)
        degree = deg_push + rank * (self.genus + 1)
        chi = degree + rank * (1 - self.genus)
        return rank, degree, chi

    def twist_h(self, k: int = 1) -> "MatrixFactorization":
        """Tensor with H^k (pullback of O(1) from P^1): degrees drop by k.

        A uniform shift keeps every entry degree a_j - a_i + g + 1, so the
        verified phi is kept without a second check.
        """
        out = copy.copy(self)
        out.module = GradedFreeModule([a - k for a in self.module.degrees])
        out.label = f"{self.label}({k}H)" if self.label else ""
        return out

    def __repr__(self):
        name = self.label or "MF"
        return f"{name}(degrees={self.module.degrees})"


def subset_key(h: HyperellipticData, indices) -> frozenset:
    key = frozenset(int(i) for i in indices)
    if any(i < 1 or i > h.nbranch for i in key):
        raise MFError(f"subset {sorted(key)} out of range 1..{h.nbranch}")
    return key


def canonical_classes(h: HyperellipticData, parity=None):
    """One name per line bundle L_I = L_(I^c), optionally only those with |I|
    of the given parity: the lex-smaller of I and its complement, which is
    the empty set or the one of the two that holds 1.

    The classes come in the order in which the subsets I, by size and
    lexicographic within a size, first meet them.  The complement of I has
    the parity of I, as there are 2g + 2 branch points.  Each I below half
    the size meets a new class, named by I or its complement, whichever
    holds 1; at half the size only the I that hold 1 do, and past it none.
    """
    n = h.nbranch
    universe = frozenset(range(1, n + 1))
    out = [frozenset()] if parity in (None, 0) else []
    for size in range(1, n // 2 + 1):
        if parity is not None and size % 2 != parity:
            continue
        if 2 * size == n:
            out.extend(frozenset((1, *rest)) for rest in combinations(range(2, n + 1), size - 1))
            continue
        out.extend(frozenset(combo) if combo[0] == 1 else universe - frozenset(combo)
                   for combo in combinations(range(1, n + 1), size))
    return out


def line_bundle_mf(h: HyperellipticData, indices) -> MatrixFactorization:
    """The rank-1 factorization with antidiagonal (f_{I^c}, f_I).

    phi @ phi is diag(f_{I^c} f_I, f_I f_{I^c}), so the one product
    f_I f_{I^c} = f certifies it.  Entry (i, j) of phi must be homogeneous of
    degree d_j - d_i + g + 1 for the degrees d = (|I| // 2, |I^c| // 2), and
    |I| + |I^c| = 2g + 2 makes that |I^c| for f_{I^c} and |I| for f_I.
    """
    key = subset_key(h, indices)
    comp = h.complement(key)
    f_i = h.subset_product(key)
    f_ic = h.subset_product(comp)
    if f_i * f_ic != h.f:
        raise MFError("invalid matrix factorization: phi @ phi != f*id at entry (0, 0)")
    zero = Poly.zero(h.field, ST)
    phi = PolyMatrix._make(h.field, ST, [[zero, f_ic], [f_i, zero]])
    degrees = (len(key) // 2, len(comp) // 2)
    label = "L{" + ",".join(str(i) for i in sorted(key)) + "}"
    return MatrixFactorization._make(h, degrees, phi, label=label)


def tensor_mf(m1: MatrixFactorization, m2: MatrixFactorization) -> MatrixFactorization:
    """Tensor product of bundles, computed as a graded syzygy kernel.

    Builds phi1 (x) 1 - 1 (x) phi2 on B1 (x) B2 (g+1), takes minimal kernel
    generators, and restricts the action of phi1 (x) 1 to them by solving
    exact membership systems degree by degree.
    """
    if m1.h is not m2.h and m1.h.f != m2.h.f:
        raise MFError("tensor factors must share one curve")
    h = m1.h
    field = h.field
    g = h.genus
    deg1, deg2 = m1.module.degrees, m2.module.degrees
    tensor_degs = [a + b for a in deg1 for b in deg2]
    id1 = PolyMatrix.identity(field, ST, len(deg1))
    id2 = PolyMatrix.identity(field, ST, len(deg2))
    action = m1.phi.kron(id2)
    level1 = [c - (g + 1) for c in tensor_degs]
    level2 = [c - 2 * (g + 1) for c in tensor_degs]
    diff = (action - id1.kron(m2.phi)).relabel(row_degrees=level2, col_degrees=level1)
    kernel = graded.graded_kernel(diff)
    expected = (len(deg1) * len(deg2)) // 2
    if kernel.ncols != expected:
        raise MFError(
            f"kernel rank {kernel.ncols} != {expected}: inconsistent factorizations"
        )
    gen_degs = list(kernel.col_degrees)
    gen_vecs = [list(kernel.column(k)) for k in range(kernel.ncols)]
    images = action @ kernel
    shifted_degs = [e - (g + 1) for e in gen_degs]
    phi_cols = []
    for k in range(kernel.ncols):
        combo = graded.express_in_module(
            field, gen_vecs, shifted_degs, level2, list(images.column(k)), gen_degs[k], ST
        )
        if combo is None:
            raise MFError("y-action does not preserve the computed kernel")
        phi_cols.append(combo)
    rows = [[phi_cols[k][l] for k in range(kernel.ncols)] for l in range(kernel.ncols)]
    phi_new = PolyMatrix(field, ST, rows)
    label = f"({m1.label})@({m2.label})" if m1.label and m2.label else ""
    return MatrixFactorization(h, gen_degs, phi_new, label=label)


def twist_by_p(m: MatrixFactorization) -> MatrixFactorization:
    """Tensor with the degree-1 line bundle O(p), p the root of f_1."""
    return tensor_mf(m, line_bundle_mf(m.h, {1}))


class CohomologyTable:
    """h^0 and h^1 over a twist range in steps of the ramification point p;
    h^1 = h^0 - chi by Riemann-Roch."""

    def __init__(self, twists, h0, rank, degree, genus):
        self.twists = list(twists)
        self.h0 = list(h0)
        self.rank = rank
        self.degree = degree
        self.genus = genus
        self.h1 = [a - self.chi(n) for n, a in zip(self.twists, self.h0)]
        if any(a < 0 for a in self.h0 + self.h1):
            raise MFError("negative cohomology dimension")

    def chi(self, n: int) -> int:
        return self.degree + n * self.rank + self.rank * (1 - self.genus)

    def __repr__(self):
        return f"CohomologyTable(twists={self.twists}, h0={self.h0}, h1={self.h1})"


def cohomology_table(m: MatrixFactorization, n0: int, n1: int) -> CohomologyTable:
    """h^i(M(n p)) for n0 <= n <= n1; odd twists go through twist_by_p."""
    rank, degree, _ = m.rank_degree()
    odd = None
    h0 = []
    twists = list(range(n0, n1 + 1))
    for n in twists:
        if n % 2 == 0:
            h0.append(m.module.hilbert(n // 2))
        else:
            if odd is None:
                odd = twist_by_p(m)
            h0.append(odd.module.hilbert((n - 1) // 2))
    return CohomologyTable(twists, h0, rank, degree, m.genus)


def hom_space(m1: MatrixFactorization, m2: MatrixFactorization, twist: int = 0):
    """Basis of degree-``twist`` maps T: B1 -> B2(twist) with T phi1 = phi2 T.

    vec(T) -> vec(T phi1 - phi2 T) is the graded matrix
    1 (x) phi1^T - phi2 (x) 1, from degrees b_i - a_j to b_i - a_j - (g+1);
    Hom is the kernel of its degree-``twist`` piece.
    Returns (dimension, list of PolyMatrix witnesses).
    """
    if m1.h.f != m2.h.f:
        raise MFError("hom_space needs factorizations of one f")
    field = m1.field
    g = m1.genus
    a = m1.module.degrees
    b = m2.module.degrees
    n1, n2 = len(a), len(b)
    zero = Poly.zero(field, ST)
    slot_degrees = [bi - aj for bi in b for aj in a]
    # row (i, j), column (k, l): the coefficient of T[k][l] in (T phi1 - phi2 T)[i][j]
    equations = PolyMatrix(
        field,
        ST,
        [
            [
                (m1.phi.entry(l, j) if k == i else zero) - (m2.phi.entry(i, k) if l == j else zero)
                for k in range(n2)
                for l in range(n1)
            ]
            for i in range(n2)
            for j in range(n1)
        ],
        row_degrees=[c - (g + 1) for c in slot_degrees],
        col_degrees=slot_degrees,
    )
    rows, slots, _ = graded.degree_map_matrix(equations, twist)
    if not slots:
        return 0, []
    witnesses = []
    for vec in linalg.nullspace(field, rows, len(slots)):
        flat = graded.coords_to_vector(field, vec, slots, n2 * n1, ST)
        witnesses.append(PolyMatrix(field, ST, [flat[i * n1:(i + 1) * n1] for i in range(n2)]))
    return len(witnesses), witnesses


def isomorphism_failure(m1: MatrixFactorization, m2: MatrixFactorization):
    """None when two rank-1 factorizations are isomorphic, else the first
    check that fails: equal rank and degree, Hom^0(m1, m2) != 0, or a witness
    of full rank in it."""
    r1 = m1.rank_degree()
    r2 = m2.rank_degree()
    if r1[0] != 1 or r2[0] != 1:
        raise MFError("isomorphism test is restricted to rank-1 bundles")
    names = f"{m1.label or 'M1'}, {m2.label or 'M2'}"
    if r1 != r2:
        return f"rank/degree of ({names}): {r1[:2]} != {r2[:2]}"
    # Hom between line bundles of one degree on a smooth curve has dimension <= 1
    _, basis = hom_space(m1, m2, 0)
    if not basis:
        return f"Hom^0({names}) = 0"
    # both modules have rank 2: a 2 x 2 witness has full rank iff its determinant is nonzero
    if all((a * d - b * c).is_zero() for (a, b), (c, d) in (t.entries for t in basis)):
        return f"no witness in Hom^0({names}) has full rank"
    return None


def is_isomorphic_line_bundle(m1: MatrixFactorization, m2: MatrixFactorization) -> bool:
    """Isomorphism test for rank-1 factorizations of equal rank and degree."""
    return isomorphism_failure(m1, m2) is None


def raynaud_check(m: MatrixFactorization) -> bool:
    """True iff h^0(M) = 0 and h^1(M) = 0 at twist zero."""
    _, _, chi = m.rank_degree()
    h0 = m.module.hilbert(0)
    return h0 == 0 and chi == 0


def verify_group_law(h: HyperellipticData, idx_i, idx_j) -> dict:
    """Check L_I (x) L_J = L_{I delta J}, with an H-twist when |I|,|J| are both odd.

    A report that does not pass names its first failing check under "failure".
    """
    key_i = subset_key(h, idx_i)
    key_j = subset_key(h, idx_j)
    li = line_bundle_mf(h, key_i)
    lj = line_bundle_mf(h, key_j)
    prod = tensor_mf(li, lj)
    delta = key_i.symmetric_difference(key_j)
    expected = line_bundle_mf(h, delta)
    twisted = len(key_i) % 2 == 1 and len(key_j) % 2 == 1
    if twisted:
        expected = expected.twist_h(1)
    failure = isomorphism_failure(prod, expected)
    report = {
        "I": sorted(key_i),
        "J": sorted(key_j),
        "delta": sorted(delta),
        "h_twist": twisted,
        "product_rank_degree": prod.rank_degree(),
        "expected_rank_degree": expected.rank_degree(),
        "pass": failure is None,
    }
    if failure is not None:
        report["failure"] = failure
    return report
