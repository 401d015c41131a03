"""The Z-graded Clifford algebra of a diagonalized pencil of quadrics.

Basis words e_I are indexed by 1-based subsets of the branch indices; the
product rule is e_I e_J = epsilon(I, J) f_{I cap J} e_{I delta J} with an
explicit sign.  The grading puts e_i in degree 1 and s, t in degree 2, so a
term c(s,t) * e_I is homogeneous of degree |I| + 2 deg c.

The module also hosts the finite-window Clifford modules fed to the
Koszul-dual differential (bgg_complex) together with its exact d^2
certificate.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb

import numpy as np

from . import mf as mf_mod
from .binary import ST
from .fields import NotASquare, PrimeField
from .pencil import HyperellipticData
from .poly import Poly
from .polymatrix import PolyMatrix


class CliffordError(ValueError):
    pass


def epsilon_sign(subset_i, subset_j) -> int:
    """(-1)^(number of pairs i in I, j in J with j < i)."""
    count = 0
    for i in subset_i:
        for j in subset_j:
            if j < i:
                count += 1
    return -1 if count % 2 else 1


def basis_product(h: HyperellipticData, subset_i, subset_j):
    """e_I e_J as (sign, f_{I cap J}, I delta J)."""
    key_i = mf_mod.subset_key(h, subset_i)
    key_j = mf_mod.subset_key(h, subset_j)
    sign = epsilon_sign(key_i, key_j)
    factor = h.subset_product(key_i & key_j)
    return sign, factor, key_i.symmetric_difference(key_j)


class CliffordElement:
    """A finite k[s,t]-combination of basis words e_I."""

    __slots__ = ("h", "terms")

    def __init__(self, h: HyperellipticData, terms: dict):
        self.h = h
        clean = {}
        for subset, coeff in terms.items():
            key = frozenset(subset)
            if any(i < 1 or i > h.nbranch for i in key):
                raise CliffordError(f"subset {sorted(key)} out of range")
            if not coeff.is_zero():
                clean[key] = coeff
        self.terms = clean

    @staticmethod
    def zero(h) -> "CliffordElement":
        return CliffordElement(h, {})

    @staticmethod
    def one(h) -> "CliffordElement":
        return CliffordElement(h, {frozenset(): Poly.const(h.field, ST, 1)})

    @staticmethod
    def basis(h, subset, coeff=None) -> "CliffordElement":
        c = Poly.const(h.field, ST, 1) if coeff is None else coeff
        return CliffordElement(h, {frozenset(subset): c})

    @staticmethod
    def generator(h, i: int) -> "CliffordElement":
        return CliffordElement.basis(h, {i})

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> str:
        sizes = {len(k) % 2 for k in self.terms}
        return "mixed" if len(sizes) > 1 else "odd" if sizes == {1} else "even"

    def is_homogeneous(self) -> bool:
        degs = set()
        for subset, coeff in self.terms.items():
            if not coeff.is_homogeneous():
                return False
            degs.add(len(subset) + 2 * coeff.homogeneous_degree())
        return len(degs) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous element (e_i has degree 1, s and t degree 2)."""
        degs = set()
        for subset, coeff in self.terms.items():
            if not coeff.is_homogeneous():
                raise CliffordError("element is not homogeneous")
            degs.add(len(subset) + 2 * coeff.homogeneous_degree())
        if len(degs) != 1:
            raise CliffordError("element is zero or not homogeneous")
        return degs.pop()

    def coefficient(self, subset) -> Poly:
        return self.terms.get(frozenset(subset), Poly.zero(self.h.field, ST))

    def _check(self, other: "CliffordElement"):
        if self.h is not other.h and self.h.factors != other.h.factors:
            raise CliffordError("elements of different Clifford algebras")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return CliffordElement(self.h, out)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.h, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "CliffordElement":
        return self + (-other)

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        h = self.h
        out: dict = {}
        for ki, ci in self.terms.items():
            for kj, cj in other.terms.items():
                sign, factor, key = basis_product(h, ki, kj)
                piece = ci * cj * factor
                if sign < 0:
                    piece = piece.scale(h.field.of(-1))
                out[key] = out[key] + piece if key in out else piece
        return CliffordElement(h, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordElement)
            and self.h.factors == other.h.factors
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms, key=lambda k: (len(k), sorted(k))):
            name = "e{" + ",".join(map(str, sorted(k))) + "}" if k else "1"
            bits.append(f"({self.terms[k]})*{name}")
        return " + ".join(bits)


def central_element_y(h: HyperellipticData) -> CliffordElement:
    """y = (sqrt(-1))^(g+1) e_{1..2g+2}, normalized so y^2 = f.

    Needs sqrt(-1) in the field exactly when g is even; the error message
    then suggests a prime that is 1 mod 4.
    """
    field = h.field
    g = h.genus
    if (g + 1) % 2 == 0:
        c = field.of((-1) ** ((g + 1) // 2))
    else:
        try:
            i = field.sqrt(field.of(-1))
        except NotASquare as exc:
            raise NotASquare(
                "central element needs sqrt(-1): choose a prime p = 1 mod 4"
            ) from exc
        c = i if g % 4 == 0 else field.neg(i)
        # c = i^(g+1) with g even: i^(g+1) = i * (i^2)^(g/2) = i * (-1)^(g/2)
    top = frozenset(range(1, h.nbranch + 1))
    y = CliffordElement.basis(h, top, Poly.const(field, ST, c))
    square = y * y
    expected = CliffordElement.basis(h, frozenset(), h.f)
    if square != expected:
        raise CliffordError("internal error: y^2 != f")
    return y


def even_decomposition_check(h: HyperellipticData, subset) -> dict:
    """Right multiplication by y on span(e_I, e_{I^c}) against the L_I factorization.

    For even I the 2x2 matrix of y must be antidiagonal with entries
    c * f_I and c' * f_{I^c}, c * c' = 1, and the resulting rank-one
    factorization must be isomorphic to line_bundle_mf(I).
    """
    key = mf_mod.subset_key(h, subset)
    if len(key) % 2:
        raise CliffordError("even_decomposition_check needs an even subset")
    comp = h.complement(key)
    field = h.field
    y = central_element_y(h)
    e_i = CliffordElement.basis(h, key)
    e_ic = CliffordElement.basis(h, comp)
    img_i = e_i * y
    img_ic = e_ic * y
    report = {"I": sorted(key), "pass": False}
    if set(img_i.terms) != {comp} or set(img_ic.terms) != {key}:
        report["detail"] = "y-multiplication is not antidiagonal on (e_I, e_I^c)"
        return report
    alpha = img_i.coefficient(comp)
    beta = img_ic.coefficient(key)
    f_i = h.subset_product(key)
    f_ic = h.subset_product(comp)
    c1 = alpha.divexact(f_i).constant_value()
    c2 = beta.divexact(f_ic).constant_value()
    report["c"] = c1
    report["c_prime"] = c2
    if not field.is_zero(field.sub(field.mul(c1, c2), field.one)):
        report["detail"] = "antidiagonal scalars do not multiply to 1"
        return report
    zero = Poly.zero(field, ST)
    phi = PolyMatrix(field, ST, [[zero, beta], [alpha, zero]])
    built = mf_mod.MatrixFactorization(
        h, (len(key) // 2, len(comp) // 2), phi, label=f"y-span{sorted(key)}"
    )
    expected = mf_mod.line_bundle_mf(h, key)
    if not mf_mod.is_isomorphic_line_bundle(built, expected):
        report["detail"] = "y-span factorization is not isomorphic to L_I"
        return report
    report["pass"] = True
    report["detail"] = "ok"
    return report


class CliffordModuleWindow:
    """A graded right C-module given on a finite window of degrees.

    ``bases``: dict degree -> list of labels (opaque, fixes the ordering).
    ``e_action``: dict (i, k) -> scalar matrix taking the degree-k piece to
    degree k+1 (right multiplication by e_i).
    ``t_action``: dict (ell, k) -> scalar matrix to degree k+2, ell in (1, 2)
    for multiplication by s resp. t.
    """

    def __init__(self, h: HyperellipticData, bases: dict, e_action: dict, t_action: dict):
        self.h = h
        self.bases = bases
        self.e_action = e_action
        self.t_action = t_action

    def dim(self, k: int) -> int:
        return len(self.bases.get(k, []))

    def degrees(self):
        return sorted(self.bases)

    def verify_relations(self) -> set:
        """Check e_i^2 = f_i and e_i e_j + e_j e_i = 0 (i != j) on the window.

        Returns the set of degrees checked.  A degree k is checked when N_k is
        nonzero and the window holds N_{k+2}, the s and t actions on N_k and
        every e_i action on N_k and N_{k+1}.
        One exact product does the work per degree: H stacks the r actions
        N_{k+1} -> N_{k+2} as row blocks, L puts the r actions N_k -> N_{k+1}
        side by side, and block (j, i) of H @ L is n -> n e_i e_j.  The error
        names the first failing pair (i <= j, ascending) at the lowest degree.
        """
        h = self.h
        field = h.field
        r = h.nbranch
        gens = range(1, r + 1)
        f_coeffs = [(f.coefficient((1, 0)), f.coefficient((0, 1))) for f in map(h.factor, gens)]
        checked = set()
        for k in self.degrees():
            ready = k + 2 in self.bases and (1, k) in self.t_action and (2, k) in self.t_action
            if not ready or self.dim(k) == 0:
                continue
            if any((i, k) not in self.e_action or (i, k + 1) not in self.e_action for i in gens):
                continue
            d0, d2 = self.dim(k), self.dim(k + 2)
            stack_h = [row for i in gens for row in self.e_action[(i, k + 1)]]
            stack_l = [list(chain(*rows)) for rows in zip(*(self.e_action[(i, k)] for i in gens))]
            prod = _mat_mul_scalar(field, stack_h, stack_l)
            blocks = prod.reshape(r, d2, r, d0)
            # f_i = a_i s + b_i t acts as a_i T1 + b_i T2; on int64 each entry
            # is at most 2 (p - 1)^2, within the bound _mat_mul_scalar checked
            ts = np.array([self.t_action[(1, k)], self.t_action[(2, k)]], dtype=prod.dtype)
            ts = _reduced(field, ts.reshape(2, d2, d0))
            want = np.tensordot(np.array(f_coeffs, dtype=prod.dtype), ts, axes=1)
            diag = np.arange(r)
            bad = (_reduced(field, blocks + blocks.transpose(2, 1, 0, 3)) != 0).any(axis=(1, 3))
            bad[diag, diag] = (_reduced(field, blocks[diag, :, diag, :] - want) != 0).any(axis=(1, 2))
            failing = np.argwhere(np.triu(bad))
            if len(failing):
                i, j = (int(v) + 1 for v in failing[0])
                raise CliffordError(f"action rule fails for (e_{i}, e_{j}) at degree {k}")
            checked.add(k)
        return checked


def _mat_mul_scalar(field, a, b):
    """The exact product of two scalar matrices given as lists of rows.

    Over F_p with 2 * len(b) * (p - 1)^2 < 2^63 the operands are reduced
    into [0, p) and multiplied as int64 arrays, so no entry of the product,
    a sum of len(b) products of residues, overflows before its one final
    reduction mod p (the delayed reduction of FLINT's nmod_mat).  Past that
    bound, and over Q, the product is an object array of Python ints or
    Fractions.  A product with no inner dimension has no columns.
    """
    inner, ncols = len(b), len(b[0]) if b else 0
    small = isinstance(field, PrimeField) and 2 * inner * (field.p - 1) ** 2 < 2**63
    dtype = np.int64 if small else object
    left = _reduced(field, np.array(a, dtype=dtype).reshape(len(a), inner))
    right = _reduced(field, np.array(b, dtype=dtype).reshape(inner, ncols))
    return _reduced(field, left @ right)


def _reduced(field, x):
    """x mod p over F_p; x itself over Q."""
    return x % field.p if isinstance(field, PrimeField) else x


def regular_module_window(h: HyperellipticData, k_lo: int, k_hi: int) -> CliffordModuleWindow:
    """N = C itself on degrees k_lo .. k_hi: basis words e_I s^a t^b."""
    field = h.field
    r = h.nbranch
    bases = {}
    index = {}
    for k in range(k_lo, k_hi + 1):
        labels = []
        for size in range(min(k, r) + 1):
            if (k - size) % 2:
                continue
            m = (k - size) // 2
            for combo in combinations(range(1, r + 1), size):
                for a in range(m, -1, -1):
                    labels.append((combo, (a, m - a)))
        labels.sort()
        bases[k] = labels
        index[k] = {lab: i for i, lab in enumerate(labels)}
    e_action = {}
    t_action = {}
    for k in range(k_lo, k_hi):
        cur = bases[k]
        nxt = bases[k + 1]
        for i in range(1, r + 1):
            mat = [[field.zero] * len(cur) for _ in range(len(nxt))]
            for col, (combo, (a, b)) in enumerate(cur):
                key = frozenset(combo)
                sign = epsilon_sign(key, {i})
                sgn = field.of(sign)
                if i not in key:
                    lab = (tuple(sorted(key | {i})), (a, b))
                    if lab in index[k + 1]:
                        mat[index[k + 1][lab]][col] = sgn
                else:
                    f_i = h.factor(i)
                    ai = f_i.coefficient((1, 0))
                    bi = f_i.coefficient((0, 1))
                    rest = tuple(sorted(key - {i}))
                    lab_s = (rest, (a + 1, b))
                    lab_t = (rest, (a, b + 1))
                    if lab_s in index[k + 1]:
                        mat[index[k + 1][lab_s]][col] = field.mul(sgn, ai)
                    if lab_t in index[k + 1]:
                        mat[index[k + 1][lab_t]][col] = field.mul(sgn, bi)
            e_action[(i, k)] = mat
    for k in range(k_lo, k_hi - 1):
        cur = bases[k]
        nxt = bases[k + 2]
        for ell, shift in ((1, (1, 0)), (2, (0, 1))):
            mat = [[field.zero] * len(cur) for _ in range(len(nxt))]
            for col, (combo, (a, b)) in enumerate(cur):
                lab = (combo, (a + shift[0], b + shift[1]))
                if lab in index[k + 2]:
                    mat[index[k + 2][lab]][col] = field.one
            t_action[(ell, k)] = mat
    return CliffordModuleWindow(h, bases, e_action, t_action)


def bgg_complex(window: CliffordModuleWindow, k_lo: int, k_hi: int) -> dict:
    """Graded dimensions and d^2 certificates of D_k = sum_i x_i E_{i,k} over k[x].

    E_{i,k} is the e_i action N_k -> N_{k+1}; q1 = sum a_i x_i^2 and
    q2 = sum b_i x_i^2 for f_i = a_i s + b_i t.  Expanded,
      D_{k+1} D_k = sum_i x_i^2 E_{i,k+1} E_{i,k}
                    + sum_{i<j} x_i x_j (E_{i,k+1} E_{j,k} + E_{j,k+1} E_{i,k})
    and q1 T1 + q2 T2 = sum_i x_i^2 (a_i T1 + b_i T2).  The monomials differ,
    so d^2 = q1 T1 + q2 T2 at degree k is, coefficient by coefficient, the
    identity verify_relations checks on N_k, and certificates[k] is read from
    it (vacuous when N_k = 0) for each k_lo <= k < k_hi whose s action the
    window holds.  A window on degrees k_lo .. k_hi + 1 is enough.  Raises
    CliffordError when a relation fails, when an e_i action at a degree
    k_lo .. k_hi is missing, or when a degree to certify went unchecked.
    """
    checked = window.verify_relations()
    for k in range(k_lo, k_hi + 1):
        if any((i, k) not in window.e_action for i in range(1, window.h.nbranch + 1)):
            raise CliffordError(f"window does not cover degree {k}")
    certified = [k for k in range(k_lo, k_hi) if (1, k) in window.t_action]
    for k in certified:
        if k not in checked and window.dim(k) != 0:
            raise CliffordError(f"d^2 certificate not checked at degree {k}")
    dims = {k: window.dim(k) for k in sorted(window.bases)}
    return {"dims": dims, "certificates": dict.fromkeys(certified, True)}


def clifford_dimension(h_or_nbranch, k: int) -> int:
    """dim_k C_k by direct basis-word enumeration: pairs (|I|, monomial in s,t)."""
    r = h_or_nbranch if isinstance(h_or_nbranch, int) else h_or_nbranch.nbranch
    sizes = range(k % 2, min(k, r) + 1, 2)
    return sum(comb(r, size) * ((k - size) // 2 + 1) for size in sizes)
