"""Numerical shadows of the even Clifford module: Betti numbers and tables.

Everything here is exact integer arithmetic driven by the generator-degree
data of the module F = Ext^ev(P_U, k): even-part generators sit in degree i
with multiplicity C(g+2, 2i), odd-part generators with C(g+2, 2i+1).  The
two-strand Tate shape, the Betti number formulas and the rank-parity
obstruction for Ulrich modules all derive from these counts.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .mf import CohomologyTable
from .polymatrix import GradedFreeModule


def fu_even_degrees(g: int) -> dict[int, int]:
    """Generator degrees of the even part: degree i with multiplicity C(g+2, 2i)."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    out = {}
    i = 0
    while 2 * i <= g + 2:
        mult = comb(g + 2, 2 * i)
        if mult:
            out[i] = mult
        i += 1
    return out


def fu_module(g: int):
    """(GradedFreeModule, rank, degree) of the even Clifford bundle.

    rank = 2^g, degree = g * 2^(g-1); the pushforward degree is
    -(g+2) * 2^(g-1), all cross-checked against the generator multiset.
    """
    mults = fu_even_degrees(g)
    degrees = []
    for d in sorted(mults):
        degrees.extend([d] * mults[d])
    module = GradedFreeModule(degrees)
    if module.rank != 2 ** (g + 1):
        raise ValueError("generator count disagrees with 2^(g+1)")
    rank = module.rank // 2
    deg_push = -sum(degrees)
    if deg_push != -(g + 2) * 2 ** (g - 1):
        raise ValueError("pushforward degree disagrees with -(g+2)2^(g-1)")
    degree = deg_push + rank * (g + 1)
    if degree != g * 2 ** (g - 1):
        raise ValueError("bundle degree disagrees with g 2^(g-1)")
    return module, rank, degree


def betti_number(g: int, i: int) -> int:
    """a_i of the linear strand: a_2p = sum (p-j+1) C(g+2, 2j), odd analogously."""
    if i < 0:
        return 0
    p, rem = divmod(i, 2)
    total = 0
    for j in range(p + 1):
        k = 2 * j + rem
        total += (p - j + 1) * comb(g + 2, k)
    return total


def betti_numbers(g: int, count: int) -> list[int]:
    return [betti_number(g, i) for i in range(count)]


class BettiTable:
    """Two-strand Betti display with a finite overlap.

    ``lower`` lists a_0, a_1, ... left to right; ``upper`` is the quadratic
    strand as displayed (so its right end reverses the start of ``lower``).
    The strand duality pins upper values: the entry sitting over lower index
    i is a_{overlap - 1 - i}.
    """

    def __init__(self, lower, upper, overlap: int):
        for key, strand in (("lower", lower), ("upper", upper)):
            if not (isinstance(strand, list) and all(type(v) is int and v >= 0 for v in strand)):
                raise ValueError(f"Betti table {key!r} must be a list of non-negative integers")
        if type(overlap) is not int or overlap < 0:
            raise ValueError("Betti table 'overlap' must be a non-negative integer")
        self.lower, self.upper, self.overlap = list(lower), list(upper), overlap
        if len(self.upper) < overlap:
            raise ValueError(
                f"upper strand has {len(self.upper)} entries, fewer than the overlap {overlap}"
            )
        if not lower and not upper:
            raise ValueError("Betti table 'lower' and 'upper' are both empty")
        for k in range(min(self.overlap, len(self.lower), len(self.upper))):
            if self.upper[-1 - k] != self.lower[k]:
                raise ValueError("strand duality violated on the overlap")

    def columns(self):
        """Rows padded to a common width; upper ends at column overlap-1 of lower."""
        upper_start = 0
        lower_start = len(self.upper) - self.overlap
        width = max(len(self.upper), lower_start + len(self.lower))
        top = [None] * width
        bottom = [None] * width
        for k, v in enumerate(self.upper):
            top[upper_start + k] = v
        for k, v in enumerate(self.lower):
            bottom[lower_start + k] = v
        return top, bottom

    def render(self) -> str:
        return _two_rows(*self.columns())


def tate_shape(g: int, n_terms: int | None = None) -> BettiTable:
    """Tate-resolution shape of the isotropic-plane module: overlap g."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    if n_terms is None:
        n_terms = 2 * g
    lower = betti_numbers(g, n_terms)
    upper = list(reversed(betti_numbers(g, n_terms - 1)))
    return BettiTable(lower, upper, overlap=g)


def chi_and_parity(g: int, r: int, d: int):
    """(chi of the twisted bundle, Ulrich rank on X, parity admissibility).

    chi = d 2^g + r g 2^(g-1) + r 2^g (1-g); the Ulrich module built from a
    rank-r bundle has rank r 2^(g-2); chi can vanish for an integer twist d
    exactly when r*g is even.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    if r < 1:
        raise ValueError("bundle rank must be positive")
    chi = d * 2**g + r * g * 2 ** (g - 1) + r * 2**g * (1 - g)
    rank_x = Fraction(r * 2**g, 4)
    if rank_x.denominator == 1:
        rank_x = int(rank_x)
    admissible = (r * g) % 2 == 0
    return chi, rank_x, admissible


def format_tate_style(table: CohomologyTable) -> str:
    """Staggered two-row rendering: column j holds h1(j p) over h0((j+1) p),
    zeros left blank."""
    cols = table.twists[:-1]
    top = [table.h1[table.twists.index(j)] or None for j in cols]
    bottom = [table.h0[table.twists.index(j + 1)] or None for j in cols]
    return _two_rows(top, bottom)


def _two_rows(top, bottom) -> str:
    """The two rows of a staggered table, "... " before the top one and " ..."
    after the bottom one, every cell right-aligned to the widest value and
    None left blank."""
    w = max((len(str(v)) for v in top + bottom if v is not None), default=1)

    def fmt(row, lead, tail):
        cells = [" " * w if v is None else str(v).rjust(w) for v in row]
        return (lead + " ".join(cells) + tail).rstrip()

    return fmt(top, "... ", "") + "\n" + fmt(bottom, "    ", " ...")
