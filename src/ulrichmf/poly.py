"""Exact sparse multivariate polynomials over a Field.

A polynomial stores an ordered variable tuple and a dict mapping exponent
tuples to nonzero scalars.  All arithmetic is exact; zero terms are pruned
eagerly so equality is plain dict comparison.  Polynomials are immutable by
convention: no method mutates self.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .fields import Field


class PolyError(ValueError):
    pass


class Poly:
    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: Field, variables: tuple[str, ...], terms: dict):
        self.field = field
        self.vars = tuple(variables)
        clean = {}
        width = len(self.vars)
        for exp, coeff in terms.items():
            if len(exp) != width:
                raise PolyError(f"exponent {exp} does not match variables {self.vars}")
            if not field.is_zero(coeff):
                clean[tuple(int(e) for e in exp)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: Field, variables) -> "Poly":
        return Poly(field, tuple(variables), {})

    @staticmethod
    def const(field: Field, variables, value) -> "Poly":
        variables = tuple(variables)
        return Poly(field, variables, {(0,) * len(variables): field.of(value)})

    @staticmethod
    def variable(field: Field, variables, name: str) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise PolyError(f"unknown variable {name!r}")
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return Poly(field, variables, {tuple(exp): field.one})

    @staticmethod
    def from_pairs(field: Field, variables, pairs: Iterable) -> "Poly":
        """Build from (exponent tuple, raw coefficient) pairs, coercing coefficients."""
        variables = tuple(variables)
        out: dict = {}
        zero = field.zero
        for exp, raw in pairs:
            exp = tuple(int(e) for e in exp)
            c = field.add(out.get(exp, zero), field.of(raw))
            if field.is_zero(c):
                out.pop(exp, None)
            else:
                out[exp] = c
        return Poly(field, variables, out)

    # -- predicates and degrees --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a homogeneous nonzero polynomial (raises otherwise)."""
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            raise PolyError("polynomial is zero or not homogeneous")
        return degs.pop()

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def coefficient(self, exp) -> object:
        return self.terms.get(tuple(exp), self.field.zero)

    def constant_value(self):
        """The scalar value of a constant polynomial (raises if nonconstant)."""
        if not self.terms:
            return self.field.zero
        if len(self.terms) != 1:
            raise PolyError("polynomial is not constant")
        ((exp, coeff),) = self.terms.items()
        if any(exp):
            raise PolyError("polynomial is not constant")
        return coeff

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise PolyError("mixed coefficient fields")
        if self.vars != other.vars:
            raise PolyError(f"mixed variable lists {self.vars} vs {other.vars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = f.add(out.get(exp, f.zero), c)
            if f.is_zero(s):
                out.pop(exp, None)
            else:
                out[exp] = s
        return Poly(f, self.vars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, self.vars, {e: f.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        if not self.terms or not other.terms:
            return Poly.zero(f, self.vars)
        out: dict = {}
        zero = f.zero
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = f.add(out.get(exp, zero), f.mul(c1, c2))
                if f.is_zero(s):
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return Poly(f, self.vars, out)

    def scale(self, scalar) -> "Poly":
        f = self.field
        scalar = f.of(scalar)
        if f.is_zero(scalar):
            return Poly.zero(f, self.vars)
        return Poly(f, self.vars, {e: f.mul(c, scalar) for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise PolyError("negative power")
        result = Poly.const(self.field, self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.vars, tuple(sorted(self.terms.items()))))

    # -- substitution and evaluation ----------------------------------------

    def evaluate(self, values: dict):
        """Evaluate at scalars, one per variable name."""
        f = self.field
        powers = []
        for i, v in enumerate(self.vars):
            val = f.of(values[v])
            row = [f.one]
            for _ in range(max((exp[i] for exp in self.terms), default=0)):
                row.append(f.mul(row[-1], val))
            powers.append(row)
        acc = f.zero
        for exp, coeff in self.terms.items():
            term = coeff
            for row, e in zip(powers, exp):
                if e:
                    term = f.mul(term, row[e])
            acc = f.add(acc, term)
        return acc

    def substitute(self, images: dict, target_vars=None) -> "Poly":
        """Map each variable to a Poly; unmapped variables keep their name.

        All images must live in one ring, which also hosts the result.
        """
        f = self.field
        if target_vars is None:
            sample = next((p for p in images.values()), None)
            target_vars = sample.vars if sample is not None else self.vars
        target_vars = tuple(target_vars)
        imgs = []
        for v in self.vars:
            if v in images:
                img = images[v]
                if img.vars != target_vars or img.field != f:
                    raise PolyError("substitution images must share one target ring")
                imgs.append(img)
            else:
                imgs.append(Poly.variable(f, target_vars, v))
        powers = []
        for i, img in enumerate(imgs):
            row = [None, img]  # row[e] = img**e for e >= 1
            for _ in range(max((exp[i] for exp in self.terms), default=0) - 1):
                row.append(row[-1] * img)
            powers.append(row)
        acc = Poly.zero(f, target_vars)
        for exp, coeff in self.terms.items():
            term = Poly.const(f, target_vars, coeff)
            for row, e in zip(powers, exp):
                if e:
                    term = term * row[e]
            acc = acc + term
        return acc

    def graded_part(self, d: int) -> "Poly":
        return Poly(self.field, self.vars, {e: c for e, c in self.terms.items() if sum(e) == d})

    # -- exact division ------------------------------------------------------

    def divexact(self, divisor: "Poly") -> "Poly":
        """Exact quotient self / divisor; raises PolyError if not divisible."""
        self._check(divisor)
        if divisor.is_zero():
            raise PolyError("division by zero polynomial")
        f = self.field
        lead = max(divisor.terms)
        lead_c = divisor.terms[lead]
        rem = dict(self.terms)
        quo: dict = {}
        while rem:
            exp = max(rem)
            diff = tuple(a - b for a, b in zip(exp, lead))
            if any(d < 0 for d in diff):
                raise PolyError("polynomials do not divide exactly")
            c = f.div(rem[exp], lead_c)
            quo[diff] = c
            for dexp, dc in divisor.terms.items():
                tgt = tuple(a + b for a, b in zip(diff, dexp))
                s = f.sub(rem.get(tgt, f.zero), f.mul(c, dc))
                if f.is_zero(s):
                    rem.pop(tgt, None)
                else:
                    rem[tgt] = s
        return Poly(f, self.vars, quo)

    # -- rendering and JSON ---------------------------------------------------

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, exp) if e
            )
            if not mono:
                pieces.append(str(c))
            elif c == self.field.one:
                pieces.append(mono)
            else:
                pieces.append(f"{c}*{mono}")
        return " + ".join(pieces)

    def to_json(self) -> list:
        """Term list encoding: [[exponents], numerator, denominator]."""
        out = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            if isinstance(c, Fraction):
                out.append([list(exp), c.numerator, c.denominator])
            else:
                out.append([list(exp), int(c), 1])
        return out

    @staticmethod
    def from_json(field: Field, variables, data) -> "Poly":
        pairs = []
        for exp, num, den in data:
            value = Fraction(num, den) if den != 1 else num
            pairs.append((tuple(exp), value))
        return Poly.from_pairs(field, variables, pairs)


def product(polys, one: Poly | None = None) -> Poly:
    polys = list(polys)
    if not polys:
        if one is None:
            raise PolyError("empty product needs an explicit unit")
        return one
    acc = polys[0]
    for p in polys[1:]:
        acc = acc * p
    return acc
