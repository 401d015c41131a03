"""Exact sparse multivariate polynomials over a Field.

A polynomial stores an ordered variable tuple and a dict mapping exponent
tuples to nonzero scalars.  All arithmetic is exact; zero terms are pruned
eagerly so equality is plain dict comparison.  Polynomials are immutable by
convention: no method mutates self.  ``Poly(...)`` validates outside input;
results of internal arithmetic, already clean, go through ``Poly._make``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _add_ints
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
    def _make(field: Field, variables: tuple, terms: dict) -> "Poly":
        """Trusted constructor for internal results: variables is a tuple, and every
        exponent is a tuple of ints of its width with a nonzero coefficient."""
        p = Poly.__new__(Poly)
        p.field, p.vars, p.terms = field, variables, terms
        return p

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
        if other.field is not self.field and other.field != self.field:
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
        return Poly._make(f, self.vars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly._make(f, self.vars, {e: f.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        return Poly._make(f, self.vars, _nonzero(f, _mul_into(f, self.terms, other.terms, {})))

    def scale(self, scalar) -> "Poly":
        f = self.field
        scalar = f.of(scalar)
        if not self.terms or f.is_zero(scalar):
            return Poly._make(f, self.vars, {})
        return Poly._make(f, self.vars, {e: f.mul(c, scalar) for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise PolyError("negative power")
        result = Poly._make(self.field, self.vars, {(0,) * len(self.vars): self.field.one})
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
        return _substitution(self.field, self.vars, images, target_vars, [self])(self)

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
        return Poly._make(f, self.vars, quo)

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
        if not isinstance(data, list):
            raise PolyError(f"polynomial JSON must be a list of terms, not {type(data).__name__}")
        pairs = []
        for term in data:
            if not (
                isinstance(term, list) and len(term) == 3 and isinstance(term[0], list)
                and all(type(x) is int for x in (*term[0], term[1], term[2])) and term[2]
            ):
                raise PolyError("polynomial term must be [[exponents], numerator, "
                                f"nonzero denominator] of integers, not {term!r}")
            exp, num, den = term
            value = num
            if den != 1:
                try:
                    value = field.of(Fraction(num, den))
                except ZeroDivisionError:
                    raise PolyError(
                        f"coefficient {num}/{den} has no value in F_{field.name}"
                    ) from None
            pairs.append((tuple(exp), value))
        return Poly.from_pairs(field, variables, pairs)


def _mul_into(field: Field, t1: dict, t2: dict, out: dict) -> dict:
    """Add every product of a term of t1 and a term of t2 into out; sums that
    cancel stay in out as zeros."""
    add, mul, zero = field.add, field.mul, field.zero
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            exp = tuple(map(_add_ints, e1, e2))
            out[exp] = add(out.get(exp, zero), mul(c1, c2))
    return out


def _nonzero(field: Field, terms: dict) -> dict:
    is_zero = field.is_zero
    return {e: c for e, c in terms.items() if not is_zero(c)}


def _substitution(field: Field, variables, images: dict, target_vars, polys):
    """The map p -> p(images) for polynomials in variables, with the power
    lists of the images built once, up to the highest exponent in polys."""
    if target_vars is None:
        sample = next((p for p in images.values()), None)
        target_vars = sample.vars if sample is not None else variables
    target_vars = tuple(target_vars)
    tops = [0] * len(variables)
    for p in polys:
        for exp in p.terms:
            tops = list(map(max, tops, exp))
    powers = []
    for v, top in zip(variables, tops):
        if v in images:
            img = images[v]
            if img.vars != target_vars or img.field != field:
                raise PolyError("substitution images must share one target ring")
        else:
            img = Poly.variable(field, target_vars, v)
        row = [None, img.terms]  # row[e] = terms of img**e for e >= 1
        for _ in range(top - 1):
            row.append(_nonzero(field, _mul_into(field, row[-1], img.terms, {})))
        powers.append(row)
    unit = (0,) * len(target_vars)
    one = {unit: field.one}

    def apply(p: Poly) -> Poly:
        acc: dict = {}
        for exp, coeff in p.terms.items():
            # coeff times the image powers, the last product summed straight into acc
            factors = [row[e] for row, e in zip(powers, exp) if e] or [one]
            term = {unit: coeff}
            for t in factors[:-1]:
                term = _mul_into(field, term, t, {})
            _mul_into(field, term, factors[-1], acc)
        return Poly._make(field, target_vars, _nonzero(field, acc))

    return apply
