"""The one check of a field scalar's type, shared by the tests."""

from fractions import Fraction

from ulrichmf.fields import RationalField


def assert_field_scalar(field, x):
    """x is a scalar in the field's canonical form: a Python int, or over Q a
    Fraction whose denominator is not 1.  A numpy scalar, a float or an
    integral Fraction is not one."""
    if type(x) is int:
        return
    assert isinstance(field, RationalField) and type(x) is Fraction and x.denominator != 1, (
        f"{x!r} of type {type(x).__name__} is not a canonical scalar of {field!r}")
