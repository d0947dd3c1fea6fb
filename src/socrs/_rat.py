"""Exact rational arithmetic helpers.

gmpy2.mpq is used when available (much faster than fractions.Fraction for
dense tableau work); everything falls back to the stdlib Fraction.
"""

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    def R(a, b=1):
        return _mpq(a, b)

    def to_fraction(v):
        return Fraction(v.numerator, v.denominator)

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    def R(a, b=1):
        return Fraction(a, b)

    def to_fraction(v):
        return Fraction(v)

    HAVE_GMPY2 = False


def as_rational(v):
    """Coerce ints, floats, Fractions, mpqs and decimal strings to the fast rational type."""
    if isinstance(v, float):
        return R(*v.as_integer_ratio())
    if isinstance(v, Fraction):
        return R(v.numerator, v.denominator)
    if isinstance(v, str):
        f = Fraction(v)
        return R(f.numerator, f.denominator)
    return R(v)


def rat_str(v):
    """Serialize an exact rational as "p/q"."""
    f = Fraction(v.numerator, v.denominator)
    return f"{f.numerator}/{f.denominator}"
