"""Exact rational arithmetic: every exact number is a fractions.Fraction.

`R(a, b)` is a / b; `as_rational` reads ints, floats (exactly), Fractions and
decimal strings.
"""

from fractions import Fraction

R = as_rational = Fraction

# the rational type is fixed; benchmark environment records still read this flag
HAVE_GMPY2 = False


def rat_str(v):
    """Serialize an exact rational as "p/q"."""
    return f"{v.numerator}/{v.denominator}"
