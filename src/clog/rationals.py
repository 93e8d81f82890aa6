"""Exact rational helpers shared by every module.

All interfaces speak `fractions.Fraction` (or anything Fraction accepts),
and Fraction is the one rational type inside.  Every rational round-trips
through the "p/q" string form used in every JSON file this package reads or
writes.
"""

from fractions import Fraction


def rat(p, q=None):
    if q is None:
        if type(p) is Fraction:
            return p  # immutable, so a copy would only cost memory
        if isinstance(p, float):
            raise TypeError("refusing float -> rational conversion: %r" % (p,))
        return Fraction(p)
    return Fraction(p, q)


ZERO = rat(0)
ONE = rat(1)
HALF = rat(1, 2)


def parse_rat(text):
    """Parse 'p/q' (or a bare integer string) into an exact rational."""
    if not isinstance(text, str):
        raise ValueError("rationals are written as 'p/q' strings, got %r" % (text,))
    s = text.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        den = int(q)
        if den <= 0:
            raise ValueError("denominator must be positive in %r" % (text,))
        return rat(int(p), den)
    return rat(int(s))


def format_rat(x):
    """Canonical 'p/q' form, reduced, denominator always explicit; a float
    raises TypeError, as in rat."""
    f = rat(x)
    return "%d/%d" % (f.numerator, f.denominator)


def is_unit_interval(x):
    """Whether the Fraction x lies in [0, 1], compared as integers."""
    return 0 <= x.numerator <= x.denominator
