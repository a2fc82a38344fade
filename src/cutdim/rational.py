"""Exact rational scalars.

Every number that enters the toolkit is converted to an exact value at
the boundary (parsers, `build_instance`, `Inequality`, a user's
direction) and stays exact from then on; no floats are ever produced by
internal arithmetic, and no true division (``/``) is used anywhere.

One rule holds for the problem data and for what the engines compute
from them: a value is a Python ``int`` when it is integral and a
``fractions.Fraction`` otherwise (`exact`, which `linalg.exact_vector`
applies to a whole row).  Instance data, bounds, cut data, LP values,
oracle values, points, directions and rays all follow it, and rows are
scaled to ints once (`linalg.scaled_row`), so the engines pivot, scan
and check on ints and compute with a rational only where a value is
fractional.  `rat` is exact division and always returns a rational, as
the analysis's ratios (closed gaps, histogram weights) are.  Under
cProfile, one seed-1 pass of each benchmark workload's CLI calls spends
this share of its tottime in ``fractions.py`` (three passes each,
Python 3.11.7, a 2-core Xeon): 6.2-6.7% on knapsack-classify, 7.3-8.0%
on stein9-impact and 10.1-10.4% on random-lattice.  That share bounds
what a faster rational type could save, so none is used.  Fractions hash and compare
consistently with ``int``, so the two mix freely.

``math.inf`` / ``-math.inf`` are used as sentinels for absent bounds and
for unbounded optima; they are never operated on arithmetically, only
compared.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

BACKEND = "fractions"  # the rational type, named in benchmark records

#: Anything `rat` accepts.
RationalLike = Union[int, str, Fraction]


def rat(value: RationalLike, den: RationalLike | None = None):
    """Coerce `value` (optionally `value/den`) to an exact rational.

    Accepts ints, Fractions and strings.  Strings may be integers ("7"),
    ratios ("7/21"), or decimal literals with optional exponent ("0.1",
    "2.5e-3"); all are parsed exactly, never via float.  A float or a
    bool raises TypeError: neither is an exact number.
    """
    if den is not None:
        if type(value) is int and type(den) is int:
            return Fraction(value, den)
        return Fraction(rat(value), rat(den))
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if hasattr(value, "__index__") and not isinstance(value, bool):  # other integer types
        return Fraction(int(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def exact(value):
    """`value` as an int when it is integral, else as a rational (`rat`)."""
    if type(value) is int:
        return value
    q = rat(value)
    return q.numerator if q.denominator == 1 else q


def plain_literal(text: str) -> bool:
    """True when `text` is ASCII with no underscore, as every number
    literal the project reads is: `int`, `float` and `Fraction` alone
    also take other scripts' digits, and underscores from Python 3.11 on."""
    return "_" not in text and text.isascii()


def parse_rational(text: str):
    """Parse a decimal or p/q literal exactly (`plain_literal`)."""
    literal = text.strip()
    if plain_literal(literal):
        try:
            return Fraction(literal)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not an exact rational literal: {text!r}")


def rat_str(value) -> str:
    """Render as "p/q", or "p" when the denominator is 1.

    Infinities render as "inf" / "-inf" so bound sentinels survive a
    round trip through the text formats.
    """
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    q = rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_decimal(value) -> str:
    """Six-place decimal rendering, rounded half away from zero.

    Used only for human-facing report columns; the exact value is always
    emitted alongside.
    """
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    q = rat(value)
    sign = "-" if q < 0 else ""
    num, den = abs(q.numerator), q.denominator
    scaled, rem = divmod(num * 10**6, den)
    if 2 * rem >= den:
        scaled += 1
    whole, frac = divmod(scaled, 10**6)
    return f"{sign}{whole}.{frac:06d}"
