"""Exact rational scalars.

Every number that enters the toolkit is converted to an exact rational at
the boundary (parsers, `build_instance`, `Inequality`, a user's
direction) and stays exact from then on; no floats are ever produced by
internal arithmetic, and no true division (``/``) is used anywhere.
Rationals are ``fractions.Fraction``.  A value the engines compute as
an int stays an int: rows are scaled to ints once (`linalg.scaled_row`),
the simplex pivots on ints, points, directions and rays keep the ints
the engines compute, and face equations are held scaled to ints, so
their checks take int dot products.  What is left rational is the work
around them (instance and cut data, LP values, fractional bounds and
points), under a tenth of the run time on every benchmark workload, so
no faster rational type is used.  Fractions hash consistently with
``int``, so the two mix freely.

``math.inf`` / ``-math.inf`` are used as sentinels for absent bounds and
for unbounded optima; they are never operated on arithmetically, only
compared.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

BACKEND = "fractions"  # the rational type, named in benchmark records

ZERO = Fraction(0)
ONE = Fraction(1)

#: Anything `rat` accepts.
RationalLike = Union[int, str, Fraction]


def rat(value: RationalLike, den: RationalLike | None = None):
    """Coerce `value` (optionally `value/den`) to an exact rational.

    Accepts ints, Fractions and strings.  Strings may be integers ("7"),
    ratios ("7/21"), or decimal literals with optional exponent ("0.1",
    "2.5e-3"); all are parsed exactly, never via float.
    """
    if den is not None:
        if isinstance(value, int) and isinstance(den, int):
            return Fraction(value, den)
        return Fraction(rat(value), rat(den))
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if hasattr(value, "__index__"):  # other integer types
        return Fraction(int(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_rational(text: str):
    """Parse a decimal or p/q literal exactly."""
    try:
        f = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational literal: {text!r}") from exc
    return f


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


def rat_decimal(value, places: int = 6) -> str:
    """Fixed-point decimal rendering, rounded half away from zero.

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
    scaled, rem = divmod(num * 10**places, den)
    if 2 * rem >= den:
        scaled += 1
    whole, frac = divmod(scaled, 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


def is_integral(value) -> bool:
    return rat(value).denominator == 1


def rat_floor(value) -> int:
    q = rat(value)
    return q.numerator // q.denominator


def rat_ceil(value) -> int:
    q = rat(value)
    return -((-q.numerator) // q.denominator)
