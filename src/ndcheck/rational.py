"""Exact rational scalars and the numeric comparison context.

All quantities in the model (times, coordinates, speeds) are rational
numbers.  Exact mode compares them with plain equality; approximate mode
relaxes equality to a caller-supplied epsilon and allows irrational
distances (evaluated in floating point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Real = Union[Fraction, float]


class IrrationalDistance(ValueError):
    """A squared length has no exact rational square root."""


# Largest exponent magnitude accepted in scientific notation.  Fraction
# builds 10**exponent in full, so one unbounded token such as "1e999999999"
# would take minutes before any check ran; 1e1000 is far beyond any
# physical quantity and still cheap to build.
MAX_SCALAR_EXPONENT = 1000

# Longest scalar text accepted, in characters.  Every scalar that the
# benchmark, the demos and the tests read or write is under 100 characters;
# 1000 stays far above that and far below CPython's 4300-digit int
# conversion limit, and it keeps a runaway token out of error messages.
MAX_SCALAR_LENGTH = 1000


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q", integer, decimal or scientific notation into a Fraction.

    Text longer than MAX_SCALAR_LENGTH characters, or with a
    scientific-notation exponent beyond MAX_SCALAR_EXPONENT in
    magnitude, is rejected from the text alone, before any number is
    built.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty scalar")
    if "e" in text or "E" in text:
        digits = text.lower().rpartition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
        # the length test keeps int() off an exponent of any size
        if digits.isdecimal() and (
            len(digits) > len(str(MAX_SCALAR_EXPONENT)) or int(digits) > MAX_SCALAR_EXPONENT
        ):
            raise ValueError(
                f"invalid scalar {text!r}: "
                f"exponent beyond {MAX_SCALAR_EXPONENT} in magnitude"
            )
    if len(text) > MAX_SCALAR_LENGTH:
        raise ValueError(f"invalid scalar: {len(text)} characters, over {MAX_SCALAR_LENGTH}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid scalar {text!r}: {exc}") from None


def format_scalar(x: Fraction) -> str:
    """Render a Fraction canonically: bare integer, or "p/q"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


def exact_sqrt(squared: Fraction) -> Fraction:
    """Exact square root of a rational, or IrrationalDistance."""
    if squared < 0:
        raise ValueError("square root of negative value")
    num = _isqrt_exact(squared.numerator)
    den = _isqrt_exact(squared.denominator)
    if num is None or den is None:
        raise IrrationalDistance(f"{format_scalar(squared)} is not a rational square")
    return Fraction(num, den)


def is_rational_square(squared: Fraction) -> bool:
    return (
        squared >= 0
        and _isqrt_exact(squared.numerator) is not None
        and _isqrt_exact(squared.denominator) is not None
    )


@dataclass(frozen=True)
class Num:
    """Comparison context: exact rational, or epsilon-tolerant floating."""

    exact: bool = True
    epsilon: Fraction = Fraction(0)

    def sqrt(self, squared: Real) -> Real:
        if self.exact:
            return exact_sqrt(squared)
        return math.sqrt(squared)

    def eq(self, a: Real, b: Real) -> bool:
        if self.exact:
            return a == b
        return abs(a - b) <= self.epsilon

    def le(self, a: Real, b: Real) -> bool:
        if self.exact:
            return a <= b
        return a <= b + self.epsilon

    def ge(self, a: Real, b: Real) -> bool:
        return self.le(b, a)


EXACT = Num()


def approx_num(epsilon: Fraction) -> Num:
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    return Num(exact=False, epsilon=epsilon)
