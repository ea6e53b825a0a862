"""Exact rational scalars and the numeric comparison context.

All quantities in the model (times, coordinates, speeds) are rational
numbers.  Exact mode compares them with plain equality and refuses an
irrational distance.  Approximate mode is exact mode plus one thing: an
instant whose true value is irrational, a flight time or a relay bound
over an irrational distance, or pgt's location estimate at one, is met
by a rational record within a caller-supplied epsilon of it.  Every
quantity that has a rational value, a node's own stamp and peer times
included, is compared exactly in both modes, so approximate mode gives
exact mode's verdicts wherever every distance is rational, whatever
epsilon.
Both modes decide every comparison exactly, in integers: an irrational
flight time is read as the integer ticks just below and just above it
(see ``core.Ticks``), never as a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


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


# Longest token an error message repeats whole, in characters; a longer
# one is cut to this prefix, followed by its length.
MAX_ECHO_LENGTH = 64


def echo(token: str, quote: bool = True) -> str:
    """The repr of an input token for an error message (with quote=False,
    the token as it is), cut when over-long."""
    show = repr if quote else str
    if len(token) <= MAX_ECHO_LENGTH:
        return show(token)
    return f"{show(token[:MAX_ECHO_LENGTH])}... ({len(token)} characters)"


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q", integer, decimal or scientific notation into a Fraction.

    No text with an underscore is read, on any Python: Fraction reads
    "1_0" as 10 from Python 3.11 on, and rejects it before.

    Text longer than MAX_SCALAR_LENGTH characters, with a
    scientific-notation exponent beyond MAX_SCALAR_EXPONENT in
    magnitude, or whose canonical form (format_scalar) could be longer
    than MAX_SCALAR_LENGTH, is rejected from the text alone, before any
    number is built.  So every scalar accepted here is written back as
    text accepted here.
    """
    text = text.strip()
    # plain ASCII "-?digits[/digits]", denominator nonzero: int() reads it to
    # the value Fraction's regex gives, and it is never longer written out
    head, slash, den = text.partition("/")
    if (
        len(text) <= MAX_SCALAR_LENGTH
        and text.isascii()
        and head[head.startswith("-"):].isdigit()
        and (not slash or den.isdigit() and den.strip("0"))
    ):
        return Fraction(int(head), int(den)) if slash else Fraction(int(head))
    if not text:
        raise ValueError("empty scalar")
    if "_" in text:
        raise ValueError(f"invalid scalar {echo(text)}: underscores are not accepted")
    if "e" in text or "E" in text:
        digits = text.lower().rpartition("e")[2].lstrip("+-").lstrip("0")
        # the length test keeps int() off an exponent of any size
        if digits.isdecimal() and (
            len(digits) > len(str(MAX_SCALAR_EXPONENT)) or int(digits) > MAX_SCALAR_EXPONENT
        ):
            raise ValueError(
                f"invalid scalar {echo(text)}: "
                f"exponent beyond {MAX_SCALAR_EXPONENT} in magnitude"
            )
    if len(text) > MAX_SCALAR_LENGTH:
        raise ValueError(f"invalid scalar: {len(text)} characters, over {MAX_SCALAR_LENGTH}")
    if "/" not in text:
        # a decimal ±M·10^k, M of n digits, is written as at most n + k
        # digits for k >= 0, else as p/q with p of at most n digits and
        # q of at most |k| + 1, plus the sign
        mantissa, _, exponent = text.lower().partition("e")
        try:
            k = int(exponent or 0) - sum(c.isdigit() for c in mantissa.partition(".")[2])
        except ValueError:
            k = 0  # malformed: Fraction rejects it below
        bound = text.startswith("-") + sum(c.isdigit() for c in mantissa) + abs(k) + 2 * (k < 0)
        if bound > MAX_SCALAR_LENGTH:
            why = f"written out it could take {bound} characters, over {MAX_SCALAR_LENGTH}"
            raise ValueError(f"invalid scalar {echo(text)}: {why}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid scalar {echo(text)}: {exc}") from None


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
    top = _isqrt_exact(squared.numerator)
    bottom = _isqrt_exact(squared.denominator)
    if top is None or bottom is None:
        raise not_a_square(squared)
    return Fraction(top, bottom)


def not_a_square(squared: Fraction) -> IrrationalDistance:
    """The error for a squared length with no rational square root."""
    return IrrationalDistance(f"{format_scalar(squared)} is not a rational square")


def is_rational_square(squared: Fraction) -> bool:
    return (
        squared >= 0
        and _isqrt_exact(squared.numerator) is not None
        and _isqrt_exact(squared.denominator) is not None
    )


@dataclass(frozen=True)
class Num:
    """Comparison context.

    exact     whether an irrational distance is an error (exact mode) or
              is compared by the ticks around it (approximate mode)
    epsilon   how far a rational record may lie from an instant that has
              no rational value and still count as equal to it; 0 in
              exact mode.  Every rational value is compared exactly in
              either mode
    """

    exact: bool = True
    epsilon: Fraction = Fraction(0)


EXACT = Num()


def approx_num(epsilon: Fraction) -> Num:
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    return Num(exact=False, epsilon=epsilon)
