from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ndcheck import (
    EXACT,
    IrrationalDistance,
    approx_num,
    exact_sqrt,
    format_scalar,
    is_rational_square,
    parse_scalar,
)
import ndcheck.rational
from ndcheck.rational import MAX_ECHO_LENGTH, MAX_SCALAR_EXPONENT, MAX_SCALAR_LENGTH


def test_parse_forms():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("7") == Fraction(7)
    assert parse_scalar("0.5") == Fraction(1, 2)
    assert parse_scalar("1e-9") == Fraction(1, 10**9)
    assert parse_scalar("-2/3") == Fraction(-2, 3)


@pytest.mark.parametrize("bad", ["", "3/0", "x", "1/2/3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@pytest.mark.parametrize("text", ["1_0", "1/1_0", "1.5_0", "1e1_0", " -1_000 ", "1e1_000_000"])
def test_parse_rejects_underscores_on_every_python(text):
    """Fraction reads "1_0" as 10 from Python 3.11 on and rejects it on
    3.10: the scalar grammar has no digit separators on any version."""
    with pytest.raises(ValueError) as caught:
        parse_scalar(text)
    assert str(caught.value) == f"invalid scalar {text.strip()!r}: underscores are not accepted"


def test_parse_bounds_the_exponent():
    # 1e-997 is the smallest power of ten whose canonical p/q fits in 1000 characters
    assert parse_scalar("1e-997") == Fraction(1, 10**997)
    assert parse_scalar(f"1e{MAX_SCALAR_EXPONENT - 1}") == 10 ** (MAX_SCALAR_EXPONENT - 1)
    assert parse_scalar("25e+0000000001") == Fraction(250)
    too_large = ["1e1001", "2.5E-1001", "1e+00001001", "1e999999999", "1e" + "9" * 5000]
    for text in too_large:
        with pytest.raises(ValueError, match="exponent beyond 1000 in magnitude"):
            parse_scalar(text)


def test_parse_bounds_the_length(monkeypatch):
    assert parse_scalar("0" * (MAX_SCALAR_LENGTH - 1) + "7") == 7

    def never_built(*args):
        raise AssertionError("an over-long scalar reached Fraction")

    monkeypatch.setattr(ndcheck.rational, "Fraction", never_built)
    for text in ["0" * MAX_SCALAR_LENGTH + "7", "1" * 5000, "1/" + "3" * 5000]:
        with pytest.raises(ValueError) as caught:
            parse_scalar(text)
        assert str(caught.value) == f"invalid scalar: {len(text)} characters, over 1000"


def test_errors_echo_a_bounded_prefix_of_long_tokens(monkeypatch):
    def never_built(*args):
        raise AssertionError("an over-long scalar reached Fraction")

    monkeypatch.setattr(ndcheck.rational, "Fraction", never_built)
    text = "1e" + "9" * 5000
    with pytest.raises(ValueError) as caught:
        parse_scalar(text)
    assert str(caught.value) == (
        f"invalid scalar {text[:MAX_ECHO_LENGTH]!r}... (5002 characters): "
        "exponent beyond 1000 in magnitude"
    )
    assert len(str(caught.value)) < 2 * MAX_ECHO_LENGTH + 100
    short = "1e" + "9" * (MAX_ECHO_LENGTH - 2)
    with pytest.raises(ValueError) as caught:
        parse_scalar(short)
    assert str(caught.value) == f"invalid scalar {short!r}: exponent beyond 1000 in magnitude"


def test_scalars_too_long_written_out_are_rejected_from_the_text(monkeypatch):
    """A scalar is accepted only if its canonical text is accepted again."""
    accepted = {"1e-997": 1000, "-1e-996": 1000, "1e999": 1000, "-1e998": 1000, "1.5e-3": 6}
    for text, length in accepted.items():
        written = format_scalar(parse_scalar(text))
        assert len(written) == length and format_scalar(parse_scalar(written)) == written

    def never_built(*args):
        raise AssertionError("a scalar too long written out reached Fraction")

    monkeypatch.setattr(ndcheck.rational, "Fraction", never_built)
    for text, bound in (("1e-999", 1002), ("-1e-998", 1002), ("1e1000", 1001), ("0.5e-999", 1004)):
        with pytest.raises(ValueError) as caught:
            parse_scalar(text)
        assert str(caught.value) == (
            f"invalid scalar {text!r}: written out it could take {bound} characters, over 1000"
        )
    long_decimal = "0." + "0" * 996 + "1"
    with pytest.raises(ValueError, match=r"^invalid scalar '0\.0{62}'\.\.\. \(999 characters\)"):
        parse_scalar(long_decimal)


# a mantissa of up to 12 digits, with or without a point, and an exponent
# whose written-out length lands near MAX_SCALAR_LENGTH
_near_bound = st.builds(
    lambda sign, digits, point, exponent: (
        f"{sign}{digits[:point]}{'.' if point < len(digits) else ''}{digits[point:]}e{exponent}"
    ),
    st.sampled_from(("", "-", "+")),
    st.text("0123456789", min_size=1, max_size=12),
    st.integers(0, 12),
    st.integers(-MAX_SCALAR_LENGTH, -MAX_SCALAR_LENGTH + 30)
    | st.integers(MAX_SCALAR_LENGTH - 30, MAX_SCALAR_LENGTH),
)


@given(_near_bound)
def test_scalars_near_the_bound_round_trip_or_are_rejected(text):
    """Parsing either fails with ValueError or gives a scalar whose
    canonical text parses back to it and is a fixed point."""
    try:
        x = parse_scalar(text)
    except ValueError:
        return
    written = format_scalar(x)
    assert len(written) <= MAX_SCALAR_LENGTH
    assert parse_scalar(written) == x and format_scalar(parse_scalar(written)) == written


def _reference_parse_scalar(text: str) -> Fraction:
    """parse_scalar as it read every text without an underscore through
    Fraction's parser, and rejected every text with one."""
    text = text.strip()
    if not text:
        raise ValueError("empty scalar")
    if "_" in text:
        raise ValueError(f"invalid scalar {ndcheck.rational.echo(text)}: underscores are not accepted")
    if "e" in text or "E" in text:
        digits = text.lower().rpartition("e")[2].lstrip("+-").lstrip("0")
        if digits.isdecimal() and (
            len(digits) > len(str(MAX_SCALAR_EXPONENT)) or int(digits) > MAX_SCALAR_EXPONENT
        ):
            raise ValueError(
                f"invalid scalar {ndcheck.rational.echo(text)}: "
                f"exponent beyond {MAX_SCALAR_EXPONENT} in magnitude"
            )
    if len(text) > MAX_SCALAR_LENGTH:
        raise ValueError(f"invalid scalar: {len(text)} characters, over {MAX_SCALAR_LENGTH}")
    if "/" not in text:
        mantissa, _, exponent = text.lower().partition("e")
        try:
            k = int(exponent or 0) - sum(c.isdigit() for c in mantissa.partition(".")[2])
        except ValueError:
            k = 0
        bound = text.startswith("-") + sum(c.isdigit() for c in mantissa) + abs(k) + 2 * (k < 0)
        if bound > MAX_SCALAR_LENGTH:
            why = f"written out it could take {bound} characters, over {MAX_SCALAR_LENGTH}"
            raise ValueError(f"invalid scalar {ndcheck.rational.echo(text)}: {why}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid scalar {ndcheck.rational.echo(text)}: {exc}") from None


def _outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return type(value), value


# texts on both sides of the plain "-?digits[/digits]" form read without
# Fraction's parser: signs, underscores, non-ASCII digits, leading zeros,
# zero denominators, inner and outer spaces, and lengths around the bound
_EDGE_SCALARS = [
    "+1", "1_000", "1/1_0", "\u0661\u0662", "3/\u0664", "\uff17", "\u00b2", "1/\u00b2",
    "007", "-0/5", "-0",
    "1/0", "0/0", "-1/00", "1/-2", "1/+2", "--1", "-", "1/", "/2", "1/2/3", " 1/2 ",
    "1 /2", "1/ 2", "- 1", "\t7\n", "1e3", "2.5", "", " ",
]
_plain = st.builds(
    lambda sign, n, d: f"{sign}{n}" + ("" if d is None else f"/{d}"),
    st.sampled_from(("", "-", "+")),
    st.integers(0, 10**30) | st.text("0123456789", min_size=1, max_size=8),
    st.none() | st.integers(0, 10**30) | st.text("0123456789", min_size=1, max_size=8),
)
_near_length = st.builds(
    lambda length, form: form(length),
    st.integers(MAX_SCALAR_LENGTH - 1, MAX_SCALAR_LENGTH + 1),
    st.sampled_from((
        lambda n: "7" * n,
        lambda n: "-" + "7" * (n - 1),
        lambda n: "1/" + "3" * (n - 2),
        lambda n: "-1/" + "3" * (n - 3),
        lambda n: " " + "7" * n + " ",
        lambda n: "+" + "7" * (n - 1),
    )),
)


@settings(max_examples=400)
@given(
    st.sampled_from(_EDGE_SCALARS)
    | _plain
    | _near_length
    | st.text("0123456789-+/_ .e\u0661\u00b2", max_size=10)
)
def test_parse_matches_the_fraction_parser(text):
    """Values, their type and error messages are those of reading every
    text without an underscore through Fraction's parser."""
    assert _outcome(parse_scalar, text) == _outcome(_reference_parse_scalar, text)


def test_plain_scalars_skip_the_fraction_parser(monkeypatch):
    """A trace whose scalars are all plain integers or p/q builds no
    Fraction from a string."""
    from ndcheck.scenario import parse_trace

    new = Fraction.__new__
    from_text = []

    def counting(cls, numerator=0, *args, **kwargs):
        if isinstance(numerator, str):
            from_text.append(numerator)
        return new(cls, numerator, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    trace = parse_trace(
        "bcast A 0 beacon-tl:A:0:3/4,-5:1/2\n"
        "receive B 7/2 A beacon-tl:A:0:3/4,-5:1/2\n"
        "dcast C 4 -0/5 1/3 opaque:x:007\n"
        "neighbor B 5 A 7/2\n"
    )
    assert len(trace) == 4 and from_text == []
    assert parse_scalar("2.5") == Fraction(5, 2) and from_text == ["2.5"]


@given(st.fractions())
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_exact_sqrt():
    assert exact_sqrt(Fraction(25)) == 5
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(0)) == 0
    with pytest.raises(IrrationalDistance):
        exact_sqrt(Fraction(2))
    assert is_rational_square(Fraction(49, 16))
    assert not is_rational_square(Fraction(3))


@given(st.fractions(min_value=0, max_value=1000))
def test_exact_sqrt_squares(x):
    assert exact_sqrt(x * x) == x


def test_numeric_contexts():
    """Exact mode has no tolerance; approximate mode keeps its epsilon,
    0 included, and refuses a negative one."""
    assert EXACT.exact and EXACT.epsilon == 0
    loose = approx_num(Fraction(1, 1000))
    assert not loose.exact and loose.epsilon == Fraction(1, 1000)
    assert not approx_num(Fraction(0)).exact
    with pytest.raises(ValueError):
        approx_num(Fraction(-1))
