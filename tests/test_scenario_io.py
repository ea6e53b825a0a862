import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ndcheck import (
    AdversaryModel,
    Bcast,
    BeaconT,
    BeaconTL,
    Dcast,
    InaccuracyParams,
    Neighbor,
    Opaque,
    PGT_APPROX,
    RELAY,
    Receive,
    ScenarioError,
    Trace,
    availability_witness,
    dump_scenario,
    dump_trace,
    parse_scenario,
    parse_trace,
    plan_relay_attack,
)
from test_oracles import _events

F = Fraction

MINIMAL = """
[params]
v = 1
v_adv = 1
nd_range = 10
delta_relay = 1
msg_duration_default = 1

[node A]
x = 0
y = 0
type = correct

[node B]
x = 8
y = 0
type = correct

[link A <-> B]
up = 0:inf

[protocol]
name = pt

[adversary]
name = relay

[run]
horizon = 100
"""


def test_parse_minimal_scenario():
    scn = parse_scenario(MINIMAL)
    assert scn.params.nd_range == 10
    assert scn.setting.nodes == ("A", "B")
    assert scn.setting.link_schedule[("A", "B")] == ((F(0), None),)
    assert scn.setting.link_schedule[("B", "A")] == ((F(0), None),)
    assert scn.protocol == "pt"
    assert scn.adversary == AdversaryModel(RELAY, F(1))
    assert scn.horizon == 100


def test_scenario_round_trip():
    scn = parse_scenario(MINIMAL)
    text = dump_scenario(scn)
    again = parse_scenario(text)
    assert again == scn
    assert dump_scenario(again) == text


def test_scenario_round_trip_with_inaccuracy_and_override():
    scn = parse_scenario(
        MINIMAL.replace("name = pt", "name = pgt-approx\ndelta = 1/100\ntau = 3/200")
        .replace("name = relay", "name = dy-gt\ndelta_relay = 2")
    )
    assert scn.protocol == PGT_APPROX
    assert scn.inaccuracy == InaccuracyParams(F(1, 100), F(3, 200))
    assert scn.adversary.delta_relay == 2  # explicit override wins
    text = dump_scenario(scn)
    assert parse_scenario(text) == scn
    assert dump_scenario(parse_scenario(text)) == text


@pytest.mark.parametrize(
    "mutation, needle",
    [
        (lambda t: t.replace("delta_relay = 1", "delta_relay = 3/0"), "delta_relay"),
        (lambda t: t.replace("[run]\nhorizon = 100", "[run]\nhorizon = 0"), "horizon"),
        (lambda t: t.replace("name = pt", "name = mystery"), "protocol"),
        (lambda t: t.replace("name = relay", "name = mystery"), "adversary"),
        (lambda t: t.replace("type = correct", "type = confused", 1), "type"),
        (lambda t: t.replace("up = 0:inf", "up = 5:4"), "interval"),
        (lambda t: t.replace("[node B]", "[node Z]"), "link"),
        (lambda t: t.replace("[params]\nv = 1", "[params]\nv = -1"), "v"),
    ],
)
def test_parse_rejects_malformed(mutation, needle):
    with pytest.raises(ScenarioError):
        parse_scenario(mutation(MINIMAL))


def test_params_errors_are_prefixed_once():
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(MINIMAL.replace("delta_relay = 1", "delta_relay = 3/0"))
    assert str(caught.value) == "[params] delta_relay: invalid scalar '3/0': Fraction(3, 0)"
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(MINIMAL.replace("[params]\nv = 1", "[params]\nv = -1"))
    assert str(caught.value) == "[params]: v must be > 0"


def test_missing_sections_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("[params]\nv = 1\n")


def test_exact_mode_rejects_irrational_distances():
    diagonal = MINIMAL.replace("x = 8\ny = 0", "x = 1\ny = 1")
    with pytest.raises(ScenarioError):
        parse_scenario(diagonal)
    scn = parse_scenario(diagonal, exact=False)
    assert scn.setting.loc["B"] == (F(1), F(1))


def test_trace_round_trip(unit_params):
    _, trace = availability_witness("pgt", F(8), unit_params)
    text = dump_trace(trace)
    again = parse_trace(text)
    assert again == trace
    assert dump_trace(again) == text


def test_trace_round_trip_with_dcasts(unit_params):
    plan = plan_relay_attack(F(10), unit_params)
    text = dump_trace(plan.relay_trace)
    assert parse_trace(text) == plan.relay_trace
    assert dump_trace(parse_trace(text)) == text


def test_trace_parse_is_order_insensitive(unit_params):
    _, trace = availability_witness("pt", F(8), unit_params)
    lines = dump_trace(trace).splitlines()
    shuffled = "\n".join(reversed(lines)) + "\n"
    assert parse_trace(shuffled) == trace


def test_trace_comments_and_blanks(unit_params):
    text = "# header\n\nbcast B 0 beacon-t:B:0:1\n"
    trace = parse_trace(text)
    assert len(trace) == 1


@pytest.mark.parametrize(
    "line",
    [
        "bcast B 0",
        "teleport B 0 beacon-t:B:0:1",
        "bcast B -1 beacon-t:B:0:1",
        "bcast B 0 beacon-t:B:0:0",
        "dcast C 0 5 1 opaque:x:1",
        "receive A x B opaque:t:1",
        "neighbor A 1 B",
        "bcast B 0 opaque:ha:ha:1",
    ],
)
def test_trace_parse_rejects_bad_lines(line):
    with pytest.raises(ScenarioError):
        parse_trace(line + "\n")


def test_trace_error_carries_line_number():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_trace("bcast B 0 beacon-t:B:0:1\nbcast B 0\n")


def test_oversized_exponent_names_line_and_field():
    # rejected from the text alone: no oversized number is ever built
    with pytest.raises(ScenarioError) as caught:
        parse_trace("bcast B 0 beacon-t:B:0:1\nbcast A 1e999999999 beacon-t:A:0:1\n")
    assert str(caught.value) == (
        "line 2: invalid scalar '1e999999999': exponent beyond 1000 in magnitude"
    )
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(MINIMAL.replace("x = 8", "x = 8E-1001"))
    assert str(caught.value) == (
        "[node B] x: invalid scalar '8E-1001': exponent beyond 1000 in magnitude"
    )


@pytest.mark.parametrize(
    "line, message",
    [
        ("bcast A! 0 opaque:x:1", "line 2: invalid node id 'A!': use [A-Za-z0-9_.-] only"),
        ("receive A 0 B? opaque:x:1", "line 2: invalid node id 'B?': use [A-Za-z0-9_.-] only"),
        # rejected from the text alone: the 5,000-digit number is never built
        (
            "bcast A " + "1" * 5000 + " beacon-t:A:0:1",
            "line 2: invalid scalar: 5000 characters, over 1000",
        ),
    ],
    ids=["actor", "sender", "overlong-scalar"],
)
def test_trace_error_names_its_line(line, message):
    with pytest.raises(ScenarioError) as caught:
        parse_trace("bcast B 0 beacon-t:B:0:1\n" + line + "\n")
    assert str(caught.value) == message


_names = st.from_regex(r"[A-Za-z0-9_.\-]{1,4}", fullmatch=True)
_starts = st.fractions(min_value=0)
_durations = _starts.filter(bool)
_messages = st.one_of(
    st.builds(Opaque, _names, _durations),
    st.builds(BeaconT, _names, _starts, _durations),
    st.builds(BeaconTL, _names, _starts, st.tuples(st.fractions(), st.fractions()), _durations),
)
_any_events = st.one_of(
    _events,
    st.builds(Bcast, _names, _starts, _messages),
    st.builds(
        Dcast,
        _names,
        _starts,
        st.fractions(min_value=0, max_value=2).filter(lambda d: d < 2),
        st.fractions(min_value=0, max_value=2).filter(bool),
        _messages,
    ),
    st.builds(Receive, _names, _starts, _names, _messages),
    st.builds(Neighbor, _names, _starts, _names, _starts),
)


@given(st.lists(_any_events, max_size=12))
def test_trace_layout_round_trips(events):
    trace = Trace(events)
    text = dump_trace(trace)
    assert parse_trace(text) == trace
    assert dump_trace(parse_trace(text)) == text


_junk = st.text(max_size=6)
_words = st.sampled_from("A B! 0 1 -1 1/2 2/4 0.5 1e2 +3 3/0 1e999999999 1,2 1, inf #".split()) | _junk
_messy_messages = st.builds(
    lambda tag, parts: ":".join([tag, *parts]),
    st.sampled_from(["opaque", "beacon-t", "beacon-tl"]) | _junk,
    st.lists(_words, max_size=5),
)


@st.composite
def _messy_lines(draw):
    """A dumped event with some fields dropped, replaced or added."""
    fields = dump_trace(Trace([draw(_any_events)])).split()
    for i in draw(st.lists(st.integers(0, len(fields)), max_size=3)):
        fields[i:i + 1] = draw(st.lists(_words | _messy_messages, max_size=2))
    return " ".join(fields)


@given(st.lists(_messy_lines(), min_size=1, max_size=4))
def test_any_trace_text_is_rejected_by_line_or_round_trips(lines):
    try:
        trace = parse_trace("\n".join(lines))
    except ScenarioError as exc:
        assert re.match(r"line [1-9][0-9]*: ", str(exc)), str(exc)
        return
    text = dump_trace(trace)
    assert parse_trace(text) == trace
    assert dump_trace(parse_trace(text)) == text
