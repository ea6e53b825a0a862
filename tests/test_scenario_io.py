from fractions import Fraction

import pytest

from ndcheck import (
    AdversaryModel,
    InaccuracyParams,
    PGT_APPROX,
    RELAY,
    ScenarioError,
    availability_witness,
    dump_scenario,
    dump_trace,
    parse_scenario,
    parse_trace,
    plan_relay_attack,
)

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
