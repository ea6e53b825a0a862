import contextlib
import io
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
from ndcheck.cli import main
from ndcheck.rational import MAX_ECHO_LENGTH
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


def test_protocol_errors_are_prefixed_once():
    approx = MINIMAL.replace("name = pt", "name = pgt-approx\ndelta = x\ntau = 0")
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(approx)
    assert str(caught.value) == (
        "[protocol] delta: invalid scalar 'x': Invalid literal for Fraction: 'x'"
    )
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(approx.replace("delta = x", "delta = -1"))
    assert str(caught.value) == "[protocol]: delta and tau must be >= 0"


def test_missing_sections_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("[params]\nv = 1\n")


def test_exact_mode_rejects_irrational_distances():
    diagonal = MINIMAL.replace("x = 8\ny = 0", "x = 1\ny = 1")
    with pytest.raises(ScenarioError):
        parse_scenario(diagonal)
    scn = parse_scenario(diagonal, exact=False)
    assert scn.setting.loc["B"] == (F(1), F(1))


def test_exact_read_keeps_nothing_per_node_pair():
    """An exact-mode read tests every node pair's distance but keeps nothing
    per pair: 1,000 collinear nodes with no link, 499,500 pairs, read with
    a tracemalloc peak under 8 MB."""
    head, _, rest = MINIMAL.partition("[node A]")
    nodes = "".join(f"[node N{i}]\nx = {i}\ny = 0\ntype = correct\n\n" for i in range(1000))
    text = head + nodes + rest[rest.index("[protocol]") :]
    tracemalloc.start()
    try:
        scn = parse_scenario(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scn.setting.nodes) == 1000 and not scn.setting.link_schedule
    assert peak < 8_000_000


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


_OK_LINE = "bcast B 3 beacon-t:B:0:1\n"
_LONG_ID = "A!" * 1500

# each text with the message the reader gave before field readers kept
# per-reader memos: the memos must not change which line fails or why
_MALFORMED_TRACES = {
    "unknown-kind": (
        "teleport B 0 beacon-t:B:0:1\n",
        "line 1: unrecognized event 'teleport B 0 beacon-t:B:0:1'",
    ),
    "too-few-fields": (_OK_LINE + "bcast B 0\n", "line 2: unrecognized event 'bcast B 0'"),
    "too-many-fields": (
        "neighbor A 1 B 2 3\n",
        "line 1: unrecognized event 'neighbor A 1 B 2 3'",
    ),
    "bad-node-id": (
        _OK_LINE + "neighbor A 1 B# 0\n",
        "line 2: invalid node id 'B#': use [A-Za-z0-9_.-] only",
    ),
    "bad-scalar": (
        "receive A x B opaque:t:1\n",
        "line 1: invalid scalar 'x': Invalid literal for Fraction: 'x'",
    ),
    "bad-message-form": (
        "bcast B 0 opaque:ha:ha:1\n",
        "line 1: unknown message form 'opaque:ha:ha:1'",
    ),
    "bad-message-value": (
        _OK_LINE + "bcast B 0 beacon-t:B:0:0\n",
        "line 2: bad message 'beacon-t:B:0:0': message duration must be > 0",
    ),
    "overlong-node-id": (
        f"bcast {_LONG_ID} 0 opaque:x:1\n",
        f"line 1: invalid node id {_LONG_ID[:MAX_ECHO_LENGTH]!r}... (3000 characters): "
        "use [A-Za-z0-9_.-] only",
    ),
    # "3" reads well as line 1's start and is kept; as line 2's direction
    # the event rejects it
    "scalar-read-earlier": (
        _OK_LINE + "dcast C 0 3 1 opaque:x:1\n",
        "line 2: direction must be in [0, 2) (units of pi)",
    ),
    "message-read-earlier": (
        "bcast B 0 opaque:x:1\nreceive A 0 B opaque:x:1\nreceive A 0 B opaque:x:1 extra\n",
        "line 3: unrecognized event 'receive A 0 B opaque:x:1 extra'",
    ),
    "first-of-two-bad": (
        _OK_LINE + "bcast B -1 beacon-t:B:0:1\nteleport B 0\n",
        "line 2: event start must be >= 0",
    ),
    "same-bad-text-twice": (
        "bcast B x beacon-t:B:0:1\nbcast B x beacon-t:B:0:1\n",
        "line 1: invalid scalar 'x': Invalid literal for Fraction: 'x'",
    ),
    "after-skipped-lines": (
        "# header\n\n   \n  # indented comment\n\t" + _OK_LINE + "  bcast B x beacon-t:B:0:1\n",
        "line 6: invalid scalar 'x': Invalid literal for Fraction: 'x'",
    ),
    "nan-start": (
        "bcast B nan beacon-t:B:0:1\n",
        "line 1: invalid scalar 'nan': Invalid literal for Fraction: 'nan'",
    ),
    # the reader splits each line once, at any run of blanks, and quotes
    # the line without its outer blanks
    "after-indented-comment": (
        "  # note\n\tteleport B 0\n",
        "line 2: unrecognized event 'teleport B 0'",
    ),
    "tab-separated-wrong-arity": ("bcast\tB\t0\n", "line 1: unrecognized event 'bcast\\tB\\t0'"),
    "crlf-lines": (
        _OK_LINE.replace("\n", "\r\n") + "bcast B 0\r\n",
        "line 2: unrecognized event 'bcast B 0'",
    ),
    "lone-cr-ends-a-line": (
        "bcast B 3 beacon-t:B:0:1\rteleport B 0\n",
        "line 2: unrecognized event 'teleport B 0'",
    ),
    "trailing-blanks": (
        "bcast B 0 beacon-t:B:0:1 x  \t \n",
        "line 1: unrecognized event 'bcast B 0 beacon-t:B:0:1 x'",
    ),
    "unknown-kind-with-blanks": (
        _OK_LINE + "   Bcast   B 0 beacon-t:B:0:1  \n",
        "line 2: unrecognized event 'Bcast   B 0 beacon-t:B:0:1'",
    ),
}


@pytest.mark.parametrize("text, message", _MALFORMED_TRACES.values(), ids=_MALFORMED_TRACES)
def test_trace_reader_errors_name_the_first_bad_line(text, message):
    with pytest.raises(ScenarioError) as caught:
        parse_trace(text)
    assert str(caught.value) == message


def test_trace_reader_skips_blank_comment_and_indented_lines():
    text = "# header\n\n   \n  # indented comment\n\t" + _OK_LINE + "  receive B 3 B beacon-t:B:0:1\n"
    msg = BeaconT("B", F(0), F(1))
    assert parse_trace(text) == Trace([Bcast("B", F(3), msg), Receive("B", F(3), "B", msg)])


def test_trace_reader_reads_any_blanks_and_line_ends_alike():
    """Tabs and runs of blanks between fields, CRLF and CR line ends,
    trailing blanks and indented comments read as the canonical text."""
    canonical = "bcast B 3 beacon-t:B:0:1\nreceive A 4 B beacon-t:B:0:1\nneighbor A 5 B 3\n"
    loose = (
        "\t# indented comment\r\n"
        "bcast\tB  3\tbeacon-t:B:0:1 \t\r\n"
        "  receive A\t4 B beacon-t:B:0:1\r"
        "neighbor A 5 B 3   "
    )
    assert parse_trace(loose) == parse_trace(canonical)
    assert dump_trace(parse_trace(loose)) == canonical


def test_bad_message_echoes_a_bounded_prefix():
    # rejected from the text alone: the 3,000-digit number is never built
    token = "opaque:x:" + "2" * 3000
    with pytest.raises(ScenarioError) as caught:
        parse_trace(f"bcast B 0 {token}\n")
    assert str(caught.value) == (
        f"line 1: bad message {token[:MAX_ECHO_LENGTH]!r}... (3009 characters): "
        "invalid scalar: 3000 characters, over 1000"
    )
    assert len(str(caught.value)) < 2 * MAX_ECHO_LENGTH + 100


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


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(heading):
    """The first indented code block after a README heading, dedented."""
    lines = README.read_text(encoding="utf-8").split("\n")
    block = []
    for line in lines[lines.index(heading) + 1:]:
        if line.startswith("    "):
            block.append(line[4:])
        elif block and line.strip():
            break
        elif block:
            block.append("")
    return "\n".join(block).strip("\n") + "\n"


def test_readme_examples_parse():
    scenario = parse_scenario(_readme_block("### Scenario files"))
    text = dump_scenario(scenario)
    assert parse_scenario(text) == scenario
    assert dump_scenario(parse_scenario(text)) == text
    trace = parse_trace(_readme_block("### Trace files"))
    assert len(trace) == 4
    assert dump_trace(parse_trace(dump_trace(trace))) == dump_trace(trace)


_SECTION_LINES = st.sampled_from(
    [
        "[params]", "[protocol]", "[adversary]", "[run]", "[node A]", "[node C]", "[node  A]",
        "[node]", "[node A!]", "[link A <-> B]", "[link B -> A]", "[link A -> C]", "[link A B]",
        "[lnk A <-> B]", "[DEFAULT]", "[Params]", "[run] x", "[params",
    ]
)
_KEYS = st.sampled_from(
    "v v_adv nd_range delta_relay msg_duration_default x y type up name delta tau horizon".split()
    + ["delta_rlay", "X", "", "name name"]
)
_VALUES = st.sampled_from(
    [
        "0", "1", "-1", "1/3", "2/4", "3/0", "8", "1e3", "1e999999999", "0:inf", "0:5, 6:8",
        "5:4", "0", "inf", "pt", "pgt", "pgt-approx", "naive", "relay", "dy-gt", "correct",
        "adversarial", "1 ; note", "a = b",
    ]
) | st.text(max_size=8)
_SCENARIO_LINES = st.one_of(
    _SECTION_LINES,
    st.builds(
        lambda key, sep, value: f"{key}{sep}{value}",
        _KEYS,
        st.sampled_from([" = ", "=", " =", "  =  "]),
        _VALUES,
    ),
    st.builds(lambda pad, line: pad + line, st.sampled_from([" ", "\t"]), _KEYS | _VALUES),
    st.sampled_from(["", "# note", "; note", "  # indented note", "   "]),
    st.text(max_size=12),
)


@st.composite
def _messy_scenarios(draw):
    """MINIMAL with a few lines replaced, dropped or added."""
    lines = MINIMAL.split("\n")
    for i in draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines[i:i + draw(st.integers(0, 1))] = draw(st.lists(_SCENARIO_LINES, max_size=2))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scenario-fuzz")


@settings(max_examples=300, deadline=None)
@given(_messy_scenarios())
def test_any_scenario_text_exits_1_with_one_message_or_round_trips(fuzz_dir, text):
    scn, trc = fuzz_dir / "case.scn", fuzz_dir / "case.trc"
    scn.write_bytes(text.encode("utf-8", "surrogatepass"))
    trc.write_text("")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(scn), str(trc)])
    try:
        scenario = parse_scenario(scn.read_text(encoding="utf-8"))
    except (ScenarioError, UnicodeDecodeError):
        assert code == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in out.getvalue()
        return
    assert code == 0, err.getvalue()
    dumped = dump_scenario(scenario)
    assert parse_scenario(dumped) == scenario
    assert dump_scenario(parse_scenario(dumped)) == dumped


# starts that round to one float but differ as fractions, and their neighbors
_CLOSE_STARTS = [F(1, 3), F(1, 3) + F(1, 10**30), F(1, 3) - F(1, 10**30), F(0), F(1, 10**30), F(2)]


def _reference_order(events):
    """Canonical order by the exact key alone, no float."""
    return tuple(sorted(set(events), key=lambda e: (e.start, e.sort_key())))


@settings(max_examples=150)
@given(
    st.lists(
        st.one_of(
            _any_events,
            st.builds(Bcast, _names, st.sampled_from(_CLOSE_STARTS), _messages),
            st.builds(Neighbor, _names, st.sampled_from(_CLOSE_STARTS), _names, _starts),
        ),
        max_size=12,
    ),
    st.randoms(use_true_random=False),
)
def test_trace_order_matches_exact_sort_however_built(events, rnd):
    assert float(_CLOSE_STARTS[0]) == float(_CLOSE_STARTS[1]) == float(_CLOSE_STARTS[2])
    expected = _reference_order(events)
    shuffled = list(events)
    rnd.shuffle(shuffled)
    whole = Trace(shuffled)
    assert whole.events == expected
    # a subset of another trace's events, whose keys that trace already worked out
    subset = [e for e in whole if rnd.random() < 0.5]
    assert Trace(reversed(subset)).events == _reference_order(subset)
    # a union of two overlapping traces, and a trace of the events both hold
    third = len(events) // 3
    first, second = Trace(events[: 2 * third + 1]), Trace(events[third:])
    assert first.union(second.events).events == expected
    shared = [e for e in second if e in first]
    assert Trace(shared).events == _reference_order(shared)
    # equal events built apart, one with its key kept, one without
    copies = [type(e)(*[getattr(e, f) for f in e.__dataclass_fields__]) for e in shuffled]
    assert Trace(copies + list(whole)).events == expected
