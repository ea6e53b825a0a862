"""Scenario and trace files.

A scenario is a file of sections of "key = value" lines declaring the
system parameters, the nodes with their exact rational coordinates and
types, the directed link schedule, the protocol, the adversary model,
and a run horizon:

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

    [link A <-> B]
    up = 0:inf

    [protocol]
    # delta and tau are pgt-approx's keys
    name = pgt-approx
    delta = 1/100
    tau = 0

    [adversary]
    name = relay

    [run]
    horizon = 100

The grammar is closed, and one table (``_SECTIONS``) drives reading and
writing.  A line is a "[section]" header, a "key = value" pair, a
comment (a whole line whose first non-blank character is "#" or ";")
or blank; nothing follows a value on its line, and only blank and
comment lines may be indented, so there are no continuation lines.
[params], [protocol], [adversary] and [run] appear once each, [node ID]
and [link ...] any number of times, and each takes only its table's
keys; [protocol] takes the keys of its protocol's table entry
(``ProtocolSpec.keys``: delta and tau for pgt-approx).  Any other line,
an unknown section or key, or a repeated key or single section raises
one ScenarioError "line N: ..." that quotes at most 64 characters of the
line (``rational.echo``); a well-formed file with wrong values raises
one naming its section and key.

Rationals are written as "p/q" or integers (decimals and scientific
notation are accepted on input; a scalar longer than
``rational.MAX_SCALAR_LENGTH``, 1000 characters, or with an exponent
beyond ``rational.MAX_SCALAR_EXPONENT``, 1000, in magnitude is rejected
before any number is built).  Link phases are half-open "start:end"
intervals, comma separated, with "inf" for an open end; "A <-> B"
declares both directions, and undeclared links are down.  The adversary
section may carry its own delta_relay to override the shared parameter.

A trace file holds one event per line in canonical order:

    bcast B 0 beacon-t:B:0:1
    receive A 8 B beacon-t:B:0:1
    dcast C 6 3/2 1 opaque:tok:1
    neighbor A 10 B 8

A line is the event kind, then the event's fields in declaration order,
separated by spaces; a message is its tag, then its fields in
declaration order, joined by ":" (a location is "x,y").  So messages are
"opaque:TOKEN:DUR", "beacon-t:CREATOR:TIME:DUR" or
"beacon-tl:CREATOR:TIME:X,Y:DUR", and directional casts carry direction
and angle in units of pi.  Writing a parsed file back is byte-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import getitem
from typing import Optional

from .adversary import ADVERSARY_NAMES, AdversaryModel
from .core import (
    ADVERSARIAL,
    Bcast,
    BeaconT,
    BeaconTL,
    CORRECT,
    Dcast,
    Event,
    Interval,
    Message,
    Neighbor,
    NodeId,
    Opaque,
    Point,
    Receive,
    Setting,
    SystemParams,
    Trace,
    _Memo,
    _normalize_intervals,
    first_irrational_pair,
)
from .protocols import InaccuracyParams, PROTOCOL_NAMES, PROTOCOLS
from .rational import MAX_ECHO_LENGTH, echo, format_scalar, parse_scalar


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario/trace input."""


_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


@dataclass(frozen=True)
class Scenario:
    params: SystemParams
    setting: Setting
    protocol: str
    adversary: AdversaryModel
    inaccuracy: Optional[InaccuracyParams]
    horizon: Fraction


def _check_name(name: str, what: str = "node id") -> str:
    if not _NAME_RE.match(name):
        raise ScenarioError(f"invalid {what} {echo(name)}: use [A-Za-z0-9_.-] only")
    return name


def _header(section: str) -> str:
    """A section's header for an error message, cut as ``rational.echo``
    cuts a token when it is over-long."""
    header = f"[{section}]"
    return header if len(header) <= MAX_ECHO_LENGTH else echo(header)


def _scalar(section: str, key: str, text: str) -> Fraction:
    try:
        return parse_scalar(text)
    except ValueError as exc:
        raise ScenarioError(f"{_header(section)} {key}: {exc}") from None


def _parse_intervals(section: str, text: str) -> tuple[Interval, ...]:
    intervals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ScenarioError(f"{_header(section)} up: interval {echo(part)} is not start:end")
        lo, hi = part.split(":", 1)
        start = _scalar(section, "up", lo)
        end = None if hi.strip() == "inf" else _scalar(section, "up", hi)
        intervals.append((start, end))
    try:
        return _normalize_intervals(intervals)
    except ValueError as exc:
        raise ScenarioError(f"{_header(section)} up: {exc}") from None


# ---------------------------------------------------------------------------
# scenario files
#
# One table names every section kind and the keys it may hold, in the
# order dump_scenario writes them; the reader accepts nothing else.  A
# "node" or "link" header carries an argument, and a file may hold many
# such sections; every other kind stands alone and once.  The [protocol]
# section may hold any protocol's keys; which of them its protocol takes
# is checked once its name is known (ProtocolSpec.keys).

_SECTIONS: dict[str, tuple[str, ...]] = {
    "params": tuple(f.name for f in fields(SystemParams)),
    "node": ("x", "y", "type"),
    "link": ("up",),
    "protocol": ("name", *dict.fromkeys(k for spec in PROTOCOLS.values() for k in spec.keys)),
    "adversary": ("name", "delta_relay"),
    "run": ("horizon",),
}
_NAMED = ("node", "link")

# a section's keys: key -> (line number, value text)
_Body = dict[str, tuple[int, str]]


def _read_sections(text: str) -> list[tuple[str, str, _Body]]:
    """Each section of a scenario's text, in file order, as (kind, header, body).

    A line is blank, a comment (its first non-blank character is "#"
    or ";"), a "[header]" or "key = value", and none but a blank or a
    comment may be indented, so there are no continuation lines.  A
    line that breaks this, or names a section kind or key the table
    does not list, or repeats a key or a single section, raises one
    ScenarioError "line N: ..." that echoes at most a bounded prefix of
    the line (``rational.echo``).
    """
    sections: list[tuple[str, str, _Body]] = []
    seen: set[str] = set()
    kind, keys, body = "", (), None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        if line[0] != stripped[0]:
            raise ScenarioError(f"line {lineno}: indented line {echo(stripped)}")
        if stripped[0] == "[" and stripped[-1] == "]":
            header = stripped[1:-1]
            kind, _, argument = header.partition(" ")
            if kind not in _SECTIONS or (kind in _NAMED) != bool(argument.strip()):
                raise ScenarioError(f"line {lineno}: unknown section {echo(stripped)}")
            if kind not in _NAMED:
                if kind in seen:
                    raise ScenarioError(f"line {lineno}: repeated section {echo(stripped)}")
                seen.add(kind)
            keys, body = _SECTIONS[kind], {}
            sections.append((kind, header, body))
            continue
        key, equals, value = stripped.partition("=")
        key = key.rstrip()
        if not equals:
            raise ScenarioError(
                f"line {lineno}: expected [section], key = value or a comment, got {echo(stripped)}"
            )
        if body is None:
            raise ScenarioError(f"line {lineno}: key {echo(key)} before any section")
        if key not in keys:
            raise ScenarioError(f"line {lineno}: unknown {kind} key {echo(key)}")
        if key in body:
            raise ScenarioError(f"line {lineno}: repeated {kind} key {echo(key)}")
        body[key] = (lineno, value.strip())
    return sections


def _value(body: _Body, key: str) -> str:
    """A key's value text; an absent key reads as empty."""
    return body.get(key, (0, ""))[1]


def parse_scenario(text: str, exact: bool = True) -> Scenario:
    """Parse and validate a scenario; with exact=True every pairwise node
    distance must be rational."""
    sections = _read_sections(text)
    single = {kind: body for kind, _, body in sections if kind not in _NAMED}
    for required in _SECTIONS:
        if required not in _NAMED and required not in single:
            raise ScenarioError(f"missing [{required}] section")

    p = single["params"]
    values = {key: _scalar("params", key, _value(p, key)) for key in _SECTIONS["params"]}
    try:
        params = SystemParams(**values)
    except ValueError as exc:
        raise ScenarioError(f"[params]: {exc}") from None

    locs: dict[NodeId, tuple[Fraction, Fraction]] = {}
    types: dict[NodeId, str] = {}
    links: dict[tuple[NodeId, NodeId], tuple[Interval, ...]] = {}
    # links mostly share a few phase texts: each distinct one is read once
    phases: dict[str, tuple[Interval, ...]] = {}
    for kind, section, body in sections:
        if kind == "node":
            node = _check_name(section[5:].strip(), "node id")
            if node in locs:
                raise ScenarioError(f"duplicate node {echo(node)}")
            locs[node] = (
                _scalar(section, "x", _value(body, "x")),
                _scalar(section, "y", _value(body, "y")),
            )
            node_type = _value(body, "type")
            if node_type not in (CORRECT, ADVERSARIAL):
                raise ScenarioError(f"{_header(section)} type must be correct or adversarial")
            types[node] = node_type
        elif kind == "link":
            endpoints = section[5:].strip()
            both = "<->" in endpoints
            arrow = "<->" if both else "->"
            if arrow not in endpoints:
                raise ScenarioError(f"{_header(section)}: expected 'A -> B' or 'A <-> B'")
            left, right = (part.strip() for part in endpoints.split(arrow, 1))
            _check_name(left, "node id")
            _check_name(right, "node id")
            if left == right:
                raise ScenarioError(
                    f"{_header(section)}: self-links are implicit and may not be declared"
                )
            up = _value(body, "up")
            intervals = phases.get(up)
            if intervals is None:
                intervals = phases[up] = _parse_intervals(section, up)
            for pair in ((left, right), (right, left)) if both else ((left, right),):
                if pair in links:
                    a, b = map(echo, pair)
                    raise ScenarioError(f"duplicate link declaration ({a}, {b})")
                links[pair] = intervals

    if not locs:
        raise ScenarioError("no nodes declared")
    for (a, b) in links:
        for node in (a, b):
            if node not in locs:
                raise ScenarioError(f"link references undeclared node {echo(node)}")
    try:
        setting = Setting(tuple(locs), locs, types, links)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    if exact:
        pair = first_irrational_pair(setting)
        if pair is not None:
            a, b = pair
            raise ScenarioError(
                f"distance between {echo(a)} and {echo(b)} is irrational; "
                "exact mode needs rational pairwise distances"
            )

    body = single["protocol"]
    protocol = _value(body, "name")
    spec = PROTOCOLS.get(protocol)
    if spec is None:
        raise ScenarioError(f"[protocol] name must be one of {PROTOCOL_NAMES}")
    for key, (lineno, _) in body.items():
        if key != "name" and key not in spec.keys:
            raise ScenarioError(f"line {lineno}: protocol {protocol} takes no key {echo(key)}")
    inaccuracy = None
    if spec.keys:
        if any(key not in body for key in spec.keys):
            raise ScenarioError(f"[protocol] {protocol} requires {' and '.join(spec.keys)} keys")
        slack = {key: _scalar("protocol", key, _value(body, key)) for key in spec.keys}
        try:
            inaccuracy = InaccuracyParams(**slack)
        except ValueError as exc:
            raise ScenarioError(f"[protocol]: {exc}") from None

    adv = single["adversary"]
    adv_name = _value(adv, "name")
    if adv_name not in ADVERSARY_NAMES:
        raise ScenarioError(f"[adversary] name must be one of {ADVERSARY_NAMES}")
    adv_delta = (
        _scalar("adversary", "delta_relay", _value(adv, "delta_relay"))
        if "delta_relay" in adv
        else params.delta_relay
    )
    try:
        adversary = AdversaryModel(adv_name, adv_delta)
    except ValueError as exc:
        raise ScenarioError(f"[adversary]: {exc}") from None

    horizon = _scalar("run", "horizon", _value(single["run"], "horizon"))
    if horizon <= 0:
        raise ScenarioError("[run] horizon must be > 0")

    return Scenario(params, setting, protocol, adversary, inaccuracy, horizon)


def dump_scenario(scenario: Scenario) -> str:
    """Canonical scenario rendering; parse(dump(s)) == s and dump is stable.

    Each section writes the keys it has values for, in the table's order.
    """
    params, setting = scenario.params, scenario.setting
    values = {key: format_scalar(getattr(params, key)) for key in _SECTIONS["params"]}
    sections = [("params", values)]
    for node in setting.nodes:
        x, y = setting.loc[node]
        values = {"x": format_scalar(x), "y": format_scalar(y), "type": setting.node_type[node]}
        sections.append((f"node {node}", values))
    for (a, b) in sorted(setting.link_schedule):
        phases = ", ".join(
            f"{format_scalar(start)}:{'inf' if end is None else format_scalar(end)}"
            for start, end in setting.link_schedule[(a, b)]
        )
        sections.append((f"link {a} -> {b}", {"up": phases}))
    protocol = {"name": scenario.protocol}
    slack = scenario.inaccuracy or InaccuracyParams()
    for key in PROTOCOLS[scenario.protocol].keys:
        protocol[key] = format_scalar(getattr(slack, key))
    adversary = {"name": scenario.adversary.kind}
    if scenario.adversary.delta_relay != params.delta_relay:
        adversary["delta_relay"] = format_scalar(scenario.adversary.delta_relay)
    sections += [
        ("protocol", protocol),
        ("adversary", adversary),
        ("run", {"horizon": format_scalar(scenario.horizon)}),
    ]
    return "\n".join(
        f"[{header}]\n"
        + "".join(
            f"{key} = {values[key]}\n"
            for key in _SECTIONS[header.partition(" ")[0]]
            if key in values
        )
        for header, values in sections
    )


# ---------------------------------------------------------------------------
# trace files
#
# Each layout maps a tag to its class and to one codec per dataclass field,
# in declaration order; a codec is a (read, write) pair.  Reading and
# writing both walk the same layout, so they cannot disagree.


def _parse_point(text: str) -> Point:
    x_text, _, y_text = text.partition(",")
    if not y_text:
        raise ValueError("location must be x,y")
    return (parse_scalar(x_text), parse_scalar(y_text))


_NODE = (_check_name, str)
_TOKEN = (lambda text: _check_name(text, "token"), str)
_SCALAR = (parse_scalar, format_scalar)
_POINT = (_parse_point, lambda p: f"{format_scalar(p[0])},{format_scalar(p[1])}")

_MESSAGES = {
    "opaque": (Opaque, (_TOKEN, _SCALAR)),
    "beacon-t": (BeaconT, (_NODE, _SCALAR, _SCALAR)),
    "beacon-tl": (BeaconTL, (_NODE, _SCALAR, _POINT, _SCALAR)),
}


def _index(layouts: dict) -> tuple[dict, dict]:
    """Readers by tag and writers by class for one layout table."""
    readers, writers = {}, {}
    for tag, (cls, codecs) in layouts.items():
        names = [f.name for f in fields(cls)]
        assert len(codecs) == len(names), cls
        readers[tag] = (cls, tuple(read for read, _ in codecs))
        writers[cls] = (tag, tuple((name, write) for name, (_, write) in zip(names, codecs)))
    return readers, writers


def _format(obj, writers: dict, sep: str) -> str:
    tag, named_writes = writers[type(obj)]
    return sep.join([tag] + [write(getattr(obj, name)) for name, write in named_writes])


_MESSAGE_READERS, _MESSAGE_WRITERS = _index(_MESSAGES)


def _parse_message(text: str) -> Message:
    tag, *parts = text.split(":")
    cls, reads = _MESSAGE_READERS.get(tag, (None, ()))
    if cls is None or len(parts) != len(reads):
        raise ValueError(f"unknown message form {echo(text)}")
    try:
        return cls(*[read(part) for read, part in zip(reads, parts)])
    except ValueError as exc:
        raise ValueError(f"bad message {echo(text)}: {exc}") from None


_MESSAGE = (_parse_message, lambda msg: _format(msg, _MESSAGE_WRITERS, ":"))

_EVENTS = {
    "bcast": (Bcast, (_NODE, _SCALAR, _MESSAGE)),
    "dcast": (Dcast, (_NODE, _SCALAR, _SCALAR, _SCALAR, _MESSAGE)),
    "receive": (Receive, (_NODE, _SCALAR, _NODE, _MESSAGE)),
    "neighbor": (Neighbor, (_NODE, _SCALAR, _NODE, _SCALAR)),
}
_EVENT_READERS, _EVENT_WRITERS = _index(_EVENTS)


def dump_trace(trace: Trace) -> str:
    return "".join(_format(e, _EVENT_WRITERS, " ") + "\n" for e in trace)


def parse_trace(text: str) -> Trace:
    """Read a trace file's text; a malformed line raises ScenarioError naming it.

    Each line is split at whitespace once; a line with no fields, or
    whose first field starts with "#", is skipped, so blank and comment
    lines may be indented.  The first field names the event kind, and
    the rest are its fields.  A line repeated in the file (or one that
    reads as an event read before) gives one event, since ``Trace``
    keeps each event once.

    Each distinct field text is read once per call: each field reader
    has its own memo, a dict from text to the value read (``_Memo``),
    and each event kind's memos are looked up once per call, so a field
    costs one dict lookup by its text.  Identical texts (a beacon's
    message in each of its receptions, a start shared by several events)
    share one parsed value, and comparing them stops at the identity
    check.  The memos live for the call only and hold one value per
    distinct field text of this input; a text that fails to read is
    never stored, so it fails again with the same message.
    """
    memos = {read: _Memo(read) for _, reads in _EVENT_READERS.values() for read in reads}
    layouts = {k: (cls, [memos[r] for r in reads]) for k, (cls, reads) in _EVENT_READERS.items()}
    events: list[Event] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        cls, field_memos = layouts.get(parts[0], (None, ()))
        try:
            if cls is None or len(parts) - 1 != len(field_memos):
                raise ValueError(f"unrecognized event {echo(line.strip())}")
            events.append(cls(*map(getitem, field_memos, parts[1:])))
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
    return Trace(events)


def load_scenario(path, exact: bool = True) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read(), exact)


def load_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_trace(handle.read())


def save_scenario(path, scenario: Scenario) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_scenario(scenario))


def save_trace(path, trace: Trace) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_trace(trace))
