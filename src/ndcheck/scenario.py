"""Scenario and trace files.

A scenario is an INI-style key-value file declaring the system
parameters, the nodes with their exact rational coordinates and types,
the directed link schedule, the protocol, the adversary model, and a
run horizon:

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
    name = pgt-approx
    delta = 1/100
    tau = 0

    [adversary]
    name = relay

    [run]
    horizon = 100

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

import configparser
import io
import re
from dataclasses import dataclass, fields
from fractions import Fraction
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
    sq_dist,
)
from .protocols import InaccuracyParams, PGT_APPROX, PROTOCOL_NAMES, PROTOCOLS
from .rational import format_scalar, is_rational_square, parse_scalar


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
        raise ScenarioError(f"invalid {what} {name!r}: use [A-Za-z0-9_.-] only")
    return name


def _scalar(section: str, key: str, text: str) -> Fraction:
    try:
        return parse_scalar(text)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key}: {exc}") from None


def _parse_intervals(section: str, text: str) -> tuple[Interval, ...]:
    intervals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ScenarioError(f"[{section}] up: interval {part!r} is not start:end")
        lo, hi = part.split(":", 1)
        start = _scalar(section, "up", lo)
        end = None if hi.strip() == "inf" else _scalar(section, "up", hi)
        intervals.append((start, end))
    return tuple(intervals)


def parse_scenario(text: str, exact: bool = True) -> Scenario:
    """Parse and validate a scenario; with exact=True every pairwise node
    distance must be rational."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from None

    sections = set(parser.sections())
    for required in ("params", "protocol", "adversary", "run"):
        if required not in sections:
            raise ScenarioError(f"missing [{required}] section")

    p = parser["params"]
    values = {f.name: _scalar("params", f.name, p.get(f.name, "")) for f in fields(SystemParams)}
    try:
        params = SystemParams(**values)
    except ValueError as exc:
        raise ScenarioError(f"[params]: {exc}") from None

    locs: dict[NodeId, tuple[Fraction, Fraction]] = {}
    types: dict[NodeId, str] = {}
    links: dict[tuple[NodeId, NodeId], tuple[Interval, ...]] = {}
    for section in parser.sections():
        if section.startswith("node "):
            node = _check_name(section[5:].strip(), "node id")
            if node in locs:
                raise ScenarioError(f"duplicate node {node!r}")
            body = parser[section]
            locs[node] = (
                _scalar(section, "x", body.get("x", "")),
                _scalar(section, "y", body.get("y", "")),
            )
            node_type = body.get("type", "").strip()
            if node_type not in (CORRECT, ADVERSARIAL):
                raise ScenarioError(f"[{section}] type must be correct or adversarial")
            types[node] = node_type
        elif section.startswith("link "):
            endpoints = section[5:].strip()
            both = "<->" in endpoints
            arrow = "<->" if both else "->"
            if arrow not in endpoints:
                raise ScenarioError(f"[{section}]: expected 'A -> B' or 'A <-> B'")
            left, right = (part.strip() for part in endpoints.split(arrow, 1))
            _check_name(left, "node id")
            _check_name(right, "node id")
            intervals = _parse_intervals(section, parser[section].get("up", ""))
            for pair in ((left, right), (right, left)) if both else ((left, right),):
                if pair in links:
                    raise ScenarioError(f"duplicate link declaration {pair}")
                links[pair] = intervals

    if not locs:
        raise ScenarioError("no nodes declared")
    for (a, b) in links:
        for node in (a, b):
            if node not in locs:
                raise ScenarioError(f"link references undeclared node {node!r}")
    try:
        setting = Setting(tuple(locs), locs, types, links)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    if exact:
        nodes = setting.nodes
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if not is_rational_square(sq_dist(setting.loc[a], setting.loc[b])):
                    raise ScenarioError(
                        f"distance between {a!r} and {b!r} is irrational; "
                        "exact mode needs rational pairwise distances"
                    )

    protocol = parser["protocol"].get("name", "").strip()
    if protocol not in PROTOCOLS:
        raise ScenarioError(f"[protocol] name must be one of {PROTOCOL_NAMES}")
    inaccuracy = None
    if protocol == PGT_APPROX:
        body = parser["protocol"]
        if "delta" not in body or "tau" not in body:
            raise ScenarioError("[protocol] pgt-approx requires delta and tau keys")
        try:
            inaccuracy = InaccuracyParams(
                delta=_scalar("protocol", "delta", body["delta"]),
                tau=_scalar("protocol", "tau", body["tau"]),
            )
        except ValueError as exc:
            raise ScenarioError(f"[protocol]: {exc}") from None

    adv = parser["adversary"]
    adv_name = adv.get("name", "").strip()
    if adv_name not in ADVERSARY_NAMES:
        raise ScenarioError(f"[adversary] name must be one of {ADVERSARY_NAMES}")
    adv_delta = (
        _scalar("adversary", "delta_relay", adv["delta_relay"])
        if "delta_relay" in adv
        else params.delta_relay
    )
    try:
        adversary = AdversaryModel(adv_name, adv_delta)
    except ValueError as exc:
        raise ScenarioError(f"[adversary]: {exc}") from None

    horizon = _scalar("run", "horizon", parser["run"].get("horizon", ""))
    if horizon <= 0:
        raise ScenarioError("[run] horizon must be > 0")

    return Scenario(params, setting, protocol, adversary, inaccuracy, horizon)


def dump_scenario(scenario: Scenario) -> str:
    """Canonical scenario rendering; parse(dump(s)) == s and dump is stable."""
    out = io.StringIO()
    out.write("[params]\n")
    for f in fields(SystemParams):
        out.write(f"{f.name} = {format_scalar(getattr(scenario.params, f.name))}\n")
    for node in scenario.setting.nodes:
        x, y = scenario.setting.loc[node]
        out.write(f"\n[node {node}]\n")
        out.write(f"x = {format_scalar(x)}\n")
        out.write(f"y = {format_scalar(y)}\n")
        out.write(f"type = {scenario.setting.node_type[node]}\n")
    for (a, b) in sorted(scenario.setting.link_schedule):
        phases = ", ".join(
            f"{format_scalar(start)}:{'inf' if end is None else format_scalar(end)}"
            for start, end in scenario.setting.link_schedule[(a, b)]
        )
        out.write(f"\n[link {a} -> {b}]\n")
        out.write(f"up = {phases}\n")
    out.write(f"\n[protocol]\nname = {scenario.protocol}\n")
    if scenario.protocol == PGT_APPROX:
        ia = scenario.inaccuracy or InaccuracyParams()
        out.write(f"delta = {format_scalar(ia.delta)}\n")
        out.write(f"tau = {format_scalar(ia.tau)}\n")
    out.write(f"\n[adversary]\nname = {scenario.adversary.kind}\n")
    if scenario.adversary.delta_relay != scenario.params.delta_relay:
        out.write(f"delta_relay = {format_scalar(scenario.adversary.delta_relay)}\n")
    out.write(f"\n[run]\nhorizon = {format_scalar(scenario.horizon)}\n")
    return out.getvalue()


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
        raise ValueError(f"unknown message form {text!r}")
    try:
        return cls(*[read(part) for read, part in zip(reads, parts)])
    except ValueError as exc:
        raise ValueError(f"bad message {text!r}: {exc}") from None


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
    events: list[Event] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *parts = line.split()
        cls, reads = _EVENT_READERS.get(kind, (None, ()))
        try:
            if cls is None or len(parts) != len(reads):
                raise ValueError(f"unrecognized event {line!r}")
            events.append(cls(*[read(part) for read, part in zip(reads, parts)]))
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
