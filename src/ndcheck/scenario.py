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
notation are accepted on input; an exponent beyond
``rational.MAX_SCALAR_EXPONENT``, 1000, in magnitude is rejected before
any number is built).  Link phases are half-open "start:end" intervals, comma
separated, with "inf" for an open end; "A <-> B" declares both
directions, and undeclared links are down.  The adversary section may
carry its own delta_relay to override the shared parameter.

A trace file holds one event per line in canonical order:

    bcast B 0 beacon-t:B:0:1
    receive A 8 B beacon-t:B:0:1
    dcast C 6 3/2 1 opaque:tok:1
    neighbor A 10 B 8

Messages are "opaque:TOKEN:DUR", "beacon-t:CREATOR:TIME:DUR" or
"beacon-tl:CREATOR:TIME:X,Y:DUR"; directional casts carry direction and
angle in units of pi.  Writing a parsed file back is byte-identical.
"""

from __future__ import annotations

import configparser
import io
import re
from dataclasses import dataclass
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


def _check_name(name: str, what: str) -> str:
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
    try:
        params = SystemParams(
            v=_scalar("params", "v", p.get("v", "")),
            v_adv=_scalar("params", "v_adv", p.get("v_adv", "")),
            nd_range=_scalar("params", "nd_range", p.get("nd_range", "")),
            delta_relay=_scalar("params", "delta_relay", p.get("delta_relay", "")),
            msg_duration_default=_scalar(
                "params", "msg_duration_default", p.get("msg_duration_default", "")
            ),
        )
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
    p = scenario.params
    out.write("[params]\n")
    for key, value in (
        ("v", p.v),
        ("v_adv", p.v_adv),
        ("nd_range", p.nd_range),
        ("delta_relay", p.delta_relay),
        ("msg_duration_default", p.msg_duration_default),
    ):
        out.write(f"{key} = {format_scalar(value)}\n")
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


def _format_message(msg: Message) -> str:
    if isinstance(msg, Opaque):
        return f"opaque:{msg.token}:{format_scalar(msg.duration)}"
    if isinstance(msg, BeaconT):
        return (
            f"beacon-t:{msg.creator}:{format_scalar(msg.beacon_time)}"
            f":{format_scalar(msg.duration)}"
        )
    if isinstance(msg, BeaconTL):
        x, y = msg.beacon_loc
        return (
            f"beacon-tl:{msg.creator}:{format_scalar(msg.beacon_time)}"
            f":{format_scalar(x)},{format_scalar(y)}:{format_scalar(msg.duration)}"
        )
    raise TypeError(f"unknown message {msg!r}")


def _parse_message(text: str, where: str) -> Message:
    parts = text.split(":")
    try:
        if parts[0] == "opaque" and len(parts) == 3:
            return Opaque(_check_name(parts[1], "token"), parse_scalar(parts[2]))
        if parts[0] == "beacon-t" and len(parts) == 4:
            return BeaconT(
                _check_name(parts[1], "node id"),
                parse_scalar(parts[2]),
                parse_scalar(parts[3]),
            )
        if parts[0] == "beacon-tl" and len(parts) == 5:
            x_text, _, y_text = parts[3].partition(",")
            if not y_text:
                raise ValueError("location must be x,y")
            loc = (parse_scalar(x_text), parse_scalar(y_text))
            return BeaconTL(
                _check_name(parts[1], "node id"),
                parse_scalar(parts[2]),
                loc,
                parse_scalar(parts[4]),
            )
    except ValueError as exc:
        raise ScenarioError(f"{where}: bad message {text!r}: {exc}") from None
    raise ScenarioError(f"{where}: unknown message form {text!r}")


def dump_trace(trace: Trace) -> str:
    lines = []
    for e in trace:
        if isinstance(e, Bcast):
            lines.append(
                f"bcast {e.actor} {format_scalar(e.start)} {_format_message(e.msg)}"
            )
        elif isinstance(e, Dcast):
            lines.append(
                f"dcast {e.actor} {format_scalar(e.start)} "
                f"{format_scalar(e.direction)} {format_scalar(e.angle)} "
                f"{_format_message(e.msg)}"
            )
        elif isinstance(e, Receive):
            lines.append(
                f"receive {e.actor} {format_scalar(e.start)} {e.sender} "
                f"{_format_message(e.msg)}"
            )
        elif isinstance(e, Neighbor):
            lines.append(
                f"neighbor {e.actor} {format_scalar(e.start)} {e.peer} "
                f"{format_scalar(e.peer_time)}"
            )
    return "".join(line + "\n" for line in lines)


def parse_trace(text: str) -> Trace:
    events: list[Event] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"line {lineno}"
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "bcast" and len(fields) == 4:
                events.append(
                    Bcast(
                        _check_name(fields[1], "node id"),
                        parse_scalar(fields[2]),
                        _parse_message(fields[3], where),
                    )
                )
            elif kind == "dcast" and len(fields) == 6:
                events.append(
                    Dcast(
                        _check_name(fields[1], "node id"),
                        parse_scalar(fields[2]),
                        parse_scalar(fields[3]),
                        parse_scalar(fields[4]),
                        _parse_message(fields[5], where),
                    )
                )
            elif kind == "receive" and len(fields) == 5:
                events.append(
                    Receive(
                        _check_name(fields[1], "node id"),
                        parse_scalar(fields[2]),
                        _check_name(fields[3], "node id"),
                        _parse_message(fields[4], where),
                    )
                )
            elif kind == "neighbor" and len(fields) == 5:
                events.append(
                    Neighbor(
                        _check_name(fields[1], "node id"),
                        parse_scalar(fields[2]),
                        _check_name(fields[3], "node id"),
                        parse_scalar(fields[4]),
                    )
                )
            else:
                raise ScenarioError(f"{where}: unrecognized event {line!r}")
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
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
