"""Inputs and expected verdicts for the check-large workload, made without ndcheck.

Every setting places its nodes on one line through the origin whose unit
vector has rational components, so every pairwise distance is the exact
difference of two rational line coordinates and every flight time is
rational.  Receptions, declarations, false-neighbor counts and the
rules a mutated trace must break are all derived here from that
geometry and the link schedule, then written as .scn/.trc text.
Nothing in this module imports the program under test.

Sector coverage is decided on angles, not on the cross products the
program uses.  Node bearings along an axis-aligned line are exact
quarter turns and are compared exactly with rational sector rays.
Bearings along a slanted line are irrational; there the benchmark only
uses rays at least MIN_RAY_GAP (in units of pi) away, which a float
comparison decides without doubt.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction as F
from typing import Optional, Union

# unit vectors with rational components: axis-aligned and Pythagorean
LINES = (
    (F(1), F(0)),
    (F(3, 5), F(4, 5)),
    (F(0), F(1)),
    (F(-5, 13), F(12, 13)),
)

# directional sectors (direction, angle) in units of pi; the first half
# have quarter-turn rays, the second half do not
SECTORS = (
    (F(0), F(1, 2)),
    (F(3, 2), F(1)),
    (F(1), F(1, 2)),
    (F(1, 2), F(1)),
    (F(0), F(2)),
    (F(1, 2), F(3, 2)),
    (F(1, 3), F(1)),
    (F(1, 6), F(2, 3)),
    (F(5, 6), F(5, 4)),
    (F(7, 12), F(1, 2)),
    (F(11, 6), F(1, 3)),
    (F(4, 3), F(1, 6)),
)

MIN_RAY_GAP = 0.05
TICK = F(1, 64)

Angle = Union[F, float]


def fmt(x: F) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# settings


@dataclass
class Net:
    """A setting on a line: node i sits at coordinate pos[i] along `unit`."""

    protocol: str
    names: tuple[str, ...]
    pos: dict[str, F]
    unit: tuple[F, F]
    adversarial: frozenset[str]
    links: dict[tuple[str, str], tuple[tuple[F, Optional[F]], ...]]
    v: F = F(1)
    v_adv: F = F(1)
    nd_range: F = F(35)
    delta_relay: F = F(4)
    dur: F = F(1, 2)
    window: tuple[F, F] = (F(0), F(0))  # pgt-approx (delta, tau)
    horizon: F = F(100)
    reach: dict[str, tuple[str, ...]] = field(init=False)

    def __post_init__(self) -> None:
        # every node a transmission of `node` can reach: itself and its out-links
        self.reach = {n: (n,) for n in self.names}
        for a, b in sorted(self.links):
            self.reach[a] += (b,)

    def loc(self, node: str) -> tuple[F, F]:
        t = self.pos[node]
        return (t * self.unit[0], t * self.unit[1])

    def dist(self, a: str, b: str) -> F:
        return abs(self.pos[a] - self.pos[b])

    def correct(self, node: str) -> bool:
        return node not in self.adversarial

    def link_up_over(self, a: str, b: str, t0: F, t1: F) -> bool:
        """Directed link a->b up at every instant of the closed window [t0, t1]."""
        if a == b:
            return True
        return any(
            s <= t0 and (e is None or t1 < e) for s, e in self.links.get((a, b), ())
        )

    def bearing(self, a: str, b: str) -> Angle:
        """Direction from a to b in units of pi, in [0, 2)."""
        ux, uy = self.unit
        if ux == 0 or uy == 0:
            base = {(1, 0): F(0), (0, 1): F(1, 2), (-1, 0): F(1), (0, -1): F(3, 2)}[
                (int(ux), int(uy))
            ]
        else:
            base = (math.atan2(float(uy), float(ux)) / math.pi) % 2.0
        return base if self.pos[b] > self.pos[a] else (base + 1) % 2

    def covers(self, a: str, direction: F, angle: F, b: str) -> bool:
        """Closed-sector coverage of b by a cast from a."""
        if a == b or angle >= 2:
            return True
        phi = self.bearing(a, b)
        if isinstance(phi, float):
            for ray in (direction, direction + angle):
                gap = abs((phi - float(ray) + 1.0) % 2.0 - 1.0)
                if gap < MIN_RAY_GAP:
                    raise ValueError("node too close to a non-exact sector ray")
            return (phi - float(direction)) % 2.0 <= float(angle)
        return (phi - direction) % 2 <= angle


SPACING = F(10)
LINK_HOPS = 2


def line_net(rng: random.Random, protocol: str, n: int, line: tuple[F, F]) -> Net:
    """n nodes SPACING apart along a line, every fifth one adversarial.

    Each node links both ways to its LINK_HOPS nearest neighbors on each
    side; every fourth linked pair has a down phase in the middle of the
    run.  With nd_range 35 a beacon relayed once can reach a node three
    hops from its creator, which it is not linked to: a false neighbor
    under pt.
    """
    names = tuple(f"N{i:03d}" for i in range(n))
    pos = {name: SPACING * i + F(rng.randint(0, 8), 8) for i, name in enumerate(names)}
    adversarial = frozenset(name for i, name in enumerate(names) if i % 5 == 2)
    links = {}
    for i in range(n):
        for j in range(i + 1, min(n, i + LINK_HOPS + 1)):
            if len(links) % 8 == 0:
                cut = F(rng.randint(20, 60))
                phases = ((F(0), cut), (cut + F(rng.randint(5, 15)), None))
            else:
                phases = ((F(0), None),)
            links[(names[i], names[j])] = phases
            links[(names[j], names[i])] = phases
    return Net(protocol, names, pos, line, adversarial, links)


# ---------------------------------------------------------------------------
# messages and events (plain tuples, formatted like the .trc grammar)

Msg = tuple


def beacon(net: Net, creator: str, t: F) -> Msg:
    if net.protocol == "pt":
        return ("beacon-t", creator, t, net.dur)
    if net.protocol in ("pgt", "pgt-approx"):
        return ("beacon-tl", creator, t, net.loc(creator), net.dur)
    return ("opaque", "id-" + creator, net.dur)


def msg_creator(msg: Msg) -> str:
    return msg[1][3:] if msg[0] == "opaque" else msg[1]


def fmt_msg(msg: Msg) -> str:
    if msg[0] == "opaque":
        return f"opaque:{msg[1]}:{fmt(msg[2])}"
    if msg[0] == "beacon-t":
        return f"beacon-t:{msg[1]}:{fmt(msg[2])}:{fmt(msg[3])}"
    x, y = msg[3]
    return f"beacon-tl:{msg[1]}:{fmt(msg[2])}:{fmt(x)},{fmt(y)}:{fmt(msg[4])}"


@dataclass(frozen=True)
class Send:
    actor: str
    start: F
    msg: Msg
    sector: Optional[tuple[F, F]] = None  # None for a broadcast


@dataclass(frozen=True)
class Recv:
    actor: str
    start: F
    sender: str
    msg: Msg
    via_cast: bool


@dataclass(frozen=True)
class Decl:
    actor: str
    start: F
    peer: str
    peer_time: F


def accepts(net: Net, r: Recv) -> bool:
    """The protocol's acceptance rule, written from the model's definitions.

    Beacon locations lie on the setting's line, so the location estimate
    is a difference of line coordinates.
    """
    age = r.start - r.msg[2] if r.msg[0] != "opaque" else None
    if net.protocol == "naive":
        return True
    if net.protocol == "pt":
        return age <= net.nd_range / net.v
    location_estimate = abs(net.pos[r.actor] - _line_coord(net, r.msg[3])) / net.v
    if net.protocol == "pgt":
        return age == location_estimate
    return abs(age - location_estimate) <= sum(net.window)


def _line_coord(net: Net, point: tuple[F, F]) -> F:
    ux, uy = net.unit
    return point[0] * ux + point[1] * uy


def declare_offset(r: Recv) -> F:
    return F(1, 4) if (r.start.numerator + len(r.actor)) % 2 else F(1)


@dataclass
class Built:
    net: Net
    sends: list[Send]
    receives: list[Recv]
    decls: list[Decl]
    _text: Optional[str] = field(default=None, repr=False)

    def false_neighbors(self) -> int:
        return sum(
            1
            for d in self.decls
            if self.net.correct(d.actor)
            and self.net.correct(d.peer)
            and not self.net.link_up_over(d.peer, d.actor, d.peer_time, d.peer_time)
        )

    def events(self) -> list:
        return [*self.sends, *self.receives, *self.decls]

    def text(self) -> str:
        if self._text is None:
            self._text = trace_text(self.events())
        return self._text


def receptions(net: Net, sends: list[Send]) -> list[Recv]:
    out = []
    for s in sends:
        for dest in net.reach[s.actor]:
            if s.sector is not None and not net.covers(s.actor, *s.sector, dest):
                continue
            arrival = s.start + net.dist(s.actor, dest) / net.v
            if net.link_up_over(s.actor, dest, arrival, arrival + net.dur):
                out.append(Recv(dest, arrival, s.actor, s.msg, s.sector is not None))
    return out


def build(net: Net, sends: list[Send]) -> Built:
    """Sends plus every reception they force plus every acceptable declaration."""
    recvs = receptions(net, sends)
    # a direct and a relayed copy can arrive together and back the same declaration
    decls = dict.fromkeys(
        Decl(r.actor, r.start + net.dur + declare_offset(r), msg_creator(r.msg), r.start)
        for r in recvs
        if net.correct(r.actor)
        and msg_creator(r.msg) != r.actor
        and net.correct(msg_creator(r.msg))
        and accepts(net, r)
    )
    return Built(net, sends, recvs, list(decls))


def relaying_run(
    rng: random.Random, net: Net, beacons_per_node: int, two_sided: bool
) -> Built:
    """Correct nodes beacon; each adversary relays every beacon it hears.

    A relay is one directional cast (two when two_sided, the second 1/16
    later), delta_relay plus a seeded extra delay after the reception.
    Casts take the sectors clear of the line's bearings in turn.
    """
    sends: list[Send] = []
    for node in net.names:
        if not net.correct(node):
            continue
        times = set()
        while len(times) < beacons_per_node:
            times.add(F(rng.randint(0, int(net.horizon / 2) * 8), 8))
        for t in sorted(times):
            sends.append(Send(node, t, beacon(net, node, t)))
    heard = [r for r in receptions(net, sends) if not net.correct(r.actor) and r.actor != r.sender]
    sectors = clear_sectors(net)
    for r in heard:
        extra = rng.choice((F(0), F(1, 8), F(1, 2), F(1)))
        for k in range(2 if two_sided else 1):
            sector = sectors[len(sends) % len(sectors)]
            sends.append(
                Send(r.actor, r.start + net.delta_relay + extra + F(k, 16), r.msg, sector)
            )
    return build(net, sends)


def clear_sectors(net: Net) -> list[tuple[F, F]]:
    """The sectors whose rays stay clear of both bearings along the line."""
    first, second = net.names[:2]
    clear = []
    for sector in SECTORS:
        try:
            net.covers(first, *sector, second)
            net.covers(second, *sector, first)
        except ValueError:
            continue
        clear.append(sector)
    return clear


# ---------------------------------------------------------------------------
# mutations


@dataclass(frozen=True)
class Mutant:
    """A mutated copy, stored as the lines it removes from and adds to the clean trace."""

    kind: str
    removed: str
    added: str
    layer: str  # the layer that must reject it: physics, protocol or adversary
    rules: tuple[str, ...]  # the violations it must report, sorted


def _mutant(kind: str, removed: list, added: list, layer: str, rules: tuple[str, ...]) -> Mutant:
    return Mutant(kind, trace_text(removed), trace_text(added), layer, tuple(sorted(rules)))


def _backed_by(built: Built, r: Recv) -> list[Decl]:
    """The declarations a reception backs: same declarer, peer time = its start."""
    return [d for d in built.decls if d.actor == r.actor and d.peer_time == r.start]


def mutants(rng: random.Random, built: Built, generic: bool = False) -> list[Mutant]:
    """Copies of a feasible trace that each break exactly one named rule."""
    net = built.net
    out = []
    if not generic:
        forced = [
            r
            for r in built.receives
            if not r.via_cast
            and r.actor != r.sender
            and net.correct(r.actor)
            and net.links.get((r.sender, r.actor)) == ((F(0), None),)
        ]
        dropped = rng.choice(forced)
        out.append(
            _mutant(
                "drop-receive",
                [dropped, *_backed_by(built, dropped)],
                [],
                "physics",
                ("bcast-missing-receive",),
            )
        )
        shifted = rng.choice(forced)
        out.append(
            _mutant(
                "shift-receive",
                [shifted, *_backed_by(built, shifted)],
                [replace(shifted, start=shifted.start + TICK)],
                "physics",
                ("receive-without-transmission", "bcast-missing-receive"),
            )
        )
        out.append(_mutant("early-relay", *_early_relay(rng, built), "adversary", ("relay-unjustified",)))
    rule = "neighbor-not-permitted" if generic else "neighbor-unjustified"
    out.append(_mutant("stale-declaration", [], [_stale_declaration(rng, built)], "protocol", (rule,)))
    return out


def _early_relay(rng: random.Random, built: Built) -> tuple[list, list]:
    """Move one relay cast just before its earliest justified instant.

    Returns the events removed and added: the cast, its receptions and
    the declarations they back, each rebuilt at the new instant.
    """
    net = built.net
    casts = [s for s in built.sends if s.sector is not None]
    rng.shuffle(casts)
    for cast in casts:
        others = [s for s in built.sends if s != cast]
        support = [
            r
            for r in receptions(net, [s for s in others if s.msg == cast.msg])
            if not net.correct(r.actor)
        ]
        earliest = min(
            r.start + net.delta_relay + net.dist(cast.actor, r.actor) / net.v_adv
            for r in support
        )
        start = earliest - TICK
        moved = Send(cast.actor, start, cast.msg, cast.sector)
        # the moved cast's own receptions must not justify it: they are no earlier
        if start < 0 or any(s.actor == cast.actor and s.start == start for s in others):
            continue
        before, after = built.events(), build(net, others + [moved]).events()
        before_set, after_set = set(before), set(after)
        return [e for e in before if e not in after_set], [e for e in after if e not in before_set]
    raise AssertionError("no relay cast can be moved")


def _stale_declaration(rng: random.Random, built: Built) -> Decl:
    """A declaration backed by a reception the protocol rejects (or by none)."""
    net = built.net
    if net.protocol == "naive":
        # naive accepts every received identity; back a claim with no reception
        actor = next(n for n in net.names if net.correct(n))
        peer = next(n for n in net.names if n != actor and net.correct(n))
        heard = {
            (r.start, msg_creator(r.msg)) for r in built.receives if r.actor == actor
        }
        t = F(1, 3)
        while (t, peer) in heard:
            t += F(1, 3)
        return Decl(actor, t + F(10), peer, t)
    rejected = [
        r
        for r in built.receives
        if net.correct(r.actor)
        and msg_creator(r.msg) != r.actor
        and net.correct(msg_creator(r.msg))
        and not accepts(net, r)
    ]
    rng.shuffle(rejected)
    for r in rejected:
        backed = any(
            o.actor == r.actor
            and o.start == r.start
            and msg_creator(o.msg) == msg_creator(r.msg)
            and accepts(net, o)
            for o in built.receives
        )
        decl = Decl(r.actor, r.start + net.dur + 1, msg_creator(r.msg), r.start)
        if not backed and decl not in built.decls:
            return decl
    raise AssertionError("no rejected reception to back a stale declaration")


# ---------------------------------------------------------------------------
# file text


def event_line(e) -> str:
    if isinstance(e, Send):
        if e.sector is None:
            return f"bcast {e.actor} {fmt(e.start)} {fmt_msg(e.msg)}"
        d, a = e.sector
        return f"dcast {e.actor} {fmt(e.start)} {fmt(d)} {fmt(a)} {fmt_msg(e.msg)}"
    if isinstance(e, Recv):
        return f"receive {e.actor} {fmt(e.start)} {e.sender} {fmt_msg(e.msg)}"
    return f"neighbor {e.actor} {fmt(e.start)} {e.peer} {fmt(e.peer_time)}"


def trace_text(events: list) -> str:
    """One line per event, in the given order; the program sorts on parse."""
    return "".join(event_line(e) + "\n" for e in events)


def scenario_text(net: Net, adversary: str = "relay") -> str:
    out = ["[params]"]
    out += [
        f"v = {fmt(net.v)}",
        f"v_adv = {fmt(net.v_adv)}",
        f"nd_range = {fmt(net.nd_range)}",
        f"delta_relay = {fmt(net.delta_relay)}",
        f"msg_duration_default = {fmt(net.dur)}",
    ]
    for node in net.names:
        x, y = net.loc(node)
        kind = "correct" if net.correct(node) else "adversarial"
        out += ["", f"[node {node}]", f"x = {fmt(x)}", f"y = {fmt(y)}", f"type = {kind}"]
    for (a, b), phases in sorted(net.links.items()):
        up = ", ".join(f"{fmt(s)}:{'inf' if e is None else fmt(e)}" for s, e in phases)
        out += ["", f"[link {a} -> {b}]", f"up = {up}"]
    out += ["", "[protocol]", f"name = {net.protocol}"]
    if net.protocol == "pgt-approx":
        out += [f"delta = {fmt(net.window[0])}", f"tau = {fmt(net.window[1])}"]
    out += ["", "[adversary]", f"name = {adversary}", "", "[run]", f"horizon = {fmt(net.horizon)}"]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# the two fixed fault cases


def f1_files() -> tuple[str, str]:
    """An honest pgt-approx run whose beacon stamps are skewed within (delta, tau).

    B at 8 stamps time delta and location 8 + tau*v; A hears it at 8 and
    declares B.  The stamps are within the measurement bounds and the
    estimates agree within delta + tau, so the run is protocol-feasible.
    """
    delta = tau = F(1, 10)
    net = Net(
        "pgt-approx",
        ("A", "B"),
        {"A": F(0), "B": F(8)},
        (F(1), F(0)),
        frozenset(),
        {("A", "B"): ((F(0), None),), ("B", "A"): ((F(0), None),)},
        nd_range=F(10),
        delta_relay=F(1, 10),
        dur=F(1),
        window=(delta, tau),
        horizon=F(10),
    )
    msg = ("beacon-tl", "B", delta, (F(8) + tau * net.v, F(0)), net.dur)
    sends = [Send("B", F(0), msg)]
    recvs = receptions(net, sends)
    arrival = next(r for r in recvs if r.actor == "A")
    decls = [Decl("A", arrival.start + net.dur + 1, "B", arrival.start)]
    return scenario_text(net), trace_text([*sends, *recvs, *decls])


F2_EPSILON = F(1, 10000)


def f2_files() -> tuple[str, str]:
    """A cast over the closed sector [7/4, 9/4] pi whose closing ray passes (1, 1).

    Sectors are closed at both rays, so W at (1, 1) must receive it,
    sqrt(2) after the cast; the reception time is a rational within
    F2_EPSILON of sqrt(2), to be checked in approximate mode.
    """
    scn = "\n".join(
        [
            "[params]",
            "v = 1",
            "v_adv = 1",
            "nd_range = 10",
            "delta_relay = 1",
            "msg_duration_default = 1",
            "",
            "[node W]",
            "x = 1",
            "y = 1",
            "type = correct",
            "",
            "[node X]",
            "x = 0",
            "y = 0",
            "type = adversarial",
            "",
            "[link X -> W]",
            "up = 0:inf",
            "",
            "[protocol]",
            "name = pt",
            "",
            "[adversary]",
            "name = dy-t",
            "",
            "[run]",
            "horizon = 10",
        ]
    ) + "\n"
    arrival = F(1393, 985)
    assert abs(arrival * arrival - 2) < F(1, 10**5)
    trc = (
        "dcast X 0 7/4 1/2 opaque:f2:1\n"
        "receive X 0 X opaque:f2:1\n"
        f"receive W {fmt(arrival)} X opaque:f2:1\n"
    )
    return scn, trc
