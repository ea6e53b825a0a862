"""World model for wireless neighbor discovery verification.

A *setting* fixes node identities, planar locations, correct/adversarial
types and a time-varying directed link schedule.  A *trace* is a finite
set of timed events (omnidirectional broadcast, directional cast,
reception, neighbor declaration) describing one execution.  This module
provides the geometric and temporal primitives (distance, time of
flight, link coverage, antenna sectors), the censored local-view
projection that each node observes, and the physical-consistency check
tying every reception to exactly one transmission and every
transmission to all receptions the link state enables.

Conventions baked in here:

- angles are expressed as rational multiples of pi (so 1/2 means a
  quarter turn); sector boundaries at quarter-turn multiples are decided
  with exact rational arithmetic, all other boundaries fall back to
  floating point,
- a directional sector is closed at both boundary rays and contains its
  apex, which makes a full-circle directional cast behave exactly like a
  broadcast, including self-reception,
- every node always has its own self-link up, so any transmission is
  also received by its sender at the same instant,
- link up-phases are half-open intervals [start, end).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, KeysView, Mapping, Optional, Sequence, Union

from .rational import EXACT, Num, Real

Point = tuple[Fraction, Fraction]
NodeId = str

CORRECT = "correct"
ADVERSARIAL = "adversarial"

T_FLAVOR = "T"
TL_FLAVOR = "TL"

FULL_TURN = Fraction(2)  # angles are in units of pi


class UnknownNode(ValueError):
    """A node identifier is not part of the relevant setting."""


class FlavorMismatch(ValueError):
    """A location-aware view was requested without a setting."""


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class SystemParams:
    """Global physical parameters shared by every checker.

    v              signal speed on the wireless channel (distance/time)
    v_adv          information speed on the adversary-only channel
    nd_range       distance up to which neighbor discovery must work
    delta_relay    minimum processing delay of an adversarial relay
    msg_duration_default   transmission duration used for beacons
    """

    v: Fraction
    v_adv: Fraction
    nd_range: Fraction
    delta_relay: Fraction
    msg_duration_default: Fraction

    def __post_init__(self) -> None:
        if self.v <= 0:
            raise ValueError("v must be > 0")
        if self.v_adv < self.v:
            raise ValueError("v_adv must be >= v")
        if self.nd_range <= 0:
            raise ValueError("nd_range must be > 0")
        if self.delta_relay < 0:
            raise ValueError("delta_relay must be >= 0")
        if self.msg_duration_default <= 0:
            raise ValueError("msg_duration_default must be > 0")


# ---------------------------------------------------------------------------
# messages


@dataclass(frozen=True)
class Opaque:
    """Uninterpreted payload; identity is the token."""

    token: str
    duration: Fraction

    def __post_init__(self) -> None:
        _check_duration(self.duration)

    def key(self) -> tuple:
        return ("opaque", self.token, self.duration)


@dataclass(frozen=True)
class BeaconT:
    """Authenticated beacon carrying its creation time.

    Authentication is symbolic: the creator field cannot be forged, only
    copied, which is what the adversary checkers rely on.
    """

    creator: NodeId
    beacon_time: Fraction
    duration: Fraction

    def __post_init__(self) -> None:
        _check_duration(self.duration)
        if self.beacon_time < 0:
            raise ValueError("beacon_time must be >= 0")

    def key(self) -> tuple:
        return ("beacon-t", self.creator, self.beacon_time, self.duration)


@dataclass(frozen=True)
class BeaconTL:
    """Authenticated beacon carrying creation time and claimed location."""

    creator: NodeId
    beacon_time: Fraction
    beacon_loc: Point
    duration: Fraction

    def __post_init__(self) -> None:
        _check_duration(self.duration)
        if self.beacon_time < 0:
            raise ValueError("beacon_time must be >= 0")

    def key(self) -> tuple:
        return (
            "beacon-tl",
            self.creator,
            self.beacon_time,
            self.beacon_loc[0],
            self.beacon_loc[1],
            self.duration,
        )


Message = Union[Opaque, BeaconT, BeaconTL]


def _check_duration(duration: Fraction) -> None:
    if duration <= 0:
        raise ValueError("message duration must be > 0")


# ---------------------------------------------------------------------------
# events


@dataclass(frozen=True)
class Bcast:
    actor: NodeId
    start: Fraction
    msg: Message

    def __post_init__(self) -> None:
        _check_start(self.start)

    def sort_key(self) -> tuple:
        return (self.start, self.actor, 0) + self.msg.key()


@dataclass(frozen=True)
class Dcast:
    """Directional transmission over the closed sector [direction, direction+angle].

    direction is in [0, 2) and angle in (0, 2], both in units of pi.
    """

    actor: NodeId
    start: Fraction
    direction: Fraction
    angle: Fraction
    msg: Message

    def __post_init__(self) -> None:
        _check_start(self.start)
        if not 0 <= self.direction < FULL_TURN:
            raise ValueError("direction must be in [0, 2) (units of pi)")
        if not 0 < self.angle <= FULL_TURN:
            raise ValueError("angle must be in (0, 2] (units of pi)")

    def sort_key(self) -> tuple:
        return (self.start, self.actor, 1, self.direction, self.angle) + self.msg.key()


@dataclass(frozen=True)
class Receive:
    actor: NodeId
    start: Fraction
    sender: NodeId
    msg: Message

    def __post_init__(self) -> None:
        _check_start(self.start)

    def sort_key(self) -> tuple:
        return (self.start, self.actor, 2, self.sender) + self.msg.key()


@dataclass(frozen=True)
class Neighbor:
    """Declaration by `actor` that `peer` was its neighbor at `peer_time`."""

    actor: NodeId
    start: Fraction
    peer: NodeId
    peer_time: Fraction

    def __post_init__(self) -> None:
        _check_start(self.start)
        if self.peer_time < 0:
            raise ValueError("peer_time must be >= 0")

    def sort_key(self) -> tuple:
        return (self.start, self.actor, 3, self.peer, self.peer_time)


Event = Union[Bcast, Dcast, Receive, Neighbor]


def _check_start(start: Fraction) -> None:
    if start < 0:
        raise ValueError("event start must be >= 0")


def event_end(e: Event) -> Fraction:
    """Events carrying a message span [start, start + duration]; declarations are instantaneous."""
    if isinstance(e, Neighbor):
        return e.start
    return e.start + e.msg.duration


class Trace:
    """Immutable finite event set, stored in canonical order.

    Construction deduplicates and sorts, so two traces built from the
    same events in any order compare (and serialize) identically.  It
    hashes each event once: a dict deduplicates the events, its keys are
    sorted (sort keys are injective, so the order is canonical whatever
    the input order), and its keys view answers membership.

    Three indexes are built on first use and kept for the life of the
    trace, which never changes, so they never go stale.  The first call
    of ``by_actor`` (or ``project_local``) groups the events by actor in
    one pass, holding one more reference per event.  The first call of
    ``receptions_of`` groups the receptions by message in one pass,
    holding one more reference per reception.  The first projection of
    a node at a cutoff sorts that node's broadcasts, receptions and
    declarations by the time they become visible, in O(k log k) for k
    such events; it holds one local event and one time per such event,
    plus the node's last view at a cutoff.
    """

    __slots__ = ("events", "_members", "_by_actor", "_by_msg", "_views")

    def __init__(self, events: Iterable[Event] = ()):
        unique = dict.fromkeys(events)
        ordered = sorted(unique, key=lambda e: e.sort_key())
        self.events: tuple[Event, ...] = tuple(ordered)
        self._members: KeysView[Event] = unique.keys()
        self._by_actor: Optional[dict[NodeId, tuple[Event, ...]]] = None
        self._by_msg: Optional[dict[Message, tuple[Receive, ...]]] = None
        self._views: Optional[dict[NodeId, _ViewIndex]] = None

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __contains__(self, event: Event) -> bool:
        return event in self._members

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Trace) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        return f"Trace({len(self.events)} events)"

    def union(self, more: Iterable[Event]) -> "Trace":
        return Trace(self.events + tuple(more))

    def of_kind(self, kind: type) -> Iterator[Event]:
        return (e for e in self.events if isinstance(e, kind))

    def by_actor(self, node: NodeId) -> tuple[Event, ...]:
        """The node's own events, in canonical order."""
        if self._by_actor is None:
            grouped: dict[NodeId, list[Event]] = {}
            for e in self.events:
                grouped.setdefault(e.actor, []).append(e)
            self._by_actor = {n: tuple(own) for n, own in grouped.items()}
        return self._by_actor.get(node, ())

    def receptions_of(self, msg: Message) -> tuple[Receive, ...]:
        """The receptions of a message, in canonical order."""
        if self._by_msg is None:
            grouped: dict[Message, list[Receive]] = {}
            for e in self.events:
                if isinstance(e, Receive):
                    grouped.setdefault(e.msg, []).append(e)
            self._by_msg = {m: tuple(own) for m, own in grouped.items()}
        return self._by_msg.get(msg, ())

    def _view_index(self, node: NodeId) -> _ViewIndex:
        if self._views is None:
            self._views = {}
        index = self._views.get(node)
        if index is None:
            index = self._views[node] = _ViewIndex(self.by_actor(node))
        return index


# ---------------------------------------------------------------------------
# settings

Interval = tuple[Fraction, Optional[Fraction]]  # [start, end), end=None means unbounded


class Setting:
    """Static world: nodes, locations, types and the directed link schedule.

    Undeclared directed links are permanently down; self-links are
    implicitly up forever and may not be declared.

    Construction also indexes the link graph: ``reachable[n]`` holds n
    itself and every node with a declared link from n, in node order.
    These are the only nodes a transmission by n can ever reach, so
    coverage is worked out over them alone.  The index is built once
    from the declared links, in O(n + links log links), and holds one
    reference per node and per link.
    """

    __slots__ = ("nodes", "loc", "node_type", "link_schedule", "reachable")

    def __init__(
        self,
        nodes: Iterable[NodeId],
        loc: Mapping[NodeId, Point],
        node_type: Mapping[NodeId, str],
        link_schedule: Optional[Mapping[tuple[NodeId, NodeId], Sequence[Interval]]] = None,
    ):
        self.nodes: tuple[NodeId, ...] = tuple(sorted(nodes))
        self.loc: dict[NodeId, Point] = dict(loc)
        self.node_type: dict[NodeId, str] = dict(node_type)
        seen_locs: set[Point] = set()
        for node in self.nodes:
            if node not in self.loc or node not in self.node_type:
                raise UnknownNode(f"node {node!r} lacks a location or type")
            if self.node_type[node] not in (CORRECT, ADVERSARIAL):
                raise ValueError(f"bad node type for {node!r}")
            p = self.loc[node]
            if p in seen_locs:
                raise ValueError(f"two nodes share location {p}")
            seen_locs.add(p)
        normalized: dict[tuple[NodeId, NodeId], tuple[Interval, ...]] = {}
        for (a, b), intervals in (link_schedule or {}).items():
            if a not in self.loc or b not in self.loc:
                raise UnknownNode(f"link ({a!r}, {b!r}) references undeclared node")
            if a == b:
                raise ValueError("self-links are implicit and may not be declared")
            merged = _normalize_intervals(intervals)
            if merged:
                normalized[(a, b)] = merged
        self.link_schedule: dict[tuple[NodeId, NodeId], tuple[Interval, ...]] = normalized
        reach: dict[NodeId, list[NodeId]] = {node: [node] for node in self.nodes}
        for a, b in normalized:
            if a in reach and b in reach:
                reach[a].append(b)
        # node names sort as self.nodes does
        self.reachable: dict[NodeId, tuple[NodeId, ...]] = {
            node: tuple(sorted(dests)) for node, dests in reach.items()
        }

    @property
    def correct_nodes(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.nodes if self.node_type[n] == CORRECT)

    @property
    def adversarial_nodes(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.nodes if self.node_type[n] == ADVERSARIAL)

    def is_adversarial(self, node: NodeId) -> bool:
        return self.node_type.get(node) == ADVERSARIAL

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Setting)
            and self.nodes == other.nodes
            and self.loc == other.loc
            and self.node_type == other.node_type
            and self.link_schedule == other.link_schedule
        )

    def __repr__(self) -> str:
        return f"Setting(nodes={self.nodes!r})"


def _normalize_intervals(intervals: Sequence[Interval]) -> tuple[Interval, ...]:
    """Sort, validate disjointness, and merge adjacent half-open phases."""
    items = sorted(intervals, key=lambda iv: (iv[0], iv[1] is not None, iv[1] or 0))
    merged: list[list] = []
    for start, end in items:
        if start < 0:
            raise ValueError("link interval start must be >= 0")
        if end is not None and end <= start:
            raise ValueError("link interval end must exceed its start")
        if merged and merged[-1][1] is None:
            raise ValueError("overlapping link intervals")
        if merged and start < merged[-1][1]:
            raise ValueError("overlapping link intervals")
        if merged and start == merged[-1][1]:
            merged[-1][1] = end
        else:
            merged.append([start, end])
    return tuple((s, e) for s, e in merged)


def sq_dist(p: Point, q: Point) -> Fraction:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def dist(setting: Setting, a: NodeId, b: NodeId, num: Num = EXACT) -> Real:
    """Euclidean distance between two nodes of the setting."""
    for node in (a, b):
        if node not in setting.loc:
            raise UnknownNode(f"node {node!r} not in setting")
    if a == b:
        return Fraction(0)
    return num.sqrt(sq_dist(setting.loc[a], setting.loc[b]))


def time_of_flight(
    setting: Setting, params: SystemParams, a: NodeId, b: NodeId, num: Num = EXACT
) -> Real:
    return dist(setting, a, b, num) / params.v


def link_up_over(setting: Setting, a: NodeId, b: NodeId, t0: Real, t1: Real) -> bool:
    """True iff the directed link a -> b is up at every point of the closed interval [t0, t1]."""
    if t0 > t1:
        raise ValueError("empty interval")
    if a == b:
        return True
    cursor = t0
    for start, end in setting.link_schedule.get((a, b), ()):
        if start > cursor:
            return False
        if end is None or end > t1:
            return True
        if end > cursor:
            cursor = end
    return False


_QUARTER_VECTORS = {
    Fraction(0): (Fraction(1), Fraction(0)),
    Fraction(1, 2): (Fraction(0), Fraction(1)),
    Fraction(1): (Fraction(-1), Fraction(0)),
    Fraction(3, 2): (Fraction(0), Fraction(-1)),
}


def _direction_vector(units: Fraction) -> tuple[Real, Real]:
    u = units % FULL_TURN
    exact = _QUARTER_VECTORS.get(u)
    if exact is not None:
        return exact
    radians = math.pi * float(u)
    return (math.cos(radians), math.sin(radians))


@lru_cache(maxsize=256)
def _sector_rays(
    direction: Fraction, angle: Fraction
) -> tuple[tuple[Real, Real], tuple[Real, Real]]:
    """The opening and closing ray vectors of a sector.

    Kept for the last 256 sectors, so the nodes tested against one cast
    share one computation of its rays.
    """
    return _direction_vector(direction), _direction_vector(direction + angle)


def _cross(a: tuple[Real, Real], b: tuple[Real, Real]) -> Real:
    return a[0] * b[1] - a[1] * b[0]


def inrange(
    setting: Setting, a: NodeId, direction: Fraction, angle: Fraction, b: NodeId
) -> bool:
    """Sector membership test for directional transmission coverage.

    The sector is closed at both boundary rays, contains its apex, and a
    full-turn angle covers everything.  Quarter-turn boundaries are
    decided exactly; other boundaries use floating point.
    """
    if b == a or angle >= FULL_TURN:
        return True
    u = (
        setting.loc[b][0] - setting.loc[a][0],
        setting.loc[b][1] - setting.loc[a][1],
    )
    e0, e1 = _sector_rays(direction, angle)
    if angle <= 1:
        return _cross(e0, u) >= 0 and _cross(u, e1) >= 0
    # reflex sector: everything except the strict interior of the complement
    return not (_cross(e1, u) > 0 and _cross(u, e0) > 0)


# ---------------------------------------------------------------------------
# local views


@dataclass(frozen=True)
class LocalBcast:
    start: Fraction
    msg: Message


@dataclass(frozen=True)
class LocalReceive:
    # deliberately carries no sender: a receiver cannot tell who transmitted
    start: Fraction
    msg: Message


@dataclass(frozen=True)
class LocalNeighbor:
    start: Fraction
    peer: NodeId
    peer_time: Fraction


LocalEvent = Union[LocalBcast, LocalReceive, LocalNeighbor]


@dataclass(frozen=True)
class LocalView:
    """What one node has observed strictly before a cutoff time.

    as_of=None means the complete (end-of-time) view.  The TL flavor
    additionally carries the owner's own location.
    """

    flavor: str
    owner: NodeId
    as_of: Optional[Fraction]
    owner_loc: Optional[Point]
    events: frozenset[LocalEvent]

    def receives(self) -> Iterator[LocalReceive]:
        return (e for e in self.events if isinstance(e, LocalReceive))


def _local_event(e: Event) -> Optional[LocalEvent]:
    """What the actor of an event records of it: no sender, and nothing of
    a directional cast."""
    if isinstance(e, Bcast):
        return LocalBcast(e.start, e.msg)
    if isinstance(e, Receive):
        return LocalReceive(e.start, e.msg)
    if isinstance(e, Neighbor):
        return LocalNeighbor(e.start, e.peer, e.peer_time)
    return None


class _ViewIndex:
    """One node's local events in a trace, sorted for censored projection.

    keys[i] is the instant from which local[i] is visible: the start of
    an own broadcast or declaration, the end of a reception.  Under the
    strict cutoff the view as of t is therefore local[:bisect_left(keys, t)].
    last holds the size and events of the last view built, so a view at
    a later cutoff extends it by a set union, which reuses the hashes it
    already stores; an earlier cutoff builds its view from scratch.
    """

    __slots__ = ("keys", "local", "last")

    def __init__(self, own: tuple[Event, ...]):
        visible: list[tuple[Fraction, LocalEvent]] = []
        for e in own:
            local = _local_event(e)
            if local is not None:
                visible.append((event_end(e) if isinstance(e, Receive) else e.start, local))
        visible.sort(key=itemgetter(0))
        self.keys = [key for key, _ in visible]
        self.local = [local for _, local in visible]
        self.last: tuple[int, frozenset[LocalEvent]] = (0, frozenset())

    def visible(self, as_of: Fraction) -> frozenset[LocalEvent]:
        count = bisect_left(self.keys, as_of)
        # one read and one write of `last`, so it always pairs a size with its set
        seen, events = self.last
        if count > seen:
            events = events.union(self.local[seen:count])
        elif count < seen:
            events = frozenset(self.local[:count])
        self.last = (count, events)
        return events


def project_local(
    trace: Trace,
    node: NodeId,
    as_of: Optional[Fraction] = None,
    flavor: str = T_FLAVOR,
    setting: Optional[Setting] = None,
) -> LocalView:
    """Censored projection of a trace onto one node.

    Own transmissions and declarations are visible once started;
    receptions only once fully completed (start + duration strictly
    before the cutoff).  Receptions lose their sender field.

    The view is built from the trace's indexes (see ``Trace``), never by
    a scan of the whole trace.  The complete view (as_of=None) takes all
    of the node's events.  A cutoff is one bisection into the node's
    sorted local events; a cutoff at or after the node's last one copies
    that view, reusing its stored hashes, and adds the events that
    became visible in between, while an earlier cutoff builds the view
    anew.  Either way the cost grows with the node's own events, not
    with the trace.
    """
    if flavor not in (T_FLAVOR, TL_FLAVOR):
        raise ValueError(f"unknown view flavor {flavor!r}")
    if flavor == TL_FLAVOR and setting is None:
        raise FlavorMismatch("location-aware views require a setting")
    if setting is not None and node not in setting.loc:
        raise UnknownNode(f"node {node!r} not in setting")
    if as_of is None:
        own = map(_local_event, trace.by_actor(node))
        events = frozenset(local for local in own if local is not None)
    else:
        events = trace._view_index(node).visible(as_of)
    owner_loc = setting.loc[node] if (flavor == TL_FLAVOR and setting) else None
    return LocalView(flavor, node, as_of, owner_loc, events)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Violation:
    rule: str
    events: tuple[Event, ...]
    detail: str


@dataclass(frozen=True)
class Verdict:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}


# ---------------------------------------------------------------------------
# physical consistency


def _flight_times(
    setting: Setting, params: SystemParams, num: Num
) -> Callable[[NodeId, NodeId], Real]:
    """Time of flight between two nodes, computed once per unordered pair."""
    cache: dict[tuple[NodeId, NodeId], Real] = {}

    def tof(a: NodeId, b: NodeId) -> Real:
        key = (a, b) if a <= b else (b, a)
        if key not in cache:
            cache[key] = time_of_flight(setting, params, a, b, num)
        return cache[key]

    return tof


def _coverage(
    e: Union[Bcast, Dcast], setting: Setting, tof: Callable[[NodeId, NodeId], Real]
) -> Iterator[tuple[NodeId, Real]]:
    """(node, arrival) for every node a transmission must reach, in node order.

    A broadcast covers every node, the sender included; a directional
    cast covers the nodes its sector holds.  A covered node receives one
    flight time after the start if its link from the sender is up over
    the whole reception window.  An undeclared link is never up, so only
    the nodes in ``setting.reachable`` are visited.
    """
    reach = setting.reachable.get(e.actor)
    if reach is None:
        raise UnknownNode(f"node {e.actor!r} not in setting")
    for dest in reach:
        if isinstance(e, Dcast) and not inrange(setting, e.actor, e.direction, e.angle, dest):
            continue
        arrival = e.start + tof(e.actor, dest)
        if link_up_over(setting, e.actor, dest, arrival, arrival + e.msg.duration):
            yield dest, arrival


def check_setting_feasible(
    trace: Trace, setting: Setting, params: SystemParams, num: Num = EXACT
) -> Verdict:
    """Check a trace against the physics of a setting.

    Three groups of rules:
    - every reception has its link up for the whole reception window and
      matches exactly one transmission (a broadcast, or a directional
      cast whose sector covers the receiver) by its sender, one flight
      time earlier,
    - every broadcast is received by every node whose incoming link from
      the sender is up over the full reception window (the sender
      included, via its self-link),
    - every directional cast is performed by an adversarial node and is
      received by exactly the covered, link-enabled nodes.
    """
    violations: list[Violation] = []
    known = set(setting.nodes)

    bcasts_by_actor: dict[NodeId, list[Bcast]] = {}
    dcasts_by_actor: dict[NodeId, list[Dcast]] = {}
    receives_by_pair: dict[tuple[NodeId, NodeId], list[Receive]] = {}
    for e in trace:
        if isinstance(e, Bcast):
            bcasts_by_actor.setdefault(e.actor, []).append(e)
        elif isinstance(e, Dcast):
            dcasts_by_actor.setdefault(e.actor, []).append(e)
        elif isinstance(e, Receive):
            receives_by_pair.setdefault((e.actor, e.sender), []).append(e)

    tof = _flight_times(setting, params, num)

    def receive_present(dest: NodeId, sender: NodeId, at: Real, msg: Message) -> bool:
        for r in receives_by_pair.get((dest, sender), ()):
            if r.msg == msg and num.eq(r.start, at):
                return True
        return False

    for e in trace:
        actors = [e.actor]
        if isinstance(e, Receive):
            actors.append(e.sender)
        for node in actors:
            if node not in known:
                violations.append(
                    Violation("unknown-node", (e,), f"node {node!r} is not part of the setting")
                )
        if any(node not in known for node in actors):
            continue

        if isinstance(e, Receive):
            window_end = e.start + e.msg.duration
            if not link_up_over(setting, e.sender, e.actor, e.start, window_end):
                violations.append(
                    Violation(
                        "receive-link-down",
                        (e,),
                        f"link {e.sender}->{e.actor} not up over the reception window",
                    )
                )
            send_time = e.start - tof(e.sender, e.actor)
            bcast_match = any(
                b.msg == e.msg and num.eq(b.start, send_time)
                for b in bcasts_by_actor.get(e.sender, ())
            )
            dcast_match = any(
                d.msg == e.msg
                and num.eq(d.start, send_time)
                and inrange(setting, e.sender, d.direction, d.angle, e.actor)
                for d in dcasts_by_actor.get(e.sender, ())
            )
            if bcast_match and dcast_match:
                violations.append(
                    Violation(
                        "receive-ambiguous-source",
                        (e,),
                        "reception matches both a broadcast and a directional cast",
                    )
                )
            elif not (bcast_match or dcast_match):
                violations.append(
                    Violation(
                        "receive-without-transmission",
                        (e,),
                        f"no transmission by {e.sender} one flight time earlier",
                    )
                )

        elif isinstance(e, (Bcast, Dcast)):
            if isinstance(e, Bcast):
                rule, reach = "bcast-missing-receive", "has the link up"
            else:
                rule, reach = "dcast-missing-receive", "is covered with the link up"
                if not setting.is_adversarial(e.actor):
                    violations.append(
                        Violation(
                            "dcast-by-correct-node",
                            (e,),
                            "directional transmission is reserved to adversarial nodes",
                        )
                    )
            for dest, arrival in _coverage(e, setting, tof):
                if not receive_present(dest, e.actor, arrival, e.msg):
                    violations.append(
                        Violation(rule, (e,), f"{dest} {reach} but no matching reception")
                    )

    return Verdict(tuple(violations))


def induced_receives(
    sends: Iterable[Event],
    setting: Setting,
    params: SystemParams,
    num: Num = EXACT,
) -> list[Receive]:
    """All receptions that the given transmissions force to exist.

    Uses the same coverage rule (``_coverage``) as check_setting_feasible,
    so a trace assembled from sends plus their induced receives passes
    the physical-consistency check by construction.
    """
    tof = _flight_times(setting, params, num)
    return [
        Receive(dest, arrival, e.actor, e.msg)
        for e in sends
        if isinstance(e, (Bcast, Dcast))
        for dest, arrival in _coverage(e, setting, tof)
    ]
