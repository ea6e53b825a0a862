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
  exactly, in ints on the setting's integer lattice, the other sector
  rays in floating point, the one place a float enters a verdict,
- a directional sector is closed at both boundary rays and contains its
  apex, which makes a full-circle directional cast behave exactly like a
  broadcast, including self-reception,
- every node always has its own self-link up, so any transmission is
  also received by its sender at the same instant,
- link up-phases are half-open intervals [start, end),
- messages and events are immutable values that compute their hash on
  first use and keep it, so sets and dicts hash each one once; a trace
  orders and deduplicates events by their order keys and hashes none,
- the checks compare instants as integers, in both modes: each reads
  every instant t as t·D, over one common denominator D (``Ticks``),
  and every distance as an integer r over the lcm c of the setting's
  coordinate denominators (``dist_ratio``); approximate mode widens
  only an irrational flight time, to the ticks within epsilon of it
  (``flight_ticks``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from operator import attrgetter, ne
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .rational import EXACT, IrrationalDistance, Num, echo, format_scalar, not_a_square

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


class _Memo(dict):
    """A dict that reads a missing key's value as ``read(key)`` on its first
    lookup and keeps it, so a hit is one dict lookup in C and calls no
    Python code.  A read that raises keeps nothing: the key fails again."""

    __slots__ = ("read",)

    def __init__(self, read: Callable):
        self.read = read

    def __missing__(self, key):
        value = self[key] = self.read(key)
        return value


class _PairMemo(_Memo):
    """A _Memo keyed by pairs (a, b), each read as ``read(a, b)``."""

    def __missing__(self, key):
        value = self[key] = self.read(*key)
        return value


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
        # signs compare as ints (_signed), which also rejects NaN and infinities
        if _signed(self.v, "v") <= 0:
            raise ValueError("v must be > 0")
        _signed(self.v_adv, "v_adv")
        if self.v_adv < self.v:
            raise ValueError("v_adv must be >= v")
        if _signed(self.nd_range, "nd_range") <= 0:
            raise ValueError("nd_range must be > 0")
        if _signed(self.delta_relay, "delta_relay") < 0:
            raise ValueError("delta_relay must be >= 0")
        if _signed(self.msg_duration_default, "msg_duration_default") <= 0:
            raise ValueError("msg_duration_default must be > 0")

    @cached_property
    def range_flight(self) -> tuple[int, int]:
        """nd_range / v, the flight time across the discovery range, as
        integers (n, d), d > 0, not reduced; worked out on first use and kept."""
        (r, u), (p, q) = self.nd_range.as_integer_ratio(), self.v.as_integer_ratio()
        return r * q, u * p


# ---------------------------------------------------------------------------
# messages and events are values: hashed once


class _HashSlot:
    __slots__ = ("_hash",)


class _OrderSlot(_HashSlot):
    __slots__ = ("_order",)


_keep_order = _OrderSlot._order.__set__


def _hash_once(cls: type) -> type:
    """Give a frozen, slotted dataclass a hash computed on first use and kept.

    The hash is the one dataclass computes, that of the tuple of field
    values, so equal values keep equal hashes and __eq__, repr and
    fields() stay as dataclass makes them.  It is kept in the instance's
    one extra slot (from _HashSlot), which costs one pointer per
    instance and no instance dict; __post_init__ sets it to None, so a
    first use tests for None and catches no AttributeError.  An event
    (an _OrderSlot) has a second such slot for its canonical order key
    (``_order_key``), set to None the same way.  Pickling and copying go
    through the constructor, so an unpickled value hashes afresh under
    its own process's string hashes.
    """
    values = attrgetter(*[f.name for f in fields(cls)])
    check = cls.__post_init__
    keep = _HashSlot._hash.__set__
    ordered = issubclass(cls, _OrderSlot)

    def __post_init__(self) -> None:
        check(self)
        keep(self, None)
        if ordered:
            _keep_order(self, None)

    def __hash__(self) -> int:
        if self._hash is None:
            keep(self, hash(values(self)))
        return self._hash

    def __reduce__(self) -> tuple:
        return cls, values(self)

    cls.__post_init__ = __post_init__
    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls


@_hash_once
@dataclass(frozen=True, slots=True)
class Opaque(_HashSlot):
    """Uninterpreted payload; identity is the token."""

    token: str
    duration: Fraction

    def __post_init__(self) -> None:
        _check_duration(self.duration)

    def key(self) -> tuple:
        return ("opaque", self.token, self.duration)


@_hash_once
@dataclass(frozen=True, slots=True)
class BeaconT(_HashSlot):
    """Authenticated beacon carrying its creation time.

    Authentication is symbolic: the creator field cannot be forged, only
    copied, which is what the adversary checkers rely on.
    """

    creator: NodeId
    beacon_time: Fraction
    duration: Fraction

    def __post_init__(self) -> None:
        _check_duration(self.duration)
        _check_time(self.beacon_time, "beacon_time")

    def key(self) -> tuple:
        return ("beacon-t", self.creator, self.beacon_time, self.duration)


@_hash_once
@dataclass(frozen=True, slots=True)
class BeaconTL(_HashSlot):
    """Authenticated beacon carrying creation time and claimed location."""

    creator: NodeId
    beacon_time: Fraction
    beacon_loc: Point
    duration: Fraction

    def __post_init__(self) -> None:
        _check_duration(self.duration)
        _check_time(self.beacon_time, "beacon_time")

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


def _signed(x: Fraction, name: str) -> Fraction:
    """A number of x's sign: a Fraction's or int's numerator, which compares
    with 0 without Fraction's dispatch through the numbers ABCs, or x
    itself where it has none (a float), once it is known to be finite.
    NaN fails every comparison and an infinity passes some, so neither
    would be caught before the first check crashed on it."""
    n = getattr(x, "numerator", None)
    if n is None:
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite")
        return x
    return n


def _check_time(t: Fraction, name: str) -> None:
    # every event and message built runs this and _check_duration, so both
    # take _signed's Fraction and int path inline and call it for floats
    n = getattr(t, "numerator", None)
    if (_signed(t, name) if n is None else n) < 0:
        raise ValueError(f"{name} must be >= 0")


def _check_duration(duration: Fraction) -> None:
    n = getattr(duration, "numerator", None)
    if (_signed(duration, "message duration") if n is None else n) <= 0:
        raise ValueError("message duration must be > 0")


def _ratio(x: Fraction) -> tuple[int, int]:
    """x's integer ratio, compared in ints with no Fraction dispatch; a
    float NaN or infinity has none and reads as -1, below every range."""
    try:
        return x.as_integer_ratio()
    except (ValueError, OverflowError):
        return -1, 1


# ---------------------------------------------------------------------------
# events


@_hash_once
@dataclass(frozen=True, slots=True)
class Bcast(_OrderSlot):
    actor: NodeId
    start: Fraction
    msg: Message

    def __post_init__(self) -> None:
        _check_time(self.start, "event start")

    def sort_key(self) -> tuple:
        return (self.start, self.actor, 0) + self.msg.key()


@_hash_once
@dataclass(frozen=True, slots=True)
class Dcast(_OrderSlot):
    """Directional transmission over the closed sector [direction, direction+angle].

    direction is in [0, 2) and angle in (0, 2], both in units of pi.
    """

    actor: NodeId
    start: Fraction
    direction: Fraction
    angle: Fraction
    msg: Message

    def __post_init__(self) -> None:
        _check_time(self.start, "event start")
        (dn, dd), (an, ad) = _ratio(self.direction), _ratio(self.angle)
        if not 0 <= dn < 2 * dd:
            raise ValueError("direction must be in [0, 2) (units of pi)")
        if not 0 < an <= 2 * ad:
            raise ValueError("angle must be in (0, 2] (units of pi)")

    def sort_key(self) -> tuple:
        return (self.start, self.actor, 1, self.direction, self.angle) + self.msg.key()


@_hash_once
@dataclass(frozen=True, slots=True)
class Receive(_OrderSlot):
    actor: NodeId
    start: Fraction
    sender: NodeId
    msg: Message

    def __post_init__(self) -> None:
        _check_time(self.start, "event start")

    def sort_key(self) -> tuple:
        return (self.start, self.actor, 2, self.sender) + self.msg.key()


@_hash_once
@dataclass(frozen=True, slots=True)
class Neighbor(_OrderSlot):
    """Declaration by `actor` that `peer` was its neighbor at `peer_time`."""

    actor: NodeId
    start: Fraction
    peer: NodeId
    peer_time: Fraction

    def __post_init__(self) -> None:
        _check_time(self.start, "event start")
        _check_time(self.peer_time, "peer_time")

    def sort_key(self) -> tuple:
        return (self.start, self.actor, 3, self.peer, self.peer_time)


Event = Union[Bcast, Dcast, Receive, Neighbor]


def _order_key(e: Event) -> tuple:
    """The event's canonical order key, worked out on first use and kept in
    the event: the start rounded to a float, monotone non-decreasing in
    the start, then ``e.sort_key()``, concatenated into one tuple.

    The float is the true division of the start's integer ratio, which
    rounds correctly, as ``float(start)`` does, without the call through
    ``numbers.Rational.__float__``.  Starts are never negative, so only
    the positive end overflows: beyond float range the prefix is inf.
    """
    key = e._order
    if key is None:
        n, d = e.start.as_integer_ratio()
        try:
            prefix = n / d
        except OverflowError:
            prefix = math.inf
        key = (prefix,) + e.sort_key()
        _keep_order(e, key)
    return key


def event_end(e: Event) -> Fraction:
    """Events carrying a message span [start, start + duration]; declarations are instantaneous."""
    if isinstance(e, Neighbor):
        return e.start
    return e.start + e.msg.duration


class Ticks:
    """How one check reads instants, over a common denominator ``den``, D.

    An instant t on the grid (t·D an integer) reads as t·D, and a
    threshold x as floor(x·D) or ceil(x·D), so that an integer is at
    most x exactly when it is at most floor(x·D), and at least x exactly
    when it is at least ceil(x·D).
    """

    __slots__ = ("den",)

    def __init__(self, den: int):
        self.den = den

    def floor(self, x: Fraction) -> int:
        n, d = x.as_integer_ratio()
        return n * self.den // d

    of = floor  # an instant on the grid is its own floor

    def ceil(self, x: Fraction) -> int:
        n, d = x.as_integer_ratio()
        return -(-n * self.den // d)


def _denominator(events: Sequence[Event]) -> int:
    """D of the events: the lcm of the denominators of every start and every
    message duration.  Beacon times are not in it, since no check reads
    one in ticks, so no message is hashed."""
    dens = {e.start.as_integer_ratio()[1] for e in events}
    dens.update([e.msg.duration.as_integer_ratio()[1] for e in events if type(e) is not Neighbor])
    return math.lcm(*dens)


class Trace:
    """Immutable finite event set, stored in canonical order.

    Construction sorts and deduplicates, so two traces built from the
    same events in any order compare (and serialize) identically, and it
    hashes no event.  A stable sort orders the events by their order
    keys; order keys are injective (equal exactly when the events are),
    so equal events sit side by side, and one pass over neighboring keys
    keeps the first of each run of equal ones, which is the event's first
    occurrence in the input.  Membership (``in``) bisects the events by
    order key and compares the one event found with ``==``; anything
    that is not an event is not a member.  The sorted tuple is the only
    copy of the events: the trace keeps no set or dict of its members,
    so an event is hashed only where a caller looks it up by hash.

    The sort key (``_order_key``) is the start rounded to a float
    (infinity beyond float range), compared in C, followed by
    ``e.sort_key()``, the exact key.  Rounding never
    reverses two starts' order, so the order is exactly the
    ``sort_key()`` order, and only events whose starts round to the same
    float compare exact starts.  Each event works its key out on first
    use and keeps it (``_order_key``), so a trace built from events
    another trace holds (a mutant, a union, a re-staged attack) computes
    no key again.  The kept keys cost one tuple per event for the life
    of the event.

    The first check or projection at a cutoff (``ticks``) works out the
    trace's D, the lcm of the denominators of every start and message
    duration (``_denominator``), and keeps that one int for the life of
    the trace; no event's tick is kept.  Each check reads the instants it
    needs by its own ``Ticks``, over a multiple of D, and drops them when
    it returns: physics every start, once per pass; the stamped protocol
    checks the correct nodes' receptions and declarations; the adversary
    check each adversarial cast and the receptions that may justify it;
    a node's view index (``_ViewIndex``) the node's own events.  D can
    reach the product of n distinct denominators (2,000 starts over
    distinct 7-digit primes give about 40,000 bits), but it is kept once.

    Three indexes are built on first use and kept for the life of the
    trace, which never changes, so they never go stale.  The first call
    of ``by_actor`` (or ``project_local``) groups the events by actor in
    one pass, holding one more reference per event.  The first call of
    ``receptions_of`` groups the receptions by message in one pass,
    holding one more reference per reception.  The first projection of
    a node at a cutoff pairs that node's broadcasts, receptions and
    declarations, in canonical order and with no sort, with the tick
    they become visible, in O(k) for k such events; it holds one pair
    per such event, plus one entry per reception keyed by its start.
    """

    __slots__ = ("events", "_by_actor", "_by_msg", "_views", "_den")

    def __init__(self, events: Iterable[Event] = ()):
        ordered = sorted(events, key=_order_key)
        keys = list(map(attrgetter("_order"), ordered))
        # each key against the one before it (None before the first)
        self.events: tuple[Event, ...] = tuple(compress(ordered, map(ne, keys, [None, *keys])))
        self._by_actor: Optional[dict[NodeId, tuple[Event, ...]]] = None
        self._by_msg: Optional[dict[Message, tuple[Receive, ...]]] = None
        self._views: Optional[dict[NodeId, _ViewIndex]] = None
        self._den: Optional[int] = None

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __contains__(self, event: object) -> bool:
        if not isinstance(event, _OrderSlot):
            return False
        i = bisect_left(self.events, _order_key(event), key=_order_key)
        return self.events[i : i + 1] == (event,)

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

    def ticks(self, den: int = 1) -> Ticks:
        """The ticks of a check of this trace, over the lcm of the trace's
        D and den: every start and message duration of the trace is an
        int by them."""
        if self._den is None:
            self._den = _denominator(self.events)
        return Ticks(math.lcm(self._den, den))

    def _view_index(self, node: NodeId) -> _ViewIndex:
        if self._views is None:
            self._views = {}
        index = self._views.get(node)
        if index is None:
            index = self._views[node] = _ViewIndex(self.by_actor(node), self.ticks())
        return index


# ---------------------------------------------------------------------------
# settings

Interval = tuple[Fraction, Optional[Fraction]]  # [start, end), end=None means unbounded
# (receiver, link up over the reception window, root r = c·|ab| or None when
# irrational) per receiver a transmission reaches
Coverage = tuple[tuple[NodeId, bool, Optional[int]], ...]


class Setting:
    """Static world: nodes, locations, types and the directed link schedule.

    Undeclared directed links are permanently down; self-links are
    implicitly up forever and may not be declared.

    Construction normalizes each distinct schedule object once (links
    often share one, as every link a scenario file gives the same phase
    text does), through a memo for the call keyed by the object's ``id()``.

    Construction also indexes the link graph: ``reachable[n]`` holds n
    itself and every node with a declared link from n, in node order.
    These are the only nodes a transmission by n can ever reach, so
    coverage is worked out over them alone.  The index is built once
    from the declared links, in O(n + links log links), and holds one
    reference per node and per link.

    The setting also keeps two memos, each filled the first time a check
    asks for an entry and kept for the life of the setting, so each fact
    below is worked out at most once whatever checks run on it.  Neither
    is part of the setting's value: equality ignores them.

    - ``dist_ratio``, the root memo: one int or None per unordered pair
      of distinct nodes a check read, keyed by ``(a, b)`` with a <= b.
      The int is r = c·|ab|, with c the lcm of the coordinates'
      denominators (``_lattice``), and None marks an irrational
      distance.  Exact distances, flight times in ticks and relay gaps
      are all read from it, in integers.  Only checks fill it: reading a
      scenario (``first_irrational_pair``) keeps no root.
    - ``_Physics.coverage``: per transmission, one ``(receiver, link up
      over the reception window, r)`` entry per reachable receiver the
      sector holds, keyed by the event under ``params.v``; the table for
      a speed is made when its first transmission is covered.  r is the
      pair's root from the root memo, None when it is irrational, so a
      pass reads a covered receiver's flight as r times one int of its
      own (see ``_Physics``).  ``induced_receives`` and
      ``check_setting_feasible`` share it, in either mode, and it keeps
      no instant, so checks over any denominator share it too, and each
      cast's sector is decided once per reachable receiver.  Unlike the
      root memo it grows with the distinct transmissions checked, not
      with the setting: a long-lived setting keeps them all.

    ``_lattice`` keeps, from the first exact-mode read, exact distance,
    sector decision or physics pass on, the lcm c of the coordinates'
    denominators, each node's coordinates times c as ints, and the lcm
    of the link bounds' denominators.
    """

    __slots__ = (
        "nodes",
        "loc",
        "node_type",
        "link_schedule",
        "reachable",
        "_roots",
        "_coverage",
        "_lattice",
    )

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
        # locations are told apart by their integer ratios, which hash
        # cheaply and are equal exactly when the coordinates are
        placed: dict[tuple[int, int, int, int], NodeId] = {}
        for node in self.nodes:
            if node not in self.loc or node not in self.node_type:
                raise UnknownNode(f"node {echo(node)} lacks a location or type")
            if self.node_type[node] not in (CORRECT, ADVERSARIAL):
                raise ValueError(f"bad node type for {echo(node)}")
            p = self.loc[node]
            try:
                ratios = p[0].as_integer_ratio() + p[1].as_integer_ratio()
            except (ValueError, OverflowError):  # a float NaN or infinity
                for axis, x in zip("xy", p):
                    _signed(x, f"{axis} of node {echo(node)}")
                raise
            if ratios in placed:
                x, y = (echo(format_scalar(c), quote=False) for c in p)
                raise ValueError(
                    f"nodes {echo(placed[ratios])} and {echo(node)} share location ({x}, {y})"
                )
            placed[ratios] = node
        normalized: dict[tuple[NodeId, NodeId], tuple[Interval, ...]] = {}
        # links often share one schedule object: each is normalized once; the
        # list holds every object for the loop, so that no id is reused in it
        seen: dict[int, tuple[Interval, ...]] = {}
        for (a, b), intervals in list((link_schedule or {}).items()):
            if a not in self.loc or b not in self.loc:
                raise UnknownNode(f"link ({echo(a)}, {echo(b)}) references undeclared node")
            if a == b:
                raise ValueError("self-links are implicit and may not be declared")
            merged = seen.get(id(intervals))
            if merged is None:
                merged = seen[id(intervals)] = _normalize_intervals(intervals)
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
        self._roots: dict[tuple[NodeId, NodeId], Optional[int]] = {}
        self._coverage: dict[Fraction, dict[Event, Coverage]] = {}
        self._lattice: Optional[tuple[int, dict[NodeId, tuple[int, int]], int]] = None

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
    items = intervals
    if len(items) > 1:  # most links have one phase: nothing to sort
        items = sorted(intervals, key=lambda iv: (iv[0], iv[1] is not None, iv[1] or 0))
    merged: list[list] = []
    for start, end in items:
        _check_time(start, "link interval start")
        if end is not None:
            _signed(end, "link interval end")
            if end <= start:
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


def _lattice(setting: Setting) -> tuple[int, dict[NodeId, tuple[int, int]], int]:
    """The setting's integer geometry: c, the lcm of the coordinates'
    denominators; each node's coordinates times c, as ints; and the lcm
    of the link bounds' denominators.  Worked out on first ask and kept
    in the setting's slot of that name: O(n + links) once per setting."""
    if setting._lattice is None:
        loc = setting.loc
        ratios = {n: (x.as_integer_ratio(), y.as_integer_ratio()) for n, (x, y) in loc.items()}
        c = math.lcm(*[d for p in ratios.values() for _, d in p])
        coords = {n: (x * (c // dx), y * (c // dy)) for n, ((x, dx), (y, dy)) in ratios.items()}
        bounds = [b for phases in setting.link_schedule.values() for phase in phases for b in phase]
        links = math.lcm(*[b.as_integer_ratio()[1] for b in bounds if b is not None])
        setting._lattice = (c, coords, links)
    return setting._lattice


def _root(
    setting: Setting, coords: Mapping[NodeId, tuple[int, int]], a: NodeId, b: NodeId
) -> Optional[int]:
    """r = c·|ab| (see ``dist_ratio``), or None when the distance is irrational.

    r is math.isqrt of the pair's integer squared distance over the 1/c
    grid (coords, from ``_lattice``), read from and kept in the setting's
    root memo, so each pair's root is taken once per setting; no
    Fraction is built.
    """
    if a == b:
        if a not in coords:
            raise UnknownNode(f"node {a!r} not in setting")
        return 0
    key = (a, b) if a < b else (b, a)
    try:
        return setting._roots[key]
    except KeyError:
        for node in (a, b):
            if node not in coords:
                raise UnknownNode(f"node {node!r} not in setting") from None
        r = setting._roots[key] = _take_root(coords, *key)
        return r


def first_irrational_pair(setting: Setting) -> Optional[tuple[NodeId, NodeId]]:
    """The first node pair, in node order, whose distance is irrational.

    One pass over the pairs up to that one, on the setting's lattice ints
    (``_lattice``), takes one ``math.isqrt`` per pair inline and keeps
    nothing: the root memo is left to the checks, which read the roots
    of the pairs they ask about, on a scenario often far fewer than the
    n(n-1)/2 pairs scanned here.
    """
    _, coords, _ = _lattice(setting)
    points = [coords[n] for n in setting.nodes]
    for i, (xa, ya) in enumerate(points):
        for j, (xb, yb) in enumerate(points[i + 1 :], i + 1):
            sq = (xa - xb) ** 2 + (ya - yb) ** 2
            if math.isqrt(sq) ** 2 != sq:
                return setting.nodes[i], setting.nodes[j]
    return None


def _take_root(coords: Mapping[NodeId, tuple[int, int]], a: NodeId, b: NodeId) -> Optional[int]:
    """c·|ab| from the nodes' coordinates times c, or None when it is irrational."""
    n = _squared(coords, a, b)
    r = math.isqrt(n)
    return r if r * r == n else None


def _squared(coords: Mapping[NodeId, tuple[int, int]], a: NodeId, b: NodeId) -> int:
    """(c·|ab|)², from the nodes' coordinates times c."""
    (xa, ya), (xb, yb) = coords[a], coords[b]
    return (xa - xb) ** 2 + (ya - yb) ** 2


def _irrational(setting: Setting, a: NodeId, b: NodeId) -> IrrationalDistance:
    """The IrrationalDistance of a pair, with the message ``rational.exact_sqrt``
    gives for its squared distance."""
    return not_a_square(sq_dist(setting.loc[a], setting.loc[b]))


def dist_ratio(setting: Setting, a: NodeId, b: NodeId) -> tuple[int, int]:
    """The exact distance between two nodes as integers (r, c), c > 0,
    not reduced: c is the lcm of the setting's coordinate denominators
    (``_lattice``) and r = c·|ab|, from the root memo.  An irrational
    distance raises IrrationalDistance.
    """
    c, coords, _ = _lattice(setting)
    r = _root(setting, coords, a, b)
    if r is None:
        raise _irrational(setting, a, b)
    return r, c


def flight_ticks(
    setting: Setting,
    speed: Fraction,
    den: int,
    num: Num = EXACT,
    lead: Fraction = Fraction(0),
) -> Callable[[NodeId, NodeId], tuple[int, int]]:
    """The reader of the instant x = lead + |ab|/speed, for node pairs (a,
    b), in ticks of 1/den, as the least and the greatest tick that count as
    x: (ceil(x·den), floor(x·den)), one tick when x is on the grid and none
    otherwise.  The constants are worked out once, here.

    With r = c·|ab| as in ``dist_ratio``, x·den is one fraction whose
    numerator holds r times an int k.  A rational r gives it exactly.  An
    irrational r raises IrrationalDistance in exact mode.  In approximate
    mode x has no rational value, and every tick within num.epsilon of it
    counts as x: (ceil(x·den) - E, floor(x·den) + E), for E = epsilon·den,
    an int, since den is a multiple of epsilon's denominator.  k·r is read
    as its floor, math.isqrt of (k·r)², which gives floor(x·den) exactly,
    and the ceiling is one more: x lies strictly between two ticks.  This
    is the one place where epsilon meets a flight.
    """
    (p, q), (m, n) = lead.as_integer_ratio(), speed.as_integer_ratio()
    c, coords, _ = _lattice(setting)
    # den·(p/q + (r/c)/(m/n)) = (p·c·m·den + r·k) / (q·c·m)
    k, head, under = n * q * den, p * c * m * den, q * c * m

    def read(a: NodeId, b: NodeId) -> tuple[int, int]:
        r = _root(setting, coords, a, b)
        if r is not None:
            return -(-(head + r * k) // under), (head + r * k) // under
        if num.exact:
            raise _irrational(setting, a, b)
        floor = (head + math.isqrt(_squared(coords, a, b) * k * k)) // under
        slack = Ticks(den).of(num.epsilon)  # E
        return floor + 1 - slack, floor + slack

    return read


def dist(setting: Setting, a: NodeId, b: NodeId) -> Fraction:
    """Euclidean distance between two nodes of the setting: Fraction(r, c)
    from ``dist_ratio`` and the root memo."""
    return Fraction(*dist_ratio(setting, a, b))


def time_of_flight(setting: Setting, params: SystemParams, a: NodeId, b: NodeId) -> Fraction:
    """Signal flight time between two nodes, dist / v, from the setting's root memo."""
    return dist(setting, a, b) / params.v


def link_up_over(setting: Setting, a: NodeId, b: NodeId, t0: Fraction, t1: Fraction) -> bool:
    """True iff the directed link a -> b is up at every point of the closed interval [t0, t1]."""
    if t0 > t1:
        raise ValueError("empty interval")
    return a == b or _up_over(setting.link_schedule.get((a, b), ()), t0, t1)


def _up_over(phases: Sequence[Interval], t0: Fraction, t1: Fraction) -> bool:
    """Whether the union of the sorted, merged phases holds all of [t0, t1]."""
    cursor = t0
    for start, end in phases:
        if start > cursor:
            return False
        if end is None or end > t1:
            return True
        if end > cursor:
            cursor = end
    return False


# a sector as the integer ratios of its direction and angle: (dn, dd, an, ad)
Sector = tuple[int, int, int, int]

# a sector ray's direction: ints at quarter turns, floats at other angles (F2)
Ray = Union[tuple[int, int], tuple[float, float]]

# the ray k quarter turns from the x axis
_QUARTER_VECTORS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _direction_vector(n: int, d: int) -> Ray:
    """The unit vector at n/d of pi, for d > 0: ints at quarter turns,
    floats of n/d elsewhere (int true division rounds correctly, so this is
    float(Fraction(n, d)))."""
    n %= 2 * d
    if 2 * n % d == 0:
        return _QUARTER_VECTORS[2 * n // d]
    radians = math.pi * (n / d)
    return (math.cos(radians), math.sin(radians))


@lru_cache(maxsize=256)
def _sector_rays(dn: int, dd: int, an: int, ad: int) -> tuple[Ray, Ray]:
    """The opening and closing ray vectors of a sector, from its integer
    ratios (``Sector``): int vectors at quarter turns, which decide their
    side in ints on the setting's lattice, float ones elsewhere.

    Kept for the last 256 sectors.  ``inrange`` keeps no decision, and
    the settings built one per attack plan cast the same few sectors, so
    every decision on a sector seen before, in any setting, takes its
    rays from here rather than from cos and sin.
    """
    return _direction_vector(dn, dd), _direction_vector(dn * ad + an * dd, dd * ad)


def _cross(a: tuple, b: tuple) -> Union[int, float]:
    return a[0] * b[1] - a[1] * b[0]


def _float_offset(u: tuple[int, int], c: int) -> tuple[float, float]:
    """The floats of the offset u/c, each correctly rounded (int true
    division), so float(Fraction(x, c)) for each coordinate x of u."""
    x, y = u
    try:
        return (x / c, y / c)
    except OverflowError:
        # An offset beyond float range, scaled below 2**1000 by a power of
        # two, fits, and a positive scale keeps the sign of every cross
        # product.  An offset that fits is never scaled.
        scale = c * 2 ** ((max(abs(x), abs(y)) // c).bit_length() - 1000)
        return (x / scale, y / scale)


def _in_sector(u: tuple[int, int], c: int, sector: Sector) -> bool:
    """Whether the offset u/c from the apex lies in the closed sector, for
    u != (0, 0) and angle < 2.

    u is an offset on the setting's lattice (``_lattice``), in ints.  A
    quarter-turn ray's cross product with it is an int, so its side is
    exact.  Any other ray is crossed with the floats of u/c (F2).
    """
    e0, e1 = _sector_rays(*sector)
    v0 = _float_offset(u, c) if isinstance(e0[0], float) else u
    v1 = _float_offset(u, c) if isinstance(e1[0], float) else u
    if sector[2] <= sector[3]:  # angle <= 1
        return _cross(e0, v0) >= 0 and _cross(v1, e1) >= 0
    # reflex sector: everything except the strict interior of the complement
    return not (_cross(e1, v1) > 0 and _cross(v0, e0) > 0)


def inrange(
    setting: Setting, a: NodeId, direction: Fraction, angle: Fraction, b: NodeId
) -> bool:
    """Sector membership test for directional transmission coverage.

    The sector is closed at both boundary rays, contains its apex, and a
    full-turn angle covers everything.  Direction and angle are read once,
    as integer ratios, and the offset from a to b is taken on the
    setting's integer lattice (``_lattice``): quarter-turn boundaries are
    decided exactly, by int cross products; other boundaries use floats of
    the exact offset.  Nothing is kept: the physics check reads each
    cast's decisions once per setting from the coverage memo (see
    ``Setting``).
    """
    dn, dd = direction.as_integer_ratio()
    an, ad = angle.as_integer_ratio()
    if b == a or an >= 2 * ad:
        return True
    c, coords, _ = _lattice(setting)
    (ax, ay), (bx, by) = coords[a], coords[b]
    return _in_sector((bx - ax, by - ay), c, (dn, dd, an, ad))


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

    A view ``project_local`` returns at a cutoff is the node's
    ``_ViewIndex`` and the cutoff tick, with no bisection and nothing
    copied; its ``events`` are built on first read.  Equality, hashing,
    repr, pickling and copying see the five fields.
    """

    flavor: str
    owner: NodeId
    as_of: Optional[Fraction]
    owner_loc: Optional[Point]
    events: frozenset[LocalEvent]

    _cut = None  # (index, cutoff tick) on a view project_local returns at a cutoff

    def __getattr__(self, name: str) -> frozenset[LocalEvent]:
        if name != "events" or self._cut is None:
            raise AttributeError(name)
        index, cutoff = self._cut
        visible = frozenset(_local_event(e) for tick, e in index.own if tick < cutoff)
        object.__setattr__(self, "events", visible)
        return visible

    def __reduce__(self) -> tuple:
        return LocalView, (self.flavor, self.owner, self.as_of, self.owner_loc, self.events)

    def receives(self) -> Iterator[LocalReceive]:
        """The view's receptions, at a cutoff one per delivery (see ``_ViewIndex``)."""
        if self._cut is None:
            return (e for e in self.events if isinstance(e, LocalReceive))
        index, cutoff = self._cut
        return (
            LocalReceive(e.start, e.msg)
            for tick, e in index.own
            if tick < cutoff and isinstance(e, Receive)
        )

    def receptions_at(self, t: Fraction) -> list[LocalReceive]:
        """The view's receptions that start at t."""
        at = t.as_integer_ratio()  # as exact as ==, and cheaper on Fractions
        if self._cut is None:
            return [r for r in self.receives() if r.start.as_integer_ratio() == at]
        index, cutoff = self._cut
        return [LocalReceive(r.start, r.msg) for tick, r in index.at.get(at, ()) if tick < cutoff]


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
    """One node's broadcasts, receptions and declarations in a trace, in
    canonical order, each with the tick from which the node sees it.

    own[i] is a (tick, event) pair; the tick is the start of a broadcast
    or declaration and the end of a reception, read by ``ticks``, the
    trace's own (``Trace.ticks``).  The trace keeps only its D, so the
    index reads the node's instants itself, once, when it is built.
    Under the strict cutoff the view as of t therefore holds exactly the
    events whose tick is below ticks.ceil(t), for any t, on the grid or
    off it.  at maps each reception start's integer ratio to
    the (tick, reception) pairs that start there.  Two senders'
    deliveries of one message at one start are two entries.  Nothing is
    sorted and no local event is made here: a view makes them when it is
    read.
    """

    __slots__ = ("ticks", "own", "at")

    def __init__(self, own: tuple[Event, ...], ticks: Ticks):
        self.ticks = ticks
        self.own: list[tuple[int, Event]] = []
        self.at: dict[tuple[int, int], list[tuple[int, Receive]]] = {}
        for e in own:
            if isinstance(e, Dcast):
                continue
            tick = ticks.of(e.start)
            if isinstance(e, Receive):
                tick += ticks.of(e.msg.duration)
                self.at.setdefault(e.start.as_integer_ratio(), []).append((tick, e))
            self.own.append((tick, e))


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
    of the node's events.  A view at a cutoff is the node's index plus
    the cutoff tick ticks.ceil(as_of): no bisection and no copy, so it
    costs O(1) once the index is built, and reading it filters the index.
    """
    if flavor not in (T_FLAVOR, TL_FLAVOR):
        raise ValueError(f"unknown view flavor {flavor!r}")
    if flavor == TL_FLAVOR and setting is None:
        raise FlavorMismatch("location-aware views require a setting")
    if setting is not None and node not in setting.loc:
        raise UnknownNode(f"node {node!r} not in setting")
    owner_loc = setting.loc[node] if (flavor == TL_FLAVOR and setting) else None
    if as_of is None:
        own = map(_local_event, trace.by_actor(node))
        events = frozenset(local for local in own if local is not None)
        return LocalView(flavor, node, as_of, owner_loc, events)
    index = trace._view_index(node)
    view = object.__new__(LocalView)  # events stays unset until read
    cut = (index, index.ticks.ceil(as_of))
    vars(view).update(flavor=flavor, owner=node, as_of=as_of, owner_loc=owner_loc, _cut=cut)
    return view


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


def _grid(setting: Setting, params: SystemParams) -> int:
    """A multiple of the denominator of every link bound and every rational flight time.

    With c the lcm of the coordinates' denominators (``_lattice``), a
    rational distance between two points of the 1/c grid is r/c for the
    int r of the root memo (``dist_ratio``), so a rational flight time
    is r·v.denominator/(c·v.numerator): no flight time, and no square
    root, is asked for.  The grid is a multiple of c·v.numerator, so a
    pass over it reads each rational flight time as an int
    (``flight_ticks``).
    """
    coords, _, links = _lattice(setting)
    return math.lcm(coords * params.v.numerator, links)


class _Physics:
    """One physics pass: its ticks, and what it reads by them.

    Each link's phases are read in ticks the first time the pass asks
    for them, and kept for the pass.  The ticks are over a multiple D of
    ``_grid``, so D is a multiple of c·m, with c from ``_lattice`` and
    v = m/n, and a rational flight time r/(c·v) is exactly r·``scale``
    ticks, scale = n·(D // (c·m)), for the root r = c·|ab| of the root
    memo.  A covered receiver's flight is read that way, from the r its
    coverage entry keeps: no pair lookup, no division.

    ``flight[a, b]`` is the flight time from a to b in ticks, as the least
    and the greatest tick that count as it (``flight_ticks``), in the
    pass's flight memo (``_PairMemo``): each ordered pair it is asked
    about is read once and kept for the pass.  It serves what a kept root
    cannot: an irrational pair, which raises IrrationalDistance in exact
    mode and reads as the ticks within epsilon of it in approximate mode,
    and the receptions that ``check_setting_feasible`` matches by a scan.
    A directional cast's sector is decided (``inrange``, which keeps
    nothing) once per reachable receiver, when ``coverage`` first covers
    the cast.
    """

    __slots__ = ("setting", "params", "ticks", "scale", "memo", "links", "flight")

    def __init__(self, setting: Setting, params: SystemParams, num: Num, ticks: Ticks):
        self.setting, self.params, self.ticks = setting, params, ticks
        (m, n), c = params.v.as_integer_ratio(), _lattice(setting)[0]
        self.scale = n * (ticks.den // (c * m))  # D is a multiple of c·m (_grid)
        self.memo: Optional[dict[Event, Coverage]] = None  # the setting's, for this speed
        self.links: dict[tuple[NodeId, NodeId], tuple[tuple[int, Optional[int]], ...]] = {}
        self.flight = _PairMemo(flight_ticks(setting, params.v, ticks.den, num))

    def up(self, a: NodeId, b: NodeId, t0: int, t1: int) -> bool:
        """link_up_over, on ticks."""
        if a == b:
            return True
        phases = self.links.get((a, b))
        if phases is None:
            of = self.ticks.of
            phases = self.links[(a, b)] = tuple(
                (of(start), end if end is None else of(end))
                for start, end in self.setting.link_schedule.get((a, b), ())
            )
        return _up_over(phases, t0, t1)

    def coverage(self, e: Union[Bcast, Dcast]) -> Coverage:
        """(node, link up, r) for every node a transmission reaches, in node order.

        A broadcast reaches every node, the sender included; a directional
        cast reaches the nodes its sector holds.  A reached node receives
        one flight time after the start if its link from the sender is up
        over the whole reception window, which the second field tells; r
        is the pair's root (``_root``), None when it is irrational.  An
        undeclared link is never up, so only the nodes in
        ``setting.reachable`` are listed.  The tuple is read from and kept
        in the setting's coverage memo (see ``Setting``), so each
        transmission's sector tests and link scans are done once per
        setting and signal speed, whatever the mode or the ticks of the
        pass; each pass adds the start and flight ticks itself, the flight
        as r·scale.

        The window of an irrational arrival is scanned from the arrival's
        floor tick.  That is exact: phase bounds are ticks, and a tick is
        at most an irrational instant exactly when it is at most its floor.
        The flight memo's reading is symmetric about the instant, so the
        floor of its midpoint is that floor tick, whatever epsilon.
        """
        setting, memo = self.setting, self.memo
        if memo is None:
            memo = self.memo = setting._coverage.setdefault(self.params.v, {})
        cover = memo.get(e)
        if cover is None:
            reach = setting.reachable.get(e.actor)
            if reach is None:
                raise UnknownNode(f"node {e.actor!r} not in setting")
            actor, ticks, coords, entries = e.actor, self.ticks, _lattice(setting)[1], []
            start, span = ticks.of(e.start), ticks.of(e.msg.duration)
            for dest in reach:
                if isinstance(e, Dcast) and not inrange(setting, actor, e.direction, e.angle, dest):
                    continue
                r = _root(setting, coords, actor, dest)
                at = start + (sum(self.flight[actor, dest]) // 2 if r is None else r * self.scale)
                entries.append((dest, self.up(actor, dest, at, at + span), r))
            cover = memo[e] = tuple(entries)
        return cover


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

    Every instant is compared as the integer t·D (see ``Ticks``).  D is
    the lcm of the trace's D (see ``Trace``), of every link bound's
    denominator, of a multiple of every rational flight time's
    (``_grid``, from the coordinates, asking for no flight time) and of
    the denominator of num.epsilon, so that epsilon is a whole number of
    ticks.  It is put together at each call from the D the trace keeps
    and the lcms the setting keeps.  Each event's start is read by it
    once, into a list in canonical order, and the link phases the call
    asks for are taken to ticks once each; all are dropped when it
    returns.  A flight time reads as the least and the greatest tick that
    count as it, early and late, and a reception at A is one flight time
    after a send at S exactly when S + early <= A <= S + late.  A rational
    flight is one tick, early = late, in either mode; only an irrational
    flight, in approximate mode, spans the ticks within epsilon of it
    (``flight_ticks``).  A covered receiver's rational flight is r·scale,
    from the root its coverage entry keeps (see ``_Physics``); the pass's
    flight memo (one read per pair) serves an irrational covered pair and
    the receptions matched by a scan.

    Matching goes through indexes built at each call and dropped when it
    returns: the broadcast starts and directional casts keyed by
    ``(sender, msg)`` and the reception starts keyed by ``(receiver,
    sender, msg)``, built in one pass; and the arrivals over rational
    flights of the transmissions met so far, keyed by ``(receiver,
    sender, msg, arrival)``, each with its link fact from the setting's
    coverage memo (see ``Setting``) and the kinds of transmission that
    arrive there.  A covered node is compared with the receptions
    of its message between its two nodes only.

    A reception whose start is an indexed arrival takes its match
    (broadcast, directional cast or both) and its link fact from that
    one entry.  Every transmission it can match comes before it
    in canonical order: it starts one flight time earlier, and the
    flight time is zero only for the receiver's own transmission (no two
    nodes share a location), which sorts before its reception at the
    same start.  So the entries met so far are all the matches.  The
    other receptions are matched by a scan of their sender's
    transmissions of the message, one flight time earlier, and their
    link is scanned afresh: those over an undeclared link, those at an
    instant no transmission explains, and those over an irrational flight.
    """
    violations: list[Violation] = []
    known = set(setting.nodes)
    ticks = trace.ticks(math.lcm(_grid(setting, params), num.epsilon.as_integer_ratio()[1]))
    phys = _Physics(setting, params, num, ticks)
    scale, events = phys.scale, trace.events
    starts = [ticks.of(e.start) for e in events]

    # starts come in canonical order, so each list of starts is sorted (bisect)
    bcast_starts: dict[tuple[NodeId, Message], list[int]] = {}
    dcasts: dict[tuple[NodeId, Message], list[tuple[int, Dcast]]] = {}
    receive_starts: dict[tuple[NodeId, NodeId, Message], list[int]] = {}
    for e, at in zip(events, starts):
        kind = type(e)
        if kind is Receive:
            receive_starts.setdefault((e.actor, e.sender, e.msg), []).append(at)
        elif kind is Bcast:
            bcast_starts.setdefault((e.actor, e.msg), []).append(at)
        elif kind is Dcast:
            dcasts.setdefault((e.actor, e.msg), []).append((at, e))

    # (link up, by a broadcast, by a directional cast) per (receiver, sender,
    # message, arrival) of the transmissions met so far, over rational flights
    arrivals: dict[tuple[NodeId, NodeId, Message, int], tuple[bool, bool, bool]] = {}

    for e, at in zip(events, starts):
        kind = type(e)  # the one type test; events are never subclassed
        if e.actor not in known or kind is Receive and e.sender not in known:
            for node in (e.actor, e.sender) if kind is Receive else (e.actor,):
                if node not in known:
                    violations.append(
                        Violation("unknown-node", (e,), f"node {node!r} is not part of the setting")
                    )
            continue

        if kind is Receive:
            met = arrivals.get((e.actor, e.sender, e.msg, at))
            if met is not None:
                link_up, bcast_match, dcast_match = met
            else:
                link_up = phys.up(e.sender, e.actor, at, at + ticks.of(e.msg.duration))
                early, late = phys.flight[e.sender, e.actor]
                # the sends S with S + early <= at <= S + late
                low, high = at - late, at - early
                source = (e.sender, e.msg)
                sent = bcast_starts.get(source, ())
                bcast_match = bisect_left(sent, low) < bisect_right(sent, high)
                dcast_match = any(
                    low <= start <= high
                    and inrange(setting, e.sender, d.direction, d.angle, e.actor)
                    for start, d in dcasts.get(source, ())
                )
            if not link_up:
                violations.append(
                    Violation(
                        "receive-link-down",
                        (e,),
                        f"link {e.sender}->{e.actor} not up over the reception window",
                    )
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

        elif kind is not Neighbor:
            by_bcast = kind is Bcast
            if by_bcast:
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
            for dest, up, r in phys.coverage(e):
                # the receptions A with S + early <= A <= S + late
                if r is None:  # irrational: exact mode raises here
                    low, high = (at + tick for tick in phys.flight[e.actor, dest])
                else:  # one tick, indexed for the receptions met later
                    low = high = at + r * scale
                    key = (dest, e.actor, e.msg, low)
                    _, bcast_met, dcast_met = arrivals.get(key, (up, False, False))
                    arrivals[key] = (up, bcast_met or by_bcast, dcast_met or not by_bcast)
                found = receive_starts.get((dest, e.actor, e.msg), ())
                if up and bisect_left(found, low) == bisect_right(found, high):
                    violations.append(
                        Violation(rule, (e,), f"{dest} {reach} but no matching reception")
                    )

    return Verdict(tuple(violations))


def induced_receives(sends: Iterable[Event], setting: Setting, params: SystemParams) -> list[Receive]:
    """All receptions that the given transmissions force to exist.

    Reads each transmission's coverage from the setting's coverage memo
    (``_Physics.coverage``), filling it where the transmission is new, on
    ticks over the lcm of the sends' start and duration denominators and
    ``_grid``'s, and keeps the receivers whose link is up, one flight
    time after the start: r·scale ticks, from the root each coverage
    entry keeps (see ``_Physics``), so no flight is read.  It is the same
    table check_setting_feasible matches receptions against, so a trace
    assembled from sends plus their induced receives passes the
    physical-consistency check by construction, and checking it against
    the same setting works out no coverage again: in exact mode each of
    its receptions is a table hit, with no flight-time subtraction and no
    link scan.  A covered irrational distance raises IrrationalDistance,
    from the pass's flight memo, whether or not its link is up and even
    where an approximate check kept its coverage: its arrival is no
    instant of a trace.
    """
    sends = [e for e in sends if isinstance(e, (Bcast, Dcast))]
    ticks = Ticks(math.lcm(_grid(setting, params), _denominator(sends)))
    phys = _Physics(setting, params, EXACT, ticks)
    scale, induced = phys.scale, []
    for e in sends:
        start = ticks.of(e.start)
        for dest, up, r in phys.coverage(e):
            # an irrational r raises, link up or not, as a cold coverage does
            at = start + (phys.flight[e.actor, dest][0] if r is None else r * scale)
            if up:
                induced.append(Receive(dest, Fraction(at, ticks.den), e.actor, e.msg))
    return induced
