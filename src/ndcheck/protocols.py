"""Protocol models and protocol-conformance checkers.

A protocol model maps a node's local view to a finite, non-empty set of
permitted actions (do nothing, broadcast a message, declare a neighbor).
The set answers membership one action at a time: a broadcast costs one
beacon built, a declaration one lookup of the view's receptions at its
peer time and the acceptance test on those.  Four concrete protocols
are provided:

- naive:      broadcast a bare identity token, accept any received one;
- pt:         time-stamped authenticated beacons, accept a creator as a
              neighbor iff the beacon age at reception is within the
              discovery range divided by the signal speed;
- pgt:        time- and location-stamped beacons, accept iff the
              time-derived and location-derived distance estimates agree
              exactly (compared on squares, so everything stays rational);
- pgt-approx: as pgt but with measurement slack, accepting when the two
              estimates are within delta + tau of each other.

``PROTOCOLS`` is the one place where these rules live.  Each entry holds
the view flavor, the beacon a correct node sends and the acceptance test
for a reception; decision functions, checkers, attack synthesis and the
trace generators all read it.

Two checking routes read the table and state each rule through it
alone: a correct node's broadcast is held against ``spec.beacon`` at its
start and the node's location, and a declaration is backed when
``spec.accepts`` takes one of the node's completed receptions, starting
at the declared peer time, for the declared peer.
``check_protocol_feasible`` is generic: it asks the decision function to
permit every broadcast and declaration a correct node performed, each
in the node's view at its start.  The direct ``check_pt_feasible`` /
``check_pgt_feasible`` walk the trace itself, exactly or in an
approximate mode; ``protocol_verdict`` uses them for every protocol with
stamped beacons, and the command-line checker uses ``protocol_verdict``.
The routes differ only in that traversal, in the rules they name (the
generic ``bcast-not-permitted`` and ``neighbor-not-permitted``, the
direct route's field by field ``bcast-not-a-beacon``, ``beacon-*`` and
``neighbor-unjustified``) and on pgt-approx (F1): the direct checker
admits stamps skewed within the error bounds (delta, tau), while the
decision function offers exact stamps only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Set
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import AbstractSet, Callable, Optional, Union

from .core import (
    Bcast,
    BeaconT,
    BeaconTL,
    FlavorMismatch,
    LocalReceive,
    LocalView,
    Message,
    Neighbor,
    NodeId,
    Opaque,
    Point,
    Receive,
    Setting,
    SystemParams,
    T_FLAVOR,
    TL_FLAVOR,
    Trace,
    Verdict,
    Violation,
    per_speed,
    project_local,
    sq_dist,
)
from .rational import EXACT, Num, Real

NAIVE = "naive"
PT = "pt"
PGT = "pgt"
PGT_APPROX = "pgt-approx"

NAIVE_TOKEN_PREFIX = "id-"


@dataclass(frozen=True)
class EpsilonAction:
    """Do nothing (receptions excepted)."""


@dataclass(frozen=True)
class BcastAction:
    msg: Message


@dataclass(frozen=True)
class NeighborAction:
    peer: NodeId
    peer_time: Fraction


Action = Union[EpsilonAction, BcastAction, NeighborAction]

EPSILON = EpsilonAction()


@dataclass(frozen=True)
class InaccuracyParams:
    """Measurement error bounds, both expressed in time units.

    delta bounds the error of any delay measurement; tau bounds the
    location error divided by the signal speed, so the two add directly.
    """

    delta: Fraction = Fraction(0)
    tau: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.delta < 0 or self.tau < 0:
            raise ValueError("delta and tau must be >= 0")

    @property
    def window(self) -> Fraction:
        return self.delta + self.tau


@dataclass(frozen=True)
class ProtocolModel:
    name: str
    flavor: str
    decide: Callable[[LocalView], AbstractSet[Action]]


# ---------------------------------------------------------------------------
# acceptance predicates, shared by decision functions and direct checkers


def _diff_ratio(x: Fraction, y: Fraction) -> tuple[int, int]:
    """x - y as integers (n, d), d > 0, not reduced."""
    (a, b), (c, d) = x.as_integer_ratio(), y.as_integer_ratio()
    return a * d - c * b, b * d


def pt_accepts(params: SystemParams, receive_start: Fraction, beacon: BeaconT) -> bool:
    """Freshness rule: beacon age at reception start within range/speed (inclusive)."""
    t, s = _diff_ratio(receive_start, beacon.beacon_time)
    n, d = params.range_flight
    return t * d <= n * s  # t/s <= n/d, denominators cleared: s, d > 0


def _sq_dist_ratio(p: Point, q: Point) -> tuple[int, int]:
    """sq_dist(p, q) as integers (n, d), d > 0, not reduced: the acceptance
    tests compare it with squared bounds by cross-multiplying."""
    (x, b), (y, d) = _diff_ratio(p[0], q[0]), _diff_ratio(p[1], q[1])
    return (x * d) ** 2 + (y * b) ** 2, (b * d) ** 2


def pgt_accepts(
    params: SystemParams,
    owner_loc: Point,
    receive_start: Fraction,
    beacon: BeaconTL,
    num: Num = EXACT,
) -> bool:
    """Exact agreement of the time- and location-derived distance estimates.

    Compared on squared distances, in exact mode as integers with every
    denominator cleared; the time estimate stands for a distance, so >= 0.
    """
    if num.exact:
        n, d = _sq_dist_ratio(owner_loc, beacon.beacon_loc)
        t, s = _diff_ratio(receive_start, beacon.beacon_time)
        p, q = params.v.as_integer_ratio()
        return t >= 0 and (p * t) ** 2 * d == n * (q * s) ** 2  # (v·dt)² == n/d
    dt = receive_start - beacon.beacon_time
    squared = sq_dist(owner_loc, beacon.beacon_loc)
    return dt >= 0 and num.eq(dt, per_speed(num.sqrt(squared), params.v, "v"))


def pgt_approx_accepts(
    params: SystemParams,
    owner_loc: Point,
    receive_start: Fraction,
    beacon: BeaconTL,
    inacc: InaccuracyParams,
) -> bool:
    """|time estimate - location estimate| <= delta + tau, decided exactly.

    The location estimate is sqrt(squared)/v and may be irrational, so
    both window bounds are compared as integers by sign-aware squaring.
    """
    n, d = _sq_dist_ratio(owner_loc, beacon.beacon_loc)
    t, s = _diff_ratio(receive_start, beacon.beacon_time)
    w, z = inacc.window.as_integer_ratio()
    p, q = params.v.as_integer_ratio()
    # v·(dt ± window) = p·(t·z ± w·s) / (q·s·z), compared squared with n/d
    upper, lower = t * z + w * s, t * z - w * s
    scaled = n * (q * s * z) ** 2
    if upper < 0 or scaled > (p * upper) ** 2 * d:
        return False
    return lower <= 0 or scaled >= (p * lower) ** 2 * d


# ---------------------------------------------------------------------------
# the protocol table

Reception = Union[Receive, LocalReceive]


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything that tells one protocol from another.

    flavor       view flavor the decision function reads
    beacon       (creator, time, location, params) -> the beacon a correct
                 node broadcasts
    accepts      (params, owner location, reception, inacc, num) -> the
                 peer a completed reception backs, or None
    unjustified  detail of a neighbor-unjustified violation, {peer} standing
                 for the declared peer; None for naive, whose bare tokens
                 carry no stamps, so it has no direct checker and no
                 Dolev-Yao model
    decide       (view, params, inacc) -> the permitted actions
    verdict      (trace, setting, params, inacc, num) -> the conformance
                 verdict of protocol_verdict
    keys         the scenario keys of its [protocol] section besides name:
                 the InaccuracyParams fields it reads, none for the exact
                 protocols

    decide and verdict call the protocol's decision function and checker
    through their module-level names at call time, so a rebound name
    (a profiler's wrapper, say) takes effect.
    """

    name: str
    flavor: str
    beacon: Callable[[NodeId, Fraction, Optional[Point], SystemParams], Message]
    accepts: Callable[
        [SystemParams, Optional[Point], Reception, Optional[InaccuracyParams], Num],
        Optional[NodeId],
    ]
    unjustified: Optional[str]
    decide: Callable[[LocalView, SystemParams, InaccuracyParams], AbstractSet[Action]]
    verdict: Callable[
        [Trace, Setting, SystemParams, Optional[InaccuracyParams], Num], Verdict
    ]
    keys: tuple[str, ...] = ()

    def bounds(self, inacc: Optional[InaccuracyParams]) -> Optional[InaccuracyParams]:
        """The measurement error bounds its stamps and acceptance test admit:
        inacc, zero when None, for a protocol that reads any (``keys``), and
        None for an exact one.  The attack construction takes its slack from
        them."""
        return (inacc or InaccuracyParams()) if self.keys else None


def _tl_beacon(
    creator: NodeId, at: Fraction, loc: Optional[Point], params: SystemParams
) -> BeaconTL:
    return BeaconTL(creator, at, loc, params.msg_duration_default)


_DISTANCE_UNJUSTIFIED = "no distance-consistent beacon from {peer} backs this declaration"

PROTOCOLS: dict[str, ProtocolSpec] = {
    spec.name: spec
    for spec in (
        ProtocolSpec(
            NAIVE,
            T_FLAVOR,
            beacon=lambda creator, at, loc, params: Opaque(
                NAIVE_TOKEN_PREFIX + creator, params.msg_duration_default
            ),
            accepts=lambda params, loc, r, inacc, num: (
                r.msg.token[len(NAIVE_TOKEN_PREFIX):]
                if isinstance(r.msg, Opaque) and r.msg.token.startswith(NAIVE_TOKEN_PREFIX)
                else None
            ),
            unjustified=None,
            decide=lambda view, params, inacc: naive_decide(view, params),
            verdict=lambda trace, setting, params, inacc, num: check_protocol_feasible(
                trace, setting, make_protocol(NAIVE, params), params
            ),
        ),
        ProtocolSpec(
            PT,
            T_FLAVOR,
            beacon=lambda creator, at, loc, params: BeaconT(
                creator, at, params.msg_duration_default
            ),
            accepts=lambda params, loc, r, inacc, num: (
                r.msg.creator
                if isinstance(r.msg, BeaconT) and pt_accepts(params, r.start, r.msg)
                else None
            ),
            unjustified="no fresh completed beacon from {peer} backs this declaration",
            decide=lambda view, params, inacc: pt_decide(view, params),
            verdict=lambda trace, setting, params, inacc, num: check_pt_feasible(
                trace, setting, params, num
            ),
        ),
        ProtocolSpec(
            PGT,
            TL_FLAVOR,
            beacon=_tl_beacon,
            accepts=lambda params, loc, r, inacc, num: (
                r.msg.creator
                if isinstance(r.msg, BeaconTL)
                and pgt_accepts(params, loc, r.start, r.msg, num)
                else None
            ),
            unjustified=_DISTANCE_UNJUSTIFIED,
            decide=lambda view, params, inacc: pgt_decide(view, params),
            verdict=lambda trace, setting, params, inacc, num: check_pgt_feasible(
                trace, setting, params, None, num
            ),
        ),
        ProtocolSpec(
            PGT_APPROX,
            TL_FLAVOR,
            beacon=_tl_beacon,
            accepts=lambda params, loc, r, inacc, num: (
                r.msg.creator
                if isinstance(r.msg, BeaconTL)
                and pgt_approx_accepts(params, loc, r.start, r.msg, inacc)
                else None
            ),
            unjustified=_DISTANCE_UNJUSTIFIED,
            decide=lambda view, params, inacc: pgt_approx_decide(view, params, inacc),
            verdict=lambda trace, setting, params, inacc, num: check_pgt_feasible(
                trace, setting, params, inacc or InaccuracyParams(), num
            ),
            keys=tuple(f.name for f in fields(InaccuracyParams)),
        ),
    )
}

PROTOCOL_NAMES = tuple(PROTOCOLS)


def protocol_spec(name: str) -> ProtocolSpec:
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}") from None


def make_protocol(
    name: str, params: SystemParams, inacc: Optional[InaccuracyParams] = None
) -> ProtocolModel:
    spec = protocol_spec(name)
    ia = inacc if inacc is not None else InaccuracyParams()
    return ProtocolModel(name, spec.flavor, lambda view: spec.decide(view, params, ia))


def protocol_verdict(
    trace: Trace,
    setting: Setting,
    protocol: str,
    params: SystemParams,
    inacc: Optional[InaccuracyParams] = None,
    num: Num = EXACT,
) -> Verdict:
    """Conformance verdict by the protocol's direct checker (naive: the generic route)."""
    return protocol_spec(protocol).verdict(trace, setting, params, inacc, num)


# ---------------------------------------------------------------------------
# decision functions

_VIEW_KINDS = {T_FLAVOR: "time-only", TL_FLAVOR: "location-aware"}


class _Decision(Set):
    """What a protocol permits in one view: idle, broadcast the node's own
    beacon, or declare a peer a reception backs.

    Testing one action builds the beacon, or runs the acceptance test
    only on the view's receptions at the declared peer time, one lookup
    (``LocalView.receptions_at``).  Only iterating lists the whole set,
    built once.  View censoring admits only completed receptions, so a
    declaration offered is strictly later than its reception's end.
    """

    def __init__(self, spec: ProtocolSpec, view: LocalView, params: SystemParams, inacc=None):
        if view.flavor != spec.flavor or (spec.flavor == TL_FLAVOR and view.owner_loc is None):
            raise FlavorMismatch(f"{spec.name} decides on {_VIEW_KINDS[spec.flavor]} views")
        self.view = view
        self._backs = lambda r: spec.accepts(params, view.owner_loc, r, inacc, EXACT)
        self._beacon = lambda: None if view.as_of is None else BcastAction(
            spec.beacon(view.owner, view.as_of, view.owner_loc, params)
        )

    def __contains__(self, action: object) -> bool:
        if isinstance(action, NeighborAction):
            return action.peer is not None and any(
                self._backs(r) == action.peer for r in self.view.receptions_at(action.peer_time)
            )
        return action == (self._beacon() if isinstance(action, BcastAction) else EPSILON)

    @cached_property
    def _listed(self) -> frozenset[Action]:
        backed = ((self._backs(r), r.start) for r in self.view.receives())
        return frozenset({EPSILON, self._beacon()} - {None}).union(
            NeighborAction(peer, at) for peer, at in backed if peer is not None
        )

    def __iter__(self):
        return iter(self._listed)

    def __len__(self) -> int:
        return len(self._listed)

    # equality, hashing and set algebra are those of the listed frozenset
    __hash__ = Set._hash
    _from_iterable = frozenset


def naive_decide(view: LocalView, params: SystemParams) -> AbstractSet[Action]:
    """Identity-token baseline: accepts every received identity, replayed or not."""
    return _Decision(PROTOCOLS[NAIVE], view, params)


def pt_decide(view: LocalView, params: SystemParams) -> AbstractSet[Action]:
    return _Decision(PROTOCOLS[PT], view, params)


def pgt_decide(view: LocalView, params: SystemParams) -> AbstractSet[Action]:
    return _Decision(PROTOCOLS[PGT], view, params)


def pgt_approx_decide(
    view: LocalView, params: SystemParams, inacc: InaccuracyParams
) -> AbstractSet[Action]:
    return _Decision(PROTOCOLS[PGT_APPROX], view, params, inacc)


# ---------------------------------------------------------------------------
# generic conformance checking


# the generic route's rule and detail for a refused action, by its event's
# type; most actions are permitted, so a detail is formatted only on refusal
_REFUSED = {
    Bcast: ("bcast-not-permitted", "{name} does not allow this broadcast at {e.start}"),
    Neighbor: ("neighbor-not-permitted", "{name} does not justify declaring {e.peer}"),
}


def check_protocol_feasible(
    trace: Trace, setting: Setting, protocol: ProtocolModel, params: SystemParams
) -> Verdict:
    """Generic conformance of every correct node's own actions to a protocol model.

    Each broadcast and declaration of a correct node must be a member of
    the decision set for the node's view at the event's start: one view
    and one membership test per such action.  A view is the node's index
    and a cutoff tick, and a declaration tests only the receptions at its
    peer time, so the route is linear in a node's history.  Idling is not
    checked: every decision offers EPSILON, as a property test in
    tests/test_properties.py pins.  The trace is assumed physically consistent.
    """
    violations: list[Violation] = []
    for node in setting.correct_nodes:
        for e in trace.by_actor(node):
            if isinstance(e, Bcast):
                action: Action = BcastAction(e.msg)
            elif isinstance(e, Neighbor):
                action = NeighborAction(e.peer, e.peer_time)
            else:
                continue
            view = project_local(trace, node, e.start, protocol.flavor, setting)
            if action not in protocol.decide(view):
                rule, detail = _REFUSED[type(e)]
                violations.append(Violation(rule, (e,), detail.format(name=protocol.name, e=e)))
    return Verdict(tuple(violations))


# ---------------------------------------------------------------------------
# direct trace predicates

# details of a stamp off the beacon due, without and with measurement slack
_STAMP_DETAILS = {
    False: (
        "beacon time differs from transmission start",
        "beacon location differs from the node's location",
    ),
    True: (
        "beacon time off by more than the time error bound",
        "beacon location off by more than the location error bound",
    ),
}


def beacon_violation(
    spec: ProtocolSpec,
    e: Bcast,
    setting: Setting,
    params: SystemParams,
    inacc: Optional[InaccuracyParams],
    num: Num,
) -> Optional[Violation]:
    """The first field in which a correct node's broadcast differs from the
    beacon it sends, ``spec.beacon`` at the broadcast's start and the
    node's location: kind, creator, duration, then the stamp.

    With measurement slack the stamp may be off by up to delta in time
    and tau·v in location, compared exactly.  Without, there is no slack:
    the time must be num.eq to the start (within num.epsilon in
    approximate mode) and the location must be the node's.
    """
    msg = e.msg
    due = spec.beacon(e.actor, e.start, setting.loc[e.actor], params)
    if msg == due:  # an honest beacon, decided without arithmetic
        return None
    if type(msg) is not type(due):
        return Violation("bcast-not-a-beacon", (e,), "correct nodes broadcast beacons only")
    if msg.creator != due.creator:
        return Violation("beacon-foreign-creator", (e,), f"beacon claims creator {msg.creator}")
    if msg.duration != due.duration:
        return Violation(
            "beacon-duration-mismatch",
            (e,),
            "beacon duration differs from the default message duration",
        )
    time_detail, location_detail = _STAMP_DETAILS[inacc is not None]
    # num.eq(a, b) is abs(a - b) <= num.epsilon, which is 0 in exact mode
    delta, tau = (num.epsilon, Fraction(0)) if inacc is None else (inacc.delta, inacc.tau)
    if abs(msg.beacon_time - due.beacon_time) > delta:
        return Violation("beacon-time-mismatch", (e,), time_detail)
    if isinstance(due, BeaconTL):
        n, d = _sq_dist_ratio(msg.beacon_loc, due.beacon_loc)
        a, b = tau.as_integer_ratio()
        p, q = params.v.as_integer_ratio()
        if n * (b * q) ** 2 > (a * p) ** 2 * d:  # beyond tau·v = (a·p) / (b·q)
            return Violation("beacon-location-mismatch", (e,), location_detail)
    return None


_TICK = itemgetter(0)


def _check_stamped(
    spec: ProtocolSpec,
    trace: Trace,
    setting: Setting,
    params: SystemParams,
    inacc: Optional[InaccuracyParams],
    num: Num,
) -> Verdict:
    """Direct conformance to a protocol whose correct nodes send stamped beacons.

    A correct node's broadcast is compared with the beacon the protocol
    table has it send (``beacon_violation``).  A declaration is backed
    when ``spec.accepts`` takes one of its owner's completed receptions
    for the declared peer; only the receptions that num.eq matches with
    the peer time are tried: those starting in [peer_time - eps,
    peer_time + eps], with eps = num.epsilon in approximate mode and 0 in
    exact mode, found by bisection.  The index behind it is built in one
    pass at each call and dropped when it returns: each correct node's
    receptions with their starts, in canonical order, which sorts them by
    start.

    Instants are read by the trace's ticks (``Trace.ticks``, the trace's
    own D), the window's low end rounded up and its high end down, so
    the integer tests decide exactly what the rational ones do.
    """
    violations: list[Violation] = []
    correct = set(setting.correct_nodes)
    ticks, starts = trace.ticks(num)
    receives_by_actor: dict[NodeId, list[tuple[Real, Receive]]] = {}
    for r, at in starts.items():
        if isinstance(r, Receive) and r.actor in correct:
            receives_by_actor.setdefault(r.actor, []).append((at, r))

    # num.eq(start, peer_time) holds exactly for starts in [peer_time - eps, peer_time + eps]
    eps = 0 if num.exact else num.epsilon
    for e, now in starts.items():
        if e.actor not in correct:
            continue
        if isinstance(e, Bcast):
            wrong = beacon_violation(spec, e, setting, params, inacc, num)
            if wrong is not None:
                violations.append(wrong)
        elif isinstance(e, Neighbor):
            owner_loc = setting.loc[e.actor]
            own = receives_by_actor.get(e.actor, ())
            low = high = e.peer_time
            if eps:
                low, high = low - eps, high + eps
            first = bisect_left(own, ticks.ceil(low), key=_TICK)
            last = bisect_right(own, ticks.floor(high), first, key=_TICK)
            if not any(
                r.sender in setting.loc
                and now > at + ticks.of(r.msg.duration)
                and spec.accepts(params, owner_loc, r, inacc, num) == e.peer
                for at, r in own[first:last]
            ):
                violations.append(
                    Violation(
                        "neighbor-unjustified", (e,), spec.unjustified.format(peer=e.peer)
                    )
                )
    return Verdict(tuple(violations))


def check_pt_feasible(
    trace: Trace, setting: Setting, params: SystemParams, num: Num = EXACT
) -> Verdict:
    """Direct conformance to the time-stamped beacon protocol.

    Correct nodes may broadcast only beacons they created themselves, of
    the default duration and stamped with the transmission start time.
    Every declaration must be backed by a reception, starting at the
    declared peer time, of a fresh beacon created by the declared peer,
    completed strictly before the declaration.
    """
    return _check_stamped(PROTOCOLS[PT], trace, setting, params, None, num)


def check_pgt_feasible(
    trace: Trace,
    setting: Setting,
    params: SystemParams,
    inacc: Optional[InaccuracyParams] = None,
    num: Num = EXACT,
) -> Verdict:
    """Direct conformance to the time- and location-stamped beacon protocol.

    Correct nodes broadcast their own beacons of the default duration.
    Without measurement slack, they must stamp beacons with their exact
    transmission time and true location, and declarations require exact
    agreement of the two distance estimates.  With slack (delta, tau),
    beacon stamps may be off by up to delta in time and tau times the
    signal speed in location, and the estimates must agree within
    delta + tau.
    """
    spec = PROTOCOLS[PGT if inacc is None else PGT_APPROX]
    return _check_stamped(spec, trace, setting, params, inacc, num)
