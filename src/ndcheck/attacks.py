"""Constructive relay and wormhole attacks against neighbor discovery.

The construction: take an honest two-node run in which A hears B's
beacon and declares it a neighbor, then re-stage the same run in an
attack setting where the A-B link is permanently down and one or two
adversarial relays forward the beacon.  A keeps its declaration, which
is now false: the declared neighbor is not linked.

Geometry of the re-staging (all placements on the x axis, A at the
origin, so every distance is rational and the arithmetic exact):

- wormhole C near A, D near B: the beacon enters at one end, crosses
  the adversary channel at its own speed and exits at the other, over
  path = |A,C| + |D,B| + (v/v_adv)*|C,D|;
- single relay C: a wormhole whose two ends coincide (C = D), so the
  channel term vanishes and path is the detour sender -> C -> victim.

One construction over the relay chain, (C,) or (C, D), builds both
variants for every protocol, under one feasibility inequality in time
units:

    (path - ref)/v + delta_relay <= slack

ref and slack come from the protocol table (``ProtocolSpec.bounds``):

- an exact protocol (naive, pt, pgt) has no slack and ref is the honest
  distance: the relay lands the beacon at its honest arrival, so every
  correct node's local view is preserved and a protocol deciding on
  local views alone accepts the declaration;
- a protocol with measurement error bounds (pgt-approx: delta, tau)
  accepts an arrival within delta + tau of what the beacon's stamps
  imply.  The honest run's beacon is stamped from B's attack-side
  position, skewed by (delta, tau*v), so ref is the attack-side distance
  and the beacon may land up to 2*(delta + tau) after ref/v.

The exit relay casts at the later of the instant that lands the beacon
ref/v after its transmission and the earliest the adversary can (entry
+ delta_relay + channel flight); the declaration moves with the arrival,
which the protocol's acceptance test must still take.  The time+location
protocols pin B where its beacon claims (the protocol's own stamp rule,
``beacon_violation``, refuses a placement that moves it farther), so for
exact pgt the construction fails for every positive processing delay
unless the adversary channel is faster than the wireless signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .adversary import (
    AdversaryModel,
    DY_GT,
    DY_T,
    RELAY,
    RELAY_BCAST,
    RELAY_LOCAL,
    check_adversary_feasible,
    rename_dcast_to_bcast,
)
from .core import (
    ADVERSARIAL,
    Bcast,
    CORRECT,
    Dcast,
    Event,
    Message,
    Neighbor,
    NodeId,
    Point,
    Setting,
    SystemParams,
    T_FLAVOR,
    TL_FLAVOR,
    Trace,
    Verdict,
    Violation,
    check_setting_feasible,
    dist,
    induced_receives,
    link_up_over,
    project_local,
)
from .protocols import (
    InaccuracyParams,
    PT,
    beacon_violation,
    protocol_spec,
    protocol_verdict,
)
from .rational import EXACT, Num, format_scalar

SINGLE_RELAY = "single-relay"
WORMHOLE = "wormhole"

ZERO = Fraction(0)
ALWAYS = ((ZERO, None),)

# neighbor declarations happen this long after the justifying reception ends
DECLARE_OFFSET = Fraction(1)


class PlacementInfeasible(ValueError):
    """No attack geometry satisfies the required timing inequalities."""


class NoWitness(ValueError):
    """The protocol cannot produce a successful honest run here."""


class OutOfRange(ValueError):
    """Requested distance lies outside the discovery range (0, R]."""


@dataclass(frozen=True)
class SingleRelayPlacement:
    relay_x: Fraction
    b_x: Fraction


@dataclass(frozen=True)
class WormholePlacement:
    c_x: Fraction  # relay near A
    d_x: Fraction  # relay near B
    b_x: Fraction


Placement = Union[SingleRelayPlacement, WormholePlacement]


@dataclass(frozen=True)
class AttackPlan:
    variant: str
    protocol: str
    d_ab: Fraction
    placement: Placement
    declarer: NodeId
    beaconer: NodeId
    setting_honest: Setting
    setting_attack: Setting
    base_trace: Trace
    relay_trace: Trace
    deltas: Mapping[str, Fraction]


# ---------------------------------------------------------------------------
# correctness and availability of neighbor discovery


def check_neighbor_correctness(trace: Trace, setting: Setting) -> Verdict:
    """Every declaration among correct nodes must name an actually linked peer.

    A declaration by or about an adversarial node carries no obligation.
    """
    violations = []
    for e in trace.of_kind(Neighbor):
        if setting.node_type.get(e.actor) != CORRECT:
            continue
        if setting.node_type.get(e.peer) != CORRECT:
            continue
        if not link_up_over(setting, e.peer, e.actor, e.peer_time, e.peer_time):
            violations.append(
                Violation(
                    "false-neighbor",
                    (e,),
                    f"{e.peer} was not linked to {e.actor} at {e.peer_time}",
                )
            )
    return Verdict(tuple(violations))


def local_views_equal(trace_a: Trace, trace_b: Trace, nodes) -> bool:
    """Complete local traces of every listed node match exactly."""
    for node in nodes:
        view_a = project_local(trace_a, node)
        view_b = project_local(trace_b, node)
        if view_a.events != view_b.events:
            return False
    return True


def honest_pair_setting(d: Fraction, a: NodeId = "A", b: NodeId = "B") -> Setting:
    """Two correct nodes at distance d on the x axis, linked both ways forever."""
    return Setting(
        nodes=(a, b),
        loc={a: (Fraction(0), Fraction(0)), b: (d, Fraction(0))},
        node_type={a: CORRECT, b: CORRECT},
        link_schedule={(a, b): ALWAYS, (b, a): ALWAYS},
    )


def synth_honest_trace(
    setting: Setting,
    protocol: str,
    params: SystemParams,
    declarer: NodeId,
    beaconer: NodeId,
    beacon: Optional[Message] = None,
    inacc: Optional[InaccuracyParams] = None,
) -> Trace:
    """One beacon, its forced receptions, and one justified declaration.

    The beaconer transmits at time 0, the declarer receives one
    flight time later and declares the beaconer a neighbor shortly after
    the reception completes.
    """
    spec = protocol_spec(protocol)
    msg = beacon or spec.beacon(beaconer, Fraction(0), setting.loc[beaconer], params)
    sends = [Bcast(beaconer, Fraction(0), msg)]
    receives = induced_receives(sends, setting, params)
    arrival = next(
        (r for r in receives if r.actor == declarer and r.sender == beaconer), None
    )
    if arrival is None:
        raise NoWitness(f"{declarer} never hears {beaconer}: link down")
    owner_loc = setting.loc[declarer]
    if spec.accepts(params, owner_loc, arrival, spec.bounds(inacc), EXACT) is None:
        raise NoWitness(f"{protocol} rejects the beacon received at {arrival.start}")
    declaration = Neighbor(
        declarer,
        arrival.start + msg.duration + DECLARE_OFFSET,
        beaconer,
        arrival.start,
    )
    return Trace(sends + receives + [declaration])


def availability_witness(
    protocol: str,
    d: Fraction,
    params: SystemParams,
    inacc: Optional[InaccuracyParams] = None,
) -> tuple[Setting, Trace]:
    """A two-correct-node setting at distance d plus a successful discovery run."""
    if not 0 < d <= params.nd_range:
        raise OutOfRange(
            f"distance {format_scalar(d)} outside (0, {format_scalar(params.nd_range)}]"
        )
    setting = honest_pair_setting(d)
    trace = synth_honest_trace(setting, protocol, params, "A", "B", inacc=inacc)
    return setting, trace


# ---------------------------------------------------------------------------
# attack settings


def _free_relay_ids(taken: set[NodeId], count: int) -> list[NodeId]:
    ids = []
    for candidate in "CDEFGHIJKL":
        if candidate not in taken:
            ids.append(candidate)
        if len(ids) == count:
            return ids
    raise ValueError("could not allocate relay node identifiers")


def _attack_side_distance(d_ab: Fraction, params: SystemParams, protocol: str) -> Fraction:
    """Where the default placements put B: pinned at d_ab by the
    time+location protocols, whose beacon claims its position, and
    otherwise moved in just far enough to fund the processing delay."""
    if protocol_spec(protocol).flavor == TL_FLAVOR:
        return d_ab
    return d_ab - params.v * params.delta_relay


def _ref_and_slack(
    bounds: Optional[InaccuracyParams], d_ab: Fraction, b_x: Optional[Fraction]
) -> tuple[Fraction, Fraction]:
    """The terms of (path - ref)/v + delta_relay <= slack for a protocol's
    error bounds (``ProtocolSpec.bounds``): (d_ab, 0), b_x unread, for an
    exact protocol and (b_x, 2*(delta + tau)) for one with measurement error."""
    return (d_ab, ZERO) if bounds is None else (b_x, 2 * bounds.window)


def default_single_relay_placement(
    d_ab: Fraction, params: SystemParams, protocol: str
) -> SingleRelayPlacement:
    """Midpoint relay, B at the protocol's attack-side distance."""
    b_x = _attack_side_distance(d_ab, params, protocol)
    if b_x <= 0:
        raise PlacementInfeasible(
            "relay margin exhausted: v*delta_relay "
            f"({format_scalar(params.v * params.delta_relay)}) >= distance "
            f"({format_scalar(d_ab)})"
        )
    return SingleRelayPlacement(relay_x=b_x / 2, b_x=b_x)


def default_wormhole_placement(
    d_ab: Fraction,
    params: SystemParams,
    protocol: str,
    b_x: Optional[Fraction] = None,
) -> WormholePlacement:
    """Relays pushed toward the endpoints, placed with no slack and ref = d_ab."""
    return _wormhole_placement(d_ab, params, protocol, None, b_x)


def _wormhole_placement(
    d_ab: Fraction,
    params: SystemParams,
    protocol: str,
    bounds: Optional[InaccuracyParams],
    b_x: Optional[Fraction],
) -> WormholePlacement:
    """Relays pushed toward the endpoints with a margin solved exactly.

    With the ends at offset e from A and B the feasibility inequality
    reads 2e(1 - v/v_adv) <= spare = ref + v*(slack - delta_relay) - (v/v_adv)*b_x,
    independent of e for equal speeds and otherwise a bound on it.  Under
    error bounds a refusal names spare/v, the margin in time units.
    """
    if b_x is None:
        b_x = _attack_side_distance(d_ab, params, protocol)
    if b_x <= 0:
        raise PlacementInfeasible("attack-side distance must be positive")
    ref, slack = _ref_and_slack(bounds, d_ab, b_x)
    ratio = params.v / params.v_adv
    spare = ref + params.v * (slack - params.delta_relay) - ratio * b_x
    if spare < 0 or spare == 0 and ratio != 1:
        reason = "distance + v*delta_relay exceeds the budget" if ratio == 1 else (
            f"channel speed advantage cannot cover {format_scalar(b_x)} at this processing delay"
        )
        if bounds is not None:
            reason += (
                f" (margin {format_scalar(spare / params.v)} within the slack "
                f"2*(delta+tau) = {format_scalar(slack)})"
            )
        raise PlacementInfeasible(f"wormhole margin exhausted: {reason}")
    edge = b_x / 4 if ratio == 1 else min(spare / (2 * (1 - ratio)) / 2, b_x / 4)
    return WormholePlacement(c_x=edge, d_x=b_x - edge, b_x=b_x)


def build_attack_settings(
    d_ab: Fraction,
    variant: str,
    params: SystemParams,
    placement: Optional[Placement] = None,
    protocol: str = PT,
    inacc: Optional[InaccuracyParams] = None,
    declarer: NodeId = "A",
    beaconer: NodeId = "B",
) -> tuple[Setting, Setting, Placement]:
    """Honest reference setting plus the attack setting for one variant.

    In the attack setting the declarer-beaconer link is permanently
    down and the relay chain, (C,) or (C, D), sits on the segment
    between them: the declarer is linked to the chain's first relay and
    the beaconer to its last.  The feasibility inequality
    (path - ref)/v + delta_relay <= slack, which a single relay meets
    with C = D, is validated here and reported with its margin when
    violated.
    """
    if not 0 < d_ab <= params.nd_range:
        raise PlacementInfeasible(
            f"honest distance {format_scalar(d_ab)} outside "
            f"(0, {format_scalar(params.nd_range)}]"
        )
    honest = honest_pair_setting(d_ab, declarer, beaconer)
    bounds = protocol_spec(protocol).bounds(inacc)
    if variant == SINGLE_RELAY:
        place = placement or default_single_relay_placement(d_ab, params, protocol)
        relay_xs = (place.relay_x,)
        terms = "detour"
    elif variant == WORMHOLE:
        place = placement or _wormhole_placement(d_ab, params, protocol, bounds, None)
        if not place.c_x < place.d_x:
            raise PlacementInfeasible("wormhole ends out of order")
        relay_xs = (place.c_x, place.d_x)
        terms = "end offsets + scaled channel flight"
    else:
        raise ValueError(f"unknown attack variant {variant!r}")

    relays = tuple(_free_relay_ids({declarer, beaconer}, len(relay_xs)))
    near_a, near_b = relays[0], relays[-1]
    locs = {
        declarer: (ZERO, ZERO),
        beaconer: (place.b_x, ZERO),
        **{relay: (x, ZERO) for relay, x in zip(relays, relay_xs)},
    }
    if len(set(locs.values())) != 2 + len(relays):
        raise PlacementInfeasible("placement collapses two nodes onto one point")
    attack = Setting(
        nodes=(declarer, beaconer) + relays,
        loc=locs,
        node_type={
            declarer: CORRECT, beaconer: CORRECT, **dict.fromkeys(relays, ADVERSARIAL)
        },
        link_schedule={
            (declarer, near_a): ALWAYS,
            (near_a, declarer): ALWAYS,
            (beaconer, near_b): ALWAYS,
            (near_b, beaconer): ALWAYS,
        },
    )
    # the channel term vanishes for a single relay, whose two ends coincide
    path = (
        dist(attack, declarer, near_a)
        + dist(attack, near_b, beaconer)
        + (params.v / params.v_adv) * dist(attack, near_a, near_b)
    )
    ref, slack = _ref_and_slack(bounds, d_ab, place.b_x)
    late = (path - ref) / params.v + params.delta_relay  # the feasibility inequality
    if late <= slack:
        return honest, attack, place
    if bounds is not None:
        raise PlacementInfeasible(
            "slack window exhausted: delta_relay "
            f"({format_scalar(params.delta_relay)}) > 2*(delta+tau) - detour "
            f"({format_scalar(slack - late + params.delta_relay)})"
        )
    raise PlacementInfeasible(  # no slack: the margin is -v*late
        f"{terms} + v*delta_relay = {format_scalar(d_ab + params.v * late)} exceeds "
        f"the honest distance {format_scalar(d_ab)} (margin {format_scalar(-params.v * late)})"
    )


# ---------------------------------------------------------------------------
# relay trace synthesis


def _aim_half_plane(from_loc: Point, at_loc: Point) -> tuple[Fraction, Fraction]:
    """Half-plane sector whose boundary is perpendicular to the target direction.

    ``build_attack_settings`` places every node on the x axis, so the
    target lies at 0 or pi: the sector opens at 3/2 or 1/2 of pi by the
    sign of dx, its boundaries land on quarter turns, keeping the
    coverage test exact and the opposite axis direction excluded.
    """
    dx = at_loc[0] - from_loc[0]
    if at_loc[1] != from_loc[1] or dx == 0:
        raise PlacementInfeasible("directional aiming requires placements on the x axis")
    return (Fraction(3, 2) if dx > 0 else Fraction(1, 2), Fraction(1))


def synth_relay_trace(
    base_trace: Trace,
    setting_honest: Setting,
    setting_attack: Setting,
    params: SystemParams,
    declarer: NodeId,
    beaconer: NodeId,
    relay_route: Mapping[NodeId, tuple[NodeId, NodeId]],
    protocol: str,
    inacc: Optional[InaccuracyParams],
) -> tuple[Trace, dict[str, Fraction]]:
    """Re-stage a base trace with relays forwarding all correct traffic.

    relay_route maps each correct sender to its (entry, exit) relay
    pair.  The exit relay casts toward the other correct node at the
    later of the instant that lands the message ref/v after its
    transmission (the honest arrival for an exact protocol, the lower
    edge of the acceptance window with measurement error) and the
    earliest the adversary can: entry + delta_relay, plus the channel
    flight on two-ended routes.  Raises PlacementInfeasible when that
    is more than the protocol's slack after the first, or when the
    protocol's acceptance test refuses a declaration at its arrival,
    which a declaration follows when the arrival moves.
    """
    spec = protocol_spec(protocol)
    bounds = spec.bounds(inacc)
    d_ab = dist(setting_honest, declarer, beaconer)
    honest_flight = d_ab / params.v
    attack_side = None if bounds is None else dist(setting_attack, declarer, beaconer)
    ref, slack = _ref_and_slack(bounds, d_ab, attack_side)
    other = {declarer: beaconer, beaconer: declarer}
    sends: list[Event] = []

    # the four leg delays of the construction, fixed by geometry alone:
    # delta1/delta2 time the declarer's traffic entering/leaving its route,
    # delta3/delta4 the beaconer's traffic on the reverse route
    entry_a, exit_a = relay_route[declarer]
    entry_b, exit_b = relay_route[beaconer]
    deltas: dict[str, Fraction] = {
        "honest_flight": honest_flight,
        "delta1": dist(setting_attack, declarer, entry_a) / params.v,
        "delta2": honest_flight - dist(setting_attack, exit_a, beaconer) / params.v,
        "delta3": dist(setting_attack, beaconer, entry_b) / params.v,
        "delta4": honest_flight - dist(setting_attack, exit_b, declarer) / params.v,
    }
    if entry_b != exit_b:
        deltas["channel_flight"] = dist(setting_attack, entry_b, exit_b) / params.v_adv

    ref_flight = ref / params.v
    # (victim, honest arrival) -> how far the relayed arrival moved from it
    moved: dict[tuple[NodeId, Fraction], Fraction] = {}
    min_gap: Fraction | None = None
    min_margin: Fraction | None = None
    for e in base_trace.of_kind(Bcast):
        if e.actor not in (declarer, beaconer):
            continue
        sends.append(e)
        victim = other[e.actor]
        entry, exit_ = relay_route[e.actor]
        entry_time = e.start + dist(setting_attack, e.actor, entry) / params.v
        exit_flight = dist(setting_attack, exit_, victim) / params.v
        cast_time = e.start + ref_flight - exit_flight  # lands the message ref/v after e
        gap = cast_time - entry_time
        bound = params.delta_relay + dist(setting_attack, entry, exit_) / params.v_adv
        margin = gap + slack - bound
        if margin < 0:
            raise PlacementInfeasible(
                f"relay margin {format_scalar(gap + slack)} below the "
                f"required {format_scalar(bound)} for traffic from {e.actor}"
            )
        shift = ref_flight - honest_flight  # how far the arrival moves from the honest one
        if gap < bound:  # within the slack: cast at the earliest instant instead
            shift += bound - gap
            cast_time, gap = entry_time + bound, bound
        if shift:
            moved[victim, e.start + honest_flight] = shift
        direction, angle = _aim_half_plane(setting_attack.loc[exit_], setting_attack.loc[victim])
        sends.append(Dcast(exit_, cast_time, direction, angle, e.msg))
        min_gap = gap if min_gap is None else min(min_gap, gap)
        min_margin = margin if min_margin is None else min(min_margin, margin)
    if min_gap is not None:
        deltas["relay_gap"] = min_gap
        deltas["relay_margin"] = min_margin

    receives = induced_receives(sends, setting_attack, params)
    neighbors = list(base_trace.of_kind(Neighbor))
    for i, n in enumerate(neighbors):
        shift = moved and moved.get((n.actor, n.peer_time))
        if not shift:
            continue
        n = neighbors[i] = Neighbor(n.actor, n.start + shift, n.peer, n.peer_time + shift)
        owner_loc = setting_attack.loc[n.actor]
        if not any(
            r.actor == n.actor
            and r.start == n.peer_time
            and spec.accepts(params, owner_loc, r, bounds, EXACT) == n.peer
            for r in receives
        ):
            raise PlacementInfeasible("slack window exhausted: the relayed beacon is rejected")
    return Trace(sends + receives + neighbors), deltas


def plan_relay_attack(
    d_ab: Fraction,
    params: SystemParams,
    protocol: str = PT,
    variant: str = SINGLE_RELAY,
    placement: Optional[Placement] = None,
    inacc: Optional[InaccuracyParams] = None,
    declarer: NodeId = "A",
    beaconer: NodeId = "B",
) -> AttackPlan:
    """Build the full attack artifact: settings, honest run, relayed run.

    The honest run's beacon is stamped from x = ref, skewed by the
    protocol's error bounds (delta, tau*v), zero for an exact protocol.
    Raises PlacementInfeasible when no geometry satisfies the timing
    inequality (for instance whenever the processing delay reaches
    range/speed for the time-stamped protocol, or for any positive delay
    for the exact time+location protocol at equal channel speeds), when
    an exact protocol's relayed run shows a correct node more than its
    honest view, or when B stands farther than tau*v from the location
    its beacon claims in either run.
    """
    honest, attack, place = build_attack_settings(
        d_ab, variant, params, placement, protocol, inacc, declarer, beaconer
    )
    spec = protocol_spec(protocol)
    bounds = spec.bounds(inacc)
    beacon = None  # an exact protocol's own, stamped from x = d_ab = ref at time 0
    if bounds is not None:  # stamped from x = ref, skewed by (delta, tau*v)
        ref, _ = _ref_and_slack(bounds, d_ab, place.b_x)
        beacon = spec.beacon(beaconer, bounds.delta, (ref + bounds.tau * params.v, ZERO), params)
    base = synth_honest_trace(honest, protocol, params, declarer, beaconer, beacon, inacc)
    relays = sorted(attack.adversarial_nodes, key=lambda n: attack.loc[n][0])
    near_a, near_b = relays[0], relays[-1]
    route = {declarer: (near_a, near_b), beaconer: (near_b, near_a)}
    relay_trace, deltas = synth_relay_trace(
        base, honest, attack, params, declarer, beaconer, route, protocol, inacc
    )
    if bounds is None and not local_views_equal(base, relay_trace, (declarer, beaconer)):
        raise PlacementInfeasible(
            "relay coverage leaks extra receptions into a correct node's view"
        )
    stamped = next(base.of_kind(Bcast))
    for setting in (honest, attack):  # the protocol's own stamp rule, in both runs
        if beacon_violation(spec, stamped, setting, params, bounds) is not None:
            offset = abs(stamped.msg.beacon_loc[0] - setting.loc[beaconer][0])
            tau_v = (bounds or InaccuracyParams()).tau * params.v
            raise PlacementInfeasible(
                f"placement moves {beaconer} {format_scalar(offset)} from the location "
                f"its beacon claims, beyond the location bound tau*v ({format_scalar(tau_v)})"
            )
    return AttackPlan(
        variant=variant,
        protocol=protocol,
        d_ab=d_ab,
        placement=place,
        declarer=declarer,
        beaconer=beaconer,
        setting_honest=honest,
        setting_attack=attack,
        base_trace=base,
        relay_trace=relay_trace,
        deltas=deltas,
    )


def verify_attack_plan(
    plan: AttackPlan,
    params: SystemParams,
    inacc: Optional[InaccuracyParams] = None,
    num: Num = EXACT,
) -> dict:
    """Run the full checker stack over a plan.

    A successful attack shows physically consistent, protocol-conform,
    adversary-conform traces on both sides, with at least one false
    neighbor declared in the relayed run and none in the honest one.
    """
    delta = params.delta_relay
    verdicts: dict = {
        "setting_honest": check_setting_feasible(
            plan.base_trace, plan.setting_honest, params, num
        ),
        "setting_attack": check_setting_feasible(
            plan.relay_trace, plan.setting_attack, params, num
        ),
        "protocol_honest": protocol_verdict(
            plan.base_trace, plan.setting_honest, plan.protocol, params, inacc, num
        ),
        "protocol_attack": protocol_verdict(
            plan.relay_trace, plan.setting_attack, plan.protocol, params, inacc, num
        ),
        "adversary_relay": check_adversary_feasible(
            plan.relay_trace, plan.setting_attack, params, AdversaryModel(RELAY, delta), num
        ),
        "adversary_relay_local": check_adversary_feasible(
            plan.relay_trace,
            plan.setting_attack,
            params,
            AdversaryModel(RELAY_LOCAL, delta),
            num,
        ),
        "adversary_relay_bcast_renamed": check_adversary_feasible(
            rename_dcast_to_bcast(plan.relay_trace, plan.setting_attack),
            plan.setting_attack,
            params,
            AdversaryModel(RELAY_BCAST, delta),
            num,
        ),
    }
    spec = protocol_spec(plan.protocol)
    if spec.unjustified is not None:  # naive's bare tokens fit no Dolev-Yao model
        dy = DY_T if spec.flavor == T_FLAVOR else DY_GT
        verdicts["adversary_dy"] = check_adversary_feasible(
            plan.relay_trace, plan.setting_attack, params, AdversaryModel(dy, delta), num
        )
    verdicts["correctness_honest"] = check_neighbor_correctness(
        plan.base_trace, plan.setting_honest
    )
    verdicts["correctness_attack"] = check_neighbor_correctness(
        plan.relay_trace, plan.setting_attack
    )
    verdicts["views_equal"] = local_views_equal(
        plan.base_trace, plan.relay_trace, plan.setting_honest.correct_nodes
    )
    return verdicts
