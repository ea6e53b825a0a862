"""Constructive relay and wormhole attacks against neighbor discovery.

The central construction: take an honest two-node run in which A hears
B's beacon and declares it a neighbor, then re-stage the same run in an
attack setting where the A-B link is permanently down and one or two
adversarial relays forward the beacon so that it still arrives at the
original instant.  Both correct nodes observe identical local views, so
any protocol deciding on local views alone accepts the declaration,
which is now false: the declared neighbor is not linked.

Geometry of the re-staging (all placements on the x axis, A at the
origin, so every distance is rational and the arithmetic exact):

- wormhole C near A, D near B: the beacon enters at one end, crosses
  the adversary channel at its own speed, and exits at the other end;
  the relay margin is the honest flight time minus the flight times of
  the two end offsets and must cover the adversary's minimum processing
  delay plus the channel flight time, i.e.
  |A,C| + |D,B| + (v/v_adv)*|C,D| + v*delta_relay <= |A,B|;
- single relay C: a wormhole whose two ends coincide (C = D), so the
  channel term vanishes and the end offsets add up to the detour
  sender -> C -> victim.

Both variants are built by one construction over the relay chain
(C,) or (C, D); only the placement and the wording of an infeasibility
message differ between them.

For the exact time+location protocol the beacon pins B's position, so
the victim-side distance cannot be shortened and the construction fails
for every positive processing delay unless the adversary channel is
faster than the wireless signal.  For the slack-tolerant variant a
separate construction trades the sender's permitted stamp skew plus the
receiver's acceptance window against the processing delay; it succeeds
exactly when the delay is at most twice the combined error bound.
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
    BeaconTL,
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
    sq_dist,
)
from .protocols import (
    InaccuracyParams,
    PGT_APPROX,
    PT,
    pgt_approx_accepts,
    protocol_spec,
    protocol_verdict,
)
from .rational import EXACT, Num, exact_sqrt, format_scalar

SINGLE_RELAY = "single-relay"
WORMHOLE = "wormhole"

ALWAYS = ((Fraction(0), None),)

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
    beacon_time: Fraction = Fraction(0),
    inacc: Optional[InaccuracyParams] = None,
) -> Trace:
    """One beacon, its forced receptions, and one justified declaration.

    The beaconer transmits at beacon_time, the declarer receives one
    flight time later and declares the beaconer a neighbor shortly after
    the reception completes.
    """
    spec = protocol_spec(protocol)
    msg = beacon or spec.beacon(beaconer, beacon_time, setting.loc[beaconer], params)
    sends = [Bcast(beaconer, beacon_time, msg)]
    receives = induced_receives(sends, setting, params)
    arrival = next(
        (r for r in receives if r.actor == declarer and r.sender == beaconer), None
    )
    if arrival is None:
        raise NoWitness(f"{declarer} never hears {beaconer}: link down")
    owner_loc = setting.loc[declarer]
    if spec.accepts(params, owner_loc, arrival, inacc or InaccuracyParams(), EXACT) is None:
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


def default_single_relay_placement(
    d_ab: Fraction, params: SystemParams, protocol: str
) -> SingleRelayPlacement:
    """Midpoint relay; B moved just close enough to fund the processing delay.

    The time+location protocols pin B at its claimed position, so there
    the attack-side distance stays d_ab.
    """
    if protocol_spec(protocol).flavor == TL_FLAVOR:
        b_x = d_ab
    else:
        b_x = d_ab - params.v * params.delta_relay
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
    """Relays pushed toward the endpoints with a margin solved exactly.

    With the ends at offset e from A and B the timing constraint reads
    2e(1 - v/v_adv) <= (d_ab - v*delta_relay) - (v/v_adv)*b_x, which for
    equal speeds is independent of e and otherwise bounds it.
    """
    if b_x is None:
        if protocol_spec(protocol).flavor == TL_FLAVOR:
            b_x = d_ab
        else:
            b_x = d_ab - params.v * params.delta_relay
    if b_x <= 0:
        raise PlacementInfeasible("attack-side distance must be positive")
    ratio = params.v / params.v_adv
    slack = d_ab - params.v * params.delta_relay - ratio * b_x
    if ratio == 1:
        if slack < 0:
            raise PlacementInfeasible(
                "wormhole margin exhausted: distance + v*delta_relay exceeds the budget"
            )
        edge = b_x / 4
    else:
        if slack <= 0:
            raise PlacementInfeasible(
                "wormhole margin exhausted: channel speed advantage cannot cover "
                f"{format_scalar(b_x)} at this processing delay"
            )
        edge = min(slack / (2 * (1 - ratio)) / 2, b_x / 4)
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
    the beaconer to its last.  The wormhole timing inequality, which a
    single relay meets with C = D, is validated here and reported with
    its margin when violated.
    """
    if not 0 < d_ab <= params.nd_range:
        raise PlacementInfeasible(
            f"honest distance {format_scalar(d_ab)} outside "
            f"(0, {format_scalar(params.nd_range)}]"
        )
    honest = honest_pair_setting(d_ab, declarer, beaconer)
    zero = Fraction(0)

    if variant == SINGLE_RELAY:
        place = placement or default_single_relay_placement(d_ab, params, protocol)
        relay_xs = (place.relay_x,)
        terms = "detour"
    elif variant == WORMHOLE:
        if protocol == PGT_APPROX:
            raise ValueError("the wormhole variant is not supported for pgt-approx")
        place = placement or default_wormhole_placement(d_ab, params, protocol)
        if not place.c_x < place.d_x:
            raise PlacementInfeasible("wormhole ends out of order")
        relay_xs = (place.c_x, place.d_x)
        terms = "end offsets + scaled channel flight"
    else:
        raise ValueError(f"unknown attack variant {variant!r}")

    relays = tuple(_free_relay_ids({declarer, beaconer}, len(relay_xs)))
    near_a, near_b = relays[0], relays[-1]
    locs = {
        declarer: (zero, zero),
        beaconer: (place.b_x, zero),
        **{relay: (x, zero) for relay, x in zip(relays, relay_xs)},
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
    if protocol == PGT_APPROX:
        window = (inacc or InaccuracyParams()).window
        budget = 2 * window - (path - dist(attack, declarer, beaconer)) / params.v
        if params.delta_relay > budget:
            raise PlacementInfeasible(
                "slack window exhausted: delta_relay "
                f"({format_scalar(params.delta_relay)}) > 2*(delta+tau) - detour "
                f"({format_scalar(budget)})"
            )
    else:
        lhs = path + params.v * params.delta_relay
        if lhs > d_ab:
            raise PlacementInfeasible(
                f"{terms} + v*delta_relay = {format_scalar(lhs)} exceeds the honest "
                f"distance {format_scalar(d_ab)} (margin {format_scalar(d_ab - lhs)})"
            )
    return honest, attack, place


# ---------------------------------------------------------------------------
# relay trace synthesis


def _aim_half_plane(from_loc: Point, at_loc: Point) -> tuple[Fraction, Fraction]:
    """Half-plane sector whose boundary is perpendicular to the target direction.

    Placements are collinear on the x axis, so the target direction is 0
    or pi and the sector boundaries land on quarter turns, keeping the
    coverage test exact and the opposite axis direction excluded.
    """
    dx = at_loc[0] - from_loc[0]
    dy = at_loc[1] - from_loc[1]
    if dy == 0 and dx > 0:
        target = Fraction(0)
    elif dy == 0 and dx < 0:
        target = Fraction(1)
    elif dx == 0 and dy > 0:
        target = Fraction(1, 2)
    elif dx == 0 and dy < 0:
        target = Fraction(3, 2)
    else:
        raise PlacementInfeasible("directional aiming requires axis-aligned placements")
    return ((target - Fraction(1, 2)) % 2, Fraction(1))


def synth_relay_trace(
    base_trace: Trace,
    setting_honest: Setting,
    setting_attack: Setting,
    params: SystemParams,
    declarer: NodeId,
    beaconer: NodeId,
    relay_route: Mapping[NodeId, tuple[NodeId, NodeId]],
) -> tuple[Trace, dict[str, Fraction]]:
    """Re-stage a base trace with relays forwarding all correct traffic.

    relay_route maps each correct sender to its (entry, exit) relay
    pair; the exit relay casts toward the other correct node exactly one
    honest flight time after the original transmission, so that node's
    receptions keep their original instants and local views are
    preserved.  Raises when any relay margin falls below the adversary's
    minimum processing delay (plus channel flight for two-ended routes).
    """
    honest_flight = dist(setting_honest, declarer, beaconer) / params.v
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

    min_gap: Fraction | None = None
    min_margin: Fraction | None = None
    for e in base_trace.of_kind(Bcast):
        if e.actor not in (declarer, beaconer):
            continue
        sends.append(e)
        victim = other[e.actor]
        entry, exit_ = relay_route[e.actor]
        entry_time = e.start + dist(setting_attack, e.actor, entry) / params.v
        cast_time = e.start + honest_flight - dist(setting_attack, exit_, victim) / params.v
        gap = cast_time - entry_time
        bound = params.delta_relay + dist(setting_attack, entry, exit_) / params.v_adv
        if gap < bound:
            raise PlacementInfeasible(
                f"relay margin {format_scalar(gap)} below the required "
                f"{format_scalar(bound)} for traffic from {e.actor}"
            )
        direction, angle = _aim_half_plane(setting_attack.loc[exit_], setting_attack.loc[victim])
        sends.append(Dcast(exit_, cast_time, direction, angle, e.msg))
        min_gap = gap if min_gap is None else min(min_gap, gap)
        margin = gap - bound
        min_margin = margin if min_margin is None else min(min_margin, margin)
    if min_gap is not None:
        deltas["relay_gap"] = min_gap
        deltas["relay_margin"] = min_margin

    receives = induced_receives(sends, setting_attack, params)
    neighbors = list(base_trace.of_kind(Neighbor))
    return Trace(sends + receives + neighbors), deltas


def _synth_inaccuracy_relay(
    base_trace: Trace,
    setting_attack: Setting,
    params: SystemParams,
    declarer: NodeId,
    beaconer: NodeId,
    relay: NodeId,
    inacc: InaccuracyParams,
) -> tuple[Trace, dict[str, Fraction]]:
    """Slack-window relay: forward late by exactly the processing delay.

    No attempt is made to preserve the victim's view; the declaration is
    justified because the stamp skew of the (legitimately imprecise)
    beacon plus the acceptance window absorb the relay delay.
    """
    sends: list[Event] = []
    beacon_bcasts = [e for e in base_trace.of_kind(Bcast) if e.actor == beaconer]
    deltas: dict[str, Fraction] = {}
    cast_events = []
    for e in beacon_bcasts:
        sends.append(e)
        entry_time = e.start + dist(setting_attack, beaconer, relay) / params.v
        cast_time = entry_time + params.delta_relay
        direction, angle = _aim_half_plane(
            setting_attack.loc[relay], setting_attack.loc[declarer]
        )
        cast = Dcast(relay, cast_time, direction, angle, e.msg)
        sends.append(cast)
        cast_events.append(cast)
        deltas["entry_delay"] = entry_time - e.start
        deltas["relay_gap"] = params.delta_relay
    receives = induced_receives(sends, setting_attack, params)
    neighbors = []
    for cast in cast_events:
        arrival = next(
            (r for r in receives if r.actor == declarer and r.sender == cast.actor), None
        )
        if arrival is None:
            raise PlacementInfeasible("the relay cannot reach the declarer")
        if not pgt_approx_accepts(
            params, setting_attack.loc[declarer], arrival.start, arrival.msg, inacc
        ):
            raise PlacementInfeasible(
                "slack window exhausted: the relayed beacon is rejected"
            )
        neighbors.append(
            Neighbor(
                declarer,
                arrival.start + arrival.msg.duration + DECLARE_OFFSET,
                beaconer,
                arrival.start,
            )
        )
        deltas["attack_arrival"] = arrival.start
        loc_estimate = (
            exact_sqrt(sq_dist(setting_attack.loc[declarer], arrival.msg.beacon_loc))
            / params.v
        )
        slack = (arrival.start - arrival.msg.beacon_time) - loc_estimate
        deltas["window_margin"] = inacc.window - abs(slack)
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

    Raises PlacementInfeasible when no geometry satisfies the timing
    inequalities (for instance whenever the processing delay reaches
    range/speed for the time-stamped protocol, or for any positive delay
    for the exact time+location protocol at equal channel speeds).
    """
    honest, attack, place = build_attack_settings(
        d_ab, variant, params, placement, protocol, inacc, declarer, beaconer
    )
    if protocol == PGT_APPROX:
        ia = inacc or InaccuracyParams()
        skew_loc = (place.b_x + ia.tau * params.v, Fraction(0))
        beacon = BeaconTL(
            beaconer, ia.delta, skew_loc, params.msg_duration_default
        )
        base = synth_honest_trace(
            honest, protocol, params, declarer, beaconer, beacon=beacon, inacc=ia
        )
        relay_trace, deltas = _synth_inaccuracy_relay(
            base, attack, params, declarer, beaconer, attack.adversarial_nodes[0], ia
        )
    else:
        base = synth_honest_trace(honest, protocol, params, declarer, beaconer)
        relays = sorted(attack.adversarial_nodes, key=lambda n: attack.loc[n][0])
        near_a, near_b = relays[0], relays[-1]
        route = {declarer: (near_a, near_b), beaconer: (near_b, near_a)}
        relay_trace, deltas = synth_relay_trace(
            base, honest, attack, params, declarer, beaconer, route
        )
        if not local_views_equal(base, relay_trace, (declarer, beaconer)):
            raise PlacementInfeasible(
                "relay coverage leaks extra receptions into a correct node's view"
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
