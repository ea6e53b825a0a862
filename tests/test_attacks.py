from fractions import Fraction

import pytest

from ndcheck import (
    ADVERSARIAL,
    CORRECT,
    NAIVE,
    Neighbor,
    NoWitness,
    OutOfRange,
    PGT,
    PGT_APPROX,
    PT,
    PlacementInfeasible,
    Receive,
    SINGLE_RELAY,
    Setting,
    SingleRelayPlacement,
    SystemParams,
    Trace,
    WORMHOLE,
    WormholePlacement,
    availability_witness,
    build_attack_settings,
    check_neighbor_correctness,
    check_pt_feasible,
    check_setting_feasible,
    dist,
    local_views_equal,
    plan_relay_attack,
    verify_attack_plan,
)
from ndcheck.protocols import InaccuracyParams

F = Fraction


def assert_attack_succeeds(plan, params, inacc=None, expect_views_equal=True):
    verdicts = verify_attack_plan(plan, params, inacc)
    for key in (
        "setting_honest",
        "setting_attack",
        "protocol_honest",
        "protocol_attack",
        "adversary_relay",
        "correctness_honest",
    ):
        assert verdicts[key].ok, (key, verdicts[key].violations)
    if expect_views_equal:
        assert verdicts["views_equal"]
    false_neighbors = verdicts["correctness_attack"].violations
    assert len(false_neighbors) == 1
    assert false_neighbors[0].rule == "false-neighbor"
    return verdicts


# ---------------------------------------------------------------------------
# settings construction


def test_build_settings_example_geometry(unit_params):
    honest, attack, place = build_attack_settings(
        F(10), SINGLE_RELAY, unit_params, SingleRelayPlacement(F(4), F(8))
    )
    assert dist(honest, "A", "B") == 10
    assert dist(attack, "A", "B") == 8
    assert dist(attack, "A", "C") == 4
    assert attack.node_type["C"] == ADVERSARIAL
    # the victims' direct link is down in the attack setting
    assert ("A", "B") not in attack.link_schedule


@pytest.mark.parametrize(
    "variant, v_adv, delta_relay, placement, protocol, inacc, message",
    [
        (
            SINGLE_RELAY,
            F(1),
            F(3),
            SingleRelayPlacement(F(4), F(8)),
            PT,
            None,
            "detour + v*delta_relay = 11 exceeds the honest distance 10 (margin -1)",
        ),
        (
            WORMHOLE,
            F(2),
            F(6),
            WormholePlacement(F(1), F(7), F(8)),
            PT,
            None,
            "end offsets + scaled channel flight + v*delta_relay = 11 exceeds the "
            "honest distance 10 (margin -1)",
        ),
        (
            SINGLE_RELAY,
            F(1),
            F(3),
            SingleRelayPlacement(F(9), F(8)),
            PGT_APPROX,
            InaccuracyParams(F(1), F(1, 2)),
            "slack window exhausted: delta_relay (3) > 2*(delta+tau) - detour (1)",
        ),
    ],
    ids=["single-relay", "wormhole", "slack-window"],
)
def test_build_settings_rejects_exhausted_margin(
    variant, v_adv, delta_relay, placement, protocol, inacc, message
):
    params = SystemParams(F(1), v_adv, F(10), delta_relay, F(1))
    with pytest.raises(PlacementInfeasible) as caught:
        build_attack_settings(F(10), variant, params, placement, protocol, inacc)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "variant, placement, error, message",
    [
        ("ring", None, ValueError, "unknown attack variant 'ring'"),
        (
            WORMHOLE,
            WormholePlacement(c_x=F(0), d_x=F(4), b_x=F(8)),
            PlacementInfeasible,
            "placement collapses two nodes onto one point",
        ),
    ],
    ids=["unknown-variant", "wormhole-end-on-declarer"],
)
def test_build_settings_refuses_malformed_requests(unit_params, variant, placement, error, message):
    with pytest.raises(error) as caught:
        build_attack_settings(F(10), variant, unit_params, placement)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_build_settings_rejects_out_of_range_distance(unit_params):
    with pytest.raises(PlacementInfeasible):
        build_attack_settings(F(11), SINGLE_RELAY, unit_params)


def test_default_single_relay_boundary():
    # processing delay exactly at range/speed leaves no room
    params = SystemParams(F(1), F(1), F(10), F(10), F(1))
    with pytest.raises(PlacementInfeasible):
        plan_relay_attack(F(10), params, PT, SINGLE_RELAY)


# ---------------------------------------------------------------------------
# honest runs


def test_witness_at_various_distances(unit_params):
    for protocol in (NAIVE, PT, PGT):
        setting, trace = availability_witness(protocol, F(10), unit_params)
        assert check_setting_feasible(trace, setting, unit_params).ok
        assert any(isinstance(e, Neighbor) for e in trace)
    setting, trace = availability_witness(PGT, F(3, 2), unit_params)
    assert check_setting_feasible(trace, setting, unit_params).ok


def test_witness_rejects_bad_distances(unit_params):
    with pytest.raises(OutOfRange):
        availability_witness(PT, F(0), unit_params)
    with pytest.raises(OutOfRange):
        availability_witness(PT, F(20), unit_params)


def test_honest_trace_structure(unit_params):
    setting, trace = availability_witness(PT, F(8), unit_params)
    receives = list(trace.of_kind(Receive))
    assert {(r.actor, r.start) for r in receives} == {("B", F(0)), ("A", F(8))}
    declaration = next(iter(trace.of_kind(Neighbor)))
    assert declaration.peer_time == 8
    assert declaration.start > 9


def test_no_witness_beyond_range_via_freshness(unit_params):
    # bypass the range guard to exercise the freshness failure directly
    from ndcheck.attacks import honest_pair_setting, synth_honest_trace

    setting = honest_pair_setting(F(12))
    with pytest.raises(NoWitness):
        synth_honest_trace(setting, PT, unit_params, "A", "B")


# ---------------------------------------------------------------------------
# single relay


def test_single_relay_counterexample(unit_params):
    plan = plan_relay_attack(F(10), unit_params, PT, SINGLE_RELAY)
    verdicts = assert_attack_succeeds(plan, unit_params)
    assert verdicts["adversary_relay_local"].ok
    assert verdicts["adversary_relay_bcast_renamed"].ok
    assert verdicts["adversary_dy"].ok
    assert plan.deltas["relay_gap"] >= unit_params.delta_relay
    # the paired leg delays of the construction correspond
    assert plan.deltas["delta2"] - plan.deltas["delta1"] == (
        plan.deltas["delta4"] - plan.deltas["delta3"]
    )
    assert plan.deltas["delta2"] - plan.deltas["delta1"] >= unit_params.delta_relay


def test_single_relay_custom_placement(unit_params):
    plan = plan_relay_attack(
        F(10), unit_params, PT, SINGLE_RELAY, SingleRelayPlacement(F(4), F(8))
    )
    assert_attack_succeeds(plan, unit_params)
    assert plan.deltas["delta3"] == 4  # beacon flight to the relay
    assert plan.deltas["delta4"] == 6  # cast offset toward the victim
    assert plan.deltas["relay_gap"] == 2


def test_single_relay_views_and_direct_protocol_check(unit_params):
    plan = plan_relay_attack(F(10), unit_params, PT, SINGLE_RELAY)
    assert local_views_equal(plan.base_trace, plan.relay_trace, ("A", "B"))
    assert check_pt_feasible(plan.relay_trace, plan.setting_attack, unit_params).ok
    broken = Trace(list(plan.relay_trace)[:-1])
    assert not local_views_equal(plan.base_trace, broken, ("A", "B"))
    assert local_views_equal(plan.base_trace, broken, ())


def test_naive_relay_attack(unit_params):
    plan = plan_relay_attack(F(10), unit_params, NAIVE, SINGLE_RELAY)
    assert_attack_succeeds(plan, unit_params)


def test_threshold_sweep_small(unit_params):
    threshold = unit_params.nd_range / unit_params.v
    for k in range(0, 25):
        delta = threshold * k / 16
        params = SystemParams(
            unit_params.v, unit_params.v_adv, unit_params.nd_range, delta, F(1)
        )
        feasible = True
        try:
            plan = plan_relay_attack(unit_params.nd_range, params, PT, SINGLE_RELAY)
            assert_attack_succeeds(plan, params)
        except PlacementInfeasible:
            feasible = False
        assert feasible == (delta < threshold)


# ---------------------------------------------------------------------------
# wormhole


def test_wormhole_counterexample_equal_speeds(unit_params):
    plan = plan_relay_attack(F(10), unit_params, PT, WORMHOLE)
    verdicts = assert_attack_succeeds(plan, unit_params)
    # a two-ended wormhole is not locally relayable
    assert not verdicts["adversary_relay_local"].ok
    assert "channel_flight" in plan.deltas


def test_wormhole_amplified_reach():
    params = SystemParams(F(1), F(4), F(10), F(2), F(1))
    # single relay tops out at range - v*delta = 8
    reach = (params.v_adv / params.v) * (params.nd_range - params.v * params.delta_relay)
    assert reach == 32
    plan = plan_relay_attack(
        F(10),
        params,
        PT,
        WORMHOLE,
        WormholePlacement(c_x=F(1, 4), d_x=F(30), b_x=F(121, 4)),
    )
    assert_attack_succeeds(plan, params)
    assert dist(plan.setting_attack, "A", "B") > params.nd_range
    with pytest.raises(PlacementInfeasible):
        plan_relay_attack(
            F(10),
            params,
            PT,
            WORMHOLE,
            WormholePlacement(c_x=F(1, 4), d_x=F(32), b_x=F(33)),
        )


def test_wormhole_ends_must_be_ordered(unit_params):
    with pytest.raises(PlacementInfeasible):
        plan_relay_attack(
            F(10),
            unit_params,
            PT,
            WORMHOLE,
            WormholePlacement(c_x=F(5), d_x=F(2), b_x=F(8)),
        )


# ---------------------------------------------------------------------------
# time+location protocols


def test_pgt_exact_attack_impossible_at_equal_speeds():
    for delta in (F(1, 10**9), F(1, 2), F(1)):
        params = SystemParams(F(1), F(1), F(10), delta, F(1))
        for variant in (SINGLE_RELAY, WORMHOLE):
            with pytest.raises(PlacementInfeasible):
                plan_relay_attack(F(10), params, PGT, variant)


def test_pgt_exact_attack_possible_with_faster_channel():
    params = SystemParams(F(1), F(10), F(10), F(1, 2), F(1))
    plan = plan_relay_attack(F(10), params, PGT, WORMHOLE)
    assert_attack_succeeds(plan, params)


def test_pgt_approx_attack_flips_at_twice_the_window(unit_params):
    inacc = InaccuracyParams(F(3, 100), F(1, 100))
    threshold = 2 * inacc.window
    for delta, expected in (
        (threshold, True),
        (threshold + F(1, 10**6), False),
        (threshold / 2, True),
    ):
        params = SystemParams(F(1), F(1), F(10), delta, F(1))
        feasible = True
        try:
            plan = plan_relay_attack(
                F(8), params, PGT_APPROX, SINGLE_RELAY, inacc=inacc
            )
            assert_attack_succeeds(plan, params, inacc, expect_views_equal=False)
        except PlacementInfeasible:
            feasible = False
        assert feasible == expected


@pytest.mark.parametrize("delta_relay", [F(0), F(1, 100), F(8, 100)])
def test_pgt_approx_wormhole_at_equal_speeds(delta_relay):
    """The wormhole's margin is funded from the same slack as the single
    relay's: at v_adv = v it absorbs a delay up to 2*(delta + tau)."""
    inacc = InaccuracyParams(F(3, 100), F(1, 100))
    params = SystemParams(F(1), F(1), F(10), delta_relay, F(1))
    plan = plan_relay_attack(F(8), params, PGT_APPROX, WORMHOLE, inacc=inacc)
    assert_attack_succeeds(plan, params, inacc, expect_views_equal=delta_relay == 0)
    assert plan.deltas["relay_margin"] == 2 * inacc.window - delta_relay


def test_pgt_approx_wormhole_refused_beyond_twice_the_window():
    inacc = InaccuracyParams(F(3, 100), F(1, 100))
    params = SystemParams(F(1), F(1), F(10), F(9, 100), F(1))
    with pytest.raises(PlacementInfeasible) as caught:
        plan_relay_attack(F(8), params, PGT_APPROX, WORMHOLE, inacc=inacc)
    assert str(caught.value) == (
        "wormhole margin exhausted: distance + v*delta_relay exceeds the budget "
        "(margin -1/100 within the slack 2*(delta+tau) = 2/25)"
    )


def test_pgt_approx_wormhole_with_faster_channel_waits_for_the_window():
    """At v_adv = 2v the earliest relayed arrival falls before the window's
    lower edge; the relay waits for it, which keeps the views."""
    inacc = InaccuracyParams(F(3, 100), F(1, 100))
    params = SystemParams(F(1), F(2), F(10), F(1, 20), F(1))
    plan = plan_relay_attack(F(8), params, PGT_APPROX, WORMHOLE, inacc=inacc)
    assert_attack_succeeds(plan, params, inacc)
    assert plan.deltas["relay_gap"] > params.delta_relay + plan.deltas["channel_flight"]
    with pytest.raises(PlacementInfeasible) as caught:
        plan_relay_attack(
            F(8), params, PGT_APPROX, WORMHOLE, WormholePlacement(F(1), F(12), F(8)), inacc
        )
    assert str(caught.value) == (
        "slack window exhausted: delta_relay (1/20) > 2*(delta+tau) - detour (-121/50)"
    )
    slow = SystemParams(F(1), F(2), F(10), F(5), F(1))
    with pytest.raises(PlacementInfeasible) as caught:
        plan_relay_attack(F(8), slow, PGT_APPROX, WORMHOLE, inacc=inacc)
    assert str(caught.value) == (
        "wormhole margin exhausted: channel speed advantage cannot cover 8 at this "
        "processing delay (margin -23/25 within the slack 2*(delta+tau) = 2/25)"
    )


@pytest.mark.parametrize(
    "protocol, inacc, message",
    [
        (PGT, None, "placement moves B 2 from the location its beacon claims, "
         "beyond the location bound tau*v (0)"),
        (PGT_APPROX, InaccuracyParams(F(1), F(1, 2)), "placement moves B 3/2 from the "
         "location its beacon claims, beyond the location bound tau*v (1/2)"),
    ],
    ids=["pgt", "pgt-approx"],
)
def test_placement_that_moves_a_located_beaconer_is_refused(protocol, inacc, message):
    """A time+location beacon claims one position in both runs: a placement
    that puts B farther than tau*v from it would break the protocol."""
    params = SystemParams(F(1), F(10), F(10), F(1, 2), F(1))
    with pytest.raises(PlacementInfeasible) as caught:
        plan_relay_attack(
            F(10), params, protocol, SINGLE_RELAY, SingleRelayPlacement(F(4), F(8)), inacc
        )
    assert str(caught.value) == message


def test_pgt_approx_beaconer_moved_within_the_location_bound():
    inacc = InaccuracyParams(F(1), F(1, 2))
    params = SystemParams(F(1), F(10), F(10), F(1, 2), F(1))
    plan = plan_relay_attack(
        F(10), params, PGT_APPROX, SINGLE_RELAY, SingleRelayPlacement(F(9, 2), F(9)), inacc
    )
    assert_attack_succeeds(plan, params, inacc, expect_views_equal=False)


# ---------------------------------------------------------------------------
# neighbor correctness


def test_correctness_ignores_adversarial_peers(unit_params):
    setting = Setting(
        nodes=("A", "X"),
        loc={"A": (F(0), F(0)), "X": (F(1), F(0))},
        node_type={"A": CORRECT, "X": ADVERSARIAL},
    )
    trace = Trace([Neighbor("A", F(5), "X", F(1))])
    assert check_neighbor_correctness(trace, setting).ok


def test_correctness_flags_unlinked_claim(unit_params):
    setting = Setting(
        nodes=("A", "B"),
        loc={"A": (F(0), F(0)), "B": (F(1), F(0))},
        node_type={"A": CORRECT, "B": CORRECT},
        link_schedule={("B", "A"): ((F(0), F(3)),)},
    )
    ok = Trace([Neighbor("A", F(5), "B", F(2))])
    bad = Trace([Neighbor("A", F(5), "B", F(4))])
    assert check_neighbor_correctness(ok, setting).ok
    assert not check_neighbor_correctness(bad, setting).ok


def test_relay_aims_a_half_plane_along_the_x_axis():
    """A relay facing +x opens its half plane at 3/2 of pi, one facing -x at
    1/2 of pi; any other pair of points is refused."""
    from ndcheck.attacks import _aim_half_plane

    assert _aim_half_plane((F(1), F(0)), (F(5, 2), F(0))) == (F(3, 2), F(1))
    assert _aim_half_plane((F(1), F(0)), (F(-3), F(0))) == (F(1, 2), F(1))
    for at in ((F(1), F(2)), (F(3), F(1, 7)), (F(1), F(0))):
        with pytest.raises(PlacementInfeasible, match="requires placements on the x axis"):
            _aim_half_plane((F(1), F(0)), at)


def test_relay_handles_two_way_traffic(unit_params):
    from ndcheck import BeaconT, Bcast, Trace, induced_receives
    from ndcheck.attacks import (
        build_attack_settings,
        honest_pair_setting,
        synth_relay_trace,
    )

    honest = honest_pair_setting(F(10))
    sends = [
        Bcast("B", F(0), BeaconT("B", F(0), F(1))),
        Bcast("A", F(2), BeaconT("A", F(2), F(1))),
    ]
    receives = induced_receives(sends, honest, unit_params)
    base = Trace(sends + receives + [Neighbor("A", F(12), "B", F(10))])
    assert check_pt_feasible(base, honest, unit_params).ok

    _, attack, _ = build_attack_settings(F(10), SINGLE_RELAY, unit_params)
    relay = attack.adversarial_nodes[0]
    route = {"A": (relay, relay), "B": (relay, relay)}
    relayed, deltas = synth_relay_trace(
        base, honest, attack, unit_params, "A", "B", route, PT, None
    )
    assert check_setting_feasible(relayed, attack, unit_params).ok
    assert local_views_equal(base, relayed, ("A", "B"))
    assert check_pt_feasible(relayed, attack, unit_params).ok
    assert deltas["relay_gap"] >= unit_params.delta_relay


def test_view_preserving_pair_gets_equal_protocol_verdicts(unit_params):
    """Runs with identical local views receive identical conformance verdicts."""
    from ndcheck import check_protocol_feasible, make_protocol

    plan = plan_relay_attack(F(10), unit_params, PT, SINGLE_RELAY)
    model = make_protocol(PT, unit_params)
    base_verdict = check_protocol_feasible(
        plan.base_trace, plan.setting_honest, model, unit_params
    )
    relay_verdict = check_protocol_feasible(
        plan.relay_trace, plan.setting_attack, model, unit_params
    )
    assert base_verdict == relay_verdict
    assert base_verdict.ok


def test_forced_declaration_from_relayed_beacon_rejected_by_exact_pgt(unit_params):
    """A relayed time+location beacon cannot justify a declaration: the
    detour plus processing delay inflates the time estimate past the
    pinned location estimate."""
    from ndcheck import (
        BeaconTL,
        Bcast,
        Dcast,
        Trace,
        check_pgt_feasible,
        induced_receives,
    )

    always = ((F(0), None),)
    attack = Setting(
        nodes=("A", "B", "C"),
        loc={"A": (F(0), F(0)), "B": (F(10), F(0)), "C": (F(5), F(0))},
        node_type={"A": CORRECT, "B": CORRECT, "C": ADVERSARIAL},
        link_schedule={
            ("A", "C"): always,
            ("C", "A"): always,
            ("B", "C"): always,
            ("C", "B"): always,
        },
    )
    beacon = BeaconTL("B", F(0), attack.loc["B"], F(1))
    sends = [
        Bcast("B", F(0), beacon),
        Dcast("C", F(5) + unit_params.delta_relay, F(1, 2), F(1), beacon),
    ]
    receives = induced_receives(sends, attack, unit_params)
    arrival = next(r for r in receives if r.actor == "A" and r.sender == "C")
    forced = Trace(
        sends
        + receives
        + [Neighbor("A", arrival.start + F(2), "B", arrival.start)]
    )
    assert check_setting_feasible(forced, attack, unit_params).ok
    verdict = check_pgt_feasible(forced, attack, unit_params)
    assert "neighbor-unjustified" in verdict.rules()


def test_canonical_radio_attack_golden_trace(radio_params):
    """Frozen expected run for the 40 ns relay at 100 m range.

    Hand-derived: v*delta_relay = 12 m so B re-stages at 88 m with the
    relay at 44 m; the beacon reaches the relay after 44/3e8 s, is cast
    onward at (100-44)/3e8 s aimed left, and lands at A exactly at the
    honest flight time 1/3e6 s; A declares one beacon-duration plus one
    second later.
    """
    from ndcheck import dump_trace

    plan = plan_relay_attack(F(100), radio_params, PT, SINGLE_RELAY)
    assert dump_trace(plan.base_trace) == (
        "bcast B 0 beacon-t:B:0:1/1000000\n"
        "receive B 0 B beacon-t:B:0:1/1000000\n"
        "receive A 1/3000000 B beacon-t:B:0:1/1000000\n"
        "neighbor A 750001/750000 B 1/3000000\n"
    )
    assert dump_trace(plan.relay_trace) == (
        "bcast B 0 beacon-t:B:0:1/1000000\n"
        "receive B 0 B beacon-t:B:0:1/1000000\n"
        "receive C 11/75000000 B beacon-t:B:0:1/1000000\n"
        "dcast C 7/37500000 1/2 1 beacon-t:B:0:1/1000000\n"
        "receive C 7/37500000 C beacon-t:B:0:1/1000000\n"
        "receive A 1/3000000 C beacon-t:B:0:1/1000000\n"
        "neighbor A 750001/750000 B 1/3000000\n"
    )
    assert plan.deltas["relay_gap"] == radio_params.delta_relay
    assert plan.deltas["honest_flight"] == F(1, 3_000_000)
