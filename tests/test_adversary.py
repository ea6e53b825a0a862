import math
from dataclasses import replace
from fractions import Fraction

from ndcheck import (
    ADVERSARIAL,
    AdversaryModel,
    Bcast,
    BeaconT,
    CORRECT,
    DY_GT,
    DY_T,
    Dcast,
    Opaque,
    PT,
    RELAY,
    RELAY_BCAST,
    RELAY_LOCAL,
    Receive,
    Setting,
    Trace,
    availability_witness,
    check_adversary_feasible,
    check_setting_feasible,
    induced_receives,
    project_local,
    rename_bcast_to_dcast,
    rename_dcast_to_bcast,
    weaker_on_corpus,
)
from ndcheck.adversary import ADVERSARIES, ADVERSARY_NAMES
from ndcheck.generators import authored_beacon_trace, make_ordering_corpus
from ndcheck.rational import approx_num

F = Fraction
ALWAYS = ((F(0), None),)


def chain_setting():
    """A -- C -- D -- B with only adjacent links up; C, D adversarial."""
    return Setting(
        nodes=("A", "B", "C", "D"),
        loc={
            "A": (F(0), F(0)),
            "C": (F(2), F(0)),
            "D": (F(6), F(0)),
            "B": (F(8), F(0)),
        },
        node_type={"A": CORRECT, "B": CORRECT, "C": ADVERSARIAL, "D": ADVERSARIAL},
        link_schedule={
            ("A", "C"): ALWAYS,
            ("C", "A"): ALWAYS,
            ("C", "D"): ALWAYS,
            ("D", "C"): ALWAYS,
            ("D", "B"): ALWAYS,
            ("B", "D"): ALWAYS,
        },
    )


def relayed_trace(params, gap=None, relay_primitive="dcast", msg=None):
    """B beacons, D receives it, D re-sends after the given gap."""
    setting = chain_setting()
    msg = msg or BeaconT("B", F(0), F(1))
    sends = [Bcast("B", F(0), msg)]
    receives = induced_receives(sends, setting, params)
    entry = next(r for r in receives if r.actor == "D")
    gap = params.delta_relay if gap is None else gap
    if relay_primitive == "dcast":
        resend = Dcast("D", entry.start + gap, F(0), F(2), msg)
    else:
        resend = Bcast("D", entry.start + gap, msg)
    all_sends = sends + [resend]
    return Trace(all_sends + induced_receives(all_sends, setting, params)), setting


def test_same_node_relay_feasible_everywhere(unit_params):
    trace, setting = relayed_trace(unit_params)
    assert check_setting_feasible(trace, setting, unit_params).ok
    for kind in (RELAY, RELAY_LOCAL, DY_T):
        model = AdversaryModel(kind, unit_params.delta_relay)
        assert check_adversary_feasible(trace, setting, unit_params, model).ok


def test_too_fast_relay_rejected(unit_params):
    trace, setting = relayed_trace(unit_params, gap=unit_params.delta_relay / 2)
    for kind in (RELAY, RELAY_LOCAL, DY_T):
        model = AdversaryModel(kind, unit_params.delta_relay)
        verdict = check_adversary_feasible(trace, setting, unit_params, model)
        assert "relay-unjustified" in verdict.rules()


def test_epsilon_never_shortens_a_rational_relay_gap(unit_params):
    """Every distance of the chain is rational, so approximate mode decides
    the relay rule exactly: a relay 1/2000 short of delta_relay is refused
    under epsilon 1/1000, as in exact mode, and one at delta_relay passes."""
    num = approx_num(F(1, 1000))
    for gap, ok in ((unit_params.delta_relay, True), (unit_params.delta_relay - F(1, 2000), False)):
        trace, setting = relayed_trace(unit_params, gap=gap)
        for kind in (RELAY, RELAY_LOCAL, DY_T):
            model = AdversaryModel(kind, unit_params.delta_relay)
            verdict = check_adversary_feasible(trace, setting, unit_params, model, num)
            assert verdict == check_adversary_feasible(trace, setting, unit_params, model)
            assert verdict.ok == ok


def _below_root(q):
    """A rational within 10**-12 below sqrt(q), for an integer q that is no square."""
    return F(math.isqrt(q * 10**24), 10**12)


def test_epsilon_widens_a_relay_gap_once_where_a_root_is_read(unit_params):
    """Under epsilon 1/1000, C relays what X received from B, with a gap
    short of the bound delta_relay + |CX|/v_adv by 1/2000 (passes) or by
    2/1000 (refused), where the bound holds a root (X = D), where X's
    reception is the record of a flight with one (X = E), and where both
    do (X = G).  A gap short by 3/2000 is refused in each: epsilon is taken
    once, even where two roots are read."""
    setting = Setting(
        nodes=("B", "C", "D", "E", "G"),
        loc={
            "B": (F(0), F(0)),
            "C": (F(4), F(5)),
            "D": (F(3), F(4)),  # |BD| = 5, |CD| = sqrt(2)
            "E": (F(1), F(1)),  # |BE| = sqrt(2), |CE| = 5
            "G": (F(1), F(2)),  # |BG| = sqrt(5), |CG| = sqrt(18)
        },
        node_type={"B": CORRECT, "C": ADVERSARIAL, "D": ADVERSARIAL, "E": ADVERSARIAL, "G": ADVERSARIAL},
    )
    msg = Opaque("m", F(1))
    model = AdversaryModel(RELAY, unit_params.delta_relay)
    num = approx_num(F(1, 1000))
    # the receiver, its reception start and the bound, each a root read from below
    cases = (
        ("D", F(5), unit_params.delta_relay + _below_root(2)),
        ("E", _below_root(2), unit_params.delta_relay + 5),
        ("G", _below_root(5), unit_params.delta_relay + _below_root(18)),
    )
    for x, heard, bound in cases:
        for by, ok in ((F(1, 2000), True), (F(2, 1000), False), (F(3, 2000), False)):
            cast = Dcast("C", heard + bound - by, F(0), F(2), msg)
            trace = Trace([Bcast("B", F(0), msg), Receive(x, heard, "B", msg), cast])
            assert check_adversary_feasible(trace, setting, unit_params, model, num).ok == ok


def test_delta_relay_monotonicity(unit_params):
    trace, setting = relayed_trace(unit_params, gap=F(2))
    for delta in (F(2), F(1), F(1, 2), F(0)):
        model = AdversaryModel(RELAY, delta)
        assert check_adversary_feasible(trace, setting, unit_params, model).ok
    assert not check_adversary_feasible(
        trace, setting, unit_params, AdversaryModel(RELAY, F(3))
    ).ok


def test_cross_node_relay_needs_channel_budget(unit_params):
    """C re-sends what only D received: the channel flight time is owed."""
    setting = chain_setting()
    msg = BeaconT("B", F(0), F(1))
    sends = [Bcast("B", F(0), msg)]
    entry = next(
        r for r in induced_receives(sends, setting, unit_params) if r.actor == "D"
    )
    channel = F(4)  # dist(C, D) / v_adv
    good_gap = unit_params.delta_relay + channel
    for gap, expected in ((good_gap, True), (good_gap - F(1, 8), False)):
        resend = Dcast("C", entry.start + gap, F(1), F(1), msg)
        all_sends = sends + [resend]
        trace = Trace(all_sends + induced_receives(all_sends, setting, unit_params))
        model = AdversaryModel(RELAY, unit_params.delta_relay)
        assert check_adversary_feasible(trace, setting, unit_params, model).ok == expected
        # without the adversary channel the same-node rule always fails here
        local = AdversaryModel(RELAY_LOCAL, unit_params.delta_relay)
        assert not check_adversary_feasible(trace, setting, unit_params, local).ok


def test_adversary_speed_that_rounds_to_zero_in_approximate_mode(unit_params):
    """A v_adv that rounds to 0.0 as a float is decided exactly: the relay
    bound 1 + 4·10**997 is far beyond the gap of 5, in either mode."""
    setting = chain_setting()
    msg = BeaconT("B", F(0), F(1))
    sends = [Bcast("B", F(0), msg)]
    entry = next(r for r in induced_receives(sends, setting, unit_params) if r.actor == "D")
    all_sends = sends + [Dcast("C", entry.start + F(5), F(1), F(1), msg)]
    trace = Trace(all_sends + induced_receives(all_sends, setting, unit_params))
    tiny = F(1, 10**997)
    slow = replace(unit_params, v=tiny, v_adv=tiny)
    model = AdversaryModel(RELAY, unit_params.delta_relay)
    verdict = check_adversary_feasible(trace, setting, slow, model, approx_num(F(1, 1000)))
    assert verdict.rules() == {"relay-unjustified"}
    assert verdict == check_adversary_feasible(trace, setting, slow, model)


def test_adversarial_bcast_forbidden_except_bcast_model(unit_params):
    trace, setting = relayed_trace(unit_params, relay_primitive="bcast")
    assert check_setting_feasible(trace, setting, unit_params).ok
    bcast_model = AdversaryModel(RELAY_BCAST, unit_params.delta_relay)
    assert check_adversary_feasible(trace, setting, unit_params, bcast_model).ok
    for kind in (RELAY, RELAY_LOCAL, DY_T):
        verdict = check_adversary_feasible(
            trace, setting, unit_params, AdversaryModel(kind, unit_params.delta_relay)
        )
        assert "adversarial-bcast" in verdict.rules()


def test_dcast_forbidden_under_bcast_model(unit_params):
    trace, setting = relayed_trace(unit_params)
    verdict = check_adversary_feasible(
        trace, setting, unit_params, AdversaryModel(RELAY_BCAST, unit_params.delta_relay)
    )
    assert "adversarial-dcast" in verdict.rules()


def test_never_received_message_rejected_by_all_relay_kinds(unit_params):
    setting = chain_setting()
    msg = Opaque("ghost", F(1))
    sends = [Dcast("C", F(5), F(0), F(2), msg)]
    trace = Trace(sends + induced_receives(sends, setting, unit_params))
    for kind in (RELAY, RELAY_LOCAL):
        verdict = check_adversary_feasible(
            trace, setting, unit_params, AdversaryModel(kind, unit_params.delta_relay)
        )
        assert "relay-unjustified" in verdict.rules()


def test_self_authored_beacon_only_under_dolev_yao(unit_params):
    trace, setting = authored_beacon_trace(unit_params)
    assert check_setting_feasible(trace, setting, unit_params).ok
    dy = AdversaryModel(DY_T, unit_params.delta_relay)
    assert check_adversary_feasible(trace, setting, unit_params, dy).ok
    for kind in (RELAY, RELAY_LOCAL):
        verdict = check_adversary_feasible(
            trace, setting, unit_params, AdversaryModel(kind, unit_params.delta_relay)
        )
        assert "relay-unjustified" in verdict.rules()


def test_dolev_yao_rejects_foreign_payload_kind(unit_params):
    trace, setting = relayed_trace(unit_params, msg=Opaque("x", F(1)))
    verdict = check_adversary_feasible(
        trace, setting, unit_params, AdversaryModel(DY_T, unit_params.delta_relay)
    )
    assert "message-outside-model" in verdict.rules()
    verdict = check_adversary_feasible(
        trace, setting, unit_params, AdversaryModel(DY_GT, unit_params.delta_relay)
    )
    assert "message-outside-model" in verdict.rules()


def test_correct_node_dcast_left_to_physics(unit_params):
    setting, witness = availability_witness(PT, F(8), unit_params)
    trace = witness.union([Dcast("A", F(20), F(0), F(2), BeaconT("A", F(20), F(1)))])
    assert "dcast-by-correct-node" in check_setting_feasible(trace, setting, unit_params).rules()
    for kind in ADVERSARY_NAMES:
        model = AdversaryModel(kind, unit_params.delta_relay)
        assert check_adversary_feasible(trace, setting, unit_params, model).ok, kind


def test_silence_feasible_under_every_model(unit_params):
    setting = chain_setting()
    msg = BeaconT("B", F(0), F(1))
    sends = [Bcast("B", F(0), msg)]
    trace = Trace(sends + induced_receives(sends, setting, unit_params))
    for kind in (RELAY, RELAY_BCAST, RELAY_LOCAL, DY_T):
        model = AdversaryModel(kind, unit_params.delta_relay)
        assert check_adversary_feasible(trace, setting, unit_params, model).ok


# ---------------------------------------------------------------------------
# renaming


def test_rename_round_trip_and_identity(unit_params):
    trace, setting = relayed_trace(unit_params, relay_primitive="bcast")
    renamed = rename_bcast_to_dcast(trace, setting)
    assert any(isinstance(e, Dcast) for e in renamed)
    assert rename_dcast_to_bcast(renamed, setting) == trace
    honest_only = Trace(
        [e for e in trace if not (isinstance(e, Bcast) and e.actor == "D")]
    )
    assert rename_bcast_to_dcast(honest_only, setting).events == honest_only.events


def test_rename_preserves_feasibility_and_views(unit_params):
    trace, setting = relayed_trace(unit_params, relay_primitive="bcast")
    renamed = rename_bcast_to_dcast(trace, setting)
    before = check_setting_feasible(trace, setting, unit_params)
    after = check_setting_feasible(renamed, setting, unit_params)
    assert before.ok and after.ok
    for node in setting.correct_nodes:
        assert (
            project_local(trace, node).events == project_local(renamed, node).events
        )
    model = AdversaryModel(RELAY, unit_params.delta_relay)
    assert check_adversary_feasible(renamed, setting, unit_params, model).ok


# ---------------------------------------------------------------------------
# ordering


def _implied_inclusions():
    """(a, b, renamed) for each ordered pair of models whose table rows say
    that every trace a allows b allows too, on corpora of BeaconT payloads:
    a's relays are justified where b's are, a authors nothing b may not,
    b takes the payloads, and b makes a's transmissions, up to renaming
    broadcasts as full-circle casts."""
    implied = []
    for a, weaker in ADVERSARIES.items():
        for b, stronger in ADVERSARIES.items():
            if (
                a != b
                and (weaker.own_only or not stronger.own_only)
                and weaker.authors in (None, stronger.authors)
                and stronger.authors in (None, BeaconT)
                and (weaker.sends, stronger.sends) in ((Bcast, Bcast), (Dcast, Dcast), (Bcast, Dcast))
            ):
                implied.append((a, b, weaker.sends is not stronger.sends))
    return implied


def test_ordering_on_generated_corpus(unit_params):
    """Every inclusion the adversary table implies holds, and is exercised,
    on each generated ordering corpus.  The converse is not asserted: a
    corpus need not refute a pair the table does not imply."""
    implied = _implied_inclusions()
    assert sorted(implied) == [
        (RELAY, DY_T, False),
        (RELAY_BCAST, DY_T, True),
        (RELAY_BCAST, RELAY, True),
        (RELAY_LOCAL, DY_T, False),
        (RELAY_LOCAL, RELAY, False),
    ]
    delta = unit_params.delta_relay
    for seed, size in ((88, 31), (11, 12), (21, 8)):
        entries = make_ordering_corpus(seed=seed, size=size, params=unit_params)
        corpus = [(trace, setting) for trace, setting, _ in entries]
        for a, b, renamed in implied:
            report = weaker_on_corpus(
                AdversaryModel(a, delta),
                AdversaryModel(b, delta),
                corpus,
                unit_params,
                use_renaming=renamed,
            )
            assert report.inclusion_holds and report.applicable > 0, (seed, a, b)
    # the authored-beacon trace separates dy-t from the three relay models
    trace, setting = authored_beacon_trace(unit_params)
    assert check_adversary_feasible(trace, setting, unit_params, AdversaryModel(DY_T, delta)).ok
    for kind in (RELAY, RELAY_BCAST, RELAY_LOCAL):
        verdict = check_adversary_feasible(trace, setting, unit_params, AdversaryModel(kind, delta))
        assert not verdict.ok, kind
