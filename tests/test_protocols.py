import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ndcheck import (
    BcastAction,
    BeaconT,
    BeaconTL,
    EPSILON,
    FlavorMismatch,
    InaccuracyParams,
    LocalReceive,
    LocalView,
    NeighborAction,
    Opaque,
    PGT,
    PGT_APPROX,
    PT,
    SystemParams,
    T_FLAVOR,
    TL_FLAVOR,
    Trace,
    availability_witness,
    check_pgt_feasible,
    check_protocol_feasible,
    check_pt_feasible,
    honest_pair_setting,
    make_protocol,
    naive_decide,
    pgt_approx_decide,
    pgt_decide,
    plan_relay_attack,
    protocol_verdict,
    pt_decide,
)
from ndcheck import core, protocols
from ndcheck.core import (
    ADVERSARIAL,
    CORRECT,
    Bcast,
    Dcast,
    Neighbor,
    Receive,
    Setting,
    induced_receives,
    sq_dist,
)
from ndcheck.generators import random_params, random_setting, random_tl_views, random_trace
from ndcheck.protocols import PROTOCOLS, pgt_accepts, pgt_approx_accepts
from ndcheck.rational import approx_num

F = Fraction


def t_view(receives, as_of=F(100), owner="A"):
    return LocalView(T_FLAVOR, owner, as_of, None, frozenset(receives))


def tl_view(receives, as_of=F(100), owner="A", owner_loc=(F(0), F(0))):
    return LocalView(TL_FLAVOR, owner, as_of, owner_loc, frozenset(receives))


# ---------------------------------------------------------------------------
# time-stamped decisions


def test_pt_offers_fresh_beacon(unit_params):
    view = t_view([LocalReceive(F(8), BeaconT("B", F(0), F(1)))])
    actions = pt_decide(view, unit_params)
    assert NeighborAction("B", F(8)) in actions
    assert EPSILON in actions
    assert BcastAction(BeaconT("A", F(100), F(1))) in actions


def test_pt_rejects_stale_beacon(unit_params):
    view = t_view([LocalReceive(F(12), BeaconT("B", F(0), F(1)))])
    assert not any(
        isinstance(a, NeighborAction) for a in pt_decide(view, unit_params)
    )


def test_pt_boundary_inclusive(unit_params):
    # age exactly range/speed is still fresh
    view = t_view([LocalReceive(F(10), BeaconT("B", F(0), F(1)))])
    assert NeighborAction("B", F(10)) in pt_decide(view, unit_params)


def test_pt_flavor_guard(unit_params):
    with pytest.raises(FlavorMismatch):
        pt_decide(tl_view([]), unit_params)


# ---------------------------------------------------------------------------
# time+location decisions


def test_pgt_accepts_matching_estimates(unit_params):
    beacon = BeaconTL("B", F(0), (F(3), F(4)), F(1))
    view = tl_view([LocalReceive(F(5), beacon)])
    assert NeighborAction("B", F(5)) in pgt_decide(view, unit_params)


def test_pgt_rejects_relay_inflated_delay(unit_params):
    # time estimate exceeds the location estimate by the relay delay
    beacon = BeaconTL("B", F(0), (F(3), F(4)), F(1))
    view = tl_view([LocalReceive(F(5) + unit_params.delta_relay, beacon)])
    assert not any(
        isinstance(a, NeighborAction) for a in pgt_decide(view, unit_params)
    )


def test_pgt_zero_distance_self_consistent(unit_params):
    beacon = BeaconTL("B", F(7), (F(0), F(0)), F(1))
    view = tl_view([LocalReceive(F(7), beacon)])
    assert NeighborAction("B", F(7)) in pgt_decide(view, unit_params)


def test_pgt_rejects_negative_delay_with_matching_square(unit_params):
    # arrival before the stamp cannot stand for a distance
    beacon = BeaconTL("B", F(10), (F(3), F(4)), F(1))
    view = tl_view([LocalReceive(F(5), beacon)])
    assert not any(
        isinstance(a, NeighborAction) for a in pgt_decide(view, unit_params)
    )


def test_pgt_flavor_guard(unit_params):
    with pytest.raises(FlavorMismatch):
        pgt_decide(t_view([]), unit_params)


# ---------------------------------------------------------------------------
# slack-tolerant decisions


def test_approx_window_boundary(unit_params):
    inacc = InaccuracyParams(F(1, 10), F(1, 20))  # window 3/20
    base = BeaconTL("B", F(0), (F(3), F(4)), F(1))
    at_window = tl_view([LocalReceive(F(5) + F(3, 20), base)])
    over_window = tl_view([LocalReceive(F(5) + F(3, 20) + F(1, 1000), base)])
    assert any(
        isinstance(a, NeighborAction)
        for a in pgt_approx_decide(at_window, unit_params, inacc)
    )
    assert not any(
        isinstance(a, NeighborAction)
        for a in pgt_approx_decide(over_window, unit_params, inacc)
    )


def test_approx_window_symmetric_below(unit_params):
    inacc = InaccuracyParams(F(1, 10), F(0))
    base = BeaconTL("B", F(0), (F(3), F(4)), F(1))
    early = tl_view([LocalReceive(F(5) - F(1, 10), base)])
    too_early = tl_view([LocalReceive(F(5) - F(2, 10), base)])
    assert any(
        isinstance(a, NeighborAction)
        for a in pgt_approx_decide(early, unit_params, inacc)
    )
    assert not any(
        isinstance(a, NeighborAction)
        for a in pgt_approx_decide(too_early, unit_params, inacc)
    )


def test_approx_handles_irrational_location_estimate(unit_params):
    # claimed offset (1,1): location estimate sqrt(2), never exactly matched,
    # but a wide window accepts it
    beacon = BeaconTL("B", F(0), (F(1), F(1)), F(1))
    view = tl_view([LocalReceive(F(3, 2), beacon)])
    wide = InaccuracyParams(F(1), F(0))
    narrow = InaccuracyParams(F(1, 100), F(0))
    assert any(
        isinstance(a, NeighborAction)
        for a in pgt_approx_decide(view, unit_params, wide)
    )
    assert not any(
        isinstance(a, NeighborAction)
        for a in pgt_approx_decide(view, unit_params, narrow)
    )


def test_approx_degenerates_to_exact(unit_params):
    zero = InaccuracyParams(F(0), F(0))
    for view in random_tl_views(seed=7, count=100, params=unit_params):
        assert pgt_approx_decide(view, unit_params, zero) == pgt_decide(
            view, unit_params
        )


# ---------------------------------------------------------------------------
# integer acceptance tests against the Fraction formulas

_DENS = (1, 3, 10**9 + 7, 998244353, 2**61 - 1)  # large coprime denominators among them
_TINY = (F(0), F(1, 2**61 - 1), -F(1, 2**61 - 1), F(1, 10**9 + 7), -F(1, 998244353))


def _ratio(low, high):
    return st.builds(F, st.integers(low, high), st.sampled_from(_DENS))


def _offset(draw, length):
    """An offset of the given rational length, or of any length when it is None."""
    if length is None:
        return draw(_ratio(-10**9, 10**9)), draw(_ratio(-10**9, 10**9))
    a, b, c = draw(st.sampled_from(((3, 4, 5), (5, 12, 13), (-8, 15, 17))))
    return a * length / c, b * length / c


@st.composite
def _pgt_cases(draw):
    """A beacon, its receiver's location and its reception start, and a
    window; the reception lies on, just inside or just outside the window
    around the location estimate (a zero window: on the exact estimate),
    or anywhere, before the stamp too."""
    v = draw(_ratio(1, 10**6))
    params = SystemParams(v, v, F(1), F(0), F(1))
    owner = (draw(_ratio(-10**9, 10**9)), draw(_ratio(-10**9, 10**9)))
    length = draw(st.sampled_from((F(0), None)) | _ratio(0, 10**9))
    dx, dy = _offset(draw, length)
    beacon = BeaconTL("B", draw(_ratio(0, 10**9)), (owner[0] + dx, owner[1] + dy), F(1))
    window = draw(st.just(F(0)) | _ratio(0, 10**6))
    if length is None or draw(st.booleans()):
        dt = draw(_ratio(-10**9, 10**9))
    else:
        dt = length / v + draw(st.sampled_from((-window, window))) + draw(st.sampled_from(_TINY))
    share = draw(st.sampled_from((F(0), F(1, 3), F(1))))
    inacc = InaccuracyParams(window * share, window * (1 - share))
    return params, owner, beacon.beacon_time + dt, beacon, inacc


def _reference_pgt(params, owner_loc, receive_start, beacon):
    dt = receive_start - beacon.beacon_time
    return dt >= 0 and (params.v * dt) ** 2 == sq_dist(owner_loc, beacon.beacon_loc)


def _reference_pgt_approx(params, owner_loc, receive_start, beacon, inacc):
    dt = receive_start - beacon.beacon_time
    squared = sq_dist(owner_loc, beacon.beacon_loc)
    upper = params.v * (dt + inacc.window)
    lower = params.v * (dt - inacc.window)
    if upper < 0 or squared > upper * upper:
        return False
    return lower <= 0 or squared >= lower * lower


@settings(max_examples=400)
@given(_pgt_cases())
def test_integer_pgt_acceptance_matches_fraction_formulas(case):
    params, owner, at, beacon, inacc = case
    assert pgt_accepts(params, owner, at, beacon) == _reference_pgt(params, owner, at, beacon)
    assert pgt_approx_accepts(params, owner, at, beacon, inacc) == _reference_pgt_approx(
        params, owner, at, beacon, inacc
    )


@st.composite
def _pt_cases(draw):
    """pt parameters, a beacon and a reception start whose age lies on,
    just inside or just outside range/speed, or anywhere, before the stamp
    too; each value an int or a Fraction, often of a large prime
    denominator."""

    def value(low, high):
        return draw(st.integers(low, high) | _ratio(low, high))

    v, nd_range = value(1, 10**6), value(1, 10**9)
    params = SystemParams(v, v, nd_range, 0, 1)
    stamp = value(0, 10**9)
    if draw(st.booleans()):
        at = stamp + F(nd_range) / v + draw(st.sampled_from(_TINY))
        if at.denominator == 1 and draw(st.booleans()):
            at = at.numerator
    else:
        at = stamp + value(-10**9, 10**9)
    return params, at, BeaconT("B", stamp, F(1))


@settings(max_examples=400)
@given(_pt_cases())
def test_integer_pt_acceptance_matches_fraction_formula(case):
    params, at, beacon = case
    expected = at - beacon.beacon_time <= F(params.nd_range) / params.v
    assert protocols.pt_accepts(params, at, beacon) == expected


def _reference_stamp_rule(e, setting, params, inacc):
    if e.msg.duration != params.msg_duration_default:
        return "beacon-duration-mismatch"
    if abs(e.msg.beacon_time - e.start) > inacc.delta:
        return "beacon-time-mismatch"
    bound = inacc.tau * params.v
    if sq_dist(e.msg.beacon_loc, setting.loc[e.actor]) > bound * bound:
        return "beacon-location-mismatch"
    return None


@settings(max_examples=400)
@given(st.data())
def test_integer_stamp_location_bound_matches_fraction_formula(data):
    """Claimed locations on, just inside and just outside tau·v of the true one."""
    v = data.draw(_ratio(1, 10**6))
    params = SystemParams(v, v, F(1), F(0), F(1))
    delta = data.draw(_ratio(0, 10**6))
    inacc = InaccuracyParams(delta, data.draw(st.just(F(0)) | _ratio(0, 10**6)))
    loc = (data.draw(_ratio(-10**9, 10**9)), data.draw(_ratio(-10**9, 10**9)))
    setting = Setting(["A"], {"A": loc}, {"A": CORRECT})
    length = data.draw(st.sampled_from((F(0), None, inacc.tau * v)))
    if length:
        length *= 1 + data.draw(st.sampled_from(_TINY))
    dx, dy = _offset(data.draw, length)
    start = data.draw(_ratio(0, 10**9))
    skew = data.draw(st.sampled_from((F(0), delta, -delta))) + data.draw(st.sampled_from(_TINY))
    beacon = BeaconTL("A", max(F(0), start + skew), (loc[0] + dx, loc[1] + dy), F(1))
    e = Bcast("A", start, beacon)
    found = protocols.beacon_violation(PROTOCOLS[PGT_APPROX], e, setting, params, inacc)
    assert (found and found.rule) == _reference_stamp_rule(e, setting, params, inacc)


def test_pgt_approx_mode_decides_a_speed_that_rounds_to_zero():
    """A speed that rounds to 0.0 as a float is decided exactly.  The
    rational location estimate 5/v = 5·10**997 is compared exactly in
    approximate mode too; the irrational one, sqrt(2)/v at a claimed
    location (1, 1), has the window epsilon about it."""
    v = F(1, 10**997)
    params = SystemParams(v, v, F(1), F(0), F(1))
    beacon = BeaconTL("B", F(0), (F(3), F(4)), F(1))
    num = approx_num(F(1, 1000))
    assert not pgt_accepts(params, (F(0), F(0)), F(5), beacon, num)
    for shift, accepted in ((F(0), True), (F(1, 2000), False), (-F(1, 1000), False)):
        assert pgt_accepts(params, (F(0), F(0)), 5 / v + shift, beacon, num) == accepted
    beacon = BeaconTL("B", F(0), (F(1), F(1)), F(1))
    estimate = F(math.isqrt(2 * 10 ** (2 * 1007)), 10**10)  # within 10**-10 below sqrt(2)/v
    for shift, accepted in (
        (F(0), True),
        (F(1, 1000), True),
        (-F(999, 1000000), True),
        (F(1, 999), False),
        (-F(1, 999), False),
    ):
        assert pgt_accepts(params, (F(0), F(0)), estimate + shift, beacon, num) == accepted
        assert not pgt_accepts(params, (F(0), F(0)), estimate + shift, beacon, approx_num(F(0)))


# ---------------------------------------------------------------------------
# naive baseline


def test_naive_accepts_everything(unit_params):
    view = t_view([LocalReceive(F(3), Opaque("id-B", F(1)))])
    assert NeighborAction("B", F(3)) in naive_decide(view, unit_params)
    empty = naive_decide(t_view([]), unit_params)
    assert EPSILON in empty
    assert any(isinstance(a, BcastAction) for a in empty)
    assert not any(isinstance(a, NeighborAction) for a in empty)


def test_decide_deterministic(unit_params):
    view = t_view([LocalReceive(F(8), BeaconT("B", F(0), F(1)))])
    assert pt_decide(view, unit_params) == pt_decide(view, unit_params)


# ---------------------------------------------------------------------------
# direct trace predicates


def witness_trace(protocol, unit_params, d=F(8)):
    return availability_witness(protocol, d, unit_params)


def test_pt_direct_accepts_witness(unit_params):
    setting, trace = witness_trace(PT, unit_params)
    assert check_pt_feasible(trace, setting, unit_params).ok


def test_pt_rejects_forged_creator(unit_params):
    setting, trace = witness_trace(PT, unit_params)
    forged = trace.union([Bcast("A", F(1), BeaconT("B", F(5), F(1)))])
    verdict = check_pt_feasible(forged, setting, unit_params)
    assert "beacon-foreign-creator" in verdict.rules()


def test_pt_rejects_mistimed_beacon(unit_params):
    setting, trace = witness_trace(PT, unit_params)
    bad = trace.union([Bcast("A", F(1), BeaconT("A", F(5), F(1)))])
    verdict = check_pt_feasible(bad, setting, unit_params)
    assert "beacon-time-mismatch" in verdict.rules()


def test_pt_declaration_strictly_after_reception_end(unit_params):
    setting, trace = witness_trace(PT, unit_params)
    # reception spans [8, 9]; declaring exactly at 9 is premature
    early = trace.union([Neighbor("A", F(9), "B", F(8))])
    verdict = check_pt_feasible(early, setting, unit_params)
    assert "neighbor-unjustified" in verdict.rules()
    late = trace.union([Neighbor("A", F(9) + F(1, 10**9), "B", F(8))])
    assert check_pt_feasible(late, setting, unit_params).ok


def test_pt_rejects_non_beacon_broadcast(unit_params):
    setting, trace = witness_trace(PT, unit_params)
    noisy = trace.union([Bcast("A", F(2), Opaque("noise", F(1)))])
    verdict = check_pt_feasible(noisy, setting, unit_params)
    assert "bcast-not-a-beacon" in verdict.rules()


def test_pgt_direct_accepts_witness(unit_params):
    setting, trace = witness_trace(PGT, unit_params)
    assert check_pgt_feasible(trace, setting, unit_params).ok


def test_pgt_rejects_wrong_location_claim(unit_params):
    setting, trace = witness_trace(PGT, unit_params)
    lying = trace.union(
        [Bcast("A", F(1), BeaconTL("A", F(1), (F(3), F(0)), F(1)))]
    )
    verdict = check_pgt_feasible(lying, setting, unit_params)
    assert "beacon-location-mismatch" in verdict.rules()


def test_pgt_slack_relaxes_stamps(unit_params):
    setting, trace = witness_trace(PGT, unit_params)
    inacc = InaccuracyParams(F(1, 2), F(1, 4))
    skewed = trace.union(
        [Bcast("A", F(1), BeaconTL("A", F(1) + F(1, 2), (F(1, 4), F(0)), F(1)))]
    )
    assert not check_pgt_feasible(skewed, setting, unit_params).ok
    assert check_pgt_feasible(skewed, setting, unit_params, inacc).ok
    too_skewed = trace.union(
        [Bcast("A", F(1), BeaconTL("A", F(2), (F(0), F(0)), F(1)))]
    )
    assert not check_pgt_feasible(too_skewed, setting, unit_params, inacc).ok


@pytest.mark.parametrize("protocol", [PT, PGT, PGT_APPROX])
def test_both_routes_reject_nondefault_beacon_duration(protocol, unit_params):
    inacc = InaccuracyParams(F(1, 10), F(1, 10)) if protocol == PGT_APPROX else None
    setting, trace = witness_trace(protocol, unit_params)
    beacon = PROTOCOLS[protocol].beacon("A", F(20), setting.loc["A"], unit_params)
    stretched = trace.union([Bcast("A", F(20), replace(beacon, duration=F(2)))])
    direct = protocol_verdict(stretched, setting, protocol, unit_params, inacc)
    assert direct.rules() == {"beacon-duration-mismatch"}
    model = make_protocol(protocol, unit_params, inacc)
    generic = check_protocol_feasible(stretched, setting, model, unit_params)
    assert generic.rules() == {"bcast-not-permitted"}


def test_unjustified_declaration(unit_params):
    setting, trace = witness_trace(PT, unit_params)
    invented = trace.union([Neighbor("B", F(20), "A", F(15))])
    verdict = check_pt_feasible(invented, setting, unit_params)
    assert "neighbor-unjustified" in verdict.rules()


# ---------------------------------------------------------------------------
# generic conformance route


@pytest.mark.parametrize("protocol", ["naive", "pt", "pgt"])
def test_generic_route_agrees_on_witness(protocol, unit_params):
    setting, trace = witness_trace(protocol, unit_params)
    model = make_protocol(protocol, unit_params)
    assert check_protocol_feasible(trace, setting, model, unit_params).ok


def test_generic_route_flags_foreign_beacon(unit_params):
    setting, trace = witness_trace(PT, unit_params)
    forged = trace.union([Bcast("A", F(1), BeaconT("B", F(5), F(1)))])
    model = make_protocol(PT, unit_params)
    verdict = check_protocol_feasible(forged, setting, model, unit_params)
    assert "bcast-not-permitted" in verdict.rules()


def test_generic_route_flags_unjustified_declaration(unit_params):
    setting, trace = witness_trace(PT, unit_params)
    invented = trace.union([Neighbor("B", F(20), "A", F(15))])
    model = make_protocol(PT, unit_params)
    verdict = check_protocol_feasible(invented, setting, model, unit_params)
    assert "neighbor-not-permitted" in verdict.rules()


def test_generic_route_decides_once_per_own_action(unit_params):
    # the pt witness (B beacons at 0, A declares B at 10) with a relay C
    # between them: C recasts B's beacon, and A declares B again from it
    witness, _ = witness_trace(PT, unit_params)
    setting = Setting(
        ("A", "B", "C"),
        {**witness.loc, "C": (F(4), F(0))},
        {**witness.node_type, "C": ADVERSARIAL},
        {(a, b): ((F(0), None),) for a in "ABC" for b in "ABC" if a != b},
    )
    beacon = BeaconT("B", F(0), F(1))
    sends = [
        Bcast("B", F(0), beacon),
        Bcast("A", F(2), BeaconT("A", F(2), F(1))),
        Dcast("C", F(5), F(0), F(2), beacon),
    ]
    declarations = [Neighbor("A", F(10), "B", F(8)), Neighbor("A", F(11), "B", F(9))]
    trace = Trace(sends + induced_receives(sends, setting, unit_params) + declarations)
    model = make_protocol(PT, unit_params)
    decided = []
    counting = replace(model, decide=lambda view: decided.append(view.as_of) or model.decide(view))
    assert check_protocol_feasible(trace, setting, counting, unit_params).ok
    assert sorted(decided) == [F(0), F(2), F(10), F(11)]


def dense_pt_trace(rounds, params):
    """Three correct nodes, all links up, a pt beacon from each every 10
    time units, and every reception from another node declared once it ends.

    The nodes sit at (0,0), (3,0) and (0,4), so no node hears two beacons
    starting at the same instant.
    """
    setting = Setting(
        ("A", "B", "C"),
        {"A": (F(0), F(0)), "B": (F(3), F(0)), "C": (F(0), F(4))},
        {node: CORRECT for node in "ABC"},
        {(a, b): ((F(0), None),) for a in "ABC" for b in "ABC" if a != b},
    )
    spec = PROTOCOLS[PT]
    sends = [
        Bcast(node, F(10 * k), spec.beacon(node, F(10 * k), setting.loc[node], params))
        for k in range(rounds)
        for node in "ABC"
    ]
    receives = induced_receives(sends, setting, params)
    declarations = [
        Neighbor(r.actor, r.start + r.msg.duration + F(1, 2), r.sender, r.start)
        for r in receives
        if r.actor != r.sender
    ]
    return setting, Trace(sends + receives + declarations), len(declarations)


@pytest.mark.parametrize("rounds", [20, 40])
def test_generic_route_runs_acceptance_once_per_declaration(rounds, unit_params, monkeypatch):
    # the acceptance count grows with the declarations, not with the
    # square of the trace
    setting, trace, declared = dense_pt_trace(rounds, unit_params)
    calls = []
    accepts = protocols.pt_accepts
    monkeypatch.setattr(
        protocols, "pt_accepts", lambda *args: calls.append(args) or accepts(*args)
    )
    model = make_protocol(PT, unit_params)
    assert check_protocol_feasible(trace, setting, model, unit_params).ok
    assert 0 < len(calls) <= declared


# the larger trace has twice the rounds; each count on it may exceed twice
# the count on the smaller one by this much (the rounds at either end)
DOUBLING_SLACK = 12


def test_generic_route_work_is_linear_in_each_history(unit_params, monkeypatch):
    """On dense traces of 20 and 40 rounds the generic route builds no
    frozenset of view events, makes no own event local through
    ``core._local_event`` (a declaration makes only the receptions it
    tests), and its acceptance calls and index entries at most double."""
    built, accepted, made = [], [], []
    accepts, local_event = protocols.pt_accepts, core._local_event
    # every frozenset core builds, a view's events included, goes through this name
    monkeypatch.setattr(core, "frozenset", lambda *a: built.append(a) or frozenset(*a), False)
    monkeypatch.setattr(protocols, "pt_accepts", lambda *a: accepted.append(a) or accepts(*a))
    monkeypatch.setattr(core, "_local_event", lambda e: made.append(e) or local_event(e))
    model = make_protocol(PT, unit_params)

    def work(rounds):
        setting, trace, _ = dense_pt_trace(rounds, unit_params)
        built.clear()
        accepted.clear()
        made.clear()
        assert check_protocol_feasible(trace, setting, model, unit_params).ok
        assert not built
        assert not made
        entries = sum(
            len(index.own) + sum(map(len, index.at.values()))
            for index in trace._views.values()
        )
        return len(accepted), entries

    (small_calls, small_entries), (large_calls, large_entries) = work(20), work(40)
    assert 0 < large_calls <= 2 * small_calls + DOUBLING_SLACK
    assert 0 < large_entries <= 2 * small_entries + DOUBLING_SLACK


def test_generic_route_formats_details_of_refused_actions_only(unit_params, monkeypatch):
    """On a dense trace whose every action is permitted, the generic route
    writes out no start, as a violation's detail would."""
    setting, trace, _ = dense_pt_trace(20, unit_params)
    written = []
    text = Fraction.__str__
    monkeypatch.setattr(Fraction, "__str__", lambda x: written.append(x) or text(x))
    model = make_protocol(PT, unit_params)
    assert check_protocol_feasible(trace, setting, model, unit_params).ok
    assert not written


def listing(model):
    """The model with each decision listed in full as a frozenset."""
    return replace(model, decide=lambda view: frozenset(model.decide(view)))


def stale_declaration(trace, setting, rng):
    """A correct node declares a random node on one of its completed receptions."""
    correct = set(setting.correct_nodes)
    heard = [r for r in trace.of_kind(Receive) if r.actor in correct]
    if not heard:
        return None
    r = rng.choice(heard)
    peer = rng.choice(setting.nodes)
    return trace.union([Neighbor(r.actor, r.start + r.msg.duration + 1, peer, r.start)])


def forged_beacon(trace, setting, params, protocol, rng):
    """A correct node broadcasts the beacon another node would send."""
    node = rng.choice(setting.correct_nodes)
    other = rng.choice([n for n in setting.nodes if n != node])
    t = F(rng.randint(0, 400), 8)
    msg = PROTOCOLS[protocol].beacon(other, t, setting.loc[other], params)
    return trace.union([Bcast(node, t, msg)])


@pytest.mark.parametrize(
    "protocol, adversary, seed",
    [("naive", "relay", 21), ("pt", "dy-t", 22), ("pgt", "dy-gt", 23), ("pgt-approx", "relay", 24)],
)
def test_generic_route_matches_listed_decisions(protocol, adversary, seed):
    rng = random.Random(seed)
    horizon = F(40)
    inacc = InaccuracyParams(F(1, 10), F(1, 20)) if protocol == PGT_APPROX else None
    oks = []
    for _ in range(30):
        params = random_params(rng, protocol == "pt", protocol.startswith("pgt"))
        setting = random_setting(rng, horizon)
        trace = random_trace(rng, setting, params, protocol, adversary, horizon)
        model = make_protocol(protocol, params, inacc)
        mutants = (
            trace,
            stale_declaration(trace, setting, rng),
            shift_declaration(trace, setting),
            forged_beacon(trace, setting, params, protocol, rng),
        )
        for mutant in mutants:
            if mutant is None:
                continue
            verdict = check_protocol_feasible(mutant, setting, model, params)
            assert verdict == check_protocol_feasible(mutant, setting, listing(model), params)
            oks.append(verdict.ok)
    # neither all accepted nor all rejected
    assert True in oks and False in oks


# ---------------------------------------------------------------------------
# the generic and the direct route agree


def routes_agree(trace, setting, protocol, params, inacc=None):
    """Both routes give the same ok/not-ok verdict; returns that verdict."""
    generic = check_protocol_feasible(
        trace, setting, make_protocol(protocol, params, inacc), params
    )
    direct = protocol_verdict(trace, setting, protocol, params, inacc)
    assert generic.ok == direct.ok, (generic.rules(), direct.rules())
    return direct.ok


@pytest.mark.parametrize("protocol", ["naive", "pt", "pgt"])
@pytest.mark.parametrize("d", [F(1, 3), F(5), F(10)])
def test_routes_agree_on_witnesses(protocol, d, unit_params):
    setting, trace = availability_witness(protocol, d, unit_params)
    assert routes_agree(trace, setting, protocol, unit_params)


def shift_declaration(trace, setting):
    correct = set(setting.correct_nodes)
    for e in trace:
        if isinstance(e, Neighbor) and e.actor in correct:
            return Trace(
                [x for x in trace if x != e] + [replace(e, peer_time=e.peer_time + F(1, 16))]
            )
    return None


def mutate_first_beacon(trace, setting, change):
    correct = set(setting.correct_nodes)
    for e in trace:
        if isinstance(e, Bcast) and e.actor in correct:
            return Trace([x for x in trace if x != e] + [replace(e, msg=change(e.msg))])
    return None


def shift_stamp(trace, setting):
    return mutate_first_beacon(
        trace, setting, lambda msg: replace(msg, beacon_time=msg.beacon_time + F(1, 16))
    )


def stretch_beacon(trace, setting):
    return mutate_first_beacon(trace, setting, lambda msg: replace(msg, duration=msg.duration * 2))


@pytest.mark.parametrize("protocol, adversary, seed", [("pt", "dy-t", 11), ("pgt", "dy-gt", 12)])
def test_routes_agree_on_generated_traces_and_mutants(protocol, adversary, seed):
    rng = random.Random(seed)
    horizon = F(40)
    verdicts = []
    for index in range(50):
        params = random_params(rng, protocol == "pt", protocol == "pgt")
        setting = random_setting(rng, horizon)
        trace = random_trace(rng, setting, params, protocol, adversary, horizon)
        assert routes_agree(trace, setting, protocol, params)
        mutations = [shift_declaration, shift_stamp]
        if index % 2:
            mutations.reverse()
        mutant = mutations[0](trace, setting) or mutations[1](trace, setting)
        if mutant is not None:
            verdicts.append(routes_agree(mutant, setting, protocol, params))
        stretched = stretch_beacon(trace, setting)
        if stretched is not None:
            assert not routes_agree(stretched, setting, protocol, params)
    # the mutants are not vacuous: most are rejected by both routes
    assert verdicts.count(False) > len(verdicts) // 2


def moved_own_copies(trace, setting, rng):
    """(moved event, mutant) for a correct node's declaration with its peer
    time moved by 1/2000, and for a correct node's broadcast with its beacon
    stamp moved by 1/2000 (its receptions keep the beacon sent); each way at
    random, reflected at 0."""
    correct = set(setting.correct_nodes)
    shift = rng.choice((F(1, 2000), F(-1, 2000)))
    moves = {
        Neighbor: lambda e: replace(e, peer_time=abs(e.peer_time + shift)),
        Bcast: lambda e: replace(e, msg=replace(e.msg, beacon_time=abs(e.msg.beacon_time + shift))),
    }
    for kind, move in moves.items():
        own = [e for e in trace.of_kind(kind) if e.actor in correct]
        if own:
            e = rng.choice(own)
            moved = move(e)
            yield moved, Trace([x for x in trace if x != e] + [moved])


@pytest.mark.parametrize(
    "protocol, adversary, seed", [(PT, "dy-t", 31), (PGT, "dy-gt", 32), (PGT_APPROX, "relay", 33)]
)
def test_own_copies_are_exact_in_approximate_mode(protocol, adversary, seed):
    """A declared peer time and a beacon stamp copy the node's own reception
    and transmission starts, so approximate mode compares them exactly:
    one moved by 1/2000 gets exact mode's verdict under approx_num(1/1000),
    and the generic route refuses the same events (zero slack for
    pgt-approx, whose stamps are then exact too)."""
    rng = random.Random(seed)
    horizon = F(40)
    zero = InaccuracyParams()
    approx = approx_num(F(1, 1000))
    refused = []
    for _ in range(40):
        params = random_params(rng, protocol == PT, protocol != PT)
        setting = random_setting(rng, horizon)
        trace = random_trace(rng, setting, params, protocol, adversary, horizon)
        model = make_protocol(protocol, params, zero)
        for moved, mutant in moved_own_copies(trace, setting, rng):
            exact = protocol_verdict(mutant, setting, protocol, params, zero)
            assert protocol_verdict(mutant, setting, protocol, params, zero, approx) == exact
            generic = check_protocol_feasible(mutant, setting, model, params)
            assert {v.events for v in generic.violations} == {v.events for v in exact.violations}
            rule = "bcast-not-permitted" if isinstance(moved, Bcast) else "neighbor-not-permitted"
            assert (rule, (moved,)) in {(v.rule, v.events) for v in generic.violations}
            refused.append(rule)
    # both mutants are made often
    assert min(refused.count("bcast-not-permitted"), refused.count("neighbor-not-permitted")) > 20


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="F1, ROADMAP item 2")
def test_routes_agree_on_skewed_pgt_approx_stamps():
    params = SystemParams(F(1), F(1), F(10), F(1, 10), F(1))
    inacc = InaccuracyParams(F(1, 10), F(1, 10))
    plan = plan_relay_attack(F(8), params, PGT_APPROX, inacc=inacc)
    routes_agree(plan.base_trace, plan.setting_honest, PGT_APPROX, params, inacc)


@pytest.mark.parametrize(
    "entry",
    [
        lambda params: make_protocol("bogus", params),
        lambda params: protocol_verdict(Trace([]), honest_pair_setting(F(5)), "bogus", params),
        lambda params: availability_witness("bogus", F(5), params),
        lambda params: plan_relay_attack(F(5), params, "bogus"),
    ],
    ids=["make_protocol", "protocol_verdict", "availability_witness", "plan_relay_attack"],
)
def test_unknown_protocol_rejected(entry, unit_params):
    with pytest.raises(ValueError, match="unknown protocol 'bogus'"):
        entry(unit_params)


SLACK = InaccuracyParams(F(1, 10), F(1, 20))


@pytest.mark.parametrize(
    "protocol, inacc, checker, bounds",
    [
        ("naive", None, "check_protocol_feasible", None),
        (PT, None, "check_pt_feasible", None),
        (PGT, None, "check_pgt_feasible", None),
        (PGT, SLACK, "check_pgt_feasible", None),
        (PGT_APPROX, None, "check_pgt_feasible", InaccuracyParams()),
        (PGT_APPROX, SLACK, "check_pgt_feasible", SLACK),
    ],
)
def test_protocol_verdict_reaches_each_checker_by_its_module_name(
    protocol, inacc, checker, bounds, unit_params, monkeypatch
):
    """protocol_verdict calls its route through the module-level name, so a
    rebound name (the benchmark's tracer, say) sees every call: exactly the
    protocol's checker runs, pgt with no bounds, pgt-approx with the given
    or zero ones, and a direct checker gets the caller's numerics."""
    calls = []
    for name in ("check_protocol_feasible", "check_pt_feasible", "check_pgt_feasible"):

        def recording(*args, name=name, original=getattr(protocols, name)):
            calls.append((name, args))
            return original(*args)

        monkeypatch.setattr(protocols, name, recording)
    setting, trace = witness_trace(protocol, unit_params)
    num = approx_num(F(1, 1000))
    assert protocol_verdict(trace, setting, protocol, unit_params, inacc, num).ok
    assert [name for name, _ in calls] == [checker]
    args = calls[0][1]
    if checker == "check_protocol_feasible":
        assert args[2].name == protocol and args[3] == unit_params
    elif checker == "check_pt_feasible":
        assert args == (trace, setting, unit_params, num)
    else:
        assert args == (trace, setting, unit_params, bounds, num)
