"""Property tests for the model invariants that hold by construction."""

import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ndcheck import (
    AdversaryModel,
    BeaconT,
    Bcast,
    DY_T,
    InaccuracyParams,
    LocalReceive,
    Neighbor,
    NeighborAction,
    Opaque,
    RELAY,
    Receive,
    Trace,
    check_adversary_feasible,
    check_setting_feasible,
    dump_trace,
    link_up_over,
    parse_trace,
    pgt_approx_decide,
    project_local,
    rename_bcast_to_dcast,
)
from ndcheck.generators import (
    random_params,
    random_setting,
    random_trace,
    random_tl_views,
)

F = Fraction
HORIZON = F(40)

scalars = st.fractions(min_value=0, max_value=50)
node_ids = st.sampled_from(("A", "B", "C"))


def messages():
    return st.one_of(
        st.builds(
            Opaque,
            st.sampled_from(("x", "y")),
            st.fractions(min_value=F(1, 4), max_value=3),
        ),
        st.builds(
            BeaconT,
            node_ids,
            scalars,
            st.fractions(min_value=F(1, 4), max_value=3),
        ),
    )


def events():
    return st.one_of(
        st.builds(Bcast, node_ids, scalars, messages()),
        st.builds(Receive, node_ids, scalars, node_ids, messages()),
        st.builds(Neighbor, node_ids, scalars, node_ids, scalars),
    )


@settings(max_examples=60)
@given(st.lists(events(), max_size=8), st.randoms())
def test_trace_construction_order_invariant(items, rng):
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert Trace(items) == Trace(shuffled)


@settings(max_examples=60)
@given(st.lists(events(), max_size=8))
def test_trace_serialization_round_trip(items):
    trace = Trace(items)
    assert parse_trace(dump_trace(trace)) == trace


@settings(max_examples=60)
@given(st.lists(events(), max_size=8), node_ids, scalars)
def test_projection_never_leaks_senders(items, node, cutoff):
    view = project_local(Trace(items), node, cutoff)
    for local in view.events:
        assert not hasattr(local, "sender")
        if isinstance(local, LocalReceive):
            assert local.start + local.msg.duration < cutoff


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=30),
            st.fractions(min_value=F(1, 2), max_value=10),
        ),
        max_size=3,
    ),
    st.fractions(min_value=0, max_value=40),
    st.fractions(min_value=0, max_value=10),
    st.fractions(min_value=0, max_value=5),
)
def test_link_coverage_closed_under_subintervals(raw_phases, t0, span, shrink):
    from ndcheck import CORRECT, Setting

    phases = []
    cursor = F(0)
    for offset, width in raw_phases:
        start = cursor + offset
        phases.append((start, start + width))
        cursor = start + width + 1
    setting = Setting(
        nodes=("A", "B"),
        loc={"A": (F(0), F(0)), "B": (F(1), F(0))},
        node_type={"A": CORRECT, "B": CORRECT},
        link_schedule={("A", "B"): tuple(phases)},
    )
    t1 = t0 + span
    if link_up_over(setting, "A", "B", t0, t1):
        inner0 = t0 + min(shrink, span)
        inner1 = max(inner0, t1 - shrink)
        assert link_up_over(setting, "A", "B", inner0, inner1)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_traces_always_fully_feasible(seed):
    rng = random.Random(seed)
    params = random_params(rng, delta_at_least_threshold=False, equal_speeds=True)
    setting = random_setting(rng, HORIZON)
    trace = random_trace(rng, setting, params, "pt", DY_T, HORIZON)
    assert check_setting_feasible(trace, setting, params).ok
    model = AdversaryModel(DY_T, params.delta_relay)
    assert check_adversary_feasible(trace, setting, params, model).ok


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_renaming_preserves_physics_verdict(seed):
    rng = random.Random(seed)
    params = random_params(rng, delta_at_least_threshold=False, equal_speeds=False)
    setting = random_setting(rng, HORIZON)
    trace = random_trace(rng, setting, params, "pt", "relay-bcast", HORIZON)
    renamed = rename_bcast_to_dcast(trace, setting)
    assert (
        check_setting_feasible(trace, setting, params).violations
        == check_setting_feasible(renamed, setting, params).violations
    )
    for node in setting.correct_nodes:
        assert project_local(trace, node).events == project_local(renamed, node).events


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_relay_feasibility_monotone_in_delay(seed):
    rng = random.Random(seed)
    params = random_params(rng, delta_at_least_threshold=False, equal_speeds=True)
    setting = random_setting(rng, HORIZON)
    trace = random_trace(rng, setting, params, "pt", RELAY, HORIZON)
    assert check_adversary_feasible(
        trace, setting, params, AdversaryModel(RELAY, params.delta_relay)
    ).ok
    for divisor in (2, 4):
        smaller = AdversaryModel(RELAY, params.delta_relay / divisor)
        assert check_adversary_feasible(trace, setting, params, smaller).ok


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=4))
def test_slack_window_acceptance_monotone(seed, widen_ticks):
    rng = random.Random(seed)
    params = random_params(rng, delta_at_least_threshold=False, equal_speeds=True)
    views = random_tl_views(seed=seed, count=5, params=params)
    narrow = InaccuracyParams(F(1, 100), F(1, 200))
    wide = InaccuracyParams(narrow.delta + F(widen_ticks, 50), narrow.tau)
    for view in views:
        accepted_narrow = {
            action
            for action in pgt_approx_decide(view, params, narrow)
            if isinstance(action, NeighborAction)
        }
        accepted_wide = {
            action
            for action in pgt_approx_decide(view, params, wide)
            if isinstance(action, NeighborAction)
        }
        assert accepted_narrow <= accepted_wide


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_every_decision_set_is_nonempty_and_idle_friendly(seed):
    """All four decision functions always offer at least the idle action."""
    from ndcheck import EPSILON, T_FLAVOR, make_protocol, project_local

    rng = random.Random(seed)
    params = random_params(rng, delta_at_least_threshold=False, equal_speeds=True)
    setting = random_setting(rng, HORIZON)
    trace = random_trace(rng, setting, params, "pgt", DY_T, HORIZON)
    tl_views = random_tl_views(seed=seed, count=3, params=params)
    t_views = [
        project_local(trace, node, F(7), T_FLAVOR)
        for node in setting.correct_nodes
    ]
    for name, views in (
        ("naive", t_views),
        ("pt", t_views),
        ("pgt", tl_views),
        ("pgt-approx", tl_views),
    ):
        model = make_protocol(name, params)
        for view in views:
            actions = model.decide(view)
            assert actions
            assert EPSILON in actions


def membership_candidates(view, spec, params, nodes):
    """Actions near the ones a decision lists: every node declared at every
    reception start and one 1/q step either side, and the owner's beacon
    exact or with one field wrong."""
    from ndcheck import BcastAction, EPSILON

    yield EPSILON
    for r in view.receives():
        step = F(1, r.start.denominator)
        for peer in nodes:
            for at in (r.start - step, r.start, r.start + step):
                yield NeighborAction(peer, at)
    if view.as_of is None:
        return
    loc = view.owner_loc
    step = F(1, view.as_of.denominator)
    beacon = spec.beacon(view.owner, view.as_of, loc, params)
    yield BcastAction(beacon)
    yield BcastAction(replace(beacon, duration=beacon.duration * 2))
    for at in (view.as_of - step, view.as_of + step):
        if at >= 0:
            yield BcastAction(spec.beacon(view.owner, at, loc, params))
    if loc is not None:
        yield BcastAction(spec.beacon(view.owner, view.as_of, (loc[0] + 1, loc[1]), params))
    for other in nodes:
        if other != view.owner:
            yield BcastAction(spec.beacon(other, view.as_of, loc, params))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_decision_membership_agrees_with_the_listed_set(seed):
    from ndcheck import T_FLAVOR, make_protocol
    from ndcheck.protocols import PROTOCOLS

    rng = random.Random(seed)
    params = random_params(rng, delta_at_least_threshold=False, equal_speeds=True)
    inacc = InaccuracyParams(F(1, 10), F(1, 20))
    tl_views = random_tl_views(seed=seed, count=4, params=params)
    for name in ("naive", "pt", "pgt", "pgt-approx"):
        spec = PROTOCOLS[name]
        if spec.flavor == T_FLAVOR:
            setting = random_setting(rng, HORIZON)
            trace = random_trace(rng, setting, params, name, RELAY, HORIZON)
            nodes = setting.nodes
            views = [
                project_local(trace, node, at, T_FLAVOR)
                for node in setting.correct_nodes
                for at in (None, *(e.start for e in trace.by_actor(node)), HORIZON)
            ]
        else:
            nodes, views = ("A", "B", "C"), tl_views
        model = make_protocol(name, params, inacc)
        for view in views:
            decision = model.decide(view)
            listed = frozenset(decision)
            assert decision == listed and hash(decision) == hash(listed)
            for action in (*listed, *membership_candidates(view, spec, params, nodes)):
                assert (action in decision) == (action in listed), (name, view, action)
