"""Differential checks of the core predicates against brute-force oracles."""

import math
import random
from fractions import Fraction
from itertools import zip_longest

from hypothesis import given, settings, strategies as st

from ndcheck import (
    CORRECT,
    DY_T,
    Bcast,
    BeaconT,
    Dcast,
    LocalBcast,
    LocalNeighbor,
    LocalReceive,
    LocalView,
    Neighbor,
    Receive,
    Setting,
    T_FLAVOR,
    Trace,
    check_setting_feasible,
    event_end,
    inrange,
    link_up_over,
    project_local,
)
from ndcheck.generators import random_params, random_setting, random_trace

F = Fraction
HORIZON = F(40)


def _pair(phases):
    return Setting(
        nodes=("A", "B"),
        loc={"A": (F(0), F(0)), "B": (F(1), F(0))},
        node_type={"A": CORRECT, "B": CORRECT},
        link_schedule={("A", "B"): tuple(phases)},
    )


@settings(max_examples=80)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=6),
            st.fractions(min_value=F(1, 4), max_value=4),
        ),
        max_size=3,
    ),
    st.fractions(min_value=0, max_value=25),
    st.fractions(min_value=0, max_value=6),
)
def test_link_coverage_matches_point_sampling(raw_phases, t0, span):
    """Interval coverage agrees with point-by-point membership on a fine grid.

    The schedule is piecewise constant with breakpoints at the phase
    bounds, so sampling all breakpoints inside the window plus the
    midpoints between consecutive samples decides coverage exactly.
    """
    phases = []
    cursor = F(0)
    for offset, width in raw_phases:
        start = cursor + offset
        phases.append((start, start + width))
        cursor = start + width + F(1, 2)
    setting = _pair(phases)
    t1 = t0 + span

    samples = {t0, t1}
    for start, end in phases:
        for bound in (start, end):
            if t0 <= bound <= t1:
                samples.add(bound)
    ordered = sorted(samples)
    for left, right in zip(ordered, ordered[1:]):
        samples.add((left + right) / 2)

    def point_up(t):
        return any(start <= t and t < end for start, end in phases)

    expected = all(point_up(t) for t in samples)
    assert link_up_over(setting, "A", "B", t0, t1) == expected
    assert link_up_over(setting, "A", "B", t0, t0) == point_up(t0)


@settings(max_examples=120)
@given(
    st.fractions(min_value=0, max_value=F(2)).filter(lambda a: a < 2),
    st.fractions(min_value=F(1, 8), max_value=2),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
)
def test_inrange_matches_float_oracle_off_boundary(direction, angle, bx, by):
    """Away from the boundary rays the sector test agrees with a plain
    atan2 angle-membership computation."""
    if (bx, by) == (0, 0):
        return
    setting = Setting(
        nodes=("A", "B"),
        loc={"A": (F(0), F(0)), "B": (F(bx), F(by))},
        node_type={"A": CORRECT, "B": CORRECT},
    )
    theta = math.atan2(by, bx) % (2 * math.pi)
    from_dir = float(direction) * math.pi
    width = float(angle) * math.pi
    offset = (theta - from_dir) % (2 * math.pi)
    margin = 1e-9
    if min(abs(offset), abs(offset - width), abs(offset - 2 * math.pi)) < margin:
        return  # boundary cases are the exact test's job
    assert inrange(setting, "A", direction, angle, "B") == (offset < width)


def test_feasibility_checker_is_mutation_sensitive():
    """Dropping any reception or inventing one must break a valid trace."""
    rng = random.Random(20240601)
    params = random_params(rng, delta_at_least_threshold=False, equal_speeds=True)
    setting = random_setting(rng, HORIZON, n_nodes=4)
    trace = random_trace(rng, setting, params, "pt", DY_T, HORIZON)
    assert check_setting_feasible(trace, setting, params).ok

    receives = [e for e in trace if isinstance(e, Receive)]
    assert receives
    for victim in receives[:6]:
        mutated = Trace([e for e in trace if e is not victim])
        assert not check_setting_feasible(mutated, setting, params).ok

    ghost = Receive("A", F(37, 2), "B", receives[0].msg)
    assert ghost not in trace
    mutated = trace.union([ghost])
    assert not check_setting_feasible(mutated, setting, params).ok


# half-unit starts and durations, so reception ends often fall exactly on
# other events' starts and on the cutoffs drawn from them
_nodes = st.sampled_from(("A", "B", "C"))
_times = st.integers(min_value=0, max_value=16).map(lambda k: F(k, 2))
_beacons = st.builds(BeaconT, _nodes, _times, st.sampled_from((F(1, 2), F(1), F(3, 2))))
_events = st.one_of(
    st.builds(Bcast, _nodes, _times, _beacons),
    st.builds(Dcast, _nodes, _times, st.just(F(0)), st.just(F(1)), _beacons),
    st.builds(Receive, _nodes, _times, _nodes, _beacons),
    st.builds(Neighbor, _nodes, _times, _nodes, _times),
)


def _scanned_view(trace, node, as_of):
    """The censored projection by definition: one pass over the whole trace."""
    visible = set()
    for e in trace:
        if e.actor != node:
            continue
        if isinstance(e, Bcast):
            if as_of is None or e.start < as_of:
                visible.add(LocalBcast(e.start, e.msg))
        elif isinstance(e, Receive):
            if as_of is None or e.start + e.msg.duration < as_of:
                visible.add(LocalReceive(e.start, e.msg))
        elif isinstance(e, Neighbor):
            if as_of is None or e.start < as_of:
                visible.add(LocalNeighbor(e.start, e.peer, e.peer_time))
    return LocalView(T_FLAVOR, node, as_of, None, frozenset(visible))


def _queries(trace):
    """Every node (plus one absent from the trace) at every cutoff: None,
    event starts, reception ends and the midpoints between them."""
    points = {e.start for e in trace} | {event_end(e) for e in trace if isinstance(e, Receive)}
    ordered = sorted(points)
    points |= {(left + right) / 2 for left, right in zip(ordered, ordered[1:])}
    cutoffs = [None] + sorted(points)
    return [(node, t) for node in ("A", "B", "C", "Z") for t in cutoffs]


@settings(max_examples=150)
@given(st.lists(_events, max_size=14), st.lists(_events, max_size=10), st.randoms())
def test_indexed_projection_matches_scan(items, other_items, rng):
    """The per-actor index answers every cutoff exactly as a full scan,
    whatever order the calls come in on one Trace object."""
    trace, other = Trace(items), Trace(other_items)
    for node in ("A", "B", "C", "Z"):
        assert trace.by_actor(node) == tuple(e for e in trace.events if e.actor == node)

    def check(t, query):
        if query is not None:
            node, as_of = query
            assert project_local(t, node, as_of) == _scanned_view(t, node, as_of)

    shuffled = _queries(trace)
    rng.shuffle(shuffled)
    for query in shuffled:
        check(trace, query)
    for query, other_query in zip_longest(_queries(trace), _queries(other)):
        check(trace, query)
        check(other, other_query)
