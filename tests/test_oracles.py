"""Differential checks of the core predicates against brute-force oracles."""

import gc
import math
import pickle
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import zip_longest
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ndcheck import (
    ADVERSARIAL,
    CORRECT,
    DY_GT,
    DY_T,
    EXACT,
    PGT,
    PGT_APPROX,
    PT,
    RELAY,
    RELAY_BCAST,
    RELAY_LOCAL,
    AdversaryModel,
    Bcast,
    BeaconT,
    BeaconTL,
    Dcast,
    InaccuracyParams,
    LocalBcast,
    LocalNeighbor,
    LocalReceive,
    LocalView,
    Neighbor,
    Opaque,
    Receive,
    Setting,
    SystemParams,
    T_FLAVOR,
    Trace,
    approx_num,
    check_adversary_feasible,
    check_setting_feasible,
    dist,
    dump_trace,
    event_end,
    induced_receives,
    inrange,
    is_rational_square,
    link_up_over,
    parse_trace,
    project_local,
    protocol_verdict,
    sq_dist,
    time_of_flight,
)
from ndcheck import adversary, core, scenario
from ndcheck.adversary import ADVERSARY_NAMES, AdversaryModel
from ndcheck.core import Ticks, Verdict, Violation
from ndcheck.rational import IrrationalDistance, exact_sqrt
from ndcheck.protocols import PROTOCOLS
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


# a point on the ray at each eighth turn that is not a quarter turn (F2)
_EIGHTH_TURN_POINTS = {F(1, 4): (1, 1), F(3, 4): (-1, 1), F(5, 4): (-1, -1), F(7, 4): (1, -1)}


def _on_ray_inrange(ray, opening):
    """Whether the point on the ray is in each closed sector, of widths
    below, at and over a half turn, that opens (or closes) on the ray."""
    x, y = _EIGHTH_TURN_POINTS[ray]
    setting = Setting(
        nodes=("A", "P"),
        loc={"A": (F(0), F(0)), "P": (F(x), F(y))},
        node_type={"A": CORRECT, "P": CORRECT},
    )
    angles = (F(1, 2), F(1), F(3, 2))
    return [
        inrange(setting, "A", ray if opening else (ray - angle) % 2, angle, "P") for angle in angles
    ]


@pytest.mark.parametrize("ray", sorted(_EIGHTH_TURN_POINTS), ids=str)
def test_point_on_an_eighth_turn_opening_ray_is_in_the_sector(ray):
    """The float ray leans into the sector that opens on it, so these are
    decided right today; an exact sector test must keep them."""
    assert _on_ray_inrange(ray, opening=True) == [True, True, True]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="F2, ROADMAP item 4")
@pytest.mark.parametrize("ray", sorted(_EIGHTH_TURN_POINTS), ids=str)
def test_point_on_an_eighth_turn_closing_ray_is_in_the_sector(ray):
    assert _on_ray_inrange(ray, opening=False) == [True, True, True]


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


def _check_prefix_view(trace, node, as_of):
    """project_local at a cutoff against the scan: equal and of equal hash
    both ways, with the scan's receptions, overall and at every start of
    the node's receptions (visible or not) and at a time none starts at,
    and a pickle that round-trips and is the one of the view on the
    trace cut before as_of, so it carries nothing of later events."""
    view, scanned = project_local(trace, node, as_of), _scanned_view(trace, node, as_of)
    received = set(scanned.receives())
    assert set(view.receives()) == received
    by_start = {}
    for r in received:
        by_start.setdefault(r.start, set()).add(r)
    starts = {e.start for e in trace.by_actor(node) if isinstance(e, Receive)}
    for t in starts | {F(-1, 3)}:
        expected = by_start.get(t, set())
        assert set(view.receptions_at(t)) == expected == set(scanned.receptions_at(t))
    assert view == scanned and scanned == view
    assert hash(view) == hash(scanned)
    data = pickle.dumps(view)
    assert pickle.loads(data) == view
    cut = Trace(e for e in trace if e.start < as_of)
    assert pickle.dumps(project_local(cut, node, as_of)) == data


def _cutoffs(trace, starts, ends):
    """Cutoffs on the grid (the given starts) and off it (1/7 later, as
    Fractions and as floats), at the given reception ends, before the
    trace's first event and after its last."""
    cutoffs = set(starts) | set(ends) | {t + F(1, 7) for t in starts}
    cutoffs |= {float(t + F(1, 7)) for t in starts}
    if len(trace):
        ends_all = [event_end(e) for e in trace if isinstance(e, Receive)]
        last = max(ends_all + [trace.events[-1].start])
        cutoffs |= {trace.events[0].start - 1, last + 1}
    return cutoffs


def test_prefix_views_match_scans_on_huge_denominators():
    _, _, trace, _, _ = _huge_denominator_case()
    for node in ("A", "B"):
        own = trace.by_actor(node)
        actions = [e.start for e in own if isinstance(e, (Bcast, Neighbor))]
        ends = [event_end(e) for e in own if isinstance(e, Receive)]
        for as_of in _cutoffs(trace, actions[::60], ends[::150]):
            _check_prefix_view(trace, node, as_of)


def _queries(trace):
    """Every node (plus one absent from the trace) at every cutoff: None,
    the _cutoffs of all event starts and reception ends, and the
    midpoints between those."""
    starts = {e.start for e in trace}
    ends = {event_end(e) for e in trace if isinstance(e, Receive)}
    ordered = sorted(starts | ends)
    points = _cutoffs(trace, starts, ends)
    points |= {(left + right) / 2 for left, right in zip(ordered, ordered[1:])}
    cutoffs = [None] + sorted(points)
    return [(node, t) for node in ("A", "B", "C", "Z") for t in cutoffs]


@settings(max_examples=150)
@given(st.lists(_events, max_size=14), st.lists(_events, max_size=10), st.randoms())
def test_indexed_projection_matches_scan(items, other_items, rng):
    """The per-actor index answers every cutoff exactly as a full scan,
    whatever order the calls come in on one Trace object; in the first,
    shuffled pass every view at a cutoff also hashes, lists receptions
    and pickles as the scan says (_check_prefix_view)."""
    trace, other = Trace(items), Trace(other_items)
    for node in ("A", "B", "C", "Z"):
        assert trace.by_actor(node) == tuple(e for e in trace.events if e.actor == node)

    def check(t, query):
        if query is not None:
            node, as_of = query
            assert project_local(t, node, as_of) == _scanned_view(t, node, as_of)

    shuffled = _queries(trace)
    rng.shuffle(shuffled)
    for node, as_of in shuffled:
        if as_of is None:
            check(trace, (node, as_of))
        else:
            _check_prefix_view(trace, node, as_of)
    for query, other_query in zip_longest(_queries(trace), _queries(other)):
        check(trace, query)
        check(other, other_query)


def _hashed_events(xs):
    """A trace's events as construction once defined them: a dict keeps
    each event's first occurrence, and its keys are sorted by order key."""
    return tuple(sorted(dict.fromkeys(xs), key=core._order_key))


def _copies(e, how):
    """e itself, or an equal event that is another object: a dataclass
    replace, a pickle round trip, or a replace with a fresh start."""
    if how == 0:
        return e
    if how == 1:
        return replace(e)
    if how == 2:
        return pickle.loads(pickle.dumps(e))
    return replace(e, start=F(e.start.numerator, e.start.denominator))


@settings(max_examples=200)
@given(st.lists(_events, max_size=12), st.lists(st.integers(0, 3), max_size=24), st.randoms())
def test_trace_dedup_matches_the_hashed_definition(items, hows, rng):
    """Sorting by order key and dropping neighboring equal keys keeps the
    events a dict did, in the same order, and of each set of equal events
    the object that came first, however the repeats are made and ordered."""
    xs = list(items)
    for i, how in enumerate(hows):
        if items:
            xs.append(_copies(items[i % len(items)], how))
    rng.shuffle(xs)
    events = Trace(xs).events
    assert events == _hashed_events(xs)
    for kept in events:
        assert kept is next(x for x in xs if x == kept)


_OTHER_NODE = {"A": "B", "B": "C", "C": "A"}


def _near_misses(e):
    """Events that differ from e in one field: the start moved by 1/7, the
    sender or peer changed, or the message (or peer time) changed."""
    misses = [replace(e, start=e.start + F(1, 7))]
    if isinstance(e, Receive):
        misses.append(replace(e, sender=_OTHER_NODE[e.sender]))
    if isinstance(e, Neighbor):
        misses += [replace(e, peer=_OTHER_NODE[e.peer]), replace(e, peer_time=e.peer_time + 1)]
    else:
        misses.append(replace(e, msg=replace(e.msg, duration=e.msg.duration + 1)))
    return misses


@settings(max_examples=200)
@given(st.lists(_events, max_size=14), st.lists(_events, max_size=8))
def test_trace_membership_agrees_with_a_set(items, others):
    """``in`` bisects by order key; it answers as a set of the events does
    for every event, its equal copies, near misses and other events, and
    nothing that is not an event is a member."""
    trace, members = Trace(items), set(items)
    for e in items + others:
        for probe in [e, replace(e), *_near_misses(e)]:
            assert (probe in trace) == (probe in members)
    msg = BeaconT("A", F(0), F(1))
    for other in ("x", None, LocalReceive(F(0), msg), (F(0), "A")):
        assert other not in trace
    assert LocalReceive(F(0), msg) not in Trace([Receive("A", F(0), "B", msg)])


# sparse worlds: few declared links, some of them down part of the time,
# and directional casts over every kind of sector the coverage rule meets
_PARAMS = SystemParams(
    v=F(1), v_adv=F(2), nd_range=F(10), delta_relay=F(1), msg_duration_default=F(1)
)
_SECTORS = (
    (F(0), F(1, 2)),  # quarter-turn rays
    (F(1, 2), F(1)),
    (F(3, 2), F(1, 2)),
    (F(1, 3), F(1, 4)),  # other rays
    (F(5, 6), F(1, 3)),
    (F(7, 4), F(1, 2)),
    (F(1, 4), F(3, 2)),  # reflex
    (F(1, 2), F(5, 3)),
    (F(0), F(3, 2)),
    (F(0), F(2)),  # full turn
    (F(1, 3), F(2)),
)
# undeclared most often, then always up, or up for one or two phases
_PHASES = (
    None,
    None,
    None,
    ((F(0), None),),
    ((F(0), F(3)),),
    ((F(2), None),),
    ((F(0), F(2)), (F(4), F(9))),
)


@st.composite
def _sparse_worlds(draw):
    """A setting with sparse, partly down links, and the comparison its distances allow."""
    n = draw(st.integers(min_value=3, max_value=6))
    names = "ABCDEF"[:n]
    if draw(st.booleans()):
        # along the 3-4-5 slope every distance is rational
        steps = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n, unique=True))
        points = [(F(3 * k), F(4 * k)) for k in steps]
        num = EXACT
    else:
        grid = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
        cells = draw(st.lists(grid, min_size=n, max_size=n, unique=True))
        points = [(F(x), F(y)) for x, y in cells]
        num = approx_num(F(1, 1000))
    schedule = {}
    for a in names:
        for b in names:
            phases = draw(st.sampled_from(_PHASES)) if a != b else None
            if phases is not None:
                schedule[(a, b)] = phases
    setting = Setting(
        names,
        dict(zip(names, points)),
        {name: draw(st.sampled_from((CORRECT, ADVERSARIAL))) for name in names},
        schedule,
    )
    return setting, num


def _sends(draw, setting, messages):
    """Broadcasts and casts by any node of the setting, each carrying the message drawn for it."""
    sectors = st.none() | st.sampled_from(_SECTORS)
    drawn = draw(st.lists(st.tuples(st.sampled_from(setting.nodes), _times, sectors), max_size=8))
    return [
        Bcast(actor, start, messages(i))
        if sector is None
        else Dcast(actor, start, *sector, messages(i))
        for i, (actor, start, sector) in enumerate(drawn)
    ]


# The references below compare with a flight time f = sqrt(q), q its
# square, which may be irrational, in Fractions: each comparison of f with
# a rational x is one of x with 0 and one of x*x with q.


def _squared_flight(setting, a, b, speed):
    """The square q of the time a signal at speed takes from a to b."""
    return sq_dist(setting.loc[a], setting.loc[b]) / (speed * speed)


def _root_at_most(x, q):
    """sqrt(q) <= x."""
    return x >= 0 and x * x >= q


def _root_below(x, q):
    """sqrt(q) < x."""
    return x > 0 and x * x > q


def _root_within(x, q, eps):
    """|x - sqrt(q)| <= eps."""
    return _root_at_most(x + eps, q) and not _root_below(x - eps, q)


def _tolerance(num, *squares):
    """Approximate mode's epsilon where some flight f = sqrt(q) is irrational,
    and 0 where every one is rational: a rational value is compared exactly."""
    return 0 if all(is_rational_square(q) for q in squares) else num.epsilon


def _rational_near_root(q):
    """sqrt(q) when it is rational, else the multiple of 1/10**6 just below it."""
    if is_rational_square(q):
        return exact_sqrt(q)
    return F(math.isqrt(math.floor(q * 10**12)), 10**6)


def _scanned_coverage(e, setting, params=_PARAMS):
    """Coverage by definition: every node of the setting, tested with inrange,
    with the square of its flight time; the link must be up over the
    reception window one flight time after the start, in one phase, since
    a setting's phases are merged."""
    for dest in setting.nodes:
        if isinstance(e, Dcast) and not inrange(setting, e.actor, e.direction, e.angle, dest):
            continue
        q = _squared_flight(setting, e.actor, dest, params.v)
        phases = setting.link_schedule.get((e.actor, dest), ())
        if dest == e.actor or any(
            not _root_below(start - e.start, q)
            and (end is None or _root_below(end - e.start - e.msg.duration, q))
            for start, end in phases
        ):
            yield dest, q


def _arrivals(sends, setting, params=_PARAMS):
    """A reception for each covered node, one flight time after its send
    when that is rational, else less than 1/10**6 before."""
    return [
        Receive(dest, e.start + _rational_near_root(q), e.actor, e.msg)
        for e in sends
        for dest, q in _scanned_coverage(e, setting, params)
    ]


@settings(max_examples=150)
@given(st.data())
def test_linked_coverage_matches_scan_of_every_node(data):
    """Visiting only linked receivers changes no induced reception and no
    physics violation, their order included."""
    setting, num = data.draw(_sparse_worlds())
    # one message per send, so a kept reception matches its own send alone
    sends = _sends(data.draw, setting, lambda i: Opaque(str(i), F(1)))
    covered = {e: list(_scanned_coverage(e, setting)) for e in sends}
    expected = _arrivals(sends, setting)
    if num.exact:
        assert induced_receives(sends, setting, _PARAMS) == expected

    trace = Trace(sends + [r for r in expected if data.draw(st.booleans())])
    violations = []
    for e in trace.of_kind((Bcast, Dcast)):
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
        for dest, q in covered[e]:
            if not any(
                isinstance(r, Receive)
                and (r.actor, r.sender, r.msg) == (dest, e.actor, e.msg)
                and _root_within(r.start - e.start, q, _tolerance(num, q))
                for r in trace
            ):
                detail = f"{dest} {reach} but no matching reception"
                violations.append(Violation(rule, (e,), detail))
    assert check_setting_feasible(trace, setting, _PARAMS, num) == Verdict(tuple(violations))


def _scanned_adversary(trace, setting, model, num, params=_PARAMS):
    """(rule, detail, event) of each adversary violation by definition,
    justifying a relay from a scan of every reception in the trace."""
    local = model.kind == RELAY_LOCAL
    beacon = {DY_T: BeaconT, DY_GT: BeaconTL}.get(model.kind)
    found = []
    for e in trace:
        if not isinstance(e, (Bcast, Dcast)) or not setting.is_adversarial(e.actor):
            continue
        if isinstance(e, Bcast) != (model.kind == RELAY_BCAST):
            rule = "adversarial-bcast" if isinstance(e, Bcast) else "adversarial-dcast"
            only = "directional casts" if isinstance(e, Bcast) else "broadcasts"
            found.append((rule, f"this model restricts adversarial nodes to {only}", e))
            continue
        if beacon is not None:
            if not isinstance(e.msg, beacon):
                detail = "adversarial payload is not a beacon of this model"
                found.append(("message-outside-model", detail, e))
                continue
            if setting.is_adversarial(e.msg.creator):
                continue
            detail = "beacon of a correct creator was never received early enough"
        elif isinstance(e, Bcast):
            detail = "no sufficiently early adversarial reception of this message"
        else:
            detail = "no sufficiently early reception of this message"
        justified = False
        for r in trace:
            if not isinstance(r, Receive) or r.msg != e.msg:
                continue
            # the gap must be at least the bound, less epsilon where the
            # bound or the reception's own flight is irrational
            squares = [_squared_flight(setting, e.actor, r.actor, params.v_adv)]
            if r.sender in setting.loc:
                squares.append(_squared_flight(setting, r.sender, r.actor, params.v))
            slack = e.start - r.start - model.delta_relay + _tolerance(num, *squares)
            if local:
                if r.actor == e.actor and slack >= 0:
                    justified = True
            elif setting.is_adversarial(r.actor):
                if _root_at_most(slack, squares[0]):
                    justified = True
        if not justified:
            found.append(("relay-unjustified", detail, e))
    return found


@settings(max_examples=150)
@given(st.data())
def test_indexed_relay_rule_matches_scan_of_every_reception(data):
    """Finding relay sources by message changes no adversary verdict under any model."""
    setting, num = data.draw(_sparse_worlds())
    creators = st.sampled_from(setting.nodes)
    pool = data.draw(
        st.lists(
            st.one_of(
                st.builds(BeaconT, creators, _times, st.just(F(1))),
                st.builds(BeaconTL, creators, _times, st.just((F(0), F(0))), st.just(F(1))),
                st.builds(Opaque, st.sampled_from("xy"), st.just(F(1))),
            ),
            min_size=1,
            max_size=3,
        )
    )
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=8, max_size=8))
    sends = _sends(data.draw, setting, picks.__getitem__)
    trace = Trace(sends + _arrivals(sends, setting))
    delta = data.draw(st.sampled_from((F(0), F(1), F(3))))
    for kind in ADVERSARY_NAMES:
        model = AdversaryModel(kind, delta)
        verdict = check_adversary_feasible(trace, setting, _PARAMS, model, num)
        found = [(v.rule, v.detail, v.events[0]) for v in verdict.violations]
        assert found == _scanned_adversary(trace, setting, model, num)


def _scanned_physics(trace, setting, num, params=_PARAMS):
    """(rule, event) of each physics violation by definition, matching every
    reception and every covered node by a scan of the whole trace."""
    found = []
    for e in trace:
        named = (e.actor, e.sender) if isinstance(e, Receive) else (e.actor,)
        unknown = [("unknown-node", e) for node in named if node not in setting.loc]
        if unknown:
            found += unknown
        elif isinstance(e, Receive):
            if not link_up_over(setting, e.sender, e.actor, e.start, event_end(e)):
                found.append(("receive-link-down", e))
            q = _squared_flight(setting, e.sender, e.actor, params.v)
            kinds = {
                type(s)
                for s in trace
                if isinstance(s, (Bcast, Dcast))
                and (s.actor, s.msg) == (e.sender, e.msg)
                and _root_within(e.start - s.start, q, _tolerance(num, q))
                and (isinstance(s, Bcast) or inrange(setting, s.actor, s.direction, s.angle, e.actor))
            }
            if len(kinds) == 2:
                found.append(("receive-ambiguous-source", e))
            elif not kinds:
                found.append(("receive-without-transmission", e))
        elif isinstance(e, (Bcast, Dcast)):
            if isinstance(e, Dcast) and not setting.is_adversarial(e.actor):
                found.append(("dcast-by-correct-node", e))
            rule = "bcast-missing-receive" if isinstance(e, Bcast) else "dcast-missing-receive"
            for dest, q in _scanned_coverage(e, setting, params):
                if not any(
                    isinstance(r, Receive)
                    and (r.actor, r.sender, r.msg) == (dest, e.actor, e.msg)
                    and _root_within(r.start - e.start, q, _tolerance(num, q))
                    for r in trace
                ):
                    found.append((rule, e))
    return found


def _scanned_declarations(trace, setting, spec, inacc, num, params=_PARAMS):
    """Each correct node's declaration that no reception backs, by a scan of
    every event: a reception starting exactly at the peer time, in either
    mode, whose acceptance test (through num for pgt's window) names the peer."""
    return [
        e
        for e in trace
        if isinstance(e, Neighbor)
        and not setting.is_adversarial(e.actor)
        and not any(
            isinstance(r, Receive)
            and r.actor == e.actor
            and r.sender in setting.loc
            and r.start == e.peer_time
            and e.start > event_end(r)
            and spec.accepts(params, setting.loc[e.actor], r, inacc, num) == e.peer
            for r in trace
        )
    ]


# shifts of a reception or a peer time: none (half the time), or below, at
# and beyond the approximate mode's epsilon of 1/1000, either way
_SHIFTS = st.sampled_from(
    (F(0),) * 6 + (F(1, 2000), F(-1, 2000), F(1, 1000), F(-1, 1000), F(1, 500), F(-3, 1000))
)


@settings(max_examples=150)
@given(st.data())
def test_message_keyed_matching_matches_full_scan(data):
    """Matching receptions by message and declarations by their exact peer
    time changes no physics or protocol verdict, exact or approximate; and a
    trace read from text equals, and hashes as, the trace built in code."""
    # every link declared, some down part of the time; every distance rational
    n = data.draw(st.integers(min_value=3, max_value=5))
    names = "ABCDE"[:n]
    steps = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n, unique=True))
    setting = Setting(
        names,
        {name: (F(3 * k), F(4 * k)) for name, k in zip(names, steps)},
        {name: data.draw(st.sampled_from((CORRECT, ADVERSARIAL))) for name in names},
        {(a, b): data.draw(st.sampled_from(_PHASES[3:])) for a in names for b in names if a != b},
    )
    creators = st.sampled_from(setting.nodes)
    loc = setting.loc.__getitem__
    beacons = st.one_of(
        st.builds(BeaconT, creators, _times, st.just(F(1))),
        st.builds(lambda c, t: BeaconTL(c, t, loc(c), F(1)), creators, _times),
    )
    pool = data.draw(st.lists(beacons, min_size=1, max_size=2, unique=True))
    # each beacon sent by its creator at its time, then cast again, by the
    # creator at other starts or by other nodes
    honest = [Bcast(m.creator, m.beacon_time, m) for m in pool]
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=8, max_size=8))
    sends = honest + _sends(data.draw, setting, picks.__getitem__)
    receptions = []
    for r in induced_receives(sends, setting, _PARAMS):
        if data.draw(st.sampled_from((True, True, False))):
            start = max(F(0), r.start + data.draw(_SHIFTS))
            sender = data.draw(st.sampled_from((r.sender,) * 3 + (r.actor,)))
            receptions.append(Receive(r.actor, start, sender, r.msg))
    declarations = [
        Neighbor(
            r.actor,
            event_end(r) + data.draw(st.sampled_from((F(0), F(1, 2), F(3)))),
            data.draw(st.sampled_from((r.msg.creator, r.msg.creator, r.sender))),
            max(F(0), r.start + data.draw(_SHIFTS)),
        )
        for r in receptions
        if data.draw(st.booleans())
    ]
    trace = Trace(sends + receptions + declarations)

    window = InaccuracyParams(F(1, 1000), F(1, 1000))
    for num in (EXACT, approx_num(F(1, 1000))):
        verdict = check_setting_feasible(trace, setting, _PARAMS, num)
        found = [(v.rule, v.events[0]) for v in verdict.violations]
        assert found == _scanned_physics(trace, setting, num)
        for name, inacc in ((PT, None), (PGT, None), (PGT_APPROX, window)):
            verdict = protocol_verdict(trace, setting, name, _PARAMS, inacc, num)
            unjustified = [v.events[0] for v in verdict.violations if v.rule == "neighbor-unjustified"]
            assert unjustified == _scanned_declarations(trace, setting, PROTOCOLS[name], inacc, num)

    for read in (parse_trace(dump_trace(trace)), pickle.loads(pickle.dumps(trace.events))):
        assert tuple(read) == trace.events
        for built, again in zip(trace, read):
            assert hash(again) == hash(built)
            if not isinstance(built, Neighbor):
                assert again.msg == built.msg and hash(again.msg) == hash(built.msg)


@settings(max_examples=150)
@given(st.data())
def test_warm_coverage_memo_matches_full_scan(data):
    """A setting whose coverage memo induced receptions and a mutant's check
    filled, under this and another signal speed, gives the physics verdict
    of a fresh setting and of the full scan, exact and approximate."""
    setting, num = data.draw(_sparse_worlds())
    modes = (num, approx_num(F(1, 1000))) if num.exact else (num,)
    pool = [Opaque(token, F(1)) for token in "xyz"]
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=8, max_size=8))
    sends = _sends(data.draw, setting, picks.__getitem__)
    # a directional twin of a broadcast: the same sender, start and message
    twins = [
        Dcast(e.actor, e.start, *data.draw(st.sampled_from(_SECTORS)), e.msg)
        for e in sends
        if isinstance(e, Bcast) and data.draw(st.booleans())
    ]
    sends += twins
    nodes = st.sampled_from(setting.nodes)
    receptions = []
    for r in _arrivals(sends, setting):
        how = data.draw(st.sampled_from(("keep", "keep", "keep", "drop", "shift", "msg", "sender")))
        if how == "shift":
            r = Receive(r.actor, max(F(0), r.start + data.draw(_SHIFTS)), r.sender, r.msg)
        elif how == "msg":
            r = Receive(r.actor, r.start, r.sender, data.draw(st.sampled_from(pool)))
        elif how == "sender":
            r = Receive(r.actor, r.start, data.draw(nodes), r.msg)
        if how != "drop":
            receptions.append(r)
    # receptions one flight time after a send, over links that are not
    # declared, down part of the reception window or outside the sector
    for e in sends:
        dest = data.draw(nodes)
        if dest != e.actor:
            at = e.start + _rational_near_root(_squared_flight(setting, e.actor, dest, _PARAMS.v))
            receptions.append(Receive(dest, at, e.actor, e.msg))
    strangers = [
        Bcast("Z", F(1), pool[0]),
        Receive("Z", F(2), setting.nodes[0], pool[0]),
        Receive(setting.nodes[0], F(3), "Z", pool[1]),
    ]
    trace = Trace(sends + receptions + data.draw(st.lists(st.sampled_from(strangers), max_size=3)))

    # warm: induced receptions and the check of a mutant without one event,
    # under each mode and under this and another signal speed
    other_speed = replace(_PARAMS, v=data.draw(st.sampled_from((F(2), F(1, 2)))))
    gone = {data.draw(st.sampled_from(trace.events))} if trace.events else set()
    mutant = Trace(e for e in trace if e not in gone)
    for mode in modes:
        for params in (other_speed, _PARAMS):
            if mode.exact:
                induced_receives(sends, setting, params)
            check_setting_feasible(mutant, setting, params, mode)

    def fresh():
        return Setting(setting.nodes, setting.loc, setting.node_type, setting.link_schedule)

    for mode in modes:
        for _ in range(2):
            verdict = check_setting_feasible(trace, setting, _PARAMS, mode)
            assert verdict == check_setting_feasible(trace, fresh(), _PARAMS, mode)
            found = [(v.rule, v.events[0]) for v in verdict.violations]
            assert found == _scanned_physics(trace, fresh(), mode)


def test_approximate_mode_gives_exact_verdicts_where_every_distance_is_rational():
    """On the soundness corpora of acceptance criteria 3 and 4, and on each
    of their traces with one reception moved by 1/7, with one reception
    moved by 1/2000, within epsilon, and with one event dropped,
    approx_num(0) and approx_num(1/1000) give exact mode's physics, direct
    protocol and adversary verdicts: every distance is rational, and
    epsilon meets only an instant with no rational value, so the modes
    decide alike."""
    modes = (approx_num(F(0)), approx_num(F(1, 1000)))
    violated = 0
    for seed, protocol, adversary_kind, above in (
        (20080318, PT, DY_T, True),
        (20080319, PGT, DY_GT, False),
    ):
        rng, pick = random.Random(seed), random.Random(seed + 1)
        for _ in range(1000):
            params = random_params(rng, delta_at_least_threshold=above, equal_speeds=not above)
            setting = random_setting(rng, HORIZON)
            trace = random_trace(rng, setting, params, protocol, adversary_kind, HORIZON)
            model = AdversaryModel(adversary_kind, params.delta_relay)
            traces = [trace]
            if trace.events:
                gone = pick.choice(trace.events)
                traces.append(Trace([e for e in trace if e != gone]))
            receptions = list(trace.of_kind(Receive))
            if receptions:
                for shift in (F(1, 7), F(1, 2000)):
                    r = pick.choice(receptions)
                    moved = Receive(r.actor, r.start + shift, r.sender, r.msg)
                    traces.append(Trace([e for e in trace if e != r] + [moved]))
            for t in traces:
                exact = (
                    check_setting_feasible(t, setting, params),
                    protocol_verdict(t, setting, protocol, params, None),
                    check_adversary_feasible(t, setting, params, model),
                )
                for num in modes:
                    assert exact == (
                        check_setting_feasible(t, setting, params, num),
                        protocol_verdict(t, setting, protocol, params, None, num),
                        check_adversary_feasible(t, setting, params, model, num),
                    )
                violated += not all(v.ok for v in exact)
    assert violated > 5000  # the mutants are not vacuous


def _outcome(check):
    """A check's verdict, or the type and message of what it raised."""
    try:
        return check()
    except IrrationalDistance as exc:
        return IrrationalDistance, str(exc)


def test_exact_and_approximate_passes_share_one_settings_memos():
    """An approximate pass at 1/1000 then an exact pass over one setting,
    and the reverse order, each give the physics verdict of a freshly built
    setting, whichever mode filled the root and coverage memos first; an
    exact pass over an irrational pair an approximate pass covered raises
    as a fresh one does.  Where every distance is rational, approx_num(0)
    gives exact mode's verdict over the same shared memos."""
    approx, zero = approx_num(F(1, 1000)), approx_num(F(0))
    rng, pick = random.Random(20261021), random.Random(20261022)
    cases = []
    for protocol, adversary_kind, above in ((PT, DY_T, True), (PGT, DY_GT, False)):
        for _ in range(60):
            params = random_params(rng, delta_at_least_threshold=above, equal_speeds=not above)
            setting = random_setting(rng, HORIZON)
            trace = random_trace(rng, setting, params, protocol, adversary_kind, HORIZON)
            traces = [trace]
            receptions = list(trace.of_kind(Receive))
            if receptions:
                r = pick.choice(receptions)
                moved = Receive(r.actor, r.start + F(1, 7), r.sender, r.msg)
                traces.append(Trace([e for e in trace if e != r] + [moved]))
            cases.append((setting, params, traces, True))
    # A-B and B-C are irrational, A-C is 5; every reception is within 1/1000
    msg = Opaque("m", F(1))
    irrational = Setting(
        "ABC",
        {"A": (F(0), F(0)), "B": (F(1), F(1)), "C": (F(3), F(4))},
        {"A": CORRECT, "B": CORRECT, "C": ADVERSARIAL},
        {(a, b): ((F(0), None),) for a in "ABC" for b in "ABC" if a != b},
    )
    sends = [Bcast("A", F(0), msg), Dcast("C", F(10), F(5, 4), F(1, 4), msg)]
    arrivals = [("A", F(0), "A"), ("B", F(1414, 1000), "A"), ("C", F(5), "A")]
    arrivals += [("C", F(10), "C"), ("B", F(13606, 1000), "C"), ("A", F(15), "C")]
    trace = Trace(sends + [Receive(to, at, by, msg) for to, at, by in arrivals])
    cases.append((irrational, _PARAMS, [trace], False))

    def fresh(setting):
        return Setting(setting.nodes, setting.loc, setting.node_type, setting.link_schedule)

    raised = 0
    for setting, params, traces, rational in cases:
        for order in ((approx, EXACT), (EXACT, approx)):
            shared = fresh(setting)
            for num in order:
                for t in traces:
                    got = _outcome(lambda: check_setting_feasible(t, shared, params, num))
                    built = fresh(setting)
                    assert got == _outcome(lambda: check_setting_feasible(t, built, params, num))
                    raised += isinstance(got, tuple)
            if rational:
                for t in traces:
                    exact = check_setting_feasible(t, fresh(setting), params)
                    assert check_setting_feasible(t, shared, params, zero) == exact
    assert raised == 2  # the irrational setting's exact pass, in each order
    assert check_setting_feasible(trace, irrational, _PARAMS, approx).ok


# large, pairwise coprime denominators: each kind of value has its own primes
_START_PRIMES = (10007, 10009, 10037, 10039, 10061)
_DURATION_PRIMES = (997, 991)
_BOUND_PRIMES = (7919, 7927)
_MOVE_PRIMES = (100003, 100019)


def _over(draw, primes, high):
    """A value in [0, high] over one of the primes."""
    p = draw(st.sampled_from(primes))
    return F(draw(st.integers(0, high * p)), p)


@st.composite
def _coprime_worlds(draw):
    """A sparse setting on the 3-4-5 slope, with coordinates, link bounds
    and speeds over denominators of their own, and parameters whose
    freshness and relay bounds fall between the trace's grid points."""
    n = draw(st.integers(min_value=3, max_value=5))
    names = "ABCDE"[:n]
    steps = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n, unique=True))
    c = draw(st.sampled_from((1, 13)))
    schedule = {}
    for a in names:
        for b in names:
            kind = draw(st.integers(0, 4)) if a != b else 0
            if kind == 2:
                schedule[(a, b)] = ((F(0), None),)
            elif kind > 2:
                up = _over(draw, _BOUND_PRIMES, 12) + F(1, 7933)
                down = up + _over(draw, _BOUND_PRIMES, 12) + F(1, 7933)
                schedule[(a, b)] = ((up, None),) if kind == 3 else ((F(0), up), (down, None))
    setting = Setting(
        names,
        {name: (F(3 * k, c), F(4 * k, c)) for name, k in zip(names, steps)},
        {name: draw(st.sampled_from((CORRECT, ADVERSARIAL))) for name in names},
        schedule,
    )
    v = draw(st.sampled_from((F(1), F(3, 7))))
    params = SystemParams(
        v=v,
        v_adv=v * draw(st.sampled_from((1, F(13, 11)))),
        nd_range=draw(st.sampled_from((F(10), F(29, 3)))),
        delta_relay=draw(st.sampled_from((F(0), F(5, 3), F(2)))),
        msg_duration_default=draw(st.sampled_from((F(500, 997), F(700, 991)))),
    )
    return setting, params


def _lcm_of_times(events):
    """The lcm of the denominators of every start, duration and beacon time."""
    times = [e.start for e in events]
    times += [t for e in events if not isinstance(e, Neighbor) for t in _message_times(e.msg)]
    return math.lcm(*(t.denominator for t in times))


def _message_times(msg):
    return (msg.duration,) if isinstance(msg, Opaque) else (msg.duration, msg.beacon_time)


@settings(max_examples=150)
@given(st.data())
def test_tick_path_matches_fraction_references(data):
    """Physics, the dedicated pt and pgt routes and all five adversary
    models decide on integer ticks as the Fraction references decide:
    over large coprime denominators, at the grid points on either side
    of the freshness and relay bounds, and on a warm setting checking a
    mutant over a new denominator."""
    setting, params = data.draw(_coprime_worlds())

    def fresh():
        return Setting(setting.nodes, setting.loc, setting.node_type, setting.link_schedule)

    duration = params.msg_duration_default
    honest = []
    for node in setting.correct_nodes:
        for _ in range(data.draw(st.integers(0, 2))):
            at = _over(data.draw, _START_PRIMES, 20)
            stamped = data.draw(st.sampled_from((BeaconT, BeaconTL)))
            if stamped is BeaconT:
                honest.append(Bcast(node, at, BeaconT(node, at, duration)))
            else:
                honest.append(Bcast(node, at, BeaconTL(node, at, setting.loc[node], duration)))
    opaque = Opaque("x", _over(data.draw, _DURATION_PRIMES, 2) + F(1, 983))
    pool = [e.msg for e in honest] + [opaque]
    relays = []
    for node in setting.adversarial_nodes:
        for _ in range(data.draw(st.integers(0, 2))):
            at, msg = _over(data.draw, _START_PRIMES, 20), data.draw(st.sampled_from(pool))
            sector = data.draw(st.none() | st.sampled_from(_SECTORS))
            relays.append(Bcast(node, at, msg) if sector is None else Dcast(node, at, *sector, msg))
    sends = honest + relays
    receptions = []
    for r in induced_receives(sends, setting, params):
        how = data.draw(st.sampled_from(("keep", "keep", "keep", "drop", "move")))
        if how == "move":
            shift = F(1, data.draw(st.sampled_from(_START_PRIMES)))
            r = Receive(r.actor, r.start + shift, r.sender, r.msg)
        if how != "drop":
            receptions.append(r)
    grid = _lcm_of_times(sends + receptions)

    def peers(r):
        return st.sampled_from((r.msg.creator, r.sender))

    # receptions at the grid points on either side of the freshness bound,
    # each declared one unit after it ends
    beacons = [e.msg for e in honest]
    extra = []
    for _ in range(data.draw(st.integers(0, 3)) if beacons else 0):
        m = data.draw(st.sampled_from(beacons))
        dest = data.draw(st.sampled_from(setting.nodes))
        bound = params.nd_range / params.v * grid
        age = data.draw(st.sampled_from((math.floor(bound), math.ceil(bound))))
        extra.append(Receive(dest, m.beacon_time + F(age, grid), m.creator, m))
    declarations = [
        Neighbor(r.actor, event_end(r) + 1, data.draw(peers(r)), r.start)
        for r in receptions + extra
        if not isinstance(r.msg, Opaque) and data.draw(st.booleans())
    ]
    # casts at the grid points on either side of a relay bound after a reception
    adversaries = setting.adversarial_nodes
    for _ in range(data.draw(st.integers(0, 3)) if adversaries and receptions else 0):
        r = data.draw(st.sampled_from(receptions))
        caster = data.draw(st.sampled_from(adversaries))
        bound = params.delta_relay
        if caster != r.actor:
            bound += dist(setting, caster, r.actor) / params.v_adv
        gap = data.draw(st.sampled_from((math.floor(bound * grid), math.ceil(bound * grid))))
        at = r.start + F(gap, grid)
        casts = (Bcast(caster, at, r.msg), Dcast(caster, at, F(0), F(2), r.msg))
        extra.append(data.draw(st.sampled_from(casts)))
    trace = Trace(sends + receptions + extra + declarations)

    verdict = check_setting_feasible(trace, setting, params)
    found = [(v.rule, v.events[0]) for v in verdict.violations]
    assert found == _scanned_physics(trace, fresh(), EXACT, params)
    window = InaccuracyParams(F(1, 1009), F(1, 1013))
    for name, inacc in ((PT, None), (PGT, None), (PGT_APPROX, window)):
        verdict = protocol_verdict(trace, setting, name, params, inacc)
        unjustified = [v.events[0] for v in verdict.violations if v.rule == "neighbor-unjustified"]
        expected = _scanned_declarations(trace, setting, PROTOCOLS[name], inacc, EXACT, params)
        assert unjustified == expected
    for kind in ADVERSARY_NAMES:
        model = AdversaryModel(kind, params.delta_relay)
        verdict = check_adversary_feasible(trace, setting, params, model)
        found = [(v.rule, v.detail, v.events[0]) for v in verdict.violations]
        assert found == _scanned_adversary(trace, setting, model, EXACT, params)

    # the warm setting checks a mutant with one reception moved over a new
    # denominator: two checks over different ticks share one coverage memo
    moved = [e for e in trace if isinstance(e, Receive)]
    if moved:
        r = data.draw(st.sampled_from(moved))
        shift = F(data.draw(st.sampled_from((-1, 1))), data.draw(st.sampled_from(_MOVE_PRIMES)))
        moved = Receive(r.actor, max(F(0), r.start + shift), r.sender, r.msg)
        mutant = Trace([e for e in trace if e != r] + [moved])
        verdict = check_setting_feasible(mutant, setting, params)
        assert verdict == check_setting_feasible(mutant, fresh(), params)
        found = [(v.rule, v.events[0]) for v in verdict.violations]
        assert found == _scanned_physics(mutant, fresh(), EXACT, params)


def _seven_digit_primes(count):
    """The first count primes above one million, by a sieve of one segment."""
    low, width = 10**6, 30 * count
    composite = bytearray(width)
    for p in range(2, math.isqrt(low + width) + 1):
        for multiple in range(-(-low // p) * p, low + width, p):
            composite[multiple - low] = 1
    primes = [low + i for i in range(width) if not composite[i]]
    assert len(primes) >= count
    return primes[:count]


# the three checks must take this long at most on the 2,000-event trace below
HUGE_DENOMINATOR_BUDGET_S = 10


def _huge_denominator_case():
    """About 2,000 events whose starts have 1,107 distinct 7-digit prime
    denominators, so D has about 21,000 bits: the setting, the parameters,
    the trace, and its declarations and relays."""
    primes = iter(_seven_digit_primes(1110))
    setting = Setting(
        "ABC",
        {"A": (F(0), F(0)), "B": (F(3), F(4)), "C": (F(6), F(8))},
        {"A": CORRECT, "B": CORRECT, "C": ADVERSARIAL},
        {(a, b): ((F(0), None),) for a in "ABC" for b in "ABC" if a != b},
    )
    params = SystemParams(F(1), F(1), F(10), F(1), F(1, 2))
    beacons = [
        Bcast(node, at, BeaconT(node, at, params.msg_duration_default))
        for i in range(250)
        for node, at in [("AB"[i % 2], i + F(1, next(primes)))]
    ]
    # every seventh reception missing, every fifth declaration at a peer time no reception has
    received = [r for k, r in enumerate(induced_receives(beacons, setting, params)) if k % 7]
    declared = [r for r in received if r.actor not in (r.sender, "C")][:250]
    declarations = []
    for k, r in enumerate(declared):
        peer_time = r.start + (F(1, next(primes)) if k % 5 == 0 else 0)
        declared_at = event_end(r) + F(1, next(primes))
        declarations.append(Neighbor(r.actor, declared_at, r.msg.creator, peer_time))
    at_c = [r for r in received if r.actor == "C"]
    relays = [
        Dcast("C", r.start + F(k % 3, 2) + F(1, next(primes)), F(0), F(2), r.msg)
        for k, r in enumerate(at_c[:100])
    ]
    strays = [Receive("AB"[k % 2], k + F(1, next(primes)), "C", at_c[0].msg) for k in range(500)]
    relayed = induced_receives(relays, setting, params)
    trace = Trace(beacons + received + declarations + relays + relayed + strays)
    assert len(trace) > 2000
    return setting, params, trace, declarations, relays


def test_huge_denominator_verdicts_match_fraction_references():
    """On the 21,000-bit-D trace, physics, the dedicated pt route and the
    adversary check give the Fraction references' verdicts, and the three
    checks together stay within their budget."""
    setting, params, trace, declarations, relays = _huge_denominator_case()
    model = AdversaryModel("relay", params.delta_relay)
    start = time.perf_counter()
    physics = check_setting_feasible(trace, setting, params)
    pt = protocol_verdict(trace, setting, PT, params)
    adversary = check_adversary_feasible(trace, setting, params, model)
    elapsed = time.perf_counter() - start
    assert trace.ticks().den.bit_length() > 20_000
    assert elapsed < HUGE_DENOMINATOR_BUDGET_S

    fresh = Setting(setting.nodes, setting.loc, setting.node_type, setting.link_schedule)
    found = [(v.rule, v.events[0]) for v in physics.violations]
    assert found == _scanned_physics(trace, fresh, EXACT, params)
    assert {rule for rule, _ in found} == {"receive-without-transmission", "bcast-missing-receive"}
    unjustified = [v.events[0] for v in pt.violations if v.rule == "neighbor-unjustified"]
    assert unjustified == _scanned_declarations(trace, fresh, PROTOCOLS[PT], None, EXACT, params)
    assert len(unjustified) == len(declarations[::5])
    found = [(v.rule, v.detail, v.events[0]) for v in adversary.violations]
    assert found == _scanned_adversary(trace, fresh, model, EXACT, params)
    assert 0 < len(found) < len(relays)


def test_huge_denominator_checks_keep_no_ticks():
    """A trace keeps its D alone, not a tick per event: after physics, the
    dedicated pt route and the relay-adversary check on the 21,000-bit-D
    trace, with the trace, the setting and the verdicts still held, less
    than 1 MB of what the checks allocated is still allocated.  A tick kept
    per event holds about 2,000 ints of 21,000 bits, over 5 MB."""
    setting, params, trace, _, _ = _huge_denominator_case()
    model = AdversaryModel("relay", params.delta_relay)
    gc.collect()
    tracemalloc.start()
    try:
        verdicts = (
            check_setting_feasible(trace, setting, params),
            protocol_verdict(trace, setting, PT, params),
            check_adversary_feasible(trace, setting, params, model),
        )
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any(v.ok for v in verdicts)
    assert trace.ticks().den.bit_length() > 20_000
    assert kept < 1_000_000


# the listed sectors, or one drawn with quarter-turn or other rays
_QUARTERS = (F(0), F(1, 2), F(1), F(3, 2))
_ANY_SECTOR = st.sampled_from(_SECTORS) | st.tuples(
    st.sampled_from(_QUARTERS) | st.fractions(0, F(23, 12), max_denominator=12),
    st.sampled_from(_QUARTERS[1:] + (F(2),)) | st.fractions(F(1, 12), 2, max_denominator=12),
)


@settings(max_examples=150)
@given(st.data())
def test_memoized_geometry_matches_fresh_decisions(data):
    """Sector decisions and flight times read from one setting's memos equal
    those of a setting with empty memos, whatever was asked of it before."""
    setting, num = data.draw(_sparse_worlds())
    modes = (num, approx_num(F(1, 1000))) if num.exact else (num,)

    def fresh():
        return Setting(setting.nodes, setting.loc, setting.node_type, setting.link_schedule)

    nodes = st.sampled_from(setting.nodes)
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        a, b = data.draw(nodes), data.draw(nodes)
        direction, angle = data.draw(_ANY_SECTOR)
        assert inrange(setting, a, direction, angle, b) == inrange(fresh(), a, direction, angle, b)
        params = replace(_PARAMS, v=data.draw(st.sampled_from((F(1), F(2), F(1, 2)))))
        mode = data.draw(st.sampled_from(modes))
        if mode.exact:
            assert time_of_flight(setting, params, a, b) == time_of_flight(fresh(), params, a, b)
        den = data.draw(st.sampled_from((1, 7, 1000)))
        memoized = core.flight_ticks(setting, params.v, den, mode)(a, b)
        assert memoized == core.flight_ticks(fresh(), params.v, den, mode)(a, b)


@settings(max_examples=150)
@given(st.data())
def test_covered_root_times_scale_is_the_flight(data):
    """Each coverage entry keeps its receiver's root r = c·|ab|, or None
    exactly for an irrational pair in approximate mode, and r times the
    scale of any pass over a multiple of _grid, the one that filled the
    memo or another, is both ticks flight_ticks reads for the pair; an
    exact check or induced_receives over entries an approximate pass kept
    raises IrrationalDistance on an irrational covered pair."""
    setting, num = data.draw(_sparse_worlds())
    params = replace(_PARAMS, v=data.draw(st.sampled_from((F(1), F(2), F(1, 2), F(3, 7)))))
    sends = _sends(data.draw, setting, lambda i: Opaque("m", F(1)))
    base = math.lcm(core._grid(setting, params), core._denominator(sends))
    filled = base * data.draw(st.integers(1, 6), "D / base")
    other = filled * data.draw(st.integers(2, 5), "other D / filling D")
    filler = core._Physics(setting, params, num, Ticks(filled))
    covered = [(e, filler.coverage(e)) for e in sends]
    unsafe = None
    for den in (filled, other, base):
        phys = core._Physics(setting, params, num, Ticks(den))
        read = core.flight_ticks(setting, params.v, den, num)
        for e, cover in covered:
            assert phys.coverage(e) is cover
            for dest, _, r in cover:
                rational = is_rational_square(sq_dist(setting.loc[e.actor], setting.loc[dest]))
                assert (r is None) == (not rational)
                if r is None:
                    unsafe = e
                else:
                    assert read(e.actor, dest) == (r * phys.scale,) * 2
    if unsafe is not None:
        assert not num.exact
        with pytest.raises(IrrationalDistance):
            check_setting_feasible(Trace([unsafe]), setting, params)
        # as with a cold memo, whether or not the pair's link is up
        with pytest.raises(IrrationalDistance):
            induced_receives([unsafe], setting, params)


# unit direction vectors (x, y) / norm with rational components
_LINES = ((1, 0, 1), (0, 1, 1), (3, 4, 5), (5, -12, 13), (8, 15, 17))
_COORDS = st.fractions(-6, 6, max_denominator=6)


def _on_line(base, line):
    dx, dy, norm = line
    return _COORDS.map(lambda t: (base[0] + t * dx / norm, base[1] + t * dy / norm))


@st.composite
def _point_sets(draw):
    """Points, half of them on one rational line through a base, so that
    rational pairs are common and the first irrational pair falls anywhere."""
    base = draw(st.tuples(_COORDS, _COORDS))
    main, other = draw(st.sampled_from(_LINES)), draw(st.sampled_from(_LINES))
    grid = st.tuples(st.integers(-6, 6).map(F), st.integers(-6, 6).map(F))
    point = st.one_of(_on_line(base, main), _on_line(base, main), _on_line(base, other), grid)
    return draw(st.lists(point, min_size=2, max_size=6, unique=True))


_SPEEDS = st.sampled_from((F(2), F(1, 3), F(7, 5), F(300_000_000))) | st.fractions(
    F(1, 9), 9, max_denominator=13
).filter(lambda v: v != 1)


@settings(max_examples=200)
@given(st.data())
def test_integer_geometry_matches_fraction_formulas(data):
    """Distances, flight times, physics flight ticks and the adversary's least
    relay gap, read in integers from the setting's root memo, equal the
    Fraction formulas, over coordinates of mixed denominators; an irrational
    pair raises the IrrationalDistance that exact_sqrt gives for it in exact
    mode, and at epsilon 0 in approximate mode reads as the ticks just above
    and just below, so that no tick counts as it."""
    points = data.draw(_point_sets())
    names = "ABCDEF"[: len(points)]
    loc = dict(zip(names, points))
    setting = Setting(names, loc, dict.fromkeys(names, ADVERSARIAL))
    v = data.draw(_SPEEDS, "v")
    v_adv = v * data.draw(st.sampled_from((1, F(3, 2), 2, F(7, 3))), "v_adv / v")
    delta_relay = data.draw(st.fractions(0, 3, max_denominator=11), "delta_relay")
    params = SystemParams(v, v_adv, F(10), delta_relay, F(1))
    ticks = Ticks(core._grid(setting, params) * data.draw(st.integers(1, 12), "D / grid"))
    phys = core._Physics(setting, params, EXACT, ticks)
    approx = core._Physics(setting, params, approx_num(F(0)), ticks)
    # the adversary's least-gap function, over the ticks of a one-cast trace
    start = data.draw(st.fractions(0, 5, max_denominator=17), "cast start")
    trace = Trace([Dcast(names[0], start, F(0), F(2), Opaque("m", F(1)))])
    gaps = []
    relay_justified = adversary._relay_justified

    def keeping(e, trace, setting, starts, least_gap, *rest):
        gaps.append(least_gap)
        return relay_justified(e, trace, setting, starts, least_gap, *rest)

    with mock.patch.object(adversary, "_relay_justified", keeping):
        for mode in (EXACT, approx_num(F(0))):
            check_adversary_feasible(trace, setting, params, AdversaryModel(RELAY, delta_relay), mode)
    least_gap, approx_gap = gaps
    trace_ticks = trace.ticks()
    for a in names:
        for b in names:
            squared = sq_dist(loc[a], loc[b])
            own = Receive(b, F(0), b, Opaque("m", F(1)))  # a flight of 0: the bound alone
            try:
                d = exact_sqrt(squared)
            except IrrationalDistance as exc:
                for read in (
                    lambda: dist(setting, a, b),
                    lambda: time_of_flight(setting, params, a, b),
                    lambda: phys.flight[a, b],
                    lambda: least_gap(a, own),
                ):
                    with pytest.raises(IrrationalDistance) as raised:
                        read()
                    assert str(raised.value) == str(exc)
                # the flight's ticks lie strictly between floor and floor + 1
                low = math.isqrt(math.floor(squared * ticks.den**2 / v**2))
                assert approx.flight[a, b] == (low + 1, low)
                # the least gap g: the least int with g >= D·(delta_relay + |ab|/v_adv)
                den = trace_ticks.den
                q, lead = squared * den**2 / v_adv**2, delta_relay * den
                gap = math.ceil(lead + math.isqrt(math.floor(q)))
                while not _root_at_most(gap - lead, q):
                    gap += 1
                assert approx_gap(a, own) == gap
                continue
            assert (type(dist(setting, a, b)), dist(setting, a, b)) == (Fraction, d)
            assert time_of_flight(setting, params, a, b) == d / v
            assert phys.flight[a, b] == approx.flight[a, b] == (ticks.of(d / v),) * 2
            assert least_gap(a, own) == approx_gap(a, own) == trace_ticks.ceil(delta_relay + d / v_adv)


@settings(max_examples=200)
@given(st.data())
def test_integer_pair_test_matches_rational_square_roots(data):
    """The scaled-integer pair test accepts exactly the pairs whose squared
    distance is a rational square, and parse_scenario names the same first
    failing pair as a scan of every pair."""
    points = data.draw(_point_sets())
    names = "ABCDEF"[: len(points)]
    loc = dict(zip(names, points))
    setting = Setting(names, loc, dict.fromkeys(names, CORRECT))
    rational = {
        (a, b): is_rational_square(sq_dist(loc[a], loc[b]))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }
    for (a, b), expected in rational.items():
        pair = Setting((a, b), loc, dict.fromkeys(names, CORRECT))
        assert (core.first_irrational_pair(pair) is None) == expected
    first = next((pair for pair, ok in rational.items() if not ok), None)
    assert core.first_irrational_pair(setting) == first

    adversary = AdversaryModel("relay", _PARAMS.delta_relay)
    scn = scenario.Scenario(_PARAMS, setting, PT, adversary, None, HORIZON)
    text = scenario.dump_scenario(scn)
    if first is None:
        assert scenario.parse_scenario(text) == scn
    else:
        a, b = first
        with pytest.raises(scenario.ScenarioError, match=f"between '{a}' and '{b}' is irrational"):
            scenario.parse_scenario(text)


@settings(max_examples=200)
@given(st.data())
def test_first_irrational_pair_keeps_no_root(data):
    """first_irrational_pair names the pair the Fraction reference names, the
    first in node order whose distance is irrational, and keeps no root: the
    setting's root memo is empty after a first and a second call, so only
    the pairs a check reads are ever kept."""
    points = data.draw(_point_sets())
    names = "ABCDEF"[: len(points)]
    loc = dict(zip(names, points))
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    first = next((p for p in pairs if not is_rational_square(sq_dist(loc[p[0]], loc[p[1]]))), None)
    setting = Setting(names, loc, dict.fromkeys(names, CORRECT))
    for _ in range(2):
        assert core.first_irrational_pair(setting) == first
        assert setting._roots == {}
