"""Metamorphic relations: symmetries of the model that need no reference.

Each relation maps a scenario and a trace to another pair on which every
layer of ``ndcheck check`` (physics, protocol, adversary and neighbor
correctness) must report the same multiset of rule names:

- time shift by c >= 0: every start, beacon time, peer time and link
  bound, plus c;
- translation by a rational vector: every coordinate and every beacon
  location, plus the vector;
- renaming by a one-to-one map of node ids: every node id in the
  setting (nodes, locations, types and link ends) and in the trace
  (actors, senders, peers, beacon creators and the naive protocol's
  tokens), mapped.  Renaming changes the node order, and with it the
  canonical order of events that share a start;
- scaling by k > 0, with the speeds fixed: every start, duration, beacon
  time, peer time, link bound, coordinate and beacon location, the
  parameters nd_range, delta_relay and the default message duration,
  the error bounds delta and tau, and approximate mode's epsilon, times k.
  A sector is scaled about its apex, so its rays keep their directions.

All four hold in exact mode and in approximate mode, since every rule
compares differences of instants and of points, and none reads a node's
name; each comparison of a time with a distance divides it by a speed,
and each tolerance is scaled with what it bounds.  The generated casts
have quarter-turn sectors only, so no scaled case meets an eighth-turn
ray, whose float decision (F2, ROADMAP item 4) is not scale-free.  The
inputs are the generators' settings and traces for every protocol and
adversary model, each with a mutant that drops one event and one that
moves one event's start, so that the relations are also tried on traces
with violations.
Some shifts have large prime denominators, so that the shifted trace's
tick denominator is another than the original's.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ndcheck import cli
from ndcheck.adversary import ADVERSARY_NAMES, AdversaryModel
from ndcheck.core import BeaconT, BeaconTL, Neighbor, Opaque, Receive, Setting, Trace
from ndcheck.generators import random_params, random_setting, random_trace
from ndcheck.protocols import NAIVE_TOKEN_PREFIX, PGT_APPROX, PROTOCOL_NAMES, InaccuracyParams
from ndcheck.rational import EXACT, approx_num
from ndcheck.scenario import Scenario

F = Fraction
HORIZON = F(40)
MODES = (EXACT, approx_num(F(1, 1000)))
_PRIMES = (1_000_003, 999_983, 7_919)


def shift_time(scenario, trace, c):
    """The scenario and trace with every instant c later."""

    def message(m):
        if isinstance(m, (BeaconT, BeaconTL)):
            return replace(m, beacon_time=m.beacon_time + c)
        return m

    def event(e):
        if isinstance(e, Neighbor):
            return replace(e, start=e.start + c, peer_time=e.peer_time + c)
        return replace(e, start=e.start + c, msg=message(e.msg))

    s = scenario.setting
    links = {
        pair: tuple((start + c, None if end is None else end + c) for start, end in phases)
        for pair, phases in s.link_schedule.items()
    }
    moved = Setting(s.nodes, s.loc, s.node_type, links)
    return replace(scenario, setting=moved), Trace(map(event, trace))


def translate(scenario, trace, dx, dy):
    """The scenario and trace with every point moved by (dx, dy)."""

    def event(e):
        if not isinstance(e, Neighbor) and isinstance(e.msg, BeaconTL):
            x, y = e.msg.beacon_loc
            return replace(e, msg=replace(e.msg, beacon_loc=(x + dx, y + dy)))
        return e

    s = scenario.setting
    loc = {node: (x + dx, y + dy) for node, (x, y) in s.loc.items()}
    moved = Setting(s.nodes, loc, s.node_type, s.link_schedule)
    return replace(scenario, setting=moved), Trace(map(event, trace))


def rename(scenario, trace, mapping):
    """The scenario and trace with every node id n read as mapping[n]."""
    new = mapping.__getitem__

    def message(m):
        if isinstance(m, Opaque):
            creator = m.token[len(NAIVE_TOKEN_PREFIX):]
            if m.token.startswith(NAIVE_TOKEN_PREFIX) and creator in mapping:
                return replace(m, token=NAIVE_TOKEN_PREFIX + new(creator))
            return m
        return replace(m, creator=new(m.creator))

    def event(e):
        e = replace(e, actor=new(e.actor))
        if isinstance(e, Neighbor):
            return replace(e, peer=new(e.peer))
        if isinstance(e, Receive):
            e = replace(e, sender=new(e.sender))
        return replace(e, msg=message(e.msg))

    s = scenario.setting
    moved = Setting(
        map(new, s.nodes),
        {new(node): p for node, p in s.loc.items()},
        {new(node): kind for node, kind in s.node_type.items()},
        {(new(a), new(b)): phases for (a, b), phases in s.link_schedule.items()},
    )
    return replace(scenario, setting=moved), Trace(map(event, trace))


def scale(scenario, trace, k):
    """The scenario and trace with every time, duration and length k times
    as large, and the speeds as they are."""

    def point(p):
        return (p[0] * k, p[1] * k)

    def message(m):
        m = replace(m, duration=m.duration * k)
        if isinstance(m, (BeaconT, BeaconTL)):
            m = replace(m, beacon_time=m.beacon_time * k)
        if isinstance(m, BeaconTL):
            m = replace(m, beacon_loc=point(m.beacon_loc))
        return m

    def event(e):
        if isinstance(e, Neighbor):
            return replace(e, start=e.start * k, peer_time=e.peer_time * k)
        return replace(e, start=e.start * k, msg=message(e.msg))

    s, p, inacc = scenario.setting, scenario.params, scenario.inaccuracy
    links = {
        pair: tuple((start * k, None if end is None else end * k) for start, end in phases)
        for pair, phases in s.link_schedule.items()
    }
    moved = Setting(s.nodes, {node: point(q) for node, q in s.loc.items()}, s.node_type, links)
    scaled = replace(
        scenario,
        params=replace(
            p,
            nd_range=p.nd_range * k,
            delta_relay=p.delta_relay * k,
            msg_duration_default=p.msg_duration_default * k,
        ),
        setting=moved,
        adversary=replace(scenario.adversary, delta_relay=scenario.adversary.delta_relay * k),
        inaccuracy=inacc and InaccuracyParams(inacc.delta * k, inacc.tau * k),
        horizon=scenario.horizon * k,
    )
    return scaled, Trace(map(event, trace))


def layer_rules(scenario, trace, num):
    """Each layer's multiset of rule names, in the order ``check`` reports them."""
    verdicts = cli._verdicts(trace, scenario, num)
    return [Counter(v.rule for v in verdict.violations) for verdict in verdicts.values()]


@st.composite
def _runs(draw):
    """A generated scenario and trace, with its dropped-event and
    shifted-event mutants."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1), "seed"))
    protocol = draw(st.sampled_from(PROTOCOL_NAMES), "protocol")
    kind = draw(st.sampled_from(ADVERSARY_NAMES), "adversary")
    params = random_params(rng, draw(st.booleans()), draw(st.booleans()))
    setting = random_setting(rng, HORIZON)
    trace = random_trace(rng, setting, params, protocol, kind, HORIZON)
    inacc = None
    if protocol == PGT_APPROX:
        inacc = InaccuracyParams(F(rng.randint(0, 4), 8), F(rng.randint(0, 4), 8))
    model = AdversaryModel(kind, params.delta_relay)
    scenario = Scenario(params, setting, protocol, model, inacc, HORIZON)
    traces = [trace]
    if trace.events:
        gone = draw(st.sampled_from(trace.events), "dropped")
        traces.append(Trace(e for e in trace if e != gone))
        moving = draw(st.sampled_from(trace.events), "moved")
        by = draw(st.sampled_from((F(1, 7), F(1, 2), F(3))), "moved by")
        moved = replace(moving, start=moving.start + by)
        traces.append(Trace([e for e in trace if e != moving] + [moved]))
    return scenario, traces


_SHIFTS = st.one_of(
    st.integers(0, 50).map(F),
    st.fractions(0, 50, max_denominator=12),
    st.builds(lambda n, p: F(n, p), st.integers(0, 50 * 7_919), st.sampled_from(_PRIMES)),
)
_OFFSETS = st.one_of(
    st.fractions(-20, 20, max_denominator=12),
    st.builds(lambda n, p: F(n, p), st.integers(-20 * 7_919, 20 * 7_919), st.sampled_from(_PRIMES)),
)


@settings(max_examples=200, deadline=None)
@given(_runs(), _SHIFTS)
def test_time_shift_keeps_every_layers_rules(run, c):
    scenario, traces = run
    for trace in traces:
        shifted = shift_time(scenario, trace, c)
        for num in MODES:
            assert layer_rules(*shifted, num) == layer_rules(scenario, trace, num), num


@settings(max_examples=200, deadline=None)
@given(_runs(), _OFFSETS, _OFFSETS)
def test_translation_keeps_every_layers_rules(run, dx, dy):
    scenario, traces = run
    for trace in traces:
        moved = translate(scenario, trace, dx, dy)
        for num in MODES:
            assert layer_rules(*moved, num) == layer_rules(scenario, trace, num), num


@settings(max_examples=200, deadline=None)
@given(_runs(), st.data())
def test_renaming_keeps_every_layers_rules(run, data):
    scenario, traces = run
    nodes = scenario.setting.nodes
    prefix = data.draw(st.sampled_from(("", "x.", "Z-", "0_")), "prefix")
    order = data.draw(st.permutations(nodes), "permutation")
    mapping = {node: prefix + other for node, other in zip(nodes, order)}
    for trace in traces:
        renamed = rename(scenario, trace, mapping)
        for num in MODES:
            assert layer_rules(*renamed, num) == layer_rules(scenario, trace, num), num


@settings(max_examples=200, deadline=None)
@given(_runs(), st.sampled_from((F(2), F(1, 3))))
def test_scaling_keeps_every_layers_rules(run, k):
    scenario, traces = run
    for trace in traces:
        scaled = scale(scenario, trace, k)
        for num in MODES:
            wider = num if num.exact else approx_num(num.epsilon * k)
            assert layer_rules(*scaled, wider) == layer_rules(scenario, trace, num), num
