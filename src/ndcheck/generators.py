"""Randomized scenario, trace and view generation.

Everything here is feasible by construction: transmissions are chosen
first, receptions are derived through the same coverage predicates the
checkers use, adversarial activity respects the relay bounds of the
selected model, and declarations are only emitted when the protocol's
own acceptance predicate admits them.  The generators therefore produce
corpora on which the checkers should never report a violation, which is
exactly what the randomized soundness searches assert.

Node placements are collinear or drawn from a 3-4-5 rectangle family
(corners plus center), so every pairwise distance is rational and exact
arithmetic never fails.

Draws are made in integers: a value on a 1/k grid is drawn as its
integer count of 1/k steps, with the same random calls and the same
arguments as when it was drawn in Fractions, and one Fraction is built
per value drawn.  Receptions are induced once per transmission, through
the setting's coverage memo, which decides each cast's sector once per
receiver, and its integer root memo, which keeps the roots of the node
pairs those receptions read (see ``core.Setting``).  So every seed keeps
its draws: the same seed gives the same settings and traces, value for
value.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .adversary import RELAY, RELAY_BCAST, RELAY_LOCAL, adversary_spec
from .core import (
    ADVERSARIAL,
    Bcast,
    BeaconT,
    BeaconTL,
    CORRECT,
    Dcast,
    Event,
    Interval,
    LocalBcast,
    LocalNeighbor,
    LocalReceive,
    LocalView,
    Neighbor,
    NodeId,
    Point,
    Setting,
    SystemParams,
    TL_FLAVOR,
    Trace,
    dist,
    induced_receives,
)
from .protocols import InaccuracyParams, PT, protocol_spec
from .rational import EXACT

NODE_NAMES = ("A", "B", "C", "D", "E")

# corners and center of a 3-4-5 rectangle, in halves: all ten pairwise
# distances rational
_RECT_HALVES: tuple[tuple[int, int], ...] = ((0, 0), (6, 0), (0, 8), (6, 8), (3, 4))
_ZERO = Fraction(0)

ALWAYS: tuple[Interval, ...] = ((Fraction(0), None),)

# the values each choice draws from, built once
_RANGES = tuple(map(Fraction, (4, 5, 6, 8, 10)))
_DELAYS_ABOVE = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))  # beyond the threshold
_DELAYS = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))
_DURATIONS = (Fraction(1, 2), Fraction(1))
_RELAY_SLACK = (Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(2))
_DIRECTIONS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))
_ANGLES = (Fraction(2), Fraction(2), Fraction(1), Fraction(1, 2))
_DECLARATION_DELAYS = (Fraction(1, 4), Fraction(1))
_NO_INACCURACY = InaccuracyParams()


def _frac(rng: random.Random, lo: Fraction, hi: Fraction, denominator: int = 8) -> Fraction:
    """A multiple of 1/denominator in [lo, hi], for 0 <= lo <= hi."""
    return Fraction(rng.randint(_steps(lo, denominator), _steps(hi, denominator)), denominator)


def _steps(x: Fraction, denominator: int) -> int:
    """floor(x·denominator) for x >= 0, in integers."""
    n, d = x.as_integer_ratio()
    return n * denominator // d


def random_params(
    rng: random.Random,
    delta_at_least_threshold: bool,
    equal_speeds: bool,
) -> SystemParams:
    v = Fraction(1)
    nd_range = rng.choice(_RANGES)
    v_adv = v if equal_speeds else v * rng.choice([1, 1, 2])
    threshold = nd_range / v
    if delta_at_least_threshold:
        delta = threshold + rng.choice(_DELAYS_ABOVE)
    else:
        delta = rng.choice(_DELAYS)
    return SystemParams(
        v=v,
        v_adv=v_adv,
        nd_range=nd_range,
        delta_relay=delta,
        msg_duration_default=rng.choice(_DURATIONS),
    )


def _placements(rng: random.Random, count: int, spread: Fraction) -> list[Point]:
    """Distinct points, in quarter units: each coordinate is one Fraction of
    an integer over 4."""
    if rng.random() < 0.5 or count > len(_RECT_HALVES):
        xs: set[int] = set()
        hi = _steps(spread, 4)
        while len(xs) < count:
            xs.add(rng.randint(0, hi))
        return [(Fraction(x, 4), _ZERO) for x in sorted(xs)]
    scale = rng.choice([1, 2, 3, 4])  # in halves
    shift_x, shift_y = rng.randint(0, 8), rng.randint(0, 8)  # in halves
    chosen = rng.sample(_RECT_HALVES, count)
    return [
        (Fraction(x * scale + 2 * shift_x, 4), Fraction(y * scale + 2 * shift_y, 4))
        for x, y in chosen
    ]


def _random_schedule(rng: random.Random, horizon: Fraction) -> tuple[Interval, ...]:
    """Up-phases drawn in half units: one Fraction per bound."""
    roll = rng.random()
    if roll < 0.55:
        return ALWAYS
    if roll < 0.75:
        return ()
    phases = []
    cursor = 0
    longest = _steps(horizon, 1)  # horizon/2, in halves
    for _ in range(rng.randint(1, 2)):
        start = cursor + rng.randint(0, 8)
        end = start + rng.randint(2, longest)
        phases.append((Fraction(start, 2), Fraction(end, 2)))
        cursor = end + 1
    return tuple(phases)


def random_setting(
    rng: random.Random,
    horizon: Fraction,
    n_nodes: Optional[int] = None,
) -> Setting:
    count = n_nodes if n_nodes is not None else rng.randint(2, 5)
    names = NODE_NAMES[:count]
    points = _placements(rng, count, spread=Fraction(12))
    types = {name: (ADVERSARIAL if rng.random() < 0.4 else CORRECT) for name in names}
    correct = [n for n in names if types[n] == CORRECT]
    for name in names:
        if len(correct) >= 2:
            break
        if types[name] == ADVERSARIAL:
            types[name] = CORRECT
            correct.append(name)
    links: dict[tuple[NodeId, NodeId], tuple[Interval, ...]] = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            forward = _random_schedule(rng, horizon)
            backward = forward if rng.random() < 0.6 else _random_schedule(rng, horizon)
            if forward:
                links[(a, b)] = forward
            if backward:
                links[(b, a)] = backward
    return Setting(names, dict(zip(names, points)), types, links)


def _fresh_time(rng: random.Random, used: set[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    while True:
        t = _frac(rng, lo, hi)
        if t not in used:
            used.add(t)
            return t


def random_trace(
    rng: random.Random,
    setting: Setting,
    params: SystemParams,
    protocol: str,
    adversary_kind: str,
    horizon: Fraction,
    authored_beacons: bool = True,
) -> Trace:
    """Honest beaconing, model-conform adversarial activity, justified declarations."""
    spec = protocol_spec(protocol)
    adversary = adversary_spec(adversary_kind)
    used_times: dict[NodeId, set[Fraction]] = {n: set() for n in setting.nodes}
    sends: list[Event] = []
    half = horizon / 2
    for node in setting.correct_nodes:
        for _ in range(rng.choice([0, 1, 1, 2])):
            t = _fresh_time(rng, used_times[node], 0, half)
            msg = spec.beacon(node, t, setting.loc[node], params)
            sends.append(Bcast(node, t, msg))

    honest_receives = induced_receives(sends, setting, params)
    adv_receives = [r for r in honest_receives if setting.is_adversarial(r.actor)]

    adversarial: list[Event] = []
    for node in setting.adversarial_nodes:
        pool = [r for r in adv_receives if r.actor == node] if adversary.own_only else adv_receives
        for _ in range(rng.choice([0, 1, 1, 2])):
            if pool and rng.random() < 0.8:
                origin = rng.choice(pool)
                # the flight term is 0 for the node's own reception
                bound = params.delta_relay + dist(setting, node, origin.actor) / params.v_adv
                t = origin.start + bound + rng.choice(_RELAY_SLACK)
                msg = origin.msg
            elif authored_beacons and adversary.authors is not None:
                creator = rng.choice(setting.adversarial_nodes)
                t = _frac(rng, 0, horizon)
                stamp = _frac(rng, 0, horizon)
                if adversary.authors is BeaconTL:
                    claimed = (_frac(rng, 0, 12, denominator=4), _frac(rng, 0, 12, denominator=4))
                    msg = BeaconTL(creator, stamp, claimed, params.msg_duration_default)
                else:
                    msg = BeaconT(creator, stamp, params.msg_duration_default)
            else:
                continue
            if t in used_times[node]:
                continue
            used_times[node].add(t)
            if adversary.sends is Bcast:
                adversarial.append(Bcast(node, t, msg))
            else:
                direction, angle = rng.choice(_DIRECTIONS), rng.choice(_ANGLES)
                adversarial.append(Dcast(node, t, direction, angle, msg))

    all_sends = sends + adversarial
    receives = honest_receives + induced_receives(adversarial, setting, params)

    declarations: list[Event] = []
    for node in setting.correct_nodes:
        owner_loc = setting.loc[node]
        candidates = [r for r in receives if r.actor == node]
        rng.shuffle(candidates)
        declared = 0
        for r in candidates:
            if declared >= 3 or rng.random() < 0.4:
                continue
            peer = spec.accepts(params, owner_loc, r, _NO_INACCURACY, EXACT)
            if peer is not None:
                at = r.start + r.msg.duration + rng.choice(_DECLARATION_DELAYS)
                declarations.append(Neighbor(node, at, peer, r.start))
                declared += 1

    return Trace(all_sends + receives + declarations)


# ---------------------------------------------------------------------------
# adversary-ordering corpus


def authored_beacon_trace(params: SystemParams) -> tuple[Trace, Setting]:
    """An adversarial node casts a beacon its own identity created.

    Feasible for the Dolev-Yao models, infeasible for every pure relay
    model: nothing was ever received.
    """
    setting = Setting(
        nodes=("A", "C", "X"),
        loc={
            "A": (Fraction(0), Fraction(0)),
            "C": (Fraction(3), Fraction(0)),
            "X": (Fraction(6), Fraction(0)),
        },
        node_type={"A": CORRECT, "C": ADVERSARIAL, "X": ADVERSARIAL},
        link_schedule={("C", "A"): ALWAYS, ("A", "C"): ALWAYS},
    )
    beacon = BeaconT("X", Fraction(5), params.msg_duration_default)
    cast = Dcast("C", Fraction(5), Fraction(0), Fraction(2), beacon)
    receives = induced_receives([cast], setting, params)
    return Trace([cast] + receives), setting


def make_ordering_corpus(
    seed: int, size: int, params: SystemParams, horizon: Fraction = Fraction(40)
) -> list[tuple[Trace, Setting, str]]:
    """Mixed corpus over the relay primitives plus one authored-beacon trace.

    Payloads stay inside the time-stamped beacon space so the Dolev-Yao
    checker is applicable to every entry.
    """
    rng = random.Random(seed)
    corpus: list[tuple[Trace, Setting, str]] = []
    kinds = [RELAY_LOCAL, RELAY, RELAY_BCAST]
    while len(corpus) < size - 1:
        kind = kinds[len(corpus) % len(kinds)]
        setting = random_setting(rng, horizon)
        trace = random_trace(
            rng, setting, params, PT, kind, horizon, authored_beacons=False
        )
        corpus.append((trace, setting, kind))
    trace, setting = authored_beacon_trace(params)
    corpus.append((trace, setting, "authored"))
    return corpus


# ---------------------------------------------------------------------------
# view corpora


def random_tl_views(
    seed: int, count: int, params: SystemParams
) -> list[LocalView]:
    """Location-aware views mixing exact-distance, offset and foreign receives."""
    rng = random.Random(seed)
    views = []
    for index in range(count):
        owner = "A"
        owner_loc = (
            _frac(rng, Fraction(0), Fraction(8), denominator=2),
            _frac(rng, Fraction(0), Fraction(8), denominator=2),
        )
        events: list = []
        latest = Fraction(1)
        for _ in range(rng.randint(0, 4)):
            scale = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
            claimed = (owner_loc[0] + 3 * scale, owner_loc[1] + 4 * scale)
            distance = 5 * scale
            stamp = _frac(rng, Fraction(0), Fraction(10))
            offset = rng.choice(
                [Fraction(0), Fraction(0), Fraction(1, 8), Fraction(1), Fraction(-1, 8)]
            )
            start = stamp + distance / params.v + offset
            if start < 0:
                start = stamp
            msg = BeaconTL(
                rng.choice(("B", "C")), stamp, claimed, params.msg_duration_default
            )
            events.append(LocalReceive(start, msg))
            latest = max(latest, start + msg.duration)
        if rng.random() < 0.3:
            stamp = _frac(rng, Fraction(0), Fraction(10))
            events.append(
                LocalReceive(stamp, BeaconT("B", stamp, params.msg_duration_default))
            )
            latest = max(latest, stamp + params.msg_duration_default)
        if rng.random() < 0.3:
            t = _frac(rng, Fraction(0), Fraction(10))
            events.append(
                LocalBcast(
                    t, BeaconTL(owner, t, owner_loc, params.msg_duration_default)
                )
            )
            latest = max(latest, t + params.msg_duration_default)
        if rng.random() < 0.2:
            t = _frac(rng, Fraction(0), Fraction(10))
            events.append(LocalNeighbor(t, "B", t))
            latest = max(latest, t)
        views.append(
            LocalView(
                TL_FLAVOR, owner, latest + 1 + index % 3, owner_loc, frozenset(events)
            )
        )
    return views
