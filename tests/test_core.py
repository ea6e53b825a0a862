import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ndcheck import (
    ADVERSARIAL,
    Bcast,
    BeaconT,
    BeaconTL,
    CORRECT,
    Dcast,
    IrrationalDistance,
    Neighbor,
    Opaque,
    Receive,
    Setting,
    SystemParams,
    Trace,
    UnknownNode,
    check_setting_feasible,
    dist,
    induced_receives,
    inrange,
    link_up_over,
    project_local,
    time_of_flight,
)
from ndcheck import (
    RELAY,
    AdversaryModel,
    InaccuracyParams,
    approx_num,
    check_adversary_feasible,
    core,
)

F = Fraction
ALWAYS = ((F(0), None),)


def pair_setting(d=F(8), schedule=ALWAYS):
    return Setting(
        nodes=("A", "B"),
        loc={"A": (F(0), F(0)), "B": (d, F(0))},
        node_type={"A": CORRECT, "B": CORRECT},
        link_schedule={("A", "B"): schedule, ("B", "A"): schedule},
    )


def triangle_setting():
    return Setting(
        nodes=("A", "B", "C"),
        loc={"A": (F(0), F(0)), "B": (F(8), F(0)), "C": (F(4), F(0))},
        node_type={"A": CORRECT, "B": CORRECT, "C": ADVERSARIAL},
        link_schedule={
            ("A", "C"): ALWAYS,
            ("C", "A"): ALWAYS,
            ("B", "C"): ALWAYS,
            ("C", "B"): ALWAYS,
        },
    )


# ---------------------------------------------------------------------------
# messages and events: values hashed at construction


def _values():
    beacon = BeaconTL("B", F(1, 3), (F(3), F(-4, 7)), F(1, 2))
    return [
        Opaque("x", F(2)),
        BeaconT("A", F(0), F(1)),
        beacon,
        Bcast("B", F(1, 3), beacon),
        Dcast("C", F(5), F(1, 4), F(1, 2), beacon),
        Receive("A", F(7, 2), "B", beacon),
        Neighbor("A", F(9, 2), "B", F(7, 2)),
    ]


def _field_tuple(value):
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


def test_equal_events_built_from_any_number_type_hash_equal():
    msg = BeaconT("A", F(1, 2), F(1))
    for start in (F(3), 3, 3.0):
        for e, exact in (
            (Bcast("A", start, msg), Bcast("A", F(3), msg)),
            (
                Receive("B", start, "A", BeaconT("A", start, F(1))),
                Receive("B", F(3), "A", BeaconT("A", F(3), F(1))),
            ),
            (Neighbor("B", start, "A", start), Neighbor("B", F(3), "A", F(3))),
        ):
            assert e == exact and hash(e) == hash(exact) == hash(_field_tuple(exact))
    for bad in (-F(1, 2), -1, -0.5):
        with pytest.raises(ValueError, match="event start must be >= 0"):
            Bcast("A", bad, msg)
        with pytest.raises(ValueError, match="peer_time must be >= 0"):
            Neighbor("A", F(1), "B", bad)
        with pytest.raises(ValueError, match="beacon_time must be >= 0"):
            BeaconT("A", bad, F(1))
    for bad in (F(0), 0, 0.0, -F(1, 2)):
        with pytest.raises(ValueError, match="message duration must be > 0"):
            Opaque("x", bad)


def test_replaced_and_copied_values_hash_their_own_fields():
    for value in _values():
        assert hash(value) == hash(_field_tuple(value))
        for copied in (copy.copy(value), copy.deepcopy(value)):
            assert copied == value and hash(copied) == hash(value)
    r = Receive("A", F(7, 2), "B", BeaconT("B", F(1), F(1)))
    moved = dataclasses.replace(r, start=F(9, 2))
    assert hash(moved) == hash(Receive("A", F(9, 2), "B", r.msg)) == hash(_field_tuple(moved))
    with pytest.raises(ValueError, match="event start must be >= 0"):
        dataclasses.replace(r, start=F(-1))


_NON_FINITE = (math.nan, math.inf, -math.inf)


def test_non_finite_instants_and_durations_rejected_at_construction():
    """NaN and infinities fail or pass the sign tests without a word, and
    would crash the first check; every field that holds an instant or a
    duration rejects them by name."""
    msg = BeaconT("A", F(0), F(1))
    params = dict(v=F(1), v_adv=F(1), nd_range=F(10), delta_relay=F(1), msg_duration_default=F(1))
    for bad in _NON_FINITE:
        builds = {
            "event start": [
                lambda: Bcast("A", bad, msg),
                lambda: Dcast("A", bad, F(0), F(1), msg),
                lambda: Receive("B", bad, "A", msg),
                lambda: Neighbor("B", bad, "A", F(0)),
            ],
            "peer_time": [lambda: Neighbor("B", F(1), "A", bad)],
            "beacon_time": [
                lambda: BeaconT("A", bad, F(1)),
                lambda: BeaconTL("A", bad, (F(0), F(0)), F(1)),
            ],
            "message duration": [
                lambda: Opaque("x", bad),
                lambda: BeaconT("A", F(0), bad),
                lambda: BeaconTL("A", F(0), (F(0), F(0)), bad),
            ],
            "link interval start": [lambda: pair_setting(schedule=((bad, None),))],
            "link interval end": [lambda: pair_setting(schedule=((F(0), bad),))],
        }
        for name in params:
            builds[name] = [lambda name=name: SystemParams(**{**params, name: bad})]
        for name, makers in builds.items():
            for make in makers:
                with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                    make()
    # a finite float is still accepted, equal to the Fraction of its value
    assert Bcast("A", 0.5, msg) == Bcast("A", F(1, 2), msg)
    assert pair_setting(schedule=((0.5, 1.5),)) == pair_setting(schedule=((F(1, 2), F(3, 2)),))
    assert SystemParams(**{**params, "delta_relay": 0.25}).delta_relay == F(1, 4)


def test_non_finite_model_numbers_and_coordinates_rejected_by_name():
    """The adversary's relay delay, the protocol's error bounds and node
    coordinates reject NaN and infinities by name, the node's too for a
    coordinate, where a NaN would otherwise build or fail with no name;
    negative bounds keep their messages."""
    for bad in _NON_FINITE:
        builds = {
            "delta_relay": lambda: AdversaryModel(RELAY, bad),
            "delta": lambda: InaccuracyParams(bad, F(0)),
            "tau": lambda: InaccuracyParams(F(0), bad),
            "x of node 'B'": lambda: pair_setting(d=bad),
            "y of node 'B'": lambda: Setting(
                ("A", "B"), {"A": (F(0), F(0)), "B": (F(0), bad)}, dict.fromkeys("AB", CORRECT)
            ),
        }
        for name, make in builds.items():
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                make()
    with pytest.raises(ValueError, match="^delta_relay must be >= 0$"):
        AdversaryModel(RELAY, F(-1))
    for delta, tau in ((F(-1), F(0)), (F(0), F(-1))):
        with pytest.raises(ValueError, match="^delta and tau must be >= 0$"):
            InaccuracyParams(delta, tau)
    assert AdversaryModel(RELAY, 0.25).delta_relay == F(1, 4)
    assert pair_setting(d=8.0) == pair_setting()


def test_unpickled_values_hash_afresh_under_another_string_hash_seed():
    """Pickles carry fields only: a process with other string hashes
    rebuilds each value and hashes it by its own str hashes."""
    for value in _values():
        loaded = pickle.loads(pickle.dumps(value))
        assert loaded == value and hash(loaded) == hash(value)
    check = (
        "import dataclasses, pickle, sys\n"
        "values = pickle.load(sys.stdin.buffer)\n"
        "fields = lambda v: tuple(getattr(v, f.name) for f in dataclasses.fields(v))\n"
        "assert all(hash(v) == hash(fields(v)) for v in values)\n"
        "print(len(set(values)))\n"
    )
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", check],
            input=pickle.dumps(_values()),
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().strip() == str(len(_values()))


# ---------------------------------------------------------------------------
# geometry


def test_dist_pythagorean():
    s = Setting(
        nodes=("A", "B"),
        loc={"A": (F(0), F(0)), "B": (F(3), F(4))},
        node_type={"A": CORRECT, "B": CORRECT},
    )
    assert dist(s, "A", "B") == 5
    assert dist(s, "B", "A") == 5
    assert dist(s, "A", "A") == 0


def test_dist_collinear_and_irrational():
    assert dist(pair_setting(), "A", "B") == 8
    # independent floating oracle for the collinear case
    assert math.isclose(float(dist(pair_setting(), "A", "B")), math.dist((0, 0), (8, 0)))
    diag = Setting(
        nodes=("A", "B"),
        loc={"A": (F(0), F(0)), "B": (F(1), F(1))},
        node_type={"A": CORRECT, "B": CORRECT},
    )
    with pytest.raises(IrrationalDistance):
        dist(diag, "A", "B")


def test_dist_unknown_node():
    with pytest.raises(UnknownNode):
        dist(pair_setting(), "A", "Z")


def test_time_of_flight_radio_thresholds():
    c = F(300_000_000)
    params_100m = SystemParams(c, c, F(100), F(0), F(1, 10**6))
    wlan = Setting(
        nodes=("A", "B"),
        loc={"A": (F(0), F(0)), "B": (F(100), F(0))},
        node_type={"A": CORRECT, "B": CORRECT},
    )
    flight = time_of_flight(wlan, params_100m, "A", "B")
    assert flight == F(1, 3_000_000)  # exactly one third of a microsecond
    assert abs(float(flight) - 333.33e-9) < 1e-9

    wimax = Setting(
        nodes=("A", "B"),
        loc={"A": (F(0), F(0)), "B": (F(50_000), F(0))},
        node_type={"A": CORRECT, "B": CORRECT},
    )
    flight = time_of_flight(wimax, SystemParams(c, c, F(50_000), F(0), F(1)), "A", "B")
    assert flight == F(1, 6000)
    assert abs(float(flight) - 166.67e-6) < 0.5e-6

    unit = SystemParams(F(1), F(1), F(10), F(0), F(1))
    assert time_of_flight(pair_setting(), unit, "A", "B") == 8


# ---------------------------------------------------------------------------
# links


def test_self_link_always_up():
    s = pair_setting(schedule=())
    assert link_up_over(s, "A", "A", F(0), F(10**6))


def test_link_interval_coverage():
    s = pair_setting(schedule=((F(0), F(10)),))
    assert link_up_over(s, "A", "B", F(2), F(5))
    assert not link_up_over(s, "A", "B", F(9), F(11))
    assert not link_up_over(s, "A", "B", F(10), F(10))  # end is excluded
    assert link_up_over(s, "A", "B", F(0), F(0))
    assert not link_up_over(s, "B", "A", F(11), F(12))


def test_link_adjacent_phases_merge():
    s = pair_setting(schedule=((F(0), F(5)), (F(5), F(10))))
    assert link_up_over(s, "A", "B", F(2), F(7))
    assert not link_up_over(s, "A", "B", F(2), F(10))


def test_link_gap_not_covered():
    s = pair_setting(schedule=((F(0), F(5)), (F(6), None)))
    assert not link_up_over(s, "A", "B", F(4), F(7))
    assert link_up_over(s, "A", "B", F(6), F(10**9))


def test_link_declaration_validation():
    with pytest.raises(ValueError):
        pair_setting(schedule=((F(0), F(5)), (F(4), F(10))))  # overlap
    with pytest.raises(ValueError):
        pair_setting(schedule=((F(5), F(5)),))  # empty phase
    with pytest.raises(ValueError):
        Setting(
            nodes=("A",),
            loc={"A": (F(0), F(0))},
            node_type={"A": CORRECT},
            link_schedule={("A", "A"): ALWAYS},
        )


@pytest.mark.parametrize(
    "make, error, message",
    [
        (
            lambda: Setting(("A",), {}, {"A": CORRECT}),
            UnknownNode,
            "node 'A' lacks a location or type",
        ),
        (
            lambda: Setting(("A",), {"A": (F(0), F(0))}, {"A": "neutral"}),
            ValueError,
            "bad node type for 'A'",
        ),
        (
            lambda: Setting(
                ("A",), {"A": (F(0), F(0))}, {"A": CORRECT}, {("A", "Z"): ALWAYS}
            ),
            UnknownNode,
            "link ('A', 'Z') references undeclared node",
        ),
        (
            lambda: core._normalize_intervals([(F(0), None), (F(5), F(6))]),
            ValueError,
            "overlapping link intervals",
        ),
        (lambda: link_up_over(pair_setting(), "A", "B", F(2), F(1)), ValueError, "empty interval"),
        (
            lambda: project_local(Trace([]), "A", F(1), "X"),
            ValueError,
            "unknown view flavor 'X'",
        ),
        (lambda: dist(pair_setting(), "Z", "Z"), UnknownNode, "node 'Z' not in setting"),
    ],
    ids=[
        "no-location",
        "neutral-type",
        "undeclared-link-end",
        "phase-after-unbounded",
        "empty-interval",
        "unknown-flavor",
        "unknown-self-distance",
    ],
)
def test_malformed_setting_and_query_refused(make, error, message):
    """Each refusal raises its own exception type with its own message."""
    with pytest.raises(error) as raised:
        make()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_location_injectivity():
    with pytest.raises(ValueError):
        Setting(
            nodes=("A", "B"),
            loc={"A": (F(0), F(0)), "B": (F(0), F(0))},
            node_type={"A": CORRECT, "B": CORRECT},
        )


# ---------------------------------------------------------------------------
# sectors


def quad_setting(b_loc):
    return Setting(
        nodes=("A", "B"),
        loc={"A": (F(0), F(0)), "B": b_loc},
        node_type={"A": CORRECT, "B": CORRECT},
    )


def test_inrange_quarter_sector():
    s = quad_setting((F(1), F(1)))
    assert inrange(s, "A", F(0), F(1, 2), "B")  # 45 degrees inside [0, 90]
    s = quad_setting((F(-1), F(0)))
    assert not inrange(s, "A", F(0), F(1, 2), "B")  # 180 outside [0, 90]


def test_inrange_boundaries_closed():
    right = quad_setting((F(2), F(0)))
    up = quad_setting((F(0), F(3)))
    assert inrange(right, "A", F(0), F(1, 2), "B")
    assert inrange(up, "A", F(0), F(1, 2), "B")


def test_inrange_full_circle_and_apex():
    s = quad_setting((F(-5), F(7)))
    assert inrange(s, "A", F(0), F(2), "B")
    assert inrange(s, "A", F(1, 2), F(1, 4), "A")  # apex convention


def test_inrange_half_plane_excludes_opposite():
    # sector [3/2, 1/2] covers +x but not -x: used to aim at one victim
    s = quad_setting((F(4), F(0)))
    assert inrange(s, "A", F(3, 2), F(1), "B")
    s = quad_setting((F(-4), F(0)))
    assert not inrange(s, "A", F(3, 2), F(1), "B")


def test_inrange_reflex_sector():
    s = quad_setting((F(1), F(-1)))  # 315 degrees
    assert not inrange(s, "A", F(0), F(3, 2), "B")  # [0, 270] misses it
    assert inrange(s, "A", F(3, 2), F(3, 2), "B")  # [270, 180] contains it


def _fraction_rays(direction, angle):
    """A sector's rays as the Fraction rule reads them: int vectors at
    quarter turns, floats of float(Fraction) elsewhere."""

    def ray(units):
        units %= 2
        quarter = {F(0): (1, 0), F(1, 2): (0, 1), F(1): (-1, 0), F(3, 2): (0, -1)}.get(units)
        if quarter is not None:
            return quarter
        radians = math.pi * float(units)
        return (math.cos(radians), math.sin(radians))

    return ray(direction), ray(direction + angle)


def _fraction_in_sector(u, rays, angle):
    """The Fraction rule: the Fraction offset u crossed with each ray, an
    offset beyond float range scaled below 2**1000 by a power of two."""
    (e0, e1), cross = rays, lambda p, q: p[0] * q[1] - p[1] * q[0]
    try:
        if angle <= 1:
            return cross(e0, u) >= 0 and cross(u, e1) >= 0
        return not (cross(e1, u) > 0 and cross(u, e0) > 0)
    except OverflowError:
        scale = 2 ** (int(max(abs(u[0]), abs(u[1]))).bit_length() - 1000)
        return _fraction_in_sector((u[0] / scale, u[1] / scale), rays, angle)


def test_inrange_on_the_lattice_decides_as_the_fraction_rule():
    """Int offsets on the setting's lattice give every decision the Fraction
    offsets gave: quarter-turn rays exactly, the other rays from the same
    floats, beyond float range too."""
    big = 10**400
    steps = (F(1), F(3, 7), F(5, 8), F(2, 1000003), F(big + 1, 7))
    rays = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    # on the quarter- and eighth-turn rays from the apex, and off them
    offsets = {(t * x, t * y) for t in steps for x, y in rays}
    offsets |= {(F(i, 7), F(j, 8)) for i in (-9, -1, 2, 7) for j in (-8, -3, 1, 16)}
    offsets |= {(F(1), F(1) + F(1, 1000003)), (F(-5, 8), F(5, 8) - F(1, 1000003))}
    offsets |= {(F(big, 1000003), F(-big + 7, 8)), (F(-3, 7), F(big - 1, 1000003))}
    # within a part in 10**16 of the eighth-turn rays and of the ray at a
    # third of a half turn, where the rounding of the floats decides
    for m in (10**16, 10**16 + 3, 10**16 + 6):
        for den in (7, 1000003):
            offsets |= {(F(x * m, den), F(y * (m + 1), den)) for x, y in rays if x and y}
        q = math.isqrt(3 * m * m)
        offsets |= {(F(m, den), F(q + k, den)) for den in (7, 8) for k in (0, 1)}
    directions = [F(k, 8) for k in range(16)] + [F(1, 3), F(5, 7), F(1, 1000003)]
    angles = [F(k, 8) for k in range(1, 17)] + [F(2, 3), F(9, 7), F(1999999, 1000003)]
    sectors = [(d, a, _fraction_rays(d, a)) for d in directions for a in angles]
    decided = inside = 0
    for apex in ((F(0), F(0)), (F(1, 7), F(-3, 8)), (F(big, 7), F(big + 1, 8))):
        names = [f"P{i}" for i in range(len(offsets))]
        points = [(apex[0] + x, apex[1] + y) for x, y in sorted(offsets)]
        loc = dict(zip(names, points), A=apex)
        s = Setting(loc, loc, {n: CORRECT for n in loc})
        for d, a, rays_of in sectors:
            for name, (x, y) in zip(names, points):
                expected = a >= 2 or _fraction_in_sector((x - apex[0], y - apex[1]), rays_of, a)
                assert inrange(s, "A", d, a, name) == expected, (apex, (x, y), d, a)
                decided += 1
                inside += expected
    assert decided == 3 * len(sectors) * len(offsets)
    assert 0 < inside < decided


@settings(max_examples=60)
@given(
    st.fractions(min_value=0, max_value=F(2)).filter(lambda a: a < 2),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
)
def test_inrange_full_turn_covers_everything(direction, bx, by):
    if (bx, by) == (0, 0):
        return
    s = quad_setting((F(bx), F(by)))
    assert inrange(s, "A", direction, F(2), "B")


def test_sector_decisions_survive_offsets_beyond_float_range(unit_params):
    """An offset beyond float range is decided as its scaled-down copy is."""
    huge = F(10) ** 400
    cases = [
        # (direction, angle, offset, inside): rays that are not quarter turns
        (F(1, 8), F(1, 4), (1, 1), True),
        (F(1, 8), F(1, 4), (1, 0), False),
        (F(1, 8), F(1, 4), (-1, -1), False),
        (F(1, 3), F(3, 2), (1, 0), False),  # reflex
        (F(1, 3), F(3, 2), (-1, 1), True),
        (F(0), F(1, 2), (3, 4), True),  # quarter-turn rays
    ]
    for direction, angle, (x, y), inside in cases:
        small = quad_setting((F(x), F(y)))
        big = quad_setting((x * huge, y * huge))
        assert inrange(small, "A", direction, angle, "B") is inside
        assert inrange(big, "A", direction, angle, "B") is inside
    far = Setting(
        nodes=("A", "C"),
        loc={"A": (F(0), F(0)), "C": (huge, F(0))},
        node_type={"A": CORRECT, "C": ADVERSARIAL},
        link_schedule={("C", "A"): ALWAYS},
    )
    cast = Dcast("C", F(0), F(3, 4), F(1, 2), Opaque("x", F(1)))  # aimed back at A
    receptions = induced_receives([cast], far, unit_params)
    assert receptions == [Receive("A", huge, "C", cast.msg), Receive("C", F(0), "C", cast.msg)]
    assert check_setting_feasible(Trace([cast] + receptions), far, unit_params).ok


# ---------------------------------------------------------------------------
# projection


def beacon(creator="B", t=F(0), dur=F(1)):
    return BeaconT(creator, t, dur)


def test_projection_censors_incomplete_receive():
    trace = Trace([Receive("A", F(2), "B", beacon(dur=F(1)))])
    assert project_local(trace, "A", F(3)).events == frozenset()
    view = project_local(trace, "A", F(7, 2))
    assert len(view.events) == 1
    local = next(iter(view.events))
    assert local.start == 2 and not hasattr(local, "sender")


def test_projection_strict_starts():
    trace = Trace(
        [Bcast("A", F(0), beacon("A")), Neighbor("A", F(5), "B", F(1))]
    )
    view = project_local(trace, "A", F(5))
    assert {type(e).__name__ for e in view.events} == {"LocalBcast"}


def test_projection_complete_view_and_owner_filter():
    trace = Trace(
        [
            Bcast("A", F(0), beacon("A")),
            Receive("B", F(8), "A", beacon("A")),
            Neighbor("B", F(10), "A", F(8)),
        ]
    )
    view = project_local(trace, "B")
    assert len(view.events) == 2
    assert project_local(trace, "A").events == frozenset(
        {next(iter(project_local(Trace([trace.events[0]]), "A").events))}
    )


def test_projection_sender_erasure_merges_duplicates():
    msg = beacon()
    trace = Trace(
        [Receive("A", F(2), "B", msg), Receive("A", F(2), "C", msg)]
    )
    assert len(project_local(trace, "A").events) == 1


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=20), max_size=6), st.data())
def test_projection_monotone(starts, data):
    events = [Receive("A", F(s), "B", beacon(t=F(0))) for s in set(starts)]
    trace = Trace(events)
    t1 = F(data.draw(st.integers(min_value=0, max_value=25)))
    t2 = t1 + F(data.draw(st.integers(min_value=0, max_value=25)))
    early = project_local(trace, "A", t1).events
    late = project_local(trace, "A", t2).events
    assert early <= late


def test_projection_requires_setting_membership():
    trace = Trace([])
    with pytest.raises(UnknownNode):
        project_local(trace, "Z", None, "T", pair_setting())


# ---------------------------------------------------------------------------
# physical consistency


def test_honest_exchange_feasible(unit_params):
    s = pair_setting()
    msg = beacon()
    trace = Trace(
        [
            Bcast("B", F(0), msg),
            Receive("B", F(0), "B", msg),
            Receive("A", F(8), "B", msg),
        ]
    )
    assert check_setting_feasible(trace, s, unit_params).ok


def test_orphan_receive_flagged(unit_params):
    trace = Trace([Receive("B", F(5), "A", beacon("A"))])
    verdict = check_setting_feasible(trace, pair_setting(), unit_params)
    assert "receive-without-transmission" in verdict.rules()


def test_missing_self_reception_flagged(unit_params):
    s = pair_setting()
    msg = beacon()
    trace = Trace([Bcast("B", F(0), msg), Receive("A", F(8), "B", msg)])
    verdict = check_setting_feasible(trace, s, unit_params)
    assert "bcast-missing-receive" in verdict.rules()


def test_receive_with_link_down_flagged(unit_params):
    s = pair_setting(schedule=((F(0), F(4)),))
    msg = beacon()
    trace = Trace(
        [
            Bcast("B", F(0), msg),
            Receive("B", F(0), "B", msg),
            Receive("A", F(8), "B", msg),
        ]
    )
    verdict = check_setting_feasible(trace, s, unit_params)
    assert "receive-link-down" in verdict.rules()


def test_dcast_reserved_to_adversaries(unit_params):
    s = pair_setting()
    msg = Opaque("x", F(1))
    trace = Trace(
        [
            Dcast("B", F(0), F(0), F(2), msg),
            Receive("B", F(0), "B", msg),
            Receive("A", F(8), "B", msg),
        ]
    )
    verdict = check_setting_feasible(trace, s, unit_params)
    assert "dcast-by-correct-node" in verdict.rules()


def test_ambiguous_source_flagged(unit_params):
    s = triangle_setting()
    msg = Opaque("x", F(1))
    sends = [Bcast("C", F(0), msg), Dcast("C", F(0), F(0), F(2), msg)]
    trace = Trace(sends + induced_receives(sends, s, unit_params))
    verdict = check_setting_feasible(trace, s, unit_params)
    assert "receive-ambiguous-source" in verdict.rules()


def test_coverage_visits_only_linked_receivers(unit_params, monkeypatch):
    # eight nodes along a line; the caster D has declared links to C and E only
    names = "ABCDEFGH"
    chain = {(a, b): ALWAYS for a, b in zip(names, names[1:]) if "D" not in (a, b)}
    s = Setting(
        names,
        {n: (F(3 * i), F(0)) for i, n in enumerate(names)},
        {n: ADVERSARIAL if n == "D" else CORRECT for n in names},
        {**chain, ("D", "C"): ALWAYS, ("D", "E"): ((F(0), F(2)),)},
    )
    visited = []

    def counting(setting, a, direction, angle, b):
        visited.append(b)
        return inrange(setting, a, direction, angle, b)

    monkeypatch.setattr(core, "inrange", counting)
    msg = Opaque("x", F(1))
    cast = Dcast("D", F(0), F(1, 3), F(3, 2), msg)  # reflex: covers C, not E
    assert induced_receives([cast], s, unit_params) == [
        Receive("C", F(3), "D", msg),
        Receive("D", F(0), "D", msg),
    ]
    assert sorted(visited) == ["C", "D", "E"]
    expected = [f"{n} is covered with the link up but no matching reception" for n in "CD"]
    # the setting's coverage memo already holds the cast: nothing is visited again
    visited.clear()
    verdict = check_setting_feasible(Trace([cast]), s, unit_params)
    assert visited == []
    assert [v.detail for v in verdict.violations] == expected
    # an equal setting starts with empty memos and visits the linked receivers only
    fresh = Setting(s.nodes, s.loc, s.node_type, s.link_schedule)
    verdict = check_setting_feasible(Trace([cast]), fresh, unit_params)
    assert sorted(visited) == ["C", "D", "E"]
    assert [v.detail for v in verdict.violations] == expected


def test_each_transmission_covered_once_per_setting(unit_params, monkeypatch):
    """Induced receptions, a check and a check of a mutant share the setting's coverage memo."""
    # along the 3-4-5 slope at 0, 1, 3 and 7; B -> D is up only before B's beacon arrives
    names = "ABCD"
    links = {(a, b): ALWAYS for a in names for b in names if a != b}
    s = Setting(
        names,
        {n: (F(3 * k), F(4 * k)) for n, k in zip(names, (0, 1, 3, 7))},
        {n: ADVERSARIAL if n in "CD" else CORRECT for n in names},
        {**links, ("B", "D"): ((F(0), F(2)),)},
    )
    windows = []
    up = core._Physics.up

    def counting(phys, a, b, t0, t1):
        windows.append((a, b, t0))
        return up(phys, a, b, t0, t1)

    monkeypatch.setattr(core._Physics, "up", counting)
    msg = beacon("A")
    sends = [
        Bcast("A", F(0), msg),
        Bcast("B", F(1), beacon("B", F(1))),
        Dcast("C", F(20), F(0), F(1, 2), msg),  # the quarter towards D only
    ]
    receives = induced_receives(sends, s, unit_params)
    # one window per transmission and reached node: four, four and two
    assert len(windows) == len(set(windows)) == 10
    assert len(receives) == 9  # B's beacon is not received at D
    trace = Trace(sends + receives)
    assert check_setting_feasible(trace, s, unit_params).ok
    dropped = Receive("D", F(40), "C", msg)
    mutant = Trace(e for e in trace if e != dropped)
    verdict = check_setting_feasible(mutant, s, unit_params)
    assert [(v.rule, v.events) for v in verdict.violations] == [
        ("dcast-missing-receive", (sends[2],))
    ]
    assert len(windows) == 10


def test_each_pair_square_root_taken_once_per_setting(unit_params, monkeypatch):
    """Physics, induced receptions and the adversary check share the setting's root memo."""
    # along the 3-4-5 slope at 0, 1, 3 and 7: six pairs, six different rational distances
    names = "ABCD"
    s = Setting(
        names,
        {n: (F(3 * k), F(4 * k)) for n, k in zip(names, (0, 1, 3, 7))},
        {n: ADVERSARIAL if n in "CD" else CORRECT for n in names},
        {(a, b): ALWAYS for a in names for b in names if a != b},
    )
    roots = []
    take_root = core._take_root

    def counting(coords, a, b):
        roots.append(frozenset((a, b)))
        return take_root(coords, a, b)

    monkeypatch.setattr(core, "_take_root", counting)
    msg = beacon("A")
    sends = [
        Bcast("A", F(0), msg),
        Bcast("B", F(1), beacon("B", F(1))),
        Dcast("D", F(40), F(0), F(2), msg),  # relays what C received at 15
    ]
    trace = Trace(sends + induced_receives(sends, s, unit_params))
    for _ in range(2):
        assert check_setting_feasible(trace, s, unit_params).ok
        induced_receives(sends, s, unit_params)
        model = AdversaryModel(RELAY, unit_params.delta_relay)
        assert check_adversary_feasible(trace, s, unit_params, model).ok
    assert len(roots) == len(set(roots)) == 6


def test_each_sector_and_flight_time_decided_once_per_setting(unit_params, monkeypatch):
    """Physics, induced receptions and the adversary check share the setting's
    coverage and root memos."""
    # along the 3-4-5 slope at 0, 1, 3 and 7: A and B lie at 233 degrees from D
    names = "ABCD"

    def line():
        return Setting(
            names,
            {n: (F(3 * k), F(4 * k)) for n, k in zip(names, (0, 1, 3, 7))},
            {n: ADVERSARIAL if n in "CD" else CORRECT for n in names},
            {(a, b): ALWAYS for a in names for b in names if a != b},
        )

    s = line()
    decided, rooted = [], []
    in_sector, take_root = core._in_sector, core._take_root

    def deciding(u, c, sector):
        decided.append((u, c, sector))
        return in_sector(u, c, sector)

    def rooting(coords, a, b):
        rooted.append(frozenset((a, b)))
        return take_root(coords, a, b)

    monkeypatch.setattr(core, "_in_sector", deciding)
    monkeypatch.setattr(core, "_take_root", rooting)
    msg = beacon("A")
    sends = [
        Bcast("A", F(0), msg),
        Bcast("B", F(1), beacon("B", F(1))),
        Dcast("C", F(30), F(1, 8), F(1, 4), msg),  # covers D only
        Dcast("D", F(40), F(1), F(1, 2), msg),  # quarter-turn rays: covers A, B and C
        Dcast("D", F(50), F(5, 4), F(1, 8), msg),  # other rays: covers A, B and C
    ]
    receptions = induced_receives(sends, s, unit_params)
    trace = Trace(sends + receptions)
    for _ in range(2):
        assert check_setting_feasible(trace, s, unit_params).ok
        assert induced_receives(sends, s, unit_params) == receptions
        model = AdversaryModel(RELAY, unit_params.delta_relay)
        assert check_adversary_feasible(trace, s, unit_params, model).ok
    casts = [e for e in sends if isinstance(e, Dcast)]
    # integer coordinates: the lattice is the plane's own, c = 1
    lattice = {n: (3 * k, 4 * k) for n, k in zip(names, (0, 1, 3, 7))}
    offsets = {
        (a, b): (lattice[b][0] - lattice[a][0], lattice[b][1] - lattice[a][1])
        for a in names
        for b in names
    }
    asked = [
        (offsets[e.actor, n], 1, e.direction.as_integer_ratio() + e.angle.as_integer_ratio())
        for e in casts
        for n in names
        if n != e.actor
    ]
    assert sorted(decided) == sorted(asked)
    assert [e.actor for e in receptions if e.sender == "C"] == ["C", "D"]
    # a node's flight time to itself is 0 and takes no root
    assert sorted(rooted, key=sorted) == sorted(
        {frozenset((r.sender, r.actor)) for r in receptions if r.sender != r.actor}, key=sorted
    )
    assert s == line()  # the memos are not part of the value


@pytest.fixture
def flight_reads(monkeypatch):
    """The (a, b) pairs read, in order, from every reader flight_ticks returns."""
    reads = []
    flight_ticks = core.flight_ticks

    def counting(*args, **kwargs):
        read = flight_ticks(*args, **kwargs)

        def counted(a, b):
            reads.append((a, b))
            return read(a, b)

        return counted

    monkeypatch.setattr(core, "flight_ticks", counting)
    return reads


def slope_setting(scale=F(1)):
    """A, B, C and D along the 3-4-5 slope at 0, 1, 3 and 7 times scale,
    every link up; C and D adversarial."""
    names = "ABCD"
    return Setting(
        names,
        {n: (3 * k * scale, 4 * k * scale) for n, k in zip(names, (0, 1, 3, 7))},
        {n: ADVERSARIAL if n in "CD" else CORRECT for n in names},
        {(a, b): ALWAYS for a in names for b in names if a != b},
    )


def test_physics_reads_each_flight_once_per_check(unit_params, flight_reads):
    """One check_setting_feasible call reads each ordered node pair's flight
    at most once, from the reader flight_ticks returns, in either mode;
    each call reads afresh, over its own ticks."""
    s, reads = slope_setting(), flight_reads
    sends = [Bcast(n, F(k), beacon(n, F(k))) for k in range(4) for n in s.nodes]
    sends.append(Dcast("D", F(40), F(1), F(1, 2), beacon("A")))
    receptions = induced_receives(sends, s, unit_params)
    # an unmatched reception is matched by a scan, which reads its flight too
    stray = Receive("A", F(99), "B", beacon("B"))
    trace = Trace(sends + receptions + [stray])
    for num in (core.EXACT, approx_num(F(1, 1000))):
        for _ in range(2):
            reads.clear()
            verdict = check_setting_feasible(trace, s, unit_params, num)
            assert verdict.rules() == {"receive-without-transmission"}
            assert reads and len(reads) == len(set(reads))
            # exact mode reads a covered receiver's flight from its kept root:
            # only the stray reception's scan reads one
            assert not num.exact or reads == [("B", "A")]


def test_warm_exact_pass_reads_no_flight(flight_reads):
    """A covered receiver's flight is its kept root times the pass's scale,
    so exact passes over transmissions whose coverage is kept read no flight,
    here with v = 3/2 and coordinates in sevenths, where the scale is not
    the pass's D: checks of a feasible trace, and induced_receives again."""
    params = SystemParams(F(3, 2), F(3, 2), F(10), F(1), F(1))
    s = slope_setting(F(1, 7))
    sends = [Bcast(n, F(k, 3), beacon(n, F(k, 3))) for k in range(3) for n in s.nodes]
    sends.append(Dcast("D", F(9), F(1), F(1, 2), beacon("A")))
    receptions = induced_receives(sends, s, params)
    trace = Trace(sends + receptions)
    for _ in range(2):
        flight_reads.clear()
        assert check_setting_feasible(trace, s, params).ok
        assert flight_reads == []
    assert induced_receives(sends, s, params) == receptions
    assert flight_reads == []


def test_induced_receives_refuses_an_irrational_pair_over_a_down_link(unit_params):
    """A covered pair at distance sqrt 2 raises in induced_receives though its
    link is down when the signal arrives, both on a fresh setting and where
    an approximate check kept the broadcast's coverage."""
    msg = Opaque("m", F(1))
    sends = [Bcast("A", F(0), msg)]
    heard = Trace(sends + [Receive("A", F(0), "A", msg)])
    for warm in (False, True):
        s = Setting(
            "AB",
            {"A": (F(0), F(0)), "B": (F(1), F(1))},
            {"A": CORRECT, "B": CORRECT},
            {("A", "B"): ((F(0), F(1, 2)),)},
        )
        if warm:
            assert check_setting_feasible(heard, s, unit_params, approx_num(F(1, 1000))).ok
        with pytest.raises(IrrationalDistance):
            induced_receives(sends, s, unit_params)


def test_induced_receives_rejects_unknown_sender(unit_params):
    s = pair_setting()
    msg = Opaque("x", F(1))
    for send in (Bcast("Z", F(0), msg), Dcast("Z", F(0), F(0), F(1), msg)):
        with pytest.raises(UnknownNode):
            induced_receives([send], s, unit_params)


def test_unknown_actor_flagged(unit_params):
    trace = Trace([Bcast("Z", F(0), beacon("Z"))])
    verdict = check_setting_feasible(trace, pair_setting(), unit_params)
    assert "unknown-node" in verdict.rules()


def test_checker_order_independent(unit_params):
    s = triangle_setting()
    msg = beacon()
    sends = [Bcast("B", F(0), msg), Dcast("C", F(6), F(1, 2), F(1), msg)]
    receives = induced_receives(sends, s, unit_params)
    forward = Trace(sends + receives)
    backward = Trace(list(reversed(receives)) + list(reversed(sends)))
    assert forward == backward
    assert (
        check_setting_feasible(forward, s, unit_params).violations
        == check_setting_feasible(backward, s, unit_params).violations
    )


def test_trace_canonical_order_and_dedup():
    msg = beacon()
    e1 = Bcast("B", F(0), msg)
    e2 = Receive("A", F(8), "B", msg)
    assert Trace([e2, e1, e1]).events == (e1, e2)


def test_trace_build_and_read_hash_no_event(monkeypatch, unit_params):
    """Trace construction orders and deduplicates by order key, and the
    trace reader builds its events from memoized fields: neither calls
    an event's __hash__, however many repeats the input holds."""
    from ndcheck.scenario import dump_trace, parse_trace

    s = triangle_setting()
    sends = [
        Bcast("A", F(0), beacon("A")),
        Dcast("B", F(1, 3), F(1, 2), F(3, 2), beacon("B", F(1, 3))),
        Bcast("C", F(2), Opaque("tok", F(1, 2))),
    ]
    declared = [Neighbor(n, F(9), "A", F(0)) for n in s.nodes]
    events = sends + induced_receives(sends, s, unit_params) + declared
    repeated = events + [dataclasses.replace(e) for e in events] + pickle.loads(pickle.dumps(events))
    hashed = []
    for cls in (Bcast, Dcast, Receive, Neighbor):
        monkeypatch.setattr(cls, "__hash__", lambda e, kept=cls.__hash__: hashed.append(e) or kept(e))
    trace = Trace(repeated[::-1])
    text = dump_trace(trace)
    assert parse_trace(text + text) == trace and len(trace) == len(events)
    assert hashed == []
    assert events[0] in trace and hashed == []
    hash(events[0])  # the counter is live
    assert hashed == [events[0]]


_starts = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0, max_value=3, allow_nan=False, allow_infinity=False),
    st.fractions(min_value=0, max_value=3, max_denominator=4),
    # distinct values that round to one float
    st.integers(min_value=-2, max_value=2).map(lambda k: 1 + F(k, 10**20)),
    # beyond float range
    st.integers(min_value=0, max_value=2).map(lambda k: 10**400 + k),
    st.integers(min_value=1, max_value=3).map(lambda k: F(10**401, k)),
)
_names = st.sampled_from("AB")
_sort_events = st.one_of(
    st.builds(Bcast, _names, _starts, st.builds(beacon, _names)),
    st.builds(
        Dcast, _names, _starts, st.just(F(0)), st.sampled_from((F(1), F(2))), st.just(beacon())
    ),
    st.builds(Receive, _names, _starts, _names, st.builds(beacon, _names)),
    st.builds(Neighbor, _names, _starts, _names, st.sampled_from((F(0), F(1)))),
)


@settings(max_examples=200)
@given(st.lists(_sort_events, max_size=12), st.randoms())
def test_trace_order_is_the_sort_key_order(events, rng):
    """The float-prefixed sort gives exactly the sort_key() order, for any input order."""
    expected = tuple(sorted(set(events), key=lambda e: e.sort_key()))
    rng.shuffle(events)
    assert Trace(events).events == expected


def _float_or_inf(start):
    try:
        return float(start)
    except OverflowError:
        return math.inf


def test_order_key_is_the_float_start_then_the_sort_key():
    """The kept order key is float(start), or inf beyond float range,
    followed by sort_key(), for Fraction, int and float starts."""
    msg = beacon("A")
    starts = [F(7, 3), F(0), 5, 0, 2.5, 0.1, 10**400, F(10**401, 3), 1 + F(1, 10**20)]
    for start in starts:
        for e in (
            Bcast("A", start, msg),
            Dcast("A", start, F(1, 4), F(1, 2), msg),
            Receive("B", start, "A", msg),
            Neighbor("B", start, "A", F(0)),
        ):
            key = core._order_key(e)
            assert key == (_float_or_inf(e.start), *e.sort_key())
            assert type(key[0]) is float and core._order_key(e) is key
    # distinct starts that round to one float keep their sort_key() order
    close = [Bcast("A", 1 + F(k, 10**20), msg) for k in (2, -1, 1, 0)]
    assert len({core._order_key(e)[0] for e in close}) == 1
    assert Trace(close).events == tuple(sorted(close, key=lambda e: e.sort_key()))
    huge = [Neighbor("B", 10**400 + k, "A", F(0)) for k in (1, 0)]
    assert Trace(huge).events == tuple(huge[::-1])


_BELOW_TWO = F(2) - F(1, 10**30)
_ABOVE_TWO = F(2) + F(1, 10**30)
_DIRECTION_ERROR = "direction must be in [0, 2) (units of pi)"
_ANGLE_ERROR = "angle must be in (0, 2] (units of pi)"


@pytest.mark.parametrize(
    "values, direction_error, angle_error",
    [
        ((F(0), 0, 0.0), None, _ANGLE_ERROR),
        ((F(2), 2, 2.0), _DIRECTION_ERROR, None),
        ((_BELOW_TWO, 1, math.nextafter(2.0, 0)), None, None),
        ((_ABOVE_TWO, 3, math.nextafter(2.0, 3)), _DIRECTION_ERROR, _ANGLE_ERROR),
        ((F(-1, 3), -1, -0.5), _DIRECTION_ERROR, _ANGLE_ERROR),
        (_NON_FINITE, _DIRECTION_ERROR, _ANGLE_ERROR),
    ],
    ids=["zero", "two", "below-two", "above-two", "negative", "non-finite"],
)
def test_dcast_direction_and_angle_ranges(values, direction_error, angle_error):
    """Direction is in [0, 2) and angle in (0, 2], decided on integer ratios
    for Fraction, int and float values alike."""
    msg = beacon("A")
    for value in values:
        for error, make in (
            (direction_error, lambda: Dcast("A", F(0), value, F(1), msg)),
            (angle_error, lambda: Dcast("A", F(0), F(0), value, msg)),
        ):
            if error is None:
                make()
            else:
                with pytest.raises(ValueError) as raised:
                    make()
                assert str(raised.value) == error


# ---------------------------------------------------------------------------
# approximate mode


def diagonal_setting():
    """A at (0, 0) and B at (1, 1): sqrt(2) apart, an irrational distance."""
    return Setting(
        nodes=("A", "B"),
        loc={"A": (F(0), F(0)), "B": (F(1), F(1))},
        node_type={"A": CORRECT, "B": CORRECT},
        link_schedule={("A", "B"): ALWAYS, ("B", "A"): ALWAYS},
    )


def test_approx_mode_handles_irrational_distances(unit_params):
    from ndcheck import approx_num

    diagonal = diagonal_setting()
    with pytest.raises(IrrationalDistance, match="^2 is not a rational square$"):
        dist(diagonal, "A", "B")
    num = approx_num(F(1, 10**9))
    msg = beacon()
    arrival = F(1414213562373095, 10**15)  # sqrt(2) to 16 digits
    trace = Trace(
        [
            Bcast("B", F(0), msg),
            Receive("B", F(0), "B", msg),
            Receive("A", arrival, "B", msg),
        ]
    )
    assert check_setting_feasible(trace, diagonal, unit_params, num).ok
    coarse = Trace(
        [
            Bcast("B", F(0), msg),
            Receive("B", F(0), "B", msg),
            Receive("A", F(1414, 1000), "B", msg),
        ]
    )
    verdict = check_setting_feasible(coarse, diagonal, unit_params, num)
    assert "receive-without-transmission" in verdict.rules()
    assert check_setting_feasible(
        coarse, diagonal, unit_params, approx_num(F(1, 100))
    ).ok


# sqrt(2) to 16 digits, 4.9e-17 below it, and to 4 digits, 1.4e-5 above it
_SQRT2_BELOW, _SQRT2_COARSE = F(1414213562373095, 10**15), F(14143, 10**4)


def test_approx_mode_decides_the_diagonal_without_float_roots(unit_params, monkeypatch):
    """Physics, the direct pgt route and the relay rule decide a sqrt(2)
    distance with math.sqrt unusable: every comparison is in integers, and
    a window wider than the distance to sqrt(2) is exactly what accepts."""
    from ndcheck import approx_num, check_pgt_feasible

    def no_float_root(x):
        raise AssertionError("math.sqrt called")

    monkeypatch.setattr(math, "sqrt", no_float_root)
    fine, loose, zero = approx_num(F(1, 10**9)), approx_num(F(1, 10**4)), approx_num(F(0))
    diagonal = diagonal_setting()
    msg = BeaconTL("B", F(0), (F(1), F(1)), F(1))
    for arrival, accepted_by in ((_SQRT2_BELOW, (fine, loose)), (_SQRT2_COARSE, (loose,))):
        trace = Trace(
            [
                Bcast("B", F(0), msg),
                Receive("B", F(0), "B", msg),
                Receive("A", arrival, "B", msg),
                Neighbor("A", arrival + 2, "B", arrival),
            ]
        )
        for num in (fine, loose, zero):
            physics = check_setting_feasible(trace, diagonal, unit_params, num)
            pgt = check_pgt_feasible(trace, diagonal, unit_params, None, num)
            if num in accepted_by:
                assert physics.ok and pgt.ok, (arrival, num)
            else:
                assert physics.rules() == {"receive-without-transmission", "bcast-missing-receive"}
                assert pgt.rules() == {"neighbor-unjustified"}
    # A relays C's message from B's reception, over a sqrt(2) channel
    relays = Setting(
        nodes=("A", "B", "C"),
        loc={"A": (F(0), F(0)), "B": (F(1), F(1)), "C": (F(1), F(0))},
        node_type={"A": ADVERSARIAL, "B": ADVERSARIAL, "C": CORRECT},
    )
    model = AdversaryModel(RELAY, unit_params.delta_relay)
    heard = Receive("B", F(1), "C", msg)
    for gap, accepted_by in ((_SQRT2_BELOW, (fine, loose)), (_SQRT2_COARSE, (fine, loose, zero))):
        cast = Dcast("A", heard.start + unit_params.delta_relay + gap, F(0), F(2), msg)
        trace = Trace([Bcast("C", F(0), msg), heard, cast])
        for num in (fine, loose, zero):
            verdict = check_adversary_feasible(trace, relays, unit_params, model, num)
            assert verdict.ok == (num in accepted_by), (gap, num)


def test_projection_tl_requires_setting():
    from ndcheck import FlavorMismatch, TL_FLAVOR

    with pytest.raises(FlavorMismatch):
        project_local(Trace([]), "A", None, TL_FLAVOR, None)
