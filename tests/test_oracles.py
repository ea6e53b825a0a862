"""Differential checks of the core predicates against brute-force oracles."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ndcheck import (
    CORRECT,
    DY_T,
    Receive,
    Setting,
    Trace,
    check_setting_feasible,
    inrange,
    link_up_over,
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
