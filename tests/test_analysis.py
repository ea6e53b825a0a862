import time
from dataclasses import replace
from fractions import Fraction

import pytest

from ndcheck import (
    InaccuracyParams,
    PT,
    PlacementInfeasible,
    SINGLE_RELAY,
    SystemParams,
    WORMHOLE,
    compute_boundaries,
    plan_relay_attack,
    render_table,
    sweep,
    sweep_values,
    verify_attack_plan,
)
from ndcheck import analysis
from ndcheck.attacks import default_wormhole_placement

F = Fraction
C = F(300_000_000)


def test_radio_thresholds():
    report = compute_boundaries(SystemParams(C, C, F(100), F(0), F(1)))
    assert report.pt_threshold == F(1, 3_000_000)  # 333.3 ns
    assert abs(float(report.pt_threshold) - 333.33e-9) < 1e-9
    report = compute_boundaries(SystemParams(C, C, F(50_000), F(0), F(1)))
    assert report.pt_threshold == F(1, 6000)  # about 166 us
    assert abs(float(report.pt_threshold) - 166.67e-6) < 0.5e-6


def test_boundary_fields(unit_params):
    report = compute_boundaries(unit_params)
    assert report.single_relay_max_dist == 9
    assert report.wormhole_max_dist == 9
    assert report.pt_effective_range == 10
    assert not report.pgt_vulnerable  # zero window, positive delay


def test_boundary_clamping():
    params = SystemParams(F(1), F(2), F(10), F(10), F(1))
    report = compute_boundaries(params)
    assert report.single_relay_max_dist == 0
    assert report.wormhole_max_dist == 0
    over = SystemParams(F(1), F(2), F(10), F(15), F(1))
    assert compute_boundaries(over).single_relay_max_dist == 0


def test_boundary_inaccuracy_fields(unit_params):
    inacc = InaccuracyParams(F(1, 4), F(1, 8))
    report = compute_boundaries(unit_params, inacc)
    assert report.pt_effective_range == unit_params.nd_range + F(1, 4)
    assert not report.pgt_vulnerable  # delta_relay 1 >= 2*(3/8)
    close = SystemParams(F(1), F(1), F(10), F(1, 2), F(1))
    assert compute_boundaries(close, inacc).pgt_vulnerable  # 1/2 < 3/4


def test_amplification_identity(unit_params):
    for ratio in (F(1), F(2), F(10)):
        params = SystemParams(F(1), ratio, F(10), F(3), F(1))
        report = compute_boundaries(params)
        assert report.wormhole_max_dist == ratio * report.single_relay_max_dist


def test_sweep_values():
    assert sweep_values(F(0), F(1), F(1, 4)) == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    assert sweep_values(F(2), F(2), F(1)) == [F(2)]
    with pytest.raises(ValueError):
        sweep_values(F(1), F(0), F(1, 4))
    with pytest.raises(ValueError):
        sweep_values(F(0), F(1), F(0))


def test_sweep_values_refuse_a_count_over_the_bound():
    """The row count is worked out before any value is built: a grid of
    exactly MAX_SWEEP_ROWS values is built, one more row is refused."""
    bound = analysis.MAX_SWEEP_ROWS
    values = sweep_values(F(1, 2), F(bound, 2), F(1, 2))
    assert len(values) == bound and values[-1] == F(bound, 2)
    with pytest.raises(ValueError) as refused:
        sweep_values(F(1, 2), F(bound + 1, 2), F(1, 2))
    assert str(refused.value) == f"sweep of {bound + 1} rows, over the bound of {bound}"


# the oracle test below tries 2,744 constructions and checks 112 built attacks
# (about 1.5 s on Python 3.11); it must take this long at most
SWEEP_ORACLE_BUDGET_S = 20


def _canonical_plan(params, variant):
    """The canonical pt attack a sweep flag stands for, or None where the
    construction refuses it: honest distance nd_range, the default
    placement, and for a wormhole B at half the amplified bound."""
    try:
        placement = None
        if variant == WORMHOLE:
            b_x = compute_boundaries(params).wormhole_max_dist / 2
            placement = default_wormhole_placement(params.nd_range, params, PT, b_x=b_x)
        return plan_relay_attack(params.nd_range, params, PT, variant, placement)
    except PlacementInfeasible:
        return None


def test_sweep_oracle_agreement():
    """Both sweep flags, read from the closed forms, equal the outcome of
    the attack construction row by row, and every attack built within 1/4
    of the flip passes the whole checker stack.

    Grid: v in {1, 3/2}, v_adv/v in {1, 3/2, 2, 3}; delta_relay on a 1/4
    grid up to R/v + 1 plus R/v and R/v +- 1/1000 for R in {5, 10, 12};
    nd_range on a 1/4 grid from 1/4 to 15 at delta_relay = 2."""
    start = time.perf_counter()
    rows = verified = 0
    for v in (F(1), F(3, 2)):
        for ratio in (F(1), F(3, 2), F(2), F(3)):
            axes = []
            for nd_range in (F(5), F(10), F(12)):
                flip = nd_range / v
                eps = F(1, 1000)
                values = sorted({*sweep_values(F(0), flip + 1, F(1, 4)), flip - eps, flip, flip + eps})
                params = SystemParams(v, ratio * v, nd_range, F(0), F(1))
                axes.append((params, "delta_relay", values, flip))
            params = SystemParams(v, ratio * v, F(1), F(2), F(1))
            axes.append((params, "nd_range", sweep_values(F(1, 4), F(15), F(1, 4)), 2 * v))
            for params, varied, values, flip in axes:
                for row in sweep(params, varied, values):
                    row_params = replace(params, **{varied: row.value})
                    for variant, flag in (
                        (SINGLE_RELAY, row.single_relay_attack),
                        (WORMHOLE, row.wormhole_attack),
                    ):
                        plan = _canonical_plan(row_params, variant)
                        assert flag == (plan is not None), (varied, row.value, variant, row_params)
                        if plan is not None and abs(row.value - flip) <= F(1, 4):
                            verdicts = verify_attack_plan(plan, row_params)
                            for key in ("setting_honest", "setting_attack", "protocol_honest",
                                        "protocol_attack", "adversary_relay", "correctness_honest"):
                                assert verdicts[key].ok, (key, row.value, variant, row_params)
                            assert verdicts["views_equal"]
                            assert len(verdicts["correctness_attack"].violations) == 1
                            verified += 1
                    rows += 1
    elapsed = time.perf_counter() - start
    assert (rows, verified) == (1372, 112)
    assert elapsed < SWEEP_ORACLE_BUDGET_S


def test_sweep_monotonicity(unit_params):
    rows = sweep(unit_params, "delta_relay", sweep_values(F(0), F(12), F(1, 2)))
    dists = [row.report.single_relay_max_dist for row in rows]
    assert all(a >= b for a, b in zip(dists, dists[1:]))
    rows = sweep(unit_params, "v_adv", sweep_values(F(1), F(5), F(1)))
    worms = [row.report.wormhole_max_dist for row in rows]
    assert all(a <= b for a, b in zip(worms, worms[1:]))
    assert worms[-1] == 5 * worms[0]


def test_sweep_empty_and_single(unit_params):
    assert sweep(unit_params, "delta_relay", []) == []
    assert len(sweep(unit_params, "delta_relay", [F(1)])) == 1
    with pytest.raises(ValueError):
        sweep(unit_params, "msg_duration_default", [F(1)])


def test_render_table_deterministic(unit_params):
    rows = sweep(unit_params, "delta_relay", sweep_values(F(0), F(2), F(1)))
    text = render_table(rows)
    assert text == render_table(rows)
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("param\tvalue\t")
    assert "1/3" not in lines[0]
