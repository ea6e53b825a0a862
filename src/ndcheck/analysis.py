"""Closed-form security boundaries and parameter sweeps.

Quantities derived from the system parameters alone:

- the relaying-delay threshold below which the time-stamped protocol is
  attackable (range divided by signal speed),
- the largest victim separation a single in-band relay can bridge
  (range minus speed times delay, clamped at zero),
- the same for a two-ended wormhole with a faster adversary channel
  (scaled by the speed ratio),
- the effective range under time-measurement error,
- whether the slack-tolerant time+location protocol is attackable
  (delay strictly below twice the combined error bound).

Sweeps recompute the closed forms row by row and cross-check them
against the constructive attack synthesizer, which is the oracle tie
between the two halves of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .attacks import (
    PlacementInfeasible,
    SINGLE_RELAY,
    WORMHOLE,
    default_wormhole_placement,
    plan_relay_attack,
)
from .core import SystemParams
from .protocols import InaccuracyParams, PT
from .rational import format_scalar


@dataclass(frozen=True)
class BoundaryReport:
    """Closed-form boundaries at one parameter set.

    pgt_vulnerable is delta_relay < 2*(delta + tau), strict, while the
    attack construction builds the pgt-approx relay at equality too
    (``attacks.build_attack_settings`` takes delta_relay <= 2*(delta + tau)
    for a relay on the segment): exactly at the boundary this field reads
    False for an attack that is built.
    """

    pt_threshold: Fraction
    single_relay_max_dist: Fraction
    wormhole_max_dist: Fraction
    pt_effective_range: Fraction
    pgt_vulnerable: bool


def compute_boundaries(
    params: SystemParams, inacc: Optional[InaccuracyParams] = None
) -> BoundaryReport:
    ia = inacc or InaccuracyParams()
    headroom = params.nd_range - params.v * params.delta_relay
    single = max(Fraction(0), headroom)
    return BoundaryReport(
        pt_threshold=params.nd_range / params.v,
        single_relay_max_dist=single,
        wormhole_max_dist=(params.v_adv / params.v) * single,
        pt_effective_range=params.nd_range + params.v * ia.delta,
        pgt_vulnerable=params.delta_relay < 2 * ia.window,
    )


def _attack_flag(params: SystemParams, variant: str) -> bool:
    """Does the canonical attack construction go through at these parameters?

    Canonical means: honest distance equal to the discovery range and the
    default placement (for wormholes, reaching for half the amplified
    bound so the flag tracks the amplified headroom).
    """
    try:
        if variant == WORMHOLE:
            bound = compute_boundaries(params).wormhole_max_dist
            if bound <= 0:
                return False
            placement = default_wormhole_placement(
                params.nd_range, params, PT, b_x=bound / 2
            )
            plan_relay_attack(params.nd_range, params, PT, WORMHOLE, placement)
        else:
            plan_relay_attack(params.nd_range, params, PT, SINGLE_RELAY)
        return True
    except PlacementInfeasible:
        return False


@dataclass(frozen=True)
class SweepRow:
    varied: str
    value: Fraction
    report: BoundaryReport
    single_relay_attack: bool
    wormhole_attack: bool


_SWEEPABLE = ("delta_relay", "v_adv", "nd_range")


def sweep_values(start: Fraction, stop: Fraction, step: Fraction) -> list[Fraction]:
    """Inclusive rational grid from start to stop."""
    if step <= 0:
        raise ValueError("step must be > 0")
    if stop < start:
        raise ValueError("empty range: stop precedes start")
    values = []
    current = start
    while current <= stop:
        values.append(current)
        current += step
    return values


def sweep(
    params: SystemParams,
    varied: str,
    values: Sequence[Fraction],
    inacc: Optional[InaccuracyParams] = None,
) -> list[SweepRow]:
    if varied not in _SWEEPABLE:
        raise ValueError(f"cannot sweep {varied!r}; one of {_SWEEPABLE}")
    rows = []
    for value in values:
        row_params = replace(params, **{varied: value})
        rows.append(
            SweepRow(
                varied=varied,
                value=value,
                report=compute_boundaries(row_params, inacc),
                single_relay_attack=_attack_flag(row_params, SINGLE_RELAY),
                wormhole_attack=_attack_flag(row_params, WORMHOLE),
            )
        )
    return rows


_COLUMNS = (
    "pt_threshold",
    "single_relay_max_dist",
    "wormhole_max_dist",
    "pt_effective_range",
)


def render_table(rows: Sequence[SweepRow]) -> str:
    """Tab-separated table; every rational appears exactly and as a decimal."""
    header = ["param", "value", "value_float"]
    for column in _COLUMNS:
        header += [column, f"{column}_float"]
    header += ["pgt_vulnerable", "single_relay_attack", "wormhole_attack"]
    lines = ["\t".join(header)]
    for row in rows:
        cells = [row.varied, format_scalar(row.value), _dec(row.value)]
        for column in _COLUMNS:
            value = getattr(row.report, column)
            cells += [format_scalar(value), _dec(value)]
        cells += [
            _yesno(row.report.pgt_vulnerable),
            _yesno(row.single_relay_attack),
            _yesno(row.wormhole_attack),
        ]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def _dec(x: Fraction) -> str:
    return format(float(x), ".12g")


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"
