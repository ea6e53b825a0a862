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

Sweeps recompute the closed forms row by row and read both attack
flags from them. The constructive attack synthesizer is their oracle:
the tests and CI build the canonical pt attack at every row they check
and compare.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Context, Decimal
from fractions import Fraction
from typing import Optional, Sequence

from .core import SystemParams
from .protocols import InaccuracyParams
from .rational import echo, format_scalar

# the most rows a sweep may ask for; the largest sweep in the tests, demos
# and benchmark has 161
MAX_SWEEP_ROWS = 100_000


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


@dataclass(frozen=True)
class SweepRow:
    """One sweep row: the closed forms at one value of the varied
    parameter, and whether the canonical pt attack is built there.

    Canonical means the honest distance equal to nd_range and the default
    placement; for a wormhole, B at half the amplified bound. Each flag is
    exactly its bound's sign, with h = nd_range - v*delta_relay:

    - single relay: the default placement puts B at b_x = h and refuses
      only b_x <= 0; otherwise the path A-C-B is b_x, so the construction's
      lateness (path - nd_range)/v + delta_relay is 0, within its zero slack;
    - wormhole: with B at b_x = (v_adv/v)*h/2 the spare is h/2 > 0; the
      path is (v/v_adv)*b_x = h/2 plus, since v/v_adv <= 1
      (``SystemParams`` enforces v_adv >= v), at most spare/2 = h/4 for
      the end offsets, so v*lateness <= h/4 - h/2 < 0.
    """

    varied: str
    value: Fraction
    report: BoundaryReport
    single_relay_attack: bool
    wormhole_attack: bool


_SWEEPABLE = ("delta_relay", "v_adv", "nd_range")


def sweep_values(start: Fraction, stop: Fraction, step: Fraction) -> list[Fraction]:
    """Inclusive rational grid from start to stop: floor((stop - start)/step) + 1
    values, a count worked out before any value is built and refused over
    MAX_SWEEP_ROWS."""
    if step <= 0:
        raise ValueError("step must be > 0")
    if stop < start:
        raise ValueError("empty range: stop precedes start")
    count = (stop - start) // step + 1
    if count > MAX_SWEEP_ROWS:
        rows = echo(str(count), quote=False)
        raise ValueError(f"sweep of {rows} rows, over the bound of {MAX_SWEEP_ROWS}")
    return [start + index * step for index in range(count)]


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
        try:
            row_params = replace(params, **{varied: value})
        except ValueError as exc:
            raise ValueError(f"sweep value {varied} = {format_scalar(value)}: {exc}") from exc
        report = compute_boundaries(row_params, inacc)
        rows.append(
            SweepRow(
                varied=varied,
                value=value,
                report=report,
                single_relay_attack=report.single_relay_max_dist > 0,
                wormhole_attack=report.wormhole_max_dist > 0,
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


# twelve significant digits, the display columns' precision
_DISPLAY = Context(prec=12)


def _dec(x: Fraction) -> str:
    """x to twelve significant digits: float's text, or, beyond float
    range, the same text worked out from x's exact digits."""
    try:
        return format(float(x), ".12g")
    except OverflowError:
        digits = _DISPLAY.divide(Decimal(x.numerator), Decimal(x.denominator))
        return format(digits.normalize(_DISPLAY), ".12g")


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"
