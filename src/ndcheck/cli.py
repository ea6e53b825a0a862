"""Batch command-line surface.

Commands:

  check    run every feasibility checker plus the neighbor-correctness
           check over a scenario/trace pair
  attack   synthesize a relay or wormhole attack for a two-node scenario;
           both variants work for every stamped protocol
  witness  emit a successful honest discovery run at a given distance
  sweep    tabulate security boundaries across a parameter range
  order    test trace-set inclusion between two adversary models on a
           corpus directory of .scn/.trc pairs

Exit codes: 0 success / inclusion holds / no violation; 1 a usage
error (printed with the usage line), a parse or validation failure, an
irrational distance where the command needs a rational one, or an
unreadable input or unwritable output path;
2 feasibility violation (or ordering counterexample); 3 feasible trace
with a false neighbor declaration; 4 requested construction infeasible
(placement or distance).

All output is deterministic: identical inputs give byte-identical
reports.

Each step from command line to report is written once.  ``_read``
takes --approx and reads a scenario in that mode.  ``_verdicts`` runs
the three feasibility layers (physics, protocol, adversary) and
neighbor correctness on a run, keyed by their names in the check
report: ``check`` reports them, and ``witness`` holds its synthesized
run to them before writing it.  ``_render`` turns a report into text or
JSON, as --format asks, and ``_write`` puts text in a file or on
standard output; ``check``, ``witness``, ``order``, ``sweep`` and the
attack summary all write through it.

``main(argv)`` may be called any number of times in one process.  The
argument parser is built on the first call and shared by every later
one; a shell invocation of ``ndcheck`` is one process, so it still
builds the parser once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .adversary import ADVERSARY_NAMES, AdversaryModel, check_adversary_feasible, weaker_on_corpus
from .analysis import render_table, sweep, sweep_values
from .attacks import (
    AttackPlan,
    NoWitness,
    OutOfRange,
    PlacementInfeasible,
    SINGLE_RELAY,
    SingleRelayPlacement,
    WORMHOLE,
    WormholePlacement,
    availability_witness,
    check_neighbor_correctness,
    plan_relay_attack,
    protocol_verdict,
    verify_attack_plan,
)
from .core import Trace, Verdict, check_setting_feasible, dist
from .rational import EXACT, IrrationalDistance, Num, approx_num, echo, format_scalar, parse_scalar
from .scenario import (
    Scenario,
    ScenarioError,
    dump_trace,
    load_scenario,
    load_trace,
    save_scenario,
    save_trace,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_ATTACK_FOUND = 3
EXIT_NO_CONSTRUCTION = 4


def _verdict_dict(verdict: Verdict) -> dict:
    return {
        "ok": verdict.ok,
        "violations": [
            {
                "rule": v.rule,
                "detail": v.detail,
                "events": [dump_trace(Trace(v.events)).rstrip("\n")] if v.events else [],
            }
            for v in verdict.violations
        ],
    }


def _render(report: dict, args) -> str:
    """A report in the format --format asks for."""
    if args.format == "structured":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return _render_text(report)


def _write(text: str, path=None) -> None:
    """Text to the file at path, or to standard output when there is none."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render_text(report: dict, indent: str = "") -> str:
    lines = []
    for key in report:
        value = report[key]
        if isinstance(value, dict):
            if set(value) == {"ok", "violations"}:
                status = "ok" if value["ok"] else "VIOLATED"
                lines.append(f"{indent}{key}: {status}")
                for violation in value["violations"]:
                    lines.append(f"{indent}  - {violation['rule']}: {violation['detail']}")
                    for event in violation["events"]:
                        lines.append(f"{indent}      {event}")
            else:
                lines.append(f"{indent}{key}:")
                lines.append(_render_text(value, indent + "  ").rstrip("\n"))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: " + ", ".join(str(item) for item in value))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines) + "\n"


def _read(args, path=None) -> tuple[Num, Scenario]:
    """The numerics --approx asks for, and the scenario at path (the
    command's own by default) read in that mode: exact mode refuses an
    irrational distance."""
    num = EXACT if args.approx is None else approx_num(parse_scalar(args.approx))
    return num, load_scenario(path or args.scenario, exact=num.exact)


def _verdicts(trace: Trace, scenario: Scenario, num: Num) -> dict[str, Verdict]:
    """The verdicts of the three feasibility layers and of neighbor
    correctness on a run, keyed by their names in the check report."""
    setting, params = scenario.setting, scenario.params
    return {
        "setting_feasible": check_setting_feasible(trace, setting, params, num),
        "protocol_feasible": protocol_verdict(
            trace, setting, scenario.protocol, params, scenario.inaccuracy, num
        ),
        "adversary_feasible": check_adversary_feasible(
            trace, setting, params, scenario.adversary, num
        ),
        "neighbor_correctness": check_neighbor_correctness(trace, setting),
    }


def cmd_check(args) -> int:
    num, scenario = _read(args)
    trace = load_trace(args.trace)
    verdicts = _verdicts(trace, scenario, num)
    report = {
        "scenario": str(args.scenario),
        "trace": str(args.trace),
        "protocol": scenario.protocol,
        "adversary": scenario.adversary.kind,
    }
    report.update((name, _verdict_dict(verdict)) for name, verdict in verdicts.items())
    *layers, correctness = verdicts.values()
    if not all(verdict.ok for verdict in layers):
        report["result"] = "infeasible"
        code = EXIT_INFEASIBLE
    elif not correctness.ok:
        report["result"] = "attack: feasible trace with a false neighbor"
        code = EXIT_ATTACK_FOUND
    else:
        report["result"] = "ok"
        code = EXIT_OK
    _write(_render(report, args), args.out)
    return code


def _placement_from_flags(args, variant: str) -> Optional[object]:
    if variant == SINGLE_RELAY:
        if args.attack_distance is None and args.relay_at is None:
            return None
        if args.attack_distance is None or args.relay_at is None:
            raise ScenarioError(
                "single-relay placement needs both --attack-distance and --relay-at"
            )
        return SingleRelayPlacement(
            relay_x=parse_scalar(args.relay_at), b_x=parse_scalar(args.attack_distance)
        )
    flags = (args.attack_distance, args.near_a, args.near_b)
    if all(flag is None for flag in flags):
        return None
    if any(flag is None for flag in flags):
        raise ScenarioError(
            "wormhole placement needs --attack-distance, --near-a and --near-b"
        )
    return WormholePlacement(
        c_x=parse_scalar(args.near_a),
        d_x=parse_scalar(args.near_b),
        b_x=parse_scalar(args.attack_distance),
    )


def _plan_summary(plan: AttackPlan, verdicts: dict) -> dict:
    placement = {
        field: format_scalar(getattr(plan.placement, field))
        for field in plan.placement.__dataclass_fields__
    }
    checks = {}
    for name, value in verdicts.items():
        checks[name] = value if isinstance(value, bool) else _verdict_dict(value)
    return {
        "feasible": True,
        "variant": plan.variant,
        "protocol": plan.protocol,
        "honest_distance": format_scalar(plan.d_ab),
        "declarer": plan.declarer,
        "beaconer": plan.beaconer,
        "placement": placement,
        "deltas": {key: format_scalar(value) for key, value in sorted(plan.deltas.items())},
        "checks": checks,
        "false_neighbors": len(verdicts["correctness_attack"].violations),
    }


def cmd_attack(args) -> int:
    num, scenario = _read(args)
    correct = scenario.setting.correct_nodes
    if len(correct) != 2:
        raise ScenarioError(
            f"attack synthesis needs exactly two correct nodes, found {len(correct)}"
        )
    declarer, beaconer = correct
    try:
        d_ab = dist(scenario.setting, declarer, beaconer)
    except IrrationalDistance as exc:
        raise ScenarioError(
            f"attack synthesis needs a rational distance between the correct nodes "
            f"{echo(declarer)} and {echo(beaconer)}: {exc}"
        ) from None
    placement = _placement_from_flags(args, args.variant)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        plan = plan_relay_attack(
            d_ab,
            scenario.params,
            scenario.protocol,
            args.variant,
            placement,
            scenario.inaccuracy,
            declarer,
            beaconer,
        )
    except (PlacementInfeasible, NoWitness) as exc:
        report = {"feasible": False, "reason": str(exc), "variant": args.variant}
        _write_summary(report, args, out_dir)
        return EXIT_NO_CONSTRUCTION

    verdicts = verify_attack_plan(plan, scenario.params, scenario.inaccuracy, num)
    save_scenario(out_dir / "honest.scn", replace(scenario, setting=plan.setting_honest))
    save_scenario(out_dir / "attack.scn", replace(scenario, setting=plan.setting_attack))
    save_trace(out_dir / "base.trc", plan.base_trace)
    save_trace(out_dir / "relay.trc", plan.relay_trace)
    report = _plan_summary(plan, verdicts)
    _write_summary(report, args, out_dir)
    return EXIT_OK


def _write_summary(report: dict, args, out_dir: Path) -> None:
    text = _render(report, args)
    _write(text, out_dir / ("summary.json" if args.format == "structured" else "summary.txt"))
    _write(text)


def cmd_witness(args) -> int:
    num, scenario = _read(args)
    d = parse_scalar(args.distance)
    try:
        setting, trace = availability_witness(
            scenario.protocol, d, scenario.params, scenario.inaccuracy
        )
    except (OutOfRange, NoWitness, IrrationalDistance) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONSTRUCTION

    witnessed = replace(scenario, setting=setting)
    if not all(verdict.ok for verdict in _verdicts(trace, witnessed, num).values()):
        print("error: synthesized witness failed self-check", file=sys.stderr)
        return EXIT_INFEASIBLE
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_scenario(out_dir / "witness.scn", witnessed)
    save_trace(out_dir / "witness.trc", trace)
    report = {
        "distance": format_scalar(d),
        "protocol": scenario.protocol,
        "files": ["witness.scn", "witness.trc"],
        "result": "ok",
    }
    _write(_render(report, args), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    _, scenario = _read(args)
    values = sweep_values(
        parse_scalar(args.start), parse_scalar(args.stop), parse_scalar(args.step)
    )
    rows = sweep(scenario.params, args.vary, values, scenario.inaccuracy)
    _write(render_table(rows), args.out)
    return EXIT_OK


def cmd_order(args) -> int:
    corpus_dir = Path(args.corpus)
    entries = sorted(corpus_dir.glob("*.scn"))
    if not entries:
        print(f"error: no .scn files in {corpus_dir}", file=sys.stderr)
        return EXIT_USAGE
    corpus = []
    stems = []
    shared_params = None
    for scn_path in entries:
        trc_path = scn_path.with_suffix(".trc")
        if not trc_path.exists():
            raise ScenarioError(f"{scn_path.stem}: missing matching .trc file")
        num, scenario = _read(args, scn_path)
        trace = load_trace(trc_path)
        if shared_params is None:
            shared_params = scenario.params
        elif scenario.params != shared_params:
            raise ScenarioError(f"{scn_path.stem}: corpus parameters differ")
        verdict = check_setting_feasible(trace, scenario.setting, scenario.params, num)
        if not verdict.ok:
            raise ScenarioError(f"{scn_path.stem}: trace is not feasible for its setting")
        corpus.append((trace, scenario.setting))
        stems.append(scn_path.stem)

    weaker = AdversaryModel(args.weaker, shared_params.delta_relay)
    stronger = AdversaryModel(args.stronger, shared_params.delta_relay)
    result = weaker_on_corpus(
        weaker, stronger, corpus, shared_params, use_renaming=args.rename, num=num
    )
    report = {
        "weaker": result.weaker,
        "stronger": result.stronger,
        "renamed": result.renamed,
        "corpus_size": result.total,
        "applicable": result.applicable,
        "inclusion_holds": result.inclusion_holds,
        "counterexamples": [stems[c.index] for c in result.counterexamples],
    }
    _write(_render(report, args), args.out)
    return EXIT_OK if result.inclusion_holds else EXIT_INFEASIBLE


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as every other input error does."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # registered on the top level and on every subcommand so the flags are
    # accepted in either position; the subcommand wins when both are given
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--approx",
        metavar="EPS",
        default=default,
        help="tolerance for an instant with no rational value, as at an irrational "
        "distance; every rational value stays exact (default: exact arithmetic)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default=argparse.SUPPRESS if suppress else "text",
        help="report format",
    )
    parser.add_argument("--out", default=default, help="write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the command line, which the caller may change;
    ``main`` keeps one of its own."""
    parser = _Parser(
        prog="ndcheck",
        description="Feasibility checking and attack synthesis for neighbor discovery",
    )
    _add_common_options(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", parents=[common], help="check a trace against a scenario"
    )
    p_check.add_argument("scenario")
    p_check.add_argument("trace")
    p_check.set_defaults(func=cmd_check)

    p_attack = sub.add_parser("attack", parents=[common], help="synthesize a relay or wormhole attack")
    p_attack.add_argument("scenario")
    p_attack.add_argument(
        "--variant", choices=(SINGLE_RELAY, WORMHOLE), default=SINGLE_RELAY
    )
    p_attack.add_argument("--out-dir", default="attack-out")
    p_attack.add_argument("--attack-distance", default=None, help="victim separation b_x")
    p_attack.add_argument("--relay-at", default=None, help="single relay x coordinate")
    p_attack.add_argument("--near-a", default=None, help="wormhole end near the declarer")
    p_attack.add_argument("--near-b", default=None, help="wormhole end near the beaconer")
    p_attack.set_defaults(func=cmd_attack)

    p_witness = sub.add_parser(
        "witness", parents=[common], help="emit an honest discovery run"
    )
    p_witness.add_argument("scenario")
    p_witness.add_argument("--distance", required=True)
    p_witness.add_argument("--out-dir", default="witness-out")
    p_witness.set_defaults(func=cmd_witness)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="tabulate boundaries over a parameter range"
    )
    p_sweep.add_argument("scenario")
    p_sweep.add_argument(
        "--vary", choices=("delta_relay", "v_adv", "nd_range"), default="delta_relay"
    )
    p_sweep.add_argument("--from", dest="start", required=True)
    p_sweep.add_argument("--to", dest="stop", required=True)
    p_sweep.add_argument("--step", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_order = sub.add_parser(
        "order", parents=[common], help="adversary-model inclusion on a corpus"
    )
    p_order.add_argument("corpus")
    p_order.add_argument("--weaker", choices=ADVERSARY_NAMES, required=True)
    p_order.add_argument("--stronger", choices=ADVERSARY_NAMES, required=True)
    p_order.add_argument("--rename", action="store_true")
    p_order.set_defaults(func=cmd_order)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when argv is None) and return
    its exit code; a usage error or ``--help`` raises SystemExit.

    May be called any number of times in one process: the parser is built
    on the first call and shared after that, since parsing keeps no state
    between calls.  A shell invocation still builds it once per process.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
