"""ndcheck benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload check-large --seed 1 --seconds 30 --trace 0

Run from the root of an ndcheck checkout; the program is imported from
src/.  Set-up (import, input generation, writing the input files) runs
once in this process, then whole rounds of the workload run until
--seconds have passed, with SETUP_REPEATS - 1 more set-ups in fresh
child processes spread between the untraced rounds.  Every set-up must
write byte-identical files; setup_s is their median time.  Times are
scaled to a fixed host speed (workloads.HostSpeed) and each metric is
the median over the rounds.

With --trace 0 the last line of standard output is the end-to-end
result.  With --trace 1 the first half of the time runs untraced, the
second half with per-layer shims installed, and the last line carries
the per-layer metrics plus the tracing overhead.  A results file with
the interpreter, core count and ndcheck revision is written under
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_ROUNDS = 3
ROOT = Path.cwd()
SOURCE = ROOT / "src"
OUT = ROOT / ".perfbench"
MODULES = ("rational", "core", "protocols", "adversary", "attacks", "analysis", "scenario", "generators", "cli")

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verdict_s": "s",
    "generic_verdict_s": "s",
    "search_traces_per_s": "traces/s",
    "plans_per_s": "plans/s",
    "sweep_rows_per_s": "rows/s",
    "cli_runs_per_s": "runs/s",
}


def import_ndcheck() -> types.SimpleNamespace:
    """Import ndcheck and its modules from the checkout's src/."""
    __import__("ndcheck")
    for module in MODULES:
        __import__(f"ndcheck.{module}")
    return types.SimpleNamespace(**{m: sys.modules[f"ndcheck.{m}"] for m in MODULES})


def digest(root: Path) -> str:
    h = hashlib.sha256()
    for name, data in workloads.tree_bytes(root).items():
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


def set_up_once(workload, seed: int, workdir: Path, speed):
    """One set-up: import ndcheck, generate the inputs, write them under workdir.

    Its time is scaled by the host speed measured before and after it.
    """
    workloads.shutil.rmtree(workdir, ignore_errors=True)
    before = speed.reference_seconds()
    start = time.perf_counter()
    nd = import_ndcheck()
    inputs = workload.setup(seed, "full", workdir)
    seconds = time.perf_counter() - start
    reference = (before + speed.reference_seconds()) / 2
    return nd, inputs, seconds * speed.NOMINAL_SECONDS / reference, digest(workdir)


class SetUps:
    """Set-up samples: the in-process one the rounds use, plus fresh child processes.

    A child imports ndcheck into a new interpreter, which is what a user
    pays, and leaves this process's memory alone.  Every set-up must
    write the same bytes; setup_s is the median time.
    """

    def __init__(self, args, first_seconds: float, first_digest: str) -> None:
        self.argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0",
            "--setup-only", str(OUT / "setup" / args.workload),
        ]
        self.times = [first_seconds]
        self.digests = {first_digest}

    def __call__(self) -> None:
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        sample = json.loads(done.stdout.splitlines()[-1])
        self.times.append(sample["seconds"])
        self.digests.add(sample["digest"])


def run_rounds(nd, workload, inputs, speed, seconds: float, min_rounds: int, set_up=None, tracer=None) -> list:
    """Whole rounds until `seconds` have passed.

    set_up, if given, runs between rounds, SETUP_REPEATS - 1 times spread
    evenly over the run (at least once), so set-up samples see the same
    host as the rounds do.  With a tracer installed, each round keeps
    its spans and counts.
    """
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        gc.collect()
        r = workloads.Round(speed)
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        workload.round(nd, inputs, r)
        r.wall = time.perf_counter() - t0
        r.finish()
        if tracer is not None:
            counts = dict(tracer.report_counts(), **{"cli.bytes_written": r.bytes_written})
            r.spans = {
                "self": dict(tracer.self_time),
                "total": dict(tracer.total),
                "calls": dict(tracer.calls),
                "counts": counts,
            }
        rounds.append(r)
        done = (time.perf_counter() - start) / seconds if seconds else 1
        if set_up is not None and len(set_up.times) < 1 + max(1, done * (SETUP_REPEATS - 1)):
            set_up()
    return rounds


def e2e_metrics(rounds: list, setup_s: float) -> dict:
    """Medians over the rounds of each phase's host-scaled time or rate."""

    def median(phase: str) -> float:
        return statistics.median(r.times[phase] for r in rounds)

    def rate(phase: str) -> float:
        return statistics.median(r.items[phase] / r.times[phase] for r in rounds)

    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdict_s": median("verdict"),
        "generic_verdict_s": median("generic"),
        "search_traces_per_s": rate("search"),
        "plans_per_s": rate("plans"),
        "sweep_rows_per_s": rate("sweep"),
        "cli_runs_per_s": rate("cli"),
    }
    return {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}


def host_scale(r) -> float:
    """A round's mean host-speed factor, to scale times measured inside it."""
    return sum(r.times.values()) / sum(r.raw.values())


def layer_metrics(traced: list, untraced: list) -> tuple[dict, bool]:
    """Median host-scaled self times and per-round counts; counts must repeat exactly."""
    out = {}
    for span in tracing.SPANS:
        self_times = [r.spans["self"].get(span, 0.0) * host_scale(r) for r in traced]
        out[f"{span}_s"] = {"value": statistics.median(self_times), "unit": "s"}
    counts = [r.spans["counts"] for r in traced]
    for name in tracing.COUNTERS:
        out[name] = {"value": counts[0].get(name, 0), "unit": "count"}

    def wall(rounds: list) -> float:
        return statistics.median(r.wall * host_scale(r) for r in rounds)

    out["trace.overhead_ratio"] = {"value": wall(traced) / wall(untraced), "unit": "ratio"}
    return out, all(c == counts[0] for c in counts)


def revision() -> dict:
    """The ndcheck revision: git HEAD when the checkout has one, and a source hash."""
    head = "unknown: not a git checkout"
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = git / name
            if path.exists():
                head = path.read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        head = line.split()[0]
        else:
            head = ref
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted((SOURCE / "ndcheck").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": head, "source_sha256": h.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SOURCE / "ndcheck" / "__init__.py").is_file():
        print(f"error: no ndcheck sources under {SOURCE}; run from an ndcheck checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / "work" / args.workload
    speed = workloads.HostSpeed()
    if args.setup_only:
        _, _, seconds, fingerprint = set_up_once(workload, args.seed, Path(args.setup_only), speed)
        print(json.dumps({"seconds": seconds, "digest": fingerprint}))
        return 0
    nd, inputs, seconds, fingerprint = set_up_once(workload, args.seed, workdir, speed)
    set_up = SetUps(args, seconds, fingerprint)

    if args.trace:
        half = args.seconds / 2
        untraced = run_rounds(nd, workload, inputs, speed, half, 1, set_up)
        tracer = tracing.Tracer()
        tracer.install(nd)
        traced = run_rounds(nd, workload, inputs, speed, half, 1, tracer=tracer)
        rounds = untraced + traced
        metrics, counts_repeat = layer_metrics(traced, untraced)
    else:
        rounds = run_rounds(nd, workload, inputs, speed, args.seconds, MIN_ROUNDS, set_up)
        metrics, counts_repeat = e2e_metrics(rounds, statistics.median(set_up.times)), True
    inputs_repeat = len(set_up.digests) == 1

    mismatches = [m for r in rounds for m in r.mismatches]
    if not inputs_repeat:
        mismatches.append("setup: rebuilding the inputs from the seed changed their bytes")
    if not counts_repeat:
        mismatches.append("trace: per-layer counts differ between rounds")
    for line in mismatches[:20]:
        print(f"mismatch: {line}", file=sys.stderr)
    result = {
        "correct": not mismatches,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    write_results(args, result, rounds, set_up.times)
    print(json.dumps(result, sort_keys=True))
    return 0


def write_results(args, result: dict, rounds: list, setup_times: list) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    header = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ndcheck": revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    body = {
        "header": header,
        "result": result,
        "setup_samples_s": setup_times,
        "faults": dict(sum((r.faults for r in rounds), workloads.Counter())),
        "rounds": [
            {
                "wall_s": r.wall,
                "times_s": dict(r.times),
                "raw_times_s": dict(r.raw),
                "items": dict(r.items),
                "attempted": r.attempted,
                "failed": r.failed,
                "spans": getattr(r, "spans", None),
            }
            for r in rounds
        ],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(body, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
