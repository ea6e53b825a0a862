"""Self-test of the benchmark's correctness checks, at tiny size.

    python3 perfbench/selftest.py

Run from the root of an ndcheck checkout.  For each workload it runs one
clean round, which must pass every check and count exactly the known
faults (F1 and F2 once each on check-large, none elsewhere).  Then, for
every check the clean round used, it runs the round again with one
wrong expectation planted in that check and confirms the check reports
a mismatch.  It also confirms that a changed input file changes the
digest behind the byte-identical rebuild check.  A traced pass then
installs the per-layer shims, runs two rounds of each workload, and
confirms that they report every per-layer metric BENCHMARK.json names,
that every span and counter is reached, and that a count planted to
differ between rounds is caught.  Last, it confirms that the benchmark
refuses to run where there are no ndcheck sources.  Exit code 0 means
every check is live.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
KNOWN_FAULTS = {"check-large": {"F1": 1, "F2": 1}}


def check_workload(name: str, problems: list[str]) -> int:
    workload = workloads.WORKLOADS[name]
    workdir = run.OUT / "selftest" / name
    workloads.shutil.rmtree(workdir, ignore_errors=True)
    nd = run.import_ndcheck()
    inputs = workload.setup(SEED, "tiny", workdir)
    first = run.digest(workdir)
    workloads.shutil.rmtree(workdir)
    inputs = workload.setup(SEED, "tiny", workdir)
    if run.digest(workdir) != first:
        problems.append(f"{name}: rebuilding the inputs changed their bytes")
    some_file = next(p for p in sorted(workdir.rglob("*")) if p.is_file())
    original = some_file.read_bytes()
    some_file.write_bytes(original + b"#")
    if run.digest(workdir) == first:
        problems.append(f"{name}: the rebuild digest missed a changed input file")
    some_file.write_bytes(original)

    speed = workloads.HostSpeed()
    clean = workloads.Round(speed)
    workload.round(nd, inputs, clean)
    if clean.mismatches:
        problems.append(f"{name}: clean round failed: {clean.mismatches[:3]}")
    if dict(clean.faults) != KNOWN_FAULTS.get(name, {}) or clean.failed != sum(clean.faults.values()):
        problems.append(f"{name}: known faults counted as {dict(clean.faults)}, failed={clean.failed}")

    for kind in sorted(clean.kinds):
        planted = workloads.Round(speed, plant=kind)
        workload.round(nd, inputs, planted)
        if planted.plant is not None or not any(m.startswith(kind + " ") for m in planted.mismatches):
            problems.append(f"{name}: planted wrong expectation in {kind} went unnoticed")
    print(f"{name}: {len(clean.kinds)} checks, each caught a planted wrong expectation")
    return len(clean.kinds)


def check_traced(problems: list[str]) -> None:
    """Traced rounds report every per-layer metric; a differing count is caught.

    Runs last: the shims stay installed for the rest of the process.
    """
    declared = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    nd = run.import_ndcheck()
    tracer = tracing.Tracer()
    tracer.install(nd)
    speed = workloads.HostSpeed()
    called, counted = set(), set()
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.setup(SEED, "tiny", run.OUT / "selftest" / name)
        rounds = run.run_rounds(nd, workload, inputs, speed, 0, 2, tracer=tracer)
        mismatches = [m for r in rounds for m in r.mismatches]
        if mismatches:
            problems.append(f"{name}: traced round failed: {mismatches[:3]}")
        metrics, counts_repeat = run.layer_metrics(rounds, rounds)
        if set(metrics) != declared:
            problems.append(f"{name}: traced metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}")
        if not counts_repeat:
            problems.append(f"{name}: per-layer counts differ between two identical rounds")
        called |= {span for span, n in rounds[0].spans["calls"].items() if n}
        counted |= {count for count, n in rounds[0].spans["counts"].items() if n}
        rounds[1].spans["counts"]["core.inrange_calls"] += 1
        if run.layer_metrics(rounds, rounds)[1]:
            problems.append(f"{name}: a count planted to differ between rounds went unnoticed")
    for span in sorted(set(tracing.SPANS) - called):
        problems.append(f"span {span} was never called in a traced round")
    for count in sorted(set(tracing.COUNTERS) - counted):
        problems.append(f"counter {count} stayed 0 in every traced round")
    print(f"traced: {len(called)} spans and {len(counted)} counters reached, a planted count difference caught")


def check_refuses_without_sources(problems: list[str]) -> None:
    """The benchmark must fail, without a result, where src/ndcheck is missing."""
    empty = run.OUT / "selftest" / "no-sources"
    empty.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "run.py"), "--workload", "check-large", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=empty, capture_output=True, text=True, timeout=60)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("the benchmark ran without ndcheck sources")


def main() -> int:
    sys.path.insert(0, str(run.SOURCE))
    problems: list[str] = []
    total = sum(check_workload(name, problems) for name in workloads.WORKLOADS)
    check_traced(problems)
    check_refuses_without_sources(problems)
    for problem in problems:
        print(f"FAIL: {problem}")
    print(f"{total} checks planted; {'all live' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
