"""Per-layer spans, installed from outside the program at run time.

Each shim replaces one public ndcheck function on every module that
bound it (ndcheck.protocols imports project_local from ndcheck.core, for
instance), so no file of the program changes.  Spans nest through a
stack: a span's self time is its duration minus the durations of the
spans it directly contains.  Spans are aggregated in memory per name,
round by round, and run.py writes them to the results file when the run
ends.  Count-only shims record calls without reading the clock.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# span name -> (module, attribute) of every function it wraps
SPANS = {
    "scenario.parse_scenario": [("scenario", "parse_scenario")],
    "scenario.parse_trace": [("scenario", "parse_trace")],
    "scenario.dump": [("scenario", "dump_scenario"), ("scenario", "dump_trace")],
    "core.trace_build": [("core", "Trace.__init__")],
    "core.induced_receives": [("core", "induced_receives")],
    "core.setting_feasible": [("core", "check_setting_feasible")],
    "core.inrange": [("core", "inrange")],
    "core.project_local": [("core", "project_local")],
    "protocols.dedicated": [("protocols", "check_pt_feasible"), ("protocols", "check_pgt_feasible")],
    "protocols.generic": [("protocols", "check_protocol_feasible")],
    "adversary.check": [("adversary", "check_adversary_feasible")],
    "attacks.plan": [("attacks", "plan_relay_attack")],
    "attacks.verify": [("attacks", "verify_attack_plan")],
    "attacks.views_equal": [("attacks", "local_views_equal")],
    "attacks.correctness": [("attacks", "check_neighbor_correctness")],
    "analysis.sweep": [("analysis", "sweep")],
    "generators.random_setting": [("generators", "random_setting")],
    "generators.random_trace": [("generators", "random_trace")],
    "cli.main": [("cli", "main")],
}

# counter name -> functions whose calls it counts
CALL_COUNTS = {
    "rational.exact_sqrt_calls": [("rational", "exact_sqrt")],
    "protocols.decide_calls": [
        ("protocols", "naive_decide"),
        ("protocols", "pt_decide"),
        ("protocols", "pgt_decide"),
        ("protocols", "pgt_approx_decide"),
    ],
}

# counters derived from a span's arguments or result: span -> (counter, fn)
DERIVED_COUNTS = {
    "scenario.parse_trace": ("scenario.events_parsed", lambda args, result: len(result)),
}

# counters read off a span's call count: counter -> span
SPAN_CALLS = {
    "core.inrange_calls": "core.inrange",
    "core.project_local_calls": "core.project_local",
}

# every per-layer count a traced run reports; cli.bytes_written is measured
# by the workload on the files each command wrote
COUNTERS = sorted(
    [name for name, _ in DERIVED_COUNTS.values()]
    + list(CALL_COUNTS)
    + list(SPAN_CALLS)
    + ["adversary.casts_checked", "cli.bytes_written"]
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        for table in (self.calls, self.total, self.self_time, self.counts):
            table.clear()

    def report_counts(self) -> dict[str, int]:
        """The counters of the round so far, those read off span calls included."""
        return dict(self.counts, **{c: self.calls.get(s, 0) for c, s in SPAN_CALLS.items()})

    def span(self, name: str, fn: Callable, count: Optional[tuple]) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        calls, total, self_time, counts = self.calls, self.total, self.self_time, self.counts

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[name] += 1
                total[name] += duration
                self_time[name] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if count is not None:
                # counting is tracer work: charge it to no span
                t0 = clock()
                counts[count[0]] += count[1](args, result)
                if stack:
                    stack[-1][0] += clock() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, nd) -> None:
        """Wrap every traced function on every ndcheck module that binds it."""
        derived = dict(DERIVED_COUNTS)
        derived["adversary.check"] = ("adversary.casts_checked", _adversarial_casts(nd))
        for span, targets in SPANS.items():
            for module, attr in targets:
                self._replace(nd, module, attr, lambda fn, s=span: self.span(s, fn, derived.get(s)))
        for counter, targets in CALL_COUNTS.items():
            for module, attr in targets:
                self._replace(nd, module, attr, lambda fn, c=counter: self.counter(c, fn))

    def _replace(self, nd, module: str, attr: str, make: Callable) -> None:
        home = getattr(nd, module)
        if attr == "Trace.__init__":
            home.Trace.__init__ = make(home.Trace.__init__)
            return
        original = getattr(home, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("ndcheck"):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)


def _adversarial_casts(nd) -> Callable:
    Bcast, Dcast = nd.core.Bcast, nd.core.Dcast

    def count(args, result) -> int:
        trace, setting = args[0], args[1]
        return sum(
            1
            for e in trace
            if isinstance(e, (Bcast, Dcast)) and setting.is_adversarial(e.actor)
        )

    return count
