"""The three workloads: check-large, soundness-corpus and synthesis-sweep.

Each workload has a set-up step, which writes its input files from the
seed, and a round, which runs the same operations in the same order
every time.  A round runs six phases, one per end-to-end metric
(verdict, generic, search, plans, sweep, cli); each workload makes one
or more of them large and keeps the others as small fixed slices, so
every metric is measured on every workload.

Every operation's output is compared with a value the benchmark works
out for itself (oracle.py, closed forms, its own square roots and link
tests) or with a property the method must have.  Calls into ndcheck go
through its modules (nd.core.check_setting_feasible, not an imported
name) so the per-layer shims in tracing.py see them.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import math
import random
import shutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Optional

import oracle


# ---------------------------------------------------------------------------
# host speed


class HostSpeed:
    """Scales measured times to a fixed host speed.

    On a shared host the same work runs up to about 1.9 times slower,
    in stretches from a fraction of a second to minutes, because other
    tenants load the machine.  At most every INTERVAL seconds, between
    operations, this times REFERENCE_RUNS runs of a fixed computation
    from the benchmark's own oracle, which never calls ndcheck, and
    keeps the fastest.  An operation's time is then multiplied by
    NOMINAL_SECONDS over the mean of the samples taken just before and
    just after it.  The reference slows with the host but not with the
    program, so a program change shows in full and the host's state
    does not.  NOMINAL_SECONDS is the reference's time on an idle 2-core
    host under Python 3.11.
    """

    NOMINAL_SECONDS = 0.0025
    INTERVAL = 0.1
    REFERENCE_RUNS = 3

    def __init__(self) -> None:
        rng = random.Random(0)
        self._net = oracle.line_net(rng, "pt", 10, oracle.LINES[1])
        self._sends = oracle.relaying_run(rng, self._net, 2, True).sends
        self._at: list[float] = []
        self._seconds: list[float] = []

    def reference_seconds(self) -> float:
        best = math.inf
        for _ in range(self.REFERENCE_RUNS):
            start = time.perf_counter()
            oracle.build(self._net, self._sends)
            best = min(best, time.perf_counter() - start)
        return best

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self._at or now - self._at[-1] > self.INTERVAL:
            self._seconds.append(self.reference_seconds())
            self._at.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """The scale for an operation that ran from start to end."""
        before = bisect.bisect_right(self._at, start) - 1
        after = bisect.bisect_left(self._at, end)
        near = [self._seconds[i] for i in (before, after) if 0 <= i < len(self._at)]
        return self.NOMINAL_SECONDS * len(near) / sum(near)


# ---------------------------------------------------------------------------
# one round's record


def planted(value):
    """A value that differs from `value`, for the self-test's wrong expectations."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, F)):
        return value + 1
    if isinstance(value, (list, tuple)):
        return list(value) + ["planted"]
    if isinstance(value, bytes):
        return value + b"planted"
    return (value, "planted")


class Round:
    """Times, operation counts and check results of one round.

    Operations keep their start and end; finish() scales each by the
    host speed around it (HostSpeed) into `times`, and `raw` keeps the
    unscaled sums.
    """

    def __init__(self, speed: HostSpeed, plant: Optional[str] = None) -> None:
        self.speed = speed
        self.times: dict[str, float] = defaultdict(float)
        self.raw: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)
        self._spans: list[tuple[str, float, float]] = []
        self.bytes_written = 0  # by ndcheck commands, counted from their output files
        self.attempted = 0
        self.failed = 0
        self.faults: Counter = Counter()
        self.mismatches: list[str] = []
        self.kinds: set[str] = set()
        self.plant = plant

    @contextlib.contextmanager
    def op(self, phase: Optional[str] = None):
        """One operation; with a phase, its whole time counts to that phase."""
        self.attempted += 1
        self.speed.sample()
        start = time.perf_counter()
        yield
        if phase is not None:
            self.record(phase, start, time.perf_counter())

    def record(self, phase: str, start: float, end: float, items: int = 1) -> None:
        """Count the time from start to end, and `items` done, to `phase`."""
        self._spans.append((phase, start, end))
        self.items[phase] += items

    def finish(self) -> None:
        self.speed.sample(force=True)
        for phase, start, end in self._spans:
            self.raw[phase] += end - start
            self.times[phase] += (end - start) * self.speed.factor(start, end)

    def expect(self, kind: str, expected, actual, where: str = "") -> None:
        self.kinds.add(kind)
        if kind == self.plant:
            expected = planted(expected)
            self.plant = None
        if expected != actual:
            self.mismatches.append(f"{kind} {where}: expected {expected!r}, got {actual!r}")

    def known_fault(self, name: str, rules: list[str], fault_rules: list[str], where: str) -> None:
        """An operation that a named program fault makes fail: counted, not a mismatch.

        The operation passes when it reports no violation (the fault is
        mended); any report other than the fault's own is a mismatch.
        """
        self.kinds.add(name)
        if name == self.plant:
            fault_rules = planted(fault_rules)
            self.plant = None
        if rules and rules == fault_rules:
            self.failed += 1
            self.faults[name] += 1
        else:
            self.expect(name, [], rules, where)


def rules_of(verdict) -> list[str]:
    return sorted(v.rule for v in verdict.violations)


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# independent arithmetic


def exact_root(q: F) -> Optional[F]:
    """Rational square root of q, or None when it is irrational."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return F(num, den)


def link_up_at(schedule, a: str, b: str, t: F) -> bool:
    """Half-open phases [start, end); self-links are always up."""
    if a == b:
        return True
    return any(s <= t and (e is None or t < e) for s, e in schedule.get((a, b), ()))


def radio_scenario(protocol: str, nd_range: F, delta_relay: F, v_adv_ratio: int = 1) -> str:
    """Two correct nodes at distance nd_range, linked both ways, at radio speed."""
    v = 300_000_000
    return (
        "[params]\n"
        f"v = {v}\nv_adv = {v * v_adv_ratio}\nnd_range = {oracle.fmt(nd_range)}\n"
        f"delta_relay = {oracle.fmt(delta_relay)}\nmsg_duration_default = 1/1000000\n\n"
        "[node A]\nx = 0\ny = 0\ntype = correct\n\n"
        f"[node B]\nx = {oracle.fmt(nd_range)}\ny = 0\ntype = correct\n\n"
        "[link A <-> B]\nup = 0:inf\n\n"
        f"[protocol]\nname = {protocol}\n\n"
        "[adversary]\nname = relay\n\n[run]\nhorizon = 10\n"
    )


# ---------------------------------------------------------------------------
# verdict phase: the full dedicated check stack on trace files


@dataclass
class MutantFiles:
    kind: str
    layer: str
    rules: list[str]
    removed: Path
    added: Path


@dataclass
class TraceCase:
    """A scenario/trace pair and the verdicts the benchmark expects for it."""

    name: str
    scn: Path
    trc: Path
    events: int
    false_neighbors: int
    mutants: list[MutantFiles] = field(default_factory=list)


def write_case(
    workdir: Path, name: str, net: oracle.Net, built: oracle.Built, muts: list
) -> TraceCase:
    case = TraceCase(
        name,
        workdir / f"{name}.scn",
        workdir / f"{name}.trc",
        len(built.text().splitlines()),
        built.false_neighbors(),
    )
    _write(case.scn, oracle.scenario_text(net))
    _write(case.trc, built.text())
    for m in muts:
        stem = f"{name}.{m.kind}"
        files = MutantFiles(
            m.kind, m.layer, list(m.rules), workdir / f"{stem}.del", workdir / f"{stem}.add"
        )
        _write(files.removed, m.removed)
        _write(files.added, m.added)
        case.mutants.append(files)
    return case


def load_case(nd, case: TraceCase):
    scenario = nd.scenario.parse_scenario(_read(case.scn))
    trace = nd.scenario.parse_trace(_read(case.trc))
    return scenario, trace


def mutate(nd, trace, m: MutantFiles):
    gone = set(nd.scenario.parse_trace(_read(m.removed)).events)
    more = nd.scenario.parse_trace(_read(m.added)).events
    return nd.core.Trace([e for e in trace.events if e not in gone] + list(more))


def check_series_case(nd, case: TraceCase, r: Round) -> None:
    """Parse, then physics, dedicated protocol, adversary and correctness, as `check` does."""
    with r.op("verdict"):
        scenario, trace = load_case(nd, case)
        setting, params = scenario.setting, scenario.params
        r.expect("series.events", case.events, len(trace), case.name)
        physics = nd.core.check_setting_feasible(trace, setting, params)
        r.expect("series.physics", [], rules_of(physics), case.name)
        proto = nd.attacks.protocol_verdict(trace, setting, scenario.protocol, params, scenario.inaccuracy)
        r.expect("series.protocol", [], rules_of(proto), case.name)
        adv = nd.adversary.check_adversary_feasible(trace, setting, params, scenario.adversary)
        r.expect("series.adversary", [], rules_of(adv), case.name)
        wrong = nd.attacks.check_neighbor_correctness(trace, setting)
        r.expect("series.false_neighbors", case.false_neighbors, len(wrong.violations), case.name)
    for m in case.mutants:
        with r.op("verdict"):
            mutant = mutate(nd, trace, m)
            if m.layer == "physics":
                verdict = nd.core.check_setting_feasible(mutant, setting, params)
            elif m.layer == "adversary":
                verdict = nd.adversary.check_adversary_feasible(mutant, setting, params, scenario.adversary)
            else:
                verdict = nd.attacks.protocol_verdict(
                    mutant, setting, scenario.protocol, params, scenario.inaccuracy
                )
            r.expect(f"mutant.{m.kind}", m.rules, rules_of(verdict), case.name)


def check_f2(nd, scn: Path, trc: Path, r: Round) -> None:
    """F2: a reception on the closing ray of a closed sector, in approximate mode."""
    with r.op("verdict"):
        scenario = nd.scenario.parse_scenario(_read(scn), exact=False)
        trace = nd.scenario.parse_trace(_read(trc))
        num = nd.rational.approx_num(oracle.F2_EPSILON)
        verdict = nd.core.check_setting_feasible(trace, scenario.setting, scenario.params, num)
        r.known_fault("F2", rules_of(verdict), ["receive-without-transmission"], "closing ray")


# ---------------------------------------------------------------------------
# generic phase: check_protocol_feasible, compared with the dedicated route


def check_generic_case(nd, case: TraceCase, r: Round) -> None:
    """The full stack with the generic protocol route, which must agree with the dedicated one."""
    with r.op("generic"):
        scenario, trace = load_case(nd, case)
        setting, params, protocol = scenario.setting, scenario.params, scenario.protocol
        model = nd.protocols.make_protocol(protocol, params, scenario.inaccuracy)
        physics = nd.core.check_setting_feasible(trace, setting, params)
        r.expect("generic.physics", [], rules_of(physics), case.name)
        generic = nd.protocols.check_protocol_feasible(trace, setting, model, params)
        r.expect("generic.protocol", [], rules_of(generic), case.name)
        if protocol != "naive":  # the dedicated route for naive is the generic one
            dedicated = nd.attacks.protocol_verdict(trace, setting, protocol, params, scenario.inaccuracy)
            r.expect("generic.dedicated_agrees", [], rules_of(dedicated), case.name)
        adv = nd.adversary.check_adversary_feasible(trace, setting, params, scenario.adversary)
        r.expect("generic.adversary", [], rules_of(adv), case.name)
        wrong = nd.attacks.check_neighbor_correctness(trace, setting)
        r.expect("generic.false_neighbors", case.false_neighbors, len(wrong.violations), case.name)
    for m in case.mutants:
        with r.op("generic"):
            mutant = mutate(nd, trace, m)
            verdict = nd.protocols.check_protocol_feasible(mutant, setting, model, params)
            r.expect("generic.mutant", ["neighbor-not-permitted"], rules_of(verdict), case.name)
            if protocol != "naive":
                verdict = nd.attacks.protocol_verdict(mutant, setting, protocol, params, scenario.inaccuracy)
                r.expect("generic.mutant_dedicated", ["neighbor-unjustified"], rules_of(verdict), case.name)


def check_f1(nd, scn: Path, trc: Path, r: Round) -> None:
    """F1: an honest pgt-approx run with stamps skewed within (delta, tau)."""
    with r.op("generic"):
        scenario = nd.scenario.parse_scenario(_read(scn))
        trace = nd.scenario.parse_trace(_read(trc))
        setting, params, inacc = scenario.setting, scenario.params, scenario.inaccuracy
        dedicated = nd.protocols.check_pgt_feasible(trace, setting, params, inacc)
        r.expect("f1.dedicated", [], rules_of(dedicated), "skewed stamps")
        model = nd.protocols.make_protocol(scenario.protocol, params, inacc)
        generic = nd.protocols.check_protocol_feasible(trace, setting, model, params)
        r.known_fault("F1", rules_of(generic), ["bcast-not-permitted"], "skewed stamps")


# ---------------------------------------------------------------------------
# search phase: generated settings and traces through the dedicated stack

SEARCH_HORIZON = F(40)


# the generic slice of the corpus takes traces of this many events, so
# its cost does not hang on how many large traces a seed happens to draw
KEEP_EVENTS = range(12, 21)


def search(
    nd, seed: int, count: int, r: Round, keep: int = 0, corpus: bool = False
) -> list:
    """Generate and check `count` pt and `count` pgt traces.

    Returns, per protocol, the first `keep` traces with KEEP_EVENTS
    events.  As the soundness corpus (corpus=True), the checking time
    also counts as verdict time, and the pgt half must have relayed some
    beacons.
    """
    gen = nd.generators
    kept = []
    relayed = 0
    for protocol, adversary, stream in (("pt", "dy-t", 0), ("pgt", "dy-gt", 1)):
        rng = random.Random(seed * 2 + stream)
        kept_here = 0
        for index in range(count):
            with r.op():
                start = time.perf_counter()
                params = gen.random_params(rng, protocol == "pt", protocol == "pgt")
                setting = gen.random_setting(rng, SEARCH_HORIZON)
                trace = gen.random_trace(rng, setting, params, protocol, adversary, SEARCH_HORIZON)
                made = time.perf_counter()
                model = nd.adversary.AdversaryModel(adversary, params.delta_relay)
                layers = [
                    nd.core.check_setting_feasible(trace, setting, params),
                    nd.attacks.protocol_verdict(trace, setting, protocol, params),
                    nd.adversary.check_adversary_feasible(trace, setting, params, model),
                ]
                wrong = nd.attacks.check_neighbor_correctness(trace, setting)
                checked = time.perf_counter()
            r.record("search", start, checked)
            if corpus:
                r.record("verdict", made, checked)
            where = f"{protocol} #{index}"
            r.expect("search.feasible", [], sum((rules_of(v) for v in layers), []), where)
            r.expect("search.correctness", 0, len(wrong.violations), where)
            r.expect("search.false_neighbors", 0, _false_neighbors(nd, trace, setting), where)
            if protocol == "pgt":
                short, count_relayed = _relay_slack(nd, trace, setting, params)
                r.expect("search.relay_slack", [], short, where)
                relayed += count_relayed
            if kept_here < keep and len(trace) in KEEP_EVENTS:
                kept.append((protocol, params, setting, trace))
                kept_here += 1
    if corpus:
        r.expect("search.relayed_seen", True, relayed > 0, "pgt corpus")
    return kept


def _false_neighbors(nd, trace, setting) -> int:
    """Declarations among correct nodes about a peer whose link to them was down."""
    correct = set(setting.correct_nodes)
    return sum(
        1
        for e in trace
        if isinstance(e, nd.core.Neighbor)
        and e.actor in correct
        and e.peer in correct
        and not link_up_at(setting.link_schedule, e.peer, e.actor, e.peer_time)
    )


def _relay_slack(nd, trace, setting, params) -> tuple[list, int]:
    """Relayed beacons of correct creators whose time-estimate slack is below delta_relay."""
    correct = set(setting.correct_nodes)
    short = []
    relayed = 0
    for e in trace:
        if not (
            isinstance(e, nd.core.Receive)
            and e.actor in correct
            and e.sender not in correct
            and isinstance(e.msg, nd.core.BeaconTL)
            and e.msg.creator in correct
        ):
            continue
        relayed += 1
        (x0, y0), (x1, y1) = setting.loc[e.actor], e.msg.beacon_loc
        distance = exact_root((x0 - x1) ** 2 + (y0 - y1) ** 2)
        if distance is None:  # generated settings keep every distance rational
            short.append((e.actor, e.start, "irrational distance"))
            continue
        slack = (e.start - e.msg.beacon_time) - distance / params.v
        if slack < params.delta_relay:
            short.append((e.actor, e.start, slack))
    return short, relayed


def check_generic_corpus(nd, kept: list, r: Round) -> None:
    """The generic route must accept every generated trace, as the dedicated one does."""
    for index, (protocol, params, setting, trace) in enumerate(kept):
        with r.op("generic"):
            model = nd.protocols.make_protocol(protocol, params)
            generic = nd.protocols.check_protocol_feasible(trace, setting, model, params)
            r.expect("corpus.generic_agrees", [], rules_of(generic), f"{protocol} #{index}")


# ---------------------------------------------------------------------------
# plans phase: attack synthesis grids, each plan verified


@dataclass
class Grids:
    threshold_points: int
    wormhole_points: int
    approx_points: int
    nd_range: F  # radio range of the threshold grid
    ratios: tuple[int, ...]
    wormhole: tuple[F, F]  # (nd_range, delta_relay) at v = 1
    inacc: tuple[F, F]


def make_grids(rng: random.Random, threshold: int, wormhole: int, approx: int) -> Grids:
    return Grids(
        threshold,
        wormhole,
        approx,
        F(rng.choice((80, 100, 120, 150))),
        (1, rng.choice((2, 3)), rng.choice((5, 10))),
        (F(rng.randint(8, 12)), F(rng.randint(1, 4), 2)),
        (F(rng.randint(1, 5), 1000), F(rng.randint(1, 5), 1000)),
    )


def _plan_checks(r: Round, verdicts: dict, where: str, layers: tuple[str, ...], views: bool) -> None:
    for layer in layers:
        r.expect(f"plan.{layer}", [], rules_of(verdicts[layer]), where)
    r.expect("plan.honest_correct", [], rules_of(verdicts["correctness_honest"]), where)
    r.expect("plan.one_false_neighbor", 1, len(verdicts["correctness_attack"].violations), where)
    if views:
        r.expect("plan.views_equal", True, verdicts["views_equal"], where)


def threshold_grid(nd, g: Grids, r: Round) -> list:
    """Single relay against pt at radio speed: feasible exactly below R/v."""
    SystemParams, PT = nd.core.SystemParams, nd.protocols.PT
    c = F(300_000_000)
    threshold = g.nd_range / c
    plans = []
    for k in range(g.threshold_points):
        with r.op("plans"):
            delta = threshold * k / (g.threshold_points // 2)
            params = SystemParams(c, c, g.nd_range, delta, F(1, 1_000_000))
            try:
                plan = nd.attacks.plan_relay_attack(g.nd_range, params, PT, nd.attacks.SINGLE_RELAY)
            except nd.attacks.PlacementInfeasible:
                plan = None
            r.expect("threshold.flip", delta < threshold, plan is not None, f"k={k}")
            if plan is not None:
                verdicts = nd.attacks.verify_attack_plan(plan, params)
                layers = ("setting_attack", "protocol_honest", "protocol_attack", "adversary_relay")
                _plan_checks(r, verdicts, f"threshold k={k}", layers, True)
                plans.append((plan, params))
    return plans


def wormhole_grid(nd, g: Grids, r: Round) -> None:
    """Farthest bridged separation = ratio*(R - v*delta_relay), within one grid step."""
    nd_range, delta = g.wormhole
    for ratio in g.ratios:
        params = nd.core.SystemParams(F(1), F(ratio), nd_range, delta, F(1))
        bound = ratio * (nd_range - delta)
        step = bound * F(27, 25) / g.wormhole_points
        best = None
        for k in range(1, g.wormhole_points + 1):
            with r.op("plans"):
                b_x = step * k
                try:
                    placement = nd.attacks.default_wormhole_placement(nd_range, params, "pt", b_x=b_x)
                    plan = nd.attacks.plan_relay_attack(
                        nd_range, params, "pt", nd.attacks.WORMHOLE, placement
                    )
                except nd.attacks.PlacementInfeasible:
                    continue
                best = b_x
                verdicts = nd.attacks.verify_attack_plan(plan, params)
                layers = ("setting_attack", "protocol_attack", "adversary_relay")
                _plan_checks(r, verdicts, f"wormhole ratio={ratio} k={k}", layers, True)
        r.expect("wormhole.flip", True, best is not None and abs(bound - best) <= step, f"ratio={ratio}")


def approx_grid(nd, g: Grids, r: Round) -> None:
    """Slack relay against pgt-approx: feasible exactly up to 2*(delta + tau)."""
    inacc = nd.protocols.InaccuracyParams(*g.inacc)
    threshold = 2 * sum(g.inacc)
    step = threshold / ((g.approx_points - 1) // 2)
    for k in range(g.approx_points):
        with r.op("plans"):
            delta_relay = step * k
            params = nd.core.SystemParams(F(1), F(1), F(10), delta_relay, F(1))
            try:
                plan = nd.attacks.plan_relay_attack(
                    F(8), params, "pgt-approx", nd.attacks.SINGLE_RELAY, inacc=inacc
                )
            except nd.attacks.PlacementInfeasible:
                plan = None
            r.expect("approx.flip", delta_relay <= threshold, plan is not None, f"k={k}")
            if plan is not None:
                # this construction trades stamp skew for delay and does not keep views equal
                verdicts = nd.attacks.verify_attack_plan(plan, params, inacc)
                layers = ("setting_attack", "protocol_attack", "adversary_relay")
                _plan_checks(r, verdicts, f"approx k={k}", layers, False)


def check_generic_plans(nd, plans: list, r: Round) -> None:
    """The generic route accepts both runs of a view-preserving pt plan."""
    for index, (plan, params) in enumerate(plans):
        for name, trace, setting in (
            ("base", plan.base_trace, plan.setting_honest),
            ("relay", plan.relay_trace, plan.setting_attack),
        ):
            with r.op("generic"):
                model = nd.protocols.make_protocol("pt", params)
                verdict = nd.protocols.check_protocol_feasible(trace, setting, model, params)
                r.expect("plans.generic_agrees", [], rules_of(verdict), f"{name} #{index}")


# ---------------------------------------------------------------------------
# sweep phase: analysis.sweep rows against closed forms


@dataclass
class SweepCase:
    nd_range: F
    ratio: int
    inacc: tuple[F, F]
    rows: int


def run_sweep(nd, s: SweepCase, r: Round) -> None:
    c = F(300_000_000)
    params = nd.core.SystemParams(c, c * s.ratio, s.nd_range, F(0), F(1, 1_000_000))
    threshold = s.nd_range / c
    step = 2 * threshold / (s.rows - 1)
    values = [step * k for k in range(s.rows)]
    inacc = nd.protocols.InaccuracyParams(*s.inacc)
    with r.op():
        start = time.perf_counter()
        rows = nd.analysis.sweep(params, "delta_relay", values, inacc)
        r.record("sweep", start, time.perf_counter(), len(rows))
    r.expect("sweep.rows", s.rows, len(rows))
    window = sum(s.inacc)
    for row in rows:
        delta = row.value
        headroom = max(F(0), s.nd_range - c * delta)
        expected = (
            threshold,
            headroom,
            s.ratio * headroom,
            s.nd_range + c * s.inacc[0],
            delta < 2 * window,
            delta < threshold,
            delta < threshold,
        )
        report = row.report
        actual = (
            report.pt_threshold,
            report.single_relay_max_dist,
            report.wormhole_max_dist,
            report.pt_effective_range,
            report.pgt_vulnerable,
            row.single_relay_attack,
            row.wormhole_attack,
        )
        r.expect("sweep.closed_forms", expected, actual, f"delta_relay={delta}")


# ---------------------------------------------------------------------------
# cli phase: ndcheck commands on files, their exit codes and bytes


def cli(nd, argv: list[str], r: Round, expected_code: int, where: str) -> int:
    """One `ndcheck` invocation with its console output captured."""
    sink = io.StringIO()
    with r.op("cli"), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = nd.cli.main(argv)
    r.expect("cli.exit_code", expected_code, code, f"{where}: {' '.join(argv[:2])}")
    return code


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def cli_checks(nd, cases: list[tuple[Path, Path, int]], out: Path, r: Round) -> None:
    """`ndcheck check` on scenario/trace pairs with known exit codes."""
    for index, (scn, trc, code) in enumerate(cases):
        report = out / f"check-{index}.txt"
        cli(nd, ["check", str(scn), str(trc), "--out", str(report)], r, code, scn.name)
        r.bytes_written += report.stat().st_size


def witness_then_check(nd, scn: Path, distance: F, out: Path, r: Round) -> None:
    cli(nd, ["witness", str(scn), "--distance", oracle.fmt(distance), "--out-dir", str(out), "--out", str(out / "report.txt")], r, 0, "witness")
    cli(nd, ["check", str(out / "witness.scn"), str(out / "witness.trc"), "--out", str(out / "check.txt")], r, 0, "witness check")
    r.bytes_written += sum(len(b) for b in tree_bytes(out).values())


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    setup: Callable  # (seed, scale, workdir) -> inputs
    round: Callable  # (nd, inputs, Round) -> None


# the small search slices of check-large and synthesis-sweep draw the same
# traces whatever the seed: a few dozen random traces vary too much in cost
SLICE_SEED = 1


def _fresh(path: Path) -> Path:
    # each round's command output goes to an emptied directory, so every
    # file read back was written by this round
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# check-large ---------------------------------------------------------------

SERIES = {
    # protocol, nodes, beacons per correct node, two-sided relaying
    "full": (("pt", 20, 3, False), ("pgt", 30, 3, False), ("pt", 40, 4, True), ("pgt", 50, 4, True)),
    "tiny": (("pt", 8, 2, False), ("pgt", 10, 2, True)),
}
# one setting per protocol, then pt settings of growing size, so that
# generic_verdict_s carries the generic route's super-linear growth
GENERIC = {
    "full": (("naive", 10, 3), ("pt", 10, 3), ("pgt", 10, 3), ("pgt-approx", 10, 3), ("pt", 20, 3), ("pt", 30, 3)),
    "tiny": (("naive", 6, 1), ("pt", 6, 1), ("pgt", 6, 1), ("pgt-approx", 6, 1), ("pt", 9, 1)),
}


@dataclass
class CheckLargeInputs:
    series: list[TraceCase]
    generic: list[TraceCase]
    f1: tuple[Path, Path]
    f2: tuple[Path, Path]
    grids: Grids
    sweep: SweepCase
    search_count: int
    cli_cases: list[tuple[Path, Path, int]]
    workdir: Path


def setup_check_large(seed: int, scale: str, workdir: Path) -> CheckLargeInputs:
    rng = random.Random(seed)
    series = []
    for index, (protocol, nodes, beacons, two_sided) in enumerate(SERIES[scale]):
        net = oracle.line_net(rng, protocol, nodes, oracle.LINES[index % len(oracle.LINES)])
        built = oracle.relaying_run(rng, net, beacons, two_sided)
        muts = oracle.mutants(rng, built)
        series.append(write_case(workdir, f"series-{index}-{protocol}", net, built, muts))
    generic = []
    for index, (protocol, nodes, beacons) in enumerate(GENERIC[scale]):
        net = oracle.line_net(rng, protocol, nodes, oracle.LINES[(index + 1) % len(oracle.LINES)])
        if protocol == "pgt-approx":
            net.window = (F(rng.randint(1, 4), 16), F(rng.randint(1, 4), 16))
        built = oracle.relaying_run(rng, net, beacons, False)
        muts = oracle.mutants(rng, built, generic=True)
        generic.append(write_case(workdir, f"generic-{index}-{protocol}", net, built, muts))
    f1 = (workdir / "f1.scn", workdir / "f1.trc")
    f2 = (workdir / "f2.scn", workdir / "f2.trc")
    for paths, texts in ((f1, oracle.f1_files()), (f2, oracle.f2_files())):
        for path, text in zip(paths, texts):
            _write(path, text)
    tiny = scale == "tiny"
    # `check` runs on the first series trace and the one-per-protocol generic settings
    cli_cases = [
        (case.scn, case.trc, 3 if case.false_neighbors else 0) for case in (series[0], *generic[:4])
    ]
    return CheckLargeInputs(
        series,
        generic,
        f1,
        f2,
        make_grids(rng, 8 if tiny else 128, 0, 0),
        SweepCase(F(100), 2, (F(1, 10**9), F(1, 10**9)), 5 if tiny else 64),
        2 if tiny else 40,
        cli_cases,
        workdir,
    )


def round_check_large(nd, inp: CheckLargeInputs, r: Round) -> None:
    for case in inp.series:
        check_series_case(nd, case, r)
    check_f2(nd, *inp.f2, r)
    for case in inp.generic:
        check_generic_case(nd, case, r)
    check_f1(nd, *inp.f1, r)
    search(nd, SLICE_SEED, inp.search_count, r)
    threshold_grid(nd, inp.grids, r)
    run_sweep(nd, inp.sweep, r)
    cli_checks(nd, inp.cli_cases, _fresh(inp.workdir / "cli"), r)


# soundness-corpus ----------------------------------------------------------


@dataclass
class SoundnessInputs:
    seed: int
    count: int
    keep: int
    grids: Grids
    sweep: SweepCase
    witness_scns: list[Path]
    witness_distance: F
    workdir: Path


def setup_soundness(seed: int, scale: str, workdir: Path) -> SoundnessInputs:
    rng = random.Random(seed)
    tiny = scale == "tiny"
    nd_range = F(rng.choice((80, 100, 120)))
    scns = []
    for protocol in ("pt", "pgt"):
        scns.append(workdir / f"witness-{protocol}.scn")
        _write(scns[-1], radio_scenario(protocol, nd_range, nd_range / 300_000_000 / 4))
    return SoundnessInputs(
        seed,
        12 if tiny else 600,
        2 if tiny else 100,
        make_grids(rng, 8 if tiny else 64, 0, 0),
        SweepCase(nd_range, 1, (F(1, 10**9), F(2, 10**9)), 5 if tiny else 32),
        scns,
        nd_range * rng.randint(1, 9) / 10,
        workdir,
    )


def round_soundness(nd, inp: SoundnessInputs, r: Round) -> None:
    kept = search(nd, inp.seed, inp.count, r, keep=inp.keep, corpus=True)
    check_generic_corpus(nd, kept, r)
    threshold_grid(nd, inp.grids, r)
    run_sweep(nd, inp.sweep, r)
    out = _fresh(inp.workdir / "cli")
    for index, scn in enumerate(inp.witness_scns):
        witness_then_check(nd, scn, inp.witness_distance, out / str(index), r)


# synthesis-sweep -----------------------------------------------------------


@dataclass
class SynthesisInputs:
    grids: Grids
    sweep: SweepCase
    search_count: int
    attack_scn: Path
    wormhole_scn: Path
    witness_scns: list[tuple[Path, F]]
    sweep_flags: list[str]
    workdir: Path


def setup_synthesis(seed: int, scale: str, workdir: Path) -> SynthesisInputs:
    rng = random.Random(seed)
    tiny = scale == "tiny"
    grids = make_grids(rng, 16 if tiny else 128, 12 if tiny else 200, 9 if tiny else 33)
    nd_range = F(rng.choice((80, 100, 120, 150)))
    threshold = nd_range / 300_000_000
    delta = threshold * rng.randint(1, 8) / 10
    attack_scn, wormhole_scn = workdir / "attack.scn", workdir / "wormhole.scn"
    _write(attack_scn, radio_scenario("pt", nd_range, delta))
    _write(wormhole_scn, radio_scenario("pt", nd_range, delta, v_adv_ratio=rng.choice((2, 3))))
    witness_scns = []
    for protocol in ("naive", "pt", "pgt"):
        path = workdir / f"witness-{protocol}.scn"
        _write(path, radio_scenario(protocol, nd_range, delta))
        for _ in range(2 if tiny else 8):
            witness_scns.append((path, nd_range * rng.randint(1, 50) / 50))
    step = threshold / 8
    sweep_flags = ["--from", "0", "--to", oracle.fmt(2 * threshold), "--step", oracle.fmt(step)]
    return SynthesisInputs(
        grids,
        SweepCase(nd_range, rng.choice((2, 4)), grids.inacc, 9 if tiny else 161),
        2 if tiny else 20,
        attack_scn,
        wormhole_scn,
        witness_scns,
        sweep_flags,
        workdir,
    )


def round_synthesis(nd, inp: SynthesisInputs, r: Round) -> None:
    plans = threshold_grid(nd, inp.grids, r)
    wormhole_grid(nd, inp.grids, r)
    approx_grid(nd, inp.grids, r)
    run_sweep(nd, inp.sweep, r)
    first, second = _fresh(inp.workdir / "first"), _fresh(inp.workdir / "second")
    emitted = synthesis_cli(nd, inp, first, second, r)
    for scn, trc, false_neighbors in emitted:
        check_emitted(nd, scn, trc, false_neighbors, r)
    check_generic_plans(nd, plans, r)
    search(nd, SLICE_SEED, inp.search_count, r)


def synthesis_cli(nd, inp: SynthesisInputs, first: Path, second: Path, r: Round) -> list:
    """attack, witness and sweep, `check` on what they wrote, and a byte-identical rerun."""
    for out in (first, second):
        cli(nd, ["attack", str(inp.attack_scn), "--out-dir", str(out / "attack")], r, 0, "attack")
        cli(nd, ["sweep", str(inp.attack_scn), *inp.sweep_flags, "--out", str(out / "table.tsv")], r, 0, "sweep")
    cli(nd, ["attack", str(inp.wormhole_scn), "--variant", "wormhole", "--out-dir", str(first / "wormhole")], r, 0, "wormhole")
    emitted = [
        (first / "attack" / "attack.scn", first / "attack" / "relay.trc", 1),
        (first / "attack" / "honest.scn", first / "attack" / "base.trc", 0),
        (first / "wormhole" / "attack.scn", first / "wormhole" / "relay.trc", 1),
    ]
    for index, (scn, distance) in enumerate(inp.witness_scns):
        out = first / f"witness-{index}"
        cli(nd, ["witness", str(scn), "--distance", oracle.fmt(distance), "--out-dir", str(out), "--out", str(out / "report.txt")], r, 0, "witness")
        emitted.append((out / "witness.scn", out / "witness.trc", 0))
    reports = first / "checks"
    reports.mkdir()
    for index, (scn, trc, false_neighbors) in enumerate(emitted):
        code = 3 if false_neighbors else 0
        cli(nd, ["check", str(scn), str(trc), "--out", str(reports / f"{index}.txt")], r, code, scn.parent.name)
    one, two = tree_bytes(first), tree_bytes(second)
    for name in sorted(two):
        r.expect("cli.byte_identical", one.get(name), two[name], name)
    r.bytes_written += sum(len(b) for b in one.values()) + sum(len(b) for b in two.values())
    return emitted


def check_emitted(nd, scn: Path, trc: Path, false_neighbors: int, r: Round) -> None:
    """The dedicated stack on a file pair the CLI wrote."""
    with r.op("verdict"):
        scenario = nd.scenario.parse_scenario(_read(scn))
        trace = nd.scenario.parse_trace(_read(trc))
        setting, params = scenario.setting, scenario.params
        layers = [
            nd.core.check_setting_feasible(trace, setting, params),
            nd.attacks.protocol_verdict(trace, setting, scenario.protocol, params, scenario.inaccuracy),
            nd.adversary.check_adversary_feasible(trace, setting, params, scenario.adversary),
        ]
        r.expect("emitted.feasible", [], sum((rules_of(v) for v in layers), []), trc.parent.name)
        wrong = nd.attacks.check_neighbor_correctness(trace, setting)
        r.expect("emitted.false_neighbors", false_neighbors, len(wrong.violations), trc.parent.name)


WORKLOADS = {
    "check-large": Workload(setup_check_large, round_check_large),
    "soundness-corpus": Workload(setup_soundness, round_soundness),
    "synthesis-sweep": Workload(setup_synthesis, round_synthesis),
}
