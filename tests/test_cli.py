import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ndcheck import Scenario, save_scenario, save_trace
from ndcheck import cli
from ndcheck.cli import main
from ndcheck.generators import make_ordering_corpus

F = Fraction

RADIO = """\
[params]
v = 300000000
v_adv = 300000000
nd_range = 100
delta_relay = 1/25000000
msg_duration_default = 1/1000000

[node A]
x = 0
y = 0
type = correct

[node B]
x = 100
y = 0
type = correct

[link A <-> B]
up = 0:inf

[protocol]
name = pt

[adversary]
name = relay

[run]
horizon = 10
"""


@pytest.fixture
def radio_scenario(tmp_path):
    path = tmp_path / "radio.scn"
    path.write_text(RADIO)
    return path


def run(args):
    return main([str(a) for a in args])


def test_attack_then_check_exit_codes(tmp_path, radio_scenario, capsys):
    out = tmp_path / "out"
    assert run(["attack", radio_scenario, "--out-dir", out]) == 0
    capsys.readouterr()
    assert run(["check", out / "honest.scn", out / "base.trc"]) == 0
    assert run(["check", out / "attack.scn", out / "relay.trc"]) == 3
    # trace/scenario mixups are feasibility violations
    assert run(["check", out / "attack.scn", out / "base.trc"]) == 2


def test_attack_writes_summary_and_files(tmp_path, radio_scenario, capsys):
    out = tmp_path / "out"
    run(["--format", "structured", "attack", radio_scenario, "--out-dir", out])
    capsys.readouterr()
    for name in ("honest.scn", "attack.scn", "base.trc", "relay.trc", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["feasible"] is True
    assert summary["false_neighbors"] == 1
    assert summary["checks"]["views_equal"] is True
    assert summary["deltas"]["relay_gap"] == "1/25000000"


def test_attack_infeasible_exit_4(tmp_path, capsys):
    text = RADIO.replace("delta_relay = 1/25000000", "delta_relay = 1/3000000")
    scn = tmp_path / "slow.scn"
    scn.write_text(text)
    out = tmp_path / "out"
    assert run(["attack", scn, "--out-dir", out]) == 4
    captured = capsys.readouterr().out
    assert "feasible: False" in captured
    assert (out / "summary.txt").exists()


def test_attack_pgt_exact_infeasible(tmp_path, capsys):
    text = RADIO.replace("name = pt", "name = pgt").replace(
        "delta_relay = 1/25000000", "delta_relay = 1/1000000000"
    )
    scn = tmp_path / "pgt.scn"
    scn.write_text(text)
    assert run(["attack", scn, "--out-dir", tmp_path / "out"]) == 4


def test_malformed_scenario_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(RADIO.replace("delta_relay = 1/25000000", "delta_relay = 3/0"))
    assert run(["check", bad, bad]) == 1
    assert "delta_relay" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["trace", "params"])
def test_scalars_too_long_written_out_exit_1(tmp_path, radio_scenario, capsys, where):
    """A scalar that would be written back longer than any scalar the
    parser reads is rejected on input, with a bounded echo of its text."""
    scn, trc = radio_scenario, tmp_path / "tiny.trc"
    trc.write_text("bcast A 0 beacon-t:A:0:1/1000000\n")
    if where == "trace":
        trc.write_text("bcast A 1e-999 beacon-t:A:0:1\n")
    else:
        scn = tmp_path / "tiny.scn"
        scn.write_text(RADIO.replace("delta_relay = 1/25000000", "delta_relay = 1e-999"))
    assert run(["check", scn, trc]) == 1
    err = capsys.readouterr().err
    assert "invalid scalar '1e-999': written out it could take 1002 characters, over 1000" in err
    assert len(err) < 200


def test_witness_flow(tmp_path, radio_scenario, capsys):
    out = tmp_path / "wit"
    assert run(["witness", radio_scenario, "--distance", "100", "--out-dir", out]) == 0
    capsys.readouterr()
    assert run(["check", out / "witness.scn", out / "witness.trc"]) == 0
    assert run(["witness", radio_scenario, "--distance", "200", "--out-dir", out]) == 4
    assert run(["witness", radio_scenario, "--distance", "50", "--out-dir", out]) == 0


def test_sweep_rows_and_flip(tmp_path, radio_scenario):
    table = tmp_path / "table.tsv"
    assert (
        run(
            [
                "sweep",
                radio_scenario,
                "--vary",
                "delta_relay",
                "--from",
                "0",
                "--to",
                "4/10000000",
                "--step",
                "1/100000000",
                "--out",
                table,
            ]
        )
        == 0
    )
    lines = table.read_text().splitlines()
    assert len(lines) == 42  # header + 41 rows for 0..400ns by 10ns
    header = lines[0].split("\t")
    attack_col = header.index("single_relay_attack")
    value_col = header.index("value")
    feasible_values = [
        row.split("\t")[value_col]
        for row in lines[1:]
        if row.split("\t")[attack_col] == "yes"
    ]
    # threshold is 100m/c = 1/3 us; the last feasible row is 330ns, 340ns flips
    assert feasible_values[-1] == "33/100000000"
    assert len(feasible_values) == 34


def test_sweep_rejects_reversed_range(tmp_path, radio_scenario, capsys):
    assert (
        run(
            [
                "sweep",
                radio_scenario,
                "--from",
                "2",
                "--to",
                "1",
                "--step",
                "1",
            ]
        )
        == 1
    )


def test_sweep_single_point(tmp_path, radio_scenario, capsys):
    assert (
        run(["sweep", radio_scenario, "--from", "0", "--to", "0", "--step", "1"]) == 0
    )
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 2


def test_order_inclusion_and_counterexample(tmp_path, unit_params, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    from ndcheck import AdversaryModel

    entries = make_ordering_corpus(seed=21, size=8, params=unit_params)
    for index, (trace, setting, tag) in enumerate(entries):
        scenario = Scenario(
            unit_params,
            setting,
            "pt",
            AdversaryModel("relay", unit_params.delta_relay),
            None,
            F(100),
        )
        save_scenario(corpus_dir / f"{index:03d}-{tag}.scn", scenario)
        save_trace(corpus_dir / f"{index:03d}-{tag}.trc", trace)

    assert (
        run(["order", corpus_dir, "--weaker", "relay-local", "--stronger", "relay"]) == 0
    )
    assert run(["order", corpus_dir, "--weaker", "relay", "--stronger", "dy-t"]) == 0
    assert (
        run(
            [
                "order",
                corpus_dir,
                "--weaker",
                "relay-bcast",
                "--stronger",
                "relay",
                "--rename",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        run(["order", corpus_dir, "--weaker", "dy-t", "--stronger", "relay-local"]) == 2
    )
    out = capsys.readouterr().out
    assert "authored" in out


def test_order_missing_trace_exit_1(tmp_path, radio_scenario, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "lonely.scn").write_text(RADIO)
    assert (
        run(["order", corpus_dir, "--weaker", "relay", "--stronger", "dy-t"]) == 1
    )


@pytest.mark.parametrize("command", ["check", "sweep", "order", "attack", "witness"])
def test_unwritable_output_path_exit_1(tmp_path, radio_scenario, capsys, command):
    wit = tmp_path / "wit"
    run(["witness", radio_scenario, "--distance", "80", "--out-dir", wit])
    missing = tmp_path / "missing" / "report.txt"
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    argv = {
        "check": ["--out", missing, "check", wit / "witness.scn", wit / "witness.trc"],
        "sweep": [
            "--out",
            missing,
            "sweep",
            radio_scenario,
            "--from",
            "0",
            "--to",
            "1/10000000",
            "--step",
            "1/10000000",
        ],
        "order": ["--out", missing, "order", wit, "--weaker", "relay", "--stronger", "dy-t"],
        "attack": ["attack", radio_scenario, "--out-dir", a_file],
        "witness": ["witness", radio_scenario, "--distance", "80", "--out-dir", a_file],
    }[command]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not missing.parent.exists()


def test_outputs_byte_identical_across_runs(tmp_path, radio_scenario, capsys):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run(["--format", "structured", "attack", radio_scenario, "--out-dir", out1])
    run(["--format", "structured", "attack", radio_scenario, "--out-dir", out2])
    capsys.readouterr()
    for name in ("honest.scn", "attack.scn", "base.trc", "relay.trc", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_check_report_to_file(tmp_path, radio_scenario, capsys):
    out = tmp_path / "wit"
    run(["witness", radio_scenario, "--distance", "80", "--out-dir", out])
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert (
        run(
            [
                "--format",
                "structured",
                "--out",
                report,
                "check",
                out / "witness.scn",
                out / "witness.trc",
            ]
        )
        == 0
    )
    data = json.loads(report.read_text())
    assert data["result"] == "ok"
    assert data["setting_feasible"]["ok"] is True


def test_approx_mode_scenario_with_irrational_geometry(tmp_path, capsys):
    text = RADIO.replace("x = 100\ny = 0", "x = 70\ny = 70").replace(
        "name = pt", "name = naive"
    )
    scn = tmp_path / "diag.scn"
    scn.write_text(text)
    trc = tmp_path / "diag.trc"
    # arrival computed at float precision for the sqrt(9800) meter diagonal
    arrival = (70 * 2**0.5) / 300000000
    trc.write_text(
        "bcast B 0 opaque:id-B:1/1000000\n"
        "receive B 0 B opaque:id-B:1/1000000\n"
        f"receive A {Fraction(arrival).limit_denominator(10**15)} B opaque:id-B:1/1000000\n"
    )
    assert run(["check", scn, trc]) == 1  # exact mode refuses the geometry
    capsys.readouterr()
    assert run(["--approx", "1/1000000000", "check", scn, trc]) == 0


def test_coordinates_beyond_float_range(tmp_path, capsys):
    """Exact mode stays exact at any scale; approximate mode reports the
    overflow as an error naming the distance's two nodes, not a traceback."""
    scn = tmp_path / "far.scn"
    far = "x = 1e400\ny = 0\ntype = adversarial"
    scn.write_text(RADIO.replace("x = 100\ny = 0\ntype = correct", far))
    msg = "opaque:x:1/1000000"
    arrival = Fraction(10**400, 300000000)
    trc = tmp_path / "far.trc"
    # B casts back at A over a sector whose rays are not quarter turns
    trc.write_text(
        f"dcast B 0 3/4 1/2 {msg}\n"
        f"receive B 0 B {msg}\n"
        f"receive A {arrival.numerator}/{arrival.denominator} B {msg}\n"
    )
    report = tmp_path / "report.json"
    assert run(["--format", "structured", "--out", report, "check", scn, trc]) == 2
    data = json.loads(report.read_text())
    assert data["setting_feasible"]["ok"] is True
    assert [v["rule"] for v in data["adversary_feasible"]["violations"]] == ["relay-unjustified"]
    capsys.readouterr()
    assert run(["--approx", "1/1000", "check", scn, trc]) == 1
    assert capsys.readouterr().err == (
        "error: distance A-B is beyond float range in approximate mode\n"
    )


@pytest.mark.parametrize("v_adv", ["300000000", "1e-997"])
def test_speed_that_rounds_to_zero_in_approximate_mode(tmp_path, capsys, v_adv):
    """Exact mode checks as usual; approximate mode, where v = 1e-997
    rounds to 0.0, reports the speed as an error, not a traceback."""
    scn = tmp_path / "slow.scn"
    scn.write_text(
        RADIO.replace("v = 300000000\nv_adv = 300000000", f"v = 1e-997\nv_adv = {v_adv}")
    )
    trc = tmp_path / "slow.trc"
    trc.write_text("bcast B 0 opaque:id-B:1/1000000\nreceive B 0 B opaque:id-B:1/1000000\n")
    assert run(["check", scn, trc]) == 2
    capsys.readouterr()
    assert run(["--approx", "1/1000", "check", scn, trc]) == 1
    assert capsys.readouterr().err == "error: speed v rounds to 0.0 in approximate mode\n"


def test_generated_worlds_survive_the_full_file_loop(tmp_path, capsys):
    """serialize -> parse -> check returns clean for generator output."""
    import random

    from ndcheck import AdversaryModel
    from ndcheck.generators import random_params, random_setting, random_trace

    rng = random.Random(31337)
    horizon = Fraction(40)
    for index in range(25):
        params = random_params(rng, delta_at_least_threshold=True, equal_speeds=False)
        setting = random_setting(rng, horizon)
        trace = random_trace(rng, setting, params, "pt", "dy-t", horizon)
        scenario = Scenario(
            params,
            setting,
            "pt",
            AdversaryModel("dy-t", params.delta_relay),
            None,
            horizon,
        )
        scn = tmp_path / f"world-{index}.scn"
        trc = tmp_path / f"world-{index}.trc"
        save_scenario(scn, scenario)
        save_trace(trc, trace)
        assert run(["check", scn, trc]) == 0, index
    capsys.readouterr()


def test_witness_with_slack_tolerant_protocol(tmp_path, capsys):
    text = RADIO.replace(
        "name = pt", "name = pgt-approx\ndelta = 1/100000000\ntau = 0"
    )
    scn = tmp_path / "approx.scn"
    scn.write_text(text)
    out = tmp_path / "wit"
    assert run(["witness", scn, "--distance", "60", "--out-dir", out]) == 0
    capsys.readouterr()
    assert run(["check", out / "witness.scn", out / "witness.trc"]) == 0


def test_attack_from_scenario_with_bystander_adversary(tmp_path, capsys):
    # extra adversarial nodes in the input scenario do not disturb the
    # canonical re-staging, which only uses the correct pair's distance
    text = RADIO.replace(
        "[protocol]",
        "[node M]\nx = 30\ny = 0\ntype = adversarial\n\n[protocol]",
    )
    scn = tmp_path / "bystander.scn"
    scn.write_text(text)
    out = tmp_path / "out"
    assert run(["attack", scn, "--out-dir", out]) == 0
    capsys.readouterr()
    assert run(["check", out / "attack.scn", out / "relay.trc"]) == 3


def test_attack_builds_pgt_approx_wormhole(tmp_path, capsys):
    """The wormhole variant works for the slack-tolerant protocol too: the
    relayed run is a feasible attack and the honest run checks clean."""
    text = RADIO.replace("name = pt", "name = pgt-approx\ndelta = 1/100\ntau = 0")
    scn = tmp_path / "combo.scn"
    scn.write_text(text)
    out = tmp_path / "o"
    assert run(["attack", scn, "--variant", "wormhole", "--out-dir", out]) == 0
    assert run(["check", out / "attack.scn", out / "relay.trc"]) == 3
    assert run(["check", out / "honest.scn", out / "base.trc"]) == 0
    assert capsys.readouterr().err == ""


RULES = Path(__file__).resolve().parent / "golden" / "rules"
RULE_CASES = sorted(path.stem for path in RULES.glob("*.scn"))


@pytest.mark.parametrize("approx", [None, "1/1000"])
@pytest.mark.parametrize("case", RULE_CASES)
def test_direct_route_rules_match_golden_reports(case, approx, capsys, monkeypatch):
    """Each tests/golden/rules pair triggers one protocol rule; its check
    report, exact and under --approx 1/1000, is the one kept beside it."""
    monkeypatch.chdir(RULES)
    argv = ["check", f"{case}.scn", f"{case}.trc"]
    assert run(argv if approx is None else ["--approx", approx] + argv) == 2
    golden = f"{case}.out" if approx is None else f"{case}.approx.out"
    assert capsys.readouterr().out == (RULES / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--bogus", "a", "b"],
        [],
        ["sweep", "S", "--vary", "nope", "--from", "0", "--to", "1", "--step", "1"],
        ["--format", "xml", "check", "a", "b"],
        ["check", "a"],
    ],
    ids=["unknown-flag", "no-subcommand", "invalid-choice", "invalid-format", "missing-argument"],
)
def test_usage_errors_exit_1_with_usage(argv, capsys):
    """Exit 2 means a feasibility violation; a usage error is an input error."""
    with pytest.raises(SystemExit) as stop:
        run(argv)
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ndcheck") and "error: " in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        run(["check", "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ndcheck check")


def _exit_code(argv):
    """main's exit code, or the code of the SystemExit a usage error or
    --help raises."""
    try:
        return run(argv)
    except SystemExit as stop:
        return stop.code


def test_main_builds_the_parser_once(tmp_path, radio_scenario, capsys, monkeypatch):
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build)
    wit = tmp_path / "wit"
    assert run(["witness", radio_scenario, "--distance", "80", "--out-dir", wit]) == 0
    assert run(["check", wit / "witness.scn", wit / "witness.trc"]) == 0
    sweep = ["sweep", radio_scenario, "--from", "0", "--to", "1/10000000", "--step", "1/10000000"]
    assert run(sweep) == 0
    assert _exit_code(["check", "--bogus", "a", "b"]) == 1
    assert _exit_code(["check", "--help"]) == 0
    capsys.readouterr()
    assert len(builds) == 1


# each run's working directory holds RADIO as radio.scn and, as diag.scn and
# diag.trc, a pair whose irrational distance only approximate mode accepts
DIAG_ARRIVAL = Fraction((70 * 2**0.5) / 300000000).limit_denominator(10**15)
DIAG_TRACE = (
    "bcast B 0 opaque:id-B:1/1000000\n"
    "receive B 0 B opaque:id-B:1/1000000\n"
    f"receive A {DIAG_ARRIVAL} B opaque:id-B:1/1000000\n"
)
WITNESS = ["wit/witness.scn", "wit/witness.trc"]
SHARED_PARSER_SEQUENCE = [
    ["witness", "radio.scn", "--distance", "80", "--out-dir", "wit"],
    ["--format", "structured", "check", *WITNESS],
    ["check", "--format", "structured", *WITNESS],
    ["check", *WITNESS],
    ["--out", "top.txt", "check", *WITNESS],
    ["check", *WITNESS, "--out", "sub.txt"],
    ["check", *WITNESS],
    ["--approx", "1/1000", "check", "diag.scn", "diag.trc"],
    ["check", "diag.scn", "diag.trc"],
    ["check", "--bogus", "a", "b"],
    ["--format", "structured", "order", "wit", "--weaker", "relay", "--stronger", "dy-t"],
    ["order", "wit", "--weaker", "relay", "--stronger", "dy-t"],
    ["attack", "radio.scn", "--variant", "wormhole", "--out-dir", "worm"],
    ["attack", "radio.scn", "--out-dir", "single"],
    ["sweep", "radio.scn", "--from", "0", "--to", "1/10000000", "--step", "1/10000000"],
]


def _run_sequence(workdir, fresh, capsys, monkeypatch):
    """Exit code, stdout and stderr of each command of the sequence, and the
    bytes of every file it wrote, run in workdir; with fresh=True each
    command gets a newly built parser."""
    workdir.mkdir()
    (workdir / "radio.scn").write_text(RADIO)
    (workdir / "diag.scn").write_text(
        RADIO.replace("x = 100\ny = 0", "x = 70\ny = 70").replace("name = pt", "name = naive")
    )
    (workdir / "diag.trc").write_text(DIAG_TRACE)
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    runs = []
    for argv in SHARED_PARSER_SEQUENCE:
        if fresh:
            cli._parser.cache_clear()
        code = _exit_code(argv)
        captured = capsys.readouterr()
        runs.append((argv, code, captured.out, captured.err))
    files = {
        str(path.relative_to(workdir)): path.read_bytes()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }
    return runs, files


def test_runs_on_a_shared_parser_match_runs_on_fresh_ones(tmp_path, capsys, monkeypatch):
    fresh = _run_sequence(tmp_path / "fresh", True, capsys, monkeypatch)
    cli._parser.cache_clear()
    shared = _run_sequence(tmp_path / "shared", False, capsys, monkeypatch)
    assert shared == fresh
    runs, files = fresh
    codes = [code for _, code, _, _ in runs]
    # the exact run after an approximate one refuses the irrational distance,
    # and the usage error in between exits 1
    assert codes[7:10] == [0, 1, 1]
    structured, text = runs[2][2], runs[3][2]
    assert json.loads(structured)["result"] == "ok" and text.startswith("scenario: ")
    assert {"top.txt", "sub.txt", "worm/summary.txt", "single/summary.txt"} <= set(files)


def test_main_without_argv_reads_each_call_s_sys_argv(tmp_path, radio_scenario, capsys, monkeypatch):
    out = tmp_path / "wit"
    assert run(["witness", radio_scenario, "--distance", "80", "--out-dir", out]) == 0
    pair = [str(out / "witness.scn"), str(out / "witness.trc")]
    argvs = (["--format", "structured", "check", *pair], ["check", *pair])
    capsys.readouterr()
    expected = []
    for argv in argvs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)
    got = []
    for argv in argvs:
        monkeypatch.setattr(sys, "argv", ["ndcheck", *argv])
        assert main() == 0
        got.append(capsys.readouterr().out)
    assert got == expected
    assert json.loads(got[0])["result"] == "ok"
    assert got[1].startswith("scenario: ")


LINK ="[link A <-> B]\nup = 0:inf"
NODE_C = "[node C]\nx = 50\ny = 120\ntype = correct\n\n[protocol]"
NO_NODES = RADIO[: RADIO.index("[node A]")] + RADIO[RADIO.index("[protocol]"):]
LONG_ID = "C" * 3000  # a valid node id of any length is accepted
ONES = "1" * 900
# case: (text of RADIO, what replaces it, the error reported)
MALFORMED_SCENARIOS = {
    "phase-without-colon": (
        "up = 0:inf", "up = 0", "[link A <-> B] up: interval '0' is not start:end"
    ),
    "syntax": ("[run]", "[run]\nhorizon = 1\n\n[run]", "line 30: repeated section '[run]'"),
    "duplicate-node": (
        "[node B]", "[node  A]\nx = 5\ny = 0\ntype = correct\n\n[node B]", "duplicate node 'A'"
    ),
    "link-without-arrow": (
        "[link A <-> B]", "[link A B]", "[link A B]: expected 'A -> B' or 'A <-> B'"
    ),
    "link-twice": (
        LINK, f"{LINK}\n\n[link A -> B]\nup = 0:inf", "duplicate link declaration ('A', 'B')"
    ),
    "self-link": (
        "[link A <-> B]",
        "[link A -> A]",
        "[link A -> A]: self-links are implicit and may not be declared",
    ),
    "two-way-self-link": (
        "[link A <-> B]",
        "[link A <-> A]",
        "[link A <-> A]: self-links are implicit and may not be declared",
    ),
    "no-nodes": (RADIO, NO_NODES, "no nodes declared"),
    "pgt-approx-without-slack": (
        "name = pt", "name = pgt-approx", "[protocol] pgt-approx requires delta and tau keys"
    ),
    "negative-adversary-delta": (
        "name = relay", "name = relay\ndelta_relay = -1", "[adversary]: delta_relay must be >= 0"
    ),
    "slow-adversary": ("v_adv = 300000000", "v_adv = 1", "[params]: v_adv must be >= v"),
    "zero-range": ("nd_range = 100", "nd_range = 0", "[params]: nd_range must be > 0"),
    "negative-delta": (
        "delta_relay = 1/25000000", "delta_relay = -1", "[params]: delta_relay must be >= 0"
    ),
    "zero-duration": (
        "msg_duration_default = 1/1000000",
        "msg_duration_default = 0",
        "[params]: msg_duration_default must be > 0",
    ),
    "negative-phase": (
        "up = 0:inf", "up = -1:inf", "[link A <-> B] up: link interval start must be >= 0"
    ),
    "overlapping-phases": (
        "up = 0:inf", "up = 0:5, 3:8", "[link A <-> B] up: overlapping link intervals"
    ),
    "shared-location": ("x = 100", "x = 0", "nodes 'A' and 'B' share location (0, 0)"),
    # forms outside the closed grammar; an INI reader accepts most of them,
    # so a misspelled section or key would give a verdict on a setting the
    # user did not write
    "misspelled-section": (
        "[link A <-> B]", "[lnk A <-> B]", "line 18: unknown section '[lnk A <-> B]'"
    ),
    "misspelled-key": (
        "name = relay",
        "name = relay\ndelta_rlay = 5",
        "line 26: unknown adversary key 'delta_rlay'",
    ),
    "repeated-key": ("x = 100", "x = 100\nx = 5", "line 15: repeated node key 'x'"),
    "default-section": (
        "[params]", "[DEFAULT]\nv = 1\n\n[params]", "line 1: unknown section '[DEFAULT]'"
    ),
    "continuation-line": ("up = 0:inf", "up = 0:5,\n  6:inf", "line 20: indented line '6:inf'"),
    "text-after-header": (
        "[run]",
        "[run] now",
        "line 27: expected [section], key = value or a comment, got '[run] now'",
    ),
    "key-of-another-protocol": (
        "name = pt", "name = pt\ndelta = 1/100", "line 23: protocol pt takes no key 'delta'"
    ),
    "overlong-line": (
        "[params]",
        "[params]\n" + "x" * 3000,
        "line 2: expected [section], key = value or a comment, got "
        f"{'x' * 64!r}... (3000 characters)",
    ),
    "overlong-node-id": (
        "[protocol]",
        f"[node {LONG_ID}]\nx = 50\ny = 120\ntype = bogus\n\n[protocol]",
        f"{'[node ' + LONG_ID[:58]!r}... (3007 characters) type must be correct or adversarial",
    ),
    "overlong-shared-location": (
        "x = 0\ny = 0\ntype = correct\n\n[node B]\nx = 100",
        f"x = {ONES}\ny = 0\ntype = correct\n\n[node B]\nx = {ONES}",
        f"nodes 'A' and 'B' share location ({ONES[:64]}... (900 characters), 0)",
    ),
    "overlong-undeclared-id": (
        LINK,
        f"[link A -> {LONG_ID}]\nup = 0:inf\n\n{LINK}",
        f"link references undeclared node {LONG_ID[:64]!r}... (3000 characters)",
    ),
}
# case: (the trace's one line, the error reported)
MALFORMED_TRACES = {
    "location-without-comma": (
        "bcast A 0 beacon-tl:A:0:00:1",
        "line 1: bad message 'beacon-tl:A:0:00:1': location must be x,y",
    ),
    "wide-angle": ("dcast A 0 0 3 opaque:tok:1", "line 1: angle must be in (0, 2] (units of pi)"),
}


def _malformed_argv(case, tmp_path):
    """The command line of one malformed-input case and the error it must report."""
    scn, trc = tmp_path / "case.scn", tmp_path / "case.trc"
    scn.write_text(RADIO)
    trc.write_text("")
    if case in MALFORMED_SCENARIOS:
        old, new, message = MALFORMED_SCENARIOS[case]
        scn.write_text(RADIO.replace(old, new, 1))
        return ["check", scn, trc], message
    if case in MALFORMED_TRACES:
        line, message = MALFORMED_TRACES[case]
        trc.write_text(line + "\n")
        return ["check", scn, trc], message
    out, corpus = tmp_path / "out", tmp_path / "corpus"
    corpus.mkdir()
    if case == "relay-at-alone":
        return ["attack", scn, "--relay-at", "50", "--out-dir", out], (
            "single-relay placement needs both --attack-distance and --relay-at"
        )
    if case == "wormhole-near-a-alone":
        return ["attack", scn, "--variant", "wormhole", "--near-a", "10", "--out-dir", out], (
            "wormhole placement needs --attack-distance, --near-a and --near-b"
        )
    if case == "three-correct-nodes":
        scn.write_text(RADIO.replace("[protocol]", NODE_C))
        return ["attack", scn, "--out-dir", out], (
            "attack synthesis needs exactly two correct nodes, found 3"
        )
    order = ["order", corpus, "--weaker", "relay", "--stronger", "dy-t"]
    if case == "order-empty":
        return order, f"no .scn files in {corpus}"
    (corpus / "a.scn").write_text(RADIO)
    (corpus / "a.trc").write_text("")
    if case == "order-differing-params":
        (corpus / "b.scn").write_text(RADIO.replace("nd_range = 100", "nd_range = 50"))
        (corpus / "b.trc").write_text("")
        return order, "b: corpus parameters differ"
    assert case == "order-infeasible"
    (corpus / "a.trc").write_text("receive A 5 B opaque:x:1/1000000\n")
    return order, "a: trace is not feasible for its setting"


CLI_CASES = [
    "relay-at-alone",
    "wormhole-near-a-alone",
    "three-correct-nodes",
    "order-empty",
    "order-differing-params",
    "order-infeasible",
]


@pytest.mark.parametrize("case", [*MALFORMED_SCENARIOS, *MALFORMED_TRACES, *CLI_CASES])
def test_malformed_inputs_exit_1_with_one_error_line(case, tmp_path, capsys):
    argv, message = _malformed_argv(case, tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.out
    if case.startswith("overlong"):
        assert len(captured.err.encode()) < 200
