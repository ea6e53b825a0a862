"""Each tests/golden/attacks case pins what `ndcheck attack` writes.

A case folder holds its input, ``input.scn``, and the command-line
arguments after it, ``args``.  Every other file in the folder is what

    ndcheck --format structured attack input.scn ARGS --out-dir OUT

leaves: the files written to OUT (``summary.json`` and, for a built
plan, ``honest.scn``, ``attack.scn``, ``base.trc`` and ``relay.trc``),
and ``result.txt``, the exit code on its first line followed by what the
command wrote to standard error.
"""

from pathlib import Path

import pytest

from ndcheck.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "attacks"
CASES = sorted(path.name for path in GOLDEN.iterdir() if path.is_dir())
INPUTS = {"input.scn", "args"}


@pytest.mark.parametrize("case", CASES)
def test_attack_outputs_match_golden(case, tmp_path, capsys, monkeypatch):
    folder = GOLDEN / case
    monkeypatch.chdir(folder)
    out = tmp_path / "out"
    args = (folder / "args").read_text(encoding="utf-8").split()
    code = main(["--format", "structured", "attack", "input.scn", *args, "--out-dir", str(out)])
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    written["result.txt"] = f"exit {code}\n{capsys.readouterr().err}".encode()
    expected = {
        path.name: path.read_bytes() for path in folder.iterdir() if path.name not in INPUTS
    }
    assert written == expected
