"""Each demo's standard output matches its reference in tests/golden/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ndcheck

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_output_matches_golden(demo):
    # run the demo against the ndcheck these tests import
    paths = [str(Path(ndcheck.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, check=True, timeout=60
    )
    assert result.stdout == (GOLDEN / f"{demo.stem}.out").read_bytes()
