"""The experiment scripts run end to end on small bounds, and refuse a bound
they cannot use with a usage error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name, bmax", [
    ("blowup_adjudication.py", "1e5"),
    ("line_asymptotics.py", "1e4"),
])
def test_script_runs(name, bmax):
    out = run_script(name, "--bmax", bmax)
    assert out.returncode == 0, out.stderr
    assert out.stdout and "Traceback" not in out.stderr


@pytest.mark.parametrize("bmax", ["1e4", "500", "x"])
def test_blowup_adjudication_refuses_small_bmax(bmax):
    out = run_script("blowup_adjudication.py", "--bmax", bmax)
    assert out.returncode == 2 and out.stdout == ""
    assert "error: --bmax" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("bmax", ["0", "-5", "x"])
def test_line_asymptotics_refuses_unusable_bmax(bmax):
    out = run_script("line_asymptotics.py", "--bmax", bmax)
    assert out.returncode == 2 and out.stdout == ""
    assert "error: --bmax" in out.stderr and "Traceback" not in out.stderr
