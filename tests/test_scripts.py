"""The experiment scripts run end to end on small bounds, print the counts
that ``count_points`` gives, and refuse a bound they cannot use with a usage
error, or one the package refuses with one error line."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from orbicount.enumeration import count_points
from orbicount.orbifold import PlaceSet, blowup_p2, projective_space

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


def test_recount_records_recounts_the_records_up_to_bmax():
    out = run_script("recount_records.py", "--bmax", "1e6")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 6 and all("  ok  (" in line for line in lines[:5])
    assert lines[-1].startswith("5 of ") and lines[-1].endswith(", 0 mismatched")


def test_recount_records_exits_1_on_a_mismatch(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import recount_records

    wrong = {"model": "p1", "params": {"m": 1}, "s_primes": [], "mode": "rational",
             "B": "10", "N": 124, "also_by": "none"}  # N(10) is 127
    records = tmp_path / "records.json"
    records.write_text(json.dumps({"records": [wrong]}))
    monkeypatch.setattr(recount_records, "RECORDS", records)
    monkeypatch.setattr(sys, "argv", ["recount_records.py", "--bmax", "10"])
    assert recount_records.main() == 1
    assert "N(10) = 127  MISMATCH, pinned 124" in capsys.readouterr().out


@pytest.mark.parametrize("bmax", ["0", "-5", "x"])
def test_recount_records_refuses_unusable_bmax(bmax):
    out = run_script("recount_records.py", "--bmax", bmax)
    assert out.returncode == 2 and out.stdout == ""
    assert "error: --bmax" in out.stderr and "Traceback" not in out.stderr


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


def _printed_counts(name, bmax):
    """(model, S, mode, B, N) for every N(B) = N that the script prints."""
    out = run_script(name, "--bmax", bmax)
    assert out.returncode == 0, out.stderr
    if name == "blowup_adjudication.py":
        rows = re.findall(r"^N\((\d+)\) = (\d+)", out.stdout, re.M)
        return [(blowup_p2(1, 1), PlaceSet.of(), "darmon", int(b), int(n)) for b, n in rows]
    rows = re.findall(r"^m=(\d+) (\w+), S=\{inf([\d,]*)\}: N\((\d+)\) = (\d+)", out.stdout, re.M)
    return [(projective_space(1, int(m)), PlaceSet.of([int(p) for p in s.split(",") if p]),
             mode, int(b), int(n)) for m, mode, s, b, n in rows]


@pytest.mark.parametrize("name, bmax, rows", [
    ("blowup_adjudication.py", "30000", 3),
    ("line_asymptotics.py", "3000", 5),
])
def test_printed_counts_equal_count_points(name, bmax, rows):
    printed = _printed_counts(name, bmax)
    assert len(printed) == rows
    for model, S, mode, B, n in printed:
        assert n == count_points(model, S, B, mode), (model.name, S, mode, B)


def test_line_asymptotics_refused_count_exits_3():
    # the Mertens sieve refuses B >= 2^56 at once
    out = run_script("line_asymptotics.py", "--bmax", "1e17")
    assert out.returncode == 3
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
