"""The benchmark's own tests, in smoke mode (tiny bounds, same checks).

    python3 -m pytest benchmark -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import jobs
import run
import worker  # puts src/ on sys.path
from tracer import Thinned, Tracer

from orbicount import cli


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_complete(workload, trace):
    res = result_of(
        bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
              "--trace", trace, "--smoke")
    )
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    units = run.LAYER_UNITS if trace == "1" else run.E2E_UNITS
    assert {k: m["unit"] for k, m in res["metrics"].items()} == units


def test_seed0_smoke_matches_reference():
    res = result_of(
        bench("--workload", "line", "--seed", "0", "--seconds", "0.1", "--trace", "0",
              "--smoke")
    )
    assert res["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "benchmark"), tmp_path / "benchmark")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "blowup", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_holds_the_readme_blowup_record():
    with open(worker.REFERENCE_PATH) as fh:
        ref = json.load(fh)["full"]["blowup"]["bu11_darmon"]
    assert [row[2] for row in ref.values()] == [9353, 115049, 1377497, 16165737]


def test_wrong_output_is_caught():
    plan = jobs.make_plan("blowup", 0, True, "unused.csv")
    passes = [worker.run_pass(plan, "unused.csv")]
    ref = worker.load_reference(plan)
    assert all(v is None for v in worker.check_passes(plan, passes, ref)[0])
    label, row = next(iter(ref["bu11_darmon"].items()))
    ref["bu11_darmon"][label] = [None, None, row[2] + 1]
    assert worker.check_passes(plan, passes, ref)[0][0] is not None


def test_float_tolerance():
    assert jobs.mismatch({"x": 1.0 + 1e-12}, {"x": 1.0}) is None
    assert jobs.mismatch({"x": 1.0 + 1e-8}, {"x": 1.0}) is not None
    assert jobs.mismatch([3], [4]) is not None


def test_plan_sizes_follow_the_seed():
    base = jobs.make_plan("line", 0, False, "c.csv")
    assert base.factors == [1.0] * len(base.jobs)
    assert "1000000,10000000,100000000" in base.argvs[0]
    again, other = (jobs.make_plan("line", 5, False, "c.csv") for _ in range(2))
    assert again.argvs == other.argvs
    assert all(1.0 <= f < 1.25 for f in other.factors)
    assert other.argvs != base.argvs


def test_thinned_sample_is_bounded_and_even():
    t = Thinned(8)
    for i in range(1000):
        t.offer((i,))
    assert len(t.items) < 8
    steps = {b[0] - a[0] for a, b in zip(t.items, t.items[1:])}
    assert steps == {t.stride}


def test_tracer_counts_blowup_pairs_and_restores_functions():
    from orbicount import arith, enumeration

    original = enumeration.distinct_primes
    tracer = Tracer()
    tracer.install()
    try:
        assert enumeration.distinct_primes is arith.distinct_primes is not original
        cli.main(["count", "--model", "blowup", "--m1", "2", "--m2", "1", "--grid", "1000",
                  "--mode", "campana", "--output", os.devnull])
    finally:
        tracer.uninstall()
    assert enumeration.distinct_primes is original
    m = tracer.metrics()
    # Mmax = floor(1000^(2/3)) = 100
    assert m["enumeration.blowup.pairs_visited"] == 100 * 101
    assert 0 < m["enumeration.blowup.pairs_admitted"] < 100 * 101
    assert m["arith.factorize.calls"] > 0
