"""orbicount benchmark: three workloads through the public CLI entry point.

    python3 benchmark/run.py --workload {blowup,line,analytic} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics:
set-up (fresh interpreter to ready, several times), then one fresh worker
process that repeats the workload's job list for ``--seconds`` and checks
every output.  ``--trace 1`` runs untraced and traced passes in pairs and
reports the per-layer metrics (see tracer.py).  ``--smoke`` runs tiny
seed-jittered bounds with the same checks, for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a run
record go to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

import jobs  # noqa: E402  (benchmark-local module)

SETUP_RUNS = 7
SMOKE_SETUP_RUNS = 2
DEADLINE_S = 170.0  # the whole run, checks included

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed with the end-to-end metrics, but not in the result object: they
# are zero on some workloads.  The traced run reports constant_s and zeta_s,
# and error_rate is failed / attempted.
EXTRA_UNITS = {"constant_s": "s", "zeta_s": "s", "error_rate": "ratio"}
LAYER_UNITS = {
    "cli.self_s": "s",
    "enumeration.count_blowup.s": "s",
    "enumeration.blowup.pairs_visited": "count",
    "enumeration.blowup.pairs_admitted": "count",
    "enumeration.blowup.admit_ratio": "ratio",
    "enumeration.count_p1.s": "s",
    "enumeration.count_pn2.s": "s",
    "enumeration.denominators.s": "s",
    "enumeration.denominators.n": "count",
    "enumeration.per_q.s": "s",
    "enumeration.mobius.s": "s",
    "arith.factorize.calls": "count",
    "arith.factorize.small.ns_per_call": "ns",
    "arith.factorize.large.ns_per_call": "ns",
    "arith.count_coprime.calls": "count",
    "arith.count_coprime.ns_per_call": "ns",
    "arith.integer_kth_root.calls": "count",
    "arith.integer_kth_root.ns_per_call": "ns",
    "arith.is_kth_power.calls": "count",
    "arith.is_k_full.calls": "count",
    "arith.primes_up_to.s": "s",
    "arith.spf_table.s": "s",
    "localfactors.normalized_factor.calls": "count",
    "localfactors.normalized_factor.us_per_call": "us",
    "localfactors.denef_factor.calls": "count",
    "localfactors.archimedean.s": "s",
    "constants.leading_constant.s": "s",
    "constants.euler_product.self_s": "s",
    "constants.paper_values.s": "s",
    "fitting.zeta_line.s": "s",
    "fitting.zeta_blowup.s": "s",
    "fitting.fit_counts.s": "s",
    "trace.overhead_s": "s",
    "constant_s": "s",
    "zeta_s": "s",
}


class BenchError(Exception):
    pass


def remaining(start: float) -> float:
    left = DEADLINE_S - (perf_counter() - start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def setup_probe(start: float) -> float:
    """Seconds from a fresh interpreter until the CLI is ready, at nominal
    machine speed (see speed.py)."""
    proc = subprocess.run(
        [sys.executable, WORKER, "setup"],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
        timeout=remaining(start),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("set-up probe failed")
    return json.loads(proc.stdout)["ready_s"]


def run_worker(cfg: dict, start: float) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, "run", json.dumps(cfg)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
        timeout=remaining(start),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    start = perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "orbicount", "cli.py")):
        print("error: run from a checkout that holds src/orbicount", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    cfg = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "out_dir": OUT_DIR,
        "spans_path": os.path.join(OUT_DIR, f"spans-{tag}.jsonl.gz"),
    }
    try:
        n_setup = 0 if args.trace else SMOKE_SETUP_RUNS if args.smoke else SETUP_RUNS
        setups = [setup_probe(start) for _ in range(n_setup)]
        res = run_worker(cfg, start)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print("error: out of time", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = res["checks"]
    header = {
        "seed": args.seed,
        "workload": args.workload,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        **res["versions"],
    }
    print("run: " + json.dumps(header))
    for row, job, note in jobs.BASELINE_ROWS:
        print(f"baseline row: {row} -> {job} ({note})")
    for argv_, wall in zip(res["argvs"], res["job_wall"].values()):
        print(f"job {wall:8.3f} s  {' '.join(argv_)}")
    for problem in checks["problems"]:
        print(f"FAILED: {problem}")
    error_rate = checks["failed"] / checks["attempted"]
    if args.trace:
        metrics = {k: metric(res["layer"][k], u) for k, u in LAYER_UNITS.items()}
        for name, counts in res["per_job"].items():
            print(f"trace {name}: {json.dumps(counts)}")
    else:
        values = {
            "wall_s": statistics.median(res["pass_wall"]),
            "cpu_s": statistics.median(res["pass_cpu"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {k: metric(values[k], u) for k, u in E2E_UNITS.items()}
        extra = {"constant_s": res["constant_s"], "zeta_s": res["zeta_s"], "error_rate": error_rate}
        for k, u in EXTRA_UNITS.items():
            print(f"metric {k} = {extra[k]:.6g} {u}")
    for k, m in metrics.items():
        print(f"metric {k} = {m['value']:.6g} {m['unit']}")
    print(f"passes {res['passes']}, error_rate {error_rate:.3g}")
    record = {"header": header, "setup_s": setups, "worker": res, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
