"""One workload in one fresh process.

    python3 benchmark/worker.py setup
        import orbicount.cli, build the lazy tables, print one JSON line.
    python3 benchmark/worker.py run '<config json>'
        timed passes (or untraced/traced pass pairs), then the checks;
        prints one JSON result line.

Every job goes through the public entry point ``orbicount.cli.main(argv)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402  (benchmark-local modules)
from speed import SpeedSampler  # noqa: E402

# Oracle cross-check bounds: small enough for the point-by-point oracles.
ORACLE_B = {"p1": (40, 80), "pn": (5, 8), "blowup": (40, 90)}
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def warm_up() -> dict:
    """Import the CLI and build what it builds lazily: the smallest-prime-factor
    table and mpmath's first local factor.  ``ready_s`` is at nominal speed."""
    laps = []
    t0 = perf_counter()
    with SpeedSampler() as sampler:
        import orbicount.cli  # noqa: F401
        from orbicount import arith, localfactors, orbifold

        laps.append(perf_counter() - t0)
        arith._spf_table()
        laps.append(perf_counter() - t0)
        localfactors.normalized_factor(orbifold.projective_space(1, 2), 2, 1.5)
    laps.append(perf_counter() - t0)
    return {
        "import_s": laps[0],
        "spf_table_s": laps[1] - laps[0],
        "mpmath_s": laps[2] - laps[1],
        "ready_s": sampler.correct(laps[2]),
    }


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(argv, csv_path, job):
    """Runs one job; ``wall`` and ``cpu`` are at nominal machine speed (see
    speed.py), ``wall_raw`` as measured."""
    from orbicount import cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    w0, c0 = perf_counter(), process_time()
    with SpeedSampler() as sampler:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # a failing job is counted, not fatal
            rc, error = None, repr(exc)
    wall, cpu = perf_counter() - w0, process_time() - c0
    text = out.getvalue()
    if job.csv_out and rc == 0:
        with open(csv_path) as fh:
            text = fh.read()
    if rc != 0 and error is None:
        error = f"exit {rc}: {err.getvalue().strip()}"
    return {
        "wall": sampler.correct(wall),
        "cpu": sampler.correct(cpu),
        "wall_raw": wall,
        "text": text,
        "error": error,
    }


def run_pass(plan, csv_path, tracer=None):
    results = []
    for k, (job, argv) in enumerate(zip(plan.jobs, plan.argvs)):
        if tracer is not None:
            tracer.job = k
        rss = rss_mb()
        results.append(run_job(argv, csv_path, job))
        results[-1]["rss_growth_mb"] = rss_mb() - rss
    return results


def pass_time(plan, results, key="wall"):
    """Seconds of one pass at seed-0 size and nominal machine speed."""
    return jobs.scaled(plan, [r[key] for r in results])


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def check_passes(plan, passes, reference):
    """Per job execution: None when it is correct, else the reason."""
    first = passes[0]
    verdicts = []
    for p in passes:
        row = []
        for k, job in enumerate(plan.jobs):
            res = p[k]
            problem = res["error"]
            if problem is None and res["text"] != first[k]["text"]:
                problem = "output differs from the first pass"
            if problem is None:
                try:
                    parsed = jobs.parse_output(res["text"])
                except ValueError as exc:
                    parsed, problem = None, str(exc)
            if problem is None:
                problem = jobs.invariant_problem(job, parsed)
            if problem is None and reference is not None:
                want = reference.get(job.name)
                problem = (
                    "no reference output" if want is None else jobs.mismatch(parsed, want)
                )
            row.append(problem)
        verdicts.append(row)
    return verdicts


def check_constants(plan, passes, csv_path):
    """Every truncated constant lies within its tail bound of --method exact."""
    problems = []
    for k, job in enumerate(plan.jobs):
        if job.kind != "constant" or passes[0][k]["error"]:
            continue
        argv = [a for a in plan.argvs[k] if a != "--paper-values"]
        argv[argv.index("truncated")] = "exact"
        exact = run_job(argv, csv_path, job)
        if exact["error"]:
            problems.append(f"{job.name} exact: {exact['error']}")
            continue
        t = json.loads(passes[0][k]["text"])
        e = json.loads(exact["text"])
        tail = t["tail_bound"]
        slack = 1 + 1e-12
        if abs(t["finite_product"] - e["finite_product"]) > tail * slack or abs(
            t["total"] - e["total"]
        ) > tail * t["total"] / t["finite_product"] * slack:
            problems.append(f"{job.name}: truncated constant outside its tail bound")
    return problems


def oracle_cases(plan):
    """(model, params, S, mode) of every count job, each mode of "all" apart."""
    seen = []
    for argv, job in zip(plan.argvs, plan.jobs):
        if job.kind != "count":
            continue
        opts = dict(zip(argv[1::2], argv[2::2]))
        model = opts["--model"]
        params = tuple(int(opts[f]) for f in ("--m1", "--m2") if f in opts) or (
            int(opts["--m"]),
        )
        s = tuple(int(p) for p in opts.get("--s", "").split(",") if p)
        mode = opts["--mode"]
        for md in ("rational", "campana", "darmon") if mode == "all" else (mode,):
            case = (model, params, s, md)
            if case not in seen:
                seen.append(case)
    return seen


def check_oracles(plan):
    """Sieved counts equal the definitional oracles at small seed-drawn B."""
    from orbicount import enumeration
    from orbicount.orbifold import PlaceSet, blowup_p2, projective_space

    rng = random.Random(1000 + plan.seed)
    problems = []
    for model, params, s, mode in oracle_cases(plan):
        B = rng.randint(*ORACLE_B[model])
        S = PlaceSet.of(list(s))
        if model == "p1":
            sieved = enumeration.count_points(projective_space(1, params[0]), S, B, mode)
            naive = enumeration.naive_count_p1(params[0], S, B, mode)
        elif model == "pn":
            sieved = enumeration.count_points(projective_space(2, params[0]), S, B, mode)
            naive = enumeration.naive_count_pn2(params[0], S, B, mode)
        else:
            sieved = enumeration.count_points(blowup_p2(*params), S, B, mode)
            naive = enumeration.naive_count_blowup(*params, S, B, mode)
        if sieved != naive:
            problems.append(f"{model}{params} S={s} {mode} B={B}: {sieved} != {naive}")
    return problems


def check_workers(plan, csv_path):
    """One blow-up count gives the same output with two workers as with one."""
    workers = str(max(1, min(2, os.cpu_count() or 1)))
    B = str(int(10**4 * jobs.seed_factor(random.Random(2000 + plan.seed), plan.seed)))
    argv = ["count", "--model", "blowup", "--m1", "1", "--m2", "2", "--s", "2,3",
            "--grid", B, "--mode", "all"]
    job = jobs.Job("workers", tuple(argv))
    one = run_job(argv + ["--workers", "1"], csv_path, job)
    many = run_job(argv + ["--workers", workers], csv_path, job)
    if one["error"] or many["error"] or one["text"] != many["text"]:
        return [f"--workers {workers} differs from --workers 1"]
    return []


def run_checks(plan, passes, csv_path, reference):
    verdicts = check_passes(plan, passes, reference)
    extra = check_constants(plan, passes, csv_path)
    extra += check_oracles(plan)
    extra += check_workers(plan, csv_path)
    failures = [
        f"pass {i} {plan.jobs[k].name}: {v}"
        for i, row in enumerate(verdicts)
        for k, v in enumerate(row)
        if v is not None
    ]
    n_checks = sum(1 for j in plan.jobs if j.kind == "constant")
    n_checks += len(oracle_cases(plan)) + 1
    return {
        "attempted": sum(len(r) for r in verdicts) + n_checks,
        "failed": len(failures) + len(extra),
        "problems": failures + extra,
    }


def load_reference(plan):
    if plan.seed != 0:
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["smoke" if plan.smoke else "full"][plan.workload]


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------


def job_seconds(plan, passes, kinds):
    return statistics.median(
        sum(r["wall"] for r, job in zip(p, plan.jobs) if job.kind in kinds) for p in passes
    )


def timed_run(cfg, plan, csv_path):
    rss_ready = rss_mb()
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < cfg["seconds"]:
        passes.append(run_pass(plan, csv_path))
    # The peak at seed-0 size: each job's growth of the peak, divided by the
    # job's factor, on top of the process as it stood before the first pass.
    growth = sum(
        r["rss_growth_mb"] / f for p in passes for r, f in zip(p, plan.factors)
    )
    return passes, {
        "peak_rss_mb_raw": rss_mb(),
        "pass_wall": [pass_time(plan, p) for p in passes],
        "pass_cpu": [pass_time(plan, p, "cpu") for p in passes],
        "pass_wall_raw": [sum(r["wall_raw"] for r in p) for p in passes],
        "peak_rss_mb": rss_ready + growth,
        "constant_s": job_seconds(plan, passes, ("constant",)),
        "zeta_s": job_seconds(plan, passes, ("zeta",)),
    }


def traced_run(cfg, plan, csv_path):
    from orbicount import arith
    from tracer import Tracer, median_metrics, write_spans

    untraced, tracers, walls, traced_walls = [], [], [], []
    comparisons = []  # traced output against untraced, per job and pair
    start = perf_counter()
    while not tracers or perf_counter() - start < cfg["seconds"]:
        untraced.append(run_pass(plan, csv_path))
        walls.append(pass_time(plan, untraced[-1]))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(plan, csv_path, tracer)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        traced_walls.append(pass_time(plan, traced))
        for k, (a, b) in enumerate(zip(untraced[-1], traced)):
            same = a["text"] == b["text"] and not b["error"]
            comparisons.append(None if same else f"traced {plan.jobs[k].name} differs")
    layer = median_metrics([t.metrics() for t in tracers])
    layer.update(tracers[0].replay(arith.SIEVE_BOUND))
    layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    layer["constant_s"] = job_seconds(plan, untraced, ("constant",))
    layer["zeta_s"] = job_seconds(plan, untraced, ("zeta",))
    per_job = {job.name: tracers[0].per_job(k) for k, job in enumerate(plan.jobs)}
    write_spans(cfg["spans_path"], tracers, {"workload": plan.workload, "seed": plan.seed})
    return untraced, layer, per_job, comparisons


def versions() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def main(argv) -> int:
    if argv[:1] == ["setup"]:
        info = warm_up()
        print(json.dumps(info), flush=True)
        return 0
    cfg = json.loads(argv[1])
    csv_path = os.path.join(cfg["out_dir"], f"counts-{cfg['workload']}.csv")
    plan = jobs.make_plan(cfg["workload"], cfg["seed"], cfg["smoke"], csv_path)
    reference = load_reference(plan)
    result = {"warm_up": warm_up(), "versions": versions(), "argvs": plan.argvs}
    comparisons = []
    if cfg["trace"]:
        passes, layer, per_job, comparisons = traced_run(cfg, plan, csv_path)
        layer["arith.spf_table.s"] = result["warm_up"]["spf_table_s"]
        result.update(layer=layer, per_job=per_job)
    else:
        passes, timing = timed_run(cfg, plan, csv_path)
        result.update(timing)
    t0 = perf_counter()
    checks = run_checks(plan, passes, csv_path, reference)
    result["check_s"] = perf_counter() - t0
    trace_problems = [c for c in comparisons if c is not None]
    checks["attempted"] += len(comparisons)
    checks["failed"] += len(trace_problems)
    checks["problems"] += trace_problems
    result["checks"] = checks
    result["job_wall"] = {
        job.name: statistics.median(p[k]["wall"] for p in passes)
        for k, job in enumerate(plan.jobs)
    }
    result["passes"] = len(passes)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
