"""Workload job lists, seed-drawn sizes and output checks.

Every job is one argv list for ``orbicount.cli.main``.  Seed 0 uses the base
bounds exactly; any other seed multiplies every bound of a job by a factor
drawn for that job in [1, 1.25), so no change can be tuned to one bound.
Times are reported at seed-0 size: a job's time is divided by
``factor ** alpha``, where ``alpha`` is the job's growth exponent in B,
measured once by timing the job at factors 1 and 1.25 (CPU time, three runs
each, at the commit that defined the benchmark).  The peak resident set is
scaled the same way: each job's growth of the peak is divided by its factor,
as memory grows at most linearly in B.  Parent and child are always measured on the same seeds, so
the scaling never changes a comparison between them; it only keeps the seed
from dominating the spread between runs.  Times are also corrected for the
machine's speed while they were taken (speed.py).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("blowup", "line", "analytic")
FLOAT_RTOL = 1e-9
FACTOR_SPAN = 0.25


@dataclass(frozen=True)
class Job:
    name: str
    argv: Tuple[str, ...]
    bounds: Tuple[int, ...] = ()  # full-size bounds at seed 0
    smoke: Tuple[int, ...] = ()  # smoke-mode bounds at seed 0
    flag: str = "--grid"  # how the bounds are passed
    alpha: float = 0.0  # measured growth exponent of the job's time in B
    csv_out: bool = False  # the job writes its CSV to a file, read by a later fit
    reads_csv: bool = False  # the job is `fit` on the previous job's CSV

    @property
    def kind(self) -> str:
        return self.argv[0]


def _count(name, model_args, mode, bounds, smoke, alpha, s=(), **kw) -> Job:
    argv = ("count",) + tuple(model_args) + ("--mode", mode, "--workers", "1")
    if s:
        argv += ("--s", ",".join(str(p) for p in s))
    return Job(name, argv, tuple(bounds), tuple(smoke), "--grid", alpha, **kw)


_P1_M2 = ("--model", "p1", "--m", "2")
_BU11 = ("--model", "blowup", "--m1", "1", "--m2", "1")
_BU21 = ("--model", "blowup", "--m1", "2", "--m2", "1")
_BU12 = ("--model", "blowup", "--m1", "1", "--m2", "2")

JOBS: Dict[str, Tuple[Job, ...]] = {
    "blowup": (
        _count("bu11_darmon", _BU11, "darmon", (10**3, 10**4, 10**5, 10**6),
               (10, 100, 10**3, 10**4), 0.9),
        _count("bu21_campana", _BU21, "campana", (10**5,), (10**3,), 1.7),
        _count("bu12_all_s23", _BU12, "all", (10**5,), (10**3,), 1.05, s=(2, 3)),
        _count("bu21_darmon_s2", _BU21, "darmon", (3 * 10**4,), (300,), 1.45, s=(2,)),
    ),
    "line": (
        _count("p1m2_darmon", _P1_M2, "darmon", (10**6, 10**7, 10**8),
               (10**3, 10**4, 10**5), 0.85, s=(2,)),
        _count("p1m2_campana", _P1_M2, "campana", (10**6, 10**7, 10**8),
               (10**3, 10**4, 10**5), 0.95, s=(2, 3)),
        _count("p1m3_darmon", ("--model", "p1", "--m", "3"), "darmon", (10**12,),
               (10**9,), 0.65, s=(2,)),
        _count("p1m3_campana", ("--model", "p1", "--m", "3"), "campana", (10**12,),
               (10**9,), 0.75, s=(2,)),
        _count("p1m1_rational", ("--model", "p1", "--m", "1"), "rational", (10**7,),
               (10**4,), 1.15),
        _count("pn2m2_all", ("--model", "pn", "--n", "2", "--m", "2"), "all",
               (10**6,), (10**3,), 0.95),
    ),
    "analytic": tuple(
        Job(name, ("constant",) + args + ("--method", "truncated", "--p0", "100000"))
        for name, args in (
            ("const_p1m2_s2", _P1_M2 + ("--s", "2", "--paper-values")),
            ("const_bu11", _BU11 + ("--paper-values",)),
            ("const_bu21_s2", _BU21 + ("--s", "2")),
        )
    )
    + (
        Job("zeta_p1m2", ("zeta",) + _P1_M2 + ("--probe", "2.5,2.2,2.1"),
            (10**6,), (10**3,), "--bound", 1.45),
        Job("zeta_p1m1", ("zeta", "--model", "p1", "--m", "1", "--probe", "2.5,2.2,2.1"),
            (3 * 10**4,), (100,), "--bound", 1.0),
        Job("zeta_bu11", ("zeta",) + _BU11 + ("--probe", "1.5,1.2,1.1"),
            (10**5,), (100,), "--bound", 1.45),
        _count("fit_counts", _BU11, "darmon", (10**3, 10**4, 10**5), (10, 100, 10**3),
               1.05, csv_out=True),
        Job("fit", ("fit", "--a", "1", "--b", "2"), reads_csv=True),
    ),
}

# Smoke mode shrinks the Euler products as it shrinks the bounds.
SMOKE_P0 = "1000"

# ROADMAP's baseline table, each row mapped to the job nearest to it.
BASELINE_ROWS = (
    ("count_blowup(2,1, campana, B=1e6): 81 s", "blowup/bu21_campana",
     "run at B=1e5 instead, which keeps the same 99.9%-pruned pair sweep"),
    ("count_blowup(1,1, darmon, B=1e7) (CLI): 10.0 s, 122 MB", "blowup/bu11_darmon",
     "grid tops out at B=1e6"),
    ("count_p1(1, rational, B=1e7) (CLI): 3.7 s, 398 MB", "line/p1m1_rational", "same B"),
    ("constant --method truncated, p1 m=2 / blow-up 1,1: 11.9 s / 16.7 s",
     "analytic/const_p1m2_s2, analytic/const_bu11", "p0=1e5 instead of the default 1e6"),
    ("count_p1(2, darmon, B=1e8): 0.56 s", "line/p1m2_darmon", "grid tops out at B=1e8"),
    ("tier-1 suite: ~64 s", "-", "not a benchmark job"),
)


@dataclass
class Plan:
    """The concrete inputs of one run: a factor and an argv per job."""

    workload: str
    seed: int
    smoke: bool
    factors: List[float] = field(default_factory=list)
    argvs: List[List[str]] = field(default_factory=list)

    @property
    def jobs(self) -> Tuple[Job, ...]:
        return JOBS[self.workload]


def seed_factor(rng: random.Random, seed: int) -> float:
    return 1.0 if seed == 0 else 1.0 + FACTOR_SPAN * rng.random()


def make_plan(workload: str, seed: int, smoke: bool, csv_path: str) -> Plan:
    if workload not in JOBS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    plan = Plan(workload, seed, smoke)
    for job in JOBS[workload]:
        f = seed_factor(rng, seed) if job.bounds else 1.0
        argv = list(job.argv)
        if job.bounds:
            base = job.smoke if smoke else job.bounds
            argv += [job.flag, ",".join(str(int(b * f)) for b in base)]
        if smoke and "--p0" in argv:
            argv[argv.index("--p0") + 1] = SMOKE_P0
        if job.csv_out:
            argv += ["--output", csv_path]
        if job.reads_csv:
            argv.insert(1, csv_path)
        plan.factors.append(f)
        plan.argvs.append(argv)
    return plan


def scaled(plan: Plan, times: Sequence[float]) -> float:
    """Sum of job times, each scaled to its seed-0 size."""
    return math.fsum(
        t / f**job.alpha for t, f, job in zip(times, plan.factors, plan.jobs)
    )


# --------------------------------------------------------------------------
# output parsing and checks
# --------------------------------------------------------------------------


def parse_output(text: str):
    """CSV count output becomes {bound label: [rational, campana, darmon]};
    JSON output is parsed as is."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    lines = text.splitlines()
    if not lines or lines[0] != "B,n_rational,n_campana,n_darmon":
        raise ValueError(f"unexpected count output: {text[:80]!r}")
    out = {}
    for line in lines[1:]:
        label, *cells = line.split(",")
        out[label] = [int(c) if c else None for c in cells]
    return out


def mismatch(got, want, path: str = "") -> Optional[str]:
    """First difference between two parsed outputs: integers, strings and
    structure must match exactly, floats within FLOAT_RTOL relative."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return f"{path}: {got!r} != {want!r}"
        if math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0) or got == want:
            return None
        return f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for k in want:
            diff = mismatch(got[k], want[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = mismatch(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def invariant_problem(job: Job, parsed) -> Optional[str]:
    """Checks that hold at every seed: counts grow with B and the modes nest
    (Darmon points are Campana points are rational points)."""
    if job.kind != "count":
        return None
    rows = list(parsed.values())
    for col in range(3):
        seq = [r[col] for r in rows if r[col] is not None]
        if any(b < a for a, b in zip(seq, seq[1:])):
            return f"column {col} decreases along the grid"
    for r in rows:
        rat, camp, darm = r
        if None not in r and not darm <= camp <= rat:
            return f"modes do not nest: {r}"
    return None
