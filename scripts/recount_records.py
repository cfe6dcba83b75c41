#!/usr/bin/env python3
"""Recount the exact counts pinned in tests/records.json.

tests/test_records.py recounts every record not marked "slow" on each test
run; this script recounts every record with B <= --bmax, the slow ones
included, one line each with its wall time, and exits 1 if any count
differs from its pinned value.  On a 2-CPU Linux machine --bmax 1e15
takes about 8.5 s, 3.3 s of it the (1,2) Campana count at 1e15, which peaks
near 360 MB.

Usage:
    python scripts/recount_records.py --bmax 1e15
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import report
from orbicount.orbifold import PlaceSet, blowup_p2, projective_space

RECORDS = Path(__file__).resolve().parents[1] / "tests" / "records.json"
BUILD = {
    "p1": lambda params: projective_space(1, params["m"]),
    "pn": lambda params: projective_space(params["n"], params["m"]),
    "blowup": lambda params: blowup_p2(params["m1"], params["m2"]),
}


def load_records() -> list:
    """The records of tests/records.json, in file order."""
    return json.loads(RECORDS.read_text())["records"]


def count_args(r) -> tuple:
    """(model, S, B, mode): the arguments of count_points for record r."""
    return (BUILD[r["model"]](r["params"]), PlaceSet.of(r["s_primes"]),
            Fraction(r["B"]), r["mode"])


def main() -> int:
    bmax = report.bmax_argument(least=1)
    records = load_records()
    recounted = mismatches = 0
    for r in records:
        if Fraction(r["B"]) > bmax:
            continue
        n, wall = report.timed_count(*count_args(r))
        recounted += 1
        verdict = "ok" if n == r["N"] else f"MISMATCH, pinned {r['N']}"
        mismatches += n != r["N"]
        weights = ",".join(str(v) for v in r["params"].values())
        places = ",".join(["inf", *map(str, r["s_primes"])])
        print(f"{r['model']}({weights}) {r['mode']}, S={{{places}}}: "
              f"N({r['B']}) = {n}  {verdict}  ({wall:.2f} s)")
    print(f"{recounted} of {len(records)} records recounted at B <= {bmax},"
          f" {mismatches} mismatched")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
