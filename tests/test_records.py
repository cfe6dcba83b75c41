"""The exact counts that the README quotes, pinned in ``records.json`` and
recounted in process: a change to a counting core that moves any of them
fails here.  Each record names the independent method that also produced
its count, or "none"."""

import json
from fractions import Fraction
from pathlib import Path

from orbicount.enumeration import count_points
from orbicount.orbifold import PlaceSet, blowup_p2, projective_space

RECORDS = json.loads((Path(__file__).parent / "records.json").read_text())["records"]
BUILD = {
    "p1": lambda params: projective_space(1, params["m"]),
    "pn": lambda params: projective_space(params["n"], params["m"]),
    "blowup": lambda params: blowup_p2(params["m1"], params["m2"]),
}


def test_every_record_recounts_exactly():
    got = [count_points(BUILD[r["model"]](r["params"]), PlaceSet.of(r["s_primes"]),
                        Fraction(r["B"]), r["mode"]) for r in RECORDS]
    assert got == [r["N"] for r in RECORDS]
    assert all(isinstance(r["also_by"], str) and r["also_by"] for r in RECORDS)
