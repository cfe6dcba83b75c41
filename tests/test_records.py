"""The exact counts that the README quotes, pinned in ``records.json`` and
recounted in process: a change to a counting core that moves any of them
fails here.  Each record names the independent method that also produced
its count, or "none".  A record marked "slow" is left to
``scripts/recount_records.py``, which recounts every record and is the one
reader of the file's schema."""

from pathlib import Path

from orbicount.enumeration import count_points, count_series

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_every_record_recounts_exactly(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import recount_records

    records = recount_records.load_records()
    fast = [r for r in records if not r.get("slow")]
    got = [count_points(*recount_records.count_args(r)) for r in fast]
    assert got == [r["N"] for r in fast]
    assert all(isinstance(r["also_by"], str) and r["also_by"] for r in records)


def test_blowup_records_recount_as_grids(monkeypatch):
    # the blow-up records up to 1e13, one count_series grid per weights, S
    # and mode: a grid shares its top bound's rows and weights with the
    # lower bounds, and each bound must still give its pinned count.  A grid
    # of one bound is the count that the test above makes already
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import recount_records

    grids = {}
    for r in recount_records.load_records():
        model, S, B, mode = recount_records.count_args(r)
        if model.name == "blowup" and B <= 10**13:
            key = (tuple(r["params"].values()), tuple(r["s_primes"]), mode)
            grids.setdefault(key, (model, S, mode, {}))[3][B] = r["N"]
    grids = [grid for grid in grids.values() if len(grid[3]) > 1]
    assert len(grids) == 3
    for model, S, mode, pinned in grids:
        bounds = sorted(pinned)
        records = count_series(model, S, bounds, mode)
        assert [rec.counts[mode] for rec in records] == [pinned[B] for B in bounds], mode
