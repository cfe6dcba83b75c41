"""The exact counts that the README quotes, pinned in ``records.json`` and
recounted in process: a change to a counting core that moves any of them
fails here.  Each record names the independent method that also produced
its count, or "none".  A record marked "slow" is left to
``scripts/recount_records.py``, which recounts every record and is the one
reader of the file's schema."""

from pathlib import Path

from orbicount.enumeration import count_points

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_every_record_recounts_exactly(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import recount_records

    records = recount_records.load_records()
    fast = [r for r in records if not r.get("slow")]
    got = [count_points(*recount_records.count_args(r)) for r in fast]
    assert got == [r["N"] for r in fast]
    assert all(isinstance(r["also_by"], str) and r["also_by"] for r in records)
