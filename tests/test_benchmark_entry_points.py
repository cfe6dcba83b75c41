"""Every orbicount name that benchmark/worker.py uses still exists and runs.

The benchmark drives orbicount from outside the package, so a rename there
would fail every benchmark run while the package's own tests stay green.  The
worker is read as source, the way tests/test_private_imports.py reads the
package: its ``from orbicount ... import`` lines bind names, and each
attribute read on a bound name counts.  Nothing under ``benchmark/`` is
imported, run or changed.
"""

import ast
import importlib
from pathlib import Path

from orbicount import arith, cli, enumeration, localfactors
from orbicount.orbifold import PlaceSet, blowup_p2, projective_space

WORKER = Path(__file__).resolve().parents[1] / "benchmark" / "worker.py"
PACKAGE = "orbicount"

# what the worker takes from orbicount today; the reader must find at least these
EXPECTED = {
    "arith._spf_table",
    "arith.SIEVE_BOUND",
    "localfactors.normalized_factor",
    "enumeration.count_points",
    "enumeration.naive_count_p1",
    "enumeration.naive_count_pn2",
    "enumeration.naive_count_blowup",
    "orbifold.PlaceSet",
    "orbifold.PlaceSet.of",
    "orbifold.projective_space",
    "orbifold.blowup_p2",
    "cli.main",
}


def worker_names() -> set:
    """Dotted paths below the package ("arith._spf_table") that the worker
    imports or reads as an attribute of an imported name."""
    tree = ast.parse(WORKER.read_text(), str(WORKER))
    bound = {}  # local name -> dotted path below the package ("" for itself)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE:
            below = node.module[len(PACKAGE) + 1:]
            for alias in node.names:
                bound[alias.asname or alias.name] = ".".join(filter(None, (below, alias.name)))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != PACKAGE:
                    continue
                if alias.asname:
                    bound[alias.asname] = alias.name[len(PACKAGE) + 1:]
                else:
                    bound[PACKAGE] = ""
    names = {path for path in bound.values() if path}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                names.add(".".join(filter(None, (bound[node.value.id], node.attr))))
    return names


def _resolve(path: str):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"{PACKAGE}.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_the_reader_finds_what_the_worker_uses():
    assert EXPECTED <= worker_names()


def test_every_name_the_worker_uses_exists():
    missing = []
    for path in sorted(worker_names()):
        try:
            _resolve(path)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{path}: {exc}")
    assert not missing, missing


def test_the_worker_calls_run(capsys):
    # the warm-up
    arith._spf_table()
    assert arith.SIEVE_BOUND > 1
    assert localfactors.normalized_factor(projective_space(1, 2), 2, 1.5) == 0.75
    # the oracle cross-check, one case per model
    S = PlaceSet.of([2])
    for sieved, naive in (
        (enumeration.count_points(projective_space(1, 2), S, 40, "darmon"),
         enumeration.naive_count_p1(2, S, 40, "darmon")),
        (enumeration.count_points(projective_space(2, 2), S, 5, "campana"),
         enumeration.naive_count_pn2(2, S, 5, "campana")),
        (enumeration.count_points(blowup_p2(2, 1), S, 40, "darmon"),
         enumeration.naive_count_blowup(2, 1, S, 40, "darmon")),
    ):
        assert sieved == naive > 0
    # every job
    assert cli.main(["count", "--model", "p1", "--m", "2", "--grid", "10"]) == 0
    assert capsys.readouterr().out.startswith("B,")
