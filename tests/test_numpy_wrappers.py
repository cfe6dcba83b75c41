"""numpy's module-level ``searchsorted``, ``cumsum``, ``repeat``,
``flatnonzero`` and ``hstack`` are Python wrappers around the ndarray
methods (or ``nonzero`` and ``concatenate``), and cost about 1 us more per
call on small arrays; the counts make hundreds of such calls per run.  Each
module under ``src/orbicount`` is read as source, and none may call them as
``np.<name>`` or ``numpy.<name>``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbicount"
WRAPPERS = {"searchsorted", "cumsum", "repeat", "flatnonzero", "hstack"}


def wrapper_calls(source: str, filename: str = "<module>") -> list:
    """(line, name) of each call of a listed numpy wrapper in ``source``."""
    return [
        (node.lineno, node.func.attr)
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in WRAPPERS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ]


def test_no_numpy_wrapper_is_called_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    found = {path.name: wrapper_calls(path.read_text(), str(path)) for path in files}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_wrapper_calls_finds_each_form():
    source = "\n".join([
        "import numpy as np",
        "a = np.searchsorted(x, 3, side='right')",
        "b = numpy.cumsum(x) - x",
        "c = x.repeat(n) + np.repeat(y, n)",
        "d = np.flatnonzero(x == 1)",
        "e = np.hstack((x, y))",
        "f = x.searchsorted(3) + x.cumsum() + np.concatenate((x, y))",
        "g = np.add.reduceat(x, s)",
        "h = other.cumsum(x)",
    ])
    assert sorted(wrapper_calls(source)) == [
        (2, "searchsorted"), (3, "cumsum"), (4, "repeat"), (5, "flatnonzero"), (6, "hstack")]
