"""No orbicount module reaches into another module's private names.

A private name is one with a single leading underscore (``_spf_table``; a
dunder such as ``__all__`` is not private).  Each module under
``src/orbicount`` is read as source, so a violation is found without
importing anything: ``from .arith import _spf_table``, ``from orbicount.arith
import _spf_table`` and ``arith._spf_table`` (after ``from . import arith``,
``from orbicount import arith`` or ``import orbicount.arith as arith``) all
count.  A module's use of its own private names is fine.
"""

import ast
from pathlib import Path

PACKAGE = "orbicount"
SRC = Path(__file__).resolve().parents[1] / "src" / PACKAGE


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> bool:
    """Whether ``from X import ...`` reads from within the package."""
    return node.level > 0 or (node.module or "").split(".")[0] == PACKAGE


def private_uses(source: str, filename: str = "<module>") -> list:
    """(line, text) for each private name that ``source`` takes from another
    module of the package."""
    tree = ast.parse(source, filename)
    modules = set()  # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node):
            origin = "." * node.level + (node.module or "")
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((node.lineno, f"from {origin} import {alias.name}"))
                # `from . import arith` and `from orbicount import arith` bind modules
                if node.module is None or node.module == PACKAGE:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE:
                    modules.add(alias.asname or parts[0])
                    if alias.asname is None and len(parts) > 1:
                        modules.add(alias.name)  # read back as a dotted chain
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            base = ast.unparse(node.value)
            if base in modules:
                found.append((node.lineno, f"{base}.{node.attr}"))
    return sorted(found)


def test_no_module_imports_another_modules_private_names():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    found = {
        path.name: uses
        for path in files
        if (uses := private_uses(path.read_text(), str(path)))
    }
    assert found == {}


def test_private_uses_finds_each_form():
    source = "\n".join(
        [
            "from . import arith, enumeration as en",
            "from .arith import _spf_table, factorize",
            "from orbicount.geometry import _helper",
            "import orbicount.fitting",
            "import orbicount.constants as co",
            "x = arith._mobius(3) + en._floor_bound(2)",
            "y = orbicount.fitting._power_prefix + co._tail",
            "z = arith.factorize(4), arith.__name__, _own(1), self._x",
        ]
    )
    assert [text for _, text in private_uses(source)] == [
        "from .arith import _spf_table",
        "from orbicount.geometry import _helper",
        "arith._mobius",
        "en._floor_bound",
        "co._tail",
        "orbicount.fitting._power_prefix",
    ]
