"""No orbicount module exports a name that only the tests load.

A module's ``__all__`` names what the rest of the program may use; a name
there that nothing but its own tests reads keeps code alive for no caller.
Each name in the ``__all__`` of a module of ``src/orbicount`` passes when it
is in the package's own ``__all__`` or is loaded under ``src/``,
``scripts/`` or ``benchmark/``.  A load is a name or attribute read in the
source (``f(...)``, ``module.f``); the name's own definition, a read inside
that definition, an import and its ``__all__`` entry are not, and neither is
a string that spells the name, such as a benchmark's metric key.  Names are
matched without modules, so an export that shares its name with a name read
elsewhere passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orbicount"
READERS = ("src", "scripts", "benchmark")


def exports(source: str, filename: str = "<module>") -> list:
    """The names of the module's ``__all__``, empty when it has none."""
    for node in ast.parse(source, filename).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def names_loaded(source: str, filename: str = "<module>") -> set:
    """Every name loaded as a name or an attribute in ``source``, except a
    top-level function's or class's loads of its own name."""
    loaded = set()
    for top in ast.parse(source, filename).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != own:
                loaded.add(name)
    return loaded


def test_every_export_is_read_outside_the_tests():
    loaded = set()
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if not path.name.startswith("test_"):
                loaded |= names_loaded(path.read_text(), str(path))
    package = set(exports((SRC / "__init__.py").read_text()))
    exported = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in exports(path.read_text(), str(path))
    }
    assert len(exported) > 40
    unread = {at for at in exported if at.split(".")[1] not in package | loaded}
    assert unread == set()


def test_the_finders_see_each_kind():
    source = "\n".join(
        [
            "from .arith import helper",
            "__all__ = ['f', 'g', 'K']",
            "K = 3",
            "def f(n):",
            "    return f(n - 1) if n else helper(K)",
            "def g():",
            "    return module.f, 'h'",
            "class C:",
            "    def m(self):",
            "        return C, self.x",
        ]
    )
    assert exports(source) == ["f", "g", "K"]
    assert exports("x = 1") == []
    assert names_loaded(source) == {"n", "helper", "K", "module", "f", "self", "x"}
