"""No orbicount dataclass has a field that nothing reads.

A field nothing reads is filled on every construction and carried for no
one: a reader takes it for part of the result and may trust it.  The
dataclasses of ``src/orbicount`` are found in source, and a field counts as
read when its name is loaded as an attribute (``x.field``) anywhere under
``src/``, ``scripts/`` or ``tests/``.  Names are matched without types, so
a field that shares its name with an attribute read elsewhere passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orbicount"
READERS = ("src", "scripts", "tests")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def dataclass_fields(source: str, filename: str = "<module>") -> list:
    """(line, "Class.field") for each annotated field of each dataclass."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [
                (item.lineno, f"{node.name}.{item.target.id}")
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    return found


def attributes_read(source: str, filename: str = "<module>") -> set:
    """Every name loaded as an attribute in ``source``."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read():
    read = set()
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            read |= attributes_read(path.read_text(), str(path))
    fields = {
        f"{path.name}:{line}": name
        for path in sorted(SRC.glob("*.py"))
        for line, name in dataclass_fields(path.read_text(), str(path))
    }
    assert len(fields) > 20
    assert {at: name for at, name in fields.items() if name.split(".")[1] not in read} == {}


def test_the_finders_see_each_kind():
    source = "\n".join(
        [
            "import dataclasses",
            "from dataclasses import dataclass",
            "@dataclass(frozen=True)",
            "class A:",
            "    x: int",
            "    y: int = 0",
            "    K = 3",
            "    def f(self):",
            "        return self.x",
            "@dataclasses.dataclass",
            "class B:",
            "    z: str",
            "class C:",
            "    w: int",
            "B(z='').z = 1",
        ]
    )
    assert [name for _, name in dataclass_fields(source)] == ["A.x", "A.y", "B.z"]
    assert attributes_read(source) == {"dataclass", "x"}
