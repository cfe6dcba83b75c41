"""A mode string is read in one place: ``orbifold.progression`` turns a
weight and a mode into the exponent progression (f, d) that every count,
walk, bound and predicate reads.  Each module under ``src/orbicount`` is read
as source, and no comparison (``==``, ``!=``, ``in``, ``not in``) may take
"darmon", "campana" or "rational" as an operand, alone or in a literal
tuple, list or set, outside ``cli.py`` (which parses the flags) and
``progression``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbicount"
MODE_STRINGS = {"darmon", "campana", "rational"}
ALLOWED = {("cli.py", None), ("orbifold.py", "progression")}


def _names_a_mode(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in MODE_STRINGS
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_mode(elt) for elt in node.elts)
    return False


def mode_comparisons(source: str, filename: str = "<module>") -> list:
    """(line, enclosing top-level function or None) of each comparison in
    ``source`` with a mode string operand."""
    found = []

    def visit(node: ast.AST, function) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = node.name
        if isinstance(node, ast.Compare) and any(
                _names_a_mode(operand) for operand in [node.left, *node.comparators]):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source, filename), None)
    return found


def test_no_mode_string_is_compared_outside_the_constructor():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    found = {
        path.name: [(line, fn) for line, fn in mode_comparisons(path.read_text(), str(path))
                    if (path.name, None) not in ALLOWED and (path.name, fn) not in ALLOWED]
        for path in files
    }
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_mode_comparisons_finds_each_form():
    source = "\n".join([
        "def f(mode, m):",
        "    a = mode == 'darmon'",
        "    b = 'rational' != mode",
        "    c = mode in ('campana', 'x')",
        "    d = mode not in ['rational']",
        "    e = mode == 'all' or m == 1",
        "    g = {'darmon': 1}[mode]",
        "    return 'campana' if m else mode",
        "h = mode == 'darmon'",
    ])
    assert mode_comparisons(source) == [(2, "f"), (3, "f"), (4, "f"), (5, "f"), (9, None)]
