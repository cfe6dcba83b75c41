"""No orbicount function takes a parameter that its body never reads.

A parameter nothing reads is a knob that changes nothing: a caller may set
it and expect an effect.  Each module under ``src/orbicount`` is read as
source, so a dead parameter is found without importing anything.  A
parameter counts as read when its name is loaded anywhere in the function's
body, nested functions and lambdas included.  Dunder methods are exempt,
since their signatures are fixed by the protocol they implement.
"""

import ast
from pathlib import Path

PACKAGE = "orbicount"
SRC = Path(__file__).resolve().parents[1] / "src" / PACKAGE


def _parameters(node) -> list:
    args = node.args
    every = args.posonlyargs + args.args + args.kwonlyargs
    every += [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a.arg for a in every]


def unused_parameters(source: str, filename: str = "<module>") -> list:
    """(line, "function(parameter)") for each parameter of a function in
    ``source`` that its body never reads."""
    tree = ast.parse(source, filename)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        read = {
            name.id
            for statement in node.body
            for name in ast.walk(statement)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        found += [
            (node.lineno, f"{node.name}({param})")
            for param in _parameters(node)
            if param not in read
        ]
    return sorted(found)


def test_no_function_takes_a_parameter_it_never_reads():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    found = {
        path.name: unused
        for path in files
        if (unused := unused_parameters(path.read_text(), str(path)))
    }
    assert found == {}


def test_unused_parameters_finds_each_kind():
    source = "\n".join(
        [
            "def f(a, b, /, c, *args, d=1, **kw):",
            "    return a + c",
            "def g(x, y):",
            "    return lambda: x",
            "def h(z):",
            "    def inner(w):",
            "        return z",
            "    return inner",
            "class K:",
            "    def __init__(self, unused):",
            "        pass",
            "    def method(self, v):",
            "        v = 1",
            "        return self",
        ]
    )
    assert [text for _, text in unused_parameters(source)] == [
        "f(args)",
        "f(b)",
        "f(d)",
        "f(kw)",
        "g(y)",
        "inner(w)",
        "method(v)",
    ]
