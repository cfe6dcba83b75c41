"""Every flag that the CLI parser adds is read by the CLI.

A flag nothing reads is a knob that changes nothing: a user may pass it and
expect an effect.  ``cli.py`` is read as source: the flags are the
``add_argument`` calls of ``_build_parser`` and of the module functions it
calls, each under its ``dest``, and a flag counts as read when ``cli.py``
loads ``args.<dest>``, ``<namespace>.<dest>`` on the namespace a parse
returns, or ``getattr(args, "<dest>", ...)``.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "orbicount" / "cli.py"

# --workers changes nothing since the counts left their process pool, but the
# benchmark's jobs and its worker check pass it, so the flag stays accepted
# until a benchmark change drops those uses.
KEPT_UNREAD = {"workers"}


def _dest(call: ast.Call) -> str:
    for keyword in call.keywords:
        if keyword.arg == "dest":
            return keyword.value.value
    names = [arg.value for arg in call.args if isinstance(arg, ast.Constant)]
    flag = next((name for name in names if name.startswith("--")), names[0])
    return flag.lstrip("-").replace("-", "_")


def _is_namespace(node) -> bool:
    """``args``, or what ``parse_args(...)`` or ``parse_known_args(...)[0]``
    returns."""
    if isinstance(node, ast.Name):
        return node.id == "args"
    if isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("parse_args", "parse_known_args"))


def unread_flags(source: str, builder: str = "_build_parser") -> list:
    """The dests of the flags that ``builder`` adds, directly or through the
    module functions it calls, that ``source`` never reads."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, seen, flags = [builder], set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id in functions:
                todo.append(node.func.id)
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
                flags.add(_dest(node))
    read = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and _is_namespace(node.value)):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and _is_namespace(node.args[0])
                and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return sorted(flags - read)


def test_every_cli_flag_is_read():
    unread = unread_flags(CLI.read_text())
    assert set(unread) == KEPT_UNREAD


def test_unread_flags_finds_each_kind():
    source = "\n".join(
        [
            "def _flags(sub):",
            "    sub.add_argument('--in-s', dest='in_s')",
            "    sub.add_argument('--never')",
            "def _build_parser():",
            "    p = make()",
            "    p.add_argument('point')",
            "    p.add_argument('--out-file')",
            "    p.add_argument('--config')",
            "    p.add_argument('-x', '--extra')",
            "    _flags(p)",
            "def _elsewhere(q):",
            "    q.add_argument('--not-built')",
            "def run(args, other):",
            "    finder.parse_known_args(argv)[0].config",
            "    other.extra",
            "    '{}'.never",
            "    args.point = 1",
            "    return args.in_s + getattr(args, 'out_file', None)",
        ]
    )
    assert unread_flags(source) == ["extra", "never", "point"]
