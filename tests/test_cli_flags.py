"""Every flag of a CLI subcommand is read when that subcommand runs.

A flag nothing reads is a knob that changes nothing: a user may pass it and
expect an effect.  The flags of a subcommand are the actions of its parser
as ``_build_parser`` builds it, each under its ``dest``.  ``cli.py`` is read
as source for the reads: a flag counts as read when the subcommand's
handler (its ``func`` default), or a module function the handler calls,
directly or in turn, loads ``args.<dest>``, ``<namespace>.<dest>`` on the
namespace a parse returns, or ``getattr(args, "<dest>", ...)``; or when
``main`` or a function it calls does (the ``--config`` lookup).  A read in
another subcommand's handler does not count.
"""

import argparse
import ast
from pathlib import Path

from orbicount import cli

CLI = Path(__file__).resolve().parents[1] / "src" / "orbicount" / "cli.py"

# --workers changes nothing since the counts left their process pool, but the
# benchmark's jobs and its worker check pass it, so the flag stays accepted
# until a benchmark change drops those uses.
KEPT_UNREAD = {("count", "workers")}


def _is_namespace(node) -> bool:
    """``args``, or what ``parse_args(...)`` or ``parse_known_args(...)[0]``
    returns."""
    if isinstance(node, ast.Name):
        return node.id == "args"
    if isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("parse_args", "parse_known_args"))


def reads(source: str, entry: str) -> set:
    """The namespace attributes that the module function ``entry`` of
    ``source``, or a module function it calls, directly or in turn, reads."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, seen, read = [entry], set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and _is_namespace(node.value)):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in functions:
                    todo.append(node.func.id)
                elif (node.func.id == "getattr" and _is_namespace(node.args[0])
                        and isinstance(node.args[1], ast.Constant)):
                    read.add(node.args[1].value)
    return read


def unread_flags(source: str, commands: dict) -> list:
    """(subcommand, dest) for each flag that the subcommand's handler and
    ``main`` never read; ``commands`` maps a subcommand to (its dests, the
    name of its handler)."""
    always = reads(source, "main")
    return sorted((command, dest) for command, (dests, handler) in commands.items()
                  for dest in dests - reads(source, handler) - always)


def parser_commands() -> dict:
    """The CLI's subcommands as (dests of their flags, handler name)."""
    _, subparsers = cli._build_parser()
    return {
        name: ({a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)},
               sub.get_default("func").__name__)
        for name, sub in subparsers.items()
    }


def test_every_cli_flag_is_read():
    unread = unread_flags(CLI.read_text(), parser_commands())
    assert set(unread) == KEPT_UNREAD


def test_unread_flags_finds_each_kind():
    source = "\n".join(
        [
            "def _places(args):",
            "    return getattr(args, 'in_s', None)",
            "def _other(args):",
            "    return args.never",
            "def _run(args):",
            "    args.point = 1",
            "    return args.extra + _places(args)",
            "def _walk(args):",
            "    return args.out_file",
            "def _lookup(argv):",
            "    return finder.parse_known_args(argv)[0].config",
            "def main(argv):",
            "    return _lookup(argv)",
        ]
    )
    commands = {
        "run": ({"point", "extra", "in_s", "config", "never", "out_file"}, "_run"),
        "walk": ({"out_file", "extra", "config"}, "_walk"),
    }
    assert unread_flags(source, commands) == [
        ("run", "never"), ("run", "out_file"), ("run", "point"), ("walk", "extra")]

