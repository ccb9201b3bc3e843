"""Which lines of `src/` a run executes, and the statements it never reaches.

Records every line executed in `src/vortexdiagrams/` with the standard
library's line tracer, over either the CLI commands given (each run in this
process through `cli.main`, its stdout discarded) or one pytest run, then
prints each statement no traced line reached: the outermost one of each
unreached block, as `file:first-last` with its first source line, and a
module never imported as one line.  Docstrings are not statements here.
Lines that run only in a subprocess (a test that starts the CLI in a fresh
interpreter) are not seen.

    python scripts/reach.py enumerate --n 3 -- verify-groebner
    python scripts/reach.py --pytest -q -p no:cacheprovider tests/test_atlas.py

Commands are separated by `--`; after `--pytest` every argument goes to
pytest.  Each command's exit code (pytest's, with `--pytest`) is printed on
stderr, and the script exits 0, or 2 when no command is given.  The trace
function it replaces is restored when the run ends; threads the run starts
are not traced.  A traced pytest run takes several times as long.
"""

import ast
import contextlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vortexdiagrams"


def record(run) -> dict:
    """Call `run()`; map each package file it touched to the line numbers
    executed in it."""
    prefix = str(PACKAGE) + os.sep
    inside: dict = {}  # code filename -> absolute path, or None outside PACKAGE
    hits: dict = {}

    def on_line(frame, event, arg):
        if event == "line":
            hits[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = os.path.abspath(name)
            inside[name] = path if path.startswith(prefix) else None
            if inside[name]:
                hits.setdefault(path, set())
        return on_line if inside[name] else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hits


def _is_docstring(node, parent) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def unreached(path: Path, lines: set) -> tuple:
    """``(statements, missed, blocks)`` of one file: its statement count,
    how many of them no line in `lines` reached, and the ``(first, last,
    line)`` span and line to show of each unreached block: a statement no
    line reached inside one that was reached (or at module level), or a
    function whose body never ran."""
    tree = ast.parse(path.read_text(), str(path))
    count = missed = 0
    blocks = []

    def ran(first, last):
        return any(i in lines for i in range(first, last + 1))

    def visit(parent, parent_ran):
        nonlocal count, missed
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt):
                # handlers and match cases hold statements of their own
                visit(node, parent_ran)
                continue
            if _is_docstring(node, parent):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            reached = ran(first, node.end_lineno)
            count += 1
            missed += not reached
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # its header runs when it is defined, its body when called
                body = [s for s in node.body if not _is_docstring(s, node)]
                reached = ran(body[0].lineno if body else first, node.end_lineno)
            if parent_ran and not reached:
                blocks.append((first, node.end_lineno, node.lineno))
            visit(node, reached)

    visit(tree, True)
    return count, missed, blocks


def report(hits: dict) -> str:
    out = []
    total = never = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(ROOT)
        lines = hits.get(str(path))
        count, missed, blocks = unreached(path, lines or set())
        total += count
        never += missed
        if lines is None:
            out.append(f"{name}: never imported ({count} statements)")
            continue
        source = path.read_text().splitlines()
        for first, last, line in blocks:
            span = f"{first}" if first == last else f"{first}-{last}"
            out.append(f"{name}:{span}  {source[line - 1].strip()}")
    out.append(f"{never} of {total} statements never executed")
    return "\n".join(out) + "\n"


def _commands(argv: list) -> list:
    commands, current = [], []
    for arg in argv:
        if arg == "--":
            commands.append(current)
            current = []
        else:
            current.append(arg)
    return [c for c in commands + [current] if c]


def main(argv: list) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    if argv[:1] == ["--pytest"]:

        def run():
            import pytest

            print(f"pytest: exit {int(pytest.main(argv[1:]))}", file=sys.stderr)

    else:
        commands = _commands(argv)
        if not commands:
            print(__doc__, file=sys.stderr)
            return 2

        def run():
            from vortexdiagrams import cli

            for command in commands:
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    try:
                        code = cli.main(command)
                    except SystemExit as exc:  # argparse's usage errors
                        code = exc.code
                print(f"{' '.join(command)}: exit {code}", file=sys.stderr)

    sys.stdout.write(report(record(run)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
