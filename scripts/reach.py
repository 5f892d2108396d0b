#!/usr/bin/env python3
"""List the statements of `src/sgqa` that the tier-1 tests never run.

Runs the tier-1 suite, `tests/`, in this process under `sys.settrace` and
`threading.settrace`, and records each line of `src/sgqa` that runs, in any
thread. The statements come from `ast`: a simple statement ran if any of its
lines ran, and a compound one if any line of its header (decorators
included) ran. A statement whose lines hold no code, such as a function's
docstring, is not counted.

A statement that only a subprocess runs, which this tracer cannot see, is on
`ALLOWED` with its reason, keyed by file, function and the statement's first
line, so that the list outlives edits above it. Takes no options:

    python scripts/reach.py

Exits 1 if a statement that is not allowed never ran, if an allowed one ran
or no longer exists, or if the suite failed; else 0.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sgqa"

# (file, function, first line of the statement) -> why only a subprocess runs it
ALLOWED = {
    ("cli.py", "<module>", "sys.exit(main())"):
        "runs only when the CLI is a program's main module; tests/test_pipeline.py "
        "runs `python -m sgqa.cli` in subprocesses",
    ("llm.py", "generate",
     'logger.debug("raw request (key=%s):\\n%s", request_key(request)[:12], request.prompt)'):
        "runs only at DEBUG; test_cli_verbose_logs_each_raw_request runs `sgqa -v` in "
        "a subprocess",
    ("jsonl.py", "append_line", 'raise OSError(f"{log.name}: short write to an append-only log")'):
        "needs a short write from the kernel; test_append_line_refuses_a_short_write gets "
        "one in a subprocess that lowers its own RLIMIT_FSIZE",
}


def code_lines(code) -> set[int]:
    """The lines that hold code in a compiled module, its functions included."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: Path):
    """(function, first line text, line number, own lines) of each statement
    of the file that holds code. A compound statement's own lines are its
    header's; the function of a module-level statement is "<module>"."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    with_code = code_lines(compile(source, str(path), "exec"))

    def visit(body, scope):
        for node in body:
            children = [child for field in ("body", "orelse", "finalbody")
                        for child in getattr(node, field, [])]
            children += [child for handler in getattr(node, "handlers", [])
                         for child in handler.body]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            if children:
                own = set(range(first, max(first, children[0].lineno - 1) + 1))
            else:
                own = set(range(first, node.end_lineno + 1))
            if own & with_code:
                yield scope, text[node.lineno - 1].strip(), node.lineno, own
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
            else:
                inner = scope
            yield from visit([child for child in children if isinstance(child, ast.stmt)],
                             inner)

    yield from visit(ast.parse(source, str(path)).body, "<module>")


def run_tests() -> tuple[int, set[tuple[str, int]]]:
    """The tier-1 suite's exit code, and the (file, line) of each line of
    `src/sgqa` that ran in this process."""
    import pytest

    prefix = str(SRC) + os.sep
    ran: set[tuple[str, int]] = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code, ran = run_tests()
    total, found, never = 0, set(), []
    for path in sorted(SRC.glob("*.py")):
        for function, text, line, own in statements(path):
            key = (path.name, function, text)
            total += 1
            found.add(key)
            if not any((str(path), n) in ran for n in own):
                never.append((f"src/sgqa/{path.name}:{line}", key))
    allowed = [(where, key) for where, key in never if key in ALLOWED]
    faults = [f"{where}: {key[1]}: {key[2]}" for where, key in never if key not in ALLOWED]
    faults += [f"allowed, but {'it ran' if key in found else 'not found'}: {' | '.join(key)}"
               for key in ALLOWED.keys() - {key for _, key in allowed}]
    print(f"# {len(never)} of {total} statements never ran in this process; "
          f"{len(allowed)} of them are allowed")
    for where, key in allowed:
        print(f"# {where}: {key[2]}\n#   allowed: {ALLOWED[key]}")
    for fault in faults:
        print(fault)
    if code != 0:
        print(f"# the tests failed (pytest exit code {code})")
    return 1 if faults or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
