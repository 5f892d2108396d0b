"""sgqa has no runtime dependencies: every module imports only the standard
library and sgqa itself. Every JSONL input goes through the checked reader
in `jsonl`, and every backend stage through the driver in `pipeline`."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sgqa"
MODULES = sorted(SRC.glob("*.py"))


def imported_packages(path):
    """(line, top-level package) of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_module_is_checked():
    assert {"llm.py", "transport.py", "pipeline.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_sgqa(path):
    allowed = sys.stdlib_module_names | {"sgqa"}
    outside = [f"{path.name}:{line}: {name}"
               for line, name in imported_packages(path) if name not in allowed]
    assert outside == []


def called_names(path):
    """(enclosing module-level definition, line, name) of every call in the
    file to a bare or dotted name; the definition is None at module level."""
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                yield getattr(top, "name", None), node.lineno, name


def test_only_the_jsonl_module_calls_read_jsonl():
    """Other modules read JSONL through `jsonl.read_rows`, which checks each row."""
    callers = [f"{path.name}:{line}" for path in MODULES if path.name != "jsonl.py"
               for _, line, name in called_names(path) if name == "read_jsonl"]
    assert callers == []


def test_only_the_stage_driver_builds_a_backend_or_opens_the_cache():
    """`pipeline._run_stage` is the one driver of a backend stage."""
    callers = [f"{path.name}:{line} in {owner}" for path in MODULES
               for owner, line, name in called_names(path)
               if name in ("CompletionCache", "make_backend")
               and (path.name, owner) != ("pipeline.py", "_run_stage")]
    assert callers == []
