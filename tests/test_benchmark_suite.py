"""The benchmark's own tests pin the sgqa names it calls and patches.

They run in a separate pytest process: collected beside `tests/`, their
`conftest` module would shadow this directory's.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmark/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
