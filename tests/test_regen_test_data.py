"""scripts/regen_test_data.py rebuilds the checked-in test data byte for byte."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_DIRS = ("tests/golden", "tests/data/e2e")


def files_under(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for data_dir in DATA_DIRS
        for path in sorted((root / data_dir).rglob("*"))
        if path.is_file()
    }


def test_regen_script_reproduces_checked_in_data(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "scripts", *DATA_DIRS):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)

    subprocess.run([sys.executable, str(tmp_path / "scripts" / "regen_test_data.py")],
                   cwd=tmp_path, check=True, capture_output=True, timeout=120)

    regenerated, checked_in = files_under(tmp_path), files_under(ROOT)
    assert sorted(regenerated) == sorted(checked_in)
    changed = [name for name in checked_in if regenerated[name] != checked_in[name]]
    assert changed == []
