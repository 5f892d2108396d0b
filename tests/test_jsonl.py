import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import sgqa
from sgqa import jsonl
from sgqa.jsonl import (read_jsonl, read_rows, remove_dead_temps, row_fault, write_atomic,
                        write_jsonl)


def test_jsonl_round_trip_skips_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, iter([{"a": 1}, {"b": "é"}]))
    path.write_text(path.read_text(encoding="utf-8") + "\n  \n", encoding="utf-8")
    assert list(read_jsonl(path)) == [(1, {"a": 1}), (2, {"b": "é"})]


def test_write_atomic_keeps_plain_write_permissions(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x", encoding="utf-8")
    atomic = tmp_path / "atomic.txt"
    write_atomic(atomic, ["x"])
    assert stat.S_IMODE(atomic.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.txt", "plain.txt"]


@pytest.mark.parametrize("row,fault", [
    ({"a": "x", "b": 1}, None),
    ({"a": "x", "b": 1, "c": None}, None),
    ({"b": 1}, "missing field 'a'"),
    (["a", "b"], "missing field 'a'"),
    ({"a": "x", "b": True}, "field 'b' must be an integer, got true"),
    ({"a": None, "b": 1.0}, "field 'a' must be a string, got null"),
], ids=["whole", "extra field", "missing", "not an object", "bool", "first fault"])
def test_row_fault_names_first_bad_field(row, fault):
    assert row_fault(row, {"a": str, "b": int}) == fault


def test_read_rows_checks_repeats_only_with_a_key(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"k": "a"}\n\n{"k": "a"}\n', encoding="utf-8")
    assert [line for _, line, _ in read_rows([path], {"k": str})] == [1, 3]
    with pytest.raises(ValueError) as excinfo:
        list(read_rows([path], {"k": str}, "k", lambda row: row["k"]))
    assert str(excinfo.value) == f"{path}:3: duplicate k 'a' (first at {path}:1)"


def test_write_atomic_into_a_missing_directory_raises_the_open_error(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as excinfo:
        write_atomic(target, ["x"])
    assert excinfo.value.filename.startswith(f"{target}.")  # the temp file's open
    assert not target.parent.exists()


def test_remove_dead_temps_after_another_remover_deleted_the_file(tmp_path, monkeypatch):
    dead = tmp_path / "out.jsonl.4194305-1.tmp"
    dead.write_text("x", encoding="utf-8")

    def another_stage_removes_it_first(pid):
        dead.unlink()
        return False

    monkeypatch.setattr(jsonl, "_process_exists", another_stage_removes_it_first)
    remove_dead_temps(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_remove_dead_temps_keeps_a_temp_whose_pid_is_too_large_for_kill(tmp_path):
    """No process has a pid above the largest pid_t, but `os.kill` refuses
    to ask, so the file is kept rather than a live writer's file removed."""
    kept = tmp_path / f"out.jsonl.{2**31}-1.tmp"
    kept.write_text("x", encoding="utf-8")
    with pytest.raises(OverflowError):
        os.kill(2**31, 0)
    remove_dead_temps(tmp_path)
    assert kept.exists()


SHORT_WRITE = """
import resource, signal, sys
from sgqa.jsonl import append_line, open_log

signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # an oversize write then fails, not the process
log = open_log(sys.argv[1])
append_line(log, "x" * 10)  # 12 bytes
resource.setrlimit(resource.RLIMIT_FSIZE, (20, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    append_line(log, "y" * 20)  # 22 bytes, of which the kernel writes 8
except OSError as exc:
    print(exc)
"""


def test_append_line_refuses_a_short_write(tmp_path):
    """A child process lowers its own file-size limit so that the kernel
    writes only part of an entry; `append_line` raises, and the torn entry
    is what a reader of the log skips."""
    log = tmp_path / "completions.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(sgqa.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", SHORT_WRITE, str(log)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{log}: short write to an append-only log\n"
    assert log.read_bytes() == b"\n" + b"x" * 10 + b"\n\n" + b"y" * 7
