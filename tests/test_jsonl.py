import stat

import pytest

from sgqa.jsonl import read_jsonl, read_rows, row_fault, write_atomic, write_jsonl


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
