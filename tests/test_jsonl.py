import stat

from sgqa.jsonl import read_jsonl, write_atomic, write_jsonl


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
