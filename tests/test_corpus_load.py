"""Every error `load_dataset` raises, by exact message, plus the records it
builds, the cyclic-GC state it leaves behind and the memory a load holds."""

import dataclasses
import gc
import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sgqa import cli, corpus
from sgqa.corpus import DatasetParseError, DatasetSchemaError, load_dataset

from conftest import write_json


def _record(record_id="q", **fields):
    return {
        "_id": record_id,
        "question": "q?",
        "answer": "a",
        "supporting_facts": [["T", 0]],
        "context": [["T", ["One.", " Two."]], ["U", ["Three."]]],
        **fields,
    }


def _without(field_name):
    record = _record("bad")
    del record[field_name]
    return record


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if enabled else gc.disable)()


# The bad record is record 1, after a good one, so the index is checked too.
SCHEMA_ERRORS = {
    "record not an object": (
        ["q"], "record 1: bad field '<record>' (not a JSON object)"),
    "context not a list": (
        _record("bad", context={"T": ["s"]}), "record 1: bad field 'context' (expected a list)"),
    "entry of 3 items": (
        _record("bad", context=[["T", ["s"], 0]]),
        "record 1: bad field 'context' (entry 0 is not a [title, [sentences]] pair)"),
    "entry of 1 item": (
        _record("bad", context=[["T"]]),
        "record 1: bad field 'context' (entry 0 is not a [title, [sentences]] pair)"),
    "entry not a list": (
        _record("bad", context=["T"]),
        "record 1: bad field 'context' (entry 0 is not a [title, [sentences]] pair)"),
    "non-string title": (
        _record("bad", context=[["T", ["s"]], [7, ["s"]]]),
        "record 1: bad field 'context' (entry 1 is not a [title, [sentences]] pair)"),
    "sentences not a list": (
        _record("bad", context=[["T", "s"]]),
        "record 1: bad field 'context' (entry 0 is not a [title, [sentences]] pair)"),
    "integer sentence": (
        _record("bad", context=[["T", ["s", 1]]]),
        "record 1: bad field 'context' (entry 0 has non-string sentences)"),
    "null sentence": (
        _record("bad", context=[["T", ["s"]], ["U", [None]]]),
        "record 1: bad field 'context' (entry 1 has non-string sentences)"),
    "empty title": (
        _record("bad", context=[["", ["s"]]]),
        "record 1: bad field 'context' (entry 0: paragraph title must be nonempty)"),
    "empty title with bad sentences": (
        _record("bad", context=[["", [1]]]),
        "record 1: bad field 'context' (entry 0 has non-string sentences)"),
    "missing _id": (_without("_id"), "record 1: bad field '_id' (missing)"),
    "null _id": (_record(None), "record 1: bad field '_id' (must be a nonempty string)"),
    "integer _id": (_record(1), "record 1: bad field '_id' (must be a nonempty string)"),
    "empty _id": (_record(""), "record 1: bad field '_id' (must be a nonempty string)"),
    "missing question": (_without("question"), "record 1: bad field 'question' (missing)"),
    "missing context": (_without("context"), "record 1: bad field 'context' (missing)"),
    "empty question": (
        _record("bad", question=""),
        "record 1: bad field 'question' (must be a nonempty string)"),
    "non-string question": (
        _record("bad", question=["q?"]),
        "record 1: bad field 'question' (must be a nonempty string)"),
    "empty answer": (
        _record("bad", answer=""), "record 1: bad field 'answer' (must be a nonempty string)"),
    "bad context before empty answer": (
        _record("bad", answer="", context=[["", ["s"]]]),
        "record 1: bad field 'context' (entry 0: paragraph title must be nonempty)"),
    "supporting_facts not a list": (
        _record("bad", supporting_facts="T"),
        "record 1: bad field 'supporting_facts' (expected a list)"),
    "supporting fact without a title": (
        _record("bad", supporting_facts=[["T", 0], [0, 0]]),
        "record 1: bad field 'supporting_facts' (entry 1 is not a [title, sent_idx] pair)"),
    "supporting fact of one item": (
        _record("bad", supporting_facts=[["T"]]),
        "record 1: bad field 'supporting_facts' (entry 0 is not a [title, sent_idx] pair)"),
    "supporting fact of three items": (
        _record("bad", supporting_facts=[["T", 0, 1]]),
        "record 1: bad field 'supporting_facts' (entry 0 is not a [title, sent_idx] pair)"),
    "supporting fact with a string index": (
        _record("bad", supporting_facts=[["T", 0], ["T", "x"]]),
        "record 1: bad field 'supporting_facts' (entry 1 is not a [title, sent_idx] pair)"),
    "supporting fact with a boolean index": (
        _record("bad", supporting_facts=[["T", True]]),
        "record 1: bad field 'supporting_facts' (entry 0 is not a [title, sent_idx] pair)"),
}


@pytest.mark.parametrize("bad, message", SCHEMA_ERRORS.values(), ids=SCHEMA_ERRORS)
def test_schema_error_message(tmp_path, bad, message):
    path = write_json(tmp_path / "bad.json", [_record("good"), bad])
    with pytest.raises(DatasetSchemaError) as excinfo:
        load_dataset(path)
    assert str(excinfo.value) == message


def test_non_array_message(tmp_path):
    path = write_json(tmp_path / "obj.json", {"_id": "x"})
    with pytest.raises(DatasetParseError) as excinfo:
        load_dataset(path)
    assert str(excinfo.value) == f"{path}: expected a top-level JSON array of records"


def test_malformed_json_reports_byte_offset_not_character_index(tmp_path):
    # "é" is 2 bytes and "€" is 3, so character 20 is byte 23.
    path = tmp_path / "broken.json"
    path.write_text('[{"_id": "é€", "x": }]', encoding="utf-8")
    with pytest.raises(DatasetParseError) as excinfo:
        load_dataset(path)
    assert str(excinfo.value) == f"{path}: malformed JSON at byte offset 23: Expecting value"


def test_invalid_utf8_is_a_parse_error_naming_the_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'[{"_id": "\xff"}]')
    with pytest.raises(DatasetParseError) as excinfo:
        load_dataset(path)
    assert str(excinfo.value) == f"{path}: not UTF-8 at byte offset 10: invalid start byte"


def test_cli_names_a_dataset_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'[{"_id": "\xff"}]')
    code = cli.main(["evaluate", "--dataset", str(path), "--predictions", str(tmp_path / "p"),
                     "--output-dir", str(tmp_path / "eval")])
    assert code == 2
    assert f"error: {path}: not UTF-8 at byte offset 10" in capsys.readouterr().err


def test_loaded_records_are_equal_hashable_and_frozen(tmp_path):
    path = write_json(tmp_path / "ok.json", [_record("a"), _record("b", context=[["V", []]])])
    first, again = load_dataset(path), load_dataset(path)
    assert first == again
    paragraph = first[0].context[0]
    assert (paragraph.title, paragraph.sentences) == ("T", ("One.", " Two."))
    assert paragraph.text == "".join(paragraph.sentences) == "One. Two."
    assert first[1].context[0].text == ""
    assert hash(paragraph) == hash(again[0].context[0])
    assert len({p for r in first + again for p in r.context}) == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        paragraph.title = "Other"


@pytest.mark.usefixtures("restore_gc")
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("outcome", ["loaded", "schema-error", "parse-error"])
def test_load_leaves_gc_as_it_found_it(tmp_path, enabled, outcome):
    records = [_record(f"q{i}") for i in range(50)]
    if outcome == "schema-error":
        records[30]["context"] = [["T", ["s", None]]]
    path = write_json(tmp_path / "data.json", records)
    if outcome == "parse-error":
        path.write_text(path.read_text(encoding="utf-8")[:-40], encoding="utf-8")
    (gc.enable if enabled else gc.disable)()
    if outcome == "loaded":
        assert len(load_dataset(path)) == 50
    else:
        error = DatasetSchemaError if outcome == "schema-error" else DatasetParseError
        with pytest.raises(error):
            load_dataset(path)
    assert gc.isenabled() is enabled


@pytest.fixture
def one_shot_parses(monkeypatch):
    """The paths `load_dataset` parsed in one piece: only after the stream faulted."""
    parses = []
    read_json = corpus._read_json

    def counted(path):
        parses.append(path)
        return read_json(path)

    monkeypatch.setattr(corpus, "_read_json", counted)
    return parses


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=st.lists(st.text(alphabet='aé€𝄞 \\"\n\t', min_size=1, max_size=6),
                      max_size=5),
       indent=st.sampled_from([None, 0, 1, "\t"]))
def test_stream_equals_one_shot_parse_at_any_chunk_size(tmp_path, monkeypatch, one_shot_parses,
                                                        texts, indent):
    # Multi-byte characters, escapes, whitespace and numbers fall across every
    # chunk boundary at some chunk size.
    records = [_record(f"q{i}é", question=text, answer="€" + text, supporting_facts=[[text, 12]],
                       context=[[text, [text, "𝄞 " + text]], ["𝄞", []]])
               for i, text in enumerate(texts)]
    path = tmp_path / "unicode.json"
    path.write_text("\r\n " + json.dumps(records, ensure_ascii=False, indent=indent) + "\n\t",
                    encoding="utf-8")
    expected = corpus._build_records(corpus._read_json(path), path)
    one_shot_parses.clear()
    for chunk in (1, 2, 3, 5, 7, 64):
        monkeypatch.setattr(corpus, "_CHUNK", chunk)
        assert load_dataset(path) == expected
    assert one_shot_parses == []


def test_stream_equals_one_shot_parse_at_the_real_chunk_size(tmp_path, one_shot_parses):
    # A paragraph several chunks long, its multi-byte characters falling
    # across the chunk boundaries.
    sentences = [f"{i} é€𝄞 " * 9 for i in range(4 * corpus._CHUNK // 80)]
    records = [_record("a"), _record("big", context=[["T", sentences], ["𝄞", ["é"]]]),
               _record("z")]
    path = write_json(tmp_path / "big.json", records)
    assert path.stat().st_size > 4 * corpus._CHUNK
    expected = corpus._build_records(corpus._read_json(path), path)
    one_shot_parses.clear()
    loaded = load_dataset(path)
    assert loaded == expected
    assert loaded[1].context[0].sentences == tuple(sentences)
    assert one_shot_parses == []


@pytest.mark.parametrize("cut", range(1, 5))
def test_number_cut_at_a_chunk_boundary_is_one_bad_record(tmp_path, monkeypatch,
                                                         one_shot_parses, cut):
    head = "[" + json.dumps(_record("good")) + ", "
    path = tmp_path / "number.json"
    path.write_text(head + "12345]", encoding="utf-8")
    monkeypatch.setattr(corpus, "_CHUNK", len(head) + cut)
    with pytest.raises(DatasetSchemaError) as excinfo:
        load_dataset(path)
    assert str(excinfo.value) == "record 1: bad field '<record>' (not a JSON object)"
    assert one_shot_parses == [path]


GOOD = json.dumps(_record("good"))
TRUNCATED = f'[{GOOD}, {json.dumps(_record("bad", answer=""))}, {GOOD}'.encode()
JSON_ERROR = f'[{GOOD[:-1]}, "x": }}, {GOOD}, {GOOD}]'.encode()
EXTRA = f"[{GOOD}] x".encode()
# Each file has a fault the stream meets first and one the one-shot parse
# meets first; the one-shot parse's fault is reported.
FIRST_FAULTS = {
    "schema error, then truncated": (
        TRUNCATED, f"malformed JSON at byte offset {len(TRUNCATED)}: Expecting ',' delimiter"),
    "JSON error, then not UTF-8": (
        JSON_ERROR[:-20] + b"\xff" + JSON_ERROR[-19:],
        f"not UTF-8 at byte offset {len(JSON_ERROR) - 20}: invalid start byte"),
    "extra data": (EXTRA, f"malformed JSON at byte offset {len(EXTRA) - 1}: Extra data"),
}


@pytest.mark.parametrize("data, message", FIRST_FAULTS.values(), ids=FIRST_FAULTS)
def test_first_fault_of_the_one_shot_parse_wins(tmp_path, monkeypatch, one_shot_parses,
                                                data, message):
    path = tmp_path / "faulty.json"
    path.write_bytes(data)
    monkeypatch.setattr(corpus, "_CHUNK", 16)
    with pytest.raises(DatasetParseError) as excinfo:
        load_dataset(path)
    assert str(excinfo.value) == f"{path}: {message}"
    assert one_shot_parses == [path]


def test_load_holds_the_records_and_about_one_chunk(tmp_path):
    sentences = [f"Sentence {i} " + "word " * 40 for i in range(40)]
    records = [_record(f"q{i}", context=[["T", sentences], ["U", sentences[:5]]])
               for i in range(1000)]
    path = write_json(tmp_path / "big.json", records)
    assert path.stat().st_size >= 8 << 20
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == 1000
    assert peak - held < 4 * corpus._CHUNK
