import json

import pytest
from hypothesis import given, strategies as st

from sgqa import corpus
from sgqa.corpus import (
    DatasetParseError,
    DatasetSchemaError,
    Paragraph,
    QuestionRecord,
    SplitSizeError,
    gold_paragraphs,
    load_dataset,
    sample_splits,
)

from conftest import write_json


def test_load_dataset_well_formed(sample_dataset_path):
    records = load_dataset(sample_dataset_path, "hotpotqa")
    assert len(records) == 3
    first = records[0]
    assert first.id == "q1"
    assert first.question.startswith("Where was the father")
    assert first.gold_answer == "Stange"
    assert [p.title for p in first.context] == ["Knut Hedemann", "Stange", "Oslo"]
    assert first.supporting_titles == {"Knut Hedemann", "Stange"}


def test_load_dataset_shares_supporting_titles_with_their_paragraphs(tmp_path, caplog):
    path = write_json(tmp_path / "d.json", [
        {"_id": "q", "question": "q?", "answer": "a",
         "context": [["A", ["x."]], ["Bee", ["y.", "z."]], ["Cee", ["w."]]],
         "supporting_facts": [["Bee", 0], ["Bee", 1], ["Atlantis", 0], ["A", 0]]},
    ])
    [record] = load_dataset(path)
    assert record.supporting_titles == {"A", "Bee", "Atlantis"}
    by_text = {title: title for title in record.supporting_titles}
    assert by_text["A"] is record.context[0].title
    assert by_text["Bee"] is record.context[1].title
    with caplog.at_level("WARNING"):  # the title missing from the context is kept as read
        assert [p.title for p in gold_paragraphs(record)] == ["A", "Bee"]
    assert [r.getMessage() for r in caplog.records] == [
        "question q: supporting title 'Atlantis' not in context; skipped"]


def test_load_dataset_empty_array(tmp_path):
    path = write_json(tmp_path / "empty.json", [])
    assert load_dataset(path, "hotpotqa") == []


def test_load_dataset_missing_supporting_facts(tmp_path):
    path = write_json(tmp_path / "bad.json", [
        {"_id": "x", "question": "q?", "answer": "a", "context": []}
    ])
    with pytest.raises(DatasetSchemaError, match=r"record 0: bad field 'supporting_facts'"):
        load_dataset(path, "hotpotqa")


def test_load_dataset_duplicate_id_names_both_records(tmp_path):
    record = {"_id": "x", "question": "q?", "answer": "a", "supporting_facts": [],
              "context": []}
    path = write_json(tmp_path / "dup.json", [record, {**record, "_id": "y"}, record])
    with pytest.raises(DatasetSchemaError,
                       match=r"record 2: bad field '_id' \('x' repeats record 0\)"):
        load_dataset(path, "hotpotqa")


def test_load_dataset_malformed_json_reports_offset(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('[{"_id": "x", }]', encoding="utf-8")
    with pytest.raises(DatasetParseError, match="byte offset"):
        load_dataset(path, "hotpotqa")


def test_load_dataset_rejects_non_array(tmp_path):
    path = write_json(tmp_path / "obj.json", {"_id": "x"})
    with pytest.raises(DatasetParseError, match="array"):
        load_dataset(path, "hotpotqa")


def test_load_dataset_empty_answer_is_schema_error(tmp_path):
    path = write_json(tmp_path / "bad.json", [
        {"_id": "x", "question": "q?", "answer": "", "supporting_facts": [], "context": []}
    ])
    with pytest.raises(DatasetSchemaError, match=r"record 0: bad field 'answer'"):
        load_dataset(path, "hotpotqa")


def test_load_dataset_2wiki_ingests_evidences(tmp_path):
    """A 2Wiki file loads under either format; its `evidences` field is
    ignored, whatever its shape."""
    raw = [
        {
            "_id": f"w{i}",
            "question": "q?",
            "answer": "a",
            "supporting_facts": [["T", 0]],
            "context": [["T", ["Some sentence."]]],
            "evidences": evidences,
        }
        for i, evidences in enumerate([[["T", "relation", "a"]], 5])
    ]
    path = write_json(tmp_path / "wiki.json", raw)
    records = load_dataset(path, "2wiki")
    assert records == load_dataset(path, "hotpotqa")
    assert records == [
        QuestionRecord(f"w{i}", "q?", "a", (Paragraph("T", ("Some sentence.",)),),
                       frozenset({"T"}))
        for i in range(2)
    ]


def test_paragraph_text_is_sentence_concatenation(windermere_paragraph):
    assert windermere_paragraph.text == "".join(windermere_paragraph.sentences)


def test_paragraph_from_a_list_or_a_one_shot_iterable_equals_its_tuple_twin():
    twin = Paragraph("T", ("One.", " Two."))
    for sentences in (["One.", " Two."], (s for s in ["One.", " Two."])):
        paragraph = Paragraph("T", sentences)
        assert paragraph == twin and hash(paragraph) == hash(twin)
        for _ in range(2):
            assert paragraph.text == "One. Two."
            assert paragraph.sentences == ("One.", " Two.")


_CHARS = "é𝄞 \n\ta"


@given(title=st.text(_CHARS, min_size=1, max_size=4),
       a=st.lists(st.text(_CHARS, max_size=4), max_size=4),
       b=st.lists(st.text(_CHARS, max_size=4), max_size=4))
def test_paragraph_holds_its_sentences_and_equals_by_them(title, a, b):
    # Sentences may be "" and lists may be empty.
    first, second = Paragraph(title, a), Paragraph(title, b)
    assert first.sentences == tuple(a) and first.text == "".join(a)
    assert (first == second) == (tuple(a) == tuple(b))
    if tuple(a) == tuple(b):
        assert hash(first) == hash(second)
    assert Paragraph(title, ("ab",)) != Paragraph(title, ("a", "b"))
    raw = {"_id": "q", "question": "q?", "answer": "a", "supporting_facts": [],
           "context": [[title, a]]}
    [loaded] = corpus._build_records([raw], "memory")[0].context
    assert loaded == first
    assert loaded.text is loaded.text  # stored, not joined on each access


def test_gold_paragraphs_in_context_order(hedemann_record):
    gold = gold_paragraphs(hedemann_record)
    assert [p.title for p in gold] == ["Knut Hedemann", "Stange"]


def test_gold_paragraphs_empty_supporting_titles(hedemann_record):
    record = QuestionRecord(
        id="r", question="q?", gold_answer="a",
        context=hedemann_record.context, supporting_titles=frozenset(),
    )
    assert gold_paragraphs(record) == []


def test_gold_paragraphs_duplicate_titles():
    para = Paragraph("T", ("One.",))
    dup = Paragraph("T", ("Two.",))
    record = QuestionRecord(
        id="r", question="q?", gold_answer="a",
        context=(para, Paragraph("Other", ("X.",)), dup),
        supporting_titles=frozenset({"T"}),
    )
    assert gold_paragraphs(record) == [para, dup]


def test_gold_paragraphs_missing_title_warns(hedemann_record, caplog):
    record = QuestionRecord(
        id="r", question="q?", gold_answer="a",
        context=hedemann_record.context,
        supporting_titles=frozenset({"Knut Hedemann", "Atlantis"}),
    )
    with caplog.at_level("WARNING"):
        gold = gold_paragraphs(record)
    assert [p.title for p in gold] == ["Knut Hedemann"]
    assert "Atlantis" in caplog.text


def _records(n):
    return [
        QuestionRecord(
            id=f"q{i:03d}", question="q?", gold_answer="a",
            context=(Paragraph("T", ("S.",)),), supporting_titles=frozenset({"T"}),
        )
        for i in range(n)
    ]


def test_sample_splits_sizes_and_disjoint():
    split = sample_splits(_records(700), seed=7, dev_n=100, test_n=500)
    assert len(split.dev) == 100
    assert len(split.test) == 500
    assert not {r.id for r in split.dev} & {r.id for r in split.test}


def test_sample_splits_deterministic():
    records = _records(50)
    a = sample_splits(records, seed=3, dev_n=10, test_n=20)
    b = sample_splits(records, seed=3, dev_n=10, test_n=20)
    assert [r.id for r in a.dev] == [r.id for r in b.dev]
    assert [r.id for r in a.test] == [r.id for r in b.test]


def test_sample_splits_independent_of_input_order():
    records = _records(30)
    a = sample_splits(records, seed=1, dev_n=5, test_n=5)
    b = sample_splits(list(reversed(records)), seed=1, dev_n=5, test_n=5)
    assert [r.id for r in a.dev] == [r.id for r in b.dev]
    assert [r.id for r in a.test] == [r.id for r in b.test]


def test_sample_splits_zero_sizes():
    split = sample_splits(_records(5), seed=0, dev_n=0, test_n=0)
    assert split.dev == () and split.test == ()


def test_sample_splits_too_large():
    with pytest.raises(SplitSizeError):
        sample_splits(_records(5), seed=0, dev_n=3, test_n=3)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=2, max_value=40))
def test_sample_splits_disjoint_property(seed, n):
    dev_n = n // 3
    test_n = n // 3
    split = sample_splits(_records(n), seed=seed, dev_n=dev_n, test_n=test_n)
    dev_ids = {r.id for r in split.dev}
    test_ids = {r.id for r in split.test}
    assert len(dev_ids) == dev_n and len(test_ids) == test_n
    assert not dev_ids & test_ids
