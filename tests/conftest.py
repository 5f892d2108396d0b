import json

import pytest

from sgqa.corpus import Paragraph, QuestionRecord


def pytest_configure(config):
    """A socket or file left open fails the run: the ResourceWarning raised
    when it is garbage-collected becomes an error."""
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line("filterwarnings", "error::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture
def windermere_paragraph():
    return Paragraph(
        title="Windermere",
        sentences=(
            "Windermere is a town in the English county of Cumbria.",
            " Tourism is popular in Windermere mainly for its proximity to the lake.",
        ),
    )


@pytest.fixture
def hedemann_record():
    return QuestionRecord(
        id="q-hedemann",
        question="Where was the father of Knut Hedemann born?",
        gold_answer="Stange",
        context=(
            Paragraph("Knut Hedemann", ("Knut Hedemann was a Norwegian diplomat.",
                                        " His father Hans Hedemann was born in Stange, Norway.")),
            Paragraph("Stange", ("Stange is a municipality in Innlandet county, Norway.",)),
            Paragraph("Oslo", ("Oslo is the capital of Norway.",)),
        ),
        supporting_titles=frozenset({"Knut Hedemann", "Stange"}),
    )


def write_json(path, payload):
    path.write_text(json.dumps(payload, ensure_ascii=False, indent=1), encoding="utf-8")
    return path


@pytest.fixture
def sample_dataset_path(tmp_path):
    """Three well-formed HotpotQA-style records."""
    payload = [
        {
            "_id": "q1",
            "question": "Where was the father of Knut Hedemann born?",
            "answer": "Stange",
            "supporting_facts": [["Knut Hedemann", 1], ["Stange", 0]],
            "context": [
                ["Knut Hedemann", ["Knut Hedemann was a Norwegian diplomat.",
                                   " His father Hans Hedemann was born in Stange, Norway."]],
                ["Stange", ["Stange is a municipality in Innlandet county, Norway."]],
                ["Oslo", ["Oslo is the capital of Norway."]],
            ],
        },
        {
            "_id": "q2",
            "question": "Who is the paternal grandfather of Princess Anne of Orleans?",
            "answer": "Prince Robert, Duke of Chartres",
            "supporting_facts": [["Princess Anne of Orleans", 0]],
            "context": [
                ["Princess Anne of Orleans",
                 ["Princess Anne of Orleans was the daughter of Prince Jean, Duke of Guise.",
                  " Prince Jean was the youngest child of Prince Robert, Duke of Chartres."]],
                ["Paris", ["Paris is the capital of France."]],
            ],
        },
        {
            "_id": "q3",
            "question": "In which county is Windermere?",
            "answer": "Cumbria",
            "supporting_facts": [["Windermere", 0]],
            "context": [
                ["Windermere", ["Windermere is a town in the English county of Cumbria."]],
            ],
        },
    ]
    return write_json(tmp_path / "hotpot_sample.json", payload)
