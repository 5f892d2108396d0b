import json
from pathlib import Path

import pytest

from sgqa.corpus import Paragraph
from sgqa.graph import Entity, Triple, build_full_graph, multi_step_graph
from sgqa.prompts import (
    MAX_PROMPT_CHARS,
    AssemblyError,
    ConfigurationError,
    PromptVariant,
    Setting,
    default_demo_file,
    entity_prompt,
    joint_graph_prompt,
    load_demonstrations,
    qa_prompt,
    relation_prompt,
    select_demos,
)

GOLDEN = Path(__file__).parent / "golden"


def demos(kind, count):
    return select_demos(load_demonstrations(default_demo_file(kind)), kind, count)


@pytest.fixture
def target():
    return Paragraph(
        title="Bowness-on-Windermere",
        sentences=(
            "Bowness-on-Windermere is a town beside Windermere lake.",
            " It merged with the neighbouring town of Windermere.",
        ),
    )


@pytest.fixture
def second():
    return Paragraph(
        title="Windermere (lake)",
        sentences=(
            "Windermere is the largest natural lake in England.",
            " It is in the Lake District National Park.",
        ),
    )


@pytest.fixture
def entities():
    return [Entity("Bowness-on-Windermere"), Entity("Windermere lake"), Entity("Windermere")]


@pytest.fixture
def sg_graphs(target, second, entities):
    a = multi_step_graph(
        target.title,
        entities,
        [Triple(entities[0], "is beside", entities[1]),
         Triple(entities[0], "merged with", entities[2])],
    )
    b = multi_step_graph(
        second.title,
        [Entity("Windermere"), Entity("England")],
        [Triple(Entity("Windermere"), "is the largest natural lake in", Entity("England"))],
    )
    return [a, b]


QUESTION = "Which lake is the town of Bowness situated on?"


def read_golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


# --------------------------------------------------------------- golden files

def test_entity_prompt_golden(target):
    bundle = entity_prompt(target, demos("entity", 4))
    assert bundle.text == read_golden("entity_prompt.golden")


def test_relation_prompt_golden(target, entities):
    bundle = relation_prompt(target, entities, demos("relation", 4))
    assert bundle.text == read_golden("relation_prompt.golden")


def test_joint_prompt_golden(target):
    bundle = joint_graph_prompt(target, demos("joint", 4))
    assert bundle.text == read_golden("joint_prompt.golden")


def test_qa_cot_prompt_golden(target, second, sg_graphs):
    bundle = qa_prompt([target, second], sg_graphs, QUESTION,
                       Setting.COT, PromptVariant.SG_MULTI, demos("qa_cot", 2))
    assert bundle.text == read_golden("qa_cot_prompt.golden")


def test_qa_fewshot_prompt_golden(target, second, sg_graphs):
    bundle = qa_prompt([target, second], sg_graphs, QUESTION,
                       Setting.FEWSHOT, PromptVariant.SG_MULTI, demos("qa_fewshot", 2))
    assert bundle.text == read_golden("qa_fewshot_prompt.golden")


# --------------------------------------------------------------- structure

def test_entity_prompt_ends_at_cue(target):
    bundle = entity_prompt(target, demos("entity", 4))
    assert bundle.text.endswith("Entities:")


def test_entity_prompt_zero_demos(target):
    bundle = entity_prompt(target, [])
    assert bundle.text == (
        "Document:\n"
        "Wikipedia Title: Bowness-on-Windermere\n"
        "Bowness-on-Windermere is a town beside Windermere lake. "
        "It merged with the neighbouring town of Windermere.\n"
        "Entities:"
    )


def test_entity_prompt_rejects_wrong_demo_kind(target):
    with pytest.raises(ConfigurationError):
        entity_prompt(target, demos("qa_cot", 1))


def test_relation_prompt_ends_with_graph_cue(target, entities):
    bundle = relation_prompt(target, entities, demos("relation", 4))
    assert bundle.text.endswith("Windermere\nGraph:")


def test_relation_prompt_empty_entities_error(target):
    with pytest.raises(ValueError, match="nonempty entity list"):
        relation_prompt(target, [], demos("relation", 4))


def test_relation_prompt_order_changes_hash(target, entities):
    a = relation_prompt(target, entities, demos("relation", 4))
    b = relation_prompt(target, list(reversed(entities)), demos("relation", 4))
    assert a.prompt_hash != b.prompt_hash


def test_relation_vs_joint_prompts_differ(target, entities):
    a = relation_prompt(target, entities, [])
    b = joint_graph_prompt(target, [])
    assert a.prompt_hash != b.prompt_hash


def test_joint_prompt_empty_paragraph_error():
    empty = Paragraph(title="T", sentences=("   ",))
    with pytest.raises(ValueError, match="nonempty paragraph"):
        joint_graph_prompt(empty, [])


def test_prompt_determinism(target, second, sg_graphs):
    a = qa_prompt([target, second], sg_graphs, QUESTION,
                  Setting.COT, PromptVariant.SG_MULTI, demos("qa_cot", 2))
    b = qa_prompt([target, second], sg_graphs, QUESTION,
                  Setting.COT, PromptVariant.SG_MULTI, demos("qa_cot", 2))
    assert a.text == b.text and a.prompt_hash == b.prompt_hash


def test_qa_prompt_ends_at_answer_cue(target, second, sg_graphs):
    bundle = qa_prompt([target, second], sg_graphs, QUESTION,
                       Setting.COT, PromptVariant.SG_MULTI, demos("qa_cot", 2))
    assert bundle.text.endswith("\nA:")
    assert not bundle.text.endswith(" ")


def test_qa_base_variant_rejects_graphs(target, sg_graphs):
    with pytest.raises(AssemblyError):
        qa_prompt([target], sg_graphs[:1], QUESTION,
                  Setting.COT, PromptVariant.BASE, demos("qa_cot", 2))


def test_qa_graph_count_mismatch(target, second, sg_graphs):
    with pytest.raises(AssemblyError, match="one graph per paragraph"):
        qa_prompt([target, second], sg_graphs[:1], QUESTION,
                  Setting.COT, PromptVariant.SG_MULTI, demos("qa_cot", 2))


def test_qa_graph_title_mismatch(target, second, sg_graphs):
    with pytest.raises(AssemblyError, match="paired with paragraph"):
        qa_prompt([target, second], list(reversed(sg_graphs)), QUESTION,
                  Setting.COT, PromptVariant.SG_MULTI, demos("qa_cot", 2))


def test_qa_graph_variant_mismatch(target, entities):
    gfull = build_full_graph(entities, source_title=target.title)
    with pytest.raises(AssemblyError, match="expects sg-multi"):
        qa_prompt([target], [gfull], QUESTION,
                  Setting.COT, PromptVariant.SG_MULTI, demos("qa_cot", 2))


def test_qa_settings_differ_only_in_prefix_and_demos(target, second, sg_graphs):
    cot = qa_prompt([target, second], sg_graphs, QUESTION,
                    Setting.COT, PromptVariant.SG_MULTI, [])
    few = qa_prompt([target, second], sg_graphs, QUESTION,
                    Setting.FEWSHOT, PromptVariant.SG_MULTI, [])
    # with no demos the only difference is the question prefix
    assert cot.text.replace(
        "Q: Answer the following question by reasoning step-by-step. ", "Q: "
    ) == few.text


def test_graph_lines_appear_verbatim(target, second, sg_graphs):
    from sgqa.graph import serialize_graph

    bundle = qa_prompt([target, second], sg_graphs, QUESTION,
                       Setting.COT, PromptVariant.SG_MULTI, demos("qa_cot", 2))
    for graph in sg_graphs:
        for line in serialize_graph(graph).splitlines():
            assert f"\n{line}\n" in bundle.text


def test_base_prompt_has_no_graph_lines(target, second):
    bundle = qa_prompt([target, second], [], QUESTION,
                       Setting.COT, PromptVariant.BASE, demos("qa_cot", 2))
    tail = bundle.text.split("Documents:")[-1]
    assert "(Bowness-on-Windermere," not in tail


def test_over_long_prompt_warns_but_returns(target, caplog):
    paragraph = Paragraph(title=target.title, sentences=("word " * (MAX_PROMPT_CHARS // 5),))
    with caplog.at_level("WARNING"):
        bundle = entity_prompt(paragraph, [])
    assert len(bundle.text) > MAX_PROMPT_CHARS
    assert "exceeds" in caplog.text
    assert bundle.text.endswith("Entities:")


# --------------------------------------------------------------- demo loading

def test_select_demos_counts():
    loaded = load_demonstrations(default_demo_file("entity"))
    assert len(select_demos(loaded, "entity", 4)) == 4
    with pytest.raises(ConfigurationError, match="need 9"):
        select_demos(loaded, "entity", 9)


DEMO_ROW = {"kind": "entity", "input_text": "x", "output_text": "y", "id": "d1"}


@pytest.mark.parametrize("row,error", [
    ({**DEMO_ROW, "output_text": None}, "field 'output_text' must be a string, got null"),
    ({k: v for k, v in DEMO_ROW.items() if k != "input_text"}, "missing field 'input_text'"),
    ({**DEMO_ROW, "kind": "qa"}, "unknown demonstration kind 'qa'"),
], ids=["null output_text", "no input_text", "unknown kind"])
def test_load_demonstrations_names_bad_row(tmp_path, row, error):
    path = tmp_path / "entity.jsonl"
    path.write_text(json.dumps(DEMO_ROW) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_demonstrations(path)
    assert str(excinfo.value) == f"{path}:2: {error}"


def test_packaged_demo_counts():
    for kind, count in (("entity", 4), ("relation", 4), ("joint", 4),
                        ("qa_cot", 2), ("qa_fewshot", 2)):
        loaded = load_demonstrations(default_demo_file(kind))
        assert len(loaded) == count
        assert all(d.kind == kind for d in loaded)
