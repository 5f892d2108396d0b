"""The input generator: determinism, planted truth, and that the replay
fixture answers every request of a real pipeline run."""

import dataclasses
import json

import pytest

import generate
from sgqa import corpus, grounding, pipeline
from sgqa import graph as graph_mod

SMALL = generate.Params(questions=12, paragraphs=4, sentences=3, words=12)


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_same_seed_same_files(tmp_path):
    generate.generate(SMALL, 7, tmp_path / "a")
    generate.generate(SMALL, 7, tmp_path / "b")
    generate.generate(SMALL, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["dataset.json"] != _files(tmp_path / "c")["dataset.json"]


def test_shapes_and_unique_gold(tmp_path):
    truth = generate.generate(SMALL, 1, tmp_path)
    records = corpus.load_dataset(tmp_path / "dataset.json")
    assert len(records) == truth["questions"] == SMALL.questions
    gold_titles = []
    for record in records:
        assert len(record.context) == SMALL.paragraphs
        assert len({p.title for p in record.context}) == SMALL.paragraphs
        gold = corpus.gold_paragraphs(record)
        assert len(gold) == SMALL.gold
        assert all(len(p.sentences) == SMALL.sentences for p in gold)
        gold_titles += [p.title for p in gold]
    assert len(set(gold_titles)) == len(gold_titles)
    assert len(truth["graphs"]) == len(gold_titles)


def test_gold_pool_reuses_paragraphs(tmp_path):
    params = dataclasses.replace(SMALL, questions=30, gold_pool=10)
    truth = generate.generate(params, 1, tmp_path)
    titles = [title for _, _, title, _ in truth["graphs"]]
    assert len(titles) == 60 and len(set(titles)) <= 10
    # Each distinct gold paragraph needs one entity and one relation request.
    assert truth["extraction_keys"] == 2 * len(set(titles))
    assert truth["distinct_keys"] == truth["extraction_keys"] + params.questions


def test_planted_grounding_counts(tmp_path):
    params = dataclasses.replace(SMALL, ungroundable_share=0.3)
    truth = generate.generate(params, 3, tmp_path)
    by_id = {r.id: r for r in corpus.load_dataset(tmp_path / "dataset.json")}
    partly = 0
    for qid, index, title, spec in truth["graphs"]:
        paragraph = corpus.gold_paragraphs(by_id[qid])[index]
        assert paragraph.title == title
        entities = [graph_mod.Entity(e) for e in spec["entities"]]
        triples = [graph_mod.Triple(graph_mod.Entity(s), r, graph_mod.Entity(o))
                   for s, r, o in spec["triples"]]
        report = grounding.grounding_report(
            graph_mod.multi_step_graph(title, entities, triples), paragraph)
        assert len(report.per_element) == spec["elements"]
        assert sum(e.grounded for e in report.per_element) == spec["grounded"]
        partly += spec["grounded"] < spec["elements"]
    assert partly > 0


def test_replay_fixture_serves_a_pipeline_run(tmp_path):
    truth = generate.generate(SMALL, 2, tmp_path / "in")
    config = pipeline.RunConfig(
        dataset_path=str(tmp_path / "in" / "dataset.json"), variant="sg-multi",
        setting="cot", replay_file=str(tmp_path / "in" / "replay.jsonl"),
        model_id=truth["model_id"], cache_dir=str(tmp_path / "cache"),
        output_dir=str(tmp_path / "run"))
    pipeline.run_extract(config)
    predictions = pipeline.read_predictions([pipeline.run_answer(config)])
    assert {p["question_id"]: p["answer"] for p in predictions} == truth["answers"]
    assert all(p["flags"] == [] for p in predictions)
    assert pipeline.RunManifest(tmp_path / "run" / "manifest.json").failed() == []
    report = pipeline.run_evaluate(
        predictions, corpus.load_dataset(config.dataset_path), tmp_path / "eval",
        human_labels=pipeline.read_labels(tmp_path / "in" / "labels.jsonl"))
    em = report["answer"]["aggregates"]["sg-multi/cot"]["em"]
    assert em == pytest.approx(sum(truth["em"].values()) / SMALL.questions)
    assert 0 < em < 1


def test_predictions_mode(tmp_path):
    params = dataclasses.replace(SMALL, questions=40, predictions=True)
    truth = generate.generate(params, 4, tmp_path)
    assert not (tmp_path / "replay.jsonl").exists()
    rows = pipeline.read_predictions([tmp_path / "predictions.jsonl"])
    gold = {r.id: r.gold_answer for r in corpus.load_dataset(tmp_path / "dataset.json")}
    assert len(rows) == 40
    for row in rows:
        assert (row["answer"] == gold[row["question_id"]]) == bool(truth["em"][row["question_id"]])
        assert len(row["completion"].split()) >= params.chain_tokens
    labels = [json.loads(line)["label"]
              for line in (tmp_path / "labels.jsonl").read_text().splitlines()]
    assert set(labels) == {0, 1}
