import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import sgqa
from sgqa import cli, corpus, pipeline, prompts
from sgqa.jsonl import read_jsonl
from sgqa.llm import CompletionCache, ReplayBackend, request_key
from sgqa.pipeline import RunConfig, RunManifest, UsageError
from sgqa.prompts import PromptVariant, Setting

E2E = Path(__file__).parent / "data" / "e2e"
MODEL = "fixture-model"


def make_config(tmp_path, variant="sg-multi", setting="cot", **overrides):
    base = dict(
        dataset_path=str(E2E / "dataset.json"),
        variant=variant,
        setting=setting,
        backend="replay",
        replay_file=str(E2E / "replay.jsonl"),
        cache_dir=str(tmp_path / "cache"),
        model_id=MODEL,
        output_dir=str(tmp_path / "run"),
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture
def records():
    return corpus.load_dataset(E2E / "dataset.json", "hotpotqa")


# --------------------------------------------------------------- extract

def test_run_extract_writes_graph_per_gold_paragraph(tmp_path, records):
    config = make_config(tmp_path)
    graphs_path = pipeline.run_extract(config)
    rows = [json.loads(line) for line in graphs_path.read_text().splitlines()]
    assert len(rows) == sum(len(corpus.gold_paragraphs(r)) for r in records) == 20
    by_qid = pipeline.load_graphs(graphs_path)
    assert set(by_qid) == {r.id for r in records}
    sample = by_qid["e2e-02"][0]
    assert sample.variant.value == "sg-multi"
    assert any(t.subject.text == "Prince Jean, Duke of Guise" for t in sample.triples)


def test_run_extract_base_variant_rejected(tmp_path):
    with pytest.raises(UsageError):
        pipeline.run_extract(make_config(tmp_path, variant="base"))


def test_run_extract_gfull_graphs(tmp_path):
    config = make_config(tmp_path, variant="g-full")
    by_qid = pipeline.load_graphs(pipeline.run_extract(config))
    graph = by_qid["e2e-01"][0]
    k = len(graph.entities)
    assert len(graph.pairs) == k * (k - 1) // 2 > 0


def test_sg_multi_without_entities_writes_empty_graph_and_asks_no_relations(
    tmp_path, records, monkeypatch, caplog
):
    prompts_sent, relation_prompts = [], []

    class NoEntities(ReplayBackend):
        def complete(self, request):
            prompts_sent.append(request.prompt)
            return ""

    monkeypatch.setattr(pipeline, "make_backend", lambda _config: NoEntities({}))
    monkeypatch.setattr(prompts, "relation_prompt", lambda *args: relation_prompts.append(args))
    with caplog.at_level("WARNING"):
        graphs_path = pipeline.run_extract(make_config(tmp_path))
    rows = [json.loads(line) for line in graphs_path.read_text().splitlines()]
    paragraphs = [p for r in records for p in corpus.gold_paragraphs(r)]
    assert [row["graph"] for row in rows] == [
        {"source_title": p.title, "variant": "sg-multi", "entities": [], "pairs": [],
         "triples": []} for p in paragraphs]
    assert len(prompts_sent) == len(paragraphs) and relation_prompts == []
    assert [r.getMessage() for r in caplog.records] == [
        f"no entities extracted for {p.title!r}; emitting empty graph" for p in paragraphs]


def test_rerun_extract_uses_cache_only(tmp_path, counted):
    config = make_config(tmp_path)
    first = pipeline.run_extract(config).read_bytes()

    counting = counted(ReplayBackend.from_file(config.replay_file))

    def make_counting(_config):
        return counting

    original = pipeline.make_backend
    pipeline.make_backend = make_counting
    try:
        config2 = make_config(tmp_path, output_dir=str(tmp_path / "run2"))
        second = pipeline.run_extract(config2).read_bytes()
    finally:
        pipeline.make_backend = original
    assert counting.calls == 0
    assert first == second


def test_rerun_regenerates_mistyped_cache_entry_once(tmp_path, monkeypatch, caplog, counted):
    config = make_config(tmp_path)
    expected = pipeline.run_extract(config).read_bytes()
    log = Path(config.cache_dir) / "completions.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "text": None})  # line 1 is blank
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")

    counting = counted(ReplayBackend.from_file(config.replay_file))
    monkeypatch.setattr(pipeline, "make_backend", lambda _config: counting)
    config2 = make_config(tmp_path, output_dir=str(tmp_path / "run2"))
    with caplog.at_level("WARNING"):
        assert pipeline.run_extract(config2).read_bytes() == expected
    assert f"{log}:2: not a cache entry; skipped" in caplog.text
    assert counting.calls == 1
    assert RunManifest(Path(config2.output_dir) / "manifest.json").failed() == []


@pytest.mark.parametrize("variant,kinds", [
    ("sg-multi", ["entity", "relation"]), ("g-full", ["entity"]), ("sg-one", ["joint"]),
])
def test_run_extract_reads_only_the_demos_its_variant_uses(tmp_path, variant, kinds):
    demo_dir = tmp_path / "demos"
    demo_dir.mkdir()
    for kind in kinds:
        (demo_dir / f"{kind}.jsonl").write_text(
            prompts.default_demo_file(kind).read_text(encoding="utf-8"), encoding="utf-8")
    packaged = make_config(tmp_path, variant=variant, output_dir=str(tmp_path / "packaged"))
    expected = pipeline.run_extract(packaged).read_bytes()
    config = make_config(tmp_path, variant=variant, demo_dir=str(demo_dir))
    assert pipeline.run_extract(config).read_bytes() == expected


SHARED = 4  # e2e-05, whose gold paragraphs no demo quotes


@pytest.fixture
def reuse_config(tmp_path):
    """The e2e fixture plus a copy of e2e-05 under a new id. The copy's
    requests are e2e-05's, so replay.jsonl serves them."""
    data = json.loads((E2E / "dataset.json").read_text(encoding="utf-8"))
    data.append({**data[SHARED], "_id": "e2e-05-copy"})
    dataset = tmp_path / "reuse.json"
    dataset.write_text(json.dumps(data), encoding="utf-8")
    return make_config(tmp_path, dataset_path=str(dataset))


def rows_of(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def rows_without_id(rows, question_id):
    return [{**row, "question_id": None} for row in rows if row["question_id"] == question_id]


def test_questions_sharing_a_gold_paragraph_share_its_graph(reuse_config, monkeypatch):
    extract, titles = pipeline.extract_paragraph_graph, []

    def counting(paragraph, *args):
        titles.append(paragraph.title)
        return extract(paragraph, *args)

    monkeypatch.setattr(pipeline, "extract_paragraph_graph", counting)
    graphs_path = pipeline.run_extract(reuse_config)
    assert len(titles) == len(set(titles)) == 20  # for 22 gold paragraphs
    by_qid = pipeline.load_graphs(graphs_path)
    assert len(by_qid["e2e-05"]) == 2
    assert all(by_qid["e2e-05-copy"][i] is graph for i, graph in by_qid["e2e-05"].items())
    graphs = rows_of(graphs_path)
    assert rows_without_id(graphs, "e2e-05-copy") == rows_without_id(graphs, "e2e-05")
    predictions = rows_of(pipeline.run_answer(reuse_config))
    assert len(predictions) == 11
    assert rows_without_id(predictions, "e2e-05-copy") == rows_without_id(predictions, "e2e-05")


def test_failed_extraction_of_a_shared_paragraph_is_retried_by_its_next_question(
    tmp_path, reuse_config, records, monkeypatch
):
    clean = make_config(tmp_path, output_dir=str(tmp_path / "clean"),
                        cache_dir=str(tmp_path / "clean-cache"))
    expected = rows_without_id(rows_of(pipeline.run_extract(clean)), "e2e-05")
    doomed = corpus.gold_paragraphs(records[SHARED])[0].text
    failed = []

    class FailsOnce(ReplayBackend):
        def complete(self, request):
            if doomed in request.prompt and not failed:
                failed.append(request)
                raise RuntimeError("backend down")
            return super().complete(request)

    fixtures = ReplayBackend.from_file(reuse_config.replay_file)._fixtures
    monkeypatch.setattr(pipeline, "make_backend", lambda _config: FailsOnce(fixtures))
    graphs = rows_of(pipeline.run_extract(reuse_config))
    assert failed
    assert RunManifest(Path(reuse_config.output_dir) / "manifest.json").failed() == [
        ("e2e-05", "extract: backend down")]
    assert rows_without_id(graphs, "e2e-05") == []
    assert rows_without_id(graphs, "e2e-05-copy") == expected != []


def test_workers_do_not_change_output_of_shared_paragraphs(tmp_path, reuse_config):
    """Workers share the kept graphs; a short switch interval makes two of
    them race to build the shared paragraph more often."""
    outputs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 8):
            config = dataclasses.replace(reuse_config, workers=workers,
                                         output_dir=str(tmp_path / f"workers-{workers}"),
                                         cache_dir=str(tmp_path / f"cache-{workers}"))
            outputs[workers] = (pipeline.run_extract(config).read_bytes(),
                                pipeline.run_answer(config).read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert outputs[2] == outputs[1] and outputs[8] == outputs[1]


# --------------------------------------------------------------- stage records

def test_load_records_keeps_each_records_gold_paragraphs_and_warns_of_none(tmp_path, caplog):
    data = json.loads((E2E / "dataset.json").read_text(encoding="utf-8"))
    data[0]["context"].append(["Stange", ["A second paragraph titled Stange."]])
    data[2]["supporting_facts"].append(["Atlantis", 0])
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps(data), encoding="utf-8")
    for split in ("all", "dev", "test"):
        config = make_config(tmp_path, dataset_path=str(dataset), split=split, dev_n=3, test_n=4)
        caplog.clear()
        with caplog.at_level("WARNING"):
            records = pipeline.load_records(config)
        assert caplog.records == []
        full = corpus.load_dataset(dataset)
        if split == "all":
            assert [p.title for p in records[0].context] == ["Knut Hedemann", "Stange", "Stange"]
        else:
            full = getattr(corpus.sample_splits(full, config.seed, 3, 4), split)
        assert [r.id for r in records] == [r.id for r in full]
        for record, whole in zip(records, full):
            assert list(record.context) == corpus.gold_paragraphs(whole)
            assert dataclasses.replace(record, context=whole.context) == whole


def test_load_records_rejects_a_malformed_distractor(tmp_path):
    data = json.loads((E2E / "dataset.json").read_text(encoding="utf-8"))
    assert data[3]["context"][2][0] == "Kendal (town)"  # no supporting title
    data[3]["context"][2][1].append(7)
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(corpus.DatasetSchemaError) as excinfo:
        pipeline.load_records(make_config(tmp_path, dataset_path=str(dataset)))
    assert str(excinfo.value) == "record 3: bad field 'context' (entry 2 has non-string sentences)"


def test_run_answer_loads_its_records_before_the_graphs(tmp_path, monkeypatch):
    config = make_config(tmp_path)
    pipeline.run_extract(config)
    loads = []
    for name in ("load_records", "load_graphs"):
        monkeypatch.setattr(pipeline, name, lambda *args, _load=getattr(pipeline, name),
                            _name=name: loads.append(_name) or _load(*args))
    pipeline.run_answer(config)
    assert loads == ["load_records", "load_graphs"]


# --------------------------------------------------------------- answer

# The fields of every row the answer stage writes to predictions.jsonl.
WRITTEN_FIELDS = {"question_id", "variant", "setting", "prompt_hash", "completion",
                  "chain_sentences", "answer", "backend_id", "flags"}


def test_run_answer_base_cot(tmp_path, records):
    config = make_config(tmp_path, variant="base")
    predictions_path = pipeline.run_answer(config)
    rows = [row for _, row in read_jsonl(predictions_path)]  # every written field
    assert len(rows) == len(records)
    by_qid = {row["question_id"]: row for row in rows}
    assert by_qid["e2e-01"]["answer"] == "Stange"
    assert by_qid["e2e-01"]["chain_sentences"]
    assert by_qid["e2e-01"]["flags"] == []
    # schema keys from the predictions contract
    for key in ("question_id", "variant", "setting", "prompt_hash",
                "completion", "chain_sentences", "answer"):
        assert key in rows[0]
    assert all(set(row) == WRITTEN_FIELDS for row in rows)


def test_run_answer_fewshot_has_empty_chain(tmp_path):
    config = make_config(tmp_path, variant="base", setting="fewshot")
    rows = [row for _, row in read_jsonl(pipeline.run_answer(config))]  # every written field
    assert all(row["chain_sentences"] == [] for row in rows)
    assert all(set(row) == WRITTEN_FIELDS for row in rows)
    assert {row["answer"] for row in rows} >= {"Stange", "violin"}


def test_run_answer_records_fallback_flag(tmp_path):
    extract_config = make_config(tmp_path, variant="sg-one")
    graphs_path = pipeline.run_extract(extract_config)
    config = make_config(tmp_path, variant="sg-one",
                         output_dir=str(tmp_path / "ans"))
    rows = pipeline.read_predictions([pipeline.run_answer(config, graphs_path)])
    flagged = [row for row in rows if row["flags"]]
    assert [row["question_id"] for row in flagged] == ["e2e-05"]
    assert flagged[0]["flags"] == ["no-answer-pattern"]


def test_load_graphs_rejects_duplicate_paragraph(tmp_path):
    graphs_path = pipeline.run_extract(make_config(tmp_path))
    lines = graphs_path.read_text(encoding="utf-8").splitlines()
    graphs_path.write_text("\n".join([*lines, lines[3]]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"graphs.jsonl:{len(lines) + 1}: duplicate "
                                         r"\(question_id, paragraph_index\) .* "
                                         rf"\(first at {re.escape(str(graphs_path))}:4\)$"):
        pipeline.load_graphs(graphs_path)


def test_run_ground_rejects_duplicate_paragraph(tmp_path, records):
    graphs_path = pipeline.run_extract(make_config(tmp_path))
    lines = graphs_path.read_text(encoding="utf-8").splitlines()
    graphs_path.write_text("\n".join([*lines, lines[3]]) + "\n", encoding="utf-8")
    out = tmp_path / "grounding.jsonl"
    with pytest.raises(ValueError) as excinfo:
        pipeline.run_ground(graphs_path, records, out)
    row = json.loads(lines[3])
    assert str(excinfo.value) == (
        f"{graphs_path}:{len(lines) + 1}: duplicate (question_id, paragraph_index) "
        f"({row['question_id']!r}, {row['paragraph_index']}) (first at {graphs_path}:4)"
    )
    assert not out.exists()


def test_run_answer_missing_graphs_file(tmp_path):
    config = make_config(tmp_path, dataset_path=str(tmp_path / "not-loaded.json"))
    with pytest.raises(UsageError, match="needs graphs"):
        pipeline.run_answer(config, tmp_path / "nope.jsonl")


def test_run_answer_missing_question_graph_marks_failed(tmp_path):
    extract_config = make_config(tmp_path)
    graphs_path = pipeline.run_extract(extract_config)
    pruned = tmp_path / "pruned.jsonl"
    with open(graphs_path) as fh, open(pruned, "w") as out:
        for line in fh:
            if '"e2e-07"' not in line:
                out.write(line)
    config = make_config(tmp_path, output_dir=str(tmp_path / "ans"))
    rows = pipeline.read_predictions([pipeline.run_answer(config, pruned)])
    assert len(rows) == 9
    manifest = RunManifest(tmp_path / "ans" / "manifest.json")
    assert manifest.failed() == [("e2e-07", "missing graph")]


@pytest.mark.parametrize("renumber,reason", [
    ({0: 0, 1: 5}, "missing graph"),
    ({0: 0}, "answer: need one graph per paragraph: 1 graphs, 2 paragraphs"),
], ids=["index-gap", "partial"])
def test_run_answer_needs_graphs_at_indexes_from_zero(tmp_path, records, renumber, reason):
    """A question's graphs must sit at paragraph indexes 0..n-1, one per gold
    paragraph; e2e-07 has two gold paragraphs."""
    assert len(corpus.gold_paragraphs(records[6])) == 2 and records[6].id == "e2e-07"
    graphs_path = pipeline.run_extract(make_config(tmp_path))
    edited = []
    for line in graphs_path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        if row["question_id"] == "e2e-07":
            if row["paragraph_index"] not in renumber:
                continue
            row["paragraph_index"] = renumber[row["paragraph_index"]]
        edited.append(json.dumps(row) + "\n")
    edited_path = tmp_path / "edited.jsonl"
    edited_path.write_text("".join(edited), encoding="utf-8")
    config = make_config(tmp_path, output_dir=str(tmp_path / "ans"))
    rows = pipeline.read_predictions([pipeline.run_answer(config, edited_path)])
    assert "e2e-07" not in {row["question_id"] for row in rows} and len(rows) == 9
    assert RunManifest(tmp_path / "ans" / "manifest.json").failed() == [("e2e-07", reason)]


def test_each_stage_warns_once_of_a_missing_supporting_title(tmp_path, caplog):
    data = json.loads((E2E / "dataset.json").read_text(encoding="utf-8"))
    data[2]["supporting_facts"].append(["Atlantis", 0])
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps(data), encoding="utf-8")
    config = make_config(tmp_path, dataset_path=str(dataset))
    for run in (pipeline.run_extract, pipeline.run_answer, ground):
        caplog.clear()
        with caplog.at_level("WARNING"):
            run(config)
        assert [r.getMessage() for r in caplog.records if "Atlantis" in r.getMessage()] == [
            f"question {data[2]['_id']}: supporting title 'Atlantis' not in context; skipped"
        ]
    assert RunManifest(Path(config.output_dir) / "manifest.json").failed() == []


def test_failed_question_logs_one_warning_and_its_traceback_at_debug(tmp_path, caplog):
    replay = tmp_path / "empty.jsonl"
    replay.write_text("", encoding="utf-8")
    config = make_config(tmp_path, variant="base", replay_file=str(replay))
    for level, traced in (("WARNING", False), ("DEBUG", True)):
        caplog.clear()
        with caplog.at_level(level, logger="sgqa.pipeline"):
            pipeline.run_answer(config)
        failed = RunManifest(Path(config.output_dir) / "manifest.json").failed()
        assert len(failed) == 10 and all("no replay fixture" in why for _, why in failed)
        records = [r for r in caplog.records if r.name == "sgqa.pipeline"]
        assert [(r.levelname, r.getMessage()) for r in records] == [
            ("WARNING", f"answer failed for {qid}: {why.removeprefix('answer: ')}")
            for qid, why in failed
        ]
        assert all(bool(r.exc_info) is traced for r in records)


def test_end_to_end_determinism(tmp_path):
    config_a = make_config(tmp_path, output_dir=str(tmp_path / "a"))
    pipeline.run_extract(config_a)
    a = pipeline.run_answer(config_a).read_bytes()
    config_b = make_config(tmp_path, output_dir=str(tmp_path / "b"),
                           cache_dir=str(tmp_path / "cache-b"))
    pipeline.run_extract(config_b)
    b = pipeline.run_answer(config_b).read_bytes()
    assert a == b


@pytest.mark.parametrize("variant", ["g-full", "sg-multi", "sg-one"])
def test_each_request_renders_through_the_prompts_module(tmp_path, monkeypatch, records,
                                                        variant):
    """The benchmark times prompt rendering by patching these attributes of
    `prompts`, so the pipeline must look each one up there per request."""
    calls = dict.fromkeys(("entity_prompt", "relation_prompt", "joint_graph_prompt",
                           "qa_prompt"), 0)
    for name in calls:
        def counting(*args, _name=name, _render=getattr(prompts, name), **kwargs):
            calls[_name] += 1
            return _render(*args, **kwargs)
        monkeypatch.setattr(prompts, name, counting)
    config = make_config(tmp_path, variant=variant)
    graph_rows = [json.loads(line) for line in
                  pipeline.run_extract(config).read_text(encoding="utf-8").splitlines()]
    assert len(pipeline.read_predictions([pipeline.run_answer(config)])) == len(records)

    paragraphs = sum(len(corpus.gold_paragraphs(r)) for r in records)
    with_entities = sum(bool(row["graph"]["entities"]) for row in graph_rows)
    assert calls == {
        "entity_prompt": 0 if variant == "sg-one" else paragraphs,
        "relation_prompt": with_entities if variant == "sg-multi" else 0,
        "joint_graph_prompt": paragraphs if variant == "sg-one" else 0,
        "qa_prompt": len(records),
    }


def test_replay_run_never_loads_the_http_stack(tmp_path):
    """In a fresh interpreter, extract and answer on the replay backend leave
    the transport, http.client and ssl unimported."""
    config = dataclasses.asdict(make_config(tmp_path))
    script = (
        "import json, sys\n"
        "from sgqa import pipeline\n"
        "config = pipeline.RunConfig(**json.loads(sys.argv[1]))\n"
        "pipeline.run_extract(config)\n"
        "pipeline.run_answer(config)\n"
        "print(json.dumps(sorted({'sgqa.transport', 'http.client', 'ssl'} & set(sys.modules))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sgqa.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", script, json.dumps(config)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []
    assert (tmp_path / "run" / "predictions.jsonl").exists()


def test_workers_do_not_change_output(tmp_path):
    config_a = make_config(tmp_path, variant="base", output_dir=str(tmp_path / "a"))
    config_b = make_config(tmp_path, variant="base", output_dir=str(tmp_path / "b"),
                           workers=4)
    a = pipeline.run_answer(config_a).read_bytes()
    b = pipeline.run_answer(config_b).read_bytes()
    assert a == b


def test_interrupted_run_resumes_to_same_output(tmp_path, counted):
    config = make_config(tmp_path, variant="base", output_dir=str(tmp_path / "full"))
    expected = pipeline.run_answer(config).read_bytes()

    class FlakyBackend(counted):
        def __init__(self, backend, fail_after):
            super().__init__(backend)
            self.fail_after = fail_after

        def complete(self, request):
            if self.calls >= self.fail_after:
                raise RuntimeError("simulated crash")
            return super().complete(request)

    flaky = FlakyBackend(ReplayBackend.from_file(config.replay_file), fail_after=4)
    original = pipeline.make_backend
    pipeline.make_backend = lambda _config: flaky
    try:
        config_flaky = make_config(tmp_path, variant="base",
                                   cache_dir=str(tmp_path / "cache2"),
                                   output_dir=str(tmp_path / "resume"))
        pipeline.run_answer(config_flaky)  # several questions fail
        manifest = RunManifest(tmp_path / "resume" / "manifest.json")
        assert manifest.failed()
    finally:
        pipeline.make_backend = original

    # resume with a healthy backend: same config, same output dir
    resumed = pipeline.run_answer(config_flaky).read_bytes()
    assert resumed == expected
    manifest = RunManifest(tmp_path / "resume" / "manifest.json")
    assert manifest.failed() == []


# --------------------------------------------------------------- manifest

def test_manifest_monotone_and_persistent(tmp_path):
    path = tmp_path / "manifest.json"
    manifest = RunManifest(path, make_config(tmp_path))
    manifest.ensure(["q1", "q2"])
    manifest.mark("q1", "extracted")
    manifest.mark("q1", "answered")
    manifest.mark("q1", "extracted")  # downgrade ignored
    manifest.mark("q2", "failed", reason="boom")
    manifest.save()

    def questions():
        return json.loads(path.read_text(encoding="utf-8"))["questions"]

    assert questions() == {
        "q1": {"status": "answered", "reason": None},
        "q2": {"status": "failed", "reason": "boom"},
    }
    reloaded = RunManifest(path)
    assert reloaded.failed() == [("q2", "boom")]
    reloaded.mark("q1", "extracted")  # still a downgrade after the reload
    reloaded.mark("q2", "answered")  # a failed question may succeed later
    reloaded.save()
    assert questions() == {
        "q1": {"status": "answered", "reason": None},
        "q2": {"status": "answered", "reason": None},
    }
    assert RunManifest(path).failed() == []


def test_run_extract_writes_manifest_twice_and_records_worker_failures(
    tmp_path, records, monkeypatch
):
    doomed = corpus.gold_paragraphs(records[4])[0].text  # not quoted by any demo
    failing_threads = []

    class FailingBackend(ReplayBackend):
        def complete(self, request):
            if doomed in request.prompt:
                failing_threads.append(threading.current_thread())
                raise RuntimeError("backend down")
            return super().complete(request)

    config = make_config(tmp_path, workers=4)
    fixtures = ReplayBackend.from_file(config.replay_file)._fixtures
    monkeypatch.setattr(pipeline, "make_backend", lambda _config: FailingBackend(fixtures))
    manifest_path = Path(config.output_dir) / "manifest.json"
    writes = []
    replace = os.replace

    def counting_replace(src, dst):
        if Path(dst) == manifest_path:
            writes.append(dst)
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", counting_replace)
    pipeline.run_extract(config)

    assert 1 <= len(writes) <= 2
    assert failing_threads
    assert all(t is not threading.main_thread() for t in failing_threads)
    assert RunManifest(manifest_path).failed() == [
        (records[4].id, "extract: backend down")
    ]


def ground(config):
    out_dir = Path(config.output_dir)
    records = corpus.load_dataset(config.dataset_path)
    pipeline.run_ground(out_dir / "graphs.jsonl", records, out_dir / "grounding.jsonl",
                        html_dir=out_dir / "html")
    return out_dir / "grounding.jsonl"


@pytest.mark.parametrize(
    "run", [pipeline.run_extract, pipeline.run_answer, pytest.param(ground, id="run_ground")]
)
def test_output_write_failure_keeps_previous_file(tmp_path, monkeypatch, run):
    config = make_config(tmp_path)
    pipeline.run_extract(config)
    path = run(config)
    before = path.read_bytes()
    out_dir = Path(config.output_dir)
    manifest_before = (out_dir / "manifest.json").read_bytes()

    dumps = json.dumps
    rows_serialised = []

    def failing_dumps(obj, *args, **kwargs):
        if isinstance(obj, dict) and "question_id" in obj:
            if len(rows_serialised) == 3:
                raise RuntimeError("serialisation failed")
            rows_serialised.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", failing_dumps)
    with pytest.raises(RuntimeError, match="serialisation failed"):
        run(config)

    assert path.read_bytes() == before
    assert (out_dir / "manifest.json").read_bytes() == manifest_before
    assert not list(out_dir.rglob("*.tmp"))


@pytest.mark.parametrize("stage", ["extract", "answer", "evaluate", "ground"])
def test_stage_removes_temp_files_only_of_dead_writers(tmp_path, records, stage):
    config = make_config(tmp_path)
    run_dir = Path(config.output_dir)
    graphs = pipeline.run_extract(config)
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()  # reaped, so no process has its pid
    dirs = {"extract": [run_dir], "answer": [run_dir], "evaluate": [tmp_path / "eval"],
            "ground": [tmp_path / "ground", tmp_path / "ground" / "html"]}[stage]
    dead, live = [], []
    for directory in dirs:
        directory.mkdir(parents=True, exist_ok=True)
        for pid, paths in ((child.pid, dead), (os.getpid(), live)):
            path = directory / f"out.jsonl.{pid}-140213.tmp"
            path.write_text("torn", encoding="utf-8")
            paths.append(path)
    if stage == "extract":
        pipeline.run_extract(config)
    elif stage == "answer":
        pipeline.run_answer(config)
    elif stage == "evaluate":
        pipeline.run_evaluate([], records, tmp_path / "eval")
    else:
        pipeline.run_ground(graphs, records, tmp_path / "ground" / "grounding.jsonl",
                            html_dir=tmp_path / "ground" / "html")
    assert [path for path in dead if path.exists()] == []
    assert [path for path in live if path.exists()] == live


# open(...) with a writing mode, or a pathlib in-place write
IN_PLACE_WRITE = re.compile(
    r"""\bopen\([^)]*["'](?=[rwxabt+]*[wax+])[rwxabt+]+["']|\.write_text\(|\.write_bytes\("""
)


def test_only_the_jsonl_module_writes_files():
    offenders = []
    for path in sorted(Path(sgqa.__file__).parent.glob("*.py")):
        if path.name == "jsonl.py":
            continue
        text = path.read_text(encoding="utf-8")
        for match in IN_PLACE_WRITE.finditer(text):
            line_no = text.count("\n", 0, match.start()) + 1
            offenders.append(f"{path.name}:{line_no}: {match.group()}")
    assert offenders == []


# --------------------------------------------------------------- evaluate

def test_run_evaluate_perfect_predictions(tmp_path, records):
    predictions = [
        {"question_id": r.id, "variant": "base", "setting": "cot",
         "prompt_hash": "x", "completion": r.gold_answer,
         "chain_sentences": [], "answer": r.gold_answer, "flags": []}
        for r in records
    ]
    report = pipeline.run_evaluate(predictions, records, tmp_path / "eval")
    agg = report["answer"]["aggregates"]["base/cot"]
    assert agg["em"] == agg["f1"] == agg["precision"] == agg["recall"] == 1.0
    assert (tmp_path / "eval" / "answer_scores.csv").exists()
    assert (tmp_path / "eval" / "answer_aggregate.md").exists()
    assert (tmp_path / "eval" / "metrics.json").exists()


def test_run_evaluate_hand_scored_aggregate(tmp_path, records):
    # five fixed pairs scored by hand against e2e-01's gold answer "Stange"
    answers = ["Stange", "Stange, Norway", "Oslo", "Stange", "the Stange area"]
    predictions = [
        {"question_id": "e2e-01", "variant": "base", "setting": "cot",
         "prompt_hash": "x", "completion": a, "chain_sentences": [],
         "answer": a, "flags": []}
        for a in answers
    ]
    report = pipeline.run_evaluate(predictions, records, tmp_path / "eval")
    agg = report["answer"]["aggregates"]["base/cot"]
    assert agg["em"] == pytest.approx(2 / 5)
    assert agg["recall"] == pytest.approx((1 + 1 + 0 + 1 + 1) / 5)
    assert agg["precision"] == pytest.approx((1 + 0.5 + 0 + 1 + 0.5) / 5)


def test_run_evaluate_ten_answers_hand_summed(tmp_path):
    pairs = [("Stange", "Stange"), ("Stange, Norway", "Stange"), ("Paris", "Stange"),
             ("x y", "x y"), ("x", "x y"), ("x y", "x"), ("x", "y"),
             ("one two three", "one two"), ("one", "one"), ("", "")]
    records = [corpus.QuestionRecord(f"q{i}", "?", gold, (), frozenset())
               for i, (_, gold) in enumerate(pairs)]
    predictions = [{"question_id": f"q{i}", "variant": "base", "setting": "fewshot",
                    "completion": answer, "answer": answer}
                   for i, (answer, _) in enumerate(pairs)]
    report = pipeline.run_evaluate(predictions, records, tmp_path / "eval")
    agg = report["answer"]["aggregates"]["base/fewshot"]
    assert agg["n"] == 10
    assert abs(agg["em"] - 4 / 10) < 1e-12
    assert abs(agg["recall"] - (1 + 1 + 0 + 1 + 0.5 + 1 + 0 + 1 + 1 + 1) / 10) < 1e-12
    assert abs(agg["precision"] - (1 + 0.5 + 0 + 1 + 1 + 0.5 + 0 + 2 / 3 + 1 + 1) / 10) < 1e-12


def synthetic_evaluate_inputs(n):
    """n questions with cot predictions (a fifth of the answers right), a
    reference chain and a 0/1 label each."""
    records = [corpus.QuestionRecord(f"q{i:05d}", "?", f"answer {i % 3}", (), frozenset())
               for i in range(n)]
    predictions = [
        {"question_id": r.id, "variant": "sg-multi", "setting": "cot", "prompt_hash": "x",
         "completion": f"Step {i} finds the one place. So the answer is: answer {i % 5}.",
         "chain_sentences": [], "answer": f"answer {i % 5}", "backend_id": "replay",
         "flags": []}
        for i, r in enumerate(records)]
    labels = {r.id: i % 2 for i, r in enumerate(records)}
    references = {r.id: f"Step {i} names the place, answer {i % 3}." for i, r in enumerate(records)}
    return predictions, records, labels, references


def evaluate_peak(out_dir, n) -> int:
    """Bytes that run_evaluate allocates at its peak above its inputs."""
    predictions, records, labels, references = synthetic_evaluate_inputs(n)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        pipeline.run_evaluate(predictions, records, out_dir, human_labels=labels,
                              reference_chains=references)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_run_evaluate_peak_grows_by_few_bytes_per_prediction(tmp_path):
    # One pass keeps the CSV lines of each prediction, and the four answer
    # scores and the label of a labelled one: the slope measures about 370
    # bytes per prediction here (430 from 1,000 to 7,405 predictions). The
    # earlier evaluate kept a score object and a table row per prediction
    # until the end: about 1,350 here and 1,340 to 7,405.
    small, large = 500, 1500
    slope = (evaluate_peak(tmp_path / "large", large)
             - evaluate_peak(tmp_path / "small", small)) / (large - small)
    assert slope < 800


def test_run_evaluate_excludes_unknown_ids(tmp_path, records, caplog):
    predictions = [
        {"question_id": "mystery", "variant": "base", "setting": "cot",
         "prompt_hash": "x", "completion": "x", "chain_sentences": [],
         "answer": "x", "flags": []},
        {"question_id": "e2e-01", "variant": "base", "setting": "cot",
         "prompt_hash": "x", "completion": "Stange", "chain_sentences": [],
         "answer": "Stange", "flags": []},
    ]
    with caplog.at_level("WARNING"):
        report = pipeline.run_evaluate(predictions, records, tmp_path / "eval")
    assert "mystery" in caplog.text
    assert report["answer"]["aggregates"]["base/cot"]["n"] == 1


def test_run_evaluate_constant_labels_flagged(tmp_path, records):
    predictions = [
        {"question_id": r.id, "variant": "base", "setting": "cot",
         "prompt_hash": "x", "completion": r.gold_answer, "chain_sentences": [],
         "answer": r.gold_answer, "flags": []}
        for r in records
    ]
    labels = {r.id: 1 for r in records}
    report = pipeline.run_evaluate(predictions, records, tmp_path / "eval",
                                   human_labels=labels)
    assert report["correlations"]["recall"]["rho"] is None
    content = (tmp_path / "eval" / "correlations.csv").read_text()
    assert "undefined" in content


def test_run_evaluate_report_failure_keeps_previous_files(tmp_path, records, monkeypatch):
    def predictions(answer_of):
        return [
            {"question_id": r.id, "variant": "base", "setting": "cot", "prompt_hash": "x",
             "completion": answer_of(r), "chain_sentences": [], "answer": answer_of(r),
             "flags": []}
            for r in records
        ]

    labels = pipeline.read_labels(E2E / "labels.jsonl")
    references = pipeline.read_reference_chains(E2E / "references.jsonl")
    out_dir = tmp_path / "eval"
    pipeline.run_evaluate(predictions(lambda r: r.gold_answer), records, out_dir,
                          human_labels=labels, reference_chains=references)
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    assert sorted(before) == [
        "answer_aggregate.csv", "answer_aggregate.md", "answer_scores.csv",
        "chain_aggregate.csv", "chain_aggregate.md", "chain_scores.csv",
        "correlations.csv", "correlations.md", "metrics.json",
    ]

    dumps = json.dumps

    def failing_dumps(obj, *args, **kwargs):
        if isinstance(obj, dict) and "correlations" in obj:
            raise RuntimeError("serialisation failed")
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", failing_dumps)
    with pytest.raises(RuntimeError, match="serialisation failed"):
        pipeline.run_evaluate(predictions(lambda r: "a wrong answer"), records, out_dir,
                              human_labels=labels, reference_chains=references)

    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before


def test_run_ground_reports(tmp_path, records):
    config = make_config(tmp_path)
    graphs_path = pipeline.run_extract(config)
    out = tmp_path / "ground" / "grounding.jsonl"  # its directory does not exist yet
    count = pipeline.run_ground(graphs_path, records, out, html_dir=tmp_path / "html")
    assert count == 20
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(0.0 <= row["grounding_rate"] <= 1.0 for row in rows)
    # fixture graphs are copied from their paragraphs, so entities ground fully
    assert all(row["entity_rate"] == 1.0 for row in rows)
    assert len(list((tmp_path / "html").glob("*.html"))) == 20


def test_run_ground_skips_rows_for_unknown_questions_and_paragraphs(
    tmp_path, graph_row, caplog
):
    graphs = tmp_path / "graphs.jsonl"
    rows = [{**graph_row, "question_id": "nobody"}, {**graph_row, "paragraph_index": 2},
            graph_row]
    graphs.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "ground"
    records = corpus.load_dataset(E2E / "dataset.json")
    with caplog.at_level("WARNING"):
        count = pipeline.run_ground(graphs, records, out / "grounding.jsonl",
                                    html_dir=out / "html")
    assert count == 1
    assert [json.loads(line)["question_id"]
            for line in (out / "grounding.jsonl").read_text().splitlines()] == ["e2e-01"]
    assert [p.name for p in (out / "html").iterdir()] == ["e2e-01_0.html"]
    assert [r.getMessage() for r in caplog.records] == [
        "graph for unknown question id 'nobody' skipped",
        "graph index 2 out of range for e2e-01",
    ]


def test_cli_ground_keeps_pages_of_any_question_id_in_html(tmp_path):
    ids = ["../escaped", "a/b", "a%2Fb"]
    dataset = json.loads((E2E / "dataset.json").read_text(encoding="utf-8"))[:3]
    for row, question_id in zip(dataset, ids):
        row["_id"] = question_id
    (tmp_path / "dataset.json").write_text(json.dumps(dataset), encoding="utf-8")
    config = make_config(tmp_path, dataset_path=str(tmp_path / "dataset.json"))
    graphs = pipeline.run_extract(config)
    out = tmp_path / "ground"
    assert run_cli(["ground", "--dataset", tmp_path / "dataset.json", "--graphs", graphs,
                    "--output-dir", out, "--html"]) == 0
    pages = {f"{name}_{index}.html" for name in ["..%2Fescaped", "a%2Fb", "a%252Fb"]
             for index in (0, 1)}
    assert {str(p.relative_to(out)) for p in out.rglob("*")} == {
        "grounding.jsonl", "html", *(f"html/{page}" for page in pages)}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "dataset.json", "ground",
                                                           "run"]


# --------------------------------------------------------------- cli

def run_cli(argv):
    return cli.main([str(a) for a in argv])


def test_cli_full_flow(tmp_path):
    run_dir = tmp_path / "run"
    code = run_cli([
        "extract", "--dataset", E2E / "dataset.json", "--variant", "sg-multi",
        "--backend", "replay", "--replay-file", E2E / "replay.jsonl",
        "--cache-dir", tmp_path / "cache", "--model", MODEL,
        "--output-dir", run_dir,
    ])
    assert code == 0
    code = run_cli([
        "answer", "--dataset", E2E / "dataset.json", "--variant", "sg-multi",
        "--setting", "cot", "--backend", "replay",
        "--replay-file", E2E / "replay.jsonl",
        "--cache-dir", tmp_path / "cache", "--model", MODEL,
        "--output-dir", run_dir,
    ])
    assert code == 0
    code = run_cli([
        "evaluate", "--dataset", E2E / "dataset.json",
        "--predictions", run_dir / "predictions.jsonl",
        "--labels", E2E / "labels.jsonl",
        "--references", E2E / "references.jsonl",
        "--output-dir", tmp_path / "eval",
    ])
    assert code == 0
    assert (tmp_path / "eval" / "metrics.json").exists()
    code = run_cli([
        "ground", "--dataset", E2E / "dataset.json",
        "--graphs", run_dir / "graphs.jsonl",
        "--output-dir", tmp_path / "ground", "--html",
    ])
    assert code == 0
    code = run_cli(["report", "--run-dir", tmp_path / "eval"])
    assert code == 0
    assert (tmp_path / "eval" / "report.md").exists()


def test_cli_config_file_overrides_flags(tmp_path):
    config_file = tmp_path / "override.json"
    config_file.write_text(json.dumps({"variant": "base"}))
    run_dir = tmp_path / "run"
    code = run_cli([
        "answer", "--dataset", E2E / "dataset.json", "--variant", "sg-multi",
        "--backend", "replay", "--replay-file", E2E / "replay.jsonl",
        "--cache-dir", tmp_path / "cache", "--model", MODEL,
        "--output-dir", run_dir, "--config", config_file,
    ])
    assert code == 0
    rows = pipeline.read_predictions([run_dir / "predictions.jsonl"])
    assert all(row["variant"] == "base" for row in rows)


def test_cli_config_file_rejects_unknown_key(tmp_path):
    # question_prefix is a constant in prompts.py, not a RunConfig field
    for key in ("not_a_field", "question_prefix"):
        config_file = tmp_path / f"{key}.json"
        config_file.write_text(json.dumps({key: 1}))
        code = run_cli([
            "answer", "--dataset", E2E / "dataset.json", "--variant", "base",
            "--backend", "replay", "--replay-file", E2E / "replay.jsonl",
            "--cache-dir", tmp_path / "cache", "--output-dir", tmp_path / "run",
            "--config", config_file,
        ])
        assert code == 2, key


@pytest.mark.parametrize("text,error", [
    ("[1]", "the top level must be a JSON object"),
    ('{"workers": "2"}', 'field \'workers\' must be an integer, got "2"'),
    ('{"seed": true}', "field 'seed' must be an integer, got true"),
    ('{"allow-partial": 1}', "field 'allow-partial' must be a boolean, got 1"),
    ('{"variant": 1}', "field 'variant' must be a string, got 1"),
    ('{"model": null}', "field 'model' must be a string, got null"),
    ('{\n"seed": }', "Expecting value: line 2"),
    ('{"not_a_field": 1}', "unknown config key 'not_a_field'"),
    ('{"variant": "nope"}', "'nope' is not a valid PromptVariant"),
    ('{"split": "train"}', "unknown split 'train'"),
    ('{"backend": "grpc"}', "unknown backend 'grpc'"),
    ('{"workers": 0}', "workers must be at least 1"),
])
def test_cli_names_faulty_config_file(tmp_path, capsys, text, error):
    config_file = tmp_path / "config.json"
    config_file.write_text(text)
    code = run_cli([
        "answer", "--dataset", E2E / "dataset.json", "--variant", "base",
        "--backend", "replay", "--replay-file", E2E / "replay.jsonl",
        "--cache-dir", tmp_path / "cache", "--output-dir", tmp_path / "run",
        "--config", config_file,
    ])
    assert code == 2
    assert f"error: {config_file}: {error}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("args,error", [
    pytest.param(["--backend", "replay"], "replay backend needs --replay-file",
                 id="replay-without-file"),
    pytest.param(["--backend", "live"], "live backend needs --endpoint",
                 id="live-without-endpoint"),
    pytest.param(["--replay-file", E2E / "replay.jsonl", "--graphs", "G"],
                 "the base variant takes no graphs", id="base-with-graphs"),
    pytest.param(["--replay-file", E2E / "replay.jsonl", "--split", "dev", "--dev-n", "-1"],
                 "split sizes must be non-negative", id="negative-split-size"),
    pytest.param(["--replay-file", E2E / "replay.jsonl", "--workers", "-3"],
                 "workers must be at least 1", id="negative-workers"),
])
def test_cli_answer_rejects_unusable_run_before_any_output(tmp_path, capsys, args, error):
    code = run_cli(["answer", "--dataset", E2E / "dataset.json", "--variant", "base", *args,
                    "--cache-dir", tmp_path / "cache", "--output-dir", tmp_path / "run"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "run").exists()


def test_cli_config_with_unknown_dataset_format_fails_before_any_output(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text('{"format": "squad"}')
    code = run_cli(["answer", "--dataset", E2E / "dataset.json", "--variant", "base",
                    "--replay-file", E2E / "replay.jsonl", "--cache-dir", tmp_path / "cache",
                    "--output-dir", tmp_path / "run", "--config", config_file])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: unknown dataset format 'squad'; expected one of ('hotpotqa', '2wiki')\n")
    assert not (tmp_path / "run").exists()


def test_cli_verbose_logs_each_raw_request(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(sgqa.__file__).resolve().parent.parent))
    result = subprocess.run(
        [sys.executable, "-m", "sgqa.cli", "-v", "extract", "--dataset", E2E / "dataset.json",
         "--variant", "sg-multi", "--replay-file", E2E / "replay.jsonl",
         "--cache-dir", tmp_path / "cache", "--model", MODEL, "--output-dir", tmp_path / "run"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "DEBUG sgqa.llm: raw request (key=" in result.stderr


def test_cli_report_without_metric_tables_fails(tmp_path, capsys):
    (tmp_path / "predictions.jsonl").write_text("")
    assert run_cli(["report", "--run-dir", tmp_path]) == 1
    assert capsys.readouterr().err == f"no metric files under {tmp_path}\n"
    assert not (tmp_path / "report.md").exists()


@pytest.mark.parametrize("command", ["extract", "answer"])
def test_every_run_config_field_is_a_flag(command):
    args = cli.build_parser().parse_args([command, "--dataset", "d", "--output-dir", "o"])
    assert set(RunConfig.__dataclass_fields__) <= set(vars(args))


def test_cli_failure_exit_code(tmp_path):
    empty_replay = tmp_path / "empty.jsonl"
    empty_replay.write_text("")
    args = [
        "answer", "--dataset", E2E / "dataset.json", "--variant", "base",
        "--backend", "replay", "--replay-file", empty_replay,
        "--cache-dir", tmp_path / "cache", "--model", MODEL,
        "--output-dir", tmp_path / "run",
    ]
    assert run_cli(args) == 1
    assert run_cli(args + ["--allow-partial"]) == 0


def test_cli_exit_code_ignores_failures_of_an_earlier_run(tmp_path, capsys):
    empty_replay = tmp_path / "empty.jsonl"
    empty_replay.write_text("")
    args = [
        "answer", "--dataset", E2E / "dataset.json", "--variant", "base",
        "--backend", "replay", "--cache-dir", tmp_path / "cache", "--model", MODEL,
        "--output-dir", tmp_path / "run",
    ]
    assert run_cli(args + ["--split", "all", "--replay-file", empty_replay]) == 1
    capsys.readouterr()
    code = run_cli(args + ["--split", "dev", "--dev-n", "2", "--test-n", "0",
                           "--replay-file", E2E / "replay.jsonl"])
    assert "FAILED" not in capsys.readouterr().err
    assert code == 0
    assert len(pipeline.read_predictions([tmp_path / "run" / "predictions.jsonl"])) == 2


def test_cli_evaluate_names_malformed_labels_line(tmp_path, capsys):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(json.dumps(
        {"question_id": "e2e-01", "variant": "base", "setting": "cot", "prompt_hash": "x",
         "completion": "Stange", "chain_sentences": [], "answer": "Stange", "flags": []}
    ) + "\n", encoding="utf-8")
    labels = tmp_path / "labels.jsonl"
    labels.write_text('{"question_id": "e2e-01", "label": 1}\n{"question_id": \n',
                      encoding="utf-8")
    code = run_cli([
        "evaluate", "--dataset", E2E / "dataset.json", "--predictions", predictions,
        "--labels", labels, "--output-dir", tmp_path / "eval",
    ])
    assert code == 2
    assert f"{labels}:2: malformed JSON" in capsys.readouterr().err


PREDICTION = {"question_id": "e2e-01", "variant": "base", "setting": "cot", "prompt_hash": "x",
              "completion": "Stange", "chain_sentences": [], "answer": "Stange", "flags": []}


def test_cli_evaluate_names_prediction_without_field(tmp_path, capsys):
    predictions = tmp_path / "predictions.jsonl"
    row = {k: v for k, v in PREDICTION.items() if k != "variant"}
    predictions.write_text(json.dumps(row) + "\n", encoding="utf-8")
    code = run_cli([
        "evaluate", "--dataset", E2E / "dataset.json", "--predictions", predictions,
        "--output-dir", tmp_path / "eval",
    ])
    assert code == 2
    assert f"{predictions}:1: missing field 'variant'" in capsys.readouterr().err


def test_cli_evaluate_names_prediction_with_null_answer(tmp_path, capsys):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(json.dumps({**PREDICTION, "answer": None}) + "\n", encoding="utf-8")
    code = run_cli([
        "evaluate", "--dataset", E2E / "dataset.json", "--predictions", predictions,
        "--output-dir", tmp_path / "eval",
    ])
    assert code == 2
    assert (f"error: {predictions}:1: field 'answer' must be a string, got null"
            in capsys.readouterr().err)
    assert not (tmp_path / "eval" / "metrics.json").exists()


def test_read_predictions_rejects_duplicate_across_files(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    other = {**PREDICTION, "setting": "fewshot"}
    first.write_text(json.dumps(PREDICTION) + "\n", encoding="utf-8")
    second.write_text(json.dumps(other) + "\n" + json.dumps(PREDICTION) + "\n", encoding="utf-8")
    assert len(pipeline.read_predictions([second])) == 2
    with pytest.raises(ValueError) as excinfo:
        pipeline.read_predictions([first, second])
    message = str(excinfo.value)
    assert message.startswith(f"{second}:2: duplicate prediction ('base', 'cot', 'e2e-01')")
    assert f"{first}:1" in message


KEPT_FIELDS = {"question_id", "variant", "setting", "answer", "completion"}


def test_read_predictions_keeps_only_what_evaluate_reads(tmp_path):
    bare = {name: PREDICTION[name] for name in KEPT_FIELDS}
    rows = [PREDICTION, {**bare, "question_id": "e2e-02"},
            {**PREDICTION, "question_id": "e2e-03", "unknown": {"a": [1]}}]
    path = tmp_path / "predictions.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    read = pipeline.read_predictions([path])
    assert [set(row) for row in read] == [KEPT_FIELDS | {"flags"}, KEPT_FIELDS,
                                          KEPT_FIELDS | {"flags"}]
    assert read[0] == {name: PREDICTION[name] for name in KEPT_FIELDS | {"flags"}}
    assert read[1] == {**bare, "question_id": "e2e-02"}


def test_read_predictions_share_names_and_variant_and_setting_strings(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    first.write_text(json.dumps(PREDICTION) + "\n"
                     + json.dumps({**PREDICTION, "question_id": "e2e-02"}) + "\n",
                     encoding="utf-8")
    second.write_text(json.dumps({**PREDICTION, "question_id": "e2e-03"}) + "\n"
                      + json.dumps({**PREDICTION, "setting": "fewshot"}) + "\n",
                      encoding="utf-8")
    rows = pipeline.read_predictions([first, second])
    assert [row["setting"] for row in rows] == ["cot", "cot", "cot", "fewshot"]
    assert len({id(row["variant"]) for row in rows}) == 1
    assert len({id(row["setting"]) for row in rows[:3]}) == 1
    for name in KEPT_FIELDS | {"flags"}:
        assert len({id(key) for row in rows for key in row if key == name}) == 1


@pytest.mark.parametrize("rows,error", [
    ([{k: v for k, v in PREDICTION.items() if k != "completion"}],
     ":1: missing field 'completion'"),
    ([PREDICTION, {**PREDICTION, "question_id": "e2e-02", "setting": None}],
     ":2: field 'setting' must be a string, got null"),
    ([PREDICTION, {**PREDICTION, "flags": ["no-answer-pattern"]}],
     ":2: duplicate prediction ('base', 'cot', 'e2e-01') (first at {path}:1)"),
], ids=["no completion", "null setting", "repeated key"])
def test_read_predictions_rejects_bad_rows(tmp_path, rows, error):
    path = tmp_path / "predictions.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        pipeline.read_predictions([path])
    assert str(excinfo.value) == f"{path}" + error.format(path=path)


@pytest.mark.parametrize("lines,error", [
    (['{"label": 1}'], ":1: missing field 'question_id'"),
    (['{"question_id": "q1", "label": 1}', '{"question_id": "q2"}'], ":2: missing field 'label'"),
    (['{"question_id": "q1", "label": 2}'], ":1: label must be 0 or 1, got 2"),
    (['{"question_id": "q1", "label": 1}', '{"question_id": "q1", "label": 0}'],
     ":2: duplicate question_id 'q1' (first at {path}:1)"),
    (['{"question_id": "q1", "label": true}'], ":1: field 'label' must be an integer, got true"),
    (['{"question_id": "q1", "label": 1.0}'], ":1: field 'label' must be an integer, got 1.0"),
    (['{"question_id": 1, "label": 1}'], ":1: field 'question_id' must be a string, got 1"),
], ids=["no question_id", "no label", "label 2", "repeated question_id", "label true",
        "label 1.0", "numeric question_id"])
def test_read_labels_rejects_bad_rows(tmp_path, lines, error):
    path = tmp_path / "labels.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        pipeline.read_labels(path)
    assert str(excinfo.value) == f"{path}" + error.format(path=path)


@pytest.mark.parametrize("lines,error", [
    (['{"chain": "c"}'], ":1: missing field 'question_id'"),
    (['{"question_id": "q1", "chain": "c"}', '{"question_id": "q2"}'],
     ":2: missing field 'chain'"),
    (['{"question_id": "q1", "chain": "c"}', '{"question_id": "q1", "chain": "d"}'],
     ":2: duplicate question_id 'q1' (first at {path}:1)"),
    (['{"question_id": "q1", "chain": null}'], ":1: field 'chain' must be a string, got null"),
    (['{"question_id": "q1", "chain": ["c"]}'],
     ":1: field 'chain' must be a string, got [\"c\"]"),
], ids=["no question_id", "no chain", "repeated question_id", "null chain", "list chain"])
def test_read_reference_chains_rejects_bad_rows(tmp_path, lines, error):
    path = tmp_path / "references.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        pipeline.read_reference_chains(path)
    assert str(excinfo.value) == f"{path}" + error.format(path=path)


def test_cli_eval_chain_names_reference_without_chain(tmp_path, capsys):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(json.dumps(PREDICTION) + "\n", encoding="utf-8")
    references = tmp_path / "references.jsonl"
    references.write_text('{"question_id": "e2e-01"}\n', encoding="utf-8")
    code = run_cli([
        "eval-chain", "--dataset", E2E / "dataset.json", "--predictions", predictions,
        "--references", references, "--output-dir", tmp_path / "eval",
    ])
    assert code == 2
    assert f"{references}:1: missing field 'chain'" in capsys.readouterr().err


def test_cli_extract_base_usage_error(tmp_path):
    code = run_cli([
        "extract", "--dataset", E2E / "dataset.json", "--variant", "base",
        "--backend", "replay", "--replay-file", E2E / "replay.jsonl",
        "--cache-dir", tmp_path / "cache", "--output-dir", tmp_path / "run",
    ])
    assert code == 2


@pytest.mark.parametrize("endpoint", [
    "api.example.com/x", "localhost:8080/v1/completions", "ftp://api.example.com/x",
])
def test_make_backend_rejects_endpoint_without_http_scheme(tmp_path, endpoint):
    config = make_config(tmp_path, backend="live", replay_file=None, endpoint=endpoint)
    with pytest.raises(UsageError, match=re.escape(repr(endpoint))):
        pipeline.make_backend(config)


def test_make_backend_accepts_http_and_https(tmp_path):
    for endpoint in ("http://127.0.0.1:8080/v1/completions", "HTTPS://api.example.com/x"):
        config = make_config(tmp_path, backend="live", replay_file=None, endpoint=endpoint)
        backend = pipeline.make_backend(config)
        assert backend.backend_id == f"http:{endpoint}"
        backend.close()


def test_cli_answer_rejects_endpoint_without_scheme(tmp_path, capsys, monkeypatch):
    posts, sleeps = [], []
    monkeypatch.setattr("sgqa.transport.KeepAliveSession.post",
                        lambda self, *args, **kwargs: posts.append(args))
    monkeypatch.setattr("time.sleep", sleeps.append)
    code = run_cli([
        "answer", "--dataset", E2E / "dataset.json", "--variant", "base",
        "--backend", "live", "--endpoint", "api.example.com/x",
        "--cache-dir", tmp_path / "cache", "--model", MODEL,
        "--output-dir", tmp_path / "run",
    ])
    assert code == 2
    assert "'api.example.com/x' needs an http:// or https:// scheme" in capsys.readouterr().err
    assert posts == [] and sleeps == []
    assert not (tmp_path / "run" / "predictions.jsonl").exists()


def test_cli_answer_rejects_endpoint_with_bad_port(tmp_path, capsys, monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    for endpoint, error in [("http://127.0.0.1:abc/v1/completions", "Port could not be cast"),
                            ("http://127.0.0.1:0/v1/completions", "Port out of range 1-65535")]:
        code = run_cli([
            "answer", "--dataset", E2E / "dataset.json", "--variant", "base",
            "--backend", "live", "--endpoint", endpoint,
            "--cache-dir", tmp_path / "cache", "--model", MODEL,
            "--output-dir", tmp_path / "run",
        ])
        assert code == 2
        assert f"endpoint {endpoint!r}: {error}" in capsys.readouterr().err
        assert sleeps == []
        assert not (tmp_path / "run").exists()


def test_cli_ground_names_graph_row_without_graph(tmp_path, capsys):
    graphs = tmp_path / "graphs.jsonl"
    graphs.write_text('{"question_id": "e2e-01", "paragraph_index": 0}\n', encoding="utf-8")
    code = run_cli([
        "ground", "--dataset", E2E / "dataset.json", "--graphs", graphs,
        "--output-dir", tmp_path / "ground",
    ])
    assert code == 2
    assert f"{graphs}:1: missing field 'graph'" in capsys.readouterr().err
    with pytest.raises(ValueError, match=":1: missing field 'graph'"):
        pipeline.load_graphs(graphs)


@pytest.fixture(scope="module")
def graph_row(tmp_path_factory):
    """The first row of the e2e fixture's sg-multi graphs.jsonl."""
    graphs_path = pipeline.run_extract(make_config(tmp_path_factory.mktemp("extract")))
    return json.loads(graphs_path.read_text(encoding="utf-8").splitlines()[0])


BAD_GRAPH_ROWS = {
    "empty graph": (lambda row: {**row, "graph": {}}, "graph: missing field 'variant'"),
    "string entities": (lambda row: {**row, "graph": {**row["graph"], "entities": "abc"}},
                        "graph: field 'entities' must be an array, got \"abc\""),
    "numeric entity": (lambda row: {**row, "graph": {**row["graph"], "entities": [5]}},
                       "graph: field 'entities' must be an array of strings"),
    "2-field triple": (
        lambda row: {**row, "graph": {**row["graph"], "triples": [["Sorrento", "city"]]}},
        "graph: field 'triples' must be an array of arrays of 3 strings"),
    "negative index": (lambda row: {**row, "paragraph_index": -1},
                       "negative paragraph_index -1"),
    "relation with a newline": (
        lambda row: {**row, "graph": {**row["graph"], "triples": [["a", "in\nto", "b"]]}},
        "graph: relation must not contain newlines"),
    "entities-only graph": (
        lambda row: {**row, "graph": {**row["graph"], "variant": "entities", "triples": []}},
        "graph: 'entities' is not a valid PromptVariant"),
}


@pytest.mark.parametrize("command", ["ground", "answer"])
@pytest.mark.parametrize("case", BAD_GRAPH_ROWS)
def test_cli_names_malformed_graph_row(tmp_path, capsys, graph_row, command, case):
    make_row, error = BAD_GRAPH_ROWS[case]
    graphs = tmp_path / "graphs.jsonl"
    graphs.write_text(json.dumps(make_row(graph_row)) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    if command == "ground":
        args = ["ground", "--dataset", E2E / "dataset.json", "--graphs", graphs,
                "--output-dir", out]
    else:
        args = ["answer", "--dataset", E2E / "dataset.json", "--variant", "sg-multi",
                "--replay-file", E2E / "replay.jsonl", "--cache-dir", tmp_path / "cache",
                "--model", MODEL, "--graphs", graphs, "--output-dir", out]
    assert run_cli(args) == 2
    assert f"error: {graphs}:1: {error}" in capsys.readouterr().err
    assert not (out / "grounding.jsonl").exists() and not (out / "predictions.jsonl").exists()


def test_cli_ground_names_graph_row_for_another_paragraph(tmp_path, capsys, graph_row):
    title = graph_row["graph"]["source_title"]
    elsewhere = {**graph_row, "paragraph_index": 1,
                 "graph": {**graph_row["graph"], "source_title": "Elsewhere"}}
    graphs = tmp_path / "graphs.jsonl"
    graphs.write_text(json.dumps(graph_row) + "\n" + json.dumps(elsewhere) + "\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    paragraph = corpus.gold_paragraphs(corpus.load_dataset(E2E / "dataset.json")[0])[1]
    assert run_cli(["ground", "--dataset", E2E / "dataset.json", "--graphs", graphs,
                    "--output-dir", out, "--html"]) == 2
    assert (f"error: {graphs}:2: graph is for 'Elsewhere', paragraph is {paragraph.title!r}"
            in capsys.readouterr().err)
    assert title != paragraph.title
    assert [p.name for p in (out / "html").iterdir()] == [f"{graph_row['question_id']}_0.html"]
    assert not (out / "grounding.jsonl").exists()


def test_cli_answer_names_replay_row_without_text(tmp_path, capsys):
    replay = tmp_path / "replay.jsonl"
    replay.write_text('{"key": "k"}\n', encoding="utf-8")
    code = run_cli([
        "answer", "--dataset", E2E / "dataset.json", "--variant", "base",
        "--backend", "replay", "--replay-file", replay,
        "--cache-dir", tmp_path / "cache", "--output-dir", tmp_path / "run",
    ])
    assert code == 2
    assert f"error: {replay}:1: missing field 'text'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_answer_names_damaged_manifest(tmp_path, capsys):
    args = [
        "answer", "--dataset", E2E / "dataset.json", "--variant", "base",
        "--backend", "replay", "--replay-file", E2E / "replay.jsonl",
        "--cache-dir", tmp_path / "cache", "--model", MODEL,
        "--output-dir", tmp_path / "run",
    ]
    assert run_cli(args) == 0
    manifest = tmp_path / "run" / "manifest.json"
    truncated = manifest.read_bytes()[:40]
    entry = "question 'e2e-01': "
    for damaged, why in (
        (truncated, "Expecting"),
        (b"[]", "no 'questions' object"),
        (b'{"config": {}, "questions": {"e2e-01": {}}}', entry + "missing field 'status'"),
        (b'{"questions": {"e2e-01": "answered"}}', entry + "missing field 'status'"),
        (b'{"questions": {"e2e-01": {"status": 2, "reason": null}}}',
         entry + "field 'status' must be a string, got 2"),
        (b'{"questions": {"e2e-01": {"status": "done", "reason": null}}}',
         entry + "unknown status 'done'"),
        (b'{"questions": {"e2e-01": {"status": "failed", "reason": 3}}}',
         entry + "field 'reason' must be a string or null"),
        (b'{"questions": {"e2e-01": {"status": "failed"}}}',
         entry + "field 'reason' must be a string or null"),
    ):
        manifest.write_bytes(damaged)
        capsys.readouterr()
        assert run_cli(args) == 2
        assert f"error: {manifest}: damaged manifest: {why}" in capsys.readouterr().err
