"""Run orchestration: extract graphs, answer questions, evaluate outputs.

The method is two per-item LLM steps: `extract_paragraph_graph` builds one
gold paragraph's semantic graph, and `answer_question` answers one question
with a prompt that carries those graphs. `_run_stage` is the one driver of a
backend stage: over the records its caller loaded, it builds the backend,
opens the completion cache, maps a per-record step over the records, records
a failing step's reason and writes the rows and the manifest. The rows stream
into the output file as each step's outcome arrives, in input order, so no
stage holds its whole output. `run_extract` and `run_answer` hold only their
own checks, their demonstrations and that step.

The two stages hold only gold paragraphs: `load_records` keeps each
record's gold paragraphs as its context and drops the distractors, which
`load_dataset` has checked and returned. `run_answer` loads its records
before its graphs, so the dataset's full load never overlaps them.

Questions that share a gold paragraph share its graph: `run_extract` builds
it once and keeps it during the stage only if more than one question uses
that paragraph, and `load_graphs` hands out equal graphs as one object,
whose triples' endpoints are its entity objects.

`run_evaluate` scores the predictions in one pass with running sums per
variant/setting group, and keeps the labelled rows' answer scores and labels
packed as doubles. `read_predictions` keeps of each row only the fields
evaluation reads, plus its `flags`, with one shared string per field name
and per variant and setting value.

Stages are idempotent: completions are cached on disk, so re-running (or
resuming after a kill) recomputes outputs byte-identically without repeat
backend calls. Resume comes from that cache alone. Each stage writes its run
manifest twice, at its start and at its end; a stage killed in between leaves
the manifest of the start. Every output file (graphs, predictions, grounding
reports and their HTML pages, metric tables, metrics.json, the manifest) is
written through `jsonl`, so it is whole or unchanged, never truncated; each
stage starts by deleting the temp files that killed writers left in the
directories it writes. The experiment matrix (4 prompt variants x 2 settings)
is purely configuration.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
from array import array
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from pathlib import Path

from . import chain as chain_mod
from . import corpus, graph as graph_mod, grounding, metrics, prompts
from .jsonl import read_rows, remove_dead_temps, row_fault, write_atomic, write_jsonl
from .llm import (
    CompletionCache,
    HTTPBackend,
    ReplayBackend,
    cached_generate,
    extraction_request,
    qa_request,
)
from .prompts import PromptVariant, Setting

logger = logging.getLogger(__name__)

ANSWER_COLUMNS = ("em", "f1", "precision", "recall")
ROUGE_COLUMNS = ("rouge1", "rouge2", "rougeL")
GRAPH_FIELDS = {"question_id": str, "paragraph_index": int, "graph": dict}  # of a graphs row
# The string fields of a predictions row that `run_evaluate` reads.
PREDICTION_FIELDS = ("question_id", "variant", "setting", "answer", "completion")
# The demonstration kinds each extraction variant prompts with.
EXTRACTION_DEMO_KINDS = {
    PromptVariant.G_FULL: ("entity",),
    PromptVariant.SG_MULTI: ("entity", "relation"),
    PromptVariant.SG_ONE: ("joint",),
}


class UsageError(ValueError):
    """The requested run is not a valid configuration."""


@dataclass
class RunConfig:
    dataset_path: str
    dataset_format: str = "hotpotqa"
    split: str = "all"  # dev | test | all
    seed: int = 0
    dev_n: int = corpus.DEFAULT_DEV_SIZE
    test_n: int = corpus.DEFAULT_TEST_SIZE
    variant: PromptVariant = PromptVariant.BASE
    setting: Setting = Setting.COT
    backend: str = "replay"  # replay | live
    model_id: str = "gpt-3.5-turbo-instruct"
    endpoint: str = ""
    replay_file: str = ""
    cache_dir: str = ".sgqa-cache"
    demo_dir: str = ""  # empty: packaged demos
    output_dir: str = "runs/run"
    workers: int = 1
    allow_partial: bool = False

    def __post_init__(self):
        self.variant = PromptVariant(self.variant)
        self.setting = Setting(self.setting)
        if self.split not in ("dev", "test", "all"):
            raise UsageError(f"unknown split {self.split!r}")
        if self.backend not in ("replay", "live"):
            raise UsageError(f"unknown backend {self.backend!r}")
        if self.workers < 1:
            raise UsageError("workers must be at least 1")


_STATUS_RANK = {"pending": 0, "extracted": 1, "answered": 2}
_STATUSES = (*_STATUS_RANK, "failed")


class RunManifest:
    """Per-question status ledger persisted as JSON. Statuses are recorded in
    memory and written by `ensure` and `save`; transitions only move forward
    (a failed question may be retried on a later run). The ledger lists the
    questions of the latest `ensure`, so it describes the latest run.

    `ensure` carries each question's earlier status over. That is not a
    resume path (resume comes from the completion cache alone): it keeps the
    manifest in step with the outputs on disk, since a rerun that dies
    before its end leaves the earlier run's output file and the manifest
    written at its start."""

    def __init__(self, path, config: RunConfig | None = None):
        self.path = Path(path)
        if self.path.exists():
            with open(self.path, encoding="utf-8") as fh:
                try:
                    self._data = json.load(fh)
                except ValueError as exc:
                    raise ValueError(f"{self.path}: damaged manifest: {exc}") from exc
            questions = self._data.get("questions") if isinstance(self._data, dict) else None
            if not isinstance(questions, dict):
                raise ValueError(f"{self.path}: damaged manifest: no 'questions' object")
            for qid, entry in questions.items():
                fault = row_fault(entry, {"status": str})
                if fault is None and entry["status"] not in _STATUSES:
                    fault = f"unknown status {entry['status']!r}"
                elif fault is None and ("reason" not in entry
                                        or type(entry["reason"]) not in (str, type(None))):
                    fault = "field 'reason' must be a string or null"
                if fault is not None:
                    raise ValueError(f"{self.path}: damaged manifest: question {qid!r}: {fault}")
            if config is not None:
                self._data["config"] = dataclasses.asdict(config)
        else:
            self._data = {
                "config": dataclasses.asdict(config) if config else {},
                "questions": {},
            }

    def ensure(self, question_ids: list[str]):
        """Keep only these questions, each with its earlier status, and save."""
        earlier = self._data["questions"]
        self._data["questions"] = {
            qid: earlier.get(qid, {"status": "pending", "reason": None})
            for qid in question_ids
        }
        self.save()

    def mark(self, question_id: str, status: str, reason: str | None = None):
        entry = self._data["questions"].setdefault(
            question_id, {"status": "pending", "reason": None}
        )
        current = entry["status"]
        if status == "failed":
            entry.update(status="failed", reason=reason)
        elif current == "failed" or _STATUS_RANK[status] >= _STATUS_RANK.get(current, 0):
            entry.update(status=status, reason=None)

    def failed(self) -> list[tuple[str, str]]:
        return [
            (qid, entry.get("reason") or "")
            for qid, entry in self._data["questions"].items()
            if entry["status"] == "failed"
        ]

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(self.path, [json.dumps(self._data, indent=2, sort_keys=True)])


def load_records(config: RunConfig) -> list[corpus.QuestionRecord]:
    """The records of the configured split, each keeping only its gold
    paragraphs as its context: the ones `gold_paragraphs` returns, in context
    order, with duplicates, but without its warning. `load_dataset` has
    checked every paragraph; the distractors are dropped only here."""
    records = corpus.load_dataset(config.dataset_path, config.dataset_format)
    if config.split != "all":
        split = corpus.sample_splits(records, config.seed, config.dev_n, config.test_n)
        records = split.dev if config.split == "dev" else split.test
    return [corpus.QuestionRecord(r.id, r.question, r.gold_answer, tuple(
        p for p in r.context if p.title in r.supporting_titles), r.supporting_titles)
        for r in records]


def make_backend(config: RunConfig):
    if config.backend == "replay":
        if not config.replay_file:
            raise UsageError("replay backend needs --replay-file")
        return ReplayBackend.from_file(config.replay_file)
    if not config.endpoint:
        raise UsageError("live backend needs --endpoint")
    try:
        return HTTPBackend(config.endpoint)
    except ValueError as exc:  # an endpoint or key that no request could carry
        raise UsageError(f"live backend: {exc}") from exc


def extract_paragraph_graph(
    paragraph: corpus.Paragraph,
    variant: PromptVariant,
    demos: dict[str, list[prompts.Demonstration]],
    backend,
    cache: CompletionCache,
    model_id: str,
) -> graph_mod.SemanticGraph:
    """Build one paragraph's graph via the variant's prompting recipe."""
    if variant is PromptVariant.SG_ONE:
        bundle = prompts.joint_graph_prompt(paragraph, demos["joint"])
        completion = cached_generate(extraction_request(bundle.text, model_id), backend, cache)
        triples, _ = graph_mod.parse_triples(completion.text)
        return graph_mod.joint_graph(paragraph.title, triples)

    bundle = prompts.entity_prompt(paragraph, demos["entity"])
    completion = cached_generate(extraction_request(bundle.text, model_id), backend, cache)
    entities, _ = graph_mod.parse_entities(completion.text)

    if variant is PromptVariant.G_FULL:
        return graph_mod.build_full_graph(entities, source_title=paragraph.title)

    # SG-Multi: relations over the extracted entities. No entities means
    # nothing to relate; emit an empty graph rather than aborting the question.
    if not entities:
        logger.warning("no entities extracted for %r; emitting empty graph", paragraph.title)
        return graph_mod.multi_step_graph(paragraph.title, [], [])
    bundle = prompts.relation_prompt(paragraph, entities, demos["relation"])
    completion = cached_generate(extraction_request(bundle.text, model_id), backend, cache)
    triples, _ = graph_mod.parse_triples(completion.text, known_entities=entities)
    return graph_mod.multi_step_graph(paragraph.title, entities, triples)


def answer_question(
    record: corpus.QuestionRecord,
    graphs: list[graph_mod.SemanticGraph],
    variant: PromptVariant,
    setting: Setting,
    demos: list[prompts.Demonstration],
    backend,
    cache: CompletionCache,
    model_id: str,
) -> dict:
    """Answer one question with the variant's QA prompt, whose documents carry
    `graphs` (one per gold paragraph; none for the base variant), and return
    its predictions row."""
    bundle = prompts.qa_prompt(
        corpus.gold_paragraphs(record), graphs, record.question, setting, variant, demos
    )
    completion = cached_generate(qa_request(bundle.text, model_id), backend, cache)
    flags: list[str] = []
    if setting is Setting.COT:
        parsed = chain_mod.parse_chain(completion.text)
        sentences = list(parsed.sentences)
        answer = parsed.extracted_answer
        if parsed.used_fallback:
            flags.append("no-answer-pattern")
    else:
        sentences = []
        answer = completion.text.strip()
    return {
        "question_id": record.id,
        "variant": variant.value,
        "setting": setting.value,
        "prompt_hash": bundle.prompt_hash,
        "completion": completion.text,
        "chain_sentences": sentences,
        "answer": answer,
        "backend_id": completion.backend_id,
        "flags": flags,
    }


def _run_stage(config: RunConfig, records: list[corpus.QuestionRecord], stage: str,
               filename: str, status: str, step) -> Path:
    """Run one backend stage over `records`: build the backend, write the
    manifest, map `step(record, backend, cache)` over the records in input
    order, stream the rows it returns into <output_dir>/<filename> as each
    step's outcome arrives, marking its record `status` or failed, and once
    the file is written save the manifest once more. A step returns (rows,
    None) or (None, failure reason); one that raises fails its record with
    the reason "<stage>: <exception>"."""
    backend = make_backend(config)
    with closing(backend), CompletionCache(config.cache_dir) as cache:
        out_dir = Path(config.output_dir)
        remove_dead_temps(out_dir)
        manifest = RunManifest(out_dir / "manifest.json", config)
        manifest.ensure([r.id for r in records])

        def run(record: corpus.QuestionRecord):
            try:
                return step(record, backend, cache)
            except Exception as exc:  # the traceback only under -v
                logger.warning("%s failed for %s: %s", stage, record.id, exc,
                               exc_info=logger.isEnabledFor(logging.DEBUG))
                return None, f"{stage}: {exc}"

        def rows(outcomes):
            for record, (record_rows, failure) in zip(records, outcomes):
                if failure is None:
                    manifest.mark(record.id, status)
                else:
                    manifest.mark(record.id, "failed", reason=failure)
                yield from record_rows or ()

        path = out_dir / filename
        # Closing the outcomes cancels the steps not yet started if the write fails.
        with ThreadPoolExecutor(max_workers=config.workers) as pool, closing(
                pool.map(run, records) if config.workers > 1
                else (run(record) for record in records)) as outcomes:
            write_jsonl(path, rows(outcomes))
        manifest.save()
    return path


def run_extract(config: RunConfig) -> Path:
    """Extract a semantic graph per gold paragraph; writes graphs.jsonl.

    Each distinct gold paragraph's graph is built once and, only if more than
    one question uses that paragraph, kept for the rest of the stage. Two
    workers may both build a new shared paragraph: the cache's single-flight
    makes one backend call, and the equal rows serialise alike. A failed
    extraction is not kept, so the paragraph's next question retries it."""
    if config.variant is PromptVariant.BASE:
        raise UsageError("the base variant has no extraction stage")
    demos = {kind: prompts.demo_set(kind, config.demo_dir)
             for kind in EXTRACTION_DEMO_KINDS[config.variant]}
    records = load_records(config)
    # Each gold paragraph used more than once, with its graph row once one is built.
    shared: dict[corpus.Paragraph, dict | None] = dict.fromkeys(
        p for p, uses in Counter(p for r in records for p in r.context).items() if uses > 1)

    def graph_row(paragraph: corpus.Paragraph, backend, cache: CompletionCache) -> dict:
        built = shared.get(paragraph)
        if built is None:
            built = graph_mod.graph_to_dict(extract_paragraph_graph(
                paragraph, config.variant, demos, backend, cache, config.model_id))
            if paragraph in shared:
                shared[paragraph] = built
        return built

    def step(record: corpus.QuestionRecord, backend, cache: CompletionCache):
        return [
            {"question_id": record.id, "paragraph_index": index,
             "graph": graph_row(paragraph, backend, cache)}
            for index, paragraph in enumerate(corpus.gold_paragraphs(record))
        ], None

    return _run_stage(config, records, "extract", "graphs.jsonl", "extracted", step)


def _read_graphs(path):
    """Yield (line number, question id, paragraph index, graph) for each row
    of a graphs file. Besides what `read_rows` rejects, a negative paragraph
    index or a malformed graph object is rejected naming its file and line."""
    for _, line_no, row in read_rows([path], GRAPH_FIELDS, "(question_id, paragraph_index)",
                                     itemgetter("question_id", "paragraph_index")):
        index = row["paragraph_index"]
        if index < 0:
            raise ValueError(f"{path}:{line_no}: negative paragraph_index {index}")
        try:
            graph = graph_mod.graph_from_dict(row["graph"])
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: graph: {exc}") from exc
        yield line_no, row["question_id"], index, graph


def load_graphs(path) -> dict[str, dict[int, graph_mod.SemanticGraph]]:
    """Each question's graphs by paragraph index. Equal graphs are handed out
    as one object, so questions that share a gold paragraph share its graph."""
    graphs: dict[str, dict[int, graph_mod.SemanticGraph]] = {}
    distinct: dict[graph_mod.SemanticGraph, graph_mod.SemanticGraph] = {}
    for _, question_id, index, graph in _read_graphs(path):
        graphs.setdefault(question_id, {})[index] = distinct.setdefault(graph, graph)
    return graphs


def run_answer(config: RunConfig, graphs_path=None) -> Path:
    """Answer every question; writes predictions.jsonl."""
    needs_graphs = config.variant is not PromptVariant.BASE
    if needs_graphs:
        graphs_path = graphs_path or Path(config.output_dir) / "graphs.jsonl"
        if not Path(graphs_path).exists():
            raise UsageError(f"variant {config.variant.value} needs graphs: {graphs_path} missing")
    elif graphs_path is not None:
        raise UsageError("the base variant takes no graphs")
    demos = prompts.demo_set(f"qa_{config.setting.value}", config.demo_dir)
    records = load_records(config)
    graphs_by_qid = load_graphs(graphs_path) if needs_graphs else {}

    def step(record: corpus.QuestionRecord, backend, cache: CompletionCache):
        graphs = []
        if needs_graphs:
            by_index = graphs_by_qid.get(record.id)
            # Indexes are distinct and non-negative: a maximum below their
            # count means they are exactly 0..count-1. `qa_prompt` checks the
            # count against the gold paragraphs.
            if not by_index or max(by_index) >= len(by_index):
                return None, "missing graph"
            graphs = [by_index[i] for i in range(len(by_index))]
        return [answer_question(record, graphs, config.variant, config.setting, demos,
                                backend, cache, config.model_id)], None

    return _run_stage(config, records, "answer", "predictions.jsonl", "answered", step)


def read_predictions(paths) -> list[dict]:
    """Prediction rows of all the JSONL files, each holding only the fields
    `run_evaluate` reads (`PREDICTION_FIELDS`) and `flags` if the row has it.
    A row that lacks one of those string fields, or with a (variant, setting,
    question_id) that an earlier row of any of the files has, is rejected
    naming its file and line. The rows share one string per field name and
    per variant and setting value: the JSON decoder shares keys only within
    one line, and values never."""
    shared: dict[str, str] = {}
    rows = []
    for _, _, row in read_rows(paths, dict.fromkeys(PREDICTION_FIELDS, str), "prediction",
                               itemgetter("variant", "setting", "question_id")):
        lean = {name: row[name] for name in PREDICTION_FIELDS}
        lean["variant"] = shared.setdefault(row["variant"], row["variant"])
        lean["setting"] = shared.setdefault(row["setting"], row["setting"])
        if "flags" in row:
            lean["flags"] = row["flags"]
        rows.append(lean)
    return rows


def _table_files(stem: str, header: list[str], rows: list[list]) -> list[tuple[str, str]]:
    """One small table as the texts of <stem>.csv and <stem>.md."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return [(f"{stem}.csv", buffer.getvalue()), (f"{stem}.md", "\n".join(lines) + "\n")]


def _fmt(value) -> str:
    return "" if value is None else f"{value:.4f}"


class _ScoreTable:
    """The <stem>_scores CSV text, one line added per scored row, and each
    variant/setting group's count and running column sums. The sums start at
    0 and add the scores in row order, as `sum()` over a list of them does,
    so each mean keeps its bits."""

    def __init__(self, stem: str, ids: tuple, columns: tuple, aggregate_header: list[str]):
        self.stem, self.columns, self.aggregate_header = stem, columns, aggregate_header
        self.text = io.StringIO()
        self.writer = csv.writer(self.text, lineterminator="\n")
        self.writer.writerow([*ids, *columns])
        self.sums: dict[str, list] = {}  # group -> [count, *column sums]

    def add(self, ids: list, group: str, values: tuple):
        self.writer.writerow([*ids, *map(_fmt, values)])
        sums = self.sums.setdefault(group, [0] * (1 + len(values)))
        sums[0] += 1
        for i, value in enumerate(values, start=1):
            sums[i] += value

    def finish(self) -> tuple[dict[str, dict], list[tuple[str, str]]]:
        """Each group's column means and count, and the table files' texts."""
        aggregates, rows = {}, []
        for group, (n, *totals) in sorted(self.sums.items()):
            means = [total / n for total in totals]
            aggregates[group] = {**dict(zip(self.columns, means)), "n": n}
            rows.append([group, *map(_fmt, means)])
        return aggregates, [
            (f"{self.stem}_scores.csv", self.text.getvalue()),
            *_table_files(f"{self.stem}_aggregate", ["method", *self.aggregate_header], rows)]


_answer_values = attrgetter(*ANSWER_COLUMNS)
_rouge_values = attrgetter(*ROUGE_COLUMNS)


def run_evaluate(
    predictions: list[dict],
    records: list[corpus.QuestionRecord],
    output_dir,
    human_labels: dict[str, int] | None = None,
    reference_chains: dict[str, str] | None = None,
) -> dict:
    """Score predictions and write per-question and aggregate metric files.

    Returns the full report dict (also written as metrics.json). Predictions
    whose question id is not in the dataset are excluded with a warning.

    One pass over `predictions` in input order scores each row's answer, and
    its chain ROUGE if it is a cot row with a reference chain. The row's CSV
    lines go straight into the score tables' text, and its group's running
    sums grow, so no score object outlives its row; only the labelled rows'
    answer scores and labels are kept, for the correlations, each column an
    `array("d")`. A row is read only for its `PREDICTION_FIELDS`. Nothing is
    written until the report has serialised.
    """
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    remove_dead_temps(out_dir)
    gold = {r.id: r.gold_answer for r in records}
    answers = _ScoreTable("answer", ("question_id", "variant", "setting"), ANSWER_COLUMNS,
                          ["EM", "F1", "Precision", "Recall"])
    # Chain ROUGE against reference chains (CoT completions are the chains).
    chains = None if reference_chains is None else _ScoreTable(
        "chain", ("question_id", "variant"), ROUGE_COLUMNS, ["ROUGE-1", "ROUGE-2", "ROUGE-L"])
    # Per answer column, the labelled rows' scores, and their labels, packed as doubles.
    labelled = tuple(array("d") for _ in ANSWER_COLUMNS)
    labels = array("d")

    for row in predictions:
        question_id, variant, setting = row["question_id"], row["variant"], row["setting"]
        if question_id not in gold:
            logger.warning("prediction for unknown question id %r excluded", question_id)
            continue
        group = f"{variant}/{setting}"
        values = _answer_values(metrics.answer_score(row["answer"], gold[question_id]))
        answers.add([question_id, variant, setting], group, values)
        if human_labels is not None and question_id in human_labels:
            for column, value in zip(labelled, values):
                column.append(value)
            labels.append(human_labels[question_id])
        if (chains is not None and setting == Setting.COT.value
                and question_id in reference_chains):
            chains.add([question_id, variant], group, _rouge_values(metrics.rouge_scores(
                row["completion"].strip(), reference_chains[question_id])))

    aggregates, files = answers.finish()
    report: dict = {"answer": {"aggregates": aggregates}}
    if chains is not None:
        chain_aggregates, chain_files = chains.finish()
        files += chain_files
        for agg in chain_aggregates.values():
            agg["bertscore"] = None  # reserved for an embedding-based metric
        report["chain"] = {"aggregates": chain_aggregates}

    # Correlations of each answer metric with human 0/1 labels.
    if human_labels is not None:
        correlation_report = {}
        correlation_rows = []
        for column, values in zip(ANSWER_COLUMNS, labelled):
            try:
                result = metrics.correlations(values, labels)
                correlation_report[column] = {"rho": result.rho, "tau": result.tau, "n": result.n}
                correlation_rows.append([column, _fmt(result.rho), _fmt(result.tau), result.n])
            except ValueError as exc:
                logger.warning("correlation undefined for %s: %s", column, exc)
                correlation_report[column] = {"rho": None, "tau": None, "n": len(labels)}
                correlation_rows.append([column, "undefined", "undefined", len(labels)])
        files += _table_files("correlations", ["metric", "spearman_rho", "kendall_tau", "n"],
                              correlation_rows)
        report["correlations"] = correlation_report

    text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    for name, content in files:
        write_atomic(out_dir / name, [content])
    write_atomic(out_dir / "metrics.json", [text])
    return report


def run_ground(graphs_path, records: list[corpus.QuestionRecord], output_path,
               html_dir=None) -> int:
    """Ground every stored graph against its source paragraph; returns the
    number of reports written. A graph whose source title is not its
    paragraph's stops the stage, naming its file and line."""
    by_id = {r.id: r for r in records}
    gold: dict[str, list[corpus.Paragraph]] = {}  # looked up once per question
    html_root = Path(html_dir) if html_dir else None
    if html_root:
        html_root.mkdir(parents=True, exist_ok=True)
        remove_dead_temps(html_root)
    out_dir = Path(output_path).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    remove_dead_temps(out_dir)
    count = 0

    def reports():
        nonlocal count
        for line_no, question_id, index, g in _read_graphs(graphs_path):
            record = by_id.get(question_id)
            if record is None:
                logger.warning("graph for unknown question id %r skipped", question_id)
                continue
            if question_id not in gold:
                gold[question_id] = corpus.gold_paragraphs(record)
            paragraphs = gold[question_id]
            if index >= len(paragraphs):
                logger.warning("graph index %d out of range for %s", index, record.id)
                continue
            paragraph = paragraphs[index]
            try:
                report = grounding.grounding_report(g, paragraph)
            except ValueError as exc:
                raise ValueError(f"{graphs_path}:{line_no}: {exc}") from exc
            yield {
                "question_id": record.id,
                "paragraph_index": index,
                **grounding.report_to_dict(report),
            }
            if html_root:
                page = grounding.render_highlights(paragraph, report)
                name = record.id.replace("%", "%25").replace("/", "%2F")  # stays in html/
                write_atomic(html_root / f"{name}_{index}.html", [page])
            count += 1

    write_jsonl(output_path, reports())
    return count


def read_labels(path) -> dict[str, int]:
    """JSONL of {question_id, label} with 0/1 human correctness labels. A row
    without a string question id, with a label other than the integer 0 or 1,
    or repeating a question id is rejected naming its line."""
    labels = {}
    for _, line_no, row in read_rows([path], {"question_id": str, "label": int}, "question_id",
                                     itemgetter("question_id")):
        if row["label"] not in (0, 1):
            raise ValueError(f"{path}:{line_no}: label must be 0 or 1, got {row['label']!r}")
        labels[row["question_id"]] = row["label"]
    return labels


def read_reference_chains(path) -> dict[str, str]:
    """JSONL of {question_id, chain} reference reasoning chains. A row that
    lacks either string field, or repeats a question id, is rejected naming
    its line."""
    return {row["question_id"]: row["chain"] for _, _, row in read_rows(
        [path], {"question_id": str, "chain": str}, "question_id", itemgetter("question_id"))}
