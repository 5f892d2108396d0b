"""In-memory span tracing around the public functions of each sgqa layer.

`Tracer.instrument` replaces module and class attributes of the imported
sgqa package with timing wrappers and returns a function that puts the
originals back; nothing under src/ is edited. Each span records its name,
start, end, parent span, thread, the question id when the call's arguments
reveal it, an error flag and one layer-specific measurement. Spans stay in
memory until `write` is called at the end of a run.

Functions called from worker threads have no traced caller on their own
thread; their parent is the stage span open on the main thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import statistics
import threading
from time import perf_counter

# Span fields, in order.
NAME, START, END, PARENT, THREAD, QID, ERROR, VALUE = range(8)

STAGES = ("extract", "answer", "evaluate", "ground", "resume")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stage: list | None = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, qid_of=None, measure=None):
        """`fn` with a span around every call. `qid_of(args)` names the
        question, `measure(args, result)` the span's value; both run outside
        the timed interval."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.stage
            span = [name, 0.0, 0.0, parent, threading.get_ident(),
                    qid_of(args) if qid_of else None, False, None]
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if measure is not None:
                span[VALUE] = measure(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def stage_span(self, name: str):
        """A top-level span for one pipeline stage."""
        span = [f"pipeline.{name}", 0.0, 0.0, None, threading.get_ident(), None, False, None]
        self.stage = span
        span[START] = perf_counter()
        try:
            yield span
        except BaseException:
            span[ERROR] = True
            raise
        finally:
            span[END] = perf_counter()
            self.stage = None
            self.spans.append(span)

    def instrument(self, sgqa, question_ids: dict[str, str]):
        """Wrap the public functions of every layer of the `sgqa` namespace
        (an object with corpus, prompts, llm, graph, chain, metrics,
        grounding and pipeline attributes). Returns an undo function."""
        corpus, prompts, llm, graph, chain, metrics, grounding, pipeline = (
            sgqa.corpus, sgqa.prompts, sgqa.llm, sgqa.graph, sgqa.chain,
            sgqa.metrics, sgqa.grounding, sgqa.pipeline)
        saved = []

        def patch(owner, attr, name, **hooks):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, **hooks))

        def prompt_chars(args, bundle):
            return len(bundle.text)

        def request_identity(args, result):
            request = args[1]
            return hash((request.model_id, request.prompt, request.max_tokens,
                         request.stop_sequences))

        def grounded(args, report):
            return (len(report.per_element), sum(e.grounded for e in report.per_element))

        def manifest_bytes(args, result):
            return os.path.getsize(args[0].path)

        patch(corpus, "load_dataset", "corpus.load_dataset")
        for attr in ("entity_prompt", "relation_prompt", "joint_graph_prompt"):
            patch(prompts, attr, "prompts.render", measure=prompt_chars)
        patch(prompts, "qa_prompt", "prompts.render", measure=prompt_chars,
              qid_of=lambda args: question_ids.get(args[2]))
        patch(llm, "request_key", "llm.request_key")
        patch(llm.CompletionCache, "get", "llm.cache.get",
              measure=lambda args, entry: entry is not None)
        patch(llm.CompletionCache, "put", "llm.cache.put")
        for backend in (llm.ReplayBackend, llm.HTTPBackend):
            patch(backend, "complete", "llm.backend", measure=request_identity)
        for attr in ("parse_entities", "parse_triples"):
            patch(graph, attr, "graph.parse",
                  measure=lambda args, result: len(result[1].rejected_lines))
        patch(graph, "graph_from_dict", "graph.graph_from_dict")
        patch(chain, "parse_chain", "chain.parse_chain",
              measure=lambda args, parsed: parsed.used_fallback)
        for attr in ("answer_score", "rouge_scores", "kendall_tau", "spearman"):
            patch(metrics, attr, f"metrics.{attr}")
        patch(grounding, "grounding_report", "grounding.grounding_report", measure=grounded)
        patch(grounding, "render_highlights", "grounding.render_highlights")
        patch(pipeline.RunManifest, "ensure", "pipeline.manifest", measure=manifest_bytes)
        patch(pipeline.RunManifest, "mark", "pipeline.manifest", measure=manifest_bytes,
              qid_of=lambda args: args[1])

        def undo():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return undo

    def write(self, path):
        """Write every span as one JSON line, parents as indices."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span[NAME], "start": span[START], "end": span[END],
                    "parent": index.get(id(span[PARENT])), "thread": span[THREAD],
                    "question_id": span[QID], "error": span[ERROR], "value": span[VALUE],
                }) + "\n")


def span_cost_s(calls: int = 20_000, rounds: int = 5) -> float:
    """Wall time one span adds to a call: a no-op wrapped by `Tracer.wrap`,
    with no-op question and measure hooks, against the bare no-op; median
    over rounds. The hooks' own work (a hash, a file size) is not counted."""

    def noop(*args):
        return None

    costs = []
    for _ in range(rounds):
        traced = Tracer().wrap("cost", noop, qid_of=noop, measure=noop)
        start = perf_counter()
        for _ in range(calls):
            traced(None)
        middle = perf_counter()
        for _ in range(calls):
            noop(None)
        end = perf_counter()
        costs.append(((middle - start) - (end - middle)) / calls)
    return statistics.median(costs)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, end = 0.0, -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


# Per-layer metric names and units, in report order.
LAYER_METRICS = {
    "corpus.load_dataset.s": "s",
    "corpus.load_dataset.calls": "count",
    "prompts.render.s": "s",
    "prompts.render.calls": "count",
    "prompts.render.p99_us": "us",
    "prompts.chars": "chars",
    "llm.request_key.s": "s",
    "llm.request_key.calls": "count",
    "llm.cache.get.s": "s",
    "llm.cache.hits": "count",
    "llm.cache.misses": "count",
    "llm.cache.hit_share": "share",
    "llm.cache.put.s": "s",
    "llm.cache.puts": "count",
    "llm.backend.calls": "count",
    "llm.backend.failed": "count",
    "llm.backend.s": "s",
    "llm.backend.p50_ms": "ms",
    "llm.backend.p99_ms": "ms",
    "llm.backend.duplicate_calls": "count",
    "graph.parse.s": "s",
    "graph.parse.rejected_lines": "count",
    "graph.graph_from_dict.s": "s",
    "chain.parse_chain.s": "s",
    "chain.fallback_share": "share",
    "metrics.answer_score.s": "s",
    "metrics.rouge_scores.s": "s",
    "metrics.rouge_scores.p99_us": "us",
    "metrics.kendall_tau.s": "s",
    "metrics.spearman.s": "s",
    "grounding.grounding_report.s": "s",
    "grounding.grounding_report.p99_ms": "ms",
    "grounding.elements": "count",
    "grounding.grounded_share": "share",
    "grounding.render_highlights.s": "s",
    "pipeline.manifest.s": "s",
    "pipeline.manifest.calls": "count",
    "pipeline.manifest.bytes": "bytes",
    **{f"pipeline.{stage}.self_s": "s" for stage in STAGES},
    "pipeline.backend_wait_share": "share",
}


def layer_metrics(spans: list[list], workers: int) -> dict[str, float]:
    """Every LAYER_METRICS value computed from one traced pass; a layer the
    pass never entered reads 0."""
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def durations(name):
        return [s[END] - s[START] for s in by_name.get(name, ())]

    def seconds(name):
        return sum(durations(name))

    def values(name):
        return [s[VALUE] for s in by_name.get(name, ())]

    def share(part, whole):
        return part / whole if whole else 0.0

    out: dict[str, float] = {}
    out["corpus.load_dataset.s"] = seconds("corpus.load_dataset")
    out["corpus.load_dataset.calls"] = len(durations("corpus.load_dataset"))
    out["prompts.render.s"] = seconds("prompts.render")
    out["prompts.render.calls"] = len(durations("prompts.render"))
    out["prompts.render.p99_us"] = _percentile(durations("prompts.render"), 0.99) * 1e6
    out["prompts.chars"] = sum(values("prompts.render"))
    out["llm.request_key.s"] = seconds("llm.request_key")
    out["llm.request_key.calls"] = len(durations("llm.request_key"))
    hits = sum(1 for v in values("llm.cache.get") if v)
    gets = len(values("llm.cache.get"))
    out["llm.cache.get.s"] = seconds("llm.cache.get")
    out["llm.cache.hits"] = hits
    out["llm.cache.misses"] = gets - hits
    out["llm.cache.hit_share"] = share(hits, gets)
    out["llm.cache.put.s"] = seconds("llm.cache.put")
    out["llm.cache.puts"] = len(durations("llm.cache.put"))
    backend = by_name.get("llm.backend", [])
    ok = [s for s in backend if not s[ERROR]]
    out["llm.backend.calls"] = len(backend)
    out["llm.backend.failed"] = len(backend) - len(ok)
    out["llm.backend.s"] = seconds("llm.backend")
    ok_ms = [(s[END] - s[START]) * 1e3 for s in ok]
    out["llm.backend.p50_ms"] = _percentile(ok_ms, 0.50)
    out["llm.backend.p99_ms"] = _percentile(ok_ms, 0.99)
    out["llm.backend.duplicate_calls"] = len(ok) - len({s[VALUE] for s in ok})
    out["graph.parse.s"] = seconds("graph.parse")
    out["graph.parse.rejected_lines"] = sum(values("graph.parse"))
    out["graph.graph_from_dict.s"] = seconds("graph.graph_from_dict")
    out["chain.parse_chain.s"] = seconds("chain.parse_chain")
    fallbacks = values("chain.parse_chain")
    out["chain.fallback_share"] = share(sum(1 for v in fallbacks if v), len(fallbacks))
    for name in ("answer_score", "rouge_scores", "kendall_tau", "spearman"):
        out[f"metrics.{name}.s"] = seconds(f"metrics.{name}")
    out["metrics.rouge_scores.p99_us"] = _percentile(durations("metrics.rouge_scores"), 0.99) * 1e6
    reports = values("grounding.grounding_report")
    elements = sum(total for total, _ in reports)
    out["grounding.grounding_report.s"] = seconds("grounding.grounding_report")
    out["grounding.grounding_report.p99_ms"] = (
        _percentile(durations("grounding.grounding_report"), 0.99) * 1e3)
    out["grounding.elements"] = elements
    out["grounding.grounded_share"] = share(sum(g for _, g in reports), elements)
    out["grounding.render_highlights.s"] = seconds("grounding.render_highlights")
    out["pipeline.manifest.s"] = seconds("pipeline.manifest")
    out["pipeline.manifest.calls"] = len(durations("pipeline.manifest"))
    out["pipeline.manifest.bytes"] = sum(values("pipeline.manifest"))

    children: dict[int, list[list]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append(span)
    backend_stage_wall = 0.0  # wall time of the stages that call the backend
    for stage in STAGES:
        total = 0.0
        for span in by_name.get(f"pipeline.{stage}", ()):
            kids = [(k[START], k[END]) for k in children.get(id(span), ())]
            total += span[END] - span[START] - _covered(kids)
            if stage in ("extract", "answer", "resume"):
                backend_stage_wall += span[END] - span[START]
        out[f"pipeline.{stage}.self_s"] = total
    out["pipeline.backend_wait_share"] = share(out["llm.backend.s"], backend_stage_wall * workers)
    return out
