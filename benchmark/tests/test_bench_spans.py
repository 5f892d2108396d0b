"""Span recording, self time, and instrumentation that leaves sgqa as it was."""

import threading
from types import SimpleNamespace

import spans
from sgqa import chain, corpus, grounding, graph, llm, metrics, pipeline, prompts

SGQA = SimpleNamespace(corpus=corpus, prompts=prompts, llm=llm, graph=graph, chain=chain,
                       metrics=metrics, grounding=grounding, pipeline=pipeline)


def test_covered_is_union_length():
    assert spans._covered([]) == 0
    assert spans._covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert spans._percentile(values, 0.99) == 99
    assert spans._percentile(values, 0.5) == 50
    assert spans._percentile([], 0.99) == 0


def test_nested_spans_and_self_time():
    tracer = spans.Tracer()
    inner = tracer.wrap("metrics.spearman", lambda: None)
    outer = tracer.wrap("metrics.kendall_tau", lambda: inner())
    with tracer.stage_span("evaluate") as stage:
        outer()
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    names = {s[spans.NAME]: s for s in tracer.spans}
    assert names["metrics.kendall_tau"][spans.PARENT] is stage
    # A span on another thread with no traced caller hangs under the stage.
    parents = [s[spans.PARENT] for s in tracer.spans if s[spans.NAME] == "metrics.spearman"]
    assert parents.count(names["metrics.kendall_tau"]) == 1 and parents.count(stage) == 1
    out = spans.layer_metrics(tracer.spans, workers=1)
    assert 0 <= out["pipeline.evaluate.self_s"] <= stage[spans.END] - stage[spans.START]
    assert set(out) == set(spans.LAYER_METRICS)


def test_instrument_records_and_undo_restores():
    originals = {name: getattr(metrics, name) for name in ("answer_score", "kendall_tau")}
    tracer = spans.Tracer()
    undo = tracer.instrument(SGQA, {})
    try:
        assert metrics.answer_score is not originals["answer_score"]
        metrics.correlations([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
        metrics.answer_score("Paris", "paris")
    finally:
        undo()
    assert {name: getattr(metrics, name) for name in originals} == originals
    assert llm.CompletionCache.get.__name__ == "get" and not hasattr(llm.CompletionCache.get,
                                                                     "__wrapped__")
    out = spans.layer_metrics(tracer.spans, workers=1)
    assert out["metrics.kendall_tau.s"] > 0 and out["metrics.spearman.s"] > 0
    assert out["metrics.answer_score.s"] > 0 and out["prompts.render.calls"] == 0


def test_span_cost_is_small_and_positive():
    cost = spans.span_cost_s()
    assert 0 < cost < 1e-3
