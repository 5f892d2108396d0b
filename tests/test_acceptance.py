"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The live directional check (criterion 9) is skipped unless API
credentials are configured; everything else runs offline.
"""

import json
import math
import os
import random
import string
import time
from functools import lru_cache
from pathlib import Path

import pytest

from sgqa import corpus, pipeline, prompts
from sgqa.graph import (
    Entity,
    GraphVariant,
    Triple,
    build_full_graph,
    graph_from_dict,
    graph_to_dict,
    joint_graph,
    multi_step_graph,
    parse_entities,
    parse_triples,
    serialize_graph,
)
from sgqa.grounding import grounding_report
from sgqa.metrics import (
    answer_score,
    kendall_tau,
    rouge_l,
    rouge_n,
    spearman,
)
from sgqa.prompts import PromptVariant, Setting

E2E = Path(__file__).parent / "data" / "e2e"
GOLDEN = Path(__file__).parent / "golden"


def report(criterion, detail=""):
    print(f"\nACCEPTANCE {criterion}: PASS {detail}")


# ---------------------------------------------------------------------------
# 1. Metric oracle suite
# ---------------------------------------------------------------------------

# (prediction, gold) -> (em, precision, recall, f1), all derived by hand from
# the normalize/token-overlap rules.
ANSWER_CASES = [
    ("Stange, Norway", "Stange", (0, 0.5, 1.0, 2 / 3)),
    ("Stange", "Stange", (1, 1.0, 1.0, 1.0)),
    ("Paris", "Stange", (0, 0.0, 0.0, 0.0)),
    ("The Lake", "lake", (1, 1.0, 1.0, 1.0)),
    ("a an the", "the", (1, 1.0, 1.0, 1.0)),
    ("New York City", "New York", (0, 2 / 3, 1.0, 0.8)),
    ("York", "New York", (0, 1.0, 0.5, 2 / 3)),
    ("the United States of America", "United States", (0, 0.5, 1.0, 2 / 3)),
    ("Barack Obama", "Obama", (0, 0.5, 1.0, 2 / 3)),
    ("obama barack", "barack obama", (0, 1.0, 1.0, 1.0)),
    ("U.S.A.", "USA", (1, 1.0, 1.0, 1.0)),
    ("15 March 1912", "March 15, 1912", (0, 1.0, 1.0, 1.0)),
    ("yes", "no", (0, 0.0, 0.0, 0.0)),
    ("", "Stange", (0, 0.0, 0.0, 0.0)),
    ("Stange", "", (0, 0.0, 0.0, 0.0)),
    ("", "", (1, 1.0, 1.0, 1.0)),
    ("cat cat", "cat", (0, 0.5, 1.0, 2 / 3)),
    ("cat", "cat cat", (0, 1.0, 0.5, 2 / 3)),
    ("a cat sat", "the cat sat quietly", (0, 1.0, 2 / 3, 0.8)),
    ("Prince Robert, Duke of Chartres", "Prince Robert", (0, 0.4, 1.0, 4 / 7)),
    ("Hedemann", "Knut Hedemann", (0, 1.0, 0.5, 2 / 3)),
    ("quick brown fox", "the quick brown fox jumps", (0, 1.0, 0.75, 6 / 7)),
]


def test_criterion_1_answer_metric_oracle():
    start = time.monotonic()
    assert len(ANSWER_CASES) >= 20
    for prediction, gold, (em, precision, recall, f1) in ANSWER_CASES:
        score = answer_score(prediction, gold)
        assert score.em == em, (prediction, gold)
        assert abs(score.precision - precision) < 1e-9, (prediction, gold)
        assert abs(score.recall - recall) < 1e-9, (prediction, gold)
        assert abs(score.f1 - f1) < 1e-9, (prediction, gold)

    rng = random.Random(101)
    alphabet = string.ascii_lowercase + "  ,.'-"
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
        assert answer_score(a, b).precision == answer_score(b, a).recall
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("criterion-1", f"({len(ANSWER_CASES)} crafted pairs, 1000 symmetry pairs, "
                          f"{elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. ROUGE oracle
# ---------------------------------------------------------------------------

def _oracle_lcs(a: tuple, b: tuple) -> int:
    """Independent LCS by memoized recursion over index pairs."""

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


ROUGE_N_CASES = [
    ("a b c", "a b c", 1, 1.0),
    ("a b c", "a b d", 1, 2 / 3),
    ("a b c", "x y z", 1, 0.0),
    ("a a b", "a b", 1, 0.8),
    ("the cat sat", "the cat sat on the mat", 1, 2 / 3),
    ("a b c d", "a b c d", 2, 1.0),
    ("a b c", "b c d", 2, 0.5),
    ("a b a b", "a b", 2, 0.5),
    ("Hello, world!", "hello world", 1, 1.0),
    ("a", "a b", 2, 0.0),
]


def test_criterion_2_rouge_oracle():
    start = time.monotonic()
    for candidate, reference, n, expected in ROUGE_N_CASES:
        assert abs(rouge_n(candidate, reference, n) - expected) < 1e-12, (candidate, reference, n)

    rng = random.Random(202)
    vocabulary = ["red", "blue", "green", "fox", "lake", "town"]
    for _ in range(500):
        cand = [rng.choice(vocabulary) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocabulary) for _ in range(rng.randint(0, 12))]
        lcs = _oracle_lcs(tuple(cand), tuple(ref))
        if not cand or not ref or lcs == 0:
            expected = 0.0
        else:
            p = lcs / len(cand)
            r = lcs / len(ref)
            expected = 2 * p * r / (p + r)
        assert rouge_l(" ".join(cand), " ".join(ref)) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report("criterion-2", f"(500 LCS sequences, 10 crafted n-gram cases, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3. Correlation oracle
# ---------------------------------------------------------------------------

def _oracle_ranks(values):
    """Average ranks straight from the definition: one plus the count of
    smaller values plus half the count of equal others."""
    ranks = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(1 + smaller + (equal - 1) / 2)
    return ranks


def _oracle_pearson(xs, ys):
    n = len(xs)
    num = n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)
    den_x = n * sum(x * x for x in xs) - sum(xs) ** 2
    den_y = n * sum(y * y for y in ys) - sum(ys) ** 2
    return num / math.sqrt(den_x * den_y)


def _oracle_spearman(xs, ys):
    return _oracle_pearson(_oracle_ranks(xs), _oracle_ranks(ys))


def _oracle_tau_b(xs, ys):
    n = len(xs)
    concordant = discordant = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0:
                tied_x += 1
            if dy == 0:
                tied_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    n0 = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt((n0 - tied_x) * (n0 - tied_y))


def test_criterion_3_correlation_oracle():
    start = time.monotonic()
    rng = random.Random(303)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 8)
        if rng.random() < 0.5:
            xs = [rng.random() for _ in range(n)]
            ys = [rng.random() for _ in range(n)]
        else:  # heavy ties
            xs = [float(rng.randint(0, 3)) for _ in range(n)]
            ys = [float(rng.randint(0, 3)) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            with pytest.raises(ValueError):
                spearman(xs, ys)
            continue
        assert abs(spearman(xs, ys) - _oracle_spearman(xs, ys)) < 1e-12
        assert abs(kendall_tau(xs, ys) - _oracle_tau_b(xs, ys)) < 1e-12
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report("criterion-3", f"(1000 vectors with and without ties, {elapsed:.2f}s)")


def _tau_series(rng, n):
    """One pair of series of length n, of a randomly chosen shape."""
    shape = rng.choice(["continuous", "heavy ties", "x tied in y groups", "reversed",
                        "constant blocks"])
    if shape == "continuous":
        return [rng.random() for _ in range(n)], [rng.random() for _ in range(n)]
    if shape == "heavy ties":
        return ([float(rng.randint(0, 3)) for _ in range(n)],
                [float(rng.randint(0, rng.choice([1, 3]))) for _ in range(n)])
    if shape == "x tied in y groups":
        ys = [float(rng.randint(0, 4)) for _ in range(n)]
        x_of = {y: rng.random() for y in ys}
        return [x_of[y] for y in ys], ys
    if shape == "reversed":
        xs = ([float(rng.randint(0, n // 2)) for _ in range(n)] if rng.random() < 0.5
              else [rng.random() for _ in range(n)])
        return xs, [-x for x in xs]
    block_x, block_y = rng.randint(1, 50), rng.randint(1, 50)
    return [float(i // block_x) for i in range(n)], [float((n - i) // block_y) for i in range(n)]


def test_kendall_tau_equals_oracle_at_large_n():
    """The O(n log n) tau-b gives the pairwise definition's float exactly."""
    rng = random.Random(304)
    sizes = [500] * 10 + [int(500 ** rng.random()) + 2 for _ in range(190)]
    for n in sizes:
        xs, ys = _tau_series(rng, n)
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            with pytest.raises(ValueError):
                kendall_tau(xs, ys)
            continue
        assert kendall_tau(xs, ys) == _oracle_tau_b(xs, ys), n


# ---------------------------------------------------------------------------
# 4. Direction of metric-vs-human correlations (recall beats precision)
# ---------------------------------------------------------------------------

# (prediction, gold, human 0/1 label); longer-but-correct answers get label 1,
# short-but-underspecified answers get label 0.
HUMAN_JUDGED = [
    ("Stange", "Stange", 1),
    ("Stange, Norway", "Stange", 1),
    ("the city of Stange in Norway", "Stange", 1),
    ("Prince Robert, Duke of Chartres", "Prince Robert", 1),
    ("New York City", "New York City", 1),
    ("New York City in the USA", "New York City", 1),
    ("Paris, France", "Paris", 1),
    ("the famous Lake Windermere", "Lake Windermere", 1),
    ("1912", "1912", 1),
    ("March 15, 1912", "1912", 1),
    ("Knut Hedemann the diplomat", "Knut Hedemann", 1),
    ("a municipality called Stange", "Stange", 1),
    ("Oslo", "Stange", 0),
    ("Norway", "Stange, Norway", 0),
    ("Robert", "Prince Robert, Duke of Chartres", 0),
    ("York", "New York City", 0),
    ("London", "Paris", 0),
    ("Lake", "Lake Windermere", 0),
    ("1913", "1912", 0),
    ("the", "Stange", 0),
]


def test_criterion_4_recall_tracks_human_judgment_best():
    assert len(HUMAN_JUDGED) == 20
    labels = [float(label) for _, _, label in HUMAN_JUDGED]
    scores = [answer_score(p, g) for p, g, _ in HUMAN_JUDGED]
    by_column = {
        column: [getattr(s, column) for s in scores]
        for column in ("precision", "recall")
    }
    rho = {c: spearman(v, labels) for c, v in by_column.items()}
    tau = {c: kendall_tau(v, labels) for c, v in by_column.items()}
    assert rho["recall"] > rho["precision"]
    assert tau["recall"] > tau["precision"]
    report("criterion-4",
           f"(recall rho {rho['recall']:.3f} > precision rho {rho['precision']:.3f}; "
           f"recall tau {tau['recall']:.3f} > precision tau {tau['precision']:.3f})")


# ---------------------------------------------------------------------------
# 5. Parser properties
# ---------------------------------------------------------------------------

_TEXT_ALPHABET = string.ascii_letters + string.digits + " -'()&"


def _random_text(rng):
    while True:
        text = "".join(rng.choice(_TEXT_ALPHABET) for _ in range(rng.randint(1, 14))).strip()
        if text:
            return text


def _random_graph(rng):
    variant = rng.choice(list(GraphVariant))
    title = _random_text(rng)
    if variant is GraphVariant.G_FULL:
        texts = []
        while len(texts) < rng.randint(2, 6):
            t = _random_text(rng)
            if t not in texts:
                texts.append(t)
        return build_full_graph([Entity(t) for t in texts], source_title=title)
    triples = [
        Triple(Entity(_random_text(rng)), _random_text(rng), Entity(_random_text(rng)))
        for _ in range(rng.randint(1, 5))
    ]
    if variant is GraphVariant.SG_ONE:
        return joint_graph(title, triples)
    return multi_step_graph(title, [Entity(_random_text(rng))], triples)


def _rebuilt(graph):
    """The graph that extraction builds from `graph`'s own entity lines (the
    entity step's completion) and triple lines (the relation or joint step's
    completion), asserting that no line is rejected."""
    entities, report = parse_entities("".join(f"{e.text}\n" for e in graph.entities))
    assert report.rejected_lines == ()
    if graph.variant is GraphVariant.G_FULL:
        return build_full_graph(entities, source_title=graph.source_title)
    known = entities if graph.variant is GraphVariant.SG_MULTI else None
    triples, report = parse_triples(serialize_graph(graph), known_entities=known)
    assert report.rejected_lines == ()
    if known is None:
        return joint_graph(graph.source_title, triples)
    return multi_step_graph(graph.source_title, entities, triples)


def test_criterion_5_parser_properties():
    rng = random.Random(505)
    for _ in range(1000):
        graph = _random_graph(rng)
        assert _rebuilt(graph) == graph
        # a graphs.jsonl row's graph object
        assert graph_from_dict(json.loads(json.dumps(graph_to_dict(graph)))) == graph

    # the comma-bearing entity resolves when the entity anchor is provided
    known = [Entity("Prince Robert, Duke of Chartres"), Entity("Princess Anne")]
    triples, _ = parse_triples(
        "(Prince Robert, Duke of Chartres, grandfather of, Princess Anne)",
        known_entities=known,
    )
    assert triples[0].subject.text == "Prince Robert, Duke of Chartres"
    assert triples[0].relation == "grandfather of"
    assert triples[0].object.text == "Princess Anne"

    for k in range(51):
        graph = build_full_graph([Entity(f"entity {i}") for i in range(k)])
        assert len(graph.pairs) == k * (k - 1) // 2
    report("criterion-5", "(1000 graphs through their entity and triple lines and "
                          "graphs.jsonl objects, comma anchor case, g-full sizes 0..50)")


# ---------------------------------------------------------------------------
# 6. Prompt golden files
# ---------------------------------------------------------------------------

def test_criterion_6_prompt_goldens():
    def demos(kind, count):
        return prompts.select_demos(
            prompts.load_demonstrations(prompts.default_demo_file(kind)), kind, count
        )

    target = corpus.Paragraph(
        title="Bowness-on-Windermere",
        sentences=("Bowness-on-Windermere is a town beside Windermere lake.",
                   " It merged with the neighbouring town of Windermere."),
    )
    second = corpus.Paragraph(
        title="Windermere (lake)",
        sentences=("Windermere is the largest natural lake in England.",
                   " It is in the Lake District National Park."),
    )
    entities = [Entity("Bowness-on-Windermere"), Entity("Windermere lake"),
                Entity("Windermere")]
    graph_a = multi_step_graph(
        target.title, entities,
        [Triple(entities[0], "is beside", entities[1]),
         Triple(entities[0], "merged with", entities[2])],
    )
    graph_b = multi_step_graph(
        second.title, [Entity("Windermere"), Entity("England")],
        [Triple(Entity("Windermere"), "is the largest natural lake in",
                Entity("England"))],
    )
    question = "Which lake is the town of Bowness situated on?"

    rendered = {
        "entity_prompt.golden": prompts.entity_prompt(target, demos("entity", 4)).text,
        "relation_prompt.golden": prompts.relation_prompt(
            target, entities, demos("relation", 4)).text,
        "joint_prompt.golden": prompts.joint_graph_prompt(target, demos("joint", 4)).text,
        "qa_cot_prompt.golden": prompts.qa_prompt(
            [target, second], [graph_a, graph_b], question,
            Setting.COT, PromptVariant.SG_MULTI, demos("qa_cot", 2)).text,
        "qa_fewshot_prompt.golden": prompts.qa_prompt(
            [target, second], [graph_a, graph_b], question,
            Setting.FEWSHOT, PromptVariant.SG_MULTI, demos("qa_fewshot", 2)).text,
    }
    for name, text in rendered.items():
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), name
    report("criterion-6", f"({len(rendered)} prompt families byte-equal)")


# ---------------------------------------------------------------------------
# 7. End-to-end replay regression
# ---------------------------------------------------------------------------

def test_criterion_7_end_to_end_replay_regression(tmp_path):
    start = time.monotonic()
    prediction_files = []
    for variant in (PromptVariant.BASE, PromptVariant.G_FULL,
                    PromptVariant.SG_MULTI, PromptVariant.SG_ONE):
        graphs_path = None
        if variant is not PromptVariant.BASE:
            extract_config = pipeline.RunConfig(
                dataset_path=str(E2E / "dataset.json"),
                variant=variant,
                replay_file=str(E2E / "replay.jsonl"),
                cache_dir=str(tmp_path / "cache"),
                model_id="fixture-model",
                output_dir=str(tmp_path / f"extract-{variant.value}"),
            )
            graphs_path = pipeline.run_extract(extract_config)
        for setting in (Setting.COT, Setting.FEWSHOT):
            config = pipeline.RunConfig(
                dataset_path=str(E2E / "dataset.json"),
                variant=variant,
                setting=setting,
                replay_file=str(E2E / "replay.jsonl"),
                cache_dir=str(tmp_path / "cache"),
                model_id="fixture-model",
                output_dir=str(tmp_path / f"{variant.value}-{setting.value}"),
            )
            prediction_files.append(pipeline.run_answer(config, graphs_path))
            manifest = pipeline.RunManifest(
                Path(config.output_dir) / "manifest.json")
            assert manifest.failed() == []

    records = corpus.load_dataset(E2E / "dataset.json", "hotpotqa")
    pipeline.run_evaluate(
        pipeline.read_predictions(prediction_files),
        records,
        tmp_path / "eval",
        human_labels=pipeline.read_labels(E2E / "labels.jsonl"),
        reference_chains=pipeline.read_reference_chains(E2E / "references.jsonl"),
    )
    produced = (tmp_path / "eval" / "metrics.json").read_bytes()
    expected = (E2E / "expected_metrics.json").read_bytes()
    assert produced == expected
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("criterion-7", f"(8 cells, metrics byte-identical, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 8. Grounding rates
# ---------------------------------------------------------------------------

def test_criterion_8_grounding_rates():
    paragraph = corpus.Paragraph(
        title="Alder & Sons",
        sentences=("Alder & Sons is a publishing house founded by Thomas Alder.",
                   " Its headquarters are in Manchester."),
    )
    verbatim = multi_step_graph(
        paragraph.title,
        [Entity("Alder & Sons")],
        [Triple(Entity("Alder & Sons"), "founded by", Entity("Thomas Alder"))],
    )
    baseline = grounding_report(verbatim, paragraph)
    assert baseline.grounding_rate == 1.0
    n = len(baseline.per_element)

    extended = multi_step_graph(
        paragraph.title,
        list(verbatim.entities) + [Entity("television studio")],
        list(verbatim.triples),
    )
    lowered = grounding_report(extended, paragraph)
    assert len(lowered.per_element) == n + 1
    assert lowered.grounding_rate == n / (n + 1)
    assert baseline.grounding_rate - lowered.grounding_rate == pytest.approx(
        1 / (n + 1), abs=1e-12
    )
    report("criterion-8", f"(rate 1.0 -> {n}/{n + 1} after one hallucination)")


# ---------------------------------------------------------------------------
# 9. Optional live directional check (non-gating, excluded from CI)
# ---------------------------------------------------------------------------

LIVE_VARS = ("SGQA_LIVE_CHECK", "SGQA_ENDPOINT", "SGQA_2WIKI_PATH")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in LIVE_VARS),
    reason="live check needs SGQA_LIVE_CHECK=1, SGQA_ENDPOINT, SGQA_2WIKI_PATH "
           "(and SGQA_API_KEY for authenticated endpoints); non-gating",
)
def test_criterion_9_live_sg_multi_recall_direction(tmp_path):
    dataset_path = os.environ["SGQA_2WIKI_PATH"]
    records = corpus.load_dataset(dataset_path, "2wiki")
    sampled = list(corpus.sample_splits(records, seed=9, dev_n=20, test_n=0).dev)
    sampled_ids = {r.id for r in sampled}
    raw = json.loads(Path(dataset_path).read_text(encoding="utf-8"))
    sample_file = tmp_path / "sample.json"
    sample_file.write_text(
        json.dumps([row for row in raw if row["_id"] in sampled_ids]), encoding="utf-8"
    )

    def live_config(variant, out):
        return pipeline.RunConfig(
            dataset_path=str(sample_file),
            dataset_format="2wiki",
            variant=variant,
            setting=Setting.COT,
            backend="live",
            endpoint=os.environ["SGQA_ENDPOINT"],
            model_id=os.environ.get("SGQA_MODEL", "gpt-3.5-turbo-instruct"),
            cache_dir=str(tmp_path / "cache"),
            output_dir=str(tmp_path / out),
            allow_partial=True,
        )

    base_rows = pipeline.read_predictions(
        [pipeline.run_answer(live_config(PromptVariant.BASE, "base"))]
    )
    sg_config = live_config(PromptVariant.SG_MULTI, "sg")
    graphs = pipeline.run_extract(sg_config)
    sg_rows = pipeline.read_predictions([pipeline.run_answer(sg_config, graphs)])

    gold = {r.id: r.gold_answer for r in sampled}

    def mean_recall(rows):
        values = [answer_score(r["answer"], gold[r["question_id"]]).recall for r in rows]
        return sum(values) / len(values)

    base_recall = mean_recall(base_rows)
    sg_recall = mean_recall(sg_rows)
    assert sg_recall >= base_recall
    report("criterion-9", f"(live sg-multi recall {sg_recall:.3f} >= base {base_recall:.3f})")
