#!/usr/bin/env python3
"""Regenerate checked-in test data: golden prompt files, the grounding HTML
golden, and the end-to-end replay fixture with its expected metrics file.

Run from the repository root after any deliberate template change, then
review the diffs by eye before committing:

    python scripts/regen_test_data.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sgqa import corpus, grounding, pipeline, prompts  # noqa: E402
from sgqa import graph as graph_mod  # noqa: E402
from sgqa.jsonl import write_jsonl  # noqa: E402
from sgqa.llm import CompletionCache, request_key, write_replay_fixture  # noqa: E402
from sgqa.prompts import PromptVariant, Setting  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "golden"
E2E_DIR = ROOT / "tests" / "data" / "e2e"

MODEL_ID = "fixture-model"

VARIANTS = [PromptVariant.BASE, PromptVariant.G_FULL, PromptVariant.SG_MULTI,
            PromptVariant.SG_ONE]
SETTINGS = [Setting.COT, Setting.FEWSHOT]


# --------------------------------------------------------------------------
# Golden prompt files (five families)
# --------------------------------------------------------------------------

def write_goldens():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    target = corpus.Paragraph(
        title="Bowness-on-Windermere",
        sentences=(
            "Bowness-on-Windermere is a town beside Windermere lake.",
            " It merged with the neighbouring town of Windermere.",
        ),
    )
    second = corpus.Paragraph(
        title="Windermere (lake)",
        sentences=(
            "Windermere is the largest natural lake in England.",
            " It is in the Lake District National Park.",
        ),
    )
    entities = [graph_mod.Entity("Bowness-on-Windermere"),
                graph_mod.Entity("Windermere lake"),
                graph_mod.Entity("Windermere")]

    bundle = prompts.entity_prompt(target, prompts.demo_set("entity"))
    (GOLDEN_DIR / "entity_prompt.golden").write_text(bundle.text, encoding="utf-8")

    bundle = prompts.relation_prompt(target, entities, prompts.demo_set("relation"))
    (GOLDEN_DIR / "relation_prompt.golden").write_text(bundle.text, encoding="utf-8")

    bundle = prompts.joint_graph_prompt(target, prompts.demo_set("joint"))
    (GOLDEN_DIR / "joint_prompt.golden").write_text(bundle.text, encoding="utf-8")

    graph_a = graph_mod.multi_step_graph(
        target.title,
        entities,
        [graph_mod.Triple(entities[0], "is beside", entities[1]),
         graph_mod.Triple(entities[0], "merged with", entities[2])],
    )
    graph_b = graph_mod.multi_step_graph(
        second.title,
        [graph_mod.Entity("Windermere"), graph_mod.Entity("England")],
        [graph_mod.Triple(graph_mod.Entity("Windermere"),
                          "is the largest natural lake in",
                          graph_mod.Entity("England"))],
    )
    question = "Which lake is the town of Bowness situated on?"
    bundle = prompts.qa_prompt([target, second], [graph_a, graph_b], question,
                               Setting.COT, PromptVariant.SG_MULTI, prompts.demo_set("qa_cot"))
    (GOLDEN_DIR / "qa_cot_prompt.golden").write_text(bundle.text, encoding="utf-8")

    bundle = prompts.qa_prompt([target, second], [graph_a, graph_b], question,
                               Setting.FEWSHOT, PromptVariant.SG_MULTI,
                               prompts.demo_set("qa_fewshot"))
    (GOLDEN_DIR / "qa_fewshot_prompt.golden").write_text(bundle.text, encoding="utf-8")
    print(f"golden prompts written to {GOLDEN_DIR}")


# --------------------------------------------------------------------------
# Grounding HTML golden
# --------------------------------------------------------------------------

def write_grounding_golden():
    paragraph = corpus.Paragraph(
        title="Alder & Sons",
        sentences=(
            "Alder & Sons is a publishing house founded by Thomas Alder.",
            " Its headquarters are in Manchester.",
        ),
    )
    graph = graph_mod.multi_step_graph(
        paragraph.title,
        [graph_mod.Entity("Alder & Sons"), graph_mod.Entity("Thomas Alder"),
         graph_mod.Entity("Manchester")],
        [graph_mod.Triple(graph_mod.Entity("Alder & Sons"), "founded by",
                          graph_mod.Entity("Thomas Alder"))],
    )
    report = grounding.grounding_report(graph, paragraph)
    page = grounding.render_highlights(paragraph, report)
    (GOLDEN_DIR / "highlight.html").write_text(page, encoding="utf-8")
    print(f"grounding golden written to {GOLDEN_DIR / 'highlight.html'}")


# --------------------------------------------------------------------------
# End-to-end fixture: 10 questions, completions for 4 variants x 2 settings
# --------------------------------------------------------------------------

def q(qid, question, answer, supporting, context, entities, triples,
      ref_chain, base_chain, graph_chain, overrides=None, joint_triples=None):
    # Joint extraction is modelled as slightly less complete than two-step
    # extraction: by default it misses each paragraph's last triple. This also
    # keeps SG-One prompts distinct from SG-Multi ones.
    if joint_triples is None:
        joint_triples = {
            title: (lines[:-1] if len(lines) > 1 else list(lines))
            for title, lines in triples.items()
        }
    return {
        "id": qid, "question": question, "answer": answer,
        "supporting": supporting, "context": context,
        "entities": entities, "triples": triples, "joint_triples": joint_triples,
        "ref_chain": ref_chain, "base_chain": base_chain, "graph_chain": graph_chain,
        "overrides": overrides or {},
    }


QUESTIONS = [
    q(
        "e2e-01",
        "Where was the father of Knut Hedemann born?",
        "Stange",
        ["Knut Hedemann", "Stange"],
        [
            ("Knut Hedemann", ["Knut Hedemann was a Norwegian diplomat.",
                               " His father Hans Hedemann was born in Stange, Norway."]),
            ("Stange", ["Stange is a municipality in Innlandet county, Norway."]),
            ("Oslo", ["Oslo is the capital of Norway."]),
        ],
        {
            "Knut Hedemann": ["Knut Hedemann", "Hans Hedemann", "Stange"],
            "Stange": ["Stange", "Innlandet county", "Norway"],
        },
        {
            "Knut Hedemann": ["(Hans Hedemann, father of, Knut Hedemann)",
                              "(Hans Hedemann, was born in, Stange)"],
            "Stange": ["(Stange, is a municipality in, Innlandet county)",
                       "(Innlandet county, is in, Norway)"],
        },
        "Hans Hedemann was the father of Knut Hedemann. Hans Hedemann was born in Stange.",
        "Knut Hedemann's father was Hans Hedemann who was born in the town of Stange.",
        "Hans Hedemann was the father of Knut Hedemann. Hans Hedemann was born in Stange.",
    ),
    q(
        "e2e-02",
        "Who is the paternal grandfather of Princess Anne of Orleans?",
        "Prince Robert, Duke of Chartres",
        ["Princess Anne of Orleans", "Prince Robert, Duke of Chartres"],
        [
            ("Princess Anne of Orleans",
             ["Princess Anne of Orleans was the daughter of Prince Jean, Duke of Guise.",
              " Prince Jean was the youngest child of Prince Robert, Duke of Chartres."]),
            ("Versailles", ["The Palace of Versailles was the royal residence of France."]),
            ("Prince Robert, Duke of Chartres",
             ["Prince Robert, Duke of Chartres was a member of the House of Orleans.",
              " He was born in Paris."]),
        ],
        {
            "Princess Anne of Orleans": ["Princess Anne of Orleans",
                                         "Prince Jean, Duke of Guise",
                                         "Prince Robert, Duke of Chartres"],
            "Prince Robert, Duke of Chartres": ["Prince Robert, Duke of Chartres",
                                                "House of Orleans", "Paris"],
        },
        {
            "Princess Anne of Orleans": [
                "(Princess Anne of Orleans, daughter of, Prince Jean, Duke of Guise)",
                "(Prince Jean, Duke of Guise, youngest child of, Prince Robert, Duke of Chartres)",
            ],
            "Prince Robert, Duke of Chartres": [
                "(Prince Robert, Duke of Chartres, member of, House of Orleans)",
                "(Prince Robert, Duke of Chartres, was born in, Paris)",
            ],
        },
        "Princess Anne of Orleans was the daughter of Prince Jean. "
        "Prince Jean was the youngest child of Prince Robert, Duke of Chartres.",
        "The father of Princess Anne of Orleans was Prince Jean and his father was Prince Robert.",
        "Princess Anne of Orleans was the daughter of Prince Jean. "
        "Prince Jean was the youngest child of Prince Robert, Duke of Chartres.",
        overrides={
            ("base", "cot"): " The father of Princess Anne of Orleans was Prince Jean and "
                             "his father was Prince Robert. So the answer is: Prince Robert.",
        },
    ),
    q(
        "e2e-03",
        "In which country is the town of Windermere located?",
        "England",
        ["Windermere", "Cumbria"],
        [
            ("Windermere", ["Windermere is a town in the English county of Cumbria.",
                            " Tourism is popular in Windermere mainly for its proximity to the lake."]),
            ("Cumbria", ["Cumbria is a ceremonial county in North West England."]),
            ("Kendal", ["Kendal is a market town in Cumbria."]),
        ],
        {
            "Windermere": ["Windermere", "Cumbria", "Tourism", "its proximity to the lake"],
            "Cumbria": ["Cumbria", "North West England"],
        },
        {
            "Windermere": ["(Windermere, is a town in, Cumbria)",
                           "(Tourism, is popular in, Windermere)",
                           "(Windermere, is popular for, its proximity to the lake)"],
            "Cumbria": ["(Cumbria, is a ceremonial county in, North West England)"],
        },
        "Windermere is a town in Cumbria. Cumbria is a county in England.",
        "Windermere is a town in Cumbria. Cumbria is a county in England.",
        "Windermere is a town in Cumbria. Cumbria is a county in England.",
        overrides={
            ("base", "cot"): " Windermere is a town in Cumbria. Cumbria is a county in "
                             "England. So the answer is: England, United Kingdom.",
        },
    ),
    q(
        "e2e-04",
        "Which lake is the town of Bowness situated on?",
        "Windermere",
        ["Bowness-on-Windermere", "Windermere (lake)"],
        [
            ("Bowness-on-Windermere",
             ["Bowness-on-Windermere is a town beside Windermere lake.",
              " It merged with the neighbouring town of Windermere."]),
            ("Windermere (lake)",
             ["Windermere is the largest natural lake in England.",
              " It is in the Lake District National Park."]),
            ("Kendal (town)", ["Kendal is a market town east of the lake."]),
        ],
        {
            "Bowness-on-Windermere": ["Bowness-on-Windermere", "Windermere lake", "Windermere"],
            "Windermere (lake)": ["Windermere", "England", "Lake District National Park"],
        },
        {
            "Bowness-on-Windermere": ["(Bowness-on-Windermere, is beside, Windermere lake)",
                                      "(Bowness-on-Windermere, merged with, Windermere)"],
            "Windermere (lake)": ["(Windermere, is the largest natural lake in, England)",
                                  "(Windermere, is in, Lake District National Park)"],
        },
        "Bowness-on-Windermere is beside Windermere lake.",
        "Bowness-on-Windermere sits beside the lake called Windermere.",
        "Bowness-on-Windermere is beside Windermere lake.",
    ),
    q(
        "e2e-05",
        "Who composed the opera Silverlake Nocturne?",
        "Edvard Lund",
        ["Silverlake Nocturne", "Edvard Lund"],
        [
            ("Silverlake Nocturne",
             ["Silverlake Nocturne is an opera by the Norwegian composer Edvard Lund.",
              " It premiered in Oslo in 1903."]),
            ("Edvard Lund", ["Edvard Lund was a composer from Bergen.",
                             " He studied at the Leipzig Conservatory."]),
            ("Bergen", ["Bergen is a city in Vestland county, Norway."]),
        ],
        {
            "Silverlake Nocturne": ["Silverlake Nocturne", "Edvard Lund", "Oslo", "1903"],
            "Edvard Lund": ["Edvard Lund", "Bergen", "Leipzig Conservatory"],
        },
        {
            "Silverlake Nocturne": ["(Silverlake Nocturne, is an opera by, Edvard Lund)",
                                    "(Silverlake Nocturne, premiered in, Oslo)",
                                    "(Silverlake Nocturne, premiered in, 1903)"],
            "Edvard Lund": ["(Edvard Lund, was a composer from, Bergen)",
                            "(Edvard Lund, studied at, Leipzig Conservatory)"],
        },
        "Silverlake Nocturne is an opera by Edvard Lund.",
        "Silverlake Nocturne was composed by Edvard Lund.",
        "Silverlake Nocturne is an opera by Edvard Lund.",
        overrides={
            ("sg-one", "cot"): " The graph does not provide information about the question.",
        },
        # Joint extraction misses the composer triple here, which is why the
        # sg-one chain above reports that the graph lacks the answer.
        joint_triples={
            "Silverlake Nocturne": ["(Silverlake Nocturne, premiered in, Oslo)",
                                    "(Silverlake Nocturne, premiered in, 1903)"],
            "Edvard Lund": ["(Edvard Lund, was a composer from, Bergen)"],
        },
    ),
    q(
        "e2e-06",
        "In which year did the Harwick City Library open?",
        "1887",
        ["Harwick", "Harwick City Library"],
        [
            ("York", ["York is a cathedral city in North Yorkshire."]),
            ("Harwick", ["Harwick is a market town in the north of England.",
                         " The Harwick City Library opened in 1887."]),
            ("Harwick City Library", ["The Harwick City Library is a public library.",
                                      " It holds the regional archive collection."]),
        ],
        {
            "Harwick": ["Harwick", "England", "Harwick City Library", "1887"],
            "Harwick City Library": ["Harwick City Library", "public library",
                                     "regional archive collection"],
        },
        {
            "Harwick": ["(Harwick, is a market town in, England)",
                        "(Harwick City Library, opened in, 1887)"],
            "Harwick City Library": ["(Harwick City Library, is, public library)",
                                     "(Harwick City Library, holds, regional archive collection)"],
        },
        "The Harwick City Library opened in 1887.",
        "The library in Harwick opened its doors in 1887.",
        "The Harwick City Library opened in 1887.",
    ),
    q(
        "e2e-07",
        "What instrument did Marta Keller play?",
        "cello",
        ["Marta Keller", "Vienna Radio Orchestra"],
        [
            ("Marta Keller", ["Marta Keller was an Austrian musician.",
                              " She was principal cellist of the Vienna Radio Orchestra."]),
            ("Vienna Radio Orchestra",
             ["The Vienna Radio Orchestra is a broadcast ensemble founded in 1925."]),
            ("Vienna", ["Vienna is the capital of Austria."]),
        ],
        {
            "Marta Keller": ["Marta Keller", "Austrian musician", "principal cellist",
                             "Vienna Radio Orchestra"],
            "Vienna Radio Orchestra": ["Vienna Radio Orchestra", "broadcast ensemble", "1925"],
        },
        {
            "Marta Keller": ["(Marta Keller, was, Austrian musician)",
                             "(Marta Keller, was principal cellist of, Vienna Radio Orchestra)"],
            "Vienna Radio Orchestra": ["(Vienna Radio Orchestra, is, broadcast ensemble)",
                                       "(Vienna Radio Orchestra, founded in, 1925)"],
        },
        "Marta Keller was principal cellist of the Vienna Radio Orchestra. She played the cello.",
        "Marta Keller was a musician in Vienna.",
        "Marta Keller was principal cellist of the Vienna Radio Orchestra. She played the cello.",
        overrides={
            ("base", "cot"): " Marta Keller was a musician in Vienna. So the answer is: violin.",
            ("base", "fewshot"): " violin",
        },
    ),
    q(
        "e2e-08",
        "Where was the founder of Alder & Sons born?",
        "Salford",
        ["Alder & Sons", "Thomas Alder"],
        [
            ("Alder & Sons", ["Alder & Sons is a publishing house founded by Thomas Alder.",
                              " Its headquarters are in Manchester."]),
            ("Thomas Alder", ["Thomas Alder was an English publisher.",
                              " He was born in Salford."]),
            ("Manchester", ["Manchester is a major city in England."]),
        ],
        {
            "Alder & Sons": ["Alder & Sons", "Thomas Alder", "Manchester"],
            "Thomas Alder": ["Thomas Alder", "English publisher", "Salford"],
        },
        {
            "Alder & Sons": ["(Alder & Sons, founded by, Thomas Alder)",
                             "(Alder & Sons, headquartered in, Manchester)"],
            "Thomas Alder": ["(Thomas Alder, was, English publisher)",
                             "(Thomas Alder, was born in, Salford)"],
        },
        "Alder & Sons was founded by Thomas Alder. Thomas Alder was born in Salford.",
        "Alder & Sons was founded by Thomas Alder. Thomas Alder was born in Salford.",
        "Alder & Sons was founded by Thomas Alder. Thomas Alder was born in Salford.",
    ),
    q(
        "e2e-09",
        "Which mountain overlooks the village of Glaswyn?",
        "Mount Arwel",
        ["Glaswyn", "Mount Arwel"],
        [
            ("Glaswyn", ["Glaswyn is a village in north Wales.",
                         " The village sits at the foot of Mount Arwel."]),
            ("Snowdonia", ["Snowdonia is a mountainous region in Wales."]),
            ("Mount Arwel", ["Mount Arwel is a peak in Snowdonia.",
                             " Its summit ridge is a popular walking route."]),
        ],
        {
            "Glaswyn": ["Glaswyn", "north Wales", "Mount Arwel"],
            "Mount Arwel": ["Mount Arwel", "Snowdonia", "summit ridge"],
        },
        {
            "Glaswyn": ["(Glaswyn, is a village in, north Wales)",
                        "(Glaswyn, sits at the foot of, Mount Arwel)"],
            "Mount Arwel": ["(Mount Arwel, is a peak in, Snowdonia)",
                            "(summit ridge, is, a popular walking route)"],
        },
        "Glaswyn sits at the foot of Mount Arwel.",
        "The village of Glaswyn lies below the mountain of Arwel.",
        "Glaswyn sits at the foot of Mount Arwel.",
        overrides={
            ("base", "fewshot"): " the mountain Arwel",
        },
    ),
    q(
        "e2e-10",
        "Who directed the film Paper Harbour?",
        "Ingrid Holm",
        ["Paper Harbour", "Ingrid Holm"],
        [
            ("Paper Harbour", ["Paper Harbour is a 1962 drama film directed by Ingrid Holm.",
                               " It was shot on the Baltic coast."]),
            ("Ingrid Holm", ["Ingrid Holm was a Swedish film director.",
                             " She began her career as a stage actress."]),
            ("Stockholm", ["Stockholm is the capital of Sweden."]),
        ],
        {
            "Paper Harbour": ["Paper Harbour", "1962 drama film", "Ingrid Holm", "Baltic coast"],
            "Ingrid Holm": ["Ingrid Holm", "Swedish film director", "stage actress"],
        },
        {
            "Paper Harbour": ["(Paper Harbour, is, 1962 drama film)",
                              "(Paper Harbour, directed by, Ingrid Holm)",
                              "(Paper Harbour, was shot on, Baltic coast)"],
            "Ingrid Holm": ["(Ingrid Holm, was, Swedish film director)",
                            "(Ingrid Holm, began her career as, stage actress)"],
        },
        "Paper Harbour was directed by Ingrid Holm.",
        "Paper Harbour was directed by Ingrid Holm.",
        "Paper Harbour was directed by Ingrid Holm.",
    ),
]

# Human 0/1 judgments of the base/cot answers, reused across variants in the
# pooled regression correlate step.
LABELS = {
    "e2e-01": 1, "e2e-02": 1, "e2e-03": 1, "e2e-04": 1, "e2e-05": 1,
    "e2e-06": 1, "e2e-07": 0, "e2e-08": 1, "e2e-09": 1, "e2e-10": 1,
}


def qa_completion(question_spec, variant: PromptVariant, setting: Setting) -> str:
    override = question_spec["overrides"].get((variant.value, setting.value))
    if override is not None:
        return override
    if setting is Setting.FEWSHOT:
        return f" {question_spec['answer']}"
    chain = (question_spec["base_chain"] if variant is PromptVariant.BASE
             else question_spec["graph_chain"])
    return f" {chain} So the answer is: {question_spec['answer']}."


def build_dataset() -> list[dict]:
    return [
        {
            "_id": spec["id"],
            "question": spec["question"],
            "answer": spec["answer"],
            "supporting_facts": [[title, 0] for title in spec["supporting"]],
            "context": [[title, sentences] for title, sentences in spec["context"]],
        }
        for spec in QUESTIONS
    ]


class SpecBackend:
    """Completes each request with `texts[cue]`, the spec's text for the
    prompt's last line, and keeps each (request, text) it is asked for."""

    backend_id = "spec"

    def __init__(self):
        self.texts: dict[str, str] = {}
        self.entries: dict[str, tuple] = {}  # request key -> (request, text)

    def complete(self, request):
        text = self.texts[request.prompt.rpartition("\n")[2]]
        self.entries.setdefault(request_key(request), (request, text))
        return text


def lines(items) -> str:
    return "\n" + "\n".join(items) + "\n"


def build_replay_entries(records):
    """Author a completion for every request the 8-cell pipeline will make, by
    running its extraction and answering steps against the question specs."""
    spec_by_id = {spec["id"]: spec for spec in QUESTIONS}
    backend = SpecBackend()
    graphs: dict[tuple, list] = {}  # (variant, question id) -> graph per gold paragraph
    with tempfile.TemporaryDirectory() as cache_dir, CompletionCache(cache_dir) as cache:
        for variant in pipeline.EXTRACTION_DEMO_KINDS:  # the variants that extract
            variant_demos = {kind: prompts.demo_set(kind)
                             for kind in pipeline.EXTRACTION_DEMO_KINDS[variant]}
            triples = "joint_triples" if variant is PromptVariant.SG_ONE else "triples"
            for record in records:
                spec = spec_by_id[record.id]
                for paragraph in corpus.gold_paragraphs(record):
                    backend.texts = {"Entities:": lines(spec["entities"][paragraph.title]),
                                     "Graph:": lines(spec[triples][paragraph.title])}
                    graphs.setdefault((variant, record.id), []).append(
                        pipeline.extract_paragraph_graph(paragraph, variant, variant_demos,
                                                         backend, cache, MODEL_ID))
        for variant in VARIANTS:
            for setting in SETTINGS:
                qa_demos = prompts.demo_set(f"qa_{setting.value}")
                for record in records:
                    backend.texts = {"A:": qa_completion(spec_by_id[record.id], variant, setting)}
                    pipeline.answer_question(record, graphs.get((variant, record.id), []),
                                             variant, setting, qa_demos, backend, cache,
                                             MODEL_ID)
    return list(backend.entries.values())


def write_e2e_fixture():
    E2E_DIR.mkdir(parents=True, exist_ok=True)
    dataset = build_dataset()
    dataset_path = E2E_DIR / "dataset.json"
    dataset_path.write_text(json.dumps(dataset, ensure_ascii=False, indent=1),
                            encoding="utf-8")
    records = corpus.load_dataset(dataset_path, "hotpotqa")

    entries = build_replay_entries(records)
    write_replay_fixture(E2E_DIR / "replay.jsonl", entries)

    write_jsonl(E2E_DIR / "labels.jsonl",
                ({"question_id": qid, "label": label} for qid, label in LABELS.items()))
    write_jsonl(E2E_DIR / "references.jsonl", (
        {"question_id": spec["id"],
         "chain": f"{spec['ref_chain']} So the answer is: {spec['answer']}."}
        for spec in QUESTIONS))
    print(f"e2e inputs written to {E2E_DIR} ({len(entries)} replay entries)")


def run_pipeline_and_freeze_metrics():
    """Run the whole 8-cell experiment on the fixture and freeze metrics.json."""
    work = Path(tempfile.mkdtemp(prefix="sgqa-e2e-"))
    try:
        prediction_files = []
        for variant in VARIANTS:
            for setting in SETTINGS:
                cell = work / f"{variant.value}-{setting.value}"
                config = pipeline.RunConfig(
                    dataset_path=str(E2E_DIR / "dataset.json"),
                    variant=variant,
                    setting=setting,
                    replay_file=str(E2E_DIR / "replay.jsonl"),
                    cache_dir=str(work / "cache"),
                    model_id=MODEL_ID,
                    output_dir=str(cell),
                )
                if variant is not PromptVariant.BASE:
                    graphs_dir = work / f"graphs-{variant.value}"
                    if not (graphs_dir / "graphs.jsonl").exists():
                        extract_config = pipeline.RunConfig(
                            dataset_path=str(E2E_DIR / "dataset.json"),
                            variant=variant,
                            replay_file=str(E2E_DIR / "replay.jsonl"),
                            cache_dir=str(work / "cache"),
                            model_id=MODEL_ID,
                            output_dir=str(graphs_dir),
                        )
                        pipeline.run_extract(extract_config)
                    prediction_files.append(
                        pipeline.run_answer(config, graphs_dir / "graphs.jsonl")
                    )
                else:
                    prediction_files.append(pipeline.run_answer(config))
        predictions = pipeline.read_predictions(prediction_files)
        records = corpus.load_dataset(E2E_DIR / "dataset.json", "hotpotqa")
        report = pipeline.run_evaluate(
            predictions,
            records,
            work / "eval",
            human_labels=pipeline.read_labels(E2E_DIR / "labels.jsonl"),
            reference_chains=pipeline.read_reference_chains(E2E_DIR / "references.jsonl"),
        )
        shutil.copy(work / "eval" / "metrics.json", E2E_DIR / "expected_metrics.json")
        print(f"expected metrics frozen to {E2E_DIR / 'expected_metrics.json'}")
        for group, agg in sorted(report["answer"]["aggregates"].items()):
            print(f"  {group}: em={agg['em']:.2f} f1={agg['f1']:.3f} "
                  f"p={agg['precision']:.3f} r={agg['recall']:.3f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    write_goldens()
    write_grounding_golden()
    write_e2e_fixture()
    run_pipeline_and_freeze_metrics()
