#!/usr/bin/env python3
"""Seeded, HotpotQA-shaped inputs for the sgqa benchmark, plus the planted truth.

Every output is a pure function of (Params, seed). The program under test only
ever sees the files written here; the benchmark checks its outputs against
`truth.json`.

Text is built from consonant-vowel syllable words of at least two syllables,
so no generated word is an article, contains "answer" or a digit, and no
generated text matches the chain parser's "So the answer is" pattern by
accident. Ungroundable graph elements carry a digit, so they can never occur
in a paragraph under casefold + whitespace-collapse matching.

Standalone use (writes into OUT_DIR):

    python3 benchmark/generate.py --workload instant-500 --seed 1 --out OUT_DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

MODEL_ID = "bench-model"

ENTITIES = 5  # extracted entities per gold paragraph
TRIPLES = 4  # extracted triples per gold paragraph
LABEL_NOISE = 0.1  # human labels that disagree with correctness

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Params:
    questions: int
    paragraphs: int = 10  # context paragraphs per question
    gold: int = 2  # gold (supporting) paragraphs per question
    sentences: int = 5  # per paragraph
    words: int = 20  # per sentence
    gold_pool: int = 0  # distinct gold paragraphs to draw from; 0: every one unique
    chain_tokens: int = 40  # reasoning-chain length before the answer sentence
    wrong_share: float = 0.25  # answers that differ from the gold answer
    ungroundable_share: float = 0.1  # graph entities/relations absent from the text
    predictions: bool = False  # write predictions to score instead of a replay fixture


WORKLOADS = {
    "instant-500": Params(questions=500),
    # 300 is a chosen stress value, not a measured HotpotQA reuse share: the
    # 1,000 gold slots use each pool paragraph about 3.3 times.
    "live-shared": Params(questions=500, gold_pool=300),
    "eval-7405": Params(questions=7405, predictions=True),
}


class _Text:
    """Seeded word source."""

    def __init__(self, rng: random.Random, vocabulary: int = 4000):
        self.rng = rng
        words = set()
        while len(words) < vocabulary:
            syllables = rng.randint(2, 4)
            words.add("".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                              for _ in range(syllables)))
        self.vocab = sorted(words)

    def words(self, k: int) -> list[str]:
        return self.rng.choices(self.vocab, k=k)

    def sentence(self, k: int) -> str:
        words = self.words(k)
        return " ".join([words[0].capitalize(), *words[1:]]) + "."

    def ungroundable(self, k: int) -> str:
        words = self.words(k)
        words[-1] += str(self.rng.randint(0, 9))
        return " ".join(words)


def _paragraph(text: _Text, params: Params, title: str) -> dict:
    sentences = [text.sentence(params.words) for _ in range(params.sentences)]
    return {"title": title, "sentences": [sentences[0]] + [" " + s for s in sentences[1:]]}


def _span(text: _Text, paragraph: dict, max_words: int) -> str:
    """A run of 1..max_words consecutive words of one sentence, as written."""
    words = paragraph["sentences"][text.rng.randrange(len(paragraph["sentences"]))]
    words = words.strip().rstrip(".").split()
    k = text.rng.randint(1, max_words)
    start = text.rng.randrange(len(words) - k + 1)
    return " ".join(words[start : start + k])


def _graph_spec(text: _Text, params: Params, paragraph: dict) -> dict:
    """Planted extraction output for one gold paragraph: entity lines, triple
    lines, and how many graph elements grounding should find."""
    entities: list[str] = []
    groundable: dict[str, bool] = {}
    while len(entities) < ENTITIES:
        if text.rng.random() < params.ungroundable_share:
            entity, ok = text.ungroundable(2), False
        else:
            entity, ok = _span(text, paragraph, 3), True
        if entity not in groundable:
            entities.append(entity)
            groundable[entity] = ok
    triples = []
    grounded = sum(groundable.values())
    for _ in range(TRIPLES):
        subject, obj = text.rng.sample(entities, 2)
        if text.rng.random() < params.ungroundable_share:
            relation, ok = text.ungroundable(2), False
        else:
            relation, ok = _span(text, paragraph, 2), True
        triples.append([subject, relation, obj])
        grounded += groundable[subject] + ok + groundable[obj]
    return {
        "entities": entities,
        "triples": triples,
        "elements": len(entities) + 3 * len(triples),
        "grounded": grounded,
    }


def _chain(text: _Text, tokens: int) -> str:
    sentences, left = [], tokens
    while left > 0:
        k = min(left, text.rng.randint(8, 14))
        sentences.append(text.sentence(k))
        left -= k
    return " ".join(sentences)


def _vary(text: _Text, chain: str, share: float = 0.2) -> str:
    """A reference chain: the given chain with about `share` of its words replaced."""
    words = chain.split()
    for i in range(len(words)):
        if text.rng.random() < share:
            words[i] = text.rng.choice(text.vocab) + ("." if words[i].endswith(".") else "")
    return " ".join(words)


def generate(params: Params, seed: int, out_dir) -> dict:
    """Write dataset.json, labels.jsonl, references.jsonl and either replay.jsonl
    or predictions.jsonl under `out_dir`; return (and write) the planted truth."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = _Text(random.Random(seed))
    rng = text.rng
    serial = iter(range(10**9))

    def title() -> str:
        return f"{' '.join(text.words(2)).title()} {next(serial)}"

    pool = [_paragraph(text, params, title()) for _ in range(params.gold_pool)]
    specs: dict[str, dict] = {}  # graph spec per gold paragraph title

    dataset, questions = [], []
    for i in range(params.questions):
        qid = f"bench-{i:05d}"
        if pool:
            gold = rng.sample(pool, params.gold)
        else:
            gold = [_paragraph(text, params, title()) for _ in range(params.gold)]
        context = gold + [_paragraph(text, params, title())
                          for _ in range(params.paragraphs - params.gold)]
        rng.shuffle(context)
        gold_titles = [p["title"] for p in gold]
        gold_in_order = [p for p in context if p["title"] in gold_titles]
        if not params.predictions:
            for p in gold_in_order:
                if p["title"] not in specs:
                    specs[p["title"]] = _graph_spec(text, params, p)
        answer = _span(text, gold_in_order[-1], 3)
        right = rng.random() >= params.wrong_share
        predicted = answer if right else text.ungroundable(2)
        chain = _chain(text, params.chain_tokens)
        label = int(right) if rng.random() >= LABEL_NOISE else int(not right)
        question = (f"Which {' '.join(text.words(2))} links {gold_titles[0]} "
                    f"and {gold_titles[1]} in case {i}?")
        dataset.append({
            "_id": qid,
            "question": question,
            "answer": answer,
            "supporting_facts": [[t, 0] for t in gold_titles],
            "context": [[p["title"], p["sentences"]] for p in context],
        })
        questions.append({
            "id": qid,
            "gold_titles": [p["title"] for p in gold_in_order],
            "answer": predicted,
            "em": int(right),
            "completion": f" {chain} So the answer is: {predicted}.",
            "reference": f"{_vary(text, chain)} So the answer is: {answer}.",
            "label": label,
        })

    (out / "dataset.json").write_text(json.dumps(dataset, ensure_ascii=False), encoding="utf-8")
    _write_jsonl(out / "labels.jsonl",
                 ({"question_id": q["id"], "label": q["label"]} for q in questions))
    _write_jsonl(out / "references.jsonl",
                 ({"question_id": q["id"], "chain": q["reference"]} for q in questions))
    truth = {
        "params": dataclasses.asdict(params),
        "seed": seed,
        "model_id": MODEL_ID,
        "questions": len(questions),
        "em": {q["id"]: q["em"] for q in questions},
    }
    if params.predictions:
        _write_predictions(out / "predictions.jsonl", questions)
    else:
        truth.update(_write_replay(out / "replay.jsonl", out / "dataset.json", questions, specs))
        truth["answers"] = {q["id"]: q["answer"] for q in questions}
        truth["graphs"] = [
            [q["id"], index, title, specs[title]]
            for q in questions
            for index, title in enumerate(q["gold_titles"])
        ]
    (out / "truth.json").write_text(json.dumps(truth, ensure_ascii=False), encoding="utf-8")
    return truth


def _write_jsonl(path: Path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _write_predictions(path: Path, questions: list[dict]):
    from sgqa import chain as chain_mod, prompts

    rows = []
    for q in questions:
        parsed = chain_mod.parse_chain(q["completion"])
        rows.append({
            "question_id": q["id"],
            "variant": "sg-multi",
            "setting": "cot",
            "prompt_hash": prompts.hash_prompt(q["id"]),  # placeholder; evaluate ignores it
            "completion": q["completion"],
            "chain_sentences": list(parsed.sentences),
            "answer": parsed.extracted_answer,
            "backend_id": "replay",
            "flags": [],
        })
    _write_jsonl(path, rows)


def _write_replay(path: Path, dataset_path: Path, questions: list[dict], specs: dict) -> dict:
    """Author the completion of every request an sg-multi/cot extract + answer
    run makes, through the same public prompt and parser API the pipeline
    uses, and write them with llm.write_replay_fixture."""
    from sgqa import corpus, graph as graph_mod, prompts
    from sgqa.llm import extraction_request, qa_request, request_key, write_replay_fixture

    def demos(kind: str, count: int):
        return prompts.select_demos(
            prompts.load_demonstrations(prompts.default_demo_file(kind)), kind, count)

    entity_demos = demos("entity", prompts.DEFAULT_EXTRACTION_DEMOS)
    relation_demos = demos("relation", prompts.DEFAULT_EXTRACTION_DEMOS)
    qa_demos = demos("qa_cot", prompts.DEFAULT_QA_DEMOS)

    entries: dict[str, tuple] = {}
    extraction_keys = 0

    def add(request, text):
        entries[request_key(request)] = (request, text)

    graphs: dict[str, object] = {}
    by_id = {q["id"]: q for q in questions}
    for record in corpus.load_dataset(dataset_path):
        paragraphs = corpus.gold_paragraphs(record)
        for paragraph in paragraphs:
            if paragraph.title in graphs:
                continue
            spec = specs[paragraph.title]
            entity_text = "\n" + "\n".join(spec["entities"]) + "\n"
            triple_text = "\n" + "\n".join(f"({s}, {r}, {o})" for s, r, o in spec["triples"]) + "\n"
            add(extraction_request(prompts.entity_prompt(paragraph, entity_demos).text, MODEL_ID),
                entity_text)
            entities, _ = graph_mod.parse_entities(entity_text)
            bundle = prompts.relation_prompt(paragraph, entities, relation_demos)
            add(extraction_request(bundle.text, MODEL_ID), triple_text)
            triples, _ = graph_mod.parse_triples(triple_text, known_entities=entities)
            graphs[paragraph.title] = graph_mod.multi_step_graph(paragraph.title, entities, triples)
            extraction_keys += 2
        bundle = prompts.qa_prompt(
            paragraphs, [graphs[p.title] for p in paragraphs], record.question,
            prompts.Setting.COT, prompts.PromptVariant.SG_MULTI, qa_demos)
        add(qa_request(bundle.text, MODEL_ID), by_id[record.id]["completion"])
    write_replay_fixture(path, list(entries.values()))
    return {"distinct_keys": len(entries), "extraction_keys": extraction_keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the sgqa package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    generate(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
