"""Prompt construction for the five prompt families.

Extraction prompts (entity / relation / joint) end at "Entities:" or
"Graph:"; QA prompts end at "A:". All rendering is deterministic: identical
inputs give byte-identical text, hashed into `prompt_hash`.

The paper's recipe is fixed, so its parts are module constants rather than
options: `QUESTION_PREFIX` (the CoT instruction), `BLOCK_SEPARATOR` (between
blocks), `MAX_PROMPT_CHARS` (the warning threshold), and the demonstration
counts `DEFAULT_EXTRACTION_DEMOS` and `DEFAULT_QA_DEMOS`.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from .corpus import Paragraph
from .graph import PromptVariant, SemanticGraph, serialize_graph
from .jsonl import read_rows

logger = logging.getLogger(__name__)

# Instruction placed ahead of the question in the CoT setting; the few-shot
# setting omits it.
QUESTION_PREFIX = "Answer the following question by reasoning step-by-step."

# Blocks (demonstrations, the live document block) are separated by exactly
# one blank line.
BLOCK_SEPARATOR = "\n\n"

# Rendered prompts longer than this trigger a warning; they are returned
# unmodified so the text stays deterministic and ends at its cue.
MAX_PROMPT_CHARS = 200_000

DEMO_KINDS = ("entity", "relation", "joint", "qa_cot", "qa_fewshot")
DEMO_FIELDS = ("kind", "input_text", "output_text", "id")  # a row's, in Demonstration order

DEFAULT_EXTRACTION_DEMOS = 4
DEFAULT_QA_DEMOS = 2


class Setting(str, Enum):
    COT = "cot"
    FEWSHOT = "fewshot"


class ConfigurationError(ValueError):
    """A demonstration of the wrong kind (or count) was supplied."""


class AssemblyError(ValueError):
    """Prompt parts do not fit together (graph/paragraph mismatch)."""


@dataclass(frozen=True)
class Demonstration:
    """One in-context example; input_text is the block body below its section
    marker, output_text the expected completion."""

    kind: str
    input_text: str
    output_text: str
    id: str


@dataclass(frozen=True)
class PromptBundle:
    text: str

    @property
    def prompt_hash(self) -> str:
        return hash_prompt(self.text)


def hash_prompt(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def clean_text(text: str) -> str:
    """Collapse runs of whitespace to single spaces for prompting.

    Grounding works on raw paragraph text; this never feeds offset math.
    """
    return " ".join(text.split())


def _check_demo_kinds(demos: list[Demonstration], kind: str):
    for demo in demos:
        if demo.kind != kind:
            raise ConfigurationError(
                f"expected demonstrations of kind {kind!r}, got {demo.kind!r} (id {demo.id})"
            )


def _finish(blocks: list[str]) -> PromptBundle:
    text = BLOCK_SEPARATOR.join(blocks)
    if len(text) > MAX_PROMPT_CHARS:
        logger.warning("prompt exceeds %d chars (%d); sending unmodified",
                       MAX_PROMPT_CHARS, len(text))
    return PromptBundle(text=text)


def _document_body(paragraph: Paragraph) -> str:
    return f"Wikipedia Title: {paragraph.title}\n{clean_text(paragraph.text)}"


# The line that ends each extraction prompt and opens its completion.
_EXTRACTION_CUES = {"entity": "Entities:", "relation": "Graph:", "joint": "Graph:"}


def _extraction_prompt(kind: str, paragraph: Paragraph, demos: list[Demonstration],
                       entities=()) -> PromptBundle:
    """Demonstration Document blocks, each with its cue and output, then the
    target document, the entities one per line, and the cue."""
    _check_demo_kinds(demos, kind)
    cue = _EXTRACTION_CUES[kind]
    blocks = [f"Document:\n{d.input_text}\n{cue}\n{d.output_text}" for d in demos]
    blocks.append("\n".join([f"Document:\n{_document_body(paragraph)}",
                             *(e.text for e in entities), cue]))
    return _finish(blocks)


def entity_prompt(
    paragraph: Paragraph,
    demos: list[Demonstration],
) -> PromptBundle:
    """Entity-extraction prompt: demonstration Document/Entities blocks, then
    the target document, ending at "Entities:"."""
    return _extraction_prompt("entity", paragraph, demos)


def relation_prompt(
    paragraph: Paragraph,
    entities: list,
    demos: list[Demonstration],
) -> PromptBundle:
    """Relation-extraction prompt: the document, the extracted entities one
    per line, then "Graph:"."""
    if not entities:
        raise ValueError("relation_prompt requires a nonempty entity list")
    return _extraction_prompt("relation", paragraph, demos, entities)


def joint_graph_prompt(
    paragraph: Paragraph,
    demos: list[Demonstration],
) -> PromptBundle:
    """Joint-extraction prompt: "Graph:" directly after the document."""
    if not paragraph.text.strip():
        raise ValueError("joint_graph_prompt requires nonempty paragraph text")
    return _extraction_prompt("joint", paragraph, demos)


def qa_prompt(
    paragraphs: list[Paragraph],
    graphs: list[SemanticGraph],
    question: str,
    setting: Setting,
    variant: PromptVariant,
    demos: list[Demonstration],
) -> PromptBundle:
    """QA prompt: a Documents block (each document followed by its graph for
    graph variants), a blank line, the question line, and the "A:" cue."""
    setting = Setting(setting)
    variant = PromptVariant(variant)
    _check_demo_kinds(demos, "qa_cot" if setting is Setting.COT else "qa_fewshot")
    if variant is PromptVariant.BASE:
        if graphs:
            raise AssemblyError("base variant takes no graphs")
        graphs = [None] * len(paragraphs)  # type: ignore[list-item]
    else:
        if len(graphs) != len(paragraphs):
            raise AssemblyError(
                f"need one graph per paragraph: {len(graphs)} graphs, {len(paragraphs)} paragraphs"
            )
        for paragraph, graph in zip(paragraphs, graphs):
            if graph.source_title != paragraph.title:
                raise AssemblyError(
                    f"graph for {graph.source_title!r} paired with paragraph {paragraph.title!r}"
                )
            if graph.variant is not variant:
                raise AssemblyError(
                    f"variant {variant.value} expects {variant.value} graphs, got {graph.variant.value}"
                )

    sections = []
    for paragraph, graph in zip(paragraphs, graphs):
        section = _document_body(paragraph)
        if graph is not None:
            serialized = serialize_graph(graph).rstrip("\n")
            if serialized:
                section += "\n" + serialized
        sections.append(section)
    documents = "\n".join(sections)

    if setting is Setting.COT:
        question_line = f"Q: {QUESTION_PREFIX} {question}"
    else:
        question_line = f"Q: {question}"

    blocks = [f"Documents:\n{d.input_text}\nA: {d.output_text}" for d in demos]
    blocks.append(f"Documents:\n{documents}\n\n{question_line}\nA:")
    return _finish(blocks)


def load_demonstrations(path) -> list[Demonstration]:
    """Load demonstrations from a JSONL file of {kind, input_text, output_text,
    id} strings. A bad row or an unknown kind is rejected naming its line."""
    demos = []
    for _, line_no, row in read_rows([path], dict.fromkeys(DEMO_FIELDS, str)):
        if row["kind"] not in DEMO_KINDS:
            raise ConfigurationError(
                f"{path}:{line_no}: unknown demonstration kind {row['kind']!r}")
        demos.append(Demonstration(*map(row.get, DEMO_FIELDS)))
    return demos


def select_demos(demos: list[Demonstration], kind: str, count: int) -> list[Demonstration]:
    """First `count` demonstrations of `kind`, erroring when too few exist."""
    matching = [d for d in demos if d.kind == kind]
    if len(matching) < count:
        raise ConfigurationError(
            f"need {count} demonstrations of kind {kind!r}, found {len(matching)}"
        )
    return matching[:count]


def default_demo_file(kind: str):
    """Path to the packaged demonstration fixture for `kind`."""
    return resources.files("sgqa").joinpath(f"fixtures/demos/{kind}.jsonl")


def demo_set(kind: str, demo_dir="") -> list[Demonstration]:
    """The demonstrations a run prompts with for `kind`: the first
    `DEFAULT_QA_DEMOS` (QA kinds) or `DEFAULT_EXTRACTION_DEMOS` of
    <demo_dir>/<kind>.jsonl, or of the packaged file when `demo_dir` is empty."""
    path = Path(demo_dir) / f"{kind}.jsonl" if demo_dir else default_demo_file(kind)
    count = DEFAULT_QA_DEMOS if kind.startswith("qa") else DEFAULT_EXTRACTION_DEMOS
    return select_demos(load_demonstrations(path), kind, count)
