"""Semantic-graph model, the parsers of LLM extraction output, and the
prompt-text and JSON forms of a graph.

Extraction completions are parsed line by line: entity lists by
`parse_entities`, `(subject, relation, object)` lines by `parse_triples`.
A graph's variant is the `PromptVariant` whose extraction built it, never
base. Graph variants, each built from parsed lines:
  * g-full   — distinct entities, no relations; its pairs, every unordered
               pair of entities, are derived from the entity list
  * sg-multi — triples over an entity list, from two-step prompting
  * sg-one   — triples from single-prompt joint extraction
`serialize_graph` renders a graph into QA prompt text, which nothing parses
back; `graph_to_dict` and `graph_from_dict` store it in graphs.jsonl.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .jsonl import row_fault

# Lines opening one of these sections end an extraction completion; models
# sometimes keep generating the next prompt block.
SECTION_MARKERS = (
    "Document:",
    "Documents:",
    "Entities:",
    "Graph:",
    "Wikipedia Title:",
    "Q:",
    "A:",
)


class PromptVariant(str, Enum):
    BASE = "base"
    G_FULL = "g-full"
    SG_MULTI = "sg-multi"
    SG_ONE = "sg-one"


@dataclass(frozen=True, slots=True)
class Entity:
    """A short text span naming an object/event/truth; trimmed, single-line.
    Entities compare and hash by text, so `dict.fromkeys` dedupes them and
    keeps each first occurrence in order."""

    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("entity text must be nonempty")
        if self.text != self.text.strip():
            raise ValueError(f"entity text must be trimmed: {self.text!r}")
        if "\n" in self.text:
            raise ValueError(f"entity text must not contain newlines: {self.text!r}")


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Entity
    relation: str
    object: Entity

    def __post_init__(self):
        if not self.relation or self.relation != self.relation.strip():
            raise ValueError(f"relation must be nonempty and trimmed: {self.relation!r}")
        if "\n" in self.relation:
            raise ValueError("relation must not contain newlines")

    def __str__(self) -> str:
        return f"({self.subject.text}, {self.relation}, {self.object.text})"


@dataclass(frozen=True)
class ParseReport:
    """The candidate lines one parse rejected, each (line number, text, reason)."""

    rejected_lines: tuple[tuple[int, str, str], ...] = ()


@dataclass(frozen=True, slots=True)
class SemanticGraph:
    variant: PromptVariant
    entities: tuple[Entity, ...]
    triples: tuple[Triple, ...] = ()
    source_title: str = ""

    def __post_init__(self):
        if self.variant is PromptVariant.BASE:
            raise ValueError("a graph's variant is never base")
        if self.variant is PromptVariant.G_FULL:
            if self.triples:
                raise ValueError("g-full graphs have no triples")
            if len(set(self.entities)) != len(self.entities):
                raise ValueError("g-full graph entities must be distinct")
        known = {e.text for e in self.entities}
        for triple in self.triples:
            if triple.subject.text not in known or triple.object.text not in known:
                raise ValueError(f"triple endpoint missing from entity list: {triple}")

    @property
    def pairs(self) -> tuple[tuple[Entity, Entity], ...]:
        """A g-full graph's every unordered pair of entities, in entity order;
        none for another variant."""
        if self.variant is PromptVariant.G_FULL:
            return tuple(itertools.combinations(self.entities, 2))
        return ()


def _candidate_lines(raw: str):
    """Yield (line_number, stripped_text) for nonblank lines, stopping at the
    first line that opens a new prompt section (over-generation guard)."""
    for number, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(SECTION_MARKERS):
            return
        yield number, stripped


def parse_entities(raw: str) -> tuple[list[Entity], ParseReport]:
    """Parse a line-per-entity completion; duplicates keep the first occurrence."""
    entities: list[Entity] = []
    seen: set[str] = set()
    rejected: list[tuple[int, str, str]] = []
    for number, text in _candidate_lines(raw):
        if text in seen:
            rejected.append((number, text, "duplicate"))
            continue
        seen.add(text)
        entities.append(Entity(text))
    return entities, ParseReport(tuple(rejected))


def _resolve_arity(fields: list[str], known: set[str]) -> tuple[str, str, str]:
    """Pick subject/object boundaries for a >3-field line.

    With known entities: longest field-prefix and longest field-suffix that
    exactly match a known entity fix the boundaries; the middle becomes the
    relation. Without: first field / last field. Joining with ', ' restores
    the original comma-bearing substrings exactly.
    """
    n = len(fields)
    subject_end = 1
    for i in range(n - 2, 0, -1):
        if ", ".join(fields[:i]) in known:
            subject_end = i
            break
    object_start = n - 1
    for j in range(subject_end + 1, n):
        if ", ".join(fields[j:]) in known:
            object_start = j
            break
    subject = ", ".join(fields[:subject_end])
    relation = ", ".join(fields[subject_end:object_start])
    obj = ", ".join(fields[object_start:])
    return subject, relation, obj


def parse_triples(
    raw: str, known_entities: list[Entity] | None = None
) -> tuple[list[Triple], ParseReport]:
    """Parse '(subject, relation, object)' lines into triples.

    Fields beyond three are resolved against `known_entities` when given
    (two-step extraction) or by a first/last fallback (joint extraction).
    Unparseable lines are rejected, never fatal.
    """
    known = {e.text for e in known_entities} if known_entities else set()
    triples: list[Triple] = []
    rejected: list[tuple[int, str, str]] = []
    for number, text in _candidate_lines(raw):
        if not (text.startswith("(") and text.endswith(")")):
            rejected.append((number, text, "parens"))
            continue
        # One layer of parentheses goes; inner ones stay part of their field.
        fields = text[1:-1].split(", ")
        if len(fields) < 3:
            rejected.append((number, text, "arity"))
            continue
        if len(fields) == 3:
            subject, relation, obj = fields
        else:
            subject, relation, obj = _resolve_arity(fields, known)
        subject, relation, obj = subject.strip(), relation.strip(), obj.strip()
        if not subject or not relation or not obj:
            rejected.append((number, text, "empty field"))
            continue
        triples.append(Triple(Entity(subject), relation, Entity(obj)))
    return triples, ParseReport(tuple(rejected))


def build_full_graph(entities: list[Entity], source_title: str = "") -> SemanticGraph:
    """Fully connected graph over the distinct entities in listing order; its
    k·(k−1)/2 pairs are derived from them."""
    return SemanticGraph(
        variant=PromptVariant.G_FULL,
        entities=tuple(dict.fromkeys(entities)),
        source_title=source_title,
    )


def multi_step_graph(
    source_title: str, entities: list[Entity], triples: list[Triple]
) -> SemanticGraph:
    """SG-Multi graph; endpoints missing from the extracted entity list are
    appended so the graph stays self-contained."""
    return SemanticGraph(
        variant=PromptVariant.SG_MULTI,
        entities=tuple(dict.fromkeys(
            [*entities, *(e for t in triples for e in (t.subject, t.object))])),
        triples=tuple(triples),
        source_title=source_title,
    )


def joint_graph(source_title: str, triples: list[Triple]) -> SemanticGraph:
    """SG-One graph; entities are the triple endpoints in appearance order."""
    return SemanticGraph(
        variant=PromptVariant.SG_ONE,
        entities=tuple(dict.fromkeys(e for t in triples for e in (t.subject, t.object))),
        triples=tuple(triples),
        source_title=source_title,
    )


def serialize_graph(graph: SemanticGraph) -> str:
    """Render a graph as prompt text, one element per line, in stored order."""
    if graph.variant is PromptVariant.G_FULL:
        lines = [f"({a.text}, {b.text})" for a, b in graph.pairs]
    else:
        lines = [str(t) for t in graph.triples]
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def graph_to_dict(graph: SemanticGraph) -> dict:
    """JSON object form: {source_title, variant, entities, pairs, triples}."""
    return {
        "source_title": graph.source_title,
        "variant": graph.variant.value,
        "entities": [e.text for e in graph.entities],
        "pairs": [[a.text, b.text] for a, b in graph.pairs],
        "triples": [[t.subject.text, t.relation, t.object.text] for t in graph.triples],
    }


_GRAPH_FIELDS = {"variant": str, "entities": list, "source_title": str}
_STR_ONLY = frozenset({str})
_LIST_ONLY = frozenset({list})


def _is_table(rows, width: int) -> bool:
    """Whether `rows` is a list of lists of `width` strings, checked in C."""
    return (type(rows) is list and _LIST_ONLY.issuperset(map(type, rows))
            and {width}.issuperset(map(len, rows))
            and _STR_ONLY.issuperset(map(type, itertools.chain.from_iterable(rows))))


def graph_from_dict(data: dict) -> SemanticGraph:
    """The graph of a `graph_to_dict` object, whose pairs and triples may be
    absent. A malformed object raises ValueError saying what is wrong; pairs,
    if present, must be the graph's derived ones. Each entity is built once,
    and the triples' endpoints are those objects."""
    fault = row_fault(data, _GRAPH_FIELDS)
    if fault is None:
        triples = data.get("triples", [])
        if not _STR_ONLY.issuperset(map(type, data["entities"])):
            fault = "field 'entities' must be an array of strings"
        elif not _is_table(triples, 3):
            fault = "field 'triples' must be an array of arrays of 3 strings"
    if fault is not None:
        raise ValueError(fault)
    entities = tuple(map(Entity, data["entities"]))
    # Endpoints are the entity objects themselves. One missing from the list
    # is built, so that the graph rejects it.
    known = {e.text: e for e in entities}
    graph = SemanticGraph(
        variant=PromptVariant(data["variant"]),
        entities=entities,
        triples=tuple(Triple(known.get(s) or Entity(s), rel, known.get(o) or Entity(o))
                      for s, rel, o in triples),
        source_title=data["source_title"],
    )
    if "pairs" in data and data["pairs"] != [[a.text, b.text] for a, b in graph.pairs]:
        raise ValueError(
            "field 'pairs' must list every pair of the entities, in entity order"
            if graph.variant is PromptVariant.G_FULL else
            f"field 'pairs' must be empty for {graph.variant.value} graphs")
    return graph
