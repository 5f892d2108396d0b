"""Verbatim grounding of graph elements against their source paragraph.

Matching is casefolded and whitespace-collapsed but nothing fuzzier, since
the claim being measured is verbatim traceability. Span offsets always refer
to the raw paragraph text. Relations get a separate sub-rate because
relational phrases are often inflected away from the source wording.

A report searches each distinct element text once per paragraph: an entity
that comes back as a triple's subject or object shares the same spans tuple.
A span carries no kind; it takes the kind of the element that owns it.
"""

from __future__ import annotations

import html
import logging
import re
from bisect import bisect_right
from dataclasses import dataclass

from .corpus import Paragraph
from .graph import SemanticGraph

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class GroundingSpan:
    char_start: int
    char_end: int
    matched_text: str


@dataclass(frozen=True, slots=True)
class ElementGrounding:
    element_kind: str
    element_text: str
    spans: tuple[GroundingSpan, ...]

    @property
    def grounded(self) -> bool:
        return bool(self.spans)


@dataclass(frozen=True, slots=True)
class GroundingReport:
    source_title: str
    per_element: tuple[ElementGrounding, ...]
    grounding_rate: float
    entity_rate: float
    relation_rate: float | None  # None when the graph has no relations


# Where normalized and raw offsets stop differing by a constant: after a run
# of two or more whitespace characters, and at a character whose casefold
# expands (only non-ASCII characters do).
_SHIFTS = re.compile(r"\s\s+|[^\x00-\x7f]")


def _normalize_with_offsets(text: str) -> tuple[str, list[int], list[int]]:
    """Casefold and collapse whitespace, dropping leading whitespace. Returns
    the normalized text and a sparse map back to raw offsets: anchors at
    normalized positions, ascending from 0, and their raw offsets. The raw
    start of position p is `_raw_start(positions, raws, p)`. The folded
    characters of one raw character (ß -> ss) all start at that character."""
    stripped = text.lstrip()
    lead = len(text) - len(stripped)
    collapsed = " ".join(stripped.split()) + (" " if stripped[-1:].isspace() else "")
    haystack = collapsed.casefold()
    positions, raws = [0], [lead]
    if len(collapsed) == len(stripped) and len(haystack) == len(collapsed):
        return haystack, positions, raws  # one raw character per normalized one
    shift = lead  # raw offset minus normalized offset before the next match
    for match in _SHIFTS.finditer(stripped):
        raw = match.start() + lead
        pos = raw - shift
        width = match.end() - match.start()
        if width > 1:  # a whitespace run: one space, then the text after the run
            positions.append(pos + 1)
            raws.append(raw + width)
            shift += width - 1
            continue
        folded = len(match.group().casefold())
        if folded > 1:
            positions.extend(range(pos + 1, pos + folded + 1))
            raws.extend([raw] * (folded - 1))
            raws.append(raw + 1)
            shift -= folded - 1
    return haystack, positions, raws


def _raw_start(positions: list[int], raws: list[int], pos: int) -> int:
    """The raw offset where normalized position `pos` starts."""
    i = bisect_right(positions, pos) - 1
    return raws[i] + pos - positions[i]


def _normalize_element(element: str) -> str:
    return " ".join(element.casefold().split())


def ground_element(element: str, paragraph: Paragraph) -> tuple[bool, list[GroundingSpan]]:
    """All non-overlapping occurrences of `element` in the paragraph under
    casefold + whitespace-collapse matching; offsets index the raw text."""
    text = paragraph.text
    spans = _ground_in(element, text, _normalize_with_offsets(text))
    return bool(spans), spans


def _ground_in(
    element: str, text: str, normalized: tuple[str, list[int], list[int]]
) -> list[GroundingSpan]:
    """The spans of `ground_element` against `text` already normalised by
    `_normalize_with_offsets`, so a paragraph is normalised once."""
    needle = _normalize_element(element)
    if not needle:
        return []
    haystack, positions, raws = normalized
    spans: list[GroundingSpan] = []
    pos = haystack.find(needle)
    while pos != -1:
        last = pos + len(needle) - 1
        char_start = _raw_start(positions, raws, pos)
        last_start = _raw_start(positions, raws, last)
        # Skip matches whose edges fall inside a single raw character's
        # casefold expansion (e.g. the two 's' of a folded sharp s).
        start_aligned = pos == 0 or char_start != _raw_start(positions, raws, pos - 1)
        end_aligned = (last + 1 == len(haystack)
                       or _raw_start(positions, raws, last + 1) != last_start)
        if start_aligned and end_aligned:
            # a match ends on a folded character, never on a space, so it
            # ends one raw character after that character's start
            char_end = last_start + 1
            spans.append(GroundingSpan(char_start, char_end, text[char_start:char_end]))
            pos = haystack.find(needle, pos + len(needle))
        else:
            pos = haystack.find(needle, pos + 1)
    return spans


def _graph_elements(graph: SemanticGraph) -> list[tuple[str, str]]:
    """(kind, text) pairs to check: every entity, then every triple field."""
    elements = [("entity", e.text) for e in graph.entities]
    for triple in graph.triples:
        elements.append(("subject", triple.subject.text))
        elements.append(("relation", triple.relation))
        elements.append(("object", triple.object.text))
    return elements


def _rate(entries: list[ElementGrounding]) -> float:
    if not entries:
        return 1.0  # vacuous: zero elements count as fully grounded
    return sum(1 for e in entries if e.grounded) / len(entries)


def grounding_report(graph: SemanticGraph, paragraph: Paragraph) -> GroundingReport:
    """Check every graph element against the paragraph and compute rates."""
    if graph.source_title != paragraph.title:
        raise ValueError(
            f"graph is for {graph.source_title!r}, paragraph is {paragraph.title!r}"
        )
    text = paragraph.text
    normalized = _normalize_with_offsets(text)
    elements = _graph_elements(graph)
    spans = {element: tuple(_ground_in(element, text, normalized))
             for element in dict.fromkeys(element for _, element in elements)}
    per_element = [ElementGrounding(kind, element, spans[element]) for kind, element in elements]
    relations = [e for e in per_element if e.element_kind == "relation"]
    others = [e for e in per_element if e.element_kind != "relation"]
    return GroundingReport(
        source_title=graph.source_title,
        per_element=tuple(per_element),
        grounding_rate=_rate(per_element),
        entity_rate=_rate(others),
        relation_rate=_rate(relations) if relations else None,
    )


def report_to_dict(report: GroundingReport) -> dict:
    return {
        "source_title": report.source_title,
        "grounding_rate": report.grounding_rate,
        "entity_rate": report.entity_rate,
        "relation_rate": report.relation_rate,
        "elements": [
            {
                "kind": e.element_kind,
                "text": e.element_text,
                "grounded": e.grounded,
                "spans": [
                    {
                        "element_kind": e.element_kind,
                        "char_start": s.char_start,
                        "char_end": s.char_end,
                        "matched_text": s.matched_text,
                    }
                    for s in e.spans
                ],
            }
            for e in report.per_element
        ],
    }


def _select_nonoverlapping(marks: list[tuple]) -> tuple[list[tuple], int]:
    """Keep outermost (start, end, class) marks: sorted by start then
    longest-first, ties in element order, a mark is dropped when it overlaps
    one already kept."""
    kept: list[tuple[int, int, str]] = []
    dropped = 0
    for mark in sorted(marks, key=lambda m: (m[0], m[0] - m[1])):
        if kept and mark[0] < kept[-1][1]:
            dropped += 1
            continue
        kept.append(mark)
    return kept, dropped


def render_highlights(paragraph: Paragraph, report: GroundingReport) -> str:
    """Render the report as a static HTML page with entity and relation spans
    marked distinguishably."""
    marks = [(s.char_start, s.char_end, "relation" if e.element_kind == "relation" else "entity")
             for e in report.per_element for s in e.spans]
    kept, dropped = _select_nonoverlapping(marks)
    if dropped:  # entity spans nested in triple fields are the normal case
        logger.debug("dropped %d overlapping span(s) for %r", dropped, paragraph.title)
    text = paragraph.text
    pieces = []
    cursor = 0
    for start, end, css in kept:
        pieces.append(html.escape(text[cursor:start]))
        pieces.append(f'<mark class="{css}">{html.escape(text[start:end])}</mark>')
        cursor = end
    pieces.append(html.escape(text[cursor:]))
    body = "".join(pieces)
    note = f"<!-- {dropped} overlapping span(s) dropped -->\n" if dropped else ""
    rate = f"{report.grounding_rate:.3f}"
    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="utf-8">\n'
        "<style>\n"
        "mark.entity { background: #ffd2d2; }\n"
        "mark.relation { background: #d2f0d2; }\n"
        "</style></head>\n"
        f"<body>\n{note}<h2>{html.escape(paragraph.title)}</h2>\n"
        f"<p>{body}</p>\n"
        f"<p class=\"rate\">grounding rate: {rate}</p>\n"
        "</body></html>\n"
    )
