"""Verbatim grounding of graph elements against their source paragraph.

Matching is casefolded and whitespace-collapsed but nothing fuzzier, since
the claim being measured is verbatim traceability. Span offsets always refer
to the raw paragraph text. Relations get a separate sub-rate because
relational phrases are often inflected away from the source wording.
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

HTML_CLASS = {"entity": "entity", "subject": "entity", "object": "entity",
              "relation": "relation"}


@dataclass(frozen=True)
class GroundingSpan:
    element_kind: str
    char_start: int
    char_end: int
    matched_text: str


@dataclass(frozen=True)
class ElementGrounding:
    element_kind: str
    element_text: str
    grounded: bool
    spans: tuple[GroundingSpan, ...]


@dataclass(frozen=True)
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


def ground_element(
    element: str, paragraph: Paragraph, kind: str = "entity"
) -> tuple[bool, list[GroundingSpan]]:
    """All non-overlapping occurrences of `element` in the paragraph under
    casefold + whitespace-collapse matching; offsets index the raw text."""
    return _ground_in(element, paragraph.text, _normalize_with_offsets(paragraph.text), kind)


def _ground_in(
    element: str, text: str, normalized: tuple[str, list[int], list[int]], kind: str
) -> tuple[bool, list[GroundingSpan]]:
    """`ground_element` against `text` already normalised by
    `_normalize_with_offsets`, so a paragraph is normalised once."""
    needle = _normalize_element(element)
    if not needle:
        return False, []
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
            spans.append(
                GroundingSpan(
                    element_kind=kind,
                    char_start=char_start,
                    char_end=char_end,
                    matched_text=text[char_start:char_end],
                )
            )
            pos = haystack.find(needle, pos + len(needle))
        else:
            pos = haystack.find(needle, pos + 1)
    return bool(spans), spans


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
    normalized = _normalize_with_offsets(paragraph.text)
    per_element = []
    for kind, text in _graph_elements(graph):
        grounded, spans = _ground_in(text, paragraph.text, normalized, kind)
        per_element.append(
            ElementGrounding(
                element_kind=kind, element_text=text, grounded=grounded, spans=tuple(spans)
            )
        )
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
                        "element_kind": s.element_kind,
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


def _select_nonoverlapping(spans: list[GroundingSpan]) -> tuple[list[GroundingSpan], int]:
    """Keep outermost spans: sorted by start then longest-first, a span is
    dropped when it overlaps one already kept."""
    ordered = sorted(spans, key=lambda s: (s.char_start, -(s.char_end - s.char_start)))
    kept: list[GroundingSpan] = []
    dropped = 0
    for span in ordered:
        if kept and span.char_start < kept[-1].char_end:
            dropped += 1
            continue
        kept.append(span)
    return kept, dropped


def render_highlights(paragraph: Paragraph, report: GroundingReport) -> str:
    """Render the report as a static HTML page with entity and relation spans
    marked distinguishably."""
    all_spans = [s for e in report.per_element for s in e.spans]
    kept, dropped = _select_nonoverlapping(all_spans)
    if dropped:  # entity spans nested in triple fields are the normal case
        logger.debug("dropped %d overlapping span(s) for %r", dropped, paragraph.title)
    pieces = []
    cursor = 0
    for span in kept:
        pieces.append(html.escape(paragraph.text[cursor : span.char_start]))
        css = HTML_CLASS[span.element_kind]
        pieces.append(
            f'<mark class="{css}">{html.escape(paragraph.text[span.char_start : span.char_end])}</mark>'
        )
        cursor = span.char_end
    pieces.append(html.escape(paragraph.text[cursor:]))
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
