from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sgqa import grounding
from sgqa.corpus import Paragraph
from sgqa.graph import Entity, Triple, multi_step_graph
from sgqa.grounding import (
    _ground_in,
    _normalize_with_offsets,
    _raw_start,
    ground_element,
    grounding_report,
    render_highlights,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def alder_paragraph():
    return Paragraph(
        title="Alder & Sons",
        sentences=(
            "Alder & Sons is a publishing house founded by Thomas Alder.",
            " Its headquarters are in Manchester.",
        ),
    )


@pytest.fixture
def alder_graph(alder_paragraph):
    return multi_step_graph(
        alder_paragraph.title,
        [Entity("Alder & Sons"), Entity("Thomas Alder"), Entity("Manchester")],
        [Triple(Entity("Alder & Sons"), "founded by", Entity("Thomas Alder"))],
    )


def test_ground_element_paper_sentence(windermere_paragraph):
    grounded, spans = ground_element("its proximity to the lake", windermere_paragraph)
    assert grounded
    assert len(spans) == 1
    span = spans[0]
    assert windermere_paragraph.text[span.char_start : span.char_end] == span.matched_text
    assert span.matched_text == "its proximity to the lake"


def test_ground_element_absent(windermere_paragraph):
    assert ground_element("flying saucer", windermere_paragraph) == (False, [])


def test_ground_element_whole_paragraph():
    paragraph = Paragraph("T", ("Exact text.",))
    grounded, spans = ground_element("Exact text.", paragraph)
    assert grounded
    assert spans[0].char_start == 0
    assert spans[0].char_end == len(paragraph.text)


def test_ground_element_case_and_whitespace_insensitive():
    paragraph = Paragraph("T", ("The  QUICK   brown fox.",))
    grounded, spans = ground_element("the quick brown", paragraph)
    assert grounded
    assert spans[0].matched_text == "The  QUICK   brown"


def test_ground_element_multiple_occurrences():
    paragraph = Paragraph("T", ("ab x ab y ab.",))
    grounded, spans = ground_element("ab", paragraph)
    assert grounded and len(spans) == 3
    assert [s.char_start for s in spans] == [0, 5, 10]


def test_ground_element_offsets_are_raw(windermere_paragraph):
    # second sentence begins with a space; offsets must index raw text
    grounded, spans = ground_element("Tourism is popular", windermere_paragraph)
    start = spans[0].char_start
    assert windermere_paragraph.text[start:].startswith("Tourism")


def test_ground_element_skips_matches_inside_a_casefold_expansion():
    paragraph = Paragraph("T", ("ßs",))  # normalises to "sss"
    for element, span in [("s", (1, 2, "s")), ("ss", (0, 1, "ß"))]:
        _, spans = ground_element(element, paragraph)
        assert [(s.char_start, s.char_end, s.matched_text) for s in spans] == [span]


def test_grounding_report_searches_each_distinct_text_once(
    alder_graph, alder_paragraph, monkeypatch
):
    searched = []
    ground_in = grounding._ground_in
    monkeypatch.setattr(grounding, "_ground_in", lambda element, *args: (
        searched.append(element) or ground_in(element, *args)))
    report = grounding_report(alder_graph, alder_paragraph)
    # the triple's subject and object are entities already searched
    assert searched == ["Alder & Sons", "Thomas Alder", "Manchester", "founded by"]
    entity, subject = report.per_element[0], report.per_element[3]
    assert (entity.element_kind, subject.element_kind) == ("entity", "subject")
    assert subject.spans is entity.spans


words = st.text(alphabet="abAß ", min_size=1, max_size=4).map(str.strip).filter(bool)


@given(st.lists(words, min_size=1, max_size=4, unique=True), st.data(),
       st.text(alphabet="abAß \n", max_size=30))
def test_report_entry_equals_ground_element_alone(names, data, text):
    entities = [Entity(name) for name in names]
    triple = st.builds(Triple, st.sampled_from(entities), words, st.sampled_from(entities))
    triples = data.draw(st.lists(triple, max_size=3))
    paragraph = Paragraph("T", (text[:10], text[10:]))
    report = grounding_report(multi_step_graph("T", entities, triples), paragraph)
    assert len(report.per_element) == len(entities) + 3 * len(triples)
    for entry in report.per_element:
        assert (entry.grounded, list(entry.spans)) == ground_element(entry.element_text, paragraph)


def test_grounding_report_all_verbatim(alder_graph, alder_paragraph):
    report = grounding_report(alder_graph, alder_paragraph)
    assert report.grounding_rate == 1.0
    assert report.entity_rate == 1.0
    assert report.relation_rate == 1.0
    # 3 entities + subject/relation/object of one triple
    assert len(report.per_element) == 6


def test_grounding_report_empty_graph(alder_paragraph):
    report = grounding_report(multi_step_graph(alder_paragraph.title, [], []), alder_paragraph)
    assert report.grounding_rate == 1.0
    assert report.per_element == ()
    assert report.relation_rate is None


def test_grounding_report_title_mismatch(alder_graph):
    other = Paragraph("Different", ("Text.",))
    with pytest.raises(ValueError, match="graph is for"):
        grounding_report(alder_graph, other)


def test_grounding_rate_with_hallucinated_entity(alder_paragraph):
    graph = multi_step_graph(
        alder_paragraph.title,
        [Entity("Alder & Sons"), Entity("Thomas Alder"), Entity("Manchester"),
         Entity("flying saucer")],
        [],
    )
    report = grounding_report(graph, alder_paragraph)
    assert report.grounding_rate == 3 / 4


def test_grounding_rate_monotone_under_hallucination(alder_paragraph):
    entities = [Entity("Alder & Sons"), Entity("Thomas Alder")]
    rates = []
    for extra in range(4):
        hallucinated = [Entity(f"made up thing {i}") for i in range(extra)]
        graph = multi_step_graph(alder_paragraph.title, entities + hallucinated, [])
        rates.append(grounding_report(graph, alder_paragraph).grounding_rate)
    assert rates == sorted(rates, reverse=True)


def test_relation_subrate_separate(alder_paragraph):
    graph = multi_step_graph(
        alder_paragraph.title,
        [Entity("Alder & Sons"), Entity("Thomas Alder")],
        [Triple(Entity("Alder & Sons"), "was established by", Entity("Thomas Alder"))],
    )
    report = grounding_report(graph, alder_paragraph)
    assert report.relation_rate == 0.0  # paraphrased relation is not verbatim
    assert report.entity_rate == 1.0
    assert report.grounding_rate == 4 / 5


def test_render_html_golden(alder_graph, alder_paragraph):
    report = grounding_report(alder_graph, alder_paragraph)
    page = render_highlights(alder_paragraph, report)
    assert page == (GOLDEN / "highlight.html").read_text(encoding="utf-8")


def test_render_html_nested_spans_log_no_warning(alder_graph, alder_paragraph, caplog):
    report = grounding_report(alder_graph, alder_paragraph)
    with caplog.at_level("DEBUG", logger="sgqa.grounding"):
        page = render_highlights(alder_paragraph, report)
    assert "<!-- 2 overlapping span(s) dropped -->" in page
    assert "dropped 2 overlapping span(s)" in caplog.text
    assert not [r for r in caplog.records if r.levelname == "WARNING"]


def test_render_html_single_entity_marker():
    paragraph = Paragraph("T", ("Manchester is a city.",))
    graph = multi_step_graph("T", [Entity("Manchester")], [])
    report = grounding_report(graph, paragraph)
    page = render_highlights(paragraph, report)
    assert page.count('<mark class="entity">') == 1
    assert "<mark class=\"relation\">" not in page


def test_render_html_empty_report_escapes_text():
    paragraph = Paragraph("T", ("Fish & chips < mushy peas.",))
    report = grounding_report(multi_step_graph("T", [], []), paragraph)
    page = render_highlights(paragraph, report)
    assert "Fish &amp; chips &lt; mushy peas." in page
    assert "<mark" not in page


@given(st.text(alphabet="abcXYZ &-", min_size=1, max_size=12).filter(lambda s: s.strip()))
def test_span_slices_normalize_to_element(element):
    paragraph = Paragraph(
        "T", ("Some filler text. ", element.strip() + " appears here, then ",
              element.strip(), " again."),
    )
    grounded, spans = ground_element(element, paragraph)
    assert grounded
    needle = " ".join(element.casefold().split())
    for span in spans:
        slice_norm = " ".join(
            paragraph.text[span.char_start : span.char_end].casefold().split()
        )
        assert slice_norm == needle


# ------------------------------------------------- reference normalisation

def reference_normalize(text):
    """The per-character normalisation `_normalize_with_offsets` replaced:
    each normalized character's raw [start, end)."""
    chars, starts, ends = [], [], []
    for idx, ch in enumerate(text):
        if ch.isspace():
            if chars and chars[-1] == " ":
                ends[-1] = idx + 1
            elif chars:
                chars.append(" ")
                starts.append(idx)
                ends.append(idx + 1)
        else:
            for folded in ch.casefold():
                chars.append(folded)
                starts.append(idx)
                ends.append(idx + 1)
    return "".join(chars), starts, ends


def reference_spans(element, text):
    """(start, end) of every span the per-character `_ground_in` found."""
    needle = " ".join(element.casefold().split())
    haystack, starts, ends = reference_normalize(text)
    found, pos = [], haystack.find(needle) if needle else -1
    while pos != -1:
        last = pos + len(needle) - 1
        if ((pos == 0 or starts[pos] != starts[pos - 1])
                and (last + 1 == len(haystack) or starts[last + 1] != starts[last])):
            found.append((starts[pos], ends[last]))
            pos = haystack.find(needle, pos + len(needle))
        else:
            pos = haystack.find(needle, pos + 1)
    return found


# Characters whose casefold expands (ß, ﬁ, İ, ŉ), final sigma, whitespace
# that is not ASCII or not a space (U+001C is whitespace to str.isspace).
TRICKY = "aAsSiß ﬁİŉςΣσ\t\n\x1c\u00a0\u2003\u3000"
texts = st.text(alphabet=st.sampled_from(TRICKY) | st.characters(), max_size=40)


@given(texts)
def test_normalize_matches_per_character_reference(text):
    haystack, positions, raws = _normalize_with_offsets(text)
    want, starts, _ = reference_normalize(text)
    assert haystack == want
    assert [_raw_start(positions, raws, p) for p in range(len(haystack))] == starts


@given(texts, st.data())
def test_spans_match_per_character_reference(text, data):
    start = data.draw(st.integers(0, len(text)))
    element = text[start:data.draw(st.integers(start, len(text)))]
    spans = _ground_in(element, text, _normalize_with_offsets(text))
    assert [(s.char_start, s.char_end) for s in spans] == reference_spans(element, text)
