import pytest
from hypothesis import given, strategies as st

from sgqa.graph import (
    Entity,
    PromptVariant,
    SemanticGraph,
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

# Texts that survive a line render/parse cycle: no commas, newlines, or ': '
# section markers, trimmed and nonempty.
element_text = st.text(
    alphabet="abcdefghijkKLMNOP0123456789 -'()",
    min_size=1,
    max_size=20,
).map(lambda s: s.strip()).filter(bool)


# ---------------------------------------------------------------- entities

def test_parse_entities_basic():
    entities, report = parse_entities("Tourism\nWindermere\nits proximity to the lake\n")
    assert [e.text for e in entities] == ["Tourism", "Windermere", "its proximity to the lake"]
    assert report.accepted == 3
    assert report.rejected_lines == ()


def test_parse_entities_empty():
    entities, report = parse_entities("")
    assert entities == []
    assert report.accepted == 0


def test_parse_entities_dedupes_preserving_first():
    entities, report = parse_entities("A\nA\nB")
    assert [e.text for e in entities] == ["A", "B"]
    assert report.accepted == 2
    assert report.rejected_lines == ((2, "A", "duplicate"),)
    assert report.accepted + len(report.rejected_lines) == 3


def test_parse_entities_stops_at_section_marker():
    raw = "Alpha\nBeta\n\nDocument:\nWikipedia Title: Next\nGamma"
    entities, report = parse_entities(raw)
    assert [e.text for e in entities] == ["Alpha", "Beta"]
    assert report.accepted + len(report.rejected_lines) == 2


def test_parse_entities_strips_whitespace():
    entities, _ = parse_entities("  padded entity  \n")
    assert entities[0].text == "padded entity"


# ---------------------------------------------------------------- triples

def test_parse_triples_three_fields():
    triples, report = parse_triples("(Windermere, is popular for, its proximity to the lake)")
    assert len(triples) == 1
    t = triples[0]
    assert t.subject.text == "Windermere"
    assert t.relation == "is popular for"
    assert t.object.text == "its proximity to the lake"
    assert report.accepted == 1


def test_parse_triples_comma_subject_with_known_entities():
    known = [Entity("Prince Robert, Duke of Chartres"), Entity("Princess Anne")]
    triples, _ = parse_triples(
        "(Prince Robert, Duke of Chartres, grandfather of, Princess Anne)",
        known_entities=known,
    )
    assert len(triples) == 1
    assert triples[0].subject.text == "Prince Robert, Duke of Chartres"
    assert triples[0].relation == "grandfather of"
    assert triples[0].object.text == "Princess Anne"


def test_parse_triples_comma_object_with_known_entities():
    known = [Entity("Prince Jean"), Entity("Prince Robert, Duke of Chartres")]
    triples, _ = parse_triples(
        "(Prince Jean, youngest child of, Prince Robert, Duke of Chartres)",
        known_entities=known,
    )
    assert triples[0].subject.text == "Prince Jean"
    assert triples[0].relation == "youngest child of"
    assert triples[0].object.text == "Prince Robert, Duke of Chartres"


def test_parse_triples_extra_fields_without_entities_joins_middle():
    triples, _ = parse_triples("(A, r1, r2, B)")
    assert triples[0].subject.text == "A"
    assert triples[0].relation == "r1, r2"
    assert triples[0].object.text == "B"


def test_parse_triples_rejects_two_fields():
    triples, report = parse_triples("(A, B)")
    assert triples == []
    assert report.rejected_lines == ((1, "(A, B)", "arity"),)


def test_parse_triples_rejects_missing_parens():
    _, report = parse_triples("A, r, B")
    assert report.rejected_lines[0][2] == "parens"


def test_parse_triples_fields_are_substrings_of_source():
    line = "(Alpha Beta, relates to, Gamma, Delta)"
    triples, _ = parse_triples(line)
    for t in triples:
        for part in (t.subject.text, t.relation, t.object.text):
            assert part in line


def test_parse_report_accounting():
    raw = "(A, r, B)\nnot a triple\n(C, D)\n\n(E, r2, F)"
    triples, report = parse_triples(raw)
    assert report.accepted == len(triples) == 2
    assert len(report.rejected_lines) == 2
    assert report.accepted + len(report.rejected_lines) == 4


# ---------------------------------------------------------------- graphs

def test_build_full_graph_k3():
    graph = build_full_graph([Entity("A"), Entity("B"), Entity("C")])
    assert [(a.text, b.text) for a, b in graph.pairs] == [
        ("A", "B"), ("A", "C"), ("B", "C"),
    ]


@pytest.mark.parametrize("k,expected", [(0, 0), (1, 0), (2, 1), (5, 10)])
def test_build_full_graph_sizes(k, expected):
    graph = build_full_graph([Entity(f"e{i}") for i in range(k)])
    assert len(graph.pairs) == expected


def test_full_graph_no_self_or_duplicate_pairs():
    graph = build_full_graph([Entity(f"e{i}") for i in range(8)])
    seen = set()
    for a, b in graph.pairs:
        key = frozenset((a.text, b.text))
        assert len(key) == 2
        assert key not in seen
        seen.add(key)


def test_semantic_graph_requires_distinct_gfull_entities():
    with pytest.raises(ValueError, match="g-full graph entities must be distinct"):
        SemanticGraph(
            variant=PromptVariant.G_FULL,
            entities=(Entity("A"), Entity("B"), Entity("A")),
        )


def test_multi_step_graph_appends_unanchored_endpoints():
    triples = [Triple(Entity("A"), "rel", Entity("New"))]
    graph = multi_step_graph("T", [Entity("A"), Entity("B")], triples)
    assert [e.text for e in graph.entities] == ["A", "B", "New"]


# ---------------------------------------------------------------- serialize

def test_serialize_triple_line():
    graph = multi_step_graph(
        "T", [], [Triple(Entity("Princess Anne"), "daughter of", Entity("Prince Jean"))]
    )
    assert serialize_graph(graph) == "(Princess Anne, daughter of, Prince Jean)\n"


def test_serialize_empty_graph():
    assert serialize_graph(multi_step_graph("T", [Entity("A")], [])) == ""
    assert serialize_graph(build_full_graph([Entity("A")])) == ""


def test_serialize_gfull_pairs():
    graph = build_full_graph([Entity("A"), Entity("B")])
    assert serialize_graph(graph) == "(A, B)\n"


# ---------------------------------------------------------------- round trips
# The graph built from a graph's own entity or triple lines, as extraction
# builds it from a completion, is that graph.

def entity_lines(graph: SemanticGraph) -> str:
    return "".join(f"{e.text}\n" for e in graph.entities)


@given(st.lists(element_text, min_size=2, max_size=6, unique=True))
def test_round_trip_gfull(texts):
    graph = build_full_graph([Entity(t) for t in texts], source_title="T")
    entities, report = parse_entities(entity_lines(graph))
    assert build_full_graph(entities, source_title="T") == graph
    assert report.rejected_lines == ()


comma_free = element_text.filter(lambda s: "," not in s)


@given(
    st.lists(
        st.tuples(comma_free, comma_free, comma_free).filter(lambda t: t[0] != t[2]),
        min_size=1,
        max_size=5,
    )
)
def test_round_trip_sg_one(raw_triples):
    triples = [Triple(Entity(s), r, Entity(o)) for s, r, o in raw_triples]
    graph = joint_graph("T", triples)
    parsed, report = parse_triples(serialize_graph(graph))
    assert joint_graph("T", parsed) == graph
    assert report.rejected_lines == ()


def test_round_trip_sg_multi_with_known_entities():
    entities = [Entity("Prince Robert, Duke of Chartres"), Entity("Princess Anne")]
    triples = [Triple(entities[0], "grandfather of", entities[1])]
    graph = multi_step_graph("T", entities, triples)
    known, _ = parse_entities(entity_lines(graph))
    parsed, report = parse_triples(serialize_graph(graph), known_entities=known)
    assert multi_step_graph("T", known, parsed) == graph
    assert report.rejected_lines == ()


# ---------------------------------------------------------------- persistence

def test_graph_dict_round_trip():
    graph = multi_step_graph(
        "Windermere",
        [Entity("Windermere"), Entity("Cumbria")],
        [Triple(Entity("Windermere"), "is a town in", Entity("Cumbria"))],
    )
    assert graph_from_dict(graph_to_dict(graph)) == graph


def test_graph_dict_round_trip_gfull():
    graph = build_full_graph([Entity("A"), Entity("B"), Entity("C")], source_title="T")
    assert graph_from_dict(graph_to_dict(graph)) == graph


GRAPH = {"source_title": "T", "variant": "sg-one", "entities": ["a", "b"],
         "pairs": [], "triples": [["a", "r", "b"]]}
GFULL = {"source_title": "T", "variant": "g-full", "entities": ["a", "b", "c"],
         "pairs": [["a", "b"], ["a", "c"], ["b", "c"]], "triples": []}


@pytest.mark.parametrize("data,error", [
    ({}, "missing field 'variant'"),
    ({**GRAPH, "entities": "abc"}, 'field \'entities\' must be an array, got "abc"'),
    ({**GRAPH, "entities": [5]}, "field 'entities' must be an array of strings"),
    ({**GRAPH, "triples": [["a", "r"]]},
     "field 'triples' must be an array of arrays of 3 strings"),
    ({**GRAPH, "triples": ["a, r, b"]},
     "field 'triples' must be an array of arrays of 3 strings"),
    ({**GRAPH, "variant": "g-full", "triples": [], "pairs": [["a", 1]]},
     "field 'pairs' must list every pair of the entities, in entity order"),
    ({**GRAPH, "variant": "tree"}, "'tree' is not a valid PromptVariant"),
    ({**GFULL, "pairs": [["a", "b"], ["a", "b"], ["a", "c"]]},
     "field 'pairs' must list every pair of the entities, in entity order"),
    ({**GFULL, "pairs": [["a", "b"], ["a", "c"]]},
     "field 'pairs' must list every pair of the entities, in entity order"),
    ({**GFULL, "pairs": [["a", "b"], ["a", "c"], ["c", "b"]]},
     "field 'pairs' must list every pair of the entities, in entity order"),
    ({**GFULL, "entities": ["a", "b", "a"], "pairs": [["a", "b"]]},
     "g-full graph entities must be distinct"),
    ({**GRAPH, "variant": "sg-multi", "pairs": [["a", "b"]]},
     "field 'pairs' must be empty for sg-multi graphs"),
    ({**GRAPH, "variant": "base", "triples": []}, "a graph's variant is never base"),
], ids=["empty", "string entities", "numeric entity", "2-field triple", "string triple",
        "numeric pair end", "unknown variant", "g-full repeated pair", "g-full missing pair",
        "g-full reversed pair", "g-full repeated entity", "sg-multi pairs", "base variant"])
def test_graph_from_dict_rejects_malformed_object(data, error):
    with pytest.raises(ValueError) as excinfo:
        graph_from_dict(data)
    assert str(excinfo.value) == error


def test_graph_from_dict_reads_absent_pairs_and_triples_as_empty():
    data = {"source_title": "T", "variant": "sg-multi", "entities": ["a", "b"]}
    assert graph_from_dict(data) == multi_step_graph("T", [Entity("a"), Entity("b")], [])
