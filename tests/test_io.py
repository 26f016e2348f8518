"""Instance documents: round trips and errors; DOT export of classified inputs."""

from __future__ import annotations

import pytest

import tanglekit.bias
import tanglekit.io
from tanglekit.bias import AllBalanced, BiasedGraph, BiasError, ExplicitSet, Signed
from tanglekit.classify import classify
from tanglekit.families import build_family
from tanglekit.graph import Cycle, GraphError, MultiGraph
from tanglekit.io import (
    InstanceDocument,
    ParseError,
    document_from,
    export_dot,
    load,
    parse,
    realize,
    serialize,
)

from test_families import c4_part_wheel, k4_fat_triangle, minimal_special_vertex

K4_EDGES = "e 0 0 1\ne 1 0 2\ne 2 0 3\ne 3 1 2\ne 4 1 3\ne 5 2 3\n"

BIAS_BLOCKS = {
    "signed": "bias signed 0 4\n",
    "explicit": "bias explicit\nbal 0 1 3\nbal 0 2 4\nbal 1 2 4 3\n",
    "partial": "bias explicit\nbal 0 1 3\ndefault unbalanced\n",
    "all-balanced": "bias all-balanced\n",
    "all-unbalanced": "bias all-unbalanced\n",
}


@pytest.mark.parametrize("kind", sorted(BIAS_BLOCKS))
def test_document_round_trip(kind):
    text = "biasedgraph 1\nv 4\n" + K4_EDGES + BIAS_BLOCKS[kind] + 'family FatTriangle\nrole v [0, 1, 2]\n'
    doc = parse(text)
    assert serialize(doc) == text
    assert parse(serialize(doc)) == doc
    o = realize(doc)
    # the realised graph written back keeps the bias of every cycle
    again = load(serialize(document_from(o)))
    assert again.graph == o.graph
    assert [again.balance(c) for c in o.cycles()] == [o.balance(c) for c in o.cycles()]
    expected = {"signed": Signed, "all-balanced": AllBalanced}.get(kind, ExplicitSet)
    assert isinstance(o.bias, expected)


@pytest.mark.parametrize("kind", sorted(BIAS_BLOCKS))
def test_fields_split_on_runs_of_spaces_and_tabs(kind):
    text = "biasedgraph 1\nv 4\n" + K4_EDGES + BIAS_BLOCKS[kind]
    tabbed = "\t" + text.replace(" ", "\t").replace("\ne\t", "\ne \t\t")
    assert "\t" in tabbed and parse(tabbed) == parse(text)
    assert load(tabbed) == load(text)


def test_a_tab_is_one_column():
    text = "biasedgraph 1\nv 4\n" + K4_EDGES.replace("e 5 2 3", "e\t5 \t2\t9") + "bias all-balanced\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.reason, err.value.line, err.value.column) == ("endpoint 9 outside 0..3", 8, 8)


def test_theta_violation_names_the_first_violating_theta():
    # three triangles of K4 balanced: each pair closes a theta whose quad
    # is unbalanced; the first by edge set is the one over edges 0-4
    text = "biasedgraph 1\n# K4\nv 4\n" + K4_EDGES + "bias explicit\nbal 2 1 5\nbal 4 2 0\nbal 3 1 0\n"
    for read in (parse, load):
        with pytest.raises(ParseError) as err:
            read(text)
        assert err.value.line == 10
        assert err.value.reason == (
            "theta violation: exactly two of the cycles (0 1 3), (0 2 4), (1 2 4 3) are balanced"
        )


@pytest.mark.parametrize("kind, check", [("explicit", "validate_theta"), ("partial", "complete_bias")])
def test_load_checks_the_bias_once(kind, check, monkeypatch):
    calls = []
    for module in (tanglekit.bias, tanglekit.io):
        real = getattr(module, check)
        monkeypatch.setattr(module, check, lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    text = "biasedgraph 1\nv 4\n" + K4_EDGES + BIAS_BLOCKS[kind]
    o = load(text)
    assert len(calls) == 1
    assert o == realize(parse(text))


def test_a_partial_list_is_completed_by_its_closure():
    # two triangles of K4 on edge 0 form a theta with the quad 0-2-1-3
    text = "biasedgraph 1\nv 4\n" + K4_EDGES + "bias explicit\nbal 0 1 3\nbal 0 2 4\n"
    for read in (load, lambda text: realize(parse(text))):
        closed = read(text + "default unbalanced\n")
        assert sorted(c.key for c in closed.bias.balanced) == [(0, 1, 3), (0, 2, 4), (1, 2, 4, 3)]
        every = read(text + "default balanced\n")
        assert every.bias == ExplicitSet(frozenset(every.graph.cycles()))


def test_load_builds_each_balanced_cycle_once(monkeypatch):
    # the parse keeps the cycle it builds per bal line for the theta check
    # and the biased graph it returns
    o = build_family(minimal_special_vertex())
    text = serialize(document_from(o))
    built = []
    real = Cycle.from_edge_set
    monkeypatch.setattr(Cycle, "from_edge_set", staticmethod(lambda g, edges: built.append(1) or real(g, edges)))
    loaded = load(text)
    assert text.count("\nbal ") == len(built) == 16
    assert loaded.bias == o.bias


@pytest.mark.parametrize("kind", sorted(BIAS_BLOCKS))
def test_load_builds_one_graph(kind, monkeypatch):
    # the parse builds the graph from the rows it has checked, and the
    # biased graph on it; nothing checks or builds them a second time
    text = "biasedgraph 1\nv 4\n" + K4_EDGES + BIAS_BLOCKS[kind]
    built = []
    real = MultiGraph.__init__
    monkeypatch.setattr(MultiGraph, "__init__", lambda g, *a: built.append(1) or real(g, *a))
    o = load(text)
    assert len(built) == 1
    assert o == realize(parse(text))


K4_ROWS = ((0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 1, 2), (4, 1, 3), (5, 2, 3))


@pytest.mark.parametrize(
    "change, error, message",
    [
        (dict(edges=K4_ROWS + ((6, 0, 4),)), GraphError, "edge 6 has endpoint outside the vertex set"),
        (dict(edges=K4_ROWS + ((5, 0, 1),)), GraphError, "duplicate edge id 5"),
        (dict(edges=((-1, 0, 1),) + K4_ROWS), GraphError, "edge id -1 is negative"),
        (dict(bias_kind="signed", signature=(0, 9)), BiasError, r"signature uses unknown edges \[9\]"),
        (dict(bias_kind="explicit", balanced=((0, 1),)), GraphError, "edge set is not 2-regular"),
        (dict(bias_kind="explicit", balanced=((0, 1, 9),)), GraphError, "unknown edge id 9"),
    ],
)
def test_realize_rejects_a_defective_document(change, error, message):
    fields = dict(vertex_count=4, edges=K4_ROWS, bias_kind="all-balanced") | change
    with pytest.raises(error, match=message):
        realize(InstanceDocument(**fields))


def test_realize_still_checks_a_document_it_is_handed():
    doc = InstanceDocument(
        vertex_count=4,
        edges=K4_ROWS,
        bias_kind="explicit",
        balanced=((0, 1, 3), (0, 2, 4), (1, 2, 5)),
    )
    with pytest.raises(BiasError, match="theta property"):
        realize(doc)


def test_document_from_rejects_an_unknown_bias_spec():
    # a typed error, so the check also runs under python -O
    o = BiasedGraph(MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0)]), "signed")
    with pytest.raises(BiasError, match="unknown bias spec str"):
        document_from(o)


def test_export_dot_titles_with_verdict_and_codes():
    o = build_family(c4_part_wheel())
    report = classify(o)
    dot = export_dot(o, report)
    assert f'label="tangled: {" ".join(report.codes())}";' in dot
    assert "T1b" in report.codes()


def test_export_dot_tags_role_vertices():
    d = k4_fat_triangle()
    o = build_family(d)
    report = classify(o, first=True)
    assert report.codes() == ("T1d",)
    dot = export_dot(o, report)
    corners = report.labels[0].descriptor.roles["v"]
    for v in o.graph.vertices:
        assert (f'  {v} [label="{v}\\ncorner"];' if v in corners else f"  {v};") in dot


def _k4(bias: str = "bias all-balanced\n", edges: str = K4_EDGES) -> str:
    return "biasedgraph 1\nv 4\n" + edges + bias


_BIAS_KINDS_TEXT = "bias kind must be one of signed, explicit, all-balanced, all-unbalanced"

# (document, reason, line, column), one or more per ParseError branch of
# the parser; K4's edge records are lines 3-8 and its bias line is line 9
PARSE_ERRORS = [
    # header
    ("graph 1\nv 4\n", "expected 'biasedgraph' header", 1, 1),
    ("biasedgraph\nv 4\n", "header takes exactly one version number", 1, 1),
    ("biasedgraph 1 2\nv 4\n", "header takes exactly one version number", 1, 1),
    # version
    ("biasedgraph one\nv 4\n", "format version must be an integer, got 'one'", 1, 13),
    ("  biasedgraph 2\nv 4\n", "unsupported format version 2", 1, 15),
    # vertex count
    ("biasedgraph 1\nvertices 4\n", "expected 'v <count>'", 2, 1),
    ("biasedgraph 1\nv 4 5\n", "expected 'v <count>'", 2, 1),
    ("biasedgraph 1\nv four\n", "vertex count must be an integer, got 'four'", 2, 3),
    ("biasedgraph 1\nv -1\n", "vertex count must be non-negative", 2, 3),
    # edge record
    (_k4(edges=K4_EDGES.replace("e 5 2 3", "e 5 2")), "expected 'e <id> <u> <v>'", 8, 1),
    (_k4(edges=K4_EDGES.replace("e 5 2 3", "e five 2 3")), "edge id must be an integer, got 'five'", 8, 3),
    (_k4(edges=K4_EDGES.replace("e 5 2 3", "e 5 two 3")), "endpoint must be an integer, got 'two'", 8, 5),
    (_k4(edges=K4_EDGES.replace("e 5 2 3", "e 5 2 x")), "endpoint must be an integer, got 'x'", 8, 7),
    (_k4(edges=K4_EDGES.replace("e 5 2 3", "e -5 2 3")), "edge id must be non-negative", 8, 3),
    (_k4(edges=K4_EDGES.replace("e 5 2 3", "e 4 2 3")), "duplicate edge id 4", 8, 3),
    (_k4(edges=K4_EDGES.replace("e 5 2 3", "e 5 4 3")), "endpoint 4 outside 0..3", 8, 5),
    (_k4(edges=K4_EDGES.replace("e 5 2 3", "  e 5 2  9 # far")), "endpoint 9 outside 0..3", 8, 10),
    # bias line
    (_k4("signed 0 4\n"), "expected a 'bias' line after the edge records", 9, 1),
    (_k4("bias\n"), _BIAS_KINDS_TEXT, 9, 1),
    (_k4("bias twisted 0\n"), _BIAS_KINDS_TEXT, 9, 14),
    (_k4("bias explicit 0\n"), "'bias explicit' takes no arguments", 9, 15),
    (_k4("bias all-balanced 0\n"), "'bias all-balanced' takes no arguments", 9, 19),
    (_k4("bias all-unbalanced 0 1\n"), "'bias all-unbalanced' takes no arguments", 9, 21),
    # signature
    (_k4("bias signed 0 x\n"), "edge id must be an integer, got 'x'", 9, 15),
    (_k4("bias signed 0 9\n"), "signature names unknown edge 9", 9, 15),
    (_k4("bias signed 9 x\n"), "signature names unknown edge 9", 9, 13),
    # bal
    (_k4("bias explicit\nbal 0 y\n"), "edge id must be an integer, got 'y'", 10, 7),
    (_k4("bias explicit\nbal 0 1 9\n"), "cycle names unknown edge 9", 10, 9),
    (_k4("bias explicit\nbal 0 9 z\n"), "cycle names unknown edge 9", 10, 7),
    (_k4("bias explicit\nbal\n"), "'bal' needs at least one edge id", 10, 1),
    (_k4("bias explicit\nbal 0 1\n"), "edge set is not 2-regular", 10, 1),
    (_k4("bias explicit\n bal 3\n"), "single non-loop edge is not a cycle", 10, 2),
    # default
    (_k4("bias explicit\nbal 0 1 3\ndefault maybe\n"), "expected 'default balanced|unbalanced'", 11, 1),
    (_k4("bias explicit\ndefault\n"), "expected 'default balanced|unbalanced'", 10, 1),
    # family and role
    (_k4("bias all-balanced\nfamily\n"), "expected 'family <kind>'", 10, 1),
    (_k4("bias signed 0\nfamily A B\n"), "expected 'family <kind>'", 10, 1),
    (_k4("bias all-balanced\nfamily FatTriangle\nrole v\n"), "expected 'role <name> <json>'", 11, 1),
    (
        _k4("bias all-balanced\nfamily FatTriangle\nrole v [0,  1\n"),
        "role value is not JSON: Expecting ',' delimiter",
        11,
        8,
    ),
    # trailing directive
    (_k4("bias all-balanced\nbal 0 1 3\n"), "unexpected directive 'bal'", 10, 1),
    (_k4("bias signed 0\ndefault balanced\n"), "unexpected directive 'default'", 10, 1),
    (_k4("bias all-unbalanced\ne 6 0 1\n"), "unexpected directive 'e'", 10, 1),
    (_k4("bias explicit\ndefault balanced\ndefault balanced\n"), "unexpected directive 'default'", 11, 1),
    (_k4("bias signed 0\nfamily A\nfamily B\nrole a 1\n"), "unexpected directive 'family'", 11, 1),
    (_k4("bias all-balanced\nfamily X\nrole a 1\n\n   v 4\n"), "unexpected directive 'v'", 13, 4),
    # end of document
    ("", "unexpected end of document", 1, 1),
    ("# only a comment\n\n", "unexpected end of document", 1, 1),
    ("biasedgraph 1\n", "unexpected end of document", 1, 1),
    ("biasedgraph 1\nv 4\n" + K4_EDGES + "# no bias\n\n", "unexpected end of document", 8, 1),
]


@pytest.mark.parametrize("text, reason, line, column", PARSE_ERRORS)
def test_parse_error_reason_and_place(text, reason, line, column):
    for read in (parse, load):
        with pytest.raises(ParseError) as err:
            read(text)
        assert (err.value.reason, err.value.line, err.value.column) == (reason, line, column)
        assert str(err.value) == f"line {line}, column {column}: {reason}"
