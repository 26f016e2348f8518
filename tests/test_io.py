"""Instance documents: round trips and errors; DOT export of classified inputs."""

from __future__ import annotations

import pytest

import tanglekit.bias
import tanglekit.io
from tanglekit.bias import AllBalanced, BiasedGraph, BiasError, ExplicitSet, Signed
from tanglekit.classify import classify
from tanglekit.families import build_family
from tanglekit.graph import Cycle, MultiGraph
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


def test_realize_still_checks_a_document_it_is_handed():
    doc = InstanceDocument(
        vertex_count=4,
        edges=((0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 1, 2), (4, 1, 3), (5, 2, 3)),
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
