"""Classifier: family round trips, its searches against their oracles, caps."""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import math
import random
import sys
import types
from pathlib import Path

import pytest

from tanglekit import io
from tanglekit.bias import (
    BiasedGraph,
    ExplicitSet,
    Lifted,
    Signed,
    balanced_without,
    make_explicit,
    make_signed,
    validate_theta,
)
import tanglekit.classify as classify_module
import tanglekit.graph as graph_module
from tanglekit.classify import (
    ClassifyError,
    WheelCore,
    _PLACEMENTS,
    _detect_criss_cross,
    _detect_fat_triangle,
    _detect_generalized_wheel,
    _detect_pp_signed,
    _detect_special_pair,
    _detect_special_vertex,
    _detect_tricoloured,
    _maximal_balanced_sets,
    _pairing_search,
    _ring_layouts,
    _switching_accepts,
    _tricoloured_bias_holds,
    _weak_compositions,
    classify,
    decompose,
)
from tanglekit.families import (
    FamilyDescriptor,
    build_family,
    describe_k5_family,
    describe_pp_signed,
    t_sum,
    verify_family,
)
from tanglekit.graph import MultiGraph, is_two_connected
from tanglekit.limits import DEFAULT_CAPS, Caps, ResourceLimitError
from tanglekit.tangles import (
    Tangled,
    disjoint_unbalanced_pair_exists,
    find_disjoint_unbalanced_pair,
    is_tangled,
)

from oracles import (
    OracleRingLayout,
    connected_graph_census,
    oracle_detect_criss_cross,
    oracle_detect_fat_triangle,
    oracle_detect_pp_signed,
    oracle_detect_tricoloured,
    oracle_explicit_core,
    oracle_layout_tricoloured,
    oracle_maximal_balanced_sets,
    oracle_pairing_search,
    oracle_switching_balanced_sets,
    oracle_t_sum,
    random_connected_pairs,
    random_multigraph,
)
from test_tangles import gain_bias
from test_families import (
    alternating_tricoloured,
    assert_signed_t_sum_matches_explicit,
    balanced_complete,
    c4_criss_cross,
    c4_part_wheel,
    consecutive_tricoloured,
    degenerate_tricoloured,
    digon_rim_wheel,
    k4_fat_triangle,
    lemma_style_special_triple,
    minimal_fat_triangle,
    minimal_special_pair,
    minimal_special_vertex,
    triangle_rim_wheel,
    wheel_criss_cross,
)

_CODES = {
    "PPSigned": "T1a",
    "GeneralizedWheel": "T1b",
    "CrissCross": "T1c",
    "FatTriangle": "T1d",
    "PPSpecialVertex": "T1e",
    "PPSpecialPair": "T1f",
    "PPSpecialTriple": "T1g",
    "Tricoloured": "T1h",
    "K5Parallel": "T2",
}


def pp_signed(k: int) -> FamilyDescriptor:
    base = MultiGraph.from_pairs([(i, (i + 1) % k) for i in range(k)])
    return describe_pp_signed(base, tuple(range(k // 2)), tuple(range(k // 2, k)))


def relabelled(o: BiasedGraph, rng: random.Random) -> BiasedGraph:
    """An isomorphic copy with shuffled vertex ids and edge ids."""
    g = o.graph
    vs = sorted(g.vertex_set)
    vmap = dict(zip(vs, rng.sample(vs, len(vs))))
    ids = sorted(g.edge_id_set)
    emap = dict(zip(ids, rng.sample(range(3 * len(ids)), len(ids))))
    h = MultiGraph.build(
        [vmap[v] for v in vs],
        [(emap[e], vmap[g.endpoints(e)[0]], vmap[g.endpoints(e)[1]]) for e in ids],
    )
    balanced = [{emap[e] for e in c.edge_set} for c in o.balanced_cycles()]
    return make_explicit(h, balanced)


def reverifies(o: BiasedGraph, report) -> bool:
    return all(
        verify_family(label.witness or o, label.descriptor).passed
        for label in report.labels
        if label.descriptor is not None
    )


# -- family round trip -----------------------------------------------------------


ROUND_TRIP = {
    "wheel-c4-part": c4_part_wheel,
    "wheel-triangle-rim": triangle_rim_wheel,
    "criss-cross-c4": c4_criss_cross,
    "fat-triangle": minimal_fat_triangle,
    "fat-triangle-k4": k4_fat_triangle,
    "special-vertex": minimal_special_vertex,
    "special-pair": minimal_special_pair,
    "special-triple": lemma_style_special_triple,
    "tricoloured-consecutive": consecutive_tricoloured,
    "tricoloured-alternating": alternating_tricoloured,
    "tricoloured-degenerate": degenerate_tricoloured,
    "k5": describe_k5_family,
    "pp-signed-c4": lambda: pp_signed(4),
    "pp-signed-c6": lambda: pp_signed(6),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_member_classifies_with_its_own_code(name):
    d = ROUND_TRIP[name]()
    o = build_family(d)
    report = classify(o)
    assert isinstance(report.verdict, Tangled)
    assert _CODES[d.kind] in report.codes()
    assert reverifies(o, report)


# -- Tricoloured search against the earlier search ---------------------------------


def fuzz_graphs(count: int) -> list[BiasedGraph]:
    """The first tangled draws of a fixed seed: simple connected signed
    graphs on six vertices with nine edges, as many as the smallest
    Tricoloured graphs have.  Denser ones take the oracle seconds each."""
    rng = random.Random(1)
    out = []
    while len(out) < count:
        pairs = sorted(rng.sample(list(itertools.combinations(range(6), 2)), 9))
        g = MultiGraph.from_pairs(pairs)
        if not g.is_connected():
            continue
        o = make_signed(g, [e for e in g.edge_ids if rng.random() < 0.5])
        if isinstance(is_tangled(o), Tangled):
            out.append(o)
    return out


DIFFERENTIAL = [
    consecutive_tricoloured,
    alternating_tricoloured,
    degenerate_tricoloured,
    lambda: pp_signed(4),
    lambda: pp_signed(6),
    minimal_fat_triangle,
    k4_fat_triangle,
    digon_rim_wheel,
    c4_part_wheel,
    triangle_rim_wheel,
]


def differential_inputs() -> list[BiasedGraph]:
    rng = random.Random(7)
    members = [build_family(d()) for d in DIFFERENTIAL]
    tricoloured = [relabelled(o, rng) for o in members[:3]]
    return members + tricoloured + fuzz_graphs(5)


def test_tricoloured_search_agrees_with_oracle():
    hits = 0
    for o in differential_inputs():
        hit = _detect_tricoloured(o, DEFAULT_CAPS, ())
        expected = oracle_detect_tricoloured(o, DEFAULT_CAPS, ())
        assert (hit is None) == (expected is None)
        if hit is not None:
            hits += 1
            d, cert, witness = hit
            assert witness is None and cert.passed
            assert verify_family(o, d).passed
    # three members, three relabelled copies and PPSigned C6
    assert hits == 7


@pytest.mark.parametrize("d", [describe_k5_family, c4_criss_cross, lemma_style_special_triple])
def test_tricoloured_search_builds_no_doomed_candidate(d, monkeypatch):
    # on these non-members every candidate with overlapping target sets
    # used to reach verify_family, which rejects them all
    o = build_family(d())
    calls = []
    monkeypatch.setattr(classify_module, "verify_family", lambda *args: calls.append(args))
    assert _detect_tricoloured(o, DEFAULT_CAPS, ()) is None
    assert calls == []


def test_ring_placements_name_the_hinge_between_neighbours():
    placements = [p for places in _PLACEMENTS.values() for p in places]
    assert sorted(p[0] for p in placements) == list(range(12 * 2 * 6))
    for _, part_at, hinge_at, _, _ in placements:
        # ring hinge j joins ring parts j and j + 1
        for i in range(6):
            j = hinge_at[i]
            assert {part_at[i], part_at[(i + 1) % 6]} == {j, (j + 1) % 6}


def test_tricoloured_search_stops_at_its_cap():
    o = build_family(pp_signed(6))
    with pytest.raises(ResourceLimitError) as err:
        _detect_tricoloured(o, Caps(max_assignments=50), ())
    assert err.value.stage == "tricoloured search"


# -- Tricoloured gates and slot masks against the layout search --------------------


def bench_module(name: str):
    """A module of the benchmark in tanglebench/."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tanglebench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


def classify_full_cases() -> dict[str, BiasedGraph]:
    """Every input of the benchmark's classify-full workload, unrelabelled."""
    workloads = bench_module("workloads")
    corpus = bench_module("corpus")
    descriptors = corpus.family_descriptors()
    tsums = workloads._FULL_TSUMS
    names = {*workloads._FULL_MEMBERS, *(corpus.TSUMS[t][0] for t in tsums)}
    built = {name: build_family(descriptors[name]) for name in names}
    cases = {name: built[name] for name in workloads._FULL_MEMBERS}
    cases.update(corpus.t_sums(built, tsums))
    cases["roadmap-n9"] = corpus.signed_graph(workloads._ROADMAP_PAIRS, workloads._ROADMAP_SIGNATURE)
    return cases


def with_pendant_edge(o: BiasedGraph) -> BiasedGraph:
    """o with a new vertex joined to vertex 0 by an edge on no cycle."""
    g = o.graph
    w, f = max(g.vertex_set) + 1, max(g.edge_id_set) + 1
    h = MultiGraph.build([*g.vertices, w], [(e, *g.endpoints(e)) for e in g.edge_ids] + [(f, 0, w)])
    return make_explicit(h, [c.edge_set for c in o.balanced_cycles()])


def subdivided(o: BiasedGraph, e: int) -> BiasedGraph:
    """o with edge e made a path of two edges through a new vertex of
    degree 2; every cycle keeps its balance."""
    g = o.graph
    u, v = g.endpoints(e)
    w, f = max(g.vertex_set) + 1, max(g.edge_id_set) + 1
    edges = [(d, *g.endpoints(d)) for d in g.edge_ids if d != e] + [(e, u, w), (f, w, v)]
    h = MultiGraph.build([*g.vertices, w], edges)
    return make_explicit(h, [c.edge_set | {f} if e in c.edge_set else c.edge_set for c in o.balanced_cycles()])


def pruned_inputs() -> list[BiasedGraph]:
    """Inputs the Tricoloured gates cut short: the consecutive member
    1-summed with a triangle and with a pendant edge, which are not
    2-connected, and the member with its ring edge 0-1 or its chord 0-3
    subdivided, which gives sources a target of degree 2."""
    member = build_family(consecutive_tricoloured())
    return [
        t_sum(member, balanced_complete(3), 1, [(0, 0)]),
        with_pendant_edge(member),
        subdivided(member, 0),
        subdivided(member, 6),
    ]


def test_tricoloured_search_matches_the_layout_search():
    # the same first hit, or none, as the search before the gates, the
    # slot masks and the verdict memo
    rng = random.Random(5)
    inputs = pruned_inputs() + differential_inputs() + t_sums()
    for o in classify_full_cases().values():
        inputs += [o, relabelled(o, rng)]
    hits = []
    for o in inputs:
        hit = _detect_tricoloured(o, DEFAULT_CAPS, ())
        expected = oracle_layout_tricoloured(o, DEFAULT_CAPS, ())
        assert (hit and hit[0].roles) == (expected and expected[0].roles)
        hits.append(hit is not None)
    # differential members and copies, both subdivided members, and two
    # copies of each classify-full case with a hit
    assert sum(hits) == 7 + 2 + 2 * 4
    assert hits[:4] == [False, False, True, True]


@pytest.mark.parametrize(
    "make",
    [lambda: classify_full_cases()["roadmap-n9"], lambda: pruned_inputs()[0], lambda: pruned_inputs()[1]],
    ids=["roadmap-n9", "tricoloured-1-sum", "tricoloured-pendant"],
)
def test_tricoloured_search_builds_no_ring_core_of_an_input_that_is_not_two_connected(make, monkeypatch):
    o = make()
    layouts, tested = [], []
    real = classify_module.is_two_connected
    monkeypatch.setattr(classify_module, "_ring_layouts", lambda core: layouts.append(core) or ())
    monkeypatch.setattr(classify_module, "is_two_connected", lambda h: tested.append(h) or real(h))
    assert _detect_tricoloured(o, DEFAULT_CAPS, ()) is None
    assert layouts == []
    assert len(tested) == 1 and tested[0] is o.graph


def test_tricoloured_degree_gates_cut_the_steps_on_a_t_sum(monkeypatch):
    counters = []

    class Recording(classify_module._Counter):
        def __init__(self, *args):
            super().__init__(*args)
            counters.append(self)

    monkeypatch.setattr(classify_module, "_Counter", Recording)
    # tsum2-k5-k3; 1,197 steps before the degree gates
    assert _detect_tricoloured(corpus_t_sums()[4], DEFAULT_CAPS, ()) is None
    assert [c.count for c in counters] == [162]


def test_bias_verdicts_are_remembered_per_part_edge_set():
    # the triangles over edges 0, 1, 2 (balanced) and 0, 1, 3 (unbalanced)
    # share the chord pair 0, 1; only the part edges tell them apart
    o = make_signed(MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0), (2, 0)]), [3])
    verdicts: dict = {}
    none = frozenset()
    for part, same, cross in ((frozenset({2}), True, False), (frozenset({3}), False, True)) * 2:
        pe6 = (part, none, none, part, none, none)
        holds = (
            _tricoloured_bias_holds(o, pe6, [(0, 1), None, None, None, None, None], [0], DEFAULT_CAPS, verdicts),
            _tricoloured_bias_holds(o, pe6, [(0,), (1,), None, None, None, None], [0, 1], DEFAULT_CAPS, verdicts),
        )
        assert holds == (same, cross)
    assert len(verdicts) == 4


def test_slot_masks_match_the_padded_rings():
    graphs = [g for n in range(3, 8) for g in connected_graph_census(n) if is_two_connected(g)]
    layouts = 0
    for g in graphs:
        for lay in _ring_layouts(g):
            layouts += 1
            padded = OracleRingLayout(lay.hinges, lay.parts, lay.part_vertices).rings
            pads = len(_weak_compositions(6 - len(lay.parts), len(lay.parts)))
            # every padding gives a ring, the one built the old way
            assert tuple(lay.ring(c) for c in range(pads)) == padded
            for c, (pvs, _, _) in enumerate(padded):
                for v in g.vertex_set:
                    assert [lay.slots[v] >> 6 * c + p & 1 for p in range(6)] == [v in pv for pv in pvs]
            assert max(lay.slots.values()) < 1 << 6 * pads
    assert len(graphs) == 1 + 3 + 10 + 56 + 468 and layouts > len(graphs)


@pytest.mark.wall
def test_tricoloured_search_at_its_wall():
    assert _detect_tricoloured(build_family(pp_signed(12)), DEFAULT_CAPS, ()) is None
    o = diamond_ring_wheel()
    report = classify(o)
    assert report.codes() == ("T1a", "T1b", "T1f")
    assert reverifies(o, report)


# -- balance filters in front of verify_family ------------------------------------


def corpus_t_sum_args() -> list[tuple]:
    """The summands, orders and glues of the benchmark corpus's six t-sums."""
    fat = build_family(minimal_fat_triangle())
    fatk = build_family(k4_fat_triangle())
    return [
        (fat, balanced_complete(3), 1, [(0, 0)]),
        (fat, balanced_complete(3), 2, [(0, 0), (1, 1)]),
        (fatk, balanced_complete(4), 3, [(0, 0), (1, 1), (2, 2)]),
        (build_family(pp_signed(6)), balanced_complete(4), 2, [(0, 0), (1, 1)]),
        (build_family(describe_k5_family()), balanced_complete(3), 2, [(0, 0), (1, 1)]),
        (build_family(c4_criss_cross()), balanced_complete(3), 1, [(1, 0)]),
    ]


def t_sums() -> list[BiasedGraph]:
    return corpus_t_sums()[:3]


def corpus_t_sums() -> list[BiasedGraph]:
    """The six t-sums of the benchmark corpus."""
    return [t_sum(*args) for args in corpus_t_sum_args()]


def signed_t_sums() -> list[BiasedGraph]:
    """Signed t-sums of orders 1, 2 and 3: PPSigned C8 at a vertex, the
    corpus sums of PPSigned C6 and the K5 member, and the first benchmark
    fuzz graph along its balanced triangle 0, 1, 2."""
    fuzz = make_signed(MultiGraph.from_pairs(BENCH_FUZZ[0][0]), BENCH_FUZZ[0][1])
    return [
        t_sum(build_family(pp_signed(8)), balanced_complete(3), 1, [(0, 0)]),
        *corpus_t_sums()[3:5],
        t_sum(fuzz, balanced_complete(4), 3, [(0, 0), (1, 1), (2, 2)]),
    ]


@pytest.mark.parametrize("index", range(6))
def test_decomposition_of_a_t_sum_recomposes(index):
    # the cores of explicit sums are rebuilt through make_explicit(check=True),
    # which runs the balanced-pair theta check; those of signed sums stay signed
    o = corpus_t_sums()[index]
    dec = decompose(o)
    assert dec.nodes  # something peels off
    assert dec.verify(o) == ()


def random_signed(count: int) -> list[BiasedGraph]:
    rng = random.Random(29)
    out = []
    for _ in range(count):
        g = random_multigraph(rng, max_n=7, max_extra=6, allow_loops=True)
        out.append(make_signed(g, [e for e in g.edge_ids if rng.random() < 0.5]))
    return out


def signed_multigraphs(count: int) -> list[BiasedGraph]:
    """Seeded signed multigraphs on one to seven vertices, not necessarily
    connected, with positive and negative loops, digons of either balance
    and isolated vertices."""
    rng = random.Random(41)
    out = []
    for _ in range(count):
        n = rng.randint(1, 7)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n + 4))]
        pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 2)))  # parallel edges
        g = MultiGraph.from_pairs(pairs, range(n))
        out.append(make_signed(g, [e for e in g.edge_ids if rng.random() < 0.5]))
    return out


def test_maximal_balanced_sets_agree_with_unpruned_search():
    inputs = [build_family(d()) for d in ROUND_TRIP.values()] + t_sums() + random_signed(200)
    inputs += signed_multigraphs(150)
    signed = 0
    for o in inputs:
        found = _maximal_balanced_sets(o)
        assert found == oracle_maximal_balanced_sets(o)
        if isinstance(o.bias, Signed):
            assert found == oracle_switching_balanced_sets(o)
            signed += 1
    assert signed > 350


def test_signed_maximal_balanced_sets_obey_the_parity_law():
    # E - m is the negative set of a switching, so it differs from the
    # signature by an edge cut and Signed(E - m) is the input's bias: the
    # PPSigned search leaves the parity law untested on signed input
    checked = 0
    for o in signed_multigraphs(300):
        sig, edges = o.bias.signature, o.graph.edge_id_set
        for m in _maximal_balanced_sets(o):
            assert balanced_without(make_signed(o.graph, sig ^ (edges - m)))
            checked += 1
    assert checked > 300


def test_maximal_balanced_sets_of_a_dense_signed_graph():
    # n = 9 and m = 33: a transversal search over this graph's 14,257
    # unbalanced cycles runs past 2,000,000 nodes; it has 256 switchings
    rng = random.Random(5)
    pairs = random_connected_pairs(rng, 9, 33)
    o = make_signed(MultiGraph.from_pairs(pairs), [e for e in range(len(pairs)) if rng.random() < 0.5])
    assert _maximal_balanced_sets(o) == oracle_switching_balanced_sets(o)


@pytest.mark.parametrize("detector", [_detect_generalized_wheel, _detect_special_pair])
@pytest.mark.parametrize("d", [c4_criss_cross, consecutive_tricoloured, alternating_tricoloured])
def test_wheel_and_special_pair_searches_build_no_doomed_candidate(detector, d, monkeypatch):
    # every candidate these searches built on these non-members failed a
    # balance clause: a wheel part outside every maximal balanced set, or
    # a special-pair star or junction edge of the wrong balance
    o = build_family(d())
    msets = _maximal_balanced_sets(o)
    calls = []
    monkeypatch.setattr(classify_module, "verify_family", lambda *args: calls.append(args))
    assert detector(o, DEFAULT_CAPS, msets) is None
    assert calls == []


def test_balanced_subgraph_search_stops_at_its_cap():
    o = build_family(pp_signed(6))
    with pytest.raises(ResourceLimitError) as err:
        _maximal_balanced_sets(o, Caps(max_subsets=5))
    assert err.value.stage == "balanced subgraph search"


def test_wheel_search_stops_at_its_cap():
    # a non-member whose rims have bonds and polygons: the search runs
    # through over a hundred rings and splits before it misses
    o = build_family(consecutive_tricoloured())
    msets = _maximal_balanced_sets(o)
    with pytest.raises(ResourceLimitError) as err:
        _detect_generalized_wheel(o, Caps(max_assignments=50), msets)
    assert err.value.stage == "generalized-wheel search"
    assert _detect_generalized_wheel(o, DEFAULT_CAPS, msets) is None


def test_special_vertex_search_stops_at_its_cap():
    # the member's first candidate verifies, so one assignment is enough
    o = build_family(minimal_special_vertex())
    msets = _maximal_balanced_sets(o)
    with pytest.raises(ResourceLimitError) as err:
        _detect_special_vertex(o, Caps(max_assignments=0), msets)
    assert err.value.stage == "special-vertex search"
    assert _detect_special_vertex(o, Caps(max_assignments=1), msets) is not None


def classify_workload_documents() -> dict[str, str]:
    """The document of every input of the classify-first and classify-full workloads."""
    workloads = bench_module("workloads")
    meter = types.SimpleNamespace(call=lambda _name, f, *args: f(*args))
    return {case.name: case.text for first in (True, False) for case in workloads.Classify(0, first).setup(meter)}


def test_pairing_search_matches_the_search_without_mirror_images():
    # every spanning 2-connected maximal balanced set of the classify
    # workloads' inputs, unrelabelled and under one relabelling
    corpus = bench_module("corpus")
    rng = random.Random(17)
    bases, misses = 0, []
    for text in classify_workload_documents().values():
        for o in (io.load(text), io.load(corpus.relabel(text, rng).text)):
            g = o.graph
            for m in _maximal_balanced_sets(o):
                sub = g.subgraph(m)
                if sub.vertex_set != g.vertex_set or not is_two_connected(sub):
                    continue
                got = _pairing_search(o, m, DEFAULT_CAPS)
                assert got == oracle_pairing_search(o, m, DEFAULT_CAPS)
                bases += 1
                if got is None:
                    misses.append((o, m))
    assert (bases, len(misses)) == (152, 34)
    # a miss with k residual edges tries (k - 1)!/2 orders and 2^(k-1) orientations each
    o, m = max(misses, key=lambda miss: miss[0].graph.m - len(miss[1]))
    k = o.graph.m - len(m)
    tried = math.factorial(k - 1) // 2 * 2 ** (k - 1)
    assert k >= 4
    with pytest.raises(ResourceLimitError):
        _pairing_search(o, m, Caps(max_assignments=tried - 1))
    assert _pairing_search(o, m, Caps(max_assignments=tried)) is None


def test_pairing_search_stops_at_its_cap():
    # the first boundary pairing tried verifies, so one ordering is enough
    d = pp_signed(6)
    o = build_family(d)
    msets = _maximal_balanced_sets(o)
    with pytest.raises(ResourceLimitError) as err:
        _detect_pp_signed(o, Caps(max_assignments=0), msets)
    assert err.value.stage == "planar boundary pairing search"
    hit = _detect_pp_signed(o, Caps(max_assignments=1), msets)
    assert hit is not None and hit[0].kind == "PPSigned"
    assert verify_family(o, hit[0]).passed


def test_decompose_stops_at_the_vertex_cut_cap():
    # the input has no cut of size two or less, so its first cut search
    # builds 1 + 6 + 15 block trees
    o = build_family(pp_signed(6))
    with pytest.raises(ResourceLimitError) as err:
        decompose(o, Caps(max_subsets=21))
    assert err.value.stage == "find_vertex_cuts"
    assert decompose(o, Caps(max_subsets=22)).verify(o) == ()


# -- signed cores -----------------------------------------------------------------


# The five tangled signed graphs on six vertices of the classify-first
# benchmark workload, as (edge pairs, signature).
BENCH_FUZZ = [
    ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)], [1, 4, 5, 6, 12]),
    ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)], [0, 1, 2, 3, 4, 7, 8, 9, 10, 13]),
    ([(0, 1), (0, 2), (0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (3, 4), (3, 5)], [1, 2, 5, 6]),
    ([(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)], [6, 8, 11, 12]),
    ([(0, 1), (0, 2), (0, 3), (0, 5), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5)], [0, 2, 4, 6, 7, 8, 9]),
]


def tangled_signed_inputs() -> list[BiasedGraph]:
    """Tangled signed census graphs on up to six vertices under three seeded
    signatures each, PPSigned C6 to C12, and 200 seeded tangled signed
    graphs on six to eight vertices."""
    rng = random.Random(53)
    out = [
        make_signed(g, [e for e in g.edge_ids if rng.random() < 0.5])
        for n in range(3, 7)
        for g in connected_graph_census(n)
        for _ in range(3)
    ]
    out = [o for o in out if isinstance(is_tangled(o), Tangled)]
    out += [build_family(pp_signed(k)) for k in (6, 8, 10, 12)]
    drawn = 0
    while drawn < 200:
        n = rng.randint(6, 8)
        pairs = rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(n + 2, 2 * n + 2))
        g = MultiGraph.from_pairs(pairs, range(n))
        if not g.is_connected():
            continue
        o = make_signed(g, [e for e in g.edge_ids if rng.random() < 0.5])
        if isinstance(is_tangled(o), Tangled):
            out.append(o)
            drawn += 1
    return out


def test_signed_cores_keep_the_balance_of_the_explicit_core(monkeypatch):
    peels = []
    real_peel = classify_module._peel

    def recording_peel(cur, tags, vc, bridge, node_id):
        out = real_peel(cur, tags, vc, bridge, node_id)
        peels.append((cur, vc.cut, bridge.edges, out[0]))
        return out

    monkeypatch.setattr(classify_module, "_peel", recording_peel)
    inputs = tangled_signed_inputs()
    for o in inputs:
        decompose(o)
    assert len(peels) > 200
    compared = 0
    for cur, cut, edges, core in peels:
        assert isinstance(core.bias, Signed)
        if len(cut) == 1:
            continue
        expected = oracle_explicit_core(cur, cut, edges)
        assert core.graph == expected.graph
        assert {c.edge_set for c in core.balanced_cycles()} == {c.edge_set for c in expected.balanced_cycles()}
        compared += 1
    assert compared > 100


def test_decompose_lists_no_cycle_of_a_signed_input(monkeypatch):
    # PPSigned cores and the benchmark's fuzz graphs peel to 4-connected
    # cores, so nothing in decompose needs a cycle list
    inputs = [build_family(pp_signed(k)) for k in range(6, 17, 2)]
    inputs += [make_signed(MultiGraph.from_pairs(pairs), sig) for pairs, sig in BENCH_FUZZ]
    listed = []
    real = MultiGraph.cycles

    def recording(g, *args, **kwargs):
        listed.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(MultiGraph, "cycles", recording)
    for o in inputs:
        dec = decompose(o)
        assert not isinstance(dec.core, WheelCore)
    assert listed == []


def test_pp_signed_c18_classifies_at_default_caps():
    o = build_family(pp_signed(18))
    assert classify(o, first=True).codes() == ("T3",)


@pytest.mark.wall
def test_pp_signed_c24_classifies_at_default_caps():
    o = build_family(pp_signed(24))
    assert classify(o, first=True).codes() == ("T3",)


def test_every_peeled_core_is_tangled(monkeypatch):
    # decompose proves the input tangled once and re-checks only the
    # terminal core; every intermediate core is checked here instead
    cores = []
    real_peel = classify_module._peel

    def recording_peel(*args):
        out = real_peel(*args)
        cores.append(out[0])
        return out

    monkeypatch.setattr(classify_module, "_peel", recording_peel)
    inputs = tangled_signed_inputs() + corpus_t_sums() + [build_family(pp_signed(k)) for k in (14, 16)]
    for o in inputs:
        decompose(o)
    assert len(cores) > 500
    for core in cores:
        assert is_tangled(core) == Tangled()


def test_decompose_rejects_a_peel_that_loses_tangledness(monkeypatch):
    real_peel = classify_module._peel

    def balancing_peel(*args):
        core, tags, node = real_peel(*args)
        return BiasedGraph(core.graph, Signed(frozenset())), tags, node

    monkeypatch.setattr(classify_module, "_peel", balancing_peel)
    with pytest.raises(ClassifyError, match="non-tangled core"):
        decompose(build_family(pp_signed(8)))


# -- CrissCross, PPSigned and FatTriangle against their unfiltered searches ---------


FILTERED = [
    (_detect_criss_cross, oracle_detect_criss_cross),
    (_detect_pp_signed, oracle_detect_pp_signed),
    (_detect_fat_triangle, oracle_detect_fat_triangle),
]


def filter_inputs() -> list[BiasedGraph]:
    """The Tricoloured differential's inputs, the t-sums, the tangled signed
    graphs, PPSigned C4 to C10, both CrissCross members and a seeded
    relabelling of every round-trip member and of the CrissCross wheel."""
    rng = random.Random(13)
    members = [build_family(d()) for d in (*ROUND_TRIP.values(), wheel_criss_cross)]
    return (
        differential_inputs()
        + [build_family(c4_criss_cross()), members[-1]]
        + t_sums()
        + tangled_signed_inputs()
        + [build_family(pp_signed(k)) for k in (4, 6, 8, 10)]
        + [relabelled(o, rng) for o in members]
    )


def test_balance_filtered_searches_agree_with_unfiltered_oracles():
    hits = {detector.__name__: 0 for detector, _ in FILTERED}
    for o in filter_inputs():
        msets = _maximal_balanced_sets(o)
        for detector, oracle in FILTERED:
            hit = detector(o, DEFAULT_CAPS, msets)
            expected = oracle(o, DEFAULT_CAPS, msets)
            assert (hit is None) == (expected is None)
            if hit is not None:
                assert hit[0].roles == expected[0].roles
                assert hit[1].passed and hit[2] is None
                hits[detector.__name__] += 1
    # no signed input is a CrissCross member
    assert hits == {"_detect_criss_cross": 4, "_detect_pp_signed": 161, "_detect_fat_triangle": 117}


@pytest.mark.parametrize(
    "d, calls",
    [(describe_k5_family, 0), (lambda: pp_signed(6), 0), (c4_criss_cross, 1)],
    ids=["k5", "pp-signed-c6", "criss-cross-c4"],
)
def test_criss_cross_search_builds_no_doomed_candidate(d, calls, monkeypatch):
    # the unfiltered search sent K5 thirty candidates and the member three;
    # all but the member's hit fail a crossing triangle, the core's balance
    # or its 2-connectivity
    o = build_family(d())
    msets = _maximal_balanced_sets(o)
    made = []
    real = classify_module.verify_family
    monkeypatch.setattr(classify_module, "verify_family", lambda *args: made.append(args) or real(*args))
    hit = _detect_criss_cross(o, DEFAULT_CAPS, msets)
    assert len(made) == calls
    assert (hit is not None) == bool(calls)


@pytest.mark.parametrize("d", [describe_k5_family, c4_criss_cross])
def test_fat_triangle_search_builds_no_doomed_candidate(d, monkeypatch):
    # the unfiltered search sent each of these ten candidates, none with a
    # base E - fat inside a maximal balanced set
    o = build_family(d())
    msets = _maximal_balanced_sets(o)
    calls = []
    monkeypatch.setattr(classify_module, "verify_family", lambda *args: calls.append(args))
    assert _detect_fat_triangle(o, DEFAULT_CAPS, msets) is None
    assert calls == []


@pytest.mark.parametrize("d", [minimal_special_vertex, k4_fat_triangle, minimal_special_pair])
def test_pp_signed_search_skips_a_bias_that_is_no_signature(d, monkeypatch):
    # explicit members whose bias is Signed(E - m) for no base m: the
    # unfiltered search ran a pairing search and ordered_planarity on each
    o = build_family(d())
    msets = _maximal_balanced_sets(o)
    calls = []
    for name in ("_pairing_search", "ordered_planarity"):
        real = getattr(classify_module, name)
        monkeypatch.setattr(
            classify_module, name, lambda *args, real=real, **kwargs: calls.append(args) or real(*args, **kwargs)
        )
    assert _detect_pp_signed(o, DEFAULT_CAPS, msets) is None
    assert calls == []


def test_classify_stops_at_the_balanced_subgraph_cap():
    # the maximal balanced sets of the CrissCross member take 156 search
    # nodes; decompose's cut search fits under that, and the detectors
    # that read the sets answer as at the default caps
    o = build_family(c4_criss_cross())
    with pytest.raises(ResourceLimitError):
        _maximal_balanced_sets(o, Caps(max_subsets=155))
    assert _maximal_balanced_sets(o, Caps(max_subsets=156)) == _maximal_balanced_sets(o)
    with pytest.raises(ResourceLimitError) as err:
        classify(o, Caps(max_subsets=155))
    assert err.value.stage == "balanced subgraph search"
    report = classify(o, Caps(max_subsets=156))
    assert report.codes() == classify(o).codes() == ("T1c", "T2")
    assert reverifies(o, report)


def test_classify_stops_at_the_switching_search_cap():
    # the signed K5 member's switching search places four vertices after
    # the root, each on both sides, and no branch dies before the last:
    # 1 + 2 + 4 + 8 + 16 = 31 nodes
    o = build_family(describe_k5_family())
    assert isinstance(o.bias, Signed)
    with pytest.raises(ResourceLimitError) as err:
        classify(o, Caps(max_subsets=30))
    assert err.value.stage == "balanced subgraph search"
    report = classify(o, Caps(max_subsets=31))
    assert report.codes() == classify(o).codes() == ("T2",)
    assert reverifies(o, report)


@pytest.mark.parametrize(
    "make, tests",
    [(lambda: pp_signed(6), 9), (c4_criss_cross, 10)],
    ids=["pp-signed-c6", "criss-cross-c4"],
)
def test_classify_and_decompose_stop_at_the_disjoint_pair_cap(make, tests):
    # the verdict's pair test counts one vertex set per loop, parallel
    # class and chordless cycle of the support: 9 on signed PPSigned C6,
    # whose terminal core needs 7, and 10 on the explicit CrissCross member
    o = build_family(make())
    for run in (decompose, classify):
        with pytest.raises(ResourceLimitError) as err:
            run(o, Caps(max_theta_pairs=tests - 1))
        assert err.value.stage == "disjoint-pair scan"
    assert decompose(o, Caps(max_theta_pairs=tests)).verify(o) == ()
    assert classify(o, Caps(max_theta_pairs=tests)).codes() == classify(o).codes()


# -- signed recomposition ---------------------------------------------------------


def test_recomposition_folds_match_the_explicit_construction(monkeypatch):
    # every fold recompose makes on signed input, against t_sum on explicit
    # copies of the same summands
    folds = []
    real = classify_module.t_sum

    def recording(*args, **kwargs):
        folds.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(classify_module, "t_sum", recording)
    for o in tangled_signed_inputs() + [build_family(pp_signed(k)) for k in (14, 16)]:
        assert decompose(o).verify(o) == ()
    monkeypatch.undo()
    assert len(folds) > 500
    assert {args[2] for args, _ in folds} == {1, 2, 3}
    for args, kwargs in folds:
        assert_signed_t_sum_matches_explicit(*args, **kwargs)


def test_signed_classify_makes_no_explicit_bias(monkeypatch):
    # classify accepts a signed decomposition by one switching test, and
    # recompose folds signed, so no cycle of any graph is listed; the
    # library makes explicit bias only in classify (the K5 witness)
    inputs = [build_family(pp_signed(k)) for k in range(6, 17, 2)] + signed_t_sums()
    made = []
    real_make = classify_module.make_explicit
    monkeypatch.setattr(
        classify_module, "make_explicit", lambda *args, **kwargs: made.append(args) or real_make(*args, **kwargs)
    )
    listed = []
    real_cycles = MultiGraph.cycles

    def recording(g, *args, **kwargs):
        listed.append(g)
        return real_cycles(g, *args, **kwargs)

    monkeypatch.setattr(MultiGraph, "cycles", recording)
    for o in inputs:
        report = classify(o, first=True)
        assert report.codes() == ("T3",)
        rebuilt, _, _ = report.decomposition.recompose()
        assert isinstance(rebuilt.bias, Signed)
    assert made == []
    assert listed == []


def test_signed_classify_needs_no_rebuilt_cycle_list():
    # the rebuilt PPSigned C12 has as many cycles as the input; verify's
    # final scan needs all of them, and classify, which accepts by the
    # switching test, classifies under a cap that verify cannot meet
    o = build_family(pp_signed(12))
    dec = decompose(o)
    rebuilt, _, _ = dec.recompose()
    count = len(rebuilt.cycles())
    assert count == 95
    with pytest.raises(ResourceLimitError) as err:
        dec.verify(o, Caps(max_cycles=count - 1))
    assert err.value.stage == "enumerate_cycles"
    assert dec.verify(o, Caps(max_cycles=count)) == ()
    assert classify(build_family(pp_signed(12)), Caps(max_cycles=count - 1), first=True).codes() == ("T3",)


# -- wheel cores ------------------------------------------------------------------


def diamond_ring_wheel() -> BiasedGraph:
    """Hub 0 over hinges 1, 2, 3.  Part i is h(i-1)-a-h(i)-b with chord ab,
    spoke hub-a positive and hub-b negative, and both edges of part 0 at
    hinge 1 are negative.  Part i has edge ids 7i..7i+4, spokes 7i+5, 7i+6."""
    hinges = (1, 2, 3)
    pairs: list[tuple[int, int]] = []
    negative: list[int] = []
    for i in range(3):
        h0, h1, a, b = hinges[i - 1], hinges[i], 4 + 2 * i, 5 + 2 * i
        for u, v in ((h0, a), (a, h1), (h1, b), (b, h0), (a, b)):
            if i == 0 and 1 in (u, v):
                negative.append(len(pairs))
            pairs.append((u, v))
        pairs += [(0, a), (0, b)]
        negative.append(len(pairs) - 1)
    return make_signed(MultiGraph.from_pairs(pairs), negative)


def signed_w7() -> BiasedGraph:
    """Hub 0, rim 1..7, spokes 0-6, rim edges 7-13; rim edges 7, 8, 10, 12
    and 13 negative."""
    pairs = [(0, i) for i in range(1, 8)] + [(i, i % 7 + 1) for i in range(1, 8)]
    return make_signed(MultiGraph.from_pairs(pairs), [7, 8, 10, 12, 13])


def test_diamond_ring_wheel_is_a_wheel_core():
    o = diamond_ring_wheel()
    assert (o.graph.n, o.graph.m) == (10, 21)
    dec = decompose(o)
    assert dec.nodes == () and isinstance(dec.core, WheelCore)
    roles = dec.core.descriptor.roles
    assert roles["hub"] == 0 and set(roles["hinges"]) == {1, 2, 3}
    assert set(roles["parts"]) == {frozenset(range(7 * i, 7 * i + 5)) for i in range(3)}
    assert dec.core.certificate.passed
    assert verify_family(o, dec.core.descriptor).passed
    assert classify(o, first=True).codes() == ("T1b",)


def test_signed_w7_peels_to_a_wheel_core():
    o = signed_w7()
    dec = decompose(o)
    assert len(dec.nodes) == 2 and isinstance(dec.core, WheelCore)
    roles = dec.core.descriptor.roles
    assert roles["hub"] == 0 and set(roles["hinges"]) == {1, 2, 5, 6}
    # two real rim edges and the two virtual edges the peels left
    assert set(roles["parts"]) == {frozenset({7}), frozenset({11}), frozenset({16}), frozenset({19})}
    assert dec.core.certificate.passed
    assert dec.verify(o) == ()


# -- one cycle list per graph ------------------------------------------------------


@pytest.fixture
def enumerated(monkeypatch) -> list[MultiGraph]:
    """Every graph enumerate_cycles runs on, in call order.  Holding each
    graph keeps its id from being reused while the test runs."""
    graphs: list[MultiGraph] = []
    real = graph_module.enumerate_cycles

    def recording(g, *args, **kwargs):
        graphs.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(graph_module, "enumerate_cycles", recording)
    return graphs


def _enumerated_twice(graphs: list[MultiGraph]) -> list[MultiGraph]:
    return [g for i, g in enumerate(graphs) if any(g is h for h in graphs[:i])]


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_family(describe_k5_family()),
        lambda: build_family(consecutive_tricoloured()),
        lambda: t_sums()[2],
    ],
    ids=["k5", "tricoloured-consecutive", "tsum3-fatk4-k4"],
)
def test_classify_enumerates_each_graph_once(make, enumerated):
    o = relabelled(make(), random.Random(1))
    report = classify(o)
    assert report.labels
    assert _enumerated_twice(enumerated) == []
    assert sum(g is o.graph for g in enumerated) == 1
    calls = len(enumerated)
    assert reverifies(o, report)
    assert len(enumerated) == calls


@pytest.mark.parametrize("index", range(6))
def test_decompose_enumerates_each_peeled_core_once(index, enumerated, monkeypatch):
    o = corpus_t_sums()[index]
    cores: list[MultiGraph] = []
    real_peel = classify_module._peel

    def recording_peel(*args):
        out = real_peel(*args)
        cores.append(out[0].graph)
        return out

    monkeypatch.setattr(classify_module, "_peel", recording_peel)
    del enumerated[:]
    decompose(o)
    assert cores
    assert _enumerated_twice(enumerated) == []
    # no core bias stores a cycle list, and these cores are no wheels
    assert not any(g is core for core in cores for g in enumerated)


@pytest.mark.parametrize("index", range(6))
def test_recomposition_enumerates_no_peeled_leaf(index, enumerated):
    # a peeled leaf is all-balanced, so t_sum needs none of its cycles
    o = corpus_t_sums()[index]
    dec = decompose(o)
    del enumerated[:]
    assert dec.verify(o) == ()
    assert not any(g is node.leaf.graph for node in dec.nodes for g in enumerated)


# -- inputs that used to fail ------------------------------------------------------


def test_roadmap_n9_classifies():
    # the criss-cross planner used to let a GraphError escape on this input
    pairs = [(0, 7), (1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (4, 6), (5, 6), (5, 7), (6, 7), (6, 8)]
    o = make_signed(MultiGraph.from_pairs(pairs), {0, 2, 5, 11})
    report = classify(o)
    assert report.codes() == ("T1d", "T1f", "T1g", "T3")
    assert reverifies(o, report)


# -- balance of explicit bias from fundamental cycles ------------------------------


def explicit_copy(o: BiasedGraph) -> BiasedGraph:
    return make_explicit(o.graph, o.balanced_cycles())


def explicit_corpus_members() -> list[BiasedGraph]:
    """The family members of the benchmark corpus that carry explicit bias."""
    members = [build_family(d) for d in bench_module("corpus").family_descriptors().values()]
    return [o for o in members if isinstance(o.bias, ExplicitSet)]


def assert_balance_without_matches_the_cycle_list(o: BiasedGraph, most: int) -> int:
    """Compare the fundamental-cycle test with the cycle list of o - X for
    every X of at most `most` vertices; returns how many X leave o
    unbalanced."""
    unbalanced = 0
    for k in range(most + 1):
        for removed in itertools.combinations(o.graph.vertices, k):
            definition = not any(not o.balance(c) for c in o.delete_vertices(removed).cycles())
            assert balanced_without(o, removed) == definition
            unbalanced += not definition
    return unbalanced


def test_balance_without_vertices_matches_the_cycle_list_on_explicit_input():
    # the corpus's explicit members (none a signed graph in disguise) and
    # explicit copies of the tangled signed inputs
    members = explicit_corpus_members()
    assert len(members) == 13
    copies = [explicit_copy(o) for o in tangled_signed_inputs()]
    unbalanced = sum(assert_balance_without_matches_the_cycle_list(o, 2) for o in members + copies)
    assert unbalanced > 5000


def test_pair_test_matches_the_pair_scan_on_explicit_input(monkeypatch):
    # every explicit corpus member and every core peeled off explicit
    # input; all are tangled, so both pair tests must say no, and the
    # balance of o - X for |X| <= 1 is compared as well
    cores = []
    real_peel = classify_module._peel

    def recording_peel(*args):
        out = real_peel(*args)
        cores.append(out[0])
        return out

    monkeypatch.setattr(classify_module, "_peel", recording_peel)
    members = explicit_corpus_members()
    inputs = [o for o in corpus_t_sums() if isinstance(o.bias, ExplicitSet)]
    inputs += [explicit_copy(build_family(pp_signed(k))) for k in (6, 8, 10, 12)]
    inputs += [explicit_copy(o) for o in tangled_signed_inputs()[::10]]
    for o in members + inputs:
        decompose(o)
    # a peel at a cut vertex keeps the explicit set, any other is lazy
    assert all(isinstance(core.bias, (ExplicitSet, Lifted)) for core in cores)
    assert sum(isinstance(core.bias, Lifted) for core in cores) > 40
    for o in members + cores:
        assert disjoint_unbalanced_pair_exists(o) == (find_disjoint_unbalanced_pair(o) is not None)
        assert_balance_without_matches_the_cycle_list(o, 1)


def test_pair_test_on_an_explicit_core_counts_vertex_sets():
    # the terminal core of explicit PPSigned C8 is K5 with two doubled
    # edges: 2 parallel classes and 10 chordless triangles, and as the
    # core is tangled, no set leaves a pair and all 12 are tested
    core = decompose(explicit_copy(build_family(pp_signed(8)))).core.bias
    assert isinstance(core.bias, Lifted) and core.graph.n == 5
    with pytest.raises(ResourceLimitError) as err:
        disjoint_unbalanced_pair_exists(core, Caps(max_theta_pairs=11))
    assert err.value.stage == "disjoint-pair scan"
    assert not disjoint_unbalanced_pair_exists(core, Caps(max_theta_pairs=12))


def assert_explicit_pp_signed_classifies(k: int) -> None:
    o = build_family(pp_signed(k))
    copy = explicit_copy(o)
    report = classify(copy, first=True)
    assert report.codes() == classify(o, first=True).codes()
    assert report.decomposition.verify(copy) == ()


def test_explicit_pp_signed_c12_classifies_as_the_signed_copy():
    assert_explicit_pp_signed_classifies(12)


@pytest.mark.parametrize("k", [18, 20, 24])
def test_explicit_pp_signed_classifies_as_the_signed_copy(k):
    # these used to raise at the cap of the scan of unbalanced-cycle pairs,
    # and then to list every cycle of each peeled core and each fold
    assert_explicit_pp_signed_classifies(k)


def test_explicit_classify_lists_only_the_rebuilt_graph(monkeypatch):
    # peels and folds of explicit input list nothing: the one cycle list
    # of classify(first=True) is verify's scan of the rebuilt graph, as
    # long as the input's
    copy = explicit_copy(build_family(pp_signed(16)))
    listed = []
    real_cycles = MultiGraph.cycles

    def recording(g, *args, **kwargs):
        listed.append(g)
        return real_cycles(g, *args, **kwargs)

    monkeypatch.setattr(MultiGraph, "cycles", recording)
    report = classify(copy, first=True)
    assert report.codes() == ("T3",)
    assert len(listed) == 1 and len(real_cycles(listed[0])) == len(real_cycles(copy.graph)) == 313


@pytest.mark.wall
def test_signed_pp_signed_c32_classifies():
    report = classify(build_family(pp_signed(32)), first=True)
    assert report.codes() == ("T3",)


# -- lazy peels and folds against the explicit constructions ----------------------


def test_corpus_t_sums_round_trip_through_io():
    # a lazy sum is written as its balanced cycles, listed once
    kinds = []
    for args in corpus_t_sum_args():
        o = t_sum(*args)
        kinds.append(type(o.bias))
        loaded = io.load(io.serialize(io.document_from(o)))
        assert loaded.graph == o.graph
        expected = oracle_t_sum(*args)
        assert {c.edge_set for c in loaded.balanced_cycles()} == {c.edge_set for c in expected.bias.balanced}
    assert kinds == [Lifted] * 3 + [Signed] * 2 + [Lifted]


def tangled_gain_sum_args(count: int) -> list[tuple]:
    """Seeded t_sum arguments, t = 1, 2, 3, whose sum is tangled: a tangled
    Z_k-gain graph (k = 3, 4, 5) on five to seven vertices and K4 plus one
    doubled edge with every cycle listed as balanced, glued where the shared
    triangle is balanced."""
    rng = random.Random(67)
    out: list[tuple] = []
    while len(out) < count:
        n = rng.randint(5, 7)
        allp = list(itertools.combinations(range(n), 2))
        g = MultiGraph.from_pairs(rng.sample(allp, min(len(allp), rng.randint(n + 3, 2 * n + 2))), range(n))
        if not g.is_connected():
            continue
        o1 = gain_bias(g, rng.choice((3, 4, 5)), rng)
        if not isinstance(is_tangled(o1), Tangled):
            continue
        t = rng.choice((1, 2, 3))
        vs = rng.sample(range(n), t)
        kt = [g.edges_between(u, v) for u, v in itertools.combinations(vs, 2)]
        if not all(kt) or (t == 3 and not o1.balance_of(frozenset(min(es) for es in kt))):
            continue
        g2 = MultiGraph.from_pairs(list(itertools.combinations(range(4), 2)) + [(0, 1)])
        args = (o1, make_explicit(g2, g2.cycles()), t, list(zip(vs, rng.sample(range(4), t))))
        if isinstance(is_tangled(t_sum(*args)), Tangled):
            out.append(args)
    return out


def assert_lazy_matches_the_explicit(lazy: BiasedGraph, explicit: BiasedGraph) -> None:
    assert isinstance(lazy.bias, Lifted)
    assert lazy.graph == explicit.graph
    balanced = lazy.balanced_cycles()
    assert {c.edge_set for c in balanced} == {c.edge_set for c in explicit.balanced_cycles()}
    assert validate_theta(lazy.graph, balanced) == ()


def test_lazy_cores_and_folds_match_the_explicit_constructions(monkeypatch):
    # tangled t-sums of Z_k-gain graphs, whose second summand is stored
    # explicitly; then every core peeled at a cut of two or three vertices,
    # and every fold of the recomposition, of these sums, the explicit
    # corpus members and explicit copies of the tangled signed inputs
    gains = []
    for args in tangled_gain_sum_args(60):
        gains.append(t_sum(*args))
        assert_lazy_matches_the_explicit(gains[-1], oracle_t_sum(*args))
    peels, folds = [], []
    real_peel, real_sum = classify_module._peel, classify_module.t_sum

    def recording_peel(cur, tags, vc, bridge, node_id):
        out = real_peel(cur, tags, vc, bridge, node_id)
        if vc.size > 1:
            peels.append((cur, vc.cut, bridge.edges, out[0]))
        return out

    def recording_sum(*args, **kwargs):
        out = real_sum(*args, **kwargs)
        folds.append((args, kwargs, out))
        return out

    monkeypatch.setattr(classify_module, "_peel", recording_peel)
    monkeypatch.setattr(classify_module, "t_sum", recording_sum)
    for o in gains + explicit_corpus_members() + [explicit_copy(o) for o in tangled_signed_inputs()]:
        assert decompose(o).verify(o) == ()
    monkeypatch.undo()
    assert len(peels) > 300 and len(folds) > 400
    assert {args[2] for args, _, _ in folds} == {1, 2, 3}
    for cur, cut, edges, core in peels:
        assert_lazy_matches_the_explicit(core, oracle_explicit_core(cur, cut, edges))
    for args, kwargs, lazy in folds:
        assert_lazy_matches_the_explicit(lazy, oracle_t_sum(*args, **kwargs))


# -- SumDecomposition.verify on tampered decompositions ----------------------------


def tampered(dec, bias: BiasedGraph):
    return dataclasses.replace(dec, core=dataclasses.replace(dec.core, bias=bias))


def core_virtual_edges(dec) -> list[int]:
    return sorted(e for e, tag in dec.core.origins.items() if tag[0] == "virt")


def test_verify_reports_a_flipped_virtual_edge_of_a_signed_core():
    # the K5 member's corpus 2-sum peels at one 2-cut; negating its
    # virtual edge flips every rebuilt cycle that runs through the leaf
    o = corpus_t_sums()[4]
    dec = decompose(o)
    core = dec.core.bias
    assert isinstance(core.bias, Signed) and [node.t for node in dec.nodes] == [2]
    (ve,) = core_virtual_edges(dec)
    bad = tampered(dec, BiasedGraph(core.graph, Signed(core.bias.signature ^ {ve})))
    assert dec.verify(o) == ()
    assert bad.verify(o) == ("cycle through original edges [1, 4, 10, 11] changes balance",)


def test_switching_test_and_verify_agree():
    # on the signed t-sums and PPSigned C6 to C24, as decomposed, with each
    # core edge flipped in turn, and on the tampered case above
    decs = [(o, decompose(o)) for o in signed_t_sums() + [build_family(pp_signed(k)) for k in range(6, 25, 2)]]
    cases = list(decs)
    for o, dec in decs[:6]:
        core = dec.core.bias
        cases += [
            (o, tampered(dec, BiasedGraph(core.graph, Signed(core.bias.signature ^ {e}))))
            for e in sorted(core.graph.edge_id_set)
        ]
    o = corpus_t_sums()[4]
    dec = decompose(o)
    core = dec.core.bias
    cases.append((o, tampered(dec, BiasedGraph(core.graph, Signed(core.bias.signature ^ set(core_virtual_edges(dec)))))))
    accepted = 0
    for o, dec in cases:
        ok = _switching_accepts(dec, o)
        assert ok == (dec.verify(o) == ())
        accepted += ok
    assert accepted == len(decs) and len(cases) - accepted > 50


def test_verify_reports_a_dropped_balanced_cycle_of_an_explicit_core():
    # the FatTriangle's 2-sum peels at one 2-cut; dropping the balanced
    # core triangle through its virtual edge from the lazy core's balanced
    # cycles keeps the theta property but unbalances the rebuilt cycles
    # through the leaf
    o = corpus_t_sums()[1]
    dec = decompose(o)
    core = dec.core.bias
    assert isinstance(core.bias, Lifted) and [node.t for node in dec.nodes] == [2]
    (ve,) = core_virtual_edges(dec)
    balanced = frozenset(core.balanced_cycles())
    through = sorted((c for c in balanced if ve in c.edge_set), key=lambda c: c.sort_key())
    dropped = BiasedGraph(core.graph, ExplicitSet(balanced - {through[0]}))
    assert validate_theta(core.graph, dropped.bias.balanced) == ()
    bad = tampered(dec, dropped)
    assert dec.verify(o) == ()
    assert bad.verify(o) == ("cycle through original edges [1, 2, 6, 7] changes balance",)
