"""Classifier: family round trips, its searches against their oracles, caps."""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import math
import random
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from tanglekit import io
from tanglekit.bias import (
    BiasedGraph,
    ExplicitSet,
    Lifted,
    Signed,
    balanced_without,
    complete_bias,
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
    _Bases,
    _detect_criss_cross,
    _detect_fat_triangle,
    _detect_generalized_wheel,
    _detect_pp_signed,
    _detect_special_pair,
    _detect_special_triple,
    _detect_special_vertex,
    _detect_tricoloured,
    _maximal_balanced_sets,
    _pairing_search,
    _recomposes,
    _ring_layouts,
    _tree_closure,
    _tricoloured_bias_holds,
    _weak_compositions,
    classify,
    decompose,
)
from tanglekit.families import (
    FamilyDescriptor,
    _plan,
    build_family,
    describe_k5_family,
    describe_pp_signed,
    t_sum,
    verify_family,
)
from tanglekit.graph import MultiGraph, cycles_with, find_vertex_cuts, is_two_connected
from tanglekit.limits import DEFAULT_CAPS, Budget, Caps, ResourceLimitError
from tanglekit.tangles import (
    Tangled,
    disjoint_unbalanced_pair_exists,
    is_tangled,
)

import oracles as oracles_module
from census import switching_classes
from oracles import (
    OracleRingLayout,
    connected_graph_census,
    oracle_complete_bias,
    oracle_decompose,
    oracle_detect_criss_cross,
    oracle_detect_fat_triangle,
    oracle_detect_generalized_wheel,
    oracle_detect_pp_signed,
    oracle_detect_special_pair,
    oracle_detect_special_triple,
    oracle_detect_special_vertex,
    oracle_detect_tricoloured,
    oracle_disjoint_unbalanced_pair,
    oracle_explicit_core,
    oracle_extract_wheel,
    oracle_layout_tricoloured,
    oracle_maximal_balanced_sets,
    oracle_pairing_search,
    oracle_switching_balanced_sets,
    oracle_t_sum,
    random_connected_pairs,
    random_multigraph,
)
from test_tangles import gain_bias, non_signed_inputs
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
    random_fat_triangle,
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
        hit = _detect_tricoloured(o, DEFAULT_CAPS, _Bases(o, DEFAULT_CAPS))
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
    assert _detect_tricoloured(o, DEFAULT_CAPS, _Bases(o, DEFAULT_CAPS)) is None
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
        _detect_tricoloured(o, Caps(max_assignments=50), _Bases(o, DEFAULT_CAPS))
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
        hit = _detect_tricoloured(o, DEFAULT_CAPS, _Bases(o, DEFAULT_CAPS))
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
    assert _detect_tricoloured(o, DEFAULT_CAPS, _Bases(o, DEFAULT_CAPS)) is None
    assert layouts == []
    assert len(tested) == 1 and tested[0] is o.graph


def test_tricoloured_degree_gates_cut_the_steps_on_a_t_sum(monkeypatch):
    counters = []

    class Recording(Budget):
        def __init__(self, *args):
            super().__init__(*args)
            counters.append(self)

    monkeypatch.setattr(classify_module, "Budget", Recording)
    # tsum2-k5-k3; 1,197 steps before the degree gates
    o = corpus_t_sums()[4]
    assert _detect_tricoloured(o, DEFAULT_CAPS, _Bases(o, DEFAULT_CAPS)) is None
    assert [c.spent for c in counters] == [162]


def test_bias_verdicts_depend_on_the_part_edge_set():
    # the triangles over edges 0, 1, 2 (balanced) and 0, 1, 3 (unbalanced)
    # share the chord pair 0, 1; only the part edges tell them apart
    o = make_signed(MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0), (2, 0)]), [3])
    none = frozenset()
    for part, same, cross in ((frozenset({2}), True, False), (frozenset({3}), False, True)) * 2:
        pe6 = (part, none, none, part, none, none)
        holds = (
            _tricoloured_bias_holds(o, pe6, [(0, 1), None, None, None, None, None], [0], DEFAULT_CAPS),
            _tricoloured_bias_holds(o, pe6, [(0,), (1,), None, None, None, None], [0, 1], DEFAULT_CAPS),
        )
        assert holds == (same, cross)


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
    o = build_family(pp_signed(12))
    assert _detect_tricoloured(o, DEFAULT_CAPS, _Bases(o, DEFAULT_CAPS)) is None
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


def parity_law_holds(o: BiasedGraph, cross: frozenset[int]) -> bool:
    return all(o.balance(c) == (len(c.edge_set & cross) % 2 == 0) for c in o.cycles())


def test_tree_closure_gives_the_parity_verdict_of_the_first_maximal_balanced_set():
    # the PPSigned search tests the parity law on the closure of a spanning
    # tree, which is one maximal balanced set, where it used the first:
    # Z_k-gain and all-unbalanced biases with loops and digons, the
    # explicit members and their edge deletions, the explicit corpus
    # members, the lazy t-sums and the explicit classify workload inputs
    # under relabelling seeds 1 to 3
    corpus = bench_module("corpus")
    inputs = non_signed_inputs() + explicit_corpus_members() + t_sums()
    for text in classify_workload_documents().values():
        inputs += [io.load(corpus.relabel(text, random.Random(seed)).text) for seed in (1, 2, 3)]
    verdicts = Counter()
    for o in inputs:
        if isinstance(o.bias, Signed):
            continue
        msets = _maximal_balanced_sets(o)
        closure = _tree_closure(o)
        assert closure in msets
        edges = o.graph.edge_id_set
        law = parity_law_holds(o, edges - closure)
        assert law == parity_law_holds(o, edges - msets[0])
        verdicts[law] += 1
    assert verdicts == {True: 190, False: 272}


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
    bases = _Bases(o, DEFAULT_CAPS)
    calls = []
    monkeypatch.setattr(classify_module, "verify_family", lambda *args: calls.append(args))
    assert detector(o, DEFAULT_CAPS, bases) is None
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
    bases = _Bases(o, DEFAULT_CAPS)
    with pytest.raises(ResourceLimitError) as err:
        _detect_generalized_wheel(o, Caps(max_assignments=50), bases)
    assert err.value.stage == "generalized-wheel search"
    assert _detect_generalized_wheel(o, DEFAULT_CAPS, bases) is None


def test_special_vertex_search_stops_at_its_cap():
    # the member's first candidate verifies, so one assignment is enough
    o = build_family(minimal_special_vertex())
    bases = _Bases(o, DEFAULT_CAPS)
    with pytest.raises(ResourceLimitError) as err:
        _detect_special_vertex(o, Caps(max_assignments=0), bases)
    assert err.value.stage == "special-vertex search"
    assert _detect_special_vertex(o, Caps(max_assignments=1), bases) is not None


def classify_workload_documents() -> dict[str, str]:
    """The document of every input of the classify-first and classify-full workloads."""
    workloads = bench_module("workloads")
    meter = types.SimpleNamespace(call=lambda _name, f, *args: f(*args))
    return {case.name: case.text for first in (True, False) for case in workloads.Classify(0, first).setup(meter)}


def relabelled_workload_inputs() -> list[BiasedGraph]:
    """Every input of both classify workloads under relabelling seeds 1 to 3."""
    corpus = bench_module("corpus")
    return [
        io.load(corpus.relabel(text, random.Random(seed)).text)
        for text in classify_workload_documents().values()
        for seed in (1, 2, 3)
    ]


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


def test_pairing_search_refuses_a_base_too_dense_to_be_planar():
    # a simple planar graph on n >= 3 vertices has at most 3n - 6 edges, so
    # no face of this base holds a pairing; the search without the bound
    # counts a candidate before it embeds the base
    rng = random.Random(5)
    pairs = random_connected_pairs(rng, 9, 33)
    o = make_signed(MultiGraph.from_pairs(pairs), [e for e in range(len(pairs)) if rng.random() < 0.5])
    m = _maximal_balanced_sets(o)[0]
    assert len(m) > 3 * 9 - 6
    assert _pairing_search(o, m, Caps(max_assignments=0)) is None
    with pytest.raises(ResourceLimitError):
        oracle_pairing_search(o, m, Caps(max_assignments=0))


def test_maximal_balanced_sets_span_and_close_no_balanced_cycle_with_a_residual_edge():
    # the PP searches test neither: every maximal balanced set m spans a
    # connected input, and an edge outside m closes only unbalanced
    # cycles with it (the proof is in _star_bias_holds)
    inputs = [*switching_classes(range(3, 6)), *map(io.load, classify_workload_documents().values())]
    residuals = 0
    for o in inputs:
        g = o.graph
        for m in _maximal_balanced_sets(o):
            assert g.subgraph(m).vertex_set == g.vertex_set
            for e in g.edge_id_set - m:
                assert not any(o.balance(c) for c in cycles_with(g, {e}, m))
                residuals += 1
    assert (len(inputs), residuals) == (242, 10866)


def test_pairing_search_stops_at_its_cap():
    # the first boundary pairing tried verifies, so one ordering is enough
    d = pp_signed(6)
    o = build_family(d)
    bases = _Bases(o, DEFAULT_CAPS)
    with pytest.raises(ResourceLimitError) as err:
        _detect_pp_signed(o, Caps(max_assignments=0), bases)
    assert err.value.stage == "planar boundary pairing search"
    hit = _detect_pp_signed(o, Caps(max_assignments=1), bases)
    assert hit is not None and hit[0].kind == "PPSigned"
    assert verify_family(o, hit[0]).passed


def test_decompose_stops_at_the_vertex_cut_cap():
    # the input has no cut of size two or less, so its cut search makes
    # 1 + 6 + 15 lowpoint passes; its peels are at 3-cuts, which carry
    # their cuts to the core with no pass
    o = build_family(pp_signed(6))
    with pytest.raises(ResourceLimitError) as err:
        decompose(o, Caps(max_subsets=21))
    assert err.value.stage == "find_vertex_cuts"
    assert decompose(o, Caps(max_subsets=22)).verify(o) == ()


def test_carried_cut_passes_count_against_the_vertex_cut_cap():
    # the fat triangle 1-summed with a triangle at vertex 0: the cut search
    # makes 1 + 4 + 6 passes, and the peel at the cut vertex 0 leaves the
    # fat triangle H, whose cuts take three more, one on H - 0 and one on
    # H - 0 - v for each of its other two vertices v
    o = corpus_t_sums()[0]
    with pytest.raises(ResourceLimitError) as err:
        decompose(o, Caps(max_subsets=13))
    assert err.value.stage == "find_vertex_cuts"
    dec = decompose(o, Caps(max_subsets=14))
    assert [node.cut for node in dec.nodes] == [(0,)]
    assert dec.verify(o) == ()


def test_decompose_searches_for_vertex_cuts_once(monkeypatch):
    searched = []
    real = classify_module._vertex_cut_search
    monkeypatch.setattr(classify_module, "_vertex_cut_search", lambda g, *args: searched.append(g) or real(g, *args))
    o = build_family(pp_signed(16))
    dec = decompose(o)
    assert len(dec.nodes) == 7
    assert searched == [o.graph]


def test_decompose_carries_side_balance_to_each_core(monkeypatch):
    # the peel loop with a fresh cut search tests 70 sides of PPSigned C16;
    # carried verdicts leave the sides of new cuts and never-tested sides
    o = build_family(pp_signed(16))
    tested = []
    real = BiasedGraph.restrict_edges
    monkeypatch.setattr(BiasedGraph, "restrict_edges", lambda b, *args: tested.append(b) or real(b, *args))
    classify_module._decompose(o, DEFAULT_CAPS)
    assert len(tested) == 23
    tested.clear()
    oracle_decompose(o)
    assert len(tested) == 70


def decomposition_record(dec) -> tuple:
    """Every node's cut, order, virtual edges, leaf edges and leaf origins,
    and the terminal core's kind, edges, tags and wheel roles."""
    core = dec.core
    return (
        [(n.node_id, n.t, n.cut, n.virtual_edges, n.leaf.graph.edge_map, n.leaf_origins) for n in dec.nodes],
        type(core).__name__,
        core.bias.graph.edge_map,
        core.origins,
        core.descriptor.roles if isinstance(core, WheelCore) else None,
    )


def assert_decompose_matches_the_fresh_cut_search(inputs: list[BiasedGraph]) -> int:
    peels = 0
    for o in inputs:
        dec = decompose(o)
        assert decomposition_record(dec) == decomposition_record(oracle_decompose(o))
        peels += len(dec.nodes)
    return peels


def tangled_census(sizes) -> list[BiasedGraph]:
    return [o for o in switching_classes(sizes) if isinstance(is_tangled(o), Tangled)]


def test_decompose_matches_the_peel_loop_with_a_fresh_cut_search():
    # the census on three to five vertices, every classify workload input
    # under relabelling seeds 1 to 3, signed W7 under the identity and
    # relabelling seeds 0 to 7, and signed and explicit PPSigned C8 to C16
    inputs = tangled_census(range(3, 6)) + relabelled_workload_inputs()
    w7 = signed_w7()
    inputs += [w7] + [relabelled(w7, random.Random(seed)) for seed in range(8)]
    members = [build_family(pp_signed(k)) for k in range(8, 17, 2)]
    inputs += members + [explicit_copy(o) for o in members]
    assert len(inputs) == 61 + 3 * 28 + 9 + 10
    assert assert_decompose_matches_the_fresh_cut_search(inputs) == 191


@pytest.mark.wall
def test_decompose_matches_the_peel_loop_with_a_fresh_cut_search_on_six_vertices():
    inputs = tangled_census([6])
    assert len(inputs) == 851 - 61
    assert assert_decompose_matches_the_fresh_cut_search(inputs) == 1007


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


# -- CrissCross, PPSigned, FatTriangle and the PP specials against earlier searches --


FILTERED = [
    (_detect_criss_cross, oracle_detect_criss_cross),
    (_detect_pp_signed, oracle_detect_pp_signed),
    (_detect_fat_triangle, oracle_detect_fat_triangle),
    (_detect_special_vertex, oracle_detect_special_vertex),
    (_detect_special_pair, oracle_detect_special_pair),
    (_detect_special_triple, oracle_detect_special_triple),
]
PP_SPECIAL = FILTERED[3:]


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
        bases = _Bases(o, DEFAULT_CAPS)
        for detector, oracle in FILTERED:
            hit = detector(o, DEFAULT_CAPS, bases)
            expected = oracle(o, DEFAULT_CAPS, bases)
            assert (hit is None) == (expected is None)
            if hit is not None:
                assert hit[0].roles == expected[0].roles
                assert hit[1].passed and hit[2] is None
                hits[detector.__name__] += 1
    # no signed input is a CrissCross member
    assert hits == {
        "_detect_criss_cross": 4,
        "_detect_pp_signed": 161,
        "_detect_fat_triangle": 117,
        "_detect_special_vertex": 1,
        "_detect_special_pair": 240,
        "_detect_special_triple": 239,
    }


def test_pp_special_searches_send_the_scans_candidates_on_the_classify_workloads(monkeypatch):
    # every input of both classify workloads under relabelling seeds 1 to 3:
    # the same candidates reach verify_family in the same order, so the
    # first hit is the scan's
    corpus = bench_module("corpus")
    sent = {classify_module: [], oracles_module: []}
    for module, calls in sent.items():
        real = module.verify_family
        monkeypatch.setattr(
            module, "verify_family", lambda o, d, caps, real=real, calls=calls: calls.append(d.roles) or real(o, d, caps)
        )
    hits, candidates = Counter(), Counter()
    for text in classify_workload_documents().values():
        for seed in (1, 2, 3):
            o = io.load(corpus.relabel(text, random.Random(seed)).text)
            bases = _Bases(o, DEFAULT_CAPS)
            for detector, oracle in PP_SPECIAL:
                for calls in sent.values():
                    calls.clear()
                hit = detector(o, DEFAULT_CAPS, bases)
                expected = oracle(o, DEFAULT_CAPS, bases)
                assert sent[classify_module] == sent[oracles_module]
                assert (hit is None) == (expected is None)
                if hit is not None:
                    assert hit[0].roles == expected[0].roles
                    hits[detector.__name__] += 1
                candidates[detector.__name__] += len(sent[classify_module])
    assert hits == {"_detect_special_vertex": 3, "_detect_special_pair": 51, "_detect_special_triple": 51}
    assert candidates == {"_detect_special_vertex": 3, "_detect_special_pair": 87, "_detect_special_triple": 87}


def test_special_vertex_search_stops_where_the_scan_does(monkeypatch):
    # the split of each base is made once for four orientations; the cap
    # still counts every leg permutation the scan tries, to a hit or a miss
    counters = []

    class Recording(Budget):
        def __init__(self, *args):
            super().__init__(*args)
            counters.append(self)

    monkeypatch.setattr(oracles_module, "Budget", Recording)
    tried: dict[bool, list[int]] = {True: [], False: []}
    for o in filter_inputs():
        bases = _Bases(o, DEFAULT_CAPS)
        counters.clear()
        expected = oracle_detect_special_vertex(o, DEFAULT_CAPS, bases)
        c = counters[0].spent
        if not c:
            continue
        for detector in (_detect_special_vertex, oracle_detect_special_vertex):
            with pytest.raises(ResourceLimitError) as err:
                detector(o, Caps(max_assignments=c - 1), bases)
            assert err.value.stage == "special-vertex search"
            assert (detector(o, Caps(max_assignments=c), bases) is None) == (expected is None)
        tried[expected is not None].append(c)
    # the member hits at its first candidate; 32 misses try 2,008
    assert (tried[True], len(tried[False]), sum(tried[False])) == ([1], 32, 2008)


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
    bases = _Bases(o, DEFAULT_CAPS)
    made = []
    real = classify_module.verify_family
    monkeypatch.setattr(classify_module, "verify_family", lambda *args: made.append(args) or real(*args))
    hit = _detect_criss_cross(o, DEFAULT_CAPS, bases)
    assert len(made) == calls
    assert (hit is not None) == bool(calls)


@pytest.mark.parametrize("d", [describe_k5_family, c4_criss_cross])
def test_fat_triangle_search_builds_no_doomed_candidate(d, monkeypatch):
    # the unfiltered search sent each of these ten candidates, none with a
    # base E - fat inside a maximal balanced set
    o = build_family(d())
    bases = _Bases(o, DEFAULT_CAPS)
    calls = []
    monkeypatch.setattr(classify_module, "verify_family", lambda *args: calls.append(args))
    assert _detect_fat_triangle(o, DEFAULT_CAPS, bases) is None
    assert calls == []


def test_fat_triangle_search_reads_residuals_off_the_classes():
    # the census on three to five vertices and every classify workload
    # input under relabelling seeds 1 to 3: the first hit of the search
    # over the residuals of every maximal balanced set, with no maximal
    # balanced set of a non-signed input listed
    inputs = list(switching_classes(range(3, 6))) + relabelled_workload_inputs()
    hits = non_signed = 0
    for o in inputs:
        bases = _Bases(o, DEFAULT_CAPS)
        hit = _detect_fat_triangle(o, DEFAULT_CAPS, bases)
        if not isinstance(o.bias, Signed):
            non_signed += 1
            assert bases._sets is None
        expected = oracle_detect_fat_triangle(o, DEFAULT_CAPS, _Bases(o, DEFAULT_CAPS))
        assert (hit and hit[0].roles) == (expected and expected[0].roles)
        hits += hit is not None
    assert (len(inputs), non_signed, hits) == (214 + 3 * 28, 48, 93)


@pytest.mark.parametrize("d", [minimal_special_vertex, k4_fat_triangle, minimal_special_pair])
def test_pp_signed_search_skips_a_bias_that_is_no_signature(d, monkeypatch):
    # explicit members whose bias is Signed(E - m) for no base m: the
    # unfiltered search ran a pairing search and ordered_planarity on each
    o = build_family(d())
    bases = _Bases(o, DEFAULT_CAPS)
    calls = []
    for name in ("_pairing_search", "ordered_planarity"):
        real = getattr(classify_module, name)
        monkeypatch.setattr(
            classify_module, name, lambda *args, real=real, **kwargs: calls.append(args) or real(*args, **kwargs)
        )
    assert _detect_pp_signed(o, DEFAULT_CAPS, bases) is None
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
    # the CrissCross wheel's sets take about a thousand nodes, and no
    # detector up to its first hit lists them: a first run classifies
    # under a cap that the full battery, which lists them, cannot meet
    o = build_family(wheel_criss_cross())
    report = classify(o, Caps(max_subsets=50), first=True)
    assert (report.codes(), report.capped) == (("T1c",), ())
    assert reverifies(o, report)
    with pytest.raises(ResourceLimitError) as err:
        classify(o, Caps(max_subsets=50))
    assert err.value.stage == "balanced subgraph search"


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
    "d, caps, codes, kind",
    [
        (lambda: pp_signed(6), Caps(max_assignments=50), ("T1a", "T1b", "T1f", "T1g", "T3"), "Tricoloured"),
        (c4_part_wheel, Caps(max_assignments=5), ("T1d", "T1f", "T1g", "T3"), "GeneralizedWheel"),
    ],
    ids=["pp-signed-c6", "wheel-c4-part"],
)
def test_classify_names_the_searches_a_cap_stopped(d, caps, codes, kind):
    # the cap stops one detector's search and the battery goes on: the
    # report lacks that detector's label and names its kind
    o = build_family(d())
    report = classify(o, caps)
    assert (report.codes(), report.capped) == (codes, (kind,))
    assert reverifies(o, report)
    full = classify(o)
    assert full.capped == () and set(full.codes()) - set(codes) == {_CODES[kind]}
    # a first run stops at the T3 label before any detector runs
    assert classify(o, caps, first=True).capped == classify(o, first=True).capped == ()
    balanced = make_signed(MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0)]), ())
    assert classify(balanced, caps).capped == ()


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


def test_wheel_core_extraction_stops_at_the_assignment_cap():
    # the peel loop runs no other search counted against max_assignments,
    # so the wheel reader's first candidate is the one that passes the cap
    with pytest.raises(ResourceLimitError) as err:
        decompose(signed_w7(), Caps(max_assignments=0))
    assert (err.value.stage, err.value.limit) == ("wheel-core extraction", 0)


# -- wheel splits read off standard partitions ------------------------------------


def test_wheel_search_returns_the_split_search_hit():
    # every classify workload input under relabelling seeds 1 to 3, and
    # the census on three to five vertices
    corpus = bench_module("corpus")
    inputs = [
        io.load(corpus.relabel(text, random.Random(seed)).text)
        for text in classify_workload_documents().values()
        for seed in (1, 2, 3)
    ]
    hits = Counter()
    for source, graphs in (("workloads", inputs), ("census", switching_classes(range(3, 6)))):
        for o in graphs:
            bases = _Bases(o, DEFAULT_CAPS)
            hit = _detect_generalized_wheel(o, DEFAULT_CAPS, bases)
            expected = oracle_detect_generalized_wheel(o, DEFAULT_CAPS, bases)
            assert (hit is None) == (expected is None)
            if hit is not None:
                assert hit[0].roles == expected[0].roles
                assert hit[1].passed and hit[2] is None
                hits[source] += 1
    assert hits == {"workloads": 39, "census": 71}


def test_wheel_cores_match_the_side_partition_extraction(monkeypatch):
    # the same hub, hinges and parts; X and Y may trade places within a
    # part, as the reader puts the least attachment in X
    swapped = wheels = 0
    for make in (diamond_ring_wheel, signed_w7):
        for seed in range(4):
            o = make() if seed == 0 else relabelled(make(), random.Random(seed))
            dec = decompose(o)
            with monkeypatch.context() as m:
                m.setattr(classify_module, "_extract_wheel", oracle_extract_wheel)
                expected = decompose(o)
            assert type(dec.core) is type(expected.core) and len(dec.nodes) == len(expected.nodes)
            if not isinstance(dec.core, WheelCore):
                continue
            wheels += 1
            roles, want = dec.core.descriptor.roles, expected.core.descriptor.roles
            assert [roles[k] for k in ("hub", "hinges", "parts")] == [want[k] for k in ("hub", "hinges", "parts")]
            for xy, xy_want in zip(roles["xy"], want["xy"]):
                assert xy == xy_want or (xy is not None and xy == xy_want[::-1])
                swapped += xy != xy_want
            assert dec.core.certificate.passed
            assert verify_family(dec.core.bias, dec.core.descriptor).passed
    assert (wheels, swapped) == (5, 3)


def diamond_ring_with_unbalanced_part() -> BiasedGraph:
    """The diamond-ring wheel with edge 7 (hinge 1 to a) of part 1 flipped,
    which leaves the triangle 1-a-b of that part unbalanced."""
    o = diamond_ring_wheel()
    return make_signed(o.graph, o.bias.signature ^ {7})


def test_wheel_reader_and_extraction_raise_no_tangle_error(monkeypatch):
    parts = tuple(frozenset(range(7 * i, 7 * i + 5)) for i in range(3))
    spokes = frozenset(diamond_ring_wheel().graph.incident_edges(0))
    counter = Budget("generalized-wheel search", DEFAULT_CAPS.max_assignments)
    read = classify_module._wheel_candidate
    assert read(diamond_ring_wheel(), 0, (1, 2, 3), parts, spokes, DEFAULT_CAPS, counter) is not None
    o = diamond_ring_with_unbalanced_part()
    assert read(o, 0, (1, 2, 3), parts, spokes, DEFAULT_CAPS, counter) is None
    # the cut around part 1 finds hub 0 and the ring, and reaches the reader
    vc = next(vc for vc in find_vertex_cuts(o.graph, 3) if vc.cut == {0, 1, 2})
    answers = []
    monkeypatch.setattr(classify_module, "_wheel_candidate", lambda *args: answers.append(read(*args)))
    with pytest.raises(ClassifyError, match="no verified attachment split"):
        classify_module._extract_wheel(o, vc, DEFAULT_CAPS)
    assert answers == [None]


@pytest.mark.parametrize("name", ["wheel-c4-part", "wheel-triangle-rim", "tricoloured-consecutive"])
def test_wheel_search_tests_each_part_and_ring_once(name, monkeypatch):
    o = build_family(ROUND_TRIP[name]())
    bases = _Bases(o, DEFAULT_CAPS)
    calls = Counter()
    read = classify_module._wheel_candidate

    def counted(key, f):
        return lambda *args: calls.update([key]) or f(*args)

    def reader(o, hub, hinges, parts, *rest):
        calls.update({"parts": sum(len(pe) > 1 for pe in parts)})
        return counted("rings", read)(o, hub, hinges, parts, *rest)

    monkeypatch.setattr(classify_module, "_wheel_candidate", reader)
    monkeypatch.setattr(classify_module, "verify_family", counted("verify", verify_family))
    monkeypatch.setattr(classify_module, "ordered_planarity", counted("planar", classify_module.ordered_planarity))
    hit = _detect_generalized_wheel(o, DEFAULT_CAPS, bases)
    assert (hit is not None) == name.startswith("wheel")
    assert calls["verify"] <= calls["rings"]
    assert calls["planar"] <= calls["parts"]


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


def test_completion_matches_the_backtracking_oracle_on_members():
    # the defining clauses of every member the tests build by name, of the
    # benchmark corpus and of seeded FatTriangle members: the theta closure
    # and the search that tries unbalanced first give one balanced set.
    # The clauses mark cycles both ways, and on these members the balanced
    # ones are already closed
    descriptors = list(bench_module("corpus").family_descriptors().values())
    descriptors += [
        make()
        for make in (
            alternating_tricoloured, c4_criss_cross, c4_part_wheel, consecutive_tricoloured,
            degenerate_tricoloured, digon_rim_wheel, k4_fat_triangle, lemma_style_special_triple,
            minimal_fat_triangle, minimal_special_pair, minimal_special_vertex, triangle_rim_wheel,
            wheel_criss_cross,
        )
    ]
    descriptors += [pp_signed(k) for k in (4, 6, 8, 10)]
    descriptors += [random_fat_triangle(random.Random(seed)) for seed in range(20)]
    marks = Counter()
    for d in descriptors:
        partial = {cyc: want for _, cyc, want in _plan(d, DEFAULT_CAPS).constraints}
        got = complete_bias(d.graph, partial)
        want = oracle_complete_bias(d.graph, partial, default=False)
        assert got is not None and want is not None and got.bias == want.bias
        marks.update(partial.values())
    assert len(descriptors) == 54 and min(marks[True], marks[False]) > 100


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
        assert disjoint_unbalanced_pair_exists(o) == (oracle_disjoint_unbalanced_pair(o) is not None)
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


def test_explicit_classify_lists_no_cycle(monkeypatch):
    # peels and folds of explicit input list nothing, and the T3 label is
    # accepted with no scan of the rebuilt graph, which has as many cycles
    # as the input
    copy = explicit_copy(build_family(pp_signed(16)))
    listed = []
    real_cycles = MultiGraph.cycles

    def recording(g, *args, **kwargs):
        listed.append(g)
        return real_cycles(g, *args, **kwargs)

    monkeypatch.setattr(MultiGraph, "cycles", recording)
    report = classify(copy, first=True)
    assert report.codes() == ("T3",)
    assert listed == []
    rebuilt, _, _ = report.decomposition.recompose()
    assert len(real_cycles(rebuilt.graph)) == len(real_cycles(copy.graph)) == 313


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
        ok = _recomposes(dec, o)
        assert ok == (dec.verify(o) == ())
        accepted += ok
    assert accepted == len(decs) and len(cases) - accepted > 50


def tangled_gain_graphs(count: int) -> list[BiasedGraph]:
    """Seeded tangled Z_3- and Z_4-gain graphs on five to seven vertices."""
    rng = random.Random(71)
    out: list[BiasedGraph] = []
    while len(out) < count:
        n = rng.randint(5, 7)
        allp = list(itertools.combinations(range(n), 2))
        g = MultiGraph.from_pairs(rng.sample(allp, rng.randint(n + 2, min(len(allp), 2 * n))), range(n))
        if not g.is_connected():
            continue
        o = gain_bias(g, rng.choice((3, 4)), rng)
        if isinstance(is_tangled(o), Tangled):
            out.append(o)
    return out


def test_non_signed_t3_acceptance_agrees_with_verify():
    # classify accepts a T3 label on non-signed input by the bookkeeping
    # alone; verify scans every rebuilt cycle of each decomposition:
    # explicit members and explicit copies of PPSigned C6 to C12, the
    # t-sums under relabelling seeds 1 to 3, tangled Z_3- and Z_4-gain
    # graphs and t-sums of tangled gain graphs
    sources = {
        "members": explicit_corpus_members() + [explicit_copy(build_family(pp_signed(k))) for k in (6, 8, 10, 12)],
        "t-sums": [relabelled(o, random.Random(seed)) for o in corpus_t_sums() for seed in (1, 2, 3)],
        "gains": tangled_gain_graphs(60),
        "gain t-sums": [t_sum(*args) for args in tangled_gain_sum_args(20)],
    }
    accepted = Counter()
    for source, inputs in sources.items():
        for o in inputs:
            assert not isinstance(o.bias, Signed)
            dec = decompose(o)
            if not dec.nodes:
                continue
            assert _recomposes(dec, o)
            assert dec.verify(o) == ()
            accepted[source] += 1
    assert accepted == {"members": 10, "t-sums": 18, "gains": 41, "gain t-sums": 20}


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


# -- census: every switching class of the small connected simple graphs ------------


# (inputs, tangled inputs, label count per code) on three to five and on
# three to six vertices
CENSUS = {
    5: (214, 61, {"T1a": 48, "T1b": 46, "T1d": 26, "T1f": 49, "T1g": 49, "T2": 38, "T3": 22}),
    6: (
        4530,
        851,
        {"T1a": 564, "T1b": 425, "T1d": 287, "T1f": 638, "T1g": 602, "T1h": 28, "T2": 38, "T3": 700},
    ),
}


def assert_census(most: int) -> None:
    # every tangled input gets a label, every label re-verifies, and a
    # relabelled copy gets the same codes
    rng = random.Random(29)
    inputs, tangled, codes = 0, 0, Counter()
    for o in switching_classes(range(3, most + 1)):
        inputs += 1
        report = classify(o)
        if not isinstance(report.verdict, Tangled):
            continue
        tangled += 1
        assert report.labels
        assert reverifies(o, report)
        assert classify(relabelled(o, rng)).codes() == report.codes()
        codes.update(report.codes())
    assert (inputs, tangled, dict(codes)) == CENSUS[most]


def test_census_of_switching_classes_on_up_to_five_vertices():
    assert_census(5)


@pytest.mark.wall
def test_census_of_switching_classes_on_up_to_six_vertices():
    assert_census(6)
