"""Classifier: family round trips, its searches against their oracles, caps."""

from __future__ import annotations

import itertools
import random

import pytest

from tanglekit.bias import BiasedGraph, Signed, make_explicit, make_signed
import tanglekit.classify as classify_module
import tanglekit.graph as graph_module
from tanglekit.classify import (
    WheelCore,
    _PLACEMENTS,
    _detect_generalized_wheel,
    _detect_pp_signed,
    _detect_special_pair,
    _detect_special_vertex,
    _detect_tricoloured,
    _maximal_balanced_sets,
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
from tanglekit.graph import MultiGraph
from tanglekit.limits import DEFAULT_CAPS, Caps, ResourceLimitError
from tanglekit.tangles import Tangled, is_tangled

from oracles import (
    connected_graph_census,
    oracle_detect_tricoloured,
    oracle_explicit_core,
    oracle_maximal_balanced_sets,
    random_multigraph,
)
from test_families import (
    alternating_tricoloured,
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


# -- balance filters in front of verify_family ------------------------------------


def t_sums() -> list[BiasedGraph]:
    fat = build_family(minimal_fat_triangle())
    fatk = build_family(k4_fat_triangle())
    return [
        t_sum(fat, balanced_complete(3), 1, [(0, 0)]),
        t_sum(fat, balanced_complete(3), 2, [(0, 0), (1, 1)]),
        t_sum(fatk, balanced_complete(4), 3, [(0, 0), (1, 1), (2, 2)]),
    ]


def corpus_t_sums() -> list[BiasedGraph]:
    """The six t-sums of the benchmark corpus."""
    return t_sums() + [
        t_sum(build_family(pp_signed(6)), balanced_complete(4), 2, [(0, 0), (1, 1)]),
        t_sum(build_family(describe_k5_family()), balanced_complete(3), 2, [(0, 0), (1, 1)]),
        t_sum(build_family(c4_criss_cross()), balanced_complete(3), 1, [(1, 0)]),
    ]


@pytest.mark.parametrize("index", range(6))
def test_decomposition_of_a_t_sum_recomposes(index):
    # each core is rebuilt through make_explicit(check=True), which runs
    # the balanced-pair theta check
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


def test_maximal_balanced_sets_agree_with_unpruned_search():
    inputs = [build_family(d()) for d in ROUND_TRIP.values()] + t_sums() + random_signed(200)
    for o in inputs:
        assert _maximal_balanced_sets(o) == oracle_maximal_balanced_sets(o)


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

    def recording_peel(cur, tags, vc, bridge, node_id, caps):
        out = real_peel(cur, tags, vc, bridge, node_id, caps)
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


@pytest.mark.wall
def test_pp_signed_c18_classifies_at_default_caps():
    o = build_family(pp_signed(18))
    assert classify(o, first=True).codes() == ("T3",)


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
    for core in cores:
        assert sum(g is core for g in enumerated) == 1


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
