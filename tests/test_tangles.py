"""Blocking structure: verdicts, partitions, signatures."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from tanglekit.graph import Cycle, MultiGraph
from tanglekit.bias import (
    AllUnbalanced,
    BiasedGraph,
    BiasError,
    Signed,
    balanced_without,
    make_explicit,
    make_signed,
    simplify,
)
from tanglekit.classify import _maximal_balanced_sets
from tanglekit.families import build_family, describe_pp_signed
from tanglekit.tangles import (
    Balanced,
    HasBlockingVertex,
    Tangled,
    TangleError,
    TwoDisjointUnbalanced,
    blocking_pairs,
    blocking_vertices,
    disjoint_unbalanced_pair_exists,
    find_disjoint_unbalanced_pair,
    is_tangled,
    standard_partition,
)

from tanglekit.limits import DEFAULT_CAPS, Caps, ResourceLimitError

import tanglekit.graph as graph_module
from census import switching_classes
from oracles import (
    ORACLE_VERTICES,
    connected_graph_census,
    oracle_blocking_pairs,
    oracle_blocking_vertices,
    oracle_cycle_list_verdict,
    oracle_disjoint_unbalanced_pair,
    oracle_is_tangled,
    oracle_standard_partition,
    random_multigraph,
    spanning_forest,
)
from test_families import (
    alternating_tricoloured,
    c4_criss_cross,
    c4_part_wheel,
    consecutive_tricoloured,
    degenerate_tricoloured,
    k4_fat_triangle,
    lemma_style_special_triple,
    minimal_fat_triangle,
    minimal_special_pair,
    minimal_special_vertex,
    triangle_rim_wheel,
)


def k4() -> MultiGraph:
    return MultiGraph.from_pairs([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def k5() -> MultiGraph:
    return MultiGraph.from_pairs(list(itertools.combinations(range(5), 2)))


def wheel4() -> MultiGraph:
    # rim 1-2-3-4 (edges 0..3), hub 0 with spokes 4..7 to 1,2,3,4
    return MultiGraph.build(
        range(5),
        [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 1), (4, 0, 1), (5, 0, 2), (6, 0, 3), (7, 0, 4)],
    )


def two_odd_triangles() -> BiasedGraph:
    # two odd triangles joined by an edge
    g = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    return make_signed(g, {0, 3})


def dense_signed() -> BiasedGraph:
    # K9 less the edges {i, i+2}: more unbalanced cycles than the square
    # root of the pair cap
    g = MultiGraph.from_pairs([p for p in itertools.combinations(range(9), 2) if p[1] - p[0] != 2])
    return make_signed(g, [e for e in g.edge_ids if e % 3 == 0])


def refuse_cycle_list(*args, **kwargs):
    raise AssertionError("a cycle list was built")


def assert_valid_pair(o: BiasedGraph, pair) -> None:
    """Both cycles are cycles of o.graph, both are unbalanced, and they
    share no vertex; no cycle is listed."""
    for c in pair:
        assert Cycle.from_edge_set(o.graph, c.edge_set) == c
        assert not o.balance(c)
    assert not pair[0].vertex_set & pair[1].vertex_set


def assert_same_verdict(o: BiasedGraph, verdict, expected) -> None:
    """The verdict is the expected one, but for the pair it names: only its
    type is compared, and the pair is checked to be valid."""
    assert type(verdict) is type(expected)
    if isinstance(verdict, TwoDisjointUnbalanced):
        assert_valid_pair(o, (verdict.first, verdict.second))
    else:
        assert verdict == expected


# -- verdicts ----------------------------------------------------------------------


def test_two_unbalanced_loops_disjoint():
    g = MultiGraph.build([0, 1], [(0, 0, 1), (1, 0, 0), (2, 1, 1)])
    o = make_signed(g, {1, 2})
    pair = find_disjoint_unbalanced_pair(o)
    assert pair is not None
    assert {pair[0].key, pair[1].key} == {(1,), (2,)}
    v = is_tangled(o)
    assert isinstance(v, TwoDisjointUnbalanced)
    assert blocking_pairs(o) == ((0, 1),)


def test_balanced_graph():
    o = make_signed(k4(), set())
    assert find_disjoint_unbalanced_pair(o) is None
    assert blocking_vertices(o) == frozenset({0, 1, 2, 3})
    assert blocking_pairs(o) == ()
    assert is_tangled(o) == Balanced()


def test_k5_all_unbalanced_is_tangled():
    o = BiasedGraph(k5(), AllUnbalanced())
    # K5 has no two vertex-disjoint cycles at all
    assert find_disjoint_unbalanced_pair(o) is None
    assert blocking_vertices(o) == frozenset()
    assert is_tangled(o) == Tangled()


def test_bowtie_blocking_vertex():
    g = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    o = make_signed(g, {0, 4})  # both triangles unbalanced
    assert len(o.unbalanced_cycles()) == 2
    assert blocking_vertices(o) == frozenset({2})
    assert is_tangled(o) == HasBlockingVertex(2)


def test_minimal_fat_triangle_is_tangled():
    g = MultiGraph.build(
        [0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 1), (4, 1, 2), (5, 2, 0)]
    )
    o = make_signed(g, {3, 4, 5})
    # 3 unbalanced digons + 4 odd triangles
    assert len(o.unbalanced_cycles()) == 7
    assert is_tangled(o) == Tangled()


def test_single_unbalanced_loop():
    g = MultiGraph.build([0], [(0, 0, 0)])
    assert is_tangled(make_signed(g, {0})) == HasBlockingVertex(0)


def test_dense_graph_gets_a_disjoint_pair_at_default_caps():
    # a disjoint pair turns up early in the scan
    o = dense_signed()
    assert len(o.unbalanced_cycles()) ** 2 > DEFAULT_CAPS.max_theta_pairs
    pair = find_disjoint_unbalanced_pair(o)
    assert pair is not None
    assert_valid_pair(o, pair)
    assert isinstance(is_tangled(o), TwoDisjointUnbalanced)


def test_pair_scan_cap_counts_scanned_pairs():
    # K5 has no two disjoint cycles: each of its 10 chordless triangles
    # leaves a balanced edge, so the scan makes 10 balance tests
    o = BiasedGraph(k5(), AllUnbalanced())
    assert find_disjoint_unbalanced_pair(o, Caps(max_theta_pairs=10)) is None
    with pytest.raises(ResourceLimitError) as err:
        find_disjoint_unbalanced_pair(o, Caps(max_theta_pairs=9))
    assert err.value.stage == "disjoint-pair scan"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_verdicts_exclusive_and_exhaustive(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=6, max_extra=5, allow_loops=True)
    sig = {e for e in g.edge_ids if rng.random() < 0.4}
    o = make_signed(g, sig)
    unb = o.unbalanced_cycles()
    has_pair = any(
        not (c1.vertex_set & c2.vertex_set) for c1, c2 in itertools.combinations(unb, 2)
    )
    blockers = [v for v in g.vertices if all(v in c.vertex_set for c in unb)]
    verdict = is_tangled(o)
    if not unb:
        assert verdict == Balanced()
    elif blockers:
        assert verdict == HasBlockingVertex(min(blockers))
        assert not has_pair
    elif has_pair:
        assert isinstance(verdict, TwoDisjointUnbalanced)
        assert_valid_pair(o, (verdict.first, verdict.second))
    else:
        assert verdict == Tangled()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_simplification_preserves_tangledness(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=7, max_extra=6, allow_loops=True, allow_parallel=True)
    sig = {e for e in g.edge_ids if rng.random() < 0.4}
    o = make_signed(g, sig)
    before = isinstance(is_tangled(o), Tangled)
    after = isinstance(is_tangled(simplify(o)), Tangled)
    assert before == after


def test_blocking_pair_example():
    # every triangle of K4 misses exactly one vertex, so no single vertex
    # blocks but every pair does
    o = BiasedGraph(k4(), AllUnbalanced())
    assert blocking_vertices(o) == frozenset()
    assert blocking_pairs(o) == tuple(itertools.combinations(range(4), 2))


# -- standard partition -------------------------------------------------------------


def test_partition_splits_by_sign():
    o = make_signed(wheel4(), {4, 5})
    sp = standard_partition(o, 0)
    assert sp.vertex == 0
    assert [sorted(p) for p in sp.parts] == [[4, 5], [6, 7]]
    assert sp.part_of(4) == 0 and sp.part_of(6) == 1
    with pytest.raises(KeyError):
        sp.part_of(0)


def test_partition_single_class_when_balanced():
    o = make_signed(wheel4(), set())
    sp = standard_partition(o, 0)
    assert [sorted(p) for p in sp.parts] == [[4, 5, 6, 7]]


def test_partition_two_singletons():
    o = make_signed(MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0)]), {0})
    sp = standard_partition(o, 0)
    assert [sorted(p) for p in sp.parts] == [[0], [2]]


def test_partition_matches_cycle_bias():
    # a non-loop cycle is unbalanced iff its two edges at v lie in
    # different parts
    o = make_signed(wheel4(), {4, 6})
    sp = standard_partition(o, 0)
    for c in o.cycles():
        used = [e for e in c.key if e in {4, 5, 6, 7}]
        if len(used) == 2:
            assert o.balance(c) == (sp.part_of(used[0]) == sp.part_of(used[1]))


def test_partition_preconditions():
    o = make_signed(wheel4(), {0})
    with pytest.raises(TangleError, match="not a blocking vertex"):
        standard_partition(o, 4)
    with pytest.raises(TangleError, match="not in the graph"):
        standard_partition(o, 99)
    pg = MultiGraph.build([0, 1, 2], [(0, 0, 1), (1, 0, 1), (2, 1, 2)])
    with pytest.raises(TangleError, match="disconnects"):
        standard_partition(make_signed(pg, {1}), 1)


def test_partition_ignores_loops_at_vertex():
    g = MultiGraph.build([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 0)])
    o = make_signed(g, {0, 3})
    sp = standard_partition(o, 0)
    assert all(3 not in p for p in sp.parts)
    assert [sorted(p) for p in sp.parts] == [[0], [2]]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_partition_relation_is_transitive(seed):
    # all negative edges at one vertex makes it blocking; draw from the
    # seed until the vertex has degree >= 3, a connected remainder and is
    # blocking, so that few seeds are filtered out
    rng = random.Random(seed)
    for _ in range(50):
        g = random_multigraph(rng, max_n=6, max_extra=5)
        v = g.vertices[0]
        delta = g.delta(v)
        if len(delta) < 3 or not g.delete_vertices([v]).is_connected():
            continue
        sig = {e for e in delta if rng.random() < 0.5}
        o = make_signed(g, sig)
        if v in blocking_vertices(o):
            break
    else:
        assume(False)
    sp = standard_partition(o, v)  # raises if the relation is inconsistent
    assert sorted(e for p in sp.parts for e in p) == sorted(delta)
    for s, t in itertools.combinations(range(len(sp.parts)), 2):
        assert not (sp.parts[s] & sp.parts[t])


def blocked_gain_bias(g: MultiGraph, v: int, k: int, rng: random.Random) -> BiasedGraph:
    """Z_k gains that are a switching of zero off v and random at v, so
    that v blocks and its edges fall into up to k parts."""
    potential = {u: rng.randrange(k) for u in g.vertices}
    gain = {}
    for e in g.edge_ids:
        a, b = g.endpoints(e)
        gain[e] = (potential[a] - potential[b] + (rng.randrange(k) if v in (a, b) else 0)) % k
    return gains_bias(g, k, gain)


def partition_inputs() -> list[tuple[BiasedGraph, int]]:
    """(o, v) for every blocking vertex v with o - v connected: the census
    on three to five vertices, then seeded Z_3 and Z_4 gain graphs."""
    out = []
    for o in switching_classes(range(3, 6)):
        out += [(o, v) for v in sorted(blocking_vertices(o)) if o.graph.delete_vertices([v]).is_connected()]
    rng = random.Random(31)
    for _ in range(150):
        g = random_multigraph(rng, max_n=7, max_extra=6, allow_loops=True)
        v = g.vertices[0]
        if g.n > 1 and g.delete_vertices([v]).is_connected():
            out.append((blocked_gain_bias(g, v, rng.choice((3, 4)), rng), v))
    return out


def test_standard_partition_matches_the_cycle_list_oracle():
    sizes = Counter()
    for o, v in partition_inputs():
        sp = standard_partition(o, v)
        assert sp == oracle_standard_partition(o, v)
        sizes[min(len(sp.parts), 3)] += 1
    # the count of inputs with one, two and three or more parts
    assert sizes == {1: 149, 2: 275, 3: 22}


def test_standard_partition_guard_catches_a_bias_that_breaks_the_theta_rule():
    # three paths from vertex 0 to vertex 4, through 1, 2 and 3: the cycles
    # through 1 and 3 and through 2 and 3 are balanced, the one through 1
    # and 2 is not, so the theta on all three has exactly two balanced cycles
    g = MultiGraph.from_pairs([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    balanced = [{0, 2, 3, 5}, {1, 2, 4, 5}]
    with pytest.raises(BiasError):
        make_explicit(g, balanced)
    o = make_explicit(g, balanced, check=False)
    for partition in (standard_partition, oracle_standard_partition):
        with pytest.raises(TangleError, match="edge"):
            partition(o, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_recovered_signature_obeys_parity_law(seed):
    # signature off a spanning tree: the complement of the signature is a
    # maximal balanced edge set, so the signature is recovered as the
    # complement of one, and a cycle is balanced iff it meets it evenly
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=6, max_extra=5)
    tree = spanning_forest(g)
    rest = sorted(set(g.edge_ids) - tree)
    assume(rest)
    sig = {e for e in rest if rng.random() < 0.6}
    assume(sig)
    o = make_signed(g, sig)
    assume(find_disjoint_unbalanced_pair(o) is None)
    base = frozenset(g.edge_ids) - sig
    assert base in _maximal_balanced_sets(o)
    for c in o.cycles():
        assert o.balance(c) == (len(c.edge_set & sig) % 2 == 0)


def test_is_tangled_agrees_with_definitional_scan():
    # census graphs with seeded signatures, and multigraphs with loops and
    # digons (no simple graph on five vertices has two disjoint cycles),
    # against the oracle that finds cycles by plain path extension
    rng = random.Random(17)
    graphs = [g for n in range(3, 6) for g in connected_graph_census(n) for _ in range(4)]
    graphs += [random_multigraph(rng, max_n=7, max_extra=5, allow_loops=True) for _ in range(100)]
    seen = set()
    for g in graphs:
        o = make_signed(g, [e for e in g.edge_ids if rng.random() < 0.5])
        fast, slow = is_tangled(o), oracle_is_tangled(o)
        assert type(fast) is type(slow)
        seen.add(type(fast))
        unbalanced = [c for c in o.cycles() if not o.balance(c)]
        if isinstance(fast, HasBlockingVertex):
            assert all(fast.vertex in c.vertex_set for c in unbalanced)
        if isinstance(fast, TwoDisjointUnbalanced):
            assert_valid_pair(o, (fast.first, fast.second))
    assert seen == {Balanced, HasBlockingVertex, TwoDisjointUnbalanced, Tangled}


# -- signed verdicts by switching tests -------------------------------------------


def signed_inputs() -> list[BiasedGraph]:
    rng = random.Random(43)
    out = [
        make_signed(g, [e for e in g.edge_ids if rng.random() < 0.5])
        for n in range(3, 6)
        for g in connected_graph_census(n)
        for _ in range(3)
    ]
    for k in (4, 6, 8):
        base = MultiGraph.from_pairs([(i, (i + 1) % k) for i in range(k)])
        out.append(build_family(describe_pp_signed(base, tuple(range(k // 2)), tuple(range(k // 2, k)))))
    for _ in range(300):
        g = random_multigraph(rng, max_n=9, max_extra=7, allow_loops=True)
        out.append(make_signed(g, [e for e in g.edge_ids if rng.random() < 0.5]))
    return out


def test_signed_verdict_equals_the_explicit_copy():
    # the signed original takes switching tests and the explicit copy
    # fundamental cycles; both give the same verdict, pair included, and
    # agree with the cycle-list oracles on the verdict type and the
    # blocking structure
    seen = set()
    pairs = 0
    for o in signed_inputs():
        assert isinstance(o.bias, Signed)
        copy = make_explicit(o.graph, o.balanced_cycles())
        verdict = is_tangled(o)
        assert verdict == is_tangled(copy)
        assert_same_verdict(o, verdict, oracle_cycle_list_verdict(o))
        assert blocking_vertices(o) == blocking_vertices(copy) == oracle_blocking_vertices(o)
        assert blocking_pairs(o) == blocking_pairs(copy) == oracle_blocking_pairs(o)
        assert o.is_balanced() == copy.is_balanced()
        # a pair rules out a blocking vertex, so it decides this verdict
        assert disjoint_unbalanced_pair_exists(o) == isinstance(verdict, TwoDisjointUnbalanced)
        seen.add(type(verdict))
        pairs += len(blocking_pairs(o))
    assert seen == {Balanced, HasBlockingVertex, TwoDisjointUnbalanced, Tangled}
    assert pairs > 100


def test_balance_without_vertices_matches_the_cycle_list_on_explicit_copies():
    # explicit copies take the fundamental-cycle test; it agrees with the
    # cycle list of o - X for every X of at most two vertices, and with
    # the switching test on the signed original
    compared = unbalanced = pairs = 0
    for o in signed_inputs():
        copy = make_explicit(o.graph, o.balanced_cycles())
        for k in range(3):
            for removed in itertools.combinations(o.graph.vertices, k):
                definition = not any(not copy.balance(c) for c in copy.delete_vertices(removed).cycles())
                assert balanced_without(copy, removed) == definition == balanced_without(o, removed)
                compared += 1
                unbalanced += not definition
        # the pair test that lists no cycle, against the scan of all pairs
        found = oracle_disjoint_unbalanced_pair(copy) is not None
        assert disjoint_unbalanced_pair_exists(copy) == found
        pairs += found
    assert compared > 7000 and unbalanced > 3000 and pairs > 50


def test_signed_verdicts_need_no_cycle_list(monkeypatch):
    monkeypatch.setattr(graph_module, "enumerate_cycles", refuse_cycle_list)
    none = Caps(max_cycles=0)
    assert is_tangled(make_signed(k5(), ()), none) == Balanced()
    assert is_tangled(make_signed(wheel4(), {4}), none) == HasBlockingVertex(0)
    # every triangle of K4 is odd, so every pair blocks and no vertex does
    assert blocking_pairs(make_signed(k4(), k4().edge_ids)) == tuple(itertools.combinations(range(4), 2))
    assert blocking_pairs(make_signed(k5(), ())) == ()


def test_signed_pair_search_counts_switching_tests():
    # two odd triangles joined by an edge: one test finds the pair
    o = two_odd_triangles()
    with pytest.raises(ResourceLimitError) as err:
        find_disjoint_unbalanced_pair(o, Caps(max_theta_pairs=0))
    assert err.value.stage == "disjoint-pair scan"
    first, second = find_disjoint_unbalanced_pair(o, Caps(max_theta_pairs=1, max_cycles=2))
    assert (first.key, second.key) == ((0, 1, 2), (3, 4, 5))
    # K5 with every edge odd: the scan tests its 10 chordless triangles,
    # each of which leaves one edge
    o = make_signed(k5(), k5().edge_ids)
    assert find_disjoint_unbalanced_pair(o, Caps(max_theta_pairs=10)) is None
    with pytest.raises(ResourceLimitError) as err:
        find_disjoint_unbalanced_pair(o, Caps(max_theta_pairs=9))
    assert err.value.stage == "disjoint-pair scan"


def test_signed_pair_search_counts_generated_cycles():
    # K5 with every edge odd has no disjoint pair, so the scan walks every
    # chordless vertex set: the 10 triangles
    o = make_signed(k5(), k5().edge_ids)
    assert find_disjoint_unbalanced_pair(o, Caps(max_cycles=10)) is None
    with pytest.raises(ResourceLimitError) as err:
        find_disjoint_unbalanced_pair(o, Caps(max_cycles=9))
    assert err.value.stage == "enumerate_cycles"


# -- one balance-test path for every bias ----------------------------------------


EXPLICIT_MEMBERS = [
    c4_part_wheel,
    triangle_rim_wheel,
    c4_criss_cross,
    minimal_fat_triangle,
    k4_fat_triangle,
    minimal_special_vertex,
    minimal_special_pair,
    lemma_style_special_triple,
    consecutive_tricoloured,
    alternating_tricoloured,
    degenerate_tricoloured,
]


def gain_bias(g: MultiGraph, k: int, rng: random.Random) -> BiasedGraph:
    """Z_k gains on g, each edge read from its first end to its second; a
    cycle is balanced when its gains sum to 0 mod k.  Gain graphs satisfy
    the theta property, and for k >= 3 most are no signed graph."""
    return gains_bias(g, k, {e: 0 if rng.random() < 0.5 else rng.randrange(1, k) for e in g.edge_ids})


def gains_bias(g: MultiGraph, k: int, gain: dict[int, int]) -> BiasedGraph:
    """The explicit bias of the given Z_k gains, read as in :func:`gain_bias`."""

    def balanced(c) -> bool:
        total = 0
        for e, x in zip(c.key, c.walk):
            total += gain[e] if g.endpoints(e)[0] == x else -gain[e]
        return total % k == 0

    return make_explicit(g, [c for c in g.cycles() if balanced(c)])


def non_signed_inputs() -> list[BiasedGraph]:
    rng = random.Random(29)
    out = []
    for _ in range(250):
        g = random_multigraph(rng, max_n=9, max_extra=6, allow_loops=True)
        out.append(gain_bias(g, rng.choice((3, 4, 5)), rng))
    for _ in range(40):
        out.append(BiasedGraph(random_multigraph(rng, max_n=8, max_extra=5, allow_loops=True), AllUnbalanced()))
    for d in EXPLICIT_MEMBERS:
        o = build_family(d())
        out.append(o)
        out += [o.delete_edges([e]) for e in o.graph.edge_ids]
    return out


def test_verdicts_of_any_bias_match_the_cycle_list_oracles():
    # Z_k-gain explicit biases with loops and digons, all-unbalanced bias
    # and the explicit family members with each edge deleted in turn
    seen = set()
    pairs = 0
    for o in non_signed_inputs():
        assert not isinstance(o.bias, Signed)
        verdict = is_tangled(o)
        assert_same_verdict(o, verdict, oracle_cycle_list_verdict(o))
        assert blocking_vertices(o) == oracle_blocking_vertices(o)
        assert blocking_pairs(o) == oracle_blocking_pairs(o)
        pair = find_disjoint_unbalanced_pair(o)
        assert (pair is None) == (oracle_disjoint_unbalanced_pair(o) is None)
        if pair is not None:
            assert_valid_pair(o, pair)
        if o.graph.n <= ORACLE_VERTICES:
            assert_same_verdict(o, verdict, oracle_is_tangled(o))
        seen.add(type(verdict))
        pairs += len(blocking_pairs(o))
    assert seen == {Balanced, HasBlockingVertex, TwoDisjointUnbalanced, Tangled}
    assert pairs > 100


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_signed(k5(), ()),
        lambda: make_signed(wheel4(), {4}),
        two_odd_triangles,
        dense_signed,
        lambda: build_family(c4_criss_cross()),
        lambda: build_family(minimal_special_vertex()),
    ],
    ids=["balanced", "blocking-vertex", "two-odd-triangles", "dense", "criss-cross-c4", "special-vertex"],
)
def test_no_verdict_lists_a_cycle(make, monkeypatch):
    # no cycle list is built, and no Cycle but the two a pair names
    o = make()
    expected = oracle_cycle_list_verdict(o)
    fresh = BiasedGraph(MultiGraph.build(o.graph.vertices, o.graph.edge_map), o.bias)
    built = []
    init = Cycle.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(graph_module, "enumerate_cycles", refuse_cycle_list)
    monkeypatch.setattr(Cycle, "__init__", counted)
    verdict = is_tangled(fresh)
    monkeypatch.undo()
    assert len(built) == (2 if isinstance(verdict, TwoDisjointUnbalanced) else 0)
    assert_same_verdict(fresh, verdict, expected)
