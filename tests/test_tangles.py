"""Blocking structure: verdicts, partitions, signatures."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from tanglekit.graph import MultiGraph, enumerate_cycles
from tanglekit.bias import AllUnbalanced, BiasedGraph, Signed, make_explicit, make_signed, simplify
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
    find_disjoint_unbalanced_pair,
    is_tangled,
    standard_partition,
)

from tanglekit.limits import DEFAULT_CAPS, Caps, ResourceLimitError

from oracles import connected_graph_census, oracle_is_tangled, random_multigraph


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
    # K9 less the edges {i, i+2}: more unbalanced cycles than the square
    # root of the pair cap, but a disjoint pair turns up early in the scan
    pairs = [p for p in itertools.combinations(range(9), 2) if p[1] - p[0] != 2]
    g = MultiGraph.from_pairs(pairs)
    o = make_signed(g, [e for e in g.edge_ids if e % 3 == 0])
    assert len(o.unbalanced_cycles()) ** 2 > DEFAULT_CAPS.max_theta_pairs
    pair = find_disjoint_unbalanced_pair(o)
    assert pair is not None and not pair[0].vertex_set & pair[1].vertex_set
    assert isinstance(is_tangled(o), TwoDisjointUnbalanced)


def test_pair_scan_cap_counts_scanned_pairs():
    # K5 has no two disjoint cycles, so the scan runs through every pair
    o = BiasedGraph(k5(), AllUnbalanced())
    total = len(o.unbalanced_cycles()) * (len(o.unbalanced_cycles()) - 1) // 2
    assert find_disjoint_unbalanced_pair(o, Caps(max_theta_pairs=total)) is None
    with pytest.raises(ResourceLimitError) as err:
        find_disjoint_unbalanced_pair(o, Caps(max_theta_pairs=total - 1))
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
        assert not o.balance(verdict.first) and not o.balance(verdict.second)
        assert not (verdict.first.vertex_set & verdict.second.vertex_set)
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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_recovered_signature_obeys_parity_law(seed):
    # signature off a spanning tree: the complement of the signature is a
    # maximal balanced edge set, so the signature is recovered as the
    # complement of one, and a cycle is balanced iff it meets it evenly
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=6, max_extra=5)
    tree = set(g.spanning_tree_edges())
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
            assert not fast.first.vertex_set & fast.second.vertex_set
            assert not o.balance(fast.first) and not o.balance(fast.second)
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
    # the explicit copy takes the cycle-list path, pair scan and blocking
    # pairs included
    seen = set()
    pairs = 0
    for o in signed_inputs():
        assert isinstance(o.bias, Signed)
        copy = make_explicit(o.graph, o.balanced_cycles())
        verdict = is_tangled(o)
        assert verdict == is_tangled(copy)
        assert blocking_vertices(o) == blocking_vertices(copy)
        assert blocking_pairs(o) == blocking_pairs(copy)
        assert o.is_balanced() == copy.is_balanced()
        seen.add(type(verdict))
        pairs += len(blocking_pairs(o))
    assert seen == {Balanced, HasBlockingVertex, TwoDisjointUnbalanced, Tangled}
    assert pairs > 100


def test_signed_verdicts_need_no_cycle_list():
    none = Caps(max_cycles=0)
    assert is_tangled(make_signed(k5(), ()), none) == Balanced()
    assert is_tangled(make_signed(wheel4(), {4}), none) == HasBlockingVertex(0)
    # every triangle of K4 is odd, so every pair blocks and no vertex does
    assert blocking_pairs(make_signed(k4(), k4().edge_ids), none) == tuple(itertools.combinations(range(4), 2))
    assert blocking_pairs(make_signed(k5(), ()), none) == ()


def test_signed_pair_search_counts_switching_tests():
    # two odd triangles joined by an edge: one test finds the pair
    g = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    o = make_signed(g, {0, 3})
    with pytest.raises(ResourceLimitError) as err:
        find_disjoint_unbalanced_pair(o, Caps(max_theta_pairs=0))
    assert err.value.stage == "disjoint-pair scan"
    first, second = find_disjoint_unbalanced_pair(o, Caps(max_theta_pairs=1, max_cycles=2))
    assert (first.key, second.key) == ((0, 1, 2), (3, 4, 5))
    # K5 with every edge odd: each of the 10 odd triangles leaves one edge,
    # and the 12 odd 5-cycles contain a rejected triangle, so 10 tests
    o = make_signed(k5(), k5().edge_ids)
    assert find_disjoint_unbalanced_pair(o, Caps(max_theta_pairs=10)) is None
    with pytest.raises(ResourceLimitError) as err:
        find_disjoint_unbalanced_pair(o, Caps(max_theta_pairs=9))
    assert err.value.stage == "disjoint-pair scan"


def test_signed_pair_search_counts_generated_cycles():
    # K5 with every edge odd is tangled, so the search builds every layer:
    # 10 triangles, 15 four-cycles and 12 five-cycles
    o = make_signed(k5(), k5().edge_ids)
    assert is_tangled(o, Caps(max_cycles=37)) == Tangled()
    with pytest.raises(ResourceLimitError) as err:
        is_tangled(o, Caps(max_cycles=36))
    assert err.value.stage == "enumerate_cycles"
