"""Graph core: cycles, thetas, cuts, blocks against brute-force oracles."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tanglekit.graph import (
    Cycle,
    GraphError,
    MultiGraph,
    block_tree,
    bridges_of_cut,
    cycles_by_length,
    enumerate_cycles,
    enumerate_theta_subgraphs,
    find_vertex_cuts,
    is_two_connected,
    rings,
)
from tanglekit.classify import _ring_layouts
from tanglekit.limits import Caps, ResourceLimitError

from oracles import (
    _scan_cycles,
    connected_graph_census,
    oracle_cycle_from_walk,
    path_triple_thetas,
    random_multigraph,
    scan_is_two_connected,
    scan_rings,
    scan_vertex_cuts,
    subset_cycles,
)


def k4() -> MultiGraph:
    return MultiGraph.from_pairs([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


# -- cycles -----------------------------------------------------------------


def test_k4_has_seven_cycles():
    cycles = enumerate_cycles(k4())
    assert len(cycles) == 7
    assert {c.edge_set for c in cycles} == set(subset_cycles(k4()))
    # four triangles and three 4-cycles
    assert sorted(len(c) for c in cycles) == [3, 3, 3, 3, 4, 4, 4]


def test_loops_and_digons_are_cycles():
    g = MultiGraph.build([0, 1], [(0, 0, 0), (1, 0, 1), (2, 0, 1)])
    cycles = enumerate_cycles(g)
    assert [c.key for c in cycles] == [(0,), (1, 2)]
    assert cycles[0].walk == (0,)
    assert cycles[1].vertex_set == frozenset({0, 1})


def test_triple_edge_has_three_digons():
    g = MultiGraph.from_pairs([(0, 1), (0, 1), (0, 1)])
    cycles = enumerate_cycles(g)
    assert [c.key for c in cycles] == [(0, 1), (0, 2), (1, 2)]


def test_cycle_key_matches_the_all_rotations_scan():
    # every rotation of both orientations of every cycle walk, on random
    # multigraphs with loops and digons
    rng = random.Random(23)
    walks = 0
    for _ in range(100):
        g = random_multigraph(rng, max_n=8, max_extra=8, allow_loops=True)
        for c in enumerate_cycles(g):
            n = len(c)
            es, vs = c.key, c.walk
            rev_e = es[::-1]
            rev_v = tuple(vs[(n - i) % n] for i in range(n))
            for e_seq, v_seq in ((es, vs), (rev_e, rev_v)):
                for r in range(n):
                    walk = (e_seq[r:] + e_seq[:r], v_seq[r:] + v_seq[:r])
                    assert Cycle.from_walk(*walk) == oracle_cycle_from_walk(*walk)
                    walks += 1
    assert walks > 5000


def test_cycles_by_length_lists_every_cycle_in_order():
    # the layers against the depth-first enumeration, and both against
    # the oracle that extends plain paths
    rng = random.Random(31)
    for _ in range(300):
        g = random_multigraph(rng, max_n=9, max_extra=7, allow_loops=True)
        listed = enumerate_cycles(g)
        assert tuple(cycles_by_length(g)) == listed
        assert {c.edge_set for c in listed} == set(_scan_cycles(g, Caps()))


def test_cycles_by_length_counts_only_the_layers_it_built():
    g = MultiGraph.from_pairs([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    # K5: 10 triangles, 15 four-cycles, 12 five-cycles
    layers = cycles_by_length(g, Caps(max_cycles=10))
    assert [len(next(layers)) for _ in range(10)] == [3] * 10
    with pytest.raises(ResourceLimitError) as err:
        next(layers)
    assert err.value.stage == "enumerate_cycles"


def test_cycle_canonical_key_is_rotation_and_reflection_invariant():
    g = k4()
    # walk the 4-cycle 0-1-2-3 in both directions from every start
    c = Cycle.from_edge_set(g, {0, 3, 5, 2})  # 01,12,23,30
    assert c == Cycle.from_walk((3, 5, 2, 0), (1, 2, 3, 0))
    assert c == Cycle.from_walk((0, 2, 5, 3), (1, 0, 3, 2))
    assert c.key[0] == min(c.key)


def test_cycle_from_edge_set_rejects_non_cycles():
    g = k4()
    with pytest.raises(GraphError):
        Cycle.from_edge_set(g, {0, 1})  # path, not a cycle
    with pytest.raises(GraphError):
        Cycle.from_edge_set(g, {0, 1, 2, 3, 4, 5})  # whole K4


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_cycles_match_subset_oracle(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=5, max_extra=4, allow_loops=True)
    got = {c.edge_set for c in enumerate_cycles(g)}
    assert got == set(subset_cycles(g))


# -- thetas -------------------------------------------------------------------


def test_k4_theta_count():
    thetas = enumerate_theta_subgraphs(k4())
    assert len(thetas) == 6
    assert {t.edge_set for t in thetas} == path_triple_thetas(k4())


def test_theta_graph_is_one_theta_with_three_cycles():
    g = MultiGraph.from_pairs([(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)])
    thetas = enumerate_theta_subgraphs(g)
    assert len(thetas) == 1
    t = thetas[0]
    assert t.edge_set == frozenset(range(5))
    assert len({c.edge_set for c in t.cycles}) == 3
    assert t.branch_vertices(g) == (0, 1)
    c1, c2, c3 = t.cycles
    assert c1.edge_set ^ c2.edge_set == c3.edge_set


def test_c5_has_no_theta():
    g = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert enumerate_theta_subgraphs(g) == ()


def test_parallel_triple_is_a_theta():
    g = MultiGraph.from_pairs([(0, 1), (0, 1), (0, 1)])
    thetas = enumerate_theta_subgraphs(g)
    assert len(thetas) == 1
    assert thetas[0].edge_set == frozenset({0, 1, 2})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_thetas_match_path_triple_oracle(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=5, max_extra=4)
    got = {t.edge_set for t in enumerate_theta_subgraphs(g)}
    assert got == path_triple_thetas(g)


# -- cuts ---------------------------------------------------------------------


def test_shared_edge_cut():
    # two triangles glued along edge 0-1: cut {0,1} with two bridges
    g = MultiGraph.from_pairs([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    cuts = find_vertex_cuts(g, 2)
    assert len(cuts) == 1
    cut = cuts[0]
    assert cut.cut == frozenset({0, 1})
    assert [sorted(b.interior) for b in cut.bridges] == [[2], [3]]
    # the glue edge 0-1 belongs to no bridge
    assert 0 not in cut.bridges[0].edges | cut.bridges[1].edges


def test_vertex_cuts_match_the_subset_scan():
    graphs = [(g, 3) for n in range(1, 8) for g in connected_graph_census(n)]
    rng = random.Random("vertex cuts")
    graphs += [(random_multigraph(rng, max_n=8, max_extra=6, allow_loops=True), 4) for _ in range(300)]
    for g, top in graphs:
        for k in range(1, top + 1):
            assert find_vertex_cuts(g, k) == scan_vertex_cuts(g, k)


def test_vertex_cut_cap_counts_block_trees():
    # one block tree of the 6-cycle, then one per vertex, then one per
    # pair of vertices that is not a cut itself (15 - 9 of them)
    g = MultiGraph.from_pairs([(i, (i + 1) % 6) for i in range(6)])
    assert len(find_vertex_cuts(g, 3, Caps(max_subsets=13))) == 9
    with pytest.raises(ResourceLimitError) as err:
        find_vertex_cuts(g, 3, Caps(max_subsets=12))
    assert err.value.stage == "find_vertex_cuts"


def test_k4_no_small_cuts():
    assert find_vertex_cuts(k4(), 2) == ()


def test_cut_minimality():
    # path a-b-c-d: {b} and {c} are minimal cuts, {b,c} is not minimal
    g = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 3)])
    cuts = find_vertex_cuts(g, 2)
    assert [sorted(c.cut) for c in cuts] == [[1], [2]]


def test_bridges_partition_non_cut_edges():
    g = MultiGraph.from_pairs([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (2, 4), (3, 4)])
    for cut in find_vertex_cuts(g, 3):
        seen: set[int] = set()
        for b in cut.bridges:
            assert not (seen & b.edges)
            seen |= b.edges
        inside = {
            e for e in g.edge_ids
            if set(g.endpoints(e)) <= cut.cut
        }
        assert seen == g.edge_id_set - inside


# -- blocks -------------------------------------------------------------------


def test_block_tree_structure():
    # triangle, triangle, bridge edge, loop in a chain
    g = MultiGraph.build(
        range(6),
        [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 2, 3), (4, 3, 4), (5, 4, 2), (6, 4, 5), (7, 5, 5)],
    )
    bt = block_tree(g)
    assert [sorted(b.edges) for b in bt.blocks] == [[0, 1, 2], [3, 4, 5], [6], [7]]
    assert bt.cut_vertices == frozenset({2, 4})
    assert set(bt.leaf_blocks()) == {0, 3}
    # bipartite block/junction incidences form a tree per component
    nodes = len(bt.blocks) + len({v for _, v in bt.tree_edges})
    assert len(bt.tree_edges) == nodes - 1


def test_blocks_partition_edges():
    g = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    bt = block_tree(g)
    all_edges = [e for b in bt.blocks for e in b.edges]
    assert sorted(all_edges) == list(g.edge_ids)


def test_two_connected_agrees_with_vertex_cut_scan():
    # from three vertices on no single-edge convention applies
    for n in range(3, 6):
        for g in connected_graph_census(n):
            assert is_two_connected(g) == (not find_vertex_cuts(g, 1))
    rng = random.Random(23)
    for _ in range(300):
        g = random_multigraph(rng, max_n=6, max_extra=6, allow_loops=True)
        loopless = g.subgraph([e for e in g.edge_ids if not g.is_loop(e)], g.vertex_set)
        for h in (g, loopless):
            assert is_two_connected(h) == scan_is_two_connected(h)


def test_two_connected_conventions():
    assert is_two_connected(MultiGraph.from_pairs([(0, 1), (0, 1)]))  # digon
    assert not is_two_connected(MultiGraph.from_pairs([(0, 1)]))      # K2
    assert is_two_connected(k4())
    assert not is_two_connected(MultiGraph.from_pairs([(0, 1), (1, 2)]))


# -- misc helpers ---------------------------------------------------------------


def test_path_between_avoids():
    g = MultiGraph.from_pairs([(0, 1), (1, 2), (0, 3), (3, 2)])
    p = g.path_between(0, 2)
    assert p in ((0, 1), (2, 3))
    assert g.path_between(0, 2, avoid=[1]) == (2, 3)
    assert g.path_between(0, 2, avoid=[1, 3]) is None


def test_bridges_of_cut_on_non_cut():
    g = k4()
    bs = bridges_of_cut(g, {0})
    assert len(bs) == 1
    assert bs[0].interior == frozenset({1, 2, 3})


def test_build_validation():
    with pytest.raises(GraphError):
        MultiGraph.build([0], [(0, 0, 1)])
    with pytest.raises(GraphError):
        MultiGraph.build([0, 1], [(0, 0, 1), (0, 1, 0)])


def _scan_edges_between(g: MultiGraph, u: int, v: int) -> tuple[int, ...]:
    """Every edge whose endpoints are {u, v}, by a scan in edge-id order."""
    want = sorted((u, v))
    return tuple(e for e in g.edge_ids if sorted(g.endpoints(e)) == want)


def test_adjacency_matches_the_incidence_filter():
    rng = random.Random("adjacency")
    for _ in range(200):
        base = random_multigraph(rng, max_n=7, max_extra=8, allow_loops=True)
        ids = rng.sample(range(3 * base.m + 1), base.m)
        g = MultiGraph.build(base.vertices, [(i, *base.endpoints(e)) for i, e in zip(ids, base.edge_ids)])
        for v in g.vertices:
            delta = tuple(e for e in g.incident_edges(v) if not g.is_loop(e))
            assert g.delta(v) == delta
            assert g.neighbors(v) == tuple(sorted({g.other_end(e, v) for e in delta}))
            assert g.adjacent(v) == tuple((g.other_end(e, v), e) for e in delta)
    with pytest.raises(GraphError):
        k4().adjacent(9)


def test_edges_between_matches_a_full_scan():
    rng = random.Random("edges between")
    for _ in range(200):
        base = random_multigraph(rng, max_n=6, max_extra=8, allow_loops=True)
        # sparse, shuffled edge ids, and one isolated vertex
        ids = rng.sample(range(3 * base.m + 1), base.m)
        rows = [(i, *base.endpoints(e)) for i, e in zip(ids, base.edge_ids)]
        g = MultiGraph.build([*base.vertices, base.n], rows)
        probe = [*g.vertices, g.n + 5]  # the last id is no vertex
        for u in probe:
            for v in probe:
                assert g.edges_between(u, v) == _scan_edges_between(g, u, v)
    g = MultiGraph.from_pairs([(0, 1), (1, 0), (1, 1), (1, 2), (0, 1), (1, 1)])
    assert g.edges_between(1, 0) == g.edges_between(0, 1) == (0, 1, 4)
    assert g.edges_between(1, 1) == (2, 5)
    assert g.edges_between(0, 2) == ()


# -- rings at 2-separations -------------------------------------------------------


def random_two_connected(rng: random.Random, max_n: int = 8) -> MultiGraph:
    """A cycle on two to five vertices with up to six ears of one to three
    edges between existing vertices: 2-connected, and the one-edge ears
    are chords or parallel edges."""
    k = rng.randint(2, 5)
    pairs = [(i, (i + 1) % k) for i in range(k)]
    n = k
    for _ in range(rng.randint(0, 6)):
        u, v = rng.sample(range(n), 2)
        path = [u, *range(n, min(n + rng.randint(0, 2), max_n)), v]
        n += len(path) - 2
        pairs += zip(path, path[1:])
    return MultiGraph.from_pairs(pairs)


def read_rings(h: MultiGraph):
    """The reader's bonds, and its rings of three to six parts in the
    scan's form: each 3- to 6-subset of a polygon's hinges with the
    pieces between them merged, as (hinge pair, part edges) pairs."""
    found = rings(h)
    bonds = {b.pair: b.classes for b in found.bonds}
    layouts = {
        frozenset(
            (frozenset({lay.hinges[i - 1], lay.hinges[i]}), part) for i, part in enumerate(lay.parts)
        )
        for lay in _ring_layouts(h)
    }
    return bonds, layouts


def test_rings_match_the_hinge_subset_scan():
    graphs = [g for n in range(2, 8) for g in connected_graph_census(n) if is_two_connected(g)]
    rng = random.Random(31)
    draws = (random_two_connected(rng) for _ in itertools.count())
    multi = list(itertools.islice((g for g in draws if len(g.simple_pairs()) < g.m), 200))
    for g in graphs + multi:
        assert read_rings(g) == scan_rings(g)
    # every 2-connected simple graph on up to seven vertices
    assert len(graphs) == 1 + 3 + 10 + 56 + 468


def test_rings_read_a_cycle_of_blocks_as_one_polygon():
    # a K4 and a digon strung on a 6-cycle, no polygon inside the K4: the polygon's pieces are the
    # blocks, and every adjacent pair and separation pair is a bond
    g = MultiGraph.from_pairs(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 6), (6, 2), (1, 7), (7, 2), (6, 7), (3, 4)]
    )
    found = rings(g)
    (poly,) = found.polygons
    assert {frozenset({poly.hinges[i - 1], poly.hinges[i]}): piece for i, piece in enumerate(poly.pieces)} == {
        frozenset({0, 1}): {0},
        frozenset({1, 2}): {1, 6, 7, 8, 9, 10},
        frozenset({2, 3}): {2},
        frozenset({3, 4}): {3, 11},
        frozenset({4, 5}): {4},
        frozenset({5, 0}): {5},
    }
    bond = next(b for b in found.bonds if b.pair == (1, 2))
    assert bond.classes == (frozenset({0, 2, 3, 4, 5, 11}), frozenset({6, 7, 8, 9, 10}), frozenset({1}))
    with pytest.raises(GraphError):
        rings(MultiGraph.from_pairs([(0, 1), (1, 2)]))

