"""Linkage search and three-planar witnesses."""

from __future__ import annotations

import dataclasses
import itertools
import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

import tanglekit.embedding as embedding_module
import tanglekit.families as families_module
import tanglekit.linkage
from tanglekit.classify import classify
from tanglekit.embedding import RotationSystem
from tanglekit.graph import MultiGraph
from tanglekit.limits import Caps, ResourceLimitError
from tanglekit.linkage import (
    Linkage,
    LinkageError,
    ThreePlanarWitness,
    VertexPath,
    _attempt_witness,
    _fan_cut_part,
    _reduction_sets,
    find_linkage,
    find_three_planar,
    neighborhood,
    project,
    verify_linkage,
    verify_witness,
)

from oracles import disjoint_path_pair, oracle_find_linkage, oracle_find_three_planar, random_multigraph
from test_classify import classify_full_cases


def k4() -> MultiGraph:
    return MultiGraph.from_pairs([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def c4() -> MultiGraph:
    return MultiGraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)])


def c4_plus_b() -> MultiGraph:
    """C4 on 0,1,2,3 plus vertex 4 adjacent to 0, 1, 2."""
    return MultiGraph.from_pairs(
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2)]
    )


def handle_c5() -> MultiGraph:
    """C5 on 0,2,6,1,3 plus a handle path 0-4-5-1."""
    return MultiGraph.from_pairs(
        [(0, 2), (2, 6), (6, 1), (1, 3), (3, 0), (0, 4), (4, 5), (5, 1)]
    )


# ---------------------------------------------------------------------------
# Paths, projections
# ---------------------------------------------------------------------------


def test_vertex_path_from_vertices_picks_least_edge():
    g = MultiGraph.from_pairs([(0, 1), (0, 1), (1, 2)])
    p = VertexPath.from_vertices(g, (0, 1, 2))
    assert p.edges == (0, 2)
    assert p.validate(g) == []


def test_vertex_path_validate_flags_breaks():
    g = c4()
    assert VertexPath((0, 2), (0,)).validate(g)
    assert VertexPath((0, 1, 0), (0, 0)).validate(g)


def test_verify_linkage_rejects_shared_vertex():
    g = k4()
    l1 = VertexPath.from_vertices(g, (0, 2, 1))
    l2 = VertexPath.from_vertices(g, (2, 3))
    bad = verify_linkage(g, Linkage(l1, l2), 0, 1, 2, 3)
    assert any("share" in d for d in bad)


def test_project_adds_only_missing_clique_edges():
    g = c4_plus_b()
    proj, added = project(g, (frozenset({4}),))
    assert proj.vertex_set == {0, 1, 2, 3}
    # 0-1 and 1-2 already exist; only 0-2 is new
    assert len(added) == 1
    new_id, sources = added[0]
    assert sources == (0,)
    assert frozenset(proj.endpoints(new_id)) == frozenset({0, 2})


def test_neighborhood_ignores_internal_edges():
    g = handle_c5()
    assert neighborhood(g, {4, 5}) == {0, 1}
    assert neighborhood(g, {4}) == {0, 5}


# ---------------------------------------------------------------------------
# find_linkage dichotomy
# ---------------------------------------------------------------------------


def test_k4_has_linkage():
    got = find_linkage(k4(), 0, 1, 2, 3)
    assert isinstance(got, Linkage)
    assert verify_linkage(k4(), got, 0, 1, 2, 3) == ()


def test_c4_crossing_terminals_gives_empty_witness():
    g = c4()
    got = find_linkage(g, 0, 2, 1, 3)
    assert isinstance(got, ThreePlanarWitness)
    assert got.sets == ()
    assert verify_witness(g, got, (0, 1, 2, 3)) == ()


def test_c4_plus_b_has_no_linkage():
    g = c4_plus_b()
    assert disjoint_path_pair(g, 0, 2, 1, 3) is None
    got = find_linkage(g, 0, 2, 1, 3)
    assert isinstance(got, ThreePlanarWitness)
    assert verify_witness(g, got, (0, 1, 2, 3)) == ()


def test_c4_plus_b_admits_singleton_set_witness():
    """Deleting the fan vertex also certifies, with a facial triangle."""
    g = c4_plus_b()
    w = _attempt_witness(g, (frozenset({4}),), (0, 1, 2, 3))
    assert w is not None
    assert w.facial_triangles == (frozenset({0, 1, 2}),)
    assert verify_witness(g, w, (0, 1, 2, 3)) == ()


def test_find_linkage_rejects_repeated_terminals():
    with pytest.raises(LinkageError):
        find_linkage(k4(), 0, 1, 1, 3)


def test_find_linkage_rejects_disconnected_graph():
    g = MultiGraph.from_pairs([(0, 1), (2, 3)])
    with pytest.raises(LinkageError):
        find_linkage(g, 0, 1, 2, 3)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_dichotomy_matches_exhaustive_oracle(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=7, max_extra=5)
    assume(g.is_connected() and g.n >= 4)
    s1, t1, s2, t2 = rng.sample(sorted(g.vertex_set), 4)
    oracle = disjoint_path_pair(g, s1, t1, s2, t2)
    got = find_linkage(g, s1, t1, s2, t2)
    if oracle is not None:
        assert isinstance(got, Linkage)
        assert verify_linkage(g, got, s1, t1, s2, t2) == ()
    else:
        assert isinstance(got, ThreePlanarWitness)
        assert verify_witness(g, got, (s1, s2, t1, t2)) == ()


def k33_part_on_c4() -> MultiGraph:
    """C4 on 0,1,2,3; a triangle 4,5,6 joined to all of 0, 1, 2 (so K3,3)."""
    return MultiGraph.from_pairs(
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)]
        + [(x, a) for x in (4, 5, 6) for a in (0, 1, 2)]
    )


def grid(k: int) -> MultiGraph:
    return MultiGraph.from_pairs(
        [(i * k + j, i * k + j + 1) for i in range(k) for j in range(k - 1)]
        + [(i * k + j, i * k + j + k) for i in range(k - 1) for j in range(k)]
    )


def test_reduction_witness_replaces_a_nonplanar_part():
    g = k33_part_on_c4()
    got = find_linkage(g, 0, 2, 1, 3)
    assert isinstance(got, ThreePlanarWitness)
    assert got.sets == (frozenset({4, 5, 6}),)
    assert got.facial_triangles == (frozenset({0, 1, 2}),)
    assert verify_witness(g, got, (0, 1, 2, 3)) == ()


def test_grid_corners_decided_without_path_enumeration():
    """Crossing corners embed at once; linked corners fall to one descent."""
    g = grid(8)
    tl, tr, bl, br = 0, 7, 56, 63
    crossing = find_linkage(g, tl, br, tr, bl, Caps(max_subsets=0))
    assert isinstance(crossing, ThreePlanarWitness) and crossing.sets == ()
    linked = find_linkage(g, tl, tr, bl, br, Caps(max_subsets=7))
    assert linked.first.vertices == tuple(range(8))
    assert linked.second.vertices == tuple(range(56, 64))


def test_fan_cut_part_against_networkx_connectivity():
    """A part exactly when v has fewer than four fan paths to the terminals;
    the part holds v and no terminal, is connected and has at most three
    neighbours."""
    rng = random.Random("fan cut")
    parts = 0
    for _ in range(300):
        g = random_multigraph(rng, max_n=9, max_extra=12, allow_loops=True)
        if g.n < 5:
            continue
        terminals = frozenset(rng.sample(sorted(g.vertex_set), 4))
        adj = {v: set(g.neighbors(v)) for v in g.vertices}
        nxg = nx.Graph(g.simple_pairs())
        nxg.add_nodes_from(g.vertices)
        nxg.add_edges_from(("sink", t) for t in terminals)
        for v in sorted(g.vertex_set - terminals):
            part = _fan_cut_part(adj, v, terminals)
            fans = nx.algorithms.connectivity.local_node_connectivity(nxg, v, "sink")
            assert (part is None) == (fans >= 4)
            if part is None:
                continue
            parts += 1
            assert v in part and not part & terminals
            assert g.induced(part).is_connected()
            assert len(neighborhood(g, part)) <= 3
    assert parts > 100
    g = k33_part_on_c4()
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    assert _fan_cut_part(adj, 4, frozenset({0, 1, 2, 3})) == {4, 5, 6}


def test_linkage_path_search_is_capped():
    """Stage 2 takes one extension and misses; stage 4 backtracks once."""
    g = MultiGraph.from_pairs([(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    for cap in (0, 1):
        with pytest.raises(ResourceLimitError) as err:
            find_linkage(g, 0, 4, 1, 2, Caps(max_subsets=cap))
        assert err.value.stage == "linkage path search"
    got = find_linkage(g, 0, 4, 1, 2, Caps(max_subsets=2))
    assert got.first.vertices == (0, 4)
    assert got.second.vertices == (1, 3, 2)


def loop_wheel(rim: int) -> MultiGraph:
    """Rim 0..rim-1; hub 10 with a loop, joined to rim edge i through vertex 20 + i.

    A K5 on 30..34 hangs off rim vertex 0.  The reduction deletes it and
    every vertex 20 + i, whose triangles then fill every corner at the hub.
    """
    pairs = [(i, (i + 1) % rim) for i in range(rim)] + [(10, 10)]
    pairs += [(20 + i, v) for i in range(rim) for v in (10, i, (i + 1) % rim)]
    pairs += [(u, v) for u in range(30, 35) for v in range(u + 1, 35)] + [(30, 0)]
    return MultiGraph.from_pairs(pairs)


def test_reduction_witness_takes_no_cap():
    w = find_three_planar(k33_part_on_c4(), (0, 1, 2, 3))
    assert w.sets == (frozenset({4, 5, 6}),)


@pytest.mark.parametrize("rim", [4, 5])
def test_a_loop_the_reduction_triangles_crowd_out_goes_to_the_witness_search(rim):
    """Without its loop the reduction witness holds; with it only a witness keeping the spokes does."""
    g = loop_wheel(rim)
    order = tuple(range(rim))
    sets = _reduction_sets(g, frozenset(order))
    assert sets == (*(frozenset({20 + i}) for i in range(rim)), frozenset(range(30, 35)))
    assert _attempt_witness(g, sets, order) is None
    assert _attempt_witness(g.delete_edges([e for e, _ in g.loops]), sets, order) is not None
    w = find_three_planar(g, order)
    assert w.sets == (frozenset({31, 32}),)
    assert verify_witness(g, w, order) == ()


def test_witness_search_is_capped():
    """The empty set, ten singletons, then the 40th pair {31, 32}."""
    g = loop_wheel(4)
    with pytest.raises(ResourceLimitError) as err:
        find_three_planar(g, (0, 1, 2, 3), Caps(max_subsets=50))
    assert err.value.stage == "witness search"
    w = find_three_planar(g, (0, 1, 2, 3), Caps(max_subsets=51))
    assert w.sets == (frozenset({31, 32}),)


def test_find_linkage_certifies_a_loop_the_reduction_triangles_crowd_out():
    g = loop_wheel(4)
    got = find_linkage(g, 0, 2, 1, 3)
    assert isinstance(got, ThreePlanarWitness)
    assert verify_witness(g, got, (0, 1, 2, 3)) == ()


@pytest.mark.parametrize("loop", [False, True])
def test_witness_needs_a_triangle_face_the_plain_embedding_misses(loop):
    """Two doubled pairs; the one deleted set's neighbourhood {0, 2, 4} must bound a face."""
    pairs = [(0, 4), (4, 2), (2, 3), (2, 5), (2, 1), (5, 6), (3, 7), (2, 3), (0, 6), (1, 4), (0, 1), (0, 4),
             (2, 7), (4, 6)]
    g = MultiGraph.from_pairs(pairs + [(7, 7)] * loop)
    order = (4, 0, 7, 2)
    w = find_three_planar(g, order)
    assert w is not None
    assert w.sets == (frozenset({1}), frozenset({3}), frozenset({5, 6}))
    assert w.facial_triangles == (frozenset({0, 2, 4}),)
    assert verify_witness(g, w, order) == ()


def _atlas_cases():
    for i, nxg in enumerate(nx.graph_atlas_g()):
        if not 4 <= nxg.number_of_nodes() <= 6 or not nx.is_connected(nxg):
            continue
        g = MultiGraph.from_pairs(sorted(nxg.edges()), vertices=nxg.nodes())
        rng = random.Random(f"atlas/{i}")
        for _ in range(6):
            yield g, tuple(rng.sample(sorted(g.vertex_set), 4))


def _random_cases(count: int):
    rng = random.Random("linkage/random")
    while count:
        g = random_multigraph(rng, max_n=9, allow_loops=True)
        if g.n >= 4:
            count -= 1
            yield g, tuple(rng.sample(sorted(g.vertex_set), 4))


@pytest.mark.parametrize(
    "cases, size", [(_atlas_cases, 834), (lambda: _random_cases(400), 400)], ids=["atlas", "random"]
)
def test_find_linkage_matches_the_path_enumeration_oracle(cases, size, monkeypatch):
    """Linkages and empty-set witnesses equal the old route's; no witness search."""
    planar_calls = []
    monkeypatch.setattr(
        tanglekit.linkage, "_witness_search", lambda *a, **k: planar_calls.append(a)
    )
    reduced = seen = 0
    for g, (s1, t1, s2, t2) in cases():
        seen += 1
        got = find_linkage(g, s1, t1, s2, t2)
        want = oracle_find_linkage(g, s1, t1, s2, t2)
        assert isinstance(got, Linkage) == (disjoint_path_pair(g, s1, t1, s2, t2) is not None)
        assert type(got) is type(want)
        if isinstance(got, Linkage) or want.sets == ():
            assert got == want
        else:
            assert got.sets and verify_witness(g, got, (s1, s2, t1, t2)) == ()
            reduced += 1
    assert seen == size
    assert reduced > 0
    assert planar_calls == []


# ---------------------------------------------------------------------------
# verify_witness
# ---------------------------------------------------------------------------


def test_verify_witness_walks_the_faces_once(monkeypatch):
    # is_planar, verify_ordered_embedding and the facial-triangle check all
    # read the faces of one rotation system
    g = k33_part_on_c4()
    got = find_linkage(g, 0, 2, 1, 3)
    emb = got.embedding
    fresh = dataclasses.replace(emb, rotation=RotationSystem(emb.rotation.rotations))
    walks = []
    real = embedding_module._face_orbits
    monkeypatch.setattr(embedding_module, "_face_orbits", lambda nxt: walks.append(nxt) or real(nxt))
    assert verify_witness(g, dataclasses.replace(got, embedding=fresh), (0, 1, 2, 3)) == ()
    assert len(walks) == 1


def test_verify_witness_flags_wide_attachment():
    """The internal constructor does not police attachments; verify does."""
    g = MultiGraph.from_pairs(
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
    )
    w = _attempt_witness(g, (frozenset({4}),), ())
    assert w is not None
    assert any("attachment" in d for d in verify_witness(g, w, ()))
    # the honest search never proposes that set: the hub stays put
    legit = find_three_planar(g, (0, 1, 2, 3))
    assert legit is not None and legit.sets == ()


def test_verify_witness_flags_nonplanar_projection():
    k5 = MultiGraph.from_pairs(list(itertools.combinations(range(5), 2)))
    base = _attempt_witness(c4(), (), (0, 1, 2, 3))
    forged = ThreePlanarWitness((), k5, base.embedding, (), ())
    bad = verify_witness(k5, forged, (0, 1, 2, 3))
    assert bad


def test_verify_witness_flags_required_vertex_inside_set():
    g = c4_plus_b()
    w = _attempt_witness(g, (frozenset({4}),), (0, 1, 2, 3))
    bad = verify_witness(g, w, (0, 1, 4, 3))
    assert any("required" in d for d in bad)


# ---------------------------------------------------------------------------
# Witness sets
# ---------------------------------------------------------------------------


def test_minimalize_keeps_empty_and_singleton_sets():
    """Witnesses keep the sets they are built from: none, or one singleton."""
    g = c4()
    w = _attempt_witness(g, (), (0, 1, 2, 3))
    assert w.sets == ()
    g2 = c4_plus_b()
    w2 = _attempt_witness(g2, (frozenset({4}),), (0, 1, 2, 3))
    assert w2.sets == (frozenset({4}),)
    assert verify_witness(g2, w2, (0, 1, 2, 3)) == ()


def test_minimalize_splits_separable_components():
    """Two nonadjacent fan vertices certify as one set or as two."""
    g = MultiGraph.from_pairs(
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 0), (5, 1)]
    )
    order = (0, 1, 2, 3)
    w = _attempt_witness(g, (frozenset({4, 5}),), order)
    assert w is not None and verify_witness(g, w, order) == ()
    split = _attempt_witness(g, (frozenset({4}), frozenset({5})), order)
    assert split.sets == (frozenset({4}), frozenset({5}))
    assert verify_witness(g, split, order) == ()


def test_minimalize_leaves_connected_pair_alone():
    """A set joined by an edge certifies whole; split, its halves are adjacent."""
    g = handle_c5()
    order = (0, 2, 6, 1, 3)
    w = _attempt_witness(g, (frozenset({4, 5}),), order)
    assert w.sets == (frozenset({4, 5}),)
    assert verify_witness(g, w, order) == ()
    split = _attempt_witness(g, (frozenset({4}), frozenset({5})), order)
    assert "sets 0 and 1 are adjacent" in verify_witness(g, split, order)


def test_cycle_through_face_already_in_graph():
    """With no sets, the ordered face of C4 is C4 itself."""
    g = c4()
    w = _attempt_witness(g, (), (0, 1, 2, 3))
    assert w.added_edges == ()
    assert w.embedding.order == (0, 1, 2, 3)
    assert {e for e, _ in w.embedding.face} == g.edge_id_set


# ---------------------------------------------------------------------------
# find_three_planar against the exhaustive search
# ---------------------------------------------------------------------------


def _random_order(rng: random.Random, vertices: list[int]) -> tuple:
    """2-7 entries on distinct vertices; about a quarter of them sets of 2 or 3."""
    picked = rng.sample(vertices, rng.randint(2, min(7, len(vertices))))
    order: list = []
    while picked:
        k = rng.choice((1, 1, 1, 1, 1, 2, 3))
        head, picked = picked[:k], picked[k:]
        order.append(head[0] if len(head) == 1 else frozenset(head))
    return tuple(order)


def _three_planar_atlas_cases(sizes):
    for i, nxg in enumerate(nx.graph_atlas_g()):
        if nxg.number_of_nodes() in sizes and nx.is_connected(nxg):
            g = MultiGraph.from_pairs(sorted(nxg.edges()), vertices=nxg.nodes())
            rng = random.Random(f"three-planar/atlas/{i}")
            for _ in range(8):
                yield g, _random_order(rng, sorted(g.vertex_set))


def _three_planar_random_cases(count: int):
    rng = random.Random("three-planar/random")
    while count:
        g = random_multigraph(rng, max_n=9, max_extra=rng.randint(8, 16), allow_loops=True)
        if g.n >= 3:
            count -= 1
            yield g, _random_order(rng, sorted(g.vertex_set))


def _assert_matches_the_search(cases) -> tuple[int, int]:
    """Both find a witness or neither does; every witness verifies."""
    seen = reduced = 0
    for g, order in cases:
        seen += 1
        got = find_three_planar(g, order)
        want = oracle_find_three_planar(g, order)
        assert (got is None) == (want is None), (g.edge_map, order)
        if got is not None:
            assert verify_witness(g, got, order) == ()
            reduced += bool(got.sets)
    return seen, reduced


def test_find_three_planar_matches_the_witness_search():
    seen, reduced = _assert_matches_the_search(
        itertools.chain(_three_planar_atlas_cases({4, 5, 6}), _three_planar_random_cases(1200))
    )
    assert seen == 8 * 139 + 1200
    assert reduced >= 100


def test_find_three_planar_matches_the_witness_search_on_tricoloured_cores(monkeypatch):
    """Every (core, order) pair the Tricoloured clause checks on the classify-full inputs
    has a witness with no deleted set."""
    cases = []
    real = families_module.find_three_planar

    def record(core, order, **kw):
        cases.append((core, order))
        return real(core, order, **kw)

    monkeypatch.setattr(families_module, "find_three_planar", record)
    for o in classify_full_cases().values():
        classify(o)
    assert cases
    assert all(oracle_find_three_planar(core, order).sets == () for core, order in cases)
    assert _assert_matches_the_search(cases) == (len(cases), 0)


@pytest.mark.wall
def test_find_three_planar_matches_the_witness_search_on_seven_vertices():
    seen, reduced = _assert_matches_the_search(_three_planar_atlas_cases({7}))
    assert seen == 8 * 853
    assert reduced > 0


# ---------------------------------------------------------------------------
# find_three_planar on set-valued orders
# ---------------------------------------------------------------------------


def theta_graph() -> MultiGraph:
    """Three paths 0-2-1, 0-5-1 and 0-3-1."""
    return MultiGraph.from_pairs([(0, 2), (2, 1), (0, 5), (5, 1), (0, 3), (3, 1)])


def test_planar_or_2sep_c4_opposite():
    g = c4()
    order = (0, frozenset({1}), 2, frozenset({3}))
    w = find_three_planar(g, order)
    assert w is not None and w.sets == ()
    assert verify_witness(g, w, order) == ()


def test_planar_or_2sep_singletons_always_witness():
    theta = theta_graph()
    order = (0, frozenset({2}), 1, frozenset({5}))
    w = find_three_planar(theta, order)
    assert w is not None and verify_witness(theta, w, order) == ()


def test_planar_or_2sep_theta_forces_separation():
    """Three parallel paths: no face carries one X vertex and two Y ones."""
    theta = theta_graph()
    assert find_three_planar(theta, (0, frozenset({2}), 1, frozenset({5, 3}))) is None
    assert find_three_planar(theta, (0, frozenset({2, 3}), 1, frozenset({5}))) is None
    # {0, 1} separates the three middle vertices from one another
    parts = theta.delete_vertices([0, 1]).components()
    assert sorted(sorted(p) for p in parts) == [[2], [3], [5]]


def test_planar_or_2sep_reports_linkage():
    """K4 has no witness for (0, {2}, 1, {3}) because it links 0-1 and 2-3."""
    g = k4()
    assert find_three_planar(g, (0, frozenset({2}), 1, frozenset({3}))) is None
    got = find_linkage(g, 0, 1, 2, 3)
    assert isinstance(got, Linkage)
    assert verify_linkage(g, got, 0, 1, 2, 3) == ()


def test_three_planar_rejects_unknown_order_vertices():
    with pytest.raises(LinkageError):
        find_three_planar(c4(), (0, frozenset({1, 9}), 2))


# ---------------------------------------------------------------------------
# find_three_planar on orders of several terminal pairs
# ---------------------------------------------------------------------------


def c6() -> MultiGraph:
    return MultiGraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


def _pair_orders(pairs):
    """Every order s_1..s_k t_1..t_k over the pairs, each pair either way."""
    for perm in itertools.permutations(pairs):
        for swap in itertools.product((False, True), repeat=len(pairs)):
            ps = [p[::-1] if sw else p for p, sw in zip(perm, swap)]
            yield tuple(p[0] for p in ps) + tuple(p[1] for p in ps)


def test_multi_pair_order_two_pairs_matches_find_linkage():
    g = c4()
    w = find_three_planar(g, (0, 1, 2, 3))
    assert w is not None and verify_witness(g, w, (0, 1, 2, 3)) == ()
    got = find_linkage(g, 0, 2, 1, 3)
    assert isinstance(got, ThreePlanarWitness)
    assert verify_witness(g, got, (0, 1, 2, 3)) == ()


def test_multi_pair_order_c6_natural_order():
    g = c6()
    order = (0, 1, 2, 3, 4, 5)
    w = find_three_planar(g, order)
    assert w is not None and verify_witness(g, w, order) == ()
    assert w.sets == () and w.embedding.order == order
    for (s1, t1), (s2, t2) in itertools.combinations([(0, 3), (1, 4), (2, 5)], 2):
        assert isinstance(find_linkage(g, s1, t1, s2, t2), ThreePlanarWitness)


def test_multi_pair_order_needs_reordering():
    """Same three pairs listed shuffled still land on the C6 face."""
    g = c6()
    pairs = [(0, 3), (5, 2), (1, 4)]
    assert find_three_planar(g, (0, 5, 1, 3, 2, 4)) is None
    found = []
    for order in _pair_orders(pairs):
        w = find_three_planar(g, order)
        if w is not None:
            assert verify_witness(g, w, order) == ()
            assert set(w.embedding.order) == {0, 1, 2, 3, 4, 5}
            found.append(order)
    assert (0, 1, 2, 3, 4, 5) in found


def test_multi_pair_order_reports_linkage():
    g = k4()
    assert all(find_three_planar(g, o) is None for o in _pair_orders([(0, 1), (2, 3)]))
    got = find_linkage(g, 0, 1, 2, 3)
    assert isinstance(got, Linkage)
    assert verify_linkage(g, got, 0, 1, 2, 3) == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_multi_pair_order_random_no_linkage_instances(seed):
    """On chorded cycles a witness for (s1, s2, t1, t2) exists iff no linkage does."""
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    rim = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(rng.randint(0, 2)):
        rim.append(tuple(rng.sample(range(n), 2)))
    g = MultiGraph.from_pairs(rim)
    s1, t1, s2, t2 = rng.sample(range(n), 4)
    w = find_three_planar(g, (s1, s2, t1, t2))
    assert (w is None) == (disjoint_path_pair(g, s1, t1, s2, t2) is not None)
    if w is not None:
        assert verify_witness(g, w, (s1, s2, t1, t2)) == ()


# ---------------------------------------------------------------------------
# Two-vertex hub cuts
# ---------------------------------------------------------------------------


def _assert_hub_separates(g, hub, apexes):
    """Deleting the hub isolates every apex, so no two apexes link past it."""
    parts = g.delete_vertices(list(hub)).components()
    assert sorted(sorted(p) for p in parts) == [[a] for a in sorted(apexes)]
    s, t = hub
    for x, y in itertools.combinations(apexes, 2):
        got = find_linkage(g, s, t, x, y)
        assert isinstance(got, ThreePlanarWitness)
        assert verify_witness(g, got, (s, x, t, y)) == ()


def test_hub_cut_star_of_triangles():
    g = MultiGraph.from_pairs(
        [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)]
    )
    _assert_hub_separates(g, (0, 1), [2, 3, 4])


def test_hub_cut_reports_found_linkage():
    """In K4 the hub {0, 1} leaves 2 and 3 joined, and 0-1, 2-3 link."""
    g = k4()
    assert len(g.delete_vertices([0, 1]).components()) == 1
    got = find_linkage(g, 0, 1, 2, 3)
    assert isinstance(got, Linkage)
    assert verify_linkage(g, got, 0, 1, 2, 3) == ()


def test_hub_cut_book_graph():
    """Four triangular pages glued along one spine edge."""
    pairs = [(0, 1)]
    for apex in (2, 3, 4, 5):
        pairs += [(0, apex), (1, apex)]
    _assert_hub_separates(MultiGraph.from_pairs(pairs), (0, 1), [2, 3, 4, 5])
