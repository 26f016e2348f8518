"""Ordered planarity and rotation-system faces against known embeddings.

The facial-triangle sweep compares `ordered_planarity` with the exhaustive
rotation search of `oracles.oracle_find_embedding` on small atlas graphs.
"""

from __future__ import annotations

import itertools
import math
import random

import networkx as nx
import pytest

from tanglekit.graph import GraphError, MultiGraph
from tanglekit.embedding import (
    OrderedPlanarEmbedding,
    collapse_cyclic,
    ordered_planarity,
    verify_ordered_embedding,
    walk_contains_order,
)
from oracles import oracle_find_embedding, oracle_planar_faces, oracle_rotation_systems


def k4() -> MultiGraph:
    return MultiGraph.from_pairs([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def cube() -> MultiGraph:
    return MultiGraph.from_pairs(
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)]
    )


def octahedron() -> MultiGraph:
    return MultiGraph.from_pairs(
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
         (0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)]
    )


# -- order matching ------------------------------------------------------------


def test_collapse_cyclic():
    assert collapse_cyclic((1, 1, 2, 3, 3, 1)) == (1, 2, 3)
    assert collapse_cyclic((5,)) == (5,)
    assert collapse_cyclic(()) == ()


def test_walk_contains_order_is_circular_and_unoriented():
    walk = (0, 1, 2, 3)
    assert walk_contains_order(walk, (0, 2))
    assert walk_contains_order(walk, (3, 1, 2))   # rotation
    assert walk_contains_order(walk, (0, 2, 1))   # reflection
    assert not walk_contains_order(walk, (0, 4))
    assert walk_contains_order(walk, ())


# -- ordered planarity ---------------------------------------------------------


def test_k4_triangle_face_but_no_four_face():
    e = ordered_planarity(k4(), (0, 1, 2))
    assert e is not None
    assert verify_ordered_embedding(k4(), e) == []
    assert ordered_planarity(k4(), (0, 1, 2, 3)) is None


def test_k5_is_not_planar():
    k5 = MultiGraph.from_pairs([(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert ordered_planarity(k5) is None


def test_cube_faces():
    g = cube()
    assert ordered_planarity(g, (0, 1, 2, 3)) is not None
    assert ordered_planarity(g, (0, 3, 2, 1)) is not None   # reflection
    assert ordered_planarity(g, (0, 2, 5, 7)) is None       # not on a face
    assert ordered_planarity(g, (0, 2)) is not None         # share face 0123
    assert ordered_planarity(g, (0, 6)) is None             # antipodal corners


def test_multigraph_faces_with_loop_and_digon():
    g = MultiGraph.build([0, 1, 2], [(0, 0, 1), (1, 0, 1), (2, 1, 2), (3, 2, 2)])
    e = ordered_planarity(g, (0, 1, 2))
    assert e is not None
    assert verify_ordered_embedding(g, e) == []
    walks = sorted(e.rotation.face_walk(g, f) for f in e.rotation.faces())
    # outer walk visiting the loop vertex twice, digon face, loop face
    assert walks == [(0, 1, 2, 2, 1), (1, 0), (2,)]


def test_set_entries_mean_consecutive():
    hexg = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    e = ordered_planarity(hexg, (0, frozenset({1, 2}), 3, frozenset({4, 5})))
    assert e is not None and e.order == (0, 1, 2, 3, 4, 5)
    assert ordered_planarity(hexg, (0, frozenset({1, 4}), 3, frozenset({2, 5}))) is None


def test_isolated_vertices_are_free():
    g = MultiGraph.build([0, 1, 2, 9], [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
    e = ordered_planarity(g, (0, 9, 1, 2))
    assert e is not None


def test_unknown_order_vertex_raises():
    with pytest.raises(GraphError):
        ordered_planarity(k4(), (0, 17))


def test_order_across_components_raises():
    g = MultiGraph.from_pairs([(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(GraphError):
        ordered_planarity(g, (0, 3))


# -- facial triangles ------------------------------------------------------------


def triangles(*sets) -> list[frozenset[int]]:
    return [frozenset(t) for t in sets]


def k23_plus_edge() -> MultiGraph:
    """K_{2,3} with parts {3, 4} and {0, 1, 2}, plus the edge 3-4."""
    return MultiGraph.from_pairs([(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def has_triangle_face(g: MultiGraph, emb: OrderedPlanarEmbedding, tri: frozenset[int]) -> bool:
    rot = emb.rotation
    return any(len(f) == 3 and set(rot.face_walk(g, f)) == tri for f in rot.faces())


def test_octahedron_facial_triangles():
    g = octahedron()
    assert ordered_planarity(g, facial_triangles=triangles({0, 1, 2}, {3, 4, 5})) is not None
    assert ordered_planarity(g, facial_triangles=triangles({0, 1, 5})) is None  # 0-5 not an edge


def test_k4_all_triangles_are_facial_somewhere():
    g = k4()
    for tri in ({0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}):
        emb = ordered_planarity(g, facial_triangles=triangles(tri))
        assert emb is not None
        assert verify_ordered_embedding(g, emb) == []
        assert has_triangle_face(g, emb, frozenset(tri))


def test_order_inside_a_required_triangle_uses_its_face():
    # with a wheel on (0, 1, 2) the claw graph would be K3,3
    g = k4()
    emb = ordered_planarity(g, (0, 1, 2), facial_triangles=triangles({0, 1, 2}))
    assert emb is not None
    assert verify_ordered_embedding(g, emb, (0, 1, 2)) == []
    assert has_triangle_face(g, emb, frozenset({0, 1, 2}))


def test_three_triangles_on_one_edge_do_not_fit():
    g = k23_plus_edge()
    assert ordered_planarity(g, facial_triangles=triangles({0, 3, 4}, {1, 3, 4}, {2, 3, 4})) is None


def test_two_triangles_on_one_edge_leave_no_face_for_the_order():
    g = k23_plus_edge()
    tris = triangles({0, 3, 4}, {1, 3, 4})
    assert ordered_planarity(g, facial_triangles=tris) is not None
    assert ordered_planarity(g, (0, 4, 1, 3), facial_triangles=tris) is None


def test_parallel_edges_give_a_pair_more_triangle_faces():
    # a doubled 3-4 edge carries all three triangles: two on one copy, one on the other
    g = MultiGraph.from_pairs([(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 4)])
    tris = triangles({0, 3, 4}, {1, 3, 4}, {2, 3, 4})
    emb = ordered_planarity(g, facial_triangles=tris)
    assert emb is not None and all(has_triangle_face(g, emb, t) for t in tris)


def test_closed_fan_leaves_no_corner_for_another_edge():
    # the three triangles at 4 fill its corners, so the edge 0-4 has nowhere to go
    g = MultiGraph.from_pairs([(0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    tris = triangles({1, 2, 4}, {1, 3, 4}, {2, 3, 4})
    assert ordered_planarity(g, facial_triangles=tris) is None
    assert ordered_planarity(g.delete_vertices({0}), facial_triangles=tris) is not None


def test_loop_stays_out_of_a_triangle_face():
    g = MultiGraph.from_pairs([(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (3, 3)])
    tris = triangles({0, 1, 3}, {1, 2, 3}, {0, 2, 3})
    assert ordered_planarity(g, facial_triangles=tris) is None  # closed fan at 3 with a loop
    emb = ordered_planarity(g, facial_triangles=tris[:2])
    assert emb is not None and all(has_triangle_face(g, emb, t) for t in tris[:2])


# -- verification catches lies ----------------------------------------------------


def test_verify_rejects_wrong_face():
    g = k4()
    e = ordered_planarity(g, (0, 1, 2))
    assert e is not None
    bogus = OrderedPlanarEmbedding(e.rotation, ((0, 0), (1, 1)), e.order)
    assert verify_ordered_embedding(g, bogus) != []


def test_verify_rejects_nonplanar_rotation():
    # K5 rotation systems are never planar; check one
    k5 = MultiGraph.from_pairs([(i, j) for i in range(5) for j in range(i + 1, 5)])
    rot = next(oracle_rotation_systems(k5))
    assert not rot.is_planar(k5)


def test_rotation_count_is_product_of_cyclic_orders():
    c3 = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0)])
    assert sum(1 for _ in oracle_rotation_systems(c3)) == 1
    # (3-1)! cyclic orders per K4 vertex; exactly the two mirror-image
    # rotation systems of the unique embedding pass the Euler check
    assert sum(1 for _ in oracle_rotation_systems(k4())) == 16
    assert sum(1 for r in oracle_rotation_systems(k4()) if r.is_planar(k4())) == 2


# -- differential sweep against the exhaustive rotation search ----------------------


def rotation_count(g: MultiGraph) -> int:
    return math.prod(
        math.factorial(max(sum(2 if g.is_loop(e) else 1 for e in g.incident_edges(v)) - 1, 1))
        for v in g.vertices
    )


def sweep_cases(n: int):
    """Atlas graphs on n vertices with their queries, as (graph, triangle sets, orders).

    Every connected graph whose rotation count is at most 400 comes with one
    doubled-edge and one loop variant.  The triangle sets are none, each
    triangle, each pair and up to six seeded triples; the orders are the
    empty one and ten seeded orders of 2-4 vertices.
    """
    for idx, atlas in enumerate(nx.graph_atlas_g()):
        if atlas.number_of_nodes() != n or not nx.is_connected(atlas):
            continue
        base = MultiGraph.from_pairs(sorted(atlas.edges()))
        if rotation_count(base) > 400:
            continue
        rng = random.Random(idx)
        pairs = list(base.simple_pairs())
        doubled = pairs + [rng.choice(pairs)]
        looped = pairs + [(rng.choice(base.vertices),) * 2]
        tris = [
            frozenset(t)
            for t in itertools.combinations(base.vertices, 3)
            if all(base.edges_between(a, b) for a, b in itertools.combinations(t, 2))
        ]
        triples = list(itertools.combinations(tris, 3))
        sets = [(), *((t,) for t in tris), *itertools.combinations(tris, 2)]
        sets += rng.sample(triples, min(6, len(triples)))
        orders = [()] + [tuple(rng.sample(base.vertices, rng.randint(2, min(4, n)))) for _ in range(10)]
        for g in (base, MultiGraph.from_pairs(doubled), MultiGraph.from_pairs(looped)):
            yield g, sets, orders


def check_against_oracle(n: int, orders_per_graph: int = 11) -> int:
    """Existence equals the oracle's; every embedding verifies.  Returns the case count."""
    count = 0
    for g, sets, orders in sweep_cases(n):
        planar = oracle_planar_faces(g)
        for tris in sets:
            for order in orders[:orders_per_graph]:
                count += 1
                want = oracle_find_embedding(g, order, tris, planar=planar)
                got = ordered_planarity(g, order, facial_triangles=tris)
                assert (got is None) == (want is None), (g.edge_map, tris, order)
                if got is not None:
                    assert verify_ordered_embedding(g, got, order) == [], (g.edge_map, tris, order)
                    assert all(has_triangle_face(g, got, t) for t in tris), (g.edge_map, tris, order)
    return count


@pytest.mark.parametrize("n", [3, 4, 5])
def test_facial_triangles_match_the_rotation_search(n):
    # the empty order and the first three seeded ones; the full sweep is a wall test
    assert check_against_oracle(n, orders_per_graph=4) > 0


@pytest.mark.wall
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_facial_triangles_match_the_rotation_search_in_full(n):
    assert check_against_oracle(n) > 0
