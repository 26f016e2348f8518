"""The left-right planarity test of `ordered_planarity` against networkx.

The kernel `_planar_rotation` must give networkx's verdict and the very
rotation ``nx.check_planarity(h)[1].get_data()`` returns, so that every
embedding, witness and certificate stays what networkx made of it.  The
gadget graphs H are compared with the ones the networkx version built, and
`ordered_planarity` with that version (`oracles.oracle_ordered_planarity`),
on the inputs of the embedding and linkage tests.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import tanglekit.embedding as embedding_module
import tanglekit.linkage as linkage_module
from tanglekit.embedding import _planar_rotation, ordered_planarity
from tanglekit.linkage import find_linkage
from oracles import oracle_ordered_planarity
from test_embedding import sweep_cases
from test_linkage import _atlas_cases, _random_cases


def networkx_rotation(nxg: nx.Graph) -> dict | None:
    planar, emb = nx.check_planarity(nxg)
    return emb.get_data() if planar else None


def adjacency(nxg: nx.Graph) -> dict:
    return {u: list(nxg[u]) for u in nxg}


def shuffled(nxg: nx.Graph, rng: random.Random) -> nx.Graph:
    """A copy with nodes, edges and the ends of each edge inserted in a random order."""
    nodes, edges = list(nxg), list(nxg.edges())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    out = nx.Graph()
    out.add_nodes_from(nodes)
    out.add_edges_from((v, u) if rng.random() < 0.5 else (u, v) for u, v in edges)
    return out


def random_graphs(seed: int, count: int, most: int):
    """Seeded G(n, p) graphs with n = 3..most, shuffled, and near-maximal
    planar graphs: stacked triangulations with a few edges removed and added."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, most)
        yield shuffled(nx.gnp_random_graph(n, rng.uniform(0.05, 0.5), seed=rng.randrange(1 << 30)), rng)
        g = nx.Graph([(0, 1), (1, 2), (2, 0)])
        faces = [(0, 1, 2), (0, 2, 1)]
        for v in range(3, n + 1):
            a, b, c = faces.pop(rng.randrange(len(faces)))
            g.add_edges_from([(v, a), (v, b), (v, c)])
            faces += [(a, b, v), (b, c, v), (c, a, v)]
        g.remove_edges_from(rng.sample(list(g.edges()), rng.randint(0, 3)))
        g.add_edges_from(tuple(rng.sample(list(g), 2)) for _ in range(rng.randint(0, 2)))
        yield shuffled(g, rng)


def assert_rotations_match(graphs) -> tuple[int, int]:
    """(graphs, planar ones); each rotation and verdict equals networkx's."""
    count = planar = 0
    for nxg in graphs:
        want = networkx_rotation(nxg)
        assert _planar_rotation(adjacency(nxg)) == want, sorted(nxg.edges())
        count += 1
        planar += want is not None
    return count, planar


# -- the kernel ---------------------------------------------------------------


def test_rotations_match_networkx_on_the_atlas():
    assert assert_rotations_match(nx.graph_atlas_g()) == (1253, 1016)


def test_rotations_match_networkx_on_shuffled_random_graphs():
    count, planar = assert_rotations_match(random_graphs(1, 100, 24))
    assert count == 200 and 0 < planar < count


@pytest.mark.wall
def test_rotations_match_networkx_on_many_shuffled_random_graphs():
    count, planar = assert_rotations_match(random_graphs(2, 2000, 40))
    assert count == 4000 and 0 < planar < count


def test_rotations_match_networkx_on_a_deep_grid():
    # the DFS runs 1,599 levels deep, past Python's default recursion
    # limit of 1,000, which a port with recursive passes would hit
    grid = nx.grid_2d_graph(40, 40)
    assert _planar_rotation(adjacency(grid)) == networkx_rotation(grid)


def test_euler_bound_refuses_dense_graphs_before_the_search(monkeypatch):
    searched = []
    real = embedding_module._left_right
    monkeypatch.setattr(embedding_module, "_left_right", lambda adjs: searched.append(adjs) or real(adjs))
    for n in (5, 6, 7):
        assert _planar_rotation(adjacency(nx.complete_graph(n))) is None
    assert searched == []
    # K3,3 and K4 meet the bound, so the search decides them
    assert _planar_rotation(adjacency(nx.complete_bipartite_graph(3, 3))) is None
    assert _planar_rotation(adjacency(nx.complete_graph(4))) is not None
    assert len(searched) == 2


# -- gadget graphs and ordered planarity on the test inputs ---------------------


def embedding_queries() -> list[tuple]:
    """(graph, order, facial triangles) of the tier-1 facial-triangle sweep,
    with its first two orders."""
    return [
        (g, order, tris)
        for n in (3, 4, 5)
        for g, sets, orders in sweep_cases(n)
        for tris in sets
        for order in orders[:2]
    ]


def linkage_queries() -> list[tuple]:
    """(graph, order, facial triangles) of every ordered_planarity call that
    find_linkage makes on every sixth atlas input and on random inputs."""
    calls = []
    real = linkage_module.ordered_planarity

    def record(g, order=(), facial_triangles=()):
        calls.append((g, order, tuple(facial_triangles)))
        return real(g, order, facial_triangles)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linkage_module, "ordered_planarity", record)
        for g, terminals in [*list(_atlas_cases())[::6], *_random_cases(60)]:
            find_linkage(g, *terminals)
    return calls


def test_ordered_planarity_and_its_gadget_graphs_match_the_networkx_version(monkeypatch):
    # both versions build the same gadget graphs in the same order, and
    # the kernel gives each the rotation networkx gives it
    queries = embedding_queries() + linkage_queries()
    ours, theirs = [], []
    rotation, check = embedding_module._planar_rotation, nx.check_planarity

    def record_ours(h):
        ours.append((h, rotation(h)))
        return ours[-1][1]

    def record_theirs(nxh):
        planar, emb = check(nxh)
        theirs.append((nxh, emb.get_data() if planar else None))
        return planar, emb

    monkeypatch.setattr(embedding_module, "_planar_rotation", record_ours)
    monkeypatch.setattr(nx, "check_planarity", record_theirs)
    found = 0
    for g, order, tris in queries:
        got = ordered_planarity(g, order, tris)
        assert got == oracle_ordered_planarity(g, order, tris), (g.edge_map, order, tris)
        found += got is not None
    assert 0 < found < len(queries)
    assert len(ours) == len(theirs)
    for (h, rot), (nxh, nxrot) in zip(ours, theirs):
        assert [(u, list(h[u])) for u in h] == [(u, list(nxh[u])) for u in nxh]
        assert rot == nxrot
    planar = sum(rot is not None for _, rot in ours)
    claws = sum(any(isinstance(u, tuple) and u[0] == "x" for u in h) for h, _ in ours)
    assert len(ours) > 800 and 0 < planar < len(ours) and claws > 500


# -- packaging --------------------------------------------------------------------


def test_the_library_imports_without_networkx():
    code = "import sys, tanglekit, tanglekit.cli; print('networkx' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
