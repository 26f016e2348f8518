"""Census inputs: every switching class of every small connected simple graph.

``networkx.graph_atlas_g()`` lists each graph on up to seven vertices once
up to isomorphism.  For each connected one a spanning tree T is fixed: its
edges are taken greedily in edge id order.  A switching makes every edge
of T positive, and only the trivial switching keeps it so, so the signs of
the edges outside T name the switching class.  Each sign pattern on the
non-tree edges is therefore one class, and every class comes once.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import networkx as nx

from tanglekit.bias import BiasedGraph, make_signed
from tanglekit.graph import MultiGraph


def non_tree_edges(g: MultiGraph) -> list[int]:
    """The edges outside the greedy spanning forest, in id order."""
    root = {v: v for v in g.vertices}

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    free = []
    for e in g.edge_ids:
        a, b = (find(v) for v in g.endpoints(e))
        if a == b:
            free.append(e)
        else:
            root[a] = b
    return free


def switching_classes(sizes: Iterable[int]) -> Iterator[BiasedGraph]:
    """One signed graph per switching class of every connected atlas graph
    whose vertex count is in ``sizes``, negative edges off the tree only."""
    sizes = set(sizes)
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n not in sizes or not nx.is_connected(atlas_graph):
            continue
        g = MultiGraph.from_pairs(list(atlas_graph.edges()), range(n))
        free = non_tree_edges(g)
        for mask in range(1 << len(free)):
            yield make_signed(g, [e for i, e in enumerate(free) if mask >> i & 1])
