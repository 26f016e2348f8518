"""Multigraph core: cycles, theta subgraphs, vertex cuts and blocks.

Vertices and edges are non-negative integer ids.  Loops and parallel edges
are first-class: a loop is a 1-edge cycle and a parallel pair is a 2-edge
cycle.  A cycle is a connected subgraph in which every vertex has degree
two; a theta subgraph is a connected subgraph with exactly two vertices of
degree three and the rest of degree two, equivalently the union of two
cycles whose intersection is a path with at least one edge.

The graph owns its cycle list: :meth:`MultiGraph.cycles` enumerates it once
and keeps it, and every layer above (bias, tangles, families, classify)
reads that one list.  A bias only sorts it into balanced and unbalanced.
A caller that may stop early reads :func:`cycles_by_length` instead, which
builds one length at a time from the open paths of the length before.
The graph also keeps one adjacency index, which its walks (components,
blocks, cycles, switching tests) read.  Minimal vertex cuts are read off
block trees (Hopcroft and Tarjan 1973), not tested subset by subset.

All enumerations are deterministic: results come back sorted by canonical
keys, never in hash order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .limits import Caps, DEFAULT_CAPS, ResourceLimitError


class GraphError(ValueError):
    """Malformed graph data or a reference to an unknown id."""


# ---------------------------------------------------------------------------
# MultiGraph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiGraph:
    """Immutable undirected multigraph with integer vertex and edge ids.

    Construct through :meth:`build`; the raw fields are normalized tuples
    and not meant to be assembled by hand.
    """

    _vertices: tuple[int, ...]
    _edges: tuple[tuple[int, int, int], ...]  # (edge_id, u, v), sorted by id

    # -- construction -----------------------------------------------------

    @staticmethod
    def build(
        vertices: Iterable[int],
        edges: Mapping[int, tuple[int, int]] | Iterable[tuple[int, int, int]],
    ) -> "MultiGraph":
        vs = sorted(set(int(v) for v in vertices))
        if any(v < 0 for v in vs):
            raise GraphError("vertex ids must be non-negative")
        if isinstance(edges, Mapping):
            rows = [(int(e), int(u), int(v)) for e, (u, v) in edges.items()]
        else:
            rows = [(int(e), int(u), int(v)) for (e, u, v) in edges]
        rows.sort()
        vset = set(vs)
        seen: set[int] = set()
        for e, u, v in rows:
            if e < 0:
                raise GraphError(f"edge id {e} is negative")
            if e in seen:
                raise GraphError(f"duplicate edge id {e}")
            seen.add(e)
            if u not in vset or v not in vset:
                raise GraphError(f"edge {e} has endpoint outside the vertex set")
        return MultiGraph(tuple(vs), tuple(rows))

    @staticmethod
    def from_pairs(pairs: Sequence[tuple[int, int]], vertices: Iterable[int] = ()) -> "MultiGraph":
        """Build with edge ids 0..len(pairs)-1 in the given order."""
        vs = set(vertices)
        for u, v in pairs:
            vs.add(u)
            vs.add(v)
        return MultiGraph.build(vs, [(i, u, v) for i, (u, v) in enumerate(pairs)])

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self._vertices)

    @cached_property
    def edge_map(self) -> dict[int, tuple[int, int]]:
        return {e: (u, v) for e, u, v in self._edges}

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e for e, _, _ in self._edges)

    @cached_property
    def edge_id_set(self) -> frozenset[int]:
        return frozenset(self.edge_map)

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def endpoints(self, e: int) -> tuple[int, int]:
        try:
            return self.edge_map[e]
        except KeyError:
            raise GraphError(f"unknown edge id {e}") from None

    def is_loop(self, e: int) -> bool:
        u, v = self.endpoints(e)
        return u == v

    def other_end(self, e: int, v: int) -> int:
        a, b = self.endpoints(e)
        if v == a:
            return b
        if v == b:
            return a
        raise GraphError(f"vertex {v} is not an endpoint of edge {e}")

    @cached_property
    def _incidence(self) -> dict[int, tuple[int, ...]]:
        inc: dict[int, list[int]] = {v: [] for v in self._vertices}
        for e, u, v in self._edges:
            inc[u].append(e)
            if v != u:
                inc[v].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Edges touching v; loops listed once."""
        try:
            return self._incidence[v]
        except KeyError:
            raise GraphError(f"unknown vertex id {v}") from None

    @cached_property
    def _adjacency(self) -> dict[int, tuple[tuple[int, int], ...]]:
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self._vertices}
        for e, u, v in self._edges:
            if u != v:
                adj[u].append((v, e))
                adj[v].append((u, e))
        return {v: tuple(steps) for v, steps in adj.items()}

    def adjacent(self, v: int) -> tuple[tuple[int, int], ...]:
        """(neighbour, edge) for each non-loop edge at v, in edge id order."""
        try:
            return self._adjacency[v]
        except KeyError:
            raise GraphError(f"unknown vertex id {v}") from None

    def loops_at(self, v: int) -> tuple[int, ...]:
        return tuple(e for e in self.incident_edges(v) if self.is_loop(e))

    def delta(self, v: int) -> tuple[int, ...]:
        """Non-loop edges at v, in id order."""
        return tuple(e for _, e in self.adjacent(v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted({w for w, _ in self.adjacent(v)}))

    @cached_property
    def _between(self) -> dict[tuple[int, int], tuple[int, ...]]:
        joined: dict[tuple[int, int], list[int]] = {}
        for e, u, v in self._edges:
            joined.setdefault((u, v) if u <= v else (v, u), []).append(e)
        return {pair: tuple(es) for pair, es in joined.items()}

    def edges_between(self, u: int, v: int) -> tuple[int, ...]:
        """Edges joining u and v in id order; loops at u when u == v."""
        return self._between.get((u, v) if u <= v else (v, u), ())

    def cycles(self, caps: Caps = DEFAULT_CAPS) -> tuple["Cycle", ...]:
        """All cycles in ``Cycle.sort_key`` order, enumerated once per graph.

        Raises ResourceLimitError("enumerate_cycles") beyond
        ``caps.max_cycles`` cycles, on a cache hit too.
        """
        cached = self.__dict__.get("_cycles")
        if cached is None:
            cached = self.__dict__["_cycles"] = enumerate_cycles(self, caps)
        elif len(cached) > caps.max_cycles:
            raise ResourceLimitError("enumerate_cycles", caps.max_cycles)
        return cached

    # -- derived graphs ----------------------------------------------------

    def subgraph(self, edge_ids: Iterable[int], keep_vertices: Iterable[int] = ()) -> "MultiGraph":
        ids = sorted(set(edge_ids))
        vs = set(keep_vertices)
        rows = []
        for e in ids:
            u, v = self.endpoints(e)
            rows.append((e, u, v))
            vs.add(u)
            vs.add(v)
        return MultiGraph.build(vs, rows)

    def induced(self, vertices: Iterable[int]) -> "MultiGraph":
        vs = set(vertices)
        unknown = vs - self.vertex_set
        if unknown:
            raise GraphError(f"unknown vertices {sorted(unknown)}")
        rows = [(e, u, v) for e, u, v in self._edges if u in vs and v in vs]
        return MultiGraph(tuple(sorted(vs)), tuple(rows))

    def delete_vertices(self, vertices: Iterable[int]) -> "MultiGraph":
        drop = set(vertices)
        return self.induced(self.vertex_set - drop)

    def delete_edges(self, edge_ids: Iterable[int]) -> "MultiGraph":
        drop = set(edge_ids)
        unknown = drop - self.edge_id_set
        if unknown:
            raise GraphError(f"unknown edges {sorted(unknown)}")
        rows = [(e, u, v) for e, u, v in self._edges if e not in drop]
        return MultiGraph(self._vertices, tuple(rows))

    def with_edges(self, extra: Mapping[int, tuple[int, int]], extra_vertices: Iterable[int] = ()) -> "MultiGraph":
        rows = list(self._edges) + [(e, u, v) for e, (u, v) in extra.items()]
        vs = set(self._vertices) | set(extra_vertices)
        for _, u, v in rows:
            vs.add(u)
            vs.add(v)
        return MultiGraph.build(vs, rows)

    # -- connectivity ------------------------------------------------------

    def components(self) -> tuple[frozenset[int], ...]:
        seen: set[int] = set()
        comps: list[frozenset[int]] = []
        for start in self._vertices:
            if start in seen:
                continue
            stack = [start]
            comp = {start}
            seen.add(start)
            while stack:
                x = stack.pop()
                for y, _ in self._adjacency[x]:
                    if y not in comp:
                        comp.add(y)
                        seen.add(y)
                        stack.append(y)
            comps.append(frozenset(comp))
        return tuple(comps)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def spanning_tree_edges(self) -> tuple[int, ...]:
        """Edge ids of a BFS forest (deterministic)."""
        seen: set[int] = set()
        tree: list[int] = []
        for start in self._vertices:
            if start in seen:
                continue
            seen.add(start)
            frontier = [start]
            while frontier:
                nxt: list[int] = []
                for x in frontier:
                    for y, e in self._adjacency[x]:
                        if y not in seen:
                            seen.add(y)
                            tree.append(e)
                            nxt.append(y)
                frontier = nxt
        return tuple(sorted(tree))

    def path_between(self, s: int, t: int, avoid: Iterable[int] = ()) -> tuple[int, ...] | None:
        """Edge ids of a shortest s-t path avoiding the given vertices, or None."""
        banned = set(avoid)
        if s in banned or t in banned:
            return None
        if s == t:
            return ()
        prev: dict[int, tuple[int, int]] = {}
        seen = {s}
        frontier = [s]
        while frontier:
            nxt: list[int] = []
            for x in frontier:
                for y, e in self.adjacent(x):
                    if y in banned or y in seen:
                        continue
                    seen.add(y)
                    prev[y] = (x, e)
                    if y == t:
                        path: list[int] = []
                        cur = t
                        while cur != s:
                            px, pe = prev[cur]
                            path.append(pe)
                            cur = px
                        return tuple(reversed(path))
                    nxt.append(y)
            frontier = nxt
        return None

    def simple_pairs(self) -> tuple[tuple[int, int], ...]:
        """Distinct adjacent vertex pairs (u < v), loops ignored."""
        pairs = {tuple(sorted((u, v))) for _, u, v in self._edges if u != v}
        return tuple(sorted(pairs))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """A cycle as a canonical edge-id sequence.

    ``key[i]`` joins ``walk[i]`` to ``walk[(i+1) % len]``.  The key is the
    lexicographically least edge sequence over all rotations and both
    orientations, so equal subgraphs compare equal.
    """

    key: tuple[int, ...]
    walk: tuple[int, ...]

    @staticmethod
    def from_walk(edge_seq: Sequence[int], vertex_seq: Sequence[int]) -> "Cycle":
        L = len(edge_seq)
        if L == 0 or L != len(vertex_seq):
            raise GraphError("cycle walk must pair one vertex with each edge")
        # The edges of a cycle are distinct, so the least rotation starts at
        # the least edge id; only the orientation is left to choose.
        es = tuple(edge_seq)
        vs = tuple(vertex_seq)
        p = es.index(min(es))
        forward = (es[p:] + es[:p], vs[p:] + vs[:p])
        # reversed walk: edge es[L-1-i] joins vs[(L-i) % L] to vs[L-1-i]
        rev_e = es[::-1]
        rev_v = vs[:1] + vs[:0:-1]
        q = L - 1 - p
        backward = (rev_e[q:] + rev_e[:q], rev_v[q:] + rev_v[:q])
        return Cycle(*min(forward, backward))

    @staticmethod
    def from_edge_set(g: MultiGraph, edges: Iterable[int]) -> "Cycle":
        ids = sorted(set(edges))
        if not ids:
            raise GraphError("empty edge set is not a cycle")
        if len(ids) == 1:
            e = ids[0]
            u, v = g.endpoints(e)
            if u != v:
                raise GraphError("single non-loop edge is not a cycle")
            return Cycle((e,), (u,))
        inc: dict[int, list[int]] = {}
        for e in ids:
            u, v = g.endpoints(e)
            if u == v:
                raise GraphError("loop inside a multi-edge cycle set")
            inc.setdefault(u, []).append(e)
            inc.setdefault(v, []).append(e)
        if any(len(es) != 2 for es in inc.values()):
            raise GraphError("edge set is not 2-regular")
        e0 = ids[0]
        u0, v0 = g.endpoints(e0)
        edge_seq = [e0]
        vertex_seq = [u0]
        cur = v0
        used = {e0}
        while cur != u0:
            vertex_seq.append(cur)
            nxt = [e for e in inc[cur] if e not in used]
            if len(nxt) != 1:
                raise GraphError("edge set is not a single cycle")
            e = nxt[0]
            used.add(e)
            edge_seq.append(e)
            cur = g.other_end(e, cur)
        if len(used) != len(ids):
            raise GraphError("edge set is not connected")
        return Cycle.from_walk(edge_seq, vertex_seq)

    @cached_property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.key)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.walk)

    def __len__(self) -> int:
        return len(self.key)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.key), self.key)


def _short_cycles(g: MultiGraph, length: int) -> Iterator[Cycle]:
    """Loops (length 1) or digons (length 2) of g."""
    if length == 1:
        for e, u, v in g._edges:
            if u == v:
                yield Cycle((e,), (u,))
    else:
        for (u, v) in g.simple_pairs():
            for e, f in itertools.combinations(g.edges_between(u, v), 2):
                yield Cycle.from_walk((e, f), (u, v))


# Cycles with three or more edges are closed rooted paths: the root s is the
# least vertex on the cycle, every other vertex exceeds s, and
# walk[1] < walk[-1] keeps one of the two orientations.


def enumerate_cycles(g: MultiGraph, caps: Caps = DEFAULT_CAPS) -> tuple[Cycle, ...]:
    """All cycles of g in ``Cycle.sort_key`` order, enumerated afresh by one
    depth-first search per root.

    The library reads :meth:`MultiGraph.cycles`, which calls this once per
    graph.  Raises ResourceLimitError beyond ``caps.max_cycles`` cycles.
    """
    out: list[Cycle] = [*_short_cycles(g, 1), *_short_cycles(g, 2)]
    adj = g._adjacency
    for s in g.vertices:
        stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((s,), ())]
        while stack:
            vpath, epath = stack.pop()
            for y, e in adj[vpath[-1]]:
                if y == s:
                    if len(epath) >= 2 and vpath[1] < vpath[-1]:
                        out.append(Cycle.from_walk(epath + (e,), vpath))
                        if len(out) > caps.max_cycles:
                            raise ResourceLimitError("enumerate_cycles", caps.max_cycles)
                elif y > s and y not in vpath:
                    stack.append((vpath + (y,), epath + (e,)))
    if len(out) > caps.max_cycles:
        raise ResourceLimitError("enumerate_cycles", caps.max_cycles)
    out.sort(key=Cycle.sort_key)
    return tuple(out)


def cycles_with(
    g: MultiGraph,
    required: Iterable[int],
    within: Iterable[int] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[Cycle, ...]:
    """Cycles containing all `required` edges, otherwise staying in `within`."""
    req = frozenset(required)
    allowed = None if within is None else frozenset(within) | req
    out = []
    for c in g.cycles(caps):
        if not req <= c.edge_set:
            continue
        if allowed is not None and not c.edge_set <= allowed:
            continue
        out.append(c)
    return tuple(out)


def cycles_inside(g: MultiGraph, edges: Iterable[int], caps: Caps = DEFAULT_CAPS) -> tuple[Cycle, ...]:
    allowed = frozenset(edges)
    return tuple(c for c in g.cycles(caps) if c.edge_set <= allowed)


def cycles_by_length(g: MultiGraph, caps: Caps = DEFAULT_CAPS) -> Iterator[Cycle]:
    """All cycles of g in ``Cycle.sort_key`` order, built one length at a time.

    The open rooted paths with L edges close up into the cycles of length
    L + 1 and extend into the open paths with L + 1 edges, so each layer
    costs one step from the last.  A caller that stops early never builds
    the longer layers.  Raises ResourceLimitError("enumerate_cycles") once
    the layers built so far hold more than ``caps.max_cycles`` cycles.
    """
    built = 0
    adj = g._adjacency
    paths = [((s,), ()) for s in g.vertices]  # (vertex path, edge path)
    # a cycle with three or more edges visits as many distinct vertices
    top = min(g.m, max(g.n, 2))
    for length in range(1, top + 1):
        layer = list(_short_cycles(g, length)) if length <= 2 else []
        longer: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for vpath, epath in paths:
            s = vpath[0]
            for y, e in adj[vpath[-1]]:
                if y == s:
                    if len(epath) >= 2 and vpath[1] < vpath[-1]:
                        layer.append(Cycle.from_walk(epath + (e,), vpath))
                        if built + len(layer) > caps.max_cycles:
                            raise ResourceLimitError("enumerate_cycles", caps.max_cycles)
                elif y > s and y not in vpath and length < top:
                    longer.append((vpath + (y,), epath + (e,)))
        built += len(layer)
        if built > caps.max_cycles:
            raise ResourceLimitError("enumerate_cycles", caps.max_cycles)
        paths = longer
        layer.sort(key=Cycle.sort_key)
        yield from layer


# ---------------------------------------------------------------------------
# Theta subgraphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaSubgraph:
    """Union of two cycles meeting in a path; carries all three cycles.

    ``cycles`` is sorted by cycle sort key; ``edge_set`` is the union.
    """

    cycles: tuple[Cycle, Cycle, Cycle]
    edge_set: frozenset[int]

    def branch_vertices(self, g: MultiGraph) -> tuple[int, int]:
        deg: dict[int, int] = {}
        for e in self.edge_set:
            u, v = g.endpoints(e)
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        branch = sorted(v for v, d in deg.items() if d == 3)
        if len(branch) != 2:
            raise GraphError("not a theta edge set")
        return (branch[0], branch[1])


def edge_path_vertices(g: MultiGraph, edges: frozenset[int]) -> frozenset[int] | None:
    """Vertex set if `edges` forms a path with >= 1 edge, else None."""
    deg: dict[int, int] = {}
    for e in edges:
        u, v = g.endpoints(e)
        if u == v:
            return None
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if len(deg) != len(edges) + 1:
        return None
    ends = [v for v, d in deg.items() if d == 1]
    if len(ends) != 2 or any(d > 2 for d in deg.values()):
        return None
    # connectivity: walk from one end
    inc: dict[int, list[int]] = {}
    for e in edges:
        u, v = g.endpoints(e)
        inc.setdefault(u, []).append(e)
        inc.setdefault(v, []).append(e)
    seen_e: set[int] = set()
    cur = ends[0]
    prev_e = -1
    while True:
        nxt = [e for e in inc[cur] if e != prev_e and e not in seen_e]
        if not nxt:
            break
        e = nxt[0]
        seen_e.add(e)
        cur = g.other_end(e, cur)
        prev_e = e
    if len(seen_e) != len(edges):
        return None
    return frozenset(deg)


def enumerate_theta_subgraphs(
    g: MultiGraph,
    cycles: Sequence[Cycle] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[ThetaSubgraph, ...]:
    """All theta subgraphs, each reported once with its three cycles."""
    cyc = tuple(cycles) if cycles is not None else g.cycles(caps)
    npairs = len(cyc) * (len(cyc) - 1) // 2
    if npairs > caps.max_theta_pairs:
        raise ResourceLimitError("enumerate_theta_subgraphs", caps.max_theta_pairs)
    by_edges: dict[frozenset[int], Cycle] = {c.edge_set: c for c in cyc}
    seen: dict[frozenset[int], ThetaSubgraph] = {}
    for i, c1 in enumerate(cyc):
        for c2 in cyc[i + 1:]:
            inter = c1.edge_set & c2.edge_set
            if not inter:
                continue
            pv = edge_path_vertices(g, inter)
            if pv is None:
                continue
            if (c1.vertex_set & c2.vertex_set) != pv:
                continue
            union = c1.edge_set | c2.edge_set
            if union in seen:
                continue
            diff = c1.edge_set ^ c2.edge_set
            c3 = by_edges.get(frozenset(diff))
            if c3 is None:
                c3 = Cycle.from_edge_set(g, diff)
            trio = tuple(sorted((c1, c2, c3), key=Cycle.sort_key))
            seen[union] = ThetaSubgraph(trio, union)  # type: ignore[arg-type]
    out = sorted(seen.values(), key=lambda t: sorted(t.edge_set))
    return tuple(out)


# ---------------------------------------------------------------------------
# Vertex cuts and bridges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bridge:
    """One bridge of a vertex cut: a component of G - X plus its edges to X."""

    vertices: frozenset[int]    # component vertices plus attachments in X
    edges: frozenset[int]
    interior: frozenset[int]    # component vertices only
    attachments: frozenset[int]


@dataclass(frozen=True)
class VertexCut:
    cut: frozenset[int]
    bridges: tuple[Bridge, ...]

    @property
    def size(self) -> int:
        return len(self.cut)


def bridges_of_cut(g: MultiGraph, cut: Iterable[int]) -> tuple[Bridge, ...]:
    """Bridges of G - X for an arbitrary vertex set X (not necessarily a cut)."""
    X = frozenset(cut)
    h = g.delete_vertices(X)
    out: list[Bridge] = []
    for comp in sorted(h.components(), key=lambda c: sorted(c)):
        edges: set[int] = set()
        attach: set[int] = set()
        for e, u, v in g._edges:
            iu, iv = u in comp, v in comp
            if iu and iv:
                edges.add(e)
            elif iu and v in X:
                edges.add(e)
                attach.add(v)
            elif iv and u in X:
                edges.add(e)
                attach.add(u)
        out.append(
            Bridge(
                vertices=frozenset(comp) | frozenset(attach),
                edges=frozenset(edges),
                interior=frozenset(comp),
                attachments=frozenset(attach),
            )
        )
    return tuple(out)


def find_vertex_cuts(g: MultiGraph, k: int, caps: Caps = DEFAULT_CAPS) -> tuple[VertexCut, ...]:
    """All minimal vertex cuts of size at most k, with their bridges.

    A cut X disconnects g and leaves at least two vertices; minimal means
    no proper subset of X is a cut.  Requires g connected.

    Cuts are read off block trees (Hopcroft and Tarjan 1973), one size at
    a time.  A minimal cut X of size s is Y + {c} for any c in X, where
    Y = X - c leaves g connected and c is a cut vertex of g - Y; so with
    c the largest vertex of X, each one is found once by building the
    block tree of g - Y for every (s - 1)-set Y that contains no smaller
    cut, and keeping Y + {c} when it contains no smaller cut either.
    Size three costs O(n^2) block trees.  Every block tree built counts
    against ``caps.max_subsets`` ("find_vertex_cuts").
    """
    if not g.is_connected():
        raise GraphError("find_vertex_cuts requires a connected graph")
    if k < 0:
        raise GraphError("k must be non-negative")
    found: set[frozenset[int]] = set()
    count = 0

    def holds_cut(xs: tuple[int, ...], sizes: range) -> bool:
        return any(frozenset(sub) in found for r in sizes for sub in itertools.combinations(xs, r))

    for size in range(1, k + 1):
        if g.n - size < 2:
            break
        # a (size - 1)-set with no smaller cut inside leaves g connected
        for ys in itertools.combinations(g.vertices, size - 1):
            if holds_cut(ys, range(1, size)):
                continue
            count += 1
            if count > caps.max_subsets:
                raise ResourceLimitError("find_vertex_cuts", caps.max_subsets)
            top = ys[-1] if ys else -1
            for c in sorted(block_tree(g.delete_vertices(ys)).cut_vertices):
                if c > top and not holds_cut((*ys, c), range(1, size)):
                    found.add(frozenset((*ys, c)))
    cuts = sorted(found, key=lambda x: (len(x), sorted(x)))
    return tuple(VertexCut(x, bridges_of_cut(g, x)) for x in cuts)


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    edges: frozenset[int]
    vertices: frozenset[int]


@dataclass(frozen=True)
class BlockTree:
    """Block-cut forest: blocks, cut vertices, and block/junction incidences.

    ``tree_edges`` joins block indices to junction vertices (vertices lying
    in two or more blocks); per component the resulting bipartite graph is a
    tree.  ``cut_vertices`` holds the true cut vertices, i.e. junctions of
    two or more non-loop blocks.
    """

    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]
    tree_edges: tuple[tuple[int, int], ...]  # (block index, junction vertex)

    def leaf_blocks(self) -> tuple[int, ...]:
        deg = [0] * len(self.blocks)
        for b, _ in self.tree_edges:
            deg[b] += 1
        return tuple(i for i, d in enumerate(deg) if d <= 1)

    def blocks_at(self, v: int) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.blocks) if v in b.vertices)


def block_tree(g: MultiGraph) -> BlockTree:
    """Blocks (maximal 2-connected subgraphs, bridges-as-K2, loops) of g."""
    blocks: list[Block] = []

    # Loops are their own blocks and never affect 2-connectivity.
    for e, u, v in g._edges:
        if u == v:
            blocks.append(Block(frozenset({e}), frozenset({u})))

    adj = g._adjacency
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    counter = itertools.count()
    estack: list[int] = []

    for root in g.vertices:
        if root in index:
            continue
        # Iterative DFS; frames are (vertex, incoming edge id, step iterator).
        index[root] = low[root] = next(counter)
        frames: list[tuple[int, int, Iterator[tuple[int, int]]]] = [
            (root, -1, iter(adj[root]))
        ]
        while frames:
            v, in_edge, it = frames[-1]
            advanced = False
            for w, e in it:
                if e == in_edge:
                    continue
                if w not in index:
                    estack.append(e)
                    index[w] = low[w] = next(counter)
                    frames.append((w, e, iter(adj[w])))
                    advanced = True
                    break
                elif index[w] < index[v]:
                    estack.append(e)
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            frames.pop()
            if frames:
                pv, _, _ = frames[-1]
                low[pv] = min(low[pv], low[v])
                if low[v] >= index[pv]:
                    # pv closes a block; pop the edge stack down to in_edge.
                    comp: list[int] = []
                    while estack:
                        comp.append(estack.pop())
                        if comp[-1] == in_edge:
                            break
                    vs: set[int] = set()
                    for eid in comp:
                        vs.update(g.edge_map[eid])
                    blocks.append(Block(frozenset(comp), frozenset(vs)))

    # Junctions: vertices in >= 2 blocks.  True cut vertices: junctions of
    # >= 2 non-loop blocks (a loop never makes its vertex a cut vertex).
    junction_count: dict[int, int] = {}
    nonloop_count: dict[int, int] = {}
    for b in blocks:
        isloop = len(b.edges) == 1 and len(b.vertices) == 1
        for v in b.vertices:
            junction_count[v] = junction_count.get(v, 0) + 1
            if not isloop:
                nonloop_count[v] = nonloop_count.get(v, 0) + 1
    junctions = {v for v, c in junction_count.items() if c >= 2}
    cut_vertices = {v for v, c in nonloop_count.items() if c >= 2}

    blocks_sorted = sorted(blocks, key=lambda b: sorted(b.edges))
    tree_edges: list[tuple[int, int]] = []
    for i, b in enumerate(blocks_sorted):
        for v in sorted(b.vertices):
            if v in junctions:
                tree_edges.append((i, v))
    return BlockTree(tuple(blocks_sorted), frozenset(cut_vertices), tuple(tree_edges))


def is_two_connected(g: MultiGraph) -> bool:
    """No loops, connected, no cut vertex; digons count, a single edge not."""
    if not g.is_connected():
        return False
    if any(g.is_loop(e) for e in g.edge_ids):
        return False
    if g.n == 2:
        return g.m >= 2
    if g.n < 2:
        return False
    return not block_tree(g).cut_vertices


# ---------------------------------------------------------------------------
# Rings: bonds and polygons at 2-separations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bond:
    """A vertex pair u < v with its separation classes: the edges of each
    bridge of H - {u, v}, then each edge joining u and v on its own."""

    pair: tuple[int, int]
    classes: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class Polygon:
    """A maximal cyclic hinge sequence: ``pieces[i]`` runs from
    ``hinges[i - 1]`` to ``hinges[i]``, so ``hinges[i]`` is where piece
    i meets piece i + 1.  Each piece is 2-connected or a single edge."""

    hinges: tuple[int, ...]
    pieces: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class Rings:
    bonds: tuple[Bond, ...]
    polygons: tuple[Polygon, ...]


def rings(h: MultiGraph) -> Rings:
    """Every ring of parts glued at hinges in a 2-connected multigraph.

    These are the bonds and polygons of Tutte's decomposition of a
    2-connected graph at its 2-separations (Tutte, *Connectivity in
    Graphs*, 1966; Hopcroft and Tarjan 1973).  A bond is a vertex pair
    with at least two separation classes: every separation pair {a, c},
    c a cut vertex of H - a, and every adjacent pair.  Each class closed
    up by an edge uv is 2-connected, so its blocks form a chain from u
    to v.  Two classes make one cycle of blocks; with more, each chain
    of two or more blocks closes up with the union of the other classes.
    A cycle of three or more pieces is a polygon, reported once.  Every
    hinge set of three or more whose pieces attach to consecutive hinges
    only lies, in cyclic order, inside one polygon.
    """
    if not is_two_connected(h):
        raise GraphError("rings needs a 2-connected multigraph")
    separating: set[tuple[int, int]] = set()
    for a in h.vertices:
        separating.update(tuple(sorted((a, c))) for c in block_tree(h.delete_vertices([a])).cut_vertices)
    bonds: list[Bond] = []
    polygons: list[Polygon] = []
    if h.n == 3:  # the triangle has no separation pair
        a, b, c = h.vertices
        pieces = tuple(frozenset(h.edges_between(*p)) for p in ((a, b), (b, c), (c, a)))
        polygons.append(Polygon((b, c, a), pieces))
    for u, v in sorted(separating | set(h.simple_pairs())):
        direct = h.edges_between(u, v)
        if (u, v) in separating:
            classes = tuple(b.edges for b in bridges_of_cut(h, (u, v)))
        else:  # h - {u, v} is connected, or empty
            rest = h.edge_id_set.difference(direct)
            classes = (rest,) if rest else ()
        classes += tuple(frozenset({e}) for e in direct)
        bonds.append(Bond((u, v), classes))
        # with two classes, u and v lie on one polygon at most
        if (u, v) not in separating or (
            len(classes) == 2 and any({u, v} <= set(p.hinges) for p in polygons)
        ):
            continue
        chains = [_chain(h, c, u, v) for c in classes]
        if len(classes) == 2:
            (walk, pieces), (back, more) = chains
            cycles = [(walk + back[-2:0:-1], pieces + more[::-1])]
        else:
            cycles = [
                (walk, pieces + [frozenset().union(*classes[:i], *classes[i + 1:])])
                for i, (walk, pieces) in enumerate(chains)
                if len(pieces) >= 2
            ]
        for walk, pieces in cycles:
            if len(walk) >= 3 and all(set(walk) != set(p.hinges) for p in polygons):
                polygons.append(Polygon(tuple(walk[1:] + walk[:1]), tuple(pieces)))
    polygons.sort(key=lambda p: (len(p.hinges), sorted(p.hinges)))
    return Rings(tuple(bonds), tuple(polygons))


def _chain(h: MultiGraph, edges: frozenset[int], u: int, v: int) -> tuple[list[int], list[frozenset[int]]]:
    """The blocks of one separation class in order from u to v, with the
    vertices where consecutive blocks meet: walk[i] to walk[i + 1] is
    pieces[i]."""
    bt = block_tree(h.subgraph(edges))
    ends = bt.cut_vertices | {v}
    walk, pieces = [u], []
    left = list(bt.blocks)
    while walk[-1] != v:
        block = next(b for b in left if walk[-1] in b.vertices)
        left.remove(block)
        pieces.append(block.edges)
        walk.append(min(x for x in block.vertices - {walk[-1]} if x in ends))
    return walk, pieces
