"""Multigraph core: cycles, theta subgraphs, vertex cuts and rings.

Vertices and edges are non-negative integer ids.  Loops and parallel edges
are first-class: a loop is a 1-edge cycle and a parallel pair is a 2-edge
cycle.  A cycle is a connected subgraph in which every vertex has degree
two; a theta subgraph is a connected subgraph with exactly two vertices of
degree three and the rest of degree two, equivalently the union of two
cycles whose intersection is a path with at least one edge.

The graph owns its cycle list: :meth:`MultiGraph.cycles` enumerates it once
and keeps it, and every layer above that needs all cycles reads that one
list.  A bias only sorts it into balanced and unbalanced.  Questions that
need no list read the fundamental cycles of a spanning forest
(:func:`fundamental_cycles`) or the vertex sets of the chordless cycles
(:func:`chordless_vertex_sets`) instead.  Whether two cycles form a
theta is one rule (:func:`is_theta_pair`).
The graph also keeps one adjacency index, which its walks (components,
cycles, fundamental cycles, lowpoint searches, switching tests) read.
Minimal vertex cuts are read off the cut vertices that lowpoint searches
find (Hopcroft and Tarjan 1973), not tested subset by subset.

All enumerations are deterministic: results come back sorted by canonical
keys, never in hash order.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .limits import Budget, Caps, DEFAULT_CAPS


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
    def _between(self) -> tuple[dict[tuple[int, int], tuple[int, ...]], tuple[tuple[int, int], ...]]:
        """The edges joining each pair (u, v), u <= v, and the loops as
        (edge, vertex), both in edge id order.

        The loops share this cache rather than taking one of their own:
        on CPython 3.11, one more cached attribute on the input graph
        made ``classify`` of explicit-bias family members 6-9% slower.
        """
        joined: dict[tuple[int, int], list[int]] = {}
        loops = []
        for e, u, v in self._edges:
            joined.setdefault((u, v) if u <= v else (v, u), []).append(e)
            if u == v:
                loops.append((e, u))
        return {pair: tuple(es) for pair, es in joined.items()}, tuple(loops)

    def edges_between(self, u: int, v: int) -> tuple[int, ...]:
        """Edges joining u and v in id order; loops at u when u == v."""
        return self._between[0].get((u, v) if u <= v else (v, u), ())

    @property
    def loops(self) -> tuple[tuple[int, int], ...]:
        """(edge, vertex) for each loop, in edge id order."""
        return self._between[1]

    def cycles(self, caps: Caps = DEFAULT_CAPS) -> tuple["Cycle", ...]:
        """All cycles in ``Cycle.sort_key`` order, enumerated once per graph.

        Past ``caps.max_cycles`` cycles it raises ResourceLimitError
        (stage "enumerate_cycles"), on a cache hit too.
        """
        cached = self.__dict__.get("_cycles")
        if cached is None:
            cached = self.__dict__["_cycles"] = enumerate_cycles(self, caps)
        else:
            Budget("enumerate_cycles", caps.max_cycles).spend(len(cached))
        return cached

    # -- derived graphs ----------------------------------------------------

    def subgraph(self, edge_ids: Iterable[int], keep_vertices: Iterable[int] = ()) -> "MultiGraph":
        """The given edges, their ends and `keep_vertices`; rows copied from
        this graph are not checked again, vertices from outside it are."""
        rows = []
        vs = set(keep_vertices)
        for e in sorted(set(edge_ids)):
            u, v = self.endpoints(e)
            rows.append((e, u, v))
            vs.add(u)
            vs.add(v)
        if not vs <= self.vertex_set:
            return MultiGraph.build(vs, rows)
        return MultiGraph(tuple(v for v in self._vertices if v in vs), tuple(rows))

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
        """This graph plus the edges `extra`, their ends and `extra_vertices`;
        only what is added is checked."""
        added = MultiGraph.build(set(extra_vertices).union(*extra.values()), extra)
        for e, _, _ in added._edges:
            if (i := bisect.bisect_left(self._edges, (e,))) < self.m and self._edges[i][0] == e:
                raise GraphError(f"duplicate edge id {e}")
        vs = tuple(sorted(set(self._vertices).union(added._vertices)))
        return MultiGraph(vs, tuple(sorted(self._edges + added._edges)))

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


class _memoised:
    """A cached attribute, as ``functools.cached_property`` but without the
    lock that it takes on each first access before Python 3.12.  Cycles
    are made by the thousand, and most of their edge and vertex sets are
    read once."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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

    @_memoised
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.key)

    @_memoised
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
    budget = Budget("enumerate_cycles", caps.max_cycles)
    budget.spend(len(out))
    adj = g._adjacency
    for s in g.vertices:
        stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((s,), ())]
        while stack:
            vpath, epath = stack.pop()
            for y, e in adj[vpath[-1]]:
                if y == s:
                    if len(epath) >= 2 and vpath[1] < vpath[-1]:
                        budget.spend()
                        out.append(Cycle.from_walk(epath + (e,), vpath))
                elif y > s and y not in vpath:
                    stack.append((vpath + (y,), epath + (e,)))
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


def fundamental_cycles(g: MultiGraph, removed: Iterable[int] = ()) -> Iterator[tuple[int, frozenset[int]]]:
    """(non-tree edge, edge set of its fundamental cycle) for each edge
    outside a breadth-first spanning forest of g - removed (a set of
    vertices).

    Loops come first.  Every other non-tree edge is yielded when the
    search first meets it, from the end scanned first, so a caller that
    stops early never finishes the forest.
    """
    gone = set(removed)
    for e, u in g.loops:
        if u not in gone:
            yield e, frozenset((e,))
    up: dict[int, tuple[int, int]] = {}  # vertex -> (parent, tree edge)
    depth: dict[int, int] = {}
    scanned: set[int] = set()
    for root in g._vertices:
        if root in gone or root in depth:
            continue
        depth[root] = 0
        frontier = [root]
        while frontier:
            nxt: list[int] = []
            for x in frontier:
                for y, e in g._adjacency[x]:
                    if y in gone or y in scanned:  # y has met this edge already
                        continue
                    if y not in depth:
                        depth[y] = depth[x] + 1
                        up[y] = (x, e)
                        nxt.append(y)
                        continue
                    cycle = {e}
                    a, b = x, y
                    while a != b:
                        if depth[a] < depth[b]:
                            a, b = b, a
                        a, f = up[a]
                        cycle.add(f)
                    yield e, frozenset(cycle)
                scanned.add(x)
            frontier = nxt


def chordless_vertex_sets(g: MultiGraph, caps: Caps = DEFAULT_CAPS) -> Iterator[frozenset[int]]:
    """Vertex sets of the chordless cycles of g's simple support, each once.

    Only cycles on three or more vertices count; loops and parallel edges
    are ignored.  A rooted path from its least vertex s grows only by
    vertices adjacent to no inner path vertex, and closes as soon as it
    reaches a neighbour of s.  Past ``caps.max_cycles`` sets it raises
    ResourceLimitError (stage "enumerate_cycles").
    """
    nbrs = {v: {w for w, _ in g.adjacent(v)} for v in g.vertices}
    budget = Budget("enumerate_cycles", caps.max_cycles)
    for s in g.vertices:
        stack = [(s, a) for a in nbrs[s] if a > s]
        while stack:
            path = stack.pop()
            for y in nbrs[path[-1]]:
                if y <= s or y in path or any(y in nbrs[x] for x in path[1:-1]):
                    continue
                if s not in nbrs[y]:
                    stack.append(path + (y,))
                elif path[1] < y:  # one orientation of each cycle
                    budget.spend()
                    yield frozenset(path + (y,))


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


def is_theta_pair(g: MultiGraph, c: Cycle, d: Cycle) -> bool:
    """Whether cycles c and d of g form a theta: they meet in a path with at
    least one edge whose vertices are all they share.  The third cycle is
    the symmetric difference of their edge sets.

    The shared edges lie on the cycle c, so they form disjoint paths, or
    all of c when d = c.  They form one path exactly when their ends make
    one more vertex than they have edges.
    """
    shared = c.edge_set & d.edge_set
    ends = g.edge_map
    path = {x for e in shared for x in ends[e]}
    return len(path) == len(shared) + 1 and c.vertex_set & d.vertex_set == path


def enumerate_theta_subgraphs(
    g: MultiGraph,
    cycles: Sequence[Cycle] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[ThetaSubgraph, ...]:
    """All theta subgraphs, each reported once with its three cycles."""
    cyc = tuple(cycles) if cycles is not None else g.cycles(caps)
    Budget("enumerate_theta_subgraphs", caps.max_theta_pairs).spend(len(cyc) * (len(cyc) - 1) // 2)
    by_edges: dict[frozenset[int], Cycle] = {c.edge_set: c for c in cyc}
    seen: dict[frozenset[int], ThetaSubgraph] = {}
    for i, c1 in enumerate(cyc):
        for c2 in cyc[i + 1:]:
            if not is_theta_pair(g, c1, c2):
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
    """Bridges of G - X for an arbitrary vertex set X (not necessarily a cut).

    One search over g's own incidences that never enters X; the
    components come out in order of their least vertex.
    """
    X = frozenset(cut)
    inc, ends = g._incidence, g.edge_map
    seen: set[int] = set(X)
    out: list[Bridge] = []
    for start in g._vertices:
        if start in seen:
            continue
        seen.add(start)
        comp, edges, attach = [start], set(), set()
        for x in comp:
            for e in inc[x]:
                edges.add(e)
                u, v = ends[e]
                y = v if u == x else u
                if y in X:
                    attach.add(y)
                elif y not in seen:
                    seen.add(y)
                    comp.append(y)
        interior = frozenset(comp)
        out.append(Bridge(interior | attach, frozenset(edges), interior, frozenset(attach)))
    return tuple(out)


def find_vertex_cuts(g: MultiGraph, k: int, caps: Caps = DEFAULT_CAPS) -> tuple[VertexCut, ...]:
    """All minimal vertex cuts of size at most k, with their bridges.

    A cut X disconnects g and leaves at least two vertices; minimal means
    no proper subset of X is a cut.  Requires g connected.

    Cuts are read off cut vertices, one size at a time.  A minimal cut X
    of size s is Y + {c} for any c in X, where Y = X - c leaves g
    connected and c is a cut vertex of g - Y; so with c the largest
    vertex of X, each one is found once by one lowpoint pass over g - Y
    (``_cut_vertices``, which builds no graph) for every (s - 1)-set Y
    that contains no smaller cut, and keeping Y + {c} when it contains no
    smaller cut either.  Size three costs O(n^2) passes.  Every pass
    counts against ``caps.max_subsets`` ("find_vertex_cuts").
    """
    return _vertex_cut_search(g, k, Budget("find_vertex_cuts", caps.max_subsets))


def _vertex_cut_search(g: MultiGraph, k: int, budget: Budget) -> tuple[VertexCut, ...]:
    """:func:`find_vertex_cuts`, each lowpoint pass spent from ``budget``."""
    if not g.is_connected():
        raise GraphError("find_vertex_cuts requires a connected graph")
    if k < 0:
        raise GraphError("k must be non-negative")
    found: set[frozenset[int]] = set()

    def holds_cut(xs: tuple[int, ...], sizes: range) -> bool:
        return any(frozenset(sub) in found for r in sizes for sub in itertools.combinations(xs, r))

    for size in range(1, k + 1):
        if g.n - size < 2:
            break
        # a (size - 1)-set with no smaller cut inside leaves g connected
        for ys in itertools.combinations(g.vertices, size - 1):
            if holds_cut(ys, range(1, size)):
                continue
            budget.spend()
            top = ys[-1] if ys else -1
            for c in sorted(_cut_vertices(g, ys)):
                if c > top and not holds_cut((*ys, c), range(1, size)):
                    found.add(frozenset((*ys, c)))
    cuts = sorted(found, key=lambda x: (len(x), sorted(x)))
    return tuple(VertexCut(x, bridges_of_cut(g, x)) for x in cuts)


def _cut_vertices(g: MultiGraph, removed: Iterable[int] = ()) -> frozenset[int]:
    """The cut vertices of g - removed, the vertices whose deletion
    leaves a component of g - removed in two or more pieces, from one
    iterative lowpoint search over g's own adjacency (Hopcroft and Tarjan
    1973); no graph and no block is built.

    A root is a cut vertex when it has two or more tree children, any
    other vertex v when some child w has low(w) >= index(v).  Only the
    edge a vertex was entered by is skipped, by id, so a parallel edge
    is a back edge and a digon is 2-connected; loops are not in the
    adjacency and never make a cut vertex.
    """
    adj = g._adjacency
    # removed vertices count as visited, with an index no lowpoint takes
    index = dict.fromkeys(removed, g.n)
    low: dict[int, int] = {}
    cuts: set[int] = set()
    count = 0
    for root in g._vertices:
        if root in index:
            continue
        index[root] = low[root] = count
        count += 1
        children = 0
        # frames are (vertex, incoming edge id, step iterator)
        frames = [(root, -1, iter(adj[root]))]
        while frames:
            v, in_edge, steps = frames[-1]
            for w, e in steps:
                if w not in index:
                    index[w] = low[w] = count
                    count += 1
                    frames.append((w, e, iter(adj[w])))
                    break
                if e != in_edge and index[w] < low[v]:
                    low[v] = index[w]
            else:
                frames.pop()
                if not frames:
                    continue
                p = frames[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if p == root:
                    children += 1
                elif low[v] >= index[p]:
                    cuts.add(p)
        if children >= 2:
            cuts.add(root)
    return frozenset(cuts)


def is_two_connected(g: MultiGraph) -> bool:
    """No loops, connected, no cut vertex; digons count, a single edge not."""
    if not g.is_connected():
        return False
    if any(u == v for _, u, v in g._edges):
        return False
    if g.n == 2:
        return g.m >= 2
    if g.n < 2:
        return False
    return not _cut_vertices(g)


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
    c a cut vertex of H - a, and every adjacent pair.  The separation
    pairs take one lowpoint pass over H per vertex a (``_cut_vertices``),
    with no copy of H and no block tree.  Each class closed
    up by an edge uv is 2-connected, so its blocks form a chain from u
    to v.  Two classes make one cycle of blocks; with more, each chain
    of two or more blocks closes up with the union of the other classes.
    A cycle of three or more pieces is a polygon, reported once.  Every
    hinge set of three or more whose pieces attach to consecutive hinges
    only lies, in cyclic order, inside one polygon.
    """
    if not is_two_connected(h):
        raise GraphError("rings needs a 2-connected multigraph")
    return _rings(h)


def _rings(h: MultiGraph) -> Rings:
    """:func:`rings` of a multigraph the caller knows to be 2-connected."""
    separating: set[tuple[int, int]] = set()
    for a in h.vertices:
        separating.update((a, c) if a < c else (c, a) for c in _cut_vertices(h, (a,)))
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
    pieces[i].

    One iterative lowpoint search from u over the class's edges of h's
    own adjacency, with an edge stack that each block is popped off as
    it closes; no copy.
    The class closed up by uv is 2-connected, so its blocks form a chain
    from u to v, and u lies in the first block only.  Every block past
    the first lies in the subtree of the cut vertex it is entered by, so
    the blocks close from v back to u, each at the cut vertex nearer u.
    """
    adj = h._adjacency
    index = {u: 0}
    low = {u: 0}
    stack: list[int] = []
    closed: list[tuple[int, frozenset[int]]] = []
    # frames are (vertex, incoming edge id, step iterator)
    frames = [(u, -1, iter(adj[u]))]
    while frames:
        x, in_edge, steps = frames[-1]
        for w, e in steps:
            if e == in_edge or e not in edges:
                continue
            if w not in index:
                stack.append(e)
                index[w] = low[w] = len(index)
                frames.append((w, e, iter(adj[w])))
                break
            if index[w] < index[x]:
                stack.append(e)
                if index[w] < low[x]:
                    low[x] = index[w]
        else:
            frames.pop()
            if not frames:
                continue
            p = frames[-1][0]
            if low[x] < low[p]:
                low[p] = low[x]
            if low[x] >= index[p]:
                # p closes a block: pop the edge stack down to in_edge
                at = stack.index(in_edge)
                closed.append((p, frozenset(stack[at:])))
                del stack[at:]
    closed.reverse()
    return [p for p, _ in closed] + [v], [block for _, block in closed]
