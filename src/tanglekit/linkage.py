"""Two-disjoint-paths machinery.

Either two terminal pairs s1-t1 and s2-t2 are joined by vertex-disjoint
paths (a linkage), or a three-planar witness certifies that they are not:
after deleting every loop and vertex sets with at most three attachments
each, and joining each set's attachments into a clique, the rest embeds in
the plane with s1, s2, t1, t2 around one face in that order.  By the
2-linkage theorem (Seymour 1980; Thomassen 1980) exactly one of the two
exists, and the deleted sets can be taken to be the terminal-free parts
that a (<= 3)-reduction removes.

`find_linkage` decides which in four stages:

1. the witness with no deleted set: one planarity test of the graph with
   a wheel pinned to the terminals, on the input itself when it has no
   loops, since projecting a loopless graph onto no set copies nothing;
2. one descent of the pruned path search, without backtracking;
3. the reduction witness: every terminal-free part cut off by at most three
   vertices is replaced by a clique on them, found with at most four
   augmenting-path searches per vertex, then one more planarity test, in
   which every three-vertex neighbourhood must bound a facial triangle;
4. the pruned path search with backtracking, which by the theorem finds a
   linkage.

Stages 1-3 take polynomial time, facial triangles included, so every
input without a linkage is decided in polynomial time; only stage 4, on a
linked input that the first descent misses, can take exponential time.
Every prefix the path search builds counts against `Caps.max_subsets`.

The module also verifies both outcomes and finds witnesses for arbitrary
face orders (`find_three_planar`) by stages 1 and 3: one reduction and at
most two planarity tests.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .embedding import OrderedPlanarEmbedding, OrderSpec, ordered_planarity, verify_ordered_embedding
from .graph import GraphError, MultiGraph
from .limits import DEFAULT_CAPS, Budget, Caps


class LinkageError(ValueError):
    """A linkage-engine precondition failed."""


# ---------------------------------------------------------------------------
# Paths and linkages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexPath:
    """A simple path: aligned vertex and edge tuples."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    @staticmethod
    def from_vertices(g: MultiGraph, vertices: Sequence[int]) -> "VertexPath":
        """Path along the given vertices, least edge id per step."""
        edges = []
        for u, v in zip(vertices, vertices[1:]):
            between = g.edges_between(u, v)
            if not between:
                raise GraphError(f"no edge between {u} and {v}")
            edges.append(min(between))
        return VertexPath(tuple(vertices), tuple(edges))

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def validate(self, g: MultiGraph) -> list[str]:
        out = []
        if len(self.vertices) != len(self.edges) + 1:
            out.append("vertex and edge counts disagree")
            return out
        if len(set(self.vertices)) != len(self.vertices):
            out.append("path repeats a vertex")
        for (u, v), e in zip(zip(self.vertices, self.vertices[1:]), self.edges):
            if e not in g.edge_id_set or frozenset(g.endpoints(e)) != frozenset({u, v}):
                out.append(f"edge {e} does not join {u} and {v}")
        return out


@dataclass(frozen=True)
class Linkage:
    """Two vertex-disjoint paths."""

    first: VertexPath
    second: VertexPath

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.first.vertices) | frozenset(self.second.vertices)


def verify_linkage(
    g: MultiGraph, link: Linkage, s1: int, t1: int, s2: int, t2: int
) -> tuple[str, ...]:
    """Independent validation; empty result means the linkage is good."""
    out = list(link.first.validate(g)) + list(link.second.validate(g))
    if link.first.ends != (s1, t1):
        out.append(f"first path joins {link.first.ends}, wanted {(s1, t1)}")
    if link.second.ends != (s2, t2):
        out.append(f"second path joins {link.second.ends}, wanted {(s2, t2)}")
    if set(link.first.vertices) & set(link.second.vertices):
        out.append("paths share a vertex")
    return tuple(out)


def _reaches(adj: dict[int, tuple[int, ...]], a: int, b: int, banned: set[int]) -> bool:
    """Is b reachable from a through vertices outside `banned`?"""
    if a == b:
        return True
    seen = {a}
    stack = [a]
    while stack:
        for y in adj[stack.pop()]:
            if y == b:
                return True
            if y not in seen and y not in banned:
                seen.add(y)
                stack.append(y)
    return False


def _search_linkage(
    g: MultiGraph,
    s1: int,
    t1: int,
    s2: int,
    t2: int,
    caps: Caps = DEFAULT_CAPS,
    backtrack: bool = True,
) -> Linkage | None:
    """The linkage whose s1-t1 path comes first in depth-first order, or None.

    Neighbours are tried in id order.  A prefix of the s1-t1 path is
    extended by a vertex only while s2 and t2 stay connected off the prefix
    and the new end still reaches t1 avoiding s2, t2 and the prefix.  A
    prefix failing either test lies on no linkage, so the pruning loses no
    linkage and keeps the order in which they are met.  Without
    backtracking the search makes one descent and gives up where it would
    have to turn back.  Every extension counts against `caps.max_subsets`.
    """
    adj = {v: g.neighbors(v) for v in g.vertices}
    ends = {s2, t2}
    path = [s1]
    on = {s1}
    if not (_reaches(adj, s2, t2, on) and _reaches(adj, s1, t1, on | ends)):
        return None
    trials = [iter(adj[s1])]
    budget = Budget("linkage path search", caps.max_subsets)
    while path[-1] != t1:
        for nxt in trials[-1]:
            if nxt in on or nxt in ends:
                continue
            on.add(nxt)
            if _reaches(adj, s2, t2, on) and _reaches(adj, nxt, t1, on | ends):
                budget.spend()
                path.append(nxt)
                trials.append(iter(adj[nxt]))
                break
            on.remove(nxt)
        else:
            if not backtrack or len(path) == 1:
                return None
            trials.pop()
            on.remove(path.pop())
    edges2 = g.path_between(s2, t2, avoid=on)
    return Linkage(
        VertexPath.from_vertices(g, path),
        VertexPath(_walk_vertices(g, s2, edges2), tuple(edges2)),
    )


def _walk_vertices(g: MultiGraph, start: int, edges: Sequence[int]) -> tuple[int, ...]:
    verts = [start]
    for e in edges:
        verts.append(g.other_end(e, verts[-1]))
    return tuple(verts)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreePlanarWitness:
    """No-linkage certificate: deleted sets plus an embedded projection.

    Each set has at most three attachments; the projection replaces every
    set by a clique on its neighborhood (reusing an original edge when
    one exists) and drops every loop, which lies on no path.
    `added_edges` maps each new edge id to the indices of the sets that
    contribute it; `facial_triangles` lists the 3-attachment
    neighborhoods, which must bound faces of the embedding.
    """

    sets: tuple[frozenset[int], ...]
    projection: MultiGraph
    embedding: OrderedPlanarEmbedding
    added_edges: tuple[tuple[int, tuple[int, ...]], ...]
    facial_triangles: tuple[frozenset[int], ...]


def neighborhood(g: MultiGraph, vs: frozenset[int] | set[int]) -> frozenset[int]:
    out = set()
    for v in vs:
        for e in g.incident_edges(v):
            for w in g.endpoints(e):
                if w not in vs:
                    out.add(w)
    return frozenset(out)


def project(
    g: MultiGraph, sets: Sequence[frozenset[int]]
) -> tuple[MultiGraph, tuple[tuple[int, tuple[int, ...]], ...]]:
    """Delete every loop and the sets; join each neighborhood pair not yet joined.

    With no sets, a loopless g is its own projection, not a copy.
    """
    return _project(g, sets, [neighborhood(g, a) for a in sets])


def _project(
    g: MultiGraph, sets: Sequence[frozenset[int]], nbs: Sequence[frozenset[int]]
) -> tuple[MultiGraph, tuple[tuple[int, tuple[int, ...]], ...]]:
    """`project`, given the neighborhood of each set."""
    base = g.delete_edges(e for e, _ in g.loops) if g.loops else g
    if not sets:
        return base, ()
    drop: set[int] = set()
    for a in sets:
        drop |= a
    base = base.delete_vertices(drop)
    wanted: dict[tuple[int, int], list[int]] = {}
    for i, nb in enumerate(nbs):
        for u, v in itertools.combinations(sorted(nb), 2):
            wanted.setdefault((u, v), []).append(i)
    next_id = max(g.edge_ids, default=-1) + 1
    extra: dict[int, tuple[int, int]] = {}
    added: list[tuple[int, tuple[int, ...]]] = []
    for (u, v), idxs in sorted(wanted.items()):
        if base.edges_between(u, v):
            continue
        extra[next_id] = (u, v)
        added.append((next_id, tuple(idxs)))
        next_id += 1
    return base.with_edges(extra), tuple(added)


def _order_vertices(order: OrderSpec) -> frozenset[int]:
    return frozenset(v for item in order for v in ((item,) if isinstance(item, int) else item))


def _triangles(nbs: Sequence[frozenset[int]]) -> tuple[frozenset[int], ...]:
    """The neighborhoods of three vertices, sorted: a witness's facial triangles."""
    return tuple(sorted({nb for nb in nbs if len(nb) == 3}, key=sorted))


def _attempt_witness(
    g: MultiGraph, sets: tuple[frozenset[int], ...], order: OrderSpec
) -> ThreePlanarWitness | None:
    nbs = [neighborhood(g, a) for a in sets]
    proj, added = _project(g, sets, nbs)
    triangles = _triangles(nbs)
    try:
        emb = ordered_planarity(proj, order, facial_triangles=triangles)
    except GraphError:
        ends = {v for v in _order_vertices(order) if proj.incident_edges(v)}
        if sum(1 for c in proj.components() if c & ends) > 1:
            return None  # no face holds an order spread over several components
        raise
    return None if emb is None else ThreePlanarWitness(sets, proj, emb, added, triangles)


def find_three_planar(g: MultiGraph, order: OrderSpec) -> ThreePlanarWitness | None:
    """A witness placing `order` on one face of a projection, or None if none exists.

    Stages 1 and 3 of `find_linkage` decide it: the witness with no deleted
    set, then the witness of the full (<= 3)-reduction towards the order's
    vertices.  The second exists whenever any witness does.  Take the
    resolution of the order's set entries that a witness realises, and
    call two disjoint paths whose ends alternate around it a cross.

    1. A witness leaves g without a cross.  A path through a deleted set
       can skip it along the set's clique, and two disjoint paths cannot
       both pass one set of at most three attachments.  So a cross in g
       gives one in the projection, where a vertex put in the order's face
       and joined to the cross's ends closes a cycle that separates one
       path's ends (Jordan curve theorem).
    2. A reduction keeps g without a cross.  At most one path of a cross
       in the reduced graph uses the new clique's edges, and it can detour
       through the removed part, which is connected and meets each of its
       attachments.  The reductions leave the projection of
       `_reduction_sets`, so that projection has no cross either.
    3. Every vertex of that projection off the order has four fan paths to
       the order's vertices (`_reduction_sets`).  A graph without a cross
       is three-planar towards its order (Jung 1970; Seymour 1980;
       Robertson and Seymour, Graph Minors IX, 1990), and each set that
       theorem deletes would hold vertices with at most three fan paths.
       So it deletes none, and the projection embeds with the order on one
       face.
    4. Each reduction triangle then bounds a face.  A vertex on its side
       away from the order would have at most three fan paths, so only
       parallel copies of the triangle's edges lie there, and the
       innermost copies bound a face.

    A loop lies on no path, so the projection drops loops, and the
    witnesses of g are exactly those of g without its loops: the steps
    hold for every input.  A kept loop would need a corner of its vertex
    that no required triangle fills.  Put two vertices on each rim edge
    of a wheel, each joined to the hub and the edge's ends, and a loop at
    the hub.  Every witness with four rim vertices in rim order deletes
    the added vertices, whose triangles fill every corner at the hub; so
    with the loop kept neither a witness nor a linkage would exist.
    """
    unknown = _order_vertices(order) - g.vertex_set
    if unknown:
        raise LinkageError(f"unknown vertices {sorted(unknown)}")
    return _attempt_witness(g, (), order) or _reduction_witness(g, order)


def _reduction_witness(g: MultiGraph, order: OrderSpec) -> ThreePlanarWitness | None:
    """Stage 3: the witness of the full (<= 3)-reduction.

    Callers try the witness with no deleted set first, so a reduction that
    deletes nothing costs no second planarity test.
    """
    sets = _reduction_sets(g, _order_vertices(order))
    return _attempt_witness(g, sets, order) if sets else None


def verify_witness(
    g: MultiGraph,
    w: ThreePlanarWitness,
    order: OrderSpec,
) -> tuple[str, ...]:
    """Recheck every invariant from scratch; trusts nothing from search."""
    out: list[str] = []
    required: set[int] = set()
    for item in order:
        if isinstance(item, int):
            required.add(item)
        else:
            required.update(item)
    nbs = [neighborhood(g, a) for a in w.sets]
    for i, (a, nb) in enumerate(zip(w.sets, nbs)):
        if not a:
            out.append(f"set {i} is empty")
        if a - g.vertex_set:
            out.append(f"set {i} uses unknown vertices")
        if a & required:
            out.append(f"set {i} contains required vertices {sorted(a & required)}")
        if len(nb) > 3:
            out.append(f"set {i} has {len(nb)} attachments")
        for j, b in enumerate(w.sets):
            if i < j and a & b:
                out.append(f"sets {i} and {j} overlap")
            if i != j and nb & b:
                out.append(f"sets {i} and {j} are adjacent")
    if out:
        return tuple(out)
    proj, added = _project(g, w.sets, nbs)
    if proj != w.projection or added != w.added_edges:
        out.append("stored projection does not match a fresh one")
        return tuple(out)
    out.extend(verify_ordered_embedding(proj, w.embedding, order))
    derived = _triangles(nbs)
    if derived != w.facial_triangles:
        out.append("stored facial triangles do not match the sets")
    if derived:
        rot = w.embedding.rotation
        bounded = {frozenset(rot.face_walk(proj, f)) for f in rot.faces() if len(f) == 3}
        for tri in derived:
            if tri not in bounded:
                out.append(f"neighborhood {sorted(tri)} bounds no triangular face")
    return tuple(out)


def _fan_cut_part(
    adj: dict[int, set[int]], v: int, terminals: frozenset[int]
) -> frozenset[int] | None:
    """The terminal-free part around v that at most three vertices cut off.

    None when four paths from v end at distinct terminals and share only
    v.  Augmenting paths run on the vertex-split graph (unit capacity from
    each vertex's in-node to its out-node; terminals end paths), so a fourth
    search that fails leaves a minimum cut of size at most three; the part
    is the component of v among the vertices whose out-node that search
    reaches, and its neighbours lie in the cut.
    """
    used: set[int] = set()  # vertices carrying a path
    arcs: set[tuple[int, int]] = set()  # u -> w: a path steps from u to w
    ended: set[int] = set()  # terminals a path ends at
    for _ in range(4):
        parent: dict[tuple[int, int], tuple[int, int] | None] = {(v, 1): None}
        queue = deque([(v, 1)])
        end = None
        while queue:
            node = queue.popleft()
            u, out = node
            if out:
                steps = [(w, 0) for w in adj[u] if w != v]
                if u in used:
                    steps.append((u, 0))
            elif u in terminals and u not in ended:
                end = node
                break
            else:
                steps = [(x, 1) for x in adj[u] if (x, u) in arcs]
                if u not in used and u not in terminals:
                    steps.append((u, 1))
            for nxt in steps:
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        if end is None:
            reach = {u for u, out in parent if out}
            part = {v}
            stack = [v]
            while stack:
                for w in adj[stack.pop()]:
                    if w in reach and w not in part:
                        part.add(w)
                        stack.append(w)
            return frozenset(part)
        ended.add(end[0])
        node = end
        while (prev := parent[node]) is not None:
            (a, a_out), (b, _) = prev, node
            if a == b:
                (used.remove if a_out else used.add)(a)
            elif a_out:
                arcs.add((a, b))
            else:
                arcs.remove((b, a))
            node = prev
    return None


def _reduction_sets(g: MultiGraph, terminals: frozenset[int]) -> tuple[frozenset[int], ...]:
    """Witness sets of a full (<= 3)-reduction of g towards the terminals.

    One pass over the non-terminals in id order: a vertex with fewer than
    four fan paths to the terminals lies in a terminal-free part X with at
    most three neighbours; X is deleted, its neighbours joined into a
    clique, and X merged with every earlier set whose attachments it
    meets, so sets stay disjoint and pairwise non-adjacent.  A reduction
    never lowers another vertex's fan count, so after the pass no vertex
    left has fewer than four: the reduced graph has no such part.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    sets: list[tuple[frozenset[int], frozenset[int]]] = []  # (set, attachments)
    for v in sorted(g.vertex_set - terminals):
        if v not in adj:
            continue
        part = _fan_cut_part(adj, v, terminals)
        if part is None:
            continue
        attachments = frozenset(w for u in part for w in adj[u]) - part
        merged = part.union(*(a for a, att in sets if att & part))
        sets = [(a, att) for a, att in sets if not att & part] + [(merged, attachments)]
        for u in part:
            for w in adj.pop(u):
                if w not in part:
                    adj[w].discard(u)
        for a, b in itertools.combinations(attachments, 2):
            adj[a].add(b)
            adj[b].add(a)
    return tuple(sorted((a for a, _ in sets), key=min))


def find_linkage(
    g: MultiGraph, s1: int, t1: int, s2: int, t2: int, caps: Caps = DEFAULT_CAPS
) -> Linkage | ThreePlanarWitness:
    """A verified linkage, or a verified witness for order (s1, s2, t1, t2).

    Exactly one of the two outcomes exists.  The graph must be connected
    (on a disconnected graph the face-order certificate loses meaning).
    The stages, in order: the witness with no deleted set; one descent of
    the pruned path search; the witness of the full (<= 3)-reduction; the
    pruned path search with backtracking.  Stages 1 and 3 are
    `find_three_planar`'s route.  The first three take polynomial time
    (each witness is one planarity test, facial triangles included), and
    every input without a linkage is decided by them, never reaching the
    fourth.  The path search counts every prefix it builds against
    `caps.max_subsets` and raises ResourceLimitError (stage "linkage path
    search") past it.
    """
    terms = (s1, t1, s2, t2)
    unknown = set(terms) - g.vertex_set
    if unknown:
        raise LinkageError(f"unknown vertices {sorted(unknown)}")
    if len(set(terms)) != 4:
        raise LinkageError("terminals must be four distinct vertices")
    if not g.is_connected():
        raise LinkageError("graph must be connected")
    found = _decide_linkage(g, s1, t1, s2, t2, caps)
    if found is None:
        raise LinkageError("internal: the reduction embeds no witness and no linkage found")
    if isinstance(found, Linkage):
        bad = verify_linkage(g, found, s1, t1, s2, t2)
        if bad:
            raise LinkageError(f"internal: found linkage fails checks {bad}")
        return found
    bad = verify_witness(g, found, (s1, s2, t1, t2))
    if bad:
        raise LinkageError(f"internal: witness fails checks {bad}")
    return found


def _decide_linkage(
    g: MultiGraph, s1: int, t1: int, s2: int, t2: int, caps: Caps
) -> Linkage | ThreePlanarWitness | None:
    """The outcome of the first of the four stages that finds one, unchecked."""
    order = (s1, s2, t1, t2)
    w = _attempt_witness(g, (), order)
    if w is not None:
        return w
    link = _search_linkage(g, s1, t1, s2, t2, caps, backtrack=False)
    if link is not None:
        return link
    w = _reduction_witness(g, order)
    if w is not None:
        return w
    return _search_linkage(g, s1, t1, s2, t2, caps)
