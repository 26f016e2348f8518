"""Independent brute-force oracles used to pin expected values.

Everything here works by exhaustive subset or path enumeration and shares no
search logic with the library: cycles come from 2-regularity checks over all
edge subsets or from plain path extension, thetas from internally disjoint
path triples, linkages from all simple path pairs, vertex cuts and
2-connectivity from the vertex-subset cut scan, rings from the hinge-subset
scan.  The exceptions are earlier versions of the library's own code, kept
without their fast paths: the block tree, the bridges of a vertex set read
off the components of a copy, the explicit core of a peel and the
explicit t-sum, each with every balanced cycle listed, the maximal
balanced sets by transversals, blocking vertices, blocking pairs and the
first disjoint pair on the cycle list, two earlier Tricoloured searches, the
FatTriangle, CrissCross and PPSigned detectors, the canonical cycle key, the
theta check, the linkage search, the boundary pairing search and, at the
end, ordered planarity by networkx's planarity test.  Embeddings come from
every rotation system that passes the Euler check, a signed graph's maximal
balanced sets from every switching, and spanning forests from breadth-first
search.
"""

from __future__ import annotations

import itertools
import random
from itertools import combinations, permutations, product
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import networkx as nx

from tanglekit.bias import BiasedGraph, BiasError, make_explicit
from tanglekit.classify import _PLACEMENTS, _Counter, _Hit, _weak_compositions
from tanglekit.embedding import (
    Dart,
    OrderedPlanarEmbedding,
    RotationSystem,
    _effective_seq,
    _order_component_ok,
    _resolve_orders,
    collapse_cyclic,
    ordered_planarity,
    walk_contains_order,
)
from tanglekit.families import FamilyDescriptor, verify_family
from tanglekit.graph import (
    Bridge,
    Cycle,
    GraphError,
    MultiGraph,
    ThetaSubgraph,
    VertexCut,
    bridges_of_cut,
    cycles_with,
    enumerate_theta_subgraphs,
    is_two_connected,
    _rings,
)
from tanglekit.limits import DEFAULT_CAPS, Caps, ResourceLimitError
from tanglekit.linkage import (
    Linkage,
    LinkageError,
    ThreePlanarWitness,
    VertexPath,
    _walk_vertices,
    find_three_planar,
    verify_linkage,
    verify_witness,
)
from tanglekit.tangles import (
    Balanced,
    HasBlockingVertex,
    Tangled,
    TangleVerdict,
    TwoDisjointUnbalanced,
)


def subset_cycles(g: MultiGraph, max_len: int | None = None) -> list[frozenset[int]]:
    """All cycle edge sets of g by scanning every edge subset."""
    out: list[frozenset[int]] = []
    ids = list(g.edge_ids)
    limit = len(ids) if max_len is None else max_len
    for r in range(1, limit + 1):
        for combo in itertools.combinations(ids, r):
            if _is_cycle_set(g, combo):
                out.append(frozenset(combo))
    return out


def _is_cycle_set(g: MultiGraph, edges: Sequence[int]) -> bool:
    deg: dict[int, int] = {}
    for e in edges:
        u, v = g.endpoints(e)
        deg[u] = deg.get(u, 0) + (2 if u == v else 1)
        if u != v:
            deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    # connectivity over the touched vertices
    verts = sorted(deg)
    adj: dict[int, set[int]] = {v: set() for v in verts}
    for e in edges:
        u, v = g.endpoints(e)
        adj[u].add(v)
        adj[v].add(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(verts)


def path_triple_thetas(g: MultiGraph) -> set[frozenset[int]]:
    """Theta edge sets via three internally disjoint (a, b)-paths."""
    out: set[frozenset[int]] = set()
    verts = g.vertices
    for a, b in itertools.combinations(verts, 2):
        paths = _simple_paths(g, a, b)
        for p1, p2, p3 in itertools.combinations(paths, 3):
            if _internally_disjoint(g, a, b, p1, p2) and \
               _internally_disjoint(g, a, b, p1, p3) and \
               _internally_disjoint(g, a, b, p2, p3):
                out.add(frozenset(p1) | frozenset(p2) | frozenset(p3))
    return out


def _simple_paths(g: MultiGraph, s: int, t: int) -> list[tuple[int, ...]]:
    """All simple s-t paths as edge tuples (every parallel edge choice)."""
    out: list[tuple[int, ...]] = []

    def walk(cur: int, used_v: set[int], used_e: list[int]) -> None:
        if cur == t:
            out.append(tuple(used_e))
            return
        for e in sorted(g.delta(cur)):
            y = g.other_end(e, cur)
            if y in used_v and y != t:
                continue
            if y == t:
                out.append(tuple(used_e + [e]))
                continue
            used_v.add(y)
            walk(y, used_v, used_e + [e])
            used_v.remove(y)

    walk(s, {s}, [])
    return out


def _path_vertices(g: MultiGraph, path: Sequence[int], s: int) -> list[int]:
    verts = [s]
    cur = s
    for e in path:
        cur = g.other_end(e, cur)
        verts.append(cur)
    return verts


def _internally_disjoint(g: MultiGraph, a: int, b: int, p: Sequence[int], q: Sequence[int]) -> bool:
    if set(p) & set(q):
        return False
    vp = set(_path_vertices(g, p, a)) - {a, b}
    vq = set(_path_vertices(g, q, a)) - {a, b}
    return not (vp & vq)


def disjoint_path_pair(
    g: MultiGraph, s1: int, t1: int, s2: int, t2: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A vertex-disjoint (s1-t1, s2-t2) path pair by full enumeration."""
    for p1 in _simple_paths(g, s1, t1):
        v1 = set(_path_vertices(g, p1, s1))
        if s2 in v1 or t2 in v1:
            continue
        rest = g.delete_vertices(v1)
        if s2 not in rest.vertex_set or t2 not in rest.vertex_set:
            continue
        sub = rest.path_between(s2, t2)
        if sub is not None:
            return (p1, sub)
    return None


def random_connected_pairs(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A connected simple graph on n vertices with min(m, n choose 2)
    edges, drawn as the benchmark corpus draws its signed graphs."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = {tuple(sorted((order[i], rng.choice(order[:i])))) for i in range(1, n)}
    rest = [p for p in itertools.combinations(range(n), 2) if p not in pairs]
    rng.shuffle(rest)
    pairs.update(rest[: max(0, m - len(pairs))])
    return sorted(pairs)


def random_multigraph(
    rng: random.Random,
    max_n: int = 8,
    max_extra: int = 6,
    allow_loops: bool = False,
    allow_parallel: bool = True,
    connected: bool = True,
) -> MultiGraph:
    """A random connected multigraph with a bounded cyclomatic number."""
    n = rng.randint(2, max_n)
    verts = list(range(n))
    pairs: list[tuple[int, int]] = []
    order = verts[1:]
    rng.shuffle(order)
    grown = [verts[0]]
    for v in order:
        pairs.append((rng.choice(grown), v))
        grown.append(v)
    extra = rng.randint(0, max_extra)
    for _ in range(extra):
        u = rng.choice(verts)
        v = rng.choice(verts)
        if u == v and not allow_loops:
            continue
        if not allow_parallel and (min(u, v), max(u, v)) in {(min(a, b), max(a, b)) for a, b in pairs}:
            continue
        pairs.append((u, v))
    return MultiGraph.from_pairs(pairs)


def _class_orderings(groups: Sequence[Sequence[int]]):
    pools = [itertools.permutations(gp) for gp in groups]
    for combo in itertools.product(*pools):
        out: list[int] = []
        for part in combo:
            out.extend(part)
        yield out


def canonical_form(g: MultiGraph) -> tuple:
    """Isomorphism-invariant canonical form for small simple graphs.

    Minimum adjacency bitmask over all vertex orderings that list vertices
    by ascending degree, then by their neighbours' degrees; isomorphisms
    preserve both, so restricting to orderings that respect them keeps
    the form exact while staying fast.
    """
    n = g.n
    verts = list(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    adj: list[set[int]] = [set() for _ in range(n)]
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        if u == v:
            continue
        adj[idx[u]].add(idx[v])
        adj[idx[v]].add(idx[u])
    deg = [len(a) for a in adj]
    classes: dict[tuple, list[int]] = {}
    for i, d in enumerate(deg):
        classes.setdefault((d, tuple(sorted(deg[j] for j in adj[i]))), []).append(i)
    groups = [classes[d] for d in sorted(classes)]
    best: int | None = None
    for ordering in _class_orderings(groups):
        pos = {v_orig: p for p, v_orig in enumerate(ordering)}
        bits = 0
        for i in range(n):
            pi = pos[i]
            for j in adj[i]:
                if i < j:
                    a, b = (pi, pos[j]) if pi < pos[j] else (pos[j], pi)
                    bits |= 1 << (a * n + b)
        if best is None or bits < best:
            best = bits
    return (n, tuple(sorted(deg)), best)


def connected_graph_census(n: int) -> list[MultiGraph]:
    """One representative per unlabeled connected simple graph on n vertices.

    Grown one vertex at a time: deleting a leaf of a spanning tree leaves
    a connected graph connected, so every connected graph on n vertices
    is one on n - 1 vertices plus vertex n - 1 joined to a non-empty set.
    """
    if n <= 1:
        return [MultiGraph.build(range(n), [])]
    seen: set[tuple] = set()
    out: list[MultiGraph] = []
    for g in connected_graph_census(n - 1):
        pairs = [g.endpoints(e) for e in g.edge_ids]
        for mask in range(1, 1 << (n - 1)):
            h = MultiGraph.from_pairs(
                pairs + [(v, n - 1) for v in range(n - 1) if mask >> v & 1], range(n)
            )
            key = canonical_form(h)
            if key not in seen:
                seen.add(key)
                out.append(h)
    return out


def _disconnects(g: MultiGraph, cut: frozenset[int]) -> bool:
    rest = g.vertex_set - cut
    if len(rest) < 2:
        return False
    return not g.induced(rest).is_connected()


def scan_vertex_cuts(g: MultiGraph, k: int) -> tuple[VertexCut, ...]:
    """Minimal vertex cuts of size at most k by trying every vertex subset
    and every proper subset of each one that disconnects."""
    cuts: list[VertexCut] = []
    for size in range(1, k + 1):
        if g.n - size < 2:
            break
        for cand in combinations(g.vertices, size):
            X = frozenset(cand)
            if not _disconnects(g, X):
                continue
            if any(
                _disconnects(g, frozenset(sub))
                for r in range(1, size)
                for sub in combinations(cand, r)
            ):
                continue
            cuts.append(VertexCut(X, bridges_of_cut(g, X)))
    cuts.sort(key=lambda c: (c.size, sorted(c.cut)))
    return tuple(cuts)


def oracle_explicit_core(cur: BiasedGraph, cut: Sequence[int], bridge_edges: Iterable[int]) -> BiasedGraph:
    """The core a peel leaves at a cut of two or three vertices, with every
    balanced cycle listed: a cycle through virtual edges is probed with the
    q-path (a shortest path through the peeled side, avoiding the other cut
    vertex) between the ends of its virtual edges.  Virtual edge ids follow
    the largest edge id of cur, one per sorted cut pair."""
    cut = tuple(sorted(cut))
    side = cur.graph.subgraph(bridge_edges)
    interior = side.vertex_set - set(cut)
    next_e = max(cur.graph.edge_id_set) + 1
    virt = {next_e + j: pair for j, pair in enumerate(combinations(cut, 2))}
    qpaths = {
        (a, b): frozenset(side.path_between(a, b, [v for v in cut if v not in (a, b)]))
        for a, b in virt.values()
    }
    core_graph = cur.graph.delete_vertices(interior).with_edges(virt)
    balanced: list[frozenset[int]] = []
    for c in core_graph.cycles():
        used = c.edge_set & set(virt)
        if len(used) == 3:
            balanced.append(c.edge_set)
            continue
        if not used:
            probe = c.edge_set
        else:
            ends = set()
            for ve in used:
                ends ^= set(virt[ve])
            a, b = sorted(ends)
            probe = (c.edge_set - used) | qpaths[(a, b)]
        if cur.balance(Cycle.from_edge_set(cur.graph, probe)):
            balanced.append(c.edge_set)
    return make_explicit(core_graph, balanced)


def oracle_t_sum(
    o1: BiasedGraph,
    o2: BiasedGraph,
    t: int,
    identify: Sequence[tuple[int, int]],
    kt_edges1: Sequence[int] | None = None,
    kt_edges2: Sequence[int] | None = None,
) -> BiasedGraph:
    """The t-sum of o1 and a balanced o2 with every balanced cycle listed and
    theta-checked.  Side 2 takes fresh vertex ids in the order of o2's
    unglued vertices and fresh edge ids in the order of its unshared edges;
    the shared edges are the least per glued pair unless given.  A crossing
    cycle is walked to find its two paths, and is balanced when each one,
    closed with its summand's shared edge, is balanced there."""
    firsts = [a for a, _ in identify]
    seconds = [b for _, b in identify]
    pairs = list(combinations(range(t), 2))
    kt1 = tuple(kt_edges1 or (min(o1.graph.edges_between(firsts[i], firsts[j])) for i, j in pairs))
    kt2 = tuple(kt_edges2 or (min(o2.graph.edges_between(seconds[i], seconds[j])) for i, j in pairs))
    vmap = dict(zip(seconds, firsts))
    fresh = []
    for v in sorted(o2.graph.vertex_set - set(seconds)):
        vmap[v] = max(o1.graph.vertices) + 1 + len(fresh)
        fresh.append(vmap[v])
    back2: dict[int, int] = {}
    extra: dict[int, tuple[int, int]] = {}
    for old in sorted(o2.graph.edge_id_set - set(kt2)):
        new = max(o1.graph.edge_id_set) + 1 + len(back2)
        back2[new] = old
        extra[new] = tuple(vmap[x] for x in o2.graph.endpoints(old))
    g = o1.graph.delete_edges(kt1).with_edges(extra, fresh)
    pair_edge1 = {frozenset(o1.graph.endpoints(e)): e for e in kt1}
    pair_edge2 = {frozenset(vmap[x] for x in o2.graph.endpoints(e)): e for e in kt2}
    balanced = []
    for c in g.cycles():
        own2 = c.edge_set & back2.keys()
        if not own2:
            ok = o1.balance(c)
        elif own2 == c.edge_set:
            ok = o2.balance_of(frozenset(back2[e] for e in own2))
        else:
            length = len(c.key)
            switches = [i for i in range(length) if (c.key[i] in back2) != (c.key[i - 1] in back2)]
            assert len(switches) == 2
            p, q = switches
            ends = frozenset({c.walk[p], c.walk[q]})
            seg = {c.key[i] for i in range(p, q)}
            seg2 = seg if c.key[p] in back2 else c.edge_set - seg
            ok = o1.balance_of(frozenset(c.edge_set - seg2) | {pair_edge1[ends]}) and o2.balance_of(
                frozenset(back2[e] for e in seg2) | {pair_edge2[ends]}
            )
        if ok:
            balanced.append(c)
    return make_explicit(g, balanced)


def oracle_bridges_of_cut(g: MultiGraph, cut: Iterable[int]) -> tuple[Bridge, ...]:
    """Bridges of G - X from the components of a copy of G - X, each
    component's edges and attachments found by a pass over every edge."""
    X = frozenset(cut)
    h = g.delete_vertices(X)
    out: list[Bridge] = []
    for comp in sorted(h.components(), key=lambda c: sorted(c)):
        edges: set[int] = set()
        attach: set[int] = set()
        for e in g.edge_ids:
            u, v = g.endpoints(e)
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


def scan_is_two_connected(g: MultiGraph) -> bool:
    """2-connectivity by trying each vertex as a cut, with the library's
    guards: no loops, connected, and a single edge does not count."""
    if not g.is_connected():
        return False
    if any(g.is_loop(e) for e in g.edge_ids):
        return False
    if g.n == 2:
        return g.m >= 2
    if g.n < 2:
        return False
    return not scan_vertex_cuts(g, 1)


# ---------------------------------------------------------------------------
# Block trees and spanning forests
#
# The block tree is the reference the library's lowpoint searches for cut
# vertices are compared with.
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


def spanning_forest(g: MultiGraph) -> frozenset[int]:
    """Edge ids of a breadth-first spanning forest of g."""
    seen: set[int] = set()
    tree: set[int] = set()
    for start in g.vertices:
        if start in seen:
            continue
        seen.add(start)
        frontier = [start]
        while frontier:
            nxt: list[int] = []
            for x in frontier:
                for y, e in g.adjacent(x):
                    if y not in seen:
                        seen.add(y)
                        tree.add(e)
                        nxt.append(y)
            frontier = nxt
    return frozenset(tree)


def _scan_cycles(g: MultiGraph, caps: Caps) -> tuple[frozenset[int], ...]:
    """Every cycle edge set, by plain path extension from each start vertex."""
    found: set[frozenset[int]] = set()

    def push(edges: frozenset[int]) -> None:
        found.add(edges)
        if len(found) > caps.max_cycles:
            raise ResourceLimitError("oracle cycle scan", caps.max_cycles)

    for e in g.edge_ids:
        u, v = g.endpoints(e)
        if u == v:
            push(frozenset({e}))
    rank = {v: i for i, v in enumerate(sorted(g.vertex_set))}
    for start in sorted(g.vertex_set):
        stack: list[tuple[int, tuple[int, ...], frozenset[int]]] = [
            (start, (), frozenset({start}))
        ]
        while stack:
            at, path, seen = stack.pop()
            for e in g.incident_edges(at):
                if g.is_loop(e) or e in path:
                    continue
                w = g.other_end(e, at)
                if w == start:
                    if path:
                        push(frozenset((*path, e)))
                elif w not in seen and rank[w] > rank[start]:
                    stack.append((w, (*path, e), seen | {w}))
    return tuple(found)


ORACLE_VERTICES = 9  # the definitional scan enumerates every cycle


def oracle_is_tangled(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> TangleVerdict:
    """Tangledness verdict by definitional scan over every cycle.

    Independent of the main search: cycles come from a plain path
    enumeration here, disjointness and covers are checked pairwise and
    per vertex.  Only usable up to ``ORACLE_VERTICES`` vertices.
    """
    if o.graph.n > ORACLE_VERTICES:
        raise ResourceLimitError("brute-force tangle oracle", ORACLE_VERTICES)
    unbalanced: list[Cycle] = []
    for edges in _scan_cycles(o.graph, caps):
        c = Cycle.from_edge_set(o.graph, edges)
        if not o.balance(c):
            unbalanced.append(c)
    if not unbalanced:
        return Balanced()
    unbalanced.sort(key=lambda c: c.sort_key())
    for c1, c2 in combinations(unbalanced, 2):
        if not c1.vertex_set & c2.vertex_set:
            return TwoDisjointUnbalanced(c1, c2)
    common = frozenset(o.graph.vertex_set)
    for c in unbalanced:
        common &= c.vertex_set
    if common:
        return HasBlockingVertex(min(common))
    return Tangled()


# ---------------------------------------------------------------------------
# Blocking structure on the cycle list
#
# The branches the library took for every bias but signed before its verdicts
# became balance tests, copied unchanged: blocking vertices and pairs as covers
# of the unbalanced cycles, and the first disjoint pair by a scan of all pairs
# of unbalanced cycles in ``Cycle.sort_key`` order.
# ---------------------------------------------------------------------------


def oracle_blocking_vertices(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> frozenset[int]:
    """Vertices meeting every unbalanced cycle; all of V if balanced."""
    unb = o.unbalanced_cycles(caps)
    if not unb:
        return frozenset(o.graph.vertices)
    return frozenset.intersection(*(c.vertex_set for c in unb))


def oracle_blocking_pairs(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> tuple[tuple[int, int], ...]:
    """Pairs {v, w}, neither blocking alone, meeting every unbalanced cycle."""
    unb = o.unbalanced_cycles(caps)
    if not unb:
        return ()
    blockers = oracle_blocking_vertices(o, caps)
    hits = {v: 0 for v in o.graph.vertices}
    for i, c in enumerate(unb):
        for v in c.vertex_set:
            hits[v] |= 1 << i
    full = (1 << len(unb)) - 1
    out = []
    for v, w in combinations(o.graph.vertices, 2):
        if v in blockers or w in blockers:
            continue
        if hits[v] | hits[w] == full:
            out.append((v, w))
    return tuple(out)


def oracle_disjoint_unbalanced_pair(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> tuple[Cycle, Cycle] | None:
    """First pair (i, j), i < j, of disjoint unbalanced cycles, or None."""
    unb = o.unbalanced_cycles(caps)
    index = {v: i for i, v in enumerate(o.graph.vertices)}
    masks = [sum(1 << index[v] for v in c.vertex_set) for c in unb]
    for scanned, (i, j) in enumerate(combinations(range(len(unb)), 2), 1):
        if scanned > caps.max_theta_pairs:
            raise ResourceLimitError("disjoint-pair scan", caps.max_theta_pairs)
        if not masks[i] & masks[j]:
            return unb[i], unb[j]
    return None


def oracle_cycle_list_verdict(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> TangleVerdict:
    """The verdict from the three cycle-list functions above."""
    if not o.unbalanced_cycles(caps):
        return Balanced()
    blockers = oracle_blocking_vertices(o, caps)
    if blockers:
        return HasBlockingVertex(min(blockers))
    pair = oracle_disjoint_unbalanced_pair(o, caps)
    if pair is not None:
        return TwoDisjointUnbalanced(*pair)
    return Tangled()


# ---------------------------------------------------------------------------
# Maximal balanced sets before transversal pruning
#
# The search as it stood before it pruned branches by private cycles,
# copied unchanged.  It walks every partial removal set, remembers each
# one, and filters the transversals it reaches down to the minimal ones
# afterwards, so it shares no pruning with the library's search.
# ---------------------------------------------------------------------------


def _maximal_balanced_sets(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> tuple[frozenset[int], ...]:
    """Inclusion-maximal balanced edge sets, largest first.

    An edge set is balanced iff its complement meets every unbalanced
    cycle, so the search enumerates minimal transversals of the
    unbalanced cycles by branching on the first unhit cycle.
    """
    unb = sorted(
        {c.edge_set for c in o.unbalanced_cycles(caps)},
        key=lambda s: (len(s), sorted(s)),
    )
    all_edges = o.graph.edge_id_set
    removed_sets: set[frozenset[int]] = set()
    seen: set[frozenset[int]] = set()

    def walk(removed: frozenset[int]) -> None:
        if removed in seen:
            return
        if len(seen) >= caps.max_subsets:
            raise ResourceLimitError("balanced subgraph search", caps.max_subsets)
        seen.add(removed)
        for cyc in unb:
            if not cyc & removed:
                for e in sorted(cyc):
                    walk(removed | {e})
                return
        removed_sets.add(removed)

    walk(frozenset())
    sets = {all_edges - r for r in removed_sets}
    maximal = [s for s in sets if not any(s < t for t in sets)]
    maximal.sort(key=lambda s: (-len(s), sorted(s)))
    return tuple(maximal)


oracle_maximal_balanced_sets = _maximal_balanced_sets


def oracle_switching_balanced_sets(o: BiasedGraph) -> tuple[frozenset[int], ...]:
    """Inclusion-maximal balanced edge sets of a signed graph, largest first.

    An edge set is balanced exactly when some switching makes all of its
    edges positive, so these are the inclusion-maximal positive sets over
    all switchings.  Switching a whole component changes no sign, so one
    vertex of each component stays unswitched and the other n - c go
    through all 2^(n - c) subsets.  A loop never crosses a switching and
    stays positive or negative.
    """
    g = o.graph
    signature = o.bias.signature
    fixed = {min(c) for c in g.components()}
    free = [v for v in g.vertices if v not in fixed]
    sets = set()
    for r in range(len(free) + 1):
        for switched in map(set, combinations(free, r)):
            sets.add(frozenset(
                e for e, (u, v) in g.edge_map.items() if (e in signature) == ((u in switched) != (v in switched))
            ))
    maximal = [s for s in sets if not any(s < t for t in sets)]
    maximal.sort(key=lambda s: (-len(s), sorted(s)))
    return tuple(maximal)


# ---------------------------------------------------------------------------
# Rings by hinge-subset scan
#
# The ring search as the wheel and Tricoloured detectors ran it before
# rings were read off 2-separations: every 2- to 6-subset of vertices is
# tried as a hinge set, and kept when each bridge of the graph minus the
# hinges attaches to exactly two of them and those pairs close a single
# cycle through all hinges.
# ---------------------------------------------------------------------------


def _pair_components(sub: MultiGraph, hinges: frozenset[int]) -> dict[frozenset[int], frozenset[int]] | None:
    """Edges of sub grouped by the hinge pair they span, or None.

    Fails when some component of sub - hinges does not attach to exactly
    two hinges, or some edge evades the grouping.
    """
    groups: dict[frozenset[int], set[int]] = {}
    for b in bridges_of_cut(sub, hinges):
        if len(b.attachments) != 2:
            return None
        groups.setdefault(b.attachments, set()).update(b.edges)
    for u, v in combinations(sorted(hinges), 2):
        between = sub.edges_between(u, v)
        if between:
            groups.setdefault(frozenset({u, v}), set()).update(between)
    covered: set[int] = set()
    for es in groups.values():
        covered |= es
    if covered != set(sub.edge_ids):
        return None
    return {pair: frozenset(es) for pair, es in groups.items()}


def _hamiltonian_support(pairs: set[frozenset[int]], hinges: tuple[int, ...]) -> tuple[int, ...] | None:
    """Cyclic hinge order when the pairs form a single cycle through all hinges."""
    if len(pairs) != len(hinges) or len(hinges) < 3:
        return None
    adj: dict[int, list[int]] = {v: [] for v in hinges}
    for p in pairs:
        u, v = sorted(p)
        if u not in adj or v not in adj:
            return None
        adj[u].append(v)
        adj[v].append(u)
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        return None
    start = min(hinges)
    order = [start]
    prev = -1
    while len(order) < len(hinges):
        nxt = [w for w in adj[order[-1]] if w != prev]
        if not nxt:
            return None
        prev = order[-1]
        order.append(nxt[0])
    if len(set(order)) != len(hinges) or start not in adj[order[-1]]:
        return None
    return tuple(order)


def _ring_atoms(sub: MultiGraph, hinges: frozenset[int]) -> tuple[frozenset[int], ...] | None:
    """Indivisible edge groups between a 2-element hinge set."""
    atoms: list[frozenset[int]] = []
    for b in bridges_of_cut(sub, hinges):
        if b.attachments != hinges:
            return None
        atoms.append(frozenset(b.edges))
    u, v = sorted(hinges)
    for e in sub.edges_between(u, v):
        atoms.append(frozenset({e}))
    return tuple(atoms)


def scan_rings(
    h: MultiGraph,
) -> tuple[dict[tuple[int, int], tuple[frozenset[int], ...]], set[frozenset[tuple[frozenset[int], frozenset[int]]]]]:
    """Bonds and rings of h by trying every 2- to 6-subset of vertices.

    Bonds map each accepted hinge pair to its atoms, in the order the
    wheel search split them.  A ring of three to six parts is the set of
    (hinge pair, part edges) pairs, so it compares equal under rotation
    and reflection.
    """
    bonds: dict[tuple[int, int], tuple[frozenset[int], ...]] = {}
    found: set[frozenset[tuple[frozenset[int], frozenset[int]]]] = set()
    verts = sorted(h.vertex_set)
    for k in range(2, min(len(verts), 6) + 1):
        for hinge_set in combinations(verts, k):
            groups = _pair_components(h, frozenset(hinge_set))
            if not groups:
                continue
            if k == 2:
                atoms = _ring_atoms(h, frozenset(hinge_set))
                if set(groups) == {frozenset(hinge_set)} and atoms is not None and len(atoms) >= 2:
                    bonds[hinge_set] = atoms
            elif _hamiltonian_support(set(groups), hinge_set) is not None:
                found.add(frozenset(groups.items()))
    return bonds, found


# ---------------------------------------------------------------------------
# Tricoloured search before ring memoisation
#
# The detector as it stood before the ring edge sets were memoised and
# before target sets had to be pairwise disjoint, copied unchanged.  It
# rebuilds every ring for each chord orientation and hands
# verify_family every candidate whose target sets share at most one
# vertex, so it is slow but shares no pruning with the library's search.
# ---------------------------------------------------------------------------

def _detect_tricoloured(o: BiasedGraph, caps: Caps, msets: tuple[frozenset[int], ...]) -> _Hit | None:
    """Six-part ring with three antipodal chord classes.

    Candidates are anchored on the three chord sources: the search
    picks three vertices, a target set with one chord edge per target
    at each, and then fits the remaining edges into a ring of parts.
    Chords ending on another chosen source are not considered.
    """
    g = o.graph
    if g.n < 4 or any(g.is_loop(e) for e in g.edge_ids):
        return None
    counter = _Counter(caps, "tricoloured search")
    for trip in combinations(sorted(g.vertex_set), 3):
        tset = set(trip)
        stars: list[dict[int, list[int]]] = []
        for x in trip:
            by_target: dict[int, list[int]] = {}
            for e in sorted(g.incident_edges(x)):
                far = g.other_end(e, x)
                if far not in tset:
                    by_target.setdefault(far, []).append(e)
            if not by_target:
                stars = []
                break
            stars.append(by_target)
        if not stars:
            continue
        for choice in product(*(_star_choices(s) for s in stars)):
            counter.bump()
            # Target sets land in pairwise distinct ring parts, which
            # overlap in at most a hinge.
            if any(
                len(set(a[0]) & set(b[0])) > 1
                for a, b in combinations(choice, 2)
            ):
                continue
            chords = {e for _, es in choice for e in es}
            ring_edges = g.edge_id_set - chords
            core = g.subgraph(ring_edges, g.vertex_set)
            if not is_two_connected(core):
                continue
            hit = _fit_tricoloured(o, trip, choice, ring_edges, caps, counter)
            if hit:
                return hit
    return None


def _star_choices(by_target: dict[int, list[int]]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (targets, one edge per target) choice for one chord source."""
    targets = sorted(by_target)
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for r in range(1, len(targets) + 1):
        for ts in combinations(targets, r):
            for es in product(*(sorted(by_target[t]) for t in ts)):
                out.append((ts, es))
    return out


def _fit_tricoloured(
    o: BiasedGraph,
    trip: tuple[int, int, int],
    choice: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
    ring_edges: frozenset[int],
    caps: Caps,
    counter: _Counter,
) -> _Hit | None:
    g = o.graph
    sub = g.subgraph(ring_edges)
    verts = sorted(sub.vertex_set)
    pairs = [
        (x, frozenset(targets), tuple(edges))
        for x, (targets, edges) in zip(trip, choice)
    ]
    for k in range(3, min(len(verts), 6) + 1):
        for hinge_set in combinations(verts, k):
            counter.bump()
            groups = _pair_components(sub, frozenset(hinge_set))
            if not groups:
                continue
            order = _hamiltonian_support(set(groups), hinge_set)
            if order is None:
                continue
            base_parts = [
                groups[frozenset({order[i], order[(i + 1) % k]})] for i in range(k)
            ]
            base_pvs = [g.subgraph(pe).vertex_set for pe in base_parts]
            # Every target set must land inside one ring part; parts are
            # the base parts or single support hinges, so rule the ring
            # out wholesale when some target set fits neither.
            hinge_singles = {frozenset({h}) for h in order}
            if not all(
                any(yset <= pv for pv in base_pvs) or yset in hinge_singles
                for _, yset, _ in pairs
            ):
                continue
            for slots in _weak_compositions(6 - k, k):
                ring: list[tuple[frozenset[int], frozenset[int]]] = []
                for i in range(k):
                    ring.append((base_pvs[i], base_parts[i]))
                    hinge = order[(i + 1) % k]
                    for _ in range(slots[i]):
                        ring.append((frozenset({hinge}), frozenset()))
                hit = _tricoloured_arrangements(o, pairs, ring, caps, counter)
                if hit:
                    return hit
    return None


_COLOUR_PATTERNS = (frozenset({0, 1, 2}), frozenset({0, 2, 4}))


def _tricoloured_arrangements(
    o: BiasedGraph,
    pairs: list[tuple[int, frozenset[int], tuple[int, ...]]],
    ring: list[tuple[frozenset[int], frozenset[int]]],
    caps: Caps,
    counter: _Counter,
) -> _Hit | None:
    g = o.graph
    seen: set[tuple[frozenset[int], ...]] = set()
    for cycle in (ring, ring[::-1]):
        for shift in range(6):
            arrangement = cycle[shift:] + cycle[:shift]
            pv6 = tuple(pv for pv, _ in arrangement)
            if pv6 in seen:
                continue
            seen.add(pv6)
            admissible: list[tuple[int, ...]] = []
            for x, yset, _ in pairs:
                spots = tuple(
                    i
                    for i in range(6)
                    if x in pv6[i] and yset <= pv6[(i + 3) % 6]
                )
                if not spots:
                    break
                admissible.append(spots)
            if len(admissible) != 3:
                continue
            hinges6: list[int] = []
            ok = True
            for i in range(6):
                meet = pv6[i] & pv6[(i + 1) % 6]
                if len(meet) != 1:
                    ok = False
                    break
                hinges6.append(next(iter(meet)))
            if not ok:
                continue
            pe6 = tuple(pe for _, pe in arrangement)
            for colours in _COLOUR_PATTERNS:
                positions = sorted(colours)
                for perm in permutations(range(3)):
                    if any(
                        positions[slot] not in admissible[perm[slot]]
                        for slot in range(3)
                    ):
                        continue
                    xs6: list[int | None] = [None] * 6
                    ys6: list[frozenset[int] | None] = [None] * 6
                    es6: list[tuple[int, ...] | None] = [None] * 6
                    for slot, i in enumerate(positions):
                        x, yset, edges = pairs[perm[slot]]
                        xs6[i] = x
                        ys6[i] = yset
                        es6[i] = edges
                    counter.bump()
                    d = FamilyDescriptor(
                        "Tricoloured",
                        g,
                        {
                            "part_vertices": pv6,
                            "part_edges": pe6,
                            "hinges": tuple(hinges6),
                            "I": colours,
                            "xs": tuple(xs6),
                            "ysets": tuple(ys6),
                            "esets": tuple(es6),
                        },
                    )
                    cert = verify_family(o, d, caps)
                    if cert.passed:
                        return d, cert, None
    return None


oracle_detect_tricoloured = _detect_tricoloured


# ---------------------------------------------------------------------------
# Tricoloured search before its degree gates and slot masks
#
# The ring-layout search as it stood before it returned at once on an input
# that is not 2-connected, dropped chord choices by degree, fitted chords to
# rings by slot bitmasks and remembered bias-clause verdicts, copied
# unchanged but for its names.  It builds every padded ring of a layout and
# tests each chord class on it with set operations.
# ---------------------------------------------------------------------------

def _layout_detect_tricoloured(o: BiasedGraph, caps: Caps, msets: tuple[frozenset[int], ...]) -> _Hit | None:
    """Six-part ring with three antipodal chord classes.

    Candidates are anchored on the three chord sources: the search
    picks three vertices, a target set with one chord edge per target
    at each, and then fits the remaining edges into a ring of parts.
    Chords ending on another chosen source are not considered.

    The target sets must be pairwise disjoint.  ``verify_family``
    flattens the attachment order (x0, x1, x2, Y0, Y1, Y2), or
    (x0, Y4, x2, Y0, x4, Y2) for the alternating colours, and rejects
    every candidate in which a vertex repeats there, whatever the ring.
    The sources are distinct and no target is a source, so a repeat can
    only come from two target sets that meet.

    Each chord triple is met in every orientation, and all of them leave
    the same ring edges: ``cores`` keeps, for this call, the ring layouts
    of each 2-connected ring edge set, so every ring is cut into parts
    once.
    """
    g = o.graph
    if g.n < 4 or any(g.is_loop(e) for e in g.edge_ids):
        return None
    counter = _Counter(caps, "tricoloured search")
    cores: dict[frozenset[int], tuple[OracleRingLayout, ...]] = {}
    for trip in combinations(sorted(g.vertex_set), 3):
        tset = set(trip)
        stars: list[dict[int, list[int]]] = []
        for x in trip:
            by_target: dict[int, list[int]] = {}
            for e in sorted(g.incident_edges(x)):
                far = g.other_end(e, x)
                if far not in tset:
                    by_target.setdefault(far, []).append(e)
            if not by_target:
                stars = []
                break
            stars.append(by_target)
        if not stars:
            continue
        for choice in product(*(_layout_star_choices(s) for s in stars)):
            counter.bump()
            if any(not a[0].isdisjoint(b[0]) for a, b in combinations(choice, 2)):
                continue
            chords = {e for _, es in choice for e in es}
            ring_edges = g.edge_id_set - chords
            if ring_edges not in cores:
                core = g.subgraph(ring_edges, g.vertex_set)
                cores[ring_edges] = _layout_ring_layouts(core) if is_two_connected(core) else ()
            pairs = [(x, targets, edges) for x, (targets, edges) in zip(trip, choice)]
            for layout in cores[ring_edges]:
                counter.bump()
                # Every target set must land inside one ring part.
                if not all(layout.fits(yset) for _, yset, _ in pairs):
                    continue
                for ring in layout.rings:
                    hit = _layout_tricoloured_arrangements(o, pairs, ring, caps, counter)
                    if hit:
                        return hit
    return None


def _layout_star_choices(by_target: dict[int, list[int]]) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """Every (targets, one edge per target) choice for one chord source,
    by target subsets in sorted order; the edges follow the sorted
    targets."""
    targets = sorted(by_target)
    out: list[tuple[frozenset[int], tuple[int, ...]]] = []
    for r in range(1, len(targets) + 1):
        for ts in combinations(targets, r):
            tset = frozenset(ts)
            for es in product(*(sorted(by_target[t]) for t in ts)):
                out.append((tset, es))
    return out


# A six-part ring: part vertex sets, part edge sets, and the hinge where
# part i meets part i + 1.
_OracleRing = tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...], tuple[int, ...]]


@dataclass(frozen=True)
class OracleRingLayout:
    """Three to six parts of a ring core, ``parts[i]`` from
    ``hinges[i - 1]`` to ``hinges[i]``, with every six-part ring they
    make once single-hinge parts pad them out."""

    hinges: tuple[int, ...]
    parts: tuple[frozenset[int], ...]
    part_vertices: tuple[frozenset[int], ...]

    def fits(self, yset: frozenset[int]) -> bool:
        # Parts are the base parts or single hinges.
        return any(yset <= pv for pv in self.part_vertices) or (
            len(yset) == 1 and yset <= set(self.hinges)
        )

    @cached_property
    def rings(self) -> tuple[_OracleRing, ...]:
        k = len(self.parts)
        out: list[_OracleRing] = []
        for slots in _weak_compositions(6 - k, k):
            pvs: list[frozenset[int]] = []
            pes: list[frozenset[int]] = []
            for i in range(k):
                pvs += [self.part_vertices[i]] + [frozenset({self.hinges[i]})] * slots[i]
                pes += [self.parts[i]] + [frozenset()] * slots[i]
            meets = [pvs[i] & pvs[(i + 1) % 6] for i in range(6)]
            if all(len(m) == 1 for m in meets):
                out.append((tuple(pvs), tuple(pes), tuple(min(m) for m in meets)))
        return tuple(out)


def _layout_ring_layouts(core: MultiGraph) -> tuple[OracleRingLayout, ...]:
    """Every ring of three to six parts in a 2-connected core, smallest
    and least hinge set first: each 3- to 6-subset of a polygon's hinges
    in cyclic order, the pieces between consecutive chosen hinges merged
    into one part."""
    ends = core.edge_map
    out: list[OracleRingLayout] = []
    for poly in _rings(core).polygons:
        k = len(poly.hinges)
        for size in range(3, min(k, 6) + 1):
            for chosen in combinations(range(k), size):
                parts = tuple(
                    frozenset().union(
                        *(poly.pieces[(a + 1 + t) % k] for t in range((b - a) % k))
                    )
                    for a, b in zip(chosen[-1:] + chosen[:-1], chosen)
                )
                out.append(
                    OracleRingLayout(
                        tuple(poly.hinges[i] for i in chosen),
                        parts,
                        tuple(frozenset(v for e in pe for v in ends[e]) for pe in parts),
                    )
                )
    out.sort(key=lambda lay: (len(lay.hinges), sorted(lay.hinges)))
    return tuple(out)


def _layout_tricoloured_arrangements(
    o: BiasedGraph,
    pairs: list[tuple[int, frozenset[int], tuple[int, ...]]],
    ring: _OracleRing,
    caps: Caps,
    counter: _Counter,
) -> _Hit | None:
    g = o.graph
    pvs, pes, hinges = ring
    # Ring indices where each chord class may sit: x in the part, its
    # targets in the antipodal one.
    spots: list[list[int]] = []
    for x, yset, _ in pairs:
        spots.append([i for i in range(6) if x in pvs[i] and yset <= pvs[(i + 3) % 6]])
        if not spots[-1]:
            return None
    found = sorted(p for at in product(*spots) for p in _PLACEMENTS.get(at, ()))
    for _, part_at, hinge_at, colours, perm in found:
        positions = sorted(colours)
        pe6 = tuple(pes[i] for i in part_at)
        xs6: list[int | None] = [None] * 6
        ys6: list[frozenset[int] | None] = [None] * 6
        es6: list[tuple[int, ...] | None] = [None] * 6
        for slot, i in enumerate(positions):
            x, yset, edges = pairs[perm[slot]]
            xs6[i] = x
            ys6[i] = yset
            es6[i] = edges
        counter.bump()
        if not _layout_tricoloured_bias_holds(o, pe6, es6, positions, caps):
            continue
        d = FamilyDescriptor(
            "Tricoloured",
            g,
            {
                "part_vertices": tuple(pvs[i] for i in part_at),
                "part_edges": pe6,
                "hinges": tuple(hinges[i] for i in hinge_at),
                "I": colours,
                "xs": tuple(xs6),
                "ysets": tuple(ys6),
                "esets": tuple(es6),
            },
        )
        cert = verify_family(o, d, caps)
        if cert.passed:
            return d, cert, None
    return None


def _layout_tricoloured_bias_holds(
    o: BiasedGraph,
    pe6: tuple[frozenset[int], ...],
    es6: list[tuple[int, ...] | None],
    positions: list[int],
    caps: Caps,
) -> bool:
    """The bias clauses ``verify_family`` checks on a Tricoloured
    candidate, read off the input's own cycles: a chord pair of one
    colour closes only balanced cycles through the antipodal part, a
    pair of two colours only unbalanced ones through their four parts."""
    for i in positions:
        for a, b in combinations(es6[i], 2):
            if not all(o.balance(c) for c in cycles_with(o.graph, {a, b}, pe6[(i + 3) % 6], caps)):
                return False
    for i, j in combinations(positions, 2):
        within = pe6[i] | pe6[j] | pe6[(i + 3) % 6] | pe6[(j + 3) % 6]
        for a in es6[i]:
            for b in es6[j]:
                if any(o.balance(c) for c in cycles_with(o.graph, {a, b}, within, caps)):
                    return False
    return True


oracle_layout_tricoloured = _layout_detect_tricoloured


# ---------------------------------------------------------------------------
# FatTriangle, CrissCross and PPSigned searches before their balance filters
#
# The three detectors as they stood before they tested any bias clause of
# their own, copied unchanged: every candidate they build goes to
# verify_family.
# ---------------------------------------------------------------------------


def _detect_fat_triangle(o: BiasedGraph, caps: Caps, msets: tuple[frozenset[int], ...]) -> _Hit | None:
    """Three corners whose pairwise parallel classes carry the residual edges."""
    g = o.graph
    if g.n < 3 or any(g.is_loop(e) for e in g.edge_ids):
        return None
    residuals = [g.edge_id_set - m for m in msets]
    for a, b, c in combinations(sorted(g.vertex_set), 3):
        fab = frozenset(g.edges_between(a, b))
        fbc = frozenset(g.edges_between(b, c))
        fca = frozenset(g.edges_between(c, a))
        if not (fab and fbc and fca):
            continue
        full = fab | fbc | fca
        fats = {full}
        for r in residuals:
            if r and r <= full and r & fab and r & fbc and r & fca:
                fats.add(frozenset(r))
        for fat in sorted(fats, key=lambda s: (len(s), sorted(s))):
            d = FamilyDescriptor(
                "FatTriangle",
                g,
                {"v": (a, b, c), "f12": fat & fab, "f23": fat & fbc, "f31": fat & fca},
            )
            cert = verify_family(o, d, caps)
            if cert.passed:
                return d, cert, None
    return None


def _detect_criss_cross(o: BiasedGraph, caps: Caps, msets: tuple[frozenset[int], ...]) -> _Hit | None:
    """Degree-4 apex with two crossing chords over a planar rest."""
    g = o.graph
    for w in sorted(g.vertex_set):
        spokes = sorted(g.incident_edges(w))
        if len(spokes) != 4 or any(g.is_loop(e) for e in spokes):
            continue
        ends = [g.other_end(e, w) for e in spokes]
        if len(set(ends)) != 4:
            continue
        for (p, q), (r, s) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
            for f0 in sorted(g.edges_between(ends[p], ends[q])):
                for f1 in sorted(g.edges_between(ends[r], ends[s])):
                    for idx in ((p, r, q, s), (p, s, q, r)):
                        es = tuple(spokes[i] for i in idx)
                        us = tuple(ends[i] for i in idx)
                        h = g.edge_id_set - set(es) - {f0, f1}
                        d = FamilyDescriptor(
                            "CrissCross",
                            g,
                            {
                                "h_edges": frozenset(h),
                                "u": us,
                                "w": w,
                                "e": es,
                                "f": (f0, f1),
                            },
                        )
                        cert = verify_family(o, d, caps)
                        if cert.passed:
                            return d, cert, None
    return None


def _detect_pp_signed(o: BiasedGraph, caps: Caps, msets: tuple[frozenset[int], ...]) -> _Hit | None:
    """Spanning 2-connected base with all residual edges on one face pairing."""
    g = o.graph
    for m in msets:
        sub = g.subgraph(m)
        if sub.vertex_set != g.vertex_set or not is_two_connected(sub):
            continue
        pairing = oracle_pairing_search(o, m, caps)
        if pairing is None:
            continue
        d = FamilyDescriptor(
            "PPSigned",
            g,
            {
                "xs": tuple(x for _, x, _ in pairing),
                "ys": tuple(y for _, _, y in pairing),
                "cross": tuple(e for e, _, _ in pairing),
            },
        )
        cert = verify_family(o, d, caps)
        if cert.passed:
            return d, cert, None
    return None


oracle_detect_fat_triangle = _detect_fat_triangle
oracle_detect_criss_cross = _detect_criss_cross
oracle_detect_pp_signed = _detect_pp_signed


# ---------------------------------------------------------------------------
# Canonical cycle keys and the theta check before their fast paths
#
# Both copied unchanged: from_walk tried all 2L rotations and orientations
# of a walk, and validate_theta scanned every theta of the graph.
# ---------------------------------------------------------------------------


def oracle_cycle_from_walk(edge_seq: Sequence[int], vertex_seq: Sequence[int]) -> Cycle:
    L = len(edge_seq)
    if L == 0 or L != len(vertex_seq):
        raise GraphError("cycle walk must pair one vertex with each edge")
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    seqs = [(tuple(edge_seq), tuple(vertex_seq))]
    rev_e = tuple(edge_seq[L - 1 - i] for i in range(L))
    rev_v = tuple(vertex_seq[(L - i) % L] for i in range(L))
    seqs.append((rev_e, rev_v))
    for es, vs in seqs:
        for r in range(L):
            cand = (es[r:] + es[:r], vs[r:] + vs[:r])
            if best is None or cand < best:
                best = cand
    assert best is not None
    return Cycle(best[0], best[1])


def oracle_validate_theta(
    g: MultiGraph,
    balanced: Iterable[Cycle],
    caps: Caps = DEFAULT_CAPS,
) -> tuple[ThetaSubgraph, ...]:
    """Violating thetas (those with exactly 2 balanced cycles); empty = ok."""
    bal = set(balanced)
    for c in bal:
        if not c.edge_set <= g.edge_id_set:
            raise BiasError("balanced set mentions a cycle outside the graph")
    out = []
    for t in enumerate_theta_subgraphs(g, caps=caps):
        if sum(1 for c in t.cycles if c in bal) == 2:
            out.append(t)
    return tuple(out)


# ---------------------------------------------------------------------------
# The linkage search before the 2-linkage stages
#
# Copied unchanged: every s1-t1 path in depth-first order until an s2-t2
# path avoids one, then the witness search over all deleted sets.
# ---------------------------------------------------------------------------


def _vertex_paths(
    g: MultiGraph, s: int, t: int, banned: frozenset[int] = frozenset()
) -> Iterator[tuple[int, ...]]:
    """All simple (s, t) vertex paths avoiding `banned`, in depth-first order."""
    live = g.vertex_set - banned
    if s not in live or t not in live:
        return
    path = [s]
    on_path = {s}

    def step() -> Iterator[tuple[int, ...]]:
        here = path[-1]
        if here == t:
            yield tuple(path)
            return
        for nxt in sorted(g.neighbors(here)):
            if nxt in on_path or nxt not in live:
                continue
            path.append(nxt)
            on_path.add(nxt)
            yield from step()
            path.pop()
            on_path.remove(nxt)

    yield from step()


def _search_linkage(
    g: MultiGraph, s1: int, t1: int, s2: int, t2: int
) -> Linkage | None:
    for p1 in _vertex_paths(g, s1, t1, banned=frozenset({s2, t2})):
        edges2 = g.path_between(s2, t2, avoid=set(p1))
        if edges2 is None:
            continue
        verts2 = _walk_vertices(g, s2, edges2)
        return Linkage(
            VertexPath.from_vertices(g, p1), VertexPath(verts2, tuple(edges2))
        )
    return None


def oracle_find_linkage(
    g: MultiGraph, s1: int, t1: int, s2: int, t2: int, caps: Caps = DEFAULT_CAPS
) -> Linkage | ThreePlanarWitness:
    """A verified linkage, or a verified witness for order (s1, s2, t1, t2).

    Exactly one of the two outcomes exists.  The graph must be connected
    (on a disconnected graph the face-order certificate loses meaning).
    """
    terms = (s1, t1, s2, t2)
    unknown = set(terms) - g.vertex_set
    if unknown:
        raise LinkageError(f"unknown vertices {sorted(unknown)}")
    if len(set(terms)) != 4:
        raise LinkageError("terminals must be four distinct vertices")
    if not g.is_connected():
        raise LinkageError("graph must be connected")
    link = _search_linkage(g, s1, t1, s2, t2)
    if link is not None:
        bad = verify_linkage(g, link, s1, t1, s2, t2)
        if bad:
            raise LinkageError(f"internal: found linkage fails checks {bad}")
        return link
    w = find_three_planar(g, (s1, s2, t1, t2), caps)
    if w is None:
        raise LinkageError("internal: neither linkage nor witness found")
    bad = verify_witness(g, w, (s1, s2, t1, t2))
    if bad:
        raise LinkageError(f"internal: witness fails checks {bad}")
    return w


# ---------------------------------------------------------------------------
# Embeddings by exhaustive rotation enumeration
# ---------------------------------------------------------------------------


def oracle_rotation_systems(g: MultiGraph) -> Iterator[RotationSystem]:
    """Every rotation system of g: all cyclic dart orders at every vertex."""
    per_vertex: list[list[tuple[tuple[int, int], ...]]] = []
    for v in g.vertices:
        darts = sorted((e, side) for e in g.incident_edges(v) for side in (0, 1) if g.endpoints(e)[side] == v)
        if len(darts) <= 2:
            per_vertex.append([tuple(darts)])
        else:
            per_vertex.append([(darts[0], *p) for p in permutations(darts[1:])])
    for combo in product(*per_vertex):
        yield RotationSystem(tuple(zip(g.vertices, combo)))


def oracle_planar_faces(g: MultiGraph) -> list[tuple[RotationSystem, list[tuple[tuple, tuple[int, ...]]]]]:
    """(rotation, [(face, face walk)]) for every rotation passing the Euler check."""
    out = []
    for rot in oracle_rotation_systems(g):
        if rot.is_planar(g):
            out.append((rot, [(f, rot.face_walk(g, f)) for f in rot.faces()]))
    return out


def oracle_find_embedding(
    g: MultiGraph,
    order: Sequence[int] = (),
    facial_triangles: Sequence[frozenset[int]] = (),
    planar: list | None = None,
) -> OrderedPlanarEmbedding | None:
    """The first planar rotation with `order` on a face and every triangle a 3-dart face.

    `planar` may pass `oracle_planar_faces(g)` in, to share it across queries.
    """
    seq = collapse_cyclic([v for v in order if g.incident_edges(v)])
    for rot, faces in oracle_planar_faces(g) if planar is None else planar:
        if not all(any(len(f) == 3 and set(w) == set(t) for f, w in faces) for t in facial_triangles):
            continue
        if not faces:
            return OrderedPlanarEmbedding(rot, (), seq)
        for f, w in faces:
            if walk_contains_order(w, seq):
                return OrderedPlanarEmbedding(rot, f, seq)
    return None


# ---------------------------------------------------------------------------
# The boundary pairing search without its mirror-image pruning
# ---------------------------------------------------------------------------


def oracle_pairing_search(
    o: BiasedGraph, base_edges: frozenset[int], caps: Caps
) -> tuple[tuple[int, int, int], ...] | None:
    """Orient and order the residual edges onto one face of the base.

    Returns ``(edge, x, y)`` triples such that (x_1..x_m, y_1..y_m) is
    realized on a common face of the base, or None.
    """
    g = o.graph
    residual = sorted(g.edge_id_set - base_edges)
    if not residual or any(g.is_loop(e) for e in residual):
        return None
    base_sub = g.subgraph(base_edges, g.vertex_set)
    counter = _Counter(caps, "planar boundary pairing search")
    m = len(residual)
    first = residual[0]
    for perm in permutations(residual[1:]):
        order = (first, *perm)
        for bits in range(1 << m):
            counter.bump()
            xs: list[int] = []
            ys: list[int] = []
            for i, e in enumerate(order):
                u, v = g.endpoints(e)
                if bits >> i & 1:
                    u, v = v, u
                xs.append(u)
                ys.append(v)
            seq = collapse_cyclic((*xs, *ys))
            if len(set(seq)) != len(seq):
                continue
            if ordered_planarity(base_sub, seq) is not None:
                return tuple(zip(order, xs, ys))
    return None


# ---------------------------------------------------------------------------
# Ordered planarity by networkx's planarity test
# ---------------------------------------------------------------------------
# The library's `ordered_planarity` as it was when H was an ``nx.Graph`` and
# ``nx.check_planarity`` embedded it, unchanged but for the names.


def _oracle_shared_pairs(h: "nx.Graph", pair: tuple[int, int], claws: list[int], need: int) -> list[tuple] | None:
    """`need` disjoint pairs of claws that can face one edge of `pair` from its two sides.

    The bridges of {a, b} in H can be permuted and flipped freely around a
    and b.  A bridge holds at most two of the pair's claws, one per outer
    side, and two claws share an edge when their bridges stand side by side
    with the edge between.  The chain of a one-claw bridge, every two-claw
    bridge, another one-claw bridge, then the other one-claw bridges two by
    two has the most such links of any arrangement (it closes into a ring
    only when no other bridge needs a gap), and any prefix of its links is
    realisable, so None means no arrangement serves every claw.
    """
    at_a, at_b = set(h[pair[0]]), set(h[pair[1]])
    comp_of: dict[object, int] = {}
    free = 0  # claw-free bridges of {a, b}
    for i, comp in enumerate(nx.connected_components(h.subgraph(n for n in h if n not in pair))):
        comp_of.update(dict.fromkeys(comp, i))
        free += bool(comp & at_a and comp & at_b and all(("x", c) not in comp for c in claws))
    groups: dict[int, list[int]] = {}
    for c in claws:
        groups.setdefault(comp_of[("x", c)], []).append(c)
    if any(len(gp) > 2 for gp in groups.values()):
        return None
    ones = [gp[0] for gp in groups.values() if len(gp) == 1]
    chain = ones[:1] + [c for gp in groups.values() if len(gp) == 2 for c in gp] + ones[1:2]
    links = [(x, y) for x, y in zip(chain, chain[1:]) if comp_of[("x", x)] != comp_of[("x", y)]]
    links += list(zip(ones[2::2], ones[3::2]))
    if not ones and not free:
        links.append((chain[-1], chain[0]))
    return links[:need] if len(links) >= need else None


def _oracle_gadget_graph(
    g: MultiGraph, seq: tuple[int, ...], triangles: Sequence[tuple[int, ...]]
) -> tuple["nx.Graph", dict, dict] | None:
    """H, the token of each (claw, pair) and the edges each token stands for.

    A triangle face uses one side of one edge of each of its pairs.  A pair
    with k triangles and p parallel edges trades its support edge for
    tokens: vertices of H joined to both ends and to the claws they serve.
    With k <= p each claw gets a private token, the last one carrying the
    spare edges; an edge no triangle uses can always be moved beside
    another, so this loses nothing.  With k > p, k - p tokens are shared
    by two claws each (see `_oracle_shared_pairs`), and None means they cannot be.
    A claw is then the hub of a rigid wheel on its corners and tokens, and
    a shared token the hub of a rigid W4 that puts its two claws on
    opposite sides of the edge.
    """
    on_pair: dict[tuple[int, int], list[int]] = {}
    for i, tri in enumerate(triangles):
        for u, v in itertools.combinations(tri, 2):
            on_pair.setdefault((u, v), []).append(i)
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(p for p in g.simple_pairs() if p not in on_pair)
    if len(seq) < 3:
        h.add_edges_from((("w", 0), v) for v in seq)
    else:
        h.add_edges_from((("w", i), u) for i, v in enumerate(seq) for u in (v, ("w", (i + 1) % len(seq))))
    for i, tri in enumerate(triangles):
        h.add_edges_from((("x", i), v) for v in tri)
    served: dict[tuple[int, int], list[tuple]] = {}
    for pair, claws in on_pair.items():
        need = len(claws) - len(g.edges_between(*pair))
        shared = _oracle_shared_pairs(h, pair, claws, need) if need > 0 else []
        if shared is None:
            return None
        served[pair] = shared + [(c,) for c in claws if not any(c in s for s in shared)]
    token: dict[tuple[int, tuple[int, int]], tuple] = {}
    copies: dict[tuple, tuple[int, ...]] = {}
    for pair, groups in served.items():
        es = g.edges_between(*pair)
        for j, group in enumerate(groups):
            tok = ("t", *pair, j)
            copies[tok] = es[j:] if j == len(groups) - 1 else es[j : j + 1]
            h.add_edges_from((tok, v) for v in (*pair, *(("x", c) for c in group)))
            token.update({(c, pair): tok for c in group})
    return h, token, copies


def _oracle_read_back(
    g: MultiGraph, h: "nx.Graph", ring: dict, triangles: Sequence[tuple[int, ...]], token: dict, copies: dict
) -> RotationSystem | None:
    """A dart rotation of g from H's rotation, or None if H's planarity misled.

    Each claw x sees its triangle's corners in some cyclic order.  For
    consecutive corners u, w the face u-x-w must be a triangle: at u the uw
    token must directly precede x, and at w directly follow it.  In H only
    blocks hanging at u alone can sit between them (the token and x are
    joined, and both see only the triangle), so `_oracle_close_corners` moves
    them out.  Deleting the closed claws and the wheel then leaves every
    triangle as a face.  Loops go in a corner no triangle needs.
    """
    succ_at: dict[int, dict] = {}  # the entry each entry must be followed by, at each vertex
    for i, tri in enumerate(triangles):
        x = ("x", i)
        cyc = [u for u in ring[x] if isinstance(u, int)]
        for u, w in zip(cyc, cyc[1:] + cyc[:1]):
            tok = token[i, (u, w) if u < w else (w, u)]
            for at, before, after in ((u, tok, x), (w, x, tok)):
                if succ_at.setdefault(at, {}).setdefault(before, after) != after:
                    raise GraphError("internal: two claws claim one side of a shared edge")
    darts: dict[int, list[Dart]] = {}
    for v in g.vertices:
        items = list(ring.get(v, ()))
        loops = g.loops_at(v)
        if v in succ_at:
            items = _oracle_close_corners(v, items, succ_at[v], h, bool(loops))
            if items is None:
                return None
        if loops:
            k = next((k for k, t in enumerate(items) if t not in succ_at.get(v, {}).values()), len(items))
            items[k:k] = [("loops",)]
        out: list[Dart] = []
        for t in items:
            if t == ("loops",):
                out.extend((e, side) for e in loops for side in (1, 0))
            elif isinstance(t, int) or t[0] == "t":
                es, low = (g.edges_between(v, t), v < t) if isinstance(t, int) else (copies[t], v == t[1])
                for e in es if low else reversed(es):
                    out.append((e, 0 if g.endpoints(e)[0] == v else 1))
        darts[v] = out
    return RotationSystem.from_map(darts)


def _oracle_close_corners(v: int, items: list, succ: dict, h: "nx.Graph", loops: bool) -> list | None:
    """`items` with every entry directly followed by its `succ`, or None if no embedding exists.

    Blocks (components of H - v) found between an entry and its successor
    move, in their old cyclic order cut where no successor is due, to just
    before the first entry of that entry's chain: a corner no triangle
    needs.  If the successors close a ring, its triangles fill every corner
    at v, so anything else at v, a loop included, leaves no embedding.
    """
    pred = {b: a for a, b in succ.items()}

    def first(a):  # the first entry of a's chain, None on a ring
        for _ in range(len(pred) + 1):
            if a not in pred:
                return a
            a = pred[a]
        return None

    def holds(its: list) -> bool:
        return all(its[(its.index(a) + 1) % len(its)] == b for a, b in succ.items())

    if any(first(a) is None for a in succ):
        return items if len(succ) == len(items) and not loops and holds(items) else None
    comp: dict[object, int] = {}
    for _ in range(len(items) + 1):
        if holds(items):
            return items
        if not comp:
            for i, c in enumerate(nx.connected_components(h.subgraph(n for n in h if n != v))):
                comp.update(dict.fromkeys(c, i))
        a, b = next((a, b) for a, b in succ.items() if items[(items.index(a) + 1) % len(items)] != b)
        i, j = items.index(a), items.index(b)
        moving = {comp[t] for t in (items[i + 1 : j] if i < j else items[i + 1 :] + items[:j])}
        if moving & {comp[a], comp[b]}:
            raise GraphError(f"internal: a corner at vertex {v} holds more than hanging blocks")
        moved = [t for t in items if comp[t] in moving]
        cut = next((k for k in range(len(moved)) if succ.get(moved[k - 1]) != moved[k]), 0)
        items = [t for t in items if comp[t] not in moving]
        k = items.index(first(a))
        items[k:k] = moved[cut:] + moved[:cut]
    raise GraphError(f"internal: corners at vertex {v} do not close")


def oracle_ordered_planarity(
    g: MultiGraph,
    order: OrderSpec = (),
    facial_triangles: Sequence[frozenset[int]] = (),
) -> OrderedPlanarEmbedding | None:
    """A planar embedding of g with `order` on a common face, or None.

    Set entries in the order stand for their members in any consecutive
    arrangement.  Each vertex set {a, b, c} in `facial_triangles` must
    bound a face of three darts.  None means no embedding does both.

    Each resolved order costs one planarity test of a gadget graph H: the
    simple support, a wheel pinned to the order, and a claw vertex joined
    to each triangle's corners (see `_oracle_gadget_graph`).  A claw splits its
    side of the triangle into pockets, each attached at the ends of one
    triangle edge only, so redrawing the edges between pockets and claw
    makes the triangle a face: H is planar exactly when the embedding
    exists, except where `_oracle_read_back` proves otherwise (triangles that fill
    every corner at a vertex with another dart).  An order of at most three
    vertices inside a required triangle is realised by that triangle's
    face and gets no wheel, which could make H nonplanar (K4 with its
    triangle {0, 1, 2} would become K3,3).  The faces the read-back claims
    are checked: a miss is an internal GraphError, never a fallback.
    """
    triangles = sorted({tuple(sorted(t)) for t in facial_triangles})
    if any(len(t) != 3 for t in triangles):
        raise GraphError("a facial triangle needs three distinct vertices")
    if g.m == 0:
        flat = [v for e in order for v in ((e,) if isinstance(e, int) else sorted(e))]
        _order_component_ok(g, flat)
        rot0 = RotationSystem.from_map({v: [] for v in g.vertices})
        return OrderedPlanarEmbedding(rot0, (), ()) if not triangles else None
    for raw in _resolve_orders(order):
        seq = _effective_seq(g, raw)
        inside = len(set(seq)) <= 3 and any(set(seq) <= set(t) for t in triangles)
        built = _oracle_gadget_graph(g, () if inside else seq, triangles)
        if built is None:
            continue
        h, token, copies = built
        planar, emb = nx.check_planarity(h)
        rot = _oracle_read_back(g, h, emb.get_data(), triangles, token, copies) if planar else None
        if rot is None:
            continue
        faces = [(f, rot.face_walk(g, f)) for f in rot.faces()]
        for t in triangles:
            if not any(len(f) == 3 and set(walk) == set(t) for f, walk in faces):
                raise GraphError(f"internal: read-back misses facial triangle {t}")
        face = next((f for f, walk in faces if walk_contains_order(walk, seq)), None)
        if face is None:
            raise GraphError(f"internal: read-back misses the order {seq}")
        return OrderedPlanarEmbedding(rot, face, seq)
    return None
