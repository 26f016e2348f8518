"""Independent brute-force oracles used to pin expected values.

Everything here works by exhaustive subset or path enumeration and shares no
search logic with the library: cycles come from 2-regularity checks over all
edge subsets or from plain path extension, thetas from internally disjoint
path triples, linkages from all simple path pairs, vertex cuts and
2-connectivity from the vertex-subset cut scan, rings from the hinge-subset
scan.  The exceptions are earlier versions of the library's own code, kept
without their fast paths: the explicit core of a peel, the maximal balanced
sets, the Tricoloured detector, the canonical cycle key, the theta check and
the linkage search at the end.
"""

from __future__ import annotations

import itertools
import random
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

from tanglekit.bias import BiasedGraph, BiasError, make_explicit
from tanglekit.classify import _Counter, _Hit, _weak_compositions
from tanglekit.families import FamilyDescriptor, verify_family
from tanglekit.graph import (
    Cycle,
    GraphError,
    MultiGraph,
    ThetaSubgraph,
    VertexCut,
    bridges_of_cut,
    enumerate_theta_subgraphs,
    is_two_connected,
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
