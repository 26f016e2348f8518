"""Planar embeddings of multigraphs with face-order constraints.

A rotation system lists the darts (edge ends) around each vertex; faces are
the orbits of "next dart after the twin".  An embedding is planar when every
component satisfies Euler's formula.  The central operation asks whether a
graph embeds in the plane with given vertices on a common face in a given
circular order; entries of the order may also be sets, whose members must
appear consecutively in any internal order.  Given vertex triangles may also
be required to bound faces.

Each resolved order costs one planarity test of the simple support graph
with gadgets attached: a wheel pinned to the order and a claw vertex on each
required triangle.  The embedding found is read back onto the multigraph,
with parallel edges and loops placed beside their partners, and the faces it
claims are checked before it is returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import networkx as nx

from .graph import GraphError, MultiGraph

Dart = tuple[int, int]  # (edge id, end index 0/1)

OrderEntry = int | frozenset[int]
OrderSpec = Sequence[OrderEntry]


def _dart_tail(g: MultiGraph, d: Dart) -> int:
    return g.endpoints(d[0])[d[1]]


def _dart_twin(d: Dart) -> Dart:
    return (d[0], 1 - d[1])


def _darts_at(g: MultiGraph, v: int) -> tuple[Dart, ...]:
    out: list[Dart] = []
    for e in g.incident_edges(v):
        a, b = g.endpoints(e)
        if a == v:
            out.append((e, 0))
        if b == v:
            out.append((e, 1))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Rotation systems and faces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic dart order around each vertex."""

    rotations: tuple[tuple[int, tuple[Dart, ...]], ...]

    @staticmethod
    def from_map(rot: dict[int, Sequence[Dart]]) -> "RotationSystem":
        return RotationSystem(tuple((v, tuple(ds)) for v, ds in sorted(rot.items())))

    @cached_property
    def rotation_map(self) -> dict[int, tuple[Dart, ...]]:
        return dict(self.rotations)

    @cached_property
    def _next(self) -> dict[Dart, Dart]:
        nxt: dict[Dart, Dart] = {}
        for _, ds in self.rotations:
            L = len(ds)
            for i, d in enumerate(ds):
                nxt[d] = ds[(i + 1) % L]
        return nxt

    def validate(self, g: MultiGraph) -> list[str]:
        defects: list[str] = []
        seen: set[Dart] = set()
        rmap = self.rotation_map
        if set(rmap) != set(g.vertices):
            defects.append("rotation vertices differ from graph vertices")
            return defects
        for v, ds in self.rotations:
            for d in ds:
                if d in seen:
                    defects.append(f"dart {d} listed twice")
                seen.add(d)
                e, side = d
                if e not in g.edge_id_set or side not in (0, 1):
                    defects.append(f"dart {d} is not a dart of the graph")
                elif _dart_tail(g, d) != v:
                    defects.append(f"dart {d} listed at wrong vertex {v}")
        expect = {d for v in g.vertices for d in _darts_at(g, v)}
        if seen != expect:
            defects.append("rotation does not cover the dart set exactly")
        return defects

    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Face orbits of phi(d) = rotation-successor of the twin of d.

        Each orbit is rotated to start at its least dart; orbits are sorted.
        They are walked once per rotation system and kept.
        """
        return self._faces

    @cached_property
    def _faces(self) -> tuple[tuple[Dart, ...], ...]:
        return _face_orbits(self._next)

    def face_walk(self, g: MultiGraph, face: Sequence[Dart]) -> tuple[int, ...]:
        return tuple(_dart_tail(g, d) for d in face)

    def is_planar(self, g: MultiGraph) -> bool:
        """Euler check V - E + F = 2 on every component with an edge."""
        comp_of: dict[int, int] = {}
        for i, comp in enumerate(g.components()):
            for v in comp:
                comp_of[v] = i
        nv: dict[int, int] = {}
        ne: dict[int, int] = {}
        nf: dict[int, int] = {}
        for v in g.vertices:
            nv[comp_of[v]] = nv.get(comp_of[v], 0) + 1
        for e in g.edge_ids:
            c = comp_of[g.endpoints(e)[0]]
            ne[c] = ne.get(c, 0) + 1
        for face in self.faces():
            c = comp_of[_dart_tail(g, face[0])]
            nf[c] = nf.get(c, 0) + 1
        for c, edges in ne.items():
            if nv[c] - edges + nf.get(c, 0) != 2:
                return False
        return True


def _face_orbits(nxt: dict[Dart, Dart]) -> tuple[tuple[Dart, ...], ...]:
    seen: set[Dart] = set()
    out: list[tuple[Dart, ...]] = []
    for d0 in sorted(nxt):
        if d0 in seen:
            continue
        orbit: list[Dart] = []
        d = d0
        while True:
            orbit.append(d)
            seen.add(d)
            d = nxt[_dart_twin(d)]
            if d == d0:
                break
        k = orbit.index(min(orbit))
        out.append(tuple(orbit[k:] + orbit[:k]))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class OrderedPlanarEmbedding:
    """A planar rotation system with a designated face realizing an order."""

    rotation: RotationSystem
    face: tuple[Dart, ...]
    order: tuple[int, ...]  # resolved vertex order (duplicates collapsed)


# ---------------------------------------------------------------------------
# Circular order matching
# ---------------------------------------------------------------------------


def collapse_cyclic(seq: Sequence[int]) -> tuple[int, ...]:
    """Drop cyclically-consecutive duplicates."""
    out = [v for i, v in enumerate(seq) if i == 0 or v != seq[i - 1]]
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


def walk_contains_order(walk: Sequence[int], order: Sequence[int]) -> bool:
    """Is `order` a circular subsequence of circular `walk`?

    Checked in both traversal directions, since embeddings are unoriented.
    """
    order = collapse_cyclic(order)
    if not order:
        return True
    rev = (order[0],) + tuple(reversed(order[1:]))
    return _one_way(walk, order) or _one_way(walk, rev)


def _one_way(walk: Sequence[int], order: Sequence[int]) -> bool:
    """Does `walk`, read round from some occurrence of order[0], contain `order` in sequence?"""
    for start, v in enumerate(walk):
        if v == order[0]:
            rest = iter(tuple(walk[start:]) + tuple(walk[:start]))
            if all(u in rest for u in order):
                return True
    return False


def _resolve_orders(order: OrderSpec) -> Iterator[tuple[int, ...]]:
    """Expand set entries into all vertex orders (duplicates collapsed)."""
    groups = [(e,) if isinstance(e, int) else tuple(sorted(e)) for e in order]
    pools = [[gp] if len(gp) == 1 else sorted(itertools.permutations(gp)) for gp in groups if gp]
    seen: set[tuple[int, ...]] = set()
    for combo in itertools.product(*pools):
        resolved = collapse_cyclic([v for part in combo for v in part])
        if resolved not in seen:
            seen.add(resolved)
            yield resolved


# ---------------------------------------------------------------------------
# The gadget graph: support, order wheel and one claw per facial triangle
# ---------------------------------------------------------------------------


def _shared_pairs(h: "nx.Graph", pair: tuple[int, int], claws: list[int], need: int) -> list[tuple] | None:
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


def _gadget_graph(
    g: MultiGraph, seq: tuple[int, ...], triangles: Sequence[tuple[int, ...]]
) -> tuple["nx.Graph", dict, dict] | None:
    """H, the token of each (claw, pair) and the edges each token stands for.

    A triangle face uses one side of one edge of each of its pairs.  A pair
    with k triangles and p parallel edges trades its support edge for
    tokens: vertices of H joined to both ends and to the claws they serve.
    With k <= p each claw gets a private token, the last one carrying the
    spare edges; an edge no triangle uses can always be moved beside
    another, so this loses nothing.  With k > p, k - p tokens are shared
    by two claws each (see `_shared_pairs`), and None means they cannot be.
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
        shared = _shared_pairs(h, pair, claws, need) if need > 0 else []
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


# ---------------------------------------------------------------------------
# Reading the embedding back
# ---------------------------------------------------------------------------


def _read_back(
    g: MultiGraph, h: "nx.Graph", ring: dict, triangles: Sequence[tuple[int, ...]], token: dict, copies: dict
) -> RotationSystem | None:
    """A dart rotation of g from H's rotation, or None if H's planarity misled.

    Each claw x sees its triangle's corners in some cyclic order.  For
    consecutive corners u, w the face u-x-w must be a triangle: at u the uw
    token must directly precede x, and at w directly follow it.  In H only
    blocks hanging at u alone can sit between them (the token and x are
    joined, and both see only the triangle), so `_close_corners` moves
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
            items = _close_corners(v, items, succ_at[v], h, bool(loops))
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


def _close_corners(v: int, items: list, succ: dict, h: "nx.Graph", loops: bool) -> list | None:
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


# ---------------------------------------------------------------------------
# Ordered planarity
# ---------------------------------------------------------------------------


def _order_component_ok(g: MultiGraph, seq: Sequence[int]) -> None:
    missing = [v for v in seq if v not in g.vertex_set]
    if missing:
        raise GraphError(f"order mentions unknown vertices {sorted(set(missing))}")
    if len(set(seq)) > 1 and sum(1 for c in g.components() if c & set(seq)) > 1:
        raise GraphError("ordered vertices span several components")


def _effective_seq(g: MultiGraph, seq: Sequence[int]) -> tuple[int, ...]:
    """Drop dartless vertices: an isolated point sits in any face anywhere."""
    kept = collapse_cyclic([v for v in seq if g.incident_edges(v)])
    _order_component_ok(g, kept)
    return kept


def ordered_planarity(
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
    to each triangle's corners (see `_gadget_graph`).  A claw splits its
    side of the triangle into pockets, each attached at the ends of one
    triangle edge only, so redrawing the edges between pockets and claw
    makes the triangle a face: H is planar exactly when the embedding
    exists, except where `_read_back` proves otherwise (triangles that fill
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
        built = _gadget_graph(g, () if inside else seq, triangles)
        if built is None:
            continue
        h, token, copies = built
        planar, emb = nx.check_planarity(h)
        rot = _read_back(g, h, emb.get_data(), triangles, token, copies) if planar else None
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


def verify_ordered_embedding(
    g: MultiGraph,
    emb: OrderedPlanarEmbedding,
    order: OrderSpec | None = None,
) -> list[str]:
    """Re-derive everything; empty list means the embedding checks out."""
    defects = emb.rotation.validate(g)
    if defects:
        return defects
    if not emb.rotation.is_planar(g):
        defects.append("rotation system is not planar (Euler check failed)")
    faces = emb.rotation.faces()
    if g.m > 0 and emb.face not in faces:
        defects.append("designated face is not a face of the rotation system")
        return defects
    want: list[tuple[int, ...]]
    if order is None:
        want = [emb.order]
    else:
        want = [_effective_seq(g, raw) for raw in _resolve_orders(order)]
    want = [w for w in want if w]
    if want and g.m > 0:
        walk = emb.rotation.face_walk(g, emb.face)
        if not any(walk_contains_order(walk, seq) for seq in want):
            defects.append("designated face does not realize the order")
    return defects
