"""Planar embeddings of multigraphs with face-order constraints.

A rotation system lists the darts (edge ends) around each vertex; faces are
the orbits of "next dart after the twin".  An embedding is planar when every
component satisfies Euler's formula.  The central operation asks whether a
graph embeds in the plane with given vertices on a common face in a given
circular order; entries of the order may also be sets, whose members must
appear consecutively in any internal order.

The search runs on the simple support graph through a planarity test (the
required order is enforced by attaching a wheel to the designated face),
then parallel edges and loops are reinserted next to their partners.  An
exhaustive rotation-system fallback covers constraint combinations the fast
path cannot express, and verification never trusts the search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import networkx as nx

from .graph import GraphError, MultiGraph
from .limits import Caps, DEFAULT_CAPS, ResourceLimitError

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
        """
        nxt = self._next
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
    L = len(walk)
    n = len(order)
    if n == 1:
        return order[0] in walk
    if L < n:
        return False
    for start in range(L):
        if walk[start] != order[0]:
            continue
        i = start
        ok = True
        for req in order[1:]:
            j = i + 1
            while j <= start + L - 1 and walk[j % L] != req:
                j += 1
            if j > start + L - 1:
                ok = False
                break
            i = j
        if ok:
            return True
    return False


def resolve_orders(order: OrderSpec) -> Iterator[tuple[int, ...]]:
    """Expand set entries into all vertex orders (duplicates collapsed)."""
    groups: list[tuple[int, ...]] = []
    for entry in order:
        if isinstance(entry, int):
            groups.append((entry,))
        else:
            members = tuple(sorted(entry))
            if not members:
                continue
            groups.append(members)
    pools = [
        [g] if len(g) == 1 else sorted(itertools.permutations(g))
        for g in groups
    ]
    seen: set[tuple[int, ...]] = set()
    for combo in itertools.product(*pools):
        seq: list[int] = []
        for part in combo:
            seq.extend(part)
        resolved = collapse_cyclic(seq)
        if resolved not in seen:
            seen.add(resolved)
            yield resolved


# ---------------------------------------------------------------------------
# Exhaustive rotation enumeration (fallback and constraint search)
# ---------------------------------------------------------------------------


def all_rotation_systems(g: MultiGraph, caps: Caps = DEFAULT_CAPS) -> Iterator[RotationSystem]:
    """Every rotation system of g, deterministically; cap-guarded."""
    per_vertex: list[tuple[int, list[tuple[Dart, ...]]]] = []
    total = 1
    for v in g.vertices:
        ds = _darts_at(g, v)
        if len(ds) <= 2:
            per_vertex.append((v, [ds]))
            continue
        head, rest = ds[0], ds[1:]
        options = [(head,) + p for p in itertools.permutations(rest)]
        total *= len(options)
        if total > caps.max_embeddings:
            raise ResourceLimitError("all_rotation_systems", caps.max_embeddings)
        per_vertex.append((v, options))
    verts = [v for v, _ in per_vertex]
    for combo in itertools.product(*(opts for _, opts in per_vertex)):
        yield RotationSystem(tuple(zip(verts, combo)))


# ---------------------------------------------------------------------------
# Wheel-trick fast path
# ---------------------------------------------------------------------------


def _support_graph(g: MultiGraph) -> "nx.Graph":
    sg = nx.Graph()
    sg.add_nodes_from(g.vertices)
    sg.add_edges_from(g.simple_pairs())
    return sg


def _expand_rotation(g: MultiGraph, ring: dict[int, list[int]]) -> RotationSystem:
    """Turn a neighbor rotation of the simple support into a dart rotation.

    Parallel classes hug their representative: ascending edge ids at the
    lower endpoint, descending at the higher, which creates the digon faces.
    Loop dart pairs are appended (twin first), making one-dart inner faces.
    """
    rot: dict[int, list[Dart]] = {}
    for v in g.vertices:
        darts: list[Dart] = []
        for u in ring.get(v, []):
            cls = g.edges_between(v, u)
            ordered = cls if v <= u else tuple(reversed(cls))
            for e in ordered:
                a, _ = g.endpoints(e)
                darts.append((e, 0 if a == v else 1))
        for e in sorted(g.loops_at(v)):
            darts.append((e, 1))
            darts.append((e, 0))
        rot[v] = darts
    return RotationSystem.from_map(rot)


def _wheel_rotation(g: MultiGraph, seq: tuple[int, ...]) -> RotationSystem | None:
    """A planar rotation of g with seq on a common face, or None.

    Realizability of the order is equivalent to planarity of the support
    plus a wheel pinned to the ordered vertices.
    """
    ag = _support_graph(g)
    n = len(seq)
    if n == 1 or n == 2:
        apex = ("w", 0)
        for v in seq:
            ag.add_edge(apex, v)
    elif n >= 3:
        for i in range(n):
            ag.add_edge(("w", i), ("w", (i + 1) % n))
            ag.add_edge(("w", i), seq[i])
    ok, emb = nx.check_planarity(ag)
    if not ok:
        return None
    data = emb.get_data()
    ring = {
        v: [u for u in data.get(v, []) if not isinstance(u, tuple)]
        for v in g.vertices
    }
    return _expand_rotation(g, ring)


# ---------------------------------------------------------------------------
# Ordered planarity
# ---------------------------------------------------------------------------


def _order_component_ok(g: MultiGraph, seq: Sequence[int]) -> None:
    missing = [v for v in seq if v not in g.vertex_set]
    if missing:
        raise GraphError(f"order mentions unknown vertices {sorted(set(missing))}")
    if len(set(seq)) > 1:
        comps = g.components()
        homes = {next(i for i, c in enumerate(comps) if v in c) for v in seq}
        if len(homes) > 1:
            raise GraphError("ordered vertices span several components")


def _effective_seq(g: MultiGraph, seq: Sequence[int]) -> tuple[int, ...]:
    """Drop dartless vertices: an isolated point sits in any face anywhere."""
    kept = collapse_cyclic([v for v in seq if g.incident_edges(v)])
    _order_component_ok(g, kept)
    return kept


def _find_matching_face(
    g: MultiGraph, rot: RotationSystem, seq: tuple[int, ...]
) -> tuple[Dart, ...] | None:
    faces = rot.faces()
    if not seq:
        return faces[0] if faces else ()
    for face in faces:
        if walk_contains_order(rot.face_walk(g, face), seq):
            return face
    return None


def ordered_planarity(
    g: MultiGraph,
    order: OrderSpec = (),
    caps: Caps = DEFAULT_CAPS,
) -> OrderedPlanarEmbedding | None:
    """A planar embedding of g with `order` on a common face, or None.

    Set entries in the order stand for their members in any consecutive
    arrangement.  Failure (None) means no embedding realizes the order.
    """
    if g.m == 0:
        flat = [v for e in order for v in ((e,) if isinstance(e, int) else sorted(e))]
        _order_component_ok(g, flat)
        rot0 = RotationSystem.from_map({v: [] for v in g.vertices})
        return OrderedPlanarEmbedding(rot0, (), ())
    for raw in resolve_orders(order):
        seq = _effective_seq(g, raw)
        rot = _wheel_rotation(g, seq)
        if rot is None:
            continue
        face = _find_matching_face(g, rot, seq)
        if face is not None:
            return OrderedPlanarEmbedding(rot, face, seq)
        # The wheel said yes but the derived faces disagree; fall back to
        # exhaustive search before giving up on this resolution.
        found = find_embedding(g, order=seq, caps=caps)
        if found is not None:
            return found
    return None


def find_embedding(
    g: MultiGraph,
    order: Sequence[int] = (),
    facial_triangles: Sequence[frozenset[int]] = (),
    caps: Caps = DEFAULT_CAPS,
) -> OrderedPlanarEmbedding | None:
    """A planar embedding with an order face and required facial triangles.

    Tries the wheel fast path, then enumerates rotation systems.  Triangles
    are vertex sets {a, b, c} that must bound a 3-dart face.
    """
    seq = _effective_seq(g, tuple(order))
    for tri in facial_triangles:
        for a, b in itertools.combinations(sorted(tri), 2):
            if not g.edges_between(a, b):
                return None
    rot = _wheel_rotation(g, seq)
    if rot is not None:
        emb = _accept(g, rot, seq, facial_triangles)
        if emb is not None:
            return emb
    else:
        return None  # support + wheel nonplanar: no embedding realizes seq
    for rot in all_rotation_systems(g, caps):
        if not rot.is_planar(g):
            continue
        emb = _accept(g, rot, seq, facial_triangles)
        if emb is not None:
            return emb
    return None


def _accept(
    g: MultiGraph,
    rot: RotationSystem,
    seq: tuple[int, ...],
    facial_triangles: Sequence[frozenset[int]],
) -> OrderedPlanarEmbedding | None:
    faces = rot.faces()
    walks = [rot.face_walk(g, f) for f in faces]
    for tri in facial_triangles:
        if not any(len(f) == 3 and set(w) == set(tri) for f, w in zip(faces, walks)):
            return None
    if not seq:
        return OrderedPlanarEmbedding(rot, faces[0] if faces else (), seq)
    for f, w in zip(faces, walks):
        if walk_contains_order(w, seq):
            return OrderedPlanarEmbedding(rot, f, seq)
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
        want = [_effective_seq(g, raw) for raw in resolve_orders(order)]
    want = [w for w in want if w]
    if want and g.m > 0:
        walk = emb.rotation.face_walk(g, emb.face)
        if not any(walk_contains_order(walk, seq) for seq in want):
            defects.append("designated face does not realize the order")
    return defects
