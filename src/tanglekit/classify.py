"""Structure recognition for tangled biased graphs.

This module turns the structural trichotomy into executable searches:
``decompose`` peels balanced summands at 1-, 2- and 3-vertex cuts until a
4-connected core or a generalized-wheel shape remains, and ``classify``
matches the input against every concrete family, attaching a
re-verifiable certificate to each label it reports.

A signed input stays signed through ``decompose``: each virtual edge of a
peeled core takes the sign of a path through the balanced side it stands
for, so side balance and the per-peel tangle check are switching tests,
and a T3 label needs one more.  Other biases give each core a lazy
``bias.Lifted`` that asks the parent about the cycle through that path.
No core's cycles are listed, unless it is a wheel.

Recognition is search-based: candidate role assignments are enumerated
within the configured resource ceilings and ``verify_family`` is the
sole authority on whether a candidate counts.  Before a candidate
reaches it, the searches drop those that fail a necessary condition
read off balance alone, such as a part that lies inside no maximal
balanced set.  The brute-force oracles that check these searches live
with the tests, in ``tests/oracles.py``.

Generalized wheels and Tricoloured graphs are rings of parts glued at
hinges, and their rings are read off structure, not searched for: the
wheel search, the Tricoloured search and the wheel-core extraction in
``decompose`` all take the bonds and polygons of a 2-connected rim or
ring core from ``graph.rings``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, permutations, product

from .bias import (
    AllBalanced,
    BiasedGraph,
    BiasError,
    Lifted,
    Signed,
    balanced_without,
    is_simple,
    make_explicit,
    make_signed,
)
from .embedding import collapse_cyclic, ordered_planarity
from .families import Certificate, FamilyDescriptor, FamilyError, t_sum, verify_family
from .graph import (
    MultiGraph,
    VertexCut,
    cycles_inside,
    cycles_with,
    find_vertex_cuts,
    is_two_connected,
    _rings,
)
from .limits import DEFAULT_CAPS, Caps, ResourceLimitError
from .tangles import (
    TangleError,
    Tangled,
    TangleVerdict,
    is_tangled,
    standard_partition,
)


class ClassifyError(ValueError):
    """Precondition violated, or the structure bookkeeping broke down."""


# Edge provenance tags used while peeling: real input edges keep their
# id, virtual edges remember which sum node introduced them and which
# cut pair (in sorted-pair order) they stand for.
_Tag = tuple


@dataclass(frozen=True)
class Label:
    """One matched structure case with its certifying evidence.

    ``witness`` is the biased graph the certificate verifies against
    when that differs from the classified input (the complete-graph
    family certifies a canonically relabelled copy); None means the
    input itself.
    """

    code: str
    kind: str
    descriptor: FamilyDescriptor | None
    certificate: Certificate | None
    witness: BiasedGraph | None = None


@dataclass(frozen=True)
class FourConnectedCore:
    """Terminal core with no vertex cut of size at most three."""

    bias: BiasedGraph
    origins: dict[int, _Tag]


@dataclass(frozen=True)
class WheelCore:
    """Terminal core matching the hub-and-ring shape, with certificate."""

    bias: BiasedGraph
    descriptor: FamilyDescriptor
    certificate: Certificate
    origins: dict[int, _Tag]


@dataclass(frozen=True)
class SumNode:
    """One peeled balanced summand.

    ``cut`` holds the separating vertices in original labels;
    ``virtual_edges`` are the shared complete-graph edge ids added to
    both sides, aligned with the sorted vertex pairs of the cut.  The
    leaf keeps original vertex labels throughout.
    """

    node_id: int
    t: int
    cut: tuple[int, ...]
    virtual_edges: tuple[int, ...]
    leaf: BiasedGraph
    leaf_origins: dict[int, _Tag]


@dataclass(frozen=True)
class SumDecomposition:
    """Peel records in order plus the terminal core.

    Recomposition folds the leaves back over the core in reverse peel
    order and reports the edge/vertex correspondence to the original.
    """

    nodes: tuple[SumNode, ...]
    core: FourConnectedCore | WheelCore

    def recompose(self) -> tuple[BiasedGraph, dict[int, int], dict[int, int]]:
        """Rebuild the input; maps rebuilt edge/vertex ids to originals."""
        bias = self.core.bias
        tags: dict[int, _Tag] = dict(self.core.origins)
        vorig = {v: v for v in bias.graph.vertex_set}
        for node in reversed(self.nodes):
            bias, tags, vorig = _fold(bias, tags, vorig, node)
        emap: dict[int, int] = {}
        for e, tag in tags.items():
            if tag[0] != "real":
                raise ClassifyError(f"virtual edge {e} survived recomposition")
            emap[e] = tag[1]
        return bias, emap, vorig

    def verify(self, original: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> tuple[str, ...]:
        """Failure messages; empty when recomposition matches cycle-for-cycle."""
        rebuilt, emap, fails = self._rebuild(original)
        if fails:
            return fails
        for c in rebuilt.cycles(caps):
            if rebuilt.balance(c) != original.balance_of(frozenset(emap[e] for e in c.edge_set)):
                return (
                    "cycle through original edges "
                    f"{sorted(emap[e] for e in c.edge_set)} changes balance",
                )
        return ()

    def _rebuild(self, original: BiasedGraph) -> tuple[BiasedGraph | None, dict[int, int], tuple[str, ...]]:
        """The recomposition, its edge map and its bookkeeping failures.
        With none, the edge and vertex maps make an isomorphism onto the
        original, so every mapped edge set is a cycle of it."""
        try:
            rebuilt, emap, vmap = self.recompose()
        except (ClassifyError, FamilyError, BiasError, TangleError) as err:
            return None, {}, (f"recomposition failed: {err}",)
        fails: list[str] = []
        g0 = original.graph
        if sorted(emap) != sorted(rebuilt.graph.edge_id_set):
            fails.append("edge bookkeeping does not cover the rebuilt graph")
        if sorted(emap.values()) != sorted(g0.edge_id_set):
            fails.append("rebuilt edges do not map one-to-one onto the original edges")
        if sorted(vmap) != sorted(rebuilt.graph.vertex_set) or sorted(
            set(vmap.values())
        ) != sorted(g0.vertex_set) or len(set(vmap.values())) != len(vmap):
            fails.append("vertex bookkeeping is not a bijection onto the original")
        if fails:
            return rebuilt, emap, tuple(fails)
        for e in sorted(emap):
            if {vmap[v] for v in rebuilt.graph.endpoints(e)} != set(
                g0.endpoints(emap[e])
            ):
                return rebuilt, emap, (f"rebuilt edge {e} maps to {emap[e]} with other endpoints",)
        return rebuilt, emap, ()


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict plus every structure case the input matched."""

    verdict: TangleVerdict
    labels: tuple[Label, ...]
    decomposition: SumDecomposition | None
    trace: tuple[str, ...]

    def codes(self) -> tuple[str, ...]:
        return tuple(sorted({label.code for label in self.labels}))

    def label(self, code: str) -> Label:
        for label in self.labels:
            if label.code == code:
                return label
        raise KeyError(code)


# ---------------------------------------------------------------------------
# Balanced-subgraph search
# ---------------------------------------------------------------------------


def _maximal_balanced_sets(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> tuple[frozenset[int], ...]:
    """Inclusion-maximal balanced edge sets, largest first.

    A signed input's sets come from its switchings.  An edge set is
    balanced exactly when some switching makes all of its edges positive
    (Harary 1953; Zaslavsky, *Signed graphs*, 1982), so each maximal
    balanced set is the positive set of a switching.  That set is
    maximal exactly when the switching's positive subgraph has the
    components of the graph; put another way, when its negative set, a
    member of signature + cut space, contains no edge cut.  If a positive
    component K is a proper part of a component of the graph, every edge
    leaving K is negative, and switching at K makes those edges positive
    and keeps every positive one.  If each component's positive part is
    connected, a switching that keeps every positive edge switches a
    union of components and changes no edge.  ``_positive_sets`` walks
    these switchings only.

    Any other bias is read off its unbalanced cycles: an edge set is
    balanced iff its complement meets every unbalanced cycle, so the
    maximal balanced sets are the complements of the minimal
    transversals of the unbalanced cycles.  They are enumerated as in
    MMCS (Murakami and Uno 2014): branch i on the first unhit cycle
    removes its i-th edge and rules out its earlier ones, so each
    minimal transversal is reached once, and a branch dies as soon as a
    removed edge is the only removed edge on no unbalanced cycle, since
    no extension of it is then minimal.

    Either search counts its nodes against ``caps.max_subsets``.
    """
    if isinstance(o.bias, Signed):
        maximal = _positive_sets(o.graph, o.bias.signature, caps)
    else:
        maximal = [o.graph.edge_id_set - t for t in _minimal_transversals(o, caps)]
    maximal.sort(key=lambda s: (-len(s), sorted(s)))
    return tuple(maximal)


def _positive_sets(g: MultiGraph, signature: frozenset[int], caps: Caps) -> list[frozenset[int]]:
    """The positive sets of the switchings whose positive subgraph has
    the components of g, one set per switching.

    Each component's vertices are placed in breadth-first order, its
    root on the unswitched side and every other vertex on either side;
    positive adjacency among the placed vertices is kept as bitmasks.  A
    positive component whose vertices have no neighbour left to place is
    final, so a branch dies as soon as such a component is not a whole
    component of g.  Every leaf is therefore a wanted switching, and
    with the roots fixed no two leaves give the same set.  Positive
    loops lie in every set and negative loops in none.
    """
    order: list[int] = []
    index: dict[int, int] = {}
    roots = 0
    whole: list[int] = []  # whole[i]: the component of g holding vertex i
    for root in g.vertices:
        if root in index:
            continue
        start = len(order)
        roots |= 1 << start
        index[root] = start
        order.append(root)
        head = start
        while head < len(order):
            for y, _ in g.adjacent(order[head]):
                if y not in index:
                    index[y] = len(order)
                    order.append(y)
            head += 1
        whole += [(1 << len(order)) - (1 << start)] * (len(order) - start)
    n = len(order)
    # even[i] and odd[i]: the earlier vertices joined to vertex i by an
    # edge outside or inside the signature; last[i]: i's latest neighbour
    even, odd, last = [0] * n, [0] * n, list(range(n))
    edges: list[tuple[int, int, int, bool]] = []
    loops = frozenset(e for e, (u, v) in g.edge_map.items() if u == v and e not in signature)
    for e, (u, v) in g.edge_map.items():
        if u == v:
            continue
        negative = e in signature
        i, j = sorted((index[u], index[v]))
        if negative:
            odd[j] |= 1 << i
        else:
            even[j] |= 1 << i
        last[i] = max(last[i], j)
        edges.append((e, i, j, negative))
    # closes[i]: the vertices whose latest neighbour is i, final once i
    # is placed; opened[i]: the vertices up to i with a neighbour after i
    closes, opened, still = [0] * n, [0] * n, 0
    for i in range(n):
        closes[last[i]] |= 1 << i
    for i in range(n):
        still = (still | 1 << i) & ~closes[i]
        opened[i] = still
    positive = [0] * n  # positive neighbours among the placed vertices
    found: list[frozenset[int]] = []
    visited = 0

    def toggle(i: int, joined: int) -> None:
        # adds, or takes back, the positive edges from i to earlier vertices
        positive[i] = joined
        while joined:
            low = joined & -joined
            joined ^= low
            positive[low.bit_length() - 1] ^= 1 << i

    def final_parts_whole(i: int) -> bool:
        pending = closes[i]
        while pending:
            first = pending & -pending
            part = grow = first
            while grow:
                low = grow & -grow
                grow ^= low
                new = positive[low.bit_length() - 1] & ~part
                part |= new
                grow |= new
            if not part & opened[i] and part != whole[first.bit_length() - 1]:
                return False
            pending &= ~part
        return True

    def place(i: int, switched: int) -> None:
        nonlocal visited
        if i == n:
            found.append(loops.union(
                e for e, a, b, negative in edges if negative == bool((switched >> a ^ switched >> b) & 1)
            ))
            return
        for side in (0,) if roots >> i & 1 else (0, 1):
            visited += 1
            if visited > caps.max_subsets:
                raise ResourceLimitError("balanced subgraph search", caps.max_subsets)
            same = switched if side else ~switched
            joined = (even[i] & same) | (odd[i] & ~same)
            toggle(i, joined)
            if final_parts_whole(i):
                place(i + 1, switched | side << i)
            toggle(i, joined)

    place(0, 0)
    return found


def _minimal_transversals(o: BiasedGraph, caps: Caps) -> list[frozenset[int]]:
    """The minimal transversals of o's unbalanced cycles, by MMCS."""
    unb = sorted(
        {c.edge_set for c in o.unbalanced_cycles(caps)},
        key=lambda s: (len(s), sorted(s)),
    )
    all_edges = o.graph.edge_id_set
    # Bit i of through[e] is set when unbalanced cycle i uses edge e.
    through = dict.fromkeys(all_edges, 0)
    for i, cyc in enumerate(unb):
        for e in cyc:
            through[e] |= 1 << i
    transversals: list[frozenset[int]] = []
    visited = 0

    def walk(private: dict[int, int], free: frozenset[int], unhit: int) -> None:
        # private maps each removed edge to the cycles no other removed
        # edge meets; free holds the edges this branch may still remove.
        nonlocal visited
        visited += 1
        if visited > caps.max_subsets:
            raise ResourceLimitError("balanced subgraph search", caps.max_subsets)
        if not unhit:
            transversals.append(frozenset(private))
            return
        cyc = unb[(unhit & -unhit).bit_length() - 1]
        for e in sorted(cyc & free):
            free = free - {e}
            hit = through[e]
            kept = {f: mask & ~hit for f, mask in private.items()}
            if all(kept.values()):
                kept[e] = hit & unhit
                walk(kept, free, unhit & ~hit)

    walk({}, all_edges, (1 << len(unb)) - 1)
    return transversals


@dataclass
class _Counter:
    """Candidate counter shared across one search stage."""

    caps: Caps
    stage: str
    count: int = 0

    def bump(self) -> None:
        self.count += 1
        if self.count > self.caps.max_assignments:
            raise ResourceLimitError(self.stage, self.caps.max_assignments)


def _pairing_search(
    o: BiasedGraph, base_edges: frozenset[int], caps: Caps
) -> tuple[tuple[int, int, int], ...] | None:
    """Orient and order the residual edges onto one face of the base.

    Returns ``(edge, x, y)`` triples such that (x_1..x_m, y_1..y_m) is
    realized on a common face of the base, or None.

    Candidates run over the orders of the residual edges after the first
    and, within each, over the orientation bits.  Two kinds are skipped,
    and each has an equivalent candidate earlier in that order, so the
    first hit is the one the full enumeration finds and a miss tries a
    quarter of the candidates.  Flipping every bit swaps the x's and y's,
    which rotates the cyclic sequence by m; of b and its complement the
    one with the top bit clear comes first, so bits stop below 2^(m-1).
    Reversing the tail of the order (e_1, e_m, ..., e_2) and flipping
    every edge but e_1 spells the sequence backwards; a face realizes a
    cyclic order exactly when it realizes its reverse, and the reversed
    tail precedes an order with perm[0] > perm[-1], so those are skipped.
    Neither move changes which vertices the sequence repeats, so twins
    pass or fail the repeat check alike.
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
        if perm and perm[0] > perm[-1]:
            continue
        order = (first, *perm)
        for bits in range(1 << (m - 1)):
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
# Family detectors
#
# Each detector enumerates candidate role assignments for one family and
# returns (descriptor, certificate, witness) on the first assignment
# that verify_family accepts, else None.  The witness is the biased
# graph the certificate binds to when that is not the input itself.
# ---------------------------------------------------------------------------

_Hit = tuple[FamilyDescriptor, Certificate, BiasedGraph | None]


def _detect_k5_parallel(o: BiasedGraph, caps: Caps, msets: tuple[frozenset[int], ...]) -> _Hit | None:
    """Complete graph on five vertices with parallel classes, relabelled canonically."""
    g = o.graph
    if g.n != 5 or any(g.is_loop(e) for e in g.edge_ids):
        return None
    vs = sorted(g.vertex_set)
    mults: list[int] = []
    emap: dict[int, int] = {}
    next_id = 0
    pairs: list[tuple[int, int]] = []
    for i, j in combinations(range(5), 2):
        between = sorted(g.edges_between(vs[i], vs[j]))
        if not between:
            return None
        mults.append(len(between))
        for e in between:
            emap[e] = next_id
            next_id += 1
            pairs.append((i, j))
    if len(emap) != g.m:
        return None
    canon_g = MultiGraph.from_pairs(pairs, vertices=range(5))
    balanced = [
        frozenset(emap[e] for e in c.edge_set) for c in o.balanced_cycles(caps)
    ]
    witness = make_explicit(canon_g, balanced, check=True, caps=caps)
    d = FamilyDescriptor(
        "K5Parallel",
        canon_g,
        {"mults": tuple(mults), "vertex_order": tuple(vs)},
    )
    cert = verify_family(witness, d, caps)
    if cert.passed:
        return d, cert, witness
    return None


def _detect_fat_triangle(o: BiasedGraph, caps: Caps, msets: tuple[frozenset[int], ...]) -> _Hit | None:
    """Three corners whose pairwise parallel classes carry the residual edges.

    A fat set whose base E - fat lies inside no maximal balanced set
    fails "base cycles balanced" and never reaches ``verify_family``.
    """
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
            base = g.edge_id_set - fat
            if not any(base <= m for m in msets):
                continue
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
    """Degree-4 apex with two crossing chords over a planar rest.

    Three clauses of ``verify_family`` do not depend on the spoke order,
    so they are read once per apex, spoke pairing and chord pair, before
    any descriptor is built: "crossing triangles balanced" (one balance
    test per triangle), "core cycles balanced" (the core h lies inside a
    maximal balanced set) and "core two-connected".
    """
    g = o.graph
    for w in sorted(g.vertex_set):
        spokes = sorted(g.incident_edges(w))
        if len(spokes) != 4 or any(g.is_loop(e) for e in spokes):
            continue
        ends = [g.other_end(e, w) for e in spokes]
        if len(set(ends)) != 4:
            continue
        rest = g.edge_id_set - set(spokes)
        for (p, q), (r, s) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
            for f0 in sorted(g.edges_between(ends[p], ends[q])):
                if not o.balance_of(frozenset((spokes[p], spokes[q], f0))):
                    continue
                for f1 in sorted(g.edges_between(ends[r], ends[s])):
                    if not o.balance_of(frozenset((spokes[r], spokes[s], f1))):
                        continue
                    h = rest - {f0, f1}
                    if not any(h <= m for m in msets) or not is_two_connected(g.subgraph(h)):
                        continue
                    for idx in ((p, r, q, s), (p, s, q, r)):
                        es = tuple(spokes[i] for i in idx)
                        d = FamilyDescriptor(
                            "CrissCross",
                            g,
                            {
                                "h_edges": h,
                                "u": tuple(ends[i] for i in idx),
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
    """Spanning 2-connected base with all residual edges on one face pairing.

    The residual edges E - m of a base m are its cross edges, and the
    "cycle parity law" of ``verify_family`` asks that the bias be
    ``Signed(E - m)``.  It is tested once, on the first maximal balanced
    set, before any pairing search.  If the bias is ``Signed(cross_1)``
    and m_2 is another maximal balanced set, a switching makes m_2 all
    positive, so the negative edges fall inside the minimal transversal
    E - m_2 of the unbalanced cycles; they meet every unbalanced cycle,
    so they equal it.  The law therefore holds for every member of
    ``msets`` or for none.  On signed input it holds for all of them by
    construction: ``_maximal_balanced_sets`` reads each member off a
    switching as its positive set, so E - m is that switching's negative
    set, the signature plus an edge cut.  So only other biases are
    tested, against the input's cycle list.
    """
    g = o.graph
    if msets and not isinstance(o.bias, Signed):
        cross = g.edge_id_set - msets[0]
        if any(o.balance(c) != (len(c.edge_set & cross) % 2 == 0) for c in g.cycles(caps)):
            return None
    for m in msets:
        sub = g.subgraph(m)
        if sub.vertex_set != g.vertex_set or not is_two_connected(sub):
            continue
        pairing = _pairing_search(o, m, caps)
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


def _detect_special_vertex(o: BiasedGraph, caps: Caps, msets: tuple[frozenset[int], ...]) -> _Hit | None:
    """Degree-4 special vertex joining two planar halves, residual legs across."""
    g = o.graph
    counter = _Counter(caps, "special-vertex search")
    for m in msets:
        residual = sorted(g.edge_id_set - m)
        if len(residual) < 2 or any(g.is_loop(e) for e in residual):
            continue
        for w in sorted(g.vertex_set):
            if len(g.incident_edges(w)) != 4:
                continue
            rw = [e for e in residual if w in g.endpoints(e)]
            bw = sorted(e for e in m if w in g.endpoints(e))
            if len(rw) != 2 or len(bw) != 2:
                continue
            legs = [e for e in residual if e not in rw]
            for g1, g2 in ((rw[0], rw[1]), (rw[1], rw[0])):
                u1, u2 = g.other_end(g1, w), g.other_end(g2, w)
                if u1 == u2:
                    continue
                for wz1, wz2 in ((bw[0], bw[1]), (bw[1], bw[0])):
                    z1, z2 = g.other_end(wz1, w), g.other_end(wz2, w)
                    if z1 == z2:
                        continue
                    for uu in sorted(set(g.edges_between(u1, u2)) & m):
                        for zz in sorted(set(g.edges_between(z1, z2)) & m):
                            if uu == zz:
                                continue
                            halves = m - {uu, zz, wz1, wz2}
                            sides = g.subgraph(halves)
                            if sides.vertex_set != g.vertex_set - {w}:
                                continue
                            comps = sides.components()
                            if len(comps) != 2:
                                continue
                            side1 = next(cc for cc in comps if u1 in cc)
                            side2 = next(cc for cc in comps if u1 not in cc)
                            if not {u1, z2} <= side1 or not {u2, z1} <= side2:
                                continue
                            h1 = frozenset(
                                e for e in halves if set(g.endpoints(e)) <= side1
                            )
                            h2 = halves - h1
                            spans: list[tuple[int, int]] = []
                            ok = True
                            for e in legs:
                                a, b = g.endpoints(e)
                                if a in side1 and b in side2:
                                    spans.append((a, b))
                                elif b in side1 and a in side2:
                                    spans.append((b, a))
                                else:
                                    ok = False
                                    break
                            if not ok:
                                continue
                            for perm in permutations(range(len(legs))):
                                counter.bump()
                                xs = tuple(spans[i][0] for i in perm)
                                ys = tuple(spans[i][1] for i in perm)
                                if len(set((*xs, u1, z2))) != len(xs) + 2:
                                    continue
                                if len(set((*ys, z1, u2))) != len(ys) + 2:
                                    continue
                                d = FamilyDescriptor(
                                    "PPSpecialVertex",
                                    g,
                                    {
                                        "h1_edges": h1,
                                        "h2_edges": h2,
                                        "xs": xs,
                                        "ys": ys,
                                        "u": (u1, u2),
                                        "z": (z1, z2),
                                        "w": w,
                                        "bridge_edges": (zz, uu),
                                        "hub_edges": (wz1, wz2),
                                        "g": (g1, g2),
                                        "f": tuple(legs[i] for i in perm),
                                    },
                                )
                                cert = verify_family(o, d, caps)
                                if cert.passed:
                                    return d, cert, None
    return None


def _star_bias_holds(
    o: BiasedGraph,
    base: frozenset[int],
    stars: tuple[frozenset[int], ...],
    singles: tuple[int, ...],
    caps: Caps,
) -> bool:
    """The bias clauses ``verify_family`` puts on the residual edges of
    a PP special pair or triple, read off the input's own cycles: two
    edges of one star close only balanced cycles through the base, and
    each single edge (junction, leg or cross edge) only unbalanced ones."""
    for star in stars:
        for a, b in combinations(sorted(star), 2):
            if not all(o.balance(c) for c in cycles_with(o.graph, {a, b}, base, caps)):
                return False
    for e in singles:
        if any(o.balance(c) for c in cycles_with(o.graph, {e}, base, caps)):
            return False
    return True


def _detect_special_pair(o: BiasedGraph, caps: Caps, msets: tuple[frozenset[int], ...]) -> _Hit | None:
    """Two junction vertices carrying every residual edge as stars or links."""
    g = o.graph
    for m in msets:
        residual = frozenset(g.edge_id_set) - m
        if not residual or any(g.is_loop(e) for e in residual):
            continue
        rs = sorted(residual)
        a, b = g.endpoints(rs[0])
        candidates: set[tuple[int, int]] = set()
        for x in (a, b):
            rest = [e for e in rs if x not in g.endpoints(e)]
            if not rest:
                for y in sorted(g.vertex_set - {x}):
                    candidates.add((x, y))
                continue
            for y in g.endpoints(rest[0]):
                if all(
                    x in g.endpoints(e) or y in g.endpoints(e) for e in rs
                ):
                    candidates.add((x, y))
        for x, y in sorted(candidates):
            if x == y:
                continue
            links = tuple(
                sorted(e for e in rs if frozenset(g.endpoints(e)) == frozenset({x, y}))
            )
            fx = frozenset(e for e in rs if x in g.endpoints(e)) - set(links)
            fy = frozenset(e for e in rs if y in g.endpoints(e)) - set(links)
            if set(links) | fx | fy != residual:
                continue
            xv = [g.other_end(e, x) for e in sorted(fx)]
            yv = [g.other_end(e, y) for e in sorted(fy)]
            if len(set(xv)) != len(xv) or len(set(yv)) != len(yv):
                continue
            xset, yset = frozenset(xv), frozenset(yv)
            if {x, y} & (xset | yset) or len(xset & yset) > 1:
                continue
            # The residual edges are exactly fx, fy and links, so the
            # planner's base is m.
            if not _star_bias_holds(o, m, (fx, fy), links, caps):
                continue
            d = FamilyDescriptor(
                "PPSpecialPair",
                g,
                {"x": x, "y": y, "X": xset, "Y": yset, "fx": fx, "fy": fy, "e": links},
            )
            cert = verify_family(o, d, caps)
            if cert.passed:
                return d, cert, None
    return None


def _detect_special_triple(o: BiasedGraph, caps: Caps, msets: tuple[frozenset[int], ...]) -> _Hit | None:
    """One star source covering all residual edges but a single cross edge."""
    g = o.graph
    for m in msets:
        residual = sorted(g.edge_id_set - m)
        if len(residual) < 2 or any(g.is_loop(e) for e in residual):
            continue
        for f in residual:
            rest = [e for e in residual if e != f]
            for x in sorted(set(g.endpoints(rest[0]))):
                if not all(x in g.endpoints(e) for e in rest):
                    continue
                ya, yb = g.endpoints(f)
                if x in (ya, yb):
                    continue
                for y1, y2 in ((ya, yb), (yb, ya)):
                    es = tuple(
                        sorted(
                            e
                            for e in rest
                            if frozenset(g.endpoints(e)) == frozenset({x, y1})
                        )
                    )
                    if not es:
                        continue
                    gs = tuple(
                        sorted(
                            e
                            for e in rest
                            if frozenset(g.endpoints(e)) == frozenset({x, y2})
                        )
                    )
                    star = frozenset(rest) - set(es) - set(gs)
                    ends = [g.other_end(e, x) for e in sorted(star)]
                    if len(set(ends)) != len(ends):
                        continue
                    xset = frozenset(ends)
                    if xset & {x, y1, y2}:
                        continue
                    # F, e, g and f are the residual edges: the base is m.
                    if not _star_bias_holds(o, m, (star,), (*es, *gs, f), caps):
                        continue
                    d = FamilyDescriptor(
                        "PPSpecialTriple",
                        g,
                        {
                            "x": x,
                            "y1": y1,
                            "y2": y2,
                            "X": xset,
                            "F": star,
                            "e": es,
                            "g": gs,
                            "f": f,
                        },
                    )
                    cert = verify_family(o, d, caps)
                    if cert.passed:
                        return d, cert, None
    return None


def _detect_generalized_wheel(o: BiasedGraph, caps: Caps, msets: tuple[frozenset[int], ...]) -> _Hit | None:
    """Hub vertex whose removal leaves a ring of parts joined at hinges.

    Every part is 2-connected or a single edge, so the rim is 2-connected
    and each ring is one of its rings: a bond split into two parts, or a
    polygon of at most six pieces (merging two pieces would leave their
    shared hinge a cut vertex of the merged part).
    """
    g = o.graph
    counter = _Counter(caps, "generalized-wheel search")
    for hub in sorted(g.vertex_set):
        spokes = frozenset(g.incident_edges(hub))
        if not spokes or any(g.is_loop(e) for e in spokes):
            continue
        rim = g.edge_id_set - spokes
        rim_sub = g.subgraph(rim)
        if rim_sub.vertex_set != g.vertex_set - {hub} or not is_two_connected(rim_sub):
            continue
        found = _rings(rim_sub)
        for bond in found.bonds:
            counter.bump()
            atoms = bond.classes
            for mask in range(1, 1 << (len(atoms) - 1)):
                counter.bump()
                part_a = frozenset(
                    e for i, es in enumerate(atoms) if mask >> i & 1 == 0 for e in es
                )
                hit = _wheel_candidate(
                    o, hub, bond.pair, (part_a, rim - part_a), spokes, msets, caps, counter
                )
                if hit:
                    return hit
        for poly in found.polygons:
            counter.bump()
            if len(poly.pieces) <= 6:
                hit = _wheel_candidate(o, hub, poly.hinges, poly.pieces, spokes, msets, caps, counter)
                if hit:
                    return hit
    return None


def _wheel_candidate(
    o: BiasedGraph,
    hub: int,
    hinges: tuple[int, ...],
    parts: tuple[frozenset[int], ...],
    spokes: frozenset[int],
    msets: tuple[frozenset[int], ...],
    caps: Caps,
    counter: _Counter,
) -> _Hit | None:
    """Try every attachment split of the given ring against the planner.

    The parts of a generalized wheel are balanced, so each must lie
    inside a maximal balanced set; rings that fail this are dropped
    before any planarity test.  Splits are then filtered per part: only
    those whose part subgraph orders planarly with the part hinges
    survive into the full check.
    """
    if not all(any(pe <= m for m in msets) for pe in parts):
        return None
    g = o.graph
    options: list[list[tuple[frozenset[int], frozenset[int]] | None]] = []
    for i, pe in enumerate(parts):
        sub = g.subgraph(pe)
        if len(pe) == 1 and sub.n == 2:
            options.append([None])
            continue
        if not is_two_connected(sub):
            return None
        z_prev, z_cur = hinges[i - 1], hinges[i]
        attach = sorted(
            v
            for v in sub.vertex_set - {z_prev, z_cur}
            if g.edges_between(hub, v)
        )
        if len(attach) < 2:
            return None
        opts: list[tuple[frozenset[int], frozenset[int]] | None] = []
        rest = attach[1:]
        for r in range(len(rest) + 1):
            for extra in combinations(rest, r):
                xs = frozenset({attach[0], *extra})
                ys = frozenset(attach) - xs
                if not ys:
                    continue
                counter.bump()
                if ordered_planarity(sub, (z_prev, xs, z_cur, ys)):
                    opts.append((xs, ys))
        if not opts:
            return None
        options.append(opts)
    for combo in product(*options):
        counter.bump()
        d = FamilyDescriptor(
            "GeneralizedWheel",
            g,
            {"hub": hub, "hinges": tuple(hinges), "parts": parts, "xy": tuple(combo)},
        )
        cert = verify_family(o, d, caps)
        if cert.passed:
            return d, cert, None
    return None


@cache
def _weak_compositions(total: int, slots: int) -> tuple[tuple[int, ...], ...]:
    if slots == 0:
        return ((),) if total == 0 else ()
    out = []
    for bars in combinations(range(total + slots - 1), slots - 1):
        prev = -1
        comp = []
        for b in (*bars, total + slots - 1):
            comp.append(b - prev - 1)
            prev = b
        out.append(tuple(comp))
    return tuple(out)


def _detect_tricoloured(o: BiasedGraph, caps: Caps, msets: tuple[frozenset[int], ...]) -> _Hit | None:
    """Six-part ring with three antipodal chord classes.

    Candidates are anchored on the three chord sources: the search
    picks three vertices, a target set with one chord edge per target
    at each, and then fits the remaining edges into a ring of parts.
    Chords ending on another chosen source are not considered.

    ``verify_family`` requires the core, the ring edges on every vertex
    of G, to be 2-connected, and two necessary conditions follow.  The
    core is a spanning subgraph of G, so when G is not 2-connected no
    core is, and the search returns at once.  A 2-connected core on
    n >= 4 vertices has minimum degree 2.  A target loses exactly one
    edge to its chord, and a source x loses one per target, so only
    targets of degree 3 or more and target sets Y with
    |Y| <= deg(x) - 2 are tried.  Both gates only drop choices, so the
    order of the rest and the first hit do not change.

    The target sets must be pairwise disjoint.  ``verify_family``
    flattens the attachment order (x0, x1, x2, Y0, Y1, Y2), or
    (x0, Y4, x2, Y0, x4, Y2) for the alternating colours, and rejects
    every candidate in which a vertex repeats there, whatever the ring.
    The sources are distinct and no target is a source, so a repeat can
    only come from two target sets that meet.

    Each chord triple is met in every orientation, and all of them leave
    the same ring edges: ``cores`` keeps, for this call, the ring layouts
    of each 2-connected ring edge set, so every ring is cut into parts
    once.  ``verdicts`` keeps the answer to each bias clause asked, by
    clause, chord pair and part edges (``_tricoloured_bias_holds``).

    Chord classes are fitted to a layout by position; its rings are not
    built to be searched.  A k-part layout is padded out to six parts by
    each weak composition (s_0, ..., s_(k-1)) of 6 - k, the c-th in
    ``_weak_compositions`` order: base part i sits at ring position
    i + s_0 + ... + s_(i-1), and hinge i also fills the s_i padded
    positions after it.  So each vertex has a slot bitmask, with bit
    6c + p set when it lies in ring part p under padding c
    (``_RingLayout.slots``).  A class (x, Y) may sit at position p when
    x has bit p and every target has bit p + 3 (mod 6): one AND over Y
    and one rotation by three per class.  Only a padding on which all
    three classes have a position has its ring built.
    """
    g = o.graph
    if g.n < 4 or any(g.is_loop(e) for e in g.edge_ids) or not is_two_connected(g):
        return None
    counter = _Counter(caps, "tricoloured search")
    cores: dict[frozenset[int], tuple[_RingLayout, ...]] = {}
    verdicts: dict[tuple, bool] = {}
    degree = {v: len(g.incident_edges(v)) for v in g.vertex_set}
    for trip in combinations(sorted(g.vertex_set), 3):
        tset = set(trip)
        stars: list[dict[int, list[int]]] = []
        for x in trip:
            by_target: dict[int, list[int]] = {}
            for e in sorted(g.incident_edges(x)):
                far = g.other_end(e, x)
                if far not in tset and degree[far] >= 3:
                    by_target.setdefault(far, []).append(e)
            if not by_target:
                stars = []
                break
            stars.append(by_target)
        if not stars:
            continue
        for choice in product(*(_star_choices(s, degree[x] - 2) for x, s in zip(trip, stars))):
            counter.bump()
            if any(not a[0].isdisjoint(b[0]) for a, b in combinations(choice, 2)):
                continue
            chords = {e for _, es in choice for e in es}
            ring_edges = g.edge_id_set - chords
            if ring_edges not in cores:
                core = g.subgraph(ring_edges, g.vertex_set)
                cores[ring_edges] = _ring_layouts(core) if is_two_connected(core) else ()
            pairs = [(x, targets, edges) for x, (targets, edges) in zip(trip, choice)]
            for layout in cores[ring_edges]:
                counter.bump()
                for ring, spots in layout.fit(pairs):
                    hit = _tricoloured_arrangements(o, pairs, ring, spots, caps, counter, verdicts)
                    if hit:
                        return hit
    return None


def _star_choices(by_target: dict[int, list[int]], most: int) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """Every (targets, one edge per target) choice for one chord source
    with at most `most` targets, by target subsets in sorted order; the
    edges follow the sorted targets."""
    targets = sorted(by_target)
    out: list[tuple[frozenset[int], tuple[int, ...]]] = []
    for r in range(1, min(len(targets), most) + 1):
        for ts in combinations(targets, r):
            tset = frozenset(ts)
            for es in product(*(sorted(by_target[t]) for t in ts)):
                out.append((tset, es))
    return out


# A six-part ring: part vertex sets, part edge sets, and the hinge where
# part i meets part i + 1.
_Ring = tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...], tuple[int, ...]]

# Slot masks hold six bits per padding, at most ten paddings: bit 6c + p
# stands for ring position p under padding c.
_FIRST_HALF = sum(0b000111 << 6 * c for c in range(10))
_PADDING_BITS = sum(1 << 6 * c for c in range(10))


@cache
def _slot_table(k: int) -> tuple[tuple[int, int], ...]:
    """For each base part i of a k-part layout, its slot bits under every
    padding and those of the padded positions that follow it.  Padding c
    puts s_i single-hinge parts after part i (``_weak_compositions``), so
    base part i sits at position i + s_0 + ... + s_(i-1), and hinge i
    also fills the s_i positions after it."""
    part_bits = [0] * k
    pad_bits = [0] * k
    for c, pad in enumerate(_weak_compositions(6 - k, k)):
        at = 6 * c
        for i, s in enumerate(pad):
            part_bits[i] |= 1 << at
            pad_bits[i] |= ((1 << s) - 1) << at + 1
            at += 1 + s
    return tuple(zip(part_bits, pad_bits))


@dataclass(frozen=True)
class _RingLayout:
    """Three to six parts of a ring core, ``parts[i]`` from
    ``hinges[i - 1]`` to ``hinges[i]``, padded out to six-part rings by
    single-hinge parts.  Neighbouring parts of a polygon meet in their
    hinge alone, so every padding gives a ring."""

    hinges: tuple[int, ...]
    parts: tuple[frozenset[int], ...]
    part_vertices: tuple[frozenset[int], ...]

    @cached_property
    def slots(self) -> dict[int, int]:
        """Each vertex's ring positions under every padding: bit 6c + p
        is set when the vertex lies in ring part p of padding c."""
        slots: dict[int, int] = {}
        for pv, hinge, (part, pad) in zip(self.part_vertices, self.hinges, _slot_table(len(self.parts))):
            for v in pv:
                slots[v] = slots.get(v, 0) | part
            slots[hinge] |= pad
        return slots

    def fit(
        self, pairs: list[tuple[int, frozenset[int], tuple[int, ...]]]
    ) -> list[tuple[_Ring, list[list[int]]]]:
        """The padded rings, in padding order, on which every chord class
        has a ring position p with x in part p and its targets inside
        part p + 3, each with those positions per class."""
        slots = self.slots
        room = _PADDING_BITS
        fits: list[int] = []
        for x, yset, _ in pairs:
            inside = -1
            for y in yset:
                inside &= slots[y]
            # rotate each padding's six bits by three
            at = slots[x] & (((inside & _FIRST_HALF) << 3) | ((inside >> 3) & _FIRST_HALF))
            fits.append(at)
            room &= at | at >> 1 | at >> 2 | at >> 3 | at >> 4 | at >> 5
        out = []
        while room:
            low = room & -room
            room ^= low
            c = low.bit_length() // 6
            out.append((self.ring(c), [[p for p in range(6) if at >> 6 * c + p & 1] for at in fits]))
        return out

    @cached_property
    def _built(self) -> dict[int, _Ring]:
        return {}

    def ring(self, c: int) -> _Ring:
        """The six-part ring of padding c, built once."""
        ring = self._built.get(c)
        if ring is None:
            pvs: list[frozenset[int]] = []
            pes: list[frozenset[int]] = []
            hinges: list[int] = []
            pad = _weak_compositions(6 - len(self.parts), len(self.parts))[c]
            for pv, pe, hinge, s in zip(self.part_vertices, self.parts, self.hinges, pad):
                pvs += [pv] + [frozenset({hinge})] * s
                pes += [pe] + [frozenset()] * s
                hinges += [hinge] * (1 + s)
            ring = self._built[c] = (tuple(pvs), tuple(pes), tuple(hinges))
        return ring


def _ring_layouts(core: MultiGraph) -> tuple[_RingLayout, ...]:
    """Every ring of three to six parts in a 2-connected core, smallest
    and least hinge set first: each 3- to 6-subset of a polygon's hinges
    in cyclic order, the pieces between consecutive chosen hinges merged
    into one part."""
    ends = core.edge_map
    out: list[_RingLayout] = []
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
                    _RingLayout(
                        tuple(poly.hinges[i] for i in chosen),
                        parts,
                        tuple(frozenset(v for e in pe for v in ends[e]) for pe in parts),
                    )
                )
    out.sort(key=lambda lay: (len(lay.hinges), sorted(lay.hinges)))
    return tuple(out)


_COLOUR_PATTERNS = (frozenset({0, 1, 2}), frozenset({0, 2, 4}))


def _ring_placements() -> dict[tuple[int, int, int], list[tuple]]:
    """Every way to lay the three chord classes onto a six-part ring.

    A placement is a rotation or reflection of the ring (the ring index
    of the part at each position, and of the hinge after it), a colour
    pattern, and the chord class at each coloured position.  Placements
    are keyed by the ring index each chord class lands on, and rank in
    search order.
    """
    views = [(tuple((s + p) % 6 for p in range(6)),) * 2 for s in range(6)]
    views += [
        (tuple(5 - (s + p) % 6 for p in range(6)), tuple((4 - (s + p) % 6) % 6 for p in range(6)))
        for s in range(6)
    ]
    table: dict[tuple[int, int, int], list[tuple]] = {}
    rank = 0
    for part_at, hinge_at in views:
        for colours in _COLOUR_PATTERNS:
            positions = sorted(colours)
            for perm in permutations(range(3)):
                at = [0, 0, 0]
                for slot, k in enumerate(perm):
                    at[k] = part_at[positions[slot]]
                table.setdefault(tuple(at), []).append((rank, part_at, hinge_at, colours, perm))
                rank += 1
    return table


_PLACEMENTS = _ring_placements()


def _tricoloured_arrangements(
    o: BiasedGraph,
    pairs: list[tuple[int, frozenset[int], tuple[int, ...]]],
    ring: _Ring,
    spots: list[list[int]],
    caps: Caps,
    counter: _Counter,
    verdicts: dict[tuple, bool],
) -> _Hit | None:
    """Lay the chord classes onto one ring: ``spots`` gives, per class,
    the ring indices where x is in the part and its targets in the
    antipodal one."""
    g = o.graph
    pvs, pes, hinges = ring
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
        if not _tricoloured_bias_holds(o, pe6, es6, positions, caps, verdicts):
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


def _tricoloured_bias_holds(
    o: BiasedGraph,
    pe6: tuple[frozenset[int], ...],
    es6: list[tuple[int, ...] | None],
    positions: list[int],
    caps: Caps,
    verdicts: dict[tuple, bool],
) -> bool:
    """The bias clauses ``verify_family`` checks on a Tricoloured
    candidate, read off the input's own cycles: a chord pair of one
    colour closes only balanced cycles through the antipodal part, a
    pair of two colours only unbalanced ones through their four parts.
    ``verdicts`` keeps each answer by (clause, chord pair, part edges)."""
    g = o.graph
    for i in positions:
        part = pe6[(i + 3) % 6]
        for a, b in combinations(es6[i], 2):
            key = (True, min(a, b), max(a, b), part)
            if key not in verdicts:
                verdicts[key] = all(o.balance(c) for c in cycles_with(g, {a, b}, part, caps))
            if not verdicts[key]:
                return False
    for i, j in combinations(positions, 2):
        within = pe6[i] | pe6[j] | pe6[(i + 3) % 6] | pe6[(j + 3) % 6]
        for a in es6[i]:
            for b in es6[j]:
                key = (False, min(a, b), max(a, b), within)
                if key not in verdicts:
                    verdicts[key] = not any(o.balance(c) for c in cycles_with(g, {a, b}, within, caps))
                if not verdicts[key]:
                    return False
    return True


# Detector battery in case-label order.
_DETECTORS: tuple[tuple[str, str, object], ...] = (
    ("T1a", "PPSigned", _detect_pp_signed),
    ("T1b", "GeneralizedWheel", _detect_generalized_wheel),
    ("T1c", "CrissCross", _detect_criss_cross),
    ("T1d", "FatTriangle", _detect_fat_triangle),
    ("T1e", "PPSpecialVertex", _detect_special_vertex),
    ("T1f", "PPSpecialPair", _detect_special_pair),
    ("T1g", "PPSpecialTriple", _detect_special_triple),
    ("T1h", "Tricoloured", _detect_tricoloured),
    ("T2", "K5Parallel", _detect_k5_parallel),
)


# ---------------------------------------------------------------------------
# Decomposition at small vertex cuts
# ---------------------------------------------------------------------------


def decompose(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> SumDecomposition:
    """Peel balanced summands at vertex cuts of size at most three.

    At 1- and 2-cuts exactly one side is unbalanced and a balanced side
    is split off.  At 3-cuts balanced sides with interior of two or more
    vertices are peeled first, then single-interior sides.  The loop
    ends at a core with no small cut, or, when every remaining 3-cut
    side is unbalanced, at the hub-and-ring shape, which is extracted
    and certified as a generalized wheel.

    The input must be connected and tangled, and every peeled core is
    tangled again, so tangledness is proved once, here.  A core cycle
    through virtual edges stands for a cycle that runs through the
    balanced side instead, and has its balance.  A cycle meets the side
    in at most one path, since a second would need four cut vertices.
    So every unbalanced cycle of the peeled graph shrinks to an
    unbalanced core cycle on a subset of its vertices.  And only one
    cycle can use the virtual edges: of two disjoint core cycles at most
    one reaches the cut, and only that one expands into the side.  A
    balanced core, a blocking vertex of the core or two disjoint
    unbalanced core cycles would therefore give the input the same.
    The terminal core alone is checked again, as a runtime guard.
    """
    if not o.graph.is_connected():
        raise ClassifyError("decompose needs a connected input")
    verdict = is_tangled(o, caps)
    if not isinstance(verdict, Tangled):
        raise ClassifyError(
            f"decompose needs a tangled input, verdict is {type(verdict).__name__}"
        )
    return _decompose(o, caps)


def _decompose(o: BiasedGraph, caps: Caps) -> SumDecomposition:
    """The peel loop of :func:`decompose`, on an input known to be tangled."""
    cur = o
    tags: dict[int, _Tag] = {e: ("real", e) for e in o.graph.edge_id_set}
    nodes: list[SumNode] = []
    while True:
        cuts = find_vertex_cuts(cur.graph, 3, caps)
        if not cuts:
            return _terminal(nodes, FourConnectedCore(cur, dict(tags)), caps)
        if cuts[0].size <= 2:
            vc = cuts[0]
            balanced_sides = []
            unbalanced = 0
            for b in vc.bridges:
                if cur.restrict_edges(b.edges).is_balanced(caps):
                    balanced_sides.append(b)
                else:
                    unbalanced += 1
            if unbalanced != 1:
                raise ClassifyError(
                    f"cut {sorted(vc.cut)} leaves {unbalanced} unbalanced sides, expected one"
                )
            bridge = min(balanced_sides, key=lambda b: (len(b.edges), sorted(b.edges)))
        else:
            pick = None
            for proper in (True, False):
                for vc in cuts:
                    sides = [
                        b
                        for b in vc.bridges
                        if len(b.interior) >= (2 if proper else 1)
                        and cur.restrict_edges(b.edges).is_balanced(caps)
                    ]
                    if sides:
                        pick = (
                            vc,
                            min(sides, key=lambda b: (len(b.edges), sorted(b.edges))),
                        )
                        break
                if pick:
                    break
            if pick is None:
                first_err: ClassifyError | None = None
                for vc in cuts:
                    if len(vc.bridges) != 2:
                        continue
                    try:
                        d, cert = _extract_wheel(cur, vc, caps)
                    except ClassifyError as err:
                        if first_err is None:
                            first_err = err
                        continue
                    return _terminal(nodes, WheelCore(cur, d, cert, dict(tags)), caps)
                if first_err is not None:
                    raise first_err
                raise ClassifyError(
                    "all 3-cut sides are unbalanced but no cut has exactly two sides"
                )
            vc, bridge = pick
        cur, tags, node = _peel(cur, tags, vc, bridge, len(nodes) + 1)
        nodes.append(node)


def _terminal(
    nodes: list[SumNode], core: FourConnectedCore | WheelCore, caps: Caps
) -> SumDecomposition:
    """The decomposition, once the terminal core is shown to be tangled.

    is_tangled lists no cycle to reach that verdict, and no core bias
    stores one, which matters here: peels at 3-cuts turn degree-3
    vertices into triangles of virtual edges, and the core can have many
    times the cycles of the input (PPSigned C24: 108,962 against 4,229).
    """
    if nodes and not isinstance(is_tangled(core.bias, caps), Tangled):
        raise ClassifyError(f"peeling at {list(nodes[-1].cut)} left a non-tangled core")
    return SumDecomposition(tuple(nodes), core)


def _peel(
    cur: BiasedGraph,
    tags: dict[int, _Tag],
    vc: VertexCut,
    bridge,
    node_id: int,
) -> tuple[BiasedGraph, dict[int, _Tag], SumNode]:
    t = vc.size
    cut = tuple(sorted(vc.cut))
    interior = sorted(bridge.interior)
    if t == 1:
        leaf = BiasedGraph(cur.graph.subgraph(bridge.edges), AllBalanced())
        leaf_origins = {e: tags[e] for e in bridge.edges}
        core = cur.delete_vertices(interior)
        new_tags = {e: tags[e] for e in core.graph.edge_id_set}
        return core, new_tags, SumNode(node_id, 1, cut, (), leaf, leaf_origins)

    next_e = max(cur.graph.edge_id_set) + 1
    pairs = list(combinations(cut, 2))
    virt = {next_e + j: pair for j, pair in enumerate(pairs)}
    bsub = cur.graph.subgraph(bridge.edges)
    qpaths: dict[tuple[int, int], frozenset[int]] = {}
    for a, b in pairs:
        avoid = [v for v in cut if v not in (a, b)]
        q = bsub.path_between(a, b, avoid)
        if q is None:
            raise ClassifyError(
                f"balanced side at cut {list(cut)} has no {a}-{b} path avoiding {avoid}"
            )
        qpaths[(a, b)] = frozenset(q)

    leaf_graph = bsub.with_edges(virt)
    leaf = BiasedGraph(leaf_graph, AllBalanced())
    virt_ids = tuple(sorted(virt))
    leaf_origins = {e: tags[e] for e in bridge.edges}
    for j, ve in enumerate(virt_ids):
        leaf_origins[ve] = ("virt", node_id, j)

    core_graph = cur.graph.delete_vertices(interior).with_edges(virt)
    vset = frozenset(virt)
    if isinstance(cur.bias, Signed):
        # A virtual edge takes the sign of its q-path.  Any two a-c paths
        # through the balanced side have equal sign, so a cycle through two
        # virtual edges gets the sign of q_ac, and the virtual triangle is
        # balanced: every core cycle keeps the balance of the cycle it
        # stands for, with no cycle listed.
        sig = cur.bias.signature
        negative = {ve for ve, pair in virt.items() if len(qpaths[pair] & sig) % 2}
        core = BiasedGraph(core_graph, Signed((sig & core_graph.edge_id_set) | negative))
    else:
        core = BiasedGraph(core_graph, Lifted(cur.bias, virt, qpaths))
    new_tags = {e: tags[e] for e in core_graph.edge_id_set if e not in vset}
    for j, ve in enumerate(virt_ids):
        new_tags[ve] = ("virt", node_id, j)
    return core, new_tags, SumNode(node_id, t, cut, virt_ids, leaf, leaf_origins)


def _extract_wheel(cur: BiasedGraph, vc: VertexCut, caps: Caps) -> tuple[FamilyDescriptor, Certificate]:
    """Read the hub-and-ring roles off a 3-cut whose sides are all unbalanced."""
    g = cur.graph
    cut = sorted(vc.cut)
    if len(vc.bridges) != 2:
        raise ClassifyError(
            f"wheel shape at cut {cut} needs exactly two sides, found {len(vc.bridges)}"
        )
    one_vertex_hits: list[set[int]] = []
    for b in vc.bridges:
        hits: set[int] = set()
        for c in cycles_inside(cur.graph, b.edges, caps):
            if cur.balance(c):
                continue
            meet = c.vertex_set & vc.cut
            if len(meet) == 1:
                hits.add(next(iter(meet)))
        one_vertex_hits.append(hits)
    common = one_vertex_hits[0] & one_vertex_hits[1]
    if len(common) != 1:
        raise ClassifyError(f"wheel shape at cut {cut}: hub candidates {sorted(common)}")
    hub = next(iter(common))
    x2, x3 = sorted(vc.cut - {hub})

    partitions = []
    for b in vc.bridges:
        try:
            partitions.append((b.edges, standard_partition(cur.restrict_edges(b.edges), hub, caps)))
        except TangleError as err:
            raise ClassifyError(f"wheel side at cut {cut} has no spoke partition: {err}")
    rim = g.delete_vertices([hub])
    if not is_two_connected(rim):
        raise ClassifyError(f"wheel rim at cut {cut} is not 2-connected")
    # The two sides are the two bridge classes of the rim at x2, x3, and
    # any edges joining x2 and x3 join one of them: a polygon through
    # both hinges chains the blocks of each side, and with no polygon
    # the ring is the bond split into its two sides.
    found = _rings(rim)
    through = [p for p in found.polygons if {x2, x3} <= set(p.hinges)]
    if len(through) > 1:
        raise ClassifyError("edges joining the two rim hinges fit no ring part")
    if through:
        hinges, ring = through[0].hinges, through[0].pieces
    else:
        side_a, side_b, *direct = next(b for b in found.bonds if b.pair == (x2, x3)).classes
        hinges, ring = (x2, x3), (side_a.union(*direct), side_b)

    xy: list[tuple[frozenset[int], frozenset[int]] | None] = []
    for i, pe in enumerate(ring):
        sub = g.subgraph(pe)
        if len(pe) == 1 and sub.n == 2:
            xy.append(None)
            continue
        part_hinges = {hinges[i - 1], hinges[i]}
        sp = next(sp for side, sp in partitions if pe & side)
        classes: dict[int, set[int]] = {}
        for v in sorted(sub.vertex_set - part_hinges):
            vs = {sp.part_of(e) for e in g.edges_between(hub, v)}
            if not vs:
                continue
            if len(vs) != 1:
                raise ClassifyError(
                    f"rim vertex {v} takes spokes from different classes"
                )
            classes.setdefault(vs.pop(), set()).add(v)
        if len(classes) != 2:
            raise ClassifyError(
                f"ring part {i} splits its spoke attachments into {len(classes)} classes"
            )
        first, second = sorted(classes)
        xy.append((frozenset(classes[first]), frozenset(classes[second])))

    d = FamilyDescriptor(
        "GeneralizedWheel",
        g,
        {
            "hub": hub,
            "hinges": tuple(hinges),
            "parts": tuple(ring),
            "xy": tuple(xy),
        },
    )
    cert = verify_family(cur, d, caps)
    if not cert.passed:
        names = "; ".join(c.name for c in cert.failures())
        raise ClassifyError(f"wheel shape at cut {cut} fails verification: {names}")
    return d, cert


def _fold(
    left: BiasedGraph,
    tags: dict[int, _Tag],
    vorig: dict[int, int],
    node: SumNode,
) -> tuple[BiasedGraph, dict[int, _Tag], dict[int, int]]:
    """Glue one peeled leaf back onto the partially rebuilt graph."""
    inverse = {orig: cur for cur, orig in vorig.items()}
    identify = [(inverse[x], x) for x in node.cut]
    kt1 = sorted(
        (e for e, tag in tags.items() if tag[0] == "virt" and tag[1] == node.node_id),
        key=lambda e: tags[e][2],
    )
    if len(kt1) != len(node.virtual_edges):
        raise ClassifyError(
            f"sum node {node.node_id} lost track of its virtual edges"
        )
    summed = t_sum(
        left, node.leaf, node.t, identify, kt_edges1=kt1 or None, kt_edges2=node.virtual_edges or None
    )
    glued = {orig for _, orig in identify}
    new_vorig = dict(vorig)
    next_v = max(left.graph.vertex_set, default=-1) + 1
    for v in sorted(node.leaf.graph.vertex_set - glued):
        new_vorig[next_v] = v
        next_v += 1
    new_tags = {e: tag for e, tag in tags.items() if e not in set(kt1)}
    next_e = max(left.graph.edge_id_set, default=-1) + 1
    for old in sorted(node.leaf.graph.edge_id_set - set(node.virtual_edges)):
        new_tags[next_e] = node.leaf_origins[old]
        next_e += 1
    return summed, new_tags, new_vorig


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _switching_accepts(dec: SumDecomposition, o: BiasedGraph) -> bool:
    """True when ``dec.verify(o)`` would find nothing, for signed o, by one
    switching test; False sends the caller to ``verify``.

    After its bookkeeping checks, ``verify`` compares each rebuilt cycle's
    parity under the rebuilt signature with its image's under o's.  Two
    signatures agree on every cycle exactly when their symmetric
    difference is an edge cut, that is, balanced (Harary 1953).
    """
    if not isinstance(o.bias, Signed):
        return False
    rebuilt, emap, fails = dec._rebuild(o)
    if fails or not isinstance(rebuilt.bias, Signed):
        return False
    moved = frozenset(emap[e] for e in rebuilt.bias.signature)
    return balanced_without(make_signed(o.graph, o.bias.signature ^ moved))


def _tangled_report(
    o: BiasedGraph, verdict: TangleVerdict, caps: Caps, first: bool
) -> ClassificationReport:
    trace: list[str] = []
    dec = _decompose(o, caps)
    labels: list[Label] = []
    if dec.nodes:
        if not _switching_accepts(dec, o):
            fails = dec.verify(o, caps)
            if fails:
                raise ClassifyError("decomposition does not recompose: " + fails[0])
        orders = ", ".join(str(n.t) for n in dec.nodes)
        trace.append(f"peeled {len(dec.nodes)} balanced summand(s) at cuts of order {orders}")
        labels.append(Label("T3", "TSum", None, None))
    core = dec.core
    if isinstance(core, WheelCore):
        trace.append(
            f"terminal core is a generalized wheel on {core.bias.graph.n} vertices"
        )
        if not dec.nodes:
            labels.append(
                Label("T1b", "GeneralizedWheel", core.descriptor, core.certificate)
            )
    else:
        trace.append(
            f"terminal core has no small cut ({core.bias.graph.n} vertices)"
        )
    capped: list[ResourceLimitError] = []
    if not (first and labels):
        msets = _maximal_balanced_sets(o, caps)
        for code, kind, detector in _DETECTORS:
            if any(label.code == code for label in labels):
                continue
            try:
                hit = detector(o, caps, msets)
            except ResourceLimitError as err:
                capped.append(err)
                trace.append(f"{kind} search stopped at its resource cap")
                continue
            if hit:
                d, cert, witness = hit
                labels.append(Label(code, kind, d, cert, witness))
                if first:
                    break
    if not labels:
        if capped:
            raise capped[0]
        raise ClassifyError("tangled input did not match any structure case")
    return ClassificationReport(verdict, tuple(labels), dec, tuple(trace))


def classify(
    o: BiasedGraph, caps: Caps = DEFAULT_CAPS, *, first: bool = False
) -> ClassificationReport:
    """Verdict plus every verified structure case of a simple connected input.

    Non-tangled inputs get their verdict and no labels.  Tangled inputs
    are decomposed at small cuts (a T3 label when anything peels, a
    generalized-wheel label when the terminal core is the hub-and-ring
    shape), then matched against every concrete family.  With ``first``
    the search stops at the first verified label.
    """
    if not o.graph.is_connected():
        raise ClassifyError("classification needs a connected input")
    if not is_simple(o):
        raise ClassifyError("classification needs a simple input")
    verdict = is_tangled(o, caps)
    if not isinstance(verdict, Tangled):
        return ClassificationReport(
            verdict,
            (),
            None,
            (f"verdict {type(verdict).__name__}: no structure case applies",),
        )
    return _tangled_report(o, verdict, caps, first)
