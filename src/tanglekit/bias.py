"""Bias semantics for multigraphs: which cycles count as balanced.

The cycle list belongs to the graph (:meth:`MultiGraph.cycles`); a bias
only sorts it into balanced and unbalanced, as in Zaslavsky's pair (G, B).
A cycle's balance depends only on its edge set, so every bias answers it
from the edge set alone (:meth:`BiasedGraph.balance_of`).  A bias is
theta-consistent when no theta subgraph has exactly two balanced cycles.
Signed graphs (balanced = even intersection with a signature) are
theta-consistent for free (Zaslavsky 1989), and whether one is balanced is
a switching (2-colouring) test with no cycle enumeration (Harary 1953).
Any other bias is balanced exactly when the fundamental cycles of one
spanning forest are, by the theta property alone, so no bias kind lists
cycles to decide balance (:func:`balanced_without`).
A t-sum (t <= 3) and a peeled core carry a :class:`Lifted` bias, which
asks the first summand about each cycle and stores none.
Explicit cycle sets are validated by scanning pairs of balanced cycles
only, since a theta that breaks the rule is the union of its two balanced
cycles; those pairs count against ``max_theta_pairs``.  A partial
assignment can be completed by backtracking search, preferring a default
value on unconstrained cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .graph import (
    Cycle,
    MultiGraph,
    ThetaSubgraph,
    edge_path_vertices,
    enumerate_theta_subgraphs,
    fundamental_cycles,
)
from .limits import Caps, DEFAULT_CAPS, ResourceLimitError


class BiasError(ValueError):
    """Bias data inconsistent with the graph."""


# ---------------------------------------------------------------------------
# Bias specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signed:
    """Balanced iff the cycle meets the signature in an even number of edges."""

    signature: frozenset[int]


@dataclass(frozen=True)
class ExplicitSet:
    """The balanced cycles, stored canonically; everything else unbalanced."""

    balanced: frozenset[Cycle]

    @cached_property
    def edge_sets(self) -> frozenset[frozenset[int]]:
        """The edge sets of the balanced cycles: a cycle is its edge set."""
        return frozenset(c.edge_set for c in self.balanced)


@dataclass(frozen=True)
class AllBalanced:
    pass


@dataclass(frozen=True)
class AllUnbalanced:
    pass


@dataclass(frozen=True)
class Lifted:
    """The bias of a t-sum (t <= 3) with a balanced second summand.

    Side 1 keeps the first summand's edge ids and its bias ``first``;
    ``ends`` gives each side-2 edge its ends, and ``closing`` each sorted
    pair of glued vertices the first summand's edges that close a side-1
    path between them.  A cycle in side 1 keeps its balance, one in side 2
    is balanced, and a crossing one, whose side-2 path has as ends the odd
    degree vertices of its side-2 edges, has the balance of its side-1
    path closed up (:func:`~tanglekit.families.t_sum`).  A peeled core is
    a t-sum read backwards: its real edges are side 1 under the parent's
    bias, its virtual edges side 2, and each pair closes through the
    peeled side's q-path.  Theta-consistency: :func:`validate_biased_graph`.
    """

    first: BiasSpec
    ends: Mapping[int, tuple[int, int]]
    closing: Mapping[tuple[int, int], frozenset[int]]


BiasSpec = Signed | ExplicitSet | AllBalanced | AllUnbalanced | Lifted


def _balance(b: BiasSpec, edges: frozenset[int]) -> bool:
    """True when the cycle with these edges is balanced under b."""
    if isinstance(b, Signed):
        return len(edges & b.signature) % 2 == 0
    if isinstance(b, ExplicitSet):
        return edges in b.edge_sets
    if not isinstance(b, Lifted):
        return isinstance(b, AllBalanced)
    own = edges & b.ends.keys()
    if not own:
        return _balance(b.first, edges)
    if len(own) == len(edges):
        return True
    odd: set[int] = set()  # the ends of the side-2 path
    for e in own:
        odd.symmetric_difference_update(b.ends[e])
    return _balance(b.first, (edges - own) | b.closing[tuple(sorted(odd))])


@dataclass(frozen=True)
class BiasedGraph:
    graph: MultiGraph
    bias: BiasSpec

    def balance(self, c: Cycle) -> bool:
        """True when c is balanced."""
        return _balance(self.bias, c.edge_set)

    def balance_of(self, edges: frozenset[int]) -> bool:
        """True when the cycle with these edges is balanced.

        A cycle's balance depends only on its edge set, so no
        :class:`Cycle` is built.  The edges must form a cycle of the
        graph; that is not checked.
        """
        return _balance(self.bias, edges)

    def cycles(self, caps: Caps = DEFAULT_CAPS) -> tuple[Cycle, ...]:
        return self.graph.cycles(caps)

    def balanced_cycles(self, caps: Caps = DEFAULT_CAPS) -> tuple[Cycle, ...]:
        return tuple(c for c in self.cycles(caps) if self.balance(c))

    def unbalanced_cycles(self, caps: Caps = DEFAULT_CAPS) -> tuple[Cycle, ...]:
        return tuple(c for c in self.cycles(caps) if not self.balance(c))

    def is_balanced(self, caps: Caps = DEFAULT_CAPS) -> bool:
        """True when every cycle is balanced; no cycle is listed.

        It suffices that every fundamental cycle of one spanning forest is
        balanced, by the theta property alone (Zaslavsky, "Biased graphs.
        I", JCTB 47, 1989).  Induction on the number k of non-tree edges of
        a cycle C: for k = 1, C is a fundamental cycle.  For k >= 2 take a
        non-tree edge uv of C.  The tree path from u to v is not inside C,
        so it has a subpath Q whose ends lie on C and whose inner vertices
        do not.  Q splits C into two arcs, and each arc holds a non-tree
        edge, since Q and an all-tree arc would make a cycle of the tree.
        So the two cycles "Q plus an arc" have fewer than k non-tree edges
        each and are balanced; they form a theta with C, so C is balanced
        too.  Signed bias answers by a switching test instead (Harary
        1953).  This is :func:`balanced_without` with nothing removed;
        ``caps`` is not consumed.
        """
        return balanced_without(self)

    # -- inherited sub-biased-graphs ---------------------------------------

    def restrict_edges(self, edge_ids: Iterable[int], keep_vertices: Iterable[int] = ()) -> "BiasedGraph":
        sub = self.graph.subgraph(edge_ids, keep_vertices)
        return BiasedGraph(sub, self._inherit(sub))

    def delete_vertices(self, vertices: Iterable[int]) -> "BiasedGraph":
        sub = self.graph.delete_vertices(vertices)
        return BiasedGraph(sub, self._inherit(sub))

    def delete_edges(self, edge_ids: Iterable[int]) -> "BiasedGraph":
        sub = self.graph.delete_edges(edge_ids)
        return BiasedGraph(sub, self._inherit(sub))

    def _inherit(self, sub: MultiGraph) -> BiasSpec:
        """The bias of a subgraph; a lifted bias answers its cycles as it is."""
        b = self.bias
        if isinstance(b, Signed):
            return Signed(b.signature & sub.edge_id_set)
        if isinstance(b, ExplicitSet):
            keep = frozenset(c for c in b.balanced if c.edge_set <= sub.edge_id_set)
            return ExplicitSet(keep)
        return b


# ---------------------------------------------------------------------------
# Constructors and the theta property
# ---------------------------------------------------------------------------


def make_signed(g: MultiGraph, signature: Iterable[int]) -> BiasedGraph:
    sig = frozenset(signature)
    unknown = sig - g.edge_id_set
    if unknown:
        raise BiasError(f"signature uses unknown edges {sorted(unknown)}")
    return BiasedGraph(g, Signed(sig))


def make_explicit(
    g: MultiGraph,
    balanced: Iterable[Cycle | Iterable[int]],
    check: bool = True,
    caps: Caps = DEFAULT_CAPS,
) -> BiasedGraph:
    canon: set[Cycle] = set()
    for item in balanced:
        # a given Cycle is rebuilt from its edges too, to reject foreign cycles
        canon.add(Cycle.from_edge_set(g, item.edge_set if isinstance(item, Cycle) else item))
    o = BiasedGraph(g, ExplicitSet(frozenset(canon)))
    if check:
        bad = validate_theta(g, canon, caps=caps)
        if bad:
            raise BiasError(f"balanced set violates the theta property in {len(bad)} theta(s)")
    return o


def validate_theta(
    g: MultiGraph,
    balanced: Iterable[Cycle],
    caps: Caps = DEFAULT_CAPS,
) -> tuple[ThetaSubgraph, ...]:
    """Violating thetas (those with exactly 2 balanced cycles); empty = ok."""
    bal = set(balanced)
    for c in bal:
        if not c.edge_set <= g.edge_id_set:
            raise BiasError("balanced set mentions a cycle outside the graph")
    return _violating_thetas(g, bal, caps)


def validate_biased_graph(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> tuple[ThetaSubgraph, ...]:
    """Theta check for any bias spec, with no cycle enumeration.

    Signed, all-balanced and all-unbalanced biases pass by construction
    (Zaslavsky 1989); an explicit set is checked as stored.  A lifted bias
    passes whenever its first summand's does: a t-sum cycle meeting side 1
    has the balance of its image there, its side-2 path swapped for the
    shared edge on its ends.  In a theta of the sum with a cycle in side 2,
    the other two have one image, so one or three are balanced; with one
    in side 1, the images form a theta of the first summand; otherwise the
    theta crosses at a, b, c, and the images are the faces yab, yac, ybc of
    a subdivided K4 whose face abc, the shared triangle, is balanced, where
    yab and yac balanced make yacb balanced (a theta with abc) and so ybc
    (a theta with yac).  A peeled core's theta through virtual edges is the
    image of a parent theta that runs each virtual path, and two virtual
    edges at a branch vertex through a claw, through the balanced side,
    where paths close up alike.  A theta holding the virtual triangle is it
    plus one path, whose two cycles share a q-path.
    """
    b = o.bias
    if not isinstance(b, ExplicitSet):
        return ()
    return _violating_thetas(o.graph, b.balanced, caps)


def _violating_thetas(
    g: MultiGraph, balanced: Iterable[Cycle], caps: Caps
) -> tuple[ThetaSubgraph, ...]:
    """Thetas of g with exactly two cycles in `balanced`, in the order of
    :func:`enumerate_theta_subgraphs`.

    Such a theta is the union of its two balanced cycles, so only pairs of
    balanced cycles are scanned: a pair that forms a theta whose third
    cycle (the symmetric difference) is not balanced is a violation, found
    exactly once.  More than ``caps.max_theta_pairs`` pairs are refused.
    """
    bal = sorted(set(balanced), key=Cycle.sort_key)
    if len(bal) * (len(bal) - 1) // 2 > caps.max_theta_pairs:
        raise ResourceLimitError("theta check", caps.max_theta_pairs)
    bal_sets = {c.edge_set for c in bal}
    out = []
    for i, c1 in enumerate(bal):
        for c2 in bal[i + 1:]:
            inter = c1.edge_set & c2.edge_set
            if not inter:
                continue
            diff = c1.edge_set ^ c2.edge_set
            if diff in bal_sets:
                continue
            pv = edge_path_vertices(g, inter)
            if pv is None or (c1.vertex_set & c2.vertex_set) != pv:
                continue
            c3 = Cycle.from_edge_set(g, diff)
            trio = tuple(sorted((c1, c2, c3), key=Cycle.sort_key))
            out.append(ThetaSubgraph(trio, c1.edge_set | c2.edge_set))  # type: ignore[arg-type]
    out.sort(key=lambda t: sorted(t.edge_set))
    return tuple(out)


# ---------------------------------------------------------------------------
# Partial bias completion
# ---------------------------------------------------------------------------


PartialBias = Mapping[Cycle, bool]


def complete_bias(
    g: MultiGraph,
    partial: PartialBias,
    default: bool = False,
    caps: Caps = DEFAULT_CAPS,
) -> BiasedGraph | None:
    """Extend a partial balanced/unbalanced assignment to a full bias.

    Backtracking over cycles in (length, key) order, trying `default` first
    (True = balanced); per-theta constraint: balanced count is never exactly
    two.  Returns None when no extension exists.
    """
    cycles = g.cycles(caps)
    index = {c: i for i, c in enumerate(cycles)}
    for c in partial:
        if c not in index:
            raise BiasError("partial bias mentions a cycle outside the graph")
    thetas = enumerate_theta_subgraphs(g, cycles, caps=caps)
    triples = [tuple(index[c] for c in t.cycles) for t in thetas]
    involved: dict[int, list[int]] = {i: [] for i in range(len(cycles))}
    for ti, tri in enumerate(triples):
        for i in tri:
            involved[i].append(ti)

    value: list[bool | None] = [None] * len(cycles)

    def propagate(start: list[int], trail: list[int]) -> bool:
        queue = list(start)
        while queue:
            ci = queue.pop()
            for ti in involved[ci]:
                tri = triples[ti]
                vals = [value[i] for i in tri]
                known = [v for v in vals if v is not None]
                ntrue = sum(1 for v in known if v)
                if len(known) == 3:
                    if ntrue == 2:
                        return False
                    continue
                if len(known) == 2 and ntrue >= 1:
                    forced = ntrue == 2  # two balanced force the third balanced
                    free_i = next(i for i in tri if value[i] is None)
                    value[free_i] = forced
                    trail.append(free_i)
                    queue.append(free_i)
        return True

    seed_trail: list[int] = []
    for c, b in sorted(partial.items(), key=lambda kv: kv[0].sort_key()):
        i = index[c]
        if value[i] is None:
            value[i] = bool(b)
            seed_trail.append(i)
            if not propagate([i], seed_trail):
                return None
        elif value[i] != bool(b):
            return None

    order = sorted(range(len(cycles)), key=lambda i: cycles[i].sort_key())

    def try_assign(pos: int, attempt: bool) -> list[int] | None:
        i = order[pos]
        trail = [i]
        value[i] = attempt
        if propagate([i], trail):
            return trail
        for j in trail:
            value[j] = None
        return None

    # Iterative backtracking; each decision records whether the alternate
    # value was already tried.
    decisions: list[tuple[int, bool, list[int]]] = []
    pos = 0
    feasible = True
    while True:
        while pos < len(order) and value[order[pos]] is not None:
            pos += 1
        if pos == len(order):
            break
        trail = try_assign(pos, default)
        if trail is not None:
            decisions.append((pos, False, trail))
            pos += 1
            continue
        trail = try_assign(pos, not default)
        if trail is not None:
            decisions.append((pos, True, trail))
            pos += 1
            continue
        moved = False
        while decisions:
            dpos, tried_alt, dtrail = decisions.pop()
            for j in dtrail:
                value[j] = None
            if tried_alt:
                continue
            trail = try_assign(dpos, not default)
            if trail is not None:
                decisions.append((dpos, True, trail))
                pos = dpos + 1
                moved = True
                break
        if not moved:
            feasible = False
            break
    if not feasible:
        return None
    balanced = frozenset(c for c, i in index.items() if value[i])
    out = BiasedGraph(g, ExplicitSet(balanced))
    if validate_biased_graph(out, caps):
        raise BiasError("completion violated the theta property")
    return out


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def simplify(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> BiasedGraph:
    """Delete balanced loops and all but the least edge of each balanced
    parallel class (edges pairwise forming balanced digons)."""
    g = o.graph
    drop: set[int] = set()
    for e in g.edge_ids:
        if g.is_loop(e):
            u, _ = g.endpoints(e)
            if o.balance(Cycle((e,), (u,))):
                drop.add(e)
    for (u, v) in g.simple_pairs():
        cls = g.edges_between(u, v)
        if len(cls) < 2:
            continue
        # digon balance is an equivalence on the class (theta property on
        # parallel triples), so group and keep the least id per group
        groups: list[list[int]] = []
        for e in cls:
            placed = False
            for grp in groups:
                if o.balance(Cycle.from_walk((grp[0], e), (u, v))):
                    grp.append(e)
                    placed = True
                    break
            if not placed:
                groups.append([e])
        for grp in groups:
            for e in grp[1:]:
                drop.add(e)
    if not drop:
        return o
    return o.delete_edges(drop)


def is_simple(o: BiasedGraph) -> bool:
    """No balanced loops and no balanced parallel pairs."""
    g = o.graph
    for e in g.edge_ids:
        if g.is_loop(e):
            u, _ = g.endpoints(e)
            if o.balance(Cycle((e,), (u,))):
                return False
    for (u, v) in g.simple_pairs():
        cls = g.edges_between(u, v)
        for e, f in itertools.combinations(cls, 2):
            if o.balance(Cycle.from_walk((e, f), (u, v))):
                return False
    return True


def balanced_without(o: BiasedGraph, removed: Iterable[int] = ()) -> bool:
    """True when o - removed, for a set of vertices, is balanced.

    Signed bias asks for a switching (:func:`switching_potential`): one
    pass of 2-colouring (Harary 1953).  Any other bias asks
    the balance of each fundamental cycle of a spanning forest of
    o - removed (:func:`~tanglekit.graph.fundamental_cycles`), which
    suffices by the argument in :meth:`BiasedGraph.is_balanced`: one
    lookup per non-tree edge for an explicit set, and "no non-tree edge"
    for all-unbalanced bias.  The first unbalanced one ends the search.
    """
    g, b = o.graph, o.bias
    if isinstance(b, Signed):
        return switching_potential(g, b.signature, removed) is not None
    if isinstance(b, AllBalanced):
        return True
    return all(_balance(b, c) for c in fundamental_cycles(g, removed))


def switching_potential(
    g: MultiGraph, signature: frozenset[int], removed: Iterable[int] = ()
) -> dict[int, bool] | None:
    """Two sides of g - removed, or None when it is unbalanced.

    g - removed has no cycle meeting the signature oddly exactly when the
    vertices can be put on two sides so that the signature edges are the
    ones crossing (Harary 1953): one pass of 2-colouring, with no cycle
    enumeration.  Switching at the vertices mapped to True makes every
    edge of g - removed positive.
    """
    gone = set(removed)
    if any(e in signature and u not in gone for e, u in g.loops):
        return None  # a signed loop
    side: dict[int, bool] = {}
    for root in g.vertices:
        if root in gone or root in side:
            continue
        side[root] = False
        stack = [root]
        while stack:
            x = stack.pop()
            for y, e in g.adjacent(x):
                if y in gone:
                    continue
                want = side[x] != (e in signature)
                if y not in side:
                    side[y] = want
                    stack.append(y)
                elif side[y] != want:
                    return None
    return side


def switch_signature(g: MultiGraph, signature: Iterable[int], part: Iterable[int]) -> frozenset[int]:
    """Signature Δ δ(part): switching never changes any cycle's bias."""
    X = set(part)
    cut = {
        e for e in g.edge_ids
        if not g.is_loop(e) and (g.endpoints(e)[0] in X) != (g.endpoints(e)[1] in X)
    }
    return frozenset(set(signature) ^ cut)
