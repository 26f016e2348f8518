"""Blocking structure of biased graphs.

An unbalanced biased graph with no two vertex-disjoint unbalanced cycles
either has a vertex meeting every unbalanced cycle or is tangled.  This
module decides which, and recovers the finer blocking structure used by
the classifier: blocking pairs and the standard partition of the edges at
a blocking vertex.

Every question is one code path for every bias kind, built on whether a
graph, or the graph left after deleting some vertices, is balanced
(:func:`~tanglekit.bias.balanced_without`: a switching test for signed
bias, fundamental cycles of a spanning forest otherwise).  A vertex v
blocks when o - v is balanced, and a pair {v, w} blocks when o - {v, w}
is.  Two disjoint unbalanced cycles are found from the vertex sets of
the loops, parallel classes and chordless cycles of the support: the
first set S that leaves both o[S] and o - S unbalanced gives the pair,
one unbalanced fundamental cycle on each side
(:func:`find_disjoint_unbalanced_pair`).  So no verdict lists a cycle,
and a standard partition tests one cycle per edge and part.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .bias import BiasedGraph, balanced_without
from .graph import Cycle, chordless_vertex_sets, fundamental_cycles
from .limits import DEFAULT_CAPS, Budget, Caps


class TangleError(ValueError):
    """A blocking-structure precondition or certified law failed."""


@dataclass(frozen=True)
class Balanced:
    """Every cycle is balanced."""


@dataclass(frozen=True)
class HasBlockingVertex:
    """Some vertex meets every unbalanced cycle."""

    vertex: int


@dataclass(frozen=True)
class TwoDisjointUnbalanced:
    """Two vertex-disjoint unbalanced cycles exist."""

    first: Cycle
    second: Cycle


@dataclass(frozen=True)
class Tangled:
    """Unbalanced, no blocking vertex, no two disjoint unbalanced cycles."""


TangleVerdict = Balanced | HasBlockingVertex | TwoDisjointUnbalanced | Tangled


@dataclass(frozen=True)
class StandardPartition:
    """Equivalence classes of the non-loop edges at a blocking vertex.

    Two edges are equivalent when every cycle through both is balanced.
    A non-loop cycle is then unbalanced iff it enters and leaves the
    vertex through different parts.
    """

    vertex: int
    parts: tuple[frozenset[int], ...]

    def part_of(self, edge_id: int) -> int:
        for i, part in enumerate(self.parts):
            if edge_id in part:
                return i
        raise KeyError(edge_id)


def find_disjoint_unbalanced_pair(
    o: BiasedGraph, caps: Caps = DEFAULT_CAPS
) -> tuple[Cycle, Cycle] | None:
    """Two vertex-disjoint unbalanced cycles, or None when o has none.

    A chord splits an unbalanced cycle into two cycles on fewer vertices,
    which form a theta with it, so by the theta property one of them is
    unbalanced.  So if a pair exists, one exists whose first cycle has the
    vertex set of a loop, of a parallel class or of a chordless cycle of
    the simple support.  A pair therefore exists exactly when some such
    vertex set S leaves both o[S] and o - S unbalanced.  The scan walks
    the loop vertices and the parallel pairs, both sorted, then
    :func:`~tanglekit.graph.chordless_vertex_sets`, and stops at the first
    such S: two tests of :func:`~tanglekit.bias.balanced_without` per set,
    each set counted against ``caps.max_theta_pairs``.  This holds for
    every bias kind.

    The pair is read off S: the first unbalanced fundamental cycle of
    o[S] and the first of o - S (:func:`_unbalanced_fundamental_cycle`).
    Both reads find one.  For a signed bias, a graph whose fundamental
    cycles all meet the signature evenly has a switching that makes every
    edge positive, built along the forest (Harary 1953), so it is
    balanced.  Any other bias was tested on these very cycles, since
    ``balanced_without`` reads the same forest.  The two cycles lie in S
    and in V - S, so they are disjoint.  Balance tests are exact for every
    bias, so a signed graph and its explicit copy stop at the same S and
    read the same pair.
    """
    g = o.graph
    loops = [frozenset((v,)) for v in sorted({v for _, v in g.loops})]
    parallel = [frozenset(p) for p in g.simple_pairs() if len(g.edges_between(*p)) > 1]
    budget = Budget("disjoint-pair scan", caps.max_theta_pairs)
    for part in chain(loops, parallel, chordless_vertex_sets(g, caps)):
        budget.spend()
        rest = g.vertex_set - part
        if not balanced_without(o, rest) and not balanced_without(o, part):
            return _unbalanced_fundamental_cycle(o, rest), _unbalanced_fundamental_cycle(o, part)
    return None


def _unbalanced_fundamental_cycle(o: BiasedGraph, removed: frozenset[int]) -> Cycle:
    """The first unbalanced fundamental cycle of o - removed, which must be
    unbalanced; the proof that one exists is in
    :func:`find_disjoint_unbalanced_pair`."""
    for _, edges in fundamental_cycles(o.graph, removed):
        if not o.balance_of(edges):
            return Cycle.from_edge_set(o.graph, edges)


def disjoint_unbalanced_pair_exists(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> bool:
    """Whether o has two vertex-disjoint unbalanced cycles
    (:func:`find_disjoint_unbalanced_pair`); no cycle is listed."""
    return find_disjoint_unbalanced_pair(o, caps) is not None


def blocking_vertices(o: BiasedGraph) -> frozenset[int]:
    """Vertices meeting every unbalanced cycle; all of V if balanced.

    v qualifies when o - v is balanced, one balance test per vertex.
    """
    return frozenset(v for v in o.graph.vertices if balanced_without(o, (v,)))


def blocking_pairs(o: BiasedGraph) -> tuple[tuple[int, int], ...]:
    """Pairs {v, w}, neither blocking alone, meeting every unbalanced cycle.

    {v, w} qualifies when o - {v, w} is balanced.
    """
    if o.is_balanced():
        return ()
    free = [v for v in o.graph.vertices if not balanced_without(o, (v,))]
    return tuple(p for p in combinations(free, 2) if balanced_without(o, p))


def is_tangled(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> TangleVerdict:
    """Classify the blocking structure; exactly one verdict ever applies.

    A blocking vertex rules out a disjoint pair (both cycles would need
    it), so the verdicts are mutually exclusive.  The least blocking
    vertex ends the search, and one scan decides a disjoint pair and
    names it (:func:`find_disjoint_unbalanced_pair`), so no verdict lists
    a cycle.  Only that scan counts against ``caps``.
    """
    if o.is_balanced():
        return Balanced()
    for v in o.graph.vertices:
        if balanced_without(o, (v,)):
            return HasBlockingVertex(v)
    pair = find_disjoint_unbalanced_pair(o, caps)
    return Tangled() if pair is None else TwoDisjointUnbalanced(*pair)


def standard_partition(o: BiasedGraph, v: int) -> StandardPartition:
    """Partition delta(v) by "every cycle through both edges is balanced".

    Requires v to be a blocking vertex with o - v connected.  Loops at v
    are not part of the partition, and no cycle is listed.

    Then one path decides each pair.  Take edges e = vx and f = vy and
    two x-y paths P and Q of the balanced graph o - v; the cycles e P f
    and e Q f have the same balance.  Exchange one detour at a time: let
    P agree with Q up to the vertex a where Q leaves it, and let b be
    the first vertex of Q after a that lies on P.  b lies on P after a,
    so replacing P's a-b segment by Q's gives a path P' that agrees with
    Q for longer.  Three a-b paths are internally disjoint: the two
    segments, and the path back along P from a to x, through e, v and f,
    and from y back along P to b.  So the cycles e P f, e P' f and the
    cycle on the two segments, which lies in o - v and is balanced, form
    a theta, and by the theta property e P f and e P' f are balanced
    alike.  Repeating ends at Q.  So each edge e = vx goes into the
    first part whose first edge f = vy closes a balanced cycle with e
    through ``rest.path_between(x, y)``, where rest is o - v.  For three
    edges at v, the tree paths of o - v between their ends meet at one
    vertex c, and the three paths from v to c form a theta: two
    balanced cycles through v make the third balanced, and the relation
    is transitive.  An edge that closes balanced cycles with the first
    edges of two parts shows a bias that breaks the theta property, and
    raises :class:`TangleError`.
    """
    g = o.graph
    if v not in g.vertex_set:
        raise TangleError(f"vertex {v} is not in the graph")
    if not balanced_without(o, (v,)):
        raise TangleError(f"vertex {v} is not a blocking vertex")
    rest = g.delete_vertices([v])
    if not rest.is_connected():
        raise TangleError(f"deleting vertex {v} disconnects the graph")
    # (first edge, its end other than v, the part), parts in order of first edge
    parts: list[tuple[int, int, set[int]]] = []
    for e in g.delta(v):
        x = g.other_end(e, v)
        hits = [
            (f, part)
            for f, y, part in parts
            if o.balance_of(frozenset((e, f, *rest.path_between(x, y))))
        ]
        if len(hits) > 1:
            raise TangleError(
                f"edge {e} at vertex {v} closes balanced cycles with edges "
                f"{hits[0][0]} and {hits[1][0]}, which close an unbalanced one"
            )
        if hits:
            hits[0][1].add(e)
        else:
            parts.append((e, x, {e}))
    return StandardPartition(v, tuple(frozenset(part) for _, _, part in parts))
