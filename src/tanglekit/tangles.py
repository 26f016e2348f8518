"""Blocking structure of biased graphs.

An unbalanced biased graph with no two vertex-disjoint unbalanced cycles
either has a vertex meeting every unbalanced cycle or is tangled.  This
module decides which, and recovers the finer blocking structure used by
the classifier: blocking pairs and the standard partition of the edges at
a blocking vertex.

For signed bias the verdict uses switching (2-colouring) tests instead of
the cycle list: the graph is balanced when it passes one, a vertex v
blocks when o - v passes one, a pair {v, w} blocks when o - {v, w} does,
and the disjoint-pair search tests o - V(C) for unbalanced cycles C taken
shortest first.  Its generated cycles count
against ``max_cycles`` and its switching tests against ``max_theta_pairs``.
Other bias kinds enumerate every cycle (``max_cycles``) and scan pairs of
unbalanced cycles (``max_theta_pairs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bias import BiasedGraph, Signed, switching_balanced
from .graph import Cycle, cycles_by_length
from .limits import DEFAULT_CAPS, Caps, ResourceLimitError


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


def _vertex_mask(index: dict[int, int], c: Cycle) -> int:
    m = 0
    for v in c.vertex_set:
        m |= 1 << index[v]
    return m


def find_disjoint_unbalanced_pair(
    o: BiasedGraph, caps: Caps = DEFAULT_CAPS
) -> tuple[Cycle, Cycle] | None:
    """First vertex-disjoint pair of unbalanced cycles, or None.

    "First" is in the order of the pairs (i, j), i < j, of the unbalanced
    cycles sorted by ``Cycle.sort_key``.  For signed bias that pair is read
    off switching tests: its first cycle is the first unbalanced C for which
    o - V(C) is unbalanced (an earlier partner of a later cycle would come
    first), and its second is the first unbalanced cycle of o - V(C).
    Cycles are generated one length at a time, counting against
    ``caps.max_cycles`` per graph searched; each switching test counts
    against ``caps.max_theta_pairs``.  A cycle whose vertex set contains
    that of a rejected one is skipped, as its remainder lies inside a
    balanced graph.  Other bias kinds scan the pairs of the full list of
    unbalanced cycles, at most ``caps.max_theta_pairs`` of them.
    """
    g = o.graph
    index = {v: i for i, v in enumerate(g.vertices)}
    if isinstance(o.bias, Signed):
        rejected: list[int] = []
        tests = 0
        for c in cycles_by_length(g, caps):
            if o.balance(c):
                continue
            mask = _vertex_mask(index, c)
            if any(r & mask == r for r in rejected):
                continue
            tests += 1
            if tests > caps.max_theta_pairs:
                raise ResourceLimitError("disjoint-pair scan", caps.max_theta_pairs)
            if switching_balanced(g, o.bias.signature, c.vertex_set):
                rejected.append(mask)
                continue
            rest = g.delete_vertices(c.vertex_set)
            return c, next(d for d in cycles_by_length(rest, caps) if not o.balance(d))
        return None
    unb = o.unbalanced_cycles(caps)
    masks = [_vertex_mask(index, c) for c in unb]
    for scanned, (i, j) in enumerate(combinations(range(len(unb)), 2), 1):
        if scanned > caps.max_theta_pairs:
            raise ResourceLimitError("disjoint-pair scan", caps.max_theta_pairs)
        if not masks[i] & masks[j]:
            return unb[i], unb[j]
    return None


def blocking_vertices(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> frozenset[int]:
    """Vertices meeting every unbalanced cycle; all of V if balanced.

    For signed bias, v qualifies when o - v passes the switching test.
    """
    if isinstance(o.bias, Signed):
        g, sig = o.graph, o.bias.signature
        return frozenset(v for v in g.vertices if switching_balanced(g, sig, (v,)))
    unb = o.unbalanced_cycles(caps)
    if not unb:
        return frozenset(o.graph.vertices)
    return frozenset.intersection(*(c.vertex_set for c in unb))


def blocking_pairs(
    o: BiasedGraph, caps: Caps = DEFAULT_CAPS
) -> tuple[tuple[int, int], ...]:
    """Pairs {v, w}, neither blocking alone, meeting every unbalanced cycle.

    For signed bias, {v, w} qualifies when o - {v, w} passes the switching
    test.
    """
    if isinstance(o.bias, Signed):
        if o.is_balanced(caps):
            return ()
        g, sig = o.graph, o.bias.signature
        free = [v for v in g.vertices if not switching_balanced(g, sig, (v,))]
        return tuple(p for p in combinations(free, 2) if switching_balanced(g, sig, p))
    unb = o.unbalanced_cycles(caps)
    if not unb:
        return ()
    blockers = blocking_vertices(o, caps)
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


def is_tangled(o: BiasedGraph, caps: Caps = DEFAULT_CAPS) -> TangleVerdict:
    """Classify the blocking structure; exactly one verdict ever applies.

    A blocking vertex rules out a disjoint pair (both cycles would need
    it), so the verdicts are mutually exclusive.
    """
    if o.is_balanced(caps):
        return Balanced()
    blockers = blocking_vertices(o, caps)
    if blockers:
        return HasBlockingVertex(min(blockers))
    pair = find_disjoint_unbalanced_pair(o, caps)
    if pair is not None:
        return TwoDisjointUnbalanced(*pair)
    return Tangled()


def standard_partition(
    o: BiasedGraph, v: int, caps: Caps = DEFAULT_CAPS
) -> StandardPartition:
    """Partition delta(v) by "every cycle through both edges is balanced".

    Requires v to be a blocking vertex with o - v connected; those
    hypotheses make the relation an equivalence.  Loops at v are not
    part of the partition.
    """
    g = o.graph
    if v not in g.vertex_set:
        raise TangleError(f"vertex {v} is not in the graph")
    if v not in blocking_vertices(o, caps):
        raise TangleError(f"vertex {v} is not a blocking vertex")
    if not g.delete_vertices([v]).is_connected():
        raise TangleError(f"deleting vertex {v} disconnects the graph")
    delta = g.delta(v)
    delta_set = frozenset(delta)
    bad_pairs: set[frozenset[int]] = set()
    for c in o.unbalanced_cycles(caps):
        used = c.edge_set & delta_set
        if len(used) == 2:
            bad_pairs.add(used)
    # components of the "equivalent" graph; verify transitivity afterwards
    parts: list[set[int]] = []
    remaining = list(delta)
    while remaining:
        seed = remaining.pop(0)
        part = {seed}
        grew = True
        while grew:
            grew = False
            for e in list(remaining):
                if any(frozenset({e, f}) not in bad_pairs for f in part):
                    part.add(e)
                    remaining.remove(e)
                    grew = True
        parts.append(part)
    for part in parts:
        for e, f in combinations(sorted(part), 2):
            if frozenset({e, f}) in bad_pairs:
                raise TangleError(
                    f"edges {e} and {f} at vertex {v} are linked through a "
                    "third edge but some cycle through both is unbalanced"
                )
    parts.sort(key=min)
    return StandardPartition(v, tuple(frozenset(p) for p in parts))
