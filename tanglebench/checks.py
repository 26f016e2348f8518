"""Answer checks computed apart from the program.

Signed documents are read here with a reader of our own and judged by
switching (2-colouring) tests: a signed graph is balanced exactly when
its vertices 2-colour so that an edge changes colour exactly when it is
in the signature (Harary 1953).  A vertex blocks every unbalanced cycle
exactly when deleting it leaves a balanced graph, and two vertex-disjoint
unbalanced cycles exist exactly when the vertex set splits into two parts
that both induce unbalanced subgraphs.  Nothing here calls tanglekit's
searches; the linkage checks only read the paths the program returned.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SignedDoc:
    """The graph and signature of a ``bias signed`` document."""

    n: int
    edges: dict[int, tuple[int, int]]
    signature: frozenset[int]


def read_signed(text: str) -> SignedDoc | None:
    """The signed graph a document describes, or None for other bias kinds."""
    n = 0
    edges: dict[int, tuple[int, int]] = {}
    signature: frozenset[int] | None = None
    for line in text.splitlines():
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "v":
            n = int(tok[1])
        elif tok[0] == "e":
            edges[int(tok[1])] = (int(tok[2]), int(tok[3]))
        elif tok[0] == "bias":
            if tok[1] != "signed":
                return None
            signature = frozenset(int(x) for x in tok[2:])
    if signature is None:
        return None
    return SignedDoc(n, edges, signature)


def unbalanced_within(doc: SignedDoc, mask: int) -> bool:
    """True when the subgraph induced by the vertex bitmask is unbalanced."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for e, (u, v) in doc.edges.items():
        if not (mask >> u & 1 and mask >> v & 1):
            continue
        sign = 1 if e in doc.signature else 0
        if u == v:
            if sign:
                return True
            continue
        adj.setdefault(u, []).append((v, sign))
        adj.setdefault(v, []).append((u, sign))
    colour: dict[int, int] = {}
    for root in adj:
        if root in colour:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, sign in adj[x]:
                want = colour[x] ^ sign
                if y not in colour:
                    colour[y] = want
                    stack.append(y)
                elif colour[y] != want:
                    return True
    return False


@dataclass(frozen=True)
class SignedFacts:
    balanced: bool
    blockers: frozenset[int]
    disjoint_pair: bool

    @property
    def verdict(self) -> str:
        if self.balanced:
            return "Balanced"
        if self.blockers:
            return "HasBlockingVertex"
        if self.disjoint_pair:
            return "TwoDisjointUnbalanced"
        return "Tangled"


def signed_facts(doc: SignedDoc) -> SignedFacts:
    full = (1 << doc.n) - 1
    if not unbalanced_within(doc, full):
        return SignedFacts(True, frozenset(range(doc.n)), False)
    blockers = frozenset(v for v in range(doc.n) if not unbalanced_within(doc, full & ~(1 << v)))
    # Splits with vertex 0 on the first side cover every unordered split.
    pair = any(
        unbalanced_within(doc, s) and unbalanced_within(doc, full & ~s)
        for s in range(1, full + 1, 2)
        if s != full
    )
    return SignedFacts(False, blockers, pair)


def cycle_defects(edges: dict[int, tuple[int, int]], cycle_edges, cycle_vertices) -> list[str]:
    """Defects of a claimed cycle: its edges must form one connected
    2-regular subgraph on exactly the listed vertices."""
    es = list(cycle_edges)
    vs = set(cycle_vertices)
    if not es or any(e not in edges for e in es):
        return ["cycle uses unknown edges"]
    adj: dict[int, list[int]] = {}
    for e in es:
        u, v = edges[e]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if set(adj) != vs or any(len(nbrs) != 2 for nbrs in adj.values()):
        return ["edges do not form a 2-regular subgraph on the cycle's vertices"]
    start = next(iter(vs))
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return [] if seen == vs else ["cycle is not connected"]


def check_signed_verdict(doc: SignedDoc, verdict) -> tuple[list[str], int]:
    """Defects of the program's verdict on a signed graph, and the number of
    certificates (blocking vertex, disjoint pair) that passed."""
    facts = signed_facts(doc)
    got = type(verdict).__name__
    if got != facts.verdict:
        return [f"verdict {got}, switching test says {facts.verdict}"], 0
    if got == "HasBlockingVertex":
        v = verdict.vertex
        full = (1 << doc.n) - 1
        if not 0 <= v < doc.n or unbalanced_within(doc, full & ~(1 << v)):
            return [f"vertex {v} leaves an unbalanced remainder"], 0
        return [], 1
    if got == "TwoDisjointUnbalanced":
        bad: list[str] = []
        for c in (verdict.first, verdict.second):
            bad += cycle_defects(doc.edges, c.edge_set, c.vertex_set)
            if len(c.edge_set & doc.signature) % 2 == 0:
                bad.append(f"cycle {sorted(c.edge_set)} is balanced")
        if verdict.first.vertex_set & verdict.second.vertex_set:
            bad.append("the two cycles share a vertex")
        return bad, 0 if bad else 1
    return [], 0


def check_paths(edges: dict[int, tuple[int, int]], link, s1: int, t1: int, s2: int, t2: int) -> list[str]:
    """Defects of a claimed pair of vertex-disjoint paths s1-t1 and s2-t2."""
    bad: list[str] = []
    for path, (s, t) in ((link.first, (s1, t1)), (link.second, (s2, t2))):
        vs, es = tuple(path.vertices), tuple(path.edges)
        if not vs or (vs[0], vs[-1]) != (s, t):
            bad.append(f"path ends at {vs[:1]}..{vs[-1:]}, wanted {s}..{t}")
        if len(set(vs)) != len(vs) or len(es) != len(vs) - 1:
            bad.append("path is not simple")
            continue
        for (u, v), e in zip(zip(vs, vs[1:]), es):
            if e not in edges or set(edges[e]) != {u, v}:
                bad.append(f"edge {e} does not join {u} and {v}")
    if set(link.first.vertices) & set(link.second.vertices):
        bad.append("paths share a vertex")
    return bad
