"""Self-tests of the benchmark's own checks.

    python3 -m pytest tanglebench/test_checks.py -q

The switching-based verdict check must agree with brute force over edge
subsets (``tests/oracles.py``), must reject wrong verdicts, and the
relabelling must preserve what it checks.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import checks  # noqa: E402
import corpus  # noqa: E402
import oracles  # noqa: E402
from tanglekit import io  # noqa: E402
from tanglekit.families import build_family  # noqa: E402
from tanglekit.graph import Cycle, MultiGraph  # noqa: E402
from tanglekit.tangles import HasBlockingVertex, Tangled, TwoDisjointUnbalanced, is_tangled  # noqa: E402


def brute_force(g: MultiGraph, signature: frozenset[int]) -> tuple[str, frozenset[int]]:
    """Verdict and blocking vertices from every cycle found by subset scan."""
    unbalanced = []
    for edges in oracles.subset_cycles(g):
        if len(edges & signature) % 2:
            unbalanced.append(frozenset(v for e in edges for v in g.endpoints(e)))
    if not unbalanced:
        return "Balanced", frozenset(g.vertices)
    blockers = frozenset.intersection(*unbalanced)
    if blockers:
        return "HasBlockingVertex", blockers
    if any(not a & b for i, a in enumerate(unbalanced) for b in unbalanced[i + 1:]):
        return "TwoDisjointUnbalanced", blockers
    return "Tangled", blockers


def census() -> list[MultiGraph]:
    graphs = [g for n in (3, 4, 5) for g in oracles.connected_graph_census(n)]
    rng = random.Random(7)
    graphs += [oracles.random_multigraph(rng, max_n=6, max_extra=6, allow_loops=True) for _ in range(40)]
    return graphs


def signed_doc(g: MultiGraph, signature) -> checks.SignedDoc:
    return checks.SignedDoc(g.n, dict(g.edge_map), frozenset(signature))


def test_switching_check_agrees_with_subset_brute_force():
    rng = random.Random(11)
    seen = set()
    for g in census():
        for _ in range(12):
            sig = frozenset(e for e in g.edge_ids if rng.random() < 0.5)
            verdict, blockers = brute_force(g, sig)
            facts = checks.signed_facts(signed_doc(g, sig))
            assert facts.verdict == verdict, (g.edge_map, sorted(sig))
            if verdict != "Balanced":
                assert facts.blockers == blockers
            seen.add(verdict)
    assert seen == {"Balanced", "HasBlockingVertex", "TwoDisjointUnbalanced", "Tangled"}


def test_verdict_check_rejects_wrong_verdicts():
    # two triangles joined by an edge, both triangles odd: two disjoint
    # unbalanced cycles
    g = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    doc = signed_doc(g, {0, 3})
    left = Cycle.from_edge_set(g, {0, 1, 2})
    right = Cycle.from_edge_set(g, {3, 4, 5})
    assert checks.check_signed_verdict(doc, TwoDisjointUnbalanced(left, right)) == ([], 1)
    assert checks.check_signed_verdict(doc, Tangled())[0]
    assert checks.check_signed_verdict(doc, HasBlockingVertex(2))[0]
    # right verdict, wrong certificate: the same cycle twice
    assert checks.check_signed_verdict(doc, TwoDisjointUnbalanced(left, left))[0]
    # a balanced cycle offered as unbalanced
    balanced = signed_doc(g, {0})
    assert checks.check_signed_verdict(balanced, TwoDisjointUnbalanced(left, right))[0]


def test_blocking_vertex_check_needs_a_balanced_remainder():
    # two odd triangles sharing vertex 0: 0 blocks, 1 does not
    g = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    doc = signed_doc(g, {0, 3})
    assert checks.check_signed_verdict(doc, HasBlockingVertex(0)) == ([], 1)
    assert checks.check_signed_verdict(doc, HasBlockingVertex(1))[0]


def test_relabelling_keeps_the_biased_graph():
    rng = random.Random(3)
    built = corpus.family_descriptors()
    texts = [corpus.document(build_family(built[name])) for name in ("special-triple", "pp-signed-c6", "wheel-c4-part")]
    for _ in range(5):
        pairs = corpus.random_connected_pairs(rng, 7, 12)
        texts.append(corpus.document(corpus.signed_graph(pairs, corpus.random_signature(rng, pairs))))
    for text in texts:
        base = io.load(text)
        for _ in range(4):
            rel = corpus.relabel(text, rng)
            o = io.load(rel.text)
            assert sorted(map(sorted, o.graph.edge_map.values())) == sorted(
                sorted(rel.vertex_map[v] for v in base.graph.endpoints(e)) for e in base.graph.edge_ids
            )
            for c in base.cycles():
                moved = Cycle.from_edge_set(o.graph, {rel.edge_map[e] for e in c.edge_set})
                assert o.balance(moved) == base.balance(c)
            assert type(is_tangled(o)) is type(is_tangled(base))
