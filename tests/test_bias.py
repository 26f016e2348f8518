"""Bias semantics: signing, theta validation, completion, simplify."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import tanglekit.bias as bias_module
import tanglekit.graph as graph_module
from tanglekit.graph import (
    Cycle,
    GraphError,
    MultiGraph,
    cycles_inside,
    cycles_with,
    enumerate_cycles,
    enumerate_theta_subgraphs,
)
from tanglekit.limits import Caps, ResourceLimitError
from tanglekit.bias import (
    AllBalanced,
    AllUnbalanced,
    BiasedGraph,
    BiasError,
    Signed,
    balanced_without,
    complete_bias,
    is_simple,
    make_explicit,
    make_signed,
    simplify,
    switch_signature,
    validate_biased_graph,
    validate_theta,
)

from oracles import oracle_complete_bias, oracle_validate_theta, random_multigraph


def k4() -> MultiGraph:
    # edges 0:01 1:02 2:03 3:12 4:13 5:23
    return MultiGraph.from_pairs([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def theta_graph() -> MultiGraph:
    return MultiGraph.from_pairs([(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)])


# -- make_signed / balance -------------------------------------------------------


def test_c4_signature_parity():
    c4 = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)])
    assert make_signed(c4, set()).is_balanced()
    o = make_signed(c4, {0})
    assert not o.is_balanced()
    assert len(o.unbalanced_cycles()) == 1


def test_k4_perfect_matching_signature():
    o = make_signed(k4(), {0, 5})  # matching 01, 23
    tris = [c for c in o.cycles() if len(c) == 3]
    quads = [c for c in o.cycles() if len(c) == 4]
    # every triangle meets the matching in exactly one edge
    assert all(not o.balance(c) for c in tris)
    # every 4-cycle uses both matching edges or neither
    assert all(o.balance(c) for c in quads)
    assert validate_biased_graph(o) == ()


def test_signed_loop():
    g = MultiGraph.build([0], [(0, 0, 0)])
    o = make_signed(g, {0})
    assert not o.balance(Cycle((0,), (0,)))


def test_signature_must_exist():
    with pytest.raises(BiasError):
        make_signed(k4(), {99})


def test_all_balanced_and_all_unbalanced(monkeypatch):
    o = BiasedGraph(k4(), AllBalanced())
    assert o.is_balanced()
    u = BiasedGraph(k4(), AllUnbalanced())
    assert not u.balanced_cycles()
    # all-balanced is balanced, and all-unbalanced is balanced exactly when
    # the graph has no cycle, loops and digons included; neither enumerates
    rng = random.Random(41)
    graphs = [random_multigraph(rng, max_n=6, max_extra=rng.randint(0, 2), allow_loops=True) for _ in range(60)]
    graphs.append(MultiGraph.from_pairs([(0, 1), (2, 3)]))
    assert any(g.m >= g.n for g in graphs) and any(g.m < g.n for g in graphs)
    acyclic = [not enumerate_cycles(g) for g in graphs]
    monkeypatch.setattr(graph_module, "enumerate_cycles", lambda *args: pytest.fail("a cycle list was built"))
    for g, no_cycle in zip(graphs, acyclic):
        assert BiasedGraph(g, AllBalanced()).is_balanced()
        assert BiasedGraph(g, AllUnbalanced()).is_balanced() == no_cycle


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_switching_never_changes_bias(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=6, max_extra=5, allow_loops=True)
    sig = {e for e in g.edge_ids if rng.random() < 0.4}
    part = {v for v in g.vertices if rng.random() < 0.5}
    o1 = make_signed(g, sig)
    o2 = make_signed(g, switch_signature(g, sig, part))
    assert all(o1.balance(c) == o2.balance(c) for c in o1.cycles())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_signed_bias_is_theta_valid(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=6, max_extra=5, allow_loops=True)
    sig = {e for e in g.edge_ids if rng.random() < 0.4}
    o = make_signed(g, sig)
    assert validate_biased_graph(o) == ()
    # validate_biased_graph takes signed bias on trust; check the balanced cycles
    assert validate_theta(g, o.balanced_cycles()) == ()


def test_only_explicit_bias_is_theta_checked():
    # signed K6 has 197 cycles; scanning its balanced pairs would overrun
    # max_theta_pairs, and max_cycles=0 shows that nothing is enumerated
    g = MultiGraph.from_pairs(list(itertools.combinations(range(6), 2)))
    caps = Caps(max_cycles=0, max_theta_pairs=100)
    for spec in (Signed(frozenset({0, 9})), Signed(frozenset()), AllBalanced(), AllUnbalanced()):
        assert validate_biased_graph(BiasedGraph(g, spec), caps) == ()
    explicit = make_explicit(g, g.cycles(), check=False)
    with pytest.raises(ResourceLimitError) as err:
        validate_biased_graph(explicit, Caps(max_theta_pairs=100))
    assert err.value.stage == "theta check"


# -- explicit sets and validate_theta ----------------------------------------------


def test_explicit_single_quad_balanced():
    g = k4()
    quad = next(c for c in enumerate_cycles(g) if len(c) == 4)
    o = make_explicit(g, [quad])
    assert o.balance(quad)
    others = [c for c in o.cycles() if c != quad]
    assert all(not o.balance(c) for c in others)


def test_two_of_three_theta_cycles_is_violation():
    g = theta_graph()
    cyc = enumerate_cycles(g)
    with pytest.raises(BiasError):
        make_explicit(g, [cyc[0], cyc[1]])
    bad = validate_theta(g, {cyc[0], cyc[1]})
    assert len(bad) == 1


def test_all_balanced_k4_is_valid():
    g = k4()
    assert validate_theta(g, set(enumerate_cycles(g))) == ()


def test_validate_theta_matches_the_all_theta_scan():
    # balanced sets of random signatures (valid), and those sets with one
    # cycle added or dropped or a random subset instead (mostly violating)
    rng = random.Random(37)
    valid = violating = 0
    for _ in range(200):
        g = random_multigraph(rng, max_n=6, max_extra=7, allow_loops=True)
        cycles = enumerate_cycles(g)
        if not cycles:
            continue
        o = make_signed(g, [e for e in g.edge_ids if rng.random() < 0.5])
        bal = set(o.balanced_cycles())
        flipped = bal ^ {rng.choice(cycles)}
        subset = {c for c in cycles if rng.random() < 0.5}
        for chosen in (bal, flipped, subset):
            bad = validate_theta(g, chosen)
            assert bad == oracle_validate_theta(g, chosen)
            valid += not bad
            violating += bool(bad)
    assert valid >= 200 and violating >= 150


def test_validate_theta_rejects_a_cycle_of_another_graph():
    # edges 0, 1, 2 close a triangle in the other graph and a star in K4
    tri = enumerate_cycles(MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0)]))[0]
    assert tri.key == (0, 1, 2)
    with pytest.raises(BiasError, match="outside the graph"):
        validate_theta(k4(), [tri])
    # the triangle on edges 0, 1, 3 of K4 with its walk turned, and a loop
    tri = Cycle.from_edge_set(k4(), {0, 1, 3})
    assert tri == Cycle((0, 1, 3), (1, 0, 2)) and validate_theta(k4(), [tri]) == ()
    for c in (Cycle((0, 1, 3), (0, 1, 2)), Cycle((0,), (0,))):
        with pytest.raises(BiasError):
            validate_theta(k4(), [c])


def test_theta_check_counts_balanced_pairs():
    # K4 has 7 cycles, so all of them balanced make 21 pairs
    cycles = enumerate_cycles(k4())
    assert validate_theta(k4(), cycles, Caps(max_theta_pairs=21)) == ()
    with pytest.raises(ResourceLimitError) as err:
        validate_theta(k4(), cycles, Caps(max_theta_pairs=20))
    assert err.value.stage == "theta check"


def test_make_explicit_builds_each_cycle_once(monkeypatch):
    # edge-set items and Cycle items alike are built once from their edges
    g = k4()
    cycles = g.cycles()
    built = []
    real = Cycle.from_edge_set

    def counting(graph, edges):
        built.append(frozenset(edges))
        return real(graph, edges)

    monkeypatch.setattr(Cycle, "from_edge_set", staticmethod(counting))
    for items in ([c.edge_set for c in cycles], cycles):
        built.clear()
        o = make_explicit(g, items, check=False)
        assert sorted(built, key=sorted) == sorted((c.edge_set for c in cycles), key=sorted)
        assert o.bias.balanced == frozenset(cycles)


def test_foreign_cycle_rejected():
    g = k4()
    other = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    c5 = enumerate_cycles(other)[0]
    with pytest.raises((BiasError, GraphError)):
        make_explicit(g, [c5])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_rerouting_along_balanced_preserves_bias(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=6, max_extra=4)
    sig = {e for e in g.edge_ids if rng.random() < 0.4}
    o = make_signed(g, sig)
    for t in enumerate_theta_subgraphs(g):
        flags = sorted(o.balance(c) for c in t.cycles)
        # theta property: never exactly two balanced; with one balanced the
        # other two share a bias
        assert flags != [False, True, True]


def test_cycles_with_and_inside_filter_by_edges():
    # K4 with the quad 0-1-2-3 and one diagonal quad balanced: the two
    # quads through both diagonals over the base disagree in bias
    g = k4()
    quads = {c.edge_set: c for c in enumerate_cycles(g) if len(c) == 4}
    base = frozenset({0, 2, 3, 5})
    o = make_explicit(g, [quads[base], quads[frozenset({1, 2, 3, 4})]])
    assert cycles_inside(g, base) == (quads[base],)
    both = cycles_with(g, {1, 4}, base)
    assert {c.edge_set for c in both} == {frozenset({0, 1, 4, 5}), frozenset({1, 2, 3, 4})}
    assert [c.edge_set for c in both if not o.balance(c)] == [frozenset({0, 1, 4, 5})]
    # one diagonal over the base closes its two triangles
    assert {c.edge_set for c in cycles_with(g, {1}, base)} == {frozenset({0, 1, 3}), frozenset({1, 2, 5})}
    assert len(cycles_with(g, {1})) == 4
    for c in enumerate_cycles(g):
        assert (c in cycles_with(g, {0, 5})) == ({0, 5} <= c.edge_set)


# -- complete_bias ----------------------------------------------------------------


def test_complete_empty_partial_balances_nothing():
    o = complete_bias(k4(), {})
    assert o is not None and not o.balanced_cycles()


def test_complete_detects_infeasible():
    g = theta_graph()
    cyc = enumerate_cycles(g)
    assert complete_bias(g, {cyc[0]: True, cyc[1]: True, cyc[2]: False}) is None


def test_complete_propagates_forced_value():
    g = theta_graph()
    cyc = enumerate_cycles(g)
    o = complete_bias(g, {cyc[0]: True, cyc[1]: True})
    assert o is not None and o.balance(cyc[2])


def test_complete_output_passes_theta():
    g = k4()
    quad = next(c for c in enumerate_cycles(g) if len(c) == 4)
    o = complete_bias(g, {quad: True})
    assert o is not None
    assert validate_biased_graph(o) == ()


def test_complete_rejects_unknown_cycle():
    other = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0)])
    tri = enumerate_cycles(other)[0]
    with pytest.raises(BiasError):
        complete_bias(k4(), {tri: True})


def test_completion_matches_the_backtracking_oracle():
    # seeded partial assignments with both marks over small multigraphs
    # with loops and digons, against the search that tries unbalanced first
    rng = random.Random(1919)
    compared = infeasible = grown = loops = digons = 0
    while compared < 1000:
        g = random_multigraph(rng, max_n=5, max_extra=5, allow_loops=True)
        cycles = g.cycles()
        if not cycles:
            continue
        marked = rng.sample(cycles, rng.randint(1, min(6, len(cycles))))
        partial = {c: rng.random() < 0.7 for c in marked}
        got = complete_bias(g, partial)
        want = oracle_complete_bias(g, partial, default=False)
        assert (got and got.bias) == (want and want.bias)
        compared += 1
        infeasible += got is None
        grown += got is not None and len(got.bias.balanced) > sum(partial.values())
        loops += bool(g.loops)
        digons += any(len(c) == 2 for c in cycles)
    assert min(infeasible, grown) >= 80 and min(loops, digons) >= 500


def test_complete_stops_at_the_theta_pair_cap():
    # the three triangles at vertex 0 of K4 close to all 7 cycles, and the
    # closure tests each of their 21 pairs once
    g = k4()
    partial = {c: True for c in g.cycles() if len(c) == 3 and 0 in c.vertex_set}
    with pytest.raises(ResourceLimitError) as err:
        complete_bias(g, partial, Caps(max_theta_pairs=20))
    assert err.value.stage == "theta closure"
    o = complete_bias(g, partial, Caps(max_theta_pairs=21))
    assert o is not None and o.bias.balanced == frozenset(g.cycles())


def test_complete_reports_theta_violation_as_error(monkeypatch):
    # the final theta check is a typed error, so it also runs under -O
    g = theta_graph()
    monkeypatch.setattr(bias_module, "validate_biased_graph", lambda o, caps: enumerate_theta_subgraphs(g))
    with pytest.raises(BiasError, match="theta"):
        complete_bias(g, {})


# -- cycle cache ------------------------------------------------------------------


def test_cached_cycles_respect_a_tighter_cap():
    g = MultiGraph.from_pairs(list(itertools.combinations(range(5), 2)))
    o = make_signed(g, ())
    assert len(o.cycles()) == 37
    # the graph owns the list; every bias over it reads the same one
    assert o.cycles() is g.cycles()
    assert make_explicit(g, (), check=False).cycles() is g.cycles()
    for owner in (o, g):
        with pytest.raises(ResourceLimitError) as err:
            owner.cycles(Caps(max_cycles=5))
        assert err.value.stage == "enumerate_cycles"
        assert len(owner.cycles(Caps(max_cycles=37))) == 37


# -- simplify ---------------------------------------------------------------------


def test_simplify_drops_balanced_loop():
    g = MultiGraph.build([0], [(0, 0, 0)])
    o = make_signed(g, set())
    assert simplify(o).graph.m == 0
    assert simplify(make_signed(g, {0})).graph.m == 1  # unbalanced loop stays


def test_simplify_keeps_least_edge_of_balanced_class():
    g = MultiGraph.build([0, 1], [(0, 0, 1), (1, 0, 1), (2, 0, 1)])
    o = make_signed(g, set())  # all digons balanced: keep edge 0 only
    s = simplify(o)
    assert s.graph.edge_ids == (0,)
    assert is_simple(s)


def test_simplify_mixed_parallel_class():
    # signature {3}: digon {1,2} balanced, digons with 3 unbalanced
    g = MultiGraph.build([0, 1], [(0, 0, 0), (1, 0, 1), (2, 0, 1), (3, 0, 1)])
    o = make_signed(g, {3})
    s = simplify(o)
    assert sorted(s.graph.edge_ids) == [1, 3]
    assert is_simple(s)


def test_simplify_leaves_unbalanced_pair():
    g = MultiGraph.build([0, 1], [(0, 0, 1), (1, 0, 1)])
    o = make_signed(g, {0})
    assert simplify(o).graph.m == 2


def test_simplify_inherits_bias():
    g = MultiGraph.build([0, 1, 2], [(0, 0, 1), (1, 0, 1), (2, 1, 2), (3, 2, 0)])
    o = make_signed(g, set())
    s = simplify(o)
    assert s.graph.m == 3
    assert s.is_balanced()


# -- balance from the fundamental cycles of a spanning forest ----------------------


def theta_valid_k4_biases() -> list[BiasedGraph]:
    """Every theta-valid bias of K4: the subsets of its seven cycles that
    validate_theta accepts."""
    g = k4()
    cycles = g.cycles()
    subsets = (
        [c for i, c in enumerate(cycles) if mask >> i & 1] for mask in range(1 << len(cycles))
    )
    return [make_explicit(g, chosen, check=False) for chosen in subsets if not validate_theta(g, chosen)]


def test_balance_without_vertices_matches_the_cycle_list_on_every_bias_of_k4():
    biases = theta_valid_k4_biases()
    # eight are signed (all seven cycles balanced, or three); the other
    # eleven have at most two balanced cycles
    assert len(biases) == 19
    unbalanced = 0
    for o in biases:
        for k in range(3):
            for removed in itertools.combinations(o.graph.vertices, k):
                definition = not any(not o.balance(c) for c in o.delete_vertices(removed).cycles())
                assert balanced_without(o, removed) == definition
                unbalanced += not definition
        assert o.is_balanced() == balanced_without(o)
    # of the 19 * 11 deletions, the unbalanced ones
    assert unbalanced == 74
