"""Family builders: round trips, tangledness, t-sums, certificates."""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from tanglekit.bias import (
    AllBalanced,
    BiasedGraph,
    Lifted,
    Signed,
    make_explicit,
    make_signed,
    simplify,
    switch_signature,
    validate_biased_graph,
)
from tanglekit.families import (
    FamilyDescriptor,
    FamilyError,
    KINDS,
    build_family,
    describe_k5_family,
    describe_pp_signed,
    _plan,
    t_sum,
    verify_family,
)
from tanglekit.embedding import ordered_planarity
from tanglekit.graph import Cycle, MultiGraph
from tanglekit.limits import DEFAULT_CAPS
from tanglekit.tangles import Tangled, blocking_pairs, is_tangled

from oracles import random_multigraph


def assert_round_trip(o, d):
    cert = verify_family(o, d)
    assert cert.passed, [c for c in cert.checks if not c.ok]
    assert is_tangled(o) == Tangled()


# -- generalized wheel -----------------------------------------------------------


def digon_rim_wheel() -> FamilyDescriptor:
    # hub 0; two single-edge parts between the hinges; two parallel spoke pairs
    g = MultiGraph.from_pairs([(1, 2), (1, 2), (0, 1), (0, 1), (0, 2), (0, 2)])
    return FamilyDescriptor(
        "GeneralizedWheel",
        g,
        {
            "hub": 0,
            "hinges": (1, 2),
            "parts": (frozenset({0}), frozenset({1})),
            "xy": (None, None),
        },
    )


def c4_part_wheel() -> FamilyDescriptor:
    # part 0 = C4 on 1..4 with X = {2}, Y = {4}; part 1 = chord 1-3
    g = MultiGraph.from_pairs(
        [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (0, 2), (0, 4)]
    )
    return FamilyDescriptor(
        "GeneralizedWheel",
        g,
        {
            "hub": 0,
            "hinges": (1, 3),
            "parts": (frozenset({0, 1, 2, 3}), frozenset({4})),
            "xy": ((frozenset({2}), frozenset({4})), None),
        },
    )


def triangle_rim_wheel() -> FamilyDescriptor:
    # three single-edge parts around the hub, parallel spoke pair to each corner
    g = MultiGraph.from_pairs(
        [(1, 2), (2, 3), (3, 1), (0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (0, 3)]
    )
    return FamilyDescriptor(
        "GeneralizedWheel",
        g,
        {
            "hub": 0,
            "hinges": (2, 3, 1),
            "parts": (frozenset({0}), frozenset({1}), frozenset({2})),
            "xy": (None, None, None),
        },
    )


def test_wheel_digon_rim_tangled():
    d = digon_rim_wheel()
    o = build_family(d)
    assert_round_trip(o, d)
    # rim digon unbalanced, forced by the full-rim clause
    assert not o.balance(Cycle.from_edge_set(o.graph, {0, 1}))


def test_wheel_c4_part():
    d = c4_part_wheel()
    o = build_family(d)
    assert_round_trip(o, d)
    # the part's own cycle is balanced; split spoke-pair cycles are not
    assert o.balance(Cycle.from_edge_set(o.graph, {0, 1, 2, 3}))
    assert not o.balance(Cycle.from_edge_set(o.graph, {5, 6, 1, 2}))
    assert not o.balance(Cycle.from_edge_set(o.graph, {5, 6, 0, 3}))


def test_wheel_triangle_rim_tangled():
    d = triangle_rim_wheel()
    o = build_family(d)
    assert_round_trip(o, d)
    assert not o.balance(Cycle.from_edge_set(o.graph, {0, 1, 2}))


def test_wheel_rejects_nonplanar_split():
    # hinges adjacent on the C4, X/Y interleaved with them: clause (e) fails
    g = MultiGraph.from_pairs(
        [(1, 2), (2, 3), (3, 4), (4, 1), (1, 2), (0, 3), (0, 4)]
    )
    d = FamilyDescriptor(
        "GeneralizedWheel",
        g,
        {
            "hub": 0,
            "hinges": (1, 2),
            "parts": (frozenset({0, 1, 2, 3}), frozenset({4})),
            "xy": ((frozenset({3}), frozenset({4})), None),
        },
    )
    with pytest.raises(FamilyError, match="planar"):
        build_family(d)


def test_wheel_rejects_bad_ring():
    g = MultiGraph.from_pairs([(1, 2), (2, 3), (0, 1), (0, 2)])
    d = FamilyDescriptor(
        "GeneralizedWheel",
        g,
        {
            "hub": 0,
            "hinges": (1, 2),
            "parts": (frozenset({0}), frozenset({1})),
            "xy": (None, None),
        },
    )
    with pytest.raises(FamilyError):
        build_family(d)


# -- criss-cross -----------------------------------------------------------------


def c4_criss_cross() -> FamilyDescriptor:
    g = MultiGraph.from_pairs(
        [
            (1, 2), (2, 3), (3, 4), (4, 1),
            (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 3), (2, 4),
        ]
    )
    return FamilyDescriptor(
        "CrissCross",
        g,
        {
            "h_edges": frozenset({0, 1, 2, 3}),
            "u": (1, 2, 3, 4),
            "w": 0,
            "e": (4, 5, 6, 7),
            "f": (8, 9),
        },
    )


def wheel_criss_cross() -> FamilyDescriptor:
    # core = C4 plus an interior degree-4 vertex
    g = MultiGraph.from_pairs(
        [
            (1, 2), (2, 3), (3, 4), (4, 1),
            (5, 1), (5, 2), (5, 3), (5, 4),
            (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 3), (2, 4),
        ]
    )
    return FamilyDescriptor(
        "CrissCross",
        g,
        {
            "h_edges": frozenset(range(8)),
            "u": (1, 2, 3, 4),
            "w": 0,
            "e": (8, 9, 10, 11),
            "f": (12, 13),
        },
    )


def test_criss_cross_c4():
    d = c4_criss_cross()
    o = build_family(d)
    assert o.graph.n == 5
    assert_round_trip(o, d)
    assert o.balance(Cycle.from_edge_set(o.graph, {4, 6, 8}))
    assert o.balance(Cycle.from_edge_set(o.graph, {5, 7, 9}))


def test_criss_cross_wheel_core():
    d = wheel_criss_cross()
    o = build_family(d)
    assert_round_trip(o, d)


def test_criss_cross_symmetric_role_permutation():
    d = c4_criss_cross()
    o = build_family(d)
    rotated = FamilyDescriptor(
        "CrissCross",
        d.graph,
        {
            "h_edges": frozenset({0, 1, 2, 3}),
            "u": (2, 3, 4, 1),
            "w": 0,
            "e": (5, 6, 7, 4),
            "f": (9, 8),
        },
    )
    assert verify_family(o, rotated).passed


def test_criss_cross_rejects_nonplanar_order():
    g = MultiGraph.from_pairs(
        [
            (1, 2), (2, 3), (3, 4), (4, 1),
            (0, 1), (0, 3), (0, 2), (0, 4),
            (1, 2), (3, 4),
        ]
    )
    d = FamilyDescriptor(
        "CrissCross",
        g,
        {
            "h_edges": frozenset({0, 1, 2, 3}),
            "u": (1, 3, 2, 4),
            "w": 0,
            "e": (4, 5, 6, 7),
            "f": (8, 9),
        },
    )
    with pytest.raises(FamilyError, match="planar"):
        build_family(d)


# -- fat triangle ----------------------------------------------------------------


def minimal_fat_triangle() -> FamilyDescriptor:
    g = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)])
    return FamilyDescriptor(
        "FatTriangle",
        g,
        {
            "v": (0, 1, 2),
            "f12": frozenset({3}),
            "f23": frozenset({4}),
            "f31": frozenset({5}),
        },
    )


def k4_fat_triangle() -> FamilyDescriptor:
    g = MultiGraph.from_pairs(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1), (1, 2), (2, 0)]
    )
    return FamilyDescriptor(
        "FatTriangle",
        g,
        {
            "v": (0, 1, 2),
            "f12": frozenset({6}),
            "f23": frozenset({7}),
            "f31": frozenset({8}),
        },
    )


def test_fat_triangle_minimal():
    d = minimal_fat_triangle()
    o = build_family(d)
    assert o.graph.n == 3
    assert_round_trip(o, d)
    # every base-plus-one-extra digon is unbalanced
    for base, extra in ((0, 3), (1, 4), (2, 5)):
        assert not o.balance(Cycle.from_edge_set(o.graph, {base, extra}))


def test_fat_triangle_k4_base():
    d = k4_fat_triangle()
    o = build_family(d)
    assert_round_trip(o, d)
    assert o.balance(Cycle.from_edge_set(o.graph, {0, 1, 3}))


def test_fat_triangle_rejects_empty_bundle():
    g = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0), (1, 2), (2, 0)])
    d = FamilyDescriptor(
        "FatTriangle",
        g,
        {
            "v": (0, 1, 2),
            "f12": frozenset(),
            "f23": frozenset({3}),
            "f31": frozenset({4}),
        },
    )
    with pytest.raises(FamilyError, match="nonempty"):
        build_family(d)


# -- projective planar specials --------------------------------------------------


def lemma_style_special_triple() -> FamilyDescriptor:
    # base = C4 on 1..4 plus the leg 0-2; remaining edges at 0 become the
    # star and the legs, 1-3 the cross edge
    g = MultiGraph.from_pairs(
        [
            (1, 2), (2, 3), (3, 4), (4, 1),
            (0, 2),
            (0, 4),
            (0, 1),
            (0, 3),
            (1, 3),
        ]
    )
    return FamilyDescriptor(
        "PPSpecialTriple",
        g,
        {
            "x": 0,
            "y1": 1,
            "y2": 3,
            "X": frozenset({4}),
            "F": frozenset({5}),
            "e": (6,),
            "g": (7,),
            "f": 8,
        },
    )


def minimal_special_pair() -> FamilyDescriptor:
    g = MultiGraph.from_pairs([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4)])
    return FamilyDescriptor(
        "PPSpecialPair",
        g,
        {
            "x": 1,
            "y": 2,
            "X": frozenset({3}),
            "Y": frozenset({4}),
            "fx": frozenset({4}),
            "fy": frozenset({5}),
            "e": (),
        },
    )


def minimal_special_vertex() -> FamilyDescriptor:
    # halves are triangles 1,2,3 and 4,5,6; apex 0
    g = MultiGraph.from_pairs(
        [
            (1, 2), (2, 3), (3, 1),
            (4, 5), (5, 6), (6, 4),
            (5, 3),
            (2, 6),
            (0, 5), (0, 3),
            (0, 2), (0, 6),
            (1, 4),
        ]
    )
    return FamilyDescriptor(
        "PPSpecialVertex",
        g,
        {
            "h1_edges": frozenset({0, 1, 2}),
            "h2_edges": frozenset({3, 4, 5}),
            "xs": (1,),
            "ys": (4,),
            "u": (2, 6),
            "z": (5, 3),
            "w": 0,
            "bridge_edges": (6, 7),
            "hub_edges": (8, 9),
            "g": (10, 11),
            "f": (12,),
        },
    )


def test_special_triple_from_balanced_base_construction():
    d = lemma_style_special_triple()
    o = build_family(d)
    assert o.graph.n == 5
    assert_round_trip(o, d)
    assert o.balance(Cycle.from_edge_set(o.graph, {0, 1, 2, 3}))


def test_special_pair_minimal_has_blocking_pair():
    d = minimal_special_pair()
    o = build_family(d)
    assert_round_trip(o, d)
    # with no junction edges, the two star centres block every unbalanced cycle
    assert (1, 2) in blocking_pairs(o)


def test_special_vertex_minimal():
    d = minimal_special_vertex()
    o = build_family(d)
    assert o.graph.n == 7
    assert_round_trip(o, d)
    # the two hub chords together close balanced cycles through the core
    core = frozenset({0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
    for c in o.cycles():
        if {10, 11} <= c.edge_set and c.edge_set - {10, 11} <= core:
            assert o.balance(c)


def test_special_triple_requires_first_leg():
    d = lemma_style_special_triple()
    roles = dict(d.roles)
    roles["e"], roles["g"] = (), (6, 7)
    with pytest.raises(FamilyError):
        build_family(FamilyDescriptor(d.kind, d.graph, roles))


def test_special_pair_star_mismatch_rejected():
    d = minimal_special_pair()
    roles = dict(d.roles)
    roles["fx"], roles["fy"] = frozenset({5}), frozenset({4})
    with pytest.raises(FamilyError):
        build_family(FamilyDescriptor(d.kind, d.graph, roles))


def _planar_with_junction(g: MultiGraph, prefix: tuple[int, ...], xs: frozenset[int], ys: frozenset[int]) -> bool:
    """The boundary clause as it was: one planarity test per order of X and of Y around a shared vertex."""
    shared = xs & ys
    if not shared:
        return ordered_planarity(g, (*prefix, xs, ys)) is not None
    (v,) = shared
    for px in permutations(sorted(xs - {v})):
        for py in permutations(sorted(ys - {v})):
            if ordered_planarity(g, (*prefix, *px, v, *py)) is not None:
                return True
    return False


def _special_pair_on(base: MultiGraph, xs: frozenset[int], ys: frozenset[int]) -> FamilyDescriptor:
    """Stars at x = n and y = n + 1 on the attachment sets, no x-y edge."""
    x, y = base.n, base.n + 1
    rows = [(e, *base.endpoints(e)) for e in base.edge_ids]
    fx = [(base.m + i, x, v) for i, v in enumerate(sorted(xs))]
    fy = [(base.m + len(fx) + i, y, v) for i, v in enumerate(sorted(ys))]
    g = MultiGraph.build([*base.vertices, x, y], rows + fx + fy)
    roles = {"x": x, "y": y, "X": xs, "Y": ys, "fx": frozenset(e for e, _, _ in fx),
             "fy": frozenset(e for e, _, _ in fy), "e": ()}
    return FamilyDescriptor("PPSpecialPair", g, roles)


def test_special_pair_boundary_clause_matches_the_junction_loop():
    """Set entries around the shared vertex give the double loop's verdict, shared vertex or not."""
    rng = random.Random("special-pair/boundary")
    verdicts = {(shared, ok): 0 for shared in (False, True) for ok in (False, True)}
    while sum(verdicts.values()) < 300:
        base = random_multigraph(rng, max_n=8, max_extra=8, allow_loops=True)
        if base.n < 4:
            continue
        picked = rng.sample(sorted(base.vertex_set), rng.randint(3, min(6, base.n)))
        shared = rng.random() < 0.5
        cut = rng.randint(1, len(picked) - 1 - shared)
        xs, ys = frozenset(picked[: cut + shared]), frozenset(picked[cut:])
        d = _special_pair_on(base, xs, ys)
        (check,) = (c for c in _plan(d, DEFAULT_CAPS).structure if c.name == "boundary order planar")
        stars_off = d.graph.subgraph(base.edge_ids, d.graph.vertex_set)
        assert check.ok == _planar_with_junction(stars_off, (d.roles["x"], d.roles["y"]), xs, ys)
        verdicts[shared, check.ok] += 1
    assert all(verdicts.values())


# -- tricoloured -----------------------------------------------------------------


def c6_ring():
    pv = tuple(frozenset({i, (i + 1) % 6}) for i in range(6))
    pe = tuple(frozenset({i}) for i in range(6))
    return pv, pe


def consecutive_tricoloured() -> FamilyDescriptor:
    g = MultiGraph.from_pairs(
        [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4), (2, 5)]
    )
    pv, pe = c6_ring()
    return FamilyDescriptor(
        "Tricoloured",
        g,
        {
            "part_vertices": pv,
            "part_edges": pe,
            "hinges": (1, 2, 3, 4, 5, 0),
            "I": frozenset({0, 1, 2}),
            "xs": (0, 1, 2, None, None, None),
            "ysets": (frozenset({3}), frozenset({4}), frozenset({5}), None, None, None),
            "esets": ((6,), (7,), (8,), None, None, None),
        },
    )


def alternating_tricoloured() -> FamilyDescriptor:
    g = MultiGraph.from_pairs(
        [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (2, 5), (4, 1)]
    )
    pv, pe = c6_ring()
    return FamilyDescriptor(
        "Tricoloured",
        g,
        {
            "part_vertices": pv,
            "part_edges": pe,
            "hinges": (1, 2, 3, 4, 5, 0),
            "I": frozenset({0, 2, 4}),
            "xs": (0, None, 2, None, 4, None),
            "ysets": (frozenset({3}), None, frozenset({5}), None, frozenset({1}), None),
            "esets": ((6,), None, (7,), None, (8,), None),
        },
    )


def degenerate_tricoloured() -> FamilyDescriptor:
    # one single-vertex part; its two hinges collapse onto that vertex
    g = MultiGraph.from_pairs(
        [(i, (i + 1) % 7) for i in range(7)] + [(0, 4), (1, 5), (2, 6)]
    )
    return FamilyDescriptor(
        "Tricoloured",
        g,
        {
            "part_vertices": (
                frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}),
                frozenset({3, 4, 5}), frozenset({5}), frozenset({5, 6, 0}),
            ),
            "part_edges": (
                frozenset({0}), frozenset({1}), frozenset({2}),
                frozenset({3, 4}), frozenset(), frozenset({5, 6}),
            ),
            "hinges": (1, 2, 3, 5, 5, 0),
            "I": frozenset({0, 1, 2}),
            "xs": (0, 1, 2, None, None, None),
            "ysets": (frozenset({4}), frozenset({5}), frozenset({6}), None, None, None),
            "esets": ((7,), (8,), (9,), None, None, None),
        },
    )


def test_tricoloured_consecutive_colours():
    d = consecutive_tricoloured()
    o = build_family(d)
    assert o.graph.n == 6
    assert_round_trip(o, d)
    # a cross-colour pair inside its four host parts is unbalanced
    assert not o.balance(Cycle.from_edge_set(o.graph, {6, 7, 0, 3}))


def test_tricoloured_alternating_colours():
    d = alternating_tricoloured()
    o = build_family(d)
    assert_round_trip(o, d)


def test_tricoloured_degenerate_part():
    d = degenerate_tricoloured()
    o = build_family(d)
    assert o.graph.n == 7
    assert_round_trip(o, d)


def test_tricoloured_rejects_coinciding_sources():
    g = MultiGraph.from_pairs(
        [(i, (i + 1) % 6) for i in range(6)] + [(1, 3), (1, 4), (2, 5)]
    )
    pv, pe = c6_ring()
    d = FamilyDescriptor(
        "Tricoloured",
        g,
        {
            "part_vertices": pv,
            "part_edges": pe,
            "hinges": (1, 2, 3, 4, 5, 0),
            "I": frozenset({0, 1, 2}),
            "xs": (1, 1, 2, None, None, None),
            "ysets": (frozenset({3}), frozenset({4}), frozenset({5}), None, None, None),
            "esets": ((6,), (7,), (8,), None, None, None),
        },
    )
    with pytest.raises(FamilyError, match="distinct"):
        build_family(d)


# -- K5 with parallel classes ----------------------------------------------------


def test_k5_simple_tangled():
    d = describe_k5_family()
    o = build_family(d)
    assert (o.graph.n, o.graph.m) == (5, 10)
    assert_round_trip(o, d)
    # odd cycles unbalanced, even cycles balanced
    assert all(o.balance(c) == (len(c) % 2 == 0) for c in o.cycles())


def test_k5_doubled_edge_tangled():
    mults = [2] + [1] * 9
    d = describe_k5_family(mults)
    o = build_family(d)
    assert o.graph.m == 11
    assert_round_trip(o, d)
    # the parallel class closes a balanced digon
    assert o.balance(Cycle.from_edge_set(o.graph, o.graph.edges_between(0, 1)))


def test_k5_mapping_multiplicities():
    o = build_family(describe_k5_family({(2, 3): 3}))
    assert o.graph.m == 12
    assert is_tangled(o) == Tangled()


def test_k5_simplification_fixed_point():
    o = build_family(describe_k5_family())
    assert simplify(o).graph == o.graph


def test_k5_rejects_zero_multiplicity():
    with pytest.raises(FamilyError):
        build_family(describe_k5_family([0] + [1] * 9))


# -- projective planar signed ----------------------------------------------------


def test_pp_signed_c6_diagonals():
    base = MultiGraph.from_pairs([(i, (i + 1) % 6) for i in range(6)])
    d = describe_pp_signed(base, (0, 1, 2), (3, 4, 5))
    o = build_family(d)
    assert_round_trip(o, d)


def test_pp_signed_parity_law():
    base = MultiGraph.from_pairs([(i, (i + 1) % 6) for i in range(6)])
    o = build_family(describe_pp_signed(base, (0, 1, 2), (3, 4, 5)))
    sig = frozenset(range(6, 9))
    assert all(o.balance(c) == (len(c.edge_set & sig) % 2 == 0) for c in o.cycles())


def test_pp_signed_builds_without_listing_cycles():
    # C40 with its 20 diagonals has more cycles than the default cap allows;
    # build_family signs the cross edges and reads none of the parity clauses
    base = MultiGraph.from_pairs([(i, (i + 1) % 40) for i in range(40)])
    d = describe_pp_signed(base, tuple(range(20)), tuple(range(20, 40)))
    o = build_family(d)
    assert o.graph is d.graph and "_cycles" not in o.graph.__dict__
    assert o.bias == Signed(frozenset(range(40, 60)))


def test_pp_signed_single_pair_warns_not_tangled():
    base = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.warns(UserWarning, match="blocking pair") as caught:
        o = build_family(describe_pp_signed(base, (0,), (1,)))
    # the warning names the caller of build_family, not the library
    assert [w.filename for w in caught] == [__file__]
    assert is_tangled(o) != Tangled()


def test_pp_signed_c4_crossing_diagonals():
    base = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)])
    o = build_family(describe_pp_signed(base, (0, 1), (2, 3)))
    assert is_tangled(o) == Tangled()


def test_pp_signed_rejects_nonplanar_pairing():
    base = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(FamilyError, match="planar"):
        build_family(describe_pp_signed(base, (0, 2), (1, 3)))


def test_pp_signed_collapses_repeated_boundary_vertices():
    # x2 = y1 is allowed: consecutive repeats collapse in the boundary order
    base = MultiGraph.from_pairs([(0, 1), (1, 2), (2, 0)])
    o = build_family(describe_pp_signed(base, (0, 1), (1, 2)))
    assert o.graph.m == 5
    assert validate_biased_graph(o) == ()


# -- t-sums ----------------------------------------------------------------------


def balanced_complete(n: int):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return make_signed(MultiGraph.from_pairs(pairs), ())


def test_one_sum_at_corner():
    fat = build_family(minimal_fat_triangle())
    s = t_sum(fat, balanced_complete(3), 1, [(0, 0)])
    assert (s.graph.n, s.graph.m) == (5, 9)
    assert validate_biased_graph(s) == ()
    assert is_tangled(s) == Tangled()


def test_two_sum_along_edge():
    fat = build_family(minimal_fat_triangle())
    s = t_sum(fat, balanced_complete(3), 2, [(0, 0), (1, 1)])
    assert (s.graph.n, s.graph.m) == (4, 7)
    assert validate_biased_graph(s) == ()
    assert is_tangled(s) == Tangled()
    # the balanced side acts as a subdivided copy of the deleted shared edge
    fresh = sorted(s.graph.vertex_set - fat.graph.vertex_set)
    assert len(fresh) == 1


def test_three_sum_with_four_vertex_balanced_side():
    fatk = build_family(k4_fat_triangle())
    s = t_sum(fatk, balanced_complete(4), 3, [(0, 0), (1, 1), (2, 2)])
    assert (s.graph.n, s.graph.m) == (5, 9)
    assert validate_biased_graph(s) == ()
    assert is_tangled(s) == Tangled()


def test_t_sum_requires_balanced_second_summand():
    fat = build_family(minimal_fat_triangle())
    with pytest.raises(FamilyError, match="balanced"):
        t_sum(fat, fat, 1, [(0, 0)])


def test_t_sum_requires_shared_edges():
    fat = build_family(minimal_fat_triangle())
    path = make_signed(MultiGraph.from_pairs([(0, 1), (1, 2)]), ())
    with pytest.raises(FamilyError, match="no edge between"):
        t_sum(fat, path, 2, [(0, 0), (1, 2)])


def test_t_sum_requires_enough_vertices():
    fat = build_family(minimal_fat_triangle())
    with pytest.raises(FamilyError, match="more than"):
        t_sum(fat, balanced_complete(3), 3, [(0, 0), (1, 1), (2, 2)])


def test_t_sum_requires_balanced_shared_triangle():
    # picking one fat edge makes the designated shared triangle unbalanced
    fatk = build_family(k4_fat_triangle())
    with pytest.raises(FamilyError, match="triangle"):
        t_sum(fatk, balanced_complete(4), 3, [(0, 0), (1, 1), (2, 2)], kt_edges1=(6, 1, 3))


def explicit_copy(o):
    return make_explicit(o.graph, o.balanced_cycles(), check=False)


def assert_signed_t_sum_matches_explicit(o1, o2, *args, **kwargs):
    """t_sum on signed summands against t_sum on explicit copies of them."""
    s = t_sum(o1, o2, *args, **kwargs)
    e = t_sum(explicit_copy(o1), explicit_copy(o2), *args, **kwargs)
    assert isinstance(s.bias, Signed) and isinstance(e.bias, Lifted)
    assert s.graph == e.graph
    assert {c.edge_set for c in s.balanced_cycles()} == {c.edge_set for c in e.balanced_cycles()}
    assert validate_biased_graph(s) == ()


def random_signed_t_sum(rng: random.Random):
    """A signed first summand, a balanced second one with a switched (so
    usually non-empty) signature or all-balanced bias, and a glue of order
    t whose shared triangle, for t = 3, is balanced."""
    t = rng.choice((1, 2, 3))
    g1 = random_multigraph(rng, max_n=6, max_extra=6, allow_loops=True)
    o1 = make_signed(g1, [e for e in g1.edge_ids if rng.random() < 0.5])
    glues = []
    for vs in permutations(g1.vertices, t):
        if g1.n <= t or not all(g1.edges_between(u, v) for u, v in combinations(vs, 2)):
            continue
        if t == 3 and not o1.balance(Cycle.from_edge_set(g1, [min(g1.edges_between(u, v)) for u, v in combinations(vs, 2)])):
            continue
        glues.append(vs)
    if not glues:
        return None
    k = rng.randint(t + 1, 4)
    g2 = MultiGraph.from_pairs(list(combinations(range(k), 2)) + [tuple(rng.sample(range(k), 2))])
    if rng.random() < 0.2:
        o2 = BiasedGraph(g2, AllBalanced())
    else:
        o2 = make_signed(g2, switch_signature(g2, (), [v for v in range(k) if rng.random() < 0.5]))
    identify = list(zip(rng.choice(glues), rng.sample(range(k), t)))
    return o1, o2, t, identify


def test_signed_t_sum_matches_the_explicit_construction():
    rng = random.Random(61)
    orders = set()
    switched = 0
    done = 0
    while done < 150:
        case = random_signed_t_sum(rng)
        if case is None:
            continue
        o1, o2, t, identify = case
        assert_signed_t_sum_matches_explicit(o1, o2, t, identify)
        orders.add(t)
        switched += isinstance(o2.bias, Signed) and bool(o2.bias.signature)
        done += 1
    assert orders == {1, 2, 3}
    assert switched > 50


# -- certificates ----------------------------------------------------------------


def test_certificate_round_trip_all_kinds():
    fixtures = [
        digon_rim_wheel(),
        c4_criss_cross(),
        minimal_fat_triangle(),
        minimal_special_vertex(),
        minimal_special_pair(),
        lemma_style_special_triple(),
        consecutive_tricoloured(),
        describe_k5_family(),
    ]
    assert {d.kind for d in fixtures} | {"PPSigned"} == set(KINDS)
    for d in fixtures:
        cert = verify_family(build_family(d), d)
        assert cert.passed, (d.kind, [c for c in cert.checks if not c.ok])


def test_certificate_names_failing_clause():
    d_cc = c4_criss_cross()
    d_fat = FamilyDescriptor(
        "FatTriangle",
        d_cc.graph,
        {
            "v": (1, 2, 0),
            "f12": frozenset({0}),
            "f23": frozenset({5}),
            "f31": frozenset({4}),
        },
    )
    o = build_family(d_fat)
    cert = verify_family(o, d_cc)
    assert not cert.passed
    failures = [c for c in cert.checks if not c.ok]
    assert "core cycles balanced" in {c.name for c in failures}
    assert all(c.detail for c in failures)


def test_certificate_graph_mismatch():
    o = build_family(minimal_fat_triangle())
    cert = verify_family(o, c4_criss_cross())
    assert not cert.passed
    assert cert.checks[0].name == "underlying graph matches descriptor"


def test_certificate_unknown_kind():
    g = MultiGraph.from_pairs([(0, 1)])
    cert = verify_family(
        make_signed(g, ()), FamilyDescriptor("Moebius", g, {})
    )
    assert not cert.passed


def test_build_rejects_unknown_kind():
    g = MultiGraph.from_pairs([(0, 1)])
    with pytest.raises(FamilyError, match="kind"):
        build_family(FamilyDescriptor("Moebius", g, {}))


# -- generated instances stay tangled --------------------------------------------


def random_fat_triangle(rng: random.Random) -> FamilyDescriptor:
    pairs = [(0, 1), (1, 2), (2, 0)]
    n_extra = rng.randint(0, 2)
    for v in range(3, 3 + n_extra):
        anchors = rng.sample(range(v), 2)
        pairs.extend((a, v) for a in anchors)
    bundles = []
    for corner_pair in ((0, 1), (1, 2), (2, 0)):
        size = rng.randint(1, 2)
        start = len(pairs)
        pairs.extend([corner_pair] * size)
        bundles.append(frozenset(range(start, start + size)))
    g = MultiGraph.from_pairs(pairs)
    return FamilyDescriptor(
        "FatTriangle",
        g,
        {"v": (0, 1, 2), "f12": bundles[0], "f23": bundles[1], "f31": bundles[2]},
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_fat_triangles_tangled(seed):
    d = random_fat_triangle(random.Random(seed))
    o = build_family(d)
    assert_round_trip(o, d)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_k5_families_tangled(seed):
    rng = random.Random(seed)
    mults = [1] * 10
    for i in rng.sample(range(10), rng.randint(0, 2)):
        mults[i] = 2
    d = describe_k5_family(mults)
    o = build_family(d)
    assert_round_trip(o, d)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_wheels_tangled(seed):
    rng = random.Random(seed)
    k = rng.choice((2, 3))
    if k == 2:
        pairs = [(1, 2), (1, 2)]
        hinges = (1, 2)
        parts = (frozenset({0}), frozenset({1}))
    else:
        pairs = [(1, 2), (2, 3), (3, 1)]
        hinges = (2, 3, 1)
        parts = (frozenset({0}), frozenset({1}), frozenset({2}))
    rim_vertices = sorted({v for p in pairs for v in p})
    for v in rim_vertices:
        # a k=2 ring needs a spoke digon at each hinge, or the other hinge
        # blocks every unbalanced cycle
        for _ in range(2 if k == 2 else rng.randint(1, 2)):
            pairs.append((0, v))
    d = FamilyDescriptor(
        "GeneralizedWheel",
        MultiGraph.from_pairs(pairs),
        {"hub": 0, "hinges": hinges, "parts": parts, "xy": (None,) * k},
    )
    o = build_family(d)
    assert_round_trip(o, d)


def random_pp_signed(rng: random.Random):
    n = rng.randint(4, 6)
    base = MultiGraph.from_pairs([(i, (i + 1) % n) for i in range(n)])
    half = n // 2
    xs = tuple(range(half))
    ys = tuple(range(half, 2 * half))
    return base, xs, ys


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_pp_signed_parity(seed):
    base, xs, ys = random_pp_signed(random.Random(seed))
    d = describe_pp_signed(base, xs, ys)
    o = build_family(d)
    assert verify_family(o, d).passed
    sig = frozenset(d.roles["cross"])
    assert all(o.balance(c) == (len(c.edge_set & sig) % 2 == 0) for c in o.cycles())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_t_sum_preserves_tangledness_at_desk_scale(seed):
    rng = random.Random(seed)
    o1 = build_family(random_fat_triangle(rng))
    t = rng.choice([tt for tt in (1, 2, 3) if o1.graph.n > tt])
    n2 = rng.randint(t + 1, 4)
    o2 = balanced_complete(n2)
    if o1.graph.n + o2.graph.n - t > 9:
        return
    if t == 3:
        # glued triangle must be balanced on the fat side: use base edges
        identify = [(0, 0), (1, 1), (2, 2)]
    else:
        identify = [(i, i) for i in range(t)]
    kt1 = (0, 2, 1) if t == 3 else None
    s = t_sum(o1, o2, t, identify, kt_edges1=kt1)
    assert validate_biased_graph(s) == ()
    assert is_tangled(o1) == Tangled()
    assert is_tangled(s) == Tangled()
