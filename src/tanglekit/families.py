"""Builders and verifiers for the known tangled families, plus t-sums.

Each family is pinned down by a :class:`FamilyDescriptor`: the finished
underlying graph together with a role assignment naming the special
vertices, edge groups and attachment sets that the family's definition
talks about.  ``build_family`` turns a descriptor into a biased graph by
imposing the family's defining cycle constraints and completing the
remaining, unconstrained cycles; ``verify_family`` re-derives every
defining clause from the descriptor and checks it against an arbitrary
biased graph, producing an auditable :class:`Certificate`.

``t_sum`` glues a biased graph to a balanced one across a shared
complete graph on one, two or three vertices and derives the bias of
the glued graph from the biases of the summands: a signature when both
are signed, a lazy bias that asks the first summand otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .bias import (
    AllBalanced,
    BiasedGraph,
    Lifted,
    Signed,
    complete_bias,
    make_signed,
    switching_potential,
)
from .embedding import collapse_cyclic, ordered_planarity
from .graph import Cycle, MultiGraph, cycles_inside, cycles_with, is_two_connected
from .limits import DEFAULT_CAPS, Caps
from .linkage import find_three_planar


class FamilyError(ValueError):
    """Descriptor malformed, or its defining clauses cannot be satisfied."""


# ---------------------------------------------------------------------------
# Descriptors and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyDescriptor:
    """A family kind plus the role assignment inside one underlying graph.

    ``roles`` maps role names to vertex ids, edge ids, tuples or frozensets
    of them; the exact keys per kind are documented on the kind's planner
    (``_plan_<kind>``), or on ``describe_k5_family`` and
    ``describe_pp_signed``.  The graph stored here is the finished
    underlying graph, so a descriptor is self-contained and can be
    re-verified at any time.
    """

    kind: str
    graph: MultiGraph
    roles: Mapping[str, object]

    def role(self, name: str) -> object:
        try:
            return self.roles[name]
        except KeyError:
            raise FamilyError(f"descriptor lacks role {name!r}") from None


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Certificate:
    """Outcome of checking every defining clause of a family descriptor."""

    descriptor: FamilyDescriptor
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


# One bias clause instance: this cycle must have this balance.
Constraint = tuple[str, Cycle, bool]


@dataclass(frozen=True)
class _Plan:
    structure: tuple[CheckResult, ...]
    constraints: Iterable[Constraint]  # read once; PPSigned lists its cycles only then


# ---------------------------------------------------------------------------
# Role extraction helpers
# ---------------------------------------------------------------------------


def _role_int(d: FamilyDescriptor, name: str) -> int:
    v = d.role(name)
    if not isinstance(v, int) or isinstance(v, bool):
        raise FamilyError(f"role {name!r} must be a single id")
    return v


def _role_ints(d: FamilyDescriptor, name: str, length: int | None = None) -> tuple[int, ...]:
    v = d.role(name)
    if not isinstance(v, tuple) or any(not isinstance(x, int) for x in v):
        raise FamilyError(f"role {name!r} must be a tuple of ids")
    if length is not None and len(v) != length:
        raise FamilyError(f"role {name!r} must have {length} entries")
    return v


def _role_set(d: FamilyDescriptor, name: str) -> frozenset[int]:
    v = d.role(name)
    if not isinstance(v, frozenset) or any(not isinstance(x, int) for x in v):
        raise FamilyError(f"role {name!r} must be a frozenset of ids")
    return v


def _vertices_of(g: MultiGraph, edges: Iterable[int]) -> frozenset[int]:
    out: set[int] = set()
    for e in edges:
        u, v = g.endpoints(e)
        out.add(u)
        out.add(v)
    return frozenset(out)


def _joins(g: MultiGraph, e: int, u: int, v: int) -> bool:
    return set(g.endpoints(e)) == {u, v}


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), "" if ok else detail)


def _partition_check(g: MultiGraph, groups: Sequence[tuple[str, frozenset[int]]]) -> CheckResult:
    """All role edge groups disjoint, known, and jointly covering the graph."""
    seen: set[int] = set()
    for name, ids in groups:
        unknown = ids - g.edge_id_set
        if unknown:
            return _check("edge roles partition the graph", False, f"{name} uses unknown edges {sorted(unknown)}")
        dup = ids & seen
        if dup:
            return _check("edge roles partition the graph", False, f"edges {sorted(dup)} assigned twice")
        seen |= ids
    missing = g.edge_id_set - seen
    if missing:
        return _check("edge roles partition the graph", False, f"edges {sorted(missing)} have no role")
    return _check("edge roles partition the graph", True)


# ---------------------------------------------------------------------------
# Generalized wheel
# ---------------------------------------------------------------------------


def _plan_generalized_wheel(d: FamilyDescriptor, caps: Caps) -> _Plan:
    """Hub-and-ring family: balanced ring parts, unbalanced full-rim cycles.

    Roles: ``hub`` (vertex), ``hinges`` (k-tuple of ring cut vertices),
    ``parts`` (k-tuple of frozensets of edge ids; part i spans hinges
    i-1 and i, every pair of consecutive parts meets exactly in its
    hinge, with both hinges shared when k == 2), ``xy`` (k-tuple, None
    for single-edge parts, else an (X, Y) pair of frozensets splitting
    the part's spoke attachments).  Spoke-and-path cycles inside one
    part are unbalanced exactly when their attachments split X and Y.
    """
    g = d.graph
    hub = _role_int(d, "hub")
    hinges = _role_ints(d, "hinges")
    parts_raw = d.role("parts")
    xy_raw = d.role("xy")
    if not isinstance(parts_raw, tuple) or any(not isinstance(p, frozenset) for p in parts_raw):
        raise FamilyError("role 'parts' must be a tuple of frozensets of edge ids")
    parts: tuple[frozenset[int], ...] = parts_raw
    if not isinstance(xy_raw, tuple) or len(xy_raw) != len(parts):
        raise FamilyError("role 'xy' must align with 'parts'")
    k = len(parts)

    checks: list[CheckResult] = []
    hub_ok = (
        hub in g.vertex_set
        and len(hinges) == k
        and k >= 2
        and len(set(hinges)) == k
        and hub not in hinges
        and all(z in g.vertex_set for z in hinges)
        and all(g.endpoints(e)[0] != g.endpoints(e)[1] for e in g.incident_edges(hub))
    )
    checks.append(_check("hub and hinges valid", hub_ok, "need >= 2 distinct non-hub hinges and no loops at the hub"))
    if not hub_ok:
        return _Plan(tuple(checks), ())

    spokes = tuple(g.incident_edges(hub))
    rim = g.edge_id_set - frozenset(spokes)
    part_groups = [(f"part {i}", pe) for i, pe in enumerate(parts)]
    cover = _partition_check(g, part_groups + [("spokes", frozenset(spokes))])
    rim_ok = cover.ok and all(parts) and _vertices_of(g, rim) == g.vertex_set - {hub}
    checks.append(_check("rim partition", rim_ok, cover.detail or "parts must be nonempty and cover every non-hub vertex"))
    if not rim_ok:
        return _Plan(tuple(checks), ())

    pvs = [_vertices_of(g, pe) for pe in parts]
    if k == 2:
        ring_ok = pvs[0] & pvs[1] == {hinges[0], hinges[1]}
    else:
        ring_ok = True
        for i in range(k):
            for j in range(i + 1, k):
                meet = pvs[i] & pvs[j]
                if (j - i) % k == 1 or (i - j) % k == 1:
                    z = hinges[i] if j == i + 1 else hinges[j]
                    ring_ok = ring_ok and meet == {z}
                else:
                    ring_ok = ring_ok and not meet
    ring_ok = ring_ok and all(hinges[i - 1] in pvs[i] and hinges[i] in pvs[i] for i in range(k))
    checks.append(_check("ring structure", ring_ok, "consecutive parts must meet exactly in their hinge"))

    single = []
    conn_ok = True
    for i, pe in enumerate(parts):
        sub = g.subgraph(pe)
        is_single = len(pe) == 1 and sub.n == 2
        single.append(is_single)
        if not is_single and not is_two_connected(sub):
            conn_ok = False
    checks.append(_check("parts two-connected or single edges", conn_ok))

    split_ok = True
    planar_ok = True
    split_detail = ""
    attach_sets: list[tuple[frozenset[int], frozenset[int]] | None] = []
    for i, pe in enumerate(parts):
        part_hinges = {hinges[0], hinges[1]} if k == 2 else {hinges[i - 1], hinges[i]}
        attach = frozenset(
            v
            for e in spokes
            for v in g.endpoints(e)
            if v != hub and v in pvs[i] and v not in part_hinges
        )
        xy = xy_raw[i]
        if single[i]:
            attach_sets.append(None)
            if xy is not None:
                split_ok = False
                split_detail = f"part {i} is a single edge and takes no attachment split"
            continue
        if (
            not isinstance(xy, tuple)
            or len(xy) != 2
            or any(not isinstance(s, frozenset) for s in xy)
        ):
            split_ok = False
            split_detail = f"part {i} needs an (X, Y) pair of frozensets"
            attach_sets.append(None)
            continue
        xs, ys = xy
        if not xs or not ys or xs & ys or xs | ys != attach:
            split_ok = False
            split_detail = f"part {i}: X and Y must split its spoke attachments {sorted(attach)}"
            attach_sets.append(None)
            continue
        attach_sets.append((xs, ys))
        z_prev = hinges[i - 1] if k > 2 else hinges[0]
        z_cur = hinges[i] if k > 2 else hinges[1]
        if ordered_planarity(g.subgraph(pe), (z_prev, xs, z_cur, ys)) is None:
            planar_ok = False
    checks.append(_check("attachment split", split_ok, split_detail))
    checks.append(_check("attachment order planar", planar_ok, "some part has no embedding with hinge-X-hinge-Y boundary"))
    if not split_ok:
        return _Plan(tuple(checks), ())

    constraints: list[Constraint] = []
    for i, pe in enumerate(parts):
        for c in cycles_inside(g, pe, caps):
            constraints.append(("part cycles balanced", c, True))
    for c in cycles_inside(g, rim, caps):
        if all(c.edge_set & pe for pe in parts):
            constraints.append(("full rim cycles unbalanced", c, False))
    for i, pair in enumerate(attach_sets):
        if pair is None:
            continue
        xs, _ = pair
        ends = {e: next(v for v in g.endpoints(e) if v != hub) for e in spokes}
        legs = [e for e in spokes if ends[e] in pvs[i] and ends[e] in (pair[0] | pair[1])]
        for a, b in combinations(legs, 2):
            want = (ends[a] in xs) == (ends[b] in xs)
            for c in cycles_with(g, {a, b}, parts[i], caps):
                constraints.append(("spoke pair parity", c, want))
    return _Plan(tuple(checks), tuple(constraints))


# ---------------------------------------------------------------------------
# Criss-cross
# ---------------------------------------------------------------------------


def _plan_criss_cross(d: FamilyDescriptor, caps: Caps) -> _Plan:
    """Planar core with an apex and two crossing chords.

    Roles: ``h_edges`` (frozenset: the core), ``u`` (4-tuple of boundary
    vertices in circular order), ``w`` (apex), ``e`` (4-tuple of spoke
    edge ids, e[i] = w-u[i]), ``f`` (2-tuple of chords, f[0] = u0-u2 and
    f[1] = u1-u3).  Core cycles are balanced, chord and spoke-pair
    cycles through the core are unbalanced, and the two triangles
    {e0, e2, f0} and {e1, e3, f1} are balanced.
    """
    g = d.graph
    h = _role_set(d, "h_edges")
    us = _role_ints(d, "u", 4)
    w = _role_int(d, "w")
    es = _role_ints(d, "e", 4)
    fs = _role_ints(d, "f", 2)

    checks: list[CheckResult] = []
    part = _partition_check(g, [("h", h), ("e", frozenset(es)), ("f", frozenset(fs))])
    part_ok = part.ok and len(set(es)) == 4 and len(set(fs)) == 2
    checks.append(_check(part.name, part_ok, part.detail))
    if not part_ok:
        return _Plan(tuple(checks), ())

    hv = _vertices_of(g, h)
    attach_ok = (
        len(set(us)) == 4
        and set(us) <= hv
        and w in g.vertex_set
        and w not in hv
        and hv == g.vertex_set - {w}
        and all(_joins(g, es[i], w, us[i]) for i in range(4))
        and _joins(g, fs[0], us[0], us[2])
        and _joins(g, fs[1], us[1], us[3])
    )
    checks.append(_check("spokes and chords attach correctly", attach_ok))
    if not attach_ok:
        return _Plan(tuple(checks), ())

    core = g.subgraph(h)
    two_connected = is_two_connected(core)
    checks.append(_check("core two-connected", two_connected))
    if two_connected:
        checks.append(_check("boundary order planar", ordered_planarity(core, us) is not None))
    else:
        # ordered_planarity needs a connected core
        checks.append(_check("boundary order planar", False, "not evaluated: core not two-connected"))

    constraints: list[Constraint] = []
    for c in cycles_inside(g, h, caps):
        constraints.append(("core cycles balanced", c, True))
    for f in fs:
        for c in cycles_with(g, {f}, h, caps):
            constraints.append(("chord cycles unbalanced", c, False))
    for a, b in combinations(es, 2):
        for c in cycles_with(g, {a, b}, h, caps):
            constraints.append(("spoke pair cycles unbalanced", c, False))
    for tri in ({es[0], es[2], fs[0]}, {es[1], es[3], fs[1]}):
        constraints.append(("crossing triangles balanced", Cycle.from_edge_set(g, tri), True))
    return _Plan(tuple(checks), tuple(constraints))


# ---------------------------------------------------------------------------
# Fat triangle
# ---------------------------------------------------------------------------


def _plan_fat_triangle(d: FamilyDescriptor, caps: Caps) -> _Plan:
    """Balanced base plus three nonempty corner edge bundles.

    Roles: ``v`` (3-tuple of corners), ``f12``/``f23``/``f31``
    (frozensets of extra edges joining the corner pairs).  Base cycles
    are balanced; every cycle using exactly one extra edge is
    unbalanced.
    """
    g = d.graph
    vs = _role_ints(d, "v", 3)
    f12 = _role_set(d, "f12")
    f23 = _role_set(d, "f23")
    f31 = _role_set(d, "f31")
    fat = f12 | f23 | f31
    h = g.edge_id_set - fat

    checks: list[CheckResult] = []
    checks.append(_check("corners distinct", len(set(vs)) == 3 and set(vs) <= g.vertex_set))
    corners_ok = (
        bool(f12)
        and bool(f23)
        and bool(f31)
        and len(f12) + len(f23) + len(f31) == len(fat)
        and fat <= g.edge_id_set
        and all(_joins(g, e, vs[0], vs[1]) for e in f12)
        and all(_joins(g, e, vs[1], vs[2]) for e in f23)
        and all(_joins(g, e, vs[2], vs[0]) for e in f31)
    )
    checks.append(_check("corner edge sets valid", corners_ok, "three disjoint nonempty sets joining the corners"))
    if not corners_ok:
        return _Plan(tuple(checks), ())

    constraints: list[Constraint] = []
    for c in cycles_inside(g, h, caps):
        constraints.append(("base cycles balanced", c, True))
    for f in sorted(fat):
        for c in cycles_with(g, {f}, h, caps):
            constraints.append(("corner edge cycles unbalanced", c, False))
    return _Plan(tuple(checks), tuple(constraints))


# ---------------------------------------------------------------------------
# Projective planar with a special vertex
# ---------------------------------------------------------------------------


def _plan_pp_special_vertex(d: FamilyDescriptor, caps: Caps) -> _Plan:
    """Two planar halves joined by a degree-two apex and cross edges.

    Roles: ``h1_edges``/``h2_edges`` (the halves), ``xs``/``ys``
    (m-tuples of paired boundary vertices), ``u`` ((u1, u2)), ``z``
    ((z1, z2) with z2 in half 1 and z1 in half 2), ``w`` (apex),
    ``bridge_edges`` ((z1z2, u1u2)), ``hub_edges`` ((wz1, wz2)), ``g``
    ((wu1, wu2)), ``f`` (m-tuple of cross edges x_i-y_i).
    """
    g = d.graph
    h1 = _role_set(d, "h1_edges")
    h2 = _role_set(d, "h2_edges")
    xs = _role_ints(d, "xs")
    ys = _role_ints(d, "ys")
    u1, u2 = _role_ints(d, "u", 2)
    z1, z2 = _role_ints(d, "z", 2)
    w = _role_int(d, "w")
    zz, uu = _role_ints(d, "bridge_edges", 2)
    wz1, wz2 = _role_ints(d, "hub_edges", 2)
    g1, g2 = _role_ints(d, "g", 2)
    fs = _role_ints(d, "f")
    m = len(xs)

    checks: list[CheckResult] = []
    part = _partition_check(
        g,
        [
            ("h1", h1),
            ("h2", h2),
            ("bridges", frozenset({zz, uu})),
            ("hub edges", frozenset({wz1, wz2})),
            ("g", frozenset({g1, g2})),
            ("f", frozenset(fs)),
        ],
    )
    sizes_ok = part.ok and len(ys) == m and len(fs) == m and len({zz, uu, wz1, wz2, g1, g2}) == 6
    checks.append(_check(part.name, sizes_ok, part.detail or "paired roles must have equal length"))
    if not sizes_ok:
        return _Plan(tuple(checks), ())

    v1 = _vertices_of(g, h1)
    v2 = _vertices_of(g, h2)
    halves_ok = not (v1 & v2) and w not in v1 | v2 and v1 | v2 | {w} == g.vertex_set
    checks.append(_check("halves disjoint", halves_ok))

    order1 = (*xs, u1, z2)
    order2 = (*ys, z1, u2)
    roles_ok = (
        len(set(order1)) == m + 2
        and len(set(order2)) == m + 2
        and set(order1) <= v1
        and set(order2) <= v2
        and _joins(g, zz, z1, z2)
        and _joins(g, uu, u1, u2)
        and _joins(g, wz1, w, z1)
        and _joins(g, wz2, w, z2)
        and _joins(g, g1, w, u1)
        and _joins(g, g2, w, u2)
        and all(_joins(g, fs[i], xs[i], ys[i]) for i in range(m))
    )
    checks.append(_check("role vertices valid", roles_ok))
    if not (halves_ok and roles_ok):
        return _Plan(tuple(checks), ())

    planar_ok = (
        ordered_planarity(g.subgraph(h1, v1), order1) is not None
        and ordered_planarity(g.subgraph(h2, v2), order2) is not None
    )
    checks.append(_check("half orders planar", planar_ok))

    core = h1 | h2 | {zz, uu, wz1, wz2}
    constraints: list[Constraint] = []
    for c in cycles_inside(g, core, caps):
        constraints.append(("core cycles balanced", c, True))
    for r in (*fs, g1, g2):
        for c in cycles_with(g, {r}, core, caps):
            constraints.append(("residual edge cycles unbalanced", c, False))
    for c in cycles_with(g, {g1, g2}, core, caps):
        constraints.append(("hub chord pair cycles balanced", c, True))
    cut = core - {uu}
    for a, b in combinations(fs, 2):
        for c in cycles_with(g, {a, b}, cut, caps):
            constraints.append(("cross pair cycles balanced", c, True))
    for gi in (g1, g2):
        for fj in fs:
            for c in cycles_with(g, {gi, fj}, cut, caps):
                constraints.append(("hub-cross pair cycles unbalanced", c, False))
    return _Plan(tuple(checks), tuple(constraints))


# ---------------------------------------------------------------------------
# Projective planar with a special pair
# ---------------------------------------------------------------------------


def _plan_pp_special_pair(d: FamilyDescriptor, caps: Caps) -> _Plan:
    """Planar base with two vertex stars and optional junction edges.

    Roles: ``x``/``y`` (star centres), ``X``/``Y`` (attachment sets on
    the base's boundary face, sharing at most one vertex), ``fx``/``fy``
    (frozensets of star edges), ``e`` (tuple of x-y edges, may be
    empty).  The base is balanced, same-star pairs are balanced, and
    every x-y edge cycle through the base is unbalanced.
    """
    g = d.graph
    x = _role_int(d, "x")
    y = _role_int(d, "y")
    xset = _role_set(d, "X")
    yset = _role_set(d, "Y")
    fx = _role_set(d, "fx")
    fy = _role_set(d, "fy")
    es = _role_ints(d, "e")
    h = g.edge_id_set - fx - fy - frozenset(es)

    checks: list[CheckResult] = []
    part = _partition_check(g, [("h", h), ("fx", fx), ("fy", fy), ("e", frozenset(es))])
    checks.append(part)
    verts_ok = (
        x != y
        and {x, y} <= g.vertex_set
        and xset | yset <= g.vertex_set
        and not ({x, y} & (xset | yset))
        and len(xset & yset) <= 1
    )
    checks.append(_check("role vertices valid", verts_ok, "x, y outside X and Y; X and Y share at most one vertex"))
    star_ok = (
        part.ok
        and len(fx) == len(xset)
        and len(fy) == len(yset)
        and {frozenset(g.endpoints(e)) for e in fx} == {frozenset({x, v}) for v in xset}
        and {frozenset(g.endpoints(e)) for e in fy} == {frozenset({y, v}) for v in yset}
        and all(_joins(g, e, x, y) for e in es)
    )
    checks.append(_check("star edges match attachment sets", star_ok))
    if not (part.ok and verts_ok and star_ok):
        return _Plan(tuple(checks), ())

    base = g.subgraph(h, g.vertex_set)
    boundary = (x, y, xset - yset, *(xset & yset), yset - xset)
    checks.append(_check("boundary order planar", ordered_planarity(base, boundary) is not None))

    constraints: list[Constraint] = []
    for c in cycles_inside(g, h, caps):
        constraints.append(("base cycles balanced", c, True))
    constraints.extend(_star_pair_clauses(g, (fx, fy), h, caps))
    for e in es:
        for c in cycles_with(g, {e}, h, caps):
            constraints.append(("junction edge cycles unbalanced", c, False))
    return _Plan(tuple(checks), tuple(constraints))


def _star_pair_clauses(
    g: MultiGraph, stars: Iterable[frozenset[int]], base: frozenset[int], caps: Caps
) -> Iterator[Constraint]:
    """The star clause of a PP special pair or triple: two edges of one
    star close only balanced cycles through the base."""
    for star in stars:
        for a, b in combinations(sorted(star), 2):
            for c in cycles_with(g, {a, b}, base, caps):
                yield "star pairs balanced", c, True


# ---------------------------------------------------------------------------
# Projective planar with a special triple
# ---------------------------------------------------------------------------


def _plan_pp_special_triple(d: FamilyDescriptor, caps: Caps) -> _Plan:
    """Planar base with one star and three mutually joined boundary roles.

    Roles: ``x``/``y1``/``y2`` (boundary vertices in order y1, x, y2),
    ``X`` (star attachments), ``F`` (frozenset of star edges), ``e``
    (nonempty tuple of x-y1 edges), ``g`` (tuple of x-y2 edges), ``f``
    (single y1-y2 edge).  The base is balanced, star pairs are
    balanced, and every leg or cross-edge cycle through the base is
    unbalanced.
    """
    g = d.graph
    x = _role_int(d, "x")
    y1 = _role_int(d, "y1")
    y2 = _role_int(d, "y2")
    xset = _role_set(d, "X")
    fset = _role_set(d, "F")
    es = _role_ints(d, "e")
    gs = _role_ints(d, "g")
    f = _role_int(d, "f")
    h = g.edge_id_set - fset - frozenset(es) - frozenset(gs) - {f}

    checks: list[CheckResult] = []
    part = _partition_check(
        g, [("h", h), ("F", fset), ("e", frozenset(es)), ("g", frozenset(gs)), ("f", frozenset({f}))]
    )
    checks.append(part)
    verts_ok = (
        len({x, y1, y2}) == 3
        and {x, y1, y2} <= g.vertex_set
        and xset <= g.vertex_set
        and not (xset & {x, y1, y2})
    )
    checks.append(_check("role vertices valid", verts_ok))
    star_ok = (
        part.ok
        and len(es) >= 1
        and len(set(es)) == len(es)
        and len(set(gs)) == len(gs)
        and len(fset) == len(xset)
        and {frozenset(g.endpoints(e)) for e in fset} == {frozenset({x, v}) for v in xset}
        and all(_joins(g, e, x, y1) for e in es)
        and all(_joins(g, e, x, y2) for e in gs)
        and _joins(g, f, y1, y2)
    )
    checks.append(_check("star edges match attachment set", star_ok, "legs join x to y1/y2 (at least one to y1), F joins x to X"))
    if not (part.ok and verts_ok and star_ok):
        return _Plan(tuple(checks), ())

    base = g.subgraph(h, g.vertex_set)
    checks.append(
        _check("boundary order planar", ordered_planarity(base, (y1, x, y2, xset)) is not None)
    )

    constraints: list[Constraint] = []
    for c in cycles_inside(g, h, caps):
        constraints.append(("base cycles balanced", c, True))
    constraints.extend(_star_pair_clauses(g, (fset,), h, caps))
    for e in (*es, *gs):
        for c in cycles_with(g, {e}, h, caps):
            constraints.append(("leg cycles unbalanced", c, False))
    for c in cycles_with(g, {f}, h, caps):
        constraints.append(("cross edge cycles unbalanced", c, False))
    return _Plan(tuple(checks), tuple(constraints))


# ---------------------------------------------------------------------------
# Tricoloured
# ---------------------------------------------------------------------------


def _plan_tricoloured(d: FamilyDescriptor, caps: Caps) -> _Plan:
    """Six-part ring with three colour classes of antipodal chords.

    Roles: ``part_vertices``/``part_edges`` (6-tuples; empty edge sets
    mark single-vertex parts), ``hinges`` (6-tuple; part i meets part
    i+1 exactly in hinges[i]), ``I`` (frozenset {0,1,2} or {0,2,4}),
    ``xs``/``ysets``/``esets`` (6-tuples with entries exactly on I: a
    chord source in part i, targets inside part i+3, and the chord edge
    ids).  Same-colour chord pairs are balanced within the target part;
    cross-colour pairs are unbalanced within their four host parts.
    """
    g = d.graph
    pv_raw = d.role("part_vertices")
    pe_raw = d.role("part_edges")
    hinges = _role_ints(d, "hinges", 6)
    colours_raw = d.role("I")
    xs_raw = d.role("xs")
    ys_raw = d.role("ysets")
    es_raw = d.role("esets")
    for name, v in (("part_vertices", pv_raw), ("part_edges", pe_raw), ("xs", xs_raw), ("ysets", ys_raw), ("esets", es_raw)):
        if not isinstance(v, tuple) or len(v) != 6:
            raise FamilyError(f"role {name!r} must be a 6-tuple")
    if not isinstance(colours_raw, frozenset):
        raise FamilyError("role 'I' must be a frozenset")
    pv: tuple[frozenset[int], ...] = pv_raw
    pe: tuple[frozenset[int], ...] = pe_raw
    colours = colours_raw

    checks: list[CheckResult] = []
    colour_ok = colours in (frozenset({0, 1, 2}), frozenset({0, 2, 4})) and all(
        (xs_raw[i] is not None) == (i in colours)
        and (ys_raw[i] is not None) == (i in colours)
        and (es_raw[i] is not None) == (i in colours)
        for i in range(6)
    )
    checks.append(_check("colour choice valid", colour_ok, "I must be {0,1,2} or {0,2,4} with roles exactly on I"))
    if not colour_ok:
        return _Plan(tuple(checks), ())

    added = frozenset(e for i in colours for e in es_raw[i])
    h = g.edge_id_set - added
    part = _partition_check(g, [(f"part {i}", pe[i]) for i in range(6)] + [("colour edges", added)])

    degenerate = [not pe[i] for i in range(6)]
    ring_ok = part.ok
    detail = part.detail
    for i in range(6):
        if degenerate[i]:
            if len(pv[i]) != 1:
                ring_ok, detail = False, f"degenerate part {i} must be a single vertex"
        else:
            sub = g.subgraph(pe[i])
            if pv[i] != sub.vertex_set or not sub.is_connected():
                ring_ok, detail = False, f"part {i} must be connected with vertices matching its edges"
    if ring_ok and frozenset().union(*pv) != g.vertex_set:
        ring_ok, detail = False, "parts must cover every vertex"
    if ring_ok:
        for i in range(6):
            if pv[i] & pv[(i + 1) % 6] != {hinges[i]}:
                ring_ok, detail = False, f"parts {i} and {(i + 1) % 6} must meet exactly in hinge {hinges[i]}"
                break
    if ring_ok:
        for i, j in combinations(range(6), 2):
            if (j - i) % 6 in (1, 5):
                continue
            expected: set[int] = set()
            for arc in (range(i + 1, j), range(j + 1, i + 6)):
                inner = [t % 6 for t in arc]
                if inner and all(degenerate[t] for t in inner):
                    expected.add(hinges[i if arc.start == i + 1 else j])
            if pv[i] & pv[j] != expected:
                ring_ok, detail = False, f"parts {i} and {j} meet outside collapsed hinges"
                break
    checks.append(_check("parts form a ring", ring_ok, detail))
    if not ring_ok:
        return _Plan(tuple(checks), ())

    core = g.subgraph(h, g.vertex_set)
    checks.append(_check("core two-connected", is_two_connected(core)))

    roles_ok = True
    detail = ""
    for i in sorted(colours):
        xi, yi, ei = xs_raw[i], ys_raw[i], es_raw[i]
        if not isinstance(xi, int) or not isinstance(yi, frozenset) or not isinstance(ei, tuple):
            roles_ok, detail = False, f"colour {i} roles must be (vertex, frozenset, edge tuple)"
            break
        if xi not in pv[i] or not yi or not yi <= pv[(i + 3) % 6] or xi in yi:
            roles_ok, detail = False, f"colour {i}: x must sit in part {i}, Y nonempty inside part {(i + 3) % 6}"
            break
        if len(ei) != len(yi) or {frozenset(g.endpoints(e)) for e in ei} != {frozenset({xi, v}) for v in yi}:
            roles_ok, detail = False, f"colour {i}: edges must join x to each vertex of Y"
            break
    xs_list = [xs_raw[i] for i in sorted(colours)]
    if roles_ok and len(set(xs_list)) != len(xs_list):
        roles_ok, detail = False, "the colour vertices x must be pairwise distinct"
    checks.append(_check("colour roles valid", roles_ok, detail))
    if not roles_ok:
        return _Plan(tuple(checks), ())

    if colours == frozenset({0, 1, 2}):
        order = (xs_raw[0], xs_raw[1], xs_raw[2], ys_raw[0], ys_raw[1], ys_raw[2])
    else:
        order = (xs_raw[0], ys_raw[4], xs_raw[2], ys_raw[0], xs_raw[4], ys_raw[2])
    flat: list[int] = []
    for entry in order:
        flat.extend((entry,) if isinstance(entry, int) else sorted(entry))
    if len(set(flat)) != len(flat):
        checks.append(_check("attachment order three-planar", False, "order vertices overlap"))
    else:
        checks.append(_check("attachment order three-planar", find_three_planar(core, order) is not None))

    return _Plan(tuple(checks), tuple(_tricoloured_clauses(g, pe, es_raw, sorted(colours), caps)))


def _tricoloured_clauses(
    g: MultiGraph,
    pe: Sequence[frozenset[int]],
    es: Sequence[tuple[int, ...] | None],
    colours: Sequence[int],
    caps: Caps,
) -> Iterator[Constraint]:
    """The bias clauses of a Tricoloured ring with part edges ``pe`` and
    chord edges ``es`` at the ring positions ``colours``, in ascending
    order: a chord pair of one colour closes only balanced cycles through
    the antipodal part, a pair of two colours only unbalanced ones through
    their four parts."""
    for i in colours:
        for a, b in combinations(es[i], 2):
            for c in cycles_with(g, {a, b}, pe[(i + 3) % 6], caps):
                yield "same colour pairs balanced", c, True
    for i, j in combinations(colours, 2):
        within = pe[i] | pe[j] | pe[(i + 3) % 6] | pe[(j + 3) % 6]
        for a in es[i]:
            for b in es[j]:
                for c in cycles_with(g, {a, b}, within, caps):
                    yield "cross colour pairs unbalanced", c, False


# ---------------------------------------------------------------------------
# K5 with parallel edges
# ---------------------------------------------------------------------------

_K5_PAIRS = tuple(combinations(range(5), 2))


def _k5_graph(mults: Sequence[int]) -> MultiGraph:
    pairs: list[tuple[int, int]] = []
    for (u, v), mult in zip(_K5_PAIRS, mults):
        pairs.extend([(u, v)] * mult)
    return MultiGraph.from_pairs(pairs, vertices=range(5))


def _plan_k5_family(d: FamilyDescriptor, caps: Caps) -> _Plan:
    # The family is defined by the underlying graph alone; ``build_family``
    # signs every edge, but other biases over the same graph also qualify.
    mults = _role_ints(d, "mults", 10)
    checks = [_check("multiplicities valid", all(m >= 1 for m in mults), "every pair needs at least one edge")]
    if checks[0].ok:
        checks.append(
            _check(
                "graph is a complete five-vertex multigraph",
                d.graph == _k5_graph(mults),
                "graph must match the declared multiplicities",
            )
        )
    return _Plan(tuple(checks), ())


# ---------------------------------------------------------------------------
# Projective planar signed graphs
# ---------------------------------------------------------------------------


def _plan_pp_signed(d: FamilyDescriptor, caps: Caps) -> _Plan:
    g = d.graph
    xs = _role_ints(d, "xs")
    ys = _role_ints(d, "ys")
    cross = _role_ints(d, "cross")
    m = len(xs)
    base_edges = g.edge_id_set - frozenset(cross)

    checks: list[CheckResult] = []
    pairing_ok = (
        m >= 1
        and len(ys) == m
        and len(cross) == m
        and len(set(cross)) == m
        and frozenset(cross) <= g.edge_id_set
        and all(xs[i] != ys[i] and _joins(g, cross[i], xs[i], ys[i]) for i in range(m))
    )
    checks.append(_check("cross edges match pairing", pairing_ok))
    if not pairing_ok:
        return _Plan(tuple(checks), ())

    base = g.subgraph(base_edges, g.vertex_set)
    checks.append(_check("base spans all vertices", _vertices_of(g, base_edges) == g.vertex_set))
    seq = collapse_cyclic((*xs, *ys))
    planar_ok = len(set(seq)) == len(seq) and ordered_planarity(base, seq) is not None
    checks.append(_check("boundary pairing planar", planar_ok))

    return _Plan(tuple(checks), _parity_law(g, frozenset(cross), caps))


def _parity_law(g: MultiGraph, sig: frozenset[int], caps: Caps) -> Iterator[Constraint]:
    """A cycle is balanced exactly when it holds an even number of the
    signed edges ``sig``.  ``build_family`` signs those edges and reads no
    clause, so g's cycles are listed only when ``verify_family`` reads
    them."""
    for c in g.cycles(caps):
        yield "cycle parity law", c, len(c.edge_set & sig) % 2 == 0


# ---------------------------------------------------------------------------
# Planning, building, verifying
# ---------------------------------------------------------------------------

_PLANNERS = {
    "GeneralizedWheel": _plan_generalized_wheel,
    "CrissCross": _plan_criss_cross,
    "FatTriangle": _plan_fat_triangle,
    "PPSpecialVertex": _plan_pp_special_vertex,
    "PPSpecialPair": _plan_pp_special_pair,
    "PPSpecialTriple": _plan_pp_special_triple,
    "Tricoloured": _plan_tricoloured,
    "K5Parallel": _plan_k5_family,
    "PPSigned": _plan_pp_signed,
}

KINDS = tuple(_PLANNERS)

# Kinds whose bias is a signature law rather than a completed constraint set.
_SIGNED_KINDS = {"K5Parallel", "PPSigned"}


def _plan(d: FamilyDescriptor, caps: Caps) -> _Plan:
    if d.kind not in _PLANNERS:
        return _Plan((_check("kind known", False, f"unknown family kind {d.kind!r}"),), ())
    try:
        return _PLANNERS[d.kind](d, caps)
    except FamilyError as err:
        return _Plan((_check("roles resolve", False, str(err)),), ())


def build_family(d: FamilyDescriptor, *, caps: Caps = DEFAULT_CAPS) -> BiasedGraph:
    """Equip the descriptor's graph with a bias satisfying its clauses.

    The bias is the least completion of the defining clauses
    (``complete_bias``): a cycle no clause constrains is balanced only when
    the theta rule forces it.  Raises FamilyError when the descriptor is
    malformed, a side condition fails, or no theta-consistent completion
    exists.
    """
    plan = _plan(d, caps)
    bad = [c for c in plan.structure if not c.ok]
    if bad:
        raise FamilyError("; ".join(f"{c.name}: {c.detail}" if c.detail else c.name for c in bad))
    if d.kind in _SIGNED_KINDS:
        if d.kind == "K5Parallel":
            return make_signed(d.graph, d.graph.edge_id_set)
        cross = _role_ints(d, "cross")
        if len(cross) == 1:
            warnings.warn(
                "a single cross edge yields a blocking pair; the result is not tangled",
                stacklevel=2,
            )
        return make_signed(d.graph, cross)
    partial: dict[Cycle, bool] = {}
    for name, cyc, want in plan.constraints:
        prev = partial.get(cyc)
        if prev is not None and prev != want:
            raise FamilyError(f"defining clauses conflict on cycle {cyc.key} ({name})")
        partial[cyc] = want
    o = complete_bias(d.graph, partial, caps=caps)
    if o is None:
        raise FamilyError("defining clauses admit no bias with the theta property")
    return o


def verify_family(o: BiasedGraph, d: FamilyDescriptor, caps: Caps = DEFAULT_CAPS) -> Certificate:
    """Check every defining clause of d against o, clause by clause."""
    checks: list[CheckResult] = []
    same = o.graph == d.graph
    checks.append(_check("underlying graph matches descriptor", same))
    plan = _plan(d, caps)
    checks.extend(plan.structure)
    constraints = tuple(plan.constraints)
    if not same:
        if constraints:
            checks.append(_check("bias clauses", False, "not evaluated: underlying graph differs"))
        return Certificate(d, tuple(checks))
    order: list[str] = []
    stats: dict[str, tuple[int, Cycle | None, bool]] = {}
    for name, cyc, want in constraints:
        if name not in stats:
            order.append(name)
            stats[name] = (0, None, False)
        count, bad_cycle, bad_want = stats[name]
        if bad_cycle is None and o.balance(cyc) != want:
            bad_cycle, bad_want = cyc, want
        stats[name] = (count + 1, bad_cycle, bad_want)
    for name in order:
        count, bad_cycle, bad_want = stats[name]
        if bad_cycle is None:
            checks.append(CheckResult(name, True, f"{count} cycle(s) checked"))
        else:
            side = "balanced" if bad_want else "unbalanced"
            checks.append(CheckResult(name, False, f"cycle {bad_cycle.key} should be {side}"))
    return Certificate(d, tuple(checks))


def describe_k5_family(mults: Sequence[int] | Mapping[tuple[int, int], int] = (1,) * 10) -> FamilyDescriptor:
    """Descriptor for the complete graph on five vertices, all edges signed.

    ``mults`` gives the parallel-class size per vertex pair, in
    lexicographic pair order, or as a mapping from pairs (missing pairs
    get one edge); the tuple is the descriptor's one role, ``mults``.
    ``build_family`` signs every edge, so a cycle is
    balanced exactly when its length is even; in particular parallel
    classes are balanced digons and triangles are unbalanced.
    """
    if isinstance(mults, Mapping):
        mult_list = [int(mults.get(p, 1)) for p in _K5_PAIRS]
    else:
        mult_list = [int(m) for m in mults]
    if len(mult_list) != 10:
        raise FamilyError("need one multiplicity per vertex pair")
    if any(m < 1 for m in mult_list):
        raise FamilyError("every pair needs at least one edge")
    tup = tuple(mult_list)
    return FamilyDescriptor("K5Parallel", _k5_graph(tup), {"mults": tup})


def describe_pp_signed(base: MultiGraph, xs: Sequence[int], ys: Sequence[int]) -> FamilyDescriptor:
    """Descriptor that adds cross edges x_i-y_i to a planar base.

    Roles: ``xs``/``ys`` (the paired vertices) and ``cross`` (the new
    edge ids, cross[i] = x_i-y_i).  The base must embed with x_1..x_m,
    y_1..y_m on one face in this circular order (consecutive repeats
    allowed).  ``build_family`` signs exactly the cross edges.  With a single pair it warns: the two
    endpoints then block every unbalanced cycle.
    """
    m = len(xs)
    if m != len(ys) or m < 1:
        raise FamilyError("need equally many xs and ys, at least one pair")
    next_id = max(base.edge_id_set, default=-1) + 1
    cross = tuple(range(next_id, next_id + m))
    extra = {cross[i]: (xs[i], ys[i]) for i in range(m)}
    g = base.with_edges(extra)
    return FamilyDescriptor(
        "PPSigned", g, {"xs": tuple(xs), "ys": tuple(ys), "cross": cross}
    )


# ---------------------------------------------------------------------------
# t-sums
# ---------------------------------------------------------------------------

def _pick_kt_edges(
    o: BiasedGraph,
    vs: Sequence[int],
    given: Sequence[int] | None,
    label: str,
) -> tuple[int, ...]:
    pairs = list(combinations(range(len(vs)), 2))
    if given is not None:
        ids = tuple(given)
        if len(ids) != len(pairs):
            raise FamilyError(f"{label}: need one shared edge per vertex pair")
        for (i, j), e in zip(pairs, ids):
            if e not in o.graph.edge_id_set or set(o.graph.endpoints(e)) != {vs[i], vs[j]}:
                raise FamilyError(f"{label}: edge {e} does not join the identified pair")
        return ids
    out = []
    for i, j in pairs:
        between = o.graph.edges_between(vs[i], vs[j])
        if not between:
            raise FamilyError(f"{label}: no edge between identified vertices {vs[i]} and {vs[j]}")
        out.append(min(between))
    return tuple(out)


def t_sum(
    o1: BiasedGraph,
    o2: BiasedGraph,
    t: int,
    identify: Sequence[tuple[int, int]],
    kt_edges1: Sequence[int] | None = None,
    kt_edges2: Sequence[int] | None = None,
) -> BiasedGraph:
    """Glue o1 and o2 across a shared balanced complete graph on t vertices.

    ``identify`` pairs each glued vertex of o1 with its partner in o2;
    the shared complete graph's edges (picked least-id per pair unless
    given) are deleted from both sides.  o2 must be balanced and both
    summands must have more than t vertices.  A cycle of the sum lying
    in one side keeps that side's bias; a cycle crossing sides splits
    into one path per side, and is balanced exactly when each path
    closed up with the deleted shared edge is balanced in its summand.

    When o1 is signed and o2 is signed or all-balanced, the sum is signed
    and no cycle is listed.  A 2-colouring potential psi switches o2 to
    all-positive.  On the cut, phi(a) = 0 for the first glued vertex a
    and phi(x) = the sign of the shared edge ax in o1; for t = 3 this is
    consistent because the shared triangle is balanced.  Side-2 edge uv
    then gets sig2(uv) + psi(u) + psi(v) + phi(u) + phi(v), with phi = 0
    off the cut, and side 1 keeps its signature.  Every side-2 path
    between cut vertices x and y so has the sign of the shared edge xy,
    which is the rule above (Harary 1953; Zaslavsky 1982).  Other biases
    get a lazy :class:`~tanglekit.bias.Lifted`, which asks o1 per cycle.
    """
    if t not in (1, 2, 3) or len(identify) != t:
        raise FamilyError("t must be 1, 2 or 3 with one identified pair per vertex")
    firsts = tuple(p[0] for p in identify)
    seconds = tuple(p[1] for p in identify)
    if len(set(firsts)) != t or len(set(seconds)) != t:
        raise FamilyError("identified vertices must be distinct on each side")
    if not set(firsts) <= o1.graph.vertex_set or not set(seconds) <= o2.graph.vertex_set:
        raise FamilyError("identified vertices must exist in their summands")
    if o1.graph.n <= t or o2.graph.n <= t:
        raise FamilyError("both summands need more than t vertices")
    signed = isinstance(o1.bias, Signed) and isinstance(o2.bias, (Signed, AllBalanced))
    if signed:
        sig2 = o2.bias.signature if isinstance(o2.bias, Signed) else frozenset()
        psi = switching_potential(o2.graph, sig2)
        balanced2 = psi is not None
    else:
        balanced2 = o2.is_balanced()
    if not balanced2:
        raise FamilyError("the second summand must be balanced")
    kt1 = _pick_kt_edges(o1, firsts, kt_edges1, "first summand")
    kt2 = _pick_kt_edges(o2, seconds, kt_edges2, "second summand")
    if t == 3:
        if not o1.balance_of(frozenset(kt1)):
            raise FamilyError("the shared triangle must be balanced in the first summand")

    # Side 2 moves onto fresh vertex and edge ids, except the glued vertices.
    vmap = dict(zip(seconds, firsts))
    next_v = max(o1.graph.vertices, default=-1) + 1
    fresh: list[int] = []
    for v in sorted(o2.graph.vertex_set - set(seconds)):
        vmap[v] = next_v
        fresh.append(next_v)
        next_v += 1
    next_e = max(o1.graph.edge_id_set, default=-1) + 1
    emap: dict[int, int] = {}
    extra: dict[int, tuple[int, int]] = {}
    for old in sorted(o2.graph.edge_id_set - set(kt2)):
        u, v = o2.graph.endpoints(old)
        emap[old] = next_e
        extra[next_e] = (vmap[u], vmap[v])
        next_e += 1
    sum_graph = o1.graph.delete_edges(kt1).with_edges(extra, fresh)

    if signed:
        sig1 = o1.bias.signature
        phi = dict.fromkeys(seconds, False)
        for x, e in zip(seconds[1:], kt1):  # kt1 follows the pairs (0, 1), (0, 2), (1, 2)
            phi[x] = e in sig1
        pot = {v: psi[v] != phi.get(v, False) for v in o2.graph.vertex_set}
        negative = set()
        for old, new in emap.items():
            u, v = o2.graph.endpoints(old)
            if (old in sig2) != (pot[u] != pot[v]):
                negative.add(new)
        return make_signed(sum_graph, (sig1 - set(kt1)) | negative)

    closing = {
        tuple(sorted((firsts[i], firsts[j]))): frozenset({e})
        for (i, j), e in zip(combinations(range(t), 2), kt1)
    }
    return BiasedGraph(sum_graph, Lifted(o1.bias, extra, closing))
