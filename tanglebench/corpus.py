"""Benchmark inputs: family members, t-sums, seeded signed graphs, linkage graphs.

Everything here returns plain data or tanglekit objects built through the
public builders; documents are written with ``io.document_from`` and
``io.serialize`` and relabelled as text, so every timed operation starts
from document text.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import checks
from tanglekit import io
from tanglekit.bias import make_signed
from tanglekit.families import FamilyDescriptor, describe_k5_family, describe_pp_signed, t_sum
from tanglekit.graph import MultiGraph

# Inputs that stay fixed for every seed.  Their underlying graphs come from
# fixed constants; only their id layout varies, through the relabelling.
FIXED_SEED = 20140307


# ---------------------------------------------------------------------------
# Family members, one descriptor per builder case (vertices numbered 0..n-1)
# ---------------------------------------------------------------------------


def _fd(kind: str, pairs, roles) -> FamilyDescriptor:
    return FamilyDescriptor(kind, MultiGraph.from_pairs(pairs), roles)


def _ring6():
    return (
        tuple(frozenset({i, (i + 1) % 6}) for i in range(6)),
        tuple(frozenset({i}) for i in range(6)),
    )


def family_descriptors() -> dict[str, FamilyDescriptor]:
    """Small members of every family, keyed by a stable name."""
    pv, pe = _ring6()
    out = {
        "wheel-digon-rim": _fd(
            "GeneralizedWheel",
            [(1, 2), (1, 2), (0, 1), (0, 1), (0, 2), (0, 2)],
            {"hub": 0, "hinges": (1, 2), "parts": (frozenset({0}), frozenset({1})), "xy": (None, None)},
        ),
        "wheel-c4-part": _fd(
            "GeneralizedWheel",
            [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (0, 2), (0, 4)],
            {
                "hub": 0,
                "hinges": (1, 3),
                "parts": (frozenset({0, 1, 2, 3}), frozenset({4})),
                "xy": ((frozenset({2}), frozenset({4})), None),
            },
        ),
        "wheel-triangle-rim": _fd(
            "GeneralizedWheel",
            [(1, 2), (2, 3), (3, 1), (0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (0, 3)],
            {
                "hub": 0,
                "hinges": (2, 3, 1),
                "parts": (frozenset({0}), frozenset({1}), frozenset({2})),
                "xy": (None, None, None),
            },
        ),
        "criss-cross-c4": _fd(
            "CrissCross",
            [(1, 2), (2, 3), (3, 4), (4, 1), (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 4)],
            {"h_edges": frozenset({0, 1, 2, 3}), "u": (1, 2, 3, 4), "w": 0, "e": (4, 5, 6, 7), "f": (8, 9)},
        ),
        "fat-triangle": _fd(
            "FatTriangle",
            [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)],
            {"v": (0, 1, 2), "f12": frozenset({3}), "f23": frozenset({4}), "f31": frozenset({5})},
        ),
        "fat-triangle-k4": _fd(
            "FatTriangle",
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1), (1, 2), (2, 0)],
            {"v": (0, 1, 2), "f12": frozenset({6}), "f23": frozenset({7}), "f31": frozenset({8})},
        ),
        "special-pair": _fd(
            "PPSpecialPair",
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)],
            {
                "x": 0, "y": 1, "X": frozenset({2}), "Y": frozenset({3}),
                "fx": frozenset({4}), "fy": frozenset({5}), "e": (),
            },
        ),
        "special-triple": _fd(
            "PPSpecialTriple",
            [(1, 2), (2, 3), (3, 4), (4, 1), (0, 2), (0, 4), (0, 1), (0, 3), (1, 3)],
            {
                "x": 0, "y1": 1, "y2": 3, "X": frozenset({4}), "F": frozenset({5}),
                "e": (6,), "g": (7,), "f": 8,
            },
        ),
        "tricoloured-consecutive": _fd(
            "Tricoloured",
            [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4), (2, 5)],
            {
                "part_vertices": pv, "part_edges": pe, "hinges": (1, 2, 3, 4, 5, 0),
                "I": frozenset({0, 1, 2}), "xs": (0, 1, 2, None, None, None),
                "ysets": (frozenset({3}), frozenset({4}), frozenset({5}), None, None, None),
                "esets": ((6,), (7,), (8,), None, None, None),
            },
        ),
        "tricoloured-alternating": _fd(
            "Tricoloured",
            [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (2, 5), (4, 1)],
            {
                "part_vertices": pv, "part_edges": pe, "hinges": (1, 2, 3, 4, 5, 0),
                "I": frozenset({0, 2, 4}), "xs": (0, None, 2, None, 4, None),
                "ysets": (frozenset({3}), None, frozenset({5}), None, frozenset({1}), None),
                "esets": ((6,), None, (7,), None, (8,), None),
            },
        ),
        "tricoloured-degenerate": _fd(
            "Tricoloured",
            [(i, (i + 1) % 7) for i in range(7)] + [(0, 4), (1, 5), (2, 6)],
            {
                "part_vertices": (
                    frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}),
                    frozenset({3, 4, 5}), frozenset({5}), frozenset({5, 6, 0}),
                ),
                "part_edges": (
                    frozenset({0}), frozenset({1}), frozenset({2}),
                    frozenset({3, 4}), frozenset(), frozenset({5, 6}),
                ),
                "hinges": (1, 2, 3, 5, 5, 0), "I": frozenset({0, 1, 2}), "xs": (0, 1, 2, None, None, None),
                "ysets": (frozenset({4}), frozenset({5}), frozenset({6}), None, None, None),
                "esets": ((7,), (8,), (9,), None, None, None),
            },
        ),
        "k5": describe_k5_family(),
    }
    for k in (4, 6, 8):
        base = MultiGraph.from_pairs([(i, (i + 1) % k) for i in range(k)])
        out[f"pp-signed-c{k}"] = describe_pp_signed(base, tuple(range(k // 2)), tuple(range(k // 2, k)))
    out["special-vertex"] = _fd(
        "PPSpecialVertex",
        [
            (1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (5, 3), (2, 6),
            (0, 5), (0, 3), (0, 2), (0, 6), (1, 4),
        ],
        {
            "h1_edges": frozenset({0, 1, 2}), "h2_edges": frozenset({3, 4, 5}),
            "xs": (1,), "ys": (4,), "u": (2, 6), "z": (5, 3), "w": 0,
            "bridge_edges": (6, 7), "hub_edges": (8, 9), "g": (10, 11), "f": (12,),
        },
    )
    out["criss-cross-wheel"] = _fd(
        "CrissCross",
        [
            (1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4),
            (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 4),
        ],
        {"h_edges": frozenset(range(8)), "u": (1, 2, 3, 4), "w": 0, "e": (8, 9, 10, 11), "f": (12, 13)},
    )
    return out


def balanced_complete(n: int):
    return make_signed(MultiGraph.from_pairs(list(itertools.combinations(range(n), 2))), ())


# t-sums by name: the family member, the order t of the sum, the size of the
# balanced complete graph glued on, and the identified vertex pairs.
TSUMS = {
    "tsum1-fat-k3": ("fat-triangle", 1, 3, [(0, 0)]),
    "tsum2-fat-k3": ("fat-triangle", 2, 3, [(0, 0), (1, 1)]),
    "tsum3-fatk4-k4": ("fat-triangle-k4", 3, 4, [(0, 0), (1, 1), (2, 2)]),
    "tsum2-ppc6-k4": ("pp-signed-c6", 2, 4, [(0, 0), (1, 1)]),
    "tsum2-k5-k3": ("k5", 2, 3, [(0, 0), (1, 1)]),
    "tsum1-cc4-k3": ("criss-cross-c4", 1, 3, [(1, 0)]),
}


def t_sums(built: dict[str, object], names) -> dict[str, object]:
    """The named t-sums of built family members with balanced complete graphs."""
    out = {}
    for name in names:
        member, t, k, identify = TSUMS[name]
        out[name] = t_sum(built[member], balanced_complete(k), t, identify)
    return out


def document(o) -> str:
    """Document text without family roles: the program gets only the graph."""
    return io.serialize(io.document_from(o))


# ---------------------------------------------------------------------------
# Seeded signed graphs
# ---------------------------------------------------------------------------


def random_connected_pairs(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A connected simple graph on n vertices with min(m, n choose 2) edges."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = {tuple(sorted((order[i], rng.choice(order[:i])))) for i in range(1, n)}
    rest = [p for p in itertools.combinations(range(n), 2) if p not in pairs]
    rng.shuffle(rest)
    pairs.update(rest[: max(0, m - len(pairs))])
    return sorted(pairs)


def signed_graph(pairs, signature) -> object:
    return make_signed(MultiGraph.from_pairs(pairs), signature)


def random_signature(rng: random.Random, pairs) -> frozenset[int]:
    return frozenset(e for e in range(len(pairs)) if rng.random() < 0.5)


def draw_signed(rng: random.Random, n: int, cyclomatic: int, verdict: str):
    """Edge pairs and signature of a random signed graph that the switching
    test gives this verdict (drawn by rejection)."""
    while True:
        pairs = random_connected_pairs(rng, n, n - 1 + cyclomatic)
        sig = random_signature(rng, pairs)
        if checks.signed_facts(checks.SignedDoc(n, dict(enumerate(pairs)), sig)).verdict == verdict:
            return pairs, sig


# ---------------------------------------------------------------------------
# Relabelling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Relabelled:
    text: str
    vertex_map: dict[int, int]
    edge_map: dict[int, int]


def relabel(text: str, rng: random.Random) -> Relabelled:
    """Permute vertex ids and edge ids in a document written by io.serialize.

    Vertex ids stay 0..n-1 in a new order; edge ids move to a random
    subset of 0..3m.  The edge records, the ``bias signed`` list and every
    ``bal`` line are rewritten and shuffled.  The result describes an
    isomorphic biased graph.
    """
    lines = text.splitlines()
    n = int(lines[1].split()[1])
    edge_lines = [ln.split() for ln in lines if ln.startswith("e ")]
    vp = list(range(n))
    rng.shuffle(vp)
    vmap = dict(enumerate(vp))
    new_ids = rng.sample(range(3 * len(edge_lines) + 1), len(edge_lines))
    emap = {int(t[1]): e for t, e in zip(edge_lines, new_ids)}

    def ids(tokens: list[str]) -> list[str]:
        out = [str(emap[int(x)]) for x in tokens]
        rng.shuffle(out)
        return out

    edges = [f"e {emap[int(t[1])]} {vmap[int(t[2])]} {vmap[int(t[3])]}" for t in edge_lines]
    rng.shuffle(edges)
    rest = []
    for ln in lines[2 + len(edge_lines):]:
        t = ln.split()
        if t[:2] == ["bias", "signed"]:
            rest.append(" ".join(t[:2] + ids(t[2:])))
        elif t[0] == "bal":
            rest.append(" ".join(["bal"] + ids(t[1:])))
        else:
            rest.append(ln)
    bal_rows = [i for i, ln in enumerate(rest) if ln.startswith("bal ")]
    shuffled = [rest[i] for i in bal_rows]
    rng.shuffle(shuffled)
    for i, ln in zip(bal_rows, shuffled):
        rest[i] = ln
    return Relabelled("\n".join(lines[:2] + edges + rest) + "\n", vmap, emap)


def draw_tangled(rng: random.Random, n: int):
    """Edge pairs and signature of a random simple connected signed graph
    that the switching test finds tangled, at a random density."""
    return draw_signed(rng, n, rng.randint(3, (n - 1) * (n - 2) // 2), "Tangled")
