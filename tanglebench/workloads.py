"""The four workloads: their inputs, the timed operation, its checks and
its traced decomposition into layer calls.

A workload's ``setup`` builds its cases through a meter, so set-up time is
normalised like everything else.  ``operate`` is the timed operation: load
the relabelled document, then make the one call the workload is about.
``check`` judges the answer by a computation made apart from the program or
by a property the method must have, and returns (defects, certificates).
``trace`` makes the same calls layer by layer, each on a freshly loaded
input, so that every span measures one public function.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import networkx as nx

import checks
import corpus
from tanglekit import io
from tanglekit.bias import AllBalanced, BiasedGraph, validate_biased_graph
from tanglekit.classify import classify, decompose
from tanglekit.embedding import ordered_planarity
from tanglekit.families import build_family, verify_family
from tanglekit.graph import MultiGraph, enumerate_cycles, enumerate_theta_subgraphs, find_vertex_cuts
from tanglekit.linkage import (
    Linkage,
    ThreePlanarWitness,
    find_linkage,
    find_three_planar,
    verify_linkage,
    verify_witness,
)
from tanglekit.tangles import Tangled, blocking_pairs, is_tangled


@dataclass
class Case:
    """One input: its name, base document text and what the check expects."""

    name: str
    text: str
    expect: str = ""
    kind: str = ""
    terminals: tuple[int, int, int, int] = (0, 0, 0, 0)
    codes: tuple[str, ...] | None = None  # classify labels of the first round


def _document(meter, o) -> str:
    return meter.call("io.serialize", corpus.document, o)


def _fresh(rel: corpus.Relabelled) -> BiasedGraph:
    return io.load(rel.text)


def _load_traced(meter, rel: corpus.Relabelled) -> BiasedGraph:
    doc = meter.call("io.parse", io.parse, rel.text)
    return meter.call("io.realize", io.realize, doc)


def _trace_cycles(meter, rel: corpus.Relabelled) -> None:
    """Cycle enumeration, and for explicit bias the theta scan that io.parse
    makes, each on a fresh input."""
    g = _fresh(rel).graph
    cycles = meter.call("graph.enumerate_cycles", enumerate_cycles, g)
    meter.count("graph.cycles", len(cycles))
    if "bias explicit" in rel.text:
        thetas = meter.call("graph.enumerate_theta_subgraphs", enumerate_theta_subgraphs, g, cycles)
        meter.count("graph.thetas", len(thetas))
        meter.call("bias.validate_biased_graph", validate_biased_graph, _fresh(rel))


def _trace_tangles(meter, rel: corpus.Relabelled):
    o = _fresh(rel)
    verdict = meter.call("tangles.is_tangled", is_tangled, o)
    meter.count("tangles.unbalanced_cycles", len(o.unbalanced_cycles()))
    meter.call("tangles.blocking_pairs", blocking_pairs, _fresh(rel))
    return verdict


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------


# The verdict each seeded signed graph is drawn to have, by vertex count and
# cyclomatic number.  A fixed mix keeps the number of certificates and the
# share of early exits the same for every seed; every verdict here has a
# probability of at least 8% at its grade, so the draws stay short.
_VERDICT_MIX = {
    6: {2: "Balanced", 3: "HasBlockingVertex", 4: "Tangled", 5: "Tangled", 6: "TwoDisjointUnbalanced", 8: "TwoDisjointUnbalanced"},
    7: {2: "HasBlockingVertex", 3: "Balanced", 4: "TwoDisjointUnbalanced", 5: "HasBlockingVertex", 6: "Tangled", 8: "TwoDisjointUnbalanced"},
    8: {2: "Balanced", 3: "HasBlockingVertex", 4: "Tangled", 5: "TwoDisjointUnbalanced", 6: "HasBlockingVertex", 8: "Tangled"},
    9: {2: "HasBlockingVertex", 3: "Balanced", 4: "TwoDisjointUnbalanced", 5: "Tangled", 6: "TwoDisjointUnbalanced", 8: "HasBlockingVertex"},
}

_VERDICT_MEMBERS = (
    "wheel-digon-rim", "wheel-c4-part", "wheel-triangle-rim", "criss-cross-c4", "criss-cross-wheel",
    "fat-triangle", "fat-triangle-k4", "special-pair", "special-triple", "special-vertex",
    "tricoloured-consecutive", "tricoloured-alternating", "tricoloured-degenerate",
    "pp-signed-c4", "pp-signed-c6",
)
_VERDICT_TSUMS = ("tsum3-fatk4-k4", "tsum2-ppc6-k4", "tsum2-k5-k3", "tsum1-cc4-k3")


def _build(meter, members, tsums) -> dict[str, object]:
    """The family members, and those the t-sums are made from, built by the
    program's builder."""
    descriptors = corpus.family_descriptors()
    names = sorted(set(members) | {corpus.TSUMS[t][0] for t in tsums})
    return {name: meter.call("families.build_family", build_family, descriptors[name]) for name in names}


class Verdict:
    """io.load plus is_tangled on signed graphs, family members and t-sums."""

    name = "verdict"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, meter) -> list[Case]:
        rng = random.Random(f"verdict/{self.seed}")
        cases = []
        for n, grades in _VERDICT_MIX.items():
            for cyclomatic, verdict in grades.items():
                # at most 2**8 cycles, far inside the pair scan's cap
                pairs, sig = corpus.draw_signed(rng, n, cyclomatic, verdict)
                o = meter.call("corpus.signed_graph", corpus.signed_graph, pairs, sig)
                cases.append(Case(f"signed-n{n}-r{cyclomatic}", _document(meter, o), "switching"))
        built = _build(meter, _VERDICT_MEMBERS, _VERDICT_TSUMS)
        for name in _VERDICT_MEMBERS:
            expect = "switching" if name.startswith("pp-signed") else "tangled"
            cases.append(Case(name, _document(meter, built[name]), expect))
        for name, o in meter.call("families.t_sum", corpus.t_sums, built, _VERDICT_TSUMS).items():
            cases.append(Case(name, _document(meter, o), "tangled"))
        fixed = random.Random(corpus.FIXED_SEED)
        for m in (30, 32):
            # dense enough that the pair scan refuses them (see README)
            pairs = corpus.random_connected_pairs(fixed, 9, m)
            o = meter.call("corpus.signed_graph", corpus.signed_graph, pairs, corpus.random_signature(fixed, pairs))
            cases.append(Case(f"dense-n9-m{m}", _document(meter, o), "switching"))
        return cases

    def operate(self, case: Case, rel: corpus.Relabelled):
        return is_tangled(io.load(rel.text))

    def check(self, case: Case, rel: corpus.Relabelled, verdict) -> tuple[list[str], int]:
        if case.expect == "tangled":
            ok = isinstance(verdict, Tangled)
            return ([] if ok else [f"family member or t-sum judged {type(verdict).__name__}"]), 0
        return checks.check_signed_verdict(checks.read_signed(rel.text), verdict)

    def trace(self, meter, case: Case, rel: corpus.Relabelled):
        _load_traced(meter, rel)
        _trace_cycles(meter, rel)
        return _trace_tangles(meter, rel)


# ---------------------------------------------------------------------------
# classify-first and classify-full
# ---------------------------------------------------------------------------


# classify-first runs every member but criss-cross-c4, whose first-hit time
# moves by half with the id layout.  classify-full leaves out the members its
# battery takes 8 to 17 s on (special-vertex, pp-signed-c8, criss-cross-wheel)
# and two small ones whose family has another member in the set.  With the
# set below, the median operation falls inside the pair of tricoloured rings, and pp-signed-c6, whose time ranges from 30 to 630 ms with the id
# layout, stays below the next larger ones.
_FIRST_MEMBERS = (
    "wheel-digon-rim", "wheel-c4-part", "wheel-triangle-rim", "criss-cross-wheel",
    "fat-triangle", "fat-triangle-k4", "special-pair", "special-triple", "special-vertex",
    "tricoloured-consecutive", "tricoloured-alternating", "tricoloured-degenerate",
    "k5", "pp-signed-c4", "pp-signed-c6", "pp-signed-c8",
)
_FIRST_TSUMS = ("tsum1-fat-k3", "tsum2-fat-k3", "tsum3-fatk4-k4", "tsum2-ppc6-k4")
_FULL_MEMBERS = (
    "wheel-c4-part", "wheel-triangle-rim", "fat-triangle", "special-pair", "pp-signed-c4", "pp-signed-c6",
    "tricoloured-consecutive", "tricoloured-alternating", "tricoloured-degenerate",
    "special-triple", "criss-cross-c4", "k5",
)
_FULL_TSUMS = ("tsum3-fatk4-k4", "tsum2-k5-k3")

# The ROADMAP's tangled 9-vertex input; classify raises GraphError on it.
_ROADMAP_PAIRS = [(0, 7), (1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (4, 6), (5, 6), (5, 7), (6, 7), (6, 8)]
_ROADMAP_SIGNATURE = (0, 2, 5, 11)


class Classify:
    """io.load plus classify, with the first-hit or the full battery."""

    def __init__(self, seed: int, first: bool):
        self.seed = seed
        self.first = first
        self.name = "classify-first" if first else "classify-full"

    def setup(self, meter) -> list[Case]:
        members = _FIRST_MEMBERS if self.first else _FULL_MEMBERS
        tsums = _FIRST_TSUMS if self.first else _FULL_TSUMS
        built = _build(meter, members, tsums)
        kinds = {name: d.kind for name, d in corpus.family_descriptors().items()}
        cases = [Case(name, _document(meter, built[name]), kind=kinds[name]) for name in members]
        for name, o in meter.call("families.t_sum", corpus.t_sums, built, tsums).items():
            cases.append(Case(name, _document(meter, o)))
        if self.first:
            # fuzz graphs come from a fixed seed: the run seed moves their id
            # layout only, so their share of the figures does not change
            fixed = random.Random(corpus.FIXED_SEED)
            for i in range(5):
                pairs, sig = corpus.draw_tangled(fixed, 6)
                o = meter.call("corpus.signed_graph", corpus.signed_graph, pairs, sig)
                cases.append(Case(f"fuzz-{i}", _document(meter, o)))
        else:
            o = meter.call("corpus.signed_graph", corpus.signed_graph, _ROADMAP_PAIRS, _ROADMAP_SIGNATURE)
            cases.append(Case("roadmap-n9", _document(meter, o)))
        return cases

    def operate(self, case: Case, rel: corpus.Relabelled):
        return classify(io.load(rel.text), first=self.first)

    def check(self, case: Case, rel: corpus.Relabelled, report) -> tuple[list[str], int]:
        bad: list[str] = []
        if not isinstance(report.verdict, Tangled):
            bad.append(f"tangled input judged {type(report.verdict).__name__}")
        codes = report.codes()
        if not codes:
            bad.append("no label")
        # label sets are invariant under relabelling
        if case.codes is None:
            case.codes = codes
        elif codes != case.codes:
            bad.append(f"labels {codes} after relabelling, {case.codes} before")
        if not self.first and case.kind and case.kind not in {lb.kind for lb in report.labels}:
            bad.append(f"{case.kind} member lacks its own label")
        certs = 0
        o = _fresh(rel)
        for label in report.labels:
            if label.descriptor is not None:
                target = label.witness if label.witness is not None else o
                if verify_family(target, label.descriptor).passed:
                    certs += 1
                else:
                    bad.append(f"{label.code} certificate fails verify_family")
            elif label.code == "T3":
                if report.decomposition is None or report.decomposition.verify(o):
                    bad.append("T3 decomposition fails SumDecomposition.verify")
                else:
                    certs += 1
        return bad, certs

    def trace(self, meter, case: Case, rel: corpus.Relabelled):
        _load_traced(meter, rel)
        _trace_cycles(meter, rel)
        verdict = _trace_tangles(meter, rel)
        cuts = meter.call("graph.find_vertex_cuts", find_vertex_cuts, _fresh(rel).graph, 3)
        meter.count("graph.vertex_cuts", len(cuts))
        if isinstance(verdict, Tangled):
            dec = meter.call("classify.decompose", decompose, _fresh(rel))
            if dec.nodes:
                meter.call("classify.decomposition_verify", dec.verify, _fresh(rel))
        report = meter.call("classify.classify", classify, _fresh(rel), first=self.first)
        meter.count("classify.labels", len(report.labels))
        o = _fresh(rel)
        for label in report.labels:
            if label.descriptor is not None:
                target = label.witness if label.witness is not None else o
                cert = meter.call("families.verify_family", verify_family, target, label.descriptor)
                meter.count("families.certificates_checked", int(cert.passed))
        return report


# ---------------------------------------------------------------------------
# linkage
# ---------------------------------------------------------------------------


def _grid(r: int, c: int, diagonals: bool = False) -> MultiGraph:
    pairs = []
    for i in range(r):
        for j in range(c):
            v = i * c + j
            if j + 1 < c:
                pairs.append((v, v + 1))
            if i + 1 < r:
                pairs.append((v, v + c))
            if diagonals and i + 1 < r and j + 1 < c:
                pairs.append((v, v + c + 1))
    return MultiGraph.from_pairs(pairs)


def _wheel(k: int) -> MultiGraph:
    return MultiGraph.from_pairs([(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)])


def _prism(k: int) -> MultiGraph:
    return MultiGraph.from_pairs(
        [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)] + [(i, k + i) for i in range(k)]
    )


def _complete(n: int) -> MultiGraph:
    return MultiGraph.from_pairs(list(itertools.combinations(range(n), 2)))


def _bipartite(a: int, b: int) -> MultiGraph:
    return MultiGraph.from_pairs([(i, a + j) for i in range(a) for j in range(b)])


def _petersen() -> MultiGraph:
    return MultiGraph.from_pairs(
        [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )


def _four_connected_nonplanar(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Edge pairs of a random graph that networkx finds 4-connected and
    non-planar; by Jung's theorem every choice of two terminal pairs in it
    is linked."""
    while True:
        pairs = sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))
        nxg = nx.Graph(pairs)
        if nxg.number_of_nodes() == n and nx.node_connectivity(nxg) >= 4 and not nx.check_planarity(nxg)[0]:
            return pairs


def _linkage_doc(g: MultiGraph) -> str:
    return corpus.document(BiasedGraph(g, AllBalanced()))


class LinkageWorkload:
    """io.load plus find_linkage on planar crossing, linked and non-planar inputs."""

    name = "linkage"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, meter) -> list[Case]:
        cases = []

        def add(name, build, args, terminals, expect):
            g = meter.call("corpus.graph", build, *args)
            cases.append(Case(name, meter.call("io.serialize", _linkage_doc, g), expect, terminals=terminals))

        # planar, terminals s1, s2, t1, t2 in this order around the outer face:
        # no linkage exists, so the answer must be a witness
        for r, c in ((3, 3), (3, 4), (4, 4), (3, 5), (4, 5), (5, 5), (3, 6), (3, 7)):
            tl, tr, br, bl = 0, c - 1, r * c - 1, (r - 1) * c
            add(f"grid-{r}x{c}-crossing", _grid, (r, c), (tl, br, tr, bl), "witness")
        for r, c in ((3, 3), (3, 4), (4, 4)):
            tl, tr, br, bl = 0, c - 1, r * c - 1, (r - 1) * c
            add(f"trigrid-{r}x{c}-crossing", _grid, (r, c, True), (tl, br, tr, bl), "witness")
        for k in range(5, 11):
            add(f"wheel-{k}-crossing", _wheel, (k,), (1, 1 + k // 2, 2, 2 + k // 2), "witness")
        for k in (4, 5, 6):
            add(f"prism-{k}-crossing", _prism, (k,), (0, 2, 1, 3), "witness")
        # inputs with a linkage
        for r in (3, 4, 5):
            add(f"grid-{r}x{r}-rows", _grid, (r, r), (0, r - 1, r * (r - 1), r * r - 1), "linkage")
        for k in (5, 6):
            add(f"prism-{k}-sides", _prism, (k,), (0, 1, k, k + 1), "linkage")
        add("k5", _complete, (5,), (0, 2, 1, 3), "linkage")
        add("k6", _complete, (6,), (0, 3, 1, 4), "linkage")
        add("k33", _bipartite, (3, 3), (0, 3, 1, 4), "linkage")
        add("k34", _bipartite, (3, 4), (0, 3, 1, 4), "linkage")
        add("petersen", _petersen, (), (0, 2, 1, 3), "linkage")
        rng = random.Random(f"linkage/{self.seed}")
        for i in range(5):
            pairs = _four_connected_nonplanar(rng, 8, 22)
            add(f"nonplanar-{i}", MultiGraph.from_pairs, (pairs,), tuple(rng.sample(range(8), 4)), "linkage")
        return cases

    @staticmethod
    def _terminals(case: Case, rel: corpus.Relabelled) -> tuple[int, int, int, int]:
        return tuple(rel.vertex_map[v] for v in case.terminals)

    def operate(self, case: Case, rel: corpus.Relabelled):
        return find_linkage(io.load(rel.text).graph, *self._terminals(case, rel))

    def check(self, case: Case, rel: corpus.Relabelled, out) -> tuple[list[str], int]:
        s1, t1, s2, t2 = self._terminals(case, rel)
        g = _fresh(rel).graph
        if case.expect == "witness":
            if not isinstance(out, ThreePlanarWitness):
                return [f"crossing planar input gave {type(out).__name__}"], 0
            bad = list(verify_witness(g, out, (s1, s2, t1, t2)))
        else:
            if not isinstance(out, Linkage):
                return [f"linked input gave {type(out).__name__}"], 0
            bad = checks.check_paths(g.edge_map, out, s1, t1, s2, t2)
        return bad, 0 if bad else 1

    def trace(self, meter, case: Case, rel: corpus.Relabelled):
        g = _load_traced(meter, rel).graph
        s1, t1, s2, t2 = self._terminals(case, rel)
        out = meter.call("linkage.find_linkage", find_linkage, g, s1, t1, s2, t2)
        order = (s1, s2, t1, t2)
        if isinstance(out, ThreePlanarWitness):
            meter.count("linkage.witnesses", 1)
            meter.call("linkage.verify_witness", verify_witness, g, out, order)
            meter.call("linkage.find_three_planar", find_three_planar, _fresh(rel).graph, order)
        elif isinstance(out, Linkage):
            meter.call("linkage.verify_linkage", verify_linkage, g, out, s1, t1, s2, t2)
        meter.call("embedding.ordered_planarity", ordered_planarity, _fresh(rel).graph, order)
        return out


WORKLOADS = {
    "verdict": lambda seed: Verdict(seed),
    "classify-first": lambda seed: Classify(seed, first=True),
    "classify-full": lambda seed: Classify(seed, first=False),
    "linkage": lambda seed: LinkageWorkload(seed),
}
