"""Line-oriented instance documents and DOT export.

The document format is deliberately small: a header line fixes the format
version, a vertex-count line fixes the vertex set ``0..count-1``, one line
per edge record, and one bias block.  The bias block is one of

* ``bias signed <edge ids...>``,
* ``bias explicit`` followed by ``bal <edge ids...>`` lines,
* ``bias all-balanced`` / ``bias all-unbalanced``,
* ``bias explicit`` plus a trailing ``default balanced|unbalanced`` line,
  in which case the listed cycles are a partial assignment completed by
  :func:`tanglekit.bias.complete_bias`.

An optional ``family <kind>`` line with ``role <name> <json>`` lines records
which constructor produced the instance.  Blank lines and ``#`` comments are
ignored.  Parsing validates the document all the way down to the theta
property, so a parsed document always realises a consistent biased graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bias import (
    AllBalanced,
    AllUnbalanced,
    BiasedGraph,
    BiasError,
    ExplicitSet,
    Signed,
    complete_bias,
    make_explicit,
    make_signed,
    validate_theta,
)
from .classify import ClassificationReport, _maximal_balanced_sets
from .graph import Cycle, GraphError, MultiGraph
from .limits import Caps, DEFAULT_CAPS
from .tangles import Balanced, HasBlockingVertex, TangleVerdict, Tangled

HEADER = "biasedgraph"
FORMAT_VERSION = 1

_BIAS_KINDS = ("signed", "explicit", "all-balanced", "all-unbalanced")


class ParseError(ValueError):
    """A document defect, located by 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class InstanceDocument:
    """A parsed instance file.

    ``edges`` holds ``(id, u, v)`` records.  ``balanced`` holds canonical
    edge-id keys of the explicitly balanced cycles; ``default`` is None for
    an exact explicit list and the fill-in value for a partial one.  Family
    roles are kept as canonical JSON strings so serialisation round-trips.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]
    bias_kind: str
    signature: tuple[int, ...] = ()
    balanced: tuple[tuple[int, ...], ...] = ()
    default: bool | None = None
    family: tuple[str, tuple[tuple[str, str], ...]] | None = None
    version: int = FORMAT_VERSION

    def graph(self) -> MultiGraph:
        return MultiGraph.build(range(self.vertex_count), self.edges)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _tokens(line: str) -> list[tuple[str, int]]:
    out = []
    col = 0
    for piece in line.split(" "):
        if piece:
            out.append((piece, col + 1))
        col += len(piece) + 1
    return out


def _int_token(tok: str, no: int, col: int, what: str) -> int:
    try:
        value = int(tok, 10)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {tok!r}", no, col) from None
    return value


class _Reader:
    def __init__(self, text: str):
        self.rows = []
        for no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if line.strip():
                self.rows.append((no, _tokens(line)))
        self.pos = 0

    def peek(self) -> tuple[int, list[tuple[str, int]]] | None:
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def take(self) -> tuple[int, list[tuple[str, int]]]:
        row = self.peek()
        if row is None:
            last = self.rows[-1][0] if self.rows else 1
            raise ParseError("unexpected end of document", last)
        self.pos += 1
        return row


def parse(text: str, caps: Caps = DEFAULT_CAPS) -> InstanceDocument:
    """Parse and fully validate an instance document.

    Raises :class:`ParseError` for both syntax defects and semantic ones
    (dangling edge ids, endpoints outside the vertex range, bias lists that
    violate the theta property).
    """
    return _parse(text, caps)[0]


def _parse(text: str, caps: Caps) -> tuple[InstanceDocument, BiasedGraph | None]:
    """The document, and for an explicit bias the biased graph its check built."""
    rd = _Reader(text)

    no, toks = rd.take()
    if toks[0][0] != HEADER:
        raise ParseError(f"expected {HEADER!r} header", no, toks[0][1])
    if len(toks) != 2:
        raise ParseError("header takes exactly one version number", no, toks[0][1])
    version = _int_token(toks[1][0], no, toks[1][1], "format version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version}", no, toks[1][1])

    no, toks = rd.take()
    if toks[0][0] != "v" or len(toks) != 2:
        raise ParseError("expected 'v <count>'", no, toks[0][1])
    count = _int_token(toks[1][0], no, toks[1][1], "vertex count")
    if count < 0:
        raise ParseError("vertex count must be non-negative", no, toks[1][1])

    edges: list[tuple[int, int, int]] = []
    edge_line: dict[int, int] = {}
    while (row := rd.peek()) is not None and row[1][0][0] == "e":
        no, toks = rd.take()
        if len(toks) != 4:
            raise ParseError("expected 'e <id> <u> <v>'", no, toks[0][1])
        e = _int_token(toks[1][0], no, toks[1][1], "edge id")
        u = _int_token(toks[2][0], no, toks[2][1], "endpoint")
        v = _int_token(toks[3][0], no, toks[3][1], "endpoint")
        if e < 0:
            raise ParseError("edge id must be non-negative", no, toks[1][1])
        if e in edge_line:
            raise ParseError(f"duplicate edge id {e}", no, toks[1][1])
        for value, (_, col) in ((u, toks[2]), (v, toks[3])):
            if not 0 <= value < count:
                raise ParseError(f"endpoint {value} outside 0..{count - 1}", no, col)
        edges.append((e, u, v))
        edge_line[e] = no

    no, toks = rd.take()
    if toks[0][0] != "bias":
        raise ParseError("expected a 'bias' line after the edge records", no, toks[0][1])
    if len(toks) < 2 or toks[1][0] not in _BIAS_KINDS:
        raise ParseError(
            "bias kind must be one of " + ", ".join(_BIAS_KINDS), no, toks[-1][1]
        )
    kind = toks[1][0]
    bias_line = no
    known = set(edge_line)

    signature: tuple[int, ...] = ()
    balanced: list[tuple[int, ...]] = []
    default: bool | None = None

    if kind == "signed":
        sig = []
        for tok, col in toks[2:]:
            e = _int_token(tok, no, col, "edge id")
            if e not in known:
                raise ParseError(f"signature names unknown edge {e}", no, col)
            sig.append(e)
        signature = tuple(sorted(set(sig)))
    elif kind == "explicit":
        if len(toks) != 2:
            raise ParseError("'bias explicit' takes no arguments", no, toks[2][1])
    else:
        if len(toks) != 2:
            raise ParseError(f"'bias {kind}' takes no arguments", no, toks[2][1])

    graph = MultiGraph.build(range(count), edges)

    cycles: dict[tuple[int, ...], Cycle] = {}
    if kind == "explicit":
        while (row := rd.peek()) is not None and row[1][0][0] == "bal":
            no, toks = rd.take()
            ids = []
            for tok, col in toks[1:]:
                e = _int_token(tok, no, col, "edge id")
                if e not in known:
                    raise ParseError(f"cycle names unknown edge {e}", no, col)
                ids.append(e)
            if not ids:
                raise ParseError("'bal' needs at least one edge id", no, toks[0][1])
            try:
                cyc = Cycle.from_edge_set(graph, ids)
            except GraphError as exc:
                raise ParseError(str(exc), no, toks[0][1]) from None
            cycles.setdefault(cyc.key, cyc)
        balanced = sorted(cycles)
        if (row := rd.peek()) is not None and row[1][0][0] == "default":
            no, toks = rd.take()
            if len(toks) != 2 or toks[1][0] not in ("balanced", "unbalanced"):
                raise ParseError("expected 'default balanced|unbalanced'", no, toks[0][1])
            default = toks[1][0] == "balanced"

    family: tuple[str, tuple[tuple[str, str], ...]] | None = None
    if (row := rd.peek()) is not None and row[1][0][0] == "family":
        no, toks = rd.take()
        if len(toks) != 2:
            raise ParseError("expected 'family <kind>'", no, toks[0][1])
        fkind = toks[1][0]
        roles: list[tuple[str, str]] = []
        while (row := rd.peek()) is not None and row[1][0][0] == "role":
            no, toks = rd.take()
            if len(toks) < 3:
                raise ParseError("expected 'role <name> <json>'", no, toks[0][1])
            name = toks[1][0]
            blob = " ".join(tok for tok, _ in toks[2:])
            try:
                value = json.loads(blob)
            except json.JSONDecodeError as exc:
                raise ParseError(f"role value is not JSON: {exc.msg}", no, toks[2][1]) from None
            roles.append((name, json.dumps(value)))
        family = (fkind, tuple(roles))

    if (row := rd.peek()) is not None:
        no, toks = row
        raise ParseError(f"unexpected directive {toks[0][0]!r}", no, toks[0][1])

    doc = InstanceDocument(
        vertex_count=count,
        edges=tuple(sorted(edges)),
        bias_kind=kind,
        signature=signature,
        balanced=tuple(balanced),
        default=default,
        family=family,
        version=version,
    )
    return doc, _check_bias(doc, graph, [cycles[key] for key in doc.balanced], caps, bias_line)


def _check_bias(
    doc: InstanceDocument, graph: MultiGraph, cycles: list[Cycle], caps: Caps, line: int
) -> BiasedGraph | None:
    """Check an explicit bias and return the biased graph it describes.

    `cycles` are the document's balanced cycles, which the parse built on
    `graph` from their edge sets, so none is foreign and none is rebuilt.
    """
    if doc.bias_kind != "explicit":
        return None
    if doc.default is None:
        bad = validate_theta(graph, cycles, caps)
        if bad:
            triple = ", ".join(
                "(" + " ".join(map(str, c.key)) + ")" for c in bad[0].cycles
            )
            raise ParseError(
                f"theta violation: exactly two of the cycles {triple} are balanced",
                line,
            )
        return BiasedGraph(graph, ExplicitSet(frozenset(cycles)))
    out = complete_bias(graph, {c: True for c in cycles}, default=doc.default, caps=caps)
    if out is None:
        raise ParseError(
            "partial bias has no theta-consistent completion with "
            f"default {'balanced' if doc.default else 'unbalanced'}",
            line,
        )
    return out


def realize(doc: InstanceDocument, caps: Caps = DEFAULT_CAPS) -> BiasedGraph:
    """Build the biased graph a document describes.

    An explicit bias is checked here as in :func:`parse`, since the document
    may not come from it; :func:`load` builds it once, in the parse check.
    """
    graph = doc.graph()
    if doc.bias_kind == "signed":
        return make_signed(graph, doc.signature)
    if doc.bias_kind == "all-balanced":
        return BiasedGraph(graph, AllBalanced())
    if doc.bias_kind == "all-unbalanced":
        return make_explicit(graph, [], check=False)
    cycles = [Cycle.from_edge_set(graph, key) for key in doc.balanced]
    if doc.default is None:
        return make_explicit(graph, cycles, check=True, caps=caps)
    out = complete_bias(graph, {c: True for c in cycles}, default=doc.default, caps=caps)
    if out is None:
        raise BiasError("partial bias has no theta-consistent completion")
    return out


def load(text: str, caps: Caps = DEFAULT_CAPS) -> BiasedGraph:
    """Parse a document and build its biased graph, checking the bias once."""
    doc, checked = _parse(text, caps)
    return checked if checked is not None else realize(doc, caps)


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def serialize(doc: InstanceDocument) -> str:
    lines = [f"{HEADER} {doc.version}", f"v {doc.vertex_count}"]
    for e, u, v in sorted(doc.edges):
        lines.append(f"e {e} {u} {v}")
    if doc.bias_kind == "signed":
        tail = "".join(f" {e}" for e in sorted(doc.signature))
        lines.append(f"bias signed{tail}")
    else:
        lines.append(f"bias {doc.bias_kind}")
    if doc.bias_kind == "explicit":
        for key in sorted(doc.balanced):
            lines.append("bal " + " ".join(map(str, key)))
        if doc.default is not None:
            lines.append(f"default {'balanced' if doc.default else 'unbalanced'}")
    if doc.family is not None:
        kind, roles = doc.family
        lines.append(f"family {kind}")
        for name, blob in roles:
            lines.append(f"role {name} {blob}")
    return "\n".join(lines) + "\n"


def _role_json(value: object) -> str:
    if isinstance(value, frozenset):
        return json.dumps(sorted(value))
    if isinstance(value, tuple):
        return json.dumps([json.loads(_role_json(x)) for x in value])
    return json.dumps(value)


def document_from(
    o: BiasedGraph,
    family: tuple[str, dict[str, object]] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> InstanceDocument:
    """Describe a biased graph as a document.

    The vertex set must already be ``0..n-1``.  Explicit bias is written as
    the full balanced-cycle list, so the caps must admit a cycle scan.
    """
    g = o.graph
    if set(g.vertices) != set(range(g.n)):
        raise BiasError("documents require vertices numbered 0..n-1")
    edges = tuple(sorted((e, *g.endpoints(e)) for e in g.edge_ids))
    fam = None
    if family is not None:
        kind, roles = family
        fam = (kind, tuple((name, _role_json(value)) for name, value in roles.items()))
    bias = o.bias
    if isinstance(bias, Signed):
        return InstanceDocument(g.n, edges, "signed", signature=tuple(sorted(bias.signature)), family=fam)
    if isinstance(bias, AllBalanced):
        return InstanceDocument(g.n, edges, "all-balanced", family=fam)
    if isinstance(bias, AllUnbalanced):
        return InstanceDocument(g.n, edges, "all-unbalanced", family=fam)
    if not isinstance(bias, ExplicitSet):
        raise BiasError(f"unknown bias spec {type(bias).__name__}")
    if not bias.balanced:
        return InstanceDocument(g.n, edges, "all-unbalanced", family=fam)
    keys = tuple(sorted(c.key for c in bias.balanced))
    return InstanceDocument(g.n, edges, "explicit", balanced=keys, family=fam)


def verdict_text(verdict: TangleVerdict) -> str:
    if isinstance(verdict, Tangled):
        return "tangled"
    if isinstance(verdict, Balanced):
        return "balanced"
    if isinstance(verdict, HasBlockingVertex):
        return f"blocking vertex {verdict.vertex}"
    return "two disjoint unbalanced cycles"


def report_text(report: ClassificationReport) -> str:
    """The verdict, then the label codes after a colon when there are any."""
    text = verdict_text(report.verdict)
    if report.codes():
        text += ": " + " ".join(report.codes())
    return text


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_ROLE_FIELDS = {
    "PPSigned": (("xs", "x"), ("ys", "y")),
    "GeneralizedWheel": (("hub", "hub"), ("hinges", "hinge")),
    "CrissCross": (("w", "w"), ("u", "u")),
    "FatTriangle": (("v", "corner"),),
    "PPSpecialVertex": (("w", "w"), ("u", "u"), ("z", "z")),
    "PPSpecialPair": (("x", "x"), ("y", "y"), ("X", "X"), ("Y", "Y")),
    "PPSpecialTriple": (("x", "x"), ("y1", "y1"), ("y2", "y2"), ("X", "X")),
    "Tricoloured": (("hinges", "hinge"), ("xs", "x")),
    "K5Parallel": (),
}


def _role_vertices(value: object) -> list[int]:
    if value is None:
        return []
    if isinstance(value, int):
        return [value]
    out = []
    for item in value:  # type: ignore[union-attr]
        out.extend(_role_vertices(item))
    return out


def _vertex_roles(report: ClassificationReport) -> dict[int, list[str]]:
    roles: dict[int, list[str]] = {}
    for label in report.labels:
        if label.descriptor is None or label.witness is not None:
            continue
        fields = _ROLE_FIELDS.get(label.kind)
        if fields is None:
            continue
        desc = label.descriptor
        for attr, tag in fields:
            for v in _role_vertices(desc.roles.get(attr)):
                roles.setdefault(v, []).append(tag)
        break
    return roles


def _dashed_edges(o: BiasedGraph, caps: Caps) -> frozenset[int]:
    bias = o.bias
    if isinstance(bias, Signed):
        return bias.signature
    if isinstance(bias, AllBalanced):
        return frozenset()
    msets = _maximal_balanced_sets(o, caps)
    if not msets:
        return o.graph.edge_id_set
    return o.graph.edge_id_set - msets[0]


def export_dot(
    o: BiasedGraph,
    report: ClassificationReport | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> str:
    """Render as undirected DOT.

    Edges outside a maximum balanced structure (the signature for signed
    bias, the complement of a largest balanced edge set otherwise) are
    dashed; everything else is solid.  With a report, the graph is titled
    with the verdict and label codes and certificate-role vertices are
    tagged.
    """
    dashed = _dashed_edges(o, caps)
    lines = ["graph biasedgraph {"]
    if report is not None:
        lines.append(f'  label="{report_text(report)}";')
    lines.append("  node [shape=circle];")
    roles = _vertex_roles(report) if report is not None else {}
    for v in sorted(o.graph.vertices):
        if v in roles:
            tag = "\\n".join([str(v)] + sorted(set(roles[v])))
            lines.append(f'  {v} [label="{tag}"];')
        else:
            lines.append(f"  {v};")
    for e in sorted(o.graph.edge_ids):
        u, v = o.graph.endpoints(e)
        attrs = [f'label="e{e}"']
        if e in dashed:
            attrs.append("style=dashed")
        lines.append(f"  {u} -- {v} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
