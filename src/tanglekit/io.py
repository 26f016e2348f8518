"""Line-oriented instance documents and DOT export.

The document format is deliberately small: a header line fixes the format
version, a vertex-count line fixes the vertex set ``0..count-1``, one line
per edge record, and one bias block.  The bias block is one of

* ``bias signed <edge ids...>``,
* ``bias explicit`` followed by ``bal <edge ids...>`` lines,
* ``bias all-balanced`` / ``bias all-unbalanced``,
* ``bias explicit`` plus a trailing ``default balanced|unbalanced`` line.
  With ``default balanced`` every cycle is balanced.  With ``default
  unbalanced`` the balanced cycles are the theta closure of those listed,
  their least completion (:func:`tanglekit.bias.complete_bias`).

An optional ``family <kind>`` line with ``role <name> <json>`` lines records
which constructor produced the instance.  Fields are separated by runs of
whitespace, spaces and tabs alike; blank lines and ``#`` comments are ignored.

Parsing checks each line once, as it reads it, all the way down to the theta
property, and builds the graph once from the checked rows; :func:`load`
returns the biased graph built on it.  :func:`realize` and
:meth:`MultiGraph.build` take input from elsewhere and check it all again.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .bias import (
    AllBalanced,
    AllUnbalanced,
    BiasedGraph,
    BiasError,
    ExplicitSet,
    Lifted,
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


_FIELD = re.compile(r"\S+")

_Row = tuple[int, str, list[str]]  # line number, raw line, fields


def _defect(message: str, row: _Row, k: int = 0) -> ParseError:
    """A ParseError at field k of a row; the column is found only here."""
    no, raw, _ = row
    return ParseError(message, no, [m.start() + 1 for m in _FIELD.finditer(raw)][k])


def _int(row: _Row, k: int, what: str) -> int:
    try:
        return int(row[2][k])
    except ValueError:
        raise _defect(f"{what} must be an integer, got {row[2][k]!r}", row, k) from None


class _Reader:
    def __init__(self, text: str):
        self.rows: list[_Row] = [
            (no, raw, fields)
            for no, raw in enumerate(text.splitlines(), start=1)
            if (fields := raw.partition("#")[0].split())
        ]
        self.pos = 0

    def take(self) -> _Row:
        if self.pos == len(self.rows):
            raise ParseError("unexpected end of document", self.rows[-1][0] if self.rows else 1)
        self.pos += 1
        return self.rows[self.pos - 1]

    def next_is(self, word: str) -> bool:
        return self.pos < len(self.rows) and self.rows[self.pos][2][0] == word

    def run(self, word: str) -> list[_Row]:
        """Take the rows from here on that start with `word`."""
        start, rows = self.pos, self.rows
        while self.pos < len(rows) and rows[self.pos][2][0] == word:
            self.pos += 1
        return rows[start : self.pos]


def _edge_ids(row: _Row, start: int, known: set[int], where: str) -> list[int]:
    """The edge ids from field `start` on; each must name a known edge.
    Only a defective row is scanned field by field, for its first defect."""
    try:
        ids = [int(tok) for tok in row[2][start:]]
    except ValueError:
        ids = None
    if ids is None or not known.issuperset(ids):
        for k in range(start, len(row[2])):
            if (e := _int(row, k, "edge id")) not in known:
                raise _defect(f"{where} names unknown edge {e}", row, k)
    return ids


def parse(text: str, caps: Caps = DEFAULT_CAPS) -> InstanceDocument:
    """Parse and fully validate an instance document.

    Raises :class:`ParseError` for both syntax defects and semantic ones
    (dangling edge ids, endpoints outside the vertex range, bias lists that
    violate the theta property).
    """
    return _parse(text, caps)[0]


def _parse(text: str, caps: Caps) -> tuple[InstanceDocument, BiasedGraph]:
    """The document and its biased graph, built once from the checked rows."""
    rd = _Reader(text)

    row = rd.take()
    toks = row[2]
    if toks[0] != HEADER:
        raise _defect(f"expected {HEADER!r} header", row)
    if len(toks) != 2:
        raise _defect("header takes exactly one version number", row)
    version = _int(row, 1, "format version")
    if version != FORMAT_VERSION:
        raise _defect(f"unsupported format version {version}", row, 1)

    row = rd.take()
    if row[2][0] != "v" or len(row[2]) != 2:
        raise _defect("expected 'v <count>'", row)
    count = _int(row, 1, "vertex count")
    if count < 0:
        raise _defect("vertex count must be non-negative", row, 1)

    edges: list[tuple[int, int, int]] = []
    known: set[int] = set()
    for row in rd.run("e"):
        toks = row[2]
        if len(toks) != 4:
            raise _defect("expected 'e <id> <u> <v>'", row)
        try:
            e, u, v = int(toks[1]), int(toks[2]), int(toks[3])
        except ValueError:
            e, u, v = _int(row, 1, "edge id"), _int(row, 2, "endpoint"), _int(row, 3, "endpoint")
        if e < 0:
            raise _defect("edge id must be non-negative", row, 1)
        if e in known:
            raise _defect(f"duplicate edge id {e}", row, 1)
        for k, end in ((2, u), (3, v)):
            if not 0 <= end < count:
                raise _defect(f"endpoint {end} outside 0..{count - 1}", row, k)
        edges.append((e, u, v))
        known.add(e)

    row = rd.take()
    toks = row[2]
    if toks[0] != "bias":
        raise _defect("expected a 'bias' line after the edge records", row)
    if len(toks) < 2 or toks[1] not in _BIAS_KINDS:
        raise _defect("bias kind must be one of " + ", ".join(_BIAS_KINDS), row, len(toks) - 1)
    kind = toks[1]
    bias_line = row[0]

    signature: tuple[int, ...] = ()
    balanced: list[tuple[int, ...]] = []
    default: bool | None = None

    if kind == "signed":
        signature = tuple(sorted(set(_edge_ids(row, 2, known, "signature"))))
    elif len(toks) != 2:
        raise _defect(f"'bias {kind}' takes no arguments", row, 2)

    records = tuple(sorted(edges))
    graph = MultiGraph(tuple(range(count)), records)

    cycles: dict[tuple[int, ...], Cycle] = {}
    if kind == "explicit":
        for row in rd.run("bal"):
            ids = _edge_ids(row, 1, known, "cycle")
            if not ids:
                raise _defect("'bal' needs at least one edge id", row)
            try:
                cyc = Cycle.from_edge_set(graph, ids)
            except GraphError as exc:
                raise _defect(str(exc), row) from None
            cycles.setdefault(cyc.key, cyc)
        balanced = sorted(cycles)
        if rd.next_is("default"):
            row = rd.take()
            if len(row[2]) != 2 or row[2][1] not in ("balanced", "unbalanced"):
                raise _defect("expected 'default balanced|unbalanced'", row)
            default = row[2][1] == "balanced"

    family: tuple[str, tuple[tuple[str, str], ...]] | None = None
    if rd.next_is("family"):
        row = rd.take()
        if len(row[2]) != 2:
            raise _defect("expected 'family <kind>'", row)
        roles: list[tuple[str, str]] = []
        for role in rd.run("role"):
            if len(role[2]) < 3:
                raise _defect("expected 'role <name> <json>'", role)
            try:
                value = json.loads(" ".join(role[2][2:]))
            except json.JSONDecodeError as exc:
                raise _defect(f"role value is not JSON: {exc.msg}", role, 2) from None
            roles.append((role[2][1], json.dumps(value)))
        family = (row[2][1], tuple(roles))

    if rd.pos < len(rd.rows):
        row = rd.rows[rd.pos]
        raise _defect(f"unexpected directive {row[2][0]!r}", row)

    doc = InstanceDocument(
        vertex_count=count,
        edges=records,
        bias_kind=kind,
        signature=signature,
        balanced=tuple(balanced),
        default=default,
        family=family,
        version=version,
    )
    return doc, _biased(doc, graph, [cycles[key] for key in doc.balanced], caps, bias_line)


def _biased(
    doc: InstanceDocument, graph: MultiGraph, cycles: list[Cycle], caps: Caps, line: int
) -> BiasedGraph:
    """The biased graph of a parsed document, on the graph the parse built.

    Only an explicit bias is checked here.  `cycles` are the document's
    balanced cycles, which the parse built on `graph` from their edge
    sets, so none is foreign and none is rebuilt.
    """
    if doc.bias_kind == "signed":
        return BiasedGraph(graph, Signed(frozenset(doc.signature)))
    if doc.bias_kind == "all-balanced":
        return BiasedGraph(graph, AllBalanced())
    if doc.bias_kind == "all-unbalanced":
        return BiasedGraph(graph, ExplicitSet(frozenset()))
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
    if doc.default:
        # every cycle balanced satisfies the theta rule and holds the list
        return BiasedGraph(graph, ExplicitSet(frozenset(graph.cycles(caps))))
    # a list that marks cycles balanced only always has its closure, which
    # leaves out every cycle the theta rule does not force in: never None
    return complete_bias(graph, {c: True for c in cycles}, caps=caps)


def realize(doc: InstanceDocument, caps: Caps = DEFAULT_CAPS) -> BiasedGraph:
    """Build the biased graph a document describes.

    The document may not come from :func:`parse`, so its edges and bias are
    checked here again; :func:`load` needs no such second pass.
    """
    graph = doc.graph()
    if doc.bias_kind == "signed":
        return make_signed(graph, doc.signature)
    if doc.bias_kind != "explicit":
        return _biased(doc, graph, [], caps, 0)
    cycles = [Cycle.from_edge_set(graph, key) for key in doc.balanced]
    if doc.default is None:
        return make_explicit(graph, cycles, check=True, caps=caps)
    return _biased(doc, graph, cycles, caps, 0)


def load(text: str, caps: Caps = DEFAULT_CAPS) -> BiasedGraph:
    """Parse a document and return the biased graph the parse built, so that
    each line is checked and the graph built exactly once."""
    return _parse(text, caps)[1]


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

    The vertex set must already be ``0..n-1``.  Explicit and lifted bias
    are written as the full balanced-cycle list, so the caps must admit a
    cycle scan.
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
    if not isinstance(bias, (ExplicitSet, Lifted)):
        raise BiasError(f"unknown bias spec {type(bias).__name__}")
    balanced = bias.balanced if isinstance(bias, ExplicitSet) else o.balanced_cycles(caps)
    if not balanced:
        return InstanceDocument(g.n, edges, "all-unbalanced", family=fam)
    keys = tuple(sorted(c.key for c in balanced))
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
