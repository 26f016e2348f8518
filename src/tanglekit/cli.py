"""Command-line entry point.

``tanglekit verdict FILE`` prints the tangle verdict of an instance
document (see :mod:`tanglekit.io`) and its certificate: the blocking
vertex, or the edge ids of two vertex-disjoint unbalanced cycles, one
``cycle`` line each.  ``tanglekit classify FILE`` prints the verdict and the
label codes of every structure case the input matches.  When a cap
stopped some family searches, a ``capped`` line follows with their kinds
(:attr:`tanglekit.classify.ClassificationReport.capped`): the labels
they would have found may be missing.
``tanglekit linkage FILE S1 T1 S2 T2`` prints two vertex-disjoint paths
joining S1 to T1 and S2 to T2, one ``path <vertices>`` line each, or, when
none exist, ``witness`` and one ``set <vertices>`` line per vertex set the
three-planar witness deletes (see :func:`tanglekit.linkage.find_linkage`).

Caps come from the ``TANGLEKIT_CAP`` environment variable
(:func:`tanglekit.limits.caps_from_env`).  A document defect, an exceeded
cap, an input the classifier does not take or terminals the linkage search
does not take end the run with a one-line message that names the stage,
and exit status 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .classify import ClassifyError, classify
from .io import ParseError, load, report_text, verdict_text
from .limits import ResourceLimitError, caps_from_env
from .linkage import Linkage, LinkageError, find_linkage
from .tangles import TwoDisjointUnbalanced, is_tangled


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanglekit", description="Tangle verdicts and structure labels of biased graphs."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("verdict", "print the tangle verdict and its certificate"),
        ("classify", "print the verdict and the label codes"),
    ):
        commands.add_parser(name, help=text).add_argument("file", help="instance document")
    linkage = commands.add_parser("linkage", help="print two disjoint paths or a three-planar witness")
    linkage.add_argument("file", help="instance document")
    for terminal in ("s1", "t1", "s2", "t2"):
        linkage.add_argument(terminal, type=int, help="terminal vertex")
    return parser


def _verdict_lines(verdict) -> list[str]:
    lines = [verdict_text(verdict)]
    if isinstance(verdict, TwoDisjointUnbalanced):
        lines += ["cycle " + " ".join(map(str, c.key)) for c in (verdict.first, verdict.second)]
    return lines


def _report_lines(report) -> list[str]:
    lines = [report_text(report)]
    if report.capped:
        lines.append("capped " + " ".join(report.capped))
    return lines


def _linkage_lines(found) -> list[str]:
    if isinstance(found, Linkage):
        return ["path " + " ".join(map(str, p.vertices)) for p in (found.first, found.second)]
    return ["witness"] + ["set " + " ".join(map(str, sorted(a))) for a in found.sets]


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        caps = caps_from_env()
    except ValueError as err:
        print(f"tanglekit: {err}", file=sys.stderr)
        return 2
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"tanglekit: {args.file}: {err.strerror}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as err:
        print(f"tanglekit: {args.file}: not UTF-8: {err}", file=sys.stderr)
        return 1
    try:
        o = load(text, caps)
        if args.command == "verdict":
            lines = _verdict_lines(is_tangled(o, caps))
        elif args.command == "classify":
            lines = _report_lines(classify(o, caps))
        else:
            lines = _linkage_lines(find_linkage(o.graph, args.s1, args.t1, args.s2, args.t2, caps))
    except ParseError as err:
        print(f"tanglekit: parse: {err}", file=sys.stderr)
        return 1
    except ResourceLimitError as err:
        print(f"tanglekit: {err}", file=sys.stderr)
        return 1
    except ClassifyError as err:
        print(f"tanglekit: classify: {err}", file=sys.stderr)
        return 1
    except LinkageError as err:
        print(f"tanglekit: linkage: {err}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
