"""Command-line entry point.

``tanglekit verdict FILE`` prints the tangle verdict of an instance
document (see :mod:`tanglekit.io`) and its certificate: the blocking
vertex, or the edge ids of two vertex-disjoint unbalanced cycles, one
``cycle`` line each.  ``tanglekit classify FILE`` prints the verdict and the
label codes of every structure case the input matches.

Caps come from the ``TANGLEKIT_CAP`` environment variable
(:func:`tanglekit.limits.caps_from_env`).  A document defect, an exceeded
cap or an input the classifier does not take ends the run with a one-line
message that names the stage, and exit status 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .classify import ClassifyError, classify
from .io import ParseError, load, report_text, verdict_text
from .limits import ResourceLimitError, caps_from_env
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
    return parser


def _verdict_lines(verdict) -> list[str]:
    lines = [verdict_text(verdict)]
    if isinstance(verdict, TwoDisjointUnbalanced):
        lines += ["cycle " + " ".join(map(str, c.key)) for c in (verdict.first, verdict.second)]
    return lines


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
    try:
        o = load(text, caps)
        if args.command == "verdict":
            lines = _verdict_lines(is_tangled(o, caps))
        else:
            lines = [report_text(classify(o, caps))]
    except ParseError as err:
        print(f"tanglekit: parse: {err}", file=sys.stderr)
        return 1
    except ResourceLimitError as err:
        print(f"tanglekit: {err}", file=sys.stderr)
        return 1
    except ClassifyError as err:
        print(f"tanglekit: classify: {err}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
