"""CLI for the observability plane: ``python -m repro.obs doc``.

``doc`` renders the metrics reference from the registry's declarations.
By default it prints to stdout; ``--output docs/METRICS.md`` writes the
file, and ``--check`` compares against the committed file and exits
non-zero on drift (the CI docs-gate runs exactly that).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs.docgen import generate_reference
from repro.utils.checkpoint import write_file


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description="Observability plane tooling."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    doc = sub.add_parser("doc", help="render the metrics reference from registry declarations")
    doc.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the reference here instead of stdout (e.g. docs/METRICS.md)",
    )
    doc.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="PATH",
        help="compare against the committed reference; exit 1 on drift",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    reference = generate_reference()
    if args.check is not None:
        try:
            committed = args.check.read_text()
        except OSError as error:
            print(f"metrics reference missing: {error}", file=sys.stderr)
            return 1
        if committed != reference:
            print(
                f"{args.check} is stale: regenerate with "
                f"`PYTHONPATH=src python -m repro.obs doc --output {args.check}`",
                file=sys.stderr,
            )
            return 1
        print(f"{args.check} matches registry declarations")
        return 0
    if args.output is not None:
        write_file(str(args.output), reference)
        print(f"wrote {args.output}")
        return 0
    sys.stdout.write(reference)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
