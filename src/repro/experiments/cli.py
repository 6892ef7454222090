"""Command-line entry point for the experiment runners.

Examples
--------
List the available experiments with their grid sizes::

    python -m repro.experiments --list

Reproduce Fig. 1 at smoke scale across 4 workers and save the rows::

    python -m repro.experiments fig1 --scale smoke --workers 4 --csv fig1.csv

Run a resumable sweep (interrupt it, re-run, and only the missing grid
points are evaluated) and export the finished table as a versioned JSON
artifact::

    python -m repro.experiments fig4 --resume --output fig4_run.json

Seal the best grid point of a sweep as a servable model artifact::

    python -m repro.experiments fig2 --export-model winner.npz
    python -m repro.serve --artifact winner.npz
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.core.parallel import default_workers
from repro.core.runstore import (
    RUN_STORE_ENV_VAR,
    RunStore,
    default_run_root,
    run_key,
    write_artifact,
)
from repro.experiments.config import get_scale
from repro.experiments.registry import (
    available_experiments,
    get_spec,
    run_experiment,
)
from repro.utils.checkpoint import write_file


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the figures/tables of 'Robust Tickets Can Transfer Better'.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help=f"experiment identifier (one of: {', '.join(available_experiments())})",
    )
    parser.add_argument(
        "--scale",
        default="smoke",
        choices=("smoke", "paper"),
        help="experiment scale preset (default: smoke)",
    )
    parser.add_argument("--csv", metavar="PATH", help="also write the result rows to a CSV file")
    parser.add_argument(
        "--list",
        action="store_true",
        help="list available experiments with their grid size at --scale and exit",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes the experiment's grid points fan out across "
            "(default: the REPRO_SWEEP_WORKERS environment variable, else "
            "1 = serial)"
        ),
    )
    parser.add_argument(
        "--resume",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "run-store directory: already-completed grid points are loaded "
            "instead of recomputed and fresh rows checkpoint as they land, "
            "so an interrupted sweep restarts warm (default directory: the "
            f"{RUN_STORE_ENV_VAR} environment variable, else "
            "~/.cache/repro/runs)"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the finished table as a versioned JSON run artifact",
    )
    parser.add_argument(
        "--export-model",
        metavar="PATH",
        help=(
            "seal the best grid point of the finished sweep as a servable "
            "repro-model/v1 artifact (winning ticket + trained linear head; "
            "serve it with `python -m repro.serve --artifact PATH`)"
        ),
    )
    return parser


def _list_experiments(scale_name: str) -> None:
    scale = get_scale(scale_name)
    print(f"Available experiments ({scale.name} scale):")
    for name in available_experiments():
        spec = get_spec(name)
        points = len(spec.plan(scale).points)
        print(f"  {name:<22} {points:>4} points  {spec.title}")
        if spec.description:
            print(f"  {'':<22} {'':>4}         {spec.description}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    # ``--resume`` takes an optional directory, so ``--resume fig2``
    # parses the experiment name as the store path; catch that instead
    # of silently listing experiments and reporting success.
    if args.experiment is None and args.resume in available_experiments():
        parser.error(
            f"experiment {args.resume!r} was parsed as the --resume directory; "
            "put the experiment before --resume, or pass an explicit directory"
        )

    if args.list or args.experiment is None:
        _list_experiments(args.scale)
        return 0

    if args.experiment not in available_experiments():
        parser.error(
            f"unknown experiment {args.experiment!r}; use --list to see the available identifiers"
        )

    if args.export_model:
        # Fail before the sweep, not after: sealability is a property of
        # the experiment's declared row schema.
        from repro.experiments.export import sealable_columns_missing

        missing = sealable_columns_missing(get_spec(args.experiment).columns)
        if missing:
            parser.error(
                f"experiment {args.experiment!r} cannot be sealed with --export-model: "
                f"its row schema lacks {missing} (supported: sweeps over "
                "(model, task, sparsity) grids such as fig1/fig2/fig3)"
            )

    store = None
    if args.resume is not None:
        root = args.resume or os.environ.get(RUN_STORE_ENV_VAR) or default_run_root()
        store = RunStore(root)
        key = run_key(args.experiment, get_scale(args.scale))
        print(f"run store: {store.directory(key)}")

    workers = args.workers if args.workers is not None else default_workers()
    table = run_experiment(args.experiment, scale=args.scale, workers=workers, store=store)
    print(table.to_text())
    if args.csv:
        write_file(args.csv, table.to_csv() + "\n")
        print(f"\nwrote {len(table)} rows to {args.csv}")
    if args.output:
        path = write_artifact(
            args.output, table, key=run_key(args.experiment, get_scale(args.scale))
        )
        print(f"\nwrote run artifact ({len(table)} rows) to {path}")
    if args.export_model:
        # Imported lazily: serving is optional for plain sweep runs.
        from repro.experiments.context import shared_context
        from repro.experiments.export import export_best

        scale = get_scale(args.scale)
        try:
            path = export_best(
                table,
                args.experiment,
                scale,
                shared_context(scale),
                args.export_model,
                key=run_key(args.experiment, scale),
            )
        except ValueError as error:
            parser.error(str(error))
        print(f"\nsealed model artifact (repro-model/v1) to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
