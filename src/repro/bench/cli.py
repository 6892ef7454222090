"""``python -m repro.bench`` — run, compare, and bless benchmarks.

Examples
--------
Run the CI smoke suite and keep the versioned artifact::

    python -m repro.bench run --suite smoke --output run.json

Gate against the committed baselines (non-zero exit on a regression or
a broken bound)::

    python -m repro.bench compare run.json

Accept an intentional perf change (then commit the diff)::

    python -m repro.bench update-baseline run.json

List the registry::

    python -m repro.bench list
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench.baseline import Baseline, BaselineStore
from repro.bench.compare import compare_artifact, render_verdicts
from repro.bench.harness import (
    artifact_calibration,
    artifact_results,
    load_artifact,
    run_suite,
)
from repro.bench.spec import SUITES, available_benchmarks, get_bench, suite_benchmarks
from repro.utils.checkpoint import write_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Registered hot-path benchmarks with baseline-gated comparison.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure a suite and write a repro-bench/v1 artifact")
    run.add_argument("--suite", default="smoke", choices=SUITES, help="suite to run")
    run.add_argument(
        "--spec",
        action="append",
        metavar="NAME",
        help="restrict to specific registered specs (repeatable; overrides --suite)",
    )
    run.add_argument(
        "--output", default="run.json", metavar="PATH", help="artifact path (default: run.json)"
    )

    compare = commands.add_parser(
        "compare", help="compare a run artifact against the committed baselines"
    )
    compare.add_argument("artifact", help="repro-bench/v1 artifact produced by `run`")
    compare.add_argument(
        "--baselines",
        metavar="DIR",
        default=None,
        help="baseline directory (default: $REPRO_BENCH_BASELINES, else benchmarks/baselines)",
    )
    compare.add_argument(
        "--strict",
        action="store_true",
        help="also fail when a spec has no committed baseline",
    )

    update = commands.add_parser(
        "update-baseline", help="bless a run artifact's measurements as the new baselines"
    )
    update.add_argument("artifact", help="repro-bench/v1 artifact produced by `run`")
    update.add_argument("--baselines", metavar="DIR", default=None, help="baseline directory")
    update.add_argument(
        "--spec",
        action="append",
        metavar="NAME",
        help="only bless specific specs from the artifact (repeatable)",
    )

    listing = commands.add_parser("list", help="list the registered benchmark specs")
    listing.add_argument("--suite", default=None, choices=SUITES, help="restrict to one suite")
    return parser


def _cmd_run(args) -> int:
    if args.spec:
        names = list(dict.fromkeys(args.spec))  # dedupe, keep order
        unknown = [name for name in names if name not in available_benchmarks()]
        if unknown:
            print(
                f"error: unknown benchmark spec(s) {unknown}; "
                "see `python -m repro.bench list`",
                file=sys.stderr,
            )
            return 2
        specs = [get_bench(name) for name in names]
        suite = "custom"
    else:
        specs = suite_benchmarks(args.suite)
        suite = args.suite
    artifact = run_suite(
        specs,
        suite=suite,
        progress=lambda name: print(f"  measuring {name} ...", flush=True),
    )
    path = write_json(args.output, artifact)
    unit_ms = artifact["calibration"]["unit_s"] * 1e3
    print(f"\ncalibration unit: {unit_ms:.3f}ms")
    for result in artifact_results(artifact):
        print(
            f"  {result.spec:<32} {result.wall_s['median'] * 1e3:>9.2f}ms  "
            f"{result.units:>8.2f} units"
        )
        for note in result.violations:
            print(f"  {'':<32} ! {note}")
    print(f"\nwrote {len(artifact['results'])} measurements to {path}")
    return 0


def _cmd_compare(args) -> int:
    artifact = load_artifact(args.artifact)
    store = BaselineStore(args.baselines)
    verdicts = compare_artifact(artifact, store)
    print(f"baselines: {store.root}")
    print(render_verdicts(verdicts))
    missing = [verdict for verdict in verdicts if verdict.status == "no_baseline"]
    failing = [verdict for verdict in verdicts if verdict.failing]
    if failing:
        statuses = ", ".join(sorted({verdict.status for verdict in failing}))
        print(f"\nFAIL: {len(failing)} failing verdict(s) ({statuses}); "
              "bless intentional timing changes with `update-baseline`")
        return 1
    if missing and args.strict:
        print(f"\nFAIL (--strict): {len(missing)} spec(s) without a committed baseline")
        return 1
    print("\nOK: no perf regression")
    return 0


def _cmd_update_baseline(args) -> int:
    artifact = load_artifact(args.artifact)
    store = BaselineStore(args.baselines)
    calibration = artifact_calibration(artifact)
    results = artifact_results(artifact)
    if args.spec:
        wanted = set(args.spec)
        unknown = wanted - {result.spec for result in results}
        if unknown:
            print(f"error: artifact has no measurement for {sorted(unknown)}", file=sys.stderr)
            return 2
        results = [result for result in results if result.spec in wanted]
    broken = {result.spec: result.violations for result in results if result.violations}
    if broken:
        print(f"error: a result that broke its declared bounds cannot be blessed: {broken}",
              file=sys.stderr)
        return 1
    for result in results:
        path = store.save(
            Baseline.from_result(result, calibration, source_suite=artifact.get("suite"))
        )
        print(f"  blessed {result.spec:<32} {result.units:>8.2f} units -> {path}")
    print(f"\nupdated {len(results)} baseline(s) in {store.root}")
    return 0


def _cmd_list(args) -> int:
    names = available_benchmarks()
    if args.suite:
        names = [spec.name for spec in suite_benchmarks(args.suite)]
    print(f"Registered benchmarks ({len(names)}):")
    for name in names:
        spec = get_bench(name)
        print(
            f"  {name:<32} suites={','.join(spec.suites):<11} "
            f"repeats={spec.repeats}  tolerance=±{spec.tolerance:.0%}"
        )
        print(f"  {'':<32} {spec.title}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "update-baseline":
        return _cmd_update_baseline(args)
    return _cmd_list(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
