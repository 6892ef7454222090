"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload http_single --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes the
separate traced run that gives the per-layer metrics and the tracing
overhead.  The human-readable report comes first; the last line of
standard output is the JSON result.  The full result, the environment
fingerprint and (traced runs) the spans are also stored under
``.perfbench/results/``; ``perfbench/compare.py`` compares two sets.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

from common import WORK, SourceMissing, load_spec, scratch_dir, use_checkout_source

WORKLOADS = ("http_single", "http_bulk", "fleet_batch", "ticket_pipeline")

#: A run that has not finished by now is abandoned (the contract allows 180 s).
RUN_LIMIT_S = 170


class _Abort(Exception):
    pass


def _abort(signum, frame):  # noqa: ARG001 - signal handler signature
    raise _Abort(f"signal {signum}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure(args: argparse.Namespace, directory: str):
    """Run the workload; returns its :class:`common.Outcome` and the tracer."""
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    if args.workload == "ticket_pipeline":
        import pipeline

        if tracer is not None:
            return pipeline.run_traced(args.seed, args.seconds, tracer), tracer
        return pipeline.run(args.seed, args.seconds), None
    import serving

    if tracer is not None:
        return serving.run_traced(args.workload, args.seed, args.seconds, directory, tracer), tracer
    return serving.run(args.workload, args.seed, args.seconds, directory), None


def result_line(outcome, declared) -> dict:
    """The driver-facing JSON object: every declared metric, with its unit.

    A failed run may lack metrics it could not measure; it is reported
    as incorrect without them.
    """
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in outcome.metrics:
            if outcome.failed:
                continue
            raise RuntimeError(f"the workload did not measure {name!r}")
        metrics[name] = {"value": float(outcome.metrics[name]), "unit": metric["unit"]}
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def report(args, outcome, result, declared, not_exercised, env) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  fingerprint {json.dumps(env, sort_keys=True)}")
    for metric in declared:
        if metric["name"] not in result["metrics"]:
            print(f"  {metric['name']:<36} {'not measured':>14} (the run failed)")
            continue
        value = result["metrics"][metric["name"]]["value"]
        flag = "  (not exercised by this workload)" if metric["name"] in not_exercised else ""
        print(f"  {metric['name']:<36} {value:>14.6g} {metric['unit']:<6} {metric['better']} is better{flag}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else float("nan")
    print(f"  {'error_rate':<36} {rate:>14.6g} ratio  ({outcome.failed} of {outcome.attempted} failed or wrong)")
    for key, value in outcome.notes.items():
        print(f"  note {key}: {value}")
    for problem in outcome.problems:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_source()
        spec = load_spec()
    except (SourceMissing, OSError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from procs import become_subreaper, stop_children

    become_subreaper()
    signal.signal(signal.SIGALRM, _abort)
    signal.signal(signal.SIGTERM, _abort)
    signal.alarm(RUN_LIMIT_S)
    from fingerprint import fingerprint

    directory = scratch_dir(args.workload)
    stopped = False
    try:
        outcome, tracer = measure(args, directory)
    except _Abort as error:
        print(f"perfbench: run abandoned ({error})", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        # A signal now must not cut short the wait for the processes.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        stopped = stop_children()
        shutil.rmtree(directory, ignore_errors=True)
    if not stopped:
        print("perfbench: a child process would not end", file=sys.stderr)
        return 4

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    not_exercised = []
    if args.trace:
        # Each traced workload measures the layers it runs through; a
        # layer it never reaches reads 0.
        for metric in declared:
            if metric["name"] not in outcome.metrics:
                not_exercised.append(metric["name"])
                outcome.metrics[metric["name"]] = 0.0
    result = result_line(outcome, declared)
    env = fingerprint()
    report(args, outcome, result, declared, not_exercised, env)

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(
        results,
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}",
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": env,
        "result": result,
        "notes": outcome.notes,
        "problems": outcome.problems,
        "not_exercised": not_exercised,
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    if tracer is not None:
        tracer.dump(stem + "-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
