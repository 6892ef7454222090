"""Benchmark of the multi-process sweep runner on a real experiment grid.

Measures the wall-clock of a Fig.-1-style OMP-finetune grid executed
serially and through :class:`repro.core.parallel.SweepRunner` with four
workers, after prewarming the shared pretrained models (exactly how the
experiment runners use it).  The speedup assertion only applies on
machines with enough cores to host the workers; everywhere else the
benchmark still verifies that the parallel rows are identical to the
serial ones, which is the runner's correctness contract.
"""

import os
import time

from repro.experiments import fig1_omp_finetune

from benchmarks.conftest import report

#: Worker count the speedup claim is stated for.
WORKERS = 4

#: Grid restricted to one task so the benchmark adds one serial pass
#: plus one parallel pass of four points to the suite, not a second
#: full Fig. 1.
TASKS = ("cifar10",)


def test_sweep_runner_speedup(scale, context):
    sparsities = scale.sparsity_grid + scale.high_sparsity_grid
    context.prewarm(scale.models)
    # Draw every ticket the grid needs up front so both timed passes see
    # an identically warm ticket cache; the measurement then isolates
    # the downstream transfers, which is the work the runner fans out.
    for model_name in scale.models:
        pipeline = context.pipeline(model_name)
        for prior in ("robust", "natural"):
            for sparsity in sparsities:
                pipeline.draw_omp_ticket(prior, sparsity)

    start = time.perf_counter()
    serial = fig1_omp_finetune.run(scale, context=context, tasks=TASKS, sparsities=sparsities)
    serial_time = time.perf_counter() - start

    start = time.perf_counter()
    parallel = fig1_omp_finetune.run(
        scale, context=context, tasks=TASKS, sparsities=sparsities, workers=WORKERS
    )
    parallel_time = time.perf_counter() - start

    report(parallel)
    assert serial.as_records() == parallel.as_records()

    speedup = serial_time / parallel_time
    print(
        f"\nserial {serial_time:.1f}s  {WORKERS} workers {parallel_time:.1f}s  "
        f"speedup {speedup:.2f}x on {os.cpu_count()} cpus"
    )
    if (os.cpu_count() or 1) >= WORKERS and not os.environ.get("CI"):
        assert speedup >= 2.0, (
            f"expected >=2x wall-clock speedup at {WORKERS} workers, got {speedup:.2f}x"
        )
