"""repro.bench — a unified benchmark registry with baseline-gated comparison.

Every hot path (tensor ops, fused inference, sweep dispatch, serving
throughput) is a declarative :class:`~repro.bench.spec.BenchSpec` run
by one harness with warmup/repeat/median timing and machine
calibration, emitting versioned ``repro-bench/v1`` artifacts that a
statistical comparator gates against committed baselines
(``benchmarks/baselines/``).  See ``python -m repro.bench --help``.
"""

from repro.bench.baseline import (
    BASELINE_FORMAT,
    BASELINES_ENV_VAR,
    Baseline,
    BaselineStore,
    default_baseline_dir,
)
from repro.bench.calibrate import CALIBRATION_VERSION, Calibration, calibrate
from repro.bench.compare import (
    Verdict,
    compare_artifact,
    compare_measurement,
    has_regression,
    render_verdicts,
)
from repro.bench.harness import (
    ARTIFACT_FORMAT,
    BenchResult,
    artifact_calibration,
    artifact_results,
    best_wall,
    load_artifact,
    measure,
    run_suite,
)
from repro.bench.spec import (
    BENCHMARKS,
    DEFAULT_TOLERANCE,
    SUITES,
    TIMEBASES,
    BenchSpec,
    available_benchmarks,
    get_bench,
    register,
    suite_benchmarks,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "BASELINE_FORMAT",
    "BASELINES_ENV_VAR",
    "BENCHMARKS",
    "CALIBRATION_VERSION",
    "DEFAULT_TOLERANCE",
    "SUITES",
    "TIMEBASES",
    "Baseline",
    "BaselineStore",
    "BenchResult",
    "BenchSpec",
    "Calibration",
    "Verdict",
    "artifact_calibration",
    "artifact_results",
    "available_benchmarks",
    "best_wall",
    "calibrate",
    "compare_artifact",
    "compare_measurement",
    "default_baseline_dir",
    "get_bench",
    "has_regression",
    "load_artifact",
    "measure",
    "register",
    "render_verdicts",
    "run_suite",
    "suite_benchmarks",
]
