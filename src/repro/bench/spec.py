"""Declarative benchmark specs and the process-wide registry.

Every hot path of the system — tensor ops, the training step, fused
inference, the sweep dispatcher, the serving scheduler — is registered
here as a :class:`BenchSpec`, following the per-figure spec pattern of
:mod:`repro.experiments.spec`: the *definition* of a benchmark (what to
set up, what to time, which suites it belongs to, how much drift it
tolerates) is data, and one harness (:mod:`repro.bench.harness`) runs
every spec the same way.  That uniformity is what makes the results
comparable across runs and machines, and therefore gateable in CI.

A spec separates **setup** (untimed: build models, draw data) from
**payload** (timed: the hot path itself).  The payload receives the
setup's state and may return a dict of extra metrics (throughput
counters, shapes) whose keys are declared up front in ``metrics`` —
the harness validates the returned dict against that schema so a spec
cannot silently stop reporting a number a dashboard relies on.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The suites a spec may belong to.  ``smoke`` is the CI gate (seconds
#: per spec); ``full`` is the broader local suite.
SUITES = ("smoke", "full")

#: How a spec's wall-time is normalised for baseline comparison.
#: ``machine`` divides by the startup calibration unit (CPU-bound
#: payloads: the right basis across machines of different speed);
#: ``wall`` compares raw seconds (payloads bound by wait windows or
#: thread scheduling, whose duration does not scale with CPU speed).
TIMEBASES = ("machine", "wall")

#: Default relative tolerance (in machine units) before a slowdown
#: counts as a regression.  Generous on purpose: the gate must survive
#: shared CI runners; a real regression in these payloads is 2x+.
DEFAULT_TOLERANCE = 0.75

#: The comparisons a bound may declare, by their written form.
COMPARISONS: Dict[str, Callable[[Any, Any], bool]] = {
    ">=": operator.ge,
    "<=": operator.le,
    "<": operator.lt,
}


@dataclasses.dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: declarative setup, payload, and policy.

    Parameters
    ----------
    name:
        Dotted identifier (``"engine.fused_inference"``); doubles as
        the baseline filename, so it must be filesystem-safe.
    setup:
        Zero-argument callable building the untimed state (models,
        batches, schedulers).  Runs once per measurement.
    payload:
        The timed callable.  Receives the setup state; may return a
        dict carrying exactly the keys declared in ``metrics``.
    suites:
        Which suites include this spec (subset of :data:`SUITES`).
    metrics:
        Keys the payload's returned dict must provide (empty: the
        payload's return value is ignored).
    warmup / repeats:
        Untimed warmup calls, then timed repeats; the harness reports
        the median of the repeats.
    tolerance:
        Relative machine-unit slowdown tolerated before the comparator
        declares a regression (``0.75`` = 75% slower).
    timebase:
        One of :data:`TIMEBASES`: ``machine`` (default) gates on
        calibration-normalised units, ``wall`` on raw seconds.
    bounds:
        Contracts on declared metrics, each ``(metric, comparison,
        threshold)`` with a comparison from :data:`COMPARISONS`, e.g.
        ``("speedup", ">=", 1.5)``.  The harness checks every payload
        call, warmup included, and records each violation on the
        result, which ``compare`` then fails.  A payload reports its
        bounded metrics unrounded: rounding could lift a value over
        its bound.
    """

    name: str
    title: str
    setup: Callable[[], Any]
    payload: Callable[[Any], Optional[Dict[str, Any]]]
    suites: Tuple[str, ...] = ("smoke", "full")
    metrics: Tuple[str, ...] = ()
    warmup: int = 1
    repeats: int = 5
    tolerance: float = DEFAULT_TOLERANCE
    timebase: str = "machine"
    bounds: Tuple[Tuple[str, str, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.name or any(sep in self.name for sep in "/\\ "):
            raise ValueError(f"spec name must be a filesystem-safe identifier, got {self.name!r}")
        unknown = [suite for suite in self.suites if suite not in SUITES]
        if unknown or not self.suites:
            raise ValueError(f"suites must be a non-empty subset of {SUITES}, got {self.suites}")
        if self.repeats < 1 or self.warmup < 0:
            raise ValueError(f"need repeats >= 1 and warmup >= 0, got {self.repeats}/{self.warmup}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.timebase not in TIMEBASES:
            raise ValueError(f"timebase must be one of {TIMEBASES}, got {self.timebase!r}")
        for metric, comparison, _ in self.bounds:
            if metric not in self.metrics:
                raise ValueError(f"bound on {metric!r}, which is not among metrics {self.metrics}")
            if comparison not in COMPARISONS:
                raise ValueError(
                    f"bound comparison must be one of {tuple(COMPARISONS)}, got {comparison!r}"
                )

    def violations(self, metrics: Dict[str, Any]) -> List[str]:
        """A note naming each declared bound that ``metrics`` breaks."""
        return [
            f"{metric} = {metrics[metric]!r} breaks {metric} {comparison} {threshold!r}"
            for metric, comparison, threshold in self.bounds
            if not COMPARISONS[comparison](metrics[metric], threshold)
        ]


#: The process-wide registry: ``{spec.name: spec}`` in registration order.
BENCHMARKS: Dict[str, BenchSpec] = {}


def register(spec: BenchSpec) -> BenchSpec:
    """Add ``spec`` to :data:`BENCHMARKS`; duplicate names are an error."""
    if spec.name in BENCHMARKS:
        raise ValueError(f"benchmark {spec.name!r} is already registered")
    BENCHMARKS[spec.name] = spec
    return spec


def available_benchmarks() -> List[str]:
    """Registered spec names, in registration order."""
    _ensure_registered()
    return list(BENCHMARKS)


def get_bench(name: str) -> BenchSpec:
    """The registered spec called ``name``."""
    _ensure_registered()
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {', '.join(BENCHMARKS) or '(none)'}"
        ) from None


def suite_benchmarks(suite: str) -> List[BenchSpec]:
    """Every registered spec tagged with ``suite``, in registration order."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    _ensure_registered()
    return [spec for spec in BENCHMARKS.values() if suite in spec.suites]


def _ensure_registered() -> None:
    """Import the built-in spec table (idempotent, import-cycle safe)."""
    from repro.bench import specs  # noqa: F401  (registration side effect)
