"""One harness for every registered benchmark spec.

Runs a :class:`~repro.bench.spec.BenchSpec` the same way regardless of
what it measures: build the setup state (untimed), warm the payload,
time ``repeats`` calls, and report the median together with the spread
and every call that broke one of the spec's declared bounds.
Wall-times are additionally expressed in machine-relative units via the
startup :class:`~repro.bench.calibrate.Calibration`, which is what the
baseline comparator gates on.

A finished run serialises as a versioned ``repro-bench/v1`` JSON
artifact (atomic write, like every other artifact in the repo) that CI
uploads per push — the perf trajectory the ROADMAP asks for — and that
:mod:`repro.bench.compare` consumes.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.bench.calibrate import Calibration, calibrate
from repro.bench.spec import BenchSpec
from repro.tensor.dtypes import ACCUMULATION_DTYPE
from repro.utils.checkpoint import staging_path
from repro.utils.timing import best_wall  # noqa: F401  (re-export: ad-hoc paired timings)

#: Format tag stamped into (and required from) benchmark run artifacts.
ARTIFACT_FORMAT = "repro-bench/v1"

_logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class BenchResult:
    """One spec's measurement: wall-time stats, units, and metrics.

    ``units`` is what the comparator gates on: the median wall-time
    divided by the calibration unit (``timebase == "machine"``), or the
    raw median seconds (``timebase == "wall"``).  ``violations`` names
    each payload call that broke one of the spec's bounds; the
    comparator fails a result that has any.
    """

    spec: str
    title: str
    suites: List[str]
    tolerance: float
    timebase: str
    warmup: int
    repeats: int
    wall_s: Dict[str, float]
    units: float
    metrics: Dict[str, Any]
    violations: List[str] = dataclasses.field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchResult":
        return cls(
            spec=str(payload["spec"]),
            title=str(payload.get("title", payload["spec"])),
            suites=[str(suite) for suite in payload.get("suites", [])],
            tolerance=float(payload["tolerance"]),
            timebase=str(payload.get("timebase", "machine")),
            warmup=int(payload.get("warmup", 0)),
            repeats=int(payload.get("repeats", 1)),
            wall_s={key: float(value) for key, value in payload["wall_s"].items()},
            units=float(payload["units"]),
            metrics=dict(payload.get("metrics", {})),
            violations=[str(note) for note in payload.get("violations", [])],
        )


def measure(spec: BenchSpec, calibration: Calibration) -> BenchResult:
    """Run one spec through the shared timing loop.

    Every call, warmup included, must return the declared metrics and
    is checked against the spec's bounds.
    """
    state = spec.setup()
    calls = spec.warmup + spec.repeats
    times: List[float] = []
    violations: List[str] = []
    for call in range(calls):
        start = time.perf_counter()
        returned = spec.payload(state)
        elapsed = time.perf_counter() - start
        if call >= spec.warmup:
            times.append(elapsed)
        metrics = _declared_metrics(spec, returned)
        violations.extend(f"call {call + 1} of {calls}: {note}" for note in spec.violations(metrics))

    wall = np.asarray(times, dtype=ACCUMULATION_DTYPE)
    median = float(np.median(wall))
    return BenchResult(
        spec=spec.name,
        title=spec.title,
        suites=list(spec.suites),
        tolerance=spec.tolerance,
        timebase=spec.timebase,
        warmup=spec.warmup,
        repeats=spec.repeats,
        wall_s={
            "median": median,
            "min": float(wall.min()),
            "mean": float(wall.mean()),
            "max": float(wall.max()),
        },
        units=calibration.units(median) if spec.timebase == "machine" else median,
        metrics=metrics,
        violations=violations,
    )


def _declared_metrics(spec: BenchSpec, returned: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The declared metrics out of one payload call's return value."""
    if not spec.metrics:
        return {}
    if not isinstance(returned, dict):
        raise TypeError(
            f"benchmark {spec.name!r} declares metrics {spec.metrics} but its "
            f"payload returned {type(returned).__name__}, not a dict"
        )
    missing = [key for key in spec.metrics if key not in returned]
    if missing:
        raise KeyError(f"benchmark {spec.name!r} payload omitted declared metrics {missing}")
    return {key: returned[key] for key in spec.metrics}


def _raised(spec: BenchSpec, error: Exception) -> BenchResult:
    """The result of a spec whose setup or payload raised: no timings, one violation."""
    return BenchResult(
        spec=spec.name,
        title=spec.title,
        suites=list(spec.suites),
        tolerance=spec.tolerance,
        timebase=spec.timebase,
        warmup=spec.warmup,
        repeats=spec.repeats,
        wall_s={"median": 0.0, "min": 0.0, "mean": 0.0, "max": 0.0},
        units=0.0,
        metrics={},
        violations=[f"raised {type(error).__name__}: {error}"],
    )


def run_suite(
    specs: Iterable[BenchSpec],
    suite: str = "smoke",
    calibration: Optional[Calibration] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Measure every spec and assemble a ``repro-bench/v1`` artifact dict.

    A spec that raises is recorded as a result whose violation names the
    exception, so the remaining specs are still measured and the gate
    fails that one with a ``contract`` verdict.
    """
    calibration = calibration if calibration is not None else calibrate()
    results = []
    for spec in specs:
        if progress is not None:
            progress(spec.name)
        try:
            result = measure(spec, calibration)
        except Exception as error:
            # One broken spec must not cost the others their verdicts.
            _logger.exception("benchmark %r raised; recorded as a violation", spec.name)
            result = _raised(spec, error)
        results.append(result.as_dict())
    return {
        "format": ARTIFACT_FORMAT,
        "suite": suite,
        "calibration": calibration.as_dict(),
        "results": results,
    }


def write_artifact(path: str, artifact: Dict[str, Any]) -> str:
    """Write a run artifact atomically (staging name + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temporary = staging_path(path)
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    os.replace(temporary, path)
    return path


def load_artifact(path: str) -> Dict[str, Any]:
    """Re-hydrate (and validate) a ``repro-bench/v1`` run artifact."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("format") != ARTIFACT_FORMAT:
        raise ValueError(f"{path!r} is not a {ARTIFACT_FORMAT} benchmark artifact")
    return payload


def artifact_results(artifact: Dict[str, Any]) -> List[BenchResult]:
    """The artifact's measurements as :class:`BenchResult` objects."""
    return [BenchResult.from_dict(entry) for entry in artifact.get("results", [])]


def artifact_calibration(artifact: Dict[str, Any]) -> Calibration:
    """The artifact's machine calibration."""
    return Calibration.from_dict(artifact["calibration"])
