"""Statistical comparator: run artifact vs committed baselines.

Verdicts are computed in machine-relative units (see
:mod:`repro.bench.calibrate`), so a run on a slow CI box compares
cleanly against a baseline blessed on a fast laptop.  Each spec carries
its own relative tolerance; the verdict for a spec is

* ``regression``   — ``ratio > 1 + tolerance`` (strictly: a ratio that
  lands exactly on the boundary is still ``neutral``),
* ``improvement``  — ``ratio < 1 - tolerance`` (clamped at zero),
* ``neutral``      — within the band,
* ``no_baseline``  — no committed baseline (a brand-new spec, or a
  freshly cleared one); never fails the gate, so adding a benchmark
  does not require blessing numbers in the same commit,
* ``incomparable`` — the baseline was blessed against a different
  calibration-workload version or timebase; fails the gate until
  re-blessed (a stale baseline must not silently stop gating),
* ``invalid_baseline`` — a committed baseline file exists but cannot
  be parsed or read; fails the gate (a corrupt blessed number must
  not silently degrade to an ungated ``no_baseline``),
* ``contract``     — a payload call broke one of the spec's declared
  bounds (``speedup >= 1.5``), or the spec raised; fails the gate with
  or without a baseline, and the note names the metric, its value and
  the bound, or the exception.
  It replaces whatever the timing alone would have said.

Zero-length timings (a payload faster than the clock tick, or a
degenerate baseline) are floored at one nanosecond before the ratio,
so the comparison degrades to ``neutral``/finite verdicts instead of
dividing by zero.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.bench.baseline import BaselineStore
from repro.bench.calibrate import Calibration, check_comparable
from repro.bench.harness import BenchResult, artifact_calibration, artifact_results

#: Floor applied to measured units before forming a ratio: anything
#: below one nanosecond of machine units is timer noise, not signal.
UNITS_FLOOR = 1e-9

#: Verdict statuses that must fail a gating build.
FAILING = ("regression", "invalid_baseline", "incomparable", "contract")


@dataclasses.dataclass(frozen=True)
class Verdict:
    """The comparator's conclusion for one spec."""

    spec: str
    # regression | improvement | neutral | no_baseline | incomparable | invalid_baseline | contract
    status: str
    run_units: float
    baseline_units: Optional[float]
    ratio: Optional[float]
    tolerance: float
    note: str = ""

    @property
    def failing(self) -> bool:
        return self.status in FAILING

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def compare_measurement(
    spec: str,
    run_units: float,
    baseline_units: Optional[float],
    tolerance: float,
    note: str = "",
) -> Verdict:
    """Verdict for one spec from already-normalised unit measurements."""
    if baseline_units is None:
        return Verdict(
            spec=spec,
            status="no_baseline",
            run_units=run_units,
            baseline_units=None,
            ratio=None,
            tolerance=tolerance,
            note=note or "no committed baseline; bless one with update-baseline",
        )
    ratio = max(run_units, UNITS_FLOOR) / max(baseline_units, UNITS_FLOOR)
    if ratio > 1.0 + tolerance:
        status = "regression"
    elif ratio < 1.0 - tolerance:
        status = "improvement"
    else:
        status = "neutral"
    return Verdict(
        spec=spec,
        status=status,
        run_units=run_units,
        baseline_units=baseline_units,
        ratio=ratio,
        tolerance=tolerance,
        note=note,
    )


def compare_artifact(artifact: Dict[str, Any], store: BaselineStore) -> List[Verdict]:
    """One verdict per measurement in a ``repro-bench/v1`` artifact."""
    run_calibration = artifact_calibration(artifact)
    verdicts = []
    for result in artifact_results(artifact):
        verdict = _timing_verdict(result, store, run_calibration)
        if result.violations:
            verdict = dataclasses.replace(
                verdict, status="contract", note="; ".join(result.violations)
            )
        verdicts.append(verdict)
    return verdicts


def _timing_verdict(
    result: BenchResult, store: BaselineStore, run_calibration: Calibration
) -> Verdict:
    """The verdict on one result's timing against its committed baseline."""
    try:
        baseline = store.load(result.spec)
    except ValueError as error:
        return Verdict(
            spec=result.spec,
            status="invalid_baseline",
            run_units=result.units,
            baseline_units=None,
            ratio=None,
            tolerance=result.tolerance,
            note=str(error),
        )
    if baseline is None:
        return compare_measurement(result.spec, result.units, None, result.tolerance)
    if baseline.timebase != result.timebase:
        incompatibility = (
            f"timebase mismatch (run {result.timebase!r} vs baseline "
            f"{baseline.timebase!r}); re-bless the baseline"
        )
    elif result.timebase == "machine":
        # Wall-timebase specs compare raw seconds: the calibration
        # workload version is irrelevant to them.
        incompatibility = check_comparable(run_calibration, baseline.calibration)
    else:
        incompatibility = None
    if incompatibility is not None:
        return Verdict(
            spec=result.spec,
            status="incomparable",
            run_units=result.units,
            baseline_units=baseline.units,
            ratio=None,
            tolerance=result.tolerance,
            note=incompatibility,
        )
    return compare_measurement(result.spec, result.units, baseline.units, result.tolerance)


def has_regression(verdicts: List[Verdict]) -> bool:
    """Whether any verdict must fail a gating build."""
    return any(verdict.failing for verdict in verdicts)


def render_verdicts(verdicts: List[Verdict]) -> str:
    """A fixed-width report of every verdict, one line per spec."""
    lines = [
        f"{'spec':<32} {'verdict':<12} {'run':>10} {'baseline':>10} {'ratio':>7}  tolerance",
        "-" * 84,
    ]
    for verdict in verdicts:
        baseline = f"{verdict.baseline_units:.2f}" if verdict.baseline_units is not None else "-"
        ratio = f"{verdict.ratio:.2f}x" if verdict.ratio is not None else "-"
        line = (
            f"{verdict.spec:<32} {verdict.status:<12} {verdict.run_units:>10.2f} "
            f"{baseline:>10} {ratio:>7}  ±{verdict.tolerance:.0%}"
        )
        if verdict.note:
            line += f"  ({verdict.note})"
        lines.append(line)
    return "\n".join(lines)
