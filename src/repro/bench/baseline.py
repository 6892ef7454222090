"""Committed baseline store: one blessed measurement per benchmark spec.

Baselines live in the repository (``benchmarks/baselines/*.json``, one
file per spec) so that accepting a perf change is an ordinary reviewed
diff: ``python -m repro.bench update-baseline run.json`` rewrites the
touched files and the PR shows exactly which numbers moved.  Each file
records the blessed machine-relative units plus the calibration that
produced them, so the comparator can refuse to compare measurements
taken against a different calibration workload version.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.bench.calibrate import Calibration
from repro.bench.harness import BenchResult
from repro.utils.checkpoint import staging_path

#: Format tag stamped into (and required from) baseline files.
BASELINE_FORMAT = "repro-bench-baseline/v1"

#: Environment variable overriding the default baseline directory.
BASELINES_ENV_VAR = "REPRO_BENCH_BASELINES"


def default_baseline_dir() -> str:
    """The baseline directory: ``$REPRO_BENCH_BASELINES``, else the
    committed ``benchmarks/baselines`` relative to the working tree."""
    return os.environ.get(BASELINES_ENV_VAR) or os.path.join("benchmarks", "baselines")


class Baseline:
    """One spec's blessed measurement."""

    def __init__(self, spec: str, units: float, wall_s: Dict[str, float],
                 calibration: Calibration, timebase: str = "machine",
                 source_suite: Optional[str] = None) -> None:
        self.spec = spec
        self.units = float(units)
        self.wall_s = dict(wall_s)
        self.calibration = calibration
        self.timebase = timebase
        self.source_suite = source_suite

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "format": BASELINE_FORMAT,
            "spec": self.spec,
            "units": self.units,
            "timebase": self.timebase,
            "wall_s": self.wall_s,
            "calibration": self.calibration.as_dict(),
        }
        if self.source_suite is not None:
            payload["source_suite"] = self.source_suite
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Baseline":
        if not isinstance(payload, dict) or payload.get("format") != BASELINE_FORMAT:
            raise ValueError(f"not a {BASELINE_FORMAT} baseline: {payload!r}")
        try:
            return cls(
                spec=str(payload["spec"]),
                units=float(payload["units"]),
                wall_s={key: float(value) for key, value in payload.get("wall_s", {}).items()},
                calibration=Calibration.from_dict(payload["calibration"]),
                timebase=str(payload.get("timebase", "machine")),
                source_suite=payload.get("source_suite"),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed {BASELINE_FORMAT} baseline: {error}") from error

    @classmethod
    def from_result(cls, result: BenchResult, calibration: Calibration,
                    source_suite: Optional[str] = None) -> "Baseline":
        return cls(
            spec=result.spec,
            units=result.units,
            wall_s=result.wall_s,
            calibration=calibration,
            timebase=result.timebase,
            source_suite=source_suite,
        )


class BaselineStore:
    """Directory of per-spec baseline files (``<spec>.json``)."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = str(root) if root is not None else default_baseline_dir()

    def path(self, spec: str) -> str:
        return os.path.join(self.root, f"{spec}.json")

    def load(self, spec: str) -> Optional[Baseline]:
        """The blessed baseline for ``spec``; ``None`` only when absent.

        An *absent* file is an ordinary miss (a new spec with nothing
        blessed yet).  A file that exists but fails to parse — or to
        read at all (permissions, a directory squatting on the path) —
        raises ``ValueError``: a committed baseline corrupted on the
        way to the runner must fail the gate loudly, not silently
        degrade every future run of that spec to an ungated
        ``no_baseline``.
        """
        path = self.path(spec)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except OSError as error:
            raise ValueError(f"baseline file {path!r} is unreadable: {error}") from error
        except ValueError as error:
            raise ValueError(f"baseline file {path!r} is not valid JSON: {error}") from error
        return Baseline.from_dict(payload)

    def save(self, baseline: Baseline) -> str:
        """Write (or overwrite) one spec's baseline atomically."""
        path = self.path(baseline.spec)
        os.makedirs(self.root, exist_ok=True)
        temporary = staging_path(path)
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(baseline.as_dict(), handle, indent=2)
            handle.write("\n")
        os.replace(temporary, path)
        return path
