"""Paths, summary statistics and the result record shared by every workload.

The benchmark runs from the root of a source checkout: ``src/`` holds
the program, ``perfbench/`` this benchmark, and ``.perfbench/`` (created
on demand, ignored by git) the scratch files and stored results of a
run.  Nothing is read or written outside that checkout, except that the
fleet's Unix socket falls back to the system temp directory when the
checkout path is too long for one (see :func:`scratch_dir`).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Longest Unix socket path the kernel accepts, less the room the fleet
#: supervisor needs for ``repro-fleet-XXXXXXXX/fleet.sock``.
_SOCKET_ROOM = 107 - 40


class SourceMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SourceMissing(f"no program source at {SRC}/repro; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # Server processes import the same tree.
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    # urllib would send even loopback requests through a configured proxy.
    bypass = [p for p in os.environ.get("no_proxy", "").split(",") if p]
    os.environ["no_proxy"] = ",".join(dict.fromkeys(bypass + ["127.0.0.1", "localhost"]))


def scratch_dir(name: str) -> str:
    """A fresh directory under ``.perfbench/tmp`` for one run's files.

    Also points ``tempfile`` (and, through ``TMPDIR``, the server
    processes) there, so the fleet's socket lands in the checkout too
    and goes when the run's directory is removed, unless that path would
    be too long for a Unix socket.
    """
    base = os.path.join(WORK, "tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{name}-", dir=base)
    if len(path) <= _SOCKET_ROOM:
        os.environ["TMPDIR"] = path
        tempfile.tempdir = path
    return path


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples)


def median_time(fn: Callable[[], object], repeats: int) -> float:
    """Median wall time of ``repeats`` calls of ``fn``, after one untimed call."""
    fn()
    samples = []
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - begin)
    return median(samples)


class Deadline:
    """Wall-clock budget of one measured phase."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.end


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` maps a metric name from ``BENCHMARK.json`` to its value;
    ``notes`` are printed in the human-readable report and stored with
    the result, but are not part of the driver-facing JSON line.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def count(self, ok: bool, problem: Optional[str] = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem is not None and len(self.problems) < 10:
                self.problems.append(problem)
