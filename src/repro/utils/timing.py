"""Wall-clock timing helpers for benchmark harnesses."""

from __future__ import annotations

import time
from typing import Any, Callable


def best_wall(work: Callable[[], Any], repeats: int = 5, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall-time of ``work`` after ``warmup`` calls.

    The one timing loop shared by the machine calibration
    (:mod:`repro.bench.calibrate`) and the paired measurements inside
    benchmark payloads and tests — so a fix to how time is taken
    applies to the calibration unit and the measurements alike.
    """
    for _ in range(warmup):
        work()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best
