"""Spans recorded by the benchmark around calls into the program's layers.

A span is a name, a start and an end on the ``perf_counter`` clock, the
span that caused it, and the trace (one request or one pipeline run) it
belongs to.  Spans stay in memory and are written out once, at the end
of the traced run.  The program itself is not instrumented here: the
only numbers taken from inside it are deltas of its own ``repro.obs``
instruments, read through ``GET /metrics`` (or the fleet's merged
snapshot) before and after a phase.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from typing import Dict, Iterator, List, Optional

from common import median


class Tracer:
    """In-memory span log."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        trace: Optional[int] = None,
        span_id: Optional[int] = None,
    ) -> int:
        if span_id is None:
            span_id = next(self._ids)
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "trace": trace if trace is not None else span_id,
            }
        )
        return span_id

    @contextlib.contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, trace: Optional[int] = None
    ) -> Iterator[Dict[str, int]]:
        """Time the block; ``handle["id"]`` is the new span's id after it exits.

        The id is reserved on entry so children can name this span as
        their parent while it is still open.
        """
        span_id = next(self._ids)
        handle = {"id": span_id, "trace": trace if trace is not None else span_id}
        start = time.perf_counter()
        try:
            yield handle
        finally:
            self.record(name, start, time.perf_counter(), parent, handle["trace"], span_id)

    def durations(self, name: str) -> List[float]:
        return [span["end"] - span["start"] for span in self.spans if span["name"] == name]

    def median_ms(self, name: str) -> float:
        return median(self.durations(name)) * 1e3

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


# ----------------------------------------------------------------------
# repro-metrics/v1 snapshot deltas
# ----------------------------------------------------------------------
def _entries(snapshot: dict, name: str) -> List[dict]:
    return [entry for entry in snapshot.get("instruments", []) if entry["name"] == name]


def counter_delta(before: dict, after: dict, name: str) -> float:
    """Growth of a counter (summed over its label sets) between snapshots."""
    total = lambda snapshot: sum(float(e.get("value", 0.0)) for e in _entries(snapshot, name))
    return total(after) - total(before)


def histogram_delta(before: dict, after: dict, name: str) -> tuple:
    """``(count, sum)`` a histogram gained between two snapshots."""

    def totals(snapshot: dict) -> tuple:
        entries = _entries(snapshot, name)
        return (
            sum(int(e.get("count", 0)) for e in entries),
            sum(float(e.get("sum", 0.0)) for e in entries),
        )

    (count_0, sum_0), (count_1, sum_1) = totals(before), totals(after)
    return count_1 - count_0, sum_1 - sum_0


def histogram_mean_delta(before: dict, after: dict, name: str) -> float:
    """Mean of the samples a histogram gained between two snapshots."""
    count, total = histogram_delta(before, after, name)
    if count <= 0:
        raise RuntimeError(f"instrument {name!r} recorded nothing during the traced phase")
    return total / count
