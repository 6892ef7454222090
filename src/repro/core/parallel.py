"""Multi-process execution of independent sweep points.

Every figure of the paper walks a grid — sparsity x prior x task x
model — whose points are completely independent given the pretrained
backbones.  :class:`SweepRunner` fans those points out across worker
processes with :class:`concurrent.futures.ProcessPoolExecutor` while
keeping the semantics of a serial loop:

* **Deterministic ordering** — results come back in the order of the
  input points, never in completion order.
* **Deduplication** — identical (hashable) points are evaluated once
  and their result is shared across all occurrences.
* **Graceful fallback** — ``workers <= 1`` (or a single distinct
  point) runs everything in-process with no executor at all, and a
  pool that cannot be started or breaks mid-run falls back to the same
  serial path instead of failing the sweep.

The point function must be picklable (a module-level function, or a
``functools.partial`` of one).  On Linux the pool forks, so workers
inherit every in-memory artefact the parent prepared — pretrained
backbones prewarmed into :class:`~repro.core.cache.SweepCache` (or
simply into process memory) are shared with the workers for free.  On
spawn platforms workers rebuild state on demand, which is where the
disk-backed sweep cache keeps the fan-out cheap.

Every experiment runner dispatches through this module (via
:func:`repro.experiments.grid.sweep_grid`), with completed points
checkpointed to :class:`repro.core.runstore.RunStore` as they land, so
a killed sweep — serial or parallel — restarts warm.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.obs.registry import default_registry

#: Environment variable supplying the default worker count for sweep
#: execution (the experiments CLI reads it when ``--workers`` is absent).
WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"

_REGISTRY = default_registry()
_M_POINTS = _REGISTRY.counter(
    "sweep_points_total", "Distinct sweep points evaluated (parent process)."
)
_M_RATE = _REGISTRY.gauge(
    "sweep_points_per_s", "Throughput of the most recent sweep map.", unit="points/s"
)
_M_FALLBACKS = _REGISTRY.counter(
    "sweep_pool_fallbacks_total", "Sweeps that degraded from a worker pool to the serial path."
)

Point = TypeVar("Point")
Result = TypeVar("Result")

_logger = logging.getLogger(__name__)


def _fork_context():
    """The ``fork`` multiprocessing context when the platform offers it.

    Forked workers inherit the parent's memory, which is what lets
    sweeps prewarm pretrained models once and share them with every
    worker for free — so the pool requests ``fork`` explicitly rather
    than relying on the interpreter default (spawn on macOS/Windows,
    and changing on Linux in newer CPython).  Platforms without fork
    fall back to their default start method; there the disk-backed
    sweep cache is what keeps workers cheap.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def default_workers() -> int:
    """Worker count from :data:`WORKERS_ENV_VAR`, defaulting to 1 (serial)."""
    value = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not value:
        return 1
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def effective_workers(workers: int, has_disk_cache: bool = False) -> int:
    """Clamp a requested worker count to what the platform can honour.

    Fan-out relies on workers either inheriting the parent's prepared
    state (fork platforms) or rebuilding it cheaply from the disk sweep
    cache.  On platforms without fork and without a disk cache, every
    worker would redo the expensive preparation from scratch, so serial
    execution is strictly better and the count clamps to 1.
    """
    if workers > 1 and _fork_context() is None and not has_disk_cache:
        return 1
    return workers


class _PointFailure(Exception):
    """Wraps an exception raised *by the point function* inside a worker.

    Pool-infrastructure failures (``OSError`` from forking,
    ``BrokenProcessPool`` from killed workers) must trigger the serial
    fallback, but a point function's own error — even an ``OSError``
    from, say, a full disk — must abort the sweep immediately instead
    of silently re-running hours of completed work.  Wrapping fn's
    exceptions makes the two cases distinguishable in the parent.
    """

    def __init__(self, cause: BaseException) -> None:
        super().__init__(repr(cause))
        self.cause = cause

    def __reduce__(self):
        return (_PointFailure, (self.cause,))


class _GuardedPoint:
    """Picklable wrapper tagging point-function errors as :class:`_PointFailure`."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, point):
        try:
            return self.fn(point)
        except Exception as error:
            raise _PointFailure(error) from error


class SweepRunner:
    """Runs a point function over sweep points, optionally across processes.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``<= 1`` executes in-process
        (no executor, no pickling requirements beyond the serial loop).
        ``None`` reads :func:`default_workers`.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = int(workers) if workers is not None else default_workers()

    def map(self, fn: Callable[[Point], Result], points: Sequence[Point]) -> List[Result]:
        """Evaluate ``fn`` on every point; results follow the input order.

        Exceptions raised by ``fn`` propagate to the caller (from the
        serial path and the pool path alike).
        """
        points = list(points)
        if not points:
            return []
        try:
            distinct = list(dict.fromkeys(points))
            position = {point: index for index, point in enumerate(distinct)}
        except TypeError:  # unhashable points: no deduplication
            distinct = points
            position = None

        begin = time.perf_counter()
        if self.workers <= 1 or len(distinct) <= 1:
            results = [fn(point) for point in distinct]
        else:
            results = self._map_parallel(fn, distinct)
        elapsed = time.perf_counter() - begin
        _M_POINTS.inc(len(distinct))
        if elapsed > 0:
            _M_RATE.set(len(distinct) / elapsed)

        if position is None:
            return results
        return [results[position[point]] for point in points]

    def _map_parallel(self, fn: Callable[[Point], Result], points: List[Point]) -> List[Result]:
        workers = min(self.workers, len(points))
        # Paper-scale grids have hundreds of points; batching several per
        # pickle round-trip keeps the executor's IPC overhead negligible
        # while still leaving every worker ~8 chunks for load balancing.
        chunksize = max(1, len(points) // (workers * 8))
        try:
            with ProcessPoolExecutor(max_workers=workers, mp_context=_fork_context()) as pool:
                return list(pool.map(_GuardedPoint(fn), points, chunksize=chunksize))
        except _PointFailure as failure:
            # The point function itself failed: abort exactly as the
            # serial path would, with the original exception.
            raise failure.cause
        except (BrokenProcessPool, OSError) as error:
            # Pool infrastructure failed: workers could not be started
            # (ProcessPoolExecutor forks lazily, so a sandbox/ulimit
            # fork failure surfaces as an OSError from map, not from
            # the constructor) or died without raising through fn
            # (killed mid-run).  Degrade to the serial path.
            _logger.warning(
                "sweep worker pool unavailable or broke mid-run (%s); "
                "running all %d points serially",
                error,
                len(points),
            )
            _M_FALLBACKS.inc()
            return [fn(point) for point in points]
