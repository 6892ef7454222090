"""Dynamic micro-batching: queue, coalesce, run once, fan back out.

Serving traffic arrives as many small, independent requests, but the
numpy inference path is dramatically more efficient per sample on large
batches (one im2col GEMM instead of N tiny ones).  :class:`MicroBatcher`
closes that gap: caller threads submit request tensors and block; a
single scheduler thread pulls requests off the queue, coalesces them
into a window, runs the whole window through the batch function
**once**, and distributes the result slices back to the waiting
callers.

Scheduling rules:

* a window closes as soon as it holds one request per caller blocked
  in :meth:`MicroBatcher.submit` (then it also takes whatever is
  already queued, without waiting), so a lone request runs at once and
  concurrent callers still ride one window.  A caller counts from the
  moment its request is enqueued until it leaves ``submit``, served or
  not;
* ``max_batch`` rows and ``max_wait_ms`` after the window's first
  request are the ceilings: a window waits for a counted caller that
  does not come back (one already served, say) at most ``max_wait_ms``;
* requests are never split: one larger than ``max_batch`` closes its
  window immediately and runs alone (the batch function chunks
  internally);
* empty requests (zero rows) flow through like any other and receive
  the zero-length slice of the result, preserving the engine's
  empty-input contract;
* an exception from the batch function is delivered to every caller in
  the window, and the scheduler keeps serving subsequent windows.

Only the scheduler thread touches the model, so the forward pass needs
no locking no matter how many client threads submit concurrently.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.obs.registry import default_registry
from repro.serve.errors import RETRY_AFTER_S, ServingError

__all__ = ["BatchingConfig", "MicroBatcher", "QueueFullError"]

_REGISTRY = default_registry()
_M_QUEUE_DEPTH = _REGISTRY.gauge(
    "serve_batch_queue_depth",
    "Requests queued ahead of the scheduler right now.",
    labels=("model",),
    unit="requests",
)
_M_OCCUPANCY = _REGISTRY.histogram(
    "serve_batch_occupancy_rows",
    "Rows coalesced into each flushed batch window.",
    labels=("model",),
    unit="rows",
    bounds=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
)
_M_COALESCE = _REGISTRY.histogram(
    "serve_batch_coalesce_latency_s",
    "Per-request submit-to-result latency through the micro-batcher.",
    labels=("model",),
)
_M_REQUESTS = _REGISTRY.counter(
    "serve_batch_requests_total",
    "Requests served through micro-batch windows.",
    labels=("model",),
)
_M_BATCHES = _REGISTRY.counter(
    "serve_batch_batches_total",
    "Batch windows flushed through the batch function.",
    labels=("model",),
)
_M_ERRORS = _REGISTRY.counter(
    "serve_batch_errors_total", "Batch windows whose batch function raised.", labels=("model",)
)
_M_REJECTS = _REGISTRY.counter(
    "serve_batch_rejects_total",
    "Submissions rejected because the bounded queue was full.",
    labels=("model",),
)
_M_TIMEOUTS = _REGISTRY.counter(
    "serve_batch_timeouts_total",
    "Submissions that gave up waiting for their result.",
    labels=("model",),
)


class QueueFullError(ServingError):
    """The batcher's bounded queue is full; the request was rejected.

    Raised from :meth:`MicroBatcher.submit` *immediately* (never after a
    wait) so overload degrades gracefully: the caller gets a clear,
    retryable ``saturated`` signal (``503`` + ``Retry-After`` over HTTP)
    instead of the queue growing without limit.
    """

    code = "saturated"
    retryable = True
    retry_after = RETRY_AFTER_S


@dataclass(frozen=True)
class BatchingConfig:
    """Coalescing policy of a :class:`MicroBatcher`.

    ``max_batch`` caps the rows in one window; ``max_wait_ms`` bounds
    how long the first request of a window waits for the other callers
    blocked in ``submit``; with none, it does not wait at all.  With
    ``max_batch=1`` (or ``max_wait_ms=0`` under serial traffic) the
    batcher degrades to one-request-at-a-time processing, which is the
    baseline the serving benchmark compares against.  ``max_queue``
    bounds how many requests may sit queued ahead of the scheduler
    (0 means unbounded, the historical behaviour); a full queue rejects
    new submissions with :class:`QueueFullError`.
    """

    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_queue: int = 0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0 (0 = unbounded), got {self.max_queue}")


class _Pending:
    """One in-flight request: its rows plus the caller's completion gate."""

    __slots__ = ("inputs", "rows", "done", "result", "error", "enqueued")

    def __init__(self, inputs: np.ndarray) -> None:
        self.inputs = inputs
        self.rows = int(inputs.shape[0])
        self.done = threading.Event()
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.enqueued = time.perf_counter()


class MicroBatcher:
    """Coalesce concurrent requests into single batch-function calls.

    ``batch_fn`` receives one array of stacked request rows and must
    return an array whose leading dimension matches it (zero-length
    input included).  It always runs on the scheduler thread.  ``name``
    is the ``model`` label of the batcher's instruments, so two
    resident models never overwrite each other's series; batchers that
    share a name share one series.
    """

    def __init__(
        self,
        batch_fn: Callable[[np.ndarray], np.ndarray],
        config: Optional[BatchingConfig] = None,
        name: str = "default",
    ) -> None:
        self._batch_fn = batch_fn
        self.config = config if config is not None else BatchingConfig()
        # Children resolve once: the hot path records on bound
        # instruments, never through a registry lookup.
        self._m_queue_depth = _M_QUEUE_DEPTH.labelled(model=name)
        self._m_occupancy = _M_OCCUPANCY.labelled(model=name)
        self._m_coalesce = _M_COALESCE.labelled(model=name)
        self._m_requests = _M_REQUESTS.labelled(model=name)
        self._m_batches = _M_BATCHES.labelled(model=name)
        self._m_errors = _M_ERRORS.labelled(model=name)
        self._m_rejects = _M_REJECTS.labelled(model=name)
        self._m_timeouts = _M_TIMEOUTS.labelled(model=name)
        # maxsize counts requests, not rows: the point is bounding queued
        # callers (and their arrays), and per-request admission keeps the
        # reject check O(1).
        self._queue: "queue.Queue[Optional[_Pending]]" = queue.Queue(
            maxsize=self.config.max_queue
        )
        # Makes enqueueing and the shutdown sentinel mutually exclusive:
        # no request can slip into the queue *behind* the sentinel and
        # hang its caller forever.
        self._submit_lock = threading.Lock()
        self._closed = False
        # Callers between a successful enqueue and their exit from
        # ``submit``: a window holding this many requests stops waiting.
        # Its own lock, because the scheduler must never wait for
        # ``_submit_lock`` (``close`` holds it across a blocking put).
        self._in_submit = 0
        self._in_submit_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, inputs: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Enqueue ``inputs`` and block until its results are ready.

        With ``max_queue`` set and the queue full, rejects immediately
        with :class:`QueueFullError` — submit never waits for space.
        ``timeout`` (seconds) bounds the wait for the *result*; on
        expiry a :class:`TimeoutError` is raised and the request's
        eventual result is discarded (the batch still runs — the
        scheduler never skips accepted work).
        """
        pending = _Pending(np.asarray(inputs))
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed MicroBatcher")
            try:
                self._queue.put_nowait(pending)
            except queue.Full:
                self._m_rejects.inc()
                raise QueueFullError(
                    f"micro-batcher queue is full ({self.config.max_queue} requests "
                    "queued); retry later or raise BatchingConfig.max_queue"
                ) from None
            with self._in_submit_lock:
                self._in_submit += 1
        try:
            self._m_queue_depth.set(self._queue.qsize())  # repro: ignore[lock-discipline] -- qsize() is Queue's own locked read; the gauge is advisory
            if not pending.done.wait(timeout):
                self._m_timeouts.inc()
                raise TimeoutError(
                    f"request ({pending.rows} rows) not served within {timeout}s; "
                    "it stays queued and its result will be discarded"
                )
            if pending.error is not None:
                raise pending.error
            assert pending.result is not None
            return pending.result
        finally:
            with self._in_submit_lock:
                self._in_submit -= 1

    def stats(self) -> Dict[str, Optional[float]]:
        """This batcher's ``model=<name>`` registry series, as one dict.

        A read-only view: every value comes from the ``serve_batch_*``
        children the scheduler records into, so it is exactly what
        ``/metrics`` serves for this name.  ``latency_p50_ms`` /
        ``latency_p99_ms`` are the lifetime, bucket-interpolated
        quantiles of ``serve_batch_coalesce_latency_s``; they are
        ``None`` before any traffic (no traffic is not zero latency).
        With metrics disabled every child is a no-op, so counts read
        zero and the quantiles ``None``.
        """
        # ``_flush`` bumps requests before batches; reading in the
        # reverse order keeps ``requests >= batches`` under concurrency.
        batches = int(self._m_batches.read().get("value", 0))
        requests = int(self._m_requests.read().get("value", 0))
        occupancy = self._m_occupancy.read()
        latency = self._m_coalesce.read()
        rows = int(occupancy.get("sum", 0))
        return {
            "requests": requests,
            "rows": rows,
            "batches": batches,
            "batch_rows_max": int(occupancy.get("max") or 0),
            "batch_rows_mean": round(rows / batches, 3) if batches else 0.0,
            "errors": int(self._m_errors.read().get("value", 0)),
            "latency_p50_ms": _to_ms(latency.get("p50")),
            "latency_p99_ms": _to_ms(latency.get("p99")),
        }

    @property
    def queue_depth(self) -> int:
        """Requests currently queued ahead of the scheduler."""
        return self._queue.qsize()  # repro: ignore[lock-discipline] -- qsize() is Queue's own locked read; the depth is advisory

    def close(self, timeout: float = 10.0) -> None:
        """Stop the scheduler thread; queued requests are still served.

        The queue is FIFO and the shutdown sentinel goes in behind the
        last accepted request (``_submit_lock``), so everything enqueued
        before ``close`` is flushed before the scheduler exits.  On a
        bounded queue the sentinel ``put`` may briefly block for a free
        slot; the scheduler is still draining, so it always lands.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(None)
        self._thread.join(timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Scheduler side
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            head = self._queue.get()  # repro: ignore[lock-discipline] -- queue.Queue locks internally; the scheduler consumes lock-free by design
            if head is None:
                return
            window = [head]
            rows = head.rows
            deadline = time.monotonic() + self.config.max_wait_ms / 1000.0
            shutdown = False
            while rows < self.config.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                # Once every caller blocked in submit is aboard, take
                # what is already queued but wait for nobody.
                with self._in_submit_lock:
                    aboard = len(window) >= self._in_submit
                try:
                    item = self._queue.get(block=not aboard, timeout=remaining)  # repro: ignore[lock-discipline] -- queue.Queue locks internally; the scheduler consumes lock-free by design
                except queue.Empty:
                    break
                if item is None:
                    shutdown = True
                    break
                window.append(item)
                rows += item.rows
            self._flush(window, rows)
            if shutdown:
                return

    def _flush(self, window: List[_Pending], rows: int) -> None:
        failed = False
        try:
            if len(window) == 1:
                # Fast path — also guarantees a lone request's result is
                # exactly ``batch_fn(inputs)``, with no concatenate/slice
                # round-trip in between.
                window[0].result = self._batch_fn(window[0].inputs)
            else:
                batch = np.concatenate([pending.inputs for pending in window], axis=0)
                results = self._batch_fn(batch)
                offset = 0
                for pending in window:
                    pending.result = results[offset : offset + pending.rows]
                    offset += pending.rows
        except BaseException as error:  # noqa: BLE001 - delivered to callers
            failed = True
            for pending in window:
                pending.error = error
        # Counters land *before* any caller wakes: a ``stats()`` read
        # right after ``submit`` returns always includes the window
        # that served the request.
        completed = time.perf_counter()
        self._m_requests.inc(len(window))
        self._m_batches.inc()
        self._m_occupancy.observe(rows)
        self._m_queue_depth.set(self._queue.qsize())  # repro: ignore[lock-discipline] -- qsize() is Queue's own locked read; the gauge is advisory
        if failed:
            self._m_errors.inc()
        for pending in window:
            self._m_coalesce.observe(completed - pending.enqueued)
        for pending in window:
            pending.done.set()


def _to_ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1000.0, 4)
