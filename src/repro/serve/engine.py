""":class:`ServingEngine`: a loaded artifact answering prediction traffic.

The engine owns one sealed :class:`~repro.serve.artifact.ModelArtifact`
and a :class:`~repro.serve.batching.MicroBatcher`.  Caller threads (the
model store on behalf of the HTTP frontend, benchmark load generators) call
:meth:`predict`; requests queue, coalesce into micro-batches, and run
through the fused evaluation graph on the single scheduler thread.

The forward path **is** :func:`repro.training.evaluation.predict_logits`
(called with ``fused=False`` — the sealed graph is already folded):
the coalesced batch is chunked at ``predict_logits``'s default chunk
size, each chunk runs under ``no_grad``, and a zero-row batch still
produces logits with the full class dimension.  It runs inside a
**thread-local** dtype scope pinned to the artifact's compute
precision, so a single-request prediction is **byte-identical** to
``predict_logits`` on the source model in the exporting process —
serving never changes the numbers, no matter the host process's engine
default — and engines sealed under different dtypes serve concurrently
without interfering.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.obs.registry import default_registry
from repro.serve.artifact import ModelArtifact, load_artifact
from repro.serve.batching import BatchingConfig, MicroBatcher
from repro.tensor.dtypes import default_dtype_scope
from repro.tensor.sanitize import SanitizeError
from repro.training.evaluation import predict_logits

__all__ = ["EngineConfig", "ServingEngine"]

_REGISTRY = default_registry()
_M_REQUESTS = _REGISTRY.counter(
    "serve_model_requests_total",
    "Prediction requests accepted per served model.",
    labels=("model",),
)
_M_ROWS = _REGISTRY.counter(
    "serve_model_rows_total",
    "Input rows predicted per served model.",
    labels=("model",),
)
_M_FORWARD = _REGISTRY.histogram(
    "serve_forward_latency_s",
    "Wall time of one coalesced forward pass through the sealed graph.",
    labels=("model",),
)
_M_SANITIZE_FAULTS = _REGISTRY.counter(
    "serve_sanitize_faults_total",
    "Forward passes aborted by the numeric sanitizer (NaN/Inf caught).",
    labels=("model",),
)


@dataclass(frozen=True)
class EngineConfig:
    """Scheduling and forward-pass knobs of a :class:`ServingEngine`."""

    #: Rows one micro-batch may coalesce before it runs.
    max_batch: int = 64
    #: Longest the first request of a window waits for the other
    #: callers in flight; a lone request does not wait.
    max_wait_ms: float = 2.0
    #: Requests that may queue ahead of the scheduler before new
    #: submissions are rejected with
    #: :class:`~repro.serve.batching.QueueFullError` (0: unbounded).
    #: The fleet worker and the HTTP frontend turn that rejection into
    #: a retryable ``saturated`` / ``503`` signal.
    max_queue: int = 0

    def batching(self) -> BatchingConfig:
        return BatchingConfig(
            max_batch=self.max_batch,
            max_wait_ms=self.max_wait_ms,
            max_queue=self.max_queue,
        )


class ServingEngine:
    """Batched inference over one sealed model artifact (thread-safe)."""

    def __init__(
        self,
        artifact: Union[ModelArtifact, str, os.PathLike],
        config: Optional[EngineConfig] = None,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> None:
        if not isinstance(artifact, ModelArtifact):
            artifact = load_artifact(os.fspath(artifact))
        self.artifact = artifact
        #: The serving name this engine's metrics are labelled with —
        #: the operator-facing registration name when the store/fleet
        #: supplies one, else the artifact's own model name.
        self.name = name if name is not None else artifact.model_name
        self.config = config if config is not None else EngineConfig()
        self._dtype = np.dtype(artifact.dtype)
        self.model = artifact.build_model(seed=seed)
        self._closed = False
        # Children resolve once: recording on the hot path is a direct
        # method call on the bound instrument, not a registry lookup.
        self._m_requests = _M_REQUESTS.labelled(model=self.name)
        self._m_rows = _M_ROWS.labelled(model=self.name)
        self._m_forward = _M_FORWARD.labelled(model=self.name)
        self._m_sanitize_faults = _M_SANITIZE_FAULTS.labelled(model=self.name)
        self._batcher = MicroBatcher(self._forward, self.config.batching(), name=self.name)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def predict(self, inputs, timeout: Optional[float] = None) -> np.ndarray:
        """Class logits for ``inputs``; blocks until the batch runs.

        ``inputs`` is an ``(N, C, H, W)`` array-like in the artifact's
        preprocessing layout (a single ``(C, H, W)`` sample is promoted
        to a batch of one; an empty list means zero samples).  Returns
        ``(N, num_classes)`` logits in the artifact's compute dtype —
        ``N = 0`` still carries the full class dimension.  ``timeout``
        bounds the wait for the result (``TimeoutError`` on expiry);
        with ``max_queue`` configured and the scheduler saturated the
        request is rejected immediately with
        :class:`~repro.serve.batching.QueueFullError`.
        """
        if self._closed:
            raise RuntimeError("cannot predict with a closed ServingEngine")
        array = self._validate(inputs)
        self._m_requests.inc()
        self._m_rows.inc(array.shape[0])
        return self._batcher.submit(array, timeout=timeout)

    def _validate(self, inputs) -> np.ndarray:
        array = np.asarray(inputs, dtype=self._dtype)
        expected = self.artifact.input_shape()
        if array.size == 0 and array.ndim <= 1:
            # ``[]`` over the wire / an empty list in-process: zero
            # samples of the declared shape (the empty-input contract).
            array = array.reshape((0,) + expected)
        if array.ndim == 3:
            array = array[None]
        if array.ndim != 4 or array.shape[1:] != expected:
            raise ValueError(
                f"inputs must have shape (N, {expected[0]}, {expected[1]}, "
                f"{expected[2]}), got {array.shape}"
            )
        return array

    def stats(self) -> Dict[str, object]:
        """Scheduler counters plus the served artifact's identity."""
        return {
            "model_name": self.artifact.model_name,
            "num_classes": self.artifact.num_classes,
            "dtype": str(self._dtype),
            "sparsity": round(self.artifact.sparsity(), 6),
            "batching": self._batcher.stats(),
        }

    @property
    def queue_depth(self) -> int:
        """Requests queued ahead of this engine's scheduler right now."""
        return self._batcher.queue_depth

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the scheduler thread (queued requests still complete)."""
        if not self._closed:
            self._closed = True
            self._batcher.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Scheduler-side forward pass
    # ------------------------------------------------------------------
    def _forward(self, batch: np.ndarray) -> np.ndarray:
        # The serving forward *is* ``predict_logits`` — same chunking,
        # same empty-input contract — so the byte-identity guarantee is
        # structural, not a hand-kept mirror.  ``fused=False`` because
        # the sealed graph is already folded.  The dtype scope is
        # thread-local and this method only ever runs on this engine's
        # scheduler thread: the whole forward stays in the sealed
        # precision without perturbing other threads, so engines sealed
        # under different dtypes serve concurrently.  The scheduler
        # thread sets no sanitizer override, so the process-wide switch
        # (``REPRO_SANITIZE``, ``set_sanitize``) decides whether its
        # forwards are checked.
        try:
            with self._m_forward.time(), default_dtype_scope(self._dtype):
                return predict_logits(self.model, batch, fused=False)
        except SanitizeError:
            self._m_sanitize_faults.inc()
            raise
