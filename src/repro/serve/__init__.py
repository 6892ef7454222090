"""Model serving: sealed artifacts answering batched prediction traffic.

The deployment end of the compression pipeline:

1. **Seal** — :func:`export_artifact` packages a fused, mask-applied
   model (plus preprocessing spec and provenance) as one atomic
   ``repro-model/v1`` bundle; ``python -m repro.experiments <id>
   --export-model PATH`` does it for the best point of a finished sweep.
2. **Serve** — :class:`ServingEngine` loads an artifact and answers
   ``predict`` calls through a dynamic micro-batching scheduler;
   :class:`ModelStore` keeps an LRU set of engines resident.
3. **Speak** — ``python -m repro.serve --artifact PATH`` exposes
   ``/predict``, ``/healthz`` and ``/models`` over stdlib HTTP;
   :class:`HTTPClient` is the matching client half.
4. **Scale out** — ``--shards N`` swaps the in-process store for a
   supervised multi-process shard pool (:mod:`repro.serve.fleet`):
   consistent-hash routing, heartbeat supervision, crash-loop
   breakers, zero-loss failover, and deterministic fault injection
   through :mod:`repro.serve.fleet.chaos`.  Both are a
   :class:`ServingBackend` with the same lifecycle and the same
   :class:`ServingError` taxonomy.

Predictions are byte-identical to
:func:`repro.training.evaluation.predict_logits` on the source model:
the artifact seals the already-folded evaluation graph and the engine
replays its exact forward path under the sealed compute dtype.
"""

from repro.serve.artifact import (
    MODEL_ARTIFACT_FORMAT,
    ModelArtifact,
    default_preprocessing,
    export_artifact,
    load_artifact,
)
from repro.serve.batching import BatchingConfig, MicroBatcher, QueueFullError
from repro.serve.client import HTTPClient, RetryPolicy
from repro.serve.engine import EngineConfig, ServingEngine
from repro.serve.errors import ServingError, UnknownModelError
from repro.serve.export import best_point, export_best
from repro.serve.fleet import (
    FleetConfig,
    FleetSaturatedError,
    FleetSupervisor,
    FleetUnavailableError,
    WorkerError,
)
from repro.serve.http import ServingBackend, ServingHTTPServer, create_server
from repro.serve.store import ModelStore

__all__ = [
    "MODEL_ARTIFACT_FORMAT",
    "ModelArtifact",
    "default_preprocessing",
    "export_artifact",
    "load_artifact",
    "BatchingConfig",
    "MicroBatcher",
    "QueueFullError",
    "HTTPClient",
    "RetryPolicy",
    "ServingError",
    "UnknownModelError",
    "EngineConfig",
    "ServingEngine",
    "best_point",
    "export_best",
    "FleetConfig",
    "FleetSaturatedError",
    "FleetSupervisor",
    "FleetUnavailableError",
    "WorkerError",
    "ServingBackend",
    "ServingHTTPServer",
    "create_server",
    "ModelStore",
]
