"""Model serving: sealed artifacts answering batched prediction traffic.

The deployment end of the compression pipeline:

1. **Seal** — :func:`~repro.serve.artifact.export_artifact` packages a
   fused, mask-applied model (plus preprocessing spec and provenance)
   as one atomic ``repro-model/v1`` bundle; ``python -m
   repro.experiments <id> --export-model PATH`` does it for the best
   point of a finished sweep.
2. **Serve** — :class:`~repro.serve.engine.ServingEngine` loads an
   artifact and answers ``predict`` calls through a dynamic
   micro-batching scheduler; :class:`~repro.serve.store.ModelStore`
   keeps an LRU set of engines resident.
3. **Speak** — ``python -m repro.serve --artifact PATH`` exposes
   ``/predict``, ``/healthz`` and ``/models`` over stdlib HTTP;
   :class:`~repro.serve.client.HTTPClient` is the matching client half.
4. **Scale out** — ``--shards N`` swaps the in-process store for a
   supervised multi-process shard pool (:mod:`repro.serve.fleet`):
   consistent-hash routing, heartbeat supervision, crash-loop
   breakers, zero-loss failover, and deterministic fault injection
   through :mod:`repro.serve.fleet.chaos`.  Both are a
   :class:`~repro.serve.http.ServingBackend` with the same lifecycle
   and the same :class:`~repro.serve.errors.ServingError` taxonomy.

Predictions are byte-identical to
:func:`repro.training.evaluation.predict_logits` on the source model:
the artifact seals the already-folded evaluation graph and the engine
replays its exact forward path under the sealed compute dtype.
"""
