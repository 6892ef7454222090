""":class:`ModelStore`: an LRU cache of loaded serving engines.

A server rarely keeps every exported artifact resident: sealed models
are cheap on disk but each loaded engine pins a full set of fused
weights in memory.  The store maps **names** to registered artifact
paths and materialises at most ``capacity`` engines at a time; fetching
a registered-but-unloaded model loads it on the spot and evicts (and
closes) the least-recently-used engine to make room.

In-process serving and every fleet shard serve through a store.

All operations are guarded by one lock, so the HTTP frontend's handler
threads can share a store safely; the engines themselves serialise
inference on their own scheduler threads.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from threading import Event, Lock
from typing import Dict, List, Optional

import numpy as np

from repro.obs.registry import default_registry
from repro.serve.artifact import read_artifact_meta
from repro.serve.engine import EngineConfig, ServingEngine
from repro.serve.errors import ServingError, UnknownModelError

__all__ = ["ModelStore"]

_REGISTRY = default_registry()
_M_LOADS = _REGISTRY.counter(
    "serve_store_loads_total", "Cold engine loads performed by the model store."
)
_M_EVICTIONS = _REGISTRY.counter(
    "serve_store_evictions_total", "Engines evicted by LRU pressure at capacity."
)
_M_ADMIN_EVICTIONS = _REGISTRY.counter(
    "serve_store_admin_evictions_total", "Engines evicted explicitly via the admin surface."
)
_M_RESIDENT = _REGISTRY.gauge(
    "serve_store_resident_engines", "Engines currently resident in the store.", unit="engines"
)


class ModelStore:
    """Name -> :class:`ServingEngine` with LRU eviction at ``capacity``."""

    def __init__(self, capacity: int = 4, config: Optional[EngineConfig] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.config = config
        self._paths: "OrderedDict[str, str]" = OrderedDict()
        self._meta: Dict[str, Dict[str, object]] = {}
        self._engines: "OrderedDict[str, ServingEngine]" = OrderedDict()
        #: Names with a load in flight: followers wait on the event
        #: instead of loading the same artifact twice.
        self._loading: Dict[str, Event] = {}
        self._lock = Lock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, path: str) -> None:
        """Register artifact ``path`` under ``name`` (validates it loads).

        Re-registering a name replaces its path and drops any engine
        loaded from the old one.
        """
        resolved = os.fspath(path)
        # Fail fast on a missing/foreign file; reads only the header and
        # packed masks, never the weight arrays.
        meta = read_artifact_meta(resolved)
        with self._lock:
            self._paths[name] = resolved
            self._meta[name] = meta
            stale = self._engines.pop(name, None)
        if stale is not None:
            stale.close()

    def names(self) -> List[str]:
        """All registered model names, in registration order."""
        with self._lock:
            return list(self._paths)

    def loaded(self) -> List[str]:
        """Names with a resident engine, least-recently-used first."""
        with self._lock:
            return list(self._engines)

    # ------------------------------------------------------------------
    # Fetching
    # ------------------------------------------------------------------
    def get(self, name: str) -> ServingEngine:
        """The engine for ``name``, loading and evicting as needed.

        Cold loads happen *outside* the store lock (a multi-megabyte
        artifact read must not stall hits on resident models or
        ``/healthz``); concurrent requests for the same cold model wait
        for the single in-flight load instead of duplicating it.
        """
        while True:
            with self._lock:
                if name in self._engines:
                    self._engines.move_to_end(name)
                    return self._engines[name]
                if name not in self._paths:
                    raise UnknownModelError(
                        f"no model named {name!r} is registered; available: {list(self._paths)}"
                    )
                in_flight = self._loading.get(name)
                if in_flight is None:
                    self._loading[name] = Event()
                    path = self._paths[name]
                    break
            # Another thread is loading this model; wait and re-check
            # (the loader may also have failed, in which case we retry).
            in_flight.wait()

        try:
            engine = ServingEngine(path, config=self.config, name=name)
        except BaseException as error:
            with self._lock:
                self._loading.pop(name).set()
            if isinstance(error, (OSError, ValueError, RuntimeError)):
                # The registered artifact was deleted or corrupted on
                # disk since registration.
                raise ServingError(
                    f"model {name!r} failed to load: {error}", code="unavailable"
                ) from error
            raise
        evicted: List[ServingEngine] = []
        with self._lock:
            replaced = self._paths.get(name) != path
            if not replaced:
                self._engines[name] = engine
                self._engines.move_to_end(name)
                while len(self._engines) > self.capacity:
                    _, stale = self._engines.popitem(last=False)
                    evicted.append(stale)
            self._loading.pop(name).set()
            _M_RESIDENT.set(len(self._engines))
        if not replaced:
            _M_LOADS.inc()
        _M_EVICTIONS.inc(len(evicted))
        for stale in evicted:
            stale.close()
        if replaced:
            # ``register`` swapped the path mid-load; this engine holds
            # the replaced artifact and must not be served.
            engine.close()
            return self.get(name)
        return engine

    def predict(self, inputs, model: str) -> np.ndarray:
        """Logits for ``inputs`` from ``model``'s engine, loading it on demand.

        An engine evicted between the lookup and the predict is fetched
        once more, which reloads it; one still churning after that is a
        capacity problem, reported as a retryable ``unavailable``.
        """
        for retry in (False, True):
            engine = self.get(model)
            try:
                return engine.predict(inputs)
            except RuntimeError as error:
                if not engine.closed:
                    raise
                if retry:
                    raise ServingError(str(error), code="unavailable", retryable=True) from error
        raise AssertionError("unreachable: the retry loop returns or raises")

    def load(self, name: str) -> Dict[str, object]:
        """Warm ``name``'s engine (admin surface)."""
        self.get(name)
        return {"model": name, "ok": True}

    def evict(self, name: str) -> Dict[str, object]:
        """Drop ``name``'s resident engine (admin surface; path stays registered).

        ``was_loaded`` reports whether an engine was actually resident;
        the next :meth:`get` or :meth:`predict` reloads it.  Raises
        :class:`~repro.serve.errors.UnknownModelError` for a name that
        was never registered.
        """
        with self._lock:
            if name not in self._paths:
                raise UnknownModelError(
                    f"no model named {name!r} is registered; available: {list(self._paths)}"
                )
            engine = self._engines.pop(name, None)
            _M_RESIDENT.set(len(self._engines))
        if engine is not None:
            _M_ADMIN_EVICTIONS.inc()
            engine.close()
        return {"model": name, "ok": True, "was_loaded": engine is not None}

    def health(self) -> Dict[str, object]:
        """Residency for ``/healthz``: an in-process store is always live."""
        return {"live": True, "loaded": self.loaded()}

    def metrics_snapshot(self) -> Dict[str, object]:
        """The process registry: engines, batchers, store and HTTP counters."""
        return default_registry().snapshot()

    def queue_depth(self) -> int:
        """Requests queued across every resident engine (for ``/healthz``)."""
        with self._lock:
            engines = list(self._engines.values())
        return sum(engine.queue_depth for engine in engines)

    def describe(self) -> List[Dict[str, object]]:
        """Metadata for every registered model (what ``/models`` serves).

        The per-artifact metadata was captured at :meth:`register` time,
        so describing the store never re-reads weight arrays from disk.
        """
        with self._lock:
            return [
                {"name": name, "path": path, "loaded": name in self._engines, **self._meta[name]}
                for name, path in self._paths.items()
            ]

    def close(self) -> None:
        """Close every resident engine and forget them (paths stay registered)."""
        with self._lock:
            engines = list(self._engines.values())
            self._engines.clear()
        for engine in engines:
            engine.close()
