"""On-disk, append-only store of completed experiment grid points.

Every figure/table of the paper is a sweep over a ``(model, task,
sparsity, prior)``-style grid whose points are independent given the
pretrained backbones.  :class:`RunStore` persists each completed point's
result row the moment it lands — from the serial loop or from inside a
worker process — so an interrupted sweep restarts warm: the dispatcher
(:func:`repro.experiments.grid.sweep_grid`) consults the store before
fanning out and only evaluates the points that are still missing.

Layout
------
::

    <root>/<experiment>/<scale>-<config_hash>/
        manifest.json             # experiment id, scale config, version
        point-<point_hash>.json   # {"point": [...], "row": {...}}

``config_hash`` digests the *entire* experiment scale (every field of
:class:`~repro.experiments.config.ExperimentScale` plus the store format
version), so any change to the scale invalidates nothing — it simply
keys a different run directory.  The point files are self-contained and
written through :func:`repro.utils.checkpoint.write_json`, which stages
and renames, so a killed sweep never leaves a torn row behind; a
corrupt file reads as a miss and is recomputed.

Finished runs additionally export as a single versioned JSON artifact
(:func:`write_artifact` / :func:`load_artifact`) that round-trips
through :meth:`repro.experiments.results.ResultTable.from_records`.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.cache import config_hash
from repro.obs.registry import default_registry
from repro.utils.checkpoint import read_json, write_json

#: Bump to key every run into fresh directories after an incompatible change.
RUN_STORE_VERSION = 1

#: Format tag stamped into (and required from) run artifacts.
ARTIFACT_FORMAT = "repro-run/v1"

#: Environment variable supplying the default run-store root
#: (``--resume`` with no path reads it, else :func:`default_run_root`).
RUN_STORE_ENV_VAR = "REPRO_RUN_STORE"


def default_run_root() -> str:
    """The per-user default run-store directory (``~/.cache/repro/runs``)."""
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "runs")


def jsonify(value: Any) -> Any:
    """``value`` with numpy scalars/arrays converted to plain Python.

    Result rows and grid points must survive a JSON round-trip
    bit-exactly, so everything entering the store is normalised first;
    floats are exact either way (``json`` emits shortest-repr floats).
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    return value


def jsonify_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """A result row as a JSON-pure dict (insertion order preserved)."""
    return {str(key): jsonify(value) for key, value in row.items()}


def normalise_point(point: Tuple) -> Tuple:
    """A grid point as a hashable tuple of JSON-pure values."""
    return tuple(jsonify(list(point)))


def point_id(point: Tuple) -> str:
    """Deterministic short hash identifying one grid point."""
    return config_hash({"point": jsonify(list(point))})


@dataclasses.dataclass(frozen=True)
class RunKey:
    """Identity of one run: ``(experiment, scale name, config hash)``."""

    experiment: str
    scale: str
    config_hash: str


def run_key(experiment: str, scale) -> RunKey:
    """The :class:`RunKey` for ``experiment`` at ``scale``.

    ``scale`` is an :class:`~repro.experiments.config.ExperimentScale`;
    every field participates in the hash, so two runs share completed
    points exactly when their scales are identical.
    """
    payload = {
        "version": RUN_STORE_VERSION,
        "experiment": experiment,
        "scale": dataclasses.asdict(scale),
    }
    return RunKey(experiment=experiment, scale=scale.name, config_hash=config_hash(payload))


_REGISTRY = default_registry()
_M_STORE_HITS = _REGISTRY.counter(
    "runstore_hits_total", "Point reads answered from the run store."
)
_M_STORE_MISSES = _REGISTRY.counter(
    "runstore_misses_total", "Point reads that found no stored row."
)
_M_STORE_PUTS = _REGISTRY.counter(
    "runstore_puts_total", "Point rows checkpointed to the run store."
)
_M_RESUME_SKIPS = _REGISTRY.counter(
    "runstore_resume_skips_total",
    "Completed points loaded at sweep start instead of recomputed.",
)


class RunStore:
    """Append-only directory store of completed ``(run, point) -> row``."""

    def __init__(self, root: str) -> None:
        self.root = str(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def directory(self, key: RunKey) -> str:
        """The run directory for ``key`` (may not exist yet)."""
        return os.path.join(self.root, key.experiment, f"{key.scale}-{key.config_hash}")

    def _point_path(self, key: RunKey, point: Tuple) -> str:
        return os.path.join(self.directory(key), f"point-{point_id(point)}.json")

    # ------------------------------------------------------------------
    # Point checkpoints
    # ------------------------------------------------------------------
    def put(self, key: RunKey, point: Tuple, row: Dict[str, Any]) -> str:
        """Checkpoint one completed point's row; atomic, last writer wins."""
        payload = {"point": jsonify(list(point)), "row": jsonify_row(row)}
        _M_STORE_PUTS.inc()
        return write_json(self._point_path(key, point), payload, indent=None)

    def get(self, key: RunKey, point: Tuple) -> Optional[Dict[str, Any]]:
        """The stored row for ``point``, or ``None`` on a miss."""
        row = self._read_row(self._point_path(key, point))
        if row is None:
            _M_STORE_MISSES.inc()
        else:
            _M_STORE_HITS.inc()
        return row

    def load(self, key: RunKey) -> Dict[Tuple, Dict[str, Any]]:
        """Every completed point of the run, as ``{point: row}``."""
        try:
            names = sorted(os.listdir(self.directory(key)))
        except OSError:
            return {}
        completed: Dict[Tuple, Dict[str, Any]] = {}
        for name in names:
            if not (name.startswith("point-") and name.endswith(".json")):
                continue
            payload = self._read_json(os.path.join(self.directory(key), name))
            if payload is None:
                continue
            point, row = payload.get("point"), payload.get("row")
            if isinstance(point, list) and isinstance(row, dict):
                completed[tuple(point)] = dict(row)
        _M_RESUME_SKIPS.inc(len(completed))
        return completed

    def _read_json(self, path: str) -> Optional[Dict[str, Any]]:
        try:
            payload = read_json(path)
        except (OSError, ValueError):
            # Missing or torn entries read as misses and are recomputed.
            return None
        return payload if isinstance(payload, dict) else None

    def _read_row(self, path: str) -> Optional[Dict[str, Any]]:
        payload = self._read_json(path)
        if payload is None:
            return None
        row = payload.get("row")
        return dict(row) if isinstance(row, dict) else None

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def write_manifest(self, key: RunKey, scale=None) -> str:
        """Record what this run directory holds (idempotent, atomic)."""
        payload: Dict[str, Any] = {
            "version": RUN_STORE_VERSION,
            "experiment": key.experiment,
            "scale": key.scale,
            "config_hash": key.config_hash,
        }
        if scale is not None:
            payload["scale_config"] = jsonify(dataclasses.asdict(scale))
        return write_json(
            os.path.join(self.directory(key), "manifest.json"), payload, indent=None
        )


def resolve_store(store) -> Optional[RunStore]:
    """Coerce ``store`` (a :class:`RunStore`, a path, or ``None``)."""
    if store is None or isinstance(store, RunStore):
        return store
    return RunStore(str(store))


# ----------------------------------------------------------------------
# Versioned run artifacts
# ----------------------------------------------------------------------
def write_artifact(path: str, table, key: Optional[RunKey] = None) -> str:
    """Write a finished :class:`ResultTable` as a versioned JSON artifact."""
    payload: Dict[str, Any] = {
        "format": ARTIFACT_FORMAT,
        "title": table.title,
        "columns": table.columns(),
        "rows": [jsonify_row(row) for row in table.rows],
    }
    if key is not None:
        payload["experiment"] = key.experiment
        payload["scale"] = key.scale
        payload["config_hash"] = key.config_hash
    return write_json(path, payload)


def load_artifact(path: str):
    """Re-hydrate a run artifact written by :func:`write_artifact`."""
    from repro.experiments.results import ResultTable

    payload = read_json(path, ARTIFACT_FORMAT)
    return ResultTable.from_records(payload.get("rows", []), title=payload.get("title", "run"))
