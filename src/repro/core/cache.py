"""Disk-backed sweep cache for pretrained backbones and drawn tickets.

Every figure in the paper sweeps sparsity ratios over the same
pretrained dense models, so across repeated benchmark/figure runs the
dominant cost is re-pretraining identical backbones in every process.
:class:`SweepCache` persists the two expensive artefacts of
:class:`repro.core.pipeline.RobustTicketPipeline` —
:class:`~repro.training.pretrain.PretrainResult` and
:class:`~repro.core.tickets.Ticket` — as ``.npz`` archives keyed by a
hash of every configuration field that influences them (including the
engine compute dtype), so each scheme is pretrained once per machine
rather than once per process.

Cache layout: ``<root>/<kind>-<hash>.npz``.  Entries are self-contained
(arrays plus a JSON header) written through
:func:`repro.utils.checkpoint.save_bundle`, which stages and renames, so
a crashed run never leaves a half-written entry behind.
Invalidation is by key: any config change (or a bump of
:data:`CACHE_FORMAT_VERSION`) produces a different hash and the stale
files are simply never read again; deleting the cache directory is
always safe.

The cache root is chosen by the caller (``PipelineConfig.cache_dir``);
the benchmark harness enables it via the ``REPRO_SWEEP_CACHE``
environment variable, defaulting to :func:`default_cache_root`.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, Optional, TypeVar

from repro.core.tickets import Ticket
from repro.obs.registry import default_registry
from repro.training.pretrain import PretrainResult
from repro.utils.checkpoint import load_bundle, members, save_bundle

_T = TypeVar("_T")

_REGISTRY = default_registry()
_M_CACHE_HITS = _REGISTRY.counter(
    "sweep_cache_hits_total", "Sweep-cache reads served from disk.", labels=("kind",)
)
_M_CACHE_MISSES = _REGISTRY.counter(
    "sweep_cache_misses_total",
    "Sweep-cache reads that missed (absent or corrupt entry).",
    labels=("kind",),
)

#: Environment variable the benchmark harness reads the cache root from.
#: Set it to an empty string to disable caching entirely.
CACHE_ENV_VAR = "REPRO_SWEEP_CACHE"

#: Bump to invalidate every existing cache entry after an incompatible change.
CACHE_FORMAT_VERSION = 1

_HEADER_KEY = "__sweep_cache_header__"


def default_cache_root() -> str:
    """The per-user default cache directory (``~/.cache/repro/sweeps``)."""
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "sweeps")


def config_hash(payload: Dict) -> str:
    """Deterministic short hash of a JSON-serialisable configuration dict."""
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class SweepCache:
    """Content-addressed on-disk store for pipeline artefacts."""

    def __init__(self, root: str) -> None:
        self.root = str(root)

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, f"{kind}-{key}.npz")

    def _load(self, kind: str, key: str, read: Callable[[str], Optional[_T]]) -> Optional[_T]:
        try:
            value = read(self._path(kind, key))
        except (OSError, ValueError, KeyError):
            # An absent, corrupt or truncated entry is a miss; the fresh
            # result overwrites it.
            value = None
        counter = _M_CACHE_HITS if value is not None else _M_CACHE_MISSES
        counter.labelled(kind=kind).inc()
        return value

    # ------------------------------------------------------------------
    # Pretrained backbones
    # ------------------------------------------------------------------
    def store_pretrain(self, key: str, result: PretrainResult) -> str:
        """Persist a :class:`PretrainResult` under ``key``."""
        header = {
            "version": CACHE_FORMAT_VERSION,
            "scheme": result.scheme,
            "model_name": result.model_name,
            "source_accuracy": result.source_accuracy,
            "config": result.config,
        }
        arrays = {f"backbone./{name}": value for name, value in result.backbone_state.items()}
        arrays.update({f"head./{name}": value for name, value in result.head_state.items()})
        return save_bundle(self._path("pretrain", key), arrays, header, _HEADER_KEY)

    def load_pretrain(self, key: str) -> Optional[PretrainResult]:
        """Fetch a cached :class:`PretrainResult`, or ``None`` on a miss."""
        return self._load("pretrain", key, _read_pretrain)

    # ------------------------------------------------------------------
    # Drawn tickets
    # ------------------------------------------------------------------
    def store_ticket(self, key: str, ticket: Ticket) -> str:
        """Persist a drawn :class:`Ticket` under ``key`` (atomic via ``Ticket.save``)."""
        return ticket.save(self._path("ticket", key))

    def load_ticket(self, key: str) -> Optional[Ticket]:
        """Fetch a cached :class:`Ticket`, or ``None`` on a miss."""
        return self._load("ticket", key, Ticket.load)


def _read_pretrain(path: str) -> Optional[PretrainResult]:
    """The :class:`PretrainResult` in a pretrain entry; ``None`` for another version."""
    header, arrays = load_bundle(path, _HEADER_KEY)
    if header.get("version") != CACHE_FORMAT_VERSION:
        return None
    return PretrainResult(
        scheme=header["scheme"],
        model_name=header["model_name"],
        backbone_state=members(arrays, "backbone./"),
        head_state=members(arrays, "head./"),
        source_accuracy=float(header["source_accuracy"]),
        config=dict(header["config"]),
    )
