"""Shared fixtures for the benchmark harness.

Every benchmark reproduces one figure / table of the paper at the
``smoke`` experiment scale.  The heavy artefacts — the adversarially,
naturally, and noise-augmented pretrained dense models — are shared
across all benchmarks through a session-scoped
:class:`~repro.experiments.context.ExperimentContext`, exactly as the
paper reuses its pretrained ImageNet models across figures.

Each benchmark runs its experiment exactly once: the quantity of
interest is the reproduced table, not a timing distribution.  Timings
are the registered :mod:`repro.bench` specs, which
``test_bench_suite.py`` runs here and ``python -m repro.bench`` gates.

Pretrained backbones and drawn tickets persist to a per-machine sweep
cache (see :mod:`repro.core.cache`), so re-running the suite skips the
pretraining cost entirely.  Point ``REPRO_SWEEP_CACHE`` at a different
directory to relocate it, or set it to an empty string to disable.
"""

from __future__ import annotations

import os

import pytest

from repro.core.cache import CACHE_ENV_VAR, default_cache_root
from repro.core.parallel import default_workers
from repro.experiments import ExperimentScale, ResultTable, shared_context
from repro.experiments.config import SMOKE
from repro.tensor import dtypes

os.environ.setdefault(CACHE_ENV_VAR, default_cache_root())


@pytest.fixture(scope="session", autouse=True)
def _benchmark_engine_dtype():
    """Benchmarks measure the shipped engine: pin the float32 factory default.

    When the unit suite and the benchmarks are collected into one pytest
    process, ``tests/conftest.py`` pins float64 at import time for its
    numerical tolerances; this session fixture restores the shipped
    default for everything under ``benchmarks/``.
    """
    previous = dtypes.default_dtype()
    dtypes.set_default_dtype(dtypes.FACTORY_DEFAULT_DTYPE)
    yield
    dtypes.set_default_dtype(previous)


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale used by the benchmark suite."""
    return SMOKE


@pytest.fixture(scope="session")
def context(scale):
    """Process-wide experiment context (cached pretrained models and tasks)."""
    return shared_context(scale)


@pytest.fixture(scope="session")
def workers() -> int:
    """Worker processes for the figure/ablation benchmarks.

    Every experiment dispatches through the shared grid dispatcher now,
    so this applies to all of them.  Defaults to serial; export
    ``REPRO_SWEEP_WORKERS=N`` to fan the independent grid points out
    across processes (results are identical either way).
    """
    return default_workers()


def report(table: ResultTable) -> None:
    """Print a reproduced table so it appears in the benchmark output."""
    print()
    print(table.to_text())
