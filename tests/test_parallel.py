"""Tests for the multi-process sweep runner (:mod:`repro.core.parallel`)."""

from __future__ import annotations

import functools
import os
import uuid

import pytest

from repro.core.parallel import SweepRunner, default_workers


def _square(value):
    return value * value


def _pid_and_square(value):
    return os.getpid(), value * value


def _record_call(directory, value):
    """Point function with an observable cross-process side effect."""
    with open(os.path.join(directory, f"{value}-{uuid.uuid4().hex}"), "w"):
        pass
    return value + 1


def _record_call_first(directory, value):
    """Like :func:`_record_call` but for unhashable (list) points."""
    with open(os.path.join(directory, f"{value[0]}-{uuid.uuid4().hex}"), "w"):
        pass
    return value[0]


def _explode(value):
    raise RuntimeError(f"boom on {value}")


class TestSweepRunner:
    def test_serial_matches_parallel(self):
        points = list(range(8))
        serial = SweepRunner(workers=1).map(_square, points)
        parallel = SweepRunner(workers=2).map(_square, points)
        assert serial == parallel == [p * p for p in points]

    def test_results_follow_input_order(self):
        points = [5, 3, 9, 1, 7]
        assert SweepRunner(workers=2).map(_square, points) == [25, 9, 81, 1, 49]

    def test_parallel_uses_multiple_processes(self):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("single-CPU machine may serialise the pool")
        results = SweepRunner(workers=2).map(_pid_and_square, list(range(8)))
        assert [square for _, square in results] == [v * v for v in range(8)]

    def test_duplicate_points_evaluated_once(self, tmp_path):
        directory = str(tmp_path)
        fn = functools.partial(_record_call, directory)
        results = SweepRunner(workers=2).map(fn, [3, 3, 4, 3, 4])
        assert results == [4, 4, 5, 4, 5]
        assert len(os.listdir(directory)) == 2  # one evaluation per distinct point

    def test_unhashable_points_skip_dedup(self, tmp_path):
        directory = str(tmp_path)
        fn = functools.partial(_record_call_first, directory)
        assert SweepRunner(workers=1).map(fn, [[1], [1]]) == [1, 1]
        assert len(os.listdir(directory)) == 2

    def test_empty_points(self):
        assert SweepRunner(workers=4).map(_square, []) == []

    def test_workers_one_never_spawns(self, monkeypatch):
        # Poison the executor: the serial path must not touch it.
        monkeypatch.setattr(
            "repro.core.parallel.ProcessPoolExecutor",
            None,
        )
        assert SweepRunner(workers=1).map(_square, [1, 2]) == [1, 4]

    def test_point_errors_propagate(self):
        with pytest.raises(RuntimeError, match="boom"):
            SweepRunner(workers=2).map(_explode, [1, 2, 3])
        with pytest.raises(RuntimeError, match="boom"):
            SweepRunner(workers=1).map(_explode, [1])

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "not-a-number")
        assert default_workers() == 1
