"""Unit tests for seeding, checkpointing, and logging utilities."""

import os
from unittest import mock

import numpy as np
import pytest

from repro.analysis.findings import Finding, dump_report
from repro.bench.baseline import Baseline, BaselineStore
from repro.bench.calibrate import Calibration
from repro.core import runstore
from repro.experiments import cli as experiments_cli
from repro.experiments.config import get_scale
from repro.experiments.results import ResultTable
from repro.models.resnet import resnet18
from repro.utils.checkpoint import (
    load_state_dict,
    read_json,
    save_bundle,
    save_state_dict,
    write_file,
    write_json,
)
from repro.utils.logging import MetricLogger
from repro.utils.seeding import seed_everything, seeded_rng, spawn_rngs


class TestSeeding:
    def test_seeded_rng_is_deterministic(self):
        a = seeded_rng(42).normal(size=5)
        b = seeded_rng(42).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(seeded_rng(1).normal(size=5), seeded_rng(2).normal(size=5))

    def test_spawn_rngs_independent_and_deterministic(self):
        first = [rng.normal(size=3) for rng in spawn_rngs(7, 3)]
        second = [rng.normal(size=3) for rng in spawn_rngs(7, 3)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(first[0], first[1])

    def test_seed_everything_seeds_global_generators(self):
        seed_everything(5)
        a = np.random.rand(3)
        seed_everything(5)
        np.testing.assert_array_equal(a, np.random.rand(3))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = resnet18(base_width=4, seed=0)
        state = model.state_dict()
        path = save_state_dict(state, os.path.join(tmp_path, "ckpt"))
        assert path.endswith(".npz")
        loaded = load_state_dict(path)
        assert set(loaded) == set(state)
        np.testing.assert_array_equal(loaded["conv1.weight"], state["conv1.weight"])

    def test_load_accepts_path_without_extension(self, tmp_path):
        path = save_state_dict({"w": np.ones((2, 2))}, os.path.join(tmp_path, "weights"))
        loaded = load_state_dict(path[: -len(".npz")])
        np.testing.assert_array_equal(loaded["w"], np.ones((2, 2)))

    def test_creates_directories(self, tmp_path):
        nested = os.path.join(tmp_path, "a", "b", "ckpt.npz")
        save_state_dict({"w": np.zeros(1)}, nested)
        assert os.path.exists(nested)

    def test_kill_during_save_never_leaves_truncated_archive(self, tmp_path, monkeypatch):
        """A process dying mid-``save_state_dict`` must not tear the target.

        The save stages into a unique temp file and lands via
        ``os.replace``; simulating a kill at any point of the array
        write must leave either the previous complete archive or no
        archive at all — never a half-written ``.npz``.
        """
        path = os.path.join(tmp_path, "ckpt.npz")
        save_state_dict({"w": np.arange(4.0)}, path)

        real_savez = np.savez

        def dying_savez(file, **arrays):
            real_savez(file, **{name: value * 0 for name, value in arrays.items()})
            raise KeyboardInterrupt("simulated SIGKILL mid-write")

        monkeypatch.setattr(np, "savez", dying_savez)
        with pytest.raises(KeyboardInterrupt):
            save_state_dict({"w": np.arange(4.0) + 1}, path)
        monkeypatch.undo()

        # The final path still holds the previous, complete archive ...
        np.testing.assert_array_equal(load_state_dict(path)["w"], np.arange(4.0))
        # ... and the failed writer's staging file was cleaned up.
        assert os.listdir(tmp_path) == ["ckpt.npz"]

    def test_concurrent_style_writers_land_whole_archives(self, tmp_path):
        """Two writers to one path: the survivor is one complete archive."""
        path = os.path.join(tmp_path, "shared.npz")
        save_state_dict({"w": np.zeros(8)}, path)
        save_state_dict({"w": np.ones(8)}, path)
        np.testing.assert_array_equal(load_state_dict(path)["w"], np.ones(8))
        assert os.listdir(tmp_path) == ["shared.npz"]


def _table(version):
    return ResultTable("t", [{"sparsity": 0.5, "accuracy": 0.25 * version}])


_KEY = runstore.RunKey(experiment="exp", scale="smoke", config_hash="abc")


def _write_csv(directory, version):
    path = os.path.join(directory, "rows.csv")
    with mock.patch.object(
        experiments_cli, "run_experiment", lambda *args, **kwargs: _table(version)
    ):
        experiments_cli.main(["fig2", "--csv", path])
    return path


#: Every public writer as ``(directory, version) -> path``; each
#: version writes different bytes to the same path.
WRITERS = {
    "write_json": lambda d, v: write_json(os.path.join(d, "doc.json"), {"v": v}),
    "write_file": lambda d, v: write_file(os.path.join(d, "doc.txt"), f"v{v}\n"),
    "save_state_dict": lambda d, v: save_state_dict(
        {"w": np.full(3, v)}, os.path.join(d, "state.npz")
    ),
    "save_bundle": lambda d, v: save_bundle(
        os.path.join(d, "bundle.npz"), {"w": np.full(3, v)}, {"v": v}, "__header__"
    ),
    "BaselineStore.save": lambda d, v: BaselineStore(d).save(
        Baseline("spec", units=v, wall_s={"median": v}, calibration=Calibration(1.0, 1.0, 1.0))
    ),
    "RunStore.put": lambda d, v: runstore.RunStore(d).put(_KEY, (0.5,), {"v": v}),
    "RunStore.write_manifest": lambda d, v: runstore.RunStore(d).write_manifest(
        _KEY, scale=get_scale("smoke") if v else None
    ),
    "runstore.write_artifact": lambda d, v: runstore.write_artifact(
        os.path.join(d, "run.json"), _table(v)
    ),
    "dump_report": lambda d, v: dump_report(
        [Finding("repro/x.py", v + 1, 0, "atomic-write", "m")], os.path.join(d, "lint.json")
    ),
    "--csv": _write_csv,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_old_file_and_leaves_no_staging_file(
    tmp_path, monkeypatch, writer
):
    """A write that fails at the rename raises, keeps the previous file
    byte for byte, and removes its staging file."""
    write = WRITERS[writer]
    path = write(str(tmp_path), 0)
    with open(path, "rb") as handle:
        before = handle.read()

    def failing_replace(source, target):
        raise OSError("simulated failure at the rename")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated"):
        write(str(tmp_path), 1)
    monkeypatch.undo()

    with open(path, "rb") as handle:
        assert handle.read() == before
    staged = [
        name for _, _, names in os.walk(tmp_path) for name in names if name.endswith(".tmp")
    ]
    assert staged == []


class TestJsonDocuments:
    def test_round_trip_keeps_key_order(self, tmp_path):
        path = write_json(str(tmp_path / "doc.json"), {"format": "x/v1", "b": 1, "a": [2.5]})
        assert list(read_json(path, "x/v1")) == ["format", "b", "a"]
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read().endswith("}\n")

    def test_single_line_document_has_no_trailing_newline(self, tmp_path):
        path = write_json(str(tmp_path / "doc.json"), {"b": 1, "a": 2}, indent=None)
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == '{"b": 1, "a": 2}'

    @pytest.mark.parametrize("document", [{"format": "y/v1"}, {"rows": []}, [1, 2]])
    def test_format_tag_is_checked(self, tmp_path, document):
        path = write_json(str(tmp_path / "doc.json"), document)
        with pytest.raises(ValueError, match="expected x/v1"):
            read_json(path, "x/v1")


class TestMetricLogger:
    def test_logging_and_queries(self):
        logger = MetricLogger()
        logger.log(loss=1.0, accuracy=0.5)
        logger.log(loss=0.5, accuracy=0.75)
        assert logger.series("loss") == [1.0, 0.5]
        assert logger.last("loss") == 0.5
        assert logger.mean("accuracy") == pytest.approx(0.625)
        assert logger.names() == ["accuracy", "loss"]
        assert logger.as_dict()["loss"] == [1.0, 0.5]

    def test_missing_series_defaults(self):
        logger = MetricLogger()
        assert logger.series("nope") == []
        assert np.isnan(logger.last("nope"))
        assert np.isnan(logger.mean("nope"))
        assert logger.last("nope", default=7.0) == 7.0
