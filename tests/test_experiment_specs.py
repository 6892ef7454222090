"""Spec-level tests: serial/parallel equivalence and resumable sweeps.

The acceptance contract of the declarative experiment layer is that
*every* registered experiment (a) accepts ``workers`` and produces rows
byte-identical to its serial run, and (b) resumes from the run store:
an interrupted sweep re-evaluates only the missing grid points and
still yields the same final table.
"""

import json
import os

import pytest

from repro.core.runstore import RunStore, run_key
from repro.experiments.config import ExperimentScale
from repro.experiments.context import ExperimentContext
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.spec import ExperimentSpec, GridPlan

#: Grid overrides keeping each experiment's unit-scale sweep tiny while
#: still exercising at least two grid points wherever affordable.
GRID_OVERRIDES = {
    "fig1": dict(sparsities=(0.6, 0.9)),
    "fig2": dict(sparsities=(0.6, 0.9)),
    "fig3": dict(sparsities=(0.3,), granularities=("row", "channel"), modes=("linear",)),
    "fig4": dict(sparsities=(0.6, 0.9)),
    "fig5": dict(sparsities=(0.6, 0.9)),
    "fig6": dict(sparsities=(0.6, 0.9), mode="linear"),
    "fig7": dict(sparsities=(0.6, 0.9)),
    "fig8_tab1": dict(sparsities=(0.6,)),
    "fig9_tab2": dict(sparsity=0.6, task_names=("cifar10", "caltech256")),
    "ablation_epsilon": dict(epsilons=(0.0, 0.02)),
    "ablation_granularity": dict(sparsity=0.3),
    "ablation_mask_overlap": dict(sparsities=(0.5, 0.9)),
}


@pytest.fixture(scope="module")
def unit_context():
    """A context tiny enough to run every experiment twice inside tests."""
    scale = ExperimentScale(
        name="unit-spec",
        base_width=4,
        source_classes=4,
        source_train_size=48,
        source_test_size=24,
        pretrain_epochs=1,
        downstream_train_size=32,
        downstream_test_size=24,
        finetune_epochs=1,
        linear_epochs=5,
        sparsity_grid=(0.6,),
        high_sparsity_grid=(0.9,),
        structured_sparsity_grid=(0.3,),
        imp_iterations=1,
        imp_epochs_per_iteration=1,
        lmp_epochs=1,
        attack_epsilon=0.02,
        attack_steps=1,
        segmentation_train_size=12,
        segmentation_test_size=8,
        segmentation_epochs=1,
        vtab_train_size=12,
        vtab_test_size=12,
        fid_samples=12,
        models=("resnet18",),
        tasks=("cifar10",),
    )
    return ExperimentContext(scale)


@pytest.mark.parametrize("identifier", sorted(EXPERIMENTS))
def test_serial_and_parallel_rows_identical(identifier, unit_context):
    """workers=2 must reproduce the serial rows byte-for-byte, in order."""
    overrides = GRID_OVERRIDES.get(identifier, {})
    serial = run_experiment(
        identifier, scale=unit_context.scale, context=unit_context, workers=1, **overrides
    )
    parallel = run_experiment(
        identifier, scale=unit_context.scale, context=unit_context, workers=2, **overrides
    )
    assert len(serial) == len(parallel) > 0
    assert json.dumps(serial.as_records(), sort_keys=True) == json.dumps(
        parallel.as_records(), sort_keys=True
    )


def test_every_registered_id_matches_its_spec_identifier():
    for identifier, spec in EXPERIMENTS.items():
        assert spec.identifier == identifier
        assert spec.columns  # every spec declares its row schema


# ----------------------------------------------------------------------
# Resumable sweeps
# ----------------------------------------------------------------------
def _counting_evaluate(context, scale, directory, index):
    """Point evaluator with an observable per-call marker and a kill switch."""
    calls = os.path.join(directory, "calls")
    os.makedirs(calls, exist_ok=True)
    sentinel = os.path.join(directory, "fail_after")
    if os.path.exists(sentinel):
        with open(sentinel, "r", encoding="utf-8") as handle:
            limit = int(handle.read())
        if len(os.listdir(calls)) >= limit:
            raise RuntimeError("sweep killed mid-run")
    with open(os.path.join(calls, str(index)), "w", encoding="utf-8"):
        pass
    return {"index": index, "square": index * index}


def _counting_grid(scale, directory=None, count=6):
    return GridPlan(points=tuple((directory, index) for index in range(count)))


COUNTING_SPEC = ExperimentSpec(
    identifier="counting",
    title="counting sweep",
    evaluate=_counting_evaluate,
    grid=_counting_grid,
    columns=("index", "square"),
)


class TestResume:
    COUNT = 6
    KILL_AFTER = 3

    def test_interrupted_sweep_resumes_with_only_missing_points(self, tmp_path, unit_context):
        scratch = str(tmp_path / "scratch")
        os.makedirs(scratch)
        store = RunStore(str(tmp_path / "runs"))

        # First run is killed after KILL_AFTER evaluated points ...
        with open(os.path.join(scratch, "fail_after"), "w", encoding="utf-8") as handle:
            handle.write(str(self.KILL_AFTER))
        with pytest.raises(RuntimeError, match="killed"):
            COUNTING_SPEC.run(
                scale=unit_context.scale,
                context=unit_context,
                workers=1,
                store=store,
                directory=scratch,
                count=self.COUNT,
            )
        calls = os.path.join(scratch, "calls")
        assert len(os.listdir(calls)) == self.KILL_AFTER
        # ... and every completed point survived the crash in the store.
        key = run_key("counting", unit_context.scale)
        assert len(store.load(key)) == self.KILL_AFTER

        # The warm restart evaluates exactly the missing points.
        os.remove(os.path.join(scratch, "fail_after"))
        table = COUNTING_SPEC.run(
            scale=unit_context.scale,
            context=unit_context,
            workers=1,
            store=store,
            directory=scratch,
            count=self.COUNT,
        )
        assert sorted(os.listdir(calls)) == sorted(str(i) for i in range(self.COUNT))
        assert table.as_records() == [
            {"index": index, "square": index * index} for index in range(self.COUNT)
        ]

        # A further re-run is fully cached: no point is evaluated again.
        before = set(os.listdir(calls))
        again = COUNTING_SPEC.run(
            scale=unit_context.scale,
            context=unit_context,
            workers=1,
            store=store,
            directory=scratch,
            count=self.COUNT,
        )
        assert set(os.listdir(calls)) == before
        assert again.as_records() == table.as_records()

    def test_registered_experiment_resumes_from_store(self, tmp_path, unit_context):
        """A real runner run twice against the same store reuses its rows."""
        store = RunStore(str(tmp_path / "runs"))
        first = run_experiment(
            "ablation_mask_overlap",
            scale=unit_context.scale,
            context=unit_context,
            store=store,
            sparsities=(0.5, 0.9),
        )
        key = run_key("ablation_mask_overlap", unit_context.scale)
        assert len(store.load(key)) == 2
        second = run_experiment(
            "ablation_mask_overlap",
            scale=unit_context.scale,
            context=unit_context,
            store=store,
            sparsities=(0.5, 0.9),
        )
        assert json.dumps(first.as_records(), sort_keys=True) == json.dumps(
            second.as_records(), sort_keys=True
        )
        # Rows re-hydrated from the store keep the original column order.
        assert second.columns() == first.columns()
