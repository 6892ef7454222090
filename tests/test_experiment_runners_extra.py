"""Schema tests for the remaining experiment runners (fig3-fig8) at unit scale.

``test_experiments.py`` covers fig1/fig2/fig9 and the infrastructure;
these tests exercise every other runner once with a miniature context so
that a broken row schema or a broken sweep loop is caught by the unit
suite rather than only by the (much slower) benchmark harness.
"""

import pytest

from repro.experiments.ablations import granularity_gap_ablation
from repro.experiments.config import ExperimentScale
from repro.experiments.context import ExperimentContext
from repro.experiments.fig3_structured import STRUCTURED_GRANULARITIES
from repro.experiments.fig6_pretraining_schemes import SCHEMES
from repro.experiments.registry import run_experiment
from repro.pruning.granularity import GRANULARITIES


@pytest.fixture(scope="module")
def unit_context():
    scale = ExperimentScale(
        name="unit-runner-extra",
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


def test_fig3_structured_schema(unit_context):
    table = run_experiment(
        "fig3",
        scale=unit_context.scale,
        context=unit_context,
        sparsities=(0.3,),
        granularities=("channel",),
        modes=("linear",),
    )
    assert len(table) == 1
    row = table.rows[0]
    assert row["granularity"] in STRUCTURED_GRANULARITIES
    assert row["mode"] == "linear"
    assert 0.0 <= row["robust_accuracy"] <= 1.0


def test_fig4_imp_schema(unit_context):
    table = run_experiment("fig4", scale=unit_context.scale, context=unit_context, sparsities=(0.6,))
    assert len(table) == 1
    row = table.rows[0]
    assert {"robust_us", "robust_ds", "natural_us", "natural_ds"} <= set(row)
    assert all(0.0 <= row[key] <= 1.0 for key in ("robust_us", "robust_ds", "natural_us", "natural_ds"))


def test_fig5_lmp_schema(unit_context):
    table = run_experiment("fig5", scale=unit_context.scale, context=unit_context, sparsities=(0.6,))
    assert len(table) == 1
    assert 0.0 <= table.rows[0]["robust_accuracy"] <= 1.0


def test_fig6_schemes_schema(unit_context):
    table = run_experiment(
        "fig6", scale=unit_context.scale, context=unit_context, sparsities=(0.6,), mode="linear"
    )
    assert len(table) == 1
    for scheme in SCHEMES:
        assert 0.0 <= table.rows[0][f"{scheme}_accuracy"] <= 1.0


def test_fig7_segmentation_schema(unit_context):
    table = run_experiment("fig7", scale=unit_context.scale, context=unit_context, sparsities=(0.6,))
    assert len(table) == 1
    row = table.rows[0]
    assert 0.0 <= row["robust_miou"] <= 1.0
    assert 0.0 <= row["natural_pixel_accuracy"] <= 1.0


def test_fig8_properties_schema(unit_context):
    table = run_experiment(
        "fig8_tab1", scale=unit_context.scale, context=unit_context, sparsities=(0.6,)
    )
    # One model, one sparsity, two arms (robust / natural).
    assert len(table) == 2
    for row in table:
        assert row["ticket"] in ("robust", "natural")
        assert 0.0 <= row["accuracy"] <= 1.0
        assert 0.0 <= row["roc_auc"] <= 1.0
        assert row["nll"] >= 0.0


def test_granularity_ablation_schema(unit_context):
    table = granularity_gap_ablation(scale=unit_context.scale, context=unit_context, sparsity=0.3)
    assert len(table) == len(GRANULARITIES)
    assert [row["granularity"] for row in table] == list(GRANULARITIES)
