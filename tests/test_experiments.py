"""Unit tests for the experiment infrastructure (scales, tables, registry, runners)."""

import numpy as np
import pytest

from repro.experiments import fig9_vtab_fid
from repro.experiments.ablations import mask_overlap_analysis
from repro.experiments.config import PAPER, SMOKE, ExperimentScale, get_scale
from repro.experiments.context import ExperimentContext, shared_context
from repro.experiments.registry import EXPERIMENTS, available_experiments, run_experiment
from repro.experiments.results import ResultTable


class TestScales:
    def test_get_scale_by_name_and_object(self):
        assert get_scale("smoke") is SMOKE
        assert get_scale("paper") is PAPER
        assert get_scale(SMOKE) is SMOKE
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_paper_scale_strictly_larger(self):
        assert PAPER.source_train_size > SMOKE.source_train_size
        assert PAPER.pretrain_epochs > SMOKE.pretrain_epochs
        assert len(PAPER.sparsity_grid) >= len(SMOKE.sparsity_grid)
        assert "resnet50" in PAPER.models

    def test_scale_is_frozen(self):
        with pytest.raises(Exception):
            SMOKE.base_width = 100


class TestResultTable:
    def make_table(self):
        table = ResultTable("demo")
        table.add_row(model="a", sparsity=0.5, robust=0.8, natural=0.7)
        table.add_row(model="a", sparsity=0.9, robust=0.6, natural=0.65)
        table.add_row(model="b", sparsity=0.5, robust=0.9, natural=0.85)
        return table

    def test_columns_and_column(self):
        table = self.make_table()
        assert table.columns() == ["model", "sparsity", "robust", "natural"]
        assert table.column("robust") == [0.8, 0.6, 0.9]
        assert len(table) == 3

    def test_select_and_filter(self):
        table = self.make_table()
        assert len(table.select(model="a")) == 2
        assert len(table.filter(lambda row: row["sparsity"] > 0.6)) == 1

    def test_win_rate_and_mean_gap(self):
        table = self.make_table()
        assert table.win_rate("robust", "natural") == pytest.approx(2 / 3)
        assert table.mean_gap("robust", "natural") == pytest.approx((0.1 - 0.05 + 0.05) / 3)
        assert np.isnan(ResultTable("empty").win_rate("a", "b"))

    def test_to_text_and_csv(self):
        table = self.make_table()
        text = table.to_text()
        assert "demo" in text and "robust" in text
        csv = table.to_csv()
        assert csv.splitlines()[0] == "model,sparsity,robust,natural"
        assert len(csv.splitlines()) == 4

    def test_empty_table_to_text(self):
        assert "(no rows)" in ResultTable("empty").to_text()

    def test_as_records_copies(self):
        table = self.make_table()
        records = table.as_records()
        records[0]["model"] = "zzz"
        assert table.rows[0]["model"] == "a"


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8_tab1", "fig9_tab2"}
        assert expected <= set(available_experiments())
        assert all(callable(runner) for runner in EXPERIMENTS.values())

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestContext:
    def test_pipelines_and_tasks_are_cached(self):
        scale = ExperimentScale(
            name="unit",
            base_width=4,
            source_classes=4,
            source_train_size=32,
            source_test_size=16,
            pretrain_epochs=1,
            downstream_train_size=24,
            downstream_test_size=16,
            finetune_epochs=1,
            linear_epochs=3,
            sparsity_grid=(0.5,),
            high_sparsity_grid=(0.9,),
            structured_sparsity_grid=(0.3,),
            imp_iterations=1,
            imp_epochs_per_iteration=1,
            lmp_epochs=1,
            attack_epsilon=0.02,
            attack_steps=1,
            segmentation_train_size=8,
            segmentation_test_size=4,
            segmentation_epochs=1,
            vtab_train_size=8,
            vtab_test_size=8,
            fid_samples=16,
        )
        context = ExperimentContext(scale)
        assert context.pipeline("resnet18") is context.pipeline("resnet18")
        assert context.task("cifar10") is context.task("cifar10")
        assert context.segmentation() is context.segmentation()
        assert len(context.vtab()) == 12

    def test_shared_context_is_singleton_per_scale(self):
        assert shared_context("smoke") is shared_context("smoke")


@pytest.fixture(scope="module")
def unit_context():
    """A context tiny enough to run real experiment runners inside tests."""
    scale = ExperimentScale(
        name="unit-runner",
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


class TestRunners:
    """Each runner is exercised once at unit scale to validate its row schema."""

    def test_fig1_row_schema(self, unit_context):
        table = run_experiment(
            "fig1", scale=unit_context.scale, context=unit_context, sparsities=(0.6,)
        )
        assert len(table) == 1
        row = table.rows[0]
        assert {"model", "task", "sparsity", "robust_accuracy", "natural_accuracy", "gap"} <= set(row)
        assert 0.0 <= row["robust_accuracy"] <= 1.0

    def test_fig2_row_schema(self, unit_context):
        table = run_experiment(
            "fig2", scale=unit_context.scale, context=unit_context, sparsities=(0.6,)
        )
        assert len(table) == 1
        assert 0.0 <= table.rows[0]["natural_accuracy"] <= 1.0

    def test_fig9_row_schema(self, unit_context):
        table = run_experiment(
            "fig9_tab2",
            scale=unit_context.scale,
            context=unit_context,
            sparsity=0.6,
            task_names=("cifar10", "caltech256"),
        )
        assert len(table) == 2
        assert {"task", "fid", "winner"} <= set(table.rows[0])
        assert table.rows[0]["fid"] >= table.rows[1]["fid"]  # sorted by decreasing FID
        assert all(row["winner"] in ("robust", "natural", "match") for row in table)

    def test_fig9_winner_margin_logic(self):
        assert fig9_vtab_fid.MATCH_MARGIN > 0

    def test_mask_overlap_ablation(self, unit_context):
        table = mask_overlap_analysis(
            scale=unit_context.scale, context=unit_context, sparsities=(0.5, 0.9)
        )
        assert len(table) == 2
        assert all(0.0 <= row["overlap"] <= 1.0 for row in table)
        # Higher sparsity keeps fewer weights.
        assert table.rows[1]["robust_remaining"] < table.rows[0]["robust_remaining"]
