"""Benchmark reproducing Fig. 1: OMP tickets under whole-model finetuning."""

from repro.experiments import fig1_omp_finetune

from benchmarks.conftest import report


def test_fig1_omp_finetune(scale, context, workers):
    table = fig1_omp_finetune.run(scale=scale, context=context, workers=workers)
    report(table)

    # Shape checks: every (model, task, sparsity) point carries both arms.
    expected_points = (
        len(scale.models) * len(scale.tasks) * len(scale.sparsity_grid + scale.high_sparsity_grid)
    )
    assert len(table) == expected_points
    assert all(0.0 <= row["robust_accuracy"] <= 1.0 for row in table)
    assert all(0.0 <= row["natural_accuracy"] <= 1.0 for row in table)

    # Paper claim (Fig. 1): robust tickets outperform natural tickets under
    # whole-model finetuning.  At smoke scale, on one seed, the claim is
    # reported, not asserted.
    print(f"\nrobust-vs-natural win rate: {table.win_rate('robust_accuracy', 'natural_accuracy'):.2f}")
    print(f"mean accuracy gap (robust - natural): {table.mean_gap('robust_accuracy', 'natural_accuracy'):+.4f}")
