"""Benchmark reproducing Fig. 7: OMP tickets transferred to segmentation (mIoU)."""

from repro.experiments import fig7_segmentation

from benchmarks.conftest import report


def test_fig7_segmentation(scale, context, workers):
    table = fig7_segmentation.run(scale=scale, context=context, workers=workers)
    report(table)

    assert len(table) == len(scale.sparsity_grid)
    assert all(0.0 <= row["robust_miou"] <= 1.0 for row in table)
    assert all(0.0 <= row["natural_miou"] <= 1.0 for row in table)

    # Paper claim (Fig. 7): robust tickets achieve consistently higher mIoU,
    # especially under mild sparsity — the robustness prior is task-agnostic.
    print(f"\nrobust-vs-natural mIoU win rate: {table.win_rate('robust_miou', 'natural_miou'):.2f}")
    print(f"mean mIoU gap (robust - natural): {table.mean_gap('robust_miou', 'natural_miou'):+.4f}")
