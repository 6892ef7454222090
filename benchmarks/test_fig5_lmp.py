"""Benchmark reproducing Fig. 5: LMP tickets (learned masks, frozen weights)."""

from repro.experiments import fig5_lmp

from benchmarks.conftest import report


def test_fig5_lmp(scale, context, workers):
    table = fig5_lmp.run(scale=scale, context=context, workers=workers)
    report(table)

    assert len(table) == len(scale.models) * 1 * len(scale.sparsity_grid)
    assert all(0.0 <= row["robust_accuracy"] <= 1.0 for row in table)

    # Paper claim (Fig. 5): robust pretrained models hide more transferable
    # subnetworks even when only the mask is learned.
    print(f"\nrobust-vs-natural win rate: {table.win_rate('robust_accuracy', 'natural_accuracy'):.2f}")
    print(f"mean accuracy gap (robust - natural): {table.mean_gap('robust_accuracy', 'natural_accuracy'):+.4f}")
