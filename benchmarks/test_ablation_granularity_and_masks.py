"""Ablation benchmarks: granularity-dependent prior inheritance and mask overlap."""

from repro.experiments.ablations import granularity_gap_ablation, mask_overlap_analysis
from repro.pruning.granularity import GRANULARITIES

from benchmarks.conftest import report


def test_ablation_granularity_gap(scale, context, workers):
    table = granularity_gap_ablation(scale=scale, context=context, workers=workers)
    report(table)

    assert len(table) == len(GRANULARITIES)
    assert all(0.0 <= row["robust_accuracy"] <= 1.0 for row in table)


def test_ablation_mask_overlap(scale, context, workers):
    table = mask_overlap_analysis(scale=scale, context=context, workers=workers)
    report(table)

    assert len(table) == len(scale.sparsity_grid + scale.high_sparsity_grid)
    assert all(0.0 <= row["overlap"] <= 1.0 for row in table)
    # Robust and natural masks must differ: the robustness prior selects a
    # genuinely different subnetwork, which is the premise of the paper.
    assert any(row["overlap"] < 0.999 for row in table)
