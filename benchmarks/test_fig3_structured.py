"""Benchmark reproducing Fig. 3: structured robust tickets (row / kernel / channel)."""

from repro.experiments import fig3_structured

from benchmarks.conftest import report


def test_fig3_structured(scale, context, workers):
    table = fig3_structured.run(scale=scale, context=context, workers=workers)
    report(table)

    expected_points = (
        len(scale.tasks)
        * len(fig3_structured.STRUCTURED_GRANULARITIES)
        * len(scale.structured_sparsity_grid)
        * 2  # finetune + linear evaluation
    )
    assert len(table) == expected_points
    assert set(table.column("granularity")) == set(fig3_structured.STRUCTURED_GRANULARITIES)

    # Paper claim (Fig. 3): robust tickets win across structured patterns, with
    # smaller gains at coarser granularity.  Report the per-granularity gaps.
    for granularity in fig3_structured.STRUCTURED_GRANULARITIES:
        gap = table.select(granularity=granularity).mean_gap("robust_accuracy", "natural_accuracy")
        print(f"\nmean robust-natural gap at {granularity} granularity: {gap:+.4f}")
