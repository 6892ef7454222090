"""Benchmark reproducing Fig. 4: A-IMP (robust) vs IMP (natural) tickets, US and DS."""

from repro.experiments import fig4_imp

from benchmarks.conftest import report


def test_fig4_imp(scale, context, workers):
    table = fig4_imp.run(scale=scale, context=context, workers=workers)
    report(table)

    assert len(table) == len(scale.models) * 1 * len(scale.sparsity_grid)
    for row in table:
        for column in ("robust_us", "robust_ds", "natural_us", "natural_ds"):
            assert 0.0 <= row[column] <= 1.0

    # Paper claims (Fig. 4): robust tickets generally outperform natural ones;
    # DS tickets catch up with US tickets as sparsity grows.
    print(f"\nrobust US vs natural US win rate: {table.win_rate('robust_us', 'natural_us'):.2f}")
    print(f"robust DS vs natural DS win rate: {table.win_rate('robust_ds', 'natural_ds'):.2f}")
