"""Benchmark reproducing Fig. 2: OMP tickets under linear evaluation."""

from repro.experiments import fig2_omp_linear

from benchmarks.conftest import report


def test_fig2_omp_linear(scale, context, workers):
    table = fig2_omp_linear.run(scale=scale, context=context, workers=workers)
    report(table)

    expected_points = len(scale.models) * len(scale.tasks) * len(scale.sparsity_grid)
    assert len(table) == expected_points
    assert all(0.0 <= row["robust_accuracy"] <= 1.0 for row in table)

    # Paper claim (Fig. 2): the robust-ticket advantage is largest under
    # linear evaluation, where the frozen features must absorb the domain gap.
    print(f"\nrobust-vs-natural win rate: {table.win_rate('robust_accuracy', 'natural_accuracy'):.2f}")
    print(f"mean accuracy gap (robust - natural): {table.mean_gap('robust_accuracy', 'natural_accuracy'):+.4f}")
