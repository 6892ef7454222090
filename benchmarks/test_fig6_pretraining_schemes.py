"""Benchmark reproducing Fig. 6: natural vs adversarial vs randomized-smoothing pretraining."""

from repro.experiments import fig6_pretraining_schemes

from benchmarks.conftest import report


def test_fig6_pretraining_schemes(scale, context, workers):
    table = fig6_pretraining_schemes.run(scale=scale, context=context, workers=workers)
    report(table)

    assert len(table) == len(scale.tasks) * len(scale.sparsity_grid)
    for row in table:
        for scheme in fig6_pretraining_schemes.SCHEMES:
            assert 0.0 <= row[f"{scheme}_accuracy"] <= 1.0

    # Paper claim (Fig. 6): adversarial > smoothing > natural for ticket
    # transferability; smoothing-pretrained tickets still beat natural ones.
    print(f"\nadversarial vs natural win rate: {table.win_rate('robust_accuracy', 'natural_accuracy'):.2f}")
    print(f"smoothing  vs natural win rate: {table.win_rate('smoothing_accuracy', 'natural_accuracy'):.2f}")
