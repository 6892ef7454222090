"""Ablation benchmark: how the adversarial pretraining strength shapes transfer."""

from repro.experiments.ablations import perturbation_strength_ablation

from benchmarks.conftest import report

#: Reduced epsilon grid so the ablation pretrains only two extra dense models.
EPSILONS = (0.0, 0.03)


def test_ablation_perturbation_strength(scale, workers):
    table = perturbation_strength_ablation(scale=scale, epsilons=EPSILONS, workers=workers)
    report(table)

    assert len(table) == len(EPSILONS)
    assert all(0.0 <= row["downstream_accuracy"] <= 1.0 for row in table)
    assert all(0.0 <= row["source_accuracy"] <= 1.0 for row in table)
    # epsilon = 0 degenerates to natural pretraining; the non-zero row is the robust prior.
    assert table.rows[0]["epsilon"] == 0.0
