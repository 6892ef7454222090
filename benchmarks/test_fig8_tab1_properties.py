"""Benchmark reproducing Fig. 8 / Tab. I: the full property bundle of IMP tickets."""

from repro.experiments import fig8_properties

from benchmarks.conftest import report


def test_fig8_tab1_properties(scale, context, workers):
    table = fig8_properties.run(scale=scale, context=context, workers=workers)
    report(table)

    # Two arms (robust / natural) per model and sparsity point.
    sparsities = fig8_properties.TAB1_SPARSITIES if scale.name == "paper" else 2
    expected = len(scale.models) * (len(sparsities) if not isinstance(sparsities, int) else sparsities) * 2
    assert len(table) == expected
    for row in table:
        assert 0.0 <= row["accuracy"] <= 1.0
        assert 0.0 <= row["ece"] <= 1.0
        assert row["nll"] >= 0.0
        assert 0.0 <= row["adv_accuracy"] <= row["accuracy"] + 0.1
        assert 0.0 <= row["roc_auc"] <= 1.0

    # Paper claim (Tab. I): robust tickets dominate on adversarial accuracy
    # and are competitive or better on natural accuracy.
    robust = table.select(ticket="robust")
    natural = table.select(ticket="natural")
    mean = lambda rows, key: sum(row[key] for row in rows) / max(len(rows), 1)
    print(f"\nmean Adv-Acc: robust={mean(robust, 'adv_accuracy'):.4f}  natural={mean(natural, 'adv_accuracy'):.4f}")
    print(f"mean Acc    : robust={mean(robust, 'accuracy'):.4f}  natural={mean(natural, 'accuracy'):.4f}")
    assert mean(robust, "adv_accuracy") >= mean(natural, "adv_accuracy") - 0.05
