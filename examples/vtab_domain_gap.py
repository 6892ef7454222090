"""When do robust tickets win?  Domain gap (FID) vs per-task winner (mini Fig. 9 / Tab. II).

Runs linear evaluation of robust and natural OMP tickets on a handful of
tasks from the VTAB-like suite, measures each task's FID against the
source dataset, and reports the winner per task.  The paper's finding is
that robust tickets win exactly where the domain gap (FID) is large.

Run with:  python examples/vtab_domain_gap.py
"""

from repro.core.pipeline import PipelineConfig, RobustTicketPipeline
from repro.data.tasks import downstream_task
from repro.experiments.results import ResultTable
from repro.metrics.fid import RandomFeatureEmbedder, fid_between_datasets

#: A spread of tasks from very dissimilar to very similar to the source.
TASKS = ("cifar10", "pets", "food", "sun397", "caltech256")


def main() -> None:
    pipeline = RobustTicketPipeline(
        PipelineConfig(
            model_name="resnet18",
            base_width=8,
            source_classes=12,
            source_train_size=512,
            pretrain_epochs=4,
            seed=0,
        )
    )
    sparsity = 0.8
    robust = pipeline.draw_omp_ticket("robust", sparsity)
    natural = pipeline.draw_omp_ticket("natural", sparsity)
    embedder = RandomFeatureEmbedder(seed=13, base_width=8)

    table = ResultTable(f"Domain gap vs winner at {sparsity:.0%} sparsity (linear evaluation)")
    for name in TASKS:
        task = downstream_task(name, train_size=192, test_size=128, seed=3)
        fid = fid_between_datasets(pipeline.source.test, task.test, embedder=embedder, max_samples=200)
        robust_score = pipeline.transfer(robust, task, mode="linear").score
        natural_score = pipeline.transfer(natural, task, mode="linear").score
        gap = robust_score - natural_score
        winner = "robust" if gap > 0.01 else ("natural" if gap < -0.01 else "match")
        table.add_row(task=name, fid=fid, robust=robust_score, natural=natural_score, winner=winner)

    table.rows.sort(key=lambda row: -row["fid"])
    print()
    print(table.to_text())
    print()
    print("Tasks are sorted by decreasing FID (domain gap to the source). The paper's")
    print("Tab. II predicts 'robust' winners at the top of this table and 'match' or")
    print("'natural' at the bottom.")


if __name__ == "__main__":
    main()
