"""Structured robust tickets: row-, kernel-, and channel-wise sparsity (mini Fig. 3).

Structured patterns matter for real hardware: pruning whole kernels or
output channels maps directly onto smaller dense operations.  This
example draws robust and natural tickets at each granularity and shows
how much of the robustness-prior advantage survives coarser patterns.

Run with:  python examples/structured_pruning.py
"""

from repro.core.pipeline import PipelineConfig, RobustTicketPipeline
from repro.data.tasks import downstream_task
from repro.experiments.results import ResultTable
from repro.pruning.granularity import GRANULARITIES
from repro.training.trainer import TrainerConfig


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
    task = downstream_task("cifar100", train_size=256, test_size=160, seed=2)
    finetune = TrainerConfig(epochs=3, seed=0)
    sparsity = 0.5

    table = ResultTable(f"Structured tickets on {task.name} at {sparsity:.0%} sparsity")
    for granularity in GRANULARITIES:
        robust = pipeline.draw_omp_ticket("robust", sparsity, granularity=granularity)
        natural = pipeline.draw_omp_ticket("natural", sparsity, granularity=granularity)
        robust_score = pipeline.transfer(robust, task, mode="finetune", config=finetune).score
        natural_score = pipeline.transfer(natural, task, mode="finetune", config=finetune).score
        table.add_row(
            granularity=granularity,
            realised_sparsity=robust.sparsity,
            robust=robust_score,
            natural=natural_score,
            gap=robust_score - natural_score,
        )

    print()
    print(table.to_text())
    print()
    print("Expected trend (paper Fig. 3): the robust-vs-natural gap shrinks as the")
    print("pattern gets coarser (unstructured > row > kernel > channel), because")
    print("coarse groups average away the weights that carry the robustness prior.")


if __name__ == "__main__":
    main()
