"""Sparsity sweep on the CIFAR-like downstream tasks (a miniature Fig. 1 / Fig. 2).

Draws robust and natural OMP tickets at several sparsity ratios and
compares them under both whole-model finetuning and linear evaluation,
printing one table per transfer mode.

Run with:  python examples/transfer_cifar.py
"""

from repro.core.pipeline import PipelineConfig, RobustTicketPipeline
from repro.data.tasks import downstream_task
from repro.experiments.results import ResultTable
from repro.training.trainer import TrainerConfig

SPARSITIES = (0.5, 0.8, 0.95)


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
    task = downstream_task("cifar10", train_size=256, test_size=160, seed=1)
    finetune = TrainerConfig(epochs=3, seed=0)

    finetune_table = ResultTable("OMP tickets on cifar10 — whole-model finetuning")
    linear_table = ResultTable("OMP tickets on cifar10 — linear evaluation")

    for sparsity in SPARSITIES:
        robust = pipeline.draw_omp_ticket("robust", sparsity)
        natural = pipeline.draw_omp_ticket("natural", sparsity)

        robust_ft = pipeline.transfer(robust, task, mode="finetune", config=finetune).score
        natural_ft = pipeline.transfer(natural, task, mode="finetune", config=finetune).score
        finetune_table.add_row(
            sparsity=sparsity, robust=robust_ft, natural=natural_ft, gap=robust_ft - natural_ft
        )

        robust_lin = pipeline.transfer(robust, task, mode="linear").score
        natural_lin = pipeline.transfer(natural, task, mode="linear").score
        linear_table.add_row(
            sparsity=sparsity, robust=robust_lin, natural=natural_lin, gap=robust_lin - natural_lin
        )

    print()
    print(finetune_table.to_text())
    print()
    print(linear_table.to_text())


if __name__ == "__main__":
    main()
