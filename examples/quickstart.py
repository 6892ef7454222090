"""Quickstart: draw a robust ticket and a natural ticket, then compare transfer.

This is the smallest end-to-end run of the paper's pipeline:

1. pretrain two dense ResNet-18 backbones on the synthetic source task,
   one naturally and one with PGD adversarial training;
2. draw a subnetwork ("ticket") from each by one-shot magnitude pruning
   at 80% sparsity;
3. finetune both tickets on a downstream task and compare accuracy.

Run with:  python examples/quickstart.py
(takes a couple of minutes on a laptop CPU)
"""

from repro.core.pipeline import PipelineConfig, RobustTicketPipeline
from repro.data.tasks import downstream_task
from repro.training.trainer import TrainerConfig


def main() -> None:
    # A small-but-real configuration; raise the sizes for better accuracy.
    config = PipelineConfig(
        model_name="resnet18",
        base_width=8,
        source_classes=12,
        source_train_size=512,
        source_test_size=128,
        pretrain_epochs=4,
        attack_epsilon=0.03,
        attack_steps=4,
        seed=0,
    )
    pipeline = RobustTicketPipeline(config)
    task = downstream_task("cifar10", train_size=256, test_size=160, seed=1)
    sparsity = 0.8

    print("pretraining the adversarially robust dense model ...")
    robust_ticket = pipeline.draw_omp_ticket("robust", sparsity)
    print("pretraining the natural dense model ...")
    natural_ticket = pipeline.draw_omp_ticket("natural", sparsity)

    finetune = TrainerConfig(epochs=4, seed=0)
    print(f"transferring both tickets to task {task.name!r} at sparsity {sparsity:.0%} ...")
    robust_result = pipeline.transfer(robust_ticket, task, mode="finetune", config=finetune)
    natural_result = pipeline.transfer(natural_ticket, task, mode="finetune", config=finetune)

    print()
    print(f"robust ticket  ({robust_ticket.name}):  accuracy = {robust_result.score:.4f}")
    print(f"natural ticket ({natural_ticket.name}): accuracy = {natural_result.score:.4f}")
    gap = robust_result.score - natural_result.score
    print(f"robust - natural gap: {gap:+.4f}")
    if gap > 0:
        print("-> the robustness prior produced a more transferable subnetwork.")
    else:
        print("-> at this tiny scale the natural ticket kept up; increase the "
              "pretraining budget (epochs / dataset size) to sharpen the contrast.")


if __name__ == "__main__":
    main()
