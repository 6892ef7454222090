"""Learnable mask pruning (LMP): task-specific subnetworks without weight tuning.

LMP keeps the pretrained weights frozen and learns, per downstream task,
which weights to keep (a binary mask optimised with a straight-through
top-k estimator).  This example compares LMP on the robustly and the
naturally pretrained model (mini Fig. 5) and additionally reports how
different the learned mask is from the plain magnitude (OMP) mask — a
measure of how much task-specific information the learned mask encodes.

Run with:  python examples/lmp_learned_masks.py
"""

from repro.core.pipeline import PipelineConfig, RobustTicketPipeline
from repro.data.tasks import downstream_task
from repro.experiments.results import ResultTable
from repro.models.heads import ClassifierHead
from repro.pruning.lmp import LMPConfig, attach_learnable_masks, learn_mask


def learn_task_mask(pipeline, prior, sparsity, task):
    """Run LMP for one prior and return (accuracy, learned mask)."""
    pretrained = pipeline.pretrain(prior)
    backbone = pretrained.build_backbone(pipeline.config.base_width, seed=0)
    backbone.requires_grad_(False)
    model = ClassifierHead(backbone, num_classes=task.num_classes, seed=1)
    attach_learnable_masks(model, sparsity=sparsity, seed=2)
    mask, _ = learn_mask(model, task.train, LMPConfig(sparsity=sparsity, epochs=3, seed=0))

    from repro.training.evaluation import evaluate_accuracy

    return evaluate_accuracy(model, task.test), mask


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
    sparsity = 0.7

    table = ResultTable(f"LMP on {task.name} at {sparsity:.0%} sparsity (weights frozen)")
    omp_masks = {}
    for prior in ("robust", "natural"):
        accuracy, learned_mask = learn_task_mask(pipeline, prior, sparsity, task)
        omp_ticket = pipeline.draw_omp_ticket(prior, sparsity)
        omp_masks[prior] = omp_ticket.mask
        # The learned mask lives under "backbone." names; strip for comparison.
        backbone_mask = learned_mask.strip_prefix("backbone.")
        table.add_row(
            prior=prior,
            lmp_accuracy=accuracy,
            lmp_sparsity=learned_mask.sparsity(),
            overlap_with_omp=backbone_mask.overlap(omp_ticket.mask),
        )

    print()
    print(table.to_text())
    print()
    print("overlap_with_omp < 1 shows the learned mask departs from pure magnitude")
    print("ranking to encode task-specific structure, which is the point of LMP.")


if __name__ == "__main__":
    main()
