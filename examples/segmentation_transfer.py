"""Transferring tickets to dense prediction: segmentation with an FCN head (mini Fig. 7).

Shows that the robustness prior is not classification-specific: the same
masked backbone is attached to a small FCN decoder and finetuned on the
synthetic segmentation task, scored with mean IoU.

Run with:  python examples/segmentation_transfer.py
"""

from repro.core.pipeline import PipelineConfig, RobustTicketPipeline
from repro.data.segmentation import segmentation_task
from repro.experiments.results import ResultTable
from repro.training.trainer import TrainerConfig

SPARSITIES = (0.5, 0.8)


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
    task = segmentation_task(num_classes=4, train_size=160, test_size=64, seed=5)
    config = TrainerConfig(epochs=4, learning_rate=0.02, seed=0)

    table = ResultTable("OMP tickets on synthetic segmentation (mIoU)")
    for sparsity in SPARSITIES:
        robust = pipeline.draw_omp_ticket("robust", sparsity)
        natural = pipeline.draw_omp_ticket("natural", sparsity)
        robust_result = pipeline.transfer_segmentation(robust, task, config=config)
        natural_result = pipeline.transfer_segmentation(natural, task, config=config)
        table.add_row(
            sparsity=sparsity,
            robust_miou=robust_result.score,
            natural_miou=natural_result.score,
            robust_pixel_acc=robust_result.extra["pixel_accuracy"],
            natural_pixel_acc=natural_result.extra["pixel_accuracy"],
        )

    print()
    print(table.to_text())


if __name__ == "__main__":
    main()
