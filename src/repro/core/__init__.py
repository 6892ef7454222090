"""The paper's contribution: drawing robust tickets and transferring them.

The central object is the :class:`~repro.core.pipeline.RobustTicketPipeline`:

1. **Pretrain** a dense backbone on the source task with a chosen
   scheme (natural, adversarial/PGD, or randomized smoothing).
2. **Draw a ticket** — a binary mask over the pretrained weights — with
   OMP, (A-)IMP, or LMP, at a target sparsity and granularity.
3. **Transfer** the ticket to a downstream task via whole-model
   finetuning, linear evaluation, or segmentation finetuning.
4. **Evaluate** the transferred model: accuracy, adversarial accuracy,
   corruption accuracy, calibration (ECE/NLL), and OoD ROC-AUC.

"Robust tickets" and "natural tickets" differ only in the pretraining
scheme of step 1, which is exactly the comparison the paper makes.
"""

from repro.core.cache import SweepCache, default_cache_root
from repro.core.parallel import SweepRunner, default_workers
from repro.core.tickets import Ticket
from repro.core.transfer import (
    TransferResult,
    finetune_classification,
    linear_evaluation,
    finetune_segmentation,
)
from repro.core.pipeline import PipelineConfig, RobustTicketPipeline
from repro.core.evaluate import PropertyReport, evaluate_properties

__all__ = [
    "SweepCache",
    "default_cache_root",
    "SweepRunner",
    "default_workers",
    "Ticket",
    "TransferResult",
    "finetune_classification",
    "linear_evaluation",
    "finetune_segmentation",
    "PipelineConfig",
    "RobustTicketPipeline",
    "PropertyReport",
    "evaluate_properties",
]
