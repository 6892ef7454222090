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
