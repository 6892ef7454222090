"""Training loops: natural, adversarial (PGD), and noise-augmented (smoothing).

All trainers share the :class:`repro.training.trainer.Trainer` interface
and accept an optional :class:`~repro.pruning.mask.PruningMask`; when a
mask is supplied the pruned weights are pinned to zero throughout
training, which is how tickets are finetuned without regrowing.
"""
