"""Pruning schemes used to draw tickets from pretrained models.

The paper benchmarks three schemes (Sec. II-B):

* **OMP** — one-shot magnitude pruning of the pretrained weights
  (:mod:`repro.pruning.omp`), at unstructured or structured
  granularities (:mod:`repro.pruning.granularity`).
* **IMP / A-IMP** — iterative magnitude pruning with a natural or
  adversarial (minimax) training objective between pruning iterations
  (:mod:`repro.pruning.imp`).
* **LMP** — learnable mask pruning: a task-specific binary mask is
  learned with a straight-through top-k estimator while the pretrained
  weights stay frozen (:mod:`repro.pruning.lmp`).

Masks are represented by :class:`repro.pruning.mask.PruningMask`, a
name-indexed collection of binary arrays that can be applied to any
model with the same architecture.
"""
