"""Evaluation metrics used across the paper's experiments.

* classification: top-1 accuracy, expected calibration error (ECE),
  negative log-likelihood (NLL);
* out-of-distribution detection: ROC-AUC of the maximum-softmax-probability
  score;
* segmentation: mean intersection-over-union (mIoU);
* domain gap: Fréchet Inception Distance (FID) computed on features of a
  fixed random convolutional embedder.
"""
