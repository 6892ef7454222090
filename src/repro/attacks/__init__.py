"""Adversarial attacks and randomized smoothing.

* :func:`fgsm_attack` / :func:`pgd_attack` craft L-infinity bounded
  perturbations (Goodfellow et al., 2014; Madry et al., 2017).  PGD is
  both the attack used to *measure* adversarial accuracy and the inner
  maximisation of adversarial training.
* :class:`RandomizedSmoothing` implements Gaussian-noise smoothing
  (Cohen et al., 2019), the alternative robust pretraining scheme used
  in Fig. 6 of the paper.
"""
