"""Randomized smoothing (Cohen et al., 2019).

Used in two places:

* as an alternative **robust pretraining** scheme (Fig. 6): the model is
  trained on Gaussian-noise-augmented inputs, the standard way to make a
  base classifier suitable for smoothing;
* as a smoothed classifier at evaluation time, with Monte-Carlo class
  counts and a certified L2 radius following the Cohen et al. bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor, default_dtype, no_grad


def gaussian_augment(
    images: np.ndarray, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Add isotropic Gaussian noise of standard deviation ``sigma``."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return np.asarray(images, dtype=default_dtype()).copy()
    images = np.asarray(images, dtype=default_dtype())
    noise = rng.normal(0.0, sigma, size=images.shape).astype(images.dtype, copy=False)
    return np.clip(images + noise, 0.0, 1.0)


@dataclass
class SmoothedPrediction:
    """Result of smoothed classification for one input."""

    prediction: int
    certified_radius: float
    abstained: bool


class RandomizedSmoothing:
    """Monte-Carlo smoothed classifier wrapper around a base model."""

    def __init__(
        self,
        model: Module,
        sigma: float = 0.12,
        num_samples: int = 32,
        alpha: float = 0.05,
    ) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive for smoothing")
        if num_samples < 2:
            raise ValueError("num_samples must be at least 2")
        self.model = model
        self.sigma = float(sigma)
        self.num_samples = int(num_samples)
        self.alpha = float(alpha)

    def _class_counts(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        batch = np.repeat(image[None, ...], self.num_samples, axis=0)
        noisy = gaussian_augment(batch, self.sigma, rng)
        self.model.eval()
        with no_grad():
            logits = self.model(Tensor(noisy)).data
        predictions = logits.argmax(axis=1)
        counts = np.bincount(predictions, minlength=logits.shape[1])
        return counts

    def predict(self, image: np.ndarray, rng: Optional[np.random.Generator] = None) -> SmoothedPrediction:
        """Smoothed prediction and certified L2 radius for a single image (CHW)."""
        rng = rng if rng is not None else np.random.default_rng()
        counts = self._class_counts(np.asarray(image, dtype=default_dtype()), rng)
        top_class = int(counts.argmax())
        top_count = int(counts[top_class])

        # Lower confidence bound on the top-class probability (Clopper-Pearson).
        lower_bound = _binomial_lower_bound(top_count, self.num_samples, self.alpha)
        if lower_bound <= 0.5:
            return SmoothedPrediction(prediction=top_class, certified_radius=0.0, abstained=True)
        from scipy import stats

        radius = self.sigma * stats.norm.ppf(lower_bound)
        return SmoothedPrediction(prediction=top_class, certified_radius=float(radius), abstained=False)

    def certify_batch(
        self, images: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vector of predictions and certified radii for a batch of images."""
        rng = rng if rng is not None else np.random.default_rng()
        predictions = np.empty(len(images), dtype=np.int64)
        radii = np.empty(len(images))
        for index, image in enumerate(images):
            result = self.predict(image, rng)
            predictions[index] = result.prediction if not result.abstained else -1
            radii[index] = result.certified_radius
        return predictions, radii


def certified_accuracy_curve(
    smoother: "RandomizedSmoothing",
    images: np.ndarray,
    labels: np.ndarray,
    radii: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2),
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Certified accuracy at each L2 radius (the standard smoothing curve).

    A sample counts as certified-correct at radius ``r`` when the smoothed
    prediction matches the label, does not abstain, and its certified
    radius is at least ``r``.  This extends the paper's Fig. 6 comparison
    with the metric randomized smoothing is usually judged by.
    """
    rng = rng if rng is not None else np.random.default_rng()
    predictions, certified_radii = smoother.certify_batch(images, rng)
    labels = np.asarray(labels, dtype=np.int64)
    correct = predictions == labels
    return {
        float(radius): float((correct & (certified_radii >= radius)).mean())
        for radius in radii
    }


def _binomial_lower_bound(successes: int, trials: int, alpha: float) -> float:
    """One-sided Clopper-Pearson lower confidence bound on a binomial proportion."""
    if successes == 0:
        return 0.0
    if successes == trials:
        return float(alpha ** (1.0 / trials))
    from scipy import stats

    return float(stats.beta.ppf(alpha, successes, trials - successes + 1))
