"""Fréchet distance between datasets (the FID stand-in of Tab. II).

The paper measures FID between ImageNet and each downstream dataset on
Inception-v3 features.  No pretrained Inception network is available
offline, so the embedder here is a **fixed randomly-initialised
convolutional network**: random convolutional features are a classic
non-trivial image descriptor, and because the same fixed embedder is
applied to all datasets the *ordering* of domain gaps — which is the
only way the paper uses FID — is preserved.  A raw-pixel-statistics
fallback is also provided.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.models.resnet import resnet18
from repro.tensor.dtypes import ACCUMULATION_DTYPE
from repro.training.evaluation import predict_logits


class RandomFeatureEmbedder:
    """A fixed, randomly-initialised ResNet-18 used as a feature extractor."""

    def __init__(self, seed: int = 7, base_width: int = 8) -> None:
        self._backbone = resnet18(base_width=base_width, seed=seed)
        self._backbone.eval()

    @property
    def feature_dim(self) -> int:
        return self._backbone.out_features

    def embed(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Pooled convolutional features for NCHW images."""
        return predict_logits(self._backbone, images, batch_size, fused=False)


def frechet_distance(
    mean_a: np.ndarray, cov_a: np.ndarray, mean_b: np.ndarray, cov_b: np.ndarray
) -> float:
    """Fréchet distance between two Gaussians ``N(mean_a, cov_a)`` and ``N(mean_b, cov_b)``.

    ``d^2 = ||mu_a - mu_b||^2 + Tr(C_a + C_b - 2 (C_a C_b)^{1/2})``
    """
    mean_a = np.atleast_1d(np.asarray(mean_a, dtype=ACCUMULATION_DTYPE))
    mean_b = np.atleast_1d(np.asarray(mean_b, dtype=ACCUMULATION_DTYPE))
    cov_a = np.atleast_2d(np.asarray(cov_a, dtype=ACCUMULATION_DTYPE))
    cov_b = np.atleast_2d(np.asarray(cov_b, dtype=ACCUMULATION_DTYPE))
    if mean_a.shape != mean_b.shape:
        raise ValueError("mean vectors must have the same shape")
    from scipy import linalg

    difference = mean_a - mean_b
    offset = np.eye(cov_a.shape[0]) * 1e-8
    covariance_product = linalg.sqrtm((cov_a + offset) @ (cov_b + offset))
    if np.iscomplexobj(covariance_product):
        covariance_product = covariance_product.real
    distance_squared = (
        float(difference @ difference)
        + float(np.trace(cov_a))
        + float(np.trace(cov_b))
        - 2.0 * float(np.trace(covariance_product))
    )
    return float(max(distance_squared, 0.0))


def _feature_statistics(features: np.ndarray) -> tuple:
    mean = features.mean(axis=0)
    covariance = np.cov(features, rowvar=False)
    return mean, np.atleast_2d(covariance)


def fid_between_datasets(
    reference: ArrayDataset,
    candidate: ArrayDataset,
    embedder: Optional[RandomFeatureEmbedder] = None,
    max_samples: int = 1000,
    use_pixels: bool = False,
    seed: int = 0,
) -> float:
    """FID-style Fréchet distance between two image datasets.

    Parameters
    ----------
    embedder:
        Feature extractor; a shared instance should be reused across
        comparisons so the distances are on the same scale.
    max_samples:
        Subsample each dataset to this many images (the paper samples
        8000 ImageNet images).
    use_pixels:
        Skip the embedder and compute statistics on flattened pixels
        (fast fallback used by the smoke-scale benchmarks).
    """
    rng = np.random.default_rng(seed)

    def select(dataset: ArrayDataset) -> np.ndarray:
        images = dataset.images
        if len(images) > max_samples:
            indices = rng.choice(len(images), size=max_samples, replace=False)
            images = images[indices]
        return images

    images_reference = select(reference)
    images_candidate = select(candidate)

    if use_pixels:
        features_reference = images_reference.reshape(len(images_reference), -1)
        features_candidate = images_candidate.reshape(len(images_candidate), -1)
    else:
        embedder = embedder if embedder is not None else RandomFeatureEmbedder()
        features_reference = embedder.embed(images_reference)
        features_candidate = embedder.embed(images_candidate)

    mean_reference, cov_reference = _feature_statistics(features_reference)
    mean_candidate, cov_candidate = _feature_statistics(features_candidate)
    return frechet_distance(mean_reference, cov_reference, mean_candidate, cov_candidate)
