"""Common-corruption transforms (the ImageNet-C stand-in).

The corruption accuracy ("Crpt-Acc") reported in Fig. 8 of the paper is
measured on inputs passed through these transforms at a given severity.
Severities are integers 1-5, higher meaning stronger corruption, as in
the ImageNet-C protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.tensor import default_dtype


def _severity_scale(severity: int, values: List[float]) -> float:
    if not 1 <= severity <= 5:
        raise ValueError(f"severity must be in 1..5, got {severity}")
    return values[severity - 1]


def gaussian_noise(images: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    """Additive white Gaussian noise."""
    std = _severity_scale(severity, [0.04, 0.08, 0.12, 0.18, 0.25])
    return np.clip(images + rng.normal(0.0, std, size=images.shape), 0.0, 1.0)


def gaussian_blur(images: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian blur applied per channel."""
    sigma = _severity_scale(severity, [0.4, 0.6, 0.8, 1.1, 1.5])
    from scipy import ndimage

    blurred = ndimage.gaussian_filter(images, sigma=(0, 0, sigma, sigma))
    return np.clip(blurred, 0.0, 1.0)


def contrast(images: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    """Contrast reduction towards the per-image mean."""
    factor = _severity_scale(severity, [0.75, 0.6, 0.45, 0.3, 0.2])
    means = images.mean(axis=(2, 3), keepdims=True)
    return np.clip((images - means) * factor + means, 0.0, 1.0)


def pixelate(images: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    """Downsample then nearest-neighbour upsample."""
    factor = int(_severity_scale(severity, [1, 2, 2, 4, 4]))
    if factor <= 1:
        return images.copy()
    height = images.shape[2]
    down = images[:, :, ::factor, ::factor]
    up = down.repeat(factor, axis=2).repeat(factor, axis=3)
    return np.clip(up[:, :, :height, : images.shape[3]], 0.0, 1.0)


def brightness(images: np.ndarray, severity: int, rng: np.random.Generator) -> np.ndarray:
    """Additive brightness shift."""
    shift = _severity_scale(severity, [0.08, 0.14, 0.2, 0.28, 0.35])
    return np.clip(images + shift, 0.0, 1.0)


_CORRUPTIONS: Dict[str, Callable[[np.ndarray, int, np.random.Generator], np.ndarray]] = {
    "gaussian_noise": gaussian_noise,
    "gaussian_blur": gaussian_blur,
    "contrast": contrast,
    "pixelate": pixelate,
    "brightness": brightness,
}


def available_corruptions() -> List[str]:
    """Names of all implemented corruptions."""
    return sorted(_CORRUPTIONS)


def corrupt(
    images: np.ndarray,
    corruption: str,
    severity: int = 3,
    seed: int = 0,
) -> np.ndarray:
    """Apply a named corruption at the given severity to NCHW images in [0, 1]."""
    if corruption not in _CORRUPTIONS:
        raise KeyError(f"unknown corruption {corruption!r}; available: {available_corruptions()}")
    rng = np.random.default_rng(seed)
    return _CORRUPTIONS[corruption](np.asarray(images, dtype=default_dtype()), severity, rng)
