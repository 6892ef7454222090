"""The :class:`Ticket` object: a mask plus the pretrained weights it indexes.

A ticket is the paper's ``f(.; m ⊙ θ_pre)``: a binary mask ``m`` drawn
from a pretrained dense model with parameters ``θ_pre``.  Materialising
the ticket builds a fresh backbone, loads ``θ_pre``, and applies the
mask — the resulting subnetwork is what gets transferred downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.models.registry import build_model
from repro.models.resnet import ResNet
from repro.pruning.mask import PruningMask
from repro.utils.checkpoint import load_bundle, members, save_bundle, verify_dtypes

_HEADER_KEY = "__ticket_header__"


@dataclass
class Ticket:
    """A subnetwork drawn from a pretrained model.

    Attributes
    ----------
    scheme:
        How the mask was drawn: ``"omp"``, ``"imp"``, ``"aimp"`` or ``"lmp"``.
    prior:
        The pretraining scheme of the dense model the mask indexes:
        ``"natural"``, ``"adversarial"`` or ``"smoothing"``.  Tickets
        with an adversarial (or smoothing) prior are the paper's
        *robust tickets*; natural-prior tickets are *natural tickets*.
    sparsity:
        Fraction of pruned backbone weights (realised, not requested).
    mask:
        The binary mask over backbone parameters.
    backbone_state:
        The pretrained dense weights ``θ_pre``.
    granularity:
        Sparsity pattern of the mask (unstructured / row / kernel / channel).
    metadata:
        Free-form extra information (e.g. which task IMP was run on).
    """

    scheme: str
    prior: str
    model_name: str
    base_width: int
    sparsity: float
    mask: PruningMask
    backbone_state: Dict[str, np.ndarray]
    granularity: str = "unstructured"
    metadata: Dict[str, str] = field(default_factory=dict)

    @property
    def is_robust(self) -> bool:
        """Whether this is a robust ticket (drawn with a robustness prior)."""
        return self.prior in ("adversarial", "smoothing")

    @property
    def name(self) -> str:
        """A readable identifier, e.g. ``robust-omp-s0.70``."""
        kind = "robust" if self.is_robust else "natural"
        return f"{kind}-{self.scheme}-s{self.sparsity:.2f}"

    def materialise(self, seed: int = 0) -> ResNet:
        """Build a backbone carrying ``m ⊙ θ_pre``."""
        backbone = build_model(self.model_name, base_width=self.base_width, seed=seed)
        backbone.load_state_dict(self.backbone_state)
        self.mask.apply(backbone, strict=False)
        return backbone

    def with_mask(self, mask: PruningMask, scheme: Optional[str] = None) -> "Ticket":
        """A copy of this ticket carrying a different mask (same ``θ_pre``)."""
        return Ticket(
            scheme=scheme if scheme is not None else self.scheme,
            prior=self.prior,
            model_name=self.model_name,
            base_width=self.base_width,
            sparsity=mask.sparsity(),
            mask=mask,
            backbone_state=self.backbone_state,
            granularity=self.granularity,
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Save the ticket (mask + pretrained weights + metadata) to an ``.npz`` bundle.

        Weights and mask arrays are stored under ``weight./`` and ``mask./``
        prefixes; scalar fields travel in a JSON header member, so a single
        file is enough to reconstruct the ticket elsewhere.  The header
        also records the exact dtype of every stored array, and
        :meth:`load` verifies them, so a ticket saved from a ``float32``
        engine can never silently come back in a different precision.
        The write is atomic (see :mod:`repro.utils.checkpoint`): a killed
        process cannot leave a truncated ticket at ``path``.
        """
        arrays = {f"weight./{name}": value for name, value in self.backbone_state.items()}
        arrays.update({f"mask./{name}": value for name, value in self.mask.as_dict().items()})
        header = {
            "scheme": self.scheme,
            "prior": self.prior,
            "model_name": self.model_name,
            "base_width": self.base_width,
            "sparsity": self.sparsity,
            "granularity": self.granularity,
            "metadata": self.metadata,
            "dtypes": {name: str(np.asarray(value).dtype) for name, value in arrays.items()},
        }
        return save_bundle(path, arrays, header, _HEADER_KEY)

    @classmethod
    def load(cls, path: str) -> "Ticket":
        """Load a ticket previously written by :meth:`save`."""
        header, arrays = load_bundle(path, _HEADER_KEY)
        # Tickets written since the header gained ``dtypes`` carry the
        # exact dtype of every array; verify the archive round-tripped
        # them so precision changes can never slip through silently.
        verify_dtypes(header.get("dtypes", {}), arrays, path)
        return cls(
            scheme=header["scheme"],
            prior=header["prior"],
            model_name=header["model_name"],
            base_width=int(header["base_width"]),
            sparsity=float(header["sparsity"]),
            mask=PruningMask(members(arrays, "mask./")),
            backbone_state=members(arrays, "weight./"),
            granularity=header["granularity"],
            metadata=dict(header["metadata"]),
        )
