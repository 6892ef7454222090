"""Binary pruning masks keyed by fully-qualified parameter name.

A :class:`PruningMask` is architecture-bound through parameter names:
any model exposing the same ``named_parameters()`` names and shapes can
have the mask applied, which is what allows a ticket drawn from a
pretrained model on the source task to be re-applied after the weights
are reloaded for a downstream task.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.nn.module import Module
from repro.pruning.granularity import GRANULARITIES, expand_group_mask, group_reduce_scores
from repro.tensor import sparse as _sparse


def prunable_parameter_names(
    model: Module, include_head: bool = False, head_prefixes: Iterable[str] = ("fc", "head", "classifier")
) -> List[str]:
    """Names of parameters eligible for pruning.

    Only weight matrices/tensors (ndim >= 2) are pruned; biases and
    batch-norm affine parameters are kept dense, following standard
    lottery-ticket practice.  Task-head parameters are excluded by
    default because the head is re-initialised for each downstream task.
    """
    names = []
    for name, parameter in model.named_parameters():
        if parameter.data.ndim < 2:
            continue
        if not include_head and any(part in head_prefixes for part in name.split(".")):
            continue
        names.append(name)
    return names


class PruningMask:
    """A collection of binary masks, one per pruned parameter.

    Masks are stored as ``uint8`` arrays (not float64): they multiply
    cleanly into weights/gradients of any compute dtype without forcing
    a promotion to double precision, and they are 8x smaller on disk and
    in memory when sweeping sparsity grids.
    """

    def __init__(self, masks: Dict[str, np.ndarray]) -> None:
        self._masks: Dict[str, np.ndarray] = {}
        self._all_ones: set = set()
        for name, mask in masks.items():
            array = np.asarray(mask)
            if not np.all((array == 0) | (array == 1)):
                raise ValueError(f"mask for {name!r} is not binary")
            self._masks[name] = array.astype(np.uint8, copy=False)
            if array.all():
                # Recorded once here so the hot ``apply`` path can skip
                # the multiply for untouched layers without re-scanning
                # the mask every optimizer step.
                self._all_ones.add(name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._masks

    def __getitem__(self, name: str) -> np.ndarray:
        return self._masks[name]

    def names(self) -> List[str]:
        return sorted(self._masks)

    def as_dict(self) -> Dict[str, np.ndarray]:
        return {name: mask.copy() for name, mask in self._masks.items()}

    def sparsity(self) -> float:
        """Overall fraction of masked-out (zero) weights."""
        total = sum(mask.size for mask in self._masks.values())
        kept = sum(int(mask.sum()) for mask in self._masks.values())
        return 1.0 - kept / total if total else 0.0

    def per_layer_sparsity(self) -> Dict[str, float]:
        """Fraction of zeros per masked parameter."""
        return {
            name: 1.0 - float(mask.sum()) / mask.size for name, mask in self._masks.items()
        }

    def num_remaining(self) -> int:
        """Number of weights kept (mask value 1) across all layers."""
        return int(sum(mask.sum() for mask in self._masks.values()))

    # ------------------------------------------------------------------
    # Renaming
    # ------------------------------------------------------------------
    def add_prefix(self, prefix: str) -> "PruningMask":
        """Return a copy whose parameter names are prefixed with ``prefix``.

        Used when a mask drawn on a bare backbone must be applied to a
        wrapper model (e.g. ``ClassifierHead``) where the backbone lives
        under an attribute such as ``backbone.``.
        """
        return PruningMask({f"{prefix}{name}": mask for name, mask in self._masks.items()})

    def strip_prefix(self, prefix: str) -> "PruningMask":
        """Return a copy with ``prefix`` removed from every parameter name.

        Names that do not start with ``prefix`` (e.g. a task head that was
        accidentally included) are dropped, since they cannot belong to
        the backbone the mask will be re-applied to.
        """
        return PruningMask(
            {
                name[len(prefix) :]: mask
                for name, mask in self._masks.items()
                if name.startswith(prefix)
            }
        )

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def intersect(self, other: "PruningMask") -> "PruningMask":
        """Elementwise AND of two masks over their common parameters.

        Raises :class:`ValueError` when the masks share no parameter
        names: an empty intersection almost always means a prefix
        mismatch (e.g. one mask drawn on a bare backbone and one on a
        head-wrapped model), and silently returning an empty mask would
        make every downstream sparsity/overlap statistic meaningless.
        """
        common = set(self._masks) & set(other._masks)
        if not common:
            raise ValueError(
                "masks share no parameter names; check for a prefix mismatch "
                "(see PruningMask.add_prefix / strip_prefix)"
            )
        return PruningMask({name: self._masks[name] * other._masks[name] for name in common})

    def overlap(self, other: "PruningMask") -> float:
        """Jaccard overlap of the kept-weight sets of two masks.

        Masks over disjoint parameter sets (or with empty kept sets)
        have no overlap and score ``0.0``.
        """
        intersection = 0
        union = 0
        for name in set(self._masks) & set(other._masks):
            a = self._masks[name]
            b = other._masks[name]
            intersection += int((a & b).sum())
            union += int((a | b).sum())
        return intersection / union if union else 0.0

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, model: Module, strict: bool = True) -> None:
        """Zero out masked weights of ``model`` in place.

        The multiply writes into the existing parameter buffer
        (``np.multiply(..., out=...)``): re-applying a mask every
        optimizer step — which the trainer does to stop pruned weights
        regrowing — allocates nothing.  All-ones masks (common at low
        sparsity) skip the multiply entirely: it would be a full-tensor
        read/write that changes no value.
        """
        parameters = dict(model.named_parameters())
        for name, mask in self._masks.items():
            if name not in parameters:
                if strict:
                    raise KeyError(f"model has no parameter named {name!r}")
                continue
            parameter = parameters[name]
            if parameter.shape != mask.shape:
                raise ValueError(
                    f"mask shape {mask.shape} does not match parameter {name!r} shape {parameter.shape}"
                )
            if name in self._all_ones:
                continue
            if parameter.data.flags.writeable:
                np.multiply(parameter.data, mask, out=parameter.data)
            else:
                parameter.data = parameter.data * mask
            # The buffer's sparsity pattern changed in place: any CSR
            # conversion cached for it no longer matches the bytes.
            _sparse.invalidate(parameter.data)

    def apply_to_gradients(self, model: Module) -> None:
        """Zero out gradients of masked weights (keeps pruned weights at zero).

        Masks in place: backward stores every parameter's gradient as
        an array of its own (:meth:`repro.tensor.Tensor._accumulate`).
        """
        parameters = dict(model.named_parameters())
        for name, mask in self._masks.items():
            if name in self._all_ones:
                continue
            parameter = parameters.get(name)
            if parameter is not None and parameter.grad is not None:
                np.multiply(parameter.grad, mask, out=parameter.grad)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return self.as_dict()

    @classmethod
    def from_state_dict(cls, state: Dict[str, np.ndarray]) -> "PruningMask":
        return cls(state)

    @classmethod
    def dense(cls, model: Module, parameter_names: Optional[Iterable[str]] = None) -> "PruningMask":
        """An all-ones mask over the prunable parameters of ``model``."""
        names = list(parameter_names) if parameter_names is not None else prunable_parameter_names(model)
        parameters = dict(model.named_parameters())
        return cls({name: np.ones(parameters[name].shape, dtype=np.uint8) for name in names})


def magnitude_mask(
    model: Module,
    sparsity: float,
    granularity: str = "unstructured",
    parameter_names: Optional[Iterable[str]] = None,
    scope: str = "global",
) -> PruningMask:
    """Compute a magnitude-based mask at the requested sparsity.

    Parameters
    ----------
    sparsity:
        Target fraction of weights to remove, in ``[0, 1)``.
    granularity:
        One of :data:`repro.pruning.granularity.GRANULARITIES`.
    scope:
        ``"global"`` ranks all groups across layers jointly (the paper's
        default); ``"layerwise"`` prunes each layer to the same ratio.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    if scope not in ("global", "layerwise"):
        raise ValueError(f"scope must be 'global' or 'layerwise', got {scope!r}")

    names = list(parameter_names) if parameter_names is not None else prunable_parameter_names(model)
    parameters = dict(model.named_parameters())
    scores = {name: group_reduce_scores(parameters[name].data, granularity) for name in names}

    masks: Dict[str, np.ndarray] = {}
    if scope == "layerwise":
        for name in names:
            keep = _keep_flags(
                scores[name].reshape(-1),
                _group_sizes(parameters[name].data, scores[name]),
                sparsity,
            )
            group_mask = keep.reshape(scores[name].shape).astype(np.uint8)
            masks[name] = expand_group_mask(group_mask, parameters[name].shape, granularity)
        return PruningMask(masks)

    # Global scope: rank all groups across layers jointly, with each group
    # weighted by the number of scalar weights it controls so the overall
    # weight-level sparsity matches the target even when layer shapes differ.
    all_scores = np.concatenate([scores[name].reshape(-1) for name in names])
    all_sizes = np.concatenate(
        [np.full(scores[name].size, _group_size(parameters[name].data, scores[name])) for name in names]
    )
    keep = _keep_flags(all_scores, all_sizes, sparsity)
    offset = 0
    for name in names:
        count = scores[name].size
        group_mask = keep[offset : offset + count].reshape(scores[name].shape).astype(np.uint8)
        masks[name] = expand_group_mask(group_mask, parameters[name].shape, granularity)
        offset += count
    return PruningMask(masks)


def apply_mask(model: Module, mask: PruningMask) -> None:
    """Convenience wrapper for :meth:`PruningMask.apply`."""
    mask.apply(model)


def mask_gradients(model: Module, mask: PruningMask) -> None:
    """Convenience wrapper for :meth:`PruningMask.apply_to_gradients`."""
    mask.apply_to_gradients(model)


def _group_size(weights: np.ndarray, scores: np.ndarray) -> float:
    return weights.size / max(scores.size, 1)


def _group_sizes(weights: np.ndarray, scores: np.ndarray) -> np.ndarray:
    return np.full(scores.size, _group_size(weights, scores))


def _keep_flags(values: np.ndarray, weights: np.ndarray, sparsity: float) -> np.ndarray:
    """Boolean keep-flag per group: prune the lowest-scoring weight budget.

    Groups are ranked by score (ascending, ties broken by position via a
    stable sort) and pruned smallest-first until the pruned fraction of
    the total weight reaches ``sparsity``.  Ranking — instead of the
    earlier ``score > quantile_threshold`` comparison — makes achieved
    sparsity track the target even when many groups tie at the
    threshold: a layer with uniform magnitudes pruned at 0.5 keeps half
    its groups rather than losing all of them.
    """
    keep = np.ones(values.size, dtype=bool)
    if sparsity <= 0.0 or values.size == 0:
        return keep
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    budget = sparsity * cumulative[-1]
    num_pruned = int(np.searchsorted(cumulative, budget, side="right"))
    keep[order[:num_pruned]] = False
    return keep
