"""Sealed ``repro-model/v1`` model artifacts.

An artifact is the deployable end product of the compression pipeline:
one ``.npz`` bundle containing a **fused, mask-applied** inference model
plus everything a server needs to answer traffic with it —

* the state dict of the Conv+BN-folded evaluation graph (see
  :mod:`repro.nn.fuse`), captured after the pruning mask multiplied
  into the weights, so loading never re-runs folding arithmetic and
  predictions are byte-identical to the exporting process;
* the pruning mask itself, bit-packed 8-to-a-byte (``np.packbits``),
  kept for audit/validation — inference does not need it because the
  pruned weights are already zero in the sealed state;
* the compute dtype, an input preprocessing spec (layout, channels,
  resolution, value range), and free-form provenance (experiment id,
  scale, run-store config hash, winning-row metrics).

Scalar fields travel in a JSON header member exactly like
:meth:`repro.core.tickets.Ticket.save`; arrays keep their native npz
encoding.  Writes are atomic (staging + rename via
:func:`repro.utils.checkpoint.save_bundle`), so a killed export can
never leave a truncated artifact for a server to trip over.

``export_artifact`` seals a :class:`~repro.core.tickets.Ticket` (plus a
trained head) or an already-assembled model; ``load_artifact`` is the
inverse, and :meth:`ModelArtifact.build_model` rebuilds the runnable
evaluation graph.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.tickets import Ticket
from repro.models.heads import ClassifierHead
from repro.models.registry import build_model
from repro.nn.fuse import fuse, fusible_pairs
from repro.nn.module import Module
from repro.pruning.mask import PruningMask
from repro.tensor import sparse as _sparse
from repro.tensor.dtypes import default_dtype_scope
from repro.utils.checkpoint import load_bundle, members, save_bundle, verify_dtypes

__all__ = [
    "MODEL_ARTIFACT_FORMAT",
    "ModelArtifact",
    "default_preprocessing",
    "export_artifact",
    "load_artifact",
]

#: Format tag stamped into (and required from) sealed model artifacts.
MODEL_ARTIFACT_FORMAT = "repro-model/v1"

#: Bump after an incompatible layout change; loaders reject other versions.
MODEL_ARTIFACT_VERSION = 1

_HEADER_KEY = "__model_artifact_header__"
_STATE_PREFIX = "state./"
_MASK_PREFIX = "mask./"
_SPARSE_PREFIX = "sparse./"

#: State arrays this sparse (zero fraction) and this large are written
#: as nonzeros + a bit-packed occupancy mask instead of dense.
#: ``np.savez`` stores members uncompressed, so every sealed zero costs
#: its full ``itemsize`` on disk; the sparse encoding costs
#: ``(1 - s) * itemsize + 1/8`` bytes per element — ~4x smaller at 80%
#: sparsity for float32.  Small arrays (biases, head rows) stay dense:
#: their encoding overhead outweighs the bytes saved.
SPARSE_ENCODE_MIN_SPARSITY = 0.25
SPARSE_ENCODE_MIN_SIZE = 1024


def _read(path: str, prefix: str = "") -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """The checked header and the ``prefix...`` arrays of an artifact bundle.

    Shared by :meth:`ModelArtifact.load` and :func:`read_artifact_meta`
    so a format/version bump can never make metadata reads and full
    loads disagree about which artifacts are valid.
    """
    try:
        header, arrays = load_bundle(path, _HEADER_KEY, prefix)
    except (OSError, ValueError) as error:
        raise ValueError(
            f"cannot read {MODEL_ARTIFACT_FORMAT} artifact {path!r}: {error}"
        ) from error
    if header.get("format") != MODEL_ARTIFACT_FORMAT:
        raise ValueError(
            f"{path!r} has format {header.get('format')!r}, "
            f"expected {MODEL_ARTIFACT_FORMAT}"
        )
    if header.get("version") != MODEL_ARTIFACT_VERSION:
        raise ValueError(
            f"{path!r} has artifact version {header.get('version')!r}, "
            f"this build reads version {MODEL_ARTIFACT_VERSION}"
        )
    return header, arrays


def _meta_dict(
    model_name, base_width, num_classes, dtype, sparsity, preprocessing, provenance
) -> Dict[str, object]:
    """The one metadata shape every caller sees.

    :meth:`ModelArtifact.describe` (full loads) and
    :func:`read_artifact_meta` (header-only reads) both build their
    result here, so ``/models`` metadata can never drift from what a
    loaded artifact reports.
    """
    return {
        "format": MODEL_ARTIFACT_FORMAT,
        "model_name": str(model_name),
        "base_width": int(base_width),
        "num_classes": int(num_classes),
        "dtype": str(dtype),
        "sparsity": round(float(sparsity), 6),
        "preprocessing": dict(preprocessing),
        "provenance": dict(provenance),
    }


def _unpack_mask(path: str, name: str, shape, packed: Optional[np.ndarray]) -> np.ndarray:
    """Restore one bit-packed mask to its original uint8 shape."""
    if packed is None:
        raise ValueError(f"artifact {path!r} is missing packed mask {name!r}")
    count = int(np.prod(shape)) if shape else 1
    bits = np.unpackbits(packed.reshape(-1), count=count)
    return bits.reshape(shape).astype(np.uint8)


def default_preprocessing(image_size: int = 16, channels: int = 3) -> Dict[str, object]:
    """The preprocessing spec of the synthetic task family.

    The engine enforces the layout and shape (``NCHW``, ``channels`` x
    ``image_size`` x ``image_size``); ``value_range`` documents the
    float domain the model was trained on but is not enforced, so
    clients may legitimately send e.g. adversarially perturbed inputs.
    """
    return {
        "layout": "NCHW",
        "channels": int(channels),
        "image_size": int(image_size),
        "value_range": [0.0, 1.0],
    }


@dataclass
class ModelArtifact:
    """A sealed, self-contained inference model (see module docstring).

    ``state`` holds the fused evaluation graph's arrays; ``mask_state``
    the (unpacked) binary pruning masks keyed by the fused model's
    parameter names.  ``dtype`` is the compute precision the model was
    sealed under — :meth:`build_model` restores it regardless of the
    loading process's engine default.
    """

    model_name: str
    base_width: int
    num_classes: int
    dtype: str
    state: Dict[str, np.ndarray]
    mask_state: Dict[str, np.ndarray] = field(default_factory=dict)
    preprocessing: Dict[str, object] = field(default_factory=default_preprocessing)
    provenance: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def input_shape(self) -> Tuple[int, int, int]:
        """Expected per-sample input shape ``(C, H, W)``."""
        channels = int(self.preprocessing.get("channels", 3))
        size = int(self.preprocessing.get("image_size", 16))
        return (channels, size, size)

    def mask(self) -> Optional[PruningMask]:
        """The sealed pruning mask, or ``None`` for a dense artifact."""
        return PruningMask(self.mask_state) if self.mask_state else None

    def sparsity(self) -> float:
        """Fraction of pruned weights recorded in the sealed mask."""
        mask = self.mask()
        return mask.sparsity() if mask is not None else 0.0

    def describe(self) -> Dict[str, object]:
        """JSON-able metadata (what ``/models`` reports per artifact)."""
        return _meta_dict(
            self.model_name,
            self.base_width,
            self.num_classes,
            self.dtype,
            self.sparsity(),
            self.preprocessing,
            self.provenance,
        )

    # ------------------------------------------------------------------
    # Rebuilding the runnable model
    # ------------------------------------------------------------------
    def build_model(self, seed: int = 0) -> Module:
        """Reconstruct the sealed evaluation graph.

        The architecture is rebuilt (backbone + classifier head, then
        Conv+BN folding to obtain the fused graph's shape), and the
        sealed arrays are loaded verbatim — under a dtype scope pinned
        to the artifact's compute precision, so every parameter keeps
        its exact bytes and a prediction here matches the exporting
        process bit for bit.
        """
        # Imported lazily to keep this module importable from the
        # tensor layer up (compact pulls in the model zoo's blocks).
        from repro.pruning.compact import conform_to_state

        with default_dtype_scope(self.dtype):
            backbone = build_model(self.model_name, base_width=self.base_width, seed=seed)
            model = ClassifierHead(backbone, num_classes=self.num_classes, seed=seed)
            sealed = fuse(model)
            # Compacted artifacts sealed physically smaller convolutions
            # than the registry skeleton; re-dimension those layers to
            # the sealed shapes (a no-op for dense artifacts) before the
            # strict load fills the values.
            conform_to_state(sealed, self.state)
            sealed.load_state_dict(self.state)
        sealed.eval()
        sealed.requires_grad_(False)
        return sealed

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Write the artifact as one atomic ``.npz`` bundle.

        State arrays past the sparsity/size floors travel as nonzeros +
        a bit-packed occupancy mask (see :data:`SPARSE_ENCODE_MIN_SPARSITY`)
        whenever that is strictly smaller; :meth:`load` rebuilds the
        dense bytes exactly.  The write also stamps size accounting into
        ``provenance``: ``state_bytes`` (dense vs encoded array bytes)
        and ``artifact_bytes`` — the artifact's own on-disk size, made
        self-consistent by re-sealing until the recorded number matches
        the file it lands in.
        """
        arrays: Dict[str, np.ndarray] = {}
        sparse_shapes: Dict[str, list] = {}
        dense_bytes = 0
        encoded_bytes = 0
        for name, value in self.state.items():
            array = np.asarray(value)
            dense_bytes += array.nbytes
            if (
                array.size >= SPARSE_ENCODE_MIN_SIZE
                and array.dtype.kind == "f"
                and 1.0 - np.count_nonzero(array) / array.size >= SPARSE_ENCODE_MIN_SPARSITY
            ):
                values, bits = _sparse.pack_dense(array)
                if values.nbytes + bits.nbytes < array.nbytes:
                    arrays[f"{_SPARSE_PREFIX}{name}/values"] = values
                    arrays[f"{_SPARSE_PREFIX}{name}/bits"] = bits
                    sparse_shapes[name] = list(array.shape)
                    encoded_bytes += values.nbytes + bits.nbytes
                    continue
            arrays[f"{_STATE_PREFIX}{name}"] = array
            encoded_bytes += array.nbytes
        mask_shapes: Dict[str, list] = {}
        for name, value in self.mask_state.items():
            mask = np.asarray(value, dtype=np.uint8)
            arrays[f"{_MASK_PREFIX}{name}"] = np.packbits(mask.reshape(-1))
            mask_shapes[name] = list(mask.shape)
        self.provenance["state_bytes"] = {
            "dense": int(dense_bytes),
            "encoded": int(encoded_bytes),
        }
        written = path
        for _ in range(4):
            header = {
                "format": MODEL_ARTIFACT_FORMAT,
                "version": MODEL_ARTIFACT_VERSION,
                "model_name": self.model_name,
                "base_width": self.base_width,
                "num_classes": self.num_classes,
                "dtype": self.dtype,
                "state_dtypes": {
                    name: str(np.asarray(value).dtype) for name, value in self.state.items()
                },
                "mask_shapes": mask_shapes,
                "sparse_shapes": sparse_shapes,
                "preprocessing": self.preprocessing,
                "provenance": self.provenance,
            }
            written = save_bundle(path, arrays, header, _HEADER_KEY)
            size = os.path.getsize(written)
            if self.provenance.get("artifact_bytes") == size:
                break
            # Recording the size changes the header (and so the size);
            # iterate to the fixed point — the digit count stabilises
            # after one round, so this converges on the second write.
            self.provenance["artifact_bytes"] = size
        return written

    @classmethod
    def load(cls, path: str) -> "ModelArtifact":
        """Re-hydrate an artifact previously written by :meth:`save`."""
        header, arrays = _read(path)
        state = members(arrays, _STATE_PREFIX)
        for name, shape in header.get("sparse_shapes", {}).items():
            values = arrays.get(f"{_SPARSE_PREFIX}{name}/values")
            bits = arrays.get(f"{_SPARSE_PREFIX}{name}/bits")
            if values is None or bits is None:
                raise ValueError(
                    f"artifact {path!r} is missing the sparse payload for {name!r}"
                )
            state[name] = _sparse.unpack_dense(values, bits, tuple(shape), values.dtype)
        verify_dtypes(header.get("state_dtypes", {}), state, path)
        mask_state: Dict[str, np.ndarray] = {}
        for name, shape in header.get("mask_shapes", {}).items():
            mask_state[name] = _unpack_mask(
                path, name, shape, arrays.get(f"{_MASK_PREFIX}{name}")
            )
        return cls(
            model_name=header["model_name"],
            base_width=int(header["base_width"]),
            num_classes=int(header["num_classes"]),
            dtype=str(header["dtype"]),
            state=state,
            mask_state=mask_state,
            preprocessing=dict(header.get("preprocessing", {})),
            provenance=dict(header.get("provenance", {})),
        )


def export_artifact(
    source,
    path: str,
    *,
    num_classes: Optional[int] = None,
    head: Optional[Module] = None,
    head_state: Optional[Dict[str, np.ndarray]] = None,
    model_name: Optional[str] = None,
    base_width: Optional[int] = None,
    mask: Optional[PruningMask] = None,
    preprocessing: Optional[Dict[str, object]] = None,
    provenance: Optional[Dict[str, object]] = None,
    seed: int = 0,
    compact: bool = True,
) -> str:
    """Seal ``source`` (a :class:`Ticket` or an assembled model) to ``path``.

    From a **ticket**: the backbone is materialised (pretrained weights
    with the mask multiplied in), a classifier head for ``num_classes``
    is attached, and ``head`` (a trained module mounted as ``fc``) or
    ``head_state`` (arrays loaded into the fresh head) supplies the
    trained classifier; without either, the seeded fresh head is sealed
    as-is.  From a **module** (a :class:`ClassifierHead`-shaped model):
    ``model_name``/``base_width`` must identify the backbone recipe so
    the loader can rebuild the architecture, and ``mask`` optionally
    records the sparsity pattern.

    Either way the model is folded to its evaluation graph
    (:func:`repro.nn.fuse.fuse`) before capture, and — unless
    ``compact=False`` — structurally pruned channels are physically
    deleted from the fused graph (:func:`repro.pruning.compact.compact`),
    so the artifact stores exactly (and only) the arrays that produce
    inference logits; the compaction decisions land in the sealed
    provenance under ``"compaction"``.  Returns the written path
    (``.npz`` appended if missing).
    """
    if isinstance(source, Ticket):
        if num_classes is None:
            raise ValueError("num_classes is required when exporting a Ticket")
        backbone = source.materialise(seed=seed)
        model: Module = ClassifierHead(backbone, num_classes=num_classes, seed=seed)
        if head is not None:
            model.fc = head
        elif head_state is not None:
            model.fc.load_state_dict(head_state)
        model_name = source.model_name
        base_width = source.base_width
        mask = mask if mask is not None else source.mask.add_prefix("backbone.")
        ticket_provenance = {
            "ticket": source.name,
            "scheme": source.scheme,
            "prior": source.prior,
            "granularity": source.granularity,
            "ticket_sparsity": round(source.sparsity, 6),
            **{f"ticket_{key}": value for key, value in source.metadata.items()},
        }
        provenance = {**ticket_provenance, **(provenance or {})}
    else:
        model = source
        if model_name is None or base_width is None:
            raise ValueError(
                "model_name and base_width are required when exporting a bare model "
                "(the loader rebuilds the architecture from the registry)"
            )
        if num_classes is None:
            num_classes = getattr(model, "num_classes", None)
        if num_classes is None:
            raise ValueError("num_classes could not be inferred from the model")

    if fusible_pairs(model) == 0:
        raise ValueError(
            "the exported model has no Conv+BN pairs to fold; repro-model/v1 seals "
            "the fused evaluation graph of a ClassifierHead-shaped model"
        )
    sealed = fuse(model)

    # Static graph check: prove the sealed graph is shape- and
    # dtype-consistent (and the mask matches its parameters) *before*
    # anything is written.  An unservable model fails here, at export
    # time, instead of at the first request against a live engine.
    # Imported lazily — repro.analysis imports the model zoo, and the
    # artifact module must stay importable from the tensor layer up.
    from repro.analysis.graph import check_model

    spec = preprocessing if preprocessing is not None else default_preprocessing()
    size = int(spec.get("image_size", 16))
    input_shape = (int(spec.get("channels", 3)), size, size)
    check_model(sealed, input_shape, mask=mask.as_dict() if mask is not None else None)

    provenance = dict(provenance or {})
    if compact:
        # Physically delete provably-removable pruned channels from the
        # fused graph.  The mask was validated against the pre-compaction
        # graph above (its shapes describe the dense architecture); the
        # compacted tree is re-verified on its own.
        from repro.pruning.compact import compact as compact_pass

        sealed, report = compact_pass(sealed)
        if report.removed_channels():
            check_model(sealed, input_shape)
        provenance["compaction"] = report.summary()

    state = sealed.state_dict()
    dtypes = {str(value.dtype) for value in state.values()}
    if len(dtypes) != 1:
        raise ValueError(f"model mixes compute dtypes {sorted(dtypes)}; refusing to seal")

    artifact = ModelArtifact(
        model_name=str(model_name),
        base_width=int(base_width),
        num_classes=int(num_classes),
        dtype=dtypes.pop(),
        state=state,
        mask_state=mask.as_dict() if mask is not None else {},
        preprocessing=preprocessing if preprocessing is not None else default_preprocessing(),
        provenance=provenance,
    )
    return artifact.save(path)


def load_artifact(path: str) -> ModelArtifact:
    """Load a sealed ``repro-model/v1`` artifact (see :class:`ModelArtifact`)."""
    return ModelArtifact.load(path)


def read_artifact_meta(path: str) -> Dict[str, object]:
    """Validate ``path`` and return its :meth:`ModelArtifact.describe` dict.

    Reads only the JSON header and the bit-packed masks from the
    archive (npz members decompress lazily), never the weight arrays —
    registering many multi-megabyte artifacts with a
    :class:`~repro.serve.store.ModelStore` stays cheap.
    """
    header, packed = _read(path, _MASK_PREFIX)
    total = 0
    kept = 0
    for name, shape in header.get("mask_shapes", {}).items():
        mask = _unpack_mask(path, name, shape, packed.get(f"{_MASK_PREFIX}{name}"))
        total += mask.size
        kept += int(mask.sum())
    return _meta_dict(
        header["model_name"],
        header["base_width"],
        header["num_classes"],
        header["dtype"],
        1.0 - kept / total if total else 0.0,
        header.get("preprocessing", {}),
        header.get("provenance", {}),
    )
