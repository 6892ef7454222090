"""The one writer of persisted files, and the readers of its formats.

Every file the system persists lands through :func:`_stage`: the bytes
go to a unique staging file next to the target (:func:`staging_path`),
which ``os.replace`` then moves into place.  A process killed mid-write
never leaves a truncated file at the target (readers see the previous
complete file or the new one), and a write that fails removes its
staging file.  One pair of helpers per format sits on top:

* :func:`write_json` / :func:`read_json`: JSON documents (run, bench
  and lint artifacts, baselines, run-store points);
* :func:`save_bundle` / :func:`load_bundle`: ``.npz`` arrays plus a
  JSON header member (tickets, sweep-cache entries, sealed models);
* :func:`save_state_dict` / :func:`load_state_dict`: bare ``.npz``
  state dicts;
* :func:`write_file`: any other text (CSV exports, the metrics
  reference).
"""

from __future__ import annotations

import json
import os
import uuid
import zipfile
from typing import Any, BinaryIO, Callable, Dict, Optional, Tuple

import numpy as np


def staging_path(path: str) -> str:
    """A per-writer unique temp path next to ``path`` for atomic writes.

    Multi-process sweeps can store the same entry concurrently (e.g.
    two workers missing on an identical artefact); a fixed ``.tmp``
    name would let one writer's ``os.replace`` consume or tear the
    other's half-written file, so every writer stages under its own
    pid+uuid name and the last atomic rename wins.
    """
    base, _ = os.path.splitext(path)
    return f"{base}.{os.getpid()}-{uuid.uuid4().hex}.tmp"


def _stage(path: str, write: Callable[[BinaryIO], object]) -> str:
    """Write ``path`` atomically: ``write`` fills a staging file that replaces it."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    temporary = staging_path(path)
    try:
        with open(temporary, "wb") as handle:
            write(handle)
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)
    return path


def write_file(path: str, text: str) -> str:
    """Write ``text`` to ``path`` as UTF-8, atomically."""
    return _stage(path, lambda handle: handle.write(text.encode("utf-8")))


def write_json(path: str, document: Any, indent: Optional[int] = 2) -> str:
    """Write ``document`` to ``path`` as JSON, atomically.

    Key order is kept: a result row's key order is its table's column
    order.  An indented document ends with a newline; ``indent=None``
    writes a single line without one.
    """
    text = json.dumps(document, indent=indent)
    return write_file(path, text if indent is None else text + "\n")


def read_json(path: str, format: Optional[str] = None) -> Any:
    """Load the JSON document at ``path``.

    With ``format``, the document must be an object whose ``"format"``
    tag equals it; anything else raises :class:`ValueError`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if format is not None:
        found = document.get("format") if isinstance(document, dict) else None
        if found != format:
            raise ValueError(f"{path!r} has format {found!r}, expected {format}")
    return document


def save_state_dict(state: Dict[str, np.ndarray], path: str) -> str:
    """Save a state dict to ``path`` (``.npz`` appended if missing), atomically.

    Parameter names may contain dots, which ``np.savez`` handles fine as
    archive member names.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    return _stage(path, lambda handle: np.savez(handle, **state))


def load_state_dict(path: str) -> Dict[str, np.ndarray]:
    """Load a state dict previously written by :func:`save_state_dict`."""
    return _read_npz(path, lambda name: True)


def _read_npz(path: str, wanted: Callable[[str], bool]) -> Dict[str, np.ndarray]:
    """The ``wanted`` members of an ``.npz`` archive (members decompress lazily).

    A file that is not an ``.npz`` archive raises :class:`ValueError`;
    a missing one raises :class:`OSError`.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    try:
        with np.load(path) as archive:
            return {name: archive[name].copy() for name in archive.files if wanted(name)}
    except zipfile.BadZipFile as error:
        raise ValueError(f"{path!r} is not a readable .npz archive: {error}") from error


def save_bundle(
    path: str, arrays: Dict[str, np.ndarray], header: Dict[str, Any], key: str
) -> str:
    """Save ``arrays`` plus ``header`` as a JSON member named ``key``.

    The header is the archive's last member; ``.npz`` is appended to
    ``path`` if missing.  Returns the written path.
    """
    encoded = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    return save_state_dict({**arrays, key: encoded}, path)


def load_bundle(
    path: str, key: str, prefix: str = ""
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """The header and arrays of a bundle written by :func:`save_bundle`.

    Only arrays named ``prefix...`` are read.  An archive without a
    ``key`` member raises :class:`ValueError`.
    """
    arrays = _read_npz(path, lambda name: name == key or name.startswith(prefix))
    if key not in arrays:
        raise ValueError(f"{path!r} has no {key} member")
    return json.loads(arrays.pop(key).tobytes().decode("utf-8")), arrays


def members(arrays: Dict[str, np.ndarray], prefix: str) -> Dict[str, np.ndarray]:
    """The arrays named ``prefix<name>``, keyed by ``<name>``."""
    return {
        name[len(prefix) :]: value for name, value in arrays.items() if name.startswith(prefix)
    }


def verify_dtypes(expected: Dict[str, str], payload: Dict[str, np.ndarray], path: str) -> None:
    """Check loaded arrays against the dtypes their header recorded.

    Serialised bundles that care about exact precision (tickets, sealed
    model artifacts) stamp ``{array name: dtype string}`` into their
    JSON header; this raises :class:`ValueError` if any loaded array
    came back in a different dtype, so a precision change can never
    slip through a save/load round-trip silently.
    """
    for name, dtype in expected.items():
        if name in payload and str(payload[name].dtype) != dtype:
            raise ValueError(
                f"array {name!r} in {path!r} has dtype "
                f"{payload[name].dtype}, expected {dtype}"
            )
