"""Length-prefixed wire protocol between the supervisor and its shards.

Every message is one frame on a stream socket::

    [u32 frame length][u32 header length][header JSON utf-8][payload bytes]

The header is a small JSON object whose ``kind`` field routes it
(``hello``, ``predict``, ``result``, ``error``, ``ping``, ``pong``,
``shutdown``, ``goodbye``); numpy arrays travel as raw bytes in the
payload with their dtype/shape declared in the header, plus a CRC32 so
a corrupted reply is *detected* rather than decoded into garbage logits
(the ``corrupt-reply`` chaos hook exists to prove that path works).

Both ends frame identically; reads are exact, so a half-written frame
from a dying peer surfaces as :class:`ConnectionClosed`, never as a
mis-parsed message.

A frame without its outer length (:func:`pack_frame` /
:func:`unpack_frame`) is also the ``application/x-repro-array`` body of
``POST /predict``: the HTTP hop and the shard socket share one codec
and its CRC32.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ARRAY_CONTENT_TYPE",
    "ConnectionClosed",
    "ProtocolError",
    "decode_array",
    "encode_array",
    "pack_frame",
    "recv_message",
    "send_message",
    "unpack_frame",
]

_LENGTH = struct.Struct(">I")

#: Upper bound on one frame (256 MiB).  A frame length beyond this is a
#: desynchronised stream, not a real request.
MAX_FRAME = 256 * 1024 * 1024

#: ``Content-Type`` of a ``/predict`` body that is one :func:`pack_frame`.
ARRAY_CONTENT_TYPE = "application/x-repro-array"

#: Array kinds :func:`decode_array` accepts: bool, signed/unsigned int, float.
_NUMERIC_KINDS = "biuf"


class ConnectionClosed(ConnectionError):
    """The peer closed (or killed) the connection mid-conversation."""


class ProtocolError(ValueError):
    """A structurally invalid frame or array (bad length, JSON, fields or CRC).

    A ``ValueError``: bytes that do not decode are bad input, so the
    serving taxonomy answers them ``bad-request``.
    """


def pack_frame(header: Dict[str, Any], payload: bytes = b"") -> bytes:
    """``[u32 header length][header JSON utf-8][payload]``: a frame minus its length."""
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _LENGTH.pack(len(encoded)) + encoded + payload


def unpack_frame(body: bytes) -> Tuple[Dict[str, Any], bytes]:
    """The header object and payload of one :func:`pack_frame` body."""
    if len(body) < 4:
        raise ProtocolError(f"frame of {len(body)} bytes is shorter than its header length")
    (header_length,) = _LENGTH.unpack_from(body)
    if header_length > len(body) - 4:
        raise ProtocolError(f"header length {header_length} exceeds frame {len(body)}")
    try:
        header = json.loads(body[4 : 4 + header_length].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"unparseable frame header: {error}") from error
    if not isinstance(header, dict):
        raise ProtocolError(f"frame header must be a JSON object, got {header!r}")
    return header, body[4 + header_length :]


def send_message(sock: socket.socket, header: Dict[str, Any], payload: bytes = b"") -> None:
    """Frame and send one message (header JSON + raw payload bytes)."""
    body = pack_frame(header, payload)
    # One sendall for the whole frame: interleaving-safe as long as the
    # caller serialises sends per socket (both ends hold a write lock).
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(f"peer closed with {remaining} of {count} bytes unread")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Tuple[Dict[str, Any], bytes]:
    """Read one frame; raises :class:`ConnectionClosed` on EOF."""
    (frame_length,) = _LENGTH.unpack(_recv_exact(sock, 4))
    if frame_length < 4 or frame_length > MAX_FRAME:
        raise ProtocolError(f"frame length {frame_length} outside (4, {MAX_FRAME})")
    header, payload = unpack_frame(_recv_exact(sock, frame_length))
    if "kind" not in header:
        raise ProtocolError(f"frame header must be an object with a 'kind', got {header!r}")
    return header, payload


def encode_array(array: np.ndarray) -> Tuple[Dict[str, Any], bytes]:
    """Header fields + payload bytes describing ``array`` exactly."""
    contiguous = np.ascontiguousarray(array)
    payload = contiguous.tobytes()
    return (
        {
            "dtype": str(contiguous.dtype),
            "shape": list(contiguous.shape),
            "crc": zlib.crc32(payload),
        },
        payload,
    )


def decode_array(header: Dict[str, Any], payload: bytes, verify: bool = True) -> np.ndarray:
    """Rebuild the array an :func:`encode_array` header/payload describes.

    Raises :class:`ProtocolError` unless ``header`` names a numeric
    ``dtype`` (kinds ``b``, ``i``, ``u``, ``f``) and a ``shape`` of
    non-negative dimensions that ``payload`` fills exactly.  With
    ``verify`` (the default) a CRC mismatch raises too — the supervisor
    treats that as a shard fault and fails the shard over rather than
    serving corrupt logits.
    """
    crc: Optional[int] = header.get("crc")
    if verify and crc is not None and zlib.crc32(payload) != crc:
        raise ProtocolError("array payload failed its CRC32 check")
    try:
        dtype = np.dtype(str(header["dtype"]))
        shape = tuple(int(dim) for dim in header["shape"])
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(
            f"array header needs a numpy 'dtype' and an integer 'shape' list: {error!r}"
        ) from error
    if dtype.kind not in _NUMERIC_KINDS:
        raise ProtocolError(f"array dtype {dtype} is not numeric (bool, int, uint or float)")
    if any(dim < 0 for dim in shape):
        raise ProtocolError(f"array shape {list(shape)} has a negative dimension")
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
    if len(payload) != expected:
        raise ProtocolError(
            f"array payload holds {len(payload)} bytes but {dtype} x {shape} needs {expected}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape)
