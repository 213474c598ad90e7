"""Binary grid format for feature tensors and mask targets.

Layout (little-endian): magic ``SGRD``, u16 version, u16 dtype tag
(1 = float64), u32 ndim, ndim x u64 dims, then the row-major float64
payload. Deliberately trivial so downstream trainers in any language can
read it with a few struct calls.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SGRD"
VERSION = 1
_DTYPE_F64 = 1


class GridFormatError(ValueError):
    """Unreadable grid file."""


def save_grid(path, array) -> None:
    arr = np.ascontiguousarray(array, dtype=np.float64)
    header = MAGIC + struct.pack("<HHI", VERSION, _DTYPE_F64, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    Path(path).write_bytes(header + arr.tobytes())


def load_grid(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise GridFormatError(f"{path}: not a grid file")
    version, dtype_tag, ndim = struct.unpack_from("<HHI", blob, 4)
    if version != VERSION:
        raise GridFormatError(f"{path}: unsupported version {version}")
    if dtype_tag != _DTYPE_F64:
        raise GridFormatError(f"{path}: unsupported dtype tag {dtype_tag}")
    offset = 12 + 8 * ndim
    if len(blob) < offset:
        raise GridFormatError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{ndim}Q", blob, 12)
    count = math.prod(dims)  # exact: numpy's int64 product wraps
    payload = blob[offset:]
    if len(payload) < 8 * count:
        raise GridFormatError(f"{path}: truncated payload")
    return np.frombuffer(payload[: 8 * count], dtype="<f8").reshape(dims).copy()
