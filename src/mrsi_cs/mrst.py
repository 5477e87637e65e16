"""MRST binary tensor files.

Layout: magic ``MRST``, u32 version (=1), u32 dtype code (1 = real64,
2 = complex128 interleaved), u32 ndim, u64 dims[ndim], then the payload
little-endian in row-major order.  Used for distributions, base spectra
and signal vectors.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ShapeError

MAGIC = b"MRST"
VERSION = 1
_DTYPE_REAL64 = 1
_DTYPE_COMPLEX128 = 2

__all__ = ["write_tensor", "read_tensor"]


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write a real64 or complex128 tensor; other dtypes are upcast."""
    a = np.asarray(array)
    if np.iscomplexobj(a):
        a = a.astype("<c16", copy=False)
        code = _DTYPE_COMPLEX128
    else:
        a = a.astype("<f8", copy=False)
        code = _DTYPE_REAL64
    header = MAGIC + struct.pack("<III", VERSION, code, a.ndim)
    header += struct.pack(f"<{a.ndim}Q", *a.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(a.tobytes())


def read_tensor(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ShapeError(f"{path}: not an MRST file (bad magic {raw[:4]!r})")
    if len(raw) < 16:
        raise ShapeError(f"{path}: {len(raw)} bytes is shorter than the 16-byte header")
    version, code, ndim = struct.unpack_from("<III", raw, 4)
    if version != VERSION:
        raise ShapeError(f"{path}: unsupported MRST version {version}")
    offset = 16 + 8 * ndim
    if len(raw) < offset:
        raise ShapeError(f"{path}: {len(raw)} bytes is shorter than the {offset}-byte header")
    dims = struct.unpack_from(f"<{ndim}Q", raw, 16)
    dtype = {_DTYPE_REAL64: np.dtype("<f8"), _DTYPE_COMPLEX128: np.dtype("<c16")}.get(code)
    if dtype is None:
        raise ShapeError(f"{path}: unknown dtype code {code}")
    count = math.prod(dims)
    expected = offset + count * dtype.itemsize
    # checked before anything is allocated, so a header claiming a huge count costs nothing
    if len(raw) != expected:
        raise ShapeError(f"{path}: payload is {len(raw) - offset} bytes, expected {expected - offset}")
    try:
        a = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(dims)
    except ValueError as exc:  # more axes than numpy supports, or an axis longer than it can address
        raise ShapeError(f"{path}: shape {dims} is not supported ({exc})") from exc
    return a.astype(dtype.newbyteorder("="))
