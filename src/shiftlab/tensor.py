"""The SWT1 file record of a dense array, and the package's shape errors.

The compute path passes plain numpy arrays; :class:`Tensor` is only what
the container reads and writes: a read-only, C-contiguous array of f32
(production) or f64 (oracle) reals, row-major with channel outermost,
i.e. (C, H, W) or (B, C, H, W).

Container format ("SWT1"):

    bytes 0..3   magic b"SWT1"
    byte  4      dtype code (0 = f32, 1 = f64)
    byte  5      rank (1..8)
    bytes 6..11  reserved, zero
    then rank little-endian u64 extents
    then the raw little-endian element payload, C order, no padding

Round trips are bit-identical for both dtypes.
"""

from __future__ import annotations

import os

import numpy as np

MAGIC = b"SWT1"
MAX_RANK = 8

_DTYPE_BY_NAME = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_CODE_BY_NAME = {"f32": 0, "f64": 1}
_NAME_BY_CODE = {0: "f32", 1: "f64"}


class ShapeError(ValueError):
    """Invalid tensor shape or incompatible operand shapes."""


class FormatError(ValueError):
    """Malformed container file."""


def dtype_of(arr: np.ndarray) -> str:
    if arr.dtype == np.float32:
        return "f32"
    if arr.dtype == np.float64:
        return "f64"
    raise ShapeError(f"unsupported element type {arr.dtype}")


class Tensor:
    """One SWT1 record: a dense (C, H, W) / (B, C, H, W) array of f32 or
    f64 reals, held in `data` as a C-contiguous array marked read-only."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        if data.dtype not in (np.float32, np.float64):
            raise ShapeError(f"unsupported dtype {data.dtype}")
        if data.ndim < 1 or data.ndim > MAX_RANK:
            raise ShapeError(f"rank {data.ndim} outside 1..{MAX_RANK}")
        if any(s < 1 for s in data.shape):
            raise ShapeError(f"extents must be >= 1, got {data.shape}")
        arr = np.ascontiguousarray(data)
        arr.setflags(write=False)
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> str:
        return dtype_of(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


def from_array(arr) -> Tensor:
    a = np.asarray(arr)
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float64)
    return Tensor(a)


def write_container(t: Tensor, path, force: bool = True) -> None:
    """Write t to path in the SWT1 layout; an existing file is replaced only
    when force is true, else FileExistsError (see ensure_fresh)."""
    ensure_fresh(path, force)
    arr = t.data
    code = _CODE_BY_NAME[t.dtype]
    header = MAGIC + bytes([code, arr.ndim]) + b"\x00" * 6
    extents = b"".join(int(s).to_bytes(8, "little") for s in arr.shape)
    payload = np.ascontiguousarray(arr, dtype=_DTYPE_BY_NAME[t.dtype]).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(extents)
        fh.write(payload)


def read_container(path) -> Tensor:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise FormatError(f"{path}: truncated header")
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    code, rank = blob[4], blob[5]
    if code not in _NAME_BY_CODE:
        raise FormatError(f"{path}: unknown dtype code {code}")
    if rank < 1 or rank > MAX_RANK:
        raise FormatError(f"{path}: rank {rank} outside 1..{MAX_RANK}")
    if any(blob[6:12]):
        raise FormatError(f"{path}: nonzero reserved bytes")
    off = 12
    if len(blob) < off + 8 * rank:
        raise FormatError(f"{path}: truncated extents")
    shape = tuple(int.from_bytes(blob[off + 8 * i: off + 8 * (i + 1)], "little")
                  for i in range(rank))
    if any(s < 1 for s in shape):
        raise FormatError(f"{path}: non-positive extent in {shape}")
    off += 8 * rank
    dt = _DTYPE_BY_NAME[_NAME_BY_CODE[code]]
    count = 1
    for s in shape:
        count *= s
    expected = off + count * dt.itemsize
    if len(blob) != expected:
        raise FormatError(f"{path}: payload is {len(blob) - off} bytes, "
                          f"expected {expected - off}")
    arr = np.frombuffer(blob, dtype=dt, count=count, offset=off).reshape(shape)
    return Tensor(arr.copy())


def tensors_equal_bits(a: Tensor, b: Tensor) -> bool:
    """Shape, dtype, and every element's bit pattern all equal."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.data.tobytes() == b.data.tobytes())


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Worst-case elementwise |a - b| over two arrays."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


def ensure_fresh(path, force: bool) -> None:
    """Refuse to clobber an existing output file unless forced."""
    if not force and os.path.exists(path):
        raise FileExistsError(f"{path} exists; pass force to overwrite")
