"""Slow, obviously-correct reference convolutions.

Everything else in the package is checked against this module, so it is
written for auditability, not speed.  All three convolutions run one tap
loop, :func:`_correlate`: one scaled slice-accumulate per (u, v, input
channel), in that fixed order (u, then v, then input channel ascending),
each broadcast over output channels and images at once.  Every output
element therefore accumulates its taps in the same order whatever the
shapes, so f32 results are reproducible bit-for-bit run to run.

Stride support is limited to 1 and 2 (stems and downsampling); dilation
is excluded.  All reads outside the input are zero, matching
:func:`shiftlab.tensor.get_zero_extended`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor


@dataclass(frozen=True)
class ConvParams:
    kernel_h: int
    kernel_w: int
    pad_h: int = 0
    pad_w: int = 0
    stride: int = 1
    groups: int = 1

    def __post_init__(self):
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ShapeError("kernel extents must be positive")
        if self.pad_h < 0 or self.pad_w < 0:
            raise ShapeError("padding must be non-negative")
        if self.stride not in (1, 2):
            raise ShapeError("stride limited to 1 or 2")
        if self.groups < 1:
            raise ShapeError("groups must be positive")


def _as_nd(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _pad4(pad) -> tuple[int, int, int, int]:
    """Normalize pad spec to (top, bottom, left, right)."""
    if isinstance(pad, int):
        return pad, pad, pad, pad
    (pt, pb), (pl, pr) = pad
    return int(pt), int(pb), int(pl), int(pr)


def _correlate(xpad: np.ndarray, filt: np.ndarray, out_h: int, out_w: int,
               stride: int = 1) -> np.ndarray:
    """Correlate padded planes xpad (..., cpg, Hp, Wp) with filters
    filt (..., cpg, kh, kw); the leading axes broadcast and the cpg input
    channels are summed.  One scaled slice-accumulate per (u, v, channel)."""
    cpg, kh, kw = filt.shape[-3:]
    lead = np.broadcast_shapes(xpad.shape[:-3], filt.shape[:-3])
    acc = np.zeros(lead + (out_h, out_w), dtype=xpad.dtype)
    for u in range(kh):
        for v in range(kw):
            for cl in range(cpg):
                acc += filt[..., cl, u, v, None, None] * xpad[
                    ..., cl, u:u + stride * out_h:stride, v:v + stride * out_w:stride]
    return acc


def conv2d_ref(x: Tensor, w, p: ConvParams) -> Tensor:
    """Grouped 2-D correlation with zero padding.

    x is (C, H, W) or a batch (B, C, H, W); w has shape (out_channels,
    in_channels_per_group, kh, kw); accumulation runs in the array dtype
    (f64 stays f64 throughout).
    """
    xa = _as_nd(x)
    wa = _as_nd(w).astype(xa.dtype, copy=False)
    if xa.ndim not in (3, 4):
        raise ShapeError(f"expected (C, H, W) or (B, C, H, W) input, got {xa.shape}")
    c_in, h, wdt = xa.shape[-3:]
    if wa.ndim != 4:
        raise ShapeError(f"expected 4-D filter bank, got {wa.shape}")
    o_out, cpg, kh, kw = wa.shape
    if kh != p.kernel_h or kw != p.kernel_w:
        raise ShapeError("filter extents disagree with ConvParams")
    if c_in % p.groups or o_out % p.groups:
        raise ShapeError("channels not divisible by groups")
    if cpg != c_in // p.groups:
        raise ShapeError("filter in-channel extent disagrees with groups")
    out_h = (h + 2 * p.pad_h - kh) // p.stride + 1
    out_w = (wdt + 2 * p.pad_w - kw) // p.stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError("kernel larger than padded input")

    xpad = np.pad(xa, ((0, 0),) * (xa.ndim - 2) + ((p.pad_h,) * 2, (p.pad_w,) * 2))
    lead = xa.shape[:-3]
    out = _correlate(xpad.reshape(lead + (p.groups, 1, cpg) + xpad.shape[-2:]),
                     wa.reshape(p.groups, o_out // p.groups, cpg, kh, kw),
                     out_h, out_w, p.stride)
    return Tensor(out.reshape(lead + (o_out, out_h, out_w)))


def strip_conv_ref(x: Tensor, k, pad_h: int | None = None,
                   pad_w: int | None = None) -> Tensor:
    """Depthwise "same" convolution with a per-channel (kh, kw) kernel.

    Default padding kh//2, kw//2 keeps the spatial size; even kernel
    extents require explicit pads because "same" is ambiguous there.
    """
    xa = _as_nd(x)
    ka = _as_nd(k).astype(xa.dtype, copy=False)
    if xa.ndim != 3 or ka.ndim != 3:
        raise ShapeError("strip_conv_ref wants (C,H,W) input and (C,kh,kw) kernel")
    if ka.shape[0] != xa.shape[0]:
        raise ShapeError("kernel channel count disagrees with input")
    kh, kw = ka.shape[1], ka.shape[2]
    if pad_h is None or pad_w is None:
        if kh % 2 == 0 or kw % 2 == 0:
            raise ShapeError("even kernel extent needs explicit pads")
        pad_h = kh // 2 if pad_h is None else pad_h
        pad_w = kw // 2 if pad_w is None else pad_w
    c, h, w = xa.shape
    out_h = h + 2 * pad_h - kh + 1
    out_w = w + 2 * pad_w - kw + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError("kernel larger than padded input")
    xpad = np.pad(xa, ((0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    return Tensor(_correlate(xpad[:, None], ka[:, None], out_h, out_w))


def fanout_conv(x: Tensor, w, pad) -> Tensor:
    """One-input-to-many-outputs depthwise convolution.

    w has shape (C, g, N, N); output channel c*g + k is x[c] correlated
    with w[c, k].  `pad` is an int (symmetric) or ((top, bottom),
    (left, right)), which the shift-composed modes use to evaluate the
    maps on enlarged working grids.
    """
    xa = _as_nd(x)
    wa = _as_nd(w).astype(xa.dtype, copy=False)
    if xa.ndim != 3 or wa.ndim != 4:
        raise ShapeError("fanout_conv wants (C,H,W) input and (C,g,N,N) bank")
    c, h, wdt = xa.shape
    if wa.shape[0] != c:
        raise ShapeError("bank channel count disagrees with input")
    g, kh, kw = wa.shape[1], wa.shape[2], wa.shape[3]
    if g < 1:
        raise ShapeError("fan-out must be >= 1")
    pt, pb, pl, pr = _pad4(pad)
    out_h = h + pt + pb - kh + 1
    out_w = wdt + pl + pr - kw + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError("kernel larger than padded input")
    xpad = np.pad(xa, ((0, 0), (pt, pb), (pl, pr)))
    out = _correlate(xpad[:, None, None], wa[:, :, None], out_h, out_w)
    return Tensor(out.reshape(c * g, out_h, out_w))
