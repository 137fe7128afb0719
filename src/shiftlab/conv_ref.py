"""Slow, obviously-correct reference convolutions.

Everything else in the package is checked against this module, so it is
written for auditability, not speed.  All three convolutions run one tap
loop, :func:`_correlate`: one scaled slice-accumulate per (u, v, input
channel), in that fixed order (u, then v, then input channel ascending),
each broadcast over output channels and images at once.  Every output
element therefore accumulates its taps in the same order whatever the
shapes, so f32 results are reproducible bit-for-bit run to run.

Each convolution takes its shape from its inputs: kernel extents and
groups from the bank, "same" pads kh//2, kw//2 (so kernels are odd)
except in :func:`fanout_conv`, whose caller passes the working-grid pads.
Stride is 1 and dilation is excluded.  All reads outside the input are
zero, matching :func:`shiftlab.tensor.get_zero_extended`.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor


def _as_nd(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _correlate(xpad: np.ndarray, filt: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Correlate padded planes xpad (..., cpg, Hp, Wp) with filters
    filt (..., cpg, kh, kw); the leading axes broadcast and the cpg input
    channels are summed.  One scaled slice-accumulate per (u, v, channel)."""
    cpg, kh, kw = filt.shape[-3:]
    lead = np.broadcast_shapes(xpad.shape[:-3], filt.shape[:-3])
    acc = np.zeros(lead + (out_h, out_w), dtype=xpad.dtype)
    for u in range(kh):
        for v in range(kw):
            for cl in range(cpg):
                acc += filt[..., cl, u, v, None, None] * xpad[..., cl, u:u + out_h, v:v + out_w]
    return acc


def conv2d_ref(x: Tensor, w) -> Tensor:
    """Grouped 2-D "same" correlation with zero padding.

    x is (C, H, W) or a batch (B, C, H, W); w has shape (out_channels,
    in_channels_per_group, kh, kw) with odd kh and kw, and the groups are
    C // in_channels_per_group.  The pads are kh//2, kw//2, so the output
    keeps the spatial size; accumulation runs in the array dtype (f64
    stays f64 throughout).
    """
    xa = _as_nd(x)
    wa = _as_nd(w).astype(xa.dtype, copy=False)
    if xa.ndim not in (3, 4):
        raise ShapeError(f"expected (C, H, W) or (B, C, H, W) input, got {xa.shape}")
    if wa.ndim != 4:
        raise ShapeError(f"expected 4-D filter bank, got {wa.shape}")
    c_in, h, wdt = xa.shape[-3:]
    o_out, cpg, kh, kw = wa.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"kernel extents {kh}x{kw} must be odd")
    groups = c_in // cpg if cpg else 0
    if groups < 1 or c_in % cpg or o_out % groups:
        raise ShapeError(f"{c_in} input and {o_out} output channels do not divide "
                         f"into groups of {cpg}")
    pad = ((0, 0),) * (xa.ndim - 2) + ((kh // 2,) * 2, (kw // 2,) * 2)
    xpad = np.pad(xa, pad)
    lead = xa.shape[:-3]
    out = _correlate(xpad.reshape(lead + (groups, 1, cpg) + xpad.shape[-2:]),
                     wa.reshape(groups, o_out // groups, cpg, kh, kw), h, wdt)
    return Tensor(out.reshape(lead + (o_out, h, wdt)))


def strip_conv_ref(x: Tensor, k) -> Tensor:
    """Depthwise "same" convolution with a per-channel odd (kh, kw) kernel:
    :func:`conv2d_ref` of (C, H, W) input x on the (C, 1, kh, kw) bank."""
    xa = _as_nd(x)
    ka = _as_nd(k)
    if xa.ndim != 3 or ka.ndim != 3:
        raise ShapeError("strip_conv_ref wants (C,H,W) input and (C,kh,kw) kernel")
    if ka.shape[0] != xa.shape[0]:
        raise ShapeError("kernel channel count disagrees with input")
    return conv2d_ref(xa, ka[:, None])


def fanout_conv(x: Tensor, w, pad) -> Tensor:
    """One-input-to-many-outputs depthwise convolution.

    w has shape (C, g, N, N); output channel c*g + k is x[c] correlated
    with w[c, k].  `pad` is ((top, bottom), (left, right)), the working-
    grid pads that ``sw_op._grid_geometry`` returns for a pad mode.
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
    (pt, pb), (pl, pr) = pad
    out_h = h + pt + pb - kh + 1
    out_w = wdt + pl + pr - kw + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError("kernel larger than padded input")
    xpad = np.pad(xa, ((0, 0), (pt, pb), (pl, pr)))
    out = _correlate(xpad[:, None, None], wa[:, :, None], out_h, out_w)
    return Tensor(out.reshape(c * g, out_h, out_w))
