"""Slow, obviously-correct reference convolutions.

Everything else in the package is checked against this module, so it is
written for auditability, not speed.  All three convolutions run one tap
loop, :func:`_correlate`: one scaled multiply-add per (u, v, input
channel), in that fixed order from +0.0, over whole rows of the flattened
zero-padded planes (spare zero rows at the bottom keep the last tap in
bounds, and the wrap-around columns of each row are cropped once at the
end), broadcast over output channels and images at once.  Every kept
output element adds the same products in the same order whatever the
shapes, so f32 results are reproducible bit-for-bit run to run.

The loop skips the taps that can only add zeros (:func:`_live_taps`): a
tap whose filter entry is +-0 for every output, and one that reads only
zero padding for every kept output.  With finite operands each product
it would add is +-0, and adding +-0 to the accumulator, which starts at
+0.0 and so is never -0.0, changes no bit: the outputs are those of the
loop over every tap.  If either operand holds an inf or a nan
(0 * inf is nan), no tap is skipped.

Each convolution takes its shape from its inputs: kernel extents and
groups from the bank, "same" pads kh//2, kw//2 (so kernels are odd)
except in :func:`fanout_conv`, whose caller passes the working-grid pads.
Stride is 1 and dilation is excluded.  All reads outside the input are
zero, matching :func:`shiftlab.tensor.get_zero_extended`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .tensor import ShapeError, Tensor


def _as_nd(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _correlate(x: np.ndarray, filt: np.ndarray, pads) -> np.ndarray:
    """Correlate planes x (..., cpg, H, W), zero-padded by pads
    ((top, bottom), (left, right)), with filters filt (..., cpg, kh, kw);
    the leading axes broadcast and the cpg input channels are summed.

    The padded planes lie flat in rows of step = max(W + max(left, right),
    out_w) elements: two image rows share the zeros between them as one's
    right pad and the next one's left pad, so a read past a row's end lands
    in zeros, as in the padded plane.  Tap (u, v) of channel cl adds
    filt[cl, u, v] times the out_h * step elements from u * step + v to a
    flat accumulator that starts from +0.0, in the order u, v, cl; spare
    zero rows keep the last tap in bounds.  Output (i, j) thus sums
    filt[cl, u, v] * xpad[cl, u + i, v + j] as a windowed loop would; the
    last step - out_w columns of each row read past it and are cropped
    once at the end.
    """
    cpg, kh, kw = filt.shape[-3:]
    (pt, pb), (pl, pr) = pads
    h, w = x.shape[-2:]
    hp = h + pt + pb
    out_h, out_w = hp - kh + 1, w + pl + pr - kw + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError("kernel larger than padded input")
    step = max(w + max(pl, pr), out_w)
    spare = -(-(kw - 1) // step)            # ceil((kw - 1) / step)
    xpad = np.zeros(x.shape[:-2] + (hp + spare, step), dtype=x.dtype)
    xpad[..., pt:pt + h, pl:pl + w] = x
    flat = xpad.reshape(x.shape[:-2] + (-1,))
    # the broadcast leading axes (np.broadcast_shapes costs a small call's tap)
    lead = np.broadcast(flat[..., 0, :1], filt[..., 0, 0, :1]).shape[:-1]
    span = out_h * step
    acc = np.zeros(lead + (span,), dtype=x.dtype)
    for u, v, cl in _live_taps(x, filt, pt, pl, out_h, out_w):
        s = u * step + v
        acc += filt[..., cl, u, v, None] * flat[..., cl, s:s + span]
    return acc.reshape(lead + (out_h, step))[..., :out_w]


def _live_taps(x, filt, pt, pl, out_h, out_w):
    """The taps (u, v, cl) of :func:`_correlate`, in its loop order, that
    can add a nonzero product to a kept output, as an iterable.

    That is every tap but those where filt is +-0 at (cl, u, v) for every
    broadcast output and those whose rows [u, u + out_h) miss the image
    rows [pt, pt + H) or whose columns [v, v + out_w) miss [pl, pl + W);
    it is every tap when x or filt holds an inf or a nan.
    """
    cpg, kh, kw = filt.shape[-3:]
    h, w = x.shape[-2:]
    u0, u1 = max(pt - out_h + 1, 0), min(pt + h, kh)
    v0, v1 = max(pl - out_w + 1, 0), min(pl + w, kw)
    every = itertools.product(range(kh), range(kw), range(cpg))
    if (u1 - u0, v1 - v0) == (kh, kw) and np.count_nonzero(filt) == filt.size:
        return every                    # the common case, in one cheap test
    live = filt[..., u0:u1, v0:v1].any(axis=tuple(range(filt.ndim - 3))).transpose(1, 2, 0)
    if np.count_nonzero(live) == kh * kw * cpg \
            or not (np.isfinite(x).all() and np.isfinite(filt).all()):
        return every
    return (np.argwhere(live) + (u0, v0, 0)).tolist()


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
    lead = xa.shape[:-3]
    out = _correlate(xa.reshape(lead + (groups, 1, cpg, h, wdt)),
                     wa.reshape(groups, o_out // groups, cpg, kh, kw),
                     ((kh // 2,) * 2, (kw // 2,) * 2))
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
    c = xa.shape[0]
    if wa.shape[0] != c:
        raise ShapeError("bank channel count disagrees with input")
    g = wa.shape[1]
    if g < 1:
        raise ShapeError("fan-out must be >= 1")
    out = _correlate(xa[:, None, None], wa[:, :, None], pad)
    return Tensor(out.reshape((c * g,) + out.shape[-2:]))
