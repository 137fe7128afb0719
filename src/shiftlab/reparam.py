"""Structural re-parameterization: norm folding, branch merging, densify.

`fold_norm` absorbs a per-channel affine normalization into the preceding
convolution's weights and bias; `merge_rep` collapses parallel same-shape
filter banks into one by weight addition (conv is linear in the weights);
`densify` expands a shift-composed operator instance into its equivalent
large sparse kernel, one per channel, for analysis and cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError


class FoldRequiredError(ValueError):
    """Operation requires identity or pre-folded normalization."""


@dataclass
class AffineNorm:
    """Per-channel normalization: y = gamma * (x - mean) / sqrt(var + eps) + beta.

    Running statistics are stored alongside the two learnable values per
    channel; parameter accounting counts only gamma and beta.
    """

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.var = np.asarray(self.var, dtype=np.float64)
        n = self.gamma.shape
        if not (self.beta.shape == self.mean.shape == self.var.shape == n):
            raise ShapeError("normalization parameter lengths disagree")
        if np.any(self.var < 0):
            raise ShapeError("running variance must be non-negative")
        if self.eps < 0:
            raise ShapeError("epsilon must be non-negative")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def scale(self) -> np.ndarray:
        return self.gamma / np.sqrt(self.var + self.eps)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Channelwise affine on a (C, H, W) array."""
        if y.shape[0] != self.channels:
            raise ShapeError(f"norm has {self.channels} channels, input {y.shape[0]}")
        s = self.scale().astype(y.dtype)
        b = (self.beta - self.mean * self.scale()).astype(y.dtype)
        return y * s[:, None, None] + b[:, None, None]

    @classmethod
    def identity(cls, channels: int) -> "AffineNorm":
        return cls(np.ones(channels), np.zeros(channels),
                   np.zeros(channels), np.ones(channels), eps=0.0)

    def as_rows(self) -> np.ndarray:
        """(5, C) serialization rows: gamma, beta, mean, var, eps."""
        return np.stack([self.gamma, self.beta, self.mean, self.var,
                         np.full_like(self.gamma, self.eps)])

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "AffineNorm":
        if rows.ndim != 2 or rows.shape[0] != 5:
            raise ShapeError(f"expected (5, C) norm rows, got {rows.shape}")
        return cls(rows[0], rows[1], rows[2], rows[3], eps=float(rows[4][0]))

    def is_identity(self) -> bool:
        return (np.all(self.gamma == 1) and np.all(self.beta == 0)
                and np.all(self.mean == 0) and np.all(self.var == 1)
                and self.eps == 0.0)


def fold_norm(w, bias, norm: AffineNorm):
    """Fold conv -> norm into an equivalent conv.

    w'[o] = w[o] * s[o],  bias'[o] = beta[o] + (bias[o] - mean[o]) * s[o],
    with s = gamma / sqrt(var + eps).  Works for any filter rank whose
    leading axis is the output channel.
    """
    wa = np.asarray(w)
    if wa.shape[0] != norm.channels:
        raise ShapeError(f"filter bank has {wa.shape[0]} output channels, "
                         f"norm has {norm.channels}")
    if bias is None:
        bias = np.zeros(wa.shape[0], dtype=np.float64)
    ba = np.asarray(bias, dtype=np.float64)
    if ba.shape != (wa.shape[0],):
        raise ShapeError("bias length disagrees with output channels")
    s = norm.scale()
    w_f = wa * s.reshape((-1,) + (1,) * (wa.ndim - 1)).astype(wa.dtype)
    b_f = norm.beta + (ba - norm.mean) * s
    return w_f, b_f


def merge_rep(branches):
    """Elementwise sum of same-shape masked filter banks.

    Masks must already be applied (masked filters exactly zero); by conv
    linearity, a forward pass with the merged bank equals the sum of the
    per-branch forwards.
    """
    if not branches:
        raise ShapeError("no banks to merge")
    first = np.asarray(branches[0])
    out = first.copy()
    for b in branches[1:]:
        ba = np.asarray(b)
        if ba.shape != first.shape:
            raise ShapeError(f"bank shapes disagree: {ba.shape} vs {first.shape}")
        out += ba
    return out


def densify(w, plan, cfg) -> np.ndarray:
    """Equivalent per-channel large sparse kernel of an operator instance.

    Places every branch contribution's filter taps at their displaced
    positions; a depthwise "same" convolution with the result equals the
    exact-mode forward pass.  Weights and plan must fit cfg, and every
    active norm must be absent or identity (`w.validate_linear`): folding a
    per-branch-type norm would scale contributions that share one bank,
    so the caller must fold first (or clear the norms).

    Each tap sums the H edges, then the W edges, then the center (E
    times), whatever the order of cfg.branch_types: sw_forward's order.

    Returns a (C_sw, 2*S_v + N, 2*S_h + N) array, where S_v and S_h are
    the largest |dy| and |dx| of `plan.shifts(cfg.branch_types)`.
    """
    w.validate_linear(cfg, plan)
    n = cfg.n
    dy, dx = plan.shifts(cfg.branch_types)
    s_v, s_h = int(np.abs(dy).max(initial=0)), int(np.abs(dx).max(initial=0))
    bank = w.merged_bank()
    c_cnt = bank.shape[0]
    out = np.zeros((c_cnt, 2 * s_v + n, 2 * s_h + n), dtype=bank.dtype)
    # blocks[c, i, j] is the (N, N) block of channel c at offset (i, j)
    blocks = sliding_window_view(out, (n, n), axis=(1, 2), writeable=True)
    np.add.at(blocks, (np.arange(c_cnt)[:, None], s_v + dy, s_h + dx), bank)
    if "center" in cfg.branch_types:
        center = w.center if cfg.center_independent else bank[:, plan.center_block]
        for _e in range(cfg.edges):
            blocks[:, s_v, s_h] += center
    return out
