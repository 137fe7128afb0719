"""Quantitative analytics: coverage, effective receptive fields, budgets.

Coverage measures how much of the output grid each fan-out map can reach
once shifted: the union over edges of its in-grid destination region,
painted on a boolean grid.  With ordered assignments the union is a
single band, so adding edges changes nothing; shuffled assignments make
the union grow with the edge count.

ERF maps are computed for stacks of linear depthwise components via the
adjoint pass: correlation with the flipped kernel, which for the
exact-mode operator is its `densify` kernel.  On the centred delta that
starts the pass, the last operator's adjoint is that kernel itself,
centred.  A dot-product test checks the adjoint against the forward pass,
and the brute-force impulse-response path of the tests (one forward pass
per probe pixel) is the independent cross-check of whole maps.

The budget walker counts parameters and multiply-accumulates for the
four-stage architecture; per-experiment closed forms are evaluated next
to an instrumented tap-walking count so the two can be compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conv_ref import strip_conv_ref
from .reparam import densify
# unused here; bound because shiftbench/run.py wraps analysis.sw_forward
from .sw_op import SwConfig, SwWeights, ShiftPlan, build_shift_plan, sw_forward  # noqa: F401
from .tensor import ShapeError


# ---------------------------------------------------------------------------
# coverage / utilization
# ---------------------------------------------------------------------------

@dataclass
class CoverageResult:
    rows: list[tuple[int, float, float, float]]   # (seed, mean, min, max)
    mean_util: float
    min_util: float
    max_util: float


def coverage_ratio(m: int, n: int, h: int, w: int, edges: int, policy: str,
                   seeds, channels: int = 1) -> CoverageResult:
    """Boolean-grid utilization statistics of the vertical shift branch.

    For each (channel, fan-out index) the destination cells reachable
    under the assigned displacement are painted for every edge; the
    utilization of that map is |union| / (H * W).  Statistics are taken
    over maps and channels, then averaged over seeds.
    """
    rows = []
    for seed in seeds:
        cfg = SwConfig(m=m, n=n, channels=channels, edges=edges,
                       order_policy=policy, seed=int(seed))
        dest = np.arange(h) + build_shift_plan(cfg).disp_h[..., None]
        covered = ((dest >= 0) & (dest < h)).any(axis=0)   # (C, g, H) rows
        utils = (covered.sum(axis=-1) * w / (h * w)).ravel()
        rows.append((int(seed), float(np.mean(utils)), float(np.min(utils)),
                     float(np.max(utils))))
    return CoverageResult(
        rows,
        mean_util=float(np.mean([r[1] for r in rows])),
        min_util=float(np.min([r[2] for r in rows])),
        max_util=float(np.max([r[3] for r in rows])),
    )


# ---------------------------------------------------------------------------
# effective receptive field
# ---------------------------------------------------------------------------

@dataclass
class ConvLayer:
    """Depthwise odd-kernel "same" convolution component."""
    kernel: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=np.float64)
        if k.ndim != 3 or k.shape[1] % 2 == 0 or k.shape[2] % 2 == 0:
            raise ShapeError("ConvLayer wants an odd (C, kh, kw) kernel")
        self.kernel = k

    @property
    def channels(self) -> int:
        return self.kernel.shape[0]


@dataclass
class SwLayer:
    """Exact-mode operator component; normalization must be identity."""
    cfg: SwConfig
    weights: SwWeights
    plan: ShiftPlan

    def __post_init__(self):
        self.weights.validate_linear(self.cfg, self.plan)

    @property
    def channels(self) -> int:
        return self.cfg.channels


def _adjoint_conv(z: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Adjoint of the depthwise "same" correlation: the flipped kernel."""
    return strip_conv_ref(z, kernel[:, ::-1, ::-1])


def _strip_corr(z: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Depthwise "same" correlation of (C, h, w) z with an odd (C, L, N)
    strip as one (C, h, N*h) @ (C, N*h, w) matmul, in O(C*N*h^2*w): block v
    of the left factor is the Toeplitz T_v[i, i'] = k[i' - i + L//2, v], a
    window view of the strip zero-padded and clipped to 2h - 1 rows."""
    (c, h, w), (ln, n) = z.shape, k.shape[1:]
    band = np.pad(k, ((0, 0), (h - 1, h - 1), (0, 0)))[:, ln // 2:ln // 2 + 2 * h - 1]
    # row i of every T_v is the window that starts at band row h - 1 - i
    toeplitz = sliding_window_view(band, h, axis=1)[:, ::-1].transpose(0, 1, 3, 2)
    shifts = sliding_window_view(np.pad(z, ((0, 0), (0, 0), (n // 2, n // 2))), w, axis=2)
    return toeplitz.reshape(c, h, h * n) @ shifts.reshape(c, h * n, w)


def _exact_kernel(layer: SwLayer) -> np.ndarray:
    """The exact-mode operator's `densify` kernel; the ERF gate on pad mode."""
    if layer.cfg.pad_mode != "exact":
        raise ShapeError("ERF adjoint is defined for exact pad mode")
    return densify(layer.weights, layer.plan, layer.cfg)


def _adjoint_sw(z: np.ndarray, layer: SwLayer) -> np.ndarray:
    """Adjoint of the exact-mode operator: ghosts pass through, and the rest
    is the "same" correlation with the flipped `densify` kernel, whose
    nonzeros lie in its middle N columns and rows: one `_strip_corr` per
    strip, the horizontal one on transposed arrays and without the center
    block, which the vertical one holds.  Structural zeros stay exact.
    `erf_map` runs it for an operator in a stack of more than one
    component; a single operator's field is `_impulse_field`."""
    cg, n = layer.cfg.ghost_channels, layer.cfg.n
    kernel = _exact_kernel(layer)[:, ::-1, ::-1].astype(z.dtype)
    s_v, s_h = (e // 2 - n // 2 for e in kernel.shape[1:])
    cols = kernel[:, :, s_h:s_h + n].copy()
    kernel[:, s_v:s_v + n, s_h:s_h + n] = 0
    zs, rows = z[cg:], kernel[:, s_v:s_v + n]
    adj = (_strip_corr(zs, cols)
           + _strip_corr(zs.swapaxes(1, 2), rows.swapaxes(1, 2)).swapaxes(1, 2))
    return np.concatenate((z[:cg], adj))


def _impulse_field(layer: SwLayer, probe_size: int) -> np.ndarray:
    """`np.abs(_adjoint_sw(delta)).mean(axis=0)` for the centred delta, in
    O(C*kh*kw): the adjoint maps it to the operator's `densify` kernel,
    unflipped, centred on the probe and cropped to it, while ghosts keep
    the delta, and the (C, P, P) result is zero outside that window.
    Plane 0 holds the ghost count at the centre (the ghost deltas summed,
    exact), the others |kernel window|: each pixel adds the same values in
    the same channel order as the cube's mean, so the field is bitwise it."""
    kernel = _exact_kernel(layer)
    (kh, kw), mid = kernel.shape[1:], probe_size // 2
    rv, rh = min(kh // 2, mid), min(kw // 2, mid)
    planes = np.zeros((kernel.shape[0] + 1, 2 * rv + 1, 2 * rh + 1))
    planes[0, rv, rh] = layer.cfg.ghost_channels
    np.abs(kernel[:, kh // 2 - rv:kh // 2 + rv + 1, kw // 2 - rh:kw // 2 + rh + 1],
           out=planes[1:])
    field = np.zeros((probe_size, probe_size))
    field[mid - rv:mid + rv + 1, mid - rh:mid + rh + 1] = planes.sum(axis=0) / layer.channels
    return field


def _erf_channels(stack, probe_size: int) -> int:
    if probe_size % 2 == 0 or probe_size < 1:
        raise ShapeError("probe size must be odd and positive")
    if not stack:
        raise ShapeError("empty component stack")
    if any(layer.channels != stack[0].channels for layer in stack):
        raise ShapeError("component channel counts disagree")
    return stack[0].channels


def erf_map(stack, probe_size: int = 63) -> np.ndarray:
    """|d y_center / d x[p]| for a stack of linear components, max-normalized.

    One adjoint application of the composed operator to a delta at the
    output center; per-channel sensitivities are averaged before
    normalization.  A stack that is one `SwLayer` runs no adjoint: its
    averaged field is summed over the kernel's window alone
    (`_impulse_field`), O(C*kh*kw) rather than O(C*P^2).
    """
    channels = _erf_channels(stack, probe_size)
    if len(stack) == 1 and isinstance(stack[0], SwLayer):
        field_abs = _impulse_field(stack[0], probe_size)
    else:
        mid = probe_size // 2
        z = np.zeros((channels, probe_size, probe_size), dtype=np.float64)
        z[:, mid, mid] = 1.0
        for layer in reversed(stack):
            z = _adjoint_conv(z, layer.kernel) if isinstance(layer, ConvLayer) \
                else _adjoint_sw(z, layer)
        field_abs = np.abs(z).mean(axis=0)
    peak = field_abs.max()
    return field_abs / peak if peak > 0 else field_abs


# ---------------------------------------------------------------------------
# parameter / MAC accounting
# ---------------------------------------------------------------------------

FFN_RATIO = 4        # pointwise FFN expansion of every block (fixed)
NUM_CLASSES = 1000   # classes of the linear head (fixed)


@dataclass(frozen=True)
class ArchSpec:
    """Four-stage backbone description.

    The block internals beyond the shift operator follow the inherited
    design: LayerNorm, pointwise FFN with expansion 4, a learnable
    per-channel scale, two stride-2 3x3 stem convolutions (3 -> C/2 -> C),
    one stride-2 3x3 convolution per stage transition and a 1000-class
    head.  Budget totals depend on these fixed assumptions, hence the +-10%
    acceptance band.
    """

    depths: tuple[int, ...] = (3, 3, 18, 3)
    dims: tuple[int, ...] = (80, 160, 320, 640)
    stage_m: tuple[int, ...] = (51, 49, 47, 13)
    n: int = 3
    ghost: float = 0.23
    edges: int = 4
    rep_branches: int = 2

    def __post_init__(self):
        if len(self.depths) != 4 or len(self.dims) != 4 or len(self.stage_m) != 4:
            raise ShapeError("exactly four stages required")
        if any(self.dims[i + 1] != 2 * self.dims[i] for i in range(3)):
            raise ShapeError("stage dims must double")
        if not 0.0 <= self.ghost < 1.0:
            raise ShapeError(f"ghost ratio {self.ghost} outside [0, 1)")

    @classmethod
    def sw_tiny(cls) -> "ArchSpec":
        return cls(depths=(3, 3, 18, 3), dims=(80, 160, 320, 640))

    @classmethod
    def sw_small(cls) -> "ArchSpec":
        return cls(depths=(3, 3, 27, 3), dims=(96, 192, 384, 768))

    def stage_dim(self, i: int) -> int:
        return self.dims[i]

    def stage_g(self, i: int) -> int:
        return -(-self.stage_m[i] // self.n)

    def stage_fanouts(self) -> list[int]:
        return [self.stage_g(i) for i in range(4)]

    def sw_channels(self, i: int) -> int:
        d = self.stage_dim(i)
        return d - int(self.ghost * d)

    def layer_names(self) -> list[str]:
        return [f"stage{i}.block{j}" for i in range(4) for j in range(self.depths[i])]

    def stage_of(self, name: str) -> int:
        return int(name.split(".")[0].removeprefix("stage"))

    @staticmethod
    def ghost_for_width(r: float) -> float:
        """Ghost ratio compensating a width factor: R (1 - G) = 1."""
        if r < 1:
            raise ShapeError("width factor must be >= 1")
        return 1.0 - 1.0 / r


@dataclass
class CountRow:
    name: str
    kind: str
    params: int
    macs: int
    closed_form: float = 0.0

    @property
    def delta(self) -> float:
        return self.macs - self.closed_form if self.closed_form else 0.0


@dataclass
class CountReport:
    rows: list[CountRow] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    def add(self, name, kind, params, macs, closed_form=0.0):
        self.rows.append(CountRow(name, kind, int(params), int(macs), closed_form))


def _conv_counts(c_in, c_out, k, out_hw):
    params = c_out * c_in * k * k + c_out
    macs = out_hw * out_hw * c_out * c_in * k * k
    return params, macs


def count_macs(arch: ArchSpec, input_size: int = 224, masks=None) -> CountReport:
    """Instrumented parameter and MAC walk (inference view: Rep branches merged)."""
    rep = CountReport()
    d0 = arch.stage_dim(0)
    s = input_size // 2
    p, m = _conv_counts(3, d0 // 2, 3, s)
    rep.add("stem.conv1", "conv", p + 2 * (d0 // 2), m)
    s //= 2
    p, m = _conv_counts(d0 // 2, d0, 3, s)
    rep.add("stem.conv2", "conv", p + 2 * d0, m)

    size = s
    for i in range(4):
        dim = arch.stage_dim(i)
        c_sw = arch.sw_channels(i)
        g = arch.stage_g(i)
        if i > 0:
            prev = arch.stage_dim(i - 1)
            size //= 2
            p, m = _conv_counts(prev, dim, 3, size)
            rep.add(f"down{i}", "conv", p + 2 * prev, m)
        if size < 1:
            raise ShapeError(f"input size {input_size} leaves stage {i} an empty 0x0 map; "
                             f"count_macs needs at least 32")
        for j in range(arch.depths[i]):
            name = f"stage{i}.block{j}"
            kept = c_sw * g
            if masks is not None and name in masks:
                kept = int(np.logical_or.reduce(masks[name]).sum())
            sw_params = kept * arch.n * arch.n + 3 * 2 * c_sw
            sw_macs = kept * arch.n * arch.n * size * size
            closed = float(c_sw * g * arch.n * arch.n * size * size)
            rep.add(f"{name}.sw", "sw", sw_params, sw_macs, closed)
            hidden = FFN_RATIO * dim
            p1, m1 = dim * hidden + hidden, size * size * dim * hidden
            p2, m2 = hidden * dim + dim, size * size * hidden * dim
            extras = 2 * dim + dim  # layer norm + per-channel scale
            rep.add(f"{name}.ffn", "ffn", p1 + p2 + extras, m1 + m2)
    dim = arch.stage_dim(3)
    rep.add("head", "linear", 2 * dim + dim * NUM_CLASSES + NUM_CLASSES,
            dim * NUM_CLASSES)
    return rep


# ---------------------------------------------------------------------------
# per-experiment closed forms vs instrumented tap walking
# ---------------------------------------------------------------------------

EXPERIMENT_IDS = ("#0", "#1", "#2", "#3", "#4", "#5", "#6", "#7")


def _walk_taps(bank: np.ndarray) -> int:
    """Count taps by iterating the actual bank, one row at a time."""
    taps = 0
    flat = bank.reshape(-1, bank.shape[-2], bank.shape[-1])
    for filt in flat:
        for row in filt:
            taps += row.shape[0]
    return taps


def experiment_counts(exp: str, m: int, n: int, c: int, h: int, w: int,
                      ghost: float = 0.23) -> tuple[float, float]:
    """(instrumented, closed_form) per-channel MAC-style counts.

    The closed forms are the frozen replacement-experiment expressions;
    the instrumented side walks real filter banks and derives grid sizes
    by sliding-window arithmetic over the stated working grid.  The #5
    term mixes normalization parameters into the count and is walked the
    same way; ghost scaling applies the exact factor (1 - G) on both
    sides so the comparison stays bit-for-bit.
    """
    if exp not in EXPERIMENT_IDS:
        raise ShapeError(f"unknown experiment {exp!r}")
    g = -(-m // n)
    dp = m // 2 - n // 2
    if exp == "#0":
        bank = np.zeros((1, m, n))
        inst = _walk_taps(bank) * _positions(h, w, m, n) * 2
        closed = float(h * w * m * n * 2)
        return float(inst), closed
    if exp == "#7":
        g3 = -(-m // 3)
        bank = np.zeros((1, g3, 3, 3))
        inst = _walk_taps(bank) * _positions(h, w, 3, 3) * (1.0 - ghost)
        closed = (h * w * g3 * 3 * 3) * (1.0 - ghost)
        return float(inst), closed
    bank = np.zeros((1, g, n, n))
    taps = _walk_taps(bank)
    if exp == "#1":
        inst = taps * _positions(h + dp, w + dp, n, n) * 2
        closed = float((h + dp) * (w + dp) * g * n * n * 2)
        return float(inst), closed
    if exp == "#2":
        extra = (n - 1) - (-(-n // 2))
        inst = taps * _positions(h + extra, w + extra, n, n)
        closed = float((h + extra) * (w + extra) * g * n * n)
        return float(inst), closed
    base_closed = float(h * w * g * n * n)
    if exp == "#3":
        return float(taps * _positions(h, w, n, n)), base_closed
    if exp == "#4":
        merged = np.zeros((1, g, n, n)) + np.zeros((1, g, n, n))
        return float(_walk_taps(merged) * _positions(h, w, n, n)), base_closed
    norm_units = 0
    for _ in range(3):
        gamma, beta = np.zeros(c), np.zeros(c)
        norm_units += gamma.shape[0] + beta.shape[0]
    if exp == "#5":
        inst = taps * _positions(h, w, n, n) + norm_units
        return float(inst), base_closed + (c * 2) * 3
    # "#6"
    inst = (taps * _positions(h, w, n, n) + norm_units) * (1.0 - ghost)
    closed = (base_closed + (c * 2) * 3) * (1.0 - ghost)
    return float(inst), closed


def _positions(grid_h: int, grid_w: int, kh: int, kw: int) -> int:
    """Sliding positions of a kh x kw window under "same" padding."""
    out_h = grid_h + 2 * (kh // 2) - kh + 1
    out_w = grid_w + 2 * (kw // 2) - kw + 1
    return out_h * out_w
