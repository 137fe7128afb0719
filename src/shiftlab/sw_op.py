"""Shift-stacked emulation of large strip convolutions.

The operator replaces an M x N depthwise strip convolution by a fan-out
group convolution (g = ceil(M/N) small N x N filters per channel) whose
outputs are integer-shifted and summed.  Base displacements are

    d_k = k*N - delta_p,        delta_p = M//2 - N//2,

so that the shifted sum is exactly the strip convolution when each map
is kept on its whole support, N//2 past the image edge ("exact" pad
mode).  "half" mode keeps the grid at H x W and loses boundary
contributions (see :func:`interior_band`), "full" mode enlarges it by
(N-1) - ceil(N/2) in total per axis.  Every mode skips the reads that
leave the grid, which would add +0.0.

Three branch types share one fan-out output: "H" shifts vertically, "W"
shifts horizontally with block indices taken in reverse order, and
"center" applies the middle block k0 = g//2 unshifted.  An edge is one
full set of branches with its own channel-to-shift assignment; branch
results are summed over edges before per-branch normalization.  A
leading slice of ghost channels bypasses the operator unchanged.
"""

from __future__ import annotations

import os
import re
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .rng import CounterRng, permutations
from .reparam import AffineNorm, FoldRequiredError, merge_rep
from .tensor import (FormatError, ShapeError, Tensor, ensure_fresh,
                     from_array, read_container, write_container)

DEFAULT_SEED = 51

BRANCH_H = "H"
BRANCH_W = "W"
BRANCH_CENTER = "center"
ALL_BRANCHES = (BRANCH_H, BRANCH_W, BRANCH_CENTER)

PAD_MODES = ("exact", "half", "full")
ORDER_POLICIES = ("ordered", "disordered", "per_edge_shuffled")


class PlanError(ValueError):
    """Shift plan inconsistent with the grid or configuration."""


class WeightsError(ShapeError):
    """A part of SwWeights that does not fit the config.  `part` is its file
    stem: rep<r>, mask<r>, center or bn_<branch>."""

    def __init__(self, part: str, message: str):
        super().__init__(message)
        self.part = part


@dataclass(frozen=True)
class SwConfig:
    """Full description of one operator instance."""

    m: int                       # long side of the emulated kernel
    n: int                       # short side, odd
    channels: int                # input channel count C
    ghost: float = 0.0           # fraction of channels bypassing, in [0, 1)
    edges: int = 1
    rep_branches: int = 1
    pad_mode: str = "half"
    order_policy: str = "ordered"
    seed: int = DEFAULT_SEED
    branch_types: tuple[str, ...] = ALL_BRANCHES
    center_independent: bool = False
    layer_id: int = 0

    def __post_init__(self):
        if self.n < 1 or self.n % 2 == 0:
            raise ShapeError(f"short side must be odd and positive, got {self.n}")
        if self.m < self.n:
            raise ShapeError(f"long side {self.m} smaller than short side {self.n}")
        if not 0.0 <= self.ghost < 1.0:
            raise ShapeError(f"ghost ratio {self.ghost} outside [0, 1)")
        if self.edges < 1 or self.rep_branches < 1:
            raise ShapeError("edges and rep_branches must be >= 1")
        if self.pad_mode not in PAD_MODES:
            raise ShapeError(f"unknown pad mode {self.pad_mode!r}")
        if self.pad_mode == "full" and self.n == 1:
            raise ShapeError("pad mode 'full' needs a short side of at least 3, got N = 1")
        if self.order_policy not in ORDER_POLICIES:
            raise ShapeError(f"unknown order policy {self.order_policy!r}")
        if self.channels < 1:
            raise ShapeError("channel count must be positive")
        bad = [b for b in self.branch_types if b not in ALL_BRANCHES]
        if bad or not self.branch_types:
            raise ShapeError(f"invalid branch types {self.branch_types}")
        if len(set(self.branch_types)) != len(self.branch_types):
            raise ShapeError(f"repeated branch types {self.branch_types}")
        if self.sw_channels < 1:
            raise ShapeError("ghost ratio leaves no channels on the shift path")

    @property
    def g(self) -> int:
        """Fan-out: number of small filters per channel, ceil(M/N)."""
        return -(-self.m // self.n)

    @property
    def delta_p(self) -> int:
        """Padding discrepancy between large- and small-kernel "same" pads."""
        return self.m // 2 - self.n // 2

    @property
    def ghost_channels(self) -> int:
        return int(self.ghost * self.channels)

    @property
    def sw_channels(self) -> int:
        return self.channels - self.ghost_channels

    def displacements(self) -> tuple[int, ...]:
        return tuple(k * self.n - self.delta_p for k in range(self.g))


@dataclass(frozen=True)
class ShiftPlan:
    """Displacement table per (edge, channel, fan-out index).

    sigma_h/sigma_w hold shift indices in [0, g); the H branch displaces
    block k vertically by d[sigma_h[e, c, k]], the W branch horizontally
    by d[g - 1 - sigma_w[e, c, k]] (reverse order, sharing one table
    unless the policy shuffles only the H branch).  disp_h/disp_w are
    those displacements, read-only int arrays of shape (E, C_sw, g).
    """

    displacements: tuple[int, ...]
    sigma_h: np.ndarray
    sigma_w: np.ndarray
    center_block: int
    disp_h: np.ndarray
    disp_w: np.ndarray

    @property
    def g(self) -> int:
        return len(self.displacements)

    def validate(self, cfg: SwConfig) -> None:
        """Raise PlanError unless the plan has cfg's displacements, sigma_h
        and sigma_w are (E, C_sw, g) tables of indices in [0, g), and
        disp_h == d[sigma_h] and disp_w == d[g - 1 - sigma_w]."""
        sigmas = (self.sigma_h, self.sigma_w)
        if (self.displacements != cfg.displacements()
                or any(s.shape != (cfg.edges, cfg.sw_channels, cfg.g) for s in sigmas)):
            raise PlanError("plan does not match the configuration")
        d = np.asarray(self.displacements)
        if not (all(s.dtype.kind in "iu" and 0 <= s.min() and s.max() < cfg.g for s in sigmas)
                and np.array_equal(self.disp_h, d.take(self.sigma_h))
                and np.array_equal(self.disp_w, d[::-1].take(self.sigma_w))):
            raise PlanError("plan's shift indices or displacement tables are inconsistent")

    def shifts(self, branch_types) -> tuple[np.ndarray, np.ndarray]:
        """(dy, dx) of every shift read, int arrays of shape (R, C_sw, g):
        the H edges (rows move by disp_h, dx = 0), then the W edges (columns
        move by disp_w, dy = 0); R = 0 when neither branch is on."""
        on_h, on_w = BRANCH_H in branch_types, BRANCH_W in branch_types
        zero = np.zeros_like(self.disp_h)
        return (np.concatenate([zero[:0]] + [self.disp_h] * on_h + [zero] * on_w),
                np.concatenate([zero[:0]] + [zero] * on_h + [self.disp_w] * on_w))


def build_shift_plan(cfg: SwConfig) -> ShiftPlan:
    """Deterministic displacement table for one operator instance.

    ordered            sigma[e, c, k] = k everywhere.
    disordered         one permutation per channel, shared by all edges,
                       applied to the H branch only (W stays ordered).
    per_edge_shuffled  a fresh permutation per (edge, channel), shared by
                       the H and W branches.
    """
    g, e_cnt, c_cnt = cfg.g, cfg.edges, cfg.sw_channels
    shape = (e_cnt, c_cnt, g)
    ident = np.broadcast_to(np.arange(g, dtype=np.int64), shape)
    channels = np.arange(c_cnt)
    if cfg.order_policy == "ordered":
        sig_h = sig_w = ident
    elif cfg.order_policy == "disordered":
        sig_h = permutations(cfg.seed, "plan", cfg.layer_id, "disordered", channels, n=g)
        sig_w = ident
    else:  # per_edge_shuffled
        sig_h = sig_w = permutations(cfg.seed, "plan", cfg.layer_id,
                                     np.arange(e_cnt)[:, None], channels, n=g)
    same = sig_w is sig_h
    sig_h = np.array(np.broadcast_to(sig_h, shape))
    sig_w = sig_h if same else np.array(np.broadcast_to(sig_w, shape))
    d = np.asarray(cfg.displacements(), dtype=np.int64)
    disp_h, disp_w = d.take(sig_h), d[::-1].take(sig_w)
    for a in (sig_h, sig_w, disp_h, disp_w):    # fresh arrays, frozen in place
        a.setflags(write=False)
    return ShiftPlan(cfg.displacements(), sig_h, sig_w, g // 2, disp_h, disp_w)


@dataclass
class SwWeights:
    """Fan-out filter banks, masks, and per-branch-type normalization.

    rep[r] is a (C_sw, g, N, N) bank; masks[r] is (C_sw, g) boolean with
    True = kept.  norms maps branch type to an AffineNorm or None
    (identity).  An optional independent (C_sw, N, N) center bank
    replaces the shared k0 block when the config asks for it.
    """

    rep: list[np.ndarray]
    masks: list[np.ndarray]
    norms: dict[str, AffineNorm | None] = field(
        default_factory=lambda: {b: None for b in ALL_BRANCHES})
    center: np.ndarray | None = None

    def validate(self, cfg: SwConfig) -> None:
        """ShapeError unless there is one bank and one mask per Rep branch,
        and WeightsError, naming the part, unless each bank, mask, the
        center bank and every present norm fit cfg and every bank, center
        and norm row is finite."""
        want = (cfg.sw_channels, cfg.g, cfg.n, cfg.n)
        if len(self.rep) != cfg.rep_branches or len(self.masks) != cfg.rep_branches:
            raise ShapeError("branch count disagrees with config")
        for r, (bank, mask) in enumerate(zip(self.rep, self.masks)):
            if bank.shape != want:
                raise WeightsError(f"rep{r}", f"bank shape {bank.shape} != {want}")
            if mask.shape != want[:2]:
                raise WeightsError(f"mask{r}", f"mask shape {mask.shape} != {want[:2]}")
        if cfg.center_independent:
            if self.center is None or self.center.shape != (cfg.sw_channels, cfg.n, cfg.n):
                raise WeightsError("center", "independent center bank missing or misshapen")
        for branch, norm in self.norms.items():
            if norm is not None and norm.channels != cfg.sw_channels:
                raise WeightsError(f"bn_{branch}", f"norm {branch!r} has {norm.channels} "
                                   f"channels, config wants {cfg.sw_channels}")
        values = {f"rep{r}": bank for r, bank in enumerate(self.rep)} | {"center": self.center}
        values |= {f"bn_{b}": norm.as_rows() for b, norm in self.norms.items() if norm is not None}
        for part, a in values.items():
            if a is not None and not np.isfinite(a).all():
                raise WeightsError(part, "non-finite value (NaN or inf)")

    def identity_norms(self, cfg: SwConfig) -> bool:
        """Every active branch's norm is absent or identity."""
        return all(self.norms.get(b) is None or self.norms[b].is_identity()
                   for b in cfg.branch_types)

    def validate_linear(self, cfg: SwConfig, plan: ShiftPlan) -> None:
        """Gate of a route with no per-branch norm stage (densify, ERF, bench):
        validate both, then FoldRequiredError unless identity_norms holds."""
        self.validate(cfg)
        plan.validate(cfg)
        if not self.identity_norms(cfg):
            raise FoldRequiredError("linear-only route: fold normalization first")

    def masked_bank(self, r: int) -> np.ndarray:
        """Branch r with masked filters materialized as exact zeros."""
        return self.rep[r] * self.masks[r][:, :, None, None].astype(self.rep[r].dtype)

    def merged_bank(self) -> np.ndarray:
        return merge_rep([self.masked_bank(r) for r in range(len(self.rep))])


def random_weights(cfg: SwConfig, dtype=np.float64) -> SwWeights:
    """Uniform(-0.5, 0.5) banks, all-kept masks, identity norms."""
    shape = (cfg.sw_channels, cfg.g, cfg.n, cfg.n)
    rep = [CounterRng(cfg.seed, "weights", cfg.layer_id, r).uniform_array(shape, -0.5, 0.5, dtype)
           for r in range(cfg.rep_branches)]
    masks = [np.ones(shape[:2], dtype=bool) for _ in range(cfg.rep_branches)]
    center = None
    if cfg.center_independent:
        center = CounterRng(cfg.seed, "weights", cfg.layer_id, "center").uniform_array(
            (cfg.sw_channels, cfg.n, cfg.n), -0.5, 0.5, dtype)
    return SwWeights(rep=rep, masks=masks, center=center)


def _grid_geometry(cfg: SwConfig, h: int, w: int):
    """Working-grid pads (top, bottom, left, right) and origin for a mode.

    exact: enlarge each side by N//2 on the axes the active branches shift
    along, so the grid holds each map's whole support (an N x N map is
    zero further out).  half: no enlargement.  full: enlarge by
    (N-1) - ceil(N/2) in total per axis (for N = 3 this coincides with
    half), split floor/ceil between the two sides.
    """
    n = cfg.n
    if cfg.pad_mode == "half":
        mt = mb = ml = mr = 0
    elif cfg.pad_mode == "exact":
        mt = mb = n // 2 if BRANCH_H in cfg.branch_types else 0
        ml = mr = n // 2 if BRANCH_W in cfg.branch_types else 0
    else:  # full
        extra = (n - 1) - (-(-n // 2))
        mt, ml = extra // 2, extra // 2
        mb, mr = extra - extra // 2, extra - extra // 2
    return ((mt + n // 2, mb + n // 2), (ml + n // 2, mr + n // 2)), (mt, ml)


def _accumulate_shifted(out: np.ndarray, plane: np.ndarray, dy: int, dx: int,
                        oy: int, ox: int) -> None:
    """out[i, j] += plane[oy + i + dy, ox + j + dx]; reads off the plane are skipped."""
    h, w = out.shape
    mh, mw = plane.shape
    r0, r1 = oy + dy, oy + dy + h
    c0, c1 = ox + dx, ox + dx + w
    rr0, rr1 = max(r0, 0), min(r1, mh)
    cc0, cc1 = max(c0, 0), min(c1, mw)
    if rr0 < rr1 and cc0 < cc1:
        out[rr0 - r0:rr1 - r0, cc0 - c0:cc1 - c0] += plane[rr0:rr1, cc0:cc1]


def from_strip(k):
    """Exact-equivalence constructor from an M x N depthwise strip kernel.

    Partitions the kernel into g = ceil(M/N) row blocks of N rows (the
    last block zero-padded), yielding a single-Rep operator with only the
    vertical-shift branch active; its exact-mode forward reproduces the
    strip convolution up to float summation order.

    Returns (cfg, weights, plan).
    """
    ka = k.data if isinstance(k, Tensor) else np.asarray(k)
    if ka.ndim != 3:
        raise ShapeError("expected a (C, M, N) strip kernel")
    c, m, n = ka.shape
    if m % 2 == 0 or n % 2 == 0:
        raise ShapeError("strip extents must be odd")
    cfg = SwConfig(m=m, n=n, channels=c, pad_mode="exact",
                   branch_types=(BRANCH_H,))
    g = cfg.g
    bank = np.zeros((c, g * n, n), dtype=ka.dtype)
    bank[:, :m] = ka
    weights = SwWeights(rep=[bank.reshape(c, g, n, n)], masks=[np.ones((c, g), bool)])
    return cfg, weights, build_shift_plan(cfg)


def _fanout_maps(xs: np.ndarray, bank: np.ndarray, pads) -> np.ndarray:
    """(C_sw, g, Hg, Wg) fan-out maps on the working grid, read-only."""
    from .conv_ref import fanout_conv
    c, g = bank.shape[0], bank.shape[1]
    flat = fanout_conv(Tensor(np.ascontiguousarray(xs)), bank, pads).data
    return flat.reshape(c, g, flat.shape[1], flat.shape[2])


def sw_forward(x: Tensor, w: SwWeights, cfg: SwConfig, plan: ShiftPlan) -> Tensor:
    """Forward pass of the operator.

    Ghost channels (the leading floor(G*C)) are copied through bitwise.
    The rest go through one fan-out convolution with the merged bank (the
    masked Rep banks summed, ``SwWeights.merged_bank``), per-branch shift
    sums over edges, per-branch normalization, branch summation, and are
    concatenated after the ghost slice.  x is (C, H, W) or a batch
    (B, C, H, W); the output has its shape.

    This reference path is single-threaded and run-to-run deterministic;
    the bench module provides fused implementations of the same contract
    (tolerance 1e-5 in f32).
    """
    xa = x.data if isinstance(x, Tensor) else np.asarray(x)
    if xa.ndim not in (3, 4):
        raise ShapeError(f"expected (C, H, W) or (B, C, H, W) input, got {xa.shape}")
    if xa.shape[-3] != cfg.channels:
        raise ShapeError(f"input has {xa.shape[-3]} channels, config wants {cfg.channels}")
    w.validate(cfg)
    plan.validate(cfg)

    cg = cfg.ghost_channels
    pads, origin = _grid_geometry(cfg, xa.shape[-2], xa.shape[-1])
    bank = w.merged_bank()
    y = np.empty(xa.shape, dtype=xa.dtype)
    image = (-1,) + xa.shape[-3:]
    for img, dst in zip(xa.reshape(image), y.reshape(image)):
        dst[:cg] = img[:cg]
        xs, out = img[cg:], dst[cg:]
        out[:] = 0
        maps = _fanout_maps(xs, bank, pads)
        for branch in ALL_BRANCHES:
            if branch not in cfg.branch_types:
                continue
            acc = np.zeros_like(xs)
            for e in range(cfg.edges):
                _add_branch_edge(acc, maps, xs, branch, e, cfg, plan, origin, w)
            norm = w.norms.get(branch)
            if norm is not None:
                acc = norm.apply(acc)
            out += acc
    return Tensor(y)


def _add_branch_edge(acc, maps, xs, branch, e, cfg, plan, origin, w) -> None:
    """Accumulate one (branch, edge) shift pass."""
    oy, ox = origin
    if branch == BRANCH_CENTER:
        if cfg.center_independent:
            from .conv_ref import strip_conv_ref
            # independent center bank: plain N x N depthwise "same" conv of
            # the raw slice, bypassing the shared fan-out output
            acc += strip_conv_ref(Tensor(np.ascontiguousarray(xs)), w.center).data
            return
        k0 = plan.center_block
        for c in range(acc.shape[0]):
            _accumulate_shifted(acc[c], maps[c, k0], 0, 0, oy, ox)
        return
    disp = (plan.disp_h if branch == BRANCH_H else plan.disp_w)[e].tolist()
    for c, row in enumerate(disp):
        for k, s in enumerate(row):
            dy, dx = (s, 0) if branch == BRANCH_H else (0, s)
            _accumulate_shifted(acc[c], maps[c, k], dy, dx, oy, ox)


def interior_band(cfg: SwConfig, h: int, w: int):
    """Output region where half mode equals exact mode.

    Rows [delta_p, H - 1 - ((g-1)N - delta_p)] when the vertical branch is
    active (full range otherwise), and the analogous column band for the
    horizontal branch.  Returns (row_lo, row_hi, col_lo, col_hi) inclusive,
    or None when the band is empty.
    """
    dp = cfg.delta_p
    up = (cfg.g - 1) * cfg.n - dp
    r0, r1 = (dp, h - 1 - up) if BRANCH_H in cfg.branch_types else (0, h - 1)
    c0, c1 = (dp, w - 1 - up) if BRANCH_W in cfg.branch_types else (0, w - 1)
    if r0 > r1 or c0 > c1:
        return None
    return (r0, r1, c0, c1)


# ---------------------------------------------------------------------------
# serialization: flat key-value operator spec + tensor-container weights
# ---------------------------------------------------------------------------

# key -> (SwConfig field, parse, format), in file order; absent keys take
# SwConfig's defaults
_SPEC = {
    "M": ("m", int, str),
    "N": ("n", int, str),
    "C": ("channels", int, str),
    "G": ("ghost", float, "{:.17g}".format),
    "E": ("edges", int, str),
    "b": ("rep_branches", int, str),
    "pad_mode": ("pad_mode", str, str),
    "order_policy": ("order_policy", str, str),
    "seed": ("seed", int, str),
    "branches": ("branch_types", lambda v: tuple(v.split(",")), ",".join),
    "center_independent": ("center_independent", lambda v: bool(int(v)), "{:d}".format),
    "layer_id": ("layer_id", int, str),
}


def write_operator_spec(cfg: SwConfig, path, force: bool = True) -> None:
    ensure_fresh(path, force)
    with open(path, "w") as fh:
        fh.writelines(f"{key}={fmt(getattr(cfg, name))}\n"
                      for key, (name, _, fmt) in _SPEC.items())


def read_operator_spec(path) -> SwConfig:
    kv = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}: bad line {line!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in _SPEC:
            raise FormatError(f"{path}: unknown key {key!r}")
        if key in kv:
            raise FormatError(f"{path}: duplicate key {key!r}")
        kv[key] = val.strip()

    required = {f.name for f in fields(SwConfig) if f.default is MISSING}
    values = {}
    for key, (name, parse, _) in _SPEC.items():
        if key in kv:
            try:
                values[name] = parse(kv[key])
            except ValueError:
                raise FormatError(f"{path}: key {key!r} is not a number: "
                                  f"{kv[key]!r}") from None
        elif name in required:
            raise FormatError(f"{path}: missing key {key!r}")
    try:
        return SwConfig(**values)
    except ShapeError as exc:
        raise FormatError(f"{path}: {exc}") from None


def save_sw_weights(w: SwWeights, dirpath, force: bool = True) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for r, (bank, mask) in enumerate(zip(w.rep, w.masks)):
        write_container(from_array(bank), os.path.join(dirpath, f"rep{r}.swt"), force)
        write_container(from_array(mask.astype(np.float32)),
                        os.path.join(dirpath, f"mask{r}.swt"), force)
    for branch, norm in w.norms.items():
        if norm is not None:
            write_container(from_array(norm.as_rows()),
                            os.path.join(dirpath, f"bn_{branch}.swt"), force)
    if w.center is not None:
        write_container(from_array(w.center), os.path.join(dirpath, "center.swt"), force)


def load_sw_weights(dirpath, cfg: SwConfig) -> SwWeights:
    rep, masks = [], []
    for r in range(cfg.rep_branches):
        rep.append(read_container(os.path.join(dirpath, f"rep{r}.swt")).data.copy())
        mask = read_container(os.path.join(dirpath, f"mask{r}.swt")).data
        masks.append(mask > 0.5)
    for name in sorted(os.listdir(dirpath)):
        extra = re.fullmatch(r"(?:rep|mask)(\d+)\.swt", name)
        if extra and int(extra[1]) >= cfg.rep_branches:
            raise FormatError(f"{os.path.join(dirpath, name)}: Rep branch {extra[1]}, "
                              f"config wants rep_branches = {cfg.rep_branches}")
    norms: dict[str, AffineNorm | None] = {b: None for b in ALL_BRANCHES}
    for branch in ALL_BRANCHES:
        p = os.path.join(dirpath, f"bn_{branch}.swt")
        if os.path.exists(p):
            try:
                norms[branch] = AffineNorm.from_rows(read_container(p).data)
            except ShapeError as exc:
                raise FormatError(f"{p}: {exc}") from None
    center = None
    cp = os.path.join(dirpath, "center.swt")
    if os.path.exists(cp):
        center = read_container(cp).data.copy()
    w = SwWeights(rep=rep, masks=masks, norms=norms, center=center)
    try:
        w.validate(cfg)
    except WeightsError as exc:
        raise FormatError(f"{os.path.join(dirpath, exc.part)}.swt: {exc}") from None
    return w
