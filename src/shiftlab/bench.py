"""CPU performance harness for the fused shift-composed operator.

Two implementation variants compute the identical result:

    naive  materialize all g fan-out maps, then shift-add them in a
           second pass
    fused  shift-add each map into the destination as soon as it is
           produced, one chunk of channels at a time; no buffer
           proportional to g*C*H*W ever exists

Both share one shift-add engine.  Fan-out maps are written into one flat
staging buffer whose zero gaps are shared margins: each grid row is
followed by max(left, right) zero columns, also the left margin of the
next row, and each map by max(top, bottom) zero rows, also the top margin
of the next map.  A margin covers the reads the plan makes past that grid
edge, capped at H rows (W columns).  Over an (H, W)-window view of the
buffer every read is one flat offset, so each (map k, branch, edge) is one
window per channel of the chunk; out-of-grid reads add +0.0.  The reads of
a map are gathered several at a time, as many as fit in the chunk's own
staging buffer (at least one), and added one read at a time.  The read
tables -- the window offset of every shifted read, the center window and
the in-grid read counts of each map -- are built once per runner, with the
plan and the bank; only the staging views are made on each run.

The fan-out conv computes rows wide: the padded input (one spare zero row
at the bottom) is viewed flat per channel, and tap (u, v) reads Hg whole
padded rows (Wp = Wg + N - 1 columns each) from element u*Wp + v on, into a
flat accumulator; copying the accumulator into the staging buffer's grid
drops the N - 1 wrap-around columns of each row.  The flat planes of a
chunk of channels are first copied N times into a row-shift buffer, copy v
shifted left by v, so that all N*N taps are one einsum over a zero-copy
(c, u, v, Hg*Wp) view of it; einsum sums (u, v) in order from zero, as the
tap loop does.  The row-shift copy stays because the same einsum over a
zero-copy (c, u, v, Hg*Wp) view of the padded input itself, with strides
(plane, Wp, 1, 1), makes numpy reorder its loops: at the sw_tiny chunk
sizes it ran 2.3 to 13.8 times slower than copy plus einsum (stage 0, f32,
9 channels: 1231 us against 89 us, on a 2-core Xeon with numpy 2.4.6),
and its output was not bitwise equal.  Masked filters are skipped: a fused
chunk is drawn from the channels that keep map k, and when they are not
contiguous the copy into the row-shift buffer is a gather.  A fused
chunk's staging buffer, accumulator and row-shift buffer hold no more
elements than one (C_sw, Hg, Wg) map.  Where that leaves no room for one channel's row-shift
copies (grids of a few pixels, and layers whose few channels make one map
smaller than one channel's buffers, such as 8 channels of an m = 51
operator at 24 x 24), fused runs one channel at a time through the tap
loop, one contiguous multiply-add per tap, with no row-shift buffer.

Both variants share one accumulation order per output element -- for
each map k, the H edges, then the W edges, then the center -- so
checksums are bitwise identical in deterministic mode (the destination
is never -0.0, so adding +0.0 changes no bit); the documented "relaxed"
switch reverses the map order, which permits a 1e-5 (f32) tolerance.
Instrumentation counts destination-accumulation events per fan-out
(conv output) pixel, from in-grid reads only -- each conv-output pixel is
moved at most once per edge by each shift branch plus once by the center
branch, so the aggregate stays below 2E + 1 -- and the peak bytes of
variant-owned staging buffers (zero-gap buffer, conv accumulator, row-shift
buffer), which excludes the shared padded input and the final output.  The
peak is the sum of these buffers, as each one lives until the run ends.  It
also leaves out numpy temporaries: the block of windows each grouped read
gathers, the gathered planes of a gappy chunk before they land in the
row-shift buffer, the product of every tap of the tap loop and each map's
offset table.  With tracemalloc around one f32 fused run of the sw_tiny
stage-0 layer (seed 1), the traced peak less the output and padded input
is 1183787 to 1187955 B over three runs, against 718416 B reported.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .rng import CounterRng
from .sw_op import (BRANCH_CENTER, BRANCH_H, BRANCH_W, SwConfig, SwWeights,
                    build_shift_plan, random_weights, sw_forward,
                    _grid_geometry)
from .tensor import ShapeError, Tensor

VARIANTS = ("naive", "fused")

DESK_CONFIG = dict(m=51, n=3, channels=64, edges=4, ghost=0.0,
                   order_policy="per_edge_shuffled")


@dataclass
class _Instr:
    """Counters of one run, and byte accounting for variant-owned staging."""
    moves: int = 0          # destination-accumulation events (elements)
    macs: int = 0           # multiply-accumulates in the conv stage
    peak: int = 0           # staging bytes taken; each buffer lives to the run's end

    def take(self, arr: np.ndarray) -> np.ndarray:
        self.peak += arr.nbytes
        return arr


@dataclass
class BenchReport:
    variant: str
    config_digest: str
    samples_ns: list[int]
    median_ns: float
    mad_ns: float
    moves_per_pixel: float
    peak_intermediate_bytes: int
    checksum: str


def _row_shifts(flat: np.ndarray, n: int, span: int) -> np.ndarray:
    """Zero-copy (C, N, span) view of the flat padded planes: [c, v] is
    channel c's plane from element v on, i.e. shifted left by v."""
    item = flat.itemsize
    return as_strided(flat, (flat.shape[0], n, span), (flat.strides[0], item, item),
                      writeable=False)


def _shift_rows(shifted: np.ndarray, idx, rows: np.ndarray) -> None:
    """rows[i] = shifted[idx][i]: the N row-shifted copies of each channel of
    idx, in one call from the _row_shifts view.  A gappy idx gathers through
    a temporary the size of rows."""
    rows[:] = shifted[idx]


def _tap_view(rows: np.ndarray, gh: int, wp: int) -> np.ndarray:
    """Zero-copy (c, u, v, Hg * Wp) view of a row-shift buffer: tap (u, v)
    of channel c reads Hg whole padded rows (Wp columns each) at
    rows[c, v, u * Wp:]."""
    _, n, span = rows.shape
    item = rows.itemsize
    return as_strided(rows, (rows.shape[0], n, n, gh * wp),
                      (rows.strides[0], wp * item, span * item, item), writeable=False)


def _conv_slice(view: np.ndarray, taps: np.ndarray, acc: np.ndarray,
                wide: np.ndarray, out: np.ndarray) -> None:
    """out[c] = sum_uv taps[c, u, v] * input window; fixed (u, v) order.

    view is the _tap_view of the chunk's row-shift buffer, so all N * N taps
    are one einsum into the flat (c, Hg * Wp) accumulator acc; einsum sums
    (u, v) in order from zero, as _conv_taps does.  wide is acc's
    (c, Hg, Wg) view without the last N - 1 columns of each wide row, which
    wrap into the next row.
    """
    np.einsum("cuv,cuvp->cp", taps, view, out=acc)
    out[:] = wide


def _conv_taps(xpad: np.ndarray, taps: np.ndarray, acc: np.ndarray,
               wide: np.ndarray, out: np.ndarray) -> None:
    """_conv_slice without the row-shifted copies: each tap is one contiguous
    multiply-add of Hg whole padded rows of the flat plane into acc; xpad's
    spare zero row keeps the last tap in bounds."""
    c, _, wp = xpad.shape
    n = taps.shape[1]
    gh = out.shape[1]
    flat = xpad.reshape(c, -1)
    acc[:] = 0.0
    for u in range(n):
        for v in range(n):
            s = u * wp + v
            acc += taps[:, u, v][:, None] * flat[:, s:s + gh * wp]
    out[:] = wide


def _add_map(out: np.ndarray, idx, win: np.ndarray, offs: np.ndarray, room: int,
             center: np.ndarray, repeats: int) -> None:
    """out[idx] += win[o] for each row o of offs in turn, then += center,
    `repeats` times: one map's (branch, edge) reads in canonical order.

    Column i of offs reads for channel i of idx.  Each fancy-index call
    gathers as many reads as fit in `room` elements, and at least one, into
    a numpy temporary; the adds still run one read at a time, so the result
    does not depend on the group size.
    """
    dst = out[idx]
    group = max(1, room // dst.size)
    for j in range(0, len(offs), group):
        for read in win[offs[j:j + group]]:
            dst += read
    for _e in range(repeats):
        dst += center
    if not isinstance(idx, slice):
        out[idx] = dst


def _channel_index(sel: np.ndarray):
    """A slice when the channel ids are contiguous, else the ids themselves."""
    if sel[-1] - sel[0] + 1 == sel.size:
        return slice(int(sel[0]), int(sel[-1]) + 1)
    return sel


class _Runner:
    """Shared state for one benchmark problem instance."""

    def __init__(self, cfg: SwConfig, h: int, w: int, dtype: str = "f32",
                 weights: SwWeights | None = None):
        self.cfg = cfg
        self.h, self.w = h, w
        self.np_dtype = {"f32": np.float32, "f64": np.float64}.get(dtype)
        if self.np_dtype is None:
            raise ShapeError(f"unknown dtype {dtype!r}; bench runs f32 or f64")
        self.plan = build_shift_plan(cfg)
        if weights is None:
            weights = random_weights(cfg, dtype=self.np_dtype)
        weights.validate_linear(cfg, self.plan)
        self.weights = weights
        if cfg.center_independent and BRANCH_CENTER in cfg.branch_types:
            raise ShapeError("bench variants add the shared center block k0; "
                             "center_independent is not supported")
        self.bank = weights.merged_bank().astype(self.np_dtype)
        self.kept = [np.flatnonzero(np.logical_or.reduce([m[:, k] for m in weights.masks]))
                     for k in range(cfg.g)]
        self.x = CounterRng(cfg.seed, "bench-x").uniform_array(
            (cfg.channels, h, w), -0.5, 0.5, self.np_dtype)
        pads, (oy, ox) = _grid_geometry(cfg, h, w)
        (pt, pb), (pl, pr) = pads
        self.pads = (pt, pb, pl, pr)
        gh = self.gh = h + pt + pb - cfg.n + 1
        gw = self.gw = w + pl + pr - cfg.n + 1
        on_h, on_w = BRANCH_H in cfg.branch_types, BRANCH_W in cfg.branch_types
        d = self.plan.displacements
        dys = d if on_h else (0,)
        dxs = d if on_w else (0,)
        # zero rows/columns (top, bottom, left, right) around the working grid:
        # each side covers the reads past that grid edge, at most h (w)
        self.margins = mt, mb, ml, mr = (min(h, max(0, -(oy + min(dys)))),
                                         min(h, max(0, oy + max(dys) + h - gh)),
                                         min(w, max(0, -(ox + min(dxs)))),
                                         min(w, max(0, ox + max(dxs) + w - gw)))
        # staging layout: row pitch, elements per map and zeros before map 0
        p = self.pitch = gw + max(ml, mr)
        self.slot = (gh + max(mt, mb)) * p
        self.lead = mt * p + ml
        # read tables, for a map in staging slot 0: the window offset of each
        # read [r, c, k] (the H edges, then the W edges, clipped into the
        # margins), the unshifted center window, the map k the center branch
        # reads (None when it is off) and the in-grid reads [c, k] over all
        # branches and edges
        ry = oy + self.plan.disp_h     # first map row each H read needs
        cx = ox + self.plan.disp_w     # first map column each W read needs
        self.moved = np.zeros((cfg.sw_channels, cfg.g), dtype=np.int64)
        reads = [ry[:0]]               # no edges when neither shift branch is on
        if on_h:
            self.moved += ((np.minimum(ry + h, gh) - np.maximum(ry, 0)).clip(0) * w).sum(0)
            reads.append(self.lead + np.clip(ry, -mt, gh + mb - h) * p + ox)
        if on_w:
            self.moved += ((np.minimum(cx + w, gw) - np.maximum(cx, 0)).clip(0) * h).sum(0)
            reads.append(self.lead + oy * p + np.clip(cx, -ml, gw + mr - w))
        self.reads = np.concatenate(reads)
        self.center = self.lead + oy * p + ox
        self.center_map = None
        if BRANCH_CENTER in cfg.branch_types:
            self.center_map = self.plan.center_block
            self.moved[:, self.center_map] += cfg.edges * h * w

    def padded_input(self) -> np.ndarray:
        cg = self.cfg.ghost_channels
        xs = self.x[cg:]
        pt, pb, pl, pr = self.pads
        # one spare zero row below the padded plane for the last tap's wide rows
        xpad = np.zeros((xs.shape[0], self.h + pt + pb + 1, self.w + pl + pr),
                        dtype=self.np_dtype)
        xpad[:, pt:pt + self.h, pl:pl + self.w] = xs
        return xpad

    def _staging(self, slots: int, instr: _Instr):
        """A zeroed staging buffer of `slots` maps, its (slots, Hg, Wg) grid
        view and its window view: win[o] is the (h, w) window at element o."""
        buf = instr.take(np.zeros(self.lead + slots * self.slot, dtype=self.np_dtype))
        p, item = self.pitch, buf.itemsize
        grid = buf[self.lead:].reshape(slots, self.slot // p, p)[:, :self.gh, :self.gw]
        win = as_strided(buf, (buf.size - (self.h - 1) * p - self.w + 1, self.h, self.w),
                         (item, p * item, item), writeable=False)
        return buf, grid, win

    # ---- the two variants --------------------------------------------------

    def run(self, variant: str, instr: _Instr, relaxed: bool = False) -> np.ndarray:
        if variant not in VARIANTS:
            raise ShapeError(f"unknown variant {variant!r}")
        cg = self.cfg.ghost_channels
        out_full = np.zeros_like(self.x)
        out_full[:cg] = self.x[:cg]
        xpad = self.padded_input()
        ks = list(range(self.cfg.g))
        if relaxed:
            ks = ks[::-1]
        run = self._run_naive if variant == "naive" else self._run_fused
        run(out_full[cg:], xpad, ks, instr)
        return out_full

    def _rows(self, xpad, chunk, instr):
        """A counted row-shift buffer for `chunk` channels, its _tap_view and
        the _row_shifts view of xpad that fills it."""
        n, wp = self.cfg.n, xpad.shape[2]
        span = (self.gh + n - 1) * wp
        rows = instr.take(np.empty((chunk, n, span), dtype=self.np_dtype))
        shifted = _row_shifts(xpad.reshape(xpad.shape[0], -1), n, span)
        return rows, _tap_view(rows, self.gh, wp), shifted

    def _acc(self, chunk, wp, instr):
        """A counted flat (chunk, Hg * Wp) conv accumulator and its
        (chunk, Hg, Wg) view without the wrap-around columns."""
        acc = instr.take(np.empty((chunk, self.gh * wp), dtype=self.np_dtype))
        return acc, acc.reshape(chunk, self.gh, wp)[:, :, :self.gw]

    def _run_naive(self, out, xpad, ks, instr):
        cfg = self.cfg
        c_sw = cfg.sw_channels
        # map k of channel c sits in slot k * c_sw + c
        maps, grid, win = self._staging(cfg.g * c_sw, instr)
        acc, wide = self._acc(c_sw, xpad.shape[2], instr)
        rows, view, shifted = self._rows(xpad, c_sw, instr)
        _shift_rows(shifted, slice(None), rows)
        for k in ks:
            _conv_slice(view, self.bank[:, k], acc, wide, grid[k * c_sw:(k + 1) * c_sw])
        instr.macs += len(ks) * c_sw * cfg.n * cfg.n * self.gh * self.gw
        at = np.arange(c_sw) * self.slot
        for k in ks:
            first = k * c_sw
            _add_map(out, slice(None), win, self.reads[:, :, k] + (first * self.slot + at),
                     maps.size, win[self.center + first * self.slot::self.slot][:c_sw],
                     cfg.edges if k == self.center_map else 0)
            instr.moves += int(self.moved[:, k].sum())

    def _run_fused(self, out, xpad, ks, instr):
        cfg = self.cfg
        wp = xpad.shape[2]
        span = (self.gh + cfg.n - 1) * wp
        chunk = ((cfg.sw_channels * self.gh * self.gw - self.lead)
                 // (self.slot + self.gh * wp + cfg.n * span))
        # where one channel's rows do not fit, run one channel (always a
        # slice of xpad) at a time through the tap loop
        taps_only = chunk == 0
        chunk = max(chunk, 1)
        buf, grid, win = self._staging(chunk, instr)
        acc, wide = self._acc(chunk, wp, instr)
        rows, view, shifted = self._rows(xpad, 0 if taps_only else chunk, instr)
        # the slot of each kept channel within its chunk, and the center
        # window of every slot
        at = np.arange(cfg.sw_channels) % chunk * self.slot
        center = win[self.center::self.slot]
        macs = cfg.n * cfg.n * self.gh * self.gw
        for k in ks:
            kept = self.kept[k]
            bank = self.bank[:, k]
            offs = self.reads[:, kept, k] + at[:kept.size]
            repeats = cfg.edges if k == self.center_map else 0
            for i in range(0, kept.size, chunk):
                sel = kept[i:i + chunk]
                idx = _channel_index(sel)
                m = sel.size
                if taps_only:
                    _conv_taps(xpad[idx], bank[idx], acc, wide, grid)
                else:
                    _shift_rows(shifted, idx, rows[:m])
                    _conv_slice(view[:m], bank[idx], acc[:m], wide[:m], grid[:m])
                _add_map(out, idx, win, offs[:, i:i + m], buf.size, center[:m], repeats)
            instr.macs += kept.size * macs
            instr.moves += int(self.moved[kept, k].sum())


def measure(cfg: SwConfig, h: int, w: int, variants, reps: int = 5,
            dtype: str = "f32", relaxed: bool = False, warmup: int = 3,
            weights: SwWeights | None = None) -> list[BenchReport]:
    """Time the variants round-robin on one problem instance: warmup + reps
    rounds, each running every variant once; samples exclude the warmup rounds.

    Interleaving makes slow machine-load drift hit every variant equally,
    which is what a ratio comparison needs; medians are still per variant.
    Each report carries the checksum and counters of its variant's last run.
    """
    if reps < 1:
        raise ShapeError("need at least one measured rep")
    runner = _Runner(cfg, h, w, dtype, weights=weights)
    samples: dict[str, list[int]] = {v: [] for v in variants}
    last = {}
    for i in range(warmup + reps):
        for v in variants:
            instr = _Instr()
            t0 = time.perf_counter_ns()
            out = runner.run(v, instr, relaxed=relaxed)
            t1 = time.perf_counter_ns()
            if i >= warmup:
                samples[v].append(t1 - t0)
            last[v] = out, instr
    # what ran: the config, the grid, the dtype, the accumulation order and
    # the weights (merged bank and every mask), so a masked run or one with
    # other weights never shares a digest with the dense default
    tensors = hashlib.sha256(runner.bank.tobytes())
    for mask in runner.weights.masks:
        tensors.update(np.ascontiguousarray(mask).tobytes())
    text = f"{cfg}|{h}x{w}|{dtype}|relaxed={relaxed}|{tensors.hexdigest()}"
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    reports = []
    for v, s in samples.items():
        out, instr = last[v]
        med = statistics.median(s)
        mad = statistics.median([abs(t - med) for t in s])
        reports.append(BenchReport(v, digest, s, float(med), float(mad),
                                   instr.moves / (cfg.sw_channels * cfg.g * runner.gh * runner.gw),
                                   instr.peak,
                                   hashlib.sha256(out.tobytes()).hexdigest()))
    return reports


def run_variant(variant: str, cfg: SwConfig, h: int, w: int, reps: int = 5,
                dtype: str = "f32", relaxed: bool = False, warmup: int = 3,
                weights: SwWeights | None = None) -> BenchReport:
    """Time one variant; wall-clock samples exclude the warmup reps."""
    return measure(cfg, h, w, (variant,), reps, dtype, relaxed, warmup, weights)[0]


def compare_wallclock(cfg: SwConfig, h: int, w: int, variants=("naive", "fused"),
                      reps: int = 9, dtype: str = "f32",
                      warmup: int = 3) -> dict[str, float]:
    """Median wall-clock per variant with reps interleaved round-robin."""
    return {r.variant: r.median_ns
            for r in measure(cfg, h, w, variants, reps, dtype, warmup=warmup)}


def verify_variants(cfg: SwConfig, trials: int, h: int = 24, w: int = 24,
                    dtype: str = "f64", relaxed: bool = False) -> dict[str, float]:
    """Worst |variant - composed-reference| per variant over random trials."""
    if trials < 1:
        raise ShapeError("need at least one trial")
    worst = {v: 0.0 for v in VARIANTS}
    for t in range(trials):
        tcfg = SwConfig(**{**cfg.__dict__, "seed": cfg.seed + t})
        runner = _Runner(tcfg, h, w, dtype)
        oracle = sw_forward(Tensor(runner.x), runner.weights, tcfg, runner.plan).data
        for v in VARIANTS:
            got = runner.run(v, _Instr(), relaxed=relaxed)
            d = float(np.max(np.abs(got.astype(np.float64) - oracle.astype(np.float64))))
            worst[v] = max(worst[v], d)
    return worst
