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
buffer every read is one flat offset.  A read is live when its window
touches the grid; a dead read's window lies wholly in the margins and
would add +0.0 to every element, which changes no bit, as the destination
is never -0.0 (it starts at +0.0, and a sum is -0.0 only when both of its
terms are).  So fused gathers live windows only.  Each runner builds
fused's read tables once, with the plan and the bank, for every map and
chunk in a few whole-array numpy calls.  A map's rows are the channels
that keep it, chunk by chunk, each chunk's sorted stably by its number of
live reads, most first.  One flat offset array holds the live windows of
each (map, chunk) pair read slot by read slot: slot t is the t-th live
read, in canonical order, of every row that has one, and these rows are
the chunk's first counts[t].  The conv still writes a chunk's channels to
its staging slots in channel order, and each offset names its channel's
slot.  From the tables the runner also builds fused's work list once: one
step per (map, chunk) pair with its taps, its offsets, its counts, its
center windows and the gather index that puts the chunk's output rows in
the map's order.  When every map keeps the same channels (dense weights)
the list is chunk-major: a chunk's channels are row-shifted once for all
g maps, and its output rows move from one map's order to the next with
one gather per step (none where the orders agree, so a chunk whose maps
never reorder works on a view of the output) and go back to the output
once, after its last map.  Otherwise (masked weights, where a chunk is
another set of channels on each map) the list is map-major: a map's rows
are gathered from the output on its first chunk, as one copy in the map's
order (a view when the sort keeps the order), each step works on its
chunk's slice of them, and they go back after the map's last chunk.  A
fancy-index call gathers as many whole read slots as fit in the chunk's
own staging buffer (at least one), and slot t is added into the first
counts[t] rows, one slot at a time, so each channel still adds its reads
in canonical order.
On the center map each row's center window is then gathered once and
added E times.  Naive keeps no tables: for each map it gathers every read
of every channel, live or dead, read slot by read slot, and adds each
slot into all rows.

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

Both variants share one accumulation order per output element -- for each
map k, the H edges, then the W edges, then the center; fused skips the
dead reads, which change no bit -- so checksums are bitwise identical,
and both stay within 1e-10 (f64) or 1e-5 (f32) of the oracle.
Instrumentation counts destination-accumulation events per fan-out (conv
output) pixel, from in-grid reads only -- each conv-output pixel is moved
at most once per edge by each shift branch plus once by the center
branch, so the aggregate stays below 2E + 1 -- the (H, W) windows the
shift-adds gather, and the peak bytes of variant-owned staging
buffers (zero-gap buffer, conv accumulator, row-shift buffer), which
excludes the shared padded input and the final output.  The peak is the
sum of these buffers, as each one lives until the run ends.  It also
leaves out numpy temporaries: the block of windows each gather holds, the
center windows, the output rows each time a step gathers them into a
map's order (a chunk's rows, or a whole map's when map-major), the
gathered planes of a gappy chunk before they land
in the row-shift buffer, and the product of every tap of the tap loop.
With tracemalloc around one f32 fused run of the sw_tiny stage-0 layer
(seed 1), the traced peak less the output and padded input is 1178603 to
1178771 B over three runs, against 718416 B reported.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .rng import CounterRng
from .sw_op import (BRANCH_CENTER, SwConfig, SwWeights, build_shift_plan,
                    random_weights, sw_forward, _grid_geometry)
from .tensor import ShapeError

VARIANTS = ("naive", "fused")

DESK_CONFIG = dict(m=51, n=3, channels=64, edges=4, ghost=0.0,
                   order_policy="per_edge_shuffled")


@dataclass
class _Instr:
    """Counters of one run, and byte accounting for variant-owned staging."""
    moves: int = 0          # destination-accumulation events (elements)
    macs: int = 0           # multiply-accumulates in the conv stage
    peak: int = 0           # staging bytes taken; each buffer lives to the run's end
    reads: int = 0          # (h, w) windows the shift-adds gather

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
    reads_per_pixel: float
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


class _Reads(NamedTuple):
    """Fused's live shift reads, for every (map k, chunk j) pair.

    Map k's rows, order[k], are the channels that keep it, chunk by chunk,
    each chunk's sorted stably by its number of live reads, most first,
    then the channels that do not keep it; row[k, c] is channel c's place
    in order[k].  offs holds the window offset of every live read, pair by
    pair (map-major) and read slot by read slot: slot t of pair (k, j) is
    the t-th live read, in canonical order, of each of the chunk's first
    counts[k, j, t] rows (counts run down to zeros), and the pair's reads
    are offs[bounds[i]:bounds[i + 1]], i = k * nch + j.  A read addresses
    the staging slot where its channel's map was written.  center holds
    the center window of each row of the center map (None when the center
    branch is off).
    """
    order: np.ndarray
    row: np.ndarray
    offs: np.ndarray
    bounds: np.ndarray
    counts: np.ndarray
    center: np.ndarray | None


def _windows(x: np.ndarray, at: np.ndarray, size: np.ndarray):
    """x[a:a + s] for each a, s of at, size, and whether its values count up
    by one: then it is a slice of the values, so that indexing with it makes
    a view, else a view of x."""
    bad = np.zeros(x.size, dtype=np.intp)          # [i]: steps other than +1 up to x[i]
    np.cumsum(np.diff(x) != 1, out=bad[1:])
    unit = bad[at + size - 1] == bad[at]
    return [slice(f, f + n) if u else x[a:a + n] for a, n, f, u in
            zip(at.tolist(), size.tolist(), x[at].tolist(), unit.tolist())], unit


def _add_map(dst: np.ndarray, win: np.ndarray, offs: np.ndarray, counts: list[int],
             room: int, center: np.ndarray | None, repeats: int) -> int:
    """dst[:counts[t]] += the windows of read slot t, for each slot in turn,
    then dst += the windows at `center`, `repeats` times: one chunk's reads
    of one map, in canonical order.  Returns the number of windows
    gathered.

    Each fancy-index call gathers as many whole read slots as fit in `room`
    elements, and at least one, into a numpy temporary; the adds still run
    one slot at a time, so the result does not depend on the group size.
    The center windows are gathered once.
    """
    if 0 in counts:
        counts = counts[:counts.index(0)]
    at = 0
    if counts:
        per = max(1, room // (counts[0] * win.shape[1] * win.shape[2]))
        for j in range(0, len(counts), per):
            group = counts[j:j + per]
            block = win[offs[at:at + sum(group)]]
            i = 0
            for n in group:
                dst[:n] += block[i:i + n]
                i += n
            at += i
    if repeats:
        block = win[center]
        for _e in range(repeats):
            dst += block
        at += center.size
    return at


@functools.lru_cache(maxsize=4)
def _bench_input(seed: int, shape: tuple[int, int, int], np_dtype) -> np.ndarray:
    """The input of every runner with this seed, shape and dtype, drawn once
    and read-only: the layers of one stage of a network share it, and the
    cache holds one input for each of the four stages of sw_tiny."""
    x = CounterRng(seed, "bench-x").uniform_array(shape, -0.5, 0.5, np_dtype)
    x.flags.writeable = False
    return x


class _Runner:
    """Shared state for one benchmark problem instance: the operator on one
    (C, h, w) input x, drawn by `_bench_input` when none is given."""

    def __init__(self, cfg: SwConfig, h: int, w: int, dtype: str = "f32",
                 weights: SwWeights | None = None, x: np.ndarray | None = None):
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
        if x is None:
            x = _bench_input(cfg.seed, (cfg.channels, h, w), self.np_dtype)
        elif x.shape != (cfg.channels, h, w) or x.dtype != self.np_dtype:
            raise ShapeError(f"bench input of shape {x.shape} and dtype {x.dtype} is not "
                             f"({cfg.channels}, {h}, {w}) {dtype}")
        self.x = x
        pads, (oy, ox) = _grid_geometry(cfg, h, w)
        (pt, pb), (pl, pr) = pads
        self.pads = (pt, pb, pl, pr)
        gh = self.gh = h + pt + pb - cfg.n + 1
        gw = self.gw = w + pl + pr - cfg.n + 1
        # the first map row and column of each read [r, k, c] of plan.shifts:
        # the H edges, then the W edges
        dy, dx = self.plan.shifts(cfg.branch_types)
        ry, cx = oy + dy.transpose(0, 2, 1), ox + dx.transpose(0, 2, 1)
        # zero rows/columns (top, bottom, left, right) around the working grid:
        # each side covers the reads past that grid edge, at most h (w)
        self.margins = mt, mb, ml, mr = tuple(np.clip(
            [-ry.min(initial=oy), ry.max(initial=oy) + h - gh,
             -cx.min(initial=ox), cx.max(initial=ox) + w - gw], 0, [h, h, w, w]).tolist())
        # staging layout: row pitch, elements per map and zeros before map 0
        p = self.pitch = gw + max(ml, mr)
        self.slot = (gh + max(mt, mb)) * p
        self.lead = mt * p + ml
        # the read table, for a map in staging slot 0, one formula for every
        # read: its window offset, lead + ry * pitch + cx with ry and cx
        # clipped into the margins, and its hits, in-grid rows times in-grid
        # columns (live when nonzero); then the unshifted center window and
        # the map k the center branch reads (None when it is off); moved[k, c]
        # counts the in-grid elements that all reads of (c, k) add
        self.reads = self.lead + np.clip(ry, -mt, gh + mb - h) * p + np.clip(cx, -ml, gw + mr - w)
        hits = ((np.minimum(ry + h, gh) - np.maximum(ry, 0)).clip(0)
                * (np.minimum(cx + w, gw) - np.maximum(cx, 0)).clip(0))
        self.live = hits > 0
        self.moved = hits.sum(0)
        self.center = self.lead + oy * p + ox
        self.center_map = None
        if BRANCH_CENTER in cfg.branch_types:
            self.center_map = self.plan.center_block
            self.moved[self.center_map] += cfg.edges * h * w
        # fused chunk: as many channels as keep its staging buffer, accumulator
        # and row-shift buffer within one (C_sw, Hg, Wg) map; where one
        # channel's rows do not fit, fused runs one channel (always a slice of
        # the padded input) at a time through the tap loop
        wp = w + pl + pr
        chunk = ((cfg.sw_channels * gh * gw - self.lead)
                 // (self.slot + gh * wp + cfg.n * (gh + cfg.n - 1) * wp))
        self.taps_only = chunk == 0
        self.chunk = max(chunk, 1)
        self.keep = np.logical_or.reduce(weights.masks).T   # [k, c]: channel c keeps map k
        self.chunk_major = bool((self.keep == self.keep[0]).all())
        self.fused = self._read_tables(self.keep, self.chunk)
        self.walk = self._work()

    def _read_tables(self, keep: np.ndarray, chunk: int) -> _Reads:
        """Fused's _Reads: map k is written for the channels c with
        keep[k, c] in order, `chunk` channels to a staging buffer."""
        r, g, c_sw = self.live.shape
        live = (self.live & keep).astype(np.intp)
        nlive = live.sum(0)                         # live reads of each (map, channel)
        pos = keep.cumsum(1) - 1                    # place among the map's kept channels
        # each map's rows: its kept channels chunk by chunk, most live reads
        # first (stable; the key's smallest unsigned type lets numpy
        # radix-sort it), then the other channels
        nch = -(-c_sw // chunk)
        key = np.where(keep, pos // chunk * (r + 1) + (r - nlive), nch * (r + 1))
        order = key.astype(np.min_scalar_type(nch * (r + 1))).argsort(1, kind="stable")
        row = np.empty_like(order)                  # each channel's place in its map's rows
        np.put_along_axis(row, order, np.arange(c_sw), 1)
        cell = np.arange(g)[:, None] * nch + row // chunk   # each channel's (map, chunk)
        # counts[k, j, t]: the rows of chunk j of map k with a t-th live read
        hist = np.bincount((cell * (r + 1) + nlive).ravel(), minlength=g * nch * (r + 1))
        counts = hist.reshape(g, nch, r + 1)[..., :0:-1].cumsum(-1)[..., ::-1]
        # offs holds read slot (k, j, t) from first[(k * nch + j) * r + t] on;
        # each live read goes to its slot at its row, each dead one to a
        # spill cell past the end
        first = np.append(counts.cumsum(None) - counts.ravel(), counts.sum())
        spill = first.size - 1
        rank = np.zeros((r + 1, g, c_sw), dtype=np.intp)   # [q + 1]: live reads up to q
        for q in range(r):
            np.add(rank[q], live[q], out=rank[q + 1])
        slot = rank[1:]                             # index in first of each read's slot
        slot += cell * r - 1 - spill
        slot *= live
        slot += spill
        at = first.take(slot)
        at += live * (row % chunk)
        offs = np.empty(first[-1] + 1, dtype=np.intp)
        offs[at] = self.reads + pos % chunk * self.slot
        cm = self.center_map
        return _Reads(order, row, offs[:-1], np.append(0, counts.sum(-1).cumsum()), counts,
                      None if cm is None else self.center + pos[cm, order[cm]] % chunk * self.slot)

    def _work(self) -> list[tuple]:
        """Fused's work list: one step per (map, chunk) pair, in run order.

        A step is (src, taps, offs, counts, center, load, move, back): the
        chunk's channels, on its first step only; their (m, N, N) filters of
        the map; the pair's live reads and its rows per read slot, down to
        the last nonzero (see _Reads); the rows' center windows, on the
        center map only; the rows of out to hold from this step on, in the
        map's order (None: keep the held rows); the step's rows among the
        held ones; and the rows of out the held rows go back to after the
        step (None: they need not).  An index that counts up by one is a
        slice, so that a load or move that keeps the order makes a view.

        When every map keeps the same channels (chunk_major), the list runs
        chunk by chunk: a chunk's channels are row-shifted once for all g
        maps, its rows are loaded on its first map, each map's move gathers
        them into that map's order (a view when the orders agree) and holds
        the result in their place, and they go back after its last map
        unless every load and move was a view.  Otherwise a chunk is another
        set of channels on each map, and the list runs map by map: a map's
        rows are loaded on its first chunk, each step moves to its chunk's
        slice of them, and they go back after its last chunk unless the load
        was a view.  Either way each output element adds map by map, each
        map's reads in the order of the read table.
        Built in whole-array calls, but for the views each step holds.
        """
        t, chunk, keep = self.fused, self.chunk, self.keep
        g, c_sw = keep.shape
        _, nch, r = t.counts.shape
        n = keep.sum(1)
        if self.chunk_major:
            steps = g                               # per chunk of channels
            runs = -(-n[0] // chunk)
            kw, jw = np.tile(np.arange(g), runs), np.repeat(np.arange(runs), g)
            a = jw * chunk
            m = np.minimum(chunk, n[0] - a)
            # each row's place among the chunk's rows of the map before
            mv = t.row.ravel().take(t.order + (np.arange(g)[:, None] - 1) % g * c_sw)
            mv -= np.arange(c_sw) // chunk * chunk
            moves, unit = _windows(mv.ravel(), kw * c_sw + a, m)
            moves[::g] = [slice(None)] * runs
            held, whole = _windows(t.order.ravel(), a[::g], m[::g])
            unit[::g] = whole
            loads = [None] * kw.size
            loads[::g] = held
            backs = [None] * kw.size
            last = np.flatnonzero(~unit.reshape(-1, g).all(1))
            for j, w in zip(last.tolist(), _windows(t.order[-1], last * chunk,
                                                    m[last * g])[0]):
                backs[j * g + g - 1] = w
        else:
            steps = 1
            runs = -(-n // chunk)
            kw = np.repeat(np.arange(g), runs)
            jw = np.arange(kw.size) - np.repeat(runs.cumsum() - runs, runs)
            a = jw * chunk
            m = np.minimum(chunk, n[kw] - a)
            moves = [slice(x, x + s) for x, s in zip(a.tolist(), m.tolist())]
            km, runs = np.flatnonzero(runs), runs[runs > 0]
            held, unit = _windows(t.order.ravel(), km * c_sw, n[km])
            loads = [None] * kw.size
            backs = [None] * kw.size
            for i, j, w, u in zip((runs.cumsum() - runs).tolist(), (runs.cumsum() - 1).tolist(),
                                  held, unit.tolist()):
                loads[i] = w
                backs[j] = None if u else w
        kept = np.flatnonzero(keep)                 # (map, channel) pairs kept, map by map
        kc = kept % c_sw
        taps = self.bank.reshape(c_sw * g, *self.bank.shape[2:]).take(kc * g + kept // c_sw, 0)
        at = (n.cumsum() - n)[kw] + a
        srcs = [None] * kw.size
        srcs[::steps] = _windows(kc, at[::steps], m[::steps])[0]
        cell = kw * nch + jw
        counts = t.counts.reshape(g * nch, r)[cell]
        centers = [None] * kw.size
        a, m = a.tolist(), m.tolist()
        if self.center_map is not None:
            for i in np.flatnonzero(kw == self.center_map).tolist():
                centers[i] = t.center[a[i]:a[i] + m[i]]
        return list(zip(srcs, [taps[b:b + s] for b, s in zip(at.tolist(), m)],
                        [t.offs[o:e] for o, e in zip(t.bounds[cell].tolist(),
                                                     t.bounds[cell + 1].tolist())],
                        [c[:z] for c, z in zip(counts.tolist(), (counts > 0).sum(1).tolist())],
                        centers, loads, moves, backs))

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

    def run(self, variant: str, instr: _Instr) -> np.ndarray:
        if variant not in VARIANTS:
            raise ShapeError(f"unknown variant {variant!r}")
        cg = self.cfg.ghost_channels
        out_full = np.zeros_like(self.x)
        out_full[:cg] = self.x[:cg]
        xpad = self.padded_input()
        run = self._run_naive if variant == "naive" else self._run_fused
        run(out_full[cg:], xpad, instr)
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

    def _run_naive(self, out, xpad, instr):
        cfg = self.cfg
        c_sw = cfg.sw_channels
        # map k of channel c sits in slot k * c_sw + c
        maps, grid, win = self._staging(cfg.g * c_sw, instr)
        acc, wide = self._acc(c_sw, xpad.shape[2], instr)
        rows, view, shifted = self._rows(xpad, c_sw, instr)
        _shift_rows(shifted, slice(None), rows)
        for k in range(cfg.g):
            _conv_slice(view, self.bank[:, k], acc, wide, grid[k * c_sw:(k + 1) * c_sw])
        instr.macs += cfg.g * c_sw * cfg.n * cfg.n * self.gh * self.gw
        # every read of each channel, live or dead, at its channel's slot: a
        # dead window lies in the zero margins and adds +0.0
        at = np.arange(c_sw) * self.slot
        counts = [c_sw] * len(self.reads)
        moved = self.moved.sum(1).tolist()
        for k in range(cfg.g):
            instr.reads += _add_map(out, win[k * c_sw * self.slot:],
                                    (self.reads[:, k] + at).ravel(), counts, maps.size,
                                    self.center + at, cfg.edges if k == self.center_map else 0)
            instr.moves += moved[k]

    def _run_fused(self, out, xpad, instr):
        cfg, chunk = self.cfg, self.chunk
        buf, grid, win = self._staging(chunk, instr)
        acc, wide = self._acc(chunk, xpad.shape[2], instr)
        rows, view, shifted = self._rows(xpad, 0 if self.taps_only else chunk, instr)
        conv = _conv_taps if self.taps_only else _conv_slice
        cut = {}                                    # the buffers cut to m channels
        for src, taps, offs, counts, center, load, move, back in self.walk:
            if load is not None:
                held = out[load]
            dst = held[move]
            if self.chunk_major:
                held = dst
            if src is not None:                     # a new chunk: its input
                m = len(taps)
                if m not in cut:
                    cut[m] = rows[:m], view[:m], acc[:m], wide[:m], grid[:m]
                rows_m, part, *bufs = cut[m]
                if self.taps_only:
                    part = xpad[src]
                else:
                    _shift_rows(shifted, src, rows_m)
            conv(part, taps, *bufs)
            instr.reads += _add_map(dst, win, offs, counts, buf.size, center,
                                    0 if center is None else cfg.edges)
            if back is not None:
                out[back] = held
        instr.macs += int(self.keep.sum()) * cfg.n * cfg.n * self.gh * self.gw
        instr.moves += int((self.moved * self.keep).sum())


def measure(cfg: SwConfig, h: int, w: int, variants, reps: int = 5,
            dtype: str = "f32", warmup: int = 3,
            weights: SwWeights | None = None) -> list[BenchReport]:
    """Time the variants round-robin on one problem instance: warmup + reps
    rounds, each running every variant once; samples exclude the warmup rounds.

    Interleaving makes slow machine-load drift hit every variant equally,
    which is what a ratio comparison needs; medians are still per variant.
    Each report carries the checksum and counters of its variant's last run.
    """
    if reps < 1:
        raise ShapeError("need at least one measured rep")
    variants = tuple(variants)
    if len(set(variants)) != len(variants) or not set(variants) <= set(VARIANTS):
        raise ShapeError(f"variants must be distinct names from {VARIANTS}, got {variants}")
    runner = _Runner(cfg, h, w, dtype, weights=weights)
    samples: dict[str, list[int]] = {v: [] for v in variants}
    last = {}
    for i in range(warmup + reps):
        for v in variants:
            instr = _Instr()
            t0 = time.perf_counter_ns()
            out = runner.run(v, instr)
            t1 = time.perf_counter_ns()
            if i >= warmup:
                samples[v].append(t1 - t0)
            last[v] = out, instr
    # what ran: the config, the grid, the dtype and the weights (merged bank
    # and every mask), so a masked run or one with other weights never
    # shares a digest with the dense default
    tensors = hashlib.sha256(runner.bank.tobytes())
    for mask in runner.weights.masks:
        tensors.update(np.ascontiguousarray(mask).tobytes())
    text = f"{cfg}|{h}x{w}|{dtype}|{tensors.hexdigest()}"
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    reports = []
    for v, s in samples.items():
        out, instr = last[v]
        med = statistics.median(s)
        mad = statistics.median([abs(t - med) for t in s])
        pixels = cfg.sw_channels * cfg.g * runner.gh * runner.gw
        reports.append(BenchReport(v, digest, s, float(med), float(mad), instr.moves / pixels,
                                   instr.reads * h * w / pixels, instr.peak,
                                   hashlib.sha256(out.tobytes()).hexdigest()))
    return reports


def run_variant(variant: str, cfg: SwConfig, h: int, w: int, reps: int = 5,
                dtype: str = "f32", warmup: int = 3,
                weights: SwWeights | None = None) -> BenchReport:
    """Time one variant; wall-clock samples exclude the warmup reps."""
    return measure(cfg, h, w, (variant,), reps, dtype, warmup, weights)[0]


def verify_variants(cfg: SwConfig, trials: int, h: int = 24, w: int = 24,
                    dtype: str = "f64") -> dict[str, float]:
    """Worst |variant - composed-reference| per variant over random trials."""
    if trials < 1:
        raise ShapeError("need at least one trial")
    worst = {v: 0.0 for v in VARIANTS}
    for t in range(trials):
        tcfg = replace(cfg, seed=cfg.seed + t)
        runner = _Runner(tcfg, h, w, dtype)
        oracle = sw_forward(runner.x, runner.weights, tcfg, runner.plan)
        for v in VARIANTS:
            got = runner.run(v, _Instr())
            d = float(np.max(np.abs(got.astype(np.float64) - oracle.astype(np.float64))))
            worst[v] = max(worst[v], d)
    return worst
