import dataclasses
import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import as_strided

import shiftlab.bench as bn
from shiftlab import ShapeError, SwConfig, Tensor, build_shift_plan, random_weights
from shiftlab.analysis import ArchSpec
from shiftlab.conv_ref import fanout_conv
from shiftlab.sparsity import init_sparsity, prune_to_target, score_filters
from shiftlab.sw_op import ALL_BRANCHES, PAD_MODES, _grid_geometry
from operator_space import check_routes, operator_draws


SMALL = dict(m=15, n=3, channels=6, ghost=0.2, edges=2,
             order_policy="per_edge_shuffled", seed=7)


def test_variants_match_reference_f64():
    diffs = bn.verify_variants(SwConfig(**SMALL), trials=2, h=18, w=20)
    for v, d in diffs.items():
        assert d <= 1e-10, (v, d)


def test_variants_match_reference_f32(monkeypatch):
    # SMALL leaves fused no room for rows (tap loop); 20 channels run the
    # einsum in chunks of 2 over 16 channels
    calls = _record_convs(monkeypatch)
    for cfg, fused_conv in ((SwConfig(**SMALL), "taps"),
                            (SwConfig(**{**SMALL, "channels": 20}), "rows")):
        calls["rows"].clear()
        calls["taps"].clear()
        diffs = bn.verify_variants(cfg, trials=2, h=18, w=20, dtype="f32")
        for v, d in diffs.items():
            assert d <= 1e-5, (cfg.channels, v, d)
        # naive converts all C_sw channels at once, fused a chunk at a time
        assert min(calls[fused_conv]) < cfg.sw_channels, (cfg.channels, calls)


def _stage2_cfg():
    """The sw_tiny stage-2 operator; at 14 x 14 it skips 44 % of its shift
    reads, so its maps sort their rows differently."""
    return SwConfig(m=47, n=3, channels=320, ghost=0.23, edges=4, rep_branches=2,
                    pad_mode="half", order_policy="per_edge_shuffled", seed=1)


def _subset_weights(cfg):
    """Weights with 60 % of filters kept by subset masks."""
    wts = random_weights(cfg)
    wts.masks = init_sparsity("subset", {"op": wts.rep}, 0.4, seed=1)["op"]
    return wts


def test_checksums_bitwise_equal_in_deterministic_mode():
    """fused == naive bitwise in f32 and f64: on SMALL (the tap loop), on the
    dense stage-2 operator (a chunk-major walk over several chunks, with
    gathers between the maps' row orders) and on it at 60 % kept
    (map-major)."""
    stage2 = _stage2_cfg()
    walk = bn._Runner(stage2, 14, 14, "f32").walk
    assert sum(src is not None for src, *_ in walk) > 1
    assert any(not isinstance(move, slice) for *_, move, _back in walk)
    cases = ((SwConfig(**SMALL), 18, 20, None), (stage2, 14, 14, None),
             (stage2, 14, 14, _subset_weights(stage2)))
    for (cfg, h, w, wts), dtype in itertools.product(cases, ("f32", "f64")):
        sums = {bn.run_variant(v, cfg, h, w, reps=1, warmup=0, dtype=dtype,
                               weights=wts).checksum for v in bn.VARIANTS}
        assert len(sums) == 1, (cfg.channels, dtype, wts is None)


def test_fused_row_shifts_a_dense_chunk_once_for_all_maps(monkeypatch):
    """Dense weights: one row-shift copy per chunk, for all g maps; masked
    weights, where a chunk is other channels on each map: one per (map,
    chunk).  Both work lists walk as _walk_rows says."""
    calls, shift = [], bn._shift_rows
    monkeypatch.setattr(bn, "_shift_rows", lambda *a: calls.append(a[1]) or shift(*a))
    cfg = _stage2_cfg()
    for wts in (None, _subset_weights(cfg)):
        runner = bn._Runner(cfg, 14, 14, "f32", weights=wts)
        _walk_rows(runner)
        per_map = [-(-n // runner.chunk) for n in runner.keep.sum(1)]
        calls.clear()
        runner.run("fused", bn._Instr())
        if wts is None:
            assert len(calls) == per_map[0] > 1
        else:
            assert len(set(per_map)) > 1 and len(calls) == sum(per_map)


def test_fused_moves_bound():
    for edges in (1, 2, 4):
        cfg = SwConfig(m=51, n=3, channels=8, edges=edges,
                       order_policy="per_edge_shuffled", seed=3)
        rep = bn.run_variant("fused", cfg, 24, 24, reps=1, dtype="f32")
        assert rep.moves_per_pixel <= 2 * edges + 1


def test_peak_memory_ratio_at_least_g():
    cfg = SwConfig(m=51, n=3, channels=8, ghost=0.0, edges=1, seed=5)
    rn = bn.run_variant("naive", cfg, 24, 24, reps=1, dtype="f32")
    rf = bn.run_variant("fused", cfg, 24, 24, reps=1, dtype="f32")
    assert rn.peak_intermediate_bytes / rf.peak_intermediate_bytes >= cfg.g
    assert rn.checksum == rf.checksum


def test_fused_avoids_fanout_sized_buffer():
    cfg = SwConfig(m=51, n=3, channels=8, seed=5)
    rep = bn.run_variant("fused", cfg, 24, 24, reps=1, dtype="f32")
    itemsize = 4
    fanout_bytes = cfg.sw_channels * cfg.g * 24 * 24 * itemsize
    assert rep.peak_intermediate_bytes < fanout_bytes / 2


def test_counted_macs_scale_exactly_with_density():
    cfg = SwConfig(m=51, n=3, channels=10, seed=3)  # 170 filters
    counted, ratios = [], []
    for d in (1.0, 0.6, 0.5, 0.33):
        w = random_weights(cfg, dtype=np.float32)
        w.masks[0] = prune_to_target(score_filters(w.rep[0]), 1.0 - d)
        runner = bn._Runner(cfg, 20, 20, "f32", weights=w)
        instr = bn._Instr()
        runner.run("fused", instr)
        dense = cfg.sw_channels * cfg.g * cfg.n * cfg.n * runner.gh * runner.gw
        counted.append(instr.macs)
        ratios.append(instr.macs / dense)
    assert ratios[0] == 1.0
    assert ratios[1] == 0.6
    assert ratios[2] == 0.5
    assert counted[1] == int(0.6 * counted[0])
    # non-integral kept counts round down by whole filters
    n = cfg.sw_channels * cfg.g
    kept = n - int((1 - 0.33) * n)
    assert ratios[3] == kept / n


def test_masked_fused_path_matches_reference(rng):
    cfg = SwConfig(m=15, n=3, channels=6, ghost=0.2, edges=2,
                   order_policy="per_edge_shuffled", seed=19)
    w = random_weights(cfg, dtype=np.float64)
    w.masks[0][:] = rng.uniform(0, 1, w.masks[0].shape) > 0.4
    check_routes(cfg, w, build_shift_plan(cfg), rng.uniform(-0.5, 0.5, (6, 17, 19)))


def test_empty_mask_yields_ghost_only_and_zero_diff(rng):
    cfg = SwConfig(m=9, n=3, channels=5, ghost=0.3, seed=11)
    w = random_weights(cfg, dtype=np.float64)
    for m in w.masks:
        m[:] = False
    outs = check_routes(cfg, w, build_shift_plan(cfg), rng.uniform(-0.5, 0.5, (5, 12, 12)))
    for y in outs.values():                  # every shift channel is exactly +0.0
        assert not y[cfg.ghost_channels:].view(np.uint64).any()


# H or W alone leaves one axis without margins; ("H", "W") drops the center;
# the center alone makes no shift read
BRANCH_SETS = (("H",), ("W",), ("H", "W"), ("center",), ALL_BRANCHES)


def _small_cases(pad_modes=PAD_MODES, ns=(3, 5), branch_sets=(ALL_BRANCHES,)):
    """(cfg, h, w): five channels, ghost 0.2 and two edges, with m = 15 on
    17 x 19, 1 x 1 and 2 x 3 grids, g = 1 on 2 x 3 and m = 51 on 5 x 4; the
    shift reach, the largest |displacement|, is 6 for m = 15 and 24 for m = 51."""
    for pad_mode, n, branches in itertools.product(pad_modes, ns, branch_sets):
        for m, h, w in ((15, 17, 19), (n, 2, 3), (15, 1, 1), (15, 2, 3), (51, 5, 4)):
            yield SwConfig(m=m, n=n, channels=5, ghost=0.2, pad_mode=pad_mode, edges=2,
                           order_policy="per_edge_shuffled", seed=9, branch_types=branches), h, w


@pytest.mark.parametrize("pad_mode", ("half", "full", "exact"))
@pytest.mark.parametrize("n", (3, 5))
def test_variants_agree_across_pad_modes(pad_mode, n, rng):
    """R1-R6 over masks, g = 1, 1x1 and other grids smaller than the shift
    reach, branch subsets and both dtypes."""
    for cfg, h, w in _small_cases((pad_mode,), (n,), BRANCH_SETS):
        for np_dtype in (np.float32, np.float64):
            for masking in ("none", "random", "empty"):
                wts = random_weights(cfg, dtype=np_dtype)
                if masking == "random":
                    wts.masks[0][:] = rng.uniform(size=wts.masks[0].shape) > 0.5
                elif masking == "empty":
                    wts.masks[0][:] = False
                x = rng.uniform(-0.5, 0.5, (5, h, w)).astype(np_dtype)
                check_routes(cfg, wts, build_shift_plan(cfg), x)


# (margins, pitch, slot, lead) of the m = 13, n = 5 operator (displacements
# -4, 1 and 6) on a 5 x 11 grid; half mode's bottom margin of 6 rows is cut
# to h = 5, full mode enlarges the grid by one row and one column, exact
# mode by N//2 = 2 on each side of a shifted axis, which leaves margins of
# 4 - 2 = 2 before the grid and 6 - 2 = 4 after it
_STAGING_GEOMETRY = {
    ("half", ("H",)): ((4, 5, 0, 0), 11, 110, 44),
    ("half", ("W",)): ((0, 0, 4, 6), 17, 85, 4),
    ("half", ("H", "W")): ((4, 5, 4, 6), 17, 170, 72),
    ("half", ("center",)): ((0, 0, 0, 0), 11, 55, 0),
    ("half", ALL_BRANCHES): ((4, 5, 4, 6), 17, 170, 72),
    ("full", ("H",)): ((4, 5, 0, 0), 12, 132, 48),
    ("full", ("W",)): ((0, 0, 4, 5), 17, 102, 4),
    ("full", ("H", "W")): ((4, 5, 4, 5), 17, 187, 72),
    ("full", ("center",)): ((0, 0, 0, 0), 12, 72, 0),
    ("full", ALL_BRANCHES): ((4, 5, 4, 5), 17, 187, 72),
    ("exact", ("H",)): ((2, 4, 0, 0), 11, 143, 22),
    ("exact", ("W",)): ((0, 0, 2, 4), 19, 95, 2),
    ("exact", ("H", "W")): ((2, 4, 2, 4), 19, 247, 40),
    ("exact", ("center",)): ((0, 0, 0, 0), 11, 55, 0),
    ("exact", ALL_BRANCHES): ((2, 4, 2, 4), 19, 247, 40),
}


@pytest.mark.parametrize("pad_mode", ("half", "full", "exact"))
@pytest.mark.parametrize("branches", BRANCH_SETS)
def test_staging_geometry_pinned(pad_mode, branches):
    cfg = SwConfig(m=13, n=5, channels=4, edges=2, pad_mode=pad_mode,
                   order_policy="per_edge_shuffled", seed=9, branch_types=branches)
    runner = bn._Runner(cfg, 5, 11)
    got = (runner.margins, runner.pitch, runner.slot, runner.lead)
    assert got == _STAGING_GEOMETRY[pad_mode, branches]


def _table_reads(runner):
    """Check fused's read tables against the runner's read table: for each
    channel of each chunk, the windows the tables gather are its reads (the
    H edges, then the W edges) that touch the grid, in that order, then its center window E times on the center map.
    A window touches the grid when it holds a cell of a staging buffer whose
    grid is all ones.  Then check the work list (see _walk_rows)."""
    t, chunk = runner.fused, runner.chunk
    _, grid, view = runner._staging(chunk, bn._Instr())
    grid[:] = 1
    slot, edges = runner.slot, runner.cfg.edges
    nch = t.counts.shape[1]
    entries = 0
    for k, keeps in enumerate(runner.keep):
        ids = np.flatnonzero(keeps).tolist()
        rows = t.order[k, :len(ids)].tolist()
        for j, a in enumerate(range(0, len(ids), chunk)):
            src, block = ids[a:a + chunk], rows[a:a + chunk]
            counts = t.counts[k, j].tolist()
            assert counts == sorted(counts, reverse=True) and counts[:1] <= [len(block)]
            got = {c: [] for c in src}
            at = t.bounds[k * nch + j]
            for n in counts:
                for c in block[:n]:
                    got[c].append(int(t.offs[at]))
                    at += 1
            assert at == t.bounds[k * nch + j + 1]
            entries += at - t.bounds[k * nch + j]
            if k == runner.center_map:
                for c, o in zip(block, t.center[a:a + chunk]):
                    got[c] += [int(o)] * edges
            for pos, c in enumerate(src):
                every = runner.reads[:, k, c] + pos * slot
                want = [int(o) for o in every if view[o].any()]
                if k == runner.center_map:
                    want += [runner.center + pos * slot] * edges
                assert got[c] == want, (k, c)
                # the reads left out address all-zero windows
                assert not any(view[o].any() for o in set(every) - set(want))
            # the chunk's rows: its channels sorted stably by their number of
            # reads, most first
            assert block == sorted(src, key=lambda c: -len(got[c]))
    assert entries == t.offs.size
    _walk_rows(runner)


def _walk_rows(runner):
    """Fused's work list walks its (map, chunk) pairs chunk-major when every
    map keeps the same channels, else map-major.  Each step carries its
    pair's tables and taps, and
    the chunk's channels on the chunk's first step only.  Rows are loaded
    from out on a chunk's first map (chunk-major) or a map's first chunk
    (map-major), each step's rows stand in its map's order, and every row,
    a view of out or not, reaches out once for each map its channel keeps."""
    t, chunk, keep = runner.fused, runner.chunk, runner.keep
    g, c_sw = keep.shape
    nch = t.counts.shape[1]
    n = keep.sum(1)
    major = (keep == keep[0]).all()
    assert runner.chunk_major == major
    if major:
        pairs = [(k, j) for j in range(-(-n[0] // chunk)) for k in range(g)]
    else:
        pairs = [(k, j) for k in range(g) for j in range(-(-n[k] // chunk))]
    walk = runner.walk
    assert len(walk) == len(pairs)
    out = np.stack([np.arange(c_sw), np.zeros(c_sw)], 1)   # [c]: (channel, maps added)
    for (k, j), (src, taps, offs, counts, center, load, move, back) in zip(pairs, walk):
        a = j * chunk
        ids = np.flatnonzero(keep[k])[a:a + chunk]
        assert (src is not None) == (not major or k == 0), (k, j)
        if src is not None:
            assert np.arange(c_sw)[src].tolist() == ids.tolist()
        assert (load is not None) == (k == 0 if major else j == 0), (k, j)
        if load is not None:
            held = out[load]
        dst = held[move]
        if major:
            held = dst
        assert dst[:, 0].tolist() == t.order[k, a:a + ids.size].tolist(), (k, j)
        assert taps.tobytes() == runner.bank[ids, k].tobytes()
        assert offs.tolist() == t.offs[t.bounds[k * nch + j]:t.bounds[k * nch + j + 1]].tolist()
        assert counts == [c for c in t.counts[k, j].tolist() if c]
        if k == runner.center_map:
            assert center.tolist() == t.center[a:a + ids.size].tolist()
        else:
            assert center is None
        dst[:, 1] += 1
        if back is not None:
            out[back] = held
    assert out[:, 0].tolist() == list(range(c_sw))
    assert out[:, 1].tolist() == keep.sum(0).tolist()


@settings(max_examples=40)
@given(operator_draws())
def test_read_tables_hold_exactly_the_live_reads(draw):
    """Fused's read tables keep exactly the reads that touch the grid, in the
    read table's order per channel, and naive and fused meet R1-R6, on the
    draws cut to what the bench takes: no norms, the shared center, one image."""
    cfg, wts, x = draw
    cfg = dataclasses.replace(cfg, center_independent=False)
    wts.norms.clear()
    x = x.reshape((-1,) + x.shape[-3:])[0]
    dtype = "f64" if x.dtype == np.float64 else "f32"
    runner = bn._Runner(cfg, x.shape[1], x.shape[2], dtype, weights=wts, x=x)
    _table_reads(runner)
    check_routes(cfg, wts, runner.plan, x, names=("naive", "fused"))


def _tiny_stage_cfgs():
    arch = ArchSpec.sw_tiny()
    for st, hw in enumerate((56, 28, 14, 7)):
        yield hw, SwConfig(m=arch.stage_m[st], n=arch.n, channels=arch.stage_dim(st),
                           ghost=arch.ghost, edges=arch.edges,
                           rep_branches=arch.rep_branches,
                           order_policy="per_edge_shuffled", seed=1)


def _tiny_layers():
    """(name, stage, cfg, 60 %-kept weights) of each sw_tiny layer, seed 1."""
    arch = ArchSpec.sw_tiny()
    for lid, name in enumerate(arch.layer_names()):
        st = arch.stage_of(name)
        cfg = SwConfig(m=arch.stage_m[st], n=arch.n, channels=arch.stage_dim(st),
                       ghost=arch.ghost, edges=arch.edges, rep_branches=arch.rep_branches,
                       order_policy="per_edge_shuffled", seed=1, layer_id=lid)
        masked = random_weights(cfg)
        masked.masks = init_sparsity("subset", {name: masked.rep}, 0.4, seed=1)[name]
        yield name, st, cfg, masked


def test_staging_reads_stay_in_their_own_map():
    """Every window the read tables address holds only zeros and its own
    map's values: no read wraps into a neighbouring row or map."""
    cases = [(cfg, hw, hw) for hw, cfg in _tiny_stage_cfgs()]
    for cfg, h, w in cases + list(_small_cases(branch_sets=BRANCH_SETS)):
        runner = bn._Runner(cfg, h, w, "f32")
        _, grid, win = runner._staging(3, bn._Instr())
        grid[:] = np.arange(1, 4)[:, None, None]
        offsets = np.unique(np.append(runner.reads, runner.center))
        for j in range(3):
            got = win[offsets + j * runner.slot]
            assert np.all((got == 0) | (got == j + 1)), (cfg, h, w, j)


@pytest.mark.parametrize("pad_mode", ("half", "full", "exact"))
@pytest.mark.parametrize("n", (3, 5))
def test_conv_slice_matches_fanout_conv_bitwise(pad_mode, n):
    """The row-shift einsum and the tap loop equal the tap-by-tap oracle bit
    for bit on every map, including grids where the wrap-around columns and
    the spare row of the padded input matter."""
    cfg = SwConfig(m=4 * n, n=n, channels=5, ghost=0.2, pad_mode=pad_mode,
                   edges=2, seed=13)
    for h, w in ((1, 1), (1, 7), (2, 3), (5, 4), (9, 13)):
        for dtype in ("f32", "f64"):
            runner = bn._Runner(cfg, h, w, dtype)
            pads, _ = _grid_geometry(cfg, h, w)
            ref = fanout_conv(Tensor(runner.x[cfg.ghost_channels:]),
                              runner.bank, pads).data
            xpad = runner.padded_input()
            c_sw, gh, gw = cfg.sw_channels, runner.gh, runner.gw
            rows, view, shifted = runner._rows(xpad, c_sw, bn._Instr())
            bn._shift_rows(shifted, slice(None), rows)
            for k in range(cfg.g):
                for conv, src in ((bn._conv_slice, view), (bn._conv_taps, xpad)):
                    acc, wide = runner._acc(c_sw, xpad.shape[2], bn._Instr())
                    acc[:] = np.nan
                    out = np.full((c_sw, gh, gw), np.nan, runner.np_dtype)
                    conv(src, runner.bank[:, k], acc, wide, out)
                    assert out.tobytes() == ref[k::cfg.g].tobytes(), (h, w, dtype, k, conv)


@settings(max_examples=200)
@given(n=st.sampled_from((1, 3, 5)), gh=st.integers(1, 14), gw=st.integers(1, 14),
       size=st.integers(1, 40), gappy=st.booleans(),
       dtype=st.sampled_from((np.float32, np.float64)), seed=st.integers(0, 2**32 - 1))
def test_row_shift_einsum_matches_tap_loop_and_oracle_bitwise(n, gh, gw, size, gappy,
                                                              dtype, seed):
    """_conv_slice relies on einsum summing (u, v) in order from zero, which
    numpy does not document: on every chunk of kept channels, contiguous or
    not, it must equal the tap loop and conv_ref.fanout_conv byte for byte."""
    rng = np.random.default_rng(seed)
    if gappy:
        steps = rng.integers(1, 3, size)
        steps[-1] = 2                        # at least one missing channel
        sel = np.cumsum(steps)
    else:
        sel = np.arange(size) + rng.integers(0, 3)
    wp = gw + n - 1
    x = rng.uniform(-0.5, 0.5, (sel[-1] + 1, gh + n - 1, wp)).astype(dtype)
    bank = rng.uniform(-0.5, 0.5, (x.shape[0], 1, n, n)).astype(dtype)
    xpad = np.concatenate([x, np.zeros((x.shape[0], 1, wp), dtype)], axis=1)
    (idx,), _ = bn._windows(sel, np.zeros(1, np.intp), np.array([size]))
    assert isinstance(idx, slice) == (not gappy or size == 1)
    span = (gh + n - 1) * wp
    rows = np.full((size, n, span), np.nan, dtype)
    bn._shift_rows(bn._row_shifts(xpad.reshape(x.shape[0], -1), n, span), idx, rows)
    ref = fanout_conv(Tensor(x[sel]), bank[sel], ((0, 0), (0, 0))).data
    for conv, src in ((bn._conv_slice, bn._tap_view(rows, gh, wp)),
                      (bn._conv_taps, xpad[sel])):
        acc = np.full((size, gh * wp), np.nan, dtype)
        out = np.full((size, gh, gw), np.nan, dtype)
        conv(src, bank[idx, 0], acc, acc.reshape(size, gh, wp)[:, :, :gw], out)
        assert out.tobytes() == ref.tobytes(), conv


def _assert_fused_staging_within_bound(cfg, h, w, dtype, weights=None):
    """Fused peak staging <= one (C_sw, Hg, Wg) map, or the one-channel
    floor of a plane with all four margins plus a wide-row accumulator."""
    runner = bn._Runner(cfg, h, w, dtype, weights=weights)
    instr = bn._Instr()
    runner.run("fused", instr)
    mt, mb, ml, mr = runner.margins
    wp = runner.padded_input().shape[2]
    floor = (runner.gh + mt + mb) * (runner.gw + ml + mr) + runner.gh * wp
    bound = max(cfg.sw_channels * runner.gh * runner.gw, floor)
    assert instr.peak <= np.dtype(runner.np_dtype).itemsize * bound, (cfg, h, w)


def test_fused_staging_within_one_map_bound():
    for hw, cfg in _tiny_stage_cfgs():
        _assert_fused_staging_within_bound(cfg, hw, hw, "f32")
        # 60 % kept: subset masks leave kept channels that are not contiguous
        _assert_fused_staging_within_bound(cfg, hw, hw, "f32", _subset_weights(cfg))
    for (cfg, h, w), dtype in itertools.product(_small_cases(), ("f32", "f64")):
        _assert_fused_staging_within_bound(cfg, h, w, dtype)


def test_staging_bytes_pinned_per_sw_tiny_stage():
    """Frozen staging bytes, so that peak_staging_bytes keeps its meaning:
    each sw_tiny stage at its 224-input shape, dense and 60 % kept, in f32
    and in f64 (exactly twice f32); fused and naive checksums are equal in
    every case."""
    fused = (718416, 385908, 193432, 94676)
    naive = (30298496, 25446296, 13375192, 2536292)
    for (hw, cfg), want in zip(_tiny_stage_cfgs(), zip(fused, naive)):
        masked = _subset_weights(cfg)
        for wts, (dtype, scale) in itertools.product((None, masked), (("f32", 1), ("f64", 2))):
            sums = set()
            for variant, f32_bytes in zip(("fused", "naive"), want):
                rep = bn.run_variant(variant, cfg, hw, hw, reps=1, warmup=0, dtype=dtype,
                                     weights=wts)
                assert rep.peak_intermediate_bytes == scale * f32_bytes, (hw, dtype, variant)
                sums.add(rep.checksum)
            assert len(sums) == 1, (hw, dtype, wts is None)


def test_reads_per_pixel_pinned_per_sw_tiny_stage():
    """Frozen count of the windows the shift-adds gather, per sw_tiny stage at
    its 224-input shape in f32 (seed 1).  Fused gathers every live shift
    read plus one center window per channel of the center map: stages 0
    and 1 miss the grid with no read; stage 2 (14 x 14, shifts up to 23)
    skips 44 % of its shift reads and stage 3 (7 x 7) 20 %; at 60 % kept,
    fused gathers only the kept filters'.  Naive gathers every read, live
    or dead: C_sw (8g + 1) windows."""
    dense = (8494, 16988, 18031, 16269)
    naive = (8494, 16988, 31863, 20213)
    kept = (5103, 10195, 10835, 9796)
    for (hw, cfg), want in zip(_tiny_stage_cfgs(), zip(dense, naive, kept)):
        masked = _subset_weights(cfg)
        assert want[1] == cfg.sw_channels * (8 * cfg.g + 1)
        for variant, wts, windows in (("fused", None, want[0]), ("naive", None, want[1]),
                                      ("fused", masked, want[2])):
            rep = bn.run_variant(variant, cfg, hw, hw, reps=1, warmup=0, weights=wts)
            assert rep.reads_per_pixel == windows / (cfg.sw_channels * cfg.g), (hw, variant)
            assert rep.reads_per_pixel > rep.moves_per_pixel


def test_masked_chunk_input_copy_is_counted(monkeypatch):
    """When a chunk's kept channels are not contiguous, their padded input
    planes are gathered, shifted, into the counted row-shift buffer, and the
    reported peak covers it."""
    taken, gathers, shared = [], [], []
    take, shift, pad = bn._Instr.take, bn._shift_rows, bn._Runner.padded_input
    monkeypatch.setattr(bn._Instr, "take", lambda s, a: taken.append(a) or take(s, a))
    monkeypatch.setattr(bn, "_shift_rows", lambda shifted, idx, rows:
                        shift(shifted, idx, rows) or gathers.append((idx, rows, rows.copy())))
    monkeypatch.setattr(bn._Runner, "padded_input",
                        lambda s: shared.append(pad(s)) or shared[-1])
    cfg = SwConfig(m=15, n=3, channels=20, edges=2, seed=3)   # chunks of 3
    wts = random_weights(cfg)
    for mask in wts.masks:
        mask[::2] = False                    # kept: the odd channels
    instr = bn._Instr()
    bn._Runner(cfg, 24, 24, "f32", weights=wts).run("fused", instr)
    flat = shared[0].reshape(shared[0].shape[0], -1)
    gappy = [g for g in gathers if not isinstance(g[0], slice)]
    assert gappy
    for sel, rows, got in gappy:
        assert (sel % 2 == 1).all()
        span = rows.shape[2]
        for v in range(cfg.n):
            assert got[:, v].tobytes() == flat[sel, v:v + span].tobytes()
    held = [t for t in taken if any(np.shares_memory(g[1], t) for g in gappy)]
    assert len(held) == 1                    # one counted row-shift buffer
    assert instr.peak == sum(t.nbytes for t in taken)


def _record_convs(monkeypatch):
    """Channel counts of every _conv_slice and _conv_taps call, by kernel."""
    calls = {"rows": [], "taps": []}
    for name, key in (("_conv_slice", "rows"), ("_conv_taps", "taps")):
        conv = getattr(bn, name)
        monkeypatch.setattr(bn, name, lambda src, *a, _c=conv, _k=key:
                            calls[_k].append(src.shape[0]) or _c(src, *a))
    return calls


def test_every_sw_tiny_layer_fits_rows(monkeypatch):
    """At its 224-input shape, dense and 60 % kept, in f32 and f64, every
    sw_tiny layer has room for at least one channel of row-shifted input, so
    the benchmark's fused stack never runs the one-channel tap floor."""
    calls = _record_convs(monkeypatch)
    monkeypatch.setattr(bn, "_add_map", lambda *a: 0)   # not under test
    for name, st, cfg, masked in _tiny_layers():
        hw = 56 >> st
        for wts, dtype in itertools.product((random_weights(cfg), masked), ("f32", "f64")):
            calls["rows"].clear()
            bn._Runner(cfg, hw, hw, dtype, weights=wts).run("fused", bn._Instr())
            assert calls["rows"] and not calls["taps"], (name, dtype)


def test_grids_without_room_for_rows_take_the_tap_floor(monkeypatch, rng):
    """Where the one-map bound leaves no room for one channel of rows, fused
    runs one channel at a time through the tap loop, bitwise equal to naive."""
    calls = _record_convs(monkeypatch)
    floored = 0
    for (cfg, h, w), dtype, masked in itertools.product(_small_cases(), ("f32", "f64"),
                                                        (False, True)):
        wts = random_weights(cfg)
        if masked:
            wts.masks[0][:] = rng.uniform(size=wts.masks[0].shape) > 0.5
        runner = bn._Runner(cfg, h, w, dtype, weights=wts)
        calls["rows"].clear()
        calls["taps"].clear()
        runner.run("fused", bn._Instr())
        if calls["taps"]:
            floored += 1
            assert not calls["rows"] and set(calls["taps"]) == {1}, (cfg, h, w, dtype, masked)
        check_routes(cfg, wts, runner.plan, runner.x, names=("naive", "fused"))
    assert floored


@pytest.mark.parametrize("other", (
    dict(m=21),             # a g = 7 bank on a g = 5 config
    dict(rep_branches=2),   # a second Rep bank
    dict(channels=8),       # 8-channel weights on 6 channels
), ids=("g7", "two_rep", "eight_channels"))
def test_run_variant_rejects_weights_of_another_config(other):
    cfg = SwConfig(m=15, n=3, channels=6)
    wts = random_weights(SwConfig(**{**cfg.__dict__, **other}))
    with pytest.raises(ShapeError):
        bn.run_variant("fused", cfg, 10, 10, reps=1, warmup=0, weights=wts)


def test_center_independent_rejected():
    cfg = SwConfig(m=9, n=3, channels=4, edges=2, center_independent=True, seed=3)
    with pytest.raises(ShapeError, match="center_independent"):
        bn.run_variant("fused", cfg, 10, 10, reps=1)
    with pytest.raises(ShapeError, match="center_independent"):
        bn.verify_variants(cfg, trials=1, h=10, w=10)


def test_moves_per_pixel_counts_in_grid_reads(rng):
    # on a 4x3 grid some shifted reads overlap it partly and some miss it
    for n, pad_mode, masked in ((3, "half", False), (5, "full", True)):
        cfg = SwConfig(m=15, n=n, channels=5, edges=2, pad_mode=pad_mode,
                       order_policy="per_edge_shuffled", seed=4)
        wts = random_weights(cfg)
        if masked:
            wts.masks[0][:] = rng.uniform(size=wts.masks[0].shape) > 0.5
        h, w = 4, 3
        rep = bn.run_variant("fused", cfg, h, w, reps=1, warmup=0,
                             dtype="f64", weights=wts)
        ((pt, pb), (pl, pr)), (oy, ox) = _grid_geometry(cfg, h, w)
        gh, gw = h + pt + pb - cfg.n + 1, w + pl + pr - cfg.n + 1
        plan = build_shift_plan(cfg)
        moves = 0
        for c in range(cfg.sw_channels):
            for k in range(cfg.g):
                if not wts.masks[0][c, k]:
                    continue
                for e in range(cfg.edges):
                    shifts = [(plan.disp_h[e, c, k], 0), (0, plan.disp_w[e, c, k])]
                    if k == plan.center_block:
                        shifts.append((0, 0))
                    for dy, dx in shifts:
                        rows = sum(0 <= oy + i + dy < gh for i in range(h))
                        cols = sum(0 <= ox + j + dx < gw for j in range(w))
                        moves += rows * cols
        assert rep.moves_per_pixel == moves / (cfg.sw_channels * cfg.g * gh * gw)


def test_fused_output_checksums_pinned():
    """Frozen sha256 of two fused outputs: a change of accumulation order fails."""
    dense = SwConfig(m=15, n=3, channels=6, ghost=0.2, edges=2,
                     order_policy="per_edge_shuffled", seed=7)
    rep = bn.run_variant("fused", dense, 18, 20, reps=1, warmup=0, dtype="f32")
    assert rep.checksum == ("fee430cbee6ede5ce7ecb0b16f70cc98"
                            "598f840b1ffb699b7a2f0690ff8d1f49")
    masked = SwConfig(m=13, n=5, channels=5, edges=2, rep_branches=2,
                      pad_mode="full", order_policy="per_edge_shuffled", seed=19)
    wts = random_weights(masked, dtype=np.float64)
    # kept channels per map: {1, 2, 4}, {0, 2, 3}, {0, 1, 3, 4}
    wts.masks[0] = np.add.outer(np.arange(5), 2 * np.arange(3)) % 3 != 0
    wts.masks[1][:] = False
    rep = bn.run_variant("fused", masked, 11, 9, reps=1, warmup=0, dtype="f64",
                         weights=wts)
    assert rep.checksum == ("a711fba9b9582a5440e06b0eb1cf3cbd"
                            "1f61a8b353c17ef57f938ee7e83ac1da")


def test_fused_checksums_pinned_at_four_read_groups():
    """Frozen sha256 of the sw_tiny stage-2 operator at 14x14, where each of
    fused's gathers holds four reads (see
    test_read_groups_fit_their_chunks_staging_buffer): dense f32 and 60 %
    kept f64."""
    cfg = SwConfig(m=47, n=3, channels=320, ghost=0.23, edges=4, rep_branches=2,
                   pad_mode="half", order_policy="per_edge_shuffled", seed=1)
    rep = bn.run_variant("fused", cfg, 14, 14, reps=1, warmup=0, dtype="f32")
    assert rep.checksum == ("835514c3bcd05ac42eb4c0bece9f569a"
                            "354ab0415c03abcb3b17bd12e04f5792")
    wts = _subset_weights(cfg)
    rep = bn.run_variant("fused", cfg, 14, 14, reps=1, warmup=0, dtype="f64",
                         weights=wts)
    assert rep.checksum == ("ecc6bdf558e6fc30672591b620a07e73"
                            "78996e9561cf09b4ccbc3fda8cf2f68e")


# name -> (config overrides, h, w, dtype, masked) of exact-mode runs on the
# m = 15, n = 3 operator of _EXACT (shift reach 6): every branch subset on a
# grid larger than the reach, then f64, two masked Rep branches, a
# disordered plan, grids smaller than N and an m = 51 operator (reach 24)
_EXACT = dict(m=15, n=3, channels=5, ghost=0.23, edges=2, pad_mode="exact",
              order_policy="per_edge_shuffled", seed=9)
_EXACT_RUNS = {
    "H": (dict(branch_types=("H",)), 17, 19, "f32", False),
    "W": (dict(branch_types=("W",)), 17, 19, "f32", False),
    "center": (dict(branch_types=("center",)), 17, 19, "f32", False),
    "H+W": (dict(branch_types=("H", "W")), 17, 19, "f32", False),
    "H+center": (dict(branch_types=("H", "center")), 17, 19, "f32", False),
    "W+center": (dict(branch_types=("W", "center")), 17, 19, "f32", False),
    "all": (dict(), 17, 19, "f32", False),
    "all_f64": (dict(), 17, 19, "f64", False),
    "rep2_masked_f64": (dict(rep_branches=2), 17, 19, "f64", True),
    "disordered": (dict(order_policy="disordered"), 17, 19, "f32", False),
    "n5_2x1": (dict(m=13, n=5), 2, 1, "f32", False),
    "1x1_f64": (dict(), 1, 1, "f64", False),
    "m51_30x28": (dict(m=51), 30, 28, "f32", False),
}

# sha256 of each run's output, the checksum naive and fused both report
_EXACT_CHECKSUMS = {
    "H": "8941fb00efb01a6b0a6722172320f987f9cdfbe61093d48901e3cae656e6b228",
    "W": "ea80048f70c9e67d56ee9b91362ff5f88f2e5b06d0d159b802ff3837d155bd14",
    "center": "02b336da4b4d66a765f08fcc3ff1697ba9ed73e471c552e6f983b6715d2b3ec9",
    "H+W": "1a5500abb654eb9e52bb8093d622474d5d76a5e836f5cc8dcb8d19e74231e35f",
    "H+center": "3e6fa4af1da01d1ecd34e47e2d4eab53b53f1bef1e9641320dfc722d8905c4bb",
    "W+center": "075a3d9c555a7bb0ee98601bb5f1206a535e71d64d8da4fe6b1dfe5089596a4c",
    "all": "e5e948ee9867d7e89cc14c10311601b851b605b9560d93b164233345d17a71d2",
    "all_f64": "eca8df7d5b9d59afbbd9d2d1dcb03cf68ba02b286126dee63dc186336dfc7cd9",
    "rep2_masked_f64": "d6696170bb8e04ac33f7757e171090ad10510f2a3c29fe6561dbbb3dd5b2609e",
    "disordered": "0e1eff8e5067a462828a1a54c9bd80b05530d3224c52e2c4fcb2d10b246630bf",
    "n5_2x1": "5d68d137f82ad222b2b45f2b22ce3beb3ca0a9f062c5297eee8bb26031eb6b30",
    "1x1_f64": "f6f016d66791a1a0efb9ceb69535087bb4cca784abbe238bcf99262a9fbc384b",
    "m51_30x28": "9e4e1179689acbc21871f1ae7322c3b3e6561c9d09356e22a8895f890be69ade",
}


def test_exact_mode_checksums_pinned():
    """Frozen naive and fused checksums in exact mode, kept across changes of
    the working grid: a read past a map's support adds +0.0."""
    got = {}
    for name, (over, h, w, dtype, masked) in _EXACT_RUNS.items():
        cfg = SwConfig(**{**_EXACT, **over})
        wts = random_weights(cfg, dtype={"f32": np.float32, "f64": np.float64}[dtype])
        if masked:
            pos = np.add.outer(np.arange(cfg.sw_channels), np.arange(cfg.g))
            wts.masks = [pos % 3 != 0, pos % 2 == 0]
        naive, fused = bn.measure(cfg, h, w, bn.VARIANTS, reps=1, warmup=0,
                                  dtype=dtype, weights=wts)
        assert naive.checksum == fused.checksum, name
        got[name] = fused.checksum
    assert got == _EXACT_CHECKSUMS


@settings(max_examples=200)
@given(c=st.integers(1, 9), h=st.integers(1, 5), w=st.integers(1, 5),
       slots=st.integers(0, 9), group=st.integers(1, 9), lead=st.integers(0, 3),
       repeats=st.integers(0, 3), dtype=st.sampled_from((np.float32, np.float64)),
       seed=st.integers(0, 2**32 - 1))
def test_grouped_reads_match_one_read_at_a_time(c, h, w, slots, group, lead, repeats,
                                               dtype, seed):
    """_add_map gathers several read slots per fancy-index call, but its
    output is byte-equal to adding the reads one at a time, slot by slot,
    then the center, whatever the group size or read table."""
    rng = np.random.default_rng(seed)
    pitch = w + int(rng.integers(0, 3))
    buf = rng.uniform(-1, 1, (h + 4) * pitch * 3).astype(dtype)
    item = buf.itemsize
    win = as_strided(buf, (buf.size - (h - 1) * pitch - w + 1, h, w),
                     (item, pitch * item, item), writeable=False)
    counts = sorted(rng.integers(0, c + 1, slots).tolist(), reverse=True)
    offs = rng.integers(0, len(win), sum(counts))
    center = rng.integers(0, len(win), c)
    rows = rng.uniform(-1, 1, (lead + c + 2, h, w)).astype(dtype)
    want = rows.copy()
    read = iter(offs)
    for n in counts:
        for q in range(n):
            want[lead + q] += win[next(read)]
    for _e in range(repeats):
        want[lead:lead + c] += win[center]
    # `room` allows exactly `group` read slots per gather
    full = max(counts, default=1) * h * w
    room = group * full + int(rng.integers(0, max(full, 1)))
    gathered = bn._add_map(rows[lead:lead + c], win, offs, counts, room, center, repeats)
    assert rows.tobytes() == want.tobytes()
    assert gathered == len(offs) + (c if repeats else 0)


class _GatherSpy:
    """Wraps a window view and records the shape of every block gathered from it."""

    def __init__(self, win, blocks):
        self.win, self.blocks = win, blocks
        self.shape = win.shape

    def __getitem__(self, key):
        got = self.win[key]
        self.blocks.append(got.shape)
        return got


def test_read_groups_fit_their_chunks_staging_buffer(monkeypatch, rng):
    """No gather of fused's grouped reads holds more elements than the
    chunk's own staging buffer: every sw_tiny layer at its 224-input shape,
    dense and 60 % kept, f32 and f64, and the _small_cases.  On a
    dense stage-2 layer, a full chunk whose every channel has a live shift
    read gathers four read slots at a time."""
    rooms, calls = [], []
    stage, add = bn._Runner._staging, bn._add_map

    def staging(runner, *a):
        got = stage(runner, *a)
        rooms.append(got[0].size)
        return got

    def add_map(dst, win, offs, counts, room, center, repeats):
        calls.append((len(dst), counts, repeats, []))
        return add(dst, _GatherSpy(win, calls[-1][-1]), offs, counts, room, center, repeats)

    monkeypatch.setattr(bn._Runner, "_staging", staging)
    monkeypatch.setattr(bn, "_add_map", add_map)

    def check(cfg, h, w, dtype, weights=None):
        rooms.clear()
        calls.clear()
        runner = bn._Runner(cfg, h, w, dtype, weights=weights)
        runner.run("fused", bn._Instr())
        assert len(rooms) == 1, (cfg, h, w, dtype)
        blocks = [b for *_, got in calls for b in got]
        assert max((np.prod(b) for b in blocks), default=0) <= rooms[0], (cfg, h, w, dtype)
        # the windows of each gather of a full chunk that reads every channel
        return [(m, [n for n in counts if n], repeats, [b[0] for b in got])
                for m, counts, repeats, got in calls
                if m == runner.chunk and counts[:1] == [m]]

    for name, st, cfg, masked in _tiny_layers():
        for wts, dtype in itertools.product((None, masked), ("f32", "f64")):
            full = check(cfg, 56 >> st, 56 >> st, dtype, wts)
            if st == 2 and wts is None:
                assert full, name
                for m, counts, repeats, got in full:
                    # then, on the center map, the center windows in one gather
                    assert got == ([sum(counts[j:j + 4]) for j in range(0, len(counts), 4)]
                                   + [m] * (repeats > 0)), name
    for (cfg, h, w), dtype, masked in itertools.product(_small_cases(), ("f32", "f64"),
                                                        (False, True)):
        wts = random_weights(cfg)
        if masked:
            wts.masks[0][:] = rng.uniform(size=wts.masks[0].shape) > 0.5
        check(cfg, h, w, dtype, wts)


def test_config_digest_names_weights_and_masks():
    """Runs that differ only in weights or masks get different digests; the
    same tensors passed in or drawn by default share one."""
    cfg = SwConfig(**SMALL)

    def digest(weights=None):
        return bn.run_variant("fused", cfg, 12, 12, reps=1, warmup=0,
                              weights=weights).config_digest

    zeroed = random_weights(cfg)
    zeroed.rep[0][0, 0] = 0.0                # the same merged bank with or
    pruned = random_weights(cfg)             # without filter (0, 0) kept
    pruned.rep[0][0, 0] = 0.0
    pruned.masks[0][0, 0] = False
    other = random_weights(SwConfig(**{**SMALL, "seed": 8}))
    digests = [digest(), digest(zeroed), digest(pruned), digest(other)]
    assert len(set(digests)) == len(digests)
    assert digest(random_weights(cfg)) == digests[0]


def test_unknown_variant_rejected():
    cfg = SwConfig(**SMALL)
    with pytest.raises(ShapeError):
        bn.run_variant("warp", cfg, 8, 8, reps=1)


def test_bench_rejects_dtype_outside_f32_f64():
    cfg = SwConfig(**SMALL)
    with pytest.raises(ShapeError, match="dtype"):
        bn.run_variant("fused", cfg, 8, 8, reps=1, dtype="f16")
    with pytest.raises(ShapeError, match="dtype"):
        bn.verify_variants(cfg, trials=1, h=8, w=8, dtype="f16")


def test_runner_runs_the_input_it_is_given():
    """x replaces the drawn input; an input that is not (C, h, w) in the
    runner's dtype is a ShapeError that names its shape."""
    cfg = SwConfig(**SMALL)
    own = bn._Runner(cfg, 8, 9, "f64")
    same = bn._Runner(cfg, 8, 9, "f64", x=own.x.copy())
    flipped = check_routes(cfg, own.weights, own.plan, own.x[:, ::-1].copy(), names=bn.VARIANTS)
    for variant in bn.VARIANTS:
        want = own.run(variant, bn._Instr())
        assert same.run(variant, bn._Instr()).tobytes() == want.tobytes()
        assert flipped[variant].tobytes() != want.tobytes()
    for bad in (own.x[None], own.x[:, :-1], own.x[:-1], own.x.astype(np.float32)):
        with pytest.raises(ShapeError, match=rf"{re.escape(str(bad.shape))} and dtype {bad.dtype}"):
            bn._Runner(cfg, 8, 9, "f64", x=bad)


def test_one_measured_rep_reports_a_fresh_runs_checksum():
    cfg = SwConfig(**SMALL)
    rep = bn.run_variant("fused", cfg, 18, 20, reps=1, warmup=0, dtype="f32")
    assert len(rep.samples_ns) == 1
    fresh = bn._Runner(cfg, 18, 20, "f32").run("fused", bn._Instr())
    assert rep.checksum == hashlib.sha256(fresh.tobytes()).hexdigest()
    with pytest.raises(ShapeError):
        bn.run_variant("fused", cfg, 8, 8, reps=0)


def test_measure_reports_one_median_per_variant():
    reports = bn.measure(SwConfig(**SMALL), 12, 12, ("naive", "fused"), reps=3, warmup=1)
    assert [r.variant for r in reports] == ["naive", "fused"]
    assert all(len(r.samples_ns) == 3 and r.median_ns > 0 for r in reports)
