import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shiftlab import (ShapeError, SwConfig, build_shift_plan, conv2d_ref, densify,
                      fanout_conv, max_abs_diff, random_weights, strip_conv_ref)
from shiftlab.conv_ref import _live_taps
from shiftlab.rng import CounterRng
from shiftlab.sw_op import PAD_MODES, _grid_geometry
from loop_oracles import (naive_conv2d, naive_depthwise, windowed_conv2d,
                          windowed_fanout)


def test_identity_kernel(rng):
    x = rng.uniform(-1, 1, (3, 6, 7))
    w = np.ones((3, 1, 1, 1))
    y = conv2d_ref(x, w)
    assert max_abs_diff(x, y) == 0.0


def test_ones_kernel_tap_counting():
    x = np.ones((1, 3, 3))
    w = np.ones((1, 1, 3, 3))
    y = conv2d_ref(x, w)
    assert y[0, 1, 1] == 9.0
    assert y[0, 0, 0] == 4.0
    assert y[0, 0, 1] == 6.0


def test_against_independent_triple_loop(rng):
    """Groups C // in_channels_per_group and "same" pads kh//2, kw//2 come
    from the bank: the triple loop with those, for groups 1, 2 and C."""
    for groups in (1, 2, 4):
        for kh, kw in ((3, 3), (5, 3)):
            x = rng.uniform(-1, 1, (4, 9, 8))
            w = rng.uniform(-1, 1, (8, 4 // groups, kh, kw))
            got = conv2d_ref(x, w)
            want = naive_conv2d(x, w, kh // 2, kw // 2, groups)
            assert got.shape == (8, 9, 8)
            assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("shape", ((2, 1, 4, 3), (2, 1, 3, 2), (2, 1, 2, 2)))
def test_even_kernel_extents_raise(rng, shape):
    x = rng.uniform(-1, 1, (2, 8, 8))
    with pytest.raises(ShapeError, match="must be odd"):
        conv2d_ref(x, np.ones(shape))
    with pytest.raises(ShapeError, match="must be odd"):
        strip_conv_ref(x, np.ones((2,) + shape[2:]))


@pytest.mark.parametrize("c_in, w_shape", (
    (6, (6, 4, 3, 3)),      # 6 input channels do not split into groups of 4
    (6, (6, 7, 3, 3)),      # a group wider than the input
    (6, (5, 2, 3, 3)),      # 3 groups, 5 outputs
    (4, (6, 1, 3, 3)),      # 4 groups, 6 outputs
))
def test_channels_that_do_not_divide_into_groups_raise(rng, c_in, w_shape):
    x = rng.uniform(-1, 1, (c_in, 6, 6))
    with pytest.raises(ShapeError, match="do not divide"):
        conv2d_ref(x, np.ones(w_shape))


def test_strip_delta_kernel_is_identity(rng):
    x = rng.uniform(-1, 1, (2, 10, 11))
    k = np.zeros((2, 7, 3))
    k[:, 3, 1] = 1.0
    y = strip_conv_ref(x, k)
    assert max_abs_diff(x, y) == 0.0


def test_strip_matches_grouped_conv():
    """strip_conv_ref(x, k) is byte for byte conv2d_ref(x, k[:, None])."""
    x = _f32("x", (3, 20, 11))
    for kh, kw in ((51, 3), (3, 51), (1, 1), (5, 5)):
        k = _f32("k", (3, kh, kw))
        assert strip_conv_ref(x, k).tobytes() == conv2d_ref(x, k[:, None]).tobytes()


def test_horizontal_strip_is_transposed_vertical(rng):
    x = rng.uniform(-1, 1, (2, 12, 15))
    k = rng.uniform(-1, 1, (2, 9, 3))
    vert = strip_conv_ref(x.transpose(0, 2, 1), k)
    horiz = strip_conv_ref(x, k.transpose(0, 2, 1))
    assert np.max(np.abs(horiz - vert.transpose(0, 2, 1))) <= 1e-12


_SAME = ((1, 1), (1, 1))     # "same" pads of a 3x3 bank


def test_fanout_degenerate_is_depthwise(rng):
    c = 3
    x = rng.uniform(-1, 1, (c, 9, 9))
    w = rng.uniform(-1, 1, (c, 1, 3, 3))
    got = fanout_conv(x, w, _SAME)[:, 0]
    want = naive_depthwise(x, w[:, 0])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_fanout_channel_bookkeeping(rng):
    x = rng.uniform(-1, 1, (2, 8, 8))
    w = rng.uniform(-1, 1, (2, 3, 3, 3))
    out = fanout_conv(x, w, _SAME)
    assert out.shape == (2, 3, 8, 8)
    # out[c, k] = conv(x[c], w[c][k])
    want = naive_depthwise(x[1:2], w[1:2, 1])
    assert np.max(np.abs(out[1, 1] - want[0])) <= 1e-12


def test_fanout_matches_per_channel_conv2d(rng):
    c, g = 3, 4
    x = rng.uniform(-1, 1, (c, 10, 7))
    w = rng.uniform(-1, 1, (c, g, 3, 3))
    out = fanout_conv(x, w, _SAME)
    for ci in range(c):
        for k in range(g):
            single = conv2d_ref(x[ci:ci + 1], w[ci, k].reshape(1, 1, 3, 3))
            assert np.max(np.abs(out[ci, k] - single[0])) <= 1e-12


@settings(max_examples=15)
@given(st.integers(0, 2**31), st.floats(-3, 3), st.floats(-3, 3))
def test_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-1, 1, (2, 7, 7))
    x2 = rng.uniform(-1, 1, (2, 7, 7))
    w = rng.uniform(-1, 1, (2, 2, 3, 3))
    lhs = conv2d_ref(a * x1 + b * x2, w)
    rhs = a * conv2d_ref(x1, w) + b * conv2d_ref(x2, w)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_translation_equivariance_interior(rng):
    x = rng.uniform(-1, 1, (1, 12, 12))
    shifted = np.zeros_like(x)
    dy, dx = 2, 1
    shifted[:, dy:, dx:] = x[:, :-dy, :-dx]
    k = rng.uniform(-1, 1, (1, 3, 3))
    y = strip_conv_ref(x, k)
    ys = strip_conv_ref(shifted, k)
    # interior rows/cols unaffected by either padding boundary
    assert np.max(np.abs(ys[:, dy + 1:-1, dx + 1:-1] - y[:, 1:-1 - dy, 1:-1 - dx])) <= 1e-12


def test_shape_errors(rng):
    x = rng.uniform(-1, 1, (3, 6, 6))
    with pytest.raises(ShapeError):
        conv2d_ref(x, np.ones((2, 2, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d_ref(x, np.ones((3, 3, 3)))
    with pytest.raises(ShapeError):
        strip_conv_ref(x, np.ones((2, 3, 3)))


def test_batch_input(rng):
    for groups in (1, 3):
        x = rng.uniform(-1, 1, (2, 3, 6, 6))
        w = rng.uniform(-1, 1, (3, 3 // groups, 3, 3))
        y = conv2d_ref(x, w)
        assert y.shape == (2, 3, 6, 6)
        for i in range(2):
            assert np.array_equal(y[i], conv2d_ref(x[i], w))


def _signed_zeros(rng, shape, dtype):
    """Uniform values, about a quarter of them +0.0 and a quarter -0.0."""
    a = rng.uniform(-1, 1, shape)
    pick = rng.integers(0, 4, shape)
    a[pick == 0] = 0.0
    a[pick == 1] = -0.0
    return a.astype(dtype)


def _zero_taps(rng, bank):
    """Zero about half of the bank's taps (cl, u, v) for every output, each
    entry to +-0.0 with its own sign."""
    bank *= rng.uniform(size=bank.shape[-3:]) < 0.5


def _spoil(rng, a):
    """Put +inf, -inf or nan at about one entry in 20 of a, at least one."""
    flat = a.reshape(-1)
    at = rng.integers(0, flat.size, 1 + flat.size // 20)
    flat[at] = rng.choice(np.array([np.inf, -np.inf, np.nan], a.dtype), at.size)


def _operands(rng, x_shape, bank_shape, dtype, zero_taps, nonfinite):
    x = _signed_zeros(rng, x_shape, dtype)
    bank = _signed_zeros(rng, bank_shape, dtype)
    if zero_taps:
        _zero_taps(rng, bank)
    if nonfinite:
        _spoil(rng, x if nonfinite == "x" else bank)
    return x, bank


_DTYPES = st.sampled_from((np.float32, np.float64))
_GRID = st.integers(1, 9)       # down to 1x1 and narrower than a 7-tap kernel
# 19 taps: taller and wider than twice every grid, so that some taps of
# every such kernel read only zero padding
_KERNEL = st.sampled_from((1, 3, 5, 7, 19))
_NONFINITE = st.sampled_from((None, "x", "w"))      # which operand holds inf/nan


def _same_bytes(got, want):
    """Same shape, dtype and bytes, except that the bits of a nan are not
    compared: which nan an inf * 0 meeting a nan operand leaves (its sign)
    depends on the numpy loop the array layout selects, and the whole-row
    and windowed loops select different ones, skip or no skip."""
    nan = np.isnan(want)
    return got.shape == want.shape and got.dtype == want.dtype \
        and np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), _DTYPES, _KERNEL, st.sampled_from((1, 3, 5, 19)),
       _GRID, _GRID, st.sampled_from((1, 2, "C")), st.integers(1, 3), st.integers(1, 2),
       st.sampled_from((None, 1, 2)), st.booleans(), _NONFINITE)
@np.errstate(invalid="ignore")       # inf * 0 and inf - inf are nan
def test_tap_loop_bytes_match_the_windowed_loop(seed, dtype, kh, kw, h, w, groups,
                                                cpg, opg, batch, zero_taps, nonfinite):
    """conv2d_ref and strip_conv_ref add the same products in the same order
    as the windowed (u, v, channel) loop, which skips no tap: byte-equal
    outputs, -0.0 included, also where whole taps are zero for every
    output, where taps read only padding, and where inf or nan appear."""
    rng = np.random.default_rng(seed)
    if groups == "C":
        groups, cpg = cpg + 1, 1            # depthwise: one group per channel
    c_in = groups * cpg
    lead = () if batch is None else (batch,)
    x, bank = _operands(rng, lead + (c_in, h, w), (groups * opg, cpg, kh, kw), dtype,
                        zero_taps, nonfinite)
    assert _same_bytes(conv2d_ref(x, bank), windowed_conv2d(x, bank))
    if batch is None:
        x, k = _operands(rng, (c_in, h, w), (c_in, kh, kw), dtype, zero_taps, nonfinite)
        assert _same_bytes(strip_conv_ref(x, k),
                           windowed_conv2d(x, k[:, None]))


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), _DTYPES, st.sampled_from((1, 3, 5, 7)),
       st.integers(0, 12), _GRID, _GRID, st.sampled_from(PAD_MODES),
       st.sampled_from((("H",), ("W",), ("H", "W", "center"))), st.integers(1, 3),
       st.booleans(), _NONFINITE)
@np.errstate(invalid="ignore")       # inf * 0 and inf - inf are nan
def test_fanout_bytes_match_the_windowed_loop(seed, dtype, n, extra, h, w, pad_mode,
                                              branches, c, zero_taps, nonfinite):
    """fanout_conv on the working-grid pads of every pad mode, byte-equal
    to the windowed loop, with the zero taps and non-finite operands of
    the test above."""
    assume(n > 1 or pad_mode != "full")     # SwConfig refuses full mode at N = 1
    rng = np.random.default_rng(seed)
    cfg = SwConfig(m=n + extra, n=n, channels=c, pad_mode=pad_mode,
                   branch_types=branches)
    pads, _ = _grid_geometry(cfg, h, w)
    x, bank = _operands(rng, (c, h, w), (c, cfg.g, n, n), dtype, zero_taps, nonfinite)
    assert _same_bytes(fanout_conv(x, bank, pads),
                       windowed_fanout(x, bank, pads))


def _taps(x, filt, pads):
    """_correlate's live taps for planes x and filters filt under pads."""
    (pt, pb), (pl, pr) = pads
    out_h = x.shape[-2] + pt + pb - filt.shape[-2] + 1
    out_w = x.shape[-1] + pl + pr - filt.shape[-1] + 1
    return [tuple(t) for t in _live_taps(x, filt, pt, pl, out_h, out_w)]


def test_live_taps_skip_zero_and_padding_only_taps_of_finite_operands():
    """A 5x5 "same" tap loop on a 1 x 2 plane: kernel rows 0-1 and 3-4 and
    columns 0 and 4 read only padding, and tap (2, 2) is +-0 for both
    outputs.  An inf or a nan in either operand keeps every tap."""
    pads = ((2, 2), (2, 2))
    x = np.ones((1, 1, 1, 2))
    filt = np.ones((2, 1, 5, 5))
    filt[:, 0, 2, 2] = (0.0, -0.0)
    assert _taps(x, filt, pads) == [(2, 1, 0), (2, 3, 0)]
    every = [(u, v, 0) for u in range(5) for v in range(5)]
    for value in (np.inf, -np.inf, np.nan):
        spoilt = filt.copy()
        spoilt[1, 0, 4, 4] = value
        assert _taps(x, spoilt, pads) == every
        assert _taps(np.full_like(x, value), filt, pads) == every


def test_live_taps_of_the_densify_kernels():
    """verify's densify-consistency kernels (fan-outs 1, 5 and 17) are a
    cross of one vertical and one horizontal strip: 9, 81 and 297 of their
    taps can add a nonzero product on a grid as large as the kernel."""
    for m, want in ((3, 9), (13, 81), (51, 297)):
        cfg = SwConfig(m=m, n=3, channels=3, edges=2, rep_branches=2, pad_mode="exact",
                       order_policy="per_edge_shuffled", seed=0)
        k = densify(random_weights(cfg), build_shift_plan(cfg), cfg)
        kh, kw = k.shape[-2:]
        x = np.ones((3, 1, 1, kh, kw))
        assert len(_taps(x, k[:, None, None], ((kh // 2,) * 2, (kw // 2,) * 2))) == want


def _f32(label, shape):
    return CounterRng(7, "conv-ref-pin", label).uniform_array(shape, -1, 1, np.float32)


def _flat(maps):
    """A (C, g, Hg, Wg) fan-out stack as the (C*g, Hg, Wg) stack its pin hashes."""
    return maps.reshape((-1,) + maps.shape[2:])


_PIN_CASES = {
    "conv2d_s1_g1": lambda: conv2d_ref(
        _f32("x", (4, 9, 8)), _f32("w", (6, 4, 3, 3))),
    "conv2d_s1_gC": lambda: conv2d_ref(
        _f32("x", (4, 9, 8)), _f32("w", (8, 1, 5, 3))),
    "strip_51x3": lambda: strip_conv_ref(
        _f32("x", (2, 20, 7)), _f32("k", (2, 51, 3))),
    "strip_1x1": lambda: strip_conv_ref(
        _f32("x", (2, 20, 7)), _f32("k", (2, 1, 1))),
    "fanout_g1": lambda: _flat(fanout_conv(
        _f32("x", (3, 10, 7)), _f32("w", (3, 1, 3, 3)), _SAME)),
    "fanout_g17": lambda: _flat(fanout_conv(
        _f32("x", (3, 10, 7)), _f32("w", (3, 17, 3, 3)), ((3, 0), (1, 2)))),
}


_PINS = {
    "conv2d_s1_g1": "8f1713e2990fb6dab69acd5447b07594126ddf3096c1a6a61f29157c91f4be7d",
    "conv2d_s1_gC": "e69cc56ef0fc4bc79c87002aa64b7eb0b09f615284612e44b128851d134f22fd",
    "strip_51x3": "95487d172bba4d70074233e6717a22767e18f9f4244a1137d93398ffc4b9de21",
    "strip_1x1": "2b4dfdb2bbe84a858228968bb72aae852d210e9d430eadc76fa73f0c9a214f0d",
    "fanout_g1": "0b6e659f38ba9e43a7398864b0bc6d973e16a051e61b58704c56e0712528ed57",
    "fanout_g17": "f5304e61f41e45fa90ad0a8bbec61fca8b3716ea12113ece9805e7541c44377a",
}


def test_f32_outputs_pinned():
    """Frozen sha256 of f32 oracle outputs: a change of the (u, v, channel)
    accumulation order changes the bits and fails."""
    got = {}
    for name, case in _PIN_CASES.items():
        y = case()
        assert y.dtype == np.float32
        got[name] = hashlib.sha256(repr(y.shape).encode() + y.tobytes()).hexdigest()
    assert got == _PINS
