import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import (ShapeError, Tensor, conv2d_ref, fanout_conv, from_array,
                      max_abs_diff, strip_conv_ref)
from shiftlab.rng import CounterRng
from loop_oracles import naive_conv2d, naive_depthwise


def test_identity_kernel(rng):
    x = from_array(rng.uniform(-1, 1, (3, 6, 7)))
    w = np.ones((3, 1, 1, 1))
    y = conv2d_ref(x, w)
    assert max_abs_diff(x, y) == 0.0


def test_ones_kernel_tap_counting():
    x = from_array(np.ones((1, 3, 3)))
    w = np.ones((1, 1, 3, 3))
    y = conv2d_ref(x, w).data
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
            got = conv2d_ref(Tensor(x), w).data
            want = naive_conv2d(x, w, kh // 2, kw // 2, groups)
            assert got.shape == (8, 9, 8)
            assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("shape", ((2, 1, 4, 3), (2, 1, 3, 2), (2, 1, 2, 2)))
def test_even_kernel_extents_raise(rng, shape):
    x = from_array(rng.uniform(-1, 1, (2, 8, 8)))
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
    x = from_array(rng.uniform(-1, 1, (c_in, 6, 6)))
    with pytest.raises(ShapeError, match="do not divide"):
        conv2d_ref(x, np.ones(w_shape))


def test_strip_delta_kernel_is_identity(rng):
    x = from_array(rng.uniform(-1, 1, (2, 10, 11)))
    k = np.zeros((2, 7, 3))
    k[:, 3, 1] = 1.0
    y = strip_conv_ref(x, k)
    assert max_abs_diff(x, y) == 0.0


def test_strip_matches_grouped_conv():
    """strip_conv_ref(x, k) is byte for byte conv2d_ref(x, k[:, None])."""
    x = Tensor(_f32("x", (3, 20, 11)))
    for kh, kw in ((51, 3), (3, 51), (1, 1), (5, 5)):
        k = _f32("k", (3, kh, kw))
        assert strip_conv_ref(x, k).data.tobytes() == conv2d_ref(x, k[:, None]).data.tobytes()


def test_horizontal_strip_is_transposed_vertical(rng):
    x = rng.uniform(-1, 1, (2, 12, 15))
    k = rng.uniform(-1, 1, (2, 9, 3))
    vert = strip_conv_ref(Tensor(np.ascontiguousarray(x.transpose(0, 2, 1))), k).data
    horiz = strip_conv_ref(Tensor(x), k.transpose(0, 2, 1)).data
    assert np.max(np.abs(horiz - vert.transpose(0, 2, 1))) <= 1e-12


_SAME = ((1, 1), (1, 1))     # "same" pads of a 3x3 bank


def test_fanout_degenerate_is_depthwise(rng):
    c = 3
    x = rng.uniform(-1, 1, (c, 9, 9))
    w = rng.uniform(-1, 1, (c, 1, 3, 3))
    got = fanout_conv(Tensor(x), w, _SAME).data
    want = naive_depthwise(x, w[:, 0])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_fanout_channel_bookkeeping(rng):
    x = rng.uniform(-1, 1, (2, 8, 8))
    w = rng.uniform(-1, 1, (2, 3, 3, 3))
    out = fanout_conv(Tensor(x), w, _SAME).data
    assert out.shape == (6, 8, 8)
    # output channel c*g + k = conv(x[c], w[c][k]); channel 4 = (c=1, k=1)
    want = naive_depthwise(x[1:2], w[1:2, 1])
    assert np.max(np.abs(out[4] - want[0])) <= 1e-12


def test_fanout_matches_per_channel_conv2d(rng):
    c, g = 3, 4
    x = rng.uniform(-1, 1, (c, 10, 7))
    w = rng.uniform(-1, 1, (c, g, 3, 3))
    out = fanout_conv(Tensor(x), w, _SAME).data
    for ci in range(c):
        for k in range(g):
            single = conv2d_ref(Tensor(x[ci:ci + 1]), w[ci, k].reshape(1, 1, 3, 3)).data
            assert np.max(np.abs(out[ci * g + k] - single[0])) <= 1e-12


@settings(max_examples=15)
@given(st.integers(0, 2**31), st.floats(-3, 3), st.floats(-3, 3))
def test_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-1, 1, (2, 7, 7))
    x2 = rng.uniform(-1, 1, (2, 7, 7))
    w = rng.uniform(-1, 1, (2, 2, 3, 3))
    lhs = conv2d_ref(Tensor(a * x1 + b * x2), w).data
    rhs = a * conv2d_ref(Tensor(x1), w).data + b * conv2d_ref(Tensor(x2), w).data
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_translation_equivariance_interior(rng):
    x = rng.uniform(-1, 1, (1, 12, 12))
    shifted = np.zeros_like(x)
    dy, dx = 2, 1
    shifted[:, dy:, dx:] = x[:, :-dy, :-dx]
    k = rng.uniform(-1, 1, (1, 3, 3))
    y = strip_conv_ref(Tensor(x), k).data
    ys = strip_conv_ref(Tensor(shifted), k).data
    # interior rows/cols unaffected by either padding boundary
    assert np.max(np.abs(ys[:, dy + 1:-1, dx + 1:-1] - y[:, 1:-1 - dy, 1:-1 - dx])) <= 1e-12


def test_shape_errors(rng):
    x = from_array(rng.uniform(-1, 1, (3, 6, 6)))
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
        y = conv2d_ref(Tensor(x), w).data
        assert y.shape == (2, 3, 6, 6)
        for i in range(2):
            assert np.array_equal(y[i], conv2d_ref(Tensor(x[i]), w).data)


def _f32(label, shape):
    return CounterRng(7, "conv-ref-pin", label).uniform_array(shape, -1, 1, np.float32)


_PIN_CASES = {
    "conv2d_s1_g1": lambda: conv2d_ref(
        Tensor(_f32("x", (4, 9, 8))), _f32("w", (6, 4, 3, 3))),
    "conv2d_s1_gC": lambda: conv2d_ref(
        Tensor(_f32("x", (4, 9, 8))), _f32("w", (8, 1, 5, 3))),
    "strip_51x3": lambda: strip_conv_ref(
        Tensor(_f32("x", (2, 20, 7))), _f32("k", (2, 51, 3))),
    "strip_1x1": lambda: strip_conv_ref(
        Tensor(_f32("x", (2, 20, 7))), _f32("k", (2, 1, 1))),
    "fanout_g1": lambda: fanout_conv(
        Tensor(_f32("x", (3, 10, 7))), _f32("w", (3, 1, 3, 3)), _SAME),
    "fanout_g17": lambda: fanout_conv(
        Tensor(_f32("x", (3, 10, 7))), _f32("w", (3, 17, 3, 3)), ((3, 0), (1, 2))),
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
        y = case().data
        assert y.dtype == np.float32
        got[name] = hashlib.sha256(repr(y.shape).encode() + y.tobytes()).hexdigest()
    assert got == _PINS
