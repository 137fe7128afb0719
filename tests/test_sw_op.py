import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shiftlab as sl
from shiftlab.rng import CounterRng
from shiftlab.sw_op import PAD_MODES
from loop_oracles import naive_depthwise, shift_indices
from operator_space import check_routes


# ---------------------------------------------------------------------------
# shift plan
# ---------------------------------------------------------------------------

def test_plan_m51_n3():
    cfg = sl.SwConfig(m=51, n=3, channels=2)
    assert cfg.g == 17 and cfg.delta_p == 24
    plan = sl.build_shift_plan(cfg)
    d = cfg.displacements()
    assert d == tuple(range(-24, 25, 3))
    assert plan.center_block == 8 and d[plan.center_block] == 0
    # ordered: H takes the displacements in order, W in reverse order
    assert plan.disp_h.tolist() == [[list(d)] * 2]
    assert plan.disp_w.tolist() == [[list(d[::-1])] * 2]
    assert [f.name for f in dataclasses.fields(plan)] == ["disp_h", "disp_w"]
    for t in (plan.disp_h, plan.disp_w):
        assert t.dtype == np.int64 and not t.flags.writeable


def test_plan_degenerate_m_equals_n():
    cfg = sl.SwConfig(m=3, n=3, channels=1)
    assert cfg.g == 1 and cfg.delta_p == 0
    plan = sl.build_shift_plan(cfg)
    assert cfg.displacements() == (0,)
    assert plan.disp_h.tolist() == plan.disp_w.tolist() == [[[0]]]


def test_plan_per_edge_shuffled_bijective_and_distinct():
    cfg = sl.SwConfig(m=51, n=3, channels=1, edges=2,
                      order_policy="per_edge_shuffled", seed=7)
    plan = sl.build_shift_plan(cfg)
    p0 = list(plan.disp_h[0, 0])
    p1 = list(plan.disp_h[1, 0])
    assert sorted(p0) == list(cfg.displacements())
    assert sorted(p1) == list(cfg.displacements())
    assert p0 != p1


def test_plan_ordered_identical_across_edges():
    cfg = sl.SwConfig(m=21, n=3, channels=3, edges=4)
    plan = sl.build_shift_plan(cfg)
    for e in range(4):
        assert np.array_equal(plan.disp_h[e], np.tile(cfg.displacements(), (3, 1)))
        assert np.array_equal(plan.disp_w[e], np.tile(cfg.displacements()[::-1], (3, 1)))


def test_plan_disordered_shuffles_vertical_branch_only():
    cfg = sl.SwConfig(m=21, n=3, channels=4, edges=2,
                      order_policy="disordered", seed=11)
    plan = sl.build_shift_plan(cfg)
    d = cfg.displacements()
    assert np.array_equal(plan.disp_h[0], plan.disp_h[1])  # shared across edges
    assert not np.array_equal(plan.disp_h[0], np.tile(d, (4, 1)))
    assert np.array_equal(plan.disp_w[0], np.tile(d[::-1], (4, 1)))
    for c in range(4):
        assert sorted(plan.disp_h[0, c]) == list(d)


@settings(max_examples=20)
@given(st.integers(0, 2**31), st.integers(1, 4), st.integers(1, 3), st.sampled_from((31, 35)))
def test_plan_permutation_property(seed, edges, channels, m):
    cfg = sl.SwConfig(m=m, n=5, channels=channels, edges=edges,
                      order_policy="per_edge_shuffled", seed=seed)
    plan = sl.build_shift_plan(cfg)
    sigma_h, sigma_w = shift_indices(cfg, plan)
    # one permutation per (edge, channel), shared by the H and W branches
    assert np.array_equal(sigma_h, sigma_w)
    for e in range(edges):
        for c in range(channels):
            assert sorted(sigma_h[e, c]) == list(range(cfg.g))


def test_plan_deterministic():
    cfg = sl.SwConfig(m=51, n=3, channels=2, edges=3,
                      order_policy="per_edge_shuffled", seed=123)
    a = sl.build_shift_plan(cfg)
    b = sl.build_shift_plan(cfg)
    assert np.array_equal(a.disp_h, b.disp_h) and np.array_equal(a.disp_w, b.disp_w)


# ---------------------------------------------------------------------------
# from_strip
# ---------------------------------------------------------------------------

def test_from_strip_block_structure_exact_fit(rng):
    k = rng.uniform(-1, 1, (1, 51, 3))
    cfg, wts, plan = sl.from_strip(k)
    bank = wts.rep[0]
    assert bank.shape == (1, 17, 3, 3)
    assert np.array_equal(bank[0, 16], k[0, 48:51])  # 51 = 17*3, no zero rows
    assert cfg.branch_types == ("H",)


def test_from_strip_block_structure_padded_tail(rng):
    k = rng.uniform(-1, 1, (1, 49, 3))
    cfg, wts, plan = sl.from_strip(k)
    bank = wts.rep[0]
    assert cfg.g == 17
    assert np.array_equal(bank[0, 16, 0], k[0, 48])
    assert not bank[0, 16, 1:].any()  # one valid row, two zero rows


def test_fanout_blocks_match_partitioned_strip_rows(rng):
    """Fan-out output [c, k] is the conv with the k-th strip partition."""
    k = rng.uniform(-1, 1, (2, 15, 3))
    x = rng.uniform(-1, 1, (2, 9, 9))
    cfg, wts, plan = sl.from_strip(k)
    out = sl.fanout_conv(x, wts.rep[0], ((1, 1), (1, 1)))
    for c in range(2):
        for blk in range(cfg.g):
            rows = k[c, 3 * blk:3 * blk + 3, :]
            filt = np.zeros((3, 3))
            filt[:rows.shape[0]] = rows
            want = sl.conv2d_ref(x[c:c + 1], filt.reshape(1, 1, 3, 3))
            assert np.max(np.abs(out[c, blk] - want[0])) <= 1e-12


def test_from_strip_equivalence(rng):
    k = rng.uniform(-0.5, 0.5, (2, 49, 5))
    x = rng.uniform(-0.5, 0.5, (2, 17, 21))
    cfg, wts, plan = sl.from_strip(k)
    y = sl.sw_forward(x, wts, cfg, plan)
    want = sl.strip_conv_ref(x, k)
    assert sl.max_abs_diff(y, want) <= 1e-10


# ---------------------------------------------------------------------------
# sw_forward
# ---------------------------------------------------------------------------

def test_equivalence_sweep_f64(rng):
    worst = 0.0
    for _ in range(25):
        n = int(rng.choice([3, 5]))
        m = int(rng.choice(np.arange(n, 52, 2)))
        c = int(rng.integers(1, 5))
        h, w = int(rng.integers(8, 28)), int(rng.integers(8, 28))
        k = rng.uniform(-0.5, 0.5, (c, m, n))
        x = rng.uniform(-0.5, 0.5, (c, h, w))
        cfg, wts, plan = sl.from_strip(k)
        worst = max(worst, sl.max_abs_diff(sl.sw_forward(x, wts, cfg, plan),
                                           sl.strip_conv_ref(x, k)))
    assert worst <= 1e-10


def test_ghost_passthrough_bitwise(rng):
    cfg = sl.SwConfig(m=15, n=3, channels=10, ghost=0.23, edges=2,
                      order_policy="per_edge_shuffled", seed=5)
    assert cfg.ghost_channels == 2
    check_routes(cfg, sl.random_weights(cfg), sl.build_shift_plan(cfg),
                 rng.uniform(-1, 1, (10, 12, 12)))


def test_edges_multiply_output_under_ordered_policy(rng):
    k = rng.uniform(-1, 1, (2, 15, 3))
    x = rng.uniform(-1, 1, (2, 14, 14))
    outs = {}
    for e in (1, 3):
        cfg = sl.SwConfig(m=15, n=3, channels=2, edges=e, pad_mode="exact",
                          branch_types=("H", "W", "center"))
        plan = sl.build_shift_plan(cfg)
        _, wts, _ = sl.from_strip(k)
        outs[e] = sl.sw_forward(x, wts, cfg, plan)
    assert np.max(np.abs(outs[3] - 3.0 * outs[1])) <= 1e-10


def test_degenerate_three_branch_sum(rng):
    """M = N operator: vertical + horizontal + center all collapse to the
    same small depthwise conv, so the output triples a single conv."""
    c = 3
    k = rng.uniform(-1, 1, (c, 3, 3))
    x = rng.uniform(-1, 1, (c, 10, 10))
    cfg = sl.SwConfig(m=3, n=3, channels=c, pad_mode="exact")
    plan = sl.build_shift_plan(cfg)
    wts = sl.SwWeights(rep=[k.reshape(c, 1, 3, 3).copy()],
                       masks=[np.ones((c, 1), dtype=bool)])
    y = sl.sw_forward(x, wts, cfg, plan)
    single = naive_depthwise(x, k)
    assert np.max(np.abs(y - 3.0 * single)) <= 1e-10


def test_linearity_identity_norm(rng):
    cfg = sl.SwConfig(m=13, n=3, channels=3, edges=2, rep_branches=2,
                      pad_mode="exact", order_policy="per_edge_shuffled", seed=3)
    plan = sl.build_shift_plan(cfg)
    wts = sl.random_weights(cfg)
    x1 = rng.uniform(-1, 1, (3, 11, 11))
    x2 = rng.uniform(-1, 1, (3, 11, 11))
    a, b = 1.7, -2.3
    lhs = sl.sw_forward(a * x1 + b * x2, wts, cfg, plan)
    rhs = (a * sl.sw_forward(x1, wts, cfg, plan)
           + b * sl.sw_forward(x2, wts, cfg, plan))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_train_shape_matches_inference_merge(rng):
    """The training-time shape, one forward per Rep branch with its own
    masked bank, summed, equals the forward of the merged bank."""
    cfg = sl.SwConfig(m=15, n=5, channels=4, rep_branches=3, pad_mode="half", seed=8)
    plan = sl.build_shift_plan(cfg)
    wts = sl.random_weights(cfg)
    wts.masks[1][:, ::2] = False
    x = rng.uniform(-1, 1, (4, 10, 10))
    one = sl.SwConfig(**{**cfg.__dict__, "rep_branches": 1})
    y_tr = sum(sl.sw_forward(x, sl.SwWeights(rep=[bank], masks=[mask], norms=wts.norms),
                             one, plan)
               for bank, mask in zip(wts.rep, wts.masks))
    y_inf = sl.sw_forward(x, wts, cfg, plan)
    assert np.max(np.abs(y_tr - y_inf)) <= 1e-10


def test_norm_applied_per_branch_type(rng):
    cfg = sl.SwConfig(m=9, n=3, channels=2, pad_mode="exact", seed=4)
    plan = sl.build_shift_plan(cfg)
    wts = sl.random_weights(cfg)
    x = rng.uniform(-1, 1, (2, 9, 9))
    base = sl.sw_forward(x, wts, cfg, plan)
    wts.norms["H"] = sl.AffineNorm(2 * np.ones(2), np.zeros(2),
                                   np.zeros(2), np.ones(2), eps=0.0)
    scaled = sl.sw_forward(x, wts, cfg, plan)
    # doubling the vertical branch's scale adds one extra vertical term
    cfg_h = sl.SwConfig(m=9, n=3, channels=2, pad_mode="exact", branch_types=("H",))
    wts_h = sl.SwWeights(rep=[w.copy() for w in wts.rep],
                         masks=[m.copy() for m in wts.masks])
    h_only = sl.sw_forward(x, wts_h, cfg_h, sl.build_shift_plan(cfg_h))
    assert np.max(np.abs(scaled - (base + h_only))) <= 1e-10


def test_batch_rank4(rng):
    cfg = sl.SwConfig(m=9, n=3, channels=2, seed=6)
    plan = sl.build_shift_plan(cfg)
    wts = sl.random_weights(cfg)
    xb = rng.uniform(-1, 1, (2, 2, 8, 8))
    y = sl.sw_forward(xb, wts, cfg, plan)
    y1 = sl.sw_forward(xb[1], wts, cfg, plan)
    assert y.shape == xb.shape and np.array_equal(y[1], y1)


def test_channel_mismatch_raises(rng):
    cfg = sl.SwConfig(m=9, n=3, channels=4)
    plan = sl.build_shift_plan(cfg)
    wts = sl.random_weights(cfg)
    with pytest.raises(sl.ShapeError):
        sl.sw_forward(rng.uniform(-1, 1, (3, 8, 8)), wts, cfg, plan)


def test_plan_shifts_list_the_h_edges_then_the_w_edges():
    # disordered shuffles the H branch only, so disp_h and disp_w differ
    cfg = sl.SwConfig(m=13, n=3, channels=4, edges=2, order_policy="disordered", seed=5)
    plan = sl.build_shift_plan(cfg)
    assert not np.array_equal(plan.disp_h, plan.disp_w)
    zero = np.zeros_like(plan.disp_h)
    for branches, want_dy, want_dx in (
            (("H", "W", "center"), [plan.disp_h, zero], [zero, plan.disp_w]),
            (("center", "W", "H"), [plan.disp_h, zero], [zero, plan.disp_w]),
            (("H",), [plan.disp_h], [zero]),
            (("W", "center"), [zero], [plan.disp_w])):
        dy, dx = plan.shifts(branches)
        assert dy.dtype.kind == dx.dtype.kind == "i", branches
        assert np.array_equal(dy, np.concatenate(want_dy)), branches
        assert np.array_equal(dx, np.concatenate(want_dx)), branches
    dy, dx = plan.shifts(("center",))
    assert dy.shape == dx.shape == (0, 4, 5) and dy.dtype.kind == dx.dtype.kind == "i"


@pytest.mark.parametrize("route", ("densify", "adjoint"), ids=("densify", "SwLayer"))
@pytest.mark.parametrize("other, error", (
    (dict(rep_branches=2), sl.ShapeError),   # a second Rep bank
    (dict(edges=2), sl.PlanError),           # a plan built for two edges
), ids=("two_rep", "two_edge_plan"))
def test_linear_routes_reject_weights_or_plan_of_another_config(route, other, error, rng):
    cfg = sl.SwConfig(m=9, n=3, channels=2, pad_mode="exact")
    odd = sl.SwConfig(**{**cfg.__dict__, **other})
    wts = sl.random_weights(odd if "rep_branches" in other else cfg)
    plan = sl.build_shift_plan(odd if "edges" in other else cfg)
    with pytest.raises(error):
        check_routes(cfg, wts, plan, rng.uniform(-1, 1, (2, 8, 8)), names=(route,))


def _inconsistent_plans(cfg, plan):
    """Plans of M - 2 (the same g at N = 3, other displacements) and M + 6,
    and hand-built ones that break the one invariant, integer (E, C_sw, g)
    tables of cfg's displacements: a table off by one, an entry one step
    before the first displacement and one after the last, both on the
    lattice of displacements, a float table and a table missing a channel."""
    d, n = cfg.displacements(), cfg.n
    for m in (cfg.m - 2, cfg.m + 6):
        yield sl.build_shift_plan(dataclasses.replace(cfg, m=m))
    before, past = plan.disp_h.copy(), plan.disp_w.copy()
    before[0, 0, 0], past[-1, -1, -1] = d[0] - n, d[-1] + n
    yield dataclasses.replace(plan, disp_h=plan.disp_h + 1)
    yield dataclasses.replace(plan, disp_w=plan.disp_w - 1)
    yield dataclasses.replace(plan, disp_h=before)
    yield dataclasses.replace(plan, disp_w=past)
    yield dataclasses.replace(plan, disp_h=plan.disp_h.astype(np.float64))
    yield dataclasses.replace(plan, disp_w=plan.disp_w[:, 1:])


@pytest.mark.parametrize("pad_mode", PAD_MODES)
@pytest.mark.parametrize("names", (("sw_forward",), ("densify",), ("adjoint",), ("naive", "fused")),
                         ids=("sw_forward", "densify", "SwLayer", "bench"))
def test_every_route_rejects_an_inconsistent_plan(pad_mode, names, rng):
    cfg = sl.SwConfig(m=9, n=3, channels=3, edges=2, pad_mode=pad_mode,
                      order_policy="per_edge_shuffled", seed=3)
    wts = sl.random_weights(cfg)
    x = rng.uniform(-1, 1, (3, 8, 8))
    for odd in _inconsistent_plans(cfg, sl.build_shift_plan(cfg)):
        with pytest.raises(sl.PlanError, match="does not match"):
            check_routes(cfg, wts, odd, x, names=names)


def test_independent_center_bank(rng):
    cfg = sl.SwConfig(m=9, n=3, channels=2, pad_mode="exact",
                      center_independent=True, seed=13)
    plan = sl.build_shift_plan(cfg)
    wts = sl.random_weights(cfg)
    x = rng.uniform(-1, 1, (2, 9, 9))
    y = sl.sw_forward(x, wts, cfg, plan)
    cfg_no_c = sl.SwConfig(m=9, n=3, channels=2, pad_mode="exact",
                           branch_types=("H", "W"), seed=13)
    wts_hw = sl.SwWeights(rep=[w.copy() for w in wts.rep],
                          masks=[m.copy() for m in wts.masks])
    partial = sl.sw_forward(x, wts_hw, cfg_no_c,
                            sl.build_shift_plan(cfg_no_c))
    center = naive_depthwise(x, wts.center)
    assert np.max(np.abs(y - (partial + center))) <= 1e-10


# ---------------------------------------------------------------------------
# interior band
# ---------------------------------------------------------------------------

def test_interior_band_examples():
    assert sl.interior_band(sl.SwConfig(m=51, n=3, channels=1), 56, 56) \
        == (24, 31, 24, 31)
    assert sl.interior_band(sl.SwConfig(m=3, n=3, channels=1), 9, 9) == (0, 8, 0, 8)
    assert sl.interior_band(sl.SwConfig(m=51, n=3, channels=1), 16, 16) is None


def test_interior_band_half_equals_exact(rng):
    for m, n in [(21, 3), (15, 5), (13, 3)]:
        c = 2
        cfg_h = sl.SwConfig(m=m, n=n, channels=c, pad_mode="half")
        cfg_e = sl.SwConfig(m=m, n=n, channels=c, pad_mode="exact")
        wts = sl.random_weights(cfg_h)
        x = rng.uniform(-1, 1, (c, 30, 30))
        y_h = sl.sw_forward(x, wts, cfg_h, sl.build_shift_plan(cfg_h))
        y_e = sl.sw_forward(x, wts, cfg_e, sl.build_shift_plan(cfg_e))
        band = sl.interior_band(cfg_h, 30, 30)
        assert band is not None
        r0, r1, c0, c1 = band
        sub_h = y_h[:, r0:r1 + 1, c0:c1 + 1]
        sub_e = y_e[:, r0:r1 + 1, c0:c1 + 1]
        assert np.array_equal(sub_h, sub_e)


def test_full_mode_n3_equals_half_mode(rng):
    """At N = 3 the full-pad working grid collapses to the half grid."""
    cfg_f = sl.SwConfig(m=15, n=3, channels=2, pad_mode="full", seed=9)
    cfg_h = sl.SwConfig(m=15, n=3, channels=2, pad_mode="half", seed=9)
    wts = sl.random_weights(cfg_f)
    x = rng.uniform(-1, 1, (2, 12, 12))
    y_f = sl.sw_forward(x, wts, cfg_f, sl.build_shift_plan(cfg_f))
    y_h = sl.sw_forward(x, wts, cfg_h, sl.build_shift_plan(cfg_h))
    assert np.array_equal(y_f, y_h)


def test_full_mode_n5_grid_silently_widens(rng):
    cfg_f = sl.SwConfig(m=15, n=5, channels=1, pad_mode="full", seed=9)
    cfg_h = sl.SwConfig(m=15, n=5, channels=1, pad_mode="half", seed=9)
    wts = sl.random_weights(cfg_f)
    x = rng.uniform(-1, 1, (1, 16, 16))
    y_f = sl.sw_forward(x, wts, cfg_f, sl.build_shift_plan(cfg_f))
    y_h = sl.sw_forward(x, wts, cfg_h, sl.build_shift_plan(cfg_h))
    assert y_f.shape == y_h.shape == (1, 16, 16)
    assert not np.array_equal(y_f, y_h)  # extra boundary contributions


def _exact_case(shape, dtype=np.float64, masked=False, **over):
    """An exact-mode operator (m = 15, n = 3, 5 channels, ghost 0.23, two
    edges unless `over` says otherwise), its weights and a CounterRng input
    of `shape`; `masked` gives it two Rep branches with fixed masks."""
    kw = dict(m=15, n=3, channels=5, ghost=0.23, edges=2, pad_mode="exact",
              order_policy="per_edge_shuffled", seed=9)
    cfg = sl.SwConfig(**{**kw, **over, **({"rep_branches": 2} if masked else {})})
    wts = sl.random_weights(cfg, dtype=dtype)
    if masked:
        pos = np.add.outer(np.arange(cfg.sw_channels), np.arange(cfg.g))
        wts.masks = [pos % 3 != 0, pos % 2 == 0]
    x = CounterRng(9, "exact-pin", repr(shape)).uniform_array(shape, -1, 1, dtype)
    return cfg, wts, x


# name -> _exact_case arguments: every branch subset on a grid larger than
# the shift reach of 6, then f32, masks, an independent center bank, a
# disordered plan, a batch, grids smaller than N and an m = 51 operator on
# a grid larger than its reach of 24
_EXACT_CASES = {
    "H": dict(shape=(5, 17, 19), branch_types=("H",)),
    "W": dict(shape=(5, 17, 19), branch_types=("W",)),
    "center": dict(shape=(5, 17, 19), branch_types=("center",)),
    "H+W": dict(shape=(5, 17, 19), branch_types=("H", "W")),
    "H+center": dict(shape=(5, 17, 19), branch_types=("H", "center")),
    "W+center": dict(shape=(5, 17, 19), branch_types=("W", "center")),
    "all": dict(shape=(5, 17, 19)),
    "all_f32": dict(shape=(5, 17, 19), dtype=np.float32),
    "rep2_masked": dict(shape=(5, 17, 19), masked=True),
    "rep2_masked_f32": dict(shape=(5, 17, 19), dtype=np.float32, masked=True),
    "center_independent": dict(shape=(5, 17, 19), center_independent=True),
    "disordered": dict(shape=(5, 17, 19), order_policy="disordered"),
    "batch_f32": dict(shape=(2, 5, 9, 11), dtype=np.float32),
    "n5_2x1_f32": dict(shape=(5, 2, 1), dtype=np.float32, m=13, n=5),
    "1x1": dict(shape=(5, 1, 1)),
    "m51_30x28_f32": dict(shape=(5, 30, 28), dtype=np.float32, m=51),
}

# sha256 of repr(shape) and the bytes of each case's sw_forward output
_EXACT_PINS = {
    "H": "581ee30901ac18e49d2baac6d13b0d340530d417280ba524c89a309e39a342c1",
    "W": "8e090e0da1b3e75a2a50cfad7750734dc1260da71365a5f6598593a0afc80e3d",
    "center": "6dbd485654014b150ae1a6828447569b1906f00581e7f20152966251df3d3f83",
    "H+W": "82953d33db277acca1bdf10007c95bf6285d5244f3411c2e41cea402547d31c0",
    "H+center": "c05340ec8d5658bcdac92eacaa8db5bf0dd5400a8cc4de9ca1d451d20dd7f311",
    "W+center": "b19c35115901ca9ccc0053aac97df4aaa94a7cb7cbc29a529f7485b27f0757cf",
    "all": "1cb2638e660eee309d77801cc2d917d7341401150ac8349c50d0dab6be6ea6ce",
    "all_f32": "352e9a2b51fe83f1f57f44f97400649349f40611dd381d3e4afa45835fbb8c62",
    "rep2_masked": "98e0b88579da89a9f0345f5bca7e15a23b104d545b689f96d184bcb4e23a0f4c",
    "rep2_masked_f32": "c40a159066cc933a4650d896b30685eaf5a0a27e4468ca8117cc0aa54987722b",
    "center_independent": "8575f7929849f720cd13c3404555a783d1cceeff60a7fee30156cb86ccf3b76d",
    "disordered": "8971088eed253f98b49d2fcf73e9b62c91a1fcded9cc9eb7f854853dd0b41336",
    "batch_f32": "0f2f9520f94b4c2eb5c30308c6f9fd3c286679a04a864e3238ecb6a27ebc114a",
    "n5_2x1_f32": "68e32425f299798f7bc49e3b2efbf79cee54ebeb733762bc6bd6bf6a843ef256",
    "1x1": "611fed9756640181dc87500049bcdac8e8a3df83ef9d9bd3aba9f4ee659ba2f7",
    "m51_30x28_f32": "9a821c0f8ade2133710eddb0419dfdd2b015ebe6adb0e096b1d94f913ae86a6a",
}


def test_exact_mode_outputs_pinned():
    """Frozen sha256 of exact-mode sw_forward outputs, kept across changes
    of the working grid: a read past a map's support adds +0.0."""
    got = {}
    for name, case in _EXACT_CASES.items():
        cfg, wts, x = _exact_case(**case)
        y = sl.sw_forward(x, wts, cfg, sl.build_shift_plan(cfg))
        assert y.dtype == x.dtype
        got[name] = hashlib.sha256(repr(y.shape).encode() + y.tobytes()).hexdigest()
    assert got == _EXACT_PINS


# ---------------------------------------------------------------------------
# spec + weights serialization
# ---------------------------------------------------------------------------

def test_operator_spec_round_trip(tmp_path):
    cfg = sl.SwConfig(m=49, n=3, channels=12, ghost=0.23, edges=4,
                      rep_branches=2, pad_mode="half",
                      order_policy="per_edge_shuffled", seed=99)
    p = tmp_path / "op.spec"
    sl.write_operator_spec(cfg, p)
    assert sl.read_operator_spec(p) == cfg


def test_operator_spec_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.spec"
    p.write_text("M=9\nN=3\nC=2\nbogus=1\n")
    with pytest.raises(sl.FormatError):
        sl.read_operator_spec(p)


def test_operator_spec_rejects_duplicate_key(tmp_path):
    p = tmp_path / "dup.spec"
    p.write_text("M=9\nN=3\nC=2\nM=51\n")
    with pytest.raises(sl.FormatError, match=r"dup\.spec.*duplicate key 'M'"):
        sl.read_operator_spec(p)


def test_operator_spec_rejects_non_numeric_value(tmp_path):
    p = tmp_path / "nan.spec"
    p.write_text("M=9\nN=3\nC=two\n")
    with pytest.raises(sl.FormatError, match=r"nan\.spec.*key 'C' is not a number"):
        sl.read_operator_spec(p)


def test_operator_spec_rejects_config_invalid_value(tmp_path):
    for i, line in enumerate(("pad_mode=weird", "branches=Q", "branches=")):
        p = tmp_path / f"val{i}.spec"
        p.write_text(f"M=9\nN=3\nC=2\n{line}\n")
        with pytest.raises(sl.FormatError, match=rf"val{i}\.spec: "):
            sl.read_operator_spec(p)


@pytest.mark.parametrize("branches", (("H", "H"), ("W", "center", "W"), ("center",) * 3))
def test_repeated_branch_types_are_rejected(tmp_path, branches):
    with pytest.raises(sl.ShapeError, match="repeated branch types"):
        sl.SwConfig(m=9, n=3, channels=2, branch_types=branches)
    p = tmp_path / "rep.spec"
    p.write_text(f"M=9\nN=3\nC=2\nbranches={','.join(branches)}\n")
    with pytest.raises(sl.FormatError, match=r"rep\.spec: repeated branch types"):
        sl.read_operator_spec(p)


@pytest.mark.parametrize("text, message", (
    ("M=9\nN 3\nC=2\n", "bad line 'N 3'"),
    ("M=9\nC=2\n", "missing key 'N'"),
    ("M=9\nN=3\nC=2\ncenter_independent=2\n", "key 'center_independent' must be 0 or 1: '2'"),
    ("M=9\nN=3\nC=2\ncenter_independent=-1\n", "key 'center_independent' must be 0 or 1: '-1'"),
), ids=("no-equals", "missing-key", "flag-2", "flag-minus-1"))
def test_operator_spec_rejects_malformed_text(tmp_path, text, message):
    p = tmp_path / "case.spec"
    p.write_text(text)
    with pytest.raises(sl.FormatError, match=rf"case\.spec: {message}"):
        sl.read_operator_spec(p)


def test_operator_spec_rejects_non_utf8_bytes(tmp_path):
    p = tmp_path / "bin.spec"
    p.write_bytes(b"\xffM=9\nN=3\nC=2\n")
    with pytest.raises(sl.FormatError, match=r"bin\.spec: not UTF-8 text"):
        sl.read_operator_spec(p)


def test_operator_spec_skips_comments_and_blank_lines(tmp_path):
    cfg = sl.SwConfig(m=51, n=3, channels=80, ghost=0.23, edges=4, rep_branches=2,
                      order_policy="per_edge_shuffled", seed=11)
    p = tmp_path / "op.spec"
    sl.write_operator_spec(cfg, p)
    lines = p.read_text().splitlines()
    p.write_text("# stage-0 operator\n\n" + "\n   \n# next key\n".join(lines) + "\n\n")
    assert sl.read_operator_spec(p) == cfg


def test_weights_round_trip(tmp_path, rng):
    cfg = sl.SwConfig(m=15, n=3, channels=6, ghost=0.2, rep_branches=2, seed=1)
    wts = sl.random_weights(cfg)
    wts.masks[0][0, 1] = False
    wts.norms["W"] = sl.AffineNorm(rng.uniform(0.5, 2, cfg.sw_channels),
                                   rng.uniform(-1, 1, cfg.sw_channels),
                                   rng.uniform(-1, 1, cfg.sw_channels),
                                   rng.uniform(0.1, 1, cfg.sw_channels), eps=1e-5)
    from shiftlab.sw_op import load_sw_weights, save_sw_weights
    save_sw_weights(wts, tmp_path)
    back = load_sw_weights(tmp_path, cfg)
    for a, b in zip(wts.rep, back.rep):
        assert np.array_equal(a, b)
    for a, b in zip(wts.masks, back.masks):
        assert np.array_equal(a, b)
    assert back.norms["H"] is None
    assert np.array_equal(back.norms["W"].gamma, wts.norms["W"].gamma)
    assert back.norms["W"].eps == wts.norms["W"].eps


@pytest.mark.parametrize("name, rows, message", (
    ("rep0.swt", np.zeros((4, 17, 3, 2)), r"bank shape \(4, 17, 3, 2\) != \(4, 17, 3, 3\)"),
    ("mask0.swt", np.ones((4, 16)), r"mask shape \(4, 16\) != \(4, 17\)"),
    ("center.swt", np.zeros((4, 3, 5)), "independent center bank"),
    ("center.swt", None, "independent center bank missing"),
    ("bn_H.swt", np.ones((3, 4)), r"expected \(5, C\) norm rows, got \(3, 4\)"),
    ("bn_W.swt", sl.AffineNorm.identity(3).as_rows(), "norm 'W' has 3 channels"),
    ("bn_center.swt", -np.ones((5, 4)), "running variance must be non-negative"),
), ids=("bank", "mask", "center", "no-center", "norm-rows", "norm-channels", "norm-values"))
def test_weights_rejections_name_the_file(tmp_path, name, rows, message):
    from shiftlab.sw_op import load_sw_weights, save_sw_weights
    cfg = sl.SwConfig(m=51, n=3, channels=4, center_independent=True, seed=3)
    save_sw_weights(sl.random_weights(cfg), tmp_path)
    if rows is None:
        (tmp_path / name).unlink()
    else:
        sl.write_container(sl.from_array(rows), tmp_path / name)
    with pytest.raises(sl.FormatError, match=re.escape(f"{tmp_path / name}: ") + message):
        load_sw_weights(tmp_path, cfg)


def test_tiny_ghost_ratio_ghosts_nobody(rng):
    cfg = sl.SwConfig(m=9, n=3, channels=3, ghost=0.1)
    assert cfg.ghost_channels == 0 and cfg.sw_channels == 3
    wts = sl.random_weights(cfg)
    plan = sl.build_shift_plan(cfg)
    x = rng.uniform(-1, 1, (3, 8, 8))
    cfg0 = sl.SwConfig(m=9, n=3, channels=3, ghost=0.0)
    y = sl.sw_forward(x, wts, cfg, plan)
    y0 = sl.sw_forward(x, wts, cfg0, sl.build_shift_plan(cfg0))
    assert np.array_equal(y, y0)


def test_config_validation():
    with pytest.raises(sl.ShapeError):
        sl.SwConfig(m=9, n=4, channels=2)          # even short side
    with pytest.raises(sl.ShapeError):
        sl.SwConfig(m=3, n=5, channels=2)          # M < N
    with pytest.raises(sl.ShapeError):
        sl.SwConfig(m=9, n=3, channels=2, ghost=1.0)
    with pytest.raises(sl.ShapeError):
        sl.SwConfig(m=9, n=3, channels=2, pad_mode="nope")
    for mode in PAD_MODES:
        sl.SwConfig(m=9, n=3, channels=2, pad_mode=mode)


def test_full_mode_at_n1_is_refused_by_name(tmp_path):
    # full mode enlarges each axis by (N-1) - ceil(N/2), which is -1 at N = 1
    with pytest.raises(sl.ShapeError, match=r"pad mode 'full'.*N = 1"):
        sl.SwConfig(m=5, n=1, channels=2, pad_mode="full")
    for mode in ("exact", "half"):
        sl.SwConfig(m=5, n=1, channels=2, pad_mode=mode)
    p = tmp_path / "n1.spec"
    p.write_text("M=5\nN=1\nC=2\npad_mode=full\n")
    with pytest.raises(sl.FormatError, match=r"n1\.spec: pad mode 'full'.*N = 1"):
        sl.read_operator_spec(p)
