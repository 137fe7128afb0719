import itertools
import tracemalloc

import numpy as np
import pytest

import shiftlab as sl
import shiftlab.analysis as an
from shiftlab.sparsity import init_sparsity
from loop_oracles import erf_map_impulse, ordered_utilization
from operator_space import check_routes


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def test_ordered_utilization_closed_form():
    res = an.coverage_ratio(51, 3, 56, 56, 1, "ordered", [9])
    cf = ordered_utilization(51, 3, 56)
    assert abs(res.rows[0][1] - np.mean(cf)) <= 1e-12
    assert abs(res.rows[0][2] - np.min(cf)) <= 1e-12
    assert abs(res.rows[0][3] - np.max(cf)) <= 1e-12


def test_zero_displacement_map_fully_utilized():
    cf = ordered_utilization(51, 3, 56)
    assert cf[8] == 1.0  # the k0 = g//2 block carries displacement 0


def test_ordered_invariant_across_edges():
    base = an.coverage_ratio(51, 3, 56, 56, 1, "ordered", range(3))
    for e in (2, 4, 8):
        res = an.coverage_ratio(51, 3, 56, 56, e, "ordered", range(3))
        assert res.rows == base.rows


def test_shuffled_mean_non_decreasing_in_edges():
    seeds = range(8)
    means = [an.coverage_ratio(51, 3, 56, 56, e, "per_edge_shuffled", seeds).mean_util
             for e in (1, 2, 4, 8)]
    assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
    assert means[-1] > means[0]


def test_shuffled_beats_single_edge_per_seed():
    for seed in range(6):
        r1 = an.coverage_ratio(51, 3, 56, 56, 1, "per_edge_shuffled", [seed])
        r8 = an.coverage_ratio(51, 3, 56, 56, 8, "per_edge_shuffled", [seed])
        assert r8.rows[0][1] > r1.rows[0][1]


# ---------------------------------------------------------------------------
# erf
# ---------------------------------------------------------------------------

def test_erf_small_kernel_plateau():
    k = np.ones((1, 3, 3))
    a = an.erf_map([an.ConvLayer(k)], probe_size=9)
    assert a.shape == (9, 9)
    assert np.array_equal(a[3:6, 3:6], np.ones((3, 3)))
    outside = a.copy()
    outside[3:6, 3:6] = 0
    assert not outside.any()


def test_erf_matches_kernel_pattern(rng):
    k = rng.uniform(-1, 1, (1, 5, 3))
    a = an.erf_map([an.ConvLayer(k)], probe_size=11)
    want = np.zeros((11, 11))
    want[5 - 2:5 + 3, 5 - 1:5 + 2] = np.abs(k[0])
    want /= want.max()
    assert np.max(np.abs(a - want)) <= 1e-12


def test_erf_sw_equals_strip_erf(rng):
    k = rng.uniform(-0.5, 0.5, (2, 21, 3))
    cfg, wts, plan = sl.from_strip(k)
    a_sw = an.erf_map([an.SwLayer(cfg, wts, plan)], probe_size=31)
    a_strip = an.erf_map([an.ConvLayer(k)], probe_size=31)
    assert np.max(np.abs(a_sw - a_strip)) <= 1e-6


def test_erf_adjoint_matches_impulse_oracle(rng):
    cfg = sl.SwConfig(m=9, n=3, channels=2, edges=2, pad_mode="exact",
                      order_policy="per_edge_shuffled", seed=31)
    wts = sl.random_weights(cfg)
    layer = an.SwLayer(cfg, wts, sl.build_shift_plan(cfg))
    a_adj = an.erf_map([layer], probe_size=15)
    a_imp = erf_map_impulse([layer], probe_size=15)
    assert np.max(np.abs(a_adj - a_imp)) <= 1e-10


def test_erf_adjoint_independent_center(rng):
    cfg = sl.SwConfig(m=9, n=3, channels=2, edges=2, pad_mode="exact",
                      order_policy="per_edge_shuffled",
                      center_independent=True, seed=5)
    layer = an.SwLayer(cfg, sl.random_weights(cfg), sl.build_shift_plan(cfg))
    d = np.max(np.abs(an.erf_map([layer], 15) - erf_map_impulse([layer], 15)))
    assert d <= 1e-10


@pytest.mark.parametrize("n", (1, 3, 5))
def test_strip_corr_matches_reference(rng, n):
    """The Toeplitz-matmul strip correlation against the tap loop, on grids
    shorter and taller than the strip."""
    worst = 0.0
    for length, (h, w) in itertools.product(
            (1, 3, 9, 51), ((1, 1), (2, 7), (15, 11), (70, 9), (130, 3))):
        z = rng.uniform(-1, 1, (3, h, w))
        k = rng.uniform(-1, 1, (3, length, n))
        want = sl.strip_conv_ref(sl.Tensor(z), k).data
        worst = max(worst, float(np.max(np.abs(an._strip_corr(z, k) - want))))
    assert worst <= 1e-12, worst


_BRANCH_SUBSETS = (("H",), ("W",), ("center",), ("H", "W"), ("H", "center"),
                   ("W", "center"), ("H", "W", "center"))


def test_adjoint_sw_dot_product(rng):
    """<A x, z> = <x, A^T z> (R5) for the exact-mode operator across its
    config space."""
    cases = 0
    for (ghost, b), edges, branches, center_indep, (n, m), (h, w) in itertools.product(
            ((0.0, 1), (0.3, 2)), (1, 3), _BRANCH_SUBSETS, (False, True),
            ((3, 3), (3, 51), (5, 5), (5, 23)), ((1, 1), (2, 7), (15, 11))):
        if center_indep and "center" not in branches:
            continue
        cfg = sl.SwConfig(m=m, n=n, channels=4, ghost=ghost, edges=edges,
                          rep_branches=b, pad_mode="exact",
                          order_policy="per_edge_shuffled", branch_types=branches,
                          center_independent=center_indep, seed=cases)
        wts = sl.random_weights(cfg)
        if b == 2:
            wts.masks[1][0, :] = False
        outs = check_routes(cfg, wts, sl.build_shift_plan(cfg), rng.uniform(-1, 1, (4, h, w)),
                            names=("adjoint",))
        assert "adjoint" in outs
        cases += 1
    assert cases == 528


def test_erf_stack_adjoint_matches_impulse(rng):
    k1 = rng.uniform(-1, 1, (1, 5, 5))
    k2 = rng.uniform(-1, 1, (1, 3, 3))
    stack = [an.ConvLayer(k1), an.ConvLayer(k2)]
    a_adj = an.erf_map(stack, probe_size=15)
    a_imp = erf_map_impulse(stack, probe_size=15)
    assert np.max(np.abs(a_adj - a_imp)) <= 1e-10


@pytest.mark.parametrize("sw_first", (True, False))
@pytest.mark.parametrize("probe", (15, 1))
@pytest.mark.parametrize("opts", (
    dict(m=9, ghost=0.3, rep_branches=2),   # ghosts; branch 1 loses a row below
    dict(m=9, center_independent=True),
    dict(m=3),                              # g = 1
), ids=("ghost-rep2-pruned", "center-independent", "g1"))
def test_erf_stack_with_sw_layer_matches_impulse(rng, opts, probe, sw_first):
    """The SW adjoint receives a non-delta cotangent when it is not last."""
    cfg = sl.SwConfig(n=3, channels=4, edges=2, pad_mode="exact",
                      order_policy="per_edge_shuffled", seed=17, **opts)
    wts = sl.random_weights(cfg)
    if cfg.rep_branches == 2:
        wts.masks[1][0, :] = False
    sw = an.SwLayer(cfg, wts, sl.build_shift_plan(cfg))
    conv = an.ConvLayer(rng.uniform(-1, 1, (4, 5, 3)))
    stack = [sw, conv] if sw_first else [conv, sw]
    a_adj = an.erf_map(stack, probe_size=probe)
    a_imp = erf_map_impulse(stack, probe_size=probe)
    assert np.max(np.abs(a_adj - a_imp)) <= 1e-10


def _erf_by_adjoint(layer, probe):
    """erf_map's abs/mean/normalise on `_adjoint_sw` of the centred delta."""
    mid = probe // 2
    z = np.zeros((layer.channels, probe, probe))
    z[:, mid, mid] = 1.0
    field_abs = np.abs(an._adjoint_sw(z, layer)).mean(axis=0)
    return field_abs / field_abs.max() if field_abs.max() > 0 else field_abs


@pytest.mark.parametrize("probe", (15, 127))
def test_single_operator_erf_is_bitwise_the_adjoint(probe):
    """A last SwLayer's centred densify kernel is bitwise the adjoint of a
    delta: ghosts, masks, g = 1, every branch kind, f32 weights, and probes
    smaller (15) and larger (127) than the 51-tall kernel."""
    cases = 0
    for (m, n), branches, ghost, (kept, dtype) in itertools.product(
            ((51, 3), (23, 5), (3, 3), (5, 5)),
            (("H",), ("W",), ("H", "W"), ("H", "W", "center"), "independent"),
            (0.0, 0.23), ((1.0, np.float64), (0.6, np.float64), (0.6, np.float32))):
        cfg = sl.SwConfig(m=m, n=n, channels=6, ghost=ghost, edges=2, rep_branches=2,
                          pad_mode="exact", order_policy="per_edge_shuffled",
                          branch_types=("H", "W", "center") if branches == "independent"
                          else branches,
                          center_independent=branches == "independent", seed=cases)
        wts = sl.random_weights(cfg, dtype)
        if kept < 1:
            wts.masks = init_sparsity("subset", {"op": wts.rep}, 1 - kept, seed=cases)["op"]
        layer = an.SwLayer(cfg, wts, sl.build_shift_plan(cfg))
        assert np.array_equal(an.erf_map([layer], probe), _erf_by_adjoint(layer, probe))
        cases += 1
    assert cases == 120


@pytest.mark.parametrize("pad_mode", ("half", "full"))
def test_erf_refuses_a_non_exact_operator(pad_mode):
    cfg = sl.SwConfig(m=9, n=3, channels=4, pad_mode=pad_mode)
    layer = an.SwLayer(cfg, sl.random_weights(cfg), sl.build_shift_plan(cfg))
    with pytest.raises(sl.ShapeError, match="exact pad mode"):
        an.erf_map([layer], probe_size=15)


def test_erf_of_strip_kernels_stays_on_the_tap_loop(rng, monkeypatch):
    """ConvLayer adjoints run through strip_conv_ref, the oracle that
    checks the SwLayer route; only a last SwLayer skips its adjoint."""
    calls = []
    real = an.strip_conv_ref
    monkeypatch.setattr(an, "strip_conv_ref", lambda *a: calls.append(1) or real(*a))
    cfg = sl.SwConfig(m=9, n=3, channels=2, pad_mode="exact")
    sw = an.SwLayer(cfg, sl.random_weights(cfg), sl.build_shift_plan(cfg))
    conv = an.ConvLayer(rng.uniform(-1, 1, (2, 5, 3)))
    for stack, want in (([conv], 1), ([conv, conv], 2), ([conv, sw], 1),
                        ([sw, conv], 1), ([sw], 0)):
        calls.clear()
        an.erf_map(stack, probe_size=15)
        assert len(calls) == want, (stack, calls)


def test_single_operator_erf_peak_memory():
    """At probe 255 the stage-0 sw_tiny operator's ERF holds at most three
    (C, P, P) f64 arrays: the adjoint's Toeplitz operands held about 5.7."""
    cfg = sl.SwConfig(m=51, n=3, channels=80, ghost=0.23, edges=4, rep_branches=2,
                      pad_mode="exact", order_policy="per_edge_shuffled", seed=11)
    layer = an.SwLayer(cfg, sl.random_weights(cfg), sl.build_shift_plan(cfg))
    tracemalloc.start()
    try:
        an.erf_map([layer], probe_size=255)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 80 * 255 * 255 * 8, peak


def test_erf_symmetric_kernel_symmetric_map(rng):
    k = rng.uniform(-1, 1, (1, 5, 3))
    k = k + k[:, ::-1, :]  # vertically symmetric
    a = an.erf_map([an.ConvLayer(k)], probe_size=13)
    assert np.array_equal(a, a[::-1, :])


def test_erf_rejects_non_identity_norm(rng):
    cfg = sl.SwConfig(m=9, n=3, channels=1, pad_mode="exact")
    wts = sl.random_weights(cfg)
    wts.norms["H"] = sl.AffineNorm(2 * np.ones(1), np.zeros(1), np.zeros(1),
                                   np.ones(1), eps=1e-5)
    with pytest.raises(sl.FoldRequiredError):
        an.SwLayer(cfg, wts, sl.build_shift_plan(cfg))


def test_erf_even_probe_rejected():
    with pytest.raises(sl.ShapeError):
        an.erf_map([an.ConvLayer(np.ones((1, 3, 3)))], probe_size=8)


@pytest.mark.parametrize("erf", (an.erf_map, erf_map_impulse))
def test_erf_rejects_empty_stack(erf):
    with pytest.raises(sl.ShapeError, match="empty component stack"):
        erf([], probe_size=5)


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

def test_experiment_example_3():
    inst, closed = an.experiment_counts("#3", 51, 5, 80, 56, 56)
    assert closed == 56 * 56 * 11 * 25
    assert inst == closed


def test_full_grid_delta_n5():
    # H'' - H = (N - 1) - ceil(N / 2) = 1 at N = 5
    inst2, closed2 = an.experiment_counts("#2", 51, 5, 80, 56, 56)
    inst3, closed3 = an.experiment_counts("#3", 51, 5, 80, 56, 56)
    assert closed2 / (11 * 25) == 57 * 57
    assert closed3 / (11 * 25) == 56 * 56


def test_all_experiments_closed_equals_instrumented():
    for exp in an.EXPERIMENT_IDS:
        for (m, n, c, h) in [(51, 5, 80, 56), (49, 5, 64, 28), (13, 5, 16, 14)]:
            inst, closed = an.experiment_counts(exp, m, n, c, h, h, 0.23)
            assert inst == closed, exp


def test_stage_fanouts():
    assert an.ArchSpec.sw_tiny().stage_fanouts() == [17, 17, 16, 5]


def test_sw_tiny_budget_bands():
    arch = an.ArchSpec.sw_tiny()
    rep = an.count_macs(arch, 224)
    assert 31e6 * 0.9 <= rep.total_params <= 31e6 * 1.1
    assert 5.0e9 * 0.9 <= rep.total_macs <= 5.0e9 * 1.1


def test_ghost_for_width():
    g = an.ArchSpec.ghost_for_width(1.3)
    assert abs(g - 0.23) < 0.001  # R (1 - G) = 1 at R = 1.3


def test_totals_equal_row_sums():
    rep = an.count_macs(an.ArchSpec.sw_tiny(), 224)
    assert rep.total_params == sum(r.params for r in rep.rows)
    assert rep.total_macs == sum(r.macs for r in rep.rows)


def test_sw_rows_closed_form_matches_when_dense():
    rep = an.count_macs(an.ArchSpec.sw_tiny(), 224)
    for row in rep.rows:
        if row.kind == "sw":
            assert row.macs == row.closed_form
    assert min(r.macs for r in an.count_macs(an.ArchSpec.sw_tiny(), 32).rows) > 0
    with pytest.raises(sl.ShapeError, match="input size 31 leaves stage 3 an empty"):
        an.count_macs(an.ArchSpec.sw_tiny(), 31)


def test_masked_counts_drop():
    arch = an.ArchSpec.sw_tiny()
    name = "stage2.block0"
    full = an.count_macs(arch, 224)
    c, g = arch.sw_channels(2), arch.stage_g(2)
    mask = np.ones((c, g), dtype=bool)
    mask[:, ::2] = False
    masked = an.count_macs(arch, 224, masks={name: [mask]})
    assert masked.total_macs < full.total_macs
    drop = [r for r in masked.rows if r.name == f"{name}.sw"][0]
    dense = [r for r in full.rows if r.name == f"{name}.sw"][0]
    assert drop.macs == dense.macs * int(mask.sum()) // (c * g)


def test_arch_validation():
    with pytest.raises(sl.ShapeError):
        an.ArchSpec(dims=(80, 161, 320, 640))
    with pytest.raises(sl.ShapeError):
        an.ArchSpec(depths=(3, 3, 18))


def test_sw_small_shape():
    arch = an.ArchSpec.sw_small()
    assert arch.depths == (3, 3, 27, 3)
    assert arch.dims == (96, 192, 384, 768)
    assert len(arch.layer_names()) == 36
    assert arch.stage_of("stage2.block11") == 2
