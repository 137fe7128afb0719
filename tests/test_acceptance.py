"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (pytest -s shows them);
failure surfaces through the assert with the measured value.
"""

import os
import time

import numpy as np
import pytest
from scipy import stats

import shiftlab as sl
import shiftlab.analysis as an
import shiftlab.bench as bn
from shiftlab.cli import _sweep_configs, gen_golden, run_prune_sim
from shiftlab.rng import CounterRng
from loop_oracles import erf_map_impulse
from operator_space import check_routes


def _report(name, detail):
    print(f"[PASS] {name}: {detail}")


def test_a1_a2_exact_equivalence_and_interior_band():
    t0 = time.monotonic()
    worst = {"f64": 0.0, "f32": 0.0}
    band_worst = 0.0
    bands_checked = 0
    for i, m, n, c, h, w in _sweep_configs(200, CounterRng(51, "acceptance-a1")):
        rng = CounterRng(51, "acceptance-a1-data", i)
        for dtype, np_dtype in (("f64", np.float64), ("f32", np.float32)):
            k = rng.uniform_array((c, m, n), -0.5, 0.5, np_dtype)
            x = sl.Tensor(rng.uniform_array((c, h, w), -0.5, 0.5, np_dtype))
            cfg, wts, plan = sl.from_strip(k)
            y_sw = sl.sw_forward(x, wts, cfg, plan).data
            y_ref = sl.strip_conv_ref(x, k).data
            d = float(np.max(np.abs(y_sw.astype(np.float64)
                                    - y_ref.astype(np.float64))))
            worst[dtype] = max(worst[dtype], d)
            if dtype == "f64":
                cfg_h = sl.SwConfig(m=m, n=n, channels=c, pad_mode="half",
                                    branch_types=("H",))
                band = sl.interior_band(cfg_h, h, w)
                if band is not None:
                    y_half = sl.sw_forward(x, wts, cfg_h,
                                           sl.build_shift_plan(cfg_h)).data
                    r0, r1, c0, c1 = band
                    bd = float(np.max(np.abs(
                        y_half[:, r0:r1 + 1, c0:c1 + 1]
                        - y_sw[:, r0:r1 + 1, c0:c1 + 1])))
                    band_worst = max(band_worst, bd)
                    bands_checked += 1
    took = time.monotonic() - t0
    assert worst["f64"] <= 1e-10, worst
    assert worst["f32"] <= 1e-4, worst
    assert took < 60.0, f"A1 took {took:.1f} s"
    _report("A1 exact equivalence",
            f"200 configs, max diff f64 {worst['f64']:.2e}, "
            f"f32 {worst['f32']:.2e}, {took:.1f} s")
    assert band_worst <= 1e-12, band_worst
    assert bands_checked > 50
    _report("A2 interior-band equality",
            f"{bands_checked} non-empty bands, max diff {band_worst:.2e}")


def test_a3_densify_and_erf_consistency():
    t0 = time.monotonic()
    worst_dense = 0.0
    rng = CounterRng(51, "acceptance-a3")
    for m, n in ((3, 3), (15, 3), (51, 3)):
        cfg = sl.SwConfig(m=m, n=n, channels=2, edges=2, rep_branches=2,
                          pad_mode="exact", order_policy="per_edge_shuffled",
                          seed=61)
        plan = sl.build_shift_plan(cfg)
        wts = sl.random_weights(cfg)
        wts.masks[1][:, ::2] = False
        outs = check_routes(cfg, wts, plan, rng.uniform_array((2, 24, 24), -0.5, 0.5, np.float64))
        worst_dense = max(worst_dense, float(np.max(np.abs(outs["densify"] - outs["sw_forward"]))))
    assert worst_dense <= 1e-10, worst_dense

    k = CounterRng(51, "acceptance-a3-erf").uniform_array((2, 51, 3), -0.5, 0.5)
    cfg, wts, plan = sl.from_strip(k)
    a_sw = an.erf_map([an.SwLayer(cfg, wts, plan)], probe_size=63)
    a_strip = an.erf_map([an.ConvLayer(k)], probe_size=63)
    erf_diff = float(np.max(np.abs(a_sw - a_strip)))
    assert erf_diff <= 1e-6, erf_diff

    probe_cfg = sl.SwConfig(m=9, n=3, channels=2, edges=2, pad_mode="exact",
                            order_policy="per_edge_shuffled", seed=62)
    layer = an.SwLayer(probe_cfg, sl.random_weights(probe_cfg),
                       sl.build_shift_plan(probe_cfg))
    adj = an.erf_map([layer], probe_size=15)
    imp = erf_map_impulse([layer], probe_size=15)
    adj_diff = float(np.max(np.abs(adj - imp)))
    assert adj_diff <= 1e-10, adj_diff
    took = time.monotonic() - t0
    assert took < 30.0, f"A3 took {took:.1f} s"
    _report("A3 densify/ERF consistency",
            f"densify {worst_dense:.2e}, erf-vs-strip {erf_diff:.2e}, "
            f"adjoint-vs-impulse {adj_diff:.2e}, {took:.1f} s")


def test_a4_reparam_suites():
    worst_fold = 0.0
    worst_merge = 0.0
    for i in range(100):
        r = CounterRng(51, "acceptance-a4-fold", i)
        c = 1 + r.randint(6)
        norm = sl.AffineNorm(r.uniform_array((c,), 0.2, 2.0),
                             r.uniform_array((c,), -1, 1),
                             r.uniform_array((c,), -1, 1),
                             r.uniform_array((c,), 0.05, 2.0), eps=1e-5)
        w = r.uniform_array((c, 1, 3, 3), -1, 1)
        bias = r.uniform_array((c,), -1, 1)
        x = sl.Tensor(r.uniform_array((c, 8, 8), -1, 1))
        composed = norm.apply(sl.conv2d_ref(x, w).data + bias[:, None, None])
        wf, bf = sl.fold_norm(w, bias, norm)
        folded = sl.conv2d_ref(x, wf).data + bf[:, None, None]
        worst_fold = max(worst_fold, float(np.max(np.abs(composed - folded))))

        banks = [r.uniform_array((c, 1, 3, 3), -1, 1) for _ in range(4)]
        y_sum = sum(sl.conv2d_ref(x, b).data for b in banks)
        y_m = sl.conv2d_ref(x, sl.merge_rep(banks)).data
        worst_merge = max(worst_merge, float(np.max(np.abs(y_sum - y_m))))
    assert worst_fold <= 1e-10, worst_fold
    assert worst_merge <= 1e-10, worst_merge
    _report("A4 reparam suites",
            f"100 instances, fold {worst_fold:.2e}, merge {worst_merge:.2e}")


def test_a5_budget_and_closed_forms():
    arch = an.ArchSpec.sw_tiny()   # depths [3,3,18,3], C=80, G=0.23, N=3
    assert abs(an.ArchSpec.ghost_for_width(1.3) - 0.23) < 0.001
    rep = an.count_macs(arch, input_size=224)
    params, macs = rep.total_params, rep.total_macs
    assert 0.9 * 31e6 <= params <= 1.1 * 31e6, params
    assert 0.9 * 5.0e9 <= macs <= 1.1 * 5.0e9, macs
    for exp in an.EXPERIMENT_IDS:
        for (m, h) in ((51, 56), (49, 28)):
            inst, closed = an.experiment_counts(exp, m, 5, 80, h, h, 0.23)
            assert inst == closed, (exp, m, h, inst, closed)
    assert arch.stage_fanouts() == [17, 17, 16, 5]
    _report("A5 budget check",
            f"params {params / 1e6:.2f} M (31 M +-10%), "
            f"macs {macs / 1e9:.2f} G (5.0 G +-10%), "
            f"closed forms #0-#7 exact, fan-outs [17,17,16,5]")


def test_a6_coverage():
    seeds = list(range(20))
    base = an.coverage_ratio(51, 3, 56, 56, 1, "ordered", seeds)
    for e in (2, 4, 8):
        res = an.coverage_ratio(51, 3, 56, 56, e, "ordered", seeds)
        assert res.rows == base.rows, f"ordered policy varies at E={e}"

    means = {e: an.coverage_ratio(51, 3, 56, 56, e, "per_edge_shuffled", seeds)
             for e in (1, 2, 4, 8)}
    seq = [means[e].mean_util for e in (1, 2, 4, 8)]
    assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:])), seq
    per_seed_1 = np.array([r[1] for r in means[1].rows])
    per_seed_8 = np.array([r[1] for r in means[8].rows])
    assert means[8].mean_util > means[1].mean_util
    diff = per_seed_8 - per_seed_1
    res = stats.wilcoxon(diff, alternative="greater")
    assert res.pvalue < 0.05, res
    _report("A6 coverage",
            f"ordered exact-invariant across E; shuffled mean "
            f"{seq[0]:.3f} -> {seq[-1]:.3f}, Wilcoxon p {res.pvalue:.2e}")


def test_a7_sparsity_dynamics():
    t0 = time.monotonic()
    state, rows = run_prune_sim(10000, 100, 3, 0.4, "shared", "uniform",
                                n_layers=4, branches=2, channels=16, g=17)
    took = time.monotonic() - t0
    assert took < 10.0, f"A7 took {took:.1f} s"
    n = 16 * 17
    want = int(0.4 * n)
    for update, nm, r, frac, synced in rows:
        assert abs(frac * n - want) <= 1.0, (update, nm, frac)
    synced_updates = sorted({u for u, _, _, _, s in rows if s == 1})
    assert synced_updates == [u for u in range(3, 101, 3)]

    # shared masks identical right after synchronization updates
    state2, _ = run_prune_sim(900, 100, 3, 0.4, "shared", "uniform")
    for nm, branch_masks in state2.masks.items():
        assert np.array_equal(branch_masks[0], branch_masks[1])

    traj = []
    for _ in range(2):
        st, rws = run_prune_sim(2000, 100, 3, 0.4, "shared", "uniform", seed=77)
        traj.append((rws, [m.copy() for ms in st.masks.values() for m in ms]))
    assert traj[0][0] == traj[1][0]
    for a, b in zip(traj[0][1], traj[1][1]):
        assert np.array_equal(a, b)
    _report("A7 sparsity dynamics",
            f"10k steps in {took:.1f} s, sparsity |pruned - {want}| <= 1 filter, "
            f"sync at multiples of 3, deterministic")


def test_a8_bench():
    cfg_small = sl.SwConfig(m=15, n=3, channels=6, ghost=0.2, edges=2,
                            order_policy="per_edge_shuffled", seed=7)
    diffs = bn.verify_variants(cfg_small, trials=2, h=18, w=20, dtype="f64")
    assert all(d <= 1e-10 for d in diffs.values()), diffs
    diffs32 = bn.verify_variants(cfg_small, trials=2, h=18, w=20, dtype="f32")
    assert all(d <= 1e-5 for d in diffs32.values()), diffs32

    desk = sl.SwConfig(**bn.DESK_CONFIG)
    h, w = 56, 56
    rn = bn.run_variant("naive", desk, h, w, reps=5, dtype="f32")
    rf = bn.run_variant("fused", desk, h, w, reps=5, dtype="f32")
    assert rf.checksum == rn.checksum
    bound = 2 * desk.edges + 1
    assert rf.moves_per_pixel <= bound, rf.moves_per_pixel
    ratio_mem = rn.peak_intermediate_bytes / rf.peak_intermediate_bytes
    assert ratio_mem >= desk.g, ratio_mem
    tn, tf = bn.measure(desk, h, w, ("naive", "fused"), reps=9)
    ratio_time = tf.median_ns / tn.median_ns
    assert ratio_time <= 1.10, f"fused/naive wall-clock ratio {ratio_time:.3f}"
    _report("A8 bench",
            f"variant diffs f64 <= {max(diffs.values()):.1e}, f32 <= "
            f"{max(diffs32.values()):.1e}; moves/px {rf.moves_per_pixel:.2f} "
            f"<= {bound}; mem ratio {ratio_mem:.0f}x >= g={desk.g}; "
            f"time ratio {ratio_time:.2f} <= 1.10")


def test_a9_golden_regression(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    paths = gen_golden(str(a), seed=51)
    gen_golden(str(b), seed=51)
    assert len(paths) >= 5
    for name in sorted(os.listdir(a)):
        pa, pb = a / name, b / name
        assert pa.read_bytes() == pb.read_bytes(), f"{name} differs"
    swt = [n for n in os.listdir(a) if n.endswith(".swt")]
    assert swt, "golden run must freeze tensor containers"
    for name in swt:
        ta = sl.read_container(a / name)
        tb = sl.read_container(b / name)
        assert sl.tensors_equal_bits(ta, tb)
    # drift guard across changes: the manifest committed next to this file
    committed = os.path.join(os.path.dirname(__file__), "golden_manifest.csv")
    with open(committed) as fh:
        assert (a / "manifest.csv").read_text() == fh.read(), "golden artifacts drifted"
    _report("A9 golden regression",
            f"{len(os.listdir(a))} artifacts byte-identical across runs and to "
            f"the committed manifest (payload bit-exact on this platform class)")
