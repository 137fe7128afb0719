import numpy as np
import pytest

import shiftlab as sl
from operator_space import check_routes


def test_fold_identity_norm():
    norm = sl.AffineNorm(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), eps=0.0)
    w = np.arange(27, dtype=np.float64).reshape(3, 1, 3, 3)
    bias = np.array([1.0, 2.0, 3.0])
    wf, bf = sl.fold_norm(w, bias, norm)
    assert np.array_equal(wf, w)
    assert np.array_equal(bf, bias)


def test_fold_direct_substitution():
    norm = sl.AffineNorm([2.0], [3.0], [0.0], [1.0], eps=0.0)
    wf, bf = sl.fold_norm(np.ones((1, 1, 1, 1)), np.zeros(1), norm)
    assert wf[0, 0, 0, 0] == 2.0
    assert bf[0] == 3.0


def test_fold_compose_then_compare(rng):
    for _ in range(20):
        c = int(rng.integers(1, 6))
        norm = sl.AffineNorm(rng.uniform(0.2, 2, c), rng.uniform(-1, 1, c),
                             rng.uniform(-1, 1, c), rng.uniform(0.05, 2, c),
                             eps=1e-5)
        w = rng.uniform(-1, 1, (c, 1, 3, 3))
        bias = rng.uniform(-1, 1, c)
        x = sl.from_array(rng.uniform(-1, 1, (c, 8, 9)))
        composed = norm.apply(sl.conv2d_ref(x, w).data + bias[:, None, None])
        wf, bf = sl.fold_norm(w, bias, norm)
        folded = sl.conv2d_ref(x, wf).data + bf[:, None, None]
        assert np.max(np.abs(composed - folded)) <= 1e-10


def test_fold_channel_mismatch():
    norm = sl.AffineNorm(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2))
    with pytest.raises(sl.ShapeError):
        sl.fold_norm(np.ones((3, 1, 3, 3)), None, norm)


def test_merge_doubles_identical_banks(rng):
    b = rng.uniform(-1, 1, (2, 3, 3, 3))
    merged = sl.merge_rep([b, b])
    assert np.array_equal(merged, 2 * b)


def test_merge_forward_equals_sum_of_forwards(rng):
    c = 3
    banks = [rng.uniform(-1, 1, (c, 1, 3, 3)) for _ in range(4)]
    x = sl.from_array(rng.uniform(-1, 1, (c, 9, 9)))
    y_sum = sum(sl.conv2d_ref(x, b).data for b in banks)
    y_merged = sl.conv2d_ref(x, sl.merge_rep(banks)).data
    assert np.max(np.abs(y_sum - y_merged)) <= 1e-10


def test_merge_with_fully_masked_branch(rng):
    b = rng.uniform(-1, 1, (2, 2, 3, 3))
    merged = sl.merge_rep([b, np.zeros_like(b)])
    assert np.array_equal(merged, b)


def test_merge_shape_mismatch(rng):
    with pytest.raises(sl.ShapeError):
        sl.merge_rep([np.ones((1, 2, 3, 3)), np.ones((1, 3, 3, 3))])


def test_fold_then_merge_commutes_with_merge_then_fold(rng):
    c = 4
    norm = sl.AffineNorm(rng.uniform(0.5, 2, c), rng.uniform(-1, 1, c),
                         rng.uniform(-1, 1, c), rng.uniform(0.1, 1, c), eps=1e-5)
    banks = [rng.uniform(-1, 1, (c, 1, 3, 3)) for _ in range(3)]
    folded_each = [sl.fold_norm(b, None, norm)[0] for b in banks]
    lhs = sl.merge_rep(folded_each)
    rhs, _ = sl.fold_norm(sl.merge_rep(banks), None, norm)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


# ---------------------------------------------------------------------------
# densify
# ---------------------------------------------------------------------------

def test_densify_strip_embedding_exact_fit(rng):
    k = rng.uniform(-1, 1, (2, 51, 3))
    cfg, wts, plan = sl.from_strip(k)
    keq = sl.densify(wts, plan, cfg)
    assert keq.shape == (2, 51, 3)
    assert np.array_equal(keq, k)


def test_densify_strip_embedding_with_frame(rng):
    k = rng.uniform(-1, 1, (1, 49, 3))
    cfg, wts, plan = sl.from_strip(k)
    keq = sl.densify(wts, plan, cfg)
    sv = (keq.shape[1] - 3) // 2
    off = sv - cfg.delta_p
    frame = np.zeros_like(keq)
    frame[:, off:off + 49, :] = k
    assert np.array_equal(keq, frame)


def test_densify_single_block_zero_displacement(rng):
    cfg = sl.SwConfig(m=3, n=3, channels=2, pad_mode="exact",
                      branch_types=("H",))
    plan = sl.build_shift_plan(cfg)
    wts = sl.random_weights(cfg)
    keq = sl.densify(wts, plan, cfg)
    assert np.array_equal(keq, wts.rep[0][:, 0])


def test_densify_cross_support(rng):
    k = rng.uniform(0.5, 1.0, (1, 9, 3))  # strictly positive taps
    cfg, wts, plan = sl.from_strip(k)
    cfg_hw = sl.SwConfig(m=9, n=3, channels=1, pad_mode="exact",
                         branch_types=("H", "W"))
    keq = sl.densify(wts, sl.build_shift_plan(cfg_hw), cfg_hw)
    s = (keq.shape[1] - 3) // 2
    support = keq[0] != 0
    # vertical arm spans all rows at the center columns, horizontal arm all
    # cols at the center rows, nothing else
    assert support[:, s:s + 3].all()
    assert support[s:s + 3, :].all()
    outside = support.copy()
    outside[:, s:s + 3] = False
    outside[s:s + 3, :] = False
    assert not outside.any()


def test_densify_matches_forward_across_fanouts(rng):
    for m, n in [(3, 3), (15, 3), (51, 3)]:
        cfg = sl.SwConfig(m=m, n=n, channels=2, edges=2, rep_branches=2,
                          pad_mode="exact", order_policy="per_edge_shuffled",
                          seed=21)
        wts = sl.random_weights(cfg)
        wts.masks[0][:, ::3] = False
        check_routes(cfg, wts, sl.build_shift_plan(cfg), rng.uniform(-1, 1, (2, 18, 18)))


def _densify_loop(w, plan, cfg):
    """Reference densify: one block placement per (branch, edge, channel, k)."""
    n, s = cfg.n, max(abs(d) for d in cfg.displacements())
    s_v = s if "H" in cfg.branch_types else 0
    s_h = s if "W" in cfg.branch_types else 0
    bank = w.merged_bank()
    out = np.zeros((bank.shape[0], 2 * s_v + n, 2 * s_h + n))
    for branch in cfg.branch_types:
        for e in range(cfg.edges):
            for c in range(bank.shape[0]):
                if branch == "center":
                    out[c, s_v:s_v + n, s_h:s_h + n] += (
                        w.center[c] if cfg.center_independent
                        else bank[c, plan.center_block])
                    continue
                for k in range(cfg.g):
                    dy = plan.disp_h[e, c, k] if branch == "H" else 0
                    dx = plan.disp_w[e, c, k] if branch == "W" else 0
                    out[c, s_v + dy:s_v + dy + n, s_h + dx:s_h + dx + n] += bank[c, k]
    return out


def test_densify_equals_block_placement_loop():
    subsets = [("H",), ("W",), ("center",), ("H", "W"), ("H", "center"),
               ("W", "center"), ("H", "W", "center")]
    for policy in ("ordered", "disordered", "per_edge_shuffled"):
        for branches in subsets:
            for center_indep in {False, "center" in branches}:
                for edges, (n, m) in [(1, (3, 3)), (3, (3, 51)), (3, (5, 23))]:
                    cfg = sl.SwConfig(m=m, n=n, channels=3, ghost=0.3, edges=edges,
                                      rep_branches=2, pad_mode="exact",
                                      order_policy=policy, branch_types=branches,
                                      center_independent=center_indep, seed=m)
                    wts = sl.random_weights(cfg)
                    wts.masks[1][0, :] = False
                    plan = sl.build_shift_plan(cfg)
                    assert np.array_equal(sl.densify(wts, plan, cfg),
                                          _densify_loop(wts, plan, cfg))


def test_densify_sums_h_then_w_then_center_in_any_tuple_order():
    # the H reads with dy = 0, the W reads with dx = 0 and the center all
    # land on the middle block, so another summation order changes its bits
    base = dict(m=51, n=3, channels=4, edges=3, rep_branches=2, pad_mode="exact",
                order_policy="per_edge_shuffled", seed=13)
    for center_indep in (False, True):
        kernels = []
        for order in (("H", "W", "center"), ("W", "H", "center"),
                      ("center", "H", "W"), ("H", "center", "W")):
            cfg = sl.SwConfig(**base, branch_types=order, center_independent=center_indep)
            wts = sl.random_weights(cfg)
            kernels.append(sl.densify(wts, sl.build_shift_plan(cfg), cfg))
        assert all(k.tobytes() == kernels[0].tobytes() for k in kernels[1:]), center_indep


def test_densify_requires_identity_norm(rng):
    cfg = sl.SwConfig(m=9, n=3, channels=2, pad_mode="exact")
    plan = sl.build_shift_plan(cfg)
    wts = sl.random_weights(cfg)
    wts.norms["H"] = sl.AffineNorm(rng.uniform(0.5, 2, 2), np.zeros(2),
                                   np.zeros(2), np.ones(2), eps=1e-5)
    with pytest.raises(sl.FoldRequiredError):
        sl.densify(wts, plan, cfg)
    # an explicitly-identity record is fine
    wts.norms["H"] = sl.AffineNorm.identity(2)
    sl.densify(wts, plan, cfg)


def test_affine_norm_validation():
    with pytest.raises(sl.ShapeError):
        sl.AffineNorm(np.ones(2), np.zeros(3), np.zeros(2), np.ones(2))
    with pytest.raises(sl.ShapeError):
        sl.AffineNorm(np.ones(2), np.zeros(2), np.zeros(2), -np.ones(2))
