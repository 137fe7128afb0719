import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import shiftlab.sparsity as sp
from shiftlab import ShapeError
from shiftlab.analysis import ArchSpec
from shiftlab.cli import run_prune_sim
from shiftlab.rng import CounterRng


def test_score_examples():
    bank = np.array([[[[1.0, -2.0], [0.0, 3.0]]]])
    assert sp.score_filters(bank)[0, 0] == 6.0
    assert sp.score_filters(np.zeros((1, 1, 2, 2)))[0, 0] == 0.0


def test_score_sign_invariance(rng):
    bank = rng.uniform(-1, 1, (3, 4, 3, 3))
    assert np.array_equal(sp.score_filters(bank), sp.score_filters(-bank))


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("n", range(1, 12))
def test_score_sum_order_is_numpys(rng, n, dtype):
    """Bitwise numpy's own reduction, whose pairwise order score_filters
    spells out: a change to numpy's summation order shows here."""
    bank = (rng.standard_normal((7, 5, n, n))
            * np.exp(rng.uniform(-30, 30, (7, 5, n, n)))).astype(dtype)
    got, want = sp.score_filters(bank), np.abs(bank).sum(axis=(2, 3))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# few distinct values, so that most counts cut through a run of ties
_TIE_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, -1.0, np.inf, -np.inf, np.nan])


@given(st.sampled_from((np.float32, np.float64)).flatmap(
    lambda dt: arrays(dt, st.integers(0, 40), elements=_TIE_VALUES)))
def test_rank_lowest_is_the_stable_argsort_prefix(scores):
    order = np.argsort(scores, kind="stable")
    for count in range(scores.size + 1):
        got = sp._rank_lowest(scores, count)
        assert got.size == count
        assert set(got.tolist()) == set(order[:count].tolist())


def test_prune_examples(rng):
    scores = rng.permutation(10).astype(float).reshape(2, 5)
    mask = sp.prune_to_target(scores, 0.4)
    assert (~mask).sum() == 4
    assert set(scores[~mask]) == {0.0, 1.0, 2.0, 3.0}
    assert sp.prune_to_target(scores, 0.0).all()


def test_prune_tie_break_by_index():
    scores = np.ones((2, 2))
    mask = sp.prune_to_target(scores, 0.5)
    # filters (0,0) and (0,1) pruned by ascending (c, k) order
    assert not mask[0, 0] and not mask[0, 1]
    assert mask[1, 0] and mask[1, 1]


def test_grow_examples(rng):
    mask = np.array([[True, False, False, True]])
    scores = np.array([[0.0, 0.5, 0.9, 0.1]])
    same, clipped = sp.grow_filters(mask, scores, 0)
    assert np.array_equal(same, mask) and not clipped
    grown, clipped = sp.grow_filters(mask, scores, 1)
    assert grown[0, 2] and not grown[0, 1] and not clipped
    grown, clipped = sp.grow_filters(mask, scores, 5)
    assert grown.all() and clipped


def test_prune_grow_round_trip(rng):
    scores = rng.uniform(0, 1, (4, 6))
    mask = sp.prune_to_target(scores, 0.5)
    pruned_set = ~mask
    # grow scores that favor exactly the pruned set restore the mask
    grow = pruned_set.astype(float)
    restored, _ = sp.grow_filters(np.zeros_like(mask) | mask, grow,
                                  int(pruned_set.sum()))
    assert restored.all() or np.array_equal(restored, mask | pruned_set)
    # and a full prune-then-grow cycle on the same mask is the identity
    k = 5
    dropped = mask.copy().reshape(-1)
    kept_idx = np.flatnonzero(dropped)
    order = np.argsort(scores.reshape(-1)[kept_idx], kind="stable")
    dropped[kept_idx[order[:k]]] = False
    favor = (~dropped.reshape(mask.shape) & mask).astype(float)
    back, _ = sp.grow_filters(dropped.reshape(mask.shape), favor, k)
    assert np.array_equal(back, mask)


def _sim_state(s=0.4, u=100, gap=1, policy="shared", branches=2, seed=5,
               channels=8, g=17, layers=2):
    names = [f"layer{i}" for i in range(layers)]
    banks = {nm: [CounterRng(seed, "bank", nm, r).uniform_array(
        (channels, g, 3, 3), -1, 1) for r in range(branches)] for nm in names}
    masks = {nm: [sp.prune_to_target(sp.score_filters(b), s) for b in banks[nm]]
             for nm in names}
    state = sp.SparsityState(masks=masks, target=s, update_period=u,
                             share_gap=gap, policy=policy, seed=seed)
    return state, banks, names


def _uniform_scores(banks, seed, update):
    return {nm: [CounterRng(seed, "gs", nm, r, update).uniform_array(
        b.shape[:2], 0, 1) for r, b in enumerate(branch)]
        for nm, branch in banks.items()}


def test_no_update_before_period():
    state, banks, names = _sim_state(u=100)
    before = [m.copy() for m in state.masks[names[0]]]
    for step in range(1, 100):
        state.step = step
        sp.sparsity_step(state, banks, _uniform_scores(banks, 1, step))
    assert state.updates_done == 0
    for a, b in zip(before, state.masks[names[0]]):
        assert np.array_equal(a, b)


def test_sync_schedule_gap3():
    state, banks, names = _sim_state(gap=3)
    sync_updates = []
    for step in range(1, 1001):
        state.step = step
        prev = len(state.events)
        sp.sparsity_step(state, banks, _uniform_scores(banks, 2, step))
        if len(state.events) > prev:
            sync_updates.append(state.events[-1][0])
    assert sync_updates == [3, 6, 9]
    assert state.updates_done == 10


def test_sync_logged_once_per_update():
    """A sync update on 4 layers logs one event, not one per layer."""
    state, banks, names = _sim_state(gap=1, layers=4)
    state.step = 100
    sp.sparsity_step(state, banks, _uniform_scores(banks, 2, 100))
    assert state.events == [(1, "sync")]
    sim, _rows = run_prune_sim(300, 100, 1, 0.4, "shared", "uniform", n_layers=4)
    assert sim.events == [(1, "sync"), (2, "sync"), (3, "sync")]


def test_sparsity_conserved_and_masks_shared():
    state, banks, names = _sim_state(s=0.4, gap=2)
    n = state.masks[names[0]][0].size
    want_pruned = int(0.4 * n)
    for step in range(1, 801):
        state.step = step
        sp.sparsity_step(state, banks, _uniform_scores(banks, 3, step))
        if step % 100 == 0:
            for nm in names:
                for m in state.masks[nm]:
                    assert abs(int((~m).sum()) - want_pruned) <= 1
            if (step // 100) % 2 == 0:  # synchronization update
                for nm in names:
                    assert np.array_equal(state.masks[nm][0], state.masks[nm][1])


def test_trajectories_deterministic():
    outs = []
    for _ in range(2):
        state, banks, names = _sim_state(seed=17, gap=3)
        for step in range(1, 501):
            state.step = step
            sp.sparsity_step(state, banks, _uniform_scores(banks, 17, step))
        outs.append([m.copy() for nm in names for m in state.masks[nm]])
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


def test_subset_policy_masks_are_nested():
    state, banks, names = _sim_state(policy="subset", branches=3, gap=1, s=0.3)
    for step in range(1, 301):
        state.step = step
        sp.sparsity_step(state, banks, _uniform_scores(banks, 4, step))
    for nm in names:
        kept = [set(np.flatnonzero(m.reshape(-1))) for m in state.masks[nm]]
        assert kept[1] <= kept[0]
        assert kept[2] <= kept[1]
        assert len(kept[2]) < len(kept[0])


# ---------------------------------------------------------------------------
# init policies
# ---------------------------------------------------------------------------

def _banks_for_init(rng, per_layer_scale=(1.0, 1.0)):
    return {f"layer{i}": [rng.uniform(0, s, (6, 17, 3, 3)) for _ in range(2)]
            for i, s in enumerate(per_layer_scale)}


def test_init_identical_branches_same_layer_sparsity(rng):
    bank = rng.uniform(0, 1, (6, 17, 3, 3))
    banks = {"layer0": [bank, bank.copy()]}
    a = sp.init_sparsity("sum_then_prune", banks, 0.4)
    b = sp.init_sparsity("branch_mean_init", banks, 0.4)
    frac_a = np.mean([(~m).mean() for m in a["layer0"]])
    frac_b = np.mean([(~m).mean() for m in b["layer0"]])
    assert abs(frac_a - frac_b) <= 1.0 / bank[:, :, 0, 0].size


def test_init_s_zero_all_dense(rng):
    banks = _banks_for_init(rng)
    for policy in sp.INIT_POLICIES:
        masks = sp.init_sparsity(policy, banks, 0.0)
        for branch_masks in masks.values():
            for m in branch_masks:
                assert m.all()


def test_init_prunes_nothing_without_scores_or_draws(rng, monkeypatch):
    """Under subset, a layer or branch that prunes nothing gets all-True
    masks (or its parent's kept set) without scoring a filter or drawing
    from a stream."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("scored or drew where nothing is pruned")

    monkeypatch.setattr(CounterRng, "sample_slots", refuse)
    monkeypatch.setattr(sp, "score_filters", refuse)
    banks = _banks_for_init(rng)
    masks = sp.init_sparsity("subset", banks, 0.0)
    assert list(masks) == list(banks)
    for branch_masks in masks.values():
        assert len(branch_masks) == 2
        for m in branch_masks:
            assert m.dtype == bool and m.shape == (6, 17) and m.all()
    # 102 filters at s = 0.01 and s_1 = 0.015 both prune int(1.x) = 1: branch
    # 1 keeps what branch 0 keeps, with no draw
    base = np.ones((6, 17), dtype=bool)
    base[2, 5] = False
    nested = sp._nested_subsets(base, 2, 0.01, 51, "subset-init", "layer0")
    assert all(np.array_equal(m, base) for m in nested) and nested[1] is not base


@pytest.mark.parametrize("bad", [np.zeros((6, 17, 3)), np.zeros((0, 17, 3, 3))],
                         ids=["3-D", "empty"])
def test_init_gates_bank_shapes_when_nothing_is_pruned(rng, bad):
    """Skipping the scores at s = 0 does not skip the bank shape gate."""
    for policy in sp.INIT_POLICIES:
        banks = _banks_for_init(rng)
        banks["layer1"][1] = bad
        with pytest.raises(ShapeError):
            sp.init_sparsity(policy, banks, 0.0)


def test_init_policies_differ_on_disjoint_score_ranges(rng):
    lo = rng.uniform(0.0, 0.1, (6, 17, 3, 3))
    hi = rng.uniform(10.0, 11.0, (6, 17, 3, 3))
    banks = {"layer0": [lo, hi]}
    a = sp.init_sparsity("sum_then_prune", banks, 0.4)
    b = sp.init_sparsity("branch_mean_init", banks, 0.4)
    assert any(not np.array_equal(x, y) for x, y in zip(a["layer0"], b["layer0"]))
    # joint pruning eats the low-range branch first
    assert (~a["layer0"][0]).sum() > (~a["layer0"][1]).sum()


def test_init_sum_then_prune_is_global_across_layers(rng):
    banks = _banks_for_init(rng, per_layer_scale=(0.1, 10.0))
    masks = sp.init_sparsity("sum_then_prune", banks, 0.5)
    f0 = np.mean([(~m).mean() for m in masks["layer0"]])
    f1 = np.mean([(~m).mean() for m in masks["layer1"]])
    assert f0 > 0.9 and f1 < 0.1


def test_init_subset_nested(rng):
    banks = _banks_for_init(rng)
    masks = sp.init_sparsity("subset", banks, 0.4)
    for branch_masks in masks.values():
        kept = [set(np.flatnonzero(m.reshape(-1))) for m in branch_masks]
        assert kept[1] <= kept[0]


def test_init_unknown_policy(rng):
    with pytest.raises(ShapeError):
        sp.init_sparsity("nope", _banks_for_init(rng), 0.4)


# ---------------------------------------------------------------------------
# analytics
# ---------------------------------------------------------------------------

def _arch_masks(arch, sparsifier):
    masks = {}
    for name in arch.layer_names():
        st_idx = arch.stage_of(name)
        c = arch.sw_channels(st_idx)
        g = arch.stage_g(st_idx)
        masks[name] = [sparsifier(st_idx, c, g)]
    return masks


def test_shared_sync_ends_every_init_on_the_joint_top_set():
    """A shared sync keeps the top n - floor(s n) filters by joint score
    within the union of the branches' kept sets, so once that union holds
    the global joint top set, the init policy no longer matters."""
    def final(steps, gap, s, init):
        state, _ = run_prune_sim(steps, 100, gap, s, "shared", "uniform", init=init)
        return state.masks

    def joint_top(s):   # per layer of run_prune_sim's default 4 x 16 x 17 banks
        return {f"layer{i}": sp.prune_to_target(np.add.reduce([
            sp.score_filters(CounterRng(51, "sim-bank", f"layer{i}", r).uniform_array(
                (16, 17, 3, 3), -1, 1)) for r in range(2)]), s) for i in range(4)}

    top = joint_top(0.4)
    for init in sp.INIT_POLICIES:
        masks = final(100, 1, 0.4, init)
        assert all(np.array_equal(m, top[name]) for name in top for m in masks[name]), init
    top = joint_top(0.8)
    ends = [final(300, 3, 0.8, init) for init in sp.INIT_POLICIES]
    for masks in ends:
        assert not all(np.array_equal(masks[name][0], top[name]) for name in top)
    flat = [np.concatenate([m.reshape(-1) for name in top for m in masks[name]])
            for masks in ends]
    assert len({f.tobytes() for f in flat}) == len(flat)
    # the mechanism itself: a union that holds the top set syncs to it
    rng = np.random.default_rng(3)
    scores = rng.uniform(size=(2, 6, 5))
    banks = np.zeros((2, 6, 5, 3, 3))
    banks[..., 1, 1] = scores   # each filter's magnitude sum is its score
    best = sp.prune_to_target(scores.sum(0), 0.6)
    other = rng.uniform(size=(6, 5)) < 0.5
    for masks in ([best, other], [other | best, best]):
        assert all(np.array_equal(m, best) for m in sp._unify_shared(masks, banks, 18))


def test_mask_stats_all_dense():
    arch = ArchSpec.sw_tiny()
    masks = _arch_masks(arch, lambda s, c, g: np.ones((c, g), dtype=bool))
    stats = sp.mask_stats(masks, arch)
    assert all(row[2] == 0.0 for row in stats.per_layer)
    for st_idx, hist in stats.group_hist.items():
        assert hist[0] == 1.0
    assert stats.fully_pruned_groups == 0.0


def test_mask_stats_baseline_one_pruned_per_group():
    arch = ArchSpec.sw_tiny()

    def one_pruned(st_idx, c, g):
        m = np.ones((c, g), dtype=bool)
        m[:, 0] = False
        return m

    stats = sp.mask_stats(_arch_masks(arch, one_pruned), arch)
    per_stage = {}
    for name, st_idx, frac in stats.per_layer:
        per_stage.setdefault(st_idx, set()).add(round(frac, 10))
    fracs = [per_stage[i].pop() for i in range(4)]
    assert fracs == [round(1 / 17, 10), round(1 / 17, 10),
                     round(1 / 16, 10), round(1 / 5, 10)]
    assert [round(stats.baseline[i], 10) for i in range(4)] == fracs


def test_mask_stats_uniform_random_within_3_sigma(rng):
    arch = ArchSpec.sw_tiny()
    s = 0.35
    draws = 16

    def random_mask(st_idx, c, g):
        return rng.uniform(0, 1, (c, g)) >= s

    acc = {i: 0.0 for i in range(4)}
    for _ in range(draws):
        stats = sp.mask_stats(_arch_masks(arch, random_mask), arch)
        for st_idx, fracs in stats.per_index.items():
            acc[st_idx] = acc[st_idx] + np.asarray(fracs)
    for st_idx in range(4):
        fracs = acc[st_idx] / draws
        n_groups = arch.sw_channels(st_idx) * arch.depths[st_idx] * draws
        sigma = np.sqrt(s * (1 - s) / n_groups)
        assert np.all(np.abs(fracs - s) <= 3 * sigma + 1e-12)


def test_mask_stats_coverage_error():
    arch = ArchSpec.sw_tiny()
    with pytest.raises(ShapeError):
        sp.mask_stats({}, arch)


def test_structure_preservation_monte_carlo(rng):
    # random masks at s = 0.4, g = 17: all-pruned groups are vanishingly rare
    s, g, trials = 0.4, 17, 20000
    scores = rng.uniform(0, 1, (trials, g))
    masks = sp.prune_to_target(scores.reshape(-1), s).reshape(trials, g)
    frac = (~masks).all(axis=1).mean()
    p = s ** g
    assert frac <= max(0.005, p + 3 * np.sqrt(p / trials))


def test_mask_checkpoint_round_trip(tmp_path, rng):
    masks = {"stage0.block0": [rng.uniform(0, 1, (4, 5)) > 0.4 for _ in range(2)]}
    sp.save_masks(masks, tmp_path)
    back = sp.load_masks(tmp_path, {"stage0.block0": 2})
    for a, b in zip(masks["stage0.block0"], back["stage0.block0"]):
        assert np.array_equal(a, b)


def test_sim_runtime_10k_steps_under_10s():
    import time
    t0 = time.time()
    state, rows = run_prune_sim(10000, 100, 3, 0.4, "shared", "uniform")
    took = time.time() - t0
    assert took < 10.0
    assert state.updates_done == 100
