import hashlib

import numpy as np
import pytest
import tracemalloc
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from shiftlab.analysis import ArchSpec
from shiftlab.cli import run_prune_sim
from shiftlab.rng import CounterRng, _mul_hi, permutations
from shiftlab.sparsity import _nested_subsets, init_sparsity
from shiftlab.sw_op import SwConfig, build_shift_plan, random_weights
from loop_oracles import shift_indices


def test_deterministic_for_fixed_key():
    a = [CounterRng(9, "s", 1).next_u64() for _ in range(5)]
    b = [CounterRng(9, "s", 1).next_u64() for _ in range(5)]
    assert a == b


def test_streams_are_independent():
    a = CounterRng(9, "s", 1).next_u64()
    b = CounterRng(9, "s", 2).next_u64()
    c = CounterRng(10, "s", 1).next_u64()
    assert len({a, b, c}) == 3


def test_vectorized_matches_scalar():
    scalar = CounterRng(3, "v")
    vals = [scalar.uniform(-2.0, 3.0) for _ in range(64)]
    arr = CounterRng(3, "v").uniform_array((64,), -2.0, 3.0)
    assert np.array_equal(np.array(vals), arr)


def test_array_draw_advances_counter():
    r = CounterRng(3, "v")
    first = r.uniform_array((4,), 0, 1)
    after = r.uniform(0, 1)
    direct = CounterRng(3, "v")
    expect = [direct.uniform(0, 1) for _ in range(5)]
    assert np.array_equal(first, expect[:4])
    assert after == expect[4]


@given(st.integers(0, 2**32), st.integers(1, 200))
def test_permutation_is_bijective(seed, n):
    perm = CounterRng(seed, "perm").permutation(n)
    assert sorted(perm) == list(range(n))


@given(st.integers(0, 2**32))
def test_floats_in_unit_interval(seed):
    r = CounterRng(seed)
    for _ in range(20):
        f = r.next_float()
        assert 0.0 <= f < 1.0


def _loop_permutation(rng, n):
    """The scalar Fisher-Yates loop: one randint(i + 1) per i = n - 1 .. 1."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


# array label shapes, all broadcasting to (2, 3) or to ()
_LABEL_SHAPES = [(), (3,), (2, 1), (1, 3), (2, 3)]
_LABEL_ARRAYS = st.one_of(
    arrays(np.int64, st.sampled_from(_LABEL_SHAPES)),
    arrays(np.uint64, st.sampled_from(_LABEL_SHAPES)),
    arrays(np.int32, st.sampled_from(_LABEL_SHAPES)))


@given(st.integers(0, 2**64 - 1),
       st.lists(st.one_of(st.text(max_size=6), st.integers(-2**70, 2**70), _LABEL_ARRAYS),
                max_size=4),
       st.integers(1, 300))
@example(2**64 - 1, [-1, 2**64 + 5, "plan", np.array([[-3], [2**62]]),
                     np.array([2**64 - 1, 0, 7], dtype=np.uint64)], 300)
def test_permutations_match_scalar_loop(seed, labels, n):
    """Every batched row equals the scalar loop over its own stream, and
    permutation(n) leaves the stream n - 1 draws on."""
    got = permutations(seed, *labels, n=n)
    shape = np.broadcast_shapes(*(a.shape for a in labels if isinstance(a, np.ndarray)))
    assert got.shape == shape + (n,)
    for idx in np.ndindex(shape):
        at = [np.broadcast_to(a, shape)[idx].item() if isinstance(a, np.ndarray) else a
              for a in labels]
        ref = CounterRng(seed, *at)
        want = _loop_permutation(ref, n)
        assert got[idx].tolist() == want
        rng = CounterRng(seed, *at)
        assert rng.permutation(n) == want
        assert rng.next_u64() == ref.next_u64()


def test_mul_hi_exact_at_the_edges():
    """The split (u * m) >> 64 equals Python's big-int product where a carry
    out of the low half decides the result."""
    us = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 0x55555555FFFFFFFF, 0x9E3779B97F4A7C15]
    ms = [1, 2, 3, 17, 300, 2**31, 2**32 - 1]
    got = _mul_hi(np.array(us, dtype=np.uint64)[:, None], np.array(ms, dtype=np.uint64))
    assert got.tolist() == [[(u * m) >> 64 for m in ms] for u in us]


def test_permutation_of_2_pow_32_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            permutations(5, "plan", np.arange(4), n=2**32)
        with pytest.raises(ValueError):
            CounterRng(5, "plan").permutation(2**32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_sample_is_sorted_subset():
    got = CounterRng(1, "sample").sample_slots(40, 10).tolist()
    assert len(set(got)) == 10
    assert got == sorted(got)
    assert all(0 <= v < 40 for v in got)


def test_sample_rejects_sizes_outside_the_population():
    r = CounterRng(1, "sample")
    for k in (-1, 11):
        with pytest.raises(ValueError):
            r.sample_slots(10, k)


def _loop_sample(rng, population, k):
    """The full-loop reference: the first k slots of _loop_permutation, in
    the population's order."""
    kept = _loop_permutation(rng, len(population))[:k]
    return [population[i] for i in sorted(kept)]


@given(st.integers(0, 2**64 - 1), st.integers(0, 300))
def test_sample_slots_match_full_loop(seed, n):
    """sample_slots(n, k) is the ascending array of the slots that
    _loop_sample keeps, and leaves the stream where that loop does."""
    ref = CounterRng(seed, "slots", n)
    _loop_permutation(ref, n)
    after = ref.next_u64()
    for k in range(n + 1):
        rng = CounterRng(seed, "slots", n)
        got = rng.sample_slots(n, k)
        assert got.dtype.kind == "i"
        assert got.tolist() == _loop_sample(CounterRng(seed, "slots", n), list(range(n)), k)
        assert rng.next_u64() == after


def _loop_nested_subsets(base, nb, s, seed, *labels):
    """_nested_subsets spelled out over _loop_sample on Python lists."""
    masks, kept = [base], np.flatnonzero(base.reshape(-1)).tolist()
    for r in range(1, nb):
        s_r = min(0.95, s * (1.0 + r / (2.0 * max(1, nb - 1))))
        keep_r = base.size - int(s_r * base.size)
        kept = _loop_sample(CounterRng(seed, *labels, r), kept, min(keep_r, len(kept)))
        m = np.zeros(base.size, dtype=bool)
        m[kept] = True
        masks.append(m.reshape(base.shape))
    return masks


@given(arrays(np.bool_, st.tuples(st.integers(1, 24), st.integers(1, 17))),
       st.integers(1, 4), st.floats(0.0, 0.95, exclude_max=True),
       st.integers(0, 2**32))
def test_nested_subsets_match_full_loop(base, nb, s, seed):
    got = _nested_subsets(base, nb, s, seed, "subset-init", "stage0.block0")
    want = _loop_nested_subsets(base, nb, s, seed, "subset-init", "stage0.block0")
    assert len(got) == nb
    for g, w in zip(got, want):
        assert g.dtype == bool and g.shape == base.shape
        assert np.array_equal(g, w)


def _tiny_configs(policy):
    """(name, config) of the 27 sw_tiny operators at seed 51."""
    arch = ArchSpec.sw_tiny()
    for lid, name in enumerate(arch.layer_names()):
        st = arch.stage_of(name)
        yield name, SwConfig(m=arch.stage_m[st], n=arch.n, channels=arch.stage_dim(st),
                             ghost=arch.ghost, edges=arch.edges,
                             rep_branches=arch.rep_branches, pad_mode="half",
                             order_policy=policy, seed=51, layer_id=lid)


def _sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("policy,digest", [
    ("ordered", "29c14eab29569f569bcc33d7010db3637d13974de0de93b9beb20a28c9aaeaf6"),
    ("disordered", "eef0d9d42296a026062adce78aec8348709f69d25c96433c63eda33a5e924e91"),
    ("per_edge_shuffled", "5ac0bd2682b80a8ccb4740ab0a4998159d24c837e966045aed3e46343303a928"),
])
def test_sw_tiny_plans_pinned(policy, digest):
    """Frozen sha256 of the shift indices (sigma_h, sigma_w) of all 27 sw_tiny
    plans (scalar-stream values), read back from their displacement tables."""
    cfgs = [cfg for _, cfg in _tiny_configs(policy)]
    assert _sha256(a for cfg in cfgs
                   for a in shift_indices(cfg, build_shift_plan(cfg))) == digest


def test_subset_masks_and_prune_sim_pinned():
    """Frozen sha256 of subset init masks and of one subset prune-sim run."""
    banks = {name: random_weights(cfg).rep for name, cfg in _tiny_configs("ordered")}
    for s, digest in ((0.0, "09b8da8ce453b89c2b144249f209f03e0a6ee9b64eb3820c5a58c79a2054c691"),
                      (0.4, "12d1d1fe9653a0071322d2efd81cfc2d53347666b2740dbd1c408e138dbe782f")):
        masks = init_sparsity("subset", banks, s, seed=51)
        assert _sha256(m for name in masks for m in masks[name]) == digest
    state, rows = run_prune_sim(12, 2, 2, 0.4, "subset", "uniform", branches=3, seed=51,
                                init="subset")
    assert _sha256(m for name in state.masks for m in state.masks[name]) == (
        "c3ec8e3710548fd5a93d8b1c1388ba5eca972b00d8909d026e5dc11f613dbd9c")
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "48dd4c2533a62d03aa86d498f44fb84056c49686ea5ddcc20311d12420016829")


@pytest.mark.parametrize("dtype,digest", [
    (np.float32, "18475dc483227927185a8d103b349d822e2fd23c3a3ed7c29f856b71c2e4de2c"),
    (np.float64, "6af56b7a484f1aae855f433ec4bd0e511b8e96b28508f1f739e805736753dbbb"),
])
def test_sw_tiny_weight_banks_pinned(dtype, digest):
    """Frozen sha256 of the random_weights banks of all 27 sw_tiny operators,
    so a change to the uniform draw shows in every bit, not only in the
    score ranks that the s = 0.4 masks pin."""
    banks = (b for _, cfg in _tiny_configs("ordered") for b in random_weights(cfg, dtype).rep)
    assert _sha256(banks) == digest
