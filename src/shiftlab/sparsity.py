"""Coarse-grained filter masking: prune-and-grow dynamics and analytics.

Filters are ranked by magnitude sum (the L1 norm of all taps in one N x N
filter) and the lowest-ranked fraction is masked.  Because every channel
fans out to g filters that are summed after shifting, pruning whole
filters leaves the module structure intact.  Training is out of scope:
mask updates consume an injected grow-score stream instead of gradients,
which isolates the mask dynamics.

Masks are boolean (C, g) arrays with True = kept, one per Rep branch per
layer.  Flattened filter index order is (c, k) ascending, which is also
the deterministic tie-break order everywhere.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .rng import CounterRng
from .tensor import ShapeError, from_array, read_container, write_container

INIT_POLICIES = ("per_branch", "sum_then_prune", "branch_mean_init", "subset")
STEP_POLICIES = ("shared", "subset")
PRUNE_FRACTION0 = 0.5   # share of the kept filters churned before annealing


def _filter_shape(bank: np.ndarray) -> tuple[int, int]:
    """(C, g) of a bank; ShapeError unless it is a non-empty (C, g, N, N) array."""
    shape = np.shape(bank)
    if len(shape) != 4 or 0 in shape:
        raise ShapeError(f"expected a non-empty (C, g, N, N) bank, got {shape}")
    return shape[:2]


def score_filters(bank: np.ndarray) -> np.ndarray:
    """Magnitude-sum score per (c, k) filter: sum of |taps|, bitwise what
    ``np.abs(bank).sum(axis=(2, 3))`` gives on a C-ordered bank.  For 8 <= N * N
    <= 128 numpy's pairwise order is 8 lanes (lane j sums taps j, j + 8, ...) added
    as ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)), then the last N * N % 8
    taps in turn: here column adds over all filters, not a reduction per filter."""
    c, g = _filter_shape(bank)
    taps = np.abs(np.asarray(bank)).reshape(c * g, -1)
    n = taps.shape[1]
    if not 8 <= n <= 128:
        return taps.sum(axis=1).reshape(c, g)
    lanes = [taps[:, j] for j in range(8)]
    for i in range(8, n - n % 8, 8):
        lanes = [lane + taps[:, i + j] for j, lane in enumerate(lanes)]
    while len(lanes) > 1:
        lanes = [a + b for a, b in zip(lanes[0::2], lanes[1::2])]
    for i in range(n - n % 8, n):
        lanes[0] += taps[:, i]
    return lanes[0].reshape(c, g)


def _prune_banks(banks: list[np.ndarray], s: float) -> np.ndarray:
    """prune_to_target of the banks' summed filter scores.  When floor(s * n)
    is 0 the mask is all True and no score is computed; the shape gate
    still runs."""
    shapes = {_filter_shape(b) for b in banks}
    if len(shapes) != 1:
        raise ShapeError(f"branch banks disagree on (C, g): {sorted(shapes)}")
    (shape,) = shapes
    if int(s * math.prod(shape)) == 0:
        return np.ones(shape, dtype=bool)
    return prune_to_target(np.add.reduce([score_filters(b) for b in banks]), s)


def _rank_lowest(scores_flat: np.ndarray, count: int) -> np.ndarray:
    """The set of ``np.argsort(scores_flat, kind="stable")[:count]`` (the lowest
    scores, ties by ascending index, NaN last) in no particular order: every index
    below the count-th lowest value v, found by a partition, and the first ties at v."""
    if not 0 < count < scores_flat.size:
        return np.arange(min(count, scores_flat.size))
    v = np.partition(scores_flat, count - 1)[count - 1]
    tied = np.isnan(scores_flat) if np.isnan(v) else scores_flat == v
    below = np.flatnonzero(~tied if np.isnan(v) else scores_flat < v)   # NaN sorts last
    return np.concatenate([below, np.flatnonzero(tied)[:count - below.size]])


def prune_to_target(scores: np.ndarray, s: float) -> np.ndarray:
    """Mask exactly floor(s * n) lowest-scoring filters; True = kept."""
    if not 0.0 <= s < 1.0:
        raise ShapeError(f"target sparsity {s} outside [0, 1)")
    sc = np.asarray(scores, dtype=np.float64)
    mask = np.ones(sc.size, dtype=bool)
    mask[_rank_lowest(sc.reshape(-1), int(s * sc.size))] = False
    return mask.reshape(sc.shape)


def grow_filters(mask: np.ndarray, grow_scores: np.ndarray, count: int):
    """Unmask the `count` masked filters with the highest grow scores.

    Ties break by ascending index.  A too-large count is clipped; the
    second return value flags that the caller asked for more than exists.
    """
    m = np.asarray(mask, dtype=bool).copy()
    gs = np.asarray(grow_scores, dtype=np.float64)
    if gs.shape != m.shape:
        raise ShapeError("grow scores must match the mask shape")
    flat = m.reshape(-1)
    pruned_idx = np.flatnonzero(~flat)
    clipped = count > pruned_idx.size
    # the lowest negated scores keep the ascending-index tie-break
    flat[pruned_idx[_rank_lowest(-gs.reshape(-1)[pruned_idx], count)]] = True
    return m, clipped


@dataclass
class SparsityState:
    """Mask set plus the prune-and-grow schedule.

    masks[layer][branch] is a (C, g) boolean array.  An update fires when
    the caller-advanced step counter hits a multiple of the update period
    u; every share_gap-th update additionally synchronizes branch masks
    per the policy.  The churned fraction anneals from PRUNE_FRACTION0 to
    0 by cosine decay over `horizon` steps.
    """

    masks: dict[str, list[np.ndarray]]
    target: float
    update_period: int = 100
    share_gap: int = 1
    policy: str = "shared"
    seed: int = 51
    horizon: int = 10_000
    step: int = 0
    updates_done: int = 0
    events: list = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 <= self.target < 1.0:
            raise ShapeError("target sparsity outside [0, 1)")
        if self.update_period < 1 or self.share_gap < 1:
            raise ShapeError("update period and share gap must be >= 1")
        if self.policy not in STEP_POLICIES:
            raise ShapeError(f"unknown policy {self.policy!r}")

    def prune_fraction(self) -> float:
        u = min(1.0, self.updates_done * self.update_period / max(1, self.horizon))
        return 0.5 * PRUNE_FRACTION0 * (1.0 + math.cos(math.pi * u))

    def layer_sparsity(self, layer: str) -> list[float]:
        return [float((~m).sum() / m.size) for m in self.masks[layer]]


def init_sparsity(policy: str, branch_banks: dict[str, list[np.ndarray]],
                  s: float, seed: int = 51) -> dict[str, list[np.ndarray]]:
    """Initial masks for every layer under one of four policies.

    per_branch        prune each branch to s on its own scores.
    sum_then_prune    pool every branch of every layer and prune jointly,
                      so per-layer sparsity varies around s.
    branch_mean_init  take the joint solution's per-branch sparsities,
                      average them within each layer, and re-prune each
                      branch of that layer to the averaged target.
    subset            per layer, prune the branch-summed scores to s for
                      branch 0, then sample each further branch's kept
                      set as a nested random subset (sparsity ladder
                      s_r = s * (1 + r / (2 (b-1)))).

    Under subset, a layer whose pruned count floor(s * n) is 0 gets an
    all-True mask per branch with no filter score computed and no stream
    drawn; its banks still pass the (C, g, N, N) shape gate.
    """
    if policy not in INIT_POLICIES:
        raise ShapeError(f"unknown init policy {policy!r}")
    if not 0.0 <= s < 1.0:
        raise ShapeError(f"target sparsity {s} outside [0, 1)")
    layers = list(branch_banks)
    if policy == "subset":
        return {name: _nested_subsets(_prune_banks(branch_banks[name], s),
                                      len(branch_banks[name]), s, seed, "subset-init", name)
                for name in layers}
    scores = {name: [score_filters(b) for b in branch_banks[name]] for name in layers}

    if policy == "per_branch":
        return {name: [prune_to_target(sc, s) for sc in scores[name]] for name in layers}

    # joint pool across layers and branches
    pool = np.concatenate([scores[name][r].reshape(-1)
                           for name in layers for r in range(len(scores[name]))])
    joint_mask = prune_to_target(pool, s)
    out = {}
    offset = 0
    for name in layers:
        branch_masks = []
        for sc in scores[name]:
            n = sc.size
            branch_masks.append(joint_mask[offset:offset + n].reshape(sc.shape))
            offset += n
        out[name] = branch_masks

    if policy == "sum_then_prune":
        return out

    # branch_mean_init: average the joint per-branch sparsities per layer
    result = {}
    for name in layers:
        fracs = [(~m).sum() / m.size for m in out[name]]
        s_layer = float(np.mean(fracs))
        s_layer = min(s_layer, 1.0 - 1.0 / out[name][0].size)
        result[name] = [prune_to_target(sc, s_layer) for sc in scores[name]]
    return result


def _nested_subsets(base: np.ndarray, nb: int, s: float, seed: int,
                    *labels) -> list[np.ndarray]:
    """base and nb - 1 further masks, each a random subset of the one before.

    Branch r keeps size - floor(s_r * size) filters, s_r = min(0.95,
    s (1 + r / (2 (nb - 1)))); its sample is drawn from the counter stream
    (seed, *labels, r).  A branch that would keep at least as many filters
    as the one before keeps that set, with no draw: the sample of all n of
    n is the population itself.
    """
    masks = [base]
    kept_idx = np.flatnonzero(base.reshape(-1))
    for r in range(1, nb):
        s_r = min(0.95, s * (1.0 + r / (2.0 * max(1, nb - 1))))
        keep_r = base.size - int(s_r * base.size)
        if keep_r >= kept_idx.size:         # sample would keep all: no draw
            masks.append(masks[-1].copy())
            continue
        kept_idx = kept_idx[CounterRng(seed, *labels, r).sample_slots(kept_idx.size, keep_r)]
        m = np.zeros(base.size, dtype=bool)
        m[kept_idx] = True
        masks.append(m.reshape(base.shape))
    return masks


def _unify_shared(masks: list[np.ndarray], banks: list[np.ndarray],
                  target_pruned: int) -> list[np.ndarray]:
    """Joint re-rank of the union of kept filters, re-pruned to target."""
    joint = np.add.reduce([score_filters(b) for b in banks]).reshape(-1)
    union_kept = np.add.reduce([m.reshape(-1) for m in masks]) > 0
    # kept filters outrank everything pruned everywhere; within each class
    # rank by joint magnitude, ties by ascending index
    keyed = joint + union_kept * (joint.max() + 1.0)
    unified = np.ones(joint.size, dtype=bool)
    unified[_rank_lowest(keyed, target_pruned)] = False
    return [unified.reshape(masks[0].shape).copy() for _ in masks]


def sparsity_step(state: SparsityState, weight_banks: dict[str, list[np.ndarray]],
                  grow_scores: dict[str, list[np.ndarray]]) -> SparsityState:
    """One simulated iteration; a no-op unless step hits the update period.

    On an update: per (layer, branch), prune prune_fraction of the
    surviving filters by magnitude sum, then grow the same number back by
    the injected grow scores, keeping total sparsity at the target.  On
    every share_gap-th update the branch masks of each layer are
    synchronized: "shared" gives every branch the joint re-ranked mask,
    "subset" keeps it for branch 0 and nests random subsets below it.

    The shared sync keeps the top n - floor(s n) filters by joint score
    within the union of the branches' kept sets, so once that union holds
    the layer's global joint top set the sync returns that set, whatever
    the init policy was.  On the default 4 x 16 x 17 layers every init ends
    on it after run_prune_sim(100, 100, 1, 0.4, ...); at s = 0.8 with gap 3
    (300 steps) none does, and the inits stay apart.
    """
    if state.step % state.update_period != 0 or state.step == 0:
        return state
    state.updates_done += 1
    frac = state.prune_fraction()
    sync = state.updates_done % state.share_gap == 0
    if sync:
        state.events.append((state.updates_done, "sync"))
    for name, banks in weight_banks.items():
        masks = state.masks[name]
        if len(banks) != len(masks):
            raise ShapeError(f"layer {name}: bank/mask branch counts disagree")
        for r, bank in enumerate(banks):
            sc = score_filters(bank)
            if sc.shape != masks[r].shape:
                raise ShapeError(f"layer {name} branch {r}: bank shape drifted")
            mask = masks[r].reshape(-1)
            kept_idx = np.flatnonzero(mask)
            churn = int(frac * kept_idx.size)
            if churn > 0:
                mask[kept_idx[_rank_lowest(sc.reshape(-1)[kept_idx], churn)]] = False
                grown, _ = grow_filters(mask.reshape(sc.shape),
                                        grow_scores[name][r], churn)
                masks[r][...] = grown
        if sync:
            unified = _unify_shared(masks, banks, int(state.target * masks[0].size))
            if state.policy == "subset":
                unified = _nested_subsets(unified[0], len(masks), state.target, state.seed,
                                          "subset", name, state.updates_done)
            for r, m in enumerate(unified):
                masks[r][...] = m
    return state


# ---------------------------------------------------------------------------
# analytics over arbitrary mask sets
# ---------------------------------------------------------------------------

@dataclass
class MaskStats:
    per_layer: list[tuple[str, int, float]]          # (layer, stage, sparsity)
    per_index: dict[int, np.ndarray]                 # stage -> pruned fraction per k
    group_hist: dict[int, np.ndarray]                # stage -> fraction per pruned count
    baseline: dict[int, float]                       # stage -> 1/g
    fully_pruned_groups: float                       # fraction of groups with all g pruned


def mask_stats(masks: dict[str, list[np.ndarray]], arch) -> MaskStats:
    """Sparsity analytics ordered by depth, per fan-out index, per group.

    `arch` supplies the stage layout (`layer_names()` and per-stage g);
    masks must cover every shift-composed layer it declares.
    """
    names = arch.layer_names()
    missing = [n for n in names if n not in masks]
    if missing:
        raise ShapeError(f"masks missing for layers {missing}")
    per_layer = []
    per_index: dict[int, np.ndarray] = {}
    group_counts: dict[int, list] = {}
    full, groups_total = 0, 0
    for name in names:
        stage = arch.stage_of(name)
        m = np.logical_and.reduce(masks[name])
        pruned = ~m
        per_layer.append((name, stage, float(pruned.sum() / pruned.size)))
        per_index[stage] = per_index.get(stage, 0.0) + pruned.mean(axis=0)
        group_counts.setdefault(stage, []).append(pruned.sum(axis=1))
        full += int((pruned.all(axis=1)).sum())
        groups_total += m.shape[0]
    stages = [arch.stage_of(name) for name in names]
    for st in per_index:
        per_index[st] = per_index[st] / stages.count(st)
    group_hist = {}
    baseline = {}
    for st, counts in group_counts.items():
        arr = np.concatenate(counts)
        g = per_index[st].size
        hist = np.bincount(arr, minlength=g + 1).astype(np.float64)
        group_hist[st] = hist / hist.sum()
        baseline[st] = 1.0 / g
    return MaskStats(per_layer, per_index, group_hist, baseline,
                     full / max(1, groups_total))


def save_masks(masks: dict[str, list[np.ndarray]], dirpath, force: bool = True) -> None:
    """One 0/1 f32 container per (layer, branch)."""
    os.makedirs(dirpath, exist_ok=True)
    for name, branch_masks in masks.items():
        for r, m in enumerate(branch_masks):
            write_container(from_array(m.astype(np.float32)),
                            os.path.join(dirpath, f"{name}.branch{r}.swt"), force)


def load_masks(dirpath, layer_branches: dict[str, int]) -> dict[str, list[np.ndarray]]:
    out = {}
    for name, nb in layer_branches.items():
        out[name] = [read_container(os.path.join(dirpath, f"{name}.branch{r}.swt")).data > 0.5
                     for r in range(nb)]
    return out
