"""One config space, every route.

Each route names a callable (cfg, weights, x) -> y, the draws its own
gates refuse (and the error they must raise by name), and the draws it
covers, on which it must agree with the oracle `sw_forward` in the same
dtype: within 1e-10 in f64 and 1e-5 in f32.  One Hypothesis strategy
spans the whole space: the three order policies, E 1-4, N 1/3/5,
g 1/2/5, every delta_p of that g, grids from 1 x 1 to larger than the
shift reach, every pad mode, ordered branch subsets, ghosts, masks,
norms, `center_independent`, batches and both dtypes.
"""

from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shiftlab.bench as bn
from shiftlab import (AffineNorm, FoldRequiredError, ShapeError, SwConfig, Tensor,
                      build_shift_plan, densify, random_weights, strip_conv_ref,
                      sw_forward)
from shiftlab.sw_op import ALL_BRANCHES, BRANCH_CENTER, ORDER_POLICIES, PAD_MODES

TOL = {np.float64: 1e-10, np.float32: 1e-5}


class Route(NamedTuple):
    run: Callable          # (cfg, weights, x) -> y
    refuses: Callable      # (cfg, weights, x) -> the error its gate raises, or None
    covers: Callable       # (cfg, x) -> the route computes the operator on this draw


def _bench(variant):
    def run(cfg, wts, x):
        dtype = "f64" if x.dtype == np.float64 else "f32"
        runner = bn._Runner(cfg, x.shape[-2], x.shape[-1], dtype, weights=wts, x=x)
        return runner.run(variant, bn._Instr())
    return run


def _bench_refuses(cfg, wts, x):
    if not wts.identity_norms(cfg):
        return FoldRequiredError
    if cfg.center_independent and BRANCH_CENTER in cfg.branch_types:
        return ShapeError
    return None


def _densify_strip(cfg, wts, x):
    cg = cfg.ghost_channels
    k = densify(wts, build_shift_plan(cfg), cfg)
    return np.concatenate([x[..., :cg, :, :],
                           strip_conv_ref(Tensor(x[..., cg:, :, :]), k).data], axis=-3)


def _densify_refuses(cfg, wts, x):
    if not wts.identity_norms(cfg):
        return FoldRequiredError
    if x.ndim == 4:                     # strip_conv_ref takes one image
        return ShapeError
    return None


ROUTES = {
    # the bench variants take one (C, H, W) image
    "naive": Route(_bench("naive"), _bench_refuses, lambda cfg, x: x.ndim == 3),
    "fused": Route(_bench("fused"), _bench_refuses, lambda cfg, x: x.ndim == 3),
    # the dense kernel is the operator in exact pad mode only
    "densify+strip_conv_ref": Route(_densify_strip, _densify_refuses,
                                    lambda cfg, x: cfg.pad_mode == "exact"),
}


@st.composite
def operator_draws(draw):
    """(cfg, weights, x) anywhere in the operator's config space."""
    n = draw(st.sampled_from((1, 3, 5)))
    g = draw(st.sampled_from((1, 2, 5)))
    m = g * n - (draw(st.integers(0, n - 1)) if g > 1 else 0)
    channels = draw(st.integers(1, 5))
    cfg = SwConfig(
        m=m, n=n, channels=channels,
        ghost=draw(st.sampled_from((0.0, 0.3))),
        edges=draw(st.integers(1, 4)),
        rep_branches=draw(st.integers(1, 2)),
        pad_mode=draw(st.sampled_from(PAD_MODES if n > 1 else ("exact", "half"))),
        order_policy=draw(st.sampled_from(ORDER_POLICIES)),
        seed=draw(st.integers(0, 2**16)),
        branch_types=tuple(draw(st.lists(st.sampled_from(ALL_BRANCHES), min_size=1,
                                         max_size=3, unique=True))),
        center_independent=draw(st.booleans()))
    reach = max(abs(d) for d in cfg.displacements())
    h, w = draw(st.integers(1, reach + 3)), draw(st.integers(1, reach + 3))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    rng = np.random.default_rng(cfg.seed)
    wts = random_weights(cfg, dtype=dtype)
    for mask in wts.masks:
        mask[:] = {"all": True, "random": rng.uniform(size=mask.shape) > 0.5,
                   "none": False}[draw(st.sampled_from(("all", "random", "none")))]
    norm = draw(st.sampled_from(("absent", "identity", "affine")))
    c_sw = cfg.sw_channels
    for b in cfg.branch_types:
        wts.norms[b] = {"absent": None, "identity": AffineNorm.identity(c_sw),
                        "affine": AffineNorm(rng.uniform(0.5, 2, c_sw), rng.uniform(-1, 1, c_sw),
                                             rng.uniform(-1, 1, c_sw), rng.uniform(0.5, 2, c_sw))
                        }[norm]
    lead = draw(st.sampled_from(((), (2,))))
    x = rng.uniform(-0.5, 0.5, lead + (channels, h, w)).astype(dtype)
    return cfg, wts, x


@settings(max_examples=800)
@given(operator_draws())
def test_every_route_agrees_with_sw_forward_or_refuses_by_name(draw):
    cfg, wts, x = draw
    oracle = sw_forward(Tensor(x), wts, cfg, build_shift_plan(cfg)).data
    for name, route in ROUTES.items():
        refused = route.refuses(cfg, wts, x)
        if refused is not None:
            with pytest.raises(refused):
                route.run(cfg, wts, x)
        elif route.covers(cfg, x):
            y = route.run(cfg, wts, x)
            assert y.shape == oracle.shape and y.dtype == oracle.dtype, name
            diff = np.max(np.abs(y.astype(np.float64) - oracle), initial=0.0)
            assert diff <= TOL[x.dtype.type], (name, diff)
