"""One config space, one route registry, one check.

`operator_draws` spans the operator's config space: the three order
policies, E 1-4, N 1/3/5, g 1/2/5, every delta_p of that g, grids from
1 x 1 to larger than the shift reach, every pad mode, ordered branch
subsets, ghosts, masks, norms, `center_independent`, batches and both
dtypes.  `ROUTES` names each route's callable (cfg, weights, plan, x) -> y,
the error its gate raises by name on the draws it refuses, and the draws
it covers.  `check_routes` applies every relation to one draw, against
the oracle `sw_forward` in the same dtype, and returns the outputs of the
covering routes by name:
R1  a covering route returns the oracle's shape and dtype, within 1e-10 in
    f64 and 1e-5 in f32;
R2  a refusing route raises its named error;
R3  a route and its twin (fused and naive) give identical bytes;
R4  every covering route copies the floor(G*C) ghost channels bitwise;
R5  the adjoint route: <A x, z> = <x, A^T z> within 1e-12 relative; on a
    draw that may cancel (`cancels=True`, the Hypothesis draws), within
    1e-12 of the size of the terms <|A| |x|, |z|> (|A| has the absolute
    weights), which bounds both sums;
R6  weights or a plan that the oracle refuses with a ShapeError or a
    PlanError: every route raises the same error with the same message,
    and so does check_routes.
"""

from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

import shiftlab.analysis as an
import shiftlab.bench as bn
from shiftlab import (AffineNorm, FoldRequiredError, PlanError, ShapeError, SwConfig,
                      SwWeights, densify, random_weights, strip_conv_ref, sw_forward)
from shiftlab.rng import CounterRng
from shiftlab.sw_op import ALL_BRANCHES, BRANCH_CENTER, ORDER_POLICIES, PAD_MODES

TOL = {np.float64: 1e-10, np.float32: 1e-5}
ADJOINT_TOL = 1e-12


class Route(NamedTuple):
    run: Callable              # (cfg, weights, plan, x) -> y; the adjoint maps z to A^T z
    refuses: Callable          # (cfg, weights, x) -> the error its gate raises, or None
    covers: Callable           # (cfg, x) -> the route's relation holds on this draw
    twin: str | None = None    # R3
    adjoint: bool = False      # R5 in place of R1


def _linear(shape_error):
    """FoldRequiredError unless the norms are identity, then ShapeError where shape_error."""
    def refuses(cfg, wts, x):
        if not wts.identity_norms(cfg):
            return FoldRequiredError
        return ShapeError if shape_error(cfg, x) else None
    return refuses


def _bench(variant):
    def run(cfg, wts, plan, x):
        dtype = "f64" if x.dtype == np.float64 else "f32"
        with mock.patch.object(bn, "build_shift_plan", lambda _cfg: plan):
            runner = bn._Runner(cfg, x.shape[-2], x.shape[-1], dtype, weights=wts, x=x)
        return runner.run(variant, bn._Instr())
    return run


def _densify_strip(cfg, wts, plan, x):
    cg = cfg.ghost_channels
    y = strip_conv_ref(x[..., cg:, :, :], densify(wts, plan, cfg))
    return np.concatenate([x[..., :cg, :, :], y], axis=-3)


# the bench takes one image and adds the shared center block k0
_bench_gate = _linear(lambda cfg, x: x.ndim == 4 or (
    cfg.center_independent and BRANCH_CENTER in cfg.branch_types))
ORACLE = "sw_forward"
ROUTES = {
    ORACLE: Route(lambda cfg, wts, plan, x: sw_forward(x, wts, cfg, plan),
                  lambda cfg, wts, x: None, lambda cfg, x: True),
    "naive": Route(_bench("naive"), _bench_gate, lambda cfg, x: True),
    "fused": Route(_bench("fused"), _bench_gate, lambda cfg, x: True, twin="naive"),
    # one image; the dense kernel is the operator in exact pad mode only
    "densify": Route(_densify_strip, _linear(lambda cfg, x: x.ndim == 4),
                     lambda cfg, x: cfg.pad_mode == "exact"),
    # the ERF adjoint, of one image; 1e-12 is a float64 bound
    "adjoint": Route(lambda cfg, wts, plan, z: an._adjoint_sw(z, an.SwLayer(cfg, wts, plan)),
                     _linear(lambda cfg, x: cfg.pad_mode != "exact"),
                     lambda cfg, x: x.ndim == 3 and x.dtype == np.float64, adjoint=True),
}


def check_routes(cfg, weights, plan, x, names=tuple(ROUTES), cancels=False):
    """R1-R6 on the routes `names` and the draw (cfg, weights, plan, x)."""
    try:
        oracle = ROUTES[ORACLE].run(cfg, weights, plan, x)
    except (ShapeError, PlanError) as err:
        for name in names:
            with pytest.raises(ValueError) as got:
                ROUTES[name].run(cfg, weights, plan, x)
            assert (type(got.value), str(got.value)) == (type(err), str(err)), name
        raise
    cg = cfg.ghost_channels
    outs = {}
    for name in names:
        route = ROUTES[name]
        refused = route.refuses(cfg, weights, x)
        if refused is not None:
            with pytest.raises(refused):
                route.run(cfg, weights, plan, x)
            continue
        if not route.covers(cfg, x):
            continue
        src = x
        if route.adjoint:
            src = CounterRng(cfg.seed, "adjoint-z").uniform_array(x.shape, -1, 1, x.dtype)
            y = route.run(cfg, weights, plan, src)
            lhs, rhs = float(np.sum(oracle * src)), float(np.sum(x * y))
            scale = max(abs(lhs), abs(rhs))
            if cancels:
                # the sums, and each output of A x, can cancel far below their
                # terms, whose size is <|A| |x|, |z|>, |A| of the absolute weights
                absolute = SwWeights([np.abs(b) for b in weights.rep], weights.masks, center=None
                                     if weights.center is None else np.abs(weights.center))
                bound = ROUTES[ORACLE].run(cfg, absolute, plan, np.abs(x))
                scale = float(np.sum(bound * np.abs(src)))
            assert abs(lhs - rhs) <= ADJOINT_TOL * scale, (name, lhs, rhs, scale)
        else:
            y = oracle if name == ORACLE else route.run(cfg, weights, plan, x)
            assert y.shape == oracle.shape and y.dtype == oracle.dtype, name
            diff = np.max(np.abs(y.astype(np.float64) - oracle), initial=0.0)
            assert diff <= TOL[x.dtype.type], (name, diff)
        assert y[..., :cg, :, :].tobytes() == src[..., :cg, :, :].tobytes(), name
        if route.twin in outs:
            assert y.tobytes() == outs[route.twin].tobytes(), (name, route.twin)
        outs[name] = y
    return outs


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
