"""Every route of the operator against the oracle, over the config space of
`operator_space.operator_draws` and three explicit draws."""

import numpy as np
from hypothesis import example, given, settings

import shiftlab.bench as bn
from shiftlab import AffineNorm, SwConfig, build_shift_plan, random_weights
from operator_space import ROUTES, check_routes, operator_draws


def _case(dtype, lead=(), **over):
    cfg = SwConfig(**{**dict(m=13, n=3, channels=5, ghost=0.3, edges=2, rep_branches=2,
                             order_policy="per_edge_shuffled", seed=4), **over})
    wts = random_weights(cfg, dtype=dtype)
    wts.masks[0][:, ::2] = False
    x = np.random.default_rng(cfg.seed).uniform(-0.5, 0.5, lead + (cfg.channels, 9, 8))
    return cfg, wts, x.astype(dtype)


# a draw that every route covers (exact mode, f64, one image, identity norms), an
# f32 batch with an independent center and an affine norm that only the oracle
# takes, and one whose <A x, z> cancels to 8e-12 relative rounding (R5)
CASES = (_case(np.float64, pad_mode="exact"), _case(np.float32, (2,), center_independent=True),
         _case(np.float64, pad_mode="exact", m=7, n=5, seed=4950))
CASES[1][1].norms["W"] = AffineNorm(np.full(4, 2.0), np.full(4, 0.5), np.zeros(4), np.ones(4))


@settings(max_examples=800)
@given(operator_draws())
@example(CASES[0])
@example(CASES[1])
@example(CASES[2])
def test_every_route_agrees_with_sw_forward_or_refuses_by_name(draw):
    cfg, wts, x = draw
    check_routes(cfg, wts, build_shift_plan(cfg), x, cancels=True)


def test_every_bench_variant_is_a_route_that_covers_an_explicit_draw():
    """A bench variant meets R1-R6 only through the registry, and a route
    that covers none of the explicit draws is not checked on them."""
    assert set(bn.VARIANTS) <= set(ROUTES)
    for name, route in ROUTES.items():
        assert any(route.refuses(cfg, wts, x) is None and route.covers(cfg, x)
                   for cfg, wts, x in CASES), name
