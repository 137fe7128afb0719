"""Command-line front end: verification, analytics, simulation, benchmarks.

Subcommands: verify, coverage, erf, params, prune-sim, bench, gen-golden.
Every run is deterministic given its flags and --seed (one fixed default
seed, 51); output files are never overwritten without --force.  Tabular
output is CSV with a header row; frozen metric definitions are stated in
leading '#' comment lines.  Tensors use the SWT1 container.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import analysis, bench, sparsity
from .reparam import AffineNorm, densify, fold_norm, merge_rep
from .rng import CounterRng
from .sw_op import (DEFAULT_SEED, SwConfig, build_shift_plan, from_strip,
                    interior_band, load_sw_weights, random_weights,
                    read_operator_spec, sw_forward)
from .conv_ref import ConvParams, conv2d_ref, strip_conv_ref
from .tensor import Tensor, ensure_fresh, from_array, write_container

_F = "{:.17g}".format


def _write_lines(path, lines, force):
    ensure_fresh(path, force)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _sweep_configs(trials: int, rng: CounterRng):
    """(i, M, N, C, H, W) strip-equivalence configs drawn from rng."""
    for i in range(trials):
        n = (3, 5)[rng.randint(2)]
        m = n + 2 * rng.randint((51 - n) // 2 + 1)
        c = 1 + rng.randint(8)
        h = 8 + rng.randint(33)
        w = 8 + rng.randint(33)
        yield i, m, n, c, h, w


def _check_rows_verify(args):
    """Yield (check, detail, diff, tol, ok) rows for the requested suite."""
    tol_eq = args.tol if args.tol is not None else (1e-10 if args.dtype == "f64" else 1e-4)
    dt = np.float64 if args.dtype == "f64" else np.float32

    if args.spec:
        try:
            cfg = read_operator_spec(args.spec)
        except (OSError, ValueError) as exc:  # named failing check for bad specs
            yield ("load-spec", f"{type(exc).__name__}: {exc}", float("inf"), 0.0, False)
            return
        yield ("load-spec", args.spec, 0.0, 0.0, True)
        plan = build_shift_plan(cfg)
        try:
            w = (load_sw_weights(args.weights, cfg) if args.weights
                 else random_weights(cfg, dtype=dt))
            yield ("load-weights", args.weights or "<random>", 0.0, 0.0, True)
        except Exception as exc:  # named failing check for corrupt inputs
            yield ("load-weights", f"{type(exc).__name__}: {exc}", float("inf"),
                   0.0, False)
            return
        bad = int(np.any(np.sort(plan.sigma_h, axis=-1) != np.arange(cfg.g),
                         axis=-1).sum())
        yield ("plan-bijective", f"{cfg.edges}x{cfg.sw_channels} assignments",
               float(bad), 0.0, bad == 0)
        if bad:
            return
        rng = CounterRng(cfg.seed, "verify-input")
        x = Tensor(rng.uniform_array((cfg.channels, args.h, args.w), -0.5, 0.5, dt))
        if all(norm is None for norm in w.norms.values()):
            ecfg = SwConfig(**{**cfg.__dict__, "pad_mode": "exact"})
            y = sw_forward(x, w, ecfg, plan).data
            keq = densify(w, plan, ecfg)
            y_eq = strip_conv_ref(Tensor(x.data[cfg.ghost_channels:]), keq).data
            d = float(np.max(np.abs(y[cfg.ghost_channels:] - y_eq)))
            yield ("densify-consistency", f"{cfg.m}x{cfg.n}", d, tol_eq, d <= tol_eq)
        ghost = x.data[:cfg.ghost_channels]
        y = sw_forward(x, w, cfg, plan).data
        ok = np.array_equal(y[:cfg.ghost_channels], ghost)
        yield ("ghost-passthrough", f"{cfg.ghost_channels} channels",
               0.0 if ok else 1.0, 0.0, ok)
        return

    # built-in sweep
    worst = 0.0
    sweep = _sweep_configs(args.trials, CounterRng(args.seed, "verify-sweep"))
    for i, m, n, c, h, w in sweep:
        rng = CounterRng(args.seed, "verify-data", i)
        k = rng.uniform_array((c, m, n), -0.5, 0.5, dt)
        x = Tensor(rng.uniform_array((c, h, w), -0.5, 0.5, dt))
        cfg, wts, plan = from_strip(k)
        y_sw = sw_forward(x, wts, cfg, plan).data
        y_ref = strip_conv_ref(x, k).data
        d = float(np.max(np.abs(y_sw.astype(np.float64) - y_ref.astype(np.float64))))
        worst = max(worst, d)
        if d > tol_eq:
            yield ("exact-equivalence", f"cfg{i} M={m} N={n}", d, tol_eq, False)
            return
        cfg_h = SwConfig(m=m, n=n, channels=c, pad_mode="half", branch_types=("H",))
        band = interior_band(cfg_h, h, w)
        if band is not None:
            y_half = sw_forward(x, wts, cfg_h, build_shift_plan(cfg_h)).data
            r0, r1, c0, c1 = band
            bd = float(np.max(np.abs(
                y_half[:, r0:r1 + 1, c0:c1 + 1].astype(np.float64)
                - y_sw[:, r0:r1 + 1, c0:c1 + 1].astype(np.float64))))
            if bd > 1e-12:
                yield ("interior-band", f"cfg{i}", bd, 1e-12, False)
                return
    yield ("exact-equivalence", f"{args.trials} configs", worst, tol_eq, True)
    yield ("interior-band", "all non-empty bands", 0.0, 1e-12, True)

    rng = CounterRng(args.seed, "verify-densify")
    worst_d = 0.0
    for m in (3, 13, 51):
        cfg = SwConfig(m=m, n=3, channels=3, edges=2, rep_branches=2,
                       pad_mode="exact", order_policy="per_edge_shuffled",
                       seed=args.seed)
        plan = build_shift_plan(cfg)
        wts = random_weights(cfg)
        x = Tensor(rng.uniform_array((3, 20, 20), -0.5, 0.5, np.float64))
        y = sw_forward(x, wts, cfg, plan).data
        y_eq = strip_conv_ref(x, densify(wts, plan, cfg)).data
        worst_d = max(worst_d, float(np.max(np.abs(y - y_eq))))
    yield ("densify-consistency", "fan-outs 1/5/17", worst_d, 1e-10, worst_d <= 1e-10)

    worst_f = 0.0
    for i in range(args.fold_trials):
        r = CounterRng(args.seed, "verify-fold", i)
        c = 1 + r.randint(6)
        norm = AffineNorm(r.uniform_array((c,), 0.2, 2.0), r.uniform_array((c,), -1, 1),
                          r.uniform_array((c,), -1, 1), r.uniform_array((c,), 0.05, 2.0),
                          eps=1e-5)
        wb = r.uniform_array((c, 1, 3, 3), -1, 1)
        x = Tensor(r.uniform_array((c, 9, 9), -1, 1))
        p = ConvParams(3, 3, 1, 1, 1, c)
        y1 = norm.apply(conv2d_ref(x, wb, p).data)
        wf, bf = fold_norm(wb, None, norm)
        y2 = conv2d_ref(x, wf, p).data + bf[:, None, None]
        worst_f = max(worst_f, float(np.max(np.abs(y1 - y2))))
    yield ("fold-norm", f"{args.fold_trials} instances", worst_f, 1e-10,
           worst_f <= 1e-10)

    worst_m = 0.0
    for i in range(args.fold_trials):
        r = CounterRng(args.seed, "verify-merge", i)
        c = 1 + r.randint(4)
        banks = [r.uniform_array((c, 1, 3, 3), -1, 1) for _ in range(4)]
        x = Tensor(r.uniform_array((c, 8, 8), -1, 1))
        p = ConvParams(3, 3, 1, 1, 1, c)
        y_sum = np.zeros((c, 8, 8))
        for b in banks:
            y_sum += conv2d_ref(x, b, p).data
        y_merged = conv2d_ref(x, merge_rep(banks), p).data
        worst_m = max(worst_m, float(np.max(np.abs(y_sum - y_merged))))
    yield ("merge-rep", f"{args.fold_trials} instances", worst_m, 1e-10,
           worst_m <= 1e-10)


def cmd_verify(args) -> int:
    out = _outdir(args)
    rows = list(_check_rows_verify(args))
    path = os.path.join(out, "verify.csv")
    ensure_fresh(path, args.force)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a detail with commas
        writer.writerow(["check", "detail", "max_diff", "tol", "status"])
        for check, detail, diff, tol, ok in rows:
            writer.writerow([check, detail, _F(diff), _F(tol),
                             "pass" if ok else "FAIL"])
    failed = [r for r in rows if not r[4]]
    for check, detail, diff, tol, ok in rows:
        print(f"[{'PASS' if ok else 'FAIL'}] {check} ({detail}): "
              f"max diff {diff:.3g} vs tol {tol:.3g}")
    print(f"verify: {len(rows) - len(failed)}/{len(rows)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def cmd_coverage(args) -> int:
    out = _outdir(args)
    if args.spec:
        cfg = read_operator_spec(args.spec)
        args.m, args.n = cfg.m, cfg.n
    edges = [int(e) for e in args.edges.split(",")]
    seeds = [args.seed + i for i in range(args.n_seeds)]
    lines = [
        "# utilization = |union over edges of in-grid destination rows of the"
        " vertical shift branch| / (H*W), painted on a boolean grid",
        "E,policy,seed,mean_util,min_util,max_util",
    ]
    for e in edges:
        res = analysis.coverage_ratio(args.m, args.n, args.h, args.w, e,
                                      args.policy, seeds, channels=args.channels)
        for seed, mean, lo, hi in res.rows:
            lines.append(f"{e},{args.policy},{seed},{_F(mean)},{_F(lo)},{_F(hi)}")
    _write_lines(os.path.join(out, "coverage.csv"), lines, args.force)
    print(f"coverage: wrote {os.path.join(out, 'coverage.csv')}")
    return 0


# ---------------------------------------------------------------------------
# erf
# ---------------------------------------------------------------------------

def _write_pgm(path, img: np.ndarray, force: bool) -> None:
    ensure_fresh(path, force)
    gray = np.clip(img / img.max() if img.max() > 0 else img, 0, 1)
    gray = (gray * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(gray.tobytes())


def cmd_erf(args) -> int:
    out = _outdir(args)
    if args.spec:
        cfg = read_operator_spec(args.spec)
        cfg = SwConfig(**{**cfg.__dict__, "pad_mode": "exact"})
        w = (load_sw_weights(args.weights, cfg) if args.weights
             else random_weights(cfg))
        stack = [analysis.SwLayer(cfg, w, build_shift_plan(cfg))]
        label = f"sw_{cfg.m}x{cfg.n}"
    else:
        m, n = (int(v) for v in args.strip.split(","))
        k = CounterRng(args.seed, "erf-strip").uniform_array((1, m, n), -0.5, 0.5)
        stack = [analysis.ConvLayer(k)]
        label = f"strip_{m}x{n}"
    a = analysis.erf_map(stack, probe_size=args.probe)
    path = os.path.join(out, f"erf_{label}.swt")
    ensure_fresh(path, args.force)
    write_container(from_array(a), path)
    if args.pgm:
        _write_pgm(os.path.join(out, f"erf_{label}.pgm"), a, args.force)
    lines = ["# ERF = |d y_center / d x[p]| of the composed linear operator,"
             " max-normalized",
             "probe,center_value,support_cells",
             f"{args.probe},{_F(float(a[args.probe // 2, args.probe // 2]))},"
             f"{int((a > 0).sum())}"]
    _write_lines(os.path.join(out, f"erf_{label}.csv"), lines, args.force)
    print(f"erf: wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def cmd_params(args) -> int:
    out = _outdir(args)
    arch = (analysis.ArchSpec.sw_small() if args.arch == "small"
            else analysis.ArchSpec.sw_tiny())
    if args.ghost is not None:
        arch = analysis.ArchSpec(**{**arch.__dict__, "ghost": args.ghost})
    rep = analysis.count_macs(arch, input_size=args.input_size)
    _write_lines(os.path.join(out, "params.csv"), rep.csv_lines(), args.force)
    lines = ["experiment,instrumented,closed_form"]
    for exp in analysis.EXPERIMENT_IDS:
        # the replacement experiments ran at N = 5; #7 substitutes N = 3 itself
        inst, closed = analysis.experiment_counts(
            exp, 51, 5, arch.stage_dim(0), 56, 56, arch.ghost)
        lines.append(f"{exp},{_F(inst)},{_F(closed)}")
    _write_lines(os.path.join(out, "experiments.csv"), lines, args.force)
    print(f"params: total {rep.total_params / 1e6:.2f} M params, "
          f"{rep.total_macs / 1e9:.3f} GMACs at {args.input_size}^2 "
          f"(fan-outs {arch.stage_fanouts()})")
    return 0


# ---------------------------------------------------------------------------
# prune-sim
# ---------------------------------------------------------------------------

def _grow_stream(kind, seed, name, r, update, shape, banks):
    if kind == "uniform":
        return CounterRng(seed, "grow", name, r, update).uniform_array(shape, 0, 1)
    if kind == "persistent":
        return CounterRng(seed, "grow-persist", name, r).uniform_array(shape, 0, 1)
    if kind == "adversarial":
        return -sparsity.score_filters(banks[name][r])
    raise ValueError(f"unknown stream {kind!r}")


def run_prune_sim(steps, u, gap, s, policy, stream, n_layers=4, branches=2,
                  channels=16, g=17, n=3, seed=DEFAULT_SEED, init="per_branch",
                  jitter=0.0, layer_specs=None):
    """Mask-dynamics simulation over synthetic banks; returns trajectory rows.

    Rows: (update, layer, branch, sparsity, synced).  Weight banks stay
    fixed unless jitter > 0 perturbs them each update.  `layer_specs`
    overrides the uniform layer set with explicit (name, channels, g)
    triples, e.g. one per shift layer of an architecture.
    """
    if layer_specs is None:
        layer_specs = [(f"layer{i}", channels, g) for i in range(n_layers)]
    names = [nm for nm, _, _ in layer_specs]
    banks = {nm: [CounterRng(seed, "sim-bank", nm, r).uniform_array(
        (c, gk, n, n), -1, 1) for r in range(branches)]
        for nm, c, gk in layer_specs}
    if init == "per_branch":
        masks = {nm: [sparsity.prune_to_target(sparsity.score_filters(b), s)
                      for b in banks[nm]] for nm in names}
    else:
        masks = sparsity.init_sparsity(init, banks, s, seed=seed)
    state = sparsity.SparsityState(masks=masks, target=s, update_period=u,
                                   share_gap=gap, policy=policy, seed=seed,
                                   horizon=steps)
    rows = []
    for step in range(1, steps + 1):
        state.step = step
        if step % u == 0:
            update = step // u
            if jitter > 0:
                for nm in names:
                    for r in range(branches):
                        banks[nm][r] += CounterRng(seed, "jitter", nm, r, update) \
                            .uniform_array(banks[nm][r].shape, -jitter, jitter)
            scores = {nm: [_grow_stream(stream, seed, nm, r, update,
                                        banks[nm][r].shape[:2], banks)
                           for r in range(branches)] for nm in names}
            sparsity.sparsity_step(state, banks, scores)
            synced = int(update % gap == 0)
            for nm in names:
                for r, frac in enumerate(state.layer_sparsity(nm)):
                    rows.append((update, nm, r, frac, synced))
    return state, rows


def cmd_prune_sim(args) -> int:
    out = _outdir(args)
    if args.spec:
        cfg = read_operator_spec(args.spec)
        args.g, args.branches = cfg.g, cfg.rep_branches
        args.channels = cfg.sw_channels
    arch = None
    layer_specs = None
    if args.arch != "none":
        arch = (analysis.ArchSpec.sw_small() if args.arch == "small"
                else analysis.ArchSpec.sw_tiny())
        layer_specs = [(nm, arch.sw_channels(arch.stage_of(nm)),
                        arch.stage_g(arch.stage_of(nm)))
                       for nm in arch.layer_names()]
    state, rows = run_prune_sim(args.steps, args.u, args.gap, args.s,
                                args.policy, args.stream,
                                n_layers=args.layers, branches=args.branches,
                                channels=args.channels, g=args.g,
                                seed=args.seed, init=args.init,
                                jitter=args.jitter, layer_specs=layer_specs)
    lines = ["update,layer,branch,sparsity,synced"]
    for update, nm, r, frac, synced in rows:
        lines.append(f"{update},{nm},{r},{_F(frac)},{synced}")
    _write_lines(os.path.join(out, "prune_trajectory.csv"), lines, args.force)
    if arch is not None:
        stats = sparsity.mask_stats(state.masks, arch)
        lines = ["layer,stage,sparsity"]
        for name, stage, frac in stats.per_layer:
            lines.append(f"{name},{stage},{_F(frac)}")
        _write_lines(os.path.join(out, "sparsity_by_layer.csv"), lines, args.force)
        lines = ["stage,k,pruned_fraction"]
        for stage in sorted(stats.per_index):
            for k, frac in enumerate(stats.per_index[stage]):
                lines.append(f"{stage},{k},{_F(float(frac))}")
        _write_lines(os.path.join(out, "pruned_fraction_by_index.csv"),
                     lines, args.force)
        lines = ["stage,pruned_count,group_fraction"]
        for stage in sorted(stats.group_hist):
            for cnt, frac in enumerate(stats.group_hist[stage]):
                lines.append(f"{stage},{cnt},{_F(float(frac))}")
        _write_lines(os.path.join(out, "group_histogram.csv"), lines, args.force)
    if args.save_masks:
        sparsity.save_masks(state.masks, os.path.join(out, "masks"),
                            force=args.force)
    print(f"prune-sim: {args.steps} steps, {len(rows)} trajectory rows")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args) -> int:
    out = _outdir(args)
    if args.spec:
        cfg = read_operator_spec(args.spec)
    else:
        cfg = SwConfig(**bench.DESK_CONFIG, seed=args.seed)
    variants = args.variants.split(",")
    lines = ["# moves_per_pixel counts destination-accumulation events per"
             " fan-out (conv output) pixel; the shared-memory staging bound"
             " is 2E+1",
             bench.BenchReport.csv_header()]
    reports = {}
    for v in variants:
        rep = bench.run_variant(v, cfg, args.h, args.w, reps=args.reps,
                                dtype=args.dtype, relaxed=args.relaxed)
        reports[v] = rep
        lines.append(rep.csv_line())
        print(f"bench[{v}]: median {rep.median_ns / 1e6:.2f} ms, "
              f"moves/px {rep.moves_per_pixel:.2f}, peak {rep.peak_intermediate_bytes} B")
    _write_lines(os.path.join(out, "bench.csv"), lines, args.force)
    if args.check:
        diffs = bench.verify_variants(cfg, trials=2, h=min(args.h, 24),
                                      w=min(args.w, 24), dtype="f64")
        tol = args.tol if args.tol is not None else 1e-10
        bad = {v: d for v, d in diffs.items() if d > tol}
        print(f"bench check vs reference: {diffs}")
        if bad:
            return 1
    return 0


# ---------------------------------------------------------------------------
# gen-golden
# ---------------------------------------------------------------------------

def gen_golden(out: str, seed: int, force: bool = False) -> list[str]:
    """Freeze f64 oracle artifacts for regression testing; returns paths."""
    os.makedirs(out, exist_ok=True)
    paths = []

    for i, (m, n, c, h, w) in enumerate([(21, 3, 2, 16, 18), (13, 5, 3, 14, 14),
                                         (51, 3, 1, 24, 24)]):
        rng = CounterRng(seed, "golden-equiv", i)
        k = rng.uniform_array((c, m, n), -0.5, 0.5)
        x = Tensor(rng.uniform_array((c, h, w), -0.5, 0.5))
        cfg, wts, plan = from_strip(k)
        y = sw_forward(x, wts, cfg, plan)
        p = os.path.join(out, f"strip_equiv_{i}.swt")
        ensure_fresh(p, force)
        write_container(y, p)
        paths.append(p)

    cov = analysis.coverage_ratio(51, 3, 56, 56, 4, "per_edge_shuffled",
                                  [seed + i for i in range(5)])
    lines = ["E,policy,seed,mean_util,min_util,max_util"]
    for srow in cov.rows:
        lines.append(f"4,per_edge_shuffled,{srow[0]},{_F(srow[1])},"
                     f"{_F(srow[2])},{_F(srow[3])}")
    p = os.path.join(out, "coverage.csv")
    _write_lines(p, lines, force)
    paths.append(p)

    rep = analysis.count_macs(analysis.ArchSpec.sw_tiny(), 224)
    p = os.path.join(out, "params_tiny.csv")
    _write_lines(p, rep.csv_lines(), force)
    paths.append(p)

    k = CounterRng(seed, "golden-erf").uniform_array((1, 21, 3), -0.5, 0.5)
    a = analysis.erf_map([analysis.ConvLayer(k)], probe_size=31)
    p = os.path.join(out, "erf_strip_21x3.swt")
    ensure_fresh(p, force)
    write_container(from_array(a), p)
    paths.append(p)

    lines = ["experiment,instrumented,closed_form"]
    for exp in analysis.EXPERIMENT_IDS:
        inst, closed = analysis.experiment_counts(exp, 51, 5, 80, 56, 56, 0.23)
        lines.append(f"{exp},{_F(inst)},{_F(closed)}")
    p = os.path.join(out, "experiments.csv")
    _write_lines(p, lines, force)
    paths.append(p)

    _, rows = run_prune_sim(1000, 100, 3, 0.4, "shared", "uniform", seed=seed)
    lines = ["update,layer,branch,sparsity,synced"]
    for update, nm, r, frac, synced in rows:
        lines.append(f"{update},{nm},{r},{_F(frac)},{synced}")
    p = os.path.join(out, "prune_sim.csv")
    _write_lines(p, lines, force)
    paths.append(p)

    import hashlib
    lines = ["file,sha256"]
    for p in paths:
        with open(p, "rb") as fh:
            lines.append(f"{os.path.basename(p)},{hashlib.sha256(fh.read()).hexdigest()}")
    mp = os.path.join(out, "manifest.csv")
    _write_lines(mp, lines, force)
    paths.append(mp)
    return paths


def cmd_gen_golden(args) -> int:
    paths = gen_golden(_outdir(args), args.seed, args.force)
    print(f"gen-golden: froze {len(paths)} artifacts in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _common(sp, seed=True, checks=False):
    """Register the shared flags; --seed and --dtype/--tol only where read."""
    sp.add_argument("--out", default="out", help="output directory")
    if seed:
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    if checks:
        sp.add_argument("--dtype", choices=("f32", "f64"), default="f64")
        sp.add_argument("--tol", type=float, default=None,
                        help="tolerance override for the enabled checks")
    sp.add_argument("--force", action="store_true",
                    help="overwrite existing output files")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shiftlab",
        description="shift-stacked large-kernel emulation laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="equivalence and reparam oracle suites")
    _common(sp, checks=True)
    sp.add_argument("--spec", default=None, help="operator spec file")
    sp.add_argument("--weights", default=None, help="weights directory")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--fold-trials", type=int, default=100)
    sp.add_argument("--h", type=int, default=20)
    sp.add_argument("--w", type=int, default=20)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("coverage", help="shift destination utilization")
    _common(sp)
    sp.add_argument("--spec", default=None, help="take M, N from an operator spec")
    sp.add_argument("--m", type=int, default=51)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--h", type=int, default=56)
    sp.add_argument("--w", type=int, default=56)
    sp.add_argument("--edges", default="1,2,4,8")
    sp.add_argument("--policy", default="per_edge_shuffled",
                    choices=("ordered", "disordered", "per_edge_shuffled"))
    sp.add_argument("--n-seeds", type=int, default=20)
    sp.add_argument("--channels", type=int, default=1)
    sp.set_defaults(func=cmd_coverage)

    sp = sub.add_parser("erf", help="effective receptive field map")
    _common(sp)
    sp.add_argument("--spec", default=None, help="operator spec file")
    sp.add_argument("--weights", default=None)
    sp.add_argument("--strip", default="51,3", help="M,N strip fallback")
    sp.add_argument("--probe", type=int, default=63)
    sp.add_argument("--pgm", action="store_true", help="emit grayscale map")
    sp.set_defaults(func=cmd_erf)

    sp = sub.add_parser("params", help="parameter and MAC budgets")
    _common(sp, seed=False)
    sp.add_argument("--arch", choices=("tiny", "small"), default="tiny")
    sp.add_argument("--input-size", type=int, default=224)
    sp.add_argument("--ghost", type=float, default=None)
    sp.set_defaults(func=cmd_params)

    sp = sub.add_parser("prune-sim", help="prune-and-grow mask dynamics")
    _common(sp)
    sp.add_argument("--spec", default=None,
                    help="take fan-out, branches, channels from an operator spec")
    sp.add_argument("--steps", type=int, default=10000)
    sp.add_argument("--u", type=int, default=100)
    sp.add_argument("--gap", type=int, default=1)
    sp.add_argument("--s", type=float, default=0.4)
    sp.add_argument("--policy", default="shared",
                    choices=sparsity.STEP_POLICIES)
    sp.add_argument("--init", default="per_branch",
                    choices=("per_branch",) + sparsity.INIT_POLICIES)
    sp.add_argument("--stream", default="uniform",
                    choices=("uniform", "persistent", "adversarial"))
    sp.add_argument("--arch", default="none", choices=("none", "tiny", "small"),
                    help="simulate every shift layer of an architecture and "
                         "emit the mask analytics CSVs")
    sp.add_argument("--layers", type=int, default=4)
    sp.add_argument("--branches", type=int, default=2)
    sp.add_argument("--channels", type=int, default=16)
    sp.add_argument("--g", type=int, default=17)
    sp.add_argument("--jitter", type=float, default=0.0)
    sp.add_argument("--save-masks", action="store_true")
    sp.set_defaults(func=cmd_prune_sim)

    sp = sub.add_parser("bench", help="operator implementation variants")
    _common(sp, checks=True)
    sp.add_argument("--spec", default=None)
    sp.add_argument("--variants", default=",".join(bench.VARIANTS))
    sp.add_argument("--reps", type=int, default=5)
    sp.add_argument("--h", type=int, default=56)
    sp.add_argument("--w", type=int, default=56)
    sp.add_argument("--relaxed", action="store_true",
                    help="unordered accumulation (tolerance 1e-5 f32)")
    sp.add_argument("--check", action="store_true",
                    help="also compare variants against the reference path")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("gen-golden", help="freeze f64 regression artifacts")
    _common(sp)
    sp.set_defaults(func=cmd_gen_golden)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileExistsError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
