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
from .conv_ref import conv2d_ref, strip_conv_ref
from .tensor import Tensor, ensure_fresh, from_array, write_container

_COVERAGE_HEADER = ("E", "policy", "seed", "mean_util", "min_util", "max_util")
_PARAMS_HEADER = ("layer", "kind", "params", "macs", "closed_form", "delta")
_EXPERIMENTS_HEADER = ("experiment", "instrumented", "closed_form")
_TRAJECTORY_HEADER = ("update", "layer", "branch", "sparsity", "synced")


def _write_csv(path, header, rows, force, notes=()) -> None:
    """Write '# note' lines, the header, then the rows: float cells as .17g,
    other cells as str, and a cell that contains a comma quoted."""
    ensure_fresh(path, force)
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {note}\n" for note in notes)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                         for row in rows)


def _require_positive(args, *flags) -> None:
    """Reject a count or extent flag below 1 before any work is done."""
    for flag in flags:
        value = getattr(args, flag.removeprefix("--").replace("-", "_"))
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")


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
    tol_band = args.tol if args.tol is not None else 1e-12
    tol_rep = args.tol if args.tol is not None else 1e-10   # the fixed f64 suites
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
        except (OSError, ValueError) as exc:  # named failing check for bad weights
            yield ("load-weights", f"{type(exc).__name__}: {exc}", float("inf"),
                   0.0, False)
            return
        # each H or W edge of a channel must read every displacement once
        dy, dx = plan.shifts(cfg.branch_types)
        bad = int(np.any(np.sort(dy + dx, axis=-1) != cfg.displacements(), axis=-1).sum())
        yield ("plan-bijective", f"{len(dy)}x{cfg.sw_channels} displacement rows",
               float(bad), 0.0, bad == 0)
        if bad:
            return
        rng = CounterRng(cfg.seed, "verify-input")
        x = Tensor(rng.uniform_array((cfg.channels, args.h, args.w), -0.5, 0.5, dt))
        if w.identity_norms(cfg):
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
    worst = worst_b = 0.0
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
            worst_b = max(worst_b, bd)
            if bd > tol_band:
                yield ("interior-band", f"cfg{i}", bd, tol_band, False)
                return
    yield ("exact-equivalence", f"{args.trials} configs", worst, tol_eq, True)
    yield ("interior-band", "all non-empty bands", worst_b, tol_band, True)

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
    yield ("densify-consistency", "fan-outs 1/5/17", worst_d, tol_rep, worst_d <= tol_rep)

    worst_f = 0.0
    for i in range(args.fold_trials):
        r = CounterRng(args.seed, "verify-fold", i)
        c = 1 + r.randint(6)
        norm = AffineNorm(r.uniform_array((c,), 0.2, 2.0), r.uniform_array((c,), -1, 1),
                          r.uniform_array((c,), -1, 1), r.uniform_array((c,), 0.05, 2.0),
                          eps=1e-5)
        wb = r.uniform_array((c, 1, 3, 3), -1, 1)
        x = Tensor(r.uniform_array((c, 9, 9), -1, 1))
        y1 = norm.apply(conv2d_ref(x, wb).data)
        wf, bf = fold_norm(wb, None, norm)
        y2 = conv2d_ref(x, wf).data + bf[:, None, None]
        worst_f = max(worst_f, float(np.max(np.abs(y1 - y2))))
    yield ("fold-norm", f"{args.fold_trials} instances", worst_f, tol_rep,
           worst_f <= tol_rep)

    worst_m = 0.0
    for i in range(args.fold_trials):
        r = CounterRng(args.seed, "verify-merge", i)
        c = 1 + r.randint(4)
        banks = [r.uniform_array((c, 1, 3, 3), -1, 1) for _ in range(4)]
        x = Tensor(r.uniform_array((c, 8, 8), -1, 1))
        y_sum = np.zeros((c, 8, 8))
        for b in banks:
            y_sum += conv2d_ref(x, b).data
        y_merged = conv2d_ref(x, merge_rep(banks)).data
        worst_m = max(worst_m, float(np.max(np.abs(y_sum - y_merged))))
    yield ("merge-rep", f"{args.fold_trials} instances", worst_m, tol_rep,
           worst_m <= tol_rep)


def cmd_verify(args) -> int:
    _require_positive(args, "--trials", "--fold-trials", "--h", "--w")
    rows = list(_check_rows_verify(args))
    out = _outdir(args)
    _write_csv(os.path.join(out, "verify.csv"),
               ("check", "detail", "max_diff", "tol", "status"),
               [(check, detail, diff, tol, "pass" if ok else "FAIL")
                for check, detail, diff, tol, ok in rows], args.force)
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
    _require_positive(args, "--h", "--w", "--n-seeds", "--channels")
    if args.spec:
        cfg = read_operator_spec(args.spec)
        args.m, args.n = cfg.m, cfg.n
    seeds = [args.seed + i for i in range(args.n_seeds)]
    rows = []
    for e in args.edges:
        res = analysis.coverage_ratio(args.m, args.n, args.h, args.w, e,
                                      args.policy, seeds, channels=args.channels)
        rows += [(e, args.policy) + row for row in res.rows]
    out = _outdir(args)
    _write_csv(os.path.join(out, "coverage.csv"), _COVERAGE_HEADER, rows, args.force,
               notes=("utilization = |union over edges of in-grid destination rows"
                      " of the vertical shift branch| / (H*W), painted on a"
                      " boolean grid",))
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
    notes = ["ERF = |d y_center / d x[p]| of the composed linear operator, max-normalized"]
    if args.spec:
        cfg = read_operator_spec(args.spec)
        notes.append(f"the spec's pad_mode is {cfg.pad_mode}; this is the ERF of the"
                     " exact-mode operator (pad_mode=exact) with the same weights")
        cfg = SwConfig(**{**cfg.__dict__, "pad_mode": "exact"})
        w = (load_sw_weights(args.weights, cfg) if args.weights
             else random_weights(cfg))
        stack = [analysis.SwLayer(cfg, w, build_shift_plan(cfg))]
        label = f"sw_{cfg.m}x{cfg.n}"
    else:
        m, n = args.strip
        k = CounterRng(args.seed, "erf-strip").uniform_array((1, m, n), -0.5, 0.5)
        stack = [analysis.ConvLayer(k)]
        label = f"strip_{m}x{n}"
    a = analysis.erf_map(stack, probe_size=args.probe)
    out = _outdir(args)
    path = os.path.join(out, f"erf_{label}.swt")
    write_container(from_array(a), path, args.force)
    if args.pgm:
        _write_pgm(os.path.join(out, f"erf_{label}.pgm"), a, args.force)
    _write_csv(os.path.join(out, f"erf_{label}.csv"),
               ("probe", "center_value", "support_cells"),
               [(args.probe, float(a[args.probe // 2, args.probe // 2]),
                 int((a > 0).sum()))], args.force,
               notes=notes)
    print(f"erf: wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def _count_rows(rep: analysis.CountReport) -> list[tuple]:
    """params.csv rows: one per counted layer, then the totals."""
    return [(r.name, r.kind, r.params, r.macs, r.closed_form, r.delta)
            for r in rep.rows] + [("total", "", rep.total_params, rep.total_macs, "", "")]


def _experiment_rows(c: int, ghost: float) -> list[tuple]:
    """experiments.csv rows: (id, instrumented, closed form) at C = c."""
    # the replacement experiments ran at N = 5; #7 substitutes N = 3 itself
    return [(exp,) + analysis.experiment_counts(exp, 51, 5, c, 56, 56, ghost)
            for exp in analysis.EXPERIMENT_IDS]


def cmd_params(args) -> int:
    _require_positive(args, "--input-size")
    arch = (analysis.ArchSpec.sw_small() if args.arch == "small"
            else analysis.ArchSpec.sw_tiny())
    if args.ghost is not None:
        arch = analysis.ArchSpec(**{**arch.__dict__, "ghost": args.ghost})
    rep = analysis.count_macs(arch, input_size=args.input_size)
    out = _outdir(args)
    _write_csv(os.path.join(out, "params.csv"), _PARAMS_HEADER, _count_rows(rep),
               args.force)
    _write_csv(os.path.join(out, "experiments.csv"), _EXPERIMENTS_HEADER,
               _experiment_rows(arch.stage_dim(0), arch.ghost), args.force)
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
    state = sparsity.SparsityState(masks=sparsity.init_sparsity(init, banks, s, seed=seed),
                                   target=s, update_period=u, share_gap=gap,
                                   policy=policy, seed=seed, horizon=steps)
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
    _require_positive(args, "--steps", "--layers", "--branches", "--channels", "--g",
                      "--u", "--gap")
    if args.jitter < 0:
        raise ValueError(f"--jitter must be >= 0, got {args.jitter}")
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
    out = _outdir(args)
    _write_csv(os.path.join(out, "prune_trajectory.csv"), _TRAJECTORY_HEADER, rows,
               args.force)
    if arch is not None:
        stats = sparsity.mask_stats(state.masks, arch)
        _write_csv(os.path.join(out, "sparsity_by_layer.csv"),
                   ("layer", "stage", "sparsity"), stats.per_layer, args.force)
        _write_csv(os.path.join(out, "pruned_fraction_by_index.csv"),
                   ("stage", "k", "pruned_fraction"),
                   [(stage, k, float(frac)) for stage in sorted(stats.per_index)
                    for k, frac in enumerate(stats.per_index[stage])], args.force)
        _write_csv(os.path.join(out, "group_histogram.csv"),
                   ("stage", "pruned_count", "group_fraction"),
                   [(stage, cnt, float(frac)) for stage in sorted(stats.group_hist)
                    for cnt, frac in enumerate(stats.group_hist[stage])], args.force)
    if args.save_masks:
        sparsity.save_masks(state.masks, os.path.join(out, "masks"),
                            force=args.force)
    print(f"prune-sim: {args.steps} steps, {len(rows)} trajectory rows")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args) -> int:
    _require_positive(args, "--h", "--w", "--reps")
    if args.spec:
        cfg = read_operator_spec(args.spec)
    else:
        cfg = SwConfig(**bench.DESK_CONFIG, seed=args.seed)
    reports = bench.measure(cfg, args.h, args.w, args.variants.split(","),
                            reps=args.reps, dtype=args.dtype)
    out = _outdir(args)
    for rep in reports:
        print(f"bench[{rep.variant}]: median {rep.median_ns / 1e6:.2f} ms, "
              f"moves/px {rep.moves_per_pixel:.2f}, reads/px {rep.reads_per_pixel:.2f}, "
              f"peak {rep.peak_intermediate_bytes} B, config {rep.config_digest}")
    _write_csv(os.path.join(out, "bench.csv"),
               ("variant", "median_ns", "mad_ns", "moves_per_pixel", "peak_bytes",
                "checksum", "config_digest", "reads_per_pixel"),
               [(r.variant, round(r.median_ns), round(r.mad_ns), r.moves_per_pixel,
                 r.peak_intermediate_bytes, r.checksum, r.config_digest, r.reads_per_pixel)
                for r in reports],
               args.force,
               notes=("moves_per_pixel counts destination-accumulation events per"
                      " fan-out (conv output) pixel; the shared-memory staging bound"
                      " is 2E+1",
                      "reads_per_pixel counts the window elements the shift-adds"
                      " gather per fan-out pixel, in-grid or not; fused skips the"
                      " reads that miss the grid, naive gathers them all"))
    if args.check:
        # always f64, and the timed dtype too when it was f32
        bad = False
        for dtype in dict.fromkeys(("f64", args.dtype)):
            diffs = bench.verify_variants(cfg, trials=2, h=min(args.h, 24),
                                          w=min(args.w, 24), dtype=dtype)
            tol = args.tol if args.tol is not None else {"f64": 1e-10, "f32": 1e-5}[dtype]
            print(f"bench check vs reference ({dtype}, tol {tol:.3g}): {diffs}")
            bad |= any(d > tol for d in diffs.values())
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

    def table(name, header, rows):
        paths.append(os.path.join(out, name))
        _write_csv(paths[-1], header, rows, force)

    def tensor(name, t):
        paths.append(os.path.join(out, name))
        write_container(t, paths[-1], force)

    for i, (m, n, c, h, w) in enumerate([(21, 3, 2, 16, 18), (13, 5, 3, 14, 14),
                                         (51, 3, 1, 24, 24)]):
        rng = CounterRng(seed, "golden-equiv", i)
        k = rng.uniform_array((c, m, n), -0.5, 0.5)
        x = Tensor(rng.uniform_array((c, h, w), -0.5, 0.5))
        cfg, wts, plan = from_strip(k)
        tensor(f"strip_equiv_{i}.swt", sw_forward(x, wts, cfg, plan))

    cov = analysis.coverage_ratio(51, 3, 56, 56, 4, "per_edge_shuffled",
                                  [seed + i for i in range(5)])
    table("coverage.csv", _COVERAGE_HEADER,
          [(4, "per_edge_shuffled") + row for row in cov.rows])
    table("params_tiny.csv", _PARAMS_HEADER,
          _count_rows(analysis.count_macs(analysis.ArchSpec.sw_tiny(), 224)))

    k = CounterRng(seed, "golden-erf").uniform_array((1, 21, 3), -0.5, 0.5)
    tensor("erf_strip_21x3.swt",
           from_array(analysis.erf_map([analysis.ConvLayer(k)], probe_size=31)))
    table("experiments.csv", _EXPERIMENTS_HEADER, _experiment_rows(80, 0.23))
    _, rows = run_prune_sim(1000, 100, 3, 0.4, "shared", "uniform", seed=seed)
    table("prune_sim.csv", _TRAJECTORY_HEADER, rows)

    import hashlib
    digests = []
    for p in paths:
        with open(p, "rb") as fh:
            digests.append((os.path.basename(p), hashlib.sha256(fh.read()).hexdigest()))
    table("manifest.csv", ("file", "sha256"), digests)
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


def _int_list(count=None):
    """argparse type of comma-separated integers, `count` of them if set; a bad
    value is a usage error that names its flag ("invalid int_list value")."""
    def int_list(text: str) -> list[int]:
        values = [int(v) for v in text.split(",")]
        if count not in (None, len(values)):
            raise ValueError(f"want {count} integers")
        return values
    return int_list


def _odd_size(text: str) -> int:
    """argparse type of an odd positive integer; anything else is a usage
    error that names its flag, raised before any output is created."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1 or value % 2 == 0:
        raise argparse.ArgumentTypeError(f"want an odd positive integer, got {text!r}")
    return value


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
    sp.add_argument("--edges", type=_int_list(), default="1,2,4,8")
    sp.add_argument("--policy", default="per_edge_shuffled",
                    choices=("ordered", "disordered", "per_edge_shuffled"))
    sp.add_argument("--n-seeds", type=int, default=20)
    sp.add_argument("--channels", type=int, default=1)
    sp.set_defaults(func=cmd_coverage)

    sp = sub.add_parser("erf", help="effective receptive field map")
    _common(sp)
    sp.add_argument("--spec", default=None, help="operator spec file")
    sp.add_argument("--weights", default=None)
    sp.add_argument("--strip", type=_int_list(2), default="51,3", help="M,N strip fallback")
    sp.add_argument("--probe", type=_odd_size, default=63, help="odd probe size")
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
    sp.add_argument("--init", default="per_branch", choices=sparsity.INIT_POLICIES)
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
