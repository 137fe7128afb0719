"""Benchmark of shiftlab: the sw_tiny operator stack, dense and masked, and
the verify/ERF lab path.

Run from the repository root:

    python3 shiftbench/run.py --workload tiny_dense --seed 1 --seconds 32 --trace 0

Every workload runs the same session, from one process: rounds of (set up
the 27 shift-operator layers of ``ArchSpec.sw_tiny`` at their real shapes
for a 224 input; run every layer once through ``bench.run_variant("fused")``
with ``shiftlab verify`` and ``shiftlab erf`` calls in between) until
``--seconds`` are spent.  The workloads differ only in their inputs: see
WORKLOADS and NOTES.md.  Every time is scaled to a fixed machine speed
by a reference computation run after each timed call (see Clock).  The
last line of stdout is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  A run record
with machine facts, sample counts, MADs and the unscaled times is written
to ``shiftbench/runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

INPUT = 224
PROBE = 63
CHUNKS = 4      # verify and erf calls per round, spread between layer slices
# reference_ms() on a 2-vCPU Xeon host when it is not slowed by co-tenants;
# every time metric is in ms or s at that speed (see Clock)
REF_MS = 2.4
# verify keeps its own fixed sweep (the CLI's default seed), so that its
# amount of work does not change with --seed; 50 strip configs and 25
# fold/merge instances make one call short enough for CHUNKS per round
VERIFY_SIZE = ["--trials", "50", "--fold-trials", "25"]
# (stack dtype, target filter sparsity of sparsity.init_sparsity("subset"))
WORKLOADS = {
    "tiny_dense": ("f32", 0.0),
    "tiny_masked": ("f32", 0.4),
    "lab": ("f64", 0.0),
}

END_TO_END = {   # name -> unit
    "setup_s": "s",
    "stack_ms": "ms",
    "gmac_s": "GMAC/s",
    "peak_staging_bytes": "B",
    "verify_s": "s",
    "erf_s": "s",
}
# span name -> per-layer metric, for spans below cli.main in a traced round
SPAN_TOTALS = {
    "sw_op.from_strip": "sw_op.from_strip_ms",
    "conv_ref.fanout_conv": "conv_ref.fanout_conv_ms",
    "conv_ref.strip_conv_ref": "conv_ref.strip_conv_ref_ms",
    "conv_ref.conv2d_ref": "conv_ref.conv2d_ref_ms",
    "reparam.densify": "reparam.densify_ms",
    "reparam.fold_norm": "reparam.fold_norm_ms",
    "reparam.merge_rep": "reparam.merge_rep_ms",
    "rng.uniform_array": "rng.uniform_array_ms",
    "analysis.erf_map": "analysis.erf_map_ms",
    "tensor.write_container": "tensor.write_container_ms",
}
OVERHEAD = ("setup_s", "stack_ms", "gmac_s", "verify_s", "erf_s")


def per_layer_units() -> dict[str, str]:
    units = {}
    for st in range(4):
        units[f"bench.stage{st}_layer_ms"] = "ms"
        units[f"bench.stage{st}_gmac_s"] = "GMAC/s"
        units[f"bench.stage{st}_moves_per_px"] = "moves/px"
        units[f"bench.stage{st}_peak_bytes"] = "B"
    units.update({
        "analysis.sw_macs": "count",
        "sparsity.kept_fraction": "ratio",
        "sw_op.build_shift_plan_ms": "ms",
        "rng.permutation_calls": "count",
        "rng.permutation_ms": "ms",
        "sparsity.init_sparsity_ms": "ms",
        "sw_op.sw_forward_ms": "ms",
        "sw_op.sw_forward_calls": "count",
    })
    units.update({metric: "ms" for metric in SPAN_TOTALS.values()})
    units["tensor.bytes_written"] = "B"
    units["cli.main_self_ms"] = "ms"
    units.update({f"trace.{m}_overhead_pct": "%" for m in OVERHEAD})
    return units


def median_mad(values):
    med = statistics.median(values)
    return med, statistics.median([abs(v - med) for v in values])


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_facts(workload: str, seed: int) -> dict:
    import numpy
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS + ("SHIFTLAB_THREADS",)},
        "git_commit": _git_commit(),
    }


_REF_ARRAY = None


def reference_ms() -> float:
    """Time of a fixed computation that does not use shiftlab (about 2.4 ms).

    It is interpreter work and small numpy kernels, as most of the program
    is.  On a shared host its time tracks how fast the program runs at that
    moment; a reference that also streamed a large array through memory
    tracked it worse.
    """
    global _REF_ARRAY
    import numpy as np
    if _REF_ARRAY is None:
        _REF_ARRAY = np.linspace(0.0, 1.0, 1 << 14, dtype=np.float32)
    a = _REF_ARRAY
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(100):
        a = a * np.float32(0.999) + np.float32(0.001)
    return (time.perf_counter() - t0) * 1e3


class Clock:
    """Wall times, raw and scaled to a fixed machine speed.

    The reference computation runs after every timed call.  A call's scale
    is REF_MS over the mean of the reference times just before and just
    after it, so a stretch in which the shared host runs the process slower
    stretches the reference too and drops out of the scaled time, while a
    slower program does not touch the reference and shows in full.
    """

    def __init__(self):
        self.last = reference_ms()
        self.refs = [self.last]

    def timed(self, fn):
        """(result of fn, raw wall seconds, scale)."""
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        ref = reference_ms()
        scale = 2.0 * REF_MS / (self.last + ref)
        self.last = ref
        self.refs.append(ref)
        return result, raw, scale


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------

@dataclass
class Layer:
    name: str
    stage: int
    size: int
    cfg: object
    plan: object
    weights: object
    macs: int = 0


def build_stack(seed: int, s: float, workdir: str) -> list[Layer]:
    """The 27 operators of sw_tiny with plans, weights, masks and MAC counts.

    Also writes the stage-0 operator (spec and weights) for `shiftlab erf`.
    """
    from shiftlab import analysis, sparsity, sw_op
    arch = analysis.ArchSpec.sw_tiny()
    layers = []
    for lid, name in enumerate(arch.layer_names()):
        st = arch.stage_of(name)
        cfg = sw_op.SwConfig(m=arch.stage_m[st], n=arch.n, channels=arch.stage_dim(st),
                             ghost=arch.ghost, edges=arch.edges,
                             rep_branches=arch.rep_branches, pad_mode="half",
                             order_policy="per_edge_shuffled", seed=seed, layer_id=lid)
        layers.append(Layer(name, st, (INPUT // 4) >> st, cfg,
                            sw_op.build_shift_plan(cfg), sw_op.random_weights(cfg)))
    masks = sparsity.init_sparsity("subset", {l.name: l.weights.rep for l in layers},
                                   s, seed=seed)
    macs = {r.name: r.macs for r in analysis.count_macs(arch, INPUT, masks).rows
            if r.kind == "sw"}
    for layer in layers:
        layer.weights.masks = masks[layer.name]
        layer.macs = macs[f"{layer.name}.sw"]
    sw_op.write_operator_spec(layers[0].cfg, os.path.join(workdir, "op0.spec"))
    sw_op.save_sw_weights(layers[0].weights, os.path.join(workdir, "op0"))
    return layers


def run_round(seed, s, dtype, workdir, tally, rec, clock, stop) -> dict:
    """One round: a fresh set-up, then the stack in CHUNKS slices of layers,
    each slice followed by one verify and one erf, so that every metric
    samples the whole round.  Each sample is a (raw, scaled) pair.  The
    round ends after the first slice at which stop() is true."""
    from shiftlab import bench, cli
    from checks import check_verify_csv
    with rec.span("setup") if rec else contextlib.nullcontext():
        layers, raw, scale = clock.timed(lambda: build_stack(seed, s, workdir))
    row = {"layers": layers, "setup_s": [(raw, raw * scale)], "reports": [None] * len(layers),
           "layer_ms": [None] * len(layers), "verify_s": [], "erf_s": [], "chunks": 0}
    vdir = os.path.join(workdir, "verify")
    for chunk in range(CHUNKS):
        for i in range(chunk, len(layers), CHUNKS):
            layer = layers[i]
            rep, _raw, scale = clock.timed(lambda: tally.attempt(
                f"fused {layer.name}", lambda: bench.run_variant(
                    "fused", layer.cfg, layer.size, layer.size, reps=1, warmup=0,
                    dtype=dtype, weights=layer.weights)))
            if rep is not None:
                tally.record(f"fused {layer.name}", True)
                ms = rep.samples_ns[0] / 1e6
                row["layer_ms"][i] = (ms, ms * scale)
            row["reports"][i] = rep

        with contextlib.redirect_stdout(io.StringIO()):
            rc, raw, scale = clock.timed(lambda: tally.attempt("verify", lambda: cli.main(
                ["verify", "--out", vdir, "--force"] + VERIFY_SIZE)))
        if rc is not None:
            row["verify_s"].append((raw, raw * scale))
            check_verify_csv(tally, "verify", rc, os.path.join(vdir, "verify.csv"))

        with contextlib.redirect_stdout(io.StringIO()):
            rc, raw, scale = clock.timed(lambda: tally.attempt("erf", lambda: cli.main(
                ["erf", "--out", os.path.join(workdir, "erf"),
                 "--spec", os.path.join(workdir, "op0.spec"),
                 "--weights", os.path.join(workdir, "op0"),
                 "--probe", str(PROBE), "--force"])))
        if rc is not None:
            row["erf_s"].append((raw, raw * scale))
            tally.record("erf", rc == 0, f"exit {rc}")
        row["chunks"] += 1
        if stop():
            break
    return row


def stack_summary(rounds, which=1):
    """Per-layer samples (ms; which=0 raw, 1 scaled), and stack_ms = sum of
    per-layer medians."""
    n_layers = len(rounds[0]["layer_ms"])
    per_layer = [[r["layer_ms"][i][which] for r in rounds if r["layer_ms"][i]]
                 for i in range(n_layers)]
    if not all(per_layer):
        return None
    totals = [sum(x[which] for x in r["layer_ms"]) for r in rounds if all(r["layer_ms"])]
    mad = median_mad(totals)[1] if totals else None
    return sum(statistics.median(x) for x in per_layer), mad, per_layer


def end_to_end(rounds, layers, which=1) -> dict:
    """name -> (value, unit, mad, samples); value None if never measured.
    Times are scaled (which=1) or raw (which=0)."""
    out = {}
    for key in ("setup_s", "verify_s", "erf_s"):
        vals = [v[which] for r in rounds for v in r[key]]
        if vals:
            out[key] = (*median_mad(vals), len(vals))
    stack = stack_summary(rounds, which)
    if stack is not None:
        stack_ms, mad, _ = stack
        gmac = sum(layer.macs for layer in layers) / (stack_ms / 1e3) / 1e9
        out["stack_ms"] = (stack_ms, mad, len(rounds))
        out["gmac_s"] = (gmac, None if mad is None else gmac * mad / stack_ms, len(rounds))
    peaks = [rep.peak_intermediate_bytes for r in rounds for rep in r["reports"] if rep]
    if peaks:
        out["peak_staging_bytes"] = (max(peaks), 0, len(peaks))
    return {name: (out[name][0], unit, out[name][1], out[name][2]) if name in out
            else (None, unit, None, 0) for name, unit in END_TO_END.items()}


def per_layer(rec, traced_rounds, untraced, traced, layers) -> dict:
    """name -> (value, unit) for every per-layer metric, from traced rounds."""
    import numpy as np
    vals: dict[str, float] = {}
    stack = stack_summary(traced_rounds)
    for st in range(4):
        idx = [i for i, layer in enumerate(layers) if layer.stage == st]
        reports = [r["reports"][i] for r in traced_rounds for i in idx if r["reports"][i]]
        if stack is not None:
            samples = stack[2]
            vals[f"bench.stage{st}_layer_ms"] = statistics.median(
                x for i in idx for x in samples[i])
            vals[f"bench.stage{st}_gmac_s"] = (
                sum(layers[i].macs for i in idx)
                / (sum(statistics.median(samples[i]) for i in idx) / 1e3) / 1e9)
        if reports:
            vals[f"bench.stage{st}_moves_per_px"] = statistics.fmean(
                r.moves_per_pixel for r in reports)
            vals[f"bench.stage{st}_peak_bytes"] = max(
                r.peak_intermediate_bytes for r in reports)
    vals["analysis.sw_macs"] = sum(layer.macs for layer in layers)
    vals["sparsity.kept_fraction"] = (
        sum(int(np.logical_or.reduce(layer.weights.masks).sum()) for layer in layers)
        / sum(layer.cfg.sw_channels * layer.cfg.g for layer in layers))

    chunks = {r["id"]: r["chunks"] for r in traced_rounds}

    def med(name, field, root):
        """Median over traced rounds; below cli.main, per verify/erf call."""
        return statistics.median(
            rec.totals(rid, root).get(name, {}).get(field, 0.0)
            / (n if root == "cli.main" else 1) for rid, n in chunks.items())

    vals["sw_op.build_shift_plan_ms"] = med("sw_op.build_shift_plan", "ms", "setup")
    vals["rng.permutation_calls"] = med("rng.permutation", "calls", "setup")
    vals["rng.permutation_ms"] = med("rng.permutation", "ms", "setup")
    vals["sparsity.init_sparsity_ms"] = med("sparsity.init_sparsity", "ms", "setup")
    vals["sw_op.sw_forward_ms"] = med("sw_op.sw_forward", "self_ms", "cli.main")
    vals["sw_op.sw_forward_calls"] = med("sw_op.sw_forward", "calls", "cli.main")
    for span, metric in SPAN_TOTALS.items():
        vals[metric] = med(span, "ms", "cli.main")
    vals["tensor.bytes_written"] = statistics.median(
        rec.counters.get(("tensor.write_container_count", rid), 0) / n
        for rid, n in chunks.items())
    vals["cli.main_self_ms"] = med("cli.main", "self_ms", "cli.main")
    for m in OVERHEAD:
        t, u = traced[m][0], untraced[m][0]
        if t is not None and u is not None:
            ratio = u / t if m == "gmac_s" else t / u
            vals[f"trace.{m}_overhead_pct"] = (ratio - 1.0) * 100.0
    return {name: (vals.get(name), unit) for name, unit in per_layer_units().items()}


def install_spans(rec) -> None:
    """Wrap each public name where the calling module binds it."""
    from shiftlab import analysis, bench, cli, conv_ref, rng, sparsity, sw_op
    rec.wrap(bench, "run_variant", "bench.run_variant")
    rec.wrap(cli, "main", "cli.main")
    rec.wrap(sparsity, "init_sparsity", "sparsity.init_sparsity")
    rec.wrap(analysis, "count_macs", "analysis.count_macs")
    rec.wrap(analysis, "erf_map", "analysis.erf_map")
    for mod in (sw_op, bench, cli):
        rec.wrap(mod, "build_shift_plan", "sw_op.build_shift_plan")
    for mod in (bench, cli, analysis):
        rec.wrap(mod, "sw_forward", "sw_op.sw_forward")
    for mod in (conv_ref, cli, analysis):
        rec.wrap(mod, "strip_conv_ref", "conv_ref.strip_conv_ref")
    rec.wrap(conv_ref, "fanout_conv", "conv_ref.fanout_conv")  # sw_op imports it per call
    rec.wrap(cli, "from_strip", "sw_op.from_strip")
    rec.wrap(cli, "conv2d_ref", "conv_ref.conv2d_ref")
    for name in ("densify", "fold_norm", "merge_rep"):
        rec.wrap(cli, name, f"reparam.{name}")
    rec.wrap(rng.CounterRng, "permutation", "rng.permutation")
    rec.wrap(rng.CounterRng, "uniform_array", "rng.uniform_array")
    rec.wrap(cli, "write_container", "tensor.write_container",
             after=lambda args, _result: os.path.getsize(args[1]))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shiftlab", "__init__.py")):
        print(f"error: no shiftlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:       # this process only; at most nproc threads
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import shiftlab
    if os.path.dirname(os.path.abspath(shiftlab.__file__)) != os.path.join(SRC, "shiftlab"):
        print(f"error: imported shiftlab from {shiftlab.__file__}", file=sys.stderr)
        return 2
    from shiftlab.tensor import read_container
    import checks
    from spans import Recorder

    dtype, s = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUNS, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    facts = machine_facts(args.workload, args.seed)
    tally = checks.Tally()
    rec = Recorder() if args.trace else None
    if rec is not None:
        install_spans(rec)
    try:
        # untimed checks before timing; they also warm the code
        layers = build_stack(args.seed, s, workdir)
        first = {}
        for layer in layers:
            first.setdefault(layer.stage, layer)
        naive = {st: tally.attempt(f"naive stage{st}", lambda: checks.naive_checksum(
            layer.cfg, layer.size, dtype, layer.weights)) for st, layer in first.items()}
        for st, layer in first.items():
            tally.attempt(f"variants stage{st}", lambda: checks.check_variants(
                tally, f"variants stage{st}", layer.cfg, layer.size))

        # timed rounds until the deadline, the last one possibly cut after a
        # slice; the first min_rounds are whole.  A traced run alternates
        # untraced and traced rounds.
        rounds = []
        clock = Clock()
        deadline = time.perf_counter() + args.seconds
        min_rounds = 1 if rec is None else 2

        def past_deadline():
            return len(rounds) >= min_rounds and time.perf_counter() > deadline

        while not past_deadline():
            rid = len(rounds)
            traced = rec is not None and rid % 2 == 1
            if rec is not None:
                rec.round, rec.on = rid, traced
            row = run_round(args.seed, s, dtype, workdir, tally, rec, clock, past_deadline)
            row.update(id=rid, traced=traced)
            if rec is not None:
                rec.on = False
            rounds.append(row)
        layers = rounds[-1]["layers"]

        # untimed output checks
        for i, layer in enumerate(layers):
            fused = {r["reports"][i].checksum for r in rounds if r["reports"][i]}
            if first[layer.stage].name == layer.name and naive[layer.stage] is not None:
                checks.check_checksums(tally, f"checksum {layer.name}", fused,
                                       naive[layer.stage])
            else:   # fused must give the same output in every round
                tally.record(f"deterministic {layer.name}", len(fused) == 1,
                             f"{len(fused)} distinct checksums")
        op0 = layers[0]
        erf_file = os.path.join(workdir, "erf", f"erf_sw_{op0.cfg.m}x{op0.cfg.n}.swt")
        if os.path.exists(erf_file):
            got = read_container(erf_file).data
            ref = tally.attempt("erf reference", lambda: checks.erf_reference(
                op0.cfg, op0.weights, op0.plan, PROBE))
            if ref is not None:
                checks.check_erf(tally, "erf vs densify", got, ref)
        else:
            tally.record("erf output", False, f"{erf_file} missing")
    finally:
        if rec is not None:
            rec.unwrap_all()
        shutil.rmtree(workdir, ignore_errors=True)

    facts["speed_ref_ms"] = dict(zip(("min", "median", "max", "n"), (
        min(clock.refs), statistics.median(clock.refs), max(clock.refs), len(clock.refs))))
    untraced_rounds = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    e2e = end_to_end(untraced_rounds, layers)
    record = {"facts": facts, "rounds": len(rounds), "seconds": args.seconds,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.notes,
              "end_to_end": {k: {"value": v, "unit": u, "mad": m, "samples": n}
                             for k, (v, u, m, n) in e2e.items()},
              "end_to_end_raw": {k: {"value": v, "unit": u, "mad": m, "samples": n}
                                 for k, (v, u, m, n) in end_to_end(untraced_rounds, layers,
                                                                   which=0).items()}}
    if rec is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _m, _n) in e2e.items()}
    else:
        traced_e2e = end_to_end(traced_rounds, layers)
        layer_metrics = per_layer(rec, traced_rounds, e2e, traced_e2e, layers)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        record["traced_end_to_end"] = {k: {"value": v, "unit": u, "mad": m, "samples": n}
                                       for k, (v, u, m, n) in traced_e2e.items()}
        record["per_layer"] = metrics
        rec.write(os.path.join(RUNS, f"{tag}.spans.jsonl"))
    with open(os.path.join(RUNS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    print("# machine " + json.dumps(facts))
    raw = record["end_to_end_raw"]
    for name, (v, u, m, n) in e2e.items():
        print(f"# {name} = {v} {u} (MAD {m}, n={n}; unscaled {raw[name]['value']})")
    for note in tally.notes:
        print(f"# {note}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}, default=float))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
