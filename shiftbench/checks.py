"""Output checks of the benchmark.  They run untimed; each one counts as one
attempted operation, and a failed check as one failed operation."""

from __future__ import annotations

import csv
import sys
import traceback

import numpy as np

from shiftlab import analysis, bench, reparam

VARIANT_TOL = 1e-10     # bench.verify_variants in f64 against sw_forward
ERF_TOL = 1e-12         # adjoint ERF against the densified-kernel ERF


class Tally:
    """Attempted and failed operation counts, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAIL {what}: {detail}")
        return ok

    def attempt(self, what: str, fn):
        """Run one operation; an exception counts as a failure and gives None."""
        try:
            return fn()
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.record(what, False, f"{type(exc).__name__}: {exc}")
            return None


def naive_checksum(cfg, size: int, dtype: str, weights) -> str:
    """sha256 of the `naive` variant's output at the layer's real shape."""
    return bench.run_variant("naive", cfg, size, size, reps=1, warmup=0,
                             dtype=dtype, weights=weights).checksum


def check_checksums(tally: Tally, what: str, fused: set[str], naive: str) -> bool:
    """Every fused output of a layer is bitwise the naive output."""
    return tally.record(what, fused == {naive},
                        f"fused {sorted(fused)} vs naive {naive}")


def check_variants(tally: Tally, what: str, cfg, size: int) -> float:
    """Worst variant-vs-sw_forward diff on a grid of at most 12x12, f64."""
    hw = min(size, 12)
    worst = max(bench.verify_variants(cfg, trials=1, h=hw, w=hw, dtype="f64").values())
    tally.record(what, worst <= VARIANT_TOL, f"diff {worst:.3g} > {VARIANT_TOL:g}")
    return worst


def check_verify_csv(tally: Tally, what: str, rc: int, csv_path: str) -> bool:
    """`shiftlab verify` exited 0 and wrote a passing row for every check."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = [r["check"] for r in rows if r["status"] != "pass"]
    return tally.record(what, rc == 0 and bool(rows) and not bad,
                        f"exit {rc}, failing checks {bad}")


def erf_reference(cfg, weights, plan, probe: int) -> np.ndarray:
    """ERF of the operator's densified kernel run as one depthwise conv.

    Ghost channels bypass the operator, so they enter as a centred delta.
    """
    kernel = reparam.densify(weights, plan, cfg)
    kh, kw = kernel.shape[1:]
    full = np.zeros((cfg.channels, kh, kw))
    cg = cfg.ghost_channels
    full[cg:] = kernel
    full[:cg, kh // 2, kw // 2] = 1.0
    return analysis.erf_map([analysis.ConvLayer(full)], probe_size=probe)


def check_erf(tally: Tally, what: str, got: np.ndarray, ref: np.ndarray) -> float:
    diff = float(np.max(np.abs(got - ref))) if got.shape == ref.shape else float("inf")
    tally.record(what, diff <= ERF_TOL, f"diff {diff:.3g} > {ERF_TOL:g}")
    return diff
