"""Tests of the benchmark itself: every output check can fail, and a run
prints every metric that BENCHMARK.json names, with its unit.

Run from the repository root:  python3 -m pytest -q shiftbench/tests
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
from shiftlab import analysis, bench
from shiftlab.sw_op import SwConfig, build_shift_plan, random_weights

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _cfg(layer_id=0, pad_mode="half"):
    return SwConfig(m=9, n=3, channels=8, ghost=0.25, edges=2, rep_branches=2,
                    pad_mode=pad_mode, order_policy="per_edge_shuffled",
                    seed=5, layer_id=layer_id)


def test_checksum_from_other_weights_is_a_failed_operation():
    cfg = _cfg()
    own, other = random_weights(cfg), random_weights(_cfg(layer_id=1))
    fused = bench.run_variant("fused", cfg, 16, 16, reps=1, warmup=0,
                              dtype="f32", weights=own).checksum
    tally = checks.Tally()
    assert checks.check_checksums(tally, "own", {fused},
                                  checks.naive_checksum(cfg, 16, "f32", own))
    assert not checks.check_checksums(tally, "other", {fused},
                                      checks.naive_checksum(cfg, 16, "f32", other))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_erf_against_perturbed_kernel_is_a_failed_operation():
    cfg = _cfg(pad_mode="exact")
    plan = build_shift_plan(cfg)
    w = random_weights(cfg)
    got = analysis.erf_map([analysis.SwLayer(cfg, w, plan)], probe_size=21)
    perturbed = random_weights(cfg)
    perturbed.rep[0][0, 0, 1, 1] += 1e-3
    tally = checks.Tally()
    assert checks.check_erf(tally, "own", got, checks.erf_reference(cfg, w, plan, 21)) \
        <= checks.ERF_TOL
    checks.check_erf(tally, "perturbed", got, checks.erf_reference(cfg, perturbed, plan, 21))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_failing_verify_row_is_a_failed_operation(tmp_path):
    path = tmp_path / "verify.csv"
    path.write_text("check,detail,max_diff,tol,status\n"
                    "exact-equivalence,200 configs,0,1e-10,pass\n"
                    "merge-rep,100 instances,1,1e-10,FAIL\n")
    tally = checks.Tally()
    assert not checks.check_verify_csv(tally, "verify", 0, str(path))
    assert not checks.check_verify_csv(tally, "verify", 1, str(path))
    assert (tally.attempted, tally.failed) == (2, 2)


def test_exception_is_a_failed_operation():
    tally = checks.Tally()
    assert tally.attempt("boom", lambda: 1 / 0) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_scaled_time_keeps_a_slower_program_slower():
    """Scaling takes out the machine's speed, not the program's: twice the
    work still reads about twice as long."""
    def work(n):
        acc = 0
        for i in range(n):
            acc += i * i
        return acc

    clock = run.Clock()
    one, two = [], []
    for _ in range(7):
        for n, out in ((100_000, one), (200_000, two)):
            _result, raw, scale = clock.timed(lambda: work(n))
            out.append(raw * scale)
    assert 1.6 < statistics.median(two) / statistics.median(one) < 2.5


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    spec = _spec()
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "tiny_dense",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_fails_without_the_program_sources(tmp_path):
    spec = _spec()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", spec["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
