import csv
import os

import pytest

import shiftlab as sl
from shiftlab.cli import gen_golden, main
from shiftlab.sw_op import save_sw_weights


def _read_csv(path):
    with open(path) as fh:
        rows = [r for r in fh.read().splitlines() if not r.startswith("#")]
    return list(csv.reader(rows))


def test_verify_sweep_passes(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path), "--trials", "15",
               "--fold-trials", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exact-equivalence" in out and "PASS" in out
    rows = _read_csv(tmp_path / "verify.csv")
    assert rows[0] == ["check", "detail", "max_diff", "tol", "status"]
    assert all(r[4] == "pass" for r in rows[1:])


def test_verify_f32_sweep(tmp_path):
    rc = main(["verify", "--out", str(tmp_path), "--trials", "10",
               "--fold-trials", "3", "--dtype", "f32"])
    assert rc == 0


def test_verify_tol_zero_is_honoured(tmp_path, capsys):
    # the f64 sweep differs from the oracle by about 1e-15, so tol 0 fails
    rc = main(["verify", "--out", str(tmp_path), "--trials", "3",
               "--fold-trials", "1", "--tol", "0"])
    assert rc == 1
    rows = _read_csv(tmp_path / "verify.csv")
    assert rows[1][0] == "exact-equivalence" and rows[1][4] == "FAIL"
    assert float(rows[1][2]) > 0 and float(rows[1][3]) == 0
    assert "[FAIL] exact-equivalence" in capsys.readouterr().out


def test_verify_degenerate_spec(tmp_path):
    cfg = sl.SwConfig(m=3, n=3, channels=4, pad_mode="exact")
    spec = tmp_path / "op.spec"
    sl.write_operator_spec(cfg, spec)
    rc = main(["verify", "--out", str(tmp_path / "o"), "--spec", str(spec)])
    assert rc == 0


def test_verify_corrupted_weights_fails_with_named_check(tmp_path, capsys):
    cfg = sl.SwConfig(m=9, n=3, channels=4, pad_mode="exact", seed=3)
    spec = tmp_path / "op.spec"
    sl.write_operator_spec(cfg, spec)
    wdir = tmp_path / "weights"
    save_sw_weights(sl.random_weights(cfg), wdir)
    blob = (wdir / "rep0.swt").read_bytes()
    (wdir / "rep0.swt").write_bytes(b"XXXX" + blob[4:])
    rc = main(["verify", "--out", str(tmp_path / "o"), "--spec", str(spec),
               "--weights", str(wdir)])
    assert rc != 0
    out = capsys.readouterr().out
    assert "load-weights" in out and "FAIL" in out


def test_verify_malformed_spec_fails_with_named_check(tmp_path, capsys):
    spec = tmp_path / "op.spec"
    spec.write_text("M=9\nN=3\nC=4\nM=51\n")
    rc = main(["verify", "--out", str(tmp_path / "o"), "--spec", str(spec)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "[FAIL] load-spec" in out and "duplicate key 'M'" in out
    rows = _read_csv(tmp_path / "o" / "verify.csv")
    assert [r[0] for r in rows[1:]] == ["load-spec"]
    assert rows[1][4] == "FAIL"


def test_verify_csv_quotes_a_detail_with_commas(tmp_path):
    cfg = sl.SwConfig(m=9, n=3, channels=4, pad_mode="exact", seed=3)
    spec = tmp_path / "op.spec"
    sl.write_operator_spec(cfg, spec)
    wdir = tmp_path / "weights"  # fan-out 5 where the spec wants 3
    save_sw_weights(sl.random_weights(sl.SwConfig(m=15, n=3, channels=4)), wdir)
    rc = main(["verify", "--out", str(tmp_path / "o"), "--spec", str(spec),
               "--weights", str(wdir)])
    assert rc == 1
    with open(tmp_path / "o" / "verify.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(list(r) == ["check", "detail", "max_diff", "tol", "status"]
               and None not in r.values() for r in rows)
    assert rows[-1]["check"] == "load-weights" and rows[-1]["status"] == "FAIL"
    assert "(4, 5, 3, 3) != (4, 3, 3, 3)" in rows[-1]["detail"]


def test_params_outputs_and_band(tmp_path, capsys):
    rc = main(["params", "--out", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "params.csv")
    total = [r for r in rows if r[0] == "total"][0]
    assert 27.9e6 <= int(total[2]) <= 34.1e6
    assert 4.5e9 <= int(total[3]) <= 5.5e9
    exps = _read_csv(tmp_path / "experiments.csv")
    assert exps[0] == ["experiment", "instrumented", "closed_form"]
    for row in exps[1:]:
        assert float(row[1]) == float(row[2])
    assert "[17, 17, 16, 5]" in capsys.readouterr().out


def test_flags_registered_only_where_read(tmp_path):
    for argv in (["params", "--dtype", "f32"], ["gen-golden", "--spec", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2, argv


def test_coverage_ordered_invariant_columns(tmp_path):
    rc = main(["coverage", "--out", str(tmp_path), "--policy", "ordered",
               "--edges", "1,8", "--n-seeds", "2"])
    assert rc == 0
    rows = _read_csv(tmp_path / "coverage.csv")[1:]
    e1 = [r for r in rows if r[0] == "1"]
    e8 = [r for r in rows if r[0] == "8"]
    assert [r[3:] for r in e1] == [r[3:] for r in e8]


def test_erf_strip_writes_artifacts(tmp_path):
    rc = main(["erf", "--out", str(tmp_path), "--strip", "21,3",
               "--probe", "31", "--pgm"])
    assert rc == 0
    t = sl.read_container(tmp_path / "erf_strip_21x3.swt")
    assert t.shape == (31, 31)
    assert float(t.data.max()) == 1.0
    assert (tmp_path / "erf_strip_21x3.pgm").exists()


def test_prune_sim_schedule(tmp_path):
    rc = main(["prune-sim", "--out", str(tmp_path), "--steps", "1000",
               "--gap", "3", "--save-masks"])
    assert rc == 0
    rows = _read_csv(tmp_path / "prune_trajectory.csv")[1:]
    synced = sorted({int(r[0]) for r in rows if r[4] == "1"})
    assert synced == [3, 6, 9]
    n = 16 * 17
    want = int(0.4 * n) / n
    for r in rows:
        assert abs(float(r[3]) - want) <= 1.0 / n
    assert (tmp_path / "masks" / "layer0.branch0.swt").exists()


def test_prune_sim_arch_stats(tmp_path):
    rc = main(["prune-sim", "--out", str(tmp_path), "--arch", "tiny",
               "--steps", "300", "--s", "0.4"])
    assert rc == 0
    layers = _read_csv(tmp_path / "sparsity_by_layer.csv")[1:]
    assert len(layers) == 27  # 3 + 3 + 18 + 3 shift layers
    by_index = _read_csv(tmp_path / "pruned_fraction_by_index.csv")[1:]
    per_stage_k = {}
    for stage, k, frac in by_index:
        per_stage_k.setdefault(int(stage), []).append(float(frac))
    assert [len(v) for v in per_stage_k.values()] == [17, 17, 16, 5]
    hist = _read_csv(tmp_path / "group_histogram.csv")[1:]
    sums = {}
    for stage, cnt, frac in hist:
        sums[int(stage)] = sums.get(int(stage), 0.0) + float(frac)
    assert all(abs(s - 1.0) < 1e-9 for s in sums.values())


def test_bench_csv(tmp_path):
    rc = main(["bench", "--out", str(tmp_path), "--variants", "naive,fused",
               "--reps", "1", "--h", "16", "--w", "16", "--dtype", "f64",
               "--check"])
    assert rc == 0
    rows = _read_csv(tmp_path / "bench.csv")
    assert rows[0][0] == "variant"
    assert {r[0] for r in rows[1:]} == {"naive", "fused"}
    assert rows[1][5] == rows[2][5]  # identical checksums


def test_bench_rejects_center_independent_spec(tmp_path, capsys):
    cfg = sl.SwConfig(m=9, n=3, channels=4, edges=2, center_independent=True,
                      seed=3)
    spec = tmp_path / "op.spec"
    sl.write_operator_spec(cfg, spec)
    assert "center_independent=1" in spec.read_text()
    rc = main(["bench", "--out", str(tmp_path / "o"), "--spec", str(spec),
               "--reps", "1", "--h", "10", "--w", "10"])
    assert rc != 0
    assert "center_independent" in capsys.readouterr().err


def test_gen_golden_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    gen_golden(str(a), seed=51)
    gen_golden(str(b), seed=51)
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_outputs_not_overwritten_without_force(tmp_path):
    assert main(["coverage", "--out", str(tmp_path), "--n-seeds", "1",
                 "--edges", "1"]) == 0
    assert main(["coverage", "--out", str(tmp_path), "--n-seeds", "1",
                 "--edges", "1"]) == 2
    assert main(["coverage", "--out", str(tmp_path), "--n-seeds", "1",
                 "--edges", "1", "--force"]) == 0
