import argparse
import csv
import dataclasses
import hashlib
import itertools
import os

import numpy as np
import pytest

import shiftlab as sl
import shiftlab.analysis as an
from shiftlab import bench, cli
from shiftlab.cli import gen_golden, main
from shiftlab.sparsity import init_sparsity
from shiftlab.sw_op import load_sw_weights, save_sw_weights


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


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# sha256 of every deterministic CSV the subcommands write, and of one spec
_CSV_PINS = {
    ("verify", "--trials", "15", "--fold-trials", "5"): {
        "verify.csv": "b14c22a951f80f7d02dd9c9f9e0bc1caf24a316467ab65715e3d1a4f8733b880"},
    # the sweep shiftbench times, and an f32 sweep
    ("verify", "--trials", "50", "--fold-trials", "25"): {
        "verify.csv": "95e7a59ed34b97e6bb383e5bf58a56d9c86070ba169a1915f1a1cc797785f9de"},
    ("verify", "--trials", "15", "--fold-trials", "5", "--dtype", "f32"): {
        "verify.csv": "4c1b5a77b0d962f370ae29335251d0b4c951f8448c552379192baaee64c3a8db"},
    ("coverage", "--edges", "1,4", "--n-seeds", "3"): {
        "coverage.csv": "8ce2c65625224c60f512990415c3e0e0580888840f95233962b364913ee7405b"},
    ("erf", "--strip", "21,3", "--probe", "31"): {
        "erf_strip_21x3.csv": "8627228eac2a1ec17763f2ae3de60bb6fa7390417ba8f7f9574d3b589bdd1dfa"},
    ("params",): {
        "params.csv": "379ea89a9579895f09530b70f7a39ddd6e1e5b29cc89af895977139ff10f20e9",
        "experiments.csv": "1614890c75f85ac8389d96fdbb04ad07f22c024831527da6c49247cb28ffeca5"},
    ("prune-sim", "--arch", "tiny", "--steps", "300"): {
        "prune_trajectory.csv": "c135e3a8321f090f1a4704b0748f8c5b158d28950805e94e7fe1a54931152538",
        "sparsity_by_layer.csv": "84667e25a92aeac7e2ef7e02c6d0f469e89c53add4b7cf631e32e43304fd4c3e",
        "pruned_fraction_by_index.csv":
            "7401429114dd8c003e0e883a15db482dcafedb5e5bdab602b7b4bbd7e3c663cd",
        "group_histogram.csv": "baacc5c7913853dde57d0a0e2a61f0c38406bdbf1f918feb4208df3c4a1805e8"},
}


def test_cli_csv_and_spec_bytes_pinned(tmp_path):
    for i, (argv, pins) in enumerate(_CSV_PINS.items()):
        out = tmp_path / str(i)
        assert main(list(argv) + ["--out", str(out)]) == 0, argv
        for name, digest in pins.items():
            assert _sha256(out / name) == digest, (argv, name)
    cfg = sl.SwConfig(m=13, n=5, channels=6, ghost=0.3, edges=2, rep_branches=2,
                      pad_mode="full", order_policy="disordered", seed=7,
                      branch_types=("W", "center"), center_independent=True,
                      layer_id=4)
    sl.write_operator_spec(cfg, tmp_path / "op.spec")
    assert _sha256(tmp_path / "op.spec") == (
        "209db86490a238769535a9726204e8633ed452d64f6b9ca54dc6ab32705fd6f0")


def test_verify_f32_sweep(tmp_path):
    rc = main(["verify", "--out", str(tmp_path), "--trials", "10",
               "--fold-trials", "3", "--dtype", "f32"])
    assert rc == 0


def test_verify_interior_band_reports_its_worst_diff(tmp_path, monkeypatch):
    real = cli.sw_forward

    def nudged(x, w, cfg, plan):
        y = real(x, w, cfg, plan)
        return sl.Tensor(y.data + 1e-13) if cfg.pad_mode == "half" else y

    monkeypatch.setattr(cli, "sw_forward", nudged)
    rc = main(["verify", "--out", str(tmp_path), "--trials", "5",
               "--fold-trials", "1"])
    assert rc == 0
    band = [r for r in _read_csv(tmp_path / "verify.csv") if r[0] == "interior-band"]
    assert len(band) == 1 and band[0][4] == "pass"
    assert 0 < float(band[0][2]) <= 1e-12


def test_verify_tol_zero_is_honoured(tmp_path, capsys):
    # the f64 sweep differs from the oracle by about 1e-15, so tol 0 fails
    rc = main(["verify", "--out", str(tmp_path), "--trials", "3",
               "--fold-trials", "1", "--tol", "0"])
    assert rc == 1
    rows = _read_csv(tmp_path / "verify.csv")
    assert rows[1][0] == "exact-equivalence" and rows[1][4] == "FAIL"
    assert float(rows[1][2]) > 0 and float(rows[1][3]) == 0
    assert "[FAIL] exact-equivalence" in capsys.readouterr().out


def test_verify_tol_covers_every_sweep_row(tmp_path):
    # the densify, fold and merge suites differ by 1e-15 to 4e-15 in f64
    rc = main(["verify", "--out", str(tmp_path), "--trials", "3",
               "--fold-trials", "1", "--tol", "1e-15"])
    assert rc == 1
    rows = {r[0]: r for r in _read_csv(tmp_path / "verify.csv")[1:]}
    assert all(float(r[3]) == 1e-15 for r in rows.values())
    for check in ("densify-consistency", "fold-norm", "merge-rep"):
        assert rows[check][4] == "FAIL", rows[check]


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


def test_verify_spec_refuses_extra_rep_branches(tmp_path):
    # weights saved with b = 2 against a b = 1 spec: rep1/mask1 would be
    # dropped without a word
    cfg = sl.SwConfig(m=9, n=3, channels=4, seed=3)
    two = sl.random_weights(sl.SwConfig(**{**cfg.__dict__, "rep_branches": 2}))
    rc = main(["verify", "--out", str(tmp_path / "o")]
              + _spec_with_weights(tmp_path, cfg, two))
    assert rc == 1
    rows = _read_csv(tmp_path / "o" / "verify.csv")[1:]
    assert [r[0] for r in rows] == ["load-spec", "load-weights"]
    assert rows[1][4] == "FAIL"
    assert f"{tmp_path / 'weights' / 'mask1.swt'}: Rep branch 1" in rows[1][1]


def test_verify_malformed_spec_fails_with_named_check(tmp_path, capsys):
    for i, (line, message) in enumerate((("M=51", "duplicate key 'M'"),
                                         ("center_independent=2", "must be 0 or 1"))):
        spec = tmp_path / f"op{i}.spec"
        spec.write_text(f"M=9\nN=3\nC=4\n{line}\n")
        rc = main(["verify", "--out", str(tmp_path / f"o{i}"), "--spec", str(spec)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[FAIL] load-spec" in out and message in out
        rows = _read_csv(tmp_path / f"o{i}" / "verify.csv")[1:]
        assert [(r[0], r[4]) for r in rows] == [("load-spec", "FAIL")]


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


def _spec_with_weights(tmp_path, cfg, wts):
    spec, wdir = tmp_path / "op.spec", tmp_path / "weights"
    sl.write_operator_spec(cfg, spec)
    save_sw_weights(wts, wdir)
    return ["--spec", str(spec), "--weights", str(wdir)]


def test_verify_spec_with_identity_norm_runs_densify_consistency(tmp_path):
    # an identity norm file is no norm at all: the densify row still runs
    cfg = sl.SwConfig(m=9, n=3, channels=4, ghost=0.25, seed=3)
    wts = sl.random_weights(cfg)
    wts.norms["H"] = sl.AffineNorm.identity(cfg.sw_channels)
    rc = main(["verify", "--out", str(tmp_path / "o")]
              + _spec_with_weights(tmp_path, cfg, wts))
    assert rc == 0
    rows = _read_csv(tmp_path / "o" / "verify.csv")[1:]
    assert [r[0] for r in rows] == ["load-spec", "load-weights", "plan-bijective",
                                    "densify-consistency", "ghost-passthrough"]
    assert all(r[4] == "pass" for r in rows)


def test_verify_spec_plan_with_a_repeated_displacement_fails_plan_bijective(
        tmp_path, capsys, monkeypatch):
    # a W edge that reads one displacement twice and skips another: every
    # entry is one of the config's displacements, so the plan passes
    # ShiftPlan.validate, but the edge's reads are not a permutation
    cfg = sl.SwConfig(m=9, n=3, channels=4, edges=2, seed=3,
                      order_policy="per_edge_shuffled")
    plan = sl.build_shift_plan(cfg)
    disp_w = plan.disp_w.copy()
    disp_w[1, 2, 0] = disp_w[1, 2, 1]
    odd = dataclasses.replace(plan, disp_w=disp_w)
    odd.validate(cfg)
    monkeypatch.setattr(cli, "build_shift_plan", lambda _cfg: odd)
    spec = tmp_path / "op.spec"
    sl.write_operator_spec(cfg, spec)
    rc = main(["verify", "--out", str(tmp_path / "o"), "--spec", str(spec)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "[FAIL] plan-bijective" in captured.out and "Traceback" not in captured.err
    rows = _read_csv(tmp_path / "o" / "verify.csv")[1:]
    assert [r[0] for r in rows] == ["load-spec", "load-weights", "plan-bijective"]
    assert rows[2][1:] == ["4x4 displacement rows", "1", "0", "FAIL"]


def test_verify_spec_with_misshapen_norm_fails_load_weights(tmp_path, capsys):
    cfg = sl.SwConfig(m=9, n=3, channels=4, seed=3)
    wts = sl.random_weights(cfg)
    wts.norms["W"] = sl.AffineNorm.identity(3)
    rc = main(["verify", "--out", str(tmp_path / "o")]
              + _spec_with_weights(tmp_path, cfg, wts))
    assert rc == 1
    assert "error:" not in capsys.readouterr().err
    rows = _read_csv(tmp_path / "o" / "verify.csv")[1:]
    assert [r[0] for r in rows] == ["load-spec", "load-weights"]
    assert rows[1][4] == "FAIL"
    assert "norm 'W' has 3 channels, config wants 4" in rows[1][1]


def test_verify_names_the_misshapen_bank_file(tmp_path):
    cfg = sl.SwConfig(m=51, n=3, channels=4, seed=3)
    args = _spec_with_weights(tmp_path, cfg, sl.random_weights(cfg))
    sl.write_container(sl.from_array(np.zeros((4, 17, 3, 2))), tmp_path / "weights" / "rep0.swt")
    rc = main(["verify", "--out", str(tmp_path / "o")] + args)
    assert rc == 1
    rows = _read_csv(tmp_path / "o" / "verify.csv")[1:]
    assert [r[0] for r in rows] == ["load-spec", "load-weights"]
    assert rows[1][4] == "FAIL"
    assert str(tmp_path / "weights" / "rep0.swt") + ": bank shape" in rows[1][1]


@pytest.mark.parametrize("part", ("rep0", "center", "bn_H"))
def test_non_finite_weights_are_refused_by_name(tmp_path, capsys, part):
    """One NaN tap (or norm row entry) fails verify's load-weights row and
    makes erf exit 2, naming the file, instead of a nan ERF or a densify
    mismatch."""
    cfg = sl.SwConfig(m=9, n=3, channels=4, pad_mode="exact", seed=3,
                      center_independent=True)
    wts = sl.random_weights(cfg)
    wts.norms["H"] = sl.AffineNorm.identity(cfg.sw_channels)
    args = _spec_with_weights(tmp_path, cfg, wts)
    bad = sl.read_container(tmp_path / "weights" / f"{part}.swt").data.copy()
    bad.reshape(-1)[1] = np.nan
    sl.write_container(sl.from_array(bad), tmp_path / "weights" / f"{part}.swt")
    path = str(tmp_path / "weights" / f"{part}.swt")

    assert main(["verify", "--out", str(tmp_path / "v")] + args) == 1
    rows = _read_csv(tmp_path / "v" / "verify.csv")[1:]
    assert [r[0] for r in rows] == ["load-spec", "load-weights"]
    assert rows[1][4] == "FAIL" and f"{path}: non-finite value" in rows[1][1]

    capsys.readouterr()
    assert main(["erf", "--out", str(tmp_path / "e"), "--probe", "31"] + args) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: non-finite value")
    assert not (tmp_path / "e" / "erf_sw_9x3.csv").exists()


@pytest.mark.parametrize("argv,flag", [
    (["erf", "--strip", "3"], "--strip"),
    (["erf", "--strip", "21,3,3"], "--strip"),
    (["erf", "--strip", "a,b"], "--strip"),
    (["coverage", "--edges", "x"], "--edges"),
    (["coverage", "--edges", "1,,2"], "--edges"),
])
def test_bad_comma_list_is_a_usage_error_naming_its_flag(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("cmd", (["erf", "--probe", "31"], ["bench", "--reps", "1"],
                                 ["verify"]), ids=("erf", "bench", "verify"))
def test_non_utf8_spec_is_named(tmp_path, capsys, cmd):
    spec = tmp_path / "op.spec"
    spec.write_bytes(b"\xffM=9\nN=3\nC=4\n")
    rc = main([cmd[0], "--out", str(tmp_path / "o"), "--spec", str(spec)] + cmd[1:])
    assert rc != 0
    if cmd[0] == "verify":
        rows = _read_csv(tmp_path / "o" / "verify.csv")[1:]
        assert rows[0][0] == "load-spec" and rows[0][4] == "FAIL"
        assert f"{spec}: not UTF-8 text" in rows[0][1]
    else:
        assert f"error: {spec}: not UTF-8 text" in capsys.readouterr().err


def test_center_bank_weights_round_trip_and_verify(tmp_path, capsys):
    cfg = sl.SwConfig(m=9, n=3, channels=4, edges=2, rep_branches=2,
                      center_independent=True, pad_mode="exact", seed=3)
    wts = sl.random_weights(cfg)
    wts.masks[1][2, :] = False
    wdir = tmp_path / "weights"
    save_sw_weights(wts, wdir)
    assert (wdir / "center.swt").exists()
    back = load_sw_weights(wdir, cfg)
    for a, b in zip(wts.rep + wts.masks + [wts.center],
                    back.rep + back.masks + [back.center]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    spec = tmp_path / "op.spec"
    sl.write_operator_spec(cfg, spec)
    rc = main(["verify", "--out", str(tmp_path / "o"), "--spec", str(spec),
               "--weights", str(wdir)])
    assert rc == 0
    assert "verify: 5/5 checks passed" in capsys.readouterr().out


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


def test_coverage_spec_matches_explicit_extents(tmp_path):
    spec = tmp_path / "op.spec"
    sl.write_operator_spec(sl.SwConfig(m=21, n=3, channels=4), spec)
    common = ["coverage", "--edges", "1,4", "--n-seeds", "3"]
    assert main(common + ["--out", str(tmp_path / "a"), "--spec", str(spec)]) == 0
    assert main(common + ["--out", str(tmp_path / "b"), "--m", "21", "--n", "3"]) == 0
    assert ((tmp_path / "a" / "coverage.csv").read_bytes()
            == (tmp_path / "b" / "coverage.csv").read_bytes())


def test_erf_strip_writes_artifacts(tmp_path):
    rc = main(["erf", "--out", str(tmp_path), "--strip", "21,3",
               "--probe", "31", "--pgm"])
    assert rc == 0
    t = sl.read_container(tmp_path / "erf_strip_21x3.swt")
    assert t.shape == (31, 31)
    assert float(t.data.max()) == 1.0
    assert (tmp_path / "erf_strip_21x3.pgm").exists()


def _stage0_erf(tmp_path, s, probe):
    """`erf --spec` of the stage-0 sw_tiny operator (half mode, seed 11) with
    subset masks at sparsity s; returns its config and weights."""
    cfg = sl.SwConfig(m=51, n=3, channels=80, ghost=0.23, edges=4, rep_branches=2,
                      order_policy="per_edge_shuffled", seed=11)
    wts = sl.random_weights(cfg)
    wts.masks = init_sparsity("subset", {"op": wts.rep}, s, seed=11)["op"]
    sl.write_operator_spec(cfg, tmp_path / "op.spec")
    save_sw_weights(wts, tmp_path / "op")
    assert main(["erf", "--out", str(tmp_path / "o"), "--spec", str(tmp_path / "op.spec"),
                 "--weights", str(tmp_path / "op"), "--probe", str(probe)]) == 0
    return cfg, wts


@pytest.mark.parametrize("s", (0.0, 0.4))
def test_erf_spec_keeps_exact_zeros_and_support(tmp_path, s):
    """The stage-0 sw_tiny operator's ERF against the tap-loop ERF of its
    densified kernel (ghosts as a centred delta): rounding in the adjoint
    must not turn the kernel's structural zeros into support."""
    cfg, wts = _stage0_erf(tmp_path, s, 63)
    got = sl.read_container(tmp_path / "o" / "erf_sw_51x3.swt").data

    ecfg = sl.SwConfig(**{**cfg.__dict__, "pad_mode": "exact"})
    kernel = sl.densify(wts, sl.build_shift_plan(ecfg), ecfg)
    kh, kw = kernel.shape[1:]
    full = np.zeros((cfg.channels, kh, kw))
    full[cfg.ghost_channels:] = kernel
    full[:cfg.ghost_channels, kh // 2, kw // 2] = 1.0
    ref = an.erf_map([an.ConvLayer(full)], probe_size=63)
    assert np.max(np.abs(got - ref)) <= 1e-12
    assert np.all(got[ref == 0] == 0)
    rows = _read_csv(tmp_path / "o" / "erf_sw_51x3.csv")
    assert int(rows[1][2]) == np.count_nonzero(ref)
    notes = (tmp_path / "o" / "erf_sw_51x3.csv").read_text().splitlines()[:2]
    assert notes[1] == ("# the spec's pad_mode is half; this is the ERF of the"
                        " exact-mode operator (pad_mode=exact) with the same weights")


# sha256 of erf_sw_51x3.swt and .csv of `_stage0_erf` by (s, probe), taken
# when the map still ran the Toeplitz adjoint: probe 15 crops the 51-tall
# kernel, probe 63 holds all of it
_ERF_SPEC_PINS = {
    (0.0, 15): ("9f107aed7cd37522ce0db3edb760d0664814fbdabaa381efc611fd8bec2cbe07",
                "bc1c895ad3c47094f8c880062e428a9aca19d8d2cc52661dd83b28b2f5843022"),
    (0.0, 63): ("fa5640d6e24656faa2cc0cb6726d2f9867ad20e85d630d1444bad0950764cce2",
                "1e1619b41810d71a0d759bfaa2192546fa794747b594f86abcb1b529b0b3f903"),
    (0.4, 15): ("4594781b1a3d6c15dd2e49f65a49b33b63fa508b7d2c62d1c8611cef4b68632d",
                "51cd91afeb4f3d624f3c31f4ed3e40001261d2aeb2991030ccd87fbc6ecb4d4f"),
    (0.4, 63): ("5ebbb3ba5f6ca1f6a7822bc430bc4cb2d9c236803ae69088b5b4a44c42280dc3",
                "e8dfb4cbc50a1625ba26fd5eb56d24c78c6bd9988f7834beba5c936c594f42e2"),
}


@pytest.mark.parametrize("s,probe", sorted(_ERF_SPEC_PINS))
def test_erf_spec_bytes_pinned(tmp_path, s, probe):
    _stage0_erf(tmp_path, s, probe)
    got = tuple(_sha256(tmp_path / "o" / f"erf_sw_51x3.{ext}") for ext in ("swt", "csv"))
    assert got == _ERF_SPEC_PINS[s, probe]


@pytest.mark.parametrize("probe", ("0", "2", "-3"))
def test_erf_probe_must_be_odd_and_positive(tmp_path, capsys, probe):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["erf", "--out", str(out), "--probe", probe])
    assert exc.value.code == 2
    assert "argument --probe: want an odd positive integer" in capsys.readouterr().err
    assert not out.exists()


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


def test_prune_sim_rejects_negative_jitter(tmp_path, capsys):
    rc = main(["prune-sim", "--out", str(tmp_path / "o"), "--jitter", "-0.05"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --jitter must be >= 0") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_prune_sim_save_masks_refuses_to_clobber(tmp_path, capsys):
    argv = ["prune-sim", "--out", str(tmp_path), "--steps", "100", "--save-masks"]
    assert main(argv) == 0
    (tmp_path / "prune_trajectory.csv").unlink()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "layer0.branch0.swt exists; pass force to overwrite" in err
    assert main(argv + ["--force"]) == 0


def test_prune_sim_spec_matches_explicit_layer_shape(tmp_path):
    cfg = sl.SwConfig(m=15, n=3, channels=10, ghost=0.2, rep_branches=3)
    spec = tmp_path / "op.spec"
    sl.write_operator_spec(cfg, spec)
    common = ["prune-sim", "--steps", "300", "--layers", "2"]
    assert main(common + ["--out", str(tmp_path / "a"), "--spec", str(spec)]) == 0
    assert main(common + ["--out", str(tmp_path / "b"), "--g", "5",
                          "--branches", "3", "--channels", "8"]) == 0
    assert ((tmp_path / "a" / "prune_trajectory.csv").read_bytes()
            == (tmp_path / "b" / "prune_trajectory.csv").read_bytes())


def test_prune_sim_grow_streams_are_deterministic_and_distinct(tmp_path):
    def run(stream, tag):
        out = tmp_path / f"{stream}{tag}"
        assert main(["prune-sim", "--out", str(out), "--steps", "300", "--layers", "2",
                     "--stream", stream, "--save-masks"]) == 0
        masks = b"".join((out / "masks" / name).read_bytes()
                         for name in sorted(os.listdir(out / "masks")))
        return (out / "prune_trajectory.csv").read_bytes(), masks

    runs = {stream: run(stream, "") for stream in ("uniform", "persistent", "adversarial")}
    for stream in ("persistent", "adversarial"):
        assert run(stream, "-again") == runs[stream]
    # the trajectory records sparsity fractions only, which every stream keeps
    assert len({traj for traj, _ in runs.values()}) == 1
    assert len({masks for _, masks in runs.values()}) == 3


def _prune_sim_choices(flag):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices["prune-sim"]._actions
                if flag in a.option_strings)


def test_every_policy_and_init_choice_selects_different_masks():
    # an option value that runs like another one is an alias nobody asked for
    def final_masks(policy="shared", init="per_branch"):
        state, _ = cli.run_prune_sim(200, 100, 2, 0.4, policy, "uniform", init=init)
        return np.concatenate([m.reshape(-1) for name in sorted(state.masks)
                               for m in state.masks[name]])

    for group in ([final_masks(policy=p) for p in _prune_sim_choices("--policy")],
                  [final_masks(init=i) for i in _prune_sim_choices("--init")]):
        assert len(group) >= 2
        for a, b in itertools.combinations(group, 2):
            assert not np.array_equal(a, b)


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
    assert rows[0][-1] == "reads_per_pixel"
    # a gathered window counts whole, also the part of a live read that
    # falls outside the grid, so reads/px is at least moves/px
    assert all(float(r[-1]) >= float(r[3]) for r in rows[1:])


def test_bench_csv_names_the_config_it_ran(tmp_path, capsys):
    """bench.csv's config_digest column is measure's digest for the same
    flags, on every row and every bench[...] line; --dtype f32 writes
    another."""
    cfg = sl.SwConfig(**bench.DESK_CONFIG, seed=5)
    digests = []
    for dtype in ("f64", "f32"):
        out = tmp_path / dtype
        rc = main(["bench", "--out", str(out), "--variants", "naive,fused", "--reps", "1",
                   "--h", "12", "--w", "12", "--seed", "5", "--dtype", dtype])
        assert rc == 0
        rows = _read_csv(out / "bench.csv")
        col = rows[0].index("config_digest")
        assert col == rows[0].index("checksum") + 1
        want = bench.measure(cfg, 12, 12, ("fused",), reps=1, warmup=0,
                             dtype=dtype)[0].config_digest
        assert [r[col] for r in rows[1:]] == [want, want]
        assert capsys.readouterr().out.count(f"config {want}") == 2
        digests.append(want)
    assert digests[0] != digests[1]


def test_bench_interleaves_variant_reps(tmp_path, monkeypatch):
    calls, run = [], bench._Runner.run
    monkeypatch.setattr(bench._Runner, "run",
                        lambda s, v, *a, **k: calls.append(v) or run(s, v, *a, **k))
    rc = main(["bench", "--out", str(tmp_path), "--reps", "2", "--h", "12",
               "--w", "12", "--variants", "naive,fused"])
    assert rc == 0
    assert calls == ["naive", "fused"] * 5    # 3 warmup + 2 measured rounds


@pytest.mark.parametrize("dtype", ("f64", "f32"))
def test_bench_check_verifies_the_dtype_it_timed(tmp_path, monkeypatch, capsys, dtype):
    """--check always verifies in f64 and, after an f32 run, in f32 too, each
    row against its own tolerance."""
    seen, verify = [], bench.verify_variants
    monkeypatch.setattr(bench, "verify_variants",
                        lambda *a, **k: seen.append(k["dtype"]) or verify(*a, **k))
    rc = main(["bench", "--out", str(tmp_path), "--reps", "1", "--h", "12", "--w", "12",
               "--dtype", dtype, "--check"])
    assert rc == 0
    assert seen == (["f64", "f32"] if dtype == "f32" else ["f64"])
    out = capsys.readouterr().out
    assert "(f64, tol 1e-10)" in out
    assert ("(f32, tol 1e-05)" in out) == (dtype == "f32")


def test_bench_has_no_relaxed_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--out", str(tmp_path), "--relaxed"])
    assert exc.value.code == 2
    assert "--relaxed" in capsys.readouterr().err


def test_bench_check_fails_on_any_row_over_its_tolerance(tmp_path, monkeypatch):
    """An f32 diff over 1e-5 fails the check though the f64 row passes."""
    monkeypatch.setattr(bench, "verify_variants",
                        lambda *a, **k: {"naive": 0.0, "fused": 2e-5 * (k["dtype"] == "f32")})
    argv = ["bench", "--out", str(tmp_path), "--reps", "1", "--h", "12", "--w", "12",
            "--check", "--force"]
    assert main(argv) == 0
    assert main(argv + ["--dtype", "f32"]) == 1
    assert main(argv + ["--dtype", "f32", "--tol", "1e-4"]) == 0


@pytest.mark.parametrize("variants", ("fused,fused", "naive,fused,naive", "fused,warp"))
def test_bench_rejects_repeated_or_unknown_variant(tmp_path, monkeypatch, capsys, variants):
    def no_runner(*a, **k):
        raise AssertionError("runner built before the variants were checked")

    monkeypatch.setattr(bench, "_Runner", no_runner)
    rc = main(["bench", "--out", str(tmp_path), "--variants", variants, "--reps", "3"])
    assert rc == 2
    assert "variants" in capsys.readouterr().err
    assert not (tmp_path / "bench.csv").exists()


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


def test_spec_that_is_a_directory_is_a_one_line_error(tmp_path, capsys):
    rc = main(["coverage", "--out", str(tmp_path / "o"), "--spec", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--trials", "-3"], "--trials"),
    (["verify", "--fold-trials", "0"], "--fold-trials"),
    (["verify", "--w", "0"], "--w"),
    (["coverage", "--h", "0"], "--h"),
    (["coverage", "--w", "-1"], "--w"),
    (["coverage", "--n-seeds", "0"], "--n-seeds"),
    (["bench", "--h", "0"], "--h"),
    (["bench", "--w", "0"], "--w"),
    (["prune-sim", "--steps", "0"], "--steps"),
    (["prune-sim", "--steps", "-5"], "--steps"),
    (["prune-sim", "--layers", "0"], "--layers"),
    (["prune-sim", "--branches", "0"], "--branches"),
    (["prune-sim", "--channels", "0"], "--channels"),
    (["prune-sim", "--g", "0"], "--g"),
    (["prune-sim", "--u", "0"], "--u"),
    (["prune-sim", "--gap", "0"], "--gap"),
    (["params", "--input-size", "0"], "--input-size"),
    (["params", "--input-size", "-224"], "--input-size"),
    (["bench", "--reps", "0"], "--reps"),
    (["coverage", "--channels", "0"], "--channels"),
])
def test_count_and_extent_below_one_is_a_one_line_error(tmp_path, capsys, argv, flag):
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be >= 1") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["prune-sim", "--s", "1.5"],
    ["params", "--ghost", "1.5"],
    ["coverage", "--edges", "0"],
    ["coverage", "--n", "2"],
    ["coverage", "--m", "2"],
    ["erf", "--strip", "4,3"],
    ["bench", "--spec", "/nonexistent"],
    ["params", "--input-size", "31"],
])
def test_rejected_input_creates_no_out_dir(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("ghost", ["1.5", "1", "-0.5"])
def test_params_rejects_ghost_outside_unit_interval(tmp_path, capsys, ghost):
    rc = main(["params", "--out", str(tmp_path), "--ghost", ghost])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ghost ratio") and err.count("\n") == 1
    assert not (tmp_path / "params.csv").exists()
