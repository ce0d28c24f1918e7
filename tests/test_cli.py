import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import keldrot
from keldrot import serialization as ser
from keldrot.cli import main
from keldrot.grids import OrderingParam, Signal, TimeGrid, TwoPointKernel
from keldrot.oscillator import GaussianState, OscillatorSpec, ctl_cumulants
from keldrot.rotation import rotate, synthetic_cumulants, unrotate

from common import pointwise_response, project_pm


@pytest.fixture
def outdir(tmp_path):
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestProject:
    def test_round_trip_against_library(self, outdir):
        grid = TimeGrid(32, 0.2)
        rng = np.random.default_rng(0)
        sig = Signal(grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))
        inp = outdir / "sig.csv"
        inp.write_text(ser.signal_to_csv(sig))
        out = outdir / "proj"
        assert run(["project", "--in", inp, "--sign", "+", "--out", out]) == 0
        got = ser.signal_from_csv((outdir / "proj.csv").read_text())
        expect = project_pm(sig, "+")
        assert np.abs(got.values - expect.values).max() < 1e-15

    @pytest.mark.parametrize("word", ["nan", "inf"])
    def test_non_finite_signal_row_fails(self, word, outdir, capsys):
        grid = TimeGrid(8, 0.5)
        lines = ser.signal_to_csv(Signal(grid, np.arange(8.0))).splitlines(keepends=True)
        lines[6] = lines[6].replace(lines[6].split(",")[1], word, 1)
        inp = outdir / "sig.csv"
        inp.write_text("".join(lines))
        assert run(["project", "--in", inp, "--sign", "+", "--out", outdir / "p"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert f"signal CSV column re must be finite, got {word}" in err["detail"]
        assert list(outdir.iterdir()) == [inp]

    def test_manifest_written_with_hash(self, outdir):
        grid = TimeGrid(8, 0.5)
        inp = outdir / "sig.csv"
        inp.write_text(ser.signal_to_csv(Signal.zero(grid)))
        out = outdir / "p"
        run(["project", "--in", inp, "--sign", "-", "--out", out])
        manifest = json.loads((outdir / "p.manifest.json").read_text())
        assert manifest["verb"] == "project"
        assert len(manifest["config_hash"]) == 64
        assert str(outdir / "p.csv") in manifest["outputs"]
        assert "numpy" in manifest["versions"]


class TestRotationFlow:
    def test_rotate_then_unrotate_files(self, outdir):
        grid = TimeGrid(24, 0.2)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(3))
        ctl = ctl_cumulants(spec, GaussianState(nbar=0.4), grid, periodic=False)
        bundle = outdir / "ctl.json"
        bundle.write_text(ser.cumulants_to_json(ctl))
        rot_out = outdir / "rot"
        assert run(["rotate", "--in", bundle, "--s", 0.5, "--out", rot_out,
                    "--check-consistency"]) == 0
        back_out = outdir / "back"
        assert run(["unrotate", "--in", str(rot_out) + ".json",
                    "--out", back_out]) == 0
        back = ser.cumulants_from_json((outdir / "back.json").read_text())
        assert np.abs(back.K_F.values - ctl.K_F.values).max() < 1e-10

    def test_consistency_check_flag(self, outdir, capsys):
        grid = TimeGrid(16, 0.2)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(2))
        ctl = ctl_cumulants(spec, GaussianState(nbar=0.4), grid, periodic=False)
        # the same symmetric shift of K_W and K_rev breaks the consistency
        # identity but keeps the response K_rev - K_W retarded
        obj = json.loads(ser.cumulants_to_json(ctl))
        for key in ("K_W", "K_rev"):
            for i in range(grid.n):
                obj[key]["re"][i][i] += 1e-3
        bundle = outdir / "bad.json"
        bundle.write_text(json.dumps(obj))
        args = ["rotate", "--in", bundle, "--s", 0.5, "--out", outdir / "rot"]
        # the check always runs: --check-consistency is accepted and changes nothing
        for flag in ([], ["--check-consistency"]):
            assert run(args + flag) == 1
            err = json.loads(capsys.readouterr().err)
            assert "consistency identity" in err["detail"]
        assert list(outdir.iterdir()) == [bundle]
        for flag in (["--no-check-consistency"], ["--consistency-tol", 1.0]):
            with pytest.raises(SystemExit) as exc:
                run(args + flag)
            assert exc.value.code == 2

    def test_manifests_report_the_measured_residual(self, outdir):
        grid = TimeGrid(24, 0.2)
        ctl = synthetic_cumulants(grid, np.random.default_rng(3))
        bundle = outdir / "ctl.json"
        bundle.write_text(ser.cumulants_to_json(ctl))
        assert run(["rotate", "--in", bundle, "--s", 0.3, "--out", outdir / "rot"]) == 0
        assert run(["unrotate", "--in", outdir / "rot.json", "--out", outdir / "back"]) == 0
        read = ser.cumulants_from_json(bundle.read_text())
        back = unrotate(ser.rotated_from_json((outdir / "rot.json").read_text()))
        for name, ctl_made in (("rot", read), ("back", back)):
            manifest = json.loads((outdir / f"{name}.manifest.json").read_text())
            assert manifest["summary"]["consistency_residual"] == ctl_made.residual < 1e-15

    @pytest.mark.parametrize("verb,member,value,message", [
        (["rotate", "--s", 0.5], None, [1, 2], "cumulant bundle must be a JSON object, got an array"),
        (["rotate", "--s", 0.5], "mean", [1], "mean must be a JSON object, got an array"),
        (["unrotate"], "N_s", "n=4", "N_s must be a JSON object, got a string"),
        (["reorder", "--s", 0.1], "D_R.grid", "n=4", "D_R.grid must be a JSON object, got a string"),
    ])
    def test_non_object_named(self, verb, member, value, message, outdir, capsys):
        grid = TimeGrid(16, 0.2)
        ctl = synthetic_cumulants(grid, np.random.default_rng(4))
        obj = json.loads(ser.cumulants_to_json(ctl) if verb[0] == "rotate"
                         else ser.rotated_to_json(rotate(ctl, OrderingParam(0.5))))
        if member is None:
            obj = value
        else:
            *parents, key = member.split(".")
            target = obj
            for parent in parents:
                target = target[parent]
            target[key] = value
        inp = outdir / "in.json"
        inp.write_text(json.dumps(obj))
        assert run(verb + ["--in", inp, "--out", outdir / "out"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "computation", "detail": message}
        assert list(outdir.iterdir()) == [inp]

    def test_non_finite_bundle_entry_fails(self, outdir, capsys):
        grid = TimeGrid(16, 0.2)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(2))
        ctl = ctl_cumulants(spec, GaussianState(nbar=0.4), grid, periodic=False)
        obj = json.loads(ser.cumulants_to_json(ctl))
        obj["K_F"]["re"][3][7] = float("nan")
        bundle = outdir / "nan.json"
        bundle.write_text(json.dumps(obj))  # NaN as Python's json writes it
        code = run(["rotate", "--in", bundle, "--s", 0.5, "--out", outdir / "rot",
                    "--check-consistency"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "K_F.re must be finite, got nan" in err["detail"]
        assert list(outdir.iterdir()) == [bundle]

    def test_missing_grid_key_named(self, outdir, capsys):
        grid = TimeGrid(8, 0.2)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(2))
        obj = json.loads(ser.cumulants_to_json(
            ctl_cumulants(spec, GaussianState(nbar=0.4), grid, periodic=False)))
        del obj["K_W"]["grid"]["dt"]
        bundle = outdir / "ctl.json"
        bundle.write_text(json.dumps(obj))
        assert run(["rotate", "--in", bundle, "--s", 0.5, "--out", outdir / "rot"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["detail"] == "K_W.grid.dt is missing"
        assert list(outdir.iterdir()) == [bundle]

    @pytest.mark.parametrize("hbar_c", [float("nan"), 0.0, float("inf"), -1.0])
    def test_unrotate_refuses_bad_hbar_c(self, hbar_c, outdir, capsys):
        grid = TimeGrid(12, 0.2)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(2))
        bundle = json.loads(ser.rotated_to_json(
            rotate(ctl_cumulants(spec, GaussianState(nbar=0.4), grid, periodic=False),
                   OrderingParam(0.5))))
        bundle["hbar_c"] = hbar_c
        inp = outdir / "rot.json"
        inp.write_text(json.dumps(bundle))  # NaN and Infinity as Python's json writes them
        code = run(["unrotate", "--in", inp, "--out", outdir / "back"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "computation" and "hbar_c" in err["detail"]
        assert list(outdir.iterdir()) == [inp]

    @pytest.mark.parametrize("verb", [["unrotate"], ["reorder", "--s", 0.2]])
    def test_complex_response_refused(self, verb, outdir, capsys):
        grid = TimeGrid(8, 0.1)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(2))
        bundle = json.loads(ser.rotated_to_json(
            rotate(ctl_cumulants(spec, GaussianState(nbar=0.4), grid, periodic=False),
                   OrderingParam(0.5))))
        bundle["D_R"]["im"][5][2] = 0.25
        inp = outdir / "rot.json"
        inp.write_text(json.dumps(bundle))
        assert run(verb + ["--in", inp, "--out", outdir / "out"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "computation"
        assert "D_R must be real for a Hermitian field: max |Im D_R| = 2.500e-01" in err["detail"]
        assert list(outdir.iterdir()) == [inp]

    @pytest.mark.parametrize("verb", [["unrotate"], ["reorder", "--s", 0.2]])
    def test_kernels_on_another_grid_refused(self, verb, outdir, capsys):
        grid = TimeGrid(8, 0.1)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(2))
        bundle = json.loads(ser.rotated_to_json(
            rotate(ctl_cumulants(spec, GaussianState(nbar=0.4), grid, periodic=False),
                   OrderingParam(0.5))))
        bundle["D_R"]["grid"]["dt"] = 0.2
        inp = outdir / "rot.json"
        inp.write_text(json.dumps(bundle))
        assert run(verb + ["--in", inp, "--out", outdir / "out"]) != 0
        err = json.loads(capsys.readouterr().err)
        assert "D_R is on TimeGrid(n=8, dt=0.2" in err["detail"]
        assert "grid TimeGrid(n=8, dt=0.1" in err["detail"]
        assert list(outdir.iterdir()) == [inp]

    def test_reorder_verb(self, outdir):
        grid = TimeGrid(24, 0.2)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(3))
        ctl = ctl_cumulants(spec, GaussianState(), grid, periodic=True)
        rot = rotate(ctl, OrderingParam(1.0))
        inp = outdir / "rot.json"
        inp.write_text(ser.rotated_to_json(rot))
        out = outdir / "re"
        assert run(["reorder", "--in", inp, "--s", 0.0, "--out", out]) == 0
        got = ser.rotated_from_json((outdir / "re.json").read_text())
        t = grid.times
        expect = 0.5 * np.cos(spec.omega0 * (t[:, None] - t[None, :]))
        assert np.abs(got.N_s.values - expect).max() < 1e-8


class TestVacuumPol:
    def test_low_k_row(self, outdir):
        out = outdir / "vp"
        code = run(["vacuum-pol", "--mu0", 1, "--alpha", 0.0072973525693,
                    "--kind", "R", "--renormalized", "--k2", 1e-4, "--out", out])
        assert code == 0
        lines = (outdir / "vp.csv").read_text().splitlines()
        k2, re, im = (float(x) for x in lines[2].split(","))
        assert re / k2 == pytest.approx(0.0072973525693 / (15 * np.pi), rel=1e-3)
        assert im == 0.0

    def test_unrenormalized_needs_scheme(self, outdir):
        code = run(["vacuum-pol", "--kind", "R", "--unrenormalized",
                    "--k2", 1.0, "--out", outdir / "x"])
        assert code == 2


class TestPvSolve:
    def test_geometric_scheme_report(self, outdir):
        out = outdir / "pv"
        assert run(["pv-solve", "--M", 0, "--mu0", 1, "--geometric", 1e3,
                    "--impose-b0", "--out", out]) == 0
        report = json.loads((outdir / "pv.json").read_text())
        assert report["d"][2] == pytest.approx(1.0, rel=0.1)
        assert report["d"][1] == pytest.approx(2.0, rel=0.1)
        assert max(report["residuals"]) < 1e-10
        assert abs(report["R0"]) < 1e-10

    def test_byte_stable_output(self, outdir):
        args = ["pv-solve", "--M", 0, "--mu0", 1, "--geometric", 100.0]
        run(args + ["--out", outdir / "a"])
        run(args + ["--out", outdir / "b"])
        assert (outdir / "a.json").read_bytes() == (outdir / "b.json").read_bytes()


class TestDressRoutes:
    def test_file_route_and_toy_route_write_the_same_bytes(self, outdir):
        # the toy's kernels as files take the same exact-Toeplitz recursion
        from keldrot.medium import one_mode_toy

        d_bare, pi_r, _, _ = one_mode_toy(TimeGrid(64, 0.0625), 1.0, 0.3)
        bare, pi = outdir / "bare.json", outdir / "pi_r.json"
        bare.write_text(ser.kernel_to_json(d_bare))
        pi.write_text(ser.kernel_to_json(pi_r))
        assert run(["dress", "--bare", bare, "--pi-r", pi, "--out", outdir / "file"]) == 0
        assert run(["dress", "--omega0", 1.0, "--coupling", 0.3, "--n", 64, "--dt", 0.0625,
                    "--out", outdir / "toy"]) == 0
        assert (outdir / "file.json").read_bytes() == (outdir / "toy.json").read_bytes()

    def test_non_dyadic_toy_takes_recursion(self, outdir, monkeypatch):
        # the toy's kernels are laid out from their lags, so exactly Toeplitz
        import scipy.linalg

        def refused(*args, **kwargs):
            raise AssertionError("dense solve_triangular called")

        monkeypatch.setattr(scipy.linalg, "solve_triangular", refused)
        assert run(["dress", "--omega0", 1, "--coupling", 0.3, "--n", 512, "--dt", 0.1,
                    "--out", outdir / "toy"]) == 0
        residual = json.loads((outdir / "toy.check.json").read_text())["two_route_residual"]
        assert residual < 1e-2  # the grid's O(dt^2) quadrature error, 1.5e-3 here

    @pytest.mark.parametrize("dt", [0.1, 0.0625])  # both take the Toeplitz recursion
    def test_overflowing_toy_fails(self, dt, outdir, capsys):
        """Exit 1 with the error alone on stderr: no NaN file, and no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["dress", "--omega0", 1, "--coupling", 1e200, "--n", 64, "--dt", dt,
                        "--out", outdir / "d"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "computation" and "Pi_R" in err["detail"]
        assert list(outdir.iterdir()) == []

    def test_overflowing_dense_dress_fails(self, outdir, capsys, monkeypatch):
        """The same refusal on the dense route: a D0 sampled at t_i - t_j,
        not exactly Toeplitz at dt = 0.1, dressed from files."""
        import scipy.linalg

        from keldrot.medium import _toeplitz_column

        solves, solve = [], scipy.linalg.solve_triangular

        def counted(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve_triangular", counted)
        grid = TimeGrid(64, 0.1)
        d0 = pointwise_response(OscillatorSpec(omega0=1.0), grid)
        assert _toeplitz_column(TwoPointKernel(grid, d0)) is None
        bare, pi = outdir / "bare.json", outdir / "pi_r.json"
        bare.write_text(ser.kernel_to_json(TwoPointKernel(grid, d0)))
        pi.write_text(ser.kernel_to_json(TwoPointKernel(grid, (1e200 / grid.dt) * np.eye(64))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["dress", "--bare", bare, "--pi-r", pi, "--out", outdir / "d"]) == 1
        assert solves == [1]
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "computation" and "Pi_R" in err["detail"]
        assert sorted(outdir.iterdir()) == [bare, pi]

    @pytest.mark.parametrize("spoil,message", [
        (lambda obj: [1, 2], "kernel must be a JSON object, got an array"),
        (lambda obj: {**obj, "grid": "n=64"}, "grid must be a JSON object, got a string"),
    ])
    def test_non_object_kernel_named(self, spoil, message, outdir, capsys):
        from keldrot.medium import one_mode_toy

        d_bare, pi_r, _, _ = one_mode_toy(TimeGrid(64, 0.0625), 1.0, 0.3)
        bare, pi = outdir / "bare.json", outdir / "pi_r.json"
        bare.write_text(json.dumps(spoil(json.loads(ser.kernel_to_json(d_bare)))))
        pi.write_text(ser.kernel_to_json(pi_r))
        assert run(["dress", "--bare", bare, "--pi-r", pi, "--out", outdir / "file"]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "computation", "detail": message}
        assert sorted(outdir.iterdir()) == [bare, pi]


class TestSpectrumVerbs:
    def test_zero_point_scales_delta_ledger(self, outdir):
        out = outdir / "zp"
        assert run(["zero-point", "--s", 0.0, "--k2-min", 5.0, "--k2-max", 9.0,
                    "--n-k2", 3, "--out", out]) == 0
        ledger = json.loads((outdir / "zp.delta.json").read_text())
        assert ledger[0]["location_k2"] == 0.0
        assert ledger[0]["weight"] == pytest.approx(np.pi)  # 2 s_minus = 1 at s=0

    def test_zero_point_with_gauge_diagnosis(self, outdir):
        out = outdir / "ns"
        assert run(["zero-point", "--s", 0.0, "--k2", 8.0, "--diagnose-gauge",
                    "--out", out]) == 0
        gauge = json.loads((outdir / "ns.gauge.json").read_text())
        assert gauge["consistent"] is False

    def test_gauge_coefficient_is_the_ledger_weight(self, outdir):
        out = outdir / "w"
        assert run(["zero-point", "--s", 0.0, "--mu-vac", 2.0, "--hbar-c", 3.0, "--k2", 8.0,
                    "--diagnose-gauge", "--out", out]) == 0
        ledger = json.loads((outdir / "w.delta.json").read_text())
        gauge = json.loads((outdir / "w.gauge.json").read_text())
        assert ledger[0]["weight"] == pytest.approx(6.0 * np.pi)
        assert gauge["divergent_coefficient"] == ledger[0]["weight"]
        assert gauge["consistent"] is False

    def test_time_normal_spectrum_has_nothing_to_obstruct(self, outdir):
        # at s = 1 the zero-point ledger weight is 0, so the projector is consistent
        out = outdir / "tn"
        assert run(["zero-point", "--s", 1.0, "--mu-vac", 2.0, "--hbar-c", 3.0, "--k2", 8.0,
                    "--diagnose-gauge", "--out", out]) == 0
        ledger = json.loads((outdir / "tn.delta.json").read_text())
        gauge = json.loads((outdir / "tn.gauge.json").read_text())
        manifest = json.loads((outdir / "tn.manifest.json").read_text())
        assert ledger[0]["weight"] == 0.0
        assert gauge["consistent"] is True and gauge["divergent_coefficient"] == 0.0
        assert manifest["summary"]["gauge_consistent"] is True


class TestStochasticVerbs:
    def test_seed_mandatory(self, outdir, capsys):
        code = run(["mc", "--samples", 100, "--n", 8, "--dt", 0.5,
                    "--out", outdir / "m"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "seed" in err["detail"]

    def test_mc_outputs(self, outdir):
        out = outdir / "mc"
        assert run(["mc", "--samples", 500, "--seed", 7, "--n", 8, "--dt", 0.5,
                    "--omega0", 1.0, "--white-noise-std", 0.2, "--out", out]) == 0
        cov = ser.kernel_from_csv((outdir / "mc.cov.csv").read_text())
        assert cov.grid.n == 8

    def test_mc_deterministic_bytes(self, outdir):
        args = ["mc", "--samples", 200, "--seed", 3, "--n", 8, "--dt", 0.5,
                "--white-noise-std", 0.1]
        run(args + ["--out", outdir / "m1"])
        run(args + ["--out", outdir / "m2"])
        assert (outdir / "m1.cov.csv").read_bytes() == (outdir / "m2.cov.csv").read_bytes()

    @pytest.mark.parametrize("flag", [["--white-noise-std", -0.3], ["--white-noise-std", "nan"],
                                      ["--white-noise-std", "inf"], ["--alpha-nbar", -2]])
    def test_mc_bad_noise_parameter_fails(self, flag, outdir, capsys):
        code = run(["mc", "--samples", 100, "--seed", 3, "--n", 8, "--dt", 0.5, *flag,
                    "--out", outdir / "m"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "computation" and flag[0][2:].replace("-", "_") in err["detail"]
        assert not (outdir / "m.json").exists()

    @pytest.mark.parametrize("word", ["nan", "inf"])
    def test_mc_non_finite_source_fails(self, word, outdir, capsys):
        code = run(["mc", "--samples", 100, "--seed", 1, "--n", 8, "--dt", 0.5,
                    "--je-amplitude", word, "--out", outdir / "m"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "computation" and "J_e must be finite" in err["detail"]
        assert list(outdir.iterdir()) == []

    def test_oscillator_lambda_check_verb(self, outdir):
        out = outdir / "lc"
        # omega0 resonant on the grid: 2 cycles over n*dt = 4 pi
        code = run(["oscillator", "lambda-check", "--omega0", 1.0, "--nbar", 0.5,
                    "--s", 0.7, "--n", 16, "--dt", np.pi / 4, "--draws", 5,
                    "--seed", 3, "--out", out])
        assert code == 0
        report = json.loads((outdir / "lc.json").read_text())
        assert report["max_relative_residual"] < 1e-8
        assert report["max_relative_j_quadratic"] < 1e-8

    def test_oscillator_lambda_check_refuses_non_resonant_frequency(self, outdir, capsys):
        # omega0 = 1 is not a resonance of n dt = 12.8, where the closed-form
        # image is not rotate's
        code = run(["oscillator", "lambda-check", "--n", 256, "--dt", 0.05, "--seed", 1,
                    "--out", outdir / "lc"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "computation"
        assert "omega0 = 1.0 is not a grid resonance (nearest 0.98174" in err["detail"]
        assert list(outdir.iterdir()) == []

    def test_oscillator_mc_verb(self, outdir):
        out = outdir / "omc"
        code = run(["oscillator", "mc", "--omega0", 1.0, "--nbar", 1.0,
                    "--s", 0.0, "--n", 8, "--dt", 0.5, "--samples", 20000,
                    "--seed", 11, "--out", out])
        assert code == 0
        summary = json.loads((outdir / "omc.json").read_text())
        assert summary["worst_pull_vs_closed_form"] < 6.0


class TestConfigHandling:
    def test_unknown_keys_rejected(self, outdir, capsys):
        cfg = outdir / "cfg.json"
        cfg.write_text(json.dumps({"omega0": 1.0, "bogus": 2}))
        code = run(["oscillator", "kernel", "--config", cfg, "--n", 8,
                    "--dt", 0.5, "--out", outdir / "k"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "bogus" in err["detail"]

    def test_config_file_merges_with_flags(self, outdir):
        cfg = outdir / "cfg.json"
        cfg.write_text(json.dumps({"omega0": 2.0, "nbar": 1.0, "s": 0.3}))
        out = outdir / "k"
        assert run(["oscillator", "kernel", "--config", cfg, "--n", 8,
                    "--dt", 0.5, "--out", out]) == 0
        manifest = json.loads((outdir / "k.manifest.json").read_text())
        assert manifest["config"]["omega0"] == 2.0
        assert manifest["config"]["n"] == 8

    @pytest.mark.parametrize("verb,key", [
        (["vacuum-pol", "--k2", 1.0], "renormalized"),
        (["pv-solve", "--M", 0, "--geometric", 10.0], "impose_b0"),
        (["rotate", "--in", "ctl.json", "--s", 0.0], "check_consistency"),
        (["zero-point", "--s", 0.0, "--k2", 8.0], "diagnose_gauge"),
    ])
    def test_string_booleans_rejected(self, outdir, capsys, verb, key):
        cfg = outdir / "cfg.json"
        cfg.write_text(json.dumps({key: "false"}))
        assert run(verb + ["--config", cfg, "--out", outdir / "x"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and key in err["detail"]

    @pytest.mark.parametrize("verb,cfg,key", [
        (["oscillator", "kernel", "--dt", 0.5], {"n": 8.5}, "n"),
        (["kernels", "scalar", "--eps", 1e-3, "--k0-max", 2.0], {"n_k0": 5.7}, "n_k0"),
        (["zero-point", "--k2", 8.0], {"s": "abc"}, "s"),
        (["pv-solve", "--M", 0], {"masses": [1, 2, 3, 4, 5]}, "masses"),
        (["project", "--in", "sig.csv"], {"sign": "x"}, "sign"),
        (["vacuum-pol", "--k2", 1.0], {"kind": "Q"}, "kind"),
        (["vacuum-pol", "--k2", 1.0], {"k0_sign": 2}, "k0_sign"),
        (["oscillator", "kernel"], {"grid": {"n": 8.5, "dt": 0.5}}, "grid.n"),
        (["mc", "--samples", 10, "--seed", 1], {"grid": {"n": 8, "dt": 0.5, "nn": 8}},
         "grid.nn"),
        (["pv-solve", "--M", 0], {"masses": "1,2,x,4,5"}, "masses"),
        (["kernels", "scalar", "--eps", 1e-3, "--k0-max", 2.0, "--n-k0", 5],
         {"out": "somewhere"}, "out"),
        (["kernels", "scalar", "--eps", 1e-3, "--k0-max", 2.0, "--n-k0", 5],
         {"config": "other.json"}, "config"),
    ])
    def test_values_checked_against_flags(self, outdir, capsys, verb, cfg, key):
        path = outdir / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(verb + ["--config", path, "--out", outdir / "x"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and f"'{key}'" in err["detail"]

    @pytest.mark.parametrize("verb", [["dress", "--omega0", 1.0, "--coupling", 0.3],
                                      ["mc", "--samples", 10, "--seed", 1]])
    def test_grid_object_on_every_grid_verb(self, outdir, verb):
        cfg = outdir / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 8, "dt": 0.5}}))
        assert run(verb + ["--config", cfg, "--out", outdir / "g"]) == 0
        manifest = json.loads((outdir / "g.manifest.json").read_text())
        assert manifest["config"]["grid"] == {"n": 8, "dt": 0.5}

    @pytest.mark.parametrize("argv", [
        ["kernels", "scalar", "--eps", 1e-3, "--k0-max", 2.0, "--n-k0", 5, "--seed", 3],
        ["accept", "--M", 0],
    ])
    def test_options_a_verb_does_not_read_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_computation_error_exit_code(self, outdir, capsys):
        # masses not strictly increasing -> computation-level failure
        code = run(["pv-solve", "--M", 0, "--masses", "1,3,2,4,5",
                    "--out", outdir / "x"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "computation"

    @pytest.mark.parametrize("argv", [
        ["oscillator", "kernel", "--omega0", 1.0, "--s", 0.0, "--n", 8, "--dt", "inf"],
        ["dress", "--omega0", 1.0, "--coupling", 0.3, "--n", 8, "--dt", "nan"],
    ])
    def test_non_finite_grid_step_fails(self, argv, outdir, capsys):
        code = run(argv + ["--out", outdir / "x"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "computation" and "grid step" in err["detail"]
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("argv,name", [
        (["vacuum-pol", "--mu0", "nan", "--k2", 1], "mu0"),
        (["vacuum-pol", "--mu0", "inf", "--k2", 1], "mu0"),
        (["zero-point", "--mu0", "inf", "--s", 0, "--k2", 5], "mu0"),
        (["kernels", "scalar", "--eps", "nan", "--mu2", 1, "--k0-max", 5, "--n-k0", 8], "eps"),
        (["kernels", "scalar", "--eps", 1e-4, "--mu2", "inf", "--k0-max", 5, "--n-k0", 8],
         "mu_sq"),
        (["pv-solve", "--masses", "1,2,nan,4,5", "--M", 0], "masses"),
        (["pv-solve", "--geometric", "nan", "--M", 0], "ratio"),
        (["pv-solve", "--mu0", "inf", "--geometric", 10, "--M", 0], "masses"),
    ])
    def test_non_finite_physics_parameter_fails(self, argv, name, outdir, capsys):
        code = run(argv + ["--out", outdir / "x"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "computation" and name in err["detail"]
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("argv,name", [
        (["zero-point", "--s", 0, "--k2", "nan"], "k_sq"),
        (["zero-point", "--s", 0, "--k2=-inf"], "k_sq"),
        (["zero-point", "--s", 0, "--k2", 5, "--mu-vac", "nan"], "mu_vac"),
        (["zero-point", "--s", 0, "--k2", 5, "--hbar-c", "inf"], "hbar_c"),
        (["kernels", "scalar", "--k0-max", "nan", "--eps", 1e-3, "--n-k0", 3, "--mu2", 1,
          "--kvec-sq", 0.5], "k0_max"),
        (["kernels", "photon", "--kvec-sq", "nan", "--eps", 1e-3, "--n-k0", 3,
          "--k0-max", 2], "kvec_sq"),
        (["vacuum-pol", "--k2", "nan"], "k_sq"),
        (["vacuum-pol", "--kind", "F", "--k2", "inf"], "k_sq"),
        (["vacuum-pol", "--k2-min", 1, "--k2-max", "nan", "--n-k2", 3], "k_sq"),
        (["dress", "--omega0", 1, "--coupling", "nan", "--n", 8, "--dt", 0.5], "coupling"),
    ])
    def test_non_finite_momentum_or_medium_parameter_fails(self, argv, name, outdir, capsys):
        code = run(argv + ["--out", outdir / "x"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "computation" and name in err["detail"]
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (["oscillator", "lambda-check", "--n", 8, "--dt", 0.1, "--seed", 1, "--draws", 0],
         "draws must be positive, got 0"),
        (["oscillator", "lambda-check", "--n", 8, "--dt", 0.1, "--seed", 1, "--draws=-3"],
         "draws must be positive, got -3"),
        (["vacuum-pol", "--k2-min", 1, "--k2-max", 2, "--n-k2", 0],
         "n_k2 must be positive, got 0"),
        (["zero-point", "--s", 0, "--k2-min", 4.2, "--k2-max", 5, "--n-k2", 0],
         "n_k2 must be positive, got 0"),
        (["kernels", "scalar", "--eps", 1e-3, "--k0-max", 2, "--n-k0", 0],
         "n must be positive, got 0"),
    ])
    def test_empty_count_fails(self, argv, message, outdir, capsys):
        # a count below 1 would check nothing or write an empty table
        code = run(argv + ["--out", outdir / "x"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "computation", "detail": message}
        assert list(outdir.iterdir()) == []

    def test_nested_grid_config(self, outdir):
        cfg = outdir / "cfg.json"
        cfg.write_text(json.dumps({"omega0": 1.0, "s": 0.0,
                                   "grid": {"n": 8, "dt": 0.5}}))
        out = outdir / "k"
        assert run(["oscillator", "kernel", "--config", cfg, "--out", out]) == 0
        got = ser.kernel_from_csv((outdir / "k.csv").read_text())
        assert got.grid.n == 8

    @pytest.mark.parametrize("cfg", [{"grid": {"n": 4, "dt": 0.1}}, {"n": 4, "dt": 0.1}],
                             ids=["grid object", "top level"])
    def test_grid_flag_overrides_config_file(self, outdir, cfg):
        path = outdir / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["oscillator", "kernel", "--config", path, "--n", 8,
                    "--out", outdir / "k"]) == 0
        assert ser.kernel_from_csv((outdir / "k.csv").read_text()).grid == TimeGrid(8, 0.1)
        manifest = json.loads((outdir / "k.manifest.json").read_text())
        assert manifest["config"] == {**cfg, "n": 8}

    def test_grid_value_given_twice_refused(self, outdir, capsys):
        path = outdir / "cfg.json"
        path.write_text(json.dumps({"dt": 0.1, "grid": {"n": 4, "dt": 0.2}}))
        assert run(["oscillator", "kernel", "--config", path, "--out", outdir / "k"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "'dt'" in err["detail"]
        assert list(outdir.iterdir()) == [path]


class TestAcceptVerb:
    def test_single_criterion_and_byte_stability(self, outdir, capsys):
        code = run(["accept", "--only", "01-projection"])
        out1 = capsys.readouterr().out
        assert code == 0
        assert out1.startswith("PASS  01-projection-algebra")
        run(["accept", "--only", "01-projection"])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_report_file(self, outdir):
        out = outdir / "rep"
        assert run(["accept", "--only", "02-oscillator", "--out", out]) == 0
        report = json.loads((outdir / "rep.json").read_text())
        assert report["all_passed"] is True


class TestStartupImports:
    def test_verbs_without_quadrature_load_no_heavy_scipy(self, outdir):
        """`kernels`, `project`, `dress` on a time-invariant medium (the
        one-mode toy, and bare/susceptibility files holding an exactly
        Toeplitz kernel and gamma I), `pv-solve` and an
        unrenormalized `vacuum-pol` run in a fresh interpreter without
        importing scipy's quadrature, special functions or linear algebra,
        or mpmath."""
        sig = outdir / "sig.csv"
        sig.write_text(ser.signal_to_csv(Signal.zero(TimeGrid(8, 0.5))))
        grid = TimeGrid(32, 0.125)
        t = grid.times
        bare, pi_r = outdir / "bare.json", outdir / "pi_r.json"
        bare.write_text(ser.kernel_to_json(TwoPointKernel(
            grid, np.tril(-np.sin(1.3 * (t[:, None] - t[None, :]))))))
        pi_r.write_text(ser.kernel_to_json(TwoPointKernel(grid, 2.0 * np.eye(grid.n))))
        script = f"""
import sys
from keldrot import cli
assert cli.main(["kernels", "scalar", "--eps", "1e-3", "--k0-max", "2", "--n-k0", "5",
                 "--out", {str(outdir / "k")!r}]) == 0
assert cli.main(["project", "--in", {str(sig)!r}, "--sign", "+",
                 "--out", {str(outdir / "p")!r}]) == 0
assert cli.main(["dress", "--omega0", "1", "--coupling", "0.3", "--n", "64", "--dt", "0.0625",
                 "--out", {str(outdir / "d1")!r}]) == 0
assert cli.main(["dress", "--bare", {str(bare)!r}, "--pi-r", {str(pi_r)!r},
                 "--out", {str(outdir / "d2")!r}]) == 0
assert cli.main(["pv-solve", "--M", "1", "--geometric", "1e3", "--impose-b0",
                 "--out", {str(outdir / "pv")!r}]) == 0
assert cli.main(["vacuum-pol", "--unrenormalized", "--geometric", "10", "--k2-min", "-3",
                 "--k2-max", "9", "--n-k2", "7", "--out", {str(outdir / "vp")!r}]) == 0
print("loaded:" + ",".join(m for m in ("scipy.integrate", "scipy.special", "scipy.linalg",
                                       "mpmath") if m in sys.modules))
"""
        src = str(Path(keldrot.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.splitlines()[-1] == "loaded:"
