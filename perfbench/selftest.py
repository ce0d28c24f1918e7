"""Tests of the benchmark's own output checks.

Usage, from the root of a keldrot checkout::

    python3 perfbench/selftest.py [--workload momentum ...]

It first requires BENCHMARK.json to list the workloads and per-layer
metrics that the code runs and reports.  For each workload it then runs
one pass on two seeds and requires every check to pass on both, then perturbs one output at a time (R_obs scaled by
1 + 1e-6, a dressed kernel shifted by 1e-3, a file altered, ...) and
requires the matching check to reject it.  Exits non-zero on the first
check that passes a wrong output or rejects a right one.  Takes about
two minutes.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

SEEDS = (1, 2)


def scale_list(key, factor, index=None):
    def mutate(res, wl):
        vals = res.outputs[key]
        for i in range(len(vals)) if index is None else [index]:
            vals[i] = vals[i] * factor
    return mutate


def momentum_cases():
    def zp(res, wl):
        res.outputs["zp"].smooth[3] *= 1 + 1e-6

    def ledger(res, wl):
        res.outputs["zp"].delta_terms = [(0.0, 3.0)]

    def pv_row(res, wl):
        sch = res.outputs["schemes"][(2, 10.0, True)]
        sch.d_mp[2] = str(float(sch.d_mp[2]) * (1 + 1e-6))

    def moments(res, wl):
        key = next(iter(res.outputs["moments"]))
        res.outputs["moments"][key].reverse()

    def coord_m0(res, wl):
        res.outputs["coord"]["m0-masses1to16"]["smooth"]["4e-05"] *= 1 + 1e-3

    def coord_m1(res, wl):
        res.outputs["coord"]["m1-ratio2"]["smooth"]["2e-05"] *= 1.05

    def shrink(res, wl):
        smooth = res.outputs["coord"]["m1-ratio2"]["smooth"]
        smooth["1e-05"] = 2.0 * smooth["2e-05"]

    def flip(res, wl):
        got = res.outputs["coord"]["m0-masses1to16"]
        got["flip"] = (got["flip"][0], got["flip"][1] * (1 + 1e-12))

    def spacelike(res, wl):
        res.outputs["coord"]["m0-masses1to16"]["cone"]["smooth"] = 1e-30

    def cone(res, wl):
        res.outputs["coord"]["m1-ratio2"]["cone"]["cone_delta_coefficient"] += 1e-3

    def im_below(res, wl):
        i = int(np.flatnonzero((wl.k2 > 0) & (wl.k2 < 4.0))[0])
        res.outputs["r_minus"][i] += 1e-20j

    return [
        ("R_obs vs Uehling", scale_list("r_plus", 1 + 1e-6)),
        ("R_obs vs Uehling", scale_list("r_minus", 1 + 1e-6, index=7)),
        ("Im R_obs below threshold", im_below),
        ("Pi_R_reg vs Uehling", scale_list("pi_r", 1 + 1e-6, index=100)),
        ("Pi_R_reg unrenormalized", scale_list("pi_r_unren", 1 + 1e-6, index=5)),
        ("Pi_F_reg vs Uehling", scale_list("pi_f", 1 + 1e-6, index=500)),
        ("Pi_plus", scale_list("pi_plus", 1 + 1e-6)),
        ("zero_point_spectrum vs", zp),
        ("delta ledger", ledger),
        ("PV rows", pv_row),
        ("does not decay", moments),
        ("R0_quadrature", lambda res, wl: res.outputs.update(r0_quad=res.outputs["r0_quad"] * (1 + 1e-6))),
        ("R_obs_finite_eps", scale_list("finite_eps", 1.01, index=1)),
        ("kramers_kronig", scale_list("kk", 1 + 1e-6, index=2)),
        ("m0-masses1to16 vs mpmath Bessel quadrature", coord_m0),
        ("m1-ratio2 vs mpmath Bessel quadrature", coord_m1),
        ("does not shrink", shrink),
        ("sign_t", flip),
        ("spacelike value", spacelike),
        ("cone coefficient", cone),
    ]


def time_grid_cases():
    def dressed(res, wl):
        res.outputs["dressed"].values[5:, 3] += 1e-3

    def roundtrip(res, wl):
        back = res.outputs["rotated"][("synthetic", 512)]["back"]
        back.K_W.values[10, 20] += 1e-6 * np.abs(back.K_W.values).max()

    def reorder(res, wl):
        r = res.outputs["rotated"][("synthetic", 256)]["reordered"]
        r.N_s.values[1, 2] += 1e-8

    def gap(res, wl):
        res.outputs["rotated"][("synthetic", 1024)]["gap"].values[3, 3] += 1e-4

    def ctl(res, wl):
        k = res.outputs["sets"][("synthetic", 256)].K_W.values
        k[4, 9] += 1e-9 * np.abs(k).max()

    def vacuum(res, wl):
        res.outputs["rotated"][("vacuum", 512)]["rot1"].N_s.values[0, 0] = 1e-6

    def thermal(res, wl):
        res.outputs["rotated"][("thermal", 1024)]["rot2"].N_s.values[7, 7] *= 1 + 1e-6

    def theta(res, wl):
        res.outputs["theta"][0, 0] = 1.0

    def noise(res, wl):
        res.outputs["noise"].values[:] *= 1.01

    def mean(res, wl):
        res.outputs["mean"].values[100] += 1e-2

    def wave(res, wl):
        res.outputs["wave_residual"] = 2e-4

    def quasi(res, wl):
        est, err = res.outputs["quasi"]
        est[0, 0] += 10.0 * err[0, 0]

    def wyld(res, wl):
        w = res.outputs["wyld"]
        w["cov"][47, 24] += 10.0 * w["cov_stderr"][47, 24]

    return [("Dyson vs pole-shift", dressed), ("unrotate(rotate)", roundtrip),
            ("reorder vs direct rotate", reorder), ("(s2 - s1) Z", gap),
            ("CTL identity", ctl), ("vacuum noise at s = 1", vacuum),
            ("hbar(nbar + s_minus)", thermal), ("theta_ordering_matrix", theta),
            ("noise_map", noise), ("mean_field", mean), ("wave operator", wave),
            ("mc_quasiaverage pull", quasi), ("wyld_mc pull", wyld)]


def edit_file(name, edit):
    """Mutation that rewrites one artefact of the CLI workload; the runner
    restores the file afterwards."""
    def mutate(res, wl):
        path = wl.outdir / name
        original = path.read_bytes()
        path.write_text(edit(original.decode()))
        return lambda: path.write_bytes(original)
    return mutate


def _edit_kernel_json(key, shift):
    def edit(text):
        obj = json.loads(text)
        target = obj[key] if key else obj
        target["re"][3][1] += shift
        return json.dumps(obj)
    return edit


def _edit_csv_cell(row, col, factor):
    def edit(text):
        lines = text.splitlines()
        cells = lines[row].split(",")
        cells[col] = repr(float(cells[col]) * factor)
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def cli_cases():
    def exit_code(res, wl):
        codes = res.outputs["codes"]
        codes[5] = (*codes[5][:2], 1)

    def manifest(res, wl):
        path = wl.outdir / "pv.manifest.json"
        original = path.read_bytes()
        path.write_text(json.dumps({"verb": "zero-point"}))
        return lambda: path.write_bytes(original)

    def accept(text):
        obj = json.loads(text)
        obj["all_passed"] = False
        return json.dumps(obj)

    def ledger(text):
        obj = json.loads(text)
        obj[0]["weight"] *= 1 + 1e-9
        return json.dumps(obj)

    def pv(text):
        obj = json.loads(text)
        obj["R0"] = 1e-6
        return json.dumps(obj)

    return [
        ("project exited", exit_code),
        ("names another verb", manifest),
        ("file round trip", edit_file("back.json", _edit_kernel_json("K_F", 1e-6))),
        ("reorder file", edit_file("re.json", _edit_kernel_json("N_s", 1e-6))),
        ("pole-shift closed form", edit_file("dress_files.json", _edit_kernel_json(None, 1e-3))),
        ("toy disagree", edit_file("dress_toy.json", _edit_kernel_json(None, 1e-12))),
        ("positive-frequency filter", edit_file("proj.csv", _edit_csv_cell(10, 1, 1 + 1e-9))),
        ("kernels scalar D_F", edit_file("ks.csv", _edit_csv_cell(20, 6, 2.0))),
        ("kernels photon", edit_file("kp.csv", _edit_csv_cell(20, 2, 2.0))),
        ("vacuum-pol column", edit_file("vp.csv", _edit_csv_cell(30, 1, 1 + 1e-6))),
        ("zero-point column", edit_file("zp.csv", _edit_csv_cell(30, 1, 1 + 1e-6))),
        ("zero-point delta ledger", edit_file("zp.delta.json", ledger)),
        ("R0 with B(0)", edit_file("pv.json", pv)),
        ("different .cov.csv", edit_file("mc2.cov.csv", _edit_csv_cell(3 + 20 * 48 + 20, 2, 1 + 1e-15))),
        ("mc covariance", edit_file("mc1.cov.csv", _edit_csv_cell(3 + 47 * 48 + 24, 2, 11.0))),
        ("oscillator mc", edit_file("omc.csv", _edit_csv_cell(3, 2, 1.5))),
        ("accept", edit_file("acc.json", accept)),
    ]


CASES = {"momentum": momentum_cases, "time-grid": time_grid_cases, "cli-artifacts": cli_cases}


def benchmark_file_problems(root: Path) -> list[str]:
    """BENCHMARK.json must list exactly the workloads and per-layer metrics
    that the code runs and reports."""
    from layers import PER_LAYER

    bench = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(CASES):
        problems.append("BENCHMARK.json workloads differ from the workloads run")
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if listed != {name: spec[:2] for name, spec in PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    return problems


def main(argv=None) -> int:
    import run

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", action="append", choices=list(CASES))
    args = ap.parse_args(argv)
    root = Path.cwd()
    os.environ.update(run._env(root))
    sys.path.insert(0, str(root / "src"))
    import worker
    from workloads import WORKLOADS

    lib = worker._keldrot(root)
    work = root / run.WORK_DIR / "selftest"
    bad = benchmark_file_problems(root)
    try:
        for name in args.workload or list(CASES):
            for seed in SEEDS:
                wl = WORKLOADS[name](seed, work / f"{name}-{seed}")
                if hasattr(wl, "gate"):
                    gate = wl.gate()
                    res = wl.run_pass(None)
                    res.outputs["codes"] += gate.outputs["codes"]
                else:
                    res = wl.run_pass(lib)
                problems = wl.check(res)
                print(f"{name} seed {seed}: {'pass' if not problems else problems}")
                if problems:
                    bad.append(f"{name} seed {seed} rejected a correct pass: {problems}")
            # perturbations, on the last seed's outputs
            for label, mutate in CASES[name]():
                trial = copy.deepcopy(res)
                undo = mutate(trial, wl)
                problems = wl.check(trial)
                if undo:
                    undo()
                hit = any(label in p for p in problems)
                print(f"  perturbed '{label}': {'rejected' if hit else 'NOT REJECTED'}")
                if not hit:
                    bad.append(f"{name}: perturbation for '{label}' passed ({problems})")
    finally:
        shutil.rmtree(root / run.WORK_DIR, ignore_errors=True)
    for line in bad:
        print(f"FAIL: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
