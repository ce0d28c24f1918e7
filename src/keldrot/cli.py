"""Command-line front end and reproducible experiment runner.

Each verb's argparse subparser is its only schema: a --config JSON file may
set the dests of the verb's flags other than --config and --out (and, where
it has --n, a nested "grid" object of n, dt, t0), each to a value of its
flag's type and choices.  A verb that declares --seed (the stochastic ones)
requires it.  Every verb writes full-precision CSV/JSON artifacts next to a
manifest that records the config hash and library versions, and exits 0 on
success, 2 on a config error, 1 on a computation error (with a
machine-readable error JSON on stderr).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, diracsea, medium, oscillator, pvreg, rotation
from . import serialization as ser
from .grids import OrderingParam, Signal, TimeGrid, TwoPointKernel, project_pm, project_s


class ConfigError(ValueError):
    pass


def _config_hash(config: dict) -> str:
    return hashlib.sha256(ser.dump_json(config).encode()).hexdigest()


def _versions() -> dict:
    import scipy

    return {"keldrot": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _check_value(key: str, value, flag: argparse.Action):
    """Raise ConfigError unless a config-file value is one that `flag` parses to."""
    if flag.nargs == 0:  # store_true, store_false, BooleanOptionalAction
        ok, want = isinstance(value, bool), "true or false"
    elif flag.type is int:
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif flag.type is float:
        ok, want = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    else:
        ok, want = isinstance(value, str), "a string"
    if ok and flag.choices is not None and value not in flag.choices:
        ok, want = False, f"one of {list(flag.choices)}"
    if not ok:
        raise ConfigError(f"config key {key!r} must be {want}, got {json.dumps(value)}")


def _load_config(path: str | None, cli_params: dict, flags: dict) -> dict:
    """The --config file's values, checked against `flags` (dest -> Action),
    overridden by the flags given on the command line."""
    config = {}
    if path:
        with open(path) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("the config file must hold a JSON object")
        values, allowed = dict(config), dict(flags)
        if "n" in flags:  # the grid flags may also come as one nested object
            grid = values.pop("grid", {})
            if not isinstance(grid, dict):
                raise ConfigError("config key 'grid' must be an object with n, dt and t0")
            values.update((f"grid.{k}", v) for k, v in grid.items())
            allowed.update((f"grid.{k}", flags[k]) for k in ("n", "dt", "t0"))
        unknown = set(values) - set(allowed)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in values.items():
            _check_value(key, value, allowed[key])
    config.update(cli_params)
    return config


def _require(config: dict, *keys):
    missing = [k for k in keys if config.get(k) is None]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")


def _grid_from_config(config: dict) -> TimeGrid:
    g = config.get("grid", config)
    _require(g, "n", "dt")
    return TimeGrid(int(g["n"]), float(g["dt"]), float(g.get("t0", 0.0)))


def _precision_bits(config: dict) -> tuple[int, int]:
    """(working bits, cap); requesting double means genuinely double, so the
    ill-conditioned solves fail their residual gate instead of silently
    upgrading."""
    choice = config.get("precision") or "extended"
    if choice == "double":
        return 53, 53
    if choice == "extended":
        return pvreg.DEFAULT_PRECISION_BITS, 4096
    raise ConfigError("precision must be 'double' or 'extended'")


def _write_outputs(out_prefix: str, config: dict, verb: str,
                   outputs: dict, summary: dict) -> list[str]:
    """Write artifact files plus a manifest; returns the paths written."""
    prefix = Path(out_prefix)
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    written = []
    for suffix, text in outputs.items():
        path = Path(str(prefix) + suffix)
        path.write_text(text)
        written.append(str(path))
    manifest = {
        "verb": verb,
        "config": config,
        "config_hash": _config_hash(config),
        "versions": _versions(),
        "outputs": written,
        "summary": summary,
    }
    mpath = Path(str(prefix) + ".manifest.json")
    mpath.write_text(ser.dump_json(manifest))
    written.append(str(mpath))
    return written


def _read_signal(path: str) -> Signal:
    text = Path(path).read_text()
    if path.endswith(".json"):
        return ser.signal_from_json(text)
    return ser.signal_from_csv(text)


def _count(config: dict, key: str, default: int | None = None) -> int:
    """An integer config value that must be at least 1: a count of zero
    would write an empty result and report nothing as checked."""
    n = int(config.get(key, default))
    if n < 1:
        raise ValueError(f"{key} must be positive, got {n}")
    return n


def _k2_values(config: dict) -> np.ndarray:
    if config.get("k2") is not None:
        return np.array([float(config["k2"])])
    _require(config, "k2_min", "k2_max", "n_k2")
    return np.linspace(float(config["k2_min"]), float(config["k2_max"]), _count(config, "n_k2"))


def _dirac_spec(config: dict, mu0: float | None = None) -> diracsea.DiracSeaSpec:
    return diracsea.DiracSeaSpec(
        mu0=float(config.get("mu0", 1.0)) if mu0 is None else mu0,
        alpha=float(config.get("alpha", diracsea.FINE_STRUCTURE)))


def _scheme_from_config(config: dict) -> pvreg.PVScheme:
    mu0 = float(config.get("mu0", 1.0))
    m_order = int(config.get("M", 0))
    impose_b0 = config.get("impose_b0", False)
    if config.get("masses"):
        try:
            masses = [float(x) for x in config["masses"].split(",")]
        except ValueError:
            raise ConfigError("config key 'masses' must be comma-separated numbers, "
                              f"got {json.dumps(config['masses'])}") from None
    elif config.get("geometric"):
        count = 2 * m_order + (6 if impose_b0 else 5)
        masses = pvreg.geometric_masses(mu0, float(config["geometric"]), count)
    else:
        raise ConfigError("scheme requires --masses or --geometric")
    bits, cap = _precision_bits(config)
    return pvreg.solve_pv(m_order, masses, impose_B0=impose_b0,
                          precision_bits=bits, max_precision_bits=cap)


# ----- verb handlers -------------------------------------------------------

def run_project(config: dict) -> tuple[dict, dict]:
    _require(config, "infile", "sign")
    sig = _read_signal(config["infile"])
    if config.get("s") is not None:
        out = project_s(sig, OrderingParam(float(config["s"])), config["sign"])
    else:
        out = project_pm(sig, config["sign"])
    return {".csv": ser.signal_to_csv(out)}, {"n": sig.grid.n}


def _osc_from_config(config: dict):
    spec = oscillator.OscillatorSpec(
        omega0=float(config.get("omega0", 1.0)),
        hbar=float(config.get("hbar", 1.0)),
    )
    state = oscillator.GaussianState(
        nbar=float(config.get("nbar", 0.0)),
        m=float(config.get("m_re", 0.0)) + 1j * float(config.get("m_im", 0.0)),
    )
    p = OrderingParam(float(config.get("s", 0.0)))
    return spec, state, p


def run_oscillator_kernel(config: dict) -> tuple[dict, dict]:
    spec, state, p = _osc_from_config(config)
    grid = _grid_from_config(config)
    t = grid.times
    vals = oscillator.s_ordered_kernel(spec, state, p, t[:, None], t[None, :])
    kernel = TwoPointKernel(grid, vals)
    return {".csv": ser.kernel_to_csv(kernel)}, {"s": p.s}


def run_oscillator_lambda_check(config: dict) -> tuple[dict, dict]:
    spec, state, p = _osc_from_config(config)
    grid = _grid_from_config(config)
    rng = np.random.default_rng(int(config["seed"]))
    # as a triple, so that K_F and K_rev are derived (and laid out) once, not per draw
    ctl = dataclasses.replace(oscillator.ctl_cumulants(spec, state, grid, periodic=True))
    rot = oscillator.rotated_cumulants(spec, state, p, grid)
    draws = _count(config, "draws", 10)
    residuals = []
    for _ in range(draws):
        eta = Signal(grid, rng.normal(size=grid.n))
        j_s = Signal(grid, rng.normal(size=grid.n))
        chk = rotation.lambda2_identity_check(ctl, rot, eta, j_s)
        residuals.append(chk["residual"] / max(abs(chk["lhs"]), 1e-300))
    report = {"draws": draws, "max_relative_residual": float(np.max(residuals)), "s": p.s}
    return {".json": ser.dump_json(report)}, report


def run_oscillator_mc(config: dict) -> tuple[dict, dict]:
    _require(config, "samples")
    spec, state, p = _osc_from_config(config)
    grid = _grid_from_config(config)
    est, err = oscillator.mc_quasiaverage(
        spec, state, p, grid.times, int(config["samples"]), int(config["seed"]))
    target = oscillator.s_ordered_kernel(
        spec, state, p, grid.times[:, None], grid.times[None, :]).real
    worst_pull = float(np.abs(est - target).max() / max(err.max(), 1e-300))
    kernel_csv = ser.kernel_to_csv(TwoPointKernel(grid, est))
    err_csv = ser.kernel_to_csv(TwoPointKernel(grid, err))
    summary = {"samples": int(config["samples"]), "max_stderr": float(err.max()),
               "worst_pull_vs_closed_form": worst_pull}
    return {".csv": kernel_csv, ".stderr.csv": err_csv,
            ".json": ser.dump_json(summary)}, summary


def run_rotation_verb(verb: str, config: dict) -> tuple[dict, dict]:
    _require(config, "infile")
    text = Path(config["infile"]).read_text()
    if verb == "rotate":
        ctl = ser.cumulants_from_json(text)
        _require(config, "s")
        tol = float(config.get("consistency_tol", 1e-8))
        rot = rotation.rotate(ctl, OrderingParam(float(config["s"])),
                              consistency_tol=tol,
                              check=config.get("check_consistency", True))
        summary = {"s": rot.p.s, "consistency_residual": ctl.consistency_residual()}
        return {".json": ser.rotated_to_json(rot)}, summary
    rot = ser.rotated_from_json(text)
    if verb == "unrotate":
        ctl = rotation.unrotate(rot)
        summary = {"s": rot.p.s, "consistency_residual": ctl.consistency_residual()}
        return {".json": ser.cumulants_to_json(ctl)}, summary
    _require(config, "s")
    out = rotation.reorder(rot, float(config["s"]))
    return {".json": ser.rotated_to_json(out)}, {"s_from": rot.p.s, "s_to": out.p.s}


def run_kernels(config: dict) -> tuple[dict, dict]:
    _require(config, "family", "eps", "k0_max", "n_k0")
    from .fieldkernels import photon_keldysh_pair, scalar_kernels, symmetric_k0_grid

    k0 = symmetric_k0_grid(float(config["k0_max"]), int(config["n_k0"]))
    kv = float(config.get("kvec_sq", 0.0))
    eps = float(config["eps"])
    cols = {"k0": k0, "kvec_sq": np.full_like(k0, kv)}
    if config["family"] == "scalar":
        cols.update(scalar_kernels(k0, kv, float(config.get("mu2", 0.0)), eps))
    else:
        cols.update(photon_keldysh_pair(k0, kv, eps))
    csv = ser.momentum_table_to_csv(cols, header_comment=f"{config['family']} kernels")
    return {".csv": csv}, {"points": len(k0)}


def run_vacuum_pol(config: dict) -> tuple[dict, dict]:
    spec = _dirac_spec(config)
    kind = config.get("kind", "R")
    renorm = config.get("renormalized", True)
    scheme = None if renorm else _scheme_from_config(config)
    k2 = _k2_values(config)
    k0_sign = int(config.get("k0_sign", 1))
    vals = np.zeros(len(k2), dtype=complex)
    fns = {"R": diracsea.Pi_R_reg, "F": diracsea.Pi_F_reg, "plus": diracsea.Pi_plus}
    for i, s in enumerate(k2):
        # pick a representative (k0, |k|^2) pair on the requested mass shell
        kv = 0.0 if s > 0 else 1.0 - s
        k0 = k0_sign * np.sqrt(s + kv)
        vals[i] = fns[kind](k0, kv, spec, scheme=scheme,
                            renormalized=renorm).scalar_part
    csv = ser.momentum_table_to_csv({"k2": k2, "Pi": vals},
                                    header_comment=f"vacuum polarization kind={kind}")
    summary = {"kind": kind, "renormalized": renorm, "points": len(k2)}
    return {".csv": csv}, summary


def run_pv_solve(config: dict) -> tuple[dict, dict]:
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scheme = _scheme_from_config(config)
    d1_asym, d2_asym = pvreg.asymptotic_d(scheme.masses)
    spec = _dirac_spec(config, mu0=scheme.masses[0])
    report = {
        "M": scheme.M,
        "impose_B0": scheme.impose_B0,
        "masses": scheme.masses,
        "d": scheme.d,
        "row_labels": scheme.row_labels,
        "residuals": scheme.residuals,
        "asymptotic": {"d1": d1_asym, "d2": d2_asym},
        "R0": diracsea.R0_from_scheme(scheme, spec),
        "warnings": [str(w.message) for w in caught],
    }
    return {".json": ser.dump_json(report)}, {"max_residual": max(scheme.residuals)}


def run_dress(config: dict) -> tuple[dict, dict]:
    if config.get("bare") and config.get("pi_r"):
        d_bare = ser.kernel_from_json(Path(config["bare"]).read_text())
        pi_r = ser.kernel_from_json(Path(config["pi_r"]).read_text())
        dressed = medium.dress_retarded_grid(d_bare, pi_r)
        return {".json": ser.kernel_to_json(dressed)}, {"n": dressed.grid.n}
    # one-mode toy: delta susceptibility of given strength
    _require(config, "omega0", "coupling")
    d_bare, pi_r, closed, w_shift = medium.one_mode_toy(
        _grid_from_config(config), float(config["omega0"]), float(config["coupling"]))
    dressed = medium.dress_retarded_grid(d_bare, pi_r)
    two_route = float(np.abs(dressed.values - closed).max())
    summary = {"two_route_residual": two_route,
               "shifted_frequency": float(w_shift)}
    return {".json": ser.kernel_to_json(dressed),
            ".check.json": ser.dump_json(summary)}, summary


def run_zero_point(config: dict) -> tuple[dict, dict]:
    _require(config, "s")
    factor = 2.0 * OrderingParam(float(config["s"])).s_minus
    spec = _dirac_spec(config)
    k2 = _k2_values(config)
    density = medium.zero_point_spectrum(k2, spec,
                                         mu_vac=float(config.get("mu_vac", 1.0)),
                                         hbar_c=float(config.get("hbar_c", 1.0)))
    smooth = factor * density.smooth
    deltas = [(loc, factor * w) for loc, w in density.delta_terms]
    csv = ser.momentum_table_to_csv({"k2": density.k_sq, "smooth": smooth},
                                    header_comment="zero-point spectrum (smooth part)")
    ledger = ser.dump_json([{"location_k2": loc, "weight": w} for loc, w in deltas])
    summary = {"points": len(k2), "delta_terms": len(deltas)}
    outputs = {".csv": csv, ".delta.json": ledger}
    if config.get("diagnose_gauge"):
        report = medium.gauge_projector_diagnosis(deltas[0][1])
        outputs[".gauge.json"] = ser.dump_json(report)
        summary["gauge_consistent"] = report["consistent"]
    return outputs, summary


def run_mc(config: dict) -> tuple[dict, dict]:
    _require(config, "samples")
    grid = _grid_from_config(config)
    spec = oscillator.OscillatorSpec(omega0=float(config.get("omega0", 1.0)),
                                     hbar=float(config.get("hbar", 1.0)))
    j_e = None
    if config.get("je_amplitude"):
        amp = float(config["je_amplitude"])
        j_e = Signal(grid, amp * np.cos(spec.omega0 * grid.times))
    res = medium.wyld_mc(spec, grid, int(config["samples"]), int(config["seed"]),
                         J_e=j_e,
                         white_noise_std=float(config.get("white_noise_std", 0.0)),
                         alpha_nbar=float(config.get("alpha_nbar", 0.0)))
    mean_csv = ser.signal_to_csv(Signal(grid, res["mean"]))
    cov_csv = ser.kernel_to_csv(TwoPointKernel(grid, res["cov"]))
    summary = {"samples": res["n_samples"],
               "max_mean_stderr": float(res["mean_stderr"].max()),
               "max_cov_stderr": float(res["cov_stderr"].max())}
    return {".mean.csv": mean_csv, ".cov.csv": cov_csv,
            ".json": ser.dump_json(summary)}, summary


def run_accept(config: dict) -> tuple[dict, dict]:
    from . import acceptance

    results = acceptance.run_all(only=config.get("only"))
    lines = [r.line() for r in results]
    report = "\n".join(lines) + "\n"
    all_pass = all(r.passed for r in results)
    summary = {
        "criteria": {r.name: {"passed": r.passed, "measured": r.measured,
                              "tolerance": r.tolerance} for r in results},
        "all_passed": all_pass,
    }
    return {".txt": report, ".json": ser.dump_json(summary)}, summary


# ----- argument parsing ----------------------------------------------------

def _verb(sub, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """A verb's subparser: its flags are the verb's only schema (see main),
    and it records the handler that runs the verb."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(handler=handler, parser=p)
    p.add_argument("--config", help="JSON file with verb parameters")
    p.add_argument("--out", help="output path prefix")
    return p


def _grid_flags(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--t0", type=float)


def _k2_flags(p: argparse.ArgumentParser):
    p.add_argument("--k2", type=float)
    p.add_argument("--k2-min", type=float)
    p.add_argument("--k2-max", type=float)
    p.add_argument("--n-k2", type=int)


def _pv_flags(p: argparse.ArgumentParser):
    """The Pauli-Villars scheme that _scheme_from_config solves."""
    p.add_argument("--M", type=int)
    p.add_argument("--masses", help="comma-separated mass list mu0,mu1,...")
    p.add_argument("--geometric", type=float, help="geometric mass ratio")
    p.add_argument("--impose-b0", action="store_true", default=None)
    p.add_argument("--precision", choices=["double", "extended"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keldrot",
        description="Generalized Keldysh rotations and Dirac-sea response",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = _verb(sub, "project", run_project, help="frequency-sign projection of a signal")
    p.add_argument("--in", dest="infile")
    p.add_argument("--sign", choices=["+", "-"])
    p.add_argument("--s", type=float)

    posc = sub.add_parser("oscillator", help="harmonic-oscillator kernels")
    osub = posc.add_subparsers(dest="osc_verb", required=True)
    for name, handler in (("kernel", run_oscillator_kernel),
                          ("lambda-check", run_oscillator_lambda_check),
                          ("mc", run_oscillator_mc)):
        p = _verb(osub, name, handler)
        p.add_argument("--omega0", type=float)
        p.add_argument("--hbar", type=float)
        p.add_argument("--nbar", type=float)
        p.add_argument("--m-re", type=float)
        p.add_argument("--m-im", type=float)
        p.add_argument("--s", type=float)
        _grid_flags(p)
        if name == "lambda-check":
            p.add_argument("--draws", type=int)
        if name == "mc":
            p.add_argument("--samples", type=int)
        if name != "kernel":
            p.add_argument("--seed", type=int)

    for verb in ("rotate", "unrotate", "reorder"):
        p = _verb(sub, verb, functools.partial(run_rotation_verb, verb),
                  help=f"{verb} a kernel bundle")
        p.add_argument("--in", dest="infile")
        if verb != "unrotate":
            p.add_argument("--s", type=float)
        if verb == "rotate":
            p.add_argument("--check-consistency", action=argparse.BooleanOptionalAction,
                           default=None)
            p.add_argument("--consistency-tol", type=float)

    p = _verb(sub, "kernels", run_kernels, help="momentum-space free-field kernels")
    p.add_argument("family", choices=["scalar", "photon"])
    p.add_argument("--mu2", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--k0-max", type=float)
    p.add_argument("--n-k0", type=int)
    p.add_argument("--kvec-sq", type=float)

    p = _verb(sub, "vacuum-pol", run_vacuum_pol, help="one-loop vacuum polarization")
    p.add_argument("--mu0", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--kind", choices=["R", "F", "plus"])
    p.add_argument("--renormalized", dest="renormalized", action="store_true",
                   default=None)
    p.add_argument("--unrenormalized", dest="renormalized", action="store_false")
    _k2_flags(p)
    p.add_argument("--k0-sign", type=int, choices=[-1, 1])
    _pv_flags(p)

    p = _verb(sub, "pv-solve", run_pv_solve, help="Pauli-Villars coefficient solver")
    p.add_argument("--mu0", type=float)
    p.add_argument("--alpha", type=float)
    _pv_flags(p)

    p = _verb(sub, "dress", run_dress, help="Dyson dressing of the retarded kernel")
    p.add_argument("--bare", help="bare retarded kernel JSON")
    p.add_argument("--pi-r", dest="pi_r", help="susceptibility kernel JSON")
    p.add_argument("--omega0", type=float)
    p.add_argument("--coupling", type=float)
    _grid_flags(p)

    p = _verb(sub, "zero-point", run_zero_point, help="zero-point fluctuation spectrum")
    p.add_argument("--mu0", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mu-vac", dest="mu_vac", type=float)
    p.add_argument("--hbar-c", dest="hbar_c", type=float)
    p.add_argument("--s", type=float)
    _k2_flags(p)
    p.add_argument("--diagnose-gauge", action="store_true", default=None)

    p = _verb(sub, "mc", run_mc, help="classical stochastic one-mode Monte Carlo")
    p.add_argument("--omega0", type=float)
    p.add_argument("--hbar", type=float)
    _grid_flags(p)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--white-noise-std", type=float)
    p.add_argument("--alpha-nbar", type=float)
    p.add_argument("--je-amplitude", type=float)

    p = _verb(sub, "accept", run_accept, help="run the acceptance suite")
    p.add_argument("--only", help="substring filter on criterion names")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    verb = "-".join(args.parser.prog.split()[1:])  # "keldrot oscillator mc" -> "oscillator-mc"
    # --config and --out are read only from the command line
    flags = {a.dest: a for a in args.parser._actions
             if a.dest not in ("help", "config", "out")}
    cli_params = {k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    out_prefix, config_path = args.out, args.config
    try:
        config = _load_config(config_path, cli_params, flags)
        if "seed" in flags and config.get("seed") is None:
            raise ConfigError(f"--seed is mandatory for the stochastic verb {verb}")
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(ser.dump_json({"error": "config", "detail": str(exc)}))
        return 2
    try:
        outputs, summary = args.handler(config)
    except ConfigError as exc:
        sys.stderr.write(ser.dump_json({"error": "config", "detail": str(exc)}))
        return 2
    except Exception as exc:  # noqa: BLE001 - converted to machine-readable error
        sys.stderr.write(ser.dump_json({"error": "computation", "detail": str(exc)}))
        return 1
    if verb == "accept":
        sys.stdout.write(outputs[".txt"])
        if out_prefix:
            _write_outputs(out_prefix, config, verb, outputs, summary)
        return 0 if summary["all_passed"] else 1
    if out_prefix:
        written = _write_outputs(out_prefix, config, verb, outputs, summary)
        sys.stdout.write(ser.dump_json({"written": written, "summary": summary}))
    else:
        # no --out: print the primary artifact
        primary = sorted(outputs)[0]
        sys.stdout.write(outputs[primary])
    return 0


if __name__ == "__main__":
    sys.exit(main())
