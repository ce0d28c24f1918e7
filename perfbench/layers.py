"""Per-layer metrics computed from the spans of a traced run.

Each metric is named ``module.function.quantity``.  Times are self times:
a span's duration minus the time of the spans it opened.  ``ms`` is the
median per call and ``ms_per_point`` the median per point; rates divide
the summed work by the summed self time.  A metric whose layer the
workload never calls reads 0.
"""
from __future__ import annotations

import statistics

from spans import LAYERS

SERIALIZATION_RATES = ["cumulants_to_json", "cumulants_from_json", "rotated_to_json",
                       "rotated_from_json", "kernel_to_json", "kernel_from_json",
                       "kernel_to_csv", "signal_from_csv"]
CLI_VERBS = ["rotate", "unrotate", "reorder", "dress", "project", "kernels", "vacuum-pol",
             "pv-solve", "zero-point", "mc", "oscillator-mc", "accept"]
CRITERIA = ["01-projection-algebra", "02-oscillator-reordering", "03-lambda-identities",
            "04-rotation-roundtrip", "05-vacuum-pol-low-k", "06-pi-plus-consistency",
            "07-pv-solver", "08-zero-point-two-route", "09-empty-vacuum",
            "10-mc-correspondence", "11-dyson-two-route"]

# name -> (unit, better, kind, span name, label)
PER_LAYER: dict[str, tuple] = {
    "pvreg.solve_pv.ms": ("ms", "lower", "ms", "pvreg.solve_pv", None),
    "pvreg.solve_pv.ms_hardest": ("ms", "lower", "ms", "pvreg.solve_pv", "hardest"),
    "pvreg.moment_integral_exact.ms": ("ms", "lower", "ms", "pvreg.moment_integral_exact", None),
    "diracsea.R_obs.below_ms_per_point": ("ms", "lower", "ms", "diracsea.R_obs", "below"),
    "diracsea.R_obs.above_ms_per_point": ("ms", "lower", "ms", "diracsea.R_obs", "above"),
    "diracsea.Pi_R_reg.ms_per_point": ("ms", "lower", "ms", "diracsea.Pi_R_reg", None),
    "diracsea.Pi_F_reg.ms_per_point": ("ms", "lower", "ms", "diracsea.Pi_F_reg", None),
    "diracsea.Pi_plus.ms_per_point": ("ms", "lower", "ms", "diracsea.Pi_plus", None),
    "diracsea.R_obs_finite_eps.ms_per_point": ("ms", "lower", "ms", "diracsea.R_obs_finite_eps", None),
    "diracsea.kramers_kronig_real_part.ms_per_point":
        ("ms", "lower", "ms", "diracsea.kramers_kronig_real_part", None),
    "diracsea.R0_quadrature.ms": ("ms", "lower", "ms", "diracsea.R0_quadrature", None),
    "diracsea.integration_warnings": ("count", "lower", "warnings", None, None),
    "diracsea.K_reg_coordinate.ms_per_point": ("ms", "lower", "ms", "diracsea.K_reg_coordinate", "point"),
    "diracsea.K_reg_coordinate.cone_ms": ("ms", "lower", "ms", "diracsea.K_reg_coordinate", "cone"),
    "diracsea.K_reg_coordinate.failed": ("count", "lower", "failed", "diracsea.K_reg_coordinate", None),
    "medium.zero_point_spectrum.ms_per_point":
        ("ms", "lower", "ms_per_point", "medium.zero_point_spectrum", None),
    "medium.dress_retarded_grid.ms": ("ms", "lower", "ms", "medium.dress_retarded_grid", None),
    "medium.noise_map.ms": ("ms", "lower", "ms", "medium.noise_map", None),
    "medium.mean_field.ms": ("ms", "lower", "ms", "medium.mean_field", None),
    "medium.wave_operator_residual.ms": ("ms", "lower", "ms", "medium.wave_operator_residual", None),
    "medium.wyld_mc.samples_per_s": ("1/s", "higher", "rate", "medium.wyld_mc", None),
    "oscillator.ctl_cumulants.ms": ("ms", "lower", "ms", "oscillator.ctl_cumulants", None),
    "oscillator.s_ordered_kernel.ms": ("ms", "lower", "ms", "oscillator.s_ordered_kernel", None),
    "oscillator.mc_quasiaverage.samples_per_s":
        ("1/s", "higher", "rate", "oscillator.mc_quasiaverage", None),
    "rotation.synthetic_cumulants.ms": ("ms", "lower", "ms", "rotation.synthetic_cumulants", None),
    "rotation.rotate.stationary_ms": ("ms", "lower", "ms", "rotation.rotate", "stationary"),
    "rotation.rotate.nonstationary_ms": ("ms", "lower", "ms", "rotation.rotate", "nonstationary"),
    "rotation.unrotate.ms": ("ms", "lower", "ms", "rotation.unrotate", None),
    "rotation.reorder.ms": ("ms", "lower", "ms", "rotation.reorder", None),
    "rotation.reorder_gap_kernel.ms": ("ms", "lower", "ms", "rotation.reorder_gap_kernel", None),
    "grids.project_kernel_axis.ms": ("ms", "lower", "ms", "grids.project_kernel_axis", None),
    "grids.theta_ordering_matrix.ms": ("ms", "lower", "ms", "grids.theta_ordering_matrix", None),
    "fieldkernels.scalar_kernels.ms": ("ms", "lower", "ms", "fieldkernels.scalar_kernels", None),
    "fieldkernels.photon_keldysh_pair.ms":
        ("ms", "lower", "ms", "fieldkernels.photon_keldysh_pair", None),
    **{f"serialization.{fn}.mb_per_s": ("MB/s", "higher", "mb_per_s", f"serialization.{fn}", None)
       for fn in SERIALIZATION_RATES},
    "serialization.bytes_written": ("bytes", "lower", "bytes", "written", None),
    "serialization.bytes_read": ("bytes", "lower", "bytes", "read", None),
    "cli.startup_s": ("s", "lower", "workload", None, None),
    **{f"cli.{verb}.s": ("s", "lower", "s", f"cli.{verb}", None) for verb in CLI_VERBS},
    **{f"acceptance.{c}.s": ("s", "lower", "s", f"acceptance.{c}", None) for c in CRITERIA},
    **{f"{layer}.self_s": ("s", "lower", "layer", layer, None) for layer in LAYERS},
    "trace.wall_s": ("s", "lower", "workload", None, None),
    "trace.overhead_s": ("s", "lower", "workload", None, None),
    # workload rates, taken from the untraced pass of the traced run
    "k2_points_per_s": ("1/s", "higher", "workload", None, None),
    "x2_points_per_s": ("1/s", "higher", "workload", None, None),
    "mc_samples_per_s": ("1/s", "higher", "workload", None, None),
    "accept_s": ("s", "lower", "workload", None, None),
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _io_direction(span_name: str) -> str | None:
    """'read' for serialization parsers, 'written' for its formatters."""
    if not span_name.startswith("serialization."):
        return None
    if "_from_" in span_name:
        return "read"
    if "_to_" in span_name or span_name.endswith(".dump_json"):
        return "written"
    return None


def _matching(spans, name, label):
    return [s for s in spans if s.ok and s.name == name and (label is None or s.label == label)]


def layer_metrics(passes: list[list], warnings_per_pass: list[int]) -> dict:
    """Per-layer metrics from the spans of each traced pass."""
    spans = [s for p in passes for s in p]
    out = {}
    for metric, (unit, _, kind, name, label) in PER_LAYER.items():
        if kind == "ms":
            val = 1e3 * _median(s.self_time for s in _matching(spans, name, label))
        elif kind == "ms_per_point":
            val = 1e3 * _median(s.self_time / s.quantity for s in _matching(spans, name, label))
        elif kind == "s":
            val = _median(s.self_time for s in _matching(spans, name, label))
        elif kind in ("rate", "mb_per_s"):
            hits = _matching(spans, name, label)
            busy = sum(s.self_time for s in hits)
            val = sum(s.quantity for s in hits) / busy if busy > 0 else 0.0
            if kind == "mb_per_s":
                val /= 1e6
        elif kind == "bytes":
            val = _median(sum(s.quantity for s in p if s.ok and _io_direction(s.name) == name)
                          for p in passes)
        elif kind == "failed":
            val = _median(sum(1 for s in p if s.name == name and not s.ok) for p in passes)
        elif kind == "layer":
            val = _median(sum(s.self_time for s in p if s.name.split(".")[0] == name)
                          for p in passes)
        elif kind == "warnings":
            val = _median(warnings_per_pass)
        else:
            continue
        out[metric] = {"value": float(val), "unit": unit}
    return out
