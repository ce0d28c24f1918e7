"""CSV / JSON serialization for signals, kernels and cumulant bundles.

CSV carries the grid in comment headers and full-precision (17 significant
digit) scientific notation so that round trips and acceptance comparisons
are not rounded away.  JSON bundles are written with sorted keys and fixed
separators, making output bytes a pure function of the data.
"""
from __future__ import annotations

import json

import numpy as np

from .grids import OrderingParam, Signal, TimeGrid, TwoPointKernel
from .rotation import CumulantSet, RotatedCumulants

__all__ = [
    "fmt",
    "signal_to_csv",
    "signal_from_csv",
    "kernel_to_csv",
    "kernel_from_csv",
    "signal_from_json",
    "kernel_to_json",
    "kernel_from_json",
    "cumulants_to_json",
    "cumulants_from_json",
    "rotated_to_json",
    "rotated_from_json",
    "dump_json",
    "momentum_table_to_csv",
]


def fmt(x: float) -> str:
    return f"{x:.17g}"


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _grid_header(grid: TimeGrid) -> str:
    return f"# grid n={grid.n} dt={fmt(grid.dt)} t0={fmt(grid.t0)}\n"


def _parse_grid_header(line: str) -> TimeGrid:
    if not line.startswith("# grid"):
        raise ValueError("missing grid header")
    fields = dict(tok.split("=") for tok in line[1:].split() if "=" in tok)
    return TimeGrid(n=int(fields["n"]), dt=float(fields["dt"]), t0=float(fields["t0"]))


def signal_to_csv(f: Signal) -> str:
    lines = ["# keldrot signal\n", _grid_header(f.grid), "t,re,im\n"]
    for t, v in zip(f.grid.times, f.values):
        lines.append(f"{fmt(t)},{fmt(v.real)},{fmt(v.imag)}\n")
    return "".join(lines)


def _real_or_complex(re, im) -> np.ndarray:
    """re + i im, or re alone when every imaginary entry is zero, so real
    data read back stays real."""
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    if re.shape != im.shape:
        raise ValueError(f"real and imaginary parts differ in shape: {re.shape} vs {im.shape}")
    return re + 1j * im if im.any() else re


def signal_from_csv(text: str) -> Signal:
    lines = text.splitlines()
    grid = _parse_grid_header(lines[1])
    ts, re, im = [], [], []
    for line in lines[3:]:
        if not line.strip():
            continue
        t, r, i = line.split(",")
        ts.append(float(t))
        re.append(float(r))
        im.append(float(i))
    sig = Signal(grid, _real_or_complex(re, im))
    off = np.abs(np.array(ts) - grid.times).max(initial=0.0)
    if off > 1e-9 * grid.dt:
        raise ValueError(f"signal CSV t column is {off:.3g} off the header grid (dt={fmt(grid.dt)})")
    return sig


def kernel_to_csv(K: TwoPointKernel) -> str:
    lines = ["# keldrot kernel\n", _grid_header(K.grid), "t,tp,re,im\n"]
    t = K.grid.times
    for i in range(K.grid.n):
        for j in range(K.grid.n):
            v = K.values[i, j]
            lines.append(f"{fmt(t[i])},{fmt(t[j])},{fmt(v.real)},{fmt(v.imag)}\n")
    return "".join(lines)


def kernel_from_csv(text: str) -> TwoPointKernel:
    lines = text.splitlines()
    grid = _parse_grid_header(lines[1])
    re, im = [], []
    for line in lines[3:]:
        if not line.strip():
            continue
        _, _, r, i = line.split(",")
        re.append(float(r))
        im.append(float(i))
    if len(re) != grid.n * grid.n:
        raise ValueError(f"kernel CSV has {len(re)} rows, grid n={grid.n} needs {grid.n ** 2}")
    return TwoPointKernel(grid, _real_or_complex(re, im).reshape(grid.n, grid.n))


def _grid_obj(grid: TimeGrid) -> dict:
    return {"n": grid.n, "dt": grid.dt, "t0": grid.t0}


def _grid_from_obj(obj: dict) -> TimeGrid:
    return TimeGrid(n=int(obj["n"]), dt=float(obj["dt"]), t0=float(obj["t0"]))


_KINDS = {Signal: "signal", TwoPointKernel: "kernel"}


def _to_obj(x: Signal | TwoPointKernel) -> dict:
    return {
        "kind": _KINDS[type(x)],
        "grid": _grid_obj(x.grid),
        "re": x.values.real.tolist(),
        "im": x.values.imag.tolist(),
    }


def _from_obj(obj: dict, cls):
    """Read a Signal or TwoPointKernel (`cls`), refusing the other kind."""
    if obj.get("kind") != _KINDS[cls]:
        raise ValueError(f"expected a {_KINDS[cls]} object, got kind {obj.get('kind')!r}")
    return cls(_grid_from_obj(obj["grid"]), _real_or_complex(obj["re"], obj["im"]))


def signal_from_json(text: str) -> Signal:
    return _from_obj(json.loads(text), Signal)


def kernel_to_json(K: TwoPointKernel) -> str:
    return dump_json(_to_obj(K))


def kernel_from_json(text: str) -> TwoPointKernel:
    return _from_obj(json.loads(text), TwoPointKernel)


def cumulants_to_json(ctl: CumulantSet) -> str:
    return dump_json({
        "kind": "cumulants",
        "hbar_c": ctl.hbar_c,
        "mean": _to_obj(ctl.mean),
        "K_F": _to_obj(ctl.K_F),
        "K_rev": _to_obj(ctl.K_rev),
        "K_W": _to_obj(ctl.K_W),
    })


def cumulants_from_json(text: str) -> CumulantSet:
    obj = json.loads(text)
    if obj.get("kind") != "cumulants":
        raise ValueError("not a cumulant bundle")
    return CumulantSet(
        mean=_from_obj(obj["mean"], Signal),
        K_F=_from_obj(obj["K_F"], TwoPointKernel),
        K_rev=_from_obj(obj["K_rev"], TwoPointKernel),
        K_W=_from_obj(obj["K_W"], TwoPointKernel),
        hbar_c=float(obj["hbar_c"]),
    )


def rotated_to_json(rot: RotatedCumulants) -> str:
    return dump_json({
        "kind": "rotated",
        "s": rot.p.s,
        "hbar_c": rot.hbar_c,
        "mean": _to_obj(rot.mean),
        "D_R": _to_obj(rot.D_R),
        "N_s": _to_obj(rot.N_s),
    })


def rotated_from_json(text: str) -> RotatedCumulants:
    obj = json.loads(text)
    if obj.get("kind") != "rotated":
        raise ValueError("not a rotated bundle")
    return RotatedCumulants(
        mean=_from_obj(obj["mean"], Signal),
        D_R=_from_obj(obj["D_R"], TwoPointKernel),
        N_s=_from_obj(obj["N_s"], TwoPointKernel),
        p=OrderingParam(float(obj["s"])),
        hbar_c=float(obj["hbar_c"]),
    )


def momentum_table_to_csv(columns: dict, header_comment: str = "") -> str:
    """CSV for momentum-space tables: columns maps name -> array.

    Complex columns are split into <name>_re / <name>_im pairs.
    """
    expanded: list[tuple[str, np.ndarray]] = []
    length = None
    for name, arr in columns.items():
        arr = np.asarray(arr)
        if length is None:
            length = len(arr)
        if len(arr) != length:
            raise ValueError("columns must share a length")
        if np.iscomplexobj(arr):
            expanded.append((f"{name}_re", arr.real))
            expanded.append((f"{name}_im", arr.imag))
        else:
            expanded.append((name, arr.astype(float)))
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}\n")
    lines.append(",".join(name for name, _ in expanded) + "\n")
    for i in range(length or 0):
        lines.append(",".join(fmt(arr[i]) for _, arr in expanded) + "\n")
    return "".join(lines)
