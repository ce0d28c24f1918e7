"""CSV / JSON serialization for signals, kernels and cumulant bundles.

CSV carries the grid in comment headers and full-precision (17 significant
digit) scientific notation so that round trips and acceptance comparisons
are not rounded away.  JSON bundles are written with sorted keys and fixed
separators, making output bytes a pure function of the data.

Every writer turns its floats into text in one place, `_spelled`: it
formats each distinct float64 bit pattern of a document once and gathers
each entry's text from those words.  A word is the text `json.dumps`
(JSON) or `fmt` (CSV) gives that value, so the bytes are still a pure
function of the data, the same as formatting every entry on its own.  A
cumulant or rotated bundle holds about a fifth as many distinct patterns
as entries: K_F and K_rev reuse the values of K_W, Re K_W and N_s are
symmetric, and D_R's upper triangle and a real kernel's imaginary part
are zeros.
"""
from __future__ import annotations

import itertools
import json

import numpy as np

from .grids import OrderingParam, Signal, TimeGrid, TwoPointKernel, _require_finite
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


def _csv_words(values: np.ndarray) -> list[str]:
    return [fmt(x) for x in values.tolist()]


def _json_words(values: np.ndarray) -> list[str]:
    # `_spelled` never passes an empty array, for which this would be [""]
    return json.dumps(values.tolist(), separators=(",", ":"))[1:-1].split(",")


def _spelled(arrays: list[np.ndarray], words) -> list[np.ndarray]:
    """The text of every entry of `arrays`, as object arrays of their shapes.

    `words(values)` spells a 1-D float64 array entry by entry; it is called
    once, on the distinct bit patterns among all entries, and each entry
    takes its pattern's word.
    """
    if not arrays:
        return []
    sizes = [np.size(a) for a in arrays]
    bits = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays]).view(np.int64)
    # +0.0 (imaginary parts of real data, a retarded kernel's upper
    # triangle) is often most of the entries; it takes word 0 unsorted
    nonzero = bits != 0
    distinct, inverse = np.unique(bits[nonzero], return_inverse=True)
    index = np.zeros(bits.size, dtype=np.intp)
    index[nonzero] = inverse + 1
    values = np.concatenate([[0.0], distinct.view(np.float64)])
    tokens = np.array(words(values), dtype=object)[index]
    parts = np.split(tokens, np.cumsum(sizes)[:-1])
    return [t.reshape(np.shape(a)) for t, a in zip(parts, arrays)]


def _json_array(tokens: np.ndarray) -> str:
    """The JSON nested list of an array of entry texts (altered in place)."""
    if tokens.ndim == 1:
        return "[" + ",".join(tokens.tolist()) + "]"
    if tokens.ndim == 2 and tokens.shape[1]:
        tokens[:, 0] = "[" + tokens[:, 0]
        tokens[:, -1] = tokens[:, -1] + "]"
        return "[" + ",".join(tokens.ravel().tolist()) + "]"
    return "[" + ",".join(map(_json_array, tokens)) + "]"


def _arrays(obj) -> list[np.ndarray]:
    """The arrays among `obj`'s dict values, nested dicts included, in the
    order that sorted-key JSON writes them."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        return [a for key in sorted(obj) for a in _arrays(obj[key])]
    return []


def _chunks(obj, texts):
    """Sorted-key JSON of `obj` in pieces, each array taking the next text
    of `texts`."""
    if isinstance(obj, np.ndarray):
        yield next(texts)
    elif isinstance(obj, dict) and _arrays(obj):
        for i, key in enumerate(sorted(obj)):
            yield ("{" if i == 0 else ",") + json.dumps(key) + ":"
            yield from _chunks(obj[key], texts)
        yield "}"
    else:
        yield json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dump_json(obj) -> str:
    """`obj` as JSON with sorted keys and no spaces, plus a newline.

    A numpy array among the dict values (string keys) is written as the
    nested list of its float64 entries, the bytes `json.dumps` gives its
    `.tolist()`.
    """
    texts = map(_json_array, _spelled(_arrays(obj), _json_words))
    return "".join([*_chunks(obj, texts), "\n"])


def _grid_header(grid: TimeGrid) -> str:
    return f"# grid n={grid.n} dt={fmt(grid.dt)} t0={fmt(grid.t0)}\n"


def _parse_grid_header(line: str) -> TimeGrid:
    if not line.startswith("# grid"):
        raise ValueError("missing grid header")
    fields = dict(tok.split("=") for tok in line[1:].split() if "=" in tok)
    return TimeGrid(n=int(fields["n"]), dt=float(fields["dt"]), t0=float(fields["t0"]))


def _csv_rows(columns: list[np.ndarray]) -> list[str]:
    """One CSV line per row of equal-length 1-D columns of entry texts."""
    return [",".join(row) + "\n" for row in zip(*(c.tolist() for c in columns))]


def signal_to_csv(f: Signal) -> str:
    columns = _spelled([f.grid.times, f.values.real, f.values.imag], _csv_words)
    return "".join(["# keldrot signal\n", _grid_header(f.grid), "t,re,im\n", *_csv_rows(columns)])


def _numbers(values, name: str) -> np.ndarray:
    """`values` as a float array, refusing null, string and boolean entries
    (which numpy would read as NaN, as numbers and as 0/1) and the NaN and
    infinite entries that `json.loads` reads from NaN and Infinity.

    A boolean among numbers leaves a numeric dtype, so the entries' types
    are scanned as well, through the nesting that `np.asarray` found.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "fiu":
        raise ValueError(f"{name} must hold numbers only; its entries read as {a.dtype} "
                         "(a null, string or boolean entry?)")
    entries = values
    for _ in range(a.ndim - 1):
        entries = itertools.chain.from_iterable(entries)
    if a.ndim and bool in set(map(type, entries)):
        raise ValueError(f"{name} must hold numbers only; it has a boolean entry")
    a = a.astype(float, copy=False)
    _require_finite(name, a)
    return a


def _real_or_complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im, or re alone when every imaginary entry is zero, so real
    data read back stays real."""
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
    # lists of floats: only a non-finite entry to refuse, so `_numbers` is not needed
    ts, re, im = np.array(ts), np.array(re), np.array(im)
    for name, column in (("t", ts), ("re", re), ("im", im)):
        _require_finite(f"signal CSV column {name}", column)
    sig = Signal(grid, _real_or_complex(re, im))
    off = np.abs(ts - grid.times).max(initial=0.0)
    if off > 1e-9 * grid.dt:
        raise ValueError(f"signal CSV t column is {off:.3g} off the header grid (dt={fmt(grid.dt)})")
    return sig


def kernel_to_csv(K: TwoPointKernel) -> str:
    n = K.grid.n
    t, re, im = _spelled([K.grid.times, K.values.real, K.values.imag], _csv_words)
    rows = _csv_rows([np.repeat(t, n), np.tile(t, n), re.ravel(), im.ravel()])
    return "".join(["# keldrot kernel\n", _grid_header(K.grid), "t,tp,re,im\n", *rows])


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
    re, im = np.array(re), np.array(im)
    for name, column in (("re", re), ("im", im)):
        _require_finite(f"kernel CSV column {name}", column)
    return TwoPointKernel(grid, _real_or_complex(re, im).reshape(grid.n, grid.n))


def _grid_obj(grid: TimeGrid) -> dict:
    return {"n": grid.n, "dt": grid.dt, "t0": grid.t0}


def _scalar(obj: dict, key: str, where: str = "", kind: type = float):
    """obj[key] as `kind` (int or float), refusing null, strings, booleans
    and, for an int, a fractional number."""
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int if kind is int else (int, float)):
        want = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}{key} must be {want}, got {json.dumps(v)}")
    return kind(v)


def _grid_from_obj(obj: dict, where: str) -> TimeGrid:
    return TimeGrid(n=_scalar(obj, "n", where, int), dt=_scalar(obj, "dt", where),
                    t0=_scalar(obj, "t0", where))


_KINDS = {Signal: "signal", TwoPointKernel: "kernel"}


def _to_obj(x: Signal | TwoPointKernel) -> dict:
    return {
        "kind": _KINDS[type(x)],
        "grid": _grid_obj(x.grid),
        "re": x.values.real,
        "im": x.values.imag,
    }


def _from_obj(obj: dict, cls, where: str = ""):
    """Read a Signal or TwoPointKernel (`cls`), refusing the other kind;
    `where` is the key path prefixed to the keys named in errors."""
    if obj.get("kind") != _KINDS[cls]:
        raise ValueError(f"expected a {_KINDS[cls]} object, got kind {obj.get('kind')!r}")
    grid = _grid_from_obj(obj["grid"], f"{where}grid.")
    re, im = _numbers(obj["re"], f"{where}re"), _numbers(obj["im"], f"{where}im")
    return cls(grid, _real_or_complex(re, im))


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
        mean=_from_obj(obj["mean"], Signal, "mean."),
        K_F=_from_obj(obj["K_F"], TwoPointKernel, "K_F."),
        K_rev=_from_obj(obj["K_rev"], TwoPointKernel, "K_rev."),
        K_W=_from_obj(obj["K_W"], TwoPointKernel, "K_W."),
        hbar_c=_scalar(obj, "hbar_c"),
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
        mean=_from_obj(obj["mean"], Signal, "mean."),
        D_R=_from_obj(obj["D_R"], TwoPointKernel, "D_R."),
        N_s=_from_obj(obj["N_s"], TwoPointKernel, "N_s."),
        p=OrderingParam(_scalar(obj, "s")),
        hbar_c=_scalar(obj, "hbar_c"),
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
    lines += _csv_rows(_spelled([arr for _, arr in expanded], _csv_words))
    return "".join(lines)
