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
from .rotation import CumulantSet, RotatedCumulants, _reversed

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


def _parse_grid_header(line: str, kind: str) -> TimeGrid:
    """The grid of a `# grid n=.. dt=.. t0=..` line: its key=value pairs,
    each key given once and each value read as JSON reads a number, are
    checked as a JSON grid object is."""
    if not line.startswith("# grid"):
        raise ValueError("missing grid header")
    fields = {}
    for key, _, word in (tok.partition("=") for tok in line[len("# grid"):].split()):
        if key in fields:
            raise ValueError(f"{kind} CSV grid.{key} is given twice")
        try:
            fields[key] = json.loads(word)
        except ValueError:  # not a number: `_grid_from_obj` names it
            fields[key] = word
    return _grid_from_obj(fields, f"{kind} CSV grid.")


def _csv_rows(columns: list[np.ndarray]) -> list[str]:
    """One CSV line per row of equal-length 1-D columns of entry texts."""
    return [",".join(row) + "\n" for row in zip(*(c.tolist() for c in columns))]


def signal_to_csv(f: Signal) -> str:
    columns = _spelled([f.grid.times, f.values.real, f.values.imag], _csv_words)
    return "".join(["# keldrot signal\n", _grid_header(f.grid), "t,re,im\n", *_csv_rows(columns)])


def _numbers(values, name: str) -> np.ndarray:
    """`values` as a float array, refusing null, string and boolean entries
    (which numpy would read as NaN, as numbers and as 0/1) and the NaN and
    infinite entries that `json.loads` reads from NaN and Infinity, and a
    ragged nesting, which numpy cannot shape.

    A boolean among numbers leaves a numeric dtype, so the entries' types
    are scanned as well, through the nesting that `np.asarray` found.
    """
    try:
        a = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValueError(f"{name} is ragged: its rows differ in length or nesting") from None
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


def _csv_columns(text: str, kind: str, names: tuple) -> tuple[TimeGrid, list[np.ndarray]]:
    """The header grid and the named columns of a signal or kernel CSV, as
    float arrays, each refused (naming it) if an entry is not finite.  The
    kind line and the column line must be the ones the writer puts there."""
    lines = text.splitlines()
    kind_line, grid_line, column_line = (lines + ["", "", ""])[:3]
    for what, want, found in (("kind", f"# keldrot {kind}", kind_line),
                              ("column", ",".join(names), column_line)):
        if found != want:
            raise ValueError(f"{kind} CSV {what} line must read {want!r}, found {found!r}")
    grid = _parse_grid_header(grid_line, kind)
    rows = []
    for line in lines[3:]:
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(names):
            raise ValueError(f"{kind} CSV row {line!r} has {len(fields)} fields, "
                             f"not {len(names)} ({','.join(names)})")
        rows.append([float(x) for x in fields])
    # lists of floats: only a non-finite entry to refuse, so `_numbers` is not needed
    columns = list(np.array(rows, dtype=float).reshape(-1, len(names)).T.copy())
    for name, column in zip(names, columns):
        _require_finite(f"{kind} CSV column {name}", column)
    return grid, columns


def _check_times(kind: str, name: str, column: np.ndarray, want: np.ndarray, grid: TimeGrid):
    """Refuse a time column more than 1e-9 dt off the header grid's times."""
    off = np.abs(column - want).max(initial=0.0)
    if off > 1e-9 * grid.dt:
        raise ValueError(f"{kind} CSV column {name} is {off:.3g} off the header grid "
                         f"(dt={fmt(grid.dt)})")


def signal_from_csv(text: str) -> Signal:
    grid, (ts, re, im) = _csv_columns(text, "signal", ("t", "re", "im"))
    sig = Signal(grid, _real_or_complex(re, im))
    _check_times("signal", "t", ts, grid.times, grid)
    return sig


def kernel_to_csv(K: TwoPointKernel) -> str:
    n = K.grid.n
    t, re, im = _spelled([K.grid.times, K.values.real, K.values.imag], _csv_words)
    rows = _csv_rows([np.repeat(t, n), np.tile(t, n), re.ravel(), im.ravel()])
    return "".join(["# keldrot kernel\n", _grid_header(K.grid), "t,tp,re,im\n", *rows])


def kernel_from_csv(text: str) -> TwoPointKernel:
    """The kernel of a CSV listed t-major, as `kernel_to_csv` writes it: the
    t and tp columns must be the header grid's times in that order."""
    grid, (ts, tps, re, im) = _csv_columns(text, "kernel", ("t", "tp", "re", "im"))
    n = grid.n
    if len(re) != n * n:
        raise ValueError(f"kernel CSV has {len(re)} rows, grid n={n} needs {n ** 2}")
    t = grid.times
    _check_times("kernel", "t", ts, np.repeat(t, n), grid)
    _check_times("kernel", "tp", tps, np.tile(t, n), grid)
    return TwoPointKernel(grid, _real_or_complex(re, im).reshape(n, n))


def _grid_obj(grid: TimeGrid) -> dict:
    return {"n": grid.n, "dt": grid.dt, "t0": grid.t0}


_JSON_TYPES = {list: "an array", str: "a string", bool: "a boolean", int: "a number",
               float: "a number", type(None): "null"}  # what json.loads reads as each type


def _object(value, path: str) -> dict:
    """`value`, if it is a JSON object, else a ValueError naming `path`."""
    if not isinstance(value, dict):
        raise ValueError(f"{path} must be a JSON object, got {_JSON_TYPES[type(value)]}")
    return value


def _field(obj: dict, key: str, where: str):
    """obj[key], or a ValueError naming the missing key by its path."""
    if key not in obj:
        raise ValueError(f"{where}{key} is missing")
    return obj[key]


def _scalar(obj: dict, key: str, where: str = "", kind: type = float):
    """obj[key] as `kind` (int or float), refusing null, strings, booleans
    and, for an int, a fractional number."""
    v = _field(obj, key, where)
    if isinstance(v, bool) or not isinstance(v, int if kind is int else (int, float)):
        want = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}{key} must be {want}, got {json.dumps(v)}")
    return kind(v)


def _grid_from_obj(obj: dict, where: str) -> TimeGrid:
    _object(obj, where[:-1])
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
    _object(obj, where[:-1] or _KINDS[cls])
    if obj.get("kind") != _KINDS[cls]:
        raise ValueError(f"expected a {_KINDS[cls]} object, got kind {obj.get('kind')!r}")
    grid = _grid_from_obj(_field(obj, "grid", where), f"{where}grid.")
    re, im = (_numbers(_field(obj, key, where), f"{where}{key}") for key in ("re", "im"))
    return cls(grid, _real_or_complex(re, im))


def _member(bundle: dict, key: str, cls):
    """The Signal or TwoPointKernel stored under `key` of a bundle."""
    return _from_obj(_field(bundle, key, ""), cls, f"{key}.")


def signal_from_json(text: str) -> Signal:
    return _from_obj(json.loads(text), Signal)


def kernel_to_json(K: TwoPointKernel) -> str:
    return dump_json(_to_obj(K))


def kernel_from_json(text: str) -> TwoPointKernel:
    return _from_obj(json.loads(text), TwoPointKernel)


def cumulants_to_json(ctl: CumulantSet) -> str:
    k_f = ctl.K_F  # derived once; K_rev is its conjugate
    return dump_json({
        "kind": "cumulants",
        "hbar_c": ctl.hbar_c,
        "mean": _to_obj(ctl.mean),
        "K_F": _to_obj(k_f),
        "K_rev": _to_obj(_reversed(k_f)),
        "K_W": _to_obj(ctl.K_W),
    })


def cumulants_from_json(text: str) -> CumulantSet:
    """The set stored by the bundle's K_W, once its triple passes a
    Hermitian field's checks (`CumulantSet._from_triple`)."""
    obj = _object(json.loads(text), "cumulant bundle")
    if obj.get("kind") != "cumulants":
        raise ValueError("not a cumulant bundle")
    return CumulantSet._from_triple(
        _member(obj, "mean", Signal), _member(obj, "K_F", TwoPointKernel),
        _member(obj, "K_rev", TwoPointKernel), _member(obj, "K_W", TwoPointKernel),
        _scalar(obj, "hbar_c"))


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
    obj = _object(json.loads(text), "rotated bundle")
    if obj.get("kind") != "rotated":
        raise ValueError("not a rotated bundle")
    return RotatedCumulants(
        mean=_member(obj, "mean", Signal),
        D_R=_member(obj, "D_R", TwoPointKernel),
        N_s=_member(obj, "N_s", TwoPointKernel),
        p=OrderingParam(_scalar(obj, "s")),
        hbar_c=_scalar(obj, "hbar_c"),
    )


def momentum_table_to_csv(columns: dict, header_comment: str) -> str:
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
