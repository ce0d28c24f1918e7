import dataclasses
import json
import re

import numpy as np
import pytest

from keldrot.grids import OrderingParam, Signal, TimeGrid, TwoPointKernel
from keldrot.oscillator import GaussianState, OscillatorSpec, ctl_cumulants
from keldrot.rotation import ConsistencyError, rotate, synthetic_cumulants
from keldrot import rotation
from keldrot import serialization as ser


@pytest.fixture
def grid():
    return TimeGrid(16, 0.25, t0=-1.0)


@pytest.fixture
def signal(grid):
    rng = np.random.default_rng(0)
    return Signal(grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))


@pytest.fixture
def kernel(grid):
    rng = np.random.default_rng(1)
    return TwoPointKernel(grid, rng.normal(size=(grid.n, grid.n))
                          + 1j * rng.normal(size=(grid.n, grid.n)))


def signal_json(f):
    """A signal in the JSON form that `signal_from_json` reads."""
    grid = {"n": f.grid.n, "dt": f.grid.dt, "t0": f.grid.t0}
    return json.dumps({"kind": "signal", "grid": grid,
                       "re": f.values.real.tolist(), "im": f.values.imag.tolist()})


class TestSignalRoundTrip:
    def test_csv(self, signal):
        back = ser.signal_from_csv(ser.signal_to_csv(signal))
        assert back.grid == signal.grid
        assert np.array_equal(back.values, signal.values)

    def test_json(self, signal):
        back = ser.signal_from_json(signal_json(signal))
        assert back.grid == signal.grid
        assert np.array_equal(back.values, signal.values)

    @pytest.mark.parametrize("head, message", [
        ("# keldrot signal\n{grid}t,im,re\n",
         "signal CSV column line must read 't,re,im', found 't,im,re'"),
        ("# keldrot kernel\n{grid}t,re,im\n",
         "signal CSV kind line must read '# keldrot signal', found '# keldrot kernel'"),
        ("", "signal CSV kind line must read '# keldrot signal', found ''"),
        ("# keldrot signal\n", "signal CSV column line must read 't,re,im', found ''"),
    ], ids=["swapped columns", "kernel kind", "empty", "one line"])
    def test_header_lines_checked(self, signal, head, message):
        lines = ser.signal_to_csv(signal).splitlines(keepends=True)
        head = head.format(grid=lines[1])
        body = "".join(lines[3:]) if head.count("\n") == 3 else ""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ser.signal_from_csv(head + body)

    def test_shifted_t_column_rejected(self, signal):
        grid = signal.grid
        shifted = Signal(TimeGrid(grid.n, grid.dt, t0=grid.t0 + 1e-6 * grid.dt), signal.values)
        lines = ser.signal_to_csv(shifted).splitlines(keepends=True)
        lines[1] = ser.signal_to_csv(signal).splitlines(keepends=True)[1]
        with pytest.raises(ValueError, match="signal CSV column t is .* off the header grid"):
            ser.signal_from_csv("".join(lines))

    def test_csv_round_trip_on_inexact_grid(self):
        grid = TimeGrid(1000, 0.1, t0=-37.3)
        sig = Signal(grid, np.linspace(-1.0, 1.0, grid.n) * (1.0 - 0.5j))
        back = ser.signal_from_csv(ser.signal_to_csv(sig))
        assert back.grid == grid
        assert np.array_equal(back.values, sig.values)

    def test_csv_carries_grid_header(self, signal):
        text = ser.signal_to_csv(signal)
        assert text.splitlines()[1] == "# grid n=16 dt=0.25 t0=-1"


class TestKernelRoundTrip:
    def test_csv(self, kernel):
        back = ser.kernel_from_csv(ser.kernel_to_csv(kernel))
        assert np.array_equal(back.values, kernel.values)

    def test_json(self, kernel):
        back = ser.kernel_from_json(ser.kernel_to_json(kernel))
        assert np.array_equal(back.values, kernel.values)

    def test_tp_major_csv_rejected(self, kernel):
        # the same rows listed tp-major would read back as K^T
        text = ser.kernel_to_csv(kernel)
        head, body = text.split("t,tp,re,im\n")
        rows = body.splitlines(keepends=True)
        n = kernel.grid.n
        tp_major = [rows[(k % n) * n + k // n] for k in range(n * n)]
        with pytest.raises(ValueError, match="kernel CSV column t is .* off the header grid"):
            ser.kernel_from_csv(head + "t,tp,re,im\n" + "".join(tp_major))

    @pytest.mark.parametrize("column", ["t", "tp"])
    @pytest.mark.parametrize("word, message", [
        ("99", "kernel CSV column {} is .* off the header grid"),
        ("nan", "kernel CSV column {} must be finite, got nan")])
    def test_time_column_checked(self, kernel, column, word, message):
        lines = ser.kernel_to_csv(kernel).splitlines(keepends=True)
        fields = lines[7].rstrip("\n").split(",")
        fields[["t", "tp"].index(column)] = word
        lines[7] = ",".join(fields) + "\n"
        with pytest.raises(ValueError, match=message.format(column)):
            ser.kernel_from_csv("".join(lines))

    def test_short_csv_rejected(self, kernel):
        text = ser.kernel_to_csv(kernel)
        with pytest.raises(ValueError, match="rows"):
            ser.kernel_from_csv(text[: text.rindex("\n", 0, -1) + 1])


class TestBundles:
    def test_cumulants_round_trip(self, grid):
        spec = OscillatorSpec(omega0=grid.resonant_frequency(3))
        ctl = ctl_cumulants(spec, GaussianState(nbar=0.5), grid, periodic=False)
        back = ser.cumulants_from_json(ser.cumulants_to_json(ctl))
        for a, b in ((back.K_F, ctl.K_F), (back.K_W, ctl.K_W), (back.K_rev, ctl.K_rev)):
            assert np.array_equal(a.values, b.values)
        assert back.hbar_c == ctl.hbar_c

    def test_rotated_round_trip(self, grid):
        spec = OscillatorSpec(omega0=grid.resonant_frequency(3))
        ctl = ctl_cumulants(spec, GaussianState(nbar=0.5), grid, periodic=False)
        rot = rotate(ctl, OrderingParam(0.25))
        back = ser.rotated_from_json(ser.rotated_to_json(rot))
        assert back.p.s == 0.25
        assert np.array_equal(back.D_R.values, rot.D_R.values)
        assert np.array_equal(back.N_s.values, rot.N_s.values)

    def test_kind_mismatch_rejected(self, grid):
        spec = OscillatorSpec(omega0=grid.resonant_frequency(3))
        ctl = ctl_cumulants(spec, GaussianState(), grid, periodic=False)
        text = ser.cumulants_to_json(ctl)
        with pytest.raises(ValueError, match="rotated"):
            ser.rotated_from_json(text)

    def test_kernel_read_as_signal_rejected(self, kernel):
        with pytest.raises(ValueError, match="signal.*'kernel'"):
            ser.signal_from_json(ser.kernel_to_json(kernel))

    @pytest.mark.parametrize("periodic", [False, True])
    def test_cumulants_read_as_the_set_stored_by_k_w(self, grid, periodic):
        ctl = ctl_cumulants(OscillatorSpec(omega0=grid.resonant_frequency(3)),
                            GaussianState(nbar=0.5, m=0.2j), grid, periodic=periodic)
        back = ser.cumulants_from_json(ser.cumulants_to_json(ctl))
        assert [f.name for f in dataclasses.fields(back)] == ["mean", "K_W", "hbar_c", "periodic"]
        assert back.periodic == periodic and back.residual < 1e-15


def _shift_entry(obj: dict, key: str, part: str, shift: float, at=(3, 5)) -> dict:
    obj[key][part][at[0]][at[1]] += shift
    return obj


# a file triple that fails one identity and passes the ones checked before
# it, and the error that names it; K_F + K_rev and K_W + K_W^T stay the same
BAD_TRIPLES = {
    "CTL identity": (lambda o: _shift_entry(o, "K_F", "re", 1e-3),
                     r"^cumulant set violates the CTL consistency identity: residual \d"),
    "K_rev = K_F*": (lambda o: _shift_entry(_shift_entry(o, "K_F", "re", 1e-3), "K_rev", "re", -1e-3),
                     r"^K_rev != K_F\* \(non-Hermitian field data not supported\): residual \d"),
    "K_W Hermitian": (lambda o: _shift_entry(_shift_entry(o, "K_W", "re", 1e-3), "K_W", "re", -1e-3,
                                             at=(5, 3)),
                      r"^K_W is not Hermitian: residual \d"),
    "theta split": (lambda o: _shift_entry(_shift_entry(o, "K_F", "im", 1e-3), "K_rev", "im", -1e-3),
                    r"^K_F is not the theta split of K_W in either time representation: residual \d"),
}


@pytest.mark.parametrize("case", BAD_TRIPLES)
def test_cumulant_reader_names_the_failed_identity(grid, case):
    ctl = synthetic_cumulants(grid, np.random.default_rng(10))
    spoil, message = BAD_TRIPLES[case]
    text = json.dumps(spoil(json.loads(ser.cumulants_to_json(ctl))))
    with pytest.raises(ConsistencyError, match=message):
        ser.cumulants_from_json(text)


# (reader, document, the error that names the path of what is not an object)
NOT_OBJECTS = [
    ("kernel", "[1, 2]", "kernel must be a JSON object, got an array"),
    ("kernel", '"n=4"', "kernel must be a JSON object, got a string"),
    ("kernel", {"grid": "n=4"}, "grid must be a JSON object, got a string"),
    ("signal", "3", "signal must be a JSON object, got a number"),
    ("signal", {"grid": [16, 0.25, -1.0]}, "grid must be a JSON object, got an array"),
    ("cumulants", "[]", "cumulant bundle must be a JSON object, got an array"),
    ("cumulants", {"mean": [1]}, "mean must be a JSON object, got an array"),
    ("cumulants", {"K_W.grid": "n=4"}, r"K_W\.grid must be a JSON object, got a string"),
    ("rotated", "null", "rotated bundle must be a JSON object, got null"),
    ("rotated", {"N_s": "N_s"}, "N_s must be a JSON object, got a string"),
]


@pytest.mark.parametrize("reader,document,message", NOT_OBJECTS)
def test_reader_names_a_non_object(grid, signal, kernel, reader, document, message):
    if isinstance(document, dict):  # a member of a document the writer wrote
        ctl = synthetic_cumulants(grid, np.random.default_rng(11))
        obj = json.loads({"kernel": lambda: ser.kernel_to_json(kernel),
                          "signal": lambda: signal_json(signal),
                          "cumulants": lambda: ser.cumulants_to_json(ctl),
                          "rotated": lambda: ser.rotated_to_json(rotate(ctl, OrderingParam(0.5)))
                          }[reader]())
        (path, value), = document.items()
        *parents, key = path.split(".")
        target = obj
        for parent in parents:
            target = target[parent]
        target[key] = value
        document = json.dumps(obj)
    with pytest.raises(ValueError, match=f"^{message}$"):
        getattr(ser, f"{reader}_from_json")(document)


class TestRealData:
    """Real data is written with zero imaginary columns and read back real."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_real_signal_round_trip(self, grid, fmt):
        sig = Signal(grid, np.random.default_rng(2).normal(size=grid.n))
        write = {"csv": ser.signal_to_csv, "json": signal_json}[fmt]
        back = getattr(ser, f"signal_from_{fmt}")(write(sig))
        assert back.values.dtype == np.float64
        assert back.values.tobytes() == sig.values.tobytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_real_kernel_round_trip(self, grid, fmt):
        K = TwoPointKernel(grid, np.random.default_rng(3).normal(size=(grid.n, grid.n)))
        write, read = getattr(ser, f"kernel_to_{fmt}"), getattr(ser, f"kernel_from_{fmt}")
        back = read(write(K))
        assert back.values.dtype == np.float64
        assert back.values.tobytes() == K.values.tobytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_imaginary_entry_reads_complex(self, grid, fmt):
        vals = np.random.default_rng(4).normal(size=(grid.n, grid.n)).astype(complex)
        vals[3, 5] += 1e-300j
        write, read = getattr(ser, f"kernel_to_{fmt}"), getattr(ser, f"kernel_from_{fmt}")
        back = read(write(TwoPointKernel(grid, vals)))
        assert back.values.dtype == np.complex128
        assert np.array_equal(back.values, vals)

    def test_mismatched_parts_rejected(self, grid):
        obj = json.loads(signal_json(Signal(grid, np.zeros(grid.n))))
        obj["im"].pop()
        with pytest.raises(ValueError, match="differ in shape"):
            ser.signal_from_json(json.dumps(obj))


class TestDeterminism:
    def test_bytes_are_stable(self, signal, kernel):
        assert ser.signal_to_csv(signal) == ser.signal_to_csv(signal)
        assert ser.kernel_to_json(kernel) == ser.kernel_to_json(kernel)

    def test_full_precision_survives(self, grid):
        v = np.full(grid.n, 1.0 / 3.0 + 1e-16j)
        sig = Signal(grid, v)
        back = ser.signal_from_csv(ser.signal_to_csv(sig))
        assert np.array_equal(back.values, v)


class TestMomentumTable:
    def test_complex_columns_split(self):
        text = ser.momentum_table_to_csv({"k0": np.array([1.0, 2.0]),
                                          "D": np.array([1 + 2j, 3 - 4j])}, "")
        lines = text.splitlines()
        assert lines[0] == "k0,D_re,D_im"
        assert lines[1] == "1,1,2"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ser.momentum_table_to_csv({"a": np.ones(2), "b": np.ones(3)}, "")


# The writers before distinct-value formatting: every float formatted on its
# own, by `json.dumps` over `.tolist()` or by `fmt` per CSV entry.  They are
# the oracles for the bytes of today's writers.

def old_dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def old_obj(x) -> dict:
    kind = "signal" if isinstance(x, Signal) else "kernel"
    return {"kind": kind, "grid": {"n": x.grid.n, "dt": x.grid.dt, "t0": x.grid.t0},
            "re": x.values.real.tolist(), "im": x.values.imag.tolist()}


def old_cumulants_json(ctl) -> str:
    return old_dump_json({"kind": "cumulants", "hbar_c": ctl.hbar_c,
                          **{k: old_obj(getattr(ctl, k)) for k in ("mean", "K_F", "K_rev", "K_W")}})


def old_rotated_json(rot) -> str:
    return old_dump_json({"kind": "rotated", "s": rot.p.s, "hbar_c": rot.hbar_c,
                          **{k: old_obj(getattr(rot, k)) for k in ("mean", "D_R", "N_s")}})


def old_signal_csv(f) -> str:
    lines = ["# keldrot signal\n", ser._grid_header(f.grid), "t,re,im\n"]
    for t, v in zip(f.grid.times, f.values):
        lines.append(f"{ser.fmt(t)},{ser.fmt(v.real)},{ser.fmt(v.imag)}\n")
    return "".join(lines)


def old_kernel_csv(K) -> str:
    lines = ["# keldrot kernel\n", ser._grid_header(K.grid), "t,tp,re,im\n"]
    t = K.grid.times
    for i in range(K.grid.n):
        for j in range(K.grid.n):
            v = K.values[i, j]
            lines.append(f"{ser.fmt(t[i])},{ser.fmt(t[j])},{ser.fmt(v.real)},{ser.fmt(v.imag)}\n")
    return "".join(lines)


def old_momentum_csv(columns: dict, header_comment: str = "") -> str:
    expanded = []
    for name, arr in columns.items():
        arr = np.asarray(arr)
        if np.iscomplexobj(arr):
            expanded += [(f"{name}_re", arr.real), (f"{name}_im", arr.imag)]
        else:
            expanded.append((name, arr.astype(float)))
    lines = [f"# {header_comment}\n"] if header_comment else []
    lines.append(",".join(name for name, _ in expanded) + "\n")
    length = len(expanded[0][1]) if expanded else 0
    for i in range(length):
        lines.append(",".join(ser.fmt(arr[i]) for _, arr in expanded) + "\n")
    return "".join(lines)


# -0.0, the smallest and largest subnormals, the smallest normal, +-inf, a
# NaN and a NaN with its sign bit set
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                    np.inf, -np.inf, np.nan, -np.nan, 1e308, -1.0 / 3.0, 0.1, 1e22, 1e-7])


def special_values(n: int, rng) -> np.ndarray:
    """n random normals with every SPECIAL value among them, repeated."""
    v = rng.normal(size=n)
    v[rng.choice(n, size=min(n, 2 * SPECIAL.size), replace=False)] = np.resize(SPECIAL, min(n, 2 * SPECIAL.size))
    return v


class TestSameBytesAsFormattingEachFloat:
    """Formatting each distinct float once gives the bytes of formatting
    every entry on its own."""

    @pytest.mark.parametrize("periodic", [False, True])
    def test_stored_wightman_set(self, grid, periodic):
        spec = OscillatorSpec(omega0=grid.resonant_frequency(3))
        ctl = ctl_cumulants(spec, GaussianState(nbar=0.5), grid, periodic=periodic)
        assert ser.cumulants_to_json(ctl) == old_cumulants_json(ctl)

    def test_synthetic_and_explicit_triple(self, grid):
        # a set read from a file's triple writes that file's bytes again
        ctl = synthetic_cumulants(grid, np.random.default_rng(5))
        text = ser.cumulants_to_json(ctl)
        read = ser.cumulants_from_json(text)
        assert text == old_cumulants_json(ctl)
        assert ser.cumulants_to_json(read) == old_cumulants_json(read) == text

    def test_cumulant_bundle_splits_k_w_once(self, grid, monkeypatch):
        # K_rev is written as the conjugate of the one derived K_F
        ctl = synthetic_cumulants(grid, np.random.default_rng(7))
        calls, split = [], rotation._theta_split
        monkeypatch.setattr(rotation, "_theta_split", lambda *a: calls.append(1) or split(*a))
        text = ser.cumulants_to_json(ctl)
        assert len(calls) == 1 and text == old_cumulants_json(ctl)

    def test_rotated_bundle(self, grid):
        ctl = synthetic_cumulants(grid, np.random.default_rng(6))
        rot = rotate(ctl, OrderingParam(-0.3))
        assert ser.rotated_to_json(rot) == old_rotated_json(rot)

    @pytest.mark.parametrize("n", [2, 3, 16])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_kernels_and_signals(self, n, dtype):
        rng = np.random.default_rng(n)
        g = TimeGrid(n, 0.1, t0=-0.35)
        kv, sv = np.zeros((n, n), dtype), np.zeros(n, dtype)
        kv.real, sv.real = special_values(n * n, rng).reshape(n, n), special_values(n, rng)
        if dtype is complex:
            kv.imag, sv.imag = special_values(n * n, rng).reshape(n, n), special_values(n, rng)
        K, f = TwoPointKernel(g, kv), Signal(g, sv)
        assert ser.kernel_to_json(K) == old_dump_json(old_obj(K))
        assert ser.dump_json(ser._to_obj(f)) == old_dump_json(old_obj(f))
        assert ser.kernel_to_csv(K) == old_kernel_csv(K)
        assert ser.signal_to_csv(f) == old_signal_csv(f)

    @pytest.mark.parametrize("value", SPECIAL.tolist())
    def test_one_by_one_array(self, value):
        obj = {"re": np.array([[value]]), "im": np.array([value]), "x": value}
        assert ser.dump_json(obj) == old_dump_json({"re": [[value]], "im": [value], "x": value})

    def test_empty_arrays(self):
        obj = {"a": np.zeros(0), "b": np.zeros((0, 3)), "c": np.zeros((2, 0)), "d": {"e": np.zeros(0)}}
        want = {"a": [], "b": [], "c": [[], []], "d": {"e": []}}
        assert ser.dump_json(obj) == old_dump_json(want)
        assert ser.momentum_table_to_csv({"k": np.zeros(0)}, "") == "k\n"

    def test_dicts_without_arrays(self):
        """The manifest and the zero-point ledger take `json.dumps` whole."""
        manifest = {"verb": "mc", "config": {"n": 8, "grid": {"dt": 0.5}, "flag": True, "none": None},
                    "outputs": ["a.csv", "b.json"], "summary": {"x": float("nan"), "y": -0.0},
                    "versions": {"numpy": np.__version__}}
        ledger = [{"location_k2": 4.0, "weight": -1.5e-300}, {"location_k2": 1e10, "weight": 2.0}]
        for obj in (manifest, ledger, [], {}, 1.5, "text"):
            assert ser.dump_json(obj) == old_dump_json(obj)

    def test_momentum_table(self):
        rng = np.random.default_rng(7)
        cols = {"k2": special_values(40, rng), "Pi": special_values(40, rng) + 1j * rng.normal(size=40),
                "count": np.arange(40), "f32": rng.normal(size=40).astype(np.float32)}
        for comment in ("", "scalar kernels"):
            assert ser.momentum_table_to_csv(cols, comment) == old_momentum_csv(cols, comment)
        assert ser.momentum_table_to_csv({}, "") == old_momentum_csv({})

    def test_values_shared_between_arrays(self):
        """One word table serves every array of the document."""
        v = np.random.default_rng(8).normal(size=(5, 5))
        obj = {"b": {"re": v, "im": -v}, "a": {"re": v.T, "im": np.zeros((5, 5))}, "c": v[0]}
        as_lists = {"b": {"re": v.tolist(), "im": (-v).tolist()},
                    "a": {"re": v.T.tolist(), "im": np.zeros((5, 5)).tolist()}, "c": v[0].tolist()}
        assert ser.dump_json(obj) == old_dump_json(as_lists)


def _first_entry(obj: dict, key: str, value) -> dict:
    """obj with the first entry of array `key` set to `value`."""
    row = obj[key]
    while isinstance(row[0], list):
        row = row[0]
    row[0] = value
    return obj


def _all_boolean(obj: dict, key: str) -> dict:
    obj[key] = (np.asarray(obj[key]) > 0).tolist()
    return obj


def _grid_entry(obj: dict, key: str, value) -> dict:
    obj["grid"][key] = value
    return obj


BAD_ENTRIES = {
    "null": (lambda o: _first_entry(o, "re", None), "re must hold numbers"),
    "string": (lambda o: _first_entry(o, "im", "1.0"), "im must hold numbers"),
    "all boolean": (lambda o: _all_boolean(o, "re"), "re must hold numbers"),
    "boolean among numbers": (lambda o: _first_entry(o, "re", True),
                              "re must hold numbers only; it has a boolean entry"),
    "fractional n": (lambda o: _grid_entry(o, "n", 16.0 + 0.7), "grid.n must be an integer"),
    "string dt": (lambda o: _grid_entry(o, "dt", "0.25"), "grid.dt must be a number"),
    "missing dt": (lambda o: (o["grid"].pop("dt"), o)[1], r"^grid\.dt is missing$"),
    "missing re": (lambda o: (o.pop("re"), o)[1], "^re is missing$"),
    # json.loads reads NaN, Infinity and -Infinity as floats
    "NaN": (lambda o: _first_entry(o, "re", float("nan")), "re must be finite, got nan"),
    "infinity": (lambda o: _first_entry(o, "im", float("-inf")), "im must be finite, got -inf"),
}


class TestBadEntriesRejected:
    @pytest.mark.parametrize("case", BAD_ENTRIES)
    @pytest.mark.parametrize("reader", ["signal", "kernel"])
    def test_reader_names_the_key(self, signal, kernel, reader, case):
        x = {"signal": signal, "kernel": kernel}[reader]
        spoil, message = BAD_ENTRIES[case]
        text = json.dumps(spoil(old_obj(x)))
        with pytest.raises(ValueError, match=message):
            getattr(ser, f"{reader}_from_json")(text)

    def test_bundle_names_the_kernel(self, grid):
        ctl = synthetic_cumulants(grid, np.random.default_rng(9))
        obj = json.loads(ser.cumulants_to_json(ctl))
        _first_entry(obj["K_W"], "re", None)
        with pytest.raises(ValueError, match=r"K_W\.re must hold numbers"):
            ser.cumulants_from_json(json.dumps(obj))
        obj = json.loads(ser.rotated_to_json(rotate(ctl, OrderingParam(0.5))))
        _grid_entry(obj["N_s"], "n", True)
        with pytest.raises(ValueError, match=r"N_s\.grid\.n must be an integer"):
            ser.rotated_from_json(json.dumps(obj))
        obj["N_s"]["grid"]["n"] = grid.n
        obj["hbar_c"] = "1"
        with pytest.raises(ValueError, match="hbar_c must be a number"):
            ser.rotated_from_json(json.dumps(obj))

    @pytest.mark.parametrize("bundle,spoil,message", [
        ("cumulants", lambda o: o.pop("K_W"), "^K_W is missing$"),
        ("cumulants", lambda o: o["K_W"]["grid"].pop("dt"), r"^K_W\.grid\.dt is missing$"),
        ("cumulants", lambda o: o["mean"].pop("im"), r"^mean\.im is missing$"),
        ("cumulants", lambda o: o.pop("hbar_c"), "^hbar_c is missing$"),
        ("rotated", lambda o: o.pop("D_R"), "^D_R is missing$"),
        ("rotated", lambda o: o["N_s"].pop("grid"), r"^N_s\.grid is missing$"),
        ("rotated", lambda o: o.pop("s"), "^s is missing$"),
    ])
    def test_missing_key_named_by_path(self, grid, bundle, spoil, message):
        ctl = synthetic_cumulants(grid, np.random.default_rng(9))
        obj = json.loads(ser.cumulants_to_json(ctl) if bundle == "cumulants"
                         else ser.rotated_to_json(rotate(ctl, OrderingParam(0.5))))
        spoil(obj)
        with pytest.raises(ValueError, match=message):
            getattr(ser, f"{bundle}_from_json")(json.dumps(obj))

    @pytest.mark.parametrize("reader", ["signal", "kernel"])
    @pytest.mark.parametrize("line,message", [
        ("# grid n=16 t0=-1", "grid.dt is missing"),
        ("# grid n=16.5 dt=0.25 t0=-1", "grid.n must be an integer, got 16.5"),
        ("# grid n=16 dt=abc t0=-1", 'grid.dt must be a number, got "abc"'),
        ("# grid n=16 dt=0.25 t0=-1 dt=0.5", "grid.dt is given twice"),
    ], ids=["missing dt", "fractional n", "word dt", "repeated dt"])
    def test_csv_grid_line_checked(self, signal, kernel, reader, line, message):
        text = getattr(ser, f"{reader}_to_csv")({"signal": signal, "kernel": kernel}[reader])
        lines = text.splitlines(keepends=True)
        assert lines[1] == "# grid n=16 dt=0.25 t0=-1\n"
        lines[1] = line + "\n"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{reader} CSV {message}')}$"):
            getattr(ser, f"{reader}_from_csv")("".join(lines))

    def test_boolean_among_numbers_in_bundles(self, grid):
        """A boolean mixed into numbers reads as float64 or int64 through
        np.asarray; each bundle reader still refuses it and names the key."""
        ctl = synthetic_cumulants(grid, np.random.default_rng(9))
        obj = json.loads(ser.cumulants_to_json(ctl))
        _first_entry(obj["K_W"], "im", False)
        with pytest.raises(ValueError, match=r"K_W\.im must hold numbers only; it has a boolean"):
            ser.cumulants_from_json(json.dumps(obj))
        obj = json.loads(ser.rotated_to_json(rotate(ctl, OrderingParam(0.5))))
        _first_entry(obj["D_R"], "re", True)
        with pytest.raises(ValueError, match=r"D_R\.re must hold numbers only; it has a boolean"):
            ser.rotated_from_json(json.dumps(obj))
        obj = old_obj(Signal(grid, np.arange(grid.n, dtype=float)))
        obj["re"] = [True] + list(range(1, grid.n))
        assert np.asarray(obj["re"]).dtype.kind == "i"
        with pytest.raises(ValueError, match="re must hold numbers only; it has a boolean"):
            ser.signal_from_json(json.dumps(obj))

    def test_ragged_array_named_by_path(self, grid, kernel):
        obj = old_obj(kernel)
        obj["re"] = [[1, 2], [3]]
        with pytest.raises(ValueError, match=r"^re is ragged"):
            ser.kernel_from_json(json.dumps(obj))
        obj = json.loads(ser.cumulants_to_json(synthetic_cumulants(grid, np.random.default_rng(9))))
        obj["K_W"]["re"][3].pop()
        with pytest.raises(ValueError, match=r"^K_W\.re is ragged"):
            ser.cumulants_from_json(json.dumps(obj))

    def test_non_finite_entry_in_bundles(self, grid):
        ctl = synthetic_cumulants(grid, np.random.default_rng(9))
        obj = json.loads(ser.cumulants_to_json(ctl))
        obj["K_F"]["re"][2][5] = float("nan")
        with pytest.raises(ValueError, match=r"K_F\.re must be finite, got nan"):
            ser.cumulants_from_json(json.dumps(obj))
        obj = json.loads(ser.rotated_to_json(rotate(ctl, OrderingParam(0.5))))
        obj["N_s"]["im"][0][1] = float("inf")
        with pytest.raises(ValueError, match=r"N_s\.im must be finite, got inf"):
            ser.rotated_from_json(json.dumps(obj))

    @pytest.mark.parametrize("column", ["t", "re", "im"])
    @pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
    def test_non_finite_signal_csv_entry(self, signal, column, word):
        lines = ser.signal_to_csv(signal).splitlines(keepends=True)
        fields = lines[5].rstrip("\n").split(",")
        fields[["t", "re", "im"].index(column)] = word
        lines[5] = ",".join(fields) + "\n"
        with pytest.raises(ValueError, match=f"signal CSV column {column} must be finite"):
            ser.signal_from_csv("".join(lines))

    @pytest.mark.parametrize("column", ["re", "im"])
    def test_non_finite_kernel_csv_entry(self, kernel, column):
        lines = ser.kernel_to_csv(kernel).splitlines(keepends=True)
        fields = lines[-1].rstrip("\n").split(",")
        fields[["t", "tp", "re", "im"].index(column)] = "nan"
        lines[-1] = ",".join(fields) + "\n"
        with pytest.raises(ValueError, match=f"kernel CSV column {column} must be finite, got nan"):
            ser.kernel_from_csv("".join(lines))

    def test_integer_entries_still_read(self, grid):
        obj = old_obj(Signal(grid, np.arange(grid.n, dtype=float)))
        obj["re"], obj["im"] = list(range(grid.n)), [0] * grid.n
        back = ser.signal_from_json(json.dumps(obj))
        assert back.values.dtype == np.float64
        assert np.array_equal(back.values, np.arange(grid.n))
