import json

import numpy as np
import pytest

from keldrot.grids import OrderingParam, Signal, TimeGrid, TwoPointKernel
from keldrot.oscillator import GaussianState, OscillatorSpec, ctl_cumulants
from keldrot.rotation import rotate
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


class TestSignalRoundTrip:
    def test_csv(self, signal):
        back = ser.signal_from_csv(ser.signal_to_csv(signal))
        assert back.grid == signal.grid
        assert np.array_equal(back.values, signal.values)

    def test_json(self, signal):
        back = ser.signal_from_json(ser.signal_to_json(signal))
        assert back.grid == signal.grid
        assert np.array_equal(back.values, signal.values)

    def test_shifted_t_column_rejected(self, signal):
        grid = signal.grid
        shifted = Signal(TimeGrid(grid.n, grid.dt, t0=grid.t0 + 1e-6 * grid.dt), signal.values)
        lines = ser.signal_to_csv(shifted).splitlines(keepends=True)
        lines[1] = ser.signal_to_csv(signal).splitlines(keepends=True)[1]
        with pytest.raises(ValueError, match="t column"):
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

    def test_short_csv_rejected(self, kernel):
        text = ser.kernel_to_csv(kernel)
        with pytest.raises(ValueError, match="rows"):
            ser.kernel_from_csv(text[: text.rindex("\n", 0, -1) + 1])


class TestBundles:
    def test_cumulants_round_trip(self, grid):
        spec = OscillatorSpec(omega0=grid.resonant_frequency(3))
        ctl = ctl_cumulants(spec, GaussianState(nbar=0.5), grid)
        back = ser.cumulants_from_json(ser.cumulants_to_json(ctl))
        for a, b in ((back.K_F, ctl.K_F), (back.K_W, ctl.K_W), (back.K_rev, ctl.K_rev)):
            assert np.array_equal(a.values, b.values)
        assert back.hbar_c == ctl.hbar_c

    def test_rotated_round_trip(self, grid):
        spec = OscillatorSpec(omega0=grid.resonant_frequency(3))
        ctl = ctl_cumulants(spec, GaussianState(nbar=0.5), grid)
        rot = rotate(ctl, OrderingParam(0.25))
        back = ser.rotated_from_json(ser.rotated_to_json(rot))
        assert back.p.s == 0.25
        assert np.array_equal(back.D_R.values, rot.D_R.values)
        assert np.array_equal(back.N_s.values, rot.N_s.values)

    def test_kind_mismatch_rejected(self, grid):
        spec = OscillatorSpec(omega0=grid.resonant_frequency(3))
        ctl = ctl_cumulants(spec, GaussianState(), grid)
        text = ser.cumulants_to_json(ctl)
        with pytest.raises(ValueError, match="rotated"):
            ser.rotated_from_json(text)

    def test_kernel_read_as_signal_rejected(self, kernel):
        with pytest.raises(ValueError, match="signal.*'kernel'"):
            ser.signal_from_json(ser.kernel_to_json(kernel))


class TestRealData:
    """Real data is written with zero imaginary columns and read back real."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_real_signal_round_trip(self, grid, fmt):
        sig = Signal(grid, np.random.default_rng(2).normal(size=grid.n))
        write, read = getattr(ser, f"signal_to_{fmt}"), getattr(ser, f"signal_from_{fmt}")
        back = read(write(sig))
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
        obj = json.loads(ser.signal_to_json(Signal(grid, np.zeros(grid.n))))
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
                                          "D": np.array([1 + 2j, 3 - 4j])})
        lines = text.splitlines()
        assert lines[0] == "k0,D_re,D_im"
        assert lines[1] == "1,1,2"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ser.momentum_table_to_csv({"a": np.ones(2), "b": np.ones(3)})
