import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keldrot.grids import (
    OrderingParam,
    Signal,
    TimeGrid,
    TwoPointKernel,
    _circle_theta,
    _reflected,
    _require_count,
    _require_finite,
    _require_positive,
    _theta_masks,
    _toeplitz,
    heaviside,
    overlap,
    project_kernel_axis,
    project_s,
    sign_weights,
    theta_ordering_matrix,
)

from common import F_PM, acausal_part, circular_lags, lag_index_theta, project_pm


def random_signal(grid, rng, band_interior=False):
    c = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    if band_interior:
        c[0] = 0.0
        if grid.n % 2 == 0:
            c[grid.n // 2] = 0.0
    return Signal(grid, np.fft.fft(c))


class TestTimeGrid:
    def test_invariants(self):
        g = TimeGrid(8, 0.5, t0=-1.0)
        assert g.domega == pytest.approx(2 * np.pi / (8 * 0.5))
        assert len(g.times) == 8
        assert g.times[0] == -1.0

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(1, 0.1)
        with pytest.raises(ValueError):
            TimeGrid(8, -0.1)

    @pytest.mark.parametrize("n", [2.5, np.nan, 8.0, "8"])
    def test_rejects_non_integral_n(self, n):
        # 2.5 used to make a grid of 3 times, nan one that failed in np.arange
        with pytest.raises(ValueError, match="n must be an integer"):
            TimeGrid(n, 0.1)

    def test_too_few_samples_message(self):
        with pytest.raises(ValueError, match="n must be positive, got 0"):
            TimeGrid(0, 0.1)
        for n in (1, np.int64(1)):
            with pytest.raises(ValueError, match="grid needs at least two samples"):
                TimeGrid(n, 0.1)
        assert TimeGrid(np.int64(8), 0.1).times.shape == (8,)

    @pytest.mark.parametrize("dt, t0", [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0),
                                        (0.1, np.nan), (0.1, np.inf), (0.1, -np.inf)])
    def test_rejects_non_finite_grids(self, dt, t0):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(8, dt, t0)

    def test_lags_wrap(self):
        g = TimeGrid(8, 1.0)
        assert list(g.lags) == [0, 1, 2, 3, -4, -3, -2, -1]


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestParameterChecks:
    """The package's one check per kind of parameter: each refuses NaN, +-inf
    and out-of-range values with a message that names the parameter."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_finite_float_path_says_what_the_array_path_says(self, bad):
        messages = set()
        for value in (bad, np.float64(bad), np.array(bad), np.array([0.0, bad]), [bad]):
            with pytest.raises(ValueError) as exc:
                _require_finite("k_sq", value)
            messages.add(str(exc.value))
        assert messages == {f"k_sq must be finite, got {bad}"}

    def test_finite_values_pass(self):
        for value in (0.0, -1e308, 3, np.float64(2.0), np.zeros((2, 2)), []):
            _require_finite("k_sq", value)

    @pytest.mark.parametrize("bad", NON_FINITE + [0.0, -0.0, -1.0, -1e-300])
    def test_positive_refuses(self, bad):
        message = f"mu0 must be finite and positive, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _require_positive("mu0", bad)

    @pytest.mark.parametrize("bad", NON_FINITE + [-1.0, -1e-300])
    def test_non_negative_refuses(self, bad):
        message = f"nbar must be finite and non-negative, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _require_positive("nbar", bad, zero_ok=True)

    def test_in_range_values_pass(self):
        for value in (1e-300, 1, np.float64(2.5), 1e308):
            _require_positive("mu0", value)
        for value in (0.0, -0.0, 0, 1e-300):
            _require_positive("nbar", value, zero_ok=True)

    @pytest.mark.parametrize("bad, message", [
        (2.5, "must be an integer, got 2.5"),
        (math.nan, "must be an integer, got nan"),
        ("4", "must be an integer, got '4'"),
        (0, "must be positive, got 0"),
        (-3, "must be positive, got -3"),
        (True, "must be an integer, got True"),
    ])
    def test_count_refuses(self, bad, message):
        with pytest.raises(ValueError, match=f"^n_samples {re.escape(message)}$"):
            _require_count("n_samples", bad)

    def test_count_is_an_int(self):
        for value in (1, 7, np.int64(7)):
            got = _require_count("n_samples", value)
            assert got == value and type(got) is int


class TestOrderingParam:
    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_split_identities(self, s):
        p = OrderingParam(s)
        assert p.s_plus + p.s_minus == pytest.approx(1.0)
        assert p.s_plus - p.s_minus == pytest.approx(s)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            OrderingParam(1.5)


class TestProjection:
    def test_single_positive_mode_is_kept(self):
        g = TimeGrid(256, 0.05)
        w0 = g.resonant_frequency(9)
        f = Signal(g, np.exp(-1j * w0 * g.times))
        assert np.abs(project_pm(f, "+").values - f.values).max() < 1e-12
        assert np.abs(project_pm(f, "-").values).max() < 1e-12

    def test_cosine_splits_into_half_exponential(self):
        g = TimeGrid(128, 0.1)
        w0 = g.resonant_frequency(5)
        f = Signal(g, np.cos(w0 * g.times))
        expect = 0.5 * np.exp(-1j * w0 * g.times)
        assert np.abs(project_pm(f, "+").values - expect).max() < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_completeness_random(self, seed):
        g = TimeGrid(128, 0.07)
        f = random_signal(g, np.random.default_rng(seed))
        total = project_pm(f, "+").values + project_pm(f, "-").values
        assert np.abs(total - f.values).max() < 1e-12

    def test_projector_algebra_on_band_interior(self):
        g = TimeGrid(256, 0.05)
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = random_signal(g, rng, band_interior=True)
            fp = project_pm(f, "+")
            assert np.abs(project_pm(fp, "+").values - fp.values).max() < 1e-10
            assert np.abs(project_pm(fp, "-").values).max() < 1e-10

    def test_boundary_bins_split_half(self):
        # the w = 0 and Nyquist bins carry weight 1/2 in both projectors
        g = TimeGrid(64, 0.1)
        w = sign_weights(g, "+")
        assert w[0] == 0.5 and w[g.n // 2] == 0.5
        const = Signal(g, np.ones(g.n, dtype=complex))
        assert np.abs(project_pm(const, "+").values - 0.5).max() < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(min_value=-1.0, max_value=1.0))
    def test_conjugation_rule(self, seed, s):
        g = TimeGrid(64, 0.2)
        f = random_signal(g, np.random.default_rng(seed))
        p = OrderingParam(s)
        lhs = project_s(f, p, "+").conj().values
        rhs = project_s(f.conj(), p, "-").values
        assert np.abs(lhs - rhs).max() < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(min_value=-1.0, max_value=1.0))
    def test_adjoint_rule(self, seed, s):
        g = TimeGrid(64, 0.2)
        rng = np.random.default_rng(seed)
        f, h = random_signal(g, rng), random_signal(g, rng)
        p = OrderingParam(s)
        lhs = overlap(project_s(f, p, "+"), h)
        rhs = overlap(f, project_s(h, p, "-"))
        assert abs(lhs - rhs) < 1e-10

    def test_s_limits(self):
        g = TimeGrid(64, 0.2)
        f = random_signal(g, np.random.default_rng(3))
        half = project_s(f, OrderingParam(0.0), "+")
        assert np.abs(half.values - 0.5 * f.values).max() < 1e-12
        assert np.abs(project_s(f, OrderingParam(1.0), "+").values
                      - project_pm(f, "+").values).max() < 1e-13
        assert np.abs(project_s(f, OrderingParam(-1.0), "+").values
                      - project_pm(f, "-").values).max() < 1e-13


class TestKernelProjection:
    def test_stationary_shift_rule(self):
        # projecting a stationary kernel on t equals the opposite sign on t'
        g = TimeGrid(64, 0.15)
        w0 = g.resonant_frequency(4)
        tau = circular_lags(g)
        K = TwoPointKernel(g, np.exp(-1j * w0 * tau) + 0.3 * np.cos(2 * w0 * tau))
        lhs = project_kernel_axis(K, 0, "+", F_PM).values
        rhs = project_kernel_axis(K, 1, "-", F_PM).values
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_double_same_sign_kills_stationary(self):
        g = TimeGrid(64, 0.15)
        w0 = g.resonant_frequency(4)
        K = TwoPointKernel(g, np.cos(w0 * circular_lags(g)))
        out = project_kernel_axis(project_kernel_axis(K, 1, "+", F_PM), 0, "+", F_PM)
        assert np.abs(out.values).max() < 1e-12

    def test_axis_validation(self):
        K = TwoPointKernel(TimeGrid(16, 0.5), np.zeros((16, 16)))
        with pytest.raises(ValueError, match="axis"):
            project_kernel_axis(K, 2, "+", F_PM)

    def test_identity_kernel_rows_become_projector_samples(self):
        g = TimeGrid(32, 0.3)
        eye = TwoPointKernel(g, np.eye(g.n) / g.dt)
        rows = project_kernel_axis(eye, 0, "+", F_PM)
        # each column is the projector response to a grid delta
        delta = Signal(g, np.zeros(g.n))
        delta.values[5] = 1.0 / g.dt
        expect = project_pm(delta, "+")
        assert np.abs(rows.values[:, 5] - expect.values).max() < 1e-12


def circle_theta_matrix(n):
    """The circle's theta as the dense regions of `_theta_masks` give it."""
    later, _, tie = _theta_masks(n, True)
    th = later.astype(float)
    th[tie] = 0.5
    return th


class TestOrderingMatrix:
    def test_linear_theta(self):
        g = TimeGrid(4, 1.0)
        th = theta_ordering_matrix(g)
        assert th[2, 1] == 1.0 and th[1, 2] == 0.0 and th[1, 1] == 0.5

    def test_periodic_theta_is_circulant(self):
        th = circle_theta_matrix(8)
        # entry depends only on (i - j) mod n
        for shift in range(1, 8):
            assert np.allclose(np.diag(th, -shift),
                               th[shift, 0] * np.ones(8 - shift))
        assert th[0, 0] == 0.5 and th[1, 0] == 1.0 and th[0, 1] == 0.0

    @pytest.mark.parametrize("n", [7, 8])
    def test_linear_theta_is_strict_lower_plus_half_diagonal(self, n):
        th = theta_ordering_matrix(TimeGrid(n, 1.0))
        expect = np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)
        assert th.dtype == expect.dtype and th.tobytes() == expect.tobytes()

    def test_periodic_theta_halves_the_wrap_lag(self):
        g = TimeGrid(8, 1.0)
        th = circle_theta_matrix(8)
        assert g.lags[4] == -4.0 and th[4, 0] == 0.5 and th[0, 4] == 0.5
        assert circle_theta_matrix(7)[3, 0] == 1.0

    @pytest.mark.parametrize("n", [*range(2, 12), 64, 65, 1024])
    def test_circle_mask_and_profile_match_dense_theta(self, n):
        # the acausal band, the dense regions and the lag profile
        # against theta of the wrapped lags
        g = TimeGrid(n, 0.5)
        dense = lag_index_theta(g, True)
        mask, _ = acausal_part(np.zeros((n, n)), g, periodic=(True,))
        assert np.array_equal(mask, dense == 0.0)
        assert np.array_equal(circle_theta_matrix(n), dense)
        assert np.array_equal(_circle_theta(g), dense[:, 0])

    def test_theta_pair_resolves_identity(self):
        for th in (theta_ordering_matrix(TimeGrid(8, 1.0)), circle_theta_matrix(8)):
            assert np.allclose(th + th.T, np.ones((8, 8)))


def test_heaviside_takes_half_at_zero():
    assert heaviside(-2.0) == 0.0 and heaviside(0.0) == 0.5 and heaviside(3.0) == 1.0
    assert isinstance(heaviside(1.0), float)
    assert np.array_equal(heaviside(np.array([-1.0, 0.0, 1.0])), [0.0, 0.5, 1.0])


@pytest.mark.parametrize("wrap", [float, np.float64], ids=["float", "float64"])
def test_heaviside_float_path_equals_array_path(wrap):
    """The float path against the array path, the oracle, bit for bit."""
    xs = list(np.linspace(-5.0, 5.0, 2001)) + [
        float(np.nextafter(0.0, 1.0)), float(np.nextafter(0.0, -1.0)), 0.0, -0.0, 1.0,
        float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0)), -1e300, 1e300,
        math.inf, -math.inf, math.nan]
    for x in xs:
        got = heaviside(wrap(x))
        want = heaviside(np.array([x]))[0]
        assert np.float64(got).tobytes() == want.tobytes(), x
        if wrap is float:
            assert type(got) is float


def test_heaviside_int_input_takes_array_path():
    for x in (-2, 0, 3):
        got = heaviside(x)
        assert type(got) is float and got == heaviside(float(x))
    assert heaviside(True) == 1.0 and heaviside(False) == 0.5


def test_reflect_is_circular_reversal():
    f = np.arange(8, dtype=complex)
    assert np.array_equal(_reflected(f), f[-np.arange(8) % 8])


@pytest.mark.parametrize("n", [7, 8, 96, 97])
@pytest.mark.parametrize("dtype", [float, complex])
def test_toeplitz_layouts_match_index_oracles(n, dtype):
    """The circulant and the lower-triangular Toeplitz layout of `_toeplitz`
    against layouts indexed entry by entry, bit for bit."""
    rng = np.random.default_rng(n)
    column = rng.normal(size=n).astype(dtype)
    if dtype is complex:
        column += 1j * rng.normal(size=n)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cases = ((_reflected(column), column[(i - j) % n]),
             (np.zeros_like(column), np.where(i >= j, column[np.maximum(i - j, 0)], 0)))
    for row, want in cases:
        got = _toeplitz(column, row)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    circulant = TwoPointKernel.circulant(TimeGrid(n, 0.1), column).values
    assert circulant.tobytes() == column[(i - j) % n].tobytes()


class TestToeplitzLags:
    """A Toeplitz kernel held as its lags (`TwoPointKernel.toeplitz`) lays
    out once by `_toeplitz`, under the rule of the circulant profile."""

    @staticmethod
    def lags(n, dtype, seed=0):
        # a column of both signs and a row of +0.0 and -0.0 alone: the
        # layout must keep the sign of every zero above the diagonal
        rng = np.random.default_rng(seed + n)
        column = rng.normal(size=n).astype(dtype)
        if dtype is complex:
            column += 1j * rng.normal(size=n)
        row = np.where(rng.normal(size=n) > 0, 0.0, -0.0).astype(dtype)
        return column, row

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 2048])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_layout_is_the_toeplitz_layout(self, n, dtype):
        column, row = self.lags(n, dtype)
        kernel = TwoPointKernel.toeplitz(TimeGrid(n, 0.1), column, row)
        assert kernel.profile is None and kernel.lags[0] is column and kernel.lags[1] is row
        got = kernel.values
        want = _toeplitz(column, row)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        i, j = np.triu_indices(n, 1)
        for part in (np.real, np.imag):  # the sign of each zero above the diagonal
            assert np.array_equal(np.signbit(part(got)[i, j]), np.signbit(part(row)[j - i]))
        assert kernel.lags is None and kernel.profile is None and kernel.values is got

    @pytest.mark.parametrize("lengths", [(7, 8), (8, 7), (9, 8), (8, 9), (8, 0)])
    def test_wrong_length_refused(self, lengths):
        column, row = (np.ones(m) for m in lengths)
        with pytest.raises(ValueError, match=r"lag shapes .* do not match grid n=8"):
            TwoPointKernel.toeplitz(TimeGrid(8, 0.1), column, row)
        with pytest.raises(ValueError, match="do not match grid n=8"):
            TwoPointKernel.toeplitz(TimeGrid(8, 0.1), np.ones((8, 1)), np.ones(8))

    def test_assignment_replaces_the_lags(self):
        kernel = TwoPointKernel.toeplitz(TimeGrid(8, 0.1), *self.lags(8, float))
        kernel._kept["gap"] = np.ones(8)
        new = np.arange(64.0).reshape(8, 8)
        kernel.values = new
        assert kernel.lags is None and kernel._kept == {} and kernel.values is new
        kernel = TwoPointKernel.toeplitz(TimeGrid(8, 0.1), *self.lags(8, float))
        kernel._kept["gap"] = np.ones(8)
        kernel.values  # the layout is new data too
        assert kernel._kept == {}

    def test_pickled_or_copied_kernel_keeps_nothing(self):
        import copy
        import pickle

        kernel = TwoPointKernel.toeplitz(TimeGrid(8, 0.1), *self.lags(8, complex))
        kernel._kept["gap"] = np.ones(8)
        for back in (pickle.loads(pickle.dumps(kernel)), copy.copy(kernel),
                     copy.deepcopy(kernel)):
            assert back._kept == {} and back.grid == kernel.grid and back.profile is None
            assert all(a.tobytes() == b.tobytes() for a, b in zip(back.lags, kernel.lags))
        assert "gap" in kernel._kept
        assert "lags=" in repr(kernel) and kernel.lags is not None

    @pytest.mark.parametrize("periodic", [False, True])
    def test_lag_wightman_kernel_rotates_to_the_dense_bits(self, periodic):
        from keldrot.rotation import CumulantSet, reorder, rotate, unrotate

        grid = TimeGrid(97, 0.15)
        column, _ = self.lags(97, complex, seed=4)
        column[0] = column[0].real  # K_W Hermitian: row = conj(column)
        lags = (column, column.conj())
        lag = CumulantSet(Signal.zero(grid), TwoPointKernel.toeplitz(grid, *lags), 0.7, periodic)
        dense = CumulantSet(Signal.zero(grid), TwoPointKernel(grid, _toeplitz(*lags)), 0.7, periodic)
        for s in (-0.4, 0.0, 1.0):
            got, want = (rotate(ctl, OrderingParam(s)) for ctl in (lag, dense))
            for a, b in ((got.D_R, want.D_R), (got.N_s, want.N_s),
                         (reorder(got, 0.3).N_s, reorder(want, 0.3).N_s),
                         (unrotate(got).K_W, unrotate(want).K_W)):
                assert a.values.tobytes() == b.values.tobytes()


def test_dtype_follows_the_data():
    g = TimeGrid(6, 0.5)
    real = [Signal(g, np.arange(6)), Signal(g, np.cos(g.times)), Signal.zero(g),
            TwoPointKernel(g, np.eye(6, dtype=int)), TwoPointKernel(g, np.zeros((6, 6))),
            TwoPointKernel(g, np.cos(circular_lags(g)))]
    assert all(x.values.dtype == np.float64 for x in real)
    cplx = [Signal(g, np.ones(6, dtype=np.complex64)),
            Signal(g, np.exp(-1j * g.times)),
            TwoPointKernel(g, np.exp(-1j * circular_lags(g))),
            TwoPointKernel(g, np.zeros((6, 6), dtype=complex))]
    assert all(x.values.dtype == np.complex128 for x in cplx)
