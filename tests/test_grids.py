import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keldrot.grids import (
    OrderingParam,
    Signal,
    TimeGrid,
    TwoPointKernel,
    heaviside,
    overlap,
    project_kernel_axis,
    project_pm,
    project_s,
    reflect,
    sign_weights,
    theta_ordering_matrix,
)


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

    def test_lags_wrap(self):
        g = TimeGrid(8, 1.0)
        assert list(g.lags) == [0, 1, 2, 3, -4, -3, -2, -1]


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
        f = Signal.from_function(g, lambda t: np.exp(-1j * w0 * t))
        assert np.abs(project_pm(f, "+").values - f.values).max() < 1e-12
        assert np.abs(project_pm(f, "-").values).max() < 1e-12

    def test_cosine_splits_into_half_exponential(self):
        g = TimeGrid(128, 0.1)
        w0 = g.resonant_frequency(5)
        f = Signal.from_function(g, lambda t: np.cos(w0 * t))
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
        K = TwoPointKernel.from_stationary(g, lambda tau: np.exp(-1j * w0 * tau)
                                           + 0.3 * np.cos(2 * w0 * tau))
        lhs = project_kernel_axis(K, 0, "+").values
        rhs = project_kernel_axis(K, 1, "-").values
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_double_same_sign_kills_stationary(self):
        g = TimeGrid(64, 0.15)
        w0 = g.resonant_frequency(4)
        K = TwoPointKernel.from_stationary(g, lambda tau: np.cos(w0 * tau))
        out = project_kernel_axis(project_kernel_axis(K, 1, "+"), 0, "+")
        assert np.abs(out.values).max() < 1e-12

    def test_axis_validation(self):
        K = TwoPointKernel.zero(TimeGrid(16, 0.5))
        with pytest.raises(ValueError, match="axis"):
            project_kernel_axis(K, 2, "+")

    def test_identity_kernel_rows_become_projector_samples(self):
        g = TimeGrid(32, 0.3)
        eye = TwoPointKernel(g, np.eye(g.n) / g.dt)
        rows = project_kernel_axis(eye, 0, "+")
        # each column is the projector response to a grid delta
        delta = Signal(g, np.zeros(g.n))
        delta.values[5] = 1.0 / g.dt
        expect = project_pm(delta, "+")
        assert np.abs(rows.values[:, 5] - expect.values).max() < 1e-12


class TestOrderingMatrix:
    def test_linear_theta(self):
        g = TimeGrid(4, 1.0)
        th = theta_ordering_matrix(g)
        assert th[2, 1] == 1.0 and th[1, 2] == 0.0 and th[1, 1] == 0.5

    def test_periodic_theta_is_circulant(self):
        g = TimeGrid(8, 1.0)
        th = theta_ordering_matrix(g, periodic=True)
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
        th = theta_ordering_matrix(g, periodic=True)
        assert g.lags[4] == -4.0 and th[4, 0] == 0.5 and th[0, 4] == 0.5
        assert theta_ordering_matrix(TimeGrid(7, 1.0), periodic=True)[3, 0] == 1.0

    def test_theta_pair_resolves_identity(self):
        g = TimeGrid(8, 1.0)
        for periodic in (False, True):
            th = theta_ordering_matrix(g, periodic=periodic)
            assert np.allclose(th + th.T, np.ones((8, 8)))


def test_heaviside_takes_half_at_zero():
    assert heaviside(-2.0) == 0.0 and heaviside(0.0) == 0.5 and heaviside(3.0) == 1.0
    assert isinstance(heaviside(1.0), float)
    assert np.array_equal(heaviside(np.array([-1.0, 0.0, 1.0])), [0.0, 0.5, 1.0])


def test_reflect_is_circular_reversal():
    g = TimeGrid(8, 1.0)
    f = Signal(g, np.arange(8, dtype=complex))
    r = reflect(f)
    assert r.values[0] == f.values[0]
    assert np.allclose(r.values[1:], f.values[1:][::-1])


def test_dtype_follows_the_data():
    g = TimeGrid(6, 0.5)
    real = [Signal(g, np.arange(6)), Signal.from_function(g, np.cos), Signal.zero(g),
            TwoPointKernel(g, np.eye(6, dtype=int)), TwoPointKernel.zero(g),
            TwoPointKernel.from_function(g, lambda t, tp: t - tp),
            TwoPointKernel.from_stationary(g, np.cos)]
    assert all(x.values.dtype == np.float64 for x in real)
    cplx = [Signal(g, np.ones(6, dtype=np.complex64)),
            Signal.from_function(g, lambda t: np.exp(-1j * t)),
            TwoPointKernel.from_function(g, lambda t, tp: np.exp(-1j * (t - tp))),
            TwoPointKernel.from_stationary(g, np.zeros(6, dtype=complex))]
    assert all(x.values.dtype == np.complex128 for x in cplx)
