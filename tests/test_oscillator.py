import numpy as np
import pytest

from keldrot.grids import OrderingParam, Signal, TimeGrid
from keldrot.oscillator import (
    GaussianState,
    OscillatorSpec,
    UnsampleableStateError,
    _infield_basis,
    _quasidistribution_xy,
    ctl_cumulants,
    mc_quasiaverage,
    recover_retarded_from_gap,
    reorder_gap,
    reorder_gap_from_response,
    retarded_response,
    retarded_response_grid,
    rotated_cumulants,
    s_ordered_kernel,
    wightman_kernel,
)
from keldrot.rotation import lambda2_form, lambda2_identity_check, rotate, rotation_substitution


GRID = TimeGrid(256, 0.05)
W0 = GRID.resonant_frequency(9)
SPEC = OscillatorSpec(omega0=W0)


def keldysh_contractions(spec, tau):
    """Vacuum contractions at lag tau: i hbar D^+ = (hbar/2) e^{-i w tau},
    i hbar D_F = (hbar/2) e^{-i w |tau|}."""
    w = spec.omega0
    return {"D_F": np.exp(-1j * w * np.abs(tau)) / 2j, "D_plus": np.exp(-1j * w * tau) / 2j}


def sample_quasidistribution(state, p, n_samples, rng):
    """Complex amplitudes alpha drawn from the s-quasidistribution."""
    xy = _quasidistribution_xy(state, p, n_samples, rng)
    return xy[:, 0] + 1j * xy[:, 1]


class TestRetardedResponse:
    def test_vanishes_before_the_kick(self):
        assert retarded_response(SPEC, -1.0) == 0.0

    def test_quarter_period_extremum(self):
        spec = OscillatorSpec(omega0=2.0)
        assert retarded_response(spec, np.pi / (2 * 2.0)) == pytest.approx(-1.0)

    def test_static_limit_of_frequency_kernel(self):
        # the transform integral e^{i w tau} D_R(tau) dtau of the kernel at
        # w = i eps is (1/2)[1/(w - w0) - 1/(w + w0)] = -w0 / (w0^2 + eps^2),
        # which tends to the static -1/w0
        from scipy.integrate import quad

        spec, eps = OscillatorSpec(omega0=1.7), 0.05
        val, _ = quad(lambda tau: np.exp(-eps * tau) * retarded_response(spec, tau),
                      0.0, 800.0, limit=2000)
        assert val == pytest.approx(0.5 * (1 / (1j * eps - 1.7) - 1 / (1j * eps + 1.7)).real,
                                    rel=1e-8)
        assert val == pytest.approx(-1.0 / 1.7, rel=1e-3)

    def test_linear_grid_sampling_is_pointwise(self):
        t = GRID.times
        assert np.array_equal(retarded_response_grid(SPEC, GRID),
                              retarded_response(SPEC, t[:, None] - t[None, :]))

    def test_circular_grid_sampling_is_the_rotated_response(self):
        # on the circle the wrap lag -T/2 is half causal, like K_F's theta split
        state = GaussianState(nbar=0.7)
        d_r = rotated_cumulants(SPEC, state, OrderingParam(0.0), GRID).D_R.values
        half = GRID.n // 2
        assert d_r[half, 0] == -0.5 * np.sin(W0 * GRID.lags[half])
        ctl = ctl_cumulants(SPEC, state, GRID, periodic=True)
        assert np.abs(rotate(ctl, OrderingParam(0.0)).D_R.values - d_r).max() < 1e-12


class TestRotatedImage:
    """`rotated_cumulants` against the oracle `rotate(ctl_cumulants(...,
    periodic=True), p)` at a resonant omega0: D_R and N_s agree to 1e-12
    relative to the oracle's largest entry."""

    @pytest.mark.parametrize("n, dt", [(96, 0.13), (97, 0.11)])
    @pytest.mark.parametrize("state, circulant", [(GaussianState(nbar=0.7), True),
                                                  (GaussianState(nbar=0.8, m=0.5 + 0.3j), False)])
    @pytest.mark.parametrize("s", [-1.0, -0.35, 0.0, 0.7, 1.0])
    def test_matches_rotate(self, n, dt, state, circulant, s):
        grid = TimeGrid(n, dt)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(9), hbar=0.8)
        ctl = ctl_cumulants(spec, state, grid, periodic=True)
        assert (ctl.K_W.profile is not None) == circulant
        p = OrderingParam(s)
        oracle = rotate(ctl, p)
        image = rotated_cumulants(spec, state, p, grid)
        assert image.p == p and image.hbar_c == spec.hbar
        assert not image.mean.values.any()
        for got, want in ((image.D_R, oracle.D_R), (image.N_s, oracle.N_s)):
            want = want.values
            assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()

    def test_response_is_a_circulant_profile(self):
        image = rotated_cumulants(SPEC, GaussianState(), OrderingParam(0.3), GRID)
        assert image.D_R.profile is not None
        assert image.N_s.values.dtype == np.float64


class TestSOrderedKernel:
    def test_vacuum_normal_order_vanishes(self):
        val = s_ordered_kernel(SPEC, GaussianState(), OrderingParam(1.0), 0.3, 1.2)
        assert abs(val) < 1e-15

    def test_vacuum_general_s(self):
        p = OrderingParam(-0.4)
        t, tp = 0.7, 0.1
        val = s_ordered_kernel(SPEC, GaussianState(), p, t, tp)
        assert val == pytest.approx(p.s_minus * np.cos(W0 * (t - tp)))

    def test_thermal(self):
        p = OrderingParam(0.2)
        val = s_ordered_kernel(SPEC, GaussianState(nbar=1.5), p, 0.5, 0.5)
        assert val == pytest.approx(1.5 + p.s_minus)

    def test_unphysical_state_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(nbar=0.1, m=2.0)
        with pytest.raises(ValueError):
            GaussianState(nbar=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, value):
        for make in (lambda v: OscillatorSpec(omega0=v), lambda v: OscillatorSpec(1.0, hbar=v),
                     lambda v: GaussianState(nbar=v), lambda v: GaussianState(nbar=1.0, m=v),
                     lambda v: GaussianState(nbar=1.0, m=1j * v)):
            with pytest.raises(ValueError, match="finite"):
                make(value)

    def test_reordering_difference_is_exact(self):
        t = GRID.times
        state = GaussianState(nbar=0.9, m=0.2 + 0.1j)
        for s, sp in ((0.3, -0.8), (1.0, 0.0)):
            diff = (s_ordered_kernel(SPEC, state, OrderingParam(s), t[:, None], t[None, :])
                    - s_ordered_kernel(SPEC, state, OrderingParam(sp), t[:, None], t[None, :]))
            expect = (sp - s) * 0.5 * np.cos(W0 * (t[:, None] - t[None, :]))
            assert np.abs(diff - expect).max() < 1e-14


class TestFactorisedKernels:
    """The kernels build e^{-i w (t +- t')} from e^{-i w t} and e^{-i w t'};
    the n x n exponentials of t +- t' are the oracle."""

    STATE = GaussianState(nbar=0.7, m=0.3 - 0.4j)

    def direct_parts(self):
        t = GRID.times
        tsum = t[:, None] + t[None, :]
        tau = t[:, None] - t[None, :]
        m = self.STATE.m
        squeeze = m * np.exp(-1j * W0 * tsum) + np.conj(m) * np.exp(1j * W0 * tsum)
        return t, tau, squeeze

    def test_wightman_kernel(self):
        t, tau, squeeze = self.direct_parts()
        nbar = self.STATE.nbar
        direct = 0.5 * SPEC.hbar * (squeeze + (nbar + 1.0) * np.exp(-1j * W0 * tau)
                                    + nbar * np.exp(1j * W0 * tau))
        got = wightman_kernel(SPEC, self.STATE, t[:, None], t[None, :])
        scale = np.abs(direct).max()
        assert np.abs(got - direct).max() < 1e-12 * scale
        assert abs(wightman_kernel(SPEC, self.STATE, t[7], t[3]) - direct[7, 3]) < 1e-12 * scale

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.6])
    def test_s_ordered_kernel(self, s):
        t, tau, squeeze = self.direct_parts()
        p = OrderingParam(s)
        direct = 0.5 * SPEC.hbar * (squeeze + 2.0 * (self.STATE.nbar + p.s_minus)
                                    * np.cos(W0 * tau))
        got = s_ordered_kernel(SPEC, self.STATE, p, t[:, None], t[None, :])
        scale = np.abs(direct).max()
        assert got.dtype == complex
        assert np.abs(got - direct).max() < 1e-12 * scale
        assert abs(s_ordered_kernel(SPEC, self.STATE, p, t[2], t[9]) - direct[2, 9]) < 1e-12 * scale


class TestReorderGap:
    def test_value_at_zero_lag(self):
        assert reorder_gap(SPEC, 0.0) == pytest.approx(0.5)

    def test_grid_assembly_matches_closed_form(self):
        z = reorder_gap_from_response(SPEC, GRID)
        assert np.abs(z.values - reorder_gap(SPEC, GRID.lags)).max() < 1e-8

    def test_fourier_identity_on_grid(self):
        # spectrum of the assembled gap equals the cosine line pair exactly
        z = reorder_gap_from_response(SPEC, GRID)
        coeffs = np.fft.ifft(z.values)
        expect = np.zeros(GRID.n, dtype=complex)
        expect[9] = 0.25
        expect[-9] = 0.25
        assert np.abs(coeffs - expect).max() < 1e-8

    def test_response_recovered_from_gap(self):
        z = Signal(GRID, reorder_gap(SPEC, GRID.lags))
        d = recover_retarded_from_gap(z, SPEC.hbar)
        expect = retarded_response(SPEC, GRID.lags)
        interior = np.abs(GRID.lags) < 0.45 * GRID.duration
        assert np.abs(d.values - expect)[interior].max() < 1e-6

    def test_zero_gap_gives_zero_response(self):
        d = recover_retarded_from_gap(Signal.zero(GRID))
        assert np.abs(d.values).max() == 0.0

    def test_recovery_respects_retardation(self):
        z = Signal(GRID, reorder_gap(SPEC, GRID.lags))
        d = recover_retarded_from_gap(z)
        assert np.abs(d.values[GRID.lags < 0]).max() < 1e-12


class TestKeldyshContractions:
    def test_equal_time(self):
        c = keldysh_contractions(SPEC, 0.0)
        assert 1j * c["D_plus"] == pytest.approx(0.5)
        ctl = ctl_cumulants(SPEC, GaussianState(), GRID)
        assert np.allclose(np.diag(ctl.K_W.values), 1j * c["D_plus"], rtol=0, atol=1e-15)

    def test_feynman_symmetric(self):
        # the vacuum K_F, the theta split of K_W, is i hbar D_F: even in tau
        t = GRID.times
        tau = t[:, None] - t[None, :]
        k_f = ctl_cumulants(SPEC, GaussianState(), GRID).K_F.values
        assert np.abs(k_f - 1j * keldysh_contractions(SPEC, tau)["D_F"]).max() < 1e-12
        assert np.abs(k_f - k_f.T).max() == 0.0

    def test_anticommutator_matches_wightman(self):
        tau = 0.85
        c = keldysh_contractions(SPEC, tau)
        cr = keldysh_contractions(SPEC, -tau)
        anti = 1j * (c["D_plus"] + cr["D_plus"])
        assert anti == pytest.approx(np.cos(W0 * tau))
        w = wightman_kernel(SPEC, GaussianState(), tau, 0.0)
        assert 1j * c["D_plus"] == pytest.approx(w)


class TestLambdaForm:
    def test_zero_sources_give_zero(self):
        ctl = ctl_cumulants(SPEC, GaussianState(), GRID)
        zero = Signal.zero(GRID)
        assert lambda2_form(ctl, zero, zero) == 0

    def test_single_branch_reduces_to_feynman_term(self):
        ctl = ctl_cumulants(SPEC, GaussianState(), GRID)
        rng = np.random.default_rng(5)
        eta_p = Signal(GRID, rng.normal(size=GRID.n))
        zero = Signal.zero(GRID)
        val = lambda2_form(ctl, eta_p, zero)
        expect = -0.5 * GRID.dt ** 2 * (eta_p.values @ ctl.K_F.values @ eta_p.values)
        assert val == pytest.approx(expect)

    @pytest.mark.parametrize("s", [-1.0, -0.3, 0.0, 0.6, 1.0])
    def test_rotated_form_identity(self, s):
        grid = TimeGrid(128, 0.09)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(6))
        state = GaussianState(nbar=0.6, m=0.3 - 0.2j)
        ctl = ctl_cumulants(spec, state, grid, periodic=True)
        rng = np.random.default_rng(11)
        rot = rotated_cumulants(spec, state, OrderingParam(s), grid)
        for _ in range(5):
            eta = Signal(grid, rng.normal(size=grid.n))
            j_s = Signal(grid, rng.normal(size=grid.n))
            chk = lambda2_identity_check(ctl, rot, eta, j_s)
            assert abs(chk["lhs"] - chk["rhs"]) < 1e-8 * max(abs(chk["lhs"]), 1.0)
            assert abs(chk["j_quadratic_term"]) < 1e-8 * max(abs(chk["lhs"]), 1.0)


class TestSubstitution:
    def test_weyl_case_is_algebraic(self):
        rng = np.random.default_rng(2)
        eta = Signal(GRID, rng.normal(size=GRID.n) + 1j * rng.normal(size=GRID.n))
        j_w = Signal(GRID, rng.normal(size=GRID.n))
        ep, em = rotation_substitution(eta, j_w, OrderingParam(0.0))
        assert np.abs(ep.values - (j_w.values + 0.5 * eta.values)).max() < 1e-12
        assert np.abs(em.values - (j_w.values - 0.5 * eta.values)).max() < 1e-12

    def test_normal_order_uses_sign_parts(self):
        from keldrot.grids import project_pm

        rng = np.random.default_rng(3)
        eta = Signal(GRID, rng.normal(size=GRID.n))
        j_e = Signal(GRID, rng.normal(size=GRID.n))
        ep, em = rotation_substitution(eta, j_e, OrderingParam(1.0))
        assert np.abs(ep.values - (j_e.values + project_pm(eta, "-").values)).max() < 1e-12
        assert np.abs(em.values - (j_e.values - project_pm(eta, "+").values)).max() < 1e-12

    def test_round_trip(self):
        # the inverse map: eta = eta_+ - eta_-, j_s = hbar c [eta_+^(s+) + eta_-^(s-)]
        from keldrot.grids import project_s

        rng = np.random.default_rng(4)
        for s in (-0.6, 0.0, 0.9):
            p = OrderingParam(s)
            eta = Signal(GRID, rng.normal(size=GRID.n) + 1j * rng.normal(size=GRID.n))
            j_s = Signal(GRID, rng.normal(size=GRID.n))
            eta_p, eta_m = rotation_substitution(eta, j_s, p)
            back_j = project_s(eta_p, p, "+").values + project_s(eta_m, p, "-").values
            assert np.abs((eta_p - eta_m).values - eta.values).max() < 1e-12
            assert np.abs(back_j - j_s.values).max() < 1e-12


class TestClassicalInfield:
    # the c-number in-field sqrt(hbar/2)(alpha e^{-i w t} + c.c.) of
    # amplitude alpha = x + iy is (x, y) @ _infield_basis
    def test_zero_amplitude(self):
        assert np.array_equal(np.zeros(2) @ _infield_basis(SPEC, GRID.times), np.zeros(GRID.n))

    def test_unit_amplitude_at_origin(self):
        assert (np.array([1.0, 0.0]) @ _infield_basis(SPEC, np.array([0.0])))[0] \
            == pytest.approx(np.sqrt(2.0))
        alpha = 0.3 - 0.8j
        field = np.array([alpha.real, alpha.imag]) @ _infield_basis(SPEC, GRID.times)
        expect = np.sqrt(SPEC.hbar / 2.0) * 2.0 * np.real(alpha * np.exp(-1j * W0 * GRID.times))
        assert np.abs(field - expect).max() < 1e-14


class TestMonteCarlo:
    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            mc_quasiaverage(SPEC, GaussianState(), OrderingParam(0.0),
                            GRID.times[:4], 0, seed=1)

    @pytest.mark.parametrize("n_samples", [2.5, 3.0, "10", None])
    def test_rejects_non_integral_sample_count(self, n_samples):
        # the same check as wyld_mc's, not a TypeError from range arithmetic
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            mc_quasiaverage(SPEC, GaussianState(), OrderingParam(0.0),
                            GRID.times[:4], n_samples, seed=1)

    def test_squeezed_normal_order_unsampleable(self):
        state = GaussianState(nbar=0.3, m=0.6)  # |m| > nbar: P-function not positive
        with pytest.raises(UnsampleableStateError, match="not sampleable"):
            mc_quasiaverage(SPEC, state, OrderingParam(1.0), GRID.times[:4], 10, seed=0)

    def test_vacuum_p_function_is_degenerate(self):
        est, err = mc_quasiaverage(SPEC, GaussianState(), OrderingParam(1.0),
                                   GRID.times[:4], 100, seed=0)
        assert np.abs(est).max() == 0.0 and np.abs(err).max() == 0.0

    def test_vacuum_q_function(self):
        times = GRID.times[:16]
        est, err = mc_quasiaverage(SPEC, GaussianState(), OrderingParam(-1.0),
                                   times, 10 ** 5, seed=99)
        target = np.cos(W0 * (times[:, None] - times[None, :]))
        picks = [(0, 0), (3, 0), (8, 2), (15, 15)]
        for ij in picks:
            assert abs(est[ij] - target[ij]) < 3.0 * err[ij]

    def test_thermal_weyl(self):
        times = GRID.times[:16]
        est, err = mc_quasiaverage(SPEC, GaussianState(nbar=2.0), OrderingParam(0.0),
                                   times, 2 * 10 ** 5, seed=123)
        target = 2.5 * np.cos(W0 * (times[:, None] - times[None, :]))
        for ij in [(0, 0), (5, 1), (12, 3)]:
            assert abs(est[ij] - target[ij]) < 3.0 * err[ij]

    def test_error_scales_as_inverse_sqrt_n(self):
        times = GRID.times[:8]
        _, err_small = mc_quasiaverage(SPEC, GaussianState(nbar=1.0),
                                       OrderingParam(0.0), times, 10 ** 4, seed=7)
        _, err_big = mc_quasiaverage(SPEC, GaussianState(nbar=1.0),
                                     OrderingParam(0.0), times, 10 ** 6, seed=7)
        ratio = err_small.mean() / err_big.mean()
        assert 7.0 < ratio < 13.0  # expect ~ sqrt(100) = 10

    def test_deterministic_in_seed(self):
        times = GRID.times[:8]
        a, _ = mc_quasiaverage(SPEC, GaussianState(nbar=1.0), OrderingParam(0.0),
                               times, 10 ** 4, seed=42)
        b, _ = mc_quasiaverage(SPEC, GaussianState(nbar=1.0), OrderingParam(0.0),
                               times, 10 ** 4, seed=42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.6])
    def test_grams_match_sample_paths(self, s):
        # the slow route: every sample path on the grid, drawn from the same
        # Philox stream, more samples than one chunk
        state = GaussianState(nbar=0.5, m=0.4j)
        p = OrderingParam(s)
        times = GRID.times[:10]
        n, seed = 250_000, 31
        est, err = mc_quasiaverage(SPEC, state, p, times, n, seed)
        alphas = sample_quasidistribution(state, p, n, np.random.Generator(np.random.Philox(seed)))
        q = np.sqrt(2.0 * SPEC.hbar) * np.real(alphas[:, None] * np.exp(-1j * W0 * times))
        mean = q.T @ q / n
        q2 = q ** 2
        stderr = np.sqrt(np.maximum(q2.T @ q2 / n - mean ** 2, 0.0) / n)
        assert np.abs(est - mean).max() < 1e-12 * np.abs(mean).max()
        assert np.abs(err - stderr).max() < 1e-12 * np.abs(stderr).max()

    def test_infield_moments_reproduce_kernel(self):
        # MC over the quasidistribution is an oracle for the closed form
        state = GaussianState(nbar=0.5, m=0.4j)
        p = OrderingParam(0.3)
        rng = np.random.default_rng(17)
        alphas = sample_quasidistribution(state, p, 200_000, rng)
        t1, t2 = 0.4, 1.1
        # the in-field sqrt(hbar/2)(alpha e^{-i w t} + c.c.) of every sample
        qs = (np.sqrt(SPEC.hbar / 2) * 2
              * np.real(alphas[:, None] * np.exp(-1j * W0 * np.array([t1, t2]))))
        mc_val = (qs[:, 0] * qs[:, 1]).mean()
        closed = s_ordered_kernel(SPEC, state, p, t1, t2).real
        stderr = (qs[:, 0] * qs[:, 1]).std() / np.sqrt(len(alphas))
        assert abs(mc_val - closed) < 4.0 * stderr
