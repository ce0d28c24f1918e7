import threading
import warnings

import numpy as np
import pytest

from keldrot.acceptance import _dirac_sea_current_set
from keldrot.diracsea import DiracSeaSpec, F_threshold, R_obs
from keldrot.grids import OrderingParam, Signal, TimeGrid, TwoPointKernel
import keldrot.medium as medium
from keldrot.medium import (
    SpectralDensity,
    dress_retarded_grid,
    gauge_projector_diagnosis,
    mean_field,
    noise_map,
    one_mode_toy,
    wave_operator_residual,
    wyld_mc,
    zero_point_smooth,
    zero_point_smooth_finite_eps,
    zero_point_spectrum,
)
from keldrot.oscillator import (
    GaussianState,
    OscillatorSpec,
    _infield_basis,
    ctl_cumulants,
    retarded_response,
    retarded_response_grid,
)
from keldrot.rotation import CumulantSet, RotatedCumulants, reorder, rotate

from common import (acausal_part, circular_lags, dense_dyson_two_route, lag_profile,
                    pointwise_response, time_normal_vacuum_noise, triple_residuals, zero_kernel)

SEA = DiracSeaSpec(mu0=1.0)


def toy_kernels(n=1024, total_time=24.0, omega0=1.0, gamma=0.25):
    grid = TimeGrid(n, total_time / n)
    d_bare, pi_r, _, _ = one_mode_toy(grid, omega0, gamma)
    return grid, OscillatorSpec(omega0=omega0), d_bare, pi_r, gamma


def dressed_momentum(k_sq, spec):
    """Dressed retarded propagator mu_vac / [k^2 (1 + R_obs(k))] at k0 > 0,
    mu_vac = 1, off the light cone."""
    return 1.0 / (k_sq * (1.0 + R_obs(k_sq, spec)))


class TestMomentumDressing:
    def test_bare_limit(self):
        # with no susceptibility the propagator is mu_vac / k^2
        val = dressed_momentum(-4.0, DiracSeaSpec(mu0=1e8))  # R ~ 0
        assert val == pytest.approx(-0.25, rel=1e-6)

    def test_spacelike_real_and_negative(self):
        # R_obs is real and negative at spacelike k, so the propagator stays
        # real and exceeds the bare -1/9 in size (the Uehling enhancement)
        val = dressed_momentum(-9.0, SEA)
        assert val.imag == 0.0
        assert val.real < -1.0 / 9.0


class TestGridDressing:
    def test_zero_susceptibility_identity(self):
        grid, _, d_bare, _, _ = toy_kernels()
        dressed = dress_retarded_grid(d_bare, zero_kernel(grid))
        assert np.abs(dressed.values - d_bare.values).max() == 0.0

    def test_pole_shift_closed_form(self):
        grid, spec, d_bare, pi_r, gamma = toy_kernels(n=2048, total_time=30.0)
        dressed = dress_retarded_grid(d_bare, pi_r)
        w_shift = np.sqrt(spec.omega0 ** 2 + gamma * spec.omega0)
        t = grid.times
        tau = t[:, None] - t[None, :]
        closed = np.tril((spec.omega0 / w_shift)
                         * retarded_response(OscillatorSpec(omega0=w_shift), tau))
        assert np.abs(dressed.values - closed).max() < 1e-4

    def test_neumann_truncation_cubic_scaling(self):
        errs = []
        for gamma in (0.02, 0.01):
            grid, _, d_bare, pi_r, _ = toy_kernels(n=512, total_time=12.0,
                                                   gamma=gamma)
            dressed = dress_retarded_grid(d_bare, pi_r)
            dt = grid.dt
            g1 = dt ** 2 * (d_bare.values @ pi_r.values)
            three_term = d_bare.values + g1 @ d_bare.values + g1 @ g1 @ d_bare.values
            errs.append(np.abs(three_term - dressed.values).max())
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.25)

    def test_wave_operator_residual(self):
        grid, spec, d_bare, pi_r, _ = toy_kernels(n=2048, total_time=30.0)
        dressed = dress_retarded_grid(d_bare, pi_r)
        assert wave_operator_residual(dressed, pi_r, spec.omega0) < 1e-4

    @pytest.mark.parametrize("block", [0, 1])
    def test_wave_operator_residual_carries_nan(self, block):
        # a NaN interior entry in the first or a later row block is not dropped
        grid, spec, d_bare, pi_r, _ = toy_kernels(n=256, total_time=10.0)
        values = dress_retarded_grid(d_bare, pi_r).values.copy()
        values[10 + 64 * block, 3] = np.nan
        residual = wave_operator_residual(TwoPointKernel(grid, values), pi_r, spec.omega0)
        assert np.isnan(residual)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, -1.0, -2.0])
    def test_toy_rejects_bad_coupling(self, gamma):
        # the pole moves to w'^2 = omega0^2 + gamma omega0, which must stay positive
        with pytest.raises(ValueError, match="coupling gamma"):
            one_mode_toy(TimeGrid(8, 0.5), 1.0, gamma)

    def test_non_retarded_input_rejected(self):
        grid, spec, d_bare, _, _ = toy_kernels(n=64, total_time=6.0)
        sym = TwoPointKernel(grid, d_bare.values + d_bare.values.T)
        # retarded on the circle, which rotate accepts, but not in linear
        # time, which the forward substitution needs
        circ = TwoPointKernel(grid, retarded_response(spec, circular_lags(grid)))
        assert acausal_part(circ.values, grid)[1] == 0.0
        for bad in (sym, circ):
            with pytest.raises(ValueError, match="bare propagator kernel is not retarded"):
                dress_retarded_grid(bad, zero_kernel(grid))
            with pytest.raises(ValueError, match="susceptibility kernel is not retarded"):
                dress_retarded_grid(d_bare, bad)

    def test_result_is_retarded(self):
        grid, _, d_bare, pi_r, _ = toy_kernels(n=256, total_time=10.0)
        dressed = dress_retarded_grid(d_bare, pi_r)
        assert np.abs(np.triu(dressed.values, 1)).max() == 0.0


class TestMeanField:
    def test_delta_pulse_reads_off_column(self):
        grid, _, d_bare, _, _ = toy_kernels(n=128, total_time=8.0)
        j = Signal(grid, np.zeros(grid.n))
        j.values[7] = 1.0 / grid.dt
        out = mean_field(d_bare, j)
        assert np.abs(out.values - d_bare.values[:, 7]).max() < 1e-12

    def test_zero_sources(self):
        grid, _, d_bare, _, _ = toy_kernels(n=64, total_time=6.0)
        out = mean_field(d_bare, Signal.zero(grid))
        assert np.abs(out.values).max() == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_source_refused(self, bad):
        # an all-NaN source returned an all-NaN field
        grid, _, d_bare, _, _ = toy_kernels(n=64, total_time=6.0)
        for values in (np.full(grid.n, bad), np.where(np.arange(grid.n) == 40, bad, 1.0)):
            with pytest.raises(ValueError, match="J_e must be finite"):
                mean_field(d_bare, Signal(grid, values))

    def test_superposition(self):
        grid, _, d_bare, _, _ = toy_kernels(n=64, total_time=6.0)
        rng = np.random.default_rng(0)
        j1 = Signal(grid, rng.normal(size=grid.n))
        j2 = Signal(grid, rng.normal(size=grid.n))
        lhs = mean_field(d_bare, j1 + j2).values
        rhs = mean_field(d_bare, j1).values + mean_field(d_bare, j2).values
        assert np.abs(lhs - rhs).max() < 1e-12


class TestNoiseMap:
    def test_empty_vacuum_maps_to_zero(self):
        grid, _, d_bare, _, _ = toy_kernels(n=64, total_time=6.0)
        out = noise_map(d_bare, zero_kernel(grid))
        assert np.abs(out.values).max() == 0.0

    def test_white_noise_composition(self):
        grid, _, d_bare, _, _ = toy_kernels(n=64, total_time=6.0)
        white = TwoPointKernel(grid, np.eye(grid.n) / grid.dt)
        out = noise_map(d_bare, white)
        expect = grid.dt * (d_bare.values @ d_bare.values.conj().T)
        assert np.abs(out.values - expect).max() < 1e-12

    def test_output_hermitian(self):
        grid, _, d_bare, pi_r, _ = toy_kernels(n=64, total_time=6.0)
        rng = np.random.default_rng(1)
        h = rng.normal(size=(grid.n, grid.n))
        pi_n = TwoPointKernel(grid, (h + h.T).astype(complex))
        out = noise_map(d_bare, pi_n)
        assert np.abs(out.values - out.values.conj().T).max() < 1e-10

    def test_non_hermitian_noise_rejected(self):
        grid, _, d_bare, _, _ = toy_kernels(n=16, total_time=2.0)
        bad = TwoPointKernel(grid, np.triu(np.ones((grid.n, grid.n))))
        with pytest.raises(ValueError, match="Hermitian"):
            noise_map(d_bare, bad)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["off diagonal", "white level", "diagonal"])
    def test_non_finite_noise_rejected(self, bad, where):
        grid, _, d_bare, _, _ = toy_kernels(n=16, total_time=2.0)
        pi_n = np.eye(grid.n)
        if where == "white level":
            pi_n[np.diag_indices(grid.n)] = bad
        elif where == "diagonal":
            pi_n[3, 3] = bad
        else:
            pi_n[3, 4] = bad
        with pytest.raises(ValueError, match="finite and Hermitian"):
            noise_map(d_bare, TwoPointKernel(grid, pi_n))


class TestRealRoute:
    """Real kernels stay real, so their products run in real arithmetic;
    the complex products of explicit complex copies are the oracle."""

    def test_real_kernels_match_complex_products(self):
        from scipy.linalg import solve_triangular

        grid, spec, d_bare, pi_r, _ = toy_kernels(n=256, total_time=10.0)
        rng = np.random.default_rng(4)
        h = rng.normal(size=(grid.n, grid.n))
        pi_n = TwoPointKernel(grid, h + h.T)
        dt, w0 = grid.dt, spec.omega0
        d0, p = d_bare.values.astype(complex), pi_r.values.astype(complex)

        dressed = dress_retarded_grid(d_bare, pi_r)
        d = np.tril(solve_triangular(np.eye(grid.n) - dt ** 2 * (d0 @ p), d0, lower=True))
        assert np.abs(dressed.values - d).max() < 1e-12 * np.abs(d).max()

        noise = dt ** 2 * (d @ pi_n.values.astype(complex) @ d.conj().T)
        got = noise_map(dressed, pi_n).values
        assert np.abs(got - noise).max() < 1e-12 * np.abs(noise).max()

        d2 = (np.roll(d, -1, axis=0) - 2.0 * d + np.roll(d, 1, axis=0)) / dt ** 2
        lhs = -(d2 + w0 ** 2 * d) / w0 - dt * (p @ d)
        i = np.arange(grid.n)
        lag = i[:, None] - i[None, :]
        interior = ((lag >= 2) & (lag <= grid.n - 3)
                    & (i[:, None] >= 2) & (i[:, None] <= grid.n - 3))
        residual = np.abs(lhs[interior]).max() * dt
        assert wave_operator_residual(dressed, pi_r, w0) == pytest.approx(residual, rel=1e-12)

    def test_real_inputs_give_real_outputs(self):
        grid, _, d_bare, pi_r, _ = toy_kernels(n=64, total_time=6.0)
        rng = np.random.default_rng(6)
        h = rng.normal(size=(grid.n, grid.n))
        pi_n = TwoPointKernel(grid, h + h.T)
        j = Signal(grid, rng.normal(size=grid.n))
        dressed = dress_retarded_grid(d_bare, pi_r)
        for out in (dressed.values, noise_map(dressed, pi_n).values,
                    mean_field(dressed, j).values):
            assert out.dtype == np.float64

    def test_complex_inputs_stay_complex(self):
        grid, _, d_bare, pi_r, _ = toy_kernels(n=64, total_time=6.0)
        d_c = TwoPointKernel(grid, d_bare.values.astype(complex))
        dressed = dress_retarded_grid(d_c, pi_r)
        assert dressed.values.dtype == np.complex128
        real = dress_retarded_grid(d_bare, pi_r).values
        assert np.abs(dressed.values - real).max() < 1e-12 * np.abs(real).max()
        j = Signal(grid, np.ones(grid.n, dtype=complex))
        assert mean_field(d_bare, j).values.dtype == np.complex128
        white = TwoPointKernel(grid, np.eye(grid.n, dtype=complex))
        assert noise_map(d_bare, white).values.dtype == np.complex128

    def test_non_real_noise_kernel_takes_complex_route(self):
        grid, _, d_bare, _, _ = toy_kernels(n=64, total_time=6.0)
        rng = np.random.default_rng(5)
        h = rng.normal(size=(grid.n, grid.n)) + 1j * rng.normal(size=(grid.n, grid.n))
        pi_n = TwoPointKernel(grid, h + h.conj().T)
        d = d_bare.values
        noise = grid.dt ** 2 * (d @ pi_n.values @ d.conj().T)
        got = noise_map(d_bare, pi_n).values
        assert np.abs(got - noise).max() < 1e-12 * np.abs(noise).max()
        assert np.abs(got.imag).max() > 0.1 * np.abs(got).max()


class TestZeroPointSpectrum:
    def test_below_threshold_smooth_vanishes(self):
        assert zero_point_smooth(2.0, SEA) == 0.0

    def test_closed_form_value(self):
        k_sq = 8.0
        expect = SEA.alpha * F_threshold(2.0) / (
            3 * k_sq * abs(1 + R_obs(k_sq, SEA)) ** 2)
        assert zero_point_smooth(k_sq, SEA) == pytest.approx(expect, rel=1e-12)

    def test_delta_ledger_single_cone_term(self):
        density = zero_point_spectrum([2.0, 8.0], SEA, mu_vac=1.5, hbar_c=2.0)
        assert density.delta_terms == [(0.0, np.pi * 2.0 * 1.5)]

    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.3, 1.0])
    def test_at_ordering_scales_by_two_s_minus(self, s):
        # the spectrum vanishes at time-normal ordering (s = 1) and is the
        # Weyl density at s = 0
        density = zero_point_spectrum([2.0, 8.0, 20.0], SEA, mu_vac=1.5, hbar_c=2.0)
        ordered = density.at_ordering(OrderingParam(s))
        factor = 1.0 - s
        assert np.array_equal(ordered.k_sq, density.k_sq)
        assert np.array_equal(ordered.smooth, factor * density.smooth)
        assert ordered.delta_terms == [(0.0, factor * np.pi * 2.0 * 1.5)]
        if s == 1.0:
            assert not ordered.smooth.any() and ordered.delta_terms[0][1] == 0.0
        if s == 0.0:
            assert np.array_equal(ordered.smooth, density.smooth)
            assert ordered.delta_terms == density.delta_terms

    def test_two_route_agreement(self):
        for k_sq in (6.0, 8.0, 20.0):
            closed = zero_point_smooth(k_sq, SEA)
            k0 = np.sqrt(k_sq + 2.0)
            route = zero_point_smooth_finite_eps(k0, k0 ** 2 - k_sq, SEA, 1e-4)
            assert abs(route - closed) / closed < 1e-3

    def test_scalar_in_k_sq(self):
        k_sq = 30.0
        vals = [zero_point_smooth_finite_eps(k0, k0 ** 2 - k_sq, SEA, 1e-4)
                for k0 in (np.sqrt(k_sq + 0.3), np.sqrt(k_sq + 9.0))]
        assert abs(vals[0] - vals[1]) < 1e-10 * abs(vals[0])

    def test_density_validation(self):
        with pytest.raises(ValueError):
            SpectralDensity(k_sq=np.array([1.0]), smooth=np.array([1.0, 2.0]), delta_terms=[])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, bad):
        # -inf lies below threshold, where the smooth part would read 0
        with pytest.raises(ValueError, match="k_sq must be finite"):
            zero_point_spectrum([8.0, bad], SEA)
        with pytest.raises(ValueError, match="k_sq must be finite"):
            zero_point_smooth(bad, SEA)
        with pytest.raises(ValueError, match="k_sq must be finite"):
            zero_point_smooth_finite_eps(bad, 1.0, SEA, 1e-4)
        for name in ("mu_vac", "hbar_c"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                zero_point_spectrum([8.0], SEA, **{name: bad})

    @pytest.mark.parametrize("name", ["mu_vac", "hbar_c"])
    def test_non_positive_scale_rejected(self, name):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                zero_point_spectrum([8.0], SEA, **{name: bad})


def circulant_set(grid, profile):
    """The Hermitian set on the circle with zero mean, hbar c = 1 and the
    circulant Wightman kernel of lag profile `profile`."""
    return CumulantSet(Signal.zero(grid), TwoPointKernel.circulant(grid, profile), 1.0, True)


class TestTimeNormalVacuumNoise:
    """The time-normal (s = 1) noise of a stationary set through `rotate`,
    with the stationary lag-variable formula as its oracle, and of the
    Dirac-sea vacuum current, which has no zero-point part."""

    @pytest.mark.parametrize("n", [127, 128, 1024])
    def test_rotate_matches_stationary_formula(self, n):
        grid = TimeGrid(n, 0.05)
        rng = np.random.default_rng(n)
        for _ in range(3):
            ctl = circulant_set(grid, np.fft.fft(rng.uniform(0.0, 1.0, n)))
            k_f, k_w = lag_profile(ctl.K_F), lag_profile(ctl.K_W)
            n_1 = lag_profile(rotate(ctl, OrderingParam(1.0)).N_s)
            oracle = time_normal_vacuum_noise(Signal(grid, 1j * k_f), Signal(grid, 1j * k_w))
            assert np.abs(n_1 + oracle.values).max() <= 1e-13 * np.abs(k_w).max()

    def test_dirac_sea_vacuum_gives_zero(self):
        sea = _dirac_sea_current_set(TimeGrid(128, 0.08), 1.0, SEA)
        n_1 = lag_profile(rotate(sea, OrderingParam(1.0)).N_s)
        assert np.abs(n_1).max() < 1e-8 * np.abs(lag_profile(sea.K_W)).max()

    def test_thermal_like_input_is_nonzero(self):
        grid = TimeGrid(128, 0.08)
        bins = np.fft.ifft(lag_profile(_dirac_sea_current_set(grid, 1.0, SEA).K_W))
        bins[-7] += 0.05  # negative-frequency (occupied-mode) Wightman content
        n_1 = lag_profile(rotate(circulant_set(grid, np.fft.fft(bins)), OrderingParam(1.0)).N_s)
        assert np.abs(n_1).max() > 0.01

    def test_reordered_vacuum_noise_scales_with_s_minus(self):
        grid = TimeGrid(128, 0.08)
        w0 = grid.resonant_frequency(9)
        spec = OscillatorSpec(omega0=w0)
        ctl = ctl_cumulants(spec, GaussianState(), grid, periodic=True)
        rot1 = rotate(ctl, OrderingParam(1.0))
        t = grid.times
        for s in (0.0, -1.0, 0.35):
            p = OrderingParam(s)
            n_s = reorder(rot1, s).N_s.values
            expect = 2 * p.s_minus * 0.5 * np.cos(w0 * (t[:, None] - t[None, :]))
            assert np.abs(n_s - expect).max() < 1e-10

    @pytest.mark.parametrize("n, dt", [(128, 0.08), (1024, 0.02)])
    def test_zero_point_spectrum_two_route(self, n, dt):
        """The smooth zero-point spectrum from the rotated vacuum current
        against its momentum-space closed form, at every ordering.

        Route 1 rotates the current set once, to s = 1, and `reorder`s it to
        s; N_s = 2 s_minus N_0, and on the circle the bins of a lag profile
        are its `np.fft.ifft`.  Pi^{mu nu} = Pi (k^mu k^nu - k^2 g^{mu nu})
        / (-mu_vac) stores only its transverse scalar coefficient Pi
        (`diracsea.PolarizationTensorValue`).  For a spatial polarization e
        with e . kvec = 0, e_mu e_nu k^mu k^nu = 0 and e_mu e_nu g^{mu nu}
        = -1, so the transverse current carries k^2 / mu_vac times the
        scalar spectrum: its s-ordered noise on bin j is (k^2 / mu_vac)
        N_s(w_j).  The transverse field's retarded propagator is
        D_R = mu_vac / (k^2 (1 + R_obs)), and on the circle the noise map
        D_R N D_R* is a product per bin, so the field's noise is
        |D_R|^2 (k^2 / mu_vac) N_s = mu_vac N_s / (k^2 |1 + R_obs|^2); at
        mu_vac = 1 the bin's N_s over k^2 |1 + R_obs(k^2)|^2.

        Route 2 is `zero_point_spectrum(k^2).at_ordering(p).smooth` at
        k^2 = w_j^2 - |k|^2.  Both are compared on every bin above the pair
        threshold k^2 > 4 mu0^2 but the Nyquist bin, whose partner -w is
        itself.  At |k|^2 = 1 no bin sits on the light cone, where the delta
        ledger holds the spectrum: the nearest bins are 0.51 (n = 128) and
        0.15 (n = 1024) away from it in w^2 - |k|^2.
        """
        grid = TimeGrid(n, dt)
        kvec_sq = 1.0
        rot1 = rotate(_dirac_sea_current_set(grid, kvec_sq, SEA), OrderingParam(1.0))
        k_sq = grid.omega ** 2 - kvec_sq
        above = k_sq > 4.0 * SEA.mu0 ** 2
        above[n // 2] &= n % 2 == 1
        k_sq = k_sq[above]
        dressing = k_sq * np.array([abs(1.0 + R_obs(x, SEA)) ** 2 for x in k_sq])
        weyl = zero_point_spectrum(k_sq, SEA)
        scale = np.abs(weyl.smooth).max()
        for s in (-1.0, 0.0, 0.5, 1.0):
            n_s = np.fft.ifft(lag_profile(reorder(rot1, s).N_s)).real[above]
            closed = weyl.at_ordering(OrderingParam(s)).smooth
            assert np.abs(n_s / dressing - closed).max() <= 1e-13 * scale


def serial_wyld_mc(spec, grid, n_samples, seed, J_e=None, white_noise_std=0.0,
                   alpha_nbar=0.0):
    """The path sampler: every sample path drawn and summed, with the
    fourth-moment estimate of cov_stderr from the centred products."""
    rng = np.random.Generator(np.random.Philox(seed))
    dr = retarded_response_grid(spec, grid).values
    q = np.zeros((n_samples, grid.n))
    if alpha_nbar > 0:
        q += np.sqrt(alpha_nbar / 2.0) * rng.standard_normal((n_samples, 2)) @ _infield_basis(
            spec, grid.times)
    if white_noise_std > 0:
        j_r = rng.standard_normal((n_samples, grid.n)) * (white_noise_std / np.sqrt(grid.dt))
        q += grid.dt * (j_r @ dr.T)
    if J_e is not None:
        q += grid.dt * (dr @ J_e.values.real)
    mean = q.mean(axis=0)
    cov = q.T @ q / n_samples - np.outer(mean, mean)
    q2 = q ** 2
    centred2 = (q - mean) ** 2
    return {
        "mean": mean,
        "mean_stderr": np.sqrt(np.maximum(q2.mean(axis=0) - mean ** 2, 0.0) / n_samples),
        "cov": cov,
        "cov_stderr": np.sqrt(np.maximum(centred2.T @ centred2 / n_samples - cov ** 2, 0.0)
                              / n_samples),
    }


def mc_inputs(grid, spec, inputs):
    return {
        "noise": {"white_noise_std": 0.4},
        "alpha+source+noise": {"J_e": Signal(grid, np.cos(spec.omega0 * grid.times)),
                               "white_noise_std": 0.4, "alpha_nbar": 0.8},
        "alpha": {"alpha_nbar": 1.3},
    }[inputs]


def documented_draw(spec, grid, n_samples, seed, J_e=None, white_noise_std=0.0,
                    alpha_nbar=0.0):
    """wyld_mc's draw written out: the rows B of the d random inputs, the
    source's field, the sample mean zbar and a root R of the scatter matrix,
    W = R^T R (A^T from the Bartlett draw when n_samples - 1 >= d, else the
    n_samples - 1 standard normal rows Z)."""
    rng = np.random.Generator(np.random.Philox(seed))
    dr = retarded_response_grid(spec, grid).values
    base = np.zeros(grid.n) if J_e is None else grid.dt * (dr @ J_e.values.real)
    rows = [np.zeros((0, grid.n))]
    if alpha_nbar > 0:
        rows.append(np.sqrt(alpha_nbar / 2.0) * _infield_basis(spec, grid.times))
    if white_noise_std > 0:
        rows.append((grid.dt * white_noise_std / np.sqrt(grid.dt)) * dr.T)
    b = np.concatenate(rows)
    d = len(b)
    z_mean = rng.standard_normal(d) / np.sqrt(n_samples)
    if n_samples - 1 >= d:
        a = np.diag(np.sqrt(rng.chisquare(n_samples - 1 - np.arange(d))))
        a[np.tril_indices(d, -1)] = rng.standard_normal(d * (d - 1) // 2)
        return b, base, z_mean, a.T
    return b, base, z_mean, rng.standard_normal((n_samples - 1, d))


def assert_same_mean(a, b, sigmas=4.0):
    """The column means of two independent samples (rows) agree within
    `sigmas` standard errors of their difference."""
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= sigmas * se)


class TestWyldMC:
    def test_deterministic_source_only(self):
        # no random input (d = 0): the mean is the radiated field and the
        # covariance is exactly zero, whatever the sample count
        grid = TimeGrid(32, 0.2)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(3))
        j_e = Signal(grid, np.cos(spec.omega0 * grid.times))
        t = grid.times
        dr = np.tril(retarded_response(spec, t[:, None] - t[None, :]))
        expect = grid.dt * (dr @ j_e.values.real)
        for n_samples in (1, 200):
            res = wyld_mc(spec, grid, n_samples, seed=5, J_e=j_e)
            assert np.abs(res["mean"] - expect).max() < 1e-12
            assert not res["cov"].any() and not res["cov_stderr"].any()
            assert not res["mean_stderr"].any()

    def test_thermal_infield_covariance(self):
        grid = TimeGrid(24, 0.3)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(3))
        nbar = 1.5
        res = wyld_mc(spec, grid, 400_000, seed=11, alpha_nbar=nbar)
        t = grid.times
        target = nbar * np.cos(spec.omega0 * (t[:, None] - t[None, :]))
        picks = [(0, 0), (5, 2), (12, 12), (20, 3)]
        for ij in picks:
            assert abs(res["cov"][ij] - target[ij]) < 3.5 * res["cov_stderr"][ij]

    def test_white_noise_matches_noise_map(self):
        grid = TimeGrid(24, 0.3)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(3))
        sigma = 0.5
        res = wyld_mc(spec, grid, 400_000, seed=21, white_noise_std=sigma)
        t = grid.times
        dr = TwoPointKernel(grid, np.tril(
            retarded_response(spec, t[:, None] - t[None, :])))
        pi_n = TwoPointKernel(grid, (sigma ** 2 / grid.dt) * np.eye(grid.n))
        target = noise_map(dr, pi_n).values.real
        picks = [(23, 4), (23, 12), (12, 12), (18, 6)]
        for ij in picks:
            assert abs(res["cov"][ij] - target[ij]) < 3.5 * res["cov_stderr"][ij]

    # d = 14 random inputs with the amplitude and the current: n_samples 200
    # and 16 take the Bartlett draw, 6 the n_samples - 1 < d one
    @pytest.mark.parametrize("inputs, n_samples", [
        ("noise", 200), ("alpha", 200), ("alpha+source+noise", 200),
        ("alpha+source+noise", 16), ("alpha+source+noise", 6)])
    def test_matches_path_sampler_in_distribution(self, inputs, n_samples):
        # over 500 seeds each, the direct draw and the path sampler give the
        # same mean and variance of chosen mean and cov entries, and at 200
        # samples the same average standard errors (the path sampler's
        # fourth-moment estimate is biased at a few samples)
        grid = TimeGrid(12, 0.3)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(2))
        kwargs = mc_inputs(grid, spec, inputs)
        cov_picks = [(0, 0), (11, 11), (11, 3), (6, 2)]
        entries = {"mean": [0, 5, 11], "cov": cov_picks,
                   "mean_stderr": [0, 5, 11], "cov_stderr": cov_picks}

        def sample(mc, seeds):
            runs = [mc(spec, grid, n_samples, seed, **kwargs) for seed in seeds]
            return {key: np.array([[run[key][e] for e in picks] for run in runs])
                    for key, picks in entries.items()}

        # disjoint seeds: the two routes read the same Philox streams
        direct = sample(wyld_mc, range(500))
        paths = sample(serial_wyld_mc, range(1000, 1500))
        for key in ("mean", "cov"):
            a, b = direct[key], paths[key]
            assert_same_mean(a, b)
            centre = 0.5 * (a.mean(axis=0) + b.mean(axis=0))
            assert_same_mean((a - centre) ** 2, (b - centre) ** 2)
        if n_samples >= 200:
            for key in ("mean_stderr", "cov_stderr"):
                assert_same_mean(direct[key], paths[key])

    def test_cov_stderr_matches_scatter_of_centred_cov(self):
        # with a source the mean is far from zero, but cov is centred on it:
        # over seeded runs the average cov_stderr is the observed standard
        # deviation of cov (a standard error of the raw product q_i q_j would
        # read 2.4 times it at (11, 11))
        grid = TimeGrid(12, 0.3)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(2))
        kwargs = mc_inputs(grid, spec, "alpha+source+noise")
        picks = ([0, 11, 11, 6], [0, 11, 3, 2])
        runs = [wyld_mc(spec, grid, 200, seed, **kwargs) for seed in range(500)]
        cov = np.array([run["cov"][picks] for run in runs])
        stderr = np.array([run["cov_stderr"][picks] for run in runs])
        ratio = stderr.mean(axis=0) / cov.std(axis=0, ddof=1)
        assert np.all(np.abs(ratio - 1.0) < 0.15), ratio

    # d = 2 (alpha), 12 (noise) and 14 (alpha+source+noise): the Bartlett draw
    # needs n_samples - 1 >= d, so the small counts straddle the two branches
    @pytest.mark.parametrize("n_samples", [1, 2, 3, 12, 13, 14, 15, 50_000, 50_001, 125_000])
    @pytest.mark.parametrize("inputs", ["noise", "alpha+source+noise", "alpha"])
    def test_bits_match_serial_drawing(self, inputs, n_samples):
        # the estimates are a function of the seed through the documented
        # draws alone, so they keep their bytes for as long as this order holds
        grid = TimeGrid(12, 0.3)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(2))
        kwargs = mc_inputs(grid, spec, inputs)
        b, base, z_mean, root = documented_draw(spec, grid, n_samples, 17, **kwargs)
        spread = root @ b
        got = wyld_mc(spec, grid, n_samples, 17, **kwargs)
        assert got["n_samples"] == n_samples
        assert np.array_equal(got["mean"], z_mean @ b + base)
        assert np.array_equal(got["cov"], spread.T @ spread / n_samples)

    def test_statistics_match_sample_paths(self):
        # the estimates are the statistics of n_samples explicit paths with the
        # source, the in-field and the white current: zbar plus the root of W
        # spread over orthonormal contrasts of the samples (Helmert columns),
        # on both branches (d = 14)
        grid = TimeGrid(12, 0.3)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(2))
        t = grid.times
        j_e = Signal(grid, np.cos(spec.omega0 * t))
        nbar, sigma, seed = 0.8, 0.5, 13
        kwargs = {"J_e": j_e, "white_noise_std": sigma, "alpha_nbar": nbar}
        dr = retarded_response(spec, t[:, None] - t[None, :])
        for n_samples in (6, 53_000):
            res = wyld_mc(spec, grid, n_samples, seed, **kwargs)
            _, _, z_mean, root = documented_draw(spec, grid, n_samples, seed, **kwargs)
            helmert = np.zeros((n_samples, len(root)))
            for j in range(len(root)):
                helmert[:j + 1, j] = 1.0
                helmert[j + 1, j] = -(j + 1.0)
                helmert[:, j] /= np.sqrt((j + 1.0) * (j + 2.0))
            z = z_mean + helmert @ root
            alphas = np.sqrt(nbar / 2.0) * (z[:, 0] + 1j * z[:, 1])
            j_r = z[:, 2:] * (sigma / np.sqrt(grid.dt))
            q = (grid.dt * (dr @ j_e.values.real)
                 + np.sqrt(2.0 * spec.hbar) * np.real(alphas[:, None] * np.exp(-1j * spec.omega0 * t))
                 + grid.dt * (j_r @ dr.T))
            mean = q.mean(axis=0)
            cov = (q - mean).T @ (q - mean) / n_samples
            var = np.diag(cov)
            isserlis = np.outer(var, var) + cov ** 2
            expect = {
                "mean": mean,
                "mean_stderr": np.sqrt(var / n_samples),
                "cov": cov,
                "cov_stderr": np.sqrt(isserlis / n_samples),
            }
            for key, want in expect.items():
                assert np.abs(res[key] - want).max() < 1e-12 * np.abs(want).max(), (key, n_samples)

    def test_single_sample(self):
        # n_samples = 1 leaves no scatter: the covariance and its errors are zero
        grid = TimeGrid(12, 0.3)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(2))
        res = wyld_mc(spec, grid, 1, 3, **mc_inputs(grid, spec, "alpha+source+noise"))
        assert not res["cov"].any() and not res["mean_stderr"].any()
        assert np.all(np.isfinite(res["mean"]))

    def test_cost_bounded_in_sample_count(self, monkeypatch):
        # the draw does not grow with n_samples, and no thread is started
        generator, made = np.random.Generator, []

        class CountingGenerator:
            def __init__(self, bit_generator):
                self.rng, self.drawn = generator(bit_generator), 0
                made.append(self)

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    out = method(*args, **kwargs)
                    self.drawn += np.size(out)
                    return out
                return counted

        def no_thread(self):
            raise AssertionError("wyld_mc started a thread")

        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        grid = TimeGrid(48, 0.21)
        spec = OscillatorSpec(omega0=grid.resonant_frequency(5))
        kwargs = {"white_noise_std": 0.4, "alpha_nbar": 0.5}
        wyld_mc(spec, grid, 10 ** 3, 7, **kwargs)
        huge = wyld_mc(spec, grid, 10 ** 12, 7, **kwargs)
        d = 2 + grid.n
        assert [g.drawn for g in made] == [d + d + d * (d - 1) // 2] * 2
        assert np.all(np.isfinite(huge["cov"]))
        # at 1e12 samples the estimate is the exact covariance to about 1e-6
        dr = retarded_response_grid(spec, grid).values
        exact = (0.4 ** 2 * grid.dt) * dr @ dr.T + 0.5 * np.cos(
            spec.omega0 * (grid.times[:, None] - grid.times[None, :]))
        assert np.abs(huge["cov"] - exact).max() < 1e-4 * np.abs(exact).max()

    @pytest.mark.parametrize("n_samples", [2.5, 3.0, "10"])
    def test_non_integral_sample_count_rejected(self, n_samples):
        grid = TimeGrid(8, 0.5)
        with pytest.raises(ValueError, match="n_samples"):
            wyld_mc(OscillatorSpec(omega0=1.0), grid, n_samples, seed=0, white_noise_std=0.3)

    @pytest.mark.parametrize("name", ["white_noise_std", "alpha_nbar"])
    @pytest.mark.parametrize("value", [-0.3, np.nan, np.inf])
    def test_bad_noise_parameters_rejected(self, name, value):
        grid = TimeGrid(8, 0.5)
        with pytest.raises(ValueError, match=name):
            wyld_mc(OscillatorSpec(omega0=1.0), grid, 10, seed=0, **{name: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_source_rejected(self, bad):
        grid = TimeGrid(8, 0.5)
        j_e = np.cos(grid.times)
        j_e[3] = bad
        with pytest.raises(ValueError, match=f"J_e must be finite, got {bad}"):
            wyld_mc(OscillatorSpec(omega0=1.0), grid, 10, seed=0, J_e=Signal(grid, j_e))

    def test_complex_source_rejected(self):
        grid = TimeGrid(8, 0.5)
        spec = OscillatorSpec(omega0=1.0)
        j_e = np.cos(grid.times)
        with pytest.raises(ValueError, match="real"):
            wyld_mc(spec, grid, 10, seed=0, J_e=Signal(grid, j_e + 1e-3j * np.sin(grid.times)))
        real = wyld_mc(spec, grid, 10, seed=0, J_e=Signal(grid, j_e))
        zero_imag = wyld_mc(spec, grid, 10, seed=0, J_e=Signal(grid, j_e + 0j))
        assert np.array_equal(real["mean"], zero_imag["mean"])

    def test_empty_run_rejected(self):
        grid = TimeGrid(8, 0.5)
        with pytest.raises(ValueError):
            wyld_mc(OscillatorSpec(omega0=1.0), grid, 0, seed=0)

    def test_seed_determinism(self):
        grid = TimeGrid(8, 0.5)
        spec = OscillatorSpec(omega0=1.0)
        a = wyld_mc(spec, grid, 1000, seed=9, white_noise_std=0.3)
        b = wyld_mc(spec, grid, 1000, seed=9, white_noise_std=0.3)
        assert np.array_equal(a["cov"], b["cov"])


def test_noise_map_unrotates_into_consistent_cumulants():
    # the dressed noise kernel plugged into the inverse rotation must give a
    # closed-time-loop triple obeying the consistency identity
    from keldrot.rotation import RotatedCumulants, unrotate

    grid, spec, d_bare, pi_r, _ = toy_kernels(n=96, total_time=10.0)
    dressed = dress_retarded_grid(d_bare, pi_r)
    rng = np.random.default_rng(2)
    h = rng.normal(size=(grid.n, grid.n))
    pi_n = TwoPointKernel(grid, (h + h.T).astype(complex))
    n_field = noise_map(dressed, pi_n)
    rot = RotatedCumulants(mean=Signal.zero(grid), D_R=dressed, N_s=n_field,
                           p=OrderingParam(1.0), hbar_c=1.0)
    ctl = unrotate(rot)
    residuals = triple_residuals(ctl.K_F.values, ctl.K_rev.values, ctl.K_W.values)
    assert max(residuals) < 1e-8


def test_gauge_diagnosis_reports_obstruction():
    report = gauge_projector_diagnosis(2.0 * np.pi)
    assert report["consistent"] is False
    assert report["divergent_coefficient"] == pytest.approx(2.0 * np.pi)
    assert "delta(k^2)/k^2" in report["transverse_projector_term"]
    empty = gauge_projector_diagnosis(0.0)
    assert empty["consistent"] is True and empty["divergent_coefficient"] == 0.0


def refused_layout(column, row):
    raise AssertionError("a kernel held as lags was laid out as n x n")


def one_ulp_off_toeplitz(values):
    """A copy whose entry (n - 1, 1) moved by one ulp, so that the kernel is
    lower triangular but no longer exactly Toeplitz."""
    off = values.copy()
    off[-1, 1] = np.nextafter(off[-1, 1], np.inf)
    return off


class TestToeplitzRoutes:
    """A time-invariant medium (D0 lower-triangular Toeplitz, Pi_R = gamma I,
    Pi_N = g I) takes the first-column routes; the dense solve and products
    are the oracles, and any other input takes them."""

    @pytest.fixture
    def dense_solves(self, monkeypatch):
        import scipy.linalg

        calls = []
        solve = scipy.linalg.solve_triangular

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve_triangular", counted)
        return calls

    @staticmethod
    def dense_dressed(d0, pi_r, dt):
        from scipy.linalg import solve_triangular

        g = dt ** 2 * (d0 @ pi_r)
        return np.tril(solve_triangular(np.eye(len(d0)) - g, d0, lower=True))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_dress_matches_dense_solve(self, dtype, dense_solves):
        grid, _, d_bare, pi_r, _ = toy_kernels(n=512, total_time=12.0)
        d0 = d_bare.values.astype(dtype)
        dressed = dress_retarded_grid(TwoPointKernel(grid, d0), pi_r).values
        assert dense_solves == []
        expect = self.dense_dressed(d0, pi_r.values, grid.dt)
        assert dressed.dtype == expect.dtype
        assert np.abs(dressed - expect).max() < 1e-12 * np.abs(expect).max()
        assert np.array_equal(dressed, np.tril(dressed))

    def test_off_toeplitz_inputs_take_dense_route(self, dense_solves):
        grid, _, d_bare, pi_r, gamma = toy_kernels(n=256, total_time=10.0)
        toeplitz = dress_retarded_grid(d_bare, pi_r).values
        scale = np.abs(toeplitz).max()
        d_off = one_ulp_off_toeplitz(d_bare.values)
        pi_off = pi_r.values.copy()
        pi_off[5, 5] = np.nextafter(pi_off[5, 5], np.inf)
        assert medium._toeplitz_column(TwoPointKernel(grid, d_off)) is None
        assert medium._scalar_diagonal(TwoPointKernel(grid, pi_off)) is None
        for d0, pi in ((d_off, pi_r.values), (d_bare.values, pi_off)):
            del dense_solves[:]
            got = dress_retarded_grid(TwoPointKernel(grid, d0), TwoPointKernel(grid, pi)).values
            assert len(dense_solves) == 1
            assert np.abs(got - self.dense_dressed(d0, pi, grid.dt)).max() == 0.0
            assert np.abs(got - toeplitz).max() < 1e-12 * scale

    def test_toeplitz_check_needs_exact_structure(self):
        grid, _, d_bare, _, _ = toy_kernels(n=130, total_time=130 / 16)
        d = d_bare.values

        def column(values):
            return medium._toeplitz_column(TwoPointKernel(grid, values))

        assert np.array_equal(column(d), d[:, 0])
        upper = d.copy()
        upper[0, 3] = 1e-300
        assert column(upper) is None
        for i, j in ((64, 0), (65, 1), (129, 128), (100, 36)):  # block edges and interior
            bad = d.copy()
            bad[i, j] = np.nextafter(bad[i, j], np.inf)
            assert column(bad) is None
        nan = d.copy()
        nan[70, 3] = np.nan
        assert column(nan) is None
        eight = TimeGrid(8, 0.5)
        assert medium._scalar_diagonal(TwoPointKernel(eight, 2.5 * np.eye(8))) == 2.5
        assert medium._scalar_diagonal(TwoPointKernel(eight, np.zeros((8, 8)))) == 0.0
        off_diagonal = 2.5 * np.eye(8)
        off_diagonal[3, 1] = 1e-300
        assert medium._scalar_diagonal(TwoPointKernel(eight, off_diagonal)) is None

    def test_lag_kernels_read_without_a_layout(self, monkeypatch):
        """Held as lags, a kernel's first column and scalar diagonal are read
        off its lag vectors: a row that is not zero past lag 0, or a column
        that is not zero past lag 0, is refused as on the dense scan."""
        import keldrot.grids as grids

        grid = TimeGrid(130, 0.05)
        column = np.random.default_rng(3).normal(size=130)
        zeros, unit = np.zeros(130), np.eye(1, 130)[0]
        monkeypatch.setattr(grids, "_toeplitz", refused_layout)
        assert medium._toeplitz_column(TwoPointKernel.toeplitz(grid, column, zeros)) is column
        assert medium._toeplitz_column(TwoPointKernel.toeplitz(grid, column, -zeros)) is column
        assert medium._scalar_diagonal(TwoPointKernel.toeplitz(grid, 2.5 * unit, column)) is None
        for lag in (1, 64, 129):  # the first, a middle and the last lag
            bad = zeros.copy()
            bad[lag] = 1e-300
            assert medium._toeplitz_column(TwoPointKernel.toeplitz(grid, column, bad)) is None
            assert medium._scalar_diagonal(TwoPointKernel.toeplitz(grid, 2.5 * unit + bad,
                                                                   zeros)) is None
        assert medium._scalar_diagonal(TwoPointKernel.toeplitz(grid, 2.5 * unit, zeros)) == 2.5

    def test_non_dyadic_step_takes_recursion(self, dense_solves):
        # laid out from its lags, the toy's D0 is exactly Toeplitz at any dt
        grid = TimeGrid(128, 0.1)
        d_bare, pi_r, _, _ = one_mode_toy(grid, 1.0, 0.25)
        column = d_bare.lags[0]
        dress_retarded_grid(d_bare, pi_r)
        d0 = TwoPointKernel(grid, d_bare.values)  # the same kernel laid out, and scanned
        assert np.array_equal(medium._toeplitz_column(d0), column)
        dress_retarded_grid(d0, TwoPointKernel(grid, pi_r.values))
        assert dense_solves == []

    def test_non_dyadic_step_takes_dense_route(self, dense_solves):
        # sampled at t_i - t_j, which rounds differently along a diagonal at
        # this step, D0 is not exactly Toeplitz
        grid = TimeGrid(128, 0.1)
        d_bare, pi_r, _, _ = one_mode_toy(grid, 1.0, 0.25)
        d0 = pointwise_response(OscillatorSpec(omega0=1.0), grid)
        assert medium._toeplitz_column(TwoPointKernel(grid, d0)) is None
        got = dress_retarded_grid(TwoPointKernel(grid, d0), pi_r).values
        assert len(dense_solves) == 1
        toeplitz = dress_retarded_grid(d_bare, pi_r).values
        assert np.abs(got - toeplitz).max() < 1e-12 * np.abs(toeplitz).max()

    def test_singular_kernel_refused_on_both_routes(self):
        grid = TimeGrid(16, 0.5)
        d0 = np.tril(np.ones((16, 16)))
        pi_r = (1.0 / grid.dt ** 2) * np.eye(16)  # 1 - dt^2 pi_R d0 has a zero diagonal
        for d in (d0, one_ulp_off_toeplitz(d0)):
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                dress_retarded_grid(TwoPointKernel(grid, d), TwoPointKernel(grid, pi_r))

    def test_overflow_refused_on_both_routes(self, dense_solves):
        """A Pi_R too strong for the grid overflows the dressed kernel: each
        route raises, naming Pi_R, where it returned NaN entries."""
        d_bare, pi_r, _, _ = one_mode_toy(TimeGrid(64, 0.0625), 1.0, 1e200)
        for d0, routes in ((d_bare.values, 0), (one_ulp_off_toeplitz(d_bare.values), 1)):
            with pytest.raises(ValueError, match=r"Dyson solve at this Pi_R\) must be finite"):
                dress_retarded_grid(TwoPointKernel(d_bare.grid, d0), pi_r)
            assert len(dense_solves) == routes

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("name", ["bare propagator", "susceptibility"])
    def test_non_finite_kernel_named_on_dense_route(self, name, dtype):
        """A NaN entry was read as an acausal kernel ("not retarded")."""
        d_bare, pi_r, _, _ = one_mode_toy(TimeGrid(64, 0.0625), 1.0, 0.3)
        kernels = {"bare propagator": d_bare.values.astype(dtype), "susceptibility": pi_r.values.copy()}
        kernels[name][9, 2] = np.nan
        with pytest.raises(ValueError, match=f"^{name} kernel must be finite, got"):
            dress_retarded_grid(*(TwoPointKernel(d_bare.grid, k) for k in kernels.values()))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lag_kernel_named(self, bad, dense_solves):
        """A bare propagator held as lags takes the recursion, and is named
        there as the dense route names it."""
        d_bare, pi_r, _, _ = one_mode_toy(TimeGrid(64, 0.0625), 1.0, 0.3)
        column = d_bare.lags[0].copy()
        column[9] = bad
        d0 = TwoPointKernel.toeplitz(d_bare.grid, column, d_bare.lags[1])
        with pytest.raises(ValueError, match="^bare propagator kernel must be finite, got"):
            dress_retarded_grid(d0, pi_r)
        assert dense_solves == []

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_noise_map_matches_dense_product(self, dtype):
        grid, _, d_bare, pi_r, _ = toy_kernels(n=512, total_time=12.0)
        d = dress_retarded_grid(d_bare, pi_r).values.astype(dtype)
        if dtype is complex:
            d = d * np.exp(0.7j)
        pi_n = (0.16 / grid.dt) * np.eye(grid.n)
        got = noise_map(TwoPointKernel(grid, d), TwoPointKernel(grid, pi_n)).values
        expect = grid.dt ** 2 * (d @ pi_n @ d.conj().T)
        assert got.dtype == expect.dtype
        assert np.abs(got - expect).max() < 1e-12 * np.abs(expect).max()

    def test_noise_map_off_structure_takes_dense_route(self):
        grid, _, d_bare, pi_r, _ = toy_kernels(n=256, total_time=10.0)
        d = dress_retarded_grid(d_bare, pi_r).values
        pi_n = (0.16 / grid.dt) * np.eye(grid.n)
        structured = noise_map(TwoPointKernel(grid, d), TwoPointKernel(grid, pi_n)).values
        pi_off = pi_n.copy()
        pi_off[7, 7] = np.nextafter(pi_off[7, 7], np.inf)
        d_off = one_ulp_off_toeplitz(d)
        for dr, pi in ((d_off, pi_n), (d, pi_off)):
            got = noise_map(TwoPointKernel(grid, dr), TwoPointKernel(grid, pi)).values
            assert np.array_equal(got, grid.dt ** 2 * (dr @ pi @ dr.conj().T))
            assert np.abs(got - structured).max() < 1e-12 * np.abs(structured).max()
        # an imaginary white level is not Hermitian: the dense route refuses it
        with pytest.raises(ValueError, match="Hermitian"):
            noise_map(TwoPointKernel(grid, d), TwoPointKernel(grid, 1j * np.eye(grid.n)))

    @pytest.mark.parametrize("general_pi", [False, True])
    @pytest.mark.parametrize("n", [5, 64, 200])
    def test_wave_residual_matches_masked_dense_route(self, general_pi, n):
        # a random kernel with a large diagonal and last row: the residual
        # is large at lags 0 and 1 and in the rows next to the grid ends, so
        # only the exact interior gives the oracle's maximum
        grid = TimeGrid(n, 0.05)
        rng = np.random.default_rng(n)
        d = np.tril(rng.normal(size=(n, n)))
        d[np.diag_indices(n)] += 1e6
        d[-1] += 1e6
        pi = 3.0 * np.eye(n)
        if general_pi:
            pi += np.tril(rng.normal(size=(n, n)), -1)
        dt, w0 = grid.dt, 1.3
        d2 = (np.roll(d, -1, axis=0) - 2.0 * d + np.roll(d, 1, axis=0)) / dt ** 2
        lhs = -(d2 + w0 ** 2 * d) / w0 - dt * (pi @ d)
        i = np.arange(n)
        lag = i[:, None] - i[None, :]
        interior = ((lag >= 2) & (lag <= n - 3) & (i[:, None] >= 2) & (i[:, None] <= n - 3))
        residual = np.abs(lhs[interior]).max() * dt
        got = wave_operator_residual(TwoPointKernel(grid, d), TwoPointKernel(grid, pi), w0)
        assert got == pytest.approx(residual, rel=1e-12)

    def test_wave_residual_needs_an_interior(self):
        grid = TimeGrid(4, 0.05)
        with pytest.raises(ValueError, match="at least 5"):
            wave_operator_residual(zero_kernel(grid), zero_kernel(grid), 1.0)

    @pytest.mark.parametrize("omega0", [np.nan, 0.0, np.inf, -1.0])
    def test_wave_residual_refuses_bad_frequency(self, omega0, monkeypatch):
        """NaN returned NaN, 0 divided by zero, inf warned, and -1 gave the
        residual of another operator; each is refused before the kernel is
        read."""
        grid, _, d_bare, pi_r, _ = toy_kernels(n=64, total_time=6.0)
        dressed = dress_retarded_grid(d_bare, pi_r)
        monkeypatch.setattr(medium, "_scalar_diagonal", None)  # not reached
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="omega0 must be finite and positive"):
                wave_operator_residual(dressed, pi_r, omega0)

    def test_wave_residual_per_lag_matches_layout(self):
        """A dressed kernel held as lags, its layout and its layout with an
        ulp off the Toeplitz structure (the block route) give one residual;
        a NaN lag is carried."""
        grid, spec, d_bare, pi_r, _ = toy_kernels(n=200, total_time=10.0)
        dressed = dress_retarded_grid(d_bare, pi_r)
        column = dressed.lags[0]
        got = wave_operator_residual(dressed, pi_r, spec.omega0)
        laid_out = TwoPointKernel(grid, dressed.values)
        assert wave_operator_residual(laid_out, pi_r, spec.omega0) == got
        dense_pi = TwoPointKernel(grid, pi_r.values)
        assert wave_operator_residual(laid_out, dense_pi, spec.omega0) == got
        general = pi_r.values.copy()
        general[5, 5] = np.nextafter(general[5, 5], np.inf)  # not gamma I: the block route
        block = wave_operator_residual(laid_out, TwoPointKernel(grid, general), spec.omega0)
        assert block == pytest.approx(got, rel=1e-12)
        for lag in (1, 2, 100, 197, 198):  # the stencil reads lags 1 .. n - 2
            nan = column.copy()
            nan[lag] = np.nan
            lagged = TwoPointKernel.toeplitz(grid, nan, np.zeros(grid.n))
            assert np.isnan(wave_operator_residual(lagged, pi_r, spec.omega0))

    def test_wave_residual_allocates_no_square_array(self):
        import tracemalloc

        grid, spec, d_bare, pi_r, _ = toy_kernels(n=1024, total_time=24.0)
        dressed = dress_retarded_grid(d_bare, pi_r)
        tracemalloc.start()
        try:
            wave_operator_residual(dressed, pi_r, spec.omega0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * dressed.values.nbytes  # row blocks only

    @staticmethod
    def traced_peak(fn, *args):
        """Bytes allocated at the peak of fn(*args), above its start."""
        import tracemalloc

        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_two_route_peaks(self):
        # the toy's kernels, the dressed kernel and both residuals are held
        # and taken per lag: O(n) floats, no n x n array
        from keldrot.acceptance import criterion_dyson_two_route

        bound = 64 * 8 * 2048  # 64 float64 lag vectors at criterion 11's n
        assert self.traced_peak(criterion_dyson_two_route) <= bound
        assert self.traced_peak(one_mode_toy, TimeGrid(2048, 30.0 / 2048), 1.0, 0.3) <= bound

    def test_criterion_11_lays_nothing_out(self, monkeypatch):
        import keldrot.grids as grids
        from keldrot.acceptance import criterion_dyson_two_route

        monkeypatch.setattr(grids, "_toeplitz", refused_layout)
        assert criterion_dyson_two_route().passed

    def test_criterion_11_bit_equal_to_dense_route(self):
        """measured and the wave residual have the bits of the n x n route:
        the toy's layouts, the row-block difference and the block residual."""
        from keldrot.acceptance import criterion_dyson_two_route

        got = criterion_dyson_two_route()
        worst, residual = dense_dyson_two_route(TimeGrid(2048, 30.0 / 2048), 1.0, 0.3)
        assert got.measured.hex() == worst.hex()
        assert got.details["wave_operator_residual"].hex() == residual.hex()

    def test_bad_coupling_refused_before_any_kernel(self):
        def refused():
            with pytest.raises(ValueError, match="coupling gamma"):
                one_mode_toy(TimeGrid(2048, 30.0 / 2048), 1.0, -2.0)

        assert self.traced_peak(refused) < 0.01 * 8 * 2048 ** 2

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_max_abs_diff_is_the_whole_array_max(self, dtype):
        # per lag, of two kernels held as lags: the max over their layouts,
        # with the largest difference in the column, then in the row, and
        # row[0], which no layout reads, far off
        grid = TimeGrid(130, 0.05)
        rng = np.random.default_rng(5)
        column, row, d_col, d_row = rng.normal(size=(4, 130)).astype(dtype)
        if dtype is complex:
            d_col = d_col + 1j * rng.normal(size=130)
        for where in (d_col, d_row):
            where[77] = 5.0
            far_row0 = row + 0.1 * d_row + 1e3 * np.eye(1, 130)[0]
            pairs = ((column, row), (column + 0.1 * d_col, far_row0))
            got = medium._lag_max_abs_diff(*(TwoPointKernel.toeplitz(grid, *p) for p in pairs))
            a, b = (TwoPointKernel.toeplitz(grid, *p).values for p in pairs)
            assert type(got) is float
            assert got == np.abs(a - b).max()
            where[77] = 0.0

    @pytest.mark.parametrize("lag", [3, 70, 129])  # early, middle and last lags
    def test_max_abs_diff_carries_nan(self, lag):
        grid = TimeGrid(130, 0.05)
        for vector in (0, 1):  # the column, then the row
            lags = [np.zeros(130), np.zeros(130)]
            lags[vector][lag] = np.nan
            a = TwoPointKernel.toeplitz(grid, *lags)
            b = TwoPointKernel.toeplitz(grid, np.ones(130), np.ones(130))
            assert np.isnan(medium._lag_max_abs_diff(a, b))
            assert np.isnan(medium._lag_max_abs_diff(b, a))
