"""Electromagnetic field in a linear medium.

Dyson dressing of the retarded propagator (momentum closed form and causal
time-grid solve), radiation of the mean field, mapping of the medium noise
kernel onto the field noise, the zero-point-fluctuation spectrum driven by
the Dirac-sea susceptibility, and a classical stochastic Monte Carlo that
cross-checks the deterministic maps.

Delta terms of spectra are never discretized; they are carried as explicit
(location, weight) entries next to the smooth samples.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diracsea import DiracSeaSpec, F_threshold, R_obs, R_obs_finite_eps
from .grids import Signal, TimeGrid, TwoPointKernel, sign_weights
from .oscillator import OscillatorSpec, _infield_basis, retarded_response_grid
from .rotation import _acausal_part

__all__ = [
    "SpectralDensity",
    "dress_retarded_momentum",
    "dress_retarded_grid",
    "one_mode_toy",
    "mean_field",
    "noise_map",
    "zero_point_spectrum",
    "zero_point_smooth",
    "zero_point_smooth_finite_eps",
    "time_normal_vacuum_noise",
    "wyld_mc",
    "wave_operator_residual",
    "gauge_projector_diagnosis",
]


@dataclass
class SpectralDensity:
    """Momentum-space density split into smooth samples and delta terms.

    delta_terms is a list of (location in k^2, weight); the smooth part is
    sampled on `k_sq` with values `smooth`.
    """

    k_sq: np.ndarray
    smooth: np.ndarray
    delta_terms: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self):
        self.k_sq = np.asarray(self.k_sq, dtype=float)
        self.smooth = np.asarray(self.smooth, dtype=float)
        if self.k_sq.shape != self.smooth.shape:
            raise ValueError("k_sq and smooth samples must align")
        for _, w in self.delta_terms:
            if abs(np.imag(w)) > 0:
                raise ValueError("delta weights must be real")


def dress_retarded_momentum(k_sq: float, spec: DiracSeaSpec) -> complex:
    """Dressed retarded propagator mu_vac / [k^2 (1 + R_obs(k))], with
    mu_vac = 1 and k0 > 0.

    Exact-prescription evaluation off the light cone; the k^2 = 0 pole
    carries a delta term that lives in the spectral ledger of
    `zero_point_spectrum`, not here.
    """
    if k_sq == 0.0:
        raise ValueError("on the light cone the propagator is distributional; "
                         "use zero_point_spectrum's delta ledger")
    r = R_obs(k_sq, spec)
    return 1.0 / (k_sq * (1.0 + r))


def dress_retarded_grid(D_bare: TwoPointKernel, pi_R: TwoPointKernel) -> TwoPointKernel:
    """Solve the Dyson equation D = D0 + D0 * Pi_R * D on the time grid.

    Both kernels must be retarded in linear time (a kernel retarded only on
    the circle is rejected) on a common grid; the composition is the
    grid quadrature (dt per integral), and the causal Volterra structure
    makes the solve a forward triangular substitution.  The result is
    retarded by construction.
    """
    from scipy.linalg import solve_triangular

    if D_bare.grid != pi_R.grid:
        raise ValueError("kernels must share a grid")
    for name, K in (("bare propagator", D_bare), ("susceptibility", pi_R)):
        if _acausal_part(K.values, K.grid, periodic=(False,))[0] is None:
            raise ValueError(f"{name} kernel is not retarded in linear time")
    d0 = D_bare.values
    g = D_bare.grid.dt ** 2 * (d0 @ pi_R.values)  # lower triangular
    dressed = solve_triangular(np.eye(D_bare.grid.n) - g, d0, lower=True)
    return TwoPointKernel(D_bare.grid, np.tril(dressed))


def one_mode_toy(grid: TimeGrid, omega0: float, gamma: float):
    """The one-mode Dyson toy and its closed form.

    Returns (D0, Pi_R, closed, w'): the bare retarded oscillator kernel
    D0 = D_R at omega0 in linear time, the delta susceptibility
    Pi_R = (gamma/dt) I, and the dressed kernel's pole-shift closed form
    closed = (omega0/w') D_R at w', with w'^2 = omega0^2 + gamma omega0.
    """
    d_bare = TwoPointKernel(grid, retarded_response_grid(OscillatorSpec(omega0=omega0), grid))
    pi_r = TwoPointKernel(grid, (gamma / grid.dt) * np.eye(grid.n))
    w_shift = np.sqrt(omega0 ** 2 + gamma * omega0)
    closed = (omega0 / w_shift) * retarded_response_grid(OscillatorSpec(omega0=w_shift), grid)
    return d_bare, pi_r, closed, w_shift


def mean_field(dressed: TwoPointKernel, J_e: Signal) -> Signal:
    """Radiated mean field <A> = D_R * J_e by grid quadrature; a medium with
    a mean current <J_r> enters as the source J_e + <J_r>."""
    if J_e.grid != dressed.grid:
        raise ValueError("source grid mismatch")
    return Signal(dressed.grid, dressed.grid.dt * (dressed.values @ J_e.values))


def noise_map(dressed: TwoPointKernel, pi_N: TwoPointKernel) -> TwoPointKernel:
    """Field noise N(t,t') = D_R(t,.) Pi_N(.,.) D_R(t',.)* by quadrature.

    The conjugation placement is fixed by requiring a Hermitian-symmetric
    result; for real propagators it is immaterial.
    """
    if dressed.grid != pi_N.grid:
        raise ValueError("grid mismatch")
    scale = max(np.abs(pi_N.values).max(), 1e-300)
    if np.abs(pi_N.values - pi_N.values.conj().T).max() > 1e-10 * scale:
        raise ValueError("noise kernel must be Hermitian-symmetric")
    d_r = dressed.values
    n = dressed.grid.dt ** 2 * (d_r @ pi_N.values @ d_r.conj().T)
    return TwoPointKernel(dressed.grid, n)


def zero_point_smooth(k_sq, spec: DiracSeaSpec, mu_vac: float = 1.0,
                      hbar_c: float = 1.0):
    """Smooth part of the zero-point spectrum (a function of k^2 only).

    hbar c mu_vac * theta(k^2 - 4 mu0^2) alpha F(k^2/4mu0^2)
                                          / (3 k^2 |1 + R_obs|^2).
    """
    k_sq_arr = np.atleast_1d(np.asarray(k_sq, dtype=float))
    out = np.zeros_like(k_sq_arr)
    thr = 4.0 * spec.mu0 ** 2
    for i, s in enumerate(k_sq_arr):
        if s <= thr:
            continue
        r = R_obs(s, spec, k0_sign=1)
        out[i] = (hbar_c * mu_vac * spec.alpha * F_threshold(s / thr)
                  / (3.0 * s * abs(1.0 + r) ** 2))
    return out if np.ndim(k_sq) else float(out[0])


def zero_point_smooth_finite_eps(k0: float, kvec_sq: float, spec: DiracSeaSpec,
                                 eps: float, mu_vac: float = 1.0,
                                 hbar_c: float = 1.0) -> float:
    """Cross-check route (i hbar c / 2)[D_R(k) - D_R(-k)] sign k0 at finite eps.

    Reproduces the smooth part of the spectrum as eps -> 0 off the light
    cone.  The finite shift smears only the spectral integral; the k^2 pole
    factor is exactly real off the cone, so this is the clean off-cone check.
    """
    k_sq = k0 ** 2 - kvec_sq
    if k_sq == 0.0:
        raise ValueError("on-cone values live in the delta ledger")
    sgn = int(np.sign(k0)) or 1
    r_p = R_obs_finite_eps(k_sq, spec, eps, k0_sign=sgn)
    r_m = R_obs_finite_eps(k_sq, spec, eps, k0_sign=-sgn)
    dp = mu_vac / (k_sq * (1.0 + r_p))
    dm = mu_vac / (k_sq * (1.0 + r_m))
    val = 0.5j * hbar_c * (dp - dm) * sgn
    return float(val.real)


def zero_point_spectrum(k_sq_samples, spec: DiracSeaSpec, mu_vac: float = 1.0,
                        hbar_c: float = 1.0) -> SpectralDensity:
    """Zero-point-fluctuation spectrum: smooth samples plus delta ledger.

    The single delta term sits on the light cone with weight
    pi hbar c mu_vac (the free-field contribution); the smooth part above
    the pair threshold comes from the medium interaction.
    """
    k_sq_samples = np.asarray(k_sq_samples, dtype=float)
    smooth = zero_point_smooth(k_sq_samples, spec, mu_vac, hbar_c)
    return SpectralDensity(
        k_sq=k_sq_samples,
        smooth=np.atleast_1d(smooth),
        delta_terms=[(0.0, np.pi * hbar_c * mu_vac)],
    )


def time_normal_vacuum_noise(pi_F: Signal, pi_W: Signal) -> Signal:
    """Time-normal noise of a stationary medium from its current kernels.

    Pi_N(tau) = -2 hbar c Im[F+ F- pi_F + F- F- pi_W], with hbar c = 1 and
    all projections acting on the lag variable (the stationary reduction of
    the two-time formula).  For translation-invariant vacuum inputs, whose
    Wightman kernel is frequency-positive, the result is the zero signal.
    """
    if pi_F.grid != pi_W.grid:
        raise ValueError("stationary kernels must share a grid")
    g = pi_F.grid
    wp = sign_weights(g, "+")
    wm = sign_weights(g, "-")
    c_f = np.fft.ifft(pi_F.values)
    c_w = np.fft.ifft(pi_W.values)
    combined = np.fft.fft(wp * wm * c_f + wm * wm * c_w)
    return Signal(g, -2.0 * np.imag(combined))


def wave_operator_residual(dressed: TwoPointKernel, pi_R: TwoPointKernel,
                           omega0: float) -> float:
    """Residual of the defining equation of the dressed retarded kernel.

    In the one-mode toy the wave operator is L0 = -(d^2/dt^2 + w0^2)/w0,
    for which L0 D_R = delta.  Applies (L0 - Pi_R *) to the dressed kernel
    with a central second difference and compares with the grid delta away
    from the diagonal, where the difference stencil is valid.  Returns the
    maximum interior residual relative to the delta amplitude.
    """
    g = dressed.grid
    dt = g.dt
    vals = dressed.values
    d2 = (np.roll(vals, -1, axis=0) - 2.0 * vals + np.roll(vals, 1, axis=0)) / dt ** 2
    lhs = -(d2 + omega0 ** 2 * vals) / omega0 - dt * (pi_R.values @ vals)
    n = g.n
    i = np.arange(n)
    lag = i[:, None] - i[None, :]
    interior = (lag >= 2) & (lag <= n - 3) & (i[:, None] >= 2) & (i[:, None] <= n - 3)
    scale = 1.0 / dt  # grid delta amplitude
    return float(np.abs(lhs[interior]).max() / scale)


# samples per step of wyld_mc; a step draws its amplitudes before its
# currents, so this also fixes which normals each sample gets
_MC_CHUNK = 50_000


def wyld_mc(spec: OscillatorSpec, grid: TimeGrid, n_samples: int, seed: int,
            J_e: Signal | None = None, white_noise_std: float = 0.0,
            alpha_nbar: float = 0.0) -> dict:
    """Classical stochastic sampling of the driven one-mode field.

    Each sample is q(t) = q_in(t; alpha) + integral D_R(t-t') j(t') dt'
    with j = J_e + J_r, a thermal complex amplitude alpha of mean square
    modulus alpha_nbar, and a white random current of covariance
    white_noise_std^2 delta(t-t') (grid variance white_noise_std^2/dt).
    Returns sample mean and covariance with standard errors; deterministic
    for fixed (seed, n_samples) via a counter-based generator.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.Generator(np.random.Philox(seed))
    n = grid.n
    dr = retarded_response_grid(spec, grid)
    if J_e is not None:
        if J_e.grid != grid:
            raise ValueError("source grid mismatch")
        base = grid.dt * (dr @ J_e.values.real)
    infield = _infield_basis(spec, grid.times)  # q_in = (Re alpha, Im alpha) @ infield
    # dt (J_r @ dr^T) with J_r standard normals times white_noise_std / sqrt(dt)
    noise_response_t = (grid.dt * white_noise_std / np.sqrt(grid.dt)) * dr.T
    s1 = np.zeros(n)
    sp = np.zeros((n, n))
    sp2 = np.zeros((n, n))
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        # each chunk draws Re alpha, then Im alpha, then J_r
        alphas = (np.sqrt(alpha_nbar / 2.0) * rng.standard_normal((2, m))
                  if alpha_nbar > 0 else None)
        q = (rng.standard_normal((m, n)) @ noise_response_t if white_noise_std > 0
             else np.zeros((m, n)))
        if alphas is not None:
            q += alphas.T @ infield
        if J_e is not None:
            q += base
        s1 += q.sum(axis=0)
        sp += q.T @ q
        np.square(q, out=q)
        sp2 += q.T @ q
        done += m
    mean = s1 / n_samples
    second = sp / n_samples
    mean_var = np.maximum(np.diag(second) - mean ** 2, 0.0)
    mean_stderr = np.sqrt(mean_var / n_samples)
    cov = second - np.outer(mean, mean)
    prod_var = np.maximum(sp2 / n_samples - second ** 2, 0.0)
    cov_stderr = np.sqrt(prod_var / n_samples)
    return {
        "mean": mean,
        "mean_stderr": mean_stderr,
        "cov": cov,
        "cov_stderr": cov_stderr,
        "n_samples": n_samples,
    }


def gauge_projector_diagnosis(delta_weight: float) -> dict:
    """Report the obstruction to a 4-transverse zero-point spectrum.

    `delta_weight` is the weight of the light-cone delta term in the
    zero-point ledger at the chosen ordering, 2 s_minus pi hbar c mu_vac.
    Replacing g_{nu nu'} by the transverse projector
    g_{nu nu'} - k_nu k_nu' / k^2 multiplies that term by a 1/k^2
    singularity evaluated at k^2 = 0: the coefficient of the attempted
    delta(k^2)/k^2 term is reported instead of being silently regularized,
    because no consistent assignment exists unless it is zero.  The
    time-normal ordering (s = 1) has no zero-point term, so nothing to
    obstruct.
    """
    consistent = delta_weight == 0.0
    if consistent:
        detail = ("the zero-point spectrum has no light-cone delta term at this "
                  "ordering, so the k_nu k_nu'/k^2 part of the transverse "
                  "projector meets nothing at k^2 = 0")
    else:
        detail = ("the light-cone delta term of the zero-point spectrum meets the "
                  "k_nu k_nu'/k^2 part of the transverse projector at k^2 = 0; the "
                  "product is mathematically meaningless, so the spectrum violates "
                  "either the Lorentz condition (Feynman gauge) or well-definedness "
                  "(transverse gauge)")
    return {
        "feynman_gauge_delta_weight": delta_weight,
        "transverse_projector_term": "delta(k^2)/k^2",
        "divergent_coefficient": delta_weight,
        "consistent": consistent,
        "detail": detail,
    }
