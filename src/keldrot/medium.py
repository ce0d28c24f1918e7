"""Electromagnetic field in a linear medium.

Dyson dressing of the retarded propagator by a causal time-grid solve,
radiation of the mean field, mapping of the medium noise kernel onto the
field noise, the zero-point-fluctuation spectrum driven by the Dirac-sea
susceptibility, and a classical stochastic Monte Carlo that cross-checks
the deterministic maps.

Delta terms of spectra are never discretized; they are carried as explicit
(location, weight) entries next to the smooth samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diracsea import DiracSeaSpec, F_threshold, R_obs, R_obs_finite_eps
from .grids import (OrderingParam, Signal, TimeGrid, TwoPointKernel, _check_same_grid,
                    _require_count, _require_finite, _require_positive, _theta_masks)
from .oscillator import OscillatorSpec, _infield_basis, retarded_response_grid
from .rotation import _mirror_residual

__all__ = [
    "SpectralDensity",
    "dress_retarded_grid",
    "one_mode_toy",
    "mean_field",
    "noise_map",
    "zero_point_spectrum",
    "zero_point_smooth",
    "zero_point_smooth_finite_eps",
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
    delta_terms: list[tuple[float, float]]

    def __post_init__(self):
        self.k_sq = np.asarray(self.k_sq, dtype=float)
        self.smooth = np.asarray(self.smooth, dtype=float)
        if self.k_sq.shape != self.smooth.shape:
            raise ValueError("k_sq and smooth samples must align")
        for _, w in self.delta_terms:
            if abs(np.imag(w)) > 0:
                raise ValueError("delta weights must be real")

    def at_ordering(self, p: OrderingParam) -> "SpectralDensity":
        """The density at ordering p, smooth part and delta weights scaled by
        2 s_minus: the Weyl (s = 0) density is unchanged, and at time-normal
        ordering (s = 1) the spectrum vanishes."""
        factor = 2.0 * p.s_minus
        return SpectralDensity(self.k_sq, factor * self.smooth,
                               [(loc, factor * w) for loc, w in self.delta_terms])


_ROWS = 64  # rows per block in the Toeplitz scan and the dense wave residual


def _lag_max_abs_diff(a: TwoPointKernel, b: TwoPointKernel) -> float:
    """max |a - b| over the layouts of two kernels held as lags, per lag (NaN kept)."""
    (col_a, row_a), (col_b, row_b) = a.lags, b.lags
    return float(np.maximum(np.abs(col_a - col_b).max(), np.abs(row_a[1:] - row_b[1:]).max()))


def _toeplitz_column(K: TwoPointKernel) -> np.ndarray | None:
    """First column c of K when K is exactly lower-triangular Toeplitz, else
    None: read off lags whose row is zero past lag 0, or scanned from n x n
    values, which are that when their first row is zero past the diagonal
    and each row is the one above shifted by one (compared in row blocks)."""
    if K.lags is not None:
        return None if K.lags[1][1:].any() else K.lags[0]
    values = K.values
    n = values.shape[0]
    if values[0, 1:].any():
        return None
    for lo in range(0, n - 1, _ROWS):
        hi = min(lo + _ROWS, n - 1)
        if not np.array_equal(values[lo + 1:hi + 1, 1:], values[lo:hi, :-1]):
            return None
    return values[:, 0].copy()


def _scalar_diagonal(K: TwoPointKernel):
    """gamma when K is exactly gamma I, Toeplitz with column (gamma, 0, ...), else None."""
    c = _toeplitz_column(K)
    return c[0] if c is not None and not c[1:].any() else None


def _dyson_column(a: np.ndarray, lam) -> np.ndarray:
    """First column c of (I - lam T)^-1 T for the lower-triangular Toeplitz T
    with first column a, by forward recursion:
    (1 - lam a_0) c_i = a_i + lam sum_{k<i} a_{i-k} c_k."""
    pivot = 1.0 - lam * a[0]
    if pivot == 0:
        raise np.linalg.LinAlgError("singular matrix: the Dyson kernel 1 - dt^2 Pi_R D0 "
                                    "has a zero diagonal")
    n = len(a)
    c = np.empty(n, dtype=np.result_type(a, lam))
    a_rev = a[::-1]  # a_rev[n - 1 - m] = a[m]
    for i in range(n):
        c[i] = (a[i] + lam * np.dot(a_rev[n - 1 - i:n - 1], c[:i])) / pivot
    return c


def dress_retarded_grid(D_bare: TwoPointKernel, pi_R: TwoPointKernel) -> TwoPointKernel:
    """Solve the Dyson equation D = D0 + D0 * Pi_R * D on the time grid.

    Both kernels must be retarded in linear time (a kernel retarded only on
    the circle is rejected) on a common grid; the composition is the
    grid quadrature (dt per integral), and the causal Volterra structure
    makes the solve a forward triangular substitution.  The result is
    retarded by construction.  For a time-invariant medium (D0 exactly
    lower-triangular Toeplitz, Pi_R exactly gamma I) the dressed kernel is
    Toeplitz too: only its first column is solved for, and it is held as
    lags.  Both kernels must be finite, and a dressed kernel that overflows
    (a Pi_R too strong for the grid) is a ValueError naming Pi_R.
    """
    _check_same_grid(D_bare.grid, pi_R.grid)
    grid = D_bare.grid
    overflow = "dressed kernel (the Dyson solve at this Pi_R)"
    a = _toeplitz_column(D_bare)
    gamma = _scalar_diagonal(pi_R) if a is not None else None
    if gamma is not None:
        _require_finite("bare propagator kernel", a)  # as the dense route names it
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            c = _dyson_column(a, grid.dt ** 2 * gamma)
        _require_finite(overflow, c)
        return TwoPointKernel.toeplitz(grid, c, np.zeros_like(c))
    from scipy.linalg import solve_triangular

    earlier = _theta_masks(grid.n, False)[1]  # where theta = 0
    for name, K in (("bare propagator", D_bare), ("susceptibility", pi_R)):
        v = K.values  # its acausal part must be noise, <= 1e-10 of its largest entry
        _require_finite(f"{name} kernel", v)
        if not np.abs(v[earlier]).max(initial=0.0) <= 1e-10 * max(np.abs(v).max(), 1e-300):
            raise ValueError(f"{name} kernel is not retarded in linear time")
    d0 = D_bare.values
    g = grid.dt ** 2 * (d0 @ pi_R.values)  # lower triangular
    dressed = solve_triangular(np.eye(grid.n) - g, d0, lower=True, check_finite=False)
    _require_finite(overflow, dressed)
    return TwoPointKernel(grid, np.tril(dressed))


def one_mode_toy(grid: TimeGrid, omega0: float, gamma: float):
    """The one-mode Dyson toy and its closed form.

    Returns (D0, Pi_R, closed, w'), kernels held as lags: the bare retarded
    oscillator kernel D0 = D_R at omega0 in linear time, the delta
    susceptibility Pi_R = (gamma/dt) I, and the dressed kernel's pole-shift
    closed form closed = (omega0/w') D_R at w', w'^2 = omega0^2 + gamma omega0.
    """
    spec = OscillatorSpec(omega0=omega0)
    if not (math.isfinite(gamma) and omega0 ** 2 + gamma * omega0 > 0):
        raise ValueError(f"coupling gamma must be finite and exceed -omega0, got {gamma}")
    first = (gamma / grid.dt) * np.eye(1, grid.n)[0]  # the first row, and column, of Pi_R
    w_shift = np.sqrt(omega0 ** 2 + gamma * omega0)
    shifted = retarded_response_grid(OscillatorSpec(omega0=w_shift), grid).lags
    closed = TwoPointKernel.toeplitz(grid, *(omega0 / w_shift * lag for lag in shifted))
    return (retarded_response_grid(spec, grid), TwoPointKernel.toeplitz(grid, first, first),
            closed, w_shift)


def mean_field(dressed: TwoPointKernel, J_e: Signal) -> Signal:
    """Radiated mean field <A> = D_R * J_e by grid quadrature; a medium with
    a mean current <J_r> enters as the source J_e + <J_r>, which must be finite."""
    _check_same_grid(dressed.grid, J_e.grid)
    _require_finite("J_e", J_e.values)
    return Signal(dressed.grid, dressed.grid.dt * (dressed.values @ J_e.values))


def noise_map(dressed: TwoPointKernel, pi_N: TwoPointKernel) -> TwoPointKernel:
    """Field noise N(t,t') = D_R(t,.) Pi_N(.,.) D_R(t',.)* by quadrature.

    The conjugation placement is fixed by requiring a Hermitian-symmetric
    result; for real propagators it is immaterial.  For white noise
    (Pi_N = g I, g real) and a lower-triangular Toeplitz D_R with first
    column c, N is the running sum along each diagonal,
    N(i+1, j+1) = N(i, j) + dt^2 g c_{i+1} c*_{j+1}.  Any other Pi_N must be
    finite and Hermitian-symmetric, else ValueError.
    """
    _check_same_grid(dressed.grid, pi_N.grid)
    dt = dressed.grid.dt
    g = _scalar_diagonal(pi_N)
    white = g is not None and g.imag == 0 and np.isfinite(g)
    c = _toeplitz_column(dressed) if white else None
    if c is not None:
        n = np.outer(dt ** 2 * g * c, c.conj())
        for i in range(1, len(c)):
            n[i, 1:] += n[i - 1, :-1]
        return TwoPointKernel(dressed.grid, n)
    # scale is NaN or inf when an entry is not finite; an infinite entry
    # would pass the relative test alone
    asym, scale = _mirror_residual(pi_N.values)
    if not (math.isfinite(scale) and asym <= 1e-10 * max(scale, 1e-300)):
        raise ValueError("noise kernel must be finite and Hermitian-symmetric")
    d_r = dressed.values
    n = dt ** 2 * (d_r @ pi_N.values @ d_r.conj().T)
    return TwoPointKernel(dressed.grid, n)


def zero_point_smooth(k_sq, spec: DiracSeaSpec, mu_vac: float = 1.0,
                      hbar_c: float = 1.0):
    """Smooth part of the zero-point spectrum (a function of k^2 only).

    hbar c mu_vac * theta(k^2 - 4 mu0^2) alpha F(k^2/4mu0^2)
                                          / (3 k^2 |1 + R_obs|^2).
    """
    k_sq_arr = np.atleast_1d(np.asarray(k_sq, dtype=float))
    _require_finite("k_sq", k_sq_arr)
    _require_positive("mu_vac", mu_vac)
    _require_positive("hbar_c", hbar_c)
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
                                 eps: float) -> float:
    """Cross-check route (i hbar c / 2)[D_R(k) - D_R(-k)] sign k0 at finite
    eps, with D_R = mu_vac / [k^2 (1 + R_obs)] at mu_vac = hbar c = 1.

    Reproduces the smooth part of the spectrum as eps -> 0 off the light
    cone.  The finite shift smears only the spectral integral; the k^2 pole
    factor is exactly real off the cone, so this is the clean off-cone check.
    """
    k_sq = k0 ** 2 - kvec_sq
    if k_sq == 0.0:
        raise ValueError("on-cone values live in the delta ledger")
    sgn = -1 if k0 < 0 else 1
    r_p = R_obs_finite_eps(k_sq, spec, eps, k0_sign=sgn)
    r_m = R_obs_finite_eps(k_sq, spec, eps, k0_sign=-sgn)
    dp = 1.0 / (k_sq * (1.0 + r_p))
    dm = 1.0 / (k_sq * (1.0 + r_m))
    val = 0.5j * (dp - dm) * sgn
    return float(val.real)


def zero_point_spectrum(k_sq_samples, spec: DiracSeaSpec, mu_vac: float = 1.0,
                        hbar_c: float = 1.0) -> SpectralDensity:
    """Zero-point-fluctuation spectrum: smooth samples plus delta ledger.

    The single delta term sits on the light cone with weight
    pi hbar c mu_vac (the free-field contribution); the smooth part above
    the pair threshold comes from the medium interaction.  This is the Weyl
    (s = 0) density; `SpectralDensity.at_ordering` gives it at any s.
    """
    k_sq_samples = np.asarray(k_sq_samples, dtype=float)
    smooth = zero_point_smooth(k_sq_samples, spec, mu_vac, hbar_c)
    return SpectralDensity(
        k_sq=k_sq_samples,
        smooth=np.atleast_1d(smooth),
        delta_terms=[(0.0, np.pi * hbar_c * mu_vac)],
    )


def wave_operator_residual(dressed: TwoPointKernel, pi_R: TwoPointKernel,
                           omega0: float) -> float:
    """Residual of the defining equation of the dressed retarded kernel.

    In the one-mode toy the wave operator is L0 = -(d^2/dt^2 + w0^2)/w0,
    for which L0 D_R = delta.  Applies (L0 - Pi_R *) to the dressed kernel
    with a central second difference and compares with the grid delta away
    from the diagonal, where the difference stencil is valid: rows
    2 <= i <= n - 3 at lags 2 <= i - j <= n - 3.  Returns the maximum
    interior residual relative to the delta amplitude (NaN when an entry it
    reads is NaN); omega0 must be finite and positive.  The rows are taken
    in blocks, and a Pi_R = gamma I acts as the scalar gamma; then an exactly
    lower-triangular Toeplitz dressed kernel is read through its first
    column alone, which holds every interior entry's value and stencil.
    """
    dt, n = dressed.grid.dt, dressed.grid.n
    if n < 5:
        raise ValueError("the wave operator residual needs a grid of at least 5 samples")
    _require_positive("omega0", omega0)
    gamma = _scalar_diagonal(pi_R)
    c = _toeplitz_column(dressed) if gamma is not None else None
    vals = dressed.values if c is None else c[:, None]
    worst = 0.0
    for lo in range(2, n - 2, _ROWS):
        hi = min(lo + _ROWS, n - 2)
        cols = min(hi - 2, vals.shape[1])  # interior entries of rows lo:hi have j <= i - 2
        rows = vals[lo:hi, :cols]
        d2 = (vals[lo + 1:hi + 1, :cols] - 2.0 * rows + vals[lo - 1:hi - 1, :cols]) / dt ** 2
        pi_d = gamma * rows if gamma is not None else pi_R.values[lo:hi] @ vals[:, :cols]
        lhs = -(d2 + omega0 ** 2 * rows) / omega0 - dt * pi_d
        worst = np.maximum(worst, np.abs(np.tril(lhs, lo - 2)).max())  # NaN propagates
    scale = 1.0 / dt  # grid delta amplitude
    return float(worst / scale)


def wyld_mc(spec: OscillatorSpec, grid: TimeGrid, n_samples: int, seed: int,
            J_e: Signal | None = None, white_noise_std: float = 0.0,
            alpha_nbar: float = 0.0) -> dict:
    """Classical stochastic sampling of the driven one-mode field.

    Each sample is q(t) = q_in(t; alpha) + integral D_R(t-t') j(t') dt'
    with j = J_e + J_r, a thermal complex amplitude alpha of mean square
    modulus alpha_nbar, and a white random current of covariance
    white_noise_std^2 delta(t-t') (grid variance white_noise_std^2/dt).
    Returns the sample mean and covariance (normalised by n_samples) of
    n_samples such paths, with standard errors; deterministic for fixed
    (seed, n_samples) via a counter-based generator.

    A path is q = z B + q_J with z the standard normal of the d random
    inputs (Re alpha and Im alpha when alpha_nbar > 0, the n current
    samples when white_noise_std > 0), so the estimates depend on the
    draws only through the sample mean zbar ~ N(0, I/N) and the scatter
    matrix W = sum (z - zbar)^T (z - zbar) ~ Wishart(N - 1, I), which are
    independent.  Both are drawn directly, zbar first: W = A A^T by the
    Bartlett decomposition (A lower triangular, A_ii^2 ~ chi^2(N - 1 - i),
    A_ij ~ N(0, 1) below the diagonal in np.tril_indices order) when
    N - 1 >= d, else as Z^T Z from N - 1 standard normal rows.  So the
    estimates have exactly the distribution of the path average at a cost
    that does not grow with N.  W carries no fourth moments: cov_stderr is
    the Gaussian (Isserlis) plug-in for the standard deviation of the
    centred covariance, sqrt((C_ii C_jj + C_ij^2) / N) with C = cov; the
    mean does not enter it, since cov is centred on the sample mean.
    """
    n_samples = _require_count("n_samples", n_samples)
    _require_positive("white_noise_std", white_noise_std, zero_ok=True)
    _require_positive("alpha_nbar", alpha_nbar, zero_ok=True)
    rng = np.random.Generator(np.random.Philox(seed))
    dr = retarded_response_grid(spec, grid).values
    base = np.zeros(grid.n)
    if J_e is not None:
        _check_same_grid(grid, J_e.grid)
        _require_finite("J_e", J_e.values)
        if np.any(J_e.values.imag):
            raise ValueError("J_e must be real: a classical current has no imaginary part")
        base = grid.dt * (dr @ J_e.values.real)
    rows = [np.zeros((0, grid.n))]
    if alpha_nbar > 0:
        rows.append(np.sqrt(alpha_nbar / 2.0) * _infield_basis(spec, grid.times))
    if white_noise_std > 0:
        # the current's grid variance is white_noise_std^2 / dt
        rows.append((grid.dt * white_noise_std / np.sqrt(grid.dt)) * dr.T)
    b = np.concatenate(rows)
    d = len(b)
    z_mean = rng.standard_normal(d) / np.sqrt(n_samples)
    if n_samples - 1 >= d:
        factor = np.diag(np.sqrt(rng.chisquare(n_samples - 1 - np.arange(d))))
        factor[np.tril_indices(d, -1)] = rng.standard_normal(d * (d - 1) // 2)
        root = factor.T @ b
    else:
        root = rng.standard_normal((n_samples - 1, d)) @ b
    mean = z_mean @ b + base
    cov = root.T @ root / n_samples  # B^T (W / N) B
    var = np.diag(cov)
    return {
        "mean": mean,
        "mean_stderr": np.sqrt(var / n_samples),
        "cov": cov,
        "cov_stderr": np.sqrt((np.outer(var, var) + cov ** 2) / n_samples),
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
