"""Harmonic-oscillator kernels under Cahill-Glauber s-ordering.

Exact closed forms for the retarded response, the s-ordered two-point
kernel of a Gaussian state and the reordering gap, plus a phase-space
Monte Carlo over the s-quasidistribution that serves as an independent
oracle for the closed forms.  `rotated_cumulants` is the rotated image of
a `ctl_cumulants` set in closed form, for `rotation.lambda2_identity_check`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (OrderingParam, Signal, TimeGrid, TwoPointKernel, _circle_theta,
                    _require_count, _require_positive, heaviside, project_s)
from .rotation import CumulantSet, RotatedCumulants

__all__ = [
    "OscillatorSpec",
    "GaussianState",
    "UnsampleableStateError",
    "retarded_response",
    "retarded_response_grid",
    "s_ordered_kernel",
    "wightman_kernel",
    "ctl_cumulants",
    "reorder_gap",
    "recover_retarded_from_gap",
    "rotated_cumulants",
    "mc_quasiaverage",
]


class UnsampleableStateError(ValueError):
    """The s-quasidistribution of the state is not a positive Gaussian."""


@dataclass(frozen=True)
class OscillatorSpec:
    omega0: float
    hbar: float = 1.0

    def __post_init__(self):
        _require_positive("omega0", self.omega0)
        _require_positive("hbar", self.hbar)


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state: occupation nbar = <a'a>, squeezing m = <aa>."""

    nbar: float = 0.0
    m: complex = 0j

    def __post_init__(self):
        _require_positive("nbar", self.nbar, zero_ok=True)
        if not np.isfinite(self.m):
            raise ValueError(f"squeezing m must be finite, got {self.m}")
        bound = np.sqrt(self.nbar * (self.nbar + 1.0))
        if abs(self.m) > bound * (1.0 + 1e-12) + 1e-300:
            raise ValueError(
                f"unphysical squeezing: |m|={abs(self.m):.6g} exceeds "
                f"sqrt(nbar(nbar+1))={bound:.6g}"
            )


def retarded_response(spec: OscillatorSpec, tau):
    """Kubo response D_R(tau) = -theta(tau) sin(omega0 tau)."""
    tau = np.asarray(tau, dtype=float)
    out = -heaviside(tau) * np.sin(spec.omega0 * tau)
    return out if out.ndim else float(out)


def retarded_response_grid(spec: OscillatorSpec, grid: TimeGrid) -> TwoPointKernel:
    """D_R sampled on the grid in linear time, held as its 2n - 1 lags:
    entry (i, j) is `retarded_response` at the lag (i - j) dt, so the kernel
    is exactly lower-triangular Toeplitz at any dt.  The response on the
    circle is the D_R of `rotated_cumulants`."""
    lags = grid.dt * np.arange(grid.n)
    return TwoPointKernel.toeplitz(grid, *(retarded_response(spec, x) for x in (lags, -lags)))


def _mode_phases(w: float, t, tp):
    """(e^{-i w (t+t')}, e^{-i w (t-t')}) from e^{-i w t} and e^{-i w t'}.

    On broadcast grids (t[:, None], t[None, :]) this takes O(n)
    exponentials instead of O(n^2).
    """
    a = np.exp(-1j * w * np.asarray(t, dtype=float))
    b = np.exp(-1j * w * np.asarray(tp, dtype=float))
    return a * b, a * b.conj()


def s_ordered_kernel(spec: OscillatorSpec, state: GaussianState, p: OrderingParam, t, tp):
    """<O_s q(t) q(t')> for a zero-mean Gaussian state, real (float64, or a
    float for scalar t and t'):

    (hbar/2)[m e^{-i w (t+t')} + m* e^{i w (t+t')}
             + 2 (nbar + s_minus) cos w (t-t')]
    """
    e_sum, e_diff = _mode_phases(spec.omega0, t, tp)
    val = spec.hbar * ((state.m * e_sum).real + (state.nbar + p.s_minus) * e_diff.real)
    return val if np.ndim(val) else float(val)


def wightman_kernel(spec: OscillatorSpec, state: GaussianState, t, tp):
    """Unordered <q(t) q(t')> for a zero-mean Gaussian state.

    (hbar/2)[m e^{-i w (t+t')} + m* e^{i w (t+t')}
             + (nbar + 1) e^{-i w (t-t')} + nbar e^{i w (t-t')}]
    """
    e_sum, e_diff = _mode_phases(spec.omega0, t, tp)
    val = 0.5 * spec.hbar * (2.0 * (state.m * e_sum).real
                             + (2.0 * state.nbar + 1.0) * e_diff.real + 1j * e_diff.imag)
    return val if np.ndim(val) else complex(val)


def ctl_cumulants(spec: OscillatorSpec, state: GaussianState, grid: TimeGrid,
                  periodic: bool) -> CumulantSet:
    """Closed-time-loop triple of the oscillator on a grid (mean is zero).

    periodic=True takes the theta split on the circle.  The set is circulant
    only for a stationary state (m = 0) at a resonant omega0 (an integral
    multiple of the grid's domega), where wrapped and linear lags give the
    same phases; use that case when checking stationary spectral
    identities, which are exact only in that representation.  On the circle
    that set is built as a circulant K_W (`TwoPointKernel.circulant`)
    sampled at the wrapped lags `TimeGrid.lags`, so the rotation works on
    its lag profile and never lays it out as n x n.  Every other set is a
    dense K_W sampled at the linear lag t - t'.
    """
    cycles = round(spec.omega0 / grid.domega)
    if periodic and state.m == 0 and spec.omega0 == grid.resonant_frequency(cycles):
        k_w = TwoPointKernel.circulant(grid, wightman_kernel(spec, state, grid.lags, 0.0))
    else:
        t = grid.times
        k_w = TwoPointKernel(grid, wightman_kernel(spec, state, t[:, None], t[None, :]))
    return CumulantSet(Signal.zero(grid), k_w, spec.hbar, periodic)


def reorder_gap(spec: OscillatorSpec, tau):
    """Closed form of the reordering gap, Z(tau) = (hbar/2) cos(omega0 tau)."""
    tau = np.asarray(tau, dtype=float)
    out = 0.5 * spec.hbar * np.cos(spec.omega0 * tau)
    return out if out.ndim else float(out)


def recover_retarded_from_gap(Z: Signal, hbar: float) -> Signal:
    """D_R(tau) = (2 / i hbar) theta(tau) [Z^+(tau) - Z^-(tau)], with theta
    on the circle (the lag profile `grids._circle_theta`)."""
    zp = project_s(Z, OrderingParam(1.0), "+")
    zm = project_s(Z, OrderingParam(1.0), "-")
    theta = _circle_theta(Z.grid)
    vals = (2.0 / (1j * hbar)) * theta * (zp.values - zm.values)
    return Signal(Z.grid, vals)


def rotated_cumulants(spec: OscillatorSpec, state: GaussianState, p: OrderingParam,
                      grid: TimeGrid) -> RotatedCumulants:
    """Closed-form rotated image of `ctl_cumulants(spec, state, grid,
    periodic=True)` at ordering p, its `rotate` to rounding: zero mean, the
    s-ordered kernel as a real N_s (the circulant kernel with the lag
    profile of `s_ordered_kernel` for a stationary state, m = 0, else its
    n x n samples at t - t'), and as D_R the Kubo response on the
    circle, the circulant kernel with lag profile -theta sin(omega0 tau),
    theta from `grids._circle_theta` (1/2 at lag 0 and at the wrap lag
    -T/2).  It is that image only at a resonant omega0, so an omega0 more
    than 1e-9 omega0 from every `grid.resonant_frequency(k)`, k >= 1, is a
    ValueError."""
    cycles = max(1, round(spec.omega0 / grid.domega))
    nearest = grid.resonant_frequency(cycles)
    if abs(spec.omega0 - nearest) > 1e-9 * spec.omega0:
        raise ValueError(f"omega0 = {spec.omega0!r} is not a grid resonance (nearest "
                         f"{nearest!r}, {cycles} cycles): the closed-form image is "
                         "rotate's only at a resonant omega0")
    d_r = TwoPointKernel.circulant(grid, -_circle_theta(grid) * np.sin(spec.omega0 * grid.lags))
    if state.m == 0:  # a stationary state: N_s is circulant too
        n_s = TwoPointKernel.circulant(grid, s_ordered_kernel(spec, state, p, grid.lags, 0.0))
    else:
        t = grid.times
        n_s = TwoPointKernel(grid, s_ordered_kernel(spec, state, p, t[:, None], t[None, :]))
    return RotatedCumulants(Signal.zero(grid), d_r, n_s, p, spec.hbar)


def _infield_basis(spec: OscillatorSpec, t: np.ndarray) -> np.ndarray:
    """Rows 2 sqrt(hbar/2) (cos w0 t, sin w0 t): the in-field of amplitude
    alpha = x + iy is (x, y) @ these rows."""
    w = spec.omega0
    return 2.0 * np.sqrt(spec.hbar / 2.0) * np.array([np.cos(w * t), np.sin(w * t)])


def _quasidistribution_cov(state: GaussianState, p: OrderingParam) -> np.ndarray:
    """Covariance of (Re alpha, Im alpha) under the s-quasidistribution.

    Second moments: E[|alpha|^2] = nbar + s_minus, E[alpha^2] = m.
    """
    v = state.nbar + p.s_minus
    re_m, im_m = np.real(state.m), np.imag(state.m)
    return np.array([
        [0.5 * (v + re_m), 0.5 * im_m],
        [0.5 * im_m, 0.5 * (v - re_m)],
    ])


def _quasidistribution_root(state: GaussianState, p: OrderingParam) -> np.ndarray:
    """A square root R of the s-quasidistribution's covariance, R R^T = cov:
    (Re alpha, Im alpha) = R z for standard normal z."""
    cov = _quasidistribution_cov(state, p)
    evals, evecs = np.linalg.eigh(cov)
    tol = 1e-12 * max(1.0, float(np.abs(cov).max()))
    if evals.min() < -tol:
        raise UnsampleableStateError(
            "quasidistribution not sampleable: covariance of the s-ordered "
            f"Gaussian has negative eigenvalue {evals.min():.3e}"
        )
    return evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None)))


# samples drawn per step; an estimate depends on it only through rounding
_MC_CHUNK = 200_000


def _normal_grams(rng: np.random.Generator, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(G2_z, G4_z): the sums over n_samples standard normal pairs z of
    z z^T and of u u^T, u = (z0^2, z0 z1, z1^2), drawn _MC_CHUNK pairs at a
    time into buffers allocated once."""
    g2_z = np.zeros((2, 2))
    g4_z = np.zeros((3, 3))
    chunk = min(_MC_CHUNK, n_samples)
    z_buf = np.empty((chunk, 2))
    u_buf = np.empty(3 * chunk)
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        z0, z1 = rng.standard_normal(out=z_buf[:m]).T
        u = u_buf[:3 * m].reshape(3, m)
        np.multiply(z0, z0, out=u[0])
        np.multiply(z0, z1, out=u[1])
        np.multiply(z1, z1, out=u[2])
        s0, s01, s1 = u.sum(axis=1)
        g2_z += [[s0, s01], [s01, s1]]
        g4_z += u @ u.T
        done += m
    return g2_z, g4_z


def mc_quasiaverage(spec: OscillatorSpec, state: GaussianState, p: OrderingParam,
                    times: np.ndarray, n_samples: int, seed: int):
    """Monte Carlo estimate of <O_s q(t) q(t')> over the s-quasidistribution.

    Uses a counter-based (Philox) generator so the result is a pure
    function of (seed, n_samples).  Returns (estimate, standard_error) as
    (nt, nt) arrays.

    Every sample path q(t) = 2 sqrt(hbar/2)(x cos wt + y sin wt), with
    alpha = x + iy = R z for standard normal z (`_quasidistribution_root`),
    has rank 2, so only Grams are summed over samples, and those of z: the
    sums of u = (z0^2, z0 z1, z1^2) give G2_z and u u^T gives G4_z
    (`_normal_grams`).  Then G2 = R G2_z R^T is the Gram of (x, y) and
    G4 = T G4_z T^T that of (x^2, xy, y^2), with T the linear map
    u -> (x^2, xy, y^2), and sum q q^T = B^T G2 B and
    sum q^2 (q^2)^T = C^T G4 C, with B the rows (cos, sin) scaled to the
    path and C the rows of B_0^2, 2 B_0 B_1 and B_1^2.
    """
    n_samples = _require_count("n_samples", n_samples)
    times = np.asarray(times, dtype=float)
    root = _quasidistribution_root(state, p)
    g2_z, g4_z = _normal_grams(np.random.Generator(np.random.Philox(seed)), n_samples)
    (r00, r01), (r10, r11) = root
    t = np.array([[r00 * r00, 2.0 * r00 * r01, r01 * r01],
                  [r00 * r10, r00 * r11 + r01 * r10, r01 * r11],
                  [r10 * r10, 2.0 * r10 * r11, r11 * r11]])
    g2 = root @ g2_z @ root.T
    g4 = t @ g4_z @ t.T
    b = _infield_basis(spec, times)
    c = np.array([b[0] * b[0], 2.0 * b[0] * b[1], b[1] * b[1]])
    mean = (b.T @ g2 @ b) / n_samples
    var = np.maximum((c.T @ g4 @ c) / n_samples - mean ** 2, 0.0)
    stderr = np.sqrt(var / n_samples)
    return mean, stderr
