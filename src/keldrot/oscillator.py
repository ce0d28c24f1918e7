"""Harmonic-oscillator kernels under Cahill-Glauber s-ordering.

Exact closed forms for the retarded response, the s-ordered two-point
kernel of a Gaussian state and the reordering gap, plus a phase-space
Monte Carlo over the s-quasidistribution that serves as an independent
oracle for the closed forms.  `rotated_cumulants` is the rotated image of
a `ctl_cumulants` set in closed form, for `rotation.lambda2_identity_check`.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .grids import (
    OrderingParam,
    Signal,
    TimeGrid,
    TwoPointKernel,
    _circle_theta,
    heaviside,
    project_pm,
    reflect,
    theta_ordering_matrix,
)
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
    "reorder_gap_from_response",
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
        for name in ("omega0", "hbar"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state: occupation nbar = <a'a>, squeezing m = <aa>."""

    nbar: float = 0.0
    m: complex = 0j

    def __post_init__(self):
        if not (np.isfinite(self.nbar) and self.nbar >= 0):
            raise ValueError(f"nbar must be finite and non-negative, got {self.nbar}")
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


def retarded_response_grid(spec: OscillatorSpec, grid: TimeGrid) -> np.ndarray:
    """D_R sampled on the grid in linear time: -theta(t - t') sin(omega0 (t - t'))
    with the grid's time order `theta_ordering_matrix`.  The response on the
    circle is the D_R of `rotated_cumulants`."""
    t = grid.times
    return -theta_ordering_matrix(grid) * np.sin(spec.omega0 * (t[:, None] - t[None, :]))


def _mode_phases(w: float, t, tp):
    """(e^{-i w (t+t')}, e^{-i w (t-t')}) from e^{-i w t} and e^{-i w t'}.

    On broadcast grids (t[:, None], t[None, :]) this takes O(n)
    exponentials instead of O(n^2).
    """
    a = np.exp(-1j * w * np.asarray(t, dtype=float))
    b = np.exp(-1j * w * np.asarray(tp, dtype=float))
    return a * b, a * b.conj()


def s_ordered_kernel(spec: OscillatorSpec, state: GaussianState, p: OrderingParam, t, tp):
    """<O_s q(t) q(t')> for a zero-mean Gaussian state.

    (hbar/2)[m e^{-i w (t+t')} + m* e^{i w (t+t')}
             + 2 (nbar + s_minus) cos w (t-t')]
    """
    e_sum, e_diff = _mode_phases(spec.omega0, t, tp)
    val = spec.hbar * ((state.m * e_sum).real + (state.nbar + p.s_minus) * e_diff.real) + 0j
    return val if np.ndim(val) else complex(val)


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
                  periodic: bool = False) -> CumulantSet:
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
    zero = Signal.zero(grid)
    cycles = round(spec.omega0 / grid.domega)
    if periodic and state.m == 0 and spec.omega0 == grid.resonant_frequency(cycles):
        k_w = TwoPointKernel.circulant(grid, wightman_kernel(spec, state, grid.lags, 0.0))
        return CumulantSet(zero, None, None, k_w, spec.hbar, periodic)
    t = grid.times
    k_w = wightman_kernel(spec, state, t[:, None], t[None, :])
    return CumulantSet.from_wightman(zero, k_w, periodic, spec.hbar)


def reorder_gap(spec: OscillatorSpec, tau):
    """Closed form of the reordering gap, Z(tau) = (hbar/2) cos(omega0 tau)."""
    tau = np.asarray(tau, dtype=float)
    out = 0.5 * spec.hbar * np.cos(spec.omega0 * tau)
    return out if out.ndim else float(out)


def reorder_gap_from_response(spec: OscillatorSpec, grid: TimeGrid) -> Signal:
    """Z assembled from the frequency-sign parts of the sampled response.

    Z(tau) = (i hbar / 2)[D_R^+(tau) + D_R^+(-tau) - D_R^-(tau) - D_R^-(-tau)].
    Exact on grids where omega0 is resonant.
    """
    d = Signal(grid, retarded_response(spec, grid.lags))
    dp = project_pm(d, "+")
    dm = project_pm(d, "-")
    z = 0.5j * spec.hbar * (dp.values + reflect(dp).values
                            - dm.values - reflect(dm).values)
    return Signal(grid, z)


def recover_retarded_from_gap(Z: Signal, hbar: float = 1.0) -> Signal:
    """D_R(tau) = (2 / i hbar) theta(tau) [Z^+(tau) - Z^-(tau)], with theta
    on the circle (the lag profile of the periodic `theta_ordering_matrix`)."""
    zp = project_pm(Z, "+")
    zm = project_pm(Z, "-")
    theta = _circle_theta(Z.grid)
    vals = (2.0 / (1j * hbar)) * theta * (zp.values - zm.values)
    return Signal(Z.grid, vals)


def rotated_cumulants(spec: OscillatorSpec, state: GaussianState, p: OrderingParam,
                      grid: TimeGrid) -> RotatedCumulants:
    """Closed-form rotated image of `ctl_cumulants(spec, state, grid,
    periodic=True)` at ordering p, its `rotate` to rounding at a resonant
    omega0: zero mean, the s-ordered kernel as a real N_s, and as D_R the
    Kubo response on the circle, the circulant kernel with lag profile
    -theta sin(omega0 tau), theta from `grids._circle_theta` (1/2 at lag 0
    and at the wrap lag -T/2)."""
    t = grid.times
    d_r = TwoPointKernel.circulant(grid, -_circle_theta(grid) * np.sin(spec.omega0 * grid.lags))
    n_s = np.ascontiguousarray(s_ordered_kernel(spec, state, p, t[:, None], t[None, :]).real)
    return RotatedCumulants(Signal.zero(grid), d_r, TwoPointKernel(grid, n_s), p, spec.hbar)


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


def _quasidistribution_xy(state: GaussianState, p: OrderingParam, n_samples: int,
                          rng: np.random.Generator) -> np.ndarray:
    """(Re alpha, Im alpha) drawn from the s-quasidistribution, shape (n, 2)."""
    cov = _quasidistribution_cov(state, p)
    evals, evecs = np.linalg.eigh(cov)
    tol = 1e-12 * max(1.0, float(np.abs(cov).max()))
    if evals.min() < -tol:
        raise UnsampleableStateError(
            "quasidistribution not sampleable: covariance of the s-ordered "
            f"Gaussian has negative eigenvalue {evals.min():.3e}"
        )
    evals = np.clip(evals, 0.0, None)
    root = evecs @ np.diag(np.sqrt(evals))
    return rng.standard_normal((n_samples, 2)) @ root.T


# samples drawn per step; an estimate depends on it only through rounding
_MC_CHUNK = 200_000


def _sample_count(n_samples) -> int:
    """n_samples as an int, if it is an integer of at least 1."""
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}") from None
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    return n_samples


def mc_quasiaverage(spec: OscillatorSpec, state: GaussianState, p: OrderingParam,
                    times: np.ndarray, n_samples: int, seed: int):
    """Monte Carlo estimate of <O_s q(t) q(t')> over the s-quasidistribution.

    Uses a counter-based (Philox) generator so the result is a pure
    function of (seed, n_samples).  Returns (estimate, standard_error) as
    (nt, nt) arrays.

    Every sample path q(t) = 2 sqrt(hbar/2)(x cos wt + y sin wt), with
    alpha = x + iy, has rank 2, so only the Grams G2 of (x, y) and G4 of
    (x^2, xy, y^2) are summed over samples: sum q q^T = B^T G2 B and
    sum q^2 (q^2)^T = C^T G4 C, with B the rows (cos, sin) scaled to the
    path and C the rows of B_0^2, 2 B_0 B_1 and B_1^2.
    """
    n_samples = _sample_count(n_samples)
    times = np.asarray(times, dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    g2 = np.zeros((2, 2))
    g4 = np.zeros((3, 3))
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        xy = _quasidistribution_xy(state, p, m, rng)
        g2 += xy.T @ xy
        x, y = xy[:, 0], xy[:, 1]
        z = np.column_stack((x * x, x * y, y * y))
        g4 += z.T @ z
        done += m
    b = _infield_basis(spec, times)
    c = np.array([b[0] * b[0], 2.0 * b[0] * b[1], b[1] * b[1]])
    mean = (b.T @ g2 @ b) / n_samples
    var = np.maximum((c.T @ g4 @ c) / n_samples - mean ** 2, 0.0)
    stderr = np.sqrt(var / n_samples)
    return mean, stderr
