"""Generalized Keldysh rotation of two-point closed-time-loop cumulants.

The closed-time-loop data for a Hermitian bosonic field is the triple of
kernels {<T+ A,A>, <T- A,A>, <A,A>} plus the mean.  A rotation with
ordering parameter s trades them for the retarded response D_R (shared by
every rotation) and the time-s-ordered noise kernel N_s.  The inverse map
reconstructs the triple, and reordering between s values only adds a
response-derived gap kernel to the noise.

All transforms are linear and built from the grid projectors, so on a
periodic grid the forward/inverse pair is exact to roundoff for
consistent inputs.  Only the Hermitian-field case is supported: complex
(non-Hermitian-component) cumulants are rejected because the entrywise
"2 Re" in the noise formula is ambiguous for them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    OrderingParam,
    Signal,
    TimeGrid,
    TwoPointKernel,
    pair_form,
    overlap,
    project_kernel_axis,
    project_s,
    theta_ordering_matrix,
)

__all__ = [
    "CumulantSet",
    "RotatedCumulants",
    "ConsistencyError",
    "rotate",
    "unrotate",
    "reorder",
    "reorder_gap_kernel",
    "rotation_substitution",
    "inverse_rotation_substitution",
    "lambda2_form",
    "rotated_lambda2_form",
    "lambda2_identity_check",
    "synthetic_cumulants",
]


class ConsistencyError(ValueError):
    """Raised when a cumulant set violates the closed-time-loop identity."""


@dataclass
class CumulantSet:
    """Closed-time-loop cumulant triple plus mean for one field component.

    K_F = <T+ A,A>, K_rev = <T- A,A>, K_W = <A,A> (Wightman).  For a
    Hermitian field K_rev = K_F* entrywise and the triple satisfies
    K_W(t,t') + K_W(t',t) - K_F(t,t') - K_rev(t,t') = 0.
    """

    mean: Signal
    K_F: TwoPointKernel
    K_rev: TwoPointKernel
    K_W: TwoPointKernel
    hbar_c: float = 1.0

    def __post_init__(self):
        g = self.mean.grid
        for K in (self.K_F, self.K_rev, self.K_W):
            if K.grid != g:
                raise ValueError("cumulant kernels must share the mean's grid")

    @property
    def grid(self) -> TimeGrid:
        return self.mean.grid

    def _scale(self) -> float:
        return max(
            np.abs(self.K_F.values).max(),
            np.abs(self.K_W.values).max(),
            np.abs(self.K_rev.values).max(),
            1e-300,
        )

    def consistency_residual(self) -> float:
        """Relative residual of K_W + K_W^T - K_F - K_rev = 0."""
        r = self.K_W.values + self.K_W.values.T - self.K_F.values - self.K_rev.values
        return float(np.abs(r).max() / self._scale())

    def reversal_residual(self) -> float:
        """Relative residual of the Hermitian-field relation K_rev = K_F*."""
        r = self.K_rev.values - self.K_F.values.conj()
        return float(np.abs(r).max() / self._scale())

    def validate(self, tol: float = 1e-8):
        res = self.consistency_residual()
        if res > tol:
            raise ConsistencyError(
                f"cumulant set violates the CTL consistency identity: residual {res:.3e} > {tol:.1e}"
            )
        rev = self.reversal_residual()
        if rev > tol:
            raise ConsistencyError(
                f"K_rev != K_F* (non-Hermitian field data not supported): residual {rev:.3e}"
            )
        return self


@dataclass
class RotatedCumulants:
    """Rotated image: mean, retarded response D_R, time-s-ordered noise N_s."""

    mean: Signal
    D_R: TwoPointKernel
    N_s: TwoPointKernel
    p: OrderingParam
    hbar_c: float = 1.0

    @property
    def grid(self) -> TimeGrid:
        return self.mean.grid

    def retardation_residual(self) -> float:
        upper = np.triu(self.D_R.values, 1)
        return float(np.abs(upper).max())

    def hermiticity_residual(self) -> float:
        r = self.N_s.values - self.N_s.values.conj().T
        scale = max(np.abs(self.N_s.values).max(), 1e-300)
        return float(np.abs(r).max() / scale)


def _enforce_retardation(values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Zero the acausal part, accepting either time representation.

    Linear-time data is retarded below the diagonal; circulant (periodic
    stationary) data is retarded on wrapped-positive lags.  In both cases
    the acausal entries of a physical response vanish identically, so this
    only removes floating-point noise; genuinely acausal input is rejected.
    """
    scale = max(np.abs(values).max(), 1e-300)
    noise = 1e-10 * scale
    upper = np.triu(values, 1)
    if np.abs(upper).max() <= noise:
        return np.tril(values)
    i = np.arange(grid.n)
    wrapped_negative = grid.lags[(i[:, None] - i[None, :]) % grid.n] < 0
    if np.abs(values[wrapped_negative]).max() <= noise:
        out = values.copy()
        out[wrapped_negative] = 0.0
        return out
    raise ConsistencyError("response kernel is not retarded in either time representation")


def retarded_from_cumulants(ctl: CumulantSet) -> TwoPointKernel:
    """D_R(t,t') = [<T- A,A> - <A,A>] / (-i hbar c), zero for t < t'.

    For physical inputs the difference vanishes identically at t < t', so
    enforcing retardation only removes floating-point noise.
    """
    d = (ctl.K_rev.values - ctl.K_W.values) / (-1j * ctl.hbar_c)
    return TwoPointKernel(ctl.grid, _enforce_retardation(d, ctl.grid))


def _time_s_noise(ctl: CumulantSet, p: OrderingParam) -> TwoPointKernel:
    """Time-s-ordered noise 2 Re[F^{s+}_t F^{s+}_t' K_F + F^{s-}_t F^{s+}_t' K_W]."""
    kf = project_kernel_axis(project_kernel_axis(ctl.K_F, 1, "+", p), 0, "+", p)
    kw = project_kernel_axis(project_kernel_axis(ctl.K_W, 1, "+", p), 0, "-", p)
    return TwoPointKernel(ctl.grid, 2.0 * np.real(kf.values + kw.values))


def rotate(ctl: CumulantSet, p: OrderingParam, consistency_tol: float = 1e-8,
           check: bool = True) -> RotatedCumulants:
    """Rotate a consistent CTL cumulant set into (mean, D_R, N_s)."""
    if check:
        ctl.validate(consistency_tol)
    d_r = retarded_from_cumulants(ctl)
    n_s = _time_s_noise(ctl, p)
    return RotatedCumulants(mean=ctl.mean, D_R=d_r, N_s=n_s, p=p, hbar_c=ctl.hbar_c)


def unrotate(rot: RotatedCumulants) -> CumulantSet:
    """Reconstruct the CTL cumulant triple from (mean, D_R, N_s).

    K_F = N_s + i hbar c [F^{s-}_t' D_R(t,t') + F^{s-}_t D_R(t',t)]
    K_W = N_s + i hbar c [F^{s-}_t' D_R(t,t') - F^{s+}_t D_R(t',t)]
    K_rev = K_F*
    """
    i_hc = 1j * rot.hbar_c
    t1 = project_kernel_axis(rot.D_R, 1, "-", rot.p).values   # F^{s-} on t'
    t2 = project_kernel_axis(rot.D_R, 1, "+", rot.p).values   # F^{s+} on t'
    # Projection on the first argument of the transposed kernel equals the
    # transpose of the same-sign projection on the second argument.
    k_f = rot.N_s.values + i_hc * (t1 + t1.T)
    k_w = rot.N_s.values + i_hc * (t1 - t2.T)
    g = rot.grid
    return CumulantSet(
        mean=rot.mean,
        K_F=TwoPointKernel(g, k_f),
        K_rev=TwoPointKernel(g, k_f.conj()),
        K_W=TwoPointKernel(g, k_w),
        hbar_c=rot.hbar_c,
    )


def reorder_gap_kernel(D_R: TwoPointKernel, hbar_c: float = 1.0) -> TwoPointKernel:
    """Response-derived gap kernel Z(t,t') connecting noises at different s.

    Z = (i hbar c / 2) [F^-_t' D_R(t,t') + F^-_t D_R(t',t)
                        - F^+_t' D_R(t,t') - F^+_t D_R(t',t)]
    """
    bm = project_kernel_axis(D_R, 1, "-").values
    bp = project_kernel_axis(D_R, 1, "+").values
    z = 0.5j * hbar_c * (bm + bm.T - bp - bp.T)
    return TwoPointKernel(D_R.grid, z)


def reorder(rot: RotatedCumulants, s_new: float) -> RotatedCumulants:
    """Map the noise kernel to a new ordering: N_s' = N_s + (s - s') Z."""
    p_new = OrderingParam(s_new)  # validates |s_new| <= 1
    gap = reorder_gap_kernel(rot.D_R, rot.hbar_c)
    n_new = rot.N_s.values + (rot.p.s - s_new) * gap.values
    return RotatedCumulants(
        mean=rot.mean,
        D_R=rot.D_R,
        N_s=TwoPointKernel(rot.grid, n_new),
        p=p_new,
        hbar_c=rot.hbar_c,
    )


def rotation_substitution(eta: Signal, j_s: Signal, p: OrderingParam,
                          hbar_c: float = 1.0) -> tuple[Signal, Signal]:
    """Substitution (eta, j_s) -> (eta_+, eta_-).

    eta_+ = j_s/(hbar c) + eta^(s-),  eta_- = j_s/(hbar c) - eta^(s+).
    """
    j_scaled = j_s.values / hbar_c
    eta_sm = project_s(eta, p, "-").values
    eta_sp = project_s(eta, p, "+").values
    g = eta.grid
    return Signal(g, j_scaled + eta_sm), Signal(g, j_scaled - eta_sp)


def inverse_rotation_substitution(eta_p: Signal, eta_m: Signal, p: OrderingParam,
                                  hbar_c: float = 1.0) -> tuple[Signal, Signal]:
    """Inverse map (eta_+, eta_-) -> (eta, j_s); exact on the grid.

    eta = eta_+ - eta_-,  j_s = hbar c [eta_+^(s+) + eta_-^(s-)].
    """
    eta = eta_p - eta_m
    j_s = hbar_c * (project_s(eta_p, p, "+") + project_s(eta_m, p, "-"))
    return eta, j_s


def lambda2_form(ctl: CumulantSet, eta_p: Signal, eta_m: Signal) -> complex:
    """Closed-time-loop bilinear form Lambda_2[eta_+, eta_-].

    Lambda_2 = -i (eta_+ - eta_-) <A> + eta_- <A,A> eta_+
               - (1/2) eta_+ <T+ A,A> eta_+ - (1/2) eta_- <T- A,A> eta_-
    """
    mean_term = -1j * overlap(eta_p - eta_m, ctl.mean)
    return (
        mean_term
        + pair_form(eta_m, ctl.K_W, eta_p)
        - 0.5 * pair_form(eta_p, ctl.K_F, eta_p)
        - 0.5 * pair_form(eta_m, ctl.K_rev, eta_m)
    )


def rotated_lambda2_form(rot: RotatedCumulants, eta: Signal, j_s: Signal) -> complex:
    """Rotated form -i eta <A> - i eta D_R j_s - (1/2) eta N_s eta."""
    return (
        -1j * overlap(eta, rot.mean)
        - 1j * pair_form(eta, rot.D_R, j_s)
        - 0.5 * pair_form(eta, rot.N_s, eta)
    )


def lambda2_identity_check(ctl: CumulantSet, p: OrderingParam, eta: Signal,
                           j_s: Signal) -> dict:
    """Evaluate both sides of the rotated-form identity and their residual.

    Also reports the term quadratic in j_s, which must cancel by the CTL
    consistency identity.
    """
    eta_p, eta_m = rotation_substitution(eta, j_s, p, ctl.hbar_c)
    lhs = lambda2_form(ctl, eta_p, eta_m)
    rot = rotate(ctl, p, check=False)
    rhs = rotated_lambda2_form(rot, eta, j_s)
    # j_s-quadratic piece of Lambda_2 under the substitution
    j = Signal(ctl.grid, j_s.values / ctl.hbar_c)
    quad_j = (
        pair_form(j, ctl.K_W, j)
        - 0.5 * pair_form(j, ctl.K_F, j)
        - 0.5 * pair_form(j, ctl.K_rev, j)
    )
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "residual": abs(lhs - rhs),
        "relative_residual": abs(lhs - rhs) / scale,
        "j_quadratic_term": quad_j,
    }


def synthetic_cumulants(grid: TimeGrid, rng: np.random.Generator, n_modes: int = 3,
                        hbar_c: float = 1.0, nbar_max: float = 2.0,
                        squeeze: bool = True, with_mean: bool = True) -> CumulantSet:
    """Random consistent Gaussian cumulant set from a multimode free field.

    Each mode contributes a thermal/squeezed Wightman kernel at a resonant
    grid frequency; the time-ordered kernels follow by the theta split, so
    the consistency identity holds exactly by construction.  With
    squeeze=True the kernels carry exp(-i w (t+t')) parts and are genuinely
    non-stationary.
    """
    n = grid.n
    t = grid.times
    modes = rng.choice(np.arange(1, n // 2 - 1), size=n_modes, replace=False)
    k_w = np.zeros((n, n), dtype=complex)
    for k in modes:
        om = grid.resonant_frequency(int(k))
        nbar = rng.uniform(0.0, nbar_max)
        a = np.exp(-1j * om * t)
        # (nbar + 1) e^{-i w (t-t')} + nbar e^{i w (t-t')}, from e^{-i w t}
        e_diff = np.outer(a, a.conj())
        k_w += 0.5 * hbar_c * ((2.0 * nbar + 1.0) * e_diff.real + 1j * e_diff.imag)
        if squeeze:
            mmax = np.sqrt(nbar * (nbar + 1.0))
            m = mmax * rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
            # m e^{-i w (t+t')} + m* e^{i w (t+t')}
            k_w += hbar_c * (m * np.outer(a, a)).real
    th = theta_ordering_matrix(grid)
    k_f = th * k_w + th.T * k_w.T
    mean = Signal.zero(grid)
    if with_mean:
        mean_vals = np.zeros(n)
        for k in modes:
            om = grid.resonant_frequency(int(k))
            mean_vals += rng.normal() * np.cos(om * t) + rng.normal() * np.sin(om * t)
        mean = Signal(grid, mean_vals)
    return CumulantSet(
        mean=mean,
        K_F=TwoPointKernel(grid, k_f),
        K_rev=TwoPointKernel(grid, k_f.conj()),
        K_W=TwoPointKernel(grid, k_w),
        hbar_c=hbar_c,
    )
