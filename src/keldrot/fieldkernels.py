"""Momentum-space free-field kernels with finite-epsilon i0+ prescriptions.

Scalar Klein-Gordon kernel family (retarded, advanced, Feynman, the two
frequency-sign parts of the commutator, and the commutator itself) plus
the photon versions in Feynman gauge, where every kernel is
-mu_vac * g_{nu nu'} times the massless scalar one.

On-shell delta functions are represented by finite-epsilon Lorentzians
here; exact delta weights are kept symbolically by the medium module,
where they matter quantitatively.
"""
from __future__ import annotations

import numpy as np

from .grids import heaviside

__all__ = [
    "scalar_kernels",
    "response_transform_check",
    "photon_keldysh_pair",
    "retarded_time_profile",
    "symmetric_k0_grid",
]


def scalar_kernels(k0, kvec_sq, mu_sq: float, eps: float) -> dict:
    """All five scalar kernels plus the commutator at the given momenta.

    D_R = 1/(k^2 - mu^2 + i eps sign k0),  D_A = D_R*,
    D_F = 1/(k^2 - mu^2 + i eps),
    D^(+-) = theta(+-k0) (D_R - D_A),  D = D^(+) + D^(-).

    The sign prescription uses sign(0) = 0 at the k0 = 0 point, and the
    Heaviside split theta(0) = 1/2, so D = D_R - D_A holds exactly
    everywhere including k0 = 0.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    k0 = np.asarray(k0, dtype=float)
    kvec_sq = np.asarray(kvec_sq, dtype=float)
    if mu_sq < 0:
        raise ValueError("mu_sq must be non-negative")
    k_sq = k0 ** 2 - kvec_sq
    base = k_sq - mu_sq
    d_r = 1.0 / (base + 1j * eps * np.sign(k0))
    d_a = np.conjugate(d_r)
    d_f = 1.0 / (base + 1j * eps)
    comm = d_r - d_a
    d_plus = heaviside(k0) * comm
    d_minus = heaviside(-k0) * comm
    return {
        "D_R": d_r,
        "D_A": d_a,
        "D_F": d_f,
        "D_plus": d_plus,
        "D_minus": d_minus,
        "D": d_plus + d_minus,
    }


def symmetric_k0_grid(k0_max: float, n: int) -> np.ndarray:
    """Symmetric k0 samples excluding 0 (where the 1/2-split makes the
    Feynman identity O(eps) instead of exact)."""
    half = np.linspace(k0_max / n, k0_max, n)
    return np.concatenate([-half[::-1], half])


def response_transform_check(k0_grid, kvec_sq: float, mu_sq: float, eps: float) -> dict:
    """Verify the dictionary relating D_F and D^(+) to D_R on a k0 grid.

    D_F(k) = theta(k0) D_R(k) + theta(-k0) D_R(-k)
    D^(+)(k) = theta(k0) [D_R(k) - D_A(k)]

    Both identities are algebraic at finite eps away from k0 = 0, so the
    residuals are roundoff-level there; the grid must be symmetric in k0.
    """
    k0 = np.asarray(k0_grid, dtype=float)
    if np.abs(np.sort(k0) + np.sort(k0)[::-1]).max() > 1e-12 * max(np.abs(k0).max(), 1.0):
        raise ValueError("k0 grid must be symmetric about zero")
    ker = scalar_kernels(k0, kvec_sq, mu_sq, eps)
    ker_flip = scalar_kernels(-k0, kvec_sq, mu_sq, eps)
    # the whole family rebuilt from the retarded kernel alone
    d_a_built = ker_flip["D_R"]
    d_f_built = heaviside(k0) * ker["D_R"] + heaviside(-k0) * ker_flip["D_R"]
    d_plus_built = heaviside(k0) * (ker["D_R"] - d_a_built)
    d_minus_built = heaviside(-k0) * (ker["D_R"] - d_a_built)
    res_f = np.abs(d_f_built - ker["D_F"])
    res_p = np.abs(d_plus_built - ker["D_plus"])
    interior = k0 != 0
    return {
        "feynman_residual": float(res_f[interior].max()),
        "plus_residual": float(res_p[interior].max()),
        "advanced_residual": float(np.abs(d_a_built - ker["D_A"]).max()),
        "minus_residual": float(np.abs(d_minus_built - ker["D_minus"]).max()),
        "commutator_residual": float(
            np.abs((ker["D_R"] - d_a_built) - ker["D"]).max()),
        "feynman_residual_at_zero": float(res_f[~interior].max()) if (~interior).any() else 0.0,
        "completeness_residual": float(
            np.abs(ker["D_plus"] + ker["D_minus"] - (ker["D_R"] - ker["D_A"])).max()
        ),
    }


def photon_keldysh_pair(k0, kvec_sq, eps: float, mu_vac: float = 1.0) -> dict:
    """Photon D_F and D^(+) scalar coefficients in Feynman gauge.

    The tensor kernels are -mu_vac g_{nu nu'} times these values, which are
    the massless scalar D_F and D^(+) scaled by -mu_vac; their assembly from
    the retarded kernel is checked by `response_transform_check`.
    """
    ker = scalar_kernels(k0, kvec_sq, 0.0, eps)
    return {"D_F": -mu_vac * ker["D_F"], "D_plus": -mu_vac * ker["D_plus"]}


def retarded_time_profile(kvec_sq: float, mu_sq: float, eps: float,
                          k0_max: float, n_k0: int, times) -> np.ndarray:
    """Inverse transform (1/2pi) integral dk0 e^{-i k0 t} D_R(k0, |k|^2).

    Midpoint rule over a symmetric k0 window.  For t < 0 the result is
    suppressed (contour closes away from the poles, which sit in the lower
    half plane at finite eps), confirming retardation.
    """
    dk = 2.0 * k0_max / n_k0
    k0 = -k0_max + dk * (np.arange(n_k0) + 0.5)
    d_r = scalar_kernels(k0, kvec_sq, mu_sq, eps)["D_R"]
    times = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.outer(times, k0))
    return (phases @ d_r) * dk / (2.0 * np.pi)
