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

import math

import numpy as np

from .grids import heaviside

__all__ = [
    "scalar_kernels",
    "photon_keldysh_pair",
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
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not (math.isfinite(mu_sq) and mu_sq >= 0):
        raise ValueError(f"mu_sq must be finite and non-negative, got {mu_sq}")
    k0 = np.asarray(k0, dtype=float)
    kvec_sq = np.asarray(kvec_sq, dtype=float)
    for name, val in (("k0", k0), ("kvec_sq", kvec_sq)):
        bad = val[~np.isfinite(val)]
        if bad.size:
            raise ValueError(f"{name} must be finite, got {bad[0]}")
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
    if not (math.isfinite(k0_max) and k0_max > 0):
        raise ValueError(f"k0_max must be finite and positive, got {k0_max}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    half = np.linspace(k0_max / n, k0_max, n)
    return np.concatenate([-half[::-1], half])


def photon_keldysh_pair(k0, kvec_sq, eps: float, mu_vac: float = 1.0) -> dict:
    """Photon D_F and D^(+) scalar coefficients in Feynman gauge.

    The tensor kernels are -mu_vac g_{nu nu'} times these values, which are
    the massless scalar D_F and D^(+) scaled by -mu_vac.  Both follow from
    the retarded kernel alone, D_F(k) = theta(k0) D_R(k) + theta(-k0) D_R(-k)
    and D^(+)(k) = theta(k0) [D_R(k) - D_R(-k)] away from k0 = 0, which the
    tests check.
    """
    ker = scalar_kernels(k0, kvec_sq, 0.0, eps)
    return {"D_F": -mu_vac * ker["D_F"], "D_plus": -mu_vac * ker["D_plus"]}
