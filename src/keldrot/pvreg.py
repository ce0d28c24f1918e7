"""Pauli-Villars regularization-parameter solver.

The regularized commutator spectrum is a signed combination
sum_l (-1)^l d_l F(k^2 / 4 mu_l^2) with d_0 = 1 and auxiliary masses
mu_1 < ... < mu_N.  Smoothness of its coordinate-space image to order M
requires the moment conditions

    A(2n):  sum_l (-1)^l d_l mu_l^(2n) = 0,            n = 0..M+2
    B(2n):  sum_{l>=1} (-1)^l d_l mu_l^(2n) ln(mu_l^2/mu_0^2) = 0,
                                                        n = 2..M+2

(B(2) is absent because the 1/y coefficient of the large-argument
expansion of F vanishes).  The zero-momentum renormalization condition is
the additional row B(0).  The system matrix is Vandermonde-like and
catastrophically ill-conditioned for well-separated masses, so it is
solved in arbitrary precision and only the solution is rounded to double.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np

__all__ = [
    "PVScheme",
    "series_coeffs",
    "series_coeffs_fractions",
    "geometric_masses",
    "solve_pv",
    "asymptotic_d",
    "moment_integral_exact",
    "moment_sums",
]

DEFAULT_PRECISION_BITS = 256
# largest relative row residual at which a solve is accepted
RESIDUAL_TOL = 1e-10
# |d_l| above which the scheme is reported as unreliable
COEFFICIENT_BOUND = 10.0


def series_coeffs_fractions(n_max: int) -> list[Fraction]:
    """Exact coefficients c_m of the large-y expansion F(y) ~ sum c_m / y^m.

    c_0 = 1, c_1 = 0, c_2 = -3/8, then
    c_{m+1}/c_m = m(2m-3) / (2(m^2-1)) for m >= 2.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    cs = [Fraction(1), Fraction(0), Fraction(-3, 8)]
    m = 2
    while len(cs) <= n_max:
        cs.append(cs[m] * Fraction(m * (2 * m - 3), 2 * (m * m - 1)))
        m += 1
    return cs[: n_max + 1]


def series_coeffs(n_max: int) -> np.ndarray:
    return np.array([float(c) for c in series_coeffs_fractions(n_max)])


def geometric_masses(mu0: float, ratio: float, count: int) -> list[float]:
    """Masses mu_l = mu0 * ratio^l for l = 0..count-1 (count includes mu0)."""
    if not (math.isfinite(ratio) and ratio > 1):
        raise ValueError(f"mass ratio must be finite and exceed 1, got {ratio}")
    return [mu0 * ratio ** l for l in range(count)]


def _checked_masses(masses) -> list[float]:
    """The masses as floats, if finite, positive and strictly increasing."""
    masses = [float(m) for m in masses]
    if not all(math.isfinite(m) and m > 0 for m in masses):
        raise ValueError(f"masses must be finite and positive, got {masses}")
    if any(b <= a for a, b in zip(masses, masses[1:])):
        raise ValueError("masses must be strictly increasing")
    return masses


@dataclass
class PVScheme:
    """Solved regularization scheme, as `solve_pv` builds it.

    masses holds mu_0..mu_N; d holds d_0..d_N with d_0 = 1, and d_mp the
    same coefficients as extended-precision decimal strings, kept for exact
    moment evaluation (the float d are rounded from them).
    """

    M: int
    masses: list[float]
    d: list[float]
    d_mp: list[str] = field(repr=False)
    impose_B0: bool = False
    residuals: list[float] = field(default_factory=list)
    row_labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.M < 0:
            raise ValueError("smoothness order M must be >= 0")
        ms = _checked_masses(self.masses)
        if len(self.d) != len(ms) or len(self.d_mp) != len(ms):
            raise ValueError("coefficient count must match mass count")
        if self.d[0] != 1.0:
            raise ValueError("d_0 must equal 1")


def _row_labels(M: int, impose_B0: bool) -> list[str]:
    labels = ["A(0)"]
    if impose_B0:
        labels.append("B(0)")
    labels.append("A(2)")
    for n in range(2, M + 3):
        labels.append(f"A({2 * n})")
        labels.append(f"B({2 * n})")
    return labels


def _relative_residuals(a, b, d_aux) -> list[float]:
    out = []
    for r in range(a.rows):
        terms = [a[r, c] * d_aux[c] for c in range(len(d_aux))]
        terms.append(-b[r, 0])
        scale = max(abs(t) for t in terms)
        res = abs(mp.fsum(terms)) / scale if scale > 0 else mp.mpf(0)
        out.append(float(res))
    return out


def solve_pv(M: int, masses, impose_B0: bool = False,
             precision_bits: int = DEFAULT_PRECISION_BITS,
             max_precision_bits: int = 4096) -> PVScheme:
    """Solve the moment/log-moment system for d_1..d_N.

    Needs exactly N = 2M+4 auxiliary masses (2M+5 with the renormalization
    row B(0)); the d_0 = 1 terms are moved to the right-hand side.  The
    system is solved in arbitrary precision, starting at `precision_bits`,
    and d is rounded to float only after the relative row residuals
    (computed at working precision) pass RESIDUAL_TOL; precision is doubled
    and the solve retried, up to `max_precision_bits`, when they do not.
    Warns when any |d_l| exceeds COEFFICIENT_BOUND: the asymptotic solution
    is then unreliable and the mass spacing is of the pathological kind
    whose coefficients grow without bound.
    """
    masses = _checked_masses(masses)
    n_aux = len(masses) - 1
    n_needed = 2 * M + 5 if impose_B0 else 2 * M + 4
    if n_aux != n_needed:
        raise ValueError(
            f"M={M}, impose_B0={impose_B0} needs {n_needed} auxiliary masses, got {n_aux}"
        )
    labels = _row_labels(M, impose_B0)
    mu = [mp.mpf(m) for m in masses]
    mu0 = mu[0]
    a = mp.matrix(len(labels), n_aux)
    b = mp.matrix(len(labels), 1)
    for r, lab in enumerate(labels):
        kind = lab[0]
        n = int(lab[2:-1]) // 2
        for l in range(1, n_aux + 1):
            term = ((-1) ** l) * mu[l] ** (2 * n)
            if kind == "B":
                term *= 2 * mp.log(mu[l] / mu0)
            a[r, l - 1] = term
        # d_0 term: (+1) * mu0^(2n) for A rows, absent from B rows
        b[r, 0] = -(mu0 ** (2 * n)) if kind == "A" else mp.mpf(0)

    bits = precision_bits
    while True:
        with mp.workprec(bits):
            try:
                d_aux = mp.lu_solve(a, b)
                residuals = _relative_residuals(a, b, d_aux)
            except ZeroDivisionError:
                d_aux, residuals = None, [np.inf]
        if d_aux is not None and max(residuals) <= RESIDUAL_TOL:
            break
        if bits >= max_precision_bits:
            if d_aux is None:
                raise ValueError("singular regularization system")
            raise ValueError(
                f"row residuals {max(residuals):.3e} exceed {RESIDUAL_TOL:.1e} "
                f"at {bits}-bit precision"
            )
        bits *= 2
    with mp.workprec(bits):
        d_strings = ["1"] + [mp.nstr(x, int(bits * 0.3) + 5) for x in d_aux]
    d = [1.0] + [float(x) for x in d_aux]
    if max(abs(x) for x in d[1:]) > COEFFICIENT_BOUND:
        warnings.warn(
            "unbounded coefficients: |d_l| exceeds "
            f"{COEFFICIENT_BOUND}; mass spacing gives an unreliable scheme",
            stacklevel=2,
        )
    return PVScheme(M=M, masses=masses, d=d, d_mp=d_strings, impose_B0=impose_B0,
                    residuals=residuals, row_labels=labels)


def asymptotic_d(masses) -> tuple[float, float]:
    """Leading large-separation solution: d_2 = ln(mu1/mu0)/ln(mu2/mu1),
    d_1 = 1 + d_2, all higher coefficients small."""
    mu0, mu1, mu2 = masses[0], masses[1], masses[2]
    d2 = np.log(mu1 / mu0) / np.log(mu2 / mu1)
    return 1.0 + d2, d2


def moment_integral_exact(scheme: PVScheme, cutoff_sq: float):
    """Exact n = 0 moment integral via the closed-form antiderivative of F.

    integral_{4mu0^2}^{cutoff} K_reg = (1/6pi) sum_l (-1)^l d_l 4mu_l^2 G_l
    with G_l = (y-1)sqrt(1-1/y) at y = cutoff/(4mu_l^2).  Evaluated in
    mpmath with the extended-precision coefficients, at the digits they
    carry plus a guard, so the cancellation between the signed terms
    carries no floating-point noise and the decay of the remainder with
    the cutoff is visible to arbitrary depth.
    """
    with mp.workdps(max(len(d) for d in scheme.d_mp) + 20):
        cut = mp.mpf(cutoff_sq)
        total = mp.mpf(0)
        for l, (d_str, mass) in enumerate(zip(scheme.d_mp, scheme.masses)):
            thr = 4 * mp.mpf(mass) ** 2
            y = cut / thr
            if y <= 1:
                continue
            g = (y - 1) * mp.sqrt(1 - 1 / y)
            total += (-1) ** l * mp.mpf(d_str) * thr * g
        return float(total / (6 * mp.pi))


def moment_sums(scheme: PVScheme, k_max: int) -> list[float]:
    """Scaled moment sums S_k / (4 mu_N^2)^k for k = 0..k_max.

    S_k = sum_l (-1)^l d_l (4 mu_l^2)^k, summed in mpmath from d_mp at the
    digits it carries plus a guard, so a sum that the scheme cancels comes
    out at its true size, not at float rounding; scaling by the top
    threshold keeps every float finite however far apart the masses are.
    """
    with mp.workdps(max(len(d) for d in scheme.d_mp) + 20):
        top = 4 * mp.mpf(scheme.masses[-1]) ** 2
        ratios = [4 * mp.mpf(m) ** 2 / top for m in scheme.masses]
        d = [(-1) ** l * mp.mpf(s) for l, s in enumerate(scheme.d_mp)]
        return [float(mp.fsum(c * q ** k for c, q in zip(d, ratios)))
                for k in range(k_max + 1)]
