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
    "check_moments",
    "moment_integral_exact",
    "moment_sums",
    "MomentCheck",
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
    if ratio <= 1:
        raise ValueError("mass ratio must exceed 1")
    return [mu0 * ratio ** l for l in range(count)]


@dataclass
class PVScheme:
    """Solved regularization scheme, built by `solve_pv` or `unregularized`.

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
        ms = list(self.masses)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("masses must be strictly increasing")
        if len(self.d) != len(ms) or len(self.d_mp) != len(ms):
            raise ValueError("coefficient count must match mass count")
        if self.d[0] != 1.0:
            raise ValueError("d_0 must equal 1")

    @classmethod
    def unregularized(cls, mu0: float) -> "PVScheme":
        """Single-mass scheme (no auxiliary masses, d = [1])."""
        return cls(M=0, masses=[mu0], d=[1.0], d_mp=["1"])


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
    masses = [float(m) for m in masses]
    if len(set(masses)) != len(masses):
        raise ValueError("degenerate masses are not allowed")
    if any(b <= a for a, b in zip(masses, masses[1:])):
        raise ValueError("masses must be strictly increasing")
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


@dataclass
class MomentCheck:
    n: int
    cutoff_sq: float
    integral: float
    tail: float
    tail_valid: bool
    reference: float
    integration_warnings: int = 0

    @property
    def residual(self) -> float:
        return self.integral + self.tail

    @property
    def relative_residual(self) -> float:
        return abs(self.residual) / self.reference if self.reference else np.inf


def _f_antiderivative(y):
    """Closed form: integral of F from 1 to y equals (y-1) sqrt(1 - 1/y)."""
    y = np.asarray(y, dtype=float)
    out = np.where(y > 1.0, (y - 1.0) * np.sqrt(np.maximum(1.0 - 1.0 / np.maximum(y, 1.0), 0.0)), 0.0)
    return out if out.ndim else float(out)


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


def check_moments(scheme: PVScheme, n: int, cutoff_sq: float) -> MomentCheck:
    """Numerically test the smoothness moment integral of order n.

    Integrates mu^(2n) K_reg(mu^2) up to the cutoff (closed form for
    n = 0, band-wise quadrature between thresholds otherwise) and appends
    the analytic large-mass remainder built from the series coefficients
    and the exact moment sums of `moment_sums`, up to three orders past
    those whose truncated integrals diverge.
    Series terms whose truncated integrals diverge are dropped only when
    the corresponding mass-moment sum cancels (a solved scheme guarantees
    this for m <= M+2); otherwise the tail is marked invalid and the
    reported residual tracks the genuine growth with the cutoff.
    """
    from scipy.integrate import quad

    from .diracsea import _counted_integration_warnings, _k_reg_scalar

    mu_top_sq = 4.0 * scheme.masses[-1] ** 2
    if cutoff_sq <= mu_top_sq:
        raise ValueError("cutoff must exceed the largest mass threshold 4*mu_N^2")
    thresholds = 4.0 * np.array(scheme.masses) ** 2
    lo = thresholds[0]

    caught = []
    if n == 0:
        d = np.array(scheme.d)
        signs = (-1.0) ** np.arange(len(d))
        val = float(np.sum(signs * d * thresholds * _f_antiderivative(cutoff_sq / thresholds))
                    / (6.0 * np.pi))
    else:
        # band-wise quadrature in the log variable; each band is smooth
        # apart from the square-root kink at its own left edge.  The bands
        # cancel heavily, so quad's relative-tolerance warnings fire even
        # though the summed absolute accuracy is at the float noise floor;
        # they are counted in the result, not printed.
        k_reg = _k_reg_scalar(scheme)
        edges = np.concatenate([thresholds, [cutoff_sq]])
        val = 0.0
        with _counted_integration_warnings() as caught:
            for a, b in zip(edges[:-1], edges[1:]):
                piece, _ = quad(
                    lambda v: np.exp(v * (n + 1)) * k_reg(np.exp(v)),
                    np.log(a), np.log(b), limit=400, epsabs=1e-13, epsrel=1e-12,
                )
                val += piece

    # S_m / cutoff^power = s_hat_m top^(n+1) (top/cutoff)^power, with each
    # factor finite; a moment sum counts as cancelled against its largest
    # term, |d_l| (4 mu_l^2/top)^m in the same scaling
    s_hat = moment_sums(scheme, n + 4)
    top = thresholds[-1]
    d_abs = np.abs(np.array(scheme.d))
    tail = 0.0
    tail_valid = True
    for m_idx, c in enumerate(series_coeffs(n + 4)):
        if c == 0.0:
            continue
        if m_idx <= n + 1:
            # truncated integral of this term diverges with the cutoff;
            # admissible only when the moment sum cancels (a NaN never does)
            largest = float(np.max(d_abs * (thresholds / top) ** m_idx))
            if not abs(s_hat[m_idx]) <= 1e-8 * largest:
                tail_valid = False
            continue
        power = m_idx - n - 1
        tail += (c * s_hat[m_idx] * top ** (n + 1) * (top / cutoff_sq) ** power
                 / power / (6.0 * np.pi))
    tail_valid = tail_valid and math.isfinite(tail)

    # unregularized magnitude of the same moment integral (closed form at
    # n = 0, leading large-y behavior otherwise)
    if n == 0:
        ref = lo * _f_antiderivative(cutoff_sq / lo) / (6.0 * np.pi)
    else:
        ref = cutoff_sq ** (n + 1) / (n + 1) / (6.0 * np.pi)
    return MomentCheck(n=n, cutoff_sq=cutoff_sq, integral=val,
                       tail=float(tail) if tail_valid else 0.0,
                       tail_valid=tail_valid, reference=abs(ref),
                       integration_warnings=len(caught))
