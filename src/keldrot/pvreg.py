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
catastrophically ill-conditioned for well-separated masses.  Its rows are
assembled from integer (mantissa, exponent) pairs rounded to 53 bits and
solved in arbitrary precision by Gaussian elimination in the standard
`decimal` module, whose arithmetic runs in C; only the solution is rounded
to double.  The moment routines (`moment_integral_exact`, `moment_sums`)
sum the extended coefficients in `decimal` too, so the module needs no
arbitrary-precision library beyond the standard one.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

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
# pi to 64 digits: it enters the moment integral only as the final factor
_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592")


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


def _rounded(num: int, den: int = 1, exp: int = 0) -> tuple[int, int]:
    """num / den * 2^exp rounded to 53 significant bits, half to even, as
    the integer pair (man, e) with value man * 2^e."""
    sign, num = (-1 if num < 0 else 1), abs(num)
    shift = num.bit_length() - den.bit_length() - 54  # the quotient has 54 or 55 bits
    q, rest = divmod(num << -shift, den) if shift < 0 else divmod(num, den << shift)
    extra = q.bit_length() - 53
    q, low, half = q >> extra, q & ((1 << extra) - 1), 1 << (extra - 1)
    if low > half or (low == half and (rest or q & 1)):
        q += 1
    return sign * q, exp + shift + extra


def _exact_decimal(man: int, exp: int) -> Decimal:
    """man * 2^exp as a Decimal, exactly: man * 5^-exp * 10^exp."""
    return Decimal(man << exp) if exp >= 0 else Decimal(f"{man * 5 ** -exp}E{exp}")


def _system(M: int, masses: list[float], labels: list[str]) -> tuple[list, list]:
    """The rows a and right-hand side b of the moment system, as Decimals.

    Every step is rounded to 53 bits, half to even: the power mu_l^(2n)
    from its exact value, the ratio mu_l/mu_0, its logarithm (from
    `Decimal.ln` at 40 digits) and the product of a power with
    2 ln(mu_l/mu_0).  The rounded entries are exact in `decimal`.
    """
    # each mass as (man, exp): a float's denominator is a power of two
    mu = [(num, 1 - den.bit_length()) for num, den in (m.as_integer_ratio() for m in masses)]
    man0, exp0 = mu[0]
    # (-1)^l mu_l^(2n): A(2n) holds them for l >= 1, b the negated l = 0 term
    powers = [[_rounded((-1) ** l * man ** (2 * n), exp=2 * n * exp)
               for l, (man, exp) in enumerate(mu)] for n in range(M + 3)]
    with localcontext() as ctx:
        ctx.prec = 40
        # 2 ln(mu_l/mu_0); a B(2n) entry is the A one times it
        logs = [_rounded(*_exact_decimal(*_rounded(man, man0, exp - exp0)).ln().as_integer_ratio(),
                         exp=1) for man, exp in mu[1:]]
    a, b = [], []
    for lab in labels:
        n = int(lab[2:-1]) // 2
        row = powers[n][1:]
        if lab[0] == "B":
            row = [_rounded(p * g, exp=e_p + e_g) for (p, e_p), (g, e_g) in zip(row, logs)]
        a.append([_exact_decimal(*v) for v in row])
        p, e = powers[n][0]
        b.append(_exact_decimal(-p, e) if lab[0] == "A" else Decimal(0))
    return a, b


def _gauss_solve(a, b, bits):
    """d with a d = b, and its relative row residuals, or None if singular.

    mpmath's `lu_solve` at `bits`, carried out in `decimal`: elimination at
    the digits of bits + 10 bits, the pivot of largest |a_kj| over the row
    sum of the active block, and a row sum or pivot at or below
    ||a||_1 2^(-bits-9) counting as singular.  The residuals
    |sum_c a_rc d_c - b_r| over the largest term are summed from the exact
    rows with 20 guard digits.
    """
    digits = math.ceil((bits + 10) * math.log10(2))
    with localcontext() as ctx:
        ctx.prec = digits
        n = len(b)
        rows = [row + [rhs] for row, rhs in zip(a, b)]
        tol = max(sum(abs(row[c]) for row in a) for c in range(n)) * Decimal(2) ** (-bits - 9)
        for j in range(n):
            best, p = 0, j
            for k in range(j, n):
                s = sum(map(abs, rows[k][j:n]))
                if s <= tol:
                    return None
                cur = abs(rows[k][j]) / s
                if cur > best:
                    best, p = cur, k
            rows[j], rows[p] = rows[p], rows[j]
            pivot = rows[j]
            if abs(pivot[j]) <= tol:
                return None
            for row in rows[j + 1:]:
                f = row[j] / pivot[j]
                row[j + 1:] = [v - f * w for v, w in zip(row[j + 1:], pivot[j + 1:])]
        d = [Decimal(0)] * n
        for i in reversed(range(n)):
            row = rows[i]
            t = row[n]
            for c in range(i + 1, n):
                t -= row[c] * d[c]
            d[i] = t / row[i]
    with localcontext() as ctx:
        ctx.prec = digits + 20
        residuals = []
        for row, rhs in zip(a, b):
            terms = [v * x for v, x in zip(row, d)] + [-rhs]
            scale = max(map(abs, terms))
            residuals.append(float(abs(sum(terms)) / scale) if scale else 0.0)
    return d, residuals


def solve_pv(M: int, masses, impose_B0: bool = False,
             precision_bits: int = DEFAULT_PRECISION_BITS,
             max_precision_bits: int = 4096) -> PVScheme:
    """Solve the moment/log-moment system for d_1..d_N.

    Needs exactly N = 2M+4 auxiliary masses (2M+5 with the renormalization
    row B(0)); the d_0 = 1 terms are moved to the right-hand side.  The
    rows are assembled with every entry rounded to 53 bits (`_system`) and
    are exact as `Decimal`s; the system is solved in `decimal`
    (`_gauss_solve`), starting at `precision_bits`, and d is rounded to
    float only after the relative row residuals (summed from the exact rows
    with guard digits) pass RESIDUAL_TOL; precision is doubled and the
    solve retried, up to `max_precision_bits`, when they do not or the
    elimination finds the system singular.  d_mp holds the solution as the
    `Decimal` strings of its rounding to int(0.3 bits) + 5 significant
    digits of the final precision.
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
    a, b = _system(M, masses, labels)
    bits = precision_bits
    while True:
        d_aux, residuals = _gauss_solve(a, b, bits) or (None, [np.inf])
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
    with localcontext() as ctx:
        ctx.prec = int(bits * 0.3) + 5
        d_strings = ["1"] + [str(ctx.plus(x)) for x in d_aux]
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
    `decimal` with the extended-precision coefficients, at the digits they
    carry plus a guard, so the cancellation between the signed terms
    carries no floating-point noise and the decay of the remainder with
    the cutoff is visible to arbitrary depth.
    """
    with localcontext() as ctx:
        ctx.prec = max(len(d) for d in scheme.d_mp) + 20
        cut = Decimal(cutoff_sq)
        total = Decimal(0)
        for l, (d_str, mass) in enumerate(zip(scheme.d_mp, scheme.masses)):
            thr = 4 * Decimal(mass) ** 2
            y = cut / thr
            if y <= 1:
                continue
            g = (y - 1) * (1 - 1 / y).sqrt()
            total += (-1) ** l * Decimal(d_str) * thr * g
        return float(total / (6 * _PI))


def moment_sums(scheme: PVScheme, k_max: int) -> list[float]:
    """Scaled moment sums S_k / (4 mu_N^2)^k for k = 0..k_max.

    S_k = sum_l (-1)^l d_l (4 mu_l^2)^k, summed in `decimal` from d_mp at
    the digits it carries plus a guard, so a sum that the scheme cancels
    comes out at its true size, not at float rounding; scaling by the top
    threshold keeps every float finite however far apart the masses are.
    """
    with localcontext() as ctx:
        ctx.prec = max(len(d) for d in scheme.d_mp) + 20
        top = 4 * Decimal(scheme.masses[-1]) ** 2
        ratios = [4 * Decimal(m) ** 2 / top for m in scheme.masses]
        d = [(-1) ** l * Decimal(s) for l, s in enumerate(scheme.d_mp)]
        return [float(sum(c * q ** k for c, q in zip(d, ratios)))
                for k in range(k_max + 1)]
