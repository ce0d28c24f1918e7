"""One-loop vacuum polarization of the Dirac sea.

Everything is built on the spectral function of the vacuum current
commutator, F(y) = theta(y-1)(1 + 1/(2y)) sqrt(1 - 1/y) with
y = k^2 / (4 mu0^2), taken as given in traced analytic form.  The
observable susceptibility is the once-subtracted dispersion integral over
the (Pauli-Villars regularized) spectrum; the divergent constant R_0 is a
signed log combination that the renormalization condition sets to zero.

R_obs is evaluated from Uehling's closed form of that integral, in real
arithmetic on each side of the pair threshold and by its Taylor series at
small |k^2|.  Two quadrature routes stay as independent checks on it: the
finite-epsilon dispersion integral and the Kramers-Kronig reconstruction
of Re R_obs from Im R_obs.  4-transversality of the polarization tensors
is structural: only the scalar coefficient of
(k_nu k_nu' - k^2 g_nu nu')/(-mu_vac) is stored.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grids import _require_finite, _require_positive, heaviside
from .pvreg import (PVScheme, moment_integral_exact, moment_sums, series_coeffs,
                    series_coeffs_fractions)

__all__ = [
    "DiracSeaSpec",
    "PolarizationTensorValue",
    "F_threshold",
    "K_reg",
    "R_obs",
    "R_obs_finite_eps",
    "R0_from_scheme",
    "R0_quadrature",
    "Pi_R_reg",
    "Pi_F_reg",
    "Pi_plus",
    "pi_plus_closed_form",
    "kramers_kronig_real_part",
    "K_reg_coordinate",
]

FINE_STRUCTURE = 7.2973525693e-3


@dataclass(frozen=True)
class DiracSeaSpec:
    """Electron mass in inverse-length units and the coupling."""

    mu0: float
    alpha: float = FINE_STRUCTURE

    def __post_init__(self):
        _require_positive("mu0", self.mu0)
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class PolarizationTensorValue:
    """Polarization tensor stored via its transverse scalar coefficient.

    The full tensor is scalar_part * (k_nu k_nu' - k^2 g_nu nu')/(-mu_vac);
    contraction with k vanishes identically by construction.
    """

    k0: float
    kvec_sq: float
    scalar_part: complex


def F_threshold(y):
    """Spectral function F(y) = theta(y-1)(1 + 1/(2y)) sqrt(1 - 1/y).

    A float (including np.float64) takes a scalar path that performs the
    array path's IEEE operations in the same order, so its value is
    bit-identical without the per-call array cost; arrays, ints and bools
    take the array path.
    """
    if isinstance(y, float):
        return (1.0 + 0.5 / y) * math.sqrt((y - 1.0) / y) if y > 1.0 else 0.0
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    above = y > 1.0
    ya = y[above]
    # (y - 1) is exact near threshold, where 1 - 1/y cancels
    out[above] = (1.0 + 0.5 / ya) * np.sqrt((ya - 1.0) / ya)
    return out if out.ndim else float(out)


def K_reg(k_sq, scheme: PVScheme):
    """Regularized commutator spectrum (1/6pi) sum_l (-1)^l d_l F(k^2/4 mu_l^2)."""
    k_sq = np.asarray(k_sq, dtype=float)
    out = np.zeros_like(k_sq)
    for l, (d_l, mu_l) in enumerate(zip(scheme.d, scheme.masses)):
        out = out + ((-1) ** l) * d_l * F_threshold(k_sq / (4.0 * mu_l ** 2))
    out = out / (6.0 * np.pi)
    return out if out.ndim else float(out)


def _k_reg_scalar(scheme: PVScheme):
    """K_reg as a closure over one float k^2, for quadrature integrands.

    Performs the IEEE operations of K_reg in the same order (F_threshold's
    float path), so its values are bit-identical, without K_reg's per-call
    array cost.
    """
    terms = [(float(((-1) ** l) * d_l), float(4.0 * mu_l ** 2))
             for l, (d_l, mu_l) in enumerate(zip(scheme.d, scheme.masses))]
    norm = 6.0 * np.pi

    def k_reg(k_sq: float) -> float:
        out = 0.0
        for c, m4 in terms:
            out = out + c * F_threshold(k_sq / m4)
        return out / norm

    return k_reg


# ----- dispersion integral over the bare spectrum -------------------------
#
# g(a) = integral_1^inf F(y) / (y (y - a - i0 sgn)) dy with a = k^2/4mu0^2.
# The finite-epsilon route substitutes y = 1 + u^2, which removes the
# square-root threshold kink:
# F(1+u^2) = (1 + 1/(2(1+u^2))) * u / sqrt(1+u^2), dy = 2u du.

_QUAD_OPTS = dict(limit=300, epsabs=1e-13, epsrel=1e-12)

# Taylor coefficients B(n+2, n+2)/n = ((n+1)!)^2 / (n (2n+3)!) of R_obs in
# k^2/mu0^2 (in units of 2 alpha/pi), each one correctly rounded integer
# division; at |k^2| < mu0^2 the ratio of successive terms is below 1/4
_SERIES = [math.factorial(n + 1) ** 2 / (n * math.factorial(2 * n + 3))
           for n in range(1, 41)]


def _tail(a: float, big_y: float) -> float:
    """integral_Y^inf F(y)/(y(y-a)) dy via the 1/y expansion of F to order 8."""
    cs = series_coeffs(8)
    total = 0.0
    for m, c in enumerate(cs):
        if c == 0.0:
            continue
        for j in range(8 - m + 1):
            p = m + j + 1
            total += c * a ** j / (p * big_y ** p)
    return total


def R_obs(k_sq: float, spec: DiracSeaSpec, k0_sign: int = 1) -> complex:
    """Observable susceptibility (renormalized, R_0 subtracted).

    R_obs(k) = (alpha k^2 / 3 pi) * integral_{4mu0^2}^inf
               dmu^2 F(mu^2/4mu0^2) / [mu^2 (mu^2 - k^2 - i0+ sign k0)]
             = (alpha/3pi) [5/3 + z - (1 + z/2) beta ln((beta+1)/(beta-1))]

    with z = 4mu0^2/k^2 and beta = sqrt(1 - z) (Uehling).  Real for
    k^2 <= 4 mu0^2; above threshold the imaginary part is
    sign(k0) * (alpha/3) F(k^2/4mu0^2).  At |k^2| < mu0^2, where the closed
    form cancels, the series (2 alpha/pi) sum_n (k^2/mu0^2)^n B(n+2,n+2)/n
    is summed instead.
    """
    _require_finite("k_sq", k_sq)
    k_sq = float(k_sq)  # exact: np.float64 input runs on Python floats
    x = k_sq / spec.mu0 ** 2
    if abs(x) < 1.0:
        total = 0.0
        for c in reversed(_SERIES):
            total = x * (total + c)
        return complex(2.0 * spec.alpha / np.pi * total)
    s0 = 4.0 * spec.mu0 ** 2
    z = s0 / k_sq
    im = 0.0
    if 0.0 < k_sq <= s0:
        # beta = i b: beta ln((beta+1)/(beta-1)) = 2 b arctan(1/b)
        b = math.sqrt((s0 - k_sq) / k_sq)
        beta_log = 2.0 * b * math.atan2(1.0, b)
    else:
        # |(beta+1)/(beta-1)| = (1+beta)^2/|z|; the i pi of the log above
        # threshold is the imaginary part, set from F directly
        beta = math.sqrt((k_sq - s0) / k_sq)
        beta_log = beta * (2.0 * math.log1p(beta) - math.log(abs(z)))
        if k_sq > s0:
            sign = (k0_sign > 0) - (k0_sign < 0)
            im = sign * (spec.alpha / 3.0) * F_threshold(k_sq / s0)
    re = (spec.alpha / (3.0 * np.pi)) * (5.0 / 3.0 + z - (1.0 + 0.5 * z) * beta_log)
    return complex(re, im)


def R_obs_finite_eps(k_sq: float, spec: DiracSeaSpec, eps: float,
                     k0_sign: int = 1) -> complex:
    """Finite-epsilon cross-check route (eps in mass^2 units)."""
    from scipy.integrate import quad

    _require_positive("eps", eps)
    _require_finite("k_sq", k_sq)
    a = k_sq / (4.0 * spec.mu0 ** 2)
    ea = eps * np.sign(k0_sign) / (4.0 * spec.mu0 ** 2)
    big_y = max(1e6, 1e3 * (1.0 + abs(a)))
    u_top = np.sqrt(big_y - 1.0)

    def integrand(u, part):
        y = 1.0 + u * u
        f = (1.0 + 0.5 / y) * u / math.sqrt(y)
        val = 2.0 * u * f / (y * (y - a - 1j * ea))
        return val.real if part == 0 else val.imag

    pts = None
    if a > 1:
        # graded breakpoints resolve the Lorentzian of width ~eps/(2 u0)
        u0 = np.sqrt(a - 1.0)
        du = abs(ea) / (2.0 * max(u0, 1e-6))
        offsets = du * np.array([-1e4, -1e3, -1e2, -10, -1, 0, 1, 10, 1e2, 1e3, 1e4])
        pts = sorted({float(np.clip(u0 + o, 0.0, u_top)) for o in offsets})
    re, _ = quad(integrand, 0.0, u_top, args=(0,), points=pts, **_QUAD_OPTS)
    im, _ = quad(integrand, 0.0, u_top, args=(1,), points=pts, **_QUAD_OPTS)
    g = complex(re + _tail(a, big_y), im)
    return (spec.alpha / (3.0 * np.pi)) * a * g


def R0_from_scheme(scheme: PVScheme, spec: DiracSeaSpec) -> float:
    """Divergent constant -(alpha/3pi) sum_{l>=1} (-1)^l d_l ln(mu_l^2/mu_0^2)."""
    mu0 = scheme.masses[0]
    total = 0.0
    for l in range(1, len(scheme.masses)):
        total += ((-1) ** l) * scheme.d[l] * np.log(scheme.masses[l] ** 2 / mu0 ** 2)
    return -(spec.alpha / (3.0 * np.pi)) * total


def R0_quadrature(scheme: PVScheme, spec: DiracSeaSpec) -> float:
    """Direct quadrature of R_0 = 2 alpha integral dmu^2 K_reg(mu^2)/mu^2.

    Convergent only because the n = 0 moment condition cancels the
    constants of the individual log-divergent terms; integrated in the
    log variable up to 1e10 times the lowest threshold, with breakpoints at
    each mass threshold.
    """
    from scipy.integrate import quad

    k_reg = _k_reg_scalar(scheme)
    lo = 4.0 * scheme.masses[0] ** 2
    hi = lo * 1e10

    def integrand(v):
        # a Python float keeps k_reg's arithmetic out of numpy scalars
        return k_reg(float(np.exp(v)))

    points = sorted(np.log(4.0 * np.array(scheme.masses) ** 2))
    val, _ = quad(integrand, np.log(lo), np.log(hi), points=points,
                  limit=400, epsabs=1e-14, epsrel=1e-12)
    return 2.0 * spec.alpha * val


def Pi_R_reg(k0: float, kvec_sq: float, spec: DiracSeaSpec,
             scheme: PVScheme | None = None, renormalized: bool = True) -> PolarizationTensorValue:
    """Retarded polarization scalar: R_0 + R_obs(k) with the sign-k0 shift."""
    k_sq = k0 ** 2 - kvec_sq
    r0 = 0.0 if renormalized else R0_from_scheme(_require(scheme), spec)
    val = r0 + R_obs(k_sq, spec, k0_sign=-1 if k0 < 0 else 1)
    return PolarizationTensorValue(k0=k0, kvec_sq=kvec_sq, scalar_part=val)


def Pi_F_reg(k0: float, kvec_sq: float, spec: DiracSeaSpec,
             scheme: PVScheme | None = None, renormalized: bool = True) -> PolarizationTensorValue:
    """Feynman polarization: theta(k0) Pi_R(k) + theta(-k0) Pi_R(-k).

    Equivalent to the fixed +i0+ prescription regardless of sign k0.
    """
    k_sq = k0 ** 2 - kvec_sq
    r0 = 0.0 if renormalized else R0_from_scheme(_require(scheme), spec)
    val = r0 + R_obs(k_sq, spec, k0_sign=1)
    return PolarizationTensorValue(k0=k0, kvec_sq=kvec_sq, scalar_part=val)


def Pi_plus(k0: float, kvec_sq: float, spec: DiracSeaSpec,
            scheme: PVScheme | None = None, renormalized: bool = True) -> PolarizationTensorValue:
    """Frequency-positive polarization 2i theta(k0) Im Pi_R(k).

    Independent of R_0 exactly (R_0 is real), and equal to the closed form
    built from the spectral function alone.
    """
    pi_r = Pi_R_reg(k0, kvec_sq, spec, scheme, renormalized)
    val = 2j * heaviside(k0) * pi_r.scalar_part.imag
    return PolarizationTensorValue(k0=k0, kvec_sq=kvec_sq, scalar_part=val)


def pi_plus_closed_form(k0: float, kvec_sq: float, spec: DiracSeaSpec) -> complex:
    """(2i alpha / 3) theta(k0) theta(k^2 - 4 mu0^2) F(k^2 / 4 mu0^2)."""
    k_sq = k0 ** 2 - kvec_sq
    return 2j * spec.alpha / 3.0 * heaviside(k0) * F_threshold(k_sq / (4.0 * spec.mu0 ** 2))


def _require(scheme: PVScheme | None) -> PVScheme:
    if scheme is None:
        raise ValueError("an unrenormalized evaluation needs a solved PV scheme")
    return scheme


def kramers_kronig_real_part(k_sq: float, spec: DiracSeaSpec) -> float:
    """Re R_obs rebuilt from Im R_obs by a once-subtracted dispersion
    quadrature directly in the mass^2 variable (independent route: log
    substitution for the regular pieces, Cauchy-weighted quadrature around
    the pole, no threshold substitution).

    Trusted outside the band 4 - 2e-6 < k^2 < 4 (in mu0^2) just below the
    pair threshold.  Against 40-digit Uehling values the relative error is
    below 1.3e-13 for k^2 from -100 up to 4 - 2e-6 and from 4 + 1e-6 up to
    1e4, and 6e-13 at 4 + 1e-9.  Inside the band the pole sits next to the
    square-root kink of the integrand: 8.8e-4 at 4 - 1e-6, 2.8e-4 at
    4 - 1e-7, and 2.8e-5 at 4 - 1e-9 with no IntegrationWarning.
    """
    from scipy.integrate import quad

    _require_finite("k_sq", k_sq)
    s0 = 4.0 * spec.mu0 ** 2

    def im_r(s):
        return (spec.alpha / 3.0) * F_threshold(s / s0)

    big = max(1e8 * s0, 1e4 * abs(k_sq))

    def log_piece(a, b):
        # integral_a^b im_r(s) / (s (s - k_sq)) ds in the variable v = ln s
        if b <= a:
            return 0.0
        def integrand(v):
            s = np.exp(v)
            return im_r(s) / (s - k_sq)
        val, _ = quad(integrand, np.log(a), np.log(b), limit=400,
                      epsabs=1e-14, epsrel=1e-11)
        return val

    if k_sq <= s0:
        val = log_piece(s0, big)
    else:
        def phi(s):
            return im_r(s) / s
        lo = max(s0, 0.5 * k_sq)
        hi = 2.0 * k_sq
        pv, _ = quad(phi, lo, hi, weight="cauchy", wvar=k_sq,
                     limit=300, epsabs=1e-13, epsrel=1e-11)
        val = pv + log_piece(s0, lo) + log_piece(hi, big)
    # analytic remainder of the constant-F tail beyond the numeric window
    val += (spec.alpha / 3.0) * (1.0 / big + k_sq / (2.0 * big ** 2))
    return (k_sq / np.pi) * val


# K_reg_coordinate's panel sum: the Gauss-Legendre order, and the lower
# order whose difference from it is reported as abserr
GAUSS_ORDER = 24
GAUSS_ORDER_CHECK = 12
# above SERIES_START * 2 mu_N the integrand is summed from its 1/mu^2
# series; there (2 mu_N/mu)^2 <= 1/9, so SERIES_TERMS terms leave a
# truncation below 1e-17 of the leading one
SERIES_START = 3.0
SERIES_TERMS = 20
# the cutoff mu_c^2 of the integral, in units of the top threshold 4 mu_N^2
CUTOFF_RATIO = 400.0
# panels evaluated per vectorised step, which bounds the node temporaries
PANEL_CHUNK = 256
# half Bessel periods up to the cutoff beyond which a call raises; a call
# just below it takes about 5 s (one core of a 2-core machine)
MAX_PANELS = 1_000_000


def K_reg_coordinate(x_sq: float, sign_t: int, scheme: PVScheme,
                     with_cone_coefficient: bool = True) -> dict:
    """Coordinate-space regularized commutator spectrum near the light cone.

    Returns the smooth amplitude A(x^2) multiplying i*eps(t) theta(x^2)
    in K_reg(x),

        A = sign_t / (8 pi^2 r) integral_{2 mu_0}^{mu_c} 2 mu^2 K_reg(mu^2) J1(mu r) dmu

    with r = sqrt(x^2) and mu_c^2 = CUTOFF_RATIO * 4 mu_N^2,
    plus (optionally) the coefficient of the light-cone delta term,
    -(1/4 pi^2) integral K_reg, which is the n = 0 moment in closed form
    (`pvreg.moment_integral_exact`) and cancels for a solved scheme.
    Spacelike points give zero.  The smooth part is continuous across the
    cone; its slope in x^2 stays bounded for schemes with M >= 1 (at M = 0
    the uncancelled log moment makes the slope grow like ln(1/x^2)).

    The integral is one fixed-order Gauss-Legendre sum over panels no
    longer than half a Bessel period pi/r, with a break at every threshold
    2 mu_l; on the panel after each threshold mu = 2 mu_l + t^2 removes
    the square-root kink.  Above SERIES_START * 2 mu_N the integrand is
    (1/3 pi) mu^2 sum_k c_k S_k mu^(-2k) J1(mu r), with the moment sums
    S_k taken exactly from d_mp (`pvreg.moment_sums`), so the cancellation
    of the signed PV terms happens there without rounding.  The cost is
    bounded: about mu_c r / pi panels, and a call that would need more
    than MAX_PANELS raises ValueError before it computes anything.  The
    result reports the panel count as `segments` (0 for a spacelike
    point) and, as `abserr`, the difference from a GAUSS_ORDER_CHECK
    rule on the same panels, in the units of `smooth`.

    Below that point the integrand uses the float-rounded coefficients
    scheme.d, so near the cone what is left of the cancellation is partly
    their rounding.  Against a 25-digit mpmath Bessel quadrature with d_mp
    the relative error on masses 1..16 at M = 0 is at most 1.2e-8 at
    x^2 = 4e-5, 1e-5 and 2.5e-6.  On the M = 1 scheme with masses 2^l
    (l = 0..6) it is 4.3e-5 at x^2 = 2e-5, 1.6e-4 at 1e-5, 5.7e-4 at 5e-6
    and 2.1e-3 at 2.5e-6.
    """
    _require_finite("x_sq", x_sq)
    cutoff_sq = CUTOFF_RATIO * (4.0 * scheme.masses[-1] ** 2)
    if isinstance(sign_t, bool) or sign_t not in (-1, 1):
        raise ValueError(f"sign_t must be +1 or -1, got {sign_t!r}")
    smooth, panels, abserr = 0.0, 0, 0.0
    if x_sq > 0:
        value, panels, abserr = _smooth_amplitude(x_sq, scheme, cutoff_sq)
        smooth = sign_t * value
    cone = None
    if with_cone_coefficient:
        cone = -moment_integral_exact(scheme, cutoff_sq) / (4.0 * np.pi ** 2)
    return {"smooth": smooth, "cone_delta_coefficient": cone,
            "segments": panels, "abserr": abserr}


def _smooth_amplitude(x_sq: float, scheme: PVScheme, cutoff_sq: float):
    """A(x^2) at sign_t = 1, its panel count and abserr (K_reg_coordinate)."""
    from scipy.special import j1

    r = math.sqrt(x_sq)
    mu_hi = math.sqrt(cutoff_sq)
    step = np.pi / r
    if mu_hi / step > MAX_PANELS:
        raise ValueError(
            f"x_sq = {x_sq:g} needs about {mu_hi / step:.3g} Bessel half-period "
            f"panels up to the cutoff, more than MAX_PANELS = {MAX_PANELS}")
    thresholds = [2.0 * m for m in scheme.masses]
    mu_top = thresholds[-1]
    mu_s = SERIES_START * mu_top
    series = [float(c) * s for c, s in zip(series_coeffs_fractions(SERIES_TERMS),
                                           moment_sums(scheme, SERIES_TERMS))]

    def below(mu):
        return 2.0 * mu ** 2 * K_reg(mu ** 2, scheme) * j1(mu * r)

    def above(mu):
        u = (mu_top / mu) ** 2
        total = np.zeros_like(mu)
        for c in reversed(series):
            total *= u
            total += c
        return mu ** 2 * total / (3.0 * np.pi) * j1(mu * r)

    rules = [_gauss_legendre(GAUSS_ORDER), _gauss_legendre(GAUSS_ORDER_CHECK)]
    breaks = thresholds + [mu_s, mu_hi]
    bands = [(a, n, (b - a) / n) for a, b in zip(breaks[:-1], breaks[1:])
             for n in [math.ceil((b - a) / step)]]
    # a band that starts at a threshold takes mu = a + h s^2 on its first
    # panel, which removes the square-root kink there; those panels of
    # every band, under both rules, go through one integrand call
    firsts = below(np.concatenate([a + h * t * t for a, _, h in bands if a < mu_s
                                   for t, _ in rules]))
    sums = [0.0, 0.0]
    for a, n, h in bands:
        kink = a < mu_s
        integrand = below if kink else above
        if kink:
            for j, (t, w) in enumerate(rules):
                vals, firsts = firsts[:t.size], firsts[t.size:]
                sums[j] += float(vals @ (2.0 * h * t * w))
        for first in range(int(kink), n, PANEL_CHUNK):
            left = a + h * np.arange(first, min(n, first + PANEL_CHUNK))
            for j, (t, w) in enumerate(rules):
                sums[j] += float(np.sum(integrand(left[:, None] + h * t) @ (h * w)))
    panels = sum(n for _, n, _ in bands)
    norm = 8.0 * np.pi ** 2 * r
    return sums[0] / norm, panels, abs(sums[0] - sums[1]) / norm


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [0, 1].

    Newton's method on the Legendre recurrence from the usual cosine
    guesses, which converges to rounding in a few steps; it spares
    importing numpy.polynomial (about 0.6 MB of peak resident memory in
    a `momentum` benchmark run).
    """
    x = np.cos(np.pi * (np.arange(1, order + 1) - 0.25) / (order + 0.5))
    for _ in range(10):
        p0, p1 = np.ones_like(x), x
        for k in range(2, order + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = order * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * dp * dp)
