"""Uniform time grids, real or complex signals and frequency-sign projections.

A grid signal decomposes as f(t_j) = sum_k c_k exp(-i w_k t_j) with w_k on
the discrete frequency grid (spacing 2*pi/(n*dt)); the exp(-i*w*t) basis is
the physics convention, so the frequency-positive part of exp(-i*w0*t) with
w0 > 0 is the signal itself.

The Heaviside weight of the projectors is taken to be 1/2 at the w = 0 bin
(and at the Nyquist bin for even n).  This symmetric split is the unique
choice for which completeness F+ + F- = 1, the conjugation rule
(F^{s+-} f)* = F^{s-+} f* and the adjoint rule
sum f^{s+-} g dt = sum f g^{s-+} dt hold exactly on the grid.  The price is
that idempotency (F+-)^2 = F+- holds exactly only for signals without power
in those two boundary bins; on them the composition leaks 1/4 of the bin
amplitude.  All algebraic identities in this package are therefore exact
for band-interior signals and quadrature-exact otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "OrderingParam",
    "Signal",
    "TwoPointKernel",
    "sign_weights",
    "ordering_weights",
    "project_pm",
    "project_s",
    "project_kernel_axis",
    "reflect",
    "overlap",
    "pair_form",
    "theta_ordering_matrix",
    "heaviside",
]


def _sign_value(sign) -> int:
    if sign in ("+", 1, +1.0):
        return +1
    if sign in ("-", -1, -1.0):
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def _require_finite(name: str, values) -> None:
    """Raise a ValueError naming `name` and its first non-finite entry."""
    values = np.asarray(values, dtype=float)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0]}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniformly sampled, periodically interpreted time grid."""

    n: int
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least two samples")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"grid step must be finite and positive, got {self.dt}")
        if not np.isfinite(self.t0):
            raise ValueError(f"grid start must be finite, got {self.t0}")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @property
    def duration(self) -> float:
        return self.n * self.dt

    @property
    def lags(self) -> np.ndarray:
        """Signed circular lags tau_j in [-T/2, T/2), index j = lag j."""
        j = np.arange(self.n)
        return ((j + self.n // 2) % self.n - self.n // 2) * self.dt

    @property
    def omega(self) -> np.ndarray:
        """Angular frequencies of the exp(-i*w*t) components, fftfreq order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, self.dt)

    @property
    def domega(self) -> float:
        return 2.0 * np.pi / (self.n * self.dt)

    def resonant_frequency(self, cycles: int) -> float:
        """Angular frequency completing `cycles` full periods on the grid."""
        return cycles * self.domega


@dataclass(frozen=True)
class OrderingParam:
    """Operator-ordering parameter s in [-1, 1].

    s = 1 is normal, s = 0 symmetric (Weyl), s = -1 antinormal ordering;
    s_plus + s_minus = 1 and s_plus - s_minus = s.
    """

    s: float

    def __post_init__(self):
        if not -1.0 <= self.s <= 1.0:
            raise ValueError(f"ordering parameter must lie in [-1, 1], got {self.s}")

    @property
    def s_plus(self) -> float:
        return 0.5 * (1.0 + self.s)

    @property
    def s_minus(self) -> float:
        return 0.5 * (1.0 - self.s)


def _field_values(values) -> np.ndarray:
    """float64 for real data, complex128 for complex data."""
    values = np.asarray(values)
    return values.astype(np.result_type(values, np.float64), copy=False)


@dataclass
class Signal:
    """Real or complex samples f(t_j) on a TimeGrid (float64 or complex128,
    as the data is)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _field_values(self.values)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"signal length {self.values.shape} does not match grid n={self.grid.n}"
            )

    @classmethod
    def zero(cls, grid: TimeGrid) -> "Signal":
        return cls(grid, np.zeros(grid.n))

    def conj(self) -> "Signal":
        return Signal(self.grid, self.values.conj())

    def __add__(self, other: "Signal") -> "Signal":
        _check_same_grid(self.grid, other.grid)
        return Signal(self.grid, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        _check_same_grid(self.grid, other.grid)
        return Signal(self.grid, self.values - other.values)


def heaviside(x):
    """theta(x) with the value 1/2 at x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, 1.0, np.where(x == 0, 0.5, 0.0))
    return out if out.ndim else float(out)


def _check_same_grid(a: TimeGrid, b: TimeGrid):
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


def sign_weights(grid: TimeGrid, sign) -> np.ndarray:
    """Heaviside weights theta(sign * w_k) with the 1/2 boundary split."""
    w = heaviside(_sign_value(sign) * grid.omega)
    if grid.n % 2 == 0:
        w[grid.n // 2] = 0.5
    return w


def ordering_weights(grid: TimeGrid, p: OrderingParam, sign) -> np.ndarray:
    sgn = _sign_value(sign)
    return p.s_plus * sign_weights(grid, sgn) + p.s_minus * sign_weights(grid, -sgn)


def project_pm(f: Signal, sign) -> Signal:
    """Frequency-positive/negative part f^(+-) of a signal."""
    w = sign_weights(f.grid, sign)
    return Signal(f.grid, np.fft.fft(np.fft.ifft(f.values) * w))


def project_s(f: Signal, p: OrderingParam, sign) -> Signal:
    """s-weighted projection f^(s+-) = s_plus f^(+-) + s_minus f^(-+)."""
    w = ordering_weights(f.grid, p, sign)
    return Signal(f.grid, np.fft.fft(np.fft.ifft(f.values) * w))


def reflect(f: Signal) -> Signal:
    """Time reversal on the circle: g(tau_j) = f(tau_{-j})."""
    return Signal(f.grid, np.roll(f.values[::-1], 1))


@dataclass
class TwoPointKernel:
    """Real or complex kernel K(t, t') sampled on a common square grid
    (float64 or complex128, as the data is)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _field_values(self.values)
        n = self.grid.n
        if self.values.shape != (n, n):
            raise ValueError(f"kernel shape {self.values.shape} does not match grid n={n}")


def _apply_weights_along(values: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    c = np.fft.ifft(values, axis=axis)
    shape = [1, 1]
    shape[axis] = len(w)
    return np.fft.fft(c * w.reshape(shape), axis=axis)


def project_kernel_axis(K: TwoPointKernel, axis: int, sign, p: OrderingParam | None = None) -> TwoPointKernel:
    """Apply F^(+-) (or F^(s+-) when p is given) along one time argument.

    axis 0 is the first argument t, axis 1 the second argument t'.
    """
    if axis not in (0, 1):
        raise ValueError("axis must be 0 (t) or 1 (t')")
    if p is None:
        w = sign_weights(K.grid, sign)
    else:
        w = ordering_weights(K.grid, p, sign)
    return TwoPointKernel(K.grid, _apply_weights_along(K.values, w, axis))


def overlap(f: Signal, g: Signal) -> complex:
    """Unconjugated pairing fg = integral of f(t) g(t) dt."""
    _check_same_grid(f.grid, g.grid)
    return complex(f.grid.dt * np.sum(f.values * g.values))


def pair_form(f: Signal, K: TwoPointKernel, g: Signal) -> complex:
    """Bilinear form fKg = double integral f(t) K(t,t') g(t') dt dt'."""
    _check_same_grid(f.grid, K.grid)
    _check_same_grid(K.grid, g.grid)
    return complex(f.grid.dt ** 2 * (f.values @ K.values @ g.values))


def theta_ordering_matrix(grid: TimeGrid, periodic: bool = False) -> np.ndarray:
    """theta(t_i - t_j) with the value 1/2 at t_i = t_j.

    This is the package's one time order: the theta split of K_F, the causal
    support of a response kernel (its acausal entries are theta == 0) and the
    sampled oscillator response all derive from it, through `_theta_masks`.
    With periodic=True the lag is wrapped to [-T/2, T/2), so the matrix is
    circulant ("later on the circle"); the wrap boundary lag -T/2 gets
    weight 1/2 as well.  Circulant ordering is what makes the stationary
    spectral identities exact on the grid.
    """
    later, _, tie = _theta_masks(grid.n, periodic)
    th = later.astype(float)
    th[tie] = 0.5
    return th


def _theta_masks(n: int, periodic: bool) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Where `theta_ordering_matrix` is 1, where it is 0, and the (rows,
    columns) where it is 1/2, built from triangles.  In linear time these are
    the strict lower and upper triangles and the diagonal.  On the circle
    theta is 0 on the band of lag index (i - j) mod n above n // 2 and 1/2
    on the diagonal and, for even n, at the wrap lag n / 2."""
    if periodic:
        earlier = np.tri(n, k=-(n // 2) - 1, dtype=bool)
        earlier |= np.tri(n, k=n - n // 2 - 1, dtype=bool) & ~np.tri(n, dtype=bool)
    else:
        earlier = ~np.tri(n, dtype=bool)
    rows = cols = np.arange(n)
    if periodic and n % 2 == 0:
        rows, cols = np.concatenate([rows, rows]), np.concatenate([cols, (cols - n // 2) % n])
    later = ~earlier
    later[rows, cols] = False
    return later, earlier, (rows, cols)


def _circle_theta(grid: TimeGrid) -> np.ndarray:
    """theta on the circle as a lag profile, indexed like TimeGrid.lags:
    column 0 of theta_ordering_matrix(grid, periodic=True), whose entry
    (i, j) is the profile at lag index (i - j) mod n."""
    prof = heaviside(grid.lags)
    if grid.n % 2 == 0:
        prof[grid.n // 2] = 0.5
    return prof
