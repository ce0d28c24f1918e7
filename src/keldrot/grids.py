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
    "integrate",
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


@dataclass(frozen=True)
class TimeGrid:
    """Uniformly sampled, periodically interpreted time grid."""

    n: int
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least two samples")
        if self.dt <= 0:
            raise ValueError("grid step must be positive")

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
    def from_function(cls, grid: TimeGrid, fn) -> "Signal":
        return cls(grid, fn(grid.times))

    @classmethod
    def zero(cls, grid: TimeGrid) -> "Signal":
        return cls(grid, np.zeros(grid.n))

    def with_values(self, values) -> "Signal":
        return Signal(self.grid, values)

    def conj(self) -> "Signal":
        return Signal(self.grid, self.values.conj())

    def __add__(self, other: "Signal") -> "Signal":
        _check_same_grid(self.grid, other.grid)
        return Signal(self.grid, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        _check_same_grid(self.grid, other.grid)
        return Signal(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "Signal":
        return Signal(self.grid, self.values * scalar)

    __rmul__ = __mul__


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

    @classmethod
    def from_stationary(cls, grid: TimeGrid, lag_values) -> "TwoPointKernel":
        """Circulant kernel K(t_i, t_j) = k(tau_{(i-j) mod n}).

        `lag_values` is either an array indexed like TimeGrid.lags or a
        callable evaluated on those lags.
        """
        k = np.asarray(lag_values(grid.lags) if callable(lag_values) else lag_values)
        if k.shape != (grid.n,):
            raise ValueError("stationary profile length must equal grid.n")
        i = np.arange(grid.n)
        return cls(grid, k[(i[:, None] - i[None, :]) % grid.n])

    @classmethod
    def from_function(cls, grid: TimeGrid, fn) -> "TwoPointKernel":
        t = grid.times
        return cls(grid, fn(t[:, None], t[None, :]))

    @classmethod
    def zero(cls, grid: TimeGrid) -> "TwoPointKernel":
        return cls(grid, np.zeros((grid.n, grid.n)))

    def with_values(self, values) -> "TwoPointKernel":
        return TwoPointKernel(self.grid, values)

    def conj(self) -> "TwoPointKernel":
        return TwoPointKernel(self.grid, self.values.conj())


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


def integrate(f: Signal) -> complex:
    """Periodic quadrature dt * sum; exact for band-limited integrands."""
    return complex(f.grid.dt * f.values.sum())


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
    sampled oscillator response all derive from it.  With periodic=True the lag is wrapped to [-T/2, T/2), so the matrix is
    circulant ("later on the circle"); the wrap boundary lag -T/2 gets
    weight 1/2 as well.  Circulant ordering is what makes the stationary
    spectral identities exact on the grid.
    """
    n = grid.n
    if not periodic:
        th = np.tri(n, k=-1)
        np.fill_diagonal(th, 0.5)
        return th
    prof = heaviside(grid.lags)
    if n % 2 == 0:
        prof[n // 2] = 0.5
    i = np.arange(n)
    return prof[(i[:, None] - i[None, :]) % n]
