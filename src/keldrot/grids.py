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

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "OrderingParam",
    "Signal",
    "TwoPointKernel",
    "sign_weights",
    "ordering_weights",
    "project_s",
    "project_kernel_axis",
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


# The package's parameter checks: each raises a ValueError naming the
# parameter, so that bad input fails where it enters.

def _require_finite(name: str, values) -> None:
    """Raise a ValueError naming `name` and its first non-finite entry, of
    real or complex values.  A float (np.float64 too) takes a scalar path
    with the same message and without the array cost, for per-point
    callers."""
    if isinstance(values, float):
        if not math.isfinite(values):
            raise ValueError(f"{name} must be finite, got {values}")
        return
    values = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0]}")


def _require_positive(name: str, value, zero_ok: bool = False) -> None:
    """Raise a ValueError naming `name` unless the scalar `value` is finite
    and positive (non-negative when zero_ok)."""
    if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        sign = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be finite and {sign}, got {value}")


def _require_count(name: str, value, zero_ok: bool = False) -> int:
    """`value` as an int, if it is an integer (not a bool) of at least 1 (0
    when zero_ok), else a ValueError naming `name`."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < (0 if zero_ok else 1):
        sign = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {sign}, got {count}")
    return count


@dataclass(frozen=True)
class TimeGrid:
    """Uniformly sampled, periodically interpreted time grid."""

    n: int
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        _require_count("n", self.n)
        if self.n < 2:
            raise ValueError("grid needs at least two samples")
        _require_positive("grid step", self.dt)
        _require_finite("grid start", self.t0)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

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
            raise ValueError(f"signal length {self.values.shape} does not match grid "
                             f"n={self.grid.n}")

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
    """theta(x) with the value 1/2 at x = 0.

    A float (including np.float64) takes a scalar path with the array
    path's comparisons, so it returns the same value without the per-call
    array cost; arrays, ints and bools take the array path.
    """
    if isinstance(x, float):
        return 1.0 if x > 0 else (0.5 if x == 0 else 0.0)
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


def project_s(f: Signal, p: OrderingParam, sign) -> Signal:
    """s-weighted projection f^(s+-) = s_plus f^(+-) + s_minus f^(-+);
    p = OrderingParam(1.0) gives the frequency-sign part f^(+-)."""
    w = ordering_weights(f.grid, p, sign)
    return Signal(f.grid, np.fft.fft(np.fft.ifft(f.values) * w))


def _reflected(profile: np.ndarray) -> np.ndarray:
    """Time reversal of a lag profile on the circle: profile[(-k) % n]."""
    return np.concatenate((profile[:1], profile[:0:-1]))


def _toeplitz(column: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The n x n layout with entry (i, j) = column[i - j] for i >= j and
    row[j - i] for i < j (row[0] is not read), from one sliding window."""
    n = len(column)
    # padded[n - 1 + m] = column[m], padded[n - 1 - m] = row[m]
    padded = np.concatenate((row[:0:-1], column))
    windows = np.lib.stride_tricks.sliding_window_view(padded, n)  # windows[i, m] = padded[i + m]
    return np.ascontiguousarray(windows[:, ::-1])


class TwoPointKernel:
    """Real or complex kernel K(t, t') sampled on a common square grid
    (float64 or complex128, as the data is).

    A kernel is held as its n x n `values` or by its lags: a circulant
    (stationary on the circle) kernel as its `profile`, entry (i, j) being
    `profile[(i - j) % n]` (indexed like `TimeGrid.lags`), and a Toeplitz
    (time-invariant in linear time) kernel as its column and row, `lags`.
    Reading `values` lays either out by `_toeplitz` once; from then on the
    layout is the kernel (`profile` and `lags` are None), so a write through
    `values` is seen by every later read and every route.  What is kept for
    the data (by `rotation`) is in `_kept`, emptied whenever the data is
    assigned or laid out, and never pickled or copied.
    """

    def __init__(self, grid: TimeGrid, values):
        self.grid = grid
        self.values = values

    @classmethod
    def circulant(cls, grid: TimeGrid, profile) -> "TwoPointKernel":
        """The circulant kernel K(t_i, t_j) = profile[(i - j) % n]."""
        profile = _field_values(profile)
        if profile.shape != (grid.n,):
            raise ValueError(f"lag profile shape {profile.shape} does not match grid n={grid.n}")
        kernel = cls.__new__(cls)
        kernel.grid = grid
        kernel._hold(None, profile)
        return kernel

    @classmethod
    def toeplitz(cls, grid: TimeGrid, column, row) -> "TwoPointKernel":
        """The Toeplitz kernel of `_toeplitz(column, row)`, held as its lags."""
        lags = (_field_values(column), _field_values(row))
        if any(x.shape != (grid.n,) for x in lags):
            raise ValueError(f"lag shapes {[x.shape for x in lags]} do not match grid n={grid.n}")
        kernel = cls.__new__(cls)
        kernel.grid = grid
        kernel._hold(None, None, lags)
        return kernel

    def _hold(self, values: np.ndarray | None, profile: np.ndarray | None, lags=None):
        """Make (values, profile, lags) the kernel's data, dropping what was kept."""
        self._kept, self._values, self._profile, self._lags = {}, values, profile, lags

    def __getstate__(self) -> dict:
        """The state with nothing kept (a weak ref does not pickle)."""
        return {**vars(self), "_kept": {}}

    @property
    def profile(self) -> np.ndarray | None:
        """The lag profile of a circulant kernel not yet laid out, else None."""
        return self._profile

    @property
    def lags(self) -> tuple | None:
        """(column, row) of a Toeplitz kernel not yet laid out, else None."""
        return self._lags

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._hold(_toeplitz(*(self._lags or (self._profile, _reflected(self._profile)))), None)
        return self._values

    @values.setter
    def values(self, values):
        values = _field_values(values)
        n = self.grid.n
        if values.shape != (n, n):
            raise ValueError(f"kernel shape {values.shape} does not match grid n={n}")
        self._hold(values, None)

    def __repr__(self) -> str:
        form = next(f for f in ("profile", "lags", "values") if getattr(self, "_" + f) is not None)
        return f"TwoPointKernel({self.grid!r}, {form}={getattr(self, form)!r})"


def _apply_weights_along(values: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    c = np.fft.ifft(values, axis=axis)
    shape = [1, 1]
    shape[axis] = len(w)
    return np.fft.fft(c * w.reshape(shape), axis=axis)


def project_kernel_axis(K: TwoPointKernel, axis: int, sign, p: OrderingParam) -> TwoPointKernel:
    """Apply F^(s+-) along one time argument; p = OrderingParam(1.0) gives F^(+-).

    axis 0 is the first argument t, axis 1 the second argument t'.
    """
    if axis not in (0, 1):
        raise ValueError("axis must be 0 (t) or 1 (t')")
    w = ordering_weights(K.grid, p, sign)
    return TwoPointKernel(K.grid, _apply_weights_along(K.values, w, axis))


def overlap(f: Signal, g: Signal) -> complex:
    """Unconjugated pairing fg = integral of f(t) g(t) dt."""
    _check_same_grid(f.grid, g.grid)
    return complex(f.grid.dt * np.sum(f.values * g.values))


def pair_form(f: Signal, K: TwoPointKernel, g: Signal) -> complex:
    """Bilinear form fKg = double integral f(t) K(t,t') g(t') dt dt'.

    A circulant K not laid out takes Kg as one circular convolution of its
    lag profile with g, by FFT (a real one for real data), so the profile
    is never laid out."""
    _check_same_grid(f.grid, K.grid)
    _check_same_grid(K.grid, g.grid)
    p, v = K.profile, g.values
    if p is None:
        return complex(f.grid.dt ** 2 * (f.values @ K.values @ v))
    if np.iscomplexobj(p) or np.iscomplexobj(v):
        kg = np.fft.ifft(np.fft.fft(p) * np.fft.fft(v))
    else:
        kg = np.fft.irfft(np.fft.rfft(p) * np.fft.rfft(v), len(v))
    return complex(f.grid.dt ** 2 * (f.values @ kg))


def theta_ordering_matrix(grid: TimeGrid) -> np.ndarray:
    """theta(t_i - t_j) with the value 1/2 at t_i = t_j, in linear time.

    This is the package's one time order: the theta split of K_F and the
    causal support of a response kernel (its acausal entries are theta == 0)
    derive from it, through `_theta_masks`.  The sampled oscillator response
    does not: it is laid out from its lags, with `heaviside`'s 1/2 at lag 0.
    On the circle the order is the lag profile `_circle_theta`, whose wrap
    lag -T/2 gets weight 1/2 as well; circulant ordering is what makes the
    stationary spectral identities exact on the grid.
    """
    later, _, tie = _theta_masks(grid.n, False)
    th = later.astype(float)
    th[tie] = 0.5
    return th


def _theta_masks(n: int, periodic: bool, profile: bool = False) -> tuple:
    """Where theta is 1, where it is 0, and where it is 1/2.  In linear time
    these are the strict lower and upper triangles and the (rows, columns)
    of the diagonal.  On the circle they are the regions of the lag profile
    `_circle_theta`: masks over the lag index for a profile (profile=True),
    else masks over its n x n layout by `_toeplitz` and the (rows, columns)
    of its 1/2 entries (the diagonal and, for even n, the wrap lag n / 2).
    A lag profile has theta regions on the circle only."""
    if periodic:
        th = _circle_theta(TimeGrid(n, 1.0))  # theta depends on the lag's sign alone
        if profile:
            return th == 1.0, th == 0.0, th == 0.5
        th = _toeplitz(th, _reflected(th))
        return th == 1.0, th == 0.0, np.nonzero(th == 0.5)
    if profile:
        raise ValueError("a lag profile has theta regions on the circle only")
    earlier = ~np.tri(n, dtype=bool)
    rows = cols = np.arange(n)
    later = ~earlier
    later[rows, cols] = False
    return later, earlier, (rows, cols)


def _circle_theta(grid: TimeGrid) -> np.ndarray:
    """theta on the circle as a lag profile, indexed like TimeGrid.lags:
    theta(tau) with 1/2 at lag 0 and, for even n, at the wrap lag -T/2.
    Entry (i, j) of the circle's time order is the profile at lag index
    (i - j) mod n."""
    prof = heaviside(grid.lags)
    if grid.n % 2 == 0:
        prof[grid.n // 2] = 0.5
    return prof
