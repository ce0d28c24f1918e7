"""Helpers shared by several test modules."""
import numpy as np

from keldrot.grids import OrderingParam, Signal, TwoPointKernel, heaviside, sign_weights
from keldrot.pvreg import PVScheme

BARE = PVScheme(M=0, masses=[1.0], d=[1.0], d_mp=["1"], impose_B0=False, residuals=[],
                row_labels=[])  # no auxiliary masses
F_PM = OrderingParam(1.0)  # F^{s+-} at s = 1 is F^{+-}


def project_pm(f, sign):
    """The frequency-sign part f^(+-) from the sign weights alone, the
    oracle for `project_s` at s = 1."""
    return Signal(f.grid, np.fft.fft(np.fft.ifft(f.values) * sign_weights(f.grid, sign)))


def zero_kernel(grid):
    return TwoPointKernel(grid, np.zeros((grid.n, grid.n)))


def circular_lags(grid):
    """Lag tau_{(i - j) mod n} of entry (i, j): a function of it is a
    circulant (stationary) kernel."""
    i = np.arange(grid.n)
    return grid.lags[(i[:, None] - i[None, :]) % grid.n]


def lag_index_theta(grid, periodic):
    """The oracle time order, theta of each entry's lag with 1/2 at lag 0:
    of the index lag i - j in linear time, of the wrapped lag on the
    circle, where the wrap lag -T/2 gets 1/2 as well."""
    if not periodic:
        dense = np.tri(grid.n, k=-1)
        np.fill_diagonal(dense, 0.5)
        return dense
    tau = circular_lags(grid)
    th = heaviside(tau)
    if grid.n % 2 == 0:
        th[tau == grid.lags[grid.n // 2]] = 0.5
    return th
