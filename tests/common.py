"""Helpers shared by several test modules."""
import numpy as np

from keldrot.grids import TwoPointKernel
from keldrot.pvreg import PVScheme

BARE = PVScheme(M=0, masses=[1.0], d=[1.0], d_mp=["1"])  # no auxiliary masses


def zero_kernel(grid):
    return TwoPointKernel(grid, np.zeros((grid.n, grid.n)))


def circular_lags(grid):
    """Lag tau_{(i - j) mod n} of entry (i, j): a function of it is a
    circulant (stationary) kernel."""
    i = np.arange(grid.n)
    return grid.lags[(i[:, None] - i[None, :]) % grid.n]
