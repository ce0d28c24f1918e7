"""Generalized Keldysh rotations and one-loop response of the Dirac sea."""

from .grids import (
    OrderingParam,
    Signal,
    TimeGrid,
    TwoPointKernel,
    project_s,
)
from .rotation import CumulantSet, RotatedCumulants, reorder, rotate, unrotate

__version__ = "0.1.0"

__all__ = [
    "TimeGrid",
    "Signal",
    "OrderingParam",
    "TwoPointKernel",
    "project_s",
    "CumulantSet",
    "RotatedCumulants",
    "rotate",
    "unrotate",
    "reorder",
    "__version__",
]
