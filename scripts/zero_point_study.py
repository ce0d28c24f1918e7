#!/usr/bin/env python3
"""Zero-point-fluctuation spectrum of the interacting field.

Tabulates the smooth part of the spectrum against the finite-epsilon
propagator-difference route at two epsilon values, demonstrating the
ordering dependence (2 s_minus scaling) and the fixed light-cone delta
term carried in the ledger.
"""
import argparse

import numpy as np

from keldrot.diracsea import DiracSeaSpec
from keldrot.grids import OrderingParam
from keldrot.medium import (
    SpectralDensity,
    gauge_projector_diagnosis,
    zero_point_smooth,
    zero_point_smooth_finite_eps,
    zero_point_spectrum,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu0", type=float, default=1.0)
    ap.add_argument("--s", type=float, default=0.0)
    ap.add_argument("--k2-max", type=float, default=40.0)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--diagnose-gauge", action="store_true")
    args = ap.parse_args()

    spec = DiracSeaSpec(mu0=args.mu0)
    p = OrderingParam(args.s)
    k_sq = np.linspace(4.2 * args.mu0 ** 2, args.k2_max, args.n)
    density = zero_point_spectrum(k_sq, spec).at_ordering(p)
    print(f"ordering s = {args.s}: spectrum scale factor 2 s_minus = {2.0 * p.s_minus}")
    ledger = density.delta_terms
    print("delta ledger:", ledger)
    k0 = np.sqrt(k_sq + args.mu0 ** 2)
    # the finite-epsilon propagator-difference route, at the same ordering
    routes = [SpectralDensity(k_sq, [zero_point_smooth_finite_eps(a, b, spec, eps)
                                     for a, b in zip(k0, k0 ** 2 - k_sq)], []).at_ordering(p)
              for eps in (1e-3, 1e-4)]
    print(f"{'k^2':>10s} {'smooth':>14s} {'eps=1e-3':>12s} {'eps=1e-4':>12s}")
    for row in zip(k_sq, density.smooth, routes[0].smooth, routes[1].smooth):
        print("{:10.3f} {:14.6e} {:12.4e} {:12.4e}".format(*row))

    below = zero_point_smooth(2.0 * args.mu0 ** 2, spec)
    print(f"\nbelow pair threshold (k^2 = 2 mu0^2): smooth part = {below}")
    if args.diagnose_gauge:
        report = gauge_projector_diagnosis(ledger[0][1])
        print("\ngauge diagnosis:", report["detail"])


if __name__ == "__main__":
    main()
