"""Independent reference values that the benchmark checks the program against.

Every value is recomputed from the defining formulas, in mpmath where
cancellation would otherwise hide an error; none comes from the keldrot
function it checks.  The PV coefficients are the one input taken from
keldrot, in their extended-precision form.

Run as a script to regenerate the stored coordinate-space reference::

    python3 perfbench/reference.py

It rewrites ``perfbench/kreg_coordinate_reference.json`` (about 2 s).
"""
from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp
import numpy as np

ALPHA = 7.2973525693e-3
REFERENCE_FILE = Path(__file__).with_name("kreg_coordinate_reference.json")

# The two near-cone schemes of the coordinate-space tests, named by the
# masses they use; the benchmark solves them with keldrot and compares the
# result with the reference built from these same masses.
COORD_SCHEMES = {
    "m0-masses1to16": {"M": 0, "masses": [1.0, 2.0, 4.0, 8.0, 16.0], "impose_B0": False},
    "m1-ratio2": {"M": 1, "masses": [2.0 ** l for l in range(7)], "impose_B0": False},
}
COORD_POINTS = {"m0-masses1to16": [4e-5, 1e-5, 2.5e-6], "m1-ratio2": [2e-5, 1e-5]}


def uehling(k_sq: float, k0_sign: int, mu0: float = 1.0, alpha: float = ALPHA) -> complex:
    """Uehling closed form of the renormalized susceptibility R_obs.

    R = (alpha/3pi)[5/3 + z - (1 + z/2) beta ln((beta+1)/(beta-1))] with
    z = 4 mu0^2/(k^2 + i0 sgn k0) and beta = sqrt(1 - z).  Evaluated at 40
    digits with an explicit 1e-30 imaginary shift, which both picks the
    branch above threshold and removes the small-|k^2| cancellation.
    """
    if k_sq == 0.0:
        return 0j
    with mp.workdps(40):
        shift = mp.mpf(10) ** -30 * max(1.0, abs(k_sq)) * (1 if k0_sign >= 0 else -1)
        z = 4 * mp.mpf(mu0) ** 2 / (mp.mpf(k_sq) + 1j * shift)
        beta = mp.sqrt(1 - z)
        val = (mp.mpf(alpha) / (3 * mp.pi)) * (
            mp.mpf(5) / 3 + z - (1 + z / 2) * beta * mp.log((beta + 1) / (beta - 1)))
        return complex(val)


def pv_row_residuals(masses, d_mp, labels) -> list[float]:
    """Moment rows A(2n) and B(2n) re-summed from the extended-precision
    coefficients, each relative to its largest term."""
    out = []
    with mp.workdps(max(60, max(len(s) for s in d_mp) + 20)):
        mu = [mp.mpf(m) for m in masses]
        d = [mp.mpf(s) for s in d_mp]
        for lab in labels:
            n = int(lab[2:-1]) // 2
            terms = []
            for l in range(len(mu)):
                term = (-1) ** l * d[l] * mu[l] ** (2 * n)
                if lab[0] == "B":
                    if l == 0:
                        continue
                    term *= mp.log(mu[l] ** 2 / mu[0] ** 2)
                terms.append(term)
            scale = max(abs(t) for t in terms)
            out.append(float(abs(mp.fsum(terms)) / scale))
    return out


def r0_from_coefficients(masses, d_mp, alpha: float = ALPHA) -> float:
    """R_0 = -(alpha/3pi) sum_{l>=1} (-1)^l d_l ln(mu_l^2/mu_0^2) in mpmath."""
    with mp.workdps(max(60, max(len(s) for s in d_mp) + 20)):
        mu = [mp.mpf(m) for m in masses]
        total = mp.fsum((-1) ** l * mp.mpf(d_mp[l]) * mp.log(mu[l] ** 2 / mu[0] ** 2)
                        for l in range(1, len(mu)))
        return float(-(mp.mpf(alpha) / (3 * mp.pi)) * total)


def cone_coefficient(masses, d_mp, cutoff_sq: float) -> float:
    """Light-cone delta coefficient -(1/4pi^2) integral K_reg, by the closed
    antiderivative (y-1) sqrt(1-1/y) of F, summed in mpmath."""
    with mp.workdps(max(60, max(len(s) for s in d_mp) + 20)):
        total = mp.mpf(0)
        for l, mass in enumerate(masses):
            thr = 4 * mp.mpf(mass) ** 2
            y = mp.mpf(cutoff_sq) / thr
            if y > 1:
                total += (-1) ** l * mp.mpf(d_mp[l]) * thr * (y - 1) * mp.sqrt(1 - 1 / y)
        return float(-total / (6 * mp.pi) / (4 * mp.pi ** 2))


def coordinate_smooth(masses, d_mp, x_sq: float, dps: int = 25) -> float:
    """Smooth coordinate-space amplitude by mpmath Bessel quadrature.

    (1/8 pi^2 r) integral_{2 mu0}^{mu_c} 2 mu^2 K_reg(mu^2) J1(mu r) dmu,
    with the default cutoff mu_c^2 = 400 * 4 mu_N^2 of K_reg_coordinate and
    breakpoints at every threshold and every half Bessel period.
    """
    with mp.workdps(dps):
        d = [mp.mpf(s) for s in d_mp]
        mu = [mp.mpf(m) for m in masses]
        r = mp.sqrt(mp.mpf(x_sq))
        top = mp.sqrt(400 * 4 * mu[-1] ** 2)

        def f(y):
            return (1 + 1 / (2 * y)) * mp.sqrt(1 - 1 / y) if y > 1 else mp.mpf(0)

        def integrand(m):
            s = m * m
            k = mp.fsum((-1) ** l * d[l] * f(s / (4 * mu[l] ** 2))
                        for l in range(len(mu))) / (6 * mp.pi)
            return 2 * s * k * mp.besselj(1, m * r)

        start = 2 * mu[0]
        halves = int((top - start) * r / mp.pi)
        pts = {2 * m for m in mu} | {top} | {start + j * mp.pi / r for j in range(1, halves + 1)}
        pts = sorted(p for p in pts if start <= p <= top)
        return float(mp.quad(integrand, pts) / (8 * mp.pi ** 2 * r))


def load_coordinate_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def regenerate_coordinate_reference() -> dict:
    """Solve each scheme with keldrot's PV solver (the coefficients are the
    input), then evaluate the amplitude independently of diracsea."""
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from keldrot import pvreg

    out = {"command": "python3 perfbench/reference.py", "dps": 25, "schemes": {}}
    for name, cfg in COORD_SCHEMES.items():
        scheme = pvreg.solve_pv(cfg["M"], cfg["masses"], impose_B0=cfg["impose_B0"])
        points = {repr(x): coordinate_smooth(scheme.masses, scheme.d_mp, x)
                  for x in COORD_POINTS[name]}
        out["schemes"][name] = {**cfg, "smooth": points}
    return out


def noise_cov_closed(dr: np.ndarray, dt: float, std: float) -> np.ndarray:
    """Covariance of dt D_R j for white j of grid variance std^2/dt."""
    return dt * std ** 2 * (dr @ dr.T)


if __name__ == "__main__":
    data = regenerate_coordinate_reference()
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")
