"""Helpers shared by several test modules."""
import math

import numpy as np

import keldrot.oscillator as oscillator
import keldrot.rotation as rotation
from keldrot.grids import (OrderingParam, Signal, TwoPointKernel, _theta_masks, heaviside,
                           sign_weights)
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


def time_normal_vacuum_noise(pi_F, pi_W):
    """Time-normal noise of a stationary medium from its current kernels,
    Pi_N(tau) = -2 hbar c Im[F+ F- pi_F + F- F- pi_W] with hbar c = 1 and
    every projection acting on the lag variable: the stationary reduction
    of the four-projection formula, and the oracle of `rotate` at s = 1 on
    a circulant set, with pi = i K (N_1 = -Pi_N(i K_F, i K_W))."""
    g = pi_F.grid
    wp = sign_weights(g, "+")
    wm = sign_weights(g, "-")
    c_f = np.fft.ifft(pi_F.values)
    c_w = np.fft.ifft(pi_W.values)
    combined = np.fft.fft(wp * wm * c_f + wm * wm * c_w)
    return Signal(g, -2.0 * np.imag(combined))


def lag_profile(kernel):
    """A circulant kernel's lag profile in either layout: its profile, or
    column 0 of its n x n values (entry (i, 0) is the profile at lag i)."""
    return kernel.profile if kernel.profile is not None else kernel.values[:, 0]


# The triple route: the rotation computed from all three kernels of a set,
# {K_F, K_rev, K_W}, apart from the library's route from K_W alone, and
# the residuals of a triple's identities.  They are that route's oracles.

def acausal_part(values, grid, periodic=(False, True)):
    """Acausal mask (theta == 0, `grids._theta_masks`) and largest acausal
    |entry| of a response kernel in the first time representation of
    `periodic` where that part is noise (<= 1e-10 of the largest entry): by
    default linear time, then the circle.  If none, the mask is None and the
    size the smallest part.  A lag profile is tested on the circle alone."""
    noise = 1e-10 * max(np.abs(values).max(), 1e-300)
    sizes = []
    for circle in periodic if values.ndim == 2 else (True,):
        mask = _theta_masks(grid.n, circle, profile=values.ndim == 1)[1]
        size = float(np.abs(values[mask]).max(initial=0.0))
        if size <= noise:
            return mask, size
        sizes.append(size)
    return None, min(sizes)


def retarded_from_cumulants(ctl) -> TwoPointKernel:
    """D_R = Im(K_rev - K_W) / -hbar c with its acausal part zeroed, from a
    set's triple (profiles when every kernel is circulant); acausal input is
    refused."""
    k_rev, k_w = rotation._data(ctl.K_rev, ctl.K_W)
    diff = k_rev - k_w  # -i hbar c D_R
    mask, _ = acausal_part(diff, ctl.grid)
    if mask is None:
        raise rotation.ConsistencyError("response kernel is not retarded in either time representation")
    diff[mask] = 0.0
    return rotation._kernel(ctl.grid, np.imag(diff) / -ctl.hbar_c)


def triple_route(ctl, p) -> "rotation.RotatedCumulants":
    """`rotate` by the triple route: D_R as `retarded_from_cumulants`,
    N_0 = (1/2) Re(K_F + K_W), then `reorder` to p."""
    k_f, k_w = rotation._data(ctl.K_F, ctl.K_W)
    n_0 = np.add(np.real(k_f), np.real(k_w))
    n_0 *= 0.5
    image = rotation.RotatedCumulants(ctl.mean, retarded_from_cumulants(ctl),
                                      rotation._kernel(ctl.grid, n_0), OrderingParam(0.0),
                                      ctl.hbar_c)
    return rotation.reorder(image, p.s)


def triple_residuals(k_f, k_rev, k_w) -> tuple[float, float, float]:
    """The residuals of the CTL identity K_W + K_W^T - K_F - K_rev = 0, of
    K_rev = K_F* and of K_W = K_W^H, out of place on n x n arrays, each
    relative to the triple's largest |entry|."""
    scale = max(np.abs(k_f).max(), np.abs(k_w).max(), np.abs(k_rev).max(), 1e-300)
    return (float(np.abs(k_w + k_w.T - k_f - k_rev).max() / scale),
            float(np.abs(k_rev - k_f.conj()).max() / scale),
            float(np.abs(k_w - k_w.conj().T).max() / scale))


def hfft_gap(D_R, hbar_c) -> TwoPointKernel:
    """`rotation.reorder_gap_kernel` by an ihfft/hfft pair along t', the
    route the rfft/irfft pair replaced and its oracle: the half spectrum of
    Re D_R's rows (of its reflected profile for a circulant D_R) weighted by
    i (theta(w) - 1/2), transformed back and scaled by -hbar c, plus its
    transpose."""
    n = D_R.grid.n
    re = np.real(rotation._data(D_R)[0])
    half = np.fft.ihfft(re if re.ndim == 2 else rotation._transposed(re), axis=-1)
    half *= 1j * (sign_weights(D_R.grid, "+")[:n // 2 + 1] - 0.5)
    y = np.fft.hfft(half, n, axis=-1)
    y *= -hbar_c
    return rotation._kernel(D_R.grid, mask_add_transpose(y))


# The mask route of the dense rotation steps, as it was before one walk over
# mirrored tile pairs (`rotation._pairs`) replaced it: n x n theta masks from
# `grids._theta_masks` and a^T + a summed tile by tile over every tile.  It
# is the walk's oracle, to the byte.

MASK_TILE = 64  # edge of the tiles in which mask_add_transpose reads a and a^T


def mask_regions(a, periodic):
    """(later, earlier, tie) of theta (`grids._theta_masks`) on a kernel's data."""
    return _theta_masks(a.shape[0], periodic, profile=a.ndim == 1)


def mask_add_transpose(a, sign=1.0, out=None):
    """a + a^T (a - a^T for negative `sign`), summed tile by tile so that
    the transposed tile is read from cache; `out` must not overlap `a`."""
    out = np.empty_like(a) if out is None else out
    op = np.add if sign > 0 else np.subtract
    if a.ndim == 1:
        return op(a, rotation._transposed(a), out=out)
    n = a.shape[0]
    for i in range(0, n, MASK_TILE):
        for j in range(0, n, MASK_TILE):
            op(a[i:i + MASK_TILE, j:j + MASK_TILE], a[j:j + MASK_TILE, i:i + MASK_TILE].T,
               out=out[i:i + MASK_TILE, j:j + MASK_TILE])
    return out


def mask_mirror_residual(a):
    """(max |a - a^H|, max |a|), read tile by tile as in `mask_add_transpose`,
    each pair of mirrored tiles once; a^H = a^T for real a.  A NaN entry
    makes both NaN (np.max, unlike max, propagates it)."""
    if a.ndim == 1:
        return (float(np.abs(a - rotation._transposed(a).conj()).max()),
                float(np.abs(a).max()))
    worst, size = [], []
    n = a.shape[0]
    for i in range(0, n, MASK_TILE):
        for j in range(i, n, MASK_TILE):
            upper, lower = a[i:i + MASK_TILE, j:j + MASK_TILE], a[j:j + MASK_TILE, i:i + MASK_TILE]
            worst.append(np.abs(upper - lower.T.conj()).max())
            size += (np.abs(upper).max(), np.abs(lower).max())
    return float(np.max(worst)), float(np.max(size))


def mask_theta_split(k_w, periodic):
    """K_F of a Hermitian field: K_W where theta = 1, K_W^T where 0, their
    mean where 1/2 (theta on the circle when periodic)."""
    later, _, tie = mask_regions(k_w, periodic)
    k_t = rotation._transposed(k_w)
    k_f = np.where(later, k_w, k_t)
    k_f[tie] = 0.5 * (k_w[tie] + k_t[tie])
    return k_f


def mask_weyl_image(ctl):
    """Keldysh (s = 0) rotation: N_0 = (1/2) Re(K_F + K_W) and
    D_R = 2 theta Im K_W / hbar c, 0 where theta = 0, over theta masks."""
    k_w = rotation._wightman_data(ctl)
    later, _, tie = mask_regions(k_w, ctl.periodic)
    re, im = np.real(k_w), np.imag(k_w)
    total = mask_add_transpose(re)  # Re(K_F + K_W) where theta = 0
    np.multiply(re, 2.0, out=total, where=later)
    d = np.where(later, 2.0 * im, 0.0)
    k_f = 0.5 * (k_w[tie] + rotation._transposed(k_w)[tie])
    total[tie] = np.real(k_f) + re[tie]
    d[tie] = np.imag(k_f) + im[tie]
    total *= 0.5
    d /= ctl.hbar_c
    g = ctl.grid
    return rotation.RotatedCumulants(ctl.mean, rotation._kernel(g, d), rotation._kernel(g, total),
                                     OrderingParam(0.0), ctl.hbar_c)


def mask_gap(D_R, hbar_c):
    """`rotation.reorder_gap_kernel` with Z = Y + Y^T by `mask_add_transpose`."""
    n = D_R.grid.n
    re = np.real(rotation._data(D_R)[0])
    spectrum = np.fft.rfft(re if re.ndim == 2 else rotation._transposed(re), axis=-1)
    spectrum *= 1j * hbar_c * (sign_weights(D_R.grid, "+")[:n // 2 + 1] - 0.5)
    y = np.fft.irfft(spectrum, n, axis=-1)
    return rotation._kernel(D_R.grid, mask_add_transpose(y))


def mask_split_representation(asym, n_0_size, d, hbar_c):
    """`rotation._split_representation` over theta masks in both
    representations, with max |D_R| from one n x n |D_R|."""
    size = np.abs(d)
    bound = rotation._SPLIT_TOL * (n_0_size + hbar_c * size.max())
    closest = None
    for periodic in (False, True) if d.ndim == 2 else (True,):
        _, earlier, tie = mask_regions(d, periodic)
        terms = (asym, hbar_c * size.max(where=earlier, initial=0.0),
                 0.5 * hbar_c * np.abs(d[tie] + rotation._transposed(d)[tie]).max())
        if terms[0] + (terms[1] + terms[2]) <= bound:
            return periodic
        closest = min(closest or terms, terms, key=sum)
    worst = int(np.argmax(closest))
    raise rotation.ConsistencyError(
        "rotated set is not a Hermitian field's: K_F would not be the theta split of K_W; "
        f"largest term {rotation._SPLIT_TERMS[worst]} = {closest[worst]:.3e} "
        f"(tolerance {bound:.3e})")


def mask_unrotate(rot):
    """`rotation.unrotate` with N_0's asymmetry from `mask_mirror_residual`,
    the split rule over masks and K_W built from `mask_add_transpose`."""
    n_0, d = rotation._data(rotation.reorder(rot, 0.0).N_s, rot.D_R)
    asym, n_0_size = mask_mirror_residual(n_0)
    periodic = mask_split_representation(asym, n_0_size, d, rot.hbar_c)
    k_w = np.empty(d.shape, dtype=complex)
    mask_add_transpose(d, -1.0, out=k_w.imag)
    k_w.imag *= 0.5 * rot.hbar_c
    k_w.real = n_0
    hermitian = asym / max(np.abs(k_w).max(), 1e-300)
    return rotation.CumulantSet._measured(hermitian, rot.mean, rotation._kernel(rot.grid, k_w),
                                          rot.hbar_c, periodic)


def mask_rotate(ctl, s):
    """`rotation.rotate` to s on the mask route: the mask Weyl image, then
    N_s = N_0 - s hbar c Z_1 with Z_1 from `mask_gap`."""
    weyl = mask_weyl_image(ctl)
    if s == 0.0:
        return weyl
    n_0, z = rotation._data(weyl.N_s, mask_gap(weyl.D_R, 1.0))
    out = ((0.0 - s) * ctl.hbar_c) * z
    out += n_0
    return rotation.RotatedCumulants(ctl.mean, weyl.D_R, rotation._kernel(ctl.grid, out),
                                     OrderingParam(s), ctl.hbar_c)


def chunk_allocating_grams(rng, n_samples):
    """`oscillator._normal_grams` with new normal and u arrays drawn and
    allocated for every chunk, the route the reused buffers replaced and
    their oracle."""
    g2_z = np.zeros((2, 2))
    g4_z = np.zeros((3, 3))
    done = 0
    while done < n_samples:
        m = min(oscillator._MC_CHUNK, n_samples - done)
        z0, z1 = rng.standard_normal((m, 2)).T
        u = np.empty((3, m))
        np.multiply(z0, z0, out=u[0])
        np.multiply(z0, z1, out=u[1])
        np.multiply(z1, z1, out=u[2])
        s0, s01, s1 = u.sum(axis=1)
        g2_z += [[s0, s01], [s01, s1]]
        g4_z += u @ u.T
        done += m
    return g2_z, g4_z


def synthetic_outer_route(grid, rng) -> "rotation.CumulantSet":
    """`rotation.synthetic_cumulants` by n x n outer products summed one
    mode at a time, from the same draws in the same order: the oracle of
    the rank-6 factor route.  Its K_W is Hermitian only to rounding."""
    n = grid.n
    t = grid.times
    modes = rng.choice(np.arange(1, n // 2 - 1), size=3, replace=False)
    k_w = np.zeros((n, n), dtype=complex)
    for k in modes:
        om = grid.resonant_frequency(int(k))
        nbar = rng.uniform(0.0, 2.0)
        a = np.exp(-1j * om * t)
        # (nbar + 1) e^{-i w (t-t')} + nbar e^{i w (t-t')}, from e^{-i w t}
        e_diff = np.outer(a, a.conj())
        k_w += 0.5 * ((2.0 * nbar + 1.0) * e_diff.real + 1j * e_diff.imag)
        mmax = np.sqrt(nbar * (nbar + 1.0))
        m = mmax * rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
        # (1/2)(m e^{-i w (t+t')} + m* e^{i w (t+t')})
        k_w += (m * np.outer(a, a)).real
    mean_vals = np.zeros(n)
    for k in modes:
        om = grid.resonant_frequency(int(k))
        mean_vals += rng.normal() * np.cos(om * t) + rng.normal() * np.sin(om * t)
    return rotation.CumulantSet(Signal(grid, mean_vals), TwoPointKernel(grid, k_w), 1.0, False)


def per_band_smooth_amplitude(x_sq: float, scheme: PVScheme):
    """`diracsea._smooth_amplitude` with the integrand called per band and
    per rule on the first (threshold) panel, and its Horner sum building a
    new array per coefficient: the loop that the one call on every band's
    threshold panels replaced, and its oracle.  Returns (A at sign_t = 1,
    panels, abserr) at the cutoff of `K_reg_coordinate`."""
    from scipy.special import j1

    from keldrot import diracsea
    from keldrot.pvreg import moment_sums, series_coeffs_fractions

    r = math.sqrt(x_sq)
    mu_hi = math.sqrt(diracsea.CUTOFF_RATIO * (4.0 * scheme.masses[-1] ** 2))
    step = np.pi / r
    thresholds = [2.0 * m for m in scheme.masses]
    mu_top = thresholds[-1]
    mu_s = diracsea.SERIES_START * mu_top
    terms = diracsea.SERIES_TERMS
    series = [float(c) * s for c, s in zip(series_coeffs_fractions(terms),
                                           moment_sums(scheme, terms))]

    def below(mu):
        return 2.0 * mu ** 2 * diracsea.K_reg(mu ** 2, scheme) * j1(mu * r)

    def above(mu):
        u = (mu_top / mu) ** 2
        total = np.zeros_like(mu)
        for c in reversed(series):
            total = total * u + c
        return mu ** 2 * total / (3.0 * np.pi) * j1(mu * r)

    rules = [diracsea._gauss_legendre(diracsea.GAUSS_ORDER),
             diracsea._gauss_legendre(diracsea.GAUSS_ORDER_CHECK)]
    sums = [0.0, 0.0]
    panels = 0
    breaks = thresholds + [mu_s, mu_hi]
    for a, b in zip(breaks[:-1], breaks[1:]):
        n = math.ceil((b - a) / step)
        h = (b - a) / n
        kink = a < mu_s
        integrand = below if kink else above
        if kink:
            for j, (t, w) in enumerate(rules):
                sums[j] += float(integrand(a + h * t * t) @ (2.0 * h * t * w))
        for first in range(int(kink), n, diracsea.PANEL_CHUNK):
            left = a + h * np.arange(first, min(n, first + diracsea.PANEL_CHUNK))
            for j, (t, w) in enumerate(rules):
                sums[j] += float(np.sum(integrand(left[:, None] + h * t) @ (h * w)))
        panels += n
    norm = 8.0 * np.pi ** 2 * r
    return sums[0] / norm, panels, abs(sums[0] - sums[1]) / norm
