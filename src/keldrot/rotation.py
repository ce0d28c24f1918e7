"""Generalized Keldysh rotation of two-point closed-time-loop cumulants.

The closed-time-loop data for a Hermitian bosonic field is the triple of
kernels {K_F, K_rev, K_W} = {<T+ A,A>, <T- A,A>, <A,A>} plus the mean.  A
rotation with ordering parameter s trades them for the retarded response
D_R = (K_rev - K_W) / (-i hbar c), shared by every rotation and real for a
Hermitian field, and the time-s-ordered noise N_s.  The Keldysh rotation is
the Weyl (s = 0) map, N_0 = (1/2) Re(K_F + K_W); every other ordering
differs from it only by a gap, N_s = N_0 - s Z with Z = i hbar c (C + C^T),
C = F^-_t' D_R - D_R / 2, so s enters only in `reorder`, and Z depends on
Re D_R alone.  `unrotate` inverts the Weyl map with
K_F, K_W = N_0 + (i hbar c / 2)(D_R +- D_R^T) and K_rev = K_F*.  By
F^+ + F^- = 1 and F^{s-} = s_minus + s F^-, N_s equals the four-projection
formula 2 Re[F^{s+}_t F^{s+}_t' K_F + F^{s-}_t F^{s+}_t' K_W] exactly on the
grid for consistent inputs.  Non-Hermitian cumulants are rejected, since the
entrywise "Re" in that formula is ambiguous for them.

A set built by `CumulantSet.from_wightman` (the oscillator's
`ctl_cumulants`, `synthetic_cumulants`) or returned by `unrotate` is stored
as (mean, K_W, hbar c, time representation): K_F is the theta split of K_W
and K_rev = K_F*, both derived only where they are read.  K_W is checked to
be Hermitian once, where the set is made; the CTL and reversal identities
then hold by construction, and the Weyl image takes element-wise real passes
over K_W: N_0 = Re K_W and D_R = 2 theta Im K_W / hbar c (the Kubo
commutator), formed in the triple route's operation order so that both
routes give the same bits.  A triple passed explicitly (as
`cumulants_from_json` reads one) is validated in full and rotated from its
three kernels, as is the output of `unrotate` when its K_F would not be the
theta split of its K_W: a complex or acausal D_R, D_R + D_R^T non-zero where
theta = 1/2, or a complex or non-symmetric N_0.

A stationary set on the circle has circulant kernels, held by their lag
profiles (`TwoPointKernel.circulant`; `ctl_cumulants` builds them at a
resonant frequency).  Every step here takes a kernel's data in either
layout, an n x n array or a 1-D profile: the element-wise passes are the
same, a^T of a profile is the reflected profile, the theta regions are
masks over the lag index from `grids._circle_theta`, and the gap is one
FFT pair of length n.  So the Hermitian check, the derived K_F and K_rev,
`validate`, the Weyl image, `reorder`, `reorder_gap_kernel` and `unrotate`
keep a set of profiles as profiles, in O(n log n), and never lay it out;
a step given a mix of profiles and dense kernels lays the profiles out.

`lambda2_identity_check(ctl, rot, ...)` evaluates the defining identity:
Lambda_2[eta_+, eta_-] of a set (`lambda2_form`) under the substitution
(`rotation_substitution`) against the rotated form (`rotated_lambda2_form`)
of an image of it, `rotate(ctl, p)` or a closed form such as
`oscillator.rotated_cumulants`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    OrderingParam,
    Signal,
    TimeGrid,
    TwoPointKernel,
    _theta_masks,
    pair_form,
    overlap,
    project_s,
    sign_weights,
)

__all__ = [
    "CumulantSet",
    "RotatedCumulants",
    "ConsistencyError",
    "rotate",
    "unrotate",
    "reorder",
    "reorder_gap_kernel",
    "rotation_substitution",
    "lambda2_form",
    "rotated_lambda2_form",
    "lambda2_identity_check",
    "synthetic_cumulants",
]


class ConsistencyError(ValueError):
    """Raised when a cumulant set violates the closed-time-loop identity."""


_CONSISTENCY_TOL = 1e-8  # relative residual that `rotate` and `from_wightman` accept
_SPLIT_TOL = 1e-10  # relative deviation of unrotate's K_F from the theta split of its K_W


def _check_hbar_c(hbar_c: float):
    if not (np.isfinite(hbar_c) and hbar_c > 0):
        raise ValueError(f"hbar_c must be finite and positive, got {hbar_c}")


def _check_grids(grid: TimeGrid, kernels: dict):
    for name, K in kernels.items():
        if K is not None and K.grid != grid:
            raise ValueError(f"{name} is on {K.grid}, not on the mean's grid {grid}")


def _data(*kernels: TwoPointKernel) -> list[np.ndarray]:
    """The kernels' lag profiles when every one is circulant, else their
    n x n values.  The helpers below take either layout: a profile is 1-D."""
    if all(k.profile is not None for k in kernels):
        return [k.profile for k in kernels]
    return [k.values for k in kernels]


def _kernel(grid: TimeGrid, a: np.ndarray) -> TwoPointKernel:
    """The kernel whose data is `a`: a lag profile or an n x n layout."""
    return TwoPointKernel.circulant(grid, a) if a.ndim == 1 else TwoPointKernel(grid, a)


def _transposed(a: np.ndarray) -> np.ndarray:
    """a^T: for a lag profile the reflected profile a[(-k) % n]."""
    return a.T if a.ndim == 2 else np.concatenate((a[:1], a[:0:-1]))


def _regions(a: np.ndarray, periodic: bool) -> tuple:
    """(later, earlier, tie) of `theta_ordering_matrix` on a kernel's data."""
    return _theta_masks(a.shape[0], periodic, profile=a.ndim == 1)


_TILE = 64  # edge of the tiles in which _add_transpose reads a and a^T


def _add_transpose(a: np.ndarray, sign: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """a + a^T (a - a^T for negative `sign`), summed tile by tile so that
    the transposed tile is read from cache; `out` must not overlap `a`."""
    out = np.empty_like(a) if out is None else out
    op = np.add if sign > 0 else np.subtract
    if a.ndim == 1:
        return op(a, _transposed(a), out=out)
    n = a.shape[0]
    for i in range(0, n, _TILE):
        for j in range(0, n, _TILE):
            op(a[i:i + _TILE, j:j + _TILE], a[j:j + _TILE, i:i + _TILE].T,
               out=out[i:i + _TILE, j:j + _TILE])
    return out


def _mirror_residual(a: np.ndarray) -> tuple[float, float]:
    """(max |a - a^H|, max |a|), read tile by tile as in `_add_transpose`,
    each pair of mirrored tiles once; a^H = a^T for real a.  A NaN entry
    makes both NaN (np.max, unlike max, propagates it)."""
    if a.ndim == 1:
        return float(np.abs(a - _transposed(a).conj()).max()), float(np.abs(a).max())
    worst, size = [], []
    n = a.shape[0]
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper, lower = a[i:i + _TILE, j:j + _TILE], a[j:j + _TILE, i:i + _TILE]
            worst.append(np.abs(upper - lower.T.conj()).max())
            size += (np.abs(upper).max(), np.abs(lower).max())
    return float(np.max(worst)), float(np.max(size))


def _theta_split(k_w: np.ndarray, periodic: bool) -> np.ndarray:
    """K_F of a Hermitian field: K_W where theta = 1, K_W^T where 0, their
    mean where 1/2 (theta on the circle when periodic)."""
    later, _, tie = _regions(k_w, periodic)
    k_t = _transposed(k_w)
    k_f = np.where(later, k_w, k_t)
    k_f[tie] = 0.5 * (k_w[tie] + k_t[tie])
    return k_f


@dataclass
class CumulantSet:
    """Closed-time-loop cumulant triple plus mean for one field component.

    K_F = <T+ A,A>, K_rev = <T- A,A>, K_W = <A,A> (Wightman).  For a
    Hermitian field K_rev = K_F* entrywise and the triple satisfies
    K_W(t,t') + K_W(t',t) - K_F(t,t') - K_rev(t,t') = 0.

    Built with K_F = K_rev = None, the set is a Hermitian field's stored by
    its Wightman kernel: K_W must be Hermitian (to 1e-8 relative, else
    ConsistencyError), and reading K_F or K_rev derives the theta split of
    K_W in the time representation `periodic` (the circle when True) and
    its conjugate; `periodic` has no meaning for a triple.  A circulant K_W
    on the circle (periodic=True) gives circulant K_F and K_rev, split on
    its lag profile.  `dataclasses.replace` reads K_F and K_rev, so it
    returns a triple.
    """

    mean: Signal
    K_F: TwoPointKernel | None
    K_rev: TwoPointKernel | None
    K_W: TwoPointKernel
    hbar_c: float = 1.0
    periodic: bool = False

    _hermitian = None  # K_W's relative Hermitian residual, when stored by K_W

    def __post_init__(self):
        _check_hbar_c(self.hbar_c)
        if (self._K_F is None) != (self._K_rev is None):
            raise ValueError("K_F and K_rev are given together, or both derived from K_W")
        _check_grids(self.mean.grid, {"K_F": self._K_F, "K_rev": self._K_rev, "K_W": self.K_W})
        if self._K_F is None:
            if self._hermitian is None:
                worst, size = _mirror_residual(_data(self.K_W)[0])
                self._hermitian = worst / max(size, 1e-300)
            if not self._hermitian <= _CONSISTENCY_TOL:  # NaN fails too
                raise ConsistencyError(
                    f"K_W is not Hermitian: residual {self._hermitian:.3e} > {_CONSISTENCY_TOL:.1e}")

    @classmethod
    def from_wightman(cls, mean: Signal, k_w: np.ndarray, periodic: bool = False,
                      hbar_c: float = 1.0) -> "CumulantSet":
        """The set of a Hermitian field with Wightman kernel k_w, stored as
        (mean, K_W): K_F is the theta split by `theta_ordering_matrix` (on
        the circle when periodic), K_W where theta = 1, K_W^T where 0, their
        mean where 1/2; K_rev = K_F*."""
        return cls(mean, None, None, TwoPointKernel(mean.grid, k_w), hbar_c, periodic)

    @classmethod
    def _measured(cls, hermitian: float, mean: Signal, k_w: TwoPointKernel,
                  hbar_c: float, periodic: bool) -> "CumulantSet":
        """The set stored by k_w whose Hermitian residual `hermitian`
        (max |K_W - K_W^H| / max |K_W|) the caller has measured."""
        ctl = cls.__new__(cls)
        ctl._hermitian = hermitian
        ctl.__init__(mean, None, None, k_w, hbar_c, periodic)
        return ctl

    @property
    def grid(self) -> TimeGrid:
        return self.mean.grid

    def _scale(self, *values: np.ndarray) -> float:
        """Largest |entry| of `values`, by default of the triple's kernels
        (pass them when they are at hand: a derived K_F is built per read)."""
        values = values or _data(self.K_F, self.K_W, self.K_rev)
        return max(*(np.abs(v).max() for v in values), 1e-300)

    def consistency_residual(self, scale: float | None = None) -> float:
        """Residual of K_W + K_W^T - K_F - K_rev = 0 relative to `scale`
        (default: the largest |entry| of the triple)."""
        w, f, rev = _data(self.K_W, self.K_F, self.K_rev)
        r = _add_transpose(w, out=np.empty(w.shape, np.result_type(w, f, rev)))
        r -= f
        r -= rev
        return float(np.abs(r).max() / (scale or self._scale(f, w, rev)))

    def reversal_residual(self, scale: float | None = None) -> float:
        """Residual of the Hermitian-field relation K_rev = K_F*, relative as above."""
        f, w, rev = _data(self.K_F, self.K_W, self.K_rev)
        r = np.conjugate(f, out=np.empty(f.shape, np.result_type(f, rev)))
        np.subtract(rev, r, out=r)
        return float(np.abs(r).max() / (scale or self._scale(f, w, rev)))

    def validate(self, tol: float = _CONSISTENCY_TOL):
        if self._K_F is None:
            # K_F and K_rev derived from K_W satisfy both identities up to
            # K_W's Hermitian residual, measured where the set was made
            res, rev = self._hermitian, 0.0
        else:
            scale = self._scale()
            res, rev = self.consistency_residual(scale), self.reversal_residual(scale)
        if not res <= tol:  # NaN fails too
            raise ConsistencyError(
                f"cumulant set violates the CTL consistency identity: residual {res:.3e} > {tol:.1e}"
            )
        if not rev <= tol:
            raise ConsistencyError(
                f"K_rev != K_F* (non-Hermitian field data not supported): residual {rev:.3e}"
            )
        return self


def _derived_kernel(name: str, conj: bool) -> property:
    """Field `name` of CumulantSet: the stored kernel, or for a set stored
    by K_W alone the theta split of K_W (conjugated for K_rev)."""
    slot = "_" + name

    def get(self) -> TwoPointKernel:
        k = getattr(self, slot)
        if k is not None:
            return k
        k_f = _theta_split(_wightman_data(self), self.periodic)
        return _kernel(self.grid, k_f.conj() if conj else k_f)

    return property(get, lambda self, value: setattr(self, slot, value))


def _wightman_data(ctl: CumulantSet) -> np.ndarray:
    """K_W's data where the set's theta regions exist: its lag profile on
    the circle, else its n x n values."""
    k_w = ctl.K_W
    return k_w.profile if ctl.periodic and k_w.profile is not None else k_w.values


# after the dataclass is made, so that its __init__ assigns through them
CumulantSet.K_F = _derived_kernel("K_F", conj=False)
CumulantSet.K_rev = _derived_kernel("K_rev", conj=True)


@dataclass
class RotatedCumulants:
    """Rotated image: mean, retarded response D_R, time-s-ordered noise N_s."""

    mean: Signal
    D_R: TwoPointKernel
    N_s: TwoPointKernel
    p: OrderingParam
    hbar_c: float = 1.0

    def __post_init__(self):
        _check_hbar_c(self.hbar_c)
        _check_grids(self.mean.grid, {"D_R": self.D_R, "N_s": self.N_s})

    @property
    def grid(self) -> TimeGrid:
        return self.mean.grid


def _acausal_part(values: np.ndarray, grid: TimeGrid,
                  periodic=(False, True)) -> tuple[np.ndarray | None, float]:
    """Acausal mask (theta == 0 in `theta_ordering_matrix`) and largest
    acausal |entry| of a response kernel in the first time representation of
    `periodic` where that part is noise (<= 1e-10 of the largest entry): by
    default linear time, then the circle.  If none, the mask is None and the
    size the smallest part.  A circulant kernel retarded in linear time is
    diagonal, and so retarded on the circle too: a lag profile is tested on
    the circle alone."""
    noise = 1e-10 * max(np.abs(values).max(), 1e-300)
    sizes = []
    for circle in periodic if values.ndim == 2 else (True,):
        mask = _theta_masks(grid.n, circle, profile=values.ndim == 1)[1]
        size = float(np.abs(values[mask]).max(initial=0.0))
        if size <= noise:
            return mask, size
        sizes.append(size)
    return None, min(sizes)


def retarded_from_cumulants(ctl: CumulantSet) -> TwoPointKernel:
    """D_R(t,t') = [<T- A,A> - <A,A>] / (-i hbar c), zero where acausal.

    A physical response is retarded in one time representation, so zeroing
    its acausal part only removes rounding; acausal input is rejected.  As
    the readers do, D_R is stored real when its imaginary part is exactly
    zero, which it is for a Hermitian field (K_rev = K_F*).
    """
    k_rev, k_w = _data(ctl.K_rev, ctl.K_W)
    diff = k_rev - k_w  # -i hbar c D_R
    mask, _ = _acausal_part(diff, ctl.grid)
    if mask is None:
        raise ConsistencyError("response kernel is not retarded in either time representation")
    diff[mask] = 0.0
    d = np.imag(diff) / -ctl.hbar_c
    if np.real(diff).any():
        d = d + 1j * (np.real(diff) / ctl.hbar_c)
    return _kernel(ctl.grid, d)


def _weyl_image_of_wightman(ctl: CumulantSet) -> tuple[np.ndarray, np.ndarray]:
    """(D_R, N_0) of a set stored by K_W, in the triple route's operation
    order: where theta = 1, N_0 = (Re K_W + Re K_W) / 2 = Re K_W and
    D_R = (-Im K_W - Im K_W) / -hbar c; where theta = 0,
    N_0 = (Re K_W^T + Re K_W) / 2 and D_R = -0.0 (a zeroed entry over
    -hbar c); where theta = 1/2, the triple route's expressions on
    K_F = (K_W + K_W^T) / 2."""
    k_w = _wightman_data(ctl)
    later, earlier, tie = _regions(k_w, ctl.periodic)
    re, im = np.real(k_w), np.imag(k_w)
    n_0 = _add_transpose(re)
    n_0 *= 0.5
    np.copyto(n_0, re, where=later)
    # imag(conj(K_W) - K_W): a real K_W has no imaginary part to negate
    d = np.negative(im) if np.iscomplexobj(k_w) else np.zeros(k_w.shape)
    d -= im
    d /= -ctl.hbar_c
    np.copyto(d, -0.0, where=earlier)
    k_f = 0.5 * (k_w[tie] + _transposed(k_w)[tie])
    n_0[tie] = np.add(np.real(k_f), re[tie]) * 0.5
    diff = k_f.conj() - k_w[tie]
    d[tie] = np.imag(diff) / -ctl.hbar_c
    if np.real(diff).any():
        re_diff = np.zeros_like(d)
        re_diff[tie] = np.real(diff)
        d = d + 1j * (re_diff / ctl.hbar_c)
    return d, n_0


def _weyl_image(ctl: CumulantSet) -> RotatedCumulants:
    """Keldysh (s = 0) rotation: D_R and N_0 = (1/2) Re(K_F + K_W)."""
    if ctl._K_F is None:
        d, n_0 = _weyl_image_of_wightman(ctl)
    else:
        d = _data(retarded_from_cumulants(ctl))[0]
        k_f, k_w = _data(ctl.K_F, ctl.K_W)
        n_0 = np.add(np.real(k_f), np.real(k_w))
        n_0 *= 0.5
    g = ctl.grid
    return RotatedCumulants(ctl.mean, _kernel(g, d), _kernel(g, n_0), OrderingParam(0.0),
                            ctl.hbar_c)


def rotate(ctl: CumulantSet, p: OrderingParam, consistency_tol: float = _CONSISTENCY_TOL,
           check: bool = True) -> RotatedCumulants:
    """Rotate a consistent CTL cumulant set into (mean, D_R, N_s).

    N_s = N_0 - s Z[D_R], also for an inconsistent set passed with
    check=False, where the four-projection formula differs from it.
    """
    if check:
        ctl.validate(consistency_tol)
    return reorder(_weyl_image(ctl), p.s)


def _assemble(n_0: np.ndarray, d: np.ndarray, half: float, sign: float) -> np.ndarray:
    """N_0 + i half (D_R +- D_R^T) from real parts: with D_R = B + iA,
    N_0 - half (A +- A^T) + i half (B +- B^T)."""
    k = np.empty(d.shape, dtype=complex)
    _add_transpose(np.real(d), sign, out=k.imag)
    k.imag *= half
    k.real = np.real(n_0)
    if np.iscomplexobj(d):
        k.real -= half * _add_transpose(d.imag, sign)
    if np.iscomplexobj(n_0):
        k.imag += n_0.imag
    return k


def _split_representation(asym: float, n_0_size: float, d: np.ndarray,
                          hbar_c: float) -> bool | None:
    """The time representation (periodic or not) in which
    K_F = N_0 + (i hbar c / 2)(D_R + D_R^T) is the theta split of
    K_W = N_0 + (i hbar c / 2)(D_R - D_R^T) to _SPLIT_TOL relative to
    max |N_0| + hbar c max |D_R|, or None, for real N_0 and D_R with
    (asym, n_0_size) = `_mirror_residual(N_0)`.  They differ by
    N_0 - N_0^T, by i hbar c D_R where theta = 0 and by
    (i hbar c / 2)(D_R + D_R^T) where theta = 1/2.  A lag profile is split
    on the circle alone (see `_acausal_part`)."""
    size = np.abs(d)
    bound = _SPLIT_TOL * (n_0_size + hbar_c * size.max())
    for periodic in (False, True) if d.ndim == 2 else (True,):
        _, earlier, tie = _regions(d, periodic)
        off = (hbar_c * size.max(where=earlier, initial=0.0)
               + 0.5 * hbar_c * np.abs(d[tie] + _transposed(d)[tie]).max())
        if asym + off <= bound:
            return periodic
    return None


def unrotate(rot: RotatedCumulants) -> CumulantSet:
    """Reconstruct the CTL cumulant triple from (mean, D_R, N_s).

    With N_0 = N_s + s Z[D_R] (`reorder` to s = 0) and D_A = D_R^T:
    K_F = N_0 + (i hbar c / 2)(D_R + D_A)
    K_W = N_0 + (i hbar c / 2)(D_R - D_A)
    K_rev = K_F*
    Each is built from real parts (`_assemble`).  When K_F is the theta
    split of K_W in some time representation, the set is stored by K_W
    alone; otherwise all three are returned.  K_W is Hermitian only for a
    real D_R and N_0, and then K_W - K_W^H = N_0 - N_0^T exactly (the
    imaginary parts of mirrored entries are exact negatives), so one pass
    over N_0 gives both the split rule's asymmetry and K_W's Hermitian
    residual.
    """
    n_0, d = _data(reorder(rot, 0.0).N_s, rot.D_R)
    half = 0.5 * rot.hbar_c
    g = rot.grid
    k_w = _assemble(n_0, d, half, -1.0)
    if not (np.iscomplexobj(d) or np.iscomplexobj(n_0)):
        asym, n_0_size = _mirror_residual(n_0)
        periodic = _split_representation(asym, n_0_size, d, rot.hbar_c)
        if periodic is not None:
            hermitian = asym / max(np.abs(k_w).max(), 1e-300)
            return CumulantSet._measured(hermitian, rot.mean, _kernel(g, k_w), rot.hbar_c,
                                         periodic)
    k_f = _assemble(n_0, d, half, 1.0)
    return CumulantSet(
        mean=rot.mean,
        K_F=_kernel(g, k_f),
        K_rev=_kernel(g, k_f.conj()),
        K_W=_kernel(g, k_w),
        hbar_c=rot.hbar_c,
    )


def reorder_gap_kernel(D_R: TwoPointKernel, hbar_c: float = 1.0) -> TwoPointKernel:
    """Response-derived gap kernel Z(t,t') connecting noises at different s.

    Z = i hbar c (C + C^T) with C = F^-_t' D_R(t,t') - (1/2) D_R(t,t').  The
    noise is real at every s, so only Re Z = -hbar c (Y + Y^T) with
    Y = Im C is kept.  With D_R = B + iA, F^+ + F^- = 1 gives
    Re F^- A = A/2 for real A, so Y = Im F^-_t' B: Im D_R drops out.  For
    real B, (F^- - 1/2) B = -(1/2) sign(w) B is imaginary, so Y is B under
    the real weight i (theta(w) - 1/2): one ihfft/hfft pair along t', with
    weight i/2 on the half spectrum and 0 at w = 0 and at the Nyquist bin.

    A circulant D_R has a circulant Y, so the filter runs on row 0 of D_R
    alone, which is D_R's reflected profile.  Z is symmetric, so its profile
    is Y's row 0 plus the reflection of that row: one FFT pair of length n.
    """
    _check_hbar_c(hbar_c)
    n = D_R.grid.n
    re = np.real(_data(D_R)[0])
    half = np.fft.ihfft(re if re.ndim == 2 else _transposed(re), axis=-1)
    half *= 1j * (sign_weights(D_R.grid, "+")[:n // 2 + 1] - 0.5)
    y = np.fft.hfft(half, n, axis=-1)
    y *= -hbar_c
    return _kernel(D_R.grid, _add_transpose(y))


def reorder(rot: RotatedCumulants, s_new: float) -> RotatedCumulants:
    """Map the noise kernel to a new ordering: N_s' = N_s + (s - s') Z."""
    p_new = OrderingParam(s_new)  # validates |s_new| <= 1
    n_new = rot.N_s
    if s_new != rot.p.s:
        n_s, z = _data(rot.N_s, reorder_gap_kernel(rot.D_R, rot.hbar_c))
        z *= rot.p.s - s_new
        n_new = _kernel(rot.grid, n_s + z)
    return RotatedCumulants(rot.mean, rot.D_R, n_new, p_new, rot.hbar_c)


def rotation_substitution(eta: Signal, j_s: Signal, p: OrderingParam,
                          hbar_c: float = 1.0) -> tuple[Signal, Signal]:
    """Substitution (eta, j_s) -> (eta_+, eta_-).

    eta_+ = j_s/(hbar c) + eta^(s-),  eta_- = j_s/(hbar c) - eta^(s+).
    """
    j_scaled = j_s.values / hbar_c
    eta_sm = project_s(eta, p, "-").values
    eta_sp = project_s(eta, p, "+").values
    g = eta.grid
    return Signal(g, j_scaled + eta_sm), Signal(g, j_scaled - eta_sp)


def lambda2_form(ctl: CumulantSet, eta_p: Signal, eta_m: Signal) -> complex:
    """Closed-time-loop bilinear form Lambda_2[eta_+, eta_-].

    Lambda_2 = -i (eta_+ - eta_-) <A> + eta_- <A,A> eta_+
               - (1/2) eta_+ <T+ A,A> eta_+ - (1/2) eta_- <T- A,A> eta_-
    """
    mean_term = -1j * overlap(eta_p - eta_m, ctl.mean)
    return (
        mean_term
        + pair_form(eta_m, ctl.K_W, eta_p)
        - 0.5 * pair_form(eta_p, ctl.K_F, eta_p)
        - 0.5 * pair_form(eta_m, ctl.K_rev, eta_m)
    )


def rotated_lambda2_form(rot: RotatedCumulants, eta: Signal, j_s: Signal) -> complex:
    """Rotated form -i eta <A> - i eta D_R j_s - (1/2) eta N_s eta."""
    return (
        -1j * overlap(eta, rot.mean)
        - 1j * pair_form(eta, rot.D_R, j_s)
        - 0.5 * pair_form(eta, rot.N_s, eta)
    )


def lambda2_identity_check(ctl: CumulantSet, rot: RotatedCumulants, eta: Signal,
                           j_s: Signal) -> dict:
    """Both sides of the rotated-form identity and their residual: Lambda_2
    of `ctl` under the substitution at rot.p against the rotated form of its
    image `rot` (`rotate(ctl, rot.p)` or a closed form).

    Also reports Lambda_2[j, j] with j = j_s / hbar c, the term quadratic in
    j_s, which must cancel by the CTL consistency identity.
    """
    eta_p, eta_m = rotation_substitution(eta, j_s, rot.p, ctl.hbar_c)
    lhs = lambda2_form(ctl, eta_p, eta_m)
    rhs = rotated_lambda2_form(rot, eta, j_s)
    j = Signal(ctl.grid, j_s.values / ctl.hbar_c)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "residual": abs(lhs - rhs),
        "relative_residual": abs(lhs - rhs) / scale,
        "j_quadratic_term": lambda2_form(ctl, j, j),
    }


def synthetic_cumulants(grid: TimeGrid, rng: np.random.Generator) -> CumulantSet:
    """Random consistent Gaussian cumulant set from a three-mode free field.

    Each mode contributes a thermal (nbar < 2) squeezed Wightman kernel at a
    resonant grid frequency, with hbar c = 1; the time-ordered kernels
    follow by the theta split, so the consistency identity holds exactly by
    construction.  The exp(-i w (t+t')) squeezing parts make the kernels
    genuinely non-stationary, and the mean is a random field of the same
    modes.
    """
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
        # m e^{-i w (t+t')} + m* e^{i w (t+t')}
        k_w += (m * np.outer(a, a)).real
    mean_vals = np.zeros(n)
    for k in modes:
        om = grid.resonant_frequency(int(k))
        mean_vals += rng.normal() * np.cos(om * t) + rng.normal() * np.sin(om * t)
    return CumulantSet.from_wightman(Signal(grid, mean_vals), k_w)
