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

For a Hermitian field the triple carries no more than K_W: K_F is the theta
split of K_W and K_rev = K_F*.  So a `CumulantSet` is stored as (mean, K_W,
hbar c, time representation), K_W checked Hermitian once where the set is
made, and K_F and K_rev derived where they are read.  Z = hbar c Z_1, and
Z_1 is kept on the D_R kernel (`_gap_of`), which `rotate` reuses for K_W.

Every step takes a kernel's data in either layout, n x n values or the 1-D
lag profile of a circulant kernel on the circle (`ctl_cumulants` builds one
at a resonant frequency): a^T of a profile is the reflected profile, the
theta regions are masks over the lag index (`grids._circle_theta`), and the
gap is one FFT pair of length n.  So a set of profiles stays profiles, in
O(n log n); a mix of profiles and dense kernels is laid out.  In linear time
theta is two triangles, so on n x n data the steps that pair an entry with
its mirror (a^T +- a, the Hermitian residual, the theta split, the Weyl
image and `unrotate`) take one walk over mirrored tile pairs (`_pairs`),
which reads each pair once and builds no n x n mask.

`lambda2_identity_check` evaluates the defining identity: Lambda_2 of a set
(`lambda2_form`) under `rotation_substitution` against the rotated form of
an image of it, `rotate(ctl, p)` or a closed form such as
`oscillator.rotated_cumulants`.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .grids import (OrderingParam, Signal, TimeGrid, TwoPointKernel, _reflected, _require_positive,
                    _theta_masks, pair_form, overlap, project_s, sign_weights)

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


_CONSISTENCY_TOL = 1e-8  # relative residual of a set's identities, checked where it is made
_SPLIT_TOL = 1e-10  # relative deviation of unrotate's K_F from the theta split of its K_W
_SPLIT_TERMS = ("max |N_0 - N_0^T|", "hbar c max |D_R| where theta = 0",
                "(hbar c / 2) max |D_R + D_R^T| where theta = 1/2")  # that deviation's parts


def _check_grids(grid: TimeGrid, kernels: dict):
    for name, K in kernels.items():
        if K.grid != grid:
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
    """a^T: for a lag profile the reflected profile."""
    return a.T if a.ndim == 2 else _reflected(a)


_TILE = 128  # edge of the tiles of `_pairs`


def _pairs(n: int):
    """The walk over the mirrored tiles (I, J) and (J, I), I <= J, of an
    n x n array, each pair once, so that a step reads a tile's mirror from
    cache: (upper, lower, above), the tiles' index tuples (equal on the
    diagonal) and where the upper tile lies above the diagonal (theta = 0
    in linear time), all of it (True) or a diagonal tile's strict upper part."""
    above = ~np.tri(min(n, _TILE), dtype=bool)  # per walk: at import it costs every process RSS
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper = slice(i, i + _TILE), slice(j, j + _TILE)
            yield upper, upper[::-1], True if j > i else above[:n - i, :n - i]


def _add_transpose(a: np.ndarray, sign: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """a + a^T (a - a^T for negative `sign`) by the walk `_pairs`; `out`
    must not overlap `a`.  A sum's mirrored tile is its transpose; a
    difference's is a second difference, as x - x is +0.0 on both sides."""
    out = np.empty_like(a) if out is None else out
    op = np.add if sign > 0 else np.subtract
    if a.ndim == 1:
        return op(a, _transposed(a), out=out)
    for u, l, _ in _pairs(len(a)):
        op(a[u], a[l].T, out=out[u])
        if l != u:
            out[l] = out[u].T if sign > 0 else op(a[l], a[u].T)
    return out


def _mirror_residual(a: np.ndarray) -> tuple[float, float]:
    """(max |a - a^H|, max |a|) by the walk `_pairs`; a^H = a^T for real a.
    A NaN entry makes both NaN (np.max, unlike max, propagates it)."""
    if a.ndim == 1:
        return float(np.abs(a - _transposed(a).conj()).max()), float(np.abs(a).max())
    worst, size = [], []
    for u, l, _ in _pairs(len(a)):
        worst.append(np.abs(a[u] - a[l].T.conj()).max())
        size += (np.abs(a[u]).max(), np.abs(a[l]).max())
    return float(np.max(worst)), float(np.max(size))


def _theta_split(k_w: np.ndarray, periodic: bool) -> np.ndarray:
    """K_F of a Hermitian field: K_W where theta = 1, K_W^T where 0, their
    mean where 1/2 (theta on the circle when periodic); in linear time each
    lower tile's transpose is written above the diagonal by `_pairs`."""
    if k_w.ndim == 2 and not periodic:
        k_f, tie = k_w.copy(), (np.arange(len(k_w)),) * 2
        for u, l, above in _pairs(len(k_w)):
            np.copyto(k_f[u], k_w[l].T, where=above)
    else:
        later, _, tie = _theta_masks(len(k_w), periodic, profile=k_w.ndim == 1)
        k_f = np.where(later, k_w, _transposed(k_w))
    k_f[tie] = 0.5 * (k_w[tie] + _transposed(k_w)[tie])
    return k_f


@dataclass
class CumulantSet:
    """Closed-time-loop cumulants of a Hermitian field, stored as (mean,
    K_W, hbar c, time representation).

    K_W = <A,A> (Wightman) must be Hermitian, to 1e-8 relative, else
    ConsistencyError; its residual is measured once, where the set is made,
    and kept as `residual`.  K_F = <T+ A,A> is the theta split of K_W in the
    time representation `periodic` (the circle when True), K_rev = K_F*; both
    are derived on each read, so they follow a write into `K_W.values`, and
    the CTL identity K_W + K_W^T - K_F - K_rev = 0 holds by construction.
    """

    mean: Signal
    K_W: TwoPointKernel
    hbar_c: float
    periodic: bool

    residual = None  # largest relative residual of the identities, measured where the set is made

    def __post_init__(self):
        _require_positive("hbar_c", self.hbar_c)
        _check_grids(self.mean.grid, {"K_W": self.K_W})
        if self.residual is None:
            worst, size = _mirror_residual(_data(self.K_W)[0])
            self.residual = worst / max(size, 1e-300)
        if not self.residual <= _CONSISTENCY_TOL:  # NaN fails too
            raise ConsistencyError(
                f"K_W is not Hermitian: residual {self.residual:.3e} > {_CONSISTENCY_TOL:.1e}")

    @classmethod
    def _measured(cls, residual: float, mean: Signal, k_w: TwoPointKernel,
                  hbar_c: float, periodic: bool) -> "CumulantSet":
        """The set stored by k_w whose `residual` (at least K_W's Hermitian
        residual max |K_W - K_W^H| / max |K_W|) the caller has measured."""
        ctl = cls.__new__(cls)
        ctl.residual = residual
        ctl.__init__(mean, k_w, hbar_c, periodic)
        return ctl

    @classmethod
    def _from_triple(cls, mean: Signal, k_f: TwoPointKernel, k_rev: TwoPointKernel,
                     k_w: TwoPointKernel, hbar_c: float) -> "CumulantSet":
        """The set stored by k_w of an explicit triple, as a file holds one.
        Each identity of a Hermitian field must hold to 1e-8 of the largest
        |entry|, else a ConsistencyError names the first that fails: the CTL
        identity K_W + K_W^T - K_F - K_rev = 0, K_rev = K_F*, K_W Hermitian,
        and K_F the theta split of K_W in linear time or else on the circle,
        which gives `periodic` (a profile is split on the circle alone).  The
        set's `residual` is the largest of the four."""
        _check_grids(mean.grid, {"K_F": k_f, "K_rev": k_rev, "K_W": k_w})
        f, rev, w = _data(k_f, k_rev, k_w)
        scale = max(np.abs(f).max(), np.abs(w).max(), np.abs(rev).max(), 1e-300)
        r = _add_transpose(w, out=np.empty(w.shape, np.result_type(w, f, rev)))
        r -= f
        r -= rev
        res = float(np.abs(r).max() / scale)
        if not res <= _CONSISTENCY_TOL:  # NaN fails too
            raise ConsistencyError("cumulant set violates the CTL consistency identity: "
                                   f"residual {res:.3e} > {_CONSISTENCY_TOL:.1e}")
        rev_res = float(np.abs(rev - f.conj()).max() / scale)
        if not rev_res <= _CONSISTENCY_TOL:
            raise ConsistencyError("K_rev != K_F* (non-Hermitian field data not supported): "
                                   f"residual {rev_res:.3e}")
        herm = _mirror_residual(w)[0] / scale
        if not herm <= _CONSISTENCY_TOL:
            raise ConsistencyError(f"K_W is not Hermitian: residual {herm:.3e} > {_CONSISTENCY_TOL:.1e}")
        splits = {}
        for periodic in (False, True) if w.ndim == 2 else (True,):
            splits[periodic] = float(np.abs(f - _theta_split(w, periodic)).max() / scale)
            if splits[periodic] <= _CONSISTENCY_TOL:
                return cls._measured(max(res, rev_res, herm, splits[periodic]), mean, k_w,
                                     hbar_c, periodic)
        raise ConsistencyError("K_F is not the theta split of K_W in either time representation: "
                               f"residual {min(splits.values()):.3e} > {_CONSISTENCY_TOL:.1e}")

    @property
    def grid(self) -> TimeGrid:
        return self.mean.grid

    @property
    def K_F(self) -> TwoPointKernel:
        return _kernel(self.grid, _theta_split(_wightman_data(self), self.periodic))

    @property
    def K_rev(self) -> TwoPointKernel:
        return _reversed(self.K_F)


def _reversed(k_f: TwoPointKernel) -> TwoPointKernel:
    """K_rev = K_F* of a Hermitian field, from its derived K_F."""
    return _kernel(k_f.grid, _data(k_f)[0].conj())


def _wightman_data(ctl: CumulantSet) -> np.ndarray:
    """K_W's data where the set's theta regions exist: its lag profile on
    the circle, else its n x n values."""
    k_w = ctl.K_W
    return k_w.profile if ctl.periodic and k_w.profile is not None else k_w.values


@dataclass
class RotatedCumulants:
    """Rotated image: mean, retarded response D_R, time-s-ordered noise N_s.

    D_R and N_s are real, as a Hermitian field's are: a complex kernel whose
    imaginary part is all zero is stored real, and one with a non-zero
    imaginary entry is a ConsistencyError naming it.  The gap is kept on the
    D_R kernel (`_gap_of`), whose data is made read-only then; a write into
    N_s is seen by the next `reorder`."""

    mean: Signal
    D_R: TwoPointKernel
    N_s: TwoPointKernel
    p: OrderingParam
    hbar_c: float

    def __post_init__(self):
        _require_positive("hbar_c", self.hbar_c)
        _check_grids(self.mean.grid, {"D_R": self.D_R, "N_s": self.N_s})
        for name in ("D_R", "N_s"):
            a = _data(getattr(self, name))[0]
            if np.iscomplexobj(a):
                if (worst := np.abs(a.imag).max()) != 0.0:  # NaN is refused too
                    raise ConsistencyError(f"{name} must be real for a Hermitian field: "
                                           f"max |Im {name}| = {worst:.3e}")
                setattr(self, name, _kernel(self.grid, a.real.copy()))

    @property
    def grid(self) -> TimeGrid:
        return self.mean.grid


def _weyl_image(ctl: CumulantSet) -> RotatedCumulants:
    """Keldysh (s = 0) rotation, from K_F + K_W with K_F the theta split of
    K_W: N_0 = (1/2) Re(K_F + K_W) and D_R = (K_rev - K_W) / (-i hbar c)
    = Im(K_F + K_W) / hbar c, the Kubo commutator 2 theta Im K_W / hbar c.
    D_R is set to 0 where theta = 0, where Im(K_W^T + K_W) is K_W's
    anti-Hermitian residual.  In linear time, from 2 K_W, the walk
    `_pairs` writes Re K_W + Re K_W^T and 0 above the diagonal."""
    k_w = _wightman_data(ctl)
    re, im = np.real(k_w), np.imag(k_w)
    if k_w.ndim == 2 and not ctl.periodic:
        total, d, tie = np.multiply(re, 2.0), np.multiply(im, 2.0), (np.arange(len(k_w)),) * 2
        for u, l, above in _pairs(len(k_w)):
            np.add(re[u], re[l].T, out=total[u], where=above)
            np.copyto(d[u], 0.0, where=above)
    else:
        later, _, tie = _theta_masks(len(k_w), ctl.periodic, profile=k_w.ndim == 1)
        total = _add_transpose(re)  # Re(K_F + K_W) where theta = 0
        np.multiply(re, 2.0, out=total, where=later)
        d = np.where(later, 2.0 * im, 0.0)
    k_f = 0.5 * (k_w[tie] + _transposed(k_w)[tie])
    total[tie] = np.real(k_f) + re[tie]
    d[tie] = np.imag(k_f) + im[tie]
    total *= 0.5
    d /= ctl.hbar_c
    return RotatedCumulants(ctl.mean, _kernel(ctl.grid, d), _kernel(ctl.grid, total),
                            OrderingParam(0.0), ctl.hbar_c)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """a and b hold the same raw bytes in the same dtype and shape, so
    -0.0 and +0.0 differ (float64 data, compared through integer views)."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64))))


def rotate(ctl: CumulantSet, p: OrderingParam) -> RotatedCumulants:
    """Rotate a Hermitian field's CTL cumulant set into (mean, D_R, N_s),
    N_s = N_0 - s Z[D_R] (`reorder` of the Weyl image).

    The Weyl image is formed afresh on every call; when the D_R kernel of
    the last rotation on this K_W kernel (a weak ref) still has read-only
    data with the fresh D_R's raw bytes and grid, the new set takes it and
    its kept gap, so every ordering filters D_R once."""
    weyl = _weyl_image(ctl)
    kept = ctl.K_W._kept.get("response", lambda: None)()
    if (kept is not None and kept.grid == weyl.grid and not _data(kept)[0].flags.writeable
            and _same_bytes(_data(kept)[0], _data(weyl.D_R)[0])):
        weyl.D_R = kept
    rot = reorder(weyl, p.s)
    ctl.K_W._kept["response"] = weakref.ref(rot.D_R)
    return rot


def _split_representation(asym: float, n_0_size: float, d: np.ndarray, hbar_c: float,
                          acausal: float | None) -> bool:
    """The time representation (periodic or not) in which
    K_F = N_0 + (i hbar c / 2)(D_R + D_R^T) is the theta split of
    K_W = N_0 + (i hbar c / 2)(D_R - D_R^T) to _SPLIT_TOL relative to
    max |N_0| + hbar c max |D_R|, for real N_0 and D_R, with (asym,
    n_0_size) = (max |N_0 - N_0^T|, max |N_0|) and, for n x n D_R, `acausal`
    its max |D_R| where theta = 0 in linear time.  They differ by
    N_0 - N_0^T, by i hbar c D_R where theta = 0 and by
    (i hbar c / 2)(D_R + D_R^T) where theta = 1/2.  In neither
    representation, a ConsistencyError names the largest of these three
    terms in the one where their sum is least.  A lag profile is split on
    the circle alone: a circulant D_R retarded in linear time is diagonal."""
    bound = _SPLIT_TOL * (n_0_size + hbar_c * np.abs(d).max())
    closest = None
    for periodic in (False, True) if d.ndim == 2 else (True,):
        if periodic:
            _, earlier, tie = _theta_masks(len(d), True, profile=d.ndim == 1)
            acausal = np.abs(d).max(where=earlier, initial=0.0)
        else:
            tie = (np.arange(len(d)),) * 2
        terms = (asym, hbar_c * acausal, 0.5 * hbar_c * np.abs(d[tie] + _transposed(d)[tie]).max())
        if terms[0] + (terms[1] + terms[2]) <= bound:
            return periodic
        closest = min(closest or terms, terms, key=sum)
    worst = int(np.argmax(closest))
    raise ConsistencyError(
        "rotated set is not a Hermitian field's: K_F would not be the theta split of K_W; "
        f"largest term {_SPLIT_TERMS[worst]} = {closest[worst]:.3e} (tolerance {bound:.3e})")


def unrotate(rot: RotatedCumulants) -> CumulantSet:
    """The CTL cumulant set of (mean, D_R, N_s), stored by its K_W.

    With N_0 = N_s + s Z[D_R] (`reorder` to s = 0) and D_A = D_R^T:
    K_F = N_0 + (i hbar c / 2)(D_R + D_A)
    K_W = N_0 + (i hbar c / 2)(D_R - D_A)
    K_rev = K_F*
    K_F must be the theta split of K_W in some time representation
    (`_split_representation`, else a ConsistencyError naming what fails).
    D_R and N_0 are real, so K_W - K_W^H = N_0 - N_0^T exactly (the
    imaginary parts of mirrored entries are exact negatives), and one pass
    over N_0 gives both the split rule's asymmetry and K_W's Hermitian
    residual; on n x n data it is one walk `_pairs`, which also forms
    D_R - D_A and reads D_R where theta = 0 in linear time.
    """
    n_0, d = _data(reorder(rot, 0.0).N_s, rot.D_R)
    k_w, acausal = np.empty(d.shape, dtype=complex), None
    if d.ndim == 1:
        asym, n_0_size = _mirror_residual(n_0)
        np.subtract(d, _transposed(d), out=k_w.imag)
    else:
        worst, upper = [], []
        for u, l, above in _pairs(len(d)):
            worst.append(np.abs(n_0[u] - n_0[l].T).max())
            upper.append(np.abs(d[u]).max(where=above, initial=0.0))
            np.subtract(d[u], d[l].T, out=k_w.imag[u])
            if l != u:  # not -(D_R - D_A)^T of the tile above: x - x is +0.0
                np.subtract(d[l], d[u].T, out=k_w.imag[l])
        asym, n_0_size, acausal = float(np.max(worst)), float(np.abs(n_0).max()), np.max(upper)
    periodic = _split_representation(asym, n_0_size, d, rot.hbar_c, acausal)
    k_w.imag *= 0.5 * rot.hbar_c
    k_w.real = n_0
    hermitian = asym / max(np.abs(k_w).max(), 1e-300)
    return CumulantSet._measured(hermitian, rot.mean, _kernel(rot.grid, k_w), rot.hbar_c,
                                 periodic)


def reorder_gap_kernel(D_R: TwoPointKernel, hbar_c: float) -> TwoPointKernel:
    """Response-derived gap kernel Z(t,t') connecting noises at different s.

    Z = i hbar c (C + C^T) with C = F^-_t' D_R(t,t') - (1/2) D_R(t,t').  The
    noise is real at every s, so only Re Z = -hbar c (Y + Y^T) with
    Y = Im C is kept.  With D_R = B + iA, F^+ + F^- = 1 gives
    Re F^- A = A/2 for real A, so Y = Im F^-_t' B: Im D_R drops out.  For
    real B, (F^- - 1/2) B = -(1/2) sign(w) B is imaginary, so
    -hbar c Y is B under the real weight i hbar c (theta(w) - 1/2): one
    rfft/irfft pair along t', with weight i hbar c / 2 on the half spectrum
    and 0 at w = 0 and at the Nyquist bin.

    A circulant D_R has a circulant Y, so the filter runs on row 0 of D_R,
    its reflected profile, and Z's profile is that row plus its reflection.
    """
    _require_positive("hbar_c", hbar_c)
    n = D_R.grid.n
    re = np.real(_data(D_R)[0])
    spectrum = np.fft.rfft(re if re.ndim == 2 else _transposed(re), axis=-1)
    spectrum *= 1j * hbar_c * (sign_weights(D_R.grid, "+")[:n // 2 + 1] - 0.5)
    y = np.fft.irfft(spectrum, n, axis=-1)
    return _kernel(D_R.grid, _add_transpose(y))


def _gap_of(d_r: TwoPointKernel) -> np.ndarray:
    """The data of Z_1 = Z[D_R] at hbar c = 1 (`reorder_gap_kernel`), kept
    on the kernel while its data, made read-only here, stays read-only: a
    write into it raises instead of leaving a stale gap."""
    d = _data(d_r)[0]
    if "gap" not in d_r._kept or d.flags.writeable:
        d.flags.writeable = False
        d_r._kept["gap"] = _data(reorder_gap_kernel(d_r, 1.0))[0]
    return d_r._kept["gap"]


def reorder(rot: RotatedCumulants, s_new: float) -> RotatedCumulants:
    """Map the noise kernel to a new ordering: N_s' = N_s + (s - s') hbar c Z_1,
    with the Z_1 kept on D_R (`_gap_of`), which the returned set shares."""
    p_new = OrderingParam(s_new)  # validates |s_new| <= 1
    n_new = rot.N_s
    if s_new != rot.p.s:
        n_s, z = _data(rot.N_s, _kernel(rot.grid, _gap_of(rot.D_R)))
        out = ((rot.p.s - s_new) * rot.hbar_c) * z
        out += n_s
        n_new = _kernel(rot.grid, out)
    return RotatedCumulants(rot.mean, rot.D_R, n_new, p_new, rot.hbar_c)


def rotation_substitution(eta: Signal, j_s: Signal, p: OrderingParam,
                          hbar_c: float) -> tuple[Signal, Signal]:
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

    K_F is derived once (one theta split) and K_rev is its conjugate.
    """
    k_f = ctl.K_F
    mean_term = -1j * overlap(eta_p - eta_m, ctl.mean)
    return (
        mean_term
        + pair_form(eta_m, ctl.K_W, eta_p)
        - 0.5 * pair_form(eta_p, k_f, eta_p)
        - 0.5 * pair_form(eta_m, _reversed(k_f), eta_m)
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
    image `rot` (`rotate(ctl, rot.p)` or a closed form), and Lambda_2[j, j]
    with j = j_s / hbar c, the term quadratic in j_s, which must cancel by
    the CTL consistency identity."""
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
    resonant grid frequency, with hbar c = 1; the exp(-i w (t+t')) squeezing
    parts make K_W genuinely non-stationary, and the mean is a random field
    of the same modes.  With c = cos wt, s = sin wt and A = [[nbar + 1/2 +
    Re m, Im m], [Im m, nbar + 1/2 - Re m]], positive definite as
    |m| <= sqrt(nbar (nbar + 1)) < nbar + 1/2, Re K_W = [c s] A [c s]^T is
    W W^T, W the modes' [c s] chol(A) side by side (rank 6), and
    Im K_W = P - P^T with P = (1/2) C S^T (rank 3).  Re K_W is formed as
    (1/2)(W W^T + (W W^T)^T) and Im K_W as P - P^T, so K_W is exactly
    Hermitian whatever the products round: its residual is 0.0, unmeasured.
    The three modes are distinct cycle counts in 1..n/2 - 2, so a grid
    with n < 10 is a ValueError.
    """
    n = grid.n
    if n < 10:
        raise ValueError(f"synthetic_cumulants needs three distinct modes in 1..n/2 - 2, "
                         f"so grid.n >= 10; got grid.n = {n}")
    t = grid.times
    modes = rng.choice(np.arange(1, n // 2 - 1), size=3, replace=False)
    cs = np.empty((2, len(modes), n))  # cos, sin of each mode
    w = np.empty((n, 2 * len(modes)))
    for i, k in enumerate(modes):
        om = grid.resonant_frequency(int(k))
        np.cos(om * t, out=cs[0, i])
        np.sin(om * t, out=cs[1, i])
        nbar = rng.uniform(0.0, 2.0)
        mmax = np.sqrt(nbar * (nbar + 1.0))
        m = mmax * rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
        a = [[nbar + 0.5 + m.real, m.imag], [m.imag, nbar + 0.5 - m.real]]
        w[:, 2 * i:2 * i + 2] = cs[:, i].T @ np.linalg.cholesky(a)
    k_w = np.empty((n, n), dtype=complex)
    _add_transpose(0.5 * w @ w.T, out=k_w.real)
    _add_transpose(0.5 * cs[0].T @ cs[1], -1.0, out=k_w.imag)
    mean_vals = np.zeros(n)
    for i in range(len(modes)):
        mean_vals += rng.normal() * cs[0, i] + rng.normal() * cs[1, i]
    return CumulantSet._measured(0.0, Signal(grid, mean_vals), TwoPointKernel(grid, k_w), 1.0,
                                 False)
