"""Circulant kernels held by their lag profile: the profile routes of the
rotation against the dense routes on the laid-out kernels, the oracles."""
import numpy as np
import pytest

from keldrot.grids import OrderingParam, Signal, TimeGrid, TwoPointKernel, pair_form
from keldrot.oscillator import GaussianState, OscillatorSpec, ctl_cumulants, rotated_cumulants
from keldrot.rotation import (
    CumulantSet,
    RotatedCumulants,
    lambda2_identity_check,
    reorder,
    reorder_gap_kernel,
    rotate,
    unrotate,
)

# relative to the largest |entry| of the dense oracle or of the set's K_W,
# whichever is larger (the vacuum's N_s at s = 1 is rounding alone)
TOL = 1e-12
SIZES = [7, 8, 96, 97]  # odd and even n: the wrap lag n / 2 exists for even n only
ORDERINGS = [-1.0, -0.35, 0.0, 0.7, 1.0]


def thermal(grid):
    spec = OscillatorSpec(omega0=grid.resonant_frequency(2), hbar=0.8)
    return ctl_cumulants(spec, GaussianState(nbar=1.3), grid, periodic=True)


def vacuum(grid):
    spec = OscillatorSpec(omega0=grid.resonant_frequency(grid.n // 3))
    return ctl_cumulants(spec, GaussianState(), grid, periodic=True)


def random_spectrum(grid):
    # a Hermitian circulant K_W: the lag profile of a real spectrum of both signs
    spectrum = np.random.default_rng(grid.n).normal(size=grid.n)
    k_w = TwoPointKernel.circulant(grid, np.fft.fft(spectrum) / grid.n)
    return CumulantSet(Signal.zero(grid), k_w, 1.3, True)


SETS = {"thermal": thermal, "vacuum": vacuum, "random spectrum": random_spectrum}


def layout(k):
    """The n x n layout of a circulant kernel, leaving `k` a profile."""
    assert k.profile is not None
    return TwoPointKernel.circulant(k.grid, k.profile).values


def dense_set(ctl):
    return CumulantSet(ctl.mean, TwoPointKernel(ctl.grid, layout(ctl.K_W)), ctl.hbar_c, True)


def dense_rotated(rot):
    g = rot.grid
    return RotatedCumulants(rot.mean, TwoPointKernel(g, layout(rot.D_R)),
                            TwoPointKernel(g, layout(rot.N_s)), rot.p, rot.hbar_c)


def assert_close(profile_kernel, oracle, k_w):
    got = layout(profile_kernel)
    assert got.dtype == oracle.dtype
    scale = max(np.abs(oracle).max(), np.abs(k_w.profile).max())
    assert np.abs(got - oracle).max() <= TOL * scale


@pytest.mark.parametrize("name", SETS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("s", ORDERINGS)
class TestProfileRoutes:
    def test_rotate(self, name, n, s):
        ctl = SETS[name](TimeGrid(n, 0.12))
        rot, oracle = rotate(ctl, OrderingParam(s)), rotate(dense_set(ctl), OrderingParam(s))
        assert_close(rot.D_R, oracle.D_R.values, ctl.K_W)
        assert_close(rot.N_s, oracle.N_s.values, ctl.K_W)

    def test_gap_and_reorder(self, name, n, s):
        ctl = SETS[name](TimeGrid(n, 0.12))
        rot = rotate(ctl, OrderingParam(s))
        dense = dense_rotated(rot)
        for hbar_c in (1.0, 0.3):
            assert_close(reorder_gap_kernel(rot.D_R, hbar_c),
                         reorder_gap_kernel(dense.D_R, hbar_c).values, ctl.K_W)
        for s_new in (-0.6, 0.25):
            assert_close(reorder(rot, s_new).N_s, reorder(dense, s_new).N_s.values, ctl.K_W)

    def test_unrotate(self, name, n, s):
        ctl = SETS[name](TimeGrid(n, 0.12))
        rot = rotate(ctl, OrderingParam(s))
        back, oracle = unrotate(rot), unrotate(dense_rotated(rot))
        assert back.periodic and oracle.periodic
        for k in ("K_F", "K_W", "K_rev"):
            assert_close(getattr(back, k), getattr(oracle, k).values, ctl.K_W)


@pytest.mark.parametrize("n", SIZES)
def test_triple_of_circulant_kernels_is_validated_on_profiles(n):
    # the reader's checks take a triple of profiles as profiles, and the set
    # stored by its K_W is the circulant set on the circle
    ctl = thermal(TimeGrid(n, 0.12))
    kernels = (ctl.K_F, ctl.K_rev, ctl.K_W)
    triple = CumulantSet._from_triple(ctl.mean, *kernels, ctl.hbar_c)
    oracle = CumulantSet._from_triple(ctl.mean, *(TwoPointKernel(ctl.grid, layout(k))
                                                  for k in kernels), ctl.hbar_c)
    assert triple.residual == oracle.residual
    assert triple.periodic and oracle.periodic and triple.K_W is ctl.K_W
    rot = rotate(triple, OrderingParam(0.4))
    assert rot.D_R.profile is not None and rot.N_s.profile is not None
    assert_close(rot.N_s, rotate(oracle, OrderingParam(0.4)).N_s.values, ctl.K_W)


def test_which_sets_are_circulant():
    grid = TimeGrid(96, 0.12)
    resonant = OscillatorSpec(omega0=grid.resonant_frequency(7))
    circulant = ctl_cumulants(resonant, GaussianState(nbar=0.4), grid, periodic=True)
    assert circulant.K_W.profile is not None
    dense = {
        "linear time": ctl_cumulants(resonant, GaussianState(nbar=0.4), grid, periodic=False),
        "squeezed": ctl_cumulants(resonant, GaussianState(nbar=0.4, m=0.3), grid, periodic=True),
        "non-resonant": ctl_cumulants(OscillatorSpec(omega0=1.0), GaussianState(nbar=0.4), grid,
                                      periodic=True),
        "off resonance by one ulp": ctl_cumulants(
            OscillatorSpec(omega0=float(np.nextafter(resonant.omega0, 10.0))),
            GaussianState(nbar=0.4), grid, periodic=True),
    }
    for name, ctl in dense.items():
        assert ctl.K_W.profile is None, name


def test_values_laid_out_once_and_written_through():
    grid = TimeGrid(8, 0.12)
    profile = np.arange(8.0) + 1j * np.arange(8.0) ** 2
    k = TwoPointKernel.circulant(grid, profile)
    i = np.arange(8)
    first = k.values
    assert np.array_equal(first, profile[(i[:, None] - i[None, :]) % 8])
    assert k.profile is None and k.values is first
    first[1, 2] = 5.0
    assert k.values[1, 2] == 5.0
    # a route taken after the layout sees the write
    rot = rotate(thermal(grid), OrderingParam(0.3))
    before = reorder(rot, 0.3 - 1e-3).N_s.values.copy()
    rot.N_s.values[2, 5] += 1.0
    after = reorder(rot, 0.3 - 1e-3).N_s.values
    moved = after - before
    assert abs(moved[2, 5] - 1.0) < 1e-12
    moved[2, 5] = 0.0
    assert not moved.any()


def test_bad_profile_shape_refused():
    with pytest.raises(ValueError, match="lag profile shape"):
        TwoPointKernel.circulant(TimeGrid(8, 0.1), np.zeros((8, 8)))


def test_large_resonant_set_is_never_laid_out(monkeypatch):
    # a layout at n = 2^16 would take 64 GB: the guard refuses it before
    # any allocation, and every kernel of the chain must still be a profile
    values = TwoPointKernel.values

    def no_layout(self):
        assert self._values is not None, "a circulant kernel was laid out as n x n"
        return values.fget(self)

    monkeypatch.setattr(TwoPointKernel, "values", property(no_layout, values.fset))
    grid = TimeGrid(2 ** 16, 0.01)
    spec = OscillatorSpec(omega0=grid.resonant_frequency(1234))
    state = GaussianState(nbar=0.6)
    ctl = ctl_cumulants(spec, state, grid, periodic=True)
    rot = rotate(ctl, OrderingParam(0.3))
    reordered = reorder(rot, -0.5)
    gap = reorder_gap_kernel(rot.D_R, ctl.hbar_c)
    back = unrotate(rot)
    kernels = [ctl.K_W, ctl.K_F, ctl.K_rev, rot.D_R, rot.N_s, reordered.N_s, gap,
               back.K_W, back.K_F, back.K_rev]
    assert all(k.profile is not None and k._values is None for k in kernels)
    tau = grid.lags
    scale = spec.hbar * (state.nbar + 1.0)
    expect = spec.hbar * (state.nbar + OrderingParam(-0.5).s_minus) * np.cos(spec.omega0 * tau)
    assert np.abs(reordered.N_s.profile - expect).max() < 1e-10 * scale
    assert np.abs(back.K_W.profile - ctl.K_W.profile).max() < 1e-10 * scale


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["real", "complex profile", "complex signals"])
def test_pair_form_of_a_profile(n, kind):
    # one circular convolution against the dense product, the oracle, to
    # 1e-12 of dt^2 |f| |K| |g|
    grid = TimeGrid(n, 0.12)
    rng = np.random.default_rng(n)
    profile = rng.normal(size=n) + (1j * rng.normal(size=n) if kind == "complex profile" else 0)
    f, g = (Signal(grid, rng.normal(size=n) + (1j * rng.normal(size=n)
                                               if kind == "complex signals" else 0))
            for _ in range(2))
    k = TwoPointKernel.circulant(grid, profile)
    got = pair_form(f, k, g)
    assert k.profile is not None
    dense = layout(k)
    want = complex(grid.dt ** 2 * (f.values @ dense @ g.values))
    scale = grid.dt ** 2 * (np.abs(f.values) @ np.abs(dense) @ np.abs(g.values))
    assert abs(got - want) <= TOL * scale


def test_lambda_check_of_a_thermal_set_is_never_laid_out(monkeypatch):
    values = TwoPointKernel.values

    def no_layout(self):
        assert self._values is not None, "a circulant kernel was laid out as n x n"
        return values.fget(self)

    monkeypatch.setattr(TwoPointKernel, "values", property(no_layout, values.fset))
    grid = TimeGrid(2 ** 14, 0.01)
    spec = OscillatorSpec(omega0=grid.resonant_frequency(321))
    state, p = GaussianState(nbar=0.6), OrderingParam(0.3)
    rng = np.random.default_rng(2)
    eta, j_s = (Signal(grid, rng.normal(size=grid.n)) for _ in range(2))
    chk = lambda2_identity_check(ctl_cumulants(spec, state, grid, periodic=True),
                                 rotated_cumulants(spec, state, p, grid), eta, j_s)
    assert chk["relative_residual"] < 1e-8
    assert abs(chk["j_quadratic_term"]) < 1e-8 * abs(chk["lhs"])
