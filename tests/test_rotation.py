import dataclasses

import numpy as np
import pytest

from keldrot.grids import (
    OrderingParam,
    Signal,
    TimeGrid,
    TwoPointKernel,
    pair_form,
    project_kernel_axis,
    theta_ordering_matrix,
)
from keldrot.oscillator import (
    GaussianState,
    OscillatorSpec,
    ctl_cumulants,
    retarded_response,
    retarded_response_grid,
)
import keldrot.grids as grids
import keldrot.rotation as rotation
from keldrot.serialization import cumulants_to_json
from keldrot.rotation import (
    ConsistencyError,
    CumulantSet,
    RotatedCumulants,
    lambda2_identity_check,
    reorder,
    reorder_gap_kernel,
    rotate,
    synthetic_cumulants,
    unrotate,
)

from common import circular_lags, zero_kernel

GRID = TimeGrid(96, 0.12)
W0 = GRID.resonant_frequency(7)
SPEC = OscillatorSpec(omega0=W0)


def vacuum_ctl(periodic=True):
    return ctl_cumulants(SPEC, GaussianState(), GRID, periodic=periodic)


class TestRotate:
    def test_vacuum_normal_noise_vanishes(self):
        rot = rotate(vacuum_ctl(), OrderingParam(1.0))
        assert np.abs(rot.N_s.values).max() < 1e-8

    def test_vacuum_weyl_noise_is_cosine(self):
        rot = rotate(vacuum_ctl(), OrderingParam(0.0))
        t = GRID.times
        expect = 0.5 * np.cos(W0 * (t[:, None] - t[None, :]))
        assert np.abs(rot.N_s.values - expect).max() < 1e-8

    def test_commuting_classical_limit_has_no_response(self):
        t = GRID.times
        k = TwoPointKernel(GRID, np.cos(W0 * (t[:, None] - t[None, :])).astype(complex))
        ctl = CumulantSet(mean=Signal.zero(GRID), K_F=k, K_rev=k, K_W=k)
        rot = rotate(ctl, OrderingParam(0.3))
        assert np.abs(rot.D_R.values).max() == 0.0

    def test_response_is_order_independent(self):
        rng = np.random.default_rng(0)
        ctl = synthetic_cumulants(GRID, rng)
        d1 = rotate(ctl, OrderingParam(-0.8)).D_R.values
        d2 = rotate(ctl, OrderingParam(0.8)).D_R.values
        assert np.array_equal(d1, d2)

    def test_retardation_lower_triangular(self):
        rng = np.random.default_rng(1)
        ctl = synthetic_cumulants(GRID, rng)
        rot = rotate(ctl, OrderingParam(0.2))
        assert rotation._acausal_part(rot.D_R.values, GRID)[1] == 0.0

    def test_retardation_circulant(self):
        # the periodic thermal response is retarded on wrapped-positive lags,
        # so it has entries above the diagonal
        rot = rotate(ctl_cumulants(SPEC, GaussianState(nbar=0.6), GRID, periodic=True),
                     OrderingParam(0.2))
        assert np.abs(np.triu(rot.D_R.values, 1)).max() > 0.5
        assert rotation._acausal_part(rot.D_R.values, GRID)[1] == 0.0

    def test_retardation_residual_of_kernel_acausal_in_both(self):
        mask, size = rotation._acausal_part(np.ones((GRID.n, GRID.n)), GRID)
        assert mask is None and size > 0.0
        k = zero_kernel(GRID)
        acausal = CumulantSet(mean=Signal.zero(GRID), K_F=k, K_W=k,
                              K_rev=TwoPointKernel(GRID, 1j * np.ones((GRID.n, GRID.n))))
        with pytest.raises(ConsistencyError, match="not retarded"):
            rotate(acausal, OrderingParam(0.0), check=False)

    def test_noise_hermitian_for_real_fields(self):
        rng = np.random.default_rng(2)
        n_s = rotate(synthetic_cumulants(GRID, rng), OrderingParam(0.5)).N_s.values
        assert np.abs(n_s - n_s.conj().T).max() < 1e-10 * np.abs(n_s).max()

    def test_inconsistent_input_rejected(self):
        ctl = vacuum_ctl()
        bad = CumulantSet(
            mean=ctl.mean,
            K_F=TwoPointKernel(GRID, ctl.K_F.values + 0.1),
            K_rev=ctl.K_rev,
            K_W=ctl.K_W,
        )
        with pytest.raises(ConsistencyError, match="consistency"):
            rotate(bad, OrderingParam(0.0))

    def test_non_hermitian_field_flagged(self):
        ctl = vacuum_ctl()
        bad = CumulantSet(
            mean=ctl.mean,
            K_F=ctl.K_F,
            K_rev=TwoPointKernel(GRID, ctl.K_F.values),  # should be conjugated
            K_W=TwoPointKernel(GRID, 0.5 * (ctl.K_F.values + ctl.K_F.values.T)),
        )
        with pytest.raises(ConsistencyError, match="non-Hermitian"):
            rotate(bad, OrderingParam(0.0))


class TestUnrotate:
    def test_round_trip_on_random_consistent_sets(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            ctl = synthetic_cumulants(GRID, rng)
            s = rng.uniform(-1, 1)
            back = unrotate(rotate(ctl, OrderingParam(s)))
            scale = np.abs(ctl.K_F.values).max()
            for a, b in ((back.K_F, ctl.K_F), (back.K_W, ctl.K_W),
                         (back.K_rev, ctl.K_rev)):
                assert np.abs(a.values - b.values).max() < 1e-8 * scale
            assert np.abs(back.mean.values - ctl.mean.values).max() == 0.0

    def test_zero_response_passes_noise_through(self):
        rng = np.random.default_rng(4)
        n = rng.normal(size=(GRID.n, GRID.n))
        n = n + n.T
        rot = RotatedCumulants(
            mean=Signal.zero(GRID),
            D_R=zero_kernel(GRID),
            N_s=TwoPointKernel(GRID, n.astype(complex)),
            p=OrderingParam(0.25),
        )
        ctl = unrotate(rot)
        for k in (ctl.K_F, ctl.K_W, ctl.K_rev):
            assert np.abs(k.values - n).max() < 1e-14

    def test_vacuum_response_rebuilds_contractions(self):
        # the normal-ordered rotated set {D_R, N=0} carries the full
        # vacuum information: both contractions come back out
        # with hbar = 1: i D_F = (1/2) e^{-i w |tau|}, i D^+ = (1/2) e^{-i w tau}
        tau = circular_lags(GRID)
        rot = RotatedCumulants(mean=Signal.zero(GRID),
                               D_R=TwoPointKernel(GRID, retarded_response(SPEC, tau)),
                               N_s=zero_kernel(GRID),
                               p=OrderingParam(1.0))
        ctl = unrotate(rot)
        assert np.abs(ctl.K_F.values - 0.5 * np.exp(-1j * W0 * np.abs(tau))).max() < 1e-8
        assert np.abs(ctl.K_W.values - 0.5 * np.exp(-1j * W0 * tau)).max() < 1e-8

    def test_rotate_of_unrotate_is_identity(self):
        rng = np.random.default_rng(5)
        ctl = synthetic_cumulants(GRID, rng)
        rot = rotate(ctl, OrderingParam(-0.4))
        again = rotate(unrotate(rot), OrderingParam(-0.4))
        scale = np.abs(rot.N_s.values).max()
        assert np.abs(again.N_s.values - rot.N_s.values).max() < 1e-8 * scale
        assert np.abs(again.D_R.values - rot.D_R.values).max() < 1e-8


class TestReorder:
    def test_identity_when_s_unchanged(self):
        rng = np.random.default_rng(6)
        rot = rotate(synthetic_cumulants(GRID, rng), OrderingParam(0.3))
        out = reorder(rot, 0.3)
        assert np.abs(out.N_s.values - rot.N_s.values).max() == 0.0

    def test_vacuum_normal_to_weyl(self):
        rot = rotate(vacuum_ctl(), OrderingParam(1.0))
        out = reorder(rot, 0.0)
        t = GRID.times
        expect = 0.5 * np.cos(W0 * (t[:, None] - t[None, :]))
        assert np.abs(out.N_s.values - expect).max() < 1e-8

    def test_round_trip_linearity(self):
        rng = np.random.default_rng(7)
        rot = rotate(synthetic_cumulants(GRID, rng), OrderingParam(0.1))
        back = reorder(reorder(rot, 0.9), 0.1)
        assert np.abs(back.N_s.values - rot.N_s.values).max() < 1e-10

    def test_unchanged_s_skips_the_gap(self, monkeypatch):
        def no_gap(D_R, hbar_c=1.0):
            raise AssertionError("gap projected for an unchanged ordering")

        monkeypatch.setattr(rotation, "reorder_gap_kernel", no_gap)
        ctl = synthetic_cumulants(GRID, np.random.default_rng(15))
        rot = rotate(ctl, OrderingParam(0.0))
        assert np.array_equal(rot.N_s.values, 0.5 * np.real(ctl.K_F.values + ctl.K_W.values))
        back = unrotate(rot)
        scale = np.abs(ctl.K_F.values).max()
        assert np.abs(back.K_W.values - ctl.K_W.values).max() < 1e-8 * scale

    def test_real_data_stays_real(self):
        ctl = synthetic_cumulants(GRID, np.random.default_rng(16))
        for s in (0.0, 0.4):
            assert rotate(ctl, OrderingParam(s)).N_s.values.dtype == np.float64
        d_r = TwoPointKernel(GRID, retarded_response_grid(SPEC, GRID))
        assert reorder_gap_kernel(d_r).values.dtype == np.float64

    def test_out_of_range_rejected(self):
        rot = rotate(vacuum_ctl(), OrderingParam(0.0))
        with pytest.raises(ValueError):
            reorder(rot, 1.5)

    def test_gap_depends_on_response_only(self):
        rng = np.random.default_rng(8)
        rot = rotate(synthetic_cumulants(GRID, rng), OrderingParam(0.4))
        perturbed = RotatedCumulants(
            mean=rot.mean, D_R=rot.D_R,
            N_s=TwoPointKernel(GRID, rot.N_s.values + np.eye(GRID.n)),
            p=rot.p)
        gap1 = reorder(rot, -0.5).N_s.values - rot.N_s.values
        gap2 = reorder(perturbed, -0.5).N_s.values - perturbed.N_s.values
        assert np.abs(gap1 - gap2).max() < 1e-14

    def test_gap_matches_two_direct_rotations(self):
        rng = np.random.default_rng(9)
        ctl = synthetic_cumulants(GRID, rng)
        s1, s2 = 0.7, -0.35
        n1 = rotate(ctl, OrderingParam(s1)).N_s.values
        n2 = rotate(ctl, OrderingParam(s2)).N_s.values
        gap = reorder_gap_kernel(rotate(ctl, OrderingParam(s1)).D_R, ctl.hbar_c)
        scale = np.abs(n1).max()
        assert np.abs((n1 - n2) - (s2 - s1) * gap.values).max() < 1e-10 * scale


def test_synthetic_cumulants_match_direct_exponentials():
    # the slow route: n x n exponentials of t -+ t' per mode, from the same draws
    ctl = synthetic_cumulants(GRID, np.random.default_rng(21))
    replay = np.random.default_rng(21)
    n, t = GRID.n, GRID.times
    tau = t[:, None] - t[None, :]
    tsum = t[:, None] + t[None, :]
    modes = replay.choice(np.arange(1, n // 2 - 1), size=3, replace=False)
    k_w = np.zeros((n, n), dtype=complex)
    for k in modes:
        om = GRID.resonant_frequency(int(k))
        nbar = replay.uniform(0.0, 2.0)
        k_w += 0.5 * ((nbar + 1.0) * np.exp(-1j * om * tau) + nbar * np.exp(1j * om * tau))
        m = (np.sqrt(nbar * (nbar + 1.0)) * replay.uniform(0.0, 1.0)
             * np.exp(2j * np.pi * replay.uniform()))
        k_w += 0.5 * (m * np.exp(-1j * om * tsum) + np.conj(m) * np.exp(1j * om * tsum))
    mean = np.zeros(n)
    for k in modes:
        om = GRID.resonant_frequency(int(k))
        mean += replay.normal() * np.cos(om * t) + replay.normal() * np.sin(om * t)
    th = np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)
    k_f = th * k_w + th.T * k_w.T
    scale = np.abs(k_w).max()
    assert np.abs(ctl.K_W.values - k_w).max() < 1e-12 * scale
    assert np.abs(ctl.K_F.values - k_f).max() < 1e-12 * scale
    assert np.array_equal(ctl.mean.values, mean)


class TestLambda2:
    def test_identity_on_random_draws(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            ctl = synthetic_cumulants(GRID, rng)
            p = OrderingParam(rng.uniform(-1, 1))
            eta = Signal(GRID, rng.normal(size=GRID.n))
            j_s = Signal(GRID, rng.normal(size=GRID.n))
            chk = lambda2_identity_check(ctl, rotate(ctl, p, check=False), eta, j_s)
            assert chk["relative_residual"] < 1e-8
            assert abs(chk["j_quadratic_term"]) < 1e-8 * max(abs(chk["lhs"]), 1.0)

    def test_zero_eta_with_zero_mean(self):
        for seed in (11, *range(100, 140)):
            rng = np.random.default_rng(seed)
            ctl = dataclasses.replace(synthetic_cumulants(GRID, rng), mean=Signal.zero(GRID))
            j = Signal(GRID, rng.normal(size=GRID.n))
            rot = rotate(ctl, OrderingParam(0.5), check=False)
            chk = lambda2_identity_check(ctl, rot, Signal.zero(GRID), j)
            assert chk["rhs"] == 0
            # lhs = j K_W j - j K_F j / 2 - j K_rev j / 2 cancels only up to rounding
            size = (abs(pair_form(j, ctl.K_W, j)) + 0.5 * abs(pair_form(j, ctl.K_F, j))
                    + 0.5 * abs(pair_form(j, ctl.K_rev, j)))
            assert abs(chk["lhs"]) <= 16 * np.finfo(float).eps * size

    def test_weyl_zero_source_reduces_to_quadratic_noise_form(self):
        rng = np.random.default_rng(12)
        ctl = dataclasses.replace(synthetic_cumulants(GRID, rng), mean=Signal.zero(GRID))
        p = OrderingParam(0.0)
        eta = Signal(GRID, rng.normal(size=GRID.n))
        chk = lambda2_identity_check(ctl, rotate(ctl, p, check=False), eta, Signal.zero(GRID))
        n0 = rotate(ctl, p).N_s
        expect = -0.5 * GRID.dt ** 2 * (eta.values @ n0.values @ eta.values)
        assert abs(chk["rhs"] - expect) < 1e-10 * max(abs(expect), 1.0)


def four_projection_noise(ctl, p):
    """The direct route: N_s = 2 Re[F^{s+}_t F^{s+}_t' K_F + F^{s-}_t F^{s+}_t' K_W]."""
    kf = project_kernel_axis(project_kernel_axis(ctl.K_F, 1, "+", p), 0, "+", p)
    kw = project_kernel_axis(project_kernel_axis(ctl.K_W, 1, "+", p), 0, "-", p)
    return 2.0 * np.real(kf.values + kw.values)


ORACLE_SETS = {
    "squeezed synthetic": lambda: synthetic_cumulants(GRID, np.random.default_rng(14)),
    "squeezed linear-time oscillator": lambda: ctl_cumulants(
        SPEC, GaussianState(nbar=0.8, m=0.6 * np.exp(0.9j)), GRID),
    "periodic thermal": lambda: ctl_cumulants(SPEC, GaussianState(nbar=1.3), GRID,
                                              periodic=True),
    # omega0 = 1 is not a grid frequency, so the response at the wrap lag
    # -T/2 is not rounding; theta gives it weight 1/2 there
    "non-resonant periodic thermal": lambda: ctl_cumulants(
        OscillatorSpec(omega0=1.0), GaussianState(nbar=0.6), GRID, periodic=True),
}


class TestTwoRoute:
    """The Weyl-image route of rotate/unrotate/reorder_gap_kernel against the
    direct s-weighted projections."""

    @pytest.mark.parametrize("name", ORACLE_SETS)
    @pytest.mark.parametrize("s", [-1.0, -0.35, 0.0, 0.7, 1.0])
    def test_rotate_matches_four_projection_formula(self, name, s):
        ctl = ORACLE_SETS[name]()
        p = OrderingParam(s)
        scale = np.abs(ctl.K_F.values).max()
        assert np.abs(rotate(ctl, p).N_s.values - four_projection_noise(ctl, p)).max() \
            < 1e-10 * scale

    @pytest.mark.parametrize("name", ORACLE_SETS)
    @pytest.mark.parametrize("s", [-0.35, 0.7])
    def test_unrotate_matches_two_projection_formula(self, name, s):
        # K_F = N_s + i hbar c [F^{s-}_t' D_R(t,t') + F^{s-}_t D_R(t',t)]
        # K_W = N_s + i hbar c [F^{s-}_t' D_R(t,t') - F^{s+}_t D_R(t',t)]
        rot = rotate(ORACLE_SETS[name](), OrderingParam(s))
        t1 = project_kernel_axis(rot.D_R, 1, "-", rot.p).values
        t2 = project_kernel_axis(rot.D_R, 1, "+", rot.p).values
        k_f = rot.N_s.values + 1j * rot.hbar_c * (t1 + t1.T)
        k_w = rot.N_s.values + 1j * rot.hbar_c * (t1 - t2.T)
        back = unrotate(rot)
        scale = np.abs(k_f).max()
        assert np.abs(back.K_F.values - k_f).max() < 1e-12 * scale
        assert np.abs(back.K_rev.values - k_f.conj()).max() < 1e-12 * scale
        assert np.abs(back.K_W.values - k_w).max() < 1e-12 * scale

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_gap_matches_two_projection_formula(self, name):
        # Z = (i hbar c / 2) [F^-_t' D_R + F^-_t D_R^T - F^+_t' D_R - F^+_t D_R^T]
        d_r = rotate(ORACLE_SETS[name](), OrderingParam(0.0)).D_R
        bm = project_kernel_axis(d_r, 1, "-").values
        bp = project_kernel_axis(d_r, 1, "+").values
        for hbar_c in (1.0, 0.3):
            z = 0.5j * hbar_c * (bm + bm.T - bp - bp.T)
            gap = reorder_gap_kernel(d_r, hbar_c).values
            assert np.abs(gap - z).max() < 1e-12 * np.abs(z).max()


def explicit_triple(ctl):
    """The same data passed as a triple, which takes the triple route."""
    return CumulantSet(mean=ctl.mean, K_F=ctl.K_F, K_rev=ctl.K_rev, K_W=ctl.K_W,
                       hbar_c=ctl.hbar_c)


def parent_theta_split(k_w, periodic):
    """K_F selected by the dense theta matrix, as from_wightman stored it."""
    th = theta_ordering_matrix(GRID, periodic)
    k_f = np.where(th == 1.0, k_w, k_w.T)
    tie = th == 0.5
    k_f[tie] = 0.5 * (k_w[tie] + k_w.T[tie])
    return k_f


STORED_SETS = {
    **ORACLE_SETS,
    # a real K_W: the triple route's D_R is -0.0 throughout
    "classical real": lambda: CumulantSet.from_wightman(
        Signal.zero(GRID), np.cos(W0 * (GRID.times[:, None] - GRID.times[None, :]))),
}


class TestStoredWightman:
    """A set stored by K_W against the same data passed as a triple."""

    @pytest.mark.parametrize("name", STORED_SETS)
    @pytest.mark.parametrize("s", [-0.35, 0.0, 1.0])
    def test_rotate_matches_explicit_triple_bit_for_bit(self, name, s):
        ctl = STORED_SETS[name]()
        stored, triple = rotate(ctl, OrderingParam(s)), rotate(explicit_triple(ctl), OrderingParam(s))
        for a, b in ((stored.D_R, triple.D_R), (stored.N_s, triple.N_s)):
            assert np.array_equal(a.values, b.values)
            assert a.values.dtype == b.values.dtype and a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_derived_kernels_are_the_dense_theta_split(self, name):
        ctl = ORACLE_SETS[name]()
        k_f = parent_theta_split(ctl.K_W.values, ctl.periodic)
        assert np.array_equal(ctl.K_F.values, k_f)
        assert np.array_equal(ctl.K_rev.values, k_f.conj())
        assert cumulants_to_json(ctl) == cumulants_to_json(explicit_triple(ctl))

    @pytest.mark.parametrize("n", [7, 8, 96, 97])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_theta_masks_match_theta_matrix(self, n, periodic):
        # oracle: the dense construction, theta of the lag index (i - j),
        # wrapped on the circle to the lag profile of `_circle_theta`
        grid = TimeGrid(n, 0.1)
        if periodic:
            i = np.arange(n)
            dense = grids._circle_theta(grid)[(i[:, None] - i[None, :]) % n]
        else:
            dense = np.tri(n, k=-1)
            np.fill_diagonal(dense, 0.5)
        th = theta_ordering_matrix(grid, periodic)
        assert np.array_equal(th, dense) and th.dtype == dense.dtype
        later, earlier, tie = grids._theta_masks(n, periodic)
        assert np.array_equal(later, dense == 1.0) and np.array_equal(earlier, dense == 0.0)
        ties = np.zeros((n, n), dtype=bool)
        ties[tie] = True
        assert np.array_equal(ties, dense == 0.5) and len(tie[0]) == ties.sum()

    def test_non_hermitian_wightman_kernel_refused(self):
        k_w = vacuum_ctl().K_W.values.copy()
        k_w[3, 5] += 1e-6
        with pytest.raises(ConsistencyError, match="not Hermitian: residual 2.0"):
            CumulantSet.from_wightman(Signal.zero(GRID), k_w, periodic=True)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(3, 5), (4, 4), (0, 95)])
    def test_non_finite_wightman_entry_refused(self, bad, where):
        # one entry is enough: the tiled residual must not drop it as max() drops NaN
        k_w = vacuum_ctl().K_W.values.copy()
        k_w[where] = bad
        with pytest.raises(ConsistencyError, match="not Hermitian: residual nan"):
            CumulantSet.from_wightman(Signal.zero(GRID), k_w, periodic=True)

    @pytest.mark.parametrize("name", ["K_F", "K_rev", "K_W"])
    def test_non_finite_triple_entry_fails_validation(self, name):
        ctl = synthetic_cumulants(GRID, np.random.default_rng(3))
        kernels = {k: getattr(ctl, k).values.copy() for k in ("K_F", "K_rev", "K_W")}
        kernels[name][7, 2] = np.nan
        triple = CumulantSet(ctl.mean, *(TwoPointKernel(GRID, kernels[k])
                                         for k in ("K_F", "K_rev", "K_W")))
        with pytest.raises(ConsistencyError, match="residual nan"):
            rotate(triple, OrderingParam(0.3))

    def test_tighter_tolerance_checks_the_stored_residual(self):
        k_w = vacuum_ctl().K_W.values.copy()
        k_w[3, 5] += 1e-10
        ctl = CumulantSet.from_wightman(Signal.zero(GRID), k_w, periodic=True)
        rotate(ctl, OrderingParam(0.2))
        with pytest.raises(ConsistencyError, match="consistency identity: residual 2.0"):
            rotate(ctl, OrderingParam(0.2), consistency_tol=1e-12)

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_unrotate_stores_the_wightman_kernel(self, name):
        ctl = ORACLE_SETS[name]()
        back = unrotate(rotate(ctl, OrderingParam(0.7)))
        assert back._K_F is None and back.periodic == ctl.periodic

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_unrotate_measures_the_asymmetry_once(self, name, monkeypatch):
        # one pass over N_0 gives the split rule's asymmetry and the stored
        # set's Hermitian residual, equal to the one K_W itself gives
        rot = rotate(ORACLE_SETS[name](), OrderingParam(0.7))
        calls = []

        def counted(a):
            calls.append(a.shape)
            return mirror(a)

        mirror = rotation._mirror_residual
        monkeypatch.setattr(rotation, "_mirror_residual", counted)
        back = unrotate(rot)
        assert len(calls) == 1 and back._K_F is None
        worst, size = mirror(back.K_W.values)
        assert back._hermitian == worst / max(size, 1e-300)

    def test_diagonal_response_takes_the_triple_route(self):
        rot = rotate(vacuum_ctl(periodic=False), OrderingParam(0.3))
        d_r = rot.D_R.values + 0.2 * np.eye(GRID.n)
        rot = dataclasses.replace(rot, D_R=TwoPointKernel(GRID, d_r))
        back = unrotate(rot)
        assert back._K_F is not None
        again = rotate(back, OrderingParam(0.3))
        assert np.abs(again.D_R.values - d_r).max() < 1e-12 * np.abs(d_r).max()
        assert np.abs(again.N_s.values - rot.N_s.values).max() < 1e-12 * np.abs(rot.N_s.values).max()

    def test_kernels_on_another_grid_refused(self):
        k = TwoPointKernel(TimeGrid(8, 0.2), np.zeros((8, 8)))
        with pytest.raises(ValueError, match="D_R is on TimeGrid"):
            RotatedCumulants(Signal.zero(TimeGrid(8, 0.1)), k, zero_kernel(TimeGrid(8, 0.1)),
                             OrderingParam(0.0))
        with pytest.raises(ValueError, match="K_W is on TimeGrid"):
            CumulantSet(mean=Signal.zero(TimeGrid(8, 0.1)), K_F=None, K_rev=None, K_W=k)
        with pytest.raises(ValueError, match="K_F and K_rev"):
            CumulantSet(mean=Signal.zero(TimeGrid(8, 0.2)), K_F=k, K_rev=None, K_W=k)


def test_induced_sign_fault_breaks_round_trip(monkeypatch):
    """Mutation check: flipping the sign of the reordering gap must fail
    acceptance criterion 04.  rotate and unrotate would both use the flipped
    gap, so the round trip alone cannot see it; the four-projection formula
    does."""
    from keldrot.acceptance import criterion_rotation_roundtrip

    gap = rotation.reorder_gap_kernel

    def flipped_gap(D_R, hbar_c=1.0):
        z = gap(D_R, hbar_c)
        return TwoPointKernel(z.grid, -z.values)

    monkeypatch.setattr(rotation, "reorder_gap_kernel", flipped_gap)
    ctl = synthetic_cumulants(GRID, np.random.default_rng(13))
    back = unrotate(rotate(ctl, OrderingParam(0.3)))
    scale = np.abs(ctl.K_F.values).max()
    assert np.abs(back.K_F.values - ctl.K_F.values).max() < 1e-8 * scale
    result = criterion_rotation_roundtrip()
    assert not result.passed
    assert result.details["four_projection"] > 1e-3


def test_corrupted_weyl_image_fails_criterion(monkeypatch):
    """Mutation check: flipping the Wightman term of the Weyl image must fail
    acceptance criterion 04."""
    from keldrot.acceptance import criterion_rotation_roundtrip

    weyl = rotation._weyl_image

    def corrupted(ctl):
        rot = weyl(ctl)
        rot.N_s = TwoPointKernel(GRID, 0.5 * np.real(ctl.K_F.values - ctl.K_W.values))
        return rot

    monkeypatch.setattr(rotation, "_weyl_image", corrupted)
    result = criterion_rotation_roundtrip()
    assert not result.passed
    assert result.details["roundtrip"] > 1e-3
    assert result.details["four_projection"] > 1e-3


def complex_gap_oracle(d_r, hbar_c=1.0):
    """The complex-projection route: Z = -hbar c (Y + Y^T) with
    Y = Im F^-_t' D_R - (1/2) Im D_R."""
    im_c = project_kernel_axis(d_r, 1, "-").values.imag - 0.5 * d_r.values.imag
    return -hbar_c * (im_c + im_c.T)


class TestRealRotation:
    """D_R is stored real for a Hermitian field, and Z is taken from Re D_R
    alone on the half spectrum; the complex routes are the oracles."""

    @pytest.mark.parametrize("n", [96, 97])
    @pytest.mark.parametrize("imaginary", [False, True])
    def test_gap_matches_complex_projection_route(self, n, imaginary):
        grid = TimeGrid(n, 0.12)
        rng = np.random.default_rng(n)
        d = retarded_response_grid(OscillatorSpec(omega0=0.9), grid)
        d += np.tril(rng.normal(size=(n, n)))
        if imaginary:
            d = d + 1j * np.tril(rng.normal(size=(n, n)))
        d_r = TwoPointKernel(grid, d)
        for hbar_c in (1.0, 0.3):
            z = complex_gap_oracle(d_r, hbar_c)
            gap = reorder_gap_kernel(d_r, hbar_c).values
            assert gap.dtype == np.float64
            assert np.abs(gap - z).max() < 1e-12 * np.abs(z).max()

    def test_gap_ignores_imaginary_response(self):
        d = retarded_response_grid(SPEC, GRID)
        noise = np.tril(np.random.default_rng(30).normal(size=d.shape))
        real = reorder_gap_kernel(TwoPointKernel(GRID, d)).values
        assert np.array_equal(reorder_gap_kernel(TwoPointKernel(GRID, d + 1j * noise)).values,
                              real)

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_hermitian_response_stored_real(self, name):
        ctl = ORACLE_SETS[name]()
        d_r = rotate(ctl, OrderingParam(0.4)).D_R.values
        assert d_r.dtype == np.float64
        direct = (ctl.K_rev.values - ctl.K_W.values) / (-1j * ctl.hbar_c)
        mask, _ = rotation._acausal_part(direct, GRID)
        direct[mask] = 0.0
        assert np.array_equal(d_r, direct.real)

    def test_non_hermitian_response_stays_complex(self):
        ctl = synthetic_cumulants(GRID, np.random.default_rng(31))
        shift = 1e-3 * np.tril(np.ones((GRID.n, GRID.n)))
        bad = dataclasses.replace(ctl, K_rev=TwoPointKernel(GRID, ctl.K_rev.values + shift))
        d_r = rotation.retarded_from_cumulants(bad).values
        assert d_r.dtype == np.complex128
        assert np.abs(d_r.imag - shift).max() < 1e-15  # shift + Re K_rev - Re K_W, rounded
        assert np.array_equal(d_r.real, rotation.retarded_from_cumulants(ctl).values)

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_unrotate_matches_complex_route(self, name):
        # the parent's complex assembly: N_0 + (i hbar c / 2)(D_R +- D_R^T)
        rot = rotate(ORACLE_SETS[name](), OrderingParam(-0.6))
        rng = np.random.default_rng(32)
        for d_r in (rot.D_R.values, rot.D_R.values + 1j * np.tril(rng.normal(size=(GRID.n,) * 2))):
            for hbar_c in (1.0, 0.3):
                r = dataclasses.replace(rot, D_R=TwoPointKernel(GRID, d_r), hbar_c=hbar_c)
                half = 0.5j * hbar_c * d_r
                n_0 = reorder(r, 0.0).N_s.values + half
                back = unrotate(r)
                scale = np.abs(n_0).max()
                assert np.abs(back.K_F.values - (n_0 + half.T)).max() < 1e-12 * scale
                assert np.abs(back.K_W.values - (n_0 - half.T)).max() < 1e-12 * scale
                assert np.array_equal(back.K_rev.values, back.K_F.values.conj())

    def test_residuals_match_out_of_place_sums(self):
        ctl = synthetic_cumulants(GRID, np.random.default_rng(33))
        rng = np.random.default_rng(34)
        bad = dataclasses.replace(ctl, K_F=TwoPointKernel(
            GRID, ctl.K_F.values + 1e-3 * rng.normal(size=(GRID.n, GRID.n))))
        f, rev, w = bad.K_F.values, bad.K_rev.values, bad.K_W.values
        scale = bad._scale()
        assert bad.consistency_residual() == float(np.abs(w + w.T - f - rev).max() / scale)
        assert bad.reversal_residual() == float(np.abs(rev - f.conj()).max() / scale)

    @pytest.mark.parametrize("n", [3, 64, 65, 130])
    def test_add_transpose_tiles(self, n):
        a = np.random.default_rng(n).normal(size=(n, n)) + 1j
        assert np.array_equal(rotation._add_transpose(a), a + a.T)
        assert np.array_equal(rotation._add_transpose(a, -1.0), a - a.T)


@pytest.mark.parametrize("hbar_c", [0.0, -1.0, np.nan, np.inf])
def test_bad_hbar_c_rejected(hbar_c):
    ctl = synthetic_cumulants(GRID, np.random.default_rng(35))
    with pytest.raises(ValueError, match="hbar_c"):
        rotate(dataclasses.replace(ctl, hbar_c=hbar_c), OrderingParam(0.3))
    rot = rotate(ctl, OrderingParam(0.3))
    with pytest.raises(ValueError, match="hbar_c"):
        unrotate(dataclasses.replace(rot, hbar_c=hbar_c))
    with pytest.raises(ValueError, match="hbar_c"):
        reorder(dataclasses.replace(rot, hbar_c=hbar_c), -0.2)
    with pytest.raises(ValueError, match="hbar_c"):
        reorder_gap_kernel(rot.D_R, hbar_c)
