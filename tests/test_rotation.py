import copy
import dataclasses
import gc
import pickle
import weakref

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
from keldrot.serialization import cumulants_from_json, cumulants_to_json
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

from common import (
    F_PM,
    acausal_part,
    circular_lags,
    hfft_gap,
    lag_index_theta,
    mask_add_transpose,
    mask_gap,
    mask_mirror_residual,
    mask_rotate,
    mask_theta_split,
    mask_unrotate,
    mask_weyl_image,
    retarded_from_cumulants,
    synthetic_outer_route,
    triple_residuals,
    triple_route,
    zero_kernel,
)

GRID = TimeGrid(96, 0.12)
W0 = GRID.resonant_frequency(7)
SPEC = OscillatorSpec(omega0=W0)


def vacuum_ctl(periodic=True):
    return ctl_cumulants(SPEC, GaussianState(), GRID, periodic=periodic)


def read_triple(k_f, k_rev, k_w, hbar_c=1.0):
    """The set that a file holding this triple of n x n arrays reads as."""
    return CumulantSet._from_triple(Signal.zero(GRID), *(TwoPointKernel(GRID, k)
                                                         for k in (k_f, k_rev, k_w)), hbar_c)


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
        k = np.cos(W0 * (t[:, None] - t[None, :])).astype(complex)
        rot = rotate(read_triple(k, k, k), OrderingParam(0.3))
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
        assert acausal_part(rot.D_R.values, GRID)[1] == 0.0

    def test_retardation_circulant(self):
        # the periodic thermal response is retarded on wrapped-positive lags,
        # so it has entries above the diagonal
        rot = rotate(ctl_cumulants(SPEC, GaussianState(nbar=0.6), GRID, periodic=True),
                     OrderingParam(0.2))
        assert np.abs(np.triu(rot.D_R.values, 1)).max() > 0.5
        assert acausal_part(rot.D_R.values, GRID)[1] == 0.0

    def test_retardation_residual_of_kernel_acausal_in_both(self):
        mask, size = acausal_part(np.ones((GRID.n, GRID.n)), GRID)
        assert mask is None and size > 0.0
        # K_F = K_W passes the CTL, reversal and Hermitian checks, but its
        # response K_rev - K_W = -2i Im K_W is acausal in both representations
        k_w = vacuum_ctl(periodic=False).K_W.values
        assert acausal_part(k_w.conj() - k_w, GRID)[0] is None
        with pytest.raises(ConsistencyError, match=r"K_F is not the theta split of K_W in "
                                                   r"either time representation: residual 2.000e\+00"):
            read_triple(k_w, k_w.conj(), k_w)

    def test_noise_hermitian_for_real_fields(self):
        rng = np.random.default_rng(2)
        n_s = rotate(synthetic_cumulants(GRID, rng), OrderingParam(0.5)).N_s.values
        assert np.abs(n_s - n_s.conj().T).max() < 1e-10 * np.abs(n_s).max()

    def test_inconsistent_input_rejected(self):
        ctl = vacuum_ctl()
        with pytest.raises(ConsistencyError, match="consistency"):
            read_triple(ctl.K_F.values + 0.1, ctl.K_rev.values, ctl.K_W.values)

    def test_non_hermitian_field_flagged(self):
        k_f = vacuum_ctl().K_F.values
        with pytest.raises(ConsistencyError, match="non-Hermitian"):
            read_triple(k_f, k_f, 0.5 * (k_f + k_f.T))  # K_rev should be conjugated


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
            hbar_c=1.0,
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
                               p=OrderingParam(1.0), hbar_c=1.0)
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
        d_r = retarded_response_grid(SPEC, GRID)
        assert reorder_gap_kernel(d_r, 1.0).values.dtype == np.float64

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
            p=rot.p, hbar_c=1.0)
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


# n = 11 is the smallest odd grid with three modes to draw from 1 .. n/2 - 2
SYNTHETIC_NS = [11, 96, 97, 256]


class TestSyntheticFactors:
    """The rank-6 factor route of `synthetic_cumulants` against the
    outer-product route it replaced (`common.synthetic_outer_route`)."""

    @pytest.mark.parametrize("n", SYNTHETIC_NS)
    def test_matches_outer_product_route_from_the_same_draws(self, n):
        grid = TimeGrid(n, 0.05)
        fast_rng, slow_rng = np.random.default_rng(n), np.random.default_rng(n)
        fast = synthetic_cumulants(grid, fast_rng)
        slow = synthetic_outer_route(grid, slow_rng)
        scale = np.abs(slow.K_W.values).max()
        assert np.abs(fast.K_W.values - slow.K_W.values).max() < 1e-13 * scale
        assert np.array_equal(fast.mean.values, slow.mean.values)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    @pytest.mark.parametrize("n", SYNTHETIC_NS)
    def test_wightman_kernel_is_exactly_hermitian(self, n):
        k_w = synthetic_cumulants(TimeGrid(n, 0.05), np.random.default_rng(n + 2)).K_W.values
        assert np.array_equal(k_w, k_w.conj().T)

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.35, 1.0])
    def test_rotated_noise_is_exactly_symmetric(self, s):
        ctl = synthetic_cumulants(TimeGrid(97, 0.05), np.random.default_rng(5))
        n_s = rotate(ctl, OrderingParam(s)).N_s.values
        assert np.array_equal(n_s, n_s.T)

    @pytest.mark.parametrize("n", [2, 8, 9])
    def test_grid_too_small_for_three_modes_refused(self, n):
        with pytest.raises(ValueError, match=f"grid.n >= 10; got grid.n = {n}$"):
            synthetic_cumulants(TimeGrid(n, 0.05), np.random.default_rng(1))

    def test_smallest_grid_accepted(self):
        ctl = synthetic_cumulants(TimeGrid(10, 0.05), np.random.default_rng(1))
        assert ctl.K_W.values.shape == (10, 10)


class TestLambda2:
    def test_identity_on_random_draws(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            ctl = synthetic_cumulants(GRID, rng)
            p = OrderingParam(rng.uniform(-1, 1))
            eta = Signal(GRID, rng.normal(size=GRID.n))
            j_s = Signal(GRID, rng.normal(size=GRID.n))
            chk = lambda2_identity_check(ctl, rotate(ctl, p), eta, j_s)
            assert chk["relative_residual"] < 1e-8
            assert abs(chk["j_quadratic_term"]) < 1e-8 * max(abs(chk["lhs"]), 1.0)

    def test_zero_eta_with_zero_mean(self):
        for seed in (11, *range(100, 140)):
            rng = np.random.default_rng(seed)
            ctl = dataclasses.replace(synthetic_cumulants(GRID, rng), mean=Signal.zero(GRID))
            j = Signal(GRID, rng.normal(size=GRID.n))
            rot = rotate(ctl, OrderingParam(0.5))
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
        chk = lambda2_identity_check(ctl, rotate(ctl, p), eta, Signal.zero(GRID))
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
        SPEC, GaussianState(nbar=0.8, m=0.6 * np.exp(0.9j)), GRID, periodic=False),
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
        bm = project_kernel_axis(d_r, 1, "-", F_PM).values
        bp = project_kernel_axis(d_r, 1, "+", F_PM).values
        for hbar_c in (1.0, 0.3):
            z = 0.5j * hbar_c * (bm + bm.T - bp - bp.T)
            gap = reorder_gap_kernel(d_r, hbar_c).values
            assert np.abs(gap - z).max() < 1e-12 * np.abs(z).max()


def parent_theta_split(k_w, periodic):
    """K_F selected by the dense theta matrix, as a set made from K_W stored it."""
    th = lag_index_theta(GRID, periodic)
    k_f = np.where(th == 1.0, k_w, k_w.T)
    tie = th == 0.5
    k_f[tie] = 0.5 * (k_w[tie] + k_w.T[tie])
    return k_f


STORED_SETS = {
    **ORACLE_SETS,
    # a real K_W: D_R is zero throughout
    "classical real": lambda: CumulantSet(
        Signal.zero(GRID),
        TwoPointKernel(GRID, np.cos(W0 * (GRID.times[:, None] - GRID.times[None, :]))),
        1.0, False),
}


# the term that each refusal of `unrotate` names
UNROTATE_REFUSALS = {
    "acausal D_R": r"hbar c max \|D_R\| where theta = 0 = ",
    # K_F(t,t) = N_0 + i hbar c D_R(t,t) would be complex, which
    # <T+ A(t) A(t)> of a Hermitian field cannot be
    "equal-time D_R": r"\(hbar c / 2\) max \|D_R \+ D_R\^T\| where theta = 1/2 = 2.000e-01",
    "asymmetric N_0": r"max \|N_0 - N_0\^T\| = 2.000e-03",
    "complex D_R": r"D_R must be real for a Hermitian field: max \|Im D_R\| = 1.000e-03",
}


class TestStoredWightman:
    """A set stored by K_W against the triple route on its K_F, K_rev and K_W."""

    @pytest.mark.parametrize("name", STORED_SETS)
    @pytest.mark.parametrize("s", [-0.35, 0.0, 1.0])
    def test_rotate_matches_explicit_triple_bit_for_bit(self, name, s):
        # bit for bit, but for the sign of D_R's zeros where theta = 0 (the
        # triple route divides a zero by -hbar c) and on the diagonal
        ctl = STORED_SETS[name]()
        stored, triple = rotate(ctl, OrderingParam(s)), triple_route(ctl, OrderingParam(s))
        assert np.array_equal(stored.D_R.values, triple.D_R.values)
        assert stored.D_R.values.dtype == triple.D_R.values.dtype == np.float64
        assert stored.N_s.values.tobytes() == triple.N_s.values.tobytes()

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_derived_kernels_are_the_dense_theta_split(self, name):
        ctl = ORACLE_SETS[name]()
        k_f = parent_theta_split(ctl.K_W.values, ctl.periodic)
        assert np.array_equal(ctl.K_F.values, k_f)
        assert np.array_equal(ctl.K_rev.values, k_f.conj())
        # the file of the triple reads as the set stored by its K_W, in the
        # same time representation
        text = cumulants_to_json(ctl)
        back = cumulants_from_json(text)
        assert back.periodic == ctl.periodic and cumulants_to_json(back) == text

    @pytest.mark.parametrize("n", [7, 8, 96, 97])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_theta_masks_match_theta_matrix(self, n, periodic):
        # oracle: the dense construction from the lag index
        grid = TimeGrid(n, 0.1)
        dense = lag_index_theta(grid, periodic)
        if not periodic:
            th = theta_ordering_matrix(grid)
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
            CumulantSet(Signal.zero(GRID), TwoPointKernel(GRID, k_w), 1.0, True)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(3, 5), (4, 4), (0, 95)])
    def test_non_finite_wightman_entry_refused(self, bad, where):
        # one entry is enough: the tiled residual must not drop it as max() drops NaN
        k_w = vacuum_ctl().K_W.values.copy()
        k_w[where] = bad
        with pytest.raises(ConsistencyError, match="not Hermitian: residual nan"):
            CumulantSet(Signal.zero(GRID), TwoPointKernel(GRID, k_w), 1.0, True)

    @pytest.mark.parametrize("name", ["K_F", "K_rev", "K_W"])
    def test_non_finite_triple_entry_fails_validation(self, name):
        ctl = synthetic_cumulants(GRID, np.random.default_rng(3))
        kernels = {k: getattr(ctl, k).values.copy() for k in ("K_F", "K_rev", "K_W")}
        kernels[name][7, 2] = np.nan
        with pytest.raises(ConsistencyError, match="residual nan"):
            read_triple(kernels["K_F"], kernels["K_rev"], kernels["K_W"])

    def test_tighter_tolerance_checks_the_stored_residual(self):
        # the Hermitian residual is measured once, kept as `residual` (which
        # the rotate and unrotate manifests report), and held to 1e-8
        k_w = vacuum_ctl().K_W.values.copy()
        k_w[3, 5] += 1e-10
        ctl = CumulantSet(Signal.zero(GRID), TwoPointKernel(GRID, k_w), 1.0, True)
        worst, size = rotation._mirror_residual(k_w)
        assert ctl.residual == worst / size and 1e-10 < ctl.residual < 1e-8
        rotate(ctl, OrderingParam(0.2))
        k_w[3, 5] += 1e-8
        with pytest.raises(ConsistencyError, match="not Hermitian: residual 2.0"):
            CumulantSet(Signal.zero(GRID), TwoPointKernel(GRID, k_w), 1.0, True)

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_unrotate_stores_the_wightman_kernel(self, name):
        ctl = ORACLE_SETS[name]()
        back = unrotate(rotate(ctl, OrderingParam(0.7)))
        fields = [f.name for f in dataclasses.fields(back)]
        assert fields == ["mean", "K_W", "hbar_c", "periodic"] and back.periodic == ctl.periodic

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_unrotate_measures_the_asymmetry_once(self, name, monkeypatch):
        # one pass over N_0 gives the split rule's asymmetry and the stored
        # set's Hermitian residual, equal to the one K_W itself gives: on
        # n x n data one walk over mirrored tile pairs, on a lag profile one
        # `_mirror_residual`
        rot = rotate(ORACLE_SETS[name](), OrderingParam(0.7))
        calls = []
        walk, mirror = rotation._pairs, rotation._mirror_residual
        monkeypatch.setattr(rotation, "_pairs", lambda n: calls.append(("walk", n)) or walk(n))
        monkeypatch.setattr(rotation, "_mirror_residual",
                            lambda a: calls.append(("mirror", a.shape)) or mirror(a))
        back = unrotate(rot)
        profile = rot.D_R.profile is not None
        assert calls == ([("mirror", (GRID.n,))] if profile else [("walk", GRID.n)])
        worst, size = mirror(back.K_W.values)
        assert back.residual == worst / max(size, 1e-300)

    @pytest.mark.parametrize("case", UNROTATE_REFUSALS)
    def test_unrotate_names_what_fails(self, case):
        rot = rotate(vacuum_ctl(periodic=False), OrderingParam(0.3))
        n = GRID.n
        if case == "acausal D_R":
            rot.D_R = TwoPointKernel(GRID, np.random.default_rng(36).normal(size=(n, n)))
        elif case == "equal-time D_R":
            rot.D_R = TwoPointKernel(GRID, rot.D_R.values + 0.2 * np.eye(n))
        elif case == "asymmetric N_0":
            step = np.zeros((n, n))
            step[5, 2], step[2, 5] = 1e-3, -1e-3
            rot.N_s = TwoPointKernel(GRID, rot.N_s.values + step)
        else:  # assigned past RotatedCumulants' check, as a caller may
            rot.D_R = TwoPointKernel(GRID, rot.D_R.values + 1e-3j * np.eye(n, k=-1))
        with pytest.raises(ConsistencyError, match=UNROTATE_REFUSALS[case]):
            unrotate(rot)

    def test_kernels_on_another_grid_refused(self):
        k = TwoPointKernel(TimeGrid(8, 0.2), np.zeros((8, 8)))
        with pytest.raises(ValueError, match="D_R is on TimeGrid"):
            RotatedCumulants(Signal.zero(TimeGrid(8, 0.1)), k, zero_kernel(TimeGrid(8, 0.1)),
                             OrderingParam(0.0), hbar_c=1.0)
        with pytest.raises(ValueError, match="K_W is on TimeGrid"):
            CumulantSet(mean=Signal.zero(TimeGrid(8, 0.1)), K_W=k, hbar_c=1.0, periodic=False)
        with pytest.raises(ValueError, match="K_F is on TimeGrid"):
            CumulantSet._from_triple(Signal.zero(TimeGrid(8, 0.1)), k,
                                     *[zero_kernel(TimeGrid(8, 0.1))] * 2, hbar_c=1.0)


def random_response(n, layout):
    """A random real response on a grid of n: dense and lower triangular,
    or a circulant lag profile."""
    grid = TimeGrid(n, 0.05)
    rng = np.random.default_rng(n)
    if layout == "profile":
        return TwoPointKernel.circulant(grid, rng.normal(size=n))
    return TwoPointKernel(grid, np.tril(rng.normal(size=(n, n))))


def kept_gap_sets():
    """A dense set and a circulant set on the circle."""
    return {"synthetic": synthetic_cumulants(GRID, np.random.default_rng(41)),
            "thermal": ctl_cumulants(SPEC, GaussianState(nbar=0.4), GRID, periodic=True)}


def fresh_copy(rot):
    """A set built from the same arrays as `rot`, with no gap kept."""
    return RotatedCumulants(rot.mean, rotation._kernel(GRID, rotation._data(rot.D_R)[0]),
                            rotation._kernel(GRID, rotation._data(rot.N_s)[0]), rot.p, rot.hbar_c)


def unshared(ctl):
    """`ctl` on a copy of its K_W data, so it shares no kept response."""
    k_w = rotation._kernel(ctl.grid, rotation._data(ctl.K_W)[0].copy())
    return dataclasses.replace(ctl, K_W=k_w)


def counted_gaps(monkeypatch):
    """A list that grows by one on every `reorder_gap_kernel` call."""
    calls, gap = [], rotation.reorder_gap_kernel

    def counted(D_R, hbar_c):
        calls.append(D_R)
        return gap(D_R, hbar_c)

    monkeypatch.setattr(rotation, "reorder_gap_kernel", counted)
    return calls


class TestKeptGap:
    """The rfft/irfft gap against the ihfft/hfft route it replaced
    (`common.hfft_gap`), and the gap a rotated set keeps against the gap
    computed afresh on the same arrays."""

    @pytest.mark.parametrize("layout", ["dense", "profile"])
    @pytest.mark.parametrize("n", [128, 1024])
    def test_gap_bit_equal_to_hfft_route_at_power_of_two(self, n, layout):
        d_r = random_response(n, layout)
        got, want = reorder_gap_kernel(d_r, 1.0), hfft_gap(d_r, 1.0)
        assert np.array_equal(rotation._data(got)[0], rotation._data(want)[0])

    @pytest.mark.parametrize("layout", ["dense", "profile"])
    @pytest.mark.parametrize("n", [127, 383, 384])
    def test_gap_matches_hfft_route(self, n, layout):
        d_r = random_response(n, layout)
        got, want = rotation._data(reorder_gap_kernel(d_r, 0.8), hfft_gap(d_r, 0.8))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["synthetic", "thermal"])
    def test_kept_gap_bit_equal_to_a_fresh_set(self, name):
        rot = rotate(kept_gap_sets()[name], OrderingParam(0.3))
        assert "gap" in rot.D_R._kept
        fresh = fresh_copy(rot)
        for s_new in (-0.6, 1.0):
            got, want = (rotation._data(reorder(r, s_new).N_s)[0] for r in (rot, fresh))
            assert got.ndim == want.ndim and np.array_equal(got, want)
        got, want = (rotation._data(unrotate(r).K_W)[0] for r in (rot, fresh))
        assert got.ndim == want.ndim and np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["synthetic", "thermal"])
    def test_one_gap_per_chain(self, name, monkeypatch):
        calls = counted_gaps(monkeypatch)
        rot = rotate(kept_gap_sets()[name], OrderingParam(0.3))
        reordered = reorder(rot, -0.4)
        unrotate(rot)
        reorder(reordered, 0.9)
        unrotate(reordered)
        assert len(calls) == 1

    def test_response_read_only_and_noise_written_through(self):
        rot = rotate(kept_gap_sets()["synthetic"], OrderingParam(0.3))
        before = reorder(rot, -0.2).N_s.values.copy()
        with pytest.raises(ValueError, match="read-only"):
            rot.D_R.values[1, 0] += 1.0
        rot.N_s.values[2, 5] += 1.0
        moved = reorder(rot, -0.2).N_s.values - before
        assert abs(moved[2, 5] - 1.0) < 1e-12
        moved[2, 5] = 0.0
        assert not moved.any()

    def test_new_response_data_gets_its_own_gap(self, monkeypatch):
        calls = counted_gaps(monkeypatch)
        rot = rotate(kept_gap_sets()["thermal"], OrderingParam(0.3))
        reorder(rot, -0.2)
        rot.D_R.values  # lays the circulant D_R out: new data, writable
        assert rot.D_R.values.flags.writeable
        laid_out = reorder(rot, -0.2)
        assert len(calls) == 2 and laid_out.N_s.profile is None
        assert np.array_equal(laid_out.N_s.values, reorder(fresh_copy(rot), -0.2).N_s.values)
        rot.D_R = TwoPointKernel(GRID, 2.0 * rot.D_R.values)
        assert np.array_equal(reorder(rot, -0.2).N_s.values,
                              reorder(fresh_copy(rot), -0.2).N_s.values)
        rot.D_R.values.flags.writeable = True  # writes allowed again: the kept gap is dropped
        rot.D_R.values[4, 1] += 1.0
        assert np.array_equal(reorder(rot, -0.2).N_s.values,
                              reorder(fresh_copy(rot), -0.2).N_s.values)
        assert len(calls) == 7

    def test_new_hbar_c_gets_its_own_gap(self):
        rot = rotate(synthetic_cumulants(GRID, np.random.default_rng(1)), OrderingParam(0.3))
        before = reorder(rot, -0.2).N_s.values
        rot.hbar_c = 2.0
        got = reorder(rot, -0.2).N_s.values
        assert np.array_equal(got, reorder(fresh_copy(rot), -0.2).N_s.values)
        assert np.abs(got - before).max() > 0.1 * np.abs(before).max()

    @pytest.mark.parametrize("name", ["synthetic", "thermal"])
    def test_one_gap_for_two_rotations_of_a_set(self, name, monkeypatch):
        calls = counted_gaps(monkeypatch)
        ctl = kept_gap_sets()[name]
        rot1 = rotate(ctl, OrderingParam(0.3))
        rot2 = rotate(ctl, OrderingParam(-0.7))
        reorder(rot2, 0.9)
        unrotate(rot2)
        unrotate(rot1)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["synthetic", "thermal"])
    def test_second_rotation_shares_the_response_bit_equal(self, name):
        ctl = kept_gap_sets()[name]
        rot1 = rotate(ctl, OrderingParam(0.3))
        rot2 = rotate(ctl, OrderingParam(-0.7))
        assert np.shares_memory(rotation._data(rot1.D_R)[0], rotation._data(rot2.D_R)[0])
        fresh = rotate(unshared(ctl), OrderingParam(-0.7))
        for got, want in ((rot2.N_s, fresh.N_s), (rot2.D_R, fresh.D_R),
                          (unrotate(rot2).K_W, unrotate(fresh).K_W)):
            got, want = rotation._data(got)[0], rotation._data(want)[0]
            assert got.ndim == want.ndim and np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["synthetic", "thermal"])
    @pytest.mark.parametrize("change", ["K_W", "hbar_c"])
    def test_changed_set_gets_a_fresh_response(self, name, change, monkeypatch):
        calls = counted_gaps(monkeypatch)
        ctl = kept_gap_sets()[name]
        rot1 = rotate(ctl, OrderingParam(0.3))
        if change == "hbar_c":
            ctl.hbar_c = 2.0
        else:  # a Hermitian write into Im K_W where theta = 1
            k_w = rotation._data(ctl.K_W)[0]
            if k_w.ndim == 1:
                k_w[5] += 0.1j
                k_w[-5] -= 0.1j
            else:
                k_w[7, 3] += 0.1j
                k_w[3, 7] -= 0.1j
        rot2 = rotate(ctl, OrderingParam(-0.7))
        assert len(calls) == 2
        assert not np.shares_memory(rotation._data(rot1.D_R)[0], rotation._data(rot2.D_R)[0])
        fresh = rotate(unshared(ctl), OrderingParam(-0.7))
        for got, want in ((rot2.N_s, fresh.N_s), (rot2.D_R, fresh.D_R)):
            assert np.array_equal(rotation._data(got)[0], rotation._data(want)[0])

    def test_response_shared_across_hbar_c(self, monkeypatch):
        """The kept gap is Z at hbar c = 1, so a set whose D_R keeps its bytes
        when hbar c changes shares one D_R and one gap across both: a real
        K_W (D_R = 0), and a synthetic K_W whose Im K_W doubles with hbar c."""
        calls = counted_gaps(monkeypatch)
        k_w = TwoPointKernel(GRID, kept_gap_sets()["synthetic"].K_W.values.real + 0j)
        real = CumulantSet(Signal.zero(GRID), k_w, 1.0, False)
        for ctl in (real, kept_gap_sets()["synthetic"]):
            rot1 = rotate(ctl, OrderingParam(0.3))
            ctl.hbar_c = 2.0
            ctl.K_W.values.imag *= 2.0
            rot2 = rotate(ctl, OrderingParam(0.3))
            assert rot2.hbar_c == 2.0 and rot2.D_R is rot1.D_R
            fresh = rotate(unshared(ctl), OrderingParam(0.3))
            assert not np.shares_memory(rot2.D_R.values, fresh.D_R.values)
            assert np.array_equal(rot2.N_s.values, fresh.N_s.values)
        assert len(calls) == 4  # one per set, and one per fresh set
        assert not np.array_equal(rot1.N_s.values, rot2.N_s.values)

    @pytest.mark.parametrize("name", ["synthetic", "thermal"])
    def test_hand_built_set_shares_the_kept_gap(self, name, monkeypatch):
        calls = counted_gaps(monkeypatch)
        rot = rotate(kept_gap_sets()[name], OrderingParam(0.3))
        other = RotatedCumulants(rot.mean, rot.D_R, reorder(rot, -0.5).N_s, OrderingParam(0.1),
                                 rot.hbar_c)
        got = reorder(other, 0.9).N_s
        unrotate(other)
        assert len(calls) == 1
        got, want = (rotation._data(k)[0] for k in (got, reorder(fresh_copy(other), 0.9).N_s))
        assert got.ndim == want.ndim and np.array_equal(got, want)

    @pytest.mark.parametrize("hbar_c", [0.8, 1.0, 2.0])
    @pytest.mark.parametrize("name", ["synthetic", "thermal"])
    def test_reorder_scales_the_kept_gap_by_hbar_c(self, name, hbar_c):
        """N_s' = N_s + (s - s') Z against Z = `reorder_gap_kernel(D_R, hbar c)`:
        bit-equal at hbar c = 1, where the kept gap is Z itself."""
        rot = rotate(dataclasses.replace(kept_gap_sets()[name], hbar_c=hbar_c), OrderingParam(0.3))
        got = rotation._data(reorder(rot, -0.6).N_s)[0]
        n_s, z = rotation._data(rot.N_s, reorder_gap_kernel(rot.D_R, hbar_c))
        want = n_s + (rot.p.s - -0.6) * z
        assert got.ndim == want.ndim
        if hbar_c == 1.0:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_signed_zero_not_shared(self, monkeypatch):
        calls = counted_gaps(monkeypatch)
        k_w = TwoPointKernel(GRID, kept_gap_sets()["synthetic"].K_W.values.real + 0j)
        ctl = CumulantSet(Signal.zero(GRID), k_w, 1.0, False)
        rot1 = rotate(ctl, OrderingParam(0.3))
        ctl.K_W.values.imag[5, 2] = -0.0  # theta = 1 there: D_R[5, 2] becomes -0.0
        rot2 = rotate(ctl, OrderingParam(0.3))
        assert np.array_equal(rot1.D_R.values, rot2.D_R.values)
        assert np.signbit(rot2.D_R.values[5, 2]) and not np.signbit(rot1.D_R.values[5, 2])
        assert len(calls) == 2
        assert not np.shares_memory(rot1.D_R.values, rot2.D_R.values)

    def test_writable_or_regridded_response_not_shared(self, monkeypatch):
        calls = counted_gaps(monkeypatch)
        ctl = kept_gap_sets()["synthetic"]
        rot1 = rotate(ctl, OrderingParam(0.3))
        rot1.D_R.values.flags.writeable = True
        rot2 = rotate(ctl, OrderingParam(0.3))
        assert not np.shares_memory(rot1.D_R.values, rot2.D_R.values)
        grid = TimeGrid(GRID.n, 2.0 * GRID.dt)
        ctl.mean, ctl.K_W = Signal.zero(grid), TwoPointKernel(grid, ctl.K_W.values)
        rot3 = rotate(ctl, OrderingParam(0.3))
        assert rot3.D_R.grid == grid and np.array_equal(rot3.D_R.values, rot2.D_R.values)
        assert not np.shares_memory(rot2.D_R.values, rot3.D_R.values)
        assert len(calls) == 3

    def test_rotated_set_pickles(self):
        ctl = kept_gap_sets()["synthetic"]
        rot = rotate(ctl, OrderingParam(0.3))
        back = pickle.loads(pickle.dumps(ctl))
        assert back.K_W._kept == {} and "response" in ctl.K_W._kept
        assert np.array_equal(rotate(back, OrderingParam(0.3)).N_s.values, rot.N_s.values)

    @pytest.mark.parametrize("name", ["synthetic", "thermal"])
    def test_set_keeps_no_response_alive(self, name):
        ctl = kept_gap_sets()[name]
        rot1 = rotate(ctl, OrderingParam(0.3))
        refs = [weakref.ref(rotation._data(rot1.D_R)[0]), weakref.ref(rotation._gap_of(rot1.D_R))]
        del rot1
        gc.collect()
        assert [r() for r in refs] == [None, None]
        rot2 = rotate(ctl, OrderingParam(0.3))
        assert rot2.D_R.grid == ctl.grid


class TestKeptData:
    """What rotation keeps for a kernel's data (`TwoPointKernel._kept`)
    goes with that data: a new or laid-out array drops it, and a pickled or
    copied kernel carries none of it."""

    @pytest.mark.parametrize("name", ["synthetic", "thermal"])
    def test_pickled_or_copied_kernel_keeps_nothing(self, name):
        ctl = kept_gap_sets()[name]
        rot = rotate(ctl, OrderingParam(0.3))
        assert "gap" in rot.D_R._kept and "response" in ctl.K_W._kept
        for kernel in (rot.D_R, ctl.K_W):
            for back in (pickle.loads(pickle.dumps(kernel)), copy.copy(kernel),
                         copy.deepcopy(kernel)):
                assert back._kept == {} and back.grid == kernel.grid
                assert np.array_equal(rotation._data(back)[0], rotation._data(kernel)[0])
        assert copy.deepcopy(rot).D_R._kept == {} and copy.copy(ctl).K_W is ctl.K_W

    def test_rotated_set_pickles_without_its_gap(self):
        rot = rotate(synthetic_cumulants(TimeGrid(1024, 0.05), np.random.default_rng(7)),
                     OrderingParam(0.3))
        data = pickle.dumps(rot)
        assert len(data) <= 17e6  # mean, D_R and N_s; the n x n gap would add 8.4 MB
        back = pickle.loads(data)
        assert back.D_R._kept == {}
        for s_new in (-0.6, 1.0):
            got, want = (reorder(r, s_new).N_s.values for r in (back, rot))
            assert np.array_equal(got, want)
        assert np.array_equal(unrotate(back).K_W.values, unrotate(rot).K_W.values)

    @pytest.mark.parametrize("name", ["synthetic", "thermal"])
    def test_old_data_and_gap_freed_on_new_data(self, name):
        """A `values` assignment, or the layout of a circulant D_R, frees
        the old data and the gap kept for it."""
        rot = rotate(kept_gap_sets()[name], OrderingParam(0.3))
        for _ in range(2):
            old = rotation._data(rot.D_R)[0]
            refs = [weakref.ref(old), weakref.ref(rotation._gap_of(rot.D_R))]
            if old.ndim == 1:
                rot.D_R.values  # lays the profile out
            else:
                rot.D_R.values = old.copy()
            del old
            gc.collect()
            assert all(r() is None for r in refs) and rot.D_R._kept == {}
            assert np.array_equal(reorder(rot, -0.2).N_s.values,
                                  reorder(fresh_copy(rot), -0.2).N_s.values)

    @pytest.mark.parametrize("name", ["synthetic", "thermal"])
    def test_wightman_assignment_drops_the_response(self, name, monkeypatch):
        calls = counted_gaps(monkeypatch)
        ctl = kept_gap_sets()[name]
        rot1 = rotate(ctl, OrderingParam(0.3))
        ctl.K_W.values = ctl.K_W.values.copy()  # the same bytes in a new array
        assert "response" not in ctl.K_W._kept
        rot2 = rotate(ctl, OrderingParam(0.3))
        assert len(calls) == 2 and rot2.D_R is not rot1.D_R
        fresh = rotate(unshared(ctl), OrderingParam(0.3))
        assert np.array_equal(rot2.N_s.values, fresh.N_s.values)

    @pytest.mark.parametrize("name", ["synthetic", "thermal"])
    def test_sets_on_one_wightman_kernel_share_one_gap(self, name, monkeypatch):
        calls = counted_gaps(monkeypatch)
        ctl = kept_gap_sets()[name]
        other = dataclasses.replace(ctl)
        assert other.K_W is ctl.K_W
        rot1 = rotate(ctl, OrderingParam(0.3))
        rot2 = rotate(other, OrderingParam(-0.7))
        unrotate(rot2)
        assert len(calls) == 1 and rot2.D_R is rot1.D_R


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
    im_c = project_kernel_axis(d_r, 1, "-", F_PM).values.imag - 0.5 * d_r.values.imag
    return -hbar_c * (im_c + im_c.T)


class TestRealRotation:
    """D_R is stored real for a Hermitian field, and Z is taken from Re D_R
    alone on the half spectrum; the complex routes are the oracles."""

    @pytest.mark.parametrize("n", [96, 97])
    @pytest.mark.parametrize("imaginary", [False, True])
    def test_gap_matches_complex_projection_route(self, n, imaginary):
        grid = TimeGrid(n, 0.12)
        rng = np.random.default_rng(n)
        d = retarded_response_grid(OscillatorSpec(omega0=0.9), grid).values
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
        d = retarded_response_grid(SPEC, GRID).values
        noise = np.tril(np.random.default_rng(30).normal(size=d.shape))
        real = reorder_gap_kernel(TwoPointKernel(GRID, d), 1.0).values
        assert np.array_equal(reorder_gap_kernel(TwoPointKernel(GRID, d + 1j * noise), 1.0).values,
                              real)

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_hermitian_response_stored_real(self, name):
        ctl = ORACLE_SETS[name]()
        d_r = rotate(ctl, OrderingParam(0.4)).D_R.values
        assert d_r.dtype == np.float64
        direct = (ctl.K_rev.values - ctl.K_W.values) / (-1j * ctl.hbar_c)
        mask, _ = acausal_part(direct, GRID)
        direct[mask] = 0.0
        assert np.array_equal(d_r, direct.real)

    def test_non_hermitian_part_kept_out_of_response(self):
        # a real shift of K_rev would not enter the triple route's D_R, which
        # reads Im(K_rev - K_W) alone; a file holding one is refused, and the
        # set stored by K_W gives the triple route's real D_R
        ctl = synthetic_cumulants(GRID, np.random.default_rng(31))
        shift = 1e-3 * np.tril(np.ones((GRID.n, GRID.n)))
        with pytest.raises(ConsistencyError, match="consistency identity"):
            read_triple(ctl.K_F.values, ctl.K_rev.values + shift, ctl.K_W.values)
        d_r = rotate(ctl, OrderingParam(0.2)).D_R.values
        assert d_r.dtype == retarded_from_cumulants(ctl).values.dtype == np.float64
        assert np.array_equal(d_r, retarded_from_cumulants(ctl).values)

    @pytest.mark.parametrize("name", ORACLE_SETS)
    def test_unrotate_matches_complex_route(self, name):
        # the parent's complex assembly: N_0 + (i hbar c / 2)(D_R +- D_R^T)
        rot = rotate(ORACLE_SETS[name](), OrderingParam(-0.6))
        d_r = rot.D_R.values
        for hbar_c in (1.0, 0.3):
            r = dataclasses.replace(rot, hbar_c=hbar_c)
            half = 0.5j * hbar_c * d_r
            n_0 = reorder(r, 0.0).N_s.values + half
            back = unrotate(r)
            scale = np.abs(n_0).max()
            assert np.abs(back.K_F.values - (n_0 + half.T)).max() < 1e-12 * scale
            assert np.abs(back.K_W.values - (n_0 - half.T)).max() < 1e-12 * scale
            assert np.array_equal(back.K_rev.values, back.K_F.values.conj())
        # a complex D_R has no Hermitian field's set: refused where it is made
        rng = np.random.default_rng(32)
        complex_d_r = d_r + 1j * np.tril(rng.normal(size=(GRID.n,) * 2))
        with pytest.raises(ConsistencyError, match="D_R must be real"):
            dataclasses.replace(rot, D_R=TwoPointKernel(GRID, complex_d_r))

    @pytest.mark.parametrize("layout", ["values", "profile"])
    def test_zero_imaginary_part_stored_real(self, layout):
        rot = rotate(ORACLE_SETS["periodic thermal"](), OrderingParam(0.4))
        assert rot.D_R.profile is not None and rot.N_s.profile is not None
        kernels = {}
        for name in ("D_R", "N_s"):
            data = getattr(getattr(rot, name), layout)
            kernels[name] = (TwoPointKernel.circulant(GRID, data + 0j) if layout == "profile"
                             else TwoPointKernel(GRID, data + 0j))
        again = RotatedCumulants(rot.mean, kernels["D_R"], kernels["N_s"], rot.p, rot.hbar_c)
        for name in ("D_R", "N_s"):
            got = getattr(getattr(again, name), layout)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert np.array_equal(got, getattr(getattr(rot, name), layout))

    @pytest.mark.parametrize("name", ["D_R", "N_s"])
    @pytest.mark.parametrize("im", [1e-300, np.nan])
    def test_imaginary_entry_refused(self, name, im):
        rot = rotate(ORACLE_SETS["squeezed synthetic"](), OrderingParam(0.4))
        values = getattr(rot, name).values.astype(complex)
        values[7, 2] += 1j * im
        with pytest.raises(ConsistencyError, match=f"{name} must be real .* = {im:.3e}"):
            dataclasses.replace(rot, **{name: TwoPointKernel(GRID, values)})

    def test_non_hermitian_wightman_triple_refused(self):
        # a real antisymmetric part of K_W keeps both identities (it cancels
        # in K_W + K_W^T, and K_rev = K_F*), so only the Hermitian check sees
        # it; without that check it would enter Im D_R
        ctl = synthetic_cumulants(GRID, np.random.default_rng(37))
        a = np.random.default_rng(38).normal(size=(GRID.n, GRID.n))
        k_f, k_rev, k_w = ctl.K_F.values, ctl.K_rev.values, ctl.K_W.values + 1e-3 * (a - a.T)
        ctl_res, rev_res, hermitian = triple_residuals(k_f, k_rev, k_w)
        assert ctl_res < 1e-15 and rev_res == 0.0 and hermitian > 1e-8
        with pytest.raises(ConsistencyError, match=r"^K_W is not Hermitian: residual \d"):
            read_triple(k_f, k_rev, k_w)

    def test_residuals_match_out_of_place_sums(self):
        # a K_F off by 1e-11 passes; the set's residual is the largest of the
        # reader's residuals, each as the out-of-place sums give it
        ctl = synthetic_cumulants(GRID, np.random.default_rng(33))
        rng = np.random.default_rng(34)
        f = ctl.K_F.values + 1e-11 * rng.normal(size=(GRID.n, GRID.n))
        rev, w = ctl.K_rev.values, ctl.K_W.values
        read = read_triple(f, rev, w)
        scale = max(np.abs(f).max(), np.abs(w).max(), np.abs(rev).max())
        split = float(np.abs(f - ctl.K_F.values).max() / scale)
        assert read.residual == max(*triple_residuals(f, rev, w), split)
        assert not read.periodic and 1e-12 < read.residual < 1e-10

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


WALK_SIZES = [2, 63, 64, 65, 129, 1024]


def walk_sets(n):
    """Linear-time n x n sets for the mirrored-tile walk against the mask
    route: a squeezed oscillator, the synthetic set (n >= 10), one read
    back from its file (n <= 129: at n = 1024 the file holds 3 n^2 complex
    entries), K_W Hermitian only to about 1e-10 and 1e-12, and K_W holding
    -0.0."""
    grid = TimeGrid(n, 0.05)
    rng = np.random.default_rng(n)
    osc = ctl_cumulants(OscillatorSpec(omega0=0.9), GaussianState(nbar=0.8, m=0.6 * np.exp(0.9j)),
                        grid, periodic=False)
    k_w = osc.K_W.values
    sets = {"oscillator": osc}
    if n >= 10:
        sets["synthetic"] = synthetic_cumulants(grid, rng)
    if n <= 129:
        sets["from JSON"] = cumulants_from_json(cumulants_to_json(sets.get("synthetic", osc)))
    for size in (1e-10, 1e-12):  # unrotate may refuse the first: its N_0 is as asymmetric
        noise = size * np.abs(k_w).max() * rng.normal(size=(n, n))
        sets[f"Hermitian to {size}"] = CumulantSet(osc.mean, TwoPointKernel(grid, k_w + noise),
                                                   1.0, False)
    zeros = np.triu(rng.random((n, n)) < 0.3)
    signed = k_w.copy()
    signed.real[zeros | zeros.T] = -0.0
    signed.imag[np.triu(zeros, 1)], signed.imag[np.tril(zeros.T, -1)] = -0.0, 0.0
    signed.imag[np.diag_indices(n)] = -0.0
    sets["negative zeros"] = CumulantSet(osc.mean, TwoPointKernel(grid, signed), 0.7, False)
    return sets


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def unrotated(route, rot):
    """What `route` (unrotate or its mask oracle) makes of `rot`: the bytes
    of K_W and residual and the time representation, or the refusal."""
    try:
        back = route(rot)
    except ConsistencyError as e:
        return str(e)
    return back.K_W.values.tobytes(), np.float64(back.residual).tobytes(), back.periodic


class TestMirroredTileWalk:
    """The walk over mirrored tile pairs (`rotation._pairs`) against the
    mask route it replaced (`common.mask_*`), byte for byte."""

    @pytest.mark.parametrize("n", WALK_SIZES)
    def test_steps_match_mask_route(self, n):
        for name, ctl in walk_sets(n).items():
            k_w = ctl.K_W.values
            assert same_bytes(rotation._theta_split(k_w, False), mask_theta_split(k_w, False)), name
            assert same_bytes(rotation._mirror_residual(k_w), mask_mirror_residual(k_w)), name
            for a in (k_w, k_w.real.copy(), k_w.imag.copy()):
                for sign in (1.0, -1.0):
                    assert same_bytes(rotation._add_transpose(a, sign),
                                      mask_add_transpose(a, sign)), name
            weyl, oracle = rotation._weyl_image(ctl), mask_weyl_image(ctl)
            assert same_bytes(weyl.D_R.values, oracle.D_R.values), name
            assert same_bytes(weyl.N_s.values, oracle.N_s.values), name
            assert same_bytes(reorder_gap_kernel(weyl.D_R, 0.7).values,
                              mask_gap(weyl.D_R, 0.7).values), name
            for s in (0.0, 0.45, -1.0):
                rot, oracle = rotate(ctl, OrderingParam(s)), mask_rotate(ctl, s)
                assert same_bytes(rot.D_R.values, oracle.D_R.values), name
                assert same_bytes(rot.N_s.values, oracle.N_s.values), name
                assert unrotated(unrotate, rot) == unrotated(mask_unrotate, rot), name

    def test_one_by_one_arrays_match_mask_route(self):
        for a in (np.array([[-0.0 - 0.0j]]), np.array([[1.5 - 0.25j]]), np.array([[-0.0]])):
            assert same_bytes(rotation._theta_split(a, False), mask_theta_split(a, False))
            assert same_bytes(rotation._mirror_residual(a), mask_mirror_residual(a))
            for sign in (1.0, -1.0):
                assert same_bytes(rotation._add_transpose(a, sign), mask_add_transpose(a, sign))

    @pytest.mark.parametrize("case", UNROTATE_REFUSALS)
    @pytest.mark.parametrize("n", [65, 129])
    def test_refusals_match_mask_route(self, case, n):
        grid = TimeGrid(n, 0.05)
        rot = rotate(synthetic_cumulants(grid, np.random.default_rng(n)), OrderingParam(0.3))
        if case == "acausal D_R":
            rot.D_R = TwoPointKernel(grid, np.random.default_rng(36).normal(size=(n, n)))
        elif case == "equal-time D_R":
            rot.D_R = TwoPointKernel(grid, rot.D_R.values + 0.2 * np.eye(n))
        elif case == "asymmetric N_0":
            rot.N_s = TwoPointKernel(grid, rot.N_s.values + 1e-3 * np.eye(n, k=3))
        else:
            rot.D_R = TwoPointKernel(grid, rot.D_R.values + 1e-3j * np.eye(n, k=-1))
        refusal = unrotated(unrotate, rot)
        assert isinstance(refusal, str) and refusal == unrotated(mask_unrotate, rot)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("where", [(3, 5), (70, 70), (0, 128), (128, 1)])
    def test_non_finite_entries_match_mask_route(self, where):
        # a NaN in K_W or in N_0 is refused with the residual the mask route gives
        grid = TimeGrid(129, 0.05)
        ctl = synthetic_cumulants(grid, np.random.default_rng(5))
        k_w = ctl.K_W.values.copy()
        k_w[where] = np.nan
        assert same_bytes(rotation._mirror_residual(k_w), mask_mirror_residual(k_w))
        with pytest.raises(ConsistencyError, match="not Hermitian: residual nan"):
            CumulantSet(ctl.mean, TwoPointKernel(grid, k_w), 1.0, False)
        rot = rotate(ctl, OrderingParam(0.0))
        n_0 = rot.N_s.values.copy()
        n_0[where] = np.nan
        rot.N_s = TwoPointKernel(grid, n_0)
        refusal = unrotated(unrotate, rot)
        assert "nan" in refusal and refusal == unrotated(mask_unrotate, rot)

    def test_dense_linear_time_builds_no_theta_mask(self, monkeypatch):
        def masks(n, periodic, profile=False):
            if not (periodic or profile):
                raise AssertionError(f"an n x n theta mask in linear time (n = {n})")
            return theta_masks(n, periodic, profile)

        theta_masks = grids._theta_masks
        monkeypatch.setattr(grids, "_theta_masks", masks)
        monkeypatch.setattr(rotation, "_theta_masks", masks)
        with pytest.raises(AssertionError, match="theta mask"):
            rotation._theta_masks(8, False)
        grid = TimeGrid(130, 0.05)
        for ctl in (synthetic_cumulants(grid, np.random.default_rng(8)),
                    ctl_cumulants(SPEC, GaussianState(nbar=0.5), grid, periodic=False)):
            rot = rotate(ctl, OrderingParam(0.4))
            back = unrotate(reorder(rot, -0.6))
            assert back.periodic is False and ctl.K_F.values.shape == (130, 130)


@pytest.mark.parametrize("n", [10, 63, 64, 65, 130, 1024])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_synthetic_residual_is_exactly_zero(n, seed):
    # the construction makes K_W exactly Hermitian, which is what lets
    # synthetic_cumulants hand over a residual of 0.0 instead of measuring it
    ctl = synthetic_cumulants(TimeGrid(n, 0.05), np.random.default_rng(seed))
    worst, size = rotation._mirror_residual(ctl.K_W.values)
    assert worst == 0.0 and size > 0.0 and mask_mirror_residual(ctl.K_W.values)[0] == 0.0
    assert ctl.residual == 0.0
