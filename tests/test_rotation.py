import numpy as np
import pytest

from keldrot.grids import (
    OrderingParam,
    Signal,
    TimeGrid,
    TwoPointKernel,
    pair_form,
    project_kernel_axis,
)
from keldrot.oscillator import (
    GaussianState,
    OscillatorSpec,
    ctl_cumulants,
    keldysh_contractions,
    retarded_response,
    retarded_response_grid,
)
import keldrot.rotation as rotation
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
        assert rot.retardation_residual() == 0.0

    def test_retardation_circulant(self):
        # the periodic thermal response is retarded on wrapped-positive lags,
        # so it has entries above the diagonal
        rot = rotate(ctl_cumulants(SPEC, GaussianState(nbar=0.6), GRID, periodic=True),
                     OrderingParam(0.2))
        assert np.abs(np.triu(rot.D_R.values, 1)).max() > 0.5
        assert rot.retardation_residual() == 0.0

    def test_retardation_residual_of_kernel_acausal_in_both(self):
        rot = RotatedCumulants(mean=Signal.zero(GRID),
                               D_R=TwoPointKernel(GRID, np.ones((GRID.n, GRID.n))),
                               N_s=TwoPointKernel.zero(GRID), p=OrderingParam(0.0))
        assert rot.retardation_residual() > 0.0
        k = TwoPointKernel.zero(GRID)
        acausal = CumulantSet(mean=Signal.zero(GRID), K_F=k, K_W=k,
                              K_rev=k.with_values(1j * np.ones((GRID.n, GRID.n))))
        with pytest.raises(ConsistencyError, match="not retarded"):
            rotate(acausal, OrderingParam(0.0), check=False)

    def test_noise_hermitian_for_real_fields(self):
        rng = np.random.default_rng(2)
        rot = rotate(synthetic_cumulants(GRID, rng), OrderingParam(0.5))
        assert rot.hermiticity_residual() < 1e-10

    def test_inconsistent_input_rejected(self):
        ctl = vacuum_ctl()
        bad = CumulantSet(
            mean=ctl.mean,
            K_F=ctl.K_F.with_values(ctl.K_F.values + 0.1),
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
            K_rev=ctl.K_rev.with_values(ctl.K_F.values),  # should be conjugated
            K_W=ctl.K_W.with_values(
                0.5 * (ctl.K_F.values + ctl.K_F.values.T)),
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
            D_R=TwoPointKernel.zero(GRID),
            N_s=TwoPointKernel(GRID, n.astype(complex)),
            p=OrderingParam(0.25),
        )
        ctl = unrotate(rot)
        for k in (ctl.K_F, ctl.K_W, ctl.K_rev):
            assert np.abs(k.values - n).max() < 1e-14

    def test_vacuum_response_rebuilds_contractions(self):
        # the normal-ordered rotated set {D_R, N=0} carries the full
        # vacuum information: both contractions come back out
        d_r = TwoPointKernel.from_stationary(
            GRID, lambda tau: retarded_response(SPEC, tau))
        rot = RotatedCumulants(mean=Signal.zero(GRID), D_R=d_r,
                               N_s=TwoPointKernel.zero(GRID),
                               p=OrderingParam(1.0))
        ctl = unrotate(rot)
        i = np.arange(GRID.n)
        tau_wrapped = GRID.lags[(i[:, None] - i[None, :]) % GRID.n]
        contractions = keldysh_contractions(SPEC, tau_wrapped, 0.0)
        assert np.abs(ctl.K_F.values - 1j * contractions["D_F"]).max() < 1e-8
        assert np.abs(ctl.K_W.values - 1j * contractions["D_plus"]).max() < 1e-8

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
            N_s=rot.N_s.with_values(rot.N_s.values + np.eye(GRID.n)),
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


@pytest.mark.parametrize("squeeze", [True, False])
def test_synthetic_cumulants_match_direct_exponentials(squeeze):
    # the slow route: n x n exponentials of t -+ t' per mode, from the same draws
    ctl = synthetic_cumulants(GRID, np.random.default_rng(21), squeeze=squeeze)
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
        if squeeze:
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
            chk = lambda2_identity_check(ctl, p, eta, j_s)
            assert chk["relative_residual"] < 1e-8
            assert abs(chk["j_quadratic_term"]) < 1e-8 * max(abs(chk["lhs"]), 1.0)

    def test_zero_eta_with_zero_mean(self):
        for seed in (11, *range(100, 140)):
            rng = np.random.default_rng(seed)
            ctl = synthetic_cumulants(GRID, rng, with_mean=False)
            j = Signal(GRID, rng.normal(size=GRID.n))
            chk = lambda2_identity_check(ctl, OrderingParam(0.5), Signal.zero(GRID), j)
            assert chk["rhs"] == 0
            # lhs = j K_W j - j K_F j / 2 - j K_rev j / 2 cancels only up to rounding
            size = (abs(pair_form(j, ctl.K_W, j)) + 0.5 * abs(pair_form(j, ctl.K_F, j))
                    + 0.5 * abs(pair_form(j, ctl.K_rev, j)))
            assert abs(chk["lhs"]) <= 16 * np.finfo(float).eps * size

    def test_weyl_zero_source_reduces_to_quadratic_noise_form(self):
        rng = np.random.default_rng(12)
        ctl = synthetic_cumulants(GRID, rng, with_mean=False)
        p = OrderingParam(0.0)
        eta = Signal(GRID, rng.normal(size=GRID.n))
        chk = lambda2_identity_check(ctl, p, eta, Signal.zero(GRID))
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


def test_induced_sign_fault_breaks_round_trip(monkeypatch):
    """Mutation check: flipping the sign of the reordering gap must fail
    acceptance criterion 04.  rotate and unrotate would both use the flipped
    gap, so the round trip alone cannot see it; the four-projection formula
    does."""
    from keldrot.acceptance import criterion_rotation_roundtrip

    gap = rotation.reorder_gap_kernel

    def flipped_gap(D_R, hbar_c=1.0):
        z = gap(D_R, hbar_c)
        return z.with_values(-z.values)

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
        rot.N_s = rot.N_s.with_values(0.5 * np.real(ctl.K_F.values - ctl.K_W.values))
        return rot

    monkeypatch.setattr(rotation, "_weyl_image", corrupted)
    result = criterion_rotation_roundtrip()
    assert not result.passed
    assert result.details["roundtrip"] > 1e-3
    assert result.details["four_projection"] > 1e-3
