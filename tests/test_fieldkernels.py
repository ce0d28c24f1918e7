import numpy as np
import pytest

from keldrot.fieldkernels import photon_keldysh_pair, scalar_kernels, symmetric_k0_grid
from keldrot.grids import heaviside


def response_transform_check(k0, kvec_sq, mu_sq, eps):
    """Residuals of the kernel family rebuilt from the retarded kernel alone:
    D_A(k) = D_R(-k), D_F(k) = theta(k0) D_R(k) + theta(-k0) D_R(-k) and
    D^(+-)(k) = theta(+-k0) [D_R(k) - D_A(k)].  The Feynman and plus
    residuals leave out k0 = 0, where the theta split is 1/2."""
    ker = scalar_kernels(k0, kvec_sq, mu_sq, eps)
    d_a = scalar_kernels(-k0, kvec_sq, mu_sq, eps)["D_R"]
    comm = ker["D_R"] - d_a
    interior = k0 != 0
    return {
        "feynman_residual": np.abs(heaviside(k0) * ker["D_R"] + heaviside(-k0) * d_a
                                   - ker["D_F"])[interior].max(),
        "plus_residual": np.abs(heaviside(k0) * comm - ker["D_plus"])[interior].max(),
        "advanced_residual": np.abs(d_a - ker["D_A"]).max(),
        "minus_residual": np.abs(heaviside(-k0) * comm - ker["D_minus"]).max(),
        "commutator_residual": np.abs(comm - ker["D"]).max(),
        "completeness_residual": np.abs(ker["D_plus"] + ker["D_minus"]
                                        - (ker["D_R"] - ker["D_A"])).max(),
    }


class TestEpsilon:
    def test_positive_only(self):
        with pytest.raises(ValueError):
            scalar_kernels(1.0, 0.0, 1.0, eps=0.0)
        with pytest.raises(ValueError):
            scalar_kernels(1.0, 0.0, 1.0, eps=-1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_eps_and_mass_rejected(self, bad):
        with pytest.raises(ValueError, match="eps must be finite"):
            scalar_kernels(1.0, 0.0, 1.0, eps=bad)
        with pytest.raises(ValueError, match="mu_sq must be finite"):
            scalar_kernels(1.0, 0.0, bad, eps=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_momenta_rejected(self, bad):
        with pytest.raises(ValueError, match="k0 must be finite"):
            scalar_kernels(np.array([1.0, bad]), 0.0, 1.0, eps=1e-3)
        with pytest.raises(ValueError, match="kvec_sq must be finite"):
            scalar_kernels(1.0, bad, 1.0, eps=1e-3)
        with pytest.raises(ValueError, match="kvec_sq must be finite"):
            photon_keldysh_pair(np.array([-1.0, 1.0]), bad, 1e-3)
        with pytest.raises(ValueError, match="k0_max must be finite"):
            symmetric_k0_grid(bad, 4)

    def test_k0_grid_needs_positive_size_and_extent(self):
        with pytest.raises(ValueError, match="k0_max"):
            symmetric_k0_grid(0.0, 4)
        with pytest.raises(ValueError, match="n must be positive"):
            symmetric_k0_grid(2.0, 0)


class TestScalarKernels:
    def test_off_shell_prescription_irrelevant(self):
        ker = scalar_kernels(5.0, 0.0, mu_sq=1.0, eps=1e-6)
        base = 1.0 / (25.0 - 1.0)
        for name in ("D_R", "D_A", "D_F"):
            assert abs(ker[name] - base) < 1e-6 * abs(base)

    def test_commutator_algebra(self):
        k0 = symmetric_k0_grid(4.0, 64)
        ker = scalar_kernels(k0, 0.3, mu_sq=1.0, eps=1e-4)
        assert np.abs(ker["D"] - (ker["D_R"] - ker["D_A"])).max() == 0.0
        assert np.abs(ker["D_plus"] + ker["D_minus"] - ker["D"]).max() == 0.0

    def test_conjugation_relations(self):
        k0 = symmetric_k0_grid(4.0, 32)
        ker = scalar_kernels(k0, 0.0, mu_sq=1.0, eps=1e-3)
        assert np.abs(ker["D_A"] - ker["D_R"].conj()).max() == 0.0
        # D^(+-) and D are anti-Hermitian in momentum space
        for name in ("D_plus", "D_minus", "D"):
            assert np.abs(ker[name].conj() + ker[name]).max() < 1e-16

    def test_conjugate_sign_swap(self):
        # conjugate of the sign part of D_R equals the same sign part of the
        # reflected kernel: theta(+-k0) D_R(k)* = theta(+-k0) D_R(-k)
        k0 = symmetric_k0_grid(4.0, 32)
        theta = np.where(k0 > 0, 1.0, 0.0)
        ker = scalar_kernels(k0, 0.0, mu_sq=1.0, eps=1e-3)
        ker_flip = scalar_kernels(-k0, 0.0, mu_sq=1.0, eps=1e-3)
        lhs = theta * ker["D_R"].conj()
        rhs = theta * ker_flip["D_R"]
        assert np.abs(lhs - rhs).max() < 1e-16

    def test_reflection_conjugates_retarded(self):
        ker = scalar_kernels(2.0, 1.0, mu_sq=0.5, eps=1e-3)
        ker_m = scalar_kernels(-2.0, 1.0, mu_sq=0.5, eps=1e-3)
        assert ker_m["D_R"] == pytest.approx(np.conjugate(ker["D_R"]))


class TestResponseTransform:
    def test_dictionary_identities_exact_off_zero(self):
        # every kernel of the family rebuilt from D_R alone
        k0 = symmetric_k0_grid(5.0, 200)
        res = response_transform_check(k0, 0.0, mu_sq=1.0, eps=1e-4)
        for name in ("feynman_residual", "plus_residual", "advanced_residual",
                     "minus_residual", "commutator_residual"):
            assert res[name] < 1e-10, name
        assert res["completeness_residual"] < 1e-16

    def test_zero_bin_half_split_keeps_completeness(self):
        k0 = np.array([-2.0, 0.0, 2.0])
        res = response_transform_check(k0, 0.0, mu_sq=1.0, eps=1e-4)
        assert res["completeness_residual"] < 1e-16

    def test_photon_case_same_residuals(self):
        k0 = symmetric_k0_grid(5.0, 100)
        res = response_transform_check(k0, 0.2, mu_sq=0.0, eps=1e-4)
        assert res["feynman_residual"] < 1e-10


class TestPhotonPair:
    def test_matches_scaled_massless_scalar(self):
        # mu_vac = 1: the photon coefficients are the massless scalar's times -1
        k0 = symmetric_k0_grid(3.0, 40)
        photon = photon_keldysh_pair(k0, 0.5, eps=1e-4)
        scalar = scalar_kernels(k0, 0.5, mu_sq=0.0, eps=1e-4)
        assert np.abs(photon["D_F"] + scalar["D_F"]).max() < 1e-14
        assert np.abs(photon["D_plus"] + scalar["D_plus"]).max() < 1e-14

    def test_feynman_kernel_at_zero_frequency_keeps_its_prescription(self):
        # at k0 = 0 D_F is 1/(k^2 + i eps) by definition; the theta split of
        # D_R would give the real 1/k^2 there
        photon = photon_keldysh_pair(np.array([0.0]), 0.5, eps=1e-4)
        assert photon["D_F"][0] == pytest.approx(-1.0 / (-0.5 + 1e-4j), rel=1e-15)
        assert photon["D_F"][0].imag != 0.0
        assert photon["D_plus"][0] == 0.0

    def test_retardation_of_time_profile(self):
        # (1/2pi) integral dk0 e^{-i k0 t} D_R(k0, |k|^2) by the midpoint rule;
        # the poles sit in the lower half plane, so it vanishes for t < 0
        times = np.linspace(-8.0, 8.0, 33)
        k0_max, n_k0 = 60.0, 20000
        dk = 2.0 * k0_max / n_k0
        k0 = -k0_max + dk * (np.arange(n_k0) + 0.5)
        d_r = scalar_kernels(k0, 1.0, 0.0, 0.05)["D_R"]
        vals = np.exp(-1j * np.outer(times, k0)) @ d_r * dk / (2.0 * np.pi)
        before = np.abs(vals[times < -0.5]).max()
        after = np.abs(vals[times > 0.5]).max()
        assert before < 0.02 * after


class TestEpsilonConvergence:
    def test_on_shell_linewidth_halves(self):
        # FWHM of Im D_R at the pole scales linearly with eps
        mu_sq = 1.0
        k0 = np.linspace(0.9, 1.1, 4001)
        for eps, expect in ((1e-2, 1e-2), (5e-3, 5e-3)):
            im = -scalar_kernels(k0, 0.0, mu_sq, eps)["D_R"].imag
            half = im.max() / 2.0
            width_k2 = np.ptp((k0 ** 2)[im > half])
            assert width_k2 == pytest.approx(2 * expect, rel=0.05)

    def test_off_shell_quadratic_in_eps(self):
        # the real (principal value) part converges as eps^2; the residual
        # Lorentzian tail in the imaginary part vanishes linearly
        val = lambda e: scalar_kernels(3.0, 0.0, 1.0, e)["D_R"]
        exact = 1.0 / (9.0 - 1.0)
        r1 = abs(val(1e-2).real - exact)
        r2 = abs(val(5e-3).real - exact)
        assert r1 / r2 == pytest.approx(4.0, rel=0.05)
        i1 = abs(val(1e-2).imag)
        i2 = abs(val(5e-3).imag)
        assert i1 / i2 == pytest.approx(2.0, rel=0.05)
