import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from keldrot.pvreg import (
    COEFFICIENT_BOUND,
    RESIDUAL_TOL,
    PVScheme,
    asymptotic_d,
    check_moments,
    geometric_masses,
    moment_integral_exact,
    moment_sums,
    series_coeffs,
    series_coeffs_fractions,
    solve_pv,
)


@pytest.fixture(scope="module")
def scheme():
    return solve_pv(0, geometric_masses(1.0, 10.0, 6), impose_B0=True)


class TestSeriesCoeffs:
    def test_first_values(self):
        cs = series_coeffs_fractions(3)
        assert cs[0] == 1 and cs[1] == 0
        assert cs[2] == Fraction(-3, 8)
        assert cs[3] == Fraction(-1, 8)

    def test_against_symbolic_taylor(self):
        # independent oracle: mpmath Taylor expansion of F(1/u) about u = 0
        def g(u):
            return (1 + u / 2) * mp.sqrt(1 - u)

        taylor = mp.taylor(g, 0, 6)
        ours = series_coeffs(6)
        for a, b in zip(taylor, ours):
            assert float(a) == pytest.approx(b, abs=1e-14)

    def test_against_least_squares_fit(self):
        # fit F(y) - 1 on y in [1e2, 1e4] with inverse powers
        from keldrot.diracsea import F_threshold

        y = np.geomspace(1e2, 1e4, 400)
        powers = np.arange(2, 6)
        design = np.vstack([y ** (-p) for p in powers]).T
        coef, *_ = np.linalg.lstsq(design, F_threshold(y) - 1.0, rcond=None)
        cs = series_coeffs(5)
        assert coef[0] == pytest.approx(cs[2], rel=1e-6)
        assert coef[1] == pytest.approx(cs[3], rel=1e-6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            series_coeffs(-1)


class TestBuildSystem:
    def test_row_counts_with_renormalization(self):
        sch = solve_pv(0, geometric_masses(1.0, 10.0, 6), impose_B0=True)
        assert sch.row_labels == ["A(0)", "B(0)", "A(2)", "A(4)", "B(4)"]
        assert len(sch.residuals) == 5 and len(sch.d) == 6

    def test_row_counts_without_renormalization(self):
        sch = solve_pv(0, geometric_masses(1.0, 10.0, 5), impose_B0=False)
        assert sch.row_labels == ["A(0)", "A(2)", "A(4)", "B(4)"]
        assert len(sch.residuals) == 4

    def test_b2_row_absent(self):
        sch = solve_pv(1, geometric_masses(1.0, 10.0, 7), impose_B0=False)
        assert "B(2)" not in sch.row_labels
        assert "B(4)" in sch.row_labels and "B(6)" in sch.row_labels

    def test_wrong_mass_count(self):
        with pytest.raises(ValueError, match="auxiliary masses"):
            solve_pv(0, geometric_masses(1.0, 10.0, 4), impose_B0=True)

    def test_degenerate_masses(self):
        with pytest.raises(ValueError, match="increasing|degenerate"):
            solve_pv(0, [1.0, 10.0, 10.0, 100.0, 1000.0], impose_B0=False)


class TestSolve:
    def test_residuals_below_gate(self):
        scheme = solve_pv(0, geometric_masses(1.0, 1e3, 6), impose_B0=True)
        assert max(scheme.residuals) < RESIDUAL_TOL

    def test_a0_row_sums_to_zero(self):
        scheme = solve_pv(0, geometric_masses(1.0, 1e3, 6), impose_B0=True)
        total = sum((-1) ** l * d for l, d in enumerate(scheme.d))
        assert abs(total) < 1e-12

    @pytest.mark.parametrize("ratio", [1e2, 1e3, 1e4])
    def test_asymptotic_agreement(self, ratio):
        masses = geometric_masses(1.0, ratio, 6)
        scheme = solve_pv(0, masses, impose_B0=True)
        d1, d2 = asymptotic_d(masses)
        assert scheme.d[1] == pytest.approx(d1, rel=0.1)
        assert scheme.d[2] == pytest.approx(d2, rel=0.1)
        assert max(abs(x) for x in scheme.d[3:]) < 0.1

    def test_pathological_spacing_warns(self):
        x = 50.0
        masses = [1.0, np.exp(x)] + [np.exp(x) * x ** k for k in range(1, 5)]
        with pytest.warns(UserWarning, match="unbounded coefficients"):
            scheme = solve_pv(0, masses, impose_B0=True)
        assert scheme.d[2] == pytest.approx(x / np.log(x), rel=0.05)
        assert max(abs(d) for d in scheme.d[1:]) > COEFFICIENT_BOUND

    def test_double_precision_gate_raises(self):
        # double precision cannot meet the residual gate for well-separated
        # masses: it either fails the gate or the factorization collapses
        with pytest.raises(ValueError, match="residuals|singular"):
            solve_pv(0, geometric_masses(1.0, 1e3, 6), impose_B0=True,
                     precision_bits=53, max_precision_bits=53)

    def test_extended_coefficients_recorded(self):
        scheme = solve_pv(0, geometric_masses(1.0, 10.0, 5))
        assert len(scheme.d_mp) == len(scheme.d)
        assert float(mp.mpf(scheme.d_mp[1])) == pytest.approx(scheme.d[1])


class TestSchemeInvariants:
    def test_d0_fixed_to_one(self):
        with pytest.raises(ValueError, match="d_0"):
            PVScheme(M=0, masses=[1.0, 2.0], d=[2.0, 1.0], d_mp=["2", "1"])

    def test_mass_ordering_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            PVScheme(M=0, masses=[2.0, 1.0], d=[1.0, 1.0], d_mp=["1", "1"])

    def test_coefficients_required_for_every_mass(self):
        with pytest.raises(TypeError):
            PVScheme(M=0, masses=[1.0, 2.0])
        with pytest.raises(ValueError, match="coefficient count"):
            PVScheme(M=0, masses=[1.0, 2.0], d=[1.0, 1.0], d_mp=["1"])

    def test_geometric_helper(self):
        assert geometric_masses(2.0, 10.0, 3) == [2.0, 20.0, 200.0]
        with pytest.raises(ValueError):
            geometric_masses(1.0, 0.5, 3)


class TestMoments:
    def test_guaranteed_moment_is_small(self, scheme):
        top = 4.0 * scheme.masses[-1] ** 2
        mc = check_moments(scheme, 0, 1e4 * top)
        assert mc.tail_valid
        assert abs(mc.residual) < 1e-3 * mc.reference

    def test_first_moment_also_guaranteed(self, scheme):
        top = 4.0 * scheme.masses[-1] ** 2
        mc = check_moments(scheme, 1, 1e2 * top)
        assert mc.tail_valid
        assert abs(mc.residual) < 1e-3 * mc.reference

    def test_integration_warnings_counted_not_printed(self, scheme):
        top = 4.0 * scheme.masses[-1] ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            mc = check_moments(scheme, 1, 1e2 * top)
        assert mc.integration_warnings > 0
        assert check_moments(scheme, 0, 1e2 * top).integration_warnings == 0

    def test_beyond_guarantee_reported_not_small(self, scheme):
        top = 4.0 * scheme.masses[-1] ** 2
        mc = check_moments(scheme, 2, 1e2 * top)
        assert not mc.tail_valid  # the uncancelled series term diverges

    def test_unregularized_residual_grows(self):
        bare = PVScheme.unregularized(1.0)
        vals = [abs(check_moments(bare, 0, lam * 4.0).residual)
                for lam in (1e2, 1e3, 1e4)]
        assert vals[0] < vals[1] < vals[2]
        assert not check_moments(bare, 0, 400.0).tail_valid

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tail_finite_on_hard_scheme(self, n):
        # M = 3 at ratio 1e3: the thresholds reach 4e66, so the moment sums
        # overflow as floats; the exact scaled sums keep every tail finite
        hard = solve_pv(3, geometric_masses(1.0, 1e3, 12), impose_B0=True)
        top = 4.0 * hard.masses[-1] ** 2
        mc = check_moments(hard, n, 1e2 * top)
        assert mc.tail_valid
        assert math.isfinite(mc.tail)

    def test_nan_moment_sum_never_valid(self):
        # a NaN moment sum must fail the cancellation test, not pass it
        broken = PVScheme(M=0, masses=[1.0, 2.0], d=[1.0, np.nan], d_mp=["1", "nan"])
        mc = check_moments(broken, 0, 400.0)
        assert not mc.tail_valid

    def test_moment_sums_scaled_and_exact(self, scheme):
        # S_k / (4 mu_N^2)^k against the sum of the signed terms at twice
        # the digits; the solved M = 0 scheme cancels S_0, S_1 and S_2
        sums = moment_sums(scheme, 6)
        with mp.workdps(2 * (max(len(d) for d in scheme.d_mp) + 20)):
            top = 4 * mp.mpf(scheme.masses[-1]) ** 2
            for k, got in enumerate(sums):
                terms = [(-1) ** l * mp.mpf(d) * (4 * mp.mpf(m) ** 2 / top) ** k
                         for l, (d, m) in enumerate(zip(scheme.d_mp, scheme.masses))]
                assert got == pytest.approx(float(mp.fsum(terms)), rel=1e-14, abs=1e-300)
                if k <= 2:
                    assert abs(got) < 1e-60 * float(max(abs(t) for t in terms))

    def test_exact_route_on_unregularized_scheme(self):
        # the bare scheme carries d_mp = ["1"]; its exact n = 0 integral is
        # the float closed form of check_moments
        bare = PVScheme.unregularized(1.0)
        for cut in (4e2, 4e3, 4e4):
            exact = moment_integral_exact(bare, cut)
            assert exact == pytest.approx(check_moments(bare, 0, cut).integral, rel=1e-14)

    def test_exact_route_monotone_decrease(self, scheme):
        top = 4.0 * scheme.masses[-1] ** 2
        vals = [abs(moment_integral_exact(scheme, lam * top))
                for lam in (10.0, 100.0, 1000.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_exact_route_holds_on_hard_scheme(self):
        # M = 3 at ratio 1e3 needs far more than double or 60 digits; the
        # remainder sits at the level left by the solve's row residuals and
        # must neither grow with the cutoff nor move at twice the digits
        hard = solve_pv(3, geometric_masses(1.0, 1e3, 12), impose_B0=True)
        top = 4.0 * hard.masses[-1] ** 2
        vals = [moment_integral_exact(hard, lam * top) for lam in (10.0, 100.0, 1000.0)]
        assert max(abs(v) for v in vals) <= abs(vals[0]) * (1.0 + 1e-9)
        with mp.workdps(2 * (max(len(d) for d in hard.d_mp) + 20)):
            total = mp.mpf(0)
            for l, (d, mass) in enumerate(zip(hard.d_mp, hard.masses)):
                y = 1000.0 * top / (4 * mp.mpf(mass) ** 2)
                total += (-1) ** l * mp.mpf(d) * 4 * mp.mpf(mass) ** 2 * (y - 1) * mp.sqrt(1 - 1 / y)
            twice = float(total / (6 * mp.pi))
        assert vals[2] == pytest.approx(twice, rel=1e-12)

    def test_exact_route_matches_float_route(self, scheme):
        top = 4.0 * scheme.masses[-1] ** 2
        a = moment_integral_exact(scheme, 20.0 * top)
        b = check_moments(scheme, 0, 20.0 * top).integral
        assert a == pytest.approx(b, abs=1e-10 * top)

    def test_cutoff_below_top_mass_rejected(self, scheme):
        with pytest.raises(ValueError, match="cutoff"):
            check_moments(scheme, 0, 1.0)
