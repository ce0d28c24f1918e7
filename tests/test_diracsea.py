import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from keldrot import diracsea
from keldrot.diracsea import (
    DiracSeaSpec,
    F_threshold,
    K_reg,
    K_reg_coordinate,
    Pi_F_reg,
    Pi_plus,
    Pi_R_reg,
    R0_from_scheme,
    R0_quadrature,
    R_obs,
    R_obs_finite_eps,
    kramers_kronig_real_part,
    pi_plus_closed_form,
)
from keldrot.pvreg import PVScheme, geometric_masses, moment_integral_exact, solve_pv

from common import BARE, per_band_smooth_amplitude

MINKOWSKI_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def tensor_expand(value):
    """Full 4x4 tensor (k_nu k_nu' - k^2 g_nu nu') * scalar/(-mu_vac) of a
    stored polarization value, with mu_vac = 1 and the spatial momentum
    along the first axis."""
    k_lower = np.array([value.k0, -np.sqrt(value.kvec_sq), 0.0, 0.0])
    k_sq = value.k0 ** 2 - value.kvec_sq
    tensor = np.outer(k_lower, k_lower) - k_sq * MINKOWSKI_METRIC
    return tensor * -value.scalar_part

@pytest.fixture(scope="module")
def scheme():
    return solve_pv(0, [1.0, 2.0, 4.0, 8.0, 16.0], impose_B0=False)


@pytest.fixture(scope="module")
def scheme_m1():
    return solve_pv(1, geometric_masses(1.0, 2.0, 7), impose_B0=False)


SPEC = DiracSeaSpec(mu0=1.0)
KK_BANDS = {"spacelike": (-50.0, -1e-2), "low-k": (-1e-3, 1e-3), "below": (1e-2, 3.9),
            "threshold": (3.9, 4.1), "above": (4.1, 400.0)}


class TestSpectralFunction:
    def test_below_threshold(self):
        assert F_threshold(0.5) == 0.0
        assert F_threshold(1.0) == 0.0

    def test_value_at_two(self):
        assert F_threshold(2.0) == pytest.approx(1.25 * np.sqrt(0.5))

    def test_asymptote(self):
        assert F_threshold(1e8) == pytest.approx(1.0, abs=1e-7)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-10.0, max_value=1e6, allow_nan=False))
    def test_bounded_and_supported_above_threshold(self, y):
        val = F_threshold(y)
        assert 0.0 <= val < 1.0
        if y <= 1.0:
            assert val == 0.0

    @pytest.mark.parametrize("k", range(1, 13))
    def test_just_above_threshold(self, k):
        y = 1.0 + 10.0 ** -k
        with mpmath.workdps(40):
            ym = mpmath.mpf(y)
            ref = (1 + 1 / (2 * ym)) * mpmath.sqrt(1 - 1 / ym)
            assert abs(F_threshold(y) - ref) <= 4e-16 * ref

    def test_normalization_oracle(self):
        val, _ = quad(lambda y: F_threshold(y) / y ** 2, 1, np.inf, limit=200)
        assert val == pytest.approx(0.8, abs=1e-8)


def float_path_inputs() -> list[float]:
    """A dense sweep, 1.0 and its neighbours, and the special values."""
    ys = list(np.linspace(-5.0, 50.0, 2001)) + list(np.geomspace(1.0 + 1e-15, 1e12, 1000))
    ys += [1.0, float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0)),
           0.0, -0.0, -1.0, -1e300, 5e-324, 1e300, math.inf, -math.inf, math.nan]
    return [float(y) for y in ys]


def bits(v) -> int:
    return int(np.float64(v).view(np.int64))


class TestFloatPath:
    """The float path of F_threshold against its array path, the oracle."""

    @pytest.mark.parametrize("wrap", [float, np.float64], ids=["float", "float64"])
    def test_bit_equal_to_array_path(self, wrap):
        with np.errstate(invalid="ignore"):
            for y in float_path_inputs():
                want = F_threshold(np.array([y]))[0]
                got = F_threshold(wrap(y))
                assert bits(got) == bits(want), y
                if wrap is float:
                    assert type(got) is float

    def test_int_input_takes_array_path(self):
        for y in (-3, 0, 1, 2, 7, 10 ** 6):
            got = F_threshold(y)
            assert type(got) is float and got == F_threshold(float(y))
        assert F_threshold(True) == 0.0

    @pytest.mark.parametrize("mu0", [1.0, 0.7])
    def test_r_obs_float64_input_gives_the_float_bits(self, mu0):
        # every band of R_obs: the series at |k^2| < mu0^2 of either sign,
        # the closed form below and above threshold 4 mu0^2 and spacelike
        spec = DiracSeaSpec(mu0=mu0)
        s0 = 4.0 * mu0 ** 2
        k_sqs = list(np.linspace(-3.0 * s0, 3.0 * s0, 601)) + list(np.geomspace(1e-6, 1e8, 300))
        k_sqs += [0.0, -0.0, mu0 ** 2, -mu0 ** 2, s0, float(np.nextafter(s0, np.inf)), -1e8]
        for k_sq in k_sqs:
            for k0_sign in (-1, 0, 1):
                want = R_obs(float(k_sq), spec, k0_sign)
                got = R_obs(np.float64(k_sq), spec, k0_sign)
                assert type(got) is complex
                assert (bits(got.real), bits(got.imag)) == (bits(want.real), bits(want.imag)), k_sq


class TestRegularizedSpectrum:
    def test_below_lowest_threshold_zero(self):
        scheme = solve_pv(0, geometric_masses(1.0, 10.0, 5), impose_B0=False)
        assert K_reg(3.9, scheme) == 0.0

    def test_large_argument_constant_cancels(self):
        scheme = solve_pv(0, geometric_masses(1.0, 10.0, 5), impose_B0=False)
        assert abs(K_reg(1e14, scheme)) < 1e-12

    def test_single_mass_reduces_to_bare(self):
        scheme = BARE
        k_sq = 9.0
        assert K_reg(k_sq, scheme) == pytest.approx(
            F_threshold(k_sq / 4.0) / (6 * np.pi))

    @pytest.mark.parametrize("which", ["scheme", "scheme_m1"])
    def test_scalar_closure_equals_array_route(self, request, which):
        # the quadrature integrands use the closure; the array K_reg is the
        # oracle, and the two must agree bit for bit
        sch = request.getfixturevalue(which)
        thresholds = [4.0 * m ** 2 for m in sch.masses]
        k_sqs = [0.0, 3.9, 1e14] + thresholds
        k_sqs += [float(np.nextafter(t, np.inf)) for t in thresholds]
        rng = np.random.default_rng(7)
        k_sqs += list(rng.uniform(-10.0, 2.0 * thresholds[-1], 200))
        k_sqs += list(np.exp(rng.uniform(np.log(4.0), np.log(1e12), 200)))
        k_reg = diracsea._k_reg_scalar(sch)
        for k_sq in k_sqs:
            assert k_reg(k_sq) == K_reg(k_sq, sch), k_sq


class TestDispersion:
    def test_zero_momentum(self):
        assert R_obs(0.0, SPEC) == 0j

    def test_low_k_limit(self):
        target = SPEC.alpha / (15 * np.pi)
        for k_sq in (1e-3, -1e-3):
            r = R_obs(k_sq, SPEC)
            assert r.real / k_sq == pytest.approx(target, rel=1e-3)
            assert r.imag == 0.0

    def test_imaginary_part_above_threshold(self):
        k_sq = 8.0
        r = R_obs(k_sq, SPEC, k0_sign=1)
        assert r.imag == pytest.approx(SPEC.alpha / 3 * F_threshold(2.0), rel=1e-12)
        assert R_obs(k_sq, SPEC, k0_sign=-1).imag == pytest.approx(-r.imag)

    @pytest.mark.parametrize("k0_sign", [-1, 0, 1])
    def test_imaginary_part_is_signed_spectrum(self, k0_sign):
        # above threshold Im R_obs is sign(k0) (alpha/3) F, with F from the
        # array path, exactly
        for spec in (SPEC, DiracSeaSpec(mu0=0.7)):
            s0 = 4.0 * spec.mu0 ** 2
            k_sqs = [float(np.nextafter(s0, np.inf)), 1.0001 * s0, 8.0, 50.0, 4e4]
            k_sqs += list(np.random.default_rng(5).uniform(s0, 400.0, 50))
            for k_sq in k_sqs:
                f = F_threshold(np.array([k_sq / s0]))[0]
                want = k0_sign * (spec.alpha / 3.0) * f
                assert R_obs(k_sq, spec, k0_sign).imag == want, k_sq

    def test_real_below_pair_threshold(self):
        assert R_obs(3.0, SPEC).imag == 0.0
        assert R_obs(-50.0, SPEC).imag == 0.0

    def test_finite_eps_converges_to_exact(self):
        k_sq = 8.0
        exact = R_obs(k_sq, SPEC)
        errs = [abs(R_obs_finite_eps(k_sq, SPEC, e) - exact) for e in (1e-2, 1e-3)]
        assert errs[1] < errs[0]
        assert errs[1] < 1e-5

    @pytest.mark.parametrize("k_sq", [2.0, 4.5, 10.0, -5.0, 19.9])
    def test_kramers_kronig_consistency(self, k_sq):
        kk = kramers_kronig_real_part(k_sq, SPEC)
        for sign in (1, -1):
            assert R_obs(k_sq, SPEC, k0_sign=sign).real == pytest.approx(kk, rel=1e-12)

    @pytest.mark.parametrize("band", list(KK_BANDS))
    def test_kramers_kronig_consistency_over_band(self, band):
        # the closed form against the quadrature route, across every branch
        # of R_obs; the bands are in units of mu0^2
        rng = np.random.default_rng(3)
        lo, hi = KK_BANDS[band]
        for spec in (SPEC, DiracSeaSpec(mu0=0.7)):
            s0 = 4.0 * spec.mu0 ** 2
            for k_sq in spec.mu0 ** 2 * rng.uniform(lo, hi, 20):
                kk = kramers_kronig_real_part(k_sq, spec)
                im_above = spec.alpha / 3.0 * F_threshold(k_sq / s0)
                for sign in (1, -1):
                    r = R_obs(k_sq, spec, k0_sign=sign)
                    assert r.real == pytest.approx(kk, rel=1e-12)
                    if k_sq <= s0:
                        assert r.imag == 0.0
                    else:
                        assert r.imag == pytest.approx(sign * im_above, rel=1e-14)


def test_series_coefficients_exact():
    with mpmath.workdps(60):
        ref = [float(mpmath.beta(n + 2, n + 2) / n) for n in range(1, 41)]
    assert diracsea._SERIES == ref


class TestR0:
    def test_renormalized_scheme_gives_zero(self):
        scheme = solve_pv(0, geometric_masses(1.0, 1e3, 6), impose_B0=True)
        r0 = R0_from_scheme(scheme, SPEC)
        scale = SPEC.alpha / (3 * np.pi) * max(
            abs(d) * np.log(m ** 2) for d, m in zip(scheme.d[1:], scheme.masses[1:]))
        assert abs(r0) < 1e-8 * scale

    def test_two_route_agreement_without_b0(self):
        scheme = solve_pv(0, geometric_masses(1.0, 10.0, 5), impose_B0=False)
        a = R0_from_scheme(scheme, SPEC)
        b = R0_quadrature(scheme, SPEC)
        assert a == pytest.approx(b, rel=1e-6)

    def test_empty_auxiliary_sum(self):
        assert R0_from_scheme(BARE, SPEC) == 0.0

    def test_kept_sum_follows_an_edited_scheme(self):
        # the log-moment sum is kept per scheme values, so a scheme whose
        # lists are edited in place gets the sum of its new values, the
        # same bits as the loop over them
        scheme = solve_pv(0, geometric_masses(1.0, 10.0, 5), impose_B0=False)
        other = solve_pv(0, geometric_masses(1.0, 30.0, 5), impose_B0=False)
        before = R0_from_scheme(scheme, SPEC)
        for name in ("masses", "d", "d_mp"):
            getattr(scheme, name)[:] = getattr(other, name)
        after = R0_from_scheme(scheme, SPEC)
        total = 0.0
        for l in range(1, len(other.masses)):
            total += (-1) ** l * other.d[l] * np.log(other.masses[l] ** 2 / other.masses[0] ** 2)
        assert after != before
        assert after.hex() == (-(SPEC.alpha / (3.0 * np.pi)) * total).hex()
        assert after.hex() == R0_from_scheme(other, SPEC).hex()


class TestPolarizationTensors:
    def test_renormalized_low_k(self):
        val = Pi_R_reg(1e-2, 1e-2 ** 2 - 1e-4, SPEC)  # k^2 = 1e-4
        assert val.scalar_part.real / (val.k0 ** 2 - val.kvec_sq) == pytest.approx(
            SPEC.alpha / (15 * np.pi), rel=1e-3)

    def test_reflection_conjugates(self):
        val_p = Pi_R_reg(3.0, 1.0, SPEC).scalar_part
        val_m = Pi_R_reg(-3.0, 1.0, SPEC).scalar_part
        assert val_m == pytest.approx(np.conjugate(val_p))

    def test_feynman_fixed_prescription(self):
        # Pi_F(k) = theta(k0) Pi_R(k) + theta(-k0) Pi_R(-k)
        for k0 in (3.0, -3.0):
            pf = Pi_F_reg(k0, 1.0, SPEC).scalar_part
            pr = Pi_R_reg(abs(k0), 1.0, SPEC).scalar_part
            assert pf == pytest.approx(pr)

    def test_pi_plus_matches_closed_form(self):
        for k_sq in np.linspace(4.0, 100.0, 9):
            k0 = np.sqrt(k_sq + 1.0)
            via = Pi_plus(k0, 1.0, SPEC).scalar_part
            assert abs(via - pi_plus_closed_form(k0, 1.0, SPEC)) < 1e-8

    def test_pi_plus_r0_independent(self):
        scheme = solve_pv(0, geometric_masses(1.0, 100.0, 5), impose_B0=False)
        k0 = np.sqrt(9.0)
        a = Pi_plus(k0, 1.0, SPEC).scalar_part
        b = Pi_plus(k0, 1.0, SPEC, scheme=scheme, renormalized=False).scalar_part
        assert a == b

    def test_pi_plus_negative_frequency_vanishes(self):
        assert Pi_plus(-4.0, 1.0, SPEC).scalar_part == 0.0

    def test_pi_plus_example_value(self):
        k_sq = 8.0
        k0 = np.sqrt(k_sq)
        val = Pi_plus(k0, 0.0, SPEC).scalar_part
        assert abs(val) == pytest.approx(2 * SPEC.alpha / 3 * F_threshold(2.0),
                                         rel=1e-10)

    def test_unrenormalized_needs_scheme(self):
        with pytest.raises(ValueError, match="needs a solved PV scheme"):
            Pi_R_reg(3.0, 1.0, SPEC, renormalized=False)

    def test_tensor_expansion_transverse(self):
        # the stored scalar carries a 4-transverse tensor: k^nu Pi_nu nu' = 0
        val = Pi_R_reg(3.0, 2.0, SPEC)
        tensor = tensor_expand(val)
        k_upper = MINKOWSKI_METRIC @ np.array([val.k0, -np.sqrt(val.kvec_sq), 0.0, 0.0])
        assert np.abs(k_upper @ tensor).max() <= 1e-10 * np.abs(tensor).max() * max(abs(val.k0), 1.0)
        # symmetric in the two indices
        assert np.abs(tensor - tensor.T).max() == 0.0

    def test_absorptive_threshold(self):
        # no absorption below k^2 = 4 mu0^2
        for k_sq in (0.5, 3.9):
            k0 = np.sqrt(k_sq + 1.0)
            assert Pi_R_reg(k0, 1.0, SPEC).scalar_part.imag == 0.0
            assert Pi_plus(k0, 1.0, SPEC).scalar_part == 0.0


class TestCoordinateSpace:
    def test_spacelike_vanishes(self, scheme):
        out = K_reg_coordinate(-1.0, 1, scheme)
        assert out["smooth"] == 0.0

    @pytest.mark.parametrize("x_sq", [np.nan, np.inf, -np.inf])
    def test_non_finite_interval_refused(self, scheme, x_sq):
        with pytest.raises(ValueError, match=f"x_sq must be finite, got {x_sq}"):
            K_reg_coordinate(x_sq, 1, scheme)

    def test_cone_delta_coefficient_cancels(self, scheme):
        out = K_reg_coordinate(-1.0, 1, scheme)
        # the unregularized cone coefficient at a cutoff of 4e4
        ref = abs(moment_integral_exact(BARE, 4e4)) / (4.0 * np.pi ** 2)
        assert abs(out["cone_delta_coefficient"]) < 1e-6 * ref

    def test_continuity_across_cone_m0(self, scheme):
        # M = 0 guarantees continuity only: the value vanishes at the cone
        deltas = np.array([4e-5, 1e-5, 2.5e-6])
        vals = np.array([K_reg_coordinate(d, 1, scheme,
                                          with_cone_coefficient=False)["smooth"]
                         for d in deltas])
        assert abs(vals[2]) < abs(vals[1]) < abs(vals[0])

    def test_finite_slope_needs_m1(self, scheme_m1):
        # with M = 1 the log moments cancel too and the slope stays bounded
        deltas = np.array([1.6e-4, 8e-5, 4e-5, 2e-5])
        vals = np.array([K_reg_coordinate(d, 1, scheme_m1,
                                          with_cone_coefficient=False)["smooth"]
                         for d in deltas])
        slopes = np.abs(vals / deltas)
        assert abs(vals[-1]) < abs(vals[0])
        assert slopes[-1] < slopes[0]  # bounded (in fact shrinking) slope

    @pytest.mark.parametrize("bad", [True, False, 0, 2, -2])
    def test_sign_t_must_be_plus_or_minus_one(self, scheme, bad):
        # a bool is refused by name, not read as +1 or 0
        with pytest.raises(ValueError, match=f"^sign_t must be \\+1 or -1, got {bad!r}$"):
            K_reg_coordinate(0.5, bad, scheme)

    @pytest.mark.parametrize("x_sq,sign_t,which", [
        # the benchmark's near-cone points
        (1e-5, 1, "scheme"), (2.5e-6, 1, "scheme"), (4e-5, 1, "scheme"),
        (1e-5, 1, "scheme_m1"), (2e-5, 1, "scheme_m1"),
        (1e-5, -1, "scheme"),
        # the fault point (4030 panels), 146 panels on M = 0 and 50 on M = 1
        (1e-3, 1, "fault"), (0.5, 1, "scheme"), (3e-3, 1, "scheme_m1"),
    ])
    def test_batched_threshold_panels_bit_equal_per_band_loop(self, request, x_sq, sign_t,
                                                              which):
        sch = (solve_pv(0, [1.0, 10.0, 100.0, 1e3, 1e4], impose_B0=False) if which == "fault"
               else request.getfixturevalue(which))
        out = K_reg_coordinate(x_sq, sign_t, sch, with_cone_coefficient=False)
        value, panels, abserr = per_band_smooth_amplitude(x_sq, sch)
        assert out["smooth"].hex() == (sign_t * value).hex()
        assert out["abserr"].hex() == abserr.hex()
        assert out["segments"] == panels

    def test_kept_series_follows_an_edited_scheme(self):
        # the series above the top threshold is kept per scheme values: an
        # edited scheme's amplitude is its new values' (the per-band loop
        # builds its series afresh from the scheme)
        sch = solve_pv(0, [1.0, 2.0, 4.0, 8.0, 16.0], impose_B0=False)
        other = solve_pv(1, geometric_masses(1.0, 2.0, 7), impose_B0=False)
        before = K_reg_coordinate(3e-3, 1, sch, with_cone_coefficient=False)["smooth"]
        for name in ("masses", "d", "d_mp"):
            getattr(sch, name)[:] = getattr(other, name)
        after = K_reg_coordinate(3e-3, 1, sch, with_cone_coefficient=False)["smooth"]
        assert after != before
        assert after.hex() == per_band_smooth_amplitude(3e-3, other)[0].hex()

    def test_time_reversal_flips_sign(self, scheme):
        a = K_reg_coordinate(0.5, 1, scheme)["smooth"]
        b = K_reg_coordinate(0.5, -1, scheme)["smooth"]
        assert a == pytest.approx(-b)

    @pytest.mark.parametrize("which,x_sq,ref,rel", [
        # 25-digit mpmath Bessel quadrature with the extended-precision
        # coefficients d_mp, at the cutoff; the M = 1 scheme keeps
        # more of the float rounding of d (see the K_reg_coordinate docstring)
        ("scheme", 4e-5, 0.000636485660692489, 1e-4),
        ("scheme", 1e-5, 0.00021313798457323725, 1e-4),
        ("scheme", 2.5e-6, 9.606854586866372e-05, 1e-4),
        ("scheme_m1", 2e-5, -1.6276678016789023e-06, 1e-2),
        ("scheme_m1", 1e-5, -4.797763805145668e-07, 1e-2),
    ])
    def test_near_cone_values(self, request, which, x_sq, ref, rel):
        sch = request.getfixturevalue(which)
        out = K_reg_coordinate(x_sq, 1, sch, with_cone_coefficient=False)
        assert out["smooth"] == pytest.approx(ref, rel=rel)

    @pytest.mark.parametrize("x_sq,ref", [
        # the same 25-digit mpmath Bessel quadrature as above
        (2e-5, -1.6276678016789023e-06),
        (1e-5, -4.797763805145668e-07),
    ])
    def test_near_cone_values_m1(self, scheme_m1, x_sq, ref):
        out = K_reg_coordinate(x_sq, 1, scheme_m1, with_cone_coefficient=False)
        assert out["smooth"] == pytest.approx(ref, rel=3e-4)

    def test_fault_point_value(self):
        # M = 0, masses 1..1e4 at x^2 = 1e-3, which the per-segment quad
        # route took 44 s for; the reference is a 25-digit mpmath Bessel
        # quadrature with d_mp (about 8 minutes):
        #   cd perfbench && python3 -c "import sys; sys.path.insert(0, '../src');
        #   from keldrot.pvreg import solve_pv; import reference as r;
        #   s = solve_pv(0, [1.0, 10.0, 100.0, 1e3, 1e4], impose_B0=False);
        #   print(repr(r.coordinate_smooth(s.masses, s.d_mp, 1e-3)))"
        fault = solve_pv(0, [1.0, 10.0, 100.0, 1e3, 1e4], impose_B0=False)
        out = K_reg_coordinate(1e-3, 1, fault, with_cone_coefficient=False)
        assert out["smooth"] == pytest.approx(207.31288075182366, rel=1e-8)
        assert out["segments"] < diracsea.MAX_PANELS / 100

    @pytest.mark.parametrize("which", ["scheme", "scheme_m1"])
    @pytest.mark.parametrize("x_sq", [0.5, 0.05])
    def test_two_route_against_segment_sum(self, request, which, x_sq):
        sch = request.getfixturevalue(which)
        out = K_reg_coordinate(x_sq, 1, sch, with_cone_coefficient=False)
        assert out["smooth"] == pytest.approx(segment_sum_oracle(x_sq, sch), rel=1e-9)

    def test_panels_and_abserr_reported(self, scheme):
        out = K_reg_coordinate(-1.0, 1, scheme)
        assert out["segments"] == 0
        assert out["abserr"] == 0.0
        # half Bessel periods between the breaks: the thresholds 2 mu_l,
        # where the series takes over (3 * 2 mu_N) and the cutoff
        step = np.pi / np.sqrt(0.5)
        breaks = [2.0, 4.0, 8.0, 16.0, 32.0, 96.0, np.sqrt(400.0 * 4.0 * 16.0 ** 2)]
        out = K_reg_coordinate(0.5, 1, scheme)
        assert out["segments"] == sum(math.ceil((b - a) / step)
                                      for a, b in zip(breaks, breaks[1:]))
        assert out["abserr"] <= 1e-10 * abs(out["smooth"])
        for key in ("smooth", "abserr", "cone_delta_coefficient"):
            assert type(out[key]) is float, key

    @pytest.mark.parametrize("order", [diracsea.GAUSS_ORDER, diracsea.GAUSS_ORDER_CHECK])
    def test_gauss_legendre_rule(self, order):
        from numpy.polynomial.legendre import leggauss

        t, w = diracsea._gauss_legendre(order)
        x, v = leggauss(order)
        idx = np.argsort(t)
        assert np.abs(t[idx] - 0.5 * (x + 1.0)).max() <= 1e-15
        assert np.abs(w[idx] - 0.5 * v).max() <= 1e-15

    def test_unbounded_cost_rejected_before_work(self):
        # mu_N = 1e6 at x^2 = 1 would take about 1.3e7 panels
        big = solve_pv(0, [1.0, 10.0, 100.0, 1e4, 1e6], impose_B0=False)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="MAX_PANELS"):
                K_reg_coordinate(1.0, 1, big, with_cone_coefficient=False)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 100_000  # no node arrays: one chunk alone is 49 kB

    def test_loads_no_quadrature(self):
        # the panel sum needs scipy.special only; scipy.integrate would
        # add about 0.6 s to the start-up of any verb that calls it, and
        # the PV solve and its moment sums run in `decimal`, not mpmath
        script = """
import sys
from keldrot.diracsea import K_reg_coordinate
from keldrot.pvreg import solve_pv
K_reg_coordinate(0.5, 1, solve_pv(0, [1.0, 2.0, 4.0, 8.0, 16.0], impose_B0=False))
print("scipy.integrate" in sys.modules or "mpmath" in sys.modules)
"""
        src = str(Path(diracsea.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.split()[-1] == "False"


def segment_sum_oracle(x_sq: float, scheme: PVScheme) -> float:
    """A(x^2) at sign_t = 1 by one adaptive quad per half Bessel period up
    to the cutoff 400 * 4 mu_N^2, with breaks at every threshold."""
    from scipy.special import j1

    k_reg = diracsea._k_reg_scalar(scheme)
    r = np.sqrt(x_sq)
    mu_lo = 2.0 * scheme.masses[0]
    mu_hi = np.sqrt(400.0 * 4.0 * scheme.masses[-1] ** 2)
    edges = set(np.arange(mu_lo, mu_hi, np.pi / r))
    edges.update(2.0 * np.array(scheme.masses))
    edges.update([mu_lo, mu_hi])
    edges = sorted(e for e in edges if mu_lo <= e <= mu_hi)
    val = 0.0
    with warnings.catch_warnings():
        # the segments cancel heavily near the threshold kinks, so quad's
        # per-segment check may warn although the sum is stable
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            piece, _ = quad(lambda mu: 2.0 * mu ** 2 * k_reg(mu ** 2) * j1(mu * r), a, b,
                            limit=100, epsabs=1e-14, epsrel=1e-10)
            val += piece
    return val / (8.0 * np.pi ** 2 * r)


def test_spec_validation():
    with pytest.raises(ValueError):
        DiracSeaSpec(mu0=-1.0)
    with pytest.raises(ValueError):
        DiracSeaSpec(mu0=1.0, alpha=1.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="mu0 must be finite"):
            DiracSeaSpec(mu0=bad)
        with pytest.raises(ValueError, match="alpha"):
            DiracSeaSpec(mu0=1.0, alpha=bad)
        with pytest.raises(ValueError, match="eps must be finite"):
            R_obs_finite_eps(1.0, SPEC, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_momentum_rejected(bad):
    with pytest.raises(ValueError, match="k_sq must be finite"):
        R_obs(bad, SPEC)
    with pytest.raises(ValueError, match="k_sq must be finite"):
        R_obs_finite_eps(bad, SPEC, 1e-4)
    with pytest.raises(ValueError, match="k_sq must be finite"):
        kramers_kronig_real_part(bad, SPEC)
    for fn in (Pi_R_reg, Pi_F_reg, Pi_plus):
        with pytest.raises(ValueError, match="k_sq must be finite"):
            fn(bad, 1.0, SPEC)
        with pytest.raises(ValueError, match="k_sq must be finite"):
            fn(2.0, bad, SPEC)


def test_retarded_sign_at_zero_k0():
    # k0 = 0 takes the k0 > 0 branch
    for k_sq in (-3.0, 9.0):
        assert Pi_R_reg(0.0, -k_sq, SPEC).scalar_part == R_obs(k_sq, SPEC, 1)
