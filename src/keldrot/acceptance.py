"""Acceptance suite: one callable per criterion, each with pinned tolerances.

Used both by the test suite (tests/test_acceptance.py) and by the CLI
`accept` verb.  Every criterion reports the measured figure of merit next
to its tolerance; every criterion fixes its own seeds, so run_all is
deterministic.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import diracsea, medium, oscillator, pvreg, rotation
from .grids import (OrderingParam, Signal, TimeGrid, TwoPointKernel, overlap,
                    project_kernel_axis, project_s)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name:<34s} measured={self.measured:.3e}  "
                f"tol={self.tolerance:.1e}")


def _band_interior_signals(grid: TimeGrid, rng: np.random.Generator, count: int):
    """Random complex signals with the two boundary bins (w = 0 and the
    Nyquist bin) removed: the subspace on which the projector algebra is
    exactly represented on the grid."""
    for _ in range(count):
        c = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        c[0] = 0.0
        if grid.n % 2 == 0:
            c[grid.n // 2] = 0.0
        yield Signal(grid, np.fft.fft(c))


def criterion_projection_algebra() -> CriterionResult:
    """Completeness, idempotency, orthogonality and the adjoint identity on
    100 random band-interior signals (n = 1024), all to 1e-10, in < 1 s."""
    grid = TimeGrid(1024, 0.05)
    rng = np.random.default_rng(1234)
    p, pm = OrderingParam(0.6), OrderingParam(1.0)  # F^{s+-} at s = 1 is F^{+-}
    start = time.perf_counter()
    worst = 0.0
    sigs = list(_band_interior_signals(grid, rng, 100))
    for f in sigs:
        fp = project_s(f, pm, "+")
        fm = project_s(f, pm, "-")
        worst = max(worst, np.abs(fp.values + fm.values - f.values).max())
        worst = max(worst, np.abs(project_s(fp, pm, "+").values - fp.values).max())
        worst = max(worst, np.abs(project_s(fm, pm, "-").values - fm.values).max())
        worst = max(worst, np.abs(project_s(fp, pm, "-").values).max())
        worst = max(worst, np.abs(project_s(fm, pm, "+").values).max())
    for f, g in zip(sigs[:50], sigs[50:]):
        lhs = overlap(project_s(f, p, "+"), g)
        rhs = overlap(f, project_s(g, p, "-"))
        worst = max(worst, abs(lhs - rhs))
        conj = np.abs(project_s(f, p, "+").conj().values - project_s(f.conj(), p, "-").values).max()
        worst = max(worst, conj)
    elapsed = time.perf_counter() - start
    return CriterionResult(
        name="01-projection-algebra",
        passed=worst < 1e-10 and elapsed < 1.0,
        measured=worst,
        tolerance=1e-10,
        details={"elapsed_s": elapsed},
    )


def criterion_oscillator_reordering() -> CriterionResult:
    """Reordering difference of s-ordered kernels is exactly
    (s'-s)(hbar/2) cos w0 tau; `rotation.reorder_gap_kernel` of the closed-form
    image's D_R matches it to 1e-8 and the response is recovered from the
    gap to 1e-6, both over the whole circle."""
    grid = TimeGrid(512, 0.04)
    w0 = grid.resonant_frequency(11)
    spec = oscillator.OscillatorSpec(omega0=w0, hbar=1.0)
    state = oscillator.GaussianState(nbar=1.3, m=0.4 - 0.6j)
    t = grid.times
    tau = t[:, None] - t[None, :]
    s, sp = OrderingParam(0.7), OrderingParam(-0.2)
    diff = (oscillator.s_ordered_kernel(spec, state, s, t[:, None], t[None, :])
            - oscillator.s_ordered_kernel(spec, state, sp, t[:, None], t[None, :]))
    exact = (sp.s - s.s) * 0.5 * spec.hbar * np.cos(w0 * tau)
    worst_exact = np.abs(diff - exact).max()
    d_r = oscillator.rotated_cumulants(spec, state, s, grid).D_R
    z_grid = rotation.reorder_gap_kernel(d_r, spec.hbar).profile
    z_closed = oscillator.reorder_gap(spec, grid.lags)
    worst_gap = np.abs(z_grid - z_closed).max()
    d_rec = oscillator.recover_retarded_from_gap(Signal(grid, z_closed), spec.hbar)
    d_exact = oscillator.retarded_response(spec, grid.lags)
    worst_rec = np.abs(d_rec.values - d_exact).max()
    passed = worst_exact < 1e-14 and worst_gap < 1e-8 and worst_rec < 1e-6
    return CriterionResult(
        name="02-oscillator-reordering",
        passed=bool(passed),
        measured=max(worst_gap, worst_rec),
        tolerance=1e-6,
        details={"reorder_exact": worst_exact, "gap_vs_closed": worst_gap,
                 "response_recovery": worst_rec},
    )


def criterion_lambda_identities() -> CriterionResult:
    """Bilinear-form identity under the rotation substitution, 20 random
    draws each for the oscillator against its closed-form image and for
    random consistent Gaussian cumulants against `rotate`: residual and
    j-quadratic term < 1e-8 relative to the form scale."""
    grid = TimeGrid(128, 0.11)
    rng = np.random.default_rng(77)
    w0 = grid.resonant_frequency(7)
    spec = oscillator.OscillatorSpec(omega0=w0)
    state = oscillator.GaussianState(nbar=0.8, m=0.5 + 0.3j)
    ctl_osc = oscillator.ctl_cumulants(spec, state, grid, periodic=True)
    residuals = []
    for _ in range(20):
        p = OrderingParam(rng.uniform(-1.0, 1.0))
        eta = Signal(grid, rng.normal(size=grid.n))
        j_s = Signal(grid, rng.normal(size=grid.n))
        ctl = rotation.synthetic_cumulants(grid, rng)
        for c, rot in ((ctl_osc, oscillator.rotated_cumulants(spec, state, p, grid)),
                       (ctl, rotation.rotate(ctl, p))):
            chk = rotation.lambda2_identity_check(c, rot, eta, j_s)
            residuals += [chk["relative_residual"],
                          abs(chk["j_quadratic_term"]) / max(abs(chk["lhs"]), 1e-300)]
    worst = float(np.max(residuals))
    return CriterionResult(
        name="03-lambda-identities",
        passed=worst < 1e-8,
        measured=worst,
        tolerance=1e-8,
    )


def criterion_rotation_roundtrip() -> CriterionResult:
    """unrotate(rotate(.)) = identity to 1e-8 on random consistent cumulant
    sets; at two orderings rotate's N_s matches the four-projection noise
    formula, and their gap the response-only formula, both to 1e-10."""
    grid = TimeGrid(96, 0.13)
    rng = np.random.default_rng(4321)
    worst_rt = 0.0
    worst_gap = 0.0
    worst_proj = 0.0
    for _ in range(6):
        ctl = rotation.synthetic_cumulants(grid, rng)
        scale = max(np.abs(ctl.K_F.values).max(), 1e-300)
        s_val = rng.uniform(-1.0, 1.0)
        rot = rotation.rotate(ctl, OrderingParam(s_val))
        back = rotation.unrotate(rot)
        for a, b in ((back.K_F, ctl.K_F), (back.K_W, ctl.K_W), (back.K_rev, ctl.K_rev)):
            worst_rt = max(worst_rt, np.abs(a.values - b.values).max() / scale)
        again = rotation.rotate(back, OrderingParam(s_val))
        worst_rt = max(worst_rt, np.abs(again.N_s.values - rot.N_s.values).max() / scale)
        worst_rt = max(worst_rt, np.abs(again.D_R.values - rot.D_R.values).max() / scale)
        # reordering gap between two independent rotations
        s2 = rng.uniform(-1.0, 1.0)
        rot2 = rotation.rotate(ctl, OrderingParam(s2))
        gap = rotation.reorder_gap_kernel(rot.D_R, ctl.hbar_c)
        lhs = rot.N_s.values - rot2.N_s.values
        rhs = (s2 - s_val) * gap.values
        worst_gap = max(worst_gap, np.abs(lhs - rhs).max() / scale)
        for r in (rot, rot2):  # the four-projection noise formula, projected directly
            kf = project_kernel_axis(project_kernel_axis(ctl.K_F, 1, "+", r.p), 0, "+", r.p)
            kw = project_kernel_axis(project_kernel_axis(ctl.K_W, 1, "+", r.p), 0, "-", r.p)
            direct = 2.0 * np.real(kf.values + kw.values)
            worst_proj = max(worst_proj, np.abs(r.N_s.values - direct).max() / scale)
    passed = worst_rt < 1e-8 and worst_gap < 1e-10 and worst_proj < 1e-10
    return CriterionResult(
        name="04-rotation-roundtrip",
        passed=bool(passed),
        measured=max(worst_rt, worst_gap, worst_proj),
        tolerance=1e-8,
        details={"roundtrip": worst_rt, "reorder_gap": worst_gap,
                 "four_projection": worst_proj},
    )


def criterion_low_k_limit() -> CriterionResult:
    """Renormalized R_obs(k^2)/k^2 -> alpha/(15 pi mu0^2) for
    |k^2| <= 1e-3 mu0^2 at relative tolerance 1e-3; the normalization
    oracle integral of F(y)/y^2 equals 4/5 to 1e-8 by direct quadrature."""
    from scipy.integrate import quad

    spec = diracsea.DiracSeaSpec(mu0=1.0)
    oracle, _ = quad(lambda y: diracsea.F_threshold(y) / y ** 2, 1.0, np.inf, limit=200)
    oracle_err = abs(oracle - 0.8)
    target = spec.alpha / (15.0 * np.pi * spec.mu0 ** 2)
    worst = 0.0
    for k_sq in (1e-3, -1e-3, 2.5e-4, -2.5e-4):
        r = diracsea.R_obs(k_sq, spec)
        worst = max(worst, abs(r.real / k_sq - target) / target)
        worst = max(worst, abs(r.imag) / target)
    passed = worst < 1e-3 and oracle_err < 1e-8
    return CriterionResult(
        name="05-vacuum-pol-low-k",
        passed=bool(passed),
        measured=worst,
        tolerance=1e-3,
        details={"oracle_error": oracle_err},
    )


def criterion_pi_plus_consistency() -> CriterionResult:
    """2i theta(k0) Im Pi_R equals the closed spectral form to 1e-8 over
    k^2 in [4, 100] mu0^2 and is exactly independent of R_0."""
    spec = diracsea.DiracSeaSpec(mu0=1.0)
    scheme = pvreg.solve_pv(0, pvreg.geometric_masses(1.0, 100.0, 5), impose_B0=False)
    worst = 0.0
    worst_r0 = 0.0
    for k_sq in np.linspace(4.0, 100.0, 25):
        k0 = np.sqrt(k_sq + 1.0)
        kv = 1.0
        via_transform = diracsea.Pi_plus(k0, kv, spec).scalar_part
        closed = diracsea.pi_plus_closed_form(k0, kv, spec)
        worst = max(worst, abs(via_transform - closed))
        with_r0 = diracsea.Pi_plus(k0, kv, spec, scheme=scheme, renormalized=False).scalar_part
        worst_r0 = max(worst_r0, abs(with_r0 - via_transform))
        # negative k0 must vanish
        worst = max(worst, abs(diracsea.Pi_plus(-k0, kv, spec).scalar_part))
    passed = worst < 1e-8 and worst_r0 == 0.0
    return CriterionResult(
        name="06-pi-plus-consistency",
        passed=bool(passed),
        measured=worst,
        tolerance=1e-8,
        details={"r0_dependence": worst_r0},
    )


def criterion_pv_solver() -> CriterionResult:
    """Row residuals < 1e-10; geometric masses (ratio 1e3, M = 0, B(0)
    imposed) give d_2 within 10% of 1 and d_1 within 10% of 2; R_0 of the
    scheme is < 1e-8 of its leading log scale; the n = 0 moment residual
    decreases monotonically over three decades of cutoff."""
    spec = diracsea.DiracSeaSpec(mu0=1.0)
    masses = pvreg.geometric_masses(1.0, 1e3, 6)
    scheme = pvreg.solve_pv(0, masses, impose_B0=True)
    res = max(scheme.residuals)
    d1_dev = abs(scheme.d[1] - 2.0) / 2.0
    d2_dev = abs(scheme.d[2] - 1.0)
    r0 = diracsea.R0_from_scheme(scheme, spec)
    log_scale = (spec.alpha / (3.0 * np.pi)) * max(
        abs(scheme.d[l]) * np.log(masses[l] ** 2) for l in range(1, len(masses)))
    top = 4.0 * masses[-1] ** 2
    residuals = [abs(pvreg.moment_integral_exact(scheme, lam * top))
                 for lam in (10.0, 100.0, 1000.0)]
    monotone = all(b < a for a, b in zip(residuals, residuals[1:]))
    passed = (res < 1e-10 and d1_dev < 0.1 and d2_dev < 0.1
              and abs(r0) < 1e-8 * log_scale and monotone)
    return CriterionResult(
        name="07-pv-solver",
        passed=bool(passed),
        measured=max(d1_dev, d2_dev),
        tolerance=0.1,
        details={"row_residual": res, "r0": r0, "r0_scale": log_scale,
                 "moment_residuals": residuals, "monotone": monotone},
    )


def criterion_zero_point_spectrum() -> CriterionResult:
    """Smooth zero-point spectrum matches the finite-epsilon propagator
    difference route to 1e-3 at eps = 1e-4 mu0^2, and depends on k^2 only
    (spread < 1e-10 across (k0, |k|) pairs at fixed k^2)."""
    spec = diracsea.DiracSeaSpec(mu0=1.0)
    eps = 1e-4
    worst_route = 0.0
    for k_sq in (6.0, 8.0, 20.0):
        closed = medium.zero_point_smooth(k_sq, spec)
        k0 = np.sqrt(k_sq + 2.0)
        route = medium.zero_point_smooth_finite_eps(k0, k0 ** 2 - k_sq, spec, eps)
        worst_route = max(worst_route, abs(route - closed) / closed)
    spread = 0.0
    for k_sq in (8.0, 30.0):
        vals = [medium.zero_point_smooth_finite_eps(k0, k0 ** 2 - k_sq, spec, eps)
                for k0 in (np.sqrt(k_sq + 0.5), np.sqrt(k_sq + 4.0), np.sqrt(k_sq + 25.0))]
        spread = max(spread, (max(vals) - min(vals)) / abs(np.mean(vals)))
    passed = worst_route < 1e-3 and spread < 1e-10
    return CriterionResult(
        name="08-zero-point-two-route",
        passed=bool(passed),
        measured=worst_route,
        tolerance=1e-3,
        details={"k2_only_spread": spread},
    )


def _dirac_sea_current_set(grid: TimeGrid, kvec_sq: float,
                           spec: diracsea.DiracSeaSpec) -> rotation.CumulantSet:
    """The Dirac-sea vacuum current's CTL set on the circle at |k|^2 =
    kvec_sq: a circulant K_W whose bin j is Im Pi^+(w_j) =
    (2 alpha / 3) theta(w_j) theta(k^2 - 4 mu0^2) F(k^2 / 4 mu0^2) >= 0, so
    K_W is Hermitian and frequency-positive, with zero mean and hbar c = 1."""
    bins = [diracsea.pi_plus_closed_form(w, kvec_sq, spec).imag for w in grid.omega]
    k_w = TwoPointKernel.circulant(grid, np.fft.fft(bins))
    return rotation.CumulantSet(Signal.zero(grid), k_w, 1.0, True)


def criterion_empty_vacuum() -> CriterionResult:
    """Time-normal noise of the Dirac-sea vacuum current, `rotate` of its
    Wightman set at s = 1, is the zero kernel to 1e-8 of max |K_W|;
    reordering the vacuum s = 1 noise to other s gives exactly 2 s_minus
    times the response gap."""
    spec = diracsea.DiracSeaSpec(mu0=1.0)
    grid = TimeGrid(128, 0.08)
    sea = _dirac_sea_current_set(grid, 1.0, spec)
    n_1 = rotation.rotate(sea, OrderingParam(1.0)).N_s
    scale = max(np.abs(sea.K_W.values).max(), 1e-300)  # laid out only after the rotation
    worst_zero = np.abs(n_1.values).max() / scale
    # reordered vacuum noise = 2 s_minus Z, free-field mode check
    w0 = grid.resonant_frequency(9)
    osc_spec = oscillator.OscillatorSpec(omega0=w0)
    ctl = oscillator.ctl_cumulants(osc_spec, oscillator.GaussianState(), grid, periodic=True)
    rot1 = rotation.rotate(ctl, OrderingParam(1.0))
    worst_reorder = 0.0
    t = grid.times
    for s_val in (0.0, -1.0, 0.5):
        p = OrderingParam(s_val)
        n_s = rotation.reorder(rot1, s_val).N_s.values
        expect = 2.0 * p.s_minus * oscillator.reorder_gap(osc_spec, t[:, None] - t[None, :])
        worst_reorder = max(worst_reorder, np.abs(n_s - expect).max())
    passed = worst_zero < 1e-8 and worst_reorder < 1e-10
    return CriterionResult(
        name="09-empty-vacuum",
        passed=bool(passed),
        measured=max(worst_zero, worst_reorder),
        tolerance=1e-8,
        details={"vacuum_noise": worst_zero, "reordered_noise": worst_reorder},
    )


def criterion_mc_correspondence() -> CriterionResult:
    """Thermal-state quasidistribution MC reproduces the s-ordered kernel
    within 3 standard errors at 1e6 samples; the white-noise classical MC
    reproduces the deterministic noise map within 3 standard errors."""
    grid = TimeGrid(48, 0.21)
    w0 = grid.resonant_frequency(5)
    spec = oscillator.OscillatorSpec(omega0=w0)
    state = oscillator.GaussianState(nbar=2.0)
    p = OrderingParam(0.0)
    times = grid.times
    n = grid.n
    # eight representative kernel entries; checking every strongly
    # correlated entry at 3 sigma would flag lucky/unlucky draws instead
    # of genuine disagreement
    picks = [(0, 0), (n // 4, n // 4), (n // 2, n // 2), (n - 1, n - 1),
             (n - 1, 0), (n - 1, n // 2), (n // 2, n // 4), (3 * n // 4, n // 4)]
    est, err = oscillator.mc_quasiaverage(spec, state, p, times, 10 ** 6, 20240)
    target = oscillator.s_ordered_kernel(spec, state, p, times[:, None], times[None, :])
    pulls = np.abs(est - target) / np.maximum(err, 1e-300)
    quasi_pull = float(max(pulls[ij] for ij in picks))

    res = medium.wyld_mc(spec, grid, 10 ** 6, 20241, white_noise_std=0.4)
    dr = oscillator.retarded_response_grid(spec, grid)
    pi_n = TwoPointKernel(grid, (0.4 ** 2 / grid.dt) * np.eye(grid.n))
    target_cov = medium.noise_map(dr, pi_n).values.real
    pulls2 = np.abs(res["cov"] - target_cov) / np.maximum(res["cov_stderr"], 1e-300)
    wyld_pull = float(max(pulls2[ij] for ij in picks))
    worst_pull = max(quasi_pull, wyld_pull)
    return CriterionResult(
        name="10-mc-correspondence",
        passed=worst_pull < 3.0,
        measured=worst_pull,
        tolerance=3.0,
        details={"quasiaverage_pull": quasi_pull, "wyld_pull": wyld_pull},
    )


def criterion_dyson_two_route() -> CriterionResult:
    """Grid Volterra dressing against the momentum-space pole-shift closed
    form on the one-mode toy, to 1e-4."""
    omega0 = 1.0
    d_bare, pi_r, closed, _ = medium.one_mode_toy(TimeGrid(2048, 30.0 / 2048), omega0, 0.3)
    dressed = medium.dress_retarded_grid(d_bare, pi_r)
    worst = medium._lag_max_abs_diff(dressed, closed)
    residual = medium.wave_operator_residual(dressed, pi_r, omega0)
    passed = worst < 1e-4 and residual < 1e-4
    return CriterionResult(
        name="11-dyson-two-route",
        passed=bool(passed),
        measured=worst,
        tolerance=1e-4,
        details={"wave_operator_residual": residual},
    )


CRITERIA = {
    "01-projection-algebra": criterion_projection_algebra,
    "02-oscillator-reordering": criterion_oscillator_reordering,
    "03-lambda-identities": criterion_lambda_identities,
    "04-rotation-roundtrip": criterion_rotation_roundtrip,
    "05-vacuum-pol-low-k": criterion_low_k_limit,
    "06-pi-plus-consistency": criterion_pi_plus_consistency,
    "07-pv-solver": criterion_pv_solver,
    "08-zero-point-two-route": criterion_zero_point_spectrum,
    "09-empty-vacuum": criterion_empty_vacuum,
    "10-mc-correspondence": criterion_mc_correspondence,
    "11-dyson-two-route": criterion_dyson_two_route,
}


def run_all(only: str | None) -> list[CriterionResult]:
    results = []
    for name, fn in CRITERIA.items():
        if only is not None and only not in name:
            continue
        results.append(fn())
    return results
