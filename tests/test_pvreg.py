import decimal
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from keldrot import pvreg
from keldrot.diracsea import SERIES_TERMS, _k_reg_scalar
from keldrot.pvreg import (
    COEFFICIENT_BOUND,
    PVScheme,
    asymptotic_d,
    geometric_masses,
    moment_integral_exact,
    moment_sums,
    series_coeffs,
    series_coeffs_fractions,
    solve_pv,
)

from common import BARE

# the largest relative row residual at which the mpmath oracle's ladder
# accepts a finite-precision solve
RESIDUAL_TOL = 1e-10


def band_moment(scheme, n, cutoff_sq):
    """Oracle for the order-n moment integral of mu^(2n) K_reg(mu^2) dmu^2
    from 4 mu_0^2 to the cutoff: float quadrature band by band between the
    thresholds, in the log variable.  The bands cancel heavily, so quad's
    relative-tolerance warnings fire although the summed absolute accuracy
    is at the float noise floor."""
    k_reg = _k_reg_scalar(scheme)
    edges = np.append(4.0 * np.array(scheme.masses) ** 2, cutoff_sq)
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            total += quad(lambda v: np.exp(v * (n + 1)) * k_reg(np.exp(v)),
                          np.log(a), np.log(b), limit=400, epsabs=1e-13, epsrel=1e-12)[0]
    return total


def series_tail(scheme, n, cutoff_sq):
    """The same integral from the cutoff to infinity, from the 1/y series of
    F with the exact scaled moment sums S_m / (4 mu_N^2)^m; assumes that the
    sums with m <= n + 1, whose truncated integrals diverge, cancel."""
    top = 4.0 * scheme.masses[-1] ** 2
    s_hat = moment_sums(scheme, n + 4)
    return sum(c * s_hat[m] * top ** (n + 1) * (top / cutoff_sq) ** (m - n - 1)
               / (m - n - 1) / (6.0 * np.pi)
               for m, c in enumerate(series_coeffs(n + 4)) if m > n + 1)


def divergent_sums_cancel(scheme, n):
    """Whether every scaled moment sum S_m / (4 mu_N^2)^m with m <= n + 1 and
    a non-zero series coefficient, whose truncated integral diverges with
    the cutoff, cancels to 1e-8 of its largest term |d_l| (mu_l/mu_N)^(2m);
    `series_tail` is the tail only when it does.  A NaN sum never cancels."""
    s_hat = moment_sums(scheme, n + 1)
    ratios = (np.array(scheme.masses) / scheme.masses[-1]) ** 2
    d_abs = np.abs(np.array(scheme.d))
    return all(abs(s_hat[m]) <= 1e-8 * np.max(d_abs * ratios ** m)
               for m, c in enumerate(series_coeffs(n + 1)) if c != 0.0)


def unregularized_size(n, cutoff_sq, mu0=1.0):
    """|moment integral| of the bare spectrum: closed form at n = 0, the
    leading large-y behaviour otherwise."""
    if n == 0:
        y = cutoff_sq / (4.0 * mu0 ** 2)
        return 4.0 * mu0 ** 2 * (y - 1.0) * math.sqrt(1.0 - 1.0 / y) / (6.0 * np.pi)
    return cutoff_sq ** (n + 1) / (n + 1) / (6.0 * np.pi)


def mpmath_rows(M, masses, impose_B0):
    """The moment system's rows and right-hand side as mpmath builds them
    at its default 53 bits, each operation rounded half to even."""
    labels = pvreg._row_labels(M, impose_B0)
    mu = [mp.mpf(m) for m in masses]
    a, b = [], []
    for lab in labels:
        n = int(lab[2:-1]) // 2
        row = []
        for l in range(1, len(mu)):
            term = ((-1) ** l) * mu[l] ** (2 * n)
            if lab[0] == "B":
                term *= 2 * mp.log(mu[l] / mu[0])
            row.append(term)
        a.append(row)
        b.append(-(mu[0] ** (2 * n)) if lab[0] == "A" else mp.mpf(0))
    return a, b


def mpmath_solve(M, masses, impose_B0, precision_bits=256, max_precision_bits=4096):
    """Oracle for `solve_pv`'s float d: the `mpmath_rows` in an `mp.matrix`,
    solved by `mp.lu_solve` with `fsum` row residuals at working precision,
    on a precision ladder that doubles the bits until every residual is at
    most RESIDUAL_TOL, and fails at the cap."""
    rows, rhs = mpmath_rows(M, masses, impose_B0)
    a, b = mp.matrix(rows), mp.matrix(rhs)
    bits = precision_bits
    while True:
        with mp.workprec(bits):
            try:
                x = mp.lu_solve(a, b)
            except ZeroDivisionError:
                x, worst = None, np.inf
            else:
                worst = 0.0
                for r in range(a.rows):
                    terms = [a[r, c] * x[c] for c in range(a.cols)] + [-b[r, 0]]
                    worst = max(worst, float(abs(mp.fsum(terms)) / max(abs(t) for t in terms)))
        if x is not None and worst <= RESIDUAL_TOL:
            return [1.0] + [float(v) for v in x]
        if bits >= max_precision_bits:
            raise ValueError("singular regularization system" if x is None else
                             f"row residuals {worst:.3e} exceed {RESIDUAL_TOL:.1e} "
                             f"at {bits}-bit precision")
        bits *= 2


def mpmath_integer_rows(M, masses, impose_B0):
    """The `mpmath_rows`, each with its right-hand side last and scaled to
    integers by its lowest power of two (by none if it holds integers)."""
    rows, rhs = mpmath_rows(M, masses, impose_B0)
    out = []
    for row in (list(map(exact, r)) + [exact(v)] for r, v in zip(rows, rhs)):
        scale = max(v.denominator for v in row)
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def mpmath_digits(M, masses, impose_B0):
    """The digits of `solve_pv`'s d_mp, from the `mpmath_integer_rows`: 20
    more than those of their largest entry, and at least 81."""
    top = max(abs(v) for row in mpmath_integer_rows(M, masses, impose_B0) for v in row)
    return max(81, math.ceil(math.log10(top)) + 20)


def mpmath_moment_integral(scheme, cutoff_sq, factor=1):
    """Oracle for `moment_integral_exact`: the same closed-form sum in
    mpmath, at `factor` times the routine's digits."""
    with mp.workdps(factor * (max(len(d) for d in scheme.d_mp) + 20)):
        total = mp.mpf(0)
        for l, (d, mass) in enumerate(zip(scheme.d_mp, scheme.masses)):
            thr = 4 * mp.mpf(mass) ** 2
            y = mp.mpf(cutoff_sq) / thr
            if y > 1:
                total += (-1) ** l * mp.mpf(d) * thr * (y - 1) * mp.sqrt(1 - 1 / y)
        return float(total / (6 * mp.pi))


def mpmath_moment_sums(scheme, k_max, factor=1):
    """Oracle for `moment_sums`: for k = 0..k_max, the scaled sum
    S_k / (4 mu_N^2)^k by `mp.fsum` of its signed terms
    (-1)^l d_l (mu_l / mu_N)^(2k), and the largest |term|, at `factor`
    times the routine's digits."""
    with mp.workdps(factor * (max(len(d) for d in scheme.d_mp) + 20)):
        top = 4 * mp.mpf(scheme.masses[-1]) ** 2
        out = []
        for k in range(k_max + 1):
            terms = [(-1) ** l * mp.mpf(d) * (4 * mp.mpf(m) ** 2 / top) ** k
                     for l, (d, m) in enumerate(zip(scheme.d_mp, scheme.masses))]
            out.append((float(mp.fsum(terms)), float(max(abs(t) for t in terms))))
        return out


def _pathological_masses(x=50.0):
    return [1.0, np.exp(x)] + [np.exp(x) * x ** k for k in range(1, 5)]


# every scheme that src/, perfbench/, scripts/ and the tests solve, once each
SOLVED_SCHEMES = list({
    (M, tuple(masses), b0): None for M, masses, b0 in
    # the momentum grid of the benchmark
    [(M, geometric_masses(1.0, ratio, 2 * M + (6 if b0 else 5)), b0)
     for M in range(4) for ratio in (10.0, 1e3) for b0 in (False, True)]
    # its two coordinate schemes and the fault scheme
    + [(0, [1.0, 2.0, 4.0, 8.0, 16.0], False),
       (1, [2.0 ** l for l in range(7)], False),
       (0, [1.0, 10.0, 100.0, 1e3, 1e4], False)]
    # criteria 06 and 07, the benchmark's CLI pv-solve, the study script
    + [(0, geometric_masses(1.0, 100.0, 5), False),
       (0, geometric_masses(1.0, 1e3, 6), True),
       (1, geometric_masses(1.0, 1e3, 8), True)]
    + [(0, geometric_masses(1.0, ratio, 6), True) for ratio in (10.0, 100.0, 1e3, 1e4)]
    # the test fixtures
    + [(1, geometric_masses(1.0, 2.0, 7), False),
       (0, [1.0, 10.0, 100.0, 1e4, 1e6], False),
       (0, _pathological_masses(), True)]
})


def _scheme_id(key):
    M, masses, b0 = key
    return f"M{M}{'-B0' if b0 else ''}-" + ",".join(f"{m:.3g}" for m in masses)


def significant_digits(s):
    """The mantissa digits of a d_mp entry, without sign, point and leading zeros."""
    return s.lower().split("e")[0].lstrip("-").replace(".", "").lstrip("0")


def random_mass_lists(count, seed=5):
    """Seeded (M, masses, impose_B0) with M <= 3 and log10 spacings of the
    strictly increasing masses drawn from [0.01, 8]."""
    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(count):
        M, b0 = int(rng.integers(4)), bool(rng.integers(2))
        steps = rng.uniform(0.01, 8.0, 2 * M + (5 if b0 else 4))
        logs = np.cumsum(np.concatenate([[rng.uniform(-3.0, 3.0)], steps]))
        lists.append((M, [float(10.0 ** x) for x in logs], b0))
    return lists


def exact(x):
    """An mpf or a Decimal as a Fraction, exactly."""
    if isinstance(x, decimal.Decimal):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** exp


class TestMpmathOracle:
    @pytest.mark.filterwarnings("ignore:unbounded coefficients")
    @pytest.mark.parametrize("M,masses,b0", SOLVED_SCHEMES + random_mass_lists(40),
                             ids=[_scheme_id(k) for k in SOLVED_SCHEMES]
                             + [f"random{i}" for i in range(40)])
    def test_decimal_solve_matches_lu_solve(self, M, masses, b0):
        scheme = solve_pv(M, masses, impose_B0=b0)
        assert scheme.d == mpmath_solve(M, masses, b0)
        # the exact solution leaves no residual on the rounded rows
        assert scheme.residuals == [0.0] * len(scheme.row_labels)
        digits = mpmath_digits(M, masses, b0)
        rows, rhs = mpmath_rows(M, masses, b0)
        with mp.workprec(4 * digits):
            want = [exact(v) for v in mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))]
        assert len(scheme.d_mp) == len(want) + 1 and scheme.d_mp[0] == "1"
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            for got, x in zip(scheme.d_mp[1:], want):
                # `decimal`'s string of mpmath's value rounded to the digits;
                # an exact quotient may carry fewer
                assert len(significant_digits(got)) <= digits
                assert str(ctx.plus(decimal.Decimal(got))) == got
                assert decimal.Decimal(got) == ctx.divide(decimal.Decimal(x.numerator),
                                                          x.denominator)

    @pytest.mark.parametrize("ratio,count,b0", [(1e3, 6, True), (100.0, 5, False),
                                                (10.0, 5, False)])
    def test_double_precision_alike(self, ratio, count, b0):
        # the oracle capped at 53 bits fails on the wide schemes, its pivots
        # collapsed or its residuals too large; ratio 10 without B(0) solves,
        # to the exact solve's float d
        masses = geometric_masses(1.0, ratio, count)
        if ratio > 10.0:
            with pytest.raises(ValueError, match="residuals|singular"):
                mpmath_solve(0, masses, b0, 53, 53)
        else:
            assert mpmath_solve(0, masses, b0, 53, 53) == solve_pv(0, masses, b0).d

    def test_exact_solve_refuses_a_singular_system(self):
        with pytest.raises(ValueError, match="singular regularization system"):
            pvreg._exact_solve([[1, 0, 3, 1], [2, 0, 5, 1], [7, 0, 1, 1]])

    @pytest.mark.parametrize("M,masses,b0", SOLVED_SCHEMES + random_mass_lists(40),
                             ids=[_scheme_id(k) for k in SOLVED_SCHEMES]
                             + [f"random{i}" for i in range(40)])
    def test_rows_match_mpmath(self, M, masses, b0):
        # the 53-bit rounding of every power, ratio, logarithm and product,
        # and the power of two that scales each row to integers
        rows = pvreg._system(M, list(masses), pvreg._row_labels(M, b0))
        assert all(type(v) is int for row in rows for v in row)
        assert rows == mpmath_integer_rows(M, masses, b0)

    @pytest.mark.filterwarnings("ignore:unbounded coefficients")
    @pytest.mark.parametrize("M,masses,b0", SOLVED_SCHEMES,
                             ids=[_scheme_id(k) for k in SOLVED_SCHEMES])
    def test_moments_match_mpmath(self, M, masses, b0):
        # the cutoffs of criterion 07 and the cutoff of K_reg_coordinate;
        # a sum that the scheme cancels may move at the guard digits only
        scheme = solve_pv(M, masses, impose_B0=b0)
        top = 4.0 * scheme.masses[-1] ** 2
        for cut in (10.0 * top, 100.0 * top, 400.0 * top, 1000.0 * top):
            assert moment_integral_exact(scheme, cut) == mpmath_moment_integral(scheme, cut)
        want = [s for s, _ in mpmath_moment_sums(scheme, SERIES_TERMS)]
        got = moment_sums(scheme, SERIES_TERMS)
        assert np.abs(np.subtract(got, want)).max() <= 1e-40 * np.abs(want).max()

    def test_solve_does_not_use_lu_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath.lu_solve called")

        monkeypatch.setattr(mp, "lu_solve", refuse)
        scheme = solve_pv(3, geometric_masses(1.0, 1e3, 12), impose_B0=True)
        assert max(scheme.residuals) < RESIDUAL_TOL

    def test_solve_uses_python310_localcontext(self, monkeypatch):
        # localcontext takes context attributes as keywords only from 3.11 on;
        # the package supports 3.10, so the solve must set ctx.prec itself
        def localcontext_310(ctx=None):
            return decimal.localcontext(ctx)

        monkeypatch.setattr(pvreg, "localcontext", localcontext_310)
        ref = solve_pv(1, geometric_masses(1.0, 1e3, 8), impose_B0=True)
        # the moment routines are the module's callers of localcontext
        ref_moments = moment_sums(ref, 4), moment_integral_exact(ref, 1e8)
        monkeypatch.undo()
        assert solve_pv(1, geometric_masses(1.0, 1e3, 8), impose_B0=True).d == ref.d
        assert (moment_sums(ref, 4), moment_integral_exact(ref, 1e8)) == ref_moments


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

    @pytest.mark.parametrize("bad, count, message", [
        (1.5, 8, "M must be an integer, got 1.5"),
        (True, 7, "M must be an integer, got True"),
        (-1, 3, "M must be non-negative, got -1"),
    ])
    def test_order_must_be_a_non_negative_integer(self, bad, count, message):
        # as many masses as 2M + 4 asks for, so only the check of M can fire
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_pv(bad, geometric_masses(1.0, 10.0, count), impose_B0=False)

    @pytest.mark.parametrize("bad", ["no", 1, None, np.bool_(False)])
    def test_impose_b0_must_be_a_bool(self, bad):
        # a string or a number is refused, not read as true, before any row is built
        masses = geometric_masses(1.0, 10.0, 6)
        with pytest.raises(ValueError, match=f"^impose_B0 must be a bool, got {bad!r}$"):
            solve_pv(0, masses, impose_B0=bad)

    def test_extended_coefficients_recorded(self):
        scheme = solve_pv(0, geometric_masses(1.0, 10.0, 5), impose_B0=False)
        assert len(scheme.d_mp) == len(scheme.d)
        assert float(mp.mpf(scheme.d_mp[1])) == pytest.approx(scheme.d[1])


UNSOLVED = {"impose_B0": False, "residuals": [], "row_labels": []}


class TestSchemeInvariants:
    def test_d0_fixed_to_one(self):
        with pytest.raises(ValueError, match="d_0"):
            PVScheme(M=0, masses=[1.0, 2.0], d=[2.0, 1.0], d_mp=["2", "1"], **UNSOLVED)

    def test_mass_ordering_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            PVScheme(M=0, masses=[2.0, 1.0], d=[1.0, 1.0], d_mp=["1", "1"], **UNSOLVED)

    def test_coefficients_required_for_every_mass(self):
        with pytest.raises(TypeError):
            PVScheme(M=0, masses=[1.0, 2.0])
        with pytest.raises(ValueError, match="coefficient count"):
            PVScheme(M=0, masses=[1.0, 2.0], d=[1.0, 1.0], d_mp=["1"], **UNSOLVED)

    def test_geometric_helper(self):
        assert geometric_masses(2.0, 10.0, 3) == [2.0, 20.0, 200.0]
        with pytest.raises(ValueError):
            geometric_masses(1.0, 0.5, 3)

    @pytest.mark.parametrize("call, message", [
        (lambda: geometric_masses(1.0, 10.0, 2.5), "count must be an integer, got 2.5"),
        (lambda: geometric_masses(1.0, 10.0, 0), "count must be positive, got 0"),
        (lambda: series_coeffs_fractions(2.5), "n_max must be an integer, got 2.5"),
        (lambda: series_coeffs(-1), "n_max must be non-negative, got -1"),
        (lambda: PVScheme(M=-1, masses=[1.0], d=[1.0], d_mp=["1"], **UNSOLVED),
         "M must be non-negative, got -1"),
        (lambda: PVScheme(M=True, masses=[1.0], d=[1.0], d_mp=["1"], **UNSOLVED),
         "M must be an integer, got True"),
    ])
    def test_counts_are_named_integers(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("bad, message", [(-1, "k_max must be non-negative, got -1"),
                                              (2.0, "k_max must be an integer, got 2.0")])
    def test_moment_sums_refuse_a_bad_order(self, scheme, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            moment_sums(scheme, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_masses_and_ratio_rejected(self, bad):
        with pytest.raises(ValueError, match="ratio"):
            geometric_masses(1.0, bad, 3)
        with pytest.raises(ValueError, match="masses must be finite"):
            solve_pv(0, geometric_masses(bad, 10.0, 5), impose_B0=False)
        with pytest.raises(ValueError, match="masses must be finite"):
            solve_pv(0, [1.0, 2.0, bad, 4.0, 5.0], impose_B0=False)
        with pytest.raises(ValueError, match="masses must be finite"):
            PVScheme(M=0, masses=[1.0, bad], d=[1.0, 1.0], d_mp=["1", "1"], **UNSOLVED)


class TestMoments:
    def test_guaranteed_moment_is_small(self, scheme):
        cut = 1e4 * 4.0 * scheme.masses[-1] ** 2
        assert divergent_sums_cancel(scheme, 0)
        residual = band_moment(scheme, 0, cut) + series_tail(scheme, 0, cut)
        assert abs(residual) < 1e-3 * unregularized_size(0, cut)

    def test_first_moment_also_guaranteed(self, scheme):
        cut = 1e2 * 4.0 * scheme.masses[-1] ** 2
        assert divergent_sums_cancel(scheme, 1)
        residual = band_moment(scheme, 1, cut) + series_tail(scheme, 1, cut)
        assert abs(residual) < 1e-3 * unregularized_size(1, cut)

    def test_beyond_guarantee_reported_not_small(self, scheme):
        # M = 0 cancels S_0..S_2 only; S_3, on which the n = 2 remainder
        # diverges, is of the size of its largest term
        top = scheme.masses[-1]
        largest = max(abs(d) * (m / top) ** 6 for d, m in zip(scheme.d, scheme.masses))
        assert abs(moment_sums(scheme, 3)[3]) > 1e-3 * largest
        assert not divergent_sums_cancel(scheme, 2)

    def test_unregularized_residual_grows(self):
        assert not divergent_sums_cancel(BARE, 0)
        vals = [abs(band_moment(BARE, 0, lam * 4.0)) for lam in (1e2, 1e3, 1e4)]
        assert vals[0] < vals[1] < vals[2]
        for lam, val in zip((1e2, 1e3, 1e4), vals):
            assert val == pytest.approx(unregularized_size(0, lam * 4.0), rel=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tail_finite_on_hard_scheme(self, n):
        # M = 3 at ratio 1e3: the thresholds reach 4e66, so the moment sums
        # overflow as floats; the exact scaled sums still cancel where the
        # remainder diverges and keep every tail finite
        hard = solve_pv(3, geometric_masses(1.0, 1e3, 12), impose_B0=True)
        top = 4.0 * hard.masses[-1] ** 2
        assert divergent_sums_cancel(hard, n)
        assert math.isfinite(series_tail(hard, n, 1e2 * top))

    def test_moment_sums_scaled_and_exact(self, scheme):
        # S_k / (4 mu_N^2)^k against the sum of the signed terms at twice
        # the digits; the solved M = 0 scheme cancels S_0, S_1 and S_2
        sums = moment_sums(scheme, 6)
        for k, (got, (want, largest)) in enumerate(zip(sums, mpmath_moment_sums(scheme, 6, 2))):
            assert got == pytest.approx(want, rel=1e-14, abs=1e-300)
            if k <= 2:
                assert abs(got) < 1e-60 * largest

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_exact_route_refuses_non_finite_cutoff(self, scheme, bad):
        with pytest.raises(ValueError, match="cutoff_sq must be finite"):
            moment_integral_exact(scheme, bad)

    def test_exact_route_on_unregularized_scheme(self):
        # the bare scheme carries d_mp = ["1"]; its exact n = 0 integral is
        # the float closed form
        for cut in (4e2, 4e3, 4e4):
            exact = moment_integral_exact(BARE, cut)
            assert exact == pytest.approx(unregularized_size(0, cut), rel=1e-14)

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
        assert vals[2] == pytest.approx(mpmath_moment_integral(hard, 1000.0 * top, 2), rel=1e-12)

    def test_exact_route_matches_float_route(self, scheme):
        top = 4.0 * scheme.masses[-1] ** 2
        a = moment_integral_exact(scheme, 20.0 * top)
        b = band_moment(scheme, 0, 20.0 * top)
        assert a == pytest.approx(b, abs=1e-10 * top)
