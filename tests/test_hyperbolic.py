import math
import re
import warnings

import numpy as np
import pytest

from sharpineq import (
    DecayClass,
    QuadratureError,
    QuadratureSpec,
    RadialHypFunction,
    RadialProfile,
    ball_volume_constant,
    ct,
    curvature_defect,
    gaussian_hardy_hyperbolic_reports,
    hardy_hyperbolic_report,
    hpw_constant_bounds,
    hpw_hyperbolic_report,
    hyp_ball_volume,
    hyp_distance,
    hyp_volume_ratio_check,
    hyperbolic_gaussian_moments,
    hyperbolic_radial_volume_integral,
    ko_alpha_scan,
    laplace_comparison_check,
    modified_hpw_report,
    modified_hpw_reports,
    radial_laplacian,
)
from sharpineq.flat import RadialFunction
from sharpineq import hyperbolic
from sharpineq.hyperbolic import _sign_change_brackets, conformal_factor
from sharpineq.quadrature import _FIRST_PANELS, _GK21_NODES, _volume_ratio_series


def d_gauss():
    # u = d * e^{-d^2}
    return RadialHypFunction(
        RadialProfile(lambda r: r * math.exp(-r * r), DecayClass.gaussian(1.0)),
        lambda r: (1 - 2 * r * r) * math.exp(-r * r),
    )


class TestComparisonFunctions:
    def test_flat_branch(self):
        assert ct(0.0, 2.0) == pytest.approx(0.5)
        for rho in (0.1, 1.0, 10.0):
            assert curvature_defect(0.0, rho) == pytest.approx(0.0)

    def test_unit_curvature_defect(self):
        assert curvature_defect(-1.0, 1.0) == pytest.approx(1 / math.tanh(1.0) - 1, rel=1e-12)
        assert curvature_defect(-1.0, 1.0) == pytest.approx(0.3130352854993312, rel=1e-12)

    def test_stronger_curvature_defect(self):
        assert curvature_defect(-4.0, 1.0) == pytest.approx(2 / math.tanh(2.0) - 1, rel=1e-12)

    def test_defect_nonnegative_and_continuous_at_zero(self):
        for c in (0.0, -1.0, -4.0):
            for rho in (0.0, 1e-8, 1e-3, 0.5, 2.0, 20.0):
                assert curvature_defect(c, rho) >= 0.0
            assert curvature_defect(c, 1e-9) <= 1e-8

    def test_input_guards(self):
        with pytest.raises(ValueError):
            ct(-1.0, 0.0)
        with pytest.raises(ValueError):
            ct(1.0, 1.0)
        with pytest.raises(ValueError):
            curvature_defect(-1.0, -1.0)


class TestBallModel:
    def test_distance_origin(self):
        assert hyp_distance(np.zeros(3)) == 0.0

    def test_distance_half_radius(self):
        assert hyp_distance(np.array([0.5, 0.0])) == pytest.approx(math.log(3.0), rel=1e-12)

    def test_distance_monotone_blowup(self):
        rs = np.linspace(0.0, 0.999, 200)
        ds = [hyp_distance(np.array([r, 0.0])) for r in rs]
        assert all(b > a for a, b in zip(ds, ds[1:]))
        assert ds[-1] > 7.0

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            hyp_distance(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            conformal_factor(np.array([0.8, 0.8]))

    def test_conformal_factor_origin(self):
        assert conformal_factor(np.zeros(2)) == pytest.approx(2.0)


class TestLaplacian:
    def test_constant_function(self):
        z = lambda r: 0.0
        assert radial_laplacian(lambda r: 1.0, z, z, 3, 1.0) == 0.0

    def test_comparison_equality_and_strictness(self):
        out = laplace_comparison_check(3, [-1.0, 0.0], [0.5, 1.0, 2.0])
        assert out["max_equality_defect"] <= 1e-12
        assert out["min_strict_defect"] > 0.0
        # c = 0 at rho = 1: laplacian 2 coth 1 > bound 2
        row = next(r for r in out["rows"] if r["c"] == 0.0 and r["rho"] == 1.0)
        assert row["laplacian"] == pytest.approx(2 / math.tanh(1.0), rel=1e-12)
        assert row["bound"] == pytest.approx(2.0)

    def test_empty_grid(self):
        out = laplace_comparison_check(3, [-1.0, 0.0], [])
        assert out["rows"] == []

    def test_other_curvature_rejected(self):
        with pytest.raises(ValueError):
            laplace_comparison_check(3, [-0.5], [1.0])

    def test_zero_radius_named(self):
        # coth 0 is a division by zero
        with pytest.raises(ValueError, match="rho = 0.0"):
            laplace_comparison_check(3, [-1.0, 0.0], [0.0, 1.0, 2.0])


class TestVolumes:
    def test_disk_volume(self):
        assert hyp_ball_volume(2, 1.0) == pytest.approx(
            2 * math.pi * (math.cosh(1.0) - 1), rel=1e-9
        )

    def test_ratio_monotone_and_above_flat(self):
        out = hyp_volume_ratio_check(3, [1.0, 2.0, 3.0])
        assert out["non_decreasing"] and out["all_above_omega"]
        assert all(b > a for a, b in zip(out["ratios"], out["ratios"][1:]))
        assert min(out["ratios"]) >= ball_volume_constant(3)

    def test_zero_radius_named(self):
        # the ratio divides by rho^n
        with pytest.raises(ValueError, match="rho = 0.0"):
            hyp_volume_ratio_check(3, [0.0, 1.0, 2.0])

    def test_small_radius_flat_limit(self):
        ratio = hyp_ball_volume(3, 1e-3) / 1e-9
        assert ratio == pytest.approx(ball_volume_constant(3), rel=1e-4)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
    def test_radius_positive_and_finite_named(self, rho):
        # 0 and nan used to raise a bare IndexError, -1 a QuadratureError
        # about a compact profile, and inf returned a volume and a ratio 0
        for call in (lambda: hyp_ball_volume(3, rho), lambda: hyp_volume_ratio_check(3, [1.0, rho])):
            with pytest.raises(ValueError, match=f"got rho = {rho!r}"):
                call()

    def test_dimension_at_least_one(self):
        for call in (lambda: hyp_ball_volume(0, 1.0), lambda: hyp_volume_ratio_check(0, [1.0])):
            with pytest.raises(ValueError, match="need n >= 1"):
                call()

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_series_within_the_estimates_of_the_scalar_loop(self, n, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        for rho in (0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 4.0):
            series = _volume_ratio_series(n, rho, tol)
            ball = RadialProfile(lambda r: 1.0 if r < rho else 0.0, DecayClass.compact(rho))
            loop = hyperbolic_radial_volume_integral(ball, n, spec)
            value, error = loop.value / rho**n, loop.error_estimate / rho**n
            assert abs(series.value - value) <= series.error_estimate + error, (rho, series, loop)
            assert series.error_estimate <= tol * series.value
            assert hyp_volume_ratio_check(n, [rho], spec)["ratios"] == [series.value]
            assert hyp_ball_volume(n, rho, spec) == series.value * rho**n

    def test_past_the_term_cap_the_scalar_loop(self):
        # the disk: V = 2 pi (cosh rho - 1); at rho = 200 the series needs
        # more terms than its cap, and the ratio comes from the volume integral
        rho, spec = 200.0, QuadratureSpec()
        assert _volume_ratio_series(2, rho, 1e-9) is None
        ball = RadialProfile(lambda r: 1.0 if r < rho else 0.0, DecayClass.compact(rho))
        (ratio,) = hyp_volume_ratio_check(2, [rho], spec)["ratios"]
        assert ratio == hyperbolic_radial_volume_integral(ball, 2, spec).value / rho**2
        assert ratio == pytest.approx(2 * math.pi * (math.cosh(rho) - 1) / rho**2, rel=1e-9)

    @pytest.mark.parametrize("n, rho, served", [
        (2, 75.75, True), (2, 90.0, False), (2, 130.0, False), (2, 165.0, False),
        (3, 43.75, True), (3, 50.0, False),
    ])
    def test_overflow_of_x_to_the_j_goes_to_the_scalar_loop(self, n, rho, served):
        # past these radii x^J overflows before the tail bound serves: the
        # series used to return inf there instead of handing over
        exact = {2: lambda r: 2 * math.pi * (math.cosh(r) - 1) / r**2,
                 3: lambda r: math.pi * (math.sinh(2 * r) - 2 * r) / r**3}[n](rho)
        spec = QuadratureSpec()
        series = _volume_ratio_series(n, rho, spec.relative_tolerance)
        (ratio,) = hyp_volume_ratio_check(n, [rho], spec)["ratios"]
        if served:
            assert ratio == series.value
            assert abs(ratio - exact) <= series.error_estimate + 4e-16 * exact
        else:
            assert series is None
            ball = RadialProfile(lambda r: 1.0 if r < rho else 0.0, DecayClass.compact(rho))
            loop = hyperbolic_radial_volume_integral(ball, n, spec)
            assert ratio == loop.value / rho**n
            assert abs(ratio - exact) <= (loop.error_estimate + 4e-16 * loop.value) / rho**n
        assert hyp_ball_volume(n, rho, spec) == ratio * rho**n


class TestHpwHyperbolic:
    def test_strictly_above_flat_constant(self):
        rep = hpw_hyperbolic_report(RadialHypFunction.gaussian(2.0), 4)
        assert rep.ratio > 4.0
        # regression baseline for the recorded slack
        assert rep.ratio == pytest.approx(5.148820958799015, rel=1e-9)

    def test_zero_function_rejected(self):
        zero = RadialHypFunction(
            RadialProfile(lambda r: 0.0, DecayClass.compact(1.0)), lambda r: 0.0
        )
        with pytest.raises(ValueError):
            hpw_hyperbolic_report(zero, 3)

    def test_algebraic_decay_rejected(self):
        u = RadialHypFunction(
            RadialProfile(lambda r: (1 + r) ** -10, DecayClass.algebraic()),
            lambda r: -10 * (1 + r) ** -11,
        )
        with pytest.raises(ValueError):
            hpw_hyperbolic_report(u, 3)


class TestModifiedHpw:
    def test_gaussian_equality(self):
        rep = modified_hpw_report(3, alpha=1.0)
        assert abs(rep.ratio - 2.25) / 2.25 <= 1e-6

    def test_non_gaussian_stays_above(self):
        rep = modified_hpw_report(3, u=d_gauss())
        assert rep.ratio >= 2.25 - 1e-9

    def test_exactly_one_input(self):
        with pytest.raises(ValueError):
            modified_hpw_report(3)
        with pytest.raises(ValueError):
            modified_hpw_report(3, alpha=1.0, u=d_gauss())

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_batched_reports_match_scalar_reports(self, n, tol):
        # the alphas of the hyperbolic suite; the modified report and the
        # plain one against the scalar reports of the same gaussian
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = (0.25, 1.0, 4.0)
        for alpha, (modified, plain) in zip(alphas, modified_hpw_reports(n, alphas, spec)):
            u = RadialFunction.gaussian(alpha)
            pairs = [
                (modified, modified_hpw_report(n, u=u, spec=spec)),
                (modified_hpw_report(n, alpha=alpha, spec=spec), modified_hpw_report(n, u=u, spec=spec)),
                (plain, hpw_hyperbolic_report(u, n, spec)),
            ]
            for got, want in pairs:
                for field in ("lhs", "rhs", "ratio"):
                    assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12)
                assert got.target == want.target == n**2 / 4
                assert all(0 <= e <= tol for e in got.integral_errors)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            modified_hpw_report(3, alpha=0.0)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_corrected_mass_by_parts(self, monkeypatch, n, tol):
        # W = (4 alpha / n) M exactly, so the batch's W and M meet it within
        # the sum of their estimates, plus 4 ulp of W for the roundings of
        # the sums and of the product, which the estimates do not count
        batch, passes = hyperbolic.hyperbolic_gaussian_moments, []
        monkeypatch.setattr(hyperbolic, "hyperbolic_gaussian_moments", lambda *a: passes.append(batch(*a)) or passes[-1])
        alphas = (0.25, 1.0, 4.0, 16.0)
        modified_hpw_reports(n, alphas, QuadratureSpec(relative_tolerance=tol))
        ((moments, errors, _),) = passes
        (_, M, _, W), (_, eM, _, eW) = moments.tolist(), errors.tolist()
        for alpha, m, w, em, ew in zip(alphas, M, W, eM, eW):
            c = 4 * alpha / n
            assert abs(w - c * m) <= ew + c * em + 4 * math.ulp(w), (alpha, w, c * m, ew, em)


class TestHardyHyperbolic:
    def test_both_slacks_nonnegative(self):
        rep1, rep2 = hardy_hyperbolic_report(d_gauss(), 3)
        assert rep1.slack >= -1e-9
        assert rep2.slack >= -1e-9

    def test_defect_weight_dominates_flat_rhs(self):
        # the defect-weighted Hardy integral can only exceed the unweighted one
        n = 3
        u = d_gauss()
        rep1, _ = hardy_hyperbolic_report(u, n)
        prof = u.profile
        flat_rhs = (
            (n - 2) ** 2
            / 4
            * hyperbolic_radial_volume_integral(
                RadialProfile(lambda r: prof(r) ** 2 / r ** 2, DecayClass.gaussian(2.0)),
                n,
            ).value
        )
        assert rep1.rhs >= flat_rhs

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            hardy_hyperbolic_report(d_gauss(), 2)
        with pytest.raises(ValueError, match="need n >= 3"):
            gaussian_hardy_hyperbolic_reports(2, (1.0,))
        with pytest.raises(ValueError, match="a must be positive"):
            gaussian_hardy_hyperbolic_reports(3, (1.0, 0.0))

    def test_batched_pass_names_its_rate(self):
        # at a = 1e-4 the n = 5 integrals are about e^20000; at 1e-20 no
        # panel count serves either rate
        with pytest.raises(QuadratureError) as exc:
            gaussian_hardy_hyperbolic_reports(5, (1.0, 1e-4))
        assert str(exc.value) == (
            "non-finite integral at 1 of 2 parameters, first at a = 0.0001 for n = 5: outside the float range"
        )
        worst = r"not met with 512 panels at 2 parameters; worst at a = 0\.5 for n = 5:"
        with pytest.raises(QuadratureError, match=worst):
            gaussian_hardy_hyperbolic_reports(5, (0.5, 2.0), QuadratureSpec(relative_tolerance=1e-20))

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_batched_matches_scalar_reports(self, n, tol):
        # r e^(-a r^2) for every a from one pass, against the adaptive
        # reports within the sum of both reports' estimates
        spec = QuadratureSpec(relative_tolerance=tol)
        rates = (0.5, 1.0, 2.0)
        for a, pair in zip(rates, gaussian_hardy_hyperbolic_reports(n, rates, spec)):
            u = RadialHypFunction(
                RadialProfile(lambda r: r * math.exp(-a * r * r), DecayClass.gaussian(a)),
                lambda r: (1 - 2 * a * r * r) * math.exp(-a * r * r),
            )
            for got, want in zip(pair, hardy_hyperbolic_report(u, n, spec)):
                assert got.target == want.target == 1.0
                assert all(0 <= e <= tol for e in got.integral_errors)
                slack = got.combined_error + want.combined_error + 16 * 2.0**-52
                for field in ("lhs", "rhs", "ratio"):
                    g, w = getattr(got, field), getattr(want, field)
                    assert abs(g - w) <= slack * abs(w), (field, g, w)

    def test_batched_one_pass_no_scalar_integral(self, monkeypatch):
        from sharpineq import hyperbolic, quadrature

        passes = []
        batch = hyperbolic.gaussian_integrals
        monkeypatch.setattr(hyperbolic, "gaussian_integrals", lambda *a: passes.append(a[:2]) or batch(*a))
        monkeypatch.setattr(quadrature, "_adaptive_gk", None)
        assert len(gaussian_hardy_hyperbolic_reports(5, (0.5, 1.0, 2.0))) == 3
        ((rows, grid),) = passes
        assert [k for k, _ in rows] == [4] * 4
        assert grid.tolist() == [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]]

    @pytest.mark.parametrize("n", [3, 5])
    def test_overflow_named_as_the_scalar_path(self, n):
        # u and u' pass through e^(71/rho), which overflows below rho ~ 0.1:
        # the shared pass names the node that one pass of the energy row
        # (u')^2 alone names
        def u(r):
            return r * math.exp(-r * r) * math.exp(71 / r) / math.exp(71 / r)

        def du(r):
            return (1 - 2 * r * r) * math.exp(-r * r) * math.exp(71 / r) / math.exp(71 / r)

        f = RadialFunction(RadialProfile(u, DecayClass.gaussian(1.0)), du)
        with pytest.raises(QuadratureError) as shared:
            hardy_hyperbolic_report(f, n)
        energy = RadialProfile(lambda r: du(r) ** 2, DecayClass.gaussian(2.0))
        with pytest.raises(QuadratureError) as scalar:
            hyperbolic_radial_volume_integral(energy, n)
        assert str(shared.value) == str(scalar.value)
        assert re.fullmatch(r"profile exceeds the float range at rho=0\.0\d+", str(shared.value))


def brackets_loop(alphas, values):
    """The per-alpha comprehension that _sign_change_brackets vectorises."""
    return [
        (float(alphas[i]), float(alphas[i + 1]))
        for i in range(len(alphas) - 1)
        if values[i] == 0.0 or (values[i] > 0) != (values[i + 1] > 0)
    ]


class TestAlphaScan:
    def test_gaussian_mass_vs_trapezoid(self):
        rho = np.linspace(0.0, 40.0, 1_000_001)
        oracle = 2 * math.pi * float(np.trapezoid(np.exp(-rho ** 2) * np.sinh(rho), rho))
        prof = RadialProfile(lambda r: math.exp(-r * r), DecayClass.gaussian(1.0))
        got = hyperbolic_radial_volume_integral(prof, 2).value
        assert got == pytest.approx(oracle, abs=1e-7)

    def test_no_sign_change_coarse(self):
        scan = ko_alpha_scan(4, (3.0, 100.0), grid_size=64)
        assert scan["brackets"] == []
        assert all(v > 0 for v in scan["phi"])

    def test_degenerate_grid(self):
        scan = ko_alpha_scan(4, (3.0, 100.0), grid_size=0)
        assert scan["alphas"].shape == scan["phi"].shape == (0,) and scan["brackets"] == []
        assert scan["worst_rel_err"] == 0.0 and scan["nodes_used"] == 0

    def test_scan_reports_error_and_evaluations(self):
        spec = QuadratureSpec(relative_tolerance=1e-9)
        scan = ko_alpha_scan(4, (3.0, 100.0), grid_size=64, spec=spec)
        assert 0 < scan["worst_rel_err"] <= spec.relative_tolerance
        # two masses per alpha, each a series: the terms summed over all 128
        assert scan["nodes_used"] == 1098

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_value_independent_of_grid(self, n, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        full = np.array(ko_alpha_scan(n, (3.0, 100.0), 4096, spec)["phi"])[[0, -1]]
        ends = np.array(ko_alpha_scan(n, (3.0, 100.0), 2, spec)["phi"])
        assert np.all(np.abs(ends - full) <= 4 * np.spacing(np.abs(full)))

    def test_brackets_of_a_synthetic_phi(self):
        # an exact zero at alpha = 3 and sign changes after alpha = 2 (to
        # zero, which counts as non-positive) and after alpha = 5
        alphas = np.arange(1.0, 8.0)
        phi = np.array([2.0, 1.0, 0.0, -1.0, -2.0, 3.0, 4.0])
        want = [(2.0, 3.0), (3.0, 4.0), (5.0, 6.0)]
        assert _sign_change_brackets(alphas, phi) == brackets_loop(alphas, phi.tolist()) == want

    def test_brackets_equal_the_loop(self):
        rng = np.random.default_rng(7)
        alphas = np.linspace(3.0, 100.0, 4096)
        phi = rng.choice([-2.0, -0.0, 0.0, 1.5, math.nan], size=4096)
        assert _sign_change_brackets(alphas, phi) == brackets_loop(alphas, phi.tolist())

    def test_unattainable_tolerance_raises(self):
        with pytest.raises(QuadratureError, match="not met"):
            ko_alpha_scan(4, (3.0, 100.0), 8, QuadratureSpec(relative_tolerance=1e-20))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            ko_alpha_scan(4, (5.0, 3.0))

    def test_mass_beyond_float_range_named_without_warning(self):
        # at n = 4, alpha = 0.001 the mass C_4 is about e^2250; alpha = 0.5 is
        # a series mass, so the count is of the one alpha the fallback took
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError) as exc:
                ko_alpha_scan(4, (0.001, 0.5), 2)
        assert str(exc.value) == (
            "non-finite integral at 1 of 1 parameters, first at 0.001: outside the float range"
        )


class TestConstantBounds:
    def test_upper_at_least_lower(self):
        out = hpw_constant_bounds(3, alphas=(1.0, 2.0), betas=(0.0, 1.0))
        assert out["lower"] == pytest.approx(2.25)
        assert out["upper"] >= out["lower"]

    def test_single_member_family(self):
        out = hpw_constant_bounds(4, alphas=(1.0,), betas=(0.0,))
        direct = hpw_hyperbolic_report(RadialHypFunction.gaussian(1.0), 4)
        assert out["upper"] == pytest.approx(direct.ratio, rel=1e-12)
        assert out["argmin_alpha"] == 1.0 and out["argmin_beta"] == 0.0

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_catalogue_grids_match_per_point_reports(self, n, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        betas = (0.0, 0.5, 1.0, 2.0, 4.0)
        for alphas in ((0.25, 0.5, 1.0, 2.0, 4.0, 8.0), (8.0, 64.0, 512.0, 2048.0)):
            (A, M, L), _, _ = hyperbolic_gaussian_moments(
                n, np.array(alphas)[:, None], np.array(betas), spec)
            ratios = np.array([
                [hpw_hyperbolic_report(RadialHypFunction.gaussian(a, b), n, spec).ratio
                 for b in betas]
                for a in alphas
            ])
            assert A * M / L**2 == pytest.approx(ratios, rel=10 * tol)
            out = hpw_constant_bounds(n, alphas, betas, spec)
            i, j = np.unravel_index(np.argmin(ratios), ratios.shape)
            assert (out["argmin_alpha"], out["argmin_beta"]) == (alphas[i], betas[j])
            assert out["upper"] == pytest.approx(ratios[i, j], rel=10 * tol)

    @pytest.mark.parametrize("n", [6, 10])
    def test_large_beta_tail_cut_is_relative(self, n):
        # for beta > K/2 the trial function is tiny (about 6e-13 at n = 10,
        # beta = 30), so a tail cut that only bounds e^(-budget) absolutely
        # would drop a relative 1e-11 or more
        spec = QuadratureSpec(relative_tolerance=1e-12)
        alphas, betas = (0.25, 1.0), (30.0, 100.0)
        (A, M, L), _, _ = hyperbolic_gaussian_moments(n, np.array(alphas)[:, None], np.array(betas), spec)
        ratios = np.array([
            [hpw_hyperbolic_report(RadialHypFunction.gaussian(a, b), n, spec).ratio for b in betas]
            for a in alphas
        ])
        assert A * M / L**2 == pytest.approx(ratios, rel=10 * spec.relative_tolerance)
        out = hpw_constant_bounds(n, alphas, betas, spec)
        assert out["upper"] == pytest.approx(ratios.min(), rel=10 * spec.relative_tolerance)

    def test_reports_error_estimate_and_evaluations(self):
        spec = QuadratureSpec(relative_tolerance=1e-9)
        out = hpw_constant_bounds(3, spec=spec)
        assert 0 < out["worst_rel_err"] <= spec.relative_tolerance
        # 30 cells, at least the batch's first pass each
        assert out["nodes_used"] >= 30 * _FIRST_PANELS * _GK21_NODES.size

    def test_argmin_sits_on_the_alpha_edge(self):
        # the grid minimum is an upper bound only: for n = 3 it improves
        # with every larger alpha
        out = hpw_constant_bounds(3)
        assert out["argmin_alpha"] == 8.0
        assert hpw_constant_bounds(3, alphas=(8.0, 16.0))["upper"] < out["upper"]

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError):
            hpw_constant_bounds(3, alphas=())
