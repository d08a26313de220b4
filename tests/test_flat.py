import math

import numpy as np
import pytest

from sharpineq import flat
from sharpineq import (
    AdmissibilityError,
    DecayClass,
    ExponentTriple,
    InequalityReport,
    IntegralResult,
    MinkowskiNorm,
    QuadratureError,
    QuadratureSpec,
    RadialProfile,
    TestFunction as TF,
    bh_density,
    check_p_ode,
    check_pqr_identity,
    double_hardy_report,
    dual_norm_value,
    extremal_profile,
    gaussian_T,
    gaussian_moment_identity,
    hardy_report,
    hardy_sharpness_sweep,
    hpw_report,
    interpolation_report,
    kernel_g,
    kernel_h,
    norm_value,
    pqr,
    smoothstep_cutoff,
    uniformity_constant,
)


EUCLID3 = MinkowskiNorm(3, "weighted-euclidean", matrix=np.eye(3))
LP4_3 = MinkowskiNorm(3, "lp", exponent=4.0)


def gaussian_tf(lam=1.0):
    return TF.radial(
        RadialProfile(lambda r: math.exp(-lam * r * r), DecayClass.gaussian(lam)),
        lambda r: -2 * lam * r * math.exp(-lam * r * r),
    )


class TestReportForms:
    A = IntegralResult(6.0, 6e-9, 0)
    B = IntegralResult(2.0, 1e-9, 0)
    C = IntegralResult(-4.0, 1e-8, 0)

    def test_product(self):
        rep = InequalityReport.product(self.A, self.B, self.C, 0.5)
        assert (rep.lhs, rep.rhs, rep.ratio, rep.target) == (12.0, 8.0, 0.75, 0.5)
        assert rep.integral_errors == (1e-9, 5e-10, 2.5e-9)

    def test_quotient(self):
        rep = InequalityReport.quotient(self.A, self.B, 0.25)
        assert (rep.lhs, rep.rhs, rep.ratio, rep.target) == (6.0, 0.5, 3.0, 0.25)
        assert rep.integral_errors == (1e-9, 5e-10)

    def test_normalised(self):
        rep = InequalityReport.normalised(self.A, (0.5, self.B), (2.0, self.C))
        assert (rep.lhs, rep.rhs, rep.ratio, rep.target) == (6.0, -7.0, 6.0 / -7.0, 1.0)
        assert rep.integral_errors == (1e-9, 5e-10, 2.5e-9)

    def test_zero_integral_error(self):
        rep = InequalityReport.quotient(IntegralResult(0.0, 0.0, 0), self.B, 1.0)
        assert rep.integral_errors == (0.0, 5e-10)


class TestExponentTriple:
    def test_admissible(self):
        t = ExponentTriple(3, 3.0, 1.0)
        assert t.target == pytest.approx(4 / 9)
        assert t.p_power == pytest.approx(-1.0)

    def test_target_one_triple(self):
        assert ExponentTriple(3, 2.5, 0.5).target == pytest.approx(1.0)

    def test_q_above_two_rejected(self):
        with pytest.raises(AdmissibilityError):
            ExponentTriple(3, 3.0, 2.5)

    def test_dimension_bound_rejected(self):
        # 2(p-q)/(p-2) = 4, so n = 5 is out
        with pytest.raises(AdmissibilityError):
            ExponentTriple(5, 3.0, 1.0)

    def test_p_below_two_rejected(self):
        with pytest.raises(AdmissibilityError):
            ExponentTriple(3, 1.5, 1.0)

    def test_q_nonpositive_rejected(self):
        with pytest.raises(AdmissibilityError):
            ExponentTriple(3, 3.0, 0.0)


class TestKernels:
    T = ExponentTriple(3, 3.0, 1.0)

    def test_h_arithmetic(self):
        # (1+1)^{-4} * 1 * (2*2 + 1) = 5/16
        assert kernel_h(self.T, 1.0, 1.0) == pytest.approx(5 / 16)

    def test_g_arithmetic(self):
        # (1+1)^{-5} * 1 * (1*4 + 0) = 1/8
        assert kernel_g(self.T, 1.0, 1.0) == pytest.approx(1 / 8)

    def test_positivity_probe_grid(self):
        # h is positive for every admissible triple; g pointwise only for
        # q >= 1 (for q < 1 the origin term can dip negative, but the
        # integral R stays positive)
        for t in (self.T, ExponentTriple(3, 2.5, 0.5)):
            for lam in (0.1, 1.0, 10.0):
                for rho in (0.01, 0.5, 1.0, 5.0, 50.0):
                    assert kernel_h(t, lam, rho) > 0
                    if t.q >= 1:
                        assert kernel_g(t, lam, rho) > 0
        assert pqr(ExponentTriple(3, 2.5, 0.5), 0.1, "R").value > 0

    def test_g_scaling_homogeneity(self):
        t = self.T
        s = 2.0
        expo = (2 - t.q) * (3 * t.p - 4) / (2 - t.p) - (2 * t.q - 1) + (2 - t.q)
        for lam, rho in ((0.5, 0.7), (1.0, 1.3), (2.0, 3.1)):
            lhs = kernel_g(t, s ** (2 - t.q) * lam, s * rho)
            assert lhs == pytest.approx(s ** expo * kernel_g(t, lam, rho), rel=1e-12)


class TestExtremalIntegrals:
    def test_pqr_identity_unit_target(self):
        reps = check_pqr_identity(ExponentTriple(3, 2.5, 0.5), [1.0])
        assert len(reps) == 1
        assert reps[0].ratio == pytest.approx(1.0, abs=1e-7)

    def test_q_is_scaled_r(self):
        t = ExponentTriple(3, 3.0, 1.0)
        Q = pqr(t, 1.0, "Q").value
        R = pqr(t, 1.0, "R").value
        assert Q == pytest.approx((2 - t.q) ** 2 / (t.p - 2) ** 2 * R, rel=1e-12)

    def test_bad_selector(self):
        with pytest.raises(ValueError):
            pqr(ExponentTriple(3, 3.0, 1.0), 1.0, "S")

    def test_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            pqr(ExponentTriple(3, 3.0, 1.0), 0.0, "P")

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_identity_rejects_nonpositive_lambda(self, lam):
        with pytest.raises(ValueError, match="lam must be positive"):
            check_pqr_identity(ExponentTriple(3, 3.0, 1.0), [1.0, lam])

    def test_empty_grids(self):
        t = ExponentTriple(3, 3.0, 1.0)
        assert check_pqr_identity(t, []) == []
        assert check_p_ode(t, []) == []

    def test_p_ode_residual(self):
        res = check_p_ode(ExponentTriple(3, 2.5, 0.5), [2.0])
        assert abs(res[0]) <= 1e-5

    def test_each_integral_once(self, monkeypatch):
        # near the boundary (q < 1e-3) as anywhere: the identity needs P and
        # R once per lambda, the ODE P and its FD
        calls = []

        def fake(prof, weight, spec):
            calls.append(spec)
            return IntegralResult(1.0, 0.0, 1)

        monkeypatch.setattr(flat, "radial_integral", fake)
        t = ExponentTriple(3, 3.0, 0.0005)
        check_pqr_identity(t, [1.0])
        assert len(calls) == 2
        calls.clear()
        check_p_ode(t, [1.0])
        assert len(calls) == 5

    def test_overflow_named(self):
        # P of (3, 2.002, 1) is about 1e600 at lam = 0.5; at lam = 0.25 the
        # kernel itself overflows near the origin
        t = ExponentTriple(3, 2.002, 1.0)
        with pytest.raises(QuadratureError) as exc:
            pqr(t, 0.5, "P")
        assert str(exc.value) == "integral over rho in [0.0, 1.0] is inf: outside the float range"
        with pytest.raises(QuadratureError, match=r"profile exceeds the float range at rho=0\.01"):
            pqr(t, 0.25, "P")


class TestInterpolation:
    def test_gaussian_strict_slack(self):
        rep = interpolation_report(EUCLID3, ExponentTriple(3, 3.0, 1.0), gaussian_tf())
        assert rep.ratio > 4 / 9
        # regression baseline
        assert rep.ratio == pytest.approx(0.9371706197677803, rel=1e-9)

    def test_norm_independence_of_radial_reports(self):
        t = ExponentTriple(3, 3.0, 1.0)
        a = interpolation_report(EUCLID3, t, gaussian_tf())
        b = interpolation_report(LP4_3, t, gaussian_tf())
        assert a.ratio == b.ratio

    def test_extremal_family_achieves_equality(self):
        t = ExponentTriple(3, 3.0, 1.0)
        rep = interpolation_report(EUCLID3, t, extremal_profile(t, 1.0))
        assert abs(rep.ratio - t.target) <= 1e-6

    def test_general_path_matches_radial_control(self):
        # radial bump fed through the Monte Carlo route must agree with the
        # one-dimensional reduction within sampling error
        t = ExponentTriple(3, 3.0, 1.0)
        psi, dpsi = smoothstep_cutoff(0.5, 1.0)
        radial = TF.radial(
            RadialProfile(psi, DecayClass.compact(1.0), breakpoints=(0.5,)), dpsi
        )
        control = interpolation_report(EUCLID3, t, radial)

        def ev(pts):
            r = np.linalg.norm(pts, axis=1)
            return np.array([psi(x) for x in r])

        def grad(pts):
            r = np.linalg.norm(pts, axis=1)
            scale = np.array([dpsi(x) / x if x > 0 else 0.0 for x in r])
            return pts * scale[:, None]

        general = TF.general(ev, [(-1, 1)] * 3, gradient=grad)
        spec = QuadratureSpec(mc_samples=1 << 14)
        rep = interpolation_report(EUCLID3, t, general, spec)
        rel = 3 * math.sqrt(sum(e ** 2 for e in rep.integral_errors)) + 1e-3
        assert rep.ratio == pytest.approx(control.ratio, rel=4 * rel)

    def test_general_path_reads_basepoint(self):
        # moving the function, its support box and the basepoint together
        # leaves the report unchanged; distances are taken from the basepoint
        t = ExponentTriple(3, 3.0, 1.0)
        v = np.array([1.0, -2.0, 0.5])

        def ev(pts):
            r2 = np.sum(pts * pts, axis=1)
            return np.exp(-r2 / 2) * np.clip(1 - r2 / 4, 0, None) ** 3

        def grad(pts):
            r2 = np.sum(pts * pts, axis=1)[:, None]
            cut = np.clip(1 - r2 / 4, 0, None)
            return np.exp(-r2 / 2) * (-pts * cut**3 - 1.5 * pts * cut**2)

        spec = QuadratureSpec(mc_samples=1 << 14)
        at_origin = interpolation_report(LP4_3, t, TF.general(ev, [(-2.0, 2.0)] * 3, gradient=grad), spec)
        moved = TF.general(
            lambda x: ev(x - v), [(-2.0 + c, 2.0 + c) for c in v], gradient=lambda x: grad(x - v), basepoint=v
        )
        rep = interpolation_report(LP4_3, t, moved, spec)
        for a, b in ((rep.lhs, at_origin.lhs), (rep.rhs, at_origin.rhs), (rep.ratio, at_origin.ratio)):
            assert a == pytest.approx(b, rel=1e-9)


def three_pass_integrals(norm, t, u, spec):
    """A, B and C as three separate Monte Carlo passes over the same points,
    summed in Python floats: the reference for the one-pass general path."""
    n = t.n
    density = bh_density(norm, mc_samples=spec.mc_samples, mc_seed=spec.mc_seed)
    x0 = u.basepoint if u.basepoint is not None else np.zeros(n)

    def mc(integrand, box):
        vol = math.prod(b - a for a, b in box)
        rng = np.random.Generator(np.random.Philox(key=spec.mc_seed))
        lo = np.array([a for a, _ in box])
        span = np.array([b - a for a, b in box])
        s, s2, done = 0.0, 0.0, 0
        while done < spec.mc_samples:
            m = min(1 << 16, spec.mc_samples - done)
            vals = np.asarray(integrand(lo + span * rng.random((m, n))), dtype=float)
            s += float(vals.sum())
            s2 += float((vals**2).sum())
            done += m
        mean = s / spec.mc_samples
        var = max(s2 / spec.mc_samples - mean**2, 0.0)
        return IntegralResult(vol * mean, vol * math.sqrt(var / spec.mc_samples), spec.mc_samples)

    def grad(pts):
        if u.gradient is not None:
            return u.gradient(pts)
        h = 1e-5 * max(b - a for a, b in u.support_box)
        g = np.empty_like(pts)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            g[:, i] = (u.evaluator(pts + e) - u.evaluator(pts - e)) / (2 * h)
        return g

    def dist(pts):
        return norm_value(norm, pts - x0)

    return (
        mc(lambda pts: dual_norm_value(norm, grad(pts)) ** 2 * density, u.support_box),
        mc(lambda pts: np.abs(u.evaluator(pts)) ** (2 * t.p - 2) / dist(pts) ** (2 * t.q - 2) * density,
           u.support_box),
        mc(lambda pts: np.abs(u.evaluator(pts)) ** t.p / dist(pts) ** t.q * density, u.support_box),
    )


def bump(pts):
    r2 = np.sum(pts * pts, axis=1)
    return np.exp(-r2 / 2) * np.clip(1 - r2 / 4, 0, None) ** 3


def bump_gradient(pts):
    r2 = np.sum(pts * pts, axis=1)[:, None]
    cut = np.clip(1 - r2 / 4, 0, None)
    return np.exp(-r2 / 2) * (-pts * cut**3 - 1.5 * pts * cut**2)


class TestGeneralInterpolationOnePass:
    # two batches of 2^16 points, the second one partial
    SPEC = QuadratureSpec(mc_samples=(1 << 16) + 3000, mc_seed=11)

    @pytest.mark.parametrize("gradient", [bump_gradient, None], ids=["gradient", "central-differences"])
    @pytest.mark.parametrize("norm", [LP4_3, EUCLID3], ids=["lp4", "euclidean"])
    def test_equals_three_passes_bit_for_bit(self, norm, gradient):
        t = ExponentTriple(3, 3.0, 1.0)
        u = TF.general(bump, [(-2.0, 2.0), (-2.0, 2.0), (-1.5, 2.5)], gradient=gradient,
                       basepoint=np.array([0.0, 0.0, 0.5]))
        rep = interpolation_report(norm, t, u, self.SPEC)
        assert rep == InequalityReport.product(*three_pass_integrals(norm, t, u, self.SPEC), t.target)
        assert all(type(v) is float for v in (rep.lhs, rep.rhs, rep.ratio, *rep.integral_errors))

    def test_evaluator_called_once_per_batch_with_a_gradient(self):
        calls = []

        def counted(pts):
            calls.append(len(pts))
            return bump(pts)

        u = TF.general(counted, [(-2.0, 2.0)] * 3, gradient=bump_gradient)
        interpolation_report(LP4_3, ExponentTriple(3, 3.0, 1.0), u, self.SPEC)
        assert calls == [1 << 16, 3000]


class TestGaussianT:
    def test_n2_closed_value(self):
        assert gaussian_T(2, 0.5)["value"] == pytest.approx(math.pi, rel=1e-9)

    def test_n3_closed_value(self):
        assert gaussian_T(3, 0.5)["value"] == pytest.approx(math.pi ** 1.5, rel=1e-9)

    def test_closed_form_and_ode(self):
        for n in (3, 4):
            for lam in (0.5, 1.0):
                out = gaussian_T(n, lam)
                assert out["closed_form_relative_error"] <= 1e-9
                assert abs(out["ode_relative_residual"]) <= 1e-6

    def test_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            gaussian_T(3, -1.0)


class TestHpw:
    def test_gaussian_equality_family(self):
        for lam in (0.5, 1.0, 2.0):
            rep = hpw_report(EUCLID3, 3, gaussian_tf(lam))
            assert abs(rep.ratio - 2.25) <= 1e-6

    def test_strict_for_non_gaussian(self):
        u = TF.radial(
            RadialProfile(lambda r: (1 + r * r) * math.exp(-r * r), DecayClass.gaussian(1.0)),
            lambda r: (2 * r - 2 * r * (1 + r * r)) * math.exp(-r * r),
        )
        rep = hpw_report(EUCLID3, 3, u)
        assert rep.ratio > 2.25
        # regression baseline for the recorded slack
        assert rep.ratio == pytest.approx(2.369008264462809, rel=1e-9)

    def test_algebraic_decay_rejected(self):
        u = TF.radial(
            RadialProfile(lambda r: (1 + r * r) ** -4, DecayClass.algebraic()),
            lambda r: -8 * r * (1 + r * r) ** -5,
        )
        with pytest.raises(ValueError):
            hpw_report(EUCLID3, 3, u)

    def test_moment_identity(self):
        for lam in (0.5, 1.0, 2.0):
            assert gaussian_moment_identity(3, lam) <= 1e-8

    def test_slack_never_below_numerics(self):
        for lam in (0.5, 1.0, 2.0):
            rep = hpw_report(EUCLID3, 3, gaussian_tf(lam))
            assert rep.slack >= -10 * rep.combined_error


class TestHardy:
    def bump(self):
        return TF.radial(
            RadialProfile(lambda r: r * math.exp(-r * r), DecayClass.gaussian(1.0)),
            lambda r: (1 - 2 * r * r) * math.exp(-r * r),
        )

    def test_above_sharp_constant_n3(self):
        rep = hardy_report(EUCLID3, 3, self.bump())
        assert rep.ratio > 0.25

    def test_above_sharp_constant_n4(self):
        rep = hardy_report(EUCLID3, 4, self.bump())
        assert rep.ratio > 1.0

    def test_zero_function_rejected(self):
        zero = TF.radial(
            RadialProfile(lambda r: 0.0, DecayClass.compact(1.0)), lambda r: 0.0
        )
        with pytest.raises(ValueError):
            hardy_report(EUCLID3, 3, zero)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            hardy_report(MinkowskiNorm(2, "lp", exponent=4.0), 2, self.bump())

    def test_positive_curvature_rejected(self):
        with pytest.raises(ValueError):
            hardy_report(EUCLID3, 3, self.bump(), c=1.0)


class TestSmoothstep:
    def test_plateaus_and_monotone(self):
        psi, dpsi = smoothstep_cutoff(1.0, 2.0)
        assert psi(0.3) == 1.0 and psi(1.0) == 1.0
        assert psi(2.0) == 0.0 and psi(5.0) == 0.0
        xs = np.linspace(1.0, 2.0, 101)
        vals = [psi(x) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_derivative_matches_fd(self):
        psi, dpsi = smoothstep_cutoff(1.0, 2.0)
        h = 1e-6
        for x in (1.2, 1.5, 1.8):
            fd = (psi(x + h) - psi(x - h)) / (2 * h)
            assert dpsi(x) == pytest.approx(fd, abs=1e-8)

    def test_bad_radii(self):
        with pytest.raises(ValueError):
            smoothstep_cutoff(2.0, 1.0)


class TestSharpnessSweep:
    def test_monotone_and_above_target(self):
        out = hardy_sharpness_sweep(EUCLID3, 3, 1.0, 2.0, [1e-2, 1e-3, 1e-4])
        qs = out["quotients"]
        assert all(b <= a + 1e-12 for a, b in zip(qs, qs[1:]))
        assert all(q >= 0.25 for q in qs)
        assert out["target"] == pytest.approx(0.25)

    def test_epsilon_must_sit_below_inner_radius(self):
        with pytest.raises(ValueError):
            hardy_sharpness_sweep(EUCLID3, 3, 1.0, 2.0, [1e-2, 1.5])

    @pytest.mark.parametrize("eps", [[], [1e-2]])
    def test_needs_two_epsilons(self, eps):
        # one eps leaves the extrapolation underdetermined
        with pytest.raises(ValueError, match="two eps"):
            hardy_sharpness_sweep(EUCLID3, 3, 1.0, 2.0, eps)

    @staticmethod
    def capped_power(n, r, R, eps):
        """u_eps as scalar closures, for the adaptive hardy_report."""
        gamma = (n - 2) / 2
        psi, dpsi = smoothstep_cutoff(r, R)

        def u(rho):
            return psi(rho) * max(eps, rho) ** (-gamma)

        def du(rho):
            if rho <= eps:
                return 0.0
            return dpsi(rho) * rho ** (-gamma) - gamma * psi(rho) * rho ** (-gamma - 1)

        return TF.radial(RadialProfile(u, DecayClass.compact(R), breakpoints=(eps, r)), du)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_adaptive_hardy_report(self, n, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        norm = MinkowskiNorm(n, "weighted-euclidean", matrix=np.eye(n))
        for r, R, eps_list in ((1.0, 2.0, [10.0**-k for k in range(2, 9)]),
                               (0.5, 1.5, [10.0**-k for k in range(3, 9)])):
            out = hardy_sharpness_sweep(norm, n, r, R, eps_list, spec)
            for eps, q in zip(eps_list, out["quotients"]):
                want = hardy_report(norm, n, self.capped_power(n, r, R, eps), 0.0, spec).ratio
                assert q == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_limit_is_the_sharp_constant(self, n, tol):
        # the quotient is exactly A + B/(ln(1/eps) + C), so the fit recovers
        # A = (n-2)^2/4 to rounding
        spec = QuadratureSpec(relative_tolerance=tol)
        norm = MinkowskiNorm(n, "weighted-euclidean", matrix=np.eye(n))
        for r, R, eps_list in ((1.0, 2.0, [10.0**-k for k in range(2, 9)]),
                               (0.5, 1.5, [10.0**-k for k in range(3, 9)])):
            out = hardy_sharpness_sweep(norm, n, r, R, eps_list, spec)
            assert abs(out["extrapolated_limit"] - (n - 2) ** 2 / 4) <= 1e-13

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_two_epsilons_interpolate(self, n):
        # two eps fix A and B of A + B/ln(1/eps): the line meets both points
        norm = MinkowskiNorm(n, "weighted-euclidean", matrix=np.eye(n))
        eps = [1e-3, 1e-6]
        out = hardy_sharpness_sweep(norm, n, 1.0, 2.0, eps)
        A, B = out["extrapolated_limit"], out["fit_coefficient"]
        for e, q in zip(eps, out["quotients"]):
            assert A + B / math.log(1 / e) == pytest.approx(q, rel=1e-14, abs=0)

    def test_no_scalar_quadrature(self, monkeypatch):
        def scalar(*args, **kwargs):
            raise AssertionError("the sweep called a scalar radial integral")

        monkeypatch.setattr(flat, "radial_integral", scalar)
        monkeypatch.setattr(flat, "flat_radial_volume_integral", scalar)
        out = hardy_sharpness_sweep(EUCLID3, 3, 1.0, 2.0, [1e-2, 1e-4, 1e-8])
        assert len(out["quotients"]) == 3

    def test_profile_outside_float_range(self):
        # u_eps^2 = eps^-6 overflows at n = 8
        norm = MinkowskiNorm(8, "weighted-euclidean", matrix=np.eye(8))
        with pytest.raises(QuadratureError, match="float range"):
            hardy_sharpness_sweep(norm, 8, 1.0, 2.0, [1e-60, 1e-61])


class TestDoubleHardy:
    def bump(self):
        psi, dpsi = smoothstep_cutoff(0.5, 1.0)
        return TF.radial(
            RadialProfile(lambda r: psi(r), DecayClass.compact(1.0), breakpoints=(0.5,)),
            dpsi,
        )

    def test_euclidean_slack(self):
        rep = double_hardy_report(EUCLID3, 3, self.bump(), 2.0, uniformity=1.0)
        assert rep.slack >= -1e-9

    def test_lp4_with_its_uniformity_constant(self):
        norm = MinkowskiNorm(2, "lp", exponent=4.0)
        l_star = uniformity_constant(norm)
        assert 0 < l_star < 1
        rep = double_hardy_report(LP4_3, 3, self.bump(), 2.0, uniformity=l_star)
        assert rep.slack >= -1e-9

    def test_non_compact_support_rejected(self):
        with pytest.raises(ValueError):
            double_hardy_report(EUCLID3, 3, gaussian_tf(), 2.0)

    def test_outer_radius_must_exceed_support(self):
        with pytest.raises(ValueError):
            double_hardy_report(EUCLID3, 3, self.bump(), 0.5)
