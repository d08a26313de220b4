import functools
import math
import re
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from sharpineq import flat, hyperbolic, quadrature
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
    fd_derivative,
    gaussian_T,
    gaussian_T_grid,
    gaussian_hardy_reports,
    gaussian_hpw_reports,
    gaussian_moment_identity,
    hardy_report,
    hardy_sharpness_sweep,
    hpw_report,
    interpolation_report,
    kernel_g,
    kernel_h,
    norm_value,
    pqr,
    radial_integral,
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

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("triple", [
        (3, 3.0, 1.0), (4, 3.0, 0.5), (3, 2.5, 1.5), (5, 2.4, 0.2), (6, 2.3, 0.5), (7, 2.2, 0.1), (8, 2.2, 0.1),
        (3, 3.0, 0.0005),
    ])
    def test_pqr_is_the_identity_pass(self, triple, tol, monkeypatch):
        # the report triples whose passes meet the tolerance: P, Q and R are
        # the rows check_pqr_identity reads, so Q R / P^2 is its ratio bit for
        # bit, and no scalar integral runs: radial_integrals, the scalar
        # front end of the adaptive loop, is gone at both of its call sites
        monkeypatch.setattr(quadrature, "radial_integrals", None)
        monkeypatch.setattr(flat, "radial_integrals", None)
        t, spec = ExponentTriple(*triple), QuadratureSpec(relative_tolerance=tol)
        for lam in (0.5, 1.0, 2.0):
            P, Q, R = (pqr(t, lam, which, spec) for which in "PQR")
            assert Q.value * R.value / P.value**2 == check_pqr_identity(t, [lam], spec)[0].ratio

    def test_pqr_raises_as_the_batch(self):
        t = ExponentTriple(3, 2.002, 1.0)
        with pytest.raises(QuadratureError) as exc:
            pqr(t, 0.25, "P")
        assert str(exc.value) == (
            "non-finite integral at 1 of 1 parameters, first at lam = 0.25 for (n, p, q) = (3, 2.002, 1.0): "
            "outside the float range"
        )

    @pytest.mark.parametrize("check", [check_pqr_identity, check_p_ode])
    def test_tolerance_failure_names_its_lambda(self, check):
        # P of (3, 3, 1.49975) decays like rho^-1.0005, (1 - x)^-0.999 on the
        # tail map: the batch doubles its panels to the cap and counts the
        # lambdas that miss the tolerance, naming the worst
        with pytest.raises(QuadratureError) as exc:
            check(ExponentTriple(3, 3.0, 1.49975), [1.0, 0.5])
        assert re.fullmatch(
            r"requested tolerance 1e-09 not met with 512 panels at 2 parameters; worst at "
            r"lam = (1\.0|0\.5) for \(n, p, q\) = \(3, 3\.0, 1\.49975\): relative error estimate \S+",
            str(exc.value),
        )

    @pytest.mark.parametrize("call, lam, what", [
        # P = 2.3e-306 is a normal float, but a row of the ODE check's
        # batch is not, and misses the tolerance relative to it
        (lambda t: flat.pqr_reports(t, [2.0]), "2.0", "integral outside the normal floats at 1 of 1"),
        # P underflows to 0.0, which meets the rule with an estimate of 0
        (lambda t: pqr(t, 4.0, "P"), "4.0", "integral outside the normal floats at 1 of 1"),
        # P and R are normal floats, but P^2 and Q R are not
        (lambda t: check_pqr_identity(t, [1.0, 1.5]), "1.5",
         "product X Y or square Z^2 of a ratio X Y / Z^2 outside the float range at 1 of 2"),
    ])
    def test_underflow_named(self, call, lam, what):
        # (3, 2.002, 1): P falls like lam^-999; an integral, or a term of
        # Q R / P^2, outside the normal floats names its lam, instead of a
        # ZeroDivisionError or a P of 0.0
        with pytest.raises(QuadratureError) as exc:
            call(ExponentTriple(3, 2.002, 1.0))
        assert str(exc.value) == f"{what} parameters, first at lam = {lam} for (n, p, q) = (3, 2.002, 1.0)"

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
        # near the boundary (q < 1e-3) as anywhere: each check takes its
        # integrals from one gauss_kronrod_batch call over the grid, one
        # parameter row per lambda, and no scalar integral; the identity
        # reads P and R, two integrals, the ODE check P, R and the four
        # finite-difference points of P, six; a row holds the points of P
        # and the split c
        calls, batch = [], flat.gauss_kronrod_batch

        def recording(integrand, params, spec, describe):
            x = np.full(5, 0.5)
            calls.append((params.shape, integrand(x, params[:, None]).shape))
            return batch(integrand, params, spec, describe)

        monkeypatch.setattr(flat, "gauss_kronrod_batch", recording)
        monkeypatch.setattr(quadrature, "_adaptive_pass", None)
        t = ExponentTriple(3, 3.0, 0.0005)
        for check, q in ((check_pqr_identity, 2), (check_p_ode, 6)):
            calls.clear()
            check(t, [0.5, 1.0, 2.0])
            assert calls == [((3, q), (q, 3, 5))]

    def test_overflow_named(self):
        # P of (3, 2.002, 1) is about 1e600 at lam = 0.5; at lam = 0.25 the
        # kernel itself overflows near the origin: the scalar loop names the
        # piece, then the first such node in QUADPACK's order, the outer
        # Gauss node 0.25 (1 - 0.97390...) of [0, 1]'s left half on G10/K21
        t = ExponentTriple(3, 2.002, 1.0)

        def scalar_p(lam):
            prof = RadialProfile(functools.partial(kernel_h, t, lam), DecayClass.algebraic())
            return flat.ball_volume_constant(3) * radial_integral(prof, ("power", 3)).value

        with pytest.raises(QuadratureError) as exc:
            scalar_p(0.5)
        assert str(exc.value) == "integral over rho in [0.0, 1.0] is inf: outside the float range"
        with pytest.raises(QuadratureError, match=r"^profile exceeds the float range at rho=0\.006523367870707064$"):
            scalar_p(0.25)

    @pytest.mark.parametrize("check", [check_pqr_identity, check_p_ode])
    def test_overflow_named_on_the_batch(self, check):
        # at lam = 0.5 and 0.25 the kernels of (3, 2.002, 1), about
        # lam^-1002 near the origin, overflow: the batch counts the lambdas
        # whose integrals leave the float range and names the first; no
        # numpy warning escapes
        t = ExponentTriple(3, 2.002, 1.0)
        with pytest.raises(QuadratureError) as exc:
            check(t, [1.0, 0.5, 0.25])
        assert str(exc.value) == (
            "non-finite integral at 2 of 3 parameters, first at lam = 0.5 for (n, p, q) = (3, 2.002, 1.0): "
            "outside the float range"
        )


def beta_form(t, lam, m, e, c1, c0):
    """(omega_n/(2-q)) lam^(m+e+1) [c1 B(m+1, -e-m-1) + c0 B(m, -e-m)], and a bound on its rounding.

    B(x, y) = exp(lgamma(x) + lgamma(y) - lgamma(x+y)): a few ulp of each
    lgamma become that many ulp of the sum in the exponent.
    """
    value = slack = 0.0
    for c, x, y in ((c1, m + 1, -e - m - 1), (c0, m, -e - m)):
        logs = (math.lgamma(x), math.lgamma(y), -math.lgamma(x + y))
        term = c * math.exp(sum(logs))
        value += term
        slack += abs(term) * 4 * EPS * (1 + sum(map(abs, logs)))
    scale = flat.ball_volume_constant(t.n) / (2 - t.q) * lam ** (m + e + 1)
    return scale * value, abs(scale) * slack + 4 * EPS * abs(scale * value)


def closed_p(t, lam):
    """P(lam) in closed form: s = rho^(2-q) turns it into two Beta integrals."""
    n, p, q = t.n, t.p, t.q
    return beta_form(t, lam, (n - q) / (2 - q), (2 * p - 2) / (2 - p), 2 * (p - q) / (p - 2), q)


def closed_r(t, lam):
    """R(lam) in closed form, as P with m + 1, (3p-4)/(2-p) and g's coefficients."""
    n, p, q = t.n, t.p, t.q
    coeff = (2 * p - 2) * (2 - q) / (p - 2) + 2 * (q - 1)
    return beta_form(t, lam, (n - q) / (2 - q) + 1, (3 * p - 4) / (2 - p), coeff, 2 * (q - 1))


def one_lambda_at_a_time(t, grid, spec=QuadratureSpec()):
    """pqr_reports as a loop of one-lambda calls: the reference of the batch over a grid."""
    return [pair for lam in grid for pair in flat.pqr_reports(t, [lam], spec)]


EPS = 2.0**-52
PASS_TRIPLES = [(3, 3.0, 1.0), (4, 3.0, 0.5), (3, 2.5, 1.5), (5, 2.4, 0.2), (7, 2.2, 0.1), (3, 3.0, 0.0005)]
# p near 2: |e| = (2p - 2)/(p - 2) is in the thousands, and P's mass lies
# near rho = (lam y*)^(1/(2-q)), about 1e-3; at other lambdas of the
# report grids the kernels leave the float range
NEAR_TRIPLES = [(4, 2.0008, 1.0), (3, 2.0005, 1.0), (3, 2.002, 1.0)]


class TestExtremalPass:
    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("triple, lams", [(t, [0.25, 0.5, 1.0, 2.0, 4.0]) for t in PASS_TRIPLES]
                             + [(t, [1.0]) for t in NEAR_TRIPLES])
    def test_rows_within_their_estimates_of_the_closed_form(self, triple, lams, tol):
        # every row, P at the five points and R, lies within its own error
        # estimate of the Beta form (plus its rounding): for these integrands,
        # endpoint singularities included, |K - G| bounds the error
        t = ExponentTriple(*triple)
        for lam in lams:
            ((lams, P, R),) = flat._extremal_passes(t, [lam], QuadratureSpec(relative_tolerance=tol))
            h = 1e-5 * lam
            assert lams == [lam, lam + h, lam - h, lam + h / 2, lam - h / 2]
            rows = [(closed_p(t, la), got) for la, got in zip(lams, P)] + [(closed_r(t, lam), R)]
            for (exact, slack), got in rows:
                assert got.error_estimate <= tol * abs(got.value)
                assert abs(got.value - exact) <= got.error_estimate + slack

    def test_pass_matches_scalar_integrals(self):
        t = ExponentTriple(4, 3.0, 0.5)
        spec = QuadratureSpec(relative_tolerance=1e-12)
        ((lams, P, R),) = flat._extremal_passes(t, [1.0], spec)
        omega = flat.ball_volume_constant(t.n)
        for got, kernel in ((P[0], kernel_h), (R, kernel_g)):
            prof = RadialProfile(functools.partial(kernel, t, 1.0), DecayClass.algebraic())
            ref = radial_integral(prof, ("power", t.n), spec)
            assert got.value == pytest.approx(omega * ref.value, rel=2e-12)

    def test_pass_follows_kernel_g(self, monkeypatch):
        # R comes from flat._kernel_g, the expression kernel_g evaluates:
        # scaling it scales the R row, and Q R / P^2 by its square
        t = ExponentTriple(3, 3.0, 1.0)
        factor = 1 + 3e-7
        R0 = flat._extremal_passes(t, [1.0], QuadratureSpec())[0][2].value
        ratio0 = check_pqr_identity(t, [1.0])[0].ratio
        original = flat._kernel_g

        def scaled(t):
            g = original(t)
            return lambda rho, lam: g(rho, lam) * factor

        monkeypatch.setattr(flat, "_kernel_g", scaled)
        assert kernel_g(t, 1.0, 0.7) == original(t)(0.7, 1.0) * factor
        assert flat._extremal_passes(t, [1.0], QuadratureSpec())[0][2].value / R0 == pytest.approx(factor, rel=1e-13)
        assert check_pqr_identity(t, [1.0])[0].ratio / ratio0 == pytest.approx(factor**2, rel=1e-13)

    def test_kernels_evaluate_only_the_counted_nodes(self, monkeypatch):
        # at 1e-9 both lambdas of this near-boundary grid refine once, from
        # 4 panels to 8; the kernels see both radii of every node of both
        # rounds and no others, so the radii they take are the batch's
        # kernel values over q = 6 rows, which every result carries
        t = ExponentTriple(3, 2.002, 1.0)
        original, seen = flat._kernel_h, []

        def counted(t):
            h = original(t)

            def wrapped(rho, lam):
                seen.append(rho.size)
                return h(rho, lam)

            return wrapped

        monkeypatch.setattr(flat, "_kernel_h", counted)
        passes = flat._extremal_passes(t, [1.0, 1.01], QuadratureSpec(relative_tolerance=1e-9))
        (evals,) = {x.nodes_used for _, Ps, R in passes for x in (*Ps, R)}
        assert sum(seen) == evals // 6 == 2 * 2 * (4 + 8) * quadrature._GK21_NODES.size

    def test_value_depends_only_on_its_lambda(self):
        t = ExponentTriple(3, 2.5, 1.5)
        alone = flat.pqr_reports(t, [1.0])
        assert flat.pqr_reports(t, [0.5, 1.0, 2.0])[1] == alone[0]
        assert check_pqr_identity(t, [1.0]) == [alone[0][0]]
        assert check_p_ode(t, [1.0]) == [alone[0][1]]

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("triple", PASS_TRIPLES + [(6, 2.3, 0.5), (8, 2.2, 0.1)])
    def test_grid_equals_one_lambda_at_a_time(self, triple, tol):
        # the batch refines every lambda on its own panels: every report and
        # residual of a grid, through pqr_reports, check_pqr_identity and
        # check_p_ode, prints as that of its lambda alone, on every smooth
        # report triple of perfbench's catalogue
        t, spec = ExponentTriple(*triple), QuadratureSpec(relative_tolerance=tol)
        grid = [0.25, 0.5, 1.0, 2.0, 4.0, 1.0]
        assert repr(flat.pqr_reports(t, grid, spec)) == repr(one_lambda_at_a_time(t, grid, spec))
        for check in (check_pqr_identity, check_p_ode):
            assert repr(check(t, grid, spec)) == repr([x for lam in grid for x in check(t, [lam], spec)])

    @pytest.mark.parametrize("grid, failing, first, text", [
        ([0.5, 0.25], 2, 0.5, "non-finite integral"),
        ([1.0, 0.5], 1, 0.5, "non-finite integral"),
        ([1.0, 0.25, 0.5], 2, 0.25, "non-finite integral"),
        ([2.0, 0.5], 1, 0.5, "non-finite integral"),
        ([1.0, 2.0, 0.25], 1, 0.25, "non-finite integral"),
        ([1.0, 2.0, 4.0], 1, 2.0, "integral outside the normal floats"),
        ([1.0, 1.0], 0, None, None),
    ])
    def test_raises_for_the_grid(self, grid, failing, first, text):
        # (3, 2.002, 1): lam = 0.25 and 0.5 overflow in the first round,
        # lam = 2 falls below the normal floats a round later, and lam = 4
        # underflows.  A grid with a failing lambda raises one
        # QuadratureError that counts the lambdas failing in the earliest
        # round that has one and names the first of them in grid order, and
        # every lambda alone raises as its own grid of one
        t = ExponentTriple(3, 2.002, 1.0)
        if first is None:
            assert flat.pqr_reports(t, grid) == one_lambda_at_a_time(t, grid)
            return
        with pytest.raises(QuadratureError) as exc:
            flat.pqr_reports(t, grid)
        assert str(exc.value).startswith(
            f"{text} at {failing} of {len(grid)} parameters, first at lam = {first!r} for (n, p, q) = (3, 2.002, 1.0)"
        )
        with pytest.raises(QuadratureError):
            one_lambda_at_a_time(t, [first])

    @pytest.mark.parametrize("triple, rounds", [
        (PASS_TRIPLES[0], 1), (PASS_TRIPLES[1], 1), (PASS_TRIPLES[2], 1), (PASS_TRIPLES[3], 1),
        (PASS_TRIPLES[4], 1), (PASS_TRIPLES[5], 1), (NEAR_TRIPLES[0], 2), (NEAR_TRIPLES[1], 2),
        (NEAR_TRIPLES[2], 2),
    ])
    def test_rounds_of_one_lambda(self, monkeypatch, triple, rounds):
        # the lam = 1 row at 1e-12 meets the rule in this many rounds of the
        # batch, one integrand call each: split at the peak of P's
        # integrand, the smooth triples meet it on 4 panels and the
        # near-boundary ones on 8
        calls, batch = [], flat.gauss_kronrod_batch

        def counted(integrand, *args):
            return batch(lambda x, p: calls.append(x.size) or integrand(x, p), *args)

        monkeypatch.setattr(flat, "gauss_kronrod_batch", counted)
        flat.pqr_reports(ExponentTriple(*triple), [1.0], QuadratureSpec(relative_tolerance=1e-12))
        assert len(calls) == rounds

    def test_p_ode_residual_from_the_pass_points(self):
        # fd_derivative's Richardson quotient of the pass's five P values
        t = ExponentTriple(5, 2.4, 0.2)
        ((lams, P, _),) = flat._extremal_passes(t, [2.0], QuadratureSpec())
        values = dict(zip(lams, (x.value for x in P)))
        coeff = (-t.n + 2 * (t.p - t.q) / (t.p - 2)) / (2 - t.q)
        expected = (coeff * P[0].value + 2.0 * fd_derivative(values.__getitem__, 2.0)) / P[0].value
        assert check_p_ode(t, [2.0]) == [expected]


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

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_analytic_derivative(self, n, tol):
        # T' from T and its next moment: the ODE residual is at rounding level,
        # and agrees with the residual of the Richardson difference of T
        spec = QuadratureSpec(relative_tolerance=tol)
        for lam in (0.5, 1.0, 2.0):
            out = gaussian_T(n, lam, spec)
            assert abs(out["ode_relative_residual"]) <= 1e-10
            fd = fd_derivative(lambda la: gaussian_T(n, la, spec)["value"], lam)
            fd_residual = (-lam * fd - (n / 2) * out["value"]) / out["value"]
            assert abs(out["ode_relative_residual"] - fd_residual) <= 1e-6

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_grid_from_one_moments_call(self, tol, monkeypatch):
        # the grid form equals gaussian_T at each lam, bit for bit, from one
        # call for the Gamma values of the grid, with no Gauss-Kronrod pass;
        # n = 3 on the lambdas 0.25, 0.5 and 4 is an identities run's grid
        spec = QuadratureSpec(relative_tolerance=tol)
        grids = [(4, [0.5, 1.0, 2.0]), (3, [0.25, 0.5, 4.0])]
        singles = [[gaussian_T(n, lam, spec) for lam in lams] for n, lams in grids]
        calls = []
        moments = flat._gaussian_moments
        monkeypatch.setattr(flat, "_gaussian_moments", lambda *a: calls.append(a) or moments(*a))
        monkeypatch.setattr(flat, "gauss_kronrod_batch", None)
        assert [gaussian_T_grid(n, lams, spec) for n, lams in grids] == singles
        assert len(calls) == len(grids)
        with pytest.raises(ValueError):
            gaussian_T_grid(4, [1.0, 0.0])

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_value_matches_scalar_integral(self, n, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        omega = flat.ball_volume_constant(n)
        for lam in (0.5, 1.0, 2.0):
            prof = RadialProfile(lambda r: math.exp(-2 * lam * r * r), DecayClass.gaussian(2 * lam))
            scalar = 4 * lam * omega * radial_integral(prof, ("power", n + 1), spec).value
            assert gaussian_T(n, lam, spec)["value"] == pytest.approx(scalar, rel=1e-12)


# sqrt(pi) to 60 digits
SQRT_PI = Fraction(Decimal("1.77245385090551602729816748334114518279754945612238712821381"))


class TestGaussianMoments:
    """The closed-form moments of flat space and their rounding bounds."""

    @staticmethod
    def gamma(k):
        # Gamma((k+1)/2): i! for k = 2i + 1, (2i)! / (4^i i!) sqrt(pi) for k = 2i
        i = k // 2
        if k % 2:
            return Fraction(math.factorial(i))
        return Fraction(math.factorial(2 * i), 4**i * math.factorial(i)) * SQRT_PI

    @pytest.mark.parametrize("k", range(0, 24))
    def test_gamma_values_within_their_bound(self, k):
        # c rate^j int rho^k e^(-rate rho^2) = c rate^(j - (k+1)/2) Gamma((k+1)/2) / 2
        # at rates 4^p, whose powers are exact, against the exact value
        params = np.array([4.0**p / 2 for p in range(-3, 4)])
        got = flat._gaussian_moments([[(1.0, k, 0)], [(3.0, k, 1)]], params, QuadratureSpec(), repr)
        for p, (plain, scaled) in zip(range(-3, 4), got):
            for r, c, j in ((plain, 1, 0), (scaled, 3, 1)):
                exact = c * self.gamma(k) / 2 * Fraction(2) ** (p * (2 * j - k - 1))
                assert abs(Fraction(r.value) - exact) <= Fraction(r.error_estimate), (k, p, j)
                assert 0 < r.error_estimate <= (k + 8) * EPS * r.value and r.nodes_used == 0
        if k % 2:
            # ((k-1)/2)! / 2 is a float: the odd moments at rate 1 are exact
            assert got[3][0].value == self.gamma(k) / 2

    @pytest.mark.parametrize("n", range(3, 9))
    def test_hardy_sum_within_its_bound(self, n):
        # A at rate 1 is (1 - n + n(n+2)/4) Gamma(n/2) / 2 for c = 1; its
        # bound covers the cancellation of the three terms
        A, H = flat._gaussian_moments([[(1.0, n - 1, 0), (-2.0, n + 1, 1), (1.0, n + 3, 2)], [(1.0, n - 1, 0)]],
                                      np.array([0.5]), QuadratureSpec(), repr)[0]
        exact = Fraction(n * n - 2 * n + 4, 4) * self.gamma(n - 1) / 2
        assert abs(Fraction(A.value) - exact) <= Fraction(A.error_estimate)
        assert abs(Fraction(H.value) - self.gamma(n - 1) / 2) <= Fraction(H.error_estimate)

    def test_bound_above_the_tolerance_named(self):
        # the bounds of L, M and A at n = 3 are about 8e-16 of their values
        with pytest.raises(QuadratureError) as exc:
            gaussian_hpw_reports(3, [1.0, 2.0], QuadratureSpec(relative_tolerance=1e-16))
        assert str(exc.value) == (
            "rounding bound above the requested tolerance 1e-16 at 2 of 2 parameters, first at lam = 1.0 for n = 3")

    def test_float_edge_named(self):
        # at n = 3 the term 4 omega Gamma(7/2) / 2 (2 lam)^(-5/2) = 27.8
        # (2 lam)^(-5/2) of T' is a normal float from lam = 1e122 to about
        # 2.2e123, though at 1e123 its power of the rate, 5.6e-309, is
        # subnormal: the term is formed in one scaled step there, within its
        # bound of the exact value; past the normal floats it is named
        c, rate = 4 * flat.ball_volume_constant(3), 2e123
        ((term,),) = flat._gaussian_moments([[(c, 6, 1)]], np.array([1e123]), QuadratureSpec(), repr)
        root = Fraction(Decimal(rate).sqrt(Context(prec=60)))
        exact = Fraction(c) * self.gamma(6) / 2 / (Fraction(rate) ** 2 * root)
        assert abs(Fraction(term.value) - exact) <= Fraction(term.error_estimate)
        assert 1.5e-307 < term.value < 1.6e-307
        for lam in (1e122, 1e123):
            (out,) = gaussian_T_grid(3, [lam])
            assert abs(out["ode_relative_residual"]) <= 4 * EPS
        with pytest.raises(QuadratureError) as exc:
            gaussian_T_grid(3, [1e123, 1e124])
        assert str(exc.value) == (
            "integral outside the normal floats at 1 of 2 parameters, first at lam = 1e+124 for n = 3")


# pi to 50 digits, for the exact Gaussian rows at 40
PI = Decimal("3.1415926535897932384626433832795028841971693993751")


class TestGaussianRowsExact:
    """Every integral of flat space's Gaussian rows within its own estimate of its exact value."""

    @staticmethod
    def integrals(monkeypatch, call):
        # the IntegralResults that call takes from _gaussian_moments, one list per parameter
        seen, moments = [], flat._gaussian_moments
        monkeypatch.setattr(flat, "_gaussian_moments", lambda *args: seen.append(moments(*args)) or seen[-1])
        call()
        (rows,) = seen
        return rows

    @staticmethod
    def within(result, exact):
        return abs(Decimal(result.value) - exact) <= Decimal(result.error_estimate)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_hpw_rows(self, monkeypatch, n):
        # L = (pi / (2 lam))^(n/2), M = n L / (4 lam), A = n lam L
        lams = [0.5, 1.0, 2.0]
        rows = self.integrals(monkeypatch, lambda: gaussian_hpw_reports(n, lams))
        with localcontext(Context(prec=40)):
            for lam, (L, M, A) in zip(map(Decimal, lams), rows):
                exact = (PI / (2 * lam)).sqrt() ** n
                for result, want in ((L, exact), (M, n * exact / (4 * lam)), (A, n * lam * exact)):
                    assert self.within(result, want), (n, lam, result)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_hardy_rows(self, monkeypatch, n):
        # at a = 1, H = (pi / 2)^(n/2) and A = (n^2/4 - n/2 + 1) H
        ((A, H),) = self.integrals(monkeypatch, lambda: gaussian_hardy_reports(n, [1.0]))
        with localcontext(Context(prec=40)):
            exact = (PI / 2).sqrt() ** n
            assert self.within(H, exact) and self.within(A, (Decimal(n * n - 2 * n + 4) / 4) * exact)


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

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_gaussian_reports_match_scalar_reports(self, n, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        norm = MinkowskiNorm(n, "weighted-euclidean", matrix=np.eye(n))
        lams = (0.25, 0.5, 1.0, 2.0, 4.0)
        for lam, (rep, defect) in zip(lams, gaussian_hpw_reports(n, lams, spec)):
            scalar = hpw_report(norm, n, flat.RadialFunction.gaussian(lam), spec)
            for field in ("lhs", "rhs", "ratio"):
                assert getattr(rep, field) == pytest.approx(getattr(scalar, field), rel=1e-12)
            assert rep.target == scalar.target
            assert all(0 <= e <= tol for e in rep.integral_errors)
            assert defect == gaussian_moment_identity(n, lam, spec) <= 1e-14

    def test_gaussian_reports_reject_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            gaussian_hpw_reports(3, (1.0, 0.0))

    def test_gaussian_reports_one_moments_call(self, monkeypatch):
        # L and M of every lam are the moments of rho^(n-1) and rho^(n+1),
        # and A is rate^2 M, from one call for the grid, with no
        # Gauss-Kronrod pass
        calls = []
        moments = flat._gaussian_moments
        monkeypatch.setattr(flat, "_gaussian_moments", lambda *a: calls.append(a[0]) or moments(*a))
        monkeypatch.setattr(flat, "gauss_kronrod_batch", None)
        assert len(gaussian_hpw_reports(5, (0.5, 1.0, 2.0))) == 3
        assert [[[(k, j) for _, k, j in terms] for terms in rows] for rows in calls] == [[[(4, 0)], [(6, 0)], [(6, 2)]]]

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


def hardy_tf(a):
    """u = r e^(-a r^2) as scalar closures, for the adaptive Hardy reports."""
    return TF.radial(
        RadialProfile(lambda r: r * math.exp(-a * r * r), DecayClass.gaussian(a)),
        lambda r: (1 - 2 * a * r * r) * math.exp(-a * r * r),
    )


def within_combined_estimates(got, want):
    """lhs, rhs and ratio of two reports of one inequality within the sum of
    their estimates (plus rounding); the same target."""
    assert got.target == want.target
    slack = got.combined_error + want.combined_error + 16 * EPS
    for field in ("lhs", "rhs", "ratio"):
        g, w = getattr(got, field), getattr(want, field)
        assert abs(g - w) <= slack * abs(w), (field, g, w)


class TestGaussianHardy:
    """hardy_report of r e^(-a r^2) from one batched pass for every a."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_scalar_report(self, n, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        rates = (0.5, 1.0, 2.0)
        for a, got in zip(rates, gaussian_hardy_reports(n, rates, spec)):
            assert all(0 <= e <= tol for e in got.integral_errors)
            within_combined_estimates(got, hardy_report(EUCLID3, n, hardy_tf(a), 0.0, spec))

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_closed_form(self, n, tol):
        # A / H = n^2/4 - n/2 + 1, and H = n omega_n (2a)^(-n/2) Gamma(n/2) / 2
        spec = QuadratureSpec(relative_tolerance=tol)
        rates = (0.5, 1.0, 2.0)
        for a, rep in zip(rates, gaussian_hardy_reports(n, rates, spec)):
            err_a, err_h = rep.integral_errors
            assert rep.target == (n - 2) ** 2 / 4
            assert rep.ratio == pytest.approx(n * n / 4 - n / 2 + 1, rel=err_a + err_h + 16 * EPS)
            H = rep.rhs / rep.target
            closed = n * flat.ball_volume_constant(n) * (2 * a) ** (-n / 2) * math.gamma(n / 2) / 2
            assert H == pytest.approx(closed, rel=err_h + 16 * EPS)

    def test_one_moments_call_no_integral(self, monkeypatch):
        # A is the moment of (1 - 2 rate rho^2 + rate^2 rho^4) rho^(n-1) and
        # H that of rho^(n-1), from one call for every a, with no
        # Gauss-Kronrod pass and no adaptive loop
        calls = []
        moments = flat._gaussian_moments
        monkeypatch.setattr(flat, "_gaussian_moments", lambda *a: calls.append(a[0]) or moments(*a))
        monkeypatch.setattr(quadrature, "_adaptive_pass", None)
        monkeypatch.setattr(flat, "gauss_kronrod_batch", None)
        assert len(gaussian_hardy_reports(4, (0.5, 1.0, 2.0))) == 3
        assert [[[(k, j) for _, k, j in terms] for terms in rows] for rows in calls] == [
            [[(3, 0), (5, 1), (7, 2)], [(3, 0)]]]

    def test_rejects_low_dimension_and_rates(self):
        with pytest.raises(ValueError, match="Hardy needs n >= 3"):
            gaussian_hardy_reports(2, (1.0,))
        for rates in ((1.0, 0.0), (-1.0,), (math.nan,)):
            with pytest.raises(ValueError, match="a must be positive"):
                gaussian_hardy_reports(3, rates)


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

    @pytest.mark.parametrize("eps, repeated", [([1e-3, 1e-3], 1e-3), ([1e-3, 1e-3, 1e-4], 1e-3),
                                               ([1e-2, 1e-4, 0.01], 0.01)])
    def test_repeated_epsilon_named(self, eps, repeated):
        # a repeated eps leaves the least-squares system rank-deficient: it
        # used to return a limit far from the target ([1e-3, 1e-3] gave
        # 0.5296 and [1e-3, 1e-3, 1e-4] 0.3095, against 0.25)
        with pytest.raises(ValueError, match=rf"^eps = {repeated!r} repeats"):
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
            raise AssertionError("the sweep ran the adaptive loop of a radial integral")

        monkeypatch.setattr(quadrature, "_adaptive_pass", scalar)
        # one batched pass, over the eps-free piece [r, R] alone
        calls, batch = [], flat.gauss_kronrod_batch
        monkeypatch.setattr(flat, "gauss_kronrod_batch", lambda *a: calls.append(len(a[1])) or batch(*a))
        out = hardy_sharpness_sweep(EUCLID3, 3, 1.0, 2.0, [1e-2, 1e-4, 1e-8])
        assert len(out["quotients"]) == 3
        assert calls == [1]


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

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_rhs_within_its_err_of_quadpack(self, n, tol):
        # the rhs against scipy's QUADPACK qags, split at the bump's
        # breakpoint, which the scalar loop does not share
        quad = pytest.importorskip("scipy.integrate").quad
        psi, _ = smoothstep_cutoff(0.5, 1.0)
        R, ell, eR = 2.0, 0.5, 2.0 * math.e
        rows = (lambda r: psi(r) ** 2 * r ** (n - 3), lambda r: psi(r) ** 2 * r ** (n - 3) / math.log(eR / r) ** 2)
        ref, ref_err = 0.0, 0.0
        for coeff, row in zip(((n - 2) ** 2 / 4, ell / 4), rows):
            for a, b in ((0.0, 0.5), (0.5, 1.0)):
                v, e = quad(row, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
                ref, ref_err = ref + coeff * v, ref_err + coeff * e
        c = n * math.pi ** (n / 2) / math.gamma(n / 2 + 1)
        ref, ref_err = c * ref, c * ref_err
        rep = double_hardy_report(MinkowskiNorm(n, "weighted-euclidean", matrix=np.eye(n)), n, self.bump(), R, ell,
                                  QuadratureSpec(relative_tolerance=tol))
        assert abs(rep.rhs - ref) <= rep.combined_error * rep.rhs + ref_err, (rep, ref, ref_err)


def rho_gauss(a):
    """u = rho e^(-a rho^2) and its derivative."""
    return flat.RadialFunction(
        RadialProfile(lambda r: r * math.exp(-a * r * r), DecayClass.gaussian(a)),
        lambda r: (1 - 2 * a * r * r) * math.exp(-a * r * r),
    )


def smoothstep_bump():
    """The compact u of the double-Hardy row: the quintic cutoff, 1 on [0, 1/2], 0 past 1."""
    psi, dpsi = smoothstep_cutoff(0.5, 1.0)
    return flat.RadialFunction(RadialProfile(psi, DecayClass.compact(1.0), breakpoints=(0.5,)), dpsi)


# every report that integrates an arbitrary radial u, on flat space (the
# weight rho^(n-1)) and on the ball (sinh^(n-1))
SCALAR_REPORTS = {
    "hpw": lambda spec: hpw_report(EUCLID3, 3, gaussian_tf(0.5), spec),
    "hpw-beta": lambda spec: hpw_report(EUCLID3, 5, flat.RadialFunction.gaussian(1.0, 0.5), spec),
    "hardy": lambda spec: hardy_report(EUCLID3, 4, rho_gauss(2.0), 0.0, spec),
    "double-hardy": lambda spec: double_hardy_report(EUCLID3, 5, smoothstep_bump(), 2.0, 0.5, spec),
    "interpolation-extremal": lambda spec: interpolation_report(
        EUCLID3, ExponentTriple(3, 3.0, 1.0), extremal_profile(ExponentTriple(3, 3.0, 1.0), 1.0), spec
    ),
    "interpolation-gaussian": lambda spec: interpolation_report(
        EUCLID3, ExponentTriple(4, 3.0, 0.5), gaussian_tf(1.0), spec
    ),
    "hpw-hyperbolic": lambda spec: hyperbolic.hpw_hyperbolic_report(flat.RadialFunction.gaussian(1.0, 0.5), 4, spec),
    "modified-hpw": lambda spec: hyperbolic.modified_hpw_report(5, u=flat.RadialFunction.gaussian(0.5), spec=spec),
    "hardy-hyperbolic": lambda spec: hyperbolic.hardy_hyperbolic_report(rho_gauss(1.0), 6, spec),
}


class TestSharedMesh:
    """The integrals of a report share one adaptive mesh and agree with one pass per integral."""

    @staticmethod
    def checked_rows(tol, passes):
        """radial_integrals, each of whose rows must lie within the sum of its
        estimate and that of radial_integral of the row alone, with its own
        decay class and u's breakpoints; passes gets (columns, results) of every pass."""
        shared = flat.radial_integrals

        def spy(columns, decays, weight, spec, breakpoints=()):
            results = shared(columns, decays, weight, spec, breakpoints)
            for j, (decay, res) in enumerate(zip(decays, results)):
                row = RadialProfile(lambda r, j=j: columns([r], [1.0])[j][0], decay, breakpoints)
                one = radial_integral(row, weight, spec)
                assert abs(res.value - one.value) <= res.error_estimate + one.error_estimate, (j, res, one)
                assert res.error_estimate <= tol * abs(res.value)
            passes.append((columns, results))
            return results

        return spy

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("report", SCALAR_REPORTS)
    def test_rows_within_the_estimates_of_one_row_integrals(self, monkeypatch, report, tol):
        passes = []
        monkeypatch.setattr(flat, "radial_integrals", self.checked_rows(tol, passes))
        SCALAR_REPORTS[report](QuadratureSpec(relative_tolerance=tol))
        assert len(passes) == 1 and len(passes[0][1]) >= 2

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_double_hardy_head_in_log_radius(self, monkeypatch, tol):
        # at n = 3 the remainder's head [0, 1/2] is one radial_integral in
        # t = ln(b / rho) and the shared pass carries the remainder past
        # 1/2 alone: every row of the shared pass and the head lie within
        # the sum of their estimates and those of one-row integrals in rho,
        # and the report sums the two parts of the remainder
        spec = QuadratureSpec(relative_tolerance=tol)
        head, passes, heads = flat.radial_integral, [], []

        def head_spy(f, weight, spec):
            heads.append(head(f, weight, spec))
            return heads[-1]

        monkeypatch.setattr(flat, "radial_integrals", self.checked_rows(tol, passes))
        monkeypatch.setattr(flat, "radial_integral", head_spy)
        rep = double_hardy_report(EUCLID3, 3, smoothstep_bump(), 2.0, 0.5, spec)
        ((columns, (A, H, rem)),), (t,) = passes, heads
        below, above = columns([0.25, 0.75], [1.0, 1.0])[2]
        assert below == 0.0 and above > 0.0
        eR = 2.0 * math.e
        inner = radial_integral(
            RadialProfile(lambda r: 1.0 / math.log(eR / r) ** 2 if r < 0.5 else 0.0, DecayClass.compact(0.5)),
            ("power", 0), spec)
        assert abs(t.value - inner.value) <= t.error_estimate + inner.error_estimate, (t, inner)
        assert t.error_estimate <= tol * t.value
        # the shared pass's integrals and the head, each times n omega_n
        A, H, rem, t = (flat._scaled(r, 3 * flat.ball_volume_constant(3)) for r in (A, H, rem, t))
        total = IntegralResult(rem.value + t.value, rem.error_estimate + t.error_estimate, 0)
        assert rep.rhs == 0.25 * H.value + 0.125 * total.value
        assert rep.integral_errors == flat._relative_errors(A, H, total)

    def test_u_and_derivative_once_per_node(self):
        # one evaluation of u and of u' per node for all three hpw rows
        calls = {"u": 0, "du": 0}
        base = flat.RadialFunction.gaussian(1.0)

        def u(r):
            calls["u"] += 1
            return base.profile(r)

        def du(r):
            calls["du"] += 1
            return base.derivative(r)

        f = flat.RadialFunction(RadialProfile(u, base.profile.decay), du)
        spec = QuadratureSpec()
        shared, nodes = flat.radial_integrals, []

        def spy(*args):
            results = shared(*args)
            nodes.extend(r.nodes_used for r in results)
            return results

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flat, "radial_integrals", spy)
            hpw_report(EUCLID3, 3, f, spec)
        assert len(set(nodes)) == 1
        assert calls == {"u": nodes[0], "du": nodes[0]}

    def test_one_cut_at_the_largest_truncation_radius(self):
        # the interpolation rows decay like |u|^2, |u|^(2p-2) and |u|^p: the
        # slowest, rate 2a at p = 3, sets the cut for all three
        t, a = ExponentTriple(4, 3.0, 0.5), 1.0
        shared, cuts = flat.radial_integrals, []

        def spy(columns, decays, weight, spec, breakpoints=()):
            results = shared(columns, decays, weight, spec, breakpoints)
            cuts.append(([d.rate for d in decays], {r.truncation for r in results}))
            return results

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flat, "radial_integrals", spy)
            interpolation_report(EUCLID3, t, gaussian_tf(a))
        ((rates, (T,)),) = cuts
        assert rates == [2 * a, 4 * a, 3 * a]
        assert T == quadrature._truncation_radius(DecayClass.gaussian(2 * a), 0.0, 1e-9)
