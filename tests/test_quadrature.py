import math
import re
import warnings

import numpy as np
import pytest

from sharpineq import (
    DecayClass,
    MinkowskiNorm,
    QuadratureError,
    QuadratureSpec,
    RadialProfile,
    bh_density,
    ball_volume_constant,
    fd_derivative,
    flat_radial_volume_integral,
    gauss_kronrod_batch,
    hyperbolic_gaussian_masses,
    hyperbolic_gaussian_moments,
    hyperbolic_radial_volume_integral,
    monte_carlo_integral,
    radial_integral,
)
from sharpineq import quadrature
from sharpineq.quadrature import (
    _BLOCK_VALUES,
    _FIRST_PANELS,
    _GK21_GAUSS,
    _GK21_KRONROD,
    _GK21_NODES,
    _MAX_SUBINTERVALS,
    _adaptive_gk15,
)


def gauss_profile(rate=1.0):
    return RadialProfile(lambda r: math.exp(-rate * r * r), DecayClass.gaussian(rate))


class TestRadialIntegral:
    def test_gaussian_power3(self):
        res = radial_integral(gauss_profile(), ("power", 3))
        assert res.value == pytest.approx(0.5, rel=1e-10)

    def test_gaussian_power1(self):
        res = radial_integral(gauss_profile(), ("power", 1))
        assert res.value == pytest.approx(0.5, rel=1e-10)

    def test_sinh_weight_vs_trapezoid_oracle(self):
        rho = np.linspace(0.0, 40.0, 1_000_001)
        oracle = float(np.trapezoid(np.exp(-rho ** 2) * np.sinh(rho), rho))
        res = radial_integral(gauss_profile(), ("sinh-power", 1))
        assert res.value == pytest.approx(oracle, abs=1e-8)

    def test_error_estimate_reported(self):
        res = radial_integral(gauss_profile(), ("power", 1))
        assert 0 <= res.error_estimate <= 1e-6 * abs(res.value)
        assert res.nodes_used > 0

    def test_algebraic_decay_against_sinh_rejected(self):
        prof = RadialProfile(lambda r: (1 + r) ** -8, DecayClass.algebraic())
        with pytest.raises(QuadratureError):
            radial_integral(prof, ("sinh-power", 2))

    def test_nonpositive_gaussian_rate_rejected(self):
        prof = RadialProfile(lambda r: 1.0, DecayClass.gaussian(0.0))
        with pytest.raises(QuadratureError):
            radial_integral(prof, ("power", 0))

    def test_compact_support_truncation(self):
        prof = RadialProfile(lambda r: 1.0 if r < 2.0 else 0.0, DecayClass.compact(2.0))
        res = radial_integral(prof, ("power", 1))
        assert res.value == pytest.approx(2.0, rel=1e-10)
        assert res.truncation == 2.0

    def test_compact_support_is_checked(self):
        # a gaussian declared compact would lose its mass past rho = 1
        prof = RadialProfile(lambda r: math.exp(-r * r), DecayClass.compact(1.0))
        with pytest.raises(QuadratureError, match=r"declared compact on \[0, 1.0\] is 0.36787"):
            radial_integral(prof, ("power", 2))

    def test_algebraic_tail(self):
        prof = RadialProfile(lambda r: (1 + r * r) ** -2, DecayClass.algebraic())
        res = radial_integral(prof, ("power", 0))
        assert res.value == pytest.approx(math.pi / 4, rel=1e-9)

    @pytest.mark.parametrize("weight", [("power", 0), ("power", 2), ("sinh-power", 2)])
    def test_profile_overflow_raises(self, weight):
        # e^(-rho^2) through the intermediate e^(71/rho), which overflows below
        # rho ~ 0.1; those nodes are not zeros of the profile
        prof = RadialProfile(
            lambda r: math.exp(-r * r) * math.exp(71 / r) / math.exp(71 / r),
            DecayClass.gaussian(1.0),
        )
        with pytest.raises(QuadratureError, match="profile exceeds the float range at rho="):
            radial_integral(prof, weight)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sinh_weight_overflow_not_dropped(self, n):
        # at small rates sinh^(n-1) alone overflows where e^(-a rho^2)
        # sinh^(n-1) is still large; such nodes must not count as zero
        spec = QuadratureSpec()
        checked = 0
        for a in (0.002, 0.005, 0.01, 0.02):
            try:
                got = hyperbolic_radial_volume_integral(gauss_profile(a), n, spec).value
            except QuadratureError:
                continue
            mass = hyperbolic_gaussian_masses(n, [a], spec)[0][0]
            assert got == pytest.approx(mass, rel=10 * spec.relative_tolerance)
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("n, a, tol", [(8, 0.02, 1e-9), (6, 0.0112, 1e-9), (4, 0.0043, 1e-12)])
    def test_sinh_weight_profile_underflow_raises(self, n, a, tol):
        # e^(-a rho^2) is 0.0 past sqrt(745/a) while e^(-a rho^2) sinh^(n-1)
        # still holds mass there: 1.5e-4, 9.8e-8 and 1.9e-10 of it
        spec = QuadratureSpec(relative_tolerance=tol)
        with pytest.raises(QuadratureError, match=r"underflows to 0 at rho=\d"):
            hyperbolic_radial_volume_integral(gauss_profile(a), n, spec)

    @pytest.mark.parametrize("a", [0.02, 0.25])
    def test_sinh_weight_without_underflow_accepted(self, a):
        spec = QuadratureSpec()
        got = hyperbolic_radial_volume_integral(gauss_profile(a), 6, spec).value
        mass = hyperbolic_gaussian_masses(6, [a], spec)[0][0]
        assert got == pytest.approx(mass, rel=10 * spec.relative_tolerance)


def closed_form_cases():
    """(id, profile, weight, exact integral) with closed forms."""
    cases = []
    for a in (0.25, 1.0, 4.0):
        for k in (0, 1, 2, 3, 5, 7):
            # int r^k e^(-a r^2) = Gamma((k+1)/2) / (2 a^((k+1)/2))
            exact = math.gamma((k + 1) / 2) / (2 * a ** ((k + 1) / 2))
            cases.append((f"power{k}-a{a}", gauss_profile(a), ("power", k), exact))
        # int e^(-a r^2) sinh r and int e^(-a r^2) sinh^2 r
        exact = 0.5 * math.sqrt(math.pi / a) * math.exp(1 / (4 * a)) * math.erf(1 / (2 * math.sqrt(a)))
        cases.append((f"sinh1-a{a}", gauss_profile(a), ("sinh-power", 1), exact))
        exact = 0.25 * math.sqrt(math.pi / a) * math.expm1(1 / a)
        cases.append((f"sinh2-a{a}", gauss_profile(a), ("sinh-power", 2), exact))
    # int r^2 / (1 + r^2)^2 = pi/4, algebraic decay through the mapped tail
    algebraic = RadialProfile(lambda r: (1 + r * r) ** -2, DecayClass.algebraic())
    cases.append(("algebraic", algebraic, ("power", 2), math.pi / 4))
    # r^2 on [0, 1/2] and (1 - r)/2 on [1/2, 1], against r: 1/64 + 1/24
    piecewise = RadialProfile(
        lambda r: r * r if r < 0.5 else (0.5 * (1 - r) if r < 1 else 0.0),
        DecayClass.compact(1.0),
        breakpoints=(0.5,),
    )
    cases.append(("compact-polynomial", piecewise, ("power", 1), 1 / 64 + 1 / 24))
    return cases


class TestRadialIntegralAccuracy:
    """Closed forms at both catalogue tolerances, with no slack on either."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("prof, weight, exact", [pytest.param(*c[1:], id=c[0]) for c in closed_form_cases()])
    def test_closed_form(self, tol, prof, weight, exact):
        res = radial_integral(prof, weight, QuadratureSpec(relative_tolerance=tol))
        assert abs(res.value - exact) <= tol * abs(exact)
        assert res.error_estimate <= tol * abs(res.value)

    def test_nodes_used_counts_evaluations(self):
        calls = []

        def f(r):
            calls.append(r)
            return (1 + r * r) ** -2

        res = radial_integral(RadialProfile(f, DecayClass.algebraic()), ("power", 2))
        assert res.nodes_used == len(calls) > 0
        assert res.nodes_used % 15 == 0

    def test_rule_exact_on_polynomials(self):
        # K15 is exact to degree 22 and G7 to degree 13 on each of the two
        # first halves, which pins every entry of the scalar G7/K15 table;
        # at 1e-6 no degree needs a bisection
        for j in range(23):
            value, error, evals = _adaptive_gk15(lambda x: x**j, [0.0, 1.0], False, 1e-6)
            assert value == pytest.approx(1 / (j + 1), rel=1e-14)
            assert error <= 1e-15 or j > 13
            assert evals == 30


class TestRadialIntegralFailures:
    """Each way the adaptive rule can give up names its cause and the panel."""

    def test_panel_cap(self):
        # a fast oscillation needs more than _MAX_SUBINTERVALS panels at 1e-12
        prof = RadialProfile(lambda r: math.cos(2e4 * r) if r <= 1 else 0.0, DecayClass.compact(1.0))
        with pytest.raises(QuadratureError) as exc:
            radial_integral(prof, ("power", 0), QuadratureSpec(relative_tolerance=1e-12))
        assert re.fullmatch(
            rf"requested tolerance 1e-12 not met with {_MAX_SUBINTERVALS} panels, the worst at "
            r"rho in \[\S+, \S+\]: value=\S+, error=\S+",
            str(exc.value),
        )

    def test_panel_too_narrow_to_bisect(self):
        # |r - 1/2|^-0.9 is integrable, but the estimate of the panels next
        # to 1/2 falls only like their width^0.1: bisection runs out of floats
        prof = RadialProfile(
            lambda r: abs(r - 0.5) ** -0.9 if r != 0.5 and r <= 1 else 0.0,
            DecayClass.compact(1.0),
            breakpoints=(0.5,),
        )
        with pytest.raises(QuadratureError) as exc:
            radial_integral(prof, ("power", 0))
        assert re.fullmatch(
            r"requested tolerance 1e-09 not met at rho in \[0\.5, 0\.5000000000000001\]: "
            r"the panel cannot be bisected in floating point: value=\S+, error=\S+",
            str(exc.value),
        )

    def test_tail_node_at_one(self):
        # P of (3, 3, 1.49975) decays like rho^(-1.0005) times a constant:
        # bisection toward t = 1 must stop before a node rounds to 1.0, where
        # the tail map would divide by zero
        from sharpineq.flat import ExponentTriple, pqr

        t = ExponentTriple(3, 3.0, 1.49975)
        for tol in (1e-9, 1e-12):
            with pytest.raises(QuadratureError) as exc:
                pqr(t, 1.0, "P", QuadratureSpec(relative_tolerance=tol))
            assert re.fullmatch(
                rf"requested tolerance {tol!r} not met at rho in \[\S+, inf\]: "
                r"a node of its right half rounds to t = 1\.0: value=\S+, error=\S+",
                str(exc.value),
            )

    def test_non_finite_piece(self):
        # every value is finite, but a Kronrod sum of 1e308 overflows; the
        # message names the piece [0, 1], not the panel
        prof = RadialProfile(lambda r: 1e308 if r < 8 else 0.0, DecayClass.compact(8.0))
        with pytest.raises(QuadratureError) as exc:
            radial_integral(prof, ("power", 0))
        assert str(exc.value) == "integral over rho in [0.0, 1.0] is inf: outside the float range"


class TestVolumeIntegrals:
    def test_flat_gaussian(self):
        # int_{R^2} e^{-|x|^2} dx = pi
        prof = RadialProfile(lambda r: math.exp(-r * r), DecayClass.gaussian(1.0))
        res = flat_radial_volume_integral(prof, 2)
        assert res.value == pytest.approx(math.pi, rel=1e-10)

    def test_flat_ball_indicator(self):
        prof = RadialProfile(lambda r: 1.0 if r < 1.0 else 0.0, DecayClass.compact(1.0))
        res = flat_radial_volume_integral(prof, 3)
        assert res.value == pytest.approx(4 * math.pi / 3, rel=1e-10)

    def test_hyperbolic_ball_indicator(self):
        for R in (1.0, 2.0):
            prof = RadialProfile(lambda r, R=R: 1.0 if r < R else 0.0, DecayClass.compact(R))
            res = hyperbolic_radial_volume_integral(prof, 2)
            assert res.value == pytest.approx(2 * math.pi * (math.cosh(R) - 1), rel=1e-10)

    def test_zero_function(self):
        prof = RadialProfile(lambda r: 0.0, DecayClass.compact(1.0))
        assert hyperbolic_radial_volume_integral(prof, 3).value == 0.0

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_scaling_law(self, s):
        prof = gauss_profile()
        scaled = RadialProfile(lambda r: math.exp(-((s * r) ** 2)), DecayClass.gaussian(s * s))
        base = flat_radial_volume_integral(prof, 3).value
        assert flat_radial_volume_integral(scaled, 3).value == pytest.approx(
            s ** -3 * base, rel=1e-8
        )


def gaussian_mass_closed_form(k, alpha):
    """k omega_k int e^(-alpha rho^2) sinh^(k-1) rho d rho via the binomial expansion.

    sinh^m = 2^-m sum_j C(m, j) (-1)^j e^((m - 2j) rho), and
    int_0^oo e^(-alpha rho^2 + c rho) = sqrt(pi/alpha)/2 e^(c^2/4alpha) erfc(-c/(2 sqrt alpha)).
    The alternating sum cancels; for alpha <= 20 and k <= 6 it loses under
    four digits.
    """
    m = k - 1
    total = sum(
        math.comb(m, j) * (-1) ** j * math.exp((m - 2 * j) ** 2 / (4 * alpha))
        * math.erfc(-(m - 2 * j) / (2 * math.sqrt(alpha)))
        for j in range(m + 1)
    )
    return k * ball_volume_constant(k) * math.sqrt(math.pi / alpha) / 2 ** (m + 1) * total


class TestGaussKronrodBatch:
    def test_rule_exact_on_polynomials(self):
        # K21 is exact to degree 31 and G10 to degree 19 on every panel, which
        # pins every entry of the hard-coded node and weight table
        degrees = np.arange(32)
        values, errors, evals = gauss_kronrod_batch(lambda x, j: x ** j, degrees)
        assert values == pytest.approx(1 / (degrees + 1), rel=1e-14)
        assert np.all(errors[:20] <= 1e-15)
        assert evals == degrees.size * 4 * 21

    def test_blocks_bound_memory(self):
        from sharpineq.quadrature import _BLOCK_VALUES

        sizes = []

        def integrand(x, p):
            sizes.append(p.size * x.size)
            return np.exp(-p * x)

        params = np.linspace(0.1, 5.0, 2000)
        values, _, _ = gauss_kronrod_batch(integrand, params)
        assert max(sizes) <= _BLOCK_VALUES and len(sizes) > 1
        assert values == pytest.approx(-np.expm1(-params) / params, rel=1e-12)

    def test_non_finite_raises(self):
        with pytest.raises(QuadratureError, match="non-finite"), np.errstate(all="ignore"):
            gauss_kronrod_batch(lambda x, p: np.exp(p * 1e3 * x), [1.0])

    def test_mass_beyond_float_range_named_without_warning(self):
        # at n = 4, alpha = 0.001 the mass is about e^2250
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError) as exc:
                hyperbolic_gaussian_masses(4, [0.5, 0.001])
        assert str(exc.value) == (
            "non-finite integral at 1 of 2 parameters, first at 0.001: outside the float range"
        )

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_masses_match_quad_oracle(self, n, tol):
        # every 64th node of a 4096-node scan grid spanning all scan bands
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.linspace(0.5, 400.0, 4096)
        for k in (n - 2, n):
            masses, errors, _ = hyperbolic_gaussian_masses(k, alphas, spec)
            assert np.all(errors <= tol * masses)
            for a, got in zip(alphas[::64], masses[::64]):
                oracle = hyperbolic_radial_volume_integral(gauss_profile(a), k, spec).value
                assert got == pytest.approx(oracle, rel=10 * tol)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_masses_closed_form(self, k, tol):
        # below alpha ~ 0.035 sinh^5 alone overflows on the truncated range
        # while the k = 6 mass is still a finite double
        alphas = np.concatenate([[0.02, 0.05, 0.1, 0.25], np.linspace(0.5, 20.0, 64)])
        masses, _, _ = hyperbolic_gaussian_masses(k, alphas, QuadratureSpec(relative_tolerance=tol))
        for a, got in zip(alphas, masses):
            assert got == pytest.approx(gaussian_mass_closed_form(k, a), rel=10 * tol)

    def test_unattainable_tolerance_raises(self):
        spec = QuadratureSpec(relative_tolerance=1e-20)
        with pytest.raises(QuadratureError, match=r"not met .* worst at (3\.0|50\.0)"):
            hyperbolic_gaussian_masses(4, [3.0, 50.0], spec)

    def test_masses_need_positive_dimension(self):
        with pytest.raises(ValueError):
            hyperbolic_gaussian_masses(0, [1.0])

    def test_several_integrals_per_parameter_row(self):
        # (N, 2) parameters, three integrals each; a parameter is refined
        # until all three meet the tolerance
        grid = np.array([[1.0, 0.0], [2.0, 1.0], [40.0, 3.0]])

        def integrand(x, p):
            a, b = p[..., 0], p[..., 1]
            return np.stack([np.exp(-a * x), x**b, np.cos(a * x)])

        values, errors, _ = gauss_kronrod_batch(integrand, grid)
        a, b = grid[:, 0], grid[:, 1]
        assert values.shape == errors.shape == (3, 3)
        assert values[0] == pytest.approx(-np.expm1(-a) / a, rel=1e-12)
        assert values[1] == pytest.approx(1 / (b + 1), rel=1e-12)
        assert values[2] == pytest.approx(np.sin(a) / a, rel=1e-9)
        assert np.all(errors <= 1e-9 * np.abs(values))


def gauss_kronrod_batch_summed(integrand, params, spec=QuadratureSpec()):
    """gauss_kronrod_batch with its sums as elementwise products and .sum reductions."""
    params = np.asarray(params, dtype=float)
    count = len(params)
    values = errors = None
    tol = spec.relative_tolerance
    todo = np.arange(count)
    panels, evals = _FIRST_PANELS, 0
    while True:
        half = 0.5 / panels
        x = ((np.arange(panels)[:, None] + 0.5) / panels + half * _GK21_NODES).ravel()
        wk = half * _GK21_KRONROD
        wd = half * (_GK21_KRONROD - _GK21_GAUSS)
        rows = max(1, _BLOCK_VALUES // x.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, todo.size, rows):
                idx = todo[start:start + rows]
                f = integrand(x, params[idx, None])
                if values is None:
                    values = np.empty(f.shape[:-2] + (count,))
                    errors = np.empty(values.shape)
                f = f.reshape(f.shape[:-2] + (idx.size, panels, _GK21_NODES.size))
                values[..., idx] = (f * wk).sum(axis=-1).sum(axis=-1)
                errors[..., idx] = np.abs((f * wd).sum(axis=-1)).sum(axis=-1)
        evals += todo.size * x.size
        val = values[..., todo].reshape(-1, todo.size)
        err = errors[..., todo].reshape(-1, todo.size)
        assert np.isfinite(val).all()
        missed = (err > tol * np.abs(val)).any(axis=0)
        if not missed.any():
            return values, errors, evals
        assert 2 * panels <= _MAX_SUBINTERVALS
        todo = todo[missed]
        panels *= 2


def batch_outputs(batch, compute):
    """compute() with quadrature.gauss_kronrod_batch replaced by batch; its (values, evals) per call."""
    seen = []

    def recording(integrand, params, spec=QuadratureSpec(), describe=repr):
        values, errors, evals = batch(integrand, params, spec)
        seen.append((values, evals))
        return values, errors, evals

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "gauss_kronrod_batch", recording)
        compute()
    return seen


# the alpha range of each suite-all band in perfbench/workloads.py
SCAN_RANGES = [(0.5, 20.0), (3.0, 100.0), (50.0, 400.0), (2.0, 80.0)]
# a dimension to integrate in over each range
SCAN_BANDS = list(zip((1, 2, 4, 6), SCAN_RANGES))


class TestBatchSums:
    """The (21, 2) weight product against the summed oracle, and its row independence."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("band", SCAN_RANGES)
    def test_masses_within_4_ulp_of_summed_oracle(self, band, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.linspace(*band, 4096)
        for dim in range(1, 7):
            runs = [batch_outputs(b, lambda: hyperbolic_gaussian_masses(dim, alphas, spec))
                    for b in (gauss_kronrod_batch, gauss_kronrod_batch_summed)]
            (got, got_evals), (want, want_evals) = runs[0][0], runs[1][0]
            assert got_evals == want_evals
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("band", SCAN_RANGES)
    def test_moments_within_4_ulp_of_summed_oracle(self, band, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.linspace(*band, 512)[:, None]
        betas = np.array([0.0, 0.5, 2.0])
        for n in range(3, 9):
            runs = [batch_outputs(b, lambda: hyperbolic_gaussian_moments(n, alphas, betas, spec))
                    for b in (gauss_kronrod_batch, gauss_kronrod_batch_summed)]
            (got, got_evals), (want, want_evals) = runs[0][0], runs[1][0]
            assert got_evals == want_evals
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("k, band", SCAN_BANDS)
    def test_mass_alone_equals_grid_value(self, k, band, tol):
        # a shift by one grid point moves every alpha across its block's
        # boundary, to the last row of one block or the first of the next
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.linspace(*band, 4096)
        grid = np.stack(hyperbolic_gaussian_masses(k, alphas, spec)[:2])
        alone = np.array([hyperbolic_gaussian_masses(k, [a], spec)[:2] for a in alphas])
        assert np.array_equal(alone[..., 0].T, grid)
        shifted = np.stack(hyperbolic_gaussian_masses(k, alphas[1:], spec)[:2])
        assert np.array_equal(shifted, grid[:, 1:])

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("k, band", SCAN_BANDS)
    def test_moments_alone_equal_grid_value(self, k, band, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas, beta, n = np.linspace(*band, 4096), 0.5, k + 2
        grid = np.stack(hyperbolic_gaussian_moments(n, alphas, beta, spec)[:2])
        alone = np.array([hyperbolic_gaussian_moments(n, a, beta, spec)[:2] for a in alphas])
        assert np.array_equal(np.moveaxis(alone, 0, -1), grid)
        shifted = np.stack(hyperbolic_gaussian_moments(n, alphas[1:], beta, spec)[:2])
        assert np.array_equal(shifted, grid[..., 1:])

    def test_block_boundary_falls_inside_the_grid(self):
        # the first pass of a 4096-alpha grid spans several blocks
        assert 1 < _BLOCK_VALUES // (_FIRST_PANELS * _GK21_NODES.size) < 4096


class TestGaussianMoments:
    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_mass_at_beta_zero_is_gaussian_mass_of_twice_the_rate(self, n, tol):
        # u^2 = e^(-2 alpha rho^2) when beta = 0
        spec = QuadratureSpec(relative_tolerance=tol)
        alphas = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 64.0, 512.0, 2048.0])
        (_, _, L), errors, _ = hyperbolic_gaussian_moments(n, alphas, 0.0, spec)
        masses, _, _ = hyperbolic_gaussian_masses(n, 2 * alphas, spec)
        assert L == pytest.approx(masses, rel=10 * tol)
        assert np.all(errors[2] <= tol * L)

    def test_moments_against_per_point_integrals(self):
        # A = int (2 alpha rho + beta)^2 u^2, M = int rho^2 u^2, L = int u^2
        spec = QuadratureSpec(relative_tolerance=1e-11)
        n, a, b = 5, 0.7, 1.5
        (A, M, L), _, _ = hyperbolic_gaussian_moments(n, a, b, spec)
        rate = DecayClass.gaussian(2 * a)

        def moment(weight):
            prof = RadialProfile(lambda r: weight(r) * math.exp(-2 * a * r * r - 2 * b * r), rate)
            return hyperbolic_radial_volume_integral(prof, n, spec).value

        assert A == pytest.approx(moment(lambda r: (2 * a * r + b) ** 2), rel=1e-10)
        assert M == pytest.approx(moment(lambda r: r * r), rel=1e-10)
        assert L == pytest.approx(moment(lambda r: 1.0), rel=1e-10)

    def test_broadcast_shape(self):
        moments, errors, evals = hyperbolic_gaussian_moments(
            4, np.array([1.0, 2.0, 4.0])[:, None], np.array([0.0, 1.0]))
        assert moments.shape == errors.shape == (3, 3, 2)
        assert evals >= 6 * _FIRST_PANELS * _GK21_NODES.size

    def test_unattainable_tolerance_names_the_cell(self):
        spec = QuadratureSpec(relative_tolerance=1e-20)
        with pytest.raises(QuadratureError) as exc:
            hyperbolic_gaussian_moments(4, [3.0, 50.0], [0.0, 2.0], spec)
        assert re.search(
            r"not met with 512 panels at 2 parameters; worst at "
            r"\(alpha, beta\) = \((3\.0, 0\.0|50\.0, 2\.0)\) for n = 4: relative error",
            str(exc.value),
        )

    def test_moments_beyond_float_range_name_the_cell(self):
        # at n = 4 and alpha = 0.0005, L is the alpha = 0.001 mass, about e^2250
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError) as exc:
                hyperbolic_gaussian_moments(4, [0.5, 0.0005], [1.0, 0.5])
        assert str(exc.value) == (
            "non-finite integral at 1 of 2 parameters, first at "
            "(alpha, beta) = (0.0005, 0.5) for n = 4: outside the float range"
        )

    @pytest.mark.parametrize("n, alpha, beta", [(0, 1.0, 0.0), (3, 0.0, 0.0), (3, 1.0, -0.5)])
    def test_rejects_invalid_family(self, n, alpha, beta):
        with pytest.raises(ValueError):
            hyperbolic_gaussian_moments(n, alpha, beta)


class TestMonteCarlo:
    def test_constant_exact(self):
        res = monte_carlo_integral(lambda pts: np.ones(len(pts)), [(0, 1), (0, 1)])
        assert res.value == 1.0
        assert res.error_estimate == 0.0

    def test_gaussian_closed_form(self):
        res = monte_carlo_integral(
            lambda pts: np.exp(-2 * (pts ** 2).sum(axis=1)),
            [(-6, 6), (-6, 6)],
        )
        assert abs(res.value - math.pi / 2) <= 3 * res.error_estimate

    def test_quartic_ball_area(self):
        res = monte_carlo_integral(
            lambda pts: ((np.abs(pts) ** 4).sum(axis=1) < 1.0).astype(float),
            [(-1, 1), (-1, 1)],
        )
        closed = (2 * math.gamma(1.25)) ** 2 / math.gamma(1.5)
        assert abs(res.value - closed) <= 3 * res.error_estimate

    def test_determinism(self):
        spec = QuadratureSpec(mc_samples=1 << 16, mc_seed=42)
        f = lambda pts: np.exp(-(pts ** 2).sum(axis=1))
        a = monte_carlo_integral(f, [(-3, 3), (-3, 3)], spec)
        b = monte_carlo_integral(f, [(-3, 3), (-3, 3)], spec)
        assert a.value == b.value and a.error_estimate == b.error_estimate

    def test_seed_changes_stream(self):
        f = lambda pts: np.exp(-(pts ** 2).sum(axis=1))
        a = monte_carlo_integral(f, [(-3, 3), (-3, 3)], QuadratureSpec(mc_samples=1 << 14, mc_seed=1))
        b = monte_carlo_integral(f, [(-3, 3), (-3, 3)], QuadratureSpec(mc_samples=1 << 14, mc_seed=2))
        assert a.value != b.value

    def test_non_finite_sample_rejected(self):
        with pytest.raises(QuadratureError):
            monte_carlo_integral(
                lambda pts: np.full(len(pts), np.nan),
                [(0, 1), (0, 1)],
                QuadratureSpec(mc_samples=1 << 10),
            )

    # three batches, the last one partial; and seed 200, whose third mean has
    # a libm square (a float's mean**2) one ulp away from mean * mean
    @pytest.mark.parametrize("samples, seed", [((1 << 17) + 4099, 7), (1 << 10, 200)])
    def test_rows_equal_one_integral_calls_bit_for_bit(self, samples, seed):
        spec = QuadratureSpec(mc_samples=samples, mc_seed=seed)
        box = [(-2, 3), (-1, 1), (0, 4)]
        fns = (
            lambda pts: np.exp(-(pts ** 2).sum(axis=1)),
            lambda pts: np.sin(3 * pts[:, 0]) * pts[:, 2],
            lambda pts: 1e6 * np.abs(pts[:, 1]) ** 1.5 + 2.0,
        )
        rows = monte_carlo_integral(lambda pts: np.stack([f(pts) for f in fns]), box, spec)
        assert rows.value.shape == rows.error_estimate.shape == (3,)
        for i, f in enumerate(fns):
            one = monte_carlo_integral(f, box, spec)
            assert type(one.value) is float and type(one.error_estimate) is float
            assert (rows.value[i], rows.error_estimate[i]) == (one.value, one.error_estimate)
            assert rows.nodes_used == one.nodes_used

    def test_non_finite_row_rejected(self):
        with pytest.raises(QuadratureError, match="non-finite integrand sample"):
            monte_carlo_integral(
                lambda pts: np.stack([np.ones(len(pts)), np.full(len(pts), np.inf)]),
                [(0, 1), (0, 1)],
                QuadratureSpec(mc_samples=1 << 10),
            )


class TestNormIndependence:
    def test_five_norms_match_radial(self):
        # computational content of the layer-cake reduction: the BH-weighted
        # integral of f(F(x)) is the same radial integral for every norm
        norms = [
            MinkowskiNorm(2, "weighted-euclidean", matrix=np.eye(2)),
            MinkowskiNorm(2, "weighted-euclidean", matrix=np.diag([4.0, 1.0])),
            MinkowskiNorm(2, "lp", exponent=1.5),
            MinkowskiNorm(2, "lp", exponent=3.0),
            MinkowskiNorm(2, "lp", exponent=4.0),
        ]
        target = flat_radial_volume_integral(gauss_profile(), 2).value

        def values(norm):
            if norm.family == "weighted-euclidean":
                A = norm.matrix
                return lambda pts: np.sqrt(np.einsum("ij,jk,ik->i", pts, A, pts))
            p = norm.exponent
            return lambda pts: (np.abs(pts) ** p).sum(axis=1) ** (1.0 / p)

        for norm in norms:
            c = bh_density(norm)
            F = values(norm)
            res = monte_carlo_integral(
                lambda pts, F=F, c=c: c * np.exp(-F(pts) ** 2),
                [(-8, 8), (-8, 8)],
            )
            assert abs(res.value - target) <= 3 * res.error_estimate


class TestSpecAndProfiles:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(mc_samples=100)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            QuadratureSpec(relative_tolerance=tol)

    def test_scaled_decay(self):
        # decay of |f|^power times a power of rho
        assert DecayClass.gaussian(1.5).scaled(2) == DecayClass.gaussian(3.0)
        assert DecayClass.algebraic().scaled(2) == DecayClass.algebraic()
        assert DecayClass.compact(2.0).scaled(3) == DecayClass.compact(2.0)


class TestFiniteDifference:
    def test_square(self):
        assert fd_derivative(lambda x: x * x, 3.0) == pytest.approx(6.0, rel=1e-9)

    def test_reciprocal(self):
        assert fd_derivative(lambda x: 1.0 / x, 2.0) == pytest.approx(-0.25, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_power_rule_at_one(self, n):
        assert fd_derivative(lambda x, n=n: x ** (n / 2), 1.0) == pytest.approx(n / 2, rel=1e-9)
