"""Sharp-constant verification on Minkowski-normed flat space.

Interpolation kernels and the P/Q/R identity, the Heisenberg-Pauli-Weyl
equality family, and Hardy inequalities with the curvature-flat remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .norms import MinkowskiNorm, ball_volume_constant, bh_density, dual_norm_value, norm_value
from .quadrature import (
    DecayClass,
    IntegralResult,
    QuadratureSpec,
    RadialProfile,
    _TINY,
    _UNIT,
    _checked_parameters,
    _name_failures,
    _normal_floats,
    _ratio_terms,
    fd_derivative,
    flat_radial_volume_integral,  # unused here; perfbench/tracer.py wraps it at this import site
    gauss_kronrod_batch,
    monte_carlo_integral,
    radial_integral,
    radial_integrals,
)

__all__ = [
    "ExponentTriple",
    "RadialFunction",
    "TestFunction",
    "InequalityReport",
    "AdmissibilityError",
    "kernel_h",
    "kernel_g",
    "pqr",
    "check_pqr_identity",
    "check_p_ode",
    "pqr_reports",
    "interpolation_report",
    "extremal_profile",
    "gaussian_T",
    "gaussian_T_grid",
    "hpw_report",
    "gaussian_hpw_reports",
    "gaussian_moment_identity",
    "hardy_report",
    "gaussian_hardy_reports",
    "hardy_sharpness_sweep",
    "double_hardy_report",
    "smoothstep_cutoff",
]


class AdmissibilityError(ValueError):
    """Exponent triple outside 0 < q < 2 < p, 2 < n < 2(p-q)/(p-2)."""


@dataclass(frozen=True)
class ExponentTriple:
    """Admissible (n, p, q) for the interpolation inequality."""

    n: int
    p: float
    q: float

    def __post_init__(self):
        if not (0 < self.q < 2 < self.p):
            raise AdmissibilityError(
                f"need 0 < q < 2 < p, got q={self.q}, p={self.p}"
            )
        bound = 2 * (self.p - self.q) / (self.p - 2)
        if not (2 < self.n < bound):
            raise AdmissibilityError(
                f"need 2 < n < 2(p-q)/(p-2) = {bound}, got n={self.n}"
            )

    @property
    def target(self) -> float:
        """(n - q)^2 / p^2, the sharp interpolation constant."""
        return (self.n - self.q) ** 2 / self.p**2

    @property
    def p_power(self) -> float:
        """Exponent of the lambda power law for P."""
        return (self.n - self.q) / (2 - self.q) - self.p / (self.p - 2)


@dataclass(frozen=True)
class RadialFunction:
    """Radial function of the distance, F or hyperbolic, with derivative handle.

    On the ball the decay class must dominate the e^((n-1) rho) growth of the
    volume element; gaussian decay always does.
    """

    profile: RadialProfile
    derivative: Callable[[float], float]

    @staticmethod
    def gaussian(alpha: float, beta: float = 0.0) -> "RadialFunction":
        """e^(-alpha d^2 - beta d) with alpha > 0 and beta >= 0, both finite."""
        _checked_parameters("alpha", alpha)
        _checked_parameters("beta", beta, zero=True)

        def u(r):
            return math.exp(-alpha * r * r - beta * r)

        def du(r):
            return -(2 * alpha * r + beta) * u(r)

        return RadialFunction(
            RadialProfile(u, DecayClass.gaussian(alpha)), du
        )


@dataclass(frozen=True)
class TestFunction:
    """A compactly supported function on flat space, integrated by Monte Carlo.

    evaluator and a gradient-covector evaluator on a support box (gradient by
    central differences when omitted); distances are taken from basepoint,
    the origin when omitted.  TestFunction.radial builds a RadialFunction.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    support_box: tuple
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    basepoint: Optional[np.ndarray] = None

    @staticmethod
    def radial(profile: RadialProfile, derivative) -> RadialFunction:
        return RadialFunction(profile, derivative)

    @staticmethod
    def general(evaluator, support_box, gradient=None, basepoint=None) -> "TestFunction":
        return TestFunction(evaluator, tuple(tuple(b) for b in support_box), gradient, basepoint)


@dataclass(frozen=True)
class InequalityReport:
    """One inequality evaluation, arranged so ratio >= target is the claim.

    Every inequality checked here has one of three shapes, one constructor
    each: a product a b / c^2, a quotient a / h, or a normalised a against a
    sum of weighted integrals.  integral_errors holds the relative error
    estimate of each integral, in argument order.
    """

    lhs: float
    rhs: float
    ratio: float
    target: float
    integral_errors: tuple

    @property
    def slack(self) -> float:
        return self.ratio - self.target

    @property
    def combined_error(self) -> float:
        return float(sum(self.integral_errors))

    @staticmethod
    def product(a: IntegralResult, b: IntegralResult, c: IntegralResult, target: float) -> "InequalityReport":
        """a b against target c^2: the uncertainty and interpolation products."""
        return InequalityReport(
            lhs=a.value * b.value,
            rhs=target * c.value**2,
            ratio=a.value * b.value / c.value**2,
            target=target,
            integral_errors=_relative_errors(a, b, c),
        )

    @staticmethod
    def quotient(a: IntegralResult, h: IntegralResult, target: float) -> "InequalityReport":
        """a against target h: the Hardy quotient."""
        return InequalityReport(
            lhs=a.value,
            rhs=target * h.value,
            ratio=a.value / h.value,
            target=target,
            integral_errors=_relative_errors(a, h),
        )

    @staticmethod
    def normalised(a: IntegralResult, *terms: tuple) -> "InequalityReport":
        """a against the sum of coeff h over the (coeff, h) terms, target 1:
        Hardy inequalities with a remainder."""
        rhs = sum(coeff * h.value for coeff, h in terms)
        return InequalityReport(
            lhs=a.value,
            rhs=rhs,
            ratio=a.value / rhs,
            target=1.0,
            integral_errors=_relative_errors(a, *(h for _, h in terms)),
        )


def _relative_errors(*results: IntegralResult) -> tuple:
    return tuple(r.error_estimate / max(abs(r.value), 1e-300) for r in results)


def _integrals(u: RadialFunction, weight: str, n: int, spec: QuadratureSpec, *terms, cuts: tuple = ()) -> list:
    """n omega_n int row(rho) w(rho)^(n-1) d rho for every (row, power) term, on one adaptive mesh.

    weight is 'power' (w = rho, flat space) or 'sinh-power' (w = sinh, the
    curvature -1 model).  A row maps the columns of one bisection's radii
    rs, u and u' there (us, ds) and the weights ws to its values times ws;
    it decays like |u|^power times a power of rho, so it gets that decay
    class.  All rows share one radial_integrals pass over u's breakpoints
    and the extra cuts, cut at the largest truncation radius of their decay
    classes; u and u' are evaluated once per radius for every row.
    """
    prof, du = u.profile, u.derivative
    f = prof.evaluator
    rows = [row for row, _ in terms]

    def columns(rs, ws):
        us, ds = list(map(f, rs)), list(map(du, rs))
        return [row(rs, us, ds, ws) for row in rows]

    decays = [prof.decay.scaled(power) for _, power in terms]
    c = n * ball_volume_constant(n)
    return [_scaled(r, c) for r in radial_integrals(columns, decays, (weight, n - 1), spec, (*prof.breakpoints, *cuts))]


# rows of _integrals shared by several reports
def _energy_col(rs, us, ds, ws):
    """(u')^2 w."""
    return [d * d * w for d, w in zip(ds, ws)]


def _mass_col(rs, us, ds, ws):
    """u^2 w."""
    return [v * v * w for v, w in zip(us, ws)]


def _moment_col(rs, us, ds, ws):
    """rho^2 u^2 w."""
    return [r * r * v * v * w for r, v, w in zip(rs, us, ws)]


def _hardy_col(rs, us, ds, ws):
    """u^2 / rho^2 w."""
    return [v * v / (r * r) * w for r, v, w in zip(rs, us, ws)]


def _kernel_h(t: ExponentTriple) -> Callable:
    """(rho, lam) -> h(lam, rho), with every power of p and q taken once.

    rho and lam are floats, or arrays that broadcast together, for rows of
    values: q lam is formed at every call.
    """
    p, q = t.p, t.q
    a, e, b, pq, p2 = 2 - q, (2 * p - 2) / (2 - p), -(q + 1), p - q, p - 2

    def h(rho, lam):
        s = rho**a
        return (lam + s) ** e * rho**b * (2 * s * pq / p2 + q * lam)

    return h


def _kernel_g(t: ExponentTriple) -> Callable:
    """(rho, lam) -> g(lam, rho), rho and lam as in _kernel_h: 2 (q - 1) lam is formed at every call."""
    p, q = t.p, t.q
    coeff = (2 * p - 2) / (p - 2) * (2 - q) + 2 * (q - 1)
    a, e, b = 2 - q, (3 * p - 4) / (2 - p), -(2 * q - 1)

    def g(rho, lam):
        s = rho**a
        return (lam + s) ** e * rho**b * (s * coeff + 2 * (q - 1) * lam)

    return g


def kernel_h(t: ExponentTriple, lam: float, rho: float) -> float:
    """Layer-cake kernel of the extremal-family integral P."""
    return _kernel_h(t)(rho, lam)


def kernel_g(t: ExponentTriple, lam: float, rho: float) -> float:
    """Layer-cake kernel of the extremal-family integral R."""
    return _kernel_g(t)(rho, lam)


def pqr(t: ExponentTriple, lam: float, which: str, spec: QuadratureSpec = QuadratureSpec()) -> IntegralResult:
    """The integrals P, Q, R of the extremal family at parameter lam.

    P = omega_n int rho^n h, R = omega_n int rho^n g and
    Q = ((2-q)/(p-2))^2 * R.  P and R are the two integrals
    check_pqr_identity reads at lam (_extremal_passes without the
    finite-difference points), so Q R / P^2 from these is its ratio, bit
    for bit; nodes_used counts the kernel values of both rows.  An integral
    that leaves the float range, or is 0 or subnormal, is a QuadratureError
    that names lam.
    """
    if which not in ("P", "Q", "R"):
        raise ValueError("selector must be one of P, Q, R")
    ((_, (P,), R),) = _extremal_passes(t, [lam], spec, fd=False)
    return P if which == "P" else R if which == "R" else _q_from_r(t, R)


def _q_from_r(t: ExponentTriple, r: IntegralResult) -> IntegralResult:
    return _scaled(r, (2 - t.q) ** 2 / (t.p - 2) ** 2)


def _scaled(r: IntegralResult, c: float) -> IntegralResult:
    """c times the integral r, with its error estimate."""
    return IntegralResult(c * r.value, c * r.error_estimate, r.nodes_used)


def _extremal_passes(t: ExponentTriple, lam_grid: Sequence[float], spec: QuadratureSpec, fd: bool = True) -> list:
    """P at lam and, if fd, at fd_derivative's four points around it, and R at lam, for every lam of lam_grid.

    The points are lam + h, lam - h, lam + h/2 and lam - h/2 with
    h = 1e-5 lam, as fd_derivative forms them.  The integrals of a lam (six,
    or P and R without fd) are the integrals of its parameter row in one
    gauss_kronrod_batch call over the grid, so a value depends only on its
    lam: P and R of pqr and check_pqr_identity are the same floats, and
    pqr_reports' P and R are the same integrals on panels that also refine
    the finite-difference rows.  Each row is one integral over [0, oo) in
    x in [0, 1], the head rho = c x^2 and the tail rho = c (1 - x)^-2 added
    at every node, split at c = (lam y*)^(1/(2-q)): the peak of P's
    integrand y^(m-1) (1 + y)^e in y = rho^(2-q) / lam, where
    y* = (m - 1) / (-e - m + 1) with m = (n - q)/(2 - q) and
    e = (2p - 2)/(2 - p), positive on every admissible triple.  A lam whose
    integrals leave the float range or miss the tolerance fails the grid
    with gauss_kronrod_batch's QuadratureError, and one whose integral is 0
    or subnormal with _normal_floats': the error counts the failing lams
    and names the first.  nodes_used counts the kernel values of the whole
    call, every row at both radii of every node.  Returns one (the points,
    lam first; P at each; R) per lam, in grid order.
    """
    lam = _checked_parameters("lam", lam_grid)[:, None]
    h = 1e-5 * lam
    n, p, q = t.n, t.p, t.q
    m, e = (n - q) / (2 - q), (2 * p - 2) / (2 - p)
    # a parameter row per lam: the points, lam first, then the split c
    points = np.concatenate([lam, lam + h, lam - h, lam + h / 2, lam - h / 2], axis=1) if fd else lam
    grid = np.concatenate([points, (lam * ((m - 1) / (-e - m + 1))) ** (1 / (2 - q))], axis=1)
    kh, kg, describe = _kernel_h(t), _kernel_g(t), _lam_text(t)

    def integrand(x, row):
        # the head rho = c x^2 and the tail rho = c (1 - x)^-2 side by side
        # for the splits c of the (r, 1) column, and d rho / dx there
        w = 1 / (1 - x)
        rho = row[..., -1] * np.concatenate([x * x, w * w])
        jac = rho * np.concatenate([2 / x, 2 * w])
        # P at every point, a (points, r, 1) column against rho, and R at lam
        f = np.concatenate([kh(rho, row[:, 0, :-1].T[:, :, None]), kg(rho, row[..., 0])[None]])
        f *= rho**n * jac
        return f[..., : x.size] + f[..., x.size :]

    values, errors, evals = gauss_kronrod_batch(integrand, grid, spec, describe)
    omega = ball_volume_constant(n)
    values, errors = omega * values, omega * errors
    _normal_floats(values.T, grid, describe)
    used = 2 * len(values) * evals
    out = []
    for row, vs, es in zip(points.tolist(), values.T.tolist(), errors.T.tolist()):
        results = [IntegralResult(v, e, used) for v, e in zip(vs, es)]
        out.append((row, results[:-1], results[-1]))
    return out


def _lam_text(t: ExponentTriple) -> Callable:
    """The describe of the extremal family's errors: a parameter row, lam first, as text."""
    return lambda row: f"lam = {row[0]!r} for (n, p, q) = ({t.n}, {t.p!r}, {t.q!r})"


def _identity_report(t: ExponentTriple, P: IntegralResult, R: IntegralResult) -> InequalityReport:
    """Q R / P^2 against (n-q)^2 / p^2, its errors in (P, Q, R) order: the err column is their float sum."""
    Q = _q_from_r(t, R)
    return replace(InequalityReport.product(Q, R, P, t.target), integral_errors=_relative_errors(P, Q, R))


def _identity_reports(t: ExponentTriple, passes: list) -> list[InequalityReport]:
    """_identity_report of every pass of _extremal_passes, or a QuadratureError
    naming the first lam whose Q R or P^2 leaves the normal floats (_ratio_terms)."""
    P = [Ps[0].value for _, Ps, _ in passes]
    Q, R = [_q_from_r(t, r).value for *_, r in passes], [r.value for *_, r in passes]
    _ratio_terms(Q, R, [P], [points for points, _, _ in passes], _lam_text(t))
    return [_identity_report(t, Ps[0], R) for _, Ps, R in passes]


def pqr_reports(
    t: ExponentTriple, lam_grid: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> list[tuple[InequalityReport, float]]:
    """check_pqr_identity and check_p_ode, from one batch over the grid.

    Q R / P^2 against (n-q)^2 / p^2 (an equality), and the relative residual
    of the first-order ODE of P, coeff P + lam P' = 0, with P' from
    fd_derivative.  P, R and the four finite-difference points of P of
    every lam are the integrals of its row in one gauss_kronrod_batch call
    over the grid (_extremal_passes), so a value depends only on its lam.
    A lam whose integrals fail, or whose Q R or P^2 leaves the normal
    floats, is a QuadratureError for the grid that counts the failing lams
    and names the first.  Returns one (report, residual) pair per lam.
    """
    coeff = (1 / (2 - t.q)) * (-t.n + 2 * (t.p - t.q) / (t.p - 2))
    passes = _extremal_passes(t, lam_grid, spec)
    out = []
    for lam, report, (lams, Ps, _) in zip(lam_grid, _identity_reports(t, passes), passes):
        P = Ps[0].value
        derivative = fd_derivative(dict(zip(lams, (x.value for x in Ps))).__getitem__, lam)
        out.append((report, (coeff * P + lam * derivative) / P))
    return out


def check_pqr_identity(
    t: ExponentTriple, lam_grid: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> list[InequalityReport]:
    """Q R / P^2 against (n-q)^2 / p^2 on a lambda grid (an equality).

    P and R of every lam are the two integrals of its row in one
    gauss_kronrod_batch call over the grid (_extremal_passes without the
    finite-difference points, which only check_p_ode reads), and fail as
    pqr_reports' do.
    """
    return _identity_reports(t, _extremal_passes(t, lam_grid, spec, fd=False))


def check_p_ode(
    t: ExponentTriple, lam_grid: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> list[float]:
    """Relative residual of the first-order ODE satisfied by P: pqr_reports' residuals."""
    return [res for _, res in pqr_reports(t, lam_grid, spec)]


def _general_triple_integrals(norm, t, u, spec):
    """Monte Carlo path: dual norm of the gradient covector, pointwise.

    A, B and C come from one pass, which takes u, the distance and the
    gradient once per batch of points.
    """
    n = t.n
    density = bh_density(norm, mc_samples=spec.mc_samples, mc_seed=spec.mc_seed)
    x0 = u.basepoint if u.basepoint is not None else np.zeros(n)

    def grad(pts):
        if u.gradient is not None:
            return u.gradient(pts)
        box = u.support_box
        h = 1e-5 * max(b - a for a, b in box)
        g = np.empty_like(pts)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            g[:, i] = (u.evaluator(pts + e) - u.evaluator(pts - e)) / (2 * h)
        return g

    def integrands(pts):
        gs = grad(pts)
        dist = norm_value(norm, pts - x0)
        absu = np.abs(u.evaluator(pts))
        return np.stack([
            dual_norm_value(norm, gs) ** 2 * density,
            absu ** (2 * t.p - 2) / dist ** (2 * t.q - 2) * density,
            absu ** t.p / dist ** t.q * density,
        ])

    r = monte_carlo_integral(integrands, u.support_box, spec)
    return [IntegralResult(float(v), float(e), r.nodes_used) for v, e in zip(r.value, r.error_estimate)]


def interpolation_report(
    norm: MinkowskiNorm,
    t: ExponentTriple,
    u: RadialFunction | TestFunction,
    spec: QuadratureSpec = QuadratureSpec(),
) -> InequalityReport:
    """A * B / C^2 against (n-q)^2/p^2 for one test function.

    A = int F*(Du)^2, B = int |u|^(2p-2)/rho^(2q-2), C = int |u|^p/rho^q.
    """
    if isinstance(u, RadialFunction):
        n, p, q = t.n, t.p, t.q
        b, c = 2 * p - 2, 2 * q - 2
        A, B, C = _integrals(
            u, "power", n, spec,
            (_energy_col, 2),
            (lambda rs, us, ds, ws: [abs(v) ** b / r**c * w for r, v, w in zip(rs, us, ws)], b),
            (lambda rs, us, ds, ws: [abs(v) ** p / r**q * w for r, v, w in zip(rs, us, ws)], p),
        )
    else:
        A, B, C = _general_triple_integrals(norm, t, u, spec)
    return InequalityReport.product(A, B, C, t.target)


def extremal_profile(t: ExponentTriple, lam: float) -> RadialFunction:
    """The minimizer family (lam + rho^(2-q))^(1/(2-p)) with its derivative, lam > 0 finite."""
    _checked_parameters("lam", lam)
    p, q = t.p, t.q
    expo = 1 / (2 - p)

    def w(r):
        return (lam + r ** (2 - q)) ** expo

    def dw(r):
        return expo * (2 - q) * r ** (1 - q) * (lam + r ** (2 - q)) ** (expo - 1)

    return RadialFunction(
        RadialProfile(w, DecayClass.algebraic()), dw
    )


def _gamma_half(m: float) -> tuple[float, int]:
    """Gamma(m) / 2 for m in 1/2, 1, 3/2, ..., by Gamma(x + 1) = x Gamma(x) from
    Gamma(1) = 1 or Gamma(1/2) = sqrt(pi), and the roundings that took: two
    for sqrt(pi), one a step."""
    g, x, roundings = (1.0, 1.0, 0) if m == int(m) else (math.sqrt(math.pi), 0.5, 2)
    while x < m:
        g, x, roundings = g * x, x + 1, roundings + 1
    return g / 2, roundings


def _rate_terms(cg: float, rates: np.ndarray, e: float) -> np.ndarray:
    """cg rate^e for every rate, e a multiple of 1/2: the product of cg and
    rate^e where that power is a normal float, and elsewhere, where it has
    lost digits or overflowed, cg (rate / 4^s)^e times 2^(2 s e), 4^s within
    a factor 2 of the rate: the same roundings, and an ldexp that is exact
    wherever the term is a normal float."""
    power = np.power(rates, e)
    terms = cg * power
    # a Python min and max of the few powers cost less than numpy's tests
    listed = power.tolist()
    if min(listed, default=1.0) < _TINY or max(listed, default=1.0) == math.inf:
        out = (power < _TINY) | (power == math.inf)
        s = np.frexp(rates[out])[1] // 2
        terms[out] = np.ldexp(cg * np.power(np.ldexp(rates[out], -2 * s), e), (2 * e * s).astype(int))
    return terms


def _gaussian_moments(rows: Sequence, params: np.ndarray, spec: QuadratureSpec, describe: Callable) -> list:
    """Flat space's gaussian moments in closed form: one IntegralResult per row, for every p of params.

    A row sums terms (c, k, j), each c rate^j int_0^oo rho^k e^(-rate rho^2) d rho
    = c rate^(j - m) Gamma(m) / 2 with m = (k + 1) / 2 and rate = 2 p, the
    rate of u^2 for u = e^(-p rho^2), formed by _rate_terms.  Its
    error_estimate is the rounding bound
    gamma_r sum |c rate^(j - m) Gamma(m) / 2|, gamma_r = r u / (1 - r u)
    for u the unit roundoff, c taken as exact and r the most roundings of
    a term (those of Gamma(m) / 2, two for the power, which is within one
    ulp, two products) plus one an addition.  A value or a term outside
    the normal floats, whose digits are lost, or a bound above
    relative_tolerance times its value is a QuadratureError that names its
    p by describe(p).  nodes_used is 0.
    """
    # an inf term, or inf - inf in a sum, is named below
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        rates, every, values, bounds = 2 * params, [], [], []
        for terms in rows:
            value = size = most = 0
            for c, k, j in terms:
                g, r = _gamma_half((k + 1) / 2)
                every.append(_rate_terms(c * g, rates, j - (k + 1) / 2))
                value, size, most = value + every[-1], size + np.abs(every[-1]), max(most, r)
            roundings = most + len(terms) + 3
            values.append(value)
            bounds.append(roundings * _UNIT / (1 - roundings * _UNIT) * size)
    values, bounds = np.array(values), np.array(bounds)
    _normal_floats(np.column_stack([values.T, np.array(every).T]), params, describe)
    ok = bounds <= spec.relative_tolerance * np.abs(values)
    _name_failures(ok.T, params, describe, f"rounding bound above the requested tolerance {spec.relative_tolerance!r}")
    return [[IntegralResult(v, e, 0) for v, e in zip(vs, es)] for vs, es in zip(values.T.tolist(), bounds.T.tolist())]


def gaussian_T_grid(n: int, lams: Sequence[float], spec: QuadratureSpec = QuadratureSpec()) -> list[dict]:
    """Gaussian moment integral, its closed form, and the scaling ODE residual, for every lam.

    T(lam) = 4 lam omega_n int rho^(n+1) e^(-2 lam rho^2) d rho, which must
    equal 2 (2 lam)^(-n/2) omega_n int t^(n+1) e^(-t^2) dt and satisfy
    -lam T' = (n/2) T.  T' = T/lam - 8 lam omega_n int rho^(n+3) e^(-2 lam rho^2)
    is analytic.  T and that term of T' are Gamma values times powers of
    2 lam, with their rounding bounds (_gaussian_moments).  Every lam must
    be positive and finite, and a T or a term of T' outside the normal
    floats is a QuadratureError that names its lam.  Returns one dict per
    lam.
    """
    lams = _checked_parameters("lam", lams)
    omega = ball_volume_constant(n)
    # T and the higher moment's term of T' for every lam, 4 lam = 2 rate
    pairs = _gaussian_moments([[(2 * omega, n + 1, 1)], [(4 * omega, n + 3, 1)]], lams, spec,
                              lambda lam: f"lam = {lam!r} for n = {n}")
    out = []
    for lam, (T, term) in zip(lams.tolist(), pairs):
        value, derivative = T.value, T.value / lam - term.value
        closed = 2 * (2 * lam) ** (-n / 2) * omega * math.gamma(n / 2 + 1) / 2
        out.append({
            "value": value,
            "closed_form": closed,
            "closed_form_relative_error": abs(value - closed) / closed,
            "ode_relative_residual": (-lam * derivative - (n / 2) * value) / value,
        })
    return out


def gaussian_T(n: int, lam: float, spec: QuadratureSpec = QuadratureSpec()) -> dict:
    """gaussian_T_grid at one lam."""
    return gaussian_T_grid(n, [lam], spec)[0]


def _hpw(u: RadialFunction, weight: str, n: int, spec: QuadratureSpec) -> InequalityReport:
    """Uncertainty product A M / L^2 of u against n^2/4, on either volume (weight as for _integrals)."""
    if u.profile.decay.kind == "algebraic":
        raise ValueError("the uncertainty product needs gaussian or compact decay")
    A, M, L = _integrals(u, weight, n, spec, (_energy_col, 2), (_moment_col, 2), (_mass_col, 2))
    if L.value == 0:
        raise ValueError("zero test function")
    return InequalityReport.product(A, M, L, n**2 / 4)


def hpw_report(
    norm: MinkowskiNorm, n: int, u: RadialFunction, spec: QuadratureSpec = QuadratureSpec()
) -> InequalityReport:
    """Uncertainty product over the squared mass, against n^2/4."""
    return _hpw(u, "power", n, spec)


def gaussian_hpw_reports(
    n: int, lams: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> list[tuple[InequalityReport, float]]:
    """hpw_report of e^(-lam F^2) and gaussian_moment_identity, for every lam.

    For u = e^(-lam F^2), L = int u^2 = n omega_n int rho^(n-1) e^(-2 lam rho^2),
    M = int F^2 u^2 = n omega_n int rho^(n+1) e^(-2 lam rho^2) and
    A = int F*(Du)^2 = 4 lam^2 M, each a Gamma value times a power of 2 lam,
    with its rounding bound (_gaussian_moments).  Every lam must be
    positive and finite, and an A, M or L outside the normal floats, or an
    A M or L^2 that is 0 or overflows, is a QuadratureError that names its
    lam.  Returns one (A M / L^2 against n^2/4, relative defect of
    2 lam M = (n/2) L) pair per lam.
    """
    lams = _checked_parameters("lam", lams)
    c = n * ball_volume_constant(n)

    def describe(lam):
        return f"lam = {lam!r} for n = {n}"

    # L, M and A = rate^2 M for every lam
    triples = _gaussian_moments([[(c, n - 1, 0)], [(c, n + 1, 0)], [(c, n + 1, 2)]], lams, spec, describe)
    masses, moments, energies = ([t[i].value for t in triples] for i in range(3))
    _ratio_terms(energies, moments, [masses], lams, describe)
    out = []
    for lam, (L, M, A) in zip(lams.tolist(), triples):
        defect = abs(2 * lam * M.value - (n / 2) * L.value) / ((n / 2) * L.value)
        out.append((InequalityReport.product(A, M, L, n**2 / 4), defect))
    return out


def gaussian_moment_identity(n: int, lam: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Relative defect of 2 lam int F^2 e^(-2 lam F^2) = (n/2) int e^(-2 lam F^2).

    Both sides are Gamma values times powers of 2 lam (gaussian_hpw_reports).
    """
    return gaussian_hpw_reports(n, [lam], spec)[0][1]


def hardy_report(
    norm: MinkowskiNorm,
    n: int,
    u: RadialFunction,
    c: float = 0.0,
    spec: QuadratureSpec = QuadratureSpec(),
) -> InequalityReport:
    """Dirichlet energy over the Hardy integral, against (n-2)^2/4.

    Flat space has no curvature defect, so c enters only as a guard that the
    caller is on the flat instance (c = 0).  For u = rho e^(-a rho^2),
    gaussian_hardy_reports takes A and H in closed form.
    """
    if n < 3:
        raise ValueError("Hardy needs n >= 3")
    if c > 0:
        raise ValueError("curvature bound must be <= 0")
    A, H = _integrals(u, "power", n, spec, (_energy_col, 2), (_hardy_col, 2))
    if H.value == 0:
        raise ValueError("zero test function")
    return InequalityReport.quotient(A, H, (n - 2) ** 2 / 4)


def gaussian_hardy_reports(
    n: int, rates: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> list[InequalityReport]:
    """hardy_report of u = rho e^(-a F^2) for every a of rates.

    (u')^2 = (1 - 4 a rho^2 + 4 a^2 rho^4) e^(-2 a rho^2) and
    u^2/rho^2 = e^(-2 a rho^2), so A = int F*(Du)^2 and H = int u^2/F^2 are
    sums of Gamma values times (2a)^(-n/2), with their rounding bounds
    (_gaussian_moments); A / H = n^2/4 - n/2 + 1 for every a.  Every a must
    be positive and finite, and an A or H outside the normal floats is a
    QuadratureError that names its a.  Returns one report, A / H against
    (n-2)^2/4, per a.
    """
    if n < 3:
        raise ValueError("Hardy needs n >= 3")
    rates = _checked_parameters("a", rates)
    c = n * ball_volume_constant(n)
    # 4 a = 2 rate and 4 a^2 = rate^2
    pairs = _gaussian_moments([[(c, n - 1, 0), (-2 * c, n + 1, 1), (c, n + 3, 2)], [(c, n - 1, 0)]], rates, spec,
                              lambda a: f"a = {a!r} for n = {n}")
    return [InequalityReport.quotient(A, H, (n - 2) ** 2 / 4) for A, H in pairs]


def _smoothstep(s, width):
    """The quintic 1 - s^3 (10 - 15 s + 6 s^2) and its derivative in rho.

    s = (rho - r) / width on [0, 1], a float or an array; the quintic is 1
    at s = 0 and 0 at s = 1, and its derivative 0 at both ends.
    """
    return 1 - s**3 * (10 - 15 * s + 6 * s**2), -(30 * s**2 - 60 * s**3 + 30 * s**4) / width


def smoothstep_cutoff(r: float, R: float) -> tuple[Callable, Callable]:
    """Quintic smoothstep: 1 on [0, r], 0 on [R, oo), C^2 monotone between.

    Returns (psi, psi') with closed-form derivative.
    """
    if not (0 < r < R):
        raise ValueError("need 0 < r < R")

    def psi(rho):
        if rho <= r:
            return 1.0
        if rho >= R:
            return 0.0
        return _smoothstep((rho - r) / (R - r), R - r)[0]

    def dpsi(rho):
        if rho <= r or rho >= R:
            return 0.0
        return _smoothstep((rho - r) / (R - r), R - r)[1]

    return psi, dpsi


def hardy_sharpness_sweep(
    norm: MinkowskiNorm,
    n: int,
    r: float,
    R: float,
    eps_list: Sequence[float],
    spec: QuadratureSpec = QuadratureSpec(),
) -> dict:
    """Hardy quotient of the capped power family against the cutoff.

    u_eps = max(rho, eps)^(-gamma), gamma = (n-2)/2, multiplied by a quintic
    smoothstep supported in [0, R].  The quotient sequence is non-increasing
    toward (n-2)^2/4; the extrapolated limit A comes from a linear
    least-squares fit of A + B/(ln(1/eps) + C) over at least two distinct
    eps (fit_coefficient is B); a repeated eps is a ValueError that names
    it, since it leaves the fit's system rank-deficient.

    The quotient is int (u_eps')^2 over int u_eps^2/rho^2, both against
    rho^(n-1) d rho (n omega_n cancels).  On [0, r] the cutoff is 1, so
    [0, eps] and [eps, r] are exact: the energy is 0 and gamma^2 ln(r/eps),
    the Hardy integral 1/(n-2) and ln(r/eps).  The eps-free smoothstep piece
    [r, R] is one gauss_kronrod_batch pass, mapped onto [0, 1].
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if len(eps_list) < 2:
        raise ValueError("need at least two eps for the extrapolation")
    if not all(0 < e < r for e in eps_list):
        raise ValueError("need 0 < eps < r for every eps")
    repeats = [e for i, e in enumerate(eps_list) if e in eps_list[:i]]
    if repeats:
        raise ValueError(f"eps = {repeats[0]!r} repeats: the fit needs distinct eps")
    if not (r < R):
        raise ValueError("need r < R")
    gamma = (n - 2) / 2

    def integrand(x, p):
        # one parameter, which the piece does not read
        rho = r + (R - r) * x
        psi, dpsi = _smoothstep(x, R - r)
        w = rho ** (n - 1) * (R - r)
        u = psi * rho**-gamma
        du = dpsi * rho**-gamma - gamma * psi * rho ** (-gamma - 1)
        return np.stack([du**2 * w, u**2 / rho**2 * w])[:, None]

    (energy, hardy), _, _ = gauss_kronrod_batch(integrand, np.zeros(1), spec, lambda _: f"r = {r!r}, R = {R!r} for n = {n}")
    ell = np.array([math.log(1.0 / e) for e in eps_list])
    # ln(r/eps) = ln r + ell, the length of [eps, r] against d rho / rho
    span = math.log(r) + ell
    y = (gamma**2 * span + energy[0]) / (1 / (n - 2) + span + hardy[0])
    # y is exactly A + B/(ell + C); times ell + C it is linear in (A, D, C),
    # y ell = A ell + D - C y with D = A C + B.  Two eps fit C = 0.
    columns = [ell, np.ones_like(ell), -y][: min(len(eps_list), 3)]
    fit = np.linalg.lstsq(np.stack(columns, axis=1), y * ell, rcond=None)[0]
    A, D, C = fit if len(fit) == 3 else (*fit, 0.0)
    return {
        "eps": list(eps_list),
        "quotients": y.tolist(),
        "extrapolated_limit": float(A),
        "fit_coefficient": float(D - A * C),
        "target": gamma**2,
    }


def double_hardy_report(
    norm: MinkowskiNorm,
    n: int,
    u: RadialFunction,
    R: float,
    uniformity: float = 1.0,
    spec: QuadratureSpec = QuadratureSpec(),
) -> InequalityReport:
    """Hardy with the logarithmic remainder weighted by the uniformity constant.

    Requires the support radius of u strictly inside R; flat instance, so the
    curvature defect vanishes and the remainder is (l/4) int u^2/(rho ln(eR/rho))^2.
    The energy, the Hardy integral and the remainder share one radial_integrals
    pass, except where the remainder's rho^(n-3) / ln^2(eR/rho) has no bounded
    second derivative at 0 (n = 3, 4), whose refinement toward 0 would drive
    the shared mesh: there the remainder's head [0, b], b the first cut of
    u's mesh (the least of 1, the support radius and u's breakpoints inside
    it), is one radial_integral in t = ln(b/rho),
    int_0^oo u(b e^-t)^2 (b e^-t)^(n-2) / (ln(eR/b) + t)^2 dt, and the shared
    pass, given b as a cut, carries the remainder on [b, support] alone.  The values, error
    estimates and nodes_used of the two parts are summed.
    """
    prof = u.profile
    if prof.decay.kind != "compact":
        raise ValueError("double Hardy needs compact support")
    support = prof.decay.support_radius
    if R <= support:
        raise ValueError("R must exceed the support radius")
    if n < 3:
        raise ValueError("need n >= 3")
    eR = math.e * R
    # below b the shared pass leaves the remainder to the head in t (n = 3, 4);
    # b is handed to the pass as a cut, and is u's first cut, so the mesh is u's own
    b = min([1.0, support, *(p for p in prof.breakpoints if 0 < p < support)]) if n < 5 else 0.0
    A, H, Rem = _integrals(
        u, "power", n, spec,
        (_energy_col, 2),
        (_hardy_col, 2),
        (lambda rs, us, ds, ws: [
            v * v / (r * math.log(eR / r)) ** 2 * w if r > b else 0.0 for r, v, w in zip(rs, us, ws)
        ], 2),
        cuts=(b,) if b else (),
    )
    if H.value == 0:
        raise ValueError("zero test function")
    if b:
        f, log_eR_b = prof.evaluator, math.log(eR / b)

        def head(t):
            rho = b * math.exp(-t)
            return f(rho) ** 2 * rho ** (n - 2) / (log_eR_b + t) ** 2

        h = _scaled(radial_integral(RadialProfile(head, DecayClass.algebraic()), ("power", 0), spec),
                    n * ball_volume_constant(n))
        Rem = IntegralResult(Rem.value + h.value, Rem.error_estimate + h.error_estimate, Rem.nodes_used + h.nodes_used)
    return InequalityReport.normalised(A, ((n - 2) ** 2 / 4, H), (uniformity / 4, Rem))
