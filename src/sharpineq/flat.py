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
    fd_derivative,
    flat_radial_volume_integral,
    gauss_kronrod_batch,
    monte_carlo_integral,
    radial_integral,
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
    "interpolation_report",
    "extremal_profile",
    "gaussian_T",
    "hpw_report",
    "gaussian_moment_identity",
    "hardy_report",
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
        """e^(-alpha d^2 - beta d) with alpha > 0, beta >= 0."""
        if alpha <= 0 or beta < 0:
            raise ValueError("need alpha > 0 and beta >= 0")

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


def _integrals(u, volume, n: int, spec: QuadratureSpec, *terms) -> list:
    """volume(fn, n, spec) for every (fn, power) term.

    u is a RadialFunction; fn decays like |u|^power times a power of rho, so
    it gets that decay class and u's breakpoints.  volume is
    flat_radial_volume_integral or hyperbolic_radial_volume_integral.
    """
    prof = u.profile
    return [
        volume(RadialProfile(fn, prof.decay.scaled(power), breakpoints=prof.breakpoints), n, spec)
        for fn, power in terms
    ]


def _kernel_h(t: ExponentTriple, lam: float) -> Callable[[float], float]:
    """rho -> h(lam, rho), with every power of p, q and lam taken once."""
    p, q = t.p, t.q
    a, e, b, pq, p2, ql = 2 - q, (2 * p - 2) / (2 - p), -(q + 1), p - q, p - 2, q * lam

    def h(rho: float) -> float:
        s = rho**a
        return (lam + s) ** e * rho**b * (2 * s * pq / p2 + ql)

    return h


def _kernel_g(t: ExponentTriple, lam: float) -> Callable[[float], float]:
    """rho -> g(lam, rho), with every power of p, q and lam taken once."""
    p, q = t.p, t.q
    coeff = (2 * p - 2) / (p - 2) * (2 - q) + 2 * (q - 1)
    a, e, b, c = 2 - q, (3 * p - 4) / (2 - p), -(2 * q - 1), 2 * (q - 1) * lam

    def g(rho: float) -> float:
        s = rho**a
        return (lam + s) ** e * rho**b * (s * coeff + c)

    return g


def kernel_h(t: ExponentTriple, lam: float, rho: float) -> float:
    """Layer-cake kernel of the extremal-family integral P."""
    return _kernel_h(t, lam)(rho)


def kernel_g(t: ExponentTriple, lam: float, rho: float) -> float:
    """Layer-cake kernel of the extremal-family integral R."""
    return _kernel_g(t, lam)(rho)


def pqr(t: ExponentTriple, lam: float, which: str, spec: QuadratureSpec = QuadratureSpec()) -> IntegralResult:
    """The integrals P, Q, R of the extremal family at parameter lam.

    P = omega_n int rho^n h, R = omega_n int rho^n g,
    Q = ((2-q)/(p-2))^2 * R.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if which not in ("P", "Q", "R"):
        raise ValueError("selector must be one of P, Q, R")
    if which == "P":
        return _radial(t, lam, _kernel_h, spec)
    r = _radial(t, lam, _kernel_g, spec)
    return r if which == "R" else _q_from_r(t, r)


def _radial(t: ExponentTriple, lam: float, kernel, spec: QuadratureSpec) -> IntegralResult:
    """omega_n int rho^n kernel(t, lam)(rho) d rho."""
    prof = RadialProfile(kernel(t, lam), DecayClass.algebraic())
    base = radial_integral(prof, ("power", t.n), spec)
    omega = ball_volume_constant(t.n)
    return IntegralResult(omega * base.value, omega * base.error_estimate, base.nodes_used)


def _q_from_r(t: ExponentTriple, r: IntegralResult) -> IntegralResult:
    c = (2 - t.q) ** 2 / (t.p - 2) ** 2
    return IntegralResult(c * r.value, c * r.error_estimate, r.nodes_used)


def check_pqr_identity(
    t: ExponentTriple, lam_grid: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> list[InequalityReport]:
    """Q R / P^2 against (n-q)^2 / p^2 on a lambda grid (an equality)."""
    if any(lam <= 0 for lam in lam_grid):
        raise ValueError("lam must be positive")
    out = []
    for lam in lam_grid:
        P = _radial(t, lam, _kernel_h, spec)
        R = _radial(t, lam, _kernel_g, spec)
        Q = _q_from_r(t, R)
        rep = InequalityReport.product(Q, R, P, t.target)
        # errors in (P, Q, R) order: the err column is their float sum
        out.append(replace(rep, integral_errors=_relative_errors(P, Q, R)))
    return out


def check_p_ode(
    t: ExponentTriple, lam_grid: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> list[float]:
    """Relative residual of the first-order ODE satisfied by P."""
    coeff = (1 / (2 - t.q)) * (-t.n + 2 * (t.p - t.q) / (t.p - 2))

    def P(lam):
        return pqr(t, lam, "P", spec).value

    out = []
    for lam in lam_grid:
        p = P(lam)
        out.append((coeff * p + lam * fd_derivative(P, lam)) / p)
    return out


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
        prof, du = u.profile, u.derivative
        A, B, C = _integrals(
            u, flat_radial_volume_integral, n, spec,
            (lambda r: du(r) ** 2, 2),
            (lambda r: abs(prof(r)) ** (2 * p - 2) / r ** (2 * q - 2), 2 * p - 2),
            (lambda r: abs(prof(r)) ** p / r**q, p),
        )
    else:
        A, B, C = _general_triple_integrals(norm, t, u, spec)
    return InequalityReport.product(A, B, C, t.target)


def extremal_profile(t: ExponentTriple, lam: float) -> RadialFunction:
    """The minimizer family (lam + rho^(2-q))^(1/(2-p)) with its derivative."""
    p, q = t.p, t.q
    expo = 1 / (2 - p)

    def w(r):
        return (lam + r ** (2 - q)) ** expo

    def dw(r):
        return expo * (2 - q) * r ** (1 - q) * (lam + r ** (2 - q)) ** (expo - 1)

    return RadialFunction(
        RadialProfile(w, DecayClass.algebraic()), dw
    )


def gaussian_T(n: int, lam: float, spec: QuadratureSpec = QuadratureSpec()) -> dict:
    """Gaussian moment integral, its closed form, and the scaling ODE residual.

    T(lam) = 4 lam omega_n int rho^(n+1) e^(-2 lam rho^2) d rho, which must
    equal 2 (2 lam)^(-n/2) omega_n int t^(n+1) e^(-t^2) dt and satisfy
    -lam T' = (n/2) T.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    omega = ball_volume_constant(n)

    def T(la):
        prof = RadialProfile(lambda r: math.exp(-2 * la * r * r), DecayClass.gaussian(2 * la))
        base = radial_integral(prof, ("power", n + 1), spec)
        return 4 * la * omega * base.value

    value = T(lam)
    closed = 2 * (2 * lam) ** (-n / 2) * omega * math.gamma(n / 2 + 1) / 2
    ode_res = (-lam * fd_derivative(T, lam) - (n / 2) * value) / value
    return {
        "value": value,
        "closed_form": closed,
        "closed_form_relative_error": abs(value - closed) / closed,
        "ode_relative_residual": ode_res,
    }


def _hpw(u: RadialFunction, volume, n: int, spec: QuadratureSpec) -> InequalityReport:
    """Uncertainty product A M / L^2 of u against n^2/4, on either volume."""
    prof, du = u.profile, u.derivative
    if prof.decay.kind == "algebraic":
        raise ValueError("the uncertainty product needs gaussian or compact decay")
    A, M, L = _integrals(
        u, volume, n, spec,
        (lambda r: du(r) ** 2, 2),
        (lambda r: r**2 * prof(r) ** 2, 2),
        (lambda r: prof(r) ** 2, 2),
    )
    if L.value == 0:
        raise ValueError("zero test function")
    return InequalityReport.product(A, M, L, n**2 / 4)


def hpw_report(
    norm: MinkowskiNorm, n: int, u: RadialFunction, spec: QuadratureSpec = QuadratureSpec()
) -> InequalityReport:
    """Uncertainty product over the squared mass, against n^2/4."""
    return _hpw(u, flat_radial_volume_integral, n, spec)


def gaussian_moment_identity(n: int, lam: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Relative defect of 2 lam int F^2 e^(-2 lam F^2) = (n/2) int e^(-2 lam F^2)."""
    left = flat_radial_volume_integral(
        RadialProfile(lambda r: r**2 * math.exp(-2 * lam * r * r), DecayClass.gaussian(2 * lam)),
        n,
        spec,
    )
    right = flat_radial_volume_integral(
        RadialProfile(lambda r: math.exp(-2 * lam * r * r), DecayClass.gaussian(2 * lam)), n, spec
    )
    return abs(2 * lam * left.value - (n / 2) * right.value) / ((n / 2) * right.value)


def hardy_report(
    norm: MinkowskiNorm,
    n: int,
    u: RadialFunction,
    c: float = 0.0,
    spec: QuadratureSpec = QuadratureSpec(),
) -> InequalityReport:
    """Dirichlet energy over the Hardy integral, against (n-2)^2/4.

    Flat space has no curvature defect, so c enters only as a guard that the
    caller is on the flat instance (c = 0).
    """
    if n < 3:
        raise ValueError("Hardy needs n >= 3")
    if c > 0:
        raise ValueError("curvature bound must be <= 0")
    prof, du = u.profile, u.derivative
    A, H = _integrals(
        u, flat_radial_volume_integral, n, spec,
        (lambda r: du(r) ** 2, 2),
        (lambda r: prof(r) ** 2 / r**2, 2),
    )
    if H.value == 0:
        raise ValueError("zero test function")
    return InequalityReport.quotient(A, H, (n - 2) ** 2 / 4)


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
    least-squares fit of A + B/(ln(1/eps) + C) over at least two eps
    (fit_coefficient is B).

    The quotient is int (u_eps')^2 over int u_eps^2/rho^2, both against
    rho^(n-1) d rho (n omega_n cancels), for every eps from one
    gauss_kronrod_batch pass.  [0, eps], [eps, r] and [r, R] are each mapped
    onto [0, 1], and the integrand on [0, 1] is the sum of the three; on
    [eps, r], rho = eps (r/eps)^x turns the 1/rho integrand into a constant.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if len(eps_list) < 2:
        raise ValueError("need at least two eps for the extrapolation")
    if not all(0 < e < r for e in eps_list):
        raise ValueError("need 0 < eps < r for every eps")
    if not (r < R):
        raise ValueError("need r < R")
    gamma = (n - 2) / 2

    def integrand(x, eps):
        span = np.log(r / eps)
        inner = eps * np.exp(span * x)
        pieces = ((eps * x, eps), (inner, inner * span), (r + (R - r) * x, R - r))
        energy = hardy = 0.0
        for rho, jac in pieces:
            psi, dpsi = _smoothstep(np.clip((rho - r) / (R - r), 0.0, 1.0), R - r)
            u = psi * np.maximum(eps, rho) ** -gamma
            du = np.where(rho <= eps, 0.0, dpsi * rho**-gamma - gamma * psi * rho ** (-gamma - 1))
            w = rho ** (n - 1) * jac
            energy = energy + du**2 * w
            hardy = hardy + u**2 / rho**2 * w
        return np.stack([energy, hardy])

    def describe(eps):
        return f"eps = {eps!r} for n = {n}"

    (energy, hardy), _, _ = gauss_kronrod_batch(integrand, eps_list, spec, describe)
    y = energy / hardy
    ell = np.array([math.log(1.0 / e) for e in eps_list])
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
    """
    prof, du = u.profile, u.derivative
    if prof.decay.kind != "compact":
        raise ValueError("double Hardy needs compact support")
    if R <= prof.decay.support_radius:
        raise ValueError("R must exceed the support radius")
    if n < 3:
        raise ValueError("need n >= 3")
    A, H, Rem = _integrals(
        u, flat_radial_volume_integral, n, spec,
        (lambda r: du(r) ** 2, 2),
        (lambda r: prof(r) ** 2 / r**2, 2),
        (lambda r: prof(r) ** 2 / (r * math.log(math.e * R / r)) ** 2, 2),
    )
    if H.value == 0:
        raise ValueError("zero test function")
    return InequalityReport.normalised(A, ((n - 2) ** 2 / 4, H), (uniformity / 4, Rem))
