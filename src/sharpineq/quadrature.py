"""Deterministic integration of radial profiles on [0, oo).

Adaptive Gauss-Kronrod panels on a split domain with a rational tail
transform, a vectorised composite Gauss-Kronrod rule over a whole parameter
grid at once, n-dimensional Monte Carlo cross-validation with a
counter-based generator, and Richardson-extrapolated finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .norms import ball_volume_constant

__all__ = [
    "DecayClass",
    "RadialProfile",
    "QuadratureSpec",
    "IntegralResult",
    "QuadratureError",
    "radial_integral",
    "flat_radial_volume_integral",
    "hyperbolic_radial_volume_integral",
    "gauss_kronrod_batch",
    "hyperbolic_gaussian_masses",
    "hyperbolic_gaussian_moments",
    "monte_carlo_integral",
    "fd_derivative",
]


class QuadratureError(RuntimeError):
    """Tolerance not met, or an integrand or integral outside the float range."""


@dataclass(frozen=True)
class DecayClass:
    """Behavior of a profile at infinity, which decides where its domain ends.

    kind: 'algebraic' (an integrable tail, mapped from 1 or a breakpoint past it),
    'gaussian' (f = O(exp(-rate rho^2))) or 'compact' (support inside
    [0, support_radius]).
    """

    kind: str
    rate: float = 0.0
    support_radius: float = 0.0

    @staticmethod
    def algebraic() -> "DecayClass":
        return DecayClass("algebraic")

    @staticmethod
    def gaussian(rate: float) -> "DecayClass":
        return DecayClass("gaussian", rate=rate)

    @staticmethod
    def compact(support_radius: float) -> "DecayClass":
        return DecayClass("compact", support_radius=support_radius)

    def scaled(self, power: float) -> "DecayClass":
        """Decay of |f|^power, times any power of rho, for a profile f with this decay."""
        if self.kind == "gaussian":
            return DecayClass.gaussian(self.rate * power)
        return self


@dataclass(frozen=True)
class RadialProfile:
    """Scalar function of geodesic distance with declared asymptotics.

    breakpoints are interior points where the evaluator is non-smooth.
    """

    evaluator: Callable[[float], float]
    decay: DecayClass
    breakpoints: tuple = ()

    def __call__(self, rho: float) -> float:
        return self.evaluator(rho)


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy, truncation and seeding parameters shared by all integrals.

    radial_integral accepts a summed error estimate of up to
    ACCEPTANCE_FACTOR x relative_tolerance x |value|; gauss_kronrod_batch
    holds every value to relative_tolerance itself.
    """

    relative_tolerance: float = 1e-9
    max_subdivisions: int = 60
    mc_samples: int = 1 << 20
    mc_seed: int = 0x5EED

    def __post_init__(self):
        if self.relative_tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.mc_samples < (1 << 10):
            raise ValueError("mc_samples must be >= 2^10")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    nodes_used: int
    truncation: float = math.inf


# radial_integral accepts a summed QUADPACK error estimate up to this multiple
# of relative_tolerance * |value| before it raises "tolerance not met"
ACCEPTANCE_FACTOR = 100

# e^(-x) underflows to 0.0 once x passes about 745
_LOG_UNDERFLOW = 745.0


def _weight_fn(weight) -> tuple[Callable[[float], float], float]:
    """Return (w(rho), growth-exponent) with e^{g rho} dominating w at infinity."""
    kind = weight[0]
    if kind == "power":
        k = weight[1]
        return (lambda r: r**k), 0.0
    if kind == "sinh-power":
        m = weight[1]
        return (lambda r: math.sinh(r) ** m), float(m)
    raise ValueError(f"unknown weight {weight!r}")


def _tail_budget(tol: float) -> float:
    """Log-decay an integrand must reach before its tail counts as negligible."""
    return max(-math.log(tol), 25.0) + 15.0


def _truncation_radius(decay: DecayClass, growth: float, tol: float) -> float:
    """Radius past which the integrand tail is negligible at the requested tolerance."""
    budget = _tail_budget(tol)
    if decay.kind == "compact":
        return decay.support_radius
    if decay.kind == "gaussian":
        a = decay.rate
        if a <= 0:
            raise QuadratureError("gaussian decay needs a positive rate")
        # solve a T^2 - growth T = budget
        T = (growth + math.sqrt(growth**2 + 4 * a * budget)) / (2 * a)
        return max(T, 8.0 / math.sqrt(a), 10.0)
    if growth > 0:
        raise QuadratureError(
            "algebraic decay cannot beat exponential volume growth; "
            "gaussian decay is mandatory against sinh weights"
        )
    return math.inf


def radial_integral(f: RadialProfile, weight, spec: QuadratureSpec = QuadratureSpec()) -> IntegralResult:
    """Integral of f(rho) w(rho) over [0, oo).

    weight is ('power', k) or ('sinh-power', m).  The domain
    is split at 1 and at every breakpoint up to its end: the truncation
    radius T, or for algebraic decay the larger of 1 and the last breakpoint.
    Unless the decay is compact, the tail past the end is mapped onto [0, 1)
    by rho = end + t/(1 - t).  The summed error estimate may reach
    ACCEPTANCE_FACTOR x relative_tolerance x |value| before QuadratureError
    is raised.  Against ('sinh-power', m), a gaussian profile of rate a
    underflows to 0.0 at rho_u = sqrt(745/a) while f sinh^m may still hold
    mass there; QuadratureError is raised when e^(-a rho^2 + m rho) at rho_u,
    relative to its peak at rho = m/(2a), exceeds relative_tolerance.  A
    compact profile of support radius R is evaluated at R (1 + 2^-20), 1.5 R
    and 2 R, and QuadratureError is raised if it is nonzero at any of them.
    """
    w, growth = _weight_fn(weight)
    T = _truncation_radius(f.decay, growth, spec.relative_tolerance)
    m = weight[1] if weight[0] == "sinh-power" else None
    if m is not None and f.decay.kind == "gaussian":
        a = f.decay.rate
        rho_u = math.sqrt(_LOG_UNDERFLOW / a)
        if -a * rho_u**2 + m * rho_u - m * m / (4 * a) > math.log(spec.relative_tolerance):
            raise QuadratureError(
                f"gaussian profile of rate {a!r} underflows to 0 at rho={rho_u!r}, "
                f"where f sinh^{m} still carries mass above the tolerance"
            )
    if f.decay.kind == "compact":
        R = f.decay.support_radius
        for r in (R * (1 + 2.0**-20), 1.5 * R, 2 * R):
            v = f.evaluator(r)
            if v != 0.0:
                raise QuadratureError(
                    f"profile declared compact on [0, {R!r}] is {v!r} at rho={r!r}"
                )

    def g(r: float) -> float:
        try:
            v = f.evaluator(r)
        except OverflowError:
            raise QuadratureError(f"profile exceeds the float range at rho={r!r}") from None
        try:
            return v * w(r)
        except OverflowError:
            if m is None:
                # a power weight overflows only far out in the mapped tail,
                # where the true product has underflowed
                return 0.0
        # sinh^m alone overflows while f sinh^m may still be large (small
        # gaussian rates), so form the product in log space:
        # log sinh rho = rho + log(1 - e^(-2 rho)) - log 2
        if v == 0.0:
            return 0.0
        log_w = m * (r + math.log1p(-math.exp(-2 * r)) - math.log(2))
        try:
            return math.copysign(math.exp(math.log(abs(v)) + log_w), v)
        except OverflowError:
            raise QuadratureError(f"integrand exceeds the float range at rho={r!r}") from None

    interior = {b for b in f.breakpoints if 0 < b < T}
    end = T if math.isfinite(T) else max({1.0} | interior)
    cuts = sorted({0.0, min(1.0, end), end} | interior)
    panels = list(zip(cuts, cuts[1:]))
    if f.decay.kind != "compact":
        panels.append((end, math.inf))

    def tail(t: float) -> float:
        return g(end + t / (1 - t)) / (1 - t) ** 2

    total, err, nodes = 0.0, 0.0, 0
    for lo, hi in panels:
        val, abserr, info = integrate.quad(
            *((g, lo, hi) if hi < math.inf else (tail, 0.0, 1.0)),
            epsabs=1e-300,
            epsrel=spec.relative_tolerance,
            limit=spec.max_subdivisions * 10,
            full_output=True,
        )[:3]
        total += val
        err += abserr
        nodes += int(info["neval"])
        if not math.isfinite(val):
            raise QuadratureError(
                f"integral over rho in [{lo!r}, {hi!r}] is {val!r}: outside the float range"
            )
    if abs(total) > 0 and err > ACCEPTANCE_FACTOR * spec.relative_tolerance * abs(total) + 1e-280:
        raise QuadratureError(
            f"requested tolerance not met: value={total!r}, error={err!r}"
        )
    return IntegralResult(total, err, nodes, truncation=T)


def flat_radial_volume_integral(
    f: RadialProfile, n: int, spec: QuadratureSpec = QuadratureSpec()
) -> IntegralResult:
    """Busemann-Hausdorff integral of x -> f(F(x - x0)) over flat n-space.

    Equals n omega_n * int f(rho) rho^(n-1) d rho for every reversible norm;
    norm-independence is the contract.
    """
    base = radial_integral(f, ("power", n - 1), spec)
    c = n * ball_volume_constant(n)
    return IntegralResult(c * base.value, c * base.error_estimate, base.nodes_used, base.truncation)


def hyperbolic_radial_volume_integral(
    f: RadialProfile, n: int, spec: QuadratureSpec = QuadratureSpec()
) -> IntegralResult:
    """Integral over the curvature -1 ball model: n omega_n * int f sinh^(n-1)."""
    base = radial_integral(f, ("sinh-power", n - 1), spec)
    c = n * ball_volume_constant(n)
    return IntegralResult(c * base.value, c * base.error_estimate, base.nodes_used, base.truncation)


# QUADPACK qk15 on [-1, 1]: Kronrod nodes from 1 down to the centre, their
# weights, and the weights of the embedded 7-point Gauss rule, which uses
# every second node.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
])
_GK15_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_GK15_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GK15_GAUSS = np.concatenate([_WG[:-1], _WG[::-1]])

_FIRST_PANELS = 8
# integrand values per evaluation block: a few hundred parameters at the
# first panel count, so peak memory does not grow with the grid
_BLOCK_VALUES = 1 << 15


def gauss_kronrod_batch(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    params: np.ndarray,
    spec: QuadratureSpec = QuadratureSpec(),
    describe: Callable[[object], str] = repr,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrals over [0, 1] of integrand(x, p), one for every p in params.

    params is an array whose first axis runs over the parameters: shape (N,),
    or (N, k) for k numbers per parameter.  integrand maps the node positions
    x, shape (m,), and a column of parameters, shape (r, 1) or (r, 1, k), to
    an (r, m) array, or to a (q, r, m) array for q integrals per parameter on
    the same nodes.  The rule is composite G7/K15 on equal panels.  Every
    integral carries its own error estimate, the sum over panels of |K - G|;
    the panel count is doubled only for the parameters with an estimate
    above relative_tolerance * |value|, up to the 10 * max_subdivisions
    subintervals radial_integral allows QUADPACK.  A value depends only on
    its parameter, never on the rest of the grid.  A QuadratureError names
    a parameter by describe(params[i].tolist()).  Returns (values,
    error_estimates, integrand evaluations), values and estimates of shape
    (N,), or (q, N) for q integrals per parameter.
    """
    params = np.asarray(params, dtype=float)
    count = len(params)
    values = errors = None
    tol = spec.relative_tolerance
    todo = np.arange(count)
    panels, evals = _FIRST_PANELS, 0
    while True:
        half = 0.5 / panels
        x = ((np.arange(panels)[:, None] + 0.5) / panels + half * _GK15_NODES).ravel()
        wk = half * _GK15_KRONROD
        wd = half * (_GK15_KRONROD - _GK15_GAUSS)
        rows = max(1, _BLOCK_VALUES // x.size)
        # values outside the float range are caught below, with their parameter
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, todo.size, rows):
                idx = todo[start:start + rows]
                f = integrand(x, params[idx, None])
                if values is None:
                    values = np.empty(f.shape[:-2] + (count,))
                    errors = np.empty(values.shape)
                f = f.reshape(f.shape[:-2] + (idx.size, panels, _GK15_NODES.size))
                values[..., idx] = (f * wk).sum(axis=-1).sum(axis=-1)
                errors[..., idx] = np.abs((f * wd).sum(axis=-1)).sum(axis=-1)
        if values is None:
            return np.empty(0), np.empty(0), 0
        evals += todo.size * x.size
        # one row per integral of a parameter, one column per parameter
        val = values[..., todo].reshape(-1, todo.size)
        err = errors[..., todo].reshape(-1, todo.size)
        bad = todo[~np.isfinite(val).all(axis=0)]
        if bad.size:
            raise QuadratureError(
                f"non-finite integral at {bad.size} of {count} parameters, first at "
                f"{describe(params[bad[0]].tolist())}: outside the float range"
            )
        missed = (err > tol * np.abs(val)).any(axis=0)
        if not missed.any():
            return values, errors, evals
        if 2 * panels > 10 * spec.max_subdivisions:
            with np.errstate(divide="ignore"):
                rel = (err[:, missed] / np.abs(val[:, missed])).max(axis=0)
            worst = int(np.argmax(rel))
            raise QuadratureError(
                f"requested tolerance {tol!r} not met with {panels} panels at "
                f"{int(missed.sum())} parameters; worst at "
                f"{describe(params[todo[missed][worst]].tolist())}: "
                f"relative error estimate {float(rel[worst])!r}"
            )
        todo = todo[missed]
        panels *= 2


def _sinh_gaussian(m: int, rate, x: np.ndarray, budget: float):
    """The substitution s = rho sqrt(rate) for e^(-rate rho^2) sinh^m(rho) on [0, oo).

    s runs over [0, S] as S x, where S solves s^2 - g s = budget for
    g = m / sqrt(rate): the tail bound _truncation_radius uses, without its
    floors in rho.  Returns (S, rho, log(e^(-s^2) sinh^m(rho))) at the nodes
    x; the log stays finite where sinh^m alone would overflow (small rates).
    The integral in rho is int_0^1 S e^(log) dx / sqrt(rate).
    """
    root = np.sqrt(rate)
    g = m / root
    S = (g + np.sqrt(g * g + 4 * budget)) / 2
    s = S * x
    t = s / root
    # log sinh t = t + log(1 - e^(-2t)) - log 2
    return S, t, m * (t + np.log(-np.expm1(-2 * t)) - math.log(2)) - s * s


def hyperbolic_gaussian_masses(
    n: int, alphas: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> tuple[np.ndarray, np.ndarray, int]:
    """n omega_n int e^(-alpha rho^2) sinh^(n-1)(rho) d rho for every alpha.

    The batched counterpart of hyperbolic_radial_volume_integral for the
    gaussian e^(-alpha rho^2), integrated in s = rho sqrt(alpha) up to the
    tail cut of _sinh_gaussian.  Returns (masses, error_estimates,
    integrand evaluations).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    alphas = np.asarray(alphas, dtype=float)
    budget = _tail_budget(spec.relative_tolerance)

    def integrand(x, alpha):
        S, _, log_w = _sinh_gaussian(n - 1, alpha, x, budget)
        return S * np.exp(log_w)

    values, errors, evals = gauss_kronrod_batch(integrand, alphas, spec)
    c = n * ball_volume_constant(n) / np.sqrt(alphas)
    return c * values, c * errors, evals


def hyperbolic_gaussian_moments(
    n: int, alphas, betas, spec: QuadratureSpec = QuadratureSpec()
) -> tuple[np.ndarray, np.ndarray, int]:
    """The uncertainty moments of u = e^(-alpha rho^2 - beta rho) on the curvature -1 model.

    A = int (u')^2, M = int rho^2 u^2 and L = int u^2 against the volume
    n omega_n sinh^(n-1)(rho) d rho, for every (alpha, beta) of the
    broadcast of alphas and betas (alpha > 0, beta >= 0).  u^2 is the
    gaussian e^(-2 alpha rho^2) times e^(-2 beta rho) <= 1, so the three
    integrals are taken in s = rho sqrt(2 alpha) on the tail cut of
    _sinh_gaussian for the rate 2 alpha, all on one set of nodes.  Returns
    (moments, error_estimates, integrand evaluations); moments[0], [1] and
    [2] are A, M and L, each of the broadcast shape.
    """
    alphas, betas = np.broadcast_arrays(
        np.asarray(alphas, dtype=float), np.asarray(betas, dtype=float)
    )
    if n < 1 or np.any(alphas <= 0) or np.any(betas < 0):
        raise ValueError("need n >= 1, alpha > 0 and beta >= 0")
    budget = _tail_budget(spec.relative_tolerance)

    def integrand(x, p):
        alpha, beta = p[..., 0], p[..., 1]
        S, rho, log_w = _sinh_gaussian(n - 1, 2 * alpha, x, budget)
        u2 = S * np.exp(log_w - 2 * beta * rho)
        return np.stack([(2 * alpha * rho + beta) ** 2 * u2, rho * rho * u2, u2])

    def describe(p):
        return f"(alpha, beta) = ({p[0]!r}, {p[1]!r}) for n = {n}"

    grid = np.stack([alphas.ravel(), betas.ravel()], axis=1)
    values, errors, evals = gauss_kronrod_batch(integrand, grid, spec, describe)
    c = n * ball_volume_constant(n) / np.sqrt(2 * grid[:, 0])
    shape = (3,) + alphas.shape
    return (c * values).reshape(shape), (c * errors).reshape(shape), evals


def monte_carlo_integral(
    integrand: Callable[[np.ndarray], np.ndarray],
    box: Sequence[tuple[float, float]],
    spec: QuadratureSpec = QuadratureSpec(),
) -> IntegralResult:
    """Box-volume times sample mean, with a standard-error estimate.

    integrand maps an (m, n) array of points to m values.  Philox is
    counter-based, so the stream depends only on the seed and sample index.
    """
    box = [(float(a), float(b)) for a, b in box]
    n = len(box)
    vol = math.prod(b - a for a, b in box)
    rng = np.random.Generator(np.random.Philox(key=spec.mc_seed))
    lo = np.array([a for a, _ in box])
    span = np.array([b - a for a, b in box])

    total = spec.mc_samples
    s, s2, done = 0.0, 0.0, 0
    batch = 1 << 16
    while done < total:
        m = min(batch, total - done)
        pts = lo + span * rng.random((m, n))
        vals = np.asarray(integrand(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("non-finite integrand sample in Monte Carlo")
        s += float(vals.sum())
        s2 += float((vals**2).sum())
        done += m
    mean = s / total
    var = max(s2 / total - mean**2, 0.0)
    stderr = vol * math.sqrt(var / total)
    return IntegralResult(vol * mean, stderr, total)


def fd_derivative(f: Callable[[float], float], lam: float, rel_step: float = 1e-5) -> float:
    """Central difference with one Richardson extrapolation step."""
    h = rel_step * abs(lam) if lam != 0 else rel_step

    def central(step: float) -> float:
        return (f(lam + step) - f(lam - step)) / (2 * step)

    d1 = central(h)
    d2 = central(h / 2)
    out = (4 * d2 - d1) / 3
    if not math.isfinite(out):
        raise QuadratureError("non-finite evaluation in finite difference")
    return out
