"""Deterministic integration of radial profiles on [0, oo).

Adaptive Gauss-Kronrod panels on a split domain with a rational tail
transform, a vectorised composite Gauss-Kronrod rule over a whole parameter
grid at once, n-dimensional Monte Carlo cross-validation with a
counter-based generator, and Richardson-extrapolated finite differences.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

import numpy as np

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

    radial_integral (G7/K15) and gauss_kronrod_batch (G10/K21) run two
    Gauss-Kronrod tables under one acceptance rule: a value is accepted only
    when its summed estimate sum |K - G| is at most relative_tolerance x |value|.
    """

    relative_tolerance: float = 1e-9
    mc_samples: int = 1 << 20
    mc_seed: int = 0x5EED

    def __post_init__(self):
        if not (math.isfinite(self.relative_tolerance) and self.relative_tolerance > 0):
            raise ValueError(
                f"relative tolerance must be finite and positive, got {self.relative_tolerance!r}"
            )
        if self.mc_samples < (1 << 10):
            raise ValueError("mc_samples must be >= 2^10")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    nodes_used: int
    truncation: float = math.inf


# the panel cap of radial_integral and of gauss_kronrod_batch
_MAX_SUBINTERVALS = 600

# e^(-x) underflows to 0.0 once x passes about 745
_LOG_UNDERFLOW = 745.0


def _gauss_kronrod_table(xgk, wgk, wg):
    """A QUADPACK Gauss-Kronrod rule on [-1, 1] from its half-tables.

    xgk holds the Kronrod nodes from 1 down to the centre, wgk their weights
    and wg the weights of the embedded Gauss rule, whose nodes are every
    second one, xgk[1], xgk[3], ...  Returns the nodes in ascending order,
    their Kronrod weights and their Gauss weights (0 where Gauss has no node).
    """
    gauss = np.zeros(len(xgk))
    gauss[1::2] = wg

    def mirror(half, sign=1.0):
        half = np.asarray(half, dtype=float)
        return np.concatenate([sign * half[:-1], half[::-1]])

    return mirror(xgk, -1.0), mirror(wgk), mirror(gauss)


# QUADPACK qk15 (G7/K15), the rule of radial_integral
_GK15_NODES, _GK15_KRONROD, _GK15_GAUSS = _gauss_kronrod_table(
    [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
     0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
     0.207784955007898467600689403773245, 0.0],
    [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
     0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
     0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
     0.204432940075298892414161999234649, 0.209482141084727828012999174891714],
    [0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
     0.381830050505118944950369775488975, 0.417959183673469387755102040816327],
)
# QUADPACK qk21 (G10/K21), the rule of gauss_kronrod_batch, whose integrands
# are smooth on [0, 1]; the centre is a Kronrod node only
_GK21_NODES, _GK21_KRONROD, _GK21_GAUSS = _gauss_kronrod_table(
    [0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
     0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
     0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
     0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
     0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0],
    [0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
     0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
     0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
     0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
     0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
     0.149445554002916905664936468389821],
    [0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
     0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
     0.295524224714752870173892994651338],
)
# columns K and K - G: one product of a panel's 21 values gives its Kronrod
# sum and its Kronrod-minus-Gauss difference
_GK21_WEIGHTS = np.stack([_GK21_KRONROD, _GK21_KRONROD - _GK21_GAUSS], axis=1)
# G7/K15 as Python floats, for the scalar integrands of radial_integral, in
# the order QUADPACK's qk15 evaluates it (the centre, the Gauss pairs, the
# Kronrod pairs): a profile that overflows is named at the first node it
# overflows at in that order
_ORDER = [7, 1, 13, 3, 11, 5, 9, 0, 14, 2, 12, 4, 10, 6, 8]
_NODE_LIST = _GK15_NODES[_ORDER].tolist()
_NODE_COUNT = len(_NODE_LIST)
_OUTER_NODE = float(_GK15_NODES[-1])
_KRONROD_LIST = _GK15_KRONROD[_ORDER].tolist()
_DIFF_LIST = (_GK15_KRONROD - _GK15_GAUSS)[_ORDER].tolist()


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

    weight is ('power', k) or ('sinh-power', k).  The domain
    is split at 1 and at every breakpoint up to its end: the truncation
    radius T, or for algebraic decay the larger of 1 and the last breakpoint.
    Unless the decay is compact, the tail past the end is mapped onto [0, 1)
    by rho = end + t/(1 - t).  The rule is G7/K15, globally adaptive over all
    pieces (_adaptive_gk15); error_estimate is the summed |K - G| of every
    panel, at most relative_tolerance x |value|, and nodes_used counts
    integrand evaluations.  QuadratureError names its cause: the
    _MAX_SUBINTERVALS cap, a panel too narrow to bisect in floating point, a
    tail node that rounds to t = 1.0, or a piece whose integral leaves the
    float range.  Against ('sinh-power', k), a gaussian profile of rate a
    underflows to 0.0 at rho_u = sqrt(745/a) while f sinh^k may still hold
    mass there; QuadratureError is raised when e^(-a rho^2 + k rho) at rho_u,
    relative to its peak at rho = k/(2a), exceeds relative_tolerance.  A
    compact profile of support radius R is evaluated at R (1 + 2^-20), 1.5 R
    and 2 R, and QuadratureError is raised if it is nonzero at any of them.
    """
    kind, k = weight
    if kind not in ("power", "sinh-power"):
        raise ValueError(f"unknown weight {weight!r}")
    sinh = kind == "sinh-power"
    # e^(k rho) dominates sinh^k at infinity; a power grows slower than any e^(g rho)
    T = _truncation_radius(f.decay, float(k) if sinh else 0.0, spec.relative_tolerance)
    if sinh and f.decay.kind == "gaussian":
        a = f.decay.rate
        rho_u = math.sqrt(_LOG_UNDERFLOW / a)
        if -a * rho_u**2 + k * rho_u - k * k / (4 * a) > math.log(spec.relative_tolerance):
            raise QuadratureError(
                f"gaussian profile of rate {a!r} underflows to 0 at rho={rho_u!r}, "
                f"where f sinh^{k} still carries mass above the tolerance"
            )
    if f.decay.kind == "compact":
        R = f.decay.support_radius
        for r in (R * (1 + 2.0**-20), 1.5 * R, 2 * R):
            v = f.evaluator(r)
            if v != 0.0:
                raise QuadratureError(
                    f"profile declared compact on [0, {R!r}] is {v!r} at rho={r!r}"
                )

    ev = f.evaluator

    def g(r: float) -> float:
        try:
            v = ev(r)
        except OverflowError:
            raise QuadratureError(f"profile exceeds the float range at rho={r!r}") from None
        try:
            return v * (math.sinh(r) ** k if sinh else r**k)
        except OverflowError:
            if not sinh:
                # a power weight overflows only far out in the mapped tail,
                # where the true product has underflowed
                return 0.0
        # sinh^k alone overflows while f sinh^k may still be large (small
        # gaussian rates), so form the product in log space:
        # log sinh rho = rho + log(1 - e^(-2 rho)) - log 2
        if v == 0.0:
            return 0.0
        log_w = k * (r + math.log1p(-math.exp(-2 * r)) - math.log(2))
        try:
            return math.copysign(math.exp(math.log(abs(v)) + log_w), v)
        except OverflowError:
            raise QuadratureError(f"integrand exceeds the float range at rho={r!r}") from None

    interior = {b for b in f.breakpoints if 0 < b < T}
    end = T if math.isfinite(T) else max({1.0} | interior)
    cuts = sorted({0.0, min(1.0, end), end} | interior)
    tail = f.decay.kind != "compact"
    total, err, nodes = _adaptive_gk15(g, cuts, tail, spec.relative_tolerance)
    return IntegralResult(total, err, nodes, truncation=T)


def _adaptive_gk15(g: Callable[[float], float], cuts: list, tail: bool, tol: float):
    """Globally adaptive G7/K15 for radial_integral: g over [cuts[0], cuts[-1]].

    The pieces are the intervals between cuts and, if tail, the tail past
    end = cuts[-1] mapped onto t in [0, 1) by rho = end + t/(1 - t),
    d rho = dt/(1 - t)^2.  Every piece starts as its two halves; while the
    summed |K - G| of all panels exceeds tol x |sum of K|, the panel with the
    largest |K - G| is bisected.  Returns (value, error estimate, integrand
    evaluations).
    """
    pieces = list(zip(cuts, cuts[1:]))
    if tail:
        pieces.append((0.0, 1.0))
    end, last = cuts[-1], len(cuts) - 1 if tail else -1
    panels = []  # a heap of (-|K - G|, piece, a, b, K)
    value = error = 0.0
    evals = 0

    def where(i: int, a: float, b: float) -> str:
        if i == last:  # the tail, in rho
            a, b = end + a / (1.0 - a), (end + b / (1.0 - b) if b < 1.0 else math.inf)
        return f"rho in [{a!r}, {b!r}]"

    def add(i: int, a: float, b: float) -> None:
        nonlocal value, error, evals
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        if i == last:
            v = [g(end + t / (1.0 - t)) / (1.0 - t) ** 2 for t in [c + h * x for x in _NODE_LIST]]
        else:
            v = [g(c + h * x) for x in _NODE_LIST]
        k, e = h * sum(map(mul, _KRONROD_LIST, v)), abs(h * sum(map(mul, _DIFF_LIST, v)))
        evals += _NODE_COUNT
        if not math.isfinite(k):
            total = math.fsum([p[4] for p in panels if p[1] == i] + [k])
            raise QuadratureError(
                f"integral over {where(i, *pieces[i])} is {total!r}: outside the float range"
            )
        heapq.heappush(panels, (-e, i, a, b, k))
        value += k
        error += e

    for i, (lo, hi) in enumerate(pieces):
        add(i, lo, 0.5 * (lo + hi))
        add(i, 0.5 * (lo + hi), hi)
    while True:
        if error <= tol * abs(value):
            # the running sums drift; accept on the exact ones
            value = math.fsum(p[4] for p in panels)
            error = math.fsum(-p[0] for p in panels)
            if error <= tol * abs(value):
                return value, error, evals
        minus_e, i, a, b, k = panels[0]
        mid = 0.5 * (a + b)
        if len(panels) >= _MAX_SUBINTERVALS:
            cause = f"with {len(panels)} panels, the worst at {where(i, a, b)}"
        elif not a < mid < b:
            cause = f"at {where(i, a, b)}: the panel cannot be bisected in floating point"
        elif i == last and 0.5 * (mid + b) + 0.5 * (b - mid) * _OUTER_NODE >= 1.0:
            cause = f"at {where(i, a, b)}: a node of its right half rounds to t = 1.0"
        else:
            heapq.heappop(panels)
            value -= k
            error += minus_e
            add(i, a, mid)
            add(i, mid, b)
            continue
        raise QuadratureError(
            f"requested tolerance {tol!r} not met {cause}: value={value!r}, error={error!r}"
        )


def _volume_integral(f: RadialProfile, weight, n: int, spec: QuadratureSpec) -> IntegralResult:
    """n omega_n times radial_integral(f, weight, spec)."""
    base = radial_integral(f, weight, spec)
    c = n * ball_volume_constant(n)
    return IntegralResult(c * base.value, c * base.error_estimate, base.nodes_used, base.truncation)


def flat_radial_volume_integral(
    f: RadialProfile, n: int, spec: QuadratureSpec = QuadratureSpec()
) -> IntegralResult:
    """Busemann-Hausdorff integral of x -> f(F(x - x0)) over flat n-space.

    Equals n omega_n * int f(rho) rho^(n-1) d rho for every reversible norm;
    norm-independence is the contract.
    """
    return _volume_integral(f, ("power", n - 1), n, spec)


def hyperbolic_radial_volume_integral(
    f: RadialProfile, n: int, spec: QuadratureSpec = QuadratureSpec()
) -> IntegralResult:
    """Integral over the curvature -1 ball model: n omega_n * int f sinh^(n-1)."""
    return _volume_integral(f, ("sinh-power", n - 1), n, spec)


_FIRST_PANELS = 4
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
    the same nodes.  The rule is composite G10/K21 (QUADPACK qk21) on
    _FIRST_PANELS equal panels: every integrand the package batches is
    smooth on [0, 1], where this rule meets the tolerance on fewer nodes than
    G7/K15.  A panel's
    Kronrod sum K and its difference K - G from the embedded Gauss rule come
    from one product of its 21 values with the (21, 2) matrix of Kronrod and
    Kronrod-minus-Gauss weights.  Every integral carries its own error
    estimate, the sum over panels of |K - G|, under radial_integral's
    acceptance rule; the panel count is doubled only for the parameters with
    an estimate above relative_tolerance * |value|, up to _MAX_SUBINTERVALS
    panels, the cap radial_integral has too.  A value depends only on
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
        x = ((np.arange(panels)[:, None] + 0.5) / panels + half * _GK21_NODES).ravel()
        weights = half * _GK21_WEIGHTS
        rows = max(1, _BLOCK_VALUES // x.size)
        # values outside the float range are caught below, with their parameter
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, todo.size, rows):
                idx = todo[start:start + rows]
                f = integrand(x, params[idx, None])
                if values is None:
                    values = np.empty(f.shape[:-2] + (count,))
                    errors = np.empty(values.shape)
                # K and K - G of every panel of the block in one product
                kd = (f.reshape(-1, _GK21_NODES.size) @ weights).reshape(
                    f.shape[:-2] + (idx.size, panels, 2))
                values[..., idx] = kd[..., 0].sum(axis=-1)
                errors[..., idx] = np.abs(kd[..., 1]).sum(axis=-1)
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
        if 2 * panels > _MAX_SUBINTERVALS:
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
    The integral in rho is int_0^1 S e^(log) dx / sqrt(rate).  The node
    arrays are fresh, so callers may overwrite them.
    """
    root = np.sqrt(rate)
    g = m / root
    S = (g + np.sqrt(g * g + 4 * budget)) / 2
    s = S * x
    t = s / root
    # log sinh t = t + log(1 - e^(-2t)) - log 2: the operations of
    # m (t + log(-expm1(-2t)) - log 2) - s s, in order, in one buffer
    log_w = np.multiply(-2, t)
    np.expm1(log_w, out=log_w)
    np.negative(log_w, out=log_w)
    np.log(log_w, out=log_w)
    np.add(t, log_w, out=log_w)
    np.subtract(log_w, math.log(2), out=log_w)
    np.multiply(m, log_w, out=log_w)
    np.subtract(log_w, np.multiply(s, s, out=s), out=log_w)
    return S, t, log_w


def hyperbolic_gaussian_masses(
    n: int, alphas: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> tuple[np.ndarray, np.ndarray, int]:
    """n omega_n int e^(-alpha rho^2) sinh^(n-1)(rho) d rho for every alpha.

    The batched counterpart of hyperbolic_radial_volume_integral for the
    gaussian e^(-alpha rho^2), integrated in s = rho sqrt(alpha) up to the
    tail cut of _sinh_gaussian, on gauss_kronrod_batch's G10/K21 rule and
    under the acceptance rule of radial_integral's G7/K15.  Returns (masses,
    error_estimates, integrand evaluations).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    alphas = np.asarray(alphas, dtype=float)
    budget = _tail_budget(spec.relative_tolerance)

    def integrand(x, alpha):
        S, _, w = _sinh_gaussian(n - 1, alpha, x, budget)
        np.exp(w, out=w)
        return np.multiply(S, w, out=w)

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
        S, rho, w = _sinh_gaussian(n - 1, 2 * alpha, x, budget)
        out = np.empty((3,) + w.shape)
        # u^2 = S e^(log_w - 2 beta rho), rho^2 u^2 and (2 alpha rho + beta)^2 u^2,
        # operation by operation, in the rows of out
        np.subtract(w, np.multiply(2 * beta, rho, out=out[0]), out=w)
        np.exp(w, out=w)
        u2 = np.multiply(S, w, out=out[2])
        np.multiply(np.multiply(rho, rho, out=out[1]), u2, out=out[1])
        A = np.multiply(2 * alpha, rho, out=out[0])
        np.add(A, beta, out=A)
        np.multiply(A, A, out=A)
        np.multiply(A, u2, out=A)
        return out

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

    integrand maps an (m, n) array of points to m values, or to a (q, m)
    array holding q integrands on the same points; value and error_estimate
    are then arrays of q.  Philox is counter-based, so the stream depends
    only on the seed and sample index.
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
        s += vals.sum(axis=-1)
        s2 += (vals**2).sum(axis=-1)
        done += m
    mean = s / total
    # float_power is libm pow, as mean**2 of a float; numpy squares arrays by x*x
    var = np.maximum(s2 / total - np.float_power(mean, 2), 0.0)
    value, stderr = vol * mean, vol * np.sqrt(var / total)
    if np.ndim(value) == 0:
        value, stderr = float(value), float(stderr)
    return IntegralResult(value, stderr, total)


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
