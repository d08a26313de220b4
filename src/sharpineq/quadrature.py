"""Deterministic integration of radial profiles on [0, oo).

Two globally adaptive Gauss-Kronrod loops on a split domain, which share
one panel guard and QUADPACK's split of its rules: qags' G10/K21 (qk21) on
every finite piece and qagi's G7/K15 (qk15) on a rational tail.  One takes
q integrands of one report on one mesh in Python floats, one call per
bisection for the columns of its 42 radii (30 on the tail), the tail mapped
by rho = end + t/(1 - t), where a slowly decaying profile is singular at
t = 1 and qk15 stops with a named error where qk21's estimate can miss
(radial_integrals, and radial_integral, its one-row case); the other takes
passes of q numpy row integrands in lockstep, [0, 1] and the tail past 1 in
graded variables, rho = x^2 and rho = (1 - x)^-2, both finite pieces on
qk21, each round one call for the nodes, of shape (k, 2, 21), of one
bisection of every pass still refining (radial_integral_rows); a
vectorised composite G10/K21 rule over a whole parameter grid at once,
which takes the gaussian rows of the ball in s = rho sqrt(rate), each
parameter on its own cut (gaussian_integrals), and the smooth piece of flat
space's Hardy sharpness sweep (flat space's gaussian moments are Gamma
values, which flat.py takes in closed form); the gaussian masses on the
ball as a positive series in 1/alpha and its ball volumes as one in
rho^2, both from the exact Taylor coefficients of (sinh y / y)^k,
n-dimensional Monte Carlo cross-validation with a counter-based generator,
and Richardson-extrapolated finite differences.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from operator import add, mul, sub
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .norms import ball_volume_constant

__all__ = [
    "DecayClass",
    "RadialProfile",
    "QuadratureSpec",
    "IntegralResult",
    "QuadratureError",
    "radial_integral",
    "radial_integrals",
    "radial_integral_rows",
    "flat_radial_volume_integral",
    "hyperbolic_radial_volume_integral",
    "gauss_kronrod_batch",
    "gaussian_integrals",
    "hyperbolic_gaussian_masses",
    "hyperbolic_gaussian_moments",
    "monte_carlo_integral",
    "fd_derivative",
]


class QuadratureError(RuntimeError):
    """Tolerance not met, or an integrand or integral outside the float range."""


def _checked_parameters(name: str, values, zero: bool = False) -> np.ndarray:
    """values as a float array, each positive (with zero, at least 0) and finite,
    or else a ValueError naming the parameter and its first bad value."""
    values = np.asarray(values, dtype=float)
    if values.size and not ((values.min() >= 0 if zero else values.min() > 0) and values.max() < math.inf):
        ok = (values >= 0 if zero else values > 0) & (values < math.inf)
        rule = "finite and >= 0" if zero else "positive and finite"
        raise ValueError(f"{name} must be {rule}, got {name} = {float(values[~ok].flat[0])!r}")
    return values


def _gaussian_rates(name: str, values) -> np.ndarray:
    """2 values, the rate of u^2 for u = e^(-value rho^2), each value checked
    by _checked_parameters, or else a ValueError naming the first value whose
    rate overflows."""
    values = _checked_parameters(name, values)
    with np.errstate(over="ignore"):
        rates = 2 * values
    if rates.size and rates.max() == math.inf:
        bad = float(values[rates == math.inf].flat[0])
        raise ValueError(f"{name} = {bad!r} is too large: the rate 2 {name} overflows")
    return rates


def _normal_floats(values, params, describe: Callable[[object], str]) -> None:
    """A QuadratureError unless every integral of values is a normal float.

    values holds one entry per parameter of params, an integral or a
    sequence of them (shape (N,) or (N, q)); the error counts the
    parameters with an integral that is zero, subnormal or not finite, and
    names the first by describe(params[i]), a float or a list.
    """
    size = np.abs(np.asarray(values, dtype=float))
    if size.size and not (size.min() >= _TINY and size.max() < math.inf):
        _name_failures((size >= _TINY) & (size < math.inf), params, describe, "integral outside the normal floats")


def _ratio_terms(A, M, masses, params, describe: Callable[[object], str]) -> None:
    """A QuadratureError unless every uncertainty ratio A M / L^2 divides normal floats.

    A and M hold one integral per parameter of params, and masses one
    sequence of such integrals per mass L the ratios divide by, all normal
    Python floats, whose products round to a subnormal, 0 or inf without an
    error or warning.  The text is _normal_floats' with "product or squared
    mass of an uncertainty ratio outside the float range", the range of the
    normal floats: an A M or L^2 below it has lost digits to underflow, and
    one that is 0 or overflows would make the ratio 0, inf or nan.
    """
    terms = [list(map(mul, A, M)), *(list(map(mul, L, L)) for L in masses)]
    if not all(all(map(_TINY.__le__, t)) and all(map(math.inf.__gt__, t)) for t in terms):
        ok = np.array([[_TINY <= x < math.inf for x in t] for t in terms]).all(axis=0)
        _name_failures(ok, params, describe, "product or squared mass of an uncertainty ratio outside the float range")


def _name_failures(ok: np.ndarray, params, describe: Callable[[object], str], what: str) -> None:
    """A QuadratureError unless ok, one row per parameter of params, holds everywhere."""
    bad = np.flatnonzero(~ok.all(axis=tuple(range(1, ok.ndim))))
    if bad.size:
        raise QuadratureError(
            f"{what} at {bad.size} of {len(ok)} parameters, "
            f"first at {describe(np.asarray(params, dtype=float)[bad[0]].tolist())}"
        )


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

    radial_integral (G10/K21, G7/K15 on its mapped tail),
    radial_integral_rows and gauss_kronrod_batch (G10/K21) run two
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
# the least positive normal float, the floor of a row's |value| in a key
_TINY = float(np.finfo(float).tiny)


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


# QUADPACK qk15 (G7/K15), the rule of radial_integral's mapped tail
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
# QUADPACK qk21 (G10/K21), the rule of gauss_kronrod_batch, of every finite
# piece of radial_integral and of both graded pieces of radial_integral_rows;
# the centre is a Kronrod node only
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


@dataclass(frozen=True)
class _Rule:
    """A Gauss-Kronrod rule of the adaptive loops as Python floats, in the
    order QUADPACK's qk15 and qk21 evaluate it (the centre, the Gauss pairs
    from the outside in, then the Kronrod pairs): a profile that overflows is
    named at the first node it overflows at in that order.  outer is the
    largest node, the one nearest a panel's right end."""

    nodes: list
    kronrod: list
    diff: list
    outer: float

    @staticmethod
    def of(nodes: np.ndarray, kronrod: np.ndarray, gauss: np.ndarray) -> "_Rule":
        size = nodes.size
        c = size // 2
        # node xgk(m) of QUADPACK's half-table (1 from the outside) and its mirror
        pairs = [i for m in [*range(2, c + 1, 2), *range(1, c + 1, 2)] for i in (m - 1, size - m)]
        order = [c, *pairs]
        diff = kronrod - gauss
        return _Rule(nodes[order].tolist(), kronrod[order].tolist(), diff[order].tolist(), float(nodes[-1]))


# qk21 on every finite piece, qk15 on radial_integral's rational tail, as
# QUADPACK's qags and qagi take them: under rho = end + t/(1 - t) a profile
# that decays slower than rho^-2 is singular at t = 1, where qk21's estimate
# can fall short of its error (int rho^-1/2 / (1 + rho) = pi at 1e-9 returns
# 1.0e-8 off with an estimate of 3.1e-9) and qk15 stops with a named error
_QK21 = _Rule.of(_GK21_NODES, _GK21_KRONROD, _GK21_GAUSS)
_QK15 = _Rule.of(_GK15_NODES, _GK15_KRONROD, _GK15_GAUSS)
# qk21 for the row integrands of radial_integral_rows: its nodes in that
# order, and the (21, 2) matrix of Kronrod and Kronrod-minus-Gauss weights
# that gives both sums of a panel in one product
_NODES = np.array(_QK21.nodes)
_ROW_WEIGHTS = np.stack([_QK21.kronrod, _QK21.diff], axis=1)


def _tail_budget(tol: float) -> float:
    """Log-decay an integrand must reach before its tail counts as negligible."""
    return max(-math.log(tol), 25.0) + 15.0


def _truncation_radius(decay: DecayClass, growth: float, tol: float) -> float:
    """Radius past which the integrand tail is negligible at the requested tolerance.

    For gaussian decay, the T with a T^2 - growth T = budget, where
    e^(-a rho^2 + growth rho) has fallen by e^(-budget); the mapped tail past
    T is still integrated, so T only places a cut.
    """
    budget = _tail_budget(tol)
    if decay.kind == "compact":
        return decay.support_radius
    if decay.kind == "gaussian":
        a = decay.rate
        if a <= 0:
            raise QuadratureError("gaussian decay needs a positive rate")
        return (growth + math.sqrt(growth**2 + 4 * a * budget)) / (2 * a)
    if growth > 0:
        raise QuadratureError(
            "algebraic decay cannot beat exponential volume growth; "
            "gaussian decay is mandatory against sinh weights"
        )
    return math.inf


def radial_integral(f: RadialProfile, weight, spec: QuadratureSpec = QuadratureSpec()) -> IntegralResult:
    """Integral of f(rho) w(rho) over [0, oo): radial_integrals with the one row f."""
    ev = f.evaluator

    def column(rs, ws):
        return [[ev(r) * w for r, w in zip(rs, ws)]]

    return radial_integrals(column, [f.decay], weight, spec, f.breakpoints)[0]


def radial_integrals(
    columns: Callable,
    decays: Sequence[DecayClass],
    weight,
    spec: QuadratureSpec = QuadratureSpec(),
    breakpoints: Sequence[float] = (),
) -> list[IntegralResult]:
    """Integrals of q rows times w(rho) over [0, oo), on one adaptive mesh.

    columns(rs, ws) maps a list of radii and the weights w(rho) there to q
    lists: the values of the rows at rs, each times ws.  decays holds the
    decay class of every row, and weight is ('power', k) or
    ('sinh-power', k).  The domain is split at 1 and at every breakpoint up
    to its end: the largest truncation radius T of the rows, or for
    algebraic decay the larger of 1 and the last breakpoint.  Unless the
    decay is compact, the tail past the end is mapped onto [0, 1) by
    rho = end + t/(1 - t).  The rule is G10/K21 on the finite pieces and
    G7/K15 on the tail, globally adaptive over all pieces (_adaptive_gk),
    one call of columns per bisection, the panel
    bisected next the one of largest row |K - G| relative to that row's
    value, for one row as for q.  A row's
    error_estimate is its summed |K - G| over every panel, at most
    relative_tolerance x |value|; nodes_used counts the radii evaluated.
    The weights are taken once per radius.  Where sinh^k overflows, a row
    value times it is formed in log space, since it may still be large (small
    gaussian rates); where rho^k overflows (far out in the mapped tail, where
    the true product has underflowed) it is 0.0.

    QuadratureError names its cause: the _MAX_SUBINTERVALS cap, a panel too
    narrow to bisect in floating point, a tail node that rounds to t = 1.0,
    a row whose integral over a piece leaves the float range, or the first
    node, one radius at a time in evaluation order, where columns raises
    OverflowError or a log-space product overflows.  Against
    ('sinh-power', k), a gaussian row of rate a underflows to 0.0 at
    rho_u = sqrt(745/a) while its product with sinh^k may still hold mass
    there; QuadratureError is raised when e^(-a rho^2 + k rho) at rho_u,
    relative to its peak at rho = k/(2a), exceeds relative_tolerance.  A
    compact row of support radius R is evaluated at R (1 + 2^-20), 1.5 R and
    2 R, and QuadratureError is raised if it is nonzero at any of them.
    Returns one IntegralResult per row.
    """
    kind, k = weight
    if kind not in ("power", "sinh-power"):
        raise ValueError(f"unknown weight {weight!r}")
    sinh = kind == "sinh-power"
    tol = spec.relative_tolerance
    # e^(k rho) dominates sinh^k at infinity; a power grows slower than any e^(g rho)
    growth = float(k) if sinh else 0.0
    T, tail, probed = 0.0, False, {}
    for j, d in enumerate(decays):
        T = max(T, _truncation_radius(d, growth, tol))
        tail = tail or d.kind != "compact"
        if sinh and d.kind == "gaussian":
            a = d.rate
            rho_u = math.sqrt(_LOG_UNDERFLOW / a)
            if -a * rho_u**2 + k * rho_u - k * k / (4 * a) > math.log(tol):
                raise QuadratureError(
                    f"gaussian profile of rate {a!r} underflows to 0 at rho={rho_u!r}, "
                    f"where f sinh^{k} still carries mass above the tolerance"
                )
        if d.kind == "compact":
            R = d.support_radius
            rs = [R * (1 + 2.0**-20), 1.5 * R, 2 * R]
            if R not in probed:
                probed[R] = columns(rs, [1.0] * 3)
            for r, v in zip(rs, probed[R][j]):
                if v != 0.0:
                    raise QuadratureError(f"profile declared compact on [0, {R!r}] is {v!r} at rho={r!r}")

    def weights(rs: list) -> tuple:
        """w(rho) at every radius, and the indices where it overflows (1.0 there)."""
        try:
            return [math.sinh(r) ** k for r in rs] if sinh else [r**k for r in rs], ()
        except OverflowError:
            pass
        ws, big = [], []
        for i, r in enumerate(rs):
            try:
                ws.append(math.sinh(r) ** k if sinh else r**k)
            except OverflowError:
                ws.append(1.0)
                big.append(i)
        return ws, big

    def beyond(v: float, r: float) -> float:
        """v w(rho) where w(rho) overflows: log sinh rho = rho + log(1 - e^(-2 rho)) - log 2."""
        if not sinh or v == 0.0:
            return 0.0
        log_w = k * (r + math.log1p(-math.exp(-2 * r)) - math.log(2))
        try:
            return math.copysign(math.exp(math.log(abs(v)) + log_w), v)
        except OverflowError:
            raise QuadratureError(f"integrand exceeds the float range at rho={r!r}") from None

    def node(r: float) -> list:
        """The rows at r alone, or QuadratureError if columns overflows there."""
        ws, big = weights([r])
        try:
            rows = columns([r], ws)
        except OverflowError:
            raise QuadratureError(f"profile exceeds the float range at rho={r!r}") from None
        return [beyond(v, r) if big else v for (v,) in rows]

    def cols(rs: list) -> list:
        ws, big = weights(rs)
        try:
            rows = columns(rs, ws)
        except OverflowError:
            # one radius at a time, to name the first that overflows
            return [list(row) for row in zip(*map(node, rs))]
        for i in big:
            for row in rows:
                row[i] = beyond(row[i], rs[i])
        return rows

    interior = {b for b in breakpoints if 0 < b < T}
    end = T if math.isfinite(T) else max({1.0} | interior)
    cuts = sorted({0.0, min(1.0, end), end} | interior)
    values, errors, nodes = _adaptive_gk(cols, cuts, tail, tol)
    return [IntegralResult(v, e, nodes, truncation=T) for v, e in zip(values, errors)]


def _in_rho(a: float, b: float, rho: Optional[Callable[[float], float]]) -> str:
    """The panel [a, b] as text in rho: rho maps a mapped piece's variable back (None on an unmapped piece)."""
    if rho is not None:
        a, b = rho(a), rho(b)
    return f"rho in [{a!r}, {b!r}]"


def _stuck(panels: int, a: float, b: float, rho: Optional[Callable[[float], float]], outer: float) -> Optional[str]:
    """Why the worst of panels panels, [a, b] (rho as for _in_rho), cannot be
    bisected, or None; outer is the largest node of the rule on its piece."""
    mid = 0.5 * (a + b)
    if panels >= _MAX_SUBINTERVALS:
        return f"with {panels} panels, the worst at {_in_rho(a, b, rho)}"
    if not a < mid < b:
        return f"at {_in_rho(a, b, rho)}: the panel cannot be bisected in floating point"
    # a tail maps t = 1 to rho = oo, where no node may lie
    if rho is not None and 0.5 * (mid + b) + 0.5 * (b - mid) * outer >= 1.0 and rho(1.0) == math.inf:
        return f"at {_in_rho(a, b, rho)}: a node of its right half rounds to t = 1.0"
    return None


def _adaptive_gk(cols: Callable, cuts: list, tail: bool, tol: float) -> tuple[list, list, int]:
    """Globally adaptive Gauss-Kronrod for q rows on one mesh: over [cuts[0], cuts[-1]], and past it if tail.

    The pieces are the intervals between cuts, on G10/K21 (_QK21), and, if
    tail, the tail past end = cuts[-1] mapped onto t in [0, 1) by
    rho = end + t/(1 - t), d rho = dt/(1 - t)^2, on G7/K15 (_QK15), as
    QUADPACK's qags and qagi split them.  Every piece starts as its two
    halves.  While a row's summed |K - G| exceeds tol x |its sum of K|, the
    panel of largest key is bisected, until _stuck names a cause, whose
    text prints the values and estimates as lists of q.  The key is the
    panel's largest row |K - G| relative to that row's |value| after the
    first sweep; for one row that is its |K - G| times one positive number,
    so its panels are bisected in the order of the plain |K - G| (ties of
    rounding aside).  A
    call whose first sweep meets the rule returns before any panel is keyed.
    A bisection is one call cols(rs) on the radii of both halves, the left
    first, each in QUADPACK's node order of its piece's rule, which returns
    q lists of values.  Returns (values, error estimates, radii evaluated),
    the first two lists of q.
    """
    pieces = list(zip(cuts, cuts[1:]))
    rules = [_QK21] * len(pieces)
    if tail:
        pieces.append((0.0, 1.0))
        rules.append(_QK15)
    end, last = cuts[-1], len(cuts) - 1 if tail else -1

    def past_end(t: float) -> float:
        """rho of the tail's t."""
        return end + t / (1.0 - t) if t < 1.0 else math.inf

    heap = []  # (-key, piece, a, b, K of every row, |K - G| of every row)

    def bisect(i: int, a: float, b: float) -> tuple:
        """(mid, Ks and |K - G|s of [a, mid], Ks and |K - G|s of [mid, b]) of the panel [a, b] of piece i."""
        mid, rule = 0.5 * (a + b), rules[i]
        cl, cr, hl, hr = 0.5 * (a + mid), 0.5 * (mid + b), 0.5 * (mid - a), 0.5 * (b - mid)
        xs = [c + h * x for c, h in ((cl, hl), (cr, hr)) for x in rule.nodes]
        if i == last:
            rows = [[v / (1.0 - t) ** 2 for v, t in zip(row, xs)] for row in cols([end + t / (1.0 - t) for t in xs])]
        else:
            rows = cols(xs)
        kl, el, kr, er = [], [], [], []
        for v in rows:
            # map stops at the rule's weights, so v gives the left half
            w = v[len(rule.nodes):]
            kl.append(hl * sum(map(mul, rule.kronrod, v)))
            el.append(abs(hl * sum(map(mul, rule.diff, v))))
            kr.append(hr * sum(map(mul, rule.kronrod, w)))
            er.append(abs(hr * sum(map(mul, rule.diff, w))))
        # a sum of finite Ks may overflow too; the loop finds a K that does not
        if not math.isfinite(sum(kl) + sum(kr)):
            for half, ks in enumerate((kl, kr)):
                for j, k in enumerate(ks):
                    if not math.isfinite(k):
                        # the row's K over the panels of piece i, the left half first
                        total = math.fsum([p[4][j] for p in heap if p[1] == i] + [kl[j], k][: half + 1])
                        piece = _in_rho(*pieces[i], past_end if i == last else None)
                        raise QuadratureError(f"integral over {piece} is {total!r}: outside the float range")
        return mid, kl, el, kr, er

    def tally(ks: list, es: list, halves: tuple) -> None:
        """The running sums with a panel's ks and es out, and its halves' in."""
        _, kl, el, kr, er = halves
        # one row's sums stay those of a one-integral loop
        for r in rows:
            value[r] = value[r] - ks[r] + kl[r] + kr[r]
            error[r] = error[r] - es[r] + el[r] + er[r]

    def push(i: int, a: float, b: float, halves: tuple) -> None:
        """The halves of the panel [a, b] of piece i in the heap."""
        mid, kl, el, kr, er = halves
        heapq.heappush(heap, (-max(map(mul, el, scale)), i, a, mid, kl, el))
        heapq.heappush(heap, (-max(map(mul, er, scale)), i, mid, b, kr, er))

    first = [bisect(i, a, b) for i, (a, b) in enumerate(pieces)]
    q = len(first[0][1])
    rows, zero = range(q), [0.0] * q
    value, error = [0.0] * q, [0.0] * q
    for halves in first:
        tally(zero, zero, halves)
    evals = sum(2 * len(rule.nodes) for rule in rules)

    while True:
        for v, e in zip(value, error):
            if e > tol * abs(v):
                break
        else:
            # the running sums drift; accept on the exact ones, over the
            # first sweep's halves until a bisection puts them in the heap
            ks, es = zip(*([p[4:] for p in heap] or [h for _, kl, el, kr, er in first for h in ((kl, el), (kr, er))]))
            value = [math.fsum(k) for k in zip(*ks)]
            error = [math.fsum(e) for e in zip(*es)]
            if all(e <= tol * abs(v) for v, e in zip(value, error)):
                return value, error, evals
        if not heap:
            # most calls meet the rule on the first sweep and never key a panel; a
            # panel keys on its largest row |K - G| relative to that row's value after it
            scale = [1.0 / max(abs(math.fsum(ks)), _TINY) for ks in zip(*(k for _, kl, _, kr, _ in first for k in (kl, kr)))]
            for (i, (a, b)), halves in zip(enumerate(pieces), first):
                push(i, a, b, halves)
        _, i, a, b, ks, es = heap[0]
        cause = _stuck(len(heap), a, b, past_end if i == last else None, rules[i].outer)
        if cause is not None:
            raise QuadratureError(f"requested tolerance {tol!r} not met {cause}: value={value!r}, error={error!r}")
        heapq.heappop(heap)
        halves = bisect(i, a, b)
        push(i, a, b, halves)
        tally(ks, es, halves)
        evals += 2 * len(rules[i].nodes)


# the exponent k of radial_integral_rows' graded maps, rho = x^k on [0, 1]
# and rho = (1 - x)^-k on the tail past 1: over the P and R passes of the
# perfbench reports catalogue that return (70 of 96), on G10/K21, k = 2
# takes 2.3 rounds and 253 radii a job, against 2.9 to 5.6 rounds for the
# (head, tail) exponents (3, 2), (2, 3), (3, 3), (4, 4), (1, 2) and (2, 1),
# and 7.4 for (1, 1), where the tail map is rho = 1 + t/(1 - t)
_GRADE = 2


def _graded(x, tail: int):
    """rho and d rho / dx at the nodes x of the head (tail 0) or the tail (tail 1)."""
    if tail:
        w = 1.0 / (1.0 - x)
        rho = w**_GRADE
        return rho, _GRADE * rho * w
    return x**_GRADE, _GRADE * x ** (_GRADE - 1)


# the graded maps as functions of a float, for the texts of _in_rho and _stuck
_GRADED_MAPS = (
    lambda x: x**_GRADE,
    lambda x: (1.0 - x) ** -_GRADE if x < 1.0 else math.inf,
)

# the most panels _panel_nodes keeps, about 1 KB each; the identities passes
# of perfbench's catalogues visit 73
_PANEL_NODES = 512


@functools.lru_cache(maxsize=_PANEL_NODES)
def _panel_nodes(piece: int, a: float, b: float) -> np.ndarray:
    """radial_integral_rows' rule on the panel [a, b] of piece 0 (the head)
    or 1 (the tail), built on first use: a read-only (3, 1, 2, 21) array of
    the nodes in rho, d rho / dx there and the half-width, for both halves.
    _graded squares, divides and multiplies only, so a node is the same
    float whatever array it is mapped in."""
    mid = 0.5 * (a + b)
    table = np.empty((3, 1, 2, _NODES.size))
    table[2, 0] = [[0.5 * (mid - a)], [0.5 * (b - mid)]]
    table[:2] = _graded(np.array([[[0.5 * (a + mid)], [0.5 * (mid + b)]]]) + table[2] * _NODES, piece)
    table.flags.writeable = False
    return table


def _worst(es: list, scale: list) -> float:
    """The largest product of es and scale, nan if one is, as np.maximum takes it: a key past the float range."""
    p = list(map(mul, es, scale))
    s = sum(p)
    # the products are >= 0 or nan, so their sum is nan only if one is
    return max(p) if s == s else s


def radial_integral_rows(rows: Callable, passes: int, spec: QuadratureSpec = QuadratureSpec()):
    """Integrals over [0, oo) of algebraically decaying row integrands, passes sets of them in lockstep.

    Every pass integrates q row integrands (weight included) over
    radial_integral's pieces for an algebraic profile without breakpoints,
    [0, 1] and the tail past 1, each in a graded variable x in [0, 1]:
    rho = x^2 on [0, 1] and rho = (1 - x)^-2 on the tail, so that an
    algebraic power of rho at 0 or at infinity is a milder one in x (rho^-1/2
    at 0 and rho^-3/2 at infinity become constants).  Each pass runs on its
    own G10/K21 mesh under radial_integral's rule, guard and error texts:
    every row must meet the rule on its own, and the panel bisected next has
    the largest row error relative to that row's value after the first
    sweep.  Each round evaluates one bisection of every pass still refining
    (in the first, both pieces of every pass) from one call of
    rows(rho, which): rho of shape (k, 2, 21) holds the nodes of both halves
    of k bisections, a fresh array every round that rows may overwrite (the
    nodes come from _panel_nodes' table), which of shape (k,) the pass of
    each, and rows returns the (k, q, 2, 21) integrand values.  A pass keeps
    its own heap, sums and checks, so it gives what it gives alone; it
    leaves once it meets the rule, and one that fails drops the passes after
    it.  A value outside the float range at a node, or an integral outside
    it over a piece, raises QuadratureError naming the node or the piece;
    panels and nodes are named in rho.  Returns an iterator over the
    (values, error_estimates, evaluations) of the passes in order, arrays of
    q and q evaluations per node, which raises the error of the first
    failing pass after the results of the passes before it, as a loop of one
    pass at a time would.
    """
    tol = spec.relative_tolerance
    # per pass: a heap of (-key, piece, a, b, K, |K - G|), piece 1 the tail,
    # K and |K - G| lists of q Python floats, and the running sums (lists of
    # q) and evaluations; scale holds 1 / |value| of every row of every pass
    # after the first sweep
    heaps = [[] for _ in range(passes)]
    value, error, evals, scale = None, None, [0] * passes, None
    results, stop, failure = [None] * passes, passes, None  # the passes from stop on are dropped
    live = range(passes)
    todo = [(j, i, 0.0, 0.5, 1.0) for j in live for i in (0, 1)]
    which = np.arange(passes).repeat(2)
    with np.errstate(over="ignore", invalid="ignore"):
        while todo:
            # the nodes in rho, d rho / dx and the half-widths of both halves
            # of every bisection, (bisection, half, node), in a fresh array
            nodes = np.concatenate([_panel_nodes(i, a, b) for _, i, a, _, b in todo], axis=1)
            rho, jac, h = nodes[0], nodes[1], nodes[2, :, :, :1, None]
            f = rows(rho, which)
            q = f.shape[1]
            v = f * jac[:, None]
            # K and K - G of both halves of every row in one product, times
            # the half-widths, as Python floats (bisection, half, K or K - G,
            # row)
            kd = (v.reshape(-1, 2, _NODES.size) @ _ROW_WEIGHTS).reshape(-1, q, 2, 2)
            kd = (kd.transpose(0, 2, 3, 1) * h).tolist()
            if scale is None:  # the first sweep: both pieces of every pass
                # 1 / |value| of every row of every pass: the Ks of the head's
                # halves plus those of the tail's
                scale = [
                    [1.0 / max(abs(w + x + (y + z)), _TINY) for w, x, y, z in zip(hl, hr, tl, tr)]
                    for ((hl, _), (hr, _)), ((tl, _), (tr, _)) in zip(kd[0::2], kd[1::2])
                ]
                value, error = [[0.0] * q for _ in range(passes)], [[0.0] * q for _ in range(passes)]
            for r, ((j, i, a, mid, b), ((kl, el), (kr, er))) in enumerate(zip(todo, kd)):
                el, er, sc = list(map(abs, el)), list(map(abs, er)), scale[j]
                # a half keys on its largest row |K - G| relative to that
                # row's value after the first sweep; the Kronrod weights are
                # positive, so a value outside the float range leaves its K
                # outside it too
                if math.isfinite(sum(kl) + sum(kr) + sum(el) + sum(er)):
                    left, right = max(map(mul, el, sc)), max(map(mul, er, sc))
                elif all(map(math.isfinite, kl + kr)):
                    left, right = _worst(el, sc), _worst(er, sc)
                else:
                    piece = _in_rho(0.0, 1.0, _GRADED_MAPS[i])
                    stop, failure = j, QuadratureError(
                        _overflow(f[r].reshape(q, -1), rho[r].ravel(), np.array([kl, kr]), i, heaps[j], piece)
                    )
                    break
                heapq.heappush(heaps[j], (-left, i, a, mid, kl, el))
                heapq.heappush(heaps[j], (-right, i, mid, b, kr, er))
                value[j] = list(map(add, value[j], map(add, kl, kr)))
                error[j] = list(map(add, error[j], map(add, el, er)))
                evals[j] += 2 * _NODES.size
            todo, refining = [], []
            for j in live:
                if j >= stop:
                    break
                heap = heaps[j]
                if all(e <= tol * abs(v) for v, e in zip(value[j], error[j])):
                    # the running sums drift; accept on the exact ones
                    value[j], error[j] = ([math.fsum(row) for row in zip(*(p[col] for p in heap))] for col in (4, 5))
                    if all(e <= tol * abs(v) for v, e in zip(value[j], error[j])):
                        results[j] = (np.array(value[j]), np.array(error[j]), q * evals[j])
                        continue
                _, i, a, b, k, e = heap[0]
                cause = _stuck(len(heap), a, b, _GRADED_MAPS[i], _QK21.outer)
                if cause is not None:
                    stop, failure = j, QuadratureError(
                        f"requested tolerance {tol!r} not met {cause}: value={value[j]!r}, error={error[j]!r}"
                    )
                    break
                heapq.heappop(heap)
                value[j] = list(map(sub, value[j], k))
                error[j] = list(map(sub, error[j], e))
                todo.append((j, i, a, 0.5 * (a + b), b))
                refining.append(j)
            live, which = refining, np.array(refining)
    return _in_order(results[:stop], failure)


def _in_order(results: list, failure: Optional[QuadratureError]):
    """The results, then failure raised if there is one: what a loop of one pass at a time meets."""
    yield from results
    if failure is not None:
        raise failure


def _overflow(v, rho, k, i: int, panels: list, piece: str) -> str:
    """Why a bisection's K left the float range: the first node, in the scalar
    order, where a row value is outside it (v and rho of the bisection's 42
    nodes), or else the first row whose sum over piece i is."""
    if not np.isfinite(v).all():
        bad = int((~np.isfinite(v)).any(axis=0).argmax())
        return f"profile exceeds the float range at rho={float(rho[bad])!r}"
    r = int((~np.isfinite(k)).any(axis=0).argmax())
    total = math.fsum([p[4][r] for p in panels if p[1] == i] + k[:, r].tolist())
    return f"integral over {piece} is {total!r}: outside the float range"


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
# integrand values per evaluation block, every integral of a parameter
# counted: a few hundred parameters at the first panel count, so peak memory
# does not grow with the grid; the batched reports hold at most 30
# parameters, and only the masses' fallback for a low-alpha ko-refute grid
# fills several blocks (alpha = 0.02 0.5 at n = 6 sends 1 857 alphas there)
_BLOCK_VALUES = 1 << 15


@functools.lru_cache(maxsize=None)
def _panel_table(panels: int) -> tuple:
    """The G10/K21 nodes of panels equal panels of [0, 1] and _GK21_WEIGHTS
    times their half-width: gauss_kronrod_batch's rule at that panel count,
    built once and read-only, since every integrand reads the same nodes."""
    half = 0.5 / panels
    table = ((np.arange(panels)[:, None] + 0.5) / panels + half * _GK21_NODES).ravel(), half * _GK21_WEIGHTS
    for t in table:
        t.flags.writeable = False
    return table


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
    its parameter, never on the rest of the grid.  A QuadratureError counts
    the parameters of params and names one by describe(params[i].tolist());
    a parameter that misses the tolerance on an integral that is zero or
    subnormal, relative to which no panel count meets the rule, is named in
    that round as an integral outside the normal floats.  Returns (values,
    error_estimates, integrand evaluations), values and estimates of shape
    (N,), or (q, N) for q integrals per parameter.
    """
    params = np.asarray(params, dtype=float)
    count = len(params)
    todo, values, errors = np.arange(count), None, None
    tol = spec.relative_tolerance
    panels, evals, per = _FIRST_PANELS, 0, 1
    # values outside the float range are caught below, with their parameter
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            x, weights = _panel_table(panels)
            # while every parameter refines, as in the first round, the blocks are slices of params
            every, start, sums = todo.size == count, 0, []
            # one block at least: the block of an empty grid still tells q
            while not sums or start < todo.size:
                # until the first block tells, one integral per parameter
                stop = start + max(1, _BLOCK_VALUES // (per * x.size))
                f = integrand(x, params[start:stop, None] if every else params[todo[start:stop], None])
                per = math.prod(f.shape[:-2])
                # K and K - G of every panel of the block in one product; the
                # block's values are dropped before the next block is evaluated
                kd = (f.reshape(-1, _GK21_NODES.size) @ weights).reshape(f.shape[:-1] + (panels, 2))
                del f
                sums.append((np.add.reduce(kd[..., 0], axis=-1), np.add.reduce(np.abs(kd[..., 1]), axis=-1)))
                start = stop
            val, err = sums[0] if len(sums) == 1 else (np.concatenate(s, axis=-1) for s in zip(*sums))
            if every:
                values, errors = val, err
            else:
                values[..., todo], errors[..., todo] = val, err
            evals += todo.size * x.size
            # one row per integral of a parameter, one column per parameter
            val, err = val.reshape(per, todo.size), err.reshape(per, todo.size)
            if not np.isfinite(val).all():
                bad = todo[~np.isfinite(val).all(axis=0)]
                raise QuadratureError(
                    f"non-finite integral at {bad.size} of {count} parameters, first at "
                    f"{describe(params[bad[0]].tolist())}: outside the float range"
                )
            size = np.abs(val)
            missed = err > tol * size
            if not missed.any():
                return values, errors, evals
            # no panel count meets the rule relative to a zero or subnormal
            # integral: its parameter is named at once
            if np.minimum.reduce(size, axis=None) < _TINY:
                ok = np.ones(count, dtype=bool)
                ok[todo[(missed & (size < _TINY)).any(axis=0)]] = False
                _name_failures(ok, params, describe, "integral outside the normal floats")
            missed = missed.any(axis=0)
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


def gaussian_integrals(
    rows: Sequence[tuple],
    params,
    spec: QuadratureSpec = QuadratureSpec(),
    describe: Callable[[object], str] = repr,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Gaussian volume integrals on the ball, q rows on one set of nodes, for every parameter.

    Row (k, f) is n omega_n int_0^oo f(rho) sinh^k(rho) e^(-rate rho^2 - 2 beta rho) d rho,
    n = k + 1, f None for 1 or a function of the node radii rho and the
    parameter column p (see gauss_kronrod_batch; p[..., 0] is the rate and
    p[..., 1] beta); params holds (rate, beta) pairs, rate > 0 and
    beta >= 0, shape (N, 2).  Every row is taken in s = rho sqrt(rate) over
    [0, S], with K the largest k of rows and S of each parameter, set once
    before the pass:
      * the root of s^2 - g s = budget, g = max(K - 2 beta, 0) / sqrt(rate):
        the tail bound _truncation_radius puts on a sinh^K weight, with
        e^(-2 beta rho) taken into the exponent.  The bound is absolute.
        At rate <= 2K/3 it is relative as well: with beta = 0 the bound
        2^-K e^(K rho - rate rho^2) at S is at most e^-budget times the
        integrand at rho = K / (2 rate) >= 3/4.  At large rates, where the
        integral is of order rate^(-K/2), it is not;
      * raised where the peak needs it (_peak_cut).  With b = 2 beta / sqrt(rate)
        and a = 1 - K / (6 rate), s^K e^(-a s^2 - b s) bounds the integrand
        times rate^(K/2) from above (sinh rho <= rho e^(rho^2 / 6)), and
        t^K e^(-t^2 - b t) bounds its peak from below (sinh rho >= rho),
        t = sqrt(K/2), or where that does not let S stand the peak
        (sqrt(b^2 + 8K) - b) / 4 of s^K e^(-s^2 - b s).  At rate > 2K/3
        (a > _PEAK_GATE) S is at least an s past the first one's peak
        where it has fallen to tol times the second.  s^K e^(-s^2) peaks
        at sqrt(K/2), so this moves S for large K at large rates only
        (K >= 10 at 1e-12, K >= 15 at 1e-9); no row of perfbench's
        catalogues or of tests/golden moves.
    The integrand S e^(k log sinh rho - s^2 - 2 beta rho) is formed in log
    space, so it stays finite where sinh^k alone would overflow (small
    rates); rows of one k share one exp, taken in place in the exponent's
    array, and a row with an f is written by one product into the output.
    On gauss_kronrod_batch's G10/K21 rule, a parameter is refined until
    every row meets the tolerance; a QuadratureError names a parameter by
    describe((rate, beta)), and one is raised for an integral outside the
    normal floats (_normal_floats).  Returns (values, error_estimates,
    evaluations): values and estimates of shape (q, N), each
    n omega_n / sqrt(rate) times its integral in s; evaluations count every
    value of every row, q per node.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != 2:
        raise ValueError(f"params must be (rate, beta) pairs of shape (N, 2), got shape {params.shape}")
    top = max(k for k, _ in rows)
    tol = spec.relative_tolerance
    rate, beta = params.T
    root = np.sqrt(rate)

    def integrand(x, p):
        # p holds (rate, beta, S, sqrt(rate), 2 beta)
        S = p[..., 2]
        s = S * x
        rho = s / p[..., 3]
        s2 = s * s
        # log sinh rho = rho + log(1 - e^(-2 rho)) - log 2
        log_w = rho + np.log(-np.expm1(-2 * rho)) - math.log(2)
        bases = {}
        for k in dict.fromkeys(k for k, _ in rows):
            # S e^(k log w - s s - 2 beta rho), in place in the exponent's array
            e = k * log_w - s2
            e -= p[..., 4] * rho
            bases[k] = np.multiply(S, np.exp(e, out=e), out=e)
        out = np.empty((len(rows),) + rho.shape)
        for row, (k, f) in zip(out, rows):
            if f is None:
                row[...] = bases[k]
            else:
                np.multiply(f(rho, p), bases[k], out=row)
        return out

    # a small rate overflows g, and with it S, into a non-finite integral
    # that gauss_kronrod_batch names; with a large beta it also overflows b
    # into a psi of nan, where a <= _PEAK_GATE keeps S (past the gate the
    # peak at b = inf is 0, whose log is -inf and psi nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = np.maximum(top - 2 * beta, 0) / root
        S = (g + np.sqrt(g * g + 4 * _tail_budget(tol))) / 2
        S = _peak_cut(S, top, tol, 1 - top / (6 * rate), 2 * beta / root)
        grid = np.column_stack([params, S, root, 2 * beta])
        values, errors, evals = gauss_kronrod_batch(integrand, grid, spec, lambda p: describe(p[:2]))
        c = np.array([(k + 1) * ball_volume_constant(k + 1) for k, _ in rows])[:, None] / root
        values, errors = c * values, c * errors
    _normal_floats(values.T, params, describe)
    return values, errors, len(rows) * evals


# sinh rows take the peak cut where a = 1 - K / (6 rate) exceeds this, rate >
# 2K/3; below, the budget cut's bound 2^-K e^(K rho - rate rho^2) at S is at
# most e^-budget times the integrand at rho = K / (2 rate) >= 3/4, for beta = 0
_PEAK_GATE = 0.75


def _peak_cut(S, K: int, tol: float, a, b=0.0):
    """S raised where a > _PEAK_GATE and the peak needs it: the cut of gaussian_integrals.

    psi(s) = ln(s^K e^(-a s^2 - b s) / (t^K e^(-t^2 - b t))) - ln tol, with
    t = (sqrt(b^2 + 8K) - b) / 4 the peak of s^K e^(-s^2 - b s), falls past
    the peak p of s^K e^(-a s^2 - b s).  S stands where it lies past p with
    psi(S) <= 0, and elsewhere becomes max(S, p + sqrt(psi(p) / a)):
    psi'' = -K / s^2 - 2a <= -2a, so psi(s) <= psi(p) - a (s - p)^2, which
    is <= 0 from there on, and psi(p) >= psi(t) = (1 - a) t^2 - ln tol > 0.
    Both steps hold for any t > 0; the peak gives the largest reference
    t^K e^(-t^2 - b t), so the least psi and the least cut, and S stands
    where it stands at t = sqrt(K/2), the peak at b = 0, which is tested
    first.  At K = 0 (n = 1), or where no a passes the gate, S stands and
    psi is not formed.  Every S here is at least sqrt(_tail_budget(tol)).
    """
    below = a <= _PEAK_GATE
    if K == 0 or below.all():
        return S
    # first t = sqrt(K/2), the peak at b = 0, on which most S stand
    t = math.sqrt(K / 2)
    c = K * math.log(t) - t * t + math.log(tol)

    def psi(s, a):
        # at the t and c that stand when it is called
        return K * np.log(s) - s * (a * s + b) + b * t - c

    def stands():
        # psi(S) <= 0 and S past p: past the gate p lies before sqrt(K), so
        # before S for K < budget
        ok = psi(S, a) <= 0
        return ok & (K < S * (2 * a * S + b)) if K >= _tail_budget(tol) else ok

    ok = stands() | below
    if ok.all():
        return S
    # then the peak where b > 0: (sqrt(b^2 + 8K) - b) / 4 in a form without
    # cancellation, and its log without a log of 0 where b overflows
    root = np.hypot(b, math.sqrt(8 * K)) + b
    t = np.where(b > 0, 2 * K / root, t)
    c = np.where(b > 0, K * (math.log(2 * K) - np.log(root)) - t * t + math.log(tol), c)
    ok |= stands()
    if ok.all():
        return S
    # where S stands, a = 1 keeps the peak finite; (sqrt(b^2 + 8Ka) - b) / (4a)
    # in a form without cancellation, and without b^2, which overflows first
    a = np.where(ok, 1.0, a)
    peak = 2 * K / (np.hypot(b, np.sqrt(8 * K * a)) + b)
    return np.where(ok, S, np.maximum(S, peak + np.sqrt(psi(peak, a) / a)))


# the most terms a series mass takes; a small alpha, which needs more (a sum
# of sinh^k takes about k^2 / (4 alpha)), goes through gaussian_integrals
_SERIES_TERMS = 96
# the unit roundoff of a double
_UNIT = 2.0**-53


def _sinh_series(k: int) -> Iterator[tuple]:
    """The Taylor coefficients of (sinh y / y)^k as exact fractions.

    (sinh y / y)^k = sum_j c_j y^(2j), a k-fold convolution of 1/(2i + 1)!,
    so every c_j is positive: c_j = sum_i (-1)^i C(k, i) (k - 2i)^(k+2j) /
    (2^k (k + 2j)!).  Coefficient by coefficient sinh y / y is at most
    cosh y, and cosh^k y at most cosh ky, so c_j <= k^(2j) / (2j)!.  Yields
    the integer pairs (top, bottom), c_j = top / bottom, for j up to
    _SERIES_TERMS: the float tables built from them are cached, the large
    integers are not kept.
    """
    for j in range(_SERIES_TERMS + 1):
        top = sum((-1) ** i * math.comb(k, i) * (k - 2 * i) ** (k + 2 * j) for i in range(k + 1))
        yield top, 2**k * math.factorial(k + 2 * j)


@functools.lru_cache(maxsize=None)
def _mass_series(k: int) -> tuple:
    """The series of M_k(alpha) = int_0^oo sinh^k(rho) e^(-alpha rho^2) d rho in x = 1/alpha.

    sinh^k(rho) = rho^k sum_j c_j rho^(2j), with the positive Taylor
    coefficients c_j <= k^(2j) / (2j)! of _sinh_series.  Term by term,
    M_k(alpha) = x^((k+1)/2) sum_j b_j x^j with
    b_j = c_j Gamma((k + 2j + 1)/2) / 2, a sum that cannot cancel.  By the
    bound on c_j the terms from j = J on are
    at most those of the majorant T_j = m_j x^j,
    m_j = k^(2j) Gamma((k + 2j + 1)/2) / (2 (2j)!), whose ratio
    T_(j+1) / T_j = rho_j x, rho_j = k^2 (k + 2j + 1) / (2 (2j + 1)(2j + 2)),
    falls with j: the tail from J on is at most T_J / (1 - rho_J x) once
    rho_J x < 1.  b_j and m_j are exact rationals
    (times sqrt(pi) for even k); each is its rational rounded to the nearest
    float (times the rounded sqrt(pi) for even k), within 3 unit roundoffs.
    The alpha at which J terms first serve is th[J - 1]: there
    rho_J x <= 1/2 and 2 T_J <= _UNIT b_i x^i for an i < J, so the tail
    bound is at most _UNIT times the partial sum.  Both conditions, once
    met, hold for every larger alpha and J, so th falls with J.  Returns
    (b, m, rho, th): b_j for j < cap, m_J and rho_J at index J <= cap, and
    th of cap values, where cap is _SERIES_TERMS or fewer if the floats do
    not hold the coefficients of a large k.
    """
    scale = 1.0 if k % 2 else math.sqrt(math.pi)
    b, m = [], []
    for j, (top, bottom) in enumerate(_sinh_series(k)):
        if k % 2:
            # Gamma((k + 2j + 1)/2) = h!
            h = (k - 1) // 2 + j
            ratios = ((top * math.factorial(h), 2 * bottom),
                      (k ** (2 * j) * math.factorial(h), 2 * math.factorial(2 * j)))
        else:
            # Gamma(h + 1/2) = (2h)! sqrt(pi) / (4^h h!), 2h = k + 2j
            h = k // 2 + j
            ratios = ((top * math.factorial(2 * h), 2 * bottom * 4**h * math.factorial(h)),
                      (k ** (2 * j) * math.factorial(2 * h), 2 * math.factorial(2 * j) * 4**h * math.factorial(h)))
        try:
            bj, mj = (num / den * scale for num, den in ratios)
        except OverflowError:
            break
        # past here the floats overflow or lose digits to underflow
        if not (bj < math.inf and mj < math.inf) or 0 < bj < _TINY or 0 < mj < _TINY:
            break
        b.append(bj)
        m.append(mj)
    b, m = np.array(b), np.array(m)
    cap = max(len(b) - 1, 0)
    J = np.arange(1, cap + 1)
    rho = np.zeros(cap + 1)
    rho[1:] = k * k * (k + 2 * J + 1) / (2 * (2 * J + 1) * (2 * J + 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        # log alpha at which 2 T_J = _UNIT b_i x^i (at k = 0, m_J and b_i for i > 0 are 0)
        logs = (np.log(2 * m[1:, None]) - np.log(_UNIT * b[:cap])) / (J[:, None] - np.arange(cap))
    logs[(np.arange(cap) >= J[:, None]) | (b[:cap] == 0)] = np.inf
    # the running minimum mends the rounding of the logs only: the conditions fall with J
    th = np.minimum.accumulate(np.maximum(2 * rho[1:], np.exp(logs.min(axis=1, initial=np.inf))))
    tables = b[:cap], m, rho, th
    # the cache hands the same arrays to every caller
    for t in tables:
        t.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=None)
def _volume_series(n: int) -> tuple:
    """The series of V(rho) / rho^n in x = rho^2, V the volume of the ball of radius rho on the curvature -1 model.

    V(rho) = n omega_n int_0^rho sinh^k, k = n - 1, and sinh^k(r) =
    r^k sum_j c_j r^(2j) with the positive c_j <= k^(2j) / (2j)! of
    _sinh_series, so V(rho) / rho^n = n omega_n sum_j a_j x^j with
    a_j = c_j / (n + 2j), a sum that cannot cancel.  Its terms from j = J on
    are at most those of the majorant m_j x^j, m_j = k^(2j) / ((2j)! (n + 2j)),
    whose ratio m_(j+1) x / m_j is at most q_j x,
    q_j = k^2 / ((2j + 1)(2j + 2)), which falls with j: the tail from J on
    is at most m_J x^J / (1 - q_J x) once q_J x < 1.  Each a_j and m_j is
    its rational rounded to the nearest float.  Returns (c, a, m, q):
    c = n omega_n, a_j for j < cap and m_J and q_J at index J <= cap, as
    Python floats, where cap is _SERIES_TERMS or fewer if the floats do
    not hold the coefficients of a large k.
    """
    k = n - 1
    a, m = [], []
    for j, (top, bottom) in enumerate(_sinh_series(k)):
        try:
            aj, mj = top / (bottom * (n + 2 * j)), k ** (2 * j) / (math.factorial(2 * j) * (n + 2 * j))
        except OverflowError:
            break
        # past here the floats overflow or lose digits to underflow
        if not (aj < math.inf and mj < math.inf) or 0 < aj < _TINY or 0 < mj < _TINY:
            break
        a.append(aj)
        m.append(mj)
    q = [k * k / ((2 * j + 1) * (2 * j + 2)) for j in range(len(m))]
    return n * ball_volume_constant(n), a[: len(m) - 1], m, q


def _volume_ratio_series(n: int, rho: float, tol: float) -> Optional[IntegralResult]:
    """V(rho) / rho^n from the series of _volume_series, or None where the series does not serve.

    The partial sums S_J = sum_(j<J) a_j x^j, x = rho^2, are summed in
    Python floats up to the least J whose tail bound m_J x^J / (1 - q_J x)
    is at most a unit roundoff u of S_J, as the series masses are.  The
    rounding bound: a_j carries 1 u, x^j j + 1, the product 1, the sum of
    positive terms J - 1 and n omega_n S_J 1, so the ratio is within
    gamma_(2J+4) = (2J + 4) u / (1 - (2J + 4) u) of its computed value
    (n omega_n taken as exact, as the quadrature path takes it).  Returns
    n omega_n S_J, with n omega_n times both bounds as its error estimate
    and the J terms as nodes_used, if that estimate is at most
    tol x the ratio; None where it is not, where no J up to the term cap
    serves, or where x^J or the sum overflows first: the cue to integrate
    instead.
    """
    c, a, m, q = _volume_series(n)
    x = rho * rho
    s, p = 0.0, 1.0
    for J, aj in enumerate(a, 1):
        s += aj * p
        p *= x
        # x^J or the sum overflows before the tail bound serves
        if not (p < math.inf and s < math.inf):
            return None
        if q[J] * x < 1.0:
            tail = m[J] * p / (1.0 - q[J] * x)
            if tail <= _UNIT * s:
                steps = 2 * J + 4
                error = tail + steps * _UNIT / (1 - steps * _UNIT) * s
                return IntegralResult(c * s, c * error, J) if error <= tol * s else None
    return None


def _series_masses(ns: list, alphas: np.ndarray) -> tuple:
    """The masses of hyperbolic_gaussian_masses from the series of _mass_series.

    For n in ns, the mass is c_n M_(n-1)(alpha) = c_n S / alpha^(n/2), with
    c_n = n omega_n and S = sum_(j<J) b_j alpha^-j; J is the least number of
    terms whose th reaches alpha, so it depends on alpha and n alone.  An
    alpha is served when it is positive and finite and none of its masses
    needs more terms than the cap.  J falls as alpha grows, so over the
    served alphas in increasing order the masses that take a term of degree
    j are a prefix: each row is one masked Horner pass, p = p / alpha + b_j
    over that prefix for j from the largest J - 1 down to 0, from p = 0, and
    a mass is the same float alone and inside any grid.  Its error estimate
    is the tail bound c_n T_J / ((1 - rho_J / alpha) alpha^(n/2)) plus a
    rounding bound: b_j carry 3 unit roundoffs u, the Horner sum of positive
    terms 2 (J - 1), alpha^(n/2) (a square root and products) (n + 1) // 2
    and c_n S / alpha^(n/2) 2 (c_n taken as exact, as gaussian_integrals'
    path takes it), so the mass is within gamma_(N+1) = (N + 1) u /
    (1 - (N + 1) u) of its computed value, N = 2 J + 3 + (n + 1) // 2.
    Returns (masses, error_estimates, terms, served), the first three of
    shape (len(ns), len(alphas)) and set where served, of len(alphas).
    """
    served = (alphas > 0) & (alphas < math.inf)
    terms = []
    for n in ns:
        th = _mass_series(n - 1)[3]
        J = len(th) + 1 - np.searchsorted(th[::-1], alphas, side="right")
        served &= J <= len(th)
        terms.append(J)
    order = np.flatnonzero(served)
    order = order[np.argsort(alphas[order], kind="stable")]
    a = alphas[order]
    masses, errors = np.zeros((2, len(ns), alphas.size))
    counts = np.zeros((len(ns), alphas.size), dtype=int)
    for row, (n, J) in enumerate(zip(ns, terms)):
        b, m, rho, _ = _mass_series(n - 1)
        J = J[order]
        top = int(J[0]) if J.size else 0
        # the number of alphas taking a term of degree j, for every j < top
        heads = np.searchsorted(-J, -np.arange(top), side="left").tolist()
        s = np.zeros(a.size)
        for j in range(top - 1, -1, -1):
            v = s[: heads[j]]
            np.divide(v, a[: heads[j]], out=v)
            np.add(v, b[j], out=v)
        c = n * ball_volume_constant(n)
        # alpha^(n/2) overflows only where the mass leaves the normal floats,
        # which the caller's acceptance turns away
        with np.errstate(over="ignore"):
            power = np.sqrt(a) if n % 2 else a
            for _ in range((n - 1) // 2):
                power = power * a
            mass = c * s / power
            tail = c * m[J] * a ** -J.astype(float) / ((1 - rho[J] / a) * power)
        # N + 1 rounding steps
        steps = 2 * J + 4 + (n + 1) // 2
        masses[row, order] = mass
        errors[row, order] = tail + steps * _UNIT / (1 - steps * _UNIT) * mass
        counts[row, order] = J
    return masses, errors, counts, served


def hyperbolic_gaussian_masses(
    dims, alphas: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> tuple[np.ndarray, np.ndarray, int]:
    """n omega_n int e^(-alpha rho^2) sinh^(n-1)(rho) d rho for every alpha.

    The batched counterpart of hyperbolic_radial_volume_integral for the
    gaussian e^(-alpha rho^2).  dims is one n, or a sequence of them.  Each
    mass is a positive series in 1/alpha (_mass_series), summed by one
    masked Horner pass per n until its tail bound is below a unit roundoff
    of the sum (_series_masses); its error estimate is that tail bound plus
    the rounding bound of the coefficients, the sum and alpha^(n/2), held to
    relative_tolerance x mass.  An alpha whose series needs more than
    _SERIES_TERMS terms (small alphas: about (n-1)^2 / (4 alpha) are
    needed), or whose estimate misses the tolerance, takes all of its masses
    from one gaussian_integrals call at (alpha, 0) on such alphas alone, on
    the node set of the largest n, log sinh taken once per node; its
    QuadratureError counts the alphas of that call and names one by its
    alpha, a mass outside the normal floats too.  Every alpha must be
    positive and finite.  Every mass is
    the same float alone and inside any grid.  Returns (masses,
    error_estimates, evaluations), masses of shape (N,) for one n and
    (len(dims), N) for a sequence; evaluations count the series terms and
    one Gauss-Kronrod evaluation per mass and node.
    """
    ns = np.atleast_1d(dims).tolist()
    if min(ns) < 1:
        raise ValueError("need n >= 1")
    alphas = _checked_parameters("alpha", alphas)
    tol = spec.relative_tolerance
    masses, errors, terms, served = _series_masses(ns, alphas)
    evals = int(terms.sum())
    met = served & ((errors <= tol * masses) & (masses >= _TINY) & (masses < math.inf)).all(axis=0)
    rest = np.flatnonzero(~met)
    if rest.size:
        grid = np.stack([alphas[rest], np.zeros(rest.size)], axis=1)
        masses[:, rest], errors[:, rest], gk = gaussian_integrals(
            [(n - 1, None) for n in ns], grid, spec, lambda p: repr(p[0]))
        evals += gk
    if np.ndim(dims) == 0:
        return masses[0], errors[0], evals
    return masses, errors, evals


def hyperbolic_gaussian_moments(
    n: int, alphas, betas, spec: QuadratureSpec = QuadratureSpec(), weights: Sequence[Callable] = ()
) -> tuple[np.ndarray, np.ndarray, int]:
    """The uncertainty moments of u = e^(-alpha rho^2 - beta rho) on the curvature -1 model.

    A = int (u')^2, M = int rho^2 u^2 and L = int u^2 against the volume
    n omega_n sinh^(n-1)(rho) d rho, then int f u^2 for every f of weights
    (a function of an array of radii), for every (alpha, beta) of the
    broadcast of alphas and betas (alpha positive and beta >= 0, both
    finite, _checked_parameters, and 2 alpha finite, _gaussian_rates); an
    integral outside the normal floats is a QuadratureError that names its
    (alpha, beta).  u^2 is the
    gaussian e^(-2 alpha rho^2) times e^(-2 beta rho) <= 1, so the integrals
    come from one gaussian_integrals pass at the rate 2 alpha.  Returns
    (moments, error_estimates, evaluations); moments[0], [1] and [2] are A,
    M and L, moments[3 + i] the integral of weights[i], each of the
    broadcast shape.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rates, betas = _gaussian_rates("alpha", alphas), _checked_parameters("beta", betas, zero=True)
    grid = np.empty(np.broadcast(rates, betas).shape + (2,))
    grid[..., 0], grid[..., 1] = rates, betas
    m = n - 1
    # u' = -(2 alpha rho + beta) u, and p holds (2 alpha, beta)
    rows = [
        (m, lambda rho, p: (p[..., 0] * rho + p[..., 1]) ** 2),
        (m, lambda rho, p: rho * rho),
        (m, None),
    ]
    rows += [(m, lambda rho, p, f=f: f(rho)) for f in weights]

    def describe(p):
        return f"(alpha, beta) = ({p[0] / 2!r}, {p[1]!r}) for n = {n}"

    values, errors, evals = gaussian_integrals(rows, grid.reshape(-1, 2), spec, describe)
    shape = (len(rows),) + grid.shape[:-1]
    return values.reshape(shape), errors.reshape(shape), evals


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
