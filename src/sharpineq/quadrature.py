"""Deterministic integration of radial profiles on [0, oo).

Two globally adaptive G7/K15 loops on a split domain, which share one panel
guard: q integrands of one report on one mesh in Python floats, one call per
bisection for the columns of its 30 radii, the tail mapped by the rational
transform rho = end + t/(1 - t) (radial_integrals, and radial_integral, its
one-row case), and passes of q numpy row integrands in lockstep, [0, 1] and
the tail past 1 taken in graded variables, rho = x^2 and rho = (1 - x)^-2,
each round one call for the nodes of one bisection of every pass still
refining (radial_integral_rows); a vectorised composite Gauss-Kronrod rule
over a whole parameter grid at once, which takes the gaussian rows of the
ball in s = rho sqrt(rate), each parameter on its own cut
(gaussian_integrals), and the rate-free gaussian moments of flat space at
rate 1 (flat_gaussian_moments); the gaussian masses on the ball as a
positive series in 1/alpha, n-dimensional Monte Carlo
cross-validation with a counter-based generator, and Richardson-extrapolated
finite differences.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional, Sequence

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
    "flat_gaussian_moments",
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
    ok = (values >= 0 if zero else values > 0) & (values < math.inf)
    if not ok.all():
        rule = "finite and >= 0" if zero else "positive and finite"
        raise ValueError(f"{name} must be {rule}, got {name} = {float(values[~ok].flat[0])!r}")
    return values


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
# G7/K15 as Python floats, for the columns of radial_integrals, in the order
# QUADPACK's qk15 evaluates it (the centre, the Gauss pairs, the Kronrod
# pairs): a profile that overflows is named at the first node it overflows
# at in that order
_ORDER = [7, 1, 13, 3, 11, 5, 9, 0, 14, 2, 12, 4, 10, 6, 8]
_NODE_LIST = _GK15_NODES[_ORDER].tolist()
_NODE_COUNT = len(_NODE_LIST)
_OUTER_NODE = float(_GK15_NODES[-1])
_KRONROD_LIST = _GK15_KRONROD[_ORDER].tolist()
_DIFF_LIST = (_GK15_KRONROD - _GK15_GAUSS)[_ORDER].tolist()
# the same for the row integrands of radial_integral_rows: the nodes in that
# order, and the (15, 2) matrix of Kronrod and Kronrod-minus-Gauss weights
# that gives both sums of a panel in one product
_NODES = np.array(_NODE_LIST)
_GK15_WEIGHTS = np.stack([_KRONROD_LIST, _DIFF_LIST], axis=1)


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
    rho = end + t/(1 - t).  The rule is G7/K15, globally adaptive over all
    pieces (_adaptive_gk15), one call of columns per bisection, the panel
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
    values, errors, nodes = _adaptive_gk15(cols, cuts, tail, tol)
    return [IntegralResult(v, e, nodes, truncation=T) for v, e in zip(values, errors)]


def _in_rho(a: float, b: float, rho: Optional[Callable[[float], float]]) -> str:
    """The panel [a, b] as text in rho: rho maps a mapped piece's variable back (None on an unmapped piece)."""
    if rho is not None:
        a, b = rho(a), rho(b)
    return f"rho in [{a!r}, {b!r}]"


def _stuck(panels: int, a: float, b: float, rho: Optional[Callable[[float], float]]) -> Optional[str]:
    """Why the worst of panels panels, [a, b] (rho as for _in_rho), cannot be bisected, or None."""
    mid = 0.5 * (a + b)
    if panels >= _MAX_SUBINTERVALS:
        return f"with {panels} panels, the worst at {_in_rho(a, b, rho)}"
    if not a < mid < b:
        return f"at {_in_rho(a, b, rho)}: the panel cannot be bisected in floating point"
    # a tail maps t = 1 to rho = oo, where no node may lie
    if rho is not None and 0.5 * (mid + b) + 0.5 * (b - mid) * _OUTER_NODE >= 1.0 and rho(1.0) == math.inf:
        return f"at {_in_rho(a, b, rho)}: a node of its right half rounds to t = 1.0"
    return None


def _adaptive_gk15(cols: Callable, cuts: list, tail: bool, tol: float) -> tuple[list, list, int]:
    """Globally adaptive G7/K15 for q rows on one mesh: over [cuts[0], cuts[-1]], and past it if tail.

    The pieces are the intervals between cuts and, if tail, the tail past
    end = cuts[-1] mapped onto t in [0, 1) by rho = end + t/(1 - t),
    d rho = dt/(1 - t)^2.  Every piece starts as its two halves.  While a
    row's summed |K - G| exceeds tol x |its sum of K|, the panel of largest
    key is bisected, until _stuck names a cause, whose text prints the
    values and estimates as lists of q.  The key is the panel's largest row
    |K - G| relative to that row's |value| after the first sweep; for one
    row that is its |K - G| times one positive number, so its panels are
    bisected in the order of the plain |K - G| (ties of rounding aside).  A
    call whose first sweep meets the rule returns before any panel is keyed.
    A bisection is one call cols(rs) on the radii of both halves, the left
    first, each in QUADPACK's node order, which returns q lists of values.
    Returns (values, error estimates, radii evaluated), the first two lists
    of q.
    """
    pieces = list(zip(cuts, cuts[1:]))
    if tail:
        pieces.append((0.0, 1.0))
    end, last = cuts[-1], len(cuts) - 1 if tail else -1

    def past_end(t: float) -> float:
        """rho of the tail's t."""
        return end + t / (1.0 - t) if t < 1.0 else math.inf

    heap = []  # (-key, piece, a, b, K of every row, |K - G| of every row)

    def bisect(i: int, a: float, b: float) -> tuple:
        """(mid, Ks and |K - G|s of [a, mid], Ks and |K - G|s of [mid, b]) of the panel [a, b] of piece i."""
        mid = 0.5 * (a + b)
        cl, cr, hl, hr = 0.5 * (a + mid), 0.5 * (mid + b), 0.5 * (mid - a), 0.5 * (b - mid)
        xs = [c + h * x for c, h in ((cl, hl), (cr, hr)) for x in _NODE_LIST]
        if i == last:
            rows = [[v / (1.0 - t) ** 2 for v, t in zip(row, xs)] for row in cols([end + t / (1.0 - t) for t in xs])]
        else:
            rows = cols(xs)
        kl, el, kr, er = [], [], [], []
        for v in rows:
            # map stops at the 15 weights, so v gives the left half
            w = v[_NODE_COUNT:]
            kl.append(hl * sum(map(mul, _KRONROD_LIST, v)))
            el.append(abs(hl * sum(map(mul, _DIFF_LIST, v))))
            kr.append(hr * sum(map(mul, _KRONROD_LIST, w)))
            er.append(abs(hr * sum(map(mul, _DIFF_LIST, w))))
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
    evals = 2 * _NODE_COUNT * len(pieces)

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
        cause = _stuck(len(heap), a, b, past_end if i == last else None)
        if cause is not None:
            raise QuadratureError(f"requested tolerance {tol!r} not met {cause}: value={value!r}, error={error!r}")
        heapq.heappop(heap)
        halves = bisect(i, a, b)
        push(i, a, b, halves)
        tally(ks, es, halves)
        evals += 2 * _NODE_COUNT


# the exponent k of radial_integral_rows' graded maps, rho = x^k on [0, 1]
# and rho = (1 - x)^-k on the tail past 1: over the P and R passes of the
# perfbench reports catalogue, k = 2 takes 5.9 rounds a job, against 7.4 to
# 8.9 for the (head, tail) exponents (1, 2), (2, 1), (3, 3) and (4, 4), and
# 10.5 for (1, 1), where the tail map is rho = 1 + t/(1 - t)
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


def radial_integral_rows(rows: Callable, passes: int, spec: QuadratureSpec = QuadratureSpec()):
    """Integrals over [0, oo) of algebraically decaying row integrands, passes sets of them in lockstep.

    Every pass integrates q row integrands (weight included) over
    radial_integral's pieces for an algebraic profile without breakpoints,
    [0, 1] and the tail past 1, each in a graded variable x in [0, 1]:
    rho = x^2 on [0, 1] and rho = (1 - x)^-2 on the tail, so that an
    algebraic power of rho at 0 or at infinity is a milder one in x (rho^-1/2
    at 0 and rho^-3/2 at infinity become constants).  Each pass runs on its
    own G7/K15 mesh under radial_integral's rule, guard and error texts:
    every row must meet the rule on its own, and the panel bisected next has
    the largest row error relative to that row's value after the first
    sweep.  Each round evaluates one bisection of every pass still refining
    (in the first, both pieces of every pass) from one call of
    rows(rho, which): rho of shape (k, 2, 15) holds the nodes of both halves
    of k bisections, which of shape (k,) the pass of each, and rows returns
    the (k, q, 2, 15) integrand values.  A pass keeps its own heap, sums and
    checks, so it gives what it gives alone; it leaves once it meets the
    rule, and one that fails drops the passes after it.  A value outside the
    float range at a node, or an integral outside it over a piece, raises
    QuadratureError naming the node or the piece; panels and nodes are named
    in rho.  Returns an iterator over the (values, error_estimates,
    evaluations) of the passes in order, arrays of q and q evaluations per
    node, which raises the error of the first failing pass after the results
    of the passes before it, as a loop of one pass at a time would.
    """
    tol = spec.relative_tolerance
    # per pass: a heap of (-key, piece, a, b, K, |K - G|), piece 1 the tail,
    # the running sums and the evaluations; scale holds 1 / |value| of every
    # row of every pass after the first sweep
    heaps = [[] for _ in range(passes)]
    value, error, evals, scale = [0.0] * passes, [0.0] * passes, [0] * passes, None
    results, stop, failure = [None] * passes, passes, None  # the passes from stop on are dropped
    live = range(passes)
    todo = [(j, i, 0.0, 0.5, 1.0) for j in live for i in (0, 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        while todo:
            # centres and half-widths of both halves of every bisection, and
            # their nodes in x, (bisection, half, node)
            ch = np.array([
                (0.5 * (a + mid), 0.5 * (mid + b), 0.5 * (mid - a), 0.5 * (b - mid)) for *_, a, mid, b in todo
            ])
            c, h = ch[:, :2, None], ch[:, 2:, None]
            x = c + h * _NODES
            # the nodes in rho and d rho / dx, each bisection on its piece's map
            tails = [i for _, i, *_ in todo]
            if min(tails) == max(tails):
                rho, jac = _graded(x, tails[0])
            else:
                tail = np.array(tails, dtype=bool)
                rho, jac = np.empty_like(x), np.empty_like(x)
                rho[tail], jac[tail] = _graded(x[tail], 1)
                rho[~tail], jac[~tail] = _graded(x[~tail], 0)
            which = np.array([j for j, *_ in todo])
            f = rows(rho, which)
            q = f.shape[1]
            v = f * jac[:, None]
            # K and |K - G| of both halves of every row, (bisection, K or
            # |K - G|, half, row), and both summed over the halves
            kd = (v.reshape(-1, 2, _NODE_COUNT) @ _GK15_WEIGHTS).reshape(-1, q, 2, 2)
            kd = kd.transpose(0, 3, 2, 1) * h[:, None]
            ks, es = kd[:, 0], np.abs(kd[:, 1], out=kd[:, 1])
            sums = kd.sum(axis=2)
            if scale is None:  # the first sweep: both pieces of every pass
                scale = 1.0 / np.maximum(np.abs(sums[0::2, 0] + sums[1::2, 0]), _TINY)
            keys = (es * scale[which][:, None]).max(axis=2).tolist()
            # the Kronrod weights are positive: a value outside the float
            # range leaves its K outside it too
            finite = np.isfinite(ks)
            finite = [True] * len(todo) if finite.all() else finite.all(axis=(1, 2)).tolist()
            for r, (j, i, a, mid, b) in enumerate(todo):
                if not finite[r]:
                    piece = _in_rho(0.0, 1.0, _GRADED_MAPS[i])
                    stop, failure = j, QuadratureError(
                        _overflow(f[r].reshape(q, -1), rho[r].ravel(), ks[r], i, heaps[j], piece)
                    )
                    break
                (kl, kr), (el, er), (ksum, esum), (left, right) = ks[r], es[r], sums[r], keys[r]
                heapq.heappush(heaps[j], (-left, i, a, mid, kl, el))
                heapq.heappush(heaps[j], (-right, i, mid, b, kr, er))
                value[j] += ksum
                error[j] += esum
                evals[j] += 2 * _NODE_COUNT
            todo = []
            for j in live:
                if j >= stop:
                    break
                heap = heaps[j]
                if (error[j] <= tol * np.abs(value[j])).all():
                    # the running sums drift; accept on the exact ones
                    value[j], error[j] = (
                        np.array([math.fsum(row) for row in np.array([p[col] for p in heap]).T.tolist()])
                        for col in (4, 5)
                    )
                    if (error[j] <= tol * np.abs(value[j])).all():
                        results[j] = (value[j], error[j], q * evals[j])
                        continue
                _, i, a, b, k, e = heap[0]
                cause = _stuck(len(heap), a, b, _GRADED_MAPS[i])
                if cause is not None:
                    stop, failure = j, QuadratureError(
                        f"requested tolerance {tol!r} not met {cause}: "
                        f"value={value[j].tolist()!r}, error={error[j].tolist()!r}"
                    )
                    break
                heapq.heappop(heap)
                value[j] -= k
                error[j] -= e
                todo.append((j, i, a, 0.5 * (a + b), b))
            live = [j for j, *_ in todo]
    return _in_order(results[:stop], failure)


def _in_order(results: list, failure: Optional[QuadratureError]):
    """The results, then failure raised if there is one: what a loop of one pass at a time meets."""
    yield from results
    if failure is not None:
        raise failure


def _overflow(v, rho, k, i: int, panels: list, piece: str) -> str:
    """Why a bisection's K left the float range: the first node, in the scalar
    order, where a row value is outside it (v and rho of the bisection's 30
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
    the parameters of params and names one by describe(params[i].tolist()).
    Returns (values,
    error_estimates, integrand evaluations), values and estimates of shape
    (N,), or (q, N) for q integrals per parameter.
    """
    params = np.asarray(params, dtype=float)
    count = len(params)
    todo = np.arange(count)
    values = errors = None
    tol = spec.relative_tolerance
    panels, evals, per = _FIRST_PANELS, 0, 1
    while True:
        half = 0.5 / panels
        x = ((np.arange(panels)[:, None] + 0.5) / panels + half * _GK21_NODES).ravel()
        weights = half * _GK21_WEIGHTS
        start = 0
        # values outside the float range are caught below, with their parameter
        with np.errstate(over="ignore", invalid="ignore"):
            # one block at least: the block of an empty grid still tells q
            while True:
                # until the first block tells, one integral per parameter
                idx = todo[start:start + max(1, _BLOCK_VALUES // (per * x.size))]
                start += idx.size
                f = integrand(x, params[idx, None])
                if values is None:
                    values = np.empty(f.shape[:-2] + (count,))
                    errors = np.empty(values.shape)
                    per = math.prod(f.shape[:-2])
                # K and K - G of every panel of the block in one product; the
                # block's values are dropped before the next block is evaluated
                kd = (f.reshape(-1, _GK21_NODES.size) @ weights).reshape(
                    f.shape[:-2] + (idx.size, panels, 2))
                del f
                values[..., idx] = kd[..., 0].sum(axis=-1)
                errors[..., idx] = np.abs(kd[..., 1]).sum(axis=-1)
                if start >= todo.size:
                    break
        evals += todo.size * x.size
        # one row per integral of a parameter, one column per parameter
        val = values[..., todo].reshape(per, todo.size)
        err = errors[..., todo].reshape(per, todo.size)
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


def flat_gaussian_moments(rows: Sequence[tuple], spec: QuadratureSpec = QuadratureSpec()) -> list[IntegralResult]:
    """int_0^oo f(s) s^k e^(-s^2) ds for every row (k, f), from one gauss_kronrod_batch pass.

    Every gaussian row of flat space is one of these rate-free moments times
    an exact power of its rate, in s = rho sqrt(rate).  f is None for 1 or
    a function of the node positions s.  The rows share one node set on
    [0, S], S the root of s^2 - K s = budget, K the largest k of rows: the
    tail bound _truncation_radius puts on rho^K at rate 1, absolute, and
    relative too for f = None, since every such moment is at least
    Gamma(1.4616) / 2 > 0.44.  At rate 1 the peak of s^K e^(-s^2) needs no
    more room (_peak_root at a = 1 lies before S for K = 1..199 at 1e-6 to
    1e-14).  Returns one IntegralResult per row, each counting every
    evaluation of the pass.
    """
    top = max(k for k, _ in rows)
    S = (top + math.sqrt(top * top + 4 * _tail_budget(spec.relative_tolerance))) / 2

    def integrand(x, p):
        # one parameter, which no row reads; rows of one k share one exp
        s = S * x[None]
        log_s, s2 = np.log(s), s * s
        bases = {k: S * np.exp(k * log_s - s2) for k in {k for k, _ in rows}}
        return np.stack([bases[k] if f is None else f(s) * bases[k] for k, f in rows])

    values, errors, evals = gauss_kronrod_batch(integrand, np.zeros(1), spec)
    return [IntegralResult(v, e, len(rows) * evals) for v, e in zip(values[:, 0].tolist(), errors[:, 0].tolist())]


def gaussian_integrals(
    rows: Sequence[tuple],
    params,
    spec: QuadratureSpec = QuadratureSpec(),
    describe: Callable[[object], str] = repr,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Gaussian volume integrals on the ball, q rows on one set of nodes, for every parameter.

    Row (k, f) is n omega_n int_0^oo f(rho) sinh^k(rho) e^(-rate rho^2 - 2 beta rho) d rho,
    n = k + 1, f None for 1 or a function of the node radii rho and the
    parameter column p (see gauss_kronrod_batch); params holds (rate, beta)
    pairs, rate > 0 and beta >= 0, shape (N, 2).  Every row is taken in
    s = rho sqrt(rate) over [0, S], with K the largest k of rows and S of
    each parameter:
      * the root of s^2 - g s = budget, g = max(K - 2 beta, 0) / sqrt(rate):
        the tail bound _truncation_radius puts on a sinh^K weight, with
        e^(-2 beta rho) taken into the exponent.  The bound is absolute.
        At rate <= 2K/3 it is relative as well: with beta = 0 the bound
        2^-K e^(K rho - rate rho^2) at S is at most e^-budget times the
        integrand at rho = K / (2 rate) >= 3/4.  At large rates, where the
        integral is of order rate^(-K/2), it is not;
      * raised where the peak needs it.  With b = 2 beta / sqrt(rate) and
        a = 1 - K / (6 rate), s^K e^(-a s^2 - b s) bounds the integrand
        times rate^(K/2) from above (sinh rho <= rho e^(rho^2 / 6)), and
        t^K e^(-t^2 - b t), t = sqrt(K/2), bounds its peak from below
        (sinh rho >= rho).  At rate > 2K/3 (a > _PEAK_GATE) S is at least
        the s past the first one's peak where it has fallen to tol times
        the second, the root of each parameter (_peak_cut), checked only
        for the K that _peak_free does not clear (K >= 10 at 1e-12,
        K >= 15 at 1e-9).  s^K e^(-s^2) peaks at sqrt(K/2), so this moves
        S for large K at large rates only, leaving a tail of about tol / 14
        that the error estimates do not count; no row of perfbench's
        catalogues or of tests/golden moves.
    The integrand S e^(k log sinh rho - s^2 - 2 beta rho) is formed in log
    space, so it stays finite where sinh^k alone would overflow (small
    rates); rows of one k share one exp, taken in place in the exponent's
    array, and a row with an f is written by one product into the output.
    On gauss_kronrod_batch's G10/K21 rule, a parameter is refined until
    every row meets the tolerance.  Returns (values, error_estimates,
    evaluations): values and estimates of shape (q, N), each
    n omega_n / sqrt(rate) times its integral in s; evaluations count every
    value of every row, q per node.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != 2:
        raise ValueError(f"params must be (rate, beta) pairs of shape (N, 2), got shape {params.shape}")
    top = max(k for k, _ in rows)
    budget = _tail_budget(spec.relative_tolerance)
    # none moves where _peak_free says so, and an S at or past this bound
    # stands at every a > _PEAK_GATE and b (_peak_cut)
    loose = _peak_bound(top, math.log(spec.relative_tolerance))
    check = not _peak_free(top, spec.relative_tolerance)

    def integrand(x, p):
        rate, beta = p[..., 0], p[..., 1]
        root = np.sqrt(rate)
        g = np.maximum(top - 2 * beta, 0) / root
        S = (g + np.sqrt(g * g + 4 * budget)) / 2
        if check and S.min(initial=math.inf) < loose:
            S = _peak_cut(S, top, spec.relative_tolerance, 1 - top / (6 * rate), 2 * beta / root)
        s = S * x
        rho = s / root
        s2 = s * s
        # log sinh rho = rho + log(1 - e^(-2 rho)) - log 2
        log_w = rho + np.log(-np.expm1(-2 * rho)) - math.log(2)
        bases = {}
        for k in dict.fromkeys(k for k, _ in rows):
            # S e^(k log w - s s - 2 beta rho), in place in the exponent's array
            e = k * log_w - s2
            e -= 2 * beta * rho
            bases[k] = np.multiply(S, np.exp(e, out=e), out=e)
        out = np.empty((len(rows),) + rho.shape)
        for row, (k, f) in zip(out, rows):
            if f is None:
                row[...] = bases[k]
            else:
                np.multiply(f(rho, p), bases[k], out=row)
        return out

    values, errors, evals = gauss_kronrod_batch(integrand, params, spec, describe)
    c = np.array([(k + 1) * ball_volume_constant(k + 1) for k, _ in rows])[:, None] / np.sqrt(params[:, 0])
    return c * values, c * errors, len(rows) * evals


# Newton steps of the peak cut: from its start they reach the root within
# 1e-14 in at most 9 steps for K up to 5000, and every step is a cut that holds
_PEAK_STEPS = 8
# sinh rows take the peak cut where a = 1 - K / (6 rate) exceeds this, rate >
# 2K/3; below, the budget cut's bound 2^-K e^(K rho - rate rho^2) at S is at
# most e^-budget times the integrand at rho = K / (2 rate) >= 3/4, for beta = 0
_PEAK_GATE = 0.75


def _peak_psi(K: int, log_tol: float, a, b) -> tuple:
    """psi of _peak_cut and its derivative in s."""
    t = math.sqrt(K / 2)
    c = K * math.log(t) - t * t + log_tol
    return (lambda s: K * np.log(s) - s * (a * s + b) + b * t - c), (lambda s: K / s - 2 * a * s - b)


def _peak_root(K: int, log_tol: float, a, b=0.0):
    """The root of psi past the peak of s^K e^(-a s^2 - b s), a > 0.

    psi is concave with psi'' <= -2a, so psi <= 0 at peak + sqrt(psi(peak) / a);
    Newton from there stays at or right of the root, since a tangent of a
    concave function lies above it.
    """
    psi, slope = _peak_psi(K, log_tol, a, b)
    peak = (np.sqrt(b * b + 8 * K * a) - b) / (4 * a)
    s = peak + np.sqrt(psi(peak) / a)
    for _ in range(_PEAK_STEPS):
        s = s - psi(s) / slope(s)
    return s


@functools.lru_cache(maxsize=None)
def _peak_bound(K: int, log_tol: float) -> float:
    """_peak_root at a = _PEAK_GATE and b = 0, 0.0 for K = 0: an S that no
    a past the gate and b >= 0 moves."""
    return float(_peak_root(K, log_tol, _PEAK_GATE)) if K else 0.0


@functools.lru_cache(maxsize=None)
def _peak_free(K: int, tol: float) -> bool:
    """Whether psi (_peak_cut) is below 0 at the budget cut of every sinh parameter past the gate.

    With q = rate^(-1/2) and beta <= K/2, g = (K - 2 beta) q, the budget
    cut S depends on g alone and b = K q - g; for a fixed g, psi is convex
    in q, so over the live q in [g/K, q_g), q_g the gate's, its supremum is
    at q = g/K (beta = 0) or at q_g.  Past beta = K/2, g = 0 and a larger b
    only lowers psi (S >= sqrt(budget) > t).  Both ends are taken on a grid
    of g in [0, K q_g], and the largest is raised by half a step times a
    bound on their slopes.
    """
    budget, log_tol = _tail_budget(tol), math.log(tol)
    if K == 0 or K >= 2 * budget:
        return K == 0
    t, qg = math.sqrt(K / 2), math.sqrt(6 * (1 - _PEAK_GATE) / K)
    c = K * math.log(t) - t * t + log_tol
    g = np.linspace(0.0, K * qg, 4097)
    S = (g + np.sqrt(g * g + 4 * budget)) / 2
    ends = (
        K * np.log(S) - S * S * (1 - g * g / (6 * K)) - c,
        K * np.log(S) - _PEAK_GATE * S * S - (K * qg - g) * (S - t) - c,
    )
    # dS/dg lies in (0, 1]; |d/dg| of either end is at most this
    G, top = g[-1], S[-1]
    slope = K / math.sqrt(budget) + 3 * top + K * qg + G * top * (G + top) / (3 * K)
    return max(e.max() for e in ends) + slope * G / 4096 / 2 < 0


def _peak_cut(S, K: int, tol: float, a, b=0.0):
    """S raised where a > _PEAK_GATE and the peak needs it: the cut of gaussian_integrals.

    psi(s) = ln(s^K e^(-a s^2 - b s) / (t^K e^(-t^2 - b t))) - ln tol, with
    t = sqrt(K/2), falls past the peak of s^K e^(-a s^2 - b s).  S stands
    where it lies past that peak with psi(S) <= 0, and elsewhere becomes the
    root of psi (_peak_root).  psi falls as a and b grow (S > t), so an S
    at or past _peak_bound(K, ln tol) stands at every a past
    the gate and every b.  Every S here is at least sqrt(_tail_budget(tol)).
    """
    log_tol = math.log(tol)
    psi, _ = _peak_psi(K, log_tol, a, b)
    ok = psi(S) <= 0
    # past the gate the peak lies before sqrt(K), so before S for K < budget
    if K >= _tail_budget(tol):
        ok &= K < S * (2 * a * S + b)
    ok |= a <= _PEAK_GATE
    if ok.all():
        return S
    # where S stands, a = 1 keeps the steps finite; the maximum keeps an S
    # that rounding put on the wrong side of psi = 0
    return np.where(ok, S, np.maximum(S, _peak_root(K, log_tol, np.where(ok, 1.0, a), b)))


# the most terms a series mass takes; a small alpha, which needs more (a sum
# of sinh^k takes about k^2 / (4 alpha)), goes through gaussian_integrals
_SERIES_TERMS = 96
# the unit roundoff of a double
_UNIT = 2.0**-53


@functools.lru_cache(maxsize=None)
def _mass_series(k: int) -> tuple:
    """The series of M_k(alpha) = int_0^oo sinh^k(rho) e^(-alpha rho^2) d rho in x = 1/alpha.

    sinh^k(rho) = rho^k sum_j c_j rho^(2j), where the Taylor coefficients
    c_j of (sinh y / y)^k, a k-fold convolution of 1/(2i + 1)!, are
    positive: c_j = sum_i (-1)^i C(k, i) (k - 2i)^(k+2j) / (2^k (k + 2j)!).
    Term by term, M_k(alpha) = x^((k+1)/2) sum_j b_j x^j with
    b_j = c_j Gamma((k + 2j + 1)/2) / 2, a sum that cannot cancel.  Since
    c_j <= k^(2j) / (2j)! (coefficient by coefficient, sinh y / y is at
    most cosh y, and cosh^k y at most cosh ky), the terms from j = J on are
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
    for j in range(_SERIES_TERMS + 1):
        top = sum((-1) ** i * math.comb(k, i) * (k - 2 * i) ** (k + 2 * j) for i in range(k + 1))
        if k % 2:
            # Gamma((k + 2j + 1)/2) = h!
            h = (k - 1) // 2 + j
            ratios = ((top * math.factorial(h), 2 ** (k + 1) * math.factorial(k + 2 * j)),
                      (k ** (2 * j) * math.factorial(h), 2 * math.factorial(2 * j)))
        else:
            # Gamma(h + 1/2) = (2h)! sqrt(pi) / (4^h h!), 2h = k + 2j
            h = k // 2 + j
            ratios = ((top, 2 ** (k + 1) * 4**h * math.factorial(h)),
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
    alpha.  Every alpha must be positive and finite.  Every mass is
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
    finite, _checked_parameters).  u^2 is the
    gaussian e^(-2 alpha rho^2) times e^(-2 beta rho) <= 1, so the integrals
    come from one gaussian_integrals pass at the rate 2 alpha.  Returns
    (moments, error_estimates, evaluations); moments[0], [1] and [2] are A,
    M and L, moments[3 + i] the integral of weights[i], each of the
    broadcast shape.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    alphas, betas = np.broadcast_arrays(
        _checked_parameters("alpha", alphas), _checked_parameters("beta", betas, zero=True)
    )
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

    grid = np.stack([2 * alphas.ravel(), betas.ravel()], axis=1)
    values, errors, evals = gaussian_integrals(rows, grid, spec, describe)
    shape = (len(rows),) + alphas.shape
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
