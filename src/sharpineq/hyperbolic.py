"""Radial calculus and inequality checks on the Poincare ball model.

Comparison-geometry certificates, the modified sharp uncertainty equality,
curvature-improved Hardy inequalities, the scan refuting the published
extremal-parameter equation, and numeric bounds for the plain uncertainty
constant.  Under non-positive curvature that constant is the Euclidean
n^2/4, and no extremal attains it; the bounds bracket it from a finite
trial family only.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .flat import (
    InequalityReport,
    RadialFunction,
    _energy_col,
    _hardy_col,
    _hpw,
    _integrals,
    _moment_col,
)
from .norms import ball_volume_constant
from .quadrature import (
    DecayClass,
    IntegralResult,
    QuadratureSpec,
    RadialProfile,
    _gaussian_rates,
    _ratio_terms,
    _volume_ratio_series,
    gaussian_integrals,
    hyperbolic_gaussian_masses,
    hyperbolic_gaussian_moments,
    hyperbolic_radial_volume_integral,
)

__all__ = [
    "ct",
    "curvature_defect",
    "hyp_distance",
    "conformal_factor",
    "RadialHypFunction",
    "radial_laplacian",
    "laplace_comparison_check",
    "hyp_volume_ratio_check",
    "hyp_ball_volume",
    "hpw_hyperbolic_report",
    "modified_hpw_report",
    "modified_hpw_reports",
    "hardy_hyperbolic_report",
    "gaussian_hardy_hyperbolic_reports",
    "ko_alpha_scan",
    "hpw_constant_bounds",
]


def ct(c: float, rho: float) -> float:
    """Comparison cotangent for curvature bound c <= 0."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    if c > 0:
        raise ValueError("curvature bound must be <= 0")
    if c == 0:
        return 1.0 / rho
    s = math.sqrt(-c)
    return s / math.tanh(s * rho)


def curvature_defect(c: float, rho: float) -> float:
    """Nonnegative defect rho * ct_c(rho) - 1, continuous at 0."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if rho == 0:
        return 0.0
    return rho * ct(c, rho) - 1.0


def conformal_factor(x: np.ndarray) -> float:
    """Metric factor 2 / (1 - |x|^2) of the ball model."""
    r2 = float(np.dot(x, x))
    if r2 >= 1:
        raise ValueError("point must lie strictly inside the unit ball")
    return 2.0 / (1.0 - r2)


def hyp_distance(x: np.ndarray) -> float:
    """Distance from the origin in the ball model: ln((1+|x|)/(1-|x|))."""
    r = float(np.linalg.norm(x))
    if r >= 1:
        raise ValueError("point must lie strictly inside the unit ball")
    return math.log((1 + r) / (1 - r))


# the radial test function of hyperbolic distance, under its older name
RadialHypFunction = RadialFunction


def radial_laplacian(u: Callable, du: Callable, d2u: Callable, n: int, rho: float) -> float:
    """Laplace-Beltrami of a radial function on the curvature -1 model."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return d2u(rho) + (n - 1) / math.tanh(rho) * du(rho)


def _check_radii(rho_grid: Sequence[float], finite: bool = False) -> None:
    for rho in rho_grid:
        if not rho > 0:
            raise ValueError(f"need rho > 0 for every rho, got rho = {rho!r}")
        if finite and rho == math.inf:
            raise ValueError(f"need a finite rho for every rho, got rho = {rho!r}")


def laplace_comparison_check(n: int, c_list: Sequence[float], rho_grid: Sequence[float]) -> dict:
    """Distance-Laplacian lower bound (n-1) ct_c on the model space.

    Equality for c = -1 (the model curvature); strict inequality for the
    weaker bound c = 0.
    """
    _check_radii(rho_grid)
    rows = []
    for c in c_list:
        if c not in (0.0, -1.0):
            raise ValueError("only c in {0, -1} is meaningful on this model")
        for rho in rho_grid:
            lap = (n - 1) / math.tanh(rho)  # exact radial Laplacian of d
            bound = (n - 1) * ct(c, rho)
            rows.append(
                {
                    "c": c,
                    "rho": rho,
                    "laplacian": lap,
                    "bound": bound,
                    "defect": lap - bound,
                }
            )
    return {
        "rows": rows,
        "max_equality_defect": max(
            (abs(r["defect"]) for r in rows if r["c"] == -1.0), default=0.0
        ),
        "min_strict_defect": min(
            (r["defect"] for r in rows if r["c"] == 0.0), default=math.inf
        ),
    }


def _volume_ratio(n: int, rho: float, spec: QuadratureSpec) -> float:
    """V(rho) / rho^n: the series of _volume_ratio_series, past its term cap the volume integral over rho^n."""
    ratio = _volume_ratio_series(n, rho, spec.relative_tolerance)
    if ratio is not None:
        return ratio.value
    prof = RadialProfile(lambda r: 1.0 if r < rho else 0.0, DecayClass.compact(rho))
    return hyperbolic_radial_volume_integral(prof, n, spec).value / rho**n


def hyp_ball_volume(n: int, rho: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Volume of the centered hyperbolic ball of radius rho, for n >= 1 and rho positive and finite.

    rho^n times hyp_volume_ratio_check's ratio V(rho) / rho^n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _check_radii([rho], finite=True)
    return _volume_ratio(n, rho, spec) * rho**n


def hyp_volume_ratio_check(
    n: int, rho_grid: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> dict:
    """Ball-volume over rho^n: non-decreasing, >= omega_n, -> omega_n at 0.

    non_decreasing allows each ratio a drop of 1e-10 relative to the one
    before it, and all_above_omega each ratio 1e-12 relative to omega_n:
    a slack relative to the ratios sees a drop among ratios of any size.

    V(rho) / rho^n = n omega_n sum_j a_j rho^(2j), a_j = c_j / (n + 2j) with
    c_j the positive Taylor coefficients of (sinh y / y)^(n-1), is summed in
    Python floats until its tail bound is below a unit roundoff of the sum,
    and serves when that bound plus the rounding bound is within
    relative_tolerance of the sum (quadrature._volume_ratio_series).  The
    sum takes about (n - 1) rho / 2 plus 7 to 45 terms; a rho whose sum
    needs more terms than the series holds or overflows first (from
    (n - 1) rho of 76 to 89 on, n = 2..8), or misses the tolerance, takes V(rho) from
    hyperbolic_radial_volume_integral of the ball's indicator instead, as
    the gaussian masses fall back.  Every rho must be positive and finite,
    and n at least 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _check_radii(rho_grid, finite=True)
    omega = ball_volume_constant(n)
    ratios = [_volume_ratio(n, rho, spec) for rho in rho_grid]
    return {
        "rho": list(rho_grid),
        "ratios": ratios,
        "omega_n": omega,
        "non_decreasing": all(b >= a * (1 - 1e-10) for a, b in zip(ratios, ratios[1:])),
        "all_above_omega": all(v >= omega * (1 - 1e-12) for v in ratios),
    }


def hpw_hyperbolic_report(
    u: RadialFunction, n: int, spec: QuadratureSpec = QuadratureSpec()
) -> InequalityReport:
    """Plain uncertainty product on the model, against n^2/4.

    Strictly above the target for every nonzero input; no extremal exists.
    """
    return _hpw(u, "sinh-power", n, spec)


def modified_hpw_report(
    n: int,
    alpha: Optional[float] = None,
    u: Optional[RadialFunction] = None,
    spec: QuadratureSpec = QuadratureSpec(),
) -> InequalityReport:
    """Uncertainty product against the curvature-corrected mass, target n^2/4.

    The corrected mass W weights u^2 by 1 + ((n-1)/n)(d coth d - 1).  For the
    gaussian family e^(-alpha d^2) this is an equality; any other admissible
    u stays above the target.  Given alpha, the report comes from
    modified_hpw_reports' batched pass; given u, from one radial_integrals
    pass over the three integrals.
    """
    if (alpha is None) == (u is None):
        raise ValueError("pass exactly one of alpha or u")
    if u is None:
        return modified_hpw_reports(n, [alpha], spec)[0][0]
    if u.profile.decay.kind == "algebraic":
        raise ValueError("gaussian decay is mandatory against the volume growth")
    c = (n - 1) / n
    # 1 + c x the curvature defect rho coth rho - 1
    A, M, W = _integrals(
        u, "sinh-power", n, spec,
        (_energy_col, 2),
        (_moment_col, 2),
        (lambda rs, us, ds, ws: [(1 + c * (r / math.tanh(r) - 1)) * v * v * w for r, v, w in zip(rs, us, ws)], 2),
    )
    return InequalityReport.product(A, M, W, n**2 / 4)


def modified_hpw_reports(
    n: int, alphas: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> list[tuple[InequalityReport, InequalityReport]]:
    """The modified and the plain uncertainty reports of e^(-alpha d^2), for every alpha.

    A, M, the mass L and the curvature-corrected mass W of modified_hpw_report
    come from one hyperbolic_gaussian_moments pass over the alphas.  Returns
    one (A M / W^2, A M / L^2) pair of reports per alpha, both against n^2/4:
    the equality of modified_hpw_report and the strict inequality of
    hpw_hyperbolic_report.  An A M, W^2 or L^2 that is 0 or overflows is a
    QuadratureError that names its alpha.

    The equality is exact: rho coth rho sinh^(n-1) = (rho / (n-1)) (sinh^(n-1))',
    so by parts int rho coth rho u^2 sinh^(n-1) = (4 alpha M - L) / (n - 1)
    for u = e^(-alpha rho^2), whence W = (4 alpha / n) M, and with
    A = 4 alpha^2 M, A M / W^2 = n^2 / 4.
    """
    c = (n - 1) / n
    moments, errors, evals = hyperbolic_gaussian_moments(
        n, alphas, 0.0, spec, [lambda rho: 1 + c * (rho / np.tanh(rho) - 1)]
    )
    A, M, L, W = moments.tolist()
    _ratio_terms(A, M, [W, L], alphas, lambda a: f"alpha = {a!r} for n = {n}")
    reports = []
    for values, estimates in zip(moments.T.tolist(), errors.T.tolist()):
        A, M, L, W = (IntegralResult(v, e, evals) for v, e in zip(values, estimates))
        reports.append(tuple(InequalityReport.product(A, M, mass, n**2 / 4) for mass in (W, L)))
    return reports


def hardy_hyperbolic_report(
    u: RadialFunction, n: int, spec: QuadratureSpec = QuadratureSpec()
) -> tuple[InequalityReport, InequalityReport]:
    """Quantitative and improved Hardy on the model, both with target 1.

    Report 1: Dirichlet energy against the defect-weighted Hardy integral with
    constant (n-2)^2/4.  Report 2: the continued-fraction relaxation, with the
    remainder weight 1/(pi^2 + d^2).  For u = d e^(-a d^2),
    gaussian_hardy_hyperbolic_reports takes the four integrals from one
    batched pass.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if u.profile.decay.kind == "algebraic":
        raise ValueError("gaussian decay is mandatory against the volume growth")
    c, pi2 = 2 * (n - 1) / (n - 2), math.pi**2
    # 1 + c x the curvature defect rho coth rho - 1
    A, H1, H2, H3 = _integrals(
        u, "sinh-power", n, spec,
        (_energy_col, 2),
        (lambda rs, us, ds, ws: [
            (1 + c * (r / math.tanh(r) - 1)) * v * v / (r * r) * w for r, v, w in zip(rs, us, ws)
        ], 2),
        (_hardy_col, 2),
        (lambda rs, us, ds, ws: [v * v / (pi2 + r * r) * w for r, v, w in zip(rs, us, ws)], 2),
    )
    if H1.value == 0:
        raise ValueError("zero test function")
    return _hardy_pair(n, A, H1, H2, H3)


def _hardy_pair(n: int, A: IntegralResult, H1: IntegralResult, H2: IntegralResult, H3: IntegralResult) -> tuple:
    """The quantitative and the improved Hardy report from the energy A and the Hardy integrals H1, H2, H3."""
    hardy = (n - 2) ** 2 / 4
    return (
        InequalityReport.normalised(A, (hardy, H1)),
        InequalityReport.normalised(A, (hardy, H2), (3 * (n - 1) * (n - 2) / 2, H3)),
    )


def gaussian_hardy_hyperbolic_reports(
    n: int, rates: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> list[tuple[InequalityReport, InequalityReport]]:
    """hardy_hyperbolic_report of u = d e^(-a d^2) for every a of rates.

    u^2/rho^2 = e^(-2 a rho^2) and (u')^2 = (1 - 2 a rho^2)^2 e^(-2 a rho^2),
    so the energy and the three Hardy integrals are the rows
    (1 - 2 a rho^2)^2, 1 + 2(n-1)/(n-2) (rho coth rho - 1), 1 and
    rho^2/(pi^2 + rho^2) of one gaussian_integrals pass at (2a, 0).  Every
    a must be positive and finite with 2a finite, and an integral outside
    the normal floats is a QuadratureError that names its a.  Returns one
    (quantitative, improved) pair of reports per a, both with target 1.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rates = _gaussian_rates("a", rates)
    c = 2 * (n - 1) / (n - 2)
    # p holds (2a, 0)
    rows = [
        lambda rho, p: (1 - p[..., 0] * rho * rho) ** 2,
        lambda rho, p: 1 + c * (rho / np.tanh(rho) - 1),
        None,
        lambda rho, p: rho * rho / (math.pi**2 + rho * rho),
    ]
    grid = np.stack([rates, np.zeros(rates.size)], axis=1)
    values, errors, evals = gaussian_integrals(
        [(n - 1, f) for f in rows], grid, spec, lambda p: f"a = {p[0] / 2!r} for n = {n}")
    return [
        _hardy_pair(n, *(IntegralResult(v, e, evals) for v, e in zip(vs, es)))
        for vs, es in zip(values.T.tolist(), errors.T.tolist())
    ]


def _sign_change_brackets(alphas: np.ndarray, phi: np.ndarray) -> list:
    """(alphas[i], alphas[i + 1]) for every i with phi[i] == 0 or a sign change after it."""
    positive = phi > 0
    hits = np.flatnonzero((phi[:-1] == 0.0) | (positive[:-1] != positive[1:]))
    return [(float(alphas[i]), float(alphas[i + 1])) for i in hits]


def ko_alpha_scan(
    n: int,
    alpha_range: tuple[float, float],
    grid_size: int = 4096,
    spec: QuadratureSpec = QuadratureSpec(),
) -> dict:
    """Scan the published extremal-parameter equation for solutions.

    Phi(alpha) = ((n-1)/(n-2)) (n-1 + 2 pi C_{n-2}(alpha)/C_n(alpha)) - alpha
    where C_k is the gaussian mass on the k-dimensional model, computed for
    the whole grid at once by hyperbolic_gaussian_masses: each mass a
    positive series in 1/alpha, summed until its tail bound is below a unit
    roundoff of the sum, except at an alpha too small for the series' term
    cap, whose two masses come from one Gauss-Kronrod pass on the node set
    of C_n.  Returns the alphas and Phi as arrays (empty for a grid_size
    below 2), every bracketing interval with a sign change (an empty list
    means the equation has no root on the range), the worst relative error
    estimate of the masses and the work spent on them: the series terms,
    and one integrand evaluation per mass and node of the Gauss-Kronrod
    pass.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    lo, hi = alpha_range
    if not (0 < lo < hi < math.inf):
        raise ValueError(f"alpha range must be positive, finite and increasing, got {alpha_range!r}")
    if grid_size < 2:
        return {"alphas": np.empty(0), "phi": np.empty(0), "brackets": [], "worst_rel_err": 0.0, "nodes_used": 0}
    alphas = np.linspace(lo, hi, grid_size)
    masses, errors, evals = hyperbolic_gaussian_masses((n - 2, n), alphas, spec)
    c_small, c_big = masses
    phi = (n - 1) / (n - 2) * (n - 1 + 2 * math.pi * c_small / c_big) - alphas
    return {
        "alphas": alphas,
        "phi": phi,
        "brackets": _sign_change_brackets(alphas, phi),
        "worst_rel_err": float(np.max(errors / masses)),
        "nodes_used": evals,
    }


def hpw_constant_bounds(
    n: int,
    alphas: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    betas: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    spec: QuadratureSpec = QuadratureSpec(),
) -> dict:
    """Numeric bounds for the sharp constant of the plain inequality.

    The constant is n^2/4, as on flat space, and no extremal attains it.
    Lower bound n^2/4 (validity); upper bound the smallest uncertainty ratio
    A M / L^2 over the trial family e^(-alpha d^2 - beta d) on the grid
    alphas x betas, its moments from one hyperbolic_gaussian_moments pass.
    The minimum is only an upper bound for the grid: on the default grid its
    argmin sits on the edge alpha = 8 for every n from 3 to 8.  Also returns
    the worst relative error estimate of the moments and the integrand
    evaluations spent on them, one per moment and node.  An A M or L^2 that
    is 0 or overflows is a QuadratureError that names its (alpha, beta).
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if alphas.size == 0 or betas.size == 0:
        raise ValueError("need at least one alpha and one beta")
    moments, errors, evals = hyperbolic_gaussian_moments(n, alphas[:, None], betas[None, :], spec)
    A, M, L = moments
    _ratio_terms(
        A.ravel().tolist(), M.ravel().tolist(), [L.ravel().tolist()],
        list(itertools.product(alphas.tolist(), betas.tolist())),
        lambda p: f"(alpha, beta) = ({p[0]!r}, {p[1]!r}) for n = {n}",
    )
    # first minimum in alpha-major order
    i, j = np.unravel_index(np.argmin(A * M / L**2), L.shape)
    return {
        "n": n,
        "lower": n**2 / 4,
        "upper": float(A[i, j] * M[i, j] / L[i, j] ** 2),
        "argmin_alpha": float(alphas[i]),
        "argmin_beta": float(betas[j]),
        "worst_rel_err": float(np.max(errors / moments)),
        "nodes_used": evals,
    }
