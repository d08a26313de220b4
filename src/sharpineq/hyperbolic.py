"""Radial calculus and inequality checks on the Poincare ball model.

Comparison-geometry certificates, the modified sharp uncertainty equality,
curvature-improved Hardy inequalities, the scan refuting the published
extremal-parameter equation, and numeric bounds for the plain uncertainty
constant.  Under non-positive curvature that constant is the Euclidean
n^2/4, and no extremal attains it; the bounds bracket it from a finite
trial family only.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .flat import InequalityReport, RadialFunction, _hpw, _integrals
from .norms import ball_volume_constant
from .quadrature import (
    DecayClass,
    QuadratureSpec,
    RadialProfile,
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
    "hardy_hyperbolic_report",
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


def _check_radii(rho_grid: Sequence[float]) -> None:
    for rho in rho_grid:
        if not rho > 0:
            raise ValueError(f"need rho > 0 for every rho, got rho = {rho!r}")


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


def hyp_ball_volume(n: int, rho: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Volume of the centered hyperbolic ball of radius rho."""
    prof = RadialProfile(lambda r: 1.0 if r < rho else 0.0, DecayClass.compact(rho))
    return hyperbolic_radial_volume_integral(prof, n, spec).value


def hyp_volume_ratio_check(
    n: int, rho_grid: Sequence[float], spec: QuadratureSpec = QuadratureSpec()
) -> dict:
    """Ball-volume over rho^n: non-decreasing, >= omega_n, -> omega_n at 0."""
    _check_radii(rho_grid)
    omega = ball_volume_constant(n)
    ratios = [hyp_ball_volume(n, rho, spec) / rho**n for rho in rho_grid]
    return {
        "rho": list(rho_grid),
        "ratios": ratios,
        "omega_n": omega,
        "non_decreasing": all(b >= a - 1e-10 for a, b in zip(ratios, ratios[1:])),
        "all_above_omega": all(v >= omega * (1 - 1e-12) for v in ratios),
    }


def hpw_hyperbolic_report(
    u: RadialFunction, n: int, spec: QuadratureSpec = QuadratureSpec()
) -> InequalityReport:
    """Plain uncertainty product on the model, against n^2/4.

    Strictly above the target for every nonzero input; no extremal exists.
    """
    return _hpw(u, hyperbolic_radial_volume_integral, n, spec)


def modified_hpw_report(
    n: int,
    alpha: Optional[float] = None,
    u: Optional[RadialFunction] = None,
    spec: QuadratureSpec = QuadratureSpec(),
) -> InequalityReport:
    """Uncertainty product against the curvature-corrected mass, target n^2/4.

    The corrected mass weights u^2 by 1 + ((n-1)/n)(d coth d - 1).  For the
    gaussian family e^(-alpha d^2) this is an equality; any other admissible
    u stays above the target.
    """
    if (alpha is None) == (u is None):
        raise ValueError("pass exactly one of alpha or u")
    if u is None:
        u = RadialFunction.gaussian(alpha)
    prof, du = u.profile, u.derivative
    if prof.decay.kind == "algebraic":
        raise ValueError("gaussian decay is mandatory against the volume growth")
    A, M, W = _integrals(
        u, hyperbolic_radial_volume_integral, n, spec,
        (lambda r: du(r) ** 2, 2),
        (lambda r: r**2 * prof(r) ** 2, 2),
        (lambda r: (1 + (n - 1) / n * curvature_defect(-1.0, r)) * prof(r) ** 2, 2),
    )
    return InequalityReport.product(A, M, W, n**2 / 4)


def hardy_hyperbolic_report(
    u: RadialFunction, n: int, spec: QuadratureSpec = QuadratureSpec()
) -> tuple[InequalityReport, InequalityReport]:
    """Quantitative and improved Hardy on the model, both with target 1.

    Report 1: Dirichlet energy against the defect-weighted Hardy integral with
    constant (n-2)^2/4.  Report 2: the continued-fraction relaxation, with the
    remainder weight 1/(pi^2 + d^2).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    prof, du = u.profile, u.derivative
    if prof.decay.kind == "algebraic":
        raise ValueError("gaussian decay is mandatory against the volume growth")
    A, H1, H2, H3 = _integrals(
        u, hyperbolic_radial_volume_integral, n, spec,
        (lambda r: du(r) ** 2, 2),
        (lambda r: (1 + 2 * (n - 1) / (n - 2) * curvature_defect(-1.0, r)) * prof(r) ** 2 / r**2, 2),
        (lambda r: prof(r) ** 2 / r**2, 2),
        (lambda r: prof(r) ** 2 / (math.pi**2 + r**2), 2),
    )
    if H1.value == 0:
        raise ValueError("zero test function")
    hardy = (n - 2) ** 2 / 4
    return (
        InequalityReport.normalised(A, (hardy, H1)),
        InequalityReport.normalised(A, (hardy, H2), (3 * (n - 1) * (n - 2) / 2, H3)),
    )


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
    the whole grid at once by hyperbolic_gaussian_masses.  Returns every
    bracketing interval with a sign change (an empty list means the equation
    has no root on the range), the worst relative error estimate of the
    masses and the integrand evaluations spent on them.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    lo, hi = alpha_range
    if not (0 < lo < hi):
        raise ValueError("alpha range must be positive and increasing")
    if grid_size < 2:
        return {"alphas": [], "phi": [], "brackets": [], "worst_rel_err": 0.0, "nodes_used": 0}
    alphas = np.linspace(lo, hi, grid_size)
    c_small, err_small, evals_small = hyperbolic_gaussian_masses(n - 2, alphas, spec)
    c_big, err_big, evals_big = hyperbolic_gaussian_masses(n, alphas, spec)
    phi = (n - 1) / (n - 2) * (n - 1 + 2 * math.pi * c_small / c_big) - alphas
    return {
        "alphas": alphas.tolist(),
        "phi": phi.tolist(),
        "brackets": _sign_change_brackets(alphas, phi),
        "worst_rel_err": float(max(np.max(err_small / c_small), np.max(err_big / c_big))),
        "nodes_used": evals_small + evals_big,
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
    evaluations spent on them.
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if alphas.size == 0 or betas.size == 0:
        raise ValueError("need at least one alpha and one beta")
    moments, errors, evals = hyperbolic_gaussian_moments(n, alphas[:, None], betas[None, :], spec)
    A, M, L = moments
    if np.any(L == 0):
        raise ValueError("zero test function")
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
