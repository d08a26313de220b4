"""Minkowski norm algebra on flat n-space.

Norm families, the dual (polar) norm, the Legendre map with its duality
certificate, the uniformity constant of the dual norm, and the
Busemann-Hausdorff density normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "MinkowskiNorm",
    "Covector",
    "DualityCertificate",
    "NormError",
    "norm_value",
    "dual_norm_value",
    "legendre_map",
    "uniformity_constant",
    "bh_density",
    "unit_ball_volume",
    "ball_volume_constant",
]


class NormError(ValueError):
    """Bad norm construction or evaluation input."""


def ball_volume_constant(n: int) -> float:
    """Volume of the Euclidean unit ball in dimension n."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


Covector = np.ndarray  # linear functional acting by the dot pairing


@dataclass(frozen=True)
class MinkowskiNorm:
    """A reversible Minkowski norm on R^n.

    Families:
      * ``weighted-euclidean``: F(y) = sqrt(y^T A y) for A symmetric
        positive definite;
      * ``lp``: F(y) = ||y||_p for p > 1;
      * ``custom``: user-supplied value and gradient handles (must be
        smooth off the origin).
    """

    dimension: int
    family: str
    matrix: Optional[np.ndarray] = None
    exponent: Optional[float] = None
    value_fn: Optional[Callable[[np.ndarray], float]] = None
    gradient_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _matrix_inv: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.dimension < 2:
            raise NormError("dimension must be >= 2")
        if self.family == "weighted-euclidean":
            A = np.asarray(self.matrix, dtype=float)
            if A.shape != (self.dimension, self.dimension):
                raise NormError("matrix shape mismatch")
            if not np.allclose(A, A.T, atol=1e-12):
                raise NormError("matrix must be symmetric")
            eigs = np.linalg.eigvalsh(A)
            if eigs.min() <= 0:
                raise NormError("matrix must be positive definite")
            object.__setattr__(self, "matrix", A)
            object.__setattr__(self, "_matrix_inv", np.linalg.inv(A))
        elif self.family == "lp":
            if self.exponent is None or self.exponent <= 1:
                raise NormError("lp exponent must be > 1")
        elif self.family == "custom":
            if self.value_fn is None:
                raise NormError("custom norm needs a value function")
        else:
            raise NormError(f"unknown norm family: {self.family!r}")

    # dataclass is frozen; ndarray fields make eq/hash unusable anyway
    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)


@dataclass(frozen=True)
class DualityCertificate:
    """Witness for the Legendre map: F(y) = F*(a) and a(y) = F(y) F*(a)."""

    primal_value: float
    dual_value: float
    maximizer: np.ndarray
    pairing: float

    def residuals(self) -> tuple[float, float]:
        """Relative defects of the two defining identities."""
        scale = max(abs(self.dual_value), 1e-300)
        r1 = abs(self.primal_value - self.dual_value) / scale
        r2 = abs(self.pairing - self.primal_value * self.dual_value) / max(
            abs(self.primal_value * self.dual_value), 1e-300
        )
        return r1, r2


def _check_dim(norm: MinkowskiNorm, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (norm.dimension,):
        raise NormError(
            f"vector of shape {v.shape} incompatible with dimension {norm.dimension}"
        )
    return v


def _rows_value(norm: MinkowskiNorm, y: np.ndarray, dual: bool) -> np.ndarray:
    """F, or F* if dual, of every row of the (m, n) array y; zero rows give 0.0."""
    if y.shape[1] != norm.dimension:
        raise NormError(
            f"rows of shape {y.shape} incompatible with dimension {norm.dimension}"
        )
    nonzero = np.any(y, axis=1)
    if not nonzero.all():
        out = np.zeros(len(y))
        out[nonzero] = _rows_value(norm, y[nonzero], dual)
        return out
    if norm.family == "weighted-euclidean":
        A = norm._matrix_inv if dual else norm.matrix
        return np.sqrt(np.einsum("ij,ij->i", y @ A, y))
    if norm.family == "lp":
        p = norm.exponent
        if dual:
            p = p / (p - 1)
        return np.sum(np.abs(y) ** p, axis=1) ** (1.0 / p)
    if dual:
        return np.fromiter((_dual_by_maximization(norm, a)[0] for a in y), float, len(y))
    return np.fromiter(map(norm.value_fn, y), float, len(y))


def norm_value(norm: MinkowskiNorm, y: np.ndarray) -> float | np.ndarray:
    """Evaluate F(y); zero exactly at the origin.

    y is one vector of shape (n,), or m of them as the rows of an (m, n)
    ndarray, which gives an ndarray of m values.
    """
    # rows come as an ndarray; np.ndim costs each per-point call several times this test
    if getattr(y, "ndim", 1) == 2:
        return _rows_value(norm, y.astype(float, copy=False), dual=False)
    y = _check_dim(norm, y)
    if not np.any(y):
        return 0.0
    if norm.family == "weighted-euclidean":
        return float(np.sqrt(y @ norm.matrix @ y))
    if norm.family == "lp":
        return float(np.sum(np.abs(y) ** norm.exponent) ** (1.0 / norm.exponent))
    return float(norm.value_fn(y))


def _sphere_lattice(n: int, count: int) -> np.ndarray:
    """Deterministic set of directions on the unit sphere.

    Angle grid in n = 2, golden-ratio spiral in n = 3, Philox-seeded unit
    normals otherwise; half-integer offsets keep points off the axes.
    """
    if n == 2:
        theta = (np.arange(count) + 0.5) * (2 * np.pi / count)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if n == 3:
        k = np.arange(count) + 0.5
        phi = np.arccos(1 - 2 * k / count)
        theta = np.pi * (1 + 5**0.5) * k
        return np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
            axis=1,
        )
    rng = np.random.Generator(np.random.Philox(key=0x5EED))
    pts = rng.standard_normal((count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _dual_by_maximization(norm: MinkowskiNorm, alpha: np.ndarray) -> tuple[float, np.ndarray]:
    """sup alpha(y) / F(y) by projected gradient ascent on the F-unit sphere.

    32 deterministic restarts, advanced together as the rows of one array;
    each keeps its own step and stops on its own.  The objective is
    quasi-concave on the sphere for convex F, restarts defeat local flats.

    A move is taken only on a strict increase.  After one, the step becomes
    the Barzilai-Borwein ratio s.s / s.dg of the move s and the fall dg of
    the ascent direction, when s.dg > 0; a rejected move halves the step.
    A restart stops once its predicted gain step |g|^2 is at most eps |val|
    or its move step |g| at most eps |y|, eps the machine epsilon.  If the
    best restart is still climbing after 400 iterations, NormError is raised.
    """
    eps = np.finfo(float).eps
    d = _sphere_lattice(norm.dimension, 32)
    y = d / norm_value(norm, d)[:, None]
    val = y @ alpha
    g = alpha - val[:, None] * _norm_gradient(norm, y)
    step = np.ones(len(y))
    live = np.arange(len(y))  # restarts still climbing

    def climbing(idx: np.ndarray) -> np.ndarray:
        gg = np.einsum("ij,ij->i", g[idx], g[idx])
        return (step[idx] * gg > eps * np.abs(val[idx])) & (
            step[idx] * np.sqrt(gg) > eps * np.linalg.norm(y[idx], axis=1)
        )

    for _ in range(400):
        live = live[climbing(live)]
        if live.size == 0:
            break
        cand = y[live] + step[live, None] * g[live]
        cand = cand / norm_value(norm, cand)[:, None]
        cand_val = cand @ alpha
        up = cand_val > val[live]
        step[live[~up]] *= 0.5
        moved, cand, cand_val = live[up], cand[up], cand_val[up]
        cand_g = alpha - cand_val[:, None] * _norm_gradient(norm, cand)
        s, dg = cand - y[moved], g[moved] - cand_g
        ss, sdg = np.einsum("ij,ij->i", s, s), np.einsum("ij,ij->i", s, dg)
        bb = sdg > 0
        step[moved[bb]] = ss[bb] / sdg[bb]
        y[moved], val[moved], g[moved] = cand, cand_val, cand_g
    best = int(np.argmax(val))
    if climbing(np.array([best]))[0]:
        raise NormError(
            f"dual norm of {alpha!r} not converged: the best restart is still "
            "climbing at the 400-iteration cap"
        )
    return float(val[best]), y[best]


def _norm_gradient(norm: MinkowskiNorm, y: np.ndarray) -> np.ndarray:
    """Gradient of a custom F at every row of y (rows nonzero)."""
    if norm.gradient_fn is not None:
        # reshape: no rows would otherwise give shape (0,), not (0, n)
        return np.array([norm.gradient_fn(r) for r in y], dtype=float).reshape(y.shape)
    # central differences, scaled to each point; stencil[:, i] moves coordinate i
    m, n = y.shape
    h = 1e-6 * np.maximum(1.0, np.linalg.norm(y, axis=1))
    shift = h[:, None, None] * np.eye(n)
    stencil = np.concatenate([y[:, None, :] + shift, y[:, None, :] - shift])
    F = norm_value(norm, stencil.reshape(-1, n)).reshape(2, m, n)
    return (F[0] - F[1]) / (2 * h[:, None])


def dual_norm_value(norm: MinkowskiNorm, alpha: Covector) -> float | np.ndarray:
    """Evaluate the polar norm F*(alpha) = sup_y alpha(y)/F(y).

    alpha is one covector of shape (n,), or m of them as the rows of an
    (m, n) ndarray, which gives an ndarray of m values.
    """
    if getattr(alpha, "ndim", 1) == 2:
        return _rows_value(norm, alpha.astype(float, copy=False), dual=True)
    alpha = _check_dim(norm, alpha)
    if not np.any(alpha):
        return 0.0
    if norm.family == "weighted-euclidean":
        return float(np.sqrt(alpha @ norm._matrix_inv @ alpha))
    if norm.family == "lp":
        p = norm.exponent
        s = p / (p - 1)
        return float(np.sum(np.abs(alpha) ** s) ** (1.0 / s))
    val, _ = _dual_by_maximization(norm, alpha)
    return val


def legendre_map(norm: MinkowskiNorm, alpha: Covector) -> DualityCertificate:
    """Legendre transform: the gradient of half the squared dual norm.

    Returns the vector y with F(y) = F*(alpha) and alpha(y) = F(y) F*(alpha),
    packaged with its certificate.
    """
    alpha = _check_dim(norm, alpha)
    if not np.any(alpha):
        raise NormError("Legendre map needs a nonzero covector for a certificate")
    Fs = dual_norm_value(norm, alpha)
    if norm.family == "weighted-euclidean":
        y = norm._matrix_inv @ alpha
    elif norm.family == "lp":
        p = norm.exponent
        s = p / (p - 1)
        y = Fs ** (2 - s) * np.sign(alpha) * np.abs(alpha) ** (s - 1)
    else:
        # central FD of (1/2) F*(.)^2 at alpha
        h = 1e-6 * Fs
        y = np.empty_like(alpha)
        for i in range(len(alpha)):
            e = np.zeros_like(alpha)
            e[i] = h
            fp = dual_norm_value(norm, alpha + e) ** 2 / 2
            fm = dual_norm_value(norm, alpha - e) ** 2 / 2
            y[i] = (fp - fm) / (2 * h)
    return DualityCertificate(
        primal_value=norm_value(norm, y),
        dual_value=Fs,
        maximizer=y,
        pairing=float(alpha @ y),
    )


def _dual_hessian(norm: MinkowskiNorm, alpha: np.ndarray, rel_step: float = 1e-4) -> np.ndarray:
    """Hessian of (1/2) F*(.)^2 at alpha, central differences."""
    n = len(alpha)
    d0 = dual_norm_value(norm, alpha)
    h = rel_step * d0

    def f(a):
        return dual_norm_value(norm, a) ** 2 / 2

    H = np.empty((n, n))
    f0 = d0**2 / 2
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (f(alpha + ei) - 2 * f0 + f(alpha - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            v = (
                f(alpha + ei + ej)
                - f(alpha + ei - ej)
                - f(alpha - ei + ej)
                + f(alpha - ei - ej)
            ) / (4 * h**2)
            H[i, j] = H[j, i] = v
    return H


def uniformity_constant(norm: MinkowskiNorm, resolution: int = 64) -> float:
    """Uniformity constant of the dual norm.

    Infimum over sampled (alpha, beta) pairs of unit-sphere directions of
    g*_alpha(beta, beta) / F*(beta)^2 where g* is the Hessian of half the
    squared dual norm.  Equals 1 exactly for inner-product norms.
    """
    if norm.family == "weighted-euclidean":
        # the Hessian is the constant matrix A^{-1}: the quotient is identically 1
        return 1.0
    alphas = _sphere_lattice(norm.dimension, resolution)
    betas = _sphere_lattice(norm.dimension, resolution + 1)
    dual_sq = [dual_norm_value(norm, b) ** 2 for b in betas]
    best = np.inf
    for a in alphas:
        H = _dual_hessian(norm, a)
        eigs = np.linalg.eigvalsh((H + H.T) / 2)
        if eigs.min() <= 0:
            raise NormError(
                "dual Hessian not positive definite at a sample point "
                "(norm not strongly convex, or FD step too coarse)"
            )
        for b, d2 in zip(betas, dual_sq):
            q = (b @ H @ b) / d2
            if q < best:
                best = q
    return float(best)


def unit_ball_volume(norm: MinkowskiNorm, mc_samples: int = 1 << 20, mc_seed: int = 0x5EED) -> float:
    """Euclidean volume of the unit F-ball."""
    n = norm.dimension
    if norm.family == "weighted-euclidean":
        return ball_volume_constant(n) / math.sqrt(np.linalg.det(norm.matrix))
    if norm.family == "lp":
        p = norm.exponent
        return (2 * math.gamma(1 + 1 / p)) ** n / math.gamma(1 + n / p)
    # Monte Carlo over a bounding box from sampled support radii
    half = (1.0 / norm_value(norm, _sphere_lattice(n, 256))).max() * 1.05
    rng = np.random.Generator(np.random.Philox(key=mc_seed))
    total = 0
    hits = 0
    batch = 1 << 16
    while total < mc_samples:
        m = min(batch, mc_samples - total)
        pts = rng.uniform(-half, half, size=(m, n))
        hits += int(np.count_nonzero(norm_value(norm, pts) < 1.0))
        total += m
    return (2 * half) ** n * hits / total


def bh_density(norm: MinkowskiNorm, mc_samples: int = 1 << 20, mc_seed: int = 0x5EED) -> float:
    """Busemann-Hausdorff density: omega_n over the unit-ball volume."""
    return ball_volume_constant(norm.dimension) / unit_ball_volume(
        norm, mc_samples=mc_samples, mc_seed=mc_seed
    )
