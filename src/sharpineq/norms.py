"""Minkowski norm algebra on flat n-space.

Norm families, the dual (polar) norm, the Legendre map with its duality
certificate, the uniformity constant of the dual norm, and the
Busemann-Hausdorff density normalization.
"""

from __future__ import annotations

import itertools
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
    """A Minkowski norm on R^n: positive off the origin, positively homogeneous, convex.

    Families:
      * ``weighted-euclidean``: F(y) = sqrt(y^T A y) for A symmetric
        positive definite;
      * ``lp``: F(y) = ||y||_p for p > 1;
      * ``custom``: user-supplied value and gradient handles (must be
        smooth off the origin).

    The closed families are reversible, F(-y) = F(y); a custom norm need not
    be.  The norm layer does not use reversibility: values, dual norms and
    the unit-ball volume hold for a non-reversible norm such as the Funk
    indicatrix, the unit ball translated off its centre.  The flat reports of
    a radial u = phi(F) use it: they take F*(Du) = |phi'(F)|, which is
    F*(-DF) = 1 for a decreasing phi, true for every F only when it is
    reversible (F*(DF) = 1 always holds).
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
            if not np.isfinite(A).all():
                raise NormError("matrix entries must be finite")
            if not np.allclose(A, A.T, atol=1e-12):
                raise NormError("matrix must be symmetric")
            eigs = np.linalg.eigvalsh(A)
            if eigs.min() <= 0:
                raise NormError("matrix must be positive definite")
            object.__setattr__(self, "matrix", A)
            object.__setattr__(self, "_matrix_inv", np.linalg.inv(A))
        elif self.family == "lp":
            if self.exponent is None or not 1 < self.exponent < math.inf:
                raise NormError(f"lp exponent must be finite and > 1, got {self.exponent!r}")
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
    if norm.family == "weighted-euclidean":
        A = norm._matrix_inv if dual else norm.matrix
        return np.sqrt(np.einsum("ij,ij->i", y @ A, y))
    if norm.family == "lp":
        p = norm.exponent
        if dual:
            p = p / (p - 1)
        # float_power is libm pow, as in the one-vector np.float64 ** x; the
        # array ** of numpy's SIMD loop differs from it in the last ulp
        return np.float_power(np.sum(np.abs(y) ** p, axis=1), 1.0 / p)
    nonzero = np.any(y, axis=1)
    if not nonzero.all():
        out = np.zeros(len(y))
        out[nonzero] = _rows_value(norm, y[nonzero], dual)
        return out
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
    # the closed forms give +0.0 at the origin without a zero test (the
    # products sum from +0.0); the ndarray methods and math.sqrt skip numpy's
    # dispatch of np.sum and np.sqrt on every per-point call, with the same values
    if norm.family == "weighted-euclidean":
        return math.sqrt(y @ norm.matrix @ y)
    if norm.family == "lp":
        return float((np.abs(y) ** norm.exponent).sum() ** (1.0 / norm.exponent))
    # value_fn is never called at the origin; the Python floats of tolist
    # test that several times faster than ndarray.any
    if not any(y.tolist()):
        return 0.0
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

    One norm_value row call puts 32 deterministic lattice directions on the
    sphere, and the climb starts from the best of them.  A move is taken only
    on a strict increase of val = alpha(y); a rejected move halves the step.
    After a move s, with dg the fall of the ascent direction
    g = alpha - val grad F(y), the step becomes a Barzilai-Borwein ratio when
    s.dg > 0: the short s.dg / dg.dg and the long s.s / s.dg by turns, short
    first (the long one alone left lp(10) climbs in n = 4 at the cap).  A
    climb stops once its predicted gain step |g|^2 is at most eps |val| or its
    move step |g| at most eps |y|, eps the machine epsilon, or after 400
    iterations.

    A stopped climb is settled only when |g| <= 1e-5 |alpha|.  For convex F,
    f(z) = alpha(z) - val F(z) is concave with gradient g at y and f(y) = 0,
    so f(z) <= g(z - y), and alpha(z) <= val + F*(g) + |g(y)| on the sphere:
    a critical point is the global maximum, and a small residual bounds the
    shortfall of val.  Settled climbs on smooth lp norms left |g| at most
    4e-7 |alpha| with an analytic gradient and 7e-6 with finite differences
    next to an axis; the wrong near-l1 values that 32 restarts used to return
    left at least 8e-4 |alpha|.  An unsettled climb hands over to the
    next-best start; after 4 starts NormError is raised.
    """
    eps = np.finfo(float).eps
    gate = 1e-5 * math.sqrt(alpha @ alpha)
    d = _sphere_lattice(norm.dimension, 32)
    starts = d / norm_value(norm, d)[:, None]
    start_vals = starts @ alpha

    def gradient(y: np.ndarray) -> np.ndarray:
        return _norm_gradient(norm, y[None])[0]

    def stopped(y, val, g, step) -> bool:
        gg = g @ g
        return step * gg <= eps * abs(val) or step * math.sqrt(gg) <= eps * math.sqrt(y @ y)

    for k in np.argsort(-start_vals, kind="stable")[:4]:
        y, val = starts[k], start_vals[k]
        g = alpha - val * gradient(y)
        step, long_step = 1.0, False
        for _ in range(400):
            if stopped(y, val, g, step):
                break
            cand = y + step * g
            cand = cand / norm_value(norm, cand)
            cand_val = cand @ alpha
            if not cand_val > val:
                step *= 0.5
                continue
            cand_g = alpha - cand_val * gradient(cand)
            s, dg = cand - y, g - cand_g
            sdg = s @ dg
            if sdg > 0:
                step = (s @ s) / sdg if long_step else sdg / (dg @ dg)
            long_step = not long_step
            y, val, g = cand, cand_val, cand_g
        if stopped(y, val, g, step) and math.sqrt(g @ g) <= gate:
            return float(val), y
    raise NormError(
        f"dual norm of {alpha!r} not converged: the climbs from the 4 best "
        "lattice starts stalled or reached the 400-iteration cap with "
        "|alpha - val grad F(y)| above 1e-5 |alpha|"
    )


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
    (m, n) ndarray, which gives an ndarray of m values.  lp and custom rows
    equal their one-covector calls bit for bit (the finite-difference
    Hessian of uniformity_constant relies on it); weighted-euclidean rows
    are within 4 ulp of them.
    """
    if getattr(alpha, "ndim", 1) == 2:
        return _rows_value(norm, alpha.astype(float, copy=False), dual=True)
    alpha = _check_dim(norm, alpha)
    # zero tests as in norm_value
    if norm.family == "weighted-euclidean":
        return math.sqrt(alpha @ norm._matrix_inv @ alpha)
    if norm.family == "lp":
        p = norm.exponent
        s = p / (p - 1)
        return float((np.abs(alpha) ** s).sum() ** (1.0 / s))
    if not any(alpha.tolist()):
        return 0.0
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
        # central FD of (1/2) F*(.)^2 at alpha, the 2n points alpha +- h e_i
        # in one row call; float_power squares as Python's x ** 2 does
        h = 1e-6 * Fs
        e = h * np.eye(len(alpha))
        f = np.float_power(dual_norm_value(norm, np.concatenate([alpha + e, alpha - e])), 2) / 2
        y = (f[: len(alpha)] - f[len(alpha):]) / (2 * h)
    return DualityCertificate(
        primal_value=norm_value(norm, y),
        dual_value=Fs,
        maximizer=y,
        pairing=float(alpha @ y),
    )


def _dual_hessian(norm: MinkowskiNorm, alpha: np.ndarray, rel_step: float = 1e-4) -> np.ndarray:
    """Hessian of (1/2) F*(.)^2 at alpha, central differences with step h = rel_step F*(alpha).

    alpha is one covector (n,), giving an (n, n) matrix, or m of them as the
    rows of an (m, n) array, giving (m, n, n).  The stencil of a covector is
    1 + 2n^2 points: alpha, alpha +- h e_i and the corners alpha +- h e_i +-
    h e_j (i < j).  The centres take one dual_norm_value row call and the
    other 2n^2 m points one more.  Every point, value and square equals the
    one-point-at-a-time loop's bit for bit: corners are summed as (alpha +-
    h e_i) +- h e_j, and squares go through float_power (libm pow, like
    Python's x ** 2, which x * x differs from in the last ulp), because
    dividing by h^2 ~ 1e-8 F*^2 turns a last-ulp difference in one value
    into ~1e-8 in H.
    """
    alpha = np.asarray(alpha, dtype=float)
    a = np.atleast_2d(alpha)
    m, n = a.shape
    i, j = np.triu_indices(n, 1)
    d0 = dual_norm_value(norm, a)
    h = rel_step * d0
    e = h[:, None, None] * np.eye(n)  # e[:, i] = h e_i
    plus, minus = a[:, None, :] + e, a[:, None, :] - e
    stencil = np.concatenate(
        [plus, minus, plus[:, i] + e[:, j], plus[:, i] - e[:, j], minus[:, i] + e[:, j], minus[:, i] - e[:, j]],
        axis=1,
    )
    f = np.float_power(dual_norm_value(norm, stencil.reshape(-1, n)), 2).reshape(m, -1) / 2
    fp, fm, fpp, fpm, fmp, fmm = np.split(f, np.cumsum([n, n, len(i), len(i), len(i)]), axis=1)
    f0 = np.float_power(d0, 2)[:, None] / 2
    h2 = np.float_power(h, 2)[:, None]
    H = np.empty((m, n, n))
    diag = np.arange(n)
    H[:, diag, diag] = (fp - 2 * f0 + fm) / h2
    H[:, i, j] = (fpp - fpm - fmp + fmm) / (4 * h2)
    H[:, j, i] = H[:, i, j]
    return H if alpha.ndim == 2 else H[0]


def uniformity_constant(norm: MinkowskiNorm, resolution: int = 64) -> float:
    """Uniformity constant of the dual norm.

    Infimum over sampled (alpha, beta) pairs of unit-sphere directions of
    g*_alpha(beta, beta) / F*(beta)^2 where g* is the Hessian of half the
    squared dual norm.  Equals 1 exactly for inner-product norms.

    The resolution lattice covectors alpha go to _dual_hessian as one stack
    (two dual_norm_value row calls over 1 + 2n^2 stencil points each), and
    F*(beta)^2 of the resolution + 1 betas takes one more.  The values and
    squares equal the one-vector calls bit for bit (see _dual_hessian): a
    last-ulp change in one F* value moves the constant by ~1e-8.  NormError
    names the first lattice covector whose Hessian is not positive definite.
    """
    if norm.family == "weighted-euclidean":
        # the Hessian is the constant matrix A^{-1}: the quotient is identically 1
        return 1.0
    alphas = _sphere_lattice(norm.dimension, resolution)
    betas = _sphere_lattice(norm.dimension, resolution + 1)
    dual_sq = np.float_power(dual_norm_value(norm, betas), 2)
    H = _dual_hessian(norm, alphas)
    least = np.linalg.eigvalsh(H).min(axis=1)
    bad = np.flatnonzero(least <= 0)
    if bad.size:
        k = bad[0]
        raise NormError(
            f"dual Hessian not positive definite at lattice covector {k} of {resolution}, "
            f"alpha = {alphas[k].tolist()}: least eigenvalue {least[k]:.3g} "
            "(norm not strongly convex, or FD step too coarse)"
        )
    # b H b / F*(b)^2 for every alpha and beta b at once
    return float((((betas @ H) * betas).sum(axis=2) / dual_sq).min())


# The first face grid has G = 2^j + 1 >= _LEAST_NODES nodes per axis, the G
# of least cost (G + 2)^n - G^n + m / (G - 1)^2 among the grids of at most
# m / 8 nodes, m the sample count: value_fn calls on the grid plus on the
# samples its bounds leave open.  The bounds' gap is O(h^2), h = 2 / (G - 1);
# on the weighted-l3 and euclidean-plus-l4 norms of perfbench's norms-mc
# catalogue (n = 2, 3) the open share measured 0.7-1.3 / (G - 1)^2 for every
# G from 9 to 65 at 2^18 samples.
_LEAST_NODES = 5
# a bound settles a sample only this far from F = 1
_MARGIN = 1e-9
# rows classified at once: keeps the classifier's temporaries to a few hundred kB
_CHUNK = 1024
# lower_bound's halving budget: boxes per face, and the least box side in cells
_BOXES = 1 << 10
_MIN_SIZE = 2.0**-6


def _lattice(values, d: int) -> np.ndarray:
    """Every point of values^d, as the rows of an array."""
    return np.stack(np.meshgrid(*[np.asarray(values, dtype=float)] * d, indexing="ij"), -1).reshape(-1, d)


class _FaceGrid:
    """F on a lattice over the faces of the cube [-1, 1]^n, with bounds of F between the nodes.

    The node with index k in {0, ..., G + 1}^n is the point -1 + (k - 1) h,
    h = 2 / (G - 1).  The table holds F at every node with some k_i in
    {1, G}: a grid of G nodes per axis over each face {y_i = +-1} plus one
    ring outside it (other entries are 0 and only ever get weight 0).  A
    point y maps to x = y / max |y_i| on a face, and F(y) = max |y_i| F(x).
    For convex F the Freudenthal piecewise-linear interpolant U of a face
    table is >= F (Jensen), and L(x) = 2 F(b) - U(2 b - x), b the node
    nearest x, is <= F (convexity along the line through x and b).
    """

    def __init__(self, norm: MinkowskiNorm, nodes: int, coarser: Optional[_FaceGrid] = None):
        """Tabulate F in one row call, taking the nodes of a coarser grid of (nodes + 1) / 2 from its table."""
        n = norm.dimension
        self.n, self.nodes = n, nodes
        self.per_unit = (nodes - 1) / 2  # lattice position of x: (x + 1) per_unit + 1
        self.strides = (nodes + 2) ** np.arange(n - 1, -1, -1)
        rest = _lattice(range(nodes + 2), n - 1)
        index = np.unique(
            np.concatenate([np.insert(rest, i, k, axis=1) for i in range(n) for k in (1, nodes)]), axis=0
        )
        at = (index @ self.strides).astype(np.intp)
        face = ((index >= 1) & (index <= nodes)).all(axis=1)  # the face grids proper, without the rings
        self.table = np.zeros((nodes + 2) ** n)
        new = np.ones(len(index), dtype=bool)
        if coarser is not None:
            # the coarser grid's face node k is node 2k - 1 here, at the same
            # point: (k - 1) / ((G - 1) / 2) and (2k - 2) / (G - 1) are one
            # correctly rounded quotient of integers
            new = ~(face & (index % 2 == 1).all(axis=1))
            self.table[at[~new]] = coarser.table[(((index[~new] + 1) // 2) @ coarser.strides).astype(np.intp)]
        self.table[at[new]] = norm_value(norm, -1 + (index[new] - 1) / self.per_unit)
        self.least = self.table[at[face]].min()
        self._check_convex()

    def _check_convex(self) -> None:
        """NormError unless every second difference along an axis or the all-ones diagonal is >= 0."""
        d = self.n - 1
        steps = [tuple(int(a == j) for a in range(d)) for j in range(d)]
        if d > 1:
            steps.append((1,) * d)
        scale = np.abs(self.table).max()
        T = self.table.reshape((self.nodes + 2,) * self.n)
        for i, k in itertools.product(range(self.n), (1, self.nodes)):
            F = np.take(T, k, axis=i)  # the face y_i = -1 (k = 1) or +1 (k = G)
            for step in steps:
                # F at nodes k, k + step and k + 2 step
                lo, mid, hi = (
                    tuple(slice(a, a - 2 or None) if s else slice(None) for s in step) for a in (0, 1, 2)
                )
                d2 = F[hi] - 2 * F[mid] + F[lo]
                j = int(np.argmin(d2))
                if d2.flat[j] < -1e-12 * scale:
                    node = np.insert(np.add(np.unravel_index(j, d2.shape), step), i, k)
                    point = tuple((-1 + (node - 1) / self.per_unit).tolist())
                    raise NormError(
                        f"norm is not convex: second difference {d2.flat[j]:.3g} (max |F| "
                        f"{scale:.3g}) along {step} at node {point} of face "
                        f"y_{i} = {1 if k == self.nodes else -1:+d}"
                    )

    def _interpolate(self, pos: np.ndarray) -> np.ndarray:
        """U at lattice positions pos, an (n, m) array of points on faces."""
        base = np.minimum(np.floor(pos), self.nodes)
        t = pos - base
        start = (self.strides @ base).astype(np.intp)
        # Freudenthal simplex: from the base corner of the cell, one step along
        # each axis in order of falling t (ties: lower axis first); after[j] is
        # the node reached by the step along axis j
        after = [start + s for s in self.strides]
        for j in range(self.n):
            for l in range(j + 1, self.n):
                first = t[j] >= t[l]
                after[l] += first * self.strides[j]
                after[j] += ~first * self.strides[l]
        val = self.table[start]
        for j, s in enumerate(self.strides):
            val += t[j] * (self.table[after[j]] - self.table[after[j] - s])
        return val

    def bounds(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Upper and lower bounds of F at the rows of y."""
        y = y.T.copy()  # one contiguous row per axis: reductions over axes stay vectorised
        scale = np.abs(y).max(axis=0)
        # a zero row lands on the cube's centre, whose entry 0 is F(0)
        pos = (y / np.maximum(scale, np.finfo(float).tiny) + 1) * self.per_unit + 1
        nearest = np.rint(pos)
        upper = self._interpolate(pos)
        at_nearest = self.table[(self.strides @ nearest).astype(np.intp)]
        lower = 2 * at_nearest - self._interpolate(2 * nearest - pos)
        return scale * upper, scale * lower

    def settle(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the rows of y certified inside the unit ball, and of those left open."""
        inside = np.empty(len(y), dtype=bool)
        undecided = np.empty(len(y), dtype=bool)
        for s in range(0, len(y), _CHUNK):
            upper, lower = self.bounds(y[s : s + _CHUNK])
            inside[s : s + _CHUNK] = upper < 1 - _MARGIN
            undecided[s : s + _CHUNK] = ~inside[s : s + _CHUNK] & ~(lower > 1 + _MARGIN)
        return inside, undecided

    def _box_bounds(self, lo: np.ndarray, size: float, corners: np.ndarray) -> np.ndarray:
        """Lower bounds of F on the dyadic boxes lo + size * corners, each inside one cell."""
        out = np.empty(len(lo))
        step = max(1, _CHUNK // len(corners) ** 2)
        for s in range(0, len(lo), step):
            a = lo[s : s + step]
            c = np.floor(a)[:, None, :] + corners  # centres: the corners of each box's cell
            top = 2 * c - a[:, None, :]  # reflected boxes: top - size * corners
            reflected = (top[:, :, None, :] - size * corners).reshape(-1, self.n)
            U = self._interpolate(reflected.T.copy()).reshape(len(a), len(corners), -1)
            at_c = self.table[(c @ self.strides).astype(np.intp)]
            out[s : s + step] = (2 * at_c - U.max(axis=2)).max(axis=1)
        return out

    def lower_bound(self, target: float) -> tuple[float, tuple[int, int]]:
        """A lower bound of F on the faces, and the face (axis, node index) where it is least.

        The bound is taken over dyadic boxes of each face.  On a box P in the
        cell with corners c, F(x) >= 2 F(c) - U(2 c - x) for every corner c,
        and U peaks on the reflected box 2 c - P at one of its corners: a
        dyadic box inside one cell meets the Freudenthal simplices in
        simplices with vertices among its corners.  Boxes whose bound is
        below target are halved, while that leaves at most _BOXES boxes and
        their side stays at least _MIN_SIZE cells.
        """
        d = self.n - 1
        cells, box = _lattice(range(1, self.nodes), d), _lattice((0, 1), d)
        low, worst = np.inf, (0, 1)
        for i, k in itertools.product(range(self.n), (1, self.nodes)):
            corners = np.insert(box, i, 0.0, axis=1)
            lo, size = np.insert(cells, i, k, axis=1), 1.0
            while True:
                bound = self._box_bounds(lo, size, corners)
                split = bound < target
                if split.sum() * len(corners) > _BOXES or size <= _MIN_SIZE:
                    split[:] = False  # every box is final
                if bound[~split].min(initial=np.inf) < low:
                    low, worst = bound[~split].min(), (i, k)
                if not split.any():
                    break
                size /= 2
                lo = (lo[split][:, None, :] + size * corners).reshape(-1, self.n)
        return low, worst


def _grid_size(nodes: int, n: int) -> int:
    """Distinct nodes of a face grid of G nodes per axis with its ring: (G + 2)^n - G^n."""
    return (nodes + 2) ** n - nodes**n


def _first_nodes(n: int, mc_samples: int) -> int:
    """G of the first face grid, by the cost rule stated at _LEAST_NODES.

    When no grid fits in mc_samples / 8 nodes this is _LEAST_NODES, which
    does not fit either.
    """
    fits, nodes = [], _LEAST_NODES
    while _grid_size(nodes, n) <= mc_samples / 8:
        fits.append(nodes)
        nodes = 2 * nodes - 1
    return min(fits, key=lambda g: _grid_size(g, n) + mc_samples / (g - 1) ** 2, default=_LEAST_NODES)


def _sampling_box(norm: MinkowskiNorm, mc_samples: int) -> tuple[float, Optional[_FaceGrid]]:
    """Half-width of the Monte Carlo cube, and the face grid if one is built.

    The cube starts at 1.05 times the largest support radius over 256
    lattice directions.  Where a face grid fits in mc_samples / 8 nodes,
    its lower bound B of F on the faces, a certified bound 1 / B on
    max |y_i| over the ball, widens the cube to hold the whole ball.  B
    aims at certifying the sampled cube, or 1.05 / (least node value) if
    that is smaller; a grid whose B falls short is replaced by one of half
    the spacing, which takes the shared nodes from its table, while that
    fits; _first_nodes sets the first grid's size.
    """
    n = norm.dimension
    half = (1.0 / norm_value(norm, _sphere_lattice(n, 256))).max() * 1.05
    nodes = _first_nodes(n, mc_samples)
    grid = None
    while _grid_size(nodes, n) <= mc_samples / 8:
        grid = _FaceGrid(norm, nodes, grid)
        target = min(1 / half, grid.least / 1.05)
        low, (i, k) = grid.lower_bound(target)
        if low >= target:
            break
        nodes = 2 * nodes - 1
    if grid is None:
        return half, None
    if not low > 0:
        raise NormError(
            f"the face grid cannot bound the unit ball: the convexity lower bound of F "
            f"on face y_{i} = {1 if k == grid.nodes else -1:+d} reaches {low:.3g} (F "
            f"vanishes there, or the ball is too eccentric for a {grid.nodes}-node grid)"
        )
    return max(half, 1 / low), grid


def unit_ball_volume(norm: MinkowskiNorm, mc_samples: int = 1 << 20, mc_seed: int = 0x5EED) -> float:
    """Euclidean volume of the unit F-ball.

    Closed form for the weighted-euclidean and lp families.  A custom norm
    is counted by Monte Carlo: ``mc_samples`` (>= 1, else NormError) points
    uniform in a cube from a Philox stream seeded by ``mc_seed``, in blocks
    of 2^16 rows, a point counting as inside when F < 1.0.

    Certificate.  F is tabulated, in one row-batched call, on a grid of G
    nodes per axis over each face {y_i = +-1} of the cube [-1, 1]^n plus
    one ring outside it, (G + 2)^n - G^n distinct nodes, when that is at
    most mc_samples / 8.  A point y goes to a face at x = y / max |y_i|,
    where F(y) = max |y_i| F(x).  For convex F the piecewise-linear
    (Freudenthal) interpolant U of the face table is >= F (Jensen), and
    L(x) = 2 F(b) - U(2 b - x), b the nearest node, is <= F (convexity
    along the line through b).  A point is inside if max |y_i| U < 1 - 1e-9
    and outside if max |y_i| L > 1 + 1e-9; ``value_fn`` is called only on
    the rest.  For a ``value_fn`` accurate to well below 1e-9 the volume is
    therefore identical to the count of per-point evaluations, whatever G.

    Grid size.  G is a cost choice: G = 2^j + 1 >= 5 with the least
    (G + 2)^n - G^n + mc_samples / (G - 1)^2, grid nodes plus the samples
    the bounds leave open, among the grids that fit.  The gap between U and
    L is O(h^2), h = 2 / (G - 1); on the weighted-l3 and euclidean-plus-l4
    norms of perfbench's norms-mc catalogue (n = 2, 3) about
    0.7-1.3 mc_samples / (G - 1)^2 samples stayed open for G = 9 to 65.
    At 2^14, 2^15 and 2^16 samples the rule takes G = 17, 33, 33 in n = 2
    and 9 in n = 3; at the default 2^20 it takes 65 in n = 2, 17 in n = 3,
    9 in n = 4 and 5 in n = 5 and 6.

    Convexity.  The certificate holds only for convex F: NormError, naming
    the face and the node, is raised when a second difference of a face
    table along a grid axis or the all-ones diagonal is below
    -1e-12 max |F|.

    Box.  The cube's half-width is 1.05 times the largest support radius
    over 256 lattice directions, raised where needed to a certified bound
    1 / B on max |y_i| over the ball, B a convexity lower bound of F on
    the faces, so that the cube holds the whole ball.  Where B cannot
    certify the sampled cube (nor come within 5% of the least node value),
    the grid is refined to half the spacing while it fits, evaluating only
    the nodes the coarser grid does not share; NormError is
    raised when B is not positive (F vanishes somewhere, or the ball is
    too eccentric for the grid).  Without a grid (too few samples) the box
    is the sampled one and neither check runs.  A count with no sample
    inside raises NormError: the volume of a unit ball is not 0.
    """
    n = norm.dimension
    if norm.family == "weighted-euclidean":
        return ball_volume_constant(n) / math.sqrt(np.linalg.det(norm.matrix))
    if norm.family == "lp":
        p = norm.exponent
        return (2 * math.gamma(1 + 1 / p)) ** n / math.gamma(1 + n / p)
    if mc_samples < 1:
        raise NormError(f"mc_samples must be >= 1, got {mc_samples}")
    half, grid = _sampling_box(norm, mc_samples)
    rng = np.random.Generator(np.random.Philox(key=mc_seed))
    total = 0
    hits = 0
    batch = 1 << 16
    while total < mc_samples:
        m = min(batch, mc_samples - total)
        pts = rng.uniform(-half, half, size=(m, n))
        if grid is None:
            hits += int(np.count_nonzero(norm_value(norm, pts) < 1.0))
        else:
            inside, undecided = grid.settle(pts)
            hits += int(np.count_nonzero(inside))
            hits += int(np.count_nonzero(norm_value(norm, pts[undecided]) < 1.0))
        total += m
    if hits == 0:
        raise NormError(
            f"no Monte Carlo sample fell inside the unit ball (cube half-width {half:.3g}); "
            "its volume is not 0, so more samples are needed"
        )
    return (2 * half) ** n * hits / total


def bh_density(norm: MinkowskiNorm, mc_samples: int = 1 << 20, mc_seed: int = 0x5EED) -> float:
    """Busemann-Hausdorff density: omega_n over the unit-ball volume.

    For a custom norm the volume is the certified Monte Carlo count of
    ``unit_ball_volume`` (see there: convexity is required and checked on
    the face grid, the cube holds the whole ball, and mc_samples < 1 raises
    NormError).
    """
    return ball_volume_constant(norm.dimension) / unit_ball_volume(
        norm, mc_samples=mc_samples, mc_seed=mc_seed
    )
