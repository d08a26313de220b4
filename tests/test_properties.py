"""Property tests: scaling laws, the dual-norm bound, Legendre certificates,
algebraic tails, estimates of at least an ulp and seed-free CSVs."""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from sharpineq import (
    DecayClass,
    MinkowskiNorm,
    QuadratureSpec,
    RadialProfile,
    dual_norm_value,
    flat_radial_volume_integral,
    hyperbolic_gaussian_moments,
    legendre_map,
    norm_value,
    radial_integral,
    unit_ball_volume,
)
from sharpineq.cli import RunConfig, run_suite
from sharpineq.norms import _sampling_box

# a fixed example budget and derandomized draws keep the file fast and its
# outcome the same on every run
PROPERTY = settings(deadline=None, max_examples=30, derandomize=True)


def gaussian(a):
    return RadialProfile(lambda r: math.exp(-a * r * r), DecayClass.gaussian(a))


@PROPERTY
@given(n=st.integers(1, 6), a=st.floats(0.05, 50.0))
def test_gaussian_mass_scales_as_power_of_rate(n, a):
    # substituting rho = s / sqrt(a) gives mass(a) = a^(-n/2) mass(1)
    base = flat_radial_volume_integral(gaussian(1.0), n).value
    mass = flat_radial_volume_integral(gaussian(a), n).value
    assert math.isclose(mass, a ** (-n / 2) * base, rel_tol=1e-8)


vectors = st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=5)


def pairs(draw):
    y = draw(vectors)
    alpha = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(y), max_size=len(y)))
    return np.array(y), np.array(alpha)


@st.composite
def weighted_euclidean_case(draw):
    y, alpha = pairs(draw)
    n = len(y)
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 1000))).standard_normal((n, n)))
    eigs = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
    A = q @ np.diag(eigs) @ q.T
    return MinkowskiNorm(n, "weighted-euclidean", matrix=(A + A.T) / 2), y, alpha


@st.composite
def lp_case(draw):
    y, alpha = pairs(draw)
    return MinkowskiNorm(len(y), "lp", exponent=draw(st.floats(1.1, 8.0))), y, alpha


@PROPERTY
@given(case=st.one_of(weighted_euclidean_case(), lp_case()))
def test_pairing_bounded_by_norm_times_dual_norm(case):
    norm, y, alpha = case
    bound = norm_value(norm, y) * dual_norm_value(norm, alpha)
    assert float(alpha @ y) <= bound * (1 + 1e-12)


# entries of size 1e-3..1e3 with either sign, or exactly zero
row_entries = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def lp_rows_case(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 12))
    rows = np.array(draw(st.lists(st.lists(row_entries, min_size=n, max_size=n), min_size=m, max_size=m)))
    if draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = 0.0
    return MinkowskiNorm(n, "lp", exponent=draw(st.floats(1.1, 8.0))), rows


@PROPERTY
@given(case=lp_rows_case())
def test_lp_rows_equal_one_vector_calls(case):
    # bit for bit: the stencil of uniformity_constant divides F* differences
    # by h^2 ~ 1e-8, so a last-ulp difference moves the constant by ~1e-8
    norm, rows = case
    for fn in (norm_value, dual_norm_value):
        assert np.array_equal(fn(norm, rows), [fn(norm, r) for r in rows])


# covectors with entries 0 or of size in [0.01, 10]: a map whose entries
# underflow is outside what the certificate promises
entries = st.one_of(st.just(0.0), st.floats(0.01, 10.0), st.floats(-10.0, -0.01))
covectors = st.lists(entries, min_size=2, max_size=5).map(np.array)


@st.composite
def legendre_case(draw):
    alpha = draw(covectors)
    assume(np.any(alpha))
    n = len(alpha)
    if draw(st.booleans()):
        return MinkowskiNorm(n, "lp", exponent=draw(st.floats(1.2, 6.0))), alpha
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 1000))).standard_normal((n, n)))
    eigs = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    A = q @ np.diag(eigs) @ q.T
    return MinkowskiNorm(n, "weighted-euclidean", matrix=(A + A.T) / 2), alpha


@PROPERTY
@given(case=legendre_case())
def test_legendre_certificate(case):
    # y = L(alpha) has F(y) = F*(alpha) and alpha(y) = F(y) F*(alpha)
    norm, alpha = case
    cert = legendre_map(norm, alpha)
    r1, r2 = cert.residuals()
    assert r1 <= 1e-12 and r2 <= 1e-12
    dual = dual_norm_value(norm, alpha)
    assert math.isclose(norm_value(norm, cert.maximizer), dual, rel_tol=1e-12)


@PROPERTY
@given(
    below=st.lists(st.floats(0.05, 0.95), max_size=3),
    above=st.lists(st.floats(1.05, 20.0), min_size=1, max_size=3),
    k=st.sampled_from([0, 2]),
)
def test_algebraic_tail_with_breakpoints_on_both_sides_of_one(below, above, k):
    # int (1 + rho^2)^-2 = int rho^2 (1 + rho^2)^-2 = pi/4 over [0, oo)
    prof = RadialProfile(
        lambda r: (1 + r * r) ** -2, DecayClass.algebraic(), breakpoints=tuple(below + above)
    )
    res = radial_integral(prof, ("power", k))
    assert math.isclose(res.value, math.pi / 4, rel_tol=1e-9)


@PROPERTY
@given(
    kind=st.sampled_from(["gaussian", "algebraic", "polynomial"]),
    scale=st.integers(-250, 250),
    k=st.sampled_from([0, 1, 3]),
    tol=st.sampled_from([1e-9, 1e-12]),
)
def test_estimate_holds_an_ulp_of_its_value(kind, scale, k, tol):
    # 10^scale times a gaussian, an algebraic tail or 1 on [0, 1], the last
    # against rho^k, where G10/K21 is exact and |K - G| can round to 0: no
    # estimate claims less than one ulp of its value
    c = 10.0**scale
    prof = {
        "gaussian": RadialProfile(lambda r: c * math.exp(-r * r), DecayClass.gaussian(1.0)),
        "algebraic": RadialProfile(lambda r: c / (1 + r) ** 5, DecayClass.algebraic()),
        "polynomial": RadialProfile(lambda r: c if r <= 1 else 0.0, DecayClass.compact(1.0)),
    }[kind]
    res = radial_integral(prof, ("power", k), QuadratureSpec(relative_tolerance=tol))
    assert res.error_estimate >= math.ulp(res.value) > 0


@PROPERTY
@given(
    n=st.integers(2, 8),
    a=st.floats(0.1, 500.0),
    betas=st.lists(st.floats(0.0, 8.0), min_size=2, max_size=6),
)
def test_mass_does_not_grow_with_beta(n, a, betas):
    # u^2 = e^(-2 a rho^2 - 2 beta rho) falls pointwise as beta grows, so
    # L = int u^2 cannot grow by more than the two error estimates
    betas = np.sort(betas)
    (_, _, L), errors, _ = hyperbolic_gaussian_moments(n, a, betas)
    err = errors[2]
    assert np.all(L[1:] <= L[:-1] + err[1:] + err[:-1])


@st.composite
def convex_custom_norm(draw):
    # sqrt(y^T A y) + c ||y||_p + b.y: convex, and positive while |b| < sqrt(min eig A)
    n = draw(st.integers(2, 4))
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 1000))).standard_normal((n, n)))
    eigs = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    A = q @ np.diag(eigs) @ q.T
    c = draw(st.floats(0.0, 1.0))
    p = draw(st.floats(1.05, 8.0))
    b = draw(st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n))
    rows = A.tolist()

    # plain floats: the reference count below calls this once per sample
    def value(y):
        v = y.tolist()
        quad = sum(a * s * t for row, s in zip(rows, v) for a, t in zip(row, v))
        lp = sum(abs(t) ** p for t in v) ** (1 / p)
        return math.sqrt(quad) + c * lp + sum(s * t for s, t in zip(b, v))

    return MinkowskiNorm(n, "custom", value_fn=value)


@PROPERTY
@given(norm=convex_custom_norm())
def test_certified_ball_volume_equals_the_per_point_count(norm):
    # the face-grid bounds settle most samples without value_fn; the count
    # must still be the one value_fn gives point by point on the same stream
    samples = 1 << 14
    half, grid = _sampling_box(norm, samples)
    assert grid is not None
    rng = np.random.Generator(np.random.Philox(key=0x5EED))
    pts = rng.uniform(-half, half, size=(samples, norm.dimension))
    hits = sum(norm.value_fn(y) < 1.0 for y in pts)
    assert unit_ball_volume(norm, mc_samples=samples) == (2 * half) ** norm.dimension * hits / samples


# each example runs suite all twice
@settings(deadline=None, max_examples=10, derandomize=True)
@given(
    n=st.integers(3, 5),
    p=st.one_of(st.none(), st.floats(1.5, 6.0)),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True),
)
def test_csv_does_not_depend_on_the_seed(n, p, seeds):
    # no suite draws a Monte Carlo sample: the seed reaches only the JSON
    norm = {"family": "euclidean", "dimension": n} if p is None else {"family": "lp", "dimension": n, "p": p}
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for seed in seeds:
            cfg = RunConfig(suite="all", n=n, norm_spec=norm, triple=(3, 3.0, 1.0), alpha_nodes=64, seed=seed)
            run_suite(cfg, str(Path(tmp) / str(seed)))
            outs.append({f.name: f.read_bytes() for f in sorted((Path(tmp) / str(seed)).glob("*.csv"))})
        assert "all.csv" in outs[0]
        assert outs[0] == outs[1]
