"""Property tests: scaling laws, the dual-norm bound, Legendre certificates and algebraic tails."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from sharpineq import (
    DecayClass,
    MinkowskiNorm,
    RadialProfile,
    dual_norm_value,
    flat_radial_volume_integral,
    legendre_map,
    norm_value,
    radial_integral,
)

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
