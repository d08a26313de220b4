import itertools
import math

import numpy as np
import pytest

from sharpineq import (
    MinkowskiNorm,
    NormError,
    ball_volume_constant,
    bh_density,
    dual_norm_value,
    legendre_map,
    norm_value,
    uniformity_constant,
    unit_ball_volume,
)
from sharpineq import norms
from sharpineq.norms import _dual_hessian, _sampling_box, _sphere_lattice


def euclid(n):
    return MinkowskiNorm(n, "weighted-euclidean", matrix=np.eye(n))


def lp(n, p):
    return MinkowskiNorm(n, "lp", exponent=p)


def weighted(diag):
    return MinkowskiNorm(len(diag), "weighted-euclidean", matrix=np.diag(diag))


def custom_lp(n, p, grad=True, value_fn=None):
    """||y||_p as a custom norm, with its analytic gradient or by FD."""

    def value(y):
        return float(np.sum(np.abs(y) ** p) ** (1 / p))

    def gradient(y):
        return np.sign(y) * np.abs(y) ** (p - 1) * value(y) ** (1 - p)

    return MinkowskiNorm(
        n, "custom", value_fn=value_fn or value, gradient_fn=gradient if grad else None
    )


class TestNormValue:
    def test_euclidean_pythagorean(self):
        assert norm_value(euclid(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_lp4_closed_form(self):
        assert norm_value(lp(2, 4.0), np.array([1.0, 1.0])) == pytest.approx(2 ** 0.25)

    def test_zero_vector(self):
        assert norm_value(lp(3, 4.0), np.zeros(3)) == 0.0
        assert norm_value(euclid(3), np.zeros(3)) == 0.0

    @pytest.mark.parametrize(
        "norm",
        [
            euclid(3),
            # off-diagonal entries of both signs: signed zeros meet in y A y
            MinkowskiNorm(
                3,
                "weighted-euclidean",
                matrix=np.array([[2.0, -0.5, 0.3], [-0.5, 1.0, -0.2], [0.3, -0.2, 1.5]]),
            ),
            lp(3, 1.5),
            lp(3, 4.0),
        ],
    )
    @pytest.mark.parametrize("fn", [norm_value, dual_norm_value])
    def test_closed_forms_give_positive_zero_at_the_origin(self, norm, fn):
        # no zero test: the closed forms themselves must give +0.0, from
        # every signed zero vector, alone and as rows
        zeros = np.array(list(itertools.product([0.0, -0.0], repeat=3)))
        for z in zeros:
            v = fn(norm, z)
            assert type(v) is float and v == 0.0 and math.copysign(1.0, v) == 1.0
        rows = fn(norm, np.concatenate([zeros, np.ones((1, 3))]))
        assert np.all(rows[:-1] == 0.0) and np.all(np.copysign(1.0, rows[:-1]) == 1.0)
        assert rows[-1] == fn(norm, np.ones(3))

    @pytest.mark.parametrize("fn", [norm_value, dual_norm_value])
    def test_custom_value_fn_is_never_called_at_the_origin(self, fn):
        calls = []

        def value(y):
            calls.append(y)
            return float(np.linalg.norm(y))

        custom = MinkowskiNorm(2, "custom", value_fn=value)
        for z in ([0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]):
            v = fn(custom, np.array(z))
            assert v == 0.0 and math.copysign(1.0, v) == 1.0
            assert np.all(fn(custom, np.array([z, z])) == 0.0)
        assert calls == []

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(NormError):
            norm_value(euclid(3), np.ones(2))

    def test_homogeneity(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        for norm in (euclid(3), lp(3, 3.0), weighted([4.0, 1.0, 2.0])):
            for _ in range(20):
                y = rng.standard_normal(3)
                t = rng.uniform(0.1, 10)
                assert norm_value(norm, t * y) == pytest.approx(t * norm_value(norm, y), rel=1e-12)
                # reversibility
                assert norm_value(norm, -y) == pytest.approx(norm_value(norm, y), rel=1e-12)


class TestConstruction:
    def test_bad_matrix_shape(self):
        with pytest.raises(NormError):
            MinkowskiNorm(3, "weighted-euclidean", matrix=np.eye(2))

    def test_asymmetric_matrix(self):
        with pytest.raises(NormError):
            MinkowskiNorm(2, "weighted-euclidean", matrix=np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_indefinite_matrix(self):
        with pytest.raises(NormError):
            MinkowskiNorm(2, "weighted-euclidean", matrix=np.diag([1.0, -1.0]))

    def test_lp_exponent_bound(self):
        with pytest.raises(NormError):
            lp(2, 1.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_lp_exponent_finite(self, p):
        with pytest.raises(NormError, match="lp exponent must be finite and > 1"):
            lp(2, p)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_matrix_finite(self, bad):
        with pytest.raises(NormError, match="matrix entries must be finite"):
            MinkowskiNorm(2, "weighted-euclidean", matrix=np.array([[1.0, 0.0], [0.0, bad]]))

    def test_unknown_family(self):
        with pytest.raises(NormError):
            MinkowskiNorm(2, "taxicab")

    def test_custom_needs_value_fn(self):
        with pytest.raises(NormError):
            MinkowskiNorm(2, "custom")


class TestDualNorm:
    def test_euclidean_self_dual(self):
        assert dual_norm_value(euclid(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_lp4_conjugate_exponent(self):
        # dual of l4 is l_{4/3}
        assert dual_norm_value(lp(2, 4.0), np.array([1.0, 1.0])) == pytest.approx(2 ** 0.75)

    def test_weighted_inverse_matrix(self):
        assert dual_norm_value(weighted([4.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_zero_covector(self):
        assert dual_norm_value(lp(2, 4.0), np.zeros(2)) == 0.0

    def test_sphere_maximization_oracle(self):
        # brute force sup alpha(y)/F(y) over a dense direction fan
        norm = lp(2, 4.0)
        alpha = np.array([1.0, 1.0])
        theta = np.linspace(0, 2 * np.pi, 20001)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        sup = max(float(alpha @ d) / norm_value(norm, d) for d in dirs)
        assert dual_norm_value(norm, alpha) == pytest.approx(sup, rel=1e-6)

    def test_dual_homogeneity(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for norm in (euclid(3), lp(3, 4.0), weighted([4.0, 1.0, 2.0])):
            for _ in range(20):
                a = rng.standard_normal(3)
                t = rng.uniform(0.1, 10)
                assert abs(
                    dual_norm_value(norm, t * a) - t * dual_norm_value(norm, a)
                ) <= 1e-10 * max(1.0, dual_norm_value(norm, a))

    def test_duality_involution_weighted(self):
        # dual of the dual of a weighted-euclidean norm is the original
        A = np.array([[3.0, 1.0], [1.0, 2.0]])
        norm = MinkowskiNorm(2, "weighted-euclidean", matrix=A)
        dual = MinkowskiNorm(2, "weighted-euclidean", matrix=np.linalg.inv(A))
        rng = np.random.Generator(np.random.Philox(key=13))
        for _ in range(50):
            y = rng.standard_normal(2)
            assert dual_norm_value(dual, y) == pytest.approx(norm_value(norm, y), rel=1e-8)

    def test_custom_matches_lp_closed_form(self):
        custom = MinkowskiNorm(
            2,
            "custom",
            value_fn=lambda y: float(np.sum(np.abs(y) ** 4) ** 0.25),
        )
        rng = np.random.Generator(np.random.Philox(key=17))
        ref = lp(2, 4.0)
        for _ in range(5):
            a = rng.standard_normal(2)
            assert dual_norm_value(custom, a) == pytest.approx(
                dual_norm_value(ref, a), rel=1e-6
            )

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_custom_lp_dual_matches_closed_form(self, p, n):
        alphas = np.random.Generator(np.random.Philox(key=7)).standard_normal((2, n))
        want = dual_norm_value(lp(n, p), alphas)
        for grad in (True, False):
            got = dual_norm_value(custom_lp(n, p, grad), alphas)
            assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_custom_lp4_dual_with_a_small_component(self):
        # the curvature of the l4 sphere vanishes with a coordinate, and a step
        # that could only halve climbed too slowly there: 4.6e-6 low
        alpha = np.array([-1.10207871, -0.05194939, 1.13072128])
        got = dual_norm_value(custom_lp(3, 4.0), alpha)
        assert got == pytest.approx(dual_norm_value(lp(3, 4.0), alpha), rel=1e-12)

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize(
        "alpha",
        [
            # a halving-only step came out 2.8e-8 low here, with no error
            (0.00649231, 0.85498201, -1.26931817),
            # about 350 halving-only iterations; a step that grows by a fixed
            # factor on every accepted move hits the cap
            (0.00583149, -0.34148106, 1.02204697),
        ],
    )
    def test_custom_lp15_dual_with_a_small_component(self, alpha, grad):
        alpha = np.array(alpha)
        got = dual_norm_value(custom_lp(3, 1.5, grad), alpha)
        assert got == pytest.approx(dual_norm_value(lp(3, 1.5), alpha), rel=1e-12)

    def test_custom_dual_raises_at_the_iteration_cap(self):
        # l1 is not smooth, so the ascent never settles; the halving-only
        # step stopped at 1.19573 where the dual is 1.2
        l1 = MinkowskiNorm(3, "custom", value_fn=lambda y: float(np.sum(np.abs(y))))
        with pytest.raises(NormError, match="400-iteration cap"):
            dual_norm_value(l1, np.array([0.3, -1.2, 0.7]))

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("p", [1.01, 1.05])
    def test_custom_near_l1_dual_raises(self, p, grad):
        # the best of 32 restarts returned 1.17786 for l1.01 here, 1.8e-2
        # below the dual 1.2, with no error; its first-order residual
        # |alpha - val grad F(y)| was 0.38-0.48 |alpha|
        with pytest.raises(NormError, match="400-iteration cap"):
            dual_norm_value(custom_lp(3, p, grad), np.array([0.3, -1.2, 0.7]))

    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0, 10.0])
    def test_custom_dual_smooth_battery(self, p):
        # coordinates of size 0.2-2 with random signs, one of them scaled into
        # 0.01-0.1, near an axis, where the curvature of the lp sphere blows up
        # (p < 2) or vanishes (p > 2) and the climbs are longest; below about
        # 1e-3 of |alpha| lp1.5 climbs can raise or read 3e-11 low
        for n in (2, 3, 4):
            rng = np.random.Generator(np.random.Philox(key=n))
            alphas = rng.choice([-1.0, 1.0], (12, n)) * rng.uniform(0.2, 2.0, (12, n))
            alphas[np.arange(12), np.arange(12) % n] *= 0.05
            want = dual_norm_value(lp(n, p), alphas)
            for grad in (True, False):
                got = dual_norm_value(custom_lp(n, p, grad), alphas)
                assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_custom_dual_value_fn_calls(self):
        # 106601 calls with a step that could only halve and 12597 with the
        # long Barzilai-Borwein step, both over 32 restarts run to the end;
        # 476 with one climb from the best lattice start
        calls = [0]

        def value(y):
            calls[0] += 1
            return float(np.sum(np.abs(y) ** 3.0) ** (1 / 3.0))

        norm = custom_lp(2, 3.0, grad=False, value_fn=value)
        for alpha in np.random.Generator(np.random.Philox(key=29)).standard_normal((8, 2)):
            dual_norm_value(norm, alpha)
        assert calls[0] <= 476


class TestRowInput:
    CLOSED = [euclid(3), weighted([4.0, 1.0, 2.0]), lp(3, 1.5), lp(3, 4.0)]

    @pytest.mark.parametrize("norm", CLOSED)
    @pytest.mark.parametrize("fn", [norm_value, dual_norm_value])
    def test_closed_rows_match_per_point(self, norm, fn):
        rows = np.random.Generator(np.random.Philox(key=37)).standard_normal((64, 3))
        got = fn(norm, rows)
        want = np.array([fn(norm, r) for r in rows])
        assert isinstance(got, np.ndarray) and got.shape == (64,)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    @pytest.mark.parametrize("grad", [True, False])
    def test_custom_rows_equal_per_point(self, grad):
        norm = custom_lp(2, 3.0, grad)
        rows = np.random.Generator(np.random.Philox(key=41)).standard_normal((64, 2))
        assert np.array_equal(norm_value(norm, rows), [norm_value(norm, r) for r in rows])
        assert np.array_equal(
            dual_norm_value(norm, rows[:2]), [dual_norm_value(norm, r) for r in rows[:2]]
        )

    def test_zero_rows_give_zero(self):
        def value(y):
            assert np.any(y), "value_fn called at the origin"
            return float(np.linalg.norm(y))

        rows = np.array([[0.0, 0.0], [3.0, 4.0], [-0.0, 0.0]])
        custom = MinkowskiNorm(2, "custom", value_fn=value)
        for norm in (euclid(2), weighted([4.0, 1.0]), lp(2, 4.0), custom):
            for fn in (norm_value, dual_norm_value):
                got = fn(norm, rows)
                assert got[0] == 0.0 and got[2] == 0.0 and got[1] > 0
                assert got[1] == fn(norm, rows[1])

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (2, 4, 3), (), (0,)])
    def test_bad_shapes_rejected(self, shape):
        for fn in (norm_value, dual_norm_value):
            with pytest.raises(NormError):
                fn(euclid(3), np.ones(shape))


def closed_form_value(norm, y, dual):
    """The per-point closed forms in numpy's free functions: the reference expressions."""
    y = np.asarray(y, dtype=float)
    if not np.any(y):
        return 0.0
    if norm.family == "weighted-euclidean":
        return float(np.sqrt(y @ (norm._matrix_inv if dual else norm.matrix) @ y))
    s = norm.exponent / (norm.exponent - 1) if dual else norm.exponent
    return float(np.sum(np.abs(y) ** s) ** (1.0 / s))


class TestPerPointClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equal_to_reference_expressions(self, n):
        rng = np.random.Generator(np.random.Philox(key=43 + n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # condition numbers 1, 10 and 100, rotated off the axes
        closed = [lp(n, 1.5), lp(n, 3.0), lp(n, 4.0)] + [
            MinkowskiNorm(n, "weighted-euclidean", matrix=(q * np.geomspace(1, c, n)) @ q.T)
            for c in (1.0, 10.0, 100.0)
        ]
        points = rng.standard_normal((400, n)) * np.geomspace(1e-3, 1e3, 400)[:, None]
        for norm in closed:
            for fn, dual in ((norm_value, False), (dual_norm_value, True)):
                for y in [np.zeros(n), *points]:
                    got = fn(norm, y)
                    assert type(got) is float and got == closed_form_value(norm, y, dual)
                for shape in [(), (n + 1,), (1, 1, n)]:
                    with pytest.raises(NormError):
                        fn(norm, np.ones(shape))


class TestLegendreMap:
    def test_euclidean_identity(self):
        cert = legendre_map(euclid(2), np.array([1.0, 0.0]))
        assert np.allclose(cert.maximizer, [1.0, 0.0])
        assert cert.pairing == pytest.approx(1.0)

    def test_lp4_certificate_values(self):
        norm = lp(2, 4.0)
        cert = legendre_map(norm, np.array([1.0, 1.0]))
        assert norm_value(norm, cert.maximizer) == pytest.approx(2 ** 0.75, rel=1e-10)
        assert cert.pairing == pytest.approx(2 ** 1.5, rel=1e-10)

    def test_weighted_quadratic_oracle(self):
        A = np.array([[4.0, 1.0], [1.0, 2.0]])
        norm = MinkowskiNorm(2, "weighted-euclidean", matrix=A)
        alpha = np.array([0.7, -1.3])
        cert = legendre_map(norm, alpha)
        assert np.allclose(cert.maximizer, np.linalg.solve(A, alpha))

    def test_certificate_chain_random(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        for norm in (euclid(3), lp(3, 4.0), lp(3, 2.5), weighted([4.0, 1.0, 2.0])):
            for _ in range(25):
                alpha = rng.standard_normal(3)
                r1, r2 = legendre_map(norm, alpha).residuals()
                assert r1 <= 1e-6 and r2 <= 1e-6

    def test_zero_covector_rejected(self):
        with pytest.raises(NormError):
            legendre_map(euclid(2), np.zeros(2))


def legendre_loop(norm, alpha):
    """The one-covector-at-a-time central difference that legendre_map batches
    for a custom norm."""
    h = 1e-6 * dual_norm_value(norm, alpha)
    y = np.empty_like(alpha)
    for i in range(len(alpha)):
        e = np.zeros_like(alpha)
        e[i] = h
        fp = dual_norm_value(norm, alpha + e) ** 2 / 2
        fm = dual_norm_value(norm, alpha - e) ** 2 / 2
        y[i] = (fp - fm) / (2 * h)
    return y


class TestCustomLegendre:
    ALPHAS = [np.array([0.6, -0.8]), np.array([1.5, 0.25]), np.array([0.3, -1.1, 0.7]),
              np.array([-2.0, 0.05, 1.0])]

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("alpha", ALPHAS, ids=lambda a: f"n{len(a)}")
    def test_equals_loop_bit_for_bit(self, alpha, grad):
        norm = custom_lp(len(alpha), 3.0, grad)
        cert = legendre_map(norm, alpha)
        assert np.array_equal(cert.maximizer, legendre_loop(norm, alpha))
        assert cert.dual_value == dual_norm_value(norm, alpha)

    def test_two_dual_norm_calls(self, monkeypatch):
        # one for the covector, one for the 2n stencil rows
        calls = []

        def counted(norm, alpha):
            calls.append(np.shape(alpha))
            return dual_norm_value(norm, alpha)

        monkeypatch.setattr(norms, "dual_norm_value", counted)
        legendre_map(custom_lp(3, 3.0), np.array([0.3, -1.1, 0.7]))
        assert calls == [(3,), (6, 3)]


def dual_hessian_loop(norm, alpha, rel_step=1e-4):
    """The one-covector, one-point-at-a-time stencil that _dual_hessian batches."""
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


class TestDualHessian:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_stack_equals_loop_bit_for_bit(self, n, p):
        norm = lp(n, p)
        rng = np.random.Generator(np.random.Philox(key=43))
        alphas = rng.standard_normal((16, n)) * 10.0 ** rng.uniform(-3, 3, (16, 1))
        alphas[0, 0] = 0.0
        H = _dual_hessian(norm, alphas)
        assert H.shape == (16, n, n)
        for a, got in zip(alphas, H):
            want = dual_hessian_loop(norm, a)
            assert np.array_equal(got, want)
            assert np.array_equal(_dual_hessian(norm, a), want)

    @pytest.mark.parametrize("grad", [True, False])
    def test_custom_stack_equals_loop_bit_for_bit(self, grad):
        norm = custom_lp(2, 3.0, grad)
        alphas = np.array([[0.6, -0.8], [1.5, 0.25]])
        H = _dual_hessian(norm, alphas)
        for a, got in zip(alphas, H):
            assert np.array_equal(got, dual_hessian_loop(norm, a))


class TestUniformityConstant:
    def test_inner_product_norms_give_one(self):
        assert uniformity_constant(euclid(3)) == pytest.approx(1.0, abs=1e-6)
        assert uniformity_constant(weighted([4.0, 1.0])) == pytest.approx(1.0, abs=1e-6)

    def test_weighted_euclidean_is_exactly_one(self):
        # the weighted matrix of the n = 4 suites; a finite-difference Hessian
        # would return 1 minus its noise
        assert uniformity_constant(weighted(np.geomspace(1, 100, 4))) == 1.0

    def test_lp_gap_strict(self):
        for p in (3.0, 4.0):
            assert uniformity_constant(lp(2, p)) < 1 - 1e-3

    @pytest.mark.parametrize("n, p", [(2, 4.0), (3, 1.5), (3, 4.0), (4, 3.0)])
    def test_matches_per_pair_loop(self, n, p):
        # the quotient b H b / F*(b)^2 one (alpha, beta) pair at a time; the
        # batched form may sum in another order, so allow a few ulps
        norm = lp(n, p)
        betas = _sphere_lattice(n, 65)
        dual_sq = [dual_norm_value(norm, b) ** 2 for b in betas]
        best = math.inf
        for a in _sphere_lattice(n, 64):
            H = dual_hessian_loop(norm, a)
            for b, d2 in zip(betas, dual_sq):
                best = min(best, (b @ H @ b) / d2)
        assert uniformity_constant(norm) == pytest.approx(best, rel=8 * np.finfo(float).eps, abs=0)

    def test_not_positive_definite_names_its_cause(self):
        # lp(3, 1.2): the dual exponent 6 flattens F*^2 along the axes
        with pytest.raises(NormError) as exc:
            uniformity_constant(lp(3, 1.2))
        msg = str(exc.value)
        k = int(msg.split("lattice covector ")[1].split()[0])
        alpha = _sphere_lattice(3, 64)[k]
        assert f"alpha = {alpha.tolist()}" in msg
        least = np.linalg.eigvalsh(dual_hessian_loop(lp(3, 1.2), alpha)).min()
        assert least <= 0 and f"least eigenvalue {least:.3g}" in msg

    def test_lp4_regression(self):
        assert uniformity_constant(lp(2, 4.0)) == pytest.approx(0.3341787245354644, abs=1e-9)

    def test_lp3_regression(self):
        assert uniformity_constant(lp(2, 3.0)) == pytest.approx(0.5010146645982014, abs=1e-9)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_analytic_hessian_oracle(self, p):
        # dual of lp is l_s; Hessian of (1/2)||.||_s^2 in closed form,
        # infimum over a dense angle fan
        s = p / (p - 1)
        count = 256
        th = (np.arange(count) + 0.5) * (2 * np.pi / count)
        alphas = np.stack([np.cos(th), np.sin(th)], axis=1)
        tb = (np.arange(count + 1) + 0.5) * (2 * np.pi / (count + 1))
        betas = np.stack([np.cos(tb), np.sin(tb)], axis=1)
        Fs_b = (np.abs(betas) ** s).sum(axis=1) ** (1 / s)
        best = np.inf
        for a in alphas:
            F = (np.abs(a) ** s).sum() ** (1 / s)
            H = np.zeros((2, 2))
            for i in range(2):
                for j in range(2):
                    diag = (s - 1) * abs(a[i]) ** (s - 2) * F ** (2 - s) if i == j else 0.0
                    H[i, j] = diag + (2 - s) * F ** (2 - 2 * s) * np.sign(
                        a[i] * a[j]
                    ) * abs(a[i]) ** (s - 1) * abs(a[j]) ** (s - 1)
            q = np.einsum("ij,jk,ik->i", betas, H, betas) / Fs_b ** 2
            best = min(best, float(q.min()))
        assert uniformity_constant(lp(2, p)) == pytest.approx(best, abs=2e-3)


class TestVolumes:
    def test_ball_volume_constant(self):
        assert ball_volume_constant(2) == pytest.approx(math.pi)
        assert ball_volume_constant(3) == pytest.approx(4 * math.pi / 3)

    def test_euclidean_density_one(self):
        assert bh_density(euclid(3)) == pytest.approx(1.0)

    def test_weighted_ellipse_density(self):
        # unit ball of sqrt(4 y1^2 + y2^2) is an ellipse of area pi/2
        assert bh_density(weighted([4.0, 1.0])) == pytest.approx(2.0)

    def test_lp4_gamma_formula(self):
        vol = unit_ball_volume(lp(2, 4.0))
        closed = (2 * math.gamma(1.25)) ** 2 / math.gamma(1.5)
        assert vol == pytest.approx(closed, rel=1e-12)
        assert bh_density(lp(2, 4.0)) == pytest.approx(math.pi / closed, rel=1e-12)

    def test_custom_monte_carlo_volume(self):
        custom = MinkowskiNorm(
            2,
            "custom",
            value_fn=lambda y: float(np.sum(np.abs(y) ** 4) ** 0.25),
        )
        closed = (2 * math.gamma(1.25)) ** 2 / math.gamma(1.5)
        vol = unit_ball_volume(custom, mc_samples=1 << 16)
        assert vol == pytest.approx(closed, rel=0.02)

    def test_custom_volume_calls_value_fn_near_the_boundary_only(self):
        # weighted l3 in n = 3 at 2^16 samples: 256 support radii, the 602
        # nodes of the 9-node face grid and the 1081 samples its bounds leave
        # open (about 2^16 / (9 - 1)^2 = 1024), 1939 calls against 65 792 per
        # point; the margin of 100 calls leaves room for a value_fn that
        # rounds differently, while the 17-node grid's 1946 nodes would not fit
        w = np.arange(1.0, 4.0)
        calls = []

        def value(y):
            calls.append(1)
            return float(np.sum(w * np.abs(y) ** 3) ** (1 / 3))

        custom = MinkowskiNorm(3, "custom", value_fn=value)
        vol = unit_ball_volume(custom, mc_samples=1 << 16)
        closed = (2 * math.gamma(4 / 3)) ** 3 / math.gamma(2) / 6 ** (1 / 3)
        assert vol == pytest.approx(closed, rel=0.02)
        assert len(calls) <= 1939 + 100

    @pytest.mark.parametrize("n, eps", [(2, 1e-4), (3, 1e-3)])
    def test_sampling_box_holds_an_eccentric_ball(self, n, eps):
        # the ball reaches 1/sqrt(eps) along y_0, far past every sampled
        # support radius; a box cutting it off would bias the volume low
        w = np.array([eps] + [1.0] * (n - 1))
        custom = MinkowskiNorm(n, "custom", value_fn=lambda y: math.sqrt(y @ (w * y)))
        samples = 1 << 18
        half, _ = _sampling_box(custom, samples)
        assert half >= 1 / math.sqrt(eps)
        exact = ball_volume_constant(n) / math.sqrt(eps)
        box = (2 * half) ** n
        se = box * math.sqrt(exact / box * (1 - exact / box) / samples)
        assert abs(unit_ball_volume(custom, mc_samples=samples) - exact) <= 4 * se

    @pytest.mark.parametrize("n, eps, sizes", [(2, 1e-4, [65, 129, 257, 513]), (3, 1e-3, [17, 33, 65])])
    def test_refined_grids_evaluate_only_their_new_nodes(self, n, eps, sizes, monkeypatch):
        # the ellipse of the test above at 2^18 samples: no grid before the
        # last certifies the sampled cube, and each finer grid takes the
        # coarser grid's face nodes, G^n - (G - 2)^n of them, from its table
        w = np.array([eps] + [1.0] * (n - 1))
        calls = []

        def value(y):
            calls.append(1)
            return math.sqrt(y @ (w * y))

        built = []
        init = norms._FaceGrid.__init__

        def record(self, norm, nodes, coarser=None):
            built.append(nodes)
            init(self, norm, nodes, coarser)

        monkeypatch.setattr(norms._FaceGrid, "__init__", record)
        _sampling_box(MinkowskiNorm(n, "custom", value_fn=value), 1 << 18)
        assert built == sizes
        fresh = [(g + 2) ** n - g**n - (c**n - (c - 2) ** n) for c, g in zip(sizes, sizes[1:])]
        assert len(calls) == 256 + (sizes[0] + 2) ** n - sizes[0] ** n + sum(fresh)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_refined_table_equals_a_table_built_from_scratch(self, n):
        custom = custom_lp(n, 3.0)
        coarse = norms._FaceGrid(custom, 5)
        assert np.array_equal(norms._FaceGrid(custom, 9, coarse).table, norms._FaceGrid(custom, 9).table)

    @pytest.mark.parametrize("shape", ["lp3w", "mix"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("samples", [1 << 14, 1 << 16])
    def test_face_grid_size_is_only_a_cost_choice(self, shape, n, samples, monkeypatch):
        # the custom norms of perfbench's norms-mc catalogue; the rule's grid,
        # the former fixed grid (129 nodes per axis for n = 2, 17 for n = 3,
        # 5 above) and value_fn point by point count the same samples
        w = np.arange(1.0, n + 1)
        if shape == "lp3w":
            def value(y):
                return float(np.sum(w * np.abs(y) ** 3) ** (1 / 3))
        else:
            def value(y):
                return float(math.sqrt(y @ (w * y)) + np.sum(y**4) ** 0.25)
        custom = MinkowskiNorm(n, "custom", value_fn=value)
        vol = unit_ball_volume(custom, mc_samples=samples)
        half, _ = _sampling_box(custom, samples)
        pts = np.random.Generator(np.random.Philox(key=0x5EED)).uniform(-half, half, size=(samples, n))
        hits = sum(value(y) < 1.0 for y in pts)
        assert vol == (2 * half) ** n * hits / samples
        monkeypatch.setattr(norms, "_first_nodes", lambda n, m: {2: 129, 3: 17}.get(n, 5))
        assert unit_ball_volume(custom, mc_samples=samples) == vol

    def test_unbounded_ball_raises(self):
        # |y_1| + |y_2| vanishes along y_0: no box holds its "unit ball"
        custom = MinkowskiNorm(3, "custom", value_fn=lambda y: abs(y[1]) + abs(y[2]))
        with pytest.raises(NormError, match="cannot bound the unit ball"):
            unit_ball_volume(custom, mc_samples=1 << 16)

    def test_no_sample_inside_raises(self):
        # the certified box of this needle (half-axis 1e4 along y_0) is so
        # much larger than the ball that 2^16 samples all miss it
        w = np.array([1e-8, 1.0, 1.0])
        custom = MinkowskiNorm(3, "custom", value_fn=lambda y: math.sqrt(y @ (w * y)))
        with pytest.raises(NormError, match="no Monte Carlo sample"):
            bh_density(custom, mc_samples=1 << 16)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nonconvex_custom_norm_raises(self, n):
        # the l0.5 "norm" is positively homogeneous but its ball is a star body
        custom = custom_lp(n, 0.5, grad=False)
        with pytest.raises(NormError, match="not convex.*face y_"):
            unit_ball_volume(custom, mc_samples=1 << 15)

    @pytest.mark.parametrize("fn", [unit_ball_volume, bh_density])
    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_monte_carlo_samples_raises(self, fn, samples):
        custom = custom_lp(2, 3.0)
        with pytest.raises(NormError, match="mc_samples"):
            fn(custom, mc_samples=samples)


def funk_norm(x):
    """The indicatrix of the Funk metric at x, |x| < 1: the unit ball translated by -x.

    F(y) = (sqrt(|y|^2 - (|x|^2 |y|^2 - <x, y>^2)) + <x, y>) / (1 - |x|^2),
    a norm that is not reversible; its dual is F*(xi) = |xi| - <xi, x>.
    """
    xx = x @ x

    def value(y):
        xy, yy = x @ y, y @ y
        return (math.sqrt(yy - (xx * yy - xy * xy)) + xy) / (1 - xx)

    return MinkowskiNorm(len(x), "custom", value_fn=value)


class TestNonReversibleNorm:
    """The norm layer takes a custom norm with F(-y) != F(y)."""

    X = np.array([0.5, 0.2, 0.0])

    def test_not_reversible(self):
        norm = funk_norm(self.X)
        e = np.array([1.0, 0.0, 0.0])
        # |x|^2 = 0.29 and <x, e> = 0.5
        assert norm_value(norm, e) == pytest.approx((math.sqrt(0.96) + 0.5) / 0.71, rel=1e-15)
        assert norm_value(norm, -e) == pytest.approx((math.sqrt(0.96) - 0.5) / 0.71, rel=1e-15)

    def test_dual_is_the_translated_ball_support(self):
        norm = funk_norm(self.X)
        xi = np.random.Generator(np.random.Philox(key=16)).standard_normal((30, 3))
        exact = np.linalg.norm(xi, axis=1) - xi @ self.X
        assert np.all(np.abs(dual_norm_value(norm, xi) - exact) <= 1e-12 * np.abs(xi).sum(axis=1))

    def test_unit_ball_volume_is_omega_3(self):
        # the translated ball keeps the volume of the unit ball; the count of
        # 2^18 samples in the cube is binomial
        norm = funk_norm(self.X)
        samples = 1 << 18
        vol = unit_ball_volume(norm, mc_samples=samples)
        box = (2 * _sampling_box(norm, samples)[0]) ** 3
        share = ball_volume_constant(3) / box
        stderr = box * math.sqrt(share * (1 - share) / samples)
        assert abs(vol - ball_volume_constant(3)) <= 4 * stderr
