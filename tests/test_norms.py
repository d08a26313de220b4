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


def euclid(n):
    return MinkowskiNorm(n, "weighted-euclidean", matrix=np.eye(n))


def lp(n, p):
    return MinkowskiNorm(n, "lp", exponent=p)


def weighted(diag):
    return MinkowskiNorm(len(diag), "weighted-euclidean", matrix=np.diag(diag))


class TestNormValue:
    def test_euclidean_pythagorean(self):
        assert norm_value(euclid(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_lp4_closed_form(self):
        assert norm_value(lp(2, 4.0), np.array([1.0, 1.0])) == pytest.approx(2 ** 0.25)

    def test_zero_vector(self):
        assert norm_value(lp(3, 4.0), np.zeros(3)) == 0.0
        assert norm_value(euclid(3), np.zeros(3)) == 0.0

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
