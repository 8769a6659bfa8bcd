"""Kernel abstraction, Palm transform, and repulsiveness functionals."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from palmdpp.analysis import moment_quadrature
from palmdpp.errors import ValidationError
from palmdpp.kernel_core import (
    GroundSpace,
    Kernel,
    check_point,
    displacement_intensity,
    joint_intensity,
    pair_correlation,
    palm_intensity_dominated,
    palm_kernel,
    repulsiveness_p,
    sphere_surface_measure,
)
from palmdpp.model_zoo import (GinibreParams, finite_kernel, ginibre_kernel, jinc_kernel,
                               multiquadric, sphere_kernel, sphere_model)

from palmdpp.numerics import QuadratureError

from conftest import random_dpp_matrix

ORIGIN = np.zeros(2)
E1 = np.array([1.0, 0.0])


@pytest.fixture(scope="module")
def ginibre():
    return ginibre_kernel(GinibreParams(1.0, 1.0))


@pytest.fixture(scope="module")
def diag_kernel():
    return finite_kernel(np.diag([0.3, 0.7]))


class TestSpacesAndPoints:
    def test_sphere_measure(self):
        assert abs(sphere_surface_measure(2) - 4.0 * math.pi) < 1e-14
        assert abs(sphere_surface_measure(1) - 2.0 * math.pi) < 1e-14
        assert abs(GroundSpace.sphere(2).total_measure - 4.0 * math.pi) < 1e-14

    def test_point_validation(self):
        space = GroundSpace.finite(3)
        assert check_point(space, 2) == 2
        with pytest.raises(ValidationError):
            check_point(space, 0)
        with pytest.raises(ValidationError):
            check_point(space, 4)
        with pytest.raises(ValidationError):
            check_point(GroundSpace.sphere(2), np.array([1.0, 1.0, 0.0]))
        ok = check_point(GroundSpace.sphere(2), np.array([0.0, 0.0, 1.0]))
        assert ok.shape == (3,)

    def test_bad_space(self):
        with pytest.raises(ValueError):
            GroundSpace("lattice", 2)


class TestJointIntensity:
    def test_single_point_is_diagonal(self, ginibre):
        assert abs(joint_intensity(ginibre, [ORIGIN]) - 1.0 / math.pi) < 1e-15

    def test_repeated_points_vanish(self, ginibre):
        assert joint_intensity(ginibre, [E1, E1]) == 0.0

    def test_standard_ginibre_pair(self, ginibre):
        # 2x2 determinant expands to (1 - e^-1) / pi^2
        want = (1.0 - math.exp(-1.0)) / math.pi ** 2
        assert abs(joint_intensity(ginibre, [ORIGIN, E1]) - want) < 1e-15

    def test_bounded_by_diagonal_product(self, ginibre):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pts = [rng.normal(size=2) for _ in range(int(rng.integers(2, 5)))]
            det = joint_intensity(ginibre, pts)
            prod = float(np.prod([ginibre.diagonal(p) for p in pts]))
            assert det <= prod + 1e-9


class TestPairCorrelation:
    def test_same_point(self, ginibre):
        assert pair_correlation(ginibre, ORIGIN, ORIGIN) == 0.0

    def test_diagonal_kernel_is_poisson_like(self, diag_kernel):
        assert pair_correlation(diag_kernel, 1, 2) == 1.0

    def test_standard_ginibre_unit_separation(self, ginibre):
        want = 1.0 - math.exp(-1.0)
        assert abs(pair_correlation(ginibre, ORIGIN, E1) - want) < 1e-15

    def test_zero_intensity_convention(self):
        k = finite_kernel(np.diag([0.0, 1.0]))
        assert pair_correlation(k, 1, 2) == 0.0


class TestPalmKernel:
    def test_anchor_annihilated(self, ginibre):
        rng = np.random.default_rng(4)
        palm = palm_kernel(ginibre, E1)
        for _ in range(20):
            w = rng.normal(size=2)
            assert abs(palm.evaluate(E1, w)) < 1e-12
            assert abs(palm.evaluate(w, E1)) < 1e-12

    def test_rank_one_projection_empties(self):
        k = finite_kernel(np.array([[0.5, 0.5], [0.5, 0.5]]))
        palm = palm_kernel(k, 1)
        for v in (1, 2):
            for w in (1, 2):
                assert abs(palm.evaluate(v, w)) < 1e-15

    def test_standard_ginibre_palm_intensity(self, ginibre):
        palm = palm_kernel(ginibre, ORIGIN)
        for r in (0.5, 1.0, 2.0):
            v = np.array([r, 0.0])
            want = (1.0 - math.exp(-r * r)) / math.pi
            assert abs(palm.diagonal(v) - want) < 1e-14

    def test_zero_intensity_anchor_rejected(self):
        k = finite_kernel(np.diag([0.0, 1.0]))
        with pytest.raises(ValidationError):
            palm_kernel(k, 1)


class TestDisplacementIntensity:
    def test_at_anchor(self, ginibre):
        assert abs(displacement_intensity(ginibre, ORIGIN, ORIGIN) - 1.0 / math.pi) < 1e-15

    def test_diagonal_kernel_vanishes_off_anchor(self, diag_kernel):
        assert displacement_intensity(diag_kernel, 1, 2) == 0.0

    def test_ginibre_is_complex_gaussian(self, ginibre):
        rng = np.random.default_rng(9)
        for _ in range(20):
            u, v = rng.normal(size=2), rng.normal(size=2)
            want = math.exp(-float(np.sum((u - v) ** 2))) / math.pi
            assert abs(displacement_intensity(ginibre, u, v) - want) < 1e-13

    def test_pair_correlation_identity(self, ginibre, diag_kernel):
        # rho_u(v) = rho(v) (1 - g(u, v)) everywhere
        rng = np.random.default_rng(10)
        for _ in range(100):
            u, v = rng.normal(size=2), rng.normal(size=2)
            lhs = displacement_intensity(ginibre, u, v)
            rhs = ginibre.diagonal(v) * (1.0 - pair_correlation(ginibre, u, v))
            assert abs(lhs - rhs) < 1e-10
        for u in (1, 2):
            for v in (1, 2):
                lhs = displacement_intensity(diag_kernel, u, v)
                rhs = diag_kernel.diagonal(v) * (1.0 - pair_correlation(diag_kernel, u, v))
                assert abs(lhs - rhs) < 1e-12


class TestPalmDomination:
    def test_at_anchor(self, ginibre):
        rho, rho_u = palm_intensity_dominated(ginibre, ORIGIN, ORIGIN)
        assert abs(rho - 1.0 / math.pi) < 1e-15
        assert abs(rho_u) < 1e-15

    def test_diagonal_kernel_equal_off_anchor(self, diag_kernel):
        rho, rho_u = palm_intensity_dominated(diag_kernel, 1, 2)
        assert rho == rho_u == 0.7

    def test_ginibre_unit_separation(self, ginibre):
        rho, rho_u = palm_intensity_dominated(ginibre, ORIGIN, E1)
        assert abs(rho - 1.0 / math.pi) < 1e-15
        assert abs(rho_u - (1.0 - math.exp(-1.0)) / math.pi) < 1e-14

    def test_domination_everywhere(self, ginibre):
        rng = np.random.default_rng(12)
        for _ in range(200):
            u, v = rng.normal(size=2), rng.normal(size=2)
            rho, rho_u = palm_intensity_dominated(ginibre, u, v)
            assert rho_u <= rho + 1e-10


class TestHermitianSpotCheck:
    def test_models_are_hermitian(self, ginibre):
        rng = np.random.default_rng(13)
        _, mq = multiquadric(0.5, 1.0 / (4.0 * math.pi))
        jinc = jinc_kernel(2)
        for _ in range(1000):
            u, v = rng.normal(size=2), rng.normal(size=2)
            for k in (ginibre, jinc):
                a, b = k.evaluate(u, v), k.evaluate(v, u)
                assert abs(a - np.conj(b)) <= 1e-10 * (1 + abs(a))
            su = np.append(u, rng.normal())
            su = su / np.linalg.norm(su)
            sv = np.append(v, rng.normal())
            sv = sv / np.linalg.norm(sv)
            a, b = mq.evaluate(su, sv), mq.evaluate(sv, su)
            assert abs(a - np.conj(b)) <= 1e-10 * (1 + abs(a))


class TestRepulsiveness:
    def test_euclidean_kernel_without_a_tail_is_refused(self):
        base = jinc_kernel(2)
        bare = replace(base, tail=None)
        with pytest.raises(QuadratureError, match="declares no tail"):
            repulsiveness_p(bare, np.zeros(2))
        with pytest.raises(QuadratureError, match="declares no tail"):
            moment_quadrature(bare, np.zeros(2), 0.5)

    def test_finite_diagonal(self, diag_kernel):
        report = repulsiveness_p(diag_kernel, 1, spec=None)
        assert abs(report.p_u - 0.3) < 1e-12
        assert report.density_profile == [(1, 1.0), (2, 0.0)]

    def test_finite_profile_sums_to_one(self):
        rng = np.random.default_rng(14)
        k = finite_kernel(random_dpp_matrix(rng, 5))
        report = repulsiveness_p(k, 3)
        assert abs(sum(f for _, f in report.density_profile) - 1.0) < 1e-9
        assert 0.0 <= report.p_u <= 1.0 + 1e-6

    def test_ginibre_scaled(self):
        for alpha, beta in ((1.0, 1.0), (0.5, 1.5)):
            k = ginibre_kernel(GinibreParams(alpha, beta))
            report = repulsiveness_p(k, np.array([0.3, -0.2]))
            assert abs(report.p_u - alpha * beta) <= 1e-10 + report.quadrature_error

    def test_euclidean_profile_integrates_to_one(self, ginibre):
        report = repulsiveness_p(ginibre, ORIGIN,
                                 profile_coords=np.linspace(0.0, 8.0, 400))
        r = np.array([c for c, _ in report.density_profile])
        f = np.array([v for _, v in report.density_profile])
        mass = np.trapezoid(2.0 * math.pi * r * f, r)
        assert abs(mass - 1.0) < 1e-3

    def test_sphere_profile_integrates_to_one(self):
        _, mq = multiquadric(0.4, 0.1)
        north = np.array([0.0, 0.0, 1.0])
        report = repulsiveness_p(mq, north,
                                 profile_coords=np.linspace(0.0, math.pi, 600))
        theta = np.array([c for c, _ in report.density_profile])
        f = np.array([v for _, v in report.density_profile])
        mass = np.trapezoid(2.0 * math.pi * np.sin(theta) * f, theta)
        assert abs(mass - 1.0) < 1e-3

    def test_sphere_coefficient_series(self):
        # p_u = 4 pi rho sum beta_l^2 / (2 l + 1) on S^2, at any anchor
        for rho, beta in ((0.08, [0.5, 0.3, 0.2]), (0.05, [0.1, 0.2, 0.3, 0.4]),
                          (0.0795, [1.0])):
            want = 4.0 * math.pi * rho * sum(b ** 2 / (2 * l + 1) for l, b in enumerate(beta))
            kernel = sphere_kernel(sphere_model(2, rho, beta))
            for anchor in ([0.0, 0.0, 1.0], [0.6, 0.0, 0.8]):
                report = repulsiveness_p(kernel, np.array(anchor))
                assert abs(report.p_u - want) <= 1e-10 + report.quadrature_error

    def test_non_isotropic_rejected(self):
        k = Kernel(space=GroundSpace.euclidean(2),
                   gram=lambda X, Y: np.exp(-np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=-1)))
        with pytest.raises(ValidationError):
            repulsiveness_p(k, ORIGIN)

    def test_zero_intensity_anchor_rejected(self):
        k = finite_kernel(np.diag([0.0, 0.5]))
        with pytest.raises(ValidationError):
            repulsiveness_p(k, 1)
