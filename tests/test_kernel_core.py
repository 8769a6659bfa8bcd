"""Kernel abstraction, Palm transform, and repulsiveness functionals."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from palmdpp.analysis import moment_quadrature
from palmdpp.errors import ValidationError
from palmdpp.finite_dpp import palm_matrix, validate
from palmdpp.kernel_core import (
    GroundSpace,
    Kernel,
    check_point,
    palm_kernel,
    profile_coordinates,
    repulsiveness_p,
    sphere_surface_measure,
)
from palmdpp.model_zoo import (GinibreParams, finite_kernel, ginibre_kernel, jinc_kernel,
                               multiquadric, sphere_kernel, sphere_model, sphere_p, thin_rescale)

from palmdpp.numerics import QuadratureError, Tail

from conftest import random_dpp_matrix

ORIGIN = np.zeros(2)
E1 = np.array([1.0, 0.0])


@pytest.fixture(scope="module")
def ginibre():
    return ginibre_kernel(GinibreParams(1.0, 1.0))


@pytest.fixture(scope="module")
def diag_kernel():
    return finite_kernel(validate(np.diag([0.3, 0.7])))


class TestSpacesAndPoints:
    def test_sphere_measure(self):
        assert abs(sphere_surface_measure(2) - 4.0 * math.pi) < 1e-14
        assert abs(sphere_surface_measure(1) - 2.0 * math.pi) < 1e-14

    @pytest.mark.parametrize("d,want", [(3, 2.0 * math.pi ** 2), (4, 8.0 * math.pi ** 2 / 3.0),
                                        (5, math.pi ** 3)])
    def test_sphere_measure_higher_dimensions(self, d, want):
        assert abs(sphere_surface_measure(d) - want) < 1e-13

    def test_point_validation(self):
        space = GroundSpace("finite", 3)
        assert check_point(space, 2) == 2
        with pytest.raises(ValidationError):
            check_point(space, 0)
        with pytest.raises(ValidationError):
            check_point(space, 4)
        with pytest.raises(ValidationError):
            check_point(GroundSpace("sphere", 2), np.array([1.0, 1.0, 0.0]))
        ok = check_point(GroundSpace("sphere", 2), np.array([0.0, 0.0, 1.0]))
        assert ok.shape == (3,)

    def test_bad_space(self):
        with pytest.raises(ValueError) as err:
            GroundSpace("lattice", 2)
        assert err.value.token == "param-bound"

    @pytest.mark.parametrize("site", [0, 3, -1])
    @pytest.mark.parametrize("fn", [palm_kernel, repulsiveness_p])
    def test_anchors_outside_the_sites_rejected(self, diag_kernel, fn, site):
        # site 0 must not read site n by negative indexing, nor n + 1 run off the end
        with pytest.raises(ValidationError) as err:
            fn(diag_kernel, site)
        assert err.value.token == "param-bound"


class TestPalmKernel:
    def test_anchor_annihilated(self, ginibre):
        rng = np.random.default_rng(4)
        palm = palm_kernel(ginibre, E1)
        for _ in range(20):
            w = rng.normal(size=2)
            assert abs(palm.evaluate(E1, w)) < 1e-12
            assert abs(palm.evaluate(w, E1)) < 1e-12

    def test_rank_one_projection_empties(self):
        k = finite_kernel(validate(np.array([[0.5, 0.5], [0.5, 0.5]])))
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
        k = finite_kernel(validate(np.diag([0.0, 1.0])))
        with pytest.raises(ValidationError):
            palm_kernel(k, 1)


class TestPalmIntensity:
    """rho^u(v) = K^u(v, v), the intensity of the reduced Palm process."""

    def test_vanishes_at_anchor(self, ginibre):
        assert abs(ginibre.diagonal(ORIGIN) - 1.0 / math.pi) < 1e-15
        assert abs(palm_kernel(ginibre, ORIGIN).diagonal(ORIGIN)) < 1e-15

    def test_diagonal_kernel_unchanged_off_anchor(self, diag_kernel):
        palm = palm_kernel(diag_kernel, 1)
        assert palm.diagonal(2) == 0.7
        assert palm.diagonal(1) == 0.0

    def test_dominated_everywhere(self, ginibre):
        rng = np.random.default_rng(12)
        for _ in range(200):
            u, v = rng.normal(size=2), rng.normal(size=2)
            rho_u = palm_kernel(ginibre, u).diagonal(v)
            assert -1e-15 <= rho_u <= ginibre.diagonal(v) + 1e-15

    def test_removed_intensity_is_complex_gaussian(self, ginibre):
        # rho(v) - rho^u(v) = |K(u, v)|^2 / K(u, u), for Ginibre e^(-|u - v|^2) / pi
        rng = np.random.default_rng(9)
        for _ in range(20):
            u, v = rng.normal(size=2), rng.normal(size=2)
            want = math.exp(-float(np.sum((u - v) ** 2))) / math.pi
            got = ginibre.diagonal(v) - palm_kernel(ginibre, u).diagonal(v)
            assert abs(got - want) < 1e-13

    def test_standard_ginibre_pair_joint_intensity(self, ginibre):
        # the 2x2 determinant expands to (1 - e^-1) / pi^2
        pts = np.array([ORIGIN, E1])
        want = (1.0 - math.exp(-1.0)) / math.pi ** 2
        assert abs(np.linalg.det(ginibre.gram(pts, pts)).real - want) < 1e-15

    def test_joint_intensity_factorises_through_palm(self, ginibre):
        # rho_2(u, v) = rho(u) rho^u(v): the Palm kernel is the Schur complement
        rng = np.random.default_rng(10)
        for _ in range(50):
            u, v = rng.normal(size=2), rng.normal(size=2)
            pts = np.array([u, v])
            joint = np.linalg.det(ginibre.gram(pts, pts)).real
            assert abs(joint - ginibre.diagonal(u) * palm_kernel(ginibre, u).diagonal(v)) < 1e-14

    def test_joint_intensity_bounded_by_diagonal_product(self, ginibre):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pts = rng.normal(size=(int(rng.integers(2, 5)), 2))
            det = np.linalg.det(ginibre.gram(pts, pts)).real
            prod = float(np.prod([ginibre.diagonal(p) for p in pts]))
            assert -1e-12 <= det <= prod + 1e-12

    def test_matches_finite_palm_matrix(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            dpp = validate(random_dpp_matrix(rng, n))
            u = int(rng.integers(1, n + 1))
            sites = np.arange(1, n + 1)
            got = palm_kernel(finite_kernel(dpp), u).gram(sites, sites)
            assert np.allclose(got, palm_matrix(dpp, u).matrix, atol=1e-12)


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
            moment_quadrature(bare, 0.5)
        with pytest.raises(QuadratureError, match="declares no tail"):
            profile_coordinates(bare)
        assert profile_coordinates(bare, 3, 2.0).tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("kernel,args,want", [
        (finite_kernel(validate(np.diag([0.3, 0.7, 0.1]))), (), [1, 2, 3]),
        (multiquadric(0.5, 0.1)[1], (), np.linspace(0.0, math.pi, 64)),
        (multiquadric(0.5, 0.1)[1], (3, 2.0), [0.0, math.pi / 2, math.pi]),
        (ginibre_kernel(GinibreParams(1.0, 0.01)), (), np.linspace(0.0, 4.0, 64)),  # 40 s
        (ginibre_kernel(GinibreParams(1.0, 1.0)), (), np.linspace(0.0, 10.0, 64)),
        (jinc_kernel(2), (), np.linspace(0.0, 10.0, 64)),
        (jinc_kernel(2), (3, 2.0), [0.0, 1.0, 2.0]),
        (thin_rescale(jinc_kernel(2), 1.0, 1e-4), (), np.linspace(0.0, 4.0, 64)),  # 400 s
    ], ids=["finite", "sphere", "sphere-points", "ginibre-small-scale", "ginibre", "jinc",
            "jinc-points-and-end", "jinc-small-scale"])
    def test_profile_coordinates(self, kernel, args, want):
        # repulsiveness_p reports f_u where profile_coordinates lays it out by default
        assert np.array_equal(profile_coordinates(kernel, *args), want)
        space = kernel.space
        anchor = {"finite": 1, "sphere": np.eye(space.size + 1)[-1]}.get(space.kind, ORIGIN)
        report = repulsiveness_p(kernel, anchor)
        assert [c for c, _ in report.density_profile] == profile_coordinates(kernel).tolist()

    def test_finite_diagonal(self, diag_kernel):
        report = repulsiveness_p(diag_kernel, 1, spec=None)
        assert abs(report.p_u - 0.3) < 1e-12
        assert report.density_profile == [(1, 1.0), (2, 0.0)]

    def test_finite_profile_sums_to_one(self):
        rng = np.random.default_rng(14)
        k = finite_kernel(validate(random_dpp_matrix(rng, 5)))
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

    def test_modulus_above_the_bound_is_a_spectrum_violation(self):
        # |K(u, v)|^2 = exp(-|u - v|^2) with K(u, u) = 1 gives p_u = pi > 1
        k = Kernel(space=GroundSpace("euclidean", 2),
                   gram=lambda X, Y: np.exp(-0.5 * np.sum((X[:, None] - Y[None]) ** 2, axis=-1)),
                   radial_abs_sq=lambda r: np.exp(-np.asarray(r) ** 2), tail=Tail("gaussian", 1.0))
        with pytest.raises(ValidationError, match="exceeds 1") as exc:
            repulsiveness_p(k, ORIGIN)
        assert exc.value.token == "spectrum"

    def test_non_isotropic_rejected(self):
        k = Kernel(space=GroundSpace("euclidean", 2),
                   gram=lambda X, Y: np.exp(-np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=-1)))
        with pytest.raises(ValidationError):
            repulsiveness_p(k, ORIGIN)

    def test_zero_intensity_anchor_rejected(self):
        k = finite_kernel(validate(np.diag([0.0, 0.5])))
        with pytest.raises(ValidationError):
            repulsiveness_p(k, 1)


def assert_sphere_p_within_budget(model, kernel):
    """p_u by the polar rule against the eigen-series, within the quadrature
    error, the series' tail bound and a few ulps of p_u."""
    north = np.eye(model.d + 1)[-1]
    report = repulsiveness_p(kernel, north)
    series = sphere_p(model)
    budget = report.quadrature_error + series.tail_bound + 8.0 * np.finfo(float).eps * report.p_u
    assert abs(report.p_u - series.value) <= budget


class TestSphereErrorBudget:
    """The sphere's p_u over the range of each family, at its existence bound."""

    @pytest.mark.parametrize("delta", [0.05, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99])
    def test_multiquadric(self, delta):
        assert_sphere_p_within_budget(*multiquadric(delta, 1.0 / (4.0 * math.pi * (1.0 - delta))))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("l_max", [2, 39, 200])
    def test_coefficient_model(self, d, l_max):
        beta = 1.0 / np.arange(1.0, l_max + 2.0) ** 2
        beta /= beta.sum()
        mult = sphere_model(d, 1e-9, beta).multiplicities
        model = sphere_model(d, float(np.min(mult / (sphere_surface_measure(d) * beta))), beta)
        assert_sphere_p_within_budget(model, sphere_kernel(model))
