"""Moments, radial profiles, grid discretization, and MC coupling checks."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy import integrate, special

from palmdpp.analysis import (
    grid_discretize,
    ginibre_moment,
    jinc_moment_closed,
    mc_validate_coupling,
    moment_quadrature,
    radial_profile,
)
from palmdpp.errors import SizeGuardError, ValidationError
from palmdpp.finite_dpp import sample_exact_many
from palmdpp.kernel_core import GroundSpace, Kernel, palm_kernel
from palmdpp.model_zoo import (GinibreParams, ginibre_kernel, jinc_kernel, multiquadric,
                               sphere_kernel, sphere_model, thin_rescale)
from palmdpp.numerics import QuadratureSpec

from conftest import assert_sampler_matches_kernel

ORIGIN = np.zeros(2)


def leaky_ginibre() -> Kernel:
    """Ginibre scaled by 1 + 2e-4: its top grid eigenvalues leak past 1."""
    base = ginibre_kernel(GinibreParams(1.0, 1.0))
    bump = 1.0 + 2e-4
    return replace(base, gram=lambda X, Y, _g=base.gram: bump * _g(X, Y))


def count_eig_calls(monkeypatch) -> list:
    """Record every numpy/scipy eigh and eigvalsh call from here on."""
    calls = []
    for mod in (np.linalg, scipy.linalg):
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _orig=getattr(mod, name), _name=name, **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
    return calls


def poisson_style_kernel(rho: float) -> Kernel:
    """Continuous diagonal kernel: K(v, w) = rho when v == w, else 0."""

    def gram(X, Y, _r=rho):
        return _r * np.all(X[:, None, :] == Y[None, :, :], axis=-1).astype(complex)

    return Kernel(space=GroundSpace.euclidean(2), gram=gram)


class TestClosedFormMoments:
    def test_jinc_values(self):
        assert jinc_moment_closed(0.0) == 1.0
        assert abs(jinc_moment_closed(-1.0) - 16.0 / (3.0 * math.pi)) < 1e-14
        assert jinc_moment_closed(1.0) == math.inf
        assert jinc_moment_closed(2.5) == math.inf
        with pytest.raises(ValueError):
            jinc_moment_closed(-2.0)

    def test_ginibre_values(self):
        rho = 1.0 / math.pi
        assert ginibre_moment(0.0, rho) == 1.0
        assert abs(ginibre_moment(2.0, rho) - 1.0) < 1e-14
        assert abs(ginibre_moment(1.0, rho) - math.sqrt(math.pi) / 2.0) < 1e-14
        with pytest.raises(ValueError):
            ginibre_moment(-2.0, rho)
        with pytest.raises(ValueError):
            ginibre_moment(1.0, 0.0)


class TestMomentQuadrature:
    def test_jinc_normalization(self):
        res = moment_quadrature(jinc_kernel(2), ORIGIN, 0.0)
        assert abs(res.quadrature - 1.0) < 1e-6
        assert not res.divergent

    def test_jinc_matches_gamma_ratio(self):
        for k in (-1.5, -1.0, -0.5, 0.5, 0.9):
            res = moment_quadrature(jinc_kernel(2), ORIGIN, k)
            closed = jinc_moment_closed(k)
            assert abs(res.quadrature - closed) <= 1e-3 * abs(closed) + res.tail_estimate

    def test_jinc_divergent_orders(self):
        for k in (1.0, 1.5):
            res = moment_quadrature(jinc_kernel(2), ORIGIN, k)
            assert res.divergent
            assert math.isnan(res.quadrature)

    def test_divergence_is_non_cauchy_in_truncation(self):
        # doubling the truncation radius keeps adding order-one mass for k = 1
        def mass(r):
            r = np.asarray(r, dtype=float)
            out = np.zeros_like(r)
            nz = r > 0
            out[nz] = r[nz] * 2.0 * special.j1(2.0 * r[nz]) ** 2 / r[nz]
            return out

        partials = []
        for radius in (100.0, 200.0, 400.0, 800.0):
            val, _ = integrate.quad(lambda r: float(mass(np.array([r]))[0]),
                                    0.0, radius, limit=2000)
            partials.append(val)
        increments = np.diff(partials)
        assert np.all(increments > 0.05)  # growing without settling

    def test_ginibre_first_moment(self):
        res = moment_quadrature(ginibre_kernel(GinibreParams(1.0, 1.0)), ORIGIN, 1.0)
        assert abs(res.quadrature - math.sqrt(math.pi) / 2.0) < 1e-6

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            moment_quadrature(jinc_kernel(2), ORIGIN, -2.5)

    @pytest.mark.parametrize("rho", [0.05, 1.0 / math.pi, 1.0, 1e8])
    def test_ginibre_within_abs_error(self, rho):
        # the error budget covers rounding, so no slack is needed
        alpha = math.pi * rho
        kernel = ginibre_kernel(GinibreParams(alpha, 1.0 / alpha))
        # k over (-2, 4], with the orders next to the origin singularity
        for k in np.append(np.arange(-1.75, 4.0 + 1e-9, 0.25), [-1.99, -1.95, -1.9]):
            res = moment_quadrature(kernel, ORIGIN, float(k))
            assert abs(res.quadrature - ginibre_moment(float(k), rho)) <= res.abs_error

    def test_jinc_within_abs_error(self):
        # k over (-2, 1): next to the origin singularity and to the divergence at 1
        for k in np.append(np.linspace(-1.95, 0.9, 20), [-1.99, -1.9, 0.95, 0.99]):
            res = moment_quadrature(jinc_kernel(2), ORIGIN, float(k))
            assert abs(res.quadrature - jinc_moment_closed(float(k))) <= res.abs_error

    @staticmethod
    def counted_jinc(beta: float):
        """Thinned jinc whose radial profile records how many radii it gets."""
        base = thin_rescale(jinc_kernel(2), 1.0, beta)
        radial = base.radial_abs_sq
        calls = []

        def counted(r):
            calls.append(np.size(r))
            return radial(r)

        return replace(base, radial_abs_sq=counted), calls

    @pytest.mark.parametrize("beta", [1.0, 0.25])
    def test_integrand_evaluations_at_default_radius(self, beta):
        # the default radius and the panels are both measured in the length scale
        kernel, calls = self.counted_jinc(beta)
        res = moment_quadrature(kernel, ORIGIN, 0.5)
        # |Z_u - u| scales with sqrt(beta) under thinning
        want = beta ** 0.25 * jinc_moment_closed(0.5)
        assert abs(res.quadrature - want) <= res.abs_error
        assert sum(calls) <= 10_000

    def test_integrand_evaluations_grow_like_inverse_length_at_fixed_radius(self):
        spec = QuadratureSpec(truncation_radius=200.0)
        counts = []
        for beta in (1.0, 0.25, 0.04):  # length scales 1, 1/2, 1/5
            kernel, calls = self.counted_jinc(beta)
            moment_quadrature(kernel, ORIGIN, 0.5, spec=spec)
            counts.append(sum(calls))
        assert 1.9 <= counts[1] / counts[0] <= 2.0
        assert 4.7 <= counts[2] / counts[0] <= 5.0


class TestRadialProfile:
    def test_ginibre_is_rayleigh(self):
        radii = np.linspace(0.0, 6.0, 121)
        prof = radial_profile(ginibre_kernel(GinibreParams(1.0, 1.0)), ORIGIN, radii)
        want = 2.0 * radii * np.exp(-radii ** 2)
        assert np.max(np.abs(prof.density - want)) < 1e-12

    def test_jinc_closed_form(self):
        radii = np.linspace(0.0, 10.0, 201)
        prof = radial_profile(jinc_kernel(2), ORIGIN, radii)
        with np.errstate(invalid="ignore", divide="ignore"):
            want = np.where(radii > 0,
                            2.0 * special.j1(2.0 * radii) ** 2 / np.where(radii > 0, radii, 1.0),
                            0.0)
        assert np.max(np.abs(prof.density - want)) < 1e-12

    def test_densities_nonnegative_and_normalized(self):
        radii = np.linspace(0.0, 12.0, 400)
        for kernel in (ginibre_kernel(GinibreParams(1.0, 1.0)), jinc_kernel(2)):
            prof = radial_profile(kernel, ORIGIN, radii)
            assert np.all(prof.density >= 0.0)
            assert np.trapezoid(prof.density, radii) <= 1.0 + 1e-3


class TestGridDiscretize:
    def test_constant_diagonal_kernel(self):
        rho = 0.5
        grid = grid_discretize(poisson_style_kernel(rho), (0.0, 1.0, 0.0, 1.0), 3)
        cell = (1.0 / 3.0) ** 2
        assert np.allclose(grid.dpp.matrix, rho * cell * np.eye(9), atol=1e-15)
        assert abs(grid.expected_count - rho) < 1e-12

    def test_ginibre_trace_matches_intensity_integral(self):
        k = ginibre_kernel(GinibreParams(1.0, 1.0))
        grid = grid_discretize(k, (-3.0, 3.0, -3.0, 3.0), 24)
        assert abs(grid.expected_count - 36.0 / math.pi) < 1e-10
        lam = grid.dpp.eig.eigenvalues
        assert lam.min() >= 0.0 and lam.max() <= 1.0

    def test_ginibre_sampled_counts(self):
        k = ginibre_kernel(GinibreParams(1.0, 1.0))
        grid = grid_discretize(k, (-3.0, 3.0, -3.0, 3.0), 12)
        draws = 1500
        masks = sample_exact_many(grid.dpp, 17, draws)
        counts = np.array([bin(int(m)).count("1") for m in masks], dtype=float)
        lam = grid.dpp.eig.eigenvalues
        sigma = math.sqrt(float(np.sum(lam * (1.0 - lam))) / draws)
        assert abs(counts.mean() - grid.expected_count) <= 3.0 * sigma

    def test_coarse_jinc_triggers_spectrum_guidance(self):
        with pytest.raises(ValidationError) as err:
            grid_discretize(jinc_kernel(2), (-2.0, 2.0, -2.0, 2.0), 2)
        assert err.value.token == "spectrum"
        assert "resolution" in str(err.value)

    def test_mild_leakage_is_clamped_and_reported(self):
        grid = grid_discretize(leaky_ginibre(), (-3.0, 3.0, -3.0, 3.0), 12)
        assert grid.clamp_report
        assert grid.clamp_report.max_excess <= 1e-3
        assert grid.dpp.eig.eigenvalues.max() <= 1.0 + 1e-12
        V = grid.dpp.eig.eigenvectors
        rebuilt = (V * grid.dpp.eig.eigenvalues) @ V.conj().T
        assert np.max(np.abs(rebuilt - grid.dpp.matrix)) < 1e-12

    def test_one_eigendecomposition_per_grid_and_none_per_draw(self, monkeypatch):
        calls = count_eig_calls(monkeypatch)
        clean = grid_discretize(thin_rescale(jinc_kernel(2), 0.8, 0.8),
                                (-3.0, 3.0, -3.0, 3.0), 10)
        assert not clean.clamp_report and calls == ["eigh"]
        sample_exact_many(clean.dpp, 3, 70)
        assert calls == ["eigh"]
        calls.clear()
        clamped = grid_discretize(leaky_ginibre(), (-3.0, 3.0, -3.0, 3.0), 12)
        assert clamped.clamp_report and calls == ["eigh"]

    def test_real_kernels_give_real_matrices(self):
        model = sphere_model(2, 0.1, [0.5, 0.3, 0.2])
        _, mq = multiquadric(0.5, 1.0 / (4.0 * math.pi))
        grids = [grid_discretize(jinc_kernel(2), (-2.0, 2.0, -2.0, 2.0), 8),
                 grid_discretize(thin_rescale(jinc_kernel(2), 0.8, 0.8),
                                 (-2.0, 2.0, -2.0, 2.0), 6),
                 grid_discretize(jinc_kernel(1), (-2.0, 2.0), 8),
                 grid_discretize(sphere_kernel(model), None, 3),
                 grid_discretize(mq, None, 3)]
        for grid in grids:
            assert grid.dpp.matrix.dtype == np.float64
            assert grid.dpp.eig.eigenvectors.dtype == np.float64
        ginibre = grid_discretize(ginibre_kernel(GinibreParams(1.0, 1.0)),
                                  (-2.0, 2.0, -2.0, 2.0), 6)
        assert ginibre.dpp.matrix.dtype == np.complex128

    def test_sampler_law_on_grid_wider_than_int64(self):
        grid = grid_discretize(thin_rescale(jinc_kernel(2), 0.8, 0.8),
                               (-3.0, 3.0, -3.0, 3.0), 10)
        masks = sample_exact_many(grid.dpp, 5, 1000)
        assert grid.dpp.n == 100 and masks.dtype == object
        assert_sampler_matches_kernel(grid.dpp, masks)

    def test_sphere_full_surface(self):
        rho = 1.0 / (4.0 * math.pi)  # half the existence bound at delta = 0.5
        _, kernel = multiquadric(0.5, rho)
        grid = grid_discretize(kernel, None, 2)
        assert grid.dpp.n == 8
        assert abs(grid.expected_count - rho * 4.0 * math.pi) < 1e-10

    def test_sphere_near_projection_mode_is_guarded(self):
        # at maximal intensity the top eigenvalue is exactly 1 and a coarse
        # grid overshoots it; the guidance path must trigger
        _, kernel = multiquadric(0.5, 1.0 / (2.0 * math.pi))
        with pytest.raises(ValidationError) as err:
            grid_discretize(kernel, None, 2)
        assert err.value.token == "spectrum"

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            grid_discretize(ginibre_kernel(GinibreParams(1.0, 1.0)),
                            (-3.0, 3.0, -3.0, 3.0), 65)

    def test_palm_kernel_grid_is_the_schur_complement(self):
        # entry by entry, K(c_i, c_j) - K(c_i, u) K(u, c_j) / K(u, u) per cell
        base = ginibre_kernel(GinibreParams(0.5, 1.2))
        u = np.array([0.3, -0.2])
        grid = grid_discretize(palm_kernel(base, u), (-2.0, 2.0, -2.0, 2.0), 6)
        assert not grid.clamp_report
        c, ku = grid.centers, base.evaluate(u, u)
        want = np.array([[base.evaluate(v, w) - base.evaluate(v, u) * base.evaluate(u, w) / ku
                          for w in c] for v in c]) * grid.cell_measure
        assert np.max(np.abs(grid.dpp.matrix - want)) <= 1e-14 * np.max(np.abs(want))

    def test_1d_window(self):
        grid = grid_discretize(jinc_kernel(1), (-2.0, 2.0), 8)
        assert grid.dpp.n == 8
        assert abs(grid.expected_count - 4.0 / math.pi) < 1e-12


class TestMcValidateCoupling:
    def test_discretized_ginibre(self):
        k = ginibre_kernel(GinibreParams(1.0, 1.0))
        report = mc_validate_coupling(k, ORIGIN, (-1.0, 1.0, -1.0, 1.0), 3,
                                      samples=20000, rng_seed=11)
        assert report.flow >= 1.0 - 1e-8
        assert abs(report.z_score) <= 3.0
        assert report.chi2_pvalue >= 0.01
        assert np.all(report.expected[:-1] >= 20.0)

    def test_diagonal_kernel_displaces_only_anchor(self):
        report = mc_validate_coupling(poisson_style_kernel(0.9),
                                      np.array([0.5, 0.5]), (0.0, 1.0, 0.0, 1.0), 2,
                                      samples=4000, rng_seed=13)
        assert report.flow >= 1.0 - 1e-8
        # removals happen at the anchor cell or not at all
        support = np.nonzero(report.density_exact)[0]
        assert support.tolist() == [report.anchor_site - 1]
        assert abs(report.z_score) <= 3.0

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            mc_validate_coupling(ginibre_kernel(GinibreParams(1.0, 1.0)), ORIGIN,
                                 (-1.0, 1.0, -1.0, 1.0), 4, samples=100, rng_seed=1)
