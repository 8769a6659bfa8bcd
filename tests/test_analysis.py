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
from palmdpp import analysis, model_zoo
from palmdpp.finite_dpp import sample_indicators
from palmdpp.kernel_core import GridFactor, GroundSpace, Kernel, palm_kernel
from palmdpp.model_zoo import (GinibreParams, ginibre_kernel, jinc_kernel, multiquadric,
                               sphere_kernel, sphere_model, thin_rescale)
from palmdpp.numerics import QuadratureSpec

from conftest import assert_sampler_matches_kernel

ORIGIN = np.zeros(2)


def leaky_ginibre() -> Kernel:
    """Ginibre scaled by 1 + 2e-4: its top grid eigenvalues leak past 1.

    The Gram matrix and the series factor are scaled alike, so the leak
    reaches whichever route the grid takes.
    """
    base = ginibre_kernel(GinibreParams(1.0, 1.0))
    bump = 1.0 + 2e-4

    def grid_factor(centers, measure, _f=base.grid_factor):
        factor = _f(centers, measure)
        return factor and GridFactor(math.sqrt(bump) * factor.phi, bump * factor.dropped_trace)

    return replace(base, gram=lambda X, Y, _g=base.gram: bump * _g(X, Y), grid_factor=grid_factor)


def dense_route(kernel: Kernel) -> Kernel:
    """The kernel without its grid factor: grids decompose the Gram matrix."""
    return replace(kernel, grid_factor=None)


def count_eig_calls(monkeypatch) -> list:
    """Record every numpy/scipy eigh and eigvalsh call, and every numpy SVD
    (the decomposition of a grid factor), from here on, as (name, shape of
    the decomposed array)."""
    calls = []
    for mod, names in ((np.linalg, ("eigh", "eigvalsh", "svd")),
                       (scipy.linalg, ("eigh", "eigvalsh"))):
        for name in names:
            def counted(*args, _orig=getattr(mod, name), _name=name, **kwargs):
                calls.append((_name, np.shape(args[0])))
                return _orig(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
    return calls


def poisson_style_kernel(rho: float) -> Kernel:
    """Continuous diagonal kernel: K(v, w) = rho when v == w, else 0."""

    def gram(X, Y, _r=rho):
        return _r * np.all(X[:, None, :] == Y[None, :, :], axis=-1).astype(complex)

    return Kernel(space=GroundSpace("euclidean", 2), gram=gram)


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

    @pytest.mark.parametrize("k,rho", [(300.0, 1e-5), (120.0, 1e5)],
                             ids=["scale-underflows", "scale-overflows"])
    def test_ginibre_beyond_double_precision(self, k, rho):
        # (pi rho)^(k/2) underflows to 0 or overflows; either way the refusal
        # is an OverflowError naming the moment, not ZeroDivisionError or errno 34
        with pytest.raises(OverflowError) as exc:
            ginibre_moment(k, rho)
        assert exc.type is OverflowError
        assert str(exc.value).startswith("the moment Gamma(1 + k/2)/(pi rho)^(k/2)")
        assert str(exc.value).endswith("is not finite")


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

    def test_only_planar_isotropic_kernels(self):
        with pytest.raises(ValidationError, match="isotropic kernels on the plane") as exc:
            moment_quadrature(jinc_kernel(1), [0.0], 0.5)
        assert exc.value.token == "param-bound"

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            moment_quadrature(jinc_kernel(2), ORIGIN, -2.5)

    @pytest.mark.parametrize("moment", [
        jinc_moment_closed,
        lambda k: ginibre_moment(k, 1.0 / math.pi),
        lambda k: moment_quadrature(jinc_kernel(2), ORIGIN, k),
        lambda k: moment_quadrature(ginibre_kernel(GinibreParams(1.0, 1.0)), ORIGIN, k),
    ], ids=["jinc-closed", "ginibre-closed", "jinc-quadrature", "ginibre-quadrature"])
    @pytest.mark.parametrize("k", [-2.0, -2.5, -1e300])
    def test_orders_at_or_below_minus_two_are_a_param_bound(self, moment, k):
        with pytest.raises(ValidationError, match="moments exist only for k > -2") as exc:
            moment(k)
        assert exc.value.token == "param-bound" and isinstance(exc.value, ValueError)

    def test_kernel_without_a_declared_norm_is_rejected(self):
        # the displacement law needs the row norm the family declares
        undeclared = thin_rescale(replace(jinc_kernel(2), norm_sq=None), 1.0, 0.5)
        assert undeclared.norm_sq is None and undeclared.p_u == 0.5
        for kernel in (jinc_kernel(2), thin_rescale(jinc_kernel(2), 1.0, 0.5), undeclared,
                       ginibre_kernel(GinibreParams(1.0, 1.0))):
            bare = replace(kernel, norm_sq=None)
            for call in (lambda: moment_quadrature(bare, ORIGIN, 0.5),
                         lambda: radial_profile(bare, ORIGIN, [0.0, 1.0])):
                with pytest.raises(ValidationError, match="norm") as exc:
                    call()
                assert exc.value.token == "param-bound"

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

    def test_radii_beyond_double_precision_are_an_overflow(self):
        # 2 pi r overflows before it meets radial(r) = 0
        for kernel in (ginibre_kernel(GinibreParams(1.0, 1.0)), jinc_kernel(2)):
            with pytest.raises(OverflowError):
                radial_profile(kernel, ORIGIN, [0.0, 5e307, 1e308])

    @pytest.mark.parametrize("rho", [1e-170, 1e-200])
    def test_underflowing_norm_is_an_overflow(self, rho):
        # the declared norm (pi rho)^2 / (pi rho) / pi rounds to 0
        alpha = math.pi * rho
        kernel = ginibre_kernel(GinibreParams(alpha, 1.0 / alpha))
        assert kernel.norm_sq == 0.0
        with pytest.raises(OverflowError):
            moment_quadrature(kernel, ORIGIN, 1.0)
        with pytest.raises(OverflowError):
            radial_profile(kernel, ORIGIN, [0.0, 1.0])


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
        counts = sample_indicators(grid.dpp, 17, draws).sum(axis=1)
        lam = grid.dpp.eig.eigenvalues
        sigma = math.sqrt(float(np.sum(lam * (1.0 - lam))) / draws)
        assert abs(counts.mean() - grid.expected_count) <= 3.0 * sigma

    def test_window_needs_two_bounds_per_axis(self):
        with pytest.raises(ValidationError, match="window must give 4 bounds for d=2") as exc:
            grid_discretize(ginibre_kernel(GinibreParams(1.0, 1.0)), (-1.0, 1.0), 3)
        assert exc.value.token == "param-bound"

    def test_non_hermitian_grid_is_not_blamed_on_the_cells(self):
        # a small real antisymmetric part, 1e-6 (x_v - x_w), on the dense route
        base = ginibre_kernel(GinibreParams(1.0, 1.0))
        skew = replace(base, grid_factor=None,
                       gram=lambda X, Y, _g=base.gram: _g(X, Y) + 1e-6 * (X[:, :1] - Y[:, 0]))
        with pytest.raises(ValidationError) as exc:
            grid_discretize(skew, (-1.0, 1.0, -1.0, 1.0), 3)
        assert exc.value.token == "non-hermitian" and "coarse" not in str(exc.value)

    def test_coarse_jinc_triggers_spectrum_guidance(self):
        with pytest.raises(ValidationError) as err:
            grid_discretize(jinc_kernel(2), (-2.0, 2.0, -2.0, 2.0), 2)
        assert err.value.token == "spectrum"
        assert "resolution" in str(err.value)

    def test_mild_leakage_is_clamped_and_reported(self):
        grid = grid_discretize(leaky_ginibre(), (-3.0, 3.0, -3.0, 3.0), 12)
        assert grid.dpp.clamp_report
        assert grid.dpp.clamp_report.max_excess <= 1e-3
        assert grid.dpp.eig.eigenvalues.max() <= 1.0 + 1e-12
        V = grid.dpp.eig.eigenvectors
        rebuilt = (V * grid.dpp.eig.eigenvalues) @ V.conj().T
        assert np.max(np.abs(rebuilt - grid.dpp.matrix)) < 1e-12

    def test_one_eigendecomposition_per_grid_and_none_per_draw(self, monkeypatch):
        # a 10 x 10 jinc grid: one batched eigh of its four 25 x 25 reflection blocks
        calls = count_eig_calls(monkeypatch)
        clean = grid_discretize(thin_rescale(jinc_kernel(2), 0.8, 0.8),
                                (-3.0, 3.0, -3.0, 3.0), 10)
        assert not clean.dpp.clamp_report and calls == [("eigh", (4, 25, 25))]
        sample_indicators(clean.dpp, 3, 70)
        assert calls == [("eigh", (4, 25, 25))]
        calls.clear()
        clamped = grid_discretize(leaky_ginibre(), (-3.0, 3.0, -3.0, 3.0), 12)
        assert clamped.dpp.clamp_report and [name for name, _ in calls] == ["svd"]
        calls.clear()
        dense = grid_discretize(dense_route(leaky_ginibre()), (-3.0, 3.0, -3.0, 3.0), 12)
        assert dense.dpp.clamp_report and calls == [("eigh", (144, 144))]

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
        bits = sample_indicators(grid.dpp, 5, 1000)
        assert grid.dpp.n == 100 and bits.shape == (1000, 100)
        assert_sampler_matches_kernel(grid.dpp, bits)

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

    def test_size_guard_comes_before_the_cell_centers(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cell centers built for a grid over the bound")

        monkeypatch.setattr(analysis, "_euclidean_centers", refuse)
        monkeypatch.setattr(analysis, "_sphere_centers", refuse)
        _, sphere = multiquadric(0.5, 1.0 / (4.0 * math.pi))
        for kernel, window, resolution in ((jinc_kernel(1), (-1.0, 1.0), 4097),
                                           (jinc_kernel(2), (-1.0, 1.0, -1.0, 1.0), 10 ** 6),
                                           (sphere, None, 46)):
            with pytest.raises(SizeGuardError):
                grid_discretize(kernel, window, resolution)

    def test_palm_kernel_grid_is_the_schur_complement(self):
        # entry by entry, K(c_i, c_j) - K(c_i, u) K(u, c_j) / K(u, u) per cell
        base = ginibre_kernel(GinibreParams(0.5, 1.2))
        u = np.array([0.3, -0.2])
        grid = grid_discretize(palm_kernel(base, u), (-2.0, 2.0, -2.0, 2.0), 6)
        assert not grid.dpp.clamp_report
        c, ku = grid.centers, base.evaluate(u, u)
        want = np.array([[base.evaluate(v, w) - base.evaluate(v, u) * base.evaluate(u, w) / ku
                          for w in c] for v in c]) * grid.cell_measure
        assert np.max(np.abs(grid.dpp.matrix - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("resolution", [3, 10])
    def test_sphere_grid_takes_one_batched_block_eigh(self, monkeypatch, resolution):
        _, kernel = multiquadric(0.5, 0.1)
        calls = count_eig_calls(monkeypatch)
        grid = grid_discretize(kernel, None, resolution)
        assert calls == [("eigh", (resolution + 1, resolution, resolution))]
        assert grid.dpp._matrix is None and grid.dpp.n == 2 * resolution ** 2
        sample_indicators(grid.dpp, 3, 70)
        assert len(calls) == 1 and grid.dpp._matrix is None

    @pytest.mark.parametrize("base,u,window,resolution", [
        (multiquadric(0.5, 0.1)[1], np.array([0.0, 0.6, 0.8]), None, 3),
        (thin_rescale(jinc_kernel(2), 0.8, 0.8), np.array([0.3, -0.2]), (-2.0, 2.0, -2.0, 2.0), 6),
    ], ids=["sphere", "jinc"])
    def test_palm_kernel_takes_the_dense_route(self, monkeypatch, base, u, window, resolution):
        # a derived kernel declares no k0 and no radial, so its grid decomposes the Gram matrix
        calls = count_eig_calls(monkeypatch)
        grid = grid_discretize(palm_kernel(base, u), window, resolution)
        assert calls == [("eigh", (grid.dpp.n, grid.dpp.n))]
        c, ku = grid.centers, base.evaluate(u, u)
        want = np.array([[base.evaluate(v, w) - base.evaluate(v, u) * base.evaluate(u, w) / ku
                          for w in c] for v in c]).real * grid.cell_measure
        assert np.max(np.abs(grid.dpp.matrix - want)) <= 1e-14 * np.max(np.abs(want))

    def test_1d_window(self):
        grid = grid_discretize(jinc_kernel(1), (-2.0, 2.0), 8)
        assert grid.dpp.n == 8
        assert abs(grid.expected_count - 4.0 / math.pi) < 1e-12


class TestGridFactor:
    """Ginibre grids from the declared series factor, against the dense route."""

    def test_eigenvalues_match_the_full_eigh_at_32x32(self):
        kernel = ginibre_kernel(GinibreParams(1.0, 1.0))
        grid = grid_discretize(kernel, (-4.0, 4.0, -4.0, 4.0), 32)
        lam = grid.dpp.eig.eigenvalues
        assert lam.size < grid.dpp.n == 1024
        gram = kernel.gram(grid.centers, grid.centers) * grid.cell_measure
        full = np.linalg.eigvalsh(gram)[::-1]
        assert np.max(np.abs(lam - full[:lam.size])) <= 1e-12
        assert np.max(np.abs(full[lam.size:])) <= 1e-12
        assert grid.dpp.clamp_report.dropped_trace <= 1e-12

    def test_short_series_reports_what_it_drops(self, monkeypatch):
        monkeypatch.setattr(model_zoo, "_SERIES_TAIL", 1e-3)
        kernel = ginibre_kernel(GinibreParams(1.0, 1.0))
        grid = grid_discretize(kernel, (-3.0, 3.0, -3.0, 3.0), 12)
        delta = grid.dpp.clamp_report.dropped_trace
        lam = grid.dpp.eig.eigenvalues
        gram = kernel.gram(grid.centers, grid.centers) * grid.cell_measure
        lost = float(np.trace(gram).real) - float(lam.sum())
        assert delta > 1e-4  # the series was cut short
        assert lost <= delta * (1.0 + 1e-12) + 1e-13
        assert lost >= delta * (1.0 - 1e-12) - 1e-13  # the dropped terms are all of the loss
        # the dropped terms are PSD of trace delta, so no eigenvalue moves further
        full = np.linalg.eigvalsh(gram)[::-1]
        gap = full - np.append(lam, np.zeros(full.size - lam.size))
        assert gap.min() >= -1e-13 and gap.max() <= delta + 1e-13

    def test_row_norms_and_tails_make_the_diagonal_far_out(self):
        alpha, beta, measure = 0.8, 1.0, 0.01
        rng = np.random.default_rng(4)
        r, theta = rng.uniform(29.5, 30.5, 2000), rng.uniform(0.0, 2.0 * math.pi, 2000)
        centers = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        factor = ginibre_kernel(GinibreParams(alpha, beta)).grid_factor(centers, measure)
        m = factor.phi.shape[1]
        diag = alpha * measure / math.pi
        tails = diag * special.gammainc(m, r ** 2 / beta)
        rows = np.sum(np.abs(factor.phi) ** 2, axis=1) + tails
        assert m < centers.shape[0]
        assert np.max(np.abs(rows / diag - 1.0)) <= 1e-12
        assert abs(factor.dropped_trace - tails.sum()) <= 1e-12 * tails.sum()
        assert tails.max() <= 1e-13 * diag

    def test_factor_only_below_the_cell_count(self):
        kernel = ginibre_kernel(GinibreParams(1.0, 1.0))
        coarse = grid_discretize(kernel, (-2.5, 2.5, -2.5, 2.5), 5)
        assert coarse.dpp.eig.eigenvalues.size == coarse.dpp.n == 25
        assert coarse.dpp.clamp_report.dropped_trace == 0.0
        assert kernel.grid_factor(coarse.centers, coarse.cell_measure) is None

    @pytest.mark.parametrize("params,half,resolution", [
        ((0.6, 1.3), 2.0, 6), ((1.0, 1.0), 3.0, 12), ((1.0, 1.0), 3.5, 16),
        ((0.9, 1.05), 4.0, 20)])
    def test_sample_stream_matches_the_dense_route(self, params, half, resolution):
        kernel = ginibre_kernel(GinibreParams(*params))
        window = (-half, half, -half, half)
        grid = grid_discretize(kernel, window, resolution)
        dense = grid_discretize(dense_route(kernel), window, resolution)
        assert grid.dpp.eig.eigenvalues.size < grid.dpp.n == dense.dpp.eig.eigenvalues.size
        for seed in range(20):
            assert np.array_equal(sample_indicators(grid.dpp, seed, 100),
                                  sample_indicators(dense.dpp, seed, 100))

    def test_matrix_is_built_on_access(self):
        grid = grid_discretize(ginibre_kernel(GinibreParams(1.0, 1.0)),
                               (-3.0, 3.0, -3.0, 3.0), 12)
        V, lam = grid.dpp.eig.eigenvectors, grid.dpp.eig.eigenvalues
        assert V.shape == (144, lam.size)
        M = grid.dpp.matrix
        assert M.shape == (144, 144) and M is grid.dpp.matrix
        assert np.max(np.abs(M - (V * lam) @ V.conj().T)) <= 1e-14

    def test_overflowing_factor_is_an_overflow(self):
        kernel = ginibre_kernel(GinibreParams(1.0, 1.0))
        broken = replace(kernel, grid_factor=lambda c, m: GridFactor(
            np.full((c.shape[0], 2), np.inf + 0j), 0.0))
        with pytest.raises(OverflowError):
            grid_discretize(broken, (-1.0, 1.0, -1.0, 1.0), 3)
        with pytest.raises(OverflowError):
            grid_discretize(kernel, (0.0, 1e308, 0.0, 1e308), 3)


# (d, first cell center, step per axis): centred and off-centre windows, equal and unequal steps
REFLECTION_GRIDS = [(1, (-2.0,), (0.4,)), (1, (0.3,), (0.55,)),
                    (2, (-1.5, -1.5), (0.3, 0.3)), (2, (-1.1, 0.7), (0.45, 0.6))]


def reflection_window(lower, steps, resolution):
    return tuple(x for lo, h in zip(lower, steps) for x in (lo, lo + h * resolution))


class TestReflectionBlocks:
    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 10, 11])
    @pytest.mark.parametrize("d,lower,steps", REFLECTION_GRIDS)
    def test_block_spectrum_matches_the_dense_eigh(self, d, lower, steps, resolution):
        # eigenvalues within 1e-13 of the Gram matrix's dense eigh, and
        # V diag(lam) V^T within 1e-14 of it, relative to its norm lam[0]
        kernel = thin_rescale(jinc_kernel(d), 0.9, 0.8)
        grid = grid_discretize(kernel, reflection_window(lower, steps, resolution), resolution)
        gram = kernel.gram(grid.centers, grid.centers) * grid.cell_measure
        lam, V = grid.dpp.eig.eigenvalues, grid.dpp.eig.eigenvectors
        assert not grid.dpp.clamp_report and grid.dpp._matrix is None
        assert np.max(np.abs(lam - np.linalg.eigvalsh(gram)[::-1])) <= 1e-13
        assert np.max(np.abs((V * lam) @ V.T - gram)) <= 1e-14 * lam[0]
        assert np.max(np.abs(V.T @ V - np.eye(grid.dpp.n))) <= 1e-13

    @pytest.mark.parametrize("d,resolution,block", [(1, 12, 6), (1, 13, 7), (2, 10, 25),
                                                    (2, 11, 36)])
    def test_grid_takes_one_batched_block_eigh(self, monkeypatch, d, resolution, block):
        # 2^d blocks of ceil(R / 2)^d; an odd R pads the odd blocks to that size
        calls = count_eig_calls(monkeypatch)
        grid = grid_discretize(jinc_kernel(d), (-2.0, 2.0) * d, resolution)
        assert calls == [("eigh", (2 ** d, block, block))]
        assert grid.dpp.eig.eigenvalues.size == grid.dpp.n == resolution ** d

    def test_blocks_beyond_double_precision_are_refused_like_the_dense_route(self):
        # every entry 1e307: the blocks' row sums overflow, so the odd blocks'
        # eigenvalues are nan, and the spectrum gate refuses them as it
        # refuses the dense route's 9e307
        flat = Kernel(space=GroundSpace("euclidean", 2),
                      gram=lambda X, Y: np.full((len(X), len(Y)), 1e307),
                      radial=lambda r: np.full(np.shape(r), 1e307))
        for kernel in (flat, replace(flat, radial=None)):
            with pytest.raises(ValidationError) as err:
                grid_discretize(kernel, (0.0, 3.0, 0.0, 3.0), 3)
            assert err.value.token == "spectrum"

    def test_overflowing_table_is_an_overflow(self):
        kernel = jinc_kernel(2)
        huge = replace(kernel, radial=lambda r, _k=kernel.radial: 1e308 * _k(r) * 1e10)
        with pytest.raises(OverflowError, match="the grid's kernel matrix"):
            grid_discretize(huge, (-1.0, 1.0, -1.0, 1.0), 3)
        with pytest.raises(OverflowError):
            grid_discretize(kernel, (0.0, 1e308, 0.0, 1e308), 3)


SPHERE_KERNELS = {
    "multiquadric": lambda: multiquadric(0.5, 0.1)[1],
    "sphere-coefficients": lambda: sphere_kernel(sphere_model(2, 0.1, [0.5, 0.3, 0.2])),
}


class TestSphereBlocks:
    @pytest.mark.parametrize("resolution", [2, 3, 4, 5, 10, 11])
    @pytest.mark.parametrize("family", sorted(SPHERE_KERNELS))
    def test_block_spectrum_matches_the_dense_eigh(self, family, resolution):
        # eigenvalues within 1e-13 of the Gram matrix's dense eigh, and
        # V diag(lam) V^T within 1e-14 of it, relative to its largest entry
        kernel = SPHERE_KERNELS[family]()
        grid = grid_discretize(kernel, None, resolution)
        gram = kernel.gram(grid.centers, grid.centers) * grid.cell_measure
        lam, V = grid.dpp.eig.eigenvalues, grid.dpp.eig.eigenvectors
        assert np.max(np.abs(lam - np.linalg.eigvalsh(gram)[::-1])) <= 1e-13
        assert np.max(np.abs((V * lam) @ V.T - gram)) <= 1e-14 * np.max(np.abs(gram))
        assert np.max(np.abs(V.T @ V - np.eye(grid.dpp.n))) <= 1e-13

    def test_overflowing_table_is_an_overflow(self):
        _, kernel = multiquadric(0.5, 0.1)
        huge = replace(kernel, k0=lambda t, _k0=kernel.k0: 1e308 * _k0(t) * 1e10)
        with pytest.raises(OverflowError, match="the grid's kernel matrix"):
            grid_discretize(huge, None, 3)


class TestMcValidateCoupling:
    @staticmethod
    def assert_ginibre_passes(resolution):
        k = ginibre_kernel(GinibreParams(1.0, 1.0))
        report = mc_validate_coupling(k, ORIGIN, (-1.0, 1.0, -1.0, 1.0), resolution,
                                      samples=20000, rng_seed=11)
        assert report.flow >= 1.0 - 1e-8
        assert abs(report.z_score) <= 3.0
        assert report.chi2_pvalue >= 0.01
        assert np.all(report.expected[:-1] >= 20.0)

    def test_discretized_ginibre(self):
        self.assert_ginibre_passes(3)

    def test_discretized_ginibre_sixteen_cells(self):
        # a 4 x 4 grid: the largest square grid the coupling guard admits
        self.assert_ginibre_passes(4)

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
                                 (-1.0, 1.0, -1.0, 1.0), 5, samples=100, rng_seed=1)

    def test_sample_count_is_refused_before_the_grid(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid discretized for a refused sample count")

        monkeypatch.setattr(analysis, "grid_discretize", refuse)
        for samples in (0, -5):
            with pytest.raises(ValidationError) as err:
                mc_validate_coupling(ginibre_kernel(GinibreParams(1.0, 1.0)), ORIGIN,
                                     (-1.0, 1.0, -1.0, 1.0), 3, samples=samples, rng_seed=1)
            assert err.value.token == "param-bound" and "draws" in str(err.value)
