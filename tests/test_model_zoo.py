"""Parametric kernel families and their declared identities."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from palmdpp.analysis import grid_discretize
from palmdpp.errors import ValidationError
from palmdpp.finite_dpp import sample_indicators
from palmdpp.kernel_core import repulsiveness_p, sphere_surface_measure
from palmdpp.model_zoo import (
    GinibreParams,
    _jinc_radial,
    _sinc_radial,
    ginibre_kernel,
    jinc_kernel,
    multiquadric,
    sphere_kernel,
    sphere_model,
    sphere_p,
    thin_rescale,
)

ORIGIN = np.zeros(2)
J1_FIRST_ZERO = 3.831705970207512


def fourier_ball_kernel_value(d: int, r: float) -> float:
    """Fourier-ball kernel value at separation r for general dimension.

    Evaluates the inverse transform of the ball indicator of volume
    1/pi by one-dimensional quadrature; a slow oracle for the closed
    forms.
    """
    radius = (d * math.gamma(d / 2.0) / (2.0 * math.pi ** (1.0 + d / 2.0))) ** (1.0 / d)
    if d == 1:
        if abs(r) < 1e-12:
            return 2.0 * radius
        return math.sin(2.0 * math.pi * radius * r) / (math.pi * r)
    nu = d / 2.0 - 1.0
    norm = (2.0 * math.pi) ** (d / 2.0)
    limit0 = 1.0 / (2.0 ** nu * math.gamma(nu + 1.0))

    def integrand(t: float) -> float:
        z = 2.0 * math.pi * r * t
        osc = limit0 if z < 1e-10 else special.jv(nu, z) / z ** nu
        return norm * t ** (d - 1) * osc

    val, _ = integrate.quad(integrand, 0.0, radius, epsabs=1e-14, epsrel=1e-12, limit=200)
    return val


class TestGinibre:
    def test_parameter_bound(self):
        with pytest.raises(ValidationError):
            GinibreParams(1.0, 1.5)
        with pytest.raises(ValidationError):
            GinibreParams(-0.5, 1.0)

    def test_standard_intensity(self):
        k = ginibre_kernel(GinibreParams(1.0, 1.0))
        for p in (ORIGIN, np.array([1.3, -0.4])):
            assert abs(k.diagonal(p) - 1.0 / math.pi) < 1e-15

    def test_modulus_is_stationary_gaussian(self):
        k = ginibre_kernel(GinibreParams(0.5, 1.5))
        rng = np.random.default_rng(31)
        for _ in range(50):
            v, w = rng.normal(size=2), rng.normal(size=2)
            want = (0.5 / math.pi) ** 2 * math.exp(-float(np.sum((v - w) ** 2)) / 1.5)
            assert abs(abs(k.evaluate(v, w)) ** 2 - want) < 1e-14

    def test_projection_identity_by_quadrature(self):
        # the squared row integrates back to the diagonal when alpha = beta = 1
        k = ginibre_kernel(GinibreParams(1.0, 1.0))
        report = repulsiveness_p(k, np.array([0.7, 0.1]))
        assert abs(report.norm_sq - k.diagonal(ORIGIN)) <= 1e-8

    def test_gram_matches_eval(self):
        # both against the closed form, on two different point sets
        alpha, beta = 0.8, 1.2
        k = ginibre_kernel(GinibreParams(alpha, beta))
        xs = np.array([[0.0, 0.0], [0.5, -0.3], [1.1, 0.9]])
        ys = np.array([[-0.7, 0.2], [0.5, -0.3]])
        g = k.gram(xs, ys)
        assert g.shape == (3, 2)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                zx, zy = complex(*x), complex(*y)
                want = (alpha / math.pi) * np.exp(
                    zx * zy.conjugate() / beta - (abs(zx) ** 2 + abs(zy) ** 2) / (2.0 * beta))
                assert abs(g[i, j] - want) < 1e-15
                assert abs(k.evaluate(x, y) - want) < 1e-15

    @pytest.mark.parametrize("beta", [1.0, 1e-3, 1e-6])
    @pytest.mark.parametrize("anchor", [(0.0, 0.0), (3.0, -2.0), (30.0, 20.0)])
    def test_p_u_off_the_origin_within_reported_error(self, anchor, beta):
        # exp(v conj(w)/beta - (|v|^2 + |w|^2)/(2 beta)) cancels two terms of
        # about |u|^2/beta on the diagonal; the modulus/phase form does not
        k = ginibre_kernel(GinibreParams(1.0, beta))
        u = np.array(anchor)
        assert k.diagonal(u) == 1.0 / math.pi
        report = repulsiveness_p(k, u)
        assert abs(report.p_u - beta) <= report.quadrature_error

    def test_beta_whose_reciprocal_overflows_is_refused_by_name(self):
        # gram divides its exponent by beta through 1/beta: 0 * inf would make K(u, u) nan
        with pytest.raises(OverflowError, match=r"1/beta at beta = 1e-310 is not finite$"):
            ginibre_kernel(GinibreParams(1.0, 1e-310))
        k = ginibre_kernel(GinibreParams(1.0, 5.6e-309))  # near the least beta with 1/beta finite
        assert k.diagonal(np.array([3.0, -2.0])) == 1.0 / math.pi


def masked_radial(r, far, small):
    """Radial profile by the branch-per-mask evaluation: far(r) away from
    the origin, the series small(r) for |r| < 1e-6."""
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    near = np.abs(r) < 1e-6
    out[near] = small(r[near])
    out[~near] = far(r[~near])
    return out


class TestJinc:
    def test_diagonal_is_one_over_pi(self):
        for d in (1, 2):
            k = jinc_kernel(d)
            assert abs(k.diagonal(np.zeros(d)) - 1.0 / math.pi) < 1e-12

    def test_zero_at_first_bessel_root(self):
        k = jinc_kernel(2)
        v = np.array([J1_FIRST_ZERO / 2.0, 0.0])
        assert abs(k.evaluate(ORIGIN, v)) < 1e-12

    def test_removable_singularity_is_smooth(self):
        k = jinc_kernel(2)
        vals = [k.evaluate(ORIGIN, np.array([r, 0.0])).real for r in (1e-9, 1e-7, 1e-5)]
        assert all(abs(v - 1.0 / math.pi) < 1e-10 for v in vals)

    def test_unsupported_dimension(self):
        with pytest.raises(ValidationError):
            jinc_kernel(3)

    @pytest.mark.parametrize("radial,far,small", [
        (_jinc_radial, lambda r: special.j1(2.0 * r) / (math.pi * r),
         lambda r: (1.0 - r ** 2 / 2.0) / math.pi),
        (_sinc_radial, lambda r: np.sin(r) / (math.pi * r),
         lambda r: (1.0 - r ** 2 / 6.0) / math.pi),
    ], ids=["jinc", "sinc"])
    def test_radial_matches_masked_reference(self, radial, far, small):
        rng = np.random.default_rng(34)
        points = np.concatenate(([0.0, 1e-7, -1e-7, 5e-7, 1e-6], rng.uniform(-40.0, 40.0, 500)))
        for r in (points, points.reshape(5, 101), np.abs(points)):
            want = masked_radial(r, far, small)
            got = radial(r)
            assert got.shape == want.shape and np.array_equal(got, want)
        assert radial(0.0) == 1.0 / math.pi
        assert radial(np.float64(1e-7)) == small(1e-7)
        assert radial(2.5) == far(2.5)

    def test_fourier_ball_matches_closed_forms(self):
        for d in (1, 2):
            k = jinc_kernel(d)
            for r in (0.0, 0.4, 1.7, 3.2):
                v = np.zeros(d)
                w = np.zeros(d)
                w[0] = r
                closed = k.evaluate(v, w).real
                assert abs(fourier_ball_kernel_value(d, r) - closed) < 1e-10

    def test_fourier_ball_d3_diagonal(self):
        assert abs(fourier_ball_kernel_value(3, 0.0) - 1.0 / math.pi) < 1e-10

    def test_tail_mass_decays_like_inverse_square(self):
        # raw truncated p_u (no tail continuation): the deficit 1 - p(R)
        # halves when R doubles, consistent with r^-2 tail mass
        k = jinc_kernel(2)
        rfn = k.radial_abs_sq
        deficits = []
        for radius in (50.0, 100.0, 200.0):
            val, _ = integrate.quad(
                lambda r: 2.0 * math.pi * r * rfn(np.array([r]))[0] * math.pi,
                0.0, radius, limit=2000)
            deficits.append(1.0 - val)
        assert all(d > 0 for d in deficits)
        for a, b in zip(deficits, deficits[1:]):
            assert 1.7 < a / b < 2.3


class TestThinRescale:
    def test_identity_transform(self):
        k = jinc_kernel(2)
        same = thin_rescale(k, 1.0, 1.0)
        rng = np.random.default_rng(32)
        for _ in range(10):
            v, w = rng.normal(size=2), rng.normal(size=2)
            assert abs(same.evaluate(v, w) - k.evaluate(v, w)) < 1e-14

    def test_parameter_bounds(self):
        k = jinc_kernel(2)
        with pytest.raises(ValidationError):
            thin_rescale(k, 1.0, 1.2)
        with pytest.raises(ValidationError):
            thin_rescale(k, 2.0, 0.9)

    def test_scaled_ginibre_is_thinned_standard(self):
        scaled = ginibre_kernel(GinibreParams(0.6, 0.8))
        thinned = thin_rescale(ginibre_kernel(GinibreParams(1.0, 1.0)), 0.6, 0.8)
        rng = np.random.default_rng(33)
        for _ in range(20):
            v, w = rng.normal(size=2), rng.normal(size=2)
            assert abs(scaled.evaluate(v, w) - thinned.evaluate(v, w)) < 1e-13

    def test_thinned_jinc_p_u(self):
        k = thin_rescale(jinc_kernel(2), 0.5, 0.8)
        report = repulsiveness_p(k, ORIGIN)
        assert abs(report.p_u - 0.4) <= 1e-6 + report.quadrature_error

    @pytest.mark.parametrize("d", [1, 2], ids=["sinc", "jinc"])
    @pytest.mark.parametrize("beta", [0.02, 0.1, 0.6, 1.0])
    def test_thinned_p_u_within_reported_error(self, d, beta):
        # panels follow the thinned length scale sqrt(beta) (d = 2) or beta (d = 1)
        k = thin_rescale(jinc_kernel(d), 1.0, beta)
        report = repulsiveness_p(k, np.zeros(d))
        assert abs(report.p_u - beta) <= report.quadrature_error
        assert report.quadrature_error <= min(1e-7, 3e-7 * beta)

    def test_thinned_jinc_displacement_density(self):
        # f_u(v) = J1(2|v-u|/sqrt(beta))^2 / (pi |v-u|^2): the beta = 1 case
        # reduces to the planar displacement density, and it integrates to 1
        beta = 0.6
        k = thin_rescale(jinc_kernel(2), 1.0, beta)
        norm = k.norm_sq
        rfn = k.radial_abs_sq
        for r in (0.3, 1.1, 2.7):
            want = special.j1(2.0 * r / math.sqrt(beta)) ** 2 / (math.pi * r ** 2)
            assert abs(rfn(np.array([r]))[0] / norm - want) < 1e-12
        mass, _ = integrate.quad(
            lambda r: 2.0 * math.pi * r * rfn(np.array([r]))[0] / norm, 0.0, 200.0,
            limit=400)
        assert abs(mass - 1.0) < 2e-3  # truncated at r = 200; tail ~ 1/(pi 200 beta^-?)

    def test_thinning_consistency_monte_carlo(self):
        # sample the standard Ginibre on a window, thin with alpha*beta,
        # rescale by sqrt(beta): empirical intensity approaches alpha/pi
        alpha, beta = 0.7, 0.9
        k = ginibre_kernel(GinibreParams(1.0, 1.0))
        grid = grid_discretize(k, (-3.0, 3.0, -3.0, 3.0), 10)
        draws = 400
        counts = sample_indicators(grid.dpp, 99, draws).sum(axis=1)
        rng = np.random.default_rng(100)
        thinned = rng.binomial(counts.astype(int), alpha * beta)
        area_rescaled = beta * 36.0
        intensities = thinned / area_rescaled
        want = alpha / math.pi
        sem = intensities.std(ddof=1) / math.sqrt(draws)
        assert abs(intensities.mean() - want) <= 3.0 * sem + 1e-3


class TestSphereModels:
    def test_multiplicities(self):
        def mult(d, degrees):
            return sphere_model(d, 1e-9, np.full(degrees, 1.0 / degrees)).multiplicities.tolist()

        assert mult(2, 5) == [1, 3, 5, 7, 9]
        assert mult(1, 4) == [1, 2, 2, 2]
        assert mult(3, 3)[2] == 9
        # the harmonic polynomials of degree ell in d + 1 variables, rounded
        # once, even past 2^53, where a float quotient of factorials rounds
        # more than once
        for d in range(2, 12):
            want = [float(math.comb(ell + d, d) - math.comb(ell + d - 2, d)) for ell in range(4001)]
            assert mult(d, 4001) == want, d
        assert mult(8, 585)[584] == float(9586135115158875)
        assert mult(6, 3521)[3520] == float(9038652108531409)

    def test_multiquadric_eigenvalues(self):
        delta, rho = 0.5, 1.0 / (2.0 * math.pi)
        model, _ = multiquadric(delta, rho)
        # lambda_ell = 4 pi rho delta^ell (1 - delta) / (2 ell + 1)
        for ell in range(6):
            want = 4.0 * math.pi * rho * delta ** ell * (1.0 - delta) / (2 * ell + 1)
            assert abs(model.eigenvalues[ell] - want) < 1e-12
        assert abs(model.eigenvalues[0] - 1.0) < 1e-12  # maximal intensity

    def test_multiquadric_closed_form_values(self):
        delta, rho = 0.5, 1.0 / (2.0 * math.pi)
        _, kernel = multiquadric(delta, rho)
        k0 = kernel.k0
        assert abs(float(k0(1.0)) - rho) < 1e-15
        assert abs(float(k0(-1.0)) - rho * (1.0 - delta) / (1.0 + delta)) < 1e-15

    @pytest.mark.parametrize("delta", [0.05, 0.5, 0.9, 0.99, 0.999, 0.9999])
    def test_multiquadric_reference_is_the_closed_form(self, delta):
        rho = 1.0 / (4.0 * math.pi * (1.0 - delta))
        model, kernel = multiquadric(delta, rho)
        closed = 4.0 * math.pi * rho * (1.0 - delta) ** 2 * math.atanh(delta) / delta
        eps = np.finfo(float).eps
        assert abs(kernel.p_u - closed) <= 4.0 * eps * closed
        # the truncated series stays within its own remainder bound
        series = sphere_p(model)
        assert abs(series.value - closed) <= series.tail_bound + 8.0 * eps * closed

    def test_multiquadric_existence_bound(self):
        with pytest.raises(ValidationError) as err:
            multiquadric(0.5, 1.0)
        assert err.value.token == "existence-bound"
        # the bound itself is attainable
        multiquadric(0.5, 1.0 / (2.0 * math.pi))

    def test_series_matches_closed_form(self):
        for delta in (0.2, 0.5, 0.9):
            rho = 1.0 / (4.0 * math.pi * (1.0 - delta))
            model, kernel = multiquadric(delta, rho)
            series = sphere_kernel(model)
            t = np.linspace(-1.0, 1.0, 1000)
            closed = np.asarray(kernel.k0(t))
            approx = np.asarray(series.k0(t))
            assert np.max(np.abs(closed - approx)) < 1e-8

    def test_sphere_p_series_and_quadrature(self):
        delta, rho = 0.5, 1.0 / (2.0 * math.pi)
        model, kernel = multiquadric(delta, rho)
        result = sphere_p(model)
        # independent oracle: geometric series sums to artanh via the
        # Legendre orthogonality relation
        want = 4.0 * math.pi * rho * (1.0 - delta) ** 2 * math.atanh(delta) / delta
        assert abs(result.value - want) < 1e-10
        k0 = kernel.k0
        quad, _ = integrate.quad(lambda t: float(k0(t)) ** 2, -1.0, 1.0,
                                 epsabs=1e-14, epsrel=1e-12)
        oracle = 2.0 * math.pi * quad / float(k0(1.0))
        assert abs(result.value - oracle) < 1e-8
        # the reported closed form disagrees; it is carried as a flagged reference
        reported = kernel.p_u_reported
        assert abs(reported - 2.0 / 3.0) < 1e-12
        assert abs(result.value - reported) > 1e-3

    def test_projection_sphere_model_is_most_repulsive(self):
        d, l_cut = 2, 3
        mult = 2.0 * np.arange(l_cut + 1) + 1.0  # 2 ell + 1 on S^2
        sigma = 4.0 * math.pi
        rho = mult.sum() / sigma
        beta = mult / mult.sum()
        model = sphere_model(d, rho, beta)
        assert np.allclose(model.eigenvalues, 1.0, atol=1e-12)
        assert abs(sphere_p(model).value - 1.0) < 1e-12

    def test_sphere_model_validation(self):
        with pytest.raises(ValidationError):
            sphere_model(2, 1.0, [-0.1, 1.1])
        with pytest.raises(ValidationError):
            sphere_model(2, 1.0, [0.5, 0.4])  # mass unaccounted
        with pytest.raises(ValidationError) as err:
            sphere_model(2, 0.01, [0.6, 0.5])  # mass beyond 1, even with no tail
        assert err.value.token == "param-bound" and "1.1" in str(err.value)
        with pytest.raises(ValidationError) as err:
            sphere_model(2, 10.0, [1.0])
        assert err.value.token == "existence-bound"

    def test_sphere_p_tail_bound_is_attained(self):
        # the dropped coefficients are >= 0 and sum to at most T, so they add
        # at most rho sigma T^2 / m_{L+1}; all of T on degree L + 1 adds exactly that
        beta = 0.2 * 0.5 ** np.arange(6)
        tail = 1.0 - float(beta.sum())
        assert abs(tail - 0.60625) < 1e-15
        result = sphere_p(sphere_model(2, 0.05, beta, tail_bound=tail))
        assert abs(result.tail_bound - 0.05 * 4.0 * math.pi * tail ** 2 / 13) < 1e-17
        assert abs(result.tail_bound - 0.0177640) < 5e-8
        whole = sphere_p(sphere_model(2, 0.05, np.append(beta, tail)))
        assert whole.tail_bound == 0.0
        assert abs(whole.value - result.value - result.tail_bound) < 1e-15
        # any other split of T over higher degrees adds less
        split = sphere_p(sphere_model(2, 0.05, np.append(beta, [0.0, tail / 2, tail / 2])))
        assert 0.0 < split.value - result.value < result.tail_bound

    def test_sphere_kernel_reference_is_the_cut_kernels(self):
        # K0(1) = rho sum beta, so the cut kernel's p_u divides the series by sum beta
        model = sphere_model(2, 0.05, [0.5, 0.3], tail_bound=0.2)
        kernel = sphere_kernel(model)
        assert abs(kernel.p_u - sphere_p(model).value / 0.8) < 1e-15
        assert abs(kernel.p_u - 0.219911485751) < 1e-12
        # with all of the mass in the tail the kernel is zero
        kernel = sphere_kernel(sphere_model(2, 0.05, [0.0], tail_bound=1.0))
        assert kernel.p_u == 0.0 and np.all(kernel.k0(np.linspace(-1, 1, 5)) == 0.0)

    def test_zoo_eigenvalues_in_unit_interval(self):
        for delta in (0.1, 0.5, 0.9):
            model, _ = multiquadric(delta, 1.0 / (4.0 * math.pi * (1.0 - delta)))
            lam = model.eigenvalues
            assert lam.min() >= 0.0 and lam.max() <= 1.0 + 1e-12

    def test_series_memory_stays_a_few_arrays_of_the_input(self):
        # a (201, 392, 392) table of every degree would take about 250 MB;
        # the recurrence holds a few arrays of the angles' 1.2 MB
        rng = np.random.default_rng(3)
        for l_max, t, limit in ((200, rng.uniform(-1.0, 1.0, (392, 392)), 10),
                                (4000, rng.uniform(-1.0, 1.0, 15680), 2)):
            k0 = sphere_kernel(sphere_model(2, 0.1, np.full(l_max + 1, 1.0 / (l_max + 1)))).k0
            tracemalloc.start()
            try:
                got = k0(t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.shape == t.shape
            assert peak < limit * 2 ** 20

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("l_max", [2, 39, 200, 1000])
    def test_series_matches_scipy_gegenbauer(self, d, l_max):
        rng = np.random.default_rng(l_max + d)
        beta = rng.uniform(0.0, 1.0, l_max + 1)
        beta /= beta.sum()
        mult = sphere_model(d, 1e-9, beta).multiplicities
        rho = 0.9 * float(np.min(mult / (sphere_surface_measure(d) * beta)))
        t = np.concatenate([rng.uniform(-1.0, 1.0, 200), [-1.0, 0.0, 1.0]])
        ell = np.arange(l_max + 1)[:, None]
        if d == 1:
            ratios = np.cos(ell * np.arccos(t))
        else:
            lam = (d - 1) / 2.0
            ratios = special.eval_gegenbauer(ell, lam, t) / special.eval_gegenbauer(ell, lam, 1.0)
        got = sphere_kernel(sphere_model(d, rho, beta)).k0(t)
        assert np.max(np.abs(got - rho * (beta @ ratios))) <= 1e-13 * rho * beta.sum()
