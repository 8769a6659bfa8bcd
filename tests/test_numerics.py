"""Gegenbauer ratios, Hermitian eigendecomposition, and radial and polar quadrature."""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
from scipy import special

from palmdpp.kernel_core import repulsiveness_p
from palmdpp.model_zoo import GinibreParams, ginibre_kernel, jinc_kernel, thin_rescale
from palmdpp.numerics import (
    _MEMO_ENTRIES,
    QuadratureError,
    QuadratureSpec,
    Tail,
    _gauss_jacobi,
    _tail_beyond,
    _unit_radius,
    circulant_eig,
    gegenbauer_series,
    hermitian_eig,
    integrate_polar,
    integrate_radial,
    reflection_eig,
)

from conftest import random_hermitian

def ratio(ell, lam, t):
    """R_ell(t), asked of gegenbauer_series through the unit vector of degree ell."""
    return gegenbauer_series(np.eye(ell + 1)[ell], lam, t)


class TestGegenbauer:
    def test_degree_zero_and_one(self):
        t = np.linspace(-1.0, 1.0, 5)
        assert np.all(ratio(0, 0.7, t) == 1.0) and np.all(ratio(1, 0.7, t) == t)
        assert gegenbauer_series([1.0], 0.7, t).shape == (5,)

    def test_legendre_closed_forms(self):
        # lam = 1/2 are the Legendre polynomials, and P_ell(1) = 1
        t = np.linspace(-1.0, 1.0, 21)
        assert np.max(np.abs(ratio(2, 0.5, t) - (3 * t ** 2 - 1) / 2)) < 1e-12
        assert np.max(np.abs(ratio(3, 0.5, t) - (5 * t ** 3 - 3 * t) / 2)) < 1e-12
        assert abs(ratio(2, 0.5, 0.5) - (-0.125)) < 1e-15

    def test_chebyshev_limit_convention(self):
        # on the circle (lam = 0) the ratios are cos(ell arccos t)
        t = np.linspace(-1.0, 1.0, 11)
        for ell in range(8):
            assert np.max(np.abs(ratio(ell, 0.0, t) - np.cos(ell * np.arccos(t)))) < 1e-10

    def test_matches_scipy_for_generic_lambda(self):
        t = np.array([-0.9, -0.2, 0.4, 1.0])
        for lam in (0.5, 1.0, 1.7):
            for ell in range(6):
                want = special.eval_gegenbauer(ell, lam, t) / special.eval_gegenbauer(ell, lam, 1.0)
                assert np.max(np.abs(ratio(ell, lam, t) - want)) < 1e-10

    def test_ratios_are_normalized(self):
        t = np.linspace(-1.0, 1.0, 7)
        for lam in (0.0, 0.5, 1.5):
            for ell in range(11):
                assert np.allclose(ratio(ell, lam, np.array([1.0])), 1.0, atol=1e-12)
                assert np.max(np.abs(ratio(ell, lam, t))) <= 1.0 + 1e-12

    def test_ratios_match_legendre(self):
        t = np.linspace(-1.0, 1.0, 11)
        for ell in range(7):
            assert np.allclose(ratio(ell, 0.5, t), special.eval_legendre(ell, t), atol=1e-12)

    def test_series_is_the_coefficient_sum(self):
        # a coefficient vector sums its unit vectors' ratios, in the shape of t
        t = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        c = np.array([0.5, -0.25, 0.125, 2.0, 0.0, 1.0])
        got = gegenbauer_series(c, 1.5, t)
        assert got.shape == t.shape
        want = sum(c[ell] * ratio(ell, 1.5, t) for ell in range(c.size))
        assert np.max(np.abs(got - want)) < 1e-14
        with pytest.raises(ValueError):
            gegenbauer_series([], 0.5, t)


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(2))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0])

    def test_rank_one_projection(self):
        eig = hermitian_eig(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(eig.eigenvalues, [1.0, 0.0], atol=1e-12)

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        eig = hermitian_eig(random_hermitian(rng, 6))
        assert np.all(np.diff(eig.eigenvalues) <= 0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 17))
            k = random_hermitian(rng, n)
            eig = hermitian_eig(k)
            v = eig.eigenvectors
            rebuilt = (v * eig.eigenvalues) @ v.conj().T
            scale = 1.0 + np.max(np.abs(k))
            assert np.max(np.abs(rebuilt - k)) <= 1e-9 * scale
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-9

    @pytest.mark.parametrize("blocks,longitudes", [(1, 1), (1, 2), (3, 5), (3, 6), (4, 7)])
    def test_circulant_eig_decomposes_the_block_circulant_matrix(self, blocks, longitudes):
        rng = np.random.default_rng(blocks * longitudes)
        table = rng.normal(size=(blocks, blocks, longitudes))
        table += table.transpose(1, 0, 2)
        table += table[:, :, -np.arange(longitudes) % longitudes]  # even in the offset
        offset = (np.arange(longitudes)[None, :] - np.arange(longitudes)[:, None]) % longitudes
        M = table[:, :, offset].transpose(0, 2, 1, 3).reshape(blocks * longitudes, -1)
        eig = circulant_eig(table)
        lam, V = eig.eigenvalues, eig.eigenvectors
        assert np.all(np.diff(lam) <= 0) and V.dtype == np.float64
        assert np.max(np.abs(lam - np.linalg.eigvalsh(M)[::-1])) <= 1e-12
        assert np.max(np.abs((V * lam) @ V.T - M)) <= 1e-12
        assert np.max(np.abs(V.T @ V - np.eye(M.shape[0]))) <= 1e-12

    @pytest.mark.parametrize("d,size", [(1, 1), (1, 2), (1, 5), (1, 8), (2, 1), (2, 2), (2, 3),
                                        (2, 6), (2, 7)])
    def test_reflection_eig_decomposes_the_stationary_matrix(self, d, size):
        rng = np.random.default_rng(10 * d + size)
        table = rng.normal(size=(size,) * d)
        index = np.indices((size,) * d).reshape(d, -1)  # the multi-index of each row, C order
        M = table[tuple(np.abs(index[:, :, None] - index[:, None, :]))]
        eig = reflection_eig(table)
        lam, V = eig.eigenvalues, eig.eigenvectors
        assert np.all(np.diff(lam) <= 0) and V.dtype == np.float64 and V.shape == M.shape
        assert np.max(np.abs(lam - np.linalg.eigvalsh(M)[::-1])) <= 1e-12
        assert np.max(np.abs((V * lam) @ V.T - M)) <= 1e-12
        assert np.max(np.abs(V.T @ V - np.eye(M.shape[0]))) <= 1e-12

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(2)
        assert hermitian_eig(np.eye(3, dtype=int)).eigenvectors.dtype == np.float64
        assert hermitian_eig(random_hermitian(rng, 4)).eigenvectors.dtype == np.complex128


# |J1(2r) / (pi r)|^2, the declared tail of the planar jinc kernel
JINC_TAIL = jinc_kernel(2).tail


def binomial_tail(p: float, terms: int, c: float = 1.0) -> Tail:
    """c (1 + r)^-p = c r^-p sum_j binom(-p, j) r^-j for r > 0, cut after
    `terms` terms; the Lagrange remainder is at most the first omitted
    term, since (1 + xi)^(-p - terms) <= 1."""
    j = np.arange(terms + 1)
    coefs = c * special.binom(-p, j)
    zeros = (0.0,) * (terms + 1)
    return Tail("power", 1.0, order=p, smooth=tuple(coefs[:-1].tolist()) + (0.0,),
                sine=zeros, cosine=zeros, bound=zeros[:-1] + (abs(float(coefs[-1])),))


class TestIntegrateRadial:
    def test_exponential(self):
        # e^-r <= (30/e)^30 r^-30 for every r > 0: a tail that is a remainder bound alone
        tail = Tail("power", 1.0, order=30.0, smooth=(0.0,), sine=(0.0,), cosine=(0.0,),
                    bound=((30.0 / math.e) ** 30,))
        res = integrate_radial(lambda r: np.exp(-r), 0.0, tail,
                               QuadratureSpec(truncation_radius=40.0))
        assert abs(res.value - 1.0) < 1e-10
        assert abs(res.value - 1.0) <= res.error <= 1e-14

    def test_rayleigh(self):
        # 2 r exp(-r^2): weight r, g(r) = 2 exp(-r^2), declared exactly
        res = integrate_radial(lambda r: 2.0 * np.exp(-r ** 2), 1.0,
                               Tail("gaussian", 1.0, amplitude=2.0),
                               QuadratureSpec(truncation_radius=12.0))
        assert abs(res.value - 1.0) < 1e-12
        assert math.isclose(res.tail, math.exp(-144.0), rel_tol=1e-13)

    def test_jinc_radial_mass(self):
        # radial mass 2 J1(2r)^2 / r of the planar displacement intensity; total mass 1
        tail = JINC_TAIL.rescaled(2.0 * math.pi ** 2)
        res = integrate_radial(lambda r: 2.0 * special.j1(2.0 * r) ** 2 / r ** 2, 1.0, tail,
                               QuadratureSpec(truncation_radius=400.0))
        assert abs(res.value - 1.0) <= max(1e-6, res.error)
        assert 1.0 - tail.order == -2.0  # the declared mass decays like r^-2

    def test_power_tail_value_and_budget(self):
        # f(r) = 1.5 (1 + r)^(-2.5) has total mass 1 and a declared binomial tail
        res = integrate_radial(lambda r: 1.5 * (1.0 + r) ** (-2.5), 0.0,
                               binomial_tail(2.5, 6, c=1.5),
                               QuadratureSpec(truncation_radius=50.0))
        assert abs(res.value - 1.0) <= max(1e-6, res.error)
        assert abs(res.value - 1.0) <= res.error <= 1e-12

    def test_divergent_tail_raises(self):
        # 1 / (1 + r) decays like r^-1 by its declared tail
        with pytest.raises(QuadratureError, match=r"r\^\(-1\)"):
            integrate_radial(lambda r: 1.0 / (1.0 + r), 0.0, binomial_tail(1.0, 4),
                             QuadratureSpec(truncation_radius=50.0))

    @pytest.mark.parametrize("kernel", [ginibre_kernel(GinibreParams(1.0, 0.25)), jinc_kernel(2)],
                             ids=["ginibre", "jinc"])
    def test_default_radius_is_the_tails(self, kernel):
        # a spec without a radius truncates at the tail's default, bit for bit
        g, tail = kernel.radial_abs_sq, kernel.tail
        explicit = QuadratureSpec(truncation_radius=tail.default_radius())
        assert (integrate_radial(g, 1.0, tail, QuadratureSpec())
                == integrate_radial(g, 1.0, tail, explicit))

    def test_error_includes_rounding(self):
        # both rules agree to the last bit on this smooth integrand; the
        # budget still carries 16 eps of the integral
        res = integrate_radial(lambda r: 2.0 * np.exp(-r ** 2), 1.0,
                               Tail("gaussian", 1.0, amplitude=2.0),
                               QuadratureSpec(truncation_radius=12.0))
        eps = np.finfo(float).eps
        assert 16.0 * eps * res.value <= res.error <= 64.0 * eps
        assert abs(res.value - 1.0) <= res.error

    @pytest.mark.parametrize("length_scale", [0.05, 0.3, 1.0, 4.0])
    def test_panels_follow_length_scale(self, length_scale):
        # |J1(2r/s)|^2 / r integrates to 1/2 for every length scale s
        s = length_scale
        res = integrate_radial(lambda r: special.j1(2.0 * r / s) ** 2 / r ** 2, 1.0,
                               JINC_TAIL.rescaled(math.pi ** 2 / s ** 2, s),
                               QuadratureSpec(truncation_radius=400.0 * s))
        assert abs(res.value - 0.5) <= res.error <= 1e-6

    def test_panel_count_is_capped(self):
        # a radius of 1e8 length scales: each interval gets at most 2**15
        # panels, growing away from its left end, so the mass near the
        # origin stays resolved
        s, sizes = 1e-6, []

        def g(r):
            sizes.append(r.size)
            return 2.0 * np.exp(-(r / s) ** 2) / s ** 2

        res = integrate_radial(g, 1.0, Tail("gaussian", s, amplitude=2.0 / s ** 2),
                               QuadratureSpec(truncation_radius=100.0))
        assert abs(res.value - 1.0) <= res.error
        assert max(sizes) <= (2 ** 15 + 101) * 32

    def test_capped_panels_report_their_error(self):
        # |J1(2r)|^2 / r out to 1e6 would need panels wider than 6, where the
        # 32- and 20-node rules alias the oscillation alike and the budget
        # misses; an oscillating tail refuses them, and 2**15 panels still run
        tail = JINC_TAIL.rescaled(math.pi ** 2)
        g = lambda r: special.j1(2.0 * r) ** 2 / r ** 2
        with pytest.raises(QuadratureError, match="panels"):
            integrate_radial(g, 1.0, tail, QuadratureSpec(truncation_radius=1e6))
        res = integrate_radial(g, 1.0, tail, QuadratureSpec(truncation_radius=2.0 + 6.0 * 2 ** 15))
        assert abs(res.value - 0.5) <= res.error <= 1e-6

    def test_length_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            Tail("gaussian", 0.0, amplitude=1.0)

    @pytest.mark.parametrize("fields,match", [
        ({"kind": "lorentz"}, "unknown tail kind"),
        ({"kind": "power", "smooth": (1.0, 0.5), "sine": (0.0,), "cosine": (0.0,),
          "bound": (0.0,)}, "one entry per power"),
        ({"kind": "power", "smooth": (1.0,), "sine": (0.0,), "cosine": (0.0,),
          "bound": (-1e-3,)}, "bounds must be >= 0"),
    ], ids=["unknown-kind", "ragged-terms", "negative-bound"])
    def test_malformed_tail_is_refused(self, fields, match):
        with pytest.raises(ValueError, match=match):
            Tail(scale=1.0, order=2.0, **fields)

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_radius=-1.0)


class TestIntegratePolar:
    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
    def test_meets_its_tolerance_on_a_peaked_integrand(self, tol):
        # int_0^pi dtheta / (1 + q^2 - 2 q cos theta) = pi / (1 - q^2)
        q = 0.99
        value, error = integrate_polar(lambda th: 1.0 / (1.0 + q * q - 2.0 * q * np.cos(th)), tol)
        assert error <= tol * value
        assert abs(value - math.pi / (1.0 - q * q)) <= error

    def test_unreachable_tolerance_stops_at_the_panel_cap(self):
        sizes = []
        value, error = integrate_polar(lambda th: sizes.append(th.size) or np.sin(th), 1e-300)
        assert max(sizes) == 32 * 2 ** 15
        assert abs(value - 2.0) <= error <= 1e-14


class TestDeclaredTails:
    @pytest.mark.parametrize("r", [5.0, 8.0, 13.0, 20.0, 26.0, 40.0])
    def test_jinc_tail_bound_holds(self, r):
        # the Hankel terms miss |J1(2r) / (pi r)|^2 by at most the declared
        # bound, up to the rounding of the double-precision coefficients
        t = JINC_TAIL
        j = np.arange(len(t.smooth))
        powers = r ** -(t.order + j)
        main = (powers @ np.array(t.smooth) + math.sin(4.0 * r) * (powers @ np.array(t.sine))
                + math.cos(4.0 * r) * (powers @ np.array(t.cosine)))
        exact = (special.j1(2.0 * r) / (math.pi * r)) ** 2
        assert abs(exact - main) <= powers @ np.array(t.bound) + 1e-14 * r ** -t.order

    def test_sinc_tail_is_exact(self):
        t = jinc_kernel(1).tail
        r = np.linspace(0.5, 30.0, 60)
        main = r ** -t.order * (t.smooth[0] + t.cosine[0] * np.cos(t.frequency * r))
        assert np.all(np.abs(main - (np.sin(r) / (math.pi * r)) ** 2) <= 1e-15 * r ** -2.0)
        assert t.bound == (0.0,)

    def test_rescaled_is_the_tail_of_the_rescaled_function(self):
        # thinning: alpha^2 h(r / c) for a power tail and a Gaussian
        def declared(tail, r):  # amplitude * H(r / scale), and its remainder bound
            t = r / tail.scale
            powers = t ** -(tail.order + np.arange(len(tail.smooth)))
            w = tail.frequency * t
            main = powers @ (np.array(tail.smooth) + math.sin(w) * np.array(tail.sine)
                             + math.cos(w) * np.array(tail.cosine))
            return tail.amplitude * main, tail.amplitude * (powers @ np.array(tail.bound))

        t = JINC_TAIL.rescaled(0.49, 0.5)
        for r in (2.6, 4.0, 7.5, 30.0):
            main, bound = declared(t, r)
            assert math.isclose(main, 0.49 * declared(JINC_TAIL, r / 0.5)[0], rel_tol=1e-14)
            exact = 0.49 * (special.j1(4.0 * r) / (math.pi * 2.0 * r)) ** 2
            assert abs(exact - main) <= bound + 1e-14 * 0.49 * (2.0 * r) ** -t.order
        g = Tail("gaussian", 2.0, amplitude=3.0).rescaled(0.25, 0.5)
        assert (g.scale, g.amplitude) == (1.0, 0.75)

    def test_default_radius_is_chosen_from_the_terms(self):
        # an exact tail needs one panel past the origin cell; jinc needs
        # its remainder bound below 1e-12 of the leading term
        assert Tail("gaussian", 0.5, amplitude=1.0).default_radius() == 4.0
        assert jinc_kernel(1).tail.default_radius() == 8.0
        assert JINC_TAIL.default_radius() == 26.0
        assert JINC_TAIL.rescaled(1.0, 0.1).default_radius() == pytest.approx(2.6)

    def test_never_asymptotic_tail_is_a_quadrature_error(self):
        # its second term, 1e6 t^-3, outweighs the leading t^-2 up to t = 1e6, far past
        # the 6,002 length scales searched
        tail = Tail("power", 1.0, order=2.0, smooth=(1.0, 1e6), sine=(0.0, 0.0),
                    cosine=(0.0, 0.0), bound=(0.0, 0.0))
        with pytest.raises(QuadratureError, match="never becomes asymptotic within 6002 length"):
            tail.default_radius()

    def test_not_asymptotic_at_a_small_radius(self):
        assert not JINC_TAIL.asymptotic_at(1.0) and JINC_TAIL.asymptotic_at(5.0)
        with pytest.raises(QuadratureError, match="not asymptotic"):
            integrate_radial(lambda r: special.j1(2.0 * r) ** 2 / r ** 2, 1.0,
                             JINC_TAIL.rescaled(math.pi ** 2),
                             QuadratureSpec(truncation_radius=1.0))

    @pytest.mark.parametrize("power", [-0.999, -0.99, -0.9, -0.5, 0.0, 2.0, 5.0])
    def test_gauss_jacobi_moments(self, power):
        # int_{-1}^{1} (1 + x)^(power + m) dx = 2^(power + m + 1) / (power + m + 1)
        for n in (20, 32):
            x, w = _gauss_jacobi(n, power)
            for m in range(8):
                exact = 2.0 ** (power + m + 1) / (power + m + 1)
                assert abs(w @ (1.0 + x) ** m - exact) <= 1e-12 * exact

    def test_origin_singularity(self):
        # int_0^inf r^-0.99 exp(-r^2) dr = Gamma(0.005) / 2, carried by the Jacobi weight
        res = integrate_radial(lambda r: np.exp(-r ** 2), -0.99,
                               Tail("gaussian", 1.0, amplitude=1.0),
                               QuadratureSpec(truncation_radius=8.0))
        exact = 0.5 * math.gamma(0.005)
        assert abs(res.value - exact) <= res.error <= 1e-11 * exact


class TestPathRule:
    """The sin/cos terms beyond T, on the path t = T + i tau / w, against
    closed forms in the sine and cosine integrals."""

    @pytest.mark.parametrize("start", [4.0, 8.0, 100.0])
    def test_against_sine_and_cosine_integrals(self, start):
        # int_T^inf cos(w t) / t^2 dt = cos(w T) / T - w (pi / 2 - Si(w T)) and
        # int_T^inf sin(w t) / t^2 dt = sin(w T) / T - w Ci(w T); the cosine
        # form loses about 3e-16 to cancellation
        w, T = 2.0, start
        si, ci = special.sici(w * T)
        for sine, cosine, exact in ((0.0, 1.0, math.cos(w * T) / T - w * (math.pi / 2 - si)),
                                    (1.0, 0.0, math.sin(w * T) / T - w * ci)):
            tail = Tail("power", 1.0, order=2.0, frequency=w, smooth=(0.0,), sine=(sine,),
                        cosine=(cosine,), bound=(0.0,))
            value, error = _tail_beyond(tail, 0.0, T)
            assert abs(value - exact) <= error + 1e-15
            # 3 h(r / 0.5) beyond 0.5 T is 1.5 times the unit-scale integral beyond T
            value, error = _tail_beyond(tail.rescaled(3.0, 0.5), 0.0, 0.5 * T)
            assert abs(value - 1.5 * exact) <= error + 1.5e-15

    @pytest.mark.parametrize("radius", [1e-3, 0.05, 0.5, 2.0, 8.0, 100.0])
    def test_sinc_mass_at_every_radius(self, radius):
        # int_0^inf (sin r / (pi r))^2 dr = 1 / (2 pi); below 8 s / w = 4 the
        # hand-over to the declared tail moves out to 4
        res = integrate_radial(lambda r: (np.sin(r) / (math.pi * r)) ** 2, 0.0,
                               jinc_kernel(1).tail, QuadratureSpec(truncation_radius=radius))
        assert abs(res.value - 0.5 / math.pi) <= res.error <= 1e-13

    def test_tail_terms_need_a_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            Tail("power", 1.0, order=2.0, smooth=(0.0,), sine=(0.0,), cosine=(1.0,), bound=(0.0,))


def scanned_radius(tail: Tail) -> float:
    """Tail.default_radius by the candidate scan at the tail's own scale,
    as it was found before the unit-scale radius was memoized."""
    edges = 2.0 + 6.0 * np.arange(1, 1001)
    if tail.kind == "gaussian":
        return tail.scale * float(edges[0])
    for t in edges.tolist():
        remainder = float(np.dot(tail.bound, t ** -np.arange(len(tail.bound), dtype=float)))
        if (tail.asymptotic_at(tail.scale * t)
                and remainder <= 1e-12 * tail._magnitudes(tail.scale * t)[0]):
            return tail.scale * t
    raise AssertionError("no candidate radius")


def hex_floats(*values) -> list[str]:
    return [float(v).hex() for v in values]


class TestRuleMemo:
    """Each Gauss-Jacobi rule and each tail shape's unit-scale radius is
    built once per process; a warm call gives the bits of a cold one."""

    @pytest.fixture(autouse=True)
    def cold_memos(self):
        _gauss_jacobi.cache_clear()
        _unit_radius.cache_clear()

    def test_warm_calls_equal_cold_ones_bitwise(self):
        kernels = [thin_rescale(jinc_kernel(2), 1.0, 0.3), jinc_kernel(1),
                   ginibre_kernel(GinibreParams(1.0, 0.25))]

        def run():
            out = []
            for kernel in kernels:
                g, tail = kernel.radial_abs_sq, kernel.tail
                for power in (0.0, 0.5):
                    out += hex_floats(*integrate_radial(g, power, tail, QuadratureSpec()))
                if kernel.space.size == 2:
                    report = repulsiveness_p(kernel, np.array([0.3, -1.0]))
                    out += hex_floats(report.p_u, report.norm_sq, report.quadrature_error)
            return out

        cold = run()
        assert _gauss_jacobi.cache_info().hits > 0 and _unit_radius.cache_info().hits > 0
        assert run() == cold
        _gauss_jacobi.cache_clear()
        _unit_radius.cache_clear()
        assert run() == cold

    def test_cached_rules_refuse_writes(self):
        x, w = _gauss_jacobi(20, 1.0)
        assert _gauss_jacobi(20, 1.0)[0] is x
        for array in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_zero_d_power_and_list_valued_tail(self):
        # the memo keys are normalized: a 0-d array power and list-valued
        # terms give the answers of a float power and tuples
        g = lambda r: (np.sin(r) / (math.pi * r)) ** 2
        sinc = jinc_kernel(1).tail
        listed = Tail("power", 1.0, order=2, frequency=2.0, smooth=list(sinc.smooth),
                      sine=[0], cosine=list(sinc.cosine), bound=[0.0])
        assert listed.default_radius() == sinc.default_radius() == 8.0
        res = integrate_radial(g, np.array(0.0), listed, QuadratureSpec())
        ref = integrate_radial(g, 0.0, sinc, QuadratureSpec())
        assert hex_floats(*res) == hex_floats(*ref)
        assert abs(res.value - 0.5 / math.pi) <= res.error

    def test_one_rule_pair_per_planar_sweep(self, monkeypatch):
        # every planar anchor integrates against r^1: one 32- and one 20-node rule
        calls = []
        solve = scipy.linalg.eigh_tridiagonal
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                            lambda *args, **kwargs: calls.append(args) or solve(*args, **kwargs))
        for kernel in (jinc_kernel(2), thin_rescale(jinc_kernel(2), 1.0, 0.5)):
            for x in np.linspace(-2.0, 2.0, 5):
                repulsiveness_p(kernel, np.array([x, 0.5]))
        assert 0 < len(calls) <= 2

    def test_memos_stay_within_their_bound(self):
        for k in range(10_000):
            _gauss_jacobi(2, 1.0 + 1e-3 * k)
            Tail("gaussian", 1.0, order=float(k)).default_radius()
        assert _gauss_jacobi.cache_info().currsize <= _MEMO_ENTRIES
        assert _unit_radius.cache_info().currsize <= _MEMO_ENTRIES

    @pytest.mark.parametrize("kernel", [
        jinc_kernel(1), jinc_kernel(2), ginibre_kernel(GinibreParams(1.0, 0.25)),
        thin_rescale(jinc_kernel(2), 1.0, 0.01), thin_rescale(jinc_kernel(2), 1.0, 0.3),
        thin_rescale(jinc_kernel(2), 0.7, 1.0), thin_rescale(jinc_kernel(1), 1.0, 0.3)],
        ids=["sinc", "jinc", "ginibre", "jinc-0.01", "jinc-0.3", "jinc-1", "sinc-0.3"])
    def test_default_radius_is_the_scans(self, kernel):
        assert kernel.tail.default_radius() == scanned_radius(kernel.tail)

    def test_thinned_copies_share_one_radius(self):
        # amplitude and scale do not enter the unit-scale radius
        base = jinc_kernel(2)
        for beta in (0.01, 0.3, 1.0):
            thin_rescale(base, 0.5, beta).tail.default_radius()
        base.tail.rescaled(3.0, 0.1).default_radius()
        assert _unit_radius.cache_info().currsize == 1
