"""Gegenbauer ratios, Hermitian eigendecomposition, and radial quadrature."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special

from palmdpp.model_zoo import jinc_kernel
from palmdpp.numerics import (
    QuadratureError,
    QuadratureSpec,
    Tail,
    _gauss_jacobi,
    gegenbauer_ratio_table,
    hermitian_eig,
    integrate_radial,
)

from conftest import random_hermitian

class TestGegenbauer:
    def test_degree_zero_and_one(self):
        t = np.linspace(-1.0, 1.0, 5)
        table = gegenbauer_ratio_table(1, 0.7, t)
        assert np.all(table[0] == 1.0) and np.all(table[1] == t)
        assert gegenbauer_ratio_table(0, 0.7, t).shape == (1, 5)

    def test_legendre_closed_forms(self):
        # lam = 1/2 are the Legendre polynomials, and P_ell(1) = 1
        t = np.linspace(-1.0, 1.0, 21)
        table = gegenbauer_ratio_table(3, 0.5, t)
        assert np.max(np.abs(table[2] - (3 * t ** 2 - 1) / 2)) < 1e-12
        assert np.max(np.abs(table[3] - (5 * t ** 3 - 3 * t) / 2)) < 1e-12
        assert abs(gegenbauer_ratio_table(2, 0.5, 0.5)[2, 0] - (-0.125)) < 1e-15

    def test_chebyshev_limit_convention(self):
        # on the circle (lam = 0) the ratios are cos(ell arccos t)
        t = np.linspace(-1.0, 1.0, 11)
        table = gegenbauer_ratio_table(7, 0.0, t)
        for ell in range(8):
            assert np.max(np.abs(table[ell] - np.cos(ell * np.arccos(t)))) < 1e-10

    def test_matches_scipy_for_generic_lambda(self):
        t = np.array([-0.9, -0.2, 0.4, 1.0])
        for lam in (0.5, 1.0, 1.7):
            table = gegenbauer_ratio_table(5, lam, t)
            for ell in range(6):
                want = special.eval_gegenbauer(ell, lam, t) / special.eval_gegenbauer(ell, lam, 1.0)
                assert np.max(np.abs(table[ell] - want)) < 1e-10

    def test_ratio_table_is_normalized(self):
        t = np.linspace(-1.0, 1.0, 7)
        for lam in (0.0, 0.5, 1.5):
            table = gegenbauer_ratio_table(10, lam, t)
            ones = gegenbauer_ratio_table(10, lam, np.array([1.0]))
            assert np.allclose(ones, 1.0, atol=1e-12)
            assert np.max(np.abs(table)) <= 1.0 + 1e-12

    def test_ratio_table_matches_legendre(self):
        t = np.linspace(-1.0, 1.0, 11)
        table = gegenbauer_ratio_table(6, 0.5, t)
        for ell in range(7):
            assert np.allclose(table[ell], special.eval_legendre(ell, t), atol=1e-12)


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

    def test_radius_required(self):
        with pytest.raises(ValueError):
            integrate_radial(lambda r: np.exp(-r ** 2), 0.0, Tail("gaussian", 1.0, amplitude=1.0),
                             QuadratureSpec())

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

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_radius=-1.0)


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
        t = JINC_TAIL.rescaled(0.49, 0.5)
        r = 30.0
        assert t.scale == 0.5 and t.frequency == 8.0
        for j in (0, 1, 5):
            assert math.isclose(t.smooth[j] * r ** -(3 + j),
                                0.49 * JINC_TAIL.smooth[j] * (r / 0.5) ** -(3 + j))
        g = Tail("gaussian", 2.0, amplitude=3.0).rescaled(0.25, 0.5)
        assert (g.scale, g.amplitude) == (1.0, 0.75)

    def test_default_radius_is_chosen_from_the_terms(self):
        # an exact tail needs one panel past the origin cell; jinc needs
        # its remainder bound below 1e-12 of the leading term
        assert Tail("gaussian", 0.5, amplitude=1.0).default_radius() == 4.0
        assert jinc_kernel(1).tail.default_radius() == 8.0
        assert JINC_TAIL.default_radius() == 26.0
        assert JINC_TAIL.rescaled(1.0, 0.1).default_radius() == pytest.approx(2.6)

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
