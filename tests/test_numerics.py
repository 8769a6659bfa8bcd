"""Special functions, factorizations, and radial quadrature."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special

from palmdpp.numerics import (
    QuadratureError,
    QuadratureSpec,
    bessel_j1,
    gamma_fn,
    gegenbauer,
    gegenbauer_ratio_table,
    hermitian_eig,
    integrate_radial,
    psd_sqrt,
)

from conftest import random_hermitian

J1_FIRST_ZERO = 3.831705970207512  # bracketed root of the series oracle below


def j1_series(x: float, terms: int = 40) -> float:
    """Ascending-series oracle: sum (-1)^m (x/2)^(2m+1) / (m! (m+1)!)."""
    total, half = 0.0, x / 2.0
    for m in range(terms):
        total += (-1) ** m * half ** (2 * m + 1) / (math.factorial(m) * math.factorial(m + 1))
    return total


class TestGamma:
    def test_known_values(self):
        assert gamma_fn(1.0) == 1.0
        assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-15
        assert gamma_fn(5.0) == 24.0

    def test_poles_rejected(self):
        for x in (0.0, -1.0, -2.0, -7.0):
            with pytest.raises(ValueError):
                gamma_fn(x)

    def test_negative_non_integer(self):
        # reflection formula oracle: Gamma(-0.5) = -2 sqrt(pi)
        assert abs(gamma_fn(-0.5) + 2.0 * math.sqrt(math.pi)) < 1e-12

    def test_functional_equation(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(0.1, 20.0, size=200):
            lhs, rhs = gamma_fn(x + 1.0), x * gamma_fn(x)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestBesselJ1:
    def test_zero(self):
        assert bessel_j1(0.0) == 0.0

    def test_first_positive_zero(self):
        assert abs(bessel_j1(J1_FIRST_ZERO)) < 1e-12

    def test_against_series_oracle(self):
        for x in np.linspace(-10.0, 10.0, 81):
            assert abs(bessel_j1(x) - j1_series(float(x))) < 1e-12

    def test_value_at_one(self):
        assert abs(bessel_j1(1.0) - 0.4400505857449335) < 1e-13

    def test_amplitude_bound(self):
        x = np.linspace(-200.0, 200.0, 40001)
        assert np.max(np.abs(bessel_j1(x))) <= 1.0 / math.sqrt(2.0)


class TestGegenbauer:
    def test_degree_zero_and_one(self):
        assert gegenbauer(0, 0.7, 0.2) == 1.0
        assert abs(gegenbauer(1, 0.5, 0.3) - 0.3) < 1e-15

    def test_legendre_closed_forms(self):
        # lam = 1/2 are the Legendre polynomials
        for t in np.linspace(-1.0, 1.0, 21):
            assert abs(gegenbauer(2, 0.5, t) - (3 * t ** 2 - 1) / 2) < 1e-12
            assert abs(gegenbauer(3, 0.5, t) - (5 * t ** 3 - 3 * t) / 2) < 1e-12
        assert abs(gegenbauer(2, 0.5, 0.5) - (-0.125)) < 1e-15

    def test_chebyshev_limit_convention(self):
        for ell in range(8):
            for t in np.linspace(-1.0, 1.0, 11):
                want = math.cos(ell * math.acos(t))
                assert abs(gegenbauer(ell, 0.0, t) - want) < 1e-10

    def test_matches_scipy_for_generic_lambda(self):
        for lam in (0.5, 1.0, 1.7):
            for ell in range(6):
                for t in (-0.9, -0.2, 0.4, 1.0):
                    want = special.eval_gegenbauer(ell, lam, t)
                    assert abs(gegenbauer(ell, lam, t) - want) < 1e-10 * (1 + abs(want))

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

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(2)
        assert hermitian_eig(np.eye(3, dtype=int)).eigenvectors.dtype == np.float64
        assert hermitian_eig(random_hermitian(rng, 4)).eigenvectors.dtype == np.complex128


class TestPsdSqrt:
    def test_identity_and_diagonal(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_random_psd_rebuild(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            k = a @ a.conj().T
            s = psd_sqrt(k)
            assert np.max(np.abs(s - s.conj().T)) < 1e-12
            assert np.max(np.abs(s @ s - k)) <= 1e-8 * (1 + np.max(np.abs(k)))

    def test_rejects_materially_negative(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -1e-3]))


class TestIntegrateRadial:
    def test_exponential(self):
        res = integrate_radial(lambda r: math.exp(-r),
                               QuadratureSpec(truncation_radius=40.0), length_scale=1.0)
        assert abs(res.value - 1.0) < 1e-10

    def test_rayleigh(self):
        res = integrate_radial(
            lambda r: 2.0 * np.asarray(r) * np.exp(-np.asarray(r) ** 2),
            QuadratureSpec(scheme="gauss-legendre", truncation_radius=12.0),
            length_scale=1.0)
        assert abs(res.value - 1.0) < 1e-12
        assert res.tail == 0.0

    def test_jinc_radial_mass(self):
        # radial mass of the planar displacement intensity; total mass 1
        def mass(r):
            r = np.asarray(r, dtype=float)
            out = np.zeros_like(r)
            nz = r > 0
            out[nz] = 2.0 * special.j1(2.0 * r[nz]) ** 2 / r[nz]
            return out

        res = integrate_radial(mass, QuadratureSpec(scheme="gauss-legendre",
                                                    truncation_radius=400.0),
                               length_scale=1.0)
        assert abs(res.value - 1.0) <= max(1e-6, res.error)
        assert 1.8 < res.tail_exponent < 2.2

    def test_power_tail_value_and_budget(self):
        # r^-1.5 tail beyond 1: integral of (3/2) r^-2.5 on (1, inf) is 1... use
        # f with known closed form: f(r) = 1.5 * (1 + r)^(-2.5), total mass 1
        f = lambda r: 1.5 * (1.0 + np.asarray(r, dtype=float)) ** (-2.5)
        res = integrate_radial(f, QuadratureSpec(scheme="gauss-legendre",
                                                 truncation_radius=50.0),
                               length_scale=1.0)
        assert abs(res.value - 1.0) <= max(1e-6, res.error)

    def test_divergent_tail_raises(self):
        with pytest.raises(QuadratureError):
            integrate_radial(lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float)),
                             QuadratureSpec(scheme="gauss-legendre",
                                            truncation_radius=50.0),
                             length_scale=1.0)

    def test_radius_required(self):
        with pytest.raises(ValueError):
            integrate_radial(lambda r: math.exp(-r), QuadratureSpec(), length_scale=1.0)

    def test_error_includes_rounding(self):
        # both rules agree to the last bit on this smooth integrand; the
        # budget still carries 16 eps of the integral
        f = lambda r: 2.0 * np.asarray(r) * np.exp(-np.asarray(r) ** 2)
        res = integrate_radial(f, QuadratureSpec(scheme="gauss-legendre",
                                                 truncation_radius=12.0),
                               length_scale=1.0)
        eps = np.finfo(float).eps
        assert 16.0 * eps * res.value <= res.error <= 64.0 * eps
        assert abs(res.value - 1.0) <= res.error

    @pytest.mark.parametrize("length_scale", [0.05, 0.3, 1.0, 4.0])
    def test_panels_follow_length_scale(self, length_scale):
        # |J1(2r/s)|^2 / r integrates to 1/2 for every length scale s
        def mass(r, _s=length_scale):
            return special.j1(2.0 * r / _s) ** 2 / r

        res = integrate_radial(mass, QuadratureSpec(scheme="gauss-legendre",
                                                    truncation_radius=400.0 * length_scale),
                               length_scale=length_scale)
        assert abs(res.value - 0.5) <= res.error <= 1e-6

    def test_panel_count_is_capped(self):
        # a radius of 1e8 length scales: each interval gets at most 2**15
        # panels, growing away from its left end, so the mass near the
        # origin stays resolved
        s, sizes = 1e-6, []

        def mass(r):
            r = np.asarray(r)
            sizes.append(r.size)
            return 2.0 * r * np.exp(-(r / s) ** 2) / s ** 2

        res = integrate_radial(mass, QuadratureSpec(scheme="gauss-legendre",
                                                    truncation_radius=100.0),
                               length_scale=s)
        assert abs(res.value - 1.0) <= res.error
        assert max(sizes) <= (2 ** 15 + 101) * 32

    def test_capped_panels_report_their_error(self):
        # |J1(2r)|^2 / r out to 6.4e7: the far panels are wider than 6, and
        # the error budget still covers the miss
        res = integrate_radial(lambda r: special.j1(2.0 * r) ** 2 / r,
                               QuadratureSpec(scheme="gauss-legendre",
                                              truncation_radius=1e6),
                               length_scale=1.0)
        assert abs(res.value - 0.5) <= res.error <= 1e-6

    def test_length_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            integrate_radial(lambda r: np.exp(-np.asarray(r)),
                             QuadratureSpec(scheme="gauss-legendre", truncation_radius=1.0),
                             length_scale=0.0)

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_radius=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(scheme="romberg")
