#!/usr/bin/env python3
"""Isotropic DPPs on the sphere: the multiquadric family.

The kernel K0(t) = rho (1 - delta) / sqrt(1 + delta^2 - 2 delta t) has
geometric Gegenbauer coefficients.  Two independent routes to p_u agree
to machine precision: the eigen-series rho sigma_d sum beta_ell^2/m_ell
and the surface quadrature 2 pi int K0(t)^2 dt / K0(1).  A third closed
form often reported for this family disagrees with both; the library
carries it as the kernel's p_u_reported, flagged rather than adopted.
"""
import math

from scipy import integrate

from palmdpp import multiquadric, sphere_p

for delta in (0.1, 0.5, 0.9):
    rho = 1.0 / (4.0 * math.pi * (1.0 - delta))  # maximal existing intensity
    model, kernel = multiquadric(delta, rho)
    series = sphere_p(model)
    k0 = kernel.k0
    val, _ = integrate.quad(lambda t: float(k0(t)) ** 2, -1.0, 1.0, epsrel=1e-13)
    oracle = 2.0 * math.pi * val / float(k0(1.0))
    reference = kernel.p_u_reported
    print(f"delta={delta}: expected points = {rho * 4 * math.pi:.4f}")
    print(f"  p_u series     {series.value:.12f} (tail bound {series.tail_bound:.1e})")
    print(f"  p_u quadrature {oracle:.12f}")
    print(f"  reported closed form {reference:.12f}  <-- disagrees; flagged, not adopted")
    print(f"  eigenvalues: lambda_0 = {model.eigenvalues[0]:.6f}, "
          f"lambda_5 = {model.eigenvalues[5]:.6f}, truncated at degree {model.l_max}")
