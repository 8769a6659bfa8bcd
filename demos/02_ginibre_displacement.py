#!/usr/bin/env python3
"""Repulsiveness of scaled Ginibre processes.

For the kernel (alpha/pi) exp(v conj(w)/beta - (|v|^2+|w|^2)/(2 beta))
the removed point appears with probability p_u = alpha*beta and, when it
appears, sits at a complex Gaussian displacement N_C(u, beta).  The
radial quadrature reproduces both, and the displacement moments match
Gamma(1 + k/2) / (pi rho)^(k/2).  |K(u, v)| depends only on |u - v|, so
the moments take the kernel alone: they are the same at every anchor u.
"""
import math

import numpy as np

from palmdpp import (
    GinibreParams,
    ginibre_moment,
    ginibre_kernel,
    moment_quadrature,
    repulsiveness_p,
)

anchor = np.array([0.25, -0.5])
for alpha, beta in ((1.0, 1.0), (0.5, 1.5), (0.9, 0.4)):
    kernel = ginibre_kernel(GinibreParams(alpha, beta))
    report = repulsiveness_p(kernel, anchor)
    print(f"alpha={alpha:.2f} beta={beta:.2f}: p_u = {report.p_u:.10f} "
          f"(alpha*beta = {alpha * beta:.10f}, quad error {report.quadrature_error:.1e})")

print("\ndisplacement density at radius r vs the N_C(u, beta) density (beta = 1.5):")
kernel = ginibre_kernel(GinibreParams(0.5, 1.5))
report = repulsiveness_p(kernel, anchor, profile_coords=np.linspace(0.0, 3.0, 7))
for r, f in report.density_profile:
    want = math.exp(-r * r / 1.5) / (math.pi * 1.5)
    print(f"  r={r:.2f}: f_u = {f:.10f}   closed form {want:.10f}")

print("\nmoments of |Z_u - u| for the standard Ginibre (rho = 1/pi):")
standard = ginibre_kernel(GinibreParams(1.0, 1.0))
for k in (-1.0, 0.5, 1.0, 2.0, 3.0):
    closed = ginibre_moment(k, 1.0 / math.pi)
    quad = moment_quadrature(standard, k)
    print(f"  k={k:+.1f}: closed {closed:.10f}   quadrature {quad.quadrature:.10f}")
