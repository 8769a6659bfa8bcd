#!/usr/bin/env python3
"""The most repulsive stationary DPP at fixed intensity.

The kernel whose Fourier transform is a centred ball indicator achieves
p_u = 1: the Palm process almost surely removes a point.  Unlike the
Ginibre case, the displacement is heavy-tailed: moments of order >= 1
diverge, which the quadrature reads off the kernel's declared tail, the
Hankel expansion of |J1(2r) / (pi r)|^2 ~ r^-3.  The modulus depends only
on |u - v|, so the moments and the radial density take the kernel alone.
"""
import numpy as np

from palmdpp import jinc_kernel, jinc_moment_closed, moment_quadrature, radial_profile, repulsiveness_p

for d in (1, 2):
    report = repulsiveness_p(jinc_kernel(d), np.zeros(d))
    print(f"d={d}: p_u = {report.p_u:.10f} (error budget {report.quadrature_error:.1e})")

print("\nmoments of the planar displacement |Z_u - u|:")
kernel = jinc_kernel(2)
for k in (-1.0, -0.5, 0.0, 0.5, 0.9, 1.0, 1.5):
    closed = jinc_moment_closed(k)
    res = moment_quadrature(kernel, k)
    status = "DIVERGENT" if res.divergent else f"{res.quadrature:.8f} (tail est {res.tail_estimate:.1e})"
    print(f"  k={k:+.1f}: closed {closed!s:>12}   quadrature {status}")

print("\nradial density of |Z_u - u| vs the Ginibre one (both intensity 1/pi):")
from palmdpp import GinibreParams, ginibre_kernel

radii = np.array([0.5, 1.0, 2.0, 4.0, 6.0, 8.0])
jnc = radial_profile(kernel, radii)
gin = radial_profile(ginibre_kernel(GinibreParams(1.0, 1.0)), radii)
for r, a, b in zip(radii, jnc, gin):
    print(f"  r={r:.1f}: jinc {a:.8f}   ginibre {b:.3e}")
print("the jinc displacement reaches much farther (algebraic vs Gaussian tail)")
