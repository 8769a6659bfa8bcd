#!/usr/bin/env python3
"""Monte Carlo validation of the coupling on a discretized Ginibre model.

Discretizes the standard Ginibre kernel to a small cell grid, builds the
exact subset law of the process and reads its Palm law off it, verifies
the coupling exists (max-flow saturates), then samples the coupling and
compares the empirical removal statistics against the kernel formulas.
"""
import math

import numpy as np

from palmdpp import (
    GinibreParams,
    ginibre_kernel,
    grid_discretize,
    mc_validate_coupling,
    sample_indicators,
)

kernel = ginibre_kernel(GinibreParams(1.0, 1.0))

grid = grid_discretize(kernel, (-3.0, 3.0, -3.0, 3.0), 12)
counts = sample_indicators(grid.dpp, rng_seed=7, draws=1000).sum(axis=1)
print(f"grid 12x12 on [-3,3]^2: expected count {grid.expected_count:.4f} "
      f"(= 36/pi = {36 / math.pi:.4f})")
print(f"1000 sampled realizations: mean count {counts.mean():.4f} "
      f"+- {counts.std(ddof=1) / math.sqrt(len(counts)):.4f}")

report = mc_validate_coupling(kernel, np.zeros(2), (-1.0, 1.0, -1.0, 1.0), 3,
                              samples=20000, rng_seed=11)
print(f"\ncoupling check on a 3x3 grid over [-1,1]^2 (anchor cell {report.anchor_site}):")
print(f"  max-flow            {report.flow:.12f}")
print(f"  p_u exact           {report.p_exact:.6f}")
print(f"  p_u empirical       {report.p_hat:.6f} (z = {report.z_score:+.2f})")
print(f"  displacement chi^2  {report.chi2_stat:.2f} on {report.chi2_dof} dof "
      f"(p-value {report.chi2_pvalue:.3f})")
