#!/usr/bin/env python3
"""Couple a small finite DPP with its reduced Palm process.

Builds the rank-two projection kernel 1/n + t t* on three sites, takes
the Palm process at site 1, verifies by max-flow that the two laws admit
a coupling removing at most one point, and prints the law of the removed
point next to the kernel-row prediction |K[u, v]|^2.
"""
import math

import numpy as np

from palmdpp import (
    couple,
    p_u_finite,
    sample_coupled_many,
    subset_law,
    validate,
    xi_law,
)

n = 3
t = np.array([1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0])
dpp = validate(1.0 / n + np.outer(t, t))
u = 1

law_x = subset_law(dpp)
print("law of X (mask: probability):")
for mask in range(1 << n):
    if law_x.prob(mask) > 1e-12:
        print(f"  {mask:03b}: {law_x.prob(mask):.6f}")

flow, table = couple(dpp, u)
print(f"\ncoupling max-flow: {flow:.12f}  (1 means the coupling exists)")

p, density = xi_law(table)
print(f"removal probability p_u: exact {p:.10f}, formula {p_u_finite(dpp, u):.10f}")
print("density of the removed point vs |K[u,.]|^2 / row mass:")
row = np.abs(dpp.matrix[u - 1, :]) ** 2
for v in range(n):
    print(f"  site {v + 1}: coupling {density[v]:.10f}   kernel row {row[v] / row.sum():.10f}")

s_masks, t_masks = sample_coupled_many(table, rng_seed=1, draws=50000)
removed = s_masks ^ t_masks
print(f"\n50000 coupled draws: empirical p_u = {np.mean(removed > 0):.4f}")
print("every draw satisfies X^u subset X, at most one point removed:",
      bool(np.all(t_masks & s_masks == t_masks)
           and max(bin(int(d)).count("1") for d in removed) <= 1))
