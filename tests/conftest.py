"""Shared helpers for the test suite."""
from __future__ import annotations

import math

import numpy as np


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    # fix the phase so the distribution is Haar
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_dpp_matrix(rng: np.random.Generator, n: int,
                      force_one: bool = False) -> np.ndarray:
    """Random valid kernel matrix: Haar eigenvectors, eigenvalues in [0, 1].

    force_one pins one eigenvalue at exactly 1 (projection direction),
    exercising the boundary the coupling theorem must still cover.
    """
    q = random_unitary(rng, n)
    lam = rng.uniform(0.0, 1.0, size=n)
    if force_one:
        lam[rng.integers(0, n)] = 1.0
    k = (q * lam) @ q.conj().T
    return 0.5 * (k + k.conj().T)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (z + z.conj().T)


def assert_sampler_matches_kernel(dpp, masks) -> None:
    """Per-site inclusion rates against K_ii, and the count mean and
    variance against sum(lam) and sum(lam (1 - lam)), at 4.5 sigma."""
    draws = masks.size
    bits = np.array([[int(m) >> i & 1 for i in range(dpp.n)] for m in masks], dtype=float)
    diag = np.real(np.diagonal(dpp.matrix))
    site_sd = np.sqrt(np.maximum(diag * (1.0 - diag), 1e-12) / draws)
    assert np.all(np.abs(bits.mean(axis=0) - diag) <= 4.5 * site_sd + 1e-12)
    lam = dpp.eig.eigenvalues
    q = lam * (1.0 - lam)
    var = float(q.sum())
    counts = bits.sum(axis=1)
    assert abs(counts.mean() - lam.sum()) <= 4.5 * math.sqrt(var / draws) + 1e-12
    # the count is a sum of independent Bernoulli(lam) variables
    kappa4 = float(np.sum(q * (1.0 - 6.0 * q)))
    var_sd = math.sqrt(max(kappa4 + 2.0 * var ** 2, 0.0) / draws)
    assert abs(counts.var() - var) <= 4.5 * var_sd + 1e-12
