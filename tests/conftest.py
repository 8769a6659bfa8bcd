"""Shared helpers for the test suite."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from palmdpp import finite_dpp

# Property tests draw the same examples on every run (derandomize, no
# example database), a bounded number of them, with no per-example
# deadline, so tier-1 stays reproducible and about as fast as before.
settings.register_profile("palmdpp", derandomize=True, database=None, max_examples=30,
                          deadline=None)
settings.load_profile("palmdpp")


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


def complement_determinant_law(dpp) -> np.ndarray:
    """P(X = S) = |det(K - I_{S^c})| for every subset S, by bitmask."""
    n = dpp.n
    masks = np.arange(1 << n)
    out = (masks[:, None] >> np.arange(n) & 1) == 0  # sites outside S
    law = np.empty(1 << n)
    for lo in range(0, 1 << n, 4096):
        block = out[lo:lo + 4096]
        shifted = dpp.matrix - block[:, :, None] * np.eye(n)
        law[lo:lo + 4096] = np.abs(np.linalg.det(shifted))
    return law


def masks_of(bits: np.ndarray) -> np.ndarray:
    """Site indicators of shape (draws, n <= 62) as int64 bitmasks over bit (site - 1)."""
    return bits @ (1 << np.arange(bits.shape[1]))


def assert_sampler_matches_kernel(dpp, indicators) -> None:
    """Per-site inclusion rates against K_ii, and the count mean and
    variance against sum(lam) and sum(lam (1 - lam)), at 4.5 sigma."""
    draws = indicators.shape[0]
    bits = indicators.astype(float)
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


def table_items(table):
    """The table's ((S, T), mass) items, in table order."""
    return [((s, t), w) for (s, t), w in zip(table.joint.tolist(), table.mass.tolist())]


def reference_marginals(table):
    """Row and column marginals, one addition per pair."""
    rows, cols = np.zeros(2 ** table.n), np.zeros(2 ** table.n)
    for (s, t), w in table_items(table):
        rows[s] += w
        cols[t] += w
    return rows, cols


def palm_law_of_couple(dpp, u: int) -> np.ndarray:
    """The law of X^u, by bitmask, that couple hands to coupling_feasible."""
    seen = []

    def spied(law_x, law_xu, site, _feasible=finite_dpp.coupling_feasible):
        seen.append(law_xu.probs)
        return _feasible(law_x, law_xu, site)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(finite_dpp, "coupling_feasible", spied)
        finite_dpp.couple(dpp, u)
    return seen[0]
