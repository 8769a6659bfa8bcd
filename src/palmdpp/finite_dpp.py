"""Exact machinery on finite ground spaces.

Subset laws by inclusion-exclusion over principal minors, the Palm
matrix, the dilation of a kernel matrix to a projection on twice the
space, constructive coupling verification by max-flow feasibility, and
exact / coupled samplers.

Sites are numbered 1..n in the public API; subsets are bitmasks where
bit (site - 1) marks membership.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError, ValidationError
from .numerics import HermitianEig, _as_float_or_complex, hermitian_eig

__all__ = [
    "FiniteDpp",
    "SubsetLaw",
    "DilationPair",
    "CouplingTable",
    "validate",
    "inclusion_prob",
    "subset_law",
    "palm_matrix",
    "p_u_finite",
    "dilate",
    "palm_eigenvector",
    "coupling_feasible",
    "xi_law",
    "sample_exact",
    "sample_exact_many",
    "sample_coupled",
    "sample_coupled_many",
]

_LAW_MAX_SITES = 16
_COUPLING_MAX_SITES = 12
_SPECTRUM_SLACK = 1e-6
_FLOW_DEFICIT = 1e-8
_MINOR_BLOCK = 512   # principal minors per stacked det call in subset_law
_SAMPLE_BLOCK = 64   # draws per batch of the spectral sampler


@dataclass(frozen=True)
class FiniteDpp:
    """A validated n x n Hermitian kernel matrix with spectrum in [0, 1].

    matrix and eig are kept consistent: if validation clamped any
    eigenvalue, matrix is the clamped spectral rebuild.
    """

    matrix: np.ndarray
    eig: HermitianEig
    n: int


@dataclass(frozen=True)
class SubsetLaw:
    """Exact probability of every subset, indexed by bitmask."""

    probs: np.ndarray  # shape (2**n,)
    n: int

    def prob(self, mask: int) -> float:
        return float(self.probs[mask])

    @property
    def total_mass(self) -> float:
        return float(self.probs.sum())


@dataclass(frozen=True)
class DilationPair:
    """Dilation data at an anchor site.

    projection is the 2n x 2n projection dilating the kernel,
    anchor_vector its unit eigenvector attached to the anchor, and
    reduced the rank-one-reduced projection whose upper-left block is
    the Palm matrix.
    """

    projection: np.ndarray
    anchor_vector: np.ndarray
    reduced: np.ndarray


@dataclass(frozen=True)
class CouplingTable:
    """Joint law of (X, X^u) supported on pairs T subset S, |S \\ T| <= 1."""

    joint: dict[tuple[int, int], float]
    anchor: int
    n: int

    def row_marginal(self) -> np.ndarray:
        out = np.zeros(2 ** self.n)
        for (s, _), w in self.joint.items():
            out[s] += w
        return out

    def col_marginal(self) -> np.ndarray:
        out = np.zeros(2 ** self.n)
        for (_, t), w in self.joint.items():
            out[t] += w
        return out


def validate(matrix) -> FiniteDpp:
    """Check Hermitian symmetry and the [0, 1] spectrum condition.

    Eigenvalues within 1e-6 of the [0, 1] boundary are clamped onto it;
    anything further out is rejected.  A real symmetric matrix stays real.
    """
    M = _as_float_or_complex(matrix)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("param-bound", "kernel matrix must be square")
    scale = 1.0 + float(np.max(np.abs(M))) if M.size else 1.0
    if float(np.max(np.abs(M - M.conj().T))) > 1e-10 * scale:
        raise ValidationError("non-hermitian", "kernel matrix is not Hermitian")
    M = 0.5 * (M + M.conj().T)
    eig = hermitian_eig(M)
    lam = eig.eigenvalues
    if lam.size and (lam.min() < -_SPECTRUM_SLACK or lam.max() > 1.0 + _SPECTRUM_SLACK):
        raise ValidationError(
            "spectrum",
            f"eigenvalues must lie in [0, 1]; found range "
            f"[{lam.min():.6g}, {lam.max():.6g}]")
    clamped = np.clip(lam, 0.0, 1.0)
    if lam.size and float(np.max(np.abs(clamped - lam))) > 1e-12:
        V = eig.eigenvectors
        M = (V * clamped) @ V.conj().T
        M = 0.5 * (M + M.conj().T)
    eig = HermitianEig(eigenvalues=clamped, eigenvectors=eig.eigenvectors)
    return FiniteDpp(matrix=M, eig=eig, n=M.shape[0])


def _site_index(dpp: FiniteDpp, u: int) -> int:
    if not 1 <= u <= dpp.n:
        raise ValidationError("param-bound", f"site {u} outside 1..{dpp.n}")
    return u - 1


def _mask_indices(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


def inclusion_prob(dpp: FiniteDpp, subset_mask: int) -> float:
    """P(A subset X) = det K_A for the sites marked in subset_mask."""
    if subset_mask <= 0 or subset_mask >= 1 << dpp.n:
        raise ValidationError("param-bound", "subset mask must be nonempty and within range")
    idx = _mask_indices(subset_mask, dpp.n)
    det = float(np.real(np.linalg.det(dpp.matrix[np.ix_(idx, idx)])))
    return min(max(det, 0.0), 1.0)


def subset_law(dpp: FiniteDpp) -> SubsetLaw:
    """Exact law P(X = S) for every subset S.

    Inclusion-exclusion over inclusion probabilities:
    P(X = S) = sum over A containing S of (-1)^|A \\ S| det K_A,
    evaluated with an in-place superset Moebius transform.  The principal
    minors det K_A are taken in stacks of equal size, a few hundred per
    det call.
    """
    n = dpp.n
    if n > _LAW_MAX_SITES:
        raise SizeGuardError(f"subset laws are bounded at n <= {_LAW_MAX_SITES} (got {n})")
    size = 1 << n
    vals = np.empty(size)
    vals[0] = 1.0
    masks = np.arange(size, dtype=np.int32)
    popcount = np.zeros(size, dtype=np.uint8)
    for i in range(n):
        popcount += (masks >> i & 1).astype(np.uint8)
    shifts = np.arange(n, dtype=np.int32)
    for r in range(1, n + 1):
        of_size = masks[popcount == r]
        for lo in range(0, of_size.size, _MINOR_BLOCK):
            block = of_size[lo:lo + _MINOR_BLOCK]
            # ascending site indices of each mask, one row per mask
            idx = np.nonzero(block[:, None] >> shifts & 1)[1].reshape(-1, r)
            minors = np.linalg.det(dpp.matrix[idx[:, :, None], idx[:, None, :]])
            vals[block] = np.real(minors)
    t = vals.reshape((2,) * n)
    for axis in range(n):
        lo = [slice(None)] * n
        hi = [slice(None)] * n
        lo[axis], hi[axis] = 0, 1
        t[tuple(lo)] -= t[tuple(hi)]
    probs = vals  # transformed in place
    if probs.min() < -1e-8:
        raise ValidationError("spectrum",
                              f"subset law has a materially negative value {probs.min():.3e}")
    np.clip(probs, 0.0, None, out=probs)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValidationError("spectrum",
                              f"subset law mass {probs.sum():.12f} is not 1")
    return SubsetLaw(probs=probs, n=n)


def palm_matrix(dpp: FiniteDpp, u: int) -> FiniteDpp:
    """Reduced Palm kernel matrix K - K[:,u] K[u,:] / K[u,u] at site u."""
    i = _site_index(dpp, u)
    kuu = float(np.real(dpp.matrix[i, i]))
    if kuu <= 1e-12:
        raise ValidationError("anchor", f"kernel diagonal vanishes at site {u}")
    col = dpp.matrix[:, i]
    P = dpp.matrix - np.outer(col, col.conj()) / kuu
    return validate(P)


def p_u_finite(dpp: FiniteDpp, u: int) -> float:
    """Coupling probability p_u = sum_v |K[u,v]|^2 / K[u,u] = (K^2)_uu / K_uu."""
    i = _site_index(dpp, u)
    kuu = float(np.real(dpp.matrix[i, i]))
    if kuu <= 1e-12:
        raise ValidationError("anchor", f"kernel diagonal vanishes at site {u}")
    p = float(np.sum(np.abs(dpp.matrix[i, :]) ** 2)) / kuu
    return min(max(p, 0.0), 1.0)


def dilate(dpp: FiniteDpp) -> np.ndarray:
    """Dilation of the kernel to a 2n x 2n projection.

    Blocks [[K, L], [L, I - K]] with L the PSD square root of K(I - K);
    the result squares to itself.
    """
    lam, V = dpp.eig.eigenvalues, dpp.eig.eigenvectors
    K = dpp.matrix
    prod = np.clip(lam * (1.0 - lam), 0.0, None)
    L = (V * np.sqrt(prod)) @ V.conj().T
    L = 0.5 * (L + L.conj().T)
    eye = np.eye(dpp.n)
    return np.block([[K, L], [L, eye - K]])


def palm_eigenvector(dpp: FiniteDpp, u: int) -> DilationPair:
    """Anchor eigenvector of the dilation and the reduced projection.

    The vector stacks (K[:,u], L[:,u]) / sqrt(K[u,u]); subtracting its
    rank-one projector from the dilation leaves the Palm matrix in the
    upper-left block.
    """
    i = _site_index(dpp, u)
    kuu = float(np.real(dpp.matrix[i, i]))
    if kuu <= 1e-12:
        raise ValidationError("anchor", f"kernel diagonal vanishes at site {u}")
    Q = dilate(dpp)
    psi = Q[:, i].copy() / np.sqrt(kuu)
    reduced = Q - np.outer(psi, psi.conj())
    return DilationPair(projection=Q, anchor_vector=psi, reduced=reduced)


class _Dinic:
    """Max-flow with float capacities on a small residual graph."""

    def __init__(self, n_nodes: int):
        self.adj: list[list[list]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, cap: float) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0.0, len(self.adj[u]) - 1])

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * len(self.adj)
        level[s] = 0
        queue = [s]
        for u in queue:
            for v, cap, _ in self.adj[u]:
                if cap > 1e-15 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _push(self, u: int, t: int, f: float, level, it) -> float:
        if u == t:
            return f
        while it[u] < len(self.adj[u]):
            e = self.adj[u][it[u]]
            v, cap, rev = e
            if cap > 1e-15 and level[v] == level[u] + 1:
                got = self._push(v, t, min(f, cap), level, it)
                if got > 1e-15:
                    e[1] -= got
                    self.adj[v][rev][1] += got
                    return got
            it[u] += 1
        return 0.0

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        while True:
            level = self._levels(s, t)
            if level is None:
                return total
            it = [0] * len(self.adj)
            while True:
                pushed = self._push(s, t, float("inf"), level, it)
                if pushed <= 1e-15:
                    break
                total += pushed


def coupling_feasible(law_x: SubsetLaw, law_xu: SubsetLaw,
                      u: int) -> tuple[float, CouplingTable | None]:
    """Search for a coupling of X and X^u removing at most one point.

    Runs max-flow on the bipartite graph of subset pairs (S, T) with
    T subset S and |S \\ T| <= 1 (and u never in T), source capacities
    law_x, sink capacities law_xu.  A saturating flow (value 1 within
    1e-8) is decomposed into a CouplingTable.
    """
    if law_x.n != law_xu.n:
        raise ValidationError("param-bound", "laws live on different site counts")
    n = law_x.n
    if n > _COUPLING_MAX_SITES:
        raise SizeGuardError(
            f"coupling verification is bounded at n <= {_COUPLING_MAX_SITES} (got {n})")
    if not 1 <= u <= n:
        raise ValidationError("param-bound", f"site {u} outside 1..{n}")
    ubit = 1 << (u - 1)
    mass_on_u = float(law_xu.probs[(np.arange(1 << n) & ubit) > 0].sum())
    if mass_on_u > 1e-10:
        raise ValidationError(
            "param-bound",
            f"the Palm-side law puts mass {mass_on_u:.3e} on subsets containing site {u}")

    s_masks = [m for m in range(1 << n) if law_x.probs[m] > 0.0]
    t_masks = [m for m in range(1 << n) if law_xu.probs[m] > 0.0 and not m & ubit]
    s_node = {m: 2 + i for i, m in enumerate(s_masks)}
    t_node = {m: 2 + len(s_masks) + i for i, m in enumerate(t_masks)}

    net = _Dinic(2 + len(s_masks) + len(t_masks))
    for m in s_masks:
        net.add_edge(0, s_node[m], float(law_x.probs[m]))
    for m in t_masks:
        net.add_edge(t_node[m], 1, float(law_xu.probs[m]))
    pair_edges: list[tuple[int, int, int]] = []  # (S, T, edge index at S node)
    for s in s_masks:
        targets = [s ^ ubit] if s & ubit else [s] + [s ^ (1 << v) for v in _mask_indices(s, n)]
        for t in targets:
            if t in t_node:
                pair_edges.append((s, t, len(net.adj[s_node[s]])))
                net.add_edge(s_node[s], t_node[t], 2.0)

    flow = net.max_flow(0, 1)
    if flow < 1.0 - _FLOW_DEFICIT:
        return flow, None
    joint: dict[tuple[int, int], float] = {}
    for s, t, ei in pair_edges:
        v, _, rev = net.adj[s_node[s]][ei]
        pushed = net.adj[v][rev][1]  # reverse capacity accumulates the flow
        if pushed > 1e-15:
            joint[(s, t)] = pushed
    return flow, CouplingTable(joint=joint, anchor=u, n=n)


def xi_law(table: CouplingTable, dpp: FiniteDpp, u: int) -> tuple[float, np.ndarray]:
    """Law of the removed point from a coupling table.

    Returns (p, density) where p is the mass of pairs differing in one
    site and density[v-1] is the conditional probability that the
    removed point sits at site v.
    """
    _site_index(dpp, u)
    p = 0.0
    density = np.zeros(dpp.n)
    for (s, t), w in table.joint.items():
        diff = s ^ t
        if diff:
            p += w
            density[diff.bit_length() - 1] += w
    if p > 0.0:
        density /= p
    return p, density


def _spectral_block(lam: np.ndarray, V: np.ndarray, n_draws: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw n_draws subsets at once; returns their site indicators, (n_draws, n).

    The spectral algorithm of Hough, Krishnapur, Peres & Virag (2006):
    keep eigenvector j with probability lam[j], then draw k points, one
    per kept eigenvector.  Each point is picked with probability
    proportional to the residual diagonal of the projection K_J onto the
    kept eigenvectors, after removing the orthonormal directions E of
    the points already picked; the next direction is the Gram-Schmidt
    residual of the column K_J[:, x] of the picked site x.
    """
    n = V.shape[0]
    kept = rng.random((n_draws, lam.size)) < lam
    used = kept.any(axis=0)
    kept, V = kept[:, used], V[:, used]
    k = kept.sum(axis=1)
    # most points first, so the draws still picking are always a leading slice
    order = np.argsort(-k, kind="stable")
    kept, k = kept[order], k[order]
    resid = kept @ (np.abs(V) ** 2).T
    k_max = int(k[0]) if n_draws else 0
    E = np.zeros((n_draws, k_max, n), dtype=V.dtype)
    picked = np.zeros((n_draws, n), dtype=bool)
    active = np.count_nonzero(k[:, None] > np.arange(k_max), axis=0)
    for m in range(k_max):
        a = int(active[m])
        rows = np.arange(a)
        p = np.clip(resid[:a], 0.0, None)
        cdf = np.cumsum(p, axis=1)
        u = rng.random(a) * cdf[:, -1]
        x = np.count_nonzero(cdf <= u[:, None], axis=1)
        over = x == n
        if over.any():  # u rounded up to the total: take the last site with mass
            x[over] = n - 1 - np.argmax(p[over, ::-1] > 0.0, axis=1)
        col = (kept[:a] * V[x].conj()) @ V.T  # K_J[:, x] per draw
        e = col - np.matmul(E[rows, :m, x].conj()[:, None, :], E[:a, :m])[:, 0]
        e /= np.sqrt(e[rows, x].real)[:, None]
        E[:a, m] = e
        resid[:a] -= np.abs(e) ** 2
        resid[rows, x] = 0.0
        picked[rows, x] = True
    out = np.empty_like(picked)
    out[order] = picked
    return out


def sample_exact(dpp: FiniteDpp, rng_seed: int) -> int:
    """Draw one subset; the first draw of sample_exact_many with this seed."""
    return int(sample_exact_many(dpp, rng_seed, 1)[0])


def sample_exact_many(dpp: FiniteDpp, rng_seed: int, draws: int) -> np.ndarray:
    """Draw many subsets from one seeded stream; returns bitmasks.

    Uses the spectral sampler on the stored eigendecomposition, in
    batches of up to 64 draws.  Masks are int64 when they fit and Python
    ints (object dtype) for wider site counts, as grid discretizations
    produce.
    """
    rng = np.random.default_rng(rng_seed)
    dtype = np.int64 if dpp.n <= 62 else object
    lam, V = dpp.eig.eigenvalues, dpp.eig.eigenvectors
    masks: list[int] = []
    for lo in range(0, draws, _SAMPLE_BLOCK):
        picked = _spectral_block(lam, V, min(_SAMPLE_BLOCK, draws - lo), rng)
        packed = np.packbits(picked, axis=1, bitorder="little")
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return np.fromiter(masks, dtype=dtype, count=draws)


def _table_arrays(table: CouplingTable):
    pairs = sorted(table.joint.items())
    weights = np.array([w for _, w in pairs])
    weights = weights / weights.sum()
    return pairs, weights


def sample_coupled(table: CouplingTable, rng_seed: int) -> tuple[int, int]:
    """Draw one (S, T) pair from the joint coupling law."""
    rng = np.random.default_rng(rng_seed)
    pairs, weights = _table_arrays(table)
    k = int(rng.choice(len(pairs), p=weights))
    return pairs[k][0]


def sample_coupled_many(table: CouplingTable, rng_seed: int,
                        draws: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw many (S, T) pairs; returns (S array, T array) of bitmasks."""
    rng = np.random.default_rng(rng_seed)
    pairs, weights = _table_arrays(table)
    ks = rng.choice(len(pairs), p=weights, size=draws)
    s = np.array([pairs[k][0][0] for k in ks], dtype=np.int64)
    t = np.array([pairs[k][0][1] for k in ks], dtype=np.int64)
    return s, t
