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
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

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
    "sample_exact_many",
    "sample_indicators",
    "sample_coupled_many",
]

_LAW_MAX_SITES = 16
_COUPLING_MAX_SITES = 12
_SPECTRUM_SLACK = 1e-6
_FLOW_DEFICIT = 1e-8
_FLOW_UNITS = 2 ** 30  # integer units of residual source mass per max-flow round
_FLOW_NOISE = 1e-15    # flow below this is float noise: not routed, not tabled
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

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs as an (m, 2) int64 array of (S, T) and their masses, in table order."""
        pairs = np.array(list(self.joint), dtype=np.int64).reshape(-1, 2)
        return pairs, np.fromiter(self.joint.values(), dtype=float, count=len(self.joint))

    def row_marginal(self) -> np.ndarray:
        pairs, w = self._arrays()
        return np.bincount(pairs[:, 0], weights=w, minlength=2 ** self.n)

    def col_marginal(self) -> np.ndarray:
        pairs, w = self._arrays()
        return np.bincount(pairs[:, 1], weights=w, minlength=2 ** self.n)


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


def coupling_feasible(law_x: SubsetLaw, law_xu: SubsetLaw,
                      u: int) -> tuple[float, CouplingTable | None]:
    """Search for a coupling of X and X^u removing at most one point.

    Runs max-flow on the bipartite graph of subset pairs (S, T) with
    T subset S and |S \\ T| <= 1 (and u never in T), source capacities
    law_x, sink capacities law_xu, and pair capacities 2, more than any
    flow of value at most 1 can use.  A saturating flow (value 1 within
    1e-8) is decomposed into a CouplingTable.

    scipy's max-flow takes integer capacities, so the flow is found in
    rounds.  Each round solves the residual network of the float flow
    found so far, with its capacities scaled so that the residual source
    mass is 2**30 units and floored, and adds the round's flow back.  A
    round leaves about 2e-6 of its residual to flooring, so three rounds
    reach the float noise of the laws.
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
    masks = np.arange(1 << n)
    mass_on_u = float(law_xu.probs[(masks & ubit) > 0].sum())
    if mass_on_u > 1e-10:
        raise ValidationError(
            "param-bound",
            f"the Palm-side law puts mass {mass_on_u:.3e} on subsets containing site {u}")

    s_masks = np.flatnonzero(law_x.probs > 0.0)
    t_ok = (law_xu.probs > 0.0) & (masks & ubit == 0)
    t_masks = np.flatnonzero(t_ok)
    ns, nt = s_masks.size, t_masks.size
    # candidate T for each S: S less site v + 1 (column v) or S itself (column n);
    # t_ok keeps u out of T, so an S holding u can only lose u
    bits = 1 << np.arange(n)
    cand = np.concatenate([s_masks[:, None] ^ bits, s_masks[:, None]], axis=1)
    keep = np.concatenate([(s_masks[:, None] & bits) > 0, np.ones((ns, 1), dtype=bool)], axis=1)
    pair_s, col = np.nonzero(keep & t_ok[cand])
    pair_t = np.searchsorted(t_masks, cand[pair_s, col])

    s_node, t_node = 2 + pair_s, 2 + ns + pair_t
    # edges: source -> S, S -> T, T -> S (the residual of a pair's flow), T -> sink
    edge_from = np.concatenate([np.zeros(ns, dtype=np.int64), s_node, t_node,
                                2 + ns + np.arange(nt)])
    edge_to = np.concatenate([2 + np.arange(ns), t_node, s_node, np.ones(nt, dtype=np.int64)])
    p_x, p_xu = law_x.probs[s_masks], law_xu.probs[t_masks]
    f = np.zeros(pair_s.size)
    while True:
        src = np.clip(p_x - np.bincount(pair_s, weights=f, minlength=ns), 0.0, None)
        snk = np.clip(p_xu - np.bincount(pair_t, weights=f, minlength=nt), 0.0, None)
        residual = float(src.sum())
        if min(residual, snk.sum()) <= _FLOW_NOISE:
            break  # the rest is float noise: no flow exceeds either side's residual
        # no edge of a flow of value `residual` needs more than `residual`,
        # which keeps scipy's int32 sums from overflowing
        scale = _FLOW_UNITS / residual
        cap = np.concatenate([src, 2.0 - f, f, snk]) * scale
        cap = np.floor(np.minimum(cap, _FLOW_UNITS)).astype(np.int32)
        graph = csr_array((cap, (edge_from, edge_to)), shape=(2 + ns + nt,) * 2)
        result = maximum_flow(graph, 0, 1)
        f += result.flow[s_node, t_node] / scale
        if 2 * result.flow_value < _FLOW_UNITS:
            break  # saturated: another round could only recover this one's flooring loss
    flow = float(f.sum())
    if flow < 1.0 - _FLOW_DEFICIT:
        return flow, None
    kept = f > _FLOW_NOISE
    joint = dict(zip(zip(s_masks[pair_s[kept]].tolist(), t_masks[pair_t[kept]].tolist()),
                     f[kept].tolist()))
    return flow, CouplingTable(joint=joint, anchor=u, n=n)


def xi_law(table: CouplingTable, dpp: FiniteDpp, u: int) -> tuple[float, np.ndarray]:
    """Law of the removed point from a coupling table.

    Returns (p, density) where p is the mass of pairs differing in one
    site and density[v-1] is the conditional probability that the
    removed point sits at site v.
    """
    _site_index(dpp, u)
    pairs, w = table._arrays()
    diff = pairs[:, 0] ^ pairs[:, 1]
    moved = diff != 0
    w = w[moved]
    # frexp's exponent is the bit length; bincount and cumsum add in table order
    removed = np.frexp(diff[moved])[1] - 1
    # with no removals bincount returns integer zeros, hence the astype
    density = np.bincount(removed, weights=w, minlength=dpp.n).astype(float, copy=False)
    p = float(np.cumsum(w)[-1]) if w.size else 0.0
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


def sample_indicators(dpp: FiniteDpp, rng_seed: int, draws: int) -> np.ndarray:
    """Draw many subsets from one seeded stream; returns their site
    indicators, a boolean array of shape (draws, n).

    Uses the spectral sampler on the stored eigendecomposition, in
    batches of up to 64 draws.
    """
    rng = np.random.default_rng(rng_seed)
    lam, V = dpp.eig.eigenvalues, dpp.eig.eigenvectors
    blocks = [_spectral_block(lam, V, min(_SAMPLE_BLOCK, draws - lo), rng)
              for lo in range(0, draws, _SAMPLE_BLOCK)]
    return np.concatenate(blocks) if blocks else np.zeros((0, dpp.n), dtype=bool)


def sample_exact_many(dpp: FiniteDpp, rng_seed: int, draws: int) -> np.ndarray:
    """The draws of sample_indicators as bitmasks over bit (site - 1).

    Masks are int64 when they fit and Python ints (object dtype) for
    wider site counts, as grid discretizations produce.
    """
    packed = np.packbits(sample_indicators(dpp, rng_seed, draws), axis=1, bitorder="little")
    dtype = np.int64 if dpp.n <= 62 else object
    return np.fromiter((int.from_bytes(row.tobytes(), "little") for row in packed),
                       dtype=dtype, count=draws)


def _table_arrays(table: CouplingTable) -> tuple[np.ndarray, np.ndarray]:
    """The pairs sorted by (S, T), and their masses normalized to sum to 1."""
    pairs, w = table._arrays()
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    w = w[order]
    return pairs[order], w / w.sum()


def sample_coupled_many(table: CouplingTable, rng_seed: int,
                        draws: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw many (S, T) pairs; returns (S array, T array) of bitmasks."""
    rng = np.random.default_rng(rng_seed)
    pairs, weights = _table_arrays(table)
    drawn = pairs[rng.choice(len(pairs), p=weights, size=draws)]
    return drawn[:, 0], drawn[:, 1]
