"""Exact machinery on finite ground spaces.

The spectrum gate, subset laws by conditioning on one site at a time,
the Palm matrix, the dilation of a kernel matrix to a projection on
twice the space, the coupling of X with its Palm process by max-flow
feasibility on up to 16 sites (the Palm law read off the law of X, the
pairs that lose the anchor routed before the solve, the rest started
from a greedy flow), and exact / coupled samplers.

Sites are the integers 1..n in the public API, and draw counts and
seeds are integers too (errors.check_site, errors.check_count); subsets are
bitmasks where bit (site - 1) marks membership.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (SizeGuardError, TheoremViolationError, ValidationError, check_anchor,
                     check_count, check_site)
from .numerics import HermitianEig, hermitian_eig

__all__ = [
    "ClampReport",
    "FiniteDpp",
    "SubsetLaw",
    "DilationPair",
    "CouplingTable",
    "validate",
    "validate_eig",
    "subset_law",
    "palm_matrix",
    "p_u_finite",
    "palm_eigenvector",
    "coupling_feasible",
    "couple",
    "xi_law",
    "sample_indicators",
    "sample_coupled_many",
    "sample_removals",
]

_LAW_MAX_SITES = 16
_FLOW_DEFICIT = 1e-8
_FLOW_UNITS = 2 ** 30 - 1  # largest capacity of a max-flow round: twice it fits in int32
_FLOW_NOISE = 1e-15    # residual mass below this is float noise: no further round
_PIVOT_FLOOR = 1e-14  # a conditioning factor this small is rounding of zero
_SAMPLE_BLOCK = 64   # fewest draws per batch of the spectral sampler
_SAMPLE_ENTRIES = 2 ** 16  # direction-stack entries per batch: 1 MiB of complex at n x n per draw


@dataclass(frozen=True)
class ClampReport:
    """Eigenvalues that validation moved onto [0, 1], the largest move, and
    the trace a factored kernel left out (0 for a dense matrix)."""

    n_clamped: int
    max_excess: float
    dropped_trace: float = 0.0

    def __bool__(self) -> bool:
        return self.n_clamped > 0


@dataclass(frozen=True)
class FiniteDpp:
    """A validated n x n Hermitian kernel matrix with spectrum in [0, 1].

    eig holds every eigenpair of a dense matrix, or the m < n eigenpairs
    of a factored one (the rest of its spectrum is 0).  matrix is the
    validated matrix when validation kept it as given; when it clamped an
    eigenvalue, or the kernel came as a factor, matrix is the spectral
    rebuild V diag(lam) V*, built on first access.  clamp_report says how
    many eigenvalues moved, how far, and what trace a factor dropped.
    """

    eig: HermitianEig
    n: int
    clamp_report: ClampReport
    _matrix: np.ndarray | None = field(default=None, repr=False)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            V = self.eig.eigenvectors
            M = (V * self.eig.eigenvalues) @ V.conj().T
            object.__setattr__(self, "_matrix", 0.5 * (M + M.conj().T))
        return self._matrix


@dataclass(frozen=True)
class SubsetLaw:
    """Exact probability of every subset, indexed by bitmask."""

    probs: np.ndarray  # shape (2**n,)
    n: int

    def prob(self, mask: int) -> float:
        return float(self.probs[mask])


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


@dataclass(frozen=True, eq=False)
class CouplingTable:
    """Joint law of (X, X^u) supported on pairs T subset S, |S \\ T| <= 1.

    joint is the (m, 2) int64 array of (S, T) bitmask pairs and mass their
    probabilities, both in the order the max-flow solver found them.
    """

    joint: np.ndarray
    mass: np.ndarray
    anchor: int
    n: int


def validate(matrix, slack: float = 1e-6) -> FiniteDpp:
    """Check Hermitian symmetry and the [0, 1] spectrum condition.

    The matrix is symmetrized and decomposed once.  Eigenvalues within
    `slack` of the [0, 1] boundary are clamped onto it, the matrix is
    rebuilt from the clamped spectrum, and clamp_report records them;
    anything further out is rejected.  A real symmetric matrix stays real.
    """
    M = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise ValidationError("param-bound", "kernel matrix must be square and nonempty")
    scale = 1.0 + float(np.max(np.abs(M)))
    if not np.isfinite(scale):  # inf or nan exactly when some entry is
        raise ValidationError("param-bound", "kernel matrix entries must be finite")
    M = 0.5 * M  # halved before adding, so entries near the double maximum stay finite
    del matrix  # frees the caller's unsymmetrized array before eigh, unless it holds it
    if float(np.max(np.abs(M - M.conj().T))) > 0.5e-10 * scale:
        raise ValidationError("non-hermitian", "kernel matrix is not Hermitian")
    M = M + M.conj().T
    dpp = validate_eig(hermitian_eig(M), slack)
    return dpp if dpp.clamp_report else replace(dpp, _matrix=M)


def validate_eig(eig: HermitianEig, slack: float = 1e-6, dropped_trace: float = 0.0) -> FiniteDpp:
    """The spectrum guard and clamp of validate, for a kernel given by its
    eigenpairs (eigenvalues descending, orthonormal eigenvectors).

    validate passes its eigenpairs through it, and grid discretization
    passes those of a thin factor, of Fourier blocks or of reflection blocks.
    A thin factor's eigenvectors (numerics.factor_eig) are orthonormal only
    to about 1e-16 / lambda where lambda is below about 1e-8, and are zero
    where lambda <= 0; the clamp sets those eigenvalues to 0, so a sampler
    never keeps those columns.  dropped_trace is recorded in clamp_report
    as given.
    """
    lam = eig.eigenvalues
    if not (lam.min() >= -slack and lam.max() <= 1.0 + slack):  # nan is refused too
        raise ValidationError("spectrum", "eigenvalues must lie in [0, 1]; found range "
                              f"[{lam.min():.6g}, {lam.max():.6g}]")
    clamped = np.clip(lam, 0.0, 1.0)
    excess = np.abs(clamped - lam)
    n_clamped = int(np.count_nonzero(excess > 1e-12))
    report = ClampReport(n_clamped, float(excess.max()) if n_clamped else 0.0, dropped_trace)
    return FiniteDpp(eig=HermitianEig(eigenvalues=clamped, eigenvectors=eig.eigenvectors),
                     n=eig.eigenvectors.shape[0], clamp_report=report)


def _anchor(dpp: FiniteDpp, u: int) -> tuple[int, float]:
    """The index of site u and K(u, u), which must not vanish there."""
    i = check_site(u, dpp.n) - 1
    return i, check_anchor(float(np.real(dpp.matrix[i, i])), u)


def _conditioned(rest: np.ndarray, cr: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """rest + cr / factor for each kernel of the stack, and the zero kernel
    where the factor is at rounding level."""
    live = factor > _PIVOT_FLOOR
    inv = np.divide(1.0, factor, out=np.zeros_like(factor), where=live)
    return np.where(live[:, None, None], rest + cr * inv[:, None, None], 0.0)


def subset_law(dpp: FiniteDpp) -> SubsetLaw:
    """Exact law P(X = S) for every subset S, by conditioning on one site at a time.

    Given what X does on the sites before it, site k is in X with
    probability d = K[k, k] of the conditional kernel K.  Given k in X, the
    kernel of the later sites is the Schur complement K - c r / d; given k
    not in X, it is K + c r / (1 - d), with c and r the rest of column and
    row k.  Level k holds 2**k conditional kernels of order n - k and the
    probability of the path to each; the branch at site k sets bit k - 1
    of the path's index, so after the last site the path probabilities are
    the subset law by bitmask.  A branch whose factor d or 1 - d is at
    rounding level gets the zero kernel, so no inf or NaN reaches the
    branches below it.
    """
    n = dpp.n
    if n > _LAW_MAX_SITES:
        raise SizeGuardError(f"subset laws are bounded at n <= {_LAW_MAX_SITES} (got {n})")
    K = dpp.matrix[None]
    probs = np.ones(1)
    for _ in range(n):
        d = K[:, 0, 0].real
        rest, cr = K[:, 1:, 1:], K[:, 1:, :1] * K[:, :1, 1:]
        K = np.concatenate([_conditioned(rest, cr, 1.0 - d), _conditioned(rest, -cr, d)])
        probs = np.concatenate([probs * (1.0 - d), probs * d])
    if not np.all(np.isfinite(probs)):
        raise ValidationError("spectrum", "subset law has a non-finite value")
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
    i, kuu = _anchor(dpp, u)
    col = dpp.matrix[:, i]
    P = dpp.matrix - np.outer(col, col.conj()) / kuu
    return validate(P)


def p_u_finite(dpp: FiniteDpp, u: int) -> float:
    """Coupling probability p_u = sum_v |K[u,v]|^2 / K[u,u] = (K^2)_uu / K_uu."""
    i, kuu = _anchor(dpp, u)
    p = float(np.sum(np.abs(dpp.matrix[i, :]) ** 2)) / kuu
    return min(max(p, 0.0), 1.0)


def palm_eigenvector(dpp: FiniteDpp, u: int) -> DilationPair:
    """The dilation of the kernel, its anchor eigenvector and the reduced projection.

    The dilation is the 2n x 2n projection [[K, L], [L, I - K]], L the PSD
    square root of K(I - K) from the stored eigenpairs.  The vector stacks
    (K[:,u], L[:,u]) / sqrt(K[u,u]); subtracting its rank-one projector
    leaves the Palm matrix in the upper-left block.
    """
    i, kuu = _anchor(dpp, u)
    lam, V = dpp.eig.eigenvalues, dpp.eig.eigenvectors
    L = (V * np.sqrt(np.clip(lam * (1.0 - lam), 0.0, None))) @ V.conj().T
    L = 0.5 * (L + L.conj().T)
    K = dpp.matrix
    Q = np.block([[K, L], [L, np.eye(dpp.n) - K]])
    psi = Q[:, i] / np.sqrt(kuu)
    return DilationPair(projection=Q, anchor_vector=psi, reduced=Q - np.outer(psi, psi.conj()))


def maximum_flow(graph, source: int, sink: int):
    """scipy's max-flow on an integer-capacity CSR graph.  Like csr_array in
    coupling_feasible, it is imported on first call, so only couplings load
    scipy.sparse."""
    from scipy.sparse.csgraph import maximum_flow as solve
    return solve(graph, source, sink)


def coupling_feasible(law_x: SubsetLaw, law_xu: SubsetLaw,
                      u: int) -> tuple[float, CouplingTable | None]:
    """Search for a coupling of X and X^u removing at most one point.

    A coupling is a flow on the bipartite graph of subset pairs (S, T) with
    T subset S, |S \\ T| <= 1 and u never in T, from source capacities
    law_x to sink capacities law_xu.  It exists when the maximum flow has
    value 1 (within 1e-8); the flow is then returned as a CouplingTable.

    An S holding u has one pair, (S, S \\ {u}), and a saturating flow sends
    all of P(X = S) along it.  Those pairs are routed first, up to the sink
    capacity of S \\ {u}, and what a sink cannot take is lost flow; there is
    always a maximum flow that routes them so.  The rest of the flow is a
    maximum flow on the subsets without u, against the sink capacities the
    routed pairs left.

    That flow starts from a greedy one: each pair (S, S) takes what both
    of its ends have left, then, site by site, each pair (S, S less v).
    scipy's max-flow takes integer capacities, so the rest is found in
    rounds on one graph.  Each round writes the capacities of the residual
    network of the float flow found so far (2 - f forward, f backward, so
    a round can undo the greedy start), scaled so that the largest
    residual source or sink capacity is 2**30 - 1 units, capped there and
    floored, and adds the round's flow back.  scipy holds an edge's
    residual, its capacity plus the reverse edge's, in int32, and two
    capped capacities sum to at most 2**31 - 2.  Flooring leaves each edge
    less than a unit, so a second round usually reaches the float noise
    of the laws.  A residual at float noise, or a round that routes no
    more than float noise, ends the loop; a capped edge can leave a
    feasible round short of its residual, and the next round goes on.
    The table holds every solver pair with positive flow, then every
    routed pair with positive mass.
    """
    if law_x.n != law_xu.n:
        raise ValidationError("param-bound", "laws live on different site counts")
    n = law_x.n
    u = check_site(u, n)
    ubit = 1 << (u - 1)
    holds_u = (np.arange(1 << n) & ubit) > 0
    mass_on_u = float(law_xu.probs[holds_u].sum())
    if mass_on_u > 1e-10:
        raise ValidationError(
            "param-bound",
            f"the Palm-side law puts mass {mass_on_u:.3e} on subsets containing site {u}")

    sink = np.where(holds_u, 0.0, law_xu.probs)
    routed_s = np.flatnonzero(holds_u & (law_x.probs > 0.0))
    routed_t = routed_s ^ ubit
    routed = np.minimum(law_x.probs[routed_s], sink[routed_t])
    sink[routed_t] -= routed

    s_masks = np.flatnonzero(~holds_u & (law_x.probs > 0.0))
    t_masks = np.flatnonzero(sink > 0.0)
    ns, nt = s_masks.size, t_masks.size
    t_index = np.full(1 << n, -1)
    t_index[t_masks] = np.arange(nt)
    # candidate T for each S: S less site v + 1 (column v) or S itself (column n)
    bits = 1 << np.arange(n)
    cand = t_index[np.concatenate([s_masks[:, None] ^ bits, s_masks[:, None]], axis=1)]
    keep = np.concatenate([(s_masks[:, None] & bits) > 0, np.ones((ns, 1), dtype=bool)], axis=1)
    pair_s, col = np.nonzero(keep & (cand >= 0))
    pair_t = cand[pair_s, col]

    s_node, t_node = 2 + pair_s, 2 + ns + pair_t
    # edges: source -> S, S -> T, T -> S (the residual of a pair's flow), T -> sink
    edge_from = np.concatenate([np.zeros(ns, dtype=np.int64), s_node, t_node,
                                2 + ns + np.arange(nt)])
    edge_to = np.concatenate([2 + np.arange(ns), t_node, s_node, np.ones(nt, dtype=np.int64)])
    n_nodes = 2 + ns + nt
    from scipy.sparse import csr_array  # loaded by the first coupling, not on import
    # each edge's number, from 1, as its data: after the CSR sort, data - 1 maps slots to edges
    graph = csr_array((np.arange(1, edge_from.size + 1, dtype=np.int32), (edge_from, edge_to)),
                      shape=(n_nodes, n_nodes))
    order = graph.data - 1
    p_x, p_xu = law_x.probs[s_masks], sink[t_masks]
    # greedy start: the pairs (S, S) first, then the pairs (S, S less site v) for
    # each v; within one column every S and every T is distinct
    f = np.zeros(pair_s.size)
    src, snk = p_x.copy(), p_xu.copy()
    for c in (n, *range(n)):
        idx = np.flatnonzero(col == c)
        s, t = pair_s[idx], pair_t[idx]
        f[idx] = g = np.minimum(src[s], snk[t])
        src[s] -= g
        snk[t] -= g
    while True:
        src = np.clip(p_x - np.bincount(pair_s, weights=f, minlength=ns), 0.0, None)
        snk = np.clip(p_xu - np.bincount(pair_t, weights=f, minlength=nt), 0.0, None)
        if min(src.sum(), snk.sum()) <= _FLOW_NOISE:
            break  # the rest is float noise: no flow exceeds either side's residual
        scale = _FLOW_UNITS / max(src.max(), snk.max())
        cap = np.concatenate([src, 2.0 - f, f, snk]) * scale
        graph.data[:] = np.floor(np.minimum(cap[order], _FLOW_UNITS))
        result = maximum_flow(graph, 0, 1)
        f += result.flow[s_node, t_node] / scale
        if result.flow_value <= _FLOW_NOISE * scale:
            break  # the rest cannot be routed, or only as float noise
    flow = float(routed.sum() + f.sum())
    if flow < 1.0 - _FLOW_DEFICIT:
        return flow, None
    kept, routed_kept = f > 0.0, routed > 0.0
    joint = np.concatenate([
        np.stack([s_masks[pair_s[kept]], t_masks[pair_t[kept]]], axis=1),
        np.stack([routed_s[routed_kept], routed_t[routed_kept]], axis=1)])
    return flow, CouplingTable(joint=joint, mass=np.concatenate([f[kept], routed[routed_kept]]),
                               anchor=u, n=n)


def couple(dpp: FiniteDpp, u: int) -> tuple[float, CouplingTable]:
    """(max-flow value, table) of a coupling of X and X^u, the Palm process at
    site u, in which X^u is X less at most one point.

    The law of X^u is a slice of the law of X: P(X^u = T) = P(X = T + {u}) / K(u, u)
    for T without u, with K(u, u) the law's own mass on the subsets holding u.
    Raises SizeGuardError beyond 16 sites, from subset_law's guard before
    any other work; ValidationError for a bad site (param-bound) or a
    vanishing K(u, u) (anchor); and TheoremViolationError when the flow does
    not saturate."""
    law_x = subset_law(dpp)
    u = check_site(u, dpp.n)
    holds_u = (np.arange(1 << dpp.n) & (1 << (u - 1))) > 0
    on_u = law_x.probs[holds_u]
    kuu = check_anchor(float(on_u.sum()), u)
    probs = np.zeros_like(law_x.probs)
    probs[~holds_u] = on_u / kuu  # T and T + u rank alike among their halves
    flow, table = coupling_feasible(law_x, SubsetLaw(probs=probs, n=dpp.n), u)
    if table is None:
        raise TheoremViolationError(
            f"coupling infeasible at flow {flow:.12f} for a validated kernel",
            dump={"matrix": dpp.matrix.tolist(), "site": u, "flow": flow})
    return flow, table


def xi_law(table: CouplingTable) -> tuple[float, np.ndarray]:
    """Law of the removed point from a coupling table.

    Returns (p, density) where p is the mass of pairs differing in one
    site and density[v-1] is the conditional probability that the
    removed point sits at site v, for v = 1..table.n.
    """
    diff = table.joint[:, 0] ^ table.joint[:, 1]
    moved = diff != 0
    w = table.mass[moved]
    # frexp's exponent is the bit length; bincount and cumsum add in table order
    removed = np.frexp(diff[moved])[1] - 1
    # with no removals bincount returns integer zeros, hence the astype
    density = np.bincount(removed, weights=w, minlength=table.n).astype(float, copy=False)
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
    # one coin per site, so a factored kernel's m < n eigenvalues draw the
    # coins a dense decomposition would, its zero eigenvalues never kept
    kept = rng.random((n_draws, n))[:, :lam.size] < lam
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
    batches of up to max(64, 2**16 // n**2) draws.  Below 32 sites that
    keeps each batch's stack of directions near 1 MiB; from 32 sites on
    a batch is 64 draws, and its stack holds 64 * k_max * n entries,
    k_max the most eigenvectors a draw keeps.
    """
    draws = check_count("draws", draws, 0)
    rng = np.random.default_rng(check_count("rng_seed", rng_seed, 0))
    lam, V = dpp.eig.eigenvalues, dpp.eig.eigenvectors
    block = max(_SAMPLE_BLOCK, _SAMPLE_ENTRIES // dpp.n ** 2)
    out = np.empty((draws, dpp.n), dtype=bool)
    for lo in range(0, draws, block):
        out[lo:lo + block] = _spectral_block(lam, V, min(block, draws - lo), rng)
    return out


def sample_coupled_many(table: CouplingTable, rng_seed: int,
                        draws: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw many (S, T) pairs, at least one; returns (S array, T array) of bitmasks."""
    draws = check_count("draws", draws, 1)
    rng = np.random.default_rng(check_count("rng_seed", rng_seed, 0))
    order = np.lexsort((table.joint[:, 1], table.joint[:, 0]))  # pairs sorted by (S, T)
    pairs, w = table.joint[order], table.mass[order]
    drawn = pairs[rng.choice(len(pairs), p=w / w.sum(), size=draws)]
    return drawn[:, 0], drawn[:, 1]


def sample_removals(table: CouplingTable, rng_seed: int,
                    draws: int) -> tuple[float, np.ndarray]:
    """Tally sample_coupled_many's draws, at least one: (share of draws that
    remove a point, float array of the removals at each site 1..n, from 0)."""
    s_masks, t_masks = sample_coupled_many(table, rng_seed, draws)
    diff = s_masks ^ t_masks
    removed = np.frexp(diff[diff > 0])[1] - 1  # single-bit masks
    return float(np.mean(diff > 0)), np.bincount(removed, minlength=table.n).astype(float)
