"""Shared numerical kernels.

Series in normalized Gegenbauer polynomials, Hermitian
eigendecomposition (of a matrix, of phi phi* from a thin factor phi, of
a real block-circulant matrix by its Fourier blocks, or of a stationary
grid matrix by its reflection blocks), and quadrature
of radial integrals on (0, inf) against a declared tail and of polar
ones on [0, pi].

integrate_radial computes int_0^inf r^a g(r) dr for a smooth g whose
large-r behaviour is a declared Tail, amplitude * H(r / s): a Gaussian, or
an expansion in negative powers of t = r / s, possibly times sin/cos of a
fixed frequency, with a bound on its remainder.  Near the origin a
Gauss-Jacobi rule carries the weight r^a; Gauss-Legendre panels in s cover
the core up to the truncation radius; beyond it the declared terms are
integrated in t: powers in closed form, a Gaussian by the incomplete Gamma
function, sin/cos terms by Gauss-Laguerre rules on a complex path.  Each
rule is a 32- and 20-node pair, and one function, _rule_pair, charges the
panels, the Jacobi cell and the Laguerre path alike: the pair's difference
plus a rounding term.  The error budget adds the integral of the declared
remainder bound.  A power beyond double precision raises OverflowError
naming its quantity.  Whether the integral converges is read off the
declared exponent, never fitted.  The fixed pieces of a radial integral are
built once per process: each Gauss-Jacobi rule per (nodes, power), and each
tail shape's unit-scale truncation radius, in bounded memos (_MEMO_ENTRIES
each) whose arrays are read-only.  Everything here is a pure function of its
inputs, and the memos only skip recomputing the same values, so calls stay
safe to run concurrently and a warm call returns the bits of a cold one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureError, ValidationError, check_finite, named_overflow

__all__ = [
    "QuadratureSpec",
    "HermitianEig",
    "RadialIntegral",
    "Tail",
    "circulant_eig",
    "factor_eig",
    "gegenbauer_series",
    "hermitian_eig",
    "integrate_polar",
    "integrate_radial",
    "reflection_eig",
]

# Quadrature geometry, in the tail's length scale s: a Gauss-Jacobi cell
# over [0, 2 s] carries the weight r^a, then Gauss-Legendre panels 6 s
# wide.  A 20-node rule resolves |J1(2r/s)|^2, which oscillates at
# frequency 4/s, to about 3e-16 on such a panel (about 3e-11 at 8 s).
_ORIGIN_CELL = 2.0
_GL_PANEL = 6.0
# An interval gets at most this many panels, so memory and time stay bounded
# when it spans many length scales (a large explicit radius on a small s).
_GL_MAX_PANELS = 1 << 15
# Each node value carries a few ulps of rounding, and so does their sum;
# this multiple of eps * sum |w_i f(x_i)| is charged to every rule.
_EPS = float(np.finfo(float).eps)
_ROUNDING = 16.0 * _EPS
# Every rule is a pair: its value comes from the first, its error from the
# difference to the second.
_RULE_NODES = (32, 20)
_LEGENDRE = tuple(np.polynomial.legendre.leggauss(n) for n in _RULE_NODES)
# The default truncation radius is the first panel edge where the declared
# remainder bound is at most this fraction of the leading term.
_TAIL_REMAINDER = 1e-12
_RADIUS_CANDIDATES = 1000
# Gauss-Laguerre rules for the sin/cos terms on t = T + i tau / w; t^e has its
# branch point at tau = i w T, so they need w T >= 8 (3e-17 relative at 16).
_LAGUERRE = tuple(np.polynomial.laguerre.laggauss(n) for n in _RULE_NODES)
_PATH_START = 8.0
# Entries each memo keeps, least recently used dropped first: one per
# Gauss-Jacobi rule (nodes, power) and one per tail shape.
_MEMO_ENTRIES = 256


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for quadrature.

    relative_tolerance is integrate_polar's target on the sphere's polar
    angle integral; radial quadrature ignores it.  truncation_radius is
    where radial quadrature hands over to the declared tail, at least
    8 s / w out for an oscillating one; left None, integrate_radial takes
    the tail's Tail.default_radius().  A value that is not finite and > 0
    is refused with param-bound.
    """

    relative_tolerance: float = 1e-10
    truncation_radius: float | None = None

    def __post_init__(self) -> None:
        radius = self.truncation_radius
        for name, value in (("relative_tolerance", self.relative_tolerance),
                            ("truncation_radius", 1.0 if radius is None else radius)):
            if not (math.isfinite(value) and value > 0):
                raise ValidationError("param-bound", f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class HermitianEig:
    """Spectral data of a Hermitian matrix.

    eigenvalues are real and sorted descending; eigenvectors holds the
    matching eigenvectors as columns, orthonormal to rounding.  Those of a
    series factor (factor_eig) are orthonormal only to about 1e-16 / lambda
    where lambda is below about 1e-8, and are zero where lambda <= 0.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class RadialIntegral(NamedTuple):
    """Result of integrate_radial.

    value includes the tail beyond the hand-over radius; error is the
    full budget.  tail is the declared tail's integral beyond that radius,
    and tail_error its share of the budget (the path rule's 32- vs 20-node
    difference, rounding and the integrated remainder bound).
    """

    value: float
    error: float
    tail: float
    tail_error: float


@dataclass(frozen=True)
class Tail:
    """Declared large-r behaviour of a radial function h(r) = amplitude * H(r / scale).

    scale is the length scale s on which h varies; it sizes the
    quadrature panels.  H is declared at unit scale, in t = r / s:

    kind "gaussian": H(t) = exp(-t^2) exactly.

    kind "power": with w = frequency, for every t > 0,

        H(t) = sum_j t^-(order + j) (smooth[j] + sine[j] sin(w t)
                                     + cosine[j] cos(w t)) + E(t),
        |E(t)| <= sum_j bound[j] t^-(order + j).

    The four sequences hold one entry per power j = 0, 1, ...
    """

    kind: str
    scale: float
    amplitude: float = 1.0
    order: float = 0.0
    frequency: float = 0.0
    smooth: tuple[float, ...] = ()
    sine: tuple[float, ...] = ()
    cosine: tuple[float, ...] = ()
    bound: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for name in ("order", "frequency"):  # floats and float tuples: a Tail is hashable
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("smooth", "sine", "cosine", "bound"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if self.kind not in ("gaussian", "power"):
            raise ValidationError("param-bound", f"unknown tail kind {self.kind!r}")
        if not self.scale > 0:
            raise ValidationError("param-bound", "the tail's length scale must be > 0")
        if not len(self.smooth) == len(self.sine) == len(self.cosine) == len(self.bound):
            raise ValidationError("param-bound",
                                  "smooth, sine, cosine and bound need one entry per power")
        terms = self.smooth + self.sine + self.cosine + self.bound
        if not all(map(math.isfinite, (self.order, self.frequency, *terms))):
            raise ValidationError("param-bound",
                                  "the tail's order, frequency, terms and bounds must be finite")
        if self.kind == "power" and not any(terms):
            raise ValidationError("param-bound", "a power tail needs a nonzero term or bound")
        if any(b < 0 for b in self.bound):
            raise ValidationError("param-bound", "remainder bounds must be >= 0")
        if any(self.sine + self.cosine) and not self.frequency > 0:
            raise ValidationError("param-bound", "sin/cos terms need a frequency > 0")

    def rescaled(self, factor: float, dilation: float = 1.0) -> "Tail":
        """The tail of factor * h(r / dilation)."""
        return replace(self, amplitude=factor * self.amplitude, scale=dilation * self.scale)

    def converges(self, power: float) -> bool:
        """Whether r^power h(r) is integrable at infinity."""
        return self.kind == "gaussian" or power - self.order < -1.0

    def _magnitudes(self, r: float) -> np.ndarray:
        """The size at t = r / scale of each power's terms and remainder
        bound, relative to t^-order, for the powers that carry any."""
        powers = (r / self.scale) ** -np.arange(len(self.smooth), dtype=float)
        sizes = powers * (np.abs([self.smooth, self.sine, self.cosine]).sum(axis=0) + self.bound)
        return sizes[sizes > 0]

    def asymptotic_at(self, r: float) -> bool:
        """Whether the declared series decreases from power to power at r;
        a term that overflows there does not."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.kind == "gaussian" or bool(np.all(np.diff(self._magnitudes(r)) < 0))

    def default_radius(self) -> float:
        """A truncation radius chosen from the declared terms.

        The first panel edge, at least one panel past the origin cell,
        where the terms decrease and the remainder bound is at most 1e-12
        of the leading term: 8 s for an exact tail, 26 s for jinc.  It is
        s times the unit-scale radius, which depends only on the tail's
        shape and is found once per shape (_unit_radius).
        """
        return self.scale * _unit_radius(self.kind, self.order, self.frequency, self.smooth,
                                         self.sine, self.cosine, self.bound)


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _unit_radius(kind: str, *shape) -> float:
    """Tail.default_radius of the tail of this kind and shape (order,
    frequency, smooth, sine, cosine, bound) at unit scale and amplitude."""
    unit = Tail(kind, 1.0, 1.0, *shape)
    edges = _ORIGIN_CELL + _GL_PANEL * np.arange(1, _RADIUS_CANDIDATES + 1)
    if unit.kind == "gaussian":
        return float(edges[0])
    for t in edges.tolist():
        remainder = float(np.dot(unit.bound, t ** -np.arange(len(unit.bound), dtype=float)))
        if unit.asymptotic_at(t) and remainder <= _TAIL_REMAINDER * unit._magnitudes(t)[0]:
            return t
    raise QuadratureError("the declared tail never becomes asymptotic within "
                          f"{_ORIGIN_CELL + _GL_PANEL * _RADIUS_CANDIDATES:g} length scales")


def gegenbauer_series(coeffs, lam: float, t) -> np.ndarray:
    """sum_ell coeffs[ell] R_ell(t) over the normalized Gegenbauer values
    R_ell(t) = C_ell(t)/C_ell(1), in the shape of t.

    R_ell comes from the normalized recurrence R_ell = (2t(ell+lam-1)
    R_{ell-1} - (ell-1) R_{ell-2}) / (ell + 2 lam - 1), which is stable
    (|R_ell| <= 1) and degenerates to the Chebyshev recurrence in the lam
    -> 0 limit: on the circle R_ell(t) = cos(ell arccos t).  Each term is
    added as its degree is reached, and the two live degrees are updated
    in place, so the work holds four arrays of t's shape at any degree.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValidationError("param-bound", "coeffs must be a nonempty vector")
    t = np.asarray(t, dtype=float)
    out = np.full(t.shape, c[0])
    if c.size == 1:
        return out
    prev, cur, tmp = np.ones(t.shape), t.copy(), np.empty(t.shape)
    out += np.multiply(cur, c[1], out=tmp)
    for l in range(2, c.size):
        np.multiply(t, 2.0 * (l + lam - 1.0), out=tmp)  # rounds as 2t * (l+lam-1) would
        tmp *= cur
        prev *= l - 1.0
        tmp -= prev
        tmp /= l + 2.0 * lam - 1.0
        prev, cur, tmp = cur, tmp, prev
        out += np.multiply(cur, c[l], out=tmp)
    return out


def hermitian_eig(K) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    finite_dpp.validate checks and symmetrizes K first; this does not.
    A real symmetric input stays real, so its eigenvectors are real too.
    """
    w, V = np.linalg.eigh(K)
    return HermitianEig(eigenvalues=w[::-1].copy(), eigenvectors=V[:, ::-1].copy())


def factor_eig(phi) -> HermitianEig:
    """Eigendecomposition of phi phi* for an (n, m) factor phi, m < n,
    without forming phi phi*: the m eigenpairs of its range, eigenvalues
    descending; the rest of the spectrum is 0.

    One eigh of the m x m dual phi* phi = W diag(w) W* gives V = phi W /
    sqrt(w) where w > 0, and zero columns where w <= 0 (the dual
    representation: Kulesza and Taskar, Determinantal Point Processes for
    Machine Learning, 2012, section 3.3).  w matches the squared singular
    values of phi, and V diag(w) V* matches phi phi*, to rounding, but a
    column with w below about 1e-8 is orthonormal only to about 1e-16 / w,
    where an SVD's are orthonormal at every w.  A spectral sampler keeps
    column j with probability w_j, independently, so what can reach a draw
    is the keep-weighted defect sum_j w_j |D_jj| + sum_(j != k) w_j w_k
    |D_jk| of D = V* V - I: 4.6e-12 on a 64 x 64 Ginibre grid of [-12, 12]^2.
    """
    w, W = np.linalg.eigh(phi.conj().T @ phi)
    w, W = w[::-1].copy(), W[:, ::-1]
    V = (phi @ W) / np.sqrt(np.where(w > 0, w, np.inf))  # a zero column where w <= 0
    return HermitianEig(eigenvalues=w, eigenvectors=V)


def circulant_eig(table) -> HermitianEig:
    """Eigendecomposition of the real block-circulant matrix M with
    M[(i, a), (j, b)] = table[i, j, (b - a) mod N] at row i N + a, for an
    (R, R, N) table even in its last axis and symmetric in i and j (the
    rounding off either is dropped).

    The real part of the DFT over the last axis gives the N // 2 + 1 real
    symmetric R x R blocks B_k = sum_d table[:, :, d] cos(2 pi k d / N),
    decomposed by one batched eigh.  It is taken as one product with a
    cosine table, not by an FFT, whose plan state would stay resident.  An
    eigenvector x of B_k gives the eigenvectors x (x) cos(2 pi k b / N) and,
    for 0 < k < N / 2, x (x) sin(2 pi k b / N), those of modes k and N - k.
    Eigenvalues come descending, exact ties in a fixed order (a stable
    sort), and the columns are written straight into one (R N, R N) array
    in that order.  Modes k and N - k tie exactly, so within such a pair the
    basis, and with it a seeded sample stream, differs from a dense eigh's,
    while the law is the same.
    """
    R, N = table.shape[0], table.shape[2]
    k = np.arange(N // 2 + 1)
    phase = (2.0 * math.pi / N) * (np.outer(k, np.arange(N)) % N)
    cos, sin = np.cos(phase), np.sin(phase)
    B = np.moveaxis(table @ cos.T, 2, 0)
    w, X = np.linalg.eigh(0.5 * (B + B.transpose(0, 2, 1)))
    single = (k == 0) | (2 * k == N)
    # one entry per eigenvector: its block, its column there (eigh's are
    # ascending, so the last comes first), and whether it takes the sine
    block = np.concatenate([np.repeat(k, R), np.repeat(k[~single], R)])
    col = np.tile(np.arange(R - 1, -1, -1), block.size // R)
    sine = np.arange(block.size) >= k.size * R
    lam = w[block, col]
    order = np.argsort(-lam, kind="stable")
    block, col, sine = block[order], col[order], sine[order]
    modes = np.where(sine[:, None], sin[block], cos[block])
    modes *= np.where(single[block], math.sqrt(1.0 / N), math.sqrt(2.0 / N))[:, None]
    V = np.empty((R * N, block.size))
    np.multiply(X[block, :, col].T[:, None, :], modes.T[None, :, :], out=V.reshape(R, N, -1))
    return HermitianEig(eigenvalues=lam[order], eigenvectors=V)


def _reflection_blocks(table) -> tuple[np.ndarray, np.ndarray]:
    """reflection_eig's (2^d, c^d, c^d) blocks, padded, and the (2^d, c^d)
    mask of their dropped indices."""
    d, R = table.ndim, table.shape[0]
    c = (R + 1) // 2
    p = np.arange(c)
    near, far = np.abs(p[:, None] - p), np.abs(p[:, None] + p - (R - 1))
    middle = 2 * p == R - 1
    s_even, s_odd = np.where(middle, math.sqrt(0.5), 1.0), np.where(middle, 0.0, 1.0)
    # block b is odd along axis k when bit k of b is set; B is laid out
    # (block, p_1, q_1, ..., p_d, q_d), and kept[b] is 0 where an index is dropped
    B, kept = table[None], np.ones((1, 1))
    for axis in range(1, 2 * d, 2):
        t_near, t_far = np.take(B, near, axis=axis), np.take(B, far, axis=axis)
        trail = (1,) * (t_near.ndim - axis - 2)
        B = np.concatenate([(t_near + t_far) * np.outer(s_even, s_even).reshape(c, c, *trail),
                            (t_near - t_far) * np.outer(s_odd, s_odd).reshape(c, c, *trail)])
        kept = np.concatenate([np.kron(kept, s_even), np.kron(kept, s_odd)])
    m = c ** d
    B = B.transpose(0, *range(1, 2 * d, 2), *range(2, 2 * d + 1, 2)).reshape(2 ** d, m, m)
    dropped = kept == 0.0
    if dropped.any():
        reach = float(np.abs(B).sum(axis=-1).max())
        diag = np.arange(m)
        B[:, diag, diag] = np.where(dropped, -2.0 * reach if reach > 0.0 else -1.0,
                                    B[:, diag, diag])
    return B, dropped


def reflection_eig(table) -> HermitianEig:
    """Eigendecomposition of the real symmetric R^d x R^d matrix M with
    M[i, j] = table[|i_1 - j_1|, ..., |i_d - j_d|] for multi-indices i, j in
    {0, ..., R - 1}^d, rows in C order, from the (R,) * d table (a stationary
    kernel even in each axis on a uniform grid).

    M commutes with reversing any axis, i_k -> R - 1 - i_k, so it splits into
    2^d blocks on the vectors even or odd under each reversal (Cantoni &
    Butler 1976).  Along one axis, for p, q < c = ceil(R / 2), the even block
    is t(|p - q|) + t(|p + q - R + 1|) and the odd one their difference.
    When R is odd the middle index is its own mirror: its even basis vector
    is the unit vector there (a 1/sqrt 2 on its row and column) and its odd
    one vanishes, so that row and column of the odd block are dropped.  The
    blocks are padded to c^d and decomposed by one batched eigh.  A dropped
    index gets the diagonal -2 g, with g the largest absolute row sum of the
    blocks (-1 when they vanish): below every eigenvalue of its block by
    Gershgorin's theorem, so its eigenpair comes first there and is
    discarded, yet within twice the blocks' norm, so eigh's rounding stays
    at their scale.  Eigenvalues come descending, exact ties in a fixed
    order (a stable sort), and the block eigenvectors are unfolded into one
    (R^d, R^d) array in that order.

    On a square table (d = 2, symmetric in its two axes, as for jinc on a
    square grid) the block odd along the first axis only and the one odd
    along the second only are the same matrix with the two axes' indices
    swapped, but each is decomposed on its own, so their shared
    eigenvalues tie only to rounding.  The order of such near-ties, and with it a seeded sample
    stream, can differ from a dense eigh's and between BLAS builds or
    thread counts, while the law is the same.
    """
    d, R = table.ndim, table.shape[0]
    c = (R + 1) // 2
    n, m = R ** d, c ** d
    B, dropped = _reflection_blocks(table)
    w, X = np.linalg.eigh(B)
    del B  # freed before V is built: 32 MiB of the peak at 64 x 64 cells
    # one entry per kept eigenvector: its block and its column there (eigh's
    # are ascending, so the last comes first)
    skip = dropped.sum(axis=1)
    block = np.repeat(np.arange(2 ** d), m - skip)
    col = np.concatenate([np.arange(m - 1, k - 1, -1) for k in skip])
    lam = w[block, col]
    order = np.argsort(-lam, kind="stable")
    block, col = block[order], col[order]
    # row i of M takes the block row of its folded index, times one weight
    # per axis: 1/sqrt 2, negated above the middle of an odd axis; the
    # middle itself 1 on an even axis and 0 on an odd one
    i = np.arange(R)
    fold = np.minimum(i, R - 1 - i)
    w_even = np.where(i == R - 1 - i, 1.0, math.sqrt(0.5))
    w_odd = np.where(i == R - 1 - i, 0.0, np.where(i < R - 1 - i, 1.0, -1.0) * math.sqrt(0.5))
    folded = np.zeros(1, dtype=int)
    for _ in range(d):
        folded = (folded[:, None] * c + fold).ravel()
    V = X[block, folded[:, None], col]  # V[i, j] = X[block[j], folded[i], col[j]], one gather
    del X
    grid = V.reshape((R,) * d + (n,))
    for k in range(d):
        weight = np.where((block >> k & 1)[:, None] == 1, w_odd, w_even).T
        grid *= weight.reshape((1,) * k + (R,) + (1,) * (d - 1 - k) + (n,))
    return HermitianEig(eigenvalues=lam[order], eigenvectors=V)


def _rule_pair(f, rules):
    """sum_i w_i f(x_i) by the first of two (nodes, weights) rules, and its
    error: the difference to the second plus _ROUNDING * sum_i |w_i f(x_i)|."""
    (hi, hi_abs), (lo, _) = [(w @ v, w @ np.abs(v)) for x, w in rules for v in [np.asarray(f(x))]]
    return hi.item(), float(abs(hi - lo) + _ROUNDING * hi_abs)


def _gl_on_edges(edges: np.ndarray, nodes, weights) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the composite rule on the panels."""
    los, his = edges[:-1, None], edges[1:, None]
    mid, half = 0.5 * (los + his), 0.5 * (his - los)
    return (mid + half * nodes).ravel(), (half * weights).ravel()


def _panel_edges(a: float, b: float, panel: float) -> np.ndarray:
    """Panels `panel` wide over [a, b], or, where that would take more than
    _GL_MAX_PANELS, that many panels growing geometrically away from a,
    where a decaying mass sits; the 32- vs 20-node error shows the cost."""
    n = (b - a) / panel  # inf when [a, b] spans more than double precision's panels
    if n <= _GL_MAX_PANELS:
        return np.linspace(a, b, max(1, math.ceil(n)) + 1)
    edges = a - panel + np.geomspace(panel, b - a + panel, _GL_MAX_PANELS + 1)
    edges[0], edges[-1] = a, b
    return edges


def _gl_pair(f, edges: np.ndarray) -> tuple[float, float]:
    """Integral of f over the panels by the Gauss-Legendre pair, and its error."""
    return _rule_pair(f, [_gl_on_edges(edges, *rule) for rule in _LEGENDRE])


def integrate_polar(g: Callable[[np.ndarray], np.ndarray], relative_tolerance: float):
    """int_0^pi g(theta) dtheta for a smooth, vectorized g, and its error, by
    _gl_pair on 2^j equal panels: the first j = 0, 1, ... whose error (the
    32- vs 20-node difference plus 16 eps sum_i |w_i g(x_i)|) is at most
    relative_tolerance * |value|, or else j = 15 (_GL_MAX_PANELS)."""
    for level in range(_GL_MAX_PANELS.bit_length()):
        value, error = _gl_pair(g, np.linspace(0.0, math.pi, (1 << level) + 1))
        if error <= relative_tolerance * abs(value):
            break
    return value, error


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _gauss_jacobi(n: int, power: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] for the weight (1 + x)^power, read-only,
    as they are shared by every call with the same (n, power).

    Golub-Welsch: numpy's eigh of the symmetric tridiagonal Jacobi matrix
    of the Jacobi polynomials with alpha = 0, beta = power.
    scipy.special.roots_jacobi loses accuracy as power -> -1 (its 32-node
    moments are off by 1.6e-11 at -0.98); these are within about 1e-14 there.
    """
    # Python's float power (numpy's differs in the last bit)
    total = named_overflow(lambda: 2.0 ** (power + 1.0) / (power + 1.0),
                           f"the Gauss-Jacobi weight total 2^(a + 1)/(a + 1) at a = {power:g}")
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + power
    diag = np.append(power / (power + 2.0), power ** 2 / (s * (s + 2.0)))
    off = np.sqrt(4.0 * k ** 2 * (k + power) ** 2 / (s ** 2 * (s + 1.0) * (s - 1.0)))
    x, V = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = total * V[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _jacobi_cell(g, power: float, width: float) -> tuple[float, float]:
    """int_0^width r^power g(r) dr by the Gauss-Jacobi pair for that weight, and its error."""
    rules = (_gauss_jacobi(n, float(power)) for n in _RULE_NODES)  # hashable, also for a 0-d array
    hi, error = _rule_pair(g, [(0.5 * width * (1.0 + x), w) for x, w in rules])
    jac = named_overflow(lambda: (0.5 * width) ** (power + 1.0),
                         f"the Jacobi cell's (w/2)^(a + 1) at w = {width:g}, a = {power:g}")
    return jac * hi, jac * error


def _path_tail(wave, exponents, frequency: float, start: float) -> tuple[float, float]:
    """Re int_T^inf sum_j wave[j] t^e_j e^(i w t) dt, T = start, w = frequency,
    and its error: on t = T + i tau / w it is (i / w) e^(i w T) times
    int_0^inf sum_j wave[j] (T + i tau / w)^e_j e^-tau dtau, by the
    Gauss-Laguerre pair."""
    hi, error = _rule_pair(lambda tau: (start + 1j * tau[:, None] / frequency) ** exponents @ wave,
                           _LAGUERRE)
    value = (1j / frequency * np.exp(1j * frequency * start) * hi).real
    return float(value), error / frequency


def _tail_beyond(tail: Tail, power: float, radius: float) -> tuple[float, float]:
    """int_R^inf r^power h(r) dr for the declared tail h, and its error:
    A s^(power + 1) int_T^inf t^power H(t) dt with T = R / s."""
    start = radius / tail.scale
    if tail.kind == "gaussian":
        # substitute u = t^2: Gamma((a+1)/2, T^2) / 2
        half = 0.5 * (power + 1.0)
        square = named_overflow(lambda: start ** 2,
                                f"the hand-over radius squared (R/s)^2 at R/s = {start:g}")
        from scipy import special  # loaded by the first Gaussian tail, not on import
        with np.errstate(invalid="ignore"):  # inf Gamma(h) times 0 is nan, named by the final check
            value = 0.5 * float(special.gamma(half) * special.gammaincc(half, square))
        error = _ROUNDING * abs(value)
    else:
        exponents = power - tail.order - np.arange(len(tail.smooth), dtype=float)
        beyond = start ** (exponents + 1.0) / -(exponents + 1.0)  # int_T^inf t^e dt
        smooth = np.asarray(tail.smooth, dtype=float)
        value = float(smooth @ beyond)
        # power carries a rounding of eps |power| (it is often k + 1), which
        # d/de log|int_R^inf r^e dr| = log R - 1 / (e + 1) amplifies near divergence
        sensitivity = abs(math.log(radius)) + 1.0 / np.abs(exponents + 1.0)
        error = (float(np.dot(tail.bound, beyond)) + _ROUNDING * float(np.abs(smooth) @ beyond)
                 + _EPS * max(1.0, abs(power)) * float(np.abs(smooth * beyond) @ sensitivity))
        wave = np.asarray(tail.cosine, dtype=float) - 1j * np.asarray(tail.sine, dtype=float)
        if np.any(wave):
            y, e = _path_tail(wave, exponents, tail.frequency, start)
            value, error = value + y, error + e
    scale = named_overflow(lambda: tail.scale ** (power + 1.0),
                           f"the tail's scale s^(a + 1) at s = {tail.scale:g}, a = {power:g}")
    return tail.amplitude * scale * value, tail.amplitude * scale * error


def integrate_radial(g: Callable[[np.ndarray], np.ndarray], power: float, tail: Tail,
                     spec: QuadratureSpec) -> RadialIntegral:
    """int_0^inf r^power g(r) dr for a smooth, vectorized g declared by `tail`.

    With s = tail.scale and R = spec.truncation_radius or else tail.default_radius():

    * [0, min(2 s, R)] is one Gauss-Jacobi cell for the weight r^power
      (power > -1), so an integrable singularity at 0 costs nothing;
    * [2 s, R] is covered by Gauss-Legendre panels 6 s wide; an interval
      that would need more than 2**15 of them gets 2**15 panels growing
      geometrically from its left end, unless the tail oscillates;
    * [R, inf) comes from the tail in t = r / s: Gaussian by the incomplete
      Gamma function, powers in closed form, sin/cos terms by Gauss-Laguerre
      rules on t = T + i tau / w, which need w T >= 8 (so an oscillating tail,
      once checked at R, hands over at max(R, 8 s / w)), and the integrated
      remainder bound goes to the error.

    Among the shipped families only sinc (w = 2) moves an explicit R, one
    below 4 s, and its declared tail is exact; jinc's terms decrease only
    from 4.75 s on, past its 8 s / w = 2 s.  The tests hold every closed
    form they check (p_u of thinned sinc and jinc down to beta = 1e-300,
    jinc moments over k in (-2, 1), Ginibre moments over (-2, 4]) within
    the reported error.

    Refuses power <= -1 (or nan) with param-bound, before anything else.
    Raises QuadratureError when the declared exponent makes the integral
    diverge, when a power tail is not asymptotic at R (its terms do not
    decrease there, or, with R left None, at any radius default_radius
    tries), and when an oscillating tail would need the growing panels,
    which alias its sin/cos terms; OverflowError when it is not finite.
    """
    if not power > -1.0:
        raise ValidationError("param-bound", f"the weight r^power needs power > -1, got {power}")
    R = float(spec.truncation_radius or tail.default_radius())
    if not tail.converges(power):
        raise QuadratureError(
            f"the integrand decays like r^({power - tail.order:g}) by its declared "
            "tail; the integral diverges")
    if not tail.asymptotic_at(R):
        raise QuadratureError(
            f"the declared tail r^({-tail.order:g}) is not asymptotic at the "
            f"truncation radius {R:g}: its terms do not decrease there")
    s = tail.scale
    if tail.frequency > 0:
        R = max(R, _PATH_START * s / tail.frequency)
    cell = min(_ORIGIN_CELL * s, R)
    if tail.frequency > 0 and (R - cell) / (_GL_PANEL * s) > _GL_MAX_PANELS:
        raise QuadratureError(
            f"the truncation radius {R:g} needs more than {_GL_MAX_PANELS} panels of "
            f"{_GL_PANEL * s:g}; wider panels cannot resolve the declared oscillation")
    origin, origin_err = _jacobi_cell(g, power, cell)
    with np.errstate(over="ignore", invalid="ignore"):  # panels near a huge R; checked below
        edges = _panel_edges(cell, R, _GL_PANEL * s)
        core, core_err = _gl_pair(lambda r: r ** power * g(r), edges) if R > cell else (0.0, 0.0)
    beyond, beyond_err = _tail_beyond(tail, power, R)
    check_finite(origin + core + beyond + origin_err + core_err + beyond_err,
                 f"the radial integral to the truncation radius {R:g}")
    return RadialIntegral(value=origin + core + beyond,
                          error=origin_err + core_err + beyond_err,
                          tail=beyond, tail_error=beyond_err)
