"""Shared numerical kernels.

Special functions (Gamma, Bessel J1, Gegenbauer polynomials), Hermitian
eigendecomposition and PSD matrix square roots, and quadrature of radial
mass functions on (0, inf) with a fitted power-law continuation of the
tail.  Everything here is a pure function of its inputs and safe to call
concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import integrate, special

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "HermitianEig",
    "RadialIntegral",
    "gamma_fn",
    "bessel_j1",
    "gegenbauer",
    "gegenbauer_ratio_table",
    "hermitian_eig",
    "psd_sqrt",
    "integrate_radial",
]

# Tail continuation defaults.  Windows grow geometrically past the
# truncation radius; everything up to the last window edge is integrated
# exactly, only the remainder beyond it is extrapolated.
TAIL_WINDOWS = 6
TAIL_FACTOR = 2.0
# Fitted tail exponents at or below 1 + margin are treated as divergent.
DIVERGENCE_MARGIN = 0.05

_ADAPTIVE_CHUNK = 4.0
# Gauss-Legendre panels are measured in the integrand's length scale s:
# a 20-node rule resolves |J1(2r/s)|^2, which oscillates at frequency
# 4/s, to about 3e-16 on a panel 6 s wide (about 3e-11 at 8 s).
_GL_PANEL = 6.0
_GL_GRADED = 2.0  # extent of the graded cells at the origin, halved 100 times
# An interval gets at most this many panels, so memory and time stay bounded
# when it spans many length scales (a large explicit radius on a small s).
_GL_MAX_PANELS = 1 << 15
# Each node value carries a few ulps of rounding, and so does their sum;
# this multiple of eps * sum |w_i f(x_i)| is charged to every interval.
_GL_ROUNDING = 16.0 * np.finfo(float).eps
_GL_NODES_HI, _GL_WEIGHTS_HI = np.polynomial.legendre.leggauss(32)
_GL_NODES_LO, _GL_WEIGHTS_LO = np.polynomial.legendre.leggauss(20)


class QuadratureError(RuntimeError):
    """Radial quadrature did not converge, or the integrand has a
    non-integrable (fitted exponent <= 1) tail."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for radial quadrature.

    scheme is "adaptive" (scipy QUADPACK per chunk) or "gauss-legendre"
    (fixed-order composite rule; requires a vectorized integrand).
    truncation_radius bounds the exactly-integrated core region and must
    be set before use on improper integrals.
    """

    scheme: str = "adaptive"
    relative_tolerance: float = 1e-10
    max_subdivisions: int = 400
    truncation_radius: float | None = None

    def __post_init__(self) -> None:
        if self.scheme not in ("adaptive", "gauss-legendre"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if not self.relative_tolerance > 0:
            raise ValueError("relative_tolerance must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.truncation_radius is not None and not self.truncation_radius > 0:
            raise ValueError("truncation_radius must be > 0 when given")


@dataclass(frozen=True)
class HermitianEig:
    """Spectral data of a Hermitian matrix.

    eigenvalues are real and sorted descending; eigenvectors holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class RadialIntegral(NamedTuple):
    """Result of integrate_radial.

    value includes the extrapolated tail; error is the full budget
    (quadrature error plus the uncertainty assigned to the tail).
    tail_exponent is the fitted power-law decay rate (nan when the tail
    was negligible and no fit was attempted).
    """

    value: float
    error: float
    tail: float
    tail_error: float
    tail_exponent: float


def gamma_fn(x: float) -> float:
    """Gamma function for real non-pole arguments."""
    if x <= 0 and x == math.floor(x):
        raise ValueError(f"gamma function pole at nonpositive integer x={x}")
    return math.gamma(x)


def bessel_j1(x):
    """Bessel function of the first kind, order one (scalar or array)."""
    return special.j1(x)


def gegenbauer(ell: int, lam: float, t):
    """Gegenbauer polynomial C_ell^(lam)(t) by the three-term recurrence.

    lam == 0 is the circle limit: the returned values follow the
    Chebyshev convention, so gegenbauer(ell, 0, t) == cos(ell*arccos t)
    and ratios to the value at t = 1 behave continuously in lam.
    """
    if ell < 0:
        raise ValueError("degree must be >= 0")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1 + 1e-12):
        raise ValueError("argument t must lie in [-1, 1]")
    ones = np.ones_like(t)
    if ell == 0:
        return ones if ones.ndim else 1.0
    if lam == 0.0:
        prev, cur = ones, t
        for _ in range(2, ell + 1):
            prev, cur = cur, 2.0 * t * cur - prev
    else:
        prev, cur = ones, 2.0 * lam * t
        for l in range(2, ell + 1):
            prev, cur = cur, (2.0 * t * (l + lam - 1.0) * cur
                              - (l + 2.0 * lam - 2.0) * prev) / l
    return cur if cur.ndim else float(cur)


def gegenbauer_ratio_table(l_max: int, lam: float, t) -> np.ndarray:
    """Normalized Gegenbauer values R_ell(t) = C_ell(t)/C_ell(1).

    Returns an array of shape (l_max+1,) + shape(t).  The normalized
    recurrence R_ell = (2t(ell+lam-1) R_{ell-1} - (ell-1) R_{ell-2})
    / (ell + 2 lam - 1) is stable (|R_ell| <= 1) and degenerates to the
    Chebyshev recurrence in the lam -> 0 limit, which matches the circle
    convention above.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((l_max + 1,) + t.shape)
    out[0] = 1.0
    if l_max >= 1:
        out[1] = t
    for l in range(2, l_max + 1):
        out[l] = (2.0 * t * (l + lam - 1.0) * out[l - 1]
                  - (l - 1.0) * out[l - 2]) / (l + 2.0 * lam - 1.0)
    return out


def _check_hermitian(K: np.ndarray, tol: float) -> None:
    scale = 1.0 + float(np.max(np.abs(K))) if K.size else 1.0
    resid = float(np.max(np.abs(K - K.conj().T))) if K.size else 0.0
    if resid > tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: max |K - K*| = {resid:.3e} "
            f"exceeds {tol:.1e} * (1 + max|K|)")


def _as_float_or_complex(K) -> np.ndarray:
    """K as a float64 array, or complex128 when it holds complex entries."""
    K = np.asarray(K)
    return K.astype(complex if np.iscomplexobj(K) else float, copy=False)


def hermitian_eig(K) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    A real symmetric input stays real, so its eigenvectors are real too.
    """
    K = _as_float_or_complex(K)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("expected a square matrix")
    _check_hermitian(K, 1e-9)
    w, V = np.linalg.eigh(K)
    return HermitianEig(eigenvalues=w[::-1].copy(), eigenvectors=V[:, ::-1].copy())


def psd_sqrt(K) -> np.ndarray:
    """Hermitian PSD square root S with S @ S == K.

    Eigenvalues in [-1e-6, 0) are treated as float noise and clamped to
    zero; anything below -1e-6 is rejected as materially negative.
    """
    eig = hermitian_eig(K)
    lam_min = float(eig.eigenvalues.min()) if eig.eigenvalues.size else 0.0
    if lam_min < -1e-6:
        raise ValueError(f"matrix has a materially negative eigenvalue {lam_min:.3e}")
    lam = np.clip(eig.eigenvalues, 0.0, None)
    V = eig.eigenvectors
    S = (V * np.sqrt(lam)) @ V.conj().T
    return 0.5 * (S + S.conj().T)


def _quad_chunk(f, lo: float, hi: float, spec: QuadratureSpec, limit: int):
    res = integrate.quad(f, lo, hi, epsabs=1e-14,
                         epsrel=spec.relative_tolerance, limit=limit,
                         full_output=1)
    y, abserr = res[0], res[1]
    if len(res) > 3 and abserr > 100.0 * spec.relative_tolerance * max(1.0, abs(y)):
        raise QuadratureError(
            f"adaptive quadrature failed on [{lo:g}, {hi:g}] within "
            f"{limit} subdivisions: {res[3]}")
    return y, abserr


def _gl_on_edges(f, edges: np.ndarray, nodes, weights) -> tuple[float, float]:
    """The composite rule's value on the panels, and its sum of |w_i f(x_i)|."""
    los, his = edges[:-1, None], edges[1:, None]
    mid, half = 0.5 * (los + his), 0.5 * (his - los)
    x = (mid + half * nodes).ravel()
    vals = np.asarray(f(x), dtype=float)
    w = (half * weights).ravel()
    return float(w @ vals), float(w @ np.abs(vals))


def _panel_edges(a: float, b: float, panel: float) -> np.ndarray:
    """Panels `panel` wide over [a, b], or, where that would take more than
    _GL_MAX_PANELS, that many panels growing geometrically away from a,
    where a decaying mass sits; the 32- vs 20-node error shows the cost."""
    n = max(1, math.ceil((b - a) / panel))
    if n <= _GL_MAX_PANELS:
        return np.linspace(a, b, n + 1)
    edges = a - panel + np.geomspace(panel, b - a + panel, _GL_MAX_PANELS + 1)
    edges[0], edges[-1] = a, b
    return edges


def _gl_edges(a: float, b: float, length_scale: float) -> np.ndarray:
    panel = _GL_PANEL * length_scale
    if a == 0.0:
        # graded refinement toward the origin for integrable singularities
        first = min(_GL_GRADED * length_scale, b)
        graded = first * 2.0 ** -np.arange(100, -1, -1, dtype=float)
        if first >= b:
            return np.concatenate(([0.0], graded))
        return np.concatenate(([0.0], graded, _panel_edges(first, b, panel)[1:]))
    return _panel_edges(a, b, panel)


def _integrate_interval(f, a: float, b: float, spec: QuadratureSpec, length_scale: float):
    """Integral of f over [a, b] plus an error estimate.

    The Gauss-Legendre error is the 32- vs 20-node difference plus the
    rounding term _GL_ROUNDING * sum |w_i f(x_i)| of the 32-node rule.
    """
    if b <= a:
        return 0.0, 0.0
    if spec.scheme == "gauss-legendre":
        edges = _gl_edges(a, b, length_scale)
        hi, hi_abs = _gl_on_edges(f, edges, _GL_NODES_HI, _GL_WEIGHTS_HI)
        lo, _ = _gl_on_edges(f, edges, _GL_NODES_LO, _GL_WEIGHTS_LO)
        return hi, abs(hi - lo) + _GL_ROUNDING * hi_abs
    n_chunks = max(1, math.ceil((b - a) / _ADAPTIVE_CHUNK))
    limit = max(50, math.ceil(spec.max_subdivisions / n_chunks))
    edges = np.linspace(a, b, n_chunks + 1)
    total, err = 0.0, 0.0
    for lo_e, hi_e in zip(edges[:-1], edges[1:]):
        y, e = _quad_chunk(f, float(lo_e), float(hi_e), spec, limit)
        total += y
        err += e
    return total, err


def _fit_tail(starts: np.ndarray, W: np.ndarray, q: float):
    """Fit W_j ~ c * s_j^(1-a) and continue past the last window.

    Returns (tail, exponent) where tail approximates the mass beyond the
    final window edge under the fitted power law.
    """
    x, y = np.log(starts), np.log(W)
    slope, intercept = np.polyfit(x, y, 1)
    a = 1.0 - slope
    if a <= 1.0 + DIVERGENCE_MARGIN:
        raise QuadratureError(
            f"tail mass decays like r^({-a:.3f}); the integral does not "
            "converge within the divergence margin")
    rho = q ** slope
    w_last_fit = math.exp(intercept + slope * x[-1])
    return w_last_fit * rho / (1.0 - rho), a


def integrate_radial(f: Callable[[float], float], spec: QuadratureSpec,
                     length_scale: float) -> RadialIntegral:
    """Integrate a nonnegative radial mass function over (0, inf).

    The Gauss-Legendre scheme lays panels 6 * length_scale wide, after
    graded cells toward the origin that span 2 * length_scale; an
    interval that would need more than 2**15 such panels gets 2**15
    panels growing geometrically from its left end.  Pass the length
    scale on which the integrand varies (a kernel's declared tail
    scale).  The adaptive scheme ignores it.

    The core region [0, R] (R = spec.truncation_radius) and a ladder of
    geometric windows [R, R*q^m] are integrated by quadrature; the mass
    beyond the last window is extrapolated by a power law fitted to the
    window masses, and the fit uncertainty (leave-one-out spread plus a
    2% floor) is charged to the error budget.  Raises QuadratureError
    when the fitted tail exponent indicates divergence.
    """
    if spec.truncation_radius is None:
        raise ValueError("QuadratureSpec.truncation_radius is required here")
    if not length_scale > 0:
        raise ValueError("length_scale must be > 0")
    R = float(spec.truncation_radius)

    core, core_err = _integrate_interval(f, 0.0, R, spec, length_scale)

    q, m = TAIL_FACTOR, TAIL_WINDOWS
    edges = R * q ** np.arange(m + 1, dtype=float)
    W = np.empty(m)
    w_err = 0.0
    for j in range(m):
        W[j], e = _integrate_interval(f, float(edges[j]), float(edges[j + 1]), spec,
                                        length_scale)
        w_err += e
    windows = float(W.sum())
    scale = abs(core) + abs(windows)

    if np.any(W <= 0.0):
        # signed/compact tail: no power-law model; bound by the last window
        tail, tail_err, a_fit = 0.0, 2.0 * abs(W[-1]) + w_err, math.nan
    elif W[-1] <= max(1e-300, 1e-16 * scale):
        tail, tail_err, a_fit = 0.0, float(W[-1]) + w_err, math.nan
    else:
        starts = edges[:-1]
        tail, a_fit = _fit_tail(starts, W, q)
        t_drop_first, _ = _fit_tail(starts[1:], W[1:], q)
        # the drop-last fit continues from one window earlier, so the
        # actual last window must come off before comparing
        t_drop_last, _ = _fit_tail(starts[:-1], W[:-1], q)
        t_drop_last -= float(W[-1])
        spread = max(abs(tail - t_drop_first), abs(tail - t_drop_last))
        tail_err = 2.0 * spread + 0.02 * tail + w_err

    value = core + windows + tail
    return RadialIntegral(value=value, error=core_err + w_err + tail_err,
                          tail=tail, tail_error=tail_err, tail_exponent=a_fit)
