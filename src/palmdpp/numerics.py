"""Shared numerical kernels.

Normalized Gegenbauer polynomials, Hermitian eigendecomposition (of a
matrix, or of phi phi* from a thin factor phi), and quadrature of radial
integrals on (0, inf) against a declared asymptotic tail.

integrate_radial computes int_0^inf r^a g(r) dr for a smooth g whose
large-r behaviour is a declared Tail: a Gaussian, or an expansion in
negative powers of r, possibly times sin/cos of a fixed frequency, with a
bound on its remainder.  Near the origin a Gauss-Jacobi rule carries the
weight r^a; Gauss-Legendre panels in the tail's length scale cover the
core up to the truncation radius; beyond it the declared terms are
integrated in closed form (powers of r, or the incomplete Gamma function
for a Gaussian) and by QUADPACK's Fourier-weight rule (QAWF) for the
oscillating terms.  The error budget adds the 32- vs 20-node differences,
a rounding term, QUADPACK's reported error, and the integral of the
declared remainder bound.  Whether the integral converges is read off the
declared exponent, never fitted.  Everything here is a pure function of
its inputs and safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import integrate, linalg, special

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "HermitianEig",
    "RadialIntegral",
    "Tail",
    "gegenbauer_ratio_table",
    "factor_eig",
    "hermitian_eig",
    "integrate_radial",
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
_GL_ROUNDING = 16.0 * _EPS
_GL_NODES_HI, _GL_WEIGHTS_HI = np.polynomial.legendre.leggauss(32)
_GL_NODES_LO, _GL_WEIGHTS_LO = np.polynomial.legendre.leggauss(20)
# The default truncation radius is the first panel edge where the declared
# remainder bound is at most this fraction of the leading term.
_TAIL_REMAINDER = 1e-12
_RADIUS_CANDIDATES = 1000
# QAWF's absolute tolerance, relative to the magnitude of the tail integral.
_QAWF_TOLERANCE = 1e-14


class QuadratureError(RuntimeError):
    """Radial quadrature cannot give a result: the integral diverges, or
    the declared tail is not asymptotic at the truncation radius."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for quadrature.

    relative_tolerance is QUADPACK's target on the sphere's polar-angle
    integral.  truncation_radius is where radial quadrature hands over to
    the declared tail; integrate_radial needs it set (callers default it
    to Tail.default_radius()).
    """

    relative_tolerance: float = 1e-10
    truncation_radius: float | None = None

    def __post_init__(self) -> None:
        if not self.relative_tolerance > 0:
            raise ValueError("relative_tolerance must be > 0")
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

    value includes the tail beyond the truncation radius; error is the
    full budget.  tail is the declared tail's integral beyond the radius,
    and tail_error its share of the budget (QUADPACK's error, rounding
    and the integrated remainder bound).
    """

    value: float
    error: float
    tail: float
    tail_error: float


@dataclass(frozen=True)
class Tail:
    """Declared large-r behaviour of a radial function h(r).

    scale is the length scale s on which h varies; it sizes the
    quadrature panels.

    kind "gaussian": h(r) = amplitude * exp(-(r / s)^2) exactly.

    kind "power": with w = frequency, for every r > 0,

        h(r) = sum_j r^-(order + j) (smooth[j] + sine[j] sin(w r)
                                     + cosine[j] cos(w r)) + E(r),
        |E(r)| <= sum_j bound[j] r^-(order + j).

    The four sequences hold one entry per power j = 0, 1, ...
    """

    kind: str
    scale: float
    amplitude: float = 0.0
    order: float = 0.0
    frequency: float = 0.0
    smooth: tuple[float, ...] = ()
    sine: tuple[float, ...] = ()
    cosine: tuple[float, ...] = ()
    bound: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "power"):
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if not self.scale > 0:
            raise ValueError("the tail's length scale must be > 0")
        if not len(self.smooth) == len(self.sine) == len(self.cosine) == len(self.bound):
            raise ValueError("smooth, sine, cosine and bound need one entry per power")
        if any(b < 0 for b in self.bound):
            raise ValueError("remainder bounds must be >= 0")

    def rescaled(self, factor: float, dilation: float = 1.0) -> "Tail":
        """The tail of factor * h(r / dilation)."""
        if self.kind == "gaussian":
            return Tail("gaussian", self.scale * dilation, amplitude=factor * self.amplitude)
        powers = dilation ** (self.order + np.arange(len(self.smooth)))
        times = lambda seq: tuple((factor * powers * np.asarray(seq, dtype=float)).tolist())
        return Tail("power", self.scale * dilation, order=self.order,
                    frequency=self.frequency / dilation, smooth=times(self.smooth),
                    sine=times(self.sine), cosine=times(self.cosine),
                    bound=times(self.bound))

    def converges(self, power: float) -> bool:
        """Whether r^power h(r) is integrable at infinity."""
        return self.kind == "gaussian" or power - self.order < -1.0

    def _magnitudes(self, r: float) -> np.ndarray:
        """The size at r of each power's terms and remainder bound,
        relative to r^-order, for the powers that carry any."""
        sizes = ((np.abs(self.smooth) + np.abs(self.sine) + np.abs(self.cosine)
                  + np.asarray(self.bound)) * r ** -np.arange(len(self.smooth), dtype=float))
        return sizes[sizes > 0]

    def asymptotic_at(self, r: float) -> bool:
        """Whether the declared series decreases from power to power at r."""
        return self.kind == "gaussian" or bool(np.all(np.diff(self._magnitudes(r)) < 0))

    def default_radius(self) -> float:
        """A truncation radius chosen from the declared terms.

        The first panel edge, at least one panel past the origin cell,
        where the terms decrease and the remainder bound is at most 1e-12
        of the leading term: 8 s for an exact tail, 26 s for jinc.
        """
        edges = self.scale * (_ORIGIN_CELL + _GL_PANEL * np.arange(1, _RADIUS_CANDIDATES + 1))
        if self.kind == "gaussian":
            return float(edges[0])
        for r in edges.tolist():
            remainder = float(np.dot(self.bound, r ** -np.arange(len(self.bound), dtype=float)))
            if self.asymptotic_at(r) and remainder <= _TAIL_REMAINDER * self._magnitudes(r)[0]:
                return r
        raise QuadratureError("the declared tail never becomes asymptotic within "
                              f"{_ORIGIN_CELL + _GL_PANEL * _RADIUS_CANDIDATES:g} length scales")


def gegenbauer_ratio_table(l_max: int, lam: float, t) -> np.ndarray:
    """Normalized Gegenbauer values R_ell(t) = C_ell(t)/C_ell(1).

    Returns an array of shape (l_max+1,) + shape(t).  The normalized
    recurrence R_ell = (2t(ell+lam-1) R_{ell-1} - (ell-1) R_{ell-2})
    / (ell + 2 lam - 1) is stable (|R_ell| <= 1) and degenerates to the
    Chebyshev recurrence in the lam -> 0 limit: on the circle R_ell(t) =
    cos(ell arccos t).
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


def hermitian_eig(K) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    finite_dpp.validate checks and symmetrizes K first; this does not.
    A real symmetric input stays real, so its eigenvectors are real too.
    """
    w, V = np.linalg.eigh(K)
    return HermitianEig(eigenvalues=w[::-1].copy(), eigenvectors=V[:, ::-1].copy())


def factor_eig(phi) -> HermitianEig:
    """Eigendecomposition of phi phi* from a thin SVD of the (n, m) factor
    phi, m < n, without forming phi phi*: the m eigenpairs of its range,
    eigenvalues descending; the rest of the spectrum is 0.
    """
    U, s, _ = np.linalg.svd(phi, full_matrices=False)
    return HermitianEig(eigenvalues=s ** 2, eigenvectors=U)


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


def _integrate_interval(f, a: float, b: float, length_scale: float):
    """Integral of f over [a, b] by Gauss-Legendre panels, plus its error:
    the 32- vs 20-node difference and _GL_ROUNDING * sum |w_i f(x_i)|."""
    if b <= a:
        return 0.0, 0.0
    edges = _panel_edges(a, b, _GL_PANEL * length_scale)
    hi, hi_abs = _gl_on_edges(f, edges, _GL_NODES_HI, _GL_WEIGHTS_HI)
    lo, _ = _gl_on_edges(f, edges, _GL_NODES_LO, _GL_WEIGHTS_LO)
    return hi, abs(hi - lo) + _GL_ROUNDING * hi_abs


def _gauss_jacobi(n: int, power: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] for the weight (1 + x)^power.

    Golub-Welsch on the Jacobi matrix of the Jacobi polynomials with
    alpha = 0, beta = power.  scipy.special.roots_jacobi loses accuracy
    as power -> -1 (its 32-node moments are off by 1.6e-11 at -0.98);
    these are within about 1e-14 there.
    """
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + power
    diag = np.append(power / (power + 2.0), power ** 2 / (s * (s + 2.0)))
    off = np.sqrt(4.0 * k ** 2 * (k + power) ** 2 / (s ** 2 * (s + 1.0) * (s - 1.0)))
    x, V = linalg.eigh_tridiagonal(diag, off)
    return x, 2.0 ** (power + 1.0) / (power + 1.0) * V[0] ** 2


def _jacobi_cell(g, power: float, width: float) -> tuple[float, float]:
    """int_0^width r^power g(r) dr by Gauss-Jacobi rules for that weight,
    with the 32- vs 20-node difference and the rounding term as error."""
    total = []
    for n in (32, 20):
        x, w = _gauss_jacobi(n, power)
        vals = np.asarray(g(0.5 * width * (1.0 + x)), dtype=float)
        total.append((float(w @ vals), float(w @ np.abs(vals))))
    jac = (0.5 * width) ** (power + 1.0)
    (hi, hi_abs), (lo, _) = total
    return jac * hi, jac * (abs(hi - lo) + _GL_ROUNDING * hi_abs)


def _fourier_tail(coefs: np.ndarray, lead: float, weight: str, frequency: float,
                  radius: float, tolerance: float) -> tuple[float, float]:
    """int_R^inf r^lead sum_j coefs[j] r^-j * sin|cos(frequency r) dr by QAWF."""
    reversed_coefs = np.trim_zeros(coefs, "b")[::-1].tolist()

    def amplitude(r: float) -> float:
        y, acc = 1.0 / r, 0.0
        for c in reversed_coefs:
            acc = acc * y + c
        return acc * r ** lead

    res = integrate.quad(amplitude, radius, np.inf, weight=weight, wvar=frequency,
                         epsabs=tolerance, full_output=1)
    return res[0], res[1]


def _tail_beyond(tail: Tail, power: float, radius: float) -> tuple[float, float]:
    """int_R^inf r^power h(r) dr for the declared tail h, and its error."""
    if tail.kind == "gaussian":
        # substitute t = (r / s)^2: (A s^(a+1) / 2) Gamma((a+1)/2, R^2 / s^2)
        half = 0.5 * (power + 1.0)
        value = (0.5 * tail.amplitude * tail.scale ** (power + 1.0) * special.gamma(half)
                 * special.gammaincc(half, (radius / tail.scale) ** 2))
        return float(value), _GL_ROUNDING * abs(float(value))
    exponents = power - tail.order - np.arange(len(tail.smooth), dtype=float)
    beyond = radius ** (exponents + 1.0) / -(exponents + 1.0)  # int_R^inf r^e dr
    smooth = np.asarray(tail.smooth, dtype=float)
    value = float(smooth @ beyond)
    # power carries a rounding of eps |power| (it is often k + 1), which
    # d/de log|int_R^inf r^e dr| = log R - 1 / (e + 1) amplifies near divergence
    sensitivity = abs(math.log(radius)) + 1.0 / np.abs(exponents + 1.0)
    error = (float(np.dot(tail.bound, beyond)) + _GL_ROUNDING * float(np.abs(smooth) @ beyond)
             + _EPS * max(1.0, abs(power)) * float(np.abs(smooth * beyond) @ sensitivity))
    tolerance = _QAWF_TOLERANCE * max(abs(value), float(np.abs(tail.sine) @ beyond),
                                      float(np.abs(tail.cosine) @ beyond))
    for weight, coefs in (("sin", tail.sine), ("cos", tail.cosine)):
        coefs = np.asarray(coefs, dtype=float)
        if np.any(coefs):
            y, e = _fourier_tail(coefs, float(exponents[0]), weight, tail.frequency,
                                 radius, tolerance)
            value += y
            error += e + _GL_ROUNDING * abs(y)
    return value, error


def integrate_radial(g: Callable[[np.ndarray], np.ndarray], power: float, tail: Tail,
                     spec: QuadratureSpec) -> RadialIntegral:
    """int_0^inf r^power g(r) dr for a smooth, vectorized g declared by `tail`.

    With s = tail.scale and R = spec.truncation_radius (required):

    * [0, min(2 s, R)] is one Gauss-Jacobi cell for the weight r^power
      (power > -1), so an integrable singularity at 0 costs nothing;
    * [2 s, R] is covered by Gauss-Legendre panels 6 s wide; an interval
      that would need more than 2**15 of them gets 2**15 panels growing
      geometrically from its left end, unless the tail oscillates;
    * [R, inf) comes from the tail: Gaussian by the incomplete Gamma
      function, powers of r in closed form, sin/cos terms by QAWF, and
      the integrated remainder bound goes to the error.

    Raises QuadratureError when the declared exponent makes the integral
    diverge, when a power tail is not asymptotic at R (its terms do not
    decrease there), and when an oscillating tail would need the growing
    panels, which alias its sin/cos terms; OverflowError when it is not finite.
    """
    if spec.truncation_radius is None:
        raise ValueError("QuadratureSpec.truncation_radius is required here")
    if not power > -1.0:
        raise ValueError("the weight r^power needs power > -1")
    if not tail.converges(power):
        raise QuadratureError(
            f"the integrand decays like r^({power - tail.order:g}) by its declared "
            "tail; the integral diverges")
    R = float(spec.truncation_radius)
    if not tail.asymptotic_at(R):
        raise QuadratureError(
            f"the declared tail r^({-tail.order:g}) is not asymptotic at the "
            f"truncation radius {R:g}: its terms do not decrease there")
    s = tail.scale
    cell = min(_ORIGIN_CELL * s, R)
    if tail.frequency > 0 and math.ceil((R - cell) / (_GL_PANEL * s)) > _GL_MAX_PANELS:
        raise QuadratureError(
            f"the truncation radius {R:g} needs more than {_GL_MAX_PANELS} panels of "
            f"{_GL_PANEL * s:g}; wider panels cannot resolve the declared oscillation")
    origin, origin_err = _jacobi_cell(g, power, cell)
    with np.errstate(over="ignore", invalid="ignore"):  # panels near a huge R; checked below
        core, core_err = _integrate_interval(lambda r: r ** power * g(r), cell, R, s)
    beyond, beyond_err = _tail_beyond(tail, power, R)
    if not math.isfinite(origin + core + beyond + origin_err + core_err + beyond_err):
        raise OverflowError(f"the radial integral to the truncation radius {R:g} is not finite")
    return RadialIntegral(value=origin + core + beyond,
                          error=origin_err + core_err + beyond_err,
                          tail=beyond, tail_error=beyond_err)
