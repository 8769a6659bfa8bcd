"""Ground spaces, the kernel abstraction, the reduced Palm transform, and
the repulsiveness functionals built on them.

A kernel is a Hermitian function K(u, v) over one of three concrete
ground spaces:

* finite sites {1, ..., n} with counting measure (sites are 1-based
  throughout the public API),
* Euclidean space R^d with Lebesgue measure (points are length-d arrays),
* the unit sphere S^d in R^(d+1) with surface measure (points are unit
  length-(d+1) arrays).

Kernel is a frozen record of six fields:

* space: the GroundSpace.
* gram(X, Y): the matrix [K(x_i, y_j)] for two point arrays, 1-based
  sites of shape (m,) on finite spaces, points of shape (m, d) or
  (m, d + 1) otherwise; evaluate and diagonal call it on one point each.
* radial_abs_sq: vectorized r -> |K(u, u + r e)|^2, set exactly when
  |K(u, v)| depends only on |u - v|; Euclidean quadrature needs it.
* k0: vectorized t -> K0(t) with K(v, w) = K0(v . w), set exactly for
  isotropic sphere kernels; sphere quadrature needs it.
* tail: a numerics.Tail declaring how radial_abs_sq behaves for large r,
  a Gaussian or Hankel-type powers of r times sin/cos with a remainder
  bound.  Radial quadrature integrates beyond its truncation radius from
  these terms, reads divergence off their exponent and sizes its panels
  by their length scale; without a tail it raises QuadratureError.
* reference: exact values declared by the family ("p_u", "norm_sq", and
  "p_u_reported" for a closed form carried but not adopted), for profile
  normalization and cross-checks; repulsiveness_p never reads them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

import numpy as np
from scipy import integrate

from .errors import ValidationError
from .numerics import QuadratureError, QuadratureSpec, Tail, integrate_radial

__all__ = [
    "GroundSpace",
    "Kernel",
    "RepulsivenessReport",
    "sphere_surface_measure",
    "check_point",
    "joint_intensity",
    "pair_correlation",
    "palm_kernel",
    "displacement_intensity",
    "palm_intensity_dominated",
    "repulsiveness_p",
]

_DIAG_EPS = 1e-12
_P_BOUND_SLACK = 1e-6


def sphere_surface_measure(d: int) -> float:
    """Total surface measure of the unit sphere S^d in R^(d+1)."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


@dataclass(frozen=True)
class GroundSpace:
    """One of the three concrete ground spaces with its implied measure."""

    kind: str  # "finite" | "euclidean" | "sphere"
    size: int  # number of sites, or the dimension d

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "euclidean", "sphere"):
            raise ValueError(f"unknown ground space kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("size/dimension must be >= 1")

    @staticmethod
    def finite(n: int) -> "GroundSpace":
        return GroundSpace("finite", n)

    @staticmethod
    def euclidean(d: int) -> "GroundSpace":
        return GroundSpace("euclidean", d)

    @staticmethod
    def sphere(d: int) -> "GroundSpace":
        return GroundSpace("sphere", d)

    @property
    def total_measure(self) -> float:
        if self.kind == "finite":
            return float(self.size)
        if self.kind == "sphere":
            return sphere_surface_measure(self.size)
        return math.inf


def check_point(space: GroundSpace, point: Any) -> Any:
    """Validate a point against its space and return a canonical form."""
    if space.kind == "finite":
        site = int(point)
        if not 1 <= site <= space.size:
            raise ValidationError("param-bound",
                                  f"site {site} outside 1..{space.size}")
        return site
    p = np.asarray(point, dtype=float)
    if space.kind == "euclidean":
        if p.shape != (space.size,):
            raise ValidationError("param-bound",
                                  f"expected a length-{space.size} point, got shape {p.shape}")
        return p
    if p.shape != (space.size + 1,):
        raise ValidationError("param-bound",
                              f"expected a length-{space.size + 1} sphere point, got shape {p.shape}")
    if abs(np.linalg.norm(p) - 1.0) > 1e-12:
        raise ValidationError("param-bound",
                              f"sphere point must be unit length, |v| = {np.linalg.norm(p)!r}")
    return p


@dataclass(frozen=True)
class Kernel:
    """A Hermitian kernel given by its batched Gram function, with the
    closed-form facts its family declares (see the module notes)."""

    space: GroundSpace
    gram: Callable[[np.ndarray, np.ndarray], np.ndarray]
    radial_abs_sq: Callable[[np.ndarray], np.ndarray] | None = None
    k0: Callable[[np.ndarray], np.ndarray] | None = None
    tail: Tail | None = None
    reference: Mapping[str, float] = field(default_factory=dict)

    def evaluate(self, u, v) -> complex:
        """K(u, v) for two single points."""
        return complex(self.gram(np.asarray([u]), np.asarray([v]))[0, 0])

    def diagonal(self, u) -> float:
        """Intensity rho(u) = K(u, u); the diagonal is real."""
        return float(np.real(self.evaluate(u, u)))


@dataclass(frozen=True)
class RepulsivenessReport:
    """p_u, the squared kernel-row norm, and a displacement density profile.

    density_profile pairs a coordinate with f_u there; the coordinate is
    a site (finite spaces), a radius (Euclidean), or a geodesic angle
    (sphere).
    """

    anchor: Any
    p_u: float
    norm_sq: float
    quadrature_error: float
    density_profile: list[tuple[float, float]]


def joint_intensity(kernel: Kernel, points: Sequence[Any]) -> float:
    """n-point joint intensity det{K(u_i, u_j)} for up to 12 points."""
    if not 1 <= len(points) <= 12:
        raise ValidationError("param-bound", "joint_intensity takes 1..12 points")
    pts = np.asarray([check_point(kernel.space, p) for p in points])
    det = complex(np.linalg.det(kernel.gram(pts, pts)))
    if abs(det.imag) > 1e-9 * (1.0 + abs(det.real)):
        raise ValidationError("non-hermitian",
                              f"Gram determinant has imaginary part {det.imag:.3e}")
    val = det.real
    if val < -1e-10:
        raise ValidationError("spectrum",
                              f"joint intensity {val:.3e} is materially negative")
    return max(val, 0.0)


def pair_correlation(kernel: Kernel, u, v) -> float:
    """Pair correlation g(u, v) = 1 - |r(u, v)|^2, with the 0/0 = 0 rule."""
    ku = kernel.diagonal(u)
    kv = kernel.diagonal(v)
    if ku <= 0.0 or kv <= 0.0:
        return 0.0
    r2 = abs(kernel.evaluate(u, v)) ** 2 / (ku * kv)
    return min(max(1.0 - r2, 0.0), 1.0 + 1e-10)


def _require_intensity(kernel: Kernel, u) -> float:
    ku = kernel.diagonal(u)
    if ku <= _DIAG_EPS:
        raise ValidationError("anchor",
                              f"kernel intensity vanishes at the anchor (K(u,u) = {ku:.3e})")
    return ku


def palm_kernel(kernel: Kernel, u) -> Kernel:
    """Reduced Palm kernel K^u(v, w) = K(v,w) - K(v,u) K(u,w) / K(u,u)."""
    u = check_point(kernel.space, u)
    ku = _require_intensity(kernel, u)

    def gram(X, Y, _base=kernel.gram, _u=np.asarray([u]), _ku=ku):
        return _base(X, Y) - _base(X, _u) @ _base(_u, Y) / _ku

    return Kernel(space=kernel.space, gram=gram)


def displacement_intensity(kernel: Kernel, u, v) -> float:
    """Intensity rho_u(v) = |K(u, v)|^2 / K(u, u) of the removed point."""
    u = check_point(kernel.space, u)
    ku = _require_intensity(kernel, u)
    return abs(kernel.evaluate(u, v)) ** 2 / ku


def palm_intensity_dominated(kernel: Kernel, u, v) -> tuple[float, float]:
    """(rho(v), rho^u(v)); the Palm intensity never exceeds the original."""
    u = check_point(kernel.space, u)
    ku = _require_intensity(kernel, u)
    rho = kernel.diagonal(v)
    rho_u = rho - abs(kernel.evaluate(v, u)) ** 2 / ku
    return rho, max(rho_u, 0.0)


def _declared_tail(kernel: Kernel) -> Tail:
    if kernel.tail is None:
        raise QuadratureError("the kernel declares no tail; radial quadrature needs its "
                              "large-r behaviour")
    return kernel.tail


def _with_radius(spec: QuadratureSpec | None, tail: Tail) -> QuadratureSpec:
    """spec, with the tail's default truncation radius unless one is set."""
    spec = spec or QuadratureSpec()
    if spec.truncation_radius is not None:
        return spec
    return replace(spec, truncation_radius=tail.default_radius())


def _profile_end(spec: QuadratureSpec | None, tail: Tail) -> float:
    """Upper end of the default f_u profile: the truncation radius, at most 10.

    Without an explicit radius, the radius is that of an earlier default
    rule, 40 s for a Gaussian tail and 400 s for a power tail, so the
    printed coordinates stay put while the quadrature's own radius is
    chosen from the declared terms.
    """
    radius = spec.truncation_radius if spec is not None else None
    if radius is None:
        radius = (40.0 if tail.kind == "gaussian" else 400.0) * tail.scale
    return min(radius, 10.0)


def repulsiveness_p(kernel: Kernel, u, spec: QuadratureSpec | None = None,
                    profile_coords: Sequence[float] | None = None) -> RepulsivenessReport:
    """Coupling probability p_u = int |K(u, v)|^2 dnu(v) / K(u, u).

    Finite spaces use the exact sum over the kernel row; Euclidean kernels
    declaring radial_abs_sq reduce to a 1-D radial integral, r^(d-1) against
    the declared tail; isotropic sphere kernels reduce to a 1-D integral
    in the polar angle.  The report carries the displacement density
    profile f_u = |K(u, .)|^2 / norm_sq on profile_coords (or a default
    grid).
    """
    space = kernel.space
    u = check_point(space, u)
    ku = _require_intensity(kernel, u)

    if space.kind == "finite":
        row = np.abs(kernel.gram(np.asarray([u]), np.arange(1, space.size + 1))[0]) ** 2
        norm_sq = float(row.sum())
        p = norm_sq / ku
        err = 0.0
        coords = profile_coords if profile_coords is not None else range(1, space.size + 1)
        profile = [(int(v), float(row[int(v) - 1] / norm_sq) if norm_sq > 0 else 0.0)
                   for v in coords]
    elif space.kind == "euclidean":
        rfn = kernel.radial_abs_sq
        if rfn is None:
            raise ValidationError(
                "param-bound",
                "repulsiveness quadrature needs a kernel with isotropic modulus; "
                "this Euclidean kernel does not declare one")
        d = space.size
        if d not in (1, 2):
            raise ValidationError("param-bound", "Euclidean quadrature supports d in {1, 2}")
        surf = 2.0 if d == 1 else 2.0 * math.pi  # measure of the unit sphere in R^d
        tail = _declared_tail(kernel)
        qspec = _with_radius(spec, tail)
        res = integrate_radial(lambda r: surf * rfn(r), d - 1.0, tail.rescaled(surf), qspec)
        norm_sq = res.value
        p = norm_sq / ku
        err = res.error / ku
        coords = (np.asarray(profile_coords, dtype=float) if profile_coords is not None
                  else np.linspace(0.0, _profile_end(spec, tail), 64))
        dens = rfn(coords) / norm_sq if norm_sq > 0 else np.zeros_like(coords)
        profile = list(zip(coords.tolist(), dens.tolist()))
    else:
        k0 = kernel.k0
        if k0 is None:
            raise ValidationError("param-bound",
                                  "sphere repulsiveness needs an isotropic kernel with a "
                                  "declared angular profile")
        d = space.size
        sigma_prev = sphere_surface_measure(d - 1) if d >= 2 else 2.0
        integrand = lambda theta: (np.asarray(k0(np.cos(theta))) ** 2
                                   * np.sin(theta) ** (d - 1))
        # k0 may return a 0-d or a 1-element array for a scalar angle
        val, qerr = integrate.quad(lambda th: float(np.ravel(integrand(th))[0]), 0.0, math.pi,
                                   epsabs=1e-14, epsrel=(spec or QuadratureSpec()).relative_tolerance,
                                   limit=200)
        norm_sq = sigma_prev * val
        p = norm_sq / ku
        err = sigma_prev * qerr / ku
        coords = (np.asarray(profile_coords, dtype=float) if profile_coords is not None
                  else np.linspace(0.0, math.pi, 64))
        dens = np.asarray(k0(np.cos(coords))) ** 2 / norm_sq if norm_sq > 0 else np.zeros_like(coords)
        profile = list(zip(coords.tolist(), dens.tolist()))

    if p > 1.0 + _P_BOUND_SLACK + err:
        raise ValidationError(
            "spectrum",
            f"p_u = {p:.8f} exceeds 1; the kernel violates the repulsiveness bound")
    return RepulsivenessReport(anchor=u, p_u=min(p, 1.0 + _P_BOUND_SLACK),
                               norm_sq=norm_sq, quadrature_error=err,
                               density_profile=profile)
