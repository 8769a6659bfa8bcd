"""Ground spaces, the kernel abstraction, the reduced Palm transform, and
the repulsiveness functionals built on them.

A kernel is a Hermitian function K(u, v) over one of three concrete
ground spaces, sized by an integer n or d (errors.check_count):

* finite sites {1, ..., n} with counting measure (sites are 1-based
  integers throughout the public API),
* Euclidean space R^d with Lebesgue measure (points are length-d arrays),
* the unit sphere S^d in R^(d+1) with surface measure (points are unit
  length-(d+1) arrays).

Kernel is a frozen record of ten fields.  Each callable closes over its
family's parameters and takes only its own arguments.

* space: the GroundSpace.
* gram(X, Y): the matrix [K(x_i, y_j)] for two point arrays, 1-based
  sites of shape (m,) on finite spaces, points of shape (m, d) or
  (m, d + 1) otherwise; evaluate and diagonal call it on one point each.
* radial: vectorized r -> k(r), real, set exactly for stationary isotropic
  Euclidean kernels, K(v, w) = k(|v - w|) (sinc, jinc and their thinned
  forms; gram keeps its own closure).  Grid discretization reads it to
  decompose a grid's matrix from its reflection blocks, from k at the
  R^d index differences; kernels without it, such as palm_kernel's, take
  the dense route.
* radial_abs_sq: vectorized r -> |K(u, u + r e)|^2, set exactly when
  |K(u, v)| depends only on |u - v|; Euclidean quadrature needs it.
* k0: vectorized t -> K0(t) with K(v, w) = K0(v . w), set exactly for
  isotropic sphere kernels; sphere quadrature needs it, and grid
  discretization reads it to decompose a sphere grid's block-circulant
  matrix from its Fourier blocks (kernels without it, such as
  palm_kernel's, take the dense route).
* tail: a numerics.Tail declaring how radial_abs_sq behaves for large r,
  a Gaussian or Hankel-type powers of r times sin/cos with a remainder
  bound.  Radial quadrature integrates beyond its truncation radius from
  these terms, reads divergence off their exponent and sizes its panels
  by their length scale; without a tail it raises QuadratureError.
* p_u, norm_sq, p_u_reported: exact values declared by the family, or
  None: p_u and the squared row norm int |K(u, v)|^2 dnu(v), and a closed
  form carried but not adopted, for profile normalization and
  cross-checks; repulsiveness_p never reads them.  The multiquadric's p_u
  is 4 pi rho (1 - delta)^2 atanh(delta) / delta, and its p_u_reported a
  commonly reported closed form that disagrees with it, flagged and not
  adopted.  Every planar family declares norm_sq, and thin_rescale scales
  it by alpha^2 beta as it scales p_u by alpha beta; the displacement
  moments and profiles (analysis) read it and refuse a kernel without it
  with param-bound.
* grid_factor: (centers, cell_measure) -> GridFactor or None, set by a
  family whose kernel is a series: an (n, m) phi with phi phi* the grid
  matrix [K(c_i, c_j) * cell_measure] but for a PSD remainder of
  certified trace dropped_trace.  It returns a factor only when m < n,
  and None otherwise; grid discretization then decomposes phi and never
  forms the n x n matrix.  Derived kernels (palm_kernel, thin_rescale)
  declare none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import (QuadratureError, ValidationError, check_anchor, check_count, check_finite,
                     named_overflow, check_site)
from .numerics import QuadratureSpec, RadialIntegral, Tail, integrate_polar, integrate_radial

__all__ = [
    "GridFactor",
    "GroundSpace",
    "Kernel",
    "RepulsivenessReport",
    "sphere_surface_measure",
    "check_point",
    "palm_kernel",
    "profile_coordinates",
    "radial_integral",
    "repulsiveness_p",
]

_P_BOUND_SLACK = 1e-6


def sphere_surface_measure(d: int) -> float:
    """Total surface measure of the unit sphere S^d in R^(d+1)."""
    return named_overflow(lambda: 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0),
                          f"Gamma((d + 1)/2) in the surface measure of S^{d}")


@dataclass(frozen=True)
class GroundSpace:
    """One of the three concrete ground spaces with its implied measure."""

    kind: str  # "finite" | "euclidean" | "sphere"
    size: int  # number of sites, or the dimension d

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "euclidean", "sphere"):
            raise ValidationError("param-bound", f"unknown ground space kind {self.kind!r}")
        check_count("size/dimension", self.size, 1)


def check_point(space: GroundSpace, point: Any) -> Any:
    """Validate a point against its space and return a canonical form."""
    if space.kind == "finite":
        return check_site(point, space.size)
    try:
        p = np.asarray(point, dtype=float)
    except (TypeError, ValueError):  # not numbers, or ragged
        p = np.array(math.nan)
    if not np.all(np.isfinite(p)):
        raise ValidationError("param-bound", f"point coordinates must be finite, got {point!r}")
    length = space.size + (space.kind == "sphere")  # S^d lies in R^(d+1)
    if p.shape != (length,):
        raise ValidationError("param-bound", f"expected a length-{length} {space.kind} point, "
                              f"got shape {p.shape}")
    if space.kind == "sphere" and abs(np.linalg.norm(p) - 1.0) > 1e-12:
        raise ValidationError("param-bound",
                              f"sphere point must be unit length, |v| = {np.linalg.norm(p)!r}")
    return p


class GridFactor(NamedTuple):
    """A thin factor of a kernel's grid matrix, and the trace it leaves out."""

    phi: np.ndarray  # (n, m), m < n
    dropped_trace: float


@dataclass(frozen=True)
class Kernel:
    """A Hermitian kernel given by its batched Gram function, with the
    closed-form facts its family declares (see the module notes)."""

    space: GroundSpace
    gram: Callable[[np.ndarray, np.ndarray], np.ndarray]
    radial: Callable[[np.ndarray], np.ndarray] | None = None
    radial_abs_sq: Callable[[np.ndarray], np.ndarray] | None = None
    k0: Callable[[np.ndarray], np.ndarray] | None = None
    tail: Tail | None = None
    p_u: float | None = None
    norm_sq: float | None = None
    p_u_reported: float | None = None
    grid_factor: Callable[[np.ndarray, float], GridFactor | None] | None = None

    def evaluate(self, u, v) -> complex:
        """K(u, v) for two single points."""
        return complex(self.gram(np.asarray([u]), np.asarray([v]))[0, 0])

    def diagonal(self, u) -> float:
        """Intensity rho(u) = K(u, u); the diagonal is real, and nan where it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):  # check_anchor refuses the nan
            return float(np.real(self.evaluate(u, u)))


@dataclass(frozen=True)
class RepulsivenessReport:
    """p_u, the squared kernel-row norm, and a displacement density profile.

    density_profile pairs a coordinate with f_u there; the coordinate is
    a site (finite spaces), a radius (Euclidean), or a geodesic angle
    (sphere).
    """

    p_u: float
    norm_sq: float
    quadrature_error: float
    density_profile: list[tuple[float, float]]


def palm_kernel(kernel: Kernel, u) -> Kernel:
    """Reduced Palm kernel K^u(v, w) = K(v,w) - K(v,u) K(u,w) / K(u,u)."""
    u = check_point(kernel.space, u)
    ku = check_anchor(kernel.diagonal(u), u)
    U = np.asarray([u])

    def gram(X, Y):
        return kernel.gram(X, Y) - kernel.gram(X, U) @ kernel.gram(U, Y) / ku

    return Kernel(space=kernel.space, gram=gram)


def radial_integral(kernel: Kernel, power: float, factor: float,
                    spec: QuadratureSpec | None = None) -> RadialIntegral:
    """int_0^inf r^power * factor * radial_abs_sq(r) dr against the declared
    tail, by integrate_radial under spec.  Raises QuadratureError when the
    kernel declares no tail.

    It is the one place that pairs radial_abs_sq with the declared tail:
    repulsiveness_p and the displacement moments call it."""
    if kernel.tail is None:
        raise QuadratureError("the kernel declares no tail; radial quadrature needs its "
                              "large-r behaviour")
    rfn = kernel.radial_abs_sq
    return integrate_radial(lambda r: factor * rfn(r), power, kernel.tail.rescaled(factor),
                            spec or QuadratureSpec())


def profile_coordinates(kernel: Kernel, points: int | None = None,
                        end: float | None = None) -> np.ndarray:
    """Where repulsiveness_p reports f_u by default: the sites 1..n of a
    finite space, else `points` (default 64) angles from 0 to pi on the
    sphere, or radii from 0 to `end` on R^d, by default min(40 s, 10) for a
    Gaussian tail and min(400 s, 10) for a power one, s its length scale.
    A finite space reads neither argument, and the sphere reads no `end`;
    a count that is not an integer >= 1, or an end that is not finite and
    > 0, is refused."""
    points = 64 if points is None else check_count("points", points, 1)
    if end is not None and not (math.isfinite(end) and end > 0):
        raise ValidationError("param-bound", f"the profile's end must be finite and > 0, got {end}")
    space, tail = kernel.space, kernel.tail
    if space.kind == "finite":
        return np.arange(1, space.size + 1)
    if space.kind == "sphere":
        end = math.pi
    elif end is None:
        if tail is None:
            raise QuadratureError("the kernel declares no tail, so its profile needs an end")
        end = min((40.0 if tail.kind == "gaussian" else 400.0) * tail.scale, 10.0)
    return np.linspace(0.0, end, points)


def repulsiveness_p(kernel: Kernel, u, spec: QuadratureSpec | None = None,
                    profile_coords: Sequence[float] | None = None) -> RepulsivenessReport:
    """Coupling probability p_u = int |K(u, v)|^2 dnu(v) / K(u, u).

    Finite spaces use the exact sum over the kernel row; Euclidean kernels
    declaring radial_abs_sq reduce to a radial integral against the declared
    tail (integrate_radial, which truncates at spec's radius or else picks
    one), isotropic sphere kernels to a polar one to spec's relative
    tolerance (integrate_polar).  The report carries the displacement
    density profile f_u = |K(u, .)|^2 / norm_sq on profile_coords, by default
    profile_coordinates(kernel); a site outside 1..n raises param-bound.
    """
    space = kernel.space
    u = check_point(space, u)
    ku = check_anchor(kernel.diagonal(u), u)

    if space.kind == "finite":
        row = np.abs(kernel.gram(np.asarray([u]), np.arange(1, space.size + 1))[0]) ** 2
        norm_sq, norm_err = float(row.sum()), 0.0
        abs_sq = lambda sites: row[sites - 1]
    else:
        d = space.size
        surface = sphere_surface_measure(d - 1)  # S^(d-1): shells in R^d, latitudes on S^d
        if space.kind == "euclidean":
            abs_sq = kernel.radial_abs_sq
            if abs_sq is None:
                raise ValidationError(
                    "param-bound",
                    "repulsiveness quadrature needs a kernel with isotropic modulus; "
                    "this Euclidean kernel does not declare one")
            if d not in (1, 2):
                raise ValidationError("param-bound", "Euclidean quadrature supports d in {1, 2}")
            norm_sq, norm_err = radial_integral(kernel, d - 1.0, surface, spec)[:2]
        else:
            k0 = kernel.k0
            if k0 is None:
                raise ValidationError("param-bound",
                                      "sphere repulsiveness needs an isotropic kernel with a "
                                      "declared angular profile")
            abs_sq = lambda theta: np.asarray(k0(np.cos(theta))) ** 2
            norm_sq, norm_err = integrate_polar(
                lambda theta: surface * abs_sq(theta) * np.sin(theta) ** (d - 1),
                (spec or QuadratureSpec()).relative_tolerance)
    coords = profile_coordinates(kernel) if profile_coords is None else profile_coords
    coords = (np.array([check_point(space, v) for v in coords], dtype=int)
              if space.kind == "finite" else np.asarray(coords, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        dens = abs_sq(coords) / norm_sq if norm_sq > 0 else np.zeros(coords.shape)
    check_finite(dens, "the f_u profile")  # jinc's J1(2r) is nan once 2r overflows
    profile = list(zip(coords.tolist(), dens.tolist()))

    p, err = norm_sq / ku, norm_err / ku
    if p > 1.0 + _P_BOUND_SLACK + err:
        raise ValidationError(
            "spectrum",
            f"p_u = {p:.8f} exceeds 1; the kernel violates the repulsiveness bound")
    return RepulsivenessReport(p_u=min(p, 1.0 + _P_BOUND_SLACK),
                               norm_sq=norm_sq, quadrature_error=err,
                               density_profile=profile)
