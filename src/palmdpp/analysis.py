"""Quantitative repulsiveness analysis.

Moments of the displaced point (closed forms, and quadrature against the
kernel's declared tail), radial density profiles of the displacement
distance, grid discretization of continuous kernels into finite DPPs,
and Monte Carlo validation of the coupling law on discretized models.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import finite_dpp
from .errors import SizeGuardError, ValidationError, check_count, check_finite, named_overflow
from .kernel_core import Kernel, check_point, radial_integral
from .numerics import QuadratureSpec, circulant_eig, factor_eig, reflection_eig

__all__ = [
    "MomentResult",
    "GridModel",
    "CouplingValidation",
    "jinc_moment_closed",
    "ginibre_moment",
    "moment_quadrature",
    "radial_profile",
    "grid_discretize",
    "mc_validate_coupling",
]

_GRID_MAX_SITES = 4096
_MIN_EXPECTED_PER_BIN = 20.0


@dataclass(frozen=True)
class MomentResult:
    """A displacement moment by quadrature, with its error budget.

    quadrature is nan when the declared tail's exponent makes the moment
    diverge.
    """

    quadrature: float
    abs_error: float
    tail_estimate: float
    divergent: bool


@dataclass(frozen=True)
class GridModel:
    """A continuous kernel discretized to cell centers.

    The kernel matrix entries are K(c_i, c_j) * cell_measure, so sampled
    point counts estimate the intensity integral over the window;
    dpp.clamp_report records the eigenvalues clamped onto [0, 1] and, for
    a factored kernel, the trace its factor dropped.
    """

    dpp: finite_dpp.FiniteDpp
    centers: np.ndarray
    cell_measure: float

    @property
    def expected_count(self) -> float:
        """Expected number of points, the sum of the kept eigenvalues."""
        return float(np.sum(self.dpp.eig.eigenvalues))


@dataclass(frozen=True)
class CouplingValidation:
    """Monte Carlo check of the coupling law on a discretized kernel."""

    flow: float
    anchor_site: int
    p_exact: float
    p_hat: float
    z_score: float
    chi2_stat: float
    chi2_pvalue: float
    chi2_dof: int
    observed: np.ndarray
    expected: np.ndarray
    density_exact: np.ndarray


def _check_order(k: float) -> None:
    if not (math.isfinite(k) and k > -2):
        raise ValidationError("param-bound", "moments exist only for k > -2 and finite k")


def jinc_moment_closed(k: float) -> float:
    """Closed-form moment E|Z_u - u|^k for the planar jinc displacement.

    Finite only on (-2, 1): Gamma(1 + k/2) Gamma(1 - k) /
    (Gamma(2 - k/2) Gamma(1 - k/2)^2); the distribution is heavy-tailed
    and every moment of order >= 1 is infinite.
    """
    _check_order(k)
    if k >= 1:
        return math.inf
    return (math.gamma(1.0 + k / 2.0) * math.gamma(1.0 - k)
            / (math.gamma(2.0 - k / 2.0) * math.gamma(1.0 - k / 2.0) ** 2))


def ginibre_moment(k: float, rho: float) -> float:
    """Moment E|Z_u - u|^k for the Ginibre displacement at intensity rho.

    The squared distance is exponential, so the k-th moment is
    Gamma(1 + k/2) / (pi rho)^(k/2), finite for every k > -2; where that
    quotient or a part of it leaves double precision, OverflowError.
    """
    _check_order(k)
    if not 0 < rho < math.inf:
        raise ValidationError("param-bound", "intensity must be finite and > 0")
    return named_overflow(lambda: math.gamma(1.0 + k / 2.0) / (math.pi * rho) ** (k / 2.0),
                          f"the moment Gamma(1 + k/2)/(pi rho)^(k/2) at k = {k:g}, rho = {rho:g}")


def _displacement_radial(kernel: Kernel):
    """r -> |K(u, u + r e)|^2 for an isotropic planar kernel, the same at
    every anchor u, and its declared squared row norm."""
    if kernel.space.kind != "euclidean" or kernel.space.size != 2:
        raise ValidationError("param-bound",
                              "displacement analysis covers isotropic kernels on the plane")
    radial, norm_sq = kernel.radial_abs_sq, kernel.norm_sq
    if radial is None or norm_sq is None:
        raise ValidationError("param-bound", "kernel must declare an isotropic modulus "
                              "and its squared row norm (norm_sq)")
    check_finite(2.0 * math.pi / norm_sq if norm_sq > 0 else math.inf,
                 f"2 pi / norm_sq, for the declared squared row norm {norm_sq!r},")
    return radial, norm_sq


def moment_quadrature(kernel: Kernel, order: float,
                      spec: QuadratureSpec | None = None) -> MomentResult:
    """Quadrature moment of the displacement distance with its error budget.

    Integrates r^(order + 1) against 2 pi |K(u, .)|^2 / norm_sq and the
    kernel's declared tail.  A moment whose declared tail exponent makes
    it diverge (jinc at order >= 1) is flagged divergent instead of a
    number.
    """
    _check_order(order)
    _, norm_sq = _displacement_radial(kernel)
    if kernel.tail is not None and not kernel.tail.converges(order + 1.0):
        return MomentResult(quadrature=math.nan, abs_error=math.nan,
                            tail_estimate=math.nan, divergent=True)
    res = radial_integral(kernel, order + 1.0, 2.0 * math.pi / norm_sq, spec)
    return MomentResult(quadrature=res.value, abs_error=res.error,
                        tail_estimate=res.tail_error, divergent=False)


def radial_profile(kernel: Kernel, radii) -> np.ndarray:
    """Density 2 pi r f_u(r) of |Z_u - u| at the radii, the same at every anchor u."""
    radial, norm_sq = _displacement_radial(kernel)
    radii = np.asarray(radii, dtype=float)
    if not np.all((radii >= 0) & (radii < np.inf)):
        raise ValidationError("param-bound", "radii must be finite and >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        density = 2.0 * math.pi * radii * radial(radii) / norm_sq
    return check_finite(density, "the displacement density")


def _euclidean_centers(window, resolution: int, d: int):
    w = np.asarray(window, dtype=float)
    if w.shape != (2 * d,):
        raise ValidationError("param-bound",
                              f"window must give {2 * d} bounds for d={d}")
    lo, hi = w[0::2], w[1::2]
    if not np.all(hi > lo):
        raise ValidationError("param-bound", "window bounds must be increasing")
    # a window beyond double precision gives non-finite cells, which the
    # check on the grid's matrix reports as an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        step = (hi - lo) / resolution
        axes = lo + step * (np.arange(resolution)[:, None] + 0.5)  # one column per axis
        measure = float(np.prod(step))
    grids = np.meshgrid(*axes.T, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1), measure


def _sphere_centers(resolution: int):
    # equal-area grid: uniform bands in z = cos(theta), uniform longitudes
    z = -1.0 + 2.0 * (np.arange(resolution) + 0.5) / resolution
    phi = 2.0 * math.pi * (np.arange(2 * resolution) + 0.5) / (2 * resolution)
    zz, pp = np.meshgrid(z, phi, indexing="ij")
    s = np.sqrt(np.clip(1.0 - zz ** 2, 0.0, None))
    centers = np.stack([(s * np.cos(pp)).ravel(), (s * np.sin(pp)).ravel(),
                        zz.ravel()], axis=-1)
    measure = 4.0 * math.pi / centers.shape[0]
    return centers, measure


def _cell_scaled(entries, measure: float) -> np.ndarray:
    """entries() times the cell measure: the grid's kernel matrix, or a table of it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return check_finite(entries() * measure, "the grid's kernel matrix")


def grid_discretize(kernel: Kernel, window, resolution: int) -> GridModel:
    """Discretize a continuous kernel to cell centers.

    The grid matrix has entries K(c_i, c_j) * cell_measure, real when the
    kernel is.  It is decomposed by one of four routes, and only the first
    forms it:
    - dense: finite_dpp.validate decomposes the Gram matrix once, for a
      kernel that declares no grid factor that returns one, no sphere k0
      and no Euclidean radial (derived kernels such as palm_kernel's declare
      none of them);
    - series factor: when the kernel declares a grid factor and it returns
      one (an (n, m) phi with m < n, the Ginibre series),
      numerics.factor_eig takes the m eigenpairs from one eigh of the
      m x m dual phi* phi, finite_dpp.validate_eig checks them, and
      dpp.clamp_report.dropped_trace is the factor's certified dropped trace;
    - sphere blocks: a sphere kernel that declares k0 is isotropic, so on
      the grid of resolution bands uniform in z by 2 * resolution
      longitudes its matrix is block-circulant in the longitude;
      numerics.circulant_eig decomposes its resolution + 1 Fourier blocks
      from the resolution x resolution x 2 * resolution table of K0
      values, and finite_dpp.validate_eig takes the eigenpairs;
    - reflection blocks: a Euclidean kernel that declares radial is
      stationary, K(v, w) = k(|v - w|), so its matrix on the uniform grid
      commutes with reversing the cells along each axis, for any window
      and unequal steps; numerics.reflection_eig decomposes its 2^d
      even/odd blocks from the resolution^d table of k at every index
      difference, times the cell measure (resolution^d kernel values
      against resolution^(2 d) for the Gram matrix), and
      finite_dpp.validate_eig takes the eigenpairs.
    All share a slack of 1e-3: leakage up to 1e-3 beyond [0, 1] is clamped
    and reported in dpp.clamp_report; worse leakage means the cells are too
    coarse for the kernel (near-projection kernels are the usual culprit).
    A matrix, table or factor with entries beyond double precision raises
    OverflowError.
    """
    resolution = check_count("resolution", resolution, 1)
    space = kernel.space
    if space.kind == "sphere":
        if space.size != 2:
            raise ValidationError("param-bound", "sphere discretization covers S^2")
        if window is not None:
            raise ValidationError("param-bound",
                                  "sphere discretization covers the full sphere; pass window=None")
    elif space.kind != "euclidean":
        raise ValidationError("param-bound", "finite kernels are already discrete")
    # the bound comes before the cell centers, so a huge resolution allocates nothing
    n = resolution ** space.size if space.kind == "euclidean" else 2 * resolution ** 2
    if n > _GRID_MAX_SITES:
        raise SizeGuardError(f"grid has {n} cells; the bound is {_GRID_MAX_SITES}")
    centers, measure = (_euclidean_centers(window, resolution, space.size)
                        if space.kind == "euclidean" else _sphere_centers(resolution))

    factor = kernel.grid_factor(centers, measure) if kernel.grid_factor else None
    try:
        if factor is not None:
            dpp = finite_dpp.validate_eig(
                factor_eig(check_finite(factor.phi, "the grid's series factor")), slack=1e-3,
                dropped_trace=factor.dropped_trace)
        elif space.kind == "sphere" and kernel.k0 is not None:
            # cell (i, a) is band i, longitude a, so K(c_ia, c_jb) = K0(c_i0 . c_j(b - a))
            table = _cell_scaled(lambda: kernel.k0(centers[::2 * resolution] @ centers.T), measure)
            dpp = finite_dpp.validate_eig(
                circulant_eig(table.reshape(resolution, resolution, -1)), slack=1e-3)
        elif space.kind == "euclidean" and kernel.radial is not None:
            # cells are in C order, so cell i_1 ... i_d lies i_k steps from cell 0 along each axis
            table = _cell_scaled(lambda: kernel.radial(
                np.sqrt(np.sum((centers - centers[0]) ** 2, axis=1))), measure)
            dpp = finite_dpp.validate_eig(
                reflection_eig(table.reshape((resolution,) * space.size)), slack=1e-3)
        else:  # the Gram matrix goes in unnamed, so validate can free it before eigh
            dpp = finite_dpp.validate(
                _cell_scaled(lambda: kernel.gram(centers, centers), measure), slack=1e-3)
    except ValidationError as exc:
        if exc.token == "spectrum":
            raise ValidationError("spectrum", f"{exc} on the grid; the cells are too coarse: "
                                  "raise the resolution or shrink the window") from exc
        raise
    return GridModel(dpp=dpp, centers=centers, cell_measure=measure)


def _nearest_site(centers: np.ndarray, u) -> int:
    p = np.asarray(u, dtype=float)
    return int(np.argmin(np.sum((centers - p) ** 2, axis=1))) + 1


def mc_validate_coupling(kernel: Kernel, u, window, resolution: int,
                         samples: int, rng_seed: int) -> CouplingValidation:
    """Exact-law plus Monte Carlo check of the coupling on a small grid.

    Discretizes the kernel, verifies coupling max-flow saturates, draws
    coupled pairs, and tests the empirical removal probability (z score
    against the binomial) and the displacement histogram (chi-squared
    with bins merged below 20 expected counts).
    """
    u = check_point(kernel.space, u)
    samples = check_count("draws", samples, 1)
    rng_seed = check_count("rng_seed", rng_seed, 0)
    grid = grid_discretize(kernel, window, resolution)
    site = _nearest_site(grid.centers, u)
    flow, table = finite_dpp.couple(grid.dpp, site)
    p_exact, density = finite_dpp.xi_law(table)

    p_hat, observed_all = finite_dpp.sample_removals(table, rng_seed, samples)
    if 0.0 < p_exact < 1.0:
        z = (p_hat - p_exact) / math.sqrt(p_exact * (1.0 - p_exact) / samples)
    else:
        z = 0.0 if p_hat == p_exact else math.inf

    n_cond = float(observed_all.sum())
    expected_all = n_cond * density

    # merge sites below the expected-count floor into one pooled bin
    big = expected_all >= _MIN_EXPECTED_PER_BIN
    observed = np.append(observed_all[big], observed_all[~big].sum())
    expected = np.append(expected_all[big], expected_all[~big].sum())
    keep = expected > 0
    observed, expected = observed[keep], expected[keep]
    if observed.size >= 2:
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        dof = observed.size - 1
        from scipy import special  # loaded by the first coupling check, not on import
        pvalue = float(special.chdtrc(dof, chi2))
    else:
        chi2, dof, pvalue = 0.0, 0, 1.0
    return CouplingValidation(flow=flow, anchor_site=site, p_exact=p_exact,
                              p_hat=p_hat, z_score=z, chi2_stat=chi2,
                              chi2_pvalue=pvalue, chi2_dof=dof,
                              observed=observed, expected=expected,
                              density_exact=density)
