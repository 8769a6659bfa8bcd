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
from scipy import stats

from . import finite_dpp
from .errors import SizeGuardError, TheoremViolationError, ValidationError
from .kernel_core import GroundSpace, Kernel, _declared_tail, _with_radius, check_point
from .numerics import HermitianEig, QuadratureSpec, hermitian_eig, integrate_radial

__all__ = [
    "MomentResult",
    "RadialProfile",
    "ClampReport",
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
    """A displacement moment: closed form vs quadrature with error budget.

    closed_form is +inf for divergent moments with a known closed-form
    divergence and nan when no closed form was attached; quadrature is
    nan when the declared tail's exponent makes the moment diverge.
    """

    k: float
    closed_form: float
    quadrature: float
    abs_error: float
    tail_estimate: float
    divergent: bool


@dataclass(frozen=True)
class RadialProfile:
    """Probability density of the displacement distance |Z_u - u| on a grid."""

    radii: np.ndarray
    density: np.ndarray


@dataclass(frozen=True)
class ClampReport:
    """Eigenvalues nudged back into [0, 1] during discretization."""

    n_clamped: int
    max_excess: float

    def __bool__(self) -> bool:
        return self.n_clamped > 0


@dataclass(frozen=True)
class GridModel:
    """A continuous kernel discretized to cell centers.

    The kernel matrix entries are K(c_i, c_j) * cell_measure, so sampled
    point counts estimate the intensity integral over the window.
    """

    dpp: finite_dpp.FiniteDpp
    centers: np.ndarray
    cell_measure: float
    clamp_report: ClampReport
    space: GroundSpace

    @property
    def expected_count(self) -> float:
        return float(np.real(np.trace(self.dpp.matrix)))


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
    samples: int


def jinc_moment_closed(k: float) -> float:
    """Closed-form moment E|Z_u - u|^k for the planar jinc displacement.

    Finite only on (-2, 1): Gamma(1 + k/2) Gamma(1 - k) /
    (Gamma(2 - k/2) Gamma(1 - k/2)^2); the distribution is heavy-tailed
    and every moment of order >= 1 is infinite.
    """
    if k <= -2:
        raise ValueError("moments exist only for k > -2")
    if k >= 1:
        return math.inf
    return (math.gamma(1.0 + k / 2.0) * math.gamma(1.0 - k)
            / (math.gamma(2.0 - k / 2.0) * math.gamma(1.0 - k / 2.0) ** 2))


def ginibre_moment(k: float, rho: float) -> float:
    """Moment E|Z_u - u|^k for the Ginibre displacement at intensity rho.

    The squared distance is exponential, so the k-th moment is
    Gamma(1 + k/2) / (pi rho)^(k/2), finite for every k > -2.
    """
    if k <= -2:
        raise ValueError("moments exist only for k > -2")
    if rho <= 0:
        raise ValueError("intensity must be > 0")
    return math.gamma(1.0 + k / 2.0) / (math.pi * rho) ** (k / 2.0)


def _displacement_radial(kernel: Kernel, u):
    """r -> |K(u, u + r e)|^2 for an isotropic planar kernel, and the
    squared row norm with its relative error."""
    if kernel.space.kind != "euclidean" or kernel.space.size != 2:
        raise ValidationError("param-bound",
                              "displacement analysis covers isotropic kernels on the plane")
    radial = kernel.radial_abs_sq
    if radial is None:
        raise ValidationError("param-bound", "kernel must declare an isotropic modulus")
    norm_sq = kernel.reference.get("norm_sq")
    if norm_sq is not None:
        return radial, norm_sq, 0.0
    tail = _declared_tail(kernel).rescaled(2.0 * math.pi)
    res = integrate_radial(lambda r: 2.0 * math.pi * radial(r), 1.0, tail,
                           _with_radius(None, tail))
    if res.value <= 0:
        raise ValidationError("anchor", "the kernel row has no mass; p_u vanishes")
    return radial, res.value, res.error / res.value


def moment_quadrature(kernel: Kernel, u, order: float,
                      spec: QuadratureSpec | None = None) -> MomentResult:
    """Quadrature moment of the displacement distance with its error budget.

    Integrates r^(order + 1) against 2 pi |K(u, .)|^2 / norm_sq and the
    kernel's declared tail.  A moment whose declared tail exponent makes
    it diverge (jinc at order >= 1) is flagged divergent instead of a
    number.
    """
    if order <= -2:
        raise ValueError("moments exist only for k > -2")
    radial, norm_sq, norm_rel_err = _displacement_radial(kernel, u)
    tail = _declared_tail(kernel).rescaled(2.0 * math.pi / norm_sq)
    if not tail.converges(order + 1.0):
        return MomentResult(k=order, closed_form=math.nan, quadrature=math.nan,
                            abs_error=math.nan, tail_estimate=math.nan, divergent=True)
    res = integrate_radial(lambda r: (2.0 * math.pi / norm_sq) * radial(r), order + 1.0,
                           tail, _with_radius(spec, tail))
    norm_contrib = norm_rel_err * abs(res.value)
    return MomentResult(k=order, closed_form=math.nan, quadrature=res.value,
                        abs_error=res.error + norm_contrib,
                        tail_estimate=res.tail_error + norm_contrib,
                        divergent=False)


def radial_profile(kernel: Kernel, u, radii) -> RadialProfile:
    """Density of |Z_u - u| on a radius grid: 2 pi r f_u(r) on the plane."""
    radial, norm_sq, _ = _displacement_radial(kernel, u)
    radii = np.asarray(radii, dtype=float)
    return RadialProfile(radii=radii, density=2.0 * math.pi * radii * radial(radii) / norm_sq)


def _euclidean_centers(window, resolution: int, d: int):
    w = np.asarray(window, dtype=float)
    if w.shape != (2 * d,):
        raise ValidationError("param-bound",
                              f"window must give {2 * d} bounds for d={d}")
    axes, measure = [], 1.0
    for i in range(d):
        lo, hi = w[2 * i], w[2 * i + 1]
        if not hi > lo:
            raise ValidationError("param-bound", "window bounds must be increasing")
        step = (hi - lo) / resolution
        axes.append(lo + step * (np.arange(resolution) + 0.5))
        measure *= step
    grids = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=-1)
    return centers, measure


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


def grid_discretize(kernel: Kernel, window, resolution: int) -> GridModel:
    """Discretize a continuous kernel to cell centers.

    Entries are K(c_i, c_j) * cell_measure, real when the kernel is.
    The matrix is decomposed once, and the resulting FiniteDpp carries
    that decomposition.  Spectrum leakage up to 1e-3 beyond [0, 1] is
    clamped and reported; worse leakage raises with guidance, since it
    means the cells are too coarse for the kernel (near-projection
    kernels are the usual culprit).
    """
    if resolution < 1:
        raise ValidationError("param-bound", "resolution must be >= 1")
    space = kernel.space
    if space.kind == "euclidean":
        centers, measure = _euclidean_centers(window, resolution, space.size)
    elif space.kind == "sphere":
        if space.size != 2:
            raise ValidationError("param-bound", "sphere discretization covers S^2")
        if window is not None:
            raise ValidationError("param-bound",
                                  "sphere discretization covers the full sphere; pass window=None")
        centers, measure = _sphere_centers(resolution)
    else:
        raise ValidationError("param-bound", "finite kernels are already discrete")
    n = centers.shape[0]
    if n > _GRID_MAX_SITES:
        raise SizeGuardError(f"grid has {n} cells; the bound is {_GRID_MAX_SITES}")

    M = kernel.gram(centers, centers) * measure
    M = 0.5 * (M + M.conj().T)

    eig = hermitian_eig(M)
    w = eig.eigenvalues
    hi, lo = float(w[0]), float(w[-1])
    if hi > 1.0 + 1e-3 or lo < -1e-3:
        raise ValidationError(
            "spectrum",
            f"discretized spectrum [{lo:.6g}, {hi:.6g}] escapes [0, 1] by more than "
            "1e-3; shrink the cells (raise the resolution) or shrink the window")
    excess = np.maximum(w - 1.0, 0.0) + np.maximum(-w, 0.0)
    clamped = int(np.sum(excess > 1e-12))
    report = ClampReport(n_clamped=clamped,
                         max_excess=float(excess.max()) if clamped else 0.0)
    lam, V = np.clip(w, 0.0, 1.0), eig.eigenvectors
    if clamped:
        M = (V * lam) @ V.conj().T
        M = 0.5 * (M + M.conj().T)
    dpp = finite_dpp.FiniteDpp(matrix=M, eig=HermitianEig(eigenvalues=lam, eigenvectors=V), n=n)
    return GridModel(dpp=dpp, centers=centers, cell_measure=measure,
                     clamp_report=report, space=space)


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
    grid = grid_discretize(kernel, window, resolution)
    n = grid.dpp.n
    if n > finite_dpp._COUPLING_MAX_SITES:
        raise SizeGuardError(
            f"coupling validation needs n <= {finite_dpp._COUPLING_MAX_SITES} cells, got {n}")
    site = _nearest_site(grid.centers, u)
    law_x = finite_dpp.subset_law(grid.dpp)
    palm = finite_dpp.palm_matrix(grid.dpp, site)
    law_xu = finite_dpp.subset_law(palm)
    flow, table = finite_dpp.coupling_feasible(law_x, law_xu, site)
    if table is None:
        raise TheoremViolationError(
            f"coupling infeasible at flow {flow:.12f} for a valid kernel",
            dump={"matrix": grid.dpp.matrix, "site": site, "flow": flow})
    p_exact, density = finite_dpp.xi_law(table, grid.dpp, site)

    s_masks, t_masks = finite_dpp.sample_coupled_many(table, rng_seed, samples)
    diff = s_masks ^ t_masks
    nonempty = diff > 0
    p_hat = float(np.mean(nonempty))
    if 0.0 < p_exact < 1.0:
        z = (p_hat - p_exact) / math.sqrt(p_exact * (1.0 - p_exact) / samples)
    else:
        z = 0.0 if p_hat == p_exact else math.inf

    removed = np.log2(diff[nonempty]).astype(int)  # single-bit masks
    observed_all = np.bincount(removed, minlength=n).astype(float)
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
        pvalue = float(stats.chi2.sf(chi2, dof))
    else:
        chi2, dof, pvalue = 0.0, 0, 1.0
    return CouplingValidation(flow=flow, anchor_site=site, p_exact=p_exact,
                              p_hat=p_hat, z_score=z, chi2_stat=chi2,
                              chi2_pvalue=pvalue, chi2_dof=dof,
                              observed=observed, expected=expected,
                              density_exact=density, samples=samples)
