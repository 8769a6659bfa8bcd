"""Parametric kernel families.

Scaled Ginibre kernels on the complex plane, the sinc/jinc kernels whose
Fourier transform is a ball indicator (the most repulsive stationary
kernels at intensity 1/pi), independent thinning with rescaling, and
isotropic kernels on spheres driven by Gegenbauer coefficient sequences,
including the multiquadric family.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError, check_count, named_overflow
from .finite_dpp import FiniteDpp
from .kernel_core import GridFactor, GroundSpace, Kernel, sphere_surface_measure
from .numerics import Tail, gegenbauer_series

__all__ = [
    "GinibreParams",
    "SphereModel",
    "SpherePResult",
    "finite_kernel",
    "ginibre_kernel",
    "jinc_kernel",
    "thin_rescale",
    "sphere_model",
    "sphere_kernel",
    "multiquadric",
    "sphere_p",
]


@dataclass(frozen=True)
class GinibreParams:
    """Intensity scale alpha and spatial scale beta; existence needs
    alpha * beta <= 1."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.beta > 0):
            raise ValidationError("param-bound", "alpha and beta must be > 0")
        if self.alpha * self.beta > 1.0 + 1e-12:
            raise ValidationError(
                "param-bound",
                f"alpha*beta = {self.alpha * self.beta:.6g} exceeds 1")


def finite_kernel(dpp: FiniteDpp) -> Kernel:
    """Wrap a validated kernel matrix as a Kernel on finite sites 1..n."""
    M = dpp.matrix

    def gram(X, Y):
        return M[np.ix_(np.asarray(X, dtype=int) - 1, np.asarray(Y, dtype=int) - 1)]

    return Kernel(space=GroundSpace("finite", dpp.n), gram=gram)


# the Ginibre grid factor keeps the series until each cell's dropped share
# of its diagonal, P(Poisson(|z|^2 / beta) >= m), is at most this
_SERIES_TAIL = 1e-13
# a centred square grid's axis is symmetric about 0 to this many ulps of its largest cell
_SYMMETRY_ULPS = 4.0


def _centred_square(centers: np.ndarray) -> bool:
    """Whether the cells are an axis times itself in C order, the axis
    symmetric about 0 to rounding: then the quarter turn z -> i z and the
    conjugation z -> conj(z) map the cells onto themselves."""
    n = centers.shape[0]
    r = math.isqrt(n)
    if r * r != n:
        return False
    axis = centers[::r, 0]
    return bool(np.array_equal(centers[:, 0], np.repeat(axis, r))
                and np.array_equal(centers[:, 1], np.tile(axis, r))
                and np.max(np.abs(axis + axis[::-1]))
                <= _SYMMETRY_ULPS * np.finfo(float).eps * np.max(np.abs(axis)))


def _ginibre_grid_factor(alpha: float, beta: float):
    """The grid factor of the Ginibre series
    K(v, w) = (alpha/pi) e^(-(|v|^2 + |w|^2)/(2 beta)) sum_k (v conj(w)/beta)^k / k!.

    Cut at m terms, phi[i, k] = sqrt(alpha cell/pi) e^(-|z_i|^2/(2 beta))
    (z_i/sqrt(beta))^k / sqrt(k!), so |phi[i, k]|^2 is alpha cell/pi times
    the Poisson(mu_i) mass at k, mu_i = |z_i|^2/beta.  Each modulus comes
    from its logarithm, so far cells do not underflow, and the phase
    e^(i k arg z_i) is a running product over k, one complex exponential
    per cell rather than per entry.  Cell i drops (alpha
    cell/pi) P(Poisson(mu_i) >= m) of its diagonal, and dropped_trace is
    their sum.  m is the least count below n with P(Poisson(max mu) >= m)
    <= 1e-13; without one (a large window, or mu beyond double precision)
    there is no factor.  At alpha = beta = 1 a 64 x 64 grid of [-4, 4]^2
    keeps m = 81 with a dropped trace of 1.9e-15.

    On a centred square grid (_centred_square) the factor labels column k
    by k mod 4.  The quarter turn multiplies column k by i^k and permutes
    the cells, so phi* phi has no entry between two labels; the conjugation
    conjugates each column and permutes the cells, so each label's block is
    real.  Both hold to the rounding of the cell centres.
    """

    def grid_factor(centers: np.ndarray, measure: float) -> GridFactor | None:
        from scipy import special  # loaded by the first Ginibre grid, not on import
        n = centers.shape[0]
        z = centers[:, 0] + 1j * centers[:, 1]
        with np.errstate(over="ignore"):
            mu = np.abs(z) ** 2 / beta
        short = special.gammainc(np.arange(1, n), mu.max()) <= _SERIES_TAIL
        if not short.any():
            return None
        m = 1 + int(np.argmax(short))
        k = np.arange(m)
        log_pmf = special.xlogy(k, mu[:, None]) - mu[:, None] - special.gammaln(k + 1.0)
        phase = np.ones((n, m), dtype=complex)  # column k becomes e^(i k arg z)
        phase[:, 1:] = np.exp(1j * np.angle(z))[:, None]
        phi = (math.sqrt(alpha * measure / math.pi) * np.exp(0.5 * log_pmf)
               * np.cumprod(phase, axis=1))
        dropped = float(alpha * measure / math.pi * np.sum(special.gammainc(m, mu)))
        return GridFactor(phi, dropped, k % 4 if _centred_square(centers) else None)

    return grid_factor


def ginibre_kernel(params: GinibreParams) -> Kernel:
    """Scaled Ginibre kernel on the plane (complex coordinates).

    K(v, w) = (alpha/pi) exp(v conj(w)/beta - (|v|^2 + |w|^2)/(2 beta))
    = (alpha/pi) exp((-|v - w|^2/2 + i Im(v conj(w)))/beta);
    alpha = beta = 1 is the standard Ginibre kernel with intensity 1/pi.
    It declares its series as a grid factor (_ginibre_grid_factor).
    """
    alpha, beta = params.alpha, params.beta
    amplitude, norm_sq = named_overflow(
        lambda: ((alpha / math.pi) ** 2, alpha ** 2 * beta / math.pi),
        f"the tail amplitude (alpha/pi)^2 or the row norm alpha^2 beta/pi at alpha = {alpha:g}")
    # gram's exponent is divided by beta through 1/beta, which overflows for beta < 5.6e-309
    named_overflow(lambda: 1.0 / beta, f"the Ginibre exponent's scale 1/beta at beta = {beta:g}")

    def radial_abs_sq(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):  # r^2 past double precision gives exp(-inf) = 0
            return amplitude * np.exp(-r ** 2 / beta)

    def gram(X, Y):  # modulus and phase apart: no cancellation, K(u, u) = alpha/pi exactly
        gap = np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=-1)
        phase = X[:, None, 1] * Y[None, :, 0] - X[:, None, 0] * Y[None, :, 1]  # Im(v conj(w))
        return (alpha / math.pi) * np.exp((-0.5 * gap + 1j * phase) / beta)

    return Kernel(
        space=GroundSpace("euclidean", 2),
        gram=gram,
        radial_abs_sq=radial_abs_sq,
        tail=Tail("gaussian", math.sqrt(beta), amplitude=amplitude),
        p_u=alpha * beta,
        norm_sq=norm_sq,
        grid_factor=_ginibre_grid_factor(alpha, beta),
    )


# |sin r / (pi r)|^2 = (1 - cos 2r) / (2 pi^2 r^2) exactly
_SINC_TAIL = Tail("power", 1.0, order=2.0, frequency=2.0, smooth=(0.5 / math.pi ** 2,),
                  sine=(0.0,), cosine=(-0.5 / math.pi ** 2,), bound=(0.0,))
_HANKEL_TERMS = 4  # terms kept of each of P(1, x) and Q(1, x)


def _jinc_tail() -> Tail:
    """|J1(2r) / (pi r)|^2 from Hankel's expansion of J1 (DLMF 10.17.3).

    With x = 2r and w = x - 3 pi / 4, J1(x) = sqrt(2 / (pi x)) (P cos w -
    Q sin w), so J1(x)^2 = (P^2 + Q^2 - (P^2 - Q^2) sin 2x - 2 P Q cos 2x)
    / (pi x).  P and Q are cut after _HANKEL_TERMS terms each; for real x
    > 0 the remainder of each is bounded by its first omitted term (DLMF
    10.17(iii)), which bounds the error of the square by 2 (|P| + |Q|) e
    + e^2, with e the sum of the two omitted terms.
    """
    n = 2 * _HANKEL_TERMS
    size = 2 * n + 3  # every product below has degree <= 2 n + 2 in y = 1/x
    k = np.arange(size)
    # a_k(1) = prod_{j <= k} (4 - (2j - 1)^2) / (k! 8^k)
    a = np.cumprod(np.append(1.0, (4.0 - (2 * k[1:] - 1.0) ** 2) / (8.0 * k[1:])))
    kept = np.where(k < n, (-1.0) ** (k // 2) * a, 0.0)
    P = np.where(k % 2 == 0, kept, 0.0)
    Q = np.where(k % 2 == 1, kept, 0.0)
    e = np.where((k == n) | (k == n + 1), np.abs(a), 0.0)
    mul = lambda x, y: np.convolve(x, y)[:size]  # product of polynomials in y
    series = [mul(P, P) + mul(Q, Q), -(mul(P, P) - mul(Q, Q)), -2.0 * mul(P, Q),
              2.0 * mul(np.abs(P) + np.abs(Q), e) + mul(e, e)]
    # y^j = 2^-j r^-j; the main part carries 1 / (2 pi^3 r^3), the bound 1 / (pi^3 r^3)
    halves = 0.5 ** k / math.pi ** 3
    smooth, sine, cosine, bound = (tuple((c * halves * f).tolist())
                                   for c, f in zip(series, (0.5, 0.5, 0.5, 1.0)))
    return Tail("power", 1.0, order=3.0, frequency=4.0, smooth=smooth, sine=sine,
                cosine=cosine, bound=bound)


_JINC_TAIL = _jinc_tail()


def _ball_radial(r: np.ndarray, wave: Callable, curvature: float) -> np.ndarray:
    """wave(r) / (pi r), and its series (1 - r^2 / curvature) / pi below |r| = 1e-6."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.asarray(wave(r) / (math.pi * r))
    small = np.abs(r) < 1e-6
    if small.any():
        out[small] = (1.0 - r[small] ** 2 / curvature) / math.pi
    return out


def _jinc_wave(r: np.ndarray) -> np.ndarray:
    from scipy import special  # loaded by the first jinc evaluation, not on import
    return special.j1(2.0 * r)


_sinc_radial = functools.partial(_ball_radial, wave=np.sin, curvature=6.0)
_jinc_radial = functools.partial(_ball_radial, wave=_jinc_wave, curvature=2.0)


def jinc_kernel(d: int) -> Kernel:
    """Most repulsive stationary kernel at intensity 1/pi on R^d, d in {1, 2}.

    The Fourier transform of the kernel is the indicator of a centred
    ball of unit-1/pi volume: the sinc kernel sin(|v-w|)/(pi |v-w|) for
    d = 1 and the jinc kernel J1(2|v-w|)/(pi |v-w|) for d = 2.
    """
    if d not in (1, 2):
        raise ValidationError("param-bound", "closed forms cover d in {1, 2} only")
    radial = _sinc_radial if d == 1 else _jinc_radial

    def radial_abs_sq(r):
        return radial(np.asarray(r, dtype=float)) ** 2

    def gram(X, Y):
        return radial(np.sqrt(np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=-1)))

    return Kernel(
        space=GroundSpace("euclidean", d),
        gram=gram,
        radial=radial,
        radial_abs_sq=radial_abs_sq,
        tail=_SINC_TAIL if d == 1 else _JINC_TAIL,
        p_u=1.0,
        norm_sq=1.0 / math.pi,
    )


def thin_rescale(kernel: Kernel, alpha: float, beta: float) -> Kernel:
    """Independent thinning with retention alpha*beta, then rescaling.

    Produces the kernel alpha * K(v / beta^(1/d), w / beta^(1/d)); the
    intensity scales by alpha, p_u by alpha*beta and norm_sq by
    alpha^2*beta.  A stationary kernel stays one, with radial
    alpha * k(r / beta^(1/d)).  The declared tail changes only its
    amplitude (by alpha^2) and its length scale (by beta^(1/d)), never a
    coefficient, so p_u = alpha * beta comes out at any beta, down to 1e-300.
    """
    if kernel.space.kind != "euclidean":
        raise ValidationError("param-bound", "thinning transform is for Euclidean kernels")
    if not 0.0 < beta <= 1.0:
        raise ValidationError("param-bound", "beta must lie in (0, 1]")
    if not 0.0 < alpha <= 1.0 / beta + 1e-12:
        raise ValidationError("param-bound", "alpha must lie in (0, 1/beta]")
    d = kernel.space.size
    c = beta ** (1.0 / d)
    square = named_overflow(lambda: alpha ** 2, f"the thinning's alpha^2 at alpha = {alpha:g}")

    def gram(X, Y):
        return alpha * kernel.gram(X / c, Y / c)

    radial = kernel.radial and (lambda r: alpha * kernel.radial(np.asarray(r, dtype=float) / c))
    radial_abs_sq = kernel.radial_abs_sq and (
        lambda r: square * kernel.radial_abs_sq(np.asarray(r, dtype=float) / c))
    scaled = lambda factor, value: None if value is None else factor * value
    return Kernel(space=kernel.space, gram=gram, radial=radial, radial_abs_sq=radial_abs_sq,
                  tail=kernel.tail and kernel.tail.rescaled(square, c),
                  p_u=scaled(alpha * beta, kernel.p_u),
                  norm_sq=scaled(square * beta, kernel.norm_sq))


def _multiplicity(ell: int, d: int) -> int:
    """Dimension of the degree-ell spherical harmonic space on S^d, exactly.

    On the circle the degree-0 space is the constants (dimension 1) and
    every higher degree has dimension 2.
    """
    if d == 1:
        return 1 if ell == 0 else 2
    return (2 * ell + d - 1) * math.comb(ell + d - 2, d - 2) // (d - 1)


@dataclass(frozen=True)
class SphereModel:
    """Isotropic sphere DPP given by Gegenbauer coefficients.

    beta_coeffs is the (truncated) probability mass over degrees with
    tail_bound covering the dropped remainder; eigenvalues and
    multiplicities are derived per degree.
    """

    d: int
    rho: float
    beta_coeffs: np.ndarray
    l_max: int
    tail_bound: float
    eigenvalues: np.ndarray
    multiplicities: np.ndarray


class SpherePResult(NamedTuple):
    """Series value of p_u with a bound on the truncated remainder."""

    value: float
    tail_bound: float


def sphere_model(d: int, rho: float, beta_coeffs: Sequence[float],
                 tail_bound: float = 0.0) -> SphereModel:
    """Build and validate an isotropic sphere model.

    Checks coefficient positivity, total mass (including the declared
    tail), and the existence condition that every derived eigenvalue
    rho * sigma_d * beta_ell / m_ell lies in [0, 1].
    """
    d = check_count("sphere dimension", d, 1)
    if not rho > 0:
        raise ValidationError("param-bound", "intensity must be > 0")
    beta = np.asarray(beta_coeffs, dtype=float)
    l_max = beta.size - 1
    if not np.all(beta >= 0):
        raise ValidationError("param-bound", "coefficients must be nonnegative")
    if not tail_bound >= 0:
        raise ValidationError("param-bound", "tail_bound must be >= 0")
    total = float(beta.sum())
    if not abs(total + tail_bound - 1.0) <= 1e-9:
        raise ValidationError(
            "param-bound",
            f"coefficients plus declared tail account for {total + tail_bound:.12g}, not 1")
    sigma = sphere_surface_measure(d)
    mult = np.array([_multiplicity(l, d) for l in range(l_max + 1)], dtype=float)
    lam = rho * sigma * beta / mult
    if np.any(lam > 1.0 + 1e-9):
        worst = int(np.argmax(lam))
        raise ValidationError(
            "existence-bound",
            f"eigenvalue {lam[worst]:.6g} at degree {worst} exceeds 1; the intensity "
            f"violates rho <= min m_ell / (sigma_d beta_ell)")
    lam = np.clip(lam, 0.0, 1.0)
    return SphereModel(d=d, rho=rho, beta_coeffs=beta, l_max=l_max,
                       tail_bound=tail_bound, eigenvalues=lam, multiplicities=mult)


def _series_k0(model: SphereModel) -> Callable[[np.ndarray], np.ndarray]:
    lam_geg = (model.d - 1) / 2.0

    def k0(t):
        t = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), -1.0, 1.0)
        out = gegenbauer_series(model.beta_coeffs, lam_geg, t)
        out *= model.rho
        return out

    return k0


def sphere_kernel(model: SphereModel) -> Kernel:
    """Kernel K(v, w) = K0(v . w) with K0 the Gegenbauer series of a
    sphere model, cut at its last coefficient.  Its declared p_u is that
    of the cut kernel, the eigen-series value over K0(1) / rho =
    sum beta_ell, which is less than 1 when the model declares a tail; a
    model with all of its mass in the tail has the zero kernel, and 0."""
    k0 = _series_k0(model)
    total = float(model.beta_coeffs.sum())
    p_u = sphere_p(model).value / total if total > 0.0 else 0.0
    return Kernel(space=GroundSpace("sphere", model.d), gram=lambda X, Y: k0(X @ Y.T),
                  k0=k0, p_u=p_u)


def multiquadric(delta: float, rho: float) -> tuple[SphereModel, Kernel]:
    """Multiquadric model on S^2: geometric Gegenbauer coefficients.

    K0(t) = rho (1 - delta) / sqrt(1 + delta^2 - 2 delta t), which exists
    for 0 < rho <= 1 / (4 pi (1 - delta)).  The returned kernel carries
    the closed form, and its declared p_u is the eigen-series' sum 4 pi
    rho (1 - delta)^2 atanh(delta) / delta; the model holds the coefficient
    sequence beta_ell = (1 - delta) delta^ell truncated below 1e-13 mass.
    Its p_u_reported is a commonly reported closed form, 4 pi rho
    (1 - delta) / (1 + delta), which disagrees with both the eigen-series
    and quadrature; it is carried for the flag, not adopted.
    """
    if not 0.0 < delta < 1.0:
        raise ValidationError("param-bound", "delta must lie in (0, 1)")
    bound = 1.0 / (4.0 * math.pi * (1.0 - delta))
    if not 0.0 < rho <= bound + 1e-12:
        raise ValidationError(
            "existence-bound",
            f"intensity must satisfy 0 < rho <= 1/(4 pi (1 - delta)) = {bound:.8g}")
    l_max = int(min(max(math.ceil(math.log(1e-13) / math.log(delta)), 12), 4000))
    ell = np.arange(l_max + 1)
    beta = (1.0 - delta) * delta ** ell.astype(float)
    tail = delta ** (l_max + 1)  # geometric remainder of the coefficient mass
    model = sphere_model(2, rho, beta, tail_bound=tail)

    def k0(t):
        t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
        with np.errstate(divide="ignore"):  # a root that rounds to 0 gives inf for the gate
            return rho * (1.0 - delta) / np.sqrt(1.0 + delta ** 2 - 2.0 * delta * t)

    # the reported closed form drops the 1/(2l+1) multiplicity factor
    return model, Kernel(
        space=GroundSpace("sphere", 2), gram=lambda X, Y: k0(X @ Y.T), k0=k0,
        p_u=4.0 * math.pi * rho * (1.0 - delta) ** 2 * math.atanh(delta) / delta,
        p_u_reported=4.0 * math.pi * rho * (1.0 - delta) / (1.0 + delta))


def sphere_p(model: SphereModel) -> SpherePResult:
    """Series value p_u = rho sigma_d sum beta_ell^2 / m_ell.

    The dropped coefficients are >= 0 and sum to at most the declared
    tail T, and m_ell never decreases, so the dropped terms add at most
    rho sigma_d T^2 / m_{L+1}; all of T on degree L + 1 attains it.
    """
    sigma = sphere_surface_measure(model.d)
    value = float(model.rho * sigma * np.sum(model.beta_coeffs ** 2 / model.multiplicities))
    m_next = _multiplicity(model.l_max + 1, model.d)
    return SpherePResult(value=value,
                         tail_bound=float(model.rho * sigma * model.tail_bound ** 2 / m_next))
