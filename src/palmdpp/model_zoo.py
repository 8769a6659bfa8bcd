"""Parametric kernel families.

Scaled Ginibre kernels on the complex plane, the sinc/jinc kernels whose
Fourier transform is a ball indicator (the most repulsive stationary
kernels at intensity 1/pi), independent thinning with rescaling, and
isotropic kernels on spheres driven by Gegenbauer coefficient sequences,
including the multiquadric family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import special

from .errors import ValidationError
from .finite_dpp import FiniteDpp, validate
from .kernel_core import GroundSpace, Kernel, sphere_surface_measure
from .numerics import Tail, gegenbauer_ratio_table

__all__ = [
    "GinibreParams",
    "SphereModel",
    "SpherePResult",
    "finite_kernel",
    "ginibre_kernel",
    "jinc_kernel",
    "thin_rescale",
    "sphere_multiplicity",
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


def finite_kernel(dpp: FiniteDpp | np.ndarray) -> Kernel:
    """Wrap a validated kernel matrix as a Kernel on finite sites 1..n."""
    if not isinstance(dpp, FiniteDpp):
        dpp = validate(dpp)

    def gram(X, Y, _M=dpp.matrix):
        return _M[np.ix_(np.asarray(X, dtype=int) - 1, np.asarray(Y, dtype=int) - 1)]

    return Kernel(space=GroundSpace.finite(dpp.n), gram=gram)


def ginibre_kernel(params: GinibreParams) -> Kernel:
    """Scaled Ginibre kernel on the plane (complex coordinates).

    K(v, w) = (alpha/pi) exp(v conj(w)/beta - (|v|^2 + |w|^2)/(2 beta));
    alpha = beta = 1 is the standard Ginibre kernel with intensity 1/pi.
    """
    alpha, beta = params.alpha, params.beta

    def radial_abs_sq(r, _a=alpha, _b=beta):
        r = np.asarray(r, dtype=float)
        return (_a / math.pi) ** 2 * np.exp(-r ** 2 / _b)

    def gram(X, Y, _a=alpha, _b=beta):
        zx, zy = X[:, 0] + 1j * X[:, 1], Y[:, 0] + 1j * Y[:, 1]
        zz = zx[:, None] * zy.conj()[None, :]
        sq = np.abs(zx)[:, None] ** 2 + np.abs(zy)[None, :] ** 2
        return (_a / math.pi) * np.exp(zz / _b - sq / (2.0 * _b))

    return Kernel(
        space=GroundSpace.euclidean(2),
        gram=gram,
        radial_abs_sq=radial_abs_sq,
        tail=Tail("gaussian", math.sqrt(beta), amplitude=(alpha / math.pi) ** 2),
        reference={"norm_sq": alpha ** 2 * beta / math.pi, "p_u": alpha * beta},
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


def _sinc_radial(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(np.sin(r) / (math.pi * r))
    small = np.abs(r) < 1e-6
    if small.any():
        out[small] = (1.0 - r[small] ** 2 / 6.0) / math.pi
    return out


def _jinc_radial(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(special.j1(2.0 * r) / (math.pi * r))
    small = np.abs(r) < 1e-6
    if small.any():
        out[small] = (1.0 - r[small] ** 2 / 2.0) / math.pi
    return out


def jinc_kernel(d: int) -> Kernel:
    """Most repulsive stationary kernel at intensity 1/pi on R^d, d in {1, 2}.

    The Fourier transform of the kernel is the indicator of a centred
    ball of unit-1/pi volume: the sinc kernel sin(|v-w|)/(pi |v-w|) for
    d = 1 and the jinc kernel J1(2|v-w|)/(pi |v-w|) for d = 2.
    """
    if d not in (1, 2):
        raise ValidationError("param-bound", "closed forms cover d in {1, 2} only")
    radial = _sinc_radial if d == 1 else _jinc_radial

    def radial_abs_sq(r, _radial=radial):
        return _radial(np.asarray(r, dtype=float)) ** 2

    def gram(X, Y, _radial=radial):
        return _radial(np.sqrt(np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=-1)))

    return Kernel(
        space=GroundSpace.euclidean(d),
        gram=gram,
        radial_abs_sq=radial_abs_sq,
        tail=_SINC_TAIL if d == 1 else _JINC_TAIL,
        reference={"norm_sq": 1.0 / math.pi, "p_u": 1.0},
    )


def thin_rescale(kernel: Kernel, alpha: float, beta: float) -> Kernel:
    """Independent thinning with retention alpha*beta, then rescaling.

    Produces the kernel alpha * K(v / beta^(1/d), w / beta^(1/d)); the
    intensity scales by alpha and p_u by alpha*beta.
    """
    if kernel.space.kind != "euclidean":
        raise ValidationError("param-bound", "thinning transform is for Euclidean kernels")
    if not 0.0 < beta <= 1.0:
        raise ValidationError("param-bound", "beta must lie in (0, 1]")
    if not 0.0 < alpha <= 1.0 / beta + 1e-12:
        raise ValidationError("param-bound", "alpha must lie in (0, 1/beta]")
    d = kernel.space.size
    c = beta ** (1.0 / d)

    def gram(X, Y, _g=kernel.gram, _a=alpha, _c=c):
        return _a * _g(X / _c, Y / _c)

    radial_abs_sq = kernel.radial_abs_sq
    if radial_abs_sq is not None:
        radial_abs_sq = (lambda r, _f=radial_abs_sq, _a=alpha, _c=c:
                         _a ** 2 * _f(np.asarray(r, dtype=float) / _c))
    scale = {"p_u": alpha * beta, "norm_sq": alpha ** 2 * beta}
    return Kernel(space=kernel.space, gram=gram, radial_abs_sq=radial_abs_sq,
                  tail=kernel.tail and kernel.tail.rescaled(alpha ** 2, c),
                  reference={key: scale[key] * v for key, v in kernel.reference.items()})


def sphere_multiplicity(ell: int, d: int) -> int:
    """Dimension of the degree-ell spherical harmonic space on S^d.

    On the circle the degree-0 space is the constants (dimension 1) and
    every higher degree has dimension 2.
    """
    if ell < 0 or d < 1:
        raise ValidationError("param-bound", "need ell >= 0 and d >= 1")
    if d == 1:
        return 1 if ell == 0 else 2
    num = (2 * ell + d - 1) * math.factorial(ell + d - 2)
    den = (d - 1) * math.factorial(ell) * math.factorial(d - 2)
    return round(num / den)


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
    warning: str | None


def sphere_model(d: int, rho: float, beta_coeffs: Sequence[float],
                 l_max: int | None = None, tail_bound: float = 0.0) -> SphereModel:
    """Build and validate an isotropic sphere model.

    Checks coefficient positivity, total mass (including the declared
    tail), and the existence condition that every derived eigenvalue
    rho * sigma_d * beta_ell / m_ell lies in [0, 1].
    """
    if d < 1:
        raise ValidationError("param-bound", "sphere dimension must be >= 1")
    if rho <= 0:
        raise ValidationError("param-bound", "intensity must be > 0")
    beta = np.asarray(beta_coeffs, dtype=float)
    if l_max is None:
        l_max = beta.size - 1
    if beta.size != l_max + 1:
        raise ValidationError("param-bound",
                              f"expected {l_max + 1} coefficients, got {beta.size}")
    if np.any(beta < 0):
        raise ValidationError("param-bound", "coefficients must be nonnegative")
    if tail_bound < 0:
        raise ValidationError("param-bound", "tail_bound must be >= 0")
    total = float(beta.sum())
    if total > 1.0 + 1e-9:
        raise ValidationError("param-bound", f"coefficients sum to {total:.12g} > 1")
    if abs(total + tail_bound - 1.0) > 1e-9:
        raise ValidationError(
            "param-bound",
            f"coefficients plus declared tail account for {total + tail_bound:.12g}, not 1")
    sigma = sphere_surface_measure(d)
    mult = np.array([sphere_multiplicity(l, d) for l in range(l_max + 1)], dtype=float)
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

    def k0(t, _m=model, _lam=lam_geg):
        t = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), -1.0, 1.0)
        table = gegenbauer_ratio_table(_m.l_max, _lam, t)
        return _m.rho * (_m.beta_coeffs @ table.reshape(table.shape[0], -1)).reshape(t.shape)

    return k0


def sphere_kernel(model: SphereModel,
                  k0: Callable[[np.ndarray], np.ndarray] | None = None) -> Kernel:
    """Kernel K(v, w) = K0(v . w) from a sphere model.

    K0 defaults to the Gegenbauer series of the model; a closed form can
    be supplied instead (the multiquadric constructor does).  The
    reference p_u is the model's eigen-series value.
    """
    if k0 is None:
        k0 = _series_k0(model)

    def gram(X, Y, _k0=k0):
        return np.asarray(_k0(np.clip(X @ Y.T, -1.0, 1.0)), dtype=float)

    return Kernel(space=GroundSpace.sphere(model.d), gram=gram, k0=k0,
                  reference={"p_u": sphere_p(model).value})


def multiquadric(delta: float, rho: float) -> tuple[SphereModel, Kernel]:
    """Multiquadric model on S^2: geometric Gegenbauer coefficients.

    K0(t) = rho (1 - delta) / sqrt(1 + delta^2 - 2 delta t), which exists
    for 0 < rho <= 1 / (4 pi (1 - delta)).  The returned kernel carries
    the closed form; the model holds the coefficient sequence
    beta_ell = (1 - delta) delta^ell truncated below 1e-13 mass.
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
    model = sphere_model(2, rho, beta, l_max=l_max, tail_bound=tail)

    def k0(t, _rho=rho, _delta=delta):
        t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
        return _rho * (1.0 - _delta) / np.sqrt(1.0 + _delta ** 2 - 2.0 * _delta * t)

    kernel = sphere_kernel(model, k0=k0)
    # a commonly reported closed form for this family drops the 1/(2l+1)
    # multiplicity factor and disagrees with the eigen-series; carried as
    # a flagged reference value, not adopted
    reported = 4.0 * math.pi * rho * (1.0 - delta) / (1.0 + delta)
    return model, replace(kernel, reference={**kernel.reference, "p_u_reported": reported})


def sphere_p(model: SphereModel) -> SpherePResult:
    """Series value p_u = rho sigma_d sum beta_ell^2 / m_ell.

    The truncated remainder is bounded by the geometric continuation of
    the trailing coefficients when they decay geometrically, and by the
    square of the declared coefficient tail otherwise (with a warning,
    since that generic bound is crude).
    """
    sigma = sphere_surface_measure(model.d)
    value = float(model.rho * sigma * np.sum(model.beta_coeffs ** 2 / model.multiplicities))
    warning = None
    if model.tail_bound == 0.0:
        tail = 0.0
    else:
        beta = model.beta_coeffs
        tail = model.rho * sigma * model.tail_bound ** 2
        if beta.size >= 6 and np.all(beta[-6:] > 0):
            ratios = beta[-5:] / beta[-6:-1]
            q = float(ratios[-1])
            if q < 1.0 and np.max(np.abs(ratios - q)) <= 1e-9 * q:
                m_next = sphere_multiplicity(model.l_max + 1, model.d)
                tail = model.rho * sigma * (beta[-1] * q) ** 2 / ((1.0 - q ** 2) * m_next)
            else:
                warning = ("coefficient decay is not geometric; the tail bound "
                           "is the generic square bound")
        else:
            warning = ("too few trailing coefficients to certify geometric decay; "
                       "the tail bound is the generic square bound")
    return SpherePResult(value=value, tail_bound=tail, warning=warning)
