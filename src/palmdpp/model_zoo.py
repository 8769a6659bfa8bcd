"""Parametric kernel families.

Scaled Ginibre kernels on the complex plane, the sinc/jinc kernels whose
Fourier transform is a ball indicator (the most repulsive stationary
kernels at intensity 1/pi), independent thinning with rescaling, and
isotropic kernels on spheres driven by Gegenbauer coefficient sequences,
including the multiquadric family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import integrate, special

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
    "fourier_ball_kernel_value",
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
    M = dpp.matrix

    def eval_sites(u, v, _M=M):
        return complex(_M[int(u) - 1, int(v) - 1])

    return Kernel(space=GroundSpace.finite(dpp.n), evaluate=eval_sites,
                  descriptor={"family": "finite", "params": {"n": dpp.n},
                              "matrix": M, "dpp": dpp})


def _as_complex(p) -> complex:
    a = np.asarray(p, dtype=float)
    return complex(a[0], a[1])


def ginibre_kernel(params: GinibreParams) -> Kernel:
    """Scaled Ginibre kernel on the plane (complex coordinates).

    K(v, w) = (alpha/pi) exp(v conj(w)/beta - (|v|^2 + |w|^2)/(2 beta));
    alpha = beta = 1 is the standard Ginibre kernel with intensity 1/pi.
    """
    alpha, beta = params.alpha, params.beta

    def eval_pts(v, w, _a=alpha, _b=beta):
        zv, zw = _as_complex(v), _as_complex(w)
        return (_a / math.pi) * np.exp(zv * zw.conjugate() / _b
                                       - (abs(zv) ** 2 + abs(zw) ** 2) / (2.0 * _b))

    def radial_abs_sq(r, _a=alpha, _b=beta):
        r = np.asarray(r, dtype=float)
        return (_a / math.pi) ** 2 * np.exp(-r ** 2 / _b)

    def gram(points, _a=alpha, _b=beta):
        pts = np.asarray(points, dtype=float)
        z = pts[:, 0] + 1j * pts[:, 1]
        zz = z[:, None] * z.conj()[None, :]
        sq = np.abs(z) ** 2
        return (_a / math.pi) * np.exp(zz / _b - (sq[:, None] + sq[None, :]) / (2.0 * _b))

    return Kernel(
        space=GroundSpace.euclidean(2),
        evaluate=eval_pts,
        descriptor={
            "family": "ginibre",
            "params": {"alpha": alpha, "beta": beta},
            "isotropic_modulus": True,
            "intensity": alpha / math.pi,
            "norm_sq": alpha ** 2 * beta / math.pi,
            "p_u": alpha * beta,
            "projection": abs(alpha - 1.0) < 1e-15 and abs(beta - 1.0) < 1e-15,
            "tail": Tail("gaussian", math.sqrt(beta), amplitude=(alpha / math.pi) ** 2),
            "radial_abs_sq": radial_abs_sq,
            "gram": gram,
        },
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

    def eval_pts(v, w, _radial=radial):
        dist = float(np.linalg.norm(np.asarray(v, dtype=float) - np.asarray(w, dtype=float)))
        return complex(_radial(np.array([dist]))[0])

    def radial_abs_sq(r, _radial=radial):
        return _radial(np.asarray(r, dtype=float)) ** 2

    def gram(points, _radial=radial):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(diff ** 2, axis=-1))
        return _radial(dist)

    return Kernel(
        space=GroundSpace.euclidean(d),
        evaluate=eval_pts,
        descriptor={
            "family": "jinc" if d == 2 else "sinc",
            "params": {"d": d},
            "isotropic_modulus": True,
            "intensity": 1.0 / math.pi,
            "norm_sq": 1.0 / math.pi,
            "p_u": 1.0,
            "projection": True,
            "tail": _SINC_TAIL if d == 1 else _JINC_TAIL,
            "radial_abs_sq": radial_abs_sq,
            "gram": gram,
        },
    )


def fourier_ball_kernel_value(d: int, r: float) -> float:
    """Fourier-ball kernel value at separation r for general dimension.

    Evaluates the inverse transform of the ball indicator of volume
    1/pi by one-dimensional quadrature; slow, intended for validating
    the closed forms and for occasional general-d use.
    """
    if d < 1:
        raise ValidationError("param-bound", "dimension must be >= 1")
    radius = (d * math.gamma(d / 2.0) / (2.0 * math.pi ** (1.0 + d / 2.0))) ** (1.0 / d)
    if d == 1:
        if abs(r) < 1e-12:
            return 2.0 * radius
        return math.sin(2.0 * math.pi * radius * r) / (math.pi * r)
    nu = d / 2.0 - 1.0
    norm = (2.0 * math.pi) ** (d / 2.0)
    limit0 = 1.0 / (2.0 ** nu * math.gamma(nu + 1.0))

    def integrand(t: float) -> float:
        z = 2.0 * math.pi * r * t
        osc = limit0 if z < 1e-10 else special.jv(nu, z) / z ** nu
        return norm * t ** (d - 1) * osc

    val, _ = integrate.quad(integrand, 0.0, radius, epsabs=1e-14, epsrel=1e-12, limit=200)
    return val


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
    base = kernel.evaluate

    def eval_pts(v, w, _base=base, _a=alpha, _c=c):
        return _a * _base(np.asarray(v, dtype=float) / _c, np.asarray(w, dtype=float) / _c)

    desc = dict(kernel.descriptor)
    new_desc = {
        "family": f"thinned({desc.get('family', 'kernel')})",
        "params": {**desc.get("params", {}), "alpha": alpha, "beta": beta},
        "isotropic_modulus": desc.get("isotropic_modulus", False),
        "projection": bool(desc.get("projection", False)) and abs(alpha * beta - 1.0) < 1e-15,
    }
    if "intensity" in desc:
        new_desc["intensity"] = alpha * desc["intensity"]
    if "norm_sq" in desc:
        new_desc["norm_sq"] = alpha ** 2 * beta * desc["norm_sq"]
    if "p_u" in desc:
        new_desc["p_u"] = alpha * beta * desc["p_u"]
    if "tail" in desc:
        new_desc["tail"] = desc["tail"].rescaled(alpha ** 2, c)
    if "radial_abs_sq" in desc:
        old_radial = desc["radial_abs_sq"]
        new_desc["radial_abs_sq"] = (
            lambda r, _f=old_radial, _a=alpha, _c=c:
            _a ** 2 * _f(np.asarray(r, dtype=float) / _c))
    if "gram" in desc:
        old_gram = desc["gram"]
        new_desc["gram"] = (
            lambda points, _g=old_gram, _a=alpha, _c=c:
            _a * _g(np.asarray(points, dtype=float) / _c))
    return Kernel(space=kernel.space, evaluate=eval_pts, descriptor=new_desc)


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
    be supplied instead (the multiquadric constructor does).
    """
    if k0 is None:
        k0 = _series_k0(model)

    def eval_pts(v, w, _k0=k0):
        t = float(np.clip(np.dot(np.asarray(v, dtype=float), np.asarray(w, dtype=float)),
                          -1.0, 1.0))
        return complex(np.atleast_1d(_k0(t))[0])

    def gram(points, _k0=k0):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        t = np.clip(pts @ pts.T, -1.0, 1.0)
        return np.asarray(_k0(t), dtype=float)

    return Kernel(
        space=GroundSpace.sphere(model.d),
        evaluate=eval_pts,
        descriptor={
            "family": "sphere",
            "params": {"d": model.d, "rho": model.rho},
            "isotropic_modulus": True,
            "intensity": model.rho,
            "k0": k0,
            "model": model,
            "gram": gram,
        },
    )


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
    kernel.descriptor["family"] = "sphere-multiquadric"
    kernel.descriptor["params"] = {"delta": delta, "rho": rho}
    # a commonly reported closed form for this family drops the 1/(2l+1)
    # multiplicity factor and disagrees with the eigen-series; carried as
    # a flagged reference value, not adopted
    kernel.descriptor["p_u_reported"] = 4.0 * math.pi * rho * (1.0 - delta) / (1.0 + delta)
    return model, kernel


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
