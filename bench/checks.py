"""Output checks for the benchmark, computed apart from palmdpp.

Every reference value here comes from the spec the benchmark wrote and
from closed forms evaluated with numpy/scipy; nothing is taken from the
program under test.  Each check returns a list of problems; an empty
list means the output passed.

Statistical checks are exact binomial tests or 6-sigma normal bounds,
so a correct program fails one of them with probability below about
1e-9 per test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

EXACT_TOL = 1e-8          # absolute tolerance for exact finite-law values
FLOW_TOL = 1e-8           # a saturating coupling flow reaches 1 - FLOW_TOL
PRINT_REL = 1e-11         # CSV values carry 12 significant digits
PROFILE_REL = 1e-9        # closed-form profiles are evaluated exactly
P_FLOOR = 1e-9            # two-sided p-value below which a binomial test fails
Z_BOUND = 6.0             # normal bound for sums of many draws


# ---------------------------------------------------------------- parsing

def parse_blocks(text: str) -> list[tuple[list[str], np.ndarray]]:
    """Split CLI output into (header, rows) CSV blocks separated by blank lines."""
    blocks = []
    for chunk in text.strip("\n").split("\n\n"):
        lines = chunk.strip("\n").split("\n")
        header = lines[0].split(",")
        rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
        blocks.append((header, np.array(rows, dtype=float).reshape(len(rows), len(header))))
    return blocks


def _block(text: str, index: int, header: list[str]) -> np.ndarray:
    blocks = parse_blocks(text)
    if len(blocks) <= index:
        raise ValueError(f"output has {len(blocks)} blocks, expected block {index}")
    got, rows = blocks[index]
    if got != header:
        raise ValueError(f"block {index} header {got} != {header}")
    return rows


def guarded(check):
    """Turn a parse failure inside a check into a reported problem."""
    def run(text: str, *args, **kwargs) -> list[str]:
        try:
            return check(text, *args, **kwargs)
        except (ValueError, IndexError) as exc:
            return [f"unparseable output: {exc}"]
    run.__name__ = check.__name__
    run.__doc__ = check.__doc__
    return run


# ------------------------------------------------------------ statistics

def binomial_pvalue(k: int, n: int, p: float) -> float:
    """Two-sided exact p-value of k successes in n Binomial(n, p) trials."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    lower = float(special.bdtr(k, n, p))
    upper = float(special.bdtrc(k - 1, n, p)) if k > 0 else 1.0
    return min(1.0, 2.0 * min(lower, upper))


@dataclass(frozen=True)
class CountLaw:
    """Moments of the point count of a DPP with eigenvalues lam.

    The count is a sum of independent Bernoulli(lam_i) variables.
    kappa4 is its fourth cumulant, used for the spread of the sample
    variance.
    """

    mean: float
    var: float
    kappa4: float

    @staticmethod
    def from_eigenvalues(lam) -> "CountLaw":
        lam = np.clip(np.asarray(lam, dtype=float), 0.0, 1.0)
        q = lam * (1.0 - lam)
        return CountLaw(mean=float(lam.sum()), var=float(q.sum()),
                        kappa4=float(np.sum(q * (1.0 - 6.0 * q))))


def count_problems(counts, law: CountLaw, label: str) -> list[str]:
    """Sample mean and variance of i.i.d. counts against their exact law."""
    c = np.asarray(counts, dtype=float)
    m = c.size
    problems = []
    mean_tol = Z_BOUND * math.sqrt(law.var / m) + 1e-9
    if abs(c.mean() - law.mean) > mean_tol:
        problems.append(f"{label}: mean count {c.mean():.6g} vs {law.mean:.6g} "
                        f"(tolerance {mean_tol:.3g})")
    # variance about the known mean: unbiased, with Var = (kappa4 + 2 var^2) / m
    s2 = float(np.mean((c - law.mean) ** 2))
    var_tol = Z_BOUND * math.sqrt(max(law.kappa4 + 2.0 * law.var ** 2, 0.0) / m) + 1e-9
    if abs(s2 - law.var) > var_tol:
        problems.append(f"{label}: count variance {s2:.6g} vs {law.var:.6g} "
                        f"(tolerance {var_tol:.3g})")
    return problems


# ------------------------------------------------------------ finite laws

def p_u_exact(K: np.ndarray, u: int) -> float:
    """p_u = (K^2)_uu / K_uu at 1-based site u."""
    i = u - 1
    return float(np.sum(np.abs(K[i, :]) ** 2) / K[i, i].real)


def f_u_exact(K: np.ndarray, u: int) -> np.ndarray:
    """Law of the removed point, f_u[v] = |K_uv|^2 / (K^2)_uu."""
    row = np.abs(K[u - 1, :]) ** 2
    return row / row.sum()


@guarded
def check_couple(text: str, K: np.ndarray, u: int, samples: int) -> list[str]:
    """`couple` output: saturating flow, exact p_u and f_u, empirical columns."""
    n = K.shape[0]
    summary = _block(text, 0, ["max_flow", "p_u_exact", "p_u_empirical"])
    table = _block(text, 1, ["site", "f_u_exact", "f_u_empirical"])
    problems = []
    flow, p_prog, p_hat = summary[0]
    p = p_u_exact(K, u)
    f = f_u_exact(K, u)
    if not flow >= 1.0 - FLOW_TOL:
        problems.append(f"max_flow {flow!r} < 1 - {FLOW_TOL}")
    if abs(p_prog - p) > EXACT_TOL:
        problems.append(f"p_u_exact {p_prog!r} vs (K^2)_uu/K_uu = {p!r}")
    if table.shape[0] != n or not np.array_equal(table[:, 0], np.arange(1, n + 1)):
        return problems + [f"site column is not 1..{n}"]
    worst = float(np.max(np.abs(table[:, 1] - f)))
    if worst > EXACT_TOL:
        problems.append(f"f_u_exact misses |K_uv|^2/(K^2)_uu by {worst:.3e}")
    removals = int(round(p_hat * samples))
    if binomial_pvalue(removals, samples, p) < P_FLOOR:
        problems.append(f"p_u_empirical {p_hat!r} is implausible for p_u = {p:.6g} "
                        f"over {samples} draws")
    if removals:
        for v in range(n):
            k = int(round(table[v, 2] * removals))
            if binomial_pvalue(k, removals, f[v]) < P_FLOOR:
                problems.append(f"f_u_empirical at site {v + 1}: {k}/{removals} "
                                f"removals vs f_u = {f[v]:.6g}")
    return problems


@guarded
def check_finite_sample(text: str, K: np.ndarray, samples: int) -> list[str]:
    """`sample --emit-points` on a finite kernel: inclusions and counts."""
    n = K.shape[0]
    counts = _block(text, 0, ["sample", "count"])
    points = _block(text, 1, ["sample", "site"])
    problems = []
    if counts.shape[0] != samples:
        return [f"{counts.shape[0]} sample rows, expected {samples}"]
    sites = points[:, 1].astype(int)
    if sites.size and (sites.min() < 1 or sites.max() > n):
        return [f"site index outside 1..{n}"]
    per_sample = np.bincount(points[:, 0].astype(int), minlength=samples)
    if not np.array_equal(per_sample[:samples], counts[:, 1].astype(int)):
        problems.append("counts disagree with the emitted points")
    hits = np.bincount(sites - 1, minlength=n)
    diag = np.clip(np.real(np.diag(K)), 0.0, 1.0)
    for v in range(n):
        if binomial_pvalue(int(hits[v]), samples, float(diag[v])) < P_FLOOR:
            problems.append(f"site {v + 1} drawn {hits[v]}/{samples} times vs "
                            f"K_vv = {diag[v]:.6g}")
    law = CountLaw.from_eigenvalues(np.linalg.eigvalsh(K))
    problems += count_problems(counts[:, 1], law, "finite count")
    return problems


# -------------------------------------------------------------- grid laws

def euclidean_centers(window, resolution: int):
    """Cell centers of a uniform resolution x resolution grid, and the cell area."""
    x0, x1, y0, y1 = window
    hx, hy = (x1 - x0) / resolution, (y1 - y0) / resolution
    xs = x0 + hx * (np.arange(resolution) + 0.5)
    ys = y0 + hy * (np.arange(resolution) + 0.5)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()]), hx * hy


def sphere_centers(resolution: int):
    """Equal-area sphere cells: uniform bands in z, 2*resolution longitudes."""
    z = -1.0 + 2.0 * (np.arange(resolution) + 0.5) / resolution
    phi = 2.0 * math.pi * (np.arange(2 * resolution) + 0.5) / (2 * resolution)
    zz, pp = np.meshgrid(z, phi, indexing="ij")
    s = np.sqrt(1.0 - zz ** 2)
    pts = np.column_stack([(s * np.cos(pp)).ravel(), (s * np.sin(pp)).ravel(), zz.ravel()])
    return pts, 4.0 * math.pi / pts.shape[0]


def ginibre_gram(pts: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """(alpha/pi) exp(z conj(w)/beta - (|z|^2 + |w|^2)/(2 beta))."""
    z = pts[:, 0] + 1j * pts[:, 1]
    sq = np.abs(z) ** 2
    return (alpha / math.pi) * np.exp(np.outer(z, z.conj()) / beta
                                      - (sq[:, None] + sq[None, :]) / (2.0 * beta))


def jinc_value(r, alpha: float = 1.0, beta: float = 1.0):
    """Thinned jinc kernel alpha J1(2r/c) / (pi r/c), c = sqrt(beta), on the plane."""
    x = np.asarray(r, dtype=float) / math.sqrt(beta)
    safe = np.where(x > 0, x, 1.0)
    return alpha * np.where(x > 0, special.j1(2.0 * safe) / (math.pi * safe), 1.0 / math.pi)


def sinc_value(r, alpha: float = 1.0, beta: float = 1.0):
    """Thinned sinc kernel alpha sin(r/beta) / (pi r/beta) on the line."""
    x = np.asarray(r, dtype=float) / beta
    return alpha * np.sinc(x / math.pi) / math.pi


def jinc_gram(pts: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    return jinc_value(dist, alpha, beta)


def multiquadric_k0(t, delta: float, rho: float):
    """rho (1 - delta) / sqrt(1 + delta^2 - 2 delta t)."""
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    return rho * (1.0 - delta) / np.sqrt(1.0 + delta ** 2 - 2.0 * delta * t)


def grid_count_law(gram: np.ndarray, measure: float) -> CountLaw:
    """Count law of the DPP with matrix gram * measure, spectrum clamped to [0, 1]."""
    M = gram * measure
    return CountLaw.from_eigenvalues(np.linalg.eigvalsh(0.5 * (M + M.conj().T)))


@guarded
def check_grid_sample(text: str, n_cells: int, samples: int) -> list[str]:
    """`sample` on a grid: one count per draw, each within [0, n_cells]."""
    counts = _block(text, 0, ["sample", "count"])
    if counts.shape[0] != samples:
        return [f"{counts.shape[0]} sample rows, expected {samples}"]
    if not np.array_equal(counts[:, 0], np.arange(samples)):
        return ["sample column is not 0..samples-1"]
    c = counts[:, 1]
    if np.any(c < 0) or np.any(c > n_cells) or np.any(c != np.round(c)):
        return [f"counts outside the integers 0..{n_cells}"]
    return []


def grid_counts(text: str) -> np.ndarray:
    return _block(text, 0, ["sample", "count"])[:, 1]


def pooled_count_problems(draws: list[tuple[float, CountLaw]]) -> list[str]:
    """Counts pooled over every grid draw of a run, each against its own law.

    The sum of (c - mean) and the sum of (c - mean)^2 - var are both
    centred, with variances sum(var) and sum(kappa4 + 2 var^2).
    """
    if not draws:
        return []
    dev = sum(c - law.mean for c, law in draws)
    dev_sd = math.sqrt(sum(law.var for _, law in draws))
    sq = sum((c - law.mean) ** 2 - law.var for c, law in draws)
    sq_sd = math.sqrt(sum(max(law.kappa4 + 2.0 * law.var ** 2, 0.0) for _, law in draws))
    problems = []
    if abs(dev) > Z_BOUND * dev_sd + 1e-9:
        problems.append(f"pooled grid counts deviate from their means by {dev:.4g} "
                        f"(sd {dev_sd:.4g}, {len(draws)} draws)")
    if abs(sq) > Z_BOUND * sq_sd + 1e-9:
        problems.append(f"pooled grid count variance deviates by {sq:.4g} "
                        f"(sd {sq_sd:.4g}, {len(draws)} draws)")
    return problems


# ------------------------------------------------------------ radial laws

def jinc_moment(k: float) -> float:
    """E|Z|^k for the jinc displacement; infinite for k >= 1."""
    if k >= 1.0:
        return math.inf
    g = special.gamma
    return float(g(1 + k / 2) * g(1 - k) / (g(2 - k / 2) * g(1 - k / 2) ** 2))


def ginibre_moment(k: float, rho: float) -> float:
    """E|Z|^k for the Ginibre displacement at intensity rho (|Z|^2 exponential)."""
    return float(special.gamma(1 + k / 2) / (math.pi * rho) ** (k / 2))


def multiquadric_p(delta: float, rho: float) -> float:
    """p_u = 4 pi rho (1 - delta)^2 atanh(delta) / delta."""
    return 4.0 * math.pi * rho * (1.0 - delta) ** 2 * math.atanh(delta) / delta


def sphere_coefficients_p(rho: float, beta_coeffs) -> float:
    """p_u = 4 pi rho sum beta_l^2 / (2l + 1) on S^2."""
    b = np.asarray(beta_coeffs, dtype=float)
    return float(4.0 * math.pi * rho * np.sum(b ** 2 / (2.0 * np.arange(b.size) + 1.0)))


def sphere_coefficients_k0(t, rho: float, beta_coeffs):
    """rho sum beta_l P_l(t) on S^2 (Legendre polynomials)."""
    t = np.asarray(t, dtype=float)
    return rho * sum(b * special.eval_legendre(l, t) for l, b in enumerate(beta_coeffs))


def _close(got, want, tol) -> np.ndarray:
    return np.abs(np.asarray(got) - np.asarray(want)) <= tol


@guarded
def check_repulsiveness(text: str, p_true: float, abs_sq, norm_sq: float) -> list[str]:
    """`repulsiveness` output: p_u and the f_u profile against closed forms.

    abs_sq maps the profile coordinate to |K(u, .)|^2 there; norm_sq is
    the exact squared row norm, so f_u = abs_sq / norm_sq.
    """
    summary = _block(text, 0, ["p_u", "norm_sq", "quadrature_error",
                               "p_u_reference", "discrepancy"])
    profile = _block(text, 1, ["coordinate", "f_u"])
    p, _, err, _, _ = summary[0]
    problems = []
    if not abs(p - p_true) <= err + PRINT_REL * max(1.0, abs(p_true)):
        problems.append(f"p_u {p!r} misses the closed form {p_true!r} by "
                        f"{abs(p - p_true):.3e} > reported error {err:.3e}")
    want = abs_sq(profile[:, 0]) / norm_sq
    rel = err / max(p_true, 1e-300) + PROFILE_REL
    bad = ~_close(profile[:, 1], want, rel * np.abs(want) + 1e-15)
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"f_u profile at {profile[i, 0]!r}: {profile[i, 1]!r} vs "
                        f"{want[i]!r} ({int(bad.sum())} rows off)")
    return problems


def ginibre_profile(r, beta: float):
    """Density of |Z| for Ginibre with alpha = 1: 2 r exp(-r^2/beta) / beta."""
    r = np.asarray(r, dtype=float)
    return 2.0 * r * np.exp(-r ** 2 / beta) / beta


def jinc_profile(r, beta: float):
    """Density of |Z| for jinc thinned by beta: 2 J1(2 r / sqrt(beta))^2 / r."""
    r = np.asarray(r, dtype=float)
    safe = np.where(r > 0, r, 1.0)
    return np.where(r > 0, 2.0 * special.j1(2.0 * safe / math.sqrt(beta)) ** 2 / safe, 0.0)


@guarded
def check_profile(text: str, beta: float, radii) -> list[str]:
    """`profile` output: both radial densities against their closed forms."""
    rows = _block(text, 0, ["r", "density_ginibre", "density_jinc"])
    radii = np.asarray(radii, dtype=float)
    if rows.shape[0] != radii.size or not np.all(_close(rows[:, 0], radii, 1e-11 * (1 + radii))):
        return [f"radius column differs from the requested {radii.size}-point grid"]
    problems = []
    for col, name, fn in ((1, "ginibre", ginibre_profile), (2, "jinc", jinc_profile)):
        want = fn(radii, beta)
        bad = ~_close(rows[:, col], want, PROFILE_REL * np.abs(want) + 1e-12)
        if bad.any():
            i = int(np.argmax(bad))
            problems.append(f"{name} density at r={radii[i]!r}: {rows[i, col]!r} vs {want[i]!r}")
    return problems


@guarded
def check_moment(text: str, k: float, closed: float) -> list[str]:
    """`moments` row: divergent exactly when the closed form is infinite,
    otherwise the quadrature within its reported error."""
    rows = _block(text, 0, ["k", "closed_form", "quadrature", "abs_error",
                            "tail_estimate", "divergent"])
    if rows.shape[0] != 1:
        return [f"{rows.shape[0]} moment rows, expected 1"]
    _, closed_prog, quad, err, _, divergent = rows[0]
    if math.isinf(closed):
        return [] if divergent == 1 else [f"k={k}: closed form is infinite but divergent=0"]
    problems = []
    if divergent != 0:
        return [f"k={k}: divergent=1 but the closed form is {closed!r}"]
    if not abs(closed_prog - closed) <= PRINT_REL * abs(closed):
        problems.append(f"k={k}: closed_form column {closed_prog!r} vs {closed!r}")
    if not abs(quad - closed) <= err + PRINT_REL * abs(closed):
        problems.append(f"k={k}: quadrature {quad!r} misses {closed!r} by "
                        f"{abs(quad - closed):.3e} > abs_error {err:.3e}")
    return problems
