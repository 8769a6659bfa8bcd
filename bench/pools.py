"""Operation pools for the three workloads, generated from a seed.

A pool is a fixed, ordered list of CLI operations.  Every pass of a run
executes the whole pool in order, so each run makes the same mix of
cheap and expensive operations.  Spec files are written under the run's
input directory; palmdpp receives only those files and the argv below.

Operations that fail today because of a known program fault take
inputs that do not depend on the seed, so they fail on every seed and
in every pass; `known_fault` names the fault.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SEED_TOKEN = "{seed}"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check its stdout must pass.

    argv may hold SEED_TOKEN, replaced by a per-pass program seed so
    that repeated passes draw fresh samples.  grid_law is set for grid
    samples, whose counts are also pooled over the run.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    known_fault: str | None = None
    grid_law: checks.CountLaw | None = None

    def resolve(self, program_seed: int) -> list[str]:
        return [str(program_seed) if a == SEED_TOKEN else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: list[Op]
    min_passes: int       # a run never stops before this many timed passes
    tail_percentile: int  # leaves >= 10 operations beyond it at min_passes
    probe: tuple[str, ...]  # speed-probe parts like the workload's own work (worker.py)


# Faults present in the program today, counted as failed operations.
KNOWN_FAULTS = {
    "a": "repulsiveness on sphere-coefficients specs raises TypeError "
         "(float() of the 1-element array from _series_k0)",
    "b": "moments near k = -2 miss the closed form by more than abs_error "
         "(graded cells stop at 2*2^-100)",
    "c": "moments --model jinc --k 0.95 reports divergent=1 for a finite moment "
         "(DIVERGENCE_MARGIN)",
}


def _write(directory: Path, name: str, doc: dict) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


# ------------------------------------------------------------ finite-exact

FINITE_SITES = 12          # the coupling size guard
COUPLE_SAMPLES = 10000
FINITE_SAMPLE_DRAWS = 2000
# spectral classes: (name, number of eigenvalues equal to 1, number equal to 0):
# below-one is Goldman's condition, some-one the paper's weaker condition,
# and projections have p_u = 1.  Four kernels per class, so that the run's
# percentiles sit among several draws of each class rather than on one
# kernel's cost.
FINITE_CLASSES = (
    ("below-one", 0, 0), ("some-one", 1, 0), ("projection", 3, 9),
    ("below-one", 0, 0), ("some-one", 2, 0), ("projection", 5, 7),
    ("below-one", 0, 0), ("some-one", 3, 0), ("projection", 7, 5),
    ("below-one", 0, 0), ("some-one", 4, 0), ("projection", 9, 3),
)


def finite_matrix(rng: np.random.Generator, ones: int, zeros: int, n: int = FINITE_SITES):
    """Hermitian K = U diag(lam) U* with a Haar-random unitary U."""
    lam = np.concatenate([np.ones(ones), np.zeros(zeros),
                          rng.uniform(0.05, 0.95, n - ones - zeros)])
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    K = (Q * lam) @ Q.conj().T
    return 0.5 * (K + K.conj().T)


def finite_spec(K: np.ndarray) -> dict:
    return {"family": "finite",
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in K]}


def finite_exact(seed: int, directory: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i, (cls, ones, zeros) in enumerate(FINITE_CLASSES):
        doc = finite_spec(finite_matrix(rng, ones, zeros))
        path = _write(directory, f"finite-{i}-{cls}", doc)
        # the program parses the JSON; the checks use the same parsed numbers
        K = np.array([[complex(*e) for e in row] for row in doc["matrix"]])
        diag = np.real(np.diag(K))
        u = int(rng.choice(np.flatnonzero(diag >= 0.05))) + 1
        ops.append(Op(f"couple/{i}-{cls}",
                      ("couple", path, "--anchor", str(u), "--samples", str(COUPLE_SAMPLES),
                       "--seed", SEED_TOKEN),
                      partial(checks.check_couple, K=K, u=u, samples=COUPLE_SAMPLES)))
        ops.append(Op(f"sample/{i}-{cls}",
                      ("sample", path, "--samples", str(FINITE_SAMPLE_DRAWS),
                       "--seed", SEED_TOKEN, "--emit-points"),
                      partial(checks.check_finite_sample, K=K, samples=FINITE_SAMPLE_DRAWS)))
    return Workload("finite-exact", ops, min_passes=3, tail_percentile=85,
                    probe=("det", "sampler"))


# ------------------------------------------------------------- grid-sample

# (family, resolution, draws, window half-width range); sphere grids have
# resolution x 2*resolution cells
GRID_CASES = (
    ("ginibre", 20, 2, (3.5, 4.5)),
    ("ginibre", 16, 3, (3.0, 3.8)),
    ("ginibre", 12, 3, (2.5, 3.2)),
    ("jinc", 20, 2, (3.5, 4.5)),
    ("jinc", 16, 3, (3.0, 3.8)),
    ("jinc", 12, 3, (2.5, 3.2)),
    ("sphere-multiquadric", 14, 2, None),
    ("sphere-multiquadric", 12, 2, None),
    ("sphere-multiquadric", 10, 3, None),
)


def grid_sample(seed: int, directory: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i, (family, res, draws, half) in enumerate(GRID_CASES):
        if family == "ginibre":
            alpha = _u(rng, 0.6, 1.0)
            beta = _u(rng, 0.6, 0.95 / alpha)
            params = {"alpha": alpha, "beta": beta}
        elif family == "jinc":
            beta = _u(rng, 0.6, 0.9)
            alpha = _u(rng, 0.7, 1.0)
            params = {"alpha": alpha, "beta": beta}
        else:
            delta = _u(rng, 0.3, 0.65)
            rho = _u(rng, 0.5, 0.9) / (4.0 * math.pi * (1.0 - delta))
            params = {"delta": delta, "rho": rho}
        path = _write(directory, f"grid-{i}-{family}", {"family": family, "params": params})
        argv = ["sample", path, "--samples", str(draws), "--seed", SEED_TOKEN,
                "--resolution", str(res)]
        if half is None:
            pts, measure = checks.sphere_centers(res)
            gram = checks.multiquadric_k0(np.clip(pts @ pts.T, -1.0, 1.0),
                                          params["delta"], params["rho"])
        else:
            h = _u(rng, *half)
            window = (-h, h, -h, h)
            argv.append("--window=" + ",".join(repr(w) for w in window))
            pts, measure = checks.euclidean_centers(window, res)
            gram_fn = checks.ginibre_gram if family == "ginibre" else checks.jinc_gram
            gram = gram_fn(pts, params["alpha"], params["beta"])
        n = pts.shape[0]
        ops.append(Op(f"sample/{i}-{family}-{n}", tuple(argv),
                      partial(checks.check_grid_sample, n_cells=n, samples=draws),
                      grid_law=checks.grid_count_law(gram, measure)))
    return Workload("grid-sample", ops, min_passes=6, tail_percentile=80,
                    probe=("eigh", "sampler"))


# ------------------------------------------------------- radial-quadrature

# Orders drawn from the seed stay in [-1.5, 0.9] (jinc) and [-1.5, 4]
# (Ginibre); fault (b) reaches k ~ -1.7, and it is represented by the
# fixed orders below, which fail on every seed.
JINC_FAULT_ORDERS = ((-1.99, "b"), (-1.9, "b"), (0.95, "c"))
GINIBRE_FAULT_ORDERS = ((-1.99, "b"), (-1.9, "b"))
SPHERE_COEFFICIENT_SPECS = (            # fault (a) on every such spec
    {"d": 2, "rho": 0.08, "beta_coeffs": [0.5, 0.3, 0.2], "tail_bound": 0.0},
    {"d": 2, "rho": 0.05, "beta_coeffs": [0.4, 0.3, 0.2, 0.1], "tail_bound": 0.0},
)


def _plane_anchor(rng) -> str:
    x, y = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
    return f"{x!r},{y!r}"


def _sphere_anchor(rng) -> str:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return ",".join(repr(float(x)) for x in v)


def _repulsiveness(name, path, anchor, p_true, abs_sq, norm_sq, fault=None) -> Op:
    argv = ("repulsiveness", path) + (("--anchor=" + anchor,) if anchor else ())
    return Op(name, argv, partial(checks.check_repulsiveness, p_true=p_true,
                                  abs_sq=abs_sq, norm_sq=norm_sq), known_fault=fault)


def _moment(model: str, k: float, rho: float | None, fault=None) -> Op:
    argv = ["moments", "--model", model, f"--k={k!r}"]
    if rho is not None:
        argv.append(f"--rho={rho!r}")
    closed = (checks.jinc_moment(k) if model == "jinc"
              else checks.ginibre_moment(k, rho if rho is not None else 1.0 / math.pi))
    return Op(f"moments/{model}/{k:.4g}", tuple(argv),
              partial(checks.check_moment, k=k, closed=closed), known_fault=fault)


def radial_quadrature(seed: int, directory: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for i in range(2):
        alpha = _u(rng, 0.3, 1.0)
        beta = _u(rng, 0.3, 1.0 / alpha)
        path = _write(directory, f"ginibre-{i}",
                      {"family": "ginibre", "params": {"alpha": alpha, "beta": beta}})
        abs_sq = partial(lambda r, a, b: (a / math.pi) ** 2 * np.exp(-np.asarray(r) ** 2 / b),
                         a=alpha, b=beta)
        for j in range(2):
            anchor = _plane_anchor(rng)
            ops.append(_repulsiveness(f"repulsiveness/ginibre-{i}/{j}", path, anchor,
                                      alpha * beta, abs_sq, alpha ** 2 * beta / math.pi))
    planar = [("jinc", 1.0, 1.0, 2), ("jinc", _u(rng, 0.5, 1.0), _u(rng, 0.5, 0.95), 1),
              ("sinc", _u(rng, 0.5, 1.0), _u(rng, 0.5, 1.0), 1)]
    for i, (family, alpha, beta, anchors) in enumerate(planar):
        path = _write(directory, f"{family}-{i}",
                      {"family": family, "params": {"alpha": alpha, "beta": beta}})
        value = checks.jinc_value if family == "jinc" else checks.sinc_value
        abs_sq = partial(lambda r, f, a, b: f(r, a, b) ** 2, f=value, a=alpha, b=beta)
        for j in range(anchors):
            anchor = _plane_anchor(rng) if family == "jinc" else repr(_u(rng, -3, 3))
            ops.append(_repulsiveness(f"repulsiveness/{family}-{i}/{j}", path, anchor,
                                      alpha * beta, abs_sq, alpha ** 2 * beta / math.pi))
    for i in range(2):
        delta = _u(rng, 0.2, 0.8)
        rho = _u(rng, 0.3, 1.0) / (4.0 * math.pi * (1.0 - delta))
        path = _write(directory, f"multiquadric-{i}",
                      {"family": "sphere-multiquadric", "params": {"delta": delta, "rho": rho}})
        p = checks.multiquadric_p(delta, rho)
        abs_sq = partial(lambda th, d, r: checks.multiquadric_k0(np.cos(th), d, r) ** 2,
                         d=delta, r=rho)
        ops.append(_repulsiveness(f"repulsiveness/multiquadric-{i}", path,
                                  _sphere_anchor(rng), p, abs_sq, p * rho))
    for i, params in enumerate(SPHERE_COEFFICIENT_SPECS):
        path = _write(directory, f"sphere-coefficients-{i}",
                      {"family": "sphere-coefficients", "params": params})
        rho, b = params["rho"], params["beta_coeffs"]
        p = checks.sphere_coefficients_p(rho, b)
        abs_sq = partial(lambda th, r, c: checks.sphere_coefficients_k0(np.cos(th), r, c) ** 2,
                         r=rho, c=b)
        ops.append(_repulsiveness(f"repulsiveness/sphere-coefficients-{i}", path, None,
                                  p, abs_sq, p * rho, fault="a"))
    for i, points in enumerate((101, 201)):
        beta = _u(rng, 0.3, 1.0)
        r_max = _u(rng, 4.0, 10.0)
        radii = np.linspace(0.0, r_max, points)
        ops.append(Op(f"profile/{i}",
                      ("profile", f"--beta={beta!r}", f"--r-max={r_max!r}",
                       "--r-points", str(points)),
                      partial(checks.check_profile, beta=beta, radii=radii)))
    jinc_orders = [_u(rng, -1.5, 0.9) for _ in range(4)]
    ops += [_moment("jinc", k, None) for k in jinc_orders]
    ops.append(_moment("jinc", _u(rng, 1.0, 2.5), None))     # divergent=1 expected
    ops += [_moment("jinc", k, None, fault=f) for k, f in JINC_FAULT_ORDERS]
    # fewer Ginibre than jinc orders, so per-operation medians of the moment
    # layers sit among the power-tail operations rather than between the two
    ops += [_moment("ginibre", _u(rng, -1.5, 4.0), _u(rng, 0.05, 1.0)) for _ in range(4)]
    ops += [_moment("ginibre", k, None, fault=f) for k, f in GINIBRE_FAULT_ORDERS]
    return Workload("radial-quadrature", ops, min_passes=8, tail_percentile=95,
                    probe=("eigh", "special"))


WORKLOADS = {
    "finite-exact": finite_exact,
    "grid-sample": grid_sample,
    "radial-quadrature": radial_quadrature,
}
