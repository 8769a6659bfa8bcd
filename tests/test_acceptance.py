"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""
from __future__ import annotations

import io
import math
import time
from contextlib import redirect_stdout

import numpy as np
from scipy import integrate, special

from palmdpp import analysis, finite_dpp, model_zoo
from palmdpp.cli import main as cli_main
from palmdpp.kernel_core import repulsiveness_p
from palmdpp.model_zoo import GinibreParams, ginibre_kernel, jinc_kernel, multiquadric

from conftest import random_dpp_matrix

ORIGIN = np.zeros(2)


def _report(name: str, started: float, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: PASS ({time.time() - started:.1f}s) {detail}".rstrip())


def _random_kernel_and_anchor(rng, n_low=2, n_high=8, force_one=False):
    while True:
        n = int(rng.integers(n_low, n_high + 1))
        dpp = finite_dpp.validate(random_dpp_matrix(rng, n, force_one=force_one))
        eligible = [u for u in range(1, n + 1)
                    if float(dpp.matrix[u - 1, u - 1].real) > 1e-6]
        if eligible:
            return dpp, int(rng.choice(eligible))


def test_criterion_1_theorem_finite_verification():
    """Coupling max-flow saturates and xi reproduces p_u and f_u exactly."""
    started = time.time()
    rng = np.random.default_rng(2024)
    worst_flow_gap, worst_p_gap, worst_f_gap = 0.0, 0.0, 0.0
    for trial in range(1000):
        dpp, u = _random_kernel_and_anchor(rng, force_one=(trial % 4 == 0))
        law_x = finite_dpp.subset_law(dpp)
        law_xu = finite_dpp.subset_law(finite_dpp.palm_matrix(dpp, u))
        flow, table = finite_dpp.coupling_feasible(law_x, law_xu, u)
        assert flow >= 1.0 - 1e-8, f"flow {flow} at trial {trial}"
        worst_flow_gap = max(worst_flow_gap, 1.0 - flow)
        p, density = finite_dpp.xi_law(table, dpp, u)
        row = np.abs(dpp.matrix[u - 1, :]) ** 2
        p_want = float(row.sum()) / float(dpp.matrix[u - 1, u - 1].real)
        f_want = row / row.sum()
        worst_p_gap = max(worst_p_gap, abs(p - p_want))
        worst_f_gap = max(worst_f_gap, float(np.max(np.abs(density - f_want))))
        assert abs(p - p_want) <= 1e-8
        assert np.max(np.abs(density - f_want)) <= 1e-8
    assert time.time() - started < 120.0
    _report("criterion 1 (finite coupling theorem)", started,
            f"max gaps: flow {worst_flow_gap:.1e}, p {worst_p_gap:.1e}, f {worst_f_gap:.1e}")


def test_criterion_2_dilation_identities():
    """The dilation is a projection fixing the anchor vector, and its
    rank-one reduction compresses to the Palm matrix."""
    started = time.time()
    rng = np.random.default_rng(77)
    for trial in range(500):
        dpp, u = _random_kernel_and_anchor(rng, n_low=2, n_high=10,
                                           force_one=(trial % 5 == 0))
        pair = finite_dpp.palm_eigenvector(dpp, u)
        q = pair.projection
        assert np.max(np.abs(q @ q - q)) <= 1e-8
        assert np.linalg.norm(q @ pair.anchor_vector - pair.anchor_vector) <= 1e-8
        palm = finite_dpp.palm_matrix(dpp, u).matrix
        assert np.max(np.abs(pair.reduced[:dpp.n, :dpp.n] - palm)) <= 1e-8
    assert time.time() - started < 30.0
    _report("criterion 2 (dilation identities)", started)


def test_criterion_3_ginibre_p_and_density():
    """p_u equals alpha*beta and f_u is the complex Gaussian density."""
    started = time.time()
    anchor = np.array([0.3, -0.7])
    radii = np.linspace(0.0, 4.0, 20)
    for alpha, beta in ((1.0, 1.0), (0.5, 1.5), (1.0 / math.pi, 1.0)):
        kernel = ginibre_kernel(GinibreParams(alpha, beta))
        report = repulsiveness_p(kernel, anchor, profile_coords=radii)
        assert abs(report.p_u - alpha * beta) <= 1e-6
        for r, f in report.density_profile:
            want = math.exp(-r * r / beta) / (math.pi * beta)
            assert abs(f - want) <= 1e-8
    assert time.time() - started < 10.0
    _report("criterion 3 (Ginibre p_u and f_u)", started)


def test_criterion_4_jinc_moments():
    """Quadrature moments match the Gamma-ratio closed form; orders >= 1
    are flagged divergent."""
    started = time.time()
    kernel = jinc_kernel(2)
    for k in (-1.5, -1.0, -0.5, 0.5, 0.9):
        res = analysis.moment_quadrature(kernel, ORIGIN, k)
        closed = analysis.jinc_moment_closed(k)
        assert not res.divergent
        assert abs(res.quadrature - closed) <= 1e-3 * abs(closed) + res.tail_estimate, \
            f"k={k}: |{res.quadrature} - {closed}| > 1e-3 rel + {res.tail_estimate}"
    res0 = analysis.moment_quadrature(kernel, ORIGIN, 0.0)
    assert abs(res0.quadrature - 1.0) <= 1e-6
    for k in (1.0, 1.5):
        assert analysis.moment_quadrature(kernel, ORIGIN, k).divergent
    assert time.time() - started < 30.0
    _report("criterion 4 (jinc moments)", started)


def test_criterion_5_jinc_globally_most_repulsive():
    """The ball-spectrum kernels integrate to p_u = 1 in d = 1 and 2."""
    started = time.time()
    for d in (1, 2):
        kernel = jinc_kernel(d)
        report = repulsiveness_p(kernel, np.zeros(d))
        assert abs(report.p_u - 1.0) <= 1e-4, f"d={d}: p_u={report.p_u!r}"
    assert time.time() - started < 20.0
    _report("criterion 5 (jinc p_u = 1)", started)


def test_criterion_6_sphere_multiquadric(tmp_path):
    """Series p_u equals the quadrature oracle; the reported closed form
    disagrees and is emitted with a discrepancy flag; the coefficient
    series reproduces the closed-form kernel."""
    import json

    started = time.time()
    for delta in (0.1, 0.5, 0.9):
        rho = 1.0 / (4.0 * math.pi * (1.0 - delta))
        model, kernel = multiquadric(delta, rho)
        series = model_zoo.sphere_p(model).value
        k0 = kernel.k0
        val, _ = integrate.quad(lambda t: float(k0(t)) ** 2, -1.0, 1.0,
                                epsabs=1e-14, epsrel=1e-13, limit=400)
        oracle = 2.0 * math.pi * val / float(k0(1.0))
        assert abs(series - oracle) <= 1e-8, f"delta={delta}"
        reported_form = 4.0 * math.pi * rho * (1.0 - delta) / (1.0 + delta)
        assert abs(series - reported_form) > 1e-6  # the documented inconsistency

        grid = np.linspace(-1.0, 1.0, 1000)
        series_k0 = model_zoo.sphere_kernel(model).k0
        assert np.max(np.abs(np.asarray(series_k0(grid)) - np.asarray(k0(grid)))) <= 1e-8

        spec = tmp_path / f"mq_{delta}.json"
        spec.write_text(json.dumps({"family": "sphere-multiquadric",
                                    "params": {"delta": delta, "rho": rho}}))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["repulsiveness", str(spec)])
        assert code == 0
        header, row = buf.getvalue().split("\n\n")[0].strip().split("\n")
        record = dict(zip(header.split(","), [float(t) for t in row.split(",")]))
        assert abs(record["p_u"] - series) <= 1e-6
        assert abs(record["p_u_reference"] - reported_form) <= 1e-9
        assert record["discrepancy"] == 1.0
    assert time.time() - started < 30.0
    _report("criterion 6 (sphere multiquadric)", started)


def test_criterion_7_repulsiveness_bound():
    """p_u never exceeds 1 across the model zoo and random finite kernels."""
    started = time.time()
    slack = 1.0 + 1e-6
    reports = []
    for alpha, beta in ((1.0, 1.0), (0.5, 1.5), (1.0 / math.pi, 1.0)):
        reports.append(repulsiveness_p(ginibre_kernel(GinibreParams(alpha, beta)), ORIGIN))
    for d in (1, 2):
        reports.append(repulsiveness_p(jinc_kernel(d), np.zeros(d)))
    reports.append(repulsiveness_p(
        model_zoo.thin_rescale(jinc_kernel(2), 0.5, 0.8), ORIGIN))
    north = np.array([0.0, 0.0, 1.0])
    for delta in (0.1, 0.5, 0.9):
        model, kernel = multiquadric(delta, 1.0 / (4.0 * math.pi * (1.0 - delta)))
        reports.append(repulsiveness_p(kernel, north))
        assert model_zoo.sphere_p(model).value <= slack
    for rep in reports:
        assert 0.0 <= rep.p_u <= slack
    rng = np.random.default_rng(41)
    for _ in range(100):
        dpp, u = _random_kernel_and_anchor(rng)
        assert finite_dpp.p_u_finite(dpp, u) <= slack
        assert repulsiveness_p(model_zoo.finite_kernel(dpp), u).p_u <= slack
    assert time.time() - started < 30.0
    _report("criterion 7 (repulsiveness bound)", started)


def test_criterion_8_sampler_statistics():
    """Sequential and coupled samplers match the exact laws; the
    discretized-Ginibre displacement histogram passes chi-squared."""
    started = time.time()
    draws = 100000
    t = np.array([1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0])
    fixed = [(np.diag([0.3, 0.7]), 101),
             (np.array([[0.5, 0.5], [0.5, 0.5]]), 102),
             (1.0 / 3.0 + np.outer(t, t), 103)]
    for matrix, seed in fixed:
        dpp = finite_dpp.validate(matrix)
        law = finite_dpp.subset_law(dpp)
        masks = finite_dpp.sample_exact_many(dpp, seed, draws)
        freq = np.bincount(masks, minlength=1 << dpp.n) / draws
        for mask in range(1 << dpp.n):
            p = law.prob(mask)
            sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / draws)
            assert abs(freq[mask] - p) <= 3.0 * sigma + 1e-12, \
                f"subset {mask:b}: {freq[mask]} vs {p}"

    for matrix, u, seed in ((np.diag([0.3, 0.7]), 2, 201),
                            (1.0 / 3.0 + np.outer(t, t), 1, 202)):
        dpp = finite_dpp.validate(matrix)
        law_x = finite_dpp.subset_law(dpp)
        law_xu = finite_dpp.subset_law(finite_dpp.palm_matrix(dpp, u))
        _, table = finite_dpp.coupling_feasible(law_x, law_xu, u)
        s, tt = finite_dpp.sample_coupled_many(table, seed, draws)
        for arr, law in ((s, law_x), (tt, law_xu)):
            freq = np.bincount(arr, minlength=1 << dpp.n) / draws
            for mask in range(1 << dpp.n):
                p = law.prob(mask)
                sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / draws)
                assert abs(freq[mask] - p) <= 3.0 * sigma + 1e-12

    report = analysis.mc_validate_coupling(
        ginibre_kernel(GinibreParams(1.0, 1.0)), ORIGIN,
        (-1.0, 1.0, -1.0, 1.0), 3, samples=20000, rng_seed=11)
    assert report.flow >= 1.0 - 1e-8
    assert abs(report.z_score) <= 3.0
    assert report.chi2_pvalue >= 0.01
    assert time.time() - started < 180.0
    _report("criterion 8 (sampler statistics)", started,
            f"chi2 p-value {report.chi2_pvalue:.3f}")


def test_criterion_9_figure_profiles():
    """cmd_profile reproduces both radial densities, the jinc tail
    dominates, and each density integrates to one including tails."""
    started = time.time()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["profile", "--beta", "1", "--r-min", "0",
                         "--r-max", "10", "--r-points", "201"])
    assert code == 0
    lines = buf.getvalue().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["r", "density_ginibre", "density_jinc"]
    data = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    r, gin, jnc = data[:, 0], data[:, 1], data[:, 2]

    want_g = 2.0 * r * np.exp(-r ** 2)
    assert np.max(np.abs(gin - want_g)) <= 1e-10
    with np.errstate(divide="ignore", invalid="ignore"):
        want_j = np.where(r > 0, 2.0 * special.j1(2.0 * r) ** 2 / np.where(r > 0, r, 1.0), 0.0)
    assert np.max(np.abs(jnc - want_j)) <= 1e-8
    far = r >= 4.0
    assert np.all(jnc[far] > gin[far])

    def jinc_density(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        nz = x > 0
        out[nz] = 2.0 * special.j1(2.0 * x[nz]) ** 2 / x[nz]
        return out

    gin_total = integrate.simpson(gin, x=r)  # Gaussian tail beyond 10 is ~e-100
    assert abs(gin_total - 1.0) <= 1e-3
    from palmdpp.numerics import QuadratureSpec, integrate_radial
    # jinc_density(x) = x * 2 pi^2 |K(x)|^2: weight r, the kernel's tail times 2 pi^2
    full = integrate_radial(lambda x: jinc_density(x) / x, 1.0,
                            jinc_kernel(2).tail.rescaled(2.0 * math.pi ** 2),
                            QuadratureSpec(truncation_radius=10.0))
    core, _ = integrate.quad(lambda x: float(jinc_density(np.array([x]))[0]),
                             0.0, 10.0, limit=400)
    tail_beyond_grid = full.value - core
    jnc_total = integrate.simpson(jnc, x=r) + tail_beyond_grid
    assert abs(jnc_total - 1.0) <= 1e-3
    assert time.time() - started < 10.0
    _report("criterion 9 (figure profiles)", started,
            f"jinc mass {jnc_total:.6f} incl tail {tail_beyond_grid:.4f}")
