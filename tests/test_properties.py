"""Property tests: closed forms over random parameters, exact finite laws
and couplings, the kernel Gram contract, and the CLI's exit contract over
random valid and invalid inputs.

The hypothesis profile in conftest.py derandomizes the examples and bounds
their number, so these run the same way every time.
"""
from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from palmdpp import analysis
from palmdpp.analysis import ginibre_moment, grid_discretize, jinc_moment_closed, moment_quadrature
from palmdpp.cli import main
from palmdpp.errors import TOKENS, ValidationError
from palmdpp.finite_dpp import couple, palm_matrix, subset_law, validate, xi_law
from palmdpp.kernel_core import palm_kernel, repulsiveness_p, sphere_surface_measure
from palmdpp.model_zoo import (GinibreParams, finite_kernel, ginibre_kernel, jinc_kernel,
                               multiquadric, sphere_kernel, sphere_model, sphere_p, thin_rescale)
from palmdpp import numerics
from palmdpp.numerics import (QuadratureSpec, circulant_eig, factor_eig, hermitian_eig,
                               reflection_eig)

from conftest import (complement_determinant_law, palm_law_of_couple, random_dpp_matrix,
                      random_unitary, reference_marginals)

EPS = float(np.finfo(float).eps)


def log_uniform(lo: float, hi: float):
    """Floats spread evenly in their exponent over [lo, hi]; a uniform draw
    almost never reaches the small end."""
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0 ** e)


jinc_orders = st.floats(min_value=-1.99, max_value=0.99)


@settings(max_examples=200)
@given(k=st.floats(min_value=-2.0, max_value=300.0, exclude_min=True),
       rho=log_uniform(1e-8, 1e8))
@example(k=120.0, rho=1e-5)  # Gamma(61) / (pi 1e-5)^60 is a float quotient past double precision
def test_ginibre_moment_matches_its_log_form_or_is_refused(k, rho):
    try:
        value = ginibre_moment(k, rho)
    except OverflowError:
        return
    expected = math.exp(math.lgamma(1.0 + k / 2.0) - k / 2.0 * math.log(math.pi * rho))
    assert math.isfinite(value) and abs(value - expected) <= 1e-12 * expected


@settings(max_examples=100)
@given(d=st.sampled_from([1, 2]), beta=log_uniform(1e-12, 1.0),
       share=st.floats(min_value=0.05, max_value=1.0))
def test_thinned_p_u_within_reported_error(d, beta, share):
    alpha = share / beta  # alpha * beta = share <= 1
    report = repulsiveness_p(thin_rescale(jinc_kernel(d), alpha, beta), np.zeros(d))
    assert abs(report.p_u - alpha * beta) <= report.quadrature_error
    assert report.quadrature_error <= 1e-7


@settings(max_examples=100)
@given(k=jinc_orders, beta=log_uniform(1e-10, 1.0))
def test_thinned_jinc_moment_within_reported_error(k, beta):
    # the displacement scales by sqrt(beta) under thinning
    res = moment_quadrature(thin_rescale(jinc_kernel(2), 1.0, beta), k)
    assert not res.divergent
    assert abs(res.quadrature - beta ** (k / 2.0) * jinc_moment_closed(k)) <= res.abs_error


@given(k=st.floats(min_value=-1.99, max_value=4.0), rho=st.floats(min_value=1e-3, max_value=1e3))
def test_ginibre_moment_within_reported_error(k, rho):
    alpha = math.pi * rho
    res = moment_quadrature(ginibre_kernel(GinibreParams(alpha, 1.0 / alpha)), k)
    assert abs(res.quadrature - ginibre_moment(k, rho)) <= res.abs_error


@given(k=st.floats(min_value=1.0, max_value=10.0))
def test_jinc_moment_divergent_exactly_from_order_one(k):
    assert moment_quadrature(jinc_kernel(2), k).divergent


@st.composite
def sphere_models(draw):
    d = draw(st.sampled_from([1, 2, 3, 5, 8, 12, 20, 40]))
    raw = draw(st.lists(st.integers(0, 20), min_size=1, max_size=8))
    assume(sum(raw) > 0)
    beta = np.asarray(raw) / sum(raw)
    mult = sphere_model(d, 1e-9, beta).multiplicities
    nonzero = beta > 0
    rho_max = float(np.min(mult[nonzero] / (sphere_surface_measure(d) * beta[nonzero])))
    rho = draw(st.floats(min_value=0.05, max_value=1.0)) * rho_max
    return sphere_model(d, rho, beta.tolist())


@settings(max_examples=100)
@given(model=sphere_models())
def test_sphere_quadrature_agrees_with_series(model):
    north = np.zeros(model.d + 1)
    north[-1] = 1.0
    report = repulsiveness_p(sphere_kernel(model), north,
                             spec=QuadratureSpec(relative_tolerance=1e-12))
    series = sphere_p(model).value
    assert abs(report.p_u - series) <= report.quadrature_error + 1e-14 * series


# ------------------------------------------------------ exact finite laws


@st.composite
def finite_dpps(draw, max_sites: int = 8, projection: bool = False):
    """A validated kernel on up to max_sites sites, complex or real, whose
    eigenvalues are often exactly 0 or 1, and always so with projection."""
    n = draw(st.integers(1, max_sites))
    ends = st.sampled_from([0.0, 1.0])
    lam = draw(st.lists(ends if projection else st.one_of(ends, st.floats(0.0, 1.0)),
                        min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = random_unitary(rng, n) if draw(st.booleans()) else np.linalg.qr(rng.normal(size=(n, n)))[0]
    k = (q * lam) @ q.conj().T
    return validate(0.5 * (k + k.conj().T))


@given(dpp=finite_dpps())
def test_subset_law_matches_complement_determinants(dpp):
    law = subset_law(dpp).probs
    assert np.max(np.abs(law - complement_determinant_law(dpp))) <= 1e-14


@given(dpp=finite_dpps(), pick=st.integers(0, 7))
def test_couple_support_marginals_and_removed_point(dpp, pick):
    diag = np.real(np.diagonal(dpp.matrix))
    sites = np.flatnonzero(diag >= 0.05)
    assume(sites.size > 0)
    u = int(sites[pick % sites.size]) + 1
    _, table = couple(dpp, u)
    s, t = table.joint.T
    assert np.all(t & s == t) and not np.any(t >> (u - 1) & 1)
    assert max(bin(int(d)).count("1") for d in s ^ t) <= 1
    rows, cols = reference_marginals(table)
    assert np.max(np.abs(rows - subset_law(dpp).probs)) <= 1e-12
    assert np.max(np.abs(cols - subset_law(palm_matrix(dpp, u)).probs)) <= 1e-12
    p, density = xi_law(table)
    row = np.abs(dpp.matrix[u - 1, :]) ** 2
    assert abs(p - row.sum() / diag[u - 1]) <= 1e-12
    assert np.max(np.abs(density - row / row.sum())) <= 1e-12


@given(dpp=finite_dpps(projection=True), pick=st.integers(0, 7))
def test_couple_reads_the_palm_law_off_the_law_of_x(dpp, pick):
    diag = np.real(np.diagonal(dpp.matrix))
    sites = np.flatnonzero(diag >= 1e-3)
    assume(sites.size > 0)
    u = int(sites[pick % sites.size]) + 1
    want = subset_law(palm_matrix(dpp, u)).probs
    assert np.max(np.abs(palm_law_of_couple(dpp, u) - want)) <= 1e-14


# ------------------------------------------------------------ Gram contract

FAMILIES = ["finite", "ginibre", "sinc", "jinc", "multiquadric", "sphere-coefficients"]


def random_kernel_and_points(family: str, rng: np.random.Generator):
    """A kernel of the family with drawn parameters, and a point sampler."""
    if family == "finite":
        n = int(rng.integers(2, 7))
        return (finite_kernel(validate(random_dpp_matrix(rng, n))),
                lambda m: rng.integers(1, n + 1, size=m))
    if family in ("ginibre", "sinc", "jinc"):
        beta = rng.uniform(0.1, 1.0)
        alpha = rng.uniform(0.1, 1.0) / beta
        kernel = (ginibre_kernel(GinibreParams(alpha, beta)) if family == "ginibre" else
                  thin_rescale(jinc_kernel(1 if family == "sinc" else 2), alpha, beta))
        d = kernel.space.size
        return kernel, lambda m: rng.uniform(-3.0, 3.0, size=(m, d))
    if family == "multiquadric":
        delta = rng.uniform(0.05, 0.95)
        _, kernel = multiquadric(delta, rng.uniform(0.1, 1.0) / (4.0 * math.pi * (1.0 - delta)))
    else:
        kernel = sphere_kernel(sphere_model(2, 0.1, [0.5, 0.3, 0.2]))

    def sphere_points(m):
        x = rng.normal(size=(m, 3))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    return kernel, sphere_points


@given(family=st.sampled_from(FAMILIES), palm=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       m=st.integers(1, 4), k=st.integers(1, 4))
def test_gram_contract(family, palm, seed, m, k):
    # gram(X, Y) is the conjugate transpose of gram(Y, X), evaluate reads
    # its entries, and the diagonal is real, for every family and its Palm
    # kernel; all up to rounding, which Ginibre's exponent (up to |z|^2 / beta
    # = 180 here) amplifies
    rng = np.random.default_rng(seed)
    kernel, points = random_kernel_and_points(family, rng)
    if palm:
        kernel = palm_kernel(kernel, points(1)[0])
    X, Y = points(m), points(k)
    G = kernel.gram(X, Y)
    tol = 1e-13 * (1.0 + np.abs(G))
    assert G.shape == (m, k)
    assert np.all(np.abs(G - kernel.gram(Y, X).conj().T) <= tol)
    for i in range(m):
        for j in range(k):
            assert abs(kernel.evaluate(X[i], Y[j]) - G[i, j]) <= tol[i, j]
        diag = kernel.evaluate(X[i], X[i])
        assert abs(diag.imag) <= 1e-13 * (1.0 + abs(diag))
        assert kernel.diagonal(X[i]) == diag.real


# ------------------------------------------------------------ CLI contract

# 10**400 is a JSON integer beyond double precision
numbers = st.one_of(st.floats(min_value=-2.0, max_value=3.0),
                    st.sampled_from([0.0, 1e-9, 50.0, 10 ** 400]),
                    st.sampled_from([math.nan, math.inf, -math.inf]),
                    st.text(max_size=3), st.booleans(), st.none())
params_for = {
    "ginibre": ["alpha", "beta"],
    "jinc": ["alpha", "beta"],
    "sinc": ["alpha", "beta"],
    "sphere-multiquadric": ["delta", "rho"],
    "sphere-coefficients": ["d", "rho", "beta_coeffs", "tail_bound"],
    "finite": [],
}


@st.composite
def spec_documents(draw):
    family = draw(st.sampled_from(sorted(params_for) + ["bogus", 7]))
    keys = params_for.get(family, ["alpha"])
    params = {}
    for key in keys:
        if draw(st.booleans()) or key in ("alpha", "beta", "delta", "rho"):
            params[key] = draw(numbers)
    if family == "sphere-coefficients":
        params["d"] = draw(st.sampled_from([1, 2, 3, 0, 2.5]))
        params["beta_coeffs"] = draw(st.one_of(
            st.lists(st.floats(min_value=-0.1, max_value=1.0), max_size=5), numbers))
    if draw(st.booleans()):
        params[draw(st.sampled_from(["extra", "alpha"]))] = draw(numbers)
    doc = {"family": family, "params": params}
    if family == "finite" or draw(st.integers(0, 9)) == 0:
        n = draw(st.integers(1, 3))
        entries = st.one_of(st.floats(min_value=-1.0, max_value=1.0), st.just(1e308))
        doc["matrix"] = [[[draw(entries), 0.0] for _ in range(n)] for _ in range(n)]
    return doc


@given(beta=st.floats(min_value=0.5, max_value=3.0), share=st.floats(min_value=0.1, max_value=1.0),
       half=st.floats(min_value=0.3, max_value=4.0),
       center=st.tuples(st.floats(min_value=-1.5, max_value=1.5),
                        st.floats(min_value=-1.5, max_value=1.5)),
       resolution=st.integers(1, 12))
def test_ginibre_factor_route_matches_the_dense_route(beta, share, half, center, resolution):
    # alpha * beta = share <= 1; both routes pass the same spectrum gate, and
    # agree within the factor's certified dropped trace
    kernel = ginibre_kernel(GinibreParams(share / beta, beta))
    window = (center[0] - half, center[0] + half, center[1] - half, center[1] + half)
    try:
        dense = grid_discretize(replace(kernel, grid_factor=None), window, resolution)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as err:
            grid_discretize(kernel, window, resolution)
        assert err.value.token == exc.token
        return
    grid = grid_discretize(kernel, window, resolution)
    tol = 1e-12 + grid.dpp.clamp_report.dropped_trace
    lam, want = grid.dpp.eig.eigenvalues, dense.dpp.eig.eigenvalues
    assert np.max(np.abs(lam - want[:lam.size])) <= tol
    assert np.all(want[lam.size:] <= tol)
    assert abs(grid.expected_count - dense.expected_count) <= tol


@given(delta=st.floats(min_value=0.05, max_value=0.95),
       share=st.floats(min_value=0.01, max_value=1.0), resolution=st.integers(1, 8))
def test_sphere_block_route_matches_the_dense_route(delta, share, resolution):
    # share of the existence bound 1 / (4 pi (1 - delta)); near it a coarse
    # grid leaks past 1, and both routes must then refuse it alike
    rho = share / (4.0 * math.pi * (1.0 - delta))
    _, kernel = multiquadric(delta, rho)
    try:
        dense = grid_discretize(replace(kernel, k0=None), None, resolution)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as err:
            grid_discretize(kernel, None, resolution)
        assert err.value.token == exc.token
        return
    grid = grid_discretize(kernel, None, resolution)
    # the Gram matrix rounds v . w at every pair of cells, the table at one
    # longitude only; the few ulps between them are amplified by K0's slope
    # at t = 1, rho delta / (1 - delta)^2, and reach every eigenvalue n-fold
    noise = 16.0 * EPS * rho * delta / (1.0 - delta) ** 2 * grid.cell_measure
    lam, V = grid.dpp.eig.eigenvalues, grid.dpp.eig.eigenvectors
    assert np.max(np.abs(lam - dense.dpp.eig.eigenvalues)) <= 1e-13 + grid.dpp.n * noise
    assert grid.dpp.clamp_report.n_clamped == dense.dpp.clamp_report.n_clamped
    if not grid.dpp.clamp_report:
        gram = dense.dpp.matrix
        assert np.max(np.abs((V * lam) @ V.T - gram)) <= 1e-14 * np.max(np.abs(gram)) + noise


@given(d=st.sampled_from([1, 2]), beta=st.floats(min_value=0.2, max_value=1.0),
       share=st.floats(min_value=0.01, max_value=1.0),
       steps=st.tuples(st.floats(min_value=0.1, max_value=1.5),
                       st.floats(min_value=0.1, max_value=1.5)),
       lower=st.tuples(st.floats(min_value=-6.0, max_value=3.0),
                       st.floats(min_value=-6.0, max_value=3.0)),
       resolution=st.integers(1, 12))
def test_reflection_route_matches_the_dense_route(d, beta, share, steps, lower, resolution):
    # alpha * beta = share <= 1; coarse cells leak past 1, and both routes
    # must then clamp or refuse alike
    kernel = thin_rescale(jinc_kernel(d), share / beta, beta)
    window = tuple(x for lo, h in zip(lower[:d], steps[:d]) for x in (lo, lo + h * resolution))
    try:
        dense = grid_discretize(replace(kernel, radial=None), window, resolution)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as err:
            grid_discretize(kernel, window, resolution)
        assert err.value.token == exc.token
        return
    grid = grid_discretize(kernel, window, resolution)
    lam, V = grid.dpp.eig.eigenvalues, grid.dpp.eig.eigenvectors
    assert np.max(np.abs(lam - dense.dpp.eig.eigenvalues)) <= 1e-13
    assert grid.dpp.clamp_report.n_clamped == dense.dpp.clamp_report.n_clamped
    if not grid.dpp.clamp_report:  # within 1e-14 of the matrix's norm, its top eigenvalue
        gram = dense.dpp.matrix
        assert np.max(np.abs((V * lam) @ V.T - gram)) <= 1e-14 * lam[0]


def four_block_route(table):
    """reflection_eig without the swap: one eigh per reflection block at its
    own size, unfolded column by column as that route does."""
    d, R = table.ndim, table.shape[0]
    c, h = (R + 1) // 2, R // 2
    pairs = [np.linalg.eigh(B) for B in numerics._reflection_blocks(table)]
    block = np.concatenate([np.full(w.size, b) for b, (w, _) in enumerate(pairs)])
    col = np.concatenate([np.arange(w.size - 1, -1, -1) for w, _ in pairs])
    lam = np.concatenate([w[::-1] for w, _ in pairs])
    order = np.argsort(-lam, kind="stable")
    block, col = block[order], col[order]
    i = np.arange(R)
    w_even = np.where(i == R - 1 - i, 1.0, math.sqrt(0.5))
    w_odd = np.where(i == R - 1 - i, 0.0, np.where(i < R - 1 - i, 1.0, -1.0) * math.sqrt(0.5))
    fold = np.minimum(i, R - 1 - i)
    V = np.empty((R ** d, lam.size))
    for b, (w, X) in enumerate(pairs):
        if w.size:  # the middle of an odd axis has weight 0 and reads the block's last row
            folded = np.zeros(1, dtype=int)
            for k in range(d):
                side = h if b >> k & 1 else c
                folded = (folded[:, None] * side + fold.clip(max=side - 1)).ravel()
            V[:, block == b] = X[folded[:, None], col[block == b]]
    grid = V.reshape((R,) * d + (-1,))
    for k in range(d):
        weight = np.where((block >> k & 1)[:, None] == 1, w_odd, w_even).T
        grid *= weight.reshape((1,) * k + (R,) + (1,) * (d - 1 - k) + (-1,))
    return lam[order], V


def stationary_matrix(table):
    """M[i, j] = table[|i_1 - j_1|, ..., |i_d - j_d|], rows in C order."""
    index = np.indices(table.shape).reshape(table.ndim, -1)
    return table[tuple(np.abs(index[:, :, None] - index[:, None, :]))]


@settings(max_examples=100)
@given(resolution=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_square_reflection_split_matches_the_four_blocks(resolution, seed):
    # a random table equal to its transpose takes the swap split
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(resolution, resolution))
    table += table.T
    eig = reflection_eig(table)
    lam, V = eig.eigenvalues, eig.eigenvectors
    today, _ = four_block_route(table)
    # each side is an eigh of matrices equal up to rounding, so each misses by
    # a few eps of the blocks' norm: 14.2 eps at most over 20,000 such tables
    assert np.max(np.abs(lam - today)) <= 32 * EPS * np.max(np.abs(today))
    M = stationary_matrix(table)
    assert np.max(np.abs((V * lam) @ V.T - M)) <= 1e-12
    assert np.max(np.abs(V.T @ V - np.eye(M.shape[0]))) <= 1e-12
    # the block odd along one axis only and its swap give one set of eigenvalues, bit for bit
    grid = V.reshape(resolution, resolution, -1)
    odd_first = np.sum(grid * grid[::-1], axis=(0, 1)) < 0
    odd_second = np.sum(grid * grid[:, ::-1], axis=(0, 1)) < 0
    assert np.array_equal(np.sort(lam[odd_first & ~odd_second]),
                          np.sort(lam[odd_second & ~odd_first]))
    idx = np.flatnonzero(rng.random(lam.size) < 0.5)
    assert np.array_equal(eig.columns(idx), V[:, idx])


@settings(max_examples=100)
@given(d=st.sampled_from([1, 2]), resolution=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reflection_without_the_swap_is_the_four_block_route(d, resolution, seed):
    # d = 1, or a table that is not its own transpose: the eigenpairs of the
    # four-block route, bit for bit
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(resolution,) * d)
    if d == 2:
        assume(resolution > 1)
        table[0, 1] += 1.0  # off its transpose
    eig = reflection_eig(table)
    lam, V = four_block_route(table)
    assert np.array_equal(eig.eigenvalues, lam) and np.array_equal(eig.eigenvectors, V)
    # c = ceil(R / 2) indices along each even axis, R // 2 along each odd one
    c, h = (resolution + 1) // 2, resolution // 2
    sizes = [c ** (d - bin(b).count("1")) * h ** bin(b).count("1") for b in range(2 ** d)]
    blocks = numerics._reflection_blocks(table)
    assert [B.shape for B in blocks] == [(size, size) for size in sizes]
    assert sum(sizes) == resolution ** d
    idx = np.flatnonzero(rng.random(lam.size) < 0.5)
    assert np.array_equal(eig.columns(idx), V[:, idx])


@settings(max_examples=50)
@given(route=st.sampled_from(["dense", "circulant", "reflection", "factor", "factor-classed"]),
       size=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_columns_are_the_eigenvectors_columns(route, size, seed):
    # bit for bit, but on the factor routes, where the product phi W[:, idx]
    # over fewer columns may round differently; dividing it by sqrt(lambda)
    # magnifies that in the columns of tiny eigenvalues, so the products are
    # compared.  An empty idx, a batch that keeps no eigenvector, gives (n, 0)
    rng = np.random.default_rng(seed)
    if route == "dense":
        A = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        eig = hermitian_eig(A + A.conj().T)
    elif route == "reflection":  # square (the swap split) or not, as the draw falls
        table = rng.normal(size=(size, size))
        eig = reflection_eig(table + table.T if rng.random() < 0.5 else table)
    elif route == "circulant":
        longitudes = size + 1
        table = rng.normal(size=(size, size, longitudes))
        table += table.transpose(1, 0, 2)
        table += table[:, :, -np.arange(longitudes) % longitudes]
        eig = circulant_eig(table)
    else:
        centers, measure = analysis._euclidean_centers((-2.0, 2.0, -2.0, 2.0), size + 8, 2)
        factor = ginibre_kernel(GinibreParams(0.9, 1.1)).grid_factor(centers, measure)
        assert factor is not None and factor.classes is not None
        eig = factor_eig(factor.phi, factor.classes if route == "factor-classed" else None)
    V = eig.eigenvectors
    assert V.shape == (eig.n, eig.eigenvalues.size)
    for idx in (np.flatnonzero(rng.random(V.shape[1]) < 0.5), np.arange(V.shape[1])[::-1],
                np.array([], dtype=int)):
        assert eig.columns(idx).shape == (eig.n, idx.size)
        if route.startswith("factor"):
            root = np.sqrt(np.clip(eig.eigenvalues[idx], 0.0, None))
            assert np.max(np.abs(eig.columns(idx) - V[:, idx]) * root, initial=0.0) <= 1e-15
        else:
            assert np.array_equal(eig.columns(idx), V[:, idx])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented_exit(code, err):
    # exit 2 prints one line, validation-error[<token>]: with a token of the one list;
    # an overflow names the quantity that left double precision
    assert code in (0, 2, 3, 4, 5)
    assert (code == 0) == (err == "")
    if code == 2:
        line, = err.splitlines()
        token = line.partition("]:")[0].removeprefix("validation-error[")
        assert line.startswith(f"validation-error[{token}]: ") and token in TOKENS
        assert token != "overflow" or line.endswith(" is not finite"), line


radii = st.one_of(st.none(), st.sampled_from(["1e-3", "0.5", "3", "30", "-1", "0", "nan", "inf",
                                              "1e-300"]))


MULTIQUADRIC = {"family": "sphere-multiquadric", "params": {"delta": 0.5, "rho": 0.1}}
GINIBRE = {"family": "ginibre", "params": {"alpha": 1.0, "beta": 1.0}}


# the extreme values are also pinned as explicit examples, which run on every pass
@example(doc={"family": "jinc"}, anchor=None, radius="1e-300", points=None)
@example(doc=MULTIQUADRIC, anchor="1e200,1e200,0", radius=None, points=None)
@example(doc=MULTIQUADRIC, anchor="1e-200,1e-200,0", radius=None, points=None)
@example(doc=MULTIQUADRIC, anchor="inf,0,1", radius=None, points=None)
@example(doc=GINIBRE, anchor="1e200,1e200", radius=None, points=None)
@example(doc={"family": "ginibre", "params": {"alpha": 10 ** 400, "beta": 1.0}}, anchor=None,
         radius=None, points=None)
@example(doc={"family": "finite", "matrix": [[[1e308, 0.0]] * 2] * 2}, anchor=None, radius=None,
         points=None)
@given(doc=spec_documents(), anchor=st.one_of(st.none(), st.sampled_from(
           ["0,0", "1.5,-2", "0.3", "2", "0,0,1", "0,0,0", "a,b", "", "1e200,1e200,0",
            "1e-200,1e-200,0", "inf,0,1", "1e200,1e200"])),
       radius=radii, points=st.one_of(st.none(), st.integers(-2, 5)))
def test_repulsiveness_exits_with_a_documented_code(tmp_path_factory, doc, anchor, radius,
                                                    points):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["repulsiveness", str(path)]
    argv += [f"--anchor={anchor}"] if anchor is not None else []
    argv += [f"--truncation-radius={radius}"] if radius is not None else []
    argv += [f"--profile-points={points}"] if points is not None else []
    code, out, err = run(argv)
    assert_documented_exit(code, err)


@example(model="jinc", ks=[0.5], rho=None, radius="1e-300")
@example(model="ginibre", ks=[345.0], rho=None, radius="100")
@given(model=st.sampled_from(["jinc", "ginibre"]),
       ks=st.lists(st.one_of(st.floats(min_value=-2.5, max_value=6.0),
                             st.sampled_from(["nan", "inf", "-2", "x", "1e300"])),
                   min_size=1, max_size=3),
       rho=st.one_of(st.none(), st.sampled_from(["1", "0.05", "0", "-1", "nan", "1e300"])),
       radius=radii)
def test_moments_exits_with_a_documented_code(model, ks, rho, radius):
    argv = ["moments", "--model", model, "--k=" + ",".join(str(k) for k in ks)]
    argv += [f"--rho={rho}"] if rho is not None else []
    argv += [f"--truncation-radius={radius}"] if radius is not None else []
    code, out, err = run(argv)
    assert_documented_exit(code, err)
    if model == "jinc" and rho is not None and code != 3:  # nothing reads --rho there
        assert code == 2 and err.startswith("validation-error[param-bound]") and "--rho" in err


# flags of each subcommand with values it accepts; each example passes a flag
# one of these, a value from BAD_VALUES, or leaves it out
CLI_FLAGS = {
    "validate": {},
    "repulsiveness": {"--anchor": ["1", "0,0", "0.5,-1", "0,0,1"],
                      "--profile-points": ["1", "4"], "--profile-max": ["0.5", "3"],
                      "--rel-tol": ["1e-6"], "--truncation-radius": ["5", "30"]},
    "couple": {"--anchor": ["1", "2"], "--seed": ["0", "7"], "--samples": ["1", "50"]},
    "profile": {"--models": ["ginibre", "jinc", "ginibre,jinc"], "--beta": ["0.5", "1"],
                "--r-min": ["0", "0.5"], "--r-max": ["2", "5"], "--r-points": ["1", "5"]},
    "moments": {"--model": ["ginibre", "jinc"], "--k": ["0.5", "-1,2"], "--rho": ["0.05", "1"],
                "--truncation-radius": ["5", "30"]},
    "sample": {"--samples": ["0", "5"], "--seed": ["0", "3"],
               "--window": ["-1,1,-1,1", "-2,2"], "--resolution": ["1", "3", "100"]},
}
BAD_VALUES = ["nan", "inf", "0", "-1", "1e308", "x", "", "1000000000000000"]
CLI_SPECS = {
    "finite": {"family": "finite", "matrix": [[[0.3, 0], [0, 0]], [[0, 0], [0.7, 0]]]},
    "ginibre": GINIBRE,
    "jinc": {"family": "jinc"},
    "sinc": {"family": "sinc", "params": {"alpha": 0.8}},
    "sinc-thin": {"family": "sinc", "params": {"alpha": 1.0, "beta": 1e-300}},
    "multiquadric": MULTIQUADRIC,
}


@pytest.fixture(scope="module")
def cli_spec_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-specs")
    paths = {"missing": str(directory / "missing.json")}
    for name, doc in CLI_SPECS.items():
        paths[name] = str(directory / f"{name}.json")
        (directory / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return paths


@st.composite
def cli_argvs(draw):
    """An argv for one of the six subcommands: a spec or none, each flag left
    out, valid or bad, and sometimes an unknown flag; spec names stand for
    the paths in cli_spec_paths."""
    command = draw(st.sampled_from(sorted(CLI_FLAGS)))
    argv = [command]
    if command in ("validate", "repulsiveness", "couple", "sample") and draw(st.integers(0, 7)):
        argv.append(draw(st.sampled_from(sorted(CLI_SPECS) + ["missing"])))
    for flag, valid in CLI_FLAGS[command].items():
        # one flag in six gets a bad value, so many examples get past parsing
        kind = draw(st.sampled_from(["omit", "omit", "valid", "valid", "valid", "bad"]))
        if kind != "omit":
            argv.append(f"{flag}={draw(st.sampled_from(valid if kind == 'valid' else BAD_VALUES))}")
    if command == "sample" and draw(st.booleans()):
        argv.append("--emit-points")
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), "--bogus=1")
    return argv


@settings(max_examples=200)
@example(argv=["profile", "--r-points=1000000000000000"])
@example(argv=["repulsiveness", "jinc", "--profile-points=1000000000000000"])
@example(argv=["couple", "finite", "--samples=1000000000000000"])
@example(argv=["sample", "finite", "--samples=1000000000000000"])
@example(argv=["repulsiveness", "sinc-thin", "--profile-max=1e308"])
@given(argv=cli_argvs())
def test_every_command_exits_with_a_documented_code(cli_spec_paths, argv):
    code, out, err = run([cli_spec_paths.get(a, a) for a in argv])
    assert_documented_exit(code, err)
