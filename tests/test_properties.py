"""Property tests: closed forms over random parameters, and the CLI's exit
contract over random valid and invalid inputs.

The hypothesis profile in conftest.py derandomizes the examples and bounds
their number, so these run the same way every time.
"""
from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from palmdpp.analysis import ginibre_moment, jinc_moment_closed, moment_quadrature
from palmdpp.cli import main
from palmdpp.kernel_core import repulsiveness_p, sphere_surface_measure
from palmdpp.model_zoo import (GinibreParams, ginibre_kernel, jinc_kernel, sphere_kernel,
                               sphere_model, sphere_multiplicity, sphere_p, thin_rescale)

betas = st.floats(min_value=0.01, max_value=1.0)
jinc_orders = st.floats(min_value=-1.99, max_value=0.99)


@given(d=st.sampled_from([1, 2]), beta=betas, share=st.floats(min_value=0.05, max_value=1.0))
def test_thinned_p_u_within_reported_error(d, beta, share):
    alpha = share / beta  # alpha * beta = share <= 1
    report = repulsiveness_p(thin_rescale(jinc_kernel(d), alpha, beta), np.zeros(d))
    assert abs(report.p_u - alpha * beta) <= report.quadrature_error
    assert report.quadrature_error <= 1e-7


@given(k=jinc_orders, beta=betas)
def test_thinned_jinc_moment_within_reported_error(k, beta):
    # the displacement scales by sqrt(beta) under thinning
    res = moment_quadrature(thin_rescale(jinc_kernel(2), 1.0, beta), np.zeros(2), k)
    assert not res.divergent
    assert abs(res.quadrature - beta ** (k / 2.0) * jinc_moment_closed(k)) <= res.abs_error


@given(k=st.floats(min_value=-1.99, max_value=4.0), rho=st.floats(min_value=1e-3, max_value=1e3))
def test_ginibre_moment_within_reported_error(k, rho):
    alpha = math.pi * rho
    res = moment_quadrature(ginibre_kernel(GinibreParams(alpha, 1.0 / alpha)), np.zeros(2), k)
    assert abs(res.quadrature - ginibre_moment(k, rho)) <= res.abs_error


@given(k=st.floats(min_value=1.0, max_value=10.0))
def test_jinc_moment_divergent_exactly_from_order_one(k):
    assert moment_quadrature(jinc_kernel(2), np.zeros(2), k).divergent


@st.composite
def sphere_models(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    raw = draw(st.lists(st.integers(0, 20), min_size=1, max_size=8))
    assume(sum(raw) > 0)
    beta = np.asarray(raw) / sum(raw)
    mult = np.array([sphere_multiplicity(ell, d) for ell in range(beta.size)], dtype=float)
    nonzero = beta > 0
    rho_max = float(np.min(mult[nonzero] / (sphere_surface_measure(d) * beta[nonzero])))
    rho = draw(st.floats(min_value=0.05, max_value=1.0)) * rho_max
    return sphere_model(d, rho, beta.tolist())


@given(model=sphere_models())
def test_sphere_quadrature_agrees_with_series(model):
    north = np.zeros(model.d + 1)
    north[-1] = 1.0
    report = repulsiveness_p(sphere_kernel(model), north)
    series = sphere_p(model).value
    assert abs(report.p_u - series) <= report.quadrature_error + 1e-9 * series


# ------------------------------------------------------------ CLI contract

numbers = st.one_of(st.floats(min_value=-2.0, max_value=3.0), st.sampled_from([0.0, 1e-9, 50.0]),
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
        doc["matrix"] = [[[draw(st.floats(min_value=-1.0, max_value=1.0)), 0.0]
                          for _ in range(n)] for _ in range(n)]
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


radii = st.one_of(st.none(), st.sampled_from(["1e-3", "0.5", "3", "30", "-1", "0", "nan", "inf"]))


@given(doc=spec_documents(), anchor=st.one_of(st.none(), st.sampled_from(
           ["0,0", "1.5,-2", "0.3", "2", "0,0,1", "0,0,0", "a,b", ""])),
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
    assert code in (0, 2, 3, 4, 5)
    assert (code == 0) == (err == "")


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
    assert code in (0, 2, 3, 4, 5)
    assert (code == 0) == (err == "")
