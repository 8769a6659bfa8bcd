"""Command-line surface: spec files, CSV reports, exit codes, determinism."""
from __future__ import annotations

import ast
import functools
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import palmdpp
from palmdpp import analysis, cli, finite_dpp, numerics
from palmdpp.cli import load_kernel_spec, main

from conftest import random_dpp_matrix


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def count_gl_nodes(monkeypatch):
    """Count the Gauss-Legendre nodes at which integrands are evaluated."""
    nodes = [0]
    gl_on_edges = numerics._gl_on_edges

    def counted(edges, rule_nodes, weights):
        nodes[0] += (len(edges) - 1) * len(rule_nodes)
        return gl_on_edges(edges, rule_nodes, weights)

    monkeypatch.setattr(numerics, "_gl_on_edges", counted)
    return nodes


def parse_blocks(text):
    """Split multi-block CSV output into [(header, rows)] with float cells."""
    blocks = []
    for chunk in text.strip().split("\n\n"):
        lines = chunk.strip().split("\n")
        header = lines[0].split(",")
        rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
        blocks.append((header, rows))
    return blocks


def reference_sample_output(bits, centers=None) -> str:
    """`sample --emit-points` stdout with one format call per cell, looping
    over every draw and every site."""
    def fmt(x):
        return format(float(x), ".12g")

    def block(header, rows):
        return ",".join(header) + "\n" + "".join(
            ",".join(fmt(v) for v in row) + "\n" for row in rows)

    draws, n = bits.shape
    text = block(["sample", "count"], [[i, sum(map(int, bits[i]))] for i in range(draws)])
    if centers is None:
        header = ["sample", "site"]
        rows = [[i, v + 1] for i in range(draws) for v in range(n) if bits[i, v]]
    else:
        header = ["sample"] + ["x", "y", "z"][:centers.shape[1]]
        rows = [[i, *centers[v]] for i in range(draws) for v in range(n) if bits[i, v]]
    return text + "\n" + block(header, rows)


def matrix_spec(K):
    return {"family": "finite",
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in K]}


GINIBRE_SPEC = {"family": "ginibre", "params": {"alpha": 1.0, "beta": 1.0}}
DIAG_SPEC = {"family": "finite",
             "matrix": [[[0.3, 0], [0, 0]], [[0, 0], [0.7, 0]]]}


def rank2_spec():
    n = 3
    t = [1 / math.sqrt(2), -1 / math.sqrt(2), 0.0]
    matrix = [[[1 / n + t[i] * t[j], 0.0] for j in range(n)] for i in range(n)]
    return {"family": "finite", "matrix": matrix}


# "G" stands for the alpha = beta = 1 Ginibre spec, "J" for jinc, "D" for a finite
# spec and "S" for a sphere one
@pytest.mark.parametrize("argv,code,token", [
    (["repulsiveness", "G", "--profile-points", "3", "--profile-max", "nan"], 3, "parse-error"),
    (["repulsiveness", "G", "--profile-points", "3", "--profile-max", "0"], 3, "parse-error"),
    (["repulsiveness", "J", "--profile-points", "4", "--profile-max", "1e308"], 2,
     "validation-error[overflow]"),
    (["profile", "--r-max", "inf"], 3, "parse-error"),
    (["profile", "--r-max", "1e308", "--r-points", "3"], 2, "validation-error[overflow]"),
    (["profile", "--r-min=-1", "--r-max", "0", "--r-points", "3"], 3, "parse-error"),
    (["profile", "--beta", "1.5"], 2, "validation-error[param-bound]"),
    (["profile", "--beta", "nan"], 3, "parse-error"),
    (["profile", "--models", "ginibre,sinc"], 3, "parse-error"),
    (["profile", "--models", " , "], 3, "parse-error"),
    (["couple", "D", "--seed=-1"], 3, "parse-error"),
    (["sample", "D", "--seed=-1"], 3, "parse-error"),
    (["sample"], 3, "parse-error"),
    (["sample", "G", "--bad", "1"], 3, "parse-error"),
    ([], 3, "parse-error"),
    (["sample", "G", "--window=-1,1,-1,1", "--resolution", "0"], 3, "parse-error"),
    (["sample", "G", "--window=nan,1,-1,1", "--resolution", "3"], 3, "parse-error"),
    (["sample", "G", "--window=-1,1", "--resolution", "3"], 3, "parse-error"),
    (["sample", "G", "--window=1,-1,-1,1", "--resolution", "3"], 2,
     "validation-error[param-bound]"),
    (["sample", "S"], 3, "parse-error"),
    (["sample", "G", "--resolution", "3"], 3, "parse-error"),
], ids=["nan-profile-max", "zero-profile-max", "jinc-profile-past-doubles", "inf-radius", "radius-overflows-density",
        "negative-radius", "beta-above-one", "nan-beta", "unknown-model", "no-models",
        "couple-negative-seed",
        "sample-negative-seed", "missing-spec", "unknown-flag", "missing-command",
        "zero-resolution", "nan-window", "short-window", "decreasing-window",
        "sphere-without-resolution", "plane-without-window"])
def test_bad_flag_values_exit_with_a_token(tmp_path, argv, code, token):
    specs = {"G": write_spec(tmp_path, "g.json", GINIBRE_SPEC),
             "J": write_spec(tmp_path, "j.json", {"family": "jinc"}),
             "D": write_spec(tmp_path, "d.json", DIAG_SPEC),
             "S": write_spec(tmp_path, "s.json", QUADRATURE_SPECS["multiquadric"])}
    got, out, err = run_cli([specs.get(a, a) for a in argv])
    assert (got, out) == (code, "") and err.startswith(token)
    assert "usage:" not in err


# each flag converter's refusal, word for word: counts >= 0 and >= 1, radii >= 0,
# tolerances > 0 and finite numbers
@pytest.mark.parametrize("argv,message", [
    (["sample", "D", "--seed=-1"], "argument --seed: expected an integer >= 0, got '-1'"),
    (["couple", "D", "--samples=0"], "argument --samples: expected an integer >= 1, got '0'"),
    (["profile", "--r-min=-1"], "argument --r-min: expected a finite number >= 0, got '-1'"),
    (["repulsiveness", "S", "--rel-tol=0"],
     "argument --rel-tol: expected a finite number > 0, got '0'"),
    (["profile", "--beta=nan"], "argument --beta: expected a finite number, got 'nan'"),
], ids=["count-from-zero", "count", "nonnegative", "positive", "finite"])
def test_flag_refusals_keep_their_text(tmp_path, argv, message):
    specs = {"D": write_spec(tmp_path, "d.json", DIAG_SPEC),
             "S": write_spec(tmp_path, "s.json", QUADRATURE_SPECS["multiquadric"])}
    assert run_cli([specs.get(a, a) for a in argv]) == (3, "", f"parse-error: {message}\n")


QUADRATURE_SPECS = {
    "ginibre": GINIBRE_SPEC, "jinc": {"family": "jinc"}, "sinc": {"family": "sinc"},
    "finite": DIAG_SPEC,
    "multiquadric": {"family": "sphere-multiquadric", "params": {"delta": 0.5, "rho": 0.1}},
    "sphere-coefficients": {"family": "sphere-coefficients",
                            "params": {"d": 2, "rho": 0.08, "beta_coeffs": [0.5, 0.3, 0.2]}},
}
REFUSED = "validation-error[param-bound]"


# --rel-tol is read only by the sphere's polar rule, --truncation-radius only
# by Euclidean radial quadrature; elsewhere repulsiveness refuses the flag
QUADRATURE_FLAG_CASES = [
    *[(["repulsiveness", f"{spec}.json", "--rel-tol=1e-6"], 2, REFUSED)
      for spec in ("ginibre", "jinc", "sinc", "finite")],
    *[(["repulsiveness", f"{spec}.json", "--truncation-radius=30"], 2, REFUSED)
      for spec in ("multiquadric", "sphere-coefficients", "finite")],
    *[(["repulsiveness", f"{spec}.json", "--rel-tol=1e-6"], 0, "")
      for spec in ("multiquadric", "sphere-coefficients")],
    *[(["repulsiveness", f"{spec}.json", "--truncation-radius=30"], 0, "")
      for spec in ("ginibre", "jinc", "sinc")],
    (["moments", "--model", "ginibre", "--k=1", "--rel-tol=1e-6"], 3, "parse-error"),
    (["moments", "--model", "jinc", "--k=0.5", "--truncation-radius=30"], 0, ""),
]


@pytest.mark.parametrize("argv,code,token", QUADRATURE_FLAG_CASES, ids=[
    "-".join([a.removesuffix(".json") for a in argv if not a.startswith("--")]
             + [argv[-1].split("=")[0].lstrip("-")])
    for argv, _, _ in QUADRATURE_FLAG_CASES])
def test_quadrature_flags_only_where_a_rule_reads_them(tmp_path, argv, code, token):
    specs = {f"{name}.json": write_spec(tmp_path, f"{name}.json", doc)
             for name, doc in QUADRATURE_SPECS.items()}
    got, out, err = run_cli([specs.get(a, a) for a in argv])
    assert got == code and err.startswith(token)
    if code == 0:
        assert err == "" and out
    else:
        assert out == "" and argv[-1].split("=")[0] in err


# a flag nothing reads on a spec's space is refused, naming the flag:
# --profile-max ends only a Euclidean profile, --profile-points samples only a
# continuous one, --window bounds only a Euclidean grid, --resolution sets only
# a continuous grid, and --rho is only the Ginibre model's intensity
GRID = ["--samples=2", "--resolution=2"]
UNREAD_FLAG_CASES = [
    *[(["repulsiveness", f"{spec}.json", "--profile-points=3", "--profile-max=2"], 2, REFUSED)
      for spec in ("multiquadric", "sphere-coefficients")],
    (["repulsiveness", "finite.json", "--profile-max=2"], 2, REFUSED),
    (["repulsiveness", "finite.json", "--profile-points=3"], 2, REFUSED),
    *[(["repulsiveness", f"{spec}.json", "--profile-points=3", "--profile-max=2"], 0, "")
      for spec in ("ginibre", "jinc", "sinc")],
    (["repulsiveness", "ginibre.json", "--profile-max=2"], 0, ""),
    *[(["repulsiveness", f"{spec}.json", "--profile-points=3"], 0, "")
      for spec in ("ginibre", "multiquadric", "sphere-coefficients")],
    *[(["sample", f"{spec}.json", *GRID, "--window=-1,1,-1,1"], 2, REFUSED)
      for spec in ("multiquadric", "sphere-coefficients")],
    (["sample", "finite.json", "--samples=2", "--window=-1,1,-1,1"], 2, REFUSED),
    (["sample", "finite.json", "--samples=2", "--resolution=2"], 2, REFUSED),
    (["sample", "ginibre.json", *GRID, "--window=-1,1,-1,1"], 0, ""),
    (["sample", "sinc.json", *GRID, "--window=-1,1"], 0, ""),
    *[(["sample", f"{spec}.json", "--samples=2", "--resolution=2"], 0, "")
      for spec in ("multiquadric", "sphere-coefficients")],
    (["sample", "finite.json", "--samples=2"], 0, ""),
    (["moments", "--model", "jinc", "--k=0.5", "--rho=0.05"], 2, REFUSED),
    (["moments", "--model", "ginibre", "--k=0.5", "--rho=0.05"], 0, ""),
    (["moments", "--model", "jinc", "--k=0.5"], 0, ""),
]


@pytest.mark.parametrize("argv,code,token", UNREAD_FLAG_CASES, ids=[
    "-".join([a.removesuffix(".json") for a in argv if not a.startswith("--")]
             + [argv[-1].split("=")[0].lstrip("-")])
    + ("-refused" if code else "")
    for argv, code, _ in UNREAD_FLAG_CASES])
def test_flags_only_where_something_reads_them(tmp_path, argv, code, token):
    specs = {f"{name}.json": write_spec(tmp_path, f"{name}.json", doc)
             for name, doc in QUADRATURE_SPECS.items()}
    got, out, err = run_cli([specs.get(a, a) for a in argv])
    assert got == code and err.startswith(token)
    if code == 0:
        assert err == "" and out
    else:
        assert out == "" and argv[-1].split("=")[0] in err


@pytest.mark.parametrize("argv,quantity", [
    (["moments", "--model=ginibre", "--k", "300", "--rho", "1e-5"], "Jacobi cell's (w/2)^(a + 1)"),
    (["moments", "--model=ginibre", "--k=0", "--truncation-radius=1e308"], "(R/s)^2"),
    (["moments", "--model=ginibre", "--k=1", "--rho=1e300"], "(alpha/pi)^2"),
    (["moments", "--model=ginibre", "--k=6", "--rho=1e300"], "(alpha/pi)^2"),
    # Gamma((d + 1)/2) in the surface measure of S^d leaves double precision from d = 343
    (["validate", "sphere-d-400"], "Gamma((d + 1)/2) in the surface measure of S^400"),
    # gram divides by beta through 1/beta, and its 0 * inf made K(u, u) nan
    (["repulsiveness", "ginibre-beta-1e-310"], "1/beta at beta = 1e-310"),
], ids=["jacobi-cell-scale", "radius-squared", "ginibre-amplitude-k1", "ginibre-amplitude-k6",
        "sphere-gamma", "ginibre-subnormal-beta"])
def test_overflow_names_the_quantity(tmp_path, argv, quantity):
    specs = {"sphere-d-400": {"family": "sphere-coefficients",
                              "params": {"d": 400, "rho": 0.1, "beta_coeffs": [1.0]}},
             "ginibre-beta-1e-310": {"family": "ginibre", "params": {"alpha": 1, "beta": 1e-310}}}
    code, out, err = run_cli([write_spec(tmp_path, f"{a}.json", specs[a]) if a in specs else a
                              for a in argv])
    assert (code, out) == (2, "") and err.startswith("validation-error[overflow]:")
    assert quantity in err and err.endswith(" is not finite\n")
    assert "(34," not in err and "math range error" not in err


# a count whose arrays would take petabytes: numpy's MemoryError is a size guard
@pytest.mark.parametrize("argv", [
    ["profile", "--r-points", "1000000000000000"],
    ["repulsiveness", "J", "--profile-points", "1000000000000000"],
    ["couple", "D", "--samples", "1000000000000000"],
    ["sample", "D", "--samples", "1000000000000000"],
], ids=["profile", "repulsiveness", "couple", "sample"])
def test_count_too_large_to_allocate_is_a_size_guard(tmp_path, argv):
    specs = {"J": write_spec(tmp_path, "j.json", {"family": "jinc"}),
             "D": write_spec(tmp_path, "d.json", DIAG_SPEC)}
    code, out, err = run_cli([specs.get(a, a) for a in argv])
    assert (code, out) == (4, "")
    line, = err.splitlines()
    assert line.startswith("size-guard: Unable to allocate")


# at delta = 1 - 2^-53, 1 + delta^2 - 2 delta t rounds to 0 at t = 1: the
# multiquadric's K0 is inf there, and a refusal is one stderr line
@pytest.mark.parametrize("argv,rho,err", [
    (["repulsiveness"], 1e-3, "the f_u profile is not finite"),
    (["sample", "--resolution=4"], 1e-3, "the grid's kernel matrix is not finite"),
    (["repulsiveness"], 1e-300, None),
], ids=["repulsiveness", "sample", "repulsiveness-tiny-rho"])
def test_multiquadric_pole_warns_nothing(tmp_path, argv, rho, err):
    doc = {"family": "sphere-multiquadric", "params": {"delta": 0.9999999999999999, "rho": rho}}
    code, out, stderr = run_cli([argv[0], write_spec(tmp_path, "m.json", doc), *argv[1:]])
    if err is None:
        assert (code, stderr) == (0, "") and out
    else:
        assert (code, out) == (2, "")
        assert stderr == f"validation-error[overflow]: a value leaves double precision: {err}\n"


# a value that leaves double precision on the way to a refusal prints no warning first
@pytest.mark.parametrize("argv,err", [
    (["repulsiveness", "ginibre", "--anchor=1e200,1e200"],
     "K(u, u) at the anchor [1.e+200 1.e+200] is not finite"),
    (["repulsiveness", "jinc-thin", "--anchor=1e200,1e200"],
     "K(u, u) at the anchor [1.e+200 1.e+200] is not finite"),
    (["repulsiveness", "sinc-thin", "--profile-max=1e300", "--profile-points=2"],
     "the f_u profile is not finite"),
    (["moments", "--model=ginibre", "--k=345", "--truncation-radius=100"],
     "the radial integral to the truncation radius 100 is not finite"),
], ids=["ginibre-far-anchor", "thinned-jinc-far-anchor", "thinned-sinc-profile",
        "ginibre-gamma-tail"])
def test_overflow_is_one_stderr_line(tmp_path, argv, err):
    specs = {"ginibre": GINIBRE_SPEC,
             "jinc-thin": {"family": "jinc", "params": {"alpha": 1.0, "beta": 1e-300}},
             "sinc-thin": {"family": "sinc", "params": {"alpha": 1.0, "beta": 1e-300}}}
    code, out, stderr = run_cli([write_spec(tmp_path, f"{a}.json", specs[a]) if a in specs else a
                                 for a in argv])
    assert (code, out) == (2, "")
    assert stderr == f"validation-error[overflow]: a value leaves double precision: {err}\n"


def child_env():
    return dict(os.environ, PYTHONPATH=str(Path(palmdpp.__file__).parents[1]))


def test_usage_error_of_the_module_is_a_parse_error():
    proc = subprocess.run([sys.executable, "-m", "palmdpp", "sample"], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["parse-error: the following arguments are required: spec"]


@pytest.mark.parametrize("argv,code,stream,start", [
    (["palmdpp", "validate", "G"], 0, "stdout", "ok: family=ginibre"),
    (["palmdpp.cli", "validate", "G"], 0, "stdout", "ok: family=ginibre"),
    (["palmdpp", "frobnicate", "G"], 3, "stderr", "parse-error: argument command"),
], ids=["package", "cli-module", "unknown-command"])
def test_module_entry_points(tmp_path, argv, code, stream, start):
    spec = write_spec(tmp_path, "g.json", GINIBRE_SPEC)
    proc = subprocess.run([sys.executable, "-m"] + [spec if a == "G" else a for a in argv],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == code and getattr(proc, stream).startswith(start)
    assert (proc.stderr if code == 0 else proc.stdout) == ""


@functools.cache
def modules_after_import(package):
    """The names in sys.modules of a fresh interpreter after `import package`."""
    proc = subprocess.run([sys.executable, "-c", f"import sys, {package}; print(*sys.modules)"],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


SCIPY_ON_FIRST_USE = ["scipy.stats", "scipy.integrate", "scipy.sparse", "scipy.sparse.csgraph",
                      "scipy.linalg", "scipy.special", "scipy"]


@pytest.mark.parametrize("package,module", [
    *[pytest.param("palmdpp.cli", module, id=module) for module in SCIPY_ON_FIRST_USE],
    *[pytest.param("palmdpp", module, id=f"package-{module}") for module in SCIPY_ON_FIRST_USE]])
def test_cli_import_leaves_module_unloaded(package, module):
    # each scipy submodule is imported in the code that calls it, and every
    # integral comes from numerics' own rules, so importing the CLI or the
    # package (which star-imports every module) loads no scipy
    assert module not in modules_after_import(package)


@pytest.fixture
def in_spec_dir(tmp_path, monkeypatch):
    """Work in tmp_path, which holds <name>.json for each of QUADRATURE_SPECS."""
    for name, doc in QUADRATURE_SPECS.items():
        write_spec(tmp_path, f"{name}.json", doc)
    monkeypatch.chdir(tmp_path)


# one child process per command, so what the command loaded is all that is in sys.modules
SCIPY_AFTER_MAIN = """import contextlib, io, sys
from palmdpp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("argv", [
    *[["validate", f"{name}.json"] for name in QUADRATURE_SPECS],
    ["sample", "finite.json", "--samples=20", "--seed=3", "--emit-points"],
    ["repulsiveness", "multiquadric.json"],
    ["repulsiveness", "sinc.json"],
], ids=lambda argv: "-".join(a.removesuffix(".json") for a in argv[:2]))
def test_command_loads_no_scipy(in_spec_dir, argv):
    proc = subprocess.run([sys.executable, "-c", SCIPY_AFTER_MAIN, *argv], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 []\n", "")


@pytest.mark.parametrize("argv", [
    ["repulsiveness", "jinc.json"],
    ["repulsiveness", "ginibre.json"],
    ["moments", "--model=ginibre", "--k=1,2"],
    ["moments", "--model=jinc", "--k=0.5"],
    ["sample", "ginibre.json", "--samples=3", "--seed=5", "--window=-1,1,-1,1",
     "--resolution=4", "--emit-points"],
    ["profile", "--r-points=5"],
], ids=lambda argv: "-".join(a.removesuffix(".json").removeprefix("--model=") for a in argv[:2]))
def test_command_loads_no_scipy_linalg(in_spec_dir, argv):
    # these load scipy.special, and every eigendecomposition, the Gauss-Jacobi
    # rules' included, is numpy's.  couple is left out: scipy's max-flow loads
    # scipy.sparse.linalg, and through it scipy.linalg
    proc = subprocess.run([sys.executable, "-c", SCIPY_AFTER_MAIN, *argv], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    code, loaded = proc.stdout.split(" ", 1)
    assert (proc.returncode, code, proc.stderr) == (0, "0", "")
    assert "scipy.linalg" not in ast.literal_eval(loaded)


@pytest.mark.parametrize("argv", [
    ["couple", "finite.json", "--anchor=2", "--seed=4", "--samples=200"],
    ["repulsiveness", "jinc.json"],
    ["sample", "ginibre.json", "--samples=3", "--seed=5", "--window=-1,1,-1,1",
     "--resolution=4", "--emit-points"],
    ["profile", "--r-points=5"],
], ids=lambda argv: "-".join(a.removesuffix(".json") for a in argv[:2]))
def test_scipy_on_first_use_prints_what_warm_runs_print(in_spec_dir, argv):
    # a fresh process imports scipy inside the command; the in-process run
    # after a warm-up call has it loaded already.  Their stdout is the same bytes
    proc = subprocess.run([sys.executable, "-m", "palmdpp", *argv], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    run_cli(argv)
    assert run_cli(argv) == (0, proc.stdout, "")


class TestValidateCommand:
    @pytest.mark.parametrize("doc", [
        {"family": "finite", "matrix": [[[0.5, 0]]]},
        {"family": "ginibre", "params": {"alpha": 1.0, "beta": 1.0}},
        {"family": "jinc"},
        {"family": "sinc"},
        {"family": "sphere-multiquadric", "params": {"delta": 0.5, "rho": 0.1}},
        {"family": "sphere-coefficients",
         "params": {"d": 2, "rho": 0.1, "beta_coeffs": [0.5, 0.3, 0.2]}},
    ], ids=lambda doc: doc["family"])
    def test_family_refuses_unknown_params(self, tmp_path, doc):
        valid = write_spec(tmp_path, "ok.json", doc)
        assert run_cli(["validate", valid])[0] == 0
        doc = {**doc, "params": {**doc.get("params", {}), "gamma": 1.0}}
        code, out, err = run_cli(["validate", write_spec(tmp_path, "bad.json", doc)])
        assert (code, out) == (3, "")
        assert f"unknown params for family {doc['family']!r}: ['gamma']" in err

    @pytest.mark.parametrize("doc,echo", [
        ({"family": "jinc"}, {"alpha": 1.0, "beta": 1.0}),
        ({"family": "sinc", "params": {"beta": 0.5}}, {"alpha": 1.0, "beta": 0.5}),
        ({"family": "ginibre", "params": {"alpha": 2, "beta": 0.25}},
         {"alpha": 2.0, "beta": 0.25}),
        ({"family": "sphere-coefficients",
          "params": {"d": 2, "rho": 0.1, "beta_coeffs": [0.5, 0.3, 0.1], "tail_bound": 0.1}},
         {"d": 2, "rho": 0.1}),
    ], ids=["jinc-defaults", "sinc-alpha-default", "ginibre-floats", "sphere-d-and-rho"])
    def test_validate_echoes_the_table_params(self, tmp_path, doc, echo):
        code, out, _ = run_cli(["validate", write_spec(tmp_path, "s.json", doc)])
        assert code == 0
        assert out == f"ok: family={doc['family']} n=- params={json.dumps(echo, sort_keys=True)}\n"

    def test_valid_finite(self, tmp_path):
        code, out, _ = run_cli(["validate", write_spec(tmp_path, "d.json", DIAG_SPEC)])
        assert code == 0 and "ok" in out

    def test_spectrum_token(self, tmp_path):
        doc = {"family": "finite", "matrix": [[[1.5, 0]]]}
        code, _, err = run_cli(["validate", write_spec(tmp_path, "s.json", doc)])
        assert code == 2 and "[spectrum]" in err

    def test_entries_near_the_double_maximum_are_one_spectrum_line(self, tmp_path):
        doc = {"family": "finite", "matrix": [[[1e308, 0]] * 2] * 2}
        code, out, err = run_cli(["validate", write_spec(tmp_path, "s.json", doc)])
        assert (code, out) == (2, "")
        assert err == ("validation-error[spectrum]: eigenvalues must lie in [0, 1]; "
                       "found range [0, inf]\n")

    def test_non_hermitian_token(self, tmp_path):
        doc = {"family": "finite",
               "matrix": [[[0.5, 0], [0.4, 0]], [[0.1, 0], [0.5, 0]]]}
        code, _, err = run_cli(["validate", write_spec(tmp_path, "h.json", doc)])
        assert code == 2 and "[non-hermitian]" in err

    def test_param_bound_token(self, tmp_path):
        doc = {"family": "ginibre", "params": {"alpha": 1.0, "beta": 1.5}}
        code, _, err = run_cli(["validate", write_spec(tmp_path, "g.json", doc)])
        assert code == 2 and "[param-bound]" in err and "exceeds 1" in err

    def test_existence_bound_token(self, tmp_path):
        doc = {"family": "sphere-multiquadric", "params": {"delta": 0.5, "rho": 1.0}}
        code, _, err = run_cli(["validate", write_spec(tmp_path, "m.json", doc)])
        assert code == 2 and "[existence-bound]" in err

    @pytest.mark.parametrize("doc,phrase", [
        ("{not json", "line 1 column 2"),
        ({"family": "ginibre", "params": {"alpha": 1.0, "beta": 1.0}, "zzz": 1}, "zzz"),
        ({"family": "finite", "matrix": [[0.5]]}, "[re, im] pair"),
        ({"family": "nope"}, "family must be one of"),
        ({"family": "ginibre", "params": {"alpha": 1.0}}, "needs params.beta"),
        ({"family": "finite", "matrix": "I"}, "nonempty list of rows"),
        ({"family": "finite", "matrix": [[[0.3, 0], [0, 0]], [[0, 0]]]}, "row 1 must have 2"),
        ([GINIBRE_SPEC], "must hold a JSON object"),
        ({"family": "ginibre", "params": [1.0, 1.0]}, "params must be an object"),
        ({"family": "finite"}, "needs a matrix"),
        ({"family": "sphere-coefficients",
          "params": {"d": 2, "rho": 0.1, "beta_coeffs": [0.5, "0.5"]}}, "beta_coeffs"),
        ({"family": "sphere-coefficients",
          "params": {"d": 2, "rho": 0.1, "beta_coeffs": [1.0], "tail_bound": "0"}}, "tail_bound"),
        # a JSON integer beyond double precision reads like 1e400
        ({"family": "ginibre", "params": {"alpha": 10 ** 400, "beta": 1.0}},
         "params.alpha must be a finite number"),
        ({"family": "finite", "matrix": [[[10 ** 400, 0]]]}, "must be a finite [re, im] pair"),
        ({"family": "sphere-coefficients",
          "params": {"d": 2, "rho": 0.1, "beta_coeffs": [10 ** 400]}}, "beta_coeffs"),
        # past int()'s 4,300-digit limit, which json.dumps cannot write either
        ('{"family": "ginibre", "params": {"alpha": 1' + "0" * 5000 + ', "beta": 1}}',
         "bad.json"),
        ("[" * 100_000 + "]" * 100_000, "bad.json"),
    ], ids=["not-json", "unknown-key", "real-entry", "unknown-family", "missing-param",
            "matrix-not-a-list", "ragged-row", "top-level-array", "params-not-an-object",
            "finite-without-matrix", "non-numeric-coefficient", "non-numeric-tail-bound",
            "huge-integer-param", "huge-integer-entry", "huge-integer-coefficient",
            "overlong-integer", "deep-nesting"])
    def test_parse_failures(self, request, tmp_path, doc, phrase):
        path = tmp_path / "bad.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(["validate", str(path)])
        assert (code, out) == (3, "") and err.startswith("parse-error") and phrase in err
        assert len(err.splitlines()) == 1
        if request.node.callspec.id.startswith("huge-integer"):  # the value's echo is cut short
            assert len(err) < 200

    def test_sphere_dimension_must_be_an_integer(self, tmp_path):
        doc = {"family": "sphere-coefficients",
               "params": {"d": 2.7, "rho": 0.1, "beta_coeffs": [0.5, 0.3, 0.2]}}
        code, out, err = run_cli(["validate", write_spec(tmp_path, "d.json", doc)])
        assert code == 3 and out == "" and "params.d must be an integer" in err
        doc["params"]["d"] = 2.0
        code, out, _ = run_cli(["validate", write_spec(tmp_path, "d2.json", doc)])
        assert code == 0 and '"d": 2,' in out


class TestRepulsivenessCommand:
    @pytest.mark.parametrize("anchor", ["nan,0", "0,inf"])
    def test_non_finite_anchor_rejected(self, tmp_path, anchor):
        code, out, err = run_cli(["repulsiveness", write_spec(tmp_path, "g.json", GINIBRE_SPEC),
                                  f"--anchor={anchor}"])
        assert code == 2 and out == "" and "validation-error[param-bound]" in err

    @pytest.mark.parametrize("doc,anchor,phrase", [
        (DIAG_SPEC, "1.5", "site indices"),
        (GINIBRE_SPEC, "0,x", "cannot parse anchor"),
        (GINIBRE_SPEC, "0,0,1", "euclidean anchor needs 2 coordinates, got 3"),
        (QUADRATURE_SPECS["multiquadric"], "0,1", "sphere anchor needs 3 coordinates, got 2"),
        (QUADRATURE_SPECS["multiquadric"], "0,0,0", "zero vector"),
    ], ids=["fractional-site", "unparsable", "euclidean-length", "sphere-length", "sphere-zero"])
    def test_unparsable_anchor_is_a_parse_error(self, tmp_path, doc, anchor, phrase):
        code, out, err = run_cli(["repulsiveness", write_spec(tmp_path, "s.json", doc),
                                  f"--anchor={anchor}"])
        assert (code, out) == (3, "") and err.startswith("parse-error") and phrase in err

    def test_sphere_anchor_is_normalized_at_any_scale(self, tmp_path):
        # 1e200 squared overflows and 1e-200 squared underflows; both point where 1,1,0 does
        spec = write_spec(tmp_path, "s.json", QUADRATURE_SPECS["multiquadric"])
        code, want, err = run_cli(["repulsiveness", spec, "--anchor=1,1,0"])
        assert (code, err) == (0, "") and want
        for anchor in ("1e200,1e200,0", "1e-200,1e-200,0"):
            assert run_cli(["repulsiveness", spec, f"--anchor={anchor}"]) == (0, want, "")
        code, out, err = run_cli(["repulsiveness", spec, "--anchor=inf,0,1"])
        assert (code, out) == (2, "")
        line, = err.splitlines()
        assert line.startswith("validation-error[param-bound]: point coordinates must be finite")

    def test_scaled_ginibre(self, tmp_path):
        doc = {"family": "ginibre", "params": {"alpha": 0.5, "beta": 1.5}}
        code, out, _ = run_cli(["repulsiveness", write_spec(tmp_path, "g.json", doc)])
        assert code == 0
        (header, rows), _profile = parse_blocks(out)
        record = dict(zip(header, rows[0]))
        assert abs(record["p_u"] - 0.75) < 1e-6
        assert record["discrepancy"] == 0.0

    def test_jinc_most_repulsive(self, tmp_path):
        code, out, _ = run_cli(["repulsiveness",
                                write_spec(tmp_path, "j.json", {"family": "jinc"})])
        assert code == 0
        (header, rows), _ = parse_blocks(out)
        record = dict(zip(header, rows[0]))
        assert abs(record["p_u"] - 1.0) < 1e-6

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-8, 1e-12])
    def test_rel_tol_is_the_polar_rule_target(self, tmp_path, rel_tol):
        delta = 0.99
        rho = 1.0 / (4.0 * math.pi * (1.0 - delta))
        doc = {"family": "sphere-multiquadric", "params": {"delta": delta, "rho": rho}}
        code, out, _ = run_cli(["repulsiveness", write_spec(tmp_path, "m.json", doc),
                                f"--rel-tol={rel_tol}"])
        assert code == 0
        (header, rows), _ = parse_blocks(out)
        record = dict(zip(header, rows[0]))
        # the eigen-series 4 pi rho (1 - delta)^2 sum delta^(2 l) / (2 l + 1) in closed form
        series = 4.0 * math.pi * rho * (1.0 - delta) ** 2 * math.atanh(delta) / delta
        assert record["quadrature_error"] <= rel_tol * record["p_u"] + 1e-15
        # p_u is printed to 12 significant digits
        printed = 0.5 * 10.0 ** (math.floor(math.log10(series)) - 11)
        assert abs(record["p_u"] - series) <= record["quadrature_error"] + 1e-15 + printed

    def test_multiquadric_discrepancy_flag(self, tmp_path):
        doc = {"family": "sphere-multiquadric",
               "params": {"delta": 0.5, "rho": 1.0 / (2.0 * math.pi)}}
        code, out, _ = run_cli(["repulsiveness", write_spec(tmp_path, "m.json", doc)])
        assert code == 0
        (header, rows), _ = parse_blocks(out)
        record = dict(zip(header, rows[0]))
        assert abs(record["p_u"] - 0.549306144334) < 1e-6
        assert abs(record["p_u_reference"] - 2.0 / 3.0) < 1e-9
        assert record["discrepancy"] == 1.0

    # the kernel integrated is the series cut at its last coefficient, whose
    # K0(1) is rho sum beta: p_u = rho sigma sum beta^2 / m / sum beta
    @pytest.mark.parametrize("rho,beta,tail,want", [
        (0.08, [0.5, 0.3, 0.2], 0.0, 0.08 * 4.0 * math.pi * (0.25 + 0.03 + 0.008)),
        (0.05, [0.5, 0.3], 0.2, 0.219911485751),
    ], ids=["whole", "truncated"])
    def test_sphere_coefficients(self, tmp_path, rho, beta, tail, want):
        doc = {"family": "sphere-coefficients",
               "params": {"d": 2, "rho": rho, "beta_coeffs": beta, "tail_bound": tail}}
        code, out, _ = run_cli(["repulsiveness", write_spec(tmp_path, "c.json", doc),
                                "--anchor", "0,0.6,0.8"])
        assert code == 0
        (header, rows), _ = parse_blocks(out)
        record = dict(zip(header, rows[0]))
        assert abs(record["p_u"] - want) < 1e-9
        assert abs(record["p_u_reference"] - want) < 1e-9
        assert record["discrepancy"] == 0.0

    def test_unconvergeable_quadrature_exits_2(self, tmp_path):
        code, out, err = run_cli(["repulsiveness",
                                  write_spec(tmp_path, "j.json", {"family": "jinc"}),
                                  "--truncation-radius", "1e-3"])
        assert code == 2 and out == ""
        assert err.startswith("validation-error[quadrature]:")

    @pytest.mark.parametrize("family", ["sinc", "jinc"])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1e-300), (1.0, 1e-100), (1.0, 1e-40),
                                            (1e150, 1e-150)])
    def test_thinned_extremes(self, tmp_path, family, alpha, beta):
        # thinning rescales only the declared tail's amplitude and length
        # scale, so no coefficient underflows: p_u = alpha * beta at any scale
        doc = {"family": family, "params": {"alpha": alpha, "beta": beta}}
        code, out, err = run_cli(["repulsiveness", write_spec(tmp_path, "t.json", doc)])
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split(",")[0] == f"{alpha * beta:.12g}"

    def test_profile_points_below_one_is_a_parse_error(self, tmp_path):
        code, out, err = run_cli(["repulsiveness",
                                  write_spec(tmp_path, "j.json", {"family": "jinc"}),
                                  "--profile-points=-3"])
        assert (code, out) == (3, "") and err.startswith("parse-error")

    def test_profile_max_ends_the_profile(self, tmp_path):
        spec = write_spec(tmp_path, "g.json", GINIBRE_SPEC)
        for argv, end in (([], 10.0), (["--profile-max", "0.5"], 0.5),
                          (["--profile-max", "1e308"], 1e308)):
            code, out, err = run_cli(["repulsiveness", spec, "--profile-points", "3"] + argv)
            _, (_, rows) = parse_blocks(out)
            assert (code, err) == (0, "") and [row[0] for row in rows] == [0.0, end / 2, end]

    @pytest.mark.parametrize("argv", [[], ["--profile-points", "64"],
                                      ["--truncation-radius", "3"], ["--profile-max", "4"]],
                             ids=["no-flags", "default-points", "radius", "profile-max"])
    def test_default_profile_ends_at_forty_length_scales(self, tmp_path, argv):
        # length scale sqrt(beta) = 0.1: the profile ends at 40 s = 4 whatever
        # the quadrature's truncation radius, and --profile-max 4 says the same
        doc = {"family": "ginibre", "params": {"alpha": 1, "beta": 0.01}}
        code, out, err = run_cli(["repulsiveness", write_spec(tmp_path, "g.json", doc)] + argv)
        _, (_, rows) = parse_blocks(out)
        assert (code, err) == (0, "")
        assert [row[0] for row in rows] == [float(f"{r:.12g}") for r in np.linspace(0.0, 4.0, 64)]

    def test_radius_beyond_uncapped_panels_exits_2(self, tmp_path):
        # 1e6 length scales would need wider panels than sin 2r allows
        doc = {"family": "sinc"}
        code, out, err = run_cli(["repulsiveness", write_spec(tmp_path, "s.json", doc),
                                  "--truncation-radius", "1e6"])
        assert (code, out) == (2, "") and err.startswith("validation-error[quadrature]:")

    def test_tail_exponent_printed_with_one_sign(self, tmp_path):
        _, _, err = run_cli(["repulsiveness",
                             write_spec(tmp_path, "j.json", {"family": "jinc"}),
                             "--truncation-radius", "1e-3"])
        assert "declared tail r^(-3) is not asymptotic" in err and "--" not in err

    @pytest.mark.parametrize("extra,max_nodes", [
        ([], 40_000),
        # seven intervals of at most 2**15 panels after the 101 graded cells
        (["--truncation-radius", "100"], 7 * (2 ** 15 + 101) * (32 + 20)),
    ], ids=["default-radius", "radius-1e8-scales"])
    def test_tiny_ginibre_scale(self, tmp_path, monkeypatch, extra, max_nodes):
        # length scale sqrt(beta) = 1e-6; p_u = alpha * beta
        doc = {"family": "ginibre", "params": {"alpha": 1.0, "beta": 1e-12}}
        nodes = count_gl_nodes(monkeypatch)
        code, out, _ = run_cli(["repulsiveness", write_spec(tmp_path, "g.json", doc)] + extra)
        assert code == 0
        (header, rows), _ = parse_blocks(out)
        record = dict(zip(header, rows[0]))
        # values are printed to 12 significant digits
        assert abs(record["p_u"] - 1e-12) <= record["quadrature_error"] + 1e-23
        assert nodes[0] <= max_nodes

    def test_zero_intensity_anchor(self, tmp_path):
        doc = {"family": "finite", "matrix": [[[0.0, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
        code, _, err = run_cli(["repulsiveness", write_spec(tmp_path, "z.json", doc),
                                "--anchor", "1"])
        assert code == 2 and "[anchor]" in err


class TestCoupleCommand:
    def test_zero_intensity_anchor(self, tmp_path):
        doc = {"family": "finite", "matrix": [[[0.0, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
        code, _, err = run_cli(["couple", write_spec(tmp_path, "z.json", doc), "--anchor", "1"])
        assert code == 2 and "[anchor]" in err

    def test_diagonal(self, tmp_path):
        code, out, _ = run_cli(["couple", write_spec(tmp_path, "d.json", DIAG_SPEC),
                                "--anchor", "2", "--seed", "4", "--samples", "4000"])
        assert code == 0
        (h1, r1), (h2, r2) = parse_blocks(out)
        summary = dict(zip(h1, r1[0]))
        assert abs(summary["max_flow"] - 1.0) < 1e-8
        assert abs(summary["p_u_exact"] - 0.7) < 1e-8
        assert abs(summary["p_u_empirical"] - 0.7) < 0.05
        sites = {int(row[0]): row[1] for row in r2}
        assert abs(sites[2] - 1.0) < 1e-8 and abs(sites[1]) < 1e-8

    def test_rank_two_density(self, tmp_path):
        code, out, _ = run_cli(["couple", write_spec(tmp_path, "r.json", rank2_spec()),
                                "--anchor", "1", "--seed", "0", "--samples", "1000"])
        assert code == 0
        (h1, r1), (h2, r2) = parse_blocks(out)
        summary = dict(zip(h1, r1[0]))
        assert abs(summary["p_u_exact"] - 1.0) < 1e-8
        want = {1: 5.0 / 6.0, 2: 1.0 / 30.0, 3: 2.0 / 15.0}
        for row in r2:
            assert abs(row[1] - want[int(row[0])]) < 1e-8

    def test_non_finite_rejected(self, tmp_path):
        doc = {"family": "ginibre", "params": {"alpha": 1.0, "beta": 1.0}}
        code, _, err = run_cli(["couple", write_spec(tmp_path, "g.json", doc)])
        assert code == 2

    def test_size_guard(self, tmp_path):
        n = 17
        matrix = [[[0.5 if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]
        doc = {"family": "finite", "matrix": matrix}
        code, _, err = run_cli(["couple", write_spec(tmp_path, "big.json", doc)])
        assert code == 4 and "size-guard" in err

    @pytest.mark.parametrize("samples", ["-1", "0", "x"])
    def test_samples_below_one_is_a_parse_error(self, tmp_path, samples):
        code, out, err = run_cli(["couple", write_spec(tmp_path, "d.json", DIAG_SPEC),
                                  "--anchor", "2", "--samples", samples])
        assert code == 3 and out == "" and "parse-error" in err and "--samples" in err

    def test_unsaturated_flow_is_a_theorem_violation(self, tmp_path, monkeypatch):
        monkeypatch.setattr(finite_dpp, "coupling_feasible", lambda *args: (0.5, None))
        code, out, err = run_cli(["couple", write_spec(tmp_path, "d.json", DIAG_SPEC),
                                  "--anchor", "2"])
        assert code == 5 and out == ""
        assert "theorem-violation" in err and "flow: 0.5" in err and "site: 2" in err


class TestProfileCommand:
    def test_figure_values(self):
        code, out, _ = run_cli(["profile", "--beta", "1", "--r-min", "0",
                                "--r-max", "2", "--r-points", "5"])
        assert code == 0
        (header, rows), = parse_blocks(out)
        assert header == ["r", "density_ginibre", "density_jinc"]
        at_one = rows[2]
        assert abs(at_one[0] - 1.0) < 1e-12
        assert abs(at_one[1] - 2.0 * math.exp(-1.0)) < 1e-10

    def test_small_radius_jinc_limit(self):
        code, out, _ = run_cli(["profile", "--models", "jinc", "--r-min", "0.001",
                                "--r-max", "0.002", "--r-points", "2"])
        (header, rows), = parse_blocks(out)
        for r, dens in rows:
            assert abs(dens - 2.0 * r) < 1e-5  # density -> 2r as r -> 0

    def test_beta_bound(self):
        code, _, err = run_cli(["profile", "--beta", "1.5"])
        assert code == 2

    def test_no_points_is_a_parse_error(self):
        for points in ("0", "-3"):
            code, out, err = run_cli(["profile", "--r-points", points])
            assert code == 3 and out == "" and "parse-error" in err

    def test_r_min_above_r_max_gives_descending_radii(self):
        code, out, _ = run_cli(["profile", "--r-min", "2", "--r-max", "1", "--r-points", "3"])
        assert code == 0
        (header, rows), = parse_blocks(out)
        assert [row[0] for row in rows] == [2.0, 1.5, 1.0]
        _, ascending, _ = run_cli(["profile", "--r-min", "1", "--r-max", "2", "--r-points", "3"])
        (_, up), = parse_blocks(ascending)
        assert rows == up[::-1]

    def test_models_are_stripped_and_may_repeat(self):
        _, want, _ = run_cli(["profile", "--r-points", "3"])
        for models in ("jinc,ginibre", " jinc , ginibre,jinc ", "ginibre,,jinc"):
            code, out, err = run_cli(["profile", "--models", models, "--r-points", "3"])
            assert (code, out, err) == (0, want, "")  # columns: ginibre, then jinc
        _, jinc, _ = run_cli(["profile", "--models", "jinc, jinc", "--r-points", "3"])
        assert jinc.splitlines()[0] == "r,density_jinc"

    def test_deterministic_rerun(self):
        args = ["profile", "--beta", "0.7", "--r-points", "50"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2


class TestMomentsCommand:
    @pytest.mark.parametrize("argv,code,token", [
        (["--model", "jinc", "--k=nan"], 3, "parse-error"),
        (["--model", "ginibre", "--k=inf"], 3, "parse-error"),
        (["--model", "jinc", "--k=0.5", "--truncation-radius=-1"], 3, "parse-error"),
        (["--model", "ginibre", "--k=1", "--rel-tol=nan"], 3, "parse-error"),
        (["--model", "ginibre", "--k=1", "--rho=1e300"], 2, "validation-error[overflow]"),
        (["--model", "jinc", "--k=0.5", "--truncation-radius=2"], 2,
         "validation-error[quadrature]"),
        (["--model", "ginibre", "--k", "1", "--rho", "1e-170"], 2, "validation-error[overflow]"),
        (["--model", "ginibre", "--k", "1", "--rho", "1e-200"], 2, "validation-error[overflow]"),
        (["--model", "ginibre", "--k", "1", "--rho", "nan"], 3, "parse-error"),
        (["--model", "ginibre", "--k=1", "--rho=-1"], 2, "validation-error[param-bound]"),
        (["--model", "jinc", "--k=1,"], 3, "parse-error"),
        (["--model", "ginibre", "--k=0", "--truncation-radius=1e308"], 2,
         "validation-error[overflow]"),
        (["--model", "ginibre", "--k=3", "--rho=0.01", "--truncation-radius=1e154"], 2,
         "validation-error[overflow]"),
    ], ids=["nan-order", "inf-order", "negative-radius", "nan-tolerance", "huge-rho",
            "radius-before-asymptotics", "rho-1e-170-norm-underflows",
            "rho-1e-200-norm-underflows", "nan-rho", "negative-rho", "empty-order",
            "radius-beyond-double-precision", "panels-beyond-double-precision"])
    def test_bad_values_exit_with_a_token(self, argv, code, token):
        got, out, err = run_cli(["moments"] + argv)
        assert (got, out) == (code, "") and err.startswith(token)

    def test_jacobi_weight_overflow_names_the_quantity(self):
        # the origin cell's Gauss-Jacobi weights total 2^(a + 1)/(a + 1), which
        # leaves double precision at a = k + 1 >= 1023
        got, out, err = run_cli(["moments", "--model", "ginibre", "--k", "1030", "--rho", "1e3"])
        assert (got, out) == (2, "") and err.startswith("validation-error[overflow]:")
        assert "Gauss-Jacobi weight total" in err and "a = 1031" in err and "(34," not in err

    def test_jinc_table(self):
        code, out, _ = run_cli(["moments", "--model", "jinc", "--k", "0,1"])
        assert code == 0
        (header, rows), = parse_blocks(out)
        by_k = {row[0]: dict(zip(header, row)) for row in rows}
        assert abs(by_k[0.0]["closed_form"] - 1.0) < 1e-12
        assert abs(by_k[0.0]["quadrature"] - 1.0) < 1e-6
        assert by_k[1.0]["closed_form"] == math.inf
        assert math.isnan(by_k[1.0]["quadrature"])
        assert by_k[1.0]["divergent"] == 1.0

    def test_ginibre_second_moment(self):
        code, out, _ = run_cli(["moments", "--model", "ginibre", "--k", "2",
                                "--rho", str(1.0 / math.pi)])
        (header, rows), = parse_blocks(out)
        record = dict(zip(header, rows[0]))
        assert abs(record["closed_form"] - 1.0) < 1e-12
        assert abs(record["quadrature"] - 1.0) < 1e-6

    def test_ginibre_cost_does_not_grow_with_intensity(self, monkeypatch):
        # the length scale 1/sqrt(pi rho) shrinks as rho grows, and the Gaussian
        # default radius shrinks with it
        counts = {}
        for rho in (1.0, 1e8, 1e12):
            nodes = count_gl_nodes(monkeypatch)
            code, out, _ = run_cli(["moments", "--model", "ginibre", "--k=-1.5,0.5,2,4",
                                    "--rho", repr(rho)])
            assert code == 0
            (header, rows), = parse_blocks(out)
            for row in rows:
                record = dict(zip(header, row))
                # values are printed to 12 significant digits
                assert (abs(record["quadrature"] - record["closed_form"])
                        <= record["abs_error"] + 1e-11 * record["closed_form"])
            counts[rho] = nodes[0]
        assert counts[1e8] == counts[1e12] <= 1.5 * counts[1.0]

    def test_rejects_low_order(self):
        code, _, _ = run_cli(["moments", "--model", "jinc", "--k", "-2.5"])
        assert code == 2


class TestSampleCommand:
    def test_identity_always_full(self, tmp_path):
        doc = {"family": "finite",
               "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
        code, out, _ = run_cli(["sample", write_spec(tmp_path, "i.json", doc),
                                "--samples", "20", "--seed", "9"])
        (header, rows), = parse_blocks(out)
        assert all(row[1] == 2.0 for row in rows)

    def test_deterministic_rerun(self, tmp_path):
        spec = write_spec(tmp_path, "d.json", DIAG_SPEC)
        args = ["sample", spec, "--samples", "200", "--seed", "7", "--emit-points"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2

    def test_discretized_ginibre_counts(self, tmp_path):
        doc = {"family": "ginibre", "params": {"alpha": 1.0, "beta": 1.0}}
        spec = write_spec(tmp_path, "g.json", doc)
        code, out, _ = run_cli(["sample", spec, "--samples", "300", "--seed", "5",
                                "--window=-3,3,-3,3", "--resolution", "10"])
        assert code == 0
        (header, rows), = parse_blocks(out)
        counts = np.array([row[1] for row in rows])
        want = 36.0 / math.pi
        sem = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - want) <= 3.0 * sem

    @pytest.mark.parametrize("matrix,samples", [
        (random_dpp_matrix(np.random.default_rng(3), 12), 300),
        (np.zeros((3, 3)), 5),
        (np.eye(2), 0),
    ], ids=["random-12", "always-empty", "no-draws"])
    def test_finite_points_match_reference(self, tmp_path, matrix, samples):
        spec = write_spec(tmp_path, "f.json", matrix_spec(matrix))
        code, out, _ = run_cli(["sample", spec, "--samples", str(samples), "--seed", "4",
                                "--emit-points"])
        dpp = load_kernel_spec(spec).dpp
        bits = finite_dpp.sample_indicators(dpp, 4, samples)
        assert code == 0 and out == reference_sample_output(bits)

    @pytest.mark.parametrize("doc,window", [
        ({"family": "ginibre", "params": {"alpha": 1.0, "beta": 1.0}}, (-2.5, 2.5, -2.5, 2.5)),
        ({"family": "sinc", "params": {}}, (-4.0, 4.0)),
    ], ids=["ginibre-81-cells", "sinc-9-cells"])
    def test_grid_points_match_reference(self, tmp_path, doc, window):
        spec = write_spec(tmp_path, "g.json", doc)
        code, out, _ = run_cli(["sample", spec, "--samples", "40", "--seed", "2",
                                "--window=" + ",".join(map(str, window)), "--resolution", "9",
                                "--emit-points"])
        grid = analysis.grid_discretize(load_kernel_spec(spec).kernel, window, 9)
        bits = finite_dpp.sample_indicators(grid.dpp, 2, 40)
        assert code == 0 and out == reference_sample_output(bits, grid.centers)

    @pytest.mark.parametrize("doc,flags,header", [
        (GINIBRE_SPEC, ["--window=-1,1,-1,1"], "sample,x,y"),
        ({"family": "sinc"}, ["--window=-1,1"], "sample,x"),
        (QUADRATURE_SPECS["multiquadric"], [], "sample,x,y,z"),
    ], ids=["plane", "line", "sphere"])
    def test_no_draws_on_a_grid_print_the_headers(self, tmp_path, doc, flags, header):
        spec = write_spec(tmp_path, "g.json", doc)
        got = run_cli(["sample", spec, "--samples=0", "--emit-points", "--resolution=2", *flags])
        assert got == (0, f"sample,count\n\n{header}\n", "")

    def test_negative_samples_is_a_parse_error(self, tmp_path):
        code, out, err = run_cli(["sample", write_spec(tmp_path, "d.json", DIAG_SPEC),
                                  "--samples", "-3"])
        assert code == 3 and out == "" and "parse-error" in err and "--samples" in err

    def test_overflowing_grid_is_an_overflow(self, tmp_path):
        code, out, err = run_cli(["sample", write_spec(tmp_path, "g.json", GINIBRE_SPEC),
                                  "--window", "0,1e308,0,1e308", "--resolution", "3"])
        assert code == 2 and out == "" and "validation-error[overflow]" in err

    def test_sphere_spectrum_guard_at_the_size_limit(self, tmp_path):
        # 4,050 cells, top grid eigenvalue 1.00697: past the 1e-3 slack
        doc = {"family": "sphere-multiquadric", "params": {"delta": 0.99, "rho": 7.9}}
        code, out, err = run_cli(["sample", write_spec(tmp_path, "m.json", doc),
                                  "--resolution", "45"])
        assert (code, out) == (2, "") and err.startswith("validation-error[spectrum]")
        assert "1.00697" in err and "raise the resolution" in err

    def test_coarse_jinc_grid_exits_spectrum(self, tmp_path):
        # 2 x 2 cells, 4 / pi on the diagonal: eigenvalues 1.04109 to 1.4213
        doc = {"family": "jinc"}
        code, out, err = run_cli(["sample", write_spec(tmp_path, "j.json", doc),
                                  "--window=-2,2,-2,2", "--resolution", "2"])
        assert (code, out) == (2, "") and err.startswith("validation-error[spectrum]")
        assert "[1.04109, 1.4213]" in err and "raise the resolution" in err

    def test_huge_resolution_is_guarded_before_allocating(self, tmp_path):
        # 10^12 cells; the centers alone would take terabytes
        spec = write_spec(tmp_path, "g.json", GINIBRE_SPEC)
        started = time.perf_counter()
        code, out, err = run_cli(["sample", spec, "--window=-1,1,-1,1", "--resolution", "1000000"])
        assert (code, out) == (4, "") and err.startswith("size-guard")
        assert time.perf_counter() - started < 0.5

    def test_ginibre_64x64_grid(self, tmp_path):
        # 4,096 cells from the series factor, never the 4,096 x 4,096 matrix
        spec = write_spec(tmp_path, "g.json", GINIBRE_SPEC)
        code, out, _ = run_cli(["sample", spec, "--samples", "100", "--seed", "3",
                                "--window=-4,4,-4,4", "--resolution", "64"])
        assert code == 0
        (header, rows), = parse_blocks(out)
        counts = np.array([row[1] for row in rows])
        grid = analysis.grid_discretize(load_kernel_spec(spec).kernel, (-4.0, 4.0, -4.0, 4.0), 64)
        lam = grid.dpp.eig.eigenvalues
        trace = 64.0 / math.pi  # the window's area times the intensity 1/pi
        assert len(counts) == 100 and abs(lam.sum() - trace) <= 1e-12
        sigma = math.sqrt(float(np.sum(lam * (1.0 - lam))) / 100)
        assert abs(counts.mean() - trace) <= 4.0 * sigma

    def test_window_required_for_continuous(self, tmp_path):
        doc = {"family": "ginibre", "params": {"alpha": 1.0, "beta": 1.0}}
        code, _, err = run_cli(["sample", write_spec(tmp_path, "g.json", doc)])
        assert code == 3


class TestRepeatedCalls:
    def test_second_call_prints_the_same(self, tmp_path):
        argv = ["repulsiveness", write_spec(tmp_path, "j.json", {"family": "jinc"}),
                "--profile-points=5"]
        first = run_cli(argv)
        assert first[0] == 0 and run_cli(argv) == first

    def test_parse_error_after_a_successful_call(self, tmp_path):
        spec = write_spec(tmp_path, "j.json", {"family": "jinc"})
        assert run_cli(["validate", spec])[0] == 0
        code, out, err = run_cli(["repulsiveness", spec, "--profile-points=0"])
        assert (code, out) == (3, "") and err.startswith("parse-error")


class TestCsvContract:
    @pytest.mark.parametrize("value", [
        0, 7, -3, True, False, 2 ** 60, -(2 ** 60), np.int64(12), np.int32(-5), np.uint8(200),
        np.float64(1.0 / 3.0), np.float32(0.1), np.bool_(True), np.bool_(False), 0.0, -0.0,
        math.nan, math.inf, -math.inf, 1e-320])
    def test_cell_text_is_the_floats_at_12_digits(self, value):
        # every cell goes through one bound formatter; its text is that of the
        # number as a float, also for ints, bools and numpy scalars
        assert cli._fmt(value) == format(float(value), ".12g")

    def test_round_trip_at_12_digits(self, tmp_path):
        doc = {"family": "ginibre", "params": {"alpha": 0.5, "beta": 1.5}}
        _, out, _ = run_cli(["repulsiveness", write_spec(tmp_path, "g.json", doc)])
        for chunk in out.strip().split("\n\n"):
            for line in chunk.strip().split("\n")[1:]:
                for tok in line.split(","):
                    assert format(float(tok), ".12g") == tok

    def test_lf_line_endings(self, tmp_path):
        _, out, _ = run_cli(["profile", "--r-points", "3"])
        assert "\r" not in out
