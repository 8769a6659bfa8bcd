"""Golden corpus of CLI value columns.

The printed values of `validate`, `repulsiveness`, `couple`, `moments`,
`profile` and `sample` on a fixed set of inputs must not move.  The error columns (`quadrature_error`,
`abs_error`, `tail_estimate`) are left out: they describe the quadrature,
not the answer.  Regenerate the corpus, only when a value is meant to
change, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""
from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from palmdpp.cli import main

GOLDEN = Path(__file__).with_name("golden_cli_values.json")
ERROR_COLUMNS = {"quadrature_error", "abs_error", "tail_estimate"}

# a 4-site complex Hermitian kernel, eigenvalues 0.159, 0.281, 0.624 and 0.736
FINITE = {"family": "finite", "matrix": [
    [[0.5, 0], [0.1, 0.05], [0, 0], [0.2, 0]],
    [[0.1, -0.05], [0.4, 0], [0, 0.15], [0.05, 0]],
    [[0, 0], [0, -0.15], [0.6, 0], [0.1, 0]],
    [[0.2, 0], [0.05, 0], [0.1, 0], [0.3, 0]]]}
GINIBRE = {"family": "ginibre", "params": {"alpha": 0.6, "beta": 1.3}}
THINNED_JINC = {"family": "jinc", "params": {"alpha": 0.7, "beta": 0.3}}
SINC = {"family": "sinc", "params": {"alpha": 0.8, "beta": 0.7}}
MULTIQUADRIC = {"family": "sphere-multiquadric", "params": {"delta": 0.5, "rho": 0.1}}
SPHERE_COEFFICIENTS = {"family": "sphere-coefficients",
                       "params": {"d": 2, "rho": 0.1, "beta_coeffs": [0.5, 0.3, 0.2]}}
# Q diag(1 + 5e-7, 0.7, 0.4, 0.2) Q with Q = I - J/2: validate clamps the top eigenvalue
CLAMPED_ROWS = [[0.575000125, -0.275000125, -0.125000125, -0.025000125],
                [-0.275000125, 0.575000125, 0.025000125, 0.125000125],
                [-0.125000125, 0.025000125, 0.575000125, 0.275000125],
                [-0.025000125, 0.125000125, 0.275000125, 0.575000125]]
FINITE_CLAMPED = {"family": "finite", "matrix": [[[x, 0] for x in row] for row in CLAMPED_ROWS]}
# at resolution 5 its grid clamps one eigenvalue, by 6.0e-4
MULTIQUADRIC_CLAMPED = {"family": "sphere-multiquadric",
                        "params": {"delta": 0.5, "rho": 0.15915494309189535}}

# (name, spec document or None, argv with "{spec}" for the spec path)
CASES = [
    ("validate-finite", FINITE, ["validate", "{spec}"]),
    ("validate-ginibre", GINIBRE, ["validate", "{spec}"]),
    ("validate-jinc", THINNED_JINC, ["validate", "{spec}"]),
    ("validate-sinc", SINC, ["validate", "{spec}"]),
    ("validate-multiquadric", MULTIQUADRIC, ["validate", "{spec}"]),
    ("validate-sphere-coefficients", SPHERE_COEFFICIENTS, ["validate", "{spec}"]),
    ("couple-finite", FINITE,
     ["couple", "{spec}", "--anchor=2", "--seed=11", "--samples=400"]),
    ("repulsiveness-finite", FINITE, ["repulsiveness", "{spec}", "--anchor=3"]),
    ("repulsiveness-sphere-coefficients", SPHERE_COEFFICIENTS,
     ["repulsiveness", "{spec}", "--anchor=0.6,0,0.8", "--profile-points=9"]),
    ("sample-finite", FINITE,
     ["sample", "{spec}", "--samples=6", "--seed=5", "--emit-points"]),
    ("sample-ginibre", GINIBRE,
     ["sample", "{spec}", "--samples=3", "--seed=7", "--window=-2,2,-2,2",
      "--resolution=6", "--emit-points"]),
    # 100 draws on 36 cells: more than one batch of the spectral sampler
    ("sample-ginibre-many", GINIBRE,
     ["sample", "{spec}", "--samples=100", "--seed=16", "--window=-2,2,-2,2",
      "--resolution=6", "--emit-points"]),
    ("sample-thinned-jinc", THINNED_JINC,
     ["sample", "{spec}", "--samples=3", "--seed=8", "--window=-3,3,-3,3",
      "--resolution=6", "--emit-points"]),
    ("sample-sinc", SINC,
     ["sample", "{spec}", "--samples=4", "--seed=9", "--window=-6,6",
      "--resolution=12", "--emit-points"]),
    ("sample-multiquadric", MULTIQUADRIC,
     ["sample", "{spec}", "--samples=6", "--seed=10", "--resolution=4", "--emit-points"]),
    ("sample-sphere-coefficients", SPHERE_COEFFICIENTS,
     ["sample", "{spec}", "--samples=3", "--seed=12", "--resolution=4", "--emit-points"]),
    ("repulsiveness-jinc", {"family": "jinc"},
     ["repulsiveness", "{spec}", "--anchor=0.3,-0.7"]),
    ("repulsiveness-sinc", {"family": "sinc", "params": {"alpha": 0.8, "beta": 0.7}},
     ["repulsiveness", "{spec}", "--anchor=1.25", "--profile-points=21"]),
    ("repulsiveness-thinned-jinc", {"family": "jinc", "params": {"alpha": 0.7, "beta": 0.3}},
     ["repulsiveness", "{spec}", "--anchor=-1.5,2.0"]),
    ("repulsiveness-thinned-jinc-small", {"family": "jinc", "params": {"alpha": 1.0, "beta": 0.02}},
     ["repulsiveness", "{spec}", "--profile-points=33", "--profile-max=2"]),
    ("repulsiveness-ginibre", {"family": "ginibre", "params": {"alpha": 0.6, "beta": 1.3}},
     ["repulsiveness", "{spec}", "--anchor=0.5,0.5"]),
    ("repulsiveness-multiquadric",
     {"family": "sphere-multiquadric", "params": {"delta": 0.5, "rho": 0.1}},
     ["repulsiveness", "{spec}", "--anchor=0,0.6,0.8"]),
    ("moments-jinc", None, ["moments", "--model", "jinc", "--k=-1.2,0.3,0.95,2.1"]),
    ("moments-ginibre", None, ["moments", "--model", "ginibre", "--k=-1.5,0.5,2,3.75"]),
    ("moments-ginibre-rho", None,
     ["moments", "--model", "ginibre", "--rho=0.05", "--k=-1.25,1,4"]),
    ("profile", None, ["profile", "--beta=0.5", "--r-max=6", "--r-points=31"]),
    ("sample-multiquadric-clamped", MULTIQUADRIC_CLAMPED,
     ["sample", "{spec}", "--samples=5", "--seed=13", "--resolution=5", "--emit-points"]),
    ("sample-finite-clamped", FINITE_CLAMPED,
     ["sample", "{spec}", "--samples=6", "--seed=14", "--emit-points"]),
    ("couple-finite-clamped", FINITE_CLAMPED,
     ["couple", "{spec}", "--anchor=2", "--seed=15", "--samples=400"]),
    # odd resolutions: an odd reflection block lacks the middle index, so 13 cells take
    # blocks of 7 and 6, and 7 x 7 cells one of 12 (3 x 4) and swap halves of 10, 6, 6 and 3
    ("sample-sinc-odd", SINC,
     ["sample", "{spec}", "--samples=4", "--seed=9", "--window=-6,6",
      "--resolution=13", "--emit-points"]),
    ("sample-thinned-jinc-odd", THINNED_JINC,
     ["sample", "{spec}", "--samples=3", "--seed=8", "--window=-3,3,-3,3",
      "--resolution=7", "--emit-points"]),
    # far from the origin the Ginibre series has no factor, and the grid takes the dense eigh;
    # the law is sample-ginibre's, shifted (magnetic translations)
    ("sample-ginibre-offset", GINIBRE,
     ["sample", "{spec}", "--samples=3", "--seed=7", "--window=18,22,18,22",
      "--resolution=6", "--emit-points"]),
]


def value_columns(text: str) -> str:
    """stdout with the error columns removed from every CSV block."""
    blocks = []
    for chunk in text.strip("\n").split("\n\n"):
        lines = chunk.split("\n")
        header = lines[0].split(",")
        keep = [i for i, h in enumerate(header) if h not in ERROR_COLUMNS]
        blocks.append("\n".join(",".join(row.split(",")[i] for i in keep) for row in lines))
    return "\n\n".join(blocks)


def run_case(doc, argv, directory: Path) -> str:
    spec = directory / "spec.json"
    if doc is not None:
        spec.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([a.replace("{spec}", str(spec)) for a in argv])
    assert code == 0
    return value_columns(out.getvalue())


@pytest.mark.parametrize("name,doc,argv", CASES, ids=[c[0] for c in CASES])
def test_value_columns_match_golden(name, doc, argv, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_case(doc, argv, tmp_path) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        corpus = {name: run_case(doc, argv, Path(tmp)) for name, doc, argv in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {GOLDEN}", file=sys.stderr)
