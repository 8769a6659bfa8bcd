"""The benchmark's output checks accept real program output and reject corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""
from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import pools  # noqa: E402
from palmdpp import cli  # noqa: E402


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def set_value(text: str, block: int, row: int, col: int, value) -> str:
    """Replace one CSV cell; row 0 is the first data row of the block."""
    chunks = text.strip("\n").split("\n\n")
    lines = chunks[block].split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(value))
    lines[row + 1] = ",".join(cells)
    chunks[block] = "\n".join(lines)
    return "\n\n".join(chunks) + "\n"


def cell(text: str, block: int, row: int, col: int) -> float:
    return float(checks.parse_blocks(text)[block][1][row, col])


@pytest.fixture(scope="module")
def finite_pool(tmp_path_factory):
    return pools.finite_exact(7, tmp_path_factory.mktemp("finite"))


@pytest.fixture(scope="module")
def radial_pool(tmp_path_factory):
    return pools.radial_quadrature(7, tmp_path_factory.mktemp("radial"))


def find(pool, prefix: str):
    return next(op for op in pool.ops if op.name.startswith(prefix))


def test_couple_rejects_p_u_off_and_short_flow(finite_pool):
    op = find(finite_pool, "couple/0-")
    text = run(op.resolve(3))
    assert op.check(text) == []
    assert op.check(set_value(text, 0, 0, 1, cell(text, 0, 0, 1) + 1e-3))
    assert op.check(set_value(text, 0, 0, 0, 0.99))
    assert op.check(set_value(text, 1, 2, 1, cell(text, 1, 2, 1) + 1e-3))


def test_couple_rejects_empirical_removal_rate(finite_pool):
    op = find(finite_pool, "couple/4-some-one")
    text = run(op.resolve(3))
    assert op.check(set_value(text, 0, 0, 2, cell(text, 0, 0, 2) + 0.05))


def test_sample_rejects_a_site_never_picked(finite_pool):
    op = find(finite_pool, "sample/0-")
    text = run(op.resolve(3))
    assert op.check(text) == []
    counts_block, points_block = text.strip("\n").split("\n\n")
    points = [line.split(",") for line in points_block.split("\n")[1:]]
    site = max(set(p[1] for p in points), key=lambda s: sum(p[1] == s for p in points))
    kept = [p for p in points if p[1] != site]
    per_sample = np.bincount([int(p[0]) for p in kept], minlength=pools.FINITE_SAMPLE_DRAWS)
    counts = "\n".join(["sample,count"] + [f"{i},{c}" for i, c in enumerate(per_sample)])
    dropped = counts + "\n\n" + "\n".join(["sample,site"] + [",".join(p) for p in kept]) + "\n"
    problems = op.check(dropped)
    assert any(f"site {site} " in p for p in problems)


def test_repulsiveness_rejects_p_u_off(radial_pool):
    for prefix in ("repulsiveness/ginibre-0", "repulsiveness/jinc-0", "repulsiveness/multiquadric"):
        op = find(radial_pool, prefix)
        text = run(op.argv)
        assert op.check(text) == [], prefix
        assert op.check(set_value(text, 0, 0, 0, cell(text, 0, 0, 0) + 1e-3)), prefix


def test_moment_rejects_value_outside_its_error(radial_pool):
    op = next(o for o in radial_pool.ops
              if o.name.startswith("moments/jinc") and o.known_fault is None
              and math.isfinite(o.check.keywords["closed"]))
    text = run(op.argv)
    assert op.check(text) == []
    err = cell(text, 0, 0, 3)
    assert op.check(set_value(text, 0, 0, 2, cell(text, 0, 0, 2) + 2.0 * err + 1e-9))


def test_moment_divergence_flag_must_match_closed_form():
    text = run(["moments", "--model", "jinc", "--k", "1.5"])
    assert checks.check_moment(text, k=1.5, closed=math.inf) == []
    assert checks.check_moment(set_value(text, 0, 0, 5, 0), k=1.5, closed=math.inf)
    text = run(["moments", "--model", "jinc", "--k", "0.5"])
    assert checks.check_moment(set_value(text, 0, 0, 5, 1), k=0.5,
                               closed=checks.jinc_moment(0.5))


def test_profile_rejects_a_wrong_density():
    radii = np.linspace(0.0, 6.0, 31)
    text = run(["profile", "--beta", "0.7", "--r-max", "6", "--r-points", "31"])
    assert checks.check_profile(text, beta=0.7, radii=radii) == []
    bad = set_value(text, 0, 10, 2, cell(text, 0, 10, 2) * (1 + 1e-6))
    assert checks.check_profile(bad, beta=0.7, radii=radii)


def test_grid_counts_out_of_range_and_pooled_bias():
    assert checks.check_grid_sample("sample,count\n0,3\n1,4\n", n_cells=10, samples=2) == []
    assert checks.check_grid_sample("sample,count\n0,3\n1,11\n", n_cells=10, samples=2)
    rng = np.random.default_rng(0)
    lam = rng.uniform(0.0, 1.0, 60)
    law = checks.CountLaw.from_eigenvalues(lam)
    draws = [(float((rng.random(60) < lam).sum()), law) for _ in range(200)]
    assert checks.pooled_count_problems(draws) == []
    assert checks.pooled_count_problems([(c + 2.0, law) for c, law in draws])
    assert checks.pooled_count_problems([(law.mean, law) for _ in draws])  # no spread


def test_unparseable_output_is_a_problem():
    assert checks.check_moment("garbage", k=0.5, closed=1.0)
