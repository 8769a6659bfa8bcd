"""Every script in demos/ runs to completion against the library."""
from __future__ import annotations

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
