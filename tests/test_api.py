"""The public names each palmdpp module exports."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import palmdpp

MODULES = [f"palmdpp.{info.name}" for info in pkgutil.iter_modules(palmdpp.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # instrumentation that wraps a module's exports looks each name up, so a
    # stale entry would fail there rather than at import
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
