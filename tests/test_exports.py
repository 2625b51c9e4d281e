"""Every name a public module exports resolves, so a deletion leaves no dangling export."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["mkt", "mkt.commuting", "mkt.jointdet", "mkt.sampling"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
