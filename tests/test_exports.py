"""Every name a public module exports resolves, so a deletion leaves no dangling export."""

import importlib
import importlib.util
import pathlib

import pytest

LAYERS_FILE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.mark.parametrize("module", ["mkt", "mkt.commuting", "mkt.jointdet", "mkt.sampling"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_traced_boundaries_resolve():
    """The per-layer tracer looks each boundary up in its owner's __dict__,
    so a deleted or moved boundary would break `perfbench/run.py --trace 1`."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_FILE)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for _layer, modname, path in layers.BOUNDARIES:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{modname}.{path}")
    assert not missing
