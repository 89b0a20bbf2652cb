"""Every call the traced benchmark wraps must exist in ``src``.

``perfbench/instrument.py`` names its wrap targets as strings; a renamed
or deleted method would otherwise surface only when the traced benchmark
runs.  This resolves each target the way ``install`` does, without
installing any wrapper.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

INSTRUMENT = (pathlib.Path(__file__).resolve().parent.parent
              / "perfbench" / "instrument.py")


def _instrument():
    spec = importlib.util.spec_from_file_location("_perfbench_instrument",
                                                  INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INST = _instrument()


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{module}.{path} is inherited"
        return owner.__dict__[attr]
    return getattr(owner, attr)


@pytest.mark.parametrize("target", INST.TARGETS,
                         ids=[f"{t[2]}.{t[3]}" for t in INST.TARGETS])
def test_target_resolves(target):
    layer, _name, module, path, _keep = target
    assert layer in INST.LAYERS
    fn = _resolve(module, path)
    assert callable(getattr(fn, "__func__", fn))


@pytest.mark.parametrize("key", sorted(INST.NOTES))
def test_note_key_names_a_target(key):
    matches = [t for t in INST.TARGETS if t[3] == key]
    assert matches, f"NOTES key {key!r} names no TARGETS path"
    for _layer, _name, module, path, _keep in matches:
        _resolve(module, path)
