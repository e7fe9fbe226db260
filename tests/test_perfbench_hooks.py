"""The benchmark's tracer patches library functions by name from outside
the library.  A target renamed or deleted by a refactor would leave its
span reading 0 without an error, so every one must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"


def load_spantrace():
    spec = importlib.util.spec_from_file_location("perfbench_spantrace", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spantrace = load_spantrace()


@pytest.mark.parametrize("layer", spantrace.LAYERS)
def test_traced_layers_are_modules(layer):
    importlib.import_module(f"fwexact.{layer}")


@pytest.mark.parametrize("module, name", sorted(spantrace._PRIVATE))
def test_private_targets_resolve(module, name):
    assert callable(getattr(importlib.import_module(f"fwexact.{module}"), name))


@pytest.mark.parametrize("module, owner, name, span", spantrace._METHODS)
def test_method_targets_resolve(module, owner, name, span):
    cls = getattr(importlib.import_module(f"fwexact.{module}"), owner)
    assert callable(getattr(cls, name))
    assert span.startswith(f"{module}.")
