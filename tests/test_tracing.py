"""The traced benchmark run wraps the layer functions listed in
``perfbench/tracing.py`` by module attribute; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(m, f) for m, f, _ in mod.LAYER_FUNCTIONS]


@pytest.mark.parametrize("module,function", _layer_functions())
def test_layer_function_resolves(module, function):
    mod = importlib.import_module(f"juliafit.{module}")
    assert callable(getattr(mod, function, None))
