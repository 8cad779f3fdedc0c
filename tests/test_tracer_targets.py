"""The benchmark tracer wraps library functions by name and reads some of
their arguments by position; a refactor must keep every name and position it
relies on, or traced benchmark runs break."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from cocyclelab import holder_regression, iterate, sample_measure
from cocyclelab.transfer import TransferMap

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def positional(fn):
    return list(inspect.signature(fn).parameters)


def test_traced_functions_resolve():
    for mod, fn in load_tracer().TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"cocyclelab.{mod}"), fn)), (mod, fn)
    assert callable(TransferMap.phi_at)


def test_traced_arguments_keep_their_positions():
    assert positional(iterate)[2] == "n"
    assert positional(holder_regression)[0] == "points"
    assert positional(sample_measure)[1] == "count"
    assert positional(TransferMap.phi_at)[1] == "y"
