"""The benchmark tracer wraps library functions by name and reads some of
their arguments by position; a refactor must keep every name and position it
relies on, or traced benchmark runs break."""

import importlib
import importlib.util
import inspect
import sys
import time
from pathlib import Path

import numpy as np

from cocyclelab import experiments, holder_regression, iterate, sample_measure, symbolic
from cocyclelab.experiments import ExperimentConfig
from cocyclelab.symbolic import MarkovMeasure, SFTSpace
from cocyclelab.transfer import TransferMap

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """The benchmark script ``perfbench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def positional(fn):
    return list(inspect.signature(fn).parameters)


def test_traced_functions_resolve():
    for mod, fn in load("tracer").TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"cocyclelab.{mod}"), fn)), (mod, fn)
    assert callable(TransferMap.phi_at)


def test_traced_arguments_keep_their_positions():
    assert positional(iterate)[2] == "n"
    assert positional(holder_regression)[0] == "points"
    assert positional(sample_measure)[1] == "count"
    assert positional(TransferMap.phi_at)[1] == "y"


def test_traced_theorem_a_calls_every_transfer_span(monkeypatch):
    """A traced ``transfer`` run counts as incorrect when an expected span has
    no calls, so a refactor must keep every one of them on the theorem-a path."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # workload.py prepends to it
    expected = load("workload").EXPECTED_SPANS["transfer"]
    cfg = ExperimentConfig("theorem-a", seed=5)
    untraced = experiments.run(cfg)
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        traced = experiments.run(cfg)
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.take()
    assert [span for span in expected if not calls.get(span)] == []
    assert traced.rows == untraced.rows and traced.tables == untraced.tables
    assert traced.passed


def test_traced_theorem_b_calls_the_regression_span(monkeypatch):
    """theorem-b is the only ``repair`` operation that reaches ``regularize``
    and ``holder_regression``, so ``regularize`` must call the regression by
    name."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # workload.py prepends to it
    expected = load("workload").EXPECTED_SPANS["repair"]
    cfg = ExperimentConfig("theorem-b", seed=5)
    untraced = experiments.run(cfg)
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        traced = experiments.run(cfg)
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.take()
    for span in ("rigidity.regularize", "transfer.holder_regression"):
        assert span in expected and calls.get(span)
    assert traced.rows == untraced.rows and traced.tables == untraced.tables
    assert traced.passed


def test_traced_sampling_calls_every_sampling_span(monkeypatch):
    """The same guard for ``sampling``: one operation on the golden-mean
    measure of the workload, run untraced and traced."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # workload.py prepends to it
    workload = load("workload")
    mu = MarkovMeasure.from_matrix(SFTSpace.golden_mean(), [[0.35, 0.65], [1.0, 0.0]])
    op = workload.SamplingOp(symbolic, np, "golden-markov", mu, 5)
    _, untraced, error = op.run(time.perf_counter)
    assert error is None
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        _, traced, error = op.run(time.perf_counter)
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.take()
    assert [span for span in workload.EXPECTED_SPANS["sampling"] if not calls.get(span)] == []
    assert traced == untraced
    assert error is None  # SamplingOp.check found nothing wrong
