"""The traced benchmark run (``bench/tracer.py``) rebinds sgspec functions by
name, and the benchmark's correctness gate (``bench/gates.py``) reads the
return of ``one_lap_lambda_range``. A rename or a changed return would break
the benchmark; these tests load the tracer read-only, so such a change fails
here first."""

import importlib.util
import sys
from pathlib import Path

import sgspec.cli  # noqa: F401  (loads every sgspec module that the tracer rebinds)
from sgspec.operators import one_lap_lambda_range

from test_spectra import repro_graph

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def traced_functions(tracer):
    for layer, names in tracer.TRACED.items():
        home = sys.modules[f"sgspec.{layer}"]
        for name in names:
            yield f"sgspec.{layer}.{name}", home, name


def test_every_traced_function_resolves_and_is_rebound():
    tracer = load_tracer()
    originals = {}
    for label, home, name in traced_functions(tracer):
        assert callable(getattr(home, name, None)), f"{label} is gone"
        originals[label] = getattr(home, name)
    t = tracer.Tracer()
    t.install()
    try:
        for label, home, name in traced_functions(tracer):
            assert getattr(home, name).__wrapped__ is originals[label], label
    finally:
        t.uninstall()
    for label, home, name in traced_functions(tracer):
        assert getattr(home, name) is originals[label], label


def test_lambda_range_keeps_its_interval_shape():
    g, lam = repro_graph()
    assert one_lap_lambda_range(g, [1.0, 1.0, 0.0, 0.0, 0.0]) == [(lam, lam)]
