"""The package names the benchmark reaches into still exist.

perfbench/spans.py wraps module attributes by name and perfbench/run.py
records harness.MAX_WORKERS; a refactor that drops one of them would
break every traced benchmark run while the rest of the suite passes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module,attribute",
    [(m, a) for m, a, _ in _spans().WRAPPED]
    + [("harness", "MAX_WORKERS")],
)
def test_benchmark_names_resolve(module, attribute):
    assert hasattr(importlib.import_module(f"henon_annulus.{module}"), attribute)


def test_traced_solver_reaches_minres():
    # the tracer replaces minimize's `spla` name, so the name must stay
    minimize = importlib.import_module("henon_annulus.minimize")
    assert callable(minimize.spla.minres)
