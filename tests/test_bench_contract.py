"""The names perfbench/ traces and calls exist in the package with their signatures.

A traced benchmark run reads every name of run.TRACED_SPANS from the tracer's
summary and calls a fixed set of public functions in tracing.layer_figures.  A
renamed, removed or wrapped (lru_cache) function makes that run crash, so this
checks the contract here, without running the benchmark.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import kickedharper
import kickedharper.cli  # noqa: F401  (tracing._modules reads it from sys.modules)
from kickedharper import DKRM_RESONANT, ModelSpec, build_bloch_matrix, parse_effective_planck

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_is_a_wrapped_function(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # run.py puts perfbench/ first
    run, tracing = load("run"), load("tracing")
    main = kickedharper.cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        missing = [name for name in run.TRACED_SPANS if name not in tracer.names]
    finally:
        tracer.uninstall()
    assert missing == []
    assert kickedharper.cli.main is main   # uninstall restored it


def test_layer_figures_calls_resolve():
    """Each name layer_figures imports exists, and build_bloch_matrix still takes coeffs."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("kickedharper")
               for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)
    model = ModelSpec(DKRM_RESONANT, 1.0, 1.0, parse_effective_planck("2pi*89/233"))
    inspect.signature(build_bloch_matrix).bind(model, 0.3, {})
