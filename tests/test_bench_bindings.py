"""The benchmark's tracer patches module bindings by name; they must exist."""

import importlib.util
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}"
               for _, bindings, _ in tracing.BOUNDARIES
               for module, attr in bindings
               if not callable(getattr(module, attr, None))]
    assert missing == []
