"""The benchmark's tracer patches module bindings by name; they must exist."""

import ast
import importlib.util
import pathlib
import re

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "essential_rewrite"
MARKER = re.compile(r"^\s*(\w+),\s*# unused here; bench/tracing.py binds it$", re.MULTILINE)


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_binding_resolves():
    missing = [f"{module.__name__}.{attr}"
               for _, bindings, _ in _tracing().BOUNDARIES
               for module, attr in bindings
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_every_import_kept_for_the_tracer_is_traced_and_unused():
    bound = {(module.__name__.rpartition(".")[2], attr)
             for _, bindings, _ in _tracing().BOUNDARIES
             for module, attr in bindings}
    marked, untraced, used = [], [], []
    mentions = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        mentions += text.count("unused here")
        names = {node.id for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Name)}
        for attr in MARKER.findall(text):
            marked.append(f"{path.stem}.{attr}")
            if (path.stem, attr) not in bound:
                untraced.append(marked[-1])
            if attr in names:
                used.append(marked[-1])
    # every marker is one the pattern reads
    assert len(marked) == mentions
    assert untraced == [] and used == []
