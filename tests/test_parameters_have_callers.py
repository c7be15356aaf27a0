"""Every defaulted parameter has a caller: for each function and method of
the package with a defaulted parameter, some call in `src/` or `bench/`
passes that parameter, by position or by keyword.  A value that only tests
set is a constant of the program, so tests do not count as callers.

Calls are matched by the callee's name, so a method matches a call of any
attribute of that name.  `functools.partial(f, ...)` counts as a call of
`f`, a class call as a call of its `__init__`, and a call with `*args` or
`**kwargs` as passing everything."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "essential_rewrite"


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls():
    """Each call in `src/` and `bench/`, by callee name: the number of its
    positional arguments, the names of its keywords, and whether it unpacks
    `*args` or `**kwargs`."""
    calls = {}
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if _name(func) == "partial" and args:
                func, args = args[0], args[1:]
            keywords = {kw.arg for kw in node.keywords}
            unpacks = None in keywords or any(isinstance(arg, ast.Starred) for arg in args)
            calls.setdefault(_name(func), []).append((len(args), keywords, unpacks))
    return calls


CALLS = _calls()


def _defaulted(path):
    """Each defaulted parameter of the module's functions and methods: the
    name its calls go by (a class's for its `__init__`), the parameter, and
    the number of positional arguments that reach it (None if keyword-only)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {f: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for f in cls.body if isinstance(f, ast.FunctionDef)}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        cls = owner.get(f)
        name = cls if cls is not None and f.name == "__init__" else f.name
        label = f"{cls}.{f.name}" if cls is not None else f.name
        positional = f.args.posonlyargs + f.args.args
        for i in range(len(positional) - len(f.args.defaults), len(positional)):
            # a call of a method binds its first parameter before the arguments
            yield name, label, positional[i].arg, i if cls is not None else i + 1
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield name, label, arg.arg, None


def _passed(name, param, reach) -> bool:
    return any(unpacks or param in keywords or reach is not None and count >= reach
               for count, keywords, unpacks in CALLS.get(name, ()))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_defaulted_parameter_has_a_caller(path):
    uncalled = [f"{label}({param})" for name, label, param, reach in _defaulted(path)
                if not _passed(name, param, reach)]
    assert not uncalled
