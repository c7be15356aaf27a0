"""No function of the package calls itself or lies on a cycle of calls, by
name: every walk over a term, a derivation or a size is a loop.

A call counts when it names its callee: a function or class by its plain
name (a nested function, one of the module, or one imported from a sibling
module), or a method through `self` or `cls`.  A call through any other
receiver names no function, as its type is not known by name.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "essential_rewrite"


def _functions(path: pathlib.Path):
    """Each function of the module at `path`, with the names its calls
    resolve to: {qualified name: set of qualified names}."""
    module = path.stem
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name: f"{node.module}:{alias.name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    top = {node.name: f"{module}:{node.name}" for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    calls: dict[str, set[str]] = {}

    def visit(node, qualname, scopes, cls):
        """Record the function `node`; `scopes` maps the names of the
        functions nested in each enclosing function, innermost last."""
        local = {child.name: f"{qualname}.{child.name}" for child in _own_nodes(node)
                 if isinstance(child, ast.FunctionDef)}
        scopes = scopes + [local]
        called = calls.setdefault(qualname, set())
        for child in _own_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    for scope in reversed(scopes):
                        if func.id in scope:
                            called.add(scope[func.id])
                            break
                    else:
                        target = top.get(func.id) or imported.get(func.id)
                        if target:
                            called.add(target)
                elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                      and func.value.id in ("self", "cls") and cls):
                    called.add(f"{cls}.{func.attr}")
            elif isinstance(child, ast.FunctionDef):
                visit(child, f"{qualname}.{child.name}", scopes, None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            visit(node, f"{module}:{node.name}", [], None)
        elif isinstance(node, ast.ClassDef):
            cls = f"{module}:{node.name}"
            calls.setdefault(cls, set())
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    qualname = f"{cls}.{item.name}"
                    visit(item, qualname, [], cls)
                    if item.name == "__init__":
                        # calling the class by name runs its __init__
                        calls[cls].add(qualname)
    return calls


def _own_nodes(function):
    """The nodes of `function`'s body, not those of the functions or
    classes defined in it (lambdas are part of it)."""
    pending = list(function.body)
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))


def on_cycles(paths) -> list[str]:
    """The functions of the modules at `paths` that lie on a cycle of calls,
    a call to themselves included."""
    graph: dict[str, set[str]] = {}
    for path in paths:
        graph.update(_functions(path))
    found = []
    for start in graph:
        # is `start` reachable from its own callees?
        seen, pending = set(), list(graph[start])
        while pending:
            name = pending.pop()
            if name == start:
                found.append(start)
                break
            if name not in seen:
                seen.add(name)
                pending.extend(graph.get(name, ()))
    return sorted(found)


def test_no_function_of_the_package_recurses():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8
    assert on_cycles(paths) == []


def test_the_recursive_originals_are_found(tmp_path):
    # the oracles the loops replaced: every one of them recurses
    found = on_cycles([TESTS / "recursive.py"])
    assert {"recursive:size", "recursive:equal", "recursive:instantiate.go",
            "recursive:_parse_term", "recursive:_parse_app", "recursive:_parse_atom",
            "recursive:emitter.emit", "recursive:is_neutral", "recursive:is_normal",
            "recursive:derive", "recursive:identity_derivation", "recursive:_combine",
            "recursive:all_parallel_steps", "recursive:to_json", "recursive:exact",
            "recursive:_random"} <= set(found)
    # and a call through `self` is followed
    probe = tmp_path / "probe.py"
    probe.write_text("class C:\n    def f(self):\n        return self.f()\n")
    assert on_cycles([probe]) == ["probe:C.f"]
