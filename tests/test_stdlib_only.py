"""The library is pure Python on the standard library alone: every module
of the package imports only its own modules and those of the standard
library, and none of those that would double its import time."""

import ast
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "essential_rewrite"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    outside = {name for name in imported
               if name.split(".")[0] not in {*sys.stdlib_module_names, "essential_rewrite"}}
    assert not outside


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # `dataclasses` imports `inspect`, which with `dis`, `ast` and `tokenize`
    # took about half of the package's import; a `site` that loads them
    # first does not count
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import essential_rewrite.cli; print(*set(sys.modules) - before)")
    loaded = subprocess.run([sys.executable, "-I", "-c", probe, str(PACKAGE.parent)],
                            capture_output=True, text=True, check=True).stdout.split()
    assert "essential_rewrite.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)
