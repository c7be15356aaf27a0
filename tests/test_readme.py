"""README's code blocks run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour():
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    *body, last = block.rstrip("\n").split("\n")
    expression, _, comment = last.partition("#")
    namespace: dict = {}
    exec("\n".join(body), namespace)
    assert expression.strip().startswith("least_level(")
    assert eval(expression, namespace) == int(comment) == 1
