"""README's code blocks run as written, and its CLI defaults are the CLI's."""

import pathlib
import re
import shlex

from essential_rewrite import cli

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


def test_cli_examples(capsys, monkeypatch, tmp_path):
    """Each line of the CLI block runs in-process and exits 0, or with the
    code its `# exit N` comment names; `sequence.txt` is the sequence file
    the README shows."""
    text = README.read_text()
    section = text[text.index("## CLI"):]
    lines = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1).splitlines()
    sequence = re.search(r"Sequence files for `factorize`.*?```\n(.*?)```",
                         section, re.DOTALL).group(1)
    (tmp_path / "sequence.txt").write_text(sequence)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    assert lines
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "essential-rewrite"
        expected = re.search(r"#\s*exit (\d+)", line)
        assert cli.main(argv) == (int(expected.group(1)) if expected else 0), line
        capsys.readouterr()


def test_cli_defaults():
    """README's "Defaults (fuel 1000, size 8, …)" names every default of
    the CLI, each with its value."""
    text = " ".join(README.read_text().split())
    listed = re.search(r"Defaults \(([^)]*)\)", text).group(1)
    pairs = [item.split() for item in listed.split(", ")]
    assert dict(pairs) == {key: str(value) for key, value in cli.DEFAULTS.items()}
    assert len(pairs) == len(cli.DEFAULTS)
