"""README's examples run as written: each command of its "CLI examples"
block exits 0 and prints the result it shows after `# ->`, and the python
blocks of its "Library sketch" run in order in one namespace."""

import pathlib
import re
import shlex

import pytest

from padicval.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(section, lang):
    """The fenced `lang` blocks of the README section headed `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)


def _cli_examples():
    """(argv, the start of stdout or None) per padicval command; a result may sit on the next line."""
    examples = []
    for line in _blocks("CLI examples", "sh")[0].splitlines():
        command, _, result = line.partition("# ->")
        if command.strip():
            program, *argv = shlex.split(command)
            assert program == "padicval", line
            examples.append([argv, None])
        if result:  # a trailing " ..." or "  (...)" is a note, not output
            examples[-1][1] = re.sub(r"( \.\.\.|  \(.*\))$", "", result.strip())
    return examples


CLI_EXAMPLES = _cli_examples()


def test_cli_examples_are_read():
    assert len(CLI_EXAMPLES) == 10
    assert sum(expected is not None for _, expected in CLI_EXAMPLES) == 6


@pytest.mark.parametrize("argv, expected", CLI_EXAMPLES, ids=[argv[0] for argv, _ in CLI_EXAMPLES])
def test_cli_example(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `series --out series.csv` writes there
    assert main(argv) == 0
    if expected is not None:
        assert capsys.readouterr().out.startswith(expected)


def test_library_sketch_runs():
    blocks = _blocks("Library sketch", "python")
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(block, namespace)
