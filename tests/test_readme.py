"""The examples in README.md, run as written.

Every ``$ hhkit ...`` line in a fenced code block is run through ``cli.main``.
The lines after it, up to a blank line, the next command or the end of the
block, are its stdout, or its one ``error:`` line on stderr; it exits 2
exactly when that is an error line.  Every fenced ``python`` block is
executed, and its asserts must hold.
"""

import pathlib
import re
import shlex

import pytest

from hhkit.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ hhkit "


def _examples() -> list[tuple[str, list[str]]]:
    examples, in_block, current = [], False, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith(PROMPT):
            current = (line[len(PROMPT) :], [])
            examples.append(current)
        elif in_block and current is not None and line.strip():
            current[1].append(line)
        else:
            current = None
    return examples


EXAMPLES = _examples()

PYTHON_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S
)


def test_readme_has_output_and_error_examples():
    assert any(lines[0].startswith("error:") for _, lines in EXAMPLES)
    assert any(not lines[0].startswith("error:") for _, lines in EXAMPLES)


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(capsys, command, expected):
    code = main(shlex.split(command))
    out, err = capsys.readouterr()
    if expected[0].startswith("error:"):
        assert (code, out, err.splitlines()) == (2, "", expected)
    else:
        assert code != 2
        assert (out.splitlines(), err) == (expected, "")


def test_readme_has_a_python_example():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("source", PYTHON_BLOCKS, ids=range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})
