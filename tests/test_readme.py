"""The README's examples run as written.

Each line of a ``sh`` block of the form ``tubecalc ARGS  # -> VALUE`` runs
through ``cli.main`` and must print VALUE and exit 0, and the Python block
of "Library quick start" is executed.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from tubecalc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language: str):
    """The fenced blocks of one language, in order, as (heading, body)."""
    found, heading = [], None
    for match in re.finditer(rf"^(#+ [^\n]*)$|^```{language}\n(.*?)^```$", README, re.M | re.S):
        if match.group(1):
            heading = match.group(1).lstrip("# ")
        else:
            found.append((heading, match.group(2)))
    return found


EXAMPLES = [
    (shlex.split(command)[1:], value.strip())
    for _, body in blocks("sh")
    for command, value in re.findall(r"^(tubecalc .*?)\s*# -> (.*)$", body, re.M)
]


def test_examples_are_found():
    assert [argv[0] for argv, _ in EXAMPLES] == ["ext", "hom", "pairs"]


@pytest.mark.parametrize("argv, value", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_cli_example_prints_its_value(argv, value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == value + "\n"


def test_library_quick_start_runs():
    (source,) = [body for heading, body in blocks("python") if heading == "Library quick start"]
    exec(compile(source, "README.md", "exec"), {})
