"""README drift: the command-line synopsis parses and the library example runs."""

import re
import shlex
from pathlib import Path

import pytest

from esdscan.cli import build_parser

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str = "") -> str:
    """The first fenced block of ``lang`` after ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


SYNOPSIS = _block("Command line").splitlines()


@pytest.mark.parametrize("line", SYNOPSIS, ids=[line.split()[1] for line in SYNOPSIS])
def test_synopsis_parses(line):
    # optional parts drop their brackets, so every flag shown meets the parser
    program, *argv = shlex.split(line.replace("[", "").replace("]", ""))
    assert program == "esdscan"
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_library_example_runs():
    exec(_block("Library", "python"), {})
