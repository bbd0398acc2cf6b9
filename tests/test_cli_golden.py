"""Replay tests/cli_golden.txt through cli.main and compare stdout byte for byte."""

import re
import shlex
from pathlib import Path

import pytest

from gtprobe import cli

GOLDEN = Path(__file__).with_name("cli_golden.txt")


def _blocks() -> list[tuple[str, int, str]]:
    """(argv, exit code, stdout) for each "$ " block of the golden file."""
    blocks = []
    for chunk in re.split(r"^\$ ", GOLDEN.read_text(), flags=re.M)[1:]:
        argv, status, stdout = chunk.split("\n", 2)
        blocks.append((argv, int(status.removeprefix("exit ")), stdout))
    return blocks


BLOCKS = _blocks()


@pytest.mark.parametrize("argv,code,stdout", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_golden_output(capsys, argv, code, stdout):
    assert cli.main(shlex.split(argv)) == code
    assert capsys.readouterr().out == stdout
