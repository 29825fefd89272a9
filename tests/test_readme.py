"""The README's examples run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from rsumlab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _cli_examples() -> list[tuple[str, list[str]]]:
    """Each ``rsumlab ...`` line of the sh blocks, with the ``#   `` output lines under it."""
    examples = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            if line.startswith("rsumlab "):
                examples.append((line, []))
            elif line.startswith("#   ") and examples:
                examples[-1][1].append(line[4:])
    return examples


CLI_EXAMPLES = _cli_examples()


def test_quick_start_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_sumset_example_shows_its_output():
    (expected,) = [out for line, out in CLI_EXAMPLES if line.startswith("rsumlab sumset ")]
    assert expected == ["{3,4,5}", "size=3"]


@pytest.mark.parametrize("line,expected", CLI_EXAMPLES, ids=[line for line, _ in CLI_EXAMPLES])
def test_cli_example_runs(capsys, line, expected):
    code = main(shlex.split(line)[1:])
    out = capsys.readouterr().out
    # the counterexample search exits 1 because it finds counterexamples
    assert code == (1 if "--mode counterexample" in line else 0)
    if expected:
        assert out.splitlines() == expected
