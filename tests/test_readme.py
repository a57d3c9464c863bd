"""The README's command-line examples, run through the CLI entry point."""
import re
import shlex
from pathlib import Path

import pytest

from subcount.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_examples():
    """(command, shown output lines) for each `$ subcount` line of the block."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line"):]
    block = section.split("```")[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ subcount "):
            examples.append((line[2:], []))
        elif line and examples:
            examples[-1][1].append(line)
    return examples


def test_every_example_is_collected():
    assert [cmd.split()[1] for cmd, _ in command_examples()] == [
        "count", "count", "count", "table", "verify", "toth"]


@pytest.mark.parametrize("command, shown", command_examples(),
                         ids=[cmd for cmd, _ in command_examples()])
def test_example_output(capsys, command, shown):
    # each shown line must match in order; a "..." line stands for any lines
    pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + r"\n"
                      for line in shown)
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    assert re.fullmatch(pattern, out), out
