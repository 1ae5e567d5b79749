"""The README's code examples run as written."""

import doctest
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

import majoritygame
from majoritygame.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
TEXT_BLOCK = re.compile(r"^```text\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_are_passing_doctests():
    # The blocks run in order in one namespace, as a reader would type them.
    source = "\n".join(PYTHON_BLOCK.findall(README.read_text()))
    test = doctest.DocTestParser().get_doctest(source, {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert test.examples
    assert runner.failures == 0


ROOT_NAMES = {
    "core": ("GameParams", "Position", "start_position", "legal_moves"),
    "solver": ("GameSolver", "MemoLimitExceeded", "formula_comparisons"),
    "statistics": ("potential", "signed_count", "subposition_weight_counts"),
    "laurent": ("LaurentPoly", "certificate_polynomial"),
    "verify": ("run_suite", "iter_suites"),
}


def test_package_root_exports_exactly_the_documented_names():
    assert sorted(majoritygame.__all__) == sorted(
        name for names in ROOT_NAMES.values() for name in names)
    for module, names in ROOT_NAMES.items():
        defining = importlib.import_module(f"majoritygame.{module}")
        for name in names:
            assert getattr(majoritygame, name) is getattr(defining, name), name
    imports = re.search(r"from majoritygame import \((.*?)\)", README.read_text(), re.DOTALL)
    quick_start = {name.strip(" .\n") for name in imports.group(1).split(",")} - {""}
    assert quick_start and quick_start <= set(majoritygame.__all__)


def _command_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ majority-game ...`` line in a text block, with the lines shown under it."""
    examples = []
    for block in TEXT_BLOCK.findall(README.read_text()):
        for example in block.split("\n\n"):
            command, *shown = example.strip("\n").split("\n")
            if command.startswith("$ "):
                examples.append((command[2:], shown))
    return examples


@pytest.mark.parametrize(
    "command, shown", [pytest.param(*example, id=example[0]) for example in _command_examples()])
def test_readme_command_example_prints_what_it_shows(command, shown, capsys, monkeypatch):
    # `printf '...' |` feeds stdin, `> /dev/null` means the lines shown are stderr,
    # and a `...` line stands for rows left out
    stdin, _, command = command.rpartition(" | ")
    if stdin:
        text = shlex.split(stdin)[1].encode().decode("unicode_escape")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    to_stderr = command.endswith(" > /dev/null")
    program, *argv = shlex.split(command.removesuffix(" > /dev/null"))
    assert program == "majority-game"
    assert main(argv) == 0
    captured = capsys.readouterr()
    pattern = "".join(r"(?:.*\n)*" if line.strip() == "..." else re.escape(line) + "\n"
                      for line in shown)
    assert re.fullmatch(pattern, captured.err if to_stderr else captured.out)


def test_readme_command_examples_cover_every_subcommand():
    examples = _command_examples()
    assert len(examples) == 7
    subcommands = {shlex.split(command.rpartition(" | ")[2])[1] for command, _ in examples}
    assert subcommands == {"table", "value", "stats", "trace", "verify", "play"}
