"""The README's code examples run as written."""

import doctest
import importlib
import re
from pathlib import Path

import majoritygame

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


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
    "solver": ("GameSolver", "MemoLimitExceeded", "solve_game", "formula_comparisons"),
    "statistics": ("potential", "signed_count", "subposition_weight_counts"),
    "laurent": ("LaurentPoly", "certificate_polynomial"),
    "verify": ("run_suite", "run_all_suites"),
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
