"""Byte-identical CLI stdout on a fixed set of ball- and weight-level runs.

Each file under ``tests/golden/`` holds the stdout of one command,
captured before the code it exercises was last rewritten (the
ball-level state, then the Laurent arithmetic); a refactor must
reproduce it exactly.  To regenerate a file after an intended output
change, run the command from the repository root, for example::

    PYTHONPATH=src python -m majoritygame verify --suite adversarial \\
        --format json > tests/golden/verify_adversarial.json

The play session reads its answers from the matching ``.in`` file.
"""

import io
from pathlib import Path

import pytest

from majoritygame.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_reformulation_seed7_trials300.json": (
        "verify", "--suite", "reformulation", "--seed", "7", "--trials", "300",
        "--format", "json"),
    "verify_adversarial.json": ("verify", "--suite", "adversarial", "--format", "json"),
    "verify_certificate.json": ("verify", "--suite", "certificate", "--format", "json"),
    "verify_leibniz_seed7.json": (
        "verify", "--suite", "leibniz", "--seed", "7", "--format", "json"),
    "table_max_n12.csv": ("table", "--max-n", "12", "--format", "csv"),
    "play_balls_n7_k4_selector.out": (
        "play", "--n", "7", "--k", "4", "--level", "balls", "--role", "selector"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys, monkeypatch):
    stdin = (GOLDEN / name).with_suffix(".in")
    if stdin.exists():
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin.read_text()))
    assert main(list(CASES[name])) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
