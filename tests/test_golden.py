"""Byte-identical CLI stdout on a fixed set of ball- and weight-level runs.

Each file under ``tests/golden/`` holds the stdout of one command,
captured before the code it exercises was last rewritten (the
ball-level state, the Laurent arithmetic, the smallest-ball roots and
the JSON transcript writer, then the single move lookup, Assigner reply
and suite runner, then the once-per-tuple submultiset enumeration); a
refactor must reproduce it exactly.
To regenerate a file after an intended output change, run the command
from the repository root, for example::

    PYTHONPATH=src python -m majoritygame verify --suite adversarial \\
        --format json > tests/golden/verify_adversarial.json

A play session reads its answers from the matching ``.in`` file, or
from the one named in ``STDIN``.
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
    "verify_closed_form.json": ("verify", "--suite", "closed-form", "--format", "json"),
    "verify_conservation_seed7.json": (
        "verify", "--suite", "conservation", "--seed", "7", "--format", "json"),
    "verify_conservation_iterated_seed7.json": (
        "verify", "--suite", "conservation-iterated", "--seed", "7", "--format", "json"),
    "table_max_n12.csv": ("table", "--max-n", "12", "--format", "csv"),
    "play_balls_n7_k4_selector.out": (
        "play", "--n", "7", "--k", "4", "--level", "balls", "--role", "selector"),
    "play_balls_n7_k4_potential.out": (
        "play", "--n", "7", "--k", "4", "--level", "balls", "--adversary", "potential"),
    "play_balls_n9_k5_assigner.out": (
        "play", "--n", "9", "--k", "5", "--level", "balls", "--role", "assigner"),
    "value_n13_k7.txt": ("value", "--n", "13", "--k", "7"),
    "value_n13_k7.csv": ("value", "--n", "13", "--k", "7", "--format", "csv"),
    "value_position_e3.csv": (
        "value", "--position", "[3,2,1^4,0]", "--e", "3", "--format", "csv"),
    "stats_position_e1_b3.txt": ("stats", "--position", "[2,1^5]", "--e", "1", "--b", "3"),
    "stats_position_e1_b3.csv": (
        "stats", "--position", "[2,1^5]", "--e", "1", "--b", "3", "--format", "csv"),
    "trace_n13_k7.txt": ("trace", "--n", "13", "--k", "7"),
    "trace_n13_k7.json": ("trace", "--n", "13", "--k", "7", "--format", "json"),
    "trace_n9_k5_position.txt": ("trace", "--n", "9", "--k", "5", "--position", "[2,1^5,0]"),
    "table_max_n12.txt": ("table", "--max-n", "12"),
    "verify_assigner_tie_m11.txt": ("verify", "--suite", "assigner-tie", "--m", "11"),
    "play_weights_n9_k5_selector.out": ("play", "--n", "9", "--k", "5", "--level", "weights"),
    "play_weights_n9_k5_potential.out": (
        "play", "--n", "9", "--k", "5", "--level", "weights", "--adversary", "potential"),
    "play_weights_n9_k5_assigner.out": (
        "play", "--n", "9", "--k", "5", "--level", "weights", "--role", "assigner"),
}

STDIN = {
    "play_balls_n7_k4_potential.out": "play_balls_n7_k4_selector.in",
    "play_weights_n9_k5_potential.out": "play_weights_n9_k5_selector.in",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys, monkeypatch):
    stdin = GOLDEN / STDIN.get(name, Path(name).with_suffix(".in").name)
    if stdin.exists():
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin.read_text()))
    assert main(list(CASES[name])) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
