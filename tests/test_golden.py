"""Byte-identical CLI stdout on a fixed set of ball- and weight-level runs.

Each file under ``tests/golden/`` holds the stdout of one command,
captured before the code it exercises was last rewritten (the
ball-level state, the Laurent arithmetic, the smallest-ball roots and
the JSON transcript writer, then the single move lookup, Assigner reply
and suite runner, then the once-per-tuple submultiset enumeration, then
the fixed suite scales and the single suite entry point, then the
deletion of the paths that repeated another: the kernel's second
stored-bound read, the wrapped final-bound check and the in-game abort
lines, then the one-excess-at-a-time game sweep behind ``table`` and the
formula suite, then the single Selector move and Assigner reply, with
``trace_n24_k14.json`` added to pin both choices at excess 4, then the
one output emitter behind ``table``, ``value``, ``stats``, ``verify`` and
``trace``); a refactor must reproduce it exactly.
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
    "table_max_n20.json": ("table", "--max-n", "20", "--format", "json"),
    "play_balls_n7_k4_selector.out": (
        "play", "--n", "7", "--k", "4", "--level", "balls", "--role", "selector"),
    "play_balls_n7_k4_potential.out": (
        "play", "--n", "7", "--k", "4", "--level", "balls", "--adversary", "potential"),
    "play_balls_n9_k5_assigner.out": (
        "play", "--n", "9", "--k", "5", "--level", "balls", "--role", "assigner"),
    "value_n13_k7.txt": ("value", "--n", "13", "--k", "7"),
    "value_n13_k7.csv": ("value", "--n", "13", "--k", "7", "--format", "csv"),
    "value_n13_k7.json": ("value", "--n", "13", "--k", "7", "--format", "json"),
    "value_position_e3.csv": (
        "value", "--position", "[3,2,1^4,0]", "--e", "3", "--format", "csv"),
    "value_position_final_e1.txt": ("value", "--position", "[2,1]", "--e", "1"),
    "value_position_final_e1.json": (
        "value", "--position", "[2,1]", "--e", "1", "--format", "json"),
    "stats_position_e1_b3.txt": ("stats", "--position", "[2,1^5]", "--e", "1", "--b", "3"),
    "stats_position_e1_b3.csv": (
        "stats", "--position", "[2,1^5]", "--e", "1", "--b", "3", "--format", "csv"),
    "stats_position_e1_b3.json": (
        "stats", "--position", "[2,1^5]", "--e", "1", "--b", "3", "--format", "json"),
    "stats_position_e0_b2.txt": ("stats", "--position", "[4,0]", "--e", "0", "--b", "2"),
    "stats_position_e0_b2.csv": (
        "stats", "--position", "[4,0]", "--e", "0", "--b", "2", "--format", "csv"),
    "trace_n13_k7.txt": ("trace", "--n", "13", "--k", "7"),
    "trace_n13_k7.json": ("trace", "--n", "13", "--k", "7", "--format", "json"),
    "trace_n9_k5_position.txt": ("trace", "--n", "9", "--k", "5", "--position", "[2,1^5,0]"),
    "trace_n9_k5_position.json": (
        "trace", "--n", "9", "--k", "5", "--position", "[2,1^5,0]", "--format", "json"),
    "trace_n24_k14.json": ("trace", "--n", "24", "--k", "14", "--format", "json"),
    "table_max_n12.txt": ("table", "--max-n", "12"),
    "verify_assigner_tie_m11.txt": ("verify", "--suite", "assigner-tie", "--m", "11"),
    "verify_start_position.json": ("verify", "--suite", "start-position", "--format", "json"),
    "verify_final_bound.json": ("verify", "--suite", "final-bound", "--format", "json"),
    "verify_potential_dominates.json": (
        "verify", "--suite", "potential-dominates", "--format", "json"),
    "verify_formula.json": ("verify", "--suite", "formula", "--format", "json"),
    "verify_two_one_family.json": ("verify", "--suite", "two-one-family", "--format", "json"),
    "verify_assigner_tie.json": ("verify", "--suite", "assigner-tie", "--format", "json"),
    "verify_assigner_tie.csv": ("verify", "--suite", "assigner-tie", "--format", "csv"),
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


def _stdin_file(name: str) -> Path:
    return GOLDEN / STDIN.get(name, Path(name).with_suffix(".in").name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys, monkeypatch):
    stdin = _stdin_file(name)
    if stdin.exists():
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin.read_text()))
    assert main(list(CASES[name])) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_every_golden_file_is_a_case_or_its_stdin():
    # a file no case names would be a check that never runs and never fails
    used = set(CASES) | {_stdin_file(name).name for name in CASES if _stdin_file(name).exists()}
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(used)
