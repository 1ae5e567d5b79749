"""Acceptance checks: one test and one printed verdict line per criterion.

Each test runs the relevant verification suite(s) at its fixed scale,
prints ``ACCEPTANCE NN name: PASS|FAIL`` to the live output, and then
asserts that it passed with its known case count at the default seed.
Criteria cover the exact comparison counts, the conservation and
closed-form laws for signed counts, certificate evaluation, the
potential's domination of game values, the named position families, and
the agreement of the ball-level game with the weight-level abstraction.
"""

import pytest

from majoritygame.core import GameParams
from majoritygame.solver import formula_comparisons, solve_game
from majoritygame.statistics import binary_weight
from majoritygame.verify import (
    suite_adversarial,
    suite_assigner_tie,
    suite_certificate,
    suite_closed_form,
    suite_conservation,
    suite_conservation_iterated,
    suite_final_bound,
    suite_formula,
    suite_leibniz,
    suite_potential_dominates,
    suite_reformulation,
    suite_start_position,
    suite_two_one_family,
)


@pytest.fixture
def announce(capsys):
    def _announce(number, name, ok, detail=""):
        with capsys.disabled():
            tail = f"  [{detail}]" if detail else ""
            print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")

    return _announce


def test_01_comparison_formula(announce):
    report = suite_formula()
    spots = {(5, 3): 3, (7, 4): 4, (13, 7): 10}
    spot_failures = []
    for (n, k), expected in spots.items():
        comparisons, _ = solve_game(GameParams(n, k))
        if comparisons != expected:
            spot_failures.append(f"K({n},{k}) = {comparisons}, expected {expected}")
    ok = report.passed and report.cases == 42 and not spot_failures
    announce(1, "comparison-formula", ok, f"cases={report.cases + len(spots)}")
    assert ok, report.failures + spot_failures


def test_02_bare_majority_family(announce):
    failures = []
    for m in range(1, 6):
        params = GameParams(2 * m + 1, m + 1)
        comparisons, _ = solve_game(params)
        expected = 2 * m - binary_weight(m)
        if comparisons != expected:
            failures.append(f"m={m}: {comparisons} != {expected}")
    ok = not failures
    announce(2, "bare-majority-family", ok, "m=1..5")
    assert ok, failures


def test_03_conservation(announce):
    base = suite_conservation()
    iterated = suite_conservation_iterated()
    pairs = base.details["pairs"] + iterated.details["pairs"]
    ok = (base.passed and iterated.passed and pairs == 1250
          and (base.cases, iterated.cases) == (11_129, 10_104))
    announce(3, "conservation", ok,
             f"pairs={pairs} cases={base.cases + iterated.cases}")
    assert ok, base.failures + iterated.failures


def test_04_start_position(announce):
    report = suite_start_position()
    ok = report.passed and report.cases == 12_678
    announce(4, "start-position", ok, f"cases={report.cases}")
    assert ok, report.failures


def test_05_closed_form(announce):
    report = suite_closed_form()
    ok = report.passed and report.cases == 59_868
    announce(5, "closed-form", ok, f"cases={report.cases}")
    assert ok, report.failures


def test_06_leibniz(announce):
    report = suite_leibniz()
    ok = report.passed and report.details["pairs"] == 500 and report.cases == 3_000
    announce(6, "leibniz", ok, f"cases={report.cases}")
    assert ok, report.failures


def test_07_certificates(announce):
    certificates = suite_certificate()
    bound = suite_final_bound()
    ok = (certificates.passed and bound.passed
          and (certificates.cases, bound.cases) == (27_696, 13_848))
    announce(7, "certificates", ok,
             f"final positions={certificates.details['final_positions']}")
    assert ok, certificates.failures + bound.failures


def test_08_potential_dominates(announce):
    report = suite_potential_dominates()
    ok = report.passed and report.cases == 598
    announce(8, "potential-dominates", ok, f"cases={report.cases}")
    assert ok, report.failures


def test_09_two_one_family(announce):
    report = suite_two_one_family()
    ok = report.passed and report.cases == 32
    announce(9, "two-one-family", ok, "m=1..32")
    assert ok, report.failures


def test_10_assigner_tie(announce):
    report = suite_assigner_tie()
    ok = report.passed and report.cases == 8
    announce(10, "assigner-tie", ok, "m=3,7")
    assert ok, report.failures


def test_11_reformulation(announce):
    report = suite_reformulation()
    states = sum(report.details["states"].values())
    ok = (report.passed and report.details["transcripts"] == 10_000
          and report.cases == 133_255)
    announce(11, "reformulation", ok, f"cases={report.cases} states={states}")
    assert ok, report.failures


def test_12_adversarial(announce):
    report = suite_adversarial()
    ok = report.passed and report.cases == 116
    announce(12, "adversarial", ok, f"cases={report.cases}")
    assert ok, report.failures
