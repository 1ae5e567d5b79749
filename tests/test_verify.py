"""Suite registry, dispatch, the all-suites runner, and the named checks."""

import contextlib
import inspect
import io
import json
import tracemalloc

import pytest

import majoritygame
from majoritygame import verify
from majoritygame.ballgame import BallAnswer, QuestionGraph
from majoritygame.cli import main
from majoritygame.core import AssignerChoice, GameParams, Position
from majoritygame.statistics import INFINITE, potential
from majoritygame.verify import (
    SUITES,
    WITNESS_CAP,
    SuiteReport,
    iter_suites,
    run_suite,
    suite_conservation,
    suite_conservation_iterated,
    suite_leibniz,
    suite_reformulation,
    suite_two_one_family,
    two_one_family_potential,
    verify_first_move_tie,
    verify_potential_dominates,
)


class TestSuiteReport:
    def test_pass_fail_summary(self):
        report = SuiteReport("demo")
        report.cases = 3
        assert report.passed
        assert report.summary() == "PASS demo (cases=3)"
        report.add_failure("first witness")
        assert not report.passed
        assert "FAIL demo (cases=3, failures=1)" in report.summary()
        assert "first witness" in report.summary()

    def test_witness_cap(self):
        report = SuiteReport("demo")
        for i in range(WITNESS_CAP + 5):
            report.add_failure(f"w{i}")
        assert report.failure_count == WITNESS_CAP + 5
        assert len(report.failures) == WITNESS_CAP

    def test_merge(self):
        a = SuiteReport("a")
        a.cases = 2
        b = SuiteReport("b")
        b.cases = 3
        b.add_failure("oops")
        b.details["k"] = 1
        a.merge(b)
        assert a.cases == 5
        assert a.failure_count == 1
        assert a.failures == ["oops"]
        assert a.details == {"b": {"k": 1}}


class TestDispatch:
    def test_registry_names(self):
        assert "formula" in SUITES and "conservation" in SUITES
        assert len(SUITES) == 13

    @pytest.mark.parametrize("name", SUITES)
    def test_signature_is_the_suite_contract(self, name):
        # keyword parameters among seed, trials and m, each with a default;
        # a suite draws on a generator exactly when it takes a trial count
        params = inspect.signature(SUITES[name]).parameters.values()
        names = {p.name for p in params}
        assert names <= {"seed", "trials", "m"}
        assert ("seed" in names) == ("trials" in names)
        for p in params:
            assert p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY), p
            assert p.default is not p.empty, p

    def test_run_suite_passes_seed_and_trials(self):
        direct = suite_leibniz(seed=99, trials=10)
        dispatched = run_suite("leibniz", seed=99, trials=10)
        assert dispatched.cases == direct.cases
        assert dispatched.passed

    def test_run_suite_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            run_suite("no-such-suite")

    def test_run_suite_refuses_what_the_suite_does_not_take(self):
        with pytest.raises(ValueError, match="^suite 'formula' takes no parameters; got seed$"):
            run_suite("formula", seed=1)
        with pytest.raises(ValueError, match="^suite 'two-one-family' takes m; got trials$"):
            run_suite("two-one-family", trials=5)
        with pytest.raises(ValueError, match="^suite 'leibniz' takes seed and trials; got m$"):
            run_suite("leibniz", seed=1, m=3)

    def test_run_suite_m_runs_the_family_check(self):
        assert run_suite("assigner-tie", m=3) == verify_first_move_tie(3)
        assert run_suite("two-one-family", m=4) == suite_two_one_family(4)
        assert run_suite("assigner-tie").suite == "assigner-tie"

    @pytest.mark.parametrize("kwargs", [
        {"name": "leibniz", "m": 3},
        {"name": "assigner-tie", "m": 3, "seed": 1},
        {"name": "two-one-family", "m": 4, "trials": 5},
    ])
    def test_run_suite_rejects_misplaced_m(self, kwargs):
        with pytest.raises(ValueError):
            run_suite(**kwargs)

    def test_run_suite_rejects_trials_below_one(self):
        for trials in (0, -1):
            with pytest.raises(ValueError, match=f"got {trials}"):
                run_suite("conservation", trials=trials)

    def test_seeds_reproduce_and_differ(self):
        first = suite_conservation(seed=7, trials=5)
        second = suite_conservation(seed=7, trials=5)
        assert first.cases == second.cases
        assert first.passed and second.passed


class TestBallSuites:
    def test_reformulation_reports_lost_structure(self, monkeypatch):
        # A graph with no comparisons rebuilds only each n's start state.
        monkeypatch.setattr(verify, "_graph_for_state", lambda n, state: QuestionGraph(n))
        report = suite_reformulation(trials=1)
        states = report.details["states"]
        assert states == {1: 1, 2: 3, 3: 11, 4: 49, 5: 257, 6: 1539, 7: 10299}
        assert report.failure_count == sum(states.values()) - len(states)
        assert report.failures[0] == "n=2: graph reconstruction lost structure"

    def test_reformulation_reports_an_overmerged_rebuild(self, monkeypatch):
        # A graph of one all-SAME component matches one state per n; the other
        # states are reported, not a KeyError on a root the graph merged away.
        def merged(n, state):
            g = QuestionGraph(n)
            for ball in range(2, n + 1):
                g.add_comparison(1, ball, BallAnswer.SAME)
            return g

        monkeypatch.setattr(verify, "_graph_for_state", merged)
        report = suite_reformulation(trials=1)
        states = report.details["states"]
        assert report.failure_count == sum(states.values()) - len(states)
        assert report.failures[0] == "n=2: graph reconstruction lost structure"


class TestReformulationCatchesFaults:
    """Each fault planted in what the suite checks must show as its own failures."""

    def _failures(self, monkeypatch, target, name, fake):
        monkeypatch.setattr(target, name, fake)
        report = suite_reformulation(trials=50)
        assert report.failure_count > 0
        return report.failures

    def test_flipped_choice(self, monkeypatch):
        real = verify.induced_move_and_choice

        def flipped(g, i, j, answer):
            pair, choice = real(g, i, j, answer)
            other = AssignerChoice.MINUS if choice is AssignerChoice.PLUS else AssignerChoice.PLUS
            return pair, other

        failures = self._failures(monkeypatch, verify, "induced_move_and_choice", flipped)
        assert all(" disagrees with pair " in failure for failure in failures)

    def test_inverted_forced_answer(self, monkeypatch):
        real = QuestionGraph.forced_answer

        def inverted(g, i, j):
            forced = real(g, i, j)
            return BallAnswer.DIFFERENT if forced is BallAnswer.SAME else BallAnswer.SAME

        failures = self._failures(monkeypatch, QuestionGraph, "forced_answer", inverted)
        assert all(" disagrees with sides" in failure for failure in failures)

    def test_text_import_drops_the_last_record(self, monkeypatch):
        real = verify.import_transcript

        def lossy(text):
            return real("".join(text.splitlines(keepends=True)[:-1]))

        failures = self._failures(monkeypatch, verify, "import_transcript", lossy)
        assert all(failure.endswith(": transcript round-trip mismatch") for failure in failures)

    def test_json_import_drops_the_last_record(self, monkeypatch):
        real = verify.import_transcript_json

        def lossy(blob):
            payload = json.loads(blob)
            payload["comparisons"].pop()
            return real(json.dumps(payload))

        failures = self._failures(monkeypatch, verify, "import_transcript_json", lossy)
        assert all(failure.endswith(": transcript round-trip mismatch") for failure in failures)

    def test_identification_never_announces(self, monkeypatch):
        failures = self._failures(
            monkeypatch, verify, "identify_majority", lambda g, params: None)
        assert all(": announced None, colouring oracle says " in failure for failure in failures)


class TestSplitLawCatchesFaults:
    """An enumeration oracle off by one at one order shows only at that order."""

    @staticmethod
    def _off_by_one_at(monkeypatch, bad_order):
        real = verify.signed_count_recursive
        monkeypatch.setattr(verify, "signed_count_recursive",
                            lambda M, e, order: real(M, e, order) + (order == bad_order))

    def test_iterated_names_only_the_faulty_order(self, monkeypatch):
        self._off_by_one_at(monkeypatch, 2)
        report = suite_conservation_iterated(trials=50)
        assert report.failure_count > 0
        assert all(" order=2: closed " in failure for failure in report.failures)

    def test_plain_conservation_asks_the_oracle(self, monkeypatch):
        self._off_by_one_at(monkeypatch, 1)
        report = suite_conservation(trials=50)
        assert report.failure_count > 0
        assert all(" order=1: closed " in failure for failure in report.failures)


class TestPotentialAgainstValues:
    def test_domination_small_games(self):
        for n in range(1, 9):
            for k in range(n // 2 + 1, n + 1):
                report = verify_potential_dominates(GameParams(n, k))
                assert report.passed, report.failures[:3]
                assert report.cases > 0

    def test_zero_slack_somewhere(self):
        # the start position itself is tight: potential = e + binary_weight(s)
        report = verify_potential_dominates(GameParams(7, 4))
        assert report.details["min_slack"] == 0


class TestNamedFamilies:
    def test_two_one_family_closed_form(self):
        assert two_one_family_potential(1) == INFINITE
        assert two_one_family_potential(2) == 2
        assert two_one_family_potential(3) == 4
        assert two_one_family_potential(4) == 2
        assert two_one_family_potential(5) == 5
        report = suite_two_one_family(24)
        assert report.passed, report.failures[:3]

    def test_direct_potential_agreement(self):
        for m in (1, 2, 3, 4, 6, 8):
            M = Position((2,) + (1,) * (2 * m - 1))
            assert potential(M, 1) == two_one_family_potential(m), m

    def test_first_move_tie(self):
        for m in (3, 7):
            report = verify_first_move_tie(m)
            assert report.passed, report.failures[:3]
        with pytest.raises(ValueError):
            verify_first_move_tie(5)

    def test_first_move_tie_refuses_a_large_m_before_building(self):
        # At m = 4,000,003 three positions of 8M elements (about 300 MiB) were
        # built before the weight-count limit refused the first potential.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="total weight 4096, got 8000007"):
                verify_first_move_tie(4_000_003)
            assert tracemalloc.get_traced_memory()[1] / 2**20 < 1
        finally:
            tracemalloc.stop()
        with pytest.raises(ValueError, match="limited to total weight 4096, got 4103"):
            verify_first_move_tie(2051)
        assert verify_first_move_tie(2047).passed

    def test_first_move_tie_values_detail(self):
        report = verify_first_move_tie(3)
        values = report.details["values"]
        assert values["start"] == values["merged"] == values["cancelled"]


class TestAllSuites:
    """The all-suites path, run over a two-suite registry of fakes."""

    @pytest.fixture
    def fakes(self, monkeypatch):
        """Register a passing randomized suite and a failing fixed one.

        Each records its arguments and the stdout printed before it ran;
        the returned runner calls the CLI and returns (exit code, stdout).
        """
        calls = {}
        stdout = io.StringIO()

        def randomized(seed=0, trials=3):
            calls["randomized"] = {"seed": seed, "stdout": stdout.getvalue()}
            report = SuiteReport("randomized")
            report.cases = trials
            return report

        def fixed():
            calls["fixed"] = {"stdout": stdout.getvalue()}
            report = SuiteReport("fixed")
            report.cases = 2
            report.add_failure("witness")
            return report

        monkeypatch.setattr(verify, "SUITES", {"randomized": randomized, "fixed": fixed})

        def run(*argv):
            with contextlib.redirect_stdout(stdout):
                return main(list(argv)), stdout.getvalue()

        return calls, run

    def test_text_prints_each_summary_before_the_next_suite(self, fakes):
        calls, run = fakes
        code, out = run("verify")
        assert code == 1
        assert calls["fixed"]["stdout"] == "PASS randomized (cases=3)\n"
        assert out.splitlines() == [
            "PASS randomized (cases=3)",
            "FAIL fixed (cases=2, failures=1) first: witness",
            "1/2 suites passed",
        ]

    def test_json_lists_both_reports(self, fakes):
        _, run = fakes
        code, out = run("verify", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert [r["suite"] for r in payload["results"]] == ["randomized", "fixed"]
        assert [r["passed"] for r in payload["results"]] == [True, False]
        assert payload["failures"] == ["witness"]

    def test_csv_lists_both_reports(self, fakes):
        _, run = fakes
        code, out = run("verify", "--format", "csv")
        assert code == 1
        assert out.splitlines() == [
            "suite,cases,failures,status", "randomized,3,0,pass", "fixed,2,1,fail"]

    def test_seed_reaches_only_the_randomized_suite(self, fakes):
        calls, run = fakes
        assert run("verify", "--seed", "5", "--format", "json")[0] == 1
        assert calls["randomized"]["seed"] == 5
        del calls["fixed"]
        reports = list(iter_suites(seed=9))
        assert [r.suite for r in reports] == ["randomized", "fixed"]
        assert calls["randomized"]["seed"] == 9
        assert "fixed" in calls


def test_root_iter_suites_yields_the_13_reports_in_registry_order(monkeypatch):
    # each suite is stood in for by a stub with its signature, so none runs its checks
    seeds = {}

    def stub(name, suite):
        def run(**given):
            seeds[name] = given.get("seed")
            return SuiteReport(name)
        run.__signature__ = inspect.signature(suite)
        return run

    stubs = {name: stub(name, suite) for name, suite in SUITES.items()}
    monkeypatch.setattr(verify, "SUITES", stubs)
    reports = list(majoritygame.iter_suites(seed=9))
    assert len(reports) == 13
    assert [r.suite for r in reports] == list(SUITES)
    assert seeds == {name: 9 if "seed" in inspect.signature(suite).parameters else None
                     for name, suite in SUITES.items()}
