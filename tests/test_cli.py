"""Command-line interface: formats, exit codes, determinism, play."""

import io
import json
import re
import sys

import pytest

from majoritygame import solver, verify
from majoritygame.ballgame import BallAnswer, import_transcript
from majoritygame.cli import STATS_TERM_LIMIT, main
from majoritygame.core import PARSE_ELEMENT_LIMIT
from majoritygame.statistics import WEIGHT_LIMIT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_text(self, capsys):
        code, out, err = run_cli(capsys, "table", "--max-n", "6")
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert lines[0].split() == ["n", "k", "d", "comparisons", "formula", "match"]
        assert lines[-1].split() == ["6", "6", "0", "0", "0", "yes"]
        assert all(line.split()[-1] == "yes" for line in lines[1:])

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "table"
        assert payload["failures"] == []
        rows = payload["results"]
        assert {"n": 5, "k": 3, "d": 2, "comparisons": 3, "formula": 3,
                "match": True} in rows

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--max-n", "3", "--format", "csv")
        assert code == 0
        assert "\r" not in out
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,d,comparisons,formula,match"
        assert "3,2,1,1,1,yes" in lines

    @pytest.mark.parametrize("max_n", ["0", "-3", str(solver.TABLE_MAX_N + 1)])
    def test_max_n_outside_the_sweep_limits_exits_2(self, capsys, max_n):
        # an empty sweep would print the header alone and check nothing; past
        # the limit the sweep would outrun its time budget
        code, out, err = run_cli(capsys, "table", "--max-n", max_n)
        assert (code, out) == (2, "")
        assert f"from 1 to {solver.TABLE_MAX_N}, got {max_n}" in err


class TestValue:
    def test_game_start(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--n", "7", "--k", "4")
        assert code == 0
        assert "value: 3" in out
        assert "comparisons: 4" in out
        assert "formula: 4" in out
        assert "potential: 3" in out

    def test_explicit_position(self, capsys):
        code, out, _ = run_cli(
            capsys, "value", "--position", "[2,1]", "--e", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["final"] is True
        assert payload["results"]["value"] == 2
        assert payload["results"]["potential"] == {"finite": False, "value": None}

    def test_requires_coherent_arguments(self, capsys):
        code, _, err = run_cli(capsys, "value", "--position", "[1,1]")
        assert code == 2 and "error" in err
        code, _, err = run_cli(capsys, "value", "--n", "7")
        assert code == 2
        code, _, err = run_cli(
            capsys, "value", "--position", "[1,1,1]", "--e", "2")  # parity
        assert code == 2

    def test_excess_without_position_exits_2(self, capsys):
        # --e belongs with --position; with --n and --k it used to be ignored
        code, out, err = run_cli(capsys, "value", "--n", "5", "--k", "3", "--e", "3")
        assert code == 2
        assert out == ""
        assert "give either --position with --e, or --n with --k" in err
        code, out, _ = run_cli(capsys, "value", "--e", "3")
        assert (code, out) == (2, "")

    def test_position_with_n_and_k_exits_2(self, capsys):
        # the start's formula used to be printed next to the position's comparisons
        code, out, err = run_cli(capsys, "value", "--n", "3", "--k", "2", "--position", "[1^5]")
        assert code == 2
        assert out == ""
        assert "give either --position with --e, or --n with --k" in err

    def test_invalid_threshold_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "value", "--n", "6", "--k", "3")
        assert code == 2
        assert "majority" in err

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_stats_go_to_stderr_only(self, capsys, fmt):
        plain = run_cli(capsys, "value", "--n", "13", "--k", "7", "--format", fmt)
        code, out, err = run_cli(
            capsys, "value", "--n", "13", "--k", "7", "--format", fmt, "--stats")
        assert (code, out) == plain[:2]
        assert plain[2] == ""
        assert re.fullmatch(r"solver: entries=\d+ probes=\d+ hits=\d+\n", err)

    def test_position_too_deep_to_solve_exits_2(self, capsys):
        # the kernel recurses once per merge, past Python's recursion limit here
        code, out, err = run_cli(capsys, "value", "--position", "[1^1100]", "--e", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "1100 elements" in err
        assert "Traceback" not in err

    def test_many_elements_with_a_shallow_solve_still_succeed(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--n", "1500", "--k", "1499")
        assert code == 0
        assert out == ("position: [1^1500]\ne: 1498\nfinal: no\nvalue: 1499\n"
                       "comparisons: 1\npotential: 1499\nformula: 1\n")

    def test_solve_past_the_cap_exits_2(self, capsys, monkeypatch):
        # (13, 7) needs 59 entries; the cap is lowered instead of running a large n
        monkeypatch.setattr(solver, "MEMO_LIMIT", 50)
        code, out, err = run_cli(capsys, "value", "--n", "13", "--k", "7")
        assert (code, out) == (2, "")
        assert err == "error: solve table would exceed 50 entries\n"
        monkeypatch.setattr(solver, "MEMO_LIMIT", 59)
        code, out, _ = run_cli(capsys, "value", "--n", "13", "--k", "7")
        assert code == 0 and "comparisons: 10\n" in out

    def test_zeros_do_not_deepen_the_solve(self, capsys):
        # the kernel strips zeros before it recurses, so only [1^3] is searched
        code, out, _ = run_cli(capsys, "value", "--position", "[0^1000,1^3]", "--e", "1")
        assert code == 0
        assert "value: 1002\n" in out and "comparisons: 1\n" in out


class TestStats:
    def test_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--position", "[2,1^5]", "--e", "1", "--b", "2")
        assert code == 0
        assert "weight counts: 1 5 11 15 15 11 5 1" in out
        assert "signed count (order 1): -8" in out
        assert "signed count (order 2): -4" in out
        assert "potential: 4" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--position", "[3,1]", "--e", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        results = payload["results"]
        assert results["weight_counts"] == [1, 1, 0, 1, 1]
        assert results["signed_counts"] == {"1": 0, "2": 1}
        assert results["capacity"] == 1
        assert results["potential"] == {"finite": True, "value": 2}

    def test_infinite_potential_in_text(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--position", "[2,1]", "--e", "1")
        assert code == 0
        assert "potential: inf" in out

    def test_parity_mismatch_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--position", "[2,1]", "--e", "2")
        assert code == 2

    def test_total_weight_just_past_the_limit_exits_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--position", f"[{WEIGHT_LIMIT}]", "--e", "0", "--format", "csv")
        assert code == 0
        assert f"total,{WEIGHT_LIMIT}" in out
        code, out, err = run_cli(
            capsys, "stats", "--position", f"[{WEIGHT_LIMIT + 1}]", "--e", "1")
        assert code == 2
        assert out == ""
        assert f"limited to total weight {WEIGHT_LIMIT}" in err

    def test_term_count_just_past_the_limit_exits_2(self, capsys):
        # [4095] at e=1 has capacity s=2047: 64 orders of s+1 terms is the limit exactly
        assert STATS_TERM_LIMIT == 64 * 2048 == 131_072
        code, out, _ = run_cli(
            capsys, "stats", "--position", "[4095]", "--e", "1", "--b", "64")
        assert code == 0
        assert "signed count (order 64): " in out
        for position, order, terms in [("[4095]", 65, 65 * 2048), ("[5]", 43691, 131_073)]:
            code, out, err = run_cli(
                capsys, "stats", "--position", position, "--e", "1", "--b", str(order))
            assert code == 2
            assert out == ""
            assert f"need {terms} binomial terms, limited to {STATS_TERM_LIMIT}" in err

    def test_element_count_just_past_the_limit_exits_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--position", f"[0^{PARSE_ELEMENT_LIMIT}]", "--e", "0")
        assert code == 0
        assert f"weight counts: {2 ** PARSE_ELEMENT_LIMIT}" in out
        code, out, err = run_cli(
            capsys, "stats", "--position", f"[1,0^{PARSE_ELEMENT_LIMIT}]", "--e", "1")
        assert code == 2
        assert out == ""
        assert f"limited to {PARSE_ELEMENT_LIMIT} elements" in err


class TestVerify:
    def test_single_suite_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "leibniz", "--trials", "20")
        assert code == 0
        assert out.startswith("PASS leibniz")
        assert "1/1 suites passed" in out

    def test_single_suite_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "conservation", "--trials", "25",
            "--seed", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["suite"] == "conservation"
        assert payload["results"][0]["passed"] is True
        assert payload["results"][0]["details"]["pairs"] == 25

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "two-one-family", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "suite,cases,failures,status"
        assert lines[1] == "two-one-family,32,0,pass"

    def test_family_parameter(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "assigner-tie", "--m", "3")
        assert code == 0
        assert "assigner-tie(m=3)" in out
        code, _, err = run_cli(capsys, "verify", "--suite", "leibniz", "--m", "3")
        assert code == 2

    @pytest.mark.parametrize("suite, m", [
        ("two-one-family", "0"), ("two-one-family", "-4"), ("assigner-tie", "-1")])
    def test_family_parameter_below_one_exits_2(self, capsys, suite, m):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--m", m)
        assert code == 2
        assert out == ""
        assert f"got m={m}" in err

    @pytest.mark.parametrize("flag", [("--seed", "5"), ("--trials", "9")])
    def test_family_parameter_rejects_seed_and_trials(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "two-one-family", "--m", "3", *flag)
        assert code == 2
        assert out == ""
        assert f"suite 'two-one-family' takes m; got {flag[0][2:]}" in err

    @pytest.mark.parametrize("suite, trials", [
        ("conservation", "0"), ("reformulation", "-1"), ("reformulation", "100001")])
    def test_trials_outside_the_limits_exits_2(self, capsys, suite, trials):
        # no trials would check nothing and still print PASS; the limit keeps
        # a run within about 31 s
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--trials", trials)
        assert (code, out) == (2, "")
        assert f"trials must be from 1 to {verify.TRIALS_LIMIT}, got {trials}" in err

    def test_family_parameter_past_the_limit_exits_2(self, capsys, monkeypatch):
        past = verify.FAMILY_M_LIMIT + 1
        code, out, err = run_cli(capsys, "verify", "--suite", "two-one-family", "--m", str(past))
        assert (code, out) == (2, "")
        assert f"got m={past}" in err
        monkeypatch.setattr(verify, "FAMILY_M_LIMIT", 4)
        code, out, _ = run_cli(capsys, "verify", "--suite", "two-one-family", "--m", "4")
        assert (code, out) == (0, "PASS two-one-family (cases=4)\n1/1 suites passed\n")
        code, out, err = run_cli(capsys, "verify", "--suite", "two-one-family", "--m", "5")
        assert (code, out) == (2, "")
        assert "checked up to m=4" in err

    def test_trials_without_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--trials", "5")
        assert code == 2

    def test_m_without_suite_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--m", "3")
        assert (code, out) == (2, "")
        assert "need --suite" in err

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "nonsense"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_deterministic_json_output(self, capsys):
        args = ("verify", "--suite", "conservation", "--trials", "40",
                "--seed", "11", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestTrace:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "5", "--k", "3")
        assert code == 0
        assert "principal variation from [1^5]" in out
        assert "comparisons: 3 (formula 3)" in out
        assert out.count("step ") == 3

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--n", "7", "--k", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        results = payload["results"]
        assert results["comparisons"] == 4
        assert results["formula"] == 4
        assert len(results["steps"]) == 4
        assert results["steps"][0]["position"] == "[1^7]"
        assert results["final"]["size"] == results["value"]

    def test_from_position(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--n", "7", "--k", "4", "--position", "[2,1^3,0]")
        assert code == 0
        assert "formula" not in out

    @pytest.mark.parametrize("n, k, position, balls", [
        ("3", "2", "[1^5]", 5), ("3", "2", "[1,0,0]", 5), ("7", "4", "[2,1^5,0]", 9)])
    def test_position_with_more_balls_than_n_exits_2(self, capsys, n, k, position, balls):
        # each unit of weight needs a ball and each zero two: no n-ball game reaches these
        code, out, err = run_cli(capsys, "trace", "--n", n, "--k", k, "--position", position)
        assert code == 2
        assert out == ""
        assert f"needs at least {balls} balls, but --n is {n}" in err

    def test_position_with_exactly_n_balls_or_fewer_runs(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "9", "--k", "5", "--position", "[2,1^5,0]")
        assert code == 0
        assert out.endswith("comparisons: 3\n")
        code, out, _ = run_cli(capsys, "trace", "--n", "5", "--k", "3", "--position", "[1^3]")
        assert code == 0
        assert out.endswith("comparisons: 1\n")


class TestPlay:
    def test_selector_completes(self, capsys, monkeypatch, tmp_path):
        out_file = tmp_path / "game.txt"
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n"))
        code, out, _ = run_cli(
            capsys, "play", "--n", "5", "--k", "4", "--out", str(out_file))
        assert code == 0
        assert "majority ball: 3 after 1 comparisons" in out
        assert out_file.read_text() == "5 4\n1 2 different\n"

    @pytest.mark.parametrize("level", ["balls", "weights"])
    @pytest.mark.parametrize("role", ["selector", "assigner"])
    def test_eof_aborts(self, capsys, monkeypatch, level, role):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, _ = run_cli(capsys, "play", "--n", "5", "--k", "3",
                               "--level", level, "--role", role)
        assert code == 1
        assert out.endswith(" \naborted\n")  # the prompt, a newline, then the abort

    def test_unwritable_transcript_exits_2_before_the_first_prompt(
            self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n"))
        path = tmp_path / "missing" / "t.txt"
        code, out, err = run_cli(capsys, "play", "--n", "5", "--k", "4", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write the transcript to {path}: ")
        assert "Traceback" not in err
        assert sys.stdin.read() == "1 2\n"  # no move was read

    def test_selector_recovers_from_bad_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("7 9\nnope\n1 2\n"))
        code, out, _ = run_cli(capsys, "play", "--n", "5", "--k", "4")
        assert code == 0
        assert "bad comparison" in out
        assert "enter two ball numbers" in out

    def test_selector_against_a_solve_too_deep_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n"))
        code, out, err = run_cli(capsys, "play", "--n", "1101", "--k", "551")
        assert code == 2
        assert "bad comparison" not in out
        assert "too deep to solve" in err

    def test_transcript_survives_a_session_that_exits_2(self, capsys, monkeypatch, tmp_path):
        # (11, 6) outgrows a 44-entry table on the engine's third selection
        monkeypatch.setattr(solver, "MEMO_LIMIT", 44)
        monkeypatch.setattr("sys.stdin", io.StringIO("same\n" * 5))
        path = tmp_path / "t.txt"
        code, _, err = run_cli(capsys, "play", "--n", "11", "--k", "6", "--role", "assigner",
                               "--out", str(path))
        assert code == 2
        assert err == "error: solve table would exceed 44 entries\n"
        params, g = import_transcript(path.read_text())
        assert (params.n, params.k) == (11, 6)
        assert g.history == [(1, 2, BallAnswer.SAME), (3, 4, BallAnswer.SAME)]

    def test_assigner_role(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("same\nsame\nsame\n"))
        code, out, _ = run_cli(capsys, "play", "--n", "5", "--k", "4",
                               "--role", "assigner")
        assert code == 0
        assert "majority ball: 1 after 1 comparisons" in out

    @pytest.mark.parametrize("level", ["weights", "balls"])
    def test_assigner_role_rejects_adversary(self, capsys, level):
        code, out, err = run_cli(capsys, "play", "--n", "5", "--k", "3", "--level", level,
                                 "--role", "assigner", "--adversary", "potential")
        assert code == 2
        assert out == ""
        assert "--adversary" in err and "--role assigner" in err

    def test_weights_level(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n1 1\n2 2\n"))
        code, out, _ = run_cli(capsys, "play", "--n", "5", "--k", "3",
                               "--level", "weights")
        assert code == 0
        assert "final position" in out

    def test_weights_level_rejects_transcript(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "play", "--n", "5", "--k", "3", "--level", "weights",
            "--out", str(tmp_path / "t.txt"))
        assert code == 2


class TestBallCountLimit:
    @pytest.mark.parametrize("command", [
        ["value"], ["trace"], ["play", "--level", "balls"], ["play", "--level", "weights"]])
    @pytest.mark.parametrize("n", [PARSE_ELEMENT_LIMIT + 1, 10 ** 12])
    def test_n_past_the_element_limit_exits_2_before_building(self, capsys, command, n):
        # n = 10^12 would exhaust memory if a position or graph were built first
        code, out, err = run_cli(capsys, *command, "--n", str(n), "--k", str(n // 2 + 1))
        assert (code, out) == (2, "")
        assert f"--n is limited to {PARSE_ELEMENT_LIMIT} balls, got {n}" in err

    def test_n_at_the_element_limit_is_played(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        n = str(PARSE_ELEMENT_LIMIT)
        code, out, _ = run_cli(capsys, "play", "--n", n, "--k", n)
        assert code == 0
        assert f"n={n} balls, majority threshold k={n}" in out


class TestCommonFlags:
    def test_threads_accepted_and_ignored(self, capsys):
        base = run_cli(capsys, "table", "--max-n", "4")
        threaded = run_cli(capsys, "table", "--max-n", "4", "--threads", "8")
        assert base == threaded

    def test_threads_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "table", "--max-n", "4", "--threads", "0")
        assert code == 2
        assert "threads" in err

    def test_module_entry_point(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "majoritygame", "value", "--n", "5", "--k", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "comparisons: 1" in proc.stdout
