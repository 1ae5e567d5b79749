"""Command-line interface: formats, exit codes, determinism, play."""

import io
import json
import re

import pytest

from majoritygame.cli import main
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
        assert "seed and trials do not apply" in err

    def test_trials_without_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--trials", "5")
        assert code == 2

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


class TestPlay:
    def test_selector_completes(self, capsys, monkeypatch, tmp_path):
        out_file = tmp_path / "game.txt"
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n"))
        code, out, _ = run_cli(
            capsys, "play", "--n", "5", "--k", "4", "--out", str(out_file))
        assert code == 0
        assert "majority ball: 3 after 1 comparisons" in out
        assert out_file.read_text() == "5 4\n1 2 different\n"

    def test_selector_eof_aborts(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out, _ = run_cli(capsys, "play", "--n", "5", "--k", "3")
        assert code == 1
        assert "aborted" in out

    def test_selector_recovers_from_bad_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("7 9\nnope\n1 2\n"))
        code, out, _ = run_cli(capsys, "play", "--n", "5", "--k", "4")
        assert code == 0
        assert "bad comparison" in out
        assert "enter two ball numbers" in out

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
