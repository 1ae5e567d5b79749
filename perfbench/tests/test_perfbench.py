"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import gc
import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
TINY = [["value", "--n", "9", "--k", "5", "--format", "json"]]


def declared(kind):
    return [metric["name"] for metric in run.metric_catalogue()[kind]]


def test_metric_names_are_valid_and_unique():
    names = declared("end_to_end") + declared("per_layer")
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in declared("end_to_end")


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_declared_name(trace):
    result = run.run_workload("smoke", TINY, workloads.DEFAULT_SEED, 0, trace)
    out = run.emit([result], trace)
    kind = "per_layer" if trace else "end_to_end"
    assert set(out["metrics"]) == set(declared(kind))
    assert set(result["values"]) == set(declared(kind))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    if trace:
        assert result["skipped"] == []
        assert out["metrics"]["solver.value.calls"]["value"] > 0


def test_self_times_of_nested_calls_sum_to_root_inclusive():
    tr = tracer_mod.Tracer()

    def leaf():
        time.sleep(0.002)

    def rec(depth):
        time.sleep(0.001)
        if depth:
            rec_w(depth - 1)
        leaf_w()

    leaf_w = tr.timed("leaf", leaf)
    rec_w = tr.timed("rec", rec)
    root = tr.timed("root", lambda: (rec_w(3), leaf_w()))
    root()
    calls, incl, _, _ = tr.totals("root")
    assert calls == 1
    total_self = sum(agg[2] for agg in tr.spans.values())
    assert total_self == pytest.approx(incl, rel=1e-9, abs=1e-12)
    rec_calls, rec_incl, rec_self, _ = tr.totals("rec")
    assert rec_calls == 4
    # inclusive time counts only the outermost recursive frame
    assert rec_incl < incl and rec_incl >= rec_self
    assert tr.calls_under("leaf", "rec") == 4 and tr.calls_under("leaf", "root") == 1


def test_sampler_scales_a_span_by_the_speed_sampled_inside_it():
    sampler = calibrate.Sampler()
    previous = signal.getsignal(signal.SIGALRM)
    sampler.start()
    try:
        mark = sampler.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
        busy, scaled, samples = sampler.span(mark)
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == previous
    assert samples == len(sampler.speeds) >= 5
    assert sampler.spent > 0 and 0 < busy < time.perf_counter() - start
    assert scaled == pytest.approx(busy * sum(sampler.speeds) / samples)


def test_sampler_span_without_samples_uses_the_earlier_ones():
    sampler = calibrate.Sampler()
    sampler.speeds = [2.0, 4.0]
    busy, scaled, samples = sampler.span(sampler.mark())
    assert samples == 0 and scaled == pytest.approx(3.0 * busy)


def test_kernel_allocates_no_container_objects():
    calibrate.kernel()
    gc.disable()
    try:
        before = gc.get_count()
        calibrate.kernel()
        assert gc.get_count() == before
    finally:
        gc.enable()


def test_tracer_rebinds_every_binding_and_restores_them():
    import majoritygame.cli  # noqa: F401
    from majoritygame import core, solver, verify

    orig = core.apply_move
    suite = verify.SUITES["formula"]
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert solver.apply_move is core.apply_move is not orig
        assert verify.SUITES["formula"] is not suite
        assert tr.skipped == []
    finally:
        tr.uninstall()
    assert solver.apply_move is core.apply_move is orig
    assert verify.SUITES["formula"] is suite


def test_tracer_skips_a_renamed_target(monkeypatch):
    import majoritygame.cli  # noqa: F401

    real = tracer_mod.targets
    monkeypatch.setattr(tracer_mod, "targets", lambda: real() + [
        ("core", "core.gone", "core", "no_such_function", tracer_mod.TIMED, None)])
    tr = tracer_mod.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.skipped == ["core.gone"]


def test_wrong_output_counts_as_failed_op():
    argv = TINY[0]
    good = {"results": {"n": 9, "k": 5, "value": 2, "comparisons": 7}, "failures": []}
    assert checks.check_op(argv, 0, json.dumps(good)) == ([], None)
    wrong = dict(good, results=dict(good["results"], comparisons=6, value=3))
    errors, _ = checks.check_op(argv, 0, json.dumps(wrong))
    assert errors
    assert checks.check_op(argv, 0, "not json")[0]
    assert checks.check_op(argv, 1, json.dumps(good))[0]
    records = [{"ops": [{"argv": argv, "errors": errors, "cases": None, "wall_s": 0.1}]},
               {"ops": [{"argv": argv, "errors": [], "cases": None, "wall_s": 0.1}]}]
    attempted, failed = run.gate(records)
    assert failed / attempted > 0


def test_suite_case_counts_must_repeat_across_passes():
    argv = workloads.suite_argv("reformulation", 5)
    assert workloads.expected_cases(argv, 5) is None
    assert workloads.expected_cases(argv, workloads.DEFAULT_SEED) == 133255
    records = [{"ops": [{"argv": argv, "errors": [], "cases": c, "wall_s": 1.0}]}
               for c in (100, 101)]
    assert run.gate(records) == (2, 2)


def test_workload_totals_match_recorded_case_counts():
    def total(workload):
        return sum(workloads.EXPECTED_CASES[argv[2]]
                   for argv in workloads.build(workload, workloads.DEFAULT_SEED)
                   if argv[0] == "verify")
    assert total("weights-sweep") == 139003
    assert total("balls-verify") == 133371
    baseline = json.loads((BENCH / "baseline.json").read_text())
    assert baseline["expected_cases_at_default_seed"] == {
        "weights-sweep": 139003, "balls-verify": 133371}


def test_refuses_to_run_without_the_package():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

