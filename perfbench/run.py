"""Benchmark for the majoritygame CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve-deep [--seed N] [--seconds S] [--trace 0|1]

Each timed pass runs in a fresh interpreter (``child.py``) that imports
the package from this checkout's ``src/`` and calls
``majoritygame.cli.main(argv)`` once per op, one process at a time.
Timings are scaled to a reference host by the speed samples each child
takes (``calibrate.py``), because the shared hosts this runs on change
speed by up to 2x within seconds.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` adds a traced pass and reports the per-layer
metrics.  The metric names, units
and directions are those of ``BENCHMARK.json``.  The last line of
stdout is one JSON object; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import DEFAULT_SEED, EXPECTED_CASES, WORKLOADS  # noqa: E402

ROOT = HERE.parent

#: Hard cap on one run, below the 180 s a run is allowed.
RUN_LIMIT_S = 170.0
#: Setup-only interpreters started before each untraced pass, on top of the pass's own.
SETUP_SAMPLES = 3
#: Untraced passes every untraced run makes, however long they take.
MIN_PASSES = 2
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def metric_catalogue() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MAJORITY_ORACLE_MEMO_LIMIT", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Run:
    """The children of one benchmark run and the deadline they share."""

    def __init__(self, ops, seed, deadline):
        self.ops = ops
        self.expected = [workloads.expected_cases(argv, seed) for argv in ops]
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, mode: str, trace_out: Path | None = None) -> dict:
        spec = {"mode": mode, "ops": self.ops, "expected": self.expected,
                "trace_out": str(trace_out) if trace_out else None}
        cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError(f"run exceeded its {RUN_LIMIT_S:.0f} s limit")
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded the run limit") from None
        out = proc.stdout
        if proc.returncode != 0 or not out.strip():
            sys.stderr.write(proc.stderr)
            if mode == "setup":
                raise BenchError(f"setup child exited with {proc.returncode}")
            return {"crashed": proc.returncode, "ops": [
                {"argv": argv, "errors": [f"child exited with {proc.returncode}"],
                 "cases": None, "wall_s": None} for argv in self.ops]}
        record = json.loads(out.strip().splitlines()[-1])
        record["setup_raw_s"] = record["ready"] - start
        record["setup_s"] = record["setup_raw_s"] * record["setup_speed"]
        record["elapsed_s"] = time.perf_counter() - start
        return record


def passes_until(run: Run, window_end: float, minimum: int,
                 setup_samples: int = 0) -> tuple[list[dict], list[float]]:
    """At least ``minimum`` untraced passes, then more while one more fits in the window.

    Before each pass, ``setup_samples`` setup-only interpreters are timed,
    so that set-up is sampled across the whole window and not in one burst.
    Returns the pass records and every set-up time measured.
    """
    records, setups = [], []
    while True:
        setups += [run.spawn("setup")["setup_s"] for _ in range(setup_samples)]
        rec = run.spawn("pass")
        records.append(rec)
        if "crashed" in rec:
            break
        setups.append(rec["setup_s"])
        if len(records) >= minimum and time.perf_counter() + rec["elapsed_s"] > window_end:
            break
    return records, setups


def gate(records: list[dict]) -> tuple[int, int]:
    """Mark ops whose suite case counts differ across passes; return (attempted, failed)."""
    counts: dict[str, set] = {}
    for rec in records:
        for op in rec["ops"]:
            if op["cases"] is not None:
                counts.setdefault(workloads.op_label(op["argv"]), set()).add(op["cases"])
    attempted = failed = 0
    for rec in records:
        for op in rec["ops"]:
            label = workloads.op_label(op["argv"])
            if len(counts.get(label, ())) > 1:
                op["errors"].append(f"{label}: case counts differ across passes "
                                    f"{sorted(counts[label])}")
            attempted += 1
            failed += bool(op["errors"])
            for error in op["errors"]:
                print(f"FAILED {' '.join(op['argv'])}: {error}", file=sys.stderr)
    return attempted, failed


def median(values):
    return statistics.median(values) if values else 0.0


def tail_text(values: list[float]) -> str:
    """The highest percentile with at least TAIL_SAMPLES samples beyond it."""
    n = len(values)
    if n <= TAIL_SAMPLES:
        return f"median of {n}; no tail percentile below {TAIL_SAMPLES + 1} samples"
    pct = int(100 * (n - TAIL_SAMPLES) / n)
    value = sorted(values)[max(0, -(-pct * n // 100) - 1)]
    return f"median of {n}; p{pct} = {value:.4f} s"


def op_walls(records: list[dict]) -> dict[str, float]:
    """Median untraced wall per op label."""
    walls: dict[str, list[float]] = {}
    for rec in records:
        for op in rec["ops"]:
            if op["wall_s"] is not None:
                walls.setdefault(workloads.op_label(op["argv"]), []).append(op["wall_s"])
    return {label: median(values) for label, values in walls.items()}


def layer_metrics(traced: dict, untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one traced pass and the untraced passes beside it."""
    trace = traced["trace"]
    totals = trace["totals"]
    zero = (0, 0.0, 0.0, 0)

    def calls(name):
        return totals.get(name, zero)[0]

    def self_s(name):
        return totals.get(name, zero)[2]

    def extra(name):
        return totals.get(name, zero)[3]

    m = {"cli.import_s": traced["import_s"], "cli.main.self_s": self_s("cli.main")}
    for name in ("core.apply_move", "core.legal_moves", "solver.value",
                 "statistics.signed_count", "statistics.potential",
                 "statistics.signed_count_recursive", "statistics.signed_count_bruteforce",
                 "laurent.certificate_value", "laurent.mul", "laurent.hyperderivative",
                 "ballgame.components", "ballgame.weights", "ballgame.add_comparison",
                 "ballgame.side_status_table", "ballgame.identify_majority",
                 "ballgame.induced_move_and_choice"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["core.legal_moves.moves_out"] = extra("core.legal_moves")
    m["core.is_final.calls"] = calls("core.is_final")
    m["core.Position.new"] = calls("core.Position.new")
    m["statistics.subposition_weight_counts.calls"] = calls(
        "statistics.subposition_weight_counts")
    stats_names = [name for name in totals if name.startswith("statistics.")]
    stats_calls = sum(calls(name) for name in stats_names)
    m["statistics.repeat_ratio"] = (
        sum(extra(name) for name in stats_names) / stats_calls if stats_calls else 0.0)
    m["laurent.poly_new"] = calls("laurent.poly_new")
    m["ballgame.find.calls"] = calls("ballgame.find")
    m["ballgame.side_status_table.masks"] = extra("ballgame.side_status_table")
    m["ballgame.transcript_io.self_s"] = sum(
        self_s(f"ballgame.{io}") for io in ("export_transcript", "import_transcript",
                                             "export_transcript_json", "import_transcript_json"))
    m["ballgame.min_comparisons_ball_level.self_s"] = self_s(
        "ballgame.min_comparisons_ball_level")

    walls = op_walls(untraced)
    entries = sum(op["table_entries"] for op in traced["ops"])
    solving = {workloads.op_label(op["argv"]) for op in traced["ops"] if op["table_entries"]}
    solve_wall = sum(walls[label] for label in solving)
    m["solver.table_entries"] = entries
    m["solver.memo_hit_ratio"] = (
        (m["solver.value.calls"] - entries) / m["solver.value.calls"]
        if m["solver.value.calls"] else 0.0)
    m["solver.entries_per_s"] = entries / solve_wall if solve_wall else 0.0
    for label in ("solver.value_n29", "solver.value_n28", "solver.table"):
        m[f"{label}.wall_s"] = walls.get(label, 0.0)
    cases = {workloads.op_label(op["argv"]): op["cases"] for op in traced["ops"]}
    for suite in EXPECTED_CASES:
        m[f"verify.{suite}.wall_s"] = walls.get(f"verify.{suite}", 0.0)
        m[f"verify.{suite}.cases"] = cases.get(f"verify.{suite}") or 0
    layers = trace["layer_self_s"]
    for layer in ("core", "solver", "statistics", "laurent", "ballgame", "verify"):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    m["trace.overhead_ratio"] = (
        traced["pass_s"] / median([rec["pass_s"] for rec in untraced]) - 1)
    m["pass.raw_wall_s"] = median([rec["pass_raw_s"] for rec in untraced])
    m["host.speed"] = median([rec["speed"] for rec in untraced])
    return m


def run_workload(name: str, ops: list[list[str]], seed: int, seconds: float,
                 trace: bool) -> dict:
    """One benchmark run of one workload; returns metric values and the gate tally."""
    started = time.perf_counter()
    run = Run(ops, seed, started + RUN_LIMIT_S)
    run.spawn("setup")  # warm-up: bytecode compilation stays out of setup_s
    window_end = time.perf_counter() + seconds
    result = {"name": name}
    if not trace:
        records, setups = passes_until(run, window_end, MIN_PASSES, SETUP_SAMPLES)
        ok = [rec for rec in records if "crashed" not in rec]
        walls = [rec["pass_s"] for rec in ok]
        raw = median([rec["pass_raw_s"] for rec in ok])
        result["values"] = {
            "setup_s": median(setups),
            "wall_ref_s": median(walls),
            "peak_rss_mib": median([rec["rss_mib"] for rec in ok]),
        }
        result["notes"] = {
            "setup_s": f"median of {len(setups)}",
            "wall_ref_s": f"{tail_text(walls)}; unscaled median {raw:.4f} s",
            "peak_rss_mib": f"median of {len(ok)}",
        }
    else:
        trace_dir = HERE / "out"
        trace_dir.mkdir(exist_ok=True)
        trace_out = trace_dir / f"trace-{name}-{seed}.json"
        records, _ = passes_until(run, time.perf_counter() + seconds / 2, 1)
        ok = [rec for rec in records if "crashed" not in rec]
        traced = run.spawn("trace", trace_out)
        records.append(traced)
        result["values"] = {}
        result["trace_file"] = str(trace_out.relative_to(ROOT))
        if ok and "crashed" not in traced:
            result["values"] = layer_metrics(traced, ok)
            result["skipped"] = traced["trace"]["skipped"]
            split = result["layer_self_s"] = {"all ops": traced["trace"]["layer_self_s"]}
            for op in traced["ops"]:
                group = split.setdefault(f"{op['argv'][0]} ops", {})
                for layer, spent in op["layer_self_s"].items():
                    group[layer] = group.get(layer, 0.0) + spent
    result["attempted"], result["failed"] = gate(records)
    result["seconds"] = time.perf_counter() - started
    return result


def emit(results: list[dict], trace: bool) -> dict:
    """Print the summary and return the final JSON object."""
    catalogue = metric_catalogue()
    declared = catalogue["per_layer" if trace else "end_to_end"]
    metrics = {}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['name']}."
        print(f"workload {r['name']}: {r['seconds']:.1f} s")
        if r["values"]:
            for metric in declared:
                value = r["values"][metric["name"]]
                metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
                note = r.get("notes", {}).get(metric["name"], "")
                print(f"  {metric['name']:<44} {value:>14.6g} {metric['unit']:<6} {note}")
        print(f"  {'fail_ratio':<44} {r['failed'] / r['attempted']:>14.6g} "
              f"{'':<6} {r['failed']}/{r['attempted']} ops failed")
        if trace:
            for group, split in r.get("layer_self_s", {}).items():
                total = sum(split.values()) or 1.0
                shares = ", ".join(f"{layer} {100 * t / total:.1f}%" for layer, t in
                                   sorted(split.items(), key=lambda kv: -kv[1]) if t > 0)
                print(f"  self time by layer, {group}: {shares}")
            print(f"  trace file: {r['trace_file']}; skipped targets: {r.get('skipped')}")
    complete = all(r["values"] for r in results)
    return {"correct": failed == 0 and complete, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "majoritygame" / "cli.py").is_file():
        print(f"no majoritygame package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, workloads.build(name, args.seed), args.seed,
                                args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(emit(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
