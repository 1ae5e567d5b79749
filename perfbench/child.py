"""One pass of a workload in a fresh interpreter.

Run as ``python3 child.py '<spec json>'`` with ``src`` on PYTHONPATH.
The spec holds the ops (argv lists for ``majoritygame.cli.main``), the
expected case count of each, and the mode: ``setup`` stops once the CLI
is imported, ``pass`` times every op, ``trace`` times them under the
tracer and writes the trace file.  Every mode then samples the host's
speed (``calibrate.py``): once right after set-up, and while a ``pass``
runs, on a timer, so that each op's wall time is also given scaled to
the reference host.  A ``trace`` pass samples between ops instead, so
that no sample lands inside a traced span.  Outputs are checked after
the timed region.  One JSON line on stdout carries the result; the
CLI's own output is captured and never reaches it.
"""

import contextlib
import io
import json
import sys
import time

spec = json.loads(sys.argv[1])
import_start = time.perf_counter()
import majoritygame.cli as cli  # noqa: E402

imported = time.perf_counter()
ops = [list(argv) for argv in spec["ops"]]
ready = time.perf_counter()
record = {"ready": ready, "import_s": imported - import_start}

import calibrate  # noqa: E402  (benchmark code, loaded after the set-up clock stopped)


def run_ops(sampler, tracer=None):
    """Run every op once; returns (argv, rc, stdout, busy, scaled, traced deltas) per op.

    With a ``sampler`` the timer samples the host's speed during each op;
    without one, spot samples before and after each op stand in for it.
    """
    results = []
    spot = None if sampler else calibrate.speed()
    for argv in ops:
        buf = io.StringIO()
        before = tracer.progress() if tracer else None
        mark = sampler.mark() if sampler else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the op failed; the gate records it
            rc = f"{type(exc).__name__}: {exc}"
        if sampler:
            busy, scaled, _ = sampler.span(mark)
        else:
            busy = time.perf_counter() - start
            after_spot = calibrate.speed()
            scaled = busy * (spot + after_spot) / 2
            spot = after_spot
        delta = None
        if tracer:
            after = tracer.progress()
            delta = {"table_entries": after[0] - before[0],
                     "layer_self_s": {layer: t - before[1].get(layer, 0.0)
                                      for layer, t in after[1].items()}}
        results.append((argv, rc, buf.getvalue(), busy, scaled, delta))
    return results


def main() -> None:
    mode = spec["mode"]
    record["setup_speed"] = calibrate.speed()
    tracer = None
    # The benchmark's own modules load only after the set-up clock stopped.
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if mode != "setup":
        sampler = calibrate.Sampler() if mode == "pass" else None
        if sampler:
            sampler.start()
        try:
            results = run_ops(sampler, tracer)
        finally:
            if sampler:
                sampler.stop()
        record["pass_raw_s"] = sum(result[3] for result in results)
        record["pass_s"] = sum(result[4] for result in results)
        record["speed"] = (sum(sampler.speeds) / len(sampler.speeds)
                           if sampler and sampler.speeds else record["setup_speed"])
        import resource

        record["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        from checks import check_op

        record["ops"] = []
        for (argv, rc, text, busy, scaled, delta), expected in zip(results, spec["expected"]):
            errors, cases = check_op(argv, rc, text, expected)
            record["ops"].append({"argv": argv, "raw_wall_s": busy, "wall_s": scaled,
                                  "errors": errors, "cases": cases, **(delta or {})})
    if tracer:
        tracer.uninstall()
        record["trace"] = tracer.as_json()
        record["trace"]["ops"] = [
            {key: op[key] for key in ("argv", "raw_wall_s", "wall_s", "table_entries",
                                      "layer_self_s")}
            for op in record.get("ops", ())]
        with open(spec["trace_out"], "w") as fh:
            json.dump(record["trace"], fh, indent=1)
            fh.write("\n")
    print(json.dumps(record))


main()
