"""Command-line interface: tables, values, statistics, verification, play.

All output is deterministic for fixed arguments: no timestamps, no
machine-dependent fields, and JSON with a stable key order.  Exit codes
are 0 for success, 1 for failed verification or an aborted game, and 2
for invalid usage or arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import IO

from .ballgame import (
    BallAnswer,
    QuestionGraph,
    adversarial_answer,
    export_transcript,
    identify_majority,
    optimal_selector_comparison,
)
from .core import (
    PARSE_ELEMENT_LIMIT,
    AssignerChoice,
    GameParams,
    Position,
    apply_move,
    is_final,
    move_for_pair,
    start_position,
)
from .solver import GameSolver, MemoLimitExceeded, formula_comparisons, solved_starts
from .statistics import (
    INFINITE,
    potential,
    signed_count,
    subposition_weight_counts,
    two_adic_valuation,
)
from .verify import SUITES, iter_suites, run_suite


def _valuation_text(v) -> str:
    return "inf" if v == INFINITE else str(int(v))


def _valuation_json(v) -> dict:
    if v == INFINITE:
        return {"finite": False, "value": None}
    return {"finite": True, "value": int(v)}


def _emit_json(command: str, params: dict, results: dict | list, failures: list[str]) -> None:
    """Print the one JSON envelope every command uses."""
    payload = {"command": command, "params": params, "results": results, "failures": failures}
    print(json.dumps(payload, indent=2))


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


# ---------------------------------------------------------------------------
# table


def cmd_table(args: argparse.Namespace) -> int:
    rows = []
    failures = []
    for params, comparisons in solved_starts(args.max_n):
        n, k = params.n, params.k
        expected = formula_comparisons(params)
        match = comparisons == expected
        rows.append({
            "n": n, "k": k, "d": n - k,
            "comparisons": comparisons, "formula": expected, "match": match,
        })
        if not match:
            failures.append(f"n={n} k={k}: solved {comparisons} != formula {expected}")
    if args.format == "json":
        _emit_json("table", {"max_n": args.max_n}, rows, failures)
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["n", "k", "d", "comparisons", "formula", "match"])
        for row in rows:
            writer.writerow([row["n"], row["k"], row["d"], row["comparisons"],
                             row["formula"], "yes" if row["match"] else "no"])
    else:
        print(f"{'n':>3} {'k':>3} {'d':>3} {'comparisons':>12} {'formula':>8}  match")
        for row in rows:
            print(f"{row['n']:>3} {row['k']:>3} {row['d']:>3} "
                  f"{row['comparisons']:>12} {row['formula']:>8}  "
                  f"{'yes' if row['match'] else 'NO'}")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# value


def _game(args: argparse.Namespace) -> GameParams:
    """--n and --k, refused before anything is built past a --position literal's limit."""
    if args.n is None or args.k is None:
        raise ValueError(f"{args.command} needs --n and --k")
    if args.n > PARSE_ELEMENT_LIMIT:
        raise ValueError(f"--n is limited to {PARSE_ELEMENT_LIMIT} balls, got {args.n}")
    return GameParams(args.n, args.k)


def _position_and_excess(args: argparse.Namespace) -> tuple[Position, int, GameParams | None]:
    """Resolve --position with --e, or --n with --k for the game's start."""
    usage = "give either --position with --e, or --n with --k"
    if args.e is not None:
        if args.position is None or args.n is not None or args.k is not None:
            raise ValueError(usage)
        return Position.parse(args.position), args.e, None
    if args.n is None or args.k is None or args.position is not None:
        raise ValueError(usage)
    params = _game(args)
    return start_position(params), params.e, params


def cmd_value(args: argparse.Namespace) -> int:
    M, e, params = _position_and_excess(args)
    solver = GameSolver(e)
    final = is_final(M, e)
    val = solver.value(M)
    if args.stats:
        stats = solver.stats
        print(f"solver: entries={stats.entries} probes={stats.probes} hits={stats.hits}",
              file=sys.stderr)
    comparisons = len(M) - val
    pot = potential(M, e)
    result = {
        "position": str(M),
        "e": e,
        "final": final,
        "value": val,
        "comparisons": comparisons,
        "potential": _valuation_json(pot),
    }
    if params is not None:
        result["n"] = params.n
        result["k"] = params.k
        result["formula"] = formula_comparisons(params)
    if args.format == "json":
        _emit_json("value", {"position": str(M), "e": e}, result, [])
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["field", "value"])
        for key, value in result.items():
            if key == "potential":
                writer.writerow([key, _valuation_text(pot)])
            else:
                writer.writerow([key, value])
    else:
        print(f"position: {M}")
        print(f"e: {e}")
        print(f"final: {'yes' if final else 'no'}")
        print(f"value: {val}")
        print(f"comparisons: {comparisons}")
        print(f"potential: {_valuation_text(pot)}")
        if params is not None:
            print(f"formula: {result['formula']}")
    return 0


# ---------------------------------------------------------------------------
# stats


#: Most binomial terms ``stats`` may evaluate.  Each of its signed counts,
#: one per order up to --b, sums s + 1 big-integer terms (at least one),
#: where 2s + e is the total weight; a larger request exits 2 unrun.
STATS_TERM_LIMIT = 131_072


def cmd_stats(args: argparse.Namespace) -> int:
    if args.position is None or args.e is None:
        raise ValueError("stats needs --position and --e")
    M = Position.parse(args.position)
    e = args.e
    if e < 0 or (M.total - e) % 2 != 0:
        raise ValueError(f"excess {e} is invalid for total weight {M.total}")
    max_order = args.b if args.b is not None else max(e, 1)
    if max_order < 1:
        raise ValueError(f"the order must be at least 1, got {max_order}")
    capacity = (M.total - e) // 2
    terms = max_order * (max(capacity, 0) + 1)
    if terms > STATS_TERM_LIMIT:
        raise ValueError(f"orders 1..{max_order} need {terms} binomial terms, "
                         f"limited to {STATS_TERM_LIMIT}; lower --b")
    counts = subposition_weight_counts(M)
    signed = {order: signed_count(M, e, order) for order in range(1, max_order + 1)}
    pot = potential(M, e) if e >= 1 else None
    if args.format == "json":
        results = {
            "position": str(M),
            "e": e,
            "total": M.total,
            "capacity": capacity,
            "weight_counts": list(counts),
            "signed_counts": {str(order): value for order, value in signed.items()},
            "valuation": _valuation_json(two_adic_valuation(signed[max_order])),
        }
        if pot is not None:
            results["potential"] = _valuation_json(pot)
        _emit_json("stats", {"position": str(M), "e": e, "max_order": max_order}, results, [])
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["field", "value"])
        writer.writerow(["position", str(M)])
        writer.writerow(["e", e])
        writer.writerow(["total", M.total])
        writer.writerow(["capacity", capacity])
        writer.writerow(["weight_counts", " ".join(map(str, counts))])
        for order, value in signed.items():
            writer.writerow([f"signed_count_{order}", value])
        if pot is not None:
            writer.writerow(["potential", _valuation_text(pot)])
    else:
        print(f"position: {M}")
        print(f"e: {e}")
        print(f"total: {M.total}")
        print(f"capacity: {capacity}")
        print(f"weight counts: {' '.join(map(str, counts))}")
        for order, value in signed.items():
            print(f"signed count (order {order}): {value}")
        if pot is not None:
            print(f"potential: {_valuation_text(pot)}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite is not None:
        reports = [run_suite(args.suite, args.seed, args.trials, args.m)]
    elif args.trials is not None or args.m is not None:
        raise ValueError("--trials and --m need --suite; full runs use each suite's default")
    else:
        reports = iter_suites(args.seed)
    if args.format == "text":
        passed = total = 0
        for report in reports:
            print(report.summary(), flush=True)
            passed += report.passed
            total += 1
        print(f"{passed}/{total} suites passed")
        return 0 if passed == total else 1
    reports = list(reports)
    if args.format == "json":
        params = {"suite": args.suite, "seed": args.seed, "trials": args.trials, "m": args.m}
        results = [
            {
                "suite": report.suite,
                "cases": report.cases,
                "failures": report.failure_count,
                "passed": report.passed,
                "details": report.details,
            }
            for report in reports
        ]
        _emit_json("verify", params, results, [w for report in reports for w in report.failures])
    else:
        writer = _csv_writer()
        writer.writerow(["suite", "cases", "failures", "status"])
        for report in reports:
            writer.writerow([report.suite, report.cases, report.failure_count,
                             "pass" if report.passed else "fail"])
    return 0 if all(report.passed for report in reports) else 1


# ---------------------------------------------------------------------------
# play


def _read_line(prompt: str, in_stream: IO[str], out_stream: IO[str]) -> str | None:
    """One stripped input line, or None after reporting the abort at end of input."""
    print(prompt, end="", file=out_stream, flush=True)
    line = in_stream.readline()
    if line == "":
        print("\naborted", file=out_stream)
        return None
    return line.strip()


def _describe_components(g: QuestionGraph) -> str:
    parts = []
    for larger, smaller in g.components():
        inner = ",".join(map(str, larger))
        if smaller:
            inner += "|" + ",".join(map(str, smaller))
        parts.append("{" + inner + "}")
    return " ".join(parts)


def _play_balls(
    params: GameParams,
    role: str,
    adversary: str,
    in_stream: IO[str],
    out_stream: IO[str],
) -> tuple[int, QuestionGraph, int]:
    g = QuestionGraph(params.n)
    solver = GameSolver(params.e)
    comparisons = 0
    print(f"n={params.n} balls, majority threshold k={params.k}; "
          f"optimal play needs {formula_comparisons(params)} comparisons",
          file=out_stream)
    while True:
        ball = identify_majority(g, params)
        if ball is not None:
            print(f"majority ball: {ball} after {comparisons} comparisons",
                  file=out_stream)
            return 0, g, comparisons
        print(f"components: {_describe_components(g)}   weights: {g.weights()}",
              file=out_stream)
        if role == "selector":
            line = _read_line("compare i j> ", in_stream, out_stream)
            if line is None:
                return 1, g, comparisons
            fields = line.split()
            if len(fields) != 2:
                print("enter two ball numbers, e.g. '1 2'", file=out_stream)
                continue
            try:
                i, j = int(fields[0]), int(fields[1])
                forced = g.forced_answer(i, j)
            except ValueError as exc:
                print(f"bad comparison: {exc}", file=out_stream)
                continue
            if forced is not None:
                answer = forced
                note = " (already forced)"
            else:  # a solve too deep to finish ends the session with exit 2
                answer = adversarial_answer(g, i, j, params, solver, adversary)
                note = ""
            g.add_comparison(i, j, answer)
            comparisons += 1
            print(f"balls {i} and {j}: {answer.value}{note}", file=out_stream)
        else:
            i, j = optimal_selector_comparison(g, params, solver)
            line = _read_line(f"are balls {i} and {j} the same colour? [same/different] ",
                              in_stream, out_stream)
            if line is None:
                return 1, g, comparisons
            word = line.lower()
            if word in ("same", "s"):
                answer = BallAnswer.SAME
            elif word in ("different", "d"):
                answer = BallAnswer.DIFFERENT
            else:
                print("answer 'same' or 'different'", file=out_stream)
                continue
            g.add_comparison(i, j, answer)
            comparisons += 1
            print(f"recorded: balls {i} and {j} are {answer.value}", file=out_stream)


def _play_weights(
    params: GameParams,
    role: str,
    adversary: str,
    in_stream: IO[str],
    out_stream: IO[str],
) -> tuple[int, int]:
    M = start_position(params)
    e = params.e
    solver = GameSolver(e)
    comparisons = 0
    print(f"excess e={e}; optimal play needs {formula_comparisons(params)} comparisons",
          file=out_stream)
    while not is_final(M, e):
        print(f"position: {M}", file=out_stream)
        if role == "selector":
            line = _read_line("select w w'> ", in_stream, out_stream)
            if line is None:
                return 1, comparisons
            fields = line.split()
            if len(fields) != 2:
                print("enter two weights, e.g. '1 1'", file=out_stream)
                continue
            try:
                pair = move_for_pair(M, int(fields[0]), int(fields[1]))
            except ValueError as exc:
                print(f"bad selection: {exc}", file=out_stream)
                continue
            choice = solver.assigner_reply(M, pair, adversary)
            print(f"assigner replies {choice.value} on ({pair[0]},{pair[1]})", file=out_stream)
        else:
            pair = solver.selector_move(M)
            line = _read_line(f"selected pair {pair}; reply [+/-] ", in_stream, out_stream)
            if line is None:
                return 1, comparisons
            if line == "+":
                choice = AssignerChoice.PLUS
            elif line == "-":
                choice = AssignerChoice.MINUS
            else:
                print("reply '+' or '-'", file=out_stream)
                continue
        M = apply_move(M, pair, choice)
        comparisons += 1
    print(f"final position: {M} ({len(M)} components) after {comparisons} comparisons",
          file=out_stream)
    return 0, comparisons


def cmd_play(args: argparse.Namespace) -> int:
    params = _game(args)
    if args.adversary is not None and args.role == "assigner":
        raise ValueError("--adversary sets the engine's answers to a selector; "
                         "with --role assigner the engine selects")
    adversary = args.adversary if args.adversary is not None else "optimal"
    if args.level == "weights":
        if args.out is not None:
            raise ValueError("--out records ball-level transcripts; use --level balls")
        code, _ = _play_weights(params, args.role, adversary, sys.stdin, sys.stdout)
        return code
    if args.out is None:
        code, _, _ = _play_balls(params, args.role, adversary, sys.stdin, sys.stdout)
        return code
    try:  # before the first prompt, so an unwritable path costs no game
        handle = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write the transcript to {args.out}: {exc.strerror}") from None
    with handle:
        code, g, _ = _play_balls(params, args.role, adversary, sys.stdin, sys.stdout)
        handle.write(export_transcript(g, params))
    print(f"transcript written to {args.out}")
    return code


# ---------------------------------------------------------------------------
# trace


def cmd_trace(args: argparse.Namespace) -> int:
    params = _game(args)
    from_start = args.position is None
    origin = start_position(params) if from_start else Position.parse(args.position)
    # a weight-w component holds at least w balls, and a weight-0 one at least two
    balls = sum(w if w else 2 for w in origin.elements)
    if balls > params.n:
        raise ValueError(f"position {origin} needs at least {balls} balls, but --n is {params.n}")
    e = params.e
    result = GameSolver(e).solve(origin)
    comparisons = len(origin) - result.value
    if args.format == "json":
        payload_steps = []
        for step in result.principal_variation:
            payload_steps.append({
                "position": str(step.position),
                "potential": _valuation_json(potential(step.position, e)),
                "pair": list(step.pair),
                "choice": step.choice.value,
            })
        results = {
            "origin": str(origin),
            "e": e,
            "value": result.value,
            "comparisons": comparisons,
            "steps": payload_steps,
            "final": {
                "position": str(result.final_position),
                "potential": _valuation_json(potential(result.final_position, e)),
                "size": result.value,
            },
        }
        if from_start:
            results["formula"] = formula_comparisons(params)
        _emit_json("trace", {"n": params.n, "k": params.k, "origin": str(origin)}, results, [])
        return 0
    print(f"principal variation from {origin} at excess {e}:")
    for idx, step in enumerate(result.principal_variation):
        pot = potential(step.position, e)
        w, wp = step.pair
        print(f"step {idx}: {step.position}  potential={_valuation_text(pot)}  "
              f"select ({w},{wp}) -> {step.choice.value}")
    final_pot = potential(result.final_position, e)
    print(f"final: {result.final_position}  potential={_valuation_text(final_pot)}  "
          f"size={result.value}")
    line = f"comparisons: {comparisons}"
    if from_start:
        line += f" (formula {formula_comparisons(params)})"
    print(line)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majority-game",
        description="Exact analysis of the k-majority comparison game.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads", type=int, default=1, metavar="T",
        help="accepted for interface compatibility; execution is single-threaded "
             "and output does not depend on this value")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser(
        "table", parents=[common],
        help="comparison counts for all thresholds up to a ball count")
    p_table.add_argument("--max-n", type=int, default=12)
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.set_defaults(func=cmd_table)

    p_value = sub.add_parser(
        "value", parents=[common],
        help="exact game value of a position or a game's start")
    p_value.add_argument("--n", type=int)
    p_value.add_argument("--k", type=int)
    p_value.add_argument("--position", type=str)
    p_value.add_argument("--e", type=int)
    p_value.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_value.add_argument("--stats", action="store_true",
                         help="print the solver's work counters to stderr")
    p_value.set_defaults(func=cmd_value)

    p_stats = sub.add_parser(
        "stats", parents=[common],
        help="signed subposition counts and potential of a position")
    p_stats.add_argument("--position", type=str)
    p_stats.add_argument("--e", type=int)
    p_stats.add_argument("--b", type=int, metavar="ORDER",
                         help="highest signed-count order to report (default: e)")
    p_stats.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_stats.set_defaults(func=cmd_stats)

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="run the verification suites (all, or one by name)")
    p_verify.add_argument("--suite", choices=sorted(SUITES))
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--m", type=int,
                          help="family parameter for two-one-family / assigner-tie")
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_play = sub.add_parser(
        "play", parents=[common],
        help="play one side interactively against the engine")
    p_play.add_argument("--n", type=int)
    p_play.add_argument("--k", type=int)
    p_play.add_argument("--role", choices=("selector", "assigner"), default="selector")
    p_play.add_argument("--adversary", choices=("optimal", "potential"),
                        help="answering strategy used against a selector "
                             "(default optimal; not with --role assigner)")
    p_play.add_argument("--level", choices=("balls", "weights"), default="balls")
    p_play.add_argument("--out", type=str,
                        help="write the ball-level transcript to this file")
    p_play.set_defaults(func=cmd_play)

    p_trace = sub.add_parser(
        "trace", parents=[common],
        help="principal variation with running potentials")
    p_trace.add_argument("--n", type=int)
    p_trace.add_argument("--k", type=int)
    p_trace.add_argument("--position", type=str,
                         help="trace from this position instead of the start")
    p_trace.add_argument("--format", choices=("text", "json"), default="text")
    p_trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, MemoLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
