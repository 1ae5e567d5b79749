"""Command-line interface: tables, values, statistics, verification, play.

All output is deterministic for fixed arguments: no timestamps, no
machine-dependent fields, and JSON with a stable key order.  Each command
builds its JSON results, text lines and csv rows once and hands them to
one emitter, ``_emit``, which prints the form ``--format`` asks for; only
``play``'s dialogue, ``verify``'s streamed text summaries and the
``value --stats`` counters on stderr are printed outside it.  Exit codes
are 0 for success, 1 for failed verification or an aborted game, and 2
for invalid usage or arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .ballgame import (
    BallAnswer,
    QuestionGraph,
    ball_assigner,
    ball_selector,
    export_transcript,
    identify_majority,
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
from .solver import (Assigner, GameSolver, MemoLimitExceeded, Selector, formula_comparisons,
                     solved_starts)
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


def _emit(fmt: str, command: str, params: dict, results: dict | list, failures: list[str],
          text: list[str], rows: list[list]) -> None:
    """Print one command's output: its JSON envelope, its csv rows or its text lines."""
    if fmt == "json":
        payload = {"command": command, "params": params, "results": results, "failures": failures}
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        print(*text, sep="\n")


# ---------------------------------------------------------------------------
# table


def cmd_table(args: argparse.Namespace) -> int:
    results = []
    failures = []
    text = [f"{'n':>3} {'k':>3} {'d':>3} {'comparisons':>12} {'formula':>8}  match"]
    rows = [["n", "k", "d", "comparisons", "formula", "match"]]
    for params, comparisons in solved_starts(args.max_n):
        n, k = params.n, params.k
        expected = formula_comparisons(params)
        match = comparisons == expected
        results.append({
            "n": n, "k": k, "d": n - k,
            "comparisons": comparisons, "formula": expected, "match": match,
        })
        text.append(f"{n:>3} {k:>3} {n - k:>3} {comparisons:>12} {expected:>8}  "
                    f"{'yes' if match else 'NO'}")
        rows.append([n, k, n - k, comparisons, expected, "yes" if match else "no"])
        if not match:
            failures.append(f"n={n} k={k}: solved {comparisons} != formula {expected}")
    _emit(args.format, "table", {"max_n": args.max_n}, results, failures, text, rows)
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
    pot = potential(M, e)
    fields = [("position", str(M)), ("e", e), ("final", final), ("value", val),
              ("comparisons", len(M) - val), ("potential", _valuation_text(pot))]
    if params is not None:
        fields += [("n", params.n), ("k", params.k), ("formula", formula_comparisons(params))]
    shown = dict(fields, final="yes" if final else "no")
    _emit(args.format, "value", {"position": str(M), "e": e},
          dict(fields, potential=_valuation_json(pot)), [],
          [f"{key}: {value}" for key, value in shown.items() if key not in ("n", "k")],
          [["field", "value"], *fields])
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
    results = {
        "position": str(M),
        "e": e,
        "total": M.total,
        "capacity": capacity,
        "weight_counts": list(counts),
        "signed_counts": {str(order): value for order, value in signed.items()},
        "valuation": _valuation_json(two_adic_valuation(signed[max_order])),
    }
    fields = [("position", "position", M), ("e", "e", e), ("total", "total", M.total),
              ("capacity", "capacity", capacity),
              ("weight_counts", "weight counts", " ".join(map(str, counts)))]
    fields += [(f"signed_count_{order}", f"signed count (order {order})", value)
               for order, value in signed.items()]
    if pot is not None:
        results["potential"] = _valuation_json(pot)
        fields.append(("potential", "potential", _valuation_text(pot)))
    _emit(args.format, "stats", {"position": str(M), "e": e, "max_order": max_order}, results,
          [], [f"{label}: {value}" for _, label, value in fields],
          [["field", "value"], *[(field, value) for field, _, value in fields]])
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
    rows = [["suite", "cases", "failures", "status"]]
    rows += [[report.suite, report.cases, report.failure_count,
              "pass" if report.passed else "fail"] for report in reports]
    _emit(args.format, "verify", params, results,
          [w for report in reports for w in report.failures], [], rows)
    return 0 if all(report.passed for report in reports) else 1


# ---------------------------------------------------------------------------
# play


def _read_line(prompt: str) -> str | None:
    """One stripped input line, or None after reporting the abort at end of input."""
    print(prompt, end="", flush=True)
    line = sys.stdin.readline()
    if line == "":
        print("\naborted")
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


def _play_balls(g: QuestionGraph, params: GameParams, role: str, selector: Selector,
                assigner: Assigner) -> int:
    """Play on g until the majority ball is known; g keeps every comparison made."""
    select, answer_for = ball_selector(selector), ball_assigner(assigner)
    print(f"n={params.n} balls, majority threshold k={params.k}; "
          f"optimal play needs {formula_comparisons(params)} comparisons")
    while True:
        ball = identify_majority(g, params)
        if ball is not None:
            print(f"majority ball: {ball} after {len(g.history)} comparisons")
            return 0
        print(f"components: {_describe_components(g)}   weights: {g.weights()}")
        if role == "selector":
            line = _read_line("compare i j> ")
            if line is None:
                return 1
            fields = line.split()
            if len(fields) != 2:
                print("enter two ball numbers, e.g. '1 2'")
                continue
            try:
                i, j = int(fields[0]), int(fields[1])
                forced = g.forced_answer(i, j)
            except ValueError as exc:
                print(f"bad comparison: {exc}")
                continue
            if forced is not None:
                answer = forced
                note = " (already forced)"
            else:  # a solve too deep to finish ends the session with exit 2
                answer = answer_for(g, i, j)
                note = ""
            g.add_comparison(i, j, answer)
            print(f"balls {i} and {j}: {answer.value}{note}")
        else:
            i, j = select(g)
            line = _read_line(f"are balls {i} and {j} the same colour? [same/different] ")
            if line is None:
                return 1
            word = line.lower()
            if word in ("same", "s"):
                answer = BallAnswer.SAME
            elif word in ("different", "d"):
                answer = BallAnswer.DIFFERENT
            else:
                print("answer 'same' or 'different'")
                continue
            g.add_comparison(i, j, answer)
            print(f"recorded: balls {i} and {j} are {answer.value}")


def _play_weights(params: GameParams, role: str, selector: Selector, assigner: Assigner) -> int:
    M = start_position(params)
    e = params.e
    comparisons = 0
    print(f"excess e={e}; optimal play needs {formula_comparisons(params)} comparisons")
    while not is_final(M, e):
        print(f"position: {M}")
        if role == "selector":
            line = _read_line("select w w'> ")
            if line is None:
                return 1
            fields = line.split()
            if len(fields) != 2:
                print("enter two weights, e.g. '1 1'")
                continue
            try:
                pair = move_for_pair(M, int(fields[0]), int(fields[1]))
            except ValueError as exc:
                print(f"bad selection: {exc}")
                continue
            choice = assigner(M, pair)
            print(f"assigner replies {choice.value} on ({pair[0]},{pair[1]})")
        else:
            pair = selector(M)
            line = _read_line(f"selected pair {pair}; reply [+/-] ")
            if line is None:
                return 1
            if line == "+":
                choice = AssignerChoice.PLUS
            elif line == "-":
                choice = AssignerChoice.MINUS
            else:
                print("reply '+' or '-'")
                continue
        M = apply_move(M, pair, choice)
        comparisons += 1
    print(f"final position: {M} ({len(M)} components) after {comparisons} comparisons")
    return 0


def cmd_play(args: argparse.Namespace) -> int:
    params = _game(args)
    if args.adversary is not None and args.role == "assigner":
        raise ValueError("--adversary sets the engine's answers to a selector; "
                         "with --role assigner the engine selects")
    solver = GameSolver(params.e)
    assigner = solver.potential_reply if args.adversary == "potential" else solver.assigner_reply
    if args.level == "weights":
        if args.out is not None:
            raise ValueError("--out records ball-level transcripts; use --level balls")
        return _play_weights(params, args.role, solver.selector_move, assigner)
    g = QuestionGraph(params.n)
    if args.out is None:
        return _play_balls(g, params, args.role, solver.selector_move, assigner)
    try:  # before the first prompt, so an unwritable path costs no game
        handle = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write the transcript to {args.out}: {exc.strerror}") from None
    with handle:
        try:  # a session that ends in an error still records every comparison made
            code = _play_balls(g, params, args.role, solver.selector_move, assigner)
        finally:
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
    variation, final = GameSolver(e).solve(origin)
    steps = [(step, potential(step.position, e)) for step in variation]
    final_pot = potential(final, e)
    results = {
        "origin": str(origin),
        "e": e,
        "value": len(final),
        "comparisons": len(variation),
        "steps": [
            {
                "position": str(step.position),
                "potential": _valuation_json(pot),
                "pair": list(step.pair),
                "choice": step.choice.value,
            }
            for step, pot in steps
        ],
        "final": {
            "position": str(final),
            "potential": _valuation_json(final_pot),
            "size": len(final),
        },
    }
    text = [f"principal variation from {origin} at excess {e}:"]
    text += [f"step {idx}: {step.position}  potential={_valuation_text(pot)}  "
             f"select ({step.pair[0]},{step.pair[1]}) -> {step.choice.value}"
             for idx, (step, pot) in enumerate(steps)]
    text.append(f"final: {final}  potential={_valuation_text(final_pot)}  size={len(final)}")
    text.append(f"comparisons: {len(variation)}")
    if from_start:
        results["formula"] = formula_comparisons(params)
        text[-1] += f" (formula {results['formula']})"
    _emit(args.format, "trace", {"n": params.n, "k": params.k, "origin": str(origin)}, results,
          [], text, [])
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
