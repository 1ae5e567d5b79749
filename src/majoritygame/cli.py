"""Command-line interface: tables, values, statistics, verification, play.

All output is deterministic for fixed arguments: no timestamps, no
machine-dependent fields, and JSON with a stable key order.  Each command
builds its JSON results, text lines and csv rows once and hands them to
one emitter, ``_emit``, which prints the form ``--format`` asks for; only
``play``'s dialogue, ``verify``'s streamed text summaries and the
``value --stats`` counters on stderr are printed outside it.  Exit codes
are 0 for success, 1 for failed verification, an aborted game or a closed
stdout, and 2 for invalid usage or arguments.  One option table,
``COMMANDS``, declares each command and its options once; ``parse_args``
reads argv against it, and ``-h`` prints help written from it.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

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
        import csv  # imported here so that no other output pays to load it
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        print(*text, sep="\n")


# ---------------------------------------------------------------------------
# table


def cmd_table(args: SimpleNamespace) -> int:
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


def _game(args: SimpleNamespace) -> GameParams:
    """--n and --k, refused before anything is built past a --position literal's limit."""
    if args.n is None or args.k is None:
        raise ValueError(f"{args.command} needs --n and --k")
    if args.n > PARSE_ELEMENT_LIMIT:
        raise ValueError(f"--n is limited to {PARSE_ELEMENT_LIMIT} balls, got {args.n}")
    return GameParams(args.n, args.k)


def _position_and_excess(args: SimpleNamespace) -> tuple[Position, int, GameParams | None]:
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


def cmd_value(args: SimpleNamespace) -> int:
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


def cmd_stats(args: SimpleNamespace) -> int:
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


def cmd_verify(args: SimpleNamespace) -> int:
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
    results = [{"suite": report.suite, "cases": report.cases, "failures": report.failure_count,
                "passed": report.passed, "details": report.details} for report in reports]
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


def cmd_play(args: SimpleNamespace) -> int:
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


def cmd_trace(args: SimpleNamespace) -> int:
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
        "steps": [{"position": str(step.position), "potential": _valuation_json(pot),
                   "pair": list(step.pair), "choice": step.choice.value} for step, pot in steps],
        "final": {"position": str(final), "potential": _valuation_json(final_pot),
                  "size": len(final)},
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
# option table and parser

_FORMAT = ("--format", ("text", "json", "csv"), "text", "output form")
_GAME = [("--n", int, None, "ball count n"), ("--k", int, None, "majority threshold k")]
_THREADS = ("--threads", int, 1, "accepted and ignored: execution is single-threaded")

#: Each command once: its function, its one-line help and its options, each as
#: (flag, type or tuple of choices, default, help); a ``bool`` option is a switch.
COMMANDS = {
    "table": (cmd_table, "comparison counts for all thresholds up to a ball count", [
        ("--max-n", int, 12, "largest ball count n"), _FORMAT]),
    "value": (cmd_value, "exact game value of a position or a game's start", [
        *_GAME, ("--position", str, None, "position to solve, such as [2,1^3]"),
        ("--e", int, None, "excess of --position"), _FORMAT,
        ("--stats", bool, False, "print the solver's work counters to stderr")]),
    "stats": (cmd_stats, "signed subposition counts and potential of a position", [
        ("--position", str, None, "position, such as [2,1^5]"), ("--e", int, None, "excess"),
        ("--b", int, None, "highest signed-count order to report (default: e)"), _FORMAT]),
    "verify": (cmd_verify, "run the verification suites (all, or one by name)", [
        ("--suite", tuple(sorted(SUITES)), None, "the one suite to run"),
        ("--seed", int, None, "seed of the randomized suites"),
        ("--trials", int, None, "trials of a randomized suite"),
        ("--m", int, None, "family parameter for two-one-family / assigner-tie"), _FORMAT]),
    "play": (cmd_play, "play one side interactively against the engine", [
        *_GAME, ("--role", ("selector", "assigner"), "selector", "the side you play"),
        ("--adversary", ("optimal", "potential"), None, "answering strategy used against "
         "a selector (default optimal; not with --role assigner)"),
        ("--level", ("balls", "weights"), "balls", "play with balls or with weights"),
        ("--out", str, None, "write the ball-level transcript to this file")]),
    "trace": (cmd_trace, "principal variation with running potentials", [
        *_GAME, ("--position", str, None, "trace from this position instead of the start"),
        ("--format", ("text", "json"), "text", "output form")]),
}
_USAGE = "usage: majority-game COMMAND [--OPTION [VALUE]]..."


def _fail(message: str, choices=()) -> None:
    """Report a usage error on stderr and exit 2, as argparse did."""
    listed = f" (choose from {', '.join(map(repr, choices))})" if choices else ""
    print(_USAGE, f"majority-game: error: {message}{listed}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _help(command: str | None) -> None:
    """Print the top-level help, or one command's, read off the table; exit 0."""
    if command is None:
        lines = ["Exact analysis of the k-majority comparison game.", "", "commands:"]
        lines += [f"  {name:<8}{entry[1]}" for name, entry in COMMANDS.items()]
        lines += ["", "Run 'majority-game COMMAND -h' for the options of a command."]
    else:
        lines = [COMMANDS[command][1], "", "options:"]
        for flag, kind, default, text in [*COMMANDS[command][2], _THREADS]:
            meta = (f" {{{','.join(kind)}}}" if isinstance(kind, tuple)
                    else {bool: "", int: " INT", str: " TEXT"}[kind])
            shown = "" if default in (None, False) else f" (default: {default})"
            lines += [f"  {flag}{meta}", f"      {text}{shown}"]
    print(_USAGE.replace("COMMAND", command or "COMMAND"), "", *lines, sep="\n")
    raise SystemExit(0)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command, its function and each of its options, given or defaulted, by name."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _help(None)
    if command not in COMMANDS:
        _fail("a command is required" if command is None else
              f"argument command: invalid choice: {command!r}", COMMANDS)
    func, _, options = COMMANDS[command]
    kinds = {flag: kind for flag, kind, _, _ in [*options, _THREADS]}
    values = {flag[2:].replace("-", "_"): default for flag, _, default, _ in [*options, _THREADS]}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        flag, given, value = token.partition("=")
        kind = kinds.get(flag) or _fail(f"unrecognized arguments: {token}")
        if kind is bool and given:
            _fail(f"argument {flag}: ignored explicit argument {value!r}")
        if kind is not bool and not given:  # a value starts with '-' only as '-' or a number
            value = next(tokens, "--")  # at the end of argv the value is missing
            if value[:1] == "-" and value != "-" and not value[1:].replace(".", "", 1).isdecimal():
                _fail(f"argument {flag}: expected one argument")
        try:
            value = True if kind is bool else int(value) if kind is int else value
        except ValueError:
            _fail(f"argument {flag}: invalid int value: {value!r}")
        if isinstance(kind, tuple) and value not in kind:
            _fail(f"argument {flag}: invalid choice: {value!r}", kind)
        values[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(command=command, func=func, **values)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a reader gone early shows here, not at exit
        return code
    except (ValueError, MemoLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout's reader left early, as `| head` does
        if sys.stdout is not sys.__stdout__:
            raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiets the exit flush
        return 1
