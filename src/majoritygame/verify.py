"""Verification suites for every identity the package relies on.

Each suite checks one family of facts — conservation of signed counts
under moves, closed forms against independent enumeration, certificate
evaluations, domination of game values by potentials, the comparison
formula itself, and agreement between the ball-level and weight-level
games — and returns a SuiteReport.  Randomized suites take a seed and a
trial count; the rest are exhaustive over bounded ranges.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from .ballgame import (
    BallAnswer,
    QuestionGraph,
    consistent_colouring_exists,
    export_transcript,
    export_transcript_json,
    identify_majority,
    import_transcript,
    import_transcript_json,
    induced_move_and_choice,
    locate_ball,
    merged_states,
    min_comparisons_ball_level,
    run_adversarial_game,
    side_status_table,
    start_state,
)
from .core import (
    AssignerChoice,
    GameParams,
    Move,
    Position,
    apply_move,
    is_final,
    minority_capacity,
    move_values,
    start_position,
)
from .laurent import (
    LaurentPoly,
    certificate_polynomial,
    certificate_value,
    final_position_bound_holds,
)
from .report import SuiteReport
from .solver import GameSolver, formula_comparisons, reachable_positions, solve_game
from .statistics import (
    INFINITE,
    binary_weight,
    potential,
    signed_count,
    signed_count_bruteforce,
    signed_count_recursive,
    two_adic_valuation,
)

#: Seed used by randomized suites when none is supplied.
DEFAULT_SEED = 20917

#: Positions up to this total get the brute-force cross-check.
_BRUTE_TOTAL_CAP = 14

#: Largest m for which the first-move-tie check solves the game exactly.
SOLVER_GUARD_M = 7


# ---------------------------------------------------------------------------
# enumeration and sampling helpers


def _partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing tuples of positive integers with the given sum."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _positions_up_to(max_total: int, extra_zeros: int = 0) -> list[Position]:
    """All positions of total at most max_total, optionally padded with zeros."""
    out = []
    for total in range(max_total + 1):
        for part in _partitions(total):
            for zeros in range(extra_zeros + 1):
                out.append(Position(part + (0,) * zeros))
    return out


def _valid_excesses(M: Position, minimum: int = 0, beyond: int = 0) -> list[int]:
    """Excesses matching the position's total in parity.

    Runs from ``minimum`` (rounded up to the right parity) to the total,
    plus ``beyond`` more values past it for vacuous-count edge cases.
    """
    total = M.total
    start = minimum + ((total - minimum) % 2)
    return list(range(start, total + 2 * beyond + 1, 2))


def _valid_thresholds(n: int) -> range:
    """All majority thresholds k for n balls."""
    return range(n // 2 + 1, n + 1)


def _random_position(rng: random.Random, max_total: int = 24) -> Position:
    """A random position with at least two elements, zeros included."""
    while True:
        size = rng.randint(2, 6)
        weights = tuple(rng.randint(0, 6) for _ in range(size))
        if sum(weights) <= max_total:
            return Position(weights)


def _random_move(rng: random.Random, M: Position) -> Move:
    """A uniform index pair; canonical descending order makes it valid."""
    i, j = rng.sample(range(len(M)), 2)
    return Move(min(i, j), max(i, j))


def _random_laurent(
    rng: random.Random, max_exponent: int = 8, max_coeff: int = 9, max_terms: int = 6
) -> LaurentPoly:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        terms.append((rng.randint(-max_exponent, max_exponent),
                      rng.randint(-max_coeff, max_coeff)))
    return LaurentPoly(terms)


# ---------------------------------------------------------------------------
# signed-count suites


def suite_conservation(
    seed: int = DEFAULT_SEED, trials: int = 1000, max_total: int = 24
) -> SuiteReport:
    """Signed counts split across a move: count(M) = count(M+) ± count(M-).

    The sign is minus exactly when the smaller selected weight is odd.
    Checked for every admissible excess (and two vacuous ones past the
    total) on random position/move pairs, with a brute-force
    enumeration cross-check on small totals.
    """
    report = SuiteReport("conservation")
    rng = random.Random(seed)
    for _ in range(trials):
        M = _random_position(rng, max_total=max_total)
        move = _random_move(rng, M)
        w, wp = move_values(M, move)
        plus = apply_move(M, move, AssignerChoice.PLUS)
        minus = apply_move(M, move, AssignerChoice.MINUS)
        sign = -1 if wp % 2 else 1
        for e in _valid_excesses(M, beyond=1):
            report.cases += 1
            lhs = signed_count(M, e)
            rhs = signed_count(plus, e) + sign * signed_count(minus, e)
            if lhs != rhs:
                report.add_failure(
                    f"{M} pair ({w},{wp}) e={e}: {lhs} != {signed_count(plus, e)} "
                    f"{'+' if sign > 0 else '-'} {signed_count(minus, e)}")
        if M.total <= _BRUTE_TOTAL_CAP:
            for e in _valid_excesses(M):
                report.cases += 1
                closed = signed_count(M, e)
                brute = signed_count_bruteforce(M, e)
                if closed != brute:
                    report.add_failure(f"{M} e={e}: closed {closed} != enumerated {brute}")
    report.details["pairs"] = trials
    return report


def suite_conservation_iterated(
    seed: int = DEFAULT_SEED, trials: int = 250, max_total: int = 20, max_order: int = 4
) -> SuiteReport:
    """The same splitting law for iterated signed counts of orders 1..4.

    Small positions are additionally cross-checked against the recursive
    definition, which bottoms out in plain enumeration.
    """
    report = SuiteReport("conservation-iterated")
    rng = random.Random(seed)
    for _ in range(trials):
        M = _random_position(rng, max_total=max_total)
        move = _random_move(rng, M)
        w, wp = move_values(M, move)
        plus = apply_move(M, move, AssignerChoice.PLUS)
        minus = apply_move(M, move, AssignerChoice.MINUS)
        sign = -1 if wp % 2 else 1
        for order in range(1, max_order + 1):
            for e in _valid_excesses(M):
                report.cases += 1
                lhs = signed_count(M, e, order)
                rhs = signed_count(plus, e, order) + sign * signed_count(minus, e, order)
                if lhs != rhs:
                    report.add_failure(
                        f"{M} pair ({w},{wp}) e={e} order={order}: {lhs} != {rhs}")
            if M.total <= _BRUTE_TOTAL_CAP:
                for e in _valid_excesses(M):
                    report.cases += 1
                    closed = signed_count(M, e, order)
                    rec = signed_count_recursive(M, e, order)
                    if closed != rec:
                        report.add_failure(
                            f"{M} e={e} order={order}: closed {closed} != recursive {rec}")
    report.details["pairs"] = trials
    return report


def suite_start_position(max_n: int = 24, central_max: int = 10_000) -> SuiteReport:
    """Exact values on all-ones positions, and the central binomial law.

    For n ones, excess e, and s = (n - e) / 2, the order-b signed count
    is (-1)^s C(n-b, s) and the potential is e + binary_weight(s).  The
    potential value rests on the 2-adic valuation of C(2t, t) equalling
    binary_weight(t), checked here directly for t up to central_max via
    an incremental recurrence.
    """
    report = SuiteReport("start-position")
    for n in range(1, max_n + 1):
        M = Position((1,) * n)
        for e in _valid_excesses(M, minimum=1):
            s = (n - e) // 2
            sign = -1 if s % 2 else 1
            for order in range(1, n + 1):
                report.cases += 1
                expected = sign * math.comb(n - order, s)
                got = signed_count(M, e, order)
                if got != expected:
                    report.add_failure(
                        f"n={n} e={e} order={order}: {got} != {expected}")
            report.cases += 1
            pot = potential(M, e)
            want = e + binary_weight(s)
            if pot != want:
                report.add_failure(f"potential of {M} at e={e}: {pot} != {want}")
    value = 1  # C(0, 0)
    for t in range(1, central_max + 1):
        value = value * (2 * (2 * t - 1)) // t
        report.cases += 1
        if two_adic_valuation(value) != binary_weight(t):
            report.add_failure(
                f"C(2t,t) at t={t}: valuation {two_adic_valuation(value)} "
                f"!= binary weight {binary_weight(t)}")
    report.details["max_n"] = max_n
    report.details["central_binomials"] = central_max
    return report


def suite_closed_form(
    max_total: int = 14, max_order: int = 6, extra_zeros: int = 2
) -> SuiteReport:
    """Closed-form signed counts against the recursive definition.

    Exhaustive over all positions up to the total (padded with up to two
    zeros) for every admissible excess and order.  The recursion's base
    case is plain subposition enumeration, so agreement here certifies
    the binomial-weighted closed form end to end.
    """
    report = SuiteReport("closed-form")
    for M in _positions_up_to(max_total, extra_zeros):
        for e in _valid_excesses(M):
            for order in range(1, max_order + 1):
                report.cases += 1
                closed = signed_count(M, e, order)
                rec = signed_count_recursive(M, e, order)
                if closed != rec:
                    report.add_failure(
                        f"{M} e={e} order={order}: closed {closed} != recursive {rec}")
    report.details["positions"] = len(_positions_up_to(max_total, extra_zeros))
    return report


# ---------------------------------------------------------------------------
# Laurent-polynomial suites


def suite_leibniz(seed: int = DEFAULT_SEED, trials: int = 500, max_r: int = 5) -> SuiteReport:
    """Product rule for hyperderivatives on random Laurent polynomials.

    D_r(fg) must equal the sum of D_i(f) D_{r-i}(g); unlike repeated
    ordinary differentiation this form is binomial-free, which is what
    makes certificate evaluation at -1 well-behaved.
    """
    report = SuiteReport("leibniz")
    rng = random.Random(seed)
    for _ in range(trials):
        f = _random_laurent(rng)
        g = _random_laurent(rng)
        product = f * g
        df = [f.hyperderivative(i) for i in range(max_r + 1)]
        dg = [g.hyperderivative(i) for i in range(max_r + 1)]
        for r in range(max_r + 1):
            report.cases += 1
            lhs = product.hyperderivative(r)
            rhs = LaurentPoly.zero()
            for i in range(r + 1):
                rhs = rhs + df[i] * dg[r - i]
            if lhs != rhs:
                report.add_failure(f"r={r}: D_r({f!r} * {g!r}) mismatch")
    report.details["pairs"] = trials
    return report


def suite_certificate(max_total: int = 16, extra_zeros: int = 2) -> SuiteReport:
    """Certificate evaluations against signed counts on final positions.

    For each final position the (e-1)-th hyperderivative of the witness
    polynomial, evaluated at -1, must equal (-1)^s times the order-e
    signed count, and the potential must equal e plus its valuation.
    """
    report = SuiteReport("certificate")
    finals = 0
    for M in _positions_up_to(max_total, extra_zeros):
        for e in _valid_excesses(M, minimum=1):
            if not is_final(M, e):
                continue
            finals += 1
            s = minority_capacity(M, e)
            sign = -1 if s % 2 else 1
            value = certificate_value(M, e)
            expected = sign * signed_count(M, e, order=e)
            report.cases += 1
            if value != expected:
                report.add_failure(f"{M} e={e}: certificate {value} != {expected}")
            report.cases += 1
            pot = potential(M, e)
            want = e + two_adic_valuation(value)
            if pot != want:
                report.add_failure(
                    f"{M} e={e}: potential {pot} != e + valuation {want}")
    report.details["final_positions"] = finals
    return report


def suite_final_bound(max_total: int = 16, extra_zeros: int = 2) -> SuiteReport:
    """Potential at least the element count on every final position."""
    report = SuiteReport("final-bound")
    for M in _positions_up_to(max_total, extra_zeros):
        for e in _valid_excesses(M, minimum=1):
            if not is_final(M, e):
                continue
            report.cases += 1
            if not final_position_bound_holds(M, e):
                report.add_failure(
                    f"{M} e={e}: potential {potential(M, e)} below size {len(M)}")
    return report


# ---------------------------------------------------------------------------
# game-value suites


def verify_potential_dominates(params: GameParams) -> SuiteReport:
    """Check potential >= value on every position reachable from the start."""
    report = SuiteReport(f"potential-dominates(n={params.n},k={params.k})")
    solver = GameSolver(params)
    e = params.e
    min_slack = None
    witness = None
    for M in sorted(reachable_positions(params), key=lambda p: p.elements):
        pot = potential(M, e)
        val = solver.value(M)
        report.cases += 1
        if not pot >= val:
            report.add_failure(f"{M}: potential {pot} < value {val}")
        if pot != INFINITE and (min_slack is None or pot - val < min_slack):
            min_slack = pot - val
            witness = M
    report.details["min_slack"] = min_slack
    report.details["min_slack_position"] = str(witness) if witness is not None else None
    return report


def suite_potential_dominates(max_n: int = 10) -> SuiteReport:
    """Potential >= game value on all reachable positions, all games up to n."""
    report = SuiteReport("potential-dominates")
    for n in range(1, max_n + 1):
        for k in _valid_thresholds(n):
            report.merge(verify_potential_dominates(GameParams(n, k)))
    return report


def suite_formula(max_n: int = 12) -> SuiteReport:
    """Exact minimax comparison counts against 2(n-k) - binary_weight(n-k)."""
    report = SuiteReport("formula")
    for n in range(1, max_n + 1):
        for k in _valid_thresholds(n):
            params = GameParams(n, k)
            comparisons, _ = solve_game(params)
            expected = formula_comparisons(params)
            report.cases += 1
            if comparisons != expected:
                report.add_failure(f"n={n} k={k}: solved {comparisons} != {expected}")
    report.details["max_n"] = max_n
    return report


def two_one_family_potential(m: int) -> int | float:
    """Closed form for the potential of {2, 1^(2m-1)} at excess 1.

    Odd m gives 2 + binary_weight(m-1) + two_adic_valuation(m-1) — which
    is INFINITE at m = 1 — and even m gives
    2 + binary_weight(m-1) - two_adic_valuation(m).
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    base = 2 + binary_weight(m - 1)
    if m % 2 == 1:
        return base + two_adic_valuation(m - 1)
    return base - two_adic_valuation(m)


def suite_two_one_family(max_m: int = 32) -> SuiteReport:
    """Closed-form potentials for the {2, 1^(2m-1)} family at excess 1, m = 1..max_m."""
    if max_m < 1:
        raise ValueError(f"need m >= 1, got m={max_m}")
    report = SuiteReport("two-one-family")
    for m in range(1, max_m + 1):
        M = Position((2,) + (1,) * (2 * m - 1))
        direct = potential(M, 1)
        closed = two_one_family_potential(m)
        report.cases += 1
        if direct != closed:
            report.add_failure(f"m={m}: direct {direct} != closed form {closed}")
    return report


def verify_first_move_tie(m: int) -> SuiteReport:
    """For m = 3 (mod 4): the potential strictly prefers the cancelling
    reply to the opening move, yet both replies are value-optimal.

    The value comparison solves three games exactly and is skipped above
    SOLVER_GUARD_M; the potential identities are always checked.
    """
    if m < 1 or m % 4 != 3:
        raise ValueError(f"need a positive m = 3 (mod 4), got m={m}")
    report = SuiteReport(f"assigner-tie(m={m})")
    n = 2 * m + 1
    params = GameParams(n, m + 1)
    merged = Position((2,) + (1,) * (2 * m - 1))
    cancelled = Position((1,) * (2 * m - 1) + (0,))
    target = 1 + binary_weight(m)

    checks = [
        (potential(merged, 1) == 1 + target,
         f"potential of {merged} is {potential(merged, 1)}, expected {1 + target}"),
        (potential(cancelled, 1) == target,
         f"potential of {cancelled} is {potential(cancelled, 1)}, expected {target}"),
        (potential(Position((2,) + (1,) * (2 * m - 3) + (0,)), 1) == target,
         f"potential after cancelling inside {merged} should be {target}"),
    ]
    for ok, witness in checks:
        report.cases += 1
        if not ok:
            report.add_failure(witness)

    if m <= SOLVER_GUARD_M:
        solver = GameSolver(params)
        v_start = solver.value(start_position(params))
        v_merged = solver.value(merged)
        v_cancelled = solver.value(cancelled)
        report.cases += 1
        if not (v_start == v_merged == v_cancelled):
            report.add_failure(
                f"values differ: start {v_start}, merged {v_merged}, cancelled {v_cancelled}")
        report.details["values"] = {
            "start": v_start, "merged": v_merged, "cancelled": v_cancelled}
    else:
        report.details["value_check"] = f"skipped above solver guard m={SOLVER_GUARD_M}"
    return report


def suite_assigner_tie(ms: tuple[int, ...] = (3, 7)) -> SuiteReport:
    """Positions where the potential ranks replies the game value ties.

    For m = 3 (mod 4) both replies to the opening move have equal game
    value even though the cancelling reply has strictly lower potential:
    the potential guides a sound Assigner but does not predict values.
    """
    report = SuiteReport("assigner-tie")
    for m in ms:
        report.merge(verify_first_move_tie(m))
    return report


# ---------------------------------------------------------------------------
# ball-level suites


def _all_ball_states(n: int) -> set[frozenset]:
    """Every ball state (see ``start_state``) reachable on n balls.

    All merges are expanded regardless of finality, which makes the
    enumeration independent of any threshold k.
    """
    start = start_state(n)
    seen = {start}
    frontier = [start]
    while frontier:
        for pair in merged_states(frontier.pop()):
            for child in pair:
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
    return seen


def _graph_for_state(n: int, state: frozenset) -> QuestionGraph:
    """Reconstruct a question graph realizing the given component structure."""
    g = QuestionGraph(n)
    for comp in state:
        side_a, side_b = (sorted(side) for side in comp)
        if not side_a:
            side_a, side_b = side_b, side_a
        anchor = side_a[0]
        for ball in side_a[1:]:
            g.add_comparison(anchor, ball, BallAnswer.SAME)
        for ball in side_b:
            g.add_comparison(anchor, ball, BallAnswer.DIFFERENT)
    return g


def suite_reformulation(
    seed: int = DEFAULT_SEED, trials: int = 10_000, max_n: int = 10, oracle_n: int = 7
) -> SuiteReport:
    """Agreement between the ball game and its weight-level abstraction.

    Random transcripts check that each cross-component answer transforms
    the weight position exactly as the induced move and reply would, that
    within-component answers are correctly forced, and that transcripts
    round-trip bit-exactly through both serializations.  Exhaustively up
    to oracle_n balls, the identification rule is compared against a
    colouring oracle that enumerates every admissible two-colouring: a
    ball is announced if and only if no admissible colouring puts it in
    the minority.
    """
    report = SuiteReport("reformulation")
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(n // 2 + 1, n)
        g = QuestionGraph(n)
        while True:
            comps = g.components()
            if len(comps) == 1:
                break
            ca, cb = rng.sample(range(len(comps)), 2)
            i = rng.choice(comps[ca].balls)
            j = rng.choice(comps[cb].balls)
            answer = rng.choice((BallAnswer.SAME, BallAnswer.DIFFERENT))
            before = g.weights()
            move, choice = induced_move_and_choice(g, i, j, answer)
            g.add_comparison(i, j, answer)
            report.cases += 1
            if g.weights() != apply_move(before, move, choice):
                report.add_failure(
                    f"n={n}: answer {answer.value} on ({i},{j}) disagrees with "
                    f"move {move} choice {choice.value} from {before}")
            merged = g.components()
            idx, _ = locate_ball(merged, i)
            comp = merged[idx]
            x = rng.choice(comp.balls)
            y = rng.choice(comp.balls)
            if x != y:
                report.cases += 1
                forced = g.forced_answer(x, y)
                same_side = (x in comp.larger) == (y in comp.larger)
                if (forced is BallAnswer.SAME) != same_side:
                    report.add_failure(
                        f"n={n}: forced answer for ({x},{y}) disagrees with sides")
        params = GameParams(n, k)
        text = export_transcript(g, params)
        params2, g2 = import_transcript(text)
        blob = export_transcript_json(g, params)
        params3, g3 = import_transcript_json(blob)
        report.cases += 1
        if not (
            params2 == params3 == params
            and g2.history == g.history == g3.history
            and g2.weights() == g.weights() == g3.weights()
            and export_transcript(g2, params2) == text
            and export_transcript_json(g3, params3) == blob
        ):
            report.add_failure(f"n={n} k={k}: transcript round-trip mismatch")
    report.details["transcripts"] = trials

    state_counts = {}
    for n in range(1, oracle_n + 1):
        states = _all_ball_states(n)
        state_counts[n] = len(states)
        # The colouring table depends only on k and each component's side sizes.
        tables = {}
        for state in states:
            g = _graph_for_state(n, state)
            comps = g.components()
            report.cases += 1
            rebuilt = {
                frozenset((frozenset(comp.larger), frozenset(comp.smaller)))
                for comp in comps
            }
            if rebuilt != state:
                report.add_failure(f"n={n}: graph reconstruction lost structure")
                continue
            total = sum(comp.weight for comp in comps)
            sizes = tuple((len(comp.larger), len(comp.smaller)) for comp in comps)
            for k in _valid_thresholds(n):
                params = GameParams(n, k)
                if total < params.e:
                    continue  # no admissible colouring: outside every game
                table = tables.get((k, sizes))
                if table is None:
                    table = tables[k, sizes] = side_status_table(comps, n, k)
                determined = None
                for idx, comp in enumerate(comps):
                    minority_ok, majority_ok = table[idx][0]
                    if majority_ok and not minority_ok:
                        ball = comp.larger[0]
                        if determined is None or ball < determined:
                            determined = ball
                report.cases += 1
                announced = identify_majority(g, params)
                if announced != determined:
                    report.add_failure(
                        f"n={n} k={k} state {g.weights()}: announced {announced}, "
                        f"colouring oracle says {determined}")
        del states, tables  # free this n's states before the next, larger set is built
    report.details["states"] = state_counts
    return report


def suite_adversarial(max_n: int = 9, oracle_n: int = 7) -> SuiteReport:
    """Played-out games and exhaustive strategy search hit the exact counts.

    An optimal Selector against either adversary — exact minimax or the
    potential heuristic — must finish in exactly the formula's number of
    comparisons, announcing a ball no admissible colouring can make
    minority.  Up to oracle_n balls the ball-level strategy search,
    which never consults the weight-level solver, must agree too.
    """
    report = SuiteReport("adversarial")
    for n in range(1, max_n + 1):
        for k in _valid_thresholds(n):
            params = GameParams(n, k)
            expected = formula_comparisons(params)
            for mode in ("optimal", "potential"):
                record = run_adversarial_game(params, mode=mode)
                report.cases += 1
                if record.comparisons != expected:
                    report.add_failure(
                        f"n={n} k={k} adversary={mode}: took {record.comparisons} "
                        f"comparisons, formula says {expected}")
                report.cases += 1
                if consistent_colouring_exists(
                    record.graph, params, record.majority_ball, "minority"
                ):
                    report.add_failure(
                        f"n={n} k={k} adversary={mode}: announced ball "
                        f"{record.majority_ball} could still be minority")
    search_counts = {}
    for n in range(1, oracle_n + 1):
        for k in _valid_thresholds(n):
            params = GameParams(n, k)
            report.cases += 1
            searched = min_comparisons_ball_level(params)
            expected = formula_comparisons(params)
            search_counts[(n, k)] = searched
            if searched != expected:
                report.add_failure(
                    f"n={n} k={k}: ball-level search {searched} != formula {expected}")
    report.details["searched"] = {f"{n},{k}": v for (n, k), v in search_counts.items()}
    return report


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "conservation": suite_conservation,
    "conservation-iterated": suite_conservation_iterated,
    "start-position": suite_start_position,
    "closed-form": suite_closed_form,
    "leibniz": suite_leibniz,
    "certificate": suite_certificate,
    "final-bound": suite_final_bound,
    "potential-dominates": suite_potential_dominates,
    "formula": suite_formula,
    "two-one-family": suite_two_one_family,
    "assigner-tie": suite_assigner_tie,
    "reformulation": suite_reformulation,
    "adversarial": suite_adversarial,
}

#: Suites that draw on a random generator and accept seed/trials.
RANDOMIZED_SUITES = frozenset(
    {"conservation", "conservation-iterated", "leibniz", "reformulation"})


def run_suite(name: str, seed: int | None = None, trials: int | None = None) -> SuiteReport:
    """Run one suite by name; seed and trials apply to randomized suites only."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    kwargs = {}
    if name in RANDOMIZED_SUITES:
        if seed is not None:
            kwargs["seed"] = seed
        if trials is not None:
            kwargs["trials"] = trials
    elif seed is not None or trials is not None:
        raise ValueError(f"suite {name!r} is deterministic; seed and trials do not apply")
    return SUITES[name](**kwargs)


def iter_suites(seed: int | None = None) -> Iterator[SuiteReport]:
    """Run every suite in registry order with default sizes, yielding each report.

    The seed reaches the randomized suites only.
    """
    for name in SUITES:
        yield run_suite(name, seed=seed if name in RANDOMIZED_SUITES else None)


def run_all_suites(seed: int | None = None) -> list[SuiteReport]:
    """Every suite's report, in registry order, with default sizes."""
    return list(iter_suites(seed))
