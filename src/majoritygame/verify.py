"""Verification suites for every identity the package relies on.

Each suite checks one family of facts — conservation of signed counts
under moves, closed forms against independent enumeration, certificate
evaluations, domination of game values by potentials, the comparison
formula itself, and agreement between the ball-level and weight-level
games — and returns a SuiteReport.  Each suite runs at one fixed scale,
stated in its docstring.  A suite's signature is its contract: the
randomized suites take a seed and a trial count, the two family suites
take m, and the rest take nothing and are exhaustive over their ranges.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterator

from .ballgame import (
    BallAnswer,
    QuestionGraph,
    Sides,
    colour_options,
    export_transcript,
    export_transcript_json,
    identify_majority,
    import_transcript,
    import_transcript_json,
    induced_move_and_choice,
    min_comparisons_ball_level,
    run_adversarial_game,
    side_status_table,
)
from .core import (
    AssignerChoice,
    GameParams,
    Position,
    Value,
    apply_move,
    is_final,
    minority_capacity,
    start_position,
)
from .laurent import LaurentPoly, certificate_value
from .solver import GameSolver, formula_comparisons, reachable_positions, solved_starts
from .statistics import (
    INFINITE,
    WEIGHT_LIMIT,
    binary_weight,
    potential,
    signed_count,
    signed_count_recursive,
    two_adic_valuation,
)

#: Seed used by randomized suites when none is supplied.
DEFAULT_SEED = 20917

#: Positions up to this total get the enumeration cross-check.
_BRUTE_TOTAL_CAP = 14

#: Largest m for which the first-move-tie check solves the game exactly.
SOLVER_GUARD_M = 7

#: Largest m the two-one-family suite checks: each m computes the potential
#: of a position of 2m elements, so the suite's cost grows faster than m^2.
FAMILY_M_LIMIT = 256

#: Most trials a randomized suite runs: at this limit ``reformulation`` takes
#: about 13 s and ``conservation-iterated`` about 11 s (2 cores, Python 3.11).
TRIALS_LIMIT = 100_000

#: Witness strings kept per report; further failures are only counted.
WITNESS_CAP = 20


class SuiteReport(Value):
    """Outcome of one verification suite.

    ``cases`` counts every identity checked; ``failures`` holds the first
    few witness descriptions while ``failure_count`` keeps the true
    total.  ``details`` carries extremal data such as minimal slacks.
    """

    __slots__ = _fields = ("suite", "cases", "failure_count", "failures", "details")

    def __init__(self, suite: str, cases: int = 0, failure_count: int = 0,
                 failures: list[str] | None = None, details: dict | None = None) -> None:
        self.suite = suite
        self.cases = cases
        self.failure_count = failure_count
        self.failures = [] if failures is None else failures
        self.details = {} if details is None else details

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def add_failure(self, witness: str) -> None:
        self.failure_count += 1
        if len(self.failures) < WITNESS_CAP:
            self.failures.append(witness)

    def merge(self, other: "SuiteReport") -> None:
        """Fold another report's tallies into this one."""
        self.cases += other.cases
        self.failure_count += other.failure_count
        for witness in other.failures:
            if len(self.failures) < WITNESS_CAP:
                self.failures.append(witness)
        if other.details:
            self.details[other.suite] = other.details

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.suite} (cases={self.cases}"
        if self.failure_count:
            line += f", failures={self.failure_count}"
        line += ")"
        if self.failures:
            line += f" first: {self.failures[0]}"
        return line


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
            for zeros in range(extra_zeros + 1):  # parts descend and are valid: no re-sort
                out.append(Position._sorted((0,) * zeros + part[::-1]))
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


def _random_position(rng: random.Random, max_total: int) -> Position:
    """A random position with at least two elements, zeros included."""
    while True:
        size = rng.randint(2, 6)
        weights = tuple(rng.randint(0, 6) for _ in range(size))
        if sum(weights) <= max_total:
            return Position(weights)


def _random_move(rng: random.Random, M: Position) -> tuple[int, int]:
    """The weight pair (w, w') at a uniform index pair, indices counted from the largest weight."""
    i, j = rng.sample(range(len(M)), 2)
    return M.elements[~min(i, j)], M.elements[~max(i, j)]


def _random_laurent(rng: random.Random) -> LaurentPoly:
    """Up to 6 terms, exponents in [-8, 8] and coefficients in [-9, 9]."""
    terms = []
    for _ in range(rng.randint(0, 6)):
        terms.append((rng.randint(-8, 8), rng.randint(-9, 9)))
    return LaurentPoly(terms)


# ---------------------------------------------------------------------------
# signed-count suites


def _split_law(
    name: str, seed: int, trials: int, max_total: int, orders: range, beyond: int
) -> SuiteReport:
    """Signed counts split across a move: count(M) = count(M+) ± count(M-).

    The sign is minus exactly when the smaller selected weight is odd.
    Each random position/move pair is checked at every order and
    admissible excess, plus ``beyond`` vacuous excesses past the total;
    small totals also check the closed form against enumeration,
    ``signed_count_recursive(M, e, order)``.
    """
    report = SuiteReport(name)
    rng = random.Random(seed)
    for _ in range(trials):
        M = _random_position(rng, max_total)
        w, wp = pair = _random_move(rng, M)
        plus = apply_move(M, pair, AssignerChoice.PLUS)
        minus = apply_move(M, pair, AssignerChoice.MINUS)
        sign = -1 if wp % 2 else 1
        for order in orders:
            for e in _valid_excesses(M, beyond=beyond):
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
                    reference = signed_count_recursive(M, e, order)
                    if closed != reference:
                        report.add_failure(
                            f"{M} e={e} order={order}: closed {closed} != reference {reference}")
    report.details["pairs"] = trials
    return report


def suite_conservation(seed: int = DEFAULT_SEED, trials: int = 1000) -> SuiteReport:
    """The splitting law for plain signed counts, totals up to 24.

    One vacuous excess past the total is checked too, and small totals
    are cross-checked against enumeration.
    """
    return _split_law("conservation", seed, trials, max_total=24,
                      orders=range(1, 2), beyond=1)


def suite_conservation_iterated(seed: int = DEFAULT_SEED, trials: int = 250) -> SuiteReport:
    """The same splitting law for iterated signed counts of orders 1..4, totals up to 20.

    Small positions are additionally cross-checked against enumeration.
    """
    return _split_law("conservation-iterated", seed, trials, max_total=20,
                      orders=range(1, 5), beyond=0)


def suite_start_position() -> SuiteReport:
    """Exact values on all-ones positions, and the central binomial law.

    For n ones (n up to 24), excess e, and s = (n - e) / 2, the order-b
    signed count is (-1)^s C(n-b, s) and the potential is
    e + binary_weight(s).  The potential value rests on the 2-adic
    valuation of C(2t, t) equalling binary_weight(t), checked here
    directly for t up to 10,000 via an incremental recurrence.
    """
    max_n, central_max = 24, 10_000
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


def suite_closed_form() -> SuiteReport:
    """Closed-form signed counts against the recursive definition.

    Exhaustive over all positions of total at most 14 (padded with up to
    two zeros) for every admissible excess and orders 1..6.  The
    recursion's base case is plain subposition enumeration, so agreement
    here certifies the binomial-weighted closed form end to end.
    """
    report = SuiteReport("closed-form")
    positions = _positions_up_to(14, extra_zeros=2)
    for M in positions:
        for e in _valid_excesses(M):
            for order in range(1, 7):
                report.cases += 1
                closed = signed_count(M, e, order)
                rec = signed_count_recursive(M, e, order)
                if closed != rec:
                    report.add_failure(
                        f"{M} e={e} order={order}: closed {closed} != recursive {rec}")
    report.details["positions"] = len(positions)
    return report


# ---------------------------------------------------------------------------
# Laurent-polynomial suites


def suite_leibniz(seed: int = DEFAULT_SEED, trials: int = 500) -> SuiteReport:
    """Product rule for hyperderivatives on random Laurent polynomials.

    D_r(fg) must equal the sum of D_i(f) D_{r-i}(g) for r up to 5; unlike
    repeated ordinary differentiation this form is binomial-free, which is
    what makes certificate evaluation at -1 well-behaved.
    """
    max_r = 5
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


def _final_positions() -> Iterator[tuple[Position, int]]:
    """Every final (M, e), e >= 1, over totals up to 16 padded with up to two zeros."""
    for M in _positions_up_to(16, extra_zeros=2):
        for e in _valid_excesses(M, minimum=1):
            if is_final(M, e):
                yield M, e


def suite_certificate() -> SuiteReport:
    """Certificate evaluations against signed counts on final positions.

    For each final position the (e-1)-th hyperderivative of the witness
    polynomial, evaluated at -1, must equal (-1)^s times the order-e
    signed count, and the potential must equal e plus its valuation.
    ``potential(M, e)`` computes the order-e count a second time on
    purpose: that is this suite's independent check of
    ``statistics.potential`` against the certificate.
    """
    report = SuiteReport("certificate")
    for M, e in _final_positions():
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
    report.details["final_positions"] = report.cases // 2
    return report


def suite_final_bound() -> SuiteReport:
    """Potential at least the element count on every final position."""
    report = SuiteReport("final-bound")
    for M, e in _final_positions():
        report.cases += 1
        pot = potential(M, e)
        if pot < len(M):
            report.add_failure(f"{M} e={e}: potential {pot} below size {len(M)}")
    return report


# ---------------------------------------------------------------------------
# game-value suites


def verify_potential_dominates(params: GameParams) -> SuiteReport:
    """Check potential >= value on every position reachable from the start."""
    report = SuiteReport(f"potential-dominates(n={params.n},k={params.k})")
    e = params.e
    solver = GameSolver(e)
    min_slack = None
    witness = None
    for M in sorted(reachable_positions(params), key=lambda p: p.elements[::-1]):
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


def suite_potential_dominates() -> SuiteReport:
    """Potential >= game value on all reachable positions, all games up to n = 10."""
    report = SuiteReport("potential-dominates")
    for n in range(1, 11):
        for k in _valid_thresholds(n):
            report.merge(verify_potential_dominates(GameParams(n, k)))
    return report


def suite_formula() -> SuiteReport:
    """Exact minimax comparison counts against 2(n-k) - binary_weight(n-k), n up to 12."""
    max_n = 12
    report = SuiteReport("formula")
    for params, comparisons in solved_starts(max_n):
        expected = formula_comparisons(params)
        report.cases += 1
        if comparisons != expected:
            report.add_failure(f"n={params.n} k={params.k}: solved {comparisons} != {expected}")
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


def suite_two_one_family(m: int = 32) -> SuiteReport:
    """Closed-form potentials for the {2, 1^(2m'-1)} family at excess 1, m' = 1..m.

    m may be at most ``FAMILY_M_LIMIT``.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if m > FAMILY_M_LIMIT:
        raise ValueError(f"the two-one family is checked up to m={FAMILY_M_LIMIT}, got m={m}")
    report = SuiteReport("two-one-family")
    for mp in range(1, m + 1):
        M = Position((2,) + (1,) * (2 * mp - 1))
        direct = potential(M, 1)
        closed = two_one_family_potential(mp)
        report.cases += 1
        if direct != closed:
            report.add_failure(f"m={mp}: direct {direct} != closed form {closed}")
    return report


def verify_first_move_tie(m: int) -> SuiteReport:
    """For m = 3 (mod 4): the potential strictly prefers the cancelling
    reply to the opening move, yet both replies are value-optimal.

    The value comparison solves three games exactly and is skipped above
    SOLVER_GUARD_M; the potential identities are always checked.
    """
    if m < 1 or m % 4 != 3:
        raise ValueError(f"need a positive m = 3 (mod 4), got m={m}")
    n = 2 * m + 1  # also the merged position's total weight: refused before it is built
    if n > WEIGHT_LIMIT:
        raise ValueError(f"weight counts are limited to total weight {WEIGHT_LIMIT}, got {n}")
    report = SuiteReport(f"assigner-tie(m={m})")
    params = GameParams(n, m + 1)
    merged = Position((2,) + (1,) * (2 * m - 1))
    cancelled = Position((1,) * (2 * m - 1) + (0,))
    target = 1 + binary_weight(m)

    cancelled_inside = Position((2,) + (1,) * (2 * m - 3) + (0,))
    for M, expected in ((merged, 1 + target), (cancelled, target), (cancelled_inside, target)):
        report.cases += 1
        pot = potential(M, 1)
        if pot != expected:
            report.add_failure(f"potential of {M} is {pot}, expected {expected}")

    if m <= SOLVER_GUARD_M:
        solver = GameSolver(params.e)
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


def suite_assigner_tie(m: int | None = None) -> SuiteReport:
    """Positions where the potential ranks replies the game value ties.

    For m = 3 (mod 4) both replies to the opening move have equal game
    value even though the cancelling reply has strictly lower potential:
    the potential guides a sound Assigner but does not predict values.
    Checked at m = 3 and m = 7, or at the given m alone.
    """
    if m is not None:
        return verify_first_move_tie(m)
    report = SuiteReport("assigner-tie")
    for m in (3, 7):
        report.merge(verify_first_move_tie(m))
    return report


# ---------------------------------------------------------------------------
# ball-level suites


def _all_ball_states(n: int) -> Iterator[tuple[Sides, ...]]:
    """Every labelled ball state on n balls once, as ``QuestionGraph.sides`` in root order.

    Ball b, the largest yet, opens a component ``((b,), ())`` at the end or
    joins either side of one in place, so sides stay sorted, each root first
    on its own side.  These are the signed set partitions, all reachable by merges.
    """
    def extend(state: tuple[Sides, ...], ball: int) -> Iterator[tuple[Sides, ...]]:
        if ball > n:
            yield state
            return
        yield from extend(state + (((ball,), ()),), ball + 1)
        for x, (zero, one) in enumerate(state):
            head, tail = state[:x], state[x + 1:]
            yield from extend(head + ((zero + (ball,), one),) + tail, ball + 1)
            yield from extend(head + ((zero, one + (ball,)),) + tail, ball + 1)

    return extend((), 1)


def _graph_for_state(n: int, state: tuple[Sides, ...]) -> QuestionGraph:
    """A question graph realizing the state: each root is compared with the rest
    of its own side (SAME) and with every ball on the other side (DIFFERENT)."""
    g = QuestionGraph(n)
    add, same, different = g.add_comparison, BallAnswer.SAME, BallAnswer.DIFFERENT
    for (root, *own), other in state:
        for ball in own:
            add(root, ball, same)
        for ball in other:
            add(root, ball, different)
    return g


def suite_reformulation(seed: int = DEFAULT_SEED, trials: int = 10_000) -> SuiteReport:
    """Agreement between the ball game and its weight-level abstraction.

    Random transcripts on up to 10 balls check that each cross-component
    answer transforms the weight position exactly as the induced move and
    reply would, that within-component answers are correctly forced, and
    that transcripts round-trip bit-exactly through both serializations.
    Exhaustively up to 7 balls, the identification rule is compared
    against a colouring oracle that covers every admissible two-colouring
    through grouped colour counts: a ball is announced if and only if no
    admissible colouring puts it in the minority.
    """
    max_n, oracle_n = 10, 7
    report = SuiteReport("reformulation")
    rng = random.Random(seed)
    answers = tuple(BallAnswer)  # SAME, DIFFERENT
    for _ in range(trials):
        n = rng.randint(2, max_n)
        k = rng.randint(n // 2 + 1, n)
        g = QuestionGraph(n)
        while len(comps := g.components()) > 1:
            (a, b), (c, d) = rng.sample(comps, 2)  # same draws as sampling range(len(comps))
            i, j = rng.choice(sorted(a + b)), rng.choice(sorted(c + d))
            answer = rng.choice(answers)
            before = g.weights()
            pair, choice = induced_move_and_choice(g, i, j, answer)
            g.add_comparison(i, j, answer)
            report.cases += 1
            if g.weights() != apply_move(before, pair, choice):
                report.add_failure(
                    f"n={n}: answer {answer.value} on ({i},{j}) disagrees with "
                    f"pair {pair} choice {choice.value} from {before}")
            zero, one = g.sides(g.find(i)[0])
            balls = sorted(zero + one)
            x = rng.choice(balls)
            y = rng.choice(balls)
            if x != y:
                report.cases += 1
                forced = g.forced_answer(x, y)
                same_side = (x in zero) == (y in zero)
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
    # The colouring table depends only on k and the components' side sizes, and
    # components of equal sizes share a row: cache, per k and sorted sizes, the
    # size pairs whose larger side can be majority but never minority.
    sure_sizes = {}
    for n in range(1, oracle_n + 1):
        games = [(k, GameParams(n, k)) for k in _valid_thresholds(n)]
        for count, state in enumerate(_all_ball_states(n), 1):
            g = _graph_for_state(n, state)
            comps = g.components()
            report.cases += 1
            if tuple([g.sides(g.find(zero[0])[0]) for zero, _ in state]) != state:
                report.add_failure(f"n={n}: graph reconstruction lost structure")
                continue
            sizes = [(len(larger), len(smaller)) for larger, smaller in comps]
            total = sum(a - b for a, b in sizes)
            shape = tuple(sorted(sizes))
            leaders = [(size, larger[0]) for size, (larger, _) in zip(sizes, comps)]
            for k, params in games:
                if total < params.e:
                    continue  # no admissible colouring: outside every game
                sure = sure_sizes.get((k, shape))
                if sure is None:
                    table = side_status_table(comps, n, k)
                    sure = sure_sizes[k, shape] = {
                        size for size, sides in zip(sizes, table) if sides[0] == (False, True)}
                # the smallest ball on a larger side that can be majority but never minority
                determined = min((ball for size, ball in leaders if size in sure), default=None)
                report.cases += 1
                announced = identify_majority(g, params)
                if announced != determined:
                    report.add_failure(
                        f"n={n} k={k} state {g.weights()}: announced {announced}, "
                        f"colouring oracle says {determined}")
        state_counts[n] = count
    report.details["states"] = state_counts
    return report


def suite_adversarial() -> SuiteReport:
    """Played-out games and exhaustive strategy search hit the exact counts.

    An optimal Selector against either adversary — exact minimax or the
    potential heuristic — must finish in exactly the formula's number of
    comparisons on every game up to n = 9, announcing a ball no
    admissible colouring can make minority.  Up to 7 balls the
    ball-level strategy search, which never consults the weight-level
    solver, must agree too.
    """
    max_n, oracle_n = 9, 7
    report = SuiteReport("adversarial")
    for n in range(1, max_n + 1):
        for k in _valid_thresholds(n):
            params = GameParams(n, k)
            expected = formula_comparisons(params)
            solver = GameSolver(params.e)
            for name, assigner in (("optimal", solver.assigner_reply),
                                   ("potential", solver.potential_reply)):
                graph, ball = run_adversarial_game(params, solver.selector_move, assigner)
                report.cases += 1
                if len(graph.history) != expected:
                    report.add_failure(
                        f"n={n} k={k} adversary={name}: took {len(graph.history)} "
                        f"comparisons, formula says {expected}")
                report.cases += 1
                if colour_options(graph, params, ball)[0]:
                    report.add_failure(
                        f"n={n} k={k} adversary={name}: announced ball "
                        f"{ball} could still be minority")
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


def _suite_parameters(suite: Callable[..., SuiteReport]) -> tuple[str, ...]:
    """The names of a suite's parameters, read off the code of the function it wraps."""
    while hasattr(suite, "__wrapped__"):
        suite = suite.__wrapped__
    code = suite.__code__
    return code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]


def run_suite(
    name: str, seed: int | None = None, trials: int | None = None, m: int | None = None
) -> SuiteReport:
    """Run one suite by name with the parameters given.

    The suite's signature says which of seed, trials and m it takes; one
    it does not take raises ValueError, and so does a trial count below 1
    or above TRIALS_LIMIT.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    takes = _suite_parameters(SUITES[name])
    given = {key: v for key, v in (("seed", seed), ("trials", trials), ("m", m)) if v is not None}
    refused = [key for key in given if key not in takes]
    if refused:
        raise ValueError(f"suite {name!r} takes {' and '.join(takes) or 'no parameters'}; "
                         f"got {' and '.join(refused)}")
    if trials is not None and not 1 <= trials <= TRIALS_LIMIT:
        raise ValueError(f"trials must be from 1 to {TRIALS_LIMIT}, got {trials}")
    return SUITES[name](**given)


def iter_suites(seed: int | None = None) -> Iterator[SuiteReport]:
    """Run every suite in registry order at its fixed scale, yielding each report.

    The seed reaches the suites that take one.
    """
    for name, suite in SUITES.items():
        yield run_suite(name, seed=seed if "seed" in _suite_parameters(suite) else None)
