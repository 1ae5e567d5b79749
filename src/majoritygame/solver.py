"""Exact game values by null-window minimax, plus strategy extraction.

The Selector tries to finish with as many components as possible (each
surviving component is one comparison saved); the Assigner tries to
finish with as few.  One kernel answers every question: a fail-soft
null-window test (Knuth & Moore's alpha-beta with a zero-width window)
over a table of proven (lower, upper) bounds per canonical position,
driven to the exact value MTD(f)-style (Plaat, Schaeffer, Pijls & de
Bruin 1996).  Values are exact integers and depend only on the excess,
so one table serves every game of that excess.  Strategies are plain
values that ``play`` plays out: selector_move gives the smallest optimal
pair, and assigner_reply (by value) and potential_reply (by potential)
share one tie rule, lower_scoring_reply: the lower-scoring child, MINUS on a tie.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Callable

from .core import (
    AssignerChoice,
    GameParams,
    Position,
    apply_move,
    is_final,
    legal_moves,
    start_position,
)
from .statistics import WEIGHT_LIMIT, Valuation, binary_weight, potential

#: Cap on one solver's table entries; a fresh bare-majority solve at n = 61
#: needs 226,794.
MEMO_LIMIT = 262_144

#: Largest max_n that solved_starts sweeps, for a budget of 40 s: on 2 cores
#: under Python 3.11, ``table --max-n 48`` takes 30-38 s and 49 takes 45 s.
TABLE_MAX_N = 48

#: Largest n for which exhaustive reachability enumeration runs.
EXHAUSTIVE_GUARD_N = 12

#: A strategy for one fixed excess: the Selector picks a weight pair, the Assigner replies.
Selector = Callable[[Position], tuple[int, int]]
Assigner = Callable[[Position, tuple[int, int]], AssignerChoice]


class MemoLimitExceeded(RuntimeError):
    """The solve table would outgrow MEMO_LIMIT.

    Exceeding the cap aborts the computation outright: evicting entries
    instead would silently turn exact verification runs into exponential
    ones.
    """


@dataclass
class SolverStats:
    """Work done by one solver's kernel.

    ``entries`` is the number of positions stored; ``probes`` counts
    null-window tests entered and ``hits`` the tests a stored bound
    answered without a scan.
    """

    entries: int = 0
    probes: int = 0
    hits: int = 0


@dataclass(frozen=True)
class TraceStep:
    """One move of a concrete line of play: the weight pair (w, w') and the reply."""

    position: Position
    pair: tuple[int, int]
    choice: AssignerChoice


class GameSolver:
    """Minimax evaluation of positions for one fixed excess.

    The value of a position is the element count of the final position
    under optimal play.  The solver keeps one table mapping each position
    it has searched to the (lower, upper) bounds proven for its value;
    the bounds hold whatever root proved them, so any position of the
    same excess may be valued on the same solver.  The table holds at most
    MEMO_LIMIT entries; reaching the cap raises MemoLimitExceeded and
    nothing is evicted.
    ``stats`` counts the work the kernel has done.

    The table holds no zero weight, by the game rule value(M + {0}) =
    value(M) + 1: a zero changes neither the total nor the largest weight,
    and selecting (w, 0) returns M under either reply at the cost of one
    element, so no optimal line needs that move and the zero survives.
    """

    def __init__(self, e: int):
        if type(e) is not int or e < 1:  # bool is an int subclass
            raise ValueError(f"the excess must be an integer of at least 1, got {e!r}")
        self.e = e
        self._bounds: dict[tuple[int, ...], tuple[int, int]] = {}
        self.stats = SolverStats()

    def value(self, M: Position) -> int:
        """Element count of the final position reached under optimal play.

        MTD(f) seeded at the potential, which equals the value at a start
        position: a final M is its own value, and otherwise the value lies
        in [1, len(M) - 1].  Each null-window test at g either passes,
        raising the proven lower bound to its result b, or fails, lowering
        the upper bound to b, until the bounds meet.  The seed only orders
        the tests: every bound comes from a test, so any first guess gives
        the same value.  Past WEIGHT_LIMIT, where potential raises, the
        first guess is 2.  The kernel recurses once per merge, so a
        position too long for Python's recursion limit raises ValueError;
        the table then still holds only proven bounds, since a position's
        bounds are stored only after its full scan.
        """
        if is_final(M, self.e):  # raises ValueError for totals no game at this excess reaches
            return len(M)
        lo, hi = 1, len(M) - 1
        g = min(max(potential(M, self.e), lo + 1), hi) if M.total <= WEIGHT_LIMIT else lo + 1
        try:
            while lo < hi:
                b = self._test(M.elements, g)
                if b >= g:
                    lo, g = b, b + 1
                else:
                    hi, g = b, max(b, lo + 1)
            return lo
        except RecursionError:
            raise ValueError(
                f"a position of {len(M)} elements is too deep to solve within "
                f"the recursion limit") from None

    def _test(self, key: tuple[int, ...], g: int) -> int:
        """Fail-soft null-window test of value >= g for a valid position.

        ``key`` holds the weights in ascending order.  Returns a bound b:
        either b >= g and value >= b, or b < g and value <= b; the
        position's stored (lower, upper) pair is tightened to match.  A
        final position stores its exact value; any other starts from the
        free bounds 1 <= value <= len(key) - 1.

        The z leading zeros are stripped first and the test answered as
        z + test(key[z:], g - z), inline so that the kernel keeps one frame
        per merge: a zero adds one to the value (see GameSolver).  A valid
        position's total is at least e, so some weight is nonzero.

        A child drops the selected pair and gets the merged weight
        inserted in order, so it is never re-sorted or re-validated;
        moves are deduplicated by value pair, as in legal_moves.  A move
        fails as soon as either child's stored upper bound is below g,
        before any search below it.  The scan stops at the first move
        whose two children both reach g; when none does, the largest
        upper bound the moves failed with bounds the value.
        """
        z = 0
        if not key[0]:
            z = bisect_right(key, 0)
            key = key[z:]
            g -= z
        bounds = self._bounds
        stats = self.stats
        entry = bounds.get(key)
        c = len(key)
        if entry is not None:
            lo, hi = entry
            if lo >= g or hi < g:
                stats.probes += 1
                stats.hits += 1
                return z + (lo if lo >= g else hi)
        elif 2 * key[-1] >= sum(key) - self.e + 2:
            stats.probes += 1
            self._store(key, c, c)
            return z + c
        else:
            lo, hi = 1, c - 1
            if g <= lo or hi < g:
                stats.probes += 1
                return z + (lo if g <= lo else hi)
        cut = 0  # moves failed by a stored upper bound: each is a probe and a hit
        fail = 0
        result = 0
        top = c - 1
        for b in range(1, c):
            w = key[b]
            if b < top and key[b + 1] == w:
                continue
            for a in range(b - 1, -1, -1):
                wp = key[a]
                if a + 1 < b and key[a + 1] == wp:
                    continue
                rest = list(key)
                del rest[b]
                del rest[a]
                plus = rest.copy()
                insort(plus, w + wp)
                plus = tuple(plus)
                insort(rest, w - wp)
                minus = tuple(rest)
                em = bounds.get(minus)
                ep = bounds.get(plus)
                # a stored upper bound below g fails the move unsearched
                if em is not None and em[1] < g:
                    v = em[1]
                    cut += 1
                elif ep is not None and ep[1] < g:
                    v = ep[1]
                    cut += 1
                else:
                    v = self._test(minus, g)
                    if v >= g:
                        vp = self._test(plus, g)
                        if vp >= g:
                            result = v if v < vp else vp
                            break
                        v = vp
                if v > fail:
                    fail = v
            if result:
                break
        stats.probes += 1 + cut
        stats.hits += cut
        if result:
            self._store(key, result, hi)
            return z + result
        self._store(key, lo, fail)
        return z + fail

    def _store(self, key: tuple[int, ...], lo: int, hi: int) -> None:
        """Record bounds for key; a new key past the cap aborts the solve."""
        if key not in self._bounds:
            if len(self._bounds) >= MEMO_LIMIT:
                raise MemoLimitExceeded(f"solve table would exceed {MEMO_LIMIT} entries")
            self.stats.entries += 1
        self._bounds[key] = (lo, hi)

    def selector_move(self, M: Position) -> tuple[int, int]:
        """The smallest value pair achieving the position's value.

        No child is worth more than M, so a move is optimal exactly when
        both of its children pass the null-window test at M's value; the
        scan stops at the first such pair.  A final position raises
        ValueError.
        """
        if is_final(M, self.e):
            raise ValueError(f"{M} is already final for excess {self.e}")
        best = self.value(M)
        return next(
            pair for pair in legal_moves(M)
            if all(self._test(apply_move(M, pair, c).elements, best) >= best
                   for c in AssignerChoice))

    def assigner_reply(self, M: Position, pair: tuple[int, int]) -> AssignerChoice:
        """The Assigner scoring each child by its value; see lower_scoring_reply."""
        return lower_scoring_reply(M, pair, self.e, self.value)

    def potential_reply(self, M: Position, pair: tuple[int, int]) -> AssignerChoice:
        """The Assigner scoring each child by its potential; see lower_scoring_reply."""
        return lower_scoring_reply(M, pair, self.e, lambda child: potential(child, self.e))

    def solve(self, M: Position) -> tuple[list[TraceStep], Position]:
        """The principal variation from M and the final position it reaches.

        The variation is ``play`` of selector_move, the smallest optimal
        value pair, against assigner_reply, which breaks ties towards
        MINUS.  The final position's length is M's value, and the number
        of steps is the comparisons it takes: len(M) minus the value.
        """
        return play(M, self.e, self.selector_move, self.assigner_reply)


def lower_scoring_reply(M: Position, pair: tuple[int, int], e: int,
                        score: Callable[[Position], Valuation]) -> AssignerChoice:
    """The Assigner's one tie rule: the lower-scoring child, MINUS on a tie; final M raises."""
    if is_final(M, e):
        raise ValueError(f"{M} is already final for excess {e}")
    plus, minus = (apply_move(M, pair, c) for c in AssignerChoice)
    return AssignerChoice.PLUS if score(plus) < score(minus) else AssignerChoice.MINUS


def play(M: Position, e: int, selector: Selector,
         assigner: Assigner) -> tuple[list[TraceStep], Position]:
    """Each step of selector against assigner from M until final, and the final position."""
    steps = []
    while not is_final(M, e):
        pair = selector(M)
        choice = assigner(M, pair)
        steps.append(TraceStep(M, pair, choice))
        M = apply_move(M, pair, choice)
    return steps, M


def solved_starts(max_n: int) -> list[tuple[GameParams, int]]:
    """Comparisons needed from the start of every game with n <= max_n, in (n, k) order.

    The sweep runs one excess at a time: every game of excess e is valued
    on one GameSolver(e), which is dropped before the next excess, so at
    most one table is alive and MEMO_LIMIT bounds the whole sweep.
    max_n must lie in 1..TABLE_MAX_N.
    """
    if not 1 <= max_n <= TABLE_MAX_N:
        raise ValueError(f"max_n must be from 1 to {TABLE_MAX_N}, got {max_n}")
    solved = []
    for e in range(1, max_n + 1):
        solver = GameSolver(e)
        for n in range(e, max_n + 1, 2):
            params = GameParams(n, (n + e) // 2)
            solved.append((params, n - solver.value(start_position(params))))
        del solver  # free this table before the next excess builds its own
    solved.sort(key=lambda item: (item[0].n, item[0].k))
    return solved


def formula_comparisons(params: GameParams) -> int:
    """The closed-form comparison count 2(n-k) - binary_weight(n-k)."""
    d = params.n - params.k
    return 2 * d - binary_weight(d)


def reachable_positions(params: GameParams) -> set[Position]:
    """Every position reachable from the start under arbitrary play.

    Final positions end the game and are not expanded.  Guarded at
    n = 12: the enumeration grows quickly beyond that.
    """
    if params.n > EXHAUSTIVE_GUARD_N:
        raise ValueError(f"exhaustive enumeration is guarded at n={EXHAUSTIVE_GUARD_N}")
    e = params.e
    first = start_position(params)
    seen = {first}
    frontier = [first]
    while frontier:
        M = frontier.pop()
        if is_final(M, e):
            continue
        for pair in legal_moves(M):
            for choice in AssignerChoice:
                succ = apply_move(M, pair, choice)
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
    return seen
