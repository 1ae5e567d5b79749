"""Exact game values by memoized minimax, plus strategy extraction.

The Selector tries to finish with as many components as possible (each
surviving component is one comparison saved); the Assigner tries to
finish with as few.  Values are exact integers, memoized per canonical
position for one fixed excess.
"""

from __future__ import annotations

import os
from bisect import insort
from dataclasses import dataclass

from .core import (
    AssignerChoice,
    GameParams,
    Move,
    Position,
    apply_move,
    is_final,
    legal_moves,
    move_for_pair,
    move_values,
    start_position,
)
from .statistics import binary_weight, potential

#: Environment variable holding an optional cap on solve-table entries.
MEMO_LIMIT_ENV = "MAJORITY_ORACLE_MEMO_LIMIT"

#: Largest n for which exhaustive reachability enumeration runs unforced.
EXHAUSTIVE_GUARD_N = 12


class MemoLimitExceeded(RuntimeError):
    """The solve table would outgrow the configured cap.

    Exceeding the cap aborts the computation outright: evicting entries
    instead would silently turn exact verification runs into exponential
    ones.
    """


def _env_memo_limit() -> int | None:
    raw = os.environ.get(MEMO_LIMIT_ENV)
    if raw is None or raw == "":
        return None
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(f"{MEMO_LIMIT_ENV} must be an integer, got {raw!r}") from None
    if limit < 1:
        raise ValueError(f"{MEMO_LIMIT_ENV} must be positive, got {raw!r}")
    return limit


@dataclass
class SolverStats:
    """Work done by one solver's kernel, counted on memo misses only.

    ``entries`` is the number of positions valued and stored; ``cuts``
    counts PLUS children skipped plus move scans stopped early.
    """

    entries: int = 0
    cuts: int = 0


@dataclass(frozen=True)
class TraceStep:
    """One move of a concrete line of play."""

    position: Position
    move: Move
    values: tuple[int, int]
    choice: AssignerChoice


@dataclass
class SolveResult:
    """Value and optimal strategies for one position.

    ``optimal_selector_moves`` lists the value pairs whose worst-case
    successor value attains the maximum; ``assigner_choices`` maps each
    of them to the Assigner's argmin set.  The principal variation is a
    deterministic optimal line: lexicographically smallest value pair,
    ties between Assigner replies broken towards MINUS.
    """

    value: int
    optimal_selector_moves: list[tuple[int, int]]
    assigner_choices: dict[tuple[int, int], tuple[AssignerChoice, ...]]
    principal_variation: list[TraceStep]
    final_position: Position


class GameSolver:
    """Minimax evaluation of positions for one fixed excess.

    The value of a position is the element count of the final position
    under optimal play.  A fresh solver reads an optional memo cap from
    MAJORITY_ORACLE_MEMO_LIMIT; hitting the cap raises MemoLimitExceeded.
    ``stats`` counts the work the kernel behind ``value`` has done.
    """

    def __init__(self, params: GameParams, memo_limit: int | None = None):
        self.params = params
        self.e = params.e
        self._memo: dict[tuple[int, ...], int] = {}
        self.stats = SolverStats()
        self._memo_limit = memo_limit if memo_limit is not None else _env_memo_limit()

    def value(self, M: Position) -> int:
        """Element count of the final position reached under optimal play."""
        is_final(M, self.e)  # raises ValueError for totals no game at this excess reaches
        return self._value(tuple(reversed(M.elements)))

    def _value(self, key: tuple[int, ...]) -> int:
        """Value of a valid position given as its weights in ascending order.

        Works on raw tuples: a child drops the selected pair and gets the
        merged weight inserted in order, so it is never re-sorted or
        re-validated.  Moves are deduplicated by value pair, as in
        legal_moves.  Two cuts skip work without changing any stored
        value: a PLUS child is not evaluated when the MINUS child already
        cannot beat the running best, and the scan stops once the best
        reaches len(key) - 1, the most any move can keep.
        """
        memo = self._memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        c = len(key)
        if 2 * key[-1] >= sum(key) - self.e + 2:
            result = c
        else:
            result = 0
            top = c - 1
            cuts = 0
            for b in range(1, c):
                w = key[b]
                if b < top and key[b + 1] == w:
                    continue
                for a in range(b):
                    wp = key[a]
                    if a + 1 < b and key[a + 1] == wp:
                        continue
                    rest = list(key)
                    del rest[b]
                    del rest[a]
                    minus = rest.copy()
                    insort(minus, w - wp)
                    minus = tuple(minus)
                    v = memo.get(minus)
                    if v is None:
                        v = self._value(minus)
                    if v <= result:
                        cuts += 1
                        continue
                    insort(rest, w + wp)
                    plus = tuple(rest)
                    vp = memo.get(plus)
                    if vp is None:
                        vp = self._value(plus)
                    if vp < v:
                        v = vp
                    if v > result:
                        result = v
                        if result == top:
                            break
                if result == top:
                    cuts += 1
                    break
            self.stats.cuts += cuts
        limit = self._memo_limit
        if limit is not None and len(memo) >= limit:
            raise MemoLimitExceeded(
                f"solve table would exceed {limit} entries; raise or unset {MEMO_LIMIT_ENV}")
        memo[key] = result
        self.stats.entries += 1
        return result

    def comparisons_needed(self) -> int:
        """Comparisons required from the start position under optimal play."""
        return self.params.n - self.value(start_position(self.params))

    def optimal_selector_moves(self, M: Position) -> list[tuple[int, int]]:
        """Sorted value pairs achieving the position's value; empty when final."""
        if is_final(M, self.e):
            return []
        best = self.value(M)
        pairs = []
        for mv in legal_moves(M):
            worst = min(self.value(apply_move(M, mv, c)) for c in AssignerChoice)
            if worst == best:
                pairs.append(move_values(M, mv))
        return sorted(pairs)

    def optimal_assigner_choices(self, M: Position, move: Move) -> tuple[AssignerChoice, ...]:
        """The argmin set over the move's two successors."""
        if is_final(M, self.e):
            raise ValueError(f"{M} is already final for excess {self.e}")
        vals = {c: self.value(apply_move(M, move, c)) for c in AssignerChoice}
        best = min(vals.values())
        return tuple(c for c in (AssignerChoice.PLUS, AssignerChoice.MINUS) if vals[c] == best)

    def assigner_reply(self, M: Position, move: Move, mode: str = "optimal") -> AssignerChoice:
        """The Assigner's one reply to move for an adversary mode.

        Mode 'optimal' takes a value-minimizing reply, MINUS when both
        replies tie; mode 'potential' takes potential_guided_choice.
        """
        if mode == "optimal":
            choices = self.optimal_assigner_choices(M, move)
            return AssignerChoice.MINUS if AssignerChoice.MINUS in choices else AssignerChoice.PLUS
        if mode == "potential":
            return potential_guided_choice(M, self.e, move)
        raise ValueError(f"unknown adversary mode {mode!r}")

    def solve(self, M: Position | None = None) -> SolveResult:
        """Value, optimal move sets, and the principal variation for M.

        Defaults to the start position.  The variation's length always
        equals len(M) minus the value.
        """
        if M is None:
            M = start_position(self.params)
        val = self.value(M)
        moves = self.optimal_selector_moves(M)
        choices = {pair: self.optimal_assigner_choices(M, move_for_pair(M, *pair))
                   for pair in moves}
        variation: list[TraceStep] = []
        cur = M
        while not is_final(cur, self.e):
            mv = move_for_pair(cur, *self.optimal_selector_moves(cur)[0])
            choice = self.assigner_reply(cur, mv)
            variation.append(TraceStep(cur, mv, move_values(cur, mv), choice))
            cur = apply_move(cur, mv, choice)
        return SolveResult(val, moves, choices, variation, cur)


def solve_game(params: GameParams, memo_limit: int | None = None) -> tuple[int, SolveResult]:
    """Solve from the start; returns (comparisons needed, full result)."""
    solver = GameSolver(params, memo_limit=memo_limit)
    result = solver.solve()
    return params.n - result.value, result


def formula_comparisons(params: GameParams) -> int:
    """The closed-form comparison count 2(n-k) - binary_weight(n-k)."""
    d = params.n - params.k
    return 2 * d - binary_weight(d)


def value_nomemo(M: Position, e: int) -> int:
    """Plain recursion without a table; cross-checks the memoized solver."""
    if is_final(M, e):
        return len(M)
    return max(
        min(value_nomemo(apply_move(M, mv, c), e) for c in AssignerChoice)
        for mv in legal_moves(M)
    )


def potential_guided_choice(M: Position, e: int, move: Move) -> AssignerChoice:
    """Assigner reply minimizing the successor potential; ties pick MINUS."""
    if is_final(M, e):
        raise ValueError(f"{M} is already final for excess {e}")
    plus = potential(apply_move(M, move, AssignerChoice.PLUS), e)
    minus = potential(apply_move(M, move, AssignerChoice.MINUS), e)
    return AssignerChoice.PLUS if plus < minus else AssignerChoice.MINUS


def reachable_positions(params: GameParams, force: bool = False) -> set[Position]:
    """Every position reachable from the start under arbitrary play.

    Final positions end the game and are not expanded.  Guarded at
    n = 12 unless forced; the enumeration stays exact beyond that but
    grows quickly.
    """
    if params.n > EXHAUSTIVE_GUARD_N and not force:
        raise ValueError(
            f"exhaustive enumeration is guarded at n={EXHAUSTIVE_GUARD_N}; "
            f"pass force=True to override")
    e = params.e
    first = start_position(params)
    seen = {first}
    frontier = [first]
    while frontier:
        M = frontier.pop()
        if is_final(M, e):
            continue
        for mv in legal_moves(M):
            for choice in AssignerChoice:
                succ = apply_move(M, mv, choice)
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
    return seen
