"""Minimax solving, strategy extraction, and the potential's guarantees."""

import weakref

import pytest
from hypothesis import given, settings, strategies as st

from majoritygame import cli as cli_module, solver as solver_module
from majoritygame.ballgame import BallAnswer, QuestionGraph
from majoritygame.core import (
    AssignerChoice,
    GameParams,
    Position,
    apply_move,
    is_final,
    legal_moves,
    start_position,
)
from majoritygame.solver import (
    EXHAUSTIVE_GUARD_N,
    GameSolver,
    MemoLimitExceeded,
    SolverStats,
    formula_comparisons,
    lower_scoring_reply,
    play,
    reachable_positions,
)
from majoritygame.statistics import WEIGHT_LIMIT, binary_weight, potential
from majoritygame.verify import suite_formula


def _replies(M):
    """(pair, plus child, minus child) for every legal move of M."""
    return tuple((pair, *(apply_move(M, pair, c) for c in AssignerChoice))
                 for pair in legal_moves(M))


def _children(weights):
    """(plus, minus) weight tuples for each distinct pair w >= w' of ascending weights."""
    last = [x for x, w in enumerate(weights) if x + 1 == len(weights) or weights[x + 1] != w]
    children = []
    for x in last:  # w at its last copy, w' at its last copy before x
        for y in range(x):
            if y + 1 == x or weights[y + 1] != weights[y]:
                w, wp = weights[x], weights[y]
                rest = weights[:y] + weights[y + 1:x] + weights[x + 1:]
                children.append((tuple(sorted(rest + (w + wp,))), tuple(sorted(rest + (w - wp,)))))
    return children


def _reference_values(roots, excesses):
    """Values at each excess of the roots and of every position below them, bottom-up.

    The kernel's reference: no table, no null window, and neither `core`'s
    moves nor its finality test: positions are ascending weight tuples.  One
    call lists each position's children once (none for a position final at
    every excess), then values the positions valid at each excess, fewest
    elements first, zeros kept.  A final position, whose largest weight
    exceeds s with 2s + e the total, is worth its element count; any other
    is worth its best pair's worse reply, read off children of one element
    fewer, already valued.  Returns {e: {weights: value}}.
    """
    least = min(excesses)
    below = {}  # scoped to this call
    stack = [M.elements for M in roots]
    while stack:
        weights = stack.pop()
        if weights not in below:
            final = 2 * weights[-1] > sum(weights) - least
            below[weights] = [] if final else _children(weights)
            stack.extend(child for pair in below[weights] for child in pair)
    order = sorted(below, key=len)
    values = {}
    for e in excesses:
        at = values[e] = {}
        for weights in order:
            total = sum(weights)
            if total >= e and (total - e) % 2 == 0:
                at[weights] = len(weights) if 2 * weights[-1] > total - e else max(
                    min(at[plus], at[minus]) for plus, minus in below[weights])
    return values


def _reference_value(M, e):
    return _reference_values([M], [e])[e][M.elements]


def _partitions(total, count, cap):
    """Weakly decreasing tuples of count weights, each at most cap, summing to total."""
    if count == 0:
        if total == 0:
            yield ()
        return
    for w in range(min(total, cap), -(-total // count) - 1, -1):
        for rest in _partitions(total - w, count - 1, w):
            yield (w,) + rest


def _reachable_by_excess(max_n):
    """Yield (e, positions, values) for each excess e up to max_n.

    The positions are the non-final ones reachable in some game with
    n <= max_n at excess e; the values are their reference values.
    """
    for e in range(1, max_n + 1):
        reached = set().union(*(reachable_positions(GameParams(n, (n + e) // 2))
                                for n in range(e, max_n + 1, 2)))
        live = sorted((M for M in reached if not is_final(M, e)), key=lambda M: M.elements)
        yield e, live, _reference_values(reached, [e])[e]


class TestValues:
    def test_frozen_position_values(self):
        assert GameSolver(1).value(Position((1, 1, 1))) == 2
        assert GameSolver(1).value(Position((1,) * 5)) == 2
        assert GameSolver(1).value(Position((2, 1))) == 2  # final

    def test_frozen_comparison_counts(self):
        for n, k, expected in [(3, 2, 1), (5, 4, 1), (5, 3, 3), (7, 4, 4), (13, 7, 10)]:
            params = GameParams(n, k)
            steps, _ = GameSolver(params.e).solve(start_position(params))
            assert len(steps) == expected, (n, k)

    def test_unanimous_games_need_no_comparisons(self):
        for n in range(1, 10):
            start = start_position(GameParams(n, n))
            assert GameSolver(n).solve(start) == ([], start)

    def test_formula(self):
        assert formula_comparisons(GameParams(5, 3)) == 3
        assert formula_comparisons(GameParams(7, 4)) == 4
        assert formula_comparisons(GameParams(100, 67)) == 2 * 33 - 2

    def test_matches_reference_on_every_small_position(self):
        # every position of total <= 16 with at most 16 elements, at every
        # valid excess: 70,870 cases, 16,120 of them not final
        positions = [Position(ws) for total in range(17) for count in range(1, 17)
                     for ws in _partitions(total, count, total)]
        reference = _reference_values(positions, range(1, 17))
        for e in range(1, 17):
            valid = [M for M in positions if M.total >= e and (M.total - e) % 2 == 0]
            solver = GameSolver(e)
            for M in valid:
                assert solver.value(M) == reference[e][M.elements], (M, e)

    def test_every_first_guess_gives_the_value(self, monkeypatch):
        # the seed only orders the null-window tests: force each first guess
        # 1..len(M) on every non-final position of total <= 15, a fresh table per
        # guess (110,957 solves; total 16 took over 2 s)
        positions = [Position(ws) for total in range(16) for count in range(1, 16)
                     for ws in _partitions(total, count, total)]
        reference = _reference_values(positions, range(1, 16))
        for e in range(1, 16):
            live = [M for M in positions
                    if M.total >= e and (M.total - e) % 2 == 0 and not is_final(M, e)]
            for guess in range(1, 16):
                monkeypatch.setattr(solver_module, "potential", lambda M, e: guess)
                solver = GameSolver(e)
                for M in live:
                    if len(M) >= guess:
                        assert solver.value(M) == reference[e][M.elements], (M, e, guess)

    def test_total_past_the_weight_limit_starts_from_two(self):
        # potential refuses this total, so the first guess is lo + 1
        M = Position((2100, 2100, 2))
        assert M.total > WEIGHT_LIMIT
        assert GameSolver(2).value(M) == 2

    def test_value_validates_at_the_boundary(self):
        with pytest.raises(ValueError, match="parity"):
            GameSolver(1).value(Position((2,)))
        with pytest.raises(ValueError, match="below"):
            GameSolver(3).value(Position((1,)))

    @pytest.mark.parametrize("e", [0, -1, True, 1.0])
    def test_excess_must_be_a_positive_int(self, e):
        with pytest.raises(ValueError, match="excess"):
            GameSolver(e)

    def test_bare_majority_matches_classical_bound(self):
        # K(2m+1, m+1) = 2m - B(m), the n - B(n) bound of Saks & Werman (1991)
        for m in range(1, 17):
            params = GameParams(2 * m + 1, m + 1)
            comparisons = params.n - GameSolver(params.e).value(start_position(params))
            assert comparisons == 2 * m - binary_weight(m), m

    def test_solver_agrees_with_formula_midrange(self):
        for n in range(1, 13):
            for k in range(n // 2 + 1, n + 1):
                params = GameParams(n, k)
                comparisons = n - GameSolver(params.e).value(start_position(params))
                assert comparisons == formula_comparisons(params), (n, k)


def _reachable_weights(e: int):
    """Positions of at most 7 weights in 0..4 that a game at excess e can reach."""
    return st.lists(st.integers(0, 4), min_size=1, max_size=7).filter(
        lambda ws: sum(ws) >= e and (sum(ws) - e) % 2 == 0).map(
        lambda ws: Position(tuple(ws)))


def _zero_heavy_weights(e: int):
    """Reachable positions of at most 7 weights, two to four of them zero."""
    return st.tuples(st.integers(2, 4), st.lists(st.integers(1, 4), min_size=1, max_size=3)).filter(
        lambda zw: sum(zw[1]) >= e and (sum(zw[1]) - e) % 2 == 0).map(
        lambda zw: Position((0,) * zw[0] + tuple(zw[1])))


def _any_weights(e: int):
    return st.one_of(_reachable_weights(e), _zero_heavy_weights(e))


class TestValueProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda e: st.tuples(st.just(e), _any_weights(e))))
    def test_matches_reference_on_any_position(self, case):
        e, M = case
        assert GameSolver(e).value(M) == _reference_value(M, e)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda e: st.tuples(st.just(e), _reachable_weights(e), st.integers(1, 3))))
    def test_each_zero_adds_one_and_no_entry(self, case):
        # value(M + 0^z) = value(M) + z, and the table never keys on a zero
        e, M, z = case
        padded = Position(M.elements + (0,) * z)
        plain, zeros = GameSolver(e), GameSolver(e)
        true = _reference_value(M, e)
        assert zeros.value(padded) == true + z
        assert plain.value(M) == true
        assert zeros.stats.entries == plain.stats.entries
        assert all(0 not in key for key in zeros._bounds)
        # a table warmed on M answers the padded position from its stored bounds
        assert plain.value(padded) == true + z
        assert plain.stats.entries == zeros.stats.entries

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda e: st.tuples(st.just(e), st.lists(_reachable_weights(e), min_size=2, max_size=8))))
    def test_reused_solver_matches_fresh_solvers(self, case):
        e, positions = case
        reused = GameSolver(e)
        for M in positions:
            assert reused.value(M) == GameSolver(e).value(M), M

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda e: st.tuples(
        st.just(e),
        st.lists(st.one_of(
            st.integers(0, 6).map(lambda d: Position((1,) * (e + 2 * d))),  # starts (e + 2d, e + d)
            _reachable_weights(e)), min_size=2, max_size=6))))
    def test_shared_table_matches_fresh_solvers(self, case):
        # bounds proven from one root stay valid from every other root of the same excess
        e, positions = case
        shared = GameSolver(e)
        for M in positions:
            fresh = GameSolver(e)
            assert shared.value(M) == fresh.value(M), M
            if not is_final(M, e):
                assert shared.selector_move(M) == fresh.selector_move(M), M
                for pair in legal_moves(M):
                    assert (shared.assigner_reply(M, pair)
                            is fresh.assigner_reply(M, pair)), (M, pair)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda e: st.tuples(st.just(e), _any_weights(e))))
    def test_null_window_test_is_fail_soft(self, case):
        # _test(key, g) >= g exactly when value >= g, and the bound lies on that side
        e, M = case
        solver = GameSolver(e)
        key = M.elements
        true = _reference_value(M, e)
        for g in range(1, len(M) + 2):
            b = solver._test(key, g)
            assert (b >= g) == (true >= g), (g, b, true)
            assert true >= b if b >= g else true <= b, (g, b, true)

    def test_every_layer_keeps_the_table_key_order(self):
        # positions store their weights ascending, as the solver keys its table
        M = Position((3, 1, 2, 1, 1))
        assert M.elements == (1, 1, 1, 2, 3)
        solver = GameSolver(2)
        solver.value(M)
        assert M.elements in solver._bounds
        assert apply_move(M, (2, 1), AssignerChoice.PLUS).elements == (1, 1, 3, 3)
        g = QuestionGraph(5)
        g.add_comparison(1, 2, BallAnswer.SAME)
        assert g.weights().elements == (1, 1, 1, 2)


class TestStats:
    def test_counts_only_memo_misses(self):
        solver = GameSolver(1)
        start = start_position(GameParams(13, 7))
        assert solver.stats == SolverStats()
        solver.value(start)
        first = solver.stats.entries
        scans = solver.stats.probes - solver.stats.hits
        assert first > 0 and solver.stats.hits > 0
        solver.value(start)
        assert solver.stats.entries == first
        assert solver.stats.probes - solver.stats.hits == scans

    @pytest.mark.parametrize("n, k, expected", [
        (25, 13, SolverStats(entries=1351, probes=7781, hits=5710)),
        (29, 15, SolverStats(entries=1461, probes=8613, hits=6324)),
        (28, 15, SolverStats(entries=1585, probes=9411, hits=6729)),
    ])
    def test_exact_counters_of_a_deep_solve(self, n, k, expected):
        # pins the work of the kernel and of value's MTD(f) loop seeded at the potential
        params = GameParams(n, k)
        solver = GameSolver(params.e)
        solver.value(start_position(params))
        assert solver.stats == expected

    def test_final_position_is_one_entry(self):
        solver = GameSolver(1)
        # value answers a final position before any probe
        assert solver.value(Position((2, 1))) == 2
        assert solver.stats == SolverStats()
        # in the kernel, the first probe stores the exact value, the second reads it back
        for _ in range(2):
            assert solver._test((1, 2), 2) == 2
        assert solver.stats == SolverStats(entries=1, probes=2, hits=1)

    def test_cuts_shrink_the_table_below_the_reachable_set(self):
        for n, k in [(9, 5), (11, 6), (12, 7)]:
            params = GameParams(n, k)
            solver = GameSolver(params.e)
            solver.value(start_position(params))
            assert solver.stats.entries < len(reachable_positions(params)), (n, k)


class TestStrategies:
    def test_final_position_raises(self):
        solver = GameSolver(1)
        with pytest.raises(ValueError, match="already final"):
            solver.selector_move(Position((2, 1)))
        for assigner in (solver.assigner_reply, solver.potential_reply):
            with pytest.raises(ValueError, match="already final"):
                assigner(Position((2, 1)), (2, 1))

    def test_selector_move_is_the_smallest_optimal_pair(self):
        # every reachable non-final position of every game with n <= 9
        for e, positions, reference in _reachable_by_excess(9):
            solver = GameSolver(e)
            for M in positions:
                optimal = [pair for pair, plus, minus in _replies(M)
                           if min(reference[plus.elements], reference[minus.elements])
                           >= reference[M.elements]]
                assert solver.selector_move(M) == min(optimal), (M, e)

    def test_principal_variation_length(self):
        # solve plays the solver's own strategies: one step per comparison, ending at the value
        for n in range(1, 13):
            for k in range(n // 2 + 1, n + 1):
                params = GameParams(n, k)
                start, solver = start_position(params), GameSolver(params.e)
                steps, final = solver.solve(start)
                assert (steps, final) == play(start, params.e, solver.selector_move,
                                              solver.assigner_reply), (n, k)
                assert len(steps) == formula_comparisons(params), (n, k)
                assert is_final(final, params.e) and len(final) == solver.value(start), (n, k)

    def test_principal_variation_steps_compose(self):
        params = GameParams(7, 4)
        steps, final = GameSolver(params.e).solve(start_position(params))
        cur = start_position(params)
        for step in steps:
            assert step.position == cur
            cur = apply_move(cur, step.pair, step.choice)
        assert cur == final

    def test_potential_reply_cancels_the_opening_pair(self):
        # cancelling the opening pair is strictly better for the potential at m=3
        M = start_position(GameParams(7, 4))
        assert GameSolver(1).potential_reply(M, (1, 1)) is AssignerChoice.MINUS

    def test_play_from_a_final_position_takes_no_step(self):
        def never(*args):
            raise AssertionError("no strategy is asked at a final position")
        M = Position((2, 1))
        assert play(M, 1, never, never) == ([], M)


class TestAssignerReply:
    def test_tie_gives_minus(self):
        solver = GameSolver(1)
        M = Position((1,) * 7)
        assert len({solver.value(apply_move(M, (1, 1), c)) for c in AssignerChoice}) == 1
        assert solver.assigner_reply(M, (1, 1)) is AssignerChoice.MINUS

    def test_reply_minimizes_value_or_potential(self):
        # every move from every reachable non-final position of every game with n <= 9
        for e, positions, reference in _reachable_by_excess(9):
            solver = GameSolver(e)
            scores = {solver.assigner_reply: lambda M: reference[M.elements],
                      solver.potential_reply: lambda M: potential(M, e)}
            for M in positions:
                for pair, plus, minus in _replies(M):
                    for assigner, score in scores.items():
                        expected = (AssignerChoice.MINUS if score(minus) <= score(plus)
                                    else AssignerChoice.PLUS)
                        assert assigner(M, pair) is expected, (M, pair, assigner.__name__)

    def test_tie_rule_takes_any_score(self):
        # PLUS makes [2,1^5] and MINUS makes [1^5,0]; score each by its largest weight
        M = Position((1,) * 7)
        largest = lambda child: child.elements[-1]
        assert lower_scoring_reply(M, (1, 1), 1, largest) is AssignerChoice.MINUS
        assert lower_scoring_reply(M, (1, 1), 1, lambda c: -largest(c)) is AssignerChoice.PLUS
        assert lower_scoring_reply(M, (1, 1), 1, lambda c: 0) is AssignerChoice.MINUS
        with pytest.raises(ValueError, match="already final"):
            lower_scoring_reply(Position((2, 1)), (2, 1), 1, largest)


class TestMemoLimit:
    def test_cap_aborts_and_evicts_nothing(self, monkeypatch):
        start = start_position(GameParams(9, 5))
        monkeypatch.setattr(solver_module, "MEMO_LIMIT", 3)
        capped = GameSolver(1)
        with pytest.raises(MemoLimitExceeded, match="exceed 3 entries"):
            capped.value(start)
        assert capped.stats.entries == 3
        monkeypatch.undo()
        assert 9 - GameSolver(1).value(start) == 7


class TestSolvedStarts:
    @pytest.fixture
    def built(self, monkeypatch):
        """Excesses of the solvers built, checking that no other table is alive."""
        live = weakref.WeakSet()
        excesses = []

        class Tracked(GameSolver):
            def __init__(self, e):
                assert not [s.e for s in live if s._bounds], "another table is alive"
                super().__init__(e)
                live.add(self)
                excesses.append(e)

        for module in (solver_module, cli_module):
            monkeypatch.setattr(module, "GameSolver", Tracked)
        return excesses

    def test_table_keeps_one_table_alive(self, built, capsys):
        assert cli_module.main(["table", "--max-n", "16"]) == 0
        assert built == list(range(1, 17))

    def test_formula_suite_keeps_one_table_alive(self, built):
        assert suite_formula().passed
        assert built == list(range(1, 13))


class TestReachability:
    def test_small_game_positions(self):
        reached = reachable_positions(GameParams(3, 2))
        assert reached == {
            Position((1, 1, 1)),
            Position((2, 1)),
            Position((1, 0)),
        }

    def test_final_positions_are_not_expanded(self):
        # [2,1] is final for e=1; its successors must not appear
        reached = reachable_positions(GameParams(3, 2))
        assert Position((3,)) not in reached
        assert Position((1,)) not in reached

    def test_guard(self):
        with pytest.raises(ValueError):
            reachable_positions(GameParams(EXHAUSTIVE_GUARD_N + 2, EXHAUSTIVE_GUARD_N))


def test_start_potential_equals_optimal_final_size():
    # e + binary_weight(s) at the start equals n - comparisons under optimal play
    for n in range(1, 13):
        for k in range(n // 2 + 1, n + 1):
            params = GameParams(n, k)
            s = n - k
            steps, final = GameSolver(params.e).solve(start_position(params))
            assert potential(start_position(params), params.e) == params.e + binary_weight(s)
            assert len(final) == n - len(steps)
