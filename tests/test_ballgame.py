"""Ball-level question game: component state, identification, transcripts."""

import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from majoritygame.ballgame import (
    BALL_SEARCH_GUARD_N,
    BallAnswer,
    InconsistentAnswerError,
    QuestionGraph,
    announced,
    ball_assigner,
    ball_selector,
    colour_options,
    export_transcript,
    export_transcript_json,
    identify_majority,
    import_transcript,
    import_transcript_json,
    induced_move_and_choice,
    merged_sizes,
    min_comparisons_ball_level,
    run_adversarial_game,
    side_status_table,
)
from majoritygame.core import (
    AssignerChoice,
    GameParams,
    Position,
    apply_move,
    is_final,
    start_position,
)
from majoritygame.solver import GameSolver, formula_comparisons, play
from majoritygame.verify import _all_ball_states, _graph_for_state, suite_reformulation


class TestQuestionGraph:
    def test_single_answers(self):
        g = QuestionGraph(5)
        g.add_comparison(1, 2, BallAnswer.DIFFERENT)
        assert g.weights() == Position((1, 1, 1, 0))
        g2 = QuestionGraph(5)
        g2.add_comparison(1, 2, BallAnswer.SAME)
        assert g2.weights() == Position((2, 1, 1, 1))

    def test_parity_propagates_along_chains(self):
        g = QuestionGraph(4)
        g.add_comparison(1, 2, BallAnswer.SAME)
        g.add_comparison(2, 3, BallAnswer.DIFFERENT)
        g.add_comparison(3, 4, BallAnswer.SAME)
        assert g.forced_answer(1, 4) is BallAnswer.DIFFERENT
        assert g.forced_answer(1, 2) is BallAnswer.SAME
        assert g.forced_answer(2, 4) is BallAnswer.DIFFERENT
        assert g.forced_answer(3, 4) is BallAnswer.SAME
        assert g.weights() == Position((0,))

    def test_forced_answer_is_none_across_components(self):
        g = QuestionGraph(3)
        g.add_comparison(1, 2, BallAnswer.SAME)
        assert g.forced_answer(1, 3) is None

    def test_inconsistent_answer_raises(self):
        g = QuestionGraph(3)
        g.add_comparison(1, 2, BallAnswer.SAME)
        g.add_comparison(2, 3, BallAnswer.SAME)
        with pytest.raises(InconsistentAnswerError):
            g.add_comparison(1, 3, BallAnswer.DIFFERENT)

    def test_consistent_repeat_is_recorded_but_harmless(self):
        g = QuestionGraph(3)
        g.add_comparison(1, 2, BallAnswer.SAME)
        g.add_comparison(1, 2, BallAnswer.SAME)
        assert len(g.history) == 2
        assert g.weights() == Position((2, 1))

    def test_validation(self):
        g = QuestionGraph(3)
        with pytest.raises(ValueError):
            g.add_comparison(1, 1, BallAnswer.SAME)
        with pytest.raises(ValueError):
            g.add_comparison(0, 2, BallAnswer.SAME)
        with pytest.raises(ValueError):
            g.add_comparison(1, 4, BallAnswer.SAME)
        with pytest.raises(ValueError):
            QuestionGraph(0)

    def test_rejects_balls_that_are_not_ints(self):
        g = QuestionGraph(3)
        for bad in (True, False, 2.0, "2"):
            with pytest.raises(ValueError, match="ball must be an integer"):
                g.add_comparison(bad, 3, BallAnswer.SAME)
            with pytest.raises(ValueError, match="ball must be an integer"):
                g.add_comparison(3, bad, BallAnswer.DIFFERENT)
            with pytest.raises(ValueError, match="ball must be an integer"):
                g.find(bad)
            with pytest.raises(ValueError, match="ball must be an integer"):
                g.forced_answer(3, bad)
        assert g.history == []
        assert g.weights() == Position((1, 1, 1))

    def test_rejects_answers_that_are_not_ball_answers(self):
        g = QuestionGraph(3)
        for bad in ("same", None, AssignerChoice.PLUS):
            with pytest.raises(ValueError, match="answer must be a BallAnswer"):
                g.add_comparison(1, 2, bad)
        assert g.history == []

    @pytest.mark.parametrize("bad", [0, 4, -1])
    def test_balls_out_of_range(self, bad):
        g = QuestionGraph(3)
        calls = [
            lambda: g.find(bad),
            lambda: g.forced_answer(bad, 2),
            lambda: g.forced_answer(2, bad),
            lambda: g.add_comparison(bad, 2, BallAnswer.SAME),
            lambda: g.add_comparison(2, bad, BallAnswer.DIFFERENT),
            lambda: induced_move_and_choice(g, bad, 2, BallAnswer.SAME),
            lambda: induced_move_and_choice(g, 2, bad, BallAnswer.SAME),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=rf"ball {bad} out of range 1\.\.3"):
                call()
        assert g.history == []

    def test_rejects_ball_counts_that_are_not_ints(self):
        for bad in (True, 2.0, "3", None):
            with pytest.raises(ValueError, match="n must be an integer"):
                QuestionGraph(bad)

    def test_sides_of_a_root(self):
        g = QuestionGraph(4)
        g.add_comparison(3, 1, BallAnswer.DIFFERENT)
        g.add_comparison(4, 3, BallAnswer.SAME)
        assert g.sides(1) == ((1,), (3, 4))
        assert g.sides(2) == ((2,), ())

    def test_components_ordering_and_tie_break(self):
        g = QuestionGraph(6)
        g.add_comparison(3, 5, BallAnswer.DIFFERENT)
        g.add_comparison(2, 6, BallAnswer.SAME)
        comps = g.components()
        assert [g.find(larger[0])[0] for larger, _ in comps] == [1, 2, 3, 4]
        assert comps[2] == ((3,), (5,))  # weight 0: the root's side counts as larger
        assert comps[1] == ((2, 6), ())


def _reference(n, history):
    """Components and ball colours from a BFS 2-colouring of the history alone."""
    adjacent = {ball: [] for ball in range(1, n + 1)}
    for i, j, answer in history:
        apart = 0 if answer is BallAnswer.SAME else 1
        adjacent[i].append((j, apart))
        adjacent[j].append((i, apart))
    colour = {}
    comps = []
    for first in range(1, n + 1):  # the smallest ball of each new component
        if first in colour:
            continue
        colour[first] = 0
        sides = ([first], [])
        queue = [first]
        for ball in queue:
            for other, apart in adjacent[ball]:
                if other not in colour:
                    colour[other] = colour[ball] ^ apart
                    sides[colour[other]].append(other)
                    queue.append(other)
        zero, one = tuple(sorted(sides[0])), tuple(sorted(sides[1]))
        # a tie goes to side 0, which holds the smallest ball
        comps.append((zero, one) if len(zero) >= len(one) else (one, zero))
    return comps, colour


def _weight(comp):
    larger, smaller = comp
    return len(larger) - len(smaller)


def _balls(comp):
    larger, smaller = comp
    return sorted(larger + smaller)


def _assert_matches_history(g):
    comps, colour = _reference(g.n, g.history)
    returned = g.components()
    assert returned == comps
    returned.reverse()
    returned.append(((1,), ()))
    assert g.components() == comps  # the caller's list is its own
    # weights() builds its Position unchecked: it must equal the validated one
    assert g.weights() == Position(tuple(map(_weight, comps)))
    comp_of = {ball: idx for idx, comp in enumerate(comps) for ball in _balls(comp)}
    for a in range(1, g.n + 1):
        root_a, side_a = g.find(a)
        for b in range(1, g.n + 1):
            root_b, side_b = g.find(b)
            connected = comp_of[a] == comp_of[b]
            assert (root_a == root_b) == connected
            if connected:
                assert (side_a == side_b) == (colour[a] == colour[b])
            if a != b:
                expected = None
                if connected:
                    expected = (BallAnswer.SAME if colour[a] == colour[b]
                                else BallAnswer.DIFFERENT)
                assert g.forced_answer(a, b) is expected


def _play(g, steps):
    """Apply random answers, checking the graph against its history after each."""
    for i, j, answer in steps:
        if i == j:
            continue
        forced = g.forced_answer(i, j)
        if forced is not None and forced is not answer:
            before = list(g.history)
            with pytest.raises(InconsistentAnswerError):
                g.add_comparison(i, j, answer)
            assert g.history == before
        else:
            g.add_comparison(i, j, answer)
        _assert_matches_history(g)


def _games(max_n=12):
    def for_n(n):
        steps = st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n), st.sampled_from(BallAnswer)),
            max_size=2 * n)
        return st.tuples(st.just(n), steps, steps, steps)
    return st.integers(1, max_n).flatmap(for_n)


class TestQuestionGraphProperties:
    @settings(max_examples=80, deadline=None)
    @given(_games())
    def test_matches_a_reference_built_from_history(self, game):
        n, first, second, third = game
        g = QuestionGraph(n)
        _assert_matches_history(g)
        _play(g, first + second + third)


class TestIdentification:
    def test_identify_after_one_different(self):
        g = QuestionGraph(5)
        g.add_comparison(1, 2, BallAnswer.DIFFERENT)
        assert identify_majority(g, GameParams(5, 4)) == 3
        assert identify_majority(g, GameParams(5, 3)) is None

    def test_identify_trivial_unanimity(self):
        g = QuestionGraph(3)
        assert identify_majority(g, GameParams(3, 3)) == 1

    def test_identify_needs_matching_ball_count(self):
        g = QuestionGraph(5)
        with pytest.raises(ValueError):
            identify_majority(g, GameParams(4, 3))

    def test_smallest_qualifying_ball_wins(self):
        g = QuestionGraph(5)
        g.add_comparison(4, 5, BallAnswer.SAME)
        g.add_comparison(2, 3, BallAnswer.SAME)
        # components {1}, {2,3}, {4,5}: for k = 3 the capacity s = 2 still
        # lets either pair be the minority, so nothing can be announced
        assert identify_majority(g, GameParams(5, 3)) is None
        g.add_comparison(2, 4, BallAnswer.SAME)
        # {2,3,4,5} has weight 4 >= s+1 = 3; ball 2 is its smallest larger-side ball
        assert identify_majority(g, GameParams(5, 3)) == 2
        # at k = 4 even a bare pair exceeds the capacity s = 1
        g2 = QuestionGraph(5)
        g2.add_comparison(4, 5, BallAnswer.SAME)
        assert identify_majority(g2, GameParams(5, 4)) == 4

    def test_colouring_oracle_examples(self):
        g = QuestionGraph(5)
        g.add_comparison(1, 2, BallAnswer.DIFFERENT)
        params = GameParams(5, 4)
        # ball 3 on the nominal larger side of a singleton: majority either way
        assert colour_options(g, params, 3) == (False, True)
        # balls 1 and 2 oppose each other; each could still be minority
        assert colour_options(g, params, 1) == (True, True)
        with pytest.raises(ValueError, match="out of range"):
            colour_options(g, params, 6)

    def test_colouring_oracle_reads_the_ball_s_own_row(self):
        for n in range(1, 6):
            for state in _all_ball_states(n):
                g = _graph_for_state(n, state)
                comps = g.components()
                for k in range(n // 2 + 1, n + 1):
                    table = side_status_table(comps, n, k)
                    for ball in range(1, n + 1):
                        idx, on_larger = _locate_ball(comps, ball)
                        assert colour_options(g, GameParams(n, k), ball) == \
                            table[idx][0 if on_larger else 1]

    def test_identification_agrees_with_colouring_oracle(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 7)
            k = rng.randint(n // 2 + 1, n)
            params = GameParams(n, k)
            g = QuestionGraph(n)
            for _ in range(rng.randint(0, n)):
                comps = g.components()
                if len(comps) == 1:
                    break
                ca, cb = rng.sample(range(len(comps)), 2)
                g.add_comparison(
                    rng.choice(_balls(comps[ca])), rng.choice(_balls(comps[cb])),
                    rng.choice((BallAnswer.SAME, BallAnswer.DIFFERENT)))
            if sum(map(_weight, g.components())) < params.e:
                continue
            announced = identify_majority(g, params)
            determined = [
                ball for ball in range(1, n + 1)
                if not colour_options(g, params, ball)[0]
            ]
            if announced is None:
                assert determined == []
            else:
                assert announced == min(determined)


class TestInducedMoves:
    def test_same_on_singletons_is_plus(self):
        g = QuestionGraph(4)
        pair, choice = induced_move_and_choice(g, 1, 2, BallAnswer.SAME)
        assert pair == (1, 1)
        assert choice is AssignerChoice.PLUS
        assert apply_move(g.weights(), pair, choice) == Position((2, 1, 1))

    def test_crossed_sides_flip_the_translation(self):
        g = QuestionGraph(4)
        g.add_comparison(1, 2, BallAnswer.DIFFERENT)
        g.add_comparison(3, 4, BallAnswer.DIFFERENT)
        # 2 sits on a smaller side, 3 on a larger side: same-colour crosses
        _, choice = induced_move_and_choice(g, 2, 3, BallAnswer.SAME)
        assert choice is AssignerChoice.MINUS
        _, choice = induced_move_and_choice(g, 1, 3, BallAnswer.SAME)
        assert choice is AssignerChoice.PLUS

    def test_within_component_raises(self):
        g = QuestionGraph(3)
        g.add_comparison(1, 2, BallAnswer.SAME)
        with pytest.raises(ValueError):
            induced_move_and_choice(g, 1, 2, BallAnswer.SAME)

    def test_commutes_with_weights_randomized(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(2, 9)
            g = QuestionGraph(n)
            while True:
                comps = g.components()
                if len(comps) == 1:
                    break
                ca, cb = rng.sample(range(len(comps)), 2)
                i = rng.choice(_balls(comps[ca]))
                j = rng.choice(_balls(comps[cb]))
                answer = rng.choice((BallAnswer.SAME, BallAnswer.DIFFERENT))
                before = g.weights()
                pair, choice = induced_move_and_choice(g, i, j, answer)
                assert pair[0] >= pair[1]
                g.add_comparison(i, j, answer)
                assert g.weights() == apply_move(before, pair, choice)


def _locate_ball(comps, ball):
    """Index of the ball's component and whether it sits on the larger side."""
    for idx, (larger, smaller) in enumerate(comps):
        if ball in larger:
            return idx, True
        if ball in smaller:
            return idx, False
    raise ValueError(f"ball {ball} not found in any component")


def _earlier_adversarial_answer(g, i, j, assigner):
    """The ball-level Assigner as first written, with its own copy of the side rule."""
    forced = g.forced_answer(i, j)
    if forced is not None:
        return forced
    comps = g.components()
    ci, i_on_larger = _locate_ball(comps, i)
    cj, j_on_larger = _locate_ball(comps, j)
    wi, wj = _weight(comps[ci]), _weight(comps[cj])
    if min(wi, wj) == 0:
        return BallAnswer.SAME
    choice = assigner(g.weights(), (wi, wj))
    same_realizes_plus = i_on_larger == j_on_larger
    if choice is AssignerChoice.PLUS:
        return BallAnswer.SAME if same_realizes_plus else BallAnswer.DIFFERENT
    return BallAnswer.DIFFERENT if same_realizes_plus else BallAnswer.SAME


def _answer_or_error(answer, *args):
    try:
        return answer(*args)
    except ValueError:
        return ValueError


class TestAdversary:
    def test_matches_the_earlier_formula_on_every_small_state(self):
        checked = 0
        for n in range(2, 7):
            solvers = {}
            for state in _all_ball_states(n):
                g = _graph_for_state(n, state)
                pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                         if g.forced_answer(i, j) is None]
                for k in range(n // 2 + 1, n + 1):
                    params = GameParams(n, k)
                    solver = solvers.setdefault(params.e, GameSolver(params.e))
                    for assigner in (solver.assigner_reply, solver.potential_reply):
                        lifted = ball_assigner(assigner)
                        for i, j in pairs:
                            assert _answer_or_error(lifted, g, i, j) is \
                                _answer_or_error(_earlier_adversarial_answer, g, i, j, assigner), \
                                (g.weights(), i, j, k, assigner.__name__)
                            checked += 1
        assert checked > 0

    def test_optimal_adversary_forces_the_formula_count(self):
        # the game returns its question graph and the ball it announced
        for n in range(1, 10):
            for k in range(n // 2 + 1, n + 1):
                params = GameParams(n, k)
                solver = GameSolver(params.e)
                graph, ball = run_adversarial_game(params, solver.selector_move,
                                                   solver.assigner_reply)
                assert len(graph.history) == formula_comparisons(params), (n, k)
                assert identify_majority(graph, params) == ball

    def test_potential_adversary_forces_the_formula_count(self):
        for n in range(1, 9):
            for k in range(n // 2 + 1, n + 1):
                params = GameParams(n, k)
                solver = GameSolver(params.e)
                graph, _ = run_adversarial_game(params, solver.selector_move,
                                                solver.potential_reply)
                assert len(graph.history) == formula_comparisons(params), (n, k)

    def test_forced_answers_win_over_strategy(self):
        g = QuestionGraph(4)
        g.add_comparison(1, 2, BallAnswer.SAME)
        params = GameParams(4, 3)
        assert ball_assigner(GameSolver(params.e).assigner_reply)(g, 1, 2) is BallAnswer.SAME

    def test_zero_weight_comparison_answers_same(self):
        g = QuestionGraph(5)
        g.add_comparison(1, 2, BallAnswer.DIFFERENT)
        params = GameParams(5, 3)
        assert ball_assigner(GameSolver(params.e).assigner_reply)(g, 1, 3) is BallAnswer.SAME

    def test_selector_comparison_is_minimal_and_optimal(self):
        params = GameParams(5, 3)
        select = ball_selector(GameSolver(params.e).selector_move)
        g = QuestionGraph(5)
        i, j = select(g)
        assert (i, j) == (1, 2)
        g.add_comparison(1, 2, BallAnswer.DIFFERENT)
        i, j = select(g)
        assert i < j and len({i, j}) == 2

    def test_selector_comparison_on_every_small_state(self):
        # The first component of weight w in root order, then the first other one
        # of weight w', each by its smallest ball, from the BFS reference alone.
        checked = 0
        for n in range(1, 7):
            solvers = {}
            for state in _all_ball_states(n):
                g = _graph_for_state(n, state)
                comps, _ = _reference(n, g.history)
                weights = list(map(_weight, comps))
                for k in range(n // 2 + 1, n + 1):
                    params = GameParams(n, k)
                    if sum(weights) < params.e or is_final(g.weights(), params.e):
                        continue
                    solver = solvers.setdefault(params.e, GameSolver(params.e))
                    w, wp = solver.selector_move(g.weights())
                    first = weights.index(w)
                    second = next(idx for idx, weight in enumerate(weights)
                                  if idx != first and weight == wp)
                    assert ball_selector(solver.selector_move)(g) == (
                        min(_balls(comps[first])), min(_balls(comps[second]))), (state, k)
                    checked += 1
        assert checked == 221

    def test_selector_comparison_raises_on_final(self):
        params = GameParams(3, 3)
        g = QuestionGraph(3)
        with pytest.raises(ValueError):
            ball_selector(GameSolver(params.e).selector_move)(g)


def _pairing_selector(M):
    """Saks and Werman's pairing Selector: merge the smallest repeated nonzero
    weight, or else the two smallest nonzero weights."""
    nonzero = [w for w in M.elements if w]  # ascending
    repeated = [w for w, larger in zip(nonzero, nonzero[1:]) if w == larger]
    if repeated:
        return repeated[0], repeated[0]
    return nonzero[1], nonzero[0]


class TestStrategyValues:
    def test_pairing_selector_meets_the_formula_at_bare_majority(self):
        # a Selector written outside the solver plays through both loops
        for n in range(1, 26, 2):
            params = GameParams(n, n // 2 + 1)
            solver = GameSolver(params.e)
            expected = formula_comparisons(params)
            for assigner in (solver.assigner_reply, solver.potential_reply):
                steps, final = play(start_position(params), params.e, _pairing_selector, assigner)
                assert len(steps) == expected and is_final(final, params.e), (n, assigner.__name__)
                graph, ball = run_adversarial_game(params, _pairing_selector, assigner)
                assert len(graph.history) == expected, (n, assigner.__name__)
                assert identify_majority(graph, params) == ball


def _reference_start_state(n):
    """The ball state as first written: a frozenset of components, each an
    unordered pair of disjoint ball sets (one possibly empty) given as a frozenset.
    """
    return frozenset(frozenset((frozenset((ball,)), frozenset())) for ball in range(1, n + 1))


def _reference_merged_states(state):
    """The merges as first written: sides aligned in the first child, crossed in the second."""
    comps = tuple(state)
    for x in range(len(comps)):
        a0, a1 = tuple(comps[x])
        for y in range(x + 1, len(comps)):
            b0, b1 = tuple(comps[y])
            rest = state - {comps[x], comps[y]}
            yield (rest | {frozenset((a0 | b0, a1 | b1))},
                   rest | {frozenset((a0 | b1, a1 | b0))})


def _root_sides(comp):
    """A reference component as ``QuestionGraph.sides``: both sides sorted, the
    side holding the smallest ball first (an empty side sorts last)."""
    zero, one = sorted([sorted(side) for side in comp], key=lambda side: (not side, side))
    return tuple(zero), tuple(one)


def _in_root_order(state):
    """A reference state in the form of ``_all_ball_states``: components by smallest ball."""
    return tuple(sorted(map(_root_sides, state)))


def _reference_states(n):
    start = _reference_start_state(n)
    seen, frontier = {start}, [start]
    while frontier:
        for pair in _reference_merged_states(frontier.pop()):
            for child in pair:
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
    return seen


def _sizes(state):
    """A reference state up to relabelling: sorted (larger, smaller) side sizes."""
    return tuple(sorted(tuple(sorted(map(len, comp), reverse=True)) for comp in state))


def _traced_peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _count(states):
    return sum(1 for _ in states)


class TestBallStates:
    def test_state_counts(self):
        assert [_count(_all_ball_states(n)) for n in range(1, 9)] == [
            1, 3, 11, 49, 257, 1539, 10299, 75905]

    def test_no_state_is_yielded_twice(self):
        for n in range(1, 8):
            states = list(_all_ball_states(n))
            assert len(set(states)) == len(states)

    def test_matches_the_frozenset_states(self):
        # so every generated state is reachable by merges from the start
        for n in range(1, 7):
            assert {_in_root_order(state) for state in _reference_states(n)} == set(
                _all_ball_states(n))

    def test_traced_footprint(self):
        # One state per ball is alive at a time: 0.004 MiB at n = 7, where the
        # set of all 10,299 states took 1.7 MiB.
        assert _traced_peak_mib(_count, _all_ball_states(7)) < 0.01
        # Up to relabelling the search keeps 0.003 MiB at n = 8 and 2 MiB at the guard.
        assert _traced_peak_mib(min_comparisons_ball_level, GameParams(8, 5)) < 0.01
        n = BALL_SEARCH_GUARD_N
        assert _traced_peak_mib(min_comparisons_ball_level, GameParams(n, n // 2 + 2)) < 4

    def test_reformulation_traced_footprint(self):
        # The whole suite peaks at 0.11 MiB; it took 2.7 MiB with each n's states in a set.
        assert _traced_peak_mib(lambda: suite_reformulation(trials=1)) < 1


class TestExhaustiveSearch:
    def test_size_merges_match_the_frozenset_merges(self):
        for n in range(1, 7):
            for state in _reference_states(n):
                labelled = {frozenset((_sizes(aligned), _sizes(crossed)))
                            for aligned, crossed in _reference_merged_states(state)}
                assert {frozenset(pair) for pair in merged_sizes(_sizes(state))} == labelled

    def test_merge_aligns_the_larger_sides(self):
        # Two balls against one, and a ball alone.
        assert list(merged_sizes(((1, 0), (2, 1)))) == [(((3, 1),), ((2, 2),))]
        # Equal components merge once.
        assert list(merged_sizes(((1, 0),) * 3)) == [
            (((1, 0), (2, 0)), ((1, 0), (1, 1)))]

    def test_finality_matches_the_colouring_oracle(self):
        checked = 0
        for n in range(1, 8):
            for state in _all_ball_states(n):
                comps = _graph_for_state(n, state).components()
                sizes = tuple(sorted((len(larger), len(smaller)) for larger, smaller in comps))
                for k in range(n // 2 + 1, n + 1):
                    if sum(map(_weight, comps)) < 2 * k - n:
                        assert announced(sizes, k)  # no admissible colouring
                        continue
                    table = side_status_table(comps, n, k)
                    assert announced(sizes, k) == any(
                        majority_ok and not minority_ok
                        for (minority_ok, majority_ok), _ in table), (state, k)
                    checked += 1
        assert checked == 27_742

    def test_matches_formula_up_to_the_guard(self):
        for n in range(1, BALL_SEARCH_GUARD_N + 1):
            for k in range(n // 2 + 1, n + 1):
                params = GameParams(n, k)
                assert min_comparisons_ball_level(params) == formula_comparisons(
                    params), (n, k)

    def test_guard(self):
        big = GameParams(BALL_SEARCH_GUARD_N + 1, BALL_SEARCH_GUARD_N)
        with pytest.raises(ValueError, match=f"guarded at n={BALL_SEARCH_GUARD_N}"):
            min_comparisons_ball_level(big)


def _reference_side_status_table(comps, n, k):
    """The colouring oracle as first written: one pass over the components per mask."""
    c = len(comps)
    larger_sizes = [len(larger) for larger, _ in comps]
    smaller_sizes = [len(smaller) for _, smaller in comps]
    larger_minority = [False] * c
    larger_majority = [False] * c
    smaller_minority = [False] * c
    smaller_majority = [False] * c
    for mask in range(1 << c):
        count_a = 0
        for idx in range(c):
            count_a += smaller_sizes[idx] if (mask >> idx) & 1 else larger_sizes[idx]
        if count_a >= k:
            majority_is_a = True
        elif n - count_a >= k:
            majority_is_a = False
        else:
            continue
        for idx in range(c):
            larger_in_a = not ((mask >> idx) & 1)
            if larger_in_a == majority_is_a:
                larger_majority[idx] = True
                if smaller_sizes[idx]:
                    smaller_minority[idx] = True
            else:
                larger_minority[idx] = True
                if smaller_sizes[idx]:
                    smaller_majority[idx] = True
    return [
        ((larger_minority[i], larger_majority[i]), (smaller_minority[i], smaller_majority[i]))
        for i in range(c)
    ]


@st.composite
def _component_lists(draw, max_components=14):
    """Components with consecutive ball labels, larger side first."""
    comps, ball = [], 1
    for _ in range(draw(st.integers(1, max_components))):
        larger = draw(st.integers(1, 3))
        smaller = draw(st.integers(0, larger))
        comps.append((tuple(range(ball, ball + larger)),
                      tuple(range(ball + larger, ball + larger + smaller))))
        ball += larger + smaller
    n = ball - 1
    return comps, n, draw(st.integers(n // 2 + 1, n))


class TestSideStatusTable:
    def test_matches_reference_on_every_small_ball_state(self):
        for n in range(1, 8):
            for state in _all_ball_states(n):
                comps = _graph_for_state(n, state).components()
                for k in range(n // 2 + 1, n + 1):
                    assert side_status_table(comps, n, k) == _reference_side_status_table(
                        comps, n, k)

    @settings(max_examples=40, deadline=None)
    @given(_component_lists())
    def test_matches_reference_on_random_components(self, case):
        comps, n, k = case
        assert side_status_table(comps, n, k) == _reference_side_status_table(comps, n, k)

    def test_guard(self):
        comps = [((b,), ()) for b in range(1, 23)]
        with pytest.raises(ValueError):
            side_status_table(comps, 22, 12)


class TestTranscripts:
    def _sample_game(self):
        params = GameParams(5, 4)
        g = QuestionGraph(5)
        g.add_comparison(1, 2, BallAnswer.DIFFERENT)
        g.add_comparison(3, 4, BallAnswer.SAME)
        return params, g

    def test_text_format(self):
        params, g = self._sample_game()
        text = export_transcript(g, params)
        assert text == "5 4\n1 2 different\n3 4 same\n"
        params2, g2 = import_transcript(text)
        assert params2 == params
        assert g2.history == g.history
        assert g2.weights() == g.weights()
        assert export_transcript(g2, params2) == text

    def test_json_format(self):
        params, g = self._sample_game()
        blob = export_transcript_json(g, params)
        payload = json.loads(blob)
        assert payload["n"] == 5 and payload["k"] == 4
        assert payload["comparisons"][0] == {"i": 1, "j": 2, "answer": "different"}
        params2, g2 = import_transcript_json(blob)
        assert params2 == params and g2.history == g.history
        assert export_transcript_json(g2, params2) == blob

    @settings(max_examples=80, deadline=None)
    @given(_games(), st.data())
    @example((1, [], [], []), None)
    @example((12, [(10, 12, BallAnswer.SAME), (1, 11, BallAnswer.DIFFERENT)], [], []), None)
    def test_json_export_matches_the_json_module(self, game, data):
        n, first, second, third = game
        g = QuestionGraph(n)
        for i, j, answer in first + second + third:
            if i != j and g.forced_answer(i, j) in (None, answer):
                g.add_comparison(i, j, answer)
        k = n if data is None else data.draw(st.integers(n // 2 + 1, n))
        payload = {
            "n": n,
            "k": k,
            "comparisons": [
                {"i": i, "j": j, "answer": answer.value} for i, j, answer in g.history],
        }
        assert export_transcript_json(g, GameParams(n, k)) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("text, message", [
        ("", "empty transcript"),
        (" \n\t\n", "empty transcript"),
        ("5\n1 2 same\n", "header must be 'n k', got '5'"),
        ("5 4 3\n", "header must be 'n k'"),
        ("5 4\n1 2\n", "bad transcript record '1 2'"),
        ("5 4\n1 2 same same\n", "bad transcript record"),
        ("5 4\n1 2 maybe\n", "bad answer 'maybe'"),
        ("5 4\n1 2 SAME\n", "bad answer 'SAME'"),
        ("5 4\n1 9 same\n", r"ball 9 out of range 1\.\.5"),
    ])
    def test_import_rejects_garbage(self, text, message):
        with pytest.raises(ValueError, match=message):
            import_transcript(text)

    def test_import_accepts_blank_lines_and_padding(self):
        params, g = self._sample_game()
        padded = "\n  5   4 \n\n\t1 2  different\r\n   \n 3\t4 same  \n\n"
        params2, g2 = import_transcript(padded)
        assert params2 == params and g2.history == g.history
        assert export_transcript(g2, params2) == export_transcript(g, params)

    @pytest.mark.parametrize("blob, message", [
        ("", "Expecting value"),
        ("{}", "missing 'n'"),
        ("[]", "must be an object"),
        ("5", "must be an object"),
        ('{"n": 5}', "missing 'k'"),
        ('{"n": 5, "k": 2}', "does not guarantee a majority"),
        ('{"n": true, "k": 4}', "'n' must be an integer, got True"),
        ('{"n": 5.0, "k": 4}', "'n' must be an integer, got 5.0"),
        ('{"n": "5", "k": 4}', "'n' must be an integer, got '5'"),
        ('{"n": 5, "k": 4, "comparisons": {}}', "'comparisons' must be a list"),
        ('{"n": 5, "k": 4, "comparisons": "1 2 same"}', "'comparisons' must be a list"),
        ('{"n": 5, "k": 4, "comparisons": [[1, 2, "same"]]}', "bad transcript record"),
        ('{"n": 5, "k": 4, "comparisons": [{"i": 1, "answer": "same"}]}', "missing 'j'"),
        ('{"n": 5, "k": 4, "comparisons": [{"i": 1, "j": 2.0, "answer": "same"}]}',
         "'j' must be an integer"),
        ('{"n": 5, "k": 4, "comparisons": [{"i": false, "j": 2, "answer": "same"}]}',
         "'i' must be an integer, got False"),
        ('{"n": 5, "k": 4, "comparisons": [{"i": 1, "j": 2}]}', "bad answer None"),
        ('{"n": 5, "k": 4, "comparisons": [{"i": 1, "j": 2, "answer": "maybe"}]}',
         "bad answer 'maybe'"),
        # unhashable and non-string answers are bad answers, not a TypeError
        ('{"n": 5, "k": 4, "comparisons": [{"i": 1, "j": 2, "answer": ["same"]}]}',
         r"bad answer \['same'\]"),
        ('{"n": 5, "k": 4, "comparisons": [{"i": 1, "j": 2, "answer": {}}]}',
         r"bad answer \{\}"),
        ('{"n": 5, "k": 4, "comparisons": [{"i": 1, "j": 2, "answer": 1}]}', "bad answer 1"),
        ('{"n": 5, "k": 4, "comparisons": [{"i": 1, "j": 9, "answer": "same"}]}',
         "out of range"),
    ])
    def test_json_import_rejects_garbage(self, blob, message):
        with pytest.raises(ValueError, match=message):
            import_transcript_json(blob)

    @pytest.mark.parametrize("importer, text", [
        (import_transcript, "2000000 1000001\n"),
        (import_transcript_json, '{"n": 2000000, "k": 1000001}'),
    ])
    def test_import_refuses_n_over_the_cap_first(self, importer, text):
        # The header alone once built a graph of 2,000,000 balls: 4.2 s and 463 MiB.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="limited to 4096 balls, got 2000000"):
                importer(text)
            assert tracemalloc.get_traced_memory()[1] / 2**20 < 1
        finally:
            tracemalloc.stop()

    def test_import_accepts_n_at_the_cap(self):
        # play --n allows 4096, so every transcript play --out writes imports
        params, g = import_transcript("4096 2049\n1 4096 different\n")
        assert params == GameParams(4096, 2049) and g.find(4096) == (1, 1)
        params, g = import_transcript_json('{"n": 4096, "k": 2049, "comparisons": []}')
        assert params == GameParams(4096, 2049) and g.n == 4096

    def test_import_replays_consistency_checks(self):
        bad = "3 2\n1 2 same\n2 3 same\n1 3 different\n"
        with pytest.raises(InconsistentAnswerError):
            import_transcript(bad)

    def test_adversarial_game_round_trips(self):
        params = GameParams(7, 4)
        solver = GameSolver(params.e)
        graph, ball = run_adversarial_game(params, solver.selector_move, solver.assigner_reply)
        text = export_transcript(graph, params)
        params2, g2 = import_transcript(text)
        assert identify_majority(g2, params2) == ball
        assert export_transcript(g2, params2) == text
