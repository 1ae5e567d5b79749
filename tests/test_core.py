"""Game rules: parameters, positions, moves."""

import pytest
from hypothesis import given, strategies as st

from majoritygame.core import (
    AssignerChoice,
    GameParams,
    Position,
    apply_move,
    is_final,
    legal_moves,
    minority_capacity,
    move_for_pair,
    start_position,
)


positions = st.lists(st.integers(0, 6), min_size=0, max_size=8).map(
    lambda ws: Position(tuple(ws)))
# Long positions of few distinct weights, zeros the most common.
repeated_positions = st.lists(st.sampled_from((0, 0, 0, 1, 1, 2, 5)), max_size=40).map(
    lambda ws: Position(tuple(ws)))


class TestGameParams:
    def test_excess(self):
        assert GameParams(7, 4).e == 1
        assert GameParams(7, 7).e == 7
        assert GameParams(12, 8).e == 4

    def test_rejects_non_majority_threshold(self):
        with pytest.raises(ValueError):
            GameParams(4, 2)
        with pytest.raises(ValueError):
            GameParams(7, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GameParams(0, 1)
        with pytest.raises(ValueError):
            GameParams(3, 4)

    def test_rejects_non_integers(self):
        for n, k in ((True, True), (1, True), (7.0, 4), (7, 4.0), ("7", 4)):
            with pytest.raises(ValueError, match="n and k must be integers"):
                GameParams(n, k)


class TestPosition:
    def test_canonical_order(self):
        # stored ascending, the solver's key order, and printed largest first
        assert Position((1, 3, 2, 3)).elements == (1, 2, 3, 3)
        assert str(Position((1, 3, 2, 3))) == "[3^2,2,1]"
        assert Position((0, 5)).elements == (0, 5)

    def test_rejects_negative_and_non_integer(self):
        for weights in ((1, -1), (-1,), (1.5, 2), (1.0,)):
            with pytest.raises(ValueError, match="weights must be non-negative integers"):
                Position(weights)

    def test_rejects_bool_weights(self):
        # bool is an int subclass: (True, 1) would print as "[True^2]",
        # a literal that Position.parse rejects.
        for weights in ((True, 1), (2, False), (True,)):
            with pytest.raises(ValueError, match="weights must be non-negative integers"):
                Position(weights)

    def test_parse_forms(self):
        assert Position.parse("[2,1^5]") == Position((2, 1, 1, 1, 1, 1))
        assert Position.parse("[2,1,1,1,1,1]") == Position((2, 1, 1, 1, 1, 1))
        assert Position.parse("[]") == Position(())
        assert Position.parse(" [ 3^2 , 0 ] ") == Position((3, 3, 0))

    def test_parse_rejects_bad_literals(self):
        for bad in ("2,1", "[2;1]", "[1^0]", "[a]", "[1^-2]", "[-1]"):
            with pytest.raises(ValueError):
                Position.parse(bad)

    def test_str_uses_multiplicities(self):
        assert str(Position((2, 1, 1, 1, 1, 1))) == "[2,1^5]"
        assert str(Position((1,))) == "[1]"
        assert str(Position(())) == "[]"
        assert str(Position((0, 0))) == "[0^2]"

    @given(positions)
    def test_str_parse_round_trip(self, M):
        assert Position.parse(str(M)) == M

    def test_total_and_largest(self):
        M = Position((3, 1, 0))
        assert M.total == 4
        assert len(M) == 3
        assert list(M) == [0, 1, 3]


class TestCapacityAndFinal:
    def test_minority_capacity(self):
        assert minority_capacity(Position((1,) * 7), 1) == 3
        assert minority_capacity(Position((3, 1)), 2) == 1
        assert minority_capacity(Position((5,)), 5) == 0

    def test_capacity_rejects_bad_excess(self):
        with pytest.raises(ValueError):
            minority_capacity(Position((1, 1)), 1)  # parity
        with pytest.raises(ValueError):
            minority_capacity(Position((1,)), 3)  # below excess
        with pytest.raises(ValueError):
            minority_capacity(Position((1, 1)), 0)  # excess must be >= 1

    def test_is_final(self):
        assert is_final(Position((3, 1)), 2)
        assert not is_final(Position((1,) * 5), 1)
        assert is_final(Position((2, 1)), 1)
        assert not is_final(Position((2, 1, 1, 1, 1, 1)), 1)
        # the empty position with excess 0 would be vacuous; excess >= 1 only
        assert is_final(Position((1,)), 1)


class TestMoves:
    def test_legal_moves_deduplicate_value_pairs(self):
        M = Position((1, 1, 1, 1))
        assert legal_moves(M) == [(1, 1)]
        M = Position((2, 1, 1))
        assert legal_moves(M) == [(1, 1), (2, 1)]

    def test_no_moves_on_small_positions(self):
        assert legal_moves(Position(())) == []
        assert legal_moves(Position((4,))) == []

    def test_apply_move(self):
        M = Position((2, 1, 1))
        plus = apply_move(M, (2, 1), AssignerChoice.PLUS)
        minus = apply_move(M, (2, 1), AssignerChoice.MINUS)
        assert plus == Position((3, 1))
        assert minus == Position((1, 1))

    def test_apply_move_keeps_zeros(self):
        M = Position((1, 1))
        assert apply_move(M, (1, 1), AssignerChoice.MINUS) == Position((0,))

    def test_move_validation(self):
        M = Position((2, 1))
        with pytest.raises(ValueError, match=r"\[2,1\] holds no pair \(2,2\)"):
            apply_move(M, (2, 2), AssignerChoice.PLUS)  # one copy of 2, not two
        with pytest.raises(ValueError, match=r"\[2,1\] holds no pair \(1,1\)"):
            apply_move(M, (1, 1), AssignerChoice.MINUS)
        with pytest.raises(ValueError, match=r"\[2,1\] holds no pair \(3,1\)"):
            apply_move(M, (3, 1), AssignerChoice.PLUS)  # weight absent

    @given(positions.filter(lambda M: len(M) >= 2), st.data())
    def test_apply_move_invariants(self, M, data):
        w, wp = pair = data.draw(st.sampled_from(legal_moves(M)))
        for choice in AssignerChoice:
            succ = apply_move(M, pair, choice)
            assert len(succ) == len(M) - 1
            assert succ.total % 2 == M.total % 2
            if choice is AssignerChoice.PLUS:
                assert succ.total == M.total
            else:
                assert succ.total == M.total - 2 * wp

    @given(st.one_of(positions, repeated_positions))
    def test_apply_move_equals_the_validated_position(self, M):
        # apply_move builds its result unchecked; it must be the canonical one.
        for w, wp in legal_moves(M):
            rest = list(M.elements)
            rest.remove(w)
            rest.remove(wp)
            for choice, merged in ((AssignerChoice.PLUS, w + wp), (AssignerChoice.MINUS, w - wp)):
                succ = apply_move(M, (w, wp), choice)
                assert succ == Position(tuple(rest + [merged]))
                assert succ.elements == tuple(sorted(succ.elements))

    @given(st.one_of(positions, repeated_positions))
    def test_legal_moves_are_the_sorted_value_pairs_of_index_pairs(self, M):
        elems = M.elements  # ascending, so index j > i holds the larger weight
        pairs = {(elems[j], elems[i]) for i in range(len(elems)) for j in range(i + 1, len(elems))}
        assert legal_moves(M) == sorted(pairs)

    def test_legal_moves_of_many_equal_weights(self):
        assert legal_moves(Position((1,) * 4096)) == [(1, 1)]
        assert legal_moves(Position((3,) * 2000 + (0,) * 2000)) == [(0, 0), (3, 0), (3, 3)]

    @given(positions.filter(lambda M: len(M) >= 2), st.data())
    def test_apply_move_takes_either_order(self, M, data):
        w, wp = data.draw(st.sampled_from(legal_moves(M)))
        for choice in AssignerChoice:
            assert apply_move(M, (w, wp), choice) == apply_move(M, (wp, w), choice)


class TestMoveForPair:
    def test_either_order(self):
        M = Position((3, 2, 1, 1))
        assert move_for_pair(M, 3, 1) == move_for_pair(M, 1, 3) == (3, 1)

    def test_equal_weights_need_two_copies(self):
        assert move_for_pair(Position((2, 1, 1)), 1, 1) == (1, 1)
        with pytest.raises(ValueError, match=r"\[2,1\] holds no pair \(1,1\)"):
            move_for_pair(Position((2, 1)), 1, 1)

    def test_missing_pair(self):
        with pytest.raises(ValueError, match=r"\[3,2\] holds no pair \(3,1\)"):
            move_for_pair(Position((3, 2)), 1, 3)

    @given(positions.filter(lambda M: len(M) >= 2))
    def test_matches_legal_moves(self, M):
        for w, wp in legal_moves(M):
            assert move_for_pair(M, w, wp) == move_for_pair(M, wp, w) == (w, wp)


def test_start_position():
    assert start_position(GameParams(5, 3)) == Position((1, 1, 1, 1, 1))
    assert start_position(GameParams(1, 1)) == Position((1,))
