"""Signed subposition counts, weight counts, valuations, potentials."""

import math

import pytest
from hypothesis import given, strategies as st

from majoritygame import statistics as statistics_module
from majoritygame.core import AssignerChoice, Position, apply_move, legal_moves, move_values
from majoritygame.statistics import (
    INFINITE,
    WEIGHT_LIMIT,
    binary_weight,
    binomial,
    potential,
    potential_of_order,
    signed_count,
    signed_count_bruteforce,
    signed_count_recursive,
    subposition_weight_counts,
    two_adic_valuation,
)


positions = st.lists(st.integers(0, 5), min_size=0, max_size=7).map(
    lambda ws: Position(tuple(ws)))


class TestSmallHelpers:
    def test_binary_weight(self):
        assert [binary_weight(m) for m in range(9)] == [0, 1, 1, 2, 1, 2, 2, 3, 1]
        assert binary_weight(255) == 8
        with pytest.raises(ValueError):
            binary_weight(-1)

    def test_two_adic_valuation(self):
        assert two_adic_valuation(1) == 0
        assert two_adic_valuation(-12) == 2
        assert two_adic_valuation(96) == 5
        assert two_adic_valuation(0) == INFINITE

    @given(st.integers(-500, 500), st.integers(-500, 500))
    def test_valuation_is_ultrametric(self, a, b):
        v = two_adic_valuation(a + b)
        lo = min(two_adic_valuation(a), two_adic_valuation(b))
        assert v >= lo
        if two_adic_valuation(a) != two_adic_valuation(b):
            assert v == lo

    def test_binomial_matches_math_comb_for_naturals(self):
        for p in range(8):
            for r in range(10):
                assert binomial(p, r) == math.comb(p, r)

    def test_binomial_negative_upper_argument(self):
        assert binomial(-1, 3) == -1
        assert binomial(-1, 4) == 1
        assert binomial(-2, 3) == -4
        assert binomial(-3, 2) == 6
        assert binomial(5, -1) == 0

    def test_binomial_matches_falling_factorial(self):
        for p in range(-6, 13):
            for r in range(-1, 9):
                falling = 1
                for i in range(r):
                    falling *= p - i
                expected = falling // math.factorial(r) if r >= 0 else 0
                assert binomial(p, r) == expected, (p, r)


class TestWeightCounts:
    def test_known_values(self):
        assert subposition_weight_counts(Position((3, 1))) == (1, 1, 0, 1, 1)
        assert subposition_weight_counts(Position((1, 1))) == (1, 2, 1)
        assert subposition_weight_counts(Position((2, 1))) == (1, 1, 1, 1)
        assert subposition_weight_counts(Position(())) == (1,)

    def test_zero_weights_double_every_count(self):
        base = subposition_weight_counts(Position((2, 1)))
        doubled = subposition_weight_counts(Position((2, 1, 0)))
        assert doubled == tuple(2 * c for c in base)

    @given(positions)
    def test_count_invariants(self, M):
        counts = subposition_weight_counts(M)
        assert len(counts) == M.total + 1
        assert sum(counts) == 2 ** len(M)
        assert counts == counts[::-1]  # complementation symmetry
        zeros = sum(1 for w in M if w == 0)
        assert counts[0] == 2 ** zeros

    def test_total_weight_limit(self):
        assert subposition_weight_counts(Position((WEIGHT_LIMIT,)))[-1] == 1
        with pytest.raises(ValueError, match="limited to total weight"):
            subposition_weight_counts(Position((WEIGHT_LIMIT + 1,)))
        with pytest.raises(ValueError, match="limited to total weight"):
            signed_count(Position((WEIGHT_LIMIT, 1)), 1)


class TestSignedCounts:
    def test_frozen_values(self):
        assert signed_count(Position((1, 1, 1)), 1) == -2
        assert signed_count(Position(()), 0) == 1
        assert signed_count(Position((2, 1, 1)), 2) == -1
        assert signed_count(Position((1,) * 5), 1, order=2) == 3
        assert signed_count(Position((3, 1)), 2, order=2) == 1
        assert signed_count(Position((1,) * 7), 1) == -20
        assert signed_count(Position((2, 1, 1, 1, 1, 1)), 1) == -8
        assert signed_count(Position((2, 1)), 1) == 0

    def test_vacuous_excess_gives_zero(self):
        assert signed_count(Position((1, 1)), 4) == 0
        assert signed_count(Position((2, 1)), 5, order=3) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            signed_count(Position((1, 1)), 1)  # parity mismatch
        with pytest.raises(ValueError):
            signed_count(Position((1, 1)), -2)
        with pytest.raises(ValueError):
            signed_count(Position((1, 1)), 0, order=0)
        with pytest.raises(ValueError):
            signed_count_recursive(Position((1, 1)), 0, order=0)

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError):
            signed_count_bruteforce(Position((1,) * 25), 1)

    @given(st.lists(st.integers(0, 6), max_size=12))
    def test_bruteforce_matches_per_subset_reference(self, ws):
        M = Position(tuple(ws))
        weights = _subset_weights(M.elements)
        for e in range(M.total % 2, M.total + 5, 2):
            assert signed_count_bruteforce(M, e) == _per_subset_signed_count(
                weights, M.total, e), e

    def test_bruteforce_enumerates_once_per_element_tuple(self):
        elements = (6, 5, 3, 3, 1, 0, 0)
        tally = statistics_module._enumerated_weight_counts
        tally.cache_clear()
        total = sum(elements)
        for e in range(total % 2, total + 1, 2):
            signed_count_bruteforce(Position(elements), e)
        assert tally.cache_info().misses == 1
        assert sum(tally(elements)) == 2 ** len(elements)

    def test_bruteforce_never_reads_the_closed_form_weight_counts(self, monkeypatch):
        def closed_form_weight_counts(elements):
            raise AssertionError("the oracle must enumerate, not use the weight-count DP")

        statistics_module._enumerated_weight_counts.cache_clear()
        monkeypatch.setattr(statistics_module, "_weight_counts", closed_form_weight_counts)
        M = Position((6, 4, 4, 2, 1, 1, 0))
        assert signed_count_bruteforce(M, 0) == _per_subset_signed_count(
            _subset_weights(M.elements), M.total, 0)

    def test_closed_form_matches_enumeration_exhaustively(self):
        for M in _positions_up_to(9):
            total = M.total
            for e in range(total % 2, total + 1, 2):
                assert signed_count(M, e) == signed_count_bruteforce(M, e), (M, e)

    def test_iterated_matches_recursive_exhaustively(self):
        for M in _positions_up_to(7):
            total = M.total
            for e in range(total % 2, total + 1, 2):
                for order in range(1, 5):
                    assert signed_count(M, e, order) == signed_count_recursive(
                        M, e, order), (M, e, order)

    def test_conservation_across_moves_exhaustively(self):
        for M in _positions_up_to(8):
            if len(M) < 2:
                continue
            total = M.total
            for mv in legal_moves(M):
                _, wp = move_values(M, mv)
                plus = apply_move(M, mv, AssignerChoice.PLUS)
                minus = apply_move(M, mv, AssignerChoice.MINUS)
                sign = -1 if wp % 2 else 1
                for e in range(total % 2, total + 1, 2):
                    assert signed_count(M, e) == (
                        signed_count(plus, e) + sign * signed_count(minus, e)), (M, mv, e)

    def test_all_ones_closed_form(self):
        for n in range(1, 13):
            M = Position((1,) * n)
            for e in range(2 - n % 2, n + 1, 2):
                s = (n - e) // 2
                sign = -1 if s % 2 else 1
                for order in range(1, n + 1):
                    assert signed_count(M, e, order) == sign * math.comb(n - order, s)


def test_every_cache_is_bounded():
    caches = [f for f in vars(statistics_module).values() if hasattr(f, "cache_info")]
    assert caches
    for f in caches:
        assert f.cache_info().maxsize is not None, f.__name__


class TestPotential:
    def test_frozen_values(self):
        assert potential(Position((1,) * 7), 1) == 3
        assert potential(Position((2, 1, 1, 1, 1, 1)), 1) == 4
        assert potential(Position((3, 1)), 2) == 2
        assert potential(Position((2, 1)), 1) == INFINITE
        assert potential(Position((1, 1, 1)), 1) == 2
        assert potential(Position((1, 1, 1, 0)), 3) == 4

    def test_order_defaults_to_excess(self):
        M = Position((1,) * 5)
        assert potential(M, 1) == potential_of_order(M, 1, 1)
        M = Position((3, 1, 1, 1))
        assert potential(M, 2) == potential_of_order(M, 2, 2)

    def test_requires_positive_excess(self):
        with pytest.raises(ValueError):
            potential(Position((1, 1)), 0)

    def test_start_positions(self):
        for n in range(1, 20):
            for e in range(1, n + 1):
                if (n - e) % 2:
                    continue
                s = (n - e) // 2
                assert potential(Position((1,) * n), e) == e + binary_weight(s)


def _positions_up_to(max_total):
    out = []

    def parts(total, max_part):
        if total == 0:
            yield ()
            return
        for first in range(min(total, max_part), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    for total in range(max_total + 1):
        for part in parts(total, total):
            out.append(Position(part))
            out.append(Position(part + (0,)))
    return out


def _subset_weights(elements):
    """Weights of all 2^len(elements) submultisets, one entry each."""
    weights = [0]
    for w in elements:
        weights.extend([wt + w for wt in weights])
    return weights


def _per_subset_signed_count(weights, total, e):
    """The order-1 signed count as one signed term per listed submultiset."""
    bound = total - e
    acc = 0
    for wt in weights:
        if 2 * wt <= bound:
            acc += 1 - 2 * (wt & 1)
    return acc
