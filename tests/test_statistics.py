"""Signed subposition counts, weight counts, valuations, potentials."""

import math
import time

import pytest
from hypothesis import given, strategies as st

from majoritygame import statistics as statistics_module
from majoritygame.core import AssignerChoice, Position, apply_move, legal_moves
from majoritygame.statistics import (
    INFINITE,
    WEIGHT_LIMIT,
    binary_weight,
    binomial,
    potential,
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

    @given(st.lists(st.sampled_from((0, 0, 1, 1, 1, 2, 2, 3, 7)), max_size=30))
    def test_matches_a_shift_add_reference(self, ws):
        counts = [1]
        for w in ws:  # multiply by (1 + x^w), one element at a time
            counts = [a + b for a, b in zip(counts + [0] * w, [0] * w + counts)]
        assert subposition_weight_counts(Position(tuple(ws))) == tuple(counts)

    def test_all_ones_give_a_binomial_row(self):
        for n in range(301):
            row = tuple(math.comb(n, r) for r in range(n + 1))
            assert subposition_weight_counts(Position((1,) * n)) == row

    def test_many_repeated_weights_are_fast(self):
        statistics_module._weight_counts.cache_clear()
        start = time.perf_counter()
        counts = subposition_weight_counts(Position((2,) + (1,) * 4094))
        assert time.perf_counter() - start < 1.0
        assert counts[:3] == (1, 4094, math.comb(4094, 2) + 1)

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
        assert signed_count_recursive(Position((2, 1)), 5, 3) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            signed_count(Position((1, 1)), 1)  # parity mismatch
        with pytest.raises(ValueError):
            signed_count(Position((1, 1)), -2)
        with pytest.raises(ValueError):
            signed_count(Position((1, 1)), 0, order=0)
        with pytest.raises(ValueError):
            signed_count_recursive(Position((1, 1)), 0, order=0)
        M = Position((2, 1))
        with pytest.raises(ValueError, match="order must be an integer"):
            signed_count_recursive(M, 1, 2.5)
        with pytest.raises(ValueError, match="order must be an integer"):
            signed_count(M, 1, True)
        with pytest.raises(ValueError, match="excess must be an integer"):
            signed_count(M, 1.0)
        with pytest.raises(ValueError, match="excess must be an integer"):
            signed_count_bruteforce(M, True)
        with pytest.raises(ValueError, match="excess must be an integer"):
            signed_count_recursive(M, "1", 1)
        for e in (True, 1.0, "1"):
            with pytest.raises(ValueError, match="potential needs an integer excess"):
                potential(M, e)

    def test_bruteforce_guard(self):
        message = "enumeration is limited to 24 elements, got 25"
        with pytest.raises(ValueError, match=message):
            signed_count_bruteforce(Position((1,) * 25), 1)
        with pytest.raises(ValueError, match=message):
            signed_count_recursive(Position((1,) * 25), 1, 2)

    def test_enumeration_total_weight_limit(self):
        at_limit = Position((WEIGHT_LIMIT,))
        assert signed_count_bruteforce(at_limit, 0) == signed_count(at_limit, 0)
        assert signed_count_recursive(at_limit, 0, 2) == signed_count(at_limit, 0, 2)
        past_limit = Position((WEIGHT_LIMIT + 1,))
        with pytest.raises(ValueError, match="limited to total weight"):
            signed_count_bruteforce(past_limit, 1)
        with pytest.raises(ValueError, match="limited to total weight"):
            signed_count_recursive(past_limit, 1, 1)

    @given(st.lists(st.integers(0, 6), max_size=12))
    def test_bruteforce_matches_per_subset_reference(self, ws):
        M = Position(tuple(ws))
        weights = _subset_weights(M.elements)
        for e in range(M.total % 2, M.total + 5, 2):
            assert signed_count_bruteforce(M, e) == _per_subset_signed_count(
                weights, M.total, e), e

    def test_bruteforce_enumerates_once_per_element_tuple(self):
        M = Position((6, 5, 3, 3, 1, 0, 0))
        columns = statistics_module._order_column
        columns.cache_clear()
        for e in range(M.total % 2, M.total + 1, 2):
            signed_count_bruteforce(M, e)
        assert columns.cache_info().misses == 1
        assert len(columns(M.elements, 1)) == M.total // 2 + 1

    def test_bruteforce_never_reads_the_closed_form_weight_counts(self, monkeypatch):
        def closed_form_weight_counts(elements):
            raise AssertionError("the oracle must enumerate, not use the weight-count DP")

        def closed_form_row(s, order):
            raise AssertionError("the oracle must sum its own columns, not the binomial row")

        statistics_module._order_column.cache_clear()
        monkeypatch.setattr(statistics_module, "_weight_counts", closed_form_weight_counts)
        monkeypatch.setattr(statistics_module, "_signed_binomials", closed_form_row)
        M = Position((6, 4, 4, 2, 1, 1, 0))
        assert signed_count_bruteforce(M, 0) == _per_subset_signed_count(
            _subset_weights(M.elements), M.total, 0)

    def test_recursive_never_reads_the_closed_form_weight_counts(self, monkeypatch):
        def closed_form_weight_counts(elements):
            raise AssertionError("the oracle must enumerate, not use the weight-count DP")

        def closed_form_row(s, order):
            raise AssertionError("the oracle must sum its own columns, not the binomial row")

        statistics_module._order_column.cache_clear()
        monkeypatch.setattr(statistics_module, "_weight_counts", closed_form_weight_counts)
        monkeypatch.setattr(statistics_module, "_signed_binomials", closed_form_row)
        M = Position((6, 4, 4, 2, 1, 1, 0))
        weights = _subset_weights(M.elements)
        for order in range(1, 5):
            for e in range(0, M.total + 3, 2):
                assert signed_count_recursive(M, e, order) == _per_subset_iterated(
                    weights, M.total, e, order), (e, order)

    def test_recursive_builds_one_column_per_order(self):
        elements = (6, 5, 3, 3, 1, 0, 0)
        columns = statistics_module._order_column
        columns.cache_clear()
        total = sum(elements)
        for order in range(1, 5):
            for e in range(total % 2, total + 3, 2):
                signed_count_recursive(Position(elements), e, order)
            assert columns.cache_info().misses == order

    def test_recursive_reaches_high_orders_from_a_cold_cache(self):
        statistics_module._order_column.cache_clear()
        M = Position((1, 1))
        assert signed_count_recursive(M, 0, 3000) == signed_count(M, 0, 3000) == 2998

    def test_recursive_matches_closed_form_at_large_totals(self):
        for M in (Position((2400,)), Position((1200, 1200))):
            for e in (0, 2, M.total, M.total + 2):
                for order in range(1, 4):
                    assert signed_count_recursive(M, e, order) == signed_count(
                        M, e, order), (M, e, order)

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
            for pair in legal_moves(M):
                _, wp = pair
                plus = apply_move(M, pair, AssignerChoice.PLUS)
                minus = apply_move(M, pair, AssignerChoice.MINUS)
                sign = -1 if wp % 2 else 1
                for e in range(total % 2, total + 1, 2):
                    assert signed_count(M, e) == (
                        signed_count(plus, e) + sign * signed_count(minus, e)), (M, pair, e)

    @given(positions)
    def test_closed_form_matches_its_literal_sum(self, M):
        for e in range(M.total % 2, M.total + 5, 2):
            for order in range(1, 9):
                assert signed_count(M, e, order) == _literal_signed_count(M, e, order), (e, order)

    def test_closed_form_matches_its_literal_sum_at_scale(self):
        ones = Position((1,) * 300)
        for e in range(0, 301, 2):
            for order in range(1, 41):
                assert signed_count(ones, e, order) == _literal_signed_count(ones, e, order)
        single = Position((4096,))
        assert signed_count(single, 1024, 85) == _literal_signed_count(single, 1024, 85)
        at_s_zero = Position((5, 0, 0))
        assert signed_count(at_s_zero, 5, 3000) == _literal_signed_count(at_s_zero, 5, 3000) == 4

    def test_potentials_at_one_s_share_one_row(self):
        rows = statistics_module._signed_binomials
        rows.cache_clear()
        e, s = 3, 4
        same_s = [M for M in _positions_up_to(2 * s + e) if M.total == 2 * s + e]
        for M in same_s:
            potential(M, e)
        assert len(same_s) == 112
        assert rows.cache_info().misses == 1

    def test_row_cache_stays_bounded_over_many_orders(self):
        rows = statistics_module._signed_binomials
        rows.cache_clear()
        M = Position((5,))
        for order in range(1, 43_691):
            signed_count(M, 1, order)
        info = rows.cache_info()
        assert info.misses == 43_690
        assert info.currsize <= info.maxsize

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
    assert statistics_module._signed_binomials in caches
    for f in caches:
        assert f.cache_info().maxsize is not None, f.__name__


def test_weight_counts_are_cached_only_for_small_tuples():
    cache = statistics_module._weight_counts
    cache.cache_clear()
    large = Position((2,) + (1,) * 4093)  # total 4,095
    potential(large, 1)
    assert subposition_weight_counts(large)[:2] == (1, 4093)
    assert cache.cache_info().currsize == 0
    # Only the latest larger tuple is kept, so many orders on it count it once.
    latest = statistics_module._latest_large_weight_counts
    latest.cache_clear()
    for order in range(1, 101):
        signed_count(large, 4095, order)
    assert latest.cache_info().misses == 1
    assert latest.cache_info().currsize == 1
    # Past the bound by total (65) or by element count (65) counts stay uncached.
    subposition_weight_counts(Position((1,) * 65))
    subposition_weight_counts(Position((1,) * 63 + (0, 0)))
    assert cache.cache_info().currsize == 0
    subposition_weight_counts(Position((1,) * 64))
    assert cache.cache_info().currsize == 1
    small = Position((6, 5, 4, 3, 2, 2, 1, 1))  # total 24
    signed_count(small, 0)
    hits = cache.cache_info().hits
    potential(small, 2)
    assert cache.cache_info().hits == hits + 1


def test_signed_binomial_rows_are_cached_only_for_small_s():
    rows = statistics_module._signed_binomials
    rows.cache_clear()
    potential(Position((1,) * 4095), 1)  # s = 2,047
    signed_count(Position((1,) * 131), 1, 3)  # s = 65, one past the bound
    assert rows.cache_info().currsize == 0
    signed_count(Position((1,) * 130), 2, 3)  # s = 64 enters
    assert rows.cache_info().currsize == 1
    small = Position((6, 5, 4, 3, 2, 2, 1, 1))  # total 24
    potential(small, 2)
    hits = rows.cache_info().hits
    potential(small, 2)
    assert rows.cache_info().hits == hits + 1


class TestPotential:
    def test_frozen_values(self):
        assert potential(Position((1,) * 7), 1) == 3
        assert potential(Position((2, 1, 1, 1, 1, 1)), 1) == 4
        assert potential(Position((3, 1)), 2) == 2
        assert potential(Position((2, 1)), 1) == INFINITE
        assert potential(Position((1, 1, 1)), 1) == 2
        assert potential(Position((1, 1, 1, 0)), 3) == 4

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


def _per_subset_iterated(weights, total, e, order):
    """The order-``order`` signed count by summing the order below over e, e+2, ..."""
    if order == 1:
        return _per_subset_signed_count(weights, total, e)
    return sum(_per_subset_iterated(weights, total, ee, order - 1)
               for ee in range(e, total + 1, 2))


def _literal_signed_count(M, e, order):
    """The closed form summed term by term: one math.comb per weight r <= s."""
    s = (M.total - e) // 2
    counts = subposition_weight_counts(M)
    acc = 0
    for r in range(s + 1):
        term = math.comb(s + order - 1 - r, order - 1) * counts[r]
        acc += -term if r & 1 else term
    return acc


def _per_subset_signed_count(weights, total, e):
    """The order-1 signed count as one signed term per listed submultiset."""
    bound = total - e
    acc = 0
    for wt in weights:
        if 2 * wt <= bound:
            acc += 1 - 2 * (wt & 1)
    return acc
