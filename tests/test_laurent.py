"""Laurent polynomials, hyperderivatives, and certificate evaluation."""

import math

import pytest
from hypothesis import given, strategies as st

from majoritygame.core import Position, is_final, minority_capacity
from majoritygame.laurent import (
    LaurentPoly,
    certificate_polynomial,
    certificate_value,
)
from majoritygame.statistics import potential, signed_count


def laurent(*pairs):
    return LaurentPoly(pairs)


laurents = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-9, 9)), min_size=0, max_size=5
).map(LaurentPoly)


class TestArithmetic:
    def test_construction_merges_and_drops_zeros(self):
        p = LaurentPoly([(2, 1), (2, -1), (0, 3)])
        assert p == laurent((0, 3))
        assert not LaurentPoly()
        assert LaurentPoly({1: 2}) == laurent((1, 2))

    def test_add_sub_mul(self):
        p = laurent((1, 2), (-1, 1))  # 2x + x^-1
        q = laurent((0, 3), (1, -2))  # 3 - 2x
        assert p + q == laurent((0, 3), (-1, 1))
        assert p - q == laurent((1, 4), (0, -3), (-1, 1))
        assert p * q == laurent((2, -4), (1, 6), (0, -2), (-1, 3))
        assert p * LaurentPoly.zero() == LaurentPoly.zero()
        assert p * LaurentPoly.one() == p

    def test_coefficient_and_terms(self):
        p = laurent((3, 2), (-1, -1))
        assert p.coefficient(3) == 2
        assert p.coefficient(0) == 0
        assert p.terms() == [(-1, -1), (3, 2)]

    def test_str(self):
        assert str(laurent((3, 2), (-1, -1), (0, 4))) == "2x^3 + 4 - x^-1"
        assert str(LaurentPoly.zero()) == "0"
        assert str(laurent((1, 1))) == "x"
        assert str(laurent((1, -1))) == "-x"

    @given(laurents, laurents, laurents)
    def test_ring_laws(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert f + (-f) == LaurentPoly.zero()


class TestNoStoredZeros:
    """Operator results never hold a zero coefficient, even after cancellation."""

    @staticmethod
    def assert_normalized(result):
        rebuilt = LaurentPoly(result.terms())
        assert all(c for _, c in result.terms())
        assert result == rebuilt
        assert hash(result) == hash(rebuilt)

    def test_cancellation_in_add_sub_mul(self):
        x = LaurentPoly.monomial(1)
        one = LaurentPoly.one()
        cases = [
            (x + (-x), LaurentPoly.zero()),
            (x - x, LaurentPoly.zero()),
            ((one + x) + (one - x), laurent((0, 2))),
            ((one + x) * (one - x), laurent((0, 1), (2, -1))),
            ((x + LaurentPoly.monomial(-1)) * (x - LaurentPoly.monomial(-1)),
             laurent((2, 1), (-2, -1))),
            (LaurentPoly.monomial(3, 0), LaurentPoly.zero()),
        ]
        for result, expected in cases:
            self.assert_normalized(result)
            assert result == expected

    def test_hyperderivative_with_vanishing_binomial(self):
        x = LaurentPoly.monomial(1)
        assert not x.hyperderivative(2)
        self.assert_normalized(x.hyperderivative(2))
        mixed = laurent((1, 5), (3, 2), (-1, 1)).hyperderivative(2)  # D(2) kills x
        self.assert_normalized(mixed)
        assert mixed == laurent((1, 6), (-3, 1))

    @given(laurents, laurents, st.integers(0, 4))
    def test_every_operator_result_is_normalized(self, f, g, r):
        for result in (f + g, f - g, -f, f * g, f.hyperderivative(r)):
            self.assert_normalized(result)


class TestHyperderivative:
    def test_monomial_cases(self):
        assert LaurentPoly.monomial(5).hyperderivative(2) == laurent((3, 10))
        assert LaurentPoly.monomial(-2).hyperderivative(1) == laurent((-3, -2))
        assert LaurentPoly.monomial(-1).hyperderivative(2) == laurent((-3, 1))
        assert LaurentPoly.monomial(4).hyperderivative(0) == LaurentPoly.monomial(4)
        assert LaurentPoly.monomial(2).hyperderivative(3) == LaurentPoly.zero()

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            LaurentPoly.one().hyperderivative(-1)

    def test_relation_to_plain_derivative(self):
        # r! times the r-th hyperderivative is the r-th plain derivative
        p = laurent((4, 3), (2, -1), (-2, 5))
        second = p.hyperderivative(2)
        plain: dict[int, int] = {}
        for exp, c in p.terms():
            plain[exp - 2] = plain.get(exp - 2, 0) + c * exp * (exp - 1)
        assert LaurentPoly(plain.items()) == LaurentPoly(
            {exp: 2 * c for exp, c in second.terms()})

    @given(laurents, laurents, st.integers(0, 4))
    def test_leibniz_rule(self, f, g, r):
        lhs = (f * g).hyperderivative(r)
        rhs = LaurentPoly.zero()
        for i in range(r + 1):
            rhs = rhs + f.hyperderivative(i) * g.hyperderivative(r - i)
        assert lhs == rhs

    def test_eval_at_minus_one(self):
        assert laurent((2, 3), (1, 1), (0, 2), (-1, 5)).eval_at_minus_one() == 3 - 1 + 2 - 5
        assert LaurentPoly.zero().eval_at_minus_one() == 0


class TestCertificates:
    def test_two_element_example(self):
        M = Position((3, 1))
        g = certificate_polynomial(M, 2)
        assert g == laurent((2, 1), (1, 1))  # x^(s+e-1) (1 + x^-1) with s=1
        assert certificate_value(M, 2) == -1

    def test_flat_example(self):
        M = Position((2, 1, 1))
        g = certificate_polynomial(M, 2)
        assert g == laurent((2, 1), (1, 2), (0, 1))
        assert certificate_value(M, 2) == 0

    def test_zero_weight_doubles_a_factor(self):
        M = Position((1, 1, 1, 0))
        g = certificate_polynomial(M, 3)
        assert g == laurent((2, 2), (1, 4), (0, 2))
        assert certificate_value(M, 3) == 2

    def test_singleton_certificates(self):
        for w in range(1, 9):
            for e in range(w % 2 if w % 2 else 2, w + 1, 2):
                M = Position((w,))
                s = minority_capacity(M, e)
                expected = (-1) ** s * math.comb(s + e - 1, e - 1)
                assert certificate_value(M, e) == expected

    def test_rejects_non_final_positions(self):
        for M in (Position((1, 1, 1)), Position((2, 2, 1, 0))):
            for route in (certificate_polynomial, certificate_value):
                with pytest.raises(ValueError, match="is not final"):
                    route(M, 1)

    def test_direct_product_matches_generic_arithmetic(self):
        # Up to 6 zeros fill a len(M)-bit slot of the packed product to 2^(len - 1).
        checked = full_slots = 0
        for M in _small_positions(10, extra_zeros=6):
            for e in range(1, M.total + 1):
                if (M.total - e) % 2 or not is_final(M, e):
                    continue
                expected = LaurentPoly.monomial(minority_capacity(M, e) + e - 1)
                for w in M.elements[:-1]:
                    expected = expected * (LaurentPoly.one() + LaurentPoly.monomial(-w))
                assert certificate_polynomial(M, e) == expected, (M, e)
                checked += 1
                full_slots += max(c for _, c in expected.terms()) == 2 ** (len(M) - 1)
        assert checked == 3227
        assert full_slots == 210

    def test_packed_slot_holds_its_largest_coefficient(self):
        M = Position((1,) + (0,) * 40)
        assert certificate_polynomial(M, 1) == LaurentPoly({0: 2**40})
        assert certificate_value(M, 1) == 2**40

    def test_value_matches_signed_count_on_small_finals(self):
        for M in _small_positions(10):
            total = M.total
            for e in range(max(1, total % 2 if total % 2 else 2), total + 1, 2):
                if (total - e) % 2 or not is_final(M, e):
                    continue
                s = minority_capacity(M, e)
                sign = -1 if s % 2 else 1
                assert certificate_value(M, e) == sign * signed_count(M, e, order=e), (M, e)

    def test_value_matches_the_laurent_route(self):
        checked = 0
        for M in _small_positions(12, extra_zeros=2):
            for e in range(1, M.total + 1):
                if (M.total - e) % 2 or not is_final(M, e):
                    continue
                oracle = certificate_polynomial(M, e).hyperderivative(e - 1).eval_at_minus_one()
                assert certificate_value(M, e) == oracle, (M, e)
                checked += 1
        assert checked == 3192

    def test_final_bound_on_small_finals(self):
        for M in _small_positions(10):
            total = M.total
            for e in range(1, total + 1):
                if (total - e) % 2 or not is_final(M, e):
                    continue
                assert potential(M, e) >= len(M), (M, e, potential(M, e))


def _small_positions(max_total, extra_zeros=1):
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
            for zeros in range(extra_zeros + 1):
                out.append(Position(part + (0,) * zeros))
    return out
