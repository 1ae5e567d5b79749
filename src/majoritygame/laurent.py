"""Integer Laurent polynomials and hyperderivative certificates.

The hyperderivative D(r) maps x^p to binomial(p, r) x^(p-r).  Unlike the
r-fold ordinary derivative it carries no r! factor, so evaluating a
hyperderivative keeps 2-adic valuations meaningful.  Final positions of
the comparison game admit a small certificate polynomial whose (e-1)-st
hyperderivative at -1 recovers the order-e signed count up to sign.

Only the public constructor accumulates repeated exponents.  Operator
results are built in a fresh dict that is taken over as it stands, with
only its zero coefficients dropped.  Certificates expand their product
of binomial factors in one packed int, a fixed-width slot per exponent,
and read the coefficients off its slots once.  A certificate's value is
summed straight from those slots against binomials at -1, with no
polynomial built on the way.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

from .core import Position, is_final, minority_capacity
from .statistics import binomial


class LaurentPoly:
    """A finite map from integer exponents to integer coefficients.

    Zero coefficients are never stored, so the empty map is the zero
    polynomial and equality is plain map equality.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for p, c in items:
            acc[p] = acc.get(p, 0) + c
        self._coeffs = {p: c for p, c in acc.items() if c}

    @classmethod
    def _adopt(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        """Wrap a freshly built exponent -> coefficient dict without copying it.

        Only zero coefficients are dropped; the caller must not keep or
        change the dict afterwards.
        """
        poly = object.__new__(cls)
        poly._coeffs = {p: c for p, c in coeffs.items() if c} if 0 in coeffs.values() else coeffs
        return poly

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._adopt({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._adopt({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return cls._adopt({exponent: coefficient})

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return sorted(self._coeffs.items())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._adopt({p: -c for p, c in self._coeffs.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._coeffs)
        for p, c in other._coeffs.items():
            acc[p] = acc.get(p, 0) + c
        return LaurentPoly._adopt(acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for p, c in self._coeffs.items():
            for q, d in other._coeffs.items():
                acc[p + q] = acc.get(p + q, 0) + c * d
        return LaurentPoly._adopt(acc)

    def hyperderivative(self, r: int) -> "LaurentPoly":
        """Apply D(r): x^p -> binomial(p, r) x^(p-r), extended linearly."""
        if r < 0:
            raise ValueError(f"derivative order must be non-negative, got {r}")
        if r == 0:
            return self
        return LaurentPoly._adopt({p - r: (math.comb(p, r) if p >= 0 else binomial(p, r)) * c
                                   for p, c in self._coeffs.items()})

    def eval_at_minus_one(self) -> int:
        """Sum of coefficients with sign (-1)^exponent."""
        return sum(-c if p % 2 else c for p, c in self._coeffs.items())

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        chunks: list[str] = []
        for p in sorted(self._coeffs, reverse=True):
            c = self._coeffs[p]
            mag = abs(c)
            if p == 0:
                body = str(mag)
            else:
                var = "x" if p == 1 else f"x^{p}"
                body = var if mag == 1 else f"{mag}{var}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.terms())!r})"


def certificate_polynomial(M: Position, e: int) -> LaurentPoly:
    """x^(s+e-1) times the product of (1 + x^-w) over all but one largest element.

    Only defined for final positions.  Dropping one copy of the maximum
    keeps every exponent non-negative: the remaining elements weigh at
    most s + e - 1 in total.
    """
    return LaurentPoly._adopt(dict(enumerate(_certificate_coefficients(M, e))))


def _certificate_coefficients(M: Position, e: int) -> list[int]:
    """The certificate's coefficients of x^0 .. x^(s+e-1), some of them zero.

    The product is expanded in one packed int with a len(M)-bit slot per
    exponent: multiplying by 1 + x^-w adds a copy shifted down by w slots.
    Raises ValueError when M is not final for e.
    """
    if not is_final(M, e):
        raise ValueError(f"{M} is not final for excess {e}")
    top = minority_capacity(M, e) + e - 1
    # Coefficients count submultisets of the len(M) - 1 factors, so each
    # is at most 2^(len(M) - 1) and no slot carries into the next.
    bits = len(M.elements)
    packed = 1 << top * bits
    for w in M.elements[:-1]:
        packed += packed >> w * bits
    mask = (1 << bits) - 1
    return [(packed >> p * bits) & mask for p in range(top + 1)]


def certificate_value(M: Position, e: int) -> int:
    """The (e-1)-st hyperderivative of the certificate, evaluated at -1.

    Equals (-1)^s times the order-e signed count of M, so both sides
    share one 2-adic valuation.  The value is summed straight from the
    packed slots: D(e-1) sends c_p x^p to C(p, e-1) c_p x^(p-e+1), so at
    -1 it is the sum over p >= e-1 of (-1)^(p-e+1) C(p, e-1) c_p, and no
    polynomial is built.
    """
    r = e - 1
    return sum((-1) ** i * math.comb(r + i, r) * c
               for i, c in enumerate(_certificate_coefficients(M, e)[r:]))
