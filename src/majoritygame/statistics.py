"""Exact statistics of submultisets of a game position.

The central quantity is an alternating count over the submultisets N of
a position M: N is included when the complement of N outweighs N by at
least the excess e, and contributes with sign (-1)^(weight of N).
Higher-order variants accumulate these counts over excesses e, e+2, ...
repeatedly.  Shifting the 2-adic valuation of the order-e count by e
gives a potential that bounds how large a final position the Assigner
can still permit.

All arithmetic is exact; the 2-adic valuation of zero is ``math.inf``,
which orders above every finite valuation and absorbs finite addends.

Weight counts are computed for totals up to ``WEIGHT_LIMIT``.  The
brute-force oracle enumerates each element tuple's submultisets once and
keeps only their tally by weight, so every excess is then read off that
tally.  Every cache here is a bounded ``lru_cache``.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

from .core import Position

#: Valuation of zero; compares strictly above every finite valuation.
INFINITE = math.inf

#: A 2-adic valuation: a non-negative int, or INFINITE for the value 0.
Valuation = int | float

_ENUMERATION_LIMIT = 24

#: Largest total weight whose weight counts are computed: they take
#: ``total + 1`` ints, and every signed count and potential reads them.
WEIGHT_LIMIT = 4096

#: Entries kept by each cache below; enough that the verification suites
#: recompute little, small enough that a long-lived process stays bounded.
_CACHE_SIZE = 4096


def binary_weight(m: int) -> int:
    """Number of 1 digits in the binary expansion of m."""
    if m < 0:
        raise ValueError(f"binary weight needs a non-negative integer, got {m}")
    return m.bit_count()


def two_adic_valuation(r: int) -> Valuation:
    """Exponent of the largest power of 2 dividing r; INFINITE for r = 0.

    The sign of r is irrelevant.
    """
    if r == 0:
        return INFINITE
    v = abs(r)
    return (v & -v).bit_length() - 1


def binomial(p: int, r: int) -> int:
    """Binomial coefficient with an arbitrary integer upper argument.

    Defined as p (p-1) ... (p-r+1) / r!, so negative p is allowed:
    binomial(-1, 2) == 1 and binomial(-2, 1) == -2.  Negative r gives 0.
    """
    if r < 0:
        return 0
    if p >= 0:
        return math.comb(p, r)
    num = 1
    for i in range(r):
        num *= p - i
    return num // math.factorial(r)


def subposition_weight_counts(M: Position) -> tuple[int, ...]:
    """Counts of submultisets of M by total weight.

    Entry r is the number of submultisets of weight r, i.e. the
    coefficient of x^r in the product of (1 + x^w) over all elements.
    Each zero element doubles every entry; the counts always sum to
    2^len(M) and are symmetric about half the total weight.  Raises
    ValueError when the total weight exceeds ``WEIGHT_LIMIT``.
    """
    return _weight_counts(M.elements)


@lru_cache(maxsize=_CACHE_SIZE)
def _weight_counts(elements: tuple[int, ...]) -> tuple[int, ...]:
    total = sum(elements)
    if total > WEIGHT_LIMIT:
        raise ValueError(f"weight counts are limited to total weight {WEIGHT_LIMIT}, got {total}")
    counts = [0] * (total + 1)
    counts[0] = 1
    for w in elements:
        if w == 0:
            counts = [2 * c for c in counts]
        else:
            for r in range(len(counts) - 1, w - 1, -1):
                counts[r] += counts[r - w]
    return tuple(counts)


def _check_excess(M: Position, e: int) -> None:
    if e < 0:
        raise ValueError(f"excess must be non-negative, got {e}")
    if (M.total - e) % 2 != 0:
        raise ValueError(f"excess {e} has the wrong parity for total weight {M.total}")


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")


def signed_count_bruteforce(M: Position, e: int) -> int:
    """The order-1 signed count by direct enumeration of all submultisets.

    This is the reference oracle for the closed-form and recursive
    routes: it walks all 2^len(M) submultisets, keeps those whose
    complement outweighs them by at least e, and adds their signs.
    The walk runs once per element tuple and is kept as a tally of
    submultisets by weight, from which every excess is read; it never
    uses the weight-count recursion of the closed form.  Guarded at 24
    elements to keep the walk bounded.
    """
    _check_excess(M, e)
    if len(M.elements) > _ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration is limited to {_ENUMERATION_LIMIT} elements, got {len(M.elements)}")
    return _signed_count_enumerated(M.elements, e)


def _signed_count_enumerated(elements: tuple[int, ...], e: int) -> int:
    # Include a submultiset of weight wt iff (total - wt) - wt >= e.
    bound = sum(elements) - e
    acc = 0
    for wt, count in enumerate(_enumerated_weight_counts(elements)):
        if 2 * wt <= bound:
            acc += (1 - 2 * (wt & 1)) * count
    return acc


@lru_cache(maxsize=_CACHE_SIZE)
def _enumerated_weight_counts(elements: tuple[int, ...]) -> tuple[int, ...]:
    """Entry r: how many of the 2^len(elements) listed submultisets weigh r."""
    weights = [0]
    for w in elements:
        weights.extend([wt + w for wt in weights])
    tally = Counter(weights)
    return tuple(tally[r] for r in range(sum(elements) + 1))


def signed_count(M: Position, e: int, order: int = 1) -> int:
    """Signed submultiset count of the given order, via the closed form.

    Order 1 is the plain alternating count.  Order b sums the order b-1
    counts at excesses e, e+2, e+4, ...; unwinding that recursion gives
    sum over r <= s of (-1)^r C(s + order - 1 - r, order - 1) a_r, where
    a_r counts submultisets of weight r and 2s + e is the total weight.
    When e exceeds the total weight the sum is empty and the count is 0.
    """
    _check_excess(M, e)
    _check_order(order)
    s = (M.total - e) // 2
    if s < 0:
        return 0
    counts = _weight_counts(M.elements)
    acc = 0
    for r in range(s + 1):
        term = math.comb(s + order - 1 - r, order - 1) * counts[r]
        acc += -term if r & 1 else term
    return acc


def signed_count_recursive(M: Position, e: int, order: int) -> int:
    """The same statistic by literally evaluating the defining recursion.

    Orders above 1 expand into sums of lower-order counts at higher
    excesses, truncated once the excess passes the total weight; order 1
    falls back to the brute-force enumeration.  This route shares no
    arithmetic with the closed form, so their agreement cross-checks
    both.
    """
    _check_excess(M, e)
    _check_order(order)
    if len(M.elements) > _ENUMERATION_LIMIT:
        raise ValueError(
            f"recursion bottoms out in enumeration, which is limited to "
            f"{_ENUMERATION_LIMIT} elements; got {len(M.elements)}")
    return _signed_count_recursive(M.elements, e, order)


@lru_cache(maxsize=_CACHE_SIZE)
def _signed_count_recursive(elements: tuple[int, ...], e: int, order: int) -> int:
    if order == 1:
        return _signed_count_enumerated(elements, e)
    acc = 0
    for ee in range(e, sum(elements) + 1, 2):
        acc += _signed_count_recursive(elements, ee, order - 1)
    return acc


def potential_of_order(M: Position, e: int, order: int) -> Valuation:
    """e plus the 2-adic valuation of the order-``order`` signed count."""
    return e + two_adic_valuation(signed_count(M, e, order))


def potential(M: Position, e: int) -> Valuation:
    """The adversary potential: the order-e statistic's valuation, shifted by e.

    An upper bound for the element count of any final position the
    Selector can force from M; INFINITE when the underlying count
    vanishes.
    """
    if e < 1:
        raise ValueError(f"potential needs excess >= 1, got {e}")
    return potential_of_order(M, e, e)
