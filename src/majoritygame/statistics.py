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
closed form is one dot product: the weight counts a_0..a_s against a row
of signed binomials, one per (s, order).  The one enumeration oracle
keeps one column of counts per element tuple and order, holding every
excess of the total's parity: the order-1 column pairs the weight tallies
of the submultisets of the tuple's two halves (Horowitz and Sahni), and
each higher column is the suffix sum over e, e+2, ... of the column one
order below.  The
caches here (weight counts, binomial rows, columns) are each a bounded
``lru_cache``; weight counts and rows are kept for small tuples and small
s only, and weight counts for the latest larger tuple too.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import lru_cache
from itertools import accumulate

from .core import Position

#: Valuation of zero; compares strictly above every finite valuation.
INFINITE = math.inf

#: A 2-adic valuation: a non-negative int, or INFINITE for the value 0.
Valuation = int | float

_ENUMERATION_LIMIT = 24

#: Largest total weight whose weight counts are computed: they take
#: ``total + 1`` ints, and every signed count and potential reads them.
WEIGHT_LIMIT = 4096

#: Weight counts kept, one per element tuple; enough that the verification suites
#: recompute little, small enough that a long-lived process stays bounded.
_CACHE_SIZE = 4096

#: Largest total weight and element count whose weight counts are cached, and
#: largest s whose signed binomial rows are.  A weight-count entry holds at most
#: 65 counts below 2^65 and a key of at most 64 small ints, under 3.6 KB, so a
#: full cache stays under 15 MiB.  A long ``play`` session meets each larger
#: tuple once, so only the latest one is kept, for the repeated calls of
#: ``stats`` on one position; at 4,096 ones it takes 1.7 MiB.
_CACHED_BOUND = 64

#: Signed binomial rows kept, one per (s, order): all suites together build 309,
#: and a row holds s + 1 <= _CACHED_BOUND + 1 ints.
_ROW_CACHE_SIZE = 512


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
    Negative p reflects: C(p, r) = (-1)^r C(r - p - 1, r).
    """
    if r < 0:
        return 0
    if p >= 0:
        return math.comb(p, r)
    return (-1) ** r * math.comb(r - p - 1, r)


def subposition_weight_counts(M: Position) -> tuple[int, ...]:
    """Counts of submultisets of M by total weight.

    Entry r is the number of submultisets of weight r, i.e. the
    coefficient of x^r in the product of (1 + x^w) over all elements.
    Each zero element doubles every entry; the counts always sum to
    2^len(M) and are symmetric about half the total weight.  Raises
    ValueError when the total weight exceeds ``WEIGHT_LIMIT``.
    """
    elements = M.elements
    if sum(elements) <= _CACHED_BOUND and len(elements) <= _CACHED_BOUND:
        return _weight_counts(elements)
    return _latest_large_weight_counts(elements)


@lru_cache(maxsize=_CACHE_SIZE)
def _weight_counts(elements: tuple[int, ...]) -> tuple[int, ...]:
    total = sum(elements)
    if total > WEIGHT_LIMIT:
        raise ValueError(f"weight counts are limited to total weight {WEIGHT_LIMIT}, got {total}")
    zeros = elements.count(0)
    weights = elements[zeros:]  # elements ascend: zeros lead
    counts = [0] * (total + 1)
    # (1 + x^w)^m, w the most repeated weight, is C(m, j) at x^(jw); the rest shift-add in.
    common = max(set(weights), key=weights.count, default=0)
    m, c = weights.count(common), 1
    for j in range(m + 1):
        counts[j * common] = c
        c = c * (m - j) // (j + 1)
    degree = m * common
    for w in weights:
        if w != common:
            degree += w
            for r in range(degree, w - 1, -1):
                counts[r] += counts[r - w]
    return tuple([count << zeros for count in counts]) if zeros else tuple(counts)


_latest_large_weight_counts = lru_cache(maxsize=1)(_weight_counts.__wrapped__)


def _check_excess(M: Position, e: int, order: int) -> None:
    """Raise for the first bad one of e (type, sign, parity against M) and order."""
    if type(e) is not int:  # bool is an int subclass
        raise ValueError(f"excess must be an integer, got {e!r}")
    if e < 0:
        raise ValueError(f"excess must be non-negative, got {e}")
    total = sum(M.elements)
    if (total - e) % 2 != 0:
        raise ValueError(f"excess {e} has the wrong parity for total weight {total}")
    if type(order) is not int:
        raise ValueError(f"order must be an integer, got {order!r}")
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")


def signed_count(M: Position, e: int, order: int = 1) -> int:
    """Signed submultiset count of the given order, via the closed form.

    Order 1 is the plain alternating count.  Order b sums the order b-1
    counts at excesses e, e+2, e+4, ...; unwinding that recursion gives
    sum over r <= s of (-1)^r C(s + order - 1 - r, order - 1) a_r, where
    a_r counts submultisets of weight r and 2s + e is the total weight.
    When e exceeds the total weight the sum is empty and the count is 0.
    The sum is the dot product of a_0..a_s with a row of signed binomials,
    cached when s <= ``_CACHED_BOUND``; the weight counts come first, so a
    total past ``WEIGHT_LIMIT`` is refused before any row is built.
    """
    elements = M.elements
    total = sum(elements)
    if type(e) is not int or type(order) is not int or e < 0 or order < 1 or (total - e) & 1:
        _check_excess(M, e, order)  # checked inline: the hot path; this raises the message
    s = (total - e) // 2
    if s < 0:
        return 0
    if total <= _CACHED_BOUND and len(elements) <= _CACHED_BOUND:
        counts = _weight_counts(elements)
    else:
        counts = _latest_large_weight_counts(elements)
    rows = _signed_binomials if s <= _CACHED_BOUND else _uncached_signed_binomials
    return sum(map(operator.mul, counts, rows(s, order)))


@lru_cache(maxsize=_ROW_CACHE_SIZE)
def _signed_binomials(s: int, order: int) -> tuple[int, ...]:
    """Entry r: (-1)^r C(s + order - 1 - r, order - 1), for r = 0..s."""
    row = [0] * (s + 1)
    c = 1  # C(order - 1 + j, order - 1), the entry at r = s - j up to sign
    for j in range(s + 1):
        row[s - j] = -c if (s - j) & 1 else c
        c = c * (order + j) // (j + 1)
    return tuple(row)


_uncached_signed_binomials = _signed_binomials.__wrapped__


def signed_count_recursive(M: Position, e: int, order: int) -> int:
    """The same statistic by enumeration, summing the definition over excesses.

    The order-1 column lists the submultisets of each half of M's ascending
    elements, tallies each half by weight and pairs the two tallies: each
    submultiset is one pair of halves, counted once, and the 2^len(M) are
    never listed together.  Its entry e // 2 is the signed sum over those
    whose complement outweighs them by at least e, for every excess e of
    the total weight's parity.  Each higher column is the suffix sum of
    the column one order below, so its entry for e adds the lower-order
    counts at e, e+2, ... up to the total weight.  An excess past the
    total weight reads 0.  This route shares no arithmetic with the closed
    form, so their agreement cross-checks both.

    Only the 64 most recent columns are kept: each suite walks one
    position's excesses and orders before moving to the next.  Missing
    orders are built lowest first, at most 64 per nested descent, so a
    cold call at a high order stays far from the recursion limit.  The
    walk is guarded at 24 elements and at total weight ``WEIGHT_LIMIT``.
    """
    elements = M.elements
    total = sum(elements)
    if type(e) is not int or type(order) is not int or e < 0 or order < 1 or (total - e) & 1:
        _check_excess(M, e, order)  # checked inline, as in signed_count: the hot path
    if len(elements) > _ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration is limited to {_ENUMERATION_LIMIT} elements, got {len(elements)}")
    if order > _ORDER_STEP:
        # A missing column recurses to the one below it; warming every
        # _ORDER_STEP-th order first bounds that recursion's depth.
        for lower in range(1 + (order - 1) % _ORDER_STEP, order, _ORDER_STEP):
            _order_column(elements, lower)
    column = _order_column(elements, order)
    i = e // 2
    return column[i] if i < len(column) else 0


def signed_count_bruteforce(M: Position, e: int) -> int:
    """The order-1 signed count by enumeration: ``signed_count_recursive(M, e, 1)``."""
    return signed_count_recursive(M, e, 1)


#: Orders built by one recursive descent through the column cache: deep
#: enough that a walk over a few orders calls nothing extra, shallow
#: enough to stay far from the recursion limit.
_ORDER_STEP = 64


@lru_cache(maxsize=64)
def _order_column(elements: tuple[int, ...], order: int) -> tuple[int, ...]:
    """Entry i: the order-``order`` signed count at excess 2i + (total mod 2)."""
    if order > 1:
        below = _order_column(elements, order - 1)
        return tuple(accumulate(reversed(below)))[::-1]
    # Order 1 pairs the signed weight tallies of the two halves' submultisets
    # (Horowitz and Sahni), refused past WEIGHT_LIMIT before any is listed.
    total = sum(elements)
    if total > WEIGHT_LIMIT:
        raise ValueError(f"enumeration is limited to total weight {WEIGHT_LIMIT}, got {total}")
    # Signs multiply over the halves, as (-1)^(a+b) = (-1)^a (-1)^b.  A submultiset
    # of weight wt counts at excess e iff wt <= (total - e) / 2, so entry i adds
    # the signed tally up to weight total // 2 - i.
    half = len(elements) // 2
    signed = [0] * (total + 1)
    high = _signed_tally(elements[half:]).items()
    for a, count in _signed_tally(elements[:half]).items():
        for b, other in high:
            signed[a + b] += count * other
    return tuple(accumulate(signed[:total // 2 + 1]))[::-1]


def _signed_tally(elements: tuple[int, ...]) -> dict[int, int]:
    """Weight -> (-1)^weight times the number of submultisets of that weight."""
    weights = [0]
    for w in elements:
        weights.extend([wt + w for wt in weights])
    return {wt: -n if wt & 1 else n for wt, n in Counter(weights).items()}


def potential(M: Position, e: int) -> Valuation:
    """The adversary potential: the order-e statistic's valuation, shifted by e.

    An upper bound for the element count of any final position the
    Selector can force from M; INFINITE when the underlying count
    vanishes.
    """
    if type(e) is not int or e < 1:
        raise ValueError(f"potential needs an integer excess >= 1, got {e!r}")
    return e + two_adic_valuation(signed_count(M, e, e))
