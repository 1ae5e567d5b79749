"""Rules of the weight-level majority comparison game.

A position is a multiset of non-negative component weights.  Each turn
the Selector picks two distinct elements w >= w', and the Assigner
replaces the pair by either w + w' or w - w'.  Writing the total weight
as 2s + e, where e is the guaranteed excess of the majority colour, play
stops as soon as some element reaches s + 1: that component is then too
heavy to sit on the minority side.
"""

from __future__ import annotations

import itertools
import re
from bisect import insort
from enum import Enum
from operator import attrgetter
from typing import Iterator


class Value:
    """Base of the value classes: repr, equality and copying read off ``_fields``.

    A subclass names its fields once, ``__slots__ = _fields = ("n", "k")``, in the
    order of its ``__init__`` parameters: repr lists them in that order, and
    ``__reduce__`` (copy, deepcopy, pickle) passes them back positionally.
    """

    __slots__ = _fields = ()

    def __init_subclass__(cls) -> None:
        if cls._fields:
            # one C-level getter, not a Python loop: __eq__ runs ~90k times a ball-suite pass
            cls._key = attrgetter(*cls._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __reduce__(self) -> tuple:
        return self.__class__, tuple([getattr(self, name) for name in self._fields])


class FrozenValue(Value):
    """A Value set once by ``object.__setattr__`` in ``__init__``; it hashes as its fields' tuple."""

    __slots__ = ()

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])


class GameParams(FrozenValue):
    """Ball count n and majority threshold k, which must exceed n/2."""

    __slots__ = _fields = ("n", "k")

    def __init__(self, n: int, k: int) -> None:
        if type(n) is not int or type(k) is not int:  # bool is an int subclass
            raise ValueError(f"n and k must be integers, got n={n!r}, k={k!r}")
        if n < 1:
            raise ValueError(f"ball count must be positive, got n={n}")
        if k > n:
            raise ValueError(f"threshold k={k} exceeds ball count n={n}")
        if 2 * k <= n:
            raise ValueError(f"threshold k={k} does not guarantee a majority for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    @property
    def e(self) -> int:
        """Guaranteed excess of the majority colour: k - (n - k)."""
        return 2 * self.k - self.n


_TERM = re.compile(r"(\d+)(?:\^(\d+))?\Z")

#: Most elements a position literal may expand to; checked before ``w^mult``
#: is expanded, so a huge multiplicity is refused without allocating it.
PARSE_ELEMENT_LIMIT = 4096


class Position(FrozenValue):
    """A multiset of weights, stored in weakly increasing order and printed largest first.

    Ascending is the solver's table key order: the largest weight is
    ``elements[-1]`` and zeros lead.  Zero weights are ordinary elements:
    they arise when a comparison cancels a pair exactly, and merging them
    away still costs a move.
    ``Position(...)`` and ``parse`` validate and sort; the internal ``_sorted`` does neither.
    """

    __slots__ = _fields = ("elements",)

    def __init__(self, elements: tuple[int, ...] = ()) -> None:
        elems = tuple(sorted(elements))
        for w in elems:
            if type(w) is not int or w < 0:  # bool is an int subclass
                raise ValueError(f"weights must be non-negative integers, got {w!r}")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def _sorted(cls, elems: tuple[int, ...]) -> "Position":
        """Wrap an ascending tuple of non-negative ints with no sort or check."""
        M = object.__new__(cls)
        object.__setattr__(M, "elements", elems)
        return M

    @classmethod
    def parse(cls, text: str) -> "Position":
        """Parse a bracketed literal such as ``[2,1^5]`` or ``[2,1,1,1,1,1]``.

        Repeated weights may be written either expanded or as ``w^mult``;
        ``[]`` is the empty position.  A literal of more than
        ``PARSE_ELEMENT_LIMIT`` elements raises ValueError.
        """
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"position literal must be bracketed, got {text!r}")
        body = body[1:-1].strip()
        if not body:
            return cls()
        weights: list[int] = []
        for raw in body.split(","):
            term = raw.strip()
            match = _TERM.match(term)
            if match is None:
                raise ValueError(f"bad term {term!r} in position literal {text!r}")
            w = int(match.group(1))
            mult = int(match.group(2)) if match.group(2) else 1
            if mult < 1:
                raise ValueError(f"multiplicity must be positive in term {term!r}")
            if len(weights) + mult > PARSE_ELEMENT_LIMIT:
                raise ValueError(
                    f"position literal is limited to {PARSE_ELEMENT_LIMIT} elements: {text!r}")
            weights.extend([w] * mult)
        return cls(tuple(weights))

    def __str__(self) -> str:
        parts = []
        for w, group in itertools.groupby(reversed(self.elements)):
            mult = len(list(group))
            parts.append(str(w) if mult == 1 else f"{w}^{mult}")
        return "[" + ",".join(parts) + "]"

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    @property
    def total(self) -> int:
        """Sum of all weights."""
        return sum(self.elements)


class AssignerChoice(Enum):
    """The Assigner's two replies for a selected pair: keep w + w' or w - w'."""

    PLUS = "+"
    MINUS = "-"


def start_position(params: GameParams) -> Position:
    """The opening position: every ball its own component of weight 1."""
    return Position((1,) * params.n)


def minority_capacity(M: Position, e: int) -> int:
    """The value s with 2s + e equal to the total weight.

    This is the largest combined weight the minority colour can still
    carry; a component heavier than s is forced onto the majority side.
    Raises ValueError for totals below e or of the wrong parity, since no
    game with excess e can reach such a position.
    """
    if e < 1:
        raise ValueError(f"excess must be at least 1, got {e}")
    total = M.total
    if (total - e) % 2 != 0:
        raise ValueError(f"total weight {total} and excess {e} differ in parity")
    if total < e:
        raise ValueError(f"total weight {total} is below the guaranteed excess {e}")
    return (total - e) // 2


def is_final(M: Position, e: int) -> bool:
    """Whether the largest element already exceeds the minority capacity."""
    s = minority_capacity(M, e)
    return bool(M.elements) and M.elements[-1] >= s + 1


def legal_moves(M: Position) -> list[tuple[int, int]]:
    """The distinct weight pairs (w, w') with w >= w', smallest first.

    Replacing equal-valued elements is interchangeable, so a move is
    named by its value pair alone.  Positions with fewer than two
    elements have no moves.  Each distinct weight w, smallest first, gives
    (w, w') for each smaller distinct w', then (w, w) when it repeats:
    the pairs in lexicographic order.
    """
    elems = M.elements
    distinct = sorted(set(elems))
    moves: list[tuple[int, int]] = []
    for x, w in enumerate(distinct):
        moves += [(w, smaller) for smaller in distinct[:x]]
        if elems.count(w) > 1:
            moves.append((w, w))
    return moves


def move_for_pair(M: Position, w: int, wp: int) -> tuple[int, int]:
    """The pair (w, wp), given in either order, as M's (larger, smaller) elements.

    This is the one check that M holds the pair: equal weights need two
    copies.
    """
    if w < wp:
        w, wp = wp, w
    elems = M.elements
    try:
        first = elems.index(wp)
        return elems[elems.index(w, first + 1)], elems[first]
    except ValueError:
        raise ValueError(f"{M} holds no pair ({w},{wp})") from None


def apply_move(M: Position, pair: tuple[int, int], choice: AssignerChoice) -> Position:
    """Replace one w and one w' by w + w' or w - w', inserted in order with no re-sort."""
    w, wp = move_for_pair(M, *pair)
    rest = list(M.elements)
    rest.remove(w)
    rest.remove(wp)
    insort(rest, w + wp if choice is AssignerChoice.PLUS else w - wp)
    return Position._sorted(tuple(rest))
