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
from dataclasses import dataclass
from enum import Enum
from typing import Iterator


@dataclass(frozen=True)
class GameParams:
    """Ball count n and majority threshold k, which must exceed n/2."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or type(self.k) is not int:  # bool is an int subclass
            raise ValueError(f"n and k must be integers, got n={self.n!r}, k={self.k!r}")
        if self.n < 1:
            raise ValueError(f"ball count must be positive, got n={self.n}")
        if self.k > self.n:
            raise ValueError(f"threshold k={self.k} exceeds ball count n={self.n}")
        if 2 * self.k <= self.n:
            raise ValueError(
                f"threshold k={self.k} does not guarantee a majority for n={self.n}")

    @property
    def e(self) -> int:
        """Guaranteed excess of the majority colour: k - (n - k)."""
        return 2 * self.k - self.n


_TERM = re.compile(r"(\d+)(?:\^(\d+))?\Z")

#: Most elements a position literal may expand to; checked before ``w^mult``
#: is expanded, so a huge multiplicity is refused without allocating it.
PARSE_ELEMENT_LIMIT = 4096


@dataclass(frozen=True)
class Position:
    """A multiset of weights, canonically sorted in weakly decreasing order.

    Zero weights are ordinary elements: they arise when a comparison
    cancels a pair exactly, and merging them away still costs a move.
    """

    elements: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        elems = tuple(sorted(self.elements, reverse=True))
        for w in elems:
            if not isinstance(w, int) or w < 0:
                raise ValueError(f"weights must be non-negative integers, got {w!r}")
        object.__setattr__(self, "elements", elems)

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
        for w, group in itertools.groupby(self.elements):
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

    @property
    def largest(self) -> int:
        if not self.elements:
            raise ValueError("empty position has no largest element")
        return self.elements[0]


class AssignerChoice(Enum):
    """The Assigner's two replies for a selected pair: keep w + w' or w - w'."""

    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True)
class Move:
    """Indices into a canonical position; ``first`` points at the larger weight."""

    first: int
    second: int


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
    return bool(M.elements) and M.elements[0] >= s + 1


def legal_moves(M: Position) -> list[Move]:
    """All index pairs, deduplicated by value pair (w, w').

    Replacing equal-valued elements is interchangeable, so one
    representative per value pair suffices.  Positions with fewer than
    two elements have no moves.
    """
    moves: list[Move] = []
    seen: set[tuple[int, int]] = set()
    elems = M.elements
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            pair = (elems[i], elems[j])
            if pair not in seen:
                seen.add(pair)
                moves.append(Move(i, j))
    return moves


def move_values(M: Position, move: Move) -> tuple[int, int]:
    """The weight pair (w, w') a move points at, after validity checks."""
    _check_move(M, move)
    return M.elements[move.first], M.elements[move.second]


def move_for_pair(M: Position, w: int, wp: int) -> Move:
    """The move selecting the first occurrences of w and wp, given in either order."""
    if w < wp:
        w, wp = wp, w
    try:
        first = M.elements.index(w)
        second = M.elements.index(wp, first + 1)
    except ValueError:
        raise ValueError(f"{M} holds no pair ({w},{wp})") from None
    return Move(first, second)


def _check_move(M: Position, move: Move) -> None:
    c = len(M.elements)
    if move.first == move.second:
        raise ValueError(f"move must use two distinct elements, got index {move.first} twice")
    if not (0 <= move.first < c and 0 <= move.second < c):
        raise ValueError(f"move {move} out of range for a {c}-element position")
    if M.elements[move.first] < M.elements[move.second]:
        raise ValueError(f"move {move} lists the smaller weight first")


def apply_move(M: Position, move: Move, choice: AssignerChoice) -> Position:
    """Replace the selected pair by w + w' or w - w' and re-canonicalize."""
    w, wp = move_values(M, move)
    merged = w + wp if choice is AssignerChoice.PLUS else w - wp
    rest = [x for idx, x in enumerate(M.elements) if idx != move.first and idx != move.second]
    rest.append(merged)
    return Position(tuple(rest))
