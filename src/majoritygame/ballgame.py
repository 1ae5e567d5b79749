"""Ball-level question game over n balls coloured in two unseen colours.

Comparisons "are balls i and j the same colour?" join balls into
components, each split into two sides: balls on one side are the same
colour, and the two sides differ.  Every ball records its component's
root, which is the component's smallest ball, and its side, and every
root keeps both sides' balls, so a merge relabels the component with
the larger root, and a component is nothing but its root's two sides.
The multiset of side-size differences is the weight-level position,
and answering a cross-component comparison realizes one Assigner
choice on it.  This module also hosts the identification rule, the
exhaustive colouring oracle it is checked against, the lifting of
weight-level strategies to balls and the one loop that plays them, and
transcript import/export.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Callable, Iterator

from .core import (
    PARSE_ELEMENT_LIMIT,
    AssignerChoice,
    GameParams,
    Position,
    minority_capacity,
    move_for_pair,
)
from .solver import Assigner, Selector

#: Components beyond which the exhaustive colouring oracle refuses to run.
COLOURING_GUARD = 20

#: Largest n for which the exhaustive ball-level strategy search runs, on a
#: budget of 3 s for every k at every n up to it (2 cores, Python 3.11):
#: n <= 24 takes 2.8 s, its slowest call 0.25 s; n <= 25 takes 4.2 s.
BALL_SEARCH_GUARD_N = 24

#: A ball state up to relabelling: sorted (larger, smaller) side sizes.
SideSizes = tuple[tuple[int, int], ...]

#: A component's two sides as sorted ball tuples.
Sides = tuple[tuple[int, ...], tuple[int, ...]]


class BallAnswer(Enum):
    SAME = "same"
    DIFFERENT = "different"


#: Each answer by its transcript word.
_ANSWERS = {answer.value: answer for answer in BallAnswer}

# Hot paths read these: reading a member off an Enum class is several times slower.
_SAME, _DIFFERENT = BallAnswer.SAME, BallAnswer.DIFFERENT


class InconsistentAnswerError(ValueError):
    """An answer contradicts what earlier answers already force."""


class QuestionGraph:
    """Balls 1..n in two-sided components, with a full answer history.

    Each ball records its component's root, the component's smallest
    ball, and its side (0 or 1) relative to the root; each root records
    both sides as sorted ball tuples, keyed in ascending root order.  A
    merge keeps the smaller root and relabels the other component, so
    ``find`` is two list reads.  Those root sides are the only record of
    a component; ``weights()`` is cached until the next merge.
    """

    def __init__(self, n: int):
        if type(n) is not int:  # bool is an int subclass, so compare types
            raise ValueError(f"n must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"need at least one ball, got n={n}")
        self._n = n
        self._root = list(range(n + 1))  # index 0 unused
        self._side = [0] * (n + 1)  # side relative to the root
        self._sides = {ball: ((ball,), ()) for ball in range(1, n + 1)}
        self._weights: Position | None = None
        self.history: list[tuple[int, int, BallAnswer]] = []

    @property
    def n(self) -> int:
        return self._n

    def _check_ball(self, ball: int) -> None:
        if type(ball) is not int:  # bool is an int subclass, so compare types
            raise ValueError(f"ball must be an integer, got {ball!r}")
        if not (1 <= ball <= self._n):
            raise ValueError(f"ball {ball} out of range 1..{self._n}")

    def _pair(self, i: int, j: int) -> tuple[int, int, int]:
        """Both balls' roots and 1 when they sit on opposite sides, else 0."""
        if i == j:
            raise ValueError("cannot compare a ball with itself")
        n = self._n
        if type(i) is not int or not 0 < i <= n:  # checked inline: the hot path
            self._check_ball(i)
        if type(j) is not int or not 0 < j <= n:
            self._check_ball(j)
        return self._root[i], self._root[j], self._side[i] ^ self._side[j]

    def find(self, ball: int) -> tuple[int, int]:
        """Root of the ball's component and the ball's side relative to it.

        The root is the component's smallest ball and always on side 0.
        """
        if type(ball) is not int or not 0 < ball <= self._n:
            self._check_ball(ball)
        return self._root[ball], self._side[ball]

    def sides(self, root: int) -> Sides:
        """A root's two sides as sorted ball tuples, the root's side first."""
        return self._sides[root]

    def forced_answer(self, i: int, j: int) -> BallAnswer | None:
        """The answer already implied for (i, j), or None across components."""
        ri, rj, apart = self._pair(i, j)
        if ri != rj:
            return None
        return _DIFFERENT if apart else _SAME

    def add_comparison(self, i: int, j: int, answer: BallAnswer) -> None:
        """Record the answer to comparing balls i and j.

        Joins the two components under the implied side constraint.
        When i and j are already connected the answer is checked against
        the forced one: a contradiction raises InconsistentAnswerError
        and a consistent repeat leaves the structure unchanged (the
        record still enters the history).
        """
        if answer is not _SAME and answer is not _DIFFERENT:
            raise ValueError(f"answer must be a BallAnswer, got {answer!r}")
        keep, gone, apart = self._pair(i, j)
        flip = apart ^ (answer is _DIFFERENT)
        if keep == gone:
            if flip:
                forced = BallAnswer.DIFFERENT if apart else BallAnswer.SAME
                raise InconsistentAnswerError(
                    f"balls {i} and {j} are already forced to answer {forced.value}")
            self.history.append((i, j, answer))
            return
        if gone < keep:
            keep, gone = gone, keep  # flip is symmetric in the two roots
        sides = self._sides
        keep0, keep1 = sides[keep]
        gone0, gone1 = sides.pop(gone)
        root, side = self._root, self._side
        for ball in gone0 + gone1:
            root[ball] = keep
            side[ball] ^= flip
        if flip:
            gone0, gone1 = gone1, gone0
        sides[keep] = (tuple(sorted(keep0 + gone0)) if gone0 else keep0,
                       tuple(sorted(keep1 + gone1)) if gone1 else keep1)
        self._weights = None
        self.history.append((i, j, answer))

    def components(self) -> list[Sides]:
        """Each component's (larger, smaller) sides, in root order.

        On a weight-0 tie the root's side, which holds the smallest ball,
        counts as larger.
        """
        return [(zero, one) if len(zero) >= len(one) else (one, zero)
                for zero, one in self._sides.values()]

    def weights(self) -> Position:
        """The weight-level position induced by the current components."""
        if self._weights is None:
            self._weights = Position._sorted(tuple(sorted(
                [abs(len(zero) - len(one)) for zero, one in self._sides.values()])))
        return self._weights


def _check_params(g: QuestionGraph, params: GameParams) -> None:
    if g.n != params.n:
        raise ValueError(f"graph holds {g.n} balls but the game has n={params.n}")


def identify_majority(g: QuestionGraph, params: GameParams) -> int | None:
    """Smallest ball certain to be of the majority colour, or None.

    A ball qualifies when it sits on the larger side of a component whose
    weight exceeds the minority capacity, which holds for some ball exactly
    when the weight position is final.
    """
    _check_params(g, params)
    M = g.weights()
    s = minority_capacity(M, params.e)
    if M.elements[-1] <= s:
        return None  # not final: no component outweighs the minority capacity
    return min(larger[0] for larger, smaller in g.components() if len(larger) - len(smaller) > s)


def side_status_table(
    comps: list[Sides], n: int, k: int
) -> list[tuple[tuple[bool, bool], tuple[bool, bool]]]:
    """Per-side colour statuses realizable by some admissible colouring.

    Walks all 2^c assignments of the components' sides to the two
    colours; an assignment is admissible when one colour reaches k.
    Entry idx holds ((larger can be minority, larger can be majority),
    (smaller can be minority, smaller can be majority)).  Empty smaller
    sides keep (False, False).  Bit idx of a mask puts component idx's
    smaller side in colour A; the colour-A counts of all masks are built
    by doubling, and a smaller side's status is its larger side's swapped.
    """
    c = len(comps)
    if c > COLOURING_GUARD:
        raise ValueError(f"colouring enumeration is guarded at {COLOURING_GUARD} components")
    counts = [sum(len(larger) for larger, _ in comps)]
    for larger, smaller in comps:
        d = len(smaller) - len(larger)
        counts += [count + d for count in counts]
    full = (1 << c) - 1
    majority = minority = 0  # bit idx: component idx's larger side can be that
    for mask, count_a in enumerate(counts):
        if count_a >= k:
            majority |= full ^ mask
            minority |= mask
        elif n - count_a >= k:
            majority |= mask
            minority |= full ^ mask
    table = []
    for idx, (_, smaller) in enumerate(comps):
        larger = (bool(minority >> idx & 1), bool(majority >> idx & 1))
        table.append((larger, larger[::-1] if smaller else (False, False)))
    return table


def colour_options(g: QuestionGraph, params: GameParams, ball: int) -> tuple[bool, bool]:
    """(can be minority, can be majority): the ball's row of side_status_table.

    Both sides of a component always take opposite colours, and an
    admissible colouring must give one colour at least k balls.
    Exhaustive over the 2^c side assignments, guarded at 20 components.
    """
    _check_params(g, params)
    idx = list(g._sides).index(g.find(ball)[0])
    comps = g.components()
    table = side_status_table(comps, params.n, params.k)
    return table[idx][0 if ball in comps[idx][0] else 1]


def induced_move_and_choice(
    g: QuestionGraph, i: int, j: int, answer: BallAnswer
) -> tuple[tuple[int, int], AssignerChoice]:
    """The weight pair (w, w') and the choice realized by answering (i, j).

    Only defined for balls in distinct components.  The answer merges
    the two bipartitions; sides aligned (both balls on their larger or
    both on their smaller sides) make 'same' add the weights, opposite
    sides make 'same' cancel them.
    """
    ri, side_i = g.find(i)
    rj, side_j = g.find(j)
    if ri == rj:
        raise ValueError(f"balls {i} and {j} share a component; no move is induced")
    (zero_i, one_i), (zero_j, one_j) = g._sides[ri], g._sides[rj]
    wi, wj = len(zero_i) - len(one_i), len(zero_j) - len(one_j)  # side 0 is larger when >= 0
    pair = move_for_pair(g.weights(), abs(wi), abs(wj))
    aligned = ((wi >= 0) == (side_i == 0)) == ((wj >= 0) == (side_j == 0))
    plus = aligned == (answer is _SAME)
    return pair, AssignerChoice.PLUS if plus else AssignerChoice.MINUS


def ball_selector(selector: Selector) -> Callable[[QuestionGraph], tuple[int, int]]:
    """The weight-level Selector lifted to balls: a ball pair realizing its move.

    For the selector's value pair on the graph's weights it compares the
    roots, which are the smallest balls, of the first matching components in
    root order.  Which balls inside the components are compared is
    immaterial: the Assigner's answer controls the outcome either way.
    """
    def select(g: QuestionGraph) -> tuple[int, int]:
        w, wp = selector(g.weights())
        weight = {root: abs(len(zero) - len(one)) for root, (zero, one) in g._sides.items()}
        first = next(root for root in weight if weight[root] == w)
        return first, next(root for root in weight if root != first and weight[root] == wp)
    return select


def ball_assigner(assigner: Assigner) -> Callable[[QuestionGraph, int, int], BallAnswer]:
    """The weight-level Assigner lifted to balls: its answer to comparing i and j.

    Within a component the answer is forced.  Across components the
    assigner replies to the induced weight pair, translated back through
    the balls' sides; a comparison touching a weight-0 component yields the
    same position either way and is answered 'same'.
    """
    def answer(g: QuestionGraph, i: int, j: int) -> BallAnswer:
        forced = g.forced_answer(i, j)
        if forced is not None:
            return forced
        pair, same_choice = induced_move_and_choice(g, i, j, _SAME)
        if pair[1] == 0:
            return _SAME
        return _SAME if assigner(g.weights(), pair) is same_choice else _DIFFERENT
    return answer


def run_adversarial_game(params: GameParams, selector: Selector,
                         assigner: Assigner) -> tuple[QuestionGraph, int]:
    """Play the two weight-level strategies, lifted to balls, until a majority ball is known.

    Returns the question graph, whose history is the game's comparisons,
    and the announced ball.  Both strategies are for the game's excess.
    Against the solver's selector_move, either solver Assigner forces the
    game's exact optimum.
    """
    g = QuestionGraph(params.n)
    select, answer = ball_selector(selector), ball_assigner(assigner)
    while (ball := identify_majority(g, params)) is None:
        i, j = select(g)
        g.add_comparison(i, j, answer(g, i, j))
    return g, ball


def announced(sizes: SideSizes, k: int) -> bool:
    """Whether some component's larger side is surely majority: its smaller
    side plus every other larger side, the most the other colour can hold, is
    below k.  Some component passes exactly when the larger sides' total minus
    the largest side difference is below k.  No game reaches a state with no
    admissible colouring, which passes too.
    """
    return sum(a for a, _ in sizes) - max(a - b for a, b in sizes) < k


def merged_sizes(sizes: SideSizes) -> Iterator[tuple[SideSizes, SideSizes]]:
    """For each pair of components (a, b) and (c, d), the aligned merge
    (a + c, b + d) and the crossed merge (a + d, b + c), larger side first:
    the two answers to comparing them.  Equal pairs of sizes merge once.
    """
    for x, (a, b) in enumerate(sizes):
        if x and sizes[x - 1] == (a, b):
            continue
        for y in range(x + 1, len(sizes)):
            if y > x + 1 and sizes[y - 1] == sizes[y]:
                continue
            c, d = sizes[y]
            rest = sizes[:x] + sizes[x + 1:y] + sizes[y + 1:]
            crossed = (a + d, b + c) if a + d >= b + c else (b + c, a + d)
            yield (tuple(sorted(rest + ((a + c, b + d),))),
                   tuple(sorted(rest + (crossed,))))


def min_comparisons_ball_level(params: GameParams) -> int:
    """Worst-case-optimal comparison count by exhaustive strategy search.

    Searches question strategies on ball states up to relabelling, with
    finality from ``announced``, never consulting the weight-level game.
    Asks whether d comparisons suffice for d = 0, 1, ..., keeping the
    bounds each state has proved.  Guarded at ``BALL_SEARCH_GUARD_N``.
    """
    if params.n > BALL_SEARCH_GUARD_N:
        raise ValueError(f"exhaustive ball-level search is guarded at n={BALL_SEARCH_GUARD_N}")
    k = params.k
    at_least: dict[SideSizes, int] = {}
    at_most: dict[SideSizes, int] = {}

    def within(sizes: SideSizes, d: int) -> bool:
        if at_most.get(sizes, d + 1) <= d:
            return True
        if at_least.get(sizes, 0) > d:
            return False
        if announced(sizes, k):
            at_most[sizes] = 0
            return True
        if d and any(within(aligned, d - 1) and within(crossed, d - 1)
                     for aligned, crossed in merged_sizes(sizes)):
            at_most[sizes] = d
            return True
        at_least[sizes] = d + 1
        return False

    start = ((1, 0),) * params.n
    return next(d for d in range(params.n) if within(start, d))


def export_transcript(g: QuestionGraph, params: GameParams) -> str:
    """Line format: an ``n k`` header, then one ``i j same|different`` per record."""
    _check_params(g, params)
    # answer._value_ is answer.value without the descriptor call
    lines = [f"{params.n} {params.k}"]
    lines += [f"{i} {j} {answer._value_}" for i, j, answer in g.history]
    return "\n".join(lines) + "\n"


def _transcript_game(n: int, k: int) -> tuple[GameParams, QuestionGraph]:
    """A transcript header's game and empty graph; n over the ``play --n`` cap is refused first."""
    if n > PARSE_ELEMENT_LIMIT:
        raise ValueError(f"transcript n is limited to {PARSE_ELEMENT_LIMIT} balls, got {n}")
    return GameParams(n, k), QuestionGraph(n)


def import_transcript(text: str) -> tuple[GameParams, QuestionGraph]:
    """Rebuild a graph by replaying an exported transcript.

    Every record passes through add_comparison, so inconsistent
    transcripts raise InconsistentAnswerError.
    """
    lines = [stripped for line in text.splitlines() if (stripped := line.strip())]
    if not lines:
        raise ValueError("empty transcript")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"transcript header must be 'n k', got {lines[0]!r}")
    params, g = _transcript_game(int(head[0]), int(head[1]))
    for line in lines[1:]:
        try:
            i, j, word = line.split()
        except ValueError:
            raise ValueError(f"bad transcript record {line!r}") from None
        answer = _ANSWERS.get(word)
        if answer is None:
            raise ValueError(f"bad answer {word!r} in transcript")
        g.add_comparison(int(i), int(j), answer)
    return params, g


def export_transcript_json(g: QuestionGraph, params: GameParams) -> str:
    """The ``json.dumps(..., indent=2)`` layout plus a newline, written directly:
    n, k and balls are exact ints, answers plain words, and json's C encoder does not indent.
    """
    _check_params(g, params)
    records = ",\n".join([
        f'    {{\n      "i": {i},\n      "j": {j},\n      "answer": "{answer._value_}"\n    }}'
        for i, j, answer in g.history])
    comparisons = f"[\n{records}\n  ]" if records else "[]"
    return f'{{\n  "n": {params.n},\n  "k": {params.k},\n  "comparisons": {comparisons}\n}}\n'


def _json_int(obj: dict, key: str) -> int:
    if key not in obj:
        raise ValueError(f"JSON transcript is missing {key!r}")
    value = obj[key]
    if type(value) is not int:  # bool is an int subclass, so compare types
        raise ValueError(f"JSON transcript field {key!r} must be an integer, got {value!r}")
    return value


def import_transcript_json(text: str) -> tuple[GameParams, QuestionGraph]:
    """Rebuild a graph from the JSON export, checking its shape first.

    Malformed input raises ValueError, and inconsistent records raise
    InconsistentAnswerError, as in the line format.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("JSON transcript must be an object with 'n', 'k' and 'comparisons'")
    params, g = _transcript_game(_json_int(payload, "n"), _json_int(payload, "k"))
    records = payload.get("comparisons", [])
    if not isinstance(records, list):
        raise ValueError(f"JSON transcript 'comparisons' must be a list, got {records!r}")
    for record in records:
        if not isinstance(record, dict):
            raise ValueError(f"bad transcript record {record!r}")
        i, j = record.get("i"), record.get("j")
        if type(i) is not int or type(j) is not int:  # bool is an int subclass
            i, j = _json_int(record, "i"), _json_int(record, "j")  # raises the message
        word = record.get("answer")
        answer = _ANSWERS.get(word) if type(word) is str else None
        if answer is None:
            raise ValueError(f"bad answer {word!r} in transcript record {record!r}")
        g.add_comparison(i, j, answer)
    return params, g
