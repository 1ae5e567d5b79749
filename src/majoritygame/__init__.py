"""Exact analysis of the k-majority comparison game.

n balls are coloured in two unseen colours, at least k of them alike
(k > n/2).  Asking "are these two balls the same colour?" against an
adaptive answerer, identifying one ball of the majority colour needs
exactly 2(n-k) - binary_weight(n-k) comparisons.  The package provides
the game engine at ball and weight level, the signed subposition
statistics behind the bound, exact minimax solving, and verification
suites that machine-check every identity involved.
"""

from .core import GameParams, Position, legal_moves, start_position
from .laurent import LaurentPoly, certificate_polynomial
from .solver import GameSolver, MemoLimitExceeded, formula_comparisons
from .statistics import potential, signed_count, subposition_weight_counts
from .verify import iter_suites, run_suite

__version__ = "1.0.0"

__all__ = [
    "GameParams",
    "GameSolver",
    "LaurentPoly",
    "MemoLimitExceeded",
    "Position",
    "certificate_polynomial",
    "formula_comparisons",
    "iter_suites",
    "legal_moves",
    "potential",
    "run_suite",
    "signed_count",
    "start_position",
    "subposition_weight_counts",
]
