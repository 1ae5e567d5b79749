"""Exact analysis of the k-majority comparison game.

n balls are coloured in two unseen colours, at least k of them alike
(k > n/2).  Asking "are these two balls the same colour?" against an
adaptive answerer, identifying one ball of the majority colour needs
exactly 2(n-k) - binary_weight(n-k) comparisons.  The package provides
the game engine at ball and weight level, the signed subposition
statistics behind the bound, exact minimax solving, and verification
suites that machine-check every identity involved.
"""

from .ballgame import (
    AdversarialGameRecord,
    BallAnswer,
    Component,
    InconsistentAnswerError,
    QuestionGraph,
    adversarial_answer,
    consistent_colouring_exists,
    export_transcript,
    export_transcript_json,
    identify_majority,
    import_transcript,
    import_transcript_json,
    induced_move_and_choice,
    min_comparisons_ball_level,
    optimal_selector_comparison,
    run_adversarial_game,
)
from .core import (
    AssignerChoice,
    GameParams,
    Position,
    apply_move,
    is_final,
    legal_moves,
    minority_capacity,
    move_for_pair,
    start_position,
)
from .laurent import (
    LaurentPoly,
    certificate_polynomial,
    certificate_value,
    final_position_bound_holds,
)
from .report import SuiteReport
from .solver import (
    GameSolver,
    MemoLimitExceeded,
    SolveResult,
    TraceStep,
    formula_comparisons,
    potential_guided_choice,
    reachable_positions,
    solve_game,
    value_nomemo,
)
from .statistics import (
    INFINITE,
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
from .verify import SUITES, run_all_suites, run_suite

__version__ = "1.0.0"

__all__ = [
    "AdversarialGameRecord",
    "AssignerChoice",
    "BallAnswer",
    "Component",
    "GameParams",
    "GameSolver",
    "INFINITE",
    "InconsistentAnswerError",
    "LaurentPoly",
    "MemoLimitExceeded",
    "Position",
    "QuestionGraph",
    "SolveResult",
    "SUITES",
    "SuiteReport",
    "TraceStep",
    "adversarial_answer",
    "apply_move",
    "binary_weight",
    "binomial",
    "certificate_polynomial",
    "certificate_value",
    "consistent_colouring_exists",
    "export_transcript",
    "export_transcript_json",
    "final_position_bound_holds",
    "formula_comparisons",
    "identify_majority",
    "import_transcript",
    "import_transcript_json",
    "induced_move_and_choice",
    "is_final",
    "legal_moves",
    "min_comparisons_ball_level",
    "minority_capacity",
    "move_for_pair",
    "optimal_selector_comparison",
    "potential",
    "potential_guided_choice",
    "potential_of_order",
    "reachable_positions",
    "run_adversarial_game",
    "run_all_suites",
    "run_suite",
    "signed_count",
    "signed_count_bruteforce",
    "signed_count_recursive",
    "solve_game",
    "start_position",
    "subposition_weight_counts",
    "two_adic_valuation",
    "value_nomemo",
]
