"""The benchmark's workloads: argv lists for ``majoritygame.cli.main``.

The seed reaches only the randomized suites, as ``--seed``; every other
op is deterministic.
"""

from __future__ import annotations

DEFAULT_SEED = 20917

WEIGHT_SUITES = (
    "conservation", "conservation-iterated", "start-position", "closed-form", "leibniz",
    "certificate", "final-bound", "potential-dominates", "formula", "two-one-family",
    "assigner-tie",
)
BALL_SUITES = ("reformulation", "adversarial")
RANDOMIZED_SUITES = frozenset(
    {"conservation", "conservation-iterated", "leibniz", "reformulation"})

#: Case counts per suite; those of randomized suites hold at DEFAULT_SEED only.
EXPECTED_CASES = {
    "conservation": 11129,
    "conservation-iterated": 10104,
    "start-position": 12678,
    "closed-form": 59868,
    "leibniz": 3000,
    "certificate": 27696,
    "final-bound": 13848,
    "potential-dominates": 598,
    "formula": 42,
    "two-one-family": 32,
    "assigner-tie": 8,
    "reformulation": 133255,
    "adversarial": 116,
}


def suite_argv(suite: str, seed: int) -> list[str]:
    argv = ["verify", "--suite", suite]
    if suite in RANDOMIZED_SUITES:
        argv += ["--seed", str(seed)]
    return argv + ["--format", "json"]


def build(workload: str, seed: int) -> list[list[str]]:
    """The ops of one timed pass, in order."""
    if workload == "solve-deep":
        return [["value", "--n", "29", "--k", "15", "--format", "json"],
                ["value", "--n", "28", "--k", "15", "--format", "json"]]
    if workload == "weights-sweep":
        return ([["table", "--max-n", "20", "--format", "json"]]
                + [suite_argv(suite, seed) for suite in WEIGHT_SUITES])
    if workload == "balls-verify":
        return [suite_argv(suite, seed) for suite in BALL_SUITES]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("solve-deep", "weights-sweep", "balls-verify")


def expected_cases(argv: list[str], seed: int) -> int | None:
    """The case count a verify op must report, or None when only repeats are checked."""
    if argv[0] != "verify":
        return None
    suite = argv[argv.index("--suite") + 1]
    if suite in RANDOMIZED_SUITES and seed != DEFAULT_SEED:
        return None
    return EXPECTED_CASES.get(suite)


def op_label(argv: list[str]) -> str:
    """Metric stem for an op's untraced wall time."""
    if argv[0] == "value":
        return f"solver.value_n{argv[argv.index('--n') + 1]}"
    if argv[0] == "table":
        return "solver.table"
    if argv[0] == "verify":
        return f"verify.{argv[argv.index('--suite') + 1]}"
    return f"cli.{argv[0]}"
