"""Correctness gate for one ``majoritygame.cli.main`` call.

Every answer is checked against facts computed here, never against the
package's own helpers: a ``value`` or ``table`` comparison count must
equal ``2d - popcount(d)`` with ``d = n - k``, and a suite must pass
with the case count expected for its seed.
"""

from __future__ import annotations

import json


def comparisons_for(n: int, k: int) -> int:
    d = n - k
    return 2 * d - bin(d).count("1")


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def check_op(argv: list[str], rc, text: str, expected_cases: int | None = None):
    """Return (errors, cases) for one op; an empty error list means it passed.

    ``cases`` is the suite's reported case count for ``verify`` ops and
    None otherwise.  ``expected_cases`` of None skips the count check;
    the caller then compares counts across passes instead.
    """
    if rc != 0:
        return [f"exit code {rc!r}"], None
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"], None
    try:
        command = argv[0]
        if command == "value":
            return _check_value(argv, payload), None
        if command == "table":
            return _check_table(argv, payload), None
        if command == "verify":
            return _check_verify(argv, payload, expected_cases)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return [f"malformed {argv[0]} output: {exc!r}"], None
    return [f"no check for command {argv[0]!r}"], None


def _check_value(argv, payload) -> list[str]:
    n, k = int(_flag(argv, "--n")), int(_flag(argv, "--k"))
    res = payload["results"]
    want = comparisons_for(n, k)
    errors = []
    if (res["n"], res["k"]) != (n, k):
        errors.append(f"answered n={res['n']} k={res['k']}, asked n={n} k={k}")
    if res["comparisons"] != want:
        errors.append(f"n={n} k={k}: comparisons {res['comparisons']} != {want}")
    if res["value"] != n - want:
        errors.append(f"n={n} k={k}: value {res['value']} != {n - want}")
    if payload["failures"]:
        errors.append(f"reported failures {payload['failures'][:3]}")
    return errors


def _check_table(argv, payload) -> list[str]:
    max_n = int(_flag(argv, "--max-n"))
    want = {(n, k) for n in range(1, max_n + 1) for k in range(n // 2 + 1, n + 1)}
    rows = payload["results"]
    errors = []
    got = {(row["n"], row["k"]) for row in rows}
    if got != want or len(rows) != len(want):
        errors.append(f"table covers {len(rows)} games, expected {len(want)}")
    for row in rows:
        if row["comparisons"] != comparisons_for(row["n"], row["k"]):
            errors.append(f"n={row['n']} k={row['k']}: comparisons {row['comparisons']}")
    if payload["failures"]:
        errors.append(f"reported failures {payload['failures'][:3]}")
    return errors


def _check_verify(argv, payload, expected_cases):
    suite = _flag(argv, "--suite")
    results = payload["results"]
    if len(results) != 1:
        return [f"{suite}: {len(results)} reports, expected 1"], None
    rep = results[0]
    errors = []
    if not rep["suite"].startswith(suite):
        errors.append(f"report is for {rep['suite']!r}, asked {suite!r}")
    if rep["failures"] or not rep["passed"] or payload["failures"]:
        errors.append(f"{suite}: {rep['failures']} failures")
    cases = rep["cases"]
    if expected_cases is not None and cases != expected_cases:
        errors.append(f"{suite}: {cases} cases, expected {expected_cases}")
    return errors, cases
