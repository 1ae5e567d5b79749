"""Span tracer that wraps the package's public functions from outside.

A target is replaced at every binding that holds it: the defining
module's attribute, every other package module that imported it by
name (``solver.apply_move`` as well as ``core.apply_move``) and any
module-level dict that registers it (``verify.SUITES``).  Methods are
replaced on their class.  Spans are aggregated in memory per
(name, parent) into a call count, inclusive time and self time, and
written out once when the run ends.

Timed targets measure each call.  Inclusive time is added only at the
outermost frame of a name, so a recursive function such as
``GameSolver.value`` counts its wall once, while self time (a frame's
duration minus its wrapped children) is summed over every frame.  Hot
leaves are counted without timers; their time stays in the caller's
self time.  A target that cannot be resolved, for instance because a
refactor renamed it, is skipped and listed instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

ROOT = "<root>"

TIMED = "timed"
COUNT = "count"


def _legal_moves_out(args, kwargs, result):
    return len(result)


def _colouring_masks(args, kwargs, result):
    comps = args[0] if args else kwargs["comps"]
    return 1 << len(comps)


class _RepeatedPosition:
    """Extra hook: 1 when the call's position was already seen in the process."""

    def __init__(self):
        self.seen = set()

    def __call__(self, args, kwargs, result):
        key = getattr(args[0], "elements", None) if args else None
        if key in self.seen:
            return 1
        self.seen.add(key)
        return 0


def targets():
    """(layer, span name, module, attribute path, mode, extra hook) per target.

    The verify suites are added from ``verify.SUITES`` at install time,
    one span ``verify.<suite>`` each.
    """
    repeat = _RepeatedPosition()
    return [
        ("cli", "cli.main", "cli", "main", TIMED, None),
        ("core", "core.apply_move", "core", "apply_move", TIMED, None),
        ("core", "core.legal_moves", "core", "legal_moves", TIMED, _legal_moves_out),
        ("core", "core.is_final", "core", "is_final", COUNT, None),
        ("core", "core.Position.new", "core", "Position.__init__", COUNT, None),
        ("solver", "solver.value", "solver", "GameSolver.value", TIMED, None),
        ("statistics", "statistics.signed_count", "statistics", "signed_count", TIMED, repeat),
        ("statistics", "statistics.potential", "statistics", "potential", TIMED, repeat),
        ("statistics", "statistics.signed_count_recursive", "statistics",
         "signed_count_recursive", TIMED, repeat),
        ("statistics", "statistics.signed_count_bruteforce", "statistics",
         "signed_count_bruteforce", TIMED, repeat),
        ("statistics", "statistics.subposition_weight_counts", "statistics",
         "subposition_weight_counts", TIMED, repeat),
        ("laurent", "laurent.certificate_value", "laurent", "certificate_value", TIMED, None),
        ("laurent", "laurent.mul", "laurent", "LaurentPoly.__mul__", TIMED, None),
        ("laurent", "laurent.hyperderivative", "laurent", "LaurentPoly.hyperderivative",
         TIMED, None),
        ("laurent", "laurent.poly_new", "laurent", "LaurentPoly.__init__", COUNT, None),
        ("ballgame", "ballgame.find", "ballgame", "QuestionGraph.find", COUNT, None),
        ("ballgame", "ballgame.components", "ballgame", "QuestionGraph.components", TIMED, None),
        ("ballgame", "ballgame.weights", "ballgame", "QuestionGraph.weights", TIMED, None),
        ("ballgame", "ballgame.add_comparison", "ballgame", "QuestionGraph.add_comparison",
         TIMED, None),
        ("ballgame", "ballgame.side_status_table", "ballgame", "side_status_table", TIMED,
         _colouring_masks),
        ("ballgame", "ballgame.identify_majority", "ballgame", "identify_majority", TIMED, None),
        ("ballgame", "ballgame.induced_move_and_choice", "ballgame", "induced_move_and_choice",
         TIMED, None),
        ("ballgame", "ballgame.min_comparisons_ball_level", "ballgame",
         "min_comparisons_ball_level", TIMED, None),
        ("ballgame", "ballgame.export_transcript", "ballgame", "export_transcript", TIMED, None),
        ("ballgame", "ballgame.import_transcript", "ballgame", "import_transcript", TIMED, None),
        ("ballgame", "ballgame.export_transcript_json", "ballgame", "export_transcript_json",
         TIMED, None),
        ("ballgame", "ballgame.import_transcript_json", "ballgame", "import_transcript_json",
         TIMED, None),
    ]


class Tracer:
    """In-memory span aggregation keyed by (name, parent name).

    ``spans[(name, parent)]`` is ``[calls, inclusive_s, self_s, extra]``;
    count-only targets leave both times at 0.
    """

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}
        self.layers: dict[str, str] = {}
        self.skipped: list[str] = []
        self._stack: list[list] = [[ROOT, 0.0]]
        self._active: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def timed(self, name, fn, extra=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth = active[name] - 1
                active[name] = depth
                key = (name, parent[0])
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[2] += elapsed - frame[1]
                if depth == 0:
                    agg[1] += elapsed
                parent[1] += elapsed
            if extra is not None:
                agg[3] += extra(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, stack[-1][0])
            agg = spans.get(key)
            if agg is None:
                agg = spans[key] = [0, 0.0, 0.0, 0]
            agg[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package: str = "majoritygame") -> None:
        """Wrap every target of the package's loaded modules."""
        plan = list(targets())
        try:
            suites = importlib.import_module(f"{package}.verify").SUITES
            plan += [("verify", f"verify.{suite}", "verify", None, TIMED, None)
                     for suite in suites]
        except (ImportError, AttributeError):
            self.skipped.append("verify.SUITES")
            suites = {}
        for layer, name, module, attr, mode, extra in plan:
            if attr is None:
                orig = suites[name.split(".", 1)[1]]
                owner, leaf = None, None
            else:
                try:
                    owner, leaf = self._resolve(f"{package}.{module}", attr)
                    orig = getattr(owner, leaf)
                except (ImportError, AttributeError):
                    self.skipped.append(name)
                    continue
            wrapper = self.timed(name, orig, extra) if mode == TIMED else self.counted(name, orig)
            self.layers[name] = layer
            if isinstance(owner, type):
                self._replace(owner, leaf, wrapper)
            else:
                self._rebind(package, orig, wrapper)

    @staticmethod
    def _resolve(module_name: str, attr: str):
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, leaf

    def _replace(self, owner, leaf, value) -> None:
        self._restore.append((owner, leaf, owner.__dict__[leaf]))
        setattr(owner, leaf, value)

    def _rebind(self, package: str, orig, wrapper) -> None:
        """Point every module binding and registry entry holding orig at wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._replace(mod, attr, wrapper)
                elif type(value) is dict:
                    for key, item in value.items():
                        if item is orig:
                            value[key] = wrapper
                            self._restore.append((value, key, orig))

    def uninstall(self) -> None:
        for owner, leaf, value in reversed(self._restore):
            if type(owner) is dict:
                owner[leaf] = value
            else:
                setattr(owner, leaf, value)
        self._restore.clear()

    # -- read-out ----------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, float, int]:
        """(calls, inclusive_s, self_s, extra) for a name, summed over parents."""
        calls, incl, self_s, extra = 0, 0.0, 0.0, 0
        for (span, _parent), agg in self.spans.items():
            if span == name:
                calls += agg[0]
                incl += agg[1]
                self_s += agg[2]
                extra += agg[3]
        return calls, incl, self_s, extra

    def calls_under(self, name: str, parent: str) -> int:
        agg = self.spans.get((name, parent))
        return agg[0] if agg else 0

    def progress(self) -> tuple[int, dict[str, float]]:
        """(solver table entries, self time per layer) so far.

        A memo miss is the one ``GameSolver.value`` frame that goes on to
        test ``is_final``; a hit returns before it.  So the is_final calls
        made directly under ``solver.value`` count the distinct positions
        valued, summed over solver tables.
        """
        return self.calls_under("core.is_final", "solver.value"), self.layer_self()

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (span, _parent), agg in self.spans.items():
            layer = self.layers.get(span, "other")
            out[layer] = out.get(layer, 0.0) + agg[2]
        return out

    def as_json(self) -> dict:
        return {
            "spans": [
                {"name": name, "parent": parent, "calls": agg[0],
                 "inclusive_s": agg[1], "self_s": agg[2], "extra": agg[3],
                 "layer": self.layers.get(name, "other")}
                for (name, parent), agg in sorted(self.spans.items())
            ],
            "totals": {name: self.totals(name) for name in self.layers},
            "layer_self_s": self.layer_self(),
            "skipped": self.skipped,
        }
